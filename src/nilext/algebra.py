"""Finite-dimensional algebras given by structure constants, and the
invariants used to tell them apart."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import identities
from .linalg import (Matrix, Subspace, add_row, kernel_basis,
                     projective_points, sparse_rref, zero_vec)


class Algebra:
    """An algebra over an exact field, stored as the table of basis products."""

    def __init__(self, field, table, label="", params=None):
        n = len(table)
        if any(len(row) != n or any(len(vec) != n for vec in row)
               for row in table):
            raise ValueError("structure table is not %d x %d x %d" % (n, n, n))
        self.field = field
        self.dim = n
        self.table = [[list(vec) for vec in row] for row in table]
        self.label = label
        self.params = dict(params or {})
        self._nonzero = {}  # (i, j) -> ((k, c), ...) over the nonzero c
        for i in range(n):
            for j in range(n):
                terms = tuple((k, c) for k, c in enumerate(self.table[i][j])
                              if c)
                if terms:
                    self._nonzero[(i, j)] = terms
        self._rows = {}  # i -> [(j, terms of e_i e_j)], in _nonzero's order
        for (i, j), terms in self._nonzero.items():
            self._rows.setdefault(i, []).append((j, terms))
        self._cache = {}

    def __repr__(self):
        return "Algebra(%s, dim=%d over %s)" % (self.label or "?", self.dim,
                                                self.field.name)

    def basis_vector(self, i):
        v = zero_vec(self.field, self.dim)
        v[i] = self.field.one
        return v

    def multiply(self, x, y):
        f = self.field
        z = f.zero
        out = [z] * self.dim
        for i, row in self._rows.items():
            c = x[i]
            if c:
                for j, terms in row:
                    d = y[j]
                    if d:
                        cd = c * d
                        for k, s in terms:
                            out[k] = out[k] + cd * s
        return out

    def subspace(self, vectors):
        return Subspace(self.field, self.dim, vectors)

    def annihilator(self, side="both") -> Subspace:
        """Vectors x with x*A = 0 (left), A*x = 0 (right), or both;
        memoised, as the structure table is never mutated. The equations
        sum_i x_i (e_i e_j)_k = 0 (left) and sum_i (e_j e_i)_k x_i = 0
        (right) are written from the nonzero structure constants."""
        if side not in ("both", "left", "right"):
            raise ValueError("annihilator side must be both, left or right")
        key = "ann:" + side
        if key in self._cache:
            return self._cache[key]
        f = self.field
        n = self.dim
        eqs = {}  # (side, j, k) -> {i: coefficient of x_i}
        for (i, j), terms in self._nonzero.items():
            for k, c in terms:
                if side != "right":
                    eqs.setdefault(("left", j, k), {})[i] = c
                if side != "left":
                    eqs.setdefault(("right", i, k), {})[j] = c
        self._cache[key] = Subspace(f, n, kernel_basis(f, n, eqs.values()))
        return self._cache[key]

    def square(self) -> Subspace:
        """A^2, the span of the table's vectors. Memoised, as the structure
        table is never mutated."""
        if "square" not in self._cache:
            self._cache["square"] = self.subspace(
                [self.table[i][j] for i, j in self._nonzero])
        return self._cache["square"]

    def square_functionals(self):
        """A basis of the linear functionals vanishing on A^2, each as its
        (index, coefficient) pairs over the nonzero coefficients; memoised."""
        if "square_funcs" not in self._cache:
            funcs = kernel_basis(self.field, self.dim,
                                 map(dict, map(enumerate, self.square().basis)))
            self._cache["square_funcs"] = [[(m, c) for m, c in enumerate(lam)
                                            if c] for lam in funcs]
        return self._cache["square_funcs"]

    def power_chain(self):
        """Dimensions of the descending chain of product-span subspaces,
        starting at the whole algebra, ending at the first zero term if it
        is reached within dim*dim + 2 steps. The second term is the
        memoised square()."""
        full = self.subspace([self.basis_vector(i) for i in range(self.dim)])
        powers = [full, self.square()] if self.dim else [full]
        dims = [p.dim for p in powers]
        cap = self.dim * self.dim + 2
        if self.dim and dims[1] == self.dim:  # A^2 = A, so every term is A
            return [self.dim] * cap
        while dims[-1] > 0 and len(powers) < cap:
            k = len(powers) + 1
            acc = self.subspace([self.multiply(a, b) for i in range(1, k)
                                 for a in powers[i - 1].basis
                                 for b in powers[k - i - 1].basis])
            powers.append(acc)
            dims.append(acc.dim)
        return dims

    def is_nilpotent(self) -> bool:
        """Whether the multiplication algebra M(A) is nilpotent, which is
        what nilpotency of A means. M(A) is the associative algebra
        generated by the operators L_e and R_e; it is not built.

        Let V_0 = A, V_1 = A A (the span of the table's vectors) and
        V_{k+1} = A V_k + V_k A. M(A)^k is spanned by the operator words
        of length at least k. The words of length exactly k applied to A
        span V_k, and V_1 lies in V_0, so by induction V_{k+1} lies in V_k
        and M(A)^k A = V_k. An operator is zero when it kills A, so M(A)
        is nilpotent exactly when some V_k is 0. Once V_{k+1} = V_k every
        later term equals V_k, so the loop stops there. Each e_i x and
        x e_i is summed from the nonzero structure constants alone."""
        if "nilpotent" in self._cache:
            return self._cache["nilpotent"]
        z = self.field.zero
        n = self.dim
        v = self.square()
        while v.dim:
            prods = []
            for x in v.basis:
                out = [[z] * n for _ in range(2 * n)]  # e_i x, then x e_i
                for (i, j), terms in self._nonzero.items():
                    for p, c in ((i, x[j]), (n + j, x[i])):
                        if c:
                            for k, s in terms:
                                out[p][k] = out[p][k] + c * s
                prods += out
            nxt = self.subspace(prods)
            if nxt.dim == v.dim:
                break
            v = nxt
        self._cache["nilpotent"] = v.dim == 0
        return self._cache["nilpotent"]

    def _derivation_equations(self):
        """The linear equations D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on an
        n x n matrix D, one per (i, j, k) in that order, read at coordinate
        k: each is {r * n + c: coefficient of the entry D[r][c]} over the
        nonzero coefficients, and equations with none are left out."""
        n = self.dim
        z = self.field.zero
        eqs = {}  # (i, j, k) -> {r * n + c: coefficient}

        def add(key, rc, s):
            eq = eqs.setdefault(key, {})
            eq[rc] = eq.get(rc, z) + s

        for (i, j), terms in self._nonzero.items():
            for c, s in terms:  # D(e_i e_j) reads column c of D
                for k in range(n):
                    add((i, j, k), k * n + c, s)
            # s = (e_i e_j)_k: D(e_m) e_j gives -s D[i][m] in (m, j, k),
            # e_i D(e_m) gives -s D[j][m] in (i, m, k)
            for k, s in terms:
                for m in range(n):
                    add((m, j, k), i * n + m, -s)
                    add((i, m, k), j * n + m, -s)
        out = []
        for key in sorted(eqs):
            eq = {rc: s for rc, s in eqs[key].items() if s}
            if eq:
                out.append(eq)
        return out

    def der_dim(self) -> int:
        """dim Der(A): n^2 minus the rank of the derivation equations."""
        return self.dim * self.dim - len(
            sparse_rref(self.field, self._derivation_equations()))

    def satisfies(self, name: str) -> bool:
        key = "id:" + name
        if key not in self._cache:
            self._cache[key] = identities.holds(self, identities.builtin(name))
        return self._cache[key]

    def is_cd_by_identities(self) -> bool:
        return all(self.satisfies(nm) for nm in identities.CD_NAMES)

    def is_cd_by_operators(self) -> bool:
        """Same property tested through operators: every commutator of two
        multiplication operators (left or right, in any mix) must be a
        derivation. Der(A) is not built: each commutator is substituted
        into the derivation equations, and the first equation it fails
        decides. The operators L_e_i and R_e_i are read off the nonzero
        structure constants as {row: {column: entry}}; zero ones commute
        into 0, a derivation, and are dropped."""
        n = self.dim
        z = self.field.zero
        reads = {}  # r * n + c -> [(equation, coefficient of D[r][c])]
        for e, eq in enumerate(self._derivation_equations()):
            for rc, s in eq.items():
                reads.setdefault(rc, []).append((e, s))
        ops = [({}, {}) for _ in range(n)]  # (L_e_i, R_e_i)
        for (i, j), terms in self._nonzero.items():
            for k, s in terms:  # L_e_i[k][j] = R_e_j[k][i] = s
                ops[i][0].setdefault(k, {})[j] = s
                ops[j][1].setdefault(k, {})[i] = s
        ops = [op for pair in ops for op in pair if op]

        def times(x, y):  # x y as {r * n + c: entry}
            out = {}
            for r, row in x.items():
                for m, a in row.items():
                    for c, b in y.get(m, {}).items():
                        out[r * n + c] = out.get(r * n + c, z) + a * b
            return out

        for p in range(len(ops)):
            for q in range(p + 1, len(ops)):
                xy, yx = times(ops[p], ops[q]), times(ops[q], ops[p])
                res = {}
                for rc in xy.keys() | yx.keys():
                    v = xy.get(rc, z) - yx.get(rc, z)
                    if v:
                        for e, s in reads.get(rc, ()):
                            res[e] = res.get(e, z) + s * v
                if any(res.values()):
                    return False
        return True

    def change_field(self, field, convert):
        table = [[[convert(c) for c in vec] for vec in row] for row in self.table]
        return Algebra(field, table, label=self.label, params=self.params)


def is_homomorphism(a: Algebra, b: Algebra, phi: Matrix) -> bool:
    if phi.nrows != b.dim or phi.ncols != a.dim:
        raise ValueError("map is %d x %d, not %d x %d"
                         % (phi.nrows, phi.ncols, b.dim, a.dim))
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = phi.apply(a.table[i][j])
            rhs = b.multiply(phi.col(i), phi.col(j))
            if lhs != rhs:
                return False
    return True


_FP_IDENTITIES = ("commutative", "anticommutative", "cd1", "cd2", "cd3",
                  "left3zero", "right3zero", "jacobi_commutator",
                  "alia0", "alia1", "alia_opposite")

# The fingerprint's invariants, in the order they are compared: its fields,
# then the identities of _FP_IDENTITIES. Each maps an algebra to its value.
_INVARIANTS = dict([
    ("dim", lambda a: a.dim),
    ("nilpotent", Algebra.is_nilpotent),
    ("chain", lambda a: tuple(a.power_chain())),
    ("ann_dim", lambda a: a.annihilator("both").dim),
    ("left_ann_dim", lambda a: a.annihilator("left").dim),
    ("right_ann_dim", lambda a: a.annihilator("right").dim),
    ("der_dim", Algebra.der_dim),
] + [(nm, lambda a, nm=nm: a.satisfies(nm)) for nm in _FP_IDENTITIES])


def invariant(a: Algebra, name: str):
    """The named fingerprint invariant of a; memoised in a._cache."""
    key = "inv:" + name
    if key not in a._cache:
        a._cache[key] = _INVARIANTS[name](a)
    return a._cache[key]


def first_difference(a: Algebra, b: Algebra):
    """The first fingerprint invariant, in comparison order, on which a and
    b differ, or None. Each is computed for both algebras only once the
    ones before it agree."""
    for name in _INVARIANTS:
        if invariant(a, name) != invariant(b, name):
            return name
    return None


def element_profile(a: Algebra):
    """Over a prime field: dim Ann(A), and how many projective points x of
    a complement of Ann(A) have each type (x^2 = 0, x in A^2 + Ann(A),
    dim xA, dim Ax), as sorted (type, count) pairs; memoised in a._cache.
    The complement is spanned by the e_c whose column c is not a pivot of
    Ann(A)'s basis. x^2 and the rows x e_j and e_j x are summed from the
    nonzero structure constants e_c e_j and e_j e_c of the free columns c,
    and the dimensions are ranks from sparse_rref.

    A type depends only on x mod Ann(A), and scaling x keeps it. An
    isomorphism A -> B maps Ann(A) onto Ann(B) and A^2 onto B^2, so it
    maps the points of A/Ann(A) onto those of B/Ann(B), keeping each type:
    isomorphic algebras have equal profiles."""
    if "element_profile" in a._cache:
        return a._cache["element_profile"]
    f, n = a.field, a.dim
    z, elts = f.zero, f.elements()
    ann = a.annihilator("both")
    free = [c for c in range(n) if c not in ann.pivots]
    span = a.square().add(ann)
    left = {c: [] for c in free}  # c -> (j, k, (e_c e_j)_k) over nonzeros
    right = {c: [] for c in free}  # c -> (j, k, (e_j e_c)_k) over nonzeros
    for (i, j), terms in a._nonzero.items():
        for k, s in terms:
            if i in left:
                left[i].append((j, k, s))
            if j in right:
                right[j].append((i, k, s))
    counts = {}
    for t in projective_points(f.p, len(free)):
        x = [z] * n
        for c, tc in zip(free, t):
            x[c] = elts[tc]
        sq = {}  # k -> (x^2)_k
        xa = {}  # j -> x e_j as {k: coefficient}, over the j some term reaches
        ax = {}  # j -> e_j x, likewise
        for c in free:
            tc = x[c]
            if tc:
                for j, k, s in left[c]:
                    row = xa.setdefault(j, {})
                    ts = tc * s
                    row[k] = row.get(k, z) + ts
                    if x[j]:
                        sq[k] = sq.get(k, z) + ts * x[j]
                for j, k, s in right[c]:
                    row = ax.setdefault(j, {})
                    row[k] = row.get(k, z) + tc * s
        kind = (not any(sq.values()), span.contains(x),
                len(sparse_rref(f, xa.values())),
                len(sparse_rref(f, ax.values())))
        counts[kind] = counts.get(kind, 0) + 1
    a._cache["element_profile"] = ann.dim, tuple(sorted(counts.items()))
    return a._cache["element_profile"]


@dataclass(frozen=True)
class Fingerprint:
    dim: int
    nilpotent: bool
    chain: tuple
    ann_dim: int
    left_ann_dim: int
    right_ann_dim: int
    der_dim: int
    ids: tuple  # of (name, bool)


def fingerprint(a: Algebra) -> Fingerprint:
    """Every invariant of a, from the table first_difference walks."""
    values = [invariant(a, name) for name in _INVARIANTS]
    k = len(_INVARIANTS) - len(_FP_IDENTITIES)
    return Fingerprint(*values[:k], ids=tuple(zip(_FP_IDENTITIES, values[k:])))


def generating_scheme(a: Algebra):
    """Greedy generators and products whose values span the algebra, as a
    straight-line program: (num_gens, steps, values, inv, coords).

    Step k is ("gen", g) or ("mul", x, y) over earlier steps x and y, with
    value values[k]; the values form a basis, inv inverts the matrix whose
    columns they are, and coords[i][j] lists the nonzero (k, c) with
    values[i] values[j] = sum of c values[k]. Kept in a._cache, since a
    structure table is never mutated; callers must not mutate it either.
    """
    if "scheme" in a._cache:
        return a._cache["scheme"]
    f = a.field
    rows = {}  # the values' span, as add_row pivot rows
    steps = []
    values = []
    num_gens = 0
    while len(rows) < a.dim:
        picked = next(i for i in range(a.dim) if add_row(f, rows, {i: f.one}))
        steps.append(("gen", num_gens))
        num_gens += 1
        values.append(a.basis_vector(picked))
        grew = True
        while grew and len(rows) < a.dim:
            grew = False
            for x, y in product(range(len(steps)), repeat=2):
                v = a.multiply(values[x], values[y])
                if add_row(f, rows, dict(enumerate(v))):
                    steps.append(("mul", x, y))
                    values.append(v)
                    grew = True
                    if len(rows) == a.dim:
                        break
    inv = Matrix.from_cols(f, values).inverse()
    coords = [[[(k, c) for k, c in enumerate(inv.apply(a.multiply(x, y))) if c]
               for y in values] for x in values]
    a._cache["scheme"] = num_gens, steps, values, inv, coords
    return a._cache["scheme"]


def eval_tree(a: Algebra, steps, gen_images):
    """Values in a of every step of a generating scheme, generator g sent to
    gen_images[g]; each product is formed once."""
    vals = []
    for s in steps:
        vals.append(gen_images[s[1]] if s[0] == "gen"
                    else a.multiply(vals[s[1]], vals[s[2]]))
    return vals
