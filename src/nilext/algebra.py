"""Finite-dimensional algebras given by structure constants, and the
invariants used to tell them apart."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import identities
from .linalg import Matrix, Subspace, kernel_basis, zero_vec


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
        memoised, as the structure table is never mutated."""
        if side not in ("both", "left", "right"):
            raise ValueError("annihilator side must be both, left or right")
        key = "ann:" + side
        if key in self._cache:
            return self._cache[key]
        f = self.field
        n = self.dim
        rows = []
        for j in range(n):
            for k in range(n):
                if side in ("both", "left"):
                    rows.append([self.table[i][j][k] for i in range(n)])
                if side in ("both", "right"):
                    rows.append([self.table[j][i][k] for i in range(n)])
        self._cache[key] = Subspace(f, n, kernel_basis(Matrix(f, rows)))
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
            sq = self.square()
            funcs = kernel_basis(Matrix(self.field, sq.basis
                                        or [zero_vec(self.field, self.dim)]))
            self._cache["square_funcs"] = [[(m, c) for m, c in enumerate(lam)
                                            if c] for lam in funcs]
        return self._cache["square_funcs"]

    def power_chain(self):
        """Dimensions of the descending chain of product-span subspaces,
        starting at the whole algebra, ending at the first zero term if it
        is reached within dim*dim + 2 steps."""
        full = self.subspace([self.basis_vector(i) for i in range(self.dim)])
        powers = [full]
        dims = [full.dim]
        cap = self.dim * self.dim + 2
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

    def derivations(self) -> Subspace:
        """Matrices D with D(xy) = D(x)y + xD(y), flattened row-major."""
        if "der" in self._cache:
            return self._cache["der"]
        f = self.field
        n = self.dim
        rows = [[eq.get(rc, f.zero) for rc in range(n * n)]
                for eq in self._derivation_equations()]
        if not rows:
            sub = Subspace(f, n * n, Matrix.identity(f, n * n).rows)
        else:
            sub = Subspace(f, n * n, kernel_basis(Matrix(f, rows)))
        self._cache["der"] = sub
        return sub

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


def is_automorphism(a: Algebra, phi: Matrix) -> bool:
    return phi.is_invertible() and is_homomorphism(a, a, phi)


_FP_IDENTITIES = ("commutative", "anticommutative", "cd1", "cd2", "cd3",
                  "left3zero", "right3zero", "jacobi_commutator",
                  "alia0", "alia1", "alia_opposite")


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

    def first_difference(self, other):
        for fld in ("dim", "nilpotent", "chain", "ann_dim", "left_ann_dim",
                    "right_ann_dim", "der_dim"):
            if getattr(self, fld) != getattr(other, fld):
                return fld
        for (na, va), (_, vb) in zip(self.ids, other.ids):
            if va != vb:
                return na
        return None


def fingerprint(a: Algebra) -> Fingerprint:
    if "fingerprint" in a._cache:
        return a._cache["fingerprint"]
    fp = Fingerprint(
        dim=a.dim,
        nilpotent=a.is_nilpotent(),
        chain=tuple(a.power_chain()),
        ann_dim=a.annihilator("both").dim,
        left_ann_dim=a.annihilator("left").dim,
        right_ann_dim=a.annihilator("right").dim,
        der_dim=a.derivations().dim,
        ids=tuple((nm, a.satisfies(nm)) for nm in _FP_IDENTITIES),
    )
    a._cache["fingerprint"] = fp
    return fp


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
    span = a.subspace([])
    steps = []
    values = []
    num_gens = 0
    while span.dim < a.dim:
        picked = next(i for i in range(a.dim)
                      if not span.contains(a.basis_vector(i)))
        steps.append(("gen", num_gens))
        num_gens += 1
        values.append(a.basis_vector(picked))
        span = a.subspace(values)
        grew = True
        while grew and span.dim < a.dim:
            grew = False
            for x, y in product(range(len(steps)), repeat=2):
                v = a.multiply(values[x], values[y])
                if not span.contains(v):
                    steps.append(("mul", x, y))
                    values.append(v)
                    span = a.subspace(values)
                    grew = True
                    if span.dim == a.dim:
                        break
    inv = Matrix.from_cols(a.field, values).inverse()
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
