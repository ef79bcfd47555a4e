"""Finite-dimensional algebras given by structure constants, and the
invariants used to tell them apart."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import identities
from .linalg import Matrix, Subspace, kernel_basis, is_zero_vec, zero_vec


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
        for (i, j), terms in self._nonzero.items():
            c = x[i]
            if c:
                d = y[j]
                if d:
                    c = c * d
                    for k, s in terms:
                        out[k] = out[k] + c * s
        return out

    def left_mult(self, x):
        """Matrix of y -> x*y."""
        cols = [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_cols(self.field, cols)

    def right_mult(self, x):
        """Matrix of y -> y*x."""
        cols = [self.multiply(self.basis_vector(j), x) for j in range(self.dim)]
        return Matrix.from_cols(self.field, cols)

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

    def square(self):
        """(A^2, functionals): the span of the table's vectors, and a basis
        of the linear functionals vanishing on it, each as its (index,
        coefficient) pairs over the nonzero coefficients. Memoised, as the
        structure table is never mutated."""
        if "square" not in self._cache:
            sq = self.subspace([self.table[i][j] for i, j in self._nonzero])
            funcs = kernel_basis(Matrix(self.field, sq.basis
                                        or [zero_vec(self.field, self.dim)]))
            self._cache["square"] = sq, [[(m, c) for m, c in enumerate(lam)
                                          if c] for lam in funcs]
        return self._cache["square"]

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
        v = self.square()[0]
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

    def derivations(self) -> Subspace:
        """Matrices D with D(xy) = D(x)y + xD(y), flattened row-major."""
        if "der" in self._cache:
            return self._cache["der"]
        f = self.field
        n = self.dim
        z = f.zero
        rows = []
        for i in range(n):
            for j in range(n):
                cij = self.table[i][j]
                for k in range(n):
                    row = [z] * (n * n)
                    for c in range(n):
                        if cij[c]:
                            row[k * n + c] = row[k * n + c] + cij[c]
                    for r in range(n):
                        crjk = self.table[r][j][k]
                        if crjk:
                            row[r * n + i] = row[r * n + i] - crjk
                        cirk = self.table[i][r][k]
                        if cirk:
                            row[r * n + j] = row[r * n + j] - cirk
                    if not is_zero_vec(f, row):
                        rows.append(row)
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
        derivation."""
        der = self.derivations()
        n = self.dim
        ops = []
        for i in range(n):
            e = self.basis_vector(i)
            ops.append(self.left_mult(e))
            ops.append(self.right_mult(e))
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                comm = ops[a] * ops[b] - ops[b] * ops[a]
                if not der.contains(comm.flatten()):
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
