"""Finite-dimensional algebras given by structure constants, and the
invariants used to tell them apart."""

from __future__ import annotations

from dataclasses import dataclass

from . import identities
from .linalg import (Matrix, Subspace, kernel_basis, is_zero_vec, zero_vec,
                     complement_reps)


class Algebra:
    """An algebra over an exact field, stored as the table of basis products."""

    def __init__(self, field, table, label="", params=None):
        n = len(table)
        for row in table:
            assert len(row) == n
            for vec in row:
                assert len(vec) == n
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
            c = x[i] * y[j]
            if c:
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

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        vecs = [self.multiply(a, b) for a in u.basis for b in v.basis]
        return self.subspace(vecs)

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
            acc = self.subspace([])
            for i in range(1, k):
                acc = acc.add(self.product_space(powers[i - 1], powers[k - i - 1]))
            powers.append(acc)
            dims.append(acc.dim)
        return dims

    def multiplication_algebra(self) -> Subspace:
        """Associative closure of all left and right multiplication
        operators, as a subspace of flattened matrices."""
        if "mult_alg" in self._cache:
            return self._cache["mult_alg"]
        f = self.field
        n = self.dim
        mats = []
        for i in range(n):
            e = self.basis_vector(i)
            mats.append(self.left_mult(e))
            mats.append(self.right_mult(e))
        span = Subspace(f, n * n, [m.flatten() for m in mats])
        basis_mats = [Matrix.unflatten(f, n, v) for v in span.basis]
        while True:
            grew = False
            for a in list(basis_mats):
                for b in list(basis_mats):
                    prod = a * b
                    flat = prod.flatten()
                    if not span.contains(flat):
                        span = span.add(Subspace(f, n * n, [flat]))
                        basis_mats.append(prod)
                        grew = True
            if not grew:
                break
        self._cache["mult_alg"] = span
        return span

    def is_nilpotent(self) -> bool:
        """Nilpotency via the multiplication algebra: the algebra is
        nilpotent exactly when that associative algebra is."""
        if "nilpotent" in self._cache:
            return self._cache["nilpotent"]
        f = self.field
        n = self.dim
        span = self.multiplication_algebra()
        gens = [Matrix.unflatten(f, n, v) for v in span.basis]
        power = span
        for _ in range(span.dim + 1):
            if power.dim == 0:
                break
            nxt_vecs = []
            for g in gens:
                for v in power.basis:
                    nxt_vecs.append((g * Matrix.unflatten(f, n, v)).flatten())
            nxt = Subspace(f, n * n, nxt_vecs)
            if nxt.dim == power.dim:
                self._cache["nilpotent"] = False
                return False
            power = nxt
        self._cache["nilpotent"] = power.dim == 0
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
    assert phi.nrows == b.dim and phi.ncols == a.dim
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
    """Greedy generators and product trees whose values span the algebra.

    Returns (num_gens, basis_trees, basis_values) where each tree is either
    ("gen", k) or ("mul", t1, t2) and the values form a basis. The result is
    kept in a._cache, since a structure table is never mutated; callers must
    not mutate it either.
    """
    if "scheme" in a._cache:
        return a._cache["scheme"]
    span = a.subspace([])
    trees = []
    values = []
    num_gens = 0
    while span.dim < a.dim:
        picked = None
        for i in range(a.dim):
            if not span.contains(a.basis_vector(i)):
                picked = i
                break
        assert picked is not None
        t = ("gen", num_gens)
        num_gens += 1
        trees.append(t)
        values.append(a.basis_vector(picked))
        span = span.add(a.subspace([values[-1]]))
        grew = True
        while grew and span.dim < a.dim:
            grew = False
            cur = len(trees)
            for x in range(cur):
                for y in range(cur):
                    v = a.multiply(values[x], values[y])
                    if not span.contains(v):
                        trees.append(("mul", trees[x], trees[y]))
                        values.append(v)
                        span = span.add(a.subspace([v]))
                        grew = True
                        if span.dim == a.dim:
                            break
                if span.dim == a.dim:
                    break
    a._cache["scheme"] = num_gens, trees, values
    return a._cache["scheme"]


def eval_tree(a: Algebra, tree, gen_images):
    if tree[0] == "gen":
        return gen_images[tree[1]]
    return a.multiply(eval_tree(a, tree[1], gen_images),
                      eval_tree(a, tree[2], gen_images))
