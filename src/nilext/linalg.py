"""Exact linear algebra over the scalar fields: dense matrices, and
elimination on sparse rows.

Vectors are plain lists of field elements. Subspaces are canonicalized to
reduced row echelon bases, so two subspaces are equal exactly when their
representations are equal.
"""

from __future__ import annotations

from itertools import product


def zero_vec(field, n):
    return [field.zero] * n


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]

def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_scale(c, a):
    return [c * x for x in a]


def is_zero_vec(field, a):
    return not any(a)


class Matrix:
    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("matrix rows differ in length")

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zero(cls, field, r, c):
        return cls(field, [[field.zero] * c for _ in range(r)])

    @classmethod
    def from_cols(cls, field, cols):
        return cls(field, cols).transpose()

    def col(self, j):
        return [r[j] for r in self.rows]

    def flatten(self):
        """Row-major list of all entries."""
        return [x for r in self.rows for x in r]

    @classmethod
    def unflatten(cls, field, n, flat):
        if len(flat) != n * n:
            raise ValueError("%d entries for %d x %d" % (len(flat), n, n))
        return cls(field, [flat[i * n:(i + 1) * n] for i in range(n)])

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("inner sizes %d and %d differ"
                                 % (self.ncols, other.nrows))
            z = self.field.zero
            out = []
            for r in self.rows:
                row = []
                for j in range(other.ncols):
                    acc = z
                    for k, a in enumerate(r):
                        if a:
                            acc = acc + a * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return Matrix(self.field, out)
        return NotImplemented

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length %d, not %d"
                             % (len(vec), self.ncols))
        z = self.field.zero
        out = []
        for r in self.rows:
            acc = z
            for a, x in zip(r, vec):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out

    def _entrywise(self, op, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")
        return Matrix(self.field, [op(a, b) for a, b in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self._entrywise(vec_add, other)

    def __sub__(self, other):
        return self._entrywise(vec_sub, other)

    def scale(self, c):
        return Matrix(self.field, [vec_scale(c, r) for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list).

        Elimination is sparse. The rows not yet used as pivot rows are zero
        left of the current pivot column, so the pivot row is scaled, and
        subtracted from each other row in place, only at its nonzero
        columns. A zero entry the elimination does not reach keeps its
        original object."""
        f = self.field
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pr = None
            for i in range(r, len(rows)):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            prow = rows[r]
            inv = f.one / prow[c]
            nz = [(j, inv * x) for j, x in enumerate(prow) if x]
            for j, x in nz:
                prow[j] = x
            for i, row in enumerate(rows):
                m = row[c]
                if m and i != r:
                    for j, x in nz:
                        row[j] = row[j] - m * x
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows[:r], pivots

    def rank(self):
        return len(self.rref()[1])

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def try_inverse(self):
        if self.nrows != self.ncols:
            return None
        n = self.nrows
        aug = Matrix(self.field,
                     [list(self.rows[i]) + list(Matrix.identity(self.field, n).rows[i])
                      for i in range(n)])
        rows, pivots = aug.rref()
        if pivots != list(range(n)):
            return None
        return Matrix(self.field, [r[n:] for r in rows])

    def inverse(self):
        inv = self.try_inverse()
        if inv is None:
            raise ValueError("matrix is singular or not square")
        return inv

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


def kernel_basis(m: Matrix):
    """Basis of the right kernel {x : m x = 0}."""
    f = m.field
    rows, pivots = m.rref()
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for c in free:
        v = zero_vec(f, m.ncols)
        v[c] = f.one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[c]
        basis.append(v)
    return basis


def sparse_rref(field, rows):
    """Exact elimination on sparse rows {column: coefficient}; returns the
    reduced pivot rows as {pivot column: row}, so the rank is their number.

    Each row is reduced by the pivot rows found so far, at their pivot
    columns; if anything is left, its least column becomes a new pivot, the
    row is scaled to 1 there and that column is cleared from the earlier
    pivot rows. Every pivot row then is 1 at its own pivot, 0 at the other
    pivots and 0 left of its pivot: sorted by pivot, the rows are the
    reduced row echelon form of the input."""
    pivots = {}

    def subtract(row, m, prow):  # row -= m * prow, keeping nonzeros only
        for j, y in prow.items():
            v = row[j] - m * y if j in row else -(m * y)
            if v:
                row[j] = v
            else:
                del row[j]

    for row in rows:
        row = {c: x for c, x in row.items() if x}
        for c in [c for c in row if c in pivots]:
            subtract(row, row[c], pivots[c])
        if not row:
            continue
        p = min(row)
        inv = field.one / row[p]
        row = {j: inv * x for j, x in row.items()}
        for prow in pivots.values():
            if p in prow:
                subtract(prow, prow[p], row)
        pivots[p] = row
    return pivots


def projective_points(p, k):
    """The nonzero int tuples of length k mod p whose first nonzero entry is
    1, one per line, in increasing order: more leading zeros come first."""
    return [(0,) * z + (1,) + rest for z in reversed(range(k))
            for rest in product(range(p), repeat=k - z - 1)]


def echelon_mod_p(rows, p):
    """Int rows mod p in echelon form, as (pivot, row) pairs with row 1 at
    its pivot and 0 at the pivots before it; their number is the rank."""
    basis = []
    for v in rows:
        v = reduce_mod_p(basis, v, p)
        for lead, x in enumerate(v):
            if x:
                inv = pow(x, -1, p)
                basis.append((lead, [y * inv % p for y in v]))
                break
    return basis


def reduce_mod_p(basis, v, p):
    """The int vector v mod p less its part along an echelon_mod_p basis:
    zero exactly when v lies in the span."""
    v = [x % p for x in v]
    for lead, row in basis:
        c = v[lead]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


def solve_linear(m: Matrix, b):
    """A particular solution of m x = b, or None."""
    f = m.field
    aug = Matrix(f, [list(r) + [bi] for r, bi in zip(m.rows, b)])
    rows, pivots = aug.rref()
    for r, pc in zip(rows, pivots):
        if pc == m.ncols:
            return None
    x = zero_vec(f, m.ncols)
    for r, pc in zip(rows, pivots):
        if pc < m.ncols:
            x[pc] = r[-1]
    return x


class Subspace:
    """Subspace of field^n with a canonical reduced echelon basis."""

    def __init__(self, field, ambient, vectors=()):
        self.field = field
        self.ambient = ambient
        vecs = [v for v in vectors if not is_zero_vec(field, v)]
        # pivots[i] is the leading column of basis[i].
        if vecs:
            self.basis, self.pivots = Matrix(field, vecs).rref()
        else:
            self.basis, self.pivots = [], []

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length %d, not %d"
                             % (len(vec), self.ambient))
        f = self.field
        v = list(vec)
        for b, lead in zip(self.basis, self.pivots):
            if v[lead]:
                v = vec_sub(v, vec_scale(v[lead], b))
        return is_zero_vec(f, v)

    def _same_ambient(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient sizes %d and %d differ"
                             % (self.ambient, other.ambient))

    def add(self, other) -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other) -> "Subspace":
        self._same_ambient(other)
        if not self.basis or not other.basis:
            return Subspace(self.field, self.ambient)
        cols = [list(b) for b in self.basis] + [list(b) for b in other.basis]
        m = Matrix.from_cols(self.field, cols)
        vecs = []
        for k in kernel_basis(m):
            v = zero_vec(self.field, self.ambient)
            for c, b in zip(k[: len(self.basis)], self.basis):
                v = vec_add(v, vec_scale(c, b))
            vecs.append(v)
        return Subspace(self.field, self.ambient, vecs)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.dim == other.dim
                and all(all(a == b for a, b in zip(ra, rb))
                        for ra, rb in zip(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.basis)))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def complement_reps(u: Subspace, w: Subspace):
    """Vectors of u extending a basis of w to one of u (so: coset reps).

    Requires w to be a subspace of u; returns dim u - dim w vectors.
    """
    u._same_ambient(w)
    if not all(u.contains(b) for b in w.basis):
        raise ValueError("second argument is not contained in the first")
    reps = []
    cur = w
    for b in u.basis:
        if not cur.contains(b):
            reps.append(list(b))
            cur = cur.add(Subspace(u.field, u.ambient, [b]))
    if cur != u:
        raise RuntimeError("coset representatives do not span the subspace")
    return reps
