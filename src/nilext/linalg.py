"""Exact linear algebra over the scalar fields: dense matrices, subspaces
and kernels, all reduced by one elimination on sparse rows {column:
coefficient}.

The elimination keeps pivot rows {pivot column: row} in reduced form:
add_row extends them by one row and says whether it was new; reduce_row
takes off a row's part along them. sparse_rref is add_row over many rows.

Vectors are plain lists of field elements. Subspaces are canonicalized to
reduced row echelon bases, so two subspaces are equal exactly when their
representations are equal.
"""

from __future__ import annotations

from itertools import product

from .scalars import divide


def zero_vec(field, n):
    return [field.zero] * n


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]

def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_scale(c, a):
    return [c * x for x in a]


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
        """Reduced row echelon form; returns (rows, pivot column list): the
        pivot rows of sparse_rref, sorted by pivot and made dense."""
        pivots = self._sparse_rref()
        cols = sorted(pivots)
        z = self.field.zero
        return [[pivots[c].get(j, z) for j in range(self.ncols)]
                for c in cols], cols

    def _sparse_rref(self):
        return sparse_rref(self.field, map(dict, map(enumerate, self.rows)))

    def rank(self):
        return len(self._sparse_rref())

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def try_inverse(self):
        """The inverse, read off sparse_rref of [self | identity], or None."""
        if self.nrows != self.ncols:
            return None
        f, n = self.field, self.nrows
        pivots = sparse_rref(f, [{**dict(enumerate(r)), n + i: f.one}
                                 for i, r in enumerate(self.rows)])
        if any(c >= n for c in pivots):
            return None
        return Matrix(f, [[pivots[i].get(n + j, f.zero) for j in range(n)]
                          for i in range(n)])

    def inverse(self):
        inv = self.try_inverse()
        if inv is None:
            raise ValueError("matrix is singular or not square")
        return inv

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


def _subtract(row, m, prow):
    """row -= m * prow in place, keeping nonzeros only."""
    for j, y in prow.items():
        v = row[j] - m * y if j in row else -(m * y)
        if v:
            row[j] = v
        else:
            del row[j]


def reduce_row(pivots, row):
    """A new sparse row: row less its part along the pivot rows, over its
    nonzero entries; empty exactly when row lies in their span. Each pivot
    row is 0 at the other pivots, so one pass over row's pivot columns
    clears them all."""
    row = {c: x for c, x in row.items() if x}
    for c in [c for c in row if c in pivots]:
        _subtract(row, row[c], pivots[c])
    return row


def add_row(field, pivots, row):
    """Extend the pivot rows {pivot column: row} in place by a sparse row;
    returns whether it was not already in their span. What reduce_row
    leaves is scaled to 1 at its least column, its pivot, which is cleared
    from the other rows. So every pivot row is 1 at its own pivot, 0 at the
    others and 0 left of it: sorted by pivot, the rows are in rref."""
    row = reduce_row(pivots, row)
    if not row:
        return False
    p = min(row)
    lead = row[p]
    if lead != field.one:
        row = {j: divide(x, lead) for j, x in row.items()}
    for prow in pivots.values():
        if p in prow:
            _subtract(prow, prow[p], row)
    pivots[p] = row
    return True


def sparse_rref(field, rows):
    """Exact elimination on sparse rows {column: coefficient}: the reduced
    pivot rows of add_row over all of them, as {pivot column: row}, so the
    rank is their number."""
    pivots = {}
    for row in rows:
        add_row(field, pivots, row)
    return pivots


def kernel_basis(field, ncols, rows):
    """Basis of {x : sum_c row[c] x[c] = 0 for every sparse row}: one vector
    per column that is not a pivot of sparse_rref, 1 there and minus the
    pivot rows' entries in that column at their pivots. No rows give the
    unit vectors."""
    pivots = sparse_rref(field, rows)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = zero_vec(field, ncols)
            v[c] = field.one
            for p, row in pivots.items():
                if c in row:
                    v[p] = -row[c]
            basis.append(v)
    return basis


def projective_points(p, k):
    """The nonzero int tuples of length k mod p whose first nonzero entry is
    1, one per line, in increasing order: more leading zeros come first."""
    return [(0,) * z + (1,) + rest for z in reversed(range(k))
            for rest in product(range(p), repeat=k - z - 1)]


def solve_linear(m: Matrix, b):
    """A particular solution of m x = b, or None: sparse_rref of [m | b]
    has a pivot in the last column exactly when there is none."""
    f, n = m.field, m.ncols
    pivots = sparse_rref(f, [dict(enumerate(r + [bi]))
                             for r, bi in zip(m.rows, b)])
    if n in pivots:
        return None
    x = zero_vec(f, n)
    for c, row in pivots.items():
        x[c] = row.get(n, f.zero)
    return x


class Subspace:
    """Subspace of field^n with a canonical reduced echelon basis."""

    def __init__(self, field, ambient, vectors=()):
        self.field = field
        self.ambient = ambient
        # pivots[i] is the leading column of basis[i].
        self.basis, self.pivots = Matrix(field, vectors).rref()
        self._rows = None  # the basis as sparse pivot rows, on first use

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """vec less its part along the subspace, as a sparse row {column:
        coefficient}: empty exactly when vec lies in the subspace."""
        if len(vec) != self.ambient:
            raise ValueError("vector length %d, not %d"
                             % (len(vec), self.ambient))
        if self._rows is None:
            self._rows = {p: {j: x for j, x in enumerate(b) if x}
                          for b, p in zip(self.basis, self.pivots)}
        return reduce_row(self._rows, dict(enumerate(vec)))

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def _same_ambient(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient sizes %d and %d differ"
                             % (self.ambient, other.ambient))

    def add(self, other) -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.field, self.ambient, list(self.basis) + list(other.basis))

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
    """Vectors of u extending a basis of w to one of u (so: coset reps):
    the vectors of u's basis, in order, that add_row finds new against the
    pivot rows of w and of the vectors kept before them.

    Requires w to be a subspace of u; returns dim u - dim w vectors.
    """
    u._same_ambient(w)
    if not all(u.contains(b) for b in w.basis):
        raise ValueError("second argument is not contained in the first")
    rows = sparse_rref(u.field, map(dict, map(enumerate, w.basis)))
    reps = [list(b) for b in u.basis
            if add_row(u.field, rows, dict(enumerate(b)))]
    if len(rows) != u.dim:
        raise RuntimeError("coset representatives do not span the subspace")
    return reps
