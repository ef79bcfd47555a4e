"""Central extensions of a nilpotent algebra by bilinear forms.

Every bilinear form is a valid extension datum here; the coboundaries are
the forms (x, y) -> f(xy) for a functional f, and quotienting by them gives
the space whose lines parametrize one-dimensional extensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

from . import identities
from .algebra import Algebra
from .exprs import eval_str, field_env
from .linalg import Matrix, Subspace, complement_reps, zero_vec
from .scalars import FpElt


class BilinearForm:
    """A bilinear form on field^n, stored by its value grid."""

    def __init__(self, field, gram):
        if isinstance(gram, Matrix):
            gram = gram.rows
        self.field = field
        self.gram = Matrix(field, gram)
        if self.gram.nrows != self.gram.ncols:
            raise ValueError("Gram matrix is %d x %d, not square"
                             % (self.gram.nrows, self.gram.ncols))
        self.dim = self.gram.nrows

    @classmethod
    def zero(cls, field, n):
        return cls(field, Matrix.zero(field, n, n))

    @classmethod
    def unit(cls, field, n, i, j):
        """The form with value 1 at basis pair (i, j), zero elsewhere (0-based)."""
        g = [[field.zero] * n for _ in range(n)]
        g[i][j] = field.one
        return cls(field, g)

    @classmethod
    def from_flat(cls, field, n, flat):
        return cls(field, Matrix.unflatten(field, n, flat))

    def flatten(self):
        return self.gram.flatten()

    def evaluate(self, x, y):
        f = self.field
        acc = f.zero
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                g = self.gram.rows[i][j]
                if yj and g:
                    acc = acc + xi * g * yj
        return acc

    def is_zero(self):
        return not any(self.flatten())

    def __add__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return BilinearForm(self.field, self.gram + other.gram)

    def __sub__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return BilinearForm(self.field, self.gram - other.gram)

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        return BilinearForm(self.field, self.gram.scale(c))

    __rmul__ = scale

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "BilinearForm(%s)" % render_form(self)


def render_form(theta: BilinearForm) -> str:
    """Human form as a combination of D(i,j) unit forms, 1-based."""
    f = theta.field
    parts = []
    for i in range(theta.dim):
        for j in range(theta.dim):
            c = theta.gram.rows[i][j]
            if not c:
                continue
            atom = "D(%d,%d)" % (i + 1, j + 1)
            if c == f.one:
                parts.append("+" + atom)
            elif c == -f.one:
                parts.append("-" + atom)
            else:  # an F_p coefficient as its residue, as parse_form reads
                cs = str(c.v) if isinstance(c, FpElt) else f.render(c)
                if any(ch in cs for ch in "+-") and not cs.lstrip("-").isdigit():
                    cs = "(" + cs + ")"
                parts.append(("+" if not cs.startswith("-") else "") + cs + "*" + atom)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def parse_form(text: str, dim: int, field, named=None, env=None) -> BilinearForm:
    """Parse a form literal such as '2*N(1)-(lambda-2)*D(1,3)'.

    The literal is an ``exprs`` expression over the field whose atoms
    include D(i,j), the unit form at a basis pair, and N(k), the k-th form
    of the supplied named dictionary (1-based indices). Forms may be added,
    subtracted, negated and multiplied on the left by scalars; the bare
    scalar 0 is the zero form.
    """
    if text.strip() == "0":
        return BilinearForm.zero(field, dim)

    def unit(*ij):
        if len(ij) != 2 or not all(1 <= k <= dim for k in ij):
            raise ValueError("D(%s) needs two indices from 1 to %d"
                             % (",".join(map(str, ij)), dim))
        return BilinearForm.unit(field, dim, ij[0] - 1, ij[1] - 1)

    def named_form(*k):
        atom = "N(%s)" % ",".join(map(str, k))
        if named is None:
            raise ValueError(atom + " used but no named forms supplied")
        if len(k) != 1 or not 1 <= k[0] <= len(named):
            raise ValueError("%s needs one index from 1 to %d"
                             % (atom, len(named)))
        return named[k[0] - 1]

    full_env = {**field_env(field), **(env or {}), "D": unit, "N": named_form}
    try:
        form = eval_str(text, field, full_env)
    except TypeError:
        form = None
    if not isinstance(form, BilinearForm):
        raise ValueError("%r is not a sum of scalar multiples of D and N "
                         "forms" % text)
    return form


def coboundary(a: Algebra, functional) -> BilinearForm:
    """The form (x, y) -> f(xy) for the functional with the given coords."""
    f = a.field
    n = a.dim
    g = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = f.zero
            for k in range(n):
                c = a.table[i][j][k]
                if c and functional[k]:
                    acc = acc + functional[k] * c
            g[i][j] = acc
    return BilinearForm(f, g)


def b2_space(a: Algebra) -> Subspace:
    """Span of all coboundaries, flattened."""
    if "b2" not in a._cache:
        vecs = [coboundary(a, a.basis_vector(k)).flatten() for k in range(a.dim)]
        a._cache["b2"] = Subspace(a.field, a.dim * a.dim, vecs)
    return a._cache["b2"]


def cd_cocycle_space(a: Algebra):
    """Forms whose one-dimensional extension keeps all three derivation-type
    identities, or None when the base algebra itself fails one."""
    if "z2cd" not in a._cache:
        if not a.is_cd_by_identities():
            a._cache["z2cd"] = None
        else:
            a._cache["z2cd"] = identities.induced_cocycle_constraints(
                a, *map(identities.builtin, identities.CD_NAMES))
    return a._cache["z2cd"]


@dataclass
class CohomologyBasis:
    algebra: Algebra
    b2: Subspace
    reps: list
    cd_flags: list
    cd_space: object
    canonical: bool
    notes: list = dc_field(default_factory=list)

    @property
    def h2_dim(self):
        return len(self.reps)

    def coord_rows(self):
        """The last h2_dim rows of the inverse of [B^2 basis | reps]: row l
        maps a flattened form to its coordinate on reps[l]; memoised."""
        if not hasattr(self, "_solver"):
            cols = list(self.b2.basis) + [r.flatten() for r in self.reps]
            self._solver = Matrix.from_cols(self.algebra.field,
                                            cols).inverse()
        return self._solver.rows[self.b2.dim:]

    def form_from_coords(self, coords):
        f = self.algebra.field
        n = self.algebra.dim
        grid = [[f.zero] * n for _ in range(n)]
        for c, r in zip(coords, self.reps):
            if c:
                for row, rep_row in zip(grid, r.gram.rows):
                    for j, x in enumerate(rep_row):
                        if x:
                            row[j] = row[j] + c * x
        return BilinearForm(f, grid)


def cohomology(a: Algebra, named_reps=None, named_cd_flags=None) -> CohomologyBasis:
    """Quotient of all bilinear forms by coboundaries.

    With a supplied named dictionary the representatives follow it when it
    really is a basis mod coboundaries; flags are re-derived (and a note is
    recorded) when its derivation-type split disagrees with the computed one.
    """
    f = a.field
    n = a.dim
    full = Subspace(f, n * n, Matrix.identity(f, n * n).rows)
    b2 = b2_space(a)
    z2cd = cd_cocycle_space(a)
    if z2cd is not None and not all(z2cd.contains(v) for v in b2.basis):
        raise RuntimeError("coboundaries must satisfy the induced identity "
                           "constraints")
    notes = []
    if named_reps is not None:
        span = Subspace(f, n * n, list(b2.basis)
                        + [r.flatten() for r in named_reps])
        if span == full and b2.dim + len(named_reps) == n * n:
            if named_cd_flags is None:
                named_cd_flags = [False] * len(named_reps)
            if z2cd is None:
                flags = [False] * len(named_reps)
                canonical = all(fl == st for fl, st in zip(flags, named_cd_flags))
                if not canonical:
                    notes.append("base fails a derivation-type identity; "
                                 "no named form can be flagged")
            else:
                flags = [z2cd.contains(r.flatten()) for r in named_reps]
                canonical = flags == list(named_cd_flags)
                if canonical:
                    stored_span = Subspace(f, n * n, list(b2.basis) + [
                        r.flatten() for r, fl in zip(named_reps, flags) if fl])
                    if stored_span != z2cd:
                        canonical = False
                        notes.append("flagged forms span less than the computed "
                                     "constraint space")
                else:
                    notes.append("stored derivation-type flags disagree with "
                                 "the computed constraint space")
            return CohomologyBasis(a, b2, list(named_reps), flags, z2cd,
                                   canonical, notes)
        notes.append("named forms are not a basis mod coboundaries; "
                     "falling back to computed representatives")
    if z2cd is not None:
        cd_reps = complement_reps(z2cd, b2)
        other = complement_reps(full, z2cd)
        reps = [BilinearForm.from_flat(f, n, v) for v in cd_reps + other]
        flags = [True] * len(cd_reps) + [False] * len(other)
    else:
        reps = [BilinearForm.from_flat(f, n, v)
                for v in complement_reps(full, b2)]
        flags = [False] * len(reps)
    return CohomologyBasis(a, b2, reps, flags, z2cd, named_reps is None, notes)


def radical_meets_annihilator(a: Algebra, thetas) -> bool:
    """Whether the forms' shared radical meets Ann(A).

    With a_1..a_s a basis of Ann(A), a combination sum c_l a_l lies in the
    radical exactly when c is in the kernel of the rows
    [theta(a_l, e_j)]_l and [theta(e_j, a_l)]_l over every form and j, so
    the radical meets Ann(A) exactly when those rows have rank below s."""
    f = a.field
    ann = a.annihilator("both").basis
    rows = []
    for th in thetas:
        g = th.gram.rows
        for j in range(a.dim):
            rows.append([sum((c * g[i][j] for i, c in enumerate(v) if c),
                             f.zero) for v in ann])
            rows.append([sum((g[j][i] * c for i, c in enumerate(v) if c),
                             f.zero) for v in ann])
    return Matrix(f, rows).rank() < len(ann)


class LineClass(enum.Enum):
    NOT_IN_T1 = "not-in-T1"
    R1 = "R1"
    U1 = "U1"


def classify_line(a: Algebra, theta: BilinearForm) -> LineClass:
    """Place the line of a non-coboundary form: outside the useful region,
    or extending with all derivation-type identities kept, or not."""
    b2 = b2_space(a)
    if b2.contains(theta.flatten()):
        raise ValueError("form is a coboundary; its extension splits")
    if radical_meets_annihilator(a, [theta]):
        return LineClass.NOT_IN_T1
    z2cd = cd_cocycle_space(a)
    if z2cd is not None and z2cd.contains(theta.flatten()):
        return LineClass.R1
    return LineClass.U1


def central_extension(a: Algebra, thetas, label=None) -> Algebra:
    """Extension of a by s extra central coordinates, one per form."""
    f = a.field
    n = a.dim
    s = len(thetas)
    if s < 1:
        raise ValueError("a central extension needs at least one form")
    if any(th.dim != n for th in thetas):
        raise ValueError("forms must have dimension %d" % n)
    m = n + s
    table = [[zero_vec(f, m) for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            vec = list(a.table[i][j]) + [th.gram.rows[i][j] for th in thetas]
            table[i][j] = vec
    return Algebra(f, table, label=label or (a.label + "+ext" if a.label else ""),
                   params=a.params)


def is_split(a: Algebra, thetas) -> bool:
    """Whether the extension decomposes; requires the forms' shared radical
    to miss the annihilator."""
    if radical_meets_annihilator(a, thetas):
        raise ValueError("splitness test needs trivial shared radical in the "
                         "annihilator")
    b2 = b2_space(a)
    span = Subspace(a.field, a.dim * a.dim,
                    list(b2.basis) + [th.flatten() for th in thetas])
    return span.dim - b2.dim < len(thetas)
