"""Central extensions of a nilpotent algebra by bilinear forms.

Every bilinear form is a valid extension datum here; the coboundaries are
the forms (x, y) -> f(xy) for a functional f, and quotienting by them gives
the space whose lines parametrize one-dimensional extensions.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field as dc_field

from . import identities
from .algebra import Algebra
from .exprs import eval_str, field_env
from .linalg import Matrix, Subspace, complement_reps, zero_vec


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
        return BilinearForm(self.field, self.gram + other.gram)

    def __sub__(self, other):
        return BilinearForm(self.field, self.gram - other.gram)

    def scale(self, c):
        return BilinearForm(self.field, self.gram.scale(c))

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
            else:
                cs = f.render(c)
                if any(ch in cs for ch in "+-") and not cs.lstrip("-").isdigit():
                    cs = "(" + cs + ")"
                parts.append(("+" if not cs.startswith("-") else "") + cs + "*" + atom)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


_ATOM_RE = re.compile(r"^(?:(.+)\*)?([DN])\((\d+)(?:,(\d+))?\)$")


def parse_form(text: str, dim: int, field, named=None, env=None) -> BilinearForm:
    """Parse 'a*D(i,j)+b*N(k)' literals (1-based indices).

    D(i,j) is the unit form at a basis pair; N(k) is the k-th named form of
    the supplied dictionary, required when N appears.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty form literal")
    if s == "0":
        return BilinearForm.zero(field, dim)
    terms = []
    cur = ""
    depth = 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and k > 0 and s[k - 1] not in "+-*/^(":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    full_env = field_env(field)
    if env:
        full_env.update(env)
    total = BilinearForm.zero(field, dim)
    for t in terms:
        sign = field.one
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        m = _ATOM_RE.match(t)
        if m is None:
            raise ValueError("bad form term %r" % t)
        coeff_src, kind, a, b = m.groups()
        if coeff_src is None:
            coeff = field.one
        else:
            coeff = eval_str(coeff_src, field, full_env)
        if kind == "D":
            if b is None:
                raise ValueError("D needs two indices in %r" % t)
            i, j = int(a), int(b)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("index out of range in %r" % t)
            atom = BilinearForm.unit(field, dim, i - 1, j - 1)
        else:
            if b is not None:
                raise ValueError("N takes one index in %r" % t)
            k = int(a)
            if named is None:
                raise ValueError("N(%d) used but no named forms supplied" % k)
            if not (1 <= k <= len(named)):
                raise ValueError("N index out of range in %r" % t)
            atom = named[k - 1]
        total = total + atom.scale(sign * coeff)
    return total


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
            space = identities.induced_cocycle_constraints(
                a, identities.builtin("cd1"))
            for nm in ("cd2", "cd3"):
                space = space.intersect(
                    identities.induced_cocycle_constraints(a, identities.builtin(nm)))
            a._cache["z2cd"] = space
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

    def coords_mod_b2(self, theta: BilinearForm):
        """Coordinates of theta's class on the representative basis."""
        flat = theta.flatten()
        return [sum((c * x for c, x in zip(row, flat) if c and x),
                    self.algebra.field.zero) for row in self.coord_rows()]

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
