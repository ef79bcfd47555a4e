"""Automorphism action on extension data: orbit censuses over small prime
fields, symbolic verification of coefficient transformation tables, and
isomorphism search between algebras."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .algebra import (Algebra, eval_tree, fingerprint, generating_scheme,
                      is_homomorphism)
from .extensions import (BilinearForm, CohomologyBasis, LineClass, b2_space,
                         central_extension, classify_line, cohomology)
from .linalg import Matrix, solve_linear
from .poly import POLY_RING, MultiPoly
from .scalars import PrimeField


class ResourceBound(Exception):
    """A search space exceeds the configured bound."""


def act(phi: Matrix, theta: BilinearForm) -> BilinearForm:
    """Pullback of the form along phi: (x, y) -> theta(phi x, phi y)."""
    return BilinearForm(theta.field, phi.transpose() * theta.gram * phi)


@dataclass(frozen=True)
class AutFamily:
    """A parametric matrix family inside the automorphism group."""

    label: str
    var_names: tuple
    nonzero: tuple
    entries: tuple  # rows of MultiPoly

    @classmethod
    def from_strings(cls, label, var_names, nonzero, rows):
        from .exprs import poly_str
        entries = tuple(tuple(poly_str(e) for e in row) for row in rows)
        return cls(label, tuple(var_names), tuple(nonzero), entries)

    @property
    def dim(self):
        return len(self.entries)

    def specialize(self, field, env) -> Matrix:
        for nm in self.nonzero:
            if not env[nm]:
                raise ValueError("%s must be nonzero" % nm)
        rows = [[e.evaluate(field, env) for e in row] for row in self.entries]
        m = Matrix(field, rows)
        if not m.is_invertible():
            raise ValueError("specialized family member is singular")
        return m

    def poly_matrix(self) -> Matrix:
        return Matrix(POLY_RING, [list(r) for r in self.entries])


def _poly_grid_combo(coeffs, grids):
    n = len(grids[0])
    out = [[MultiPoly.const(0) for _ in range(n)] for _ in range(n)]
    for c, g in zip(coeffs, grids):
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + c * g[i][j]
    return out


def verify_transform_table(family: AutFamily, formulas, nabla_grids, b2_rows):
    """Check symbolically that pulling back a generic combination of the
    named forms along the family lands on the combination given by the
    formulas, up to coboundaries.

    nabla_grids are the named forms as square grids of polynomials; b2_rows
    are flattened coboundary generators, each owning a position where its
    coefficient is a nonzero constant and every other generator vanishes.
    Returns (ok, detail).
    """
    if len(formulas) != len(nabla_grids):
        raise ValueError("%d formulas for %d named forms"
                         % (len(formulas), len(nabla_grids)))
    n = family.dim
    coeff_vars = [MultiPoly.var("a%d" % (k + 1)) for k in range(len(nabla_grids))]
    generic = _poly_grid_combo(coeff_vars, nabla_grids)
    phi = family.poly_matrix()
    pulled = phi.transpose() * Matrix(POLY_RING, generic) * phi
    target = _poly_grid_combo(formulas, nabla_grids)
    residual = [pulled.rows[i][j] - target[i][j]
                for i in range(n) for j in range(n)]
    for r, row in enumerate(b2_rows):
        pivot = None
        for k, e in enumerate(row):
            if e.is_constant() and e.constant_value() != 0:
                if all(not other[k] for o, other in enumerate(b2_rows) if o != r):
                    pivot = k
                    break
        assert pivot is not None, "coboundary row %d has no clean pivot" % r
        c = residual[pivot] / row[pivot].constant_value()
        residual = [x - c * e for x, e in zip(residual, row)]
    for k, x in enumerate(residual):
        if x:
            return False, "residual at position (%d,%d): %r" % (
                k // n + 1, k % n + 1, x)
    return True, "exact match mod coboundaries"


def _homomorphisms(a: Algebra, b: Algebra, domain, max_search):
    """Invertible homomorphisms a -> b with generator images in domain^dim,
    in the order product(domain, ...) lists them. Image coordinates are bound
    one at a time; each condition phi(v_i)phi(v_j) = phi(v_i v_j) on the
    scheme's values v, unless v_i v_j is itself a step, is tested once the
    last coordinate it can involve, over-approximated from b's nonzero
    structure constants, is bound. max_search bounds the candidates."""
    n = a.dim
    num_gens, steps, _, inv, coords = generating_scheme(a)
    width = n * num_gens
    total = len(domain) ** width
    if total > max_search:
        raise ResourceBound("%s search needs %d candidates, bound is %d" % (
            "automorphism" if a is b else "isomorphism", total, max_search))
    f = a.field

    def reach(x, y):  # last coordinate each entry of x*y can involve, or -1
        out = [-1] * n
        for (p, q), terms in b._nonzero.items():
            if min(x[p], y[q]) >= 0:
                for k, _ in terms:
                    out[k] = max(out[k], x[p], y[q])
        return out

    last = []  # step -> last coordinate each entry of its image can involve
    for s in steps:
        last.append([s[1] * n + m for m in range(n)] if s[0] == "gen"
                    else reach(last[s[1]], last[s[2]]))
    checks = [[] for _ in range(width)]  # depth -> conditions tested there
    for i, j in product(range(len(steps)), repeat=2):
        terms = coords[i][j]
        d = max(reach(last[i], last[j]) + [max(last[k]) for k, _ in terms])
        if 0 <= d < width - 1 and ("mul", i, j) not in steps:
            checks[d].append((i, j, terms))
    gens = [[f.zero] * n for _ in range(num_gens)]

    def consistent(conditions):
        imgs = eval_tree(b, steps, gens)
        return all(b.multiply(imgs[i], imgs[j]) == [
            sum((c * imgs[k][m] for k, c in terms), f.zero) for m in range(n)]
            for i, j, terms in conditions)

    def walk(d):
        for x in domain:
            gens[d // n][d % n] = x
            if d == width - 1:
                img_mat = Matrix.from_cols(f, eval_tree(b, steps, gens))
                if img_mat.is_invertible():
                    phi = img_mat * inv
                    if is_homomorphism(a, b, phi):
                        yield phi
            elif not checks[d] or consistent(checks[d]):
                yield from walk(d + 1)
        gens[d // n][d % n] = f.zero

    return walk(0)


def aut_group_fp(a: Algebra, max_search=300000):
    """All automorphisms of an algebra over a prime field, by a search over
    images of a greedy generating set."""
    return list(_homomorphisms(a, a, a.field.elements(), max_search))


def iso_search_fp(a: Algebra, b: Algebra, max_search=300000):
    """Exhaustive isomorphism search over a prime field; None is a proof of
    non-isomorphism at this field."""
    if a.field.name != b.field.name:
        raise ValueError("isomorphism search needs both algebras over one field")
    if a.dim != b.dim:
        return None
    return next(_homomorphisms(a, b, a.field.elements(), max_search), None)


def verify_isomorphism(a: Algebra, b: Algebra, phi: Matrix) -> bool:
    return (a.dim == b.dim and phi.is_invertible()
            and is_homomorphism(a, b, phi))


def _normalize_line(f, coords):
    lead = next((c for c in coords if c), None)
    assert lead is not None
    inv = f.one / lead
    return tuple(inv * c for c in coords)


@dataclass
class LineOrbit:
    line_class: LineClass
    rep: tuple
    members: list
    witnesses: dict  # member coords -> automorphism reaching it from rep

    @property
    def size(self):
        return len(self.members)


@dataclass
class Census:
    base_label: str
    field_name: str
    h2_dim: int
    aut_count: int
    lines_total: int
    class_counts: dict
    orbits: list

    def orbits_of(self, line_class: LineClass):
        return [o for o in self.orbits if o.line_class is line_class]


def orbit_census_fp(a: Algebra, coh: CohomologyBasis = None,
                    max_search=300000) -> Census:
    """Partition the projective lines of the form-class space into orbits of
    the automorphism group, over a prime field.

    Lines run in increasing residue order, so the first line not yet seen is
    the least member of its orbit, its rep. The automorphisms form a group,
    so one sweep over them from the rep reaches the whole orbit; a member's
    witness is the first automorphism, in aut_group_fp order, that carries
    the rep's line to the member's."""
    if not (isinstance(a.field, PrimeField) and a.field.p in (2, 3)):
        raise ValueError("census runs over F2 or F3, not %s" % a.field.name)
    f = a.field
    if coh is None:
        coh = cohomology(a)
    r = coh.h2_dim
    lines = [t for t in product(f.elements(), repeat=r)
             if any(t) and _normalize_line(f, t) == t]
    index = {t: k for k, t in enumerate(lines)}
    classes = [classify_line(a, coh.form_from_coords(list(t))) for t in lines]
    auts = aut_group_fp(a, max_search=max_search)
    maps = [Matrix.from_cols(f, [coh.coords_mod_b2(act(phi, rep))
                                 for rep in coh.reps]) for phi in auts]
    seen = set()
    orbits = []
    for k, t in enumerate(lines):
        if t in seen:
            continue
        witnesses = {t: Matrix.identity(f, a.dim)}
        for phi, tmap in zip(auts, maps):
            img = _normalize_line(f, tuple(tmap.apply(list(t))))
            witnesses.setdefault(img, phi)
        members = sorted(witnesses, key=index.__getitem__)
        for m in members:
            assert m not in seen, "a line is reached from two representatives"
            assert classes[index[m]] is classes[k], \
                "automorphism action must preserve the line class"
        seen.update(members)
        orbits.append(LineOrbit(classes[k], t, members, witnesses))
    orbits.sort(key=lambda o: (o.line_class.value,
                               tuple(c.v for c in o.rep)))
    counts = {}
    for c in classes:
        counts[c.value] = counts.get(c.value, 0) + 1
    return Census(a.label, f.name, r, len(auts), len(lines), counts, orbits)


def extension_of_line(a: Algebra, coh: CohomologyBasis, coords, label=None):
    theta = coh.form_from_coords(list(coords))
    return central_extension(a, [theta], label=label)


def witness_extension_iso(a: Algebra, coh: CohomologyBasis, rep_coords,
                          member_coords, phi: Matrix):
    """Build the extension isomorphism determined by an automorphism whose
    line action sends the orbit representative to the member.

    Returns a (dim+1)-square matrix from the member's extension to the
    representative's.
    """
    f = a.field
    n = a.dim
    theta_rep = coh.form_from_coords(list(rep_coords))
    theta_mem = coh.form_from_coords(list(member_coords))
    pulled = act(phi, theta_rep)
    cols = [theta_mem.flatten()]
    from .extensions import coboundary
    for k in range(n):
        cols.append(coboundary(a, a.basis_vector(k)).flatten())
    sol = solve_linear(Matrix.from_cols(f, cols), pulled.flatten())
    assert sol is not None, "pulled form must match the member mod coboundaries"
    c, fun = sol[0], sol[1:]
    assert c
    rows = [list(phi.rows[i]) + [f.zero] for i in range(n)]
    rows.append(list(fun) + [c])
    return Matrix(f, rows)


_DEFAULT_PRIMES = (2, 3, 5, 7)


@dataclass
class Verdict:
    kind: str  # "witness" | "distinct" | "undecided"
    witness: Matrix = None
    component: str = ""
    evidence: dict = dc_field(default_factory=dict)

    @property
    def isomorphic(self):
        if self.kind == "witness":
            return True
        if self.kind == "distinct":
            return False
        return None


def _default_grid(field):
    from fractions import Fraction
    grid = [field.one, -field.one]
    if hasattr(field, "omega"):
        w = field.omega
        ii = field.i
        grid += [w, w * w, -w, -w * w, ii, -ii]
    vals = [2, -2, Fraction(1, 2), Fraction(-1, 2), 0]
    grid += [field.from_fraction(v) for v in vals]
    return grid


def _to_prime_field(a: Algebra, p: int):
    f = PrimeField(p)

    def conv(c):
        if hasattr(c, "is_rational"):
            if not c.is_rational():
                raise ValueError("not rational")
            c = c.rational_value()
        return f.from_fraction(c)

    try:
        return a.change_field(f, conv)
    except ValueError:
        return None


def iso_search(a: Algebra, b: Algebra, grid=None, primes=_DEFAULT_PRIMES,
               max_search=300000) -> Verdict:
    """Decide isomorphism where possible: invariant separation, witness
    search over a grid of images, and prime-field evidence otherwise."""
    if a.dim != b.dim:
        return Verdict("distinct", component="dim")
    if a.field.name != b.field.name:
        raise ValueError("isomorphism search needs both algebras over one field")
    if isinstance(a.field, PrimeField):
        w = iso_search_fp(a, b, max_search=max_search)
        if w is not None:
            return Verdict("witness", witness=w)
        return Verdict("distinct", component="exhaustive-search")
    fa, fb = fingerprint(a), fingerprint(b)
    diff = fa.first_difference(fb)
    if diff is not None:
        return Verdict("distinct", component=diff,
                       evidence={"left": str(fa), "right": str(fb)})
    evidence = {}
    if grid is None:
        grid = _default_grid(a.field)
    total = len(grid) ** (a.dim * generating_scheme(a)[0])
    if total <= max_search:
        w = next(_homomorphisms(a, b, grid, max_search), None)
        if w is not None:
            return Verdict("witness", witness=w)
        evidence["grid"] = "no witness among %d candidates" % total
    else:
        evidence["grid"] = "skipped, %d candidates above bound %d" % (
            total, max_search)
    for p in primes:
        ra, rb = _to_prime_field(a, p), _to_prime_field(b, p)
        if ra is None or rb is None:
            evidence["F%d" % p] = "reduction unavailable"
            continue
        try:
            w = iso_search_fp(ra, rb, max_search=max_search)
        except ResourceBound:
            evidence["F%d" % p] = "skipped, above bound"
            continue
        evidence["F%d" % p] = ("witness exists" if w is not None
                               else "no witness (exhaustive)")
    return Verdict("undecided", evidence=evidence)
