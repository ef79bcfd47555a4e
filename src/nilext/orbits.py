"""Automorphism action on extension data: orbit censuses over small prime
fields, symbolic verification of coefficient transformation tables, and
isomorphism search between algebras."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from operator import mul

from .algebra import (Algebra, element_profile, eval_tree, first_difference,
                      generating_scheme, invariant, is_homomorphism)
from .extensions import (BilinearForm, CohomologyBasis, LineClass,
                         cd_cocycle_space, central_extension, classify_line,
                         cohomology)
from .linalg import (Matrix, Subspace, kernel_basis, projective_points,
                     solve_linear)
from .poly import POLY_RING, MultiPoly
from .scalars import PrimeField


class ResourceBound(Exception):
    """A search space exceeds the configured bound."""


def act(phi: Matrix, theta: BilinearForm) -> BilinearForm:
    """Pullback of the form along phi: (x, y) -> theta(phi x, phi y)."""
    return BilinearForm(theta.field, phi.transpose() * theta.gram * phi)


def verify_transform_table(phi: Matrix, formulas, nabla_grids, b2_rows):
    """Check symbolically that pulling back a generic combination of the
    named forms along phi, a square matrix over POLY_RING whose entries are
    polynomials in the automorphism parameters, lands on the combination
    given by the formulas, up to coboundaries.

    nabla_grids are the named forms as square grids of polynomials; b2_rows
    are flattened coboundary generators. Their echelon reduction must meet a
    nonzero constant as each row's leading entry; MultiPoly raises
    ValueError otherwise. Returns (ok, detail).
    """
    if len(formulas) != len(nabla_grids):
        raise ValueError("%d formulas for %d named forms"
                         % (len(formulas), len(nabla_grids)))
    n = phi.nrows
    grids = [Matrix(POLY_RING, g) for g in nabla_grids]

    def combo(coeffs):
        return sum((g.scale(c) for c, g in zip(coeffs, grids)),
                   Matrix.zero(POLY_RING, n, n))

    coeff_vars = [MultiPoly.var("a%d" % (k + 1)) for k in range(len(grids))]
    residual = (phi.transpose() * combo(coeff_vars) * phi
                - combo(formulas)).flatten()
    rest = Subspace(POLY_RING, n * n, b2_rows).reduce(residual)
    if rest:
        k = min(rest)
        return False, "residual at position (%d,%d): %r" % (
            k // n + 1, k % n + 1, rest[k])
    return True, "exact match mod coboundaries"


def _homomorphisms(a: Algebra, b: Algebra, domain, max_search):
    """Invertible homomorphisms a -> b with generator images in domain^dim,
    in the order product(domain, ...) lists them. Image coordinates are bound
    one at a time; each condition phi(v_i)phi(v_j) = phi(v_i v_j) on the
    scheme's values v, unless v_i v_j is itself a step, is tested once the
    last coordinate it can involve, over-approximated from b's nonzero
    structure constants, is bound. A leaf tests its conditions before the
    rank test, so is_homomorphism only rechecks the maps found. max_search
    bounds the candidates.

    An invertible homomorphism maps A^2 = AA onto phi(A)phi(A) = B^2, so it
    induces an isomorphism A/A^2 -> B/B^2. Hence generators 0..g have images
    of the same rank mod B^2 as they have mod A^2, and no map exists when
    dim A/A^2 != dim B/B^2. That rank is tested for each generator, until
    it is full, once the last coordinate B's functionals vanishing on B^2
    involve is bound, except at a leaf, where the rank test decides
    invertibility. A pruned subtree holds no invertible homomorphism, so
    the order is unchanged.

    Over a prime field, two different algebras are not searched when their
    element_profile values differ. An isomorphism maps Ann(A) onto Ann(B)
    and A^2 onto B^2, and x^2, xA and Ax onto their images' counterparts,
    so it carries each projective point of A/Ann(A) to one of B/Ann(B) of
    the same type: unequal profiles mean that no map exists."""
    n = a.dim
    num_gens, steps, values, inv, coords = generating_scheme(a)
    width = n * num_gens
    total = len(domain) ** width
    if total > max_search:
        raise ResourceBound("%s search needs %d candidates, bound is %d" % (
            "automorphism" if a is b else "isomorphism", total, max_search))
    f = a.field
    funcs_a, funcs_b = a.square_functionals(), b.square_functionals()
    if len(funcs_a) != len(funcs_b):
        return iter(())
    if a is not b and isinstance(f, PrimeField) \
            and element_profile(a) != element_profile(b):
        return iter(())

    def rank(funcs, vecs):  # rank of vecs mod the square funcs vanish on
        rows = [[sum((c * v[m] for m, c in lam), f.zero) for lam in funcs]
                for v in vecs]
        if min(len(rows), len(funcs)) == 1:
            return int(any(map(any, rows)))
        return Matrix(f, rows).rank()

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
        if d >= 0 and ("mul", i, j) not in steps:
            checks[d].append((i, j, terms))
    ranked = [None] * width  # depth -> (g, rank mod A^2 of generators 0..g)
    if funcs_b:
        lead = max(m for lam in funcs_b for m, _ in lam)
        gen_values = [v for s, v in zip(steps, values) if s[0] == "gen"]
        r = 0
        for g in range(num_gens):
            if r < len(funcs_b) and g * n + lead < width - 1:
                r = rank(funcs_a, gen_values[:g + 1])
                ranked[g * n + lead] = g, r
    gens = [[f.zero] * n for _ in range(num_gens)]

    def consistent(imgs, conditions):
        for i, j, terms in conditions:
            lhs = b.multiply(imgs[i], imgs[j])
            if not terms:
                if any(lhs):
                    return False
            elif lhs != [sum((c * imgs[k][m] for k, c in terms), f.zero)
                         for m in range(n)]:
                return False
        return True

    def walk(d):
        leaf = d == width - 1
        g, want = ranked[d] or (-1, 0)
        for x in domain:
            gens[d // n][d % n] = x
            if g >= 0 and rank(funcs_b, gens[:g + 1]) != want:
                continue
            if checks[d] or leaf:
                imgs = eval_tree(b, steps, gens)
                if not consistent(imgs, checks[d]):
                    continue
            if not leaf:
                yield from walk(d + 1)
            elif (img_mat := Matrix.from_cols(f, imgs)).is_invertible():
                phi = img_mat * inv
                if is_homomorphism(a, b, phi):
                    yield phi
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


def _line_classifier(a: Algebra, coh: CohomologyBasis):
    """classify_line on the coordinates t of a line, as int functionals mod p.

    The form of t is theta_t = sum t_i G_i over the representatives' Gram
    matrices G_i. Its radical meets Ann(A) exactly when, for some projective
    point u of Ann(A), every functional t -> theta_t(u, e_j) and
    t -> theta_t(e_j, u) vanishes at t: NOT_IN_T1. Otherwise theta_t lies in
    Z^2_cd exactly when every functional t -> w . flat(theta_t) vanishes, for
    w in a basis of the functionals vanishing on Z^2_cd: R1. Every other
    line is U1. That theta_t is no coboundary is the caller's to check."""
    f, p, n = a.field, a.field.p, a.dim
    grams = [[[c.v for c in row] for row in rep.gram.rows] for rep in coh.reps]
    flats = [[x for row in g for x in row] for g in grams]
    ann = [[c.v for c in v] for v in a.annihilator("both").basis]
    radical = []  # per point u of Ann(A): the nonzero functionals above
    for c in projective_points(p, len(ann)):
        u = [sum(map(mul, c, col)) % p for col in zip(*ann)]
        funcs = set()
        for j in range(n):
            funcs.add(tuple(sum(u[m] * g[m][j] for m in range(n)) % p
                            for g in grams))
            funcs.add(tuple(sum(g[j][m] * u[m] for m in range(n)) % p
                            for g in grams))
        radical.append([fn for fn in funcs if any(fn)])
    z2cd = cd_cocycle_space(a)
    cd = None
    if z2cd is not None:
        ws = kernel_basis(f, n * n, map(dict, map(enumerate, z2cd.basis)))
        cd = [[sum(w.v * x for w, x in zip(wv, flat)) % p for flat in flats]
              for wv in ws]

    def vanish(funcs, t):
        return not any(sum(map(mul, fn, t)) % p for fn in funcs)

    def classify(t):
        if any(vanish(funcs, t) for funcs in radical):
            return LineClass.NOT_IN_T1
        if cd is not None and vanish(cd, t):
            return LineClass.R1
        return LineClass.U1

    return classify


def orbit_census_fp(a: Algebra, coh: CohomologyBasis = None,
                    max_search=300000) -> Census:
    """Partition the projective lines of the form-class space into orbits of
    the automorphism group, over a prime field.

    The sweep runs on residues mod p: a line is the int tuple whose first
    nonzero entry is 1, and each automorphism acts by int rows, the
    coordinates on the representatives of phi^T G_i phi mod p for each
    representative's Gram matrix G_i. Lines run in increasing order, so the
    first line not yet seen is the least member of its orbit, its rep. The
    automorphisms form a group, so one sweep over them from the rep reaches
    the whole orbit; a member's witness is the first automorphism, in
    aut_group_fp order, that carries the rep's line to the member's. Lines
    become field elements only in the output.

    The representatives are checked once to be a basis mod coboundaries, so
    no line is a coboundary. Only the rep is classified, by
    _line_classifier; the first rep of each class is confirmed by
    classify_line on field elements, at most three calls. Aut(A) preserves
    Ann(A), the coboundaries and the derivation-type cocycles, so the class
    of a line is a property of its orbit; class_counts adds each orbit's
    size under its rep's class."""
    if not isinstance(a.field, PrimeField):
        raise ValueError("census runs over a prime field, not %s"
                         % a.field.name)
    f = a.field
    p = f.p
    n = a.dim
    if coh is None:
        coh = cohomology(a)
    r = coh.h2_dim
    try:
        solve = [[c.v for c in row] for row in coh.coord_rows()]
    except ValueError:
        raise RuntimeError("the representatives are not a basis mod "
                           "coboundaries") from None
    grams = [[(i, j, g.v) for i, row in enumerate(rep.gram.rows)
              for j, g in enumerate(row) if g] for rep in coh.reps]
    auts = aut_group_fp(a, max_search=max_search)
    maps = []
    for phi in auts:
        m = [[c.v for c in row] for row in phi.rows]
        cols = []
        for terms in grams:
            flat = [sum(g * m[i][j] * m[k][l] for i, k, g in terms) % p
                    for j in range(n) for l in range(n)]
            cols.append([sum(map(mul, row, flat)) % p for row in solve])
        maps.append(list(zip(*cols)))
    classify = _line_classifier(a, coh)
    # divide[c][k] = k / c mod p: an image divided by its first nonzero entry
    divide = [None] + [[k * pow(c, -1, p) % p for k in range(p)]
                       for c in range(1, p)]
    lines = projective_points(p, r)
    elts = f.elements()
    identity = Matrix.identity(f, n)
    seen = set()
    confirmed = set()
    orbits = []
    counts = {}
    for t in lines:
        if t in seen:
            continue
        reached = {t: identity}
        for phi, rows in zip(auts, maps):
            img = [sum(map(mul, row, t)) % p for row in rows]
            scaled = divide[next(filter(None, img))]
            reached.setdefault(tuple(map(scaled.__getitem__, img)), phi)
        if not seen.isdisjoint(reached):
            raise RuntimeError("a line is reached from two representatives")
        seen.update(reached)
        as_elts = {m: tuple(map(elts.__getitem__, m))
                   for m in sorted(reached)}
        witnesses = {as_elts[m]: phi for m, phi in reached.items()}
        cls = classify(t)
        if cls not in confirmed:
            confirmed.add(cls)
            if classify_line(a, coh.form_from_coords(list(as_elts[t]))) \
                    is not cls:
                raise RuntimeError("the residue classifier puts %r in %s"
                                   % (t, cls.value))
        counts[cls.value] = counts.get(cls.value, 0) + len(reached)
        orbits.append(LineOrbit(cls, as_elts[t], list(as_elts.values()),
                                witnesses))
    orbits.sort(key=lambda o: o.line_class.value)  # stable: reps stay in order
    return Census(a.label, f.name, r, len(auts), len(lines), counts, orbits)


def extension_of_line(a: Algebra, coh: CohomologyBasis, coords, label=None):
    theta = coh.form_from_coords(list(coords))
    return central_extension(a, [theta], label=label)


def witness_extension_iso(a: Algebra, coh: CohomologyBasis, rep_coords,
                          member_coords, phi: Matrix):
    """Build the extension isomorphism determined by an automorphism whose
    line action sends the orbit representative to the member.

    Returns a (dim+1)-square matrix from the member's extension to the
    representative's. Raises ValueError when phi's action does not send
    the representative's line to the member's.
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
    if sol is None or not sol[0]:
        raise ValueError("witness does not send the representative's line "
                         "to the member's")
    c, fun = sol[0], sol[1:]
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
    if a.field.name != b.field.name:
        raise ValueError("isomorphism search needs both algebras over one field")
    if a.dim != b.dim:
        return Verdict("distinct", component="dim")
    if isinstance(a.field, PrimeField):
        w = iso_search_fp(a, b, max_search=max_search)
        if w is not None:
            return Verdict("witness", witness=w)
        return Verdict("distinct", component="exhaustive-search")
    diff = first_difference(a, b)
    if diff is not None:
        return Verdict("distinct", component=diff,
                       evidence={"left": str(invariant(a, diff)),
                                 "right": str(invariant(b, diff))})
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
