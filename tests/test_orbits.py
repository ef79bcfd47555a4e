import copy
import hashlib
import json
import os
import random
from itertools import product

import pytest

from nilext import catalog, tables
from nilext.algebra import (Algebra, element_profile, eval_tree, fingerprint,
                            generating_scheme, invariant, is_homomorphism)
from nilext.exprs import poly_str
from nilext.extensions import (BilinearForm, CohomologyBasis, LineClass,
                               classify_line, cohomology, central_extension)
from nilext.linalg import Matrix, projective_points
from nilext.orbits import (Census, LineOrbit, ResourceBound,
                           Verdict, _line_classifier,
                           act, aut_group_fp, extension_of_line, iso_search,
                           iso_search_fp, orbit_census_fp,
                           verify_transform_table, witness_extension_iso)
from nilext.poly import POLY_RING, MultiPoly
from nilext.scalars import FIELDS, QQ


def verify_isomorphism(a, b, phi):
    return (a.dim == b.dim and phi.is_invertible()
            and is_homomorphism(a, b, phi))


def specialize(bid, field, env):
    """The member of a base's automorphism family at the given variable
    values."""
    aut = tables.SETUPS[bid]["aut"]
    for nm in aut["nonzero"]:
        if not env[nm]:
            raise ValueError("%s must be nonzero" % nm)
    m = Matrix(field, [[poly_str(e).evaluate(field, env) for e in row]
                       for row in aut["rows"]])
    if not m.is_invertible():
        raise ValueError("specialized family member is singular")
    return m


def coords_mod_b2(coh, theta):
    """Coordinates of theta's class on coh's representative basis."""
    flat = theta.flatten()
    return [sum((c * x for c, x in zip(row, flat) if c and x),
                coh.algebra.field.zero) for row in coh.coord_rows()]


def _random_invertible(f, rng, n):
    while True:
        m = Matrix(f, [[f.random(rng) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def test_act_composition_random():
    rng = random.Random(61)
    f = QQ
    for _ in range(200):
        n = rng.randrange(2, 5)
        p1 = _random_invertible(f, rng, n)
        p2 = _random_invertible(f, rng, n)
        th = BilinearForm.from_flat(
            f, n, [f.random(rng) for _ in range(n * n)])
        assert act(p1 * p2, th) == act(p2, act(p1, th))


def test_act_definition():
    f = QQ
    rng = random.Random(62)
    n = 3
    phi = _random_invertible(f, rng, n)
    th = BilinearForm.from_flat(f, n, [f.random(rng) for _ in range(n * n)])
    moved = act(phi, th)
    x = [f.random(rng) for _ in range(n)]
    y = [f.random(rng) for _ in range(n)]
    assert moved.evaluate(x, y) == th.evaluate(phi.apply(x), phi.apply(y))


def test_aut_family_specialize():
    a = catalog.instantiate("CD3_01")
    env = {"x": QQ.from_int(2), "y": QQ.from_int(5)}
    phi = specialize("CD3_01", QQ, env)
    assert is_homomorphism(a, a, phi)
    with pytest.raises(ValueError, match="x must be nonzero"):
        specialize("CD3_01", QQ, {"x": QQ.zero, "y": QQ.from_int(5)})


def test_transform_tables_symbolic():
    for bid in sorted(tables.SETUPS):
        ok, msg = catalog.transform_check(bid)
        assert ok, (bid, msg)


def test_transform_table_rejects_wrong_formula():
    """A changed formula leaves the exact residual it adds, mod B^2."""
    for bid, k, extra, want in (
            ("CD3_01", 0, "x", "residual at position (1,2): -x"),
            ("CD3_03", 1, "x^2*y-3*a1*z+1/2*y*a7^2-lambda",
             "residual at position (2,2): 3*a1*z-1/2*a7^2*y+lambda-x^2*y")):
        setup = tables.SETUPS[bid]
        n = tables.BASES[bid]["dim"]
        phi = Matrix(POLY_RING, [[poly_str(s) for s in row]
                                 for row in setup["aut"]["rows"]])
        formulas = [poly_str(s) for s in setup["transform"]]
        formulas[k] = formulas[k] + poly_str(extra)
        grids = []
        for spec in setup["forms"]:
            g = [[MultiPoly.const(0) for _ in range(n)] for _ in range(n)]
            for src, i, j in spec:
                g[i - 1][j - 1] = g[i - 1][j - 1] + poly_str(src)
            grids.append(g)
        rows = []
        for row_spec in setup["b2"]:
            flat = [MultiPoly.const(0) for _ in range(n * n)]
            for src, i, j in row_spec:
                flat[(i - 1) * n + (j - 1)] += poly_str(src)
            rows.append(flat)
        assert verify_transform_table(phi, formulas, grids, rows) == (
            False, want)


def test_aut_group_fp_closure():
    f2 = FIELDS["F2"]
    a = catalog.instantiate("CD3_02", field=f2)
    auts = aut_group_fp(a)
    assert auts
    seen = {m for m in auts}
    rng = random.Random(63)
    for _ in range(30):
        p1 = rng.choice(auts)
        p2 = rng.choice(auts)
        assert p1 * p2 in seen


def test_iso_search_fp_finds_identity():
    f2 = FIELDS["F2"]
    a = catalog.instantiate("N4_17", field=f2)
    w = iso_search_fp(a, a)
    assert w is not None
    assert verify_isomorphism(a, a, w)


def test_iso_search_same_entry():
    a = catalog.instantiate("N4_17")
    v = iso_search(a, a)
    assert v.kind == "witness"
    assert verify_isomorphism(a, a, v.witness)


def test_iso_search_separates():
    a = catalog.instantiate("N4_17")
    b = catalog.instantiate("N4_18")
    v = iso_search(a, b)
    assert v.kind == "distinct"


def test_iso_search_checks_fields_before_dimensions():
    a = catalog.instantiate("CD3_01")
    b = catalog.instantiate("N4_17", field=FIELDS["F2"])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError):
            iso_search(x, y)
    assert iso_search(a, catalog.instantiate("N4_17")).component == "dim"


def test_iso_search_relation_witness():
    vals = {"alpha": 1, "beta": 2}
    flip = {"alpha": -1, "beta": 2}
    a = catalog.instantiate("N4_29", vals)
    b = catalog.instantiate("N4_29", flip)
    v = iso_search(a, b)
    assert v.kind == "witness"
    assert verify_isomorphism(a, b, v.witness)


def test_census_f2_smallest_base():
    f2 = FIELDS["F2"]
    a = catalog.instantiate("CD3_01", field=f2)
    forms = catalog.named_forms("CD3_01", f2, {})
    flags = [k + 1 in tables.SETUPS["CD3_01"]["cd"] for k in range(7)]
    coh = cohomology(a, forms, flags)
    census = orbit_census_fp(a, coh)
    assert census.h2_dim == 7
    assert census.lines_total == 2 ** 7 - 1
    assert sum(census.class_counts.values()) == census.lines_total
    assert sum(o.size for o in census.orbits) == census.lines_total
    clone = copy.deepcopy(census)
    assert [(o.line_class, o.rep, o.members, o.witnesses) for o in clone.orbits] \
        == [(o.line_class, o.rep, o.members, o.witnesses) for o in census.orbits]
    assert all(c is f2.one or c is f2.zero for o in clone.orbits for c in o.rep)


def test_orbit_witnesses_reach_members():
    f2 = FIELDS["F2"]
    a = catalog.instantiate("CD3_02", field=f2)
    forms = catalog.named_forms("CD3_02", f2, {})
    flags = [k + 1 in tables.SETUPS["CD3_02"]["cd"] for k in range(7)]
    coh = cohomology(a, forms, flags)
    census = orbit_census_fp(a, coh)
    checked = 0
    for o in census.orbits:
        if o.line_class is not LineClass.U1 or o.size < 2:
            continue
        rep_ext = extension_of_line(a, coh, list(o.rep))
        for member in o.members[:3]:
            phi = o.witnesses[member]
            psi = witness_extension_iso(a, coh, list(o.rep), list(member),
                                        phi)
            mem_ext = extension_of_line(a, coh, list(member))
            assert is_homomorphism(mem_ext, rep_ext, psi)
            assert psi.is_invertible()
            checked += 1
    assert checked >= 3
    o = next(o for o in census.orbits if o.size >= 2)
    member = next(m for m in o.members if m != o.rep)
    with pytest.raises(ValueError, match="does not send"):
        witness_extension_iso(a, coh, list(o.rep), list(member),
                              Matrix.identity(f2, a.dim))


def _reference_homomorphisms(a, b, domain):
    """Every candidate of the generator-image product, in product order: the
    exhaustive loop the pruned search replaced, kept as its oracle."""
    num_gens, steps, values = generating_scheme(a)[:3]
    vmat_inv = Matrix.from_cols(a.field, values).inverse()
    for flat in product(domain, repeat=a.dim * num_gens):
        gens = [list(flat[k * a.dim:(k + 1) * a.dim]) for k in range(num_gens)]
        img_mat = Matrix.from_cols(a.field, eval_tree(b, steps, gens))
        if img_mat.is_invertible():
            phi = img_mat * vmat_inv
            if is_homomorphism(a, b, phi):
                yield phi


def _random_nilpotent(f, rng, n, density):
    """e_i e_j lies in the span of e_k with k > max(i, j)."""
    table = [[[f.random(rng) if k > max(i, j) and rng.random() < density
               else f.zero for k in range(n)] for j in range(n)]
             for i in range(n)]
    return Algebra(f, table)


def _transported(a, g):
    """The table of a in the basis given by the columns of g."""
    f = a.field
    ginv = g.inverse()
    cols = [g.col(j) for j in range(a.dim)]
    return Algebra(f, [[ginv.apply(a.multiply(x, y)) for y in cols]
                       for x in cols])


def _random_table(f, rng, n, density):
    """Any structure constants; mostly not nilpotent, often with A^2 = A."""
    return Algebra(f, [[[f.random(rng) if rng.random() < density else f.zero
                         for k in range(n)] for j in range(n)]
                       for i in range(n)])


def _ranks_mod_square(a):
    """dim A^2, with A^2 spanned from every product of basis vectors, and
    the rank mod A^2 of the scheme's generators 0..g for each g."""
    num_gens, steps, values = generating_scheme(a)[:3]
    basis = [a.basis_vector(i) for i in range(a.dim)]
    sq = a.subspace([a.multiply(x, y) for x in basis for y in basis])
    gens = [v for s, v in zip(steps, values) if s[0] == "gen"]
    return sq.dim, [a.subspace(sq.basis + gens[:g + 1]).dim - sq.dim
                    for g in range(num_gens)]


def test_pruned_search_matches_product_loop_over_fp():
    """Nilpotent tables, the same in random bases, and tables that are not
    nilpotent, searched against isomorphic and unrelated targets; the cases
    the pruning by rank mod the square treats apart must all occur."""
    rng = random.Random(64)
    gens_seen = set()
    cases = set()
    for p in (2, 3):
        f = FIELDS["F%d" % p]
        for trial in range(24):
            n = 3 + trial % 2
            a = [_random_nilpotent(f, rng, n, 0.5),
                 _transported(_random_nilpotent(f, rng, n, 0.5),
                              _random_invertible(f, rng, n)),
                 _random_table(f, rng, n, 0.3)][trial % 3]
            num_gens = generating_scheme(a)[0]
            if p ** (n * num_gens) > 729:
                continue
            gens_seen.add(num_gens)
            sq_dim, ranks = _ranks_mod_square(a)
            if not a.is_nilpotent():
                cases.add("not nilpotent")
            if sq_dim == n:
                cases.add("A^2 = A")
            elif ranks[0] == 0:
                cases.add("generator 0 in A^2")
            if sq_dim < n and any(r == q for q, r in zip(ranks, ranks[1:])):
                cases.add("generator redundant mod A^2")
            elements = f.elements()
            assert aut_group_fp(a) == list(
                _reference_homomorphisms(a, a, elements))
            others = [_transported(a, _random_invertible(f, rng, n)),
                      _random_nilpotent(f, rng, n, 0.5),
                      _random_table(f, rng, n, 0.3)]
            for b in others:
                if _ranks_mod_square(b)[0] != sq_dim:
                    cases.add("dim A/A^2 != dim B/B^2")
                ref = next(_reference_homomorphisms(a, b, elements), None)
                assert iso_search_fp(a, b) == ref
    assert {1, 2} <= gens_seen
    assert cases == {"not nilpotent", "A^2 = A", "generator 0 in A^2",
                     "generator redundant mod A^2", "dim A/A^2 != dim B/B^2"}


def _perturbed(a, rng):
    """a with one structure constant replaced by a random element."""
    f, n = a.field, a.dim
    table = [[list(vec) for vec in row] for row in a.table]
    table[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = f.random(rng)
    return Algebra(f, table)


def test_element_profile_is_invariant_and_proves_distinctness():
    """Nilpotent tables and tables that are not, over F2, F3 and F5 in
    dimensions 2-5: a random change of basis keeps the profile, and two
    profiles differ only when the exhaustive product loop finds no
    isomorphism between the tables. The targets are unrelated tables and
    tables one structure constant away from a change of basis, and among
    them both equal and unequal profiles occur."""
    rng = random.Random(66)
    outcomes = set()
    searched = 0
    for p in (2, 3, 5):
        f = FIELDS["F%d" % p]
        for trial in range(32):
            n = 2 + trial % 4
            make = [lambda: _random_nilpotent(f, rng, n, 0.5),
                    lambda: _random_table(f, rng, n, 0.3)][trial // 4 % 2]
            a = make()
            profile = element_profile(a)
            moved = _transported(a, _random_invertible(f, rng, n))
            assert element_profile(moved) == profile
            small = p ** (n * generating_scheme(a)[0]) <= 729
            for b in (make(), _perturbed(moved, rng)):
                differ = element_profile(b) != profile
                outcomes.add(differ)
                if small:
                    searched += 1
                    ref = next(_reference_homomorphisms(a, b, f.elements()),
                               None)
                    assert not (differ and ref is not None)
    assert outcomes == {False, True} and searched > 90


def test_pruned_search_matches_product_loop_on_catalog_pairs():
    pairs = []
    for rid, exprs, fname in tables.RELATIONS:
        f = FIELDS[fname]
        vals = catalog.sample_parameters(rid, 1, 0)[0]
        b = catalog.instantiate(rid, catalog._relation_images(
            catalog.entry(rid)["params"], exprs, f, vals), f)
        pairs.append((catalog.instantiate(rid, vals, f), b))
    for id1, id2 in tables.DISTINCT_PAIRS:
        a = catalog.instantiate(id1, catalog.sample_parameters(id1, 1, 0)[0])
        b = catalog.instantiate(id2, catalog.sample_parameters(id2, 1, 0)[0])
        if fingerprint(a) == fingerprint(b):
            pairs.append((a, b))
    assert len(pairs) > len(tables.RELATIONS)
    for a, b in pairs:
        f = a.field
        grid = ([f.one, f.omega, f.omega * f.omega, f.zero]
                if hasattr(f, "omega") else [f.one, -f.one, f.zero])
        ref = next(_reference_homomorphisms(a, b, grid), None)
        v = iso_search(a, b, grid=grid, primes=())
        assert v.kind == ("undecided" if ref is None else "witness"), a.label
        assert v.witness == ref, a.label


def _render(m):
    return [" ".join(m.field.render(c) for c in row) for row in m.rows]


def test_search_results_match_stored_snapshot():
    """tests/data/search_snapshot.json holds the rendered iso_search witness
    of each stored relation at its first two samples, and a sha256 of the
    rendered aut_group_fp list of each F2 setup of AC7, as computed before
    the generating scheme became a straight-line program."""
    witnesses = {}
    for rid, exprs, fname in tables.RELATIONS:
        f = FIELDS[fname]
        params = catalog.entry(rid)["params"]
        witnesses[rid] = []
        for vals in catalog.sample_parameters(rid, 2, 0):
            b = catalog.instantiate(rid, catalog._relation_images(
                params, exprs, f, vals), f)
            v = iso_search(catalog.instantiate(rid, vals, f), b)
            witnesses[rid].append(_render(v.witness))
    auts = {}
    for bid, vals in (("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {}),
                      ("CD3_04", {"lambda": 0}), ("CD3_04", {"lambda": 1})):
        a = catalog.instantiate(bid, vals, FIELDS["F2"])
        rendered = json.dumps([_render(phi) for phi in aut_group_fp(a)])
        auts[a.label] = hashlib.sha256(rendered.encode()).hexdigest()
    path = os.path.join(os.path.dirname(__file__), "data",
                        "search_snapshot.json")
    with open(path) as fh:
        stored = json.load(fh)
    assert witnesses == stored["witnesses"]
    assert auts == stored["aut_sha256"]


def test_search_bound_counts_candidates():
    f3 = FIELDS["F3"]
    a = catalog.instantiate("CD3_02", field=f3)
    total = 3 ** (3 * generating_scheme(a)[0])
    with pytest.raises(ResourceBound, match="^automorphism search needs "
                       "%d candidates, bound is %d$" % (total, total - 1)):
        aut_group_fp(a, max_search=total - 1)
    b = catalog.instantiate("CD3_02", field=f3)
    with pytest.raises(ResourceBound, match="^isomorphism search needs"):
        iso_search_fp(a, b, max_search=total - 1)
    assert len(aut_group_fp(a, max_search=total)) > 0


def test_search_bound_precedes_element_profile():
    """A pair above the bound raises the same ResourceBound whether or not
    its element profiles differ."""
    f3 = FIELDS["F3"]
    a = catalog.instantiate("CD3_02", field=f3)
    total = 3 ** (3 * generating_scheme(a)[0])
    message = "^isomorphism search needs %d candidates, bound is %d$" % (
        total, total - 1)
    same = catalog.instantiate("CD3_02", field=f3)
    other = catalog.instantiate("CD3_01", field=f3)
    assert element_profile(a) == element_profile(same)
    assert element_profile(a) != element_profile(other)
    for b in (same, other):
        with pytest.raises(ResourceBound, match=message):
            iso_search_fp(a, b, max_search=total - 1)


def test_automorphisms_and_census_compute_no_element_profile():
    bid, a, forms = _census_setups()[0]
    aut_group_fp(a)
    orbit_census_fp(a, cohomology(a, forms, catalog.cd_flags(bid)))
    assert "element_profile" not in a._cache


def _normalize_line(f, coords):
    """The line through coords as the multiple whose first nonzero entry is
    one, computed over the field elements."""
    lead = next(c for c in coords if c)
    inv = f.one / lead
    return tuple(inv * c for c in coords)


def _reference_census(a, coh):
    """Every automorphism applied to every line, the edges merged by a
    union-find and the witnesses found by a BFS over the stored edges: the
    census the single sweep replaced, kept as its oracle."""
    f = a.field
    r = coh.h2_dim
    lines = []
    for tup in product(f.elements(), repeat=r):
        if not any(tup):
            continue
        if _normalize_line(f, tup) == tup:
            lines.append(tup)
    index = {t: k for k, t in enumerate(lines)}
    classes = []
    for t in lines:
        theta = coh.form_from_coords(list(t))
        classes.append(classify_line(a, theta))
    auts = aut_group_fp(a)
    maps = []
    for phi in auts:
        cols = [coords_mod_b2(coh, act(phi, rep)) for rep in coh.reps]
        maps.append(Matrix.from_cols(f, cols))
    parent = list(range(len(lines)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = {}
    for k, t in enumerate(lines):
        for phi, tmap in zip(auts, maps):
            img = _normalize_line(f, tuple(tmap.apply(list(t))))
            k2 = index[img]
            assert classes[k] is classes[k2]
            edges.setdefault(k, []).append((k2, phi))
            ra, rb = find(k), find(k2)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for k in range(len(lines)):
        groups.setdefault(find(k), []).append(k)
    orbits = []
    for members in groups.values():
        rep = min(members, key=lambda k: tuple(c.v for c in lines[k]))
        witnesses = {lines[rep]: Matrix.identity(f, a.dim)}
        frontier = [rep]
        while frontier:
            nxt = []
            for k in frontier:
                w = witnesses[lines[k]]
                for k2, phi in edges[k]:
                    if lines[k2] not in witnesses:
                        witnesses[lines[k2]] = w * phi
                        nxt.append(k2)
            frontier = nxt
        assert len(witnesses) == len(members)
        orbits.append(LineOrbit(classes[rep], lines[rep],
                                [lines[k] for k in sorted(members)], witnesses))
    orbits.sort(key=lambda o: (o.line_class.value,
                               tuple(c.v for c in o.rep)))
    counts = {}
    for k in range(len(lines)):
        counts[classes[k].value] = counts.get(classes[k].value, 0) + 1
    return Census(a.label, f.name, r, len(auts), len(lines), counts, orbits)


def _census_setups():
    """The five F2 setups of AC7, and three F3 setups each in two seeded
    random bases."""
    f2, f3 = FIELDS["F2"], FIELDS["F3"]
    setups = []
    for bid, vals in [("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {}),
                      ("CD3_04", {"lambda": 0}), ("CD3_04", {"lambda": 1})]:
        setups.append((bid, catalog.instantiate(bid, vals, f2),
                       catalog.named_forms(bid, f2, vals)))
    rng = random.Random(65)
    for bid, vals in [("CD3_01", {}), ("CD3_02", {}),
                      ("CD3_04", {"lambda": 2})]:
        a = catalog.instantiate(bid, vals, f3)
        forms = catalog.named_forms(bid, f3, vals)
        for _ in range(2):
            g = _random_invertible(f3, rng, 3)
            setups.append((bid, _transported(a, g),
                           [act(g, th) for th in forms]))
    return setups


def _f5_setups():
    """CD3_01 and CD3_03 over F5 in their stored bases."""
    f5 = FIELDS["F5"]
    return [(bid, catalog.instantiate(bid, {}, f5),
             catalog.named_forms(bid, f5, {})) for bid in ("CD3_01", "CD3_03")]


def test_residue_classifier_matches_classify_line(monkeypatch):
    """Every line of every census setup and of the F5 setups, classified on
    residues and by classify_line on field elements. The census itself
    calls classify_line once per class it finds, to confirm that class's
    first representative."""
    import nilext.orbits
    calls = []

    def counted(a, theta):
        calls.append(theta)
        return classify_line(a, theta)

    monkeypatch.setattr(nilext.orbits, "classify_line", counted)
    seen = set()
    for bid, a, forms in _census_setups() + _f5_setups():
        coh = cohomology(a, forms, catalog.cd_flags(bid))
        classify = _line_classifier(a, coh)
        elts = a.field.elements()
        for t in projective_points(a.field.p, coh.h2_dim):
            cls = classify(t)
            theta = coh.form_from_coords([elts[c] for c in t])
            assert cls is classify_line(a, theta), (bid, t)
            seen.add(cls)
        calls.clear()
        census = orbit_census_fp(a, coh)
        assert len(calls) == len({o.line_class for o in census.orbits}), bid
    assert seen == set(LineClass)


def test_census_needs_representatives_independent_mod_coboundaries():
    bid, a, forms = _census_setups()[0]
    coh = cohomology(a, forms, catalog.cd_flags(bid))
    cobound = BilinearForm.from_flat(a.field, a.dim, coh.b2.basis[0])
    for reps in ([cobound] + coh.reps[1:], coh.reps[1:]):
        bad = CohomologyBasis(a, coh.b2, reps, coh.cd_flags[:len(reps)],
                              coh.cd_space, False)
        with pytest.raises(RuntimeError, match="not a basis mod coboundaries"):
            orbit_census_fp(a, bad)


def test_census_f5_orbit_count_is_burnside_average():
    """The number of orbits is the average over Aut(A) of the lines each
    automorphism fixes: sum over lambda != 0 of (p^d - 1)/(p - 1), with d
    the dimension of the lambda-eigenspace of its line map, built here on
    field elements."""
    counts = []
    for bid, a, forms in _f5_setups():
        f, p = a.field, a.field.p
        coh = cohomology(a, forms, catalog.cd_flags(bid))
        census = orbit_census_fp(a, coh)
        fixed = 0
        for phi in aut_group_fp(a):
            m = Matrix.from_cols(f, [coords_mod_b2(coh, act(phi, rep))
                                     for rep in coh.reps])
            for lam in f.elements()[1:]:
                d = coh.h2_dim - (m - Matrix.identity(f, coh.h2_dim).scale(
                    lam)).rank()
                fixed += (p ** d - 1) // (p - 1)
        assert fixed % census.aut_count == 0, bid
        assert len(census.orbits) == fixed // census.aut_count, bid
        assert census.lines_total == (p ** coh.h2_dim - 1) // (p - 1)
        counts.append(len(census.orbits))
    assert counts == [1064, 269]


def test_iso_search_prunes_by_rank_mod_square(monkeypatch):
    """The searches between every two U1 orbit representatives' extensions
    of AC7's CD3_01 setup over F2 evaluate the scheme 509 times, all of
    them on the 176 ordered pairs with equal element profiles (the 68 pairs
    of an algebra with itself among them). Without the element profile the
    4,624 searches took 7,658 evaluations; without the pruning by rank mod
    the square as well, 56,770."""
    import nilext.orbits
    calls = []

    def counted(a, steps, gen_images):
        calls.append(a)
        return eval_tree(a, steps, gen_images)

    bid, a, forms = _census_setups()[0]
    coh = cohomology(a, forms, catalog.cd_flags(bid))
    exts = [extension_of_line(a, coh, list(o.rep))
            for o in orbit_census_fp(a, coh).orbits_of(LineClass.U1)]
    monkeypatch.setattr(nilext.orbits, "eval_tree", counted)
    found = [(x is y, iso_search_fp(x, y) is not None)
             for x in exts for y in exts]
    assert len(exts) == 68
    assert all(same == iso for same, iso in found)
    assert len(calls) == 509
    calls.clear()
    equal = [(x, y) for x in exts for y in exts
             if element_profile(x) == element_profile(y)]
    assert all((iso_search_fp(x, y) is not None) == (x is y)
               for x, y in equal)
    assert len(equal) == 176 and len(calls) == 509


def test_iso_search_compares_fingerprints_lazily(monkeypatch):
    """Over the 20 distinctness pairs at seed 0, iso_search evaluates 92
    identities: all 22 on each of the 4 fingerprint-equal pairs, and
    "commutative" on both sides of the 2 pairs it separates. The 14 pairs
    that a linear-algebra invariant separates evaluate none. Complete
    fingerprints took 22 per pair, 440 in all."""
    import nilext.identities
    calls = []
    holds = nilext.identities.holds

    def counted(a, ident):
        calls.append(ident.name)
        return holds(a, ident)

    monkeypatch.setattr(nilext.identities, "holds", counted)
    components = []
    for id1, id2 in tables.DISTINCT_PAIRS:
        a, b = (catalog.instantiate(eid, catalog.sample_parameters(eid, 1, 0)[0])
                for eid in (id1, id2))
        v = iso_search(a, b, grid=[QQ.one, -QQ.one, QQ.zero], primes=())
        components.append(v.component)
        if v.kind == "distinct":
            assert v.evidence == {"left": str(invariant(a, v.component)),
                                  "right": str(invariant(b, v.component))}
    assert components.count("") == 4
    assert components.count("commutative") == 2
    assert len(calls) == 92


def test_aut_group_checks_each_found_map_once(monkeypatch):
    import nilext.orbits
    calls = []

    def counted(a, b, phi):
        calls.append(phi)
        return is_homomorphism(a, b, phi)

    monkeypatch.setattr(nilext.orbits, "is_homomorphism", counted)
    for bid, a, forms in _census_setups():
        calls.clear()
        auts = aut_group_fp(a)
        assert calls == auts, (bid, len(calls), len(auts))


def test_census_sweep_matches_union_find_reference():
    for bid, a, forms in _census_setups():
        flags = [k + 1 in tables.SETUPS[bid]["cd"] for k in range(7)]
        coh = cohomology(a, forms, flags)
        got, ref = orbit_census_fp(a, coh), _reference_census(a, coh)
        assert (got.aut_count, got.lines_total,
                list(got.class_counts.items())) == (
            ref.aut_count, ref.lines_total, list(ref.class_counts.items()))
        assert len(got.orbits) == len(ref.orbits)
        for o, p in zip(got.orbits, ref.orbits):
            assert (o.line_class, o.rep, o.members) == (
                p.line_class, p.rep, p.members), bid
            assert list(o.witnesses.items()) == list(p.witnesses.items()), bid
