import copy
import hashlib
import json
import os
import random
from itertools import product

import pytest

from nilext import catalog, tables
from nilext.algebra import (Algebra, eval_tree, fingerprint,
                            generating_scheme, is_homomorphism)
from nilext.extensions import (BilinearForm, LineClass, classify_line,
                               cohomology, central_extension)
from nilext.linalg import Matrix
from nilext.orbits import (AutFamily, Census, LineOrbit, ResourceBound,
                           Verdict, _normalize_line, act, aut_group_fp,
                           extension_of_line, iso_search, iso_search_fp,
                           orbit_census_fp, verify_isomorphism,
                           verify_transform_table, witness_extension_iso)
from nilext.scalars import FIELDS, QQ


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
    setup = tables.SETUPS["CD3_01"]["aut"]
    fam = AutFamily.from_strings("CD3_01", setup["vars"], setup["nonzero"],
                                 setup["rows"])
    a = catalog.instantiate("CD3_01")
    env = {"x": QQ.from_int(2), "y": QQ.from_int(5)}
    phi = fam.specialize(QQ, env)
    assert is_homomorphism(a, a, phi)


def test_transform_tables_symbolic():
    for bid in sorted(tables.SETUPS):
        ok, msg = catalog.transform_check(bid)
        assert ok, (bid, msg)


def test_transform_table_rejects_wrong_formula():
    setup = tables.SETUPS["CD3_01"]
    aut = setup["aut"]
    fam = AutFamily.from_strings("CD3_01", aut["vars"], aut["nonzero"],
                                 aut["rows"])
    from nilext.exprs import poly_str
    from nilext.poly import MultiPoly
    formulas = [poly_str(s) for s in setup["transform"]]
    formulas[0] = formulas[0] + MultiPoly.var("x")
    n = 3
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
    ok, msg = verify_transform_table(fam, formulas, grids, rows)
    assert not ok


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


def test_pruned_search_matches_product_loop_over_fp():
    rng = random.Random(64)
    gens_seen = set()
    for p in (2, 3):
        f = FIELDS["F%d" % p]
        for trial in range(24):
            n = 3 + trial % 2
            a = _random_nilpotent(f, rng, n, 0.5)
            num_gens = generating_scheme(a)[0]
            if p ** (n * num_gens) > 729:
                continue
            gens_seen.add(num_gens)
            elements = f.elements()
            assert aut_group_fp(a) == list(
                _reference_homomorphisms(a, a, elements))
            others = [_transported(a, _random_invertible(f, rng, n)),
                      _random_nilpotent(f, rng, n, 0.5)]
            for b in others:
                ref = next(_reference_homomorphisms(a, b, elements), None)
                assert iso_search_fp(a, b) == ref
    assert {1, 2} <= gens_seen


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
        cols = [coh.coords_mod_b2(act(phi, rep)) for rep in coh.reps]
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
