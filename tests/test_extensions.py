import random
from itertools import product

import pytest

from nilext import catalog, tables
from nilext.algebra import Algebra
from nilext.extensions import (BilinearForm, LineClass, b2_space,
                               cd_cocycle_space, central_extension,
                               classify_line, coboundary, cohomology,
                               is_split, parse_form,
                               radical_meets_annihilator, render_form)
from nilext.linalg import Matrix, Subspace
from nilext.scalars import FIELDS, QQ
from test_linalg import dense_kernel, intersect
from test_orbits import (_census_setups, _normalize_line,
                         _random_invertible, _random_nilpotent, _transported)


def theta_perp(a, thetas):
    """Vectors x with theta(x, A) = theta(A, x) = 0 for every given form."""
    f = a.field
    rows = []
    for th in thetas:
        for j in range(a.dim):
            rows.append([th.gram.rows[i][j] for i in range(a.dim)])
            rows.append(list(th.gram.rows[j]))
    return Subspace(f, a.dim, dense_kernel(f, a.dim, rows))


def _named(bid, vals=None):
    a = catalog.instantiate(bid, vals)
    forms = catalog.named_forms(bid, QQ, vals or {})
    flags = [k + 1 in tables.SETUPS[bid]["cd"] for k in range(7)]
    return a, forms, flags


def test_coboundary_space_dims():
    dims = {"CD3_01": 2, "CD3_02": 2, "CD3_03": 2}
    for bid, want in sorted(dims.items()):
        a = catalog.instantiate(bid)
        assert b2_space(a).dim == want, bid


def test_coboundary_definition_random():
    rng = random.Random(51)
    a = catalog.instantiate("CD3_03")
    f = a.field
    for _ in range(60):
        fun = [f.random(rng) for _ in range(a.dim)]
        d = coboundary(a, fun)
        x = [f.random(rng) for _ in range(a.dim)]
        y = [f.random(rng) for _ in range(a.dim)]
        want = f.zero
        for k, c in enumerate(a.multiply(x, y)):
            want = want + fun[k] * c
        assert d.evaluate(x, y) == want


def test_cohomology_dimension_seven():
    for bid in ("CD3_01", "CD3_02", "CD3_03"):
        a, forms, flags = _named(bid)
        coh = cohomology(a, forms, flags)
        assert coh.h2_dim == 7
        assert coh.canonical
        assert [bool(x) for x in coh.cd_flags] == flags


def test_cohomology_generic_fallback():
    a = catalog.instantiate("CD3_01")
    coh = cohomology(a)
    assert coh.h2_dim == 7
    assert len(coh.reps) == 7


def test_parse_render_round_trip():
    a, forms, _ = _named("CD3_04", {"lambda": 3})
    env = {"lambda": QQ.from_int(3)}
    for th in forms:
        back = parse_form(render_form(th), a.dim, QQ)
        assert back == th
    combo = parse_form("2*N(1)-N(4)+D(3,3)", a.dim, QQ, named=forms, env=env)
    want = forms[0].scale(QQ.from_int(2)) - forms[3] + \
        BilinearForm.unit(QQ, a.dim, 2, 2)
    assert combo == want


def test_parse_render_round_trip_random():
    """render_form output parses back over Q and over QZ12, whose
    coefficients render with z, powers and sums."""
    rng = random.Random(58)
    for name in ("Q", "QZ12"):
        f = FIELDS[name]
        for n in (2, 3, 4):
            for density in (0.2, 0.5, 1.0):
                th = BilinearForm(f, [[f.random(rng) if rng.random() < density
                                       else f.zero for _ in range(n)]
                                      for _ in range(n)])
                assert parse_form(render_form(th), n, f) == th, \
                    render_form(th)


def test_fp_representatives_parse_back():
    """Every cohomology representative of CD3_01-CD3_04, named and
    computed, survives render_form then parse_form over F5 and F7: an F_p
    coefficient is written as its residue."""
    for name in ("F5", "F7"):
        f = FIELDS[name]
        texts = []
        for bid in ("CD3_01", "CD3_02", "CD3_03", "CD3_04"):
            vals = {"lambda": f.from_int(2)} if bid == "CD3_04" else {}
            a = catalog.instantiate(bid, vals, f)
            named = catalog.named_forms(bid, f, vals)
            for coh in (cohomology(a),
                        cohomology(a, named, catalog.cd_flags(bid))):
                for th in coh.reps:
                    texts.append(render_form(th))
                    assert parse_form(texts[-1], a.dim, f) == th, texts[-1]
        assert any("*" in t for t in texts)  # a coefficient other than +-1


def test_parse_form_grammar():
    a, forms, _ = _named("CD3_01")
    got = parse_form("2*(N(1)+N(3))", a.dim, QQ, named=forms)
    assert got == forms[0].scale(QQ.from_int(2)) + \
        forms[2].scale(QQ.from_int(2))
    assert parse_form("-(D(1,2)-N(3))", a.dim, QQ, named=forms) == \
        forms[2] - BilinearForm.unit(QQ, a.dim, 0, 1)
    assert parse_form(" 0 ", a.dim, QQ).is_zero()
    for bad, named in (("D(0,1)", None), ("D(1)", None), ("D(1,2,3)", None),
                       ("N(1)", None), ("N(8)", forms), ("N(1,2)", forms),
                       ("D(1,2)*D(1,3)", None), ("D(1,2)/2", None),
                       ("2", None), ("1+D(1,2)", None), ("D(1,2)-1", None),
                       ("D(1,2)^2", None), ("D(x,2)", None),
                       ("N(1)*2", forms)):
        with pytest.raises(ValueError):
            parse_form(bad, a.dim, QQ, named=named)


def test_parse_form_with_parameter_coefficient():
    a, forms, _ = _named("CD3_04", {"lambda": 3})
    th = parse_form("(lambda-2)*D(1,3)", a.dim, QQ,
                    env={"lambda": QQ.from_int(3)})
    assert th.gram.rows[0][2] == QQ.one


def test_theta_perp():
    a = catalog.instantiate("CD3_01")
    th = parse_form("D(1,2)", a.dim, QQ)
    perp = theta_perp(a, [th])
    assert perp.dim == 1
    assert perp.contains([QQ.zero, QQ.zero, QQ.one])


def test_classify_line_three_ways():
    a, forms, flags = _named("CD3_01")
    assert classify_line(a, forms[0]) is LineClass.NOT_IN_T1
    mix = parse_form("N(1)+N(3)", a.dim, QQ, named=forms)
    assert classify_line(a, mix) is LineClass.U1
    b, bforms, _ = _named("CD3_03")
    assert classify_line(b, bforms[2]) is LineClass.R1


def test_classify_line_rejects_coboundaries():
    a = catalog.instantiate("CD3_01")
    th = parse_form("D(1,1)", a.dim, QQ)
    try:
        classify_line(a, th)
        assert False, "expected a rejection"
    except ValueError:
        pass


def test_central_extension_table():
    a, forms, _ = _named("CD3_01")
    th = parse_form("D(1,3)", a.dim, QQ)
    ext = central_extension(a, [th])
    assert ext.dim == 4
    want = catalog.instantiate("N4_17")
    assert ext.table == want.table


def test_split_detection():
    a, forms, _ = _named("CD3_03")
    th = forms[2]
    assert intersect(theta_perp(a, [th]), a.annihilator()).dim == 0
    assert not is_split(a, [th])
    shifted = th + coboundary(a, [QQ.one, QQ.from_int(2), QQ.zero])
    assert not is_split(a, [shifted])


def test_extension_annihilator_formula():
    rng = random.Random(52)
    a = catalog.instantiate("CD3_02")
    f = a.field
    n = a.dim
    for _ in range(40):
        coords = [f.random(rng) for _ in range(n * n)]
        th = BilinearForm.from_flat(f, n, coords)
        if th.is_zero():
            continue
        ext = central_extension(a, [th])
        inner = intersect(theta_perp(a, [th]), a.annihilator())
        lifted = [list(v) + [f.zero] for v in inner.basis]
        lifted.append([f.zero] * n + [f.one])
        want = Subspace(f, n + 1, lifted)
        assert ext.annihilator() == want


def _reference_form_from_coords(coh, coords):
    total = BilinearForm.zero(coh.algebra.field, coh.algebra.dim)
    for c, r in zip(coords, coh.reps):
        total = total + r.scale(c)
    return total


def _reference_radical_meets(a, thetas):
    # A fresh algebra has an empty cache: the annihilator is recomputed.
    ann = Algebra(a.field, a.table).annihilator("both")
    return intersect(theta_perp(a, thetas), ann).dim > 0


def _reference_classify_line(a, theta):
    if b2_space(a).contains(theta.flatten()):
        raise ValueError("form is a coboundary")
    if _reference_radical_meets(a, [theta]):
        return LineClass.NOT_IN_T1
    z2cd = cd_cocycle_space(a)
    if z2cd is not None and z2cd.contains(theta.flatten()):
        return LineClass.R1
    return LineClass.U1


def test_line_classification_matches_reference_on_census_lines():
    for bid, a, forms in _census_setups():
        flags = [k + 1 in tables.SETUPS[bid]["cd"] for k in range(7)]
        coh = cohomology(a, forms, flags)
        f = a.field
        for t in product(f.elements(), repeat=coh.h2_dim):
            if not any(t) or _normalize_line(f, t) != t:
                continue
            theta = coh.form_from_coords(list(t))
            ref = _reference_form_from_coords(coh, t)
            assert theta == ref, (bid, t)
            assert classify_line(a, theta) is \
                _reference_classify_line(a, ref), (bid, t)


def test_radical_test_matches_reference_on_random_forms():
    rng = random.Random(54)
    seen = set()
    for name in ("Q", "F3"):
        f = FIELDS[name]
        algs = [catalog.instantiate(bid, vals, f) for bid, vals in
                [("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {}),
                 ("CD3_04", {"lambda": 2})]]
        algs += [_random_nilpotent(f, rng, n, 0.6) for n in (3, 4, 4)]
        algs += [_transported(a, _random_invertible(f, rng, a.dim))
                 for a in list(algs)]
        for a in algs:
            n = a.dim
            for _ in range(12):
                density = rng.choice((0.15, 0.3, 0.6))
                thetas = [BilinearForm(f, [[f.random(rng)
                                            if rng.random() < density
                                            else f.zero for _ in range(n)]
                                           for _ in range(n)])
                          for _ in range(2)]
                meets = _reference_radical_meets(a, thetas)
                seen.add(meets)
                assert radical_meets_annihilator(a, thetas) == meets
                assert radical_meets_annihilator(a, thetas[:1]) == \
                    _reference_radical_meets(a, thetas[:1])
                if meets:
                    with pytest.raises(ValueError):
                        is_split(a, thetas)
                else:
                    b2 = b2_space(a)
                    span = b2.add(Subspace(f, n * n, [th.flatten()
                                                      for th in thetas]))
                    assert is_split(a, thetas) == (span.dim - b2.dim < 2)
    assert seen == {True, False}
