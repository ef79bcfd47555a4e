"""Acceptance gate: the eight headline checks, one summary line each."""

import random
import time

from nilext import catalog, tables
from nilext.algebra import is_homomorphism
from nilext.extensions import (BilinearForm, LineClass, central_extension,
                               coboundary, cohomology)
from nilext.linalg import Matrix, Subspace
from nilext.orbits import (act, extension_of_line, iso_search_fp,
                           orbit_census_fp)
from nilext.scalars import FIELDS, QQ
from test_extensions import theta_perp
from test_linalg import dense_kernel, intersect


def _verdict(tag, ok, detail):
    print("%s: %s (%s)" % (tag, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_ac1_cohomology_tables():
    t0 = time.perf_counter()
    rep = catalog.verify_catalog("cohomology")
    took = time.perf_counter() - t0
    ok = rep.ok and len(rep.records) == 8 and took < 1.0
    _verdict("AC1 cohomology tables", ok,
             "8 records, failures=%d, %.2fs" % (len(rep.failures()), took))


def test_ac2_reconstruction():
    t0 = time.perf_counter()
    rep = catalog.verify_catalog("reconstruction")
    took = time.perf_counter() - t0
    checks = 0
    for r in rep.records:
        if "sample(s)" in r.detail:
            checks += int(r.detail.split()[-2])
    ok = rep.ok and len(rep.records) == 66 and checks >= 150 and took < 10.0
    _verdict("AC2 reconstruction", ok,
             "66 entries, %d table rebuilds, failures=%d, %.2fs"
             % (checks, len(rep.failures()), took))


def test_ac3_status_invariants():
    t0 = time.perf_counter()
    rep = catalog.verify_catalog("invariants")
    took = time.perf_counter() - t0
    ok = rep.ok and len(rep.records) == 78 and took < 30.0
    _verdict("AC3 status invariants", ok,
             "78 entries, failures=%d, %.2fs" % (len(rep.failures()), took))


def test_ac4_transformation_tables():
    t0 = time.perf_counter()
    msgs = []
    ok = True
    for bid in sorted(tables.SETUPS):
        good, msg = catalog.transform_check(bid)
        ok = ok and good
        if not good:
            msgs.append("%s: %s" % (bid, msg))
    took = time.perf_counter() - t0
    ok = ok and took < 5.0
    _verdict("AC4 transformation tables", ok,
             "; ".join(msgs) or "4 symbolic matches, %.2fs" % took)


def test_ac5_relations_and_distinctness():
    rep = catalog.verify_catalog("relations")
    witness = [r for r in rep.records if r.check_id == "relations.witness"]
    distinct = [r for r in rep.records if r.check_id == "relations.distinct"]
    separated = [r for r in distinct
                 if r.status == "pass" and r.detail.startswith("fingerprint")]
    undecided_bad = [r for r in distinct
                     if r.status == "undecided" and "F2" not in r.detail]
    ok = (rep.ok and len(witness) == 7
          and all(r.status == "pass" for r in witness)
          and len(distinct) == 20 and len(separated) >= 15
          and not undecided_bad)
    _verdict("AC5 relations", ok,
             "7 witnessed relations, %d/20 pairs fingerprint-separated, "
             "failures=%d" % (len(separated), len(rep.failures())))


def test_ac6_corollaries():
    rep = catalog.verify_catalog("corollaries")
    lie = [r for r in rep.records if r.check_id == "corollary.lie-admissible"]
    coc = [r for r in rep.records if r.check_id == "corollary.alia-cocycles"]
    cls = [r for r in rep.records if r.check_id == "corollary.alia-class"]
    ok = (rep.ok and len(lie) == 78 and len(coc) == 8 and len(cls) == 66)
    _verdict("AC6 corollaries", ok,
             "78 Lie-admissible, 8 cocycle-table, 66 exclusion-list records, "
             "failures=%d" % len(rep.failures()))


def test_ac7_orbit_census_oracle():
    t0 = time.perf_counter()
    cases = [("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {}),
             ("CD3_04", {"lambda": 0}), ("CD3_04", {"lambda": 1})]
    f2 = FIELDS["F2"]
    bits = []
    ok = True
    for bid, vals in cases:
        a = catalog.instantiate(bid, vals, f2)
        forms = catalog.named_forms(bid, f2, vals)
        flags = [k + 1 in tables.SETUPS[bid]["cd"] for k in range(7)]
        coh = cohomology(a, forms, flags)
        census = orbit_census_fp(a, coh)
        u1 = census.orbits_of(LineClass.U1)
        lines = [t for o in u1 for t in o.members]
        classes = []
        for t in lines:
            ext = extension_of_line(a, coh, list(t))
            for cl in classes:
                if iso_search_fp(cl[0], ext) is not None:
                    cl.append(ext)
                    break
            else:
                classes.append([ext])
        bits.append("%s: %d orbits / %d classes on %d lines"
                    % (a.label, len(u1), len(classes), len(lines)))
        ok = ok and len(u1) == len(classes)
    took = time.perf_counter() - t0
    ok = ok and took < 300.0
    _verdict("AC7 census oracle over F2", ok,
             "; ".join(bits) + ", %.1fs" % took)


def test_ac8_property_suites():
    counts = {}

    rng = random.Random(81)
    n = 0
    for name in sorted(FIELDS):
        f = FIELDS[name]
        for _ in range(35):
            a, b, c = f.random(rng), f.random(rng), f.random(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + (-a) == f.zero
            if c != f.zero:
                assert c * (f.one / c) == f.one
            n += 1
    counts["field-axioms"] = n

    rng = random.Random(82)
    n = 0
    fields = [FIELDS[nm] for nm in ("Q", "F3", "F5", "QZ12")]
    for trial in range(208):
        f = fields[trial % len(fields)]
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = Matrix(f, [[f.random(rng) for _ in range(c)] for _ in range(r)])
        assert m.rank() + len(dense_kernel(f, c, m.rows)) == c
        n += 1
    counts["rank-nullity"] = n

    rng = random.Random(83)
    base_pool = [("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {}),
                 ("CD3_04", {"lambda": 2}), ("CD3_04", {"lambda": -1})]
    n = 0
    for trial in range(200):
        bid, vals = base_pool[trial % len(base_pool)]
        a = catalog.instantiate(bid, vals)
        f = a.field
        d = a.dim
        th = BilinearForm.from_flat(f, d,
                                    [f.random(rng) for _ in range(d * d)])
        fun = [f.random(rng) for _ in range(d)]
        shifted = th + coboundary(a, fun)
        ext1 = central_extension(a, [th])
        ext2 = central_extension(a, [shifted])
        m = Matrix(f, [list(row) + [f.zero]
                       for row in Matrix.identity(f, d).rows]
                   + [list(fun) + [f.one]])
        assert is_homomorphism(ext1, ext2, m)
        assert m.is_invertible()
        n += 1
    counts["coboundary-shift"] = n

    rng = random.Random(84)
    n = 0
    while n < 200:
        d = rng.randrange(2, 5)
        f = QQ
        p1 = Matrix(f, [[f.random(rng) for _ in range(d)] for _ in range(d)])
        p2 = Matrix(f, [[f.random(rng) for _ in range(d)] for _ in range(d)])
        if not (p1.is_invertible() and p2.is_invertible()):
            continue
        th = BilinearForm.from_flat(f, d,
                                    [f.random(rng) for _ in range(d * d)])
        assert act(p1 * p2, th) == act(p2, act(p1, th))
        n += 1
    counts["action-composition"] = n

    rng = random.Random(85)
    n = 0
    while n < 200:
        bid, vals = base_pool[n % len(base_pool)]
        a = catalog.instantiate(bid, vals)
        f = a.field
        d = a.dim
        th = BilinearForm.from_flat(f, d,
                                    [f.random(rng) for _ in range(d * d)])
        if th.is_zero():
            continue
        ext = central_extension(a, [th])
        inner = intersect(theta_perp(a, [th]), a.annihilator())
        lifted = [list(v) + [f.zero] for v in inner.basis]
        lifted.append([f.zero] * d + [f.one])
        assert ext.annihilator() == Subspace(f, d + 1, lifted)
        n += 1
    counts["annihilator-formula"] = n

    ok = all(v >= 200 for v in counts.values())
    _verdict("AC8 property suites", ok,
             ", ".join("%s=%d" % kv for kv in sorted(counts.items()))
             + " trials")
