import copy
import json
from fractions import Fraction

import pytest

from nilext import catalog, tables
from nilext.poly import POLY_RING, MultiPoly
from nilext.scalars import FIELDS, QQ


def test_catalog_size():
    assert len(tables.N4) == 66
    assert len(tables.BASES) == 12
    assert len(catalog.all_ids()) == 78


def test_unknown_id_rejected():
    try:
        catalog.entry("N4_99")
        assert False
    except ValueError as exc:
        assert "unknown" in str(exc)


def test_stub_id_rejected_with_reason():
    assert catalog.is_stub("D4_01")
    assert catalog.is_stub("CD4_100")
    try:
        catalog.entry("D4_01")
        assert False
    except ValueError as exc:
        assert "stub" in str(exc)


def test_missing_parameter_error():
    try:
        catalog.instantiate("N4_42", {"lambda": 2})
        assert False
    except ValueError as exc:
        assert "missing parameter: alpha" in str(exc)


def test_unknown_parameter_error():
    try:
        catalog.instantiate("N4_17", {"alpha": 1})
        assert False
    except ValueError as exc:
        assert "unknown parameter" in str(exc)


def test_constraint_violation_error():
    try:
        catalog.instantiate("N4_42", {"lambda": 1, "alpha": 5})
        assert False
    except ValueError as exc:
        assert "constraint violation" in str(exc)
        assert "lambda" in str(exc)
    try:
        catalog.instantiate("N4_58", {"lambda": 3, "alpha": 1, "beta": 3})
        assert False
    except ValueError as exc:
        assert "beta" in str(exc)


def test_instantiate_label():
    a = catalog.instantiate("N4_42", {"lambda": 2, "alpha": 1})
    assert a.label == "N4_42(lambda=2,alpha=1)"
    assert catalog.instantiate("N4_17").label == "N4_17"
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    a = catalog.instantiate("N4_29", {"alpha": x, "beta": y / 2}, POLY_RING)
    assert a.label == "N4_29(alpha=x,beta=1/2*y)"


def test_instantiate_over_polynomials():
    """With each parameter as its own variable, an entry's table evaluated
    at a sample is the table instantiated there; N4_42 divides by 1-lambda,
    which is no polynomial."""
    for eid in catalog.all_ids():
        params = catalog.entry(eid)["params"]
        generic = {nm: MultiPoly.var(nm) for nm in params}
        if eid == "N4_42":
            with pytest.raises(ValueError, match="not a constant"):
                catalog.instantiate(eid, generic, POLY_RING)
            continue
        a = catalog.instantiate(eid, generic, POLY_RING)
        sample = catalog.sample_parameters(eid, 1)[0]
        env = {nm: Fraction(v) for nm, v in sample.items()}
        got = [[[c.evaluate(QQ, env) for c in vec] for vec in row]
               for row in a.table]
        assert got == catalog.instantiate(eid, sample).table, eid


def test_sample_parameters_examples():
    got = catalog.sample_parameters("N4_58")
    assert got[0] == {"lambda": Fraction(2), "alpha": Fraction(1),
                      "beta": Fraction(3)}
    got = catalog.sample_parameters("N4_02")
    assert got[0] == {"alpha": Fraction(1), "beta": Fraction(2),
                      "gamma": Fraction(3), "delta": Fraction(4)}
    assert {"alpha": Fraction(-1), "beta": Fraction(-2),
            "gamma": Fraction(-3), "delta": Fraction(4)} in got
    assert catalog.sample_parameters("N4_17") == [{}]


def test_sample_parameters_respect_constraints():
    for eid in sorted(tables.N4):
        for vals in catalog.sample_parameters(eid, 4, seed=3):
            catalog.instantiate(eid, vals)


def test_sample_parameters_deterministic():
    a = catalog.sample_parameters("N4_52", 3, seed=5)
    b = catalog.sample_parameters("N4_52", 3, seed=5)
    assert a == b
    c = catalog.sample_parameters("N4_52", 3, seed=6)
    assert a != c


def test_reconstruction_all_entries():
    for nid in sorted(tables.N4):
        for vals in catalog.sample_parameters(nid, 2):
            want = catalog.instantiate(nid, vals)
            got = catalog.reconstruct(nid, vals)
            assert got.table == want.table, (nid, vals)


def test_reconstruction_other_field():
    f7 = FIELDS["F7"]
    want = catalog.instantiate("N4_42", {"lambda": 2, "alpha": 1}, f7)
    got = catalog.reconstruct("N4_42", {"lambda": 2, "alpha": 1}, f7)
    assert got.table == want.table


def test_construction_without_value_mod_p_raises_value_error():
    """construction and reconstruct refuse an entry with no value over F2
    by ValueError, as instantiate does."""
    f2 = FIELDS["F2"]
    for build in (catalog.instantiate, catalog.construction,
                  catalog.reconstruct):
        with pytest.raises(ValueError, match="N4_47 has no value over F2"):
            build("N4_47", {}, f2)


def test_verify_cohomology_scope():
    rep = catalog.verify_catalog("cohomology")
    assert len(rep.records) == 8
    assert rep.ok
    ids = {r.check_id for r in rep.records}
    assert ids == {"cohomology.dim", "cohomology.cd-span"}


def test_verify_reconstruction_scope():
    rep = catalog.verify_catalog("reconstruction", samples=2)
    assert len(rep.records) == 66
    assert rep.ok


def _records_of(entry_id, scopes, samples):
    """{check id: (status, detail)} of one entry's records in the scopes."""
    return {r.check_id: (r.status, r.detail) for scope in scopes
            for r in catalog.verify_catalog(scope, samples=samples).records
            if r.entry_id == entry_id}


def test_changed_product_fails_reconstruction_and_alia_class(monkeypatch):
    """N4_63 with e1 e2 = -e3 in place of e3 is not the extension its
    construction data builds, and it satisfies the anti-Lie identities
    although the exclusion list excludes it."""
    e = copy.deepcopy(tables.N4["N4_63"])
    e["products"] = tuple((i, j, "-1" if (i, j) == (1, 2) else src, k)
                          for i, j, src, k in e["products"])
    monkeypatch.setitem(tables.N4, "N4_63", e)
    recs = _records_of("N4_63", ("reconstruction", "corollaries"), 1)
    assert recs["reconstruction.table"] == (
        "fail", "e1*e2 gives ['0', '0', '-1', '0'] vs ['0', '0', '1', '0'] "
                "at -")
    assert recs["corollary.alia-class"] == (
        "fail", "at -: alia=True but exclusion list says excluded")
    assert recs["corollary.lie-admissible"] == (
        "pass", "commutator identity at 1 sample(s)")


def test_wrong_expected_values_fail_invariants(monkeypatch):
    """Every problem at every sample is listed, in sample order."""
    e = copy.deepcopy(tables.N4["N4_01"])
    e["expected"] = {"ann": 2, "cd": True}
    monkeypatch.setitem(tables.N4, "N4_01", e)
    recs = _records_of("N4_01", ("reconstruction", "invariants"), 2)
    assert recs["invariants.status"] == (
        "fail", "Ann dim 1 at alpha=1; cd status False at alpha=1; "
                "Ann dim 1 at alpha=2; cd status False at alpha=2")
    assert recs["reconstruction.table"] == (
        "pass", "rebuilt table matches at 2 sample(s)")


def test_all_scope_runs_each_scope_in_order():
    whole = catalog.verify_catalog("all", samples=1, seed=1)
    parts = [r for scope in catalog.SCOPES
             for r in catalog.verify_catalog(scope, samples=1, seed=1).records]
    assert whole.scope == "all"
    assert whole.records == parts


def test_report_serialization_deterministic():
    rep1 = catalog.verify_catalog("cohomology")
    rep2 = catalog.verify_catalog("cohomology")
    assert rep1.to_text() == rep2.to_text()
    assert rep1.to_json() == rep2.to_json()
    payload = json.loads(rep1.to_json())
    assert payload["schema"] == tables.SCHEMA_VERSION
    rec = payload["records"][0]
    assert set(rec) == {"check_id", "entry_id", "params", "status", "detail"}


def test_catalog_json_schema():
    payload = json.loads(catalog.catalog_json())
    assert payload["schema"] == tables.SCHEMA_VERSION
    assert len(payload["entries"]) == 78
    by_id = {e["id"]: e for e in payload["entries"]}
    e42 = by_id["N4_42"]
    assert e42["base"] == "CD3_04"
    assert "N(" in e42["cocycle"]
    assert e42["params"][0]["name"] == "lambda"
    assert e42["params"][0]["excluded"] == ["1"]
    e43 = by_id["N4_43"]
    assert "lambda=-1/2" in e43["base"]
    assert len(payload["stubs"]) == len(tables.STUB_IDS)
    assert payload["relations"][0]["kind"] == "isomorphism"


def test_construction_data_matches_classification():
    base, theta = catalog.construction("N4_17")
    assert base.label == "CD3_01"
    assert theta.gram.rows[0][2] == QQ.one


def test_transform_check_all_bases():
    for bid in sorted(tables.SETUPS):
        ok, msg = catalog.transform_check(bid)
        assert ok, (bid, msg)
