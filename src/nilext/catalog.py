"""Catalog instantiation, parameter sampling, and the verification pipeline."""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import tables
from .algebra import Algebra, fingerprint
from .exprs import eval_str, field_env, poly_str
from .extensions import BilinearForm, central_extension, cohomology
from .identities import ALIA_NAMES, CD_NAMES, builtin, holds, \
    induced_cocycle_constraints
from .linalg import Subspace, zero_vec
from .orbits import AutFamily, iso_search, verify_transform_table
from .poly import POLY_RING
from .scalars import FIELDS, QQ


def entry(entry_id: str) -> dict:
    """Catalog row for an id; stubs and unknown ids are rejected."""
    if entry_id in tables.N4:
        return tables.N4[entry_id]
    if entry_id in tables.BASES:
        return tables.BASES[entry_id]
    if entry_id in tables.STUB_IDS:
        raise ValueError("stub entry (external classification): " + entry_id)
    raise ValueError("unknown catalog id: " + entry_id)


def all_ids():
    return sorted(tables.BASES) + sorted(tables.N4)


def is_stub(entry_id: str) -> bool:
    return entry_id in tables.STUB_IDS


def _to_field(field, value, env):
    if isinstance(value, str):
        return eval_str(value, field, env)
    if isinstance(value, (int, Fraction)):
        return field.from_fraction(Fraction(value))
    return value


def _converted(e, values, field):
    """Parameter map as field elements, with constraints enforced."""
    values = dict(values or {})
    unknown = sorted(set(values) - set(e["params"]))
    if unknown:
        raise ValueError("unknown parameter: " + unknown[0])
    env = field_env(field)
    conv = {}
    for name in e["params"]:
        if name not in values:
            raise ValueError("missing parameter: " + name)
        conv[name] = _to_field(field, values[name], env)
        env[name] = conv[name]
    for name, avoided in e["excluded"].items():
        for src in avoided:
            if conv[name] == eval_str(src, field, env):
                raise ValueError(
                    "constraint violation: %s != %s" % (name, src))
    return conv, env


def _label(entry_id, e, conv, field):
    if not e["params"]:
        return entry_id
    parts = ["%s=%s" % (nm, field.render(conv[nm])) for nm in e["params"]]
    return "%s(%s)" % (entry_id, ",".join(parts))


def instantiate(entry_id: str, values=None, field=QQ) -> Algebra:
    """Evaluate a catalog entry's table at given parameter values."""
    e = entry(entry_id)
    conv, env = _converted(e, values, field)
    n = e["dim"]
    table = [[zero_vec(field, n) for _ in range(n)] for _ in range(n)]
    for i, j, src, k in e["products"]:
        c = eval_str(src, field, env)
        table[i - 1][j - 1][k - 1] = table[i - 1][j - 1][k - 1] + c
    return Algebra(field, table, label=_label(entry_id, e, conv, field),
                   params=conv)


def _grid(spec, n, zero, value):
    """n x n grid holding the sum of value(src) at (i, j), 1-based, over
    the (src, i, j) terms of spec."""
    g = [[zero] * n for _ in range(n)]
    for src, i, j in spec:
        g[i - 1][j - 1] = g[i - 1][j - 1] + value(src)
    return g


def named_forms(base_id: str, field, env):
    """The seven dictionary forms of an extensible 3-dim algebra."""
    n = tables.BASES[base_id]["dim"]
    full_env = field_env(field)
    full_env.update(env)
    return [BilinearForm(field, _grid(spec, n, field.zero,
                                      lambda s: eval_str(s, field, full_env)))
            for spec in tables.SETUPS[base_id]["forms"]]


def cd_flags(base_id: str):
    """Which of a base's named forms are of derivation type (cd)."""
    setup = tables.SETUPS[base_id]
    return [k + 1 in setup["cd"] for k in range(len(setup["forms"]))]


def construction(entry_id: str, values=None, field=QQ):
    """Base algebra and combination form recorded for a constructed entry."""
    e = entry(entry_id)
    if "base" not in e:
        raise ValueError("%s has no construction data" % entry_id)
    conv, env = _converted(e, values, field)
    base_e = tables.BASES[e["base"]]
    base_vals = {}
    for name in base_e["params"]:
        if name in e["base_params"]:
            base_vals[name] = eval_str(e["base_params"][name], field, env)
        elif name in conv:
            base_vals[name] = conv[name]
        else:
            raise ValueError("missing base parameter: " + name)
    base = instantiate(e["base"], base_vals, field)
    forms = named_forms(e["base"], field, base_vals)
    n = base.dim
    theta = BilinearForm.zero(field, n)
    for src, idx in e["cocycle"]:
        theta = theta + forms[idx - 1].scale(eval_str(src, field, env))
    return base, theta


def reconstruct(entry_id: str, values=None, field=QQ) -> Algebra:
    """Entry rebuilt as a central extension of its recorded base."""
    base, theta = construction(entry_id, values, field)
    a = central_extension(base, [theta], label=entry_id + "~rebuilt")
    return a


def transform_check(base_id: str):
    """Symbolic pullback check of a base's recorded coefficient formulas."""
    setup = tables.SETUPS[base_id]
    n = tables.BASES[base_id]["dim"]
    aut = setup["aut"]
    family = AutFamily.from_strings(base_id, aut["vars"], aut["nonzero"],
                                    aut["rows"])
    formulas = [poly_str(s) for s in setup["transform"]]
    grids = [_grid(spec, n, POLY_RING.zero, poly_str)
             for spec in setup["forms"]]
    b2_rows = [[c for row in _grid(spec, n, POLY_RING.zero, poly_str)
                for c in row] for spec in setup["b2"]]
    return verify_transform_table(family, formulas, grids, b2_rows)


def cocycle_string(e) -> str:
    parts = []
    for src, idx in e["cocycle"]:
        parts.append("N(%d)" % idx if src == "1" else "(%s)*N(%d)" % (src, idx))
    return "+".join(parts)


_POOL = tuple(Fraction(k) for k in range(1, 40))
_LAMBDA_POOL = tuple(Fraction(k) for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


def _admissible(e, values):
    try:
        _converted(e, values, QQ)
    except ValueError:
        return False
    return True


def sample_parameters(entry_id: str, count=3, seed=0):
    """Deterministic rational parameter samples clear of all constraints."""
    if count < 1:
        raise ValueError("sample count must be at least 1, got %d" % count)
    e = entry(entry_id)
    params = e["params"]
    if not params:
        return [{}]
    out = []
    for s in range(count):
        vals = {}
        pos = 0
        for name in params:
            seq = _LAMBDA_POOL if name == "lambda" else _POOL
            k = seed + s + (0 if name == "lambda" else pos)
            for _ in range(60):
                trial = dict(vals)
                trial[name] = seq[k % len(seq)]
                ok = True
                env = field_env(QQ)
                env.update(trial)
                for avoided in e["excluded"].get(name, ()):
                    if trial[name] == eval_str(avoided, QQ, env):
                        ok = False
                if ok:
                    break
                k += 1
            else:
                raise ValueError("no admissible sample found in budget")
            vals[name] = seq[k % len(seq)]
            if name != "lambda":
                pos += 1
        assert _admissible(e, vals)
        out.append(vals)
    for rid, exprs, fname in tables.RELATIONS:
        if rid != entry_id or fname != "Q":
            continue
        env = field_env(QQ)
        env.update(out[0])
        partner = {nm: eval_str(src, QQ, env)
                   for nm, src in zip(params, exprs)}
        if partner != out[0] and partner not in out and \
                _admissible(e, partner):
            out.append(partner)
    return out


@dataclass
class CheckRecord:
    check_id: str
    entry_id: str
    params: str
    status: str
    detail: str

    def as_dict(self):
        return {"check_id": self.check_id, "entry_id": self.entry_id,
                "params": self.params, "status": self.status,
                "detail": self.detail}


@dataclass
class Report:
    scope: str
    records: list

    def failures(self):
        return [r for r in self.records if r.status == "fail"]

    @property
    def ok(self):
        return not self.failures()

    def to_text(self) -> str:
        lines = ["scope=%s checks=%d failures=%d" % (
            self.scope, len(self.records), len(self.failures()))]
        for r in self.records:
            where = r.entry_id + ("[%s]" % r.params if r.params else "")
            lines.append("%-6s %-28s %-24s %s" % (
                r.status, r.check_id, where, r.detail))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"schema": tables.SCHEMA_VERSION, "scope": self.scope,
                   "failures": len(self.failures()),
                   "records": [r.as_dict() for r in self.records]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _params_str(vals):
    return ",".join("%s=%s" % (nm, vals[nm]) for nm in sorted(vals))


_COHOMOLOGY_LAMBDAS = (Fraction(0), Fraction(-1), Fraction(1), Fraction(2),
                       Fraction(5))
_SPECIAL_LAMBDAS = (Fraction(0), Fraction(-1), Fraction(1))


def _base_cases(bid):
    """(values, tag, algebra) over Q for each swept lambda of a base, or the
    one case with no values and an empty tag when it has no lambda."""
    if "lambda" not in tables.BASES[bid]["params"]:
        return [({}, "", instantiate(bid))]
    return [({"lambda": lam}, "lambda=%s: " % lam,
             instantiate(bid, {"lambda": lam}))
            for lam in _COHOMOLOGY_LAMBDAS]


def _check_cohomology():
    recs = []
    for bid in sorted(tables.SETUPS):
        dim_ok = True
        dim_bits = []
        span_fail = []
        span_noted = []
        for vals, tag, a in _base_cases(bid):
            coh = cohomology(a, named_forms(bid, QQ, vals), cd_flags(bid))
            dim_bits.append("%sdim=%d" % (tag, coh.h2_dim))
            if coh.h2_dim != 7:
                dim_ok = False
            if not coh.canonical:
                msg = "%s%s" % (tag, "; ".join(coh.notes) or "span mismatch")
                if vals.get("lambda") in _SPECIAL_LAMBDAS:
                    span_noted.append(msg)
                else:
                    span_fail.append(msg)
        recs.append(CheckRecord("cohomology.dim", bid, "",
                                "pass" if dim_ok else "fail",
                                " ".join(dim_bits)))
        if span_fail:
            st, detail = "fail", "; ".join(span_fail)
        elif span_noted:
            st, detail = "noted", "special values: " + "; ".join(span_noted)
        else:
            st, detail = "pass", "named span matches computed constraint space"
        recs.append(CheckRecord("cohomology.cd-span", bid, "", st, detail))
    return recs


def _table_mismatch(a: Algebra, b: Algebra):
    for i in range(a.dim):
        for j in range(a.dim):
            if a.table[i][j] != b.table[i][j]:
                return "e%d*e%d gives %s vs %s" % (
                    i + 1, j + 1,
                    [a.field.render(c) for c in a.table[i][j]],
                    [b.field.render(c) for c in b.table[i][j]])
    return None


def _check_reconstruction(samples, seed):
    recs = []
    for nid in sorted(tables.N4):
        tried = 0
        bad = None
        for vals in sample_parameters(nid, samples, seed)[:samples]:
            tried += 1
            want = instantiate(nid, vals)
            got = reconstruct(nid, vals)
            miss = _table_mismatch(want, got)
            if miss:
                bad = "%s at %s" % (miss, _params_str(vals) or "-")
                break
        recs.append(CheckRecord(
            "reconstruction.table", nid, "",
            "fail" if bad else "pass",
            bad or "rebuilt table matches at %d sample(s)" % tried))
    return recs


def _span_e(field, dim, indices):
    vecs = []
    for k in indices:
        v = zero_vec(field, dim)
        v[k] = field.one
        vecs.append(v)
    return Subspace(field, dim, vecs)


def _check_invariants(samples, seed):
    recs = []
    for eid in all_ids():
        e = entry(eid)
        problems = []
        tried = 0
        for vals in sample_parameters(eid, samples, seed)[:samples]:
            tried += 1
            a = instantiate(eid, vals)
            where = _params_str(vals) or "-"
            if not a.is_nilpotent():
                problems.append("not nilpotent at " + where)
                continue
            ann = a.annihilator()
            if ann.dim != e["expected"]["ann"]:
                problems.append("Ann dim %d at %s" % (ann.dim, where))
            if e["expected"]["ann"] == 1 and e["dim"] == 4 and eid in tables.N4:
                if ann != _span_e(a.field, 4, [3]):
                    problems.append("Ann is not <e4> at " + where)
            sat = all(a.satisfies(nm) for nm in CD_NAMES)
            if a.is_cd_by_operators() != sat:
                problems.append("identity and operator routes disagree at "
                                + where)
            if sat != e["expected"]["cd"]:
                problems.append("cd status %s at %s" % (sat, where))
        recs.append(CheckRecord(
            "invariants.status", eid, "",
            "fail" if problems else "pass",
            "; ".join(problems) or
            "nilpotent, annihilator and identity checks at %d sample(s)"
            % tried))
    return recs


def _evidence_str(verdict):
    return "; ".join("%s: %s" % (k, v)
                     for k, v in sorted(verdict.evidence.items()))


def _relation_images(params, exprs, field, vals):
    env = field_env(field)
    for nm, v in vals.items():
        env[nm] = _to_field(field, v, field_env(field))
    return {nm: eval_str(src, field, env) for nm, src in zip(params, exprs)}


def _check_relations(max_search, seed):
    recs = []
    for rid, exprs, fname in tables.RELATIONS:
        field = FIELDS[fname]
        e = entry(rid)
        good = 0
        detail = []
        for vals in sample_parameters(rid, 2, seed)[:2]:
            lhs = instantiate(rid, vals, field)
            rhs_vals = _relation_images(e["params"], exprs, field, vals)
            rhs = instantiate(rid, rhs_vals, field)
            verdict = iso_search(lhs, rhs, max_search=max_search)
            if verdict.isomorphic:
                good += 1
                detail.append("witness at %s" % (_params_str(vals) or "-"))
            else:
                detail.append("NO witness at %s (%s)" % (
                    _params_str(vals) or "-", verdict.kind))
        recs.append(CheckRecord(
            "relations.witness", rid,
            ",".join(exprs), "pass" if good == 2 else "fail",
            "; ".join(detail)))
    for id1, id2 in tables.DISTINCT_PAIRS:
        a = instantiate(id1, sample_parameters(id1, 1, seed)[0])
        b = instantiate(id2, sample_parameters(id2, 1, seed)[0])
        diff = fingerprint(a).first_difference(fingerprint(b))
        pair = "%s|%s" % (id1, id2)
        if diff:
            recs.append(CheckRecord("relations.distinct", pair, "", "pass",
                                    "fingerprint: " + diff))
            continue
        verdict = iso_search(a, b, max_search=max_search)
        if verdict.isomorphic:
            recs.append(CheckRecord("relations.distinct", pair, "", "fail",
                                    "unexpected isomorphism witness"))
        elif verdict.isomorphic is False:
            recs.append(CheckRecord("relations.distinct", pair, "", "pass",
                                    "separated by " + verdict.component))
        else:
            recs.append(CheckRecord("relations.distinct", pair, "",
                                    "undecided", _evidence_str(verdict)))
    recs.append(CheckRecord(
        "relations.stubs", "-", "", "noted",
        "%d stored symmetry statements reference external ids and are not "
        "verifiable here" % len(tables.STUB_RELATIONS)))
    return recs


def _alia_spaces(a: Algebra):
    return [induced_cocycle_constraints(a, builtin(nm)) for nm in ALIA_NAMES]


def _expected_alia(field, dim_count):
    n = 3
    if dim_count == 9:
        idx = [r * n + c for r in range(n) for c in range(n)]
    else:
        idx = [r * n + c for r in range(n) for c in range(n)
               if (r, c) != (2, 2)]
    return _span_e(field, n * n, idx)


def _check_corollaries(samples, seed):
    recs = []
    for eid in all_ids():
        bad = None
        tried = 0
        for vals in sample_parameters(eid, samples, seed)[:samples]:
            tried += 1
            a = instantiate(eid, vals)
            if not holds(a, builtin("jacobi_commutator")):
                bad = "commutator fails its closing identity at %s" % (
                    _params_str(vals) or "-")
                break
        recs.append(CheckRecord(
            "corollary.lie-admissible", eid, "",
            "fail" if bad else "pass",
            bad or "commutator identity at %d sample(s)" % tried))
    for bid in sorted(tables.ALIA_DIMS) + ["CD3_04"]:
        problems = []
        for vals, tag, a in _base_cases(bid):
            s0, s1, s2 = _alia_spaces(a)
            if not (s0 == s1 == s2):
                problems.append(tag + "the three spaces differ")
                continue
            want_dim = tables.ALIA_DIMS.get(bid)
            if bid == "CD3_04":
                want_dim = tables.alia_dim_cd3_04(vals["lambda"] == 1)
            if s0 != _expected_alia(a.field, want_dim):
                problems.append("%sspace is not the expected %d-dim span"
                                % (tag, want_dim))
        recs.append(CheckRecord(
            "corollary.alia-cocycles", bid, "",
            "fail" if problems else "pass",
            "; ".join(problems) or "three coinciding spaces of expected span"))
    for nid in sorted(tables.N4):
        e = entry(nid)
        cond = tables.ALIA_EXCLUDED.get(nid, "absent")
        cases = [(vals, None) for vals in
                 sample_parameters(nid, samples, seed)[:samples]]
        if isinstance(cond, tuple):
            special = dict(cases[0][0])
            special[cond[0]] = eval_str(cond[1], QQ, {})
            if _admissible(e, special):
                cases.append((special, "boundary"))
        problems = []
        for vals, _tag in cases:
            a = instantiate(nid, vals)
            is_alia = all(holds(a, builtin(nm)) for nm in ALIA_NAMES)
            if cond == "absent":
                excluded = False
            elif cond is None:
                excluded = True
            else:
                env = field_env(QQ)
                excluded = vals[cond[0]] != eval_str(cond[1], QQ, env)
            if is_alia == excluded:
                problems.append("at %s: alia=%s but exclusion list says %s"
                                % (_params_str(vals) or "-", is_alia,
                                   "excluded" if excluded else "kept"))
        recs.append(CheckRecord(
            "corollary.alia-class", nid, "",
            "fail" if problems else "pass",
            "; ".join(problems) or "%d case(s) agree with the exclusion list"
            % len(cases)))
    return recs


SCOPES = ("cohomology", "reconstruction", "invariants", "relations",
          "corollaries")


def verify_catalog(scope="all", samples=3, max_search=300000,
                   seed=0) -> Report:
    """Run the requested verification scope and collect one record per check."""
    if scope != "all" and scope not in SCOPES:
        raise ValueError("unknown scope: %s" % scope)
    recs = []
    if scope in ("cohomology", "all"):
        recs += _check_cohomology()
    if scope in ("reconstruction", "all"):
        recs += _check_reconstruction(samples, seed)
    if scope in ("invariants", "all"):
        recs += _check_invariants(samples, seed)
    if scope in ("relations", "all"):
        recs += _check_relations(max_search, seed)
    if scope in ("corollaries", "all"):
        recs += _check_corollaries(samples, seed)
    return Report(scope, recs)


def entry_row(eid: str) -> dict:
    """One catalog entry as a JSON row; a base with fixed parameters is
    folded into one string such as "CD3_04(lambda=-1/2)"."""
    e = entry(eid)
    row = {
        "id": eid, "dim": e["dim"],
        "params": [{"name": nm, "excluded": list(e["excluded"].get(nm, ()))}
                   for nm in e["params"]],
        "products": [[i, j, src, k] for i, j, src, k in e["products"]],
        "provenance": e["provenance"],
    }
    if "base" in e:
        base = e["base"]
        if e["base_params"]:
            inner = ",".join("%s=%s" % kv
                             for kv in sorted(e["base_params"].items()))
            base = "%s(%s)" % (base, inner)
        row["base"] = base
        row["cocycle"] = cocycle_string(e)
    return row


def catalog_json() -> str:
    """The whole catalog as versioned JSON."""
    entries = [entry_row(eid) for eid in all_ids()]
    payload = {
        "schema": tables.SCHEMA_VERSION,
        "entries": entries,
        "stubs": sorted(tables.STUB_IDS),
        "relations": [
            {"id": rid, "images": list(exprs), "field": fname,
             "kind": "isomorphism"}
            for rid, exprs, fname in tables.RELATIONS],
        "unverifiable_relations": [
            {"lhs": lhs, "rhs": rhs, "condition": cond,
             "kind": "isomorphism", "verifiable_here": False}
            for lhs, rhs, cond in tables.STUB_RELATIONS],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
