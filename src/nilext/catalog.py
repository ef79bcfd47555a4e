"""Catalog instantiation, parameter sampling, and the verification pipeline.

A verification scope is registered by adding its check function, called as
check(samples, max_search, seed) and returning CheckRecords, to
_SCOPE_CHECKS; SCOPES and the CLI's --scope choices follow that table."""

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import tables
from .algebra import Algebra
from .exprs import eval_str, field_env, poly_str
from .extensions import BilinearForm, central_extension, cohomology
from .identities import ALIA_NAMES, CD_NAMES, builtin, holds, \
    induced_cocycle_constraints
from .linalg import Matrix, Subspace, zero_vec
from .orbits import iso_search, verify_transform_table
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
        return field.from_fraction(value)
    return value


def _excluded_by(e, name, value, field, env):
    """The first excluded expression of parameter name that value equals
    when evaluated in env, or None."""
    for src in e["excluded"].get(name, ()):
        if value == eval_str(src, field, env):
            return src
    return None


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
    for name in e["excluded"]:
        src = _excluded_by(e, name, conv[name], field, env)
        if src is not None:
            raise ValueError("constraint violation: %s != %s" % (name, src))
    return conv, env


def _label(entry_id, e, conv, field):
    if not e["params"]:
        return entry_id
    parts = ["%s=%s" % (nm, field.render(conv[nm])) for nm in e["params"]]
    return "%s(%s)" % (entry_id, ",".join(parts))


@contextmanager
def _valued(entry_id, field):
    """Raise ValueError for a coefficient or an excluded value with p in a
    denominator, where the evaluation raises ZeroDivisionError."""
    try:
        yield
    except ZeroDivisionError as exc:
        raise ValueError("%s has no value over %s: %s"
                         % (entry_id, field.name, exc)) from None


def instantiate(entry_id: str, values=None, field=QQ) -> Algebra:
    """Evaluate a catalog entry's table at given parameter values."""
    e = entry(entry_id)
    n = e["dim"]
    table = [[zero_vec(field, n) for _ in range(n)] for _ in range(n)]
    with _valued(entry_id, field):
        conv, env = _converted(e, values, field)
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
    with _valued(entry_id, field):
        conv, env = _converted(e, values, field)
        base_vals = {}
        for name in tables.BASES[e["base"]]["params"]:
            if name in e["base_params"]:
                base_vals[name] = eval_str(e["base_params"][name], field, env)
            elif name in conv:
                base_vals[name] = conv[name]
            else:
                raise ValueError("missing base parameter: " + name)
        base = instantiate(e["base"], base_vals, field)
        forms = named_forms(e["base"], field, base_vals)
        theta = BilinearForm.zero(field, base.dim)
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
    phi = Matrix(POLY_RING, [[poly_str(s) for s in row]
                             for row in setup["aut"]["rows"]])
    formulas = [poly_str(s) for s in setup["transform"]]
    grids = [_grid(spec, n, POLY_RING.zero, poly_str)
             for spec in setup["forms"]]
    b2_rows = [[c for row in _grid(spec, n, POLY_RING.zero, poly_str)
                for c in row] for spec in setup["b2"]]
    return verify_transform_table(phi, formulas, grids, b2_rows)


def cocycle_string(e) -> str:
    parts = []
    for src, idx in e["cocycle"]:
        parts.append("N(%d)" % idx if src == "1" else "(%s)*N(%d)" % (src, idx))
    return "+".join(parts)


_POOL = tuple(range(1, 40))
_LAMBDA_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _relation_images(params, exprs, field, vals):
    env = field_env(field)
    for nm, v in vals.items():
        env[nm] = _to_field(field, v, field_env(field))
    return {nm: eval_str(src, field, env) for nm, src in zip(params, exprs)}


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
        env = field_env(QQ)
        pos = 0
        for name in params:
            seq = _LAMBDA_POOL if name == "lambda" else _POOL
            k = seed + s + (0 if name == "lambda" else pos)
            for _ in range(60):
                env[name] = seq[k % len(seq)]
                if _excluded_by(e, name, env[name], QQ, env) is None:
                    break
                k += 1
            else:
                raise ValueError("no admissible sample found in budget")
            vals[name] = env[name]
            if name != "lambda":
                pos += 1
        if not _admissible(e, vals):
            raise RuntimeError("sampled parameters %s are not admissible"
                               % _params_str(vals))
        out.append(vals)
    for rid, exprs, fname in tables.RELATIONS:
        if rid != entry_id or fname != "Q":
            continue
        partner = _relation_images(params, exprs, QQ, out[0])
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
    """A sample point as "name=value,...", or "-" when it has no values."""
    return ",".join("%s=%s" % (nm, vals[nm]) for nm in sorted(vals)) or "-"


def _record(check_id, entry_id, problems, ok_detail):
    """A fail record listing the problems, or a pass record with ok_detail
    when there are none."""
    return CheckRecord(check_id, entry_id, "", "fail" if problems else "pass",
                       "; ".join(problems) or ok_detail)


def _sampled(entry_id, count, seed, field):
    """(values, algebra over field) for an id's first count samples."""
    return [(vals, instantiate(entry_id, vals, field))
            for vals in sample_parameters(entry_id, count, seed)[:count]]


_COHOMOLOGY_LAMBDAS = (0, -1, 1, 2, 5)
_SPECIAL_LAMBDAS = (0, -1, 1)


def _base_cases(bid):
    """(values, tag, algebra) over Q for each swept lambda of a base, or the
    one case with no values and an empty tag when it has no lambda."""
    if "lambda" not in tables.BASES[bid]["params"]:
        return [({}, "", instantiate(bid))]
    return [({"lambda": lam}, "lambda=%s: " % lam,
             instantiate(bid, {"lambda": lam}))
            for lam in _COHOMOLOGY_LAMBDAS]


def _check_cohomology(samples, max_search, seed):
    recs = []
    for bid in sorted(tables.SETUPS):
        dim_ok = True
        dim_bits = []
        span_fail = []
        span_noted = []
        for vals, tag, a in _base_cases(bid):
            coh = cohomology(a, named_forms(bid, QQ, vals), cd_flags(bid))
            dim_bits.append("%sdim=%d" % (tag, coh.h2_dim))
            dim_ok = dim_ok and coh.h2_dim == 7
            if not coh.canonical:
                msg = "%s%s" % (tag, "; ".join(coh.notes) or "span mismatch")
                if vals.get("lambda") in _SPECIAL_LAMBDAS:
                    span_noted.append(msg)
                else:
                    span_fail.append(msg)
        recs.append(CheckRecord("cohomology.dim", bid, "",
                                "pass" if dim_ok else "fail",
                                " ".join(dim_bits)))
        if span_noted and not span_fail:
            recs.append(CheckRecord("cohomology.cd-span", bid, "", "noted",
                                    "special values: " + "; ".join(span_noted)))
        else:
            recs.append(_record("cohomology.cd-span", bid, span_fail,
                                "named span matches computed constraint space"))
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


def _check_reconstruction(samples, max_search, seed):
    recs = []
    for nid in sorted(tables.N4):
        cases = _sampled(nid, samples, seed, QQ)
        problems = []
        for vals, want in cases:
            miss = _table_mismatch(want, reconstruct(nid, vals))
            if miss:
                problems.append("%s at %s" % (miss, _params_str(vals)))
                break
        recs.append(_record("reconstruction.table", nid, problems,
                            "rebuilt table matches at %d sample(s)"
                            % len(cases)))
    return recs


def _span_e(field, dim, indices):
    unit = Matrix.identity(field, dim).rows
    return Subspace(field, dim, [unit[k] for k in indices])


def _check_invariants(samples, max_search, seed):
    recs = []
    for eid in all_ids():
        e = entry(eid)
        cases = _sampled(eid, samples, seed, QQ)
        problems = []
        for vals, a in cases:
            where = _params_str(vals)
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
        recs.append(_record(
            "invariants.status", eid, problems,
            "nilpotent, annihilator and identity checks at %d sample(s)"
            % len(cases)))
    return recs


def _check_relations(samples, max_search, seed):
    recs = []
    for rid, exprs, fname in tables.RELATIONS:
        field = FIELDS[fname]
        params = entry(rid)["params"]
        good = 0
        detail = []
        for vals, lhs in _sampled(rid, 2, seed, field):
            rhs = instantiate(
                rid, _relation_images(params, exprs, field, vals), field)
            verdict = iso_search(lhs, rhs, max_search=max_search)
            if verdict.isomorphic:
                good += 1
                detail.append("witness at %s" % _params_str(vals))
            else:
                detail.append("NO witness at %s (%s)" % (
                    _params_str(vals), verdict.kind))
        recs.append(CheckRecord(
            "relations.witness", rid,
            ",".join(exprs), "pass" if good == 2 else "fail",
            "; ".join(detail)))
    for id1, id2 in tables.DISTINCT_PAIRS:
        a = instantiate(id1, sample_parameters(id1, 1, seed)[0])
        b = instantiate(id2, sample_parameters(id2, 1, seed)[0])
        verdict = iso_search(a, b, max_search=max_search)
        if verdict.isomorphic:
            st, detail = "fail", "unexpected isomorphism witness"
        elif verdict.isomorphic is False:
            st, detail = "pass", "fingerprint: " + verdict.component
        else:
            st, detail = "undecided", "; ".join(
                "%s: %s" % kv for kv in sorted(verdict.evidence.items()))
        recs.append(CheckRecord("relations.distinct", "%s|%s" % (id1, id2),
                                "", st, detail))
    recs.append(CheckRecord(
        "relations.stubs", "-", "", "noted",
        "%d stored symmetry statements reference external ids and are not "
        "verifiable here" % len(tables.STUB_RELATIONS)))
    return recs


def _alia_spaces(a: Algebra):
    return [induced_cocycle_constraints(a, builtin(nm)) for nm in ALIA_NAMES]


def _expected_alia(field, dim_count):
    """All nine coordinates of a form on a 3-dim base, or all but (3, 3)."""
    return _span_e(field, 9, [k for k in range(9) if dim_count == 9 or k != 8])


def _check_corollaries(samples, max_search, seed):
    recs = []
    sampled = {eid: _sampled(eid, samples, seed, QQ) for eid in all_ids()}
    for eid in all_ids():
        problems = []
        for vals, a in sampled[eid]:
            if not holds(a, builtin("jacobi_commutator")):
                problems.append("commutator fails its closing identity at "
                                + _params_str(vals))
                break
        recs.append(_record("corollary.lie-admissible", eid, problems,
                            "commutator identity at %d sample(s)"
                            % len(sampled[eid])))
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
        recs.append(_record("corollary.alia-cocycles", bid, problems,
                            "three coinciding spaces of expected span"))
    for nid in sorted(tables.N4):
        e = entry(nid)
        cond = tables.ALIA_EXCLUDED.get(nid, "absent")
        cases = list(sampled[nid])
        if isinstance(cond, tuple):
            at = eval_str(cond[1], QQ, {})
            special = dict(cases[0][0])
            special[cond[0]] = at
            if _admissible(e, special):
                cases.append((special, instantiate(nid, special)))
        problems = []
        for vals, a in cases:
            is_alia = all(holds(a, builtin(nm)) for nm in ALIA_NAMES)
            if cond == "absent":
                excluded = False
            elif cond is None:
                excluded = True
            else:
                excluded = vals[cond[0]] != at
            if is_alia == excluded:
                problems.append("at %s: alia=%s but exclusion list says %s"
                                % (_params_str(vals), is_alia,
                                   "excluded" if excluded else "kept"))
        recs.append(_record("corollary.alia-class", nid, problems,
                            "%d case(s) agree with the exclusion list"
                            % len(cases)))
    return recs


_SCOPE_CHECKS = {
    "cohomology": _check_cohomology,
    "reconstruction": _check_reconstruction,
    "invariants": _check_invariants,
    "relations": _check_relations,
    "corollaries": _check_corollaries,
}
SCOPES = tuple(_SCOPE_CHECKS)


def verify_catalog(scope="all", samples=3, max_search=300000,
                   seed=0) -> Report:
    """Run the requested verification scope and collect one record per check."""
    if scope != "all" and scope not in _SCOPE_CHECKS:
        raise ValueError("unknown scope: %s" % scope)
    recs = []
    for name in SCOPES if scope == "all" else (scope,):
        recs += _SCOPE_CHECKS[name](samples, max_search, seed)
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
