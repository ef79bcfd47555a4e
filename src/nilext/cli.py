"""Command-line front end for the catalog and extension pipelines."""

import argparse
import json
import sys

from . import catalog, tables
from .algebra import fingerprint
from .exprs import GREEK, eval_str, field_env
from .extensions import (cohomology, is_split, parse_form, render_form,
                         central_extension, classify_line)
from .orbits import ResourceBound, iso_search, orbit_census_fp
from .scalars import FIELDS, PrimeField


class UsageError(Exception):
    pass


def parse_params(text, field):
    """Turn '--params "λ=2,α=-1/2"' into a value map over the field."""
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, val = chunk.partition("=")
        if not eq or not val.strip():
            raise UsageError("bad parameter assignment %r" % chunk)
        name = name.strip()
        name = GREEK.get(name, name)
        try:
            out[name] = eval_str(val.strip(), field, field_env(field))
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            raise UsageError("bad parameter value %r: %s" % (chunk, exc))
    return out


def _check_id(entry_id):
    if entry_id in tables.STUB_IDS:
        return "stub"
    if entry_id in tables.N4 or entry_id in tables.BASES:
        return "entry"
    raise UsageError("unknown catalog id: %s" % entry_id)


def render_table(a):
    lines = []
    f = a.field
    for i in range(a.dim):
        for j in range(a.dim):
            vec = a.table[i][j]
            terms = []
            for k, c in enumerate(vec):
                if c == f.zero:
                    continue
                if c == f.one:
                    terms.append("e%d" % (k + 1))
                else:
                    cs = f.render(c)
                    if any(ch in cs for ch in "+-") and not \
                            cs.lstrip("-").replace("/", "").isdigit():
                        cs = "(" + cs + ")"
                    terms.append("%s*e%d" % (cs, k + 1))
            if terms:
                lines.append("e%d e%d = %s" % (i + 1, j + 1, " + ".join(terms)))
    return lines


def _json_out(payload):
    payload = dict(payload)
    payload["schema"] = tables.SCHEMA_VERSION
    print(json.dumps(payload, sort_keys=True, indent=2))


def _instance_facts(a):
    fp = fingerprint(a)
    return {
        "label": a.label,
        "nilpotent": fp.nilpotent,
        "power_chain": list(fp.chain),
        "annihilator_dim": fp.ann_dim,
        "derivation_dim": fp.der_dim,
        "cd": all(a.satisfies(nm) for nm in ("cd1", "cd2", "cd3")),
        "identities": {nm: ok for nm, ok in fp.ids},
    }


def cmd_info(args):
    field = FIELDS[args.field]
    if _check_id(args.id) == "stub":
        if args.format == "structured":
            _json_out({"id": args.id, "stub": True,
                       "detail": "external classification entry; "
                                 "stored for cross references only"})
        else:
            print("%s: stub entry from an external classification; "
                  "no table stored" % args.id)
        return 0
    e = catalog.entry(args.id)
    row = catalog.entry_row(args.id)
    vals = parse_params(args.params, field)
    computed = None
    if e["params"] and not vals:
        note = "supply --params to evaluate (needs %s)" % \
            ", ".join(e["params"])
    else:
        a = catalog.instantiate(args.id, vals, field)
        computed = _instance_facts(a)
        computed["table"] = render_table(a)
        note = None
    if args.format == "structured":
        payload = {"entry": row}
        if computed:
            payload["computed"] = computed
        _json_out(payload)
        return 0
    print("%s  dim %d  [%s]" % (args.id, e["dim"], e["provenance"]))
    for p in row["params"]:
        excl = " avoiding " + ", ".join(p["excluded"]) if p["excluded"] else ""
        print("  param %s%s" % (p["name"], excl))
    if "base" in row:
        print("  built from %s with combination %s" % (row["base"],
                                                       row["cocycle"]))
    for i, j, src, k in e["products"]:
        print("  e%d e%d += (%s) e%d" % (i, j, src, k))
    if note:
        print("  " + note)
    if computed:
        print("evaluated over %s as %s" % (field.name, computed["label"]))
        for ln in computed["table"]:
            print("  " + ln)
        print("  nilpotent: %s  power chain: %s" % (
            computed["nilpotent"], computed["power_chain"]))
        print("  annihilator dim: %d  derivation dim: %d" % (
            computed["annihilator_dim"], computed["derivation_dim"]))
        print("  derivation-type (cd): %s" % computed["cd"])
        bad = [nm for nm, ok in computed["identities"].items() if not ok]
        print("  identities failing: %s" % (", ".join(bad) or "none"))
    return 0


def _base_setup(entry_id, vals, field):
    """Algebra, named forms and flags for an extensible base id."""
    a = catalog.instantiate(entry_id, vals, field)
    named = flags = None
    if entry_id in tables.SETUPS:
        named = catalog.named_forms(entry_id, field, vals)
        flags = catalog.cd_flags(entry_id)
    return a, named, flags


def cmd_cohomology(args):
    field = FIELDS[args.field]
    _check_id(args.id)
    vals = parse_params(args.params, field)
    a, named, flags = _base_setup(args.id, vals, field)
    coh = cohomology(a, named, flags)
    if args.format == "structured":
        _json_out({
            "id": args.id, "field": field.name,
            "coboundary_dim": coh.b2.dim, "h2_dim": coh.h2_dim,
            "canonical_dictionary": coh.canonical,
            "notes": list(coh.notes),
            "representatives": [
                {"form": render_form(th), "cd": bool(fl)}
                for th, fl in zip(coh.reps, coh.cd_flags)],
        })
        return 0
    print("%s over %s: coboundaries dim %d, quotient dim %d" % (
        a.label, field.name, coh.b2.dim, coh.h2_dim))
    print("dictionary %s" % ("kept as given" if coh.canonical
                             else "recomputed: " + "; ".join(coh.notes)))
    for k, (th, fl) in enumerate(zip(coh.reps, coh.cd_flags)):
        print("  N(%d) = %-26s %s" % (
            k + 1, render_form(th), "derivation-type" if fl else "generic"))
    return 0


def _parse_cocycle(args, a, named, vals, field):
    env = dict(vals)
    try:
        return parse_form(args.cocycle, a.dim, field, named=named, env=env)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise UsageError("bad cocycle literal: %s" % exc)


def cmd_extend(args):
    field = FIELDS[args.field]
    _check_id(args.id)
    vals = parse_params(args.params, field)
    a, named, flags = _base_setup(args.id, vals, field)
    theta = _parse_cocycle(args, a, named, vals, field)
    if theta.is_zero():
        raise UsageError("zero form does not define an extension line")
    ext = central_extension(a, [theta], label=a.label + "+[" +
                            render_form(theta) + "]")
    try:
        split = is_split(a, [theta])
    except ValueError:
        split = None
    facts = _instance_facts(ext)
    if args.format == "structured":
        payload = {"base": a.label, "form": render_form(theta),
                   "split": split, "computed": facts,
                   "table": render_table(ext)}
        _json_out(payload)
        return 0
    print("extension of %s by %s" % (a.label, render_form(theta)))
    for ln in render_table(ext):
        print("  " + ln)
    print("  nilpotent: %s  annihilator dim: %d" % (
        facts["nilpotent"], facts["annihilator_dim"]))
    print("  derivation-type (cd): %s" % facts["cd"])
    print("  split: %s" % ("undetermined (form radical meets the "
                           "annihilator)" if split is None else split))
    return 0


def cmd_classify_line(args):
    field = FIELDS[args.field]
    _check_id(args.id)
    vals = parse_params(args.params, field)
    a, named, flags = _base_setup(args.id, vals, field)
    theta = _parse_cocycle(args, a, named, vals, field)
    try:
        cls = classify_line(a, theta)
    except ValueError as exc:
        if args.format == "structured":
            _json_out({"id": args.id, "form": render_form(theta),
                       "line_class": "coboundary", "detail": str(exc)})
        else:
            print("coboundary: %s" % exc)
        return 0
    if args.format == "structured":
        _json_out({"id": args.id, "form": render_form(theta),
                   "line_class": cls.value})
    else:
        print("line class: %s" % cls.value)
    return 0


def cmd_iso(args):
    field = FIELDS[args.field]
    for eid in (args.id1, args.id2):
        if _check_id(eid) == "stub":
            raise UsageError("stub entry has no table: " + eid)
    a = catalog.instantiate(args.id1, parse_params(args.params, field), field)
    b = catalog.instantiate(args.id2, parse_params(args.params2, field), field)
    verdict = iso_search(a, b, max_search=args.max_search)
    payload = {"left": a.label, "right": b.label, "verdict": verdict.kind}
    if verdict.kind == "witness":
        payload["witness"] = [[a.field.render(c) for c in row]
                              for row in verdict.witness.rows]
    elif verdict.kind == "distinct":
        payload["separated_by"] = verdict.component
    else:
        payload["evidence"] = {k: str(v)
                               for k, v in sorted(verdict.evidence.items())}
    if args.format == "structured":
        _json_out(payload)
    else:
        print("%s vs %s: %s" % (a.label, b.label, verdict.kind))
        if verdict.kind == "witness":
            for row in payload["witness"]:
                print("  [%s]" % ", ".join(row))
        elif verdict.kind == "distinct":
            print("  separated by " + verdict.component)
        else:
            for k, v in sorted(verdict.evidence.items()):
                print("  %s: %s" % (k, v))
    return 3 if verdict.kind == "undecided" else 0


def cmd_orbits(args):
    field = FIELDS[args.field]
    if not isinstance(field, PrimeField) or field.p not in (2, 3):
        raise UsageError("orbit census runs over F2 or F3")
    _check_id(args.id)
    vals = parse_params(args.params, field)
    a, named, flags = _base_setup(args.id, vals, field)
    coh = cohomology(a, named, flags)
    census = orbit_census_fp(a, coh, max_search=args.max_search)
    if args.format == "structured":
        _json_out({
            "base": census.base_label, "field": census.field_name,
            "h2_dim": census.h2_dim, "automorphisms": census.aut_count,
            "lines": census.lines_total,
            "class_counts": dict(sorted(census.class_counts.items())),
            "orbits": [
                {"class": o.line_class.value,
                 "rep": [a.field.render(c) for c in o.rep], "size": o.size}
                for o in census.orbits],
        })
        return 0
    print("%s over %s: %d classes mod coboundaries, %d automorphisms, "
          "%d lines" % (census.base_label, census.field_name, census.h2_dim,
                        census.aut_count, census.lines_total))
    for nm, ct in sorted(census.class_counts.items()):
        print("  %-9s %d lines" % (nm, ct))
    for o in census.orbits:
        print("  orbit size %-3d class %-9s rep (%s)" % (
            o.size, o.line_class.value,
            ", ".join(a.field.render(c) for c in o.rep)))
    return 0


def cmd_verify_catalog(args):
    report = catalog.verify_catalog(scope=args.scope, samples=args.samples,
                                    max_search=args.max_search,
                                    seed=args.seed)
    out = report.to_json() if args.format == "structured" \
        else report.to_text()
    sys.stdout.write(out)
    return 0 if report.ok else 1


MAX_SEARCH_HELP = ("bound on the candidates of a search, the values per "
                   "coordinate to the power dim x generators; the pruned "
                   "search visits fewer nodes")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nilext",
        description="Exact verification for a catalog of small nilpotent "
                    "algebras built as central extensions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, params2=False, cocycle=False):
        p.add_argument("--field", choices=sorted(FIELDS), default="Q")
        p.add_argument("--params", default="",
                       help='parameter values, e.g. "lambda=2,alpha=-1/2"')
        if params2:
            p.add_argument("--params2", default="",
                           help="parameter values for the second entry")
        if cocycle:
            p.add_argument("--cocycle", required=True,
                           help='form literal, e.g. "D(1,3)" or "2*N(1)+N(4)"')
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        p.add_argument("--max-search", type=int, default=300000,
                       help=MAX_SEARCH_HELP)

    p = sub.add_parser("info", help="show a catalog entry")
    p.add_argument("id")
    common(p)
    p.set_defaults(run=cmd_info)

    p = sub.add_parser("cohomology",
                       help="forms modulo coboundaries for a base")
    p.add_argument("id")
    common(p)
    p.set_defaults(run=cmd_cohomology)

    p = sub.add_parser("extend", help="central extension by a form")
    p.add_argument("id")
    common(p, cocycle=True)
    p.set_defaults(run=cmd_extend)

    p = sub.add_parser("classify-line", help="place a form's line")
    p.add_argument("id")
    common(p, cocycle=True)
    p.set_defaults(run=cmd_classify_line)

    p = sub.add_parser("iso", help="search for an isomorphism")
    p.add_argument("id1")
    p.add_argument("id2")
    common(p, params2=True)
    p.set_defaults(run=cmd_iso)

    p = sub.add_parser("orbits",
                       help="automorphism orbits on form lines (F2/F3)")
    p.add_argument("id")
    common(p)
    p.set_defaults(run=cmd_orbits)

    p = sub.add_parser("verify-catalog", help="run the verification scopes")
    p.add_argument("--scope", choices=("all",) + catalog.SCOPES,
                   default="all")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "structured"),
                   default="text")
    p.add_argument("--max-search", type=int, default=300000,
                   help=MAX_SEARCH_HELP)
    p.set_defaults(run=cmd_verify_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceBound as exc:
        print("resource bound: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
