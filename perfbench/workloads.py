"""The four benchmark workloads.

Each workload builds its inputs from the seed through nilext's public
functions (``build``, timed as set-up), runs one round of operations
(``run_round``; every call into nilext goes through ``op``, which times it),
summarises a round's verdicts (``digest``), counts the operations that
ended in a definite answer (``decided``), and checks a round's outputs with
the benchmark's own arithmetic (``check``).

nilext is reached only through module attributes looked up at call time,
so a traced round goes through the tracer's wrappers.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

SCOPES = ("cohomology", "reconstruction", "invariants", "corollaries")

# CD3_04 lambdas the cohomology scope checks, besides the sampled ones.
COHOMOLOGY_LAMBDAS = (0, -1, 1, 2, 5)

# Orbits sampled per setup in oracle-f2, two lines from each.
ORACLE_ORBITS = 12


def _flags(tables, bid):
    return [k + 1 in tables.SETUPS[bid]["cd"] for k in range(7)]


class CatalogQ:
    """verify_catalog on four scopes at one sample each, plus the symbolic
    transformation check of the four bases: the whole Q pipeline, no search."""

    name = "catalog-q"

    def build(self, nl, seed):
        cat = nl.catalog
        return {"seed": seed,
                "samples": {eid: cat.sample_parameters(eid, 1, seed)[0]
                            for eid in cat.all_ids()}}

    def run_round(self, nl, inp, op):
        out = {}
        for scope in SCOPES:
            out[scope] = op(nl.catalog.verify_catalog, scope, samples=1,
                            seed=inp["seed"])
        out["transform"] = {
            bid: op(nl.catalog.transform_check, bid)
            for bid in sorted(nl.tables.SETUPS)}
        return out

    def digest(self, out):
        recs = tuple((r.check_id, r.entry_id, r.status)
                     for scope in SCOPES if out[scope] is not None
                     for r in out[scope].records)
        return recs, tuple((b, None if v is None else v[0])
                           for b, v in sorted(out["transform"].items()))

    def decided(self, out):
        recs, transform = self.digest(out)
        return (sum(1 for *_, st in recs if st in ("pass", "noted"))
                + sum(1 for _, ok in transform if ok))

    def check(self, nl, inp, out):
        tables = nl.tables
        q = checks.Ring("Q")
        problems = []
        want = {"cohomology": 2 * len(tables.SETUPS),
                "reconstruction": len(tables.N4),
                "invariants": len(tables.BASES) + len(tables.N4),
                "corollaries": (len(tables.BASES) + len(tables.N4)
                                + len(tables.ALIA_DIMS) + 1
                                + len(tables.N4))}
        for scope in SCOPES:
            rep = out[scope]
            if rep is None:
                continue
            if len(rep.records) != want[scope]:
                problems.append("%s: %d records, %d expected"
                                % (scope, len(rep.records), want[scope]))
            for r in rep.records:
                if r.status == "fail":
                    problems.append("%s: %s %s failed: %s"
                                    % (scope, r.check_id, r.entry_id,
                                       r.detail))
        for bid, res in out["transform"].items():
            if res is not None and res[0] is not True:
                problems.append("transform_check %s: %s" % (bid, res[1]))
        for bid in sorted(tables.SETUPS):
            e = tables.BASES[bid]
            lams = [None]
            if "lambda" in e["params"]:
                lams = sorted(set(COHOMOLOGY_LAMBDAS) | {
                    inp["samples"][bid]["lambda"]})
            for lam in lams:
                env = {} if lam is None else {"lambda": Fraction(lam)}
                t = checks.table(e["products"], e["dim"], q, env)
                d = checks.form_space_dim(t, q.zero)
                if d != 7:
                    problems.append("%s at %s: form space has dim %d"
                                    % (bid, env, d))
        for nid in sorted(tables.N4):
            vals = inp["samples"][nid]
            a = nl.catalog.instantiate(nid, vals)
            problems += checks.check_n4_entry(
                tables, nid, vals, checks.table_of_algebra(a), q)
        return problems


class IsoSearch:
    """iso_search on the stored relations (one sampled parameter point each)
    and the distinctness pairs."""

    name = "iso-search"

    def build(self, nl, seed):
        cat, tables, scalars = nl.catalog, nl.tables, nl.scalars
        queries = []
        for rid, exprs, fname in tables.RELATIONS:
            field = scalars.FIELDS[fname]
            vals = cat.sample_parameters(rid, 1, seed)[0]
            env = {nm: field.from_fraction(v) for nm, v in vals.items()}
            for nm in ("omega", "i"):
                if hasattr(field, nm):
                    env[nm] = getattr(field, nm)
            params = tables.N4[rid]["params"]
            images = {nm: nl.exprs.eval_str(src, field, env)
                      for nm, src in zip(params, exprs)}
            grid = None
            if hasattr(field, "omega"):
                # The cube roots of unity and zero: the default 13-point grid
                # costs about 30 s per N4_05 query.
                w = field.omega
                grid = [field.one, w, w * w, field.zero]
            queries.append({
                "kind": "relation", "id": rid, "field": fname,
                "lhs_vals": vals, "rhs_vals": images,
                "lhs": cat.instantiate(rid, vals, field),
                "rhs": cat.instantiate(rid, images, field),
                "grid": grid, "primes": (2, 3, 5, 7)})
        for id1, id2 in tables.DISTINCT_PAIRS:
            v1 = cat.sample_parameters(id1, 1, seed)[0]
            v2 = cat.sample_parameters(id2, 1, seed)[0]
            queries.append({
                "kind": "distinct", "id": id1 + "|" + id2, "field": "Q",
                "lhs": cat.instantiate(id1, v1),
                "rhs": cat.instantiate(id2, v2),
                # Units of Z and zero, then exhaustive evidence over F2 and
                # F3; the default grid, F5 and F7 add about 2 s per
                # undecided pair.
                "grid": [Fraction(1), Fraction(-1), Fraction(0)],
                "primes": (2, 3)})
        return {"seed": seed, "queries": queries}

    def run_round(self, nl, inp, op):
        return [op(nl.orbits.iso_search, q["lhs"], q["rhs"], grid=q["grid"],
                   primes=q["primes"])
                for q in inp["queries"]]

    def digest(self, out):
        return tuple(None if v is None else
                     (v.kind, v.component,
                      None if v.witness is None else repr(v.witness.rows))
                     for v in out)

    def decided(self, out):
        return sum(1 for v in out
                   if v is not None and v.kind in ("witness", "distinct"))

    def check(self, nl, inp, out):
        tables = nl.tables
        problems = []
        for q, v in zip(inp["queries"], out):
            if v is None:
                continue
            if q["kind"] == "distinct":
                if v.kind == "witness":
                    problems.append("%s: distinct pair witnessed" % q["id"])
                continue
            if v.kind != "witness":
                problems.append("%s: stored relation not witnessed (%s)"
                                % (q["id"], v.kind))
                continue
            ring = checks.Ring(q["field"])
            e = tables.N4[q["id"]]
            ta = checks.table(e["products"], e["dim"], ring,
                              checks.entry_env(e, q["lhs_vals"], ring))
            tb = checks.table(e["products"], e["dim"], ring,
                              checks.entry_env(e, q["rhs_vals"], ring))
            problems += ["%s: %s" % (q["id"], p) for p in
                         checks.check_witness(v.witness.rows, ta, tb, ring)]
        return problems


F2_SETUPS = (("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {}),
             ("CD3_04", {"lambda": 0}), ("CD3_04", {"lambda": 1}))
# census-f3 runs CD3_01 (|Aut| = 6), CD3_02 (|Aut| = 3) and CD3_04 at
# lambda = 2 (|Aut| = 18, and 36 R1 lines where lambda = 0, 1 have 9); all
# six F3 setups take about 14 s a round.
F3_SETUPS = (("CD3_01", {}), ("CD3_02", {}), ("CD3_04", {"lambda": 2}))


def _setup(nl, bid, vals, field):
    a = nl.catalog.instantiate(bid, vals, field)
    forms = nl.catalog.named_forms(bid, field, vals)
    coh = nl.extensions.cohomology(a, forms, _flags(nl.tables, bid))
    return a, coh


def _own_reps(coh):
    return [[[checks.to_own(x) for x in row] for row in r.gram.rows]
            for r in coh.reps]


class OracleF2:
    """The census oracle over F2: census of five setups, then the extensions
    of sampled U1 lines grouped into isomorphism classes by pairwise
    iso_search_fp."""

    name = "oracle-f2"

    def build(self, nl, seed):
        f2 = nl.scalars.FIELDS["F2"]
        return {"seed": seed,
                "setups": [(bid, vals) + _setup(nl, bid, vals, f2)
                           for bid, vals in F2_SETUPS]}

    def run_round(self, nl, inp, op):
        out = []
        for k, (bid, vals, a, coh) in enumerate(inp["setups"]):
            census = op(nl.orbits.orbit_census_fp, a, coh)
            if census is None:
                out.append(None)
                continue
            # ORACLE_ORBITS orbits spread evenly over the census order; the
            # seed orders them and picks two lines of each, the same way in
            # every round. A fixed orbit set keeps the work per round nearly
            # the same for every seed.
            rng = random.Random(inp["seed"] * 101 + k)
            u1 = [o for o in census.orbits_of(nl.extensions.LineClass.U1)
                  if o.size >= 2]
            picked = rng.sample([u1[i * len(u1) // ORACLE_ORBITS]
                                 for i in range(ORACLE_ORBITS)], ORACLE_ORBITS)
            pairs = [rng.sample(sorted(o.members,
                                       key=lambda t: [c.v for c in t]), 2)
                     for o in picked]
            # All first lines, then all second lines, each in orbit order:
            # the j-th second line meets j classes before its own, so a
            # round makes exactly ORACLE_ORBITS**2 searches per setup.
            lines = [p[0] for p in pairs] + [p[1] for p in pairs]
            orbit_of = list(range(ORACLE_ORBITS)) * 2
            exts = [op(nl.orbits.extension_of_line, a, coh, list(t))
                    for t in lines]
            classes = []   # [index of first line, ...members]
            class_of = []
            witnesses = []  # (class rep line index, line index, matrix)
            for i, ext in enumerate(exts):
                for c, members in enumerate(classes):
                    w = op(nl.orbits.iso_search_fp, exts[members[0]], ext)
                    if w is not None:
                        members.append(i)
                        class_of.append(c)
                        witnesses.append((members[0], i, w))
                        break
                else:
                    class_of.append(len(classes))
                    classes.append([i])
            out.append({"census": census, "lines": lines,
                        "orbit_of": orbit_of, "class_of": class_of,
                        "witnesses": witnesses})
        return out

    def digest(self, out):
        return tuple(None if s is None else
                     (_census_digest(s["census"]),
                      tuple(tuple(c.v for c in t) for t in s["lines"]),
                      tuple(s["class_of"]))
                     for s in out)

    def decided(self, out):
        return sum(len(s["class_of"]) for s in out if s is not None)

    def check(self, nl, inp, out):
        f2 = checks.Ring("F2")
        problems = []
        for (bid, vals, a, coh), s in zip(inp["setups"], out):
            if s is None:
                continue
            tag = "%s%s" % (bid, vals or "")
            t = checks.table_of_algebra(a)
            reps = _own_reps(coh)
            census = s["census"]
            problems += [tag + ": " + p for p in
                         checks.check_census(census, t, reps, f2, 2)]
            u1 = census.orbits_of(nl.extensions.LineClass.U1)
            if sum(o.size for o in u1) != census.class_counts.get("U1"):
                problems.append("%s: U1 orbit sizes do not sum to the U1 "
                                "line count" % tag)
            # Two lines share a class exactly when they share an orbit.
            n_classes = len(set(s["class_of"]))
            if n_classes != len(set(s["orbit_of"])):
                problems.append("%s: %d classes for %d orbits"
                                % (tag, n_classes, len(set(s["orbit_of"]))))
            for i, j in ((i, j) for i in range(len(s["lines"]))
                         for j in range(i)):
                if ((s["class_of"][i] == s["class_of"][j])
                        != (s["orbit_of"][i] == s["orbit_of"][j])):
                    problems.append("%s: lines %d and %d: class and orbit "
                                    "partitions differ" % (tag, j, i))
            exts = [checks.extension_table(
                t, checks.form_of(ln, reps, f2.zero), f2.zero)
                for ln in s["lines"]]
            for i, j, w in s["witnesses"]:
                problems += ["%s: %s" % (tag, p) for p in checks.check_witness(
                    w.rows, exts[i], exts[j], f2)]
        return problems


def _census_digest(census):
    return (census.aut_count, tuple(
        (o.line_class.value, tuple(tuple(c.v for c in m) for m in o.members))
        for o in census.orbits))


def _random_basis_change(rng, p):
    while True:
        g = [[checks.Mod(rng.randrange(p), p) for _ in range(3)]
             for _ in range(3)]
        if checks.rank(g, checks.Mod(0, p)) == 3:
            return g


class CensusF3:
    """orbit_census_fp over F3 on six setups, each in a basis of F3^3 drawn
    from the seed."""

    name = "census-f3"

    def build(self, nl, seed):
        f3 = nl.scalars.FIELDS["F3"]
        ring = checks.Ring("F3")
        rng = random.Random(seed)
        setups = []
        for bid, vals in F3_SETUPS:
            a0 = nl.catalog.instantiate(bid, vals, f3)
            forms0 = nl.catalog.named_forms(bid, f3, vals)
            g = _random_basis_change(rng, 3)
            t = checks.transport(checks.table_of_algebra(a0), g, ring.zero)
            a = nl.algebra.Algebra(f3, [[[f3.from_int(c.v) for c in vec]
                                         for vec in row] for row in t],
                                       label="%s%s@seed%d" % (bid, vals or "",
                                                              seed))
            forms = [nl.extensions.BilinearForm(f3, [
                [f3.from_int(x.v) for x in row]
                for row in checks.pullback(g, [[checks.to_own(x) for x in r]
                                               for r in th.gram.rows],
                                           ring.zero)]) for th in forms0]
            coh = nl.extensions.cohomology(a, forms, _flags(nl.tables, bid))
            setups.append((bid, vals, a, coh))
        return {"seed": seed, "setups": setups}

    def run_round(self, nl, inp, op):
        return [op(nl.orbits.orbit_census_fp, a, coh)
                for _, _, a, coh in inp["setups"]]

    def digest(self, out):
        return tuple(None if c is None else _census_digest(c) for c in out)

    def decided(self, out):
        return sum(len(o.members) for c in out if c is not None
                   for o in c.orbits)

    def check(self, nl, inp, out):
        f3 = checks.Ring("F3")
        problems = []
        for (bid, vals, a, coh), census in zip(inp["setups"], out):
            if census is None:
                continue
            tag = "%s%s" % (bid, vals or "")
            problems += [tag + ": " + p for p in checks.check_census(
                census, checks.table_of_algebra(a), _own_reps(coh), f3, 3)]
            if sum(census.class_counts.values()) != census.lines_total:
                problems.append("%s: line classes do not add up" % tag)
        return problems


WORKLOADS = {w.name: w for w in (CatalogQ(), IsoSearch(), OracleF2(),
                                 CensusF3())}
