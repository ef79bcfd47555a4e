"""One fresh interpreter's share of a benchmark run; started by run.py.

    worker.py setup --workload W --seed S
        import nilext, build the workload's inputs, print {"setup_s": ...}.
    worker.py run --workload W --seed S --seconds N --trace 0|1
        trace 0: repeat whole rounds of the workload for about N seconds,
        check the first round's outputs and require every later round to
        give the same verdicts; before each later round, time set-up in
        fresh interpreters; print the end-to-end metrics.
        trace 1: one untraced round (checked), then one traced round that
        must give the same verdicts; print the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

# Fresh set-up interpreters timed after the first round and before each
# later one.
SETUP_PER_ROUND = 2

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_nilext():
    """Import nilext from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import nilext
    from nilext import (algebra, catalog, exprs, extensions, orbits, scalars,
                        tables)
    if os.path.dirname(os.path.dirname(os.path.abspath(nilext.__file__))) \
            != SRC:
        raise ImportError("nilext imported from %s, not %s"
                          % (nilext.__file__, SRC))
    return types.SimpleNamespace(
        algebra=algebra, catalog=catalog, exprs=exprs, extensions=extensions,
        orbits=orbits, scalars=scalars, tables=tables)


class Ops:
    """Times each call into nilext and counts attempts and failures."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            out = None
        self.times.append(time.perf_counter() - t0)
        return out


def setup_samples(args, count=SETUP_PER_ROUND):
    """setup_s of `count` fresh interpreters, run one after another.

    They are spread over the run, between rounds, so that set-up time is
    sampled across the same stretch of time as the rounds are."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, check=True, timeout=60)
        out.append(json.loads(proc.stdout)["setup_s"])
    return out


def cmd_setup(args):
    wl = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    nl = load_nilext()
    wl.build(nl, args.seed)
    return {"setup_s": time.perf_counter() - t0}


def cmd_run(args):
    wl = workloads.WORKLOADS[args.workload]
    nl = load_nilext()
    # Every round builds fresh inputs (untimed), so per-algebra caches
    # filled by one round do not speed up the next.
    start = time.perf_counter()
    inp = wl.build(nl, args.seed)
    first = Ops()
    out = wl.run_round(nl, inp, first)
    untraced_s = time.perf_counter() - start
    t0 = time.perf_counter()
    problems = wl.check(nl, inp, out)
    check_s = time.perf_counter() - t0
    digest = wl.digest(out)
    decided = wl.decided(out)
    rounds = [first]
    if args.trace:
        tracer = tracing.Tracer()
        traced = Ops()
        t0 = time.perf_counter()
        try:
            tracer.install()
            traced_out = wl.run_round(nl, wl.build(nl, args.seed), traced)
        finally:
            tracer.restore()
        traced_s = time.perf_counter() - t0
        if wl.digest(traced_out) != digest:
            problems.append("traced round gave other verdicts")
        rounds.append(traced)
        result = {"metrics": tracer.metrics(),
                  "untraced_round_s": untraced_s,
                  "traced_round_s": traced_s,
                  "overhead": traced_s / untraced_s - 1,
                  "spans": len(tracer.span_start),
                  "top_spans": tracer.top_spans()}
    else:
        setup_s = setup_samples(args)
        while True:
            elapsed = time.perf_counter() - start
            if elapsed + sum(rounds[-1].times) > args.seconds:
                break
            setup_s += setup_samples(args)
            ops = Ops()
            again = wl.run_round(nl, wl.build(nl, args.seed), ops)
            rounds.append(ops)
            if len(ops.times) != len(first.times):
                problems.append("round %d made %d operations, not %d" % (
                    len(rounds), len(ops.times), len(first.times)))
            elif wl.digest(again) != digest:
                problems.append("round %d gave other verdicts" % len(rounds))
        # One pass of the workload: each operation at its median over rounds.
        per_op = zip(*(r.times for r in rounds))
        result = {"metrics": {
            "wall_s": (sum(statistics.median(ts) for ts in per_op), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0, "MiB"),
            "verdicts_decided": (decided, "count"),
            "setup_s": (statistics.median(setup_s), "s")},
            "setup_samples_s": setup_s,
            "round_s": [sum(r.times) for r in rounds],
            "op_s": [r.times for r in rounds]}
    result.update({
        "rounds": len(rounds),
        "check_s": check_s,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": [e for r in rounds for e in r.errors][:5],
        "problems": problems[:20],
        "correct": not problems})
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: nilext validates with "
                 "assert statements, which -O removes")
    result = cmd_setup(args) if args.role == "setup" else cmd_run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
