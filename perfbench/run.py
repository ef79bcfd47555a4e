"""nilext benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/nilext). With
--trace 0 it runs the workload's rounds for about S seconds in a fresh
interpreter, timing set-up in further fresh interpreters between rounds, and
prints the end-to-end metrics. With --trace 1 it prints the per-layer
metrics of one traced round instead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Full
details go to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("catalog-q", "iso-search", "oracle-f2", "census-f3")

# Whole run must end within this many seconds.
DEADLINE_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child(argv, deadline):
    """Run worker.py in a fresh interpreter; return its last JSON line."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before: " + " ".join(argv))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + argv,
            cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(argv))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("worker exited with %d: %s" % (proc.returncode, " ".join(argv)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: nilext validates its inputs "
             "and results with assert statements, which -O removes")
    if not os.path.isfile(os.path.join(ROOT, "src", "nilext", "__init__.py")):
        fail("no src/nilext under %s: run from a nilext source checkout"
             % ROOT)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # One untimed set-up first: it leaves compiled bytecode behind, as a
    # user's second run would find it.
    child(["setup"] + common, deadline)
    run = child(["run"] + common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], deadline)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in
               run["metrics"].items()}
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({"args": vars(args), "run": run}, fh, indent=1)
    for msg in run["problems"] + run["errors"]:
        print("perfbench: " + msg.rstrip(), file=sys.stderr)
    if args.trace:
        print("perfbench: traced round %.2f s, untraced %.2f s, overhead "
              "%.0f%%" % (run["traced_round_s"], run["untraced_round_s"],
                          100 * run["overhead"]), file=sys.stderr)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
