"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/sweep.py --workload W --seeds 1-10 [--seconds 24]

Prints one line per run, then each metric's median and its spread: the
distance between the first and third quartiles of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median. This is
the command behind the reference figures in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="24")
    args = ap.parse_args(argv)
    values = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds],
            capture_output=True, text=True, cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("seed %d: run.py exited with %d" % (seed,
                                                         proc.returncode))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(res["failed"] / res["attempted"])
        print("seed %d: attempted %d, failed %d, %s" % (
            seed, res["attempted"], res["failed"],
            ", ".join("%s %.4g %s" % (k, m["value"], m["unit"])
                      for k, m in res["metrics"].items())), flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    print("failed share per run: %s" % sorted(shares))
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print("%-18s median %.4g  spread %.3f  (%d runs)"
              % (k, med, (q3 - q1) / med, len(vs)))


if __name__ == "__main__":
    main()
