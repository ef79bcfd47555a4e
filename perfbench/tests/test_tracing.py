"""A traced round gives the untraced round's verdicts, and the tracer puts
back every name it wrapped.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

nl = worker.load_nilext()


def namespace_snapshot():
    """Every attribute of the nilext modules and of the classes they define."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("nilext"):
            continue
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    snap[(name, attr, cattr)] = cobj
    return snap


class SmallRound(workloads.IsoSearch):
    """Four iso-search queries: a witness, a QZ12 witness, a fingerprint
    separation and an undecided pair (which runs F2 and F3 searches)."""

    def build(self, nl, seed):
        inp = super().build(nl, seed)
        keep = ("N4_31", "N4_05", "N4_01|N4_02", "N4_13|N4_14")
        inp["queries"] = [q for q in inp["queries"] if q["id"] in keep]
        return inp


class TracedRound(unittest.TestCase):
    def run_round(self, wl, op=None):
        return wl.run_round(nl, wl.build(nl, 1), op or worker.Ops())

    def check_workload(self, wl):
        before = namespace_snapshot()
        plain = wl.digest(self.run_round(wl))
        tracer = tracing.Tracer()
        try:
            tracer.install()
            self.assertIsNot(nl.orbits.iso_search,
                             before[("nilext.orbits", "iso_search")])
            traced = wl.digest(self.run_round(wl))
        finally:
            tracer.restore()
        self.assertEqual(traced, plain)
        after = namespace_snapshot()
        self.assertEqual(set(after), set(before))
        changed = [k for k in before if after[k] is not before[k]]
        self.assertEqual(changed, [])
        return tracer.metrics()

    def test_iso_search_round(self):
        m = self.check_workload(SmallRound())
        self.assertEqual(list(m), tracing.metric_names())
        for name in ("orbits.calls", "algebra.calls", "linalg.calls",
                     "identities.calls", "scalars.cyc12_ops",
                     "scalars.fp_ops", "algebra.eval_tree.calls",
                     "orbits.iso_search_fp.calls"):
            self.assertGreater(m[name][0], 0, name)
        self.assertGreater(m["orbits.self_s"][0], 0)

    def test_census_round_and_from_imports(self):
        # orbits imports eval_tree and is_homomorphism by name; their calls
        # from orbit_census_fp must still be counted.
        wl = workloads.OracleF2()
        before = namespace_snapshot()
        tracer = tracing.Tracer()
        try:
            tracer.install()
            self.assertIsNot(nl.orbits.eval_tree,
                             before[("nilext.orbits", "eval_tree")])
            _, _, a, coh = wl.build(nl, 0)["setups"][0]
            census = nl.orbits.orbit_census_fp(a, coh)
        finally:
            tracer.restore()
        m = tracer.metrics()
        self.assertGreater(census.aut_count, 0)
        for name in ("algebra.eval_tree.calls",
                     "algebra.is_homomorphism.calls",
                     "extensions.classify_line.calls", "linalg.apply.calls",
                     "scalars.fp_elts"):
            self.assertGreater(m[name][0], 0, name)
        after = namespace_snapshot()
        self.assertEqual([k for k in before if after[k] is not before[k]], [])


if __name__ == "__main__":
    unittest.main()
