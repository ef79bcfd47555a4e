"""The benchmark's independent checkers accept correct outputs and reject
corrupted ones.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import worker  # noqa: E402

nl = worker.load_nilext()
Q = checks.Ring("Q")
F2 = checks.Ring("F2")


def relation_witness(rid="N4_31", vals=None):
    """A stored relation's witness, with the two tables rebuilt here."""
    vals = vals or {"alpha": Fraction(2)}
    e = nl.tables.N4[rid]
    exprs = next(x for r, x, _ in nl.tables.RELATIONS if r == rid)
    images = {nm: nl.exprs.eval_str(src, nl.scalars.QQ, dict(vals))
              for nm, src in zip(e["params"], exprs)}
    verdict = nl.orbits.iso_search(nl.catalog.instantiate(rid, vals),
                                   nl.catalog.instantiate(rid, images))
    ta = checks.table(e["products"], 4, Q, checks.entry_env(e, vals, Q))
    tb = checks.table(e["products"], 4, Q, checks.entry_env(e, images, Q))
    return verdict, ta, tb


def f2_census(bid="CD3_01"):
    f2 = nl.scalars.FIELDS["F2"]
    a = nl.catalog.instantiate(bid, {}, f2)
    forms = nl.catalog.named_forms(bid, f2, {})
    flags = [k + 1 in nl.tables.SETUPS[bid]["cd"] for k in range(7)]
    coh = nl.extensions.cohomology(a, forms, flags)
    reps = [[[checks.to_own(x) for x in row] for row in r.gram.rows]
            for r in coh.reps]
    return (nl.orbits.orbit_census_fp(a, coh), checks.table_of_algebra(a),
            reps)


class WitnessCheck(unittest.TestCase):
    def test_accepts_program_witness(self):
        verdict, ta, tb = relation_witness()
        self.assertEqual(verdict.kind, "witness")
        self.assertEqual(checks.check_witness(verdict.witness.rows, ta, tb, Q),
                         [])

    def test_rejects_one_changed_entry(self):
        verdict, ta, tb = relation_witness()
        rows = [list(r) for r in verdict.witness.rows]
        rows[0][0] = rows[0][0] + 1  # the e1 coordinate of the image of e1
        self.assertNotEqual(checks.check_witness(rows, ta, tb, Q), [])

    def test_qz12_witness_in_own_cyclotomic_arithmetic(self):
        qz = nl.scalars.QZ12
        vals = {"alpha": Fraction(1), "beta": Fraction(2)}
        images = {"alpha": qz.omega * 1, "beta": qz.omega * 2}
        e = nl.tables.N4["N4_05"]
        verdict = nl.orbits.iso_search(
            nl.catalog.instantiate("N4_05", vals, qz),
            nl.catalog.instantiate("N4_05", images, qz),
            grid=[qz.one, qz.omega, qz.omega * qz.omega, qz.zero])
        ring = checks.Ring("QZ12")
        ta = checks.table(e["products"], 4, ring,
                          checks.entry_env(e, vals, ring))
        tb = checks.table(e["products"], 4, ring,
                          checks.entry_env(e, images, ring))
        self.assertEqual(checks.check_witness(verdict.witness.rows, ta, tb,
                                              ring), [])
        rows = [list(r) for r in verdict.witness.rows]
        rows[0][0] = -rows[0][0]
        self.assertNotEqual(checks.check_witness(rows, ta, tb, ring), [])


class CensusCheck(unittest.TestCase):
    def test_accepts_program_census(self):
        census, t, reps = f2_census()
        self.assertEqual(checks.check_census(census, t, reps, F2, 2), [])

    def test_rejects_line_moved_to_another_orbit(self):
        bad, t, reps = f2_census()
        src = next(o for o in bad.orbits if o.size >= 2)
        dst = next(o for o in bad.orbits if o is not src)
        moved = next(m for m in src.members if m != src.rep)
        src.members.remove(moved)
        dst.members.append(moved)
        dst.witnesses[moved] = src.witnesses.pop(moved)
        self.assertNotEqual(checks.check_census(bad, t, reps, F2, 2), [])

    def test_rejects_witness_that_is_no_automorphism(self):
        bad, t, reps = f2_census()
        orb = next(o for o in bad.orbits if o.size >= 2)
        m = next(m for m in orb.members if m != orb.rep)
        w = orb.witnesses[m]
        w.rows[0][0] = w.rows[0][0] + 1
        self.assertNotEqual(checks.check_census(bad, t, reps, F2, 2), [])


class EntryCheck(unittest.TestCase):
    nid = "N4_50"
    vals = {"lambda": Fraction(3), "alpha": Fraction(2), "beta": Fraction(5)}

    def test_accepts_program_table(self):
        a = nl.catalog.instantiate(self.nid, self.vals)
        self.assertEqual(checks.check_n4_entry(
            nl.tables, self.nid, self.vals, checks.table_of_algebra(a), Q), [])

    def test_rejects_rebuilt_table_with_one_cocycle_entry_flipped(self):
        e = nl.tables.N4[self.nid]
        rebuilt, _, gram = checks.rebuilt_from_base(
            nl.tables, self.nid, Q, checks.entry_env(e, self.vals, Q))
        i, j = next((i, j) for i in range(3) for j in range(3)
                    if gram[i][j] != 0)
        rebuilt[i][j][3] = -rebuilt[i][j][3]
        self.assertNotEqual(checks.check_n4_entry(
            nl.tables, self.nid, self.vals, rebuilt, Q), [])

    def test_non_nilpotent_table_fails_product_check(self):
        t = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        t[0][0][0] = Fraction(1)  # e1 * e1 = e1
        self.assertFalse(checks.products_vanish(t, Fraction(0), 3))
        t[0][0] = [Fraction(0), Fraction(1)]  # e1 * e1 = e2
        self.assertTrue(checks.products_vanish(t, Fraction(0), 3))


class OptimizeFlag(unittest.TestCase):
    def test_refuses_python_O(self):
        import subprocess
        run = os.path.join(worker.HERE, "run.py")
        proc = subprocess.run(
            [sys.executable, "-O", run, "--workload", "catalog-q", "--seed",
             "0", "--seconds", "1"], capture_output=True, text=True,
            timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("assert", proc.stderr)


if __name__ == "__main__":
    unittest.main()
