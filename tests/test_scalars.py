import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from nilext.exprs import eval_str, field_env
from nilext.scalars import FIELDS, QQ, QZ12, FpElt, PrimeField, roots_of_unity

PRIMES = (2, 3, 5, 7)


def test_field_axioms_random():
    rng = random.Random(11)
    for name, f in sorted(FIELDS.items()):
        for _ in range(60):
            a = f.random(rng)
            b = f.random(rng)
            c = f.random(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + f.zero == a
            assert a * f.one == a
            assert a + (-a) == f.zero
            assert bool(a) == (a != f.zero)
            if b != f.zero:
                assert b * (f.one / b) == f.one


def test_parse_render_round_trip():
    rng = random.Random(12)
    for f in (QQ, QZ12):
        for _ in range(40):
            a = f.random(rng)
            assert eval_str(f.render(a), f, field_env(f)) == a


def test_prime_field_basics():
    f = PrimeField(7)
    assert len(f.elements()) == 7
    assert f.from_int(9) == f.from_int(2)
    assert f.from_fraction(Fraction(1, 2)) == f.from_int(4)
    assert f.from_int(3) ** 6 == f.one


def test_fp_tables_match_integer_arithmetic():
    for p in PRIMES:
        for a in range(p):
            x = FpElt(a, p)
            assert (x.v, x.p) == (a, p)
            assert FpElt(a + 7 * p, p) is x and FpElt(a - 3 * p, p) is x
            assert (-x).v == -a % p
            if a:
                assert x.inverse().v * a % p == 1
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            for n in range(2 * p):
                assert (x ** n).v == pow(a, n, p)
            for b in range(p):
                y = FpElt(b, p)
                assert (x + y).v == (a + b) % p
                assert (x - y).v == (a - b) % p
                assert (x * y).v == a * b % p
                assert (x == y) == (a == b)
                if b:
                    assert (x / y).v * b % p == a
                else:
                    with pytest.raises(ZeroDivisionError):
                        x / y
                assert (a + y).v == (a + b) % p and (a - y).v == (a - b) % p
                assert (a * y).v == a * b % p


def test_hash_agrees_with_equality():
    assert 1 in {QZ12.one} and Fraction(1, 2) in {QZ12.from_fraction(Fraction(1, 2))}
    assert QZ12.one in {1} and QZ12.zeta not in {1}
    assert 1 in {FpElt(1, 2)} and FpElt(1, 2) in {1}
    assert FpElt(1, 2) == 3 and FpElt(2, 3) == Fraction(1, 2)
    assert FpElt(1, 2) != Fraction(1, 2)
    for p in PRIMES:
        for v in range(p):
            assert FpElt(v, p) == v and hash(FpElt(v, p)) == hash(v)
            assert FpElt(v, p) == Fraction(v) and hash(FpElt(v, p)) == hash(Fraction(v))
            for q in PRIMES:
                if q != p:
                    x, y = FpElt(v, p), FpElt(v, q)
                    assert x != y and not x == y
                    for op in (lambda s, t: s + t, lambda s, t: s - t,
                               lambda s, t: s * t, lambda s, t: s / t):
                        with pytest.raises(TypeError):
                            op(x, FpElt(1, q))


def test_field_elements_pickle_and_copy():
    rng = random.Random(13)
    for name, f in sorted(FIELDS.items()):
        for _ in range(20):
            a = f.random(rng)
            for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
                assert b == a and hash(b) == hash(a)
                if isinstance(a, FpElt):
                    assert b is a
    c = QZ12.omega
    assert pickle.loads(pickle.dumps([c, c]))[1] == c


def test_validation_survives_python_O():
    code = """
import contextlib, io
from fractions import Fraction
from nilext import catalog, cli, tables
from nilext.algebra import Algebra, is_homomorphism
from nilext.exprs import poly_str
from nilext.extensions import (BilinearForm, central_extension, is_split,
                               parse_form)
from nilext.identities import Identity
from nilext.linalg import Matrix, Subspace, complement_reps
from nilext.orbits import (AutFamily, _to_prime_field, iso_search,
                           iso_search_fp, orbit_census_fp,
                           verify_transform_table)
from nilext.poly import MultiPoly
from nilext.scalars import QQ, QZ12, FpElt, PrimeField

def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    raise SystemExit("%s%r did not raise %s" % (fn.__name__, args, exc.__name__))

assert not __debug__
raises(ValueError, PrimeField(2).from_fraction, Fraction(1, 2))
raises(ValueError, PrimeField, 11)
raises(ValueError, FpElt, 1, 4)
raises(ZeroDivisionError, PrimeField(2).zero.inverse)
raises(ZeroDivisionError, QZ12.zero.inverse)
raises(ZeroDivisionError, lambda: QZ12.one / 0)
a = catalog.instantiate("N4_43", {"alpha": Fraction(1), "beta": Fraction(1)})
if _to_prime_field(a, 2) is not None:
    raise SystemExit("N4_43 has a -1/2 entry and no F2 reduction")
assert _to_prime_field(a, 3) is not None
aut = tables.SETUPS["CD3_01"]["aut"]
fam = AutFamily.from_strings("CD3_01", aut["vars"], aut["nonzero"], aut["rows"])
raises(ValueError, fam.specialize, QQ, {"x": QQ.from_int(0), "y": QQ.from_int(5)})
raises(ValueError, Identity, "x1*x1", 2, ((Fraction(1), (0, 0)),))
raises(ValueError, Identity, "x1", 2, ((Fraction(1), 0),))
raises(ValueError, Identity, "x1*x3", 2, ((Fraction(1), (0, 2)),))
raises(ValueError, is_split, catalog.instantiate("CD3_01"),
       [parse_form("D(1,2)", 3, QQ)])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["extend", "CD3_01", "--cocycle", "D(1,2)"])
if "split: undetermined" not in out.getvalue():
    raise SystemExit(out.getvalue())
raises(ValueError, orbit_census_fp,
       catalog.instantiate("CD3_01", {}, PrimeField(5)))
raises(ValueError, iso_search_fp, catalog.instantiate("CD3_01", {}, PrimeField(2)),
       catalog.instantiate("CD3_01", {}, PrimeField(3)))
raises(ValueError, iso_search, catalog.instantiate("CD3_01"),
       catalog.instantiate("CD3_01", {}, QZ12))
raises(ValueError, poly_str, "x/y")
raises(ValueError, poly_str, "(x+y)/(2*z)")
raises(ZeroDivisionError, poly_str, "x/(y-y)")
raises(ValueError, MultiPoly.var("x").constant_value)
raises(ValueError, MultiPoly, ("b", "a"), {})
raises(ValueError, MultiPoly, ("a",), {(1, 2): 1})
raises(ValueError, catalog.construction, "CD3_01")
raises(ValueError, verify_transform_table, fam, [poly_str("a1")], [], [])
raises(ValueError, pow, MultiPoly.var("x"), -1)
raises(ValueError, pow, MultiPoly.var("x"), 2.0)
raises(ValueError, catalog.sample_parameters, "N4_42", 0)
raises(ValueError, catalog.verify_catalog, "bogus")
raises(ValueError, Matrix(QQ, [[QQ.one, QQ.one], [QQ.one, QQ.one]]).inverse)
raises(ValueError, Matrix, QQ, [[QQ.one, QQ.one], [QQ.one]])
raises(ValueError, Algebra, QQ, [[[0, 0], [0]], [[0, 0], [0, 0]]])
m23 = Matrix(QQ, [[QQ.one] * 3] * 2)
m22 = Matrix.identity(QQ, 2)
raises(ValueError, lambda: m23 + m22)
raises(ValueError, lambda: m23 - m22)
raises(ValueError, lambda: m23 * m23)
raises(ValueError, m23.apply, [QQ.one, QQ.one])
raises(ValueError, Matrix.unflatten, QQ, 2, [QQ.one] * 3)
s2 = Subspace(QQ, 2, m22.rows)
s3 = Subspace(QQ, 3, m23.rows)
raises(ValueError, s2.contains, [QQ.one] * 3)
raises(ValueError, s2.add, s3)
raises(ValueError, s2.intersect, s3)
raises(ValueError, complement_reps, s2, s3)
raises(ValueError, complement_reps, Subspace(QQ, 2, m22.rows[:1]), s2)
cd = catalog.instantiate("CD3_01")
raises(ValueError, is_homomorphism, cd, cd, m22)
raises(ValueError, BilinearForm, QQ, m23)
raises(ValueError, central_extension, cd, [])
raises(ValueError, central_extension, cd, [BilinearForm(QQ, m22)])
for n in ("0", "-1"):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["verify-catalog", "--samples", n])
    if code != 2 or not err.getvalue().startswith("error: "):
        raise SystemExit("--samples %s: %r %s" % (n, code, err.getvalue()))
print("ok")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr + out.stdout


def test_cyclotomic_relations():
    z = QZ12.zeta
    i = QZ12.i
    w = QZ12.omega
    assert z ** 4 == z ** 2 - QZ12.one
    assert z ** 12 == QZ12.one
    assert i * i == -QZ12.one
    assert w ** 3 == QZ12.one
    assert w * w + w + QZ12.one == QZ12.zero
    assert i == z ** 3 and w == z ** 4


def test_roots_of_unity():
    for n in (1, 2, 3, 4, 6, 12):
        roots = roots_of_unity(QZ12, n)
        assert len(roots) == n
        assert len(set(roots)) == n
        for r in roots:
            assert r ** n == QZ12.one
    cube = roots_of_unity(QZ12, 3)
    assert QZ12.omega in cube


def test_rational_value_projection():
    w = QZ12.omega
    assert QZ12.from_fraction(Fraction(5, 3)).rational_value() == Fraction(5, 3)
    assert (w + w * w).rational_value() == Fraction(-1)


def test_field_names_cover_cli_choices():
    assert sorted(FIELDS) == ["F2", "F3", "F5", "F7", "Q", "QZ12"]
    assert FIELDS["Q"] is QQ
