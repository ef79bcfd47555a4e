import ast
import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from nilext import catalog
from nilext.algebra import element_profile
from nilext.exprs import eval_str, field_env
from nilext.extensions import LineClass, cohomology
from nilext.linalg import Matrix
from nilext.orbits import extension_of_line, iso_search_fp, orbit_census_fp
from nilext.poly import POLY_RING, MultiPoly
from nilext.scalars import (FIELDS, QQ, QZ12, Cyc12, FpElt, PrimeField,
                            _cyc12, divide)

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
                assert b * divide(f.one, b) == f.one


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
    # A Cyc12 whose integral coordinates are Fractions, as Fraction sums
    # leave them, equals and hashes like the one with int coordinates, and a
    # rational Cyc12 like the int and the Fraction it equals.
    ints = Cyc12((1, 2, 0, 0))
    half = Cyc12((Fraction(1, 2), 1, 0, 0))
    fracs = [_cyc12((Fraction(1), Fraction(2), Fraction(0), Fraction(0))),
             half + half]
    assert ints.coeffs == (1, 2, 0, 0)
    assert all(type(c) is int for c in ints.coeffs)
    assert all(type(c) is Fraction for c in fracs[0].coeffs)
    two = Cyc12.from_rational(2)
    twos = [2, Fraction(2), Cyc12.from_rational(Fraction(2))]
    for a, others in ((ints, fracs), (two, twos)):
        for b in others:
            assert a == b and b == a and hash(a) == hash(b)
            assert b in {a} and a in {b} and len({a, b}) == 1
            assert {a: "x"}[b] == "x" and {b: "x"}[a] == "x"
    assert ints != Cyc12((1, 2, 0, 1)) and two != 3


def test_rationals_are_ints_when_integral():
    """Q scalars and Cyc12 coordinates are ints when integral and Fractions
    otherwise; divide never returns a float."""
    assert (QQ.zero, QQ.one) == (0, 1)
    assert type(QQ.zero) is int and type(QQ.one) is int
    for q in (3, Fraction(6, 2), "12/4", True):
        assert type(QQ.from_fraction(q)) is int
    assert type(QQ.from_int(True)) is int
    assert QQ.from_fraction("-3/6") == Fraction(-1, 2)
    cases = [(6, 3, 2), (1, 3, Fraction(1, 3)), (-4, 6, Fraction(-2, 3)),
             (Fraction(3, 2), Fraction(1, 2), 3), (2, Fraction(2, 3), 3),
             (Fraction(1, 2), 3, Fraction(1, 6))]
    for a, b, q in cases:
        got = divide(a, b)
        assert got == q and type(got) is type(q)
    with pytest.raises(ZeroDivisionError):
        divide(1, 0)
    x = Cyc12((Fraction(4, 2), Fraction(1, 2), 0, Fraction(-6, 3)))
    assert [type(c) for c in x.coeffs] == [int, Fraction, int, int]
    for y in (x * x, x.galois(5), x.inverse(), x * x.inverse()):
        assert all(type(c) in (int, Fraction) and
                   (type(c) is int or c.denominator != 1) for c in y.coeffs)
    assert (x * x.inverse()).coeffs == (1, 0, 0, 0)


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
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    m = Matrix(POLY_RING, [[x * y - 3, POLY_RING.zero], [x / 2, y ** 2]])
    for a in (x, x * y - Fraction(1, 2), MultiPoly.const(4), POLY_RING.zero):
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
    for b in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert b == m


def test_validation_survives_python_O():
    code = """
import contextlib, io
from fractions import Fraction
from nilext import catalog, cli, tables
from nilext.algebra import Algebra, is_homomorphism
from nilext.exprs import poly_str
from nilext.extensions import (BilinearForm, LineClass, central_extension,
                               cohomology, is_split, parse_form)
from nilext.identities import Identity
from nilext.linalg import Matrix, Subspace, complement_reps
from nilext.orbits import (_to_prime_field, iso_search,
                           iso_search_fp, orbit_census_fp,
                           verify_transform_table)
from nilext.poly import POLY_RING, MultiPoly
from nilext.scalars import QQ, QZ12, FpElt, PrimeField
from test_scalars import _census_f2_f3_f5, _f2_search_pairs

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
phi = Matrix(POLY_RING, [[poly_str(s) for s in row] for row in aut["rows"]])
raises(ValueError, Identity, "x1*x1", 2, ((Fraction(1), (0, 0)),))
raises(ValueError, Identity, "x1", 2, ((Fraction(1), 0),))
raises(ValueError, Identity, "x1*x3", 2, ((Fraction(1), (0, 2)),))
raises(ValueError, is_split, catalog.instantiate("CD3_01"),
       [parse_form("D(1,2)", 3, QQ)])
for bad in ("D(0,1)", "D(1)", "N(1)", "D(1,2)*D(1,3)", "D(1,2)/2", "2"):
    raises(ValueError, parse_form, bad, 3, QQ)
raises(ValueError, catalog.instantiate, "N4_46",
       {"lambda": 0, "alpha": 1}, PrimeField(2))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["extend", "CD3_01", "--cocycle", "D(1,2)"])
if "split: undetermined" not in out.getvalue():
    raise SystemExit(out.getvalue())
raises(ValueError, orbit_census_fp, catalog.instantiate("CD3_01"))
raises(ValueError, iso_search_fp, catalog.instantiate("CD3_01", {}, PrimeField(2)),
       catalog.instantiate("CD3_01", {}, PrimeField(3)))
raises(ValueError, iso_search, catalog.instantiate("CD3_01"),
       catalog.instantiate("CD3_01", {}, QZ12))
raises(ValueError, poly_str, "x/y")
raises(ValueError, poly_str, "(x+y)/(2*z)")
raises(ZeroDivisionError, poly_str, "x/(y-y)")
raises(ValueError, MultiPoly.var("x").constant_value)
raises(ValueError, MultiPoly, {(("x", -1),): 1})
raises(ValueError, MultiPoly, {(("x", 1.5),): 1})
raises(ValueError, catalog.construction, "CD3_01")
raises(ValueError, catalog.construction, "N4_47", {}, PrimeField(2))
raises(ValueError, verify_transform_table, phi, [poly_str("a1")], [], [])
zero_grid = [[MultiPoly.const(0)] * 3 for _ in range(3)]
raises(ValueError, verify_transform_table, phi,
       [poly_str(s) for s in tables.SETUPS["CD3_01"]["transform"]],
       [zero_grid] * 7, [[MultiPoly.var("x")] + [MultiPoly.const(0)] * 8])
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
for bid, base, forms in _census_f2_f3_f5():
    census = orbit_census_fp(base, cohomology(base, forms,
                                              catalog.cd_flags(bid)))
    print(sorted(census.class_counts.items()),
          len(census.orbits_of(LineClass.U1)))
for x, y in _f2_search_pairs():
    w = iso_search_fp(x, y)
    print(None if w is None else [[c.v for c in row] for row in w.rows])
print("ok")
"""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, os.pardir, "src"), here]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    lines = out.stdout.splitlines()
    assert out.returncode == 0 and lines[-1:] == ["ok"], out.stderr + out.stdout
    want = []
    for bid, base, forms in _census_f2_f3_f5():
        census = orbit_census_fp(base, cohomology(base, forms,
                                                  catalog.cd_flags(bid)))
        want.append("%s %d" % (sorted(census.class_counts.items()),
                               len(census.orbits_of(LineClass.U1))))
    assert want[0].endswith(" 68")
    (x, y), witnessed = _f2_search_pairs()
    assert element_profile(x) != element_profile(y)
    for w in (iso_search_fp(x, y), iso_search_fp(*witnessed)):
        want.append(str(None if w is None
                        else [[c.v for c in row] for row in w.rows]))
    assert want[-2] == "None" and want[-1] != "None"
    assert lines[:-1] == want


def test_fast_modules_pass_under_python_O():
    """The polynomial, linear algebra, catalog, extension and CLI tests pass
    with assert statements stripped from the library; pytest still rewrites
    the tests' own."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.join(here, os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_poly.py", "tests/test_linalg.py", "tests/test_catalog.py",
         "tests/test_extensions.py", "tests/test_cli.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and " passed" in out.stdout, (
        out.stdout + out.stderr)


def _census_f2_f3_f5():
    """CD3_01 over F2, over F3 in the first seeded random basis of the
    census setups, and CD3_03 over F5."""
    from test_orbits import _census_setups
    setups = _census_setups()
    f5 = FIELDS["F5"]
    return [setups[0], next(s for s in setups if s[1].field.p == 3),
            ("CD3_03", catalog.instantiate("CD3_03", {}, f5),
             catalog.named_forms("CD3_03", f5, {}))]


def _f2_search_pairs():
    """Two pairs of extensions of CD3_01 over F2 by U1 lines: the first two
    orbit representatives, whose element profiles differ, and the first
    representative whose orbit has another member, with that member."""
    bid, a, forms = _census_f2_f3_f5()[0]
    coh = cohomology(a, forms, catalog.cd_flags(bid))
    u1 = orbit_census_fp(a, coh).orbits_of(LineClass.U1)
    o = next(o for o in u1 if o.size > 1)
    member = next(m for m in o.members if m != o.rep)
    return [tuple(extension_of_line(a, coh, list(t)) for t in pair)
            for pair in ((u1[0].rep, u1[1].rep), (o.rep, member))]


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


def _reduce_mod_cyclotomic(poly):
    """Coefficients of a polynomial in z, reduced mod z^4 - z^2 + 1 to
    degree below 4 by z^d = z^(d-2) - z^(d-4)."""
    poly = list(poly)
    for d in range(len(poly) - 1, 3, -1):
        c, poly[d] = poly[d], 0
        poly[d - 2] += c
        poly[d - 4] -= c
    return tuple(Fraction(c) for c in (poly + [0] * 4)[:4])


def test_cyc12_products_match_schoolbook_reduction():
    """Seeded products, from dense to single-coordinate factors, against
    the schoolbook product reduced mod z^4 - z^2 + 1; and each Galois
    automorphism against z -> z^k substituted and reduced the same way."""
    rng = random.Random(23)

    def draw():
        density = rng.choice((0.3, 0.7, 1.0))
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                if rng.random() < density else Fraction(0) for _ in range(4)]

    for _ in range(300):
        x, y = draw(), draw()
        prod = [0] * 7
        for i in range(4):
            for j in range(4):
                prod[i + j] += x[i] * y[j]
        assert (Cyc12(x) * Cyc12(y)).coeffs == _reduce_mod_cyclotomic(prod)
        for k in (1, 5, 7, 11):
            subst = [0] * 34
            for j in range(4):
                subst[j * k] += x[j]
            assert Cyc12(x).galois(k).coeffs == _reduce_mod_cyclotomic(subst)


# The `/` sites in src/nilext outside scalars.divide, each with an operand
# that cannot be an int, so that the site never divides two ints.
_NON_INT_DIVISIONS = {
    ("poly.py", "__truediv__", "Fraction(1) / c"),  # a Fraction over c
}


def test_no_float_division_in_src():
    """int / int is a float, so every scalar division in the library goes
    through scalars.divide: any other `/` (or `/=`) must be listed in
    _NON_INT_DIVISIONS, and every listed site must still be there."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "nilext")
    files = [name for name in sorted(os.listdir(src)) if name.endswith(".py")]
    sites = set()

    def walk(node, name, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            sites.add((name, func, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            walk(child, name, func)

    for name in files:
        with open(os.path.join(src, name)) as fh:
            walk(ast.parse(fh.read(), name), name, None)
    assert len(files) >= 12
    assert ("scalars.py", "divide", "a / b") in sites
    assert {s for s in sites if s[:2] != ("scalars.py", "divide")} \
        == _NON_INT_DIVISIONS


def test_no_assert_in_src():
    """python -O strips assert statements, so none may carry a check."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "nilext")
    files = [name for name in sorted(os.listdir(src)) if name.endswith(".py")]
    found = []
    for name in files:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(files) >= 12 and found == []


def roots_of_unity(n):
    """The n-th roots of unity in QZ12, for n dividing 12."""
    return [Cyc12.zpower(12 // n * k) for k in range(n)]


def test_roots_of_unity():
    for n in (1, 2, 3, 4, 6, 12):
        roots = roots_of_unity(n)
        assert len(roots) == n
        assert len(set(roots)) == n
        for r in roots:
            assert r ** n == QZ12.one
    cube = roots_of_unity(3)
    assert QZ12.omega in cube


def test_rational_value_projection():
    w = QZ12.omega
    assert QZ12.from_fraction(Fraction(5, 3)).rational_value() == Fraction(5, 3)
    assert (w + w * w).rational_value() == Fraction(-1)


def test_field_names_cover_cli_choices():
    assert sorted(FIELDS) == ["F2", "F3", "F5", "F7", "Q", "QZ12"]
    assert FIELDS["Q"] is QQ
