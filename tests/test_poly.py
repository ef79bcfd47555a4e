import random
from fractions import Fraction

import pytest

from nilext import tables
from nilext.exprs import eval_str, field_env, poly_str, variables, parse
from nilext.linalg import Matrix
from nilext.poly import POLY_RING, MultiPoly
from nilext.scalars import QQ, QZ12


def test_poly_arithmetic():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert not (p - p)
    assert p
    for q in (p, p - p, x - x + 1, MultiPoly.const(0), y / 3, x * 0):
        assert bool(q) == (q != POLY_RING.zero)


def test_poly_constant_division():
    x = MultiPoly.var("x")
    assert (x * 6) / 3 == x * 2
    half = MultiPoly.const(Fraction(1, 2))
    assert (x / 2) == half * x


def _table_strings():
    """Every coefficient string stored in nilext.tables."""
    out = set()
    for e in list(tables.BASES.values()) + list(tables.N4.values()):
        out.update(src for _, _, src, _ in e["products"])
        for avoided in e["excluded"].values():
            out.update(avoided)
        out.update(e.get("base_params", {}).values())
        out.update(src for src, _ in e.get("cocycle", ()))
    for setup in tables.SETUPS.values():
        for spec in setup["forms"] + setup["b2"]:
            out.update(src for src, _, _ in spec)
        out.update(setup["transform"])
        for row in setup["aut"]["rows"]:
            out.update(row)
    for _, images, _ in tables.RELATIONS:
        out.update(images)
    for cond in tables.ALIA_EXCLUDED.values():
        if cond:
            out.add(cond[1])
    return sorted(out)


def _has_variable_divisor(ast):
    if ast[0] in ("num", "var"):
        return False
    if ast[0] == "div" and variables(ast[2]):
        return True
    return any(_has_variable_divisor(sub) for sub in ast[1:]
               if isinstance(sub, tuple))


def test_poly_evaluate_matches_expr_eval():
    """poly_str agrees with eval_str on every catalog string, with z, i and
    omega bound to their QZ12 values; a variable divisor is a ValueError."""
    rng = random.Random(5)
    srcs = [
        "alpha*(lambda-2)+1",
        "x^2*(x*a1+y*a6)",
        "-(2*lambda-1)",
        "(x^3/3)*(3*x*a1-y*(2*a5+a6)-3*z*a7)",
    ] + _table_strings()
    rejected = 0
    for src in srcs:
        ast = parse(src)
        if _has_variable_divisor(ast):
            with pytest.raises(ValueError):
                poly_str(src)
            rejected += 1
            continue
        p = poly_str(src)
        for _ in range(25):
            env = field_env(QZ12)
            env.update((v, QZ12.random(rng))
                       for v in variables(ast) - set(env))
            assert p.evaluate(QZ12, env) == eval_str(src, QZ12, env)
    assert 0 < rejected < len(srcs)


def test_eval_only_coefficient_with_variable_denominator():
    src = "(lambda+1)*((lambda^2-1)*alpha+lambda+2)/(1-lambda)"
    env = {"lambda": Fraction(2), "alpha": Fraction(3)}
    assert eval_str(src, QQ, env) == Fraction(3) * (Fraction(9) + Fraction(4)) / Fraction(-1)


def test_greek_names_fold():
    assert eval_str("λ+1", QQ, {"lambda": Fraction(2)}) == Fraction(3)
    assert eval_str("α*β", QQ, {"alpha": Fraction(2),
                                "beta": Fraction(5)}) == Fraction(10)


def test_eval_over_cyclotomic():
    w = QZ12.omega
    assert eval_str("omega^3", QZ12, {"omega": w}) == QZ12.one
    env = {"alpha": QZ12.from_int(2), "omega": w}
    assert eval_str("omega*alpha", QZ12, env) == w + w


def test_power_and_precedence():
    assert eval_str("2*3^2", QQ, {}) == Fraction(18)
    assert eval_str("-2^2", QQ, {}) == Fraction(-4)
    assert eval_str("(1-2)^3", QQ, {}) == Fraction(-1)
    assert eval_str("4/2/2", QQ, {}) == Fraction(1)


def test_matrix_over_polynomials():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    m = Matrix(POLY_RING, [[x, MultiPoly.const(0)], [MultiPoly.const(1), y]])
    sq = m * m
    assert sq.rows[0][0] == x * x
    assert sq.rows[1][0] == x + y
    assert sq.rows[1][1] == y * y


def test_variables():
    assert variables(parse("alpha*(lambda-2)+1")) == {"alpha", "lambda"}
    assert variables(parse("3/4")) == set()


def test_constructor_normalises_monomials():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = MultiPoly({(("y", 1), ("x", 1), ("y", 2), ("z", 0)): 2,
                   (("x", 1), ("y", 3)): Fraction(1, 2),
                   (("z", 0),): 3, (("x", 0), ("y", 1)): -1, (): 0})
    assert p == Fraction(5, 2) * x * y ** 3 - y + 3
    assert p.terms == {(("x", 1), ("y", 3)): Fraction(5, 2),
                       (("y", 1),): Fraction(-1), (): Fraction(3)}
    assert repr(p) == "5/2*x*y^3-y+3"
    assert not MultiPoly({(("x", 1),): 1, (("x", 1), ("y", 0)): -1})
    for bad in (-1, 1.5, "2"):
        with pytest.raises(ValueError):
            MultiPoly({(("x", bad),): 1})


def test_hash_agrees_with_equality():
    x, y, z = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("z")
    pairs = [(x + y - y, x), (x * y - x * y, MultiPoly()),
             ((x * y) * z, z * (y * x)), (z * (x + y), y * z + x * z),
             ((z - x) * (y + 1) + x * y, y * z + z - x),
             (MultiPoly.const(1), 1), (MultiPoly.const(Fraction(1, 2)),
                                       Fraction(1, 2)),
             (x * y + 3 - x * y, MultiPoly.const(3)),
             (poly_str("(x+y)^2-2*x*y-y^2"), x * x)]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q), (p, q)
    assert 1 in {MultiPoly.const(1)}
    assert x + y - y in {x} and MultiPoly() in {0}
    assert x != y and x * y != y * y
