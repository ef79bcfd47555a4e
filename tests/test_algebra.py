import random

from nilext import catalog
from nilext.algebra import (Algebra, eval_tree, fingerprint,
                            generating_scheme, is_automorphism,
                            is_homomorphism)
from nilext.linalg import Matrix, Subspace
from nilext.scalars import FIELDS, QQ


def test_multiply_bilinear_random():
    rng = random.Random(31)
    a = catalog.instantiate("N4_01", catalog.sample_parameters("N4_01", 1)[0])
    f = a.field
    for _ in range(200):
        x = [f.random(rng) for _ in range(4)]
        y = [f.random(rng) for _ in range(4)]
        z = [f.random(rng) for _ in range(4)]
        c = f.random(rng)
        lhs = a.multiply([xi + c * zi for xi, zi in zip(x, z)], y)
        rhs = [p + c * q for p, q in
               zip(a.multiply(x, y), a.multiply(z, y))]
        assert lhs == rhs
        lhs = a.multiply(x, [yi + c * zi for yi, zi in zip(y, z)])
        rhs = [p + c * q for p, q in
               zip(a.multiply(x, y), a.multiply(x, z))]
        assert lhs == rhs


def test_annihilator_and_chain():
    a = catalog.instantiate("CD3_01")
    ann = a.annihilator()
    assert ann.dim == 1
    e3 = [QQ.zero, QQ.zero, QQ.one]
    assert ann.contains(e3)
    assert a.is_nilpotent()
    chain = a.power_chain()
    assert chain[0] == 3 and chain[-1] == 0


def test_one_sided_annihilators():
    a = catalog.instantiate("N4_17")
    left = a.annihilator("left")
    right = a.annihilator("right")
    both = a.annihilator("both")
    assert both.dim <= min(left.dim, right.dim)
    for v in both.basis:
        assert left.contains(v) and right.contains(v)


def test_annihilator_memoised():
    rng = random.Random(34)
    f3 = FIELDS["F3"]
    algs = [catalog.instantiate(eid, vals, f) for eid, vals, f in
            [("CD3_01", {}, QQ), ("N4_17", {}, QQ), ("CD3_04", {"lambda": 2}, f3)]]
    for n in (3, 4, 4, 5):
        algs.append(Algebra(f3, [[[f3.random(rng) if k > max(i, j) else f3.zero
                                   for k in range(n)] for j in range(n)]
                                 for i in range(n)]))
    for a in algs:
        for side in ("both", "left", "right"):
            first = a.annihilator(side)
            assert a.annihilator(side) is first
            # A fresh algebra has an empty cache: the uncached computation.
            assert first == Algebra(a.field, a.table).annihilator(side)
    try:
        algs[0].annihilator("middle")
        assert False, "expected a rejection"
    except ValueError:
        pass


def test_derivations_are_lie_closed():
    a = catalog.instantiate("CD3_03")
    der = a.derivations()
    mats = [Matrix.unflatten(a.field, a.dim, v) for v in der.basis]
    for d1 in mats:
        for d2 in mats:
            bracket = d1 * d2 - d2 * d1
            assert der.contains(bracket.flatten())


def test_derivation_property_random():
    rng = random.Random(32)
    a = catalog.instantiate("N4_21", catalog.sample_parameters("N4_21", 1)[0])
    der = a.derivations()
    f = a.field
    for v in der.basis:
        d = Matrix.unflatten(f, a.dim, v)
        for _ in range(30):
            x = [f.random(rng) for _ in range(4)]
            y = [f.random(rng) for _ in range(4)]
            lhs = d.apply(a.multiply(x, y))
            rhs = [p + q for p, q in
                   zip(a.multiply(d.apply(x), y), a.multiply(x, d.apply(y)))]
            assert lhs == rhs


def _scheme_samples():
    """Catalog samples, and seeded strictly triangular tables of dims 2-4
    over F2 and F3."""
    out = [catalog.instantiate(eid, catalog.sample_parameters(eid, 1)[0])
           for eid in catalog.all_ids()]
    rng = random.Random(37)
    for name in ("F2", "F3"):
        f = FIELDS[name]
        for _ in range(30):
            n = rng.randrange(2, 5)
            out.append(Algebra(f, [[[f.random(rng) if k > max(i, j)
                                     and rng.random() < 0.6 else f.zero
                                     for k in range(n)] for j in range(n)]
                                   for i in range(n)]))
    return out


def test_generating_scheme_spans():
    shapes = set()
    for a in _scheme_samples():
        f = a.field
        num_gens, steps, values, inv, coords = generating_scheme(a)
        assert generating_scheme(a) is generating_scheme(a)
        assert Subspace(f, a.dim, values).dim == a.dim
        assert inv * Matrix.from_cols(f, values) == Matrix.identity(f, a.dim)
        assert [s[1] for s in steps if s[0] == "gen"] == list(range(num_gens))
        assert all(s[0] == "gen" or max(s[1:]) < k
                   for k, s in enumerate(steps))
        for i, x in enumerate(values):
            for j, y in enumerate(values):
                assert all(c for _, c in coords[i][j])
                assert a.multiply(x, y) == [
                    sum((c * values[k][m] for k, c in coords[i][j]), f.zero)
                    for m in range(a.dim)]
        gens = [values[k] for k, s in enumerate(steps) if s[0] == "gen"]
        assert eval_tree(a, steps, gens) == values
        shapes.add((f.name, num_gens, len(steps) - num_gens))
    assert len(shapes) >= 8


def test_eval_tree_forms_each_product_once():
    rng = random.Random(38)
    for a in _scheme_samples():
        num_gens, steps = generating_scheme(a)[:2]
        gens = [[a.field.random(rng) for _ in range(a.dim)]
                for _ in range(num_gens)]
        expected = eval_tree(a, steps, gens)
        calls = []
        plain = a.multiply
        a.multiply = lambda x, y: calls.append((x, y)) or plain(x, y)
        assert eval_tree(a, steps, gens) == expected
        assert len(calls) == sum(s[0] == "mul" for s in steps)


def test_identity_is_automorphism():
    a = catalog.instantiate("N4_17")
    assert is_automorphism(a, Matrix.identity(a.field, a.dim))


def test_scaling_homomorphism():
    a = catalog.instantiate("CD3_01")
    f = a.field
    two = f.from_int(2)
    phi = Matrix(f, [[two, f.zero, f.zero],
                     [f.zero, two * two, f.zero],
                     [f.zero, f.zero, two ** 4]])
    assert is_homomorphism(a, a, phi)
    assert is_automorphism(a, phi)


def test_fingerprint_invariance_under_permuted_copy():
    a = catalog.instantiate("N4_33")
    f = a.field
    phi = Matrix(f, [[f.zero, f.one, f.zero, f.zero],
                     [f.one, f.zero, f.zero, f.zero],
                     [f.zero, f.zero, f.one, f.zero],
                     [f.zero, f.zero, f.zero, f.one]])
    inv = phi.inverse()
    table = []
    for i in range(4):
        row = []
        for j in range(4):
            v = a.multiply(inv.col(i), inv.col(j))
            row.append(phi.apply(v))
        table.append(row)
    b = Algebra(f, table, label="N4_33-shuffled")
    assert is_homomorphism(b, a, inv)
    assert fingerprint(a).first_difference(fingerprint(b)) is None


def test_change_field():
    a = catalog.instantiate("CD3_01")
    f5 = FIELDS["F5"]
    b = a.change_field(f5, lambda c: f5.from_fraction(c))
    assert b.field.name == "F5"
    assert b.is_nilpotent()
    assert b.annihilator().dim == 1


def test_cd_routes_agree_on_catalog_samples():
    for eid in ("CD3_04", "N4_05", "N4_48"):
        vals = catalog.sample_parameters(eid, 1)[0]
        a = catalog.instantiate(eid, vals)
        by_ids = all(a.satisfies(nm) for nm in ("cd1", "cd2", "cd3"))
        assert by_ids == a.is_cd_by_operators()


def _reference_is_nilpotent(a):
    """Nilpotency of the multiplication algebra M(A), built as the
    associative closure of the L_e and R_e in flattened n x n matrices,
    by taking its powers until they vanish or stop shrinking."""
    f, n = a.field, a.dim
    mats = []
    for i in range(n):
        e = a.basis_vector(i)
        mats += [a.left_mult(e), a.right_mult(e)]
    span = Subspace(f, n * n, [m.flatten() for m in mats])
    basis_mats = [Matrix.unflatten(f, n, v) for v in span.basis]
    grew = True
    while grew:
        grew = False
        for x in list(basis_mats):
            for y in list(basis_mats):
                flat = (x * y).flatten()
                if not span.contains(flat):
                    span = span.add(Subspace(f, n * n, [flat]))
                    basis_mats.append(x * y)
                    grew = True
    gens = [Matrix.unflatten(f, n, v) for v in span.basis]
    power = span
    for _ in range(span.dim + 1):
        if power.dim == 0:
            break
        nxt = Subspace(f, n * n, [(g * Matrix.unflatten(f, n, v)).flatten()
                                  for g in gens for v in power.basis])
        if nxt.dim == power.dim:
            return False
        power = nxt
    return power.dim == 0


def test_is_nilpotent_matches_reference_on_catalog():
    for eid in catalog.all_ids():
        a = catalog.instantiate(eid, catalog.sample_parameters(eid, 1)[0])
        assert a.is_nilpotent() == _reference_is_nilpotent(a) is True


def _random_invertible(f, rng, n):
    while True:
        m = Matrix(f, [[f.random(rng) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def test_is_nilpotent_matches_reference_random():
    """Seeded random tables of dims 2-4: strictly upper triangular (always
    nilpotent), the same moved to a random basis (nilpotent, not
    triangular), and unrestricted sparse tables (often not nilpotent)."""
    rng = random.Random(35)
    outcomes = set()
    for name in ("Q", "F2", "F3", "F5"):
        f = FIELDS[name]
        for trial in range(36):
            n = rng.randrange(2, 5)
            kind = ("upper", "moved", "unrestricted")[trial % 3]
            density = rng.choice((0.15, 0.3, 0.6))
            table = [[[f.random(rng) if (rng.random() < density if
                                         kind == "unrestricted"
                                         else k > max(i, j)) else f.zero
                       for k in range(n)] for j in range(n)]
                     for i in range(n)]
            if kind == "moved":
                a = Algebra(f, table)
                phi = _random_invertible(f, rng, n)
                inv = phi.inverse()
                table = [[phi.apply(a.multiply(inv.col(i), inv.col(j)))
                          for j in range(n)] for i in range(n)]
            a = Algebra(f, table)
            got = a.is_nilpotent()
            assert got == _reference_is_nilpotent(a)
            assert got or kind == "unrestricted"
            outcomes.add((kind, got, bool(a._nonzero)))
    assert {("unrestricted", False, True), ("unrestricted", True, True),
            ("moved", True, True)} <= outcomes
