import random
from itertools import product

from nilext import catalog, tables
from nilext.algebra import (Algebra, element_profile, eval_tree, fingerprint,
                            first_difference, generating_scheme,
                            is_homomorphism)
from nilext.linalg import Matrix, Subspace, projective_points, zero_vec
from nilext.scalars import FIELDS, QQ
from test_linalg import dense_kernel
from test_scalars import roots_of_unity


def is_automorphism(a, phi):
    return phi.is_invertible() and is_homomorphism(a, a, phi)


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


def _derivations(a):
    """Der(A) as the kernel of the dense rows of the derivation
    equations, matrices flattened row-major."""
    f, n = a.field, a.dim
    rows = [[eq.get(rc, f.zero) for rc in range(n * n)]
            for eq in a._derivation_equations()]
    return Subspace(f, n * n, dense_kernel(f, n * n, rows))


def _reference_power_chain(a):
    """The product-span chain with its second term built, as the others
    are, from products of basis vectors through multiply."""
    full = a.subspace([a.basis_vector(i) for i in range(a.dim)])
    powers = [full]
    dims = [full.dim]
    while dims[-1] > 0 and len(powers) < a.dim * a.dim + 2:
        k = len(powers) + 1
        acc = a.subspace([a.multiply(x, y) for i in range(1, k)
                          for x in powers[i - 1].basis
                          for y in powers[k - i - 1].basis])
        powers.append(acc)
        dims.append(acc.dim)
    return dims


def _reference_annihilator(a, side):
    """The annihilator as the kernel of dense equations, one per (j, k)
    and side, written from the dense structure table."""
    f, n = a.field, a.dim
    rows = []
    for j, k in product(range(n), repeat=2):
        if side in ("both", "left"):
            rows.append([a.table[i][j][k] for i in range(n)])
        if side in ("both", "right"):
            rows.append([a.table[j][i][k] for i in range(n)])
    return Subspace(f, n, dense_kernel(f, n, rows))


def _invariant_samples():
    """Every catalog entry at seeds 0-2 over Q, the QZ12 relations at
    two samples, and seeded F3 and QZ12 tables of dims 1-4: strictly upper
    triangular ones, and over F3 also unrestricted ones. (Unrestricted
    QZ12 tables often have A^2 = A, and their chains then run dim^2 + 2
    terms of slow products.)"""
    out = [catalog.instantiate(eid, catalog.sample_parameters(eid, 1, seed)[0])
           for seed in range(3) for eid in catalog.all_ids()]
    for rid, _, fname in tables.RELATIONS:
        if fname == "QZ12":
            out += [catalog.instantiate(rid, vals, FIELDS[fname])
                    for vals in catalog.sample_parameters(rid, 2, 0)]
    rng = random.Random(42)
    for name in ("F3", "QZ12"):
        f = FIELDS[name]
        for trial in range(30):
            n = rng.randrange(1, 5)
            upper = trial % 2 == 0 or name == "QZ12"
            density = rng.choice((0.15, 0.4, 0.7))
            out.append(Algebra(f, [[[f.random(rng) if (k > max(i, j)
                                                        or not upper)
                                     and rng.random() < density else f.zero
                                     for k in range(n)] for j in range(n)]
                                   for i in range(n)]))
    return out


def test_power_chain_matches_product_loop():
    """The invariant samples, and seeded unrestricted F3 and Q tables dense
    enough that A^2 = A is common; power_chain then returns its
    dim^2 + 2 terms without multiplying."""
    rng = random.Random(43)
    dense = []
    for name in ("F3", "Q"):
        f = FIELDS[name]
        for trial in range(12):
            n = 2 + trial % 3
            dense.append(Algebra(f, [[[f.random(rng) if rng.random() < 0.6
                                       else f.zero for k in range(n)]
                                      for j in range(n)] for i in range(n)]))
    chains = set()
    square_is_whole = set()
    for a in _invariant_samples() + dense:
        got = a.power_chain()
        assert got == _reference_power_chain(a), a.label
        chains.add(tuple(got))
        if a.dim and got[1] == a.dim:
            square_is_whole.add(a.field.name)
    assert len(chains) >= 10
    assert square_is_whole >= {"F3", "Q"}


def test_sparse_invariants_match_dense_equations():
    """der_dim against the kernel of the dense derivation equations and
    each annihilator against the kernel of its dense equations."""
    dims = set()
    for a in _invariant_samples():
        assert a.der_dim() == _derivations(a).dim, a.label
        for side in ("both", "left", "right"):
            ann = a.annihilator(side)
            assert ann == _reference_annihilator(a, side), (a.label, side)
            dims.add((side, ann.dim))
        dims.add(("der", a.der_dim()))
    assert len(dims) >= 15


def test_derivations_are_lie_closed():
    a = catalog.instantiate("CD3_03")
    der = _derivations(a)
    mats = [Matrix.unflatten(a.field, a.dim, v) for v in der.basis]
    for d1 in mats:
        for d2 in mats:
            bracket = d1 * d2 - d2 * d1
            assert der.contains(bracket.flatten())


def test_derivation_property_random():
    rng = random.Random(32)
    a = catalog.instantiate("N4_21", catalog.sample_parameters("N4_21", 1)[0])
    der = _derivations(a)
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


def _reference_scheme(a):
    """generating_scheme's (num_gens, steps, values) by the same greedy
    loop, with a new Subspace of the values after every value it keeps."""
    span = a.subspace([])
    steps, values, num_gens = [], [], 0
    while span.dim < a.dim:
        picked = next(i for i in range(a.dim)
                      if not span.contains(a.basis_vector(i)))
        steps.append(("gen", num_gens))
        num_gens += 1
        values.append(a.basis_vector(picked))
        span = a.subspace(values)
        grew = True
        while grew and span.dim < a.dim:
            grew = False
            for x, y in product(range(len(steps)), repeat=2):
                v = a.multiply(values[x], values[y])
                if not span.contains(v):
                    steps.append(("mul", x, y))
                    values.append(v)
                    span = a.subspace(values)
                    grew = True
                    if span.dim == a.dim:
                        break
    return num_gens, steps, values


def _random_fp_tables(seed, count):
    """Seeded tables of dims 2-5 over F2, F3, F5 and F7, at most 3,125
    points of F_p^n each: strictly triangular (so nilpotent) ones and
    unrestricted ones in turn."""
    rng = random.Random(seed)
    out = []
    for name in ("F2", "F3", "F5", "F7"):
        f = FIELDS[name]
        for t in range(count):
            n = rng.choice([n for n in range(2, 6) if f.p ** n <= 3125])
            out.append(Algebra(f, [[[f.random(rng) if (t % 2 or k > max(i, j))
                                     and rng.random() < 0.5 else f.zero
                                     for k in range(n)] for j in range(n)]
                                   for i in range(n)]))
    return out


def test_generating_scheme_matches_rebuild_loop():
    samples = _scheme_samples() + _random_fp_tables(39, 20)
    for a in samples:
        assert generating_scheme(a)[:3] == _reference_scheme(a)
    assert {a.field.name for a in samples} == {"Q", "F2", "F3", "F5", "F7"}


def _reference_element_profile(a):
    """element_profile from dense vectors: x^2, xA and Ax by a.multiply,
    membership by Subspace.contains and dimensions by Matrix.rank."""
    f, n = a.field, a.dim
    ann = a.annihilator("both")
    free = [c for c in range(n) if c not in ann.pivots]
    span = a.subspace(a.square().basis + ann.basis)
    basis = [a.basis_vector(j) for j in range(n)]
    counts = {}
    for t in projective_points(f.p, len(free)):
        x = zero_vec(f, n)
        for c, tc in zip(free, t):
            x[c] = f.from_int(tc)
        kind = (not any(a.multiply(x, x)), span.contains(x),
                Matrix(f, [a.multiply(x, e) for e in basis]).rank(),
                Matrix(f, [a.multiply(e, x) for e in basis]).rank())
        counts[kind] = counts.get(kind, 0) + 1
    return ann.dim, tuple(sorted(counts.items()))


def test_element_profile_matches_dense_reference():
    kinds = set()
    for a in _random_fp_tables(40, 10):
        profile = element_profile(a)
        assert profile == _reference_element_profile(a)
        kinds.update(kind for kind, _ in profile[1])
    assert {kind[:2] for kind in kinds} == {(x, y) for x in (False, True)
                                            for y in (False, True)}


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
    assert fingerprint(a) == fingerprint(b)
    assert first_difference(a, b) is None


def _full_first_difference(fa, fb):
    """The first field, then the first identity, on which two complete
    fingerprints differ, or None."""
    for fld in ("dim", "nilpotent", "chain", "ann_dim", "left_ann_dim",
                "right_ann_dim", "der_dim"):
        if getattr(fa, fld) != getattr(fb, fld):
            return fld
    for (na, va), (_, vb) in zip(fa.ids, fb.ids):
        if va != vb:
            return na
    return None


def _catalog_pairs(seed):
    """The stored relations, each entry against its relation image, and
    the distinctness pairs, at one sample of the seed."""
    pairs = []
    for rid, exprs, fname in tables.RELATIONS:
        f = FIELDS[fname]
        vals = catalog.sample_parameters(rid, 1, seed)[0]
        pairs.append((catalog.instantiate(rid, vals, f),
                      catalog.instantiate(rid, catalog._relation_images(
                          catalog.entry(rid)["params"], exprs, f, vals), f)))
    for id1, id2 in tables.DISTINCT_PAIRS:
        pairs.append(tuple(
            catalog.instantiate(eid, catalog.sample_parameters(eid, 1, seed)[0])
            for eid in (id1, id2)))
    return pairs


def test_first_difference_matches_full_comparison():
    """The lazy comparison against complete fingerprints of fresh copies,
    on the catalog pairs at seeds 0-2 and on seeded F3 tables: pairs of
    independent tables, and tables against a sparser copy of themselves."""
    pairs = [p for seed in range(3) for p in _catalog_pairs(seed)]
    rng = random.Random(41)
    f3 = FIELDS["F3"]
    for trial in range(120):
        n = rng.randrange(2, 5)
        density = rng.choice((0.2, 0.4, 0.7))
        upper = trial % 3 != 0
        table = [[[f3.random(rng) if (k > max(i, j) or not upper)
                   and rng.random() < density else f3.zero
                   for k in range(n)] for j in range(n)] for i in range(n)]
        if trial % 2:
            other = [[[c if rng.random() < 0.8 else f3.zero for c in vec]
                      for vec in row] for row in table]
        else:
            other = [[[f3.random(rng) if (k > max(i, j) or not upper)
                       and rng.random() < density else f3.zero
                       for k in range(n)] for j in range(n)]
                     for i in range(n)]
        pairs.append((Algebra(f3, table), Algebra(f3, other)))
    found = {}
    for a, b in pairs:
        want = _full_first_difference(
            fingerprint(Algebra(a.field, a.table)),
            fingerprint(Algebra(b.field, b.table)))
        assert first_difference(a, b) == want, (a.label, b.label)
        found[want] = found.get(want, 0) + 1
    assert len(found) >= 10, found

def test_change_field():
    a = catalog.instantiate("CD3_01")
    f5 = FIELDS["F5"]
    b = a.change_field(f5, lambda c: f5.from_fraction(c))
    assert b.field.name == "F5"
    assert b.is_nilpotent()
    assert b.annihilator().dim == 1


def _left_mult(a, x):
    """Matrix of y -> x*y."""
    return Matrix.from_cols(a.field, [a.multiply(x, a.basis_vector(j))
                                      for j in range(a.dim)])


def _right_mult(a, x):
    """Matrix of y -> y*x."""
    return Matrix.from_cols(a.field, [a.multiply(a.basis_vector(j), x)
                                      for j in range(a.dim)])


def _reference_derivations(a):
    """Der(A) from dense equations, one row per (i, j, k), written from the
    dense structure table."""
    f, n = a.field, a.dim
    rows = []
    for i, j, k in product(range(n), repeat=3):
        row = [f.zero] * (n * n)
        for c in range(n):
            row[k * n + c] = row[k * n + c] + a.table[i][j][c]
        for r in range(n):
            row[r * n + i] = row[r * n + i] - a.table[r][j][k]
            row[r * n + j] = row[r * n + j] - a.table[i][r][k]
        if any(row):
            rows.append(row)
    return Subspace(f, n * n, dense_kernel(f, n * n, rows))


def _reference_is_cd_by_operators(a, der):
    """The kernel route: every commutator of two of the dense L_e_i and
    R_e_i lies in der, which is Der(A)."""
    ops = []
    for i in range(a.dim):
        e = a.basis_vector(i)
        ops += [_left_mult(a, e), _right_mult(a, e)]
    return all(der.contains((x * y - y * x).flatten())
               for k, x in enumerate(ops) for y in ops[k + 1:])


def _check_operator_route(a, compare_der=True):
    """The operator route against the kernel route, and der_dim against
    the dense Der(A); compare_der also checks the kernel of the sparse
    derivation equations against the dense ones."""
    got = a.is_cd_by_operators()
    der = _reference_derivations(a)
    assert got == _reference_is_cd_by_operators(a, der)
    assert a.der_dim() == der.dim
    if compare_der:
        assert _derivations(a) == der
    return got


def test_cd_routes_agree_on_catalog_samples():
    """The identity, operator and kernel routes on every entry at seeds 0-2."""
    for seed in range(3):
        for eid in catalog.all_ids():
            vals = catalog.sample_parameters(eid, 1, seed)[0]
            a = catalog.instantiate(eid, vals)
            assert _check_operator_route(a) == a.is_cd_by_identities()


def test_operator_route_matches_kernel_route_random():
    """150 seeded tables of dims 2-4 per field, half strictly upper
    triangular and half unrestricted, at several densities. Over QZ12 the
    entries are twelfth roots of unity, whose sums stay short in the
    reference's rrefs."""
    rng = random.Random(39)
    outcomes = set()
    for name in ("Q", "F2", "F3", "QZ12"):
        f = FIELDS[name]
        roots = roots_of_unity(12)
        draw = ((lambda: rng.choice(roots)) if name == "QZ12"
                else (lambda: f.random(rng)))
        for trial in range(150):
            n = rng.randrange(2, 5)
            upper = trial % 2 == 0
            density = rng.choice((0.1, 0.25, 0.5))
            table = [[[draw() if (k > max(i, j) or not upper)
                       and rng.random() < density else f.zero
                       for k in range(n)] for j in range(n)]
                     for i in range(n)]
            got = _check_operator_route(Algebra(f, table), name != "QZ12")
            outcomes.add((name, upper, got))
    assert len(outcomes) == 16


def test_multiply_matches_dense_reference():
    rng = random.Random(40)
    for name in ("Q", "F2", "F3", "QZ12"):
        f = FIELDS[name]
        for _ in range(40):
            n = rng.randrange(1, 5)
            density = rng.choice((0.1, 0.3, 0.7))
            table = [[[f.random(rng) if rng.random() < density else f.zero
                       for k in range(n)] for j in range(n)] for i in range(n)]
            a = Algebra(f, table)
            for _ in range(5):
                x, y = ([f.random(rng) if rng.random() < 0.6 else f.zero
                         for _ in range(n)] for _ in range(2))
                assert a.multiply(x, y) == [
                    sum((x[i] * y[j] * table[i][j][k] for i in range(n)
                         for j in range(n)), f.zero) for k in range(n)]


def _reference_is_nilpotent(a):
    """Nilpotency of the multiplication algebra M(A), built as the
    associative closure of the L_e and R_e in flattened n x n matrices,
    by taking its powers until they vanish or stop shrinking."""
    f, n = a.field, a.dim
    mats = []
    for i in range(n):
        e = a.basis_vector(i)
        mats += [_left_mult(a, e), _right_mult(a, e)]
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
        assert "square_funcs" not in a._cache


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
