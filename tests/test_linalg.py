import random
from fractions import Fraction

import pytest

from nilext import catalog, orbits, tables
from nilext.linalg import (Matrix, Subspace, add_row, complement_reps,
                           kernel_basis, reduce_row, solve_linear, sparse_rref,
                           vec_scale, vec_sub, zero_vec)
from nilext.scalars import FIELDS, QQ, Cyc12, FpElt, divide


def dense_kernel(f, ncols, rows):
    """kernel_basis of dense rows."""
    return kernel_basis(f, ncols, [dict(enumerate(r)) for r in rows])


def intersect(u, w):
    """The intersection of two subspaces: each kernel vector (a, b) of the
    columns u.basis + w.basis gives the common vector sum_i a_i u_i."""
    u._same_ambient(w)
    f, cols = u.field, u.basis + w.basis
    ker = kernel_basis(f, len(cols), [{i: b[k] for i, b in enumerate(cols)}
                                      for k in range(u.ambient)])
    return Subspace(f, u.ambient, [
        [sum((c * b[k] for c, b in zip(v, u.basis)), f.zero)
         for k in range(u.ambient)] for v in ker])


def _random_matrix(f, rng, r, c):
    return Matrix(f, [[f.random(rng) for _ in range(c)] for _ in range(r)])


def test_rank_nullity_random():
    rng = random.Random(21)
    fields = [FIELDS[nm] for nm in ("Q", "F2", "F3", "F5", "F7", "QZ12")]
    for trial in range(210):
        f = fields[trial % len(fields)]
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = _random_matrix(f, rng, r, c)
        ker = dense_kernel(f, c, m.rows)
        assert m.rank() + len(ker) == c
        for v in ker:
            assert m.apply(v) == zero_vec(f, r)


def test_kernel_basis_of_no_rows_is_unit_vectors():
    for name in ("Q", "F2"):
        f = FIELDS[name]
        for n in range(4):
            assert kernel_basis(f, n, []) == [
                [f.one if i == j else f.zero for j in range(n)]
                for i in range(n)]
            assert kernel_basis(f, n, [{}, {}]) == kernel_basis(f, n, [])


def test_kernel_basis_ignores_explicit_zero_coefficients():
    """Explicit zeros in the sparse rows, in a row with other entries or
    making up the whole row, change nothing."""
    rng = random.Random(29)
    for name in ("Q", "F3"):
        f = FIELDS[name]
        for _ in range(20):
            m = _random_sparse_matrix(f, rng)
            padded = [dict(enumerate(r)) for r in m.rows] + [
                {j: f.zero for j in range(m.ncols)}]
            ker = kernel_basis(f, m.ncols, padded)
            rows, pivots = _reference_rref(m)
            assert ker == dense_kernel(f, m.ncols, rows)
            assert len(ker) == m.ncols - len(pivots)
            assert all(not any(m.apply(v)) for v in ker)


def test_solve_linear_random():
    rng = random.Random(22)
    f = FIELDS["Q"]
    for _ in range(200):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = _random_matrix(f, rng, r, c)
        x = [f.random(rng) for _ in range(c)]
        b = m.apply(x)
        sol = solve_linear(m, b)
        assert sol is not None
        assert m.apply(sol) == b


def test_solve_linear_unsolvable():
    f = FIELDS["Q"]
    m = Matrix(f, [[f.one, f.one], [f.one, f.one]])
    assert solve_linear(m, [f.zero, f.one]) is None


def test_inverse_round_trip():
    rng = random.Random(23)
    f = FIELDS["F5"]
    found = 0
    while found < 50:
        m = _random_matrix(f, rng, 4, 4)
        if not m.is_invertible():
            continue
        found += 1
        assert m * m.inverse() == Matrix.identity(f, 4)
        assert m.inverse() * m == Matrix.identity(f, 4)


class _FractionQ:
    """Q with every scalar a Fraction, as Q was before integral values
    became ints: the reference of the Q oracle below."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)


def _q_entry(rng):
    """A Q scalar: zero, a small int or a fraction."""
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.7:
        return rng.randint(-9, 9)
    return QQ.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(2, 7)))


def _assert_q_entries(got, want):
    """Entry by entry equal, and every entry an int or a Fraction: never a
    float, never a bool."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) in (int, Fraction) and x == y


def test_q_results_match_all_fraction_reference():
    """rref, inverse, kernel_basis and solve_linear over Q, on seeded
    matrices of int and fractional entries, against the same matrices with
    every entry a Fraction over _FractionQ."""
    rng = random.Random(31)
    fq = _FractionQ()
    seen = {"inverse": 0, "singular": 0, "solved": 0, "unsolvable": 0}
    for _ in range(300):
        r = rng.randrange(1, 7)
        c = r if rng.random() < 0.5 else rng.randrange(1, 7)
        rows = [[_q_entry(rng) for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:  # a dependent row
            k = _q_entry(rng)
            rows[-1] = [k * x for x in rows[0]]
        b = [_q_entry(rng) for _ in range(r)]
        m = Matrix(QQ, rows)
        ref = Matrix(fq, [[Fraction(x) for x in row] for row in rows])
        (got, pivots), (want, ref_pivots) = m.rref(), ref.rref()
        assert pivots == ref_pivots and len(got) == len(want)
        for row, ref_row in zip(got, want):
            _assert_q_entries(row, ref_row)
        ker = kernel_basis(QQ, c, [dict(enumerate(row)) for row in m.rows])
        ref_ker = kernel_basis(fq, c, [dict(enumerate(row))
                                       for row in ref.rows])
        assert len(ker) == len(ref_ker) == c - len(pivots)
        for v, w in zip(ker, ref_ker):
            _assert_q_entries(v, w)
        x = solve_linear(m, b)
        y = solve_linear(ref, [Fraction(v) for v in b])
        assert (x is None) == (y is None)
        if x is not None:
            _assert_q_entries(x, y)
            _assert_q_entries(m.apply(x), b)
        seen["solved" if x is not None else "unsolvable"] += 1
        if r == c:
            inv, ref_inv = m.try_inverse(), ref.try_inverse()
            assert (inv is None) == (ref_inv is None)
            if inv is not None:
                for row, ref_row in zip(inv.rows, ref_inv.rows):
                    _assert_q_entries(row, ref_row)
                assert m * inv == Matrix.identity(QQ, r)
            seen["inverse" if inv is not None else "singular"] += 1
    assert min(seen.values()) >= 20, seen


def test_subspace_operations():
    f = FIELDS["Q"]
    e = [Matrix.identity(f, 4).rows[k] for k in range(4)]
    u = Subspace(f, 4, [e[0], e[1]])
    w = Subspace(f, 4, [e[1], e[2]])
    assert u.dim == 2 and w.dim == 2
    assert u.add(w).dim == 3
    inter = intersect(u, w)
    assert inter.dim == 1
    assert inter.contains(e[1])
    assert not inter.contains(e[0])
    assert u.contains(e[0])
    assert not u.contains(e[3])
    for empty in (Subspace(f, 4), Subspace(f, 4, [zero_vec(f, 4)])):
        assert intersect(u, empty).dim == intersect(empty, u).dim == 0
    with pytest.raises(ValueError):
        intersect(u, Subspace(f, 3, e[:1]))


def test_subspace_dim_formula_random():
    rng = random.Random(24)
    f = FIELDS["F3"]
    for _ in range(100):
        vs = [[f.random(rng) for _ in range(5)] for _ in range(3)]
        ws = [[f.random(rng) for _ in range(5)] for _ in range(3)]
        u = Subspace(f, 5, vs)
        w = Subspace(f, 5, ws)
        assert u.add(w).dim + intersect(u, w).dim == u.dim + w.dim


def test_complement_reps():
    f = FIELDS["Q"]
    e = [Matrix.identity(f, 3).rows[k] for k in range(3)]
    small = Subspace(f, 3, [e[0]])
    big = Subspace(f, 3, e)
    reps = complement_reps(big, small)
    assert len(reps) == 2
    span = small
    for v in reps:
        assert not span.contains(v)
        span = span.add(Subspace(f, 3, [v]))
    assert span.dim == 3


def _reference_complement_reps(u, w):
    """complement_reps by a greedy loop with membership by the dense rescan
    and a new Subspace after every vector it keeps."""
    reps, cur = [], w
    for b in u.basis:
        if not _reference_contains(cur, b):
            reps.append(list(b))
            cur = cur.add(Subspace(u.field, u.ambient, [b]))
    return reps


def _random_combination(f, rng, vecs, n):
    v = zero_vec(f, n)
    for b in vecs:
        c = f.random(rng)
        v = [x + c * y for x, y in zip(v, b)]
    return v


def test_complement_reps_matches_rebuild_loop_random():
    rng = random.Random(43)
    dims = set()
    for name in ("Q", "QZ12", "F2", "F3", "F5", "F7"):
        f = FIELDS[name]
        for _ in range(12 if name == "QZ12" else 30):
            n = rng.randrange(1, 8)
            u = Subspace(f, n, [[f.random(rng) if rng.random() < 0.6
                                 else f.zero for _ in range(n)]
                                for _ in range(rng.randrange(n + 1))])
            w = Subspace(f, n, [_random_combination(f, rng, u.basis, n)
                                for _ in range(rng.randrange(u.dim + 1))])
            reps = complement_reps(u, w)
            assert reps == _reference_complement_reps(u, w)
            assert len(reps) == u.dim - w.dim
            dims.add((u.dim, w.dim))
    assert len(dims) >= 12


def test_flatten_unflatten():
    f = FIELDS["Q"]
    m = Matrix(f, [[f.from_int(1), f.from_int(2)],
                   [f.from_int(3), f.from_int(4)]])
    assert Matrix.unflatten(f, 2, m.flatten()) == m


def _reference_contains(sub, vec):
    """Membership by rescanning every basis row for its leading entry."""
    v = list(vec)
    for b in sub.basis:
        lead = next(i for i, x in enumerate(b) if x)
        c = v[lead]
        if c:
            v = [x - c * y for x, y in zip(v, b)]
    return not any(v)


def test_subspace_pivots_match_leading_entries():
    rng = random.Random(26)
    for name in ("F3", "Q"):
        f = FIELDS[name]
        for _ in range(60):
            n = rng.randrange(1, 7)
            shared = [f.random(rng) for _ in range(n)]

            def sparse():
                return [f.random(rng) if rng.random() < 0.5 else f.zero
                        for _ in range(n)]
            u = Subspace(f, n, [shared] + [sparse() for _ in
                                           range(rng.randrange(3))])
            w = Subspace(f, n, [shared] + [sparse() for _ in
                                           range(rng.randrange(3))])
            for sub in (u, w, u.add(w), intersect(u, w), Subspace(f, n)):
                assert sub.pivots == [next(i for i, x in enumerate(b) if x)
                                      for b in sub.basis]
                vecs = [sparse() for _ in range(4)]
                for _ in range(4):
                    v = zero_vec(f, n)
                    for b in sub.basis:
                        c = f.random(rng)
                        v = [x + c * y for x, y in zip(v, b)]
                    vecs.append(v)
                for v in vecs:
                    assert sub.contains(v) == _reference_contains(sub, v)


def _reference_rref(m):
    """rref by dense elimination: scale and subtract whole rows."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = divide(f.one, rows[r][c])
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = vec_sub(rows[i], vec_scale(rows[i][c], rows[r]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


_SCALAR_TYPES = {"Q": (int, Fraction), "QZ12": (Cyc12,)}


def _same_scalar_type(f, x, y):
    """Both entries are of the field's element types: FpElt over F_p, Cyc12
    over QZ12, and int or Fraction (never bool or float) over Q."""
    types = _SCALAR_TYPES.get(f.name, (FpElt,))
    return all(type(v) in types for v in (x, y))


def _assert_rref_matches_reference(m):
    rows, pivots = m.rref()
    ref_rows, ref_pivots = _reference_rref(m)
    assert pivots == ref_pivots
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        assert len(row) == len(ref)
        for x, y in zip(row, ref):
            assert _same_scalar_type(m.field, x, y) and x == y


def _random_sparse_matrix(f, rng):
    """1-20 rows, 1-17 columns, some zero columns and zero rows, and
    rows that are combinations of earlier rows (so rank-deficient)."""
    nr, nc = rng.randrange(1, 21), rng.randrange(1, 18)
    density = rng.choice((0.15, 0.4, 0.8))
    zero_cols = set(rng.sample(range(nc), rng.randrange(nc)))
    rows = []
    for _ in range(nr):
        kind = rng.random()
        if kind < 0.1:
            rows.append(zero_vec(f, nc))
        elif kind < 0.3 and rows:
            row = zero_vec(f, nc)
            for prev in rng.sample(rows, min(len(rows), 2)):
                c = f.random(rng)
                row = [x + c * y for x, y in zip(row, prev)]
            rows.append(row)
        else:
            rows.append([f.random(rng) if j not in zero_cols
                         and rng.random() < density else f.zero
                         for j in range(nc)])
    return Matrix(f, rows)


def test_rref_matches_dense_reference_random():
    rng = random.Random(27)
    for name in ("Q", "QZ12", "F2", "F3", "F5", "F7"):
        f = FIELDS[name]
        for _ in range(12 if name == "QZ12" else 40):
            _assert_rref_matches_reference(_random_sparse_matrix(f, rng))


def test_sparse_rref_matches_rref_random():
    """The pivot rows of the sparse rows, sorted by pivot, are the dense
    reference rref of the matrix: same rank, same pivots, same entries."""
    rng = random.Random(28)
    ranks = set()
    for name in ("Q", "QZ12", "F2", "F3", "F5", "F7"):
        f = FIELDS[name]
        for _ in range(12 if name == "QZ12" else 40):
            m = _random_sparse_matrix(f, rng)
            sparse = [{j: x for j, x in enumerate(row) if x} for row in m.rows]
            pivots = sparse_rref(f, sparse)
            rows, cols = _reference_rref(m)
            assert sorted(pivots) == cols
            assert [[pivots[c].get(j, f.zero) for j in range(m.ncols)]
                    for c in cols] == rows
            assert all(all(pivots[c].values()) for c in cols)
            ranks.add(len(pivots))
    assert len(ranks) >= 10


def test_rref_matches_dense_reference_on_iso_search(monkeypatch):
    """Every matrix that iso_search queries on the seven relations and on a
    fingerprint-equal distinctness pair hand to rref."""
    seen = []
    rref = Matrix.rref

    def recording(m):
        seen.append(Matrix(m.field, m.rows))
        return rref(m)
    monkeypatch.setattr(Matrix, "rref", recording)
    for rid, images, fname in tables.RELATIONS:
        f = FIELDS[fname]
        grid = ([f.one, f.omega, f.omega * f.omega, f.zero]
                if hasattr(f, "omega") else [f.one, -f.one, f.zero])
        vals = catalog.sample_parameters(rid, 1, 3)[0]
        moved = catalog._relation_images(tables.N4[rid]["params"], images,
                                         f, vals)
        v = orbits.iso_search(catalog.instantiate(rid, vals, f),
                              catalog.instantiate(rid, moved, f), grid=grid,
                              primes=())
        assert v.kind == "witness"
    f = FIELDS["Q"]
    a, b = (catalog.instantiate(eid, catalog.sample_parameters(eid, 1, 3)[0])
            for eid in ("N4_13", "N4_14"))
    assert orbits.iso_search(a, b, grid=[f.one, -f.one, f.zero],
                             primes=(2,)).kind == "undecided"
    monkeypatch.undo()
    assert ({m.field.name for m in seen} == {"Q", "QZ12", "F2"}
            and len(seen) > 100)
    for m in seen:
        _assert_rref_matches_reference(m)


def _assert_reduced_pivot_rows(f, pivots):
    """Each pivot row is 1 at its own pivot, 0 left of it and at the other
    pivots, and stores no zero."""
    for p, row in pivots.items():
        assert min(row) == p and row[p] == f.one and all(row.values())
        assert not any(q in row for q in pivots if q != p)


def test_add_row_and_reduce_row_cases():
    rng = random.Random(44)
    for name in ("Q", "QZ12", "F2", "F3", "F5", "F7"):
        f = FIELDS[name]
        for _ in range(8 if name == "QZ12" else 25):
            m = _random_sparse_matrix(f, rng)
            pivots = {}
            for r in m.rows:
                row = dict(enumerate(r))
                rank = len(pivots)
                new = add_row(f, pivots, row)
                assert row == dict(enumerate(r))
                assert len(pivots) == rank + new
                _assert_reduced_pivot_rows(f, pivots)
                before = {p: dict(prow) for p, prow in pivots.items()}
                inside = _random_combination(f, rng, [r] + [
                    [prow.get(j, f.zero) for j in range(m.ncols)]
                    for prow in pivots.values()], m.ncols)
                for old in (row, {}, {j: f.zero for j in range(m.ncols)},
                            dict(enumerate(inside))):
                    assert reduce_row(pivots, old) == {}
                    assert not add_row(f, pivots, old)
                    assert pivots == before
            assert pivots == sparse_rref(f, map(dict, map(enumerate, m.rows)))


def _reference_reduce(sub, vec):
    """vec less sub.basis[i] times its entry at sub.pivots[i], row by row,
    on dense vectors; the nonzero entries left."""
    v = list(vec)
    for b, lead in zip(sub.basis, sub.pivots):
        v = vec_sub(v, vec_scale(v[lead], b))
    return {j: x for j, x in enumerate(v) if x}


def test_subspace_reduce_matches_dense_reduction():
    rng = random.Random(45)
    for name in ("Q", "QZ12", "F2", "F3", "F5", "F7"):
        f = FIELDS[name]
        for _ in range(8 if name == "QZ12" else 25):
            m = _random_sparse_matrix(f, rng)
            sub = Subspace(f, m.ncols, m.rows)
            for v in [[f.random(rng) for _ in range(m.ncols)],
                      _random_combination(f, rng, m.rows, m.ncols),
                      zero_vec(f, m.ncols)] + m.rows:
                rest = sub.reduce(v)
                assert rest == _reference_reduce(sub, v)
                assert sub.contains(v) == (not rest) == _reference_contains(
                    sub, v)
            with pytest.raises(ValueError):
                sub.reduce(zero_vec(f, m.ncols + 1))
