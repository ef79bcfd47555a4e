import random
from fractions import Fraction
from itertools import product

import pytest

from nilext import catalog, identities, tables
from nilext.algebra import Algebra
from nilext.extensions import BilinearForm, cd_cocycle_space, central_extension
from nilext.identities import (ALIA_NAMES, CD_NAMES, Identity, builtin,
                               first_failure, holds,
                               induced_cocycle_constraints)
from nilext.linalg import Subspace, zero_vec
from nilext.scalars import FIELDS, QQ
from test_linalg import dense_kernel, intersect


def builtin_names():
    """The names of the registered identities, sorted."""
    return sorted(identities._BUILTINS)


def is_zero_vec(field, a):
    return not any(a)


# Dense reference evaluator: every word is rebuilt from basis vectors at
# every basis tuple, sharing nothing between tuples or terms.

def _dense_word(a, word, args):
    if isinstance(word, int):
        return args[word]
    return a.multiply(_dense_word(a, word[0], args),
                      _dense_word(a, word[1], args))


def _dense_first_failure(a, ident):
    f = a.field
    n = a.dim
    basis = [a.basis_vector(i) for i in range(n)]
    for tup in product(range(n), repeat=ident.arity):
        args = [basis[i] for i in tup]
        acc = [f.zero] * n
        for c, w in ident.terms:
            v = _dense_word(a, w, args)
            acc = [s + f.from_fraction(c) * x for s, x in zip(acc, v)]
        if not is_zero_vec(f, acc):
            return tup, acc
    return None


def _dense_constraints(a, ident):
    f = a.field
    n = a.dim
    basis = [a.basis_vector(i) for i in range(n)]
    rows = []
    for tup in product(range(n), repeat=ident.arity):
        args = [basis[i] for i in tup]
        row = [f.zero] * (n * n)
        for c, w in ident.terms:
            u = _dense_word(a, w[0], args)
            v = _dense_word(a, w[1], args)
            for i in range(n):
                for j in range(n):
                    row[i * n + j] += f.from_fraction(c) * u[i] * v[j]
        if not is_zero_vec(f, row):
            rows.append(row)
    return Subspace(f, n * n, dense_kernel(f, n * n, rows))


def test_builtin_names_present():
    names = builtin_names()
    for nm in CD_NAMES + ALIA_NAMES + ("jacobi_commutator",):
        assert nm in names


def test_bases_satisfy_derivation_identities():
    for bid in ("CD2s_01", "CD3_01", "CD3_02", "CD3_03", "CD3s_01",
                "CD3s_02", "CD3s_03"):
        a = catalog.instantiate(bid)
        for nm in CD_NAMES:
            assert holds(a, builtin(nm)), (bid, nm)


def test_non_cd_entry_fails_with_witness():
    a = catalog.instantiate("N4_17")
    bad = [nm for nm in CD_NAMES if not holds(a, builtin(nm))]
    assert bad
    tup = first_failure(a, builtin(bad[0]))
    assert tup is not None
    with pytest.raises(ValueError):
        induced_cocycle_constraints(a, builtin(bad[0]))


def test_zero_algebra_satisfies_everything():
    f = QQ
    table = [[zero_vec(f, 2) for _ in range(2)] for _ in range(2)]
    a = Algebra(f, table, label="null2")
    for nm in builtin_names():
        assert holds(a, builtin(nm))


def test_anticommutative_detector():
    f = QQ
    table = [[zero_vec(f, 3) for _ in range(3)] for _ in range(3)]
    table[0][1][2] = f.one
    table[1][0][2] = -f.one
    a = Algebra(f, table, label="heis3")
    assert holds(a, builtin("anticommutative"))
    assert not holds(a, builtin("commutative"))
    assert holds(a, builtin("jacobi_commutator"))


def test_induced_constraints_characterize_extensions():
    rng = random.Random(41)
    a = catalog.instantiate("CD3_02")
    ident = builtin("alia0")
    assert holds(a, ident)
    space = induced_cocycle_constraints(a, ident)
    n = a.dim
    for _ in range(40):
        coords = [a.field.random(rng) for _ in range(n * n)]
        theta = BilinearForm.from_flat(a.field, n, coords)
        ext = central_extension(a, [theta])
        assert holds(ext, ident) == space.contains(coords)


def test_induced_constraints_dim_example():
    a = catalog.instantiate("CD3_01")
    for nm in ALIA_NAMES:
        assert induced_cocycle_constraints(a, builtin(nm)).dim == 9


def test_cd_identities_have_expected_arity():
    for nm in CD_NAMES:
        ident = builtin(nm)
        assert ident.arity == 4
    assert builtin("alia0").arity == 3


def _random_nilpotent(rng, f, n):
    """Random table with e_i e_j in the span of e_k, k > max(i, j)."""
    table = [[zero_vec(f, n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(max(i, j) + 1, n):
                if rng.random() < 0.4:
                    table[i][j][k] = f.random(rng)
    return Algebra(f, table, label="rand%d" % n)


# Identities with a coefficient of 2 and one of 1/2.
SCALED = (
    Identity("double", 3, ((Fraction(2), ((0, 1), 2)),
                           (Fraction(-1), ((1, 0), 2)),
                           (Fraction(-1), ((0, 1), 2)))),
    Identity("half", 3, ((Fraction(1, 2), (0, (1, 2))),
                         (Fraction(1, 2), (0, (2, 1))),
                         (Fraction(-1), (0, (1, 2))))),
)


def test_memoised_evaluator_agrees_with_dense_reference():
    rng = random.Random(47)
    algebras = []
    ids = [eid for eid in catalog.all_ids() if not catalog.is_stub(eid)]
    for eid in rng.sample(ids, 12):
        vals = rng.choice(catalog.sample_parameters(eid, 2, seed=3))
        algebras.append(catalog.instantiate(eid, vals))
    f3 = FIELDS["F3"]
    algebras += [_random_nilpotent(rng, f3, rng.randrange(2, 5))
                 for _ in range(12)]
    # every builtin term has coefficient 1 or -1; these two take the
    # general path
    idents = [builtin(nm) for nm in builtin_names()] + list(SCALED)
    held = 0
    for a in algebras:
        for ident in idents:
            want = _dense_first_failure(a, ident)
            assert first_failure(a, ident) == want, (a.label, ident.name)
            assert holds(a, ident) == (want is None), (a.label, ident.name)
            held += want is None
    assert 0 < held < len(algebras) * len(idents)
    # the eight base instances of the cohomology scope
    bases = [("CD3_01", {}), ("CD3_02", {}), ("CD3_03", {})]
    bases += [("CD3_04", {"lambda": lam}) for lam in (0, -1, 1, 2, 5)]
    scaled = 0
    for bid, vals in bases:
        a = catalog.instantiate(bid, vals)
        for ident in [builtin(nm) for nm in CD_NAMES + ALIA_NAMES] + [
                s for s in SCALED if holds(a, s)]:
            assert (induced_cocycle_constraints(a, ident)
                    == _dense_constraints(a, ident)), (bid, vals, ident.name)
            scaled += ident in SCALED
    assert scaled


def _random_dense(rng, f, n):
    """Random table with most entries nonzero; rarely nilpotent."""
    table = [[[f.random(rng) if rng.random() < 0.8 else f.zero
               for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return Algebra(f, table, label="dense%d" % n)


def _custom(name, arity, terms):
    return Identity(name, arity, tuple((Fraction(c), w) for c, w in terms))


# Variables out of order inside words, repeated shapes under different
# variable orders, a coefficient of 2, and arities 1 and 5.
CUSTOM = (
    _custom("shuffled4", 4, [(1, ((2, (0, 3)), 1)), (-1, (3, ((1, 0), 2))),
                             (2, ((1, 2), (3, 0))), (1, ((3, (2, 1)), 0))]),
    _custom("reorder3", 3, [(1, ((0, 1), 2)), (-1, ((1, 2), 0)),
                            (1, ((2, 0), 1))]),
    _custom("twice1", 1, [(2, 0)]),
    _custom("cancel1", 1, [(1, 0), (-1, 0)]),
    _custom("five", 5, [(1, (((0, 1), 2), (3, 4))), (-1, ((4, (2, 0)), (1, 3))),
                        (1, (0, (1, (2, (3, 4))))), (-1, (((3, 1), 4), (0, 2)))]),
)


def _random_algebras(seed, specs):
    """One random algebra per (field name, kind, dim); kind is "nil" for a
    strictly triangular table and "dense" for a mostly nonzero one."""
    rng = random.Random(seed)
    make = {"nil": _random_nilpotent, "dense": _random_dense}
    return [make[kind](rng, FIELDS[nm], n) for nm, kind, n in specs]


# QZ12 arithmetic is the slowest, so its tables stay small.
SPECS = [(nm, kind, n) for nm in ("Q", "F2", "F3", "F5")
         for kind, n in (("nil", 3), ("nil", 4), ("dense", 2), ("dense", 4))]
SPECS += [("QZ12", "nil", 3), ("QZ12", "dense", 2), ("QZ12", "dense", 3)]


def test_evaluator_agrees_with_dense_reference_on_fields():
    idents = [builtin(nm) for nm in builtin_names()] + list(CUSTOM[:4])
    held = 0
    algebras = _random_algebras(53, SPECS)
    for a in algebras:
        for ident in idents:
            want = _dense_first_failure(a, ident)
            assert first_failure(a, ident) == want, (a.label, ident.name)
            assert holds(a, ident) == (want is None), (a.label, ident.name)
            held += want is None
    assert 0 < held < len(algebras) * len(idents)
    # twice1 holds exactly in characteristic 2
    for a in _random_algebras(54, [("F2", "dense", 2), ("F3", "dense", 2)]):
        assert holds(a, CUSTOM[2]) == (a.field is FIELDS["F2"])
        assert holds(a, CUSTOM[3])


def test_evaluator_agrees_with_dense_reference_arity_five():
    ident = CUSTOM[4]
    held = 0
    algebras = _random_algebras(55, [(nm, kind, n) for nm in ("Q", "F2", "F3")
                                     for kind in ("nil", "dense")
                                     for n in (2, 3)])
    for a in algebras:
        want = _dense_first_failure(a, ident)
        assert first_failure(a, ident) == want, a.label
        held += want is None
    assert 0 < held < len(algebras)


def _canonical(word, seen):
    if isinstance(word, int):
        seen.append(word)
        return len(seen) - 1
    return (_canonical(word[0], seen), _canonical(word[1], seen))


def _subshapes(word, acc):
    """Shapes of the word and of every subword, each renumbered from 0."""
    acc.add(_canonical(word, []))
    if not isinstance(word, int):
        _subshapes(word[0], acc)
        _subshapes(word[1], acc)
    return acc


def test_word_tables_are_shared_by_shape():
    a = catalog.instantiate("CD3_02")
    idents = [builtin(nm) for nm in builtin_names()] + list(CUSTOM)
    want = set()
    for ident in idents:
        holds(a, ident)
        for _, w in ident.terms:
            _subshapes(w, want)
    assert set(a._cache["words"]) == want
    # ((0,1),2) and ((1,2),0) share one table
    assert _canonical(((1, 2), 0), []) == ((0, 1), 2)


def test_induced_constraints_agree_with_dense_reference_random():
    idents = ([builtin(nm) for nm in CD_NAMES + ALIA_NAMES
               + ("jacobi_commutator", "left3zero", "commutative")]
              + [CUSTOM[0], CUSTOM[1]])
    checked = refused = 0
    nontrivial = set()
    specs = [(nm, "nil", n) for nm in ("Q", "F2", "F3", "F5") for n in (3, 4)]
    for a in _random_algebras(57, specs + [("QZ12", "nil", 3)]):
        for ident in idents:
            if not holds(a, ident):
                refused += 1
                with pytest.raises(ValueError):
                    induced_cocycle_constraints(a, ident)
                continue
            space = induced_cocycle_constraints(a, ident)
            assert space == _dense_constraints(a, ident), (a.label, ident.name)
            checked += 1
            if space.dim < a.dim * a.dim:
                nontrivial.add(ident.name)
    assert checked and refused and len(nontrivial) >= 5


def test_stacked_cd_constraints_match_pairwise_intersection():
    """One kernel of the stacked cd1-cd3 rows is the intersection of the
    three single-identity spaces, on every base and on random CD tables and
    their opposites; each identity cuts the space down somewhere."""
    cds = [builtin(nm) for nm in CD_NAMES]
    algebras = []
    for nm in ("Q", "F2", "F3", "F5"):
        for bid in sorted(tables.BASES):
            swept = ([{"lambda": lam} for lam in catalog._COHOMOLOGY_LAMBDAS]
                     if tables.BASES[bid]["params"] else [{}])
            algebras += [catalog.instantiate(bid, vals, FIELDS[nm])
                         for vals in swept]
    rng = random.Random(61)
    randoms = [_random_nilpotent(rng, FIELDS[nm], n)
               for nm in ("Q", "F2", "F3", "F5") for n in (3, 4, 5, 5)]
    randoms += [Algebra(a.field, [list(col) for col in zip(*a.table)])
                for a in randoms]
    refused = 0
    needed = set()
    for a in algebras + randoms:
        if not all(holds(a, c) for c in cds):
            refused += 1
            with pytest.raises(ValueError):
                induced_cocycle_constraints(a, *cds)
            continue
        s1, s2, s3 = (induced_cocycle_constraints(a, c) for c in cds)
        stacked = induced_cocycle_constraints(a, *cds)
        assert stacked == intersect(intersect(s1, s2), s3), a.label
        assert cd_cocycle_space(Algebra(a.field, a.table)) == stacked
        needed.update(k for k in range(3) if stacked != (
            induced_cocycle_constraints(a, *(cds[:k] + cds[k + 1:]))))
    assert 0 < refused < len(randoms) and needed == {0, 1, 2}
    assert induced_cocycle_constraints(algebras[0]).dim == \
        algebras[0].dim ** 2
