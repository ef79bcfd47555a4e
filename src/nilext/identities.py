"""Multilinear polynomial identities and their evaluation on algebras.

A word is either a variable index or a pair of words (a product). An
identity is a signed combination of words in which every word contains
each variable exactly once, so checking it on all basis tuples is a
complete test.

Words are evaluated bottom-up over sparse tables. A word's shape is the
word with its variables renumbered in order of appearance, so ((0,1),2)
and ((1,2),0) share the shape ((0,1),2). The table of a shape maps each
tuple of basis indices, one per variable in that order, to the word's
nonzero value {index: coefficient}; zero values are not stored. A
product's table is built from the pairs of nonzero entries of its factors'
tables that meet a nonzero structure constant, so the work follows the
nonzero products and not dim ** arity. Tables are kept per algebra in
``Algebra._cache["words"]``, which relies on an algebra's structure table
never changing after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .linalg import Subspace, kernel_basis


@dataclass(frozen=True)
class Identity:
    name: str
    arity: int
    terms: tuple  # of (Fraction coefficient, word)

    def __post_init__(self):
        for _, w in self.terms:
            order = []
            _shape(w, order)
            if sorted(order) != list(range(self.arity)):
                raise ValueError("identity %s is not multilinear" % self.name)


def _shape(word, order):
    """The word with its variables renumbered in order of appearance; the
    original variables are appended to ``order`` as they appear."""
    if isinstance(word, int):
        order.append(word)
        return len(order) - 1
    return (_shape(word[0], order), _shape(word[1], order))


def _table(algebra, shape):
    """{basis tuple: nonzero sparse value} of a shape, memoised."""
    memo = algebra._cache.setdefault("words", {})
    if shape in memo:
        return memo[shape]
    if isinstance(shape, int):
        one = algebra.field.one
        memo[shape] = {(i,): {i: one} for i in range(algebra.dim)}
        return memo[shape]
    right = {}  # j -> [(tuple, coefficient of e_j)] over the right table
    for t, x in _table(algebra, _shape(shape[1], [])).items():
        for j, c in x.items():
            right.setdefault(j, []).append((t, c))
    acc = {}
    for tu, xu in _table(algebra, shape[0]).items():
        for i, a in xu.items():
            for j, terms in algebra._rows.get(i, ()):
                for tv, b in right.get(j, ()):
                    ab = a * b
                    out = acc.setdefault(tu + tv, {})
                    for k, c in terms:
                        out[k] = out[k] + ab * c if k in out else ab * c
    table = {t: {k: c for k, c in out.items() if c} for t, out in acc.items()}
    memo[shape] = {t: out for t, out in table.items() if out}
    return memo[shape]


def _entries(algebra, factors):
    """(basis tuple in variable order, [value of each factor]) for every
    choice of one nonzero table entry per factor. The factors' variables
    together must be 0 .. arity-1, each once."""
    order = []
    tables = []
    for w in factors:
        part = []
        tables.append(_table(algebra, _shape(w, part)).items())
        order += part
    pos = sorted(range(len(order)), key=order.__getitem__)
    place = None if order == sorted(order) else itemgetter(*pos)
    for picks in product(*tables):
        tup = sum((t for t, _ in picks), ())
        yield (place(tup) if place else tup), [x for _, x in picks]


def _factor(field, c):
    """How a term with coefficient c enters a sum, as (subtract, factor).
    Every builtin term has c = 1 or -1: its values are then added or
    subtracted as they are, and factor is None. Otherwise they are
    multiplied by factor, c in the field, and added."""
    if c in (1, -1):
        return c == -1, None
    return False, field.from_fraction(c)


def first_failure(algebra, ident: Identity):
    """First basis tuple, in product order, where the identity fails, with
    its value as a dense vector; None if the identity holds."""
    z = algebra.field.zero
    acc = {}
    for c, w in ident.terms:
        sub, cf = _factor(algebra.field, c)
        for tup, (x,) in _entries(algebra, [w]):
            out = acc.setdefault(tup, {})
            for k, y in x.items():
                if cf is not None:
                    y = cf * y
                if k in out:
                    out[k] = out[k] - y if sub else out[k] + y
                else:
                    out[k] = -y if sub else y
    failing = [tup for tup, out in acc.items() if any(out.values())]
    if not failing:
        return None
    tup = min(failing)
    return tup, [acc[tup].get(k, z) for k in range(algebra.dim)]


def holds(algebra, ident: Identity) -> bool:
    """Whether the identity vanishes on all basis tuples."""
    return first_failure(algebra, ident) is None


def induced_cocycle_constraints(algebra, *idents) -> Subspace:
    """Bilinear forms theta for which the one-dimensional extension by theta
    still satisfies every given identity.

    The extension's product discards the added coordinate, so inner products
    evaluate in the base algebra and only the outermost product of each word
    contributes a theta term: the coefficient of theta(e_i, e_j) at a basis
    tuple is the sum over terms of the coefficient times the i-th entry of
    the left factor and the j-th of the right. The rows of all identities
    are stacked under one kernel. Raises ValueError when the base algebra
    itself fails one of the identities.
    """
    f = algebra.field
    n = algebra.dim
    rows = []
    for ident in idents:
        if not (algebra.satisfies(ident.name)
                if _BUILTINS.get(ident.name) is ident
                else holds(algebra, ident)):
            raise ValueError("base algebra fails %s" % ident.name)
        acc = {}
        for c, w in ident.terms:
            sub, cf = _factor(f, c)
            for tup, (xu, xv) in _entries(algebra, w):
                row = acc.setdefault(tup, {})
                for i, x in xu.items():
                    cx = cf * x if cf is not None else -x if sub else x
                    for j, y in xv.items():
                        row[i * n + j] = row.get(i * n + j, f.zero) + cx * y
        rows += acc.values()
    return Subspace(f, n * n, kernel_basis(f, n * n, rows))


# Variable layout for the arity-4 families: x=0, y=1, a=2, b=3.
_BUILTINS = {}


def _register(name, arity, terms):
    _BUILTINS[name] = Identity(name, arity,
                               tuple((Fraction(s), w) for s, w in terms))


# commutator of two right multiplications is a derivation
_register("cd1", 4, [
    (1, (((0, 1), 2), 3)), (-1, (((0, 1), 3), 2)),
    (-1, (((0, 2), 3), 1)), (1, (((0, 3), 2), 1)),
    (-1, (0, ((1, 2), 3))), (1, (0, ((1, 3), 2))),
])

# mixed left/right commutator is a derivation
_register("cd2", 4, [
    (1, ((2, (0, 1)), 3)), (-1, (2, ((0, 1), 3))),
    (-1, (((2, 0), 3), 1)), (1, ((2, (0, 3)), 1)),
    (-1, (0, ((2, 1), 3))), (1, (0, (2, (1, 3)))),
])

# commutator of two left multiplications is a derivation
_register("cd3", 4, [
    (1, (2, (3, (0, 1)))), (-1, (3, (2, (0, 1)))),
    (-1, ((2, (3, 0)), 1)), (1, ((3, (2, 0)), 1)),
    (-1, (0, (2, (3, 1)))), (1, (0, (3, (2, 1)))),
])

# [[x,y],z] + [[y,z],x] + [[z,x],y] with [a,b] = ab - ba
_register("jacobi_commutator", 3, [
    (1, ((0, 1), 2)), (-1, ((1, 0), 2)), (-1, (2, (0, 1))), (1, (2, (1, 0))),
    (1, ((1, 2), 0)), (-1, ((2, 1), 0)), (-1, (0, (1, 2))), (1, (0, (2, 1))),
    (1, ((2, 0), 1)), (-1, ((0, 2), 1)), (-1, (1, (2, 0))), (1, (1, (0, 2))),
])

# P([x,y],z) + P([y,z],x) + P([z,x],y) with P the product itself
_register("alia0", 3, [
    (1, ((0, 1), 2)), (-1, ((1, 0), 2)),
    (1, ((1, 2), 0)), (-1, ((2, 1), 0)),
    (1, ((2, 0), 1)), (-1, ((0, 2), 1)),
])

# same with P(a,b) = ab + ba
_register("alia1", 3, [
    (1, ((0, 1), 2)), (-1, ((1, 0), 2)), (1, (2, (0, 1))), (-1, (2, (1, 0))),
    (1, ((1, 2), 0)), (-1, ((2, 1), 0)), (1, (0, (1, 2))), (-1, (0, (2, 1))),
    (1, ((2, 0), 1)), (-1, ((0, 2), 1)), (1, (1, (2, 0))), (-1, (1, (0, 2))),
])

# same with P(a,b) = ba (the opposite product)
_register("alia_opposite", 3, [
    (1, (2, (0, 1))), (-1, (2, (1, 0))),
    (1, (0, (1, 2))), (-1, (0, (2, 1))),
    (1, (1, (2, 0))), (-1, (1, (0, 2))),
])

_register("left3zero", 3, [(1, ((0, 1), 2))])
_register("right3zero", 3, [(1, (0, (1, 2)))])
_register("commutative", 2, [(1, (0, 1)), (-1, (1, 0))])
_register("anticommutative", 2, [(1, (0, 1)), (1, (1, 0))])


def builtin(name: str) -> Identity:
    if name not in _BUILTINS:
        raise KeyError("unknown identity %r" % name)
    return _BUILTINS[name]


CD_NAMES = ("cd1", "cd2", "cd3")
ALIA_NAMES = ("alia0", "alia1", "alia_opposite")
