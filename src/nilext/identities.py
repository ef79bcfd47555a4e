"""Multilinear polynomial identities and their evaluation on algebras.

A word is either a variable index or a pair of words (a product). An
identity is a signed combination of words in which every word contains
each variable exactly once, so checking it on all basis tuples is a
complete test.

Word values are memoised per algebra: a concrete word such as ((e0*e1)*e2)
is evaluated once, as a sparse vector, and kept in ``Algebra._cache``. That
relies on an algebra's structure table never changing after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import Matrix, Subspace, kernel_basis


def _word_vars(word, acc):
    if isinstance(word, int):
        acc.append(word)
    else:
        _word_vars(word[0], acc)
        _word_vars(word[1], acc)
    return acc


def render_word(word) -> str:
    if isinstance(word, int):
        return "x%d" % (word + 1)
    return "(%s*%s)" % (render_word(word[0]), render_word(word[1]))


@dataclass(frozen=True)
class Identity:
    name: str
    arity: int
    terms: tuple  # of (Fraction coefficient, word)

    def __post_init__(self):
        for _, w in self.terms:
            if sorted(_word_vars(w, [])) != list(range(self.arity)):
                raise ValueError("identity %s is not multilinear" % self.name)

    def render(self) -> str:
        bits = []
        for c, w in self.terms:
            if c == 1:
                bits.append("+%s" % render_word(w))
            elif c == -1:
                bits.append("-%s" % render_word(w))
            else:
                bits.append("%+s*%s" % (c, render_word(w)))
        return " ".join(bits)


def _subst(word, tup):
    """The concrete word with each variable replaced by its basis index."""
    if isinstance(word, int):
        return tup[word]
    return (_subst(word[0], tup), _subst(word[1], tup))


def _value(algebra, word):
    """Sparse value {index: coefficient} of a concrete word, memoised."""
    if isinstance(word, int):
        return {word: algebra.field.one}
    memo = algebra._cache.setdefault("words", {})
    if word not in memo:
        z = algebra.field.zero
        out = {}
        for i, x in _value(algebra, word[0]).items():
            for j, y in _value(algebra, word[1]).items():
                for k, c in algebra._nonzero.get((i, j), ()):
                    out[k] = out.get(k, z) + x * y * c
        memo[word] = {k: c for k, c in out.items() if c}
    return memo[word]


def _instances(algebra, ident: Identity):
    """Pairs (basis tuple, [(coefficient, concrete word)]) for every tuple."""
    coeffs = [algebra.field.from_fraction(c) for c, _ in ident.terms]
    for tup in product(range(algebra.dim), repeat=ident.arity):
        yield tup, [(cf, _subst(w, tup)) for cf, (_, w) in zip(coeffs, ident.terms)]


def first_failure(algebra, ident: Identity):
    """First basis tuple where the identity fails, with the value, or None."""
    for tup, terms in _instances(algebra, ident):
        acc = [algebra.field.zero] * algebra.dim
        for cf, w in terms:
            for k, x in _value(algebra, w).items():
                acc[k] = acc[k] + cf * x
        if any(acc):
            return tup, acc
    return None


def holds(algebra, ident: Identity) -> bool:
    """Whether the identity vanishes on all basis tuples."""
    return first_failure(algebra, ident) is None


def induced_cocycle_constraints(algebra, ident: Identity) -> Subspace:
    """Bilinear forms theta for which the one-dimensional extension by theta
    still satisfies the identity.

    The extension's product discards the added coordinate, so inner products
    evaluate in the base algebra and only the outermost product of each word
    contributes a theta term. Raises ValueError when the base algebra itself
    fails the identity.
    """
    if not (algebra.satisfies(ident.name) if _BUILTINS.get(ident.name) is ident
            else holds(algebra, ident)):
        raise ValueError("base algebra fails %s" % ident.name)
    f = algebra.field
    n = algebra.dim
    rows = []
    for _, terms in _instances(algebra, ident):
        row = [f.zero] * (n * n)
        for cf, (u, v) in terms:
            for i, x in _value(algebra, u).items():
                cx = cf * x
                for j, y in _value(algebra, v).items():
                    row[i * n + j] = row[i * n + j] + cx * y
        if any(row):
            rows.append(row)
    return Subspace(f, n * n, kernel_basis(Matrix(f, rows)) if rows
                    else Matrix.identity(f, n * n).rows)


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


def builtin_names():
    return sorted(_BUILTINS)


CD_NAMES = ("cd1", "cd2", "cd3")
ALIA_NAMES = ("alia0", "alia1", "alia_opposite")
