"""Multivariate polynomials over Q with exact coefficients.

Terms are stored sparsely as {monomial: Fraction}. A monomial names its own
variables: it is the tuple of (variable, exponent) pairs with exponent >= 1,
sorted by variable, and () is the constant monomial. Polynomials in any
variables therefore combine term by term with no shared variable list.
"""

from __future__ import annotations

from fractions import Fraction


def _monomial(pairs) -> tuple:
    """The monomial of (variable, exponent) pairs: repeated variables summed,
    zero exponents dropped; ValueError for a negative or non-int exponent."""
    exps = {}
    for v, e in pairs:
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be an int >= 0, got %r" % (e,))
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        ts = {}
        for mono, c in (terms or {}).items():
            mono = _monomial(mono)
            ts[mono] = ts.get(mono, Fraction(0)) + Fraction(c)
        object.__setattr__(self, "terms", {m: c for m, c in ts.items() if c})

    @classmethod
    def _of(cls, terms: dict) -> "MultiPoly":
        """A polynomial over normalised monomials, with zero terms dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", {m: c for m, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.terms,)

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls._of({(): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls._of({((name, 1),): Fraction(1)})

    def is_constant(self) -> bool:
        return all(not mono for mono in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("%r is not a constant" % self)
        return self.terms.get((), Fraction(0))

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        ts = dict(self.terms)
        for mono, c in other.terms.items():
            ts[mono] = ts.get(mono, Fraction(0)) + c
        return MultiPoly._of(ts)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        ts = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _monomial(m1 + m2)
                ts[m] = ts.get(m, Fraction(0)) + c1 * c2
        return MultiPoly._of(ts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        c = other.constant_value()
        if not c:
            raise ZeroDivisionError("polynomial division by zero")
        return self * MultiPoly.const(Fraction(1) / c)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be an int >= 0, got %r" % (n,))
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        """Equal polynomials hash alike, and a constant like its Fraction."""
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, field, env):
        """Evaluate at field elements; env maps every variable to a value."""
        acc = field.zero
        for mono, c in self.terms.items():
            t = field.from_fraction(c)
            for v, e in mono:
                t = t * env[v] ** e
            acc = acc + t
        return acc

    def __repr__(self):
        """Terms in descending lexicographic order of their exponent vectors
        over the sorted names that occur."""
        if not self.terms:
            return "0"
        names = sorted({v for mono in self.terms for v, _ in mono})

        def exponents(mono):
            exps = dict(mono)
            return [exps.get(v, 0) for v in names]

        bits = []
        for mono in sorted(self.terms, key=exponents, reverse=True):
            c = self.terms[mono]
            text = "*".join(v if e == 1 else "%s^%d" % (v, e)
                            for v, e in mono)
            if not text:
                bits.append(str(c))
            elif c == 1:
                bits.append(text)
            elif c == -1:
                bits.append("-" + text)
            else:
                bits.append("%s*%s" % (c, text))
        s = bits[0]
        for b in bits[1:]:
            s += b if b.startswith("-") else "+" + b
        return s


def _as_poly(x):
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    return NotImplemented


class _PolyRing:
    """Field-like wrapper so matrix arithmetic runs over polynomials."""

    name = "poly"
    zero = MultiPoly()
    one = MultiPoly.const(1)

    @staticmethod
    def from_int(n):
        return MultiPoly.const(n)

    @staticmethod
    def from_fraction(q):
        return MultiPoly.const(q)

    @staticmethod
    def render(p) -> str:
        return repr(p)

    def __repr__(self):
        return "_PolyRing()"


POLY_RING = _PolyRing()
