"""Multivariate polynomials over Q with exact coefficients.

Terms are stored sparsely as {exponent tuple: Fraction} against a sorted
variable tuple; binary operations merge the variable universes first, so
polynomials built over different variable sets combine transparently.
"""

from __future__ import annotations

from fractions import Fraction


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        vs = tuple(vars)
        if vs != tuple(sorted(vs)):
            raise ValueError("variables must be sorted")
        ts = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(exp) != len(vs):
                    raise ValueError("exponent %r does not match variables %r"
                                     % (exp, vs))
                ts[tuple(int(e) for e in exp)] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", ts)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = Fraction(c)
        return cls((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("%r is not a constant" % self)
        return sum(self.terms.values(), Fraction(0))

    def _aligned(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return None
        if self.vars == other.vars:
            return self, other
        allv = tuple(sorted(set(self.vars) | set(other.vars)))
        return self._embed(allv), other._embed(allv)

    def _embed(self, allv) -> "MultiPoly":
        if allv == self.vars:
            return self
        pos = [allv.index(v) for v in self.vars]
        ts = {}
        for exp, c in self.terms.items():
            row = [0] * len(allv)
            for p, e in zip(pos, exp):
                row[p] = e
            ts[tuple(row)] = c
        return MultiPoly(allv, ts)

    def __add__(self, other):
        pair = self._aligned(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ts = dict(a.terms)
        for exp, c in b.terms.items():
            ts[exp] = ts.get(exp, Fraction(0)) + c
        return MultiPoly(a.vars, ts)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        pair = self._aligned(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._aligned(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ts = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                ts[e] = ts.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(a.vars, ts)

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
        pair = self._aligned(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.terms == b.terms

    def __hash__(self):
        """Equal polynomials hash alike: a constant like its Fraction, and
        otherwise by the terms with their zero exponents left out."""
        if self.is_constant():
            return hash(sum(self.terms.values(), Fraction(0)))
        return hash(frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exp) if e), c)
            for exp, c in self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, field, env):
        """Evaluate at field elements; env maps every variable to a value."""
        acc = field.zero
        for exp, c in self.terms.items():
            t = field.from_fraction(c)
            for v, e in zip(self.vars, exp):
                if e:
                    t = t * env[v] ** e
            acc = acc + t
        return acc

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                ("%s" % v if e == 1 else "%s^%d" % (v, e))
                for v, e in zip(self.vars, exp) if e
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (c, mono))
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

    def __repr__(self):
        return "_PolyRing()"


POLY_RING = _PolyRing()
