"""Exact scalar arithmetic.

Three coefficient domains: the rationals, the degree-4 cyclotomic field
Q(z) where z is a primitive 12th root of unity (so the field contains
i = z^3 and the primitive cube root omega = z^4), and the prime fields F_p
for p in {2, 3, 5, 7}.

A rational value is a Python int when it is integral and a stdlib Fraction
when it is not; the coordinates of a Cyc12 follow the same rule. The two
types compare and hash alike (``2 == Fraction(2)``), and arithmetic on
Fractions may leave an integral Fraction in a result. Since ``int / int``
is a float, scalars are divided with ``divide``, never with a bare ``/``.
"""

from __future__ import annotations

from fractions import Fraction


def rational(q):
    """q, anything Fraction accepts, as an int when it is integral and as a
    Fraction otherwise."""
    if q.__class__ is int:
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def divide(a, b):
    """a / b exactly. Two ints divide to an int or a Fraction, never to a
    float; other operands use their own division. A Fraction quotient that
    is integral comes back as an int."""
    if isinstance(a, int) and isinstance(b, int):
        q = Fraction(a, b)
    else:
        q = a / b
    return q.numerator if q.__class__ is Fraction and q.denominator == 1 else q


# z^4 = z^2 - 1, hence the reduced coordinates of z^k for k = 0..11 on the
# basis (1, z, z^2, z^3).
_ZPOW = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 1, 0),
    (0, -1, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, -1, 0),
    (0, 1, 0, -1),
)


class Cyc12:
    """Element of Q(z), stored as coordinates on (1, z, z^2, z^3)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(map(rational, coeffs))
        if len(cs) != 4:
            raise ValueError("Cyc12 needs 4 coordinates, got %d" % len(cs))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc12 is immutable")

    def __reduce__(self):
        return Cyc12, (self.coeffs,)

    @classmethod
    def from_rational(cls, q) -> "Cyc12":
        return _cyc12((rational(q), 0, 0, 0))

    @classmethod
    def zpower(cls, k: int) -> "Cyc12":
        return cls(_ZPOW[k % 12])

    def __add__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return _cyc12(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _cyc12(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        acc = [0] * 7
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    acc[i + j] += a * b
        c0, c1, c2, c3, c4, c5, c6 = acc
        if c4:  # z^4 = z^2 - 1
            c0, c2 = c0 - c4, c2 + c4
        if c5:  # z^5 = z^3 - z
            c1, c3 = c1 - c5, c3 + c5
        if c6:  # z^6 = -1
            c0 = c0 - c6
        return _cyc12(tuple(map(rational, (c0, c1, c2, c3))))

    __rmul__ = __mul__

    def galois(self, k: int) -> "Cyc12":
        """Apply the automorphism z -> z^k (k coprime to 12)."""
        if k % 12 not in (1, 5, 7, 11):
            raise ValueError("z -> z^%d is not an automorphism" % k)
        acc = [0] * 4
        for j, a in enumerate(self.coeffs):
            if a:
                for t, s in enumerate(_ZPOW[(j * k) % 12]):
                    if s:
                        acc[t] = acc[t] + a if s > 0 else acc[t] - a
        return _cyc12(tuple(map(rational, acc)))

    def inverse(self) -> "Cyc12":
        if not any(self.coeffs):
            raise ZeroDivisionError("division by zero in QZ12")
        conj = self.galois(5) * self.galois(7) * self.galois(11)
        norm = self * conj
        if any(norm.coeffs[1:]):
            raise RuntimeError("the norm of %r is not rational" % (self,))
        n = norm.coeffs[0]
        return _cyc12(tuple(divide(c, n) for c in conj.coeffs))

    def __truediv__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int, not %r" % (n,))
        out = Cyc12.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        """A rational element hashes like the int or Fraction it equals."""
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element has nonrational part")
        return self.coeffs[0]

    def __repr__(self):
        return "Cyc12(%s)" % render_cyc(self)


def _cyc12(coeffs):
    """A Cyc12 holding the tuple ``coeffs`` as it is. Cyc12's own
    arithmetic builds its results here: their four coordinates are ints and
    Fractions already, so the public constructor's conversion is skipped."""
    x = object.__new__(Cyc12)
    object.__setattr__(x, "coeffs", coeffs)
    return x


def _as_cyc(x):
    if isinstance(x, Cyc12):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc12.from_rational(x)
    return NotImplemented


def render_cyc(x: Cyc12) -> str:
    parts = []
    names = ("", "z", "z^2", "z^3")
    for c, n in zip(x.coeffs, names):
        if not c:
            continue
        if n == "":
            parts.append(str(c))
        elif c == 1:
            parts.append(n)
        elif c == -1:
            parts.append("-" + n)
        else:
            parts.append("%s*%s" % (c, n))
    if not parts:
        return "0"
    s = parts[0]
    for p in parts[1:]:
        s += p if p.startswith("-") else "+" + p
    return s


class FpElt:
    """Element of F_p, for p in 2, 3, 5 and 7.

    Elements are interned: there is exactly one object per (p, residue),
    built at import, and ``FpElt(v, p)`` returns it. Each element holds its
    row of the addition and multiplication tables, its negative and its
    inverse, so same-field arithmetic is a tuple index and same-field
    equality is identity.

    ``==`` against an int or Fraction compares its reduction mod p, so
    ``FpElt(1, 2) == 3`` holds. The hash is the residue ``v``, so only the
    reduced residues 0..p-1 hash like the ints they equal. Elements of
    different primes are unequal, and arithmetic between them raises
    TypeError.
    """

    __slots__ = ("v", "p", "_add", "_mul", "_neg", "_inv")

    def __new__(cls, v: int, p: int):
        try:
            return _FP[p][v % p]
        except KeyError:
            raise ValueError("no prime field F%s" % (p,)) from None

    def __init__(self, v: int, p: int):
        """Nothing to set: ``__new__`` returns a finished element."""

    def __setattr__(self, name, value):
        raise AttributeError("FpElt is immutable")

    def __reduce__(self):
        return FpElt, (self.v, self.p)

    def _coerce(self, other):
        """other as an element of this field; None for a foreign type."""
        if isinstance(other, FpElt):
            if other.p != self.p:
                raise TypeError("cannot combine elements of F%d and F%d"
                                % (self.p, other.p))
            return other
        if isinstance(other, int):
            return _FP[self.p][other % self.p]
        if isinstance(other, Fraction):
            return _fp_from_fraction(other, self.p)
        return None

    def __add__(self, other):
        o = (other if other.__class__ is FpElt and other.p == self.p
             else self._coerce(other))
        return NotImplemented if o is None else self._add[o.v]

    __radd__ = __add__

    def __neg__(self):
        return self._neg

    def __sub__(self, other):
        o = (other if other.__class__ is FpElt and other.p == self.p
             else self._coerce(other))
        return NotImplemented if o is None else self._add[o._neg.v]

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._add[self._neg.v]

    def __mul__(self, other):
        o = (other if other.__class__ is FpElt and other.p == self.p
             else self._coerce(other))
        return NotImplemented if o is None else self._mul[o.v]

    __rmul__ = __mul__

    def inverse(self) -> "FpElt":
        if self._inv is None:
            raise ZeroDivisionError("division by zero in F%d" % self.p)
        return self._inv

    def __truediv__(self, other):
        o = (other if other.__class__ is FpElt and other.p == self.p
             else self._coerce(other))
        return NotImplemented if o is None else self._mul[o.inverse().v]

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._mul[self.inverse().v]

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int, not %r" % (n,))
        return _FP[self.p][pow(self.v, n, self.p)]

    def __eq__(self, other):
        if isinstance(other, FpElt):
            return other is self
        try:
            o = self._coerce(other)
        except ValueError:  # a Fraction with no value mod p
            return False
        return NotImplemented if o is None else o is self

    def __hash__(self):
        return self.v

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d mod %d" % (self.v, self.p)


def _prime_field_elements(p):
    """The p interned elements of F_p, with their table rows filled in."""
    elts = tuple(object.__new__(FpElt) for _ in range(p))
    for v, e in enumerate(elts):
        for name, value in (
                ("v", v), ("p", p),
                ("_add", tuple(elts[(v + w) % p] for w in range(p))),
                ("_mul", tuple(elts[v * w % p] for w in range(p))),
                ("_neg", elts[-v % p]),
                ("_inv", elts[pow(v, p - 2, p)] if v else None)):
            object.__setattr__(e, name, value)
    return elts


_FP = {p: _prime_field_elements(p) for p in (2, 3, 5, 7)}


def _fp_from_fraction(q, p: int) -> FpElt:
    """The int or Fraction q mod p."""
    if q.denominator % p == 0:
        raise ValueError("%s has no value mod %d" % (q, p))
    return _FP[p][q.numerator * pow(q.denominator, -1, p) % p]


class RationalField:
    name = "Q"
    zero = 0
    one = 1

    def from_int(self, n: int):
        return rational(n)

    def from_fraction(self, q):
        return rational(q)

    def render(self, x) -> str:
        return str(x)

    def random(self, rng):
        return self.from_fraction(Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 9)))

    def elements(self):
        raise ValueError("Q is infinite")

    def __repr__(self):
        return "RationalField()"


class CyclotomicField12:
    name = "QZ12"
    zero = Cyc12.from_rational(0)
    one = Cyc12.from_rational(1)
    zeta = Cyc12.zpower(1)
    i = Cyc12.zpower(3)
    omega = Cyc12.zpower(4)

    def from_int(self, n: int) -> Cyc12:
        return Cyc12.from_rational(n)

    def from_fraction(self, q) -> Cyc12:
        return Cyc12.from_rational(q)

    def render(self, x: Cyc12) -> str:
        return render_cyc(x)

    def random(self, rng):
        return Cyc12([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])

    def elements(self):
        raise ValueError("QZ12 is infinite")

    def __repr__(self):
        return "CyclotomicField12()"


class PrimeField:
    def __init__(self, p: int):
        if p not in _FP:
            raise ValueError("no prime field F%s" % (p,))
        self.p = p
        self.name = "F%d" % p
        self.zero = FpElt(0, p)
        self.one = FpElt(1, p)

    def from_int(self, n: int) -> FpElt:
        return FpElt(n, self.p)

    def from_fraction(self, q) -> FpElt:
        return _fp_from_fraction(rational(q), self.p)

    def render(self, x: FpElt) -> str:
        return "%d mod %d" % (x.v, x.p)

    def random(self, rng):
        return FpElt(rng.randrange(self.p), self.p)

    def elements(self):
        return [FpElt(v, self.p) for v in range(self.p)]

    def __repr__(self):
        return "PrimeField(%d)" % self.p


FIELDS = {
    "Q": RationalField(),
    "QZ12": CyclotomicField12(),
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F5": PrimeField(5),
    "F7": PrimeField(7),
}

QQ = FIELDS["Q"]
QZ12 = FIELDS["QZ12"]
