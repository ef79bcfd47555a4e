"""Independent checks of nilext's outputs.

Nothing here calls nilext code. Structure tables are rebuilt from the raw
catalog rows (``nilext.tables`` is data only) with this module's own
expression evaluator and its own arithmetic over Q (stdlib ``Fraction``),
Q(z) with z a primitive 12th root of unity, and F_p. Program values are
read through ``to_own`` and compared with what these rebuilt tables say.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import ast
import keyword
import re
from fractions import Fraction
from itertools import product


class Cyc:
    """Element of Q(z), z^4 = z^2 - 1, as coordinates on 1, z, z^2, z^3."""

    __slots__ = ("c",)

    def __init__(self, coords):
        self.c = tuple(Fraction(x) for x in coords)

    @staticmethod
    def lift(x):
        return x if isinstance(x, Cyc) else Cyc((x, 0, 0, 0))

    def __add__(self, other):
        o = Cyc.lift(other)
        return Cyc(a + b for a, b in zip(self.c, o.c))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(-a for a in self.c)

    def __sub__(self, other):
        return self + (-Cyc.lift(other))

    def __rsub__(self, other):
        return Cyc.lift(other) - self

    def __mul__(self, other):
        o = Cyc.lift(other)
        acc = [Fraction(0)] * 7
        for i, a in enumerate(self.c):
            for j, b in enumerate(o.c):
                acc[i + j] += a * b
        for d in range(6, 3, -1):  # z^d = z^(d-2) - z^(d-4)
            acc[d - 2] += acc[d]
            acc[d - 4] -= acc[d]
        return Cyc(acc[:4])

    __rmul__ = __mul__

    def inverse(self):
        # y with self * y = 1 is the first column of the inverse of the
        # matrix of multiplication by self.
        cols = [(self * Cyc([int(k == j) for k in range(4)])).c
                for j in range(4)]
        inv = inverse(_transpose(cols), Fraction(0))
        if inv is None:
            raise ZeroDivisionError("Cyc division by zero")
        return Cyc(row[0] for row in inv)

    def __truediv__(self, other):
        return self * Cyc.lift(other).inverse()

    def __rtruediv__(self, other):
        return Cyc.lift(other) * self.inverse()

    def __pow__(self, n):
        out = Cyc((1, 0, 0, 0))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.lift(other)
        return isinstance(other, Cyc) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return "Cyc%r" % (self.c,)


class Mod:
    """Element of F_p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _o(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, Fraction):
            return Mod(other.numerator, self.p) / other.denominator
        return Mod(other, self.p)

    def __add__(self, other):
        return Mod(self.v + self._o(other).v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Mod(-self.v, self.p)

    def __sub__(self, other):
        return Mod(self.v - self._o(other).v, self.p)

    def __rsub__(self, other):
        return Mod(self._o(other).v - self.v, self.p)

    def __mul__(self, other):
        return Mod(self.v * self._o(other).v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._o(other)
        if o.v == 0:
            raise ZeroDivisionError("F_p division by zero")
        return Mod(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        return self._o(other) / self

    def __pow__(self, n):
        return Mod(pow(self.v, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        if not isinstance(other, Mod):
            return False
        return (self.p, self.v) == (other.p, other.v)

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return "Mod(%d, %d)" % (self.v, self.p)


class Ring:
    """One of the coefficient fields, with its constants and named elements."""

    def __init__(self, name):
        self.name = name
        if name == "Q":
            self.const = Fraction
            self.named = {}
        elif name == "QZ12":
            self.const = lambda n: Cyc((n, 0, 0, 0))
            z = Cyc((0, 1, 0, 0))
            self.named = {"z": z, "i": z ** 3, "omega": z ** 4}
        elif name.startswith("F"):
            p = int(name[1:])
            self.const = lambda n: Mod(n, p)
            self.named = {}
        else:
            raise ValueError("unknown field " + name)
        self.zero = self.const(0)
        self.one = self.const(1)


def to_own(x):
    """A program scalar (Fraction, Cyc12 or FpElt) as this module's value."""
    if hasattr(x, "coeffs"):
        return Cyc(x.coeffs)
    if hasattr(x, "p") and hasattr(x, "v"):
        return Mod(x.v, x.p)
    return Fraction(x)


def evaluate(src, ring, env):
    """Value of a catalog coefficient string such as '(alpha*(lambda-2)+1)'."""
    scope = dict(ring.named)
    scope.update(env)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return ring.const(node.value)
        if isinstance(node, ast.Name):
            return scope[node.id[:-1] if node.id in renamed else node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return ev(node.operand)
        if isinstance(node, ast.BinOp):
            a = ev(node.left)
            if isinstance(node.op, ast.Pow):
                n = node.right
                if not (isinstance(n, ast.Constant) and type(n.value) is int
                        and n.value >= 0):
                    raise ValueError("exponent must be a natural number")
                return a ** n.value
            b = ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
        raise ValueError("unsupported expression %r" % src)

    # Names such as 'lambda' are Python keywords; parse them as 'lambda_'.
    renamed = set()

    def rename(m):
        if keyword.iskeyword(m.group()):
            renamed.add(m.group() + "_")
            return m.group() + "_"
        return m.group()

    text = re.sub(r"[A-Za-z_]\w*", rename, src.replace("^", "**"))
    return ev(ast.parse(text, mode="eval"))


# --- linear algebra over any of the fields -------------------------------

def _echelon(rows, zero):
    """Row echelon form by Gaussian elimination; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(rows, zero):
    return len(_echelon(rows, zero)[1]) if rows else 0


# --- structure tables ----------------------------------------------------

def table(products, dim, ring, env):
    """Structure constants T[i][j][k] of a raw catalog product list."""
    t = [[[ring.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, src, k in products:
        t[i - 1][j - 1][k - 1] = t[i - 1][j - 1][k - 1] + evaluate(src, ring,
                                                                   env)
    return t


def table_of_algebra(a):
    """A program Algebra's table, read entry by entry into own values."""
    return [[[to_own(c) for c in vec] for vec in row] for row in a.table]


def multiply(t, x, y, zero):
    n = len(t)
    out = [zero] * n
    for i in range(n):
        if x[i] == zero:
            continue
        for j in range(n):
            if y[j] == zero:
                continue
            c = x[i] * y[j]
            for k in range(n):
                if t[i][j][k] != zero:
                    out[k] = out[k] + c * t[i][j][k]
    return out


def products_vanish(t, zero, length):
    """Whether every product of `length` basis elements grown one factor at
    a time, x -> x*e_j or e_j*x, is zero: for length = dim + 1 this says the
    multiplication algebra is nilpotent, which is nilpotency of t."""
    n = len(t)
    basis = [tuple(zero + (k == i) for k in range(n)) for i in range(n)]
    words = set(basis)
    for _ in range(length - 1):
        words = {tuple(v) for x in words for e in basis
                 for v in (multiply(t, x, e, zero), multiply(t, e, x, zero))}
    return all(all(c == zero for c in v) for v in words)


def coboundary_rows(t):
    """Flattened grids (i, j) -> T[i][j][k], one per k: they span B^2."""
    n = len(t)
    return [[t[i][j][k] for i in range(n) for j in range(n)] for k in range(n)]


def form_space_dim(t, zero):
    """dim of all bilinear forms modulo coboundaries."""
    n = len(t)
    return n * n - rank(coboundary_rows(t), zero)


def _matmul(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def is_isomorphism(phi, ta, tb, zero):
    """phi (rows; column i is the image of basis vector i) is invertible
    and phi(x*y) = phi(x)*phi(y) from table ta to table tb."""
    n = len(ta)
    if len(phi) != len(tb) or any(len(r) != n for r in phi) or len(tb) != n:
        return False
    if rank(phi, zero) != n:
        return False
    cols = _transpose(phi)
    for i in range(n):
        for j in range(n):
            lhs = [sum((phi[r][k] * ta[i][j][k] for k in range(n)), zero)
                   for r in range(n)]
            if lhs != multiply(tb, cols[i], cols[j], zero):
                return False
    return True


def inverse(m, zero):
    """Inverse of a square matrix (rows), or None when it is singular."""
    n = len(m)
    one = zero + 1
    rows, pivots = _echelon([list(r) + [one if i == j else zero
                                        for j in range(n)]
                             for i, r in enumerate(m)], zero)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in rows]


def transport(t, g, zero):
    """Table of the same algebra on the basis f_i = sum_p g[p][i] e_p."""
    n = len(t)
    ginv = inverse(g, zero)
    out = [[None] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        v = [zero] * n
        for p, q in product(range(n), repeat=2):
            c = g[p][i] * g[q][j]
            if c != zero:
                v = [x + c * y for x, y in zip(v, t[p][q])]
        out[i][j] = [sum((ginv[r][k] * v[k] for k in range(n)), zero)
                     for r in range(n)]
    return out


def pullback(w, gram, zero):
    """Grid of (x, y) -> gram(w x, w y)."""
    return _matmul(_matmul(_transpose(w), gram, zero), w, zero)


def same_line_mod_b2(t, g1, g2, zero):
    """Whether forms g1 and g2 span the same line modulo coboundaries,
    neither being a coboundary."""
    b2 = coboundary_rows(t)
    f1 = [x for r in g1 for x in r]
    f2 = [x for r in g2 for x in r]
    rb = rank(b2, zero)
    return (rank(b2 + [f1], zero) == rb + 1 == rank(b2 + [f1, f2], zero))


# --- catalog entries -----------------------------------------------------

def entry_env(e, values, ring):
    return {nm: ring.const(0) + to_own(values[nm]) for nm in e["params"]}


def rebuilt_from_base(tables, nid, ring, env):
    """Own rebuild of an N4 entry: the base table with the cocycle's values
    appended as a fourth coordinate. Returns (table, base table, gram)."""
    e = tables.N4[nid]
    base_e = tables.BASES[e["base"]]
    base_env = {}
    for nm in base_e["params"]:
        src = e["base_params"].get(nm)
        base_env[nm] = env[nm] if src is None else evaluate(src, ring, env)
    bt = table(base_e["products"], base_e["dim"], ring, base_env)
    n = base_e["dim"]
    forms = tables.SETUPS[e["base"]]["forms"]
    gram = [[ring.zero] * n for _ in range(n)]
    for src, idx in e["cocycle"]:
        c = evaluate(src, ring, env)
        for fsrc, i, j in forms[idx - 1]:
            gram[i - 1][j - 1] = gram[i - 1][j - 1] + c * evaluate(
                fsrc, ring, base_env)
    return extension_table(bt, gram, ring.zero), bt, gram


def check_n4_entry(tables, nid, values, stored, ring):
    """The stored table of a sampled N4 entry (as rebuilt by the program or
    by `table`) is nilpotent of length 5 and is the base table with the
    cocycle appended."""
    e = tables.N4[nid]
    env = entry_env(e, values, ring)
    problems = []
    own = table(e["products"], e["dim"], ring, env)
    if stored != own:
        problems.append("%s: stored table differs from the raw products"
                        % nid)
    if not products_vanish(stored, ring.zero, 5):
        problems.append("%s: a product of five basis elements is nonzero"
                        % nid)
    rebuilt, _, _ = rebuilt_from_base(tables, nid, ring, env)
    if rebuilt != stored:
        problems.append("%s: stored table is not base + cocycle" % nid)
    return problems


def check_witness(phi_rows, ta, tb, ring):
    phi = [[to_own(x) for x in r] for r in phi_rows]
    if not is_isomorphism(phi, ta, tb, ring.zero):
        return ["witness is not an invertible multiplicative map"]
    return []


def check_census(census, t, reps, ring, p):
    """Independent properties of one orbit census over F_p: the orbits
    partition the projective lines of the 7-dim form space, each orbit size
    divides the automorphism count, and each witness is an automorphism
    of the base table carrying the representative's line to the member's."""
    problems = []
    zero = ring.zero
    n = len(t)
    r = form_space_dim(t, zero)
    if len(reps) != r or rank(coboundary_rows(t) + [
            [x for row in g for x in row] for g in reps], zero) != n * n:
        problems.append("representatives are not a basis modulo B^2")
    want = (p ** r - 1) // (p - 1)
    seen = set()
    for orb in census.orbits:
        for m in orb.members:
            key = tuple(c.v for c in m)
            if key in seen:
                problems.append("line %s lies in two orbits" % (key,))
            seen.add(key)
        if census.aut_count % orb.size:
            problems.append("orbit size %d does not divide |Aut| = %d"
                            % (orb.size, census.aut_count))
    if len(seen) != want or census.lines_total != want:
        problems.append("%d lines in orbits, %d reported, %d expected"
                        % (len(seen), census.lines_total, want))

    checked = {}
    for orb in census.orbits:
        g_rep = form_of(orb.rep, reps, zero)
        if set(orb.witnesses) != set(orb.members):
            problems.append("orbit of %s: witnesses do not cover members"
                            % (orb.rep,))
            continue
        for m, w in orb.witnesses.items():
            wr = tuple(tuple(to_own(x) for x in row) for row in w.rows)
            ok = checked.get(wr)
            if ok is None:
                ok = checked[wr] = is_isomorphism([list(x) for x in wr],
                                                  t, t, zero)
            if not ok:
                problems.append("witness for %s is not an automorphism"
                                % (m,))
            elif not same_line_mod_b2(t, pullback([list(x) for x in wr],
                                                  g_rep, zero),
                                      form_of(m, reps, zero), zero):
                problems.append("witness does not carry %s to %s"
                                % (orb.rep, m))
    return problems


def form_of(coords, reps, zero):
    """Grid of the form with the given (program) coordinates on reps."""
    n = len(reps[0])
    g = [[zero] * n for _ in range(n)]
    for c, rep in zip(coords, reps):
        c = to_own(c)
        if c != zero:
            g = [[x + c * y for x, y in zip(gr, rr)] for gr, rr in zip(g, rep)]
    return g


def extension_table(t, gram, zero):
    """Table of the central extension of t by one form."""
    n = len(t)
    out = [[[zero] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i, j in product(range(n), repeat=2):
        out[i][j] = list(t[i][j]) + [gram[i][j]]
    return out
