"""A small arithmetic expression language.

Catalog coefficient strings like "(alpha*(lambda-2)+1)", transformation
formulas and values typed at the command line are parsed here and evaluated
by ``eval_field`` over a field, or over POLY_RING with each name bound to its
own variable (``poly_str``). Operators: + - * / ^ and parentheses; names are
unicode identifiers (common greek letters are folded to their spelled-out
form). A call ``name(i, j)`` of integer literals evaluates to
``env[name](i, j)``, as the D(i,j) and N(k) atoms of form literals do.
"""

from __future__ import annotations

from functools import cache

from .poly import POLY_RING, MultiPoly
from .scalars import divide

GREEK = {
    "λ": "lambda", "α": "alpha", "β": "beta", "γ": "gamma",
    "δ": "delta", "ε": "epsilon", "ω": "omega", "ξ": "xi",
}


def _tokens(s: str):
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^(),":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            out.append(int(s[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            name = s[i:j]
            out.append(GREEK.get(name, name))
            i = j
        else:
            raise ValueError("bad character %r in %r" % (ch, s))
    return out


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = (("add" if op == "+" else "sub"), node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = (("mul" if op == "*" else "div"), node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        node = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                raise ValueError("negative exponents are not supported")
            e = self.take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer literal")
            node = ("pow", node, e)
        return node

    def atom(self):
        t = self.take()
        if t == "(":
            node = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if isinstance(t, int):
            return ("num", t)
        if isinstance(t, str) and t not in "+-*/^(),":
            if self.peek() != "(":
                return ("var", t)
            args, sep = [], self.take()
            while sep in ("(", ","):
                args.append(self.take())
                sep = self.take()
            if sep != ")" or not all(isinstance(x, int) for x in args):
                raise ValueError("%s(...) takes integer literals" % t)
            return ("call", t, tuple(args))
        raise ValueError("unexpected token %r" % (t,))


@cache
def parse(s: str):
    """The syntax tree of s, as nested tuples; memoised, as nothing
    mutates a tree."""
    p = _Parser(_tokens(s))
    node = p.expr()
    if p.peek() is not None:
        raise ValueError("trailing input in %r" % s)
    return node


def variables(ast) -> set:
    kind = ast[0]
    if kind in ("num", "call"):
        return set()
    if kind == "var":
        return {ast[1]}
    if kind in ("neg", "pow"):
        return variables(ast[1])
    return variables(ast[1]) | variables(ast[2])


def eval_field(ast, field, env):
    """Evaluate over a field or POLY_RING; env maps variable names to its
    elements."""
    kind = ast[0]
    if kind == "num":
        return field.from_fraction(ast[1])
    if kind in ("var", "call"):
        if ast[1] not in env:
            raise KeyError("unbound variable %r" % ast[1])
        return env[ast[1]] if kind == "var" else env[ast[1]](*ast[2])
    if kind == "neg":
        return -eval_field(ast[1], field, env)
    if kind == "pow":
        return eval_field(ast[1], field, env) ** ast[2]
    a = eval_field(ast[1], field, env)
    b = eval_field(ast[2], field, env)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind != "div":
        raise RuntimeError("unknown expression node %r" % (kind,))
    if not b:
        raise ZeroDivisionError("division by zero while evaluating expression")
    return divide(a, b)


def eval_str(s: str, field, env):
    return eval_field(parse(s), field, env)


def poly_str(s: str) -> MultiPoly:
    """The string as a polynomial in its names; a divisor must be a nonzero
    constant (ValueError otherwise)."""
    ast = parse(s)
    return eval_field(ast, POLY_RING,
                      {v: MultiPoly.var(v) for v in variables(ast)})


def field_env(field):
    """The names a field gives its own elements: z, i and omega in QZ12."""
    return {label: getattr(field, nm)
            for label, nm in (("z", "zeta"), ("i", "i"), ("omega", "omega"))
            if hasattr(field, nm)}
