"""Tiny arithmetic expression grammar for coefficient definitions.

Grammar (infix, left-associative except '^' which binds right and tighter
than unary minus):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Allowed names: the variables t, x, y, z (and w as an alias of x for Markov
maps) plus the functions exp, log, sin, cos, tanh, abs and the constants pi
and e.  Compiled expressions evaluate vectorized over numpy arrays and, as
every model coefficient does (see ``model``), return floats that broadcast
against their arguments rather than a copy of their full shape: a constant
tree comes back 0-d, and a bare variable as a copy of its argument.

``differentiate`` gives the exact partial derivative of a parsed tree, with
constants folded; abs differentiates to an internal ``sign`` node.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable

import numpy as np

from .errors import ParseError

__all__ = ["compile_expression", "parse_expression", "differentiate", "variables_read",
           "constant_value", "ALLOWED_FUNCTIONS", "ALLOWED_VARIABLES"]

ALLOWED_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "abs": np.abs,
}
_FUNCTIONS = {**ALLOWED_FUNCTIONS, "sign": np.sign}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}
ALLOWED_VARIABLES = ("t", "x", "y", "z", "w")
_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_]\w*)|(\*\*|[-+*/^()]))")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if not m or m.end() == self.pos:
                rest = text[self.pos:].lstrip()
                if not rest:
                    break
                raise ParseError(f"unexpected character {rest[0]!r} in expression",
                                 column=self.pos + 1)
            if m.group(1) is not None:
                self.tokens.append(("num", float(text[m.start(1):m.end()])))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2)))
            else:
                op = m.group(3)
                self.tokens.append(("op", "^" if op == "**" else op))
            self.pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def _parse_expr(tz):
    node = _parse_term(tz)
    while tz.peek() == ("op", "+") or tz.peek() == ("op", "-"):
        _, op = tz.next()
        node = (op, node, _parse_term(tz))
    return node


def _parse_term(tz):
    node = _parse_unary(tz)
    while tz.peek() == ("op", "*") or tz.peek() == ("op", "/"):
        _, op = tz.next()
        node = (op, node, _parse_unary(tz))
    return node


def _parse_unary(tz):
    # exponentiation binds tighter than the unary minus: -x^2 == -(x^2)
    if tz.peek() == ("op", "-"):
        tz.next()
        return ("neg", _parse_unary(tz))
    return _parse_power(tz)


def _parse_power(tz):
    node = _parse_atom(tz)
    if tz.peek() == ("op", "^"):
        tz.next()
        node = ("^", node, _parse_unary(tz))  # right-associative
    return node


def _parse_atom(tz):
    kind, val = tz.next()
    if kind == "num":
        return ("num", val)
    if kind == "name":
        if tz.peek() == ("op", "("):
            tz.next()
            if val not in ALLOWED_FUNCTIONS:
                raise ParseError(f"unknown function {val!r} in expression")
            arg = _parse_expr(tz)
            if tz.next() != ("op", ")"):
                raise ParseError("missing ')' in expression")
            return ("call", val, arg)
        if val in _CONSTANTS:
            return ("num", _CONSTANTS[val])
        if val not in ALLOWED_VARIABLES:
            raise ParseError(f"undefined symbol {val!r} in expression")
        return ("var", "x" if val == "w" else val)
    if kind == "op" and val == "(":
        node = _parse_expr(tz)
        if tz.next() != ("op", ")"):
            raise ParseError("missing ')' in expression")
        return node
    raise ParseError(f"unexpected token {val!r} in expression")


def _eval(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_eval(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], env))
    if op in _ARITH:
        return _ARITH[op](_eval(node[1], env), _eval(node[2], env))
    raise ParseError(f"bad node {op!r}")


# -- symbolic differentiation --------------------------------------------------

_ZERO, _ONE, _TWO, _MINUS_ONE = (("num", v) for v in (0.0, 1.0, 2.0, -1.0))


def _op(op, a, b):
    """The node (op, a, b), constant-folded and without neutral elements."""
    if a[0] == "num" and b[0] == "num":
        return ("num", float(_ARITH[op](np.float64(a[1]), b[1])))
    if op == "*" and b[0] == "num":
        a, b = b, a  # constant factor first, so nested ones fold together
    if op == "+" and a == _ZERO or op == "*" and a == _ONE:
        return b
    if op in "+-" and b == _ZERO or op in "/^" and b == _ONE:
        return a
    if op == "-" and a == _ZERO:
        return _op("*", _MINUS_ONE, b)
    if op in "*/" and a == _ZERO:
        return _ZERO
    if op == "*" and a[0] == "num" and b[0] == "*" and b[1][0] == "num":
        return _op("*", _op("*", a, b[1]), b[2])
    return (op, a, b)


def _call(name, a):
    if a[0] == "num":
        return ("num", float(_FUNCTIONS[name](a[1])))
    return ("call", name, a)


# f'(a) for the call node n = f(a); log is differentiated as a'/a
_OUTER = {
    "exp": lambda n, a: n,
    "sin": lambda n, a: _call("cos", a),
    "cos": lambda n, a: _op("*", _MINUS_ONE, _call("sin", a)),
    "tanh": lambda n, a: _op("-", _ONE, _op("^", n, _TWO)),
    "abs": lambda n, a: _call("sign", a),
    "sign": lambda n, a: _ZERO,
}


def differentiate(tree: tuple, var: str) -> tuple:
    """Exact partial derivative of a parsed tree by ``var`` (``w`` means x).

    A power whose exponent does not depend on ``var`` uses the power rule;
    only one whose exponent does takes the form a^b (b' log a + b a'/a).
    """
    var = "x" if var == "w" else var

    def d(n):
        op = n[0]
        if op == "num" or op == "var":
            return _ONE if n == ("var", var) else _ZERO
        if op == "neg":
            return _op("*", _MINUS_ONE, d(n[1]))
        if op == "call":
            a = n[2]
            return _op("/", d(a), a) if n[1] == "log" else _op("*", _OUTER[n[1]](n, a), d(a))
        a, b = n[1], n[2]
        da, db = d(a), d(b)
        if op in "+-":
            return _op(op, da, db)
        if op == "*":
            return _op("+", _op("*", da, b), _op("*", a, db))
        if op == "/":
            return _op("-", _op("/", da, b), _op("/", _op("*", a, db), _op("^", b, _TWO)))
        if db == _ZERO:
            return _op("*", _op("*", b, _op("^", a, _op("-", b, _ONE))), da)
        return _op("*", n, _op("+", _op("*", db, _call("log", a)), _op("/", _op("*", b, da), a)))

    return d(tree)


def _variables(tree: tuple) -> set:
    """The variable names a parsed tree reads (``w`` is read as x)."""
    if tree[0] == "var":
        return {tree[1]}
    return set().union(*(_variables(a) for a in tree[1:] if isinstance(a, tuple)))


def variables_read(source) -> frozenset:
    """The variable names an expression string or tree reads (``w`` is read as x)."""
    return frozenset(_variables(parse_expression(source) if isinstance(source, str) else source))


def constant_value(source) -> float:
    """The value of an expression string or tree that reads no variable (see ``variables_read``).

    It is the value the compiled callable returns, bit for bit.
    """
    return float(_eval(parse_expression(source) if isinstance(source, str) else source, {}))


def parse_expression(text: str) -> tuple:
    """Parse an expression string into its tuple tree; errors name the symbol."""
    tz = _Tokenizer(text)
    if not tz.tokens:
        raise ParseError("empty expression")
    tree = _parse_expr(tz)
    if tz.peek() != (None, None):
        raise ParseError(f"trailing tokens in expression starting with {tz.peek()[1]!r}")
    return tree


def compile_expression(source, variables=("t", "x", "y", "z")) -> Callable:
    """Compile an expression string, or a parsed tree, into a vectorized callable.

    The callable takes positional arguments in the order of ``variables``;
    unknown symbols, and variables that are not among ``variables``, raise a
    parse error naming the symbol at compile time.
    """
    tree = parse_expression(source) if isinstance(source, str) else source
    varmap = ["x" if v == "w" else v for v in variables]
    extra = sorted(_variables(tree) - set(varmap))
    if extra:
        raise ParseError(f"symbol {extra[0]!r} is not an argument of this expression "
                         f"(arguments: {', '.join(variables) or 'none'})")

    def fn(*args):
        if len(args) != len(varmap):
            raise TypeError(f"expected {len(varmap)} arguments, got {len(args)}")
        env = {k: np.asarray(a, dtype=float) for k, a in zip(varmap, args)}
        if tree[0] == "var":
            return env[tree[1]].copy()  # never the caller's own array
        return np.asarray(_eval(tree, env), dtype=float)

    fn.expression = source
    return fn
