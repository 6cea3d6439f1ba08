"""Small expression language for parametrizations and norm profiles.

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?          # right associative
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sin, cos, exp, max.  Variables are declared by the caller
(``y1..yn`` for parametrizations, ``t1..t_iota`` for norm profiles).
Derivative trees are built once at parse time by structural differentiation;
``max`` has no derivative and is rejected in differentiable contexts.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArityError, NonDifferentiable, ParseError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),]))"
)

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "max": None}  # None: variadic >= 2


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    def eval(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diff(self, var: int) -> "Node":
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float

    def eval(self, values):
        return np.full(values.shape[:-1], self.value) if values.ndim > 1 else self.value

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True)
class Var(Node):
    index: int
    name: str

    def eval(self, values):
        return values[..., self.index]

    def diff(self, var):
        return Const(1.0 if var == self.index else 0.0)


def _is_const(node: Node, value: float | None = None) -> bool:
    return isinstance(node, Const) and (value is None or node.value == value)


def add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node

    def eval(self, values):
        return self.a.eval(values) + self.b.eval(values)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True)
class Sub(Node):
    a: Node
    b: Node

    def eval(self, values):
        return self.a.eval(values) - self.b.eval(values)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node

    def eval(self, values):
        return self.a.eval(values) * self.b.eval(values)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))


@dataclass(frozen=True)
class Div(Node):
    a: Node
    b: Node

    def eval(self, values):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.a.eval(values) / self.b.eval(values)

    def diff(self, var):
        num = sub(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))
        return Div(num, Mul(self.b, self.b))


@dataclass(frozen=True)
class Neg(Node):
    a: Node

    def eval(self, values):
        return -self.a.eval(values)

    def diff(self, var):
        return Neg(self.a.diff(var))


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: Node

    def eval(self, values):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(self.base.eval(values), self.exponent.eval(values))

    def diff(self, var):
        if not isinstance(self.exponent, Const):
            raise NonDifferentiable("only constant exponents are differentiable")
        c = self.exponent.value
        if c == 0.0:
            return Const(0.0)
        return mul(mul(Const(c), Pow(self.base, Const(c - 1.0))), self.base.diff(var))


@dataclass(frozen=True)
class Call(Node):
    fn: str
    args: tuple

    def eval(self, values):
        vals = [a.eval(values) for a in self.args]
        if self.fn == "sin":
            return np.sin(vals[0])
        if self.fn == "cos":
            return np.cos(vals[0])
        if self.fn == "exp":
            return np.exp(vals[0])
        if self.fn == "max":
            out = vals[0]
            for v in vals[1:]:
                out = np.maximum(out, v)
            return out
        raise ArityError(f"unknown function {self.fn!r}")

    def diff(self, var):
        if self.fn == "sin":
            return mul(Call("cos", self.args), self.args[0].diff(var))
        if self.fn == "cos":
            return mul(Neg(Call("sin", self.args)), self.args[0].diff(var))
        if self.fn == "exp":
            return mul(self, self.args[0].diff(var))
        raise NonDifferentiable(f"{self.fn!r} is not differentiable")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(at, f"unexpected character {src[at]!r}")
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group(0).strip(), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.tokens = _tokenize(src)
        self.i = 0
        self.varmap = {name: idx for idx, name in enumerate(variables)}

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(tok.pos, f"expected {text!r}, found {tok.text or 'end of input'!r}")

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, f"unexpected token {tok.text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            inner = self.unary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("^", "**"):
            self.next()
            exponent = self.unary()
            return Pow(base, exponent)
        return base

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "name":
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            if tok.text == "pi":
                return Const(float(np.pi))
            if tok.text not in self.varmap:
                raise ParseError(tok.pos, f"unknown variable {tok.text!r}")
            return Var(self.varmap[tok.text], tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(tok.pos, f"unexpected token {tok.text or 'end of input'!r}")

    def call(self, name_tok: _Token) -> Node:
        fn = name_tok.text
        if fn not in _FUNCTIONS:
            raise ParseError(name_tok.pos, f"unknown function {fn!r}")
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        arity = _FUNCTIONS[fn]
        if arity is not None and len(args) != arity:
            raise ArityError(f"{fn} expects {arity} argument(s), got {len(args)}")
        if arity is None and len(args) < 2:
            raise ArityError(f"{fn} expects at least 2 arguments, got {len(args)}")
        return Call(fn, tuple(args))


def parse_expression(src: str, variables: Sequence[str]) -> Node:
    """Parse a single expression over the given variable names."""
    return _Parser(src, variables).parse()


def parse_expression_list(src: str, variables: Sequence[str]) -> list[Node]:
    """Parse semicolon-separated expressions, tracking error positions globally."""
    nodes = []
    offset = 0
    for chunk in src.split(";"):
        if not chunk.strip():
            raise ParseError(offset, "empty expression")
        try:
            nodes.append(parse_expression(chunk, variables))
        except ParseError as err:
            raise ParseError(offset + err.position, err.message) from None
        offset += len(chunk) + 1
    return nodes


# ---------------------------------------------------------------------------
# Structural monotonicity check for norm profiles
# ---------------------------------------------------------------------------

def is_monotone_safe(node: Node) -> bool:
    """True when the tree uses only +, *, max, positive constants and positive
    powers of variables -- constructs that are monotone nondecreasing in each
    variable on the nonnegative orthant."""
    if isinstance(node, Const):
        return node.value >= 0.0
    if isinstance(node, Var):
        return True
    if isinstance(node, (Add, Mul)):
        return is_monotone_safe(node.a) and is_monotone_safe(node.b)
    if isinstance(node, Pow):
        return (
            is_monotone_safe(node.base)
            and isinstance(node.exponent, Const)
            and node.exponent.value > 0.0
        )
    if isinstance(node, Call) and node.fn == "max":
        return all(is_monotone_safe(a) for a in node.args)
    return False
