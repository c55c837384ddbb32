"""Formula language for user-supplied real functions of one variable.

Grammar (recursive descent, offsets are byte positions in the source):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Precedence is therefore ^ (right-assoc) > unary minus > * / > + -, so
``-2^2`` evaluates to -4 and ``2^3^2`` to 512.  Built-in functions are
``ln``, ``exp`` and ``sqrt``.  One free variable (``x`` or ``theta``) is
allowed; every other identifier must be a declared parameter.

Evaluation is pure IEEE double arithmetic through numpy: the same tree
at the same point always returns the same bits.  ``RealFn.eval_array``
evaluates an array of points, and a call ``RealFn(x)`` is entry 0 of
``eval_array([x])``, bit for bit.  Overflow saturates to inf.  These
raise DomainError, at any element of the array: ln of a value <= 0, sqrt
of a value < 0, division by 0, a^b with a < 0 and non-integer b or with
a = 0 and b < 0, and a NaN result (e.g. inf - inf).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

FUNCTIONS = ("ln", "exp", "sqrt")
FREE_VARIABLES = ("x", "theta")


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class DomainError(ExprError, ArithmeticError):
    pass


class UnboundParameter(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Param, Neg, Bin, Call]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, src: str, var: Optional[str], params):
        self.src = src
        self.pos = 0
        self.var = var
        self.params = params

    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def next_token(self):
        if self.pos >= len(self.src):
            return None, None, self.pos
        m = _TOKEN.match(self.src, self.pos)
        if m is None:
            stripped = self.src[self.pos:].lstrip()
            at = len(self.src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        self.pos = m.end()
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                return kind, m.group(kind), m.start(kind)
        return None, None, self.pos  # pragma: no cover

    def peek(self):
        saved = self.pos
        tok = self.next_token()
        self.pos = saved
        return tok

    def parse(self) -> Node:
        node = self.expr()
        kind, text, at = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {text!r}", at)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next_token()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next_token()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next_token()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next_token()
            node = Bin("^", node, self.factor())
        return node

    def atom(self) -> Node:
        kind, text, at = self.next_token()
        if kind is None:
            raise ExprSyntaxError("unexpected end of input", at)
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, at)
                self.next_token()
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            return self.identifier(text, at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", at)

    def identifier(self, name: str, at: int) -> Node:
        if self.var is None and name in FREE_VARIABLES:
            return Var(name)
        if name == self.var:
            return Var(name)
        if name in self.params:
            return Param(name)
        # covers stray names and the wrong free variable for the declared role
        raise UnknownIdentifier(name, at)

    def expect(self, op: str):
        kind, text, at = self.next_token()
        if kind != "op" or text != op:
            found = "end of input" if kind is None else repr(text)
            raise ExprSyntaxError(f"expected {op!r}, found {found}", at)


# ---------------------------------------------------------------------------
# printing (minimal parentheses; parse(print(tree)) is structurally identical)

_PREC_ATOM, _PREC_POW, _PREC_NEG, _PREC_MUL, _PREC_ADD = 9, 4, 3, 2, 1


def _prec(node: Node) -> int:
    if isinstance(node, (Num, Var, Param, Call)):
        return _PREC_ATOM
    if isinstance(node, Bin):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL,
                "/": _PREC_MUL, "^": _PREC_POW}[node.op]
    return _PREC_NEG


def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node: Node) -> str:
    if isinstance(node, Num):
        return format_number(node.value)
    if isinstance(node, (Var, Param)):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    p = _prec(node)
    lhs, rhs = to_source(node.lhs), to_source(node.rhs)
    if node.op == "^":
        if _prec(node.lhs) <= _PREC_POW:
            lhs = f"({lhs})"
        if _prec(node.rhs) < _PREC_NEG:
            rhs = f"({rhs})"
    else:
        if _prec(node.lhs) < p:
            lhs = f"({lhs})"
        if _prec(node.rhs) <= p:
            rhs = f"({rhs})"
    return f"{lhs}{node.op}{rhs}"


# ---------------------------------------------------------------------------
# evaluation: one walker over numpy arrays.  A scalar call is entry 0 of a
# one-point array, so a call and ``eval_array`` give the same bits.

def _eval(node: Node, x: np.ndarray, params: Mapping[str, float]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Param):
        v = params.get(node.name)
        if v is None:
            raise UnboundParameter(f"parameter '{node.name}' has no value")
        return v
    if isinstance(node, Neg):
        return -_eval(node.arg, x, params)
    if isinstance(node, Call):
        v = _eval(node.arg, x, params)
        if node.fn == "ln":
            if np.any(v <= 0.0):
                raise DomainError("ln of a non-positive value")
            return np.log(v)
        if node.fn == "exp":
            return np.exp(v)
        if np.any(v < 0.0):
            raise DomainError("sqrt of a negative value")
        return np.sqrt(v)
    a = _eval(node.lhs, x, params)
    b = _eval(node.rhs, x, params)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if np.any(b == 0.0):
            raise DomainError("division by zero")
        return a / b
    if np.any(((a < 0.0) & (b % 1.0 != 0.0)) | ((a == 0.0) & (b < 0.0))):
        raise DomainError("invalid power: a negative base with a fractional "
                          "exponent, or zero with a negative one")
    return np.power(a, b)


def _value(node: Node, xs: np.ndarray, params: Mapping[str, float]) -> np.ndarray:
    """The tree at every point of ``xs``, as a float array of its shape."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(_eval(node, xs, params), dtype=float)
    if np.any(out != out):
        raise DomainError("evaluation produced NaN")
    if out.shape != xs.shape:
        out = np.broadcast_to(out, xs.shape).copy()
    return out


# ---------------------------------------------------------------------------
# public surface

@dataclass(frozen=True)
class RealFn:
    """A parsed single-variable function plus its parameter bindings."""

    tree: Node
    var: Optional[str] = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __call__(self, point: float) -> float:
        """Entry 0 of ``eval_array`` at the one point, bit for bit."""
        return float(self.eval_array([point])[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """The function at every point of ``xs``."""
        return _value(self.tree, np.asarray(xs, dtype=float), self.params)

    def bind(self, **params: float) -> "RealFn":
        merged = dict(self.params)
        merged.update({k: float(v) for k, v in params.items()})
        return RealFn(self.tree, self.var, merged)

    def __str__(self) -> str:
        return to_source(self.tree)

    def __repr__(self) -> str:
        return f"RealFn({to_source(self.tree)!r}, var={self.var!r}, params={dict(self.params)!r})"


def parse(src: str, var: Optional[str] = None,
          params: Optional[Mapping[str, float]] = None) -> RealFn:
    """Parse ``src`` into a RealFn.

    ``var`` pins the free variable ('x' or 'theta'); with ``var=None``
    either may appear (but not both).  Identifiers that are neither the
    free variable, a declared parameter, nor a built-in function raise
    UnknownIdentifier.  ``params`` may map names to values or to None
    (declared but unbound); a bare iterable of names declares them all
    unbound.
    """
    if params is None:
        params = {}
    elif not isinstance(params, Mapping):
        params = {name: None for name in params}
    params = {k: (None if v is None else float(v)) for k, v in dict(params).items()}
    if var is not None and var not in FREE_VARIABLES:
        raise ValueError(f"free variable must be one of {FREE_VARIABLES}, got {var!r}")
    tree = _Parser(src, var, params).parse()
    seen = {n.name for n in walk(tree) if isinstance(n, Var)}
    if var is None and len(seen) > 1:
        raise ExprSyntaxError(f"both free variables {sorted(seen)} appear", 0)
    inferred = var if var is not None else (seen.pop() if seen else None)
    return RealFn(tree, inferred, params)


def walk(node: Node):
    yield node
    if isinstance(node, Neg):
        yield from walk(node.arg)
    elif isinstance(node, Call):
        yield from walk(node.arg)
    elif isinstance(node, Bin):
        yield from walk(node.lhs)
        yield from walk(node.rhs)


def const_value(node: Node, params: Mapping[str, float]) -> Optional[float]:
    """Value of a constant subtree; None if the free variable or an unbound
    parameter appears in it."""
    if any(isinstance(n, Var) or (isinstance(n, Param) and params.get(n.name) is None)
           for n in walk(node)):
        return None
    return float(_value(node, np.zeros(1), params)[0])


def identity(var: str) -> RealFn:
    return RealFn(Var(var), var)
