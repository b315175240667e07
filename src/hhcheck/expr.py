"""One-variable expression AST: parsing, compiled evaluation, exact
differentiation.

The node set is deliberately small: constants, the variable, + - * / ^,
exp, ln, abs and unary negation. Everything downstream feeds on |f'| and
|f''| evaluated pointwise, so derivatives are symbolic (no finite-difference
noise). Evaluation goes through one code generator: compile_fn turns a tree
into straight-line Python, with one exec'd factory per tree shape in a
bounded cache. For a tree with finite constants (the parser admits no
other) the result returns a finite float or raises DomainError, for every x
including non-finite ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .errors import DomainError, ParseError

__all__ = [
    "Node", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Ln",
    "Abs", "Neg", "DomainInterval", "parse", "evaluate", "differentiate",
    "to_text", "compile_fn",
]


# ---------------------------------------------------------------------------
# AST nodes. Frozen dataclasses give structural equality and hashing for free.

class Node:
    __slots__ = ()

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str = "x"


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: Node


@dataclass(frozen=True)
class Exp(Node):
    arg: Node


@dataclass(frozen=True)
class Ln(Node):
    arg: Node


@dataclass(frozen=True)
class Abs(Node):
    arg: Node


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class DomainInterval:
    """A real interval with open/closed endpoint flags.

    The endpoints are stored as floats, and equality and the hash also see
    their signs: DomainInterval(0, 1) == DomainInterval(0.0, 1.0), but
    DomainInterval(-0.0, 1.0) is another domain, because a search's first
    grid point, and so a witness, is -0.0 there. So a cache keyed on a
    domain needs nothing more.
    """

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False
    signs: tuple = field(init=False, repr=False)  # (copysign(1.0, lo), copysign(1.0, hi))

    def __post_init__(self):
        for name, v in (("lo", self.lo), ("hi", self.hi)):
            if not math.isfinite(v):
                raise ValueError(f"interval endpoint {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (self.lo < self.hi):
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "signs", (math.copysign(1.0, self.lo),
                                           math.copysign(1.0, self.hi)))


# ---------------------------------------------------------------------------
# Evaluation. _pow centralizes the power-domain policy: negative bases are
# only allowed with non-negative integer exponents so values stay real.

def _pow(b: float, e: float) -> float:
    if b > 0.0:
        return b ** e
    if b == 0.0:
        if e > 0.0:
            return 0.0
        if e == 0.0:
            return 1.0
        raise DomainError("0 raised to a negative power")
    if e == math.floor(e) and e >= 0.0 and abs(e) <= 2 ** 31:
        return b ** e
    raise DomainError(f"negative base {b!r} with non-integer or negative exponent {e!r}")


# One code generator serves every evaluation. A tree is compiled to
# straight-line source for its shape (the operators and where x sits); its
# constants become the parameters c0, c1, ... of a factory, so trees that
# differ only in their constants share one exec'd factory. No user text
# reaches the source: constants are bound as values and variable names are
# never emitted. Each value is computed in post-order, and every + - * / ^
# result is checked for finiteness.

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

_INDENT = "\n            "
_TEMPLATE = """\
def make({params}):
    def fn(x):
        try:
            x = float(x)
            if not isfinite(x): raise DomainError(f'non-finite argument {{x!r}}'){body}
        except ZeroDivisionError:
            raise DomainError('division by zero') from None
        except OverflowError:
            raise DomainError('overflow') from None
        except DomainError:
            raise
        except ValueError as exc:
            raise DomainError(str(exc)) from None
    return fn
"""


def _emit(node: Node, lines: list, consts: list) -> str:
    """Append the statements computing node to lines and return the operand
    that holds its value. abs and negation cannot fail, so they are inlined
    into their parent's statement instead of getting one of their own."""
    kind = type(node)
    if kind is Const:
        consts.append(node.value)
        return f"c{len(consts) - 1}"
    if kind is Var:
        return "x"
    if kind is Abs:
        return f"abs({_emit(node.arg, lines, consts)})"
    if kind is Neg:
        return f"(-{_emit(node.arg, lines, consts)})"
    if kind is Pow:
        value = "_pow({}, {})".format(_emit(node.base, lines, consts),
                                      _emit(node.exponent, lines, consts))
    elif kind in _BINARY:
        value = "{} {} {}".format(_emit(node.left, lines, consts), _BINARY[kind],
                                  _emit(node.right, lines, consts))
    elif kind is Exp:
        value = f"exp({_emit(node.arg, lines, consts)})"
    elif kind is Ln:
        value = _emit(node.arg, lines, consts)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    v = f"v{len(lines)}"  # unique: each temporary appends at least one line
    lines.append(f"{v} = {value}")
    if kind is Ln:
        lines.append(f"if {v} <= 0.0: raise DomainError(f'ln of non-positive value {{{v}!r}}')")
        lines.append(f"{v} = log({v})")
    elif kind is not Exp:
        lines.append(f"if not isfinite({v}): raise DomainError('non-finite intermediate value')")
    return v


@lru_cache(maxsize=256)
def _factory(body: str, nconsts: int) -> Callable:
    params = ", ".join(f"c{i}" for i in range(nconsts))
    namespace = {"DomainError": DomainError, "_pow": _pow, "exp": math.exp, "log": math.log,
                 "isfinite": math.isfinite}
    exec(_TEMPLATE.format(params=params, body=body), namespace)
    return namespace["make"]


def _generate(node: Node) -> Callable[[float], float]:
    lines, consts = [], []
    lines.append(f"return {_emit(node, lines, consts)}")
    return _factory(_INDENT + _INDENT.join(lines), len(consts))(*consts)


def compile_fn(node: Node) -> Callable[[float], float]:
    """Compile to a function of x that returns a finite float or raises
    DomainError, also for a non-finite x (given finite constants).

    The integrator and the membership search call one function thousands of
    times, so compile once and call the result; trees of one shape share a
    cached factory, so a fresh tree costs a walk, not an exec.
    """
    return _generate(node)


def evaluate(node: Node, x: float) -> float:
    """Evaluate at x: compile_fn(node)(x). Returns a finite float or raises
    DomainError. Each call compiles the tree anew; a caller that evaluates
    one tree at many points should call compile_fn once instead."""
    # _generate, not compile_fn: a tracer that rebinds compile_fn then
    # counts one evaluate() call as one evaluation, not as two
    return _generate(node)(x)


# ---------------------------------------------------------------------------
# Smart constructors with constant folding. Used by differentiate() so
# derivative trees stay small; the parser builds raw nodes instead so that
# parse(to_text(e)) round-trips structurally. A fold whose value is not
# finite is not made: the node stays, and raises DomainError when evaluated,
# so a tree built from finite constants keeps only finite ones.

def _const(v: float) -> Const:
    return Const(float(v))


def add(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value + b.value):
        return _const(v)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value - b.value):
        return _const(v)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value * b.value):
        return _const(v)
    if isinstance(a, Const):
        if a.value == 0.0:
            return _const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return _const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Node, b: Node) -> Node:
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _const(0.0)
    return Div(a, b)


def neg(a: Node) -> Node:
    if isinstance(a, Const) and math.isfinite(a.value):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a: Node, b: Node) -> Node:
    if isinstance(b, Const):
        if b.value == 0.0:
            return _const(1.0)
        if b.value == 1.0:
            return a
        if isinstance(a, Const):
            try:
                if math.isfinite(v := _pow(a.value, b.value)):
                    return _const(v)
            except (DomainError, OverflowError):
                pass
    if isinstance(a, Const) and a.value == 1.0:
        return _const(1.0)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# Differentiation.

@lru_cache(maxsize=256)
def differentiate(node: Node, order: int = 1) -> Node:
    """Exact symbolic derivative of the requested order (1 or 2).

    abs differentiates to arg'/|arg| * arg, which evaluates to sign(arg)*arg'
    away from zero and raises DomainError exactly at a kink. Trees are
    frozen, so equal calls share one result from a bounded cache; it keys
    differentiate(f) and differentiate(f, 1) apart.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    d = _d(node)
    if order == 2:
        d = _d(d)
    return d


def _d(node: Node) -> Node:
    if isinstance(node, Const):
        return _const(0.0)
    if isinstance(node, Var):
        return _const(1.0)
    if isinstance(node, Add):
        return add(_d(node.left), _d(node.right))
    if isinstance(node, Sub):
        return sub(_d(node.left), _d(node.right))
    if isinstance(node, Mul):
        return add(mul(_d(node.left), node.right), mul(node.left, _d(node.right)))
    if isinstance(node, Div):
        num = sub(mul(_d(node.left), node.right), mul(node.left, _d(node.right)))
        return div(num, mul(node.right, node.right))
    if isinstance(node, Pow):
        u, v = node.base, node.exponent
        du = _d(u)
        if isinstance(v, Const):
            c = v.value
            return mul(mul(_const(c), pow_(u, _const(c - 1.0))), du)
        # general u^v = exp(v ln u), valid for u > 0 at evaluation time
        dv = _d(v)
        return mul(Pow(u, v), add(mul(dv, Ln(u)), div(mul(v, du), u)))
    if isinstance(node, Exp):
        return mul(Exp(node.arg), _d(node.arg))
    if isinstance(node, Ln):
        return div(_d(node.arg), node.arg)
    if isinstance(node, Abs):
        return mul(_d(node.arg), div(node.arg, Abs(node.arg)))
    if isinstance(node, Neg):
        return neg(_d(node.arg))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Parser. Grammar (whitespace insignificant):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | base ('^' factor)?
#   base   := NUMBER | VAR | '(' expr ')' | FUNC '(' expr ')'
#   FUNC   := 'exp' | 'ln' | 'abs'
# Prefix minus lives at factor level, so "-x^2" means -(x^2) and exponents
# may themselves be negated ("x^-2").

_FUNCS = {"exp": Exp, "ln": Ln, "abs": Abs}


class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> Node:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                node = Add(node, self.term())
            elif ch == "-":
                self.take()
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = Mul(node, self.factor())
            elif ch == "/":
                self.take()
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        if self.peek() == "-":
            self.take()
            inner = self.factor()
            # fold a negated literal so "x^-2" prints back as written
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        node = self.base()
        if self.peek() == "^":
            self.take()
            return Pow(node, self.factor())
        return node

    def base(self) -> Node:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.ident()
        self.error(f"unexpected {ch!r}")

    def number(self) -> Const:
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        lit = t[start:self.pos]
        try:
            value = float(lit)
        except ValueError:
            self.error(f"bad number literal {lit!r}", start)
        if not math.isfinite(value):
            self.error(f"number literal {lit!r} overflows a float", start)
        return Const(value)

    def ident(self) -> Node:
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        name = t[start:self.pos]
        if name == self.var:
            return Var(self.var)
        if name in _FUNCS:
            if self.peek() != "(":
                self.error(f"expected '(' after {name}")
            self.take()
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return _FUNCS[name](node)
        self.error(f"unknown identifier {name!r}", start)


def parse(text: str, var: str = "x") -> Node:
    """Parse expression text over the given variable name."""
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    return _Parser(text, var).parse()


# ---------------------------------------------------------------------------
# Printing. Parenthesization is chosen so parse(to_text(e)) is structurally
# equal to e. Precedence: + - (1) < * / (2) < unary - (3) < ^ (4) < atom (5).

def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return 5


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        left = to_text(node.left)
        right = to_text(node.right)
        if _prec(node.right) <= 1:
            right = f"({right})"
        return f"{left}{op}{right}"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left = to_text(node.left)
        right = to_text(node.right)
        if _prec(node.left) < 2:
            left = f"({left})"
        if _prec(node.right) <= 2:
            right = f"({right})"
        return f"{left}{op}{right}"
    if isinstance(node, Neg):
        inner = to_text(node.arg)
        if _prec(node.arg) <= 2:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = to_text(node.base)
        expo = to_text(node.exponent)
        if _prec(node.base) <= 4:
            base = f"({base})"
        if _prec(node.exponent) < 3:
            expo = f"({expo})"
        return f"{base}^{expo}"
    if isinstance(node, Exp):
        return f"exp({to_text(node.arg)})"
    if isinstance(node, Ln):
        return f"ln({to_text(node.arg)})"
    if isinstance(node, Abs):
        return f"abs({to_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")

