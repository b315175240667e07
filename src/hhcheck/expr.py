"""One-variable expression AST: parsing, evaluation, exact differentiation.

The node set is deliberately small: constants, the variable, + - * / ^,
exp, ln, abs and unary negation. Everything downstream feeds on |f'| and
|f''| evaluated pointwise, so derivatives are symbolic (no finite-difference
noise) and evaluation either returns a finite float or raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

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
    """A real interval with open/closed endpoint flags."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")


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


def _check(v: float) -> float:
    if not math.isfinite(v):
        raise DomainError("non-finite intermediate value")
    return v


def evaluate(node: Node, x: float) -> float:
    """Evaluate at x. Returns a finite float or raises DomainError."""
    try:
        return _eval(node, float(x))
    except ZeroDivisionError:
        raise DomainError("division by zero") from None
    except OverflowError:
        raise DomainError("overflow") from None
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(str(exc)) from None


def _eval(node: Node, x: float) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Add):
        return _check(_eval(node.left, x) + _eval(node.right, x))
    if isinstance(node, Sub):
        return _check(_eval(node.left, x) - _eval(node.right, x))
    if isinstance(node, Mul):
        return _check(_eval(node.left, x) * _eval(node.right, x))
    if isinstance(node, Div):
        return _check(_eval(node.left, x) / _eval(node.right, x))
    if isinstance(node, Pow):
        return _check(_pow(_eval(node.base, x), _eval(node.exponent, x)))
    if isinstance(node, Exp):
        return _check(math.exp(_eval(node.arg, x)))
    if isinstance(node, Ln):
        v = _eval(node.arg, x)
        if v <= 0.0:
            raise DomainError(f"ln of non-positive value {v!r}")
        return _check(math.log(v))
    if isinstance(node, Abs):
        return abs(_eval(node.arg, x))
    if isinstance(node, Neg):
        return -_eval(node.arg, x)
    raise TypeError(f"not an expression node: {node!r}")


def compile_fn(node: Node) -> Callable[[float], float]:
    """Compile to a closure with the same semantics as evaluate().

    Used on hot paths (the integrator calls integrands thousands of times);
    closure composition avoids re-walking the tree per call.
    """
    inner = _compile(node)

    def fn(x: float) -> float:
        try:
            return inner(float(x))
        except ZeroDivisionError:
            raise DomainError("division by zero") from None
        except OverflowError:
            raise DomainError("overflow") from None
        except ValueError as exc:
            if isinstance(exc, DomainError):
                raise
            raise DomainError(str(exc)) from None

    return fn


def _compile(node: Node) -> Callable[[float], float]:
    isfinite = math.isfinite
    if isinstance(node, Const):
        v = node.value
        return lambda x: v
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, (Add, Sub, Mul, Div)):
        lf = _compile(node.left)
        rf = _compile(node.right)
        if isinstance(node, Add):
            op = lambda x: lf(x) + rf(x)
        elif isinstance(node, Sub):
            op = lambda x: lf(x) - rf(x)
        elif isinstance(node, Mul):
            op = lambda x: lf(x) * rf(x)
        else:
            op = lambda x: lf(x) / rf(x)

        def guarded(x: float, op=op) -> float:
            v = op(x)
            if not isfinite(v):
                raise DomainError("non-finite intermediate value")
            return v

        return guarded
    if isinstance(node, Pow):
        bf = _compile(node.base)
        ef = _compile(node.exponent)

        def powfn(x: float) -> float:
            v = _pow(bf(x), ef(x))
            if not isfinite(v):
                raise DomainError("non-finite intermediate value")
            return v

        return powfn
    if isinstance(node, Exp):
        af = _compile(node.arg)
        exp = math.exp
        return lambda x: exp(af(x))
    if isinstance(node, Ln):
        af = _compile(node.arg)
        log = math.log

        def lnfn(x: float) -> float:
            v = af(x)
            if v <= 0.0:
                raise DomainError(f"ln of non-positive value {v!r}")
            return log(v)

        return lnfn
    if isinstance(node, Abs):
        af = _compile(node.arg)
        return lambda x: abs(af(x))
    if isinstance(node, Neg):
        af = _compile(node.arg)
        return lambda x: -af(x)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Smart constructors with constant folding. Used by differentiate() so
# derivative trees stay small; the parser builds raw nodes instead so that
# parse(to_text(e)) round-trips structurally.

def _const(v: float) -> Const:
    return Const(float(v))


def add(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
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
    if isinstance(a, Const):
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
                return _const(_pow(a.value, b.value))
            except DomainError:
                pass
    if isinstance(a, Const) and a.value == 1.0:
        return _const(1.0)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# Differentiation.

def differentiate(node: Node, order: int = 1) -> Node:
    """Exact symbolic derivative of the requested order (1 or 2).

    abs differentiates to arg'/|arg| * arg, which evaluates to sign(arg)*arg'
    away from zero and raises DomainError exactly at a kink.
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


ExprLike = Union[Node, Callable[[float], float]]
