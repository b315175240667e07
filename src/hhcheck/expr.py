"""One-variable expression AST: parsing, compiled evaluation, exact
differentiation.

The node set is deliberately small: constants, the variable, + - * / ^,
exp, ln, abs and unary negation, and nodes are interned: one object per
tree, so equality is identity. Everything downstream feeds on |f'| and
|f''| evaluated pointwise, so derivatives are symbolic (no finite-difference
noise). Evaluation goes through one code generator: compile_fn turns a tree
into straight-line Python, with one exec'd factory per tree shape and one
function per distinct tree, each in a bounded cache. For a tree with finite
constants (the parser admits no other) the result returns a finite float or
raises DomainError, for every x including non-finite ones. compile_interval
is its second backend: it encloses a tree's values on an interval of x, or
raises DomainError. The third runs that code over Taylor-coefficient jets.
"""

from __future__ import annotations

import math
import threading
import weakref
from functools import lru_cache, reduce
from itertools import zip_longest
from operator import attrgetter
from typing import Callable

from .errors import DomainError, ParseError

__all__ = [
    "Node", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Ln",
    "Abs", "Neg", "DomainInterval", "parse", "evaluate", "differentiate",
    "to_text", "compile_fn", "compile_interval",
]


class Value:
    """Base of the immutable classes that check their input when built, the
    expression nodes among them. Each writes its own __init__ (a node, its
    __new__), which checks and stores its fields with _store. == and the
    hash see the _fields, within one class only (a node's are identity).
    repr shows _args, the constructor's parameters (by default the _fields),
    as a dataclass's would, and pickling and copying call the constructor,
    so it checks again."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:  # else the class keeps its base's
            get = attrgetter(*cls._fields)  # one name gives the value, not a 1-tuple
            cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
            cls._args = cls.__dict__.get("_args", cls._fields)

    def _store(self, *values, names=None):
        """Set the _fields (or the slots in names) to values, in order: the one
        writer of a value's attributes. A wrong count raises ValueError."""
        for name, value in zip(names or self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__qualname__}({args})"


# ---------------------------------------------------------------------------
# AST nodes, hash-consed (Ershov, 1958; Filliâtre and Conchon, Type-Safe
# Modular Hash-Consing, 2006): the constructor returns the live node for an
# equal tree, so there is one object per tree. Equality is identity and the
# hash is the object's own, with no tree walk. A constant is stored as a
# float and keyed with its sign, so Const(2) is Const(2.0) but Const(0.0) is
# not Const(-0.0); any other node is keyed by its children, which are
# interned already. The table holds its nodes weakly, and a pickled node is
# rebuilt through the constructor.

_NODES = weakref.WeakValueDictionary()  # key -> the live node
_LOCK = threading.Lock()  # held to look again and make a node


class Node(Value):
    """An expression node: a Value whose equality and hash are the object's,
    since equal trees are one object. Its _args are its _fields, so Value's
    repr, pickling and refusal to change serve it as they are."""

    __slots__ = ("__weakref__",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
        if cls is Const:
            value = float(args[0])
            args, key = (value,), (cls, value, math.copysign(1.0, value))
        else:
            key = (cls, *args)
        node = _NODES.get(key)
        if node is not None:
            return node
        with _LOCK:  # look again: another thread may have made it since
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                node._store(*args)
                _NODES[key] = node
        return node

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def __str__(self) -> str:
        return to_text(self)


class Const(Node):
    __slots__ = _fields = ("value",)


class Var(Node):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str = "x"):
        return Node.__new__(cls, name)


class Add(Node):
    __slots__ = _fields = ("left", "right")


class Sub(Node):
    __slots__ = _fields = ("left", "right")


class Mul(Node):
    __slots__ = _fields = ("left", "right")


class Div(Node):
    __slots__ = _fields = ("left", "right")


class Pow(Node):
    __slots__ = _fields = ("base", "exponent")


class Exp(Node):
    __slots__ = _fields = ("arg",)


class Ln(Node):
    __slots__ = _fields = ("arg",)


class Abs(Node):
    __slots__ = _fields = ("arg",)


class Neg(Node):
    __slots__ = _fields = ("arg",)


class DomainInterval(Value):
    """A real interval with open/closed endpoint flags.

    The endpoints are stored as floats, and equality and the hash also see
    their signs: DomainInterval(0, 1) == DomainInterval(0.0, 1.0), but
    DomainInterval(-0.0, 1.0) is another domain, because a search's first
    grid point, and so a witness, is -0.0 there. So a cache keyed on a
    domain needs nothing more.
    """

    _args = ("lo", "hi", "open_lo", "open_hi")
    __slots__ = _fields = _args + ("signs",)  # signs: (copysign(1.0, lo), copysign(1.0, hi))

    def __init__(self, lo: float, hi: float, open_lo: bool = False, open_hi: bool = False):
        for name, v in (("lo", lo), ("hi", hi)):
            if not math.isfinite(v):
                raise ValueError(f"interval endpoint {name} must be finite, got {v!r}")
        lo, hi = float(lo), float(hi)
        if not (lo < hi):
            raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")
        self._store(lo, hi, open_lo, open_hi, (math.copysign(1.0, lo), math.copysign(1.0, hi)))


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


# One code generator serves every evaluation, in three backends. A tree is
# compiled to straight-line source for its shape (the operators and where x
# sits); its constants become the parameters c0, c1, ... of a factory, so
# trees that differ only in their constants share one exec'd factory. No
# user text reaches the source: constants are bound as values and variable
# names are never emitted. Each value is computed in post-order. The float
# backend checks every + - * / ^ result for finiteness; the interval backend
# computes over (lo, hi) pairs with the helpers below, which raise
# DomainError where the float backend would, and wherever they cannot
# enclose.

# Per backend and node kind: the value over the operands, and the statements
# that follow it, given the temporary that holds it; or None for a kind
# inlined into its parent's statement (abs and negation cannot fail).
_CHECKED = (lambda v: f"if not isfinite({v}): raise DomainError('non-finite intermediate value')",)
_FLOAT_OPS = {
    Add: (lambda a, b: f"{a} + {b}", _CHECKED), Sub: (lambda a, b: f"{a} - {b}", _CHECKED),
    Mul: (lambda a, b: f"{a} * {b}", _CHECKED), Div: (lambda a, b: f"{a} / {b}", _CHECKED),
    Pow: (lambda a, b: f"_pow({a}, {b})", _CHECKED), Exp: (lambda a: f"exp({a})", ()),
    Ln: (lambda a: a,
         (lambda v: f"if {v} <= 0.0: raise DomainError(f'ln of non-positive value {{{v}!r}}')",
          lambda v: f"{v} = log({v})")),
    Abs: (lambda a: f"abs({a})", None), Neg: (lambda a: f"(-{a})", None),
}
_INTERVAL_OPS = {
    Add: (lambda a, b: f"_iadd({a}, {b})", ()), Sub: (lambda a, b: f"_iadd({a}, _ineg({b}))", ()),
    Mul: (lambda a, b: f"_imul({a}, {b})", ()), Div: (lambda a, b: f"_idiv({a}, {b})", ()),
    Pow: (lambda a, b: f"_ipow({a}, {b})", ()), Exp: (lambda a: f"_iexp({a})", ()),
    Ln: (lambda a: f"_iln({a})", ()), Abs: (lambda a: f"_iabs({a})", None),
    Neg: (lambda a: f"_ineg({a})", None),
}
_INDENT = "\n            "
_TEMPLATE = """\
def make({params}):
    def fn(x):
        try:{body}
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


def _emit(node: Node, lines: list, consts: list, ops: dict, memo: dict) -> str:
    """Append the statements computing node to lines, after those of its
    operands in the order of its _fields, and return the operand that holds
    its value, with the backend's node templates ops. memo maps each subtree
    already emitted to its operand."""
    kind = type(node)
    if kind is Const:
        consts.append(node.value)
        return f"c{len(consts) - 1}"
    if kind is Var:
        return "x"
    if node in memo:
        return memo[node]
    if kind not in ops:
        raise TypeError(f"not an expression node: {node!r}")
    template, checks = ops[kind]
    operands = []
    for name in kind._fields:
        operands.append(_emit(getattr(node, name), lines, consts, ops, memo))
    code = template(*operands)
    if checks is not None:
        v = f"v{len(lines)}"  # unique: each temporary appends at least one line
        lines.append(f"{v} = {code}")
        for check in checks:
            lines.append(check(v))
        code = v
    memo[node] = code
    return code


# ---------------------------------------------------------------------------
# Interval arithmetic (Moore, Interval Analysis, 1966). An interval is a pair
# (lo, hi) of finite floats. A rounded endpoint moves one float outward,
# unless an error-free transformation shows it exact (Knuth's two-sum,
# Dekker's product), so 2*x on [0, 1] keeps the lower bound 0.0. exp, ln and
# ^ come from the C library, which rounds within one ulp; their endpoints
# move two floats outward, but for the exact 0 of a zero base.

_next = math.nextafter


def _finite(lo: float, hi: float) -> tuple:
    if not (-math.inf < lo <= hi < math.inf):  # a NaN fails too
        raise DomainError(f"no finite enclosure: [{lo!r}, {hi!r}]")
    return lo, hi


def _sum_exact(a: float, b: float, s: float) -> bool:
    """Whether s = fl(a + b) is a + b exactly: the two-sum error is 0."""
    t = s - a
    return (a - (s - t)) + (b - t) == 0.0


def _prod_exact(a: float, b: float, p: float) -> bool:
    """Whether p = fl(a*b) is a*b exactly: Dekker's product error is 0. Near
    over- and underflow it answers False, which only widens."""
    if a == 0.0 or b == 0.0:
        return True
    if not (1e-100 < abs(a) < 1e100 and 1e-100 < abs(b) < 1e100):
        return False
    c, d = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1 splits each into two halves
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl == 0.0


def _mul(x: float, y: float) -> tuple:
    p = x * y
    return (p, p) if _prod_exact(x, y, p) else (_next(p, -math.inf), _next(p, math.inf))


def _div(x: float, y: float) -> tuple:
    q = x / y  # exact when q*y rounds to x with no product error
    exact = q * y == x and _prod_exact(q, y, x)
    return (q, q) if exact else (_next(q, -math.inf), _next(q, math.inf))


def _corners(op, a, b) -> tuple:
    ends = [op(x, y) for x in a for y in b]
    return _finite(min(e[0] for e in ends), max(e[1] for e in ends))


def _libm(lo: float, hi: float, lo_exact: bool = False) -> tuple:
    if not lo_exact:
        lo = _next(_next(lo, -math.inf), -math.inf)
    return _finite(lo, _next(_next(hi, math.inf), math.inf))


def _iabs(a):
    lo, hi = a
    return a if lo >= 0.0 else (-hi, -lo) if hi <= 0.0 else (0.0, max(-lo, hi))


def _iadd(a, b):
    lo, hi = a[0] + b[0], a[1] + b[1]
    return _finite(lo if _sum_exact(a[0], b[0], lo) else _next(lo, -math.inf),
                   hi if _sum_exact(a[1], b[1], hi) else _next(hi, math.inf))


def _imul(a, b):
    if a[0] >= 0.0 and b[0] >= 0.0:
        return _finite(_mul(a[0], b[0])[0], _mul(a[1], b[1])[1])
    return _corners(_mul, a, b)


def _idiv(a, b):
    if b[0] <= 0.0 <= b[1]:
        raise DomainError("division by an interval that contains 0")
    if a[0] >= 0.0 and b[0] > 0.0:
        return _finite(_div(a[0], b[1])[0], _div(a[1], b[0])[1])
    return _corners(_div, a, b)


def _ipow(b, e):
    """b^e under _pow's policy: a positive base; a zero base to a positive
    constant power; any base to a non-negative integer constant power."""
    (bl, bh), (el, eh) = b, e
    if el == eh == 0.0:
        return 1.0, 1.0
    if not (bl > 0.0 or el == eh and (el > 0.0 if bl == 0.0 else
                                      el == math.floor(el) and 0.0 <= el <= 2 ** 31)):
        raise DomainError(f"power of [{bl!r}, {bh!r}] to [{el!r}, {eh!r}] outside _pow's domain")
    # x^y is monotone in x and in y over these domains, but for an even power
    # of a base that spans 0, whose least value is 0
    vals = [x ** y for x in b for y in e]
    even = bl < 0.0 < bh and el % 2.0 == 0.0
    return _libm(0.0 if even else min(vals), max(vals), even or bl == 0.0)


# Interval Taylor coefficients (Moore, 1966; Griewank and Walther, Evaluating
# Derivatives, 2nd ed., 2008, ch. 13): from x's jet [X, 1, 0, ...], the jet
# [c0, c1, ...] of u holds u^(j)(t)/j! in cj for every t in X. A constant's
# jet is [c]; a shorter jet's missing coefficients are 0.

_ZERO = (0.0, 0.0)


def _isum(terms) -> tuple:
    return reduce(_iadd, terms, _ZERO)


def _jmul(a, b):
    return [_isum(_imul(a[i], b[k - i]) for i in range(max(0, k + 1 - len(b)), min(k + 1, len(a)))
                  if a[i] != _ZERO != b[k - i]) for k in range(max(len(a), len(b)))]


def _jdiv(a, b):
    w = []  # from a = w*b
    for k in range(max(len(a), len(b))):
        s = _isum(_imul(b[j], w[k - j]) for j in range(1, min(k + 1, len(b))))
        w.append(_idiv(_iadd(a[k] if k < len(a) else _ZERO, (-s[1], -s[0])), b[0]))
    return w


def _jexp(a):
    w = [_libm(*map(math.exp, a[0]))]
    for k in range(1, len(a)):  # from w' = u'w
        s = _isum(_imul(_imul((j, j), a[j]), w[k - j]) for j in range(1, k + 1))
        w.append(_idiv(s, (k, k)))
    return w


def _jln(a):  # from (ln u)' = u'/u; log raises at a[0][0] <= 0
    q = _jdiv([_imul((k, k), a[k]) for k in range(1, len(a))], a[:-1])
    return [_libm(*map(math.log, a[0]))] + [_idiv(v, (k, k)) for k, v in enumerate(q, 1)]


def _jpow(a, b):
    """u^v: exp(v ln u); for a constant v, by squaring if v is an integer
    >= 0 (any base, as _pow), else from u w' = v u' w. c0 is within _ipow's."""
    w, v = [_ipow(a[0], b[0])], b[0][0]
    if len(b) > 1 or v != b[0][1]:
        return _jexp(_jmul(b, _jln(a)))
    if v == math.floor(v) and 0.0 <= v <= 2 ** 31:
        r, n = [(1.0, 1.0)], int(v)
        while n:
            r, a, n = (_jmul(r, a) if n & 1 else r), (_jmul(a, a) if n > 1 else a), n >> 1
        return [(max(w[0][0], r[0][0]), min(w[0][1], r[0][1]))] + r[1:]
    for k in range(1, len(a)):
        s = _isum(_imul(_iadd(_imul(b[0], (j, j)), (j - k, j - k)), _imul(a[j], w[k - j]))
                  for j in range(1, k + 1))
        w.append(_idiv(s, _imul((k, k), a[0])))
    return w


def _jabs(a):
    if a[0][0] < 0.0 < a[0][1]:
        raise DomainError("abs of an argument that changes sign has no derivative")
    return a if a[0][0] >= 0.0 else [(-hi, -lo) for lo, hi in a]


# Per backend: the statements that open fn, the node templates, the names
# the code reads and how a constant enters it. Every backend computes an
# equal subtree once: equal trees are one node, so their values are the same
# bits (a zero constant's sign is part of the node), and a failing subtree
# raises at its first appearance in post-order either way.
_BACKENDS = {
    "float": (("x = float(x)",
               "if not isfinite(x): raise DomainError(f'non-finite argument {x!r}')"),
              _FLOAT_OPS, {"DomainError": DomainError, "_pow": _pow, "exp": math.exp,
                           "log": math.log, "isfinite": math.isfinite},
              lambda c: c),
    "interval": ((), _INTERVAL_OPS, {
        "DomainError": DomainError, "_iadd": _iadd, "_imul": _imul, "_idiv": _idiv,
        "_ipow": _ipow, "_iabs": _iabs, "_ineg": lambda a: (-a[1], -a[0]),
        "_iexp": lambda a: _libm(math.exp(a[0]), math.exp(a[1])),
        "_iln": lambda a: _libm(math.log(a[0]), math.log(a[1])),  # log raises at a[0] <= 0
    }, lambda c: (c, c)),
    "jet": ((), _INTERVAL_OPS, {  # the interval backend's code, run over jets
        "DomainError": DomainError, "_imul": _jmul, "_idiv": _jdiv, "_ipow": _jpow,
        "_iexp": _jexp, "_iln": _jln, "_iabs": _jabs, "_ineg": lambda a: [(-h, -l) for l, h in a],
        "_iadd": lambda a, b: [_iadd(u, v) for u, v in zip_longest(a, b, fillvalue=_ZERO)],
    }, lambda c: [(c, c)]),
}


@lru_cache(maxsize=256)
def _factory(backend: str, body: str, nconsts: int) -> Callable:
    params = ", ".join(f"c{i}" for i in range(nconsts))
    namespace = dict(_BACKENDS[backend][2])
    exec(_TEMPLATE.format(params=params, body=body), namespace)
    return namespace["make"]


def _build(node: Node, backend: str) -> Callable:
    """Generate node's function in backend: a walk, and an exec per new shape."""
    opening, ops, _, lift = _BACKENDS[backend]
    lines, consts = list(opening), []
    lines.append(f"return {_emit(node, lines, consts, ops, {})}")
    return _factory(backend, _INDENT + _INDENT.join(lines), len(consts))(*[lift(c) for c in consts])


@lru_cache(maxsize=256)
def _compiled(backend: str, node: Node) -> Callable:
    """node's function in backend, generated once per distinct tree."""
    return _build(node, backend)


def compile_fn(node: Node) -> Callable[[float], float]:
    """Compile to a function of x that returns a finite float or raises
    DomainError, also for a non-finite x (given finite constants).

    Equal trees get the same function from a bounded cache, so a caller
    may compile a tree each time it needs it; a new tree of a known shape
    costs a walk, not an exec.
    """
    return _compiled("float", node)


def compile_interval(node: Node) -> Callable[[tuple], tuple]:
    """Compile to a function that maps an interval (lo, hi) of x to an
    interval (lo, hi) holding every value of the tree on it, or raises
    DomainError: where the float evaluator could raise on the interval, and
    where no finite enclosure is found. It shares compile_fn's caches,
    under the backend tag "interval"."""
    return _compiled("interval", node)


def _jet(node: Node, lo: float, hi: float, order: int) -> list:
    """node's Taylor coefficients c0 ... c_order (order >= 1) on [lo, hi]: cj
    holds node^(j)(t)/j! for every t there; DomainError if none is found."""
    c = _compiled("jet", node)([(lo, hi), (1.0, 1.0)] + [_ZERO] * (order - 1))
    return c + [_ZERO] * (order + 1 - len(c))


def evaluate(node: Node, x: float) -> float:
    """Evaluate at x: compile_fn(node)(x). Returns a finite float or raises
    DomainError. A tree is generated once, and found again by identity on
    each call; a caller that evaluates one tree at many points should call
    compile_fn once instead."""
    # _compiled, not compile_fn: a tracer that rebinds compile_fn then
    # counts one evaluate() call as one evaluation, not as two
    return _compiled("float", node)(x)


# ---------------------------------------------------------------------------
# Smart constructors with constant folding. Used by differentiate() so
# derivative trees stay small; the parser builds raw nodes instead so that
# parse(to_text(e)) round-trips structurally. A fold whose value is not
# finite is not made: the node stays, and raises DomainError when evaluated,
# so a tree built from finite constants keeps only finite ones.

def add(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value + b.value):
        return Const(v)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value - b.value):
        return Const(v)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value * b.value):
        return Const(v)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Node, b: Node) -> Node:
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    return Div(a, b)


def neg(a: Node) -> Node:
    if isinstance(a, Const) and math.isfinite(a.value):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a: Node, b: Node) -> Node:
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(1.0)
        if b.value == 1.0:
            return a
        if isinstance(a, Const):
            try:
                if math.isfinite(v := _pow(a.value, b.value)):
                    return Const(v)
            except (DomainError, OverflowError):
                pass
    if isinstance(a, Const) and a.value == 1.0:
        return Const(1.0)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# Differentiation.

def differentiate(node: Node, order: int = 1) -> Node:
    """Exact symbolic derivative of the requested order (1 or 2).

    abs differentiates to arg'/|arg| * arg, which evaluates to sign(arg)*arg'
    away from zero and raises DomainError exactly at a kink. Trees are
    interned, so equal calls share one result from a bounded cache that
    keys differentiate(f) and differentiate(f, 1) as one. differentiate(f, 2)
    differentiates differentiate(f), which the cache usually holds. Within a
    call each distinct subtree is differentiated once, so the work is linear
    in the tree's distinct nodes, however often a derivative repeats them.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    return _derivative(node, order)


@lru_cache(maxsize=128)
def _derivative(node: Node, order: int) -> Node:
    return _d(differentiate(node) if order == 2 else node, {})


def _d(node: Node, memo: dict) -> Node:
    """node's derivative; memo maps each subtree already differentiated to
    its derivative."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if node in memo:
        return memo[node]
    if isinstance(node, Add):
        d = add(_d(node.left, memo), _d(node.right, memo))
    elif isinstance(node, Sub):
        d = sub(_d(node.left, memo), _d(node.right, memo))
    elif isinstance(node, Mul):
        d = add(mul(_d(node.left, memo), node.right), mul(node.left, _d(node.right, memo)))
    elif isinstance(node, Div):
        num = sub(mul(_d(node.left, memo), node.right), mul(node.left, _d(node.right, memo)))
        d = div(num, mul(node.right, node.right))
    elif isinstance(node, Pow):
        u, v = node.base, node.exponent
        du = _d(u, memo)
        if isinstance(v, Const):
            c = v.value
            d = mul(mul(Const(c), pow_(u, Const(c - 1.0))), du)
        else:
            # general u^v = exp(v ln u), valid for u > 0 at evaluation time
            dv = _d(v, memo)
            d = mul(Pow(u, v), add(mul(dv, Ln(u)), div(mul(v, du), u)))
    elif isinstance(node, Exp):
        d = mul(Exp(node.arg), _d(node.arg, memo))
    elif isinstance(node, Ln):
        d = div(_d(node.arg, memo), node.arg)
    elif isinstance(node, Abs):
        d = mul(_d(node.arg, memo), div(node.arg, Abs(node.arg)))
    elif isinstance(node, Neg):
        d = neg(_d(node.arg, memo))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[node] = d
    return d


# ---------------------------------------------------------------------------
# Parser, by precedence climbing (Pratt, Top Down Operator Precedence,
# 1973). Grammar (whitespace insignificant):
#   expr   := factor (BINOP factor)*   with _BINARY's precedences, each
#                                      operator grouping left to right
#   factor := '-' factor | base ('^' factor)?
#   base   := NUMBER | VAR | '(' expr ')' | FUNC '(' expr ')'
#   FUNC   := 'exp' | 'ln' | 'abs'
# Prefix minus lives at factor level, so "-x^2" means -(x^2) and exponents
# may themselves be negated ("x^-2").
#
# Two depths are bounded by _MAX_DEPTH, each counting a leaf as one level:
# the parentheses, functions, prefix minus signs and exponents open around
# a factor, checked on the way down, and the height of each node built,
# checked on the way up. So neither the parser nor a walk of the tree
# (printing, differentiating, compiling) runs out of stack.

_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_FUNCS = {"exp": Exp, "ln": Ln, "abs": Abs}
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.pos = 0
        self.heights = {}  # node built -> the levels of its tree; a leaf's is 1

    def error(self, message: str, offset: int | None = None):
        raise ParseError(message, self.pos if offset is None else offset)

    def check_depth(self, levels: int):
        if levels > _MAX_DEPTH:
            self.error(f"expression nested more than {_MAX_DEPTH} levels deep")

    def node(self, kind: type, *args: Node) -> Node:
        height = 1 + max(self.heights.get(arg, 1) for arg in args)
        self.check_depth(height)
        node = kind(*args)
        self.heights[node] = height
        return node

    def peek(self) -> str:
        """The next character after whitespace, moving to it; "" at the end.
        Each token is taken by moving past the character peek returned."""
        t = self.text
        while self.pos < len(t) and t[self.pos].isspace():
            self.pos += 1
        return t[self.pos:self.pos + 1]

    def parse(self) -> Node:
        node = self.expr(1)
        if ch := self.peek():
            self.error(f"unexpected {ch!r}")
        return node

    def expr(self, level: int, least: int = 1) -> Node:
        """Factors at level, joined by the binary operators of precedence
        least or more."""
        node = self.factor(level)
        while (row := _BINARY.get(self.peek())) is not None and row[0] >= least:
            self.pos += 1
            node = self.node(row[1], node, self.expr(level, row[0] + 1))
        return node

    def factor(self, level: int) -> Node:
        """A factor inside level - 1 parentheses, functions, prefix minus
        signs and exponents."""
        self.check_depth(level)
        if self.peek() == "-":
            self.pos += 1
            node = self.factor(level + 1)
            # fold a negated literal so "x^-2" prints back as written
            return Const(-node.value) if isinstance(node, Const) else self.node(Neg, node)
        node = self.base(level)
        if self.peek() == "^":
            self.pos += 1
            return self.node(Pow, node, self.factor(level + 1))
        return node

    def base(self, level: int) -> Node:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch.isdigit() or ch == ".":
            return self.number()
        kind = None  # a parenthesized expr, else the function applied to it
        if ch.isalpha() or ch == "_":
            start, t = self.pos, self.text
            while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
                self.pos += 1
            name = t[start:self.pos]
            if name == self.var:
                return Var(self.var)
            if name not in _FUNCS:
                self.error(f"unknown identifier {name!r}", start)
            if self.peek() != "(":
                self.error(f"expected '(' after {name}")
            kind = _FUNCS[name]
        elif ch != "(":
            self.error(f"unexpected {ch!r}")
        self.pos += 1
        node = self.expr(level + 1)
        if self.peek() != ")":
            self.error("expected ')'")
        self.pos += 1
        return node if kind is None else self.node(kind, node)

    def number(self) -> Const:
        start, t = self.pos, self.text
        while self.pos < len(t) and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if t[self.pos:self.pos + 1] in ("e", "E"):
            mark = self.pos
            self.pos += 1
            if t[self.pos:self.pos + 1] in ("+", "-"):
                self.pos += 1
            if not t[self.pos:self.pos + 1].isdigit():
                self.pos = mark  # not an exponent after all
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
        lit = t[start:self.pos]
        try:
            value = float(lit)
        except ValueError:
            self.error(f"bad number literal {lit!r}", start)
        if not math.isfinite(value):
            self.error(f"number literal {lit!r} overflows a float", start)
        return Const(value)


def parse(text: str, var: str = "x") -> Node:
    """Parse expression text over the given variable name. Text nested more
    than _MAX_DEPTH levels deep raises ParseError."""
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    return _Parser(text, var).parse()


# ---------------------------------------------------------------------------
# Printing. Parenthesization is chosen so parse(to_text(e)) is e, but where
# the text cannot tell: -0.0 prints as 0, and Neg(Const(2.0)) as -2, which
# parses to Const(-2.0). Precedence: + - (1) < * / (2) < unary - (3) < ^ (4)
# < atom (5). A leaf binds as an atom, but a negative constant binds as
# unary minus, as it reads, so "(-2)^2" keeps its parentheses. Per kind: its
# precedence, the text before its operands, and per operand, in the order of
# its _fields: its name, the least precedence at which it prints without
# parentheses and the text after it. The parser's rows give the binary
# operators (grouping left to right, so only the right operand needs a
# higher precedence, and + and - print spaced) and the functions.

_PRINT = {
    **{kind: (prec, "", (("left", prec, f" {op} " if prec == 1 else op), ("right", prec + 1, "")))
       for op, (prec, kind) in _BINARY.items()},
    Neg: (3, "-", (("arg", 3, ""),)),
    Pow: (4, "", (("base", 5, "^"), ("exponent", 3, ""))),
    **{kind: (5, name + "(", (("arg", 1, ")"),)) for name, kind in _FUNCS.items()},
}


def to_text(node: Node) -> str:
    """node as text that parse reads back as node (but for a zero's sign and
    a negated constant, see above)."""
    return _text(node)[0]


def _text(node: Node) -> tuple[str, int]:
    """node's text and the precedence at which it binds."""
    kind = type(node)
    if kind is Const:
        v = node.value
        text = str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
        return text, 3 if text[0] == "-" else 5
    if kind is Var:
        return node.name, 5
    if kind not in _PRINT:
        raise TypeError(f"not an expression node: {node!r}")
    prec, text, operands = _PRINT[kind]
    for name, least, after in operands:
        operand, binds = _text(getattr(node, name))
        text += (operand if binds >= least else f"({operand})") + after
    return text, prec
