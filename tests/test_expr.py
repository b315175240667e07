"""Expression parsing, printing, evaluation, and symbolic differentiation."""

import gc
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hhcheck.expr
from hhcheck import (
    CATALOG,
    FIRST_DERIVATIVE_RULES,
    HOLDER_RULES,
    QUAD_FUNCTIONS,
    RULE_IDS,
    Abs,
    Add,
    BoundInstance,
    Const,
    ConvexityClass,
    Div,
    DomainError,
    DomainInterval,
    Exp,
    HFunction,
    HolderPair,
    Ln,
    Mul,
    Neg,
    Node,
    ParseError,
    Pow,
    Sub,
    Var,
    bound_first_derivative,
    bound_second_derivative,
    build_suite,
    certified_integrate,
    compile_fn,
    differentiate,
    evaluate,
    lemma1_residual,
    lemma2_residual,
    parse,
    to_text,
)
from hhcheck.expr import compile_interval
from hhcheck.expr import _MAX_DEPTH, _pow, add, mul, neg, pow_, sub


class TestParse:
    def test_basic_arithmetic(self):
        assert evaluate(parse("1 + 2*3"), 0.0) == 7.0
        assert evaluate(parse("(1 + 2)*3"), 0.0) == 9.0
        assert evaluate(parse("10 - 4 - 3"), 0.0) == 3.0  # left associativity
        assert evaluate(parse("12 / 4 / 3"), 0.0) == 1.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-x^2"), 3.0) == -9.0

    def test_negative_exponent_literal(self):
        node = parse("x^-2")
        assert evaluate(node, 2.0) == pytest.approx(0.25, abs=0.0)
        # and the printed form parses back to the same tree
        assert parse(to_text(node)) == node

    def test_scientific_notation(self):
        assert evaluate(parse("1.5e-3"), 0.0) == 1.5e-3
        assert evaluate(parse("2E2 + 1"), 0.0) == 201.0

    def test_functions(self):
        assert evaluate(parse("exp(0)"), 0.0) == 1.0
        assert evaluate(parse("ln(exp(2))"), 0.0) == pytest.approx(2.0, abs=1e-15)
        assert evaluate(parse("abs(-3)"), 0.0) == 3.0
        assert evaluate(parse("9^0.5"), 0.0) == 3.0

    def test_alternate_variable_name(self):
        node = parse("t*(1-t)", var="t")
        assert evaluate(node, 0.25) == pytest.approx(0.1875)

    def test_wrong_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("t + 1")  # default variable is x

    def test_whitespace_insensitive(self):
        assert parse(" x ^ 2 ") == parse("x^2")

    def test_catalog_shapes(self):
        for text in ("x^2", "x^3", "exp(x)", "-ln(x)", "1/x"):
            node = parse(text)
            assert parse(to_text(node)) == node

    def test_equal_trees_are_one_node(self):
        for text in ("x^2 + 3*x - 1", "exp(x)/(1 + x^2) - abs(x)", "-ln(x)*x", "7"):
            assert parse(text) is parse(text)
        assert Var() is Var("x") and Var("t") is not Var("x")
        assert Const(0.0) is not Const(-0.0) and Const(-0.0) is Const(-0.0)
        # a constant is a float, whatever number built it first
        assert Const(7) is Const(7.0) and type(Const(9).value) is float
        assert parse("x + -0") is not parse("x + 0")
        assert Add(Var("x"), Const(1.0)) is parse("x + 1")
        assert differentiate(parse("x^3")) is Mul(Const(3.0), Pow(Var("x"), Const(2.0)))
        # repr names each field
        assert repr(parse("x + 1")) == "Add(left=Var(name='x'), right=Const(value=1.0))"
        assert repr(parse("-t^2", var="t")) == \
            "Neg(arg=Pow(base=Var(name='t'), exponent=Const(value=2.0)))"
        assert str(parse("x^-2 + x^0.5")) == "x^-2 + x^0.5" and parse("x^2")(3.0) == 9.0

    def test_nodes_are_immutable(self):
        node = parse("x + 1")
        for name, value in (("left", Var("t")), ("right", Const(2.0)), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(node, name, value)
        with pytest.raises(AttributeError):
            Const(1.0).value = 2.0
        with pytest.raises(AttributeError):
            del node.left
        assert node is parse("x + 1") and node.right is Const(1.0)

    def test_pickling_reinterns(self):
        node = parse("exp(x)/(1 + x^2) - abs(x) + -0*x")
        assert pickle.loads(pickle.dumps(node)) is node
        h = HFunction.custom(parse("t*(2-t)", var="t"))
        assert pickle.loads(pickle.dumps(h)).expr is h.expr
        # a node pickles as its class and fields, and carries no hash
        assert node.__reduce__() == (Add, (node.left, node.right))
        assert Const(-0.0).__reduce__() == (Const, (-0.0,))

    def test_threads_build_one_node_per_tree(self):
        # six threads build the same new trees at once; each tree must come
        # out as one object in every thread
        texts = [f"(x + {i}.125)*exp(x - {i}.375) + x^{i}.5" for i in range(300)]
        results, barrier = [], threading.Barrier(6)

        def build():
            barrier.wait(timeout=30)
            results.append([parse(text) for text in texts])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 6
        for nodes in results[1:]:
            assert all(a is b for a, b in zip(results[0], nodes))

    def test_node_table_is_weak(self):
        table = hhcheck.expr._NODES
        gc.collect()
        before = len(table)
        nodes = [parse(f"x*{i}.5 + {i}.25") for i in range(10_000)]
        assert len(table) >= before + 39_000  # two Const, Mul and Add for most i
        del nodes
        gc.collect()
        assert len(table) <= before + 5


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("x^(", 3),
            ("", 0),
            ("x +", 3),
            ("(x", 2),
        ],
    )
    def test_unexpected_end_offsets(self, text, offset):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert exc_info.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1 )")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sin(x)")

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse("1.5e")

    @pytest.mark.parametrize("text,offset", [("1e400", 0), ("x + 2e308*x", 4), ("-1e999", 1)])
    def test_non_finite_literal_rejected_at_its_offset(self, text, offset):
        # evaluation promises a finite float, so an overflowing literal is a parse error
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert exc_info.value.offset == offset


class TestEvaluate:
    def test_domain_errors(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), 0.0)
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), -1.0)
        with pytest.raises(DomainError):
            evaluate(parse("1/x"), 0.0)
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), -1.0)

    def test_compile_fn_matches_evaluate(self):
        node = parse("exp(x)*x^2 - ln(x+2)/x")
        fn = compile_fn(node)
        for x in (0.5, 1.0, 2.25, 10.0):
            assert fn(x) == evaluate(node, x)

    def test_overflow_is_domain_error_or_inf(self):
        # exp of a huge argument is a DomainError, never inf or OverflowError
        node = parse("exp(x)")
        with pytest.raises(DomainError, match="overflow"):
            evaluate(node, 1e6)
        with pytest.raises(DomainError, match="overflow"):
            compile_fn(node)(1e6)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=("inf", "-inf", "nan"))
    @pytest.mark.parametrize("text", ["exp(x)", "x", "abs(x)", "2"])
    def test_non_finite_argument_is_domain_error(self, text, x):
        node = parse(text)
        with pytest.raises(DomainError, match="non-finite argument"):
            evaluate(node, x)
        with pytest.raises(DomainError, match="non-finite argument"):
            compile_fn(node)(x)


class TestDomainInterval:
    @pytest.mark.parametrize("lo,hi,name", [
        (0.0, math.inf, "hi"), (-math.inf, 1.0, "lo"), (math.nan, 1.0, "lo"), (0.0, math.nan, "hi"),
    ])
    def test_non_finite_endpoint_rejected(self, lo, hi, name):
        with pytest.raises(ValueError, match=f"interval endpoint {name} must be finite"):
            DomainInterval(lo, hi)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            DomainInterval(1.0, 1.0)

    def test_signed_zero_endpoint_is_another_domain(self):
        # a search's first or last grid point, and so a witness, is -0.0 there
        assert DomainInterval(-0.0, 1.0) != DomainInterval(0.0, 1.0)
        assert DomainInterval(-1.0, -0.0) != DomainInterval(-1.0, 0.0)
        assert DomainInterval(-0.0, 1.0) == DomainInterval(-0.0, 1.0)
        assert len({DomainInterval(-0.0, 1.0), DomainInterval(0.0, 1.0)}) == 2

    def test_int_endpoints_are_stored_as_floats(self):
        dom = DomainInterval(0, 1)
        assert dom == DomainInterval(0.0, 1.0) and hash(dom) == hash(DomainInterval(0.0, 1.0))
        assert type(dom.lo) is float and type(dom.hi) is float


# ---------------------------------------------------------------------------
# The tree-walking evaluator that compile_fn replaced, kept as a test-only
# reference: compile_fn must agree with it bit for bit on finite x, and fail
# with the same exception type and message.

def _check(v):
    if not math.isfinite(v):
        raise DomainError("non-finite intermediate value")
    return v


def _ref_evaluate(node, x):
    try:
        return _ref_eval(node, float(x))
    except ZeroDivisionError:
        raise DomainError("division by zero") from None
    except OverflowError:
        raise DomainError("overflow") from None
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(str(exc)) from None


def _ref_eval(node, x):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Add):
        return _check(_ref_eval(node.left, x) + _ref_eval(node.right, x))
    if isinstance(node, Sub):
        return _check(_ref_eval(node.left, x) - _ref_eval(node.right, x))
    if isinstance(node, Mul):
        return _check(_ref_eval(node.left, x) * _ref_eval(node.right, x))
    if isinstance(node, Div):
        return _check(_ref_eval(node.left, x) / _ref_eval(node.right, x))
    if isinstance(node, Pow):
        return _check(_pow(_ref_eval(node.base, x), _ref_eval(node.exponent, x)))
    if isinstance(node, Exp):
        return _check(math.exp(_ref_eval(node.arg, x)))
    if isinstance(node, Ln):
        v = _ref_eval(node.arg, x)
        if v <= 0.0:
            raise DomainError(f"ln of non-positive value {v!r}")
        return _check(math.log(v))
    if isinstance(node, Abs):
        return abs(_ref_eval(node.arg, x))
    if isinstance(node, Neg):
        return -_ref_eval(node.arg, x)
    raise TypeError(f"not an expression node: {node!r}")


def _outcome(fn, x):
    """float.hex of the value, or the exception type and message."""
    try:
        return fn(x).hex()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


# Constants that reach the edge cases: signed zeros, negative bases with
# integer and non-integer exponents, ln of values <= 0, division by zero,
# exp overflow (800) and products that overflow (1e300).
_CONSTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 0.5, -0.5, 2.5, 800.0, 1e300, -1e-300]),
    st.floats(min_value=-10.0, max_value=10.0),
)
_LEAVES = st.one_of(st.builds(Const, _CONSTS), st.just(Var("x")))


def _extend(children):
    binary = st.sampled_from([Add, Sub, Mul, Div, Pow])
    unary = st.sampled_from([Exp, Ln, Abs, Neg])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binary, children, children),
        st.builds(lambda op, a: op(a), unary, children),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)
_XS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0, 0.5, -0.5, 710.0, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# Each edge case the strategy is meant to reach, pinned as an explicit example.
_X = Var("x")
_EDGE_CASES = [
    # all eleven node types in one tree, away from every edge
    (Sub(Add(Mul(Const(2.0), _X), Div(Ln(Abs(_X)), Exp(Neg(_X)))), Pow(_X, Const(2.0))),
     [0.5, -1.5, 3.0]),
    (Mul(Const(-0.0), _X), [1.0, -1.0, 0.0]),
    (Ln(Sub(_X, Const(1.0))), [1.0, 0.5]),  # ln of 0.0 and of a negative value
    (Ln(_X), [-0.0]),
    (Div(Const(1.0), _X), [0.0, -0.0]),
    (Exp(_X), [800.0]),
    (Pow(_X, Const(0.5)), [-4.0]),  # negative base, non-integer exponent
    (Pow(_X, Const(3.0)), [-2.0]),  # negative base, integer exponent
    (Pow(_X, Const(-1.0)), [0.0, -2.0]),
    (Mul(_X, _X), [1e200]),  # overflow to inf
    # both operands fail: post-order reports the left one (the base)
    (Add(Ln(_X), Div(Const(1.0), _X)), [0.0]),
    (Pow(Ln(_X), Div(Const(1.0), _X)), [0.0]),
]


def _with_edge_cases(test):
    for node, xs in _EDGE_CASES:
        test = example(node=node, xs=xs)(test)
    return test


class TestGeneratedEvaluator:
    @_with_edge_cases
    @settings(max_examples=400, deadline=None)
    @given(node=_TREES, xs=st.lists(_XS, min_size=1, max_size=4))
    def test_matches_reference_evaluator(self, node, xs):
        fn = compile_fn(node)
        for x in xs:
            expected = _outcome(lambda v: _ref_evaluate(node, v), x)
            assert _outcome(fn, x) == expected
            assert _outcome(lambda v: evaluate(node, v), x) == expected

    @pytest.mark.parametrize("a,b", [(0.0, -0.0), (1.0, 2.0)])
    def test_same_shape_different_constants(self, a, b):
        fa = compile_fn(Mul(Const(a), Var("x")))
        fb = compile_fn(Mul(Const(b), Var("x")))
        # one exec'd factory serves both shapes, each with its own constants
        assert fa.__code__ is fb.__code__
        assert fa(1.0).hex() == a.hex()
        assert fb(1.0).hex() == b.hex()

    def test_where_x_sits_is_part_of_the_shape(self):
        fa = compile_fn(Sub(Var("x"), Const(1.0)))
        fb = compile_fn(Sub(Const(1.0), Var("x")))
        assert fa.__code__ is not fb.__code__
        assert (fa(3.0), fb(3.0)) == (2.0, -2.0)

    def test_variable_name_is_not_emitted(self):
        f = compile_fn(parse("t*(1-t)", var="t"))
        g = compile_fn(parse("x*(1-x)"))
        assert f.__code__ is g.__code__
        assert f(0.25) == g(0.25) == 0.1875

    # evaluated at x = 1 by each backend: the value, or both interval endpoints
    _AT_ONE = {"compile_fn": lambda node: [compile_fn(node)(1.0)],
               "evaluate": lambda node: [evaluate(node, 1.0)],
               "compile_interval": lambda node: list(compile_interval(node)((1.0, 1.0)))}

    @pytest.mark.parametrize("backend", sorted(_AT_ONE))
    @pytest.mark.parametrize("order", [("-0*x", "0*x"), ("0*x", "-0*x")])
    def test_compile_cache_keeps_signed_zeros_apart(self, cold_caches, backend, order):
        # the two trees are distinct nodes, Const(-0.0) is not Const(0.0), and
        # their values at x = 1 differ in sign, whichever is compiled first
        assert parse("-0*x") is not parse("0*x")
        for text in order:
            sign = -1.0 if text.startswith("-") else 1.0
            assert {math.copysign(1.0, v) for v in self._AT_ONE[backend](parse(text))} == {sign}

    def test_equal_trees_share_one_function(self):
        text = "exp(x)/(1 + x^2) - abs(x)"
        assert compile_fn(parse(text)) is compile_fn(parse(text))
        assert compile_interval(parse(text)) is compile_interval(parse(text))
        assert compile_fn(parse(text)) is not compile_interval(parse(text))
        # the cache stores nothing on a tree: a compiled tree still pickles
        node = parse(text)
        assert pickle.loads(pickle.dumps(node)) == node
        h = HFunction.custom(parse("t*(2-t)", var="t"))
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and copy.fn is h.fn

    def test_equal_subtrees_are_computed_once(self, cold_caches, monkeypatch):
        # f'' of 1/x is -(-1*(x + x))/(x*x*(x*x)): the float code computes
        # x*x once and reuses it, with the same values and errors as a
        # walk that computes every subtree
        bodies, real = [], hhcheck.expr._factory
        monkeypatch.setattr(hhcheck.expr, "_factory",
                            lambda backend, body, n: bodies.append(body) or real(backend, body, n))
        node = differentiate(parse("1/x"), 2)
        assert str(node) == "-(-1*(x + x))/(x*x*(x*x))"
        fn = compile_fn(node)
        (body,) = bodies
        assert body.count("x * x") == 1
        for x in (0.5, -3.0, 1e-5, 1e100, 0.0, -0.0, 1e-200, 1e200):
            assert _outcome(fn, x) == _outcome(lambda v: _ref_evaluate(node, v), x)

    def test_factory_cache_stays_bounded(self):
        factory = hhcheck.expr._factory
        size = factory.cache_info().maxsize
        assert size is not None
        first = None
        for i in range(size + 20):
            # a distinct shape per i: the bits of i choose abs or negation
            node = Var("x")
            for bit in range(10):
                node = Abs(node) if (i >> bit) & 1 else Neg(node)
            fn = compile_fn(node)
            first = first or fn
            assert factory.cache_info().currsize <= size
        assert factory.cache_info().currsize == size
        # a function whose factory was evicted keeps working: i = 0 is ten
        # negations of x
        assert first(-2.0) == -2.0


def _exact(node, x):
    """The value of a tree of + - * / over exact rationals."""
    if isinstance(node, Const):
        return Fraction(node.value)
    if isinstance(node, Var):
        return x
    a, b = _exact(node.left, x), _exact(node.right, x)
    if isinstance(node, Add):
        return a + b
    if isinstance(node, Sub):
        return a - b
    if isinstance(node, Mul):
        return a * b
    return a / b  # ZeroDivisionError where the interval backend has no enclosure


_RATIONAL_TREES = st.recursive(
    st.one_of(st.builds(Const, st.floats(min_value=-10.0, max_value=10.0)), st.just(Var("x"))),
    lambda children: st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Sub, Mul, Div]),
                               children, children),
    max_leaves=10)
_BOXES = st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                   st.floats(min_value=0.0, max_value=4.0),
                   st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4))


def _points(lo, width, ts):
    return [min(lo + width, lo + t * width) for t in [0.0, 1.0, *ts]]


class TestIntervalBackend:
    """compile_interval encloses every value of a tree on an interval, or
    raises DomainError."""

    @example(node=Add(Const(0.1), Const(0.2)), box=(0.0, 0.0, [0.5]))
    @example(node=Mul(Const(0.1), Var("x")), box=(3.0, 0.0, [0.5]))
    @example(node=Div(Const(1.0), Var("x")), box=(3.0, 1.0, [0.5]))
    @settings(max_examples=150, deadline=None)
    @given(node=_RATIONAL_TREES, box=_BOXES)
    def test_enclosure_holds_the_exact_rational_value(self, node, box):
        lo, width, ts = box
        try:
            elo, ehi = compile_interval(node)((lo, lo + width))
        except DomainError:
            return
        for x in _points(lo, width, ts):
            # a float and a Fraction compare exactly
            assert elo <= _exact(node, Fraction(x)) <= ehi

    @example(node=_EDGE_CASES[0][0], box=(0.5, 2.5, [0.5]))  # all eleven node types
    @example(node=Pow(_X, Const(3.0)), box=(-2.0, 3.0, [0.5]))
    @settings(max_examples=200, deadline=None)
    @given(node=_TREES, box=_BOXES)
    def test_float_values_lie_in_the_enclosure(self, node, box):
        """Where a tree encloses on an interval, the float evaluator is
        defined at each of its points, with a value inside: each float
        operation rounds an exact value that the enclosure holds."""
        lo, width, ts = box
        try:
            elo, ehi = compile_interval(node)((lo, lo + width))
        except DomainError:
            return
        fn = compile_fn(node)
        for x in _points(lo, width, ts):
            assert elo <= fn(x) <= ehi

    @pytest.mark.parametrize("text,box,enclosure", [
        ("2*x", (0.0, 1.0), (0.0, 2.0)),
        ("4*x^3", (0.0, 1.0), (0.0, math.nextafter(math.nextafter(4.0, 5.0), 5.0))),
        ("x - 0.5", (0.5, 1.0), (0.0, 0.5)),
        ("x/4", (0.0, 2.0), (0.0, 0.5)),
        ("abs(x)", (-2.0, 1.0), (0.0, 2.0)),
        ("x^2", (-1.0, 2.0), (0.0, math.nextafter(math.nextafter(4.0, 5.0), 5.0))),
        # a variable exponent: _ipow's enclosure, not the looser exp(v ln u)
        ("x^x", (0.5, 2.0), (0.24999999999999994, 4.000000000000002)),
        ("2^x", (0.5, 2.0), (1.4142135623730947, 4.000000000000002)),
        # a point to an integer power is squared, as the jet code does
        ("2^2", (0.0, 1.0), (4.0, 4.0)),
        ("x^2^2", (-2.0, -1.0), (0.9999999999999998, 16.000000000000007)),
    ])
    def test_exact_results_stay_exact(self, text, box, enclosure):
        assert compile_interval(parse(text))(box) == enclosure

    @pytest.mark.parametrize("text,box", [
        ("1/x", (-1.0, 1.0)),
        ("1/(x - 1)", (0.0, 1.0)),
        ("ln(x)", (0.0, 1.0)),
        ("ln(x - 2)", (0.0, 1.0)),
        ("x^0.5", (-1.0, 1.0)),
        ("x^-1", (0.0, 1.0)),
        ("(-2)^x", (0.0, 1.0)),
        ("x^x", (0.0, 1.0)),
        ("exp(1000*x)", (0.0, 1.0)),
        ("1e300*x", (1e10, 2e10)),
    ])
    def test_no_enclosure_raises_domain_error(self, text, box):
        with pytest.raises(DomainError):
            compile_interval(parse(text))(box)

    def test_one_factory_per_shape_and_backend(self, cold_caches):
        factory = hhcheck.expr._factory
        before = factory.cache_info().misses
        # a shape no other test compiles, with two sets of constants
        for text in ("((x*x + 7)/(x + 9))*x - 11", "((x*x + 1)/(x + 1))*x - 3"):
            compile_fn(parse(text)), compile_interval(parse(text))
        assert factory.cache_info().misses - before == 2
        assert compile_interval(parse("((x*x + 1)/(x + 1))*x - 3"))((1.0, 1.0)) == (-2.0, -2.0)

class TestJet:
    """The jet backend: c_k encloses f^(k)/k! on an interval."""

    @settings(max_examples=150, deadline=None)
    @given(coeffs=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7),
           eighths=st.integers(min_value=-24, max_value=24))
    def test_polynomial_coefficients_are_exact(self, coeffs, eighths):
        # small integers at a multiple of 1/8: every product and sum is
        # exact, so each coefficient is the point sum_i a_i C(i, k) x^(i-k)
        f = parse(" + ".join(f"({a})*x^{i}" for i, a in enumerate(coeffs)))
        x = eighths / 8.0
        for k, c in enumerate(hhcheck.expr._jet(f, x, x, 4)):
            exact = sum((a * math.comb(i, k) * Fraction(x) ** (i - k)
                         for i, a in enumerate(coeffs) if i >= k), Fraction(0))
            assert c == (exact, exact)

    @pytest.mark.parametrize("name", sorted({name for name, _ in CATALOG + QUAD_FUNCTIONS}))
    def test_coefficients_enclose_the_symbolic_derivatives(self, name):
        """At 1,000 seeded points, each in a seeded interval of (0, 4], c_0,
        c_1 and 2 c_2 hold f, f' and f'' as the float evaluator computes
        them."""
        f = dict(CATALOG + QUAD_FUNCTIONS)[name]
        fns = [compile_fn(f), compile_fn(differentiate(f)), compile_fn(differentiate(f, 2))]
        rng = random.Random(7)
        for _ in range(1000):
            lo = rng.uniform(0.05, 3.0)
            hi = lo + rng.uniform(0.0, 1.0)
            t = rng.uniform(lo, hi)
            c = hhcheck.expr._jet(f, lo, hi, 2)
            for k, fn in enumerate(fns):
                scale = math.factorial(k)
                assert c[k][0] * scale <= fn(t) <= c[k][1] * scale

    @pytest.mark.parametrize("text,lo,hi,jet", [
        ("1/x", 0.5, 2.0, [(0.5, 2.0), (-4.0, -0.25), (0.125, 8.0)]),
        ("abs(1 - x)", 2.0, 3.0, [(1.0, 2.0), (1.0, 1.0), (0.0, 0.0)]),
        ("x^2", -1.0, 1.0, [(0.0, 1.0), (-2.0, 2.0), (1.0, 1.0)]),
        ("2", 0.0, 1.0, [(2.0, 2.0), (0.0, 0.0), (0.0, 0.0)]),
        # a constant's integer power is squared: 2^2 is the point 4, and
        # exp(3)^2 as narrow as its product
        ("x^2^2", -2.0, -1.0, [(1.0, 16.0), (-32.0, -4.0), (6.0, 24.0)]),
        ("exp(3)^2*x", 0.0, 1.0,
         [(0.0, 403.42879349273545), (403.42879349273477, 403.42879349273545), (0.0, 0.0)]),
    ])
    def test_jets(self, text, lo, hi, jet):
        assert hhcheck.expr._jet(parse(text), lo, hi, 2) == jet

    @pytest.mark.parametrize("text,lo,hi", [
        ("abs(x)", -1.0, 1.0),  # no derivative at the kink
        ("1/x", -1.0, 1.0),
        ("x^0.5", 0.0, 1.0),  # f' is unbounded at 0
        ("ln(x)", 0.0, 1.0),
    ])
    def test_no_jet_raises_domain_error(self, text, lo, hi):
        with pytest.raises(DomainError):
            hhcheck.expr._jet(parse(text), lo, hi, 2)


def _numeric_derivative(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


class TestDifferentiate:
    @pytest.mark.parametrize(
        "text,xs",
        [
            ("x^2", (0.5, 1.7, -2.0)),
            ("x^3 - 4*x + 1", (0.3, 2.0, -1.5)),
            ("exp(x)", (0.0, 1.0, -0.5)),
            ("ln(x)", (0.5, 1.0, 3.0)),
            ("1/x", (0.5, 2.0, -1.0)),
            ("x^0.5", (0.25, 1.0, 4.0)),
            ("exp(x^2)/(x+3)", (0.0, 1.0, -1.0)),
            ("abs(x)", (0.5, -0.5, 2.0)),
            ("x*ln(x) - x", (0.5, 1.0, 2.0)),
        ],
    )
    def test_first_derivative_matches_finite_difference(self, text, xs):
        node = parse(text)
        dfn = compile_fn(differentiate(node))
        fn = compile_fn(node)
        for x in xs:
            approx = _numeric_derivative(fn, x)
            assert dfn(x) == pytest.approx(approx, rel=1e-5, abs=1e-7)

    def test_second_derivative(self):
        d2 = compile_fn(differentiate(parse("x^4"), 2))
        assert d2(2.0) == pytest.approx(48.0, rel=1e-12)
        d2 = compile_fn(differentiate(parse("exp(2*x)"), 2))
        assert d2(0.5) == pytest.approx(4.0 * math.e, rel=1e-12)

    def test_equal_calls_share_one_derivative(self):
        f = parse("x^3*exp(x)")
        first, second = differentiate(f, 2), differentiate(parse("x^3*exp(x)"), 2)
        assert first is second
        assert differentiate(f, 1) is not first
        assert differentiate(f, 1) == differentiate(f)

    @pytest.mark.parametrize("text", ["x^3*exp(x)", "exp(x)/(1 + x^2)", "-ln(x)*x",
                                      "abs(x - 2)^3", "(x+1)^x", "x*x*x*x*x"])
    def test_second_derivative_differentiates_the_cached_first(self, cold_caches, text):
        # the same interned tree as two passes sharing one memo, and the
        # first derivative is read from the cache, not computed again
        f = parse(text)
        memo = {}
        two_passes = hhcheck.expr._d(hhcheck.expr._d(f, memo), memo)
        first = differentiate(f)
        info = hhcheck.expr._derivative.cache_info()
        assert differentiate(f, 2) is two_passes
        after = hhcheck.expr._derivative.cache_info()
        assert (after.misses - info.misses, after.hits - info.hits) == (1, 1)
        assert differentiate(first) is two_passes

    def test_build_suite_differentiates_each_function_and_order_once(self, cold_caches):
        build_suite(42)
        info = hhcheck.expr._derivative.cache_info()
        # 411 calls for 12 derivatives, f' and f'' of the six functions of the
        # catalog and the quadrature: the membership prover reads Taylor
        # coefficients and adds none (it added 19 derivatives of g, and f'
        # was keyed twice, as (f,) and (f, 1), 36 keys in all)
        assert info.misses == 12 and info.hits > 300

    def test_a_fresh_problem_differentiates_each_order_once(self, monkeypatch, cold_caches):
        """Every rule, both lemmas and both quadratures on one new f start
        two derivations: f' and f''. differentiate(f) and differentiate(f, 1)
        are one cache entry, so f' is not derived twice."""
        roots, depth, real = [], [0], hhcheck.expr._d

        def counting(node, memo):
            if not depth[0]:
                roots.append(node)
            depth[0] += 1
            try:
                return real(node, memo)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(hhcheck.expr, "_d", counting)
        f = parse("x^3*exp(0.5*x) + 1/(x + 0.3)")
        cls, hp = ConvexityClass("h_alpha_m", alpha=0.5, m=0.9), HolderPair.from_p(2.0)
        for rule in RULE_IDS:
            inst = BoundInstance(rule, f, 0.6, 1.4, cls, hp if rule in HOLDER_RULES else None)
            (bound_first_derivative if rule in FIRST_DERIVATIVE_RULES
             else bound_second_derivative)(inst)
        lemma1_residual(f, 0.6, 1.4), lemma2_residual(f, 0.6, 1.4)
        for rule in ("midpoint", "trapezoid"):
            certified_integrate(f, 0.0, 1.0, n=4, rule=rule, check_hypothesis=False)
        assert roots == [f, differentiate(f)]

    def test_derivative_order_validation(self):
        with pytest.raises(ValueError):
            differentiate(parse("x"), 0)
        with pytest.raises(ValueError):
            differentiate(parse("x"), -1)

    def test_abs_derivative_sign(self):
        d = compile_fn(differentiate(parse("abs(x)")))
        assert d(3.0) == 1.0
        assert d(-3.0) == -1.0

    def test_abs_derivative_kink_is_domain_error(self):
        d = differentiate(parse("abs(x)"))
        with pytest.raises(DomainError):
            evaluate(d, 0.0)

    def test_constant_derivative_is_zero(self):
        d = differentiate(parse("7.5"))
        assert evaluate(d, 123.0) == 0.0

    @given(
        a=st.floats(min_value=-3, max_value=3),
        b=st.floats(min_value=-3, max_value=3),
        x=st.floats(min_value=0.2, max_value=2.5),
    )
    def test_quadratic_derivative_exact(self, a, b, x):
        node = Add(Mul(Const(a), Pow(Var("x"), Const(2.0))), Mul(Const(b), Var("x")))
        d = compile_fn(differentiate(node))
        assert d(x) == pytest.approx(2.0 * a * x + b, rel=1e-9, abs=1e-9)


def _constants(node):
    if isinstance(node, Const):
        return [node.value]
    children = [getattr(node, name) for name in ("left", "right", "base", "exponent", "arg")
                if hasattr(node, name)]
    return [v for child in children if isinstance(child, Node) for v in _constants(child)]


class TestFiniteFolding:
    """Folding two finite constants never leaves a non-finite one behind: a
    result out of the float range keeps the unfolded node, which raises
    DomainError when evaluated, like the parsed expression itself."""

    def test_overflowing_power_is_not_folded(self):
        assert differentiate(parse("10^400")) == Const(0.0)
        d = differentiate(parse("x*10^400"))
        assert d == Pow(Const(10.0), Const(400.0))
        with pytest.raises(DomainError, match="overflow"):
            evaluate(d, 1.0)

    def test_overflowing_product_is_not_folded(self):
        d = differentiate(parse("(1e300*x)^2"), 2)
        assert all(math.isfinite(v) for v in _constants(d))
        assert str(d) == "2e+300*1e+300"
        with pytest.raises(DomainError, match="non-finite"):
            evaluate(d, 1.0)

    @pytest.mark.parametrize("build,args,kind", [
        (add, (1e308, 1e308), Add),
        (sub, (-1e308, 1e308), Sub),
        (mul, (1e200, 1e200), Mul),
        (pow_, (10.0, 400.0), Pow),
        (pow_, (-10.0, 401.0), Pow),
    ])
    def test_constructors_keep_the_unfolded_node(self, build, args, kind):
        node = build(*map(Const, args))
        assert node == kind(*map(Const, args))

    def test_negating_a_non_finite_constant_is_not_folded(self):
        assert neg(Const(math.inf)) == Neg(Const(math.inf))

    def test_finite_results_still_fold(self):
        assert mul(Const(1e200), Const(1e100)) == Const(1e300)
        assert pow_(Const(2.0), Const(10.0)) == Const(1024.0)
        assert differentiate(parse("3*x^2"), 2) == Const(6.0)


# to_text's output, pinned: a change to any printed text fails a test. The
# derivatives are those of the TestToText inputs and of suite.CATALOG.
_PRINTED = {
    "x^2 + 3*x - 1": "x^2 + 3*x - 1",
    "exp(x)/(1 + x^2)": "exp(x)/(1 + x^2)",
    "-ln(x)*x": "-ln(x)*x",
    "abs(x - 2)^3": "abs(x - 2)^3",
    "1/(x*(2 - x))": "1/(x*(2 - x))",
    "x^-2 + x^0.5": "x^-2 + x^0.5",
    "10 - 4 - 3": "10 - 4 - 3",
    "10 - (4 - 3)": "10 - (4 - 3)",
    "12/4/3": "12/4/3",
    "12/(4/3)": "12/(4/3)",
    "2^3^2": "2^3^2",
    "(2^3)^2": "(2^3)^2",
    "-x^2": "-x^2",
    "(-x)^2": "(-x)^2",
    "x*-2": "x*-2",
    "--x": "--x",
    "-(x + 1)*(x - 1)": "-(x + 1)*(x - 1)",
    "x^(1/2)": "x^(1/2)",
    "2.5e-7*x + 1e300": "2.5e-07*x + 1e+300",
    "(-2)^2": "(-2)^2",
    "-(exp(x)*ln(x + 2))": "-(exp(x)*ln(x + 2))",
    "abs(x^-2)": "abs(x^-2)",
}
_PRINTED_DERIVATIVES = {
    ("x^2 + 3*x - 1", 1): "2*x + 3",
    ("x^2 + 3*x - 1", 2): "2",
    ("exp(x)/(1 + x^2)", 1): "(exp(x)*(1 + x^2) - exp(x)*(2*x))/((1 + x^2)*(1 + x^2))",
    ("exp(x)/(1 + x^2)", 2):
        "((exp(x)*(1 + x^2) + exp(x)*(2*x) - (exp(x)*(2*x) + exp(x)*2))*((1 + x^2)*(1 + x^2)) - "
        "(exp(x)*(1 + x^2) - exp(x)*(2*x))*(2*x*(1 + x^2) + (1 + x^2)*(2*x)))/((1 + x^2)*(1 + "
        "x^2)*((1 + x^2)*(1 + x^2)))",
    ("-ln(x)*x", 1): "-(1/x)*x + -ln(x)",
    ("-ln(x)*x", 2): "-(-1/(x*x))*x + -(1/x) + -(1/x)",
    ("abs(x - 2)^3", 1): "3*abs(x - 2)^2*((x - 2)/abs(x - 2))",
    ("abs(x - 2)^3", 2):
        "3*(2*abs(x - 2)*((x - 2)/abs(x - 2)))*((x - 2)/abs(x - 2)) + 3*abs(x - 2)^2*((abs(x - "
        "2) - (x - 2)*((x - 2)/abs(x - 2)))/(abs(x - 2)*abs(x - 2)))",
    ("1/(x*(2 - x))", 1): "-(2 - x + x*-1)/(x*(2 - x)*(x*(2 - x)))",
    ("1/(x*(2 - x))", 2):
        "(2*(x*(2 - x)*(x*(2 - x))) - -(2 - x + x*-1)*((2 - x + x*-1)*(x*(2 - x)) + x*(2 - x)*(2 "
        "- x + x*-1)))/(x*(2 - x)*(x*(2 - x))*(x*(2 - x)*(x*(2 - x))))",
    ("x^-2 + x^0.5", 1): "-2*x^-3 + 0.5*x^-0.5",
    ("x^-2 + x^0.5", 2): "-2*(-3*x^-4) + 0.5*(-0.5*x^-1.5)",
    ("x^2", 1): "2*x",
    ("x^2", 2): "2",
    ("x^3", 1): "3*x^2",
    ("x^3", 2): "3*(2*x)",
    ("exp(x)", 1): "exp(x)",
    ("exp(x)", 2): "exp(x)",
    ("-ln(x)", 1): "-(1/x)",
    ("-ln(x)", 2): "-(-1/(x*x))",
    ("1/x", 1): "-1/(x*x)",
    ("1/x", 2): "-(-1*(x + x))/(x*x*(x*x))",
}


class TestToText:
    def test_round_trip_preserves_value(self):
        texts = [
            "x^2 + 3*x - 1",
            "exp(x)/(1 + x^2)",
            "-ln(x)*x",
            "abs(x - 2)^3",
            "1/(x*(2 - x))",
            "x^-2 + x^0.5",
        ]
        for text in texts:
            node = parse(text)
            again = parse(to_text(node))
            for x in (0.3, 0.9, 1.5):
                try:
                    expected = evaluate(node, x)
                except DomainError:
                    continue
                assert evaluate(again, x) == expected

    def test_structural_round_trip(self):
        node = Neg(Mul(Exp(Var("x")), Ln(Add(Var("x"), Const(2.0)))))
        assert parse(to_text(node)) == node
        node = Abs(Pow(Var("x"), Const(-2.0)))
        assert parse(to_text(node)) == node

    @pytest.mark.parametrize("text,var,node", [
        ("(-2)^2", "x", Pow(Const(-2.0), Const(2.0))),
        ("(-1)^2*t", "t", Mul(Pow(Const(-1.0), Const(2.0)), Var("t"))),
        ("(-3)^x", "x", Pow(Const(-3.0), Var("x"))),
    ])
    def test_negative_constant_base_keeps_its_parentheses(self, text, var, node):
        # printed as "-2^2", the text would read as -(2^2)
        assert parse(text, var=var) is node
        assert to_text(node) == text

    @pytest.mark.parametrize("text", sorted(_PRINTED))
    def test_printed_text_is_pinned(self, text):
        assert to_text(parse(text)) == _PRINTED[text]

    @pytest.mark.parametrize("text,order", sorted(_PRINTED_DERIVATIVES))
    def test_printed_derivative_is_pinned(self, text, order):
        assert to_text(differentiate(parse(text), order)) == _PRINTED_DERIVATIVES[text, order]


def _subtrees(node):
    yield node
    for name in node._fields:
        child = getattr(node, name)
        if isinstance(child, Node):
            yield from _subtrees(child)


def _value(node, x):
    try:
        return compile_fn(node)(x)
    except DomainError:
        return DomainError


class TestRoundTrip:
    """parse(to_text(t)) has t's values, and is t itself but where the
    printed text cannot say which: the sign of a zero constant, and a
    negated constant, which parses back folded."""

    @example(node=Pow(Const(-2.0), Var("x")), xs=[3.0])
    @example(node=Neg(Const(-0.0)), xs=[0.0])
    @example(node=Mul(Const(-0.0), Pow(Const(-1.5), Const(2.0))), xs=[1.0])
    @settings(max_examples=400, deadline=None)
    @given(node=_TREES, xs=st.lists(_XS, min_size=1, max_size=4))
    def test_parse_inverts_to_text(self, node, xs):
        again = parse(to_text(node))
        nodes = list(_subtrees(node))
        if Const(-0.0) not in nodes and not any(type(n) is Neg and type(n.arg) is Const
                                                for n in nodes):
            assert again is node
        for x in xs:
            assert _value(again, x) == _value(node, x)


def _shapes(depth):
    """One text per shape, nested depth levels deep: a leaf is one level,
    and each operator, function and pair of parentheses one more."""
    inner = depth - 1
    return {
        "sum": "+".join(["x"] * depth), "product": "*".join(["x"] * depth),
        "quotient": "/".join(["x"] * depth), "power": "^".join(["x"] * depth),
        "negation": "-" * inner + "x", "parentheses": "(" * inner + "x" + ")" * inner,
        **{name: f"{name}(" * inner + "x" + ")" * inner for name in ("abs", "exp", "ln")},
    }


class TestDepthBound:
    @pytest.mark.parametrize("shape", sorted(_shapes(1)))
    def test_each_shape_at_the_bound_is_handled(self, shape):
        f = parse(_shapes(_MAX_DEPTH)[shape])
        assert parse(to_text(f)) is f
        for g in (f, differentiate(f, 2)):
            compile_interval(g)
            try:
                compile_fn(g)(0.75)
            except DomainError:
                pass
        with pytest.raises(ParseError, match=rf"^expression nested more than {_MAX_DEPTH} "
                                             r"levels deep \(offset \d+\)$"):
            parse(_shapes(_MAX_DEPTH + 1)[shape])

    def test_nesting_and_height_are_bounded_apart(self):
        # parentheses make no node, so the sum in them is bounded by its own
        # height alone
        inner = "(" * (_MAX_DEPTH - 1) + "+".join(["x"] * _MAX_DEPTH) + ")" * (_MAX_DEPTH - 1)
        assert parse(inner) is parse(_shapes(_MAX_DEPTH)["sum"])
        for text in ("(" + inner + ")", inner.replace("x", "x+x", 1)):
            with pytest.raises(ParseError, match="nested more than"):
                parse(text)

    def test_built_trees_print_and_compile_one_frame_per_level(self):
        # the bound is the parser's; a walk of a tree built directly still
        # takes one frame per level
        x = Var("x")
        chain, total = x, x
        for _ in range(800):
            chain, total = Sub(x, chain), Add(total, x)
        assert to_text(chain).count("(") == 799
        assert compile_fn(total)(1.0) == 801.0
