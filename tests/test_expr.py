"""Expression parsing, printing, evaluation, and symbolic differentiation."""

import math

import pytest
from hypothesis import given, strategies as st

from hhcheck import (
    Abs,
    Add,
    Const,
    DomainError,
    Exp,
    Ln,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    compile_fn,
    differentiate,
    evaluate,
    parse,
    to_text,
)


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
        # exp of a huge argument must not crash with an unhandled exception
        node = parse("exp(x)")
        try:
            v = evaluate(node, 1e6)
            assert math.isinf(v)
        except (DomainError, OverflowError):
            pass


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
