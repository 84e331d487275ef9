import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sobolev.fields import AnnulusRegion, BoxRegion
from sobolev.funcexpr import (
    Add, Call, Const, ExprDomainError, ExprSyntaxError, Mul, Neg, Pi,
    Piecewise, Pow, Sub, Var, diff_expr, eval_expr, eval_on_points, expr_to_text,
    parse_expr, subst_expr,
)


class TestParse:
    def test_sin_of_scaled_variable(self):
        e = parse_expr("sin(2*pi*x1)", 1)
        assert e == Call("sin", Mul(Mul(Const(Fraction(2)), Pi()), Var(1)))

    def test_variable_out_of_range(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x3", 2)
        assert "out of range" in str(exc.value)
        assert exc.value.position == 1

    def test_sum_of_squares(self):
        e = parse_expr("x1^2 + x2^2", 2)
        assert e == Add(Pow(Var(1), Fraction(2)), Pow(Var(2), Fraction(2)))

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("foo(x1)", 1)
        assert "unknown identifier" in str(exc.value)

    def test_syntax_error_carries_position(self):
        text = "sin((x1"
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text, 1)
        assert exc.value.position == len(text) + 1  # error at end of input

    @pytest.mark.parametrize("text, position", [
        ("x1^(1/0)", 7), ("x1^-3/0", 7), ("x1^(2/00)", 7)])
    def test_zero_denominator_exponent_rejected(self, text, position):
        with pytest.raises(ExprSyntaxError,
                           match="zero denominator in exponent") as exc:
            parse_expr(text, 1)
        assert exc.value.position == position  # at the denominator

    def test_surrounding_whitespace_ignored(self):
        assert parse_expr(" x1 + x2\t ", 2) == parse_expr("x1+x2", 2)

    def test_blank_text_rejected_at_its_end(self):
        with pytest.raises(ExprSyntaxError, match="unexpected token") as exc:
            parse_expr("   ", 1)
        assert exc.value.position == 4

    def test_precedence(self):
        # ^ over unary minus over * over +
        assert parse_expr("-x1^2", 1) == Neg(Pow(Var(1), Fraction(2)))
        assert eval_expr(parse_expr("2*x1^2 + 1", 1), [3.0]) == 19.0
        assert eval_expr(parse_expr("1 - 2 - 3", 1), [0.0]) == -4.0

    def test_rational_and_decimal_exponents(self):
        assert parse_expr("x1^(1/2)", 1) == Pow(Var(1), Fraction(1, 2))
        assert parse_expr("x1^-2", 1) == Pow(Var(1), Fraction(-2))
        assert parse_expr("x1^(-3/2)", 1) == Pow(Var(1), Fraction(-3, 2))
        assert parse_expr("x1^0.5", 1) == Pow(Var(1), Fraction(1, 2))

    def test_decimal_constants_exact(self):
        assert parse_expr("0.1", 1) == Const(Fraction(1, 10))

    def test_constant_folding_only(self):
        assert parse_expr("2*3 + 1", 1) == Const(Fraction(7))
        # no deeper simplification: x1 + x1 stays a sum
        assert parse_expr("x1 + x1", 1) == Add(Var(1), Var(1))


class TestDiff:
    def test_chain_rule_sin(self):
        e = parse_expr("sin(2*pi*x1)", 1)
        d = diff_expr(e, 1)
        # evaluates to 2*pi*cos(2*pi*x1)
        for t in (0.0, 0.125, 0.4):
            assert eval_expr(d, [t]) == pytest.approx(
                2 * math.pi * math.cos(2 * math.pi * t), rel=1e-12)

    def test_partial_of_sum_of_squares(self):
        e = parse_expr("x1^2 + x2^2", 2)
        d = diff_expr(e, 2)
        assert eval_expr(d, [3.0, 4.0]) == pytest.approx(8.0)
        assert eval_expr(diff_expr(e, 1), [3.0, 4.0]) == pytest.approx(6.0)

    def test_constant_derivative_is_zero(self):
        assert diff_expr(parse_expr("7", 1), 1) == Const(Fraction(0))
        assert diff_expr(parse_expr("pi", 1), 1) == Const(Fraction(0))

    def test_abs_derivative_away_from_zero(self):
        d = diff_expr(parse_expr("abs(x1)", 1), 1)
        assert eval_expr(d, [2.0]) == 1.0
        assert eval_expr(d, [-2.0]) == -1.0

    def test_abs_derivative_at_zero_is_domain_error(self):
        d = diff_expr(parse_expr("abs(x1)", 1), 1)
        with pytest.raises(ExprDomainError):
            eval_expr(d, [0.0])

    def test_quotient_rule(self):
        e = parse_expr("x1/(1 + x1^2)", 1)
        d = diff_expr(e, 1)
        t = 0.7
        expected = (1 - t * t) / (1 + t * t) ** 2
        assert eval_expr(d, [t]) == pytest.approx(expected, rel=1e-12)


class TestEval:
    def test_sin_quarter(self):
        assert eval_expr(parse_expr("sin(2*pi*x1)", 1), [0.25]) == pytest.approx(1.0)

    def test_sum_of_squares_at_point(self):
        assert eval_expr(parse_expr("x1^2 + x2^2", 2), [3.0, 4.0]) == 25.0

    def test_division_by_zero_reported(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse_expr("1/x1", 1), [0.0])

    def test_log_nonpositive_reported(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse_expr("log(x1)", 1), [-1.0])
        with pytest.raises(ExprDomainError):
            eval_expr(parse_expr("log(x1)", 1), [0.0])

    def test_sqrt_negative_reported(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse_expr("sqrt(x1)", 1), [-1.0])

    def test_fractional_power_of_negative_reported(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse_expr("x1^(1/2)", 1), [-1.0])

    def test_vectorized_matches_scalar(self):
        e = parse_expr("exp(x1)*cos(x2)", 2)
        pts = np.array([[0.1, 0.2], [1.0, -0.5], [-2.0, 3.0]])
        vals = eval_on_points(e, pts)
        for row, v in zip(pts, vals):
            assert v == pytest.approx(eval_expr(e, row))

    def test_variable_beyond_point_dimension_reported(self):
        with pytest.raises(ExprDomainError, match="x3 exceeds point "
                                                  "dimension 2"):
            eval_on_points(parse_expr("x3", 3), np.zeros((4, 2)))


class TestPrintRoundTrip:
    CASES = [
        "sin(2*pi*x1)",
        "x1^2 + x2^2",
        "x1/(1 + x1^2)",
        "-x1^(1/2)*cos(x2) - 3/4",
        "abs(x1 - x2)*exp(-x1^2)",
        "sqrt(1 + x1^2)^(-3/2)",
        "(x1 + x2)*(x1 - x2)",
        "1 - 2*x1 - 3*x2",
        "log(1 + exp(x1))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse_idempotent(self, text):
        e = parse_expr(text, 2)
        assert parse_expr(expr_to_text(e), 2) == e


class TestSubst:
    def test_substitute_variable(self):
        e = parse_expr("x1^2 + x2", 2)
        s = subst_expr(e, {1: parse_expr("sin(x1)", 1)})
        assert eval_expr(s, [0.3, 5.0]) == pytest.approx(math.sin(0.3) ** 2 + 5.0)


# --- random expression generator used for the derivative cross-check -------

_SAFE_FUNCS = ("sin", "cos", "exp")


def random_expr(rng: random.Random, n: int, depth: int):
    """Random expression built from nodes that are smooth on all of R^n."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(("var", "const", "const", "var"))
        if kind == "var":
            return Var(rng.randint(1, n))
        return Const(Fraction(rng.randint(-3, 3)))
    kind = rng.choice(("add", "sub", "mul", "call", "poly"))
    if kind == "call":
        return Call(rng.choice(_SAFE_FUNCS), random_expr(rng, n, depth - 1))
    if kind == "poly":
        return Pow(random_expr(rng, n, depth - 1), Fraction(rng.randint(2, 3)))
    a = random_expr(rng, n, depth - 1)
    b = random_expr(rng, n, depth - 1)
    return {"add": Add, "sub": Sub, "mul": Mul}[kind](a, b)


def central_difference(e, point, axis, h=1e-5):
    lo = list(point)
    hi = list(point)
    lo[axis - 1] -= h
    hi[axis - 1] += h
    return (eval_expr(e, hi) - eval_expr(e, lo)) / (2 * h)


def test_symbolic_derivative_matches_central_differences():
    rng = random.Random(20240809)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        e = random_expr(rng, n, 3)
        axis = rng.randint(1, n)
        point = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        d = diff_expr(e, axis)
        try:
            sym = eval_expr(d, point)
            fd = central_difference(e, point, axis)
        except ExprDomainError:
            continue
        if abs(sym) > 1e6 or not math.isfinite(fd):
            continue  # wildly scaled value; FD step no longer meaningful
        scale = max(1.0, abs(sym))
        assert abs(sym - fd) <= 1e-6 * scale
        checked += 1


POSITIVE = BoxRegion([0.0], [None], closed=False)


class TestPiecewise:
    def test_branches_see_only_their_points(self):
        # log(x1) is never evaluated at the non-positive points
        e = Piecewise(POSITIVE, parse_expr("log(x1)", 1),
                      Const(Fraction(0)))
        pts = np.array([[-1.0], [0.0], [1.0], [math.e]])
        assert eval_on_points(e, pts).tolist() == [0.0, 0.0, 0.0, 1.0]
        assert eval_on_points(e, np.empty((0, 1))).shape == (0,)

    def test_nesting_is_first_match(self):
        left = BoxRegion([None], [0.5])
        e = Piecewise(left, Const(Fraction(1)),
                      Piecewise(POSITIVE, Const(Fraction(2)),
                                Const(Fraction(3))))
        pts = np.array([[-1.0], [0.25], [0.75]])
        assert eval_on_points(e, pts).tolist() == [1.0, 1.0, 2.0]

    def test_diff_maps_branches(self):
        x = parse_expr("x1^3", 1)
        e = Piecewise(POSITIVE, x, Const(Fraction(0)))
        assert diff_expr(e, 1) == Piecewise(POSITIVE, diff_expr(x, 1),
                                            Const(Fraction(0)))

    def test_text_and_substitution_rejected(self):
        e = Piecewise(POSITIVE, Var(1), Const(Fraction(0)))
        with pytest.raises(TypeError):
            expr_to_text(e)
        with pytest.raises(TypeError):
            subst_expr(e, {1: Var(1)})

    def test_regions_hash_by_value(self):
        a = BoxRegion([0.0, None], [1.0, 2.0], closed=False)
        b = BoxRegion((0.0, None), (1.0, 2.0), closed=False)
        assert a == b and hash(a) == hash(b)
        assert a != BoxRegion((0.0, None), (1.0, 2.0))
        assert hash(AnnulusRegion(1.0, None)) == hash(AnnulusRegion(1.0, None))
