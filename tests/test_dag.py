"""Hash-consed expressions: interning, memoized derivatives, DAG evaluation.

The evaluator is checked bit for bit against a recursive tree walk kept
here as a test-only oracle, on random expressions that share subtrees and
contain piecewise nodes; ``diff_expr`` is checked against sympy.
"""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev.fields import AnnulusRegion, BoxRegion
from sobolev.funcexpr import (
    _INTERNED, Add, Call, Const, Div, ExprDomainError, Mul, Neg, Pi,
    Piecewise, Pow, Sub, Var, diff_expr, eval_expr, eval_on_points,
    parse_expr,
)


# --- oracle: one numpy operation per tree node, children left to right ----

def tree_eval(e, pts):
    if isinstance(e, Const):
        return np.full(pts.shape[0], float(e.value))
    if isinstance(e, Pi):
        return np.full(pts.shape[0], np.pi)
    if isinstance(e, Var):
        return pts[:, e.index - 1].astype(float, copy=True)
    if isinstance(e, Neg):
        return -tree_eval(e.arg, pts)
    if isinstance(e, (Add, Sub, Mul, Div)):
        a = tree_eval(e.left, pts)
        b = tree_eval(e.right, pts)
        if isinstance(e, Add):
            return a + b
        if isinstance(e, Sub):
            return a - b
        if isinstance(e, Mul):
            return a * b
        if np.any(b == 0.0):
            raise ExprDomainError("division by zero")
        return a / b
    if isinstance(e, Pow):
        base = tree_eval(e.base, pts)
        p = e.power
        if p.denominator != 1 and np.any(base < 0.0):
            raise ExprDomainError("negative base for fractional power "
                                  f"{p.numerator}/{p.denominator}")
        if p < 0 and np.any(base == 0.0):
            raise ExprDomainError("zero raised to a negative power")
        return base ** float(p)
    if isinstance(e, Call):
        a = tree_eval(e.arg, pts)
        if e.func == "log" and np.any(a <= 0.0):
            raise ExprDomainError("log of a non-positive value")
        if e.func == "sqrt" and np.any(a < 0.0):
            raise ExprDomainError("sqrt of a negative value")
        return getattr(np, e.func)(a)
    if isinstance(e, Piecewise):
        mask = e.region.contains(pts)
        out = np.empty(pts.shape[0])
        if mask.any():
            out[mask] = tree_eval(e.inside, pts[mask])
        if not mask.all():
            out[~mask] = tree_eval(e.outside, pts[~mask])
        return out
    raise TypeError(e)


def tree_eval_on_points(e, pts):
    out = tree_eval(e, pts)
    if np.any(np.isnan(out)):
        raise ExprDomainError("evaluation produced NaN")
    return out


def outcome(evaluate, e, pts):
    with np.errstate(all="ignore"):
        try:
            return evaluate(e, pts)
        except ExprDomainError as err:
            return err


# --- random DAGs: every new node picks its operands from all earlier ones --

REGIONS = [
    BoxRegion([0.0, None], [None, None], lo_closed=False),
    BoxRegion([None, -0.5], [0.5, 0.5], hi_closed=(True, False)),
    AnnulusRegion(None, 1.0),
]
FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")
POWERS = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
          Fraction(-3, 2)]
COORDS = [-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]


@st.composite
def dags(draw, funcs=FUNCS, piecewise=True):
    pool = [Var(1), Var(2), Const(0), Const(1), Const(Fraction(-3, 2)), Pi()]
    kinds = ["neg", "add", "sub", "mul", "div", "pow", "call"]
    if piecewise:
        kinds.append("piecewise")

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "neg":
            node = Neg(pick())
        elif kind == "pow":
            node = Pow(pick(), draw(st.sampled_from(POWERS)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(funcs)), pick())
        elif kind == "piecewise":
            node = Piecewise(draw(st.sampled_from(REGIONS)), pick(), pick())
        else:
            cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
            node = cls(pick(), pick())
        pool.append(node)
    return pool[-1]


points = st.lists(st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS)),
                  min_size=1, max_size=6).map(np.array)


@settings(max_examples=400, deadline=None)
@given(dags(), points)
def test_dag_evaluation_matches_tree_walk_bit_for_bit(e, pts):
    want = outcome(tree_eval_on_points, e, pts)
    got = outcome(eval_on_points, e, pts)
    if isinstance(want, ExprDomainError):
        assert isinstance(got, ExprDomainError)
        assert str(got) == str(want)
    else:
        assert got.tobytes() == want.tobytes()


def test_division_by_zero_in_shared_subexpression():
    zero = Sub(Var(1), Var(1))
    shared = Div(Var(2), zero)
    e = Add(Mul(shared, Var(1)), shared)
    with pytest.raises(ExprDomainError, match="division by zero"):
        eval_on_points(e, np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("flip", [False, True])
def test_leftmost_domain_error_is_reported(flip):
    # both operands fail at x1 = 1; the walk order decides which one reports
    bad_log = Call("log", Sub(Var(1), Const(1)))
    bad_div = Div(Const(1), Sub(Var(1), Const(1)))
    left, right = (bad_div, bad_log) if flip else (bad_log, bad_div)
    shared = Mul(left, right)
    e = Add(shared, Neg(shared))
    with pytest.raises(ExprDomainError) as err:
        eval_on_points(e, np.array([[1.0]]))
    assert str(err.value) == str(outcome(tree_eval_on_points, e,
                                         np.array([[1.0]])))
    assert ("division" in str(err.value)) == flip


class CountingRegion:
    """x1 > 0, counting its mask evaluations."""

    def __init__(self):
        self.calls = 0

    def contains(self, pts):
        self.calls += 1
        return pts[:, 0] > 0.0


def test_shared_node_evaluated_once():
    region = CountingRegion()
    p = Piecewise(region, Call("log", Var(1)), Const(0))
    e = Add(Mul(p, p), Sub(p, Var(1)))
    pts = np.array([[-1.0], [0.0], [1.0], [math.e]])
    vals = eval_on_points(e, pts)
    assert region.calls == 1
    assert vals.tolist() == [1.0, 0.0, -1.0, 2.0 - math.e]


def test_deep_sharing_is_linear():
    # 2^60 tree nodes, 61 distinct ones
    x = Var(1)
    for _ in range(60):
        x = Mul(x, x)
    assert eval_expr(x, [1.0]) == 1.0
    assert eval_expr(diff_expr(x, 1), [1.0]) == 2.0 ** 60


# --- interning ---------------------------------------------------------------

class TestInterning:
    def test_parse_twice_gives_one_node(self):
        text = "sin(2*pi*x1)*x2 + x1^(3/2)/(1 + x2^2)"
        assert parse_expr(text, 2) is parse_expr(text, 2)
        assert parse_expr("x1 + x2", 2) is Add(Var(1), Var(2))

    def test_derivative_memoized(self):
        e = parse_expr("exp(x1*x2)/(1 + x1^2)", 2)
        assert diff_expr(e, 1) is diff_expr(e, 1)
        assert diff_expr(e, 2) is not diff_expr(e, 1)

    def test_constants_intern_by_value(self):
        assert Const(1) is Const(Fraction(1))
        assert Const(0.5) is Const(Fraction(1, 2))
        assert type(Const(1).value) is Fraction
        assert Pow(Var(1), 2) is Pow(Var(1), Fraction(2))

    def test_equal_regions_intern_together(self):
        a = Piecewise(BoxRegion([0.0], [1.0]), Var(1), Const(0))
        b = Piecewise(BoxRegion((0.0,), (1.0,)), Var(1), Const(0))
        assert a is b

    def test_arity_checked(self):
        with pytest.raises(TypeError):
            Add(Var(1))
        with pytest.raises(TypeError):
            Var(index=1)

    def test_equality_and_hash_are_identity(self):
        e = parse_expr("x1*x2", 2)
        assert e == Mul(Var(1), Var(2))
        assert hash(e) == hash(Mul(Var(1), Var(2)))
        assert e != parse_expr("x2*x1", 2)

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            Var(1).index = 2

    def test_freed_tree_leaves_the_table(self):
        marker = Fraction(987654321, 1000003)

        def marked():
            return [n for n in list(_INTERNED.values())
                    if isinstance(n, Const) and n.value == marker]

        root = Call("exp", Mul(Const(marker),
                               Call("sqrt", Add(Var(1), Var(2)))))
        eval_on_points(diff_expr(root, 1), np.array([[1.0, 2.0]]))
        probe = weakref.ref(root)
        assert marked()
        del root
        gc.collect()
        assert probe() is None
        assert not marked()


# --- sympy oracle for diff_expr ----------------------------------------------

def to_sympy(e, syms):
    sp = pytest.importorskip("sympy")
    if isinstance(e, Const):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Pi):
        return sp.pi
    if isinstance(e, Var):
        return syms[e.index - 1]
    if isinstance(e, Neg):
        return -to_sympy(e.arg, syms)
    if isinstance(e, Pow):
        return to_sympy(e.base, syms) ** sp.Rational(
            e.power.numerator, e.power.denominator)
    if isinstance(e, Call):
        fn = sp.Abs if e.func == "abs" else getattr(sp, e.func)
        return fn(to_sympy(e.arg, syms))
    a, b = to_sympy(e.left, syms), to_sympy(e.right, syms)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    return a / b


def exact_value(expr, at):
    """expr at the point in 30-digit arithmetic; None where undefined."""
    v = expr.evalf(30, subs=at)
    return complex(v) if v.is_finite else None


@settings(max_examples=80, deadline=None)
@given(dags(piecewise=False), st.integers(1, 2),
       st.tuples(st.sampled_from(["-1.3", "-0.4", "0.35", "0.8", "1.7"]),
                 st.sampled_from(["-1.1", "-0.2", "0.45", "1.25"])))
def test_diff_matches_sympy(e, axis, point):
    sp = pytest.importorskip("sympy")
    syms = sp.symbols("x1 x2", real=True)
    try:
        eval_expr(e, [float(x) for x in point])
    except ExprDomainError:
        return  # outside the domain of e
    at = {x: sp.Rational(v) for x, v in zip(syms, point)}
    ours = exact_value(to_sympy(diff_expr(e, axis), syms), at)
    theirs = exact_value(sp.diff(to_sympy(e, syms), syms[axis - 1]), at)
    if ours is None or theirs is None:
        return  # singular in exact arithmetic, e.g. 1/sin(pi)
    assert ours == pytest.approx(theirs, rel=1e-15, abs=1e-25)
