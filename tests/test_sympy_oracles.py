"""sympy as a test-only oracle for the symbolic geometry.

The determinant and adjugate of :mod:`sobolev.geometry` must be exact on
rational matrices (the folding constructors reduce them to constants),
the Christoffel symbols of the round metric in stereographic
coordinates must match the ones sympy derives from the same metric, and
the partials of every function and infix operator of
:mod:`sobolev.funcexpr` must match sympy's derivatives.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import (
    _INFIX, FUNCTIONS, Call, Const, ExprDomainError, diff_expr, eval_many,
    expr_to_text, neg, parse_expr,
)
from sobolev.geometry import _adjugate_over_det, _det_expr

sp = pytest.importorskip("sympy")


def rational(v: Fraction):
    return sp.Rational(v.numerator, v.denominator)


def random_invertible(rng: random.Random, n: int) -> list:
    while True:
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for _ in range(n)] for _ in range(n)]
        if sp.Matrix([[rational(v) for v in row] for row in m]).det() != 0:
            return m


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_det_and_adjugate_match_sympy_exactly(n, seed):
    m = random_invertible(random.Random(f"det:{n}:{seed}"), n)
    oracle = sp.Matrix([[rational(v) for v in row] for row in m])
    det = _det_expr([[Const(v) for v in row] for row in m])
    assert isinstance(det, Const)
    assert rational(det.value) == oracle.det()
    inv = _adjugate_over_det([[Const(v) for v in row] for row in m], det)
    want = oracle.inv()
    for i in range(n):
        for j in range(n):
            assert isinstance(inv[i][j], Const)
            assert rational(inv[i][j].value) == want[i, j]


def sympy_christoffel(n: int):
    xs = sp.symbols(f"x1:{n + 1}")
    conformal = 4 / (1 + sum(x * x for x in xs)) ** 2
    g = sp.eye(n) * conformal
    ginv = g.inv()
    gamma = [[[sp.Rational(1, 2) * sum(
        ginv[k, l] * (sp.diff(g[j, l], xs[i]) + sp.diff(g[i, l], xs[j])
                      - sp.diff(g[i, j], xs[l])) for l in range(n))
        for j in range(n)] for i in range(n)] for k in range(n)]
    return xs, gamma


@pytest.mark.parametrize("chart", [0, 1])
def test_s2_stereo_christoffel_matches_sympy(chart):
    atlas, _, g = builtin_manifold("s2-stereo")
    xs, gamma = sympy_christoffel(2)
    rng = random.Random(f"christoffel:{chart}")
    pts = [tuple(Fraction(rng.randint(-400, 400), 100) for _ in range(2))
           for _ in range(12)]
    got = eval_many([e for plane in g.christoffel[chart] for row in plane
                     for e in row],
                    np.array(pts, dtype=float)).reshape(-1, 2, 2, 2)
    for p, point in enumerate(pts):
        at = dict(zip(xs, (rational(v) for v in point)))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    want = float(gamma[k][i][j].subs(at))
                    assert got[p, k, i, j] == pytest.approx(want, rel=1e-12,
                                                            abs=0)


# Points inside the domain of every row: there INNER is positive, and the
# partials of LEFT dominate those of RIGHT, so no partial cancels.
ROW_POINTS = [tuple(Fraction(random.Random(f"rows:{i}").randint(20, 130),
                             100) for _ in range(2)) for i in range(6)]
INNER = "x1^2 + x1*x2 + 1/4"
LEFT, RIGHT = "x1^3 + 5*x2^2 + 4*x1", "2 + x1*x2/8"


def check_partials(e):
    xs = sp.symbols("x1 x2", real=True)
    oracle = sp.sympify(expr_to_text(e).replace("^", "**"),
                        locals={"x1": xs[0], "x2": xs[1]})
    got = eval_many([diff_expr(e, axis) for axis in (1, 2)],
                    np.array(ROW_POINTS, dtype=float))
    for p, point in enumerate(ROW_POINTS):
        at = dict(zip(xs, (rational(v) for v in point)))
        for axis in (1, 2):
            want = float(sp.diff(oracle, xs[axis - 1]).subs(at))
            assert got[p, axis - 1] == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("func", FUNCTIONS)
def test_function_derivative_matches_sympy(func):
    checked = 0
    inner = parse_expr(INNER, 2)
    for arg in (inner, neg(inner)):
        e = Call(func, arg)
        try:
            eval_many([e], np.array(ROW_POINTS, dtype=float))
        except ExprDomainError:
            continue  # the points are outside this function's domain
        check_partials(e)
        checked += 1
    assert checked


@pytest.mark.parametrize("cls", list(_INFIX), ids=lambda c: c.__name__)
def test_infix_derivative_matches_sympy(cls):
    check_partials(cls(parse_expr(LEFT, 2), parse_expr(RIGHT, 2)))
