"""sympy as a test-only oracle for the symbolic geometry.

The determinant and adjugate of :mod:`sobolev.geometry` must be exact on
rational matrices (the folding constructors reduce them to constants),
and the Christoffel symbols of the round metric in stereographic
coordinates must match the ones sympy derives from the same metric.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import Const, eval_many
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
