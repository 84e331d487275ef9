"""Every route takes its error estimate from the same two grids: the
value on the grid of N cells per axis against the value the same route
reports on the grid of N // 2, bit for bit."""

import pytest

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import parse_expr
from sobolev.geometry import TensorField
from sobolev.manifold_norms import connection_sobolev_norm, manifold_lq_norm
from sobolev.operators import divergence_integral, empirical_bound
from sobolev.quadrature import BoxDomain, gagliardo_seminorm, lp_norm

GRIDS = [16, 24]
SQUARE = BoxDomain(((0.0, 1.0), (0.0, 2.0)))


@pytest.fixture(scope="module")
def s1():
    return builtin_manifold("s1-stereo")


def two_grid_routes(s1):
    atlas, pou, g = s1
    u = TensorField.from_ambient(atlas, "x1*x2")
    # cos(theta) d_theta: chart components t and -t
    X = TensorField(atlas, 0, 1, [(parse_expr("x1", 1),),
                                  (parse_expr("-x1", 1),)])
    f = parse_expr("sin(x1)*x2 + 1", 2)
    return {
        "lp_norm": lambda N: lp_norm(f, SQUARE, p=3, N=N),
        "manifold_lq_norm": lambda N: manifold_lq_norm(u, g, pou, q=3, N=N),
        "connection_sobolev_norm":
            lambda N: connection_sobolev_norm(u, g, k=2, q=2, N=N, pou=pou),
        "divergence_integral": lambda N: divergence_integral(X, g, pou, N=N),
    }


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("route", ["lp_norm", "manifold_lq_norm",
                                   "connection_sobolev_norm",
                                   "divergence_integral"])
def test_error_estimate_is_the_two_grid_difference(s1, route, N):
    rep = two_grid_routes(s1)[route]
    fine, coarse = rep(N), rep(N // 2)
    assert fine.error_estimate == abs(fine.value - coarse.value)


@pytest.mark.parametrize("N", GRIDS)
def test_gagliardo_two_grid_difference(N):
    f = parse_expr("x1*x1 - x2", 2)

    def rep(n):
        return gagliardo_seminorm(f, SQUARE, theta=0.4, p=2, N=n)

    fine = rep(N)
    assert fine.extras["two_grid_difference"] == \
        abs(fine.value - rep(N // 2).value)


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("name, route", [("torus1", "box"),
                                         ("s1-stereo", "chart")])
def test_operator_bound_coarse_sup_is_the_half_grid_sup(name, route, N):
    atlas, pou, g = builtin_manifold(name)
    family = [TensorField.from_ambient(atlas, text)
              for text in ("x1", "x1*x1 + x2")] if name == "s1-stereo" \
        else [TensorField.from_ambient(atlas, f"sin(2*pi*{k}*x1)")
              for k in (1, 2)]

    def rep(n):
        return empirical_bound("d", g, ("1", "2"), ("0", "2"), family, N=n,
                               route=route, pou=pou)

    assert rep(N).sup_coarse == rep(N // 2).sup
