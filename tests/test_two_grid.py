"""Every route takes its error estimate from the same two grids: the
value on the grid of N cells per axis against the value the same route
reports on the grid of N // 2, bit for bit.  Both come off one grid
ladder, which samples each grid once: a norm report carries its value at
N // 2 as ``rep.coarse``, outside its JSON, and an operator bound reads
a norm's values at N and at N // 2 off the two grids of its estimate."""

import contextlib
import io
import json
from collections import Counter

import pytest

from sobolev import cli, funcexpr, quadrature
from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import parse_expr
from sobolev.geometry import TensorField
from sobolev.manifold_norms import (
    NormVariant, chart_sobolev_norm, connection_sobolev_norm,
    manifold_lq_norm,
)
from sobolev.operators import divergence_integral, empirical_bound
from sobolev.quadrature import (
    BoxDomain, gagliardo_seminorm, lp_norm, sobolev_norm,
)

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


# A ladder samples N and N // 2 once each; a norm's report at N carries
# its value at N // 2 as ``coarse``, the same bits as a separate call
# there, and its JSON does not.

def ladder_routes(s1):
    atlas, pou, g = s1
    u = TensorField.from_ambient(atlas, "x1*x2")
    f = parse_expr("sin(x1)*x2 + 1", 2)
    return {
        "box integer order": lambda N: sobolev_norm(f, SQUARE, 2, 3, N),
        "box fractional order": lambda N: sobolev_norm(f, SQUARE, 1.5, 2, N),
        "chart fractional order":
            lambda N: chart_sobolev_norm(u, pou, e=0.5, q=3, N=N),
        "chart integer order":
            lambda N: chart_sobolev_norm(u, pou, e=2, q=2, N=N),
        "connection": lambda N: connection_sobolev_norm(u, g, 2, 2, N, pou),
        "lp": lambda N: lp_norm(f, SQUARE, p=3, N=N),
        "gagliardo": lambda N: gagliardo_seminorm(f, SQUARE, 0.4, 3, N),
        "intrinsic": lambda N: manifold_lq_norm(u, g, pou, q=3, N=N),
    }


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("route", ["box integer order",
                                   "box fractional order",
                                   "chart fractional order",
                                   "chart integer order", "connection",
                                   "lp", "gagliardo", "intrinsic"])
def test_ladder_levels_are_separate_calls(s1, route, N):
    rep = ladder_routes(s1)[route]
    fine = rep(N)
    assert fine.coarse == rep(N // 2).value
    assert "coarse" not in fine
    assert "coarse" not in json.dumps(fine)


@pytest.mark.parametrize("name, text, kind, e", [
    ("torus2", "sin(2*pi*x1)*cos(2*pi*x2)", "box", 1.5),
    ("s2-stereo", "x1*x3", "chart", 1.5), ("s2-stereo", "x2", "chart", 2),
    ("s1-stereo", "x1*x2", "connection", 2)])
def test_norm_variant_ladder_levels_are_separate_calls(name, text, kind, e):
    atlas, pou, g = builtin_manifold(name)
    u = TensorField.from_ambient(atlas, text)
    variant = NormVariant(kind, pou=pou, metric=g)
    values = variant._ladder(u, e, 2, 16)
    assert values == (variant.compute(u, e, 2, 16),
                      variant.compute(u, e, 2, 8))


def programs_per_grid(monkeypatch, argv, module=quadrature,
                      name="eval_many"):
    """Run one CLI command; count the calls of ``module.name``, by default
    quadrature's evaluation programs, by the number of points they run
    on."""
    counts = Counter()
    run = getattr(module, name)

    def counting(roots, pts):
        counts[len(pts)] += 1
        return run(roots, pts)
    monkeypatch.setattr(module, name, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.execute(argv.split()) == 0
    return dict(counts)


@pytest.mark.parametrize("argv, counts", [
    ("op bound --manifold torus1 --op d --from 1,2 --to 0,2 "
     "--expr sin(2*pi*x1) --grid 32", {32: 2, 16: 2}),
    ("op bound --manifold s2-stereo --op laplace --from 2,2 --to 0,2 "
     "--expr x1*x3 --expr x2 --grid 24", {576: 8, 144: 8}),
    ("op bound --manifold torus1 --op grad --from 3/2,2 --to 1/2,2 "
     "--expr sin(2*pi*x1) --grid 32", {32: 2, 16: 2}),
    ("compare --manifold s1-stereo --expr x1 --expr x1*x2 --e 1/2 "
     "--grid 512", {512: 8, 256: 8}),
])
def test_each_grid_is_sampled_once(monkeypatch, argv, counts):
    assert programs_per_grid(monkeypatch, argv) == counts


@pytest.mark.parametrize("argv, counts", [
    # the fine grid: u for its double sum, its gradient for the diagonal
    # model; the coarse grid: u
    ("norm euclid --expr x1^2*x2 --box 0,1;0,2 --s 1/2 --grid 32 "
     "--seminorm", {1024: 2, 256: 1}),
    ("norm euclid --expr sin(3*x1) --box 0,1 --s 3/10 --p 3 --grid 64 "
     "--seminorm", {64: 2, 32: 1}),
])
def test_seminorm_samples_its_gradient_in_one_program(monkeypatch, argv,
                                                      counts):
    # every program, through eval_many or Expr.values (no Piecewise nodes,
    # so no branch programs on subsets of the points)
    assert programs_per_grid(monkeypatch, argv, funcexpr, "_run") == counts
