"""Reference values of the chart, connection, Lebesgue, operator-bound and
zero-extension routes, pinned at relative 1e-12.

They stand in for an independent evaluation path: a change to how fields
are represented, differentiated or evaluated must leave every value and
error estimate here unchanged up to roundoff.
"""

import pytest

from sobolev.atlas import builtin_manifold
from sobolev.fields import box_bump
from sobolev.manifold_norms import (
    ManifoldFunction, chart_sobolev_norm, connection_sobolev_norm,
    manifold_lq_norm,
)
from sobolev.operators import build_operator, empirical_bound
from sobolev.quadrature import BoxDomain, extend_by_zero, sobolev_norm

REL = 1e-12


def pinned(x):
    return pytest.approx(x, rel=REL, abs=0.0)


@pytest.fixture(scope="module")
def s2():
    return builtin_manifold("s2-stereo")


def test_chart_norm_torus2():
    atlas, pou, _ = builtin_manifold("torus2")
    u = ManifoldFunction.from_ambient(atlas, "sin(2*pi*x1)*cos(2*pi*x2)")
    rep = chart_sobolev_norm(u, atlas, pou, e=1.5, q=2, N=24)
    assert rep.value == pinned(237.6401346604631)
    assert rep.error_estimate == pinned(136.03887688166097)


def test_chart_norm_s2(s2):
    atlas, pou, _ = s2
    u = ManifoldFunction.from_ambient(atlas, "x1*x3")
    rep = chart_sobolev_norm(u, atlas, pou, e=1.0, q=2, N=24)
    assert rep.value == pinned(6.1301259572975475)
    assert rep.error_estimate == pinned(2.631258501880674)


def test_connection_norm_s2(s2):
    atlas, pou, g = s2
    u = ManifoldFunction.from_ambient(atlas, "x1*x3")
    rep = connection_sobolev_norm(u, g, k=2, q=2, N=32, pou=pou)
    assert rep.value == pinned(5.610767019013283)
    assert rep.error_estimate == pinned(0.39873842851236674)


def test_lq_norm_s1():
    atlas, pou, g = builtin_manifold("s1-stereo")
    u = ManifoldFunction.from_ambient(atlas, "x1*x2 + x2")
    rep = manifold_lq_norm(u, g, atlas, pou, q=3, N=128)
    assert rep.value == pinned(1.6216859029976594)
    assert rep.error_estimate == pinned(0.001679787018997736)
    assert rep.extras["chart_sum_value"] == pinned(2.153501944914929)


def test_laplace_bound_s2(s2):
    atlas, pou, g = s2
    family = [ManifoldFunction.from_ambient(atlas, t) for t in ("x1*x3", "x2")]
    out = empirical_bound(build_operator("laplace", g), (2, 2), (0, 2),
                          family, N=24, route="chart", pou=pou)
    assert out["ratios"] == [pinned(0.14316711897395729),
                             pinned(0.07774048355612564)]
    assert out["sup_coarse"] == pinned(0.14781837546452395)


def test_norm_of_zero_extension_source():
    inner = BoxDomain(((0.0, 1.0),))
    outer = BoxDomain(((-0.25, 1.25),))
    gf = extend_by_zero(box_bump(1, (0.5,), "1/5", "2/5"), inner, outer, N=64)
    rep = sobolev_norm(gf.source, outer, s=1.5, p=2, N=96)
    assert rep.value == pinned(43.12267907283361)
    assert rep.error_estimate == pinned(4.476762096891692)
