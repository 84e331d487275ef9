"""Every norm is 1-homogeneous: norm(c u) = |c| norm(u), to roundoff.

The reports do not recompute this; it is a property of the code, checked
here on every route over seeded rational scales c.  The function c u is
built from the text ``(c)*(u)``, as the CLI would build it.  The ratios
of ``compare`` and ``op bound`` are 0-homogeneous and must not move.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sobolev.atlas import alternate_seeds, build_partition_of_unity, \
    builtin_manifold
from sobolev.funcexpr import parse_expr
from sobolev.geometry import TensorField
from sobolev.manifold_norms import (
    NormVariant, compare_norms, connection_sobolev_norm, manifold_lq_norm,
)
from sobolev.operators import empirical_bound
from sobolev.quadrature import (
    BoxDomain, gagliardo_seminorm, lp_norm, sobolev_norm,
)

RTOL = 1e-12
SQUARE = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
UNIT = BoxDomain(((0.0, 1.0),))


def manifold(name):
    atlas, pou, g = builtin_manifold(name)
    return atlas, pou, g, build_partition_of_unity(
        atlas, alternate_seeds(atlas), "alt")


T1, T2, S1, S2 = map(manifold, ("torus1", "torus2", "s1-stereo",
                                "s2-stereo"))


def on(m, text):
    return TensorField.from_ambient(m[0], text)


def compare(m, against, e, grid):
    _, pou, g, alt = m
    other = NormVariant("connection", metric=g, pou=pou) \
        if against == "connection" else NormVariant("chart", pou=alt)
    return lambda fam: compare_norms(
        [on(m, t) for t in fam], NormVariant("chart", pou=pou), other,
        e=e, q=2, N=grid)["ratios"]


# route: (degree of homogeneity, templates, values of the scaled templates)
ROUTES = {
    "lp": (1, ["sin(x1)*x2"],
           lambda f: [lp_norm(parse_expr(f[0], 2), SQUARE, 3, 16).value]),
    "seminorm p=2": (1, ["x1*x1"], lambda f: [gagliardo_seminorm(
        parse_expr(f[0], 1), UNIT, 0.5, 2, 64).value]),
    "seminorm p=3": (1, ["sin(x1)*x2"], lambda f: [gagliardo_seminorm(
        parse_expr(f[0], 2), SQUARE, 0.3, 3, 16).value]),
    "box euclid": (1, ["sin(x1)*x2"], lambda f: [sobolev_norm(
        parse_expr(f[0], 2), SQUARE, 1.5, 2, 16).value]),
    "box torus": (1, ["sin(2*pi*x1)*cos(2*pi*x2)"], lambda f: [
        NormVariant("box").compute(on(T2, f[0]), 1.5, 3, 16)]),
    "chart": (1, ["x1*x3"], lambda f: [
        NormVariant("chart", pou=S2[1]).compute(on(S2, f[0]), 1.5, 2, 16)]),
    "chart alt": (1, ["x1*x2"], lambda f: [
        NormVariant("chart", pou=S1[3]).compute(on(S1, f[0]), 0.5, 2, 64)]),
    "connection": (1, ["x1*x2"], lambda f: [connection_sobolev_norm(
        on(S1, f[0]), S1[2], k=2, q=3, N=32, pou=S1[1]).value]),
    "intrinsic": (1, ["x1*x3"], lambda f: [manifold_lq_norm(
        on(S2, f[0]), S2[2], S2[1], q=3, N=16).value]),
    "compare pou-alt": (0, ["x1", "x1*x2"], compare(S1, "pou-alt", 0.5, 64)),
    "compare connection": (0, ["x1", "x2"],
                           compare(S1, "connection", 1, 64)),
    "op bound": (0, ["sin(2*pi*x1)", "cos(4*pi*x1)"], lambda f: [
        empirical_bound("laplace", T1[2], ("5/2", "2"), ("1/2", "2"),
                        [on(T1, t) for t in f], N=16)[key]
        for key in ("sup", "sup_coarse")]),
}


def scales():
    """Rationals c with 1/4 <= |c| <= 4 and a denominator up to 199."""
    return st.builds(Fraction, st.integers(1, 199 * 4),
                     st.integers(1, 199)).filter(
        lambda c: Fraction(1, 4) <= c <= 4).flatmap(
        lambda c: st.sampled_from([c, -c]))


@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(c=scales())
def test_norm_is_homogeneous(route, c):
    degree, templates, values = ROUTES[route]
    base = values(templates)
    assert all(v > 0 for v in base)
    got = values([f"({c})*({t})" for t in templates])
    want = [abs(float(c)) ** degree * v for v in base]
    assert got == pytest.approx(want, rel=RTOL, abs=0)
