import math
from collections import Counter

import numpy as np
import pytest

import sobolev.manifold_norms
from sobolev import ArgumentError
from sobolev.atlas import alternate_seeds, build_partition_of_unity, \
    builtin_manifold
from sobolev.funcexpr import eval_on_points
from sobolev.geometry import (
    TensorField, check_overlap_consistency, covariant_derivative,
    fiber_norm_values, scalar_field,
)
from sobolev.manifold_norms import (
    NormVariant, _intrinsic_integrals, chart_sobolev_norm, compare_norms,
    connection_sobolev_norm, manifold_lq_norm,
)
from sobolev.operators import apply_operator, divergence_integral
from sobolev.quadrature import midpoint_grid


@pytest.fixture(scope="module")
def s1():
    return builtin_manifold("s1-stereo")


@pytest.fixture(scope="module")
def t1():
    return builtin_manifold("torus1")


class TestLqNorm:
    def test_unit_volume_torus(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "1")
        rep = manifold_lq_norm(u, g, pou, q=2, N=256)
        assert rep.value == pytest.approx(1.0, rel=1e-6)

    def test_circle_circumference(self, s1):
        atlas, pou, g = s1
        u = TensorField.from_ambient(atlas, "1")
        rep = manifold_lq_norm(u, g, pou, q=2, N=512)
        assert rep.value == pytest.approx(math.sqrt(2 * math.pi), rel=0.005)

    def test_sine_on_torus(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        rep = manifold_lq_norm(u, g, pou, q=2, N=512)
        assert rep.value == pytest.approx(1.0 / math.sqrt(2.0), rel=0.005)

    def test_two_definitions_reported(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        rep = manifold_lq_norm(u, g, pou, q=2, N=128)
        assert rep.extras["chart_sum_value"] > 0
        assert rep.extras["variant_ratio"] == pytest.approx(
            rep.extras["chart_sum_value"] / rep.value)

    def test_overlap_consistency_check(self, t1, s1):
        atlas, _, _ = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        assert check_overlap_consistency(u, 200) <= 1e-8
        s_atlas, _, _ = s1
        v = TensorField.from_ambient(s_atlas, "x1*x2")
        assert check_overlap_consistency(v, 200) <= 1e-8

    def test_definition_ratio_bracket_scale_invariant(self, s1):
        # ratio of the two Lebesgue-norm variants: finite bracket over a
        # family, unchanged under scaling each function
        atlas, pou, g = s1
        ratios = []
        for text in ("1", "x1", "x2^2", "x1*x2"):
            u = TensorField.from_ambient(atlas, text)
            rep = manifold_lq_norm(u, g, pou, q=2, N=256)
            rep5 = manifold_lq_norm(u.scaled(5.0), g, pou, q=2, N=256)
            assert rep5.extras["variant_ratio"] == pytest.approx(
                rep.extras["variant_ratio"], rel=1e-8)
            ratios.append(rep.extras["variant_ratio"])
        assert 0 < min(ratios) <= max(ratios) < float("inf")


class TestChartNorm:
    def test_zero_function(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "0")
        rep = chart_sobolev_norm(u, pou, e=1, q=2, N=128)
        assert rep.value == 0.0

    def test_homogeneity(self, s1):
        atlas, pou, g = s1
        u = TensorField.from_ambient(atlas, "x1")
        a = chart_sobolev_norm(u, pou, e=1, q=2, N=128)
        b = chart_sobolev_norm(u.scaled(7.5), pou, e=1, q=2, N=128)
        assert b.value == pytest.approx(7.5 * a.value, rel=1e-10)

    def test_reproducible(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        a = chart_sobolev_norm(u, pou, e=1, q=2, N=128)
        b = chart_sobolev_norm(u, pou, e=1, q=2, N=128)
        assert a.value == b.value

    def test_fractional_order_runs(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        rep = chart_sobolev_norm(u, pou, e=0.5, q=2, N=96)
        assert rep.value > 0

    def test_negative_order_rejected(self, t1):
        atlas, pou, _ = t1
        u = TensorField.from_ambient(atlas, "1")
        with pytest.raises(ValueError):
            chart_sobolev_norm(u, pou, e=-0.5, q=2, N=32)

    def test_constant_regression_against_oracle(self, t1):
        # Frozen value v* for ||1||_{W^{1,2}} with the default bumps;
        # the oracle re-evaluates the definition by brute force: midpoint
        # sums of sampled psi and a finite-difference derivative.
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "1")
        rep = chart_sobolev_norm(u, pou, e=1, q=2, N=512)
        oracle = 0.0
        N = 1024
        for ci, chart in enumerate(atlas.charts):
            (lo, hi), = chart.truncation.bounds
            h = (hi - lo) / N
            t = (lo + (np.arange(N) + 0.5) * h).reshape(-1, 1)
            psi = eval_on_points(pou.fields[ci], t)
            dpsi = np.gradient(psi, h)
            oracle += math.sqrt(np.sum(psi ** 2) * h) \
                + math.sqrt(np.sum(dpsi ** 2) * h)
        assert rep.value == pytest.approx(oracle, rel=0.01)
        assert rep.value == pytest.approx(10.6678, rel=0.01)  # pinned v*

    def test_single_chart_supported_function_reduces_to_euclidean(self, t1):
        # where the partition is identically 1 on the support, the chart
        # norm has a single nonzero term: the plain Euclidean norm of the
        # local representation
        from sobolev.fields import box_bump
        from sobolev.funcexpr import parse_expr
        from sobolev.quadrature import sobolev_norm
        atlas, pou, g = t1
        bump = box_bump(1, ("1/2",), "1/10", "1/5")  # inside psi_1's plateau
        zero = parse_expr("0", 1)
        u = scalar_field(atlas, [bump, zero])
        chart_rep = chart_sobolev_norm(u, pou, e=1, q=2, N=512)
        euclid = sobolev_norm(bump, atlas.charts[0].truncation, s=1, p=2,
                              N=512)
        assert chart_rep.value == pytest.approx(euclid.value, rel=1e-10)


class TestConnectionNorm:
    def test_k_zero_equals_lq(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        a = connection_sobolev_norm(u, g, k=0, q=2, N=256, pou=pou)
        b = manifold_lq_norm(u, g, pou, q=2, N=256)
        assert (a.value, a.error_estimate) == (b.value, b.error_estimate)

    def test_chart_sampled_once(self, monkeypatch):
        # psi_alpha is sampled once per chart, over both grids, and
        # sqrt(det g) once per chart, where psi_alpha != 0; neither once
        # per grid or per order of the derivative list
        atlas, pou, g = builtin_manifold("s2-stereo")
        u = TensorField.from_ambient(atlas, "x1*x3")
        calls = Counter()

        def counting(expr, pts):
            calls[id(expr), len(pts)] += 1
            return eval_on_points(expr, pts)

        monkeypatch.setattr(sobolev.manifold_norms, "eval_on_points",
                            counting)
        connection_sobolev_norm(u, g, k=2, q=2, N=16, pou=pou)
        expected = Counter()
        for ci, chart in enumerate(atlas.charts):
            pts = np.concatenate([midpoint_grid(chart.truncation, (k, k))[0]
                                  for k in (16, 8)])
            on = np.count_nonzero(eval_on_points(pou.fields[ci], pts))
            expected[id(pou.fields[ci]), 16 * 16 + 8 * 8] += 1
            expected[id(g.sqrt_det[ci]), on] += 1
        assert calls == expected

    def test_sine_closed_form(self, t1):
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        rep = connection_sobolev_norm(u, g, k=1, q=2, N=512, pou=pou)
        expected = math.sqrt(0.5 + (2 * math.pi) ** 2 / 2.0)
        assert rep.value == pytest.approx(expected, rel=0.005)

    def test_spherical_harmonic_closed_form(self):
        # x1*x3 on S^2 is a degree-2 spherical harmonic Y with
        # ||Y||^2 = 4 pi / 15.  By Bochner with Ric = g, the squared L^2
        # norms of Y, grad Y and Hess Y are 1, l(l+1) = 6 and
        # l^2 (l+1)^2 - l(l+1) = 30 times ||Y||^2.
        atlas, pou, g = builtin_manifold("s2-stereo")
        u = TensorField.from_ambient(atlas, "x1*x3")
        rep = connection_sobolev_norm(u, g, k=2, q=2, N=128, pou=pou)
        exact = math.sqrt(37 * 4 * math.pi / 15)
        assert abs(rep.value - exact) <= rep.error_estimate
        assert abs(rep.value - exact) < 1e-4 * exact
        orders = [t["lq_value"] ** 2 / (4 * math.pi / 15)
                  for t in rep.terms]
        assert orders == pytest.approx([1, 6, 30], rel=1e-3, abs=0)

    @pytest.mark.parametrize("k, message", [
        (1.5, "the connection route needs integer order"),
        (0.5, "the connection route needs integer order"),
        (-1, "order k must be finite and >= 0, got -1.0"),
        (math.nan, "order k must be finite and >= 0, got nan"),
        (math.inf, "order k must be finite and >= 0, got inf"),
    ], ids=["1.5", "0.5", "-1", "nan", "inf"])
    def test_k_not_a_nonnegative_integer_rejected(self, t1, k, message):
        # a fractional k was truncated: 1.5 returned the k = 1 value
        atlas, pou, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        with pytest.raises(ArgumentError) as err:
            connection_sobolev_norm(u, g, k=k, q=2, N=32, pou=pou)
        assert str(err.value) == message
        assert connection_sobolev_norm(u, g, k=1.0, q=2, N=32, pou=pou) == \
            connection_sobolev_norm(u, g, k=1, q=2, N=32, pou=pou)

    def test_constant_any_k(self, t1):
        atlas, pou, g = t1
        c = -3.25
        u = TensorField.from_ambient(atlas, "-3.25")
        for k in (0, 1, 2):
            rep = connection_sobolev_norm(u, g, k=k, q=2, N=128, pou=pou)
            assert rep.value == pytest.approx(abs(c), rel=1e-6)


def full_grid_integrals(integrand, g, pou, shape):
    """:func:`_intrinsic_integrals` sampled the plain way: psi_alpha,
    sqrt(det g) and every row at every midpoint of each grid, summed as
    sum psi X sqrt(det g) cellvol."""
    out = []
    for shp in (shape, tuple(k // 2 for k in shape)):
        per_chart = []
        for ci, chart in enumerate(g.atlas.charts):
            pts, cellvol, _ = midpoint_grid(chart.truncation, shp)
            psi = eval_on_points(pou.fields[ci], pts)
            dens = eval_on_points(g.sqrt_det[ci], pts)
            per_chart.append([float(np.sum(psi * x * dens) * cellvol)
                              for x in integrand(ci, pts)])
        out.append([list(r) for r in zip(*per_chart)])
    return tuple(out)


def bits(*values):
    """The bytes of floats, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=float).tobytes()


SAMPLED = [("s1-stereo", "x1*x2", 64), ("s2-stereo", "x1*x3", 16),
           ("torus1", "sin(2*pi*x1)", 64),
           ("torus2", "sin(2*pi*x1)*cos(2*pi*x2)", 16)]


class TestIntrinsicSampling:
    """Sampling only where psi_alpha != 0 gives the bits of sampling every
    midpoint, on every built-in manifold and every intrinsic route."""

    @pytest.mark.parametrize("name,text,N", SAMPLED)
    def test_connection_norm(self, name, text, N):
        atlas, pou, g = builtin_manifold(name)
        u = TensorField.from_ambient(atlas, text)
        derivs = [u, covariant_derivative(u, g, 1),
                  covariant_derivative(u, g, 2)]
        fine, coarse = full_grid_integrals(
            lambda ci, pts: fiber_norm_values(derivs, g, ci, pts) ** 2, g,
            pou, (N,) * atlas.dim)
        rep = connection_sobolev_norm(u, g, k=2, q=2, N=N, pou=pou)
        assert bits(rep.value, rep.coarse) == bits(
            sum(map(sum, fine)) ** 0.5, sum(map(sum, coarse)) ** 0.5)
        assert bits(*(t["lq_value"] for t in rep.terms)) == bits(
            *(sum(row) ** 0.5 for row in fine))

    @pytest.mark.parametrize("name,text,N", SAMPLED)
    def test_lq_norm(self, name, text, N):
        atlas, pou, g = builtin_manifold(name)
        u = TensorField.from_ambient(atlas, text)
        (fine,), (coarse,) = full_grid_integrals(
            lambda ci, pts: fiber_norm_values([u], g, ci, pts) ** 3.0, g,
            pou, (N,) * atlas.dim)
        rep = manifold_lq_norm(u, g, pou, q=3, N=N)
        assert bits(rep.value, rep.coarse) == bits(
            sum(fine) ** (1 / 3), sum(coarse) ** (1 / 3))
        assert bits(*(t["value"] for t in rep.terms
                      if t["kind"] == "intrinsic")) == bits(*fine)

    @pytest.mark.parametrize("name,text,N", SAMPLED)
    def test_divergence_integral(self, name, text, N):
        # the integrand div X is signed, so an off-support product was
        # +-0.0; the sums do not see the sign
        atlas, pou, g = builtin_manifold(name)
        X = apply_operator("grad", g, TensorField.from_ambient(atlas, text))
        divX = apply_operator("div", g, X)
        shape = (N,) * atlas.dim
        (fine,), (coarse,) = full_grid_integrals(
            lambda ci, pts: [eval_on_points(divX.comps[ci][0], pts)], g, pou,
            shape)
        (fine_s,), (coarse_s,) = _intrinsic_integrals(
            lambda ci, pts: [eval_on_points(divX.comps[ci][0], pts)], g, pou,
            shape)
        assert bits(*fine_s, *coarse_s) == bits(*fine, *coarse)
        rep = divergence_integral(X, g, pou, N=N)
        assert bits(rep.value, rep.error_estimate) == bits(
            sum(fine), abs(sum(fine) - sum(coarse)))

    @pytest.mark.parametrize("N,empty", [(8, [True, True]),
                                         (16, [False, True])])
    def test_chart_without_support_points(self, N, empty):
        # on s2-stereo the minus-south-pole chart's psi is 0 at every
        # midpoint of these grids: its integrals are exactly 0.0
        atlas, pou, g = builtin_manifold("s2-stereo")
        assert atlas.charts[1].name == "minus-south-pole"
        u = TensorField.from_ambient(atlas, "x1*x3")
        derivs = [u, covariant_derivative(u, g, 1)]

        def integrand(ci, pts):
            return fiber_norm_values(derivs, g, ci, pts) ** 2

        grids = _intrinsic_integrals(integrand, g, pou, (N, N))
        reference = full_grid_integrals(integrand, g, pou, (N, N))
        assert bits(grids) == bits(reference)
        for grid, none in zip(grids, empty):
            assert all(bits(row[1]) == bits(0.0) for row in grid) == none
        rep = connection_sobolev_norm(u, g, k=1, q=2, N=N, pou=pou)
        fine, coarse = grids
        assert bits(rep.value, rep.coarse) == bits(
            sum(map(sum, fine)) ** 0.5, sum(map(sum, coarse)) ** 0.5)


@pytest.mark.parametrize("q", [0.5, 1.0, math.inf])
def test_integrability_out_of_range_rejected(t1, q):
    atlas, pou, g = t1
    u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
    with pytest.raises(ValueError, match="integrability p must be finite"):
        connection_sobolev_norm(u, g, k=1, q=q, N=64, pou=pou)
    with pytest.raises(ValueError, match="integrability p must be finite"):
        manifold_lq_norm(u, g, pou, q=q, N=64)


TRIG_FAMILY = [
    "x1", "x2", "x1*x2", "x1^2 - x2^2", "x1^3",
    "x1 + 0.5*x2", "x2^2", "x1*x2^2", "0.25 + x1", "x2 - x1",
]


class TestCompareNorms:
    def test_same_variant_gives_unit_ratios(self, s1):
        atlas, pou, g = s1
        fam = [TensorField.from_ambient(atlas, t)
               for t in TRIG_FAMILY[:3]]
        v = NormVariant("chart", pou=pou)
        out = compare_norms(fam, v, v, e=1, q=2, N=64)
        assert out["bracket"][0] == pytest.approx(1.0, abs=1e-14)
        assert out["bracket"][1] == pytest.approx(1.0, abs=1e-14)

    def test_two_pous_bracket(self, s1):
        atlas, pou, g = s1
        pou2 = build_partition_of_unity(atlas, alternate_seeds(atlas), "alt")
        fam = [TensorField.from_ambient(atlas, t)
               for t in TRIG_FAMILY[:4]]
        out = compare_norms(fam, NormVariant("chart", pou=pou),
                            NormVariant("chart", pou=pou2), e=1, q=2, N=96)
        lo, hi = out["bracket"]
        assert 0 < lo <= hi < float("inf")

    def test_chart_vs_connection(self, t1):
        atlas, pou, g = t1
        fam = [TensorField.from_ambient(atlas, "sin(2*pi*x1)"),
               TensorField.from_ambient(atlas, "cos(2*pi*x1)")]
        out = compare_norms(fam, NormVariant("chart", pou=pou),
                            NormVariant("connection", metric=g, pou=pou),
                            e=1, q=2, N=128)
        lo, hi = out["bracket"]
        assert 0 < lo <= hi < float("inf")

    def test_empty_family_rejected(self, s1):
        atlas, pou, _ = s1
        with pytest.raises(ValueError):
            compare_norms([], NormVariant("chart", pou=pou),
                          NormVariant("chart", pou=pou), e=1)
