import math

import numpy as np
import pytest

from sobolev.fields import box_bump
from sobolev.funcexpr import const, mul, parse_expr
from sobolev.quadrature import (
    BoxDomain, GridAlignmentError, SupportViolation, extend_by_zero,
    gagliardo_double_sum, gagliardo_seminorm, lp_norm, multi_indices,
    sobolev_norm,
)

UNIT = BoxDomain(((0.0, 1.0),))
X = parse_expr("x1", 1)
ONE = parse_expr("1", 1)


class TestLpNorm:
    def test_constant_one(self):
        rep = lp_norm(ONE, UNIT, p=2, N=64)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_linear_closed_form(self):
        # integral of x^2 over [0,1] is 1/3
        rep = lp_norm(X, UNIT, p=2, N=256)
        assert rep.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)

    def test_constant_homogeneity(self):
        c = -2.5
        box2 = BoxDomain(((0.0, 2.0), (0.0, 3.0)))
        rep = lp_norm(parse_expr("-2.5", 2), box2, p=3, N=16)
        assert rep.value == pytest.approx(abs(c) * box2.volume ** (1 / 3),
                                          rel=1e-12)

    def test_value_matches_breakdown(self):
        rep = lp_norm(X, UNIT, p=2, N=64)
        assert rep.value == pytest.approx(sum(t["value"] for t in rep.terms))


class TestGagliardo:
    def test_constant_vanishes(self):
        rep = gagliardo_seminorm(ONE, UNIT, theta=0.5, p=2, N=128)
        assert rep.value <= 1e-12

    def test_linear_theta_half(self):
        # |x-y|^2 / |x-y|^2 = 1, double integral over the unit square = 1
        rep = gagliardo_seminorm(X, UNIT, theta=0.5, p=2, N=512)
        assert rep.value == pytest.approx(1.0, rel=0.02)

    def test_linear_theta_quarter(self):
        # integral of |x-y|^(1/2) over the unit square = 8/15
        rep = gagliardo_seminorm(X, UNIT, theta=0.25, p=2, N=512)
        assert rep.value == pytest.approx(math.sqrt(8.0 / 15.0), rel=0.02)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            gagliardo_seminorm(X, UNIT, theta=1.0, p=2, N=32)
        with pytest.raises(ValueError):
            gagliardo_seminorm(X, UNIT, theta=0.0, p=2, N=32)

    def test_symmetry_half_vs_full(self):
        u = parse_expr("sin(2*pi*x1)", 1)
        half = gagliardo_double_sum(u, UNIT, 0.5, 2, N=64, half=True)
        full = gagliardo_double_sum(u, UNIT, 0.5, 2, N=64, half=False)
        assert half == pytest.approx(full, rel=1e-12)

    def test_grid_convergence_within_error_estimate(self):
        for theta in (0.25, 0.5):
            rep = gagliardo_seminorm(X, UNIT, theta=theta, p=2, N=128)
            rep2 = gagliardo_seminorm(X, UNIT, theta=theta, p=2, N=256)
            assert abs(rep2.value - rep.value) < rep.error_estimate

    def test_domain_growth_monotonicity(self):
        # seminorm of a fixed compactly supported bump grows with the box
        bump = box_bump(1, (0.5,), "1/5", "2/5")
        inner = UNIT
        outer = BoxDomain(((-1.0, 2.0),))
        si = gagliardo_seminorm(bump, inner, theta=0.5, p=2, N=192)
        so = gagliardo_seminorm(bump, outer, theta=0.5, p=2, N=576)
        assert so.value >= si.value

    def test_two_dimensional_runs(self):
        u2 = parse_expr("x1*x2", 2)
        box2 = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
        rep = gagliardo_seminorm(u2, box2, theta=0.5, p=2, N=24)
        assert rep.value > 0


class TestSobolevNorm:
    @pytest.mark.parametrize("N", [-4, 0, 1])
    def test_resolution_below_two_rejected(self, N):
        with pytest.raises(ValueError, match="at least 2"):
            sobolev_norm(X, UNIT, s=1, p=2, N=N)
        square = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="at least 2"):
            lp_norm(parse_expr("x1*x2", 2), square, p=2, N=(8, N))

    def test_s_zero_collapses_to_lp(self):
        a = sobolev_norm(X, UNIT, s=0, p=2, N=128)
        b = lp_norm(X, UNIT, p=2, N=128)
        assert a.value == pytest.approx(b.value, rel=1e-14)

    def test_linear_three_halves(self):
        # ||x||_2 + ||1||_2 + |1|_{1/2,2} = 1/sqrt(3) + 1 + 0
        rep = sobolev_norm(X, UNIT, s=1.5, p=2, N=256)
        assert rep.value == pytest.approx(1.0 / math.sqrt(3.0) + 1.0, rel=0.01)

    def test_homogeneity(self):
        u = parse_expr("sin(2*pi*x1)", 1)
        c = 3.75
        a = sobolev_norm(u, UNIT, s=1.5, p=2, N=64)
        b = sobolev_norm(mul(const(c), u), UNIT, s=1.5, p=2, N=64)
        assert b.value == pytest.approx(c * a.value, rel=1e-10)

    def test_triangle_inequality(self):
        u = parse_expr("sin(2*pi*x1)", 1)
        v = parse_expr("x1^2", 1)
        uv = parse_expr("sin(2*pi*x1) + x1^2", 1)
        s, p, N = 1.5, 2, 96
        ru = sobolev_norm(u, UNIT, s, p, N)
        rv = sobolev_norm(v, UNIT, s, p, N)
        ruv = sobolev_norm(uv, UNIT, s, p, N)
        slack = 2 * (ru.error_estimate + rv.error_estimate)
        assert ruv.value <= ru.value + rv.value + slack

    def test_value_matches_breakdown(self):
        for variant in ("seminorm", "full"):
            rep = sobolev_norm(X, UNIT, s=1.5, p=2, N=64, variant=variant)
            assert rep.value == pytest.approx(
                sum(t["value"] for t in rep.terms), rel=1e-12)

    def test_variant_ratio_reported(self):
        rep = sobolev_norm(parse_expr("sin(2*pi*x1)", 1), UNIT, s=0.5, p=2, N=64)
        assert rep.extras["full_variant_value"] >= rep.extras["seminorm_variant_value"]
        assert rep.extras["variant_ratio"] >= 1.0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm(X, UNIT, s=-0.5, p=2, N=32)


def test_box_interior_is_open():
    square = BoxDomain(((0.0, 1.0), (-1.0, 1.0)))
    pts = np.array([[0.5, 0.0], [0.0, 0.0], [0.5, 1.0], [1.5, 0.0],
                    [0.999, -0.999]])
    assert square.interior(pts).tolist() == [True, False, False, False, True]


class TestMultiIndices:
    def test_enumeration(self):
        assert multi_indices(1, 2) == [(0,), (1,), (2,)]
        assert set(multi_indices(2, 1)) == {(0, 0), (0, 1), (1, 0)}
        assert len(multi_indices(2, 2)) == 6


class TestExtendByZero:
    INNER = UNIT
    OUTER = BoxDomain(((-1.0, 2.0),))

    def bump(self):
        return box_bump(1, (0.5,), "1/5", "2/5")

    def test_zero_outside_inner(self):
        g = extend_by_zero(self.bump(), self.INNER, self.OUTER, N=128)
        pts = np.linspace(-1, 2, 1024).reshape(-1, 1)
        vals = g.source.values(pts)
        outside = (pts[:, 0] <= 0.0) | (pts[:, 0] >= 1.0)
        assert np.all(vals[outside] == 0.0)

    def test_restriction_identity_exact(self):
        g = extend_by_zero(self.bump(), self.INNER, self.OUTER, N=128)
        back = g.restrict(self.INNER)
        direct = self.bump()
        from sobolev.quadrature import midpoint_grid
        pts, _, _ = midpoint_grid(self.INNER, (128,))
        assert np.array_equal(back.values, direct.values(pts).reshape(128))

    def test_support_violation_detected(self):
        with pytest.raises(SupportViolation):
            extend_by_zero(ONE, self.INNER, self.OUTER, N=64)

    def test_misaligned_outer_box(self):
        with pytest.raises(GridAlignmentError):
            extend_by_zero(self.bump(), self.INNER,
                           BoxDomain(((-0.37, 1.21),)), N=64)

    def test_norm_does_not_shrink(self):
        g = extend_by_zero(self.bump(), self.INNER, self.OUTER, N=128)
        inner_rep = sobolev_norm(self.bump(), self.INNER, s=0.5, p=2, N=128)
        outer_rep = sobolev_norm(g.source, self.OUTER, s=0.5, p=2, N=384)
        assert outer_rep.value >= inner_rep.value
