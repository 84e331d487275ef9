import contextlib
import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev import cli, quadrature
from sobolev.atlas import builtin_manifold
from sobolev.fields import box_bump
from sobolev.funcexpr import (
    ExprDomainError, const, diff_expr, eval_many, eval_on_points, mul,
    parse_expr,
)
from sobolev.geometry import TensorField
from sobolev.quadrature import (
    _MAX_PRODUCT_P, BoxDomain, SupportViolation, _offset_kernel,
    _offset_pair_sum, extend_by_zero, gagliardo_double_sum,
    gagliardo_seminorm, grid_shape, lp_norm, midpoint_grid, multi_indices,
    sobolev_norm,
)

UNIT = BoxDomain(((0.0, 1.0),))
X = parse_expr("x1", 1)
ONE = parse_expr("1", 1)


def dense_double_sum(u, box, theta, p, N=None, half=True):
    """Test-only oracle: the pair sum cell pair by cell pair.

    Every pair's distance and kernel are computed from the midpoints.
    With ``half=True`` the x<y half is summed and doubled; with
    ``half=False`` all ordered pairs are summed directly.
    """
    shape = grid_shape(box.n, N)
    pts, cellvol, _ = midpoint_grid(box, shape)
    vals = u.values(pts)
    alpha = box.n + theta * p
    M = vals.size
    chunk = max(1, int(4_000_000 / max(M, 1)))
    total = 0.0
    for i0 in range(0, M, chunk):
        i1 = min(i0 + chunk, M)
        j0 = i0 if half else 0
        dv = vals[i0:i1, None] - vals[None, j0:]
        d2 = np.zeros((i1 - i0, M - j0))
        for ax in range(box.n):
            diff = pts[i0:i1, ax, None] - pts[None, j0:, ax]
            d2 += diff * diff
        if half:  # strictly above the diagonal
            keep = np.arange(M - j0)[None, :] > np.arange(i1 - i0)[:, None]
        else:
            keep = d2 > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(keep, np.abs(dv) ** p / np.where(
                keep, d2, 1.0) ** (alpha / 2.0), 0.0)
        total += float(np.sum(contrib))
    total *= cellvol * cellvol
    return 2.0 * total if half else total


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

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_oracle_half_and_full(self, p):
        u = parse_expr("sin(2*pi*x1)", 1)
        got = gagliardo_double_sum(u, UNIT, 0.5, p, N=64)
        for half in (True, False):
            want = dense_double_sum(u, UNIT, 0.5, p, N=64, half=half)
            assert got == pytest.approx(want, rel=1e-12)

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


@st.composite
def pair_sum_cases(draw):
    """A smooth function on an anisotropic 1d, 2d or 3d box, with a
    per-axis grid small enough for the dense oracle."""
    n = draw(st.integers(1, 3))
    top = {1: 96, 2: 16, 3: 7}[n]
    shape = tuple(draw(st.integers(2, top)) for _ in range(n))
    bounds = []
    terms = ["x1*x2"] if n > 1 else []
    for ax in range(1, n + 1):
        lo = draw(st.integers(-4, 4)) / 4
        bounds.append((lo, lo + draw(st.integers(2, 12)) / 4))
        c = draw(st.sampled_from([1, -2, 3]))
        fn = draw(st.sampled_from(["sin", "cos", "exp"]))
        terms.append(f"{c}*{fn}(x{ax}/2)")
    return parse_expr(" + ".join(terms), n), BoxDomain(tuple(bounds)), shape


@settings(max_examples=150, deadline=None)
@given(pair_sum_cases(),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.one_of(st.just(2.0), st.sampled_from([3.0, 4.0]),
                 st.floats(1.0, 4.0, exclude_min=True)))
def test_pair_sum_matches_dense_oracle(case, theta, p):
    u, box, shape = case
    got = gagliardo_double_sum(u, box, theta, p, shape)
    want = dense_double_sum(u, box, theta, p, shape)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# 2d grids wider than the near radius of the p = 2 path (8 finest-axis
# spacings), so every axis-0 offset has its full window of trailing offsets
# and some fall off the grid; (0, 3) makes the second axis the coarser one
WIDE_GRIDS = [
    pytest.param(BoxDomain(((0.0, 1.0), (0.0, 1.0))), (24, 24), id="24x24"),
    pytest.param(BoxDomain(((0.0, 1.0), (0.0, 3.0))), (40, 24), id="40x24"),
]


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.95])
@pytest.mark.parametrize("box, shape", WIDE_GRIDS)
def test_near_field_on_wide_grids_matches_dense_oracle(box, shape, theta):
    u = parse_expr("sin(3*x1)*x2 + cos(x2)*x1*x1", 2)
    got = gagliardo_double_sum(u, box, theta, 2, shape)
    want = dense_double_sum(u, box, theta, 2, shape)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("box, shape", WIDE_GRIDS)
def test_near_field_blocks_do_not_change_the_sum(monkeypatch, box, shape):
    # a buffer smaller than one row of any offset's window: one row a block
    u = parse_expr("sin(3*x1)*x2 + cos(x2)*x1*x1", 2)
    default = gagliardo_double_sum(u, box, 0.5, 2, shape)
    monkeypatch.setattr(quadrature, "_BUFFER", 16)
    small = gagliardo_double_sum(u, box, 0.5, 2, shape)
    assert small == pytest.approx(default, rel=1e-14, abs=0.0)


# 256 folds axis 0 by 64, 135 by 45, the prime 97 not at all; p = 8 is the
# largest p taken by products, 9 and 2.5 go through np.power
@pytest.mark.parametrize("p", [3.0, float(_MAX_PRODUCT_P), 9.0, 2.5])
@pytest.mark.parametrize("N", [256, 97, 135])
def test_one_dimensional_pair_sum_matches_dense_oracle(N, p):
    u = parse_expr("sin(3*x1) + x1*x1", 1)
    got = gagliardo_double_sum(u, UNIT, 0.4, p, N)
    want = dense_double_sum(u, UNIT, 0.4, p, N)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestPairSumEdgeCases:
    SQUARE = BoxDomain(((0.0, 1.0), (0.0, 2.0)))

    @pytest.mark.parametrize("c", ["1", "0.1", "-7/3", "1000000.1"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_constant_is_exactly_zero(self, c, p):
        for box, N in ((UNIT, 100), (self.SQUARE, (7, 13))):
            u = parse_expr(c, box.n)
            assert gagliardo_double_sum(u, box, 0.5, p, N) == 0.0

    @pytest.mark.parametrize("p", [2, 3])
    def test_tiny_variation_on_large_offset(self, p):
        u = parse_expr("5 + x1/1000000000", 1)
        got = gagliardo_double_sum(u, UNIT, 0.5, p, 64)
        want = dense_double_sum(u, UNIT, 0.5, p, 64)
        assert math.isfinite(got) and got >= 0.0
        assert got == pytest.approx(want, rel=1e-10)

    def test_large_one_dimensional_grid(self):
        # |x-y|^2 / |x-y|^2 = 1 over the unit square: the seminorm is 1
        start = time.perf_counter()
        S = gagliardo_double_sum(X, UNIT, 0.5, 2, 65536)
        assert time.perf_counter() - start < 1.0
        assert S ** 0.5 == pytest.approx(1.0, abs=1e-3)

    def test_fold_matches_unfolded_loop(self):
        # N = 4096 folds axis 0 into 64 x 64 blocks; m = 1 is one offset
        # per loop iteration, the same pairs summed in another order
        shape = (4096,)
        pts, _, _ = midpoint_grid(UNIT, shape)
        u = eval_on_points(parse_expr("sin(3*x1) + x1", 1), pts)
        K = _offset_kernel(UNIT, shape, 1.0 + 0.3 * 3.0)
        folded = _offset_pair_sum(u, K, 3.0)
        unfolded = _offset_pair_sum(u, K, 3.0, m=1)
        assert folded == pytest.approx(unfolded, rel=1e-13, abs=0.0)

    def test_offset_path_temporaries_stay_small(self):
        # buffers of about 32 K values keep the peak near 1 MB on an
        # 80 x 80 grid; temporaries of 1 M values would take about 8 MB
        u = parse_expr("sin(x1)*x2", 2)
        square = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
        gagliardo_double_sum(u, square, 0.5, 3, 8)  # first-call set-up
        tracemalloc.start()
        try:
            gagliardo_double_sum(u, square, 0.5, 3, 80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("expr, box, N, p", [
        pytest.param("sin(x1)*x2", SQUARE, (24, 17), 2, id="2"),
        pytest.param("sin(x1)*x2", SQUARE, (24, 17), 3, id="3"),
        pytest.param("sin(x1)*x2", SQUARE, (24, 17), 2.5, id="2.5"),
        pytest.param("sin(3*x1) + x1", UNIT, 4096, 3, id="1d-4096-3"),
    ])
    def test_same_input_same_bits(self, expr, box, N, p):
        u = parse_expr(expr, box.n)
        a = gagliardo_double_sum(u, box, 0.3, p, N)
        b = gagliardo_double_sum(u, box, 0.3, p, N)
        assert a.hex() == b.hex()


class TestSobolevNorm:
    @pytest.mark.parametrize("N", [-4, 0, 1])
    def test_resolution_below_two_rejected(self, N):
        with pytest.raises(ValueError, match="at least 2"):
            sobolev_norm(X, UNIT, s=1, p=2, N=N)
        square = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="at least 2"):
            lp_norm(parse_expr("x1*x2", 2), square, p=2, N=(8, N))

    def test_too_small_grid_names_the_callers_grid(self):
        # the double sum of a fractional order runs on the halved grid
        square = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError,
                           match=r"at least 4 per axis, got \[3, 3\]"):
            sobolev_norm(parse_expr("x1", 2), square, s=1.5, p=2, N=3)
        with pytest.raises(ValueError,
                           match=r"at least 4 per axis, got \[3\]"):
            gagliardo_seminorm(X, UNIT, 0.5, 2, N=3)

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
        rep = sobolev_norm(X, UNIT, s=1.5, p=2, N=64)
        assert rep.value == pytest.approx(
            sum(t["value"] for t in rep.terms), rel=1e-12)

    def test_full_variant_adds_the_top_order_lp_terms(self):
        """The equivalent full Slobodeckij form counts each top-order L^p
        term once more; extras carry it bit for bit beside the value."""
        rep = sobolev_norm(parse_expr("sin(2*pi*x1)", 1), UNIT, s=1.5, p=2,
                           N=64)
        top = [t["value"] for t in rep.terms
               if t["kind"] == "lp" and sum(t["multi_index"]) == 1]
        assert len(top) == 1
        full = rep.value + sum(top)
        assert rep.extras["variant"] == "seminorm"
        assert rep.extras["seminorm_variant_value"] == rep.value
        assert rep.extras["full_variant_value"] == full
        assert rep.extras["variant_ratio"] == full / rep.value
        assert rep.value == pytest.approx(28.653527291116824, rel=1e-12)
        assert full == pytest.approx(33.09641022927519, rel=1e-12)

    def test_variant_ratio_reported(self):
        rep = sobolev_norm(parse_expr("sin(2*pi*x1)", 1), UNIT, s=0.5, p=2, N=64)
        assert rep.extras["full_variant_value"] >= rep.extras["seminorm_variant_value"]
        assert rep.extras["variant_ratio"] >= 1.0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm(X, UNIT, s=-0.5, p=2, N=32)


def per_derivative_norm(u, box, s, p, N):
    """Test-only reference: the terms of ``sobolev_norm`` as ``lp_norm``
    and ``gagliardo_seminorm`` of each derivative, each evaluated alone,
    summed in the same order; (value, term values, error estimate)."""
    k = math.floor(s)
    theta = s - k
    value, terms, err = 0.0, [], 0.0
    for nu in multi_indices(box.n, k):
        d = u
        for ax, m in enumerate(nu, start=1):
            for _ in range(m):
                d = diff_expr(d, ax)
        reps = [lp_norm(d, box, p, N)]
        if theta > 0 and sum(nu) == k:
            reps.append(gagliardo_seminorm(d, box, theta, p, N))
        for rep in reps:
            terms.append(rep.value)
            value += rep.value
            err += rep.error_estimate
    return value, terms, err


def _bits(rep):
    """The per-derivative triple of a report, with floats as hex."""
    return _hex(rep.value, [t["value"] for t in rep.terms],
                rep.error_estimate)


def _hex(value, terms, err):
    return value.hex(), [t.hex() for t in terms], err.hex()


class TestSharedSampling:
    """``sobolev_norm`` samples every derivative once per grid in one
    program; each of its terms must equal the per-derivative path bit for
    bit."""

    CASES = [("sin(3*x1)*exp(x1) + x1^4", "0,1", 64),
             ("sin(x1)*x2^2 + cos(x1*x2)", "0,1;-1,1", 16)]

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("expr,box,N", CASES)
    def test_box_norm_matches_per_derivative_path(self, expr, box, N, p, s):
        box = BoxDomain([tuple(map(float, b.split(",")))
                         for b in box.split(";")])
        u = parse_expr(expr, box.n)
        assert _bits(sobolev_norm(u, box, s, p, N)) == \
            _hex(*per_derivative_norm(u, box, s, p, N))

    @pytest.mark.parametrize("manifold,e,q", [("s2-stereo", 1.5, 2.0),
                                              ("s2-stereo", 2.0, 3.0),
                                              ("torus2", 1.5, 3.0)])
    def test_chart_terms_match_per_derivative_path(self, manifold, e, q):
        # nested Piecewise bump trees, shared by every derivative
        atlas, pou, _ = builtin_manifold(manifold)
        u = TensorField.from_ambient(
            atlas, "x1*x3" if manifold == "s2-stereo" else
            "sin(2*pi*x1)*cos(2*pi*x2)")
        for ci, chart in enumerate(atlas.charts):
            term = mul(pou.fields[ci], u.comps[ci][0])
            assert _bits(sobolev_norm(term, chart.truncation, e, q, 16)) == \
                _hex(*per_derivative_norm(term, chart.truncation, e, q, 16))

    def test_one_program_per_grid(self, monkeypatch):
        calls = []

        def counting(roots, pts):
            calls.append((len(roots), len(pts)))
            return eval_many(roots, pts)

        monkeypatch.setattr(quadrature, "eval_many", counting)
        square = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
        sobolev_norm(parse_expr("sin(x1)*x2", 2), square, 1.5, 2, 16)
        # fine: u, two first partials, each followed by its gradient
        assert calls == [(1 + 2 * 3, 256), (1 + 2, 64)]

    @pytest.mark.parametrize("expr,N", [("(x1-1/2)^(3/2)", 64),
                                        ("abs(x1 - 1/128)", 64)])
    def test_domain_error_is_the_per_derivative_error(self, expr, N):
        # the second fails only at its derivative, on a fine midpoint
        u = parse_expr(expr, 1)
        with pytest.raises(ExprDomainError) as ref:
            per_derivative_norm(u, UNIT, 1.5, 2.0, N)
        with pytest.raises(ExprDomainError) as got:
            sobolev_norm(u, UNIT, 1.5, 2.0, N)
        assert str(got.value) == str(ref.value)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.execute(["norm", "euclid", "--expr", expr, "--box",
                                "0,1", "--s", "3/2", "--grid", str(N)]) == 3


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
        ext = extend_by_zero(self.bump(), self.INNER, N=128)
        pts = np.linspace(-1, 2, 1024).reshape(-1, 1)
        vals = eval_on_points(ext, pts)
        outside = (pts[:, 0] <= 0.0) | (pts[:, 0] >= 1.0)
        assert np.all(vals[outside] == 0.0)

    def test_restriction_identity_exact(self):
        ext = extend_by_zero(self.bump(), self.INNER, N=128)
        pts, _, _ = midpoint_grid(self.INNER, (128,))
        assert np.array_equal(eval_on_points(ext, pts),
                              eval_on_points(self.bump(), pts))

    def test_support_violation_detected(self):
        with pytest.raises(SupportViolation):
            extend_by_zero(ONE, self.INNER, N=64)

    def test_norm_does_not_shrink(self):
        ext = extend_by_zero(self.bump(), self.INNER, N=128)
        inner_rep = sobolev_norm(self.bump(), self.INNER, s=0.5, p=2, N=128)
        outer_rep = sobolev_norm(ext, self.OUTER, s=0.5, p=2, N=384)
        assert outer_rep.value >= inner_rep.value
