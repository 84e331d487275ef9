import numpy as np
import pytest

from sobolev.atlas import builtin_manifold
from sobolev.fields import ExprField
from sobolev.funcexpr import parse_expr
from sobolev.geometry import (
    check_overlap_consistency, christoffel, covariant_derivative,
    fiber_norm, fiber_norm_values, metric_as_tensor, metric_aux, musical,
    scalar_field, TensorField,
)
from sobolev.quadrature import midpoint_grid


@pytest.fixture(scope="module")
def s2():
    return builtin_manifold("s2-stereo")


@pytest.fixture(scope="module")
def t1():
    return builtin_manifold("torus1")


@pytest.fixture(scope="module")
def t2():
    return builtin_manifold("torus2")


def chart_points(atlas, chart=0, per_axis=7, shrink=0.5):
    trunc = atlas.charts[chart].truncation
    pts, _, _ = midpoint_grid(trunc, (per_axis,) * atlas.dim)
    return pts * shrink if atlas.family == "stereo" else pts


class TestMetric:
    def test_flat_metric_aux(self, t2):
        atlas, _, g = t2
        inv, sqrt_det = metric_aux(g, 0)
        pts = chart_points(atlas)
        assert np.allclose(ExprField(sqrt_det, 2).values(pts), 1.0)
        assert np.allclose(g.matrix_values(0, pts, inverse=True),
                           np.eye(2)[None, :, :])

    def test_sphere_density_closed_form(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        r2 = np.sum(pts * pts, axis=1)
        expected = 4.0 / (1.0 + r2) ** 2
        _, sqrt_det = metric_aux(g, 0)
        assert np.allclose(ExprField(sqrt_det, 2).values(pts), expected,
                           rtol=1e-12)

    def test_metric_inverse_pointwise(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        G = g.matrix_values(0, pts)
        Ginv = g.matrix_values(0, pts, inverse=True)
        prod = np.einsum("mij,mjk->mik", G, Ginv)
        assert np.max(np.abs(prod - np.eye(2)[None, :, :])) <= 1e-10

    def test_symmetry_and_positivity(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        G = g.matrix_values(0, pts)
        assert np.allclose(G, np.transpose(G, (0, 2, 1)))
        eigs = np.linalg.eigvalsh(G)
        assert np.min(eigs) > 0

    def test_metric_transformation_law(self, s2, t2):
        for atlas, _, g in (s2, t2):
            worst = check_overlap_consistency(metric_as_tensor(g), npts=100)
            assert worst <= 1e-8


class TestChristoffel:
    def test_flat_vanishes(self, t2):
        atlas, _, g = t2
        gamma = christoffel(g, 0)
        pts = chart_points(atlas)
        assert np.max(np.abs(gamma.values(pts))) == 0.0

    def test_sphere_closed_form(self, s2):
        atlas, _, g = s2
        gamma = christoffel(g, 0)
        pts = chart_points(atlas)
        vals = gamma.values(pts)
        r2 = np.sum(pts * pts, axis=1)
        expected = np.zeros_like(vals)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    term = np.zeros(len(pts))
                    if i == k:
                        term += pts[:, j]
                    if j == k:
                        term += pts[:, i]
                    if i == j:
                        term -= pts[:, k]
                    expected[:, k, i, j] = -2.0 / (1.0 + r2) * term
        assert np.max(np.abs(vals - expected)) <= 1e-10

    def test_symmetry_in_lower_indices(self, s2):
        atlas, _, g = s2
        gamma = christoffel(g, 1)
        pts = chart_points(atlas, chart=1)
        vals = gamma.values(pts)
        assert np.array_equal(vals, np.transpose(vals, (0, 1, 3, 2)))

    def test_matches_finite_differences(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas, per_axis=5)
        h = 1e-6
        n = 2
        gamma = christoffel(g, 0).values(pts)
        Ginv = g.matrix_values(0, pts, inverse=True)

        def metric_at(q):
            return g.matrix_values(0, q)

        for i in range(n):
            for j in range(n):
                # dg[l, m] / dx^i and /dx^j and /dx^l by central differences
                fd = np.zeros((len(pts), n, n, n))  # fd[:, ax, l, m]
                for ax in range(n):
                    e = np.zeros(n)
                    e[ax] = h
                    fd[:, ax] = (metric_at(pts + e) - metric_at(pts - e)) / (2 * h)
                for k in range(n):
                    recon = np.zeros(len(pts))
                    for l in range(n):
                        recon += 0.5 * Ginv[:, k, l] * (
                            fd[:, i, j, l] + fd[:, j, i, l] - fd[:, l, i, j])
                    assert np.max(np.abs(recon - gamma[:, k, i, j])) <= 1e-4


class TestCovariantDerivative:
    def test_function_gradient_components(self, t1):
        atlas, _, g = t1
        u = scalar_field(atlas, [atlas.local_representation(
            parse_expr("sin(2*pi*x1)", 1), ci) for ci in range(2)])
        du = covariant_derivative(u, g, 1)
        assert du.k_cov == 1 and du.l_con == 0
        pts = chart_points(atlas)
        vals = du.component(0, (), (0,)).values(pts)
        expected = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0])
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_flat_vector_field(self, t1):
        atlas, _, g = t1
        comps = [{((0,), ()): atlas.local_representation(
            parse_expr("sin(2*pi*x1)", 1), ci)} for ci in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        dX = covariant_derivative(X, g, 1)
        pts = chart_points(atlas)
        vals = dX.component(0, (0,), (0,)).values(pts)
        assert np.allclose(vals, 2 * np.pi * np.cos(2 * np.pi * pts[:, 0]),
                           rtol=1e-12)

    def test_flat_hessian(self, t2):
        atlas, _, g = t2
        u = scalar_field(atlas, [atlas.local_representation(
            parse_expr("sin(2*pi*x1)*cos(2*pi*x2)", 2), ci)
            for ci in range(4)])
        hess = covariant_derivative(u, g, 2)
        pts = chart_points(atlas)
        x, y = pts[:, 0], pts[:, 1]
        got_xy = hess.component(0, (), (0, 1)).values(pts)
        expected = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        assert np.allclose(got_xy, expected, rtol=1e-10)
        # flat metric: full symmetry of second derivatives
        got_yx = hess.component(0, (), (1, 0)).values(pts)
        assert np.allclose(got_xy, got_yx, rtol=1e-12)

    def test_metric_compatibility(self, s2):
        # the covariant derivative of g vanishes identically
        atlas, _, g = s2
        nabla_g = covariant_derivative(metric_as_tensor(g), g, 1)
        pts = chart_points(atlas, per_axis=6)
        worst = 0.0
        for key in nabla_g.keys():
            worst = max(worst, np.max(np.abs(
                nabla_g.component(0, *key).values(pts))))
        assert worst <= 1e-8

    def test_sphere_second_derivative_correction(self, s2):
        # (nabla^2 f)_{ji} = d_j d_i f - Gamma^k_{ji} d_k f
        atlas, _, g = s2
        expr = parse_expr("x1^2 + x2", 2)
        fields = [ExprField(expr, 2), ExprField(expr, 2)]
        u = scalar_field(atlas, fields)
        hess = covariant_derivative(u, g, 2)
        pts = chart_points(atlas, per_axis=5)
        gamma = christoffel(g, 0).values(pts)
        x = pts[:, 0]
        df = np.stack([2 * x, np.ones(len(pts))], axis=1)
        dd = np.zeros((len(pts), 2, 2))
        dd[:, 0, 0] = 2.0
        for j in range(2):
            for i in range(2):
                expected = dd[:, j, i] - sum(
                    gamma[:, k, j, i] * df[:, k] for k in range(2))
                got = hess.component(0, (), (j, i)).values(pts)
                assert np.max(np.abs(got - expected)) <= 1e-10


class TestFiberNormAndMusical:
    def test_flat_vector_length(self, t2):
        atlas, _, g = t2
        comps = [{((0,), ()): ExprField(parse_expr("3", 2), 2),
                  ((1,), ()): ExprField(parse_expr("4", 2), 2)}
                 for _ in range(4)]
        X = TensorField(atlas, 0, 1, comps)
        assert fiber_norm(X, g, 0, [0.5, 0.5]) == pytest.approx(5.0)

    def test_one_form_diagonal_metric(self, s2):
        # |omega|^2 = g^{ij} w_i w_j; on the round sphere g^{ii} = (1+r^2)^2/4
        atlas, _, g = s2
        comps = [{((), (0,)): ExprField(parse_expr("1", 2), 2),
                  ((), (1,)): ExprField(parse_expr("2", 2), 2)}
                 for _ in range(2)]
        w = TensorField(atlas, 1, 0, comps)
        pt = [0.3, -0.4]
        r2 = 0.3 ** 2 + 0.4 ** 2
        expected = np.sqrt((1 + 4) * (1 + r2) ** 2 / 4)
        assert fiber_norm(w, g, 0, pt) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self, s2):
        atlas, _, g = s2
        comps = [{((0,), ()): ExprField(parse_expr("x1", 2), 2),
                  ((1,), ()): ExprField(parse_expr("x2^2", 2), 2)}
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        from sobolev.funcexpr import const, mul
        cX = TensorField(atlas, 0, 1, [
            {k: ExprField(mul(const(-2.5), f.expr), 2)
             for k, f in block.items()}
            for block in comps])
        pts = chart_points(atlas, per_axis=4)
        a = fiber_norm_values(X, g, 0, pts)
        b = fiber_norm_values(cX, g, 0, pts)
        assert np.allclose(b, 2.5 * a, rtol=1e-12)

    def test_flat_lowers_with_metric_factor(self, s2):
        atlas, _, g = s2
        comps = [{((0,), ()): ExprField(parse_expr("1", 2), 2),
                  ((1,), ()): ExprField(parse_expr("0", 2), 2)}
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        flat = musical(X, g, "flat", 0)
        assert flat.k_cov == 1 and flat.l_con == 0
        pts = chart_points(atlas, per_axis=4)
        r2 = np.sum(pts * pts, axis=1)
        got = flat.component(0, (), (0,)).values(pts)
        assert np.allclose(got, 4.0 / (1 + r2) ** 2, rtol=1e-12)

    def test_sharp_flat_identity(self, s2):
        atlas, _, g = s2
        comps = [{((0,), ()): ExprField(parse_expr("x2", 2), 2),
                  ((1,), ()): ExprField(parse_expr("x1*x2", 2), 2)}
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        back = musical(musical(X, g, "flat", 0), g, "sharp", 0)
        pts = chart_points(atlas, per_axis=5)
        for key in X.keys():
            a = X.component(0, *key).values(pts)
            b = back.component(0, *key).values(pts)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_flat_metric_musical_is_identity_on_components(self, t2):
        atlas, _, g = t2
        comps = [{((0,), ()): ExprField(parse_expr("sin(2*pi*x1)", 2), 2),
                  ((1,), ()): ExprField(parse_expr("x2", 2), 2)}
                 for _ in range(4)]
        X = TensorField(atlas, 0, 1, comps)
        flat = musical(X, g, "flat", 0)
        pts = chart_points(atlas, per_axis=5)
        for j in range(2):
            a = X.component(0, (j,), ()).values(pts)
            b = flat.component(0, (), (j,)).values(pts)
            assert np.array_equal(a, b)

    def test_musical_slot_validation(self, t1):
        atlas, _, g = t1
        u = scalar_field(atlas, [ExprField(parse_expr("x1", 1), 1)
                                 for _ in range(2)])
        with pytest.raises(ValueError):
            musical(u, g, "flat", 0)
