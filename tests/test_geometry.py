import numpy as np
import pytest

from sobolev import geometry
from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import eval_many, eval_on_points, parse_expr
from sobolev.geometry import (
    MetricField, check_overlap_consistency, covariant_derivative,
    fiber_norm_values, metric_as_tensor, musical,
    scalar_field, TensorField, transform_components,
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


def matrix(comps, pts):
    """The n x n matrix of expressions ``comps`` (a metric's ``comps`` or
    ``inv_comps`` block) at every point."""
    n = len(comps)
    return eval_many([e for row in comps for e in row], pts).reshape(-1, n, n)


def gamma_values(gamma, pts):
    """The n x n x n expressions ``gamma[k][i][j]`` (a metric's
    ``christoffel`` block) at every point."""
    n = len(gamma)
    return eval_many([e for plane in gamma for row in plane for e in row],
                     pts).reshape(-1, n, n, n)


def chart_points(atlas, chart=0, per_axis=7, shrink=0.5):
    trunc = atlas.charts[chart].truncation
    pts, _, _ = midpoint_grid(trunc, (per_axis,) * atlas.dim)
    return pts if atlas.period_box is not None else pts * shrink


class TestMetric:
    def test_flat_metric_density(self, t2):
        atlas, _, g = t2
        sqrt_det = g.sqrt_det[0]
        pts = chart_points(atlas)
        assert np.allclose(eval_on_points(sqrt_det, pts), 1.0)
        assert np.allclose(matrix(g.inv_comps[0], pts),
                           np.eye(2)[None, :, :])

    def test_sphere_density_closed_form(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        r2 = np.sum(pts * pts, axis=1)
        expected = 4.0 / (1.0 + r2) ** 2
        sqrt_det = g.sqrt_det[0]
        assert np.allclose(eval_on_points(sqrt_det, pts), expected,
                           rtol=1e-12)

    def test_metric_inverse_pointwise(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        G = matrix(g.comps[0], pts)
        Ginv = matrix(g.inv_comps[0], pts)
        prod = np.einsum("mij,mjk->mik", G, Ginv)
        assert np.max(np.abs(prod - np.eye(2)[None, :, :])) <= 1e-10

    def test_symmetry_and_positivity(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        G = matrix(g.comps[0], pts)
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
        pts = chart_points(atlas)
        assert np.max(np.abs(gamma_values(g.christoffel[0], pts))) == 0.0

    def test_sphere_closed_form(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas)
        vals = gamma_values(g.christoffel[0], pts)
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
        pts = chart_points(atlas, chart=1)
        vals = gamma_values(g.christoffel[1], pts)
        assert np.array_equal(vals, np.transpose(vals, (0, 1, 3, 2)))

    def test_matches_finite_differences(self, s2):
        atlas, _, g = s2
        pts = chart_points(atlas, per_axis=5)
        h = 1e-6
        n = 2
        gamma = gamma_values(g.christoffel[0], pts)
        Ginv = matrix(g.inv_comps[0], pts)

        def metric_at(q):
            return matrix(g.comps[0], q)

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
        u = scalar_field(atlas, atlas.local_representations(
            parse_expr("sin(2*pi*x1)", 1)))
        du = covariant_derivative(u, g, 1)
        assert du.k_cov == 1 and du.l_con == 0
        pts = chart_points(atlas)
        vals = eval_on_points(du.component(0, (), (0,)), pts)
        expected = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0])
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_flat_vector_field(self, t1):
        atlas, _, g = t1
        comps = [(f,) for f in atlas.local_representations(
            parse_expr("sin(2*pi*x1)", 1))]
        X = TensorField(atlas, 0, 1, comps)
        dX = covariant_derivative(X, g, 1)
        pts = chart_points(atlas)
        vals = eval_on_points(dX.component(0, (0,), (0,)), pts)
        assert np.allclose(vals, 2 * np.pi * np.cos(2 * np.pi * pts[:, 0]),
                           rtol=1e-12)

    def test_flat_hessian(self, t2):
        atlas, _, g = t2
        u = scalar_field(atlas, atlas.local_representations(
            parse_expr("sin(2*pi*x1)*cos(2*pi*x2)", 2)))
        hess = covariant_derivative(u, g, 2)
        pts = chart_points(atlas)
        x, y = pts[:, 0], pts[:, 1]
        got_xy = eval_on_points(hess.component(0, (), (0, 1)), pts)
        expected = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        assert np.allclose(got_xy, expected, rtol=1e-10)
        # flat metric: full symmetry of second derivatives
        got_yx = eval_on_points(hess.component(0, (), (1, 0)), pts)
        assert np.allclose(got_xy, got_yx, rtol=1e-12)

    def test_metric_compatibility(self, s2):
        # the covariant derivative of g vanishes identically
        atlas, _, g = s2
        nabla_g = covariant_derivative(metric_as_tensor(g), g, 1)
        pts = chart_points(atlas, per_axis=6)
        worst = 0.0
        for key in nabla_g.keys():
            worst = max(worst, np.max(np.abs(
                eval_on_points(nabla_g.component(0, *key), pts))))
        assert worst <= 1e-8

    def test_sphere_second_derivative_correction(self, s2):
        # (nabla^2 f)_{ji} = d_j d_i f - Gamma^k_{ji} d_k f
        atlas, _, g = s2
        expr = parse_expr("x1^2 + x2", 2)
        u = scalar_field(atlas, [expr, expr])
        hess = covariant_derivative(u, g, 2)
        pts = chart_points(atlas, per_axis=5)
        gamma = gamma_values(g.christoffel[0], pts)
        x = pts[:, 0]
        df = np.stack([2 * x, np.ones(len(pts))], axis=1)
        dd = np.zeros((len(pts), 2, 2))
        dd[:, 0, 0] = 2.0
        for j in range(2):
            for i in range(2):
                expected = dd[:, j, i] - sum(
                    gamma[:, k, j, i] * df[:, k] for k in range(2))
                got = eval_on_points(hess.component(0, (), (j, i)), pts)
                assert np.max(np.abs(got - expected)) <= 1e-10


class TestFiberNormAndMusical:
    def test_flat_vector_length(self, t2):
        atlas, _, g = t2
        comps = [(parse_expr("3", 2),
                  parse_expr("4", 2))
                 for _ in range(4)]
        X = TensorField(atlas, 0, 1, comps)
        assert fiber_norm_values([X], g, 0, np.array([[0.5, 0.5]]))[0, 0] == \
            pytest.approx(5.0)

    def test_no_fields_have_no_rows(self, s2):
        _, _, g = s2
        pts = chart_points(s2[0], per_axis=3)
        assert fiber_norm_values([], g, 0, pts).shape == (0, len(pts))

    def test_no_points_have_empty_rows(self, s2):
        # the intrinsic routes evaluate where psi != 0, which can be nowhere
        atlas, _, g = s2
        u = TensorField.from_ambient(atlas, "x1*x3")
        fields = [u, covariant_derivative(u, g, 1),
                  covariant_derivative(u, g, 2)]
        out = fiber_norm_values(fields, g, 1, np.empty((0, 2)))
        assert out.shape == (len(fields), 0)

    def test_one_form_diagonal_metric(self, s2):
        # |omega|^2 = g^{ij} w_i w_j; on the round sphere g^{ii} = (1+r^2)^2/4
        atlas, _, g = s2
        comps = [(parse_expr("1", 2),
                  parse_expr("2", 2))
                 for _ in range(2)]
        w = TensorField(atlas, 1, 0, comps)
        pt = np.array([[0.3, -0.4]])
        r2 = 0.3 ** 2 + 0.4 ** 2
        expected = np.sqrt((1 + 4) * (1 + r2) ** 2 / 4)
        assert fiber_norm_values([w], g, 0, pt)[0, 0] == \
            pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self, s2):
        atlas, _, g = s2
        comps = [(parse_expr("x1", 2),
                  parse_expr("x2^2", 2))
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        from sobolev.funcexpr import const, mul
        cX = TensorField(atlas, 0, 1, [
            tuple(mul(const(-2.5), f) for f in block)
            for block in comps])
        pts = chart_points(atlas, per_axis=4)
        a = fiber_norm_values([X], g, 0, pts)
        b = fiber_norm_values([cX], g, 0, pts)
        assert np.allclose(b, 2.5 * a, rtol=1e-12)

    def test_flat_lowers_with_metric_factor(self, s2):
        atlas, _, g = s2
        comps = [(parse_expr("1", 2),
                  parse_expr("0", 2))
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        flat = musical(X, g, "flat")
        assert flat.k_cov == 1 and flat.l_con == 0
        pts = chart_points(atlas, per_axis=4)
        r2 = np.sum(pts * pts, axis=1)
        got = eval_on_points(flat.component(0, (), (0,)), pts)
        assert np.allclose(got, 4.0 / (1 + r2) ** 2, rtol=1e-12)

    def test_sharp_flat_identity(self, s2):
        atlas, _, g = s2
        comps = [(parse_expr("x2", 2),
                  parse_expr("x1*x2", 2))
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        back = musical(musical(X, g, "flat"), g, "sharp")
        pts = chart_points(atlas, per_axis=5)
        for key in X.keys():
            a = eval_on_points(X.component(0, *key), pts)
            b = eval_on_points(back.component(0, *key), pts)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_flat_metric_musical_is_identity_on_components(self, t2):
        atlas, _, g = t2
        comps = [(parse_expr("sin(2*pi*x1)", 2),
                  parse_expr("x2", 2))
                 for _ in range(4)]
        X = TensorField(atlas, 0, 1, comps)
        flat = musical(X, g, "flat")
        pts = chart_points(atlas, per_axis=5)
        for j in range(2):
            a = eval_on_points(X.component(0, (j,), ()), pts)
            b = eval_on_points(flat.component(0, (), (j,)), pts)
            assert np.array_equal(a, b)

    def test_musical_slot_validation(self, t1):
        atlas, _, g = t1
        u = scalar_field(atlas, [parse_expr("x1", 1)
                                 for _ in range(2)])
        with pytest.raises(ValueError):
            musical(u, g, "flat")


def oracle_fiber_norm(field, g, chart, pts):
    """|A|_F by the double loop over all K^2 pairs of components, each
    product taking one metric factor per slot pair."""
    vals = eval_many(field.comps[chart], pts).T
    G = matrix(g.comps[chart], pts)
    Ginv = matrix(g.inv_comps[chart], pts)
    total = np.zeros(len(pts))
    keys = field.keys()
    for p1, (con1, cov1) in enumerate(keys):
        for p2, (con2, cov2) in enumerate(keys):
            factor = vals[p1] * vals[p2]
            for a, b in zip(con1, con2):
                factor = factor * G[:, a, b]
            for i, r in zip(cov1, cov2):
                factor = factor * Ginv[:, i, r]
            total += factor
    return np.sqrt(total)


@pytest.fixture(scope="module")
def skew():
    """Per dimension: an atlas and a metric on it that is neither
    diagonal (n = 2) nor constant, the same expressions on every chart;
    it is positive definite, det = 4 + 2 x1^2 + 2 x2^2 for n = 2."""
    texts = {1: [["2 + x1^2"]],
             2: [["2 + x1^2", "x1*x2"], ["x1*x2", "2 + x2^2"]]}
    out = {}
    for n, name in ((1, "torus1"), (2, "torus2")):
        atlas, _, _ = builtin_manifold(name)
        comps = [[parse_expr(t, n) for t in row] for row in texts[n]]
        out[n] = atlas, MetricField(atlas, [comps] * len(atlas.charts))
    return out


def skew_tensor(atlas, k_cov, l_con):
    """A tensor field whose components are distinct, sign-changing
    functions of every coordinate."""
    n = atlas.dim
    count = n ** (k_cov + l_con)
    block = tuple(parse_expr(" + ".join(
        f"sin({p + j + 1}*x{j + 1} + {p % 3})" for j in range(n)), n)
        for p in range(count))
    return TensorField(atlas, k_cov, l_con, [block] * len(atlas.charts))


VALENCES = [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (3, 0), (4, 0)]


class TestFiberNormOracle:
    """The slot-by-slot contraction against the K^2 double loop, on a
    metric with off-diagonal and non-constant entries, which no built-in
    metric has; the 40 x 40 grid spans more than one block of points for
    the 16 components of a rank-4 tensor."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k_cov,l_con", VALENCES)
    def test_matches_double_loop(self, skew, n, k_cov, l_con):
        atlas, g = skew[n]
        field = skew_tensor(atlas, k_cov, l_con)
        pts = chart_points(atlas, per_axis=40)
        (got,) = fiber_norm_values([field], g, 0, pts)
        np.testing.assert_allclose(got, oracle_fiber_norm(field, g, 0, pts),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_batch_rows_equal_single_fields(self, skew, n):
        atlas, g = skew[n]
        fields = [TensorField.from_ambient(atlas, "sin(2*pi*x1)")]
        fields += [skew_tensor(atlas, *v) for v in VALENCES]
        pts = chart_points(atlas, per_axis=40)
        rows = fiber_norm_values(fields, g, 0, pts)
        assert rows.shape == (len(fields), len(pts))
        for field, row in zip(fields, rows):
            assert np.array_equal(row, fiber_norm_values([field], g, 0,
                                                         pts)[0])


class TestTensorLaw:
    """Derived tensors obey the transformation law on every chart overlap;
    this pins the component order of each valence, mixed ones included."""

    @pytest.mark.parametrize("name,text", [
        ("s2-stereo", "x1*x3"), ("s1-stereo", "x1*x2"),
        ("torus2", "sin(2*pi*x1)*cos(2*pi*x2)")])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterated_covariant_derivative(self, name, text, k):
        atlas, _, g = builtin_manifold(name)
        du = covariant_derivative(TensorField.from_ambient(atlas, text), g, k)
        assert check_overlap_consistency(du) <= 1e-10

    @pytest.mark.parametrize("name,text", [
        ("s2-stereo", "x1*x3"), ("s1-stereo", "x1*x2")])
    def test_gradient_family(self, name, text):
        from sobolev.operators import apply_operator
        atlas, _, g = builtin_manifold(name)
        grad = apply_operator("grad", g,
                              TensorField.from_ambient(atlas, text))
        derived = [grad, covariant_derivative(grad, g, 1),
                   covariant_derivative(grad, g, 2),
                   musical(grad, g, "flat")]
        assert [(t.k_cov, t.l_con) for t in derived] == \
            [(0, 1), (1, 1), (2, 1), (1, 0)]
        for t in derived:
            assert check_overlap_consistency(t) <= 1e-10


class TestTensorLawNonsymmetricJacobian:
    """Every built-in transition has a symmetric Jacobian, so it cannot
    tell J from its transpose; a linear stub transition x_a = A x_b with A
    not symmetric can.  Contravariant slots take A^-1[i, c] and covariant
    ones A[c, j], as ``np.einsum`` states the law here."""

    A = np.array([[2.0, 0.5], [-0.3, 1.5]])

    @pytest.fixture
    def sheared(self, monkeypatch):
        A = self.A

        class Shear:
            def __init__(self, atlas, frm, to):
                pass

            def __call__(self, coords):
                return coords @ A.T

            def jacobian(self, coords):
                return np.broadcast_to(A, (len(coords), 2, 2))

        monkeypatch.setattr(geometry, "TransitionMap", Shear)

    @pytest.mark.parametrize("k_cov, l_con",
                             [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
    def test_components_follow_the_law(self, sheared, t2, k_cov, l_con):
        atlas = t2[0]
        rank = k_cov + l_con
        block = tuple(parse_expr(f"{c + 1}*x1 - x2^{c + 2} + {c}", 2)
                      for c in range(2 ** rank))
        field = TensorField(atlas, k_cov, l_con, [block] * 4)
        coords_b = np.array([[0.3, 0.7], [0.55, 0.2], [0.9, 0.45]])
        m = len(coords_b)
        T_a = eval_many(block, coords_b @ self.A.T).reshape(
            (m,) + (2,) * rank)
        Ainv = np.linalg.inv(self.A)
        con, cov = "cdef"[:l_con], "ghkl"[:k_cov]
        out_con, out_cov = "pqrs"[:l_con], "tuvw"[:k_cov]
        spec = ",".join([f"{i}{c}" for i, c in zip(out_con, con)]
                        + [f"{d}{j}" for d, j in zip(cov, out_cov)]
                        + [f"m{con}{cov}"])
        want = np.einsum(f"{spec}->m{out_con}{out_cov}",
                         *[Ainv] * l_con, *[self.A] * k_cov, T_a)
        got = transform_components(field, 0, 1, coords_b)
        assert got.shape == (m, 2 ** rank)
        assert np.allclose(got, want.reshape(m, -1), rtol=1e-13, atol=0)


class TestFiberNormProgram:
    """The fiber norm evaluates the components of all its fields and the
    metric factors they need in one program; its points run in blocks that
    keep at most 2**18 values live."""

    @staticmethod
    def live_peak(steps):
        """Peak live slots of a program, replayed from its instructions; no
        slot may be freed before its last use, and none may stay live."""
        live, peak = set(), 0
        for i, (_, _, args, dead, _) in enumerate(steps):
            assert live.issuperset(args)
            live.add(i)
            peak = max(peak, len(live))
            live -= set(dead)
        assert not live
        return peak

    @pytest.mark.parametrize("name,text,k,blocks", [
        ("s2-stereo", "x1*x3", 3, 2),
        ("torus2", "sin(2*pi*x1)*cos(2*pi*x2)", 4, 1)])
    def test_live_values_bounded(self, monkeypatch, name, text, k, blocks):
        from sobolev import funcexpr
        atlas, _, g = builtin_manifold(name)
        du = covariant_derivative(TensorField.from_ambient(atlas, text), g, k)
        pts, _, _ = midpoint_grid(atlas.charts[0].truncation, (64, 64))
        runs = []
        run_block = funcexpr._run_block

        def recording(steps, block_pts, out):
            runs.append((steps, block_pts.shape[0]))
            run_block(steps, block_pts, out)

        monkeypatch.setattr(funcexpr, "_run_block", recording)
        fiber_norm_values([du], g, 0, pts)
        steps = runs[0][0]
        assert all(s is steps for s, _ in runs)  # one program per call
        assert len(runs) == blocks
        assert sum(m for _, m in runs) == pts.shape[0]
        plan = next(p for p in du.comps[0][0]._plans.values()
                    if p[0] is steps)
        peak = self.live_peak(steps)
        assert plan[1] == peak
        assert max(m for _, m in runs) * peak <= 2 ** 18

    def test_one_program_per_chart(self, monkeypatch):
        # u, nabla u, nabla^2 u and nabla^3 u share one program per chart,
        # which runs once over both grids' midpoints where psi != 0; on a
        # 16 x 16 grid each run is a single block, and the only programs
        # with more than one root are these
        from sobolev import funcexpr
        from sobolev.manifold_norms import connection_sobolev_norm
        atlas, pou, g = builtin_manifold("s2-stereo")
        u = TensorField.from_ambient(atlas, "x1*x3")
        runs = []
        run_block = funcexpr._run_block

        def recording(steps, block_pts, out):
            runs.append((steps, block_pts.shape[0]))
            run_block(steps, block_pts, out)

        monkeypatch.setattr(funcexpr, "_run_block", recording)
        connection_sobolev_norm(u, g, k=3, N=16, pou=pou)
        shared = [(steps, m) for steps, m in runs
                  if sum(len(step[4]) for step in steps) > 1]
        on = [int(np.count_nonzero(eval_on_points(psi, np.concatenate(
            [midpoint_grid(chart.truncation, (k, k))[0] for k in (16, 8)]))))
            for chart, psi in zip(atlas.charts, pou.fields)]
        assert on == [112 + 32, 4 + 0]
        assert [m for _, m in shared] == on
        assert shared[0][0] is not shared[1][0]
        for steps, _ in shared:
            # 1 + 2 + 4 + 8 components and the two diagonal g^ii
            assert sum(len(step[4]) for step in steps) == 17
