from fractions import Fraction

import numpy as np
import pytest

from sobolev import manifold_norms, operators
from sobolev.atlas import build_partition_of_unity, builtin_manifold
from sobolev.exponents import ExponentError
from sobolev.funcexpr import eval_on_points, parse_expr
from sobolev.geometry import TensorField, scalar_field
from sobolev.operators import (
    ValenceMismatch, apply_operator, describe_components,
    divergence_integral, empirical_bound,
)
from sobolev.manifold_norms import connection_sobolev_norm
from sobolev.quadrature import midpoint_grid


@pytest.fixture(scope="module")
def t1():
    return builtin_manifold("torus1")


@pytest.fixture(scope="module")
def t2():
    return builtin_manifold("torus2")


@pytest.fixture(scope="module")
def s1():
    return builtin_manifold("s1-stereo")


@pytest.fixture(scope="module")
def s2():
    return builtin_manifold("s2-stereo")


def vector_field(atlas, texts):
    reps = [atlas.local_representations(parse_expr(t, atlas.ambient_dim))
            for t in texts]
    return TensorField(atlas, 0, 1, list(zip(*reps)))


class TestLocalRepresentations:
    def test_unknown_operator(self, t1):
        atlas, _, g = t1
        u = TensorField.from_ambient(atlas, "1")
        with pytest.raises(KeyError):
            apply_operator("curl", g, u)

    def test_d_is_component_gradient(self, t1):
        atlas, _, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        df = apply_operator("d", g, u)
        assert df.k_cov == 1 and df.l_con == 0
        pts, _, _ = midpoint_grid(atlas.charts[0].truncation, (64,))
        got = eval_on_points(df.component(0, (), (0,)), pts)
        expected = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0])
        assert np.allclose(got, expected, rtol=1e-12)

    def test_flat_divergence(self, t1):
        atlas, _, g = t1
        X = vector_field(atlas, ["sin(2*pi*x1)"])
        divX = apply_operator("div", g, X)
        pts, _, _ = midpoint_grid(atlas.charts[0].truncation, (64,))
        got = eval_on_points(divX.component(0, (), ()), pts)
        assert np.allclose(got, 2 * np.pi * np.cos(2 * np.pi * pts[:, 0]),
                           rtol=1e-12)

    def test_torus_laplace(self, t1):
        atlas, _, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        lap = apply_operator("laplace", g, u)
        pts, _, _ = midpoint_grid(atlas.charts[0].truncation, (64,))
        got = eval_on_points(lap.component(0, (), ()), pts)
        expected = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * pts[:, 0])
        assert np.allclose(got, expected, rtol=1e-10)

    def test_sphere_divergence_closed_form(self, s2):
        # X = x1 * d_1 on the stereographic chart:
        # div X = 1 - 4 x1^2 / (1 + |x|^2)
        atlas, _, g = s2
        comps = [(parse_expr("x1", 2),
                  parse_expr("0", 2))
                 for _ in range(2)]
        X = TensorField(atlas, 0, 1, comps)
        out = apply_operator("div", g, X).comps[0]
        pts, _, _ = midpoint_grid(atlas.charts[0].truncation, (9, 9))
        pts = pts * 0.4
        got = eval_on_points(out[0], pts)
        r2 = np.sum(pts * pts, axis=1)
        expected = 1.0 - 4.0 * pts[:, 0] ** 2 / (1.0 + r2)
        assert np.allclose(got, expected, rtol=1e-10)

    def test_valence_mismatch(self, t1):
        atlas, _, g = t1
        u = TensorField.from_ambient(atlas, "1")
        with pytest.raises(ValenceMismatch):
            apply_operator("div", g, u)

    def test_grad_matches_sympy(self, s2):
        # grad^i = g^{ij} d_j (u o phi^{-1}), with the local representation
        # and the round metric derived by sympy from the stereographic
        # formulas, not from the library's expressions
        sp = pytest.importorskip("sympy")
        atlas, _, g = s2
        grad = apply_operator("grad", g,
                              TensorField.from_ambient(atlas, "x1*x3"))
        t = sp.symbols("x1:3")
        r2 = t[0] ** 2 + t[1] ** 2
        ginv = (1 + r2) ** 2 / 4         # g = 4/(1+|t|^2)^2 * identity
        # chart 0 projects from the north pole, chart 1 from the south
        for chart, sign in ((0, 1), (1, -1)):
            local = 2 * t[0] / (1 + r2) * sign * (r2 - 1) / (1 + r2)
            pts, _, _ = midpoint_grid(atlas.charts[chart].truncation,
                                      (16, 16))
            for i in range(2):
                want = sp.lambdify(t, ginv * sp.diff(local, t[i]), "numpy")(
                    pts[:, 0], pts[:, 1])
                got = eval_on_points(grad.component(chart, (i,), ()), pts)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_describe_components(self, t1):
        atlas, _, g = t1
        u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
        df = apply_operator("d", g, u)
        desc = describe_components(df, 0)
        assert "^_1" in desc


class TestSupportNonIncrease:
    def test_bump_support_preserved(self, t1):
        from sobolev.fields import box_bump
        atlas, _, g = t1
        # function supported in [0.3, 0.7] of chart 0
        bump = box_bump(1, ("1/2",), "1/10", "1/5")
        zero = parse_expr("0", 1)
        u = scalar_field(atlas, [bump, zero])
        lap = apply_operator("laplace", g, u)
        pts = np.linspace(0.025, 0.975, 400).reshape(-1, 1)
        vals = eval_on_points(lap.component(0, (), ()), pts)
        outside = (pts[:, 0] < 0.3 - 1e-9) | (pts[:, 0] > 0.7 + 1e-9)
        assert np.max(np.abs(vals[outside])) <= 1e-12


class TestDivergenceIdentity:
    @pytest.mark.parametrize("name,texts", [
        ("torus1", ["sin(2*pi*x1)"]),
        ("torus2", ["sin(2*pi*x1)*cos(2*pi*x2)", "cos(2*pi*x2)"]),
    ])
    def test_torus_integral_vanishes(self, name, texts):
        atlas, pou, g = builtin_manifold(name)
        X = vector_field(atlas, texts)
        out = divergence_integral(X, g, pou, N=256 if atlas.dim == 1 else 48)
        assert abs(out["value"]) <= max(out["error_estimate"], 1e-6)

    def test_circle_integral_vanishes(self, s1):
        # the global field cos(theta) d_theta has chart components t, -t
        atlas, pou, g = s1
        comps = [
            (parse_expr("x1", 1),),
            (parse_expr("-x1", 1),),
        ]
        X = TensorField(atlas, 0, 1, comps)
        out = divergence_integral(X, g, pou, N=512)
        assert abs(out["value"]) <= max(out["error_estimate"], 1e-6)


class TestEmpiricalBound:
    def family(self, atlas, ks=(1, 2, 3)):
        return [TensorField.from_ambient(atlas, f"sin(2*pi*{k}*x1)")
                for k in ks]

    def test_d_ratio_at_most_one(self, t1):
        atlas, _, g = t1
        out = empirical_bound("d", g, ("1", "2"), ("0", "2"),
                              self.family(atlas), N=256, route="box")
        assert out["sup"] <= 1.0

    def test_laplace_closed_form_ratios(self, t1):
        atlas, _, g = t1
        fam = self.family(atlas, ks=(1, 2, 3, 4, 5))
        out = empirical_bound("laplace", g, ("2", "2"),
                              ("0", "2"), fam, N=256, route="box")
        for k, ratio in zip((1, 2, 3, 4, 5), out["ratios"]):
            w = 2 * np.pi * k
            expected = w ** 2 / (1 + w + w ** 2)
            assert ratio == pytest.approx(expected, rel=0.01)
            assert ratio < 1.0

    def test_grid_stability(self, t1):
        atlas, _, g = t1
        out = empirical_bound("d", g, ("1", "2"), ("0", "2"),
                              self.family(atlas), N=256, route="box")
        assert out["relative_change"] < 0.10

    def test_valence_mismatch_before_any_norm(self, t1, monkeypatch):
        from sobolev.manifold_norms import NormVariant

        def no_norm(*args):
            raise AssertionError("a norm was computed")
        monkeypatch.setattr(NormVariant, "_ladder", no_norm)
        atlas, _, g = t1
        with pytest.raises(ValenceMismatch):
            empirical_bound("div", g, ("1", "2"), ("0", "2"),
                            self.family(atlas), N=16, route="box")

    def test_zero_norm_on_the_coarse_grid_is_named(self, t1, monkeypatch):
        from sobolev.manifold_norms import NormVariant

        # every norm reads 1 at N and 0 at N // 2
        monkeypatch.setattr(NormVariant, "_ladder", lambda *a: (1.0, 0.0))
        atlas, _, g = t1
        with pytest.raises(ZeroDivisionError, match=r"^family member 0 has "
                           r"box norm 0 on the grid \[8\], so"):
            empirical_bound("d", g, ("1", "2"), ("0", "2"),
                            self.family(atlas), N=16, route="box")

    def test_scale_invariance(self, t1):
        """Both norms are 1-homogeneous, so scaling the family moves no
        ratio beyond roundoff."""
        atlas, _, g = t1

        def bound(family):
            return empirical_bound("d", g, ("1", "2"), ("0", "2"), family,
                                   N=128, route="box")
        out = bound(self.family(atlas))
        scaled = bound([u.scaled(-5.0) for u in self.family(atlas)])
        for key in ("ratios", "sup", "sup_coarse"):
            assert np.allclose(scaled[key], out[key], rtol=1e-12, atol=0)
        assert "scale_invariance_rel_dev" not in out

    def test_chart_route_runs(self, t1):
        atlas, pou, g = t1
        out = empirical_bound("d", g, ("1", "2"), ("0", "2"),
                              self.family(atlas, ks=(1, 2)), N=128,
                              route="chart", pou=pou)
        assert out["sup"] > 0

    def test_connection_route_builds_one_partition(self, t1, monkeypatch):
        # the connection norms take the metric, and one partition of unity
        # serves every norm of the call, with the bits of separate norms
        atlas, _, g = t1
        family = self.family(atlas, ks=(1, 2))
        expected = [connection_sobolev_norm(apply_operator("d", g, u), g, 0,
                                            2, 16).value
                    / connection_sobolev_norm(u, g, 1, 2, 16).value
                    for u in family]
        built = []

        def counting(*args):
            built.append(args)
            return build_partition_of_unity(*args)
        monkeypatch.setattr(operators, "build_partition_of_unity", counting)
        monkeypatch.setattr(manifold_norms, "build_partition_of_unity",
                            counting)
        out = empirical_bound("d", g, (1, 2), (0, 2), family, N=16,
                              route="connection")
        assert len(built) == 1
        assert np.array(out["ratios"]).tobytes() == \
            np.array(expected).tobytes()

    @pytest.mark.parametrize("manifold, text, route", [
        ("t1", "sin(2*pi*x1)", "box"), ("s1", "x1*x2", "chart"),
    ])
    def test_route_follows_the_manifold_family(self, request, manifold,
                                               text, route):
        atlas, pou, g = request.getfixturevalue(manifold)
        family = [TensorField.from_ambient(atlas, text)]
        out = empirical_bound("d", g, ("1", "2"), ("0", "2"), family, N=8)
        assert out["route"] == route
        assert out == empirical_bound("d", g, ("1", "2"), ("0", "2"),
                                      family, N=8, route=route, pou=pou)

    def test_screen_rejects_uncovered_pair(self, t1):
        atlas, _, g = t1
        # s = 1/2 with |alpha| = 1 > s on a Lipschitz box and s - 1/p
        # integral: item 4 is blocked
        with pytest.raises(ExponentError, match="exponent screen failed"):
            empirical_bound("d", g, (Fraction(1, 2), 2), (0, 2),
                            self.family(atlas), N=64, route="box")

    def test_order_spellings_agree(self, t1):
        # each order is read once as a Fraction, so a ratio, a decimal and
        # a Fraction of the same order give one report
        atlas, _, g = t1
        family = self.family(atlas, ks=(1,))
        reports = [empirical_bound("d", g, (e, "2"), ("1/2", 2), family,
                                   N=16, route="box")
                   for e in ("3/2", "1.5", Fraction(3, 2))]
        assert reports[0]["from"] == [1.5, 2.0]
        assert reports[0]["to"] == [0.5, 2.0]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("op, frm, to, N, message", [
        # the grid rule of the norms: the sup is taken on the halved
        # grid, and a fractional order takes its double sum there too
        ("laplace", (Fraction(5, 2), 2), (Fraction(1, 2), 2), 3,
         r"at least 4 per axis, got \[3\]"),
        ("d", (1, 2), (0, 2), 1, r"at least 2 per axis, got \[1\]"),
    ])
    def test_too_small_grid_names_the_callers_grid(self, t1, op, frm, to,
                                                   N, message):
        atlas, _, g = t1
        with pytest.raises(ValueError, match=message):
            empirical_bound(op, g, frm, to, self.family(atlas), N=N)

    def test_empty_family(self, t1):
        atlas, _, g = t1
        with pytest.raises(ValueError):
            empirical_bound("d", g, ("1", "2"), ("0", "2"),
                            [], N=64)
