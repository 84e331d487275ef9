import numpy as np
import pytest

import sobolev.atlas as atlas_module
from sobolev.atlas import (
    MANIFOLD_NAMES, AtlasConfigError, BumpSeed, CoverConditionError,
    PeriodicityError, TransitionMap, UnknownManifold, alternate_seeds,
    atlas_from_config, build_partition_of_unity, builtin_manifold,
    default_seeds, quasirandom_points,
)
from sobolev.funcexpr import eval_on_points, parse_expr
from sobolev.geometry import TensorField
from sobolev.quadrature import midpoint_grid


@pytest.fixture(scope="module")
def s1():
    return builtin_manifold("s1-stereo")


@pytest.fixture(scope="module")
def s2():
    return builtin_manifold("s2-stereo")


@pytest.fixture(scope="module")
def t1():
    return builtin_manifold("torus1")


@pytest.fixture(scope="module")
def t2():
    return builtin_manifold("torus2")


class TestCharts:
    def test_unknown_name(self):
        with pytest.raises(UnknownManifold):
            builtin_manifold("klein-bottle")

    @pytest.mark.parametrize("lookup", [
        builtin_manifold, lambda name: quasirandom_points(name, 8)],
        ids=["builtin_manifold", "quasirandom_points"])
    def test_unknown_name_reads_one_message(self, lookup):
        with pytest.raises(UnknownManifold) as err:
            lookup("s9")
        assert str(err.value) == ("unknown manifold 's9'; known: s1-stereo, "
                                  "s2-stereo, torus1, torus2")

    def test_s1_forward_formula(self, s1):
        atlas, _, _ = s1
        # chart 1 is the projection (x, y) -> x / (1 - y)
        pts = quasirandom_points("s1-stereo", 50)
        t = atlas.charts[0].to_chart(pts)
        expected = pts[:, 0] / (1.0 - pts[:, 1])
        assert np.allclose(t[:, 0], expected, atol=1e-14)

    def test_chart_round_trip(self, s1, s2, t1, t2):
        for atlas, _, _ in (s1, s2, t1, t2):
            for chart in atlas.charts:
                coords, _, _ = midpoint_grid(chart.truncation, (9,) * atlas.dim)
                back = chart.to_chart(chart.to_manifold(coords))
                assert np.max(np.abs(back - coords)) <= 1e-12

    def test_s1_transition_is_reciprocal(self, s1):
        atlas, _, _ = s1
        tm = TransitionMap(atlas, 0, 1)
        t = np.array([[0.5], [-2.0], [3.3], [0.01]])
        assert np.allclose(tm(t), 1.0 / t, rtol=1e-12)

    def test_transition_outside_overlap_is_refused(self, s2):
        # the origin of one chart is the pole the other chart leaves out
        atlas, _, _ = s2
        with pytest.raises(ValueError, match="outside the overlap"):
            TransitionMap(atlas, 0, 1)(np.zeros((1, 2)))

    def test_transition_jacobian_at_origin_is_refused(self, s2):
        atlas, _, _ = s2
        with pytest.raises(ValueError, match="undefined at the origin"):
            TransitionMap(atlas, 0, 1).jacobian(np.zeros((1, 2)))

    def test_s2_transition_is_inversion(self, s2):
        atlas, _, _ = s2
        tm = TransitionMap(atlas, 0, 1)
        t = np.array([[0.5, 0.25], [-1.0, 2.0]])
        r2 = np.sum(t * t, axis=1, keepdims=True)
        assert np.allclose(tm(t), t / r2, rtol=1e-12)

    def test_torus1_transition_is_unit_shift(self, t1):
        atlas, _, _ = t1
        tm = TransitionMap(atlas, 0, 1)
        t = np.array([[0.25], [0.75]])
        out = tm(t)
        # (0,1) -> (1/2,3/2): t<1/2 shifts up by 1, t>1/2 stays
        assert out[0, 0] == pytest.approx(1.25, abs=1e-15)
        assert out[1, 0] == pytest.approx(0.75, abs=1e-15)

    def test_transition_round_trip(self, s1, s2, t1, t2):
        for atlas, _, _ in (s1, s2, t1, t2):
            tm = TransitionMap(atlas, 0, 1)
            back = TransitionMap(atlas, 1, 0)
            coords, _, _ = midpoint_grid(atlas.charts[0].truncation,
                                         (11,) * atlas.dim)
            mask = tm.domain_mask(coords)
            fwd = tm(coords[mask])
            ok = back.domain_mask(fwd)
            assert np.max(np.abs(back(fwd[ok]) - coords[mask][ok])) <= 1e-10

    @pytest.mark.parametrize("name", MANIFOLD_NAMES)
    def test_transition_jacobian_matches_central_differences(self, name):
        # every ordered chart pair, on a 13^n grid of the source chart's
        # truncation box, against central differences with h = 1e-6
        atlas = builtin_manifold(name)[0]
        n, h = atlas.dim, 1e-6
        pairs = [(a, b) for a in range(len(atlas.charts))
                 for b in range(len(atlas.charts))]
        for a, b in pairs:
            tm = TransitionMap(atlas, a, b)
            coords, _, _ = midpoint_grid(atlas.charts[a].truncation,
                                         (13,) * n)
            steps = h * np.eye(n)
            ok = tm.domain_mask(coords)
            for step in steps:
                ok &= tm.domain_mask(coords + step)
                ok &= tm.domain_mask(coords - step)
            x = coords[ok]
            assert len(x) > 0
            fd = np.stack([(tm(x + step) - tm(x - step)) / (2 * h)
                           for step in steps], axis=2)
            J = tm.jacobian(x)
            gap = np.max(np.abs(fd - J), axis=(1, 2)) \
                / np.max(np.abs(J), axis=(1, 2))
            assert np.max(gap) <= 1e-7, (a, b)

    def test_classification_flags(self, s1, s2, t1, t2):
        assert s1[0].classification == "super nice"
        assert all(c.image_kind == "fullspace" for c in s1[0].charts)
        assert s2[0].classification == "super nice"
        assert t1[0].classification == "GL"
        assert t1[0].gl_self_compatible
        assert all(c.image_kind == "box" for c in t2[0].charts)


class TestPartitionOfUnity:
    @pytest.mark.parametrize("name", ["s1-stereo", "s2-stereo", "torus1",
                                      "torus2"])
    def test_sums_to_one(self, name):
        atlas, pou, _ = builtin_manifold(name)
        pts = quasirandom_points(name, 10_000)
        sums = pou.values_at(pts).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_nonnegative(self, s1):
        atlas, pou, _ = s1
        vals = pou.values_at(quasirandom_points("s1-stereo", 2000))
        assert np.min(vals) >= 0.0

    def test_first_bump_plateau_wins(self, t1):
        # where eta_1 = 1: psi_1 = 1 and psi_2 = 0
        atlas, pou, _ = t1
        pts = np.array([[0.5]])  # center of chart 1's plateau
        vals = pou.values_at(pts)
        assert vals[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert vals[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_supports_inside_truncation(self, s1):
        atlas, pou, _ = s1
        for chart, f in zip(atlas.charts, pou.fields):
            edge = np.array([[atlas.params["truncation_radius"]]])
            assert eval_on_points(f, edge)[0] == 0.0

    def test_shrunken_supports_fail_cover(self, s1):
        atlas, _, _ = s1
        bad = [BumpSeed("radial", 0.5, 0.9), BumpSeed("radial", 0.5, 0.9)]
        with pytest.raises(CoverConditionError) as exc:
            build_partition_of_unity(atlas, bad)
        assert exc.value.witness is not None

    def test_inconsistent_bumps_fail_the_two_sided_check(self, s2):
        # box bumps on a sphere chart, pulled as radial ones into the other
        atlas, _, _ = s2
        box = BumpSeed("box", 1.5, 3.0, (0.0, 0.0))
        with pytest.raises(CoverConditionError, match="overlap beyond 1"):
            build_partition_of_unity(atlas, [box, box])

    @pytest.mark.parametrize("manifold, seed", [
        ("s1-stereo", BumpSeed("radial", 1.5, 6.0)),
        ("s2-stereo", BumpSeed("radial", 1.5, 4.5)),
        ("torus1", BumpSeed("box", 0.3, 0.49, (0.5,))),
        ("torus1", BumpSeed("radial", 0.3, 0.45)),
    ])
    def test_supports_outside_truncation_rejected(self, manifold, seed):
        atlas = builtin_manifold(manifold)[0]
        with pytest.raises(CoverConditionError,
                           match="leaves its truncation box") as exc:
            build_partition_of_unity(atlas, [seed] * len(atlas.charts))
        assert exc.value.witness is None

    def test_alternate_pou_also_sums_to_one(self, s1):
        atlas, _, _ = s1
        pou2 = build_partition_of_unity(atlas, alternate_seeds(atlas), "alt")
        pts = quasirandom_points("s1-stereo", 4000)
        sums = pou2.values_at(pts).sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    @pytest.mark.parametrize("seeds", [default_seeds, alternate_seeds],
                             ids=["default", "alt"])
    @pytest.mark.parametrize("name", MANIFOLD_NAMES)
    def test_telescoping_product_identity(self, name, seeds):
        # 1 - sum psi_a equals the product of (1 - eta_a) pointwise, each
        # eta_a evaluated in its own chart
        atlas = builtin_manifold(name)[0]
        seeds = seeds(atlas)
        pou = build_partition_of_unity(atlas, seeds)
        pts = quasirandom_points(name, 500)
        psi_sum = pou.values_at(pts).sum(axis=0)
        prod = np.ones(len(pts))
        for chart, seed in zip(atlas.charts, seeds):
            eta = np.zeros(len(pts))
            mask = chart.contains(pts)
            eta[mask] = eval_on_points(seed.field(atlas.dim),
                                       chart.to_chart(pts[mask]))
            prod *= 1.0 - eta
        assert np.max(np.abs((1.0 - psi_sum) - prod)) <= 1e-12

    @pytest.mark.parametrize("seeds", [default_seeds, alternate_seeds],
                             ids=["default", "alt"])
    @pytest.mark.parametrize("name", MANIFOLD_NAMES)
    def test_pulled_bump_is_the_bump_of_its_own_chart(self, name, seeds):
        # chart a's pulled_bump of chart b's seed, on a's truncation grid,
        # equals b's bump evaluated in b's coordinates (0 off chart b)
        atlas = builtin_manifold(name)[0]
        seeds = seeds(atlas)
        for a, chart in enumerate(atlas.charts):
            coords, _, _ = midpoint_grid(chart.truncation, (40,) * atlas.dim)
            amb = chart.to_manifold(coords)
            for b, other in enumerate(atlas.charts):
                if a == b:
                    continue
                want = np.zeros(len(coords))
                mask = other.contains(amb)
                want[mask] = eval_on_points(seeds[b].field(atlas.dim),
                                            other.to_chart(amb[mask]))
                got = eval_on_points(chart.pulled_bump(seeds[b]), coords)
                assert np.max(np.abs(got - want)) <= 1e-12


class TestLocalRepresentation:
    def test_stereo_substitution(self, s1):
        atlas, _, _ = s1
        # ambient x1 restricted to the circle, in chart-0 coordinates:
        # x = 2t/(1+t^2)
        f = atlas.local_representations(parse_expr("x1", 2))[0]
        t = np.array([[0.3], [2.0]])
        assert np.allclose(eval_on_points(f, t),
                           2 * t[:, 0] / (1 + t[:, 0] ** 2), rtol=1e-14)

    def test_torus_periodic_shift(self, t1):
        atlas, _, _ = t1
        f = atlas.local_representations(parse_expr("sin(2*pi*x1)", 1))[1]
        # chart 1 has image (1/2, 3/2); value at 1.25 equals value at 0.25
        t = np.array([[1.25], [0.75]])
        vals = eval_on_points(f, t)
        assert vals[0] == pytest.approx(np.sin(2 * np.pi * 0.25), rel=1e-12)
        assert vals[1] == pytest.approx(np.sin(2 * np.pi * 0.75), rel=1e-12)

    def test_overlap_agreement_for_periodic_input(self, t1):
        atlas, _, _ = t1
        u = parse_expr("sin(2*pi*x1) + 0.5*cos(2*pi*x1)", 1)
        f0, f1 = atlas.local_representations(u)
        tm = TransitionMap(atlas, 0, 1)
        t = np.linspace(0.06, 0.94, 41).reshape(-1, 1)
        t = t[tm.domain_mask(t)]  # drop the chart-1 seam point
        vals0 = eval_on_points(f0, t)
        vals1 = eval_on_points(f1, tm(t))
        assert np.max(np.abs(vals0 - vals1)) <= 1e-12

    @pytest.mark.parametrize("torus", ["t1", "t2"])
    def test_torus_function_is_its_own_representation(self, request, torus):
        atlas, _, _ = request.getfixturevalue(torus)
        u = parse_expr("sin(2*pi*x1) + cos(2*pi*x1)^2", atlas.ambient_dim)
        reps = atlas.local_representations(u)
        assert len(reps) == len(atlas.charts)
        for f in reps:
            assert f is u

    @pytest.mark.parametrize("torus, text", [
        ("t1", "x1"), ("t1", "exp(x1)"), ("t2", "x1*x2"), ("t2", "x2"),
        ("t2", "sin(2*pi*x1) + x2/1000"),
        # the tolerance scales with max|u|, so a tiny seam jump still counts
        ("t1", "(1/1000000000000)*x1"),
    ])
    def test_non_periodic_input_rejected(self, request, torus, text):
        atlas, _, _ = request.getfixturevalue(torus)
        u = parse_expr(text, atlas.ambient_dim)
        with pytest.raises(PeriodicityError, match="not 1-periodic"):
            atlas.local_representations(u)

    @pytest.mark.parametrize("torus, text", [
        ("t1", "0"), ("t1", "3"), ("t1", "abs(sin(pi*x1))"),
        ("t2", "0"), ("t2", "abs(sin(pi*x1))*cos(2*pi*x2)"),
    ])
    def test_periodic_input_accepted(self, request, torus, text):
        atlas, _, _ = request.getfixturevalue(torus)
        u = parse_expr(text, atlas.ambient_dim)
        assert atlas.local_representations(u)[0] is u

    @pytest.mark.parametrize("torus, text, ok", [
        ("t2", "sin(2*pi*x1)*cos(2*pi*x2)", True), ("t2", "x2", False),
        ("t1", "cos(2*pi*x1)", True), ("t1", "x1", False),
    ])
    def test_field_checks_periodicity_once(self, request, monkeypatch,
                                           torus, text, ok):
        atlas, _, _ = request.getfixturevalue(torus)
        calls = []
        check = atlas_module._check_periodic
        monkeypatch.setattr(atlas_module, "_check_periodic",
                            lambda *args: calls.append(1) or check(*args))
        if ok:
            u = TensorField.from_ambient(atlas, text)
            assert all(block == (parse_expr(text, atlas.ambient_dim),)
                       for block in u.comps)
        else:
            with pytest.raises(PeriodicityError, match="not 1-periodic"):
                TensorField.from_ambient(atlas, text)
        assert len(calls) == 1

    def test_sphere_representations_are_per_chart(self, s2):
        atlas, _, _ = s2
        u = parse_expr("x1*x3 + x2", atlas.ambient_dim)
        reps = atlas.local_representations(u)
        assert len(reps) == len(atlas.charts)
        t = np.array([[0.3, -0.4], [1.5, 2.0], [0.0, 0.0]])
        for chart, f in zip(atlas.charts, reps):
            assert np.allclose(eval_on_points(f, t),
                               eval_on_points(u, chart.to_manifold(t)),
                               rtol=1e-13, atol=1e-15)


class TestConfigRoundTrip:
    def test_config_serialization(self, s1):
        atlas, pou, _ = s1
        cfg = atlas.to_config()
        assert cfg["schema"] == "v1"
        cfg["pou"] = pou.to_json()
        atlas2, pou2 = atlas_from_config(cfg)
        assert atlas2.manifold == atlas.manifold
        assert len(atlas2.charts) == len(atlas.charts)
        pts = quasirandom_points("s1-stereo", 500)
        assert np.allclose(pou2.values_at(pts), pou.values_at(pts), atol=1e-15)

    def test_echoed_numbers_match_by_value_booleans_by_type(self):
        atlas, pou = atlas_from_config({
            "manifold": "s1-stereo", "dim": 1.0, "gl_self_compatible": False,
            "params": {"truncation_radius": 4}})
        assert atlas.dim == 1 and pou is None
        for echoed in ({"dim": True}, {"gl_self_compatible": 0},
                       {"params": {"truncation_radius": True}}):
            with pytest.raises(AtlasConfigError, match="atlas-config key"):
                atlas_from_config({"manifold": "s1-stereo", **echoed})

    def test_unknown_keys_rejected(self, s1):
        atlas, _, _ = s1
        cfg = atlas.to_config()
        cfg["frobnicate"] = True
        with pytest.raises(ValueError):
            atlas_from_config(cfg)
