import json
import math

import pytest

from sobolev.cli import main


def strict_json(text):
    """Parse as JSON proper: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, strict_json(out)


class TestCheckCommands:
    def test_multiply_admissible(self, capsys):
        code, rep = run(capsys, "check", "multiply", "--n", "3",
                        "--a", "1,2", "--b", "1,2", "--target", "0,2")
        assert code == 0
        assert rep["schema"] == "v1"
        assert rep["result"] == "Admissible"
        assert rep["config"]["a"] == "1,2"

    def test_multiply_not_guaranteed_exit_1(self, capsys):
        code, rep = run(capsys, "check", "multiply", "--n", "3",
                        "--a", "1/2,2", "--b", "1/2,2", "--target", "1/2,2")
        assert code == 1
        assert rep["result"] == "NotGuaranteed"

    def test_embed(self, capsys):
        code, rep = run(capsys, "check", "embed", "--n", "2",
                        "--from", "2,2", "--to", "1,4")
        assert code == 0
        assert rep["theorem"] == "embedding I"

    def test_pointwise(self, capsys):
        code, rep = run(capsys, "check", "pointwise", "--n", "3",
                        "--space", "2,2", "--mode", "algebra")
        assert code == 0

    def test_derivative_reports_target(self, capsys):
        code, rep = run(capsys, "check", "derivative", "--n", "1",
                        "--space", "1/2,2", "--order", "1")
        assert code == 0
        assert rep["target"] == {"s": "-1/2", "p": "2"}

    def test_extend(self, capsys):
        # '=' form: argparse would read a bare "-1/2,2" as an option
        code, rep = run(capsys, "check", "extend", "--n", "1",
                        "--space=-1/2,2")
        assert code == 0

    def test_p_out_of_range_exit_2(self, capsys):
        code, rep = run(capsys, "check", "embed", "--n", "2",
                        "--from", "2,1", "--to", "1,1")
        assert code == 2
        assert "error" in rep


class TestNormCommands:
    def test_euclid_seminorm_closed_form(self, capsys):
        code, rep = run(capsys, "norm", "euclid", "--expr", "x1",
                        "--box", "0,1", "--s", "1/2", "--p", "2",
                        "--grid", "512", "--seminorm")
        assert code == 0
        assert rep["value"] == pytest.approx(1.0, rel=0.02)

    def test_euclid_norm_contains_gagliardo_term(self, capsys):
        code, rep = run(capsys, "norm", "euclid", "--expr", "x1",
                        "--box", "0,1", "--s", "1/2", "--p", "2",
                        "--grid", "256")
        assert code == 0
        gag = [t for t in rep["terms"] if t["kind"] == "gagliardo"]
        assert gag[0]["value"] == pytest.approx(1.0, rel=0.02)

    def test_euclid_parse_error_exit_2(self, capsys):
        code, rep = run(capsys, "norm", "euclid", "--expr", "sin((x1",
                        "--box", "0,1", "--s", "1/2")
        assert code == 2
        assert "position" in rep["error"]

    def test_euclid_domain_error_exit_3(self, capsys):
        code, rep = run(capsys, "norm", "euclid", "--expr", "log(x1 - 1)",
                        "--box", "0,2", "--s", "0", "--grid", "16")
        assert code == 3

    @pytest.mark.parametrize("grid", ["-4", "0", "1"])
    def test_euclid_grid_below_two_rejected(self, capsys, grid):
        code, rep = run(capsys, "norm", "euclid", "--expr", "x1",
                        "--box", "0,1", "--s", "1", "--grid", grid)
        assert code == 2
        assert "at least 2" in rep["error"]

    @pytest.mark.parametrize("argv", [
        ("norm", "euclid", "--expr", "x1", "--box", "0,a", "--s", "1"),
        ("norm", "euclid", "--expr", "x1", "--box", "1,0", "--s", "1"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--p", "inf"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--grid", "x"),
        ("norm", "connection", "--manifold", "torus1", "--expr", "x1",
         "--k", "-1"),
        ("norm", "manifold", "--manifold", "torus1", "--expr", "x1",
         "--e", "1/0"),
        ("check", "embed", "--n", "2", "--from", "2,a", "--to", "1,4"),
        ("op", "bound", "--manifold", "torus1", "--op", "laplace",
         "--from", "2", "--to", "0,2", "--expr", "x1"),
    ])
    def test_malformed_arguments_are_usage_errors(self, capsys, argv):
        code, rep = run(capsys, *argv)
        assert code == 2
        assert rep["error"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_result_is_numerical_error(self, capsys):
        code, rep = run(capsys, "norm", "euclid", "--expr", "exp(1000*x1)",
                        "--box", "0,1", "--s", "1/2", "--grid", "8")
        assert code == 3
        assert "not finite" in rep["error"]
        assert rep["config"]["expr"] == "exp(1000*x1)"

    def test_intrinsic_zero_function_is_strict_json(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "s1-stereo",
                        "--expr", "0", "--e", "0", "--grid", "16",
                        "--intrinsic")
        assert code == 0
        assert rep["value"] == 0.0
        assert "variant_ratio" not in rep["extras"]

    def test_manifold_norm(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "torus1",
                        "--expr", "sin(2*pi*x1)", "--e", "1", "--grid", "128")
        assert code == 0
        assert rep["kind"] == "manifold_norm_report"
        assert rep["value"] > 0

    def test_manifold_intrinsic(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "s1-stereo",
                        "--expr", "1", "--e", "0", "--grid", "256",
                        "--intrinsic")
        assert code == 0
        assert rep["value"] == pytest.approx(math.sqrt(2 * math.pi), rel=0.01)

    def test_connection_norm(self, capsys):
        code, rep = run(capsys, "norm", "connection", "--manifold", "torus1",
                        "--expr", "sin(2*pi*x1)", "--k", "1", "--grid", "256")
        assert code == 0
        expected = math.sqrt(0.5 + (2 * math.pi) ** 2 / 2)
        assert rep["value"] == pytest.approx(expected, rel=0.01)

    def test_unknown_manifold_exit_2(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "moebius",
                        "--expr", "1")
        assert code == 2


class TestCompareAndOps:
    def test_compare_two_pous(self, capsys):
        code, rep = run(capsys, "compare", "--manifold", "torus1",
                        "--expr", "sin(2*pi*x1)", "--expr", "cos(2*pi*x1)",
                        "--e", "1", "--grid", "96")
        assert code == 0
        lo, hi = rep["bracket"]
        assert 0 < lo <= hi

    def test_op_apply(self, capsys):
        code, rep = run(capsys, "op", "apply", "--manifold", "torus1",
                        "--op", "laplace", "--expr", "sin(2*pi*x1)")
        assert code == 0
        assert rep["kind"] == "operator_apply"
        assert rep["target_valence"] == [0, 0]
        # torus local representations are glued from shifted pieces
        assert rep["charts"]["cell-a"]["^_"] == "<piecewise>"

    def test_op_apply_components_parse_back(self, capsys):
        from sobolev.atlas import builtin_manifold
        from sobolev.funcexpr import parse_expr
        from sobolev.manifold_norms import ManifoldFunction
        from sobolev.operators import apply_operator, build_operator
        code, rep = run(capsys, "op", "apply", "--manifold", "s2-stereo",
                        "--op", "grad", "--expr", "x1*x3")
        assert code == 0
        atlas, _, g = builtin_manifold("s2-stereo")
        grad = apply_operator(build_operator("grad", g),
                              ManifoldFunction.from_ambient(atlas, "x1*x3"))
        for ci, chart in enumerate(atlas.charts):
            comps = rep["charts"][chart.name]
            assert set(comps) == {"^1_", "^2_"}
            for a in range(2):
                text = comps[f"^{a + 1}_"]
                assert parse_expr(text, 2) == grad.component(ci, (a,), ()).expr

    def test_op_bound(self, capsys):
        code, rep = run(capsys, "op", "bound", "--manifold", "torus1",
                        "--op", "d", "--from", "1,2", "--to", "0,2",
                        "--expr", "sin(2*pi*x1)", "--grid", "128")
        assert code == 0
        assert rep["sup"] <= 1.0

    def test_atlas_show(self, capsys):
        code, rep = run(capsys, "atlas", "show", "--manifold", "s2-stereo")
        assert code == 0
        assert rep["kind"] == "atlas-config"
        assert len(rep["charts"]) == 2
        assert rep["classification"] == "super nice"


class TestPlumbing:
    def test_usage_error_is_json_exit_2(self, capsys):
        code, rep = run(capsys, "check", "embed", "--n", "2",
                        "--from", "2,2")  # missing --to
        assert code == 2
        assert "error" in rep

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, rep = run(capsys, "--output", str(path), "check", "pointwise",
                        "--n", "2", "--space", "2,2", "--mode", "algebra")
        assert code == 0
        on_disk = json.loads(path.read_text())
        assert on_disk == rep

    def test_pretty_flag(self, capsys):
        code = main(["--pretty", "check", "pointwise", "--n", "2",
                     "--space", "2,2", "--mode", "linfty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "\n  " in out  # indented
        json.loads(out)

    def test_config_roundtrip_atlas(self, tmp_path, capsys):
        code, cfg = run(capsys, "atlas", "show", "--manifold", "torus1")
        cfg.pop("config")
        path = tmp_path / "atlas.json"
        path.write_text(json.dumps(cfg))
        code, rep = run(capsys, "norm", "manifold", "--manifold", "torus1",
                        "--atlas-config", str(path), "--expr", "1",
                        "--e", "0", "--grid", "64", "--intrinsic")
        assert code == 0
        assert rep["value"] == pytest.approx(1.0, rel=1e-4)
