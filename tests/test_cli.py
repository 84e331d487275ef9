import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sobolev.atlas import MANIFOLD_NAMES
from sobolev.cli import _build_parser, execute


def strict_json(text):
    """Parse as JSON proper: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = execute(list(argv))
    out = capsys.readouterr().out
    return code, strict_json(out)


def report_text(capsys, *argv):
    """A successful run's output up to its config echo."""
    assert execute(list(argv)) == 0
    out = capsys.readouterr().out
    return out[:out.rindex(', "config": ')]


def no_norms(*args, **kwargs):
    """Stands in for a norm route that a usage error must never reach."""
    raise AssertionError("a norm was computed")


@pytest.fixture
def no_grids(monkeypatch):
    """Every quadrature grid fails: a refusal must come before the first."""
    import sobolev.manifold_norms as mn
    import sobolev.quadrature as quad
    for module in (quad, mn):
        monkeypatch.setattr(module, "midpoint_grid", no_norms)


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

    @pytest.mark.parametrize("domain, code", [("open", 1), ("lipschitz", 0)])
    def test_embed_w1_into_fractional_needs_lipschitz(self, capsys, domain,
                                                      code):
        assert run(capsys, "check", "embed", "--n", "2", "--from", "1,2",
                   "--to", "1/2,2", "--domain", domain)[0] == code

    def test_embed_takes_a_rational_too_large_for_a_float(self, capsys):
        # an exact check converts no order to a float
        code, rep = run(capsys, "check", "embed", "--n", "2",
                        "--from", "1e400,2", "--to", "1,2")
        assert code == 0
        assert rep["result"] == "Admissible"

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


class TestModuleEntryPoint:
    """``python3 -m sobolev.cli``, the entry point the README documents."""

    @pytest.mark.parametrize("argv, code", [
        (("check", "embed", "--n", "2", "--from", "2,2", "--to", "1,4"), 0),
        (("check", "embed", "--n", "2", "--from", "1,2", "--to", "1/2,2",
          "--domain", "open"), 1),
        (("check", "embed", "--n", "2", "--from", "2,1", "--to", "1,1"), 2),
    ])
    def test_exit_code_and_strict_json(self, argv, code):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                          else []))
        done = subprocess.run([sys.executable, "-m", "sobolev.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == code, done.stderr
        assert strict_json(done.stdout)["schema"] == "v1"


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

    def test_euclid_zero_exponent_denominator_exit_2(self, capsys):
        # the text alone decides it: a usage error with a position, not a
        # numerical failure
        code, rep = run(capsys, "norm", "euclid", "--expr", "x1^(1/0)",
                        "--box", "0,1", "--s", "1", "--grid", "8")
        assert code == 2
        assert rep["error"] == "zero denominator in exponent (at position 7)"

    def test_euclid_domain_error_exit_3(self, capsys):
        code, rep = run(capsys, "norm", "euclid", "--expr", "log(x1 - 1)",
                        "--box", "0,2", "--s", "0", "--grid", "16")
        assert code == 3

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_euclid_nan_values_exit_3(self, capsys):
        # exp overflows to inf on the grid, and inf - inf is NaN
        code, rep = run(capsys, "norm", "euclid", "--expr",
                        "exp(1000000*x1)-exp(1000000*x1)", "--box", "0,1",
                        "--s", "1/2", "--seminorm", "--grid", "8")
        assert code == 3
        assert rep["error"] == "evaluation produced NaN"

    @pytest.mark.parametrize("grid", ["-4", "0", "1"])
    def test_euclid_grid_below_two_rejected(self, capsys, grid):
        code, rep = run(capsys, "norm", "euclid", "--expr", "x1",
                        "--box", "0,1", "--s", "1", "--grid", grid)
        assert code == 2
        assert "at least 2" in rep["error"]

    @pytest.mark.parametrize("argv", [
        ("norm", "euclid", "--expr", "x1", "--box", "0,a", "--s", "1"),
        ("norm", "euclid", "--expr", "x1", "--box", "1,0", "--s", "1"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1,2", "--s", "1"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--p", "inf"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--grid", "x"),
        ("norm", "connection", "--manifold", "torus1", "--expr",
         "sin(2*pi*x1)", "--k", "-1"),
        ("norm", "manifold", "--manifold", "torus1", "--expr",
         "sin(2*pi*x1)", "--e", "1/0"),
        ("check", "embed", "--n", "2", "--from", "2,a", "--to", "1,4"),
        ("op", "bound", "--manifold", "torus1", "--op", "laplace",
         "--from", "2", "--to", "0,2", "--expr", "sin(2*pi*x1)"),
        # a negative order on a numerical route
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "-1"),
        ("compare", "--manifold", "s1-stereo", "--expr", "x1", "--e", "-1"),
        ("norm", "manifold", "--manifold", "torus1", "--expr",
         "sin(2*pi*x1)", "--e=-1/2"),
        ("op", "bound", "--manifold", "torus1", "--op", "d", "--from=-1,2",
         "--to=-2,2", "--expr", "sin(2*pi*x1)"),
        ("op", "bound", "--manifold", "torus1", "--op", "d", "--from", "1,2",
         "--to=-1,2", "--expr", "sin(2*pi*x1)"),
        # a derivative order below 1
        ("check", "derivative", "--n", "1", "--space", "1,2", "--order", "0"),
        ("check", "derivative", "--n", "1", "--space", "1,2",
         "--order=-2"),
        # flags that apply to one order range only
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "3/2",
         "--seminorm"),
        ("norm", "manifold", "--manifold", "s1-stereo", "--expr", "x1",
         "--e", "1", "--intrinsic"),
        # a number whose float is not finite
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--p", "1e400", "--grid", "8"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1e400",
         "--grid", "8"),
        ("norm", "manifold", "--manifold", "torus1", "--expr",
         "sin(2*pi*x1)", "--q", "1e400", "--grid", "8"),
        ("op", "bound", "--manifold", "torus1", "--op", "d",
         "--from", "1e400,2", "--to", "0,2", "--expr", "sin(2*pi*x1)",
         "--grid", "8"),
    ])
    @pytest.mark.usefixtures("no_grids")
    def test_malformed_arguments_are_usage_errors(self, capsys, argv):
        code, rep = run(capsys, *argv)
        assert code == 2
        assert rep["error"]

    @pytest.mark.parametrize("argv", [
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--p", "1/2"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--p", "1"),
        ("norm", "manifold", "--manifold", "torus1", "--expr",
         "sin(2*pi*x1)", "--q", "1"),
        ("norm", "connection", "--manifold", "torus1", "--expr",
         "sin(2*pi*x1)", "--q", "1/2"),
        ("compare", "--manifold", "torus1", "--expr", "sin(2*pi*x1)",
         "--q", "0.9"),
        ("op", "bound", "--manifold", "torus1", "--op", "laplace",
         "--from", "2,2", "--expr", "sin(2*pi*x1)", "--to", "0,1/2"),
        ("check", "multiply", "--n", "3", "--a", "1,2", "--target", "0,2",
         "--b", "1,1"),
    ])
    @pytest.mark.usefixtures("no_grids")
    def test_integrability_at_or_below_one_is_usage_error(self, capsys,
                                                          argv):
        # each argv ends with the refused p or q (last in its pair), which
        # the library refuses: quadrature on a numerical route (a float),
        # exponents on an exact check (a rational, in an argparse type)
        code, rep = run(capsys, *argv)
        assert code == 2
        q = Fraction(argv[-1].split(",")[-1])
        assert rep["error"] == (
            f"argument --b: integrability p must satisfy p > 1, got {q}"
            if argv[0] == "check" else
            f"integrability p must be finite and > 1, got {float(q)}")

    @pytest.mark.parametrize("argv, need", [
        (("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1/2",
          "--seminorm", "--grid", "3"), 4),
        (("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "3/2",
          "--grid", "2"), 4),
        (("norm", "manifold", "--manifold", "torus1", "--expr",
          "sin(2*pi*x1)", "--e", "1/2", "--grid", "3"), 4),
        (("compare", "--manifold", "torus1", "--expr", "sin(2*pi*x1)",
          "--e", "1/2", "--grid", "2"), 4),
        (("op", "bound", "--manifold", "torus1", "--op", "laplace",
          "--from", "2,2", "--to", "0,2", "--expr", "sin(2*pi*x1)",
          "--grid", "3"), 4),
        (("op", "bound", "--manifold", "torus1", "--op", "laplace",
          "--from", "5/2,2", "--to", "1/2,2", "--expr", "sin(2*pi*x1)",
          "--grid", "7"), 8),
        (("norm", "connection", "--manifold", "torus1", "--expr",
          "sin(2*pi*x1)", "--grid", "1"), 2),
        (("norm", "manifold", "--manifold", "torus1", "--expr",
          "sin(2*pi*x1)", "--grid", "0"), 2),
    ])
    @pytest.mark.usefixtures("no_grids")
    def test_grid_too_small_for_its_halvings_is_usage_error(self, capsys,
                                                            argv, need):
        code, rep = run(capsys, *argv)
        assert code == 2
        assert f"at least {need}" in rep["error"]
        assert rep["config"]["grid"] == int(argv[-1])

    @pytest.mark.parametrize("argv", [
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--grid", "3"),
        ("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1/2",
         "--grid", "4"),
        ("op", "bound", "--manifold", "torus1", "--op", "laplace",
         "--from", "5/2,2", "--to", "1/2,2", "--expr", "sin(2*pi*x1)",
         "--grid", "8"),
    ])
    def test_smallest_grids_still_run(self, capsys, argv):
        code, rep = run(capsys, *argv)
        assert code == 0

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

    def test_manifold_norm_alternate_pou(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "torus1",
                        "--expr", "sin(2*pi*x1)", "--e", "1", "--grid", "128",
                        "--pou", "alt")
        assert code == 0
        assert rep["pou"] == "alt"

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

    @pytest.mark.parametrize("q", ["2", "3"])
    @pytest.mark.parametrize("manifold, expr", [
        ("s1-stereo", "x1*x2"), ("s2-stereo", "x1*x3 + x2"),
        ("torus1", "sin(2*pi*x1)"), ("torus2", "sin(2*pi*x1)*cos(2*pi*x2)"),
    ])
    def test_intrinsic_lq_norm_is_the_order_0_connection_norm(
            self, capsys, manifold, expr, q):
        """Both routes integrate the same |u|^q, so they agree bit for bit."""
        code, lq = run(capsys, "norm", "manifold", "--manifold", manifold,
                       "--expr", expr, "--e", "0", "--q", q, "--intrinsic",
                       "--grid", "32")
        assert code == 0
        code, conn = run(capsys, "norm", "connection", "--manifold",
                         manifold, "--expr", expr, "--k", "0", "--q", q,
                         "--grid", "32")
        assert code == 0
        for key in ("value", "error_estimate"):
            assert lq[key].hex() == conn[key].hex()

    def test_unknown_manifold_exit_2(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "moebius",
                        "--expr", "1")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("norm", "manifold", "--manifold", "torus1", "--expr", "x1", "--e", "1"),
    ("norm", "manifold", "--manifold", "torus2", "--expr", "x1*x2",
     "--e", "0", "--intrinsic"),
    ("norm", "connection", "--manifold", "torus2", "--expr", "exp(x1)"),
    ("compare", "--manifold", "torus1", "--expr", "sin(2*pi*x1)",
     "--expr", "x1"),
    ("op", "apply", "--manifold", "torus2", "--op", "laplace",
     "--expr", "x1*x2"),
    ("op", "bound", "--manifold", "torus1", "--op", "d", "--from", "1,2",
     "--to", "0,2", "--expr", "exp(x1)"),
    # an argument fault as well: the function is read first, so the
    # periodicity fault wins
    ("norm", "manifold", "--manifold", "torus1", "--expr", "x1",
     "--q", "1"),
    ("op", "bound", "--manifold", "torus1", "--op", "d", "--from", "1/2,2",
     "--to", "0,2", "--expr", "x1"),
])
def test_non_periodic_torus_input_exit_3(capsys, argv):
    code, rep = run(capsys, *argv)
    assert code == 3
    assert "not 1-periodic" in rep["error"]
    assert "value" not in rep


class TestCompareAndOps:
    def test_compare_two_pous(self, capsys):
        code, rep = run(capsys, "compare", "--manifold", "torus1",
                        "--expr", "sin(2*pi*x1)", "--expr", "cos(2*pi*x1)",
                        "--e", "1", "--grid", "96")
        assert code == 0
        lo, hi = rep["bracket"]
        assert 0 < lo <= hi

    def test_compare_against_connection(self, capsys):
        code, rep = run(capsys, "compare", "--manifold", "torus1",
                        "--expr", "sin(2*pi*x1)", "--expr", "cos(2*pi*x1)",
                        "--e", "1", "--grid", "96", "--against", "connection")
        assert code == 0
        assert rep["variant_b"] == "connection"
        assert len(rep["ratios"]) == 2

    def test_op_apply(self, capsys):
        code, rep = run(capsys, "op", "apply", "--manifold", "torus1",
                        "--op", "laplace", "--expr", "sin(2*pi*x1)")
        assert code == 0
        assert rep["kind"] == "operator_apply"
        assert rep["target_valence"] == [0, 0]
        # a torus function is its own local representation, so every
        # chart prints a formula
        from sobolev.atlas import builtin_manifold
        from sobolev.funcexpr import parse_expr
        from sobolev.geometry import TensorField
        from sobolev.operators import apply_operator
        atlas, _, g = builtin_manifold("torus1")
        lap = apply_operator("laplace", g,
                             TensorField.from_ambient(atlas, "sin(2*pi*x1)"))
        for ci, chart in enumerate(atlas.charts):
            text = rep["charts"][chart.name]["^_"]
            assert parse_expr(text, 1) is lap.comps[ci][0]

    def test_op_apply_components_parse_back(self, capsys):
        from sobolev.atlas import builtin_manifold
        from sobolev.funcexpr import parse_expr
        from sobolev.geometry import TensorField
        from sobolev.operators import apply_operator
        code, rep = run(capsys, "op", "apply", "--manifold", "s2-stereo",
                        "--op", "grad", "--expr", "x1*x3")
        assert code == 0
        atlas, _, g = builtin_manifold("s2-stereo")
        grad = apply_operator("grad", g,
                              TensorField.from_ambient(atlas, "x1*x3"))
        for ci, chart in enumerate(atlas.charts):
            comps = rep["charts"][chart.name]
            assert set(comps) == {"^1_", "^2_"}
            for a in range(2):
                text = comps[f"^{a + 1}_"]
                assert parse_expr(text, 2) == grad.component(ci, (a,), ())

    def test_op_bound(self, capsys):
        code, rep = run(capsys, "op", "bound", "--manifold", "torus1",
                        "--op", "d", "--from", "1,2", "--to", "0,2",
                        "--expr", "sin(2*pi*x1)", "--grid", "128")
        assert code == 0
        assert rep["sup"] <= 1.0

    def test_op_bound_default_grid_is_64_in_2d(self, capsys):
        argv = ("op", "bound", "--manifold", "s2-stereo", "--op", "laplace",
                "--from", "2,2", "--to", "0,2", "--expr", "x1*x3")
        code, default = run(capsys, *argv)
        assert code == 0
        code, explicit = run(capsys, *argv, "--grid", "64")
        assert code == 0
        assert default["ratios"] == explicit["ratios"]

    @staticmethod
    def refuse_norms(monkeypatch):
        import sobolev.manifold_norms as mn
        for name in ("chart_sobolev_norm", "connection_sobolev_norm",
                     "sobolev_norm"):
            monkeypatch.setattr(mn, name, no_norms)

    def test_compare_connection_fractional_order_is_usage_error(
            self, capsys, monkeypatch):
        self.refuse_norms(monkeypatch)
        code, rep = run(capsys, "compare", "--manifold", "s1-stereo",
                        "--expr", "x1", "--e", "1/2", "--grid", "16",
                        "--against", "connection")
        assert code == 2
        assert rep["error"] == "the connection route needs integer order"

    @pytest.mark.parametrize("manifold", ["s1-stereo", "s2-stereo"])
    def test_op_bound_box_route_off_torus_is_usage_error(
            self, capsys, monkeypatch, manifold):
        self.refuse_norms(monkeypatch)
        code, rep = run(capsys, "op", "bound", "--manifold", manifold,
                        "--op", "d", "--from", "1,2", "--to", "0,2",
                        "--expr", "x1", "--grid", "16", "--route", "box")
        assert code == 2
        assert rep["error"] == ("the box route integrates one exact period; "
                                "it applies to the torus manifolds")

    @pytest.mark.parametrize("frm, to, message", [
        ("1,2", "1,2", "target order 1.0 exceeds the declared map (e - 1)"),
        ("1/2,2", "0,2", "exponent screen failed for d: the chartwise "
                         "differentiation theorem does not cover order 1 "
                         "from W^(0.5,2.0)"),
    ])
    def test_op_bound_screen_failure_is_usage_error(self, capsys, frm, to,
                                                    message):
        code, rep = run(capsys, "op", "bound", "--manifold", "torus1",
                        "--op", "d", "--from", frm, "--to", to,
                        "--expr", "sin(2*pi*x1)", "--grid", "16")
        assert code == 2
        assert rep["error"] == message

    @pytest.mark.parametrize("argv", [
        ("op", "apply", "--manifold", "s2-stereo", "--op", "div",
         "--expr", "x1*x3"),
        ("op", "bound", "--manifold", "s2-stereo", "--op", "div",
         "--from", "1,2", "--to", "0,2", "--expr", "x1*x3", "--grid", "8"),
    ])
    def test_op_that_takes_no_function_is_usage_error(self, capsys, argv):
        # the CLI builds functions only; div takes a vector field
        code, rep = run(capsys, *argv)
        assert code == 2
        assert list(rep) == ["schema", "error"]
        assert "invalid choice: 'div'" in rep["error"]

    def test_unknown_manifold_message_is_plain(self, capsys):
        code, rep = run(capsys, "norm", "manifold", "--manifold", "s9",
                        "--expr", "x1")
        assert code == 2
        assert rep["error"].startswith("unknown manifold 's9'")
        assert rep["config"]["manifold"] == "s9"

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
        code = execute(["--pretty", "check", "pointwise", "--n", "2",
                     "--space", "2,2", "--mode", "linfty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "\n  " in out  # indented
        json.loads(out)

    def test_config_roundtrip_atlas(self, tmp_path, capsys):
        # the descriptor `atlas show` prints rebuilds the same atlas: fed
        # back through --atlas-config it gives the same output, up to the
        # config echo, byte for byte
        for manifold in MANIFOLD_NAMES:
            show = report_text(capsys, "atlas", "show", "--manifold",
                               manifold)
            path = tmp_path / f"{manifold}.json"
            path.write_text(show + "}")
            given = ("--manifold", manifold, "--atlas-config", str(path))
            assert report_text(capsys, "atlas", "show", *given) == show
            norm = ("norm", "manifold", "--e", "1/2", "--grid", "16",
                    "--expr", "x1*x2" if "stereo" in manifold
                    else "sin(2*pi*x1)")
            assert report_text(capsys, *norm, *given) == \
                report_text(capsys, *norm, "--manifold", manifold)
        code, rep = run(capsys, "norm", "manifold", "--manifold", "torus1",
                        "--atlas-config", str(tmp_path / "torus1.json"),
                        "--expr", "1", "--e", "0", "--grid", "64",
                        "--intrinsic")
        assert code == 0
        assert rep["value"] == pytest.approx(1.0, rel=1e-4)

    def test_config_without_pou_takes_the_default_partition(self, tmp_path,
                                                            capsys):
        # a config with no "pou" key gives the same bytes as no config,
        # up to the config echo
        path = tmp_path / "atlas.json"
        path.write_text('{"manifold": "s2-stereo"}')
        given = ("--manifold", "s2-stereo", "--atlas-config", str(path))
        for cmd in (("atlas", "show"),
                    ("norm", "manifold", "--expr", "x1*x2", "--e", "1/2",
                     "--grid", "16")):
            assert report_text(capsys, *cmd, *given) == \
                report_text(capsys, *cmd, "--manifold", "s2-stereo")

    @pytest.mark.parametrize("content, manifold, message", [
        (None, "torus1", "No such file"),
        ("{not json", "torus1", "Expecting property name"),
        ('["torus1"]', "torus1", "'manifold' key"),
        ('{"family": "torus"}', "torus1", "'manifold' key"),
        ('{"manifold": "torus1", "frobnicate": 1}', "torus1",
         "unknown atlas-config keys"),
        ('{"manifold": "torus1"}', "s2-stereo", "describes 'torus1'"),
        (json.dumps({"manifold": "s1-stereo", "pou": {"seeds": [
            {"kind": "radial", "support": 3.0}] * 2}}),
         "s1-stereo", "bump seed without ['plateau']"),
        (json.dumps({"manifold": "s1-stereo", "pou": {"seeds": [
            {"kind": "blob", "plateau": 1.5, "support": 3.0}] * 2}}),
         "s1-stereo", "unknown bump-seed kind 'blob'"),
        (json.dumps({"manifold": "s1-stereo", "pou": {"seeds": [
            {"kind": "radial", "plateau": 1.5, "support": 3.0}]}}),
         "s1-stereo", "needs as many bump seeds, got 1"),
        ('{"manifold": "s1-stereo", "params": {"truncation_radius": "4"}}',
         "s1-stereo", "atlas-config key 'params' is {'truncation_radius': '4'}"),
        (json.dumps({"manifold": "s1-stereo", "pou": {"seeds": [
            {"kind": "radial", "plateau": 3.0, "support": 1.5}] * 2}}),
         "s1-stereo", "0 < plateau < support"),
        (json.dumps({"manifold": "torus1", "pou": {"seeds": [
            {"kind": "box", "plateau": 0.3, "support": 0.45}] * 2}}),
         "torus1", "a box seed needs a center of 1 numbers"),
        # a seed's kind is the family's: radial on a sphere, box on a torus
        (json.dumps({"manifold": "torus1", "pou": {"seeds": [
            {"kind": "radial", "plateau": 0.3, "support": 0.45}] * 2}}),
         "torus1", "torus1 takes box bump seeds, got a radial seed"),
        (json.dumps({"manifold": "s2-stereo", "pou": {"seeds": [
            {"kind": "box", "plateau": 1.5, "support": 3.0,
             "center": [0, 0]}] * 2}}),
         "s2-stereo", "s2-stereo takes radial bump seeds, got a box seed"),
        (json.dumps({"manifold": "s1-stereo", "pou": {"seeds": [
            {"kind": "radial", "plateau": 1.5, "support": 3.0,
             "center": [1.0]}] * 2}}),
         "s1-stereo", "a radial seed needs a center of 0 numbers"),
        # echoed keys must agree with the rebuilt atlas
        ('{"manifold": "s1-stereo", "dim": 7}', "s1-stereo",
         "atlas-config key 'dim' is 7, but the rebuilt s1-stereo atlas has 1"),
        ('{"manifold": "s1-stereo", "family": "torus"}', "s1-stereo",
         "atlas-config key 'family' is 'torus'"),
        ('{"manifold": "s1-stereo", "classification": "GGL"}', "s1-stereo",
         "atlas-config key 'classification' is 'GGL'"),
        (json.dumps({"manifold": "s1-stereo", "charts": [
            {"name": "minus-north-pole", "image": "fullspace",
             "truncation": [[-1, 1]]},
            {"name": "minus-south-pole", "image": "fullspace",
             "truncation": [[-4.0, 4.0]]}]}), "s1-stereo",
         "atlas-config key 'charts'"),
        ('{"manifold": "torus1", "gl_self_compatible": false}', "torus1",
         "atlas-config key 'gl_self_compatible' is False"),
        ('{"manifold": "torus2", "schema": "v2"}', "torus2",
         "atlas-config key 'schema' is 'v2'"),
        ('{"manifold": "torus2", "kind": "atlas"}', "torus2",
         "atlas-config key 'kind' is 'atlas'"),
    ])
    def test_atlas_config_faults_are_usage_errors(self, tmp_path, capsys,
                                                  content, manifold,
                                                  message):
        path = tmp_path / "atlas.json"
        if content is not None:
            path.write_text(content)
        code, rep = run(capsys, "atlas", "show", "--manifold", manifold,
                        "--atlas-config", str(path))
        assert code == 2
        assert list(rep) == ["schema", "error", "config"]
        assert message in rep["error"]
        assert rep["config"]["atlas_config"] == str(path)

    _SEED = {"kind": "radial", "plateau": 1.5, "support": 3.0}

    @pytest.mark.parametrize("config, message", [
        # a value of the wrong JSON type
        ({"manifold": "s1-stereo", "pou": []}, "pou must be a JSON object"),
        ({"manifold": "s1-stereo", "params": 5},
         "atlas-config key 'params' is 5, but the rebuilt s1-stereo atlas "
         "has {'truncation_radius': 4.0}"),
        ({"manifold": "s1-stereo", "pou": {"seeds": 5}},
         "pou.seeds must be a list"),
        ({"manifold": "s1-stereo", "pou": {"seeds": [5, 5]}},
         "a bump seed is a JSON object"),
        ({"manifold": ["a"]}, "a string 'manifold' key"),
        ({"manifold": "s1-stereo", "pou": {"seeds": [_SEED] * 2,
                                            "name": 7}},
         "pou.name must be a string"),
        # params are echoed, so a truncation radius other than the
        # built-in 4 is refused, whatever it is
        ({"manifold": "s1-stereo", "params": {"truncation_radius": -1}},
         "atlas-config key 'params' is {'truncation_radius': -1}"),
        ({"manifold": "s1-stereo", "params": {"truncation_radius": 0}},
         "atlas-config key 'params' is {'truncation_radius': 0}"),
        ('{"manifold": "s1-stereo", "params": {"truncation_radius": 1e400}}',
         "atlas-config key 'params' is {'truncation_radius': inf}"),
        ({"manifold": "s1-stereo", "params": {"truncation_radius": math.nan}},
         "atlas-config key 'params' is {'truncation_radius': nan}"),
        ({"manifold": "s1-stereo", "params": {"truncation_radius": 10**400}},
         "atlas-config key 'params' is {'truncation_radius': 1000"),
        ({"manifold": "s1-stereo", "params": {"truncation_radius": True}},
         "atlas-config key 'params' is {'truncation_radius': True}"),
        ({"manifold": "s1-stereo", "pou": {"seeds": [
            dict(_SEED, plateau=True)] * 2}},
         "plateau must be a number, got True"),
        # unknown keys inside pou and params
        ({"manifold": "s1-stereo", "pou": {"seeds": [_SEED] * 2,
                                            "frobnicate": 1}},
         "unknown pou keys: ['frobnicate']"),
        ({"manifold": "torus1", "params": {"truncation_radius": 2}},
         "atlas-config key 'params' is {'truncation_radius': 2}, but the "
         "rebuilt torus1 atlas has {}"),
        # radii that once changed the value with exit 0
        ({"manifold": "s1-stereo", "params": {"truncation_radius": 30}},
         "atlas-config key 'params' is {'truncation_radius': 30}"),
        ({"manifold": "s1-stereo", "params": {"truncation_radius": 1000}},
         "atlas-config key 'params' is {'truncation_radius': 1000}"),
        # an echoed true/false equals no number, and a number no true/false
        ({"manifold": "s1-stereo", "dim": True, "gl_self_compatible": 0},
         "atlas-config key 'dim' is True, but the rebuilt s1-stereo atlas "
         "has 1"),
        ({"manifold": "s1-stereo", "gl_self_compatible": 0},
         "atlas-config key 'gl_self_compatible' is 0, but the rebuilt "
         "s1-stereo atlas has False"),
        ({"manifold": "torus1", "gl_self_compatible": 1},
         "atlas-config key 'gl_self_compatible' is 1, but the rebuilt "
         "torus1 atlas has True"),
    ])
    def test_malformed_atlas_config_values_are_usage_errors(
            self, tmp_path, capsys, config, message):
        # a config given as text is written as it stands (1e400 is a JSON
        # number that overflows to inf)
        text = config if isinstance(config, str) else json.dumps(config)
        manifold = json.loads(text)["manifold"]
        path = tmp_path / "atlas.json"
        path.write_text(text)
        code, rep = run(capsys, "atlas", "show", "--manifold",
                        manifold if isinstance(manifold, str) else "torus1",
                        "--atlas-config", str(path))
        assert code == 2
        assert list(rep) == ["schema", "error", "config"]
        assert message in rep["error"]

    def test_atlas_config_seeds_that_fail_to_cover_exit_3(self, tmp_path,
                                                          capsys):
        seed = {"kind": "radial", "plateau": 0.2, "support": 0.3}
        path = tmp_path / "atlas.json"
        path.write_text(json.dumps({"manifold": "s1-stereo",
                                    "pou": {"seeds": [seed, seed]}}))
        code, rep = run(capsys, "norm", "manifold", "--manifold",
                        "s1-stereo", "--atlas-config", str(path),
                        "--expr", "1", "--e", "0", "--grid", "16")
        assert code == 3
        assert "do not cover" in rep["error"]

    def test_atlas_config_supports_outside_truncation_exit_3(
            self, tmp_path, capsys):
        path = tmp_path / "atlas.json"
        path.write_text(json.dumps({"manifold": "s1-stereo", "pou": {
            "seeds": [{"kind": "radial", "plateau": 1.5,
                       "support": 6.0}] * 2}}))
        code, rep = run(capsys, "norm", "manifold", "--manifold",
                        "s1-stereo", "--atlas-config", str(path),
                        "--expr", "x1*x2", "--e", "0", "--intrinsic",
                        "--grid", "256")
        assert code == 3
        assert "leaves its truncation box" in rep["error"]


def test_reused_parser_matches_fresh_parser(capsys):
    """The parser is built once per process; parsing must not change it."""
    def compare(*exprs):
        argv = ["compare", "--manifold", "torus1", "--e", "1", "--grid",
                "16"]
        for e in exprs:
            argv += ["--expr", e]
        return argv

    calls = [
        compare("sin(2*pi*x1)", "cos(2*pi*x1)", "sin(4*pi*x1)"),
        ["norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
         "--p", "1/2"],
        compare("cos(2*pi*x1)"),
        ["check", "embed", "--n", "2", "--from", "2,2", "--to", "1,4"],
        compare("sin(2*pi*x1)", "cos(4*pi*x1)"),
    ]
    reused = []
    for argv in calls:
        reused.append((execute(argv), capsys.readouterr().out))
    for argv, got in zip(calls, reused):
        _build_parser.cache_clear()
        assert (execute(argv), capsys.readouterr().out) == got
    assert [code for code, _ in reused] == [0, 2, 0, 0, 0]
    assert [len(strict_json(out)["ratios"]) for code, out in reused
            if '"norm_comparison"' in out] == [3, 1, 2]
