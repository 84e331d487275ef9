"""The JSON layout of every report kind: its keys, in output order.

The CLI appends "config" to every report it prints; reports taken from
the library have no "config".  The test holds for a library report that
is its JSON dict and for one that renders it through ``to_json``.
"""

import pytest

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import parse_expr
from sobolev.geometry import TensorField
from sobolev.operators import divergence_integral
from sobolev.quadrature import BoxDomain, lp_norm

from test_cli import run

NORM = ["schema", "kind", "value", "terms", "grid", "error_estimate"]
MANIFOLD = ["schema", "kind", "value", "manifold", "atlas", "pou", "terms",
            "grid", "error_estimate"]


@pytest.mark.parametrize("argv,keys,extras", [
    (("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1",
      "--grid", "16"),
     NORM + ["extras"], ["variant", "seminorm_variant_value",
                         "full_variant_value", "variant_ratio"]),
    (("norm", "euclid", "--expr", "x1", "--box", "0,1", "--s", "1/2",
      "--grid", "16", "--seminorm"),
     NORM + ["extras"], ["diagonal_model", "two_grid_difference"]),
    (("norm", "manifold", "--manifold", "torus1", "--expr", "sin(2*pi*x1)",
      "--e", "1", "--grid", "32"),
     MANIFOLD, None),
    (("norm", "manifold", "--manifold", "s1-stereo", "--expr", "1",
      "--e", "0", "--grid", "32", "--intrinsic"),
     MANIFOLD + ["extras"],
     ["intrinsic_value", "chart_sum_value", "variant_ratio"]),
    (("norm", "manifold", "--manifold", "s1-stereo", "--expr", "0",
      "--e", "0", "--grid", "16", "--intrinsic"),
     MANIFOLD + ["extras"], ["intrinsic_value", "chart_sum_value"]),
    (("norm", "connection", "--manifold", "torus1", "--expr",
      "sin(2*pi*x1)", "--k", "1", "--grid", "32"),
     MANIFOLD, None),
    (("compare", "--manifold", "s1-stereo", "--expr", "x1", "--e", "1",
      "--grid", "32"),
     ["schema", "kind", "variant_a", "variant_b", "e", "q", "ratios",
      "bracket"], None),
    (("op", "bound", "--manifold", "torus1", "--op", "d", "--from", "1,2",
      "--to", "0,2", "--expr", "sin(2*pi*x1)", "--grid", "32"),
     ["schema", "kind", "operator", "from", "to", "route", "ratios", "sup",
      "sup_coarse", "relative_change", "screen"],
     None),
    (("op", "apply", "--manifold", "torus1", "--op", "laplace", "--expr",
      "sin(2*pi*x1)"),
     ["schema", "kind", "operator", "source_valence", "target_valence",
      "charts"], None),
])
def test_cli_report_keys(capsys, argv, keys, extras):
    code, rep = run(capsys, *argv)
    assert code == 0
    assert list(rep) == keys + ["config"]
    if extras is not None:
        assert list(rep["extras"]) == extras


def as_json(rep) -> dict:
    return getattr(rep, "to_json", lambda: rep)()


def test_norm_report_without_extras():
    rep = as_json(lp_norm(parse_expr("x1", 1), BoxDomain(((0.0, 1.0),)), 2.0, 16))
    assert list(rep) == NORM
    assert rep["kind"] == "norm_report"


def test_divergence_integral_keys():
    atlas, pou, g = builtin_manifold("torus1")
    u = parse_expr("sin(2*pi*x1)", atlas.ambient_dim)
    X = TensorField(atlas, 0, 1, [
        (f,) for f in atlas.local_representations(u)])
    rep = as_json(divergence_integral(X, g, pou, N=32))
    assert list(rep) == ["schema", "kind", "value", "error_estimate"]
    assert rep["kind"] == "divergence_integral"
