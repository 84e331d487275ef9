"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run with ``pytest -v -s`` to see them).

Expected values are closed forms derived by hand or frozen regression
data computed once from independent brute-force oracles; tolerances are
as stated per criterion, never loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from sobolev import exponents as ex
from sobolev.atlas import (
    alternate_seeds, build_partition_of_unity, builtin_manifold,
    quasirandom_points,
)
from sobolev.cli import execute
from sobolev.fields import box_bump
from sobolev.funcexpr import (
    diff_expr, eval_expr, eval_many, eval_on_points, parse_expr,
)
from sobolev.geometry import TensorField
from sobolev.manifold_norms import (
    NormVariant, compare_norms, connection_sobolev_norm, manifold_lq_norm,
)
from sobolev.operators import (
    apply_operator, divergence_integral, empirical_bound,
)
from sobolev.quadrature import (
    BoxDomain, extend_by_zero, gagliardo_seminorm, midpoint_grid,
    sobolev_norm,
)

FS = ex.DomainClass.FULL_SPACE
BL = ex.DomainClass.BOUNDED_LIPSCHITZ
GO = ex.DomainClass.GENERAL_OPEN
CS = ex.DomainClass.COMPACT_SUPPORT_IN_OPEN
A, NG = ex.ADMISSIBLE, ex.NOT_GUARANTEED


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


def _report(n, label):
    print(f"criterion {n:>2}: PASS  {label}")


# --------------------------------------------------------------------------
# 1. exponent golden table
# --------------------------------------------------------------------------

def _mult(n, a, b, t, d=FS):
    return ex.check_multiplication(ex.space(*a, n, d), ex.space(*b, n, d),
                                   ex.space(*t, n, d))


GOLDEN = [
    # (label, callable, expected result, expected tag prefix or None)
    ("mult (1,2)x(1,2)->(0,2) n=3",
     lambda: _mult(3, (1, 2), (1, 2), (0, 2)), A, "multiplication 4.6"),
    ("mult (2,2)x(2,2)->(1/2,2) n=3",
     lambda: _mult(3, (2, 2), (2, 2), ("1/2", 2)), A, "multiplication 4.1"),
    ("mult (1,2)x(-1/4,2)->(-1/4,2) n=1",
     lambda: _mult(1, (1, 2), ("-1/4", 2), ("-1/4", 2)), A,
     "multiplication 4.3"),
    ("mult (1,2)x(1,2)->(-1/2,2) n=1",
     lambda: _mult(1, (1, 2), (1, 2), ("-1/2", 2)), A, "multiplication 4.5"),
    ("mult (1/2,2)^3 n=3",
     lambda: _mult(3, ("1/2", 2), ("1/2", 2), ("1/2", 2)), NG, None),
    ("boundary: mult (1,2)x(1,2)->(1,2) n=2 (iv equality rejected)",
     lambda: _mult(2, (1, 2), (1, 2), (1, 2)), NG, None),
    ("boundary: mult (1,2)x(1,2)->(0,2) n=4 (iv equality accepted)",
     lambda: _mult(4, (1, 2), (1, 2), (0, 2)), A, "multiplication 4.6"),
    ("algebra sp>n",
     lambda: ex.check_pointwise(ex.space(2, 2, 3), "algebra"), A,
     "algebra 3.3"),
    ("boundary: algebra sp=n rejected",
     lambda: ex.check_pointwise(ex.space(1, 2, 2), "algebra"), NG, None),
    ("linfty fails in n=4",
     lambda: ex.check_pointwise(ex.space(1, 2, 4), "linfty"), NG, None),
    ("composition s=3/2, sp>n",
     lambda: ex.check_pointwise(ex.space("3/2", 2, 2), "composition"), A,
     "composition"),
    ("embed I (2,2)->(1,4) n=2",
     lambda: ex.check_embedding(ex.space(2, 2, 2), ex.space(1, 4, 2)), A,
     "embedding I"),
    ("boundary: embed I balance equality accepted",
     lambda: ex.check_embedding(ex.space(1, 2, 2), ex.space("1/2", 4, 2)), A,
     "embedding I"),
    ("embed I rejects p>q on the whole space",
     lambda: ex.check_embedding(ex.space(2, 4, 2), ex.space(1, 2, 2)), NG,
     None),
    ("embed III allows p>q on Lipschitz",
     lambda: ex.check_embedding(ex.space(2, 4, 2, BL),
                                ex.space(1, 2, 2, BL)), A, "embedding III"),
    ("embed IV integer chain on open sets",
     lambda: ex.check_embedding(ex.space(2, 2, 2, GO),
                                ex.space(1, 2, 2, GO)), A, "embedding IV.3"),
    ("embed IV has no q!=p item",
     lambda: ex.check_embedding(ex.space(2, 2, 2, GO),
                                ex.space(1, 4, 2, GO)), NG, None),
    ("derivative item 1 on the whole space",
     lambda: ex.check_derivative(ex.space("1/2", 2, 1), 1), A, "derivative 1"),
    ("derivative item 4 blocked at s-1/p integer",
     lambda: ex.check_derivative(ex.space("3/2", 2, 1, BL), 2), NG, None),
    ("extension by zero at s=-3/2 over a general set",
     lambda: ex.check_extension(ex.space("-3/2", 2, 1, CS)), NG, None),
]

# spanning additions kept outside the 20-row table proper:
EXTRA_COVERAGE = [
    ("derivative item 2", lambda: ex.check_derivative(
        ex.space("-1/2", 2, 1, GO), 3), A, "derivative 2"),
    ("derivative item 3", lambda: ex.check_derivative(
        ex.space(2, 2, 1, GO), 1), A, "derivative 3"),
    ("derivative item 4 passes off the exceptional set",
     lambda: ex.check_derivative(ex.space("4/3", 2, 1, BL), 2), A,
     "derivative 4"),
    ("extension by zero, positive order",
     lambda: ex.check_extension(ex.space(1, 2, 1, CS)), A, None),
    ("extension by zero, -1 < s < 0",
     lambda: ex.check_extension(ex.space("-1/2", 2, 1, CS)), A, None),
]


def test_criterion_01_exponent_golden_table():
    assert len(GOLDEN) == 20
    start = time.perf_counter()
    for label, run, expected, tag in GOLDEN + EXTRA_COVERAGE:
        verdict = run()
        assert verdict.result == expected, label
        if tag is not None:
            assert verdict.theorem_tag.startswith(tag), (
                f"{label}: matched {verdict.theorem_tag}")
        for cond in verdict.conditions:
            assert cond.reevaluate() == cond.satisfied, label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"20-row golden table + {len(EXTRA_COVERAGE)} coverage rows "
               f"in {elapsed * 1e3:.0f} ms")


# --------------------------------------------------------------------------
# 2. Gagliardo closed forms
# --------------------------------------------------------------------------

def test_criterion_02_gagliardo_closed_forms():
    unit = BoxDomain(((0.0, 1.0),))
    x = parse_expr("x1", 1)

    t0 = time.perf_counter()
    half = gagliardo_seminorm(x, unit, theta=0.5, p=2, N=512)
    t_half = time.perf_counter() - t0
    assert half.value == pytest.approx(1.0, rel=0.02)
    assert t_half < 10.0

    t0 = time.perf_counter()
    quarter = gagliardo_seminorm(x, unit, theta=0.25, p=2, N=512)
    t_quarter = time.perf_counter() - t0
    assert quarter.value == pytest.approx(math.sqrt(8.0 / 15.0), rel=0.02)
    assert t_quarter < 10.0

    const = gagliardo_seminorm(parse_expr("3", 1), unit, theta=0.5, p=2, N=256)
    assert const.value <= 1e-12

    _report(2, f"theta=1/2: {half.value:.4f} (1.0), "
               f"theta=1/4: {quarter.value:.4f} ({math.sqrt(8/15):.4f}), "
               f"constant: {const.value:.1e}; "
               f"{t_half:.2f}s/{t_quarter:.2f}s")


# --------------------------------------------------------------------------
# 3. symbolic vs finite-difference derivatives
# --------------------------------------------------------------------------

def test_criterion_03_derivative_cross_check():
    import random
    from test_funcexpr import central_difference, random_expr

    rng = random.Random(11)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = rng.randint(1, 3)
        e = random_expr(rng, n, 3)
        axis = rng.randint(1, n)
        point = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        d = diff_expr(e, axis)
        try:
            sym = eval_expr(d, point)
            fd = central_difference(e, point, axis)
        except ArithmeticError:
            continue
        if abs(sym) > 1e6 or not math.isfinite(fd):
            continue
        rel = abs(sym - fd) / max(1.0, abs(sym))
        worst = max(worst, rel)
        assert rel <= 1e-6
        checked += 1
    _report(3, f"100 random expressions, worst relative error {worst:.2e}")


# --------------------------------------------------------------------------
# 4. partition-of-unity sums
# --------------------------------------------------------------------------

def test_criterion_04_partition_of_unity_sums():
    worsts = {}
    for name in ("s1-stereo", "torus2", "s2-stereo"):
        atlas, pou, _ = builtin_manifold(name)
        pts = quasirandom_points(name, 10_000)
        sums = pou.values_at(pts).sum(axis=0)
        worsts[name] = float(np.max(np.abs(sums - 1.0)))
        assert worsts[name] <= 1e-12
    _report(4, "max |sum psi - 1|: " + ", ".join(
        f"{k}={v:.1e}" for k, v in worsts.items()))


# --------------------------------------------------------------------------
# 5. Christoffel symbols
# --------------------------------------------------------------------------

def test_criterion_05_christoffel():
    atlas, _, g = builtin_manifold("s2-stereo")
    pts, _, _ = midpoint_grid(atlas.charts[0].truncation, (7, 7))
    pts = pts * 0.5
    vals = gamma_values(g.christoffel[0], pts)
    r2 = np.sum(pts * pts, axis=1)
    worst_sym = 0.0
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
                expected = -2.0 / (1.0 + r2) * term
                worst_sym = max(worst_sym, float(np.max(np.abs(
                    vals[:, k, i, j] - expected))))
    assert worst_sym <= 1e-10

    # finite-difference reconstruction through the metric
    h = 1e-6
    Ginv = matrix(g.inv_comps[0], pts)
    fd = np.zeros((len(pts), 2, 2, 2))
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        fd[:, ax] = (matrix(g.comps[0], pts + e)
                     - matrix(g.comps[0], pts - e)) / (2 * h)
    worst_fd = 0.0
    for k in range(2):
        for i in range(2):
            for j in range(2):
                recon = np.zeros(len(pts))
                for l in range(2):
                    recon += 0.5 * Ginv[:, k, l] * (
                        fd[:, i, j, l] + fd[:, j, i, l] - fd[:, l, i, j])
                worst_fd = max(worst_fd, float(np.max(np.abs(
                    recon - vals[:, k, i, j]))))
    assert worst_fd <= 1e-4

    # flat metrics: identically zero, structurally
    for name in ("torus1", "torus2"):
        t_atlas, _, t_g = builtin_manifold(name)
        for ci in range(len(t_atlas.charts)):
            qts, _, _ = midpoint_grid(t_atlas.charts[ci].truncation,
                                      (5,) * t_atlas.dim)
            assert np.max(np.abs(gamma_values(t_g.christoffel[ci],
                                              qts))) == 0.0
    _report(5, f"closed form dev {worst_sym:.1e} (<=1e-10), "
               f"FD dev {worst_fd:.1e} (<=1e-4), flat ones exactly 0")


# --------------------------------------------------------------------------
# 6. manifold Lebesgue norms
# --------------------------------------------------------------------------

def test_criterion_06_manifold_l2_values():
    atlas, pou, g = builtin_manifold("s1-stereo")
    one = TensorField.from_ambient(atlas, "1")
    circle = manifold_lq_norm(one, g, pou, q=2, N=512)
    assert circle.value == pytest.approx(math.sqrt(2 * math.pi), rel=0.005)

    t_atlas, t_pou, t_g = builtin_manifold("torus1")
    sine = TensorField.from_ambient(t_atlas, "sin(2*pi*x1)")
    torus = manifold_lq_norm(sine, t_g, t_pou, q=2, N=512)
    assert torus.value == pytest.approx(1.0 / math.sqrt(2.0), rel=0.005)
    _report(6, f"||1|| on the circle = {circle.value:.4f} "
               f"(sqrt(2 pi) = {math.sqrt(2*math.pi):.4f}); "
               f"||sin 2 pi x|| on the 1-torus = {torus.value:.4f} "
               f"(1/sqrt(2) = {1/math.sqrt(2):.4f})")


# --------------------------------------------------------------------------
# 7. connection norm closed form
# --------------------------------------------------------------------------

def test_criterion_07_connection_norm_closed_form():
    atlas, pou, g = builtin_manifold("torus1")
    u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")
    rep = connection_sobolev_norm(u, g, k=1, q=2, N=512, pou=pou)
    expected = math.sqrt(0.5 + (2 * math.pi) ** 2 / 2.0)
    assert rep.value == pytest.approx(expected, rel=0.005)
    _report(7, f"W^(1,2) connection norm = {rep.value:.4f} "
               f"(closed form {expected:.4f})")


# --------------------------------------------------------------------------
# 8. norm-equivalence brackets
# --------------------------------------------------------------------------

TRIG_FAMILY = ["x1", "x2", "x1*x2", "x1^2 - x2^2", "x1^3", "x2^3",
               "x1^2*x2", "x1*x2^2", "1 + x1", "x2 - 2*x1"]

# frozen after the first computation (N=512, default vs "alt" seeds)
FROZEN_POU_BRACKET = (1.0002, 1.1209)
FROZEN_CONN_BRACKET = (2.0276, 2.9688)


def test_criterion_08_equivalence_brackets():
    atlas, pou, g = builtin_manifold("s1-stereo")
    pou_alt = build_partition_of_unity(atlas, alternate_seeds(atlas), "alt")
    family = [TensorField.from_ambient(atlas, t) for t in TRIG_FAMILY]
    assert len(family) == 10

    chart_default = NormVariant("chart", pou=pou)
    chart_alt = NormVariant("chart", pou=pou_alt)
    connection = NormVariant("connection", metric=g, pou=pou)

    results = {}
    for tag, vb, frozen in (("pou", chart_alt, FROZEN_POU_BRACKET),
                            ("connection", connection, FROZEN_CONN_BRACKET)):
        fine = compare_norms(family, chart_default, vb, e=1, q=2, N=512)
        coarse = compare_norms(family, chart_default, vb, e=1, q=2, N=256)
        for out in (fine, coarse):
            lo, hi = out["bracket"]
            assert 0.0 < lo <= hi < float("inf")
        for side in (0, 1):
            stability = abs(fine["bracket"][side] - coarse["bracket"][side]) \
                / fine["bracket"][side]
            assert stability <= 0.05
            drift = abs(fine["bracket"][side] - frozen[side]) / frozen[side]
            assert drift <= 0.05, f"{tag} bracket drifted from frozen data"
        results[tag] = fine["bracket"]
    _report(8, f"brackets: two-PoU {results['pou']}, "
               f"chart-vs-connection {results['connection']}; "
               f"scale-invariant, stable under N doubling")


# --------------------------------------------------------------------------
# 9. extension by zero
# --------------------------------------------------------------------------

def test_criterion_09_extension_by_zero():
    inner = BoxDomain(((0.0, 1.0),))
    outer = BoxDomain(((-1.0, 2.0),))
    bumps = [
        box_bump(1, ("1/2",), "1/5", "2/5"),
        box_bump(1, ("2/5",), "1/10", "3/10"),
        box_bump(1, ("3/5",), "1/4", "7/20"),
        box_bump(1, ("1/2",), "3/10", "9/20"),
        box_bump(1, ("7/10",), "1/10", "1/5"),
    ]
    N = 256
    pts, _, _ = midpoint_grid(inner, (N,))
    worst_gap = -1.0
    for bump in bumps:
        ext = extend_by_zero(bump, inner, N=N)
        assert np.array_equal(eval_on_points(ext, pts),
                              eval_on_points(bump, pts))
        for s in (0.0, 0.5, 1.0):
            inner_rep = sobolev_norm(bump, inner, s=s, p=2, N=N)
            outer_rep = sobolev_norm(ext, outer, s=s, p=2, N=3 * N)
            # at integer s the two sides agree exactly; allow summation
            # roundoff on the tie
            assert outer_rep.value >= inner_rep.value * (1.0 - 1e-12)
            worst_gap = max(worst_gap,
                            inner_rep.value / outer_rep.value)
    _report(9, f"restriction o extension exact on 5 bumps; "
               f"||ext u|| >= ||u|| at s in {{0, 1/2, 1}} "
               f"(largest inner/outer ratio {worst_gap:.6f})")


# --------------------------------------------------------------------------
# 10. operator boundedness
# --------------------------------------------------------------------------

def test_criterion_10_operator_boundedness():
    atlas, pou, g = builtin_manifold("torus1")
    family = [TensorField.from_ambient(atlas, f"sin(2*pi*{k}*x1)")
              for k in (1, 2, 3, 4, 5)]

    d_out = empirical_bound("d", g, ("1", "2"), ("0", "2"),
                            family[:3], N=256, route="box")
    assert d_out["sup"] <= 1.0

    lap_out = empirical_bound("laplace", g, ("2", "2"),
                              ("0", "2"), family, N=256, route="box")
    for k, ratio in zip((1, 2, 3, 4, 5), lap_out["ratios"]):
        w = 2 * math.pi * k
        assert ratio < 1.0
        assert ratio == pytest.approx(w ** 2 / (1 + w + w ** 2), rel=0.01)

    # closed-manifold divergence identity on every built-in, with the
    # gradient of a smooth function as the test field
    div_values = {}
    for name, f_txt, N in (("s1-stereo", "x2", 512),
                           ("s2-stereo", "x3", 96),
                           ("torus1", "sin(2*pi*x1)", 512),
                           ("torus2", "sin(2*pi*x1)*cos(2*pi*x2)", 64)):
        m_atlas, m_pou, m_g = builtin_manifold(name)
        f = TensorField.from_ambient(m_atlas, f_txt)
        X = apply_operator("grad", m_g, f)
        out = divergence_integral(X, m_g, m_pou, N=N)
        div_values[name] = out["value"]
        assert abs(out["value"]) <= max(out["error_estimate"], 1e-6)
    _report(10, f"d sup ratio {d_out['sup']:.4f} <= 1; laplace ratios match "
                f"closed forms to 1%; div integrals "
                + ", ".join(f"{k}={v:.1e}" for k, v in div_values.items()))


# --------------------------------------------------------------------------
# 11. CLI exit-code and schema contract
# --------------------------------------------------------------------------

def _cli(capsys, *argv):
    code = execute(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_criterion_11_cli_contract(capsys, tmp_path):
    checks = []

    code, rep = _cli(capsys, "check", "embed", "--n", "2", "--from", "2,2",
                     "--to", "1,4")
    assert (code, rep["schema"], rep["result"]) == (0, "v1", "Admissible")
    checks.append("check embed")

    code, rep = _cli(capsys, "check", "multiply", "--n", "3", "--a", "1,2",
                     "--b", "1,2", "--target", "0,2")
    assert code == 0 and rep["result"] == "Admissible"
    assert rep["config"]["target"] == "0,2"
    checks.append("check multiply")

    code, rep = _cli(capsys, "check", "multiply", "--n", "3", "--a", "1/2,2",
                     "--b", "1/2,2", "--target", "1/2,2")
    assert code == 1 and rep["result"] == "NotGuaranteed"
    checks.append("NotGuaranteed exit 1")

    code, rep = _cli(capsys, "check", "pointwise", "--n", "3",
                     "--space", "2,2", "--mode", "algebra")
    assert code == 0 and rep["kind"] == "verdict"
    checks.append("check pointwise")

    code, rep = _cli(capsys, "check", "derivative", "--n", "1",
                     "--space", "1/2,2", "--order", "1")
    assert code == 0 and rep["target"] == {"s": "-1/2", "p": "2"}
    checks.append("check derivative")

    code, rep = _cli(capsys, "check", "extend", "--n", "1", "--space=-1/2,2")
    assert code == 0
    checks.append("check extend")

    code, rep = _cli(capsys, "norm", "euclid", "--expr", "x1", "--box", "0,1",
                     "--s", "1/2", "--p", "2", "--grid", "512", "--seminorm")
    assert code == 0 and rep["kind"] == "norm_report"
    assert rep["value"] == pytest.approx(1.0, rel=0.02)
    checks.append("norm euclid")

    code, rep = _cli(capsys, "norm", "euclid", "--expr", "sin((x1",
                     "--box", "0,1", "--s", "1/2")
    assert code == 2 and "position" in rep["error"]
    checks.append("parse error exit 2")

    code, rep = _cli(capsys, "norm", "euclid", "--expr", "log(x1 - 1)",
                     "--box", "0,2", "--s", "0", "--grid", "16")
    assert code == 3 and "error" in rep
    checks.append("domain error exit 3")

    code, rep = _cli(capsys, "norm", "manifold", "--manifold", "torus1",
                     "--expr", "sin(2*pi*x1)", "--e", "1", "--grid", "128")
    assert code == 0 and rep["kind"] == "manifold_norm_report"
    checks.append("norm manifold")

    code, rep = _cli(capsys, "norm", "connection", "--manifold", "torus1",
                     "--expr", "sin(2*pi*x1)", "--k", "1", "--grid", "128")
    assert code == 0 and rep["kind"] == "manifold_norm_report"
    checks.append("norm connection")

    code, rep = _cli(capsys, "compare", "--manifold", "torus1",
                     "--expr", "sin(2*pi*x1)", "--expr", "cos(2*pi*x1)",
                     "--e", "1", "--grid", "96")
    assert code == 0 and rep["kind"] == "norm_comparison"
    checks.append("compare")

    code, rep = _cli(capsys, "op", "apply", "--manifold", "torus1",
                     "--op", "laplace", "--expr", "sin(2*pi*x1)")
    assert code == 0 and rep["kind"] == "operator_apply"
    checks.append("op apply")

    code, rep = _cli(capsys, "op", "bound", "--manifold", "torus1",
                     "--op", "d", "--from", "1,2", "--to", "0,2",
                     "--expr", "sin(2*pi*x1)", "--grid", "128")
    assert code == 0 and rep["kind"] == "operator_bound"
    checks.append("op bound")

    code, rep = _cli(capsys, "atlas", "show", "--manifold", "s1-stereo")
    assert code == 0 and rep["kind"] == "atlas-config"
    checks.append("atlas show")

    _report(11, f"{len(checks)} CLI contract checks: " + ", ".join(checks))
