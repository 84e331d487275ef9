"""Every name a ``sobolev`` module exports in ``__all__`` exists, so a
deletion that leaves a stale export fails here; and which error types
are :class:`sobolev.ArgumentError` (a refused argument, CLI exit 2) is
pinned, with each argument rule raising it through the API."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sobolev
from sobolev import ArgumentError
from sobolev import manifold_norms as mn
from sobolev import operators as ops
from sobolev import quadrature as quad
from sobolev.atlas import build_partition_of_unity, builtin_manifold
from sobolev.exponents import check_pointwise, space
from sobolev.fields import interval_bump, radial_bump
from sobolev.funcexpr import ZERO, eval_on_points, parse_expr
from sobolev.geometry import (
    MetricField, TensorField, covariant_derivative, musical,
)

MODULES = sorted(f"sobolev.{m.name}"
                 for m in pkgutil.iter_modules(sobolev.__path__))


def test_every_module_is_listed():
    assert "sobolev.cli" in MODULES and "sobolev.fields" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [x for x in exports if not hasattr(module, x)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name_of_fields(name):
    """The bump rules live in ``fields``: another module calls its public
    bumps and does not rebuild one from its private parts."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    assert [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "sobolev.fields"
            for alias in node.names if alias.name.startswith("_")] == []


def test_only_quadrature_builds_an_estimate():
    """The error rules live in ``quadrature``: another module builds a
    route's (value, coarse, error) through its ``_two_grid`` and
    ``_total``, never by calling ``Estimate`` itself."""
    def calls(name):
        tree = ast.parse(
            Path(importlib.import_module(name).__file__).read_text())
        return sum(isinstance(node, ast.Call) and "Estimate" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(tree))
    assert [name for name in MODULES if calls(name)] == ["sobolev.quadrature"]


def test_argument_error_types_are_pinned():
    """A new public error type fails here until it is placed on one side:
    a caller's argument (exit 2) or a fault found while computing
    (exit 3)."""
    errors = {}
    for name in MODULES:
        for key, obj in vars(importlib.import_module(name)).items():
            if isinstance(obj, type) and issubclass(obj, Exception) and \
                    obj.__module__ == name and not key.startswith("_"):
                errors[key] = issubclass(obj, ArgumentError)
    assert issubclass(ArgumentError, ValueError)
    assert sorted(k for k, arg in errors.items() if arg) == [
        "AtlasConfigError", "DimensionMismatch", "ExponentError",
        "ExprSyntaxError", "UnknownManifold", "ValenceMismatch",
        "WrongDomainClass"]
    assert sorted(k for k, arg in errors.items() if not arg) == [
        "CoverConditionError", "ExprDomainError", "PeriodicityError",
        "SupportViolation"]
    assert issubclass(sobolev.atlas.UnknownManifold, LookupError)
    assert issubclass(sobolev.operators.ValenceMismatch, TypeError)


@pytest.fixture(scope="module")
def a():
    """The arguments of the rules below, each valid on its own."""
    t1, pou, g = builtin_manifold("torus1")
    s1 = builtin_manifold("s1-stereo")[0]
    return SimpleNamespace(
        x=parse_expr("x1", 1), box=quad.BoxDomain(((0.0, 1.0),)), g=g,
        pou=pou, u=TensorField.from_ambient(t1, "sin(2*pi*x1)"),
        v=TensorField.from_ambient(s1, "x1"),
        chart=mn.NormVariant("chart", pou=pou))


# Every argument rule of the norm routes, each called with one fault.
RULES = {
    "p at or below 1": lambda a: quad.lp_norm(a.x, a.box, p=1),
    "p not finite": lambda a: quad.sobolev_norm(a.x, a.box, 1, math.inf),
    "grid below 2": lambda a: quad.lp_norm(a.x, a.box, N=1),
    "grid below its halvings":
        lambda a: quad.sobolev_norm(a.x, a.box, 1.5, N=2),
    "resolution of another dimension": lambda a: quad.grid_shape(2, (8,)),
    "theta outside (0, 1)":
        lambda a: quad.gagliardo_seminorm(a.x, a.box, theta=1.5),
    "negative s": lambda a: quad.sobolev_norm(a.x, a.box, -1),
    "s not a number": lambda a: quad.sobolev_norm(a.x, a.box, math.nan),
    "s infinite": lambda a: quad.sobolev_norm(a.x, a.box, math.inf),
    "empty interval": lambda a: quad.BoxDomain(((1.0, 0.0),)),
    "box not finite": lambda a: quad.BoxDomain(((0.0, math.inf),)),
    "negative e": lambda a: mn.chart_sobolev_norm(a.u, a.pou, e=-1),
    "e not a number":
        lambda a: mn.chart_sobolev_norm(a.u, a.pou, e=math.nan),
    "e infinite": lambda a: mn.chart_sobolev_norm(a.u, a.pou, e=math.inf),
    "negative k":
        lambda a: mn.connection_sobolev_norm(a.u, a.g, k=-1, pou=a.pou),
    "empty family": lambda a: mn.compare_norms([], a.chart, a.chart, e=1),
    "compare order not a number":
        lambda a: mn.compare_norms([a.u], a.chart, a.chart, e=math.nan),
    "compare order infinite":
        lambda a: mn.compare_norms([a.u], a.chart, a.chart, e=math.inf),
    "connection route at a fractional order": lambda a: mn.compare_norms(
        [a.u], a.chart, mn.NormVariant("connection", metric=a.g, pou=a.pou),
        e=0.5),
    "connection route at a near-integer order": lambda a: mn.compare_norms(
        [a.u], a.chart, mn.NormVariant("connection", metric=a.g, pou=a.pou),
        e=1 + 1e-13),
    "box route off the tori":
        lambda a: mn.NormVariant("box").compute(a.v, 1, 2, 16),
    "negative operator order":
        lambda a: ops.empirical_bound("d", a.g, (1, 2), (-1, 2), [a.u]),
    "operator target q at or below 1":
        lambda a: ops.empirical_bound("d", a.g, (1, 2), (0, 1), [a.u]),
    "operator on an empty family":
        lambda a: ops.empirical_bound("d", a.g, (1, 2), (0, 2), []),
    "operator grid below its halvings": lambda a: ops.empirical_bound(
        "d", a.g, ("3/2", 2), ("1/2", 2), [a.u], N=3),
    "operator grid below 2":
        lambda a: ops.empirical_bound("d", a.g, (1, 2), (0, 2), [a.u], N=1),
    "operator order whose float overflows":
        lambda a: ops.empirical_bound("d", a.g, ("1e400", 2), (0, 2), [a.u]),
    "operator order not finite":
        lambda a: ops.empirical_bound("d", a.g, (1, 2), (math.inf, 2), [a.u]),
    "operator order the screen does not cover":
        lambda a: ops.empirical_bound("d", a.g, ("1/2", 2), (0, 2), [a.u]),
    # the library's own rules, which no CLI command reaches
    "unknown route name": lambda a: mn.NormVariant("bogus"),
    "chart route without a partition of unity":
        lambda a: mn.NormVariant("chart"),
    "connection route without a metric":
        lambda a: mn.NormVariant("connection", pou=a.pou),
    "covariant derivative of order below 1":
        lambda a: covariant_derivative(a.u, a.g, 0),
    "covariant derivative of a fractional order":
        lambda a: covariant_derivative(a.u, a.g, 1.5),
    "covariant derivative of order not a number":
        lambda a: covariant_derivative(a.u, a.g, math.nan),
    "grid count not an integer": lambda a: quad.grid_shape(1, (8.7,)),
    "grid count a float": lambda a: quad.grid_shape(1, 8.7),
    "grid count a string": lambda a: quad.grid_shape(2, "88"),
    "musical direction": lambda a: musical(a.u, a.g, "up"),
    "musical slot missing": lambda a: musical(a.u, a.g, "flat"),
    "musical sharp slot missing": lambda a: musical(a.u, a.g, "sharp"),
    "metric with a zero determinant":
        lambda a: MetricField(a.g.atlas, [[[ZERO]]] * 2),
    "one bump seed per chart":
        lambda a: build_partition_of_unity(a.g.atlas, []),
    "interval bump plateau at its support":
        lambda a: interval_bump(1, 1, 0, 1, 1),
    "radial bump plateau above its support":
        lambda a: radial_bump(2, 2, 1),
    "points not a 2d array": lambda a: eval_on_points(a.x, np.zeros(3)),
    "expression dimension below 1": lambda a: parse_expr("1", 0),
    "pointwise mode unknown":
        lambda a: check_pointwise(space(1, 2, 1), "bounded"),
    "operator on a field of the wrong valence":
        lambda a: ops.apply_operator("div", a.g, a.u),
}


@pytest.mark.parametrize("rule", RULES)
def test_every_argument_rule_raises_argument_error(a, rule):
    with pytest.raises(ArgumentError):
        RULES[rule](a)
