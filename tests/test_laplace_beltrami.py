"""Oracle test of the Laplace-Beltrami operator on the round spheres.

A restriction to S^n of a harmonic homogeneous polynomial of degree l is
an eigenfunction of the round Laplace-Beltrami operator with eigenvalue
-l(l + n - 1).  So on S^2, Delta(x1*x3) = -6 x1*x3 and Delta x2 = -2 x2,
and on S^1, Delta(x1*x2) = -4 x1*x2.  The check runs on every chart at
midpoint-grid points of its truncation box, and covers the whole
grad -> div composition on a curved chart.
"""

import numpy as np
import pytest

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import eval_on_points
from sobolev.geometry import TensorField
from sobolev.operators import (
    ValenceMismatch, apply_operator, divergence_integral,
)
from sobolev.quadrature import midpoint_grid


@pytest.mark.parametrize("name, text, eigenvalue", [
    ("s2-stereo", "x1*x3", -6.0),
    ("s2-stereo", "x2", -2.0),
    ("s1-stereo", "x1*x2", -4.0),
])
def test_spherical_harmonics_are_eigenfunctions(name, text, eigenvalue):
    atlas, _, g = builtin_manifold(name)
    u = TensorField.from_ambient(atlas, text)
    lap = apply_operator("laplace", g, u)
    shape = (64,) if atlas.dim == 1 else (24, 24)
    for ci, chart in enumerate(atlas.charts):
        pts, _, _ = midpoint_grid(chart.truncation, shape)
        got = eval_on_points(lap.component(ci, (), ()), pts)
        expected = eigenvalue * eval_on_points(u.component(ci, (), ()), pts)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_divergence_integral_of_a_function_is_valence_mismatch():
    atlas, pou, g = builtin_manifold("s2-stereo")
    u = TensorField.from_ambient(atlas, "x3")
    with pytest.raises(ValenceMismatch):
        divergence_integral(u, g, pou, N=8)
