"""The README's Python quick tour runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sobolev.funcexpr
from sobolev import ArgumentError
from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import FUNCTIONS
from sobolev.quadrature import grid_shape

ROOT = Path(__file__).resolve().parent.parent


def test_quick_tour_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks, "the README has no python block"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def grammar_functions(text: str) -> tuple:
    line = re.search(r"^\s*FUNC\s*=(.*);", text, flags=re.M).group(1)
    return tuple(re.findall(r'"(\w+)"', line))


def test_grammar_lists_exactly_the_functions():
    assert grammar_functions(sobolev.funcexpr.__doc__) == FUNCTIONS
    assert grammar_functions((ROOT / "README.md").read_text()) == FUNCTIONS


def test_echoed_descriptor_keys_are_the_atlas_config_keys():
    text = " ".join((ROOT / "README.md").read_text().split())
    keys = re.search(r"keys that `atlas show` echoes \((.*?)\)", text).group(1)
    atlas = builtin_manifold("torus1")[0]
    assert tuple(re.findall(r"`(\w+)`", keys)) == \
        tuple(k for k in atlas.to_config() if k != "manifold")


@pytest.mark.parametrize("n", [1, 2])
def test_stated_grid_minima_are_the_grid_rule(n):
    text = " ".join((ROOT / "README.md").read_text().split())
    minima = re.search(r"every axis needs `N >= (\d+)`, and `N >= (\d+)` "
                       r"at a fractional order", text).groups()
    for order, need in zip((1, 0.5), map(int, minima)):
        assert grid_shape(n, need, order) == (need,) * n
        short = (need,) * (n - 1) + (need - 1,)  # one axis short refuses
        with pytest.raises(ArgumentError, match=f"at least {need} per axis"):
            grid_shape(n, short, order)
