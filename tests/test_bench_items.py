"""The benchmark's correctness gate holds on every workload item.

Loads ``perfbench/workloads.py`` unchanged, runs every item of seeds 1
and 2 through ``sobolev.cli.execute`` at the full grids, and checks each
output with ``workloads.check``: pinned values, closed forms and check
verdicts all apply.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from sobolev import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / \
    "workloads.py"


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = load_workloads()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_item_passes_the_gate(workload, seed):
    failures = []
    for item in workloads.generate(workload, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.execute(list(item.argv))
        reason = workloads.check(item, code, buf.getvalue())
        if reason is not None:
            failures.append((" ".join(item.argv), reason))
    assert failures == []
