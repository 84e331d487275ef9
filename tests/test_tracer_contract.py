"""The benchmark's tracer (``perfbench/tracer.py``) still fits the library.

The tracer wraps every public function at every module binding and the
``values``/``partial`` methods of ``fields.Field`` from outside the
library.  This test loads it unchanged in a fresh process, runs three small
CLI commands untraced and traced, and checks that tracing changes no
output byte and that ``uninstall`` puts every binding back.  Two more
commands, each traced on its own, check that the chart route and an
operator bound reach box norms through public names, so their time lands
in the ``quadrature.reduce`` and ``manifold_norms`` layers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

COMMANDS = [
    ["norm", "euclid", "--expr", "x1^2", "--box", "0,1", "--s", "3/2",
     "--grid", "32"],
    ["norm", "euclid", "--expr", "x1^2", "--box", "0,1", "--s", "1/2",
     "--grid", "32", "--seminorm"],
    ["norm", "connection", "--manifold", "s1-stereo", "--expr", "x1*x2",
     "--k", "2", "--grid", "32"],
]

# each traced on its own
ROUTE_COMMANDS = [
    ["norm", "manifold", "--manifold", "torus2", "--expr",
     "sin(2*pi*x1)*cos(2*pi*x2)", "--e", "3/2", "--grid", "8"],
    ["op", "bound", "--manifold", "s1-stereo", "--op", "d", "--from", "1,2",
     "--to", "0,2", "--expr", "x1*x2", "--grid", "16"],
]

SCRIPT = r"""
import contextlib, importlib, importlib.util, inspect, io, json, pkgutil, sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

import sobolev
from sobolev.fields import Field

modules = [importlib.import_module(f"sobolev.{m.name}")
           for m in pkgutil.iter_modules(sobolev.__path__)]


def bindings():
    out = {f"{m.__name__}.{k}": v for m in modules
           for k, v in vars(m).items() if inspect.isfunction(v)}
    out.update({f"Field.{k}": Field.__dict__[k]
                for k in tracer.FIELD_METHODS})
    return out


def run_all(commands):
    from sobolev import cli
    outs = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.execute(argv)
        outs.append([code, buf.getvalue()])
    return outs


def traced_alone(argv):
    t = tracer.Tracer().install()
    [(code, _)] = run_all([argv])
    layers = t.layers()
    t.uninstall()
    return [code, {k: v["calls"] for k, v in layers.items()}]


before = bindings()
plain = run_all(json.loads(sys.argv[2]))
t = tracer.Tracer().install()
during = bindings()
traced = run_all(json.loads(sys.argv[2]))
layers = t.layers()
t.uninstall()
after = bindings()
alone = [traced_alone(argv) for argv in json.loads(sys.argv[3])]
print(json.dumps({
    "plain": plain, "traced": traced,
    "wrapped": sorted(k for k in before if during[k] is not before[k]),
    "not_restored": sorted(k for k in before.keys() | after.keys()
                           if after.get(k) is not before.get(k)),
    "layers": sorted(layers),
    "alone": alone,
}))
"""


def test_traced_run_is_byte_identical_and_uninstall_restores():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(TRACER),
         json.dumps(COMMANDS), json.dumps(ROUTE_COMMANDS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)

    assert [code for code, _ in result["plain"]] == [0, 0, 0]
    assert result["traced"] == result["plain"]
    assert result["not_restored"] == []
    for name in ("sobolev.cli.execute", "sobolev.funcexpr.eval_on_points",
                 "sobolev.quadrature.gagliardo_double_sum",
                 "Field.values", "Field.partial"):
        assert name in result["wrapped"]
    for layer in ("cli", "funcexpr.eval", "funcexpr.symbolic",
                  "quadrature.pair_sum", "geometry.covd",
                  "geometry.fiber_norm", "atlas.setup", "manifold_norms",
                  "fields.values", "fields.partial"):
        assert layer in result["layers"]
    for code, calls in result["alone"]:
        assert code == 0
        assert calls.get("quadrature.reduce", 0) > 0
        assert calls.get("manifold_norms", 0) > 0
