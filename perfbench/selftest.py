"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs in about a minute: the run-level tests use ``--smoke`` grids, the
reference tests run two real items.  The file name keeps these tests out of
the repository's own pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
           PERFBENCH_SRC=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_smoke_prints_every_metric_with_its_unit():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for w in SPEC["workloads"]:
            proc = _bench("--workload", w["name"], "--seed", "5", "--seconds",
                          "1", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            for m in SPEC[group]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert math.isfinite(got["value"])
                assert any(line.startswith(f"{m['name']} ")
                           and line.endswith(f" {m['unit']}")
                           for line in lines[:-1]), m["name"]
            assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}


def _run(items):
    import worker
    return worker.run_pass(items)


def test_corrupted_reference_fails():
    items = workloads.generate("euclid-frac", 11)[1:2]
    assert _run(items)["failed"] == 0
    item = items[0]
    bad = dataclasses.replace(item.spec, value=item.spec.value * (1 + 1e-7))
    res = _run([dataclasses.replace(item, spec=bad)])
    assert res["failed"] / res["attempted"] > 0, res

    chk = next(it for it in workloads.generate("chart-mixed", 11)
               if isinstance(it.spec, workloads.Check) and it.spec.code == 1)
    assert _run([chk])["failed"] == 0
    wrong = dataclasses.replace(chk.spec, result="Admissible", code=0)
    assert _run([dataclasses.replace(chk, spec=wrong)])["failed"] == 1


def test_non_finite_output_fails():
    item = workloads.generate("euclid-frac", 11)[0]
    text = json.dumps({"value": 1.0, "error_estimate": float("nan")})
    assert "strict JSON" in workloads.check(item, 0, text)
    assert workloads.check(item, 3, "{}").startswith("exit code 3")


def test_scale_never_folds():
    for seed in range(200):
        for w in workloads.WORKLOADS:
            for item in workloads.generate(w, seed):
                if isinstance(item.spec, workloads.Norm):
                    assert 1.5 <= item.scale <= 4
                    assert item.scale.denominator >= 97


def test_self_times_add_up_to_traced_wall():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload",
         "connection-deep", "--seed", "2", "--mode", "trace", "--smoke"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    self_total = sum(row["self_s"] for row in res["layers"].values())
    assert abs(self_total - res["root_s"]) <= 1e-6 * res["root_s"]
    assert res["root_s"] <= res["wall_s"]
    assert res["wall_s"] - res["root_s"] <= 0.02 * res["wall_s"] + 0.005


def test_tracer_wraps_every_binding_and_uninstalls():
    import importlib
    import inspect
    import pkgutil

    import sobolev
    from tracer import Tracer

    mods = [importlib.import_module(f"sobolev.{m.name}")
            for m in pkgutil.iter_modules(sobolev.__path__)]

    def public_bindings():
        return {(m.__name__, name): obj for m in mods
                for name, obj in vars(m).items()
                if inspect.isfunction(obj) and not obj.__name__.startswith("_")
                and (obj.__module__ or "").startswith("sobolev.")}

    before = public_bindings()
    assert ("sobolev.fields", "eval_on_points") in before
    tracer = Tracer().install()
    try:
        after = public_bindings()
        for key, obj in after.items():
            assert obj is not before[key] and obj.__wrapped__ is before[key], key
    finally:
        tracer.uninstall()
    assert public_bindings() == before


def test_missing_sources_fail_without_a_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench("--workload", "euclid-frac", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as err:   # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(err).__name__}: {err}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
