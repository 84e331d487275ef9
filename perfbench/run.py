"""Benchmark of the ``sobolev`` CLI: one command, three seeded workloads.

    python3 perfbench/run.py --workload euclid-frac --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.

``--trace 0`` runs passes of the workload, each in a fresh Python process
(``worker.py``), until ``--seconds`` have passed (at least one pass), then
adds set-up-only processes until there are ``SETUP_SAMPLES`` set-up times.
It reports ``wall_ref_s``, the median over passes of the time from the
first ``execute`` call to the last return, each rescaled to the speed of
the reference machine by the calibration samples its pass takes, and the
medians of ``setup_s`` (process start until ``sobolev.cli`` is imported)
and ``peak_rss_mb``.

``--trace 1`` runs one untraced pass and two traced passes, the second on
another seed.  It fails the run unless the traced values are bit-identical
to the untraced ones and the exact counts repeat across the two traced
passes; it reports the per-layer metrics of the first traced pass and the
tracing overhead.  Spans go to ``perfbench/out/``.

``--smoke`` shrinks every grid so that a run takes seconds; pinned
references do not apply there, every other check does.

Every output is checked; ``failed`` counts the items that fail.  The last
line of standard output is the result as one JSON object.  Timing uses
process-level clocks only; no operating-system setting is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0          # the whole run, every process included
SECOND_SEED_OFFSET = 7919   # the traced pass on another seed
# Median time of one calibration sample (worker.calibrate) on the reference
# machine: wall_ref_s is the pass time at that machine's speed.
REF_CAL_S = 0.025

# Counts that must repeat exactly across traced passes and seeds.
EXACT_COUNTS = (("quadrature.pair_sum", "pairs"), ("funcexpr.eval", "points"),
                ("funcexpr.eval", "tree_nodes"), ("funcexpr.eval", "dag_nodes"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _environment(nproc: int, numpy: str) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy,
            "L2": caches.get("L2", "unknown"), "L3": caches.get("L3", "unknown"),
            "os_tuning": "none; process-level timers only"}


class Runner:
    def __init__(self, workload: str, smoke: bool):
        self.workload = workload
        self.smoke = smoke
        self.deadline = time.monotonic() + DEADLINE_S
        self.nproc = len(os.sched_getaffinity(0))
        self.numpy = "unknown"
        threads = "1"   # one caller, one thread: no BLAS pool to schedule
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PERFBENCH_SRC=str(ROOT / "src"),
                        PYTHONDONTWRITEBYTECODE="1",
                        OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)

    def worker(self, mode: str, seed: int, spans_out: str | None = None):
        """Run one worker process; returns (set-up seconds, result or None)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--seed", str(seed), "--mode", mode]
        if self.smoke:
            cmd.append("--smoke")
        if spans_out:
            cmd += ["--spans-out", spans_out]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass ran past the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or first.strip() != "ready":
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        if mode == "setup":
            return setup, None
        result = json.loads(rest.strip().splitlines()[-1])
        self.numpy = result["numpy"]
        return setup, result


def _report_failures(results):
    for res in results:
        for line in res["failures"]:
            print(f"FAILED {line}")


def measure(runner: Runner, seed: int, seconds: float):
    passes, setups = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        setup, res = runner.worker("run", seed)
        setups.append(setup)
        passes.append(res)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("setup", seed)[0])
    _report_failures(passes)
    walls = [p["wall_s"] for p in passes]
    print(f"passes {len(passes)}: wall_s " + " ".join(f"{w:.4f}" for w in walls)
          + f", median {statistics.median(walls):.4f}")
    print(f"setup samples {len(setups)}: setup_s "
          + " ".join(f"{s:.4f}" for s in setups))
    cals = [statistics.median(p["cal_s"]) for p in passes]
    print(f"calibration medians per pass, reference {REF_CAL_S} s: "
          + " ".join(f"{c:.5f}" for c in cals))
    metrics = {"wall_ref_s": statistics.median(
                   w * REF_CAL_S / c for w, c in zip(walls, cals)),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                for p in passes)}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, attempted, failed, True


def per_layer(layers: dict, name: str) -> float:
    layer, key = name.rsplit(".", 1)
    row = layers.get(layer, {})
    if name == "quadrature.reduce.self_s":   # the reduction includes lp_norm
        return row.get("self_s", 0) + per_layer(layers, "quadrature.lp.self_s")
    if key == "pairs_per_s":
        return row["pairs"] / row["self_s"] if row.get("self_s") else 0.0
    if key == "dag_ratio":
        return row["dag_nodes"] / row["tree_nodes"] \
            if row.get("tree_nodes") else 0.0
    return row.get(key, 0)


def trace(runner: Runner, seed: int, names):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    _, base = runner.worker("run", seed)
    _, traced = runner.worker(
        "trace", seed, str(out / f"spans-{runner.workload}.json"))
    _, other = runner.worker("trace", seed + SECOND_SEED_OFFSET)
    runs = (base, traced, other)
    _report_failures(runs)
    ok = True
    if traced["values"] != base["values"]:
        print("FAILED traced values differ from the untraced run")
        ok = False
    for layer, key in EXACT_COUNTS:
        a = traced["layers"].get(layer, {}).get(key, 0)
        b = other["layers"].get(layer, {}).get(key, 0)
        if a != b:
            print(f"FAILED {layer}.{key} does not repeat: {a} vs {b}")
            ok = False
    layers = traced["layers"]
    print(f"traced wall_s {traced['wall_s']:.4f}, untraced {base['wall_s']:.4f},"
          f" spans {traced['spans']}")
    for layer in sorted(layers):
        row = layers[layer]
        extra = " ".join(f"{k}={v}" for k, v in row.items()
                         if k not in ("calls", "s", "self_s"))
        print(f"  {layer:22s} calls={row['calls']:<7d} s={row['s']:.4f} "
              f"self_s={row['self_s']:.4f} {extra}")
    metrics = {name: per_layer(layers, name) for name in names
               if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return metrics, attempted, failed, ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for testing the benchmark itself")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sobolev" / "cli.py").is_file():
        print(f"no sobolev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.smoke)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}; closed loop, one caller")
    try:
        if args.trace:
            metric_spec = spec["per_layer"]
            metrics, attempted, failed, ok = trace(
                runner, args.seed, [m["name"] for m in metric_spec])
        else:
            metric_spec = spec["end_to_end"]
            metrics, attempted, failed, ok = measure(
                runner, args.seed, args.seconds)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 3
    print("environment " + json.dumps(_environment(runner.nproc, runner.numpy)))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for m in metric_spec:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in metric_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
