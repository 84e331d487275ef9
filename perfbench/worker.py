"""One pass of one workload in a fresh Python process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``ready`` as soon as ``sobolev.cli`` is imported (the
parent times set-up up to that line), then runs the items through
``sobolev.cli.execute`` in a closed loop: one caller, fixed order, the next
item starts when the previous one returns.  Outputs are checked after the
timed loop.  The last line of standard output is one JSON object.

Modes: ``setup`` stops after the import; ``run`` times a pass, then takes
calibration samples (``calibrate``); ``trace`` times a pass with
every ``sobolev.*`` module wrapped by ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.dont_write_bytecode = True

# The reference computation of calibrate(): about 25 ms per sample on the
# reference machine, a third in each of its three parts.
CAL_SAMPLES = 8
CAL_LOOP = 120_000
CAL_ARRAY = 1 << 18        # 2 MB: stays in cache
CAL_ARRAY_REPS = 4
CAL_STREAM = 1 << 20       # 8 MB: streams through memory, like the pair kernel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import sobolev.cli
    src = os.path.realpath(os.environ.get("PERFBENCH_SRC", ""))
    if not os.path.realpath(sobolev.cli.__file__).startswith(src + os.sep):
        print(f"sobolev imported from {sobolev.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    import workloads
    items = workloads.generate(args.workload, args.seed, smoke=args.smoke)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer().install()
        result = run_pass(items, tracer, args.smoke)
    else:   # calibrated after the pass, which has its peak RSS by then
        result = run_pass(items, None, args.smoke)
        result["cal_s"] = calibrate()
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["root_s"] = tracer.root_seconds()
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["layer", "start", "end", "parent",
                                      "item"],
                           "items": [list(it.argv) for it in items],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


def calibrate(samples: int = CAL_SAMPLES) -> list[float]:
    """Times of a fixed reference computation, which no program change moves.

    One sample is interpreted Python, numpy work on an array in cache and
    numpy work streamed through memory, the kinds of work the workloads do.
    ``run.py`` divides each pass time by the median sample taken after it,
    which cancels the drift of the shared machine's speed.
    """
    import numpy as np
    small = np.linspace(0.0, 1.0, CAL_ARRAY)
    big = np.linspace(0.0, 1.0, CAL_STREAM)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        x = small
        for _ in range(CAL_ARRAY_REPS):
            x = np.abs(x - 0.25) ** 1.5
        y = np.abs(big - 0.25) ** 1.5
        acc += float(np.sum(np.where(y > 0.1, y, 0.0)))
        times.append(time.perf_counter() - start)
    return times


def run_pass(items, tracer=None, smoke=False) -> dict:
    """Run the items once in a closed loop, then check every output."""
    import sobolev.cli
    import workloads
    execute = sobolev.cli.execute   # looked up after any tracer install
    outputs = []
    start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = execute(list(item.argv))
            except Exception:   # an uncaught error fails this item only
                code = None
                buf.write(traceback.format_exc())
        outputs.append((code, buf.getvalue()))
        if tracer is not None:
            tracer.end_item()
    wall = time.perf_counter() - start

    failures = []
    for item, (code, text) in zip(items, outputs):
        reason = workloads.check(item, code, text, smoke)
        if reason is not None:
            failures.append(f"{' '.join(item.argv)}: {reason}")
    return {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "values": [workloads.value_fields(text) for _, text in outputs],
        "numpy": sys.modules["numpy"].__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
