"""Kernel sweep: the ROADMAP baseline table, regenerated in one command.

    python3 perfbench/kernels.py

Times the group product, ``measure.frame_batch`` and the box distance at
16,384 points on heisenberg(1), heisenberg(2), h_type, engel, free2(4) and
the step-6 filiform group.  Prints a table in milliseconds (median of
five timed calls after one warm-up call) and, as the last line, a
JSON object whose metrics are named ``kernel.<op>.<group>.rows_per_s`` like
the benchmark's per-layer metrics.  This is not a gated workload.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import run  # caps the BLAS threads before numpy loads

sys.path[:0] = [str(run.SRC)]

import numpy as np  # noqa: E402

import nilgeom as ng  # noqa: E402
from nilgeom import measure  # noqa: E402
from workloads import FILIFORM6  # noqa: E402

ROWS = 16_384
REPEATS = 5
GROUPS = {
    "heisenberg1": lambda: ng.heisenberg(1),
    "heisenberg2": lambda: ng.heisenberg(2),
    "h_type": ng.h_type,
    "engel": ng.engel,
    "free2_4": lambda: ng.free2(4),
    "filiform6": lambda: ng.load_group(FILIFORM6),
}


def timed(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    rng = np.random.default_rng(0)
    metrics = {}
    print(f"{'group':<12} {'product':>10} {'frame_batch':>12} {'distance':>10}   (ms, {ROWS} points)")
    for label, make in GROUPS.items():
        g = make()
        x, y = rng.uniform(-1.0, 1.0, (2, ROWS, g.q))
        dist = ng.box_distance(g, [1.0] * g.step)
        ops = {
            "product": lambda: g.product(x, y),
            "frame_batch": lambda: measure.frame_batch(g, x),
            "distance": lambda: dist.distance(x, y),
        }
        row = []
        for op, fn in ops.items():
            seconds = timed(fn, REPEATS)
            metrics[f"kernel.{op}.{label}.rows_per_s"] = {"value": ROWS / seconds, "unit": "1/s"}
            row.append(seconds * 1e3)
        print(f"{label:<12} {row[0]:10.3f} {row[1]:12.3f} {row[2]:10.3f}")
    print("environment: " + json.dumps(run.environment()))
    print(json.dumps({"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
