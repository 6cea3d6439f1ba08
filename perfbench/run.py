"""nilgeom benchmark: one closed-loop workload per run, end to end or traced.

    python3 perfbench/run.py --workload highstep --seed 1 --seconds 36 --trace 0

Run from the root of a nilgeom checkout; the library is imported from
``src/``.  One caller in one process runs the workload's three stages in a
loop for about ``--seconds``, each task starting when the previous one
returned.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  The last line
of standard output is the JSON result; see perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# BLAS threads are capped at the CPUs this process may use before numpy
# loads; a larger setting from the environment is lowered, never raised.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
WORKLOADS = ("highstep", "estimators", "sections")
DEFAULT_SEED = 0
# Set-up is timed in fresh interpreters: at least SETUP_SAMPLES of them, more
# while the sampling has taken under SETUP_SECONDS (cheap set-ups are
# noisier), at most SETUP_MAX.  setup_s is the median at reference speed.
SETUP_SAMPLES, SETUP_SECONDS, SETUP_MAX = 3, 5.0, 15

# Every workload reports the same metric names, so its three timed stages
# are task1_s..task3_s; the run prints each stage's own name beside them.
STAGE_METRICS = ("task1_s", "task2_s", "task3_s")

# Times are reported at reference speed: scaled so that the reference kernel
# would take REF_SECONDS (about its time on a 2-vCPU Xeon VM).
REF_SECONDS = 0.02

# A fresh interpreter times import plus set-up, then the reference kernel.
SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
seconds = time.perf_counter() - t0
import run
print(seconds, run.reference_seconds())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's default-seed observations as the reference",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_VARS},
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, when its library can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_child(name: str, seed: int, out_dir: Path) -> tuple[float, float]:
    """Seconds of one set-up in a fresh interpreter, and at reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), name, str(seed), str(out_dir)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    seconds, ref = map(float, proc.stdout.split()[-2:])
    return seconds, seconds * REF_SECONDS / ref


def reference_kernel() -> float:
    """Seconds taken by a fixed numpy and pure-Python kernel that does not use
    nilgeom, so it tracks how fast the machine runs at the moment."""
    import numpy as np

    a = np.random.default_rng(0).random((2048, 7))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(24):
        b = a[:, :, None] * a[:, None, :]
        acc += float(np.max(b.sum(axis=1) + np.sqrt(a)))
        acc += sum(i * 0.5 for i in range(300))
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median of five reference kernel times: one call can be slowed by a
    hiccup of a few milliseconds, or, the first in a fresh interpreter, by
    cold caches."""
    return statistics.median(reference_kernel() for _ in range(5))


def passes(stages, stage_call, budget: float, first: dict | None):
    """Closed loop: run passes back to back while the next one is expected to
    end within half a pass of `budget` seconds (at least one pass), so that
    runs last `budget` seconds on average whatever the pass length.

    Returns (stage seconds, stage seconds at reference speed, outcome) per
    pass.  The reference kernel is timed before the first stage and after
    each stage (`reference_seconds`); a stage's time at reference speed is
    its time scaled by REF_SECONDS over the mean of the two kernel times
    around it.  Every pass
    after the first must observe exactly what the first one did (`first`,
    when given, stands for the first pass).
    """
    from checks import Outcome

    results = []
    started = time.perf_counter()
    elapsed = 0.0
    while not results or elapsed * (len(results) + 0.5) / len(results) <= budget:
        out = Outcome()
        times, scaled = [], []
        ref = reference_seconds()
        for stage in stages:
            t0 = time.perf_counter()
            stage_call(stage)(out)
            times.append(time.perf_counter() - t0)
            ref_after = reference_seconds()
            scaled.append(times[-1] * REF_SECONDS / ((ref + ref_after) / 2))
            ref = ref_after
        if first is not None:
            out.attempted += 1
            if out.observed != first:
                keys = sorted(k for k in first.keys() | out.observed.keys()
                              if first.get(k) != out.observed.get(k))
                out.failures.append(f"determinism: pass differs from the first at {keys[:5]}")
        first = out.observed if first is None else first
        results.append((times, scaled, out))
        elapsed = time.perf_counter() - started
    return results


def check_reference(name: str, observed: dict, write: bool) -> list[str]:
    from checks import compare

    path = REFERENCE / f"{name}.json"
    if write:
        REFERENCE.mkdir(exist_ok=True)
        lines = [f" {json.dumps(k)}: {json.dumps(observed[k])}" for k in sorted(observed)]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        return []
    if not path.exists():
        return [f"reference: {path.name} missing"]
    diff = compare(json.loads(path.read_text()), observed)
    return [f"reference: {d}" for d in diff]


def layer_metrics(tracer, setup_spans, traced_walls, plain_walls) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up plus one traced pass, as
    name -> (value, unit).

    The first `setup_spans` spans are the set-up's; the others are spread
    over the traced passes.  The pass times give the tracing overhead; they
    are at reference speed.
    """
    from tracing import LAYERS, TARGETS

    runs = len(traced_walls)
    setup = tracer.per_name(0, setup_spans)
    stats = {
        name: {stat: setup[name][stat] + value / runs for stat, value in s.items()}
        for name, s in tracer.per_name(setup_spans).items()
    }
    metrics: dict[str, tuple[float, str]] = {}
    units = {"calls": "count", "rows": "count", "evals": "count", "busy_s": "s", "self_s": "s"}
    for module, path, _, wanted in TARGETS:
        name = f"{module}.{path.split('.')[-1]}"
        s = stats[name]
        for stat in wanted:
            value = s["rows" if stat == "evals" else stat]
            metrics[f"{name}.{stat}"] = (value, units[stat])
    for layer in LAYERS:
        own = sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_s"] = (own, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    evals = stats["algebra.product"]["calls"] + stats["algebra.product_derivative_y"]["calls"]
    metrics["algebra.bracket_per_eval"] = (ratio(stats["algebra.bracket"]["calls"], evals), "ratio")
    drawn = stats["mc.uniform_ball"]["rows"] + stats["mc.uniform_box"]["rows"]
    metrics["mc.rows_per_stream"] = (ratio(drawn, stats["mc.stream"]["calls"]), "ratio")
    cover = stats["measure.covering_estimate"]
    metrics["measure.covering_estimate.useful_ratio"] = (
        ratio(cover["ok_rows"], cover["rows"]), "ratio")
    fed = c["measure.federer_density"]
    metrics["measure.federer_density.hit_ratio"] = (ratio(fed["hits"], fed["draws"]), "ratio")
    conc = c["measure.section_concavity_check"]
    metrics["measure.section_concavity_check.check_ratio"] = (
        ratio(conc["checks"], conc["checks"] + conc["skipped"]), "ratio")
    fac = c["measure.spherical_factor"]
    metrics["measure.spherical_factor.search_ratio"] = (
        ratio(fac["search"], fac["search"] + fac["shortcut"]), "ratio")
    metrics["algebra.product.under_concavity"] = (
        tracer.count_under("algebra.product", "measure.section_concavity_check") / runs, "count")
    metrics["trace.overhead_s"] = (
        statistics.mean(traced_walls) - statistics.mean(plain_walls), "s")
    metrics["trace.absent"] = (float(len(tracer.absent)), "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nilgeom" / "__init__.py").is_file():
        print(f"error: no nilgeom sources under {SRC}; run from a nilgeom checkout",
              file=sys.stderr)
        return 2
    out_dir = OUT / args.workload

    # -- set-up: the workload for this process, then timed fresh interpreters ----
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.build(args.workload, args.seed, out_dir)
    setups = []
    started = time.perf_counter()
    while len(setups) < SETUP_SAMPLES or (
        time.perf_counter() - started < SETUP_SECONDS and len(setups) < SETUP_MAX
    ):
        setups.append(setup_child(args.workload, args.seed, out_dir))
    raw_setups, scaled_setups = zip(*setups)

    env = environment()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = passes(workload.stages, lambda stage: getattr(workload, stage), budget, None)
    first = plain[0][2].observed
    # the reference holds the default seed's observations; a workload whose
    # inputs do not depend on the seed is compared on every run
    referenced = args.seed == DEFAULT_SEED or not workload.seeded
    failures = check_reference(args.workload, first, args.write_reference) if referenced else []

    traced = []
    if args.trace:
        from tracing import LAYERS, Tracer

        tracer = Tracer()
        build = tracer.span("task.setup", workloads.build)
        tracer.install()
        try:
            # set-up once more under the tracer, so that its calls
            # (calibrate_box, load_group, ...) are in the layer metrics
            workload = build(args.workload, args.seed, out_dir)
            setup_spans = len(tracer.name)
            spans = {stage: tracer.span(f"task.{stage}", getattr(workload, stage))
                     for stage in workload.stages}
            traced = passes(workload.stages, spans.__getitem__, budget, first)
        finally:
            tracer.uninstall()
        tracer.save(OUT / f"spans-{args.workload}.npz")

    for _, _, out in plain + traced:
        failures.extend(out.failures)
    attempted = sum(out.attempted for _, _, out in plain + traced) + referenced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = [list(ts) for ts in zip(*(times for times, _, _ in plain))]
    scaled = [list(ts) for ts in zip(*(times for _, times, _ in plain))]
    outcome = plain[0][2]

    # -- report -------------------------------------------------------------------
    print(f"nilgeom benchmark: workload={args.workload} seed={args.seed} "
          f"passes={len(plain)}+{len(traced)} traced")
    print("environment: " + json.dumps(env))
    print(f"BLAS threads capped at nproc={NPROC} ({', '.join(BLAS_VARS)})")
    print("pass seconds: " + json.dumps({
        **{m: [round(t, 4) for t in ts] for m, ts in zip(STAGE_METRICS, raw)},
        "setup": [round(t, 4) for t in raw_setups],
    }))
    print("pass seconds at reference speed: " + json.dumps({
        **{m: [round(t, 4) for t in ts] for m, ts in zip(STAGE_METRICS, scaled)},
        "setup": [round(t, 4) for t in scaled_setups],
    }))
    for note, value in outcome.notes.items():
        print(f"note: {note} = {value}")
    for problem in failures:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = layer_metrics(tracer, setup_spans, [sum(times) for _, times, _ in traced],
                                [sum(t) for t in zip(*scaled)])
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent))
        top = max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_s"][0])
        print(f"largest layer by self time: {top}")
    else:
        # Stage times are means over the passes at reference speed.  On a shared
        # 2-vCPU Xeon VM the speed switched between two levels about 1.5x
        # apart in episodes of seconds to minutes; scaling by the reference
        # kernel removes most of that, and the mean of a few passes follows
        # what is left more smoothly than their median, which jumps between
        # the levels.
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "wall_s": (sum(statistics.mean(ts) for ts in scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "mc_rel_stderr": (outcome.rms_rel_error(), "ratio"),
        }
        for metric, ts in zip(STAGE_METRICS, scaled):
            metrics[metric] = (statistics.mean(ts), "s")
        raw_means = {m: statistics.mean(ts) for m, ts in zip(STAGE_METRICS, raw)}
        raw_means["wall_s"] = sum(raw_means.values())
        raw_means["setup_s"] = statistics.median(raw_setups)
        aliases = {m: f"{stage}_s" for m, stage in zip(STAGE_METRICS, workload.stages)}
        print(f"{'metric':<14} {'value':>12}  unit  (raw seconds)")
        for name, (value, unit) in metrics.items():
            extra = f"  ({raw_means[name]:.6g})" if name in raw_means else ""
            alias = f"  {aliases[name]}" if name in aliases else ""
            print(f"{name:<14} {value:12.6g}  {unit}{extra}{alias}")
        print(f"{'failed_frac':<14} {len(failures) / attempted:12.6g}  ratio  "
              f"({len(failures)} of {attempted} tasks)")

    OUT.mkdir(exist_ok=True)
    (OUT / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
