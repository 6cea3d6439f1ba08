"""Configuration-driven command line interface.

One JSON configuration document describes the group, the distance, the
submanifold(s) and a list of tasks; every subcommand runs its tasks from that
document and writes a machine-readable ``report.json`` (schema-versioned,
deterministic for a fixed seed), CSV traces suitable for plotting, and a
short human summary.  Exit status is nonzero iff a non-advisory verdict
fails or an error occurs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import CATALOG, GradedGroup, Subspace, catalog_group, load_group
from .errors import ConfigError, NilgeomError
from .manifold import (
    ParamMap,
    blowup_rates,
    classify_point,
    degree_map,
    parse_parametrization,
    q_n_max_degree,
)
from .measure import (
    area_check,
    ball_body,
    beta_constancy_check,
    box_body,
    coarea_check,
    covering_estimate,
    ellipsoid_body,
    federer_density,
    intrinsic_measure,
    section_concavity_check,
    spherical_factor,
    vertical_translation_check,
)
from .metrics import box_distance, calibrate_box, distance_from_spec, verify_distance_axioms
from .policy import NumericPolicy

SCHEMA_VERSION = 1

_CONFIG_KEYS = {
    "schema",
    "name",
    "group",
    "distance",
    "submanifold",
    "tasks",
    "seed",
    "out",
    "samples",
    "numeric_rtol",
}

_GROUP_KEYS = {"name", "layers", "brackets"}
_SUBMANIFOLD_KEYS = {"n", "exprs", "domain"}


class RunContext:
    """Lazily materialized objects shared by the tasks of one run."""

    def __init__(self, config: dict, out_dir: Path, seed: int, samples: int | None, quiet: bool):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.samples = samples
        self.quiet = quiet
        self.policy = NumericPolicy(rtol=float(config.get("numeric_rtol", 1e-9)))
        self._group = None
        self._distance = None
        self._chart = None

    @property
    def group(self) -> GradedGroup:
        if self._group is None:
            spec = self.config.get("group")
            if spec is None:
                raise ConfigError("configuration has no 'group' entry")
            if isinstance(spec, str):
                self._group = catalog_group(spec)
            elif isinstance(spec, dict):
                unknown = set(spec) - _GROUP_KEYS
                if unknown:
                    raise ConfigError(f"unknown group keys: {sorted(unknown)}")
                self._group = load_group(spec)
            else:
                raise ConfigError("'group' must be a catalog name or a definition object")
        return self._group

    @property
    def distance(self):
        if self._distance is None:
            spec = self.config.get("distance")
            if spec is None:
                raise ConfigError("configuration has no 'distance' entry")
            self._distance = distance_from_spec(self.group, spec)
        return self._distance

    @property
    def chart(self) -> ParamMap:
        if self._chart is None:
            spec = self.config.get("submanifold")
            if spec is None:
                raise ConfigError("configuration has no 'submanifold' entry")
            unknown = set(spec) - _SUBMANIFOLD_KEYS
            if unknown:
                raise ConfigError(f"unknown submanifold keys: {sorted(unknown)}")
            self._chart = parse_parametrization(
                spec["exprs"], int(spec["n"]), spec["domain"], self.group
            )
        return self._chart

    def task_samples(self, opts: dict, default: int) -> int:
        if "samples" in opts:
            return int(opts["samples"])
        if self.samples is not None:
            return self.samples
        return default

    def say(self, text: str) -> None:
        if not self.quiet:
            print(text)


def _subspace(ctx: RunContext, basis) -> Subspace:
    return Subspace(ctx.group, np.asarray(basis, dtype=float))


def _write_csv(path: Path, header: list, rows) -> str:
    """Write one CSV output; floats get 12 significant digits."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return path.name


def _radius_trace(trace) -> tuple[list, list]:
    """Header and rows of a Federer radius trace."""
    return ["radius", "ratio", "stderr", "hits"], [
        (t.radius, t.ratio, t.stderr, t.hits) for t in trace
    ]


# ---------------------------------------------------------------------------
# Task implementations; each returns (record dict, ok flag)
# ---------------------------------------------------------------------------

def task_validate_group(ctx: RunContext, opts: dict):
    g = ctx.group
    record = {
        "group": g.name,
        "q": g.q,
        "step": g.step,
        "layers": list(g.layers),
        "hom_dimension": g.hom_dimension,
        "q_n": {str(n): q_n_max_degree(g, n) for n in range(1, g.q + 1)},
        "valid": True,
    }
    return record, True


def task_catalog(ctx: RunContext, opts: dict):
    rows = []
    for name in ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)"]:
        g = catalog_group(name)
        rows.append(
            {
                "name": name,
                "q": g.q,
                "step": g.step,
                "layers": list(g.layers),
                "Q": g.hom_dimension,
                "q_n": [q_n_max_degree(g, n) for n in range(1, g.q + 1)],
            }
        )
    return {"groups": rows, "distances": ["box", "cygan_koranyi", "euclidean_ball", "multiradial"]}, True


def task_analyze_point(ctx: RunContext, opts: dict):
    a = classify_point(ctx.chart, np.asarray(opts["y"], dtype=float), ctx.policy)
    record = {
        "y": [float(v) for v in a.y],
        "p": [float(v) for v in a.p],
        "degree": a.degree,
        "alpha": list(a.alpha),
        "regular": a.regular,
        "classification": a.classification,
        "q_n": a.q_n,
        "characteristic": a.characteristic,
        "htangent_basis": None
        if a.htangent is None
        else [[float(v) for v in row] for row in a.htangent.orthonormal_basis().T],
        "notes": list(a.notes),
    }
    return record, True


def task_degree_map(ctx: RunContext, opts: dict):
    grid = opts.get("grid", 9)
    result = degree_map(ctx.chart, grid, ctx.policy)
    csv_name = _write_csv(
        ctx.out_dir / "degree_map.csv",
        [f"y{i+1}" for i in range(ctx.chart.n)] + ["degree", "classification"],
        [list(a.y) + [a.degree, a.classification] for a in result.points],
    )
    record = {
        "max_degree": result.max_degree,
        "low_degree_fraction": result.low_degree_fraction,
        "cells": len(result.points),
        "failures": len(result.failures),
        "csv": csv_name,
    }
    return record, True


def task_spherical_factor(ctx: RunContext, opts: dict):
    space = _subspace(ctx, np.asarray(opts["subspace"], dtype=float).T)
    est = spherical_factor(
        ctx.distance, space, samples=ctx.task_samples(opts, 200_000), seed=ctx.seed
    )
    return {"beta": est.as_dict()}, True


def task_federer_density(ctx: RunContext, opts: dict):
    est, trace = federer_density(
        ctx.chart,
        ctx.distance,
        np.asarray(opts["y0"], dtype=float),
        radii=opts.get("radii"),
        centers_per_radius=int(opts.get("centers_per_radius", 8)),
        samples=ctx.task_samples(opts, 40_000),
        seed=ctx.seed,
        policy=ctx.policy,
    )
    csv_name = _write_csv(ctx.out_dir / "federer_trace.csv", *_radius_trace(trace))
    return {"theta": est.as_dict(), "trace_csv": csv_name}, True


def task_area_check(ctx: RunContext, opts: dict):
    report = area_check(
        ctx.chart,
        ctx.distance,
        region=opts.get("region"),
        probes=[np.asarray(p, dtype=float) for p in opts.get("probes", [])],
        theta_tolerance=float(opts.get("tolerance", 0.05)),
        covering_delta=opts.get("covering_delta"),
        samples=ctx.task_samples(opts, 40_000),
        seed=ctx.seed,
        policy=ctx.policy,
    )
    for key, trace in report.traces.items():
        table = (["delta", "value"], trace) if key == "covering" else _radius_trace(trace)
        _write_csv(ctx.out_dir / f"area_{key}_trace.csv", *table)
    return report.as_dict(), report.passed


def task_coarea_check(ctx: RunContext, opts: dict):
    report = coarea_check(
        ctx.group,
        int(opts.get("graph_coord", 1)),
        str(opts.get("g", "0")),
        str(opts.get("u", "1")),
        opts["domain"],
        resolution=int(opts.get("resolution", 32)),
        tolerance=float(opts.get("tolerance", 0.02)),
    )
    return report.as_dict(), report.passed


def task_blowup_check(ctx: RunContext, opts: dict):
    y0 = np.asarray(opts["y0"], dtype=float)
    ray = np.asarray(opts.get("ray", np.ones(ctx.chart.n)), dtype=float)
    report = blowup_rates(ctx.chart, y0, ray, scales=opts.get("scales"), policy=ctx.policy)
    record = {
        "case": report.case,
        "advisory": report.advisory,
        "tangent_rows": list(report.tangent_rows),
        "rates": [
            {
                "index": r.index,
                "expected_exponent": r.expected_exponent,
                "in_tangent_set": r.in_tangent_set,
                "identically_zero": r.identically_zero,
                "fitted_slope": r.fitted_slope,
                "passed": r.passed,
            }
            for r in report.rates
        ],
        "passed": report.passed,
    }
    return record, report.passed or report.advisory


def task_concavity_check(ctx: RunContext, opts: dict):
    body_spec = opts.get("body", {"kind": "ball"})
    kind = body_spec.get("kind", "ball")
    if kind == "ball":
        body = ball_body(ctx.distance)
    elif kind == "box":
        body = box_body(body_spec.get("halfwidths", [1.0] * ctx.group.q))
    elif kind == "ellipsoid":
        body = ellipsoid_body(body_spec.get("matrix", np.eye(ctx.group.q)))
    else:
        raise ConfigError(f"unknown body kind {kind!r}")
    space = _subspace(ctx, np.asarray(opts["subspace"], dtype=float).T)
    report = section_concavity_check(
        body,
        space,
        segments=int(opts.get("segments", 200)),
        samples=ctx.task_samples(opts, 20_000),
        seed=ctx.seed,
    )
    return report.as_dict(), report.passed


def task_translation_check(ctx: RunContext, opts: dict):
    space = _subspace(ctx, np.asarray(opts["subspace"], dtype=float).T)
    report = vertical_translation_check(
        ctx.group,
        space,
        np.asarray(opts.get("p", np.zeros(ctx.group.q)), dtype=float),
        box=opts.get("box"),
        samples=ctx.task_samples(opts, 100_000),
        seed=ctx.seed,
    )
    return report.as_dict(), report.passed


def task_beta_constancy(ctx: RunContext, opts: dict):
    family = [_subspace(ctx, np.asarray(b, dtype=float).T) for b in opts["family"]]
    report = beta_constancy_check(
        ctx.distance, family, samples=ctx.task_samples(opts, 200_000), seed=ctx.seed
    )
    return report.as_dict(), report.passed


def task_verify_distance(ctx: RunContext, opts: dict):
    report = verify_distance_axioms(
        ctx.distance, samples=ctx.task_samples(opts, 100_000), seed=ctx.seed
    )
    return report.as_dict(), report.passed


def task_calibrate_box(ctx: RunContext, opts: dict):
    cal = calibrate_box(ctx.group, samples=ctx.task_samples(opts, 20_000), seed=ctx.seed)
    return {
        "epsilons": list(cal.epsilons),
        "verification": cal.report.as_dict(),
    }, True


def task_intrinsic_measure(ctx: RunContext, opts: dict):
    est = intrinsic_measure(
        ctx.chart,
        region=opts.get("region"),
        quadrature=opts.get("quadrature", "tensor"),
        resolution=int(opts.get("resolution", 64)),
        samples=ctx.task_samples(opts, 200_000),
        seed=ctx.seed,
        policy=ctx.policy,
    )
    return {"mu": est.as_dict()}, True


def task_covering(ctx: RunContext, opts: dict):
    est = covering_estimate(
        ctx.chart,
        ctx.distance,
        region=opts.get("region", ctx.chart.domain),
        exponent=float(opts["exponent"]),
        delta=float(opts["delta"]),
        cloud_size=int(opts.get("cloud_size", 4000)),
        seed=ctx.seed,
    )
    return {"covering": est.as_dict()}, True


def task_prop_suite(ctx: RunContext, opts: dict):
    groups = opts.get("groups", ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "engel", "free2(3)"])
    samples = ctx.task_samples(opts, 10_000)
    tol = float(opts.get("tolerance", 1e-9))
    rows = []
    ok = True
    for name in groups:
        g = catalog_group(name) if isinstance(name, str) else load_group(name)
        res = group_property_residuals(g, samples=samples, seed=ctx.seed)
        passed = max(res.values()) < tol
        ok = ok and passed
        rows.append({"group": g.name, **res, "passed": passed})
    return {"tolerance": tol, "samples": samples, "groups": rows}, ok


def group_property_residuals(group: GradedGroup, samples: int, seed: int) -> dict:
    """Max residuals of associativity, inverses, dilation automorphism and
    frame homogeneity over a random sample."""
    from .mc import stream

    rng = stream(seed, f"props:{group.name}")
    q = group.q
    x, y, z = (rng.uniform(-1.0, 1.0, (samples, q)) for _ in range(3))
    assoc = float(
        np.max(np.abs(group.product(group.product(x, y), z) - group.product(x, group.product(y, z))))
    )
    inv = float(np.max(np.abs(group.product(x, -x))))
    r = float(rng.uniform(0.5, 2.0))
    dil = float(
        np.max(np.abs(group.dilate(r, group.product(x, y)) - group.product(group.dilate(r, x), group.dilate(r, y))))
    )
    count = min(samples, 2000)
    frames = group.frame(x[:count])
    frames_dil = group.frame(group.dilate(r, x[:count]))
    deg = group.degrees
    power = deg[:, None] - deg[None, :]
    frame_res = float(np.max(np.abs(frames_dil - frames * r**power[None, :, :])))
    return {
        "associativity": assoc,
        "inverse": inv,
        "dilation_automorphism": dil,
        "frame_homogeneity": frame_res,
    }


TASKS = {
    "validate-group": task_validate_group,
    "catalog": task_catalog,
    "analyze-point": task_analyze_point,
    "degree-map": task_degree_map,
    "spherical-factor": task_spherical_factor,
    "federer-density": task_federer_density,
    "area-check": task_area_check,
    "coarea-check": task_coarea_check,
    "blowup-check": task_blowup_check,
    "concavity-check": task_concavity_check,
    "translation-check": task_translation_check,
    "beta-constancy": task_beta_constancy,
    "verify-distance": task_verify_distance,
    "calibrate-box": task_calibrate_box,
    "intrinsic-measure": task_intrinsic_measure,
    "covering-estimate": task_covering,
    "prop-suite": task_prop_suite,
}


# opts a task cannot run without, and opts that must be (positive) numbers
_REQUIRED_OPTS = {
    "analyze-point": ("y",),
    "spherical-factor": ("subspace",),
    "federer-density": ("y0",),
    "coarea-check": ("domain",),
    "blowup-check": ("y0",),
    "concavity-check": ("subspace",),
    "translation-check": ("subspace",),
    "beta-constancy": ("family",),
    "covering-estimate": ("exponent", "delta"),
}
_NUMBER_OPTS = {"covering-estimate": ("exponent",)}
_POSITIVE_OPTS = {"covering-estimate": ("delta",), "area-check": ("covering_delta",)}
_SAMPLES_OPTS = ("federer-density", "area-check")
_QUADRATURES = ("tensor", "mc")


def _finite_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) and bool(np.isfinite(value))


def _opts_problem(name: str, opts: dict) -> str | None:
    """Why a task cannot run on its merged opts, or None."""
    missing = [key for key in _REQUIRED_OPTS.get(name, ()) if opts.get(key) is None]
    if missing:
        return f"{name} needs " + ", ".join(f"opts.{key}" for key in missing)
    for keys, positive in ((_NUMBER_OPTS, False), (_POSITIVE_OPTS, True)):
        for key in keys.get(name, ()):
            value = opts.get(key)
            if value is None:
                continue
            if not _finite_number(value):
                return f"{name}: opts.{key} must be a finite number, got {value!r}"
            if positive and value <= 0:
                return f"{name}: opts.{key} must be positive, got {value!r}"
    if name in _SAMPLES_OPTS and "samples" in opts:
        value = opts["samples"]
        if not _finite_number(value) or value < 1 or value != int(value):
            return f"{name}: opts.samples must be a positive integer, got {value!r}"
    radii = opts.get("radii")
    if name == "federer-density" and radii is not None:
        if not isinstance(radii, list) or not radii or not all(_finite_number(r) and r > 0 for r in radii):
            return f"federer-density: opts.radii must be a non-empty list of positive numbers, got {radii!r}"
    if name == "intrinsic-measure" and opts.get("quadrature", "tensor") not in _QUADRATURES:
        return f"intrinsic-measure: unknown quadrature {opts['quadrature']!r}, expected one of {list(_QUADRATURES)}"
    return None


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read configuration: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"configuration is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for i, task in enumerate(config.get("tasks", [])):
        if not isinstance(task, dict) or "task" not in task:
            raise ConfigError(f"task {i} must be an object with a 'task' field")
        if task["task"] not in TASKS:
            raise ConfigError(f"task {i}: unknown task {task['task']!r}")
        extra = set(task) - {"task", "opts"}
        if extra:
            raise ConfigError(f"task {i}: unknown keys {sorted(extra)}")
    return config


def run(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    samples: int | None = None,
    only_task: str | None = None,
    cli_opts: dict | None = None,
    quiet: bool = False,
) -> int:
    """Execute the configured tasks; returns the process exit status."""
    config = load_config(config_path)
    out = Path(out_dir or config.get("out", "nilgeom-out"))
    out.mkdir(parents=True, exist_ok=True)
    run_seed = seed if seed is not None else int(config.get("seed", 0))
    ctx = RunContext(config, out, run_seed, samples, quiet)

    tasks = list(config.get("tasks", []))
    if only_task is not None:
        tasks = [t for t in tasks if t["task"] == only_task]
        if not tasks:
            tasks = [{"task": only_task, "opts": cli_opts or {}}]

    # every task's opts (the file's, then the command line's) are checked
    # before any task runs, with the run's sample count where opts set none
    jobs = []
    for task in tasks:
        opts = {**task.get("opts", {}), **(cli_opts or {})}
        checked = opts if samples is None else {"samples": samples, **opts}
        jobs.append((task["task"], opts, _opts_problem(task["task"], checked)))

    records = []
    timings = {}
    overall_ok = True
    for index, (name, opts, problem) in enumerate(jobs):
        started = time.monotonic()
        try:
            if problem is not None:
                raise ConfigError(problem)
            record, ok = TASKS[name](ctx, opts)
            status = "pass" if ok else "fail"
        except Exception as err:
            # every task failure becomes an error record and the run goes on;
            # an error outside the package's hierarchy is a bug or unchecked
            # input, so its traceback goes to stderr as well
            if not isinstance(err, NilgeomError):
                traceback.print_exc()
            record = {"error": type(err).__name__, "message": str(err)}
            ok, status = False, "error"
        elapsed = time.monotonic() - started
        overall_ok = overall_ok and ok
        records.append({"index": index, "task": name, "status": status, "result": record})
        timings[f"{index}:{name}"] = round(elapsed, 3)
        ctx.say(f"[{status.upper():5}] {name} ({elapsed:.2f}s)")

    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]
    report = {
        "schema": SCHEMA_VERSION,
        "name": config.get("name", Path(config_path).stem),
        "config_digest": digest,
        "seed": run_seed,
        "status": "pass" if overall_ok else "fail",
        "tasks": records,
        # everything time-dependent lives under "meta" so the rest of the
        # report is byte-identical across reruns with the same seed
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "version": __version__,
            "task_seconds": timings,
        },
    }
    report_path = out / "report.json"
    with report_path.open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    summary = out / "summary.txt"
    with summary.open("w") as fh:
        fh.write(f"nilgeom report: {report['name']} (seed {run_seed})\n")
        for rec in records:
            secs = timings[f"{rec['index']}:{rec['task']}"]
            fh.write(f"  {rec['status']:5} {rec['task']} [{secs}s]\n")
        fh.write(f"overall: {report['status']}\n")
    ctx.say(f"report written to {report_path}")
    return 0 if overall_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilgeom",
        description="calculus and measure verification on graded nilpotent groups",
    )
    parser.add_argument("--version", action="version", version=f"nilgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to the JSON configuration document")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

    run_p = sub.add_parser("run", help="run every task in the configuration")
    add_common(run_p)

    for name in TASKS:
        p = sub.add_parser(name, help=f"run the {name} task")
        add_common(p)
        if name == "analyze-point":
            p.add_argument("--y", type=float, nargs="+", default=None)
        if name == "federer-density":
            p.add_argument("--y0", type=float, nargs="+", default=None)

    args = parser.parse_args(argv)
    cli_opts = {}
    if getattr(args, "y", None) is not None:
        cli_opts["y"] = list(args.y)
    if getattr(args, "y0", None) is not None:
        cli_opts["y0"] = list(args.y0)

    if args.command == "catalog" and args.config is None:
        # catalog needs no configuration
        rows, _ = task_catalog(None, {})
        for row in rows["groups"]:
            print(
                f"{row['name']:>14}  q={row['q']:<2} step={row['step']} Q={row['Q']:<2} "
                f"Q_n={row['q_n']}"
            )
        print("distances:", ", ".join(rows["distances"]))
        return 0

    if args.config is None:
        parser.error("--config is required for this command")
    try:
        return run(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            samples=args.samples,
            only_task=None if args.command == "run" else args.command,
            cli_opts=cli_opts or None,
            quiet=args.quiet,
        )
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
