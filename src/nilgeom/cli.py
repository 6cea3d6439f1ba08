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
import dataclasses
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import GradedGroup, Subspace, catalog_group, load_group
from .errors import ArityError, BadDimensions, ConfigError, NilgeomError, ParseError
from .exprparse import parse_expression
from .manifold import (
    ParamMap,
    blowup_rates,
    classify_point,
    degree_map,
    parse_parametrization,
    q_n_max_degree,
)
from .measure import (
    RadiusTracePoint,
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
from .metrics import calibrate_box, distance_from_spec, verify_distance_axioms
from .policy import DEFAULT_RTOL, NumericPolicy

SCHEMA_VERSION = 1

_CONFIG_KEYS = {
    "schema", "name", "group", "distance", "submanifold", "tasks", "seed", "out", "samples", "numeric_rtol",
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
        self.policy = NumericPolicy(rtol=float(config.get("numeric_rtol", DEFAULT_RTOL)))
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
            self._chart = parse_parametrization(
                spec["exprs"], int(spec["n"]), spec["domain"], self.group
            )
        return self._chart

    def say(self, text: str) -> None:
        if not self.quiet:
            print(text)


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
    return [f.name for f in dataclasses.fields(RadiusTracePoint)], [dataclasses.astuple(t) for t in trace]


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
    a = classify_point(ctx.chart, opts["y"], ctx.policy)
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
    result = degree_map(ctx.chart, opts["grid"], ctx.policy)
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
    est = spherical_factor(
        ctx.distance, opts["subspace"], samples=opts["samples"], seed=ctx.seed, policy=ctx.policy
    )
    return {"beta": est.as_dict()}, True


def task_federer_density(ctx: RunContext, opts: dict):
    est, trace = federer_density(ctx.chart, ctx.distance, **opts, seed=ctx.seed, policy=ctx.policy)
    csv_name = _write_csv(ctx.out_dir / "federer_trace.csv", *_radius_trace(trace))
    return {"theta": est.as_dict(), "trace_csv": csv_name}, True


def task_area_check(ctx: RunContext, opts: dict):
    report = area_check(
        ctx.chart, ctx.distance, opts["region"], opts["probes"], theta_tolerance=opts["tolerance"],
        covering_delta=opts["covering_delta"], samples=opts["samples"], seed=ctx.seed, policy=ctx.policy,
    )
    for key, trace in report.traces.items():
        table = (["delta", "value"], trace) if key == "covering" else _radius_trace(trace)
        _write_csv(ctx.out_dir / f"area_{key}_trace.csv", *table)
    return report.as_dict(), report.passed


def task_coarea_check(ctx: RunContext, opts: dict):
    report = coarea_check(
        ctx.group, opts["graph_coord"], opts["g"], opts["u"], opts["domain"],
        resolution=opts["resolution"], tolerance=opts["tolerance"],
    )
    return report.as_dict(), report.passed


def task_blowup_check(ctx: RunContext, opts: dict):
    report = blowup_rates(ctx.chart, **opts, policy=ctx.policy)
    record = {**dataclasses.asdict(report), "passed": report.passed}
    for rate in record["rates"]:
        del rate["ratios"]
    return record, report.passed or report.advisory


def task_concavity_check(ctx: RunContext, opts: dict):
    report = section_concavity_check(
        opts["body"], opts["subspace"], segments=opts["segments"], samples=opts["samples"], seed=ctx.seed
    )
    return report.as_dict(), report.passed or report.advisory


def task_translation_check(ctx: RunContext, opts: dict):
    report = vertical_translation_check(
        ctx.group, opts["subspace"], opts["p"], box=opts["box"], samples=opts["samples"], seed=ctx.seed,
        policy=ctx.policy,
    )
    return report.as_dict(), report.passed


def task_beta_constancy(ctx: RunContext, opts: dict):
    report = beta_constancy_check(ctx.distance, **opts, seed=ctx.seed, policy=ctx.policy)
    return report.as_dict(), report.passed or report.advisory


def task_verify_distance(ctx: RunContext, opts: dict):
    report = verify_distance_axioms(ctx.distance, **opts, seed=ctx.seed)
    return report.as_dict(), report.passed


def task_calibrate_box(ctx: RunContext, opts: dict):
    cal = calibrate_box(ctx.group, **opts, seed=ctx.seed)
    return {"epsilons": list(cal.epsilons), "verification": cal.report.as_dict()}, True


def task_intrinsic_measure(ctx: RunContext, opts: dict):
    est = intrinsic_measure(ctx.chart, **opts, seed=ctx.seed, policy=ctx.policy)
    return {"mu": est.as_dict()}, True


def task_covering(ctx: RunContext, opts: dict):
    est = covering_estimate(ctx.chart, ctx.distance, **opts, seed=ctx.seed)
    return {"covering": est.as_dict()}, True


def task_prop_suite(ctx: RunContext, opts: dict):
    rows = []
    for g in opts["groups"]:
        res = group_property_residuals(g, samples=opts["samples"], seed=ctx.seed)
        rows.append({"group": g.name, **res, "passed": max(res.values()) < opts["tolerance"]})
    ok = all(row["passed"] for row in rows)
    return {"tolerance": opts["tolerance"], "samples": opts["samples"], "groups": rows}, ok


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


# ---------------------------------------------------------------------------
# Opts: each task's opts with their defaults, and one kind per opt name
# ---------------------------------------------------------------------------

REQUIRED = object()
# an opt whose default is None goes to the library as None, its own default
OPTS = {
    "validate-group": {},
    "catalog": {},
    "analyze-point": {"y": REQUIRED},
    "degree-map": {"grid": 9},
    "spherical-factor": {"subspace": REQUIRED, "samples": 200_000},
    "federer-density": {"y0": REQUIRED, "radii": None, "centers_per_radius": 8, "samples": 40_000},
    "area-check": {
        "probes": REQUIRED, "region": None, "tolerance": 0.05, "covering_delta": None, "samples": 40_000,
    },
    "coarea-check": {
        "domain": REQUIRED, "graph_coord": 1, "g": "0", "u": "1", "resolution": 32, "tolerance": 0.02,
    },
    "blowup-check": {"y0": REQUIRED, "ray": None, "scales": None},
    "concavity-check": {"subspace": REQUIRED, "body": {"kind": "ball"}, "segments": 200, "samples": 20_000},
    "translation-check": {"subspace": REQUIRED, "p": None, "box": None, "samples": 100_000},
    "beta-constancy": {"family": REQUIRED, "samples": 200_000},
    "verify-distance": {"samples": 100_000},
    "calibrate-box": {"samples": 20_000},
    "intrinsic-measure": {"region": None, "quadrature": "tensor", "resolution": 64, "samples": 200_000},
    "covering-estimate": {"exponent": REQUIRED, "delta": REQUIRED, "region": None, "cloud_size": 4000},
    "prop-suite": {"groups": ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "engel", "free2(3)"],
                   "samples": 10_000, "tolerance": 1e-9},
}

# The kind of every opt and top-level value, by name.  An array kind names
# its shape: n is the chart's dimension, q the group's, d the task
# subspace's, and k any size from 1.
KINDS = {
    "y": "n-vector", "y0": "n-vector", "ray": "nonzero n-vector", "region": "n×2 box", "probes": "k×n array",
    "p": "q-vector", "domain": "q×2 box", "box": "d×2 box",
    **dict.fromkeys(["samples", "centers_per_radius", "cloud_size", "graph_coord", "resolution", "segments"],
                    "positive integer"),
    "tolerance": "positive number", "delta": "positive number", "covering_delta": "positive number",
    "radii": "positive numbers", "exponent": "finite number",
    "quadrature": "one of tensor, mc", "g": "expression in y1..yq-1", "u": "expression in x1..xq",
    **{key: key for key in ("subspace", "family", "body", "grid", "groups", "scales")},
    "seed": "integer", "numeric_rtol": "number in (0, 1)", "name": "string", "out": "string",
}

_SCALARS = {
    "integer": lambda v: v == int(v),
    "positive integer": lambda v: v >= 1 and v == int(v),
    "positive number": lambda v: v > 0,
    "finite number": lambda v: True,
    "number in (0, 1)": lambda v: 0 < v < 1,
}
_LISTS = {
    "positive numbers": "positive number", "scales": "positive number", "family": "subspace", "groups": "group",
}
_BODY_KEYS = {"ball": {"kind"}, "box": {"kind", "halfwidths"}, "ellipsoid": {"kind", "matrix"}}


class _Malformed(Exception):
    """A value is not of its kind; the message, if any, says why."""


def _numbers(value) -> bool:
    """A number or nested lists of numbers: no bool, string or null."""
    return all(map(_numbers, value)) if isinstance(value, list) else type(value) in (int, float)


def _value(kind: str, value, ctx, dim):
    """``value`` checked as a ``kind`` and converted, else ``_Malformed``;
    ``dim`` gives the size that a shape letter stands for."""
    if kind in _SCALARS:
        finite = type(value) is int or type(value) is float and math.isfinite(value)
        if not (finite and _SCALARS[kind](value)):
            raise _Malformed()
        return int(value) if kind.endswith("integer") else float(value)
    if kind.endswith(("vector", "array", "box")):
        shape = kind.replace("-", " ").split()[-2].split("×")
        try:
            a = np.array(value, dtype=float) if _numbers(value) else np.array(np.nan)
        except (ValueError, OverflowError):  # ragged, or beyond a float
            raise _Malformed() from None
        if a.ndim != len(shape) or not np.all(np.isfinite(a)) or any(
            size < 1 if s == "k" else size != (int(s) if s.isdigit() else dim(s))
            for size, s in zip(a.shape, shape)
        ):
            raise _Malformed()
        if kind.endswith("box") and not np.all(a[:, 0] < a[:, 1]):
            raise _Malformed("rows [lo, hi] with lo < hi")
        if kind.startswith("nonzero") and not np.linalg.norm(a) > 0:
            raise _Malformed("a norm above 0")
        return a
    if kind in _LISTS:
        if not isinstance(value, list) or not value:
            raise _Malformed("a non-empty list")
        items = [_value(_LISTS[kind], v, ctx, dim) for v in value]
        if kind == "family" and len({space.dim for space in items}) > 1:
            raise _Malformed("subspaces of one dimension")
        if kind == "scales" and len(set(items)) < 2:
            raise _Malformed("two distinct at least")
        if kind == "scales" and not min(min(items), min(items) / max(items)) ** ctx.group.step >= sys.float_info.min:
            raise _Malformed("the smallest, and its ratio to the largest, normal at the group's step-th power")
        return items
    if kind == "grid":
        if isinstance(value, list) and len(value) == dim("n"):
            return [_value("positive integer", v, ctx, dim) for v in value]
        return _value("positive integer", value, ctx, dim)
    if kind == "string" and isinstance(value, str):
        return value
    if kind.startswith("one of ") and value in kind[7:].split(", "):
        return value
    try:
        if kind.startswith("expression in "):
            letter = kind.split()[-1][0]
            count = dim("q") - kind.endswith("-1")
            parse_expression(_value("string", value, ctx, dim), [f"{letter}{i + 1}" for i in range(count)])
            return value
        if kind == "subspace":
            return Subspace(ctx.group, _value("k×q array", value, ctx, dim).T)
        if kind == "group":
            if isinstance(value, dict):
                return load_group(value)
            return catalog_group(_value("string", value, ctx, dim))
    except (ParseError, ArityError, BadDimensions) as err:
        raise _Malformed(str(err)) from None
    if kind == "body":
        shape = value.get("kind", "ball") if isinstance(value, dict) else None
        if not isinstance(shape, str) or not set(value) <= _BODY_KEYS.get(shape, set()):
            raise _Malformed("a ball, a box or an ellipsoid, with its halfwidths or matrix")
        if shape == "ball":
            return ball_body(ctx.distance)
        if shape == "box":
            halfwidths = _value("q-vector", value.get("halfwidths", [1.0] * dim("q")), ctx, dim)
            if not np.all(halfwidths > 0):
                raise _Malformed("positive halfwidths")
            return box_body(halfwidths)
        matrix = _value("q×q array", value.get("matrix", np.eye(dim("q")).tolist()), ctx, dim)
        if np.linalg.svd(matrix, compute_uv=False)[-1] == 0:
            raise _Malformed("an invertible matrix")
        return ellipsoid_body(matrix)
    raise _Malformed()


def _convert(kind: str, value, ctx, dim, what: str):
    try:
        return _value(kind, value, ctx, dim)
    except _Malformed as err:
        why = f" ({err})" if str(err) else ""
        raise ConfigError(f"{what}: expected {kind}{why}, got {value!r}") from None


def task_opts(ctx: RunContext, name: str, opts: dict) -> dict:
    """The task's opts checked and converted, its defaults filled in, and
    the run's sample count where the task has ``samples`` and opts set none."""
    declared = OPTS[name]
    unknown = sorted(set(opts) - set(declared))
    if unknown:
        raise ConfigError(f"{name}: unknown opts {unknown}, expected some of {sorted(declared)}")
    if "samples" in declared and ctx.samples is not None:
        opts = {"samples": ctx.samples, **opts}
    done = {}

    def dim(letter: str) -> int:
        sizes = {"n": lambda: ctx.chart.n, "q": lambda: ctx.group.q, "d": lambda: done["subspace"].dim}
        return sizes[letter]()

    for key, default in declared.items():
        value = opts[key] if key in opts else default
        if value is REQUIRED:
            raise ConfigError(f"{name} needs opts.{key}")
        keep = value is None and default is None
        done[key] = None if keep else _convert(KINDS[key], value, ctx, dim, f"{name}: opts.{key}")
    return done


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _error_record(err: Exception) -> dict:
    """A task failure as its report record.  An error outside the package's
    hierarchy is a bug or unchecked input, so its traceback goes to stderr."""
    if not isinstance(err, NilgeomError):
        traceback.print_exc()
    return {"error": type(err).__name__, "message": str(err)}


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
    for key in ("seed", "numeric_rtol", "samples", "name", "out"):
        if key in config:
            _convert(KINDS[key], config[key], None, None, f"configuration {key!r}")
    sub = config.get("submanifold")
    if sub is not None:
        if not isinstance(sub, dict) or set(sub) != _SUBMANIFOLD_KEYS:
            raise ConfigError(f"'submanifold' needs exactly the keys {sorted(_SUBMANIFOLD_KEYS)}")
        n = _convert("positive integer", sub["n"], None, None, "submanifold 'n'")
        _convert("string", sub["exprs"], None, None, "submanifold 'exprs'")
        _convert("n×2 array", sub["domain"], None, {"n": n}.get, "submanifold 'domain'")
    tasks = config.get("tasks", [])
    if not isinstance(tasks, list):
        raise ConfigError("'tasks' must be a list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or not isinstance(task.get("task"), str):
            raise ConfigError(f"task {i} must be an object with a 'task' field")
        if task["task"] not in TASKS:
            raise ConfigError(f"task {i}: unknown task {task['task']!r}")
        extra = set(task) - {"task", "opts"}
        if extra:
            raise ConfigError(f"task {i}: unknown keys {sorted(extra)}")
        if not isinstance(task.get("opts", {}), dict):
            raise ConfigError(f"task {i}: 'opts' must be an object")
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
    run_samples = samples if samples is not None else config.get("samples")
    ctx = RunContext(config, out, run_seed, run_samples, quiet)

    tasks = list(config.get("tasks", []))
    if only_task is not None:
        tasks = [t for t in tasks if t["task"] == only_task]
        if not tasks:
            tasks = [{"task": only_task, "opts": cli_opts or {}}]

    # every task's opts (the file's, then the command line's) are checked
    # and converted before any task runs
    jobs = []
    for task in tasks:
        try:
            opts = task_opts(ctx, task["task"], {**task.get("opts", {}), **(cli_opts or {})})
            jobs.append((task["task"], opts, None))
        except Exception as err:
            jobs.append((task["task"], None, _error_record(err)))

    records = []
    timings = {}
    overall_ok = True
    for index, (name, opts, record) in enumerate(jobs):
        started = time.monotonic()
        status = "error"
        if record is None:
            try:
                record, ok = TASKS[name](ctx, opts)
                status = "pass" if ok else "fail"
            except Exception as err:
                record = _error_record(err)
        ok = status == "pass"
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
    cli_opts = {key: getattr(args, key) for key in ("y", "y0") if getattr(args, key, None) is not None}

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
