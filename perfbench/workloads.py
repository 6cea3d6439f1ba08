"""The three benchmark workloads, built from the workload seed.

A workload's constructor is its set-up (timed as ``setup_s``); its three
stage methods are timed as ``task1_s``, ``task2_s`` and ``task3_s`` and run
in that order, each task starting when the previous one returned.  Library
functions are looked up through their modules at call time, so the
tracer's wrappers see every call.  Inputs are drawn here from the seed with
numpy's own generator; the library only receives the generated inputs.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import nilgeom as ng
from nilgeom import cli, measure

from checks import Outcome, expect, observe_report, z_limit

FILIFORM6 = {
    "name": "filiform6",
    "layers": [2, 1, 1, 1, 1, 1],
    "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)],
}
FILIFORM6_CHART = "y1; y2; y1*y2; y1^2*y2/2; 0; y2^3; y1^4"
SQUARE = [[-1, 1], [-1, 1]]


class Highstep:
    """L0 group law in 1e4-1e5-row batches on step-3 to step-6 groups."""

    stages = ("props", "verify", "tangent")
    seeded = True

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.filiform = ng.load_group(FILIFORM6)
        self.groups = [ng.engel(), ng.free2(4), ng.h_type(), self.filiform]
        self.epsilons = ng.calibrate_box(self.filiform, samples=20_000, seed=seed).epsilons
        self.dist = ng.box_distance(self.filiform, self.epsilons)
        self.chart = ng.parse_parametrization(FILIFORM6_CHART, 2, SQUARE, self.filiform)

    def props(self, out: Outcome) -> None:
        for group in self.groups:
            out.task(f"props:{group.name}", self._props, group)

    def _props(self, group) -> list[str]:
        res = cli.group_property_residuals(group, samples=10_000, seed=self.seed)
        worst = max(res.values())
        return [] if worst < 1e-9 else [f"residual {worst:.3g} >= 1e-9"]

    def verify(self, out: Outcome) -> None:
        out.task("verify", self._verify, out)

    def _verify(self, out: Outcome) -> list[str]:
        rep = ng.verify_distance_axioms(self.dist, samples=100_000, seed=self.seed)
        out.exact("verify.epsilons", list(self.epsilons))
        out.exact("verify.violations", rep.triangle_violations)
        out.number("verify.worst_ratio", rep.worst_ratio)
        return [] if rep.passed else [f"{rep.triangle_violations} triangle violations"]

    def tangent(self, out: Outcome) -> None:
        out.task("classify", self._classify, out)
        out.task("degree-map", self._degree_map, out)
        out.task("intrinsic-measure", self._measure, out)

    def _classify(self, out: Outcome) -> list[str]:
        a = ng.classify_point(self.chart, [0.3, -0.2])
        out.exact("classify.degree", a.degree)
        out.exact("classify.alpha", list(a.alpha))
        out.exact("classify.classification", a.classification)
        out.exact("classify.regular", a.regular)
        for i, v in enumerate(a.p):
            out.number(f"classify.p[{i}]", v)
        problems: list[str] = []
        expect(problems, a.degree == 11, f"degree {a.degree} != 11")
        expect(problems, a.alpha == (0, 0, 0, 0, 1, 1), f"alpha {a.alpha}")
        expect(problems, a.classification == "transversal", a.classification)
        return problems

    def _degree_map(self, out: Outcome) -> list[str]:
        res = ng.degree_map(self.chart, 9)
        out.exact("degree_map.cells", len(res.points))
        out.exact("degree_map.max_degree", res.max_degree)
        out.number("degree_map.low_degree_fraction", res.low_degree_fraction)
        out.exact("degree_map.degrees", [a.degree for a in res.points])
        return [f"{len(res.failures)} failed cells"] if res.failures else []

    def _measure(self, out: Outcome) -> list[str]:
        mu = ng.intrinsic_measure(self.chart)
        for key in ("coarse", "fine"):
            out.number(f"mu.{key}", mu.meta[key])
        out.number("mu.value", mu.value)
        # the tensor rule has no stderr; its Richardson delta is its error
        out.rel_error(mu.meta["richardson_delta"], mu.value)
        return []


def _readme_demo(seed: int) -> dict:
    return {
        "name": "readme-demo",
        "group": "heisenberg(1)",
        "distance": {"kind": "box", "params": [1.0, 1.0]},
        "submanifold": {"n": 2, "exprs": "y1; 0; y2", "domain": SQUARE},
        "seed": seed,
        "tasks": [
            {"task": "analyze-point", "opts": {"y": [0.1, -0.2]}},
            {"task": "degree-map", "opts": {"grid": 9}},
            {"task": "federer-density", "opts": {"y0": [0.1, -0.2]}},
        ],
    }


def _vertical_line_area(seed: int) -> dict:
    return {
        "name": "vertical-line-area",
        "group": "heisenberg(1)",
        "distance": {"kind": "box", "params": [1.0, 1.0]},
        "submanifold": {"n": 1, "exprs": "0; 0; y1", "domain": [[-1, 1]]},
        "seed": seed,
        "tasks": [
            {"task": "area-check", "opts": {"probes": [[0.2]], "covering_delta": 0.2}},
        ],
    }


def _h_type_factor(seed: int) -> dict:
    return {
        "name": "h-type-factor",
        "group": "h_type",
        "distance": {"kind": "box", "params": [1.0, 1.0]},
        "seed": seed,
        "tasks": [
            {
                "task": "spherical-factor",
                "opts": {"subspace": [[1, 0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0]]},
            },
        ],
    }


class Estimators:
    """L4 estimators through ``nilgeom.cli.run``: config loading, dispatch,
    report.json and the CSV traces are on the path.

    The documents are fixed, Monte-Carlo seed included (the README demo's
    seed 7), so the workload seed does not reach them: the estimators adapt
    their work to their draws (cloud doublings, Nelder-Mead steps), and a
    seed-dependent document would make the run-to-run spread of the stage
    times larger than any bound (see README.md).
    """

    stages = ("federer", "area_check", "factor_search")
    seeded = False
    DOC_SEED = 7

    def __init__(self, seed: int, out_dir: Path):
        self.seed = self.DOC_SEED
        self.out_dir = out_dir
        self.paths = {}
        for stage, make in zip(self.stages, (_readme_demo, _vertical_line_area, _h_type_factor)):
            path = out_dir / f"{stage}.json"
            path.write_text(json.dumps(make(self.seed), indent=2))
            self.paths[stage] = path
            # build what the document names, as the run will
            config = cli.load_config(path)
            group = ng.catalog_group(config["group"])
            ng.distance_from_spec(group, config["distance"])
            sub = config.get("submanifold")
            if sub is not None:
                ng.parse_parametrization(sub["exprs"], sub["n"], sub["domain"], group)
            for task in config["tasks"]:
                basis = task["opts"].get("subspace")
                if basis is not None:
                    ng.Subspace(group, np.asarray(basis, dtype=float).T)

    def _run(self, out: Outcome, stage: str) -> tuple[list[str], dict]:
        target = self.out_dir / stage
        status = cli.run(self.paths[stage], out_dir=target, seed=self.seed, quiet=True)
        report = json.loads((target / "report.json").read_text())
        report.pop("meta")
        observe_report(out, stage, report)
        problems: list[str] = []
        expect(problems, status == 0, f"exit status {status}")
        for rec in report["tasks"]:
            expect(problems, rec["status"] == "pass", f"{rec['task']} {rec['status']}")
        return problems, {rec["task"]: rec["result"] for rec in report["tasks"]}

    def federer(self, out: Outcome) -> None:
        out.task("readme-demo", self._federer, out)

    def _federer(self, out: Outcome) -> list[str]:
        problems, results = self._run(out, "federer")
        point = results["analyze-point"]
        expect(problems, point["degree"] == 3, f"degree {point['degree']} != 3")
        expect(problems, point["classification"] == "transversal", point["classification"])
        expect(problems, results["degree-map"]["failures"] == 0, "degree-map failures")
        return problems

    def area_check(self, out: Outcome) -> None:
        out.task("vertical-line-area", self._area_check, out)

    def _area_check(self, out: Outcome) -> list[str]:
        problems, results = self._run(out, "area_check")
        verdicts = results["area-check"]["verdicts"]
        expect(problems, len(verdicts) == 2, f"{len(verdicts)} verdicts")
        for v in verdicts:
            expect(problems, v["passed"], f"verdict {v['name']} failed: {v['lhs']} vs {v['rhs']}")
        return problems

    def factor_search(self, out: Outcome) -> None:
        out.task("h-type-factor", self._factor_search, out)

    def _factor_search(self, out: Outcome) -> list[str]:
        problems, results = self._run(out, "factor_search")
        method = results["spherical-factor"]["beta"]["method"]
        expect(problems, method == "optimized", f"method {method}")
        return problems


class Sections:
    """Section sampling and membership: concavity, translation, constancy."""

    stages = ("concavity", "translation", "constancy")
    seeded = True

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        h1 = ng.heisenberg(1)
        f3 = ng.free2(3)
        space12 = ng.Subspace(h1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        space13 = ng.Subspace(h1, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        h1_box = ng.box_distance(h1, [1.0, 1.0])
        self.bodies = [
            ("cube", measure.box_body([1.0, 1.0, 1.0]), space12),
            ("euclidean-ball", measure.ellipsoid_body(np.eye(3)), space12),
            ("box-ball", measure.ball_body(h1_box), space13),
        ]

        f3_basis = np.zeros((6, 4))
        f3_basis[0, 0] = 1.0
        f3_basis[3:, 1:] = np.eye(3)
        self.pairs = []
        for group, space, half_range in (
            (h1, space13, (0.5, 1.5)),
            (f3, ng.Subspace(f3, f3_basis), (0.5, 1.2)),
        ):
            for _ in range(50):
                p = rng.uniform(-1.0, 1.0, group.q)
                half = rng.uniform(*half_range, space.dim)
                self.pairs.append((group, space, p, np.stack([-half, half], axis=1)))

        h1_family = []
        for _ in range(8):
            phi = rng.uniform(0.0, np.pi)
            basis = np.zeros((3, 2))
            basis[0, 0], basis[1, 0], basis[2, 1] = np.cos(phi), np.sin(phi), 1.0
            h1_family.append(ng.Subspace(h1, basis))
        f3_family = []
        for _ in range(8):
            line = rng.standard_normal(3)
            basis = np.zeros((6, 4))
            basis[:3, 0] = line / np.linalg.norm(line)
            basis[3:, 1:] = np.eye(3)
            f3_family.append(ng.Subspace(f3, basis))
        self.families = [
            ("heisenberg1-box", h1_box, h1_family),
            ("free2_3-multiradial", ng.multiradial_distance(f3, "max(t1, 1.2*t2^0.5)"), f3_family),
        ]

    def concavity(self, out: Outcome) -> None:
        for label, body, space in self.bodies:
            out.task(f"concavity:{label}", self._concavity, out, label, body, space)

    def _concavity(self, out: Outcome, label, body, space) -> list[str]:
        rep = ng.section_concavity_check(body, space, segments=200, samples=6000, seed=self.seed)
        out.exact(f"concavity.{label}.segments", rep.segments)
        out.exact(f"concavity.{label}.violations", rep.violations)
        problems: list[str] = []
        expect(problems, rep.segments == 200, f"{rep.segments} of 200 segments")
        expect(problems, rep.violations == 0, f"{rep.violations} violations")
        return problems

    def translation(self, out: Outcome) -> None:
        limit = z_limit(len(self.pairs))
        out.notes["translation_library_fails"] = 0
        for i, pair in enumerate(self.pairs):
            out.task(f"translation:{i}", self._translation, out, i, pair, limit)

    def _translation(self, out: Outcome, i, pair, limit) -> list[str]:
        group, space, p, box = pair
        rep = ng.vertical_translation_check(
            group, space, p, box=box, samples=30_000, seed=1000 * self.seed + i
        )
        before, after = rep.volume_before, rep.volume_after
        out.mc(f"translation[{i}].before", before.value, before.stderr)
        out.mc(f"translation[{i}].after", after.value, after.stderr)
        out.notes["translation_library_fails"] += int(not rep.passed)
        z = abs(after.value - before.value) / max(np.hypot(before.stderr, after.stderr), 1e-300)
        return [] if z <= limit else [f"z = {z:.2f} > {limit:.2f}"]

    def constancy(self, out: Outcome) -> None:
        out.notes["constancy_library_fails"] = 0
        for k, (label, dist, family) in enumerate(self.families):
            out.task(f"constancy:{label}", self._constancy, out, k, label, dist, family)

    def _constancy(self, out: Outcome, k, label, dist, family) -> list[str]:
        rep = ng.beta_constancy_check(dist, family, samples=150_000, seed=100 * self.seed + 50 * k)
        for i, (value, err) in enumerate(zip(rep.values, rep.stderrs)):
            out.mc(f"constancy.{label}[{i}]", value, err)
        out.notes["constancy_library_fails"] += int(not rep.passed)
        pairs = len(family) * (len(family) - 1) // 2
        limit = z_limit(pairs)
        z = rep.max_pairwise_z
        return [] if z <= limit else [f"max pairwise z = {z:.2f} > {limit:.2f}"]


WORKLOADS = {"highstep": Highstep, "estimators": Estimators, "sections": Sections}


def build(name: str, seed: int, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)
