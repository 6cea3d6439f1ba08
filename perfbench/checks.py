"""Output checks shared by the workloads.

A pass runs tasks; each task returns the list of checks it failed, and a
task that raises counts as failed too.  Tasks also record observations:
values that are compared between passes (determinism) and, for the default
seed, against the stored references in ``perfbench/reference``.

Observation kinds:

- ``exact``: ints, strings, bools and lists of them; compared for equality.
- ``number``: deterministic floats; compared to 1e-12 relative.
- ``mc``: a Monte-Carlo value with its standard error; compared by the
  ROADMAP aim-1 rule, read family-wise (see ``z_limit``).
- ``draw``: a value that follows the draws without a standard error (the
  greedy cover's value, ball count and cloud size); compared between the
  passes of a run, which repeat the draws, but not against the reference,
  so that a change of sampling scheme is not a failure.
"""
from __future__ import annotations

import math
import traceback
from statistics import NormalDist

FLOAT_RTOL = 1e-12

# Family-wise false-alarm level of the statistical checks: that of a single
# two-sided 3-sigma test.
FAMILY_ALPHA = 2.0 * (1.0 - NormalDist().cdf(3.0))


def z_limit(tests: int) -> float:
    """Two-sided z bound for `tests` comparisons at family level FAMILY_ALPHA.

    A per-comparison 3-sigma rule over 100 unbiased comparisons raises a
    false alarm in about one run in four; the Bonferroni bound keeps the
    whole family at the false-alarm rate of one 3-sigma test.
    """
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * max(tests, 1)))


class Outcome:
    """Everything one pass of a workload produced."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.rel_errors: list[float] = []
        self.observed: dict[str, list] = {}
        self.notes: dict[str, object] = {}

    def task(self, label: str, fn, *args) -> None:
        """Run one task; `fn` returns the descriptions of the checks it failed."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as err:  # one failed task must not stop the pass
            last = traceback.extract_tb(err.__traceback__)[-1]
            problems = [f"raised {type(err).__name__} at {last.name}:{last.lineno}: {err}"]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def exact(self, key: str, value) -> None:
        self.observed[key] = ["exact", value]

    def number(self, key: str, value: float) -> None:
        self.observed[key] = ["number", float(value)]

    def mc(self, key: str, value: float, stderr: float) -> None:
        """A Monte-Carlo estimate: observed, and counted in mc_rel_stderr.

        An estimate with stderr 0 hit on every draw or on none, so its value
        is exact (a box volume): it is observed as a number and not counted.
        """
        if stderr == 0:
            self.number(key, value)
            return
        self.observed[key] = ["mc", float(value), float(stderr)]
        self.rel_error(stderr, value)

    def draw(self, key: str, value) -> None:
        self.observed[key] = ["draw", value]

    def rel_error(self, error: float, value: float) -> None:
        self.rel_errors.append(abs(error) / max(abs(value), 1e-300))

    def rms_rel_error(self) -> float:
        if not self.rel_errors:
            return 0.0
        return math.sqrt(sum(e * e for e in self.rel_errors) / len(self.rel_errors))


def expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def observe_report(out: Outcome, prefix: str, obj) -> None:
    """Record a report.json document (without ``meta``) as observations.

    Monte-Carlo ``Estimate`` records (nonzero stderr) become ``mc``
    observations; their ``meta`` holds search diagnostics (argmax, chosen
    radius) that follow the draws, so only its deterministic keys are kept.
    The greedy cover (``greedy-cover``, stderr 0) depends on its cloud draws
    by tens of percent; its value, ball count and cloud size are ``draw``
    observations, judged through the covering-stability verdict.  Verdict ``lhs``/``rhs``/``detail`` restate estimates recorded elsewhere
    and are skipped; the verdict outcome itself is compared exactly.
    """
    if isinstance(obj, dict):
        if {"value", "stderr", "samples", "method"} <= obj.keys() and obj["stderr"] > 0:
            out.mc(prefix, obj["value"], obj["stderr"])
            out.exact(f"{prefix}.samples", obj["samples"])
            out.exact(f"{prefix}.method", obj["method"])
            meta = obj.get("meta", {})
            for key in ("degree", "classification", "shortcut"):
                if key in meta:
                    out.exact(f"{prefix}.meta.{key}", meta[key])
            return
        if obj.get("method") == "greedy-cover":
            for key in ("value", "samples"):
                out.draw(f"{prefix}.{key}", obj[key])
            out.draw(f"{prefix}.meta.balls", obj.get("meta", {}).get("balls"))
            obj = {k: v for k, v in obj.items() if k not in ("value", "samples")}
            obj["meta"] = {k: v for k, v in obj.get("meta", {}).items() if k != "balls"}
        verdict = {"lhs", "rhs", "passed"} <= obj.keys()
        for key, value in obj.items():
            if verdict and key in ("lhs", "rhs", "detail"):
                continue
            observe_report(out, f"{prefix}.{key}", value)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            observe_report(out, f"{prefix}[{i}]", value)
    elif isinstance(obj, float):
        out.number(prefix, obj)
    else:
        out.exact(prefix, obj)


def compare(reference: dict, observed: dict) -> list[str]:
    """Differences between two observation sets; empty when they agree."""
    problems = []
    for key in sorted(set(reference) - set(observed)):
        problems.append(f"{key} missing")
    for key in sorted(set(observed) - set(reference)):
        problems.append(f"{key} not in reference")
    mc_keys = [k for k in reference if k in observed and reference[k][0] == "mc"]
    limit = z_limit(len(mc_keys))
    for key in sorted(set(reference) & set(observed)):
        ref, new = reference[key], observed[key]
        if ref[0] != new[0]:
            problems.append(f"{key}: kind {new[0]} != {ref[0]}")
        elif ref[0] == "draw":
            continue
        elif ref[0] == "exact":
            if ref[1] != new[1]:
                problems.append(f"{key}: {new[1]!r} != {ref[1]!r}")
        elif ref[0] == "number":
            if not math.isclose(ref[1], new[1], rel_tol=FLOAT_RTOL, abs_tol=1e-300):
                problems.append(f"{key}: {new[1]!r} != {ref[1]!r}")
        else:
            band = limit * math.hypot(ref[2], new[2])
            if abs(new[1] - ref[1]) > band:
                problems.append(f"{key}: {new[1]:.6g} outside {ref[1]:.6g} +- {band:.3g}")
    return problems
