"""In-memory span tracer installed around nilgeom's public functions.

The library itself is not instrumented.  ``Tracer.install`` replaces each
traced function with a wrapper at every place a caller looks it up: on the
class for methods (``GradedGroup.product``), and for module functions at
every ``nilgeom`` module attribute bound to the same object (``mc.stream``,
``measure.stream``, ``metrics.stream``, the package namespace, ...).
``Tracer.uninstall`` puts the originals back.

Each call records one span: name, parent span, start, end, a row count and
whether it raised.  Spans stay in memory until ``save`` writes them out;
``per_name`` and ``count_under`` reduce them to the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _lead(a) -> int:
    """Number of rows in a point batch: the product of the leading axes."""
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _lead2(a, b) -> int:
    return max(_lead(a), _lead(b))


# Row counters take the positional arguments (``self`` included for methods)
# and the keyword arguments of a call.  Hot paths read positions directly;
# the others bind against the signature so defaults are honoured.
def _rows_xy(args, kwargs):
    return _lead2(args[1], args[2]) if len(args) > 2 else 1


def _rows_x(args, kwargs):
    return _lead(args[1]) if len(args) > 1 else 1


def _rows_pdy(args, kwargs):
    return _lead2(args[1], args[3]) if len(args) > 3 else 1


def _rows_batch(args, kwargs):
    """Batch size of a (B, q, n) coefficient stack."""
    return int(np.shape(args[1])[0])


def _rows_param(param):
    """Row count from a named scalar parameter (``samples``, ``count``, ...)."""

    def make(fn):
        sig = inspect.signature(fn)
        if param not in sig.parameters:
            return None

        def rows(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return int(bound.arguments[param])

        return rows

    return make


def _plain(rows):
    return lambda fn: rows


ALL = ("calls", "rows", "busy_s", "self_s")
LEAF = ("calls", "rows", "self_s")
CALL = ("calls", "busy_s", "self_s")

# (module, attribute path, row counter factory or None, stats reported).
# The layer of a span is its module; its metric prefix is
# ``<module>.<function>``.  Leaf kernels report rows and self time; the
# estimators report busy (inclusive) and self time.
TARGETS = [
    ("algebra", "GradedGroup.product", _plain(_rows_xy), ALL),
    ("algebra", "GradedGroup.bracket", _plain(_rows_xy), LEAF),
    ("algebra", "GradedGroup.product_derivative_y", _plain(_rows_pdy), ALL),
    ("algebra", "GradedGroup.frame", _plain(_rows_x), ("calls", "busy_s")),
    ("algebra", "GradedGroup.frame_coefficients", _plain(_rows_x), CALL),
    ("algebra", "load_group", None, ("calls", "busy_s")),
    ("metrics", "HomogeneousDistance.distance", _plain(_rows_xy), ALL),
    ("metrics", "HomogeneousDistance.norm", _plain(_rows_x), LEAF),
    ("metrics", "ball_bounding_radius", None, CALL),
    ("metrics", "calibrate_box", None, ("calls", "busy_s")),
    ("metrics", "verify_distance_axioms", _rows_param("samples"), ALL),
    ("manifold", "ParamMap.value", _plain(_rows_x), LEAF),
    ("manifold", "ParamMap.jacobian_batch", _plain(_rows_x), LEAF),
    ("manifold", "classify_point", None, CALL),
    ("manifold", "degree_map", None, CALL),
    ("exterior", "wedge", None, ("calls", "self_s")),
    ("exterior", "lift_tangent", None, CALL),
    ("measure", "frame_batch", _plain(_rows_x), ALL),
    ("measure", "frame_coefficients_batch", _plain(_rows_x), ALL),
    ("measure", "projected_wedge_norms", _plain(_rows_batch), LEAF),
    ("measure", "intrinsic_density", _plain(_rows_x), ALL),
    ("measure", "section_area", _rows_param("samples"), ALL),
    ("measure", "spherical_factor", None, CALL),
    ("measure", "federer_density", _rows_param("samples"), CALL),
    ("measure", "covering_estimate", _rows_param("cloud_size"), CALL),
    ("measure", "intrinsic_measure", None, CALL),
    ("measure", "section_concavity_check", None, CALL),
    ("measure", "vertical_translation_check", _rows_param("samples"), CALL),
    ("measure", "beta_constancy_check", None, CALL),
    ("mc", "stream", None, ("calls", "self_s")),
    ("mc", "uniform_ball", _rows_param("count"), LEAF),
    ("mc", "uniform_box", _rows_param("count"), LEAF),
    ("optimize", "nelder_mead", None, ("calls", "evals", "busy_s", "self_s")),
    ("cli", "run", None, CALL),
]

LAYERS = tuple(dict.fromkeys(module for module, *_ in TARGETS))

def _after_federer(rows, result):
    _, trace = result
    return {"hits": sum(t.hits for t in trace), "draws": rows * len(trace)}


def _after_concavity(rows, result):
    return {"checks": result.checks, "skipped": result.skipped}


def _after_factor(rows, result):
    return {
        "search": int(result.method == "optimized"),
        "shortcut": int(result.method == "theorem-shortcut"),
    }


AFTER = {
    "measure.federer_density": _after_federer,
    "measure.section_concavity_check": _after_concavity,
    "measure.spherical_factor": _after_factor,
}


class Tracer:
    """Span recorder; wrappers append to flat arrays, analysis happens later."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # no open span of the same name at entry
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn, rows=None, after=None):
        """Wrap `fn` so that each call records one span called `name`."""
        nid = self._id(name)
        tracer = self
        counts_evals = name == "optimize.nelder_mead"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            evals = [0]
            if counts_evals:
                objective = args[0]

                def counted(x):
                    evals[0] += 1
                    return objective(x)

                args = (counted,) + args[1:]
            try:
                n_rows = rows(args, kwargs) if rows is not None else 1
            except (TypeError, IndexError):  # bad arguments: the call reports them
                n_rows = 1
            idx = len(tracer.name)
            stack = tracer._stack
            depth = tracer._depth
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.outer.append(depth[nid] == 0)
            tracer.ok.append(0)
            tracer.rows.append(n_rows)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                depth[nid] -= 1
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if counts_evals:
                    tracer.rows[idx] = evals[0]
            tracer.ok[idx] = 1
            if after is not None:
                for key, value in after(tracer.rows[idx], result).items():
                    tracer.counters[name][key] += value
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nilgeom" or name.startswith("nilgeom."))
        }
        for module, path, rows_factory, _ in TARGETS:
            metric = f"{module}.{path.split('.')[-1]}"
            self._id(metric)
            try:
                mod = importlib.import_module(f"nilgeom.{module}")
            except ModuleNotFoundError:
                self.absent.append(metric)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(metric)
                continue
            rows = rows_factory(original) if rows_factory is not None else None
            wrapper = self.span(metric, original, rows, AFTER.get(metric))
            if not owner_name:
                for m in modules.values():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)
                continue
            self._set(owner, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "ok": np.frombuffer(self.ok, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_name(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """calls, rows, busy_s (outermost spans of a name) and self_s per name,
        over the spans recorded from index `first` up to `last`."""
        a = self.arrays()
        count = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=count
        )
        self_time = dur - child
        k = len(self.names)
        part = slice(first, last)
        ids, dur, n_rows = a["name"][part], dur[part], a["rows"][part]
        calls = np.bincount(ids, minlength=k)
        rows = np.bincount(ids, weights=n_rows, minlength=k)
        busy = np.bincount(ids, weights=dur * a["outer"][part], minlength=k)
        own = np.bincount(ids, weights=self_time[part], minlength=k)
        ok_rows = np.bincount(ids, weights=n_rows * a["ok"][part], minlength=k)
        return {
            name: {
                "calls": float(calls[i]),
                "rows": float(rows[i]),
                "ok_rows": float(ok_rows[i]),
                "busy_s": float(busy[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an open `ancestor` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        a = self.arrays()
        target, anc = self._ids[name], self._ids[ancestor]
        names, parents = a["name"].tolist(), a["parent"].tolist()
        under = [False] * len(names)
        # parents are recorded before their children, so one forward sweep
        # propagates the flag down every chain
        for i, p in enumerate(parents):
            if p >= 0:
                under[i] = under[p] or names[p] == anc
        return sum(1 for i, n in enumerate(names) if n == target and under[i])
