import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilgeom import cli, measure
from nilgeom.cli import load_config, main, run, task_catalog
from nilgeom.errors import ConfigError
from nilgeom.measure import ConvexBody


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "name": "cli-test",
    "group": "heisenberg(1)",
    "distance": {"kind": "box", "params": [1.0, 1.0]},
    "submanifold": {"n": 2, "exprs": "y1; 0; y2", "domain": [[-1, 1], [-1, 1]]},
    "seed": 5,
}


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {**BASE, "mystery": 1})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_task(tmp_path):
    path = write_config(tmp_path, {**BASE, "tasks": [{"task": "nope"}]})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_group(tmp_path):
    cfg = {
        **BASE,
        "group": {"layers": [2, 1], "brackets": [[1, 2, 1, 1.0]]},
        "tasks": [{"task": "validate-group"}],
    }
    path = write_config(tmp_path, cfg)
    status = run(path, out_dir=tmp_path / "out")
    assert status == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"][0]["status"] == "error"
    assert report["tasks"][0]["result"]["error"] == "GradingViolation"


def test_calibration_failure_is_a_typed_record(tmp_path, capsys):
    cfg = {
        **BASE,
        "group": {"layers": [2, 1], "brackets": [[1, 2, 3, 1e8]]},
        "tasks": [{"task": "calibrate-box", "opts": {"samples": 2000}}],
    }
    path = write_config(tmp_path, cfg)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 1
    assert capsys.readouterr().err == ""
    record = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"][0]
    assert record["status"] == "error"
    assert record["result"]["error"] == "CalibrationFailed"


def test_validate_group_task(tmp_path):
    cfg = {**BASE, "tasks": [{"task": "validate-group"}]}
    path = write_config(tmp_path, cfg)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rec = report["tasks"][0]["result"]
    assert rec["step"] == 2 and rec["hom_dimension"] == 4
    assert rec["q_n"]["1"] == 2 and rec["q_n"]["2"] == 3


def test_catalog_rows():
    rows, ok = task_catalog(None, {})
    assert ok
    by_name = {r["name"]: r for r in rows["groups"]}
    assert by_name["heisenberg(1)"]["Q"] == 4
    assert by_name["heisenberg(1)"]["q_n"] == [2, 3, 4]
    assert by_name["heisenberg(2)"]["Q"] == 6
    assert by_name["heisenberg(2)"]["q_n"][2] == 4
    assert by_name["abelian(3)"]["q_n"] == [1, 2, 3]


def test_analyze_point_and_degree_map(tmp_path):
    cfg = {
        **BASE,
        "submanifold": {"n": 2, "exprs": "y1; y2; y1^2 + y2^2", "domain": [[-1, 1], [-1, 1]]},
        "tasks": [
            {"task": "analyze-point", "opts": {"y": [0.0, 0.0]}},
            {"task": "degree-map", "opts": {"grid": 5}},
        ],
    }
    path = write_config(tmp_path, cfg)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    analyze = report["tasks"][0]["result"]
    assert analyze["degree"] == 2
    assert analyze["classification"] == "irregular"
    assert analyze["characteristic"] is True
    dm = report["tasks"][1]["result"]
    assert dm["max_degree"] == 3
    assert (tmp_path / "out" / "degree_map.csv").exists()


def test_area_check_advisory_exit_zero(tmp_path):
    cfg = {
        **BASE,
        "submanifold": {"n": 2, "exprs": "y1; y2; y1^2 + y2^2", "domain": [[-1, 1], [-1, 1]]},
        "tasks": [{"task": "area-check", "opts": {"probes": [[0.0, 0.0]], "samples": 4000}}],
    }
    path = write_config(tmp_path, cfg)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    verdicts = report["tasks"][0]["result"]["verdicts"]
    assert verdicts[0]["advisory"] is True


def test_cli_main_entry(tmp_path, capsys):
    cfg = {**BASE, "tasks": [{"task": "validate-group"}]}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg(1)" in out


def test_missing_config_is_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "bad_task",
    [
        {"task": "covering-estimate", "opts": {"exponent": 3, "delta": 0}},
        {"task": "coarea-check", "opts": {"g": "0"}},
        {"task": "intrinsic-measure", "opts": {"quadrature": "simpson"}},
    ],
    ids=["covering-delta-zero", "coarea-no-domain", "unknown-quadrature"],
)
def test_unexpected_task_error_is_recorded(tmp_path, bad_task):
    cfg = {**BASE, "tasks": [bad_task, {"task": "validate-group"}]}
    path = write_config(tmp_path, cfg)
    status = run(path, out_dir=tmp_path / "out", quiet=True)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    bad, good = report["tasks"]
    assert bad["status"] == "error"
    assert set(bad["result"]) == {"error", "message"}
    assert good["status"] == "pass"
    assert status == 1


@pytest.mark.parametrize(
    "bad_task",
    [
        {"task": "coarea-check", "opts": {"g": "0"}},
        {"task": "covering-estimate", "opts": {"delta": 0.2}},
        {"task": "covering-estimate", "opts": {"exponent": 3}},
        {"task": "covering-estimate", "opts": {"exponent": 3, "delta": 0}},
        {"task": "covering-estimate", "opts": {"exponent": 3, "delta": -0.5}},
        {"task": "covering-estimate", "opts": {"exponent": "three", "delta": 0.2}},
        {"task": "intrinsic-measure", "opts": {"quadrature": "simpson"}},
        {"task": "area-check", "opts": {"probes": [[0.1, -0.2]], "covering_delta": 0}},
        {"task": "blowup-check", "opts": {}},
        {"task": "analyze-point", "opts": {"y": [0.1]}},
        {"task": "analyze-point", "opts": {"y": "a"}},
        {"task": "spherical-factor", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "samples": 0}},
        {"task": "translation-check", "opts": {"subspace": [[0, 1, 0], [0, 0, 1]], "p": [0.1, 0.2]}},
        {"task": "translation-check", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "box": [[1, -1], [-1, 1]]}},
        {"task": "translation-check", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "box": [[0, 0], [-1, 1]]}},
        {"task": "intrinsic-measure", "opts": {"resolution": 0}},
        {"task": "intrinsic-measure", "opts": {"region": [[-1, 1]]}},
        {"task": "covering-estimate", "opts": {"exponent": 3, "delta": 0.2, "cloud_size": 0}},
        {"task": "coarea-check", "opts": {"domain": [[-1, 1], [-1, 1]]}},
        {"task": "beta-constancy", "opts": {"family": []}},
        {"task": "prop-suite", "opts": {"samples": 0}},
        {"task": "concavity-check", "opts": {"subspace": [[1, 0, 0], [0, 1, 0]], "segments": 0}},
        {"task": "concavity-check", "opts": {"subspace": [[1, 0, 0], [0, 1, 0]], "samples": -5}},
        {"task": "verify-distance", "opts": {"samples": 0}},
        {"task": "calibrate-box", "opts": {"samples": 0}},
        {"task": "spherical-factor", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "sampels": 5}},
        {"task": "federer-density", "opts": {"y0": [0.1, -0.2], "centers_per_radius": 0}},
        {"task": "area-check", "opts": {}},
        {"task": "analyze-point", "opts": {"y": ["0.1", "-0.2"]}},
        {"task": "intrinsic-measure", "opts": {"region": [[1, -1], [-1, 1]]}},
        {"task": "area-check", "opts": {"probes": [[0.1, -0.2]], "region": [[-1, 1], [0.5, 0.5]]}},
        {"task": "covering-estimate", "opts": {"exponent": 3, "delta": 0.2, "region": [[-1, 1], [1, -1]]}},
        {"task": "coarea-check", "opts": {"domain": [[1, -1], [-1, 1], [-1, 1]]}},
        {"task": "blowup-check", "opts": {"y0": [0.3, -0.2], "ray": [0, 0]}},
        {"task": "blowup-check", "opts": {"y0": [0.3, -0.2], "scales": [0.5]}},
        {"task": "blowup-check", "opts": {"y0": [0.3, -0.2], "scales": [0.5, 0.5]}},
        {"task": "blowup-check", "opts": {"y0": [0.3, -0.2], "scales": [1e300, 1e-300]}},
        {"task": "blowup-check", "opts": {"y0": [0.3, -0.2], "scales": [1e-160, 1e-170]}},
    ],
    ids=[
        "coarea-no-domain", "covering-no-exponent", "covering-no-delta", "covering-delta-zero",
        "covering-delta-negative", "covering-exponent-text", "unknown-quadrature",
        "area-covering-delta-zero", "blowup-no-y0",
        "analyze-y-short", "analyze-y-text", "factor-samples-zero", "translation-p-short",
        "translation-box-reversed", "translation-box-zero-width",
        "measure-resolution-zero", "measure-region-one-row", "covering-cloud-zero", "coarea-domain-two-rows",
        "constancy-family-empty", "props-samples-zero", "concavity-segments-zero", "concavity-samples-negative",
        "verify-samples-zero", "calibrate-samples-zero", "factor-samples-typo", "federer-centers-zero",
        "area-no-probes", "analyze-y-numeric-text", "measure-region-reversed", "area-region-zero-width",
        "covering-region-reversed", "coarea-domain-reversed", "blowup-ray-zero", "blowup-scales-one",
        "blowup-scales-repeated", "blowup-scales-ratio-underflows", "blowup-scales-square-underflows",
    ],
)
def test_bad_opts_are_config_errors_before_any_work(tmp_path, capsys, monkeypatch, bad_task):
    # the opts are checked before the run starts: no task function is called
    # for the bad task, the good ones still run, and nothing goes to stderr
    called = []
    for name in set(cli.TASKS) - {"validate-group"}:
        monkeypatch.setitem(cli.TASKS, name, lambda ctx, opts, name=name: called.append(name))
    cfg = {**BASE, "tasks": [{"task": "validate-group"}, bad_task, {"task": "validate-group"}]}
    status = run(write_config(tmp_path, cfg), out_dir=tmp_path / "out", quiet=True)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    first, bad, last = report["tasks"]
    assert bad["status"] == "error"
    assert bad["result"]["error"] == "ConfigError"
    assert first["status"] == last["status"] == "pass"
    assert called == [] and status == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scales", [[1e10, 0.5], [1.0, 1e-12]])
def test_blowup_scales_below_the_rounding_floor_fail_quietly(tmp_path, capsys, scales):
    # the vertical rate has one value above the rounding floor: no slope is
    # fitted (a fit through one point once warned on stderr) and it fails
    task = {"task": "blowup-check", "opts": {"y0": [0.3, -0.2], "scales": scales}}
    status = run(write_config(tmp_path, {**BASE, "tasks": [task]}), out_dir=tmp_path / "out", quiet=True)
    (record,) = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"]
    assert record["status"] == "fail" and status == 1
    assert [rate["fitted_slope"] for rate in record["result"]["rates"]][2] is None
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "bad_task,run_samples",
    [
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "radii": []}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "radii": [0.0]}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "radii": [0.1, -0.1]}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "radii": ["0.1"]}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "radii": 0.1}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "samples": 0}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2], "samples": 2.5}}, None),
        ({"task": "federer-density", "opts": {"y0": [0.1, -0.2]}}, 0),
        ({"task": "area-check", "opts": {"probes": [[0.1, -0.2]], "samples": 0}}, None),
        ({"task": "area-check", "opts": {"probes": [[0.1, -0.2]], "samples": None}}, None),
        ({"task": "area-check", "opts": {"probes": [[0.1, -0.2]]}}, -1),
    ],
    ids=[
        "federer-radii-empty", "federer-radius-zero", "federer-radius-negative", "federer-radius-text",
        "federer-radii-scalar", "federer-samples-zero", "federer-samples-fraction", "federer-run-samples-zero",
        "area-samples-zero", "area-samples-null", "area-run-samples-negative",
    ],
)
def test_bad_federer_inputs_are_config_errors_before_any_work(tmp_path, capsys, monkeypatch, bad_task, run_samples):
    called = []
    for name in ("federer-density", "area-check"):
        monkeypatch.setitem(cli.TASKS, name, lambda ctx, opts, name=name: called.append(name))
    cfg = {**BASE, "tasks": [bad_task, {"task": "validate-group"}]}
    status = run(write_config(tmp_path, cfg), out_dir=tmp_path / "out", samples=run_samples, quiet=True)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    bad, good = report["tasks"]
    assert bad["status"] == "error"
    assert bad["result"]["error"] == "ConfigError"
    assert good["status"] == "pass"
    assert called == [] and status == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "top",
    [
        {"numeric_rtol": "abc"},
        {"numeric_rtol": -1},
        {"numeric_rtol": 1.5},
        {"seed": "x"},
        {"seed": 2.5},
        {"samples": 0},
        {"name": 5},
        {"out": ["a"]},
        {"submanifold": {"n": 2, "exprs": "y1; 0; y2"}},
        {"submanifold": {"n": 2, "exprs": "y1; 0; y2", "domain": [[-1, 1]]}},
        {"tasks": [{"task": "validate-group", "opts": [1]}]},
    ],
    ids=[
        "rtol-text", "rtol-negative", "rtol-above-one", "seed-text", "seed-fraction", "samples-zero", "name-number",
        "out-list", "submanifold-no-domain", "submanifold-domain-one-row", "opts-list",
    ],
)
def test_bad_top_level_values_are_config_errors(tmp_path, capsys, top):
    cfg = {**BASE, "tasks": [{"task": "validate-group"}], **top}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_cli_opts_are_merged_before_the_check(tmp_path):
    cfg = {**BASE, "tasks": [{"task": "analyze-point", "opts": {}}]}
    path = write_config(tmp_path, cfg)
    assert main(["analyze-point", "--config", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 1
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["tasks"][0]["result"]["error"] == "ConfigError"
    argv = ["analyze-point", "--config", str(path), "--out", str(tmp_path / "b"), "--quiet", "--y", "0.1", "-0.2"]
    assert main(argv) == 0


def test_readme_demo_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    demo = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "demo.json"
    path.write_text(demo)
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"] and all(task["status"] == "pass" for task in report["tasks"])


def test_readme_opts_table_is_cli_opts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Task opts", 1)[1].split("\n## ", 1)[0]
    words = {"required": cli.REQUIRED, "none": None}
    documented = {}
    for task, key, kind, default in re.findall(r"^\| ([a-z-]+) \| `(\w+)` \| (.+?) \| (.+?) \|$", table, re.M):
        value = words[default] if default in words else json.loads(default.strip("`"))
        documented.setdefault(task, {})[key] = (kind, value)
    declared = {
        task: {key: (cli.KINDS[key], default) for key, default in opts.items()}
        for task, opts in cli.OPTS.items()
        if opts
    }
    assert documented == declared
    assert set(cli.OPTS) == set(cli.TASKS)


# one well-formed value of every opt on BASE: heisenberg(1), a chart of dimension 2
EXAMPLES = {
    "y": [0.1, -0.2], "y0": [0.1, -0.2], "ray": [1.0, 0.5], "region": [[-0.5, 0.5], [0.0, 1.0]],
    "p": [0.1, 0.2, 0.3], "domain": [[-1, 1], [-1, 1], [0, 1]], "box": [[-1, 1], [0, 0.5]],
    "probes": [[0.1, -0.2]], "samples": 7, "centers_per_radius": 3, "cloud_size": 50, "graph_coord": 2,
    "resolution": 5, "segments": 4, "tolerance": 0.5, "delta": 0.3, "covering_delta": 0.3,
    "radii": [0.1, 0.05], "scales": [0.5, 0.25], "exponent": 3, "quadrature": "mc", "g": "y1^2", "u": "x3",
    "subspace": [[0, 1, 0], [0, 0, 1]], "family": [[[1, 0, 0]], [[0, 1, 0]]],
    "body": {"kind": "box", "halfwidths": [1, 2, 1]}, "grid": [3, 4], "groups": ["engel", "heisenberg(1)"],
}
JUNK = {"0": 0, "-1": -1, "2.5": 2.5, "nan": float("nan"), "inf": float("inf"), "true": True, "text": "a", "empty": []}
# the kinds that take a value other than the opt's own example
TAKEN_BY = {
    "0": {"finite number"},
    "-1": {"finite number"},
    "2.5": {"finite number", "positive number"},
    "short": {"subspace", "family", "positive numbers", "groups"},
    "long": {"k×n array", "family", "positive numbers", "groups", "scales"},
}


def _variants(example) -> dict:
    out = {"example": example, **JUNK, "nested": [example], "unknown": example}
    if isinstance(example, list):
        out.update(short=example[:-1], long=example + example[-1:])
    return out


def _converted(kind: str, got, raw) -> bool:
    if kind == "subspace":
        return np.array_equal(got.basis, np.asarray(raw, dtype=float).T)
    if kind == "family":
        return len(got) == len(raw) and all(map(_converted, ["subspace"] * len(raw), got, raw))
    if kind == "groups":
        return [g.name for g in got] == raw
    if kind == "body":
        return isinstance(got, ConvexBody) and got.label == raw["kind"]
    if kind.endswith(("vector", "array", "box")):
        return got.dtype == float and np.array_equal(got, raw)
    if kind == "positive integer":
        return type(got) is int and got == raw
    if kind.endswith("number"):
        return type(got) is float and got == raw
    return got == raw


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_opts_are_checked_before_any_work(tmp_path, capsys, monkeypatch, data):
    # one opt of one task takes a drawn value, the others their examples;
    # the task functions are stubs, so each run does no work
    calls = []
    for name in cli.TASKS:
        monkeypatch.setitem(cli.TASKS, name, lambda ctx, opts: (calls.append(opts), ({}, True))[1])
    task = data.draw(st.sampled_from(sorted(t for t, opts in cli.OPTS.items() if opts)), label="task")
    key = data.draw(st.sampled_from(sorted(cli.OPTS[task])), label="opt")
    variants = _variants(EXAMPLES[key])
    label = data.draw(st.sampled_from(sorted(variants)), label="value")
    opts = {k: EXAMPLES[k] for k, default in cli.OPTS[task].items() if default is cli.REQUIRED}
    opts[key] = variants[label]
    if label == "unknown":
        opts["sampels"] = 5
    capsys.readouterr()
    run(write_config(tmp_path, {**BASE, "tasks": [{"task": task, "opts": opts}]}), out_dir=tmp_path / "out", quiet=True)
    record = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"][0]
    assert capsys.readouterr().err == ""
    kind = cli.KINDS[key]
    if label == "example" or kind in TAKEN_BY.get(label, ()):
        assert record["status"] == "pass" and len(calls) == 1
        assert set(calls[0]) == set(cli.OPTS[task])
        assert _converted(kind, calls[0][key], variants[label])
    else:
        assert record["result"]["error"] == "ConfigError" and calls == []


BAD_GROUPS = [
    {"layers": "ab"},
    {"layers": [2, 1], "brackets": [[1, 2]]},
    {"layers": [2, 1], "brackets": "x"},
    {"layers": [2.7, 1], "brackets": [[1.9, 2.2, 3, 2]]},
    {"layers": [True, 1, 1]},
]
BAD_GROUP_IDS = ["layers-text", "bracket-two-numbers", "brackets-text", "fractional-counts", "layer-bool"]


@pytest.mark.parametrize("group", BAD_GROUPS, ids=BAD_GROUP_IDS)
def test_malformed_group_definitions_are_typed_records(tmp_path, capsys, group):
    # as the top-level group a BadDimensions record, as a prop-suite group a
    # ConfigError record (its opts are malformed); nothing on stderr, and
    # the other task still runs
    cfg = {
        **BASE,
        "group": group,
        "tasks": [{"task": "validate-group"}, {"task": "catalog"}],
    }
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "a", quiet=True) == 1
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    bad, good = report["tasks"]
    assert bad["result"]["error"] == "BadDimensions" and good["status"] == "pass"
    cfg = {**BASE, "tasks": [{"task": "prop-suite", "opts": {"groups": ["heisenberg(1)", group]}}]}
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "b", quiet=True) == 1
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["tasks"][0]["result"]["error"] == "ConfigError"
    assert capsys.readouterr().err == ""


def test_top_level_samples_is_the_run_default(tmp_path):
    cfg = {**BASE, "samples": 5, "tasks": [{"task": "verify-distance"}]}
    path = write_config(tmp_path, cfg)
    assert run(path, out_dir=tmp_path / "a", quiet=True) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["tasks"][0]["result"]["samples"] == 5
    # --samples overrides the document's, and a task's own opt both
    assert run(path, out_dir=tmp_path / "b", samples=7, quiet=True) == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["tasks"][0]["result"]["samples"] == 7
    cfg["tasks"] = [{"task": "verify-distance", "opts": {"samples": 9}}]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "c", quiet=True) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["tasks"][0]["result"]["samples"] == 9


def test_checks_that_test_nothing_are_advisory(tmp_path):
    # the whole group has no orthogonal direction, and a family of one
    # member compares no pair: each record says why, and the run passes
    cfg = {
        **BASE,
        "tasks": [
            {"task": "concavity-check",
             "opts": {"subspace": np.eye(3).tolist(), "body": {"kind": "box"}, "segments": 5, "samples": 100}},
            {"task": "beta-constancy", "opts": {"family": [[[1, 0, 0], [0, 0, 1]]], "samples": 1000}},
        ],
    }
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out", quiet=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    concavity, constancy = (task["result"] for task in report["tasks"])
    assert all(task["status"] == "pass" for task in report["tasks"])
    assert concavity["advisory"] is True and concavity["passed"] is False and concavity["checks"] == 0
    assert concavity["reason"] == "the subspace has no orthogonal direction"
    assert constancy["advisory"] is True and constancy["passed"] is False
    assert constancy["reason"] == "a single member compares no pair"


def test_numeric_rtol_reaches_the_subspace_class(tmp_path):
    # span{e1, e3 + 1e-6 e2} is vertical only at a tolerance above 1e-6: the
    # translation check refuses it at the default and runs at 1e-3, and the
    # factor takes the convex-ball shortcut only at 1e-3
    near_vertical = [[1.0, 0.0, 0.0], [0.0, 1e-6, 1.0]]
    tasks = [
        {"task": "translation-check", "opts": {"subspace": near_vertical, "samples": 2000}},
        {"task": "spherical-factor", "opts": {"subspace": near_vertical, "samples": 2000}},
    ]
    path = write_config(tmp_path, {**BASE, "numeric_rtol": 1e-3, "tasks": tasks})
    assert run(path, out_dir=tmp_path / "loose", quiet=True) == 0
    translation, factor = json.loads((tmp_path / "loose" / "report.json").read_text())["tasks"]
    assert translation["result"]["passed"] is True
    assert factor["result"]["beta"]["method"] == "theorem-shortcut"
    path = write_config(tmp_path, {**BASE, "tasks": tasks[:1]})
    assert run(path, out_dir=tmp_path / "default", quiet=True) == 1
    translation = json.loads((tmp_path / "default" / "report.json").read_text())["tasks"][0]
    assert translation["result"]["error"] == "NotVertical"


@pytest.mark.parametrize("box", [[[1, -1], [-1, 1]], [[0, 0], [-1, 1]]], ids=["reversed", "zero-width"])
def test_translation_box_rows_need_lo_below_hi(tmp_path, capsys, box):
    # a reversed box once reported volume -0.0 and passed, and a zero-width
    # one passed having tested nothing; both are now typed records
    task = {"task": "translation-check", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "p": [0.1, 0.2, 0.3], "box": box}}
    path = write_config(tmp_path, {**BASE, "tasks": [task]})
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 1
    record = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"][0]
    assert record["status"] == "error" and record["result"]["error"] == "ConfigError"
    assert "opts.box" in record["result"]["message"] and "lo < hi" in record["result"]["message"]
    assert capsys.readouterr().err == ""


def test_a_covering_delta_beyond_a_float_is_a_typed_record(tmp_path, capsys, monkeypatch):
    # delta = 1e300 once ended each of these in an OverflowError and a
    # traceback: the spacing boxes now grow to the whole cloud, and a
    # (delta/2)^exponent beyond a float is NonFinite, in area-check before mu
    monkeypatch.setattr(measure, "intrinsic_measure", lambda *args, **kwargs: pytest.fail("measured mu"))
    line = {"n": 1, "exprs": "0; 0; y1", "domain": [[-1, 1]]}
    tasks = [
        {"task": "covering-estimate", "opts": {"exponent": 0, "delta": 1e300}},
        {"task": "covering-estimate", "opts": {"exponent": 2, "delta": 1e300}},
        {"task": "area-check", "opts": {"probes": [[0.2]], "covering_delta": 1e300}},
    ]
    path = write_config(tmp_path, {**BASE, "submanifold": line, "tasks": tasks})
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 1
    passing, power, area = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"]
    assert passing["status"] == "pass"
    assert passing["result"]["covering"]["meta"]["balls"] == 1 and passing["result"]["covering"]["value"] == 1.0
    assert power["result"]["error"] == area["result"]["error"] == "NonFinite"
    assert capsys.readouterr().err == ""


def test_a_subnormal_covering_delta_is_a_typed_record(tmp_path, capsys):
    # delta = 1e-323 once printed numpy overflow warnings on stderr and ended
    # in CloudTooSparse with spacing inf
    line = {"n": 1, "exprs": "0; 0; y1", "domain": [[-1, 1]]}
    tasks = [
        {"task": "covering-estimate", "opts": {"exponent": 1, "delta": delta}} for delta in (1e-323, 5e-324)
    ] + [{"task": "area-check", "opts": {"probes": [[0.2]], "covering_delta": delta}} for delta in (1e-323, 5e-324)]
    path = write_config(tmp_path, {**BASE, "submanifold": line, "tasks": tasks})
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 1
    for record in json.loads((tmp_path / "out" / "report.json").read_text())["tasks"]:
        assert record["status"] == "error" and record["result"]["error"] == "NonFinite"
        assert "smallest normal float" in record["result"]["message"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "distance",
    [
        {"kind": "euclidean_ball", "params": []},
        {"kind": "euclidean_ball", "params": 0.5},
        {"kind": "euclidean_ball", "params": ["a"]},
        {"kind": "box", "params": ["a", 1]},
        {"kind": "box", "seed": "a"},
        {"kind": "multiradial", "phi": 5},
        5,
        {"kind": "box", "params": [1.0, float("nan")]},
        {"kind": "euclidean_ball", "params": [float("nan")]},
        {"kind": "euclidean_ball", "params": [float("inf")]},
        {"kind": "cygan_koranyi", "phi": "t1", "seed": 3},
        {"kind": "box", "params": [1.0, 1.0], "seed": 5},
        {"kind": "euclidean_ball", "phi": "t1"},
    ],
    ids=[
        "ball-params-empty", "ball-params-number", "ball-params-text", "box-params-text", "box-seed-text",
        "multiradial-phi-number", "distance-number", "box-nan-weight", "ball-nan-radius", "ball-inf-radius",
        "koranyi-phi-seed", "box-params-seed", "ball-phi",
    ],
)
def test_malformed_distance_blocks_are_typed_records(tmp_path, capsys, distance):
    # each of these once ended verify-distance in an untyped error with a
    # traceback, or passed it having tested nothing (every norm nan or 0, or
    # a key the kind never reads)
    path = write_config(tmp_path, {**BASE, "distance": distance, "tasks": [{"task": "verify-distance"}]})
    assert run(path, out_dir=tmp_path / "out", quiet=True) == 1
    record = json.loads((tmp_path / "out" / "report.json").read_text())["tasks"][0]
    assert record["status"] == "error" and record["result"]["error"] == "BadDimensions"
    assert capsys.readouterr().err == ""


ESTIMATE = {"value", "stderr", "samples", "seed", "method"}
# one entry per task, two for concavity-check (a ball and an ellipsoid body)
# and intrinsic-measure (tensor and mc quadrature), with its record's keys
EVERY_TASK = [
    ({"task": "validate-group"}, "group q step layers hom_dimension q_n valid"),
    ({"task": "catalog"}, "groups distances"),
    ({"task": "analyze-point", "opts": {"y": [0.1, -0.2]}},
     "y p degree alpha regular classification q_n characteristic htangent_basis notes"),
    ({"task": "degree-map", "opts": {"grid": 3}}, "max_degree low_degree_fraction cells failures csv"),
    ({"task": "spherical-factor", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "samples": 2000}}, "beta"),
    ({"task": "federer-density",
      "opts": {"y0": [0.1, -0.2], "radii": [0.1, 0.05], "centers_per_radius": 2, "samples": 4000}},
     "theta trace_csv"),
    ({"task": "area-check", "opts": {"probes": [[0.1, -0.2]], "samples": 6000, "covering_delta": 0.4}},
     "mu beta theta covering verdicts"),
    ({"task": "coarea-check", "opts": {"domain": [[-1, 1], [-1, 1], [-1, 1]]}}, "lhs rhs tolerance passed"),
    ({"task": "blowup-check", "opts": {"y0": [0.1, -0.2]}}, "case advisory tangent_rows rates passed"),
    ({"task": "concavity-check", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "segments": 5, "samples": 2000}},
     "segments checks violations skipped worst_deficit reason passed advisory"),
    ({"task": "concavity-check", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "body": {"kind": "ellipsoid"},
                                          "segments": 5, "samples": 2000}},
     "segments checks violations skipped worst_deficit reason passed advisory"),
    ({"task": "translation-check", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "p": [0.1, 0.2, 0.3], "samples": 2000}},
     "volume_before volume_after max_det_deviation passed reason"),
    ({"task": "beta-constancy", "opts": {"family": [[[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]]], "samples": 2000}},
     "values stderrs spread max_pairwise_z passed advisory reason"),
    ({"task": "verify-distance", "opts": {"samples": 2000}}, "triangle_violations worst_ratio samples seed passed"),
    ({"task": "calibrate-box", "opts": {"samples": 2000}}, "epsilons verification"),
    ({"task": "intrinsic-measure", "opts": {"resolution": 8}}, "mu"),
    ({"task": "intrinsic-measure", "opts": {"quadrature": "mc", "samples": 2000}}, "mu"),
    ({"task": "covering-estimate", "opts": {"exponent": 3, "delta": 1.2, "cloud_size": 500}}, "covering"),
    ({"task": "prop-suite", "opts": {"groups": ["heisenberg(1)", "engel"], "samples": 200}},
     "tolerance samples groups"),
]


def test_every_task_runs_and_passes(tmp_path, capsys):
    # one run of every task pins the keys of each record and of the records
    # inside it that are built from the result dataclasses
    assert {task["task"] for task, _ in EVERY_TASK} == set(cli.TASKS)
    path = write_config(tmp_path, {**BASE, "tasks": [task for task, _ in EVERY_TASK]})
    out = tmp_path / "out"
    assert run(path, out_dir=out, quiet=True) == 0
    assert capsys.readouterr().err == ""
    records = json.loads((out / "report.json").read_text())["tasks"]
    for (task, keys), record in zip(EVERY_TASK, records, strict=True):
        assert record["task"] == task["task"] and record["status"] == "pass"
        assert set(record["result"]) == set(keys.split()), task["task"]
    results = [record["result"] for record in records]
    factor, federer, area, coarea, blowup = results[4:9]
    translation, constancy, verify, calibration, tensor, sampled, covering = results[11:18]
    for estimate in (factor["beta"], federer["theta"], area["mu"], area["beta"]["probe0"], area["theta"]["probe0"],
                     area["covering"], tensor["mu"], sampled["mu"], covering["covering"]):
        assert set(estimate) == ESTIMATE | {"meta"} and estimate["meta"]
    assert set(translation["volume_before"]) == set(translation["volume_after"]) == ESTIMATE
    assert all(set(rate) == {"index", "expected_exponent", "in_tangent_set", "identically_zero", "fitted_slope",
                             "passed"} for rate in blowup["rates"])
    assert len(constancy["values"]) == len(constancy["stderrs"]) == 2
    assert set(calibration["verification"]) == set(verify)
    assert coarea["lhs"] == coarea["rhs"] == 8.0
    for name in ("federer_trace", "area_probe0_trace"):
        assert (out / f"{name}.csv").read_text().splitlines()[0] == "radius,ratio,stderr,hits"
    assert (out / "area_covering_trace.csv").read_text().splitlines()[0] == "delta,value"
