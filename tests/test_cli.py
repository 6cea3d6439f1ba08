import json
import re
from pathlib import Path

import numpy as np
import pytest

from nilgeom import cli
from nilgeom.cli import load_config, main, run, task_catalog
from nilgeom.errors import ConfigError


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
    ],
    ids=[
        "coarea-no-domain", "covering-no-exponent", "covering-no-delta", "covering-delta-zero",
        "covering-delta-negative", "covering-exponent-text", "unknown-quadrature",
        "area-covering-delta-zero", "blowup-no-y0",
    ],
)
def test_bad_opts_are_config_errors_before_any_work(tmp_path, capsys, monkeypatch, bad_task):
    # the opts are checked before the run starts: no task function is called
    # for the bad task, the good ones still run, and nothing goes to stderr
    called = []
    for name in ("coarea-check", "covering-estimate", "intrinsic-measure", "area-check", "blowup-check"):
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
