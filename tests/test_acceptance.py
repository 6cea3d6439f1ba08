"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import json
import time

import numpy as np
import pytest

from nilgeom.algebra import Subspace, catalog_group, classify_subspace, h_type, heisenberg
from nilgeom.cli import group_property_residuals, run as cli_run
from nilgeom.manifold import (
    classify_point,
    horizontal_tangency,
    parse_parametrization,
    q_n_max_degree,
)
from nilgeom.measure import (
    ball_body,
    beta_constancy_check,
    box_body,
    coarea_check,
    ellipsoid_body,
    federer_density,
    hypersurface_density,
    section_area,
    section_concavity_check,
    spherical_factor,
    vertical_translation_check,
)
from nilgeom.metrics import box_distance, cygan_koranyi_distance, multiradial_distance
from nilgeom.mc import stream
from oracles.manifold import q_n_bruteforce
from oracles.measure import hypersurface_density_multivector

H1 = heisenberg(1)
BOX = box_distance(H1, [1.0, 1.0])


def report(criterion: int, passed: bool, detail: str, started: float):
    line = f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} ({time.monotonic() - started:6.2f}s) {detail}"
    print(line)
    assert passed, line


def test_criterion_01_paraboloid_characteristic_point():
    started = time.monotonic()
    parab = parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-1, 1]], H1)
    a = classify_point(parab, [0.0, 0.0])
    span_e12 = Subspace(H1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    same_span = (
        a.htangent is not None
        and np.linalg.matrix_rank(
            np.hstack([a.htangent.orthonormal_basis(), span_e12.orthonormal_basis()]), tol=1e-9
        )
        == 2
    )
    ok = (
        a.degree == 2
        and same_span
        and a.regular is False
        and a.characteristic is True
        and time.monotonic() - started < 1.0
    )
    report(1, ok, f"degree={a.degree} regular={a.regular} characteristic={a.characteristic}", started)


def test_criterion_02_legendrian_chart_h2():
    started = time.monotonic()
    g = heisenberg(2)
    leg = parse_parametrization("y1; y2; y1^2; 0; y1^3/3", 2, [[-1, 1], [-1, 1]], g)
    grid = np.linspace(-0.8, 0.8, 5)
    ok = True
    for y1 in grid:
        for y2 in grid:
            a = classify_point(leg, [y1, y2])
            kinds = classify_subspace(g, a.htangent)
            ok = ok and a.classification == "horizontal" and a.regular
            ok = ok and kinds.horizontal and kinds.subalgebra
            ok = ok and horizontal_tangency(leg, [y1, y2])
            basis = a.htangent.orthonormal_basis()
            bracket = g.bracket(basis[:, 0], basis[:, 1])
            ok = ok and float(np.max(np.abs(bracket))) < 1e-12  # commutative
    ok = ok and time.monotonic() - started < 1.0
    report(2, ok, "25 grid points horizontal with commutative horizontal h-tangent", started)


def test_criterion_03_group_law_property_suite():
    started = time.monotonic()
    worst = {}
    for name in ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "engel", "free2(3)"]:
        g = catalog_group(name)
        res = group_property_residuals(g, samples=10_000, seed=0)
        worst[name] = max(res.values())
    ok = max(worst.values()) < 1e-9 and time.monotonic() - started < 10.0
    report(3, ok, f"max residual {max(worst.values()):.2e}", started)


def test_criterion_04_q_n_oracle_equivalence():
    started = time.monotonic()
    ok = True
    for name in ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)"]:
        g = catalog_group(name)
        for n in range(1, g.q + 1):
            ok = ok and q_n_max_degree(g, n) == q_n_bruteforce(g, n)
    ok = ok and time.monotonic() - started < 1.0
    report(4, ok, "closed form equals brute-force tuple scan on all catalog groups", started)


@pytest.mark.parametrize(
    "label,exprs,n,domain,probe",
    [
        ("transversal plane", "y1; 0; y2", 2, [[-1, 1], [-1, 1]], [0.1, -0.2]),
        ("horizontal helix", "cos(y1); sin(y1); y1", 1, [[-3, 3]], [0.3]),
        ("vertical line", "0; 0; y1", 1, [[-1, 1]], [0.2]),
    ],
)
def test_criterion_05_upper_blowup_desk_scale(label, exprs, n, domain, probe):
    started = time.monotonic()
    chart = parse_parametrization(exprs, n, domain, H1)
    analysis = classify_point(chart, probe)
    beta = spherical_factor(BOX, analysis.htangent, samples=400_000, seed=21)
    theta, trace = federer_density(chart, BOX, probe, samples=60_000, seed=22)
    rel = abs(theta.value - beta.value) / beta.value
    flat = theta.meta["flat_window_found"]
    budget = 10 * 60_000 + 400_000  # samples actually drawn, well under 1e7
    ok = rel <= 0.05 and flat and budget <= 10**7 and time.monotonic() - started < 300.0
    report(5, ok, f"{label}: theta={theta.value:.4f} beta={beta.value:.4f} rel={rel:.3%} flat={flat}", started)


def test_criterion_06_convex_ball_factor_shortcut_vs_search():
    started = time.monotonic()
    h = h_type()
    cases = []
    # heisenberg(1): vertical line and vertical plane, box and Cygan-Koranyi
    v1 = Subspace(H1, np.array([[0.0], [0.0], [1.0]]))
    v2 = Subspace(H1, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    for dist in (BOX, cygan_koranyi_distance(H1)):
        for space in (v1, v2):
            cases.append((H1, dist, space))
    # h_type: the second layer and a 4-dimensional vertical subgroup
    w1 = np.zeros((7, 3))
    w1[4:, :] = np.eye(3)
    w2 = np.zeros((7, 4))
    w2[0, 0] = 1.0
    w2[4:, 1:] = np.eye(3)
    for dist in (box_distance(h, [1.0, 1.0]), cygan_koranyi_distance(h)):
        for space in (Subspace(h, w1), Subspace(h, w2)):
            cases.append((h, dist, space))
    ok = True
    details = []
    for group, dist, space in cases:
        base = section_area(dist, space, np.zeros(group.q), samples=200_000, seed=23, tag="c6-base")
        searched = spherical_factor(dist, space, samples=200_000, seed=23, force_search=True)
        slack = 3.0 * float(np.hypot(base.stderr, searched.stderr))
        ok = ok and searched.value <= base.value + slack
        details.append(f"{dist.kind}/{space.dim}d: search={searched.value:.4f} base={base.value:.4f}")
    ok = ok and time.monotonic() - started < 120.0
    report(6, ok, "; ".join(details), started)


def test_criterion_07_beta_constancy_verticals():
    started = time.monotonic()
    rng = stream(31, "criterion7")
    fam = []
    for _ in range(8):
        phi = rng.uniform(0.0, np.pi)
        basis = np.zeros((3, 2))
        basis[0, 0], basis[1, 0], basis[2, 1] = np.cos(phi), np.sin(phi), 1.0
        fam.append(Subspace(H1, basis))
    rep1 = beta_constancy_check(BOX, fam, samples=150_000, seed=32)

    g = catalog_group("free2(3)")
    d = multiradial_distance(g, "max(t1, 1.2*t2^0.5)")
    fam2 = []
    for _ in range(8):
        line = rng.standard_normal(3)
        line /= np.linalg.norm(line)
        basis = np.zeros((6, 4))
        basis[:3, 0] = line
        basis[3:, 1:] = np.eye(3)
        fam2.append(Subspace(g, basis))
    rep2 = beta_constancy_check(d, fam2, samples=150_000, seed=33)
    ok = rep1.passed and rep2.passed and time.monotonic() - started < 180.0
    report(
        7,
        ok,
        f"H1 z={rep1.max_pairwise_z:.2f}; free2(3) z={rep2.max_pairwise_z:.2f} over 8+8 verticals",
        started,
    )


def test_criterion_08_section_concavity():
    started = time.monotonic()
    space12 = Subspace(H1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    space13 = Subspace(H1, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    bodies = [
        (box_body([1, 1, 1]), space12, "cube"),
        (ellipsoid_body(np.eye(3)), space12, "euclidean-ball"),
        (ball_body(BOX), space13, "box-ball"),
    ]
    ok = True
    details = []
    for body, space, label in bodies:
        rep = section_concavity_check(body, space, segments=1000, samples=6000, seed=41)
        ok = ok and rep.violations == 0 and rep.segments == 1000
        details.append(f"{label}: {rep.violations} violations / {rep.checks} checks")
    ok = ok and time.monotonic() - started < 120.0
    report(8, ok, "; ".join(details), started)


def test_criterion_09_vertical_translation_invariance():
    started = time.monotonic()
    rng = stream(51, "criterion9")
    failures = 0
    v_h1 = Subspace(H1, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    g2 = catalog_group("free2(3)")
    basis = np.zeros((6, 4))
    basis[0, 0] = 1.0
    basis[3:, 1:] = np.eye(3)
    v_f2 = Subspace(g2, basis)
    for i in range(50):
        p = rng.uniform(-1, 1, 3)
        half = rng.uniform(0.5, 1.5, 2)
        box = np.stack([-half, half], axis=1)
        rep = vertical_translation_check(H1, v_h1, p, box=box, samples=30_000, seed=52 + i)
        failures += 0 if rep.passed else 1
    for i in range(50):
        p = rng.uniform(-1, 1, 6)
        half = rng.uniform(0.5, 1.2, 4)
        box = np.stack([-half, half], axis=1)
        rep = vertical_translation_check(g2, v_f2, p, box=box, samples=30_000, seed=152 + i)
        failures += 0 if rep.passed else 1
    ok = failures == 0 and time.monotonic() - started < 120.0
    report(9, ok, f"{failures} failures over 100 random (p, A) pairs", started)


def test_criterion_10_hypersurface_density_identity():
    started = time.monotonic()
    h2 = heisenberg(2)
    surfaces = [
        parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1),
        parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-1, 1]], H1),
        parse_parametrization("y1; y2; y3; y4; y1*y2", 4, [[-1, 1]] * 4, h2),
    ]
    rng = stream(61, "criterion10")
    worst = 0.0
    count = 0
    for chart in surfaces:
        ys = rng.uniform(-0.9, 0.9, (334, chart.n))
        for y in ys:
            a = hypersurface_density(chart, y)
            b = hypersurface_density_multivector(chart, y)
            worst = max(worst, abs(a - b))
            count += 1
    ok = worst < 1e-9 and count >= 1000 and time.monotonic() - started < 5.0
    report(10, ok, f"max |normal-route - multivector-route| = {worst:.2e} at {count} points", started)


def test_criterion_11_coarea_balance():
    started = time.monotonic()
    domain = [[0, 1], [0, 1], [0, 1]]
    rep1 = coarea_check(H1, 1, "0", "1", domain, resolution=32, tolerance=0.02)
    rep2 = coarea_check(H1, 1, "0", "x2^2", domain, resolution=32, tolerance=0.02)
    ok = rep1.passed and rep2.passed and time.monotonic() - started < 60.0
    report(
        11,
        ok,
        f"u=1: {rep1.lhs:.5f} vs {rep1.rhs:.5f}; u=x2^2: {rep2.lhs:.5f} vs {rep2.rhs:.5f}",
        started,
    )


def test_criterion_12_reproducibility(tmp_path):
    started = time.monotonic()
    config = {
        "name": "repro",
        "group": "heisenberg(1)",
        "distance": {"kind": "box", "params": [1.0, 1.0]},
        "submanifold": {"n": 2, "exprs": "y1; 0; y2", "domain": [[-1, 1], [-1, 1]]},
        "seed": 77,
        "tasks": [
            {"task": "validate-group"},
            {"task": "spherical-factor", "opts": {"subspace": [[1, 0, 0], [0, 0, 1]], "samples": 50000}},
            {"task": "federer-density", "opts": {"y0": [0.1, -0.2], "samples": 20000}},
            {"task": "degree-map", "opts": {"grid": 5}},
        ],
    }
    cfg = tmp_path / "repro.json"
    cfg.write_text(json.dumps(config))
    assert cli_run(cfg, out_dir=tmp_path / "a", quiet=True) == 0
    assert cli_run(cfg, out_dir=tmp_path / "b", quiet=True) == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("meta")
    rb.pop("meta")
    identical = json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    trace_same = (tmp_path / "a" / "federer_trace.csv").read_text() == (
        tmp_path / "b" / "federer_trace.csv"
    ).read_text()
    ok = identical and trace_same
    report(12, ok, "report.json and CSV traces byte-identical for equal seeds", started)
