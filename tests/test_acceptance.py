"""The eleven acceptance gates, one test per criterion.

Running `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.  Scales, tolerances and runtime budgets are fixed here;
the per-module test files carry the same oracles at smaller sizes for
day-to-day work, and this file imports those oracles rather than
restating them.  The same standard-suite comparison that criteria 7-8
read is also pinned byte for byte to the digest the benchmark records.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import toy_mdp
from test_geometry import box_with_bottom
from test_scenario import _first_detection_range
from test_tracking import (
    _random_observable_state,
    brute_force_assignment,
    fd_jacobian,
    kalman_alone,
    random_spd,
    textbook_linear_kf,
)

from rearguard.cli import EXIT_OK, main
from rearguard.evaluation import (
    REPORT_NOTES,
    SAMPLER_KINDS,
    PipelineConfig,
    compare,
    comparison_to_dict,
    format_comparison,
    standard_suite,
)
from rearguard.geometry import CameraIntrinsics, ImuPose, horizon_line, pose_model
from rearguard.risk import assess, risk_level, ttc
from rearguard.sampler import BLINK, SKIP
from rearguard.scenario import DetectorConfig
from rearguard.tracking import max_weight_assignment

INTR = CameraIntrinsics(f_x=600.0, f_y=600.0, c_x=320.0, c_y=320.0)
H_E = 1.55


def test_criterion_01_ground_depth_roundtrip():
    # 10,000 points, depth 2-60 m, pitch within 15 degrees, noise-free;
    # relative error <= 1%, wall time < 5 s
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        depth = rng.uniform(2.0, 60.0)
        pitch = rng.uniform(-math.radians(15), math.radians(15))
        observe, _, locate, _ = pose_model(ImuPose(pitch, 0.0), INTR, H_E)
        box = box_with_bottom(horizon_line(INTR, pitch) + observe(0.0, depth, 1.5)[4])
        located = locate(box)
        assert located is not None
        worst = max(worst, abs(located[3] - depth) / depth)
    elapsed = time.perf_counter() - start
    assert worst <= 0.01, f"worst relative error {worst:.4%}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_02_jacobian_vs_finite_differences():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1_000):
        x, z, pose = _random_observable_state(rng)
        h_obj = rng.uniform(0.8, 2.0)
        H = np.array(pose_model(pose, INTR, H_E)[1](x, z, h_obj)).reshape(3, 4)
        H_fd = fd_jacobian(x, z, h_obj, pose, INTR, H_E)
        rel = np.max(np.abs(H - H_fd)) / max(np.max(np.abs(H_fd)), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"


def test_criterion_03_assignment_equals_exhaustive_optimum():
    rng = np.random.default_rng(1003)
    for i in range(1_000):
        nr = int(rng.integers(0, 6))
        nc = int(rng.integers(0, 6))
        if i % 3 == 0:
            W = rng.choice([0.2, 0.5, 0.8], size=(nr, nc))
        else:
            W = rng.uniform(0, 1, size=(nr, nc))
        eligible = rng.random((nr, nc)) < 0.6
        W = np.where(eligible, W, 0.0)
        got_pairs, got_total = max_weight_assignment(W, eligible)
        want_pairs, want_total = brute_force_assignment(W, eligible)
        assert sorted(got_pairs) == want_pairs, f"instance {i}: pair sets differ"
        assert got_total == want_total, f"instance {i}: totals differ"


def test_criterion_04_linear_measurement_matches_textbook_kf():
    rng = np.random.default_rng(1004)
    H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    R = np.diag([0.25, 0.25])
    for _ in range(1_000):
        vec = rng.normal(0, 10, 4)
        P = random_spd(rng)
        meas = H @ vec + rng.normal(0, 0.5, 2)
        keep, got_vec, got_P = kalman_alone(vec, P, meas - H @ vec, H, R)
        want_vec, want_P = textbook_linear_kf(vec, P, meas, H, R)
        assert keep[0]
        assert np.max(np.abs(got_vec[0] - want_vec)) <= 1e-9
        assert np.max(np.abs(got_P[0] - want_P)) <= 1e-9


def test_criterion_05_sarsa_converges_on_the_toy_mdp():
    # 10 of 10 seeds: greedy policy optimal and max-norm error <= 0.05
    # within 50,000 steps, all inside 30 s
    q_star = toy_mdp.value_iteration(toy_mdp.TOY_CONFIG.beta)
    start = time.perf_counter()
    for seed in range(10):
        q = toy_mdp.run_sarsa(50_000, seed)
        err = max(abs(q.get(s, a) - q_star[(s, a)]) for s, a in q_star)
        assert err <= 0.05, f"seed {seed}: max-norm Q error {err:.4f}"
        for s in toy_mdp.STATES:
            want = max((SKIP, BLINK), key=lambda a: q_star[(s, a)])
            got = max((SKIP, BLINK), key=lambda a: q.get(s, a))
            assert got == want, f"seed {seed}: greedy policy differs in state {s}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_06_detector_first_detection_medians():
    det = DetectorConfig()
    car = np.median([_first_detection_range(s, "car", det) for s in range(1_000)])
    cycle = np.median([_first_detection_range(s, "cycle", det) for s in range(1_000)])
    assert abs(car - 12.0) <= 1.0, f"car median {car:.2f} m"
    assert abs(cycle - 6.0) <= 0.8, f"cycle median {cycle:.2f} m"


@pytest.fixture(scope="module")
def suite_report():
    """One budget-matched run of the full grid, shared by criteria 7-8 and
    the digest pin."""
    return compare(standard_suite(), list(SAMPLER_KINDS), PipelineConfig())


@pytest.fixture(scope="module")
def suite_aggregates(suite_report):
    return suite_report.aggregates


def test_criterion_07_blink_budget_and_fnr_vs_everyframe(suite_aggregates):
    sarsa = suite_aggregates["sarsa"]
    ef = suite_aggregates["everyframe"]
    ratio = sarsa["blink_fraction"] / ef["blink_fraction"]
    fnr_gap = sarsa["fnr"] - ef["fnr"]
    assert ratio <= 0.35, f"blink fraction ratio {ratio:.3f} exceeds 0.35"
    assert fnr_gap <= 0.02, f"fnr gap {fnr_gap * 100:.2f}pp exceeds 2pp"


def test_criterion_08_fpr_ordering_at_matched_budgets(suite_aggregates):
    sarsa = suite_aggregates["sarsa"]
    for kind in ("interval", "random"):
        other = suite_aggregates[kind]
        gap = abs(other["blink_fraction"] - sarsa["blink_fraction"])
        assert gap <= 0.10 * sarsa["blink_fraction"], (
            f"{kind} budget {other['blink_fraction']:.3f} not within 10% of "
            f"sarsa {sarsa['blink_fraction']:.3f}"
        )
        assert sarsa["fpr"] <= other["fpr"], (
            f"sarsa fpr {sarsa['fpr']:.4f} above {kind} {other['fpr']:.4f}"
        )


def test_standard_suite_comparison_bytes_match_the_recorded_digest(suite_report):
    # the digest perfbench records for suite-compare; any change to a
    # comparison.json byte must re-record it there, on purpose
    recorded = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
    want = recorded["recorded"]["suite-compare"]["*"]["comparison"]
    payload = json.dumps(comparison_to_dict(suite_report), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == want


def test_criterion_09_absolute_field_rates_declared_out_of_scope():
    # nothing numeric to check: absolute field alert rates would need field
    # recordings this harness does not have, so reports must say so rather
    # than quietly print lookalike numbers
    note = [n for n in REPORT_NOTES if "out of scope" in n]
    assert note, "reports no longer declare absolute rates out of scope"
    rep = compare(standard_suite()[:1], ["everyframe"], PipelineConfig(warmup_s=0.0))
    assert any("out of scope" in line for line in format_comparison(rep).splitlines())


def test_criterion_10_cmd_run_is_byte_deterministic(tmp_path):
    cfg = {
        "seed": 9,
        "warmup_s": 0.0,
        "sampler": {"kind": "sarsa"},
        "scenario": {
            "seed": 31,
            "duration": 12.0,
            "user": {"mode": "standing"},
            "vehicles": [
                {"cls": "car", "spawn_time": 1.0, "x0": 0.9, "z0": -25.0, "speed": 2.4},
            ],
        },
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("report.json", "events.jsonl", "qtable.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    digest = json.loads((tmp_path / "a" / "report.json").read_text())["config_digest"]
    assert len(digest) == 64


def test_criterion_11_risk_worked_examples_exact():
    assert ttc(0.0, -10.0, 0.0, 2.0) == 5.0
    assert ttc(0.0, -10.0, 0.0, -2.0) == -5.0
    assert ttc(10.0, 0.0, 0.0, 3.0) is None
    assert risk_level(0.0, 3.3) == 1.0
    assert risk_level(5.0, 3.3) == 0.0
    assert risk_level(1.65, 3.3) == 0.5

    class Obj:
        def __init__(self, oid, x, z, vx, vz):
            self.id, self.x, self.z, self.vx, self.vz = oid, x, z, vx, vz

    empty = assess([], 3.3, 0.01)
    assert empty.gamma_overall == 0.0 and not empty.alert
    slow = assess([Obj(1, 0.0, -10.0, 0.0, 2.0)], 3.3, 0.01)
    assert not slow.alert  # ttc 5.0 s maps to kappa 0
