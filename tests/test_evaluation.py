"""Harness-level checks: scoring definitions, baselines, aggregation.

The headline comparisons (budget ratios, error orderings on the full
suite) live in the acceptance tests.  Here the counting rules are pinned
on traces small enough to verify every flag by hand.
"""

import json
import math
import multiprocessing
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearguard import evaluation
from rearguard.evaluation import (
    SAMPLER_KINDS,
    ComparisonReport,
    PipelineConfig,
    TickRecord,
    TruthLabel,
    TruthLabels,
    compare,
    comparison_to_dict,
    config_digest,
    format_comparison,
    label_truth,
    make_sampler,
    report_to_dict,
    run_pipeline,
    standard_suite,
)
from rearguard.scenario import (
    DEFAULT_FOV,
    CameraConfig,
    DetectorConfig,
    Frame,
    GroundTruthObject,
    GroundTruthTick,
    HeadMotionConfig,
    InvalidConfig,
    ScenarioConfig,
    UserConfig,
    VehicleConfig,
    generate,
    sensing_footprint,
)
from rearguard.geometry import BoundingBox2D, CameraIntrinsics, ImuPose
from rearguard.risk import (
    DEFAULT_ALERT_THRESHOLD,
    DEFAULT_REACTION_TIME_S,
    ObjectRisk,
    RiskAssessment,
    RiskConfig,
    assess,
)
from rearguard.sampler import QTable, SamplerConfig
from rearguard.tracking import Assignment, Track, TrackerConfig, TrackerState

REAR = ImuPose(pitch=0.0, yaw=math.pi)
NO_WARMUP = PipelineConfig(warmup_s=0.0)
STILL_HEAD = HeadMotionConfig(0.0, 4.0, 0.0, 3.5, 0.0)


def car(x, z, vx=0.0, vz=0.0, oid=1):
    return GroundTruthObject(id=oid, cls="car", x=x, z=z, vx=vx, vz=vz, height=1.5)


def hand_trace(objects_by_tick):
    """Aligned (frames, truth) with no detections, one entry per tick."""
    frames, truth = [], []
    for i, objs in enumerate(objects_by_tick):
        t = round(i * 0.1, 3)
        frames.append(Frame(t=t, pose=REAR, detections=()))
        truth.append(GroundTruthTick(t=t, pose=REAR, objects=tuple(objs)))
    return frames, truth


def quick_scenario(seed=7, duration=15.0, vehicles=(), **kw):
    return ScenarioConfig(
        seed=seed,
        duration=duration,
        user=UserConfig(mode="standing"),
        head_motion=STILL_HEAD,
        vehicles=tuple(vehicles),
        **kw,
    )


# ------------------------------------------------------- danger labeling

def ground_truth_danger(truth_tick, t_r=DEFAULT_REACTION_TIME_S,
                        alert_threshold=DEFAULT_ALERT_THRESHOLD) -> bool:
    """The alerting rule applied to one tick's true object states, the
    raw danger that label_truth's `excluded` folds in."""
    return assess(truth_tick.objects, t_r, alert_threshold, now=truth_tick.t).alert


def in_sensing_footprint(x, z, cls, pose, cam, fov=DEFAULT_FOV) -> bool:
    """One object's sensing_footprint, bound for its pose alone."""
    return sensing_footprint(pose, cam, fov)(x, z, cls)


def tick_at(objs, t=0.0):
    return GroundTruthTick(t=t, pose=REAR, objects=tuple(objs))


def test_head_on_short_ttc_is_dangerous():
    # closing at 2 m/s from 2 m: ttc = 1.0 s, well inside the budget
    assert ground_truth_danger(tick_at([car(0.0, -2.0, vz=2.0)]))


def test_no_objects_is_safe():
    assert not ground_truth_danger(tick_at([]))


def test_receding_object_is_safe():
    assert not ground_truth_danger(tick_at([car(0.0, -8.0, vz=-2.0)]))


def test_danger_needs_ttc_inside_budget():
    # same geometry, ttc 4.0 s vs 3.0 s; the boundary sits at
    # t_r * (1 - threshold) = 3.267 s
    assert not ground_truth_danger(tick_at([car(0.0, -8.0, vz=2.0)]))
    assert ground_truth_danger(tick_at([car(0.0, -6.0, vz=2.0)]))


def test_observable_danger_drops_objects_below_the_frame():
    # 1.2 m behind the user the ground contact is below the image edge;
    # the raw label fires, the observable one must not, so the tick is
    # excluded from scoring
    close = tick_at([car(0.0, -1.2, vz=2.0)])
    assert ground_truth_danger(close)
    (label,) = label_truth([close], CameraConfig()).ticks
    assert (label.danger, label.excluded, label.visible) == (False, True, ())


def _labels_by_definition(truth, camera, fov, config):
    """label_truth object by object: in_sensing_footprint, then assess on
    the sensed objects, then ground_truth_danger."""
    t_r, threshold = config.reaction_time, config.alert_threshold
    labels = []
    for tick in truth:
        sensed = [o for o in tick.objects
                  if in_sensing_footprint(o.x, o.z, o.cls, tick.pose, camera, fov)]
        danger = assess(sensed, t_r, threshold, now=tick.t).alert
        excluded = not danger and ground_truth_danger(tick, t_r, threshold)
        visible = tuple(o for o in sensed if o.range <= config.tracker.d_max)
        labels.append(TruthLabel(tick.t, danger, excluded, visible))
    return tuple(labels)


@st.composite
def _labelled_truth(draw):
    """Truth ticks under one random camera, fov and risk config, with
    objects on the view-cone edge, on the image margins, beyond d_max and
    at the user origin beside ordinary ones."""
    fov = draw(st.floats(0.2, 3.0))
    size = (draw(st.integers(100, 1000)), draw(st.integers(100, 1000)))
    camera = CameraConfig(
        intrinsics=CameraIntrinsics(draw(st.floats(200.0, 900.0)), draw(st.floats(200.0, 900.0)),
                                    size[0] * draw(st.floats(0.3, 0.7)),
                                    size[1] * draw(st.floats(0.3, 0.7))),
        image_size=size,
        camera_height=draw(st.floats(0.5, 2.5)),
        margin_px=draw(st.floats(0.0, 200.0)))
    config = PipelineConfig(reaction_time=draw(st.floats(0.5, 6.0)),
                            alert_threshold=draw(st.floats(0.0, 1.0, exclude_min=True)),
                            tracker=TrackerConfig(d_max=draw(st.floats(2.0, 40.0))))
    intr, (img_w, img_h) = camera.intrinsics, camera.image_size
    truth = []
    for k in range(draw(st.integers(1, 4))):
        pose = ImuPose(draw(st.floats(-0.5, 0.5)), draw(st.floats(-math.pi, math.pi)))
        objects = []
        for oid in range(1, draw(st.integers(0, 6)) + 1):
            cls = draw(st.sampled_from(["car", "cycle"]))
            where = draw(st.sampled_from(["anywhere", "cone-edge", "side-margin",
                                          "bottom-margin", "beyond-d-max", "origin"]))
            depth = draw(st.floats(0.3, 45.0))
            if where == "cone-edge":
                bearing = draw(st.sampled_from([-1, 1])) * fov / 2 + draw(st.floats(-1e-9, 1e-9))
            elif where == "side-margin":
                # the box edge on the padded image edge, give or take a pixel
                w_px = intr.f_x * {"car": 1.8, "cycle": 0.6}[cls] / depth
                u = draw(st.sampled_from([-camera.margin_px + w_px / 2,
                                          img_w + camera.margin_px - w_px / 2]))
                u += draw(st.floats(-1.0, 1.0))
                bearing = math.atan((u - intr.c_x) / (intr.f_x * math.cos(pose.pitch)))
            elif where == "bottom-margin":
                # the ground contact on the padded image bottom
                v_bottom = img_h + camera.margin_px + draw(st.floats(-1.0, 1.0))
                dy = v_bottom - (intr.c_y - intr.f_y * math.tan(pose.pitch))
                depth = intr.f_y * camera.camera_height / dy if dy > 1.0 else depth
                bearing = draw(st.floats(-fov / 2, fov / 2))
            else:
                bearing = draw(st.floats(-1.5, 1.5))
            if where == "beyond-d-max":
                depth = config.tracker.d_max * draw(st.floats(1.0, 1.5))
            # camera frame: n lateral, d forward (behind the camera for some)
            if where == "anywhere":
                n, d = draw(st.floats(-40.0, 40.0)), draw(st.floats(-10.0, 45.0))
            else:
                n, d = depth * math.tan(bearing), depth
            c, s = math.cos(pose.yaw), math.sin(pose.yaw)
            x, z = (0.0, 0.0) if where == "origin" else (c * n - s * d, s * n + c * d)
            # mostly closing on the user, at up to 15 m/s
            speed = draw(st.floats(0.0, 15.0))
            r = math.hypot(x, z) or 1.0
            vx = -x / r * speed + draw(st.floats(-2.0, 2.0))
            vz = -z / r * speed + draw(st.floats(-2.0, 2.0))
            objects.append(GroundTruthObject(oid, cls, x, z, vx, vz, 1.5))
        truth.append(GroundTruthTick(round(0.1 * k, 3), pose, tuple(objects)))
    return truth, camera, fov, config


@settings(max_examples=200, deadline=None)
@given(case=_labelled_truth())
def test_label_truth_equals_the_per_object_definition(case):
    truth, camera, fov, config = case
    labels = label_truth(truth, camera, fov, config)
    assert labels.ticks == _labels_by_definition(truth, camera, fov, config)
    assert all(type(label) is TruthLabel for label in labels.ticks)


def _counted_footprint(monkeypatch) -> Counter:
    """Count label_truth's footprint binds (one pose model each) and the
    projections made through them."""
    counts = Counter()
    real = evaluation.sensing_footprint

    def footprint(pose, camera, fov):
        counts["binds"] += 1
        sensed = real(pose, camera, fov)

        def counted(x, z, cls):
            counts["projections"] += 1
            return sensed(x, z, cls)
        return counted

    monkeypatch.setattr(evaluation, "sensing_footprint", footprint)
    return counts


D_MAX_20 = PipelineConfig(tracker=TrackerConfig(d_max=20.0))


def _label_as_defined(truth, config=D_MAX_20):
    labels = label_truth(truth, CameraConfig(), DEFAULT_FOV, config).ticks
    assert labels == _labels_by_definition(truth, CameraConfig(), DEFAULT_FOV, config)
    return labels


def test_label_projects_a_dangerous_object_beyond_d_max(monkeypatch):
    # 30 m behind, closing at 15 m/s: ttc 2 s, danger; beyond d_max, so not visible
    far = car(0.0, -30.0, vz=15.0)
    assert in_sensing_footprint(far.x, far.z, far.cls, REAR, CameraConfig())
    counts = _counted_footprint(monkeypatch)
    (label,) = _label_as_defined([tick_at([far])])
    assert (label.danger, label.excluded, label.visible) == (True, False, ())
    assert counts == {"binds": 1, "projections": 1}


def test_label_skips_a_receding_far_object_before_a_dangerous_one(monkeypatch):
    away = car(0.5, -35.0, vz=-3.0, oid=1)
    near = car(0.0, -6.0, vz=2.0, oid=2)
    counts = _counted_footprint(monkeypatch)
    (label,) = _label_as_defined([tick_at([away, near])])
    assert (label.danger, label.excluded, label.visible) == (True, False, (near,))
    # the receding object is skipped, and so is a second one after the danger
    assert counts == {"binds": 1, "projections": 1}
    _label_as_defined([tick_at([away, near, car(-0.5, -40.0, vz=-3.0, oid=3)])])
    assert counts == {"binds": 2, "projections": 2}


def test_label_projects_an_object_exactly_at_d_max(monkeypatch):
    edge = car(0.0, -20.0, vz=-3.0)
    assert edge.range == D_MAX_20.tracker.d_max
    counts = _counted_footprint(monkeypatch)
    (label,) = _label_as_defined([tick_at([edge])])
    assert (label.danger, label.excluded, label.visible) == (False, False, (edge,))
    assert counts == {"binds": 1, "projections": 1}


def test_label_projects_an_object_of_nan_range(monkeypatch):
    lost = car(math.nan, -30.0, vz=-3.0)
    counts = _counted_footprint(monkeypatch)
    (label,) = _label_as_defined([tick_at([lost])])
    assert (label.danger, label.excluded, label.visible) == (False, False, ())
    assert counts == {"binds": 1, "projections": 1}


def test_a_tick_of_skippable_objects_binds_no_pose_model(monkeypatch):
    counts = _counted_footprint(monkeypatch)
    labels = _label_as_defined([
        tick_at([car(0.5, -35.0, vz=-3.0, oid=1), car(30.0, 25.0, oid=2)], t=0.0),
        tick_at([], t=0.1),
    ])
    assert [(lb.danger, lb.excluded, lb.visible) for lb in labels] == [(False, False, ())] * 2
    assert counts == {}


# ------------------------------------------------------ records are values

_SENTINEL = object()
RECORDS = {
    "Track": lambda: Track(1, "car", 0.0, 0.0, 0.0, 0.0, np.eye(4), 1.5, 0.2),
    "TrackerState": lambda: TrackerState(),
    "Assignment": lambda: Assignment(((1, 0),), (), {}),
    "ObjectRisk": lambda: ObjectRisk(1, 2.0, 0.4),
    "RiskAssessment": lambda: RiskAssessment(0.5, (ObjectRisk(1, 2.0, 0.4),), 0.4, True),
    "TickRecord": lambda: TickRecord(0.5, True, False, False, False, True, 0.0),
    "TruthLabel": lambda: TruthLabel(0.5, True, False, ()),
    "Frame": lambda: Frame(0.5, REAR, (BoundingBox2D(1.0, 2.0, 3.0, 4.0),)),
    "GroundTruthObject": lambda: car(0.0, -5.0),
    "GroundTruthTick": lambda: tick_at([car(0.0, -5.0)]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_per_tick_records_stay_values(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, _SENTINEL)
    with pytest.raises(AttributeError):
        record.note = _SENTINEL
    first, *_ = record._fields
    before = record[0]
    changed = record._replace(**{first: _SENTINEL})
    assert type(changed) is type(record) and changed is not record
    assert changed[0] is _SENTINEL and record[0] is before
    assert changed[1:] == record[1:]


# ------------------------------------------------- hand-counted scoring

def test_rates_match_exhaustive_hand_count():
    # 12 ticks, never any detections, so no alerts can ever fire:
    #   ticks 0-3   empty road            -> safe, correct
    #   ticks 4-7   car at 6 m, ttc 3 s   -> observable danger, missed (fn)
    #   ticks 8-9   car at 1.2 m          -> danger the sensor cannot see,
    #                                        excluded from scoring
    #   ticks 10-11 receding car at 9 m   -> safe, correct
    per_tick = (
        [[]] * 4
        + [[car(0.0, -6.0, vz=2.0)]] * 4
        + [[car(0.0, -1.2, vz=2.0)]] * 2
        + [[car(0.0, -9.0, vz=-3.0)]] * 2
    )
    frames, truth = hand_trace(per_tick)
    report = run_pipeline(frames, truth, "everyframe", NO_WARMUP, keep_ticks=True)

    assert report.n_ticks == 12
    assert report.n_excluded == 2
    assert report.n_assessments == 10
    assert report.n_fp == 0
    assert report.n_fn == 4
    assert report.fpr == 0.0
    assert report.fnr == pytest.approx(0.4)
    assert report.blink_count == 12
    assert report.blink_fraction == 1.0
    assert report.n_danger_episodes == 1
    assert report.n_missed_episodes == 1
    assert report.n_false_alert_episodes == 0

    # recount from the tick records with the definitions spelled out
    scored = [r for r in report.ticks if r.measured and not r.excluded]
    assert len(scored) == report.n_assessments
    assert sum(r.alert and not r.danger for r in scored) == report.n_fp
    assert sum(r.danger and not r.alert for r in scored) == report.n_fn
    flags = [(r.danger, r.excluded, r.alert) for r in report.ticks]
    assert flags == (
        [(False, False, False)] * 4
        + [(True, False, False)] * 4
        + [(False, True, False)] * 2
        + [(False, False, False)] * 2
    )


def test_blink_fraction_counts_only_post_warmup_ticks():
    # interval period 3 over 12 empty ticks blinks at ticks 2, 5, 8 and 11;
    # warm-up ends at t=0.4 (tick 4), leaving 8 ticks with 3 blinks
    frames, truth = hand_trace([[]] * 12)
    cfg = replace(NO_WARMUP, warmup_s=0.4, sampler=replace(NO_WARMUP.sampler, period=3.0))
    report = run_pipeline(frames, truth, "interval", cfg, keep_ticks=True)
    assert report.blink_count == 4
    assert report.blink_fraction == 0.375
    assert [r.blink for r in report.ticks if r.measured] == [False, True, False] * 2 + [False, True]


@pytest.mark.parametrize(
    "obj, warmup_s, coverage",
    [
        (car(0.0, -20.0), 0.0, 0.0),   # visible and in range, never tracked
        (car(0.0, -35.0), 0.0, 1.0),   # beyond tracker.d_max: not counted
        (car(0.0, -1.2), 0.0, 1.0),    # below the frame: not counted
        (car(0.0, -20.0), 5.0, 1.0),   # only during warm-up: not counted
    ],
    ids=["visible", "beyond-d-max", "below-frame", "warm-up-only"],
)
def test_tracking_coverage_counts_visible_post_warmup_object_ticks(obj, warmup_s, coverage):
    # no detections, so no tracks: an object-tick that counts is uncovered
    frames, truth = hand_trace([[obj]] * 10)
    report = run_pipeline(frames, truth, "everyframe", replace(NO_WARMUP, warmup_s=warmup_s))
    assert report.tracking_coverage == coverage
    assert report.mean_tracking_error == 0.0


def test_fp_fn_bounded_by_assessments():
    per_tick = [[car(0.0, -5.0, vz=2.0)]] * 8
    frames, truth = hand_trace(per_tick)
    report = run_pipeline(frames, truth, "everyframe", NO_WARMUP)
    assert report.n_fp + report.n_fn <= report.n_assessments


def test_misaligned_truth_is_rejected():
    frames, truth = hand_trace([[]] * 5)
    with pytest.raises(ValueError, match="aligned"):
        run_pipeline(frames, truth[:-1], "everyframe", NO_WARMUP)


# reaction_time has one rule, risk.RiskConfig's, and one message
BAD_PIPELINE_VALUES = [
    (field, value, message)
    for field, message in (("warmup_s", "warmup_s: must be a finite number"),
                           ("reaction_time", "reaction_time: must be a positive finite number"),
                           ("alert_threshold", "alert_threshold: must be a finite number"))
    for value in (math.nan, math.inf, -math.inf, True, False)   # a bool is no number
] + [("reaction_time", value, "reaction_time: must be a positive finite number")
     for value in (0.0, -1.0)] + [
    # past the latest time a scenario reaches; 1e308 used to score 0 ticks with exit 0
    ("warmup_s", 1e308, r"warmup_s: must be at most 1e\+06 s, got 1e\+308")]


@pytest.mark.parametrize("field, value, message", BAD_PIPELINE_VALUES,
                         ids=[f"{value}-{field}" for field, value, _ in BAD_PIPELINE_VALUES])
def test_non_finite_pipeline_values_are_config_errors(field, value, message):
    with pytest.raises(InvalidConfig, match=message):
        PipelineConfig(**{field: value})


# an int too large for a double: math.isfinite raises OverflowError on it,
# which used to escape these checks instead of a config error
HUGE = 10**400
HUGE_VALUES = [
    *((TrackerConfig, name, HUGE) for name in ("q_car", "q_cycle", "gamma", "d_max", "iou_gate")),
    (TrackerConfig, "r_diag", (HUGE, 9.0, 9.0)),
    (TrackerConfig, "p0_diag", (4.0, 4.0, HUGE, 16.0)),
    *((SamplerConfig, name, HUGE) for name in ("sample_cost", "epsilon0", "eta", "beta",
                                               "dt_max", "period", "p", "c_min")),
    *((SamplerConfig, name, (0.02, 0.1, HUGE)) for name in ("conf_edges", "dist_edges",
                                                           "dt_edges")),
    (RiskConfig, "reaction_time", HUGE),
    (RiskConfig, "alert_threshold", HUGE),
    (PipelineConfig, "warmup_s", HUGE),
]
# a cost only has to be zero or negative: -HUGE used to exit 4 from a run
# (an OverflowError in the reward), and -inf beside it to learn an all-nan table
NEGATIVE_COSTS = [
    pytest.param(SamplerConfig, "sample_cost", -HUGE, id="SamplerConfig.sample_cost-401-digits"),
    pytest.param(SamplerConfig, "sample_cost", -math.inf, id="SamplerConfig.sample_cost-inf"),
]


@pytest.mark.parametrize("cls, field, value", [
    *(pytest.param(cls, field, value, id=f"{cls.__name__}.{field}")
      for cls, field, value in HUGE_VALUES),
    *NEGATIVE_COSTS])
def test_a_401_digit_int_is_a_config_error_naming_its_field(cls, field, value):
    with pytest.raises(InvalidConfig, match=f"^{field}: "):
        cls(**{field: value})


def test_a_sample_cost_that_overflows_the_q_values_is_refused():
    """A finite cost of -1e308 used to load, and run_pipeline on s01 learned
    14 NaN Q-values out of 62 and kept running; at the bound the values
    stay finite."""
    with pytest.raises(InvalidConfig, match=r"^sample_cost: must be at least -1e\+06, got -1e\+308$"):
        replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, sample_cost=-1e308))
    name, scen = standard_suite()[0]
    frames, truth = generate(scen)
    q = QTable()
    cfg = replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, sample_cost=-1e6))
    run_pipeline(frames, truth, "sarsa", cfg, seed=1, camera=scen.camera, fov=scen.detector.fov,
                 qtable=q, scenario_label=name)
    assert name.startswith("s01") and q.values
    assert all(math.isfinite(v) for v in q.values.values())


# ------------------------------------------------------------- truth labels

def test_run_from_labels_equals_run_from_truth():
    scen = quick_scenario(
        seed=4, duration=20.0,
        vehicles=[VehicleConfig(cls="car", spawn_time=1.0, x0=0.8, z0=-25.0, speed=2.4)],
    )
    frames, truth = generate(scen)
    kw = dict(seed=3, camera=scen.camera, fov=scen.detector.fov, keep_ticks=True)
    labels = label_truth(truth, scen.camera, scen.detector.fov, NO_WARMUP)
    assert isinstance(labels, TruthLabels)
    assert [label.t for label in labels.ticks] == [tick.t for tick in truth]
    assert any(label.danger for label in labels.ticks)
    from_labels = run_pipeline(frames, labels, "sarsa", NO_WARMUP, **kw)
    assert from_labels == run_pipeline(frames, truth, "sarsa", NO_WARMUP, **kw)
    assert [(r.danger, r.excluded) for r in from_labels.ticks] == [
        (label.danger, label.excluded) for label in labels.ticks]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"fov": 1.0}, r"fov 1\.2 \(run: 1\.0\)"),
        ({"camera": CameraConfig(camera_height=1.4)}, "camera"),
        ({"config": replace(NO_WARMUP, reaction_time=2.0)}, "reaction_time"),
        ({"config": replace(NO_WARMUP, alert_threshold=0.5)}, "alert_threshold"),
        ({"config": replace(NO_WARMUP, tracker=TrackerConfig(d_max=20.0))}, "d_max"),
    ],
    ids=["fov", "camera", "reaction-time", "alert-threshold", "d-max"],
)
def test_labels_made_for_another_run_are_config_errors(change, message):
    frames, truth = hand_trace([[car(0.0, -6.0, vz=2.0)]] * 4)
    labels = label_truth(truth, CameraConfig(), DEFAULT_FOV, NO_WARMUP)
    run = {"camera": CameraConfig(), "fov": DEFAULT_FOV, "config": NO_WARMUP, **change}
    with pytest.raises(InvalidConfig, match=message):
        run_pipeline(frames, labels, "everyframe", run["config"],
                     camera=run["camera"], fov=run["fov"])


def test_labels_are_checked_against_the_trace_times():
    frames, truth = hand_trace([[]] * 5)
    labels = label_truth(truth[:-1])
    with pytest.raises(ValueError, match="aligned"):
        run_pipeline(frames, labels, "everyframe", NO_WARMUP)


# --------------------------------------------------------- the baselines

def test_unknown_sampler_kind_is_a_config_error():
    frames, truth = hand_trace([[]] * 3)
    with pytest.raises(InvalidConfig, match="lidar"):
        run_pipeline(frames, truth, "lidar", NO_WARMUP)


def test_sampler_kind_listing_matches_factory():
    import numpy as np

    rng = np.random.default_rng(0)
    for kind in SAMPLER_KINDS:
        assert make_sampler(kind, NO_WARMUP, rng) is not None


def test_interval_with_period_of_whole_trace_blinks_once():
    frames, truth = hand_trace([[]] * 30)
    cfg = replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, period=30.0))
    report = run_pipeline(frames, truth, "interval", cfg)
    assert report.blink_count == 1


def test_interval_period_below_one_tick_is_rejected():
    frames, truth = hand_trace([[]] * 3)
    with pytest.raises(InvalidConfig, match="period"):
        run_pipeline(frames, truth, "interval",
                     replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, period=0.5)))


def test_random_with_p_zero_never_blinks_after_warmup():
    frames, truth = hand_trace([[]] * 40)
    report = run_pipeline(frames, truth, "random",
                          replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, p=0.0)))
    assert report.blink_count == 0
    assert report.blink_fraction == 0.0


def test_random_p_out_of_range_is_rejected():
    frames, truth = hand_trace([[]] * 3)
    with pytest.raises(InvalidConfig, match="probability"):
        run_pipeline(frames, truth, "random",
                     replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, p=1.5)))


def test_interval_fraction_stays_under_its_rate():
    scen = quick_scenario(duration=30.0)
    frames, truth = generate(scen)
    cfg = replace(NO_WARMUP, sampler=replace(NO_WARMUP.sampler, period=7.0))
    report = run_pipeline(frames, truth, "interval", cfg)
    assert report.blink_fraction <= 1.0 / 7.0 + 1.0 / report.n_ticks


def test_everyframe_fraction_is_exactly_one():
    scen = quick_scenario(duration=10.0)
    frames, truth = generate(scen)
    report = run_pipeline(frames, truth, "everyframe", NO_WARMUP)
    assert report.blink_fraction == 1.0


# -------------------------------------------------- end-to-end behaviour

def test_everyframe_noise_free_misses_nothing():
    # constant 2 m/s closer with an exact detector: the tracker's
    # constant-velocity model matches the world, so after the danger
    # onset the estimated picture cannot drift off the true one
    scen = quick_scenario(
        seed=11,
        duration=15.0,
        vehicles=[VehicleConfig(cls="car", spawn_time=1.0, x0=0.9, z0=-20.0, speed=2.0)],
        detector=DetectorConfig(box_noise_px=0.0),
    )
    frames, truth = generate(scen)
    report = run_pipeline(frames, truth, "everyframe", NO_WARMUP,
                          camera=scen.camera, fov=scen.detector.fov)
    assert report.n_danger_episodes >= 1
    assert report.fnr == 0.0
    assert report.n_missed_episodes == 0


def test_alert_events_carry_track_ids_and_ordered_times():
    scen = quick_scenario(
        seed=11,
        duration=15.0,
        vehicles=[VehicleConfig(cls="car", spawn_time=1.0, x0=0.9, z0=-20.0, speed=2.0)],
        detector=DetectorConfig(box_noise_px=0.0),
    )
    frames, truth = generate(scen)
    report = run_pipeline(frames, truth, "everyframe", NO_WARMUP,
                          camera=scen.camera, fov=scen.detector.fov)
    assert report.alert_events
    for ev in report.alert_events:
        assert ev.t_start <= ev.t_end
        assert ev.track_ids
        assert 0.0 < ev.peak_gamma <= 1.0


def test_same_seed_same_report():
    scen = quick_scenario(
        seed=3,
        duration=20.0,
        vehicles=[VehicleConfig(cls="car", spawn_time=2.0, x0=-0.8, z0=-30.0, speed=2.2)],
    )
    frames, truth = generate(scen)
    kw = dict(config=NO_WARMUP, seed=42, camera=scen.camera, fov=scen.detector.fov)
    a = run_pipeline(frames, truth, "sarsa", **kw)
    b = run_pipeline(frames, truth, "sarsa", **kw)
    assert a == b


# ------------------------------------------------------------ comparison

def two_quick_scenarios():
    return [
        ("alpha", quick_scenario(
            seed=21, duration=30.0,
            vehicles=[VehicleConfig(cls="car", spawn_time=2.0, x0=0.9, z0=-40.0, speed=2.4)],
        )),
        ("bravo", quick_scenario(
            seed=22, duration=30.0,
            vehicles=[VehicleConfig(cls="cycle", spawn_time=4.0, x0=-0.7, z0=-20.0, speed=1.3)],
        )),
    ]


def test_empty_suite_is_a_config_error():
    with pytest.raises(InvalidConfig, match="^scenarios: at least one is required$"):
        compare([], ["everyframe"], NO_WARMUP)


def test_empty_sampler_list_is_a_config_error():
    with pytest.raises(InvalidConfig, match="^samplers: at least one is required$"):
        compare(two_quick_scenarios(), [], NO_WARMUP)


def test_unknown_sampler_in_compare_is_a_config_error():
    with pytest.raises(InvalidConfig, match=r"^samplers: must be one of \(.*\), got 'radar'$"):
        compare(two_quick_scenarios(), ["everyframe", "radar"], NO_WARMUP)


@pytest.mark.parametrize(
    "names, kinds, seeds, message",
    [
        (("alpha", "alpha"), ["everyframe"], None, "^scenarios: duplicate name 'alpha'$"),
        (("alpha", "bravo"), ["sarsa", "everyframe", "sarsa"], None,
         "^samplers: duplicate kind 'sarsa'$"),
        (("alpha", "bravo"), ["everyframe"], [1, 1], r"got \[1, 1\]; seed 1 repeats"),
        (("alpha", "bravo"), ["everyframe"], [], r"seeds: .*at least one.*got \[\]"),
    ],
    ids=["scenario-name", "sampler-kind", "seed", "empty-seeds"],
)
def test_duplicates_in_compare_are_config_errors(names, kinds, seeds, message):
    # a repeated name would merge two scenarios' breakdown rows; a repeated
    # kind or seed would run and count every one of its cells twice; an
    # empty seed list would quietly fall back to each scenario's own seed
    suite = [(name, scen) for name, (_, scen) in zip(names, two_quick_scenarios())]
    with pytest.raises(InvalidConfig, match=message):
        compare(suite, kinds, NO_WARMUP, seeds=seeds)


def test_compare_runs_equal_lone_pipeline_runs(monkeypatch):
    # every cell compare scores against the shared labels must report what
    # a lone run on the raw truth reports, budget-matched configs included
    suite = two_quick_scenarios()
    cells = []
    lone_pipeline = evaluation.run_pipeline

    def recording(frames, truth, kind, config, **kw):
        cells.append((truth, kind, config, kw))
        return lone_pipeline(frames, truth, kind, config, **kw)

    monkeypatch.setattr(evaluation, "run_pipeline", recording)
    # in process: a forked worker's calls would not reach `cells`
    rep = compare(suite, SAMPLER_KINDS, NO_WARMUP, seeds=[1, 2], workers=1)
    monkeypatch.undo()

    assert len(cells) == len(rep.runs) == 2 * 2 * len(SAMPLER_KINDS)
    assert {kind for _, kind, cfg, _ in cells if cfg != NO_WARMUP} == {"interval", "random"}
    # budget matching moves only the baselines' own knob
    for _, kind, cfg, _ in cells:
        knob = {"interval": "period", "random": "p"}.get(kind)
        if knob is not None:
            assert cfg == replace(NO_WARMUP, sampler=replace(
                NO_WARMUP.sampler, **{knob: getattr(cfg.sampler, knob)}))
    for name, _ in suite:
        assert len({id(truth) for truth, *_, kw in cells if kw["scenario_label"] == name}) == 1
    generated = {name: generate(scen) for name, scen in suite}
    by_cell = {(r.scenario, r.sampler_kind, r.seed): r for r in rep.runs}
    for _, kind, cfg_k, kw in cells:
        frames, truth = generated[kw["scenario_label"]]
        lone = run_pipeline(frames, truth, kind, cfg_k, **kw)
        assert by_cell[(kw["scenario_label"], kind, kw["seed"])] == lone


def test_compare_labels_each_scenario_once(monkeypatch):
    calls = []

    def counted(*args, _fn=evaluation.label_truth, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(evaluation, "label_truth", counted)
    suite = two_quick_scenarios()
    # in process: a forked worker's calls would not reach `calls`
    for samplers, seeds in ((["everyframe"], [1]), (SAMPLER_KINDS, [1, 2])):
        calls.clear()
        compare(suite, samplers, NO_WARMUP, seeds=seeds, workers=1)
        assert len(calls) == len(suite)


def _count_calls_to_file(monkeypatch, path, names):
    """Patch each `evaluation` function in `names` to append its name to
    `path` on every call, so that forked workers' calls are counted too."""
    for name in names:
        def counted(*args, _name=name, _fn=getattr(evaluation, name), **kwargs):
            with open(path, "a") as fh:
                fh.write(_name + "\n")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counted)
    return lambda: Counter(path.read_text().split()) if path.exists() else Counter()


def test_parallel_compare_labels_each_scenario_once(monkeypatch, tmp_path):
    suite = two_quick_scenarios()
    for workers in (1, 2):
        calls = _count_calls_to_file(monkeypatch, tmp_path / f"calls-{workers}", ["label_truth"])
        compare(suite, SAMPLER_KINDS, NO_WARMUP, seeds=[1, 2], workers=workers)
        assert calls() == {"label_truth": len(suite)}
        monkeypatch.undo()


def _comparison_bytes(rep) -> bytes:
    return json.dumps(comparison_to_dict(rep), sort_keys=True, indent=2).encode()


def test_compare_bytes_do_not_depend_on_workers():
    suite = two_quick_scenarios()
    serial, *parallel = (
        _comparison_bytes(compare(suite, SAMPLER_KINDS, NO_WARMUP, seeds=[1, 2],
                                  budget_match=True, workers=workers))
        for workers in (1, 2, 3)
    )
    assert parallel == [serial, serial]


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_more_workers_than_cores_run_every_scenario_once():
    # six scenarios over six processes on any core count: a lost update of
    # the shared claim counter would run a scenario twice or never
    suite = [(f"s{i}", quick_scenario(seed=40 + i, duration=8.0, vehicles=[
        VehicleConfig(cls="car", spawn_time=1.0, x0=0.9, z0=-20.0 - i, speed=2.4)]))
        for i in range(6)]
    with _time_limit(120):
        rep = compare(suite, ["everyframe", "interval"], NO_WARMUP, workers=6)
    assert [(r.scenario, r.sampler_kind) for r in rep.runs] == [
        (name, kind) for name, _ in suite for kind in ("everyframe", "interval")]
    assert _comparison_bytes(rep) == _comparison_bytes(
        compare(suite, ["everyframe", "interval"], NO_WARMUP, workers=1))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_scenario_raises_as_in_the_serial_loop(monkeypatch, workers):
    # two scenarios fail in generate, in whichever process claims them
    # (forked workers inherit the patch); the earlier one must win
    failing, lone_generate = {5: "broken", 6: "worse"}, evaluation.generate

    def generate(scen):
        if scen.seed in failing:
            raise InvalidConfig(f"{failing[scen.seed]}: cannot be generated")
        return lone_generate(scen)

    monkeypatch.setattr(evaluation, "generate", generate)
    suite = [two_quick_scenarios()[0],
             ("broken", quick_scenario(seed=5)),
             two_quick_scenarios()[1],
             ("worse", quick_scenario(seed=6))]
    with pytest.raises(InvalidConfig, match="^broken: cannot be generated$"):
        compare(suite, ["everyframe"], NO_WARMUP, workers=workers)
    assert multiprocessing.active_children() == []


class _Abort(BaseException):
    pass


def test_workers_are_stopped_when_the_caller_raises(monkeypatch):
    # the calling process aborts on its first scenario while its workers
    # sleep on theirs: compare must end them rather than wait
    caller, lone_generate = os.getpid(), evaluation.generate

    def generate(scen):
        if os.getpid() == caller:
            raise _Abort
        time.sleep(60)
        return lone_generate(scen)

    monkeypatch.setattr(evaluation, "generate", generate)
    start = time.monotonic()
    with pytest.raises(_Abort):
        compare(two_quick_scenarios() + [("charlie", quick_scenario(seed=23))],
                ["everyframe"], NO_WARMUP, workers=3)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def _default_compare_bytes() -> bytes:
    return _comparison_bytes(compare(two_quick_scenarios(), ["everyframe"], NO_WARMUP))


def test_default_workers_run_in_process_inside_a_pool_task(monkeypatch):
    # a Pool's processes are daemonic and may not have children, so the
    # default must not fork there, whatever the CPU count
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 3)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_task = pool.apply(_default_compare_bytes)
    assert in_task == _comparison_bytes(
        compare(two_quick_scenarios(), ["everyframe"], NO_WARMUP, workers=1))


@pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(InvalidConfig, match="^workers: expected a positive integer, got "):
        compare(two_quick_scenarios(), ["everyframe"], NO_WARMUP, workers=workers)


def test_single_scenario_single_sampler_yields_one_row():
    rep = compare(two_quick_scenarios()[:1], ["interval"], NO_WARMUP)
    assert len(rep.runs) == 1
    assert rep.aggregates["interval"]["runs"] == 1
    assert "interval" in format_comparison(rep)


def test_aggregation_is_invariant_to_scenario_order():
    suite = two_quick_scenarios()
    kinds = ["everyframe", "interval"]
    fwd = compare(suite, kinds, NO_WARMUP)
    rev = compare(list(reversed(suite)), kinds, NO_WARMUP)
    assert fwd.aggregates == rev.aggregates
    assert fwd.breakdowns == rev.breakdowns
    assert fwd.runs == rev.runs


def test_budget_matching_tracks_the_adaptive_budget():
    suite = standard_suite()[:3]
    rep = compare(suite, ["sarsa", "interval", "random"], PipelineConfig())
    assert rep.budget_matched
    by_scen = {}
    for r in rep.runs:
        by_scen.setdefault(r.scenario, {})[r.sampler_kind] = r.blink_fraction
    for scen, fr in by_scen.items():
        anchor = fr["sarsa"]
        assert fr["interval"] == pytest.approx(anchor, rel=0.10, abs=0.01)
        # the random baseline only matches in expectation; give it room
        # for binomial noise on top of the ten percent band
        assert fr["random"] == pytest.approx(anchor, rel=0.10, abs=0.035)


def test_breakdowns_cover_the_declared_axes():
    rep = compare(two_quick_scenarios(), ["everyframe"], NO_WARMUP)
    assert set(rep.breakdowns) == {"mode", "road", "light", "classes", "vehicle_count"}
    assert set(rep.breakdowns["classes"]) == {"car", "cycle"}


# ------------------------------------------------------- report plumbing

def test_report_dict_drops_ticks_and_keeps_events():
    frames, truth = hand_trace([[car(0.0, -6.0, vz=2.0)]] * 6)
    report = run_pipeline(frames, truth, "everyframe", NO_WARMUP, keep_ticks=True)
    d = report_to_dict(report)
    assert "ticks" not in d
    assert isinstance(d["alert_events"], list)
    assert d["n_assessments"] == report.n_assessments


def test_comparison_dict_is_json_ready():
    import json

    rep = compare(two_quick_scenarios()[:1], ["interval"], NO_WARMUP)
    payload = comparison_to_dict(rep)
    text = json.dumps(payload)
    assert "aggregates" in payload and "runs" in payload
    assert json.loads(text)["budget_matched"] is True


def test_config_digest_is_order_insensitive_and_value_sensitive():
    a = config_digest({"alpha": 1, "beta": [2, 3]})
    b = config_digest({"beta": [2, 3], "alpha": 1})
    c = config_digest({"alpha": 1, "beta": [2, 4]})
    assert a == b
    assert a != c
    assert len(a) == 64


def test_standard_suite_shape():
    suite = standard_suite()
    assert len(suite) == 20
    names = [name for name, _ in suite]
    assert len(set(names)) == 20
    seeds = {scen.seed for _, scen in suite}
    assert len(seeds) == 20
    modes = {scen.user.mode for _, scen in suite}
    lights = {scen.light for _, scen in suite}
    roads = {scen.road for _, scen in suite}
    assert modes == {"standing", "walking", "jogging"}
    assert lights == {"day", "night"}
    assert roads == {"along", "intersection"}
