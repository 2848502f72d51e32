"""TTC and risk-level tests, worked examples computed by hand."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearguard import evaluation, risk
from rearguard.evaluation import ground_truth_danger, label_truth
from rearguard.geometry import ImuPose
from rearguard.risk import (
    DegeneratePosition,
    RiskAssessment,
    RiskConfig,
    assess,
    object_risk,
    risk_level,
    ttc,
)
from rearguard.scenario import GroundTruthObject, GroundTruthTick, InvalidConfig
from rearguard.tracking import TrackerConfig


@dataclass
class FakeTrack:
    id: int
    x: float
    z: float
    vx: float
    vz: float


def test_ttc_head_on_approach():
    # -(0 + 100) / (0 + (-10)*2) = 5.0
    assert ttc(0.0, -10.0, 0.0, 2.0) == 5.0


def test_ttc_recession_is_negative():
    assert ttc(0.0, -10.0, 0.0, -2.0) == -5.0


def test_ttc_tangential_returns_none():
    assert ttc(10.0, 0.0, 0.0, 3.0) is None


def test_ttc_origin_raises():
    with pytest.raises(DegeneratePosition):
        ttc(0.0, 0.0, 1.0, 1.0)


def test_ttc_matches_range_over_speed_head_on():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(1, 50)
        v = rng.uniform(0.5, 15)
        # object behind at range r closing head-on with speed v
        assert ttc(0.0, -r, 0.0, v) == pytest.approx(r / v, rel=1e-12)


def test_risk_level_worked_values():
    assert risk_level(0.0, 3.3) == 1.0
    assert risk_level(5.0, 3.3) == 0.0
    assert risk_level(1.65, 3.3) == 0.5


def test_risk_level_receding_and_none():
    assert risk_level(-5.0, 3.3) == 0.0
    assert risk_level(None, 3.3) == 0.0


def test_risk_level_monotone_in_ttc():
    ts = np.linspace(0.0, 8.0, 100)
    ks = [risk_level(t, 3.3) for t in ts]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert all(0.0 <= k <= 1.0 for k in ks)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1e3), b=st.floats(0.0, 1e3), t_r=st.floats(0.1, 10.0))
def test_risk_level_non_increasing_in_ttc_property(a, b, t_r):
    # over approaching objects (ttc >= 0) a sooner collision never scores lower
    sooner, later = sorted((a, b))
    assert 0.0 <= risk_level(later, t_r) <= risk_level(sooner, t_r) <= 1.0


coordinate = st.floats(-30.0, 30.0)
speed = st.floats(-5.0, 5.0)
fake_tracks = st.lists(
    st.builds(FakeTrack, id=st.integers(0, 9), x=coordinate, z=coordinate, vx=speed, vz=speed),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(tracks=fake_tracks, extra=fake_tracks, t_r=st.floats(0.1, 10.0))
def test_assess_overall_is_max_over_single_objects_property(tracks, extra, t_r):
    gamma = assess(tracks, t_r).gamma_overall
    assert gamma == max((assess([tr], t_r).gamma_overall for tr in tracks), default=0.0)
    # adding objects never lowers the overall level
    assert assess(tracks + extra, t_r).gamma_overall >= gamma


def test_assess_empty():
    r = assess([], t_r=3.3, alert_threshold=0.5, now=1.0)
    assert r.gamma_overall == 0.0
    assert not r.alert


def _assess_by_definition(tracks, t_r, alert_threshold, now):
    """assess without its no-tracks exit: score every track, fold the max."""
    per = tuple([object_risk(tr, t_r) for tr in tracks])
    gamma = max([o.kappa for o in per], default=0.0)
    return RiskAssessment(now, per, gamma, gamma >= alert_threshold)


@pytest.mark.parametrize("alert_threshold", [0.5, -1.0])
def test_assess_empty_equals_the_full_path(alert_threshold):
    # assess takes any threshold; below 0 an empty tick alerts
    got = assess([], 3.3, alert_threshold, now=1.5)
    assert got == _assess_by_definition([], 3.3, alert_threshold, 1.5)
    assert type(got) is RiskAssessment
    assert got.alert is (alert_threshold <= 0.0)


def test_assess_takes_max_and_alerts():
    # kappa 0.9 -> ttc 0.33; kappa 0.2 -> ttc 2.64
    tracks = [
        FakeTrack(1, 0.0, -0.66, 0.0, 2.0),   # ttc 0.33 s
        FakeTrack(2, 0.0, -5.28, 0.0, 2.0),   # ttc 2.64 s
    ]
    r = assess(tracks, t_r=3.3, alert_threshold=0.5, now=0.0)
    kappas = {o.track_id: o.kappa for o in r.per_object}
    assert kappas[1] == pytest.approx(0.9)
    assert kappas[2] == pytest.approx(0.2)
    assert r.gamma_overall == pytest.approx(0.9)
    assert r.alert


def test_assess_slow_approach_no_alert():
    r = assess([FakeTrack(1, 0.0, -10.0, 0.0, 2.0)], t_r=3.3, alert_threshold=0.01)
    assert r.gamma_overall == 0.0
    assert not r.alert


def test_assess_permutation_invariant():
    rng = np.random.default_rng(5)
    tracks = [
        FakeTrack(i, rng.uniform(-5, 5), rng.uniform(-20, -1), rng.uniform(-1, 1), rng.uniform(0, 3))
        for i in range(6)
    ]
    g1 = assess(tracks, now=0.0).gamma_overall
    g2 = assess(list(reversed(tracks)), now=0.0).gamma_overall
    assert g1 == g2
    assert g1 == max(o.kappa for o in assess(tracks).per_object)


def test_assess_origin_track_is_max_risk():
    r = assess([FakeTrack(1, 0.0, 0.0, 0.0, 1.0)], alert_threshold=0.99)
    assert r.gamma_overall == 1.0
    assert r.alert


# ------------------------------------------------------- the reaction time

def _tick(n_objects, t=0.0):
    objects = tuple(GroundTruthObject(i, "car", 0.0, -2.0 - i, 0.0, 2.0, 1.5)
                    for i in range(1, n_objects + 1))
    return GroundTruthTick(t, ImuPose(0.0, math.pi), objects)


def _label_config(t_r):
    # label_truth reads a PipelineConfig, which refuses such a t_r itself
    return SimpleNamespace(reaction_time=t_r, alert_threshold=0.01, tracker=TrackerConfig())


BAD_REACTION_TIMES = [
    *((t_r, f"reaction_time: must be a positive finite number, got {t_r!r}")
      for t_r in (float("nan"), float("inf"), 0.0, -1.0)),
    # 1e308 used to report FNR 68.5% on s01, alerting on nearly every approach
    (1e308, "reaction_time: must be at most 60 s, got 1e+308"),
]


@pytest.mark.parametrize("t_r, message", BAD_REACTION_TIMES,
                         ids=["nan", "inf", "zero", "negative", "huge"])
@pytest.mark.parametrize("call", [
    lambda t_r: risk_level(1.0, t_r),
    lambda t_r: assess([FakeTrack(1, 0.0, -2.0, 0.0, 2.0)], t_r),
    lambda t_r: assess([], t_r),
    lambda t_r: ground_truth_danger(_tick(2), t_r),
    lambda t_r: label_truth([_tick(2)], config=_label_config(t_r)),
    lambda t_r: RiskConfig(reaction_time=t_r),
], ids=["risk_level", "assess", "assess-empty", "ground_truth_danger", "label_truth", "RiskConfig"])
def test_one_reaction_time_rule(call, t_r, message):
    # risk_level(1.0, nan) returned 0.0 and risk_level(1.0, inf) 1.0
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        call(t_r)


def test_reaction_time_is_checked_once_per_call(monkeypatch):
    calls = []

    def counted(t_r, _check=risk.check_reaction_time):
        calls.append(t_r)
        _check(t_r)

    monkeypatch.setattr(risk, "check_reaction_time", counted)
    monkeypatch.setattr(evaluation, "check_reaction_time", counted)
    tracks = [FakeTrack(i, 0.0, -2.0 - i, 0.0, 2.0) for i in range(5)]
    assess(tracks, 3.3)
    assert calls == [3.3]
    calls.clear()
    label_truth([_tick(3, t=0.0), _tick(4, t=0.1)], config=_label_config(2.0))
    assert calls == [2.0]


# ------------------------------------------------------ the alert threshold

@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5], ids=["zero", "negative", "above-one"])
def test_alert_threshold_outside_kappas_range_is_a_config_error(threshold):
    # kappa lies in [0, 1]: 0 alerted on every tick of a run, 1.5 never
    message = f"alert_threshold: must be in (0, 1], got {threshold!r}"
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        RiskConfig(alert_threshold=threshold)


def test_alert_threshold_edges_inside_the_range_are_accepted():
    assert RiskConfig(alert_threshold=1.0).alert_threshold == 1.0
    assert RiskConfig(alert_threshold=5e-324).alert_threshold == 5e-324
