"""Scenario generator and trace I/O tests."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rearguard.geometry import (MAX_FOCAL_PX, MAX_PIXELS, BoundingBox2D, CameraIntrinsics, ImuPose,
                                pose_model)
from rearguard import scenario
from rearguard.evaluation import standard_suite
from rearguard.risk import ttc
from rearguard.scenario import (
    LIGHT_CONDITIONS,
    MAX_TICKS,
    ROAD_TYPES,
    USER_MODES,
    VEHICLE_CLASSES,
    CameraConfig,
    DetectorConfig,
    Frame,
    GroundTruthObject,
    GroundTruthTick,
    HeadMotionConfig,
    InvalidConfig,
    ParseError,
    ScenarioConfig,
    UserConfig,
    VehicleConfig,
    VersionMismatch,
    config_from_dict,
    config_to_dict,
    detector_model,
    generate,
    read_trace,
    read_truth,
    write_trace,
    write_truth,
)
from test_geometry import camera_nd
import reference_generator

QUIET_HEAD = HeadMotionConfig(0.0, 4.0, 0.0, 3.5, 0.0)


def one_car(z0=-50.0, x0=0.0, speed=8.33, cls="car", **kw) -> ScenarioConfig:
    return ScenarioConfig(
        seed=kw.pop("seed", 1),
        duration=kw.pop("duration", 8.0),
        user=UserConfig(mode="standing"),
        vehicles=(VehicleConfig(cls=cls, spawn_time=0.0, x0=x0, z0=z0, speed=speed),),
        **kw,
    )


# ----------------------------------------------------------------- config

def test_config_validation_names_fields():
    with pytest.raises(InvalidConfig, match="tick_rate"):
        config_from_dict({"seed": 1, "tick_rate": 0})
    with pytest.raises(InvalidConfig, match="user.mode"):
        config_from_dict({"seed": 1, "user": {"mode": "flying"}})
    with pytest.raises(InvalidConfig, match=r"vehicles\[0\].profile"):
        config_from_dict(
            {"seed": 1, "vehicles": [{"cls": "car", "spawn_time": 0, "x0": 0, "z0": -20, "speed": 5, "profile": "warp"}]}
        )
    with pytest.raises(InvalidConfig, match="seed"):
        config_from_dict({})


CAR = {"cls": "car", "spawn_time": 0.0, "x0": 0.0, "z0": -20.0, "speed": 5.0}


@pytest.mark.parametrize("change, message", [
    ({"seed": -1}, "seed: must be a non-negative integer"),
    ({"vehicles": [{"cls": "car", "spawn_time": 0.0}]},
     "vehicles[0].x0, vehicles[0].z0, vehicles[0].speed: missing"),
    ({"detector": {"first_detect_m": {"car": 12.0}}}, "detector.first_detect_m.cycle: must be in"),
    ({"detector": {"spread_m": {"car": 1.2, "cycle": 0}}}, "detector.spread_m.cycle: must be positive"),
    ({"camera": {"image_size": [640]}}, "camera.image_size: must be two positive numbers"),
    ({"head_motion": {"yaw_amplitude": 0.1, "yaw_period": 4.0, "pitch_amplitude": 0.1,
                      "pitch_period": 3.5, "jitter_std": 1.0}}, "head_motion.pitch_amplitude:"),
    ({"vehicles": [{**CAR, "profile": "decelerate-at", "params": {"at": 1.0, "rate": "fast"}}]},
     "vehicles[0].params.rate: a number is required for decelerate-at"),
    ({"vehicles": [{**CAR, "profile": "lane-change-at",
                    "params": {"at": 1.0, "to_x": 2.0, "duration": 0}}]},
     "vehicles[0].params.duration: must be positive"),
    ({"detector": {"fov": 3.5}}, "detector.fov: must be in (0, pi), got 3.5"),
    # the tick count is an int: an infinite duration x tick_rate used to exit 4
    ({"duration": 1e308}, "duration: times tick_rate must give at most 1000000 ticks, got inf"),
    ({"tick_rate": 1e308}, "duration: times tick_rate must give at most 1000000 ticks, got inf"),
    ({"duration": 1e308, "vehicles": [{**CAR, "spawn_time": 1e307}]},
     "duration: times tick_rate must give at most 1000000 ticks, got inf"),
    # a finite but huge count used to pass, for generate to build 1e13 ticks
    ({"duration": 1e12}, "duration: times tick_rate must give at most 1000000 ticks, got 1e+13"),
    ({"tick_rate": 1e9}, "duration: times tick_rate must give at most 1000000 ticks, got 6e+10"),
], ids=["seed-negative", "vehicle-fields-missing", "detect-median-missing", "spread-zero",
        "image-size-short", "pitch-jitter-too-big", "param-not-a-number", "param-not-positive",
        "fov-above-pi", "tick-count-overflows", "tick-rate-overflows", "spawn-time-huge",
        "tick-count-huge", "tick-rate-huge"])
def test_invalid_value_is_named(change, message):
    with pytest.raises(InvalidConfig) as err:
        config_from_dict({"seed": 1, **change})
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("change, message", [
    ({"vehicles": [{**CAR, "x0": 1e308, "profile": "lane-change-at",
                    "params": {"at": 0.5, "to_x": -1e308, "duration": 1.0}}]},
     "vehicles[0].x0: must be in [-1000, 1000] m, got 1e+308"),
    ({"vehicles": [{**CAR, "z0": -1000.5}]}, "vehicles[0].z0: must be in [-1000, 1000] m, got -1000.5"),
    ({"vehicles": [{**CAR, "speed": 100.5}]}, "vehicles[0].speed: must be in [0, 100] m/s, got 100.5"),
    ({"vehicles": [{**CAR, "profile": "lane-change-at",
                    "params": {"at": 0.5, "to_x": -1e308, "duration": 1.0}}]},
     "vehicles[0].params.to_x: must be in [-1000, 1000] m, got -1e+308"),
    ({"vehicles": [{**CAR, "profile": "lane-change-at",
                    "params": {"at": 0.5, "to_x": 1.0, "duration": 0.05}}]},
     "vehicles[0].params.duration: must be in [0.1, 1e+06] s, got 0.05"),
    ({"vehicles": [{**CAR, "profile": "decelerate-at", "params": {"at": -1.0, "rate": 1.0}}]},
     "vehicles[0].params.at: must be in [0, 1e+06] s, got -1.0"),
    ({"vehicles": [{**CAR, "profile": "decelerate-at", "params": {"at": 1.0, "rate": 1e300}}]},
     "vehicles[0].params.rate: must be in [0, 100] m/s^2, got 1e+300"),
    ({"user": {"speed": 1e308}}, "user.speed: must be in [0, 100] m/s, got 1e+308"),
    ({"tick_rate": 0.5}, "tick_rate: must be in [1, 1000] Hz, got 0.5"),
    ({"tick_rate": 2000.0, "duration": 1.0}, "tick_rate: must be in [1, 1000] Hz, got 2000.0"),
], ids=["lane-change-nan-truth", "z0", "speed", "to-x", "lane-change-too-short", "at-negative",
        "rate", "user-speed", "tick-rate-low", "tick-rate-high"])
def test_value_past_its_physical_bound_is_named(change, message):
    """Finite values used to pass however large; x0 1e308 changing lane to
    -1e308 wrote NaN into the truth file, for `run` to refuse it."""
    with pytest.raises(InvalidConfig) as err:
        config_from_dict({"seed": 1, **change})
    assert str(err.value) == message


def test_tick_count_bound_is_inclusive():
    # built, never generated: a million ticks would take about 1.2 GB
    assert ScenarioConfig(seed=1, duration=MAX_TICKS / 10.0, tick_rate=10.0).duration == 1e5
    with pytest.raises(InvalidConfig, match="^duration: times tick_rate must give at most"):
        ScenarioConfig(seed=1, duration=MAX_TICKS / 10.0, tick_rate=10.5)


@pytest.mark.parametrize("change, message", [
    ({"seed": True}, "seed: expected int, got True"),
    ({"duration": True}, "duration: expected float, got True"),
    ({"tick_rate": False}, "tick_rate: expected float, got False"),
    ({"duration": "60"}, "duration: expected float, got '60'"),
    ({"user": {"speed": True}}, "user.speed: expected float, got True"),
    ({"vehicles": [{**CAR, "x0": True}]}, "vehicles[0].x0: expected float, got True"),
    ({"detector": {"fov": True}}, "detector.fov: expected float, got True"),
    ({"camera": {"camera_height": True}}, "camera.camera_height: expected float, got True"),
    ({"camera": {"intrinsics": {"f_x": True, "f_y": 600.0, "c_x": 320.0, "c_y": 320.0}}},
     "camera.intrinsics.f_x: expected float, got True"),
    ({"camera": {"image_size": [True, 640]}}, "camera.image_size: must be two positive numbers"),
    ({"vehicles": [{**CAR, "profile": "decelerate-at", "params": {"at": True, "rate": 1.0}}]},
     "vehicles[0].params.at: a number is required for decelerate-at"),
], ids=["seed", "duration", "tick-rate", "duration-quoted", "user-speed", "vehicle-x0",
        "detector-fov", "camera-height", "intrinsics-f-x", "image-size", "profile-param"])
def test_boolean_or_quoted_number_is_not_a_number(change, message):
    with pytest.raises(InvalidConfig) as err:
        config_from_dict({"seed": 1, **change})
    assert str(err.value).startswith(message)


def test_missing_seed_is_named():
    with pytest.raises(InvalidConfig, match="^seed: missing$"):
        config_from_dict({})


@pytest.mark.parametrize("block", [
    {"head_motion": {}}, {"head_motion": None}, {"user": None}, {"detector": {}},
    {"camera": {"intrinsics": {}}}, {"camera": {"intrinsics": None}},
], ids=["head-motion-empty", "head-motion-null", "user-null", "detector-empty",
        "intrinsics-empty", "intrinsics-null"])
def test_empty_or_null_block_means_the_default(block):
    assert config_from_dict({"seed": 1, **block}) == ScenarioConfig(seed=1)


def test_config_dict_roundtrip():
    cfg = one_car()
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _params(profile):
    if profile == "decelerate-at":
        return st.fixed_dictionaries({"at": _floats(0, 100), "rate": _floats(0.1, 5)})
    if profile == "lane-change-at":
        return st.fixed_dictionaries(
            {"at": _floats(0, 100), "to_x": _floats(-5, 5), "duration": _floats(0.5, 5)})
    return st.just({})


@st.composite
def scenario_configs(draw):
    duration = draw(_floats(1, 200))
    vehicles = []
    for _ in range(draw(st.integers(0, 4))):
        profile = draw(st.sampled_from(("constant", "decelerate-at", "lane-change-at")))
        vehicles.append(VehicleConfig(
            cls=draw(st.sampled_from(VEHICLE_CLASSES)),
            spawn_time=draw(_floats(0, duration).filter(lambda t: t < duration)),
            x0=draw(_floats(-10, 10)), z0=draw(_floats(-80, 0)), speed=draw(_floats(0, 20)),
            heading=draw(_floats(-math.pi, math.pi)), profile=profile,
            params=draw(_params(profile)),
        ))
    positive = _floats(0.1, 10)
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**31)),
        duration=duration,
        tick_rate=draw(st.sampled_from((5.0, 10.0, 20.0))),
        user=UserConfig(mode=draw(st.sampled_from(USER_MODES)),
                        speed=draw(st.none() | _floats(0, 4))),
        head_motion=draw(st.none() | st.builds(
            HeadMotionConfig, _floats(0, 0.3), positive, _floats(0, 0.1), positive,
            _floats(0, 0.01))),
        vehicles=tuple(vehicles),
        road=draw(st.sampled_from(ROAD_TYPES)),
        light=draw(st.sampled_from(LIGHT_CONDITIONS)),
        detector=draw(st.builds(
            DetectorConfig, fov=_floats(0.1, 3.0), box_noise_px=_floats(0, 5),
            first_detect_m=st.fixed_dictionaries({"car": positive, "cycle": positive}),
            night_factor=_floats(0.1, 1), occlusion_sector=_floats(0, 0.2))),
        camera=draw(st.builds(
            CameraConfig,
            intrinsics=st.builds(CameraIntrinsics, positive, positive,
                                 _floats(0, 640), _floats(0, 640)),
            image_size=st.tuples(st.integers(16, 2048), st.integers(16, 2048)),
            camera_height=positive, margin_px=_floats(0, 200))),
    )


def test_config_dict_has_no_user_height():
    """The camera height is camera.camera_height; a user height was never read."""
    assert config_to_dict(one_car())["user"] == {"mode": "standing", "speed": 0.0}


@settings(max_examples=60, deadline=None)
@given(scenario_configs())
def test_config_dict_roundtrip_through_yaml(cfg):
    text = yaml.safe_dump(config_to_dict(cfg))
    again = config_from_dict(yaml.safe_load(text))
    assert again == replace(cfg, user=replace(cfg.user, speed=cfg.user.resolved_speed()),
                            head_motion=cfg.resolved_head_motion())


def test_spawn_time_must_fit_duration():
    with pytest.raises(InvalidConfig, match=r"vehicles\[0\].spawn_time"):
        config_from_dict(
            {"seed": 1, "duration": 10,
             "vehicles": [{"cls": "car", "spawn_time": 30, "x0": 0, "z0": -20, "speed": 5}]}
        )


# ------------------------------------------------------------- generation

def test_tick_count_and_monotone_time():
    frames, truth = generate(one_car(duration=3.0))
    assert len(frames) == 30 and len(truth) == 30
    ts = [f.t for f in frames]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_ground_truth_ttc_at_spawn():
    # 50 m behind a standing user, closing at 8.33 m/s
    _, truth = generate(one_car())
    obj = truth[0].objects[0]
    assert obj.z == pytest.approx(-50.0)
    assert obj.vz == pytest.approx(8.33)
    assert ttc(obj.x, obj.z, obj.vx, obj.vz) == pytest.approx(6.0, abs=0.01)


def test_same_seed_same_bytes(tmp_path):
    cfg = one_car(seed=77)
    for name in ("a", "b"):
        frames, truth = generate(cfg)
        write_trace(tmp_path / f"{name}.trace", cfg, frames)
        write_truth(tmp_path / f"{name}.truth", cfg, truth)
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()
    assert (tmp_path / "a.truth").read_bytes() == (tmp_path / "b.truth").read_bytes()


# sha256 of write_trace and write_truth output, recorded before the forward
# model moved behind geometry.pose_model; any drift in the generator, the
# projection, the detector draws or the codec moves them
GENERATED_BYTES = {
    "s04-jogging-along-day": (
        "57bc1c7a9c4d1d4070ad589437cb33aa6280c5d347551eca3e2cee855aa86138",
        "638ace0c3be3fdb0acbeba624505b196c443771b9b6180313e702cc60753fc13"),
    "s05-standing-intersection-day": (
        "a4a51e0e819d9270b42b65fff12309bdac61c9767a087891a3fce5dc67ac8177",
        "b9fa0ae9a64b754697f9bee5fac4052e0476b3f6dadd7649b7e0b1bf0fee538c"),
    "s10-walking-along-night": (
        "ae05d93064b4c581e12c4f66eb3e1b8ef50b07748d2954796b6db3cd2c063264",
        "b003cd72fc23d8c4a63d009310cde0046da3c8f944b6867778ccc278c335dc37"),
}


@pytest.mark.parametrize("name", sorted(GENERATED_BYTES))
def test_standard_scenario_bytes_pinned(tmp_path, name):
    cfg = dict(standard_suite())[name]
    frames, truth = generate(cfg)
    write_trace(tmp_path / "trace.jsonl", cfg, frames)
    write_truth(tmp_path / "truth.jsonl", cfg, truth)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("trace.jsonl", "truth.jsonl"))
    assert got == GENERATED_BYTES[name]


def _crowded_scene(seed=2027, vehicles=80, duration=60.0) -> ScenarioConfig:
    """Slow traffic bunched behind a standing user, drawn as the benchmark's
    crowded scenes are: some 14 objects in view per tick, and occlusion
    hides about 45% of them."""
    rng = np.random.default_rng(seed)
    spawns = np.sort(rng.uniform(0.0, duration - 1.0, vehicles))
    return ScenarioConfig(
        seed=int(rng.integers(2**31)),
        duration=duration,
        user=UserConfig(mode="standing"),
        vehicles=tuple(
            VehicleConfig(
                cls="car" if rng.random() < 0.75 else "cycle",
                spawn_time=float(t),
                x0=float(rng.uniform(-8.0, 8.0)),
                z0=-float(rng.uniform(6.0, 12.0)),
                speed=float(rng.uniform(0.1, 0.4)),
            )
            for t in spawns
        ),
    )


# listed out of spawn order; vehicles 0 and 2 both spawn on the tick at
# t = 3.1 s, and vehicle 0 takes the lower id although it spawns later
MIXED_SCENE = ScenarioConfig(
    seed=21,
    duration=12.0,
    user=UserConfig(mode="walking"),
    vehicles=(
        VehicleConfig("car", spawn_time=3.04, x0=0.4, z0=-14.0, speed=3.5),
        VehicleConfig("cycle", spawn_time=0.0, x0=-0.6, z0=-9.0, speed=2.4,
                      profile="decelerate-at", params={"at": 4.0, "rate": 0.5}),
        VehicleConfig("car", spawn_time=3.01, x0=0.5, z0=-20.0, speed=4.0,
                      profile="lane-change-at", params={"at": 5.0, "to_x": -1.5, "duration": 2.0}),
        VehicleConfig("car", spawn_time=1.5, x0=2.5, z0=-25.0, speed=4.5, heading=0.05),
    ),
)

# sha256 of write_trace and write_truth output, recorded before the
# occlusion test became a range-sorted sweep and spawns a queue
DENSE_BYTES = {
    "crowded": (
        "86c46a454a4d14329cb3f6acd8f6fc06e762ebeb7be3f6317b4fad4c0034e370",
        "55632888e1752210425ab3ab48048cecf3c95f0b5d3b736d2cd89679a4e6c1b1"),
    "mixed": (
        "73c0974e9f8276d196866047ece080fdd681c9875f7ec2330216cee4d3490fae",
        "4a4037824de293d31854eb4d78e5b856eea2fb31668b1aeb3d38cfe4aaccc9a0"),
}


@pytest.mark.parametrize("name", sorted(DENSE_BYTES))
def test_dense_scene_bytes_pinned(tmp_path, name):
    """Scenes where occlusion fires on most ticks, and where spawns come out
    of config order, keep their generated bytes."""
    cfg = _crowded_scene() if name == "crowded" else MIXED_SCENE
    frames, truth = generate(cfg)
    write_trace(tmp_path / "trace.jsonl", cfg, frames)
    write_truth(tmp_path / "truth.jsonl", cfg, truth)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("trace.jsonl", "truth.jsonl"))
    assert got == DENSE_BYTES[name]


def test_same_tick_spawns_take_ids_in_config_order():
    _, truth = generate(MIXED_SCENE)
    tick = next(tick for tick in truth if len(tick.objects) == 4)
    assert tick.t == pytest.approx(3.1)
    # objects stay in config order; ids follow the spawn tick, then the index
    assert [o.id for o in tick.objects] == [3, 1, 4, 2]


def test_different_seed_differs(tmp_path):
    f1, _ = generate(one_car(seed=1))
    f2, _ = generate(one_car(seed=2))
    assert any(a.detections != b.detections for a, b in zip(f1, f2))


def test_constant_segment_continuity():
    cfg = one_car(speed=6.0, duration=5.0)
    _, truth = generate(cfg)
    dt = 0.1
    for prev, cur in zip(truth, truth[1:]):
        a, b = prev.objects[0], cur.objects[0]
        assert b.z - a.z == pytest.approx(b.vz * dt, abs=1e-9)
        assert b.x - a.x == pytest.approx(b.vx * dt, abs=1e-9)


def test_walking_user_closing_speed_is_relative():
    cfg = ScenarioConfig(
        seed=3,
        duration=4.0,
        user=UserConfig(mode="walking"),   # 1.4 m/s
        vehicles=(VehicleConfig(cls="car", spawn_time=0.0, x0=0.0, z0=-40.0, speed=5.4),),
    )
    _, truth = generate(cfg)
    assert truth[0].objects[0].vz == pytest.approx(4.0)


def test_noise_free_detections_invert_to_true_range():
    cfg = one_car(speed=5.0, z0=-28.0, duration=5.0,
                  detector=DetectorConfig(box_noise_px=0.0))
    frames, truth = generate(cfg)
    checked = 0
    for frame, tick in zip(frames, truth):
        if not frame.detections:
            continue
        obj = tick.objects[0]
        _, d_true = camera_nd(obj.x, obj.z, frame.pose.yaw)
        _, _, locate, _ = pose_model(frame.pose, cfg.camera.intrinsics, cfg.camera.camera_height)
        est = locate(frame.detections[0])[3]
        assert abs(est - d_true) / d_true <= 0.01
        checked += 1
    assert checked > 5


def test_fov_rule_no_detection_outside_cone():
    # car passing on a wide lateral offset sweeps out of the rear cone
    cfg = one_car(x0=4.0, z0=-6.0, speed=5.0, duration=4.0, head_motion=QUIET_HEAD)
    frames, truth = generate(cfg)
    half = cfg.detector.fov / 2
    saw_outside = 0
    for frame, tick in zip(frames, truth):
        obj = tick.objects[0]
        n, d = camera_nd(obj.x, obj.z, frame.pose.yaw)
        outside = d <= 0.5 or abs(math.atan2(n, d)) > half
        if outside:
            saw_outside += 1
            assert frame.detections == ()
    assert saw_outside > 3


def test_occlusion_hides_aligned_far_vehicle():
    cfg = ScenarioConfig(
        seed=9,
        duration=2.0,
        user=UserConfig(mode="standing"),
        head_motion=QUIET_HEAD,
        detector=DetectorConfig(box_noise_px=0.0),
        vehicles=(
            VehicleConfig(cls="car", spawn_time=0.0, x0=0.0, z0=-8.0, speed=0.0),
            VehicleConfig(cls="car", spawn_time=0.0, x0=0.0, z0=-14.0, speed=0.0),
        ),
    )
    frames, _ = generate(cfg)
    total = 0
    for frame in frames:
        for det in frame.detections:
            # far car would project to about 64 px; near car to about 112 px
            assert det.h > 90.0
            total += 1
    assert total > 10


def _occluded_oracle(views, sector):
    """The occlusion rule as generate first wrote it, over every pair."""
    return [any(r_other < r and abs(b_other - b) < sector
                for j, (r_other, b_other) in enumerate(views) if j != i)
            for i, (r, b) in enumerate(views)]


_SECTOR = 0.0625   # a power of two, so bearing steps of it differ by it exactly
_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)
_RANGES = st.sampled_from((1.0, 5.0, 12.5) + _SPECIAL) | st.floats()
_BEARINGS = (st.integers(-4, 4).map(lambda k: k * _SECTOR) | st.sampled_from(_SPECIAL)
             | st.floats(-1.0, 1.0) | st.floats())
_SECTORS = st.sampled_from((_SECTOR, 0.05, math.radians(3.0), 0.0, -_SECTOR, math.inf, math.nan))


@settings(max_examples=600, deadline=None)
@given(views=st.lists(st.tuples(_RANGES, _BEARINGS), max_size=12),
       sector=_SECTORS | st.floats(0.0, 1.0))
# a NaN range sorts nowhere: a sweep that sorted it in missed that the 1 m
# object hides the 5 m one
@example(views=[(math.nan, 0.0), (1.0, 0.01), (5.0, 0.0)], sector=0.05)
def test_occlusion_sweep_hides_what_every_pair_hides(views, sector):
    """The range-sorted sweep hides exactly what the all-pairs rule hides,
    with equal ranges, equal bearings, bearings exactly a sector apart,
    infinities and NaNs."""
    assert scenario._occluded(views, sector) == _occluded_oracle(views, sector)


def _corners(lo, hi):
    return st.sampled_from((lo, hi))


@st.composite
def scenes_at_the_bounds(draw):
    """Scenes whose bounded fields sit at their limits: offsets and a lane
    change's target at +-1 km, speeds of 0 or 100 m/s, the shortest lane
    change and the strongest braking, at the least and the most ticks per
    second, with any finite heading; the camera's focal lengths, principal
    point and height at their upper bounds or at the defaults."""
    tick_rate = draw(_corners(*scenario.TICK_RATES))
    duration = draw(st.sampled_from((1, 40, 300))) / tick_rate
    vehicles = []
    for _ in range(draw(st.integers(1, 3))):
        profile = draw(st.sampled_from(scenario.VEHICLE_PROFILES))
        params = {}
        for name in scenario.PROFILE_PARAMS.get(profile, ()):
            lo, hi, _ = scenario.PARAM_BOUNDS[name]
            # a rate must be positive; `at` may also fall inside the scene
            corners = {"at": (lo, duration / 2, hi), "rate": (1e-3, hi)}.get(name, (lo, hi))
            params[name] = draw(st.sampled_from(corners))
        vehicles.append(VehicleConfig(
            cls=draw(st.sampled_from(VEHICLE_CLASSES)),
            spawn_time=draw(_corners(0.0, duration - 1 / tick_rate)),
            x0=draw(_corners(-scenario.MAX_OFFSET_M, scenario.MAX_OFFSET_M)),
            z0=draw(_corners(-scenario.MAX_OFFSET_M, scenario.MAX_OFFSET_M)),
            speed=draw(_corners(0.0, scenario.MAX_SPEED)),
            heading=draw(st.floats(allow_nan=False, allow_infinity=False)),
            profile=profile, params=params))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**31)), duration=duration, tick_rate=tick_rate,
        user=UserConfig(mode=draw(st.sampled_from(USER_MODES)),
                        speed=draw(_corners(0.0, scenario.MAX_SPEED))),
        vehicles=tuple(vehicles),
        camera=CameraConfig(
            intrinsics=CameraIntrinsics(*(draw(st.sampled_from((600.0, MAX_FOCAL_PX))) for _ in "xy"),
                                        *(draw(st.sampled_from((-MAX_PIXELS, 320.0, MAX_PIXELS)))
                                          for _ in "xy")),
            camera_height=draw(st.sampled_from((1.55, scenario.MAX_CAMERA_HEIGHT)))))


# the sharpest lane change, from one bound to the other, as the scene starts
SHARPEST_LANE_CHANGE = ScenarioConfig(
    seed=1, duration=3.0, tick_rate=scenario.TICK_RATES[0],
    vehicles=(VehicleConfig("car", 0.0, x0=scenario.MAX_OFFSET_M, z0=-scenario.MAX_OFFSET_M,
                            speed=scenario.MAX_SPEED, profile="lane-change-at",
                            params={"at": 0.0, "to_x": -scenario.MAX_OFFSET_M,
                                    "duration": scenario.MIN_LANE_CHANGE_S}),))


@settings(max_examples=80, deadline=None)
@given(scenes_at_the_bounds())
@example(SHARPEST_LANE_CHANGE)
def test_generate_at_the_bounds_writes_only_finite_numbers(cfg):
    frames, truth = generate(cfg)
    numbers = [number for tick in truth
               for number in (tick.t, tick.pose.pitch, tick.pose.yaw,
                              *(v for o in tick.objects for v in (o.x, o.z, o.vx, o.vz, o.height)))]
    numbers += [number for frame in frames for d in frame.detections
                for number in (d.x, d.y, d.w, d.h, d.score)]
    assert all(map(math.isfinite, numbers))


# ------------------------------------------------- the reference generator

def _scene_params(profile, n_ticks, tick_rate):
    """A profile's parameters, its start inside the scene, on a tick or
    between two."""
    at = st.integers(0, n_ticks).map(lambda k: k / tick_rate) | _floats(0, n_ticks / tick_rate)
    if profile == "decelerate-at":
        return st.fixed_dictionaries({"at": at, "rate": _floats(1e-3, 20)})
    if profile == "lane-change-at":
        return st.fixed_dictionaries(
            {"at": at, "to_x": _floats(-8, 8), "duration": _floats(0.1, 3)})
    return st.just({})


@st.composite
def generator_scenes(draw):
    """Short scenes over every branch of generate: all three profiles,
    vehicles listed out of spawn order and several spawning on one tick,
    day and night, head jitter and box noise at 0 and above, objects in
    front of the user (behind the camera plane), closer than half a
    metre or outside the view cone, and no vehicles at all."""
    tick_rate = draw(st.sampled_from((5.0, 10.0, 20.0)))
    n_ticks = draw(st.integers(1, 60))
    duration = n_ticks / tick_rate
    vehicles = []
    for _ in range(draw(st.integers(0, 6))):
        profile = draw(st.sampled_from(scenario.VEHICLE_PROFILES))
        # on a tick or between two, so that spawns share ticks
        spawn = (draw(st.integers(0, n_ticks - 1)) + draw(st.sampled_from((0.0, 0.5)))) / tick_rate
        vehicles.append(VehicleConfig(
            cls=draw(st.sampled_from(VEHICLE_CLASSES)), spawn_time=spawn,
            x0=draw(_floats(-12, 12)), z0=draw(_floats(-40, 15)), speed=draw(_floats(0, 15)),
            heading=draw(_floats(-math.pi, math.pi)), profile=profile,
            params=draw(_scene_params(profile, n_ticks, tick_rate))))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**31)), duration=duration, tick_rate=tick_rate,
        user=UserConfig(mode=draw(st.sampled_from(USER_MODES)),
                        speed=draw(st.none() | _floats(0, 4))),
        head_motion=draw(st.none() | st.builds(
            HeadMotionConfig, _floats(0, 0.3), _floats(0.5, 6), _floats(0, 0.1), _floats(0.5, 6),
            st.sampled_from((0.0, 0.002, 0.05)))),
        vehicles=tuple(vehicles),
        light=draw(st.sampled_from(LIGHT_CONDITIONS)),
        detector=DetectorConfig(fov=draw(st.sampled_from((0.3, scenario.DEFAULT_FOV, 3.0))),
                                box_noise_px=draw(st.sampled_from((0.0, 1.5, 5.0))),
                                occlusion_sector=draw(st.sampled_from((0.0, math.radians(3.0), 0.2)))),
        camera=draw(st.sampled_from((CameraConfig(), CameraConfig(image_size=(320, 240), margin_px=0.0)))))


def _still_scene(*points, fov=scenario.DEFAULT_FOV):
    """A standing user and a head held still, so that every pose is exactly
    (0, pi), with a parked car at each user-frame (x, z)."""
    return ScenarioConfig(
        seed=3, duration=1.0, user=UserConfig(mode="standing"), head_motion=QUIET_HEAD,
        detector=DetectorConfig(fov=fov),
        vehicles=tuple(VehicleConfig("car", 0.0, x0=x, z0=z, speed=0.0) for x, z in points))


# on the view cone's edge: the fov is twice the car's bearing (doubled and
# halved exactly), and a car a hair farther out lies outside it
VIEW_CONE_EDGE = _still_scene((2.0, -10.0), (2.000001, -10.0),
                              fov=2 * abs(math.atan2(*camera_nd(2.0, -10.0, math.pi))))
# behind the camera plane, at it, exactly half a metre in front of it
# (d = -z at yaw pi and x = 0), and a hair beyond
NEAR_THE_CAMERA = _still_scene((0.0, 5.0), (0.0, 0.0), (0.0, -0.5),
                               (0.0, math.nextafter(-0.5, -1.0)), (0.4, -6.0))


def _generated(cfg, make) -> tuple:
    """make's records for cfg and the trace and truth bytes written from them."""
    frames, truth = make(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(Path(tmp) / "trace.jsonl", cfg, frames)
        write_truth(Path(tmp) / "truth.jsonl", cfg, truth)
        files = tuple((Path(tmp) / f).read_bytes() for f in ("trace.jsonl", "truth.jsonl"))
    return frames, truth, files


@settings(deadline=None)
@given(generator_scenes() | scenes_at_the_bounds())
@example(VIEW_CONE_EDGE)
@example(NEAR_THE_CAMERA)
@example(MIXED_SCENE)
@example(SHARPEST_LANE_CHANGE)
@example(ScenarioConfig(seed=4, duration=1.0))
def test_generator_equals_the_reference(cfg):
    """generate's records, and the trace and truth files written from them,
    equal those of the per-vehicle, per-object loop it replaced."""
    frames, truth, files = _generated(cfg, generate)
    ref_frames, ref_truth, ref_files = _generated(cfg, reference_generator.generate)
    assert truth == ref_truth
    assert frames == ref_frames
    assert files == ref_files


def test_generator_edge_scenes_reach_their_branches():
    """The examples above hold what they claim: the car on the cone's edge
    is seen and the one past it is not, and of the cars near the camera
    only the two beyond half a metre are ever seen."""
    project = reference_generator.pose_projector(ImuPose(0.0, math.pi), CameraConfig())
    edge = VIEW_CONE_EDGE.detector.fov / 2
    boxes = [project(v.x0, v.z0, v.cls) for v in VIEW_CONE_EDGE.vehicles]
    assert abs(boxes[0][4]) == edge < abs(boxes[1][4])
    boxes = [project(v.x0, v.z0, v.cls) for v in NEAR_THE_CAMERA.vehicles]
    assert [box is None for box in boxes] == [True, True, True, False, False]
    frames, truth = generate(NEAR_THE_CAMERA)
    assert {tick.pose for tick in truth} == {ImuPose(0.0, math.pi)}
    assert any(frame.detections for frame in frames)


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.05])
def test_generator_jitter_pair_is_two_scalar_draws(sigma):
    """generate draws a tick's two head-jitter terms as one pair: the same
    floats, from the same stream, as two scalar draws."""
    pairs, scalars = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(1000):
        got = pairs.normal(0.0, sigma, 2).tolist()
        assert repr(got) == repr([scalars.normal(0.0, sigma), scalars.normal(0.0, sigma)])
    assert pairs.random() == scalars.random()


# --------------------------------------------------------------- detector

def test_detector_saturates_point_blank():
    det = DetectorConfig()
    assert detector_model(0.5, "car", "day", det) >= 0.99
    assert detector_model(0.5, "cycle", "day", det) >= 0.99


def test_detector_monotone_decreasing():
    det = DetectorConfig()
    ps = [detector_model(r, "car", "day", det) for r in np.linspace(0.0, 40.0, 200)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_night_is_harder():
    det = DetectorConfig()
    assert detector_model(10.0, "car", "night", det) < detector_model(10.0, "car", "day", det)


def test_detector_far_past_its_midpoint_never_detects():
    # a cycle 60 m back at night_factor 0.1 sits some 740 spreads past the
    # midpoint, where math.exp overflows; generate used to raise OverflowError
    det = DetectorConfig(night_factor=0.1)
    assert detector_model(60.0, "cycle", "night", det) == 0.0
    cfg = one_car(z0=-60.0, speed=0.0, cls="cycle", duration=1.0, light="night", detector=det)
    frames, _ = generate(cfg)
    assert not any(frame.detections for frame in frames)


def _first_detection_range(seed: int, cls: str, det: DetectorConfig) -> float:
    rng = np.random.default_rng(seed)
    r = 40.0
    step = 8.33 / 10.0
    while r > 0:
        if rng.random() < detector_model(r, cls, "day", det):
            return r
        r -= step
    return 0.0


def test_first_detection_median_quick():
    det = DetectorConfig()
    car = np.median([_first_detection_range(s, "car", det) for s in range(200)])
    cycle = np.median([_first_detection_range(s, "cycle", det) for s in range(200)])
    assert abs(car - 12.0) <= 1.0
    assert abs(cycle - 6.0) <= 0.8


# ---------------------------------------------------------------- trace IO

def test_trace_roundtrip(tmp_path):
    cfg = one_car(seed=5, duration=3.0)
    frames, truth = generate(cfg)
    write_trace(tmp_path / "t.trace", cfg, frames)
    write_truth(tmp_path / "t.truth", cfg, truth)
    header, frames2 = read_trace(tmp_path / "t.trace")
    _, truth2 = read_truth(tmp_path / "t.truth")
    assert header.camera == cfg.camera
    assert header.seed == cfg.seed
    assert list(frames2) == list(frames)
    assert list(truth2) == list(truth)


_COORD = st.floats(-1e6, 1e6)  # finite, -0.0 included
_SIZE = st.floats(1e-3, 1e4)
_POSE = st.builds(ImuPose, st.floats(-1.5, 1.5), st.floats(-3.14, 3.14))
_TIMES = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12, unique=True).map(sorted)
_BOX = st.builds(BoundingBox2D, _COORD, _COORD, _SIZE, _SIZE, st.sampled_from(VEHICLE_CLASSES),
                 st.floats(0.0, 1.0))
_OBJECT = st.builds(GroundTruthObject, st.integers(0, 10**6), st.sampled_from(VEHICLE_CLASSES),
                    _COORD, _COORD, _COORD, _COORD, _SIZE)


@settings(max_examples=60, deadline=None)
@given(times=_TIMES, data=st.data())
def test_trace_and_truth_records_roundtrip_unchanged(times, data):
    """Any valid frames and truth ticks come back from their files equal,
    down to the sign of a zero and the type of every number: write_trace
    and write_truth share _write_records, read_trace and read_truth
    _read_records."""
    frames = [Frame(t, data.draw(_POSE), tuple(data.draw(st.lists(_BOX, max_size=4))))
              for t in times]
    truth = [GroundTruthTick(t, data.draw(_POSE), tuple(data.draw(st.lists(_OBJECT, max_size=4))))
             for t in times]
    cfg = one_car()
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(Path(tmp) / "t.trace", cfg, frames)
        write_truth(Path(tmp) / "t.truth", cfg, truth)
        trace_header, frames2 = read_trace(Path(tmp) / "t.trace")
        truth_header, truth2 = read_truth(Path(tmp) / "t.truth")
    assert trace_header == truth_header
    assert (trace_header.seed, trace_header.duration) == (cfg.seed, cfg.duration)
    assert frames2 == frames and repr(frames2) == repr(frames)
    assert truth2 == truth and repr(truth2) == repr(truth)


# ------------------------------------------------ codec equivalence
# The writer keeps one C encoder per file and the reader tries the
# decoder's scanner first; these hold both to json's own checked paths.
# CI runs them again under --hypothesis-profile=ci (`-k codec`), so the
# property tests set no max_examples of their own.

def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _parent_decode(line: str):
    """_decode as it read before the scanner path: _DECODER.decode alone."""
    try:
        return scenario._DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"column {exc.colno}: {exc.msg}") from exc


def _outcome(decode, line: str):
    try:
        value = decode(line)
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(value)


# numbers whose text the float and int reprs decide: a signed zero, the
# exponent switches at 1e-05 and 1e16, the least subnormal, an int past 2**53
_EDGE_NUMBERS = [-0.0, 0.0, 1e-05, 1e16, 5e-324, 2**53 + 1, -(2**53 + 1), 0.1, 1e308]
_NUMBER = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats(allow_nan=False),
                    st.integers(-2**70, 2**70))
_CLASS = st.sampled_from([*VEHICLE_CLASSES, "", "é\n\"\\ "])
_FRAME_RECORD = st.fixed_dictionaries({
    "kind": st.just("frame"), "t": _NUMBER, "pitch": _NUMBER, "yaw": _NUMBER,
    "detections": st.lists(st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER, _CLASS, _NUMBER)
                           .map(list), max_size=4)})
_TRUTH_RECORD = st.fixed_dictionaries({
    "kind": st.just("truth"), "t": _NUMBER, "pitch": _NUMBER, "yaw": _NUMBER,
    # as write_truth hands them over: a tuple of GroundTruthObject tuples
    "objects": st.lists(st.builds(GroundTruthObject, st.integers(0, 2**64), _CLASS, _NUMBER,
                                  _NUMBER, _NUMBER, _NUMBER, _NUMBER), max_size=4).map(tuple)})
_EMPTY_RECORDS = [{"kind": "frame", "t": 0.0, "pitch": -0.0, "yaw": 1e16, "detections": []},
                  {"kind": "truth", "t": 5e-324, "pitch": 1e-05, "yaw": 2**53 + 1, "objects": ()}]


@contextlib.contextmanager
def _c_encoder(available: bool):
    """json as it is, or as a Python without the _json accelerator."""
    if available:
        yield
    else:
        with patch.object(json.encoder, "c_make_encoder", None):
            yield


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
@settings(deadline=None)
@given(records=st.lists(st.one_of(_FRAME_RECORD, _TRUTH_RECORD), max_size=6))
@example(records=_EMPTY_RECORDS)
def test_codec_line_writer_equals_json_dumps(c_encoder, records):
    """Each line is json.dumps's, with the writer's options, and a file is
    its header's line and its records' lines, each ended by a newline."""
    with _c_encoder(c_encoder), tempfile.TemporaryDirectory() as tmp:
        encode = scenario._line_encoder()
        assert (encode == scenario._ENCODER.encode) is not c_encoder
        assert [encode(r) for r in records] == [_dumps(r) for r in records]
        cfg = one_car()
        path = Path(tmp) / "t.trace"
        scenario._write_records(path, cfg, "trace-header", iter(records))
        want = [scenario._header_record(cfg, "trace-header"), *records]
        assert path.read_bytes() == "".join(_dumps(r) + "\n" for r in want).encode()


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_codec_files_hold_json_dumps_lines(tmp_path, c_encoder):
    """write_trace and write_truth of a generated scene, boxes and objects
    among them, write json.dumps's lines of their records."""
    cfg = one_car(z0=-20.0, duration=3.0)
    frames, truth = generate(cfg)
    records = {
        "trace-header": [{"kind": "frame", "t": f.t, "pitch": f.pose.pitch, "yaw": f.pose.yaw,
                          "detections": [[d.x, d.y, d.w, d.h, d.cls, d.score]
                                         for d in f.detections]} for f in frames],
        "truth-header": [{"kind": "truth", "t": k.t, "pitch": k.pose.pitch, "yaw": k.pose.yaw,
                          "objects": [list(o) for o in k.objects]} for k in truth]}
    assert any(f.detections for f in frames) and all(k.objects for k in truth)
    with _c_encoder(c_encoder):
        write_trace(tmp_path / "t.trace", cfg, frames)
        write_truth(tmp_path / "t.truth", cfg, truth)
    for name, kind in (("t.trace", "trace-header"), ("t.truth", "truth-header")):
        want = [scenario._header_record(cfg, kind), *records[kind]]
        assert (tmp_path / name).read_text() == "".join(_dumps(r) + "\n" for r in want)


def _mutations(draw, line: str) -> str:
    """The line with a few characters deleted, inserted or replaced."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 2))
        put = draw(st.text(alphabet=' \t,:[]{}"\\-+.0123456789eENaIfinytrulsx', max_size=2))
        line = line[:at] + put + line[at + cut:]
    return line


@st.composite
def _codec_lines(draw):
    """A record's line, a mutation of one, two lines on one, or any text."""
    line = _dumps(draw(st.one_of(_FRAME_RECORD, _TRUTH_RECORD)))
    how = draw(st.sampled_from(["line", "mutated", "doubled", "padded", "text"]))
    if how == "mutated":
        return _mutations(draw, line)
    if how == "doubled":
        return line + draw(st.sampled_from(["", " ", ","])) + line
    if how == "padded":
        return draw(st.sampled_from([" ", "\t", ""])) + line + draw(st.sampled_from([" ", "\t"]))
    if how == "text":
        return draw(st.text(max_size=40))
    return line


@settings(deadline=None)
@given(line=_codec_lines())
@example(line="1,2")
@example(line='{"t":NaN}')
@example(line='{"t":-Infinity}')
@example(line='[]')
@example(line='')
def test_codec_reader_fast_path_equals_decode(line):
    """_decode gives what _DECODER.decode gives, down to the type and sign
    of every number, and raises the same error with the same text."""
    assert _outcome(scenario._decode, line) == _outcome(_parent_decode, line)


_LINE = '{"detections":[],"kind":"frame","pitch":0.0,"t":0.1,"yaw":3.0}'
_FRAME = Frame(0.1, ImuPose(0.0, 3.0), ())


@pytest.mark.parametrize("line, outcome", [
    (" " + _LINE, _FRAME),
    (_LINE + " ", _FRAME),
    ("\t" + _LINE + "\t", _FRAME),
    (_LINE.replace("0.0", "NaN", 1), "line 2: non-finite number NaN"),
    (_LINE.replace("0.0", "Infinity", 1), "line 2: non-finite number Infinity"),
    ("1,2", "line 2: column 2: Extra data"),
    (_LINE + _LINE, "line 2: column 63: Extra data"),
    (_LINE[:-6], "line 2: column 53: Unterminated string starting at"),
], ids=["leading-space", "trailing-space", "tabs", "nan", "infinity", "one-comma-two",
        "two-objects", "truncated"])
def test_codec_reader_takes_lines_off_the_scanner_path_as_before(tmp_path, line, outcome):
    """Lines the scanner does not take whole read as they did: padding is
    still allowed, and each error keeps its text."""
    path = tmp_path / "t.trace"
    path.write_text(_dumps(scenario._header_record(one_car(), "trace-header")) + "\n"
                    + line + "\n")
    if isinstance(outcome, Frame):
        assert read_trace(path)[1] == [outcome]
    else:
        with pytest.raises(ParseError) as raised:
            read_trace(path)
        assert str(raised.value) == f"{path}: {outcome}"


def test_truncated_trace_reports_line(tmp_path):
    cfg = one_car(duration=2.0)
    frames, _ = generate(cfg)
    path = tmp_path / "t.trace"
    write_trace(path, cfg, frames)
    content = path.read_text().splitlines()
    path.write_text("\n".join(content[:5]) + "\n" + content[5][: len(content[5]) // 2] + "\n")
    with pytest.raises(ParseError, match="line 6"):
        read_trace(path)


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999", "1" + "0" * 250 + "e99"],
                         ids=["nan", "minus-infinity", "overflow-exponent", "overflow-digits"])
def test_non_finite_number_reports_line(tmp_path, literal):
    cfg = one_car(duration=2.0)
    frames, _ = generate(cfg)
    path = tmp_path / "t.trace"
    write_trace(path, cfg, frames)
    content = path.read_text().splitlines()
    record = json.loads(content[4])
    content[4] = content[4].replace(json.dumps(record["yaw"]), literal, 1)
    path.write_text("\n".join(content) + "\n")
    with pytest.raises(ParseError, match="line 5: non-finite number"):
        read_trace(path)


def _replace_number(line: str, path, value) -> str:
    """The JSON line with the number at path (keys and indices) set to value."""
    record = json.loads(line)
    *outer, last = path
    holder = record
    for key in outer:
        holder = holder[key]
    holder[last] = "<number>"
    return json.dumps(record).replace('"<number>"', str(value))


@pytest.mark.parametrize("reader, row, path, line", [
    ("trace", 4, ("pitch",), 5),
    ("trace", None, ("detections", 0, 2), None),
    ("truth", None, ("objects", 0, 2), None),
    ("trace", 0, ("camera_height",), 1),
    ("truth", 0, ("tick_rate",), 1),
], ids=["trace-pose", "box-number", "truth-object", "trace-header", "truth-header"])
def test_int_too_large_for_a_double_reports_line(tmp_path, reader, row, path, line):
    """A 401-digit integer cannot convert to a float: a line-numbered
    ParseError, not an OverflowError from the check itself."""
    cfg = one_car(z0=-20.0, duration=2.0)
    frames, truth = generate(cfg)
    file = tmp_path / f"t.{reader}"
    (write_trace if reader == "trace" else write_truth)(file, cfg, frames if reader == "trace" else truth)
    content = file.read_text().splitlines()
    if row is None:   # the first record with a box or an object
        key = path[0]
        row = next(i for i, text in enumerate(content[1:], start=1) if json.loads(text)[key])
        line = row + 1
    content[row] = _replace_number(content[row], path, 10**400)
    file.write_text("\n".join(content) + "\n")
    with pytest.raises(ParseError, match=f"line {line}: non-finite number or non-number"):
        (read_trace if reader == "trace" else read_truth)(file)


_GOOD = [1, "car", 0.5, -10.0, 0.0, 2.0, 1.5]


@pytest.mark.parametrize("objects", [
    [_GOOD, [2, "cycle", 1.0, -5.0, 0.0, 1.0, 1.7]],
    [],
    [[1, "car", 0.0, -1e308, 0.0, 0.0, 1.5], [2, "car", 1e308, 1e308, 0.0, 0.0, 1.5]],
    [[1, "car", 1e308, 1e308, 0.0, 0.0, 1.5], _GOOD],
    [[1, "car", -1e308, -0.5e308, 0.0, 0.0, 1.5], [2, "car", 1e308, 1e308, 0.0, 0.0, 1.5]],
    [[1, "car", 10**400, 0.0, 0.0, 0.0, 1.5]],
    [_GOOD, [2, "bus", "1.0", 0.0, 0.0, 0.0, 1.5]],
    [[2, "car", "1.0", 0.0, 0.0, 0.0, 1.5], [3, "car", 0.0]],
    [_GOOD, [3, "car", 0.0]],
    [_GOOD, _GOOD + [9]],
    [_GOOD, 7],
    [_GOOD, "abcdefg"],
    [_GOOD, [4, "car", "1.0", 0.0, 0.0, 0.0, 1.5]],
    [_GOOD, [4, ["car"], 1.0, 0.0, 0.0, 0.0, 1.5]],
    [[4, "car", True, 0.0, 0.0, 0.0, None]],
], ids=["valid", "none", "large-finite", "overflow-first", "overflow-cancelled-in-total",
        "int-beyond-float", "class-before-number", "number-before-length", "too-short",
        "too-long", "not-a-row", "string-row", "string-number", "list-class", "null-number"])
def test_truth_objects_read_as_each_object_is_checked(tmp_path, objects):
    """read_truth checks a record's objects with one sum; it accepts and
    rejects, with the same error, what the per-object check does."""
    record = {"kind": "truth", "t": 0.0, "pitch": 0.0, "yaw": 3.0, "objects": objects}
    path = tmp_path / "t.truth"
    path.write_text(json.dumps(scenario._header_record(one_car(), "truth-header")) + "\n"
                    + json.dumps(record) + "\n")
    try:
        expected = tuple(map(scenario._truth_object, objects))
    except (ValueError, TypeError) as exc:
        error = ParseError(f"{path}: line 2: {exc}")
        with pytest.raises(type(error)) as raised:
            read_truth(path)
        assert str(raised.value) == str(error)
    else:
        (tick,) = read_truth(path)[1]
        assert tick.objects == expected
        assert repr(tick.objects) == repr(expected)


def test_header_missing_field_named(tmp_path):
    path = tmp_path / "t.trace"
    header = {"kind": "trace-header", "version": 1, "camera_height": 1.55,
              "tick_rate": 10.0, "seed": 1, "duration": 2.0}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ParseError, match="intrinsics"):
        read_trace(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(json.dumps({"kind": "trace-header", "version": 99}) + "\n")
    with pytest.raises(VersionMismatch):
        read_trace(path)


# ------------------------------------------------------- collector paused

def _spy(monkeypatch, name, raises):
    """Patch scenario.<name>, a step inside generate's or the readers' loop,
    to record whether the collector runs and then raise or carry on."""
    seen, real = [], getattr(scenario, name)

    def step(*args):
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("stop")
        return real(*args)
    monkeypatch.setattr(scenario, name, step)
    return seen


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_generate_pauses_the_collector_and_restores_it(collector, monkeypatch, raises):
    seen = _spy(monkeypatch, "_occluded", raises)
    if raises:
        with pytest.raises(ValueError, match="stop"):
            generate(one_car(duration=2.0))
    else:
        generate(one_car(duration=2.0))
    assert seen and not any(seen)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("reader", [read_trace, read_truth], ids=["trace", "truth"])
def test_readers_pause_the_collector_and_restore_it(tmp_path, collector, monkeypatch, reader,
                                                    raises):
    cfg = one_car(duration=2.0)
    frames, truth = generate(cfg)
    write_trace(tmp_path / "t.trace", cfg, frames)
    write_truth(tmp_path / "t.truth", cfg, truth)
    seen = _spy(monkeypatch, "_pose_record", raises)
    path = tmp_path / ("t.trace" if reader is read_trace else "t.truth")
    if raises:
        with pytest.raises(ParseError, match="line 2: stop"):
            reader(path)
    else:
        assert len(reader(path)[1]) == 20
    assert seen and not any(seen)
    assert gc.isenabled() is collector


def test_a_bad_truth_line_restores_the_collector(tmp_path, collector):
    cfg = one_car(duration=2.0)
    _, truth = generate(cfg)
    path = tmp_path / "t.truth"
    write_truth(path, cfg, truth)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["{broken"] + lines[4:]) + "\n")
    with pytest.raises(ParseError, match="line 4: column 2: "):
        read_truth(path)
    assert gc.isenabled() is collector


def test_a_dense_scene_makes_no_cycles(tmp_path):
    """What makes the pause safe: generating, writing and reading a dense
    scene, with the collector paused throughout, leaves nothing for it."""
    cfg = _crowded_scene()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        frames, truth = generate(cfg)
        write_trace(tmp_path / "t.trace", cfg, frames)
        write_truth(tmp_path / "t.truth", cfg, truth)
        read = read_trace(tmp_path / "t.trace"), read_truth(tmp_path / "t.truth")
        del frames, truth, read
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
