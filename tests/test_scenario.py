"""Scenario generator and trace I/O tests."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rearguard.geometry import CameraIntrinsics, user_to_camera_planar
from rearguard.risk import ttc
from rearguard.scenario import (
    LIGHT_CONDITIONS,
    ROAD_TYPES,
    USER_MODES,
    VEHICLE_CLASSES,
    CameraConfig,
    DetectorConfig,
    Frame,
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
], ids=["seed-negative", "vehicle-fields-missing", "detect-median-missing", "spread-zero",
        "image-size-short", "pitch-jitter-too-big", "param-not-a-number", "param-not-positive"])
def test_invalid_value_is_named(change, message):
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
                        speed=draw(st.none() | _floats(0, 4)), height=draw(_floats(1, 2.2))),
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
    from rearguard.geometry import estimate_depth
    checked = 0
    for frame, tick in zip(frames, truth):
        if not frame.detections:
            continue
        obj = tick.objects[0]
        _, d_true = user_to_camera_planar(obj.x, obj.z, frame.pose.yaw)
        est = estimate_depth(frame.detections[0], cfg.camera.intrinsics,
                             frame.pose.pitch, cfg.camera.camera_height)
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
        n, d = user_to_camera_planar(obj.x, obj.z, frame.pose.yaw)
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
    assert header.camera_height == cfg.camera.camera_height
    assert header.seed == cfg.seed
    assert list(frames2) == list(frames)
    assert list(truth2) == list(truth)


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
