"""Geometry unit tests: hand-computed pixel values and round-trip properties."""

from __future__ import annotations

import enum
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from numbers import Real
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import rearguard
from rearguard import geometry
from rearguard.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    ImuPose,
    InvalidConfig,
    horizon_line,
    is_number,
    normalize_angle,
    pose_model,
)

INTR = CameraIntrinsics(f_x=600.0, f_y=600.0, c_x=320.0, c_y=320.0)


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value, expected", [
    (0, True), (-3, True), (1.5, True), (math.nan, True), (math.inf, True),
    (True, False), (False, False), (np.bool_(True), False),
    (np.float64(2.5), True), (np.int64(7), True), (Fraction(1, 3), True),
    (Decimal("0.1"), False), (_Level.LOW, True), ("1.0", False), (None, False),
], ids=["int", "negative-int", "float", "nan", "inf", "true", "false", "np-bool",
        "np-float64", "np-int64", "fraction", "decimal", "int-enum", "str", "none"])
def test_is_number_truth_table(value, expected):
    """A real number that is not a bool; the plain float and int shortcut
    answers as the abstract-class check does."""
    assert is_number(value) is expected
    assert expected is (isinstance(value, Real) and not isinstance(value, bool))


@given(st.one_of(st.integers(), st.floats(), st.booleans(), st.fractions(), st.decimals(),
                 st.text(max_size=3), st.none(), st.complex_numbers()))
def test_is_number_agrees_with_the_abstract_class_check(value):
    assert is_number(value) is (isinstance(value, Real) and not isinstance(value, bool))


@pytest.mark.parametrize("field, value, message", [
    ("f_x", 0.0, "must be positive"),
    ("f_y", -600.0, "must be positive"),
    ("c_x", math.nan, "must be a finite number, got nan"),
    ("c_y", math.inf, "must be a finite number, got inf"),
    ("f_x", 1e300, "must be at most 100000 px, got 1e\\+300"),
    ("f_y", 100000.5, "must be at most 100000 px, got 100000.5"),
    ("c_x", -10000.5, "must be within 10000 px of the image origin, got -10000.5"),
    ("c_y", 1e300, "must be within 10000 px of the image origin, got 1e\\+300"),
], ids=["f-x-zero", "f-y-negative", "c-x-nan", "c-y-inf", "f-x-huge", "f-y-above-bound",
        "c-x-below-bound", "c-y-huge"])
def test_bad_intrinsics_are_config_errors_led_by_their_field(field, value, message):
    # a plain ValueError before, and "focal lengths must be positive" named no field
    intr = {"f_x": 600.0, "f_y": 600.0, "c_x": 320.0, "c_y": 320.0, field: value}
    with pytest.raises(InvalidConfig, match=f"^{field}: {message}$"):
        CameraIntrinsics(**intr)


def test_intrinsics_at_their_bounds_are_accepted():
    """The bounds are closed: a focal length of MAX_FOCAL_PX and a principal
    point MAX_PIXELS from the origin on either side are a camera."""
    CameraIntrinsics(geometry.MAX_FOCAL_PX, geometry.MAX_FOCAL_PX, -geometry.MAX_PIXELS,
                     geometry.MAX_PIXELS)


def test_headset_modules_do_not_load_the_generator():
    """tracking, sampler and risk take their config errors from geometry, so
    the loop that would run on the headset never imports the synthetic world
    or the harness."""
    src = str(Path(rearguard.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import rearguard.tracking, rearguard.sampler, rearguard.risk; print(*sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "rearguard.tracking" in loaded
    assert not {"rearguard.scenario", "rearguard.evaluation", "rearguard.cli"} & set(loaded)


def box_with_bottom(v_bottom: float, u_center: float = 320.0, w: float = 60.0, h: float = 80.0) -> BoundingBox2D:
    return BoundingBox2D(x=u_center - w / 2.0, y=v_bottom - h, w=w, h=h)


def camera_nd(x: float, z: float, yaw: float) -> tuple[float, float]:
    """Camera-frame (n, d) of a user-frame point: the planar rotation, written out."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x + s * z, -s * x + c * z


def locate(box: BoundingBox2D, yaw: float = 0.0, pitch: float = 0.0, camera_height: float = 1.5):
    return pose_model(ImuPose(pitch, yaw), INTR, camera_height)[2](box)


def observe(x, z, obj_height, pose, intr, camera_height):
    """The pose model's observation triple of a user-frame object as a
    3-vector, or None behind the camera."""
    obs = pose_model(pose, intr, camera_height)[0](x, z, obj_height)
    return None if obs is None else np.array(obs[2:])


# ---------------------------------------------------------------- horizon

def test_horizon_at_zero_pitch_is_principal_row():
    assert horizon_line(INTR, 0.0) == 320.0


def test_horizon_hand_values():
    # c_y - f_y * tan(pitch): 320 - 600*0.1 = 260, 320 + 600*0.2 = 440
    assert horizon_line(INTR, math.atan(0.1)) == pytest.approx(260.0, abs=1e-9)
    assert horizon_line(INTR, -math.atan(0.2)) == pytest.approx(440.0, abs=1e-9)


def test_horizon_strictly_decreasing_in_pitch():
    pitches = np.linspace(-0.4, 0.4, 81)
    rows = [horizon_line(INTR, p) for p in pitches]
    assert all(a > b for a, b in zip(rows, rows[1:]))


# ------------------------------------------------------------------ depth

def test_depth_hand_values():
    # dy = 60 px -> 600*1.5/60 = 15 m; dy = 90 px -> 10 m
    assert locate(box_with_bottom(380.0))[3] == pytest.approx(15.0)
    assert locate(box_with_bottom(410.0))[3] == pytest.approx(10.0)


def test_depth_above_horizon_is_none():
    assert locate(box_with_bottom(320.0)) is None
    # exactly at the 1 px guard is still rejected
    assert locate(box_with_bottom(321.0)) is None


def test_depth_clamped_at_max():
    # dy = 2 px -> raw depth 450 m, clamped
    assert locate(box_with_bottom(322.0))[3] == 100.0


# ----------------------------------------------------------------- locate

def test_locate_principal_ray():
    # dy = 60 px -> 15 m straight ahead; h = 80 px * 15 m / 600 px = 2 m
    assert locate(box_with_bottom(380.0)) == (0.0, 15.0, 2.0, 15.0)


def test_locate_hand_values():
    # dy = 90 px -> 10 m, 300 px right of c_x -> n = 300 * 10 / 600 = 5 m
    x, z, _, depth = locate(box_with_bottom(410.0, u_center=620.0))
    assert (x, z, depth) == (pytest.approx(5.0), 10.0, 10.0)
    # dy = 45 px -> 20 m, 150 px left of c_x -> n = -5 m
    x, z, _, depth = locate(box_with_bottom(365.0, u_center=170.0))
    assert (x, z, depth) == (pytest.approx(-5.0), pytest.approx(20.0), pytest.approx(20.0))


def test_camera_to_user_identity():
    # zero yaw: the user frame is the camera frame
    box = box_with_bottom(410.0, u_center=620.0)   # n = 5 m, d = 10 m, h = 80 px -> 4/3 m
    assert locate(box) == pytest.approx((5.0, 10.0, 80.0 / 60.0, 10.0))


def test_camera_to_user_quarter_and_half_turn():
    box = box_with_bottom(410.0, u_center=620.0)   # n = 5 m, d = 10 m
    x, z, _, _ = locate(box, yaw=math.pi / 2)
    assert (x, z) == (pytest.approx(-10.0), pytest.approx(5.0))
    x, z, _, _ = locate(box, yaw=math.pi)
    assert (x, z) == (pytest.approx(-5.0), pytest.approx(-10.0))


def test_rotation_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v_bottom, u_center = rng.uniform(330, 640), rng.uniform(0, 640)
        yaw = rng.uniform(-math.pi, math.pi)
        x0, z0, _, _ = locate(box_with_bottom(v_bottom, u_center))
        x, z, _, _ = locate(box_with_bottom(v_bottom, u_center), yaw=yaw)
        assert math.hypot(x, z) == pytest.approx(math.hypot(x0, z0), abs=1e-12)


@given(x=st.floats(-30.0, 30.0), z=st.floats(-90.0, 90.0), yaw=st.floats(-math.pi, math.pi),
       obj_height=st.floats(0.5, 3.0), w=st.floats(1.0, 200.0))
def test_locate_inverts_observe_at_zero_pitch(x, z, yaw, obj_height, w):
    """At pitch 0 the forward model has no cos(pitch) for locate to drop:
    the box observe places is located back at its user-frame point."""
    h_e = 1.55
    observe, _, locate_box, _ = pose_model(ImuPose(0.0, yaw), INTR, h_e)
    obs = observe(x, z, obj_height)
    assume(obs is not None and 1.0 <= obs[1] <= 90.0)
    _, _, u_offset, h_px, deviation = obs
    v_bottom = horizon_line(INTR, 0.0) + deviation
    box = BoundingBox2D(INTR.c_x + u_offset - w / 2.0, v_bottom - h_px, w, h_px)
    got_x, got_z, got_h, depth = locate_box(box)
    assert got_x == pytest.approx(x, abs=1e-9)
    assert got_z == pytest.approx(z, abs=1e-9)
    assert got_h == pytest.approx(obj_height, abs=1e-9)
    assert depth == pytest.approx(obs[1], rel=1e-12)


@given(dy=st.floats(-5.0, 5.0), pitch=st.floats(-0.2, 0.2), yaw=st.floats(-math.pi, math.pi))
def test_locate_none_exactly_at_the_horizon_rule(dy, pitch, yaw):
    """None exactly when the contact row is 1 px or less below the
    horizon; otherwise the depth does not depend on the yaw."""
    box = box_with_bottom(horizon_line(INTR, pitch) + dy)
    above = box.y + box.h - horizon_line(INTR, pitch) <= 1.0
    assert (locate(box, yaw=yaw, pitch=pitch) is None) is above
    if not above:
        assert locate(box, pitch=pitch)[3] == locate(box, yaw=yaw, pitch=pitch)[3]


def test_normalize_angle_range():
    for a in (-7.0, -math.pi, 0.0, math.pi, 9.42, 100.0):
        w = normalize_angle(a)
        assert -math.pi < w <= math.pi
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


# ------------------------------------------------------------ observation

def test_observation_dead_ahead():
    obs = observe(0.0, 10.0, 1.5, ImuPose(0.0, 0.0), INTR, 1.5)
    assert obs == pytest.approx([0.0, 90.0, 90.0])


def test_observation_lateral_offset():
    obs = observe(5.0, 10.0, 1.5, ImuPose(0.0, 0.0), INTR, 1.5)
    assert obs == pytest.approx([300.0, 90.0, 90.0])


def test_observation_behind_camera():
    assert observe(10.0, 0.0, 1.5, ImuPose(0.0, 0.0), INTR, 1.5) is None


def test_observation_rear_camera_sees_negative_z():
    # rear-facing camera (yaw pi): an object behind the user is in front
    # of the camera, d = -z
    obs = observe(0.0, -12.0, 1.5, ImuPose(0.0, math.pi), INTR, 1.55)
    assert obs[2] == pytest.approx(600.0 * 1.55 / 12.0)
    assert observe(0.0, 12.0, 1.5, ImuPose(0.0, math.pi), INTR, 1.55) is None


# ------------------------------------------------------------- properties

def test_depth_roundtrip_under_pitch():
    """Contact pixel built from the observation model inverts to the true
    depth for any pitch: the horizon terms cancel."""
    rng = np.random.default_rng(42)
    h_e = 1.55
    worst = 0.0
    for _ in range(2000):
        depth = rng.uniform(2.0, 60.0)
        pitch = rng.uniform(-math.radians(15), math.radians(15))
        obs = observe(0.0, depth, 1.5, ImuPose(pitch, 0.0), INTR, h_e)
        v_bottom = horizon_line(INTR, pitch) + obs[2]
        est = locate(box_with_bottom(v_bottom), pitch=pitch, camera_height=h_e)[3]
        worst = max(worst, abs(est - depth) / depth)
    assert worst <= 0.01


def test_observation_third_component_matches_depth_inversion():
    rng = np.random.default_rng(43)
    h_e = 1.55
    for _ in range(500):
        x = rng.uniform(-10, 10)
        z = rng.uniform(3, 50)
        yaw = rng.uniform(-0.3, 0.3)
        pitch = rng.uniform(-0.2, 0.2)
        obs = observe(x, z, 1.5, ImuPose(pitch, yaw), INTR, h_e)
        _, d = camera_nd(x, z, yaw)
        assert INTR.f_y * h_e / obs[2] == pytest.approx(d, rel=1e-12)
