"""Geometry unit tests: hand-computed pixel values and round-trip properties."""

from __future__ import annotations

import enum
import math
from decimal import Decimal
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rearguard.geometry import (
    AboveHorizon,
    BehindCamera,
    BoundingBox2D,
    CameraIntrinsics,
    ImuPose,
    PointCamera3D,
    backproject,
    camera_to_user,
    estimate_depth,
    horizon_line,
    is_number,
    normalize_angle,
    project_observation,
    user_to_camera_planar,
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


def box_with_bottom(v_bottom: float, u_center: float = 320.0, w: float = 60.0, h: float = 80.0) -> BoundingBox2D:
    return BoundingBox2D(x=u_center - w / 2.0, y=v_bottom - h, w=w, h=h)


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
    assert estimate_depth(box_with_bottom(380.0), INTR, 0.0, 1.5) == pytest.approx(15.0)
    assert estimate_depth(box_with_bottom(410.0), INTR, 0.0, 1.5) == pytest.approx(10.0)


def test_depth_above_horizon_raises():
    with pytest.raises(AboveHorizon):
        estimate_depth(box_with_bottom(320.0), INTR, 0.0, 1.5)
    # exactly at the 1 px guard is still rejected
    with pytest.raises(AboveHorizon):
        estimate_depth(box_with_bottom(321.0), INTR, 0.0, 1.5)


def test_depth_clamped_at_max():
    # dy = 2 px -> raw depth 450 m, clamped
    d = estimate_depth(box_with_bottom(322.0), INTR, 0.0, 1.5)
    assert d == 100.0


def test_depth_rejects_bad_camera_height():
    with pytest.raises(ValueError):
        estimate_depth(box_with_bottom(380.0), INTR, 0.0, 0.0)


# ------------------------------------------------------------ backproject

def test_backproject_principal_ray():
    p = backproject(box_with_bottom(320.0), 10.0, INTR)
    assert (p.x, p.y, p.z) == (0.0, 0.0, 10.0)


def test_backproject_hand_values():
    p = backproject(box_with_bottom(320.0, u_center=620.0), 10.0, INTR)
    assert p.x == pytest.approx(5.0)
    assert p.z == 10.0
    q = backproject(box_with_bottom(320.0, u_center=170.0), 20.0, INTR)
    assert q.x == pytest.approx(-5.0)
    assert q.z == 20.0


# ------------------------------------------------------------- transforms

def test_camera_to_user_identity():
    p = camera_to_user(PointCamera3D(1.0, 0.0, 5.0), 0.0)
    assert (p.x, p.y, p.z) == (1.0, 0.0, 5.0)


def test_camera_to_user_quarter_and_half_turn():
    p = camera_to_user(PointCamera3D(1.0, 0.0, 0.0), math.pi / 2)
    assert p.x == pytest.approx(0.0, abs=1e-12)
    assert p.z == pytest.approx(1.0)
    q = camera_to_user(PointCamera3D(3.0, 0.0, 4.0), math.pi)
    assert q.x == pytest.approx(-3.0)
    assert q.z == pytest.approx(-4.0)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, z = rng.uniform(-30, 30, size=2)
        yaw = rng.uniform(-math.pi, math.pi)
        p = camera_to_user(PointCamera3D(x, 0.0, z), yaw)
        assert math.hypot(p.x, p.z) == pytest.approx(math.hypot(x, z), abs=1e-12)


def test_user_to_camera_inverts_camera_to_user():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, z = rng.uniform(-30, 30, size=2)
        yaw = rng.uniform(-math.pi, math.pi)
        p = camera_to_user(PointCamera3D(x, 0.0, z), yaw)
        n, d = user_to_camera_planar(p.x, p.z, yaw)
        assert n == pytest.approx(x, abs=1e-9)
        assert d == pytest.approx(z, abs=1e-9)


def test_normalize_angle_range():
    for a in (-7.0, -math.pi, 0.0, math.pi, 9.42, 100.0):
        w = normalize_angle(a)
        assert -math.pi < w <= math.pi
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


# ------------------------------------------------------------ observation

def test_observation_dead_ahead():
    obs = project_observation(0.0, 10.0, 1.5, ImuPose(0.0, 0.0), INTR, 1.5)
    assert obs == pytest.approx([0.0, 90.0, 90.0])


def test_observation_lateral_offset():
    obs = project_observation(5.0, 10.0, 1.5, ImuPose(0.0, 0.0), INTR, 1.5)
    assert obs == pytest.approx([300.0, 90.0, 90.0])


def test_observation_behind_camera():
    with pytest.raises(BehindCamera):
        project_observation(10.0, 0.0, 1.5, ImuPose(0.0, 0.0), INTR, 1.5)


def test_observation_rear_camera_sees_negative_z():
    # rear-facing camera (yaw pi): an object behind the user is in front
    # of the camera, d = -z
    obs = project_observation(0.0, -12.0, 1.5, ImuPose(0.0, math.pi), INTR, 1.55)
    assert obs[2] == pytest.approx(600.0 * 1.55 / 12.0)
    with pytest.raises(BehindCamera):
        project_observation(0.0, 12.0, 1.5, ImuPose(0.0, math.pi), INTR, 1.55)


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
        obs = project_observation(0.0, depth, 1.5, ImuPose(pitch, 0.0), INTR, h_e)
        v_bottom = horizon_line(INTR, pitch) + obs[2]
        est = estimate_depth(box_with_bottom(v_bottom), INTR, pitch, h_e)
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
        obs = project_observation(x, z, 1.5, ImuPose(pitch, yaw), INTR, h_e)
        _, d = user_to_camera_planar(x, z, yaw)
        assert INTR.f_y * h_e / obs[2] == pytest.approx(d, rel=1e-12)
