"""Tracking tests.

The reference implementations the EKF and matcher are checked against
live at the top of this file: a central-difference Jacobian, the
closed-form Jacobian of one track, a textbook linear Kalman update, a
permutation-enumeration assignment solver with the same lexicographic
tie-break contract, and association on a full numpy weight matrix.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearguard.geometry import BehindCamera, BoundingBox2D, CameraIntrinsics, ImuPose, horizon_line, pose_model
from rearguard import scenario, tracking
from rearguard.risk import assess
from rearguard.scenario import InvalidConfig
from rearguard.tracking import (
    Track,
    TrackerConfig,
    TrackerState,
    advance,
    confidence,
    iou,
    match,
    max_weight_assignment,
    process_noise,
    step,
)
from test_geometry import camera_nd, observe
from test_scenario import _floats, _params

INTR = CameraIntrinsics(600.0, 600.0, 320.0, 320.0)
H_E = 1.55
REAR = ImuPose(0.0, math.pi)


@dataclass
class FakeFrame:
    t: float
    pose: ImuPose
    detections: list


# ----------------------------------------------------------------- oracles

def fd_jacobian(x, z, h_obj, pose, intr, h_e, eps=1e-5):
    """Central finite differences of the observation in x and z."""
    H = np.zeros((3, 4))
    for col, (dx, dz) in enumerate([(eps, 0.0), (0.0, eps)]):
        plus = observe(x + dx, z + dz, h_obj, pose, intr, h_e)
        minus = observe(x - dx, z - dz, h_obj, pose, intr, h_e)
        H[:, col] = (plus - minus) / (2 * eps)
    return H


def closed_form_jacobian(x, z, h_obj, pose, intr, h_e):
    """The 3x4 observation Jacobian of one track, element by element."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    n, d = camera_nd(x, z, pose.yaw)
    d2 = d * d
    cp = math.cos(pose.pitch)
    H = np.zeros((3, 4))
    H[0, 0] = intr.f_x * cp * (c * d + s * n) / d2
    H[0, 1] = intr.f_x * cp * (s * d - c * n) / d2
    H[1, 0] = intr.f_y * h_obj * s / d2
    H[1, 1] = -intr.f_y * h_obj * c / d2
    H[2, 0] = intr.f_y * h_e * s / d2
    H[2, 1] = -intr.f_y * h_e * c / d2
    return H


def textbook_linear_kf(vec, P, meas, H, R):
    """Closed-form linear Kalman update, written independently."""
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    vec_post = vec + K @ (meas - H @ vec)
    P_post = (np.eye(len(vec)) - K @ H) @ P
    return vec_post, P_post


def per_track_joseph_update(vec, P, residual, H, R):
    """The measurement update as 2-D calls on one track, the form the
    stacked filter must match byte for byte."""
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    vec_post = vec + K @ residual
    I_KH = np.eye(P.shape[0]) - K @ H
    P_post = I_KH @ P @ I_KH.T + K @ R @ K.T
    return vec_post, 0.5 * (P_post + P_post.T)


def per_track_predict(vec, P, dt, q):
    """The constant-velocity predict as 2-D calls on one track."""
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    P = F @ P @ F.T + process_noise(dt, q)
    return F @ vec, 0.5 * (P + P.T)


def brute_force_assignment(weights, eligible):
    """Enumerate every maximal matching via permutations of the padded
    square problem; keep the largest fsum total, breaking ties row by row:
    the smaller column for the first row where two assignments differ,
    an unmatched row after every column.  So an eligible pair of weight 0
    is taken rather than left out."""
    nr, nc = weights.shape
    n = max(nr, nc, 1)
    best = None
    for perm in itertools.permutations(range(n)):
        cols = tuple(perm[r] if perm[r] < nc and eligible[r, perm[r]] else nc for r in range(nr))
        pairs = [(r, c) for r, c in enumerate(cols) if c < nc]
        key = (-math.fsum(weights[r, c] for r, c in pairs), cols)
        if best is None or key < best[0]:
            best = key, pairs
    return best[1], -best[0][0]


def reference_predicted_box(track, obs, pose, intr):
    """The checked image box of a track's predicted triple: bottom centre
    from the triple, size from the last box."""
    u = intr.c_x + obs[0]
    v_bottom = horizon_line(intr, pose.pitch) + obs[2]
    w, h = track.last_box.w, track.last_box.h
    return BoundingBox2D(x=u - w / 2.0, y=v_bottom - h, w=w, h=h, cls=track.cls)


def full_matrix_match(tracks, detections, pose, intr, h_e, iou_gate):
    """Association on a numpy weight matrix over every (track, detection)
    cell: (pairs, predicted) as match gives them."""
    ordered = sorted(tracks, key=lambda t: t.id)
    predicted, W = {}, np.zeros((len(ordered), len(detections)))
    for r, track in enumerate(ordered):
        if track.last_box is None:
            continue
        obs = observe(track.x, track.z, track.obj_height, pose, intr, h_e)
        if obs is None:
            continue
        predicted[track.id] = obs
        box = reference_predicted_box(track, obs, pose, intr)
        for c, det in enumerate(detections):
            v = iou(box, det)
            if v > 0.0 and v >= iou_gate:
                W[r, c] = v
    pairs, _ = max_weight_assignment(W, W > 0.0)
    return tuple((ordered[r].id, c) for r, c in pairs), predicted


def random_spd(rng, n=4, scale=4.0):
    A = rng.normal(size=(n, n))
    return A @ A.T * scale / n + np.eye(n) * 0.1


def make_track(x, z, vx, vz, P=None, cls="car", obj_height=1.5, tid=1):
    P = np.diag([4.0, 4.0, 16.0, 16.0]) if P is None else P
    return Track(
        id=tid,
        cls=cls,
        x=float(x),
        z=float(z),
        vx=float(vx),
        vz=float(vz),
        P=P,
        obj_height=obj_height,
        confidence=confidence(P),
        last_box=BoundingBox2D(290.0, 323.0, 60.0, 90.0, cls=cls),
    )


def advance_one(track, dt, cfg=TrackerConfig(q_car=2.0)):
    """A tracker holding only track, advanced by dt: the predict as the
    pipeline runs it."""
    return advance(TrackerState((track,), track.id + 1, 0.0), dt, cfg).tracks[0]


def step_one(track, det, pose, cfg=TrackerConfig()):
    """A tracker holding only track, given one blink with det at the
    track's own time (so no predict): the update as the pipeline runs it.
    The pair must match and update."""
    state, _ = step(TrackerState((track,), track.id + 1, 0.0), FakeFrame(0.0, pose, [det]),
                    cfg, INTR, H_E)
    (out,) = state.tracks
    assert (out.id, out.miss_count, out.last_box) == (track.id, 0, det)
    return out


# ----------------------------------------------------------------- predict

def test_predict_hand_values():
    t = advance_one(make_track(0.0, -10.0, 0.0, 2.0), 0.1)
    assert (t.x, t.z) == (0.0, -9.8)
    assert (t.vx, t.vz) == (0.0, 2.0)

    t2 = advance_one(make_track(1.0, 5.0, -1.0, -1.0), 2.0)
    assert (t2.x, t2.z) == (-1.0, 3.0)


def test_predict_zero_dt_is_identity():
    tr = make_track(3.0, -8.0, 0.5, 1.5)
    out = advance_one(tr, 0.0)
    assert np.array_equal(out.vec, tr.vec)
    assert np.array_equal(out.P, tr.P)


def test_predict_trace_never_decreases():
    rng = np.random.default_rng(3)
    tr = make_track(0.0, -10.0, 0.0, 2.0)
    for _ in range(50):
        dt = rng.uniform(0.0, 1.0)
        out = advance_one(tr, dt)
        assert np.trace(out.P) >= np.trace(tr.P) - 1e-12
        tr = out


def test_process_noise_composes_over_splits():
    # predicting 0.1 then 0.1 must equal predicting 0.2 in one go
    tr = make_track(0.0, -10.0, 0.3, 2.0, P=random_spd(np.random.default_rng(4)))
    one = advance_one(tr, 0.2)
    two = advance_one(advance_one(tr, 0.1), 0.1)
    assert np.allclose(one.vec, two.vec, atol=1e-12)
    assert np.allclose(one.P, two.P, atol=1e-12)


def test_process_noise_matrix_shape():
    Q = process_noise(0.5, 2.0)
    assert Q[0, 0] == pytest.approx(2.0 * 0.125 / 3.0)
    assert Q[0, 2] == pytest.approx(2.0 * 0.25 / 2.0)
    assert Q[2, 2] == pytest.approx(1.0)
    assert np.allclose(Q, Q.T)


# -------------------------------------------------------------- confidence

def test_confidence_hand_values():
    assert confidence(np.diag([1.0, 1.0, 1.0, 1.0]), 1e-6) == pytest.approx(0.25, rel=1e-5)
    assert confidence(np.zeros((4, 4)), 1e-6) == pytest.approx(1e6)
    assert confidence(np.diag([0.25, 0.25, 0.25, 0.25]), 1e-6) == pytest.approx(0.999999, rel=1e-6)


def test_confidence_decreasing_in_trace():
    assert confidence(np.eye(4) * 2) < confidence(np.eye(4))


# ---------------------------------------------------------------- jacobian

def _random_observable_state(rng):
    """A state/pose pair with the object comfortably in front of the camera."""
    while True:
        facing_rear = rng.random() < 0.5
        yaw = (math.pi if facing_rear else 0.0) + rng.uniform(-0.4, 0.4)
        pose = ImuPose(rng.uniform(-0.2, 0.2), yaw)
        x = rng.uniform(-10, 10)
        z = rng.uniform(3, 40) * (-1.0 if facing_rear else 1.0)
        _, d = camera_nd(x, z, pose.yaw)
        if d > 2.0:
            return x, z, pose


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        x, z, pose = _random_observable_state(rng)
        h_obj = rng.uniform(0.8, 2.0)
        H = np.array(pose_model(pose, INTR, H_E)[1](x, z, h_obj)).reshape(3, 4)
        H_fd = fd_jacobian(x, z, h_obj, pose, INTR, H_E)
        rel = np.max(np.abs(H - H_fd)) / max(np.max(np.abs(H_fd)), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_jacobian_velocity_columns_zero():
    H = np.array(pose_model(REAR, INTR, H_E)[1](0.0, -10.0, 1.5)).reshape(3, 4)
    assert np.all(H[:, 2:] == 0.0)


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(_floats(-8, 8), _floats(-30, -1), _floats(0.8, 2.2)), max_size=6),
    pitch=_floats(-0.4, 0.4),
    yaw=_floats(1.6, 4.7),
)
def test_stacked_jacobians_equal_each_member_bytes(points, pitch, yaw):
    """One set of pose trigonometry gives every member the bytes of the
    closed form; a member behind the camera raises for the whole stack,
    as it does alone."""
    pose = ImuPose(pitch, yaw)
    _, jacobian, _, _ = pose_model(pose, INTR, H_E)
    behind = [camera_nd(x, z, pose.yaw)[1] <= 0 for x, z, _ in points]
    if any(behind):
        with pytest.raises(BehindCamera):
            tracking._jacobian_stack(points, jacobian)
        points = [p for p, b in zip(points, behind) if not b]
    H = tracking._jacobian_stack(points, jacobian)
    assert H.shape == (len(points), 3, 4)
    for member, (x, z, h_obj) in zip(H, points):
        assert member.tobytes() == closed_form_jacobian(x, z, h_obj, pose, INTR, H_E).tobytes()


# ------------------------------------------------------------------ update

def test_update_zero_innovation_keeps_state():
    det = _det_box_for(0.5, -11.0, REAR)
    tr = make_track(0.5, -11.0, 0.1, 2.0)._replace(last_box=det)
    out = step_one(tr, det, REAR)
    assert np.allclose(out.vec, tr.vec, atol=1e-9)
    assert np.trace(out.P) <= np.trace(tr.P) + 1e-9


def test_update_pulls_position_toward_measurement():
    det = _det_box_for(0.0, -12.0, REAR)
    tr = make_track(0.0, -10.0, 0.0, 2.0)._replace(last_box=det)
    out = step_one(tr, det, REAR, TrackerConfig(r_diag=(1e-4, 1e-4, 1e-4)))
    assert abs(out.z - (-12.0)) < 0.5


def test_update_trace_never_increases():
    rng = np.random.default_rng(13)
    cfg = TrackerConfig(d_max=100.0)
    for _ in range(50):
        x, z, pose = _random_observable_state(rng)
        tr = make_track(x, z, rng.normal(), rng.normal(), P=random_spd(rng))
        tr = tr._replace(last_box=_det_box_for(x, z, pose))
        out = step_one(tr, _noisy_box(x, z, rng, pose), pose, cfg)
        assert np.trace(out.P) <= np.trace(tr.P) + 1e-9


def test_covariance_stays_symmetric_over_long_sequences():
    rng = np.random.default_rng(14)
    cfg = TrackerConfig()
    state = TrackerState((make_track(0.0, -20.0, 0.0, 2.0),), 2, 0.0)
    for i in range(1, 1001):
        t = i / 10
        state = advance(state, t, cfg)
        lead = state.tracks[0]
        if i % 3 == 0 and -29 < lead.z < -2:
            det = _noisy_box(lead.x, lead.z, rng)
            state, _ = step(state, FakeFrame(t, REAR, [det]), cfg, INTR, H_E)
        for tr in state.tracks:
            P = tr.P
            assert np.max(np.abs(P - P.T)) <= 1e-9
            assert np.all(np.diag(P) >= 0)
        if not state.tracks or state.tracks[0].z > -3:
            P = state.tracks[0].P if state.tracks else None
            restart = make_track(0.0, -20.0, 0.0, 2.0, P=P, tid=state.next_id)
            state = state._replace(tracks=(restart,), next_id=state.next_id + 1)


def _assert_filter_invariants(track, gamma):
    P = track.P
    assert np.all(np.isfinite(track.vec)) and np.all(np.isfinite(P))
    assert np.array_equal(P, P.T)
    assert np.linalg.eigvalsh(P).min() >= -1e-9
    assert track.confidence == 1.0 / (float(np.trace(P)) + gamma)


def _noisy_box(x, z, rng, pose=REAR):
    box = _det_box_for(x, z, pose)
    return BoundingBox2D(box.x + rng.normal(0, 3), box.y + rng.normal(0, 3),
                         box.w * math.exp(rng.normal(0, 0.1)),
                         box.h * math.exp(rng.normal(0, 0.1)), cls="car")


@settings(max_examples=60, deadline=None)
@given(
    ticks=st.lists(st.tuples(st.floats(0.01, 1.5), st.booleans(), st.booleans()),
                   min_size=1, max_size=40),
    z0=st.floats(-28.0, -6.0),
    vz=st.floats(0.0, 3.0),
    two=st.booleans(),
    noise_seed=st.integers(0, 2**32 - 1),
)
def test_filter_invariants_under_random_blink_schedules(ticks, z0, vz, two, noise_seed):
    """Whatever the tick spacing and the blink/detection schedule, every
    covariance stays symmetric, PSD and finite, and confidence is
    1 / (trace P + gamma), through step and advance."""
    cfg = TrackerConfig()
    rng = np.random.default_rng(noise_seed)
    state = TrackerState()
    t, z, lanes = 0.0, z0, ((0.5, 3.5) if two else (0.5,))
    for dt, blink, seen in ticks:
        t += dt
        z += vz * dt
        visible = seen and -30.0 < z < -2.0
        if blink:
            dets = [_noisy_box(x, z, rng) for x in lanes] if visible else []
            state, _ = step(state, FakeFrame(t, REAR, dets), cfg, INTR, H_E)
        else:
            state = advance(state, t, cfg)
        for tr in state.tracks:
            _assert_filter_invariants(tr, cfg.gamma)


def kalman_alone(vec, P, residual, H, R):
    """tracking._kalman_stack on a stack of one member: (keep, vec_post,
    P_post), the posteriors empty when the member is dropped."""
    return tracking._kalman_stack(vec[None], P[None], residual[None], H[None], R)


def test_linear_model_reduces_to_textbook_kf():
    rng = np.random.default_rng(15)
    H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    R = np.diag([0.25, 0.25])
    for _ in range(200):
        vec = rng.normal(0, 10, 4)
        P = random_spd(rng)
        meas = H @ vec + rng.normal(0, 0.5, 2)
        keep, got_vec, got_P = kalman_alone(vec, P, meas - H @ vec, H, R)
        want_vec, want_P = textbook_linear_kf(vec, P, meas, H, R)
        assert keep[0]
        assert np.max(np.abs(got_vec[0] - want_vec)) <= 1e-9
        assert np.max(np.abs(got_P[0] - want_P)) <= 1e-9


# With P = 0 the innovation covariance S is R itself.  _H3 gives the
# tracker's 3x3 S, the only size the closed-form gate clears; _H2's 2x2 S
# always takes eigvalsh.
_H2 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
_H3 = np.eye(3, 4)


def _assert_dropped(R, H=_H2):
    keep, vec, P = kalman_alone(np.zeros(4), np.zeros((4, 4)), np.zeros(len(R)), H, R)
    assert not tracking._condition(R[None])[0] <= tracking.COND_LIMIT
    assert keep == [False]
    assert (vec.shape, P.shape) == ((0, 4), (0, 4, 4))


def _symmetric(diag, entries):
    """diag(diag) with each (row, col): value of entries set on both
    sides of the diagonal."""
    S = np.diag(diag).astype(float)
    for (i, j), v in entries.items():
        S[i, j] = S[j, i] = v
    return S


def test_singular_innovation_drops_the_member():
    _assert_dropped(np.zeros((2, 2)))


@pytest.mark.parametrize("R", [
    pytest.param(np.diag([1.0, math.inf]), id="inf-diagonal"),
    pytest.param(np.array([[1.0, math.inf], [math.inf, 1.0]]), id="inf-off-diagonal"),
    pytest.param(np.diag([1e13, 1.0]), id="ratio-1e13"),
])
def test_ill_conditioned_innovation_drops_the_member(R):
    _assert_dropped(R)


@pytest.mark.parametrize("R", [
    pytest.param(np.diag([1.0, math.nan]), id="nan-diagonal"),
    pytest.param(np.array([[1.0, math.nan], [math.nan, 1.0]]), id="nan-off-diagonal"),
])
def test_nan_innovation_is_a_linalg_error(R):
    with pytest.raises(np.linalg.LinAlgError):
        kalman_alone(np.zeros(4), np.zeros((4, 4)), np.zeros(2), _H2, R)


@pytest.mark.parametrize("R", [
    pytest.param(np.diag([math.inf, 1.0, 1.0]), id="inf-first-diagonal"),
    pytest.param(np.diag([1.0, 1.0, -math.inf]), id="minus-inf-last-diagonal"),
    pytest.param(_symmetric([1.0, 1.0, 1.0], {(2, 0): math.inf}), id="inf-off-diagonal"),
    pytest.param(_symmetric([1.0, 1.0, 1.0], {(2, 1): -math.inf}), id="minus-inf-off-diagonal"),
    pytest.param(np.diag([1e13, 1.0, 1.0]), id="ratio-1e13"),
    pytest.param(np.zeros((3, 3)), id="singular"),
    pytest.param(_symmetric([1.0, 1.0, 4.0], {(1, 0): 1.0}), id="rank-2"),
    # indefinite, condition number 6.9e15: a nearly singular leading 2x2 block
    # and large entries along its null vector; the rounded det is positive
    pytest.param(_symmetric([0.9719091972838558, 0.1868367992000977, 0.8416949641195357],
                            {(1, 0): 0.42613190860771255, (2, 0): -988.0511719456101,
                             (2, 1): -433.20932951342473}), id="off-diagonal-beyond-the-trace"),
])
def test_ill_conditioned_3x3_innovation_drops_the_member(R):
    """The 3x3 counterparts of the rows above, a singular and a rank-2
    member: the closed-form gate clears none of them, and eigvalsh drops
    each.  A gate without its trace range cleared an infinite S[0, 0];
    one with Sylvester's leading minors alone, and not af - c^2 and
    df - e^2, cleared the last row."""
    assert tracking._cleared(R[None]) == [False]
    _assert_dropped(R, _H3)


@pytest.mark.parametrize("R", [
    pytest.param(np.diag([math.nan, 1.0, 1.0]), id="nan-first-diagonal"),
    pytest.param(np.diag([1.0, 1.0, math.nan]), id="nan-last-diagonal"),
    pytest.param(_symmetric([1.0, 1.0, 1.0], {(1, 0): math.nan}), id="nan-off-diagonal"),
    pytest.param(_symmetric([1.0, 1.0, 1.0], {(2, 1): math.nan}), id="nan-last-off-diagonal"),
])
def test_nan_3x3_innovation_is_a_linalg_error(R):
    """A NaN in a 3x3 innovation covariance raises, alone and between two
    members the closed-form gate clears."""
    with pytest.raises(np.linalg.LinAlgError):
        kalman_alone(np.zeros(4), np.zeros((4, 4)), np.zeros(3), _H3, R)
    # the outer members' S is the identity, which the gate clears
    assert tracking._cleared(np.eye(3)[None]) == [True]
    Ps = np.zeros((3, 4, 4))
    Ps[1, :3, :3] = R
    with pytest.raises(np.linalg.LinAlgError):
        tracking._kalman_stack(np.zeros((3, 4)), Ps, np.zeros((3, 3)), np.array([_H3] * 3),
                               np.eye(3))


def test_innovation_below_the_condition_limit_updates():
    keep, vec, P = kalman_alone(np.zeros(4), np.zeros((4, 4)), np.ones(2), _H2,
                                np.diag([1e11, 1.0]))
    assert keep == [True]
    assert np.array_equal(vec, np.zeros((1, 4)))
    assert np.array_equal(P, np.zeros((1, 4, 4)))


def _counted_eigvalsh(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh to record each call's stack size, in the
    returned list."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(S, *args, **kwargs):
        calls.append(len(S))
        return eigvalsh(S, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("ratio, cleared", [(1e4, True), (1e11, False), (1e13, False)])
def test_3x3_innovation_takes_eigvalsh_only_where_the_gate_fails(monkeypatch, ratio, cleared):
    """diag(ratio, 1, 1) has the condition number ratio.  The gate's bound
    tr^3 / (4 det) is about ratio^2 / 4, so it clears 1e4 without
    LAPACK; 1e11 goes to eigvalsh, which keeps it, and 1e13 to eigvalsh,
    which drops it.  In a stack, only the member the gate cannot clear
    goes to eigvalsh."""
    calls = _counted_eigvalsh(monkeypatch)
    R = np.diag([ratio, 1.0, 1.0])
    assert tracking._cleared(R[None]) == [cleared]
    keep, vec, _ = kalman_alone(np.zeros(4), np.zeros((4, 4)), np.zeros(3), _H3, R)
    assert keep == [ratio <= tracking.COND_LIMIT]
    assert calls == ([] if cleared else [1])
    del calls[:]
    Ps = np.zeros((3, 4, 4))
    Ps[1, :3, :3] = R - np.eye(3)   # S = R for member 1 and the identity for the others
    keep, vec, _ = tracking._kalman_stack(np.zeros((3, 4)), Ps, np.zeros((3, 3)),
                                          np.array([_H3] * 3), np.eye(3))
    assert keep == [True, ratio <= tracking.COND_LIMIT, True] and len(vec) == sum(keep)
    assert calls == ([] if cleared else [1])


@st.composite
def gate_probes(draw):
    """Symmetric 3x3 matrices that probe the closed-form gate: of any
    sign and scale; positive definite with a condition number from 1 to
    1e13, at any scale in the gate's trace range and beyond it; nearly
    rank-deficient, with a small multiple of the identity of either sign
    added to a rank-2 matrix; and with an infinite or NaN entry on or
    off the diagonal.  Two families sit where the proof is tight:
    eigenvalues (1, c, c), whose condition number c is half the gate's
    bound tr^3 / (4 det), and a nearly singular leading 2x2 block with
    large entries along its null vector, whose rounded det can come out
    positive though S is indefinite.  The upper triangle, which the gate
    and eigvalsh do not read, may differ from the lower in its last
    bits, as a computed H P H^T + R can."""
    kind = draw(st.sampled_from(["any-sign", "conditioned", "near-rank-2", "non-finite",
                                 "tight", "null-aligned"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "any-sign":
        A = rng.normal(size=(3, 3)) * 10.0 ** draw(st.floats(-100, 100))
        S = A + A.T
    elif kind == "conditioned":
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cond = 10.0 ** draw(st.floats(0, 13))
        eigs = [1.0, cond ** draw(st.floats(0, 1)), cond]
        S = Q @ np.diag(rng.permutation(eigs)) @ Q.T * 10.0 ** draw(st.floats(-100, 100))
    elif kind == "tight":
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        c = 10.0 ** draw(st.floats(10, 13))
        S = Q @ np.diag([1.0, c, c]) @ Q.T * 10.0 ** draw(st.floats(-80, 80))
    elif kind == "null-aligned":
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        block = np.outer(u, u) + np.eye(2) * 10.0 ** draw(st.floats(-17, -14))
        c, e = u * 10.0 ** draw(st.floats(2, 7))
        S = np.zeros((3, 3))
        S[:2, :2] = block
        S[2, :2] = S[:2, 2] = c, e
        S[2, 2] = draw(st.floats(0, 2))
    elif kind == "near-rank-2":
        V = rng.normal(size=(3, 2))
        S = V @ V.T + np.eye(3) * draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(
            st.floats(-20, 0))
    else:
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        S[i, j] = S[j, i] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    if draw(st.booleans()):
        S[0, 2] *= 1.0 + 2.0 ** -40
    return S


@settings(max_examples=1500, deadline=None)
@given(gate_probes())
def test_a_member_the_gate_clears_is_within_the_condition_limit(S):
    """The gate is a proof: whenever it clears a member, eigvalsh's
    condition number of that member is within COND_LIMIT, so the member
    is kept whichever of the two decides."""
    if tracking._cleared(S[None]) == [True]:
        assert tracking._condition(S[None])[0] <= tracking.COND_LIMIT


# ---------------------------------------------------------- stacked filter

@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    r_kind=st.sampled_from(["regular", "zero-row", "inf-row"]),
    row=st.integers(0, 2),
    singular=st.lists(st.booleans(), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_update_equals_separate_updates(n, r_kind, row, singular, seed):
    """The stacked update gives each member the bytes of its own
    one-member stack and of the 2-D algebra, and drops exactly the
    members whose innovation covariance is singular: with a zero row of
    R, those whose Jacobian has that row zeroed; with an infinite row,
    every member."""
    rng = np.random.default_rng(seed)
    R = np.diag(rng.uniform(1.0, 20.0, 3))
    if r_kind != "regular":
        R[row, row] = 0.0 if r_kind == "zero-row" else math.inf
    vecs = [rng.normal(0.0, 10.0, 4) for _ in range(n)]
    Ps = [random_spd(rng) for _ in range(n)]
    Hs = [rng.normal(0.0, 50.0, (3, 4)) for _ in range(n)]
    residuals = [rng.normal(0.0, 5.0, 3) for _ in range(n)]
    for H, flag in zip(Hs, singular):
        if flag:
            H[row] = 0.0

    keep, vec_post, P_post = tracking._kalman_stack(
        np.array(vecs), np.array(Ps), np.array(residuals), np.array(Hs), R)

    separate = []
    for i in range(n):
        alone, vec, P = kalman_alone(vecs[i], Ps[i], residuals[i], Hs[i], R)
        if alone[0]:
            separate.append((i, vec[0], P[0]))
    kept = [i for i, k in enumerate(keep) if k]
    # the innovation covariances, as the update forms them
    S = np.array(Hs) @ np.array(Ps) @ np.array(Hs).swapaxes(-1, -2) + R
    assert kept == [i for i, c in enumerate(tracking._condition(S)) if c <= tracking.COND_LIMIT]
    assert kept == [i for i, _, _ in separate]
    if r_kind == "inf-row":
        assert kept == []
    elif r_kind == "zero-row":
        assert kept == [i for i in range(n) if not singular[i]]
    else:
        assert kept == list(range(n))
    assert len(vec_post) == len(P_post) == len(kept)
    for j, (i, vec, P) in enumerate(separate):
        want_vec, want_P = per_track_joseph_update(vecs[i], Ps[i], residuals[i], Hs[i], R)
        assert vec_post[j].tobytes() == vec.tobytes() == want_vec.tobytes()
        assert P_post[j].tobytes() == P.tobytes() == want_P.tobytes()
    # each updated track keeps its stacked row as floats, and vec gives back its bytes
    tracks = [make_track(*vecs[i], P=Ps[i], tid=i + 1) for i in kept]
    for row, tr in zip(vec_post, tracking._refiltered(tracks, vec_post, P_post, 1e-6)):
        assert [tr.x, tr.z, tr.vx, tr.vz] == row.tolist()
        assert all(type(v) is float for v in (tr.x, tr.z, tr.vx, tr.vz))
        assert tr.vec.tobytes() == row.tobytes()


def test_stacked_update_with_a_nan_member_is_a_linalg_error():
    """A NaN in one member's innovation covariance raises, as it does
    for that member alone, while the others would update."""
    rng = np.random.default_rng(3)
    Ps = np.array([random_spd(rng) for _ in range(3)])
    Ps[1, 0, 0] = math.nan
    with pytest.raises(np.linalg.LinAlgError):
        tracking._kalman_stack(np.zeros((3, 4)), Ps, np.zeros((3, 2)),
                               np.array([_H2] * 3), np.eye(2))


@settings(max_examples=100, deadline=None)
@given(
    classes=st.lists(st.sampled_from(["car", "cycle"]), min_size=1, max_size=8),
    dt=st.floats(0.001, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_advance_equals_separate_predicts(classes, dt, seed):
    """advance over mixed car and cycle tracks gives every track the
    bytes of its own advance and of the 2-D algebra."""
    rng = np.random.default_rng(seed)
    cfg = TrackerConfig()
    tracks = tuple(
        make_track(*rng.normal(0.0, 10.0, 4), P=random_spd(rng), cls=cls, tid=i + 1)
        for i, cls in enumerate(classes)
    )
    moved = advance(TrackerState(tracks, len(tracks) + 1, 5.0), 5.0 + dt, cfg).tracks
    assert [tr.id for tr in moved] == [tr.id for tr in tracks]
    for before, after in zip(tracks, moved):
        q = cfg.q_for(before.cls)
        alone = advance(TrackerState((before,), before.id + 1, 5.0), 5.0 + dt, cfg).tracks[0]
        want_vec, want_P = per_track_predict(before.vec, before.P, (5.0 + dt) - 5.0, q)
        assert after.vec.tobytes() == alone.vec.tobytes() == want_vec.tobytes()
        assert [after.x, after.z, after.vx, after.vz] == want_vec.tolist()
        assert all(type(v) is float for v in (after.x, after.z, after.vx, after.vz))
        assert after.P.tobytes() == alone.P.tobytes() == want_P.tobytes()
        assert after.confidence == alone.confidence == confidence(want_P, cfg.gamma)
        assert (after.miss_count, after.last_box) == (before.miss_count, before.last_box)


def test_cached_filter_matrices_are_read_only():
    """F, Q and R are shared between calls, so none may be written."""
    for M in (tracking.transition_matrix(0.1), process_noise(0.1, 2.0),
              TrackerConfig().r_matrix()):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    assert tracking.transition_matrix(0.1) is tracking.transition_matrix(0.1)
    assert np.array_equal(TrackerConfig().r_matrix(), np.diag([16.0, 9.0, 9.0]))


def _mixed_sign_symmetric(rng, m, scale):
    """A regular symmetric m x m matrix whose eigenvalues are not all
    positive: the first is negative, the rest of either sign."""
    eigs = rng.uniform(0.1, 10.0, m) * scale * rng.choice([-1.0, 1.0], m)
    eigs[0] = -abs(eigs[0])
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    S = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (S + S.T)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 6), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e6]), signs=st.sampled_from(["positive", "mixed"]))
def test_condition_of_a_regular_stack_equals_the_numpy_fold(n, m, seed, scale, signs):
    """The condition numbers of a regular stack, positive definite or
    with eigenvalues of both signs, are numpy's max / min quotient of
    the eigenvalue magnitudes, byte for byte, whether a member takes the
    ascending hi / lo or the Python fold."""
    rng = np.random.default_rng(seed)
    member = random_spd if signs == "positive" else _mixed_sign_symmetric
    S = np.array([member(rng, m, scale) for _ in range(n)]).reshape(n, m, m)
    mags = np.abs(np.linalg.eigvalsh(S))
    got = tracking._condition(S)
    assert type(got) is list and all(type(c) is float for c in got)
    assert np.array(got, dtype=float).tobytes() == (mags.max(-1) / mags.min(-1)).tobytes()


def test_condition_of_a_singular_member_is_inf_beside_regular_ones():
    S = np.array([np.eye(2), np.diag([1.0, 0.0]), np.diag([4.0, 1.0])])
    assert tracking._condition(S) == [1.0, math.inf, 4.0]


# ------------------------------------------------------------- association

def test_iou_basic_cases():
    a = BoundingBox2D(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox2D(20, 20, 5, 5)) == 0.0
    # half-width overlap: inter 50, union 150
    assert iou(a, BoundingBox2D(5, 0, 10, 10)) == pytest.approx(50.0 / 150.0)


def test_assignment_hand_example():
    W = np.array([[0.8, 0.1], [0.2, 0.7]])
    eligible = W >= 0.3
    pairs, total = max_weight_assignment(np.where(eligible, W, 0.0), eligible)
    assert pairs == [(0, 0), (1, 1)]
    assert total == pytest.approx(1.5)


@pytest.mark.parametrize("W, eligible, want", [
    ([[0.0, 0.0]], [[True, False]], [(0, 0)]),
    ([[0.0], [0.0]], [[False], [True]], [(1, 0)]),
    ([[0.0, 0.5], [0.5, 0.0]], [[True, True], [True, True]], [(0, 1), (1, 0)]),
    ([[0.5, 0.0], [0.5, 0.0]], [[True, False], [True, True]], [(0, 0), (1, 1)]),
], ids=["lone-row", "lone-column", "beside-positive", "after-positive"])
def test_assignment_takes_an_eligible_pair_of_weight_zero(W, eligible, want):
    """An eligible pair of weight 0 is taken when its row has no better
    column: it leaves the total optimal, and a matched row comes before
    an unmatched one.  The oracle used to leave [[0.0, 0.0]]'s (0, 0) out,
    the function to take it."""
    W, eligible = np.array(W), np.array(eligible)
    assert max_weight_assignment(W, eligible) == (want, math.fsum(W[r, c] for r, c in want))
    assert max_weight_assignment(W, eligible) == brute_force_assignment(W, eligible)


def test_assignment_gate_excludes_everything():
    W = np.zeros((2, 2))
    pairs, total = max_weight_assignment(W, np.zeros((2, 2), bool))
    assert pairs == []
    assert total == 0.0


def test_assignment_refuses_weights_outside_its_contract():
    """A nonzero weight outside eligible, or a negative weight, raises
    ValueError at the first such cell in row order.  With (0, 0)
    ineligible but weighing 0.9, the solver used to return [(1, 1)], 0.9;
    the optimum over the eligible cells is [(0, 1), (1, 0)], 1.0."""
    W = np.array([[0.9, 0.5], [0.5, 0.9]])
    eligible = np.array([[False, True], [True, True]])
    with pytest.raises(ValueError, match=r"^weights\[0\]\[0\]: outside eligible, so must be 0, "
                                         r"got 0\.9$"):
        max_weight_assignment(W, eligible)
    gated = np.where(eligible, W, 0.0)
    assert max_weight_assignment(gated, eligible) == ([(0, 1), (1, 0)], 1.0)
    assert max_weight_assignment(gated, eligible) == brute_force_assignment(gated, eligible)
    negative = np.array([[0.5, 0.0], [0.2, -0.25]])
    with pytest.raises(ValueError, match=r"^weights\[1\]\[1\]: must be non-negative, got -0\.25$"):
        max_weight_assignment(negative, np.ones((2, 2), bool))


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(16)
    for i in range(300):
        nr = int(rng.integers(0, 6))
        nc = int(rng.integers(0, 6))
        if i % 3 == 0:
            # tie-heavy grid weights to exercise the tie-break
            W = rng.choice([0.2, 0.5, 0.8], size=(nr, nc))
        else:
            W = rng.uniform(0, 1, size=(nr, nc))
        eligible = rng.random((nr, nc)) < 0.6
        W = np.where(eligible, W, 0.0)
        got_pairs, got_total = max_weight_assignment(W, eligible)
        want_pairs, want_total = brute_force_assignment(W, eligible)
        assert sorted(got_pairs) == want_pairs, f"instance {i}"
        assert got_total == want_total, f"instance {i}"


@st.composite
def block_diagonal_problems(draw):
    """Tie-heavy assignment problems made of independent blocks, with
    rows and columns shuffled.  Dyadic weights make every fsum total
    exact, so the brute-force optimum and its tie-break are exact too.
    Some blocks are one row or one column of tied weights, whose best
    pair is the tie's smallest index after the shuffle."""
    blocks, rows_left, cols_left = [], 6, 6
    for _ in range(draw(st.integers(1, 4))):
        if not (rows_left and cols_left):
            break
        nr = draw(st.integers(1, min(3, rows_left)))
        nc = draw(st.integers(1, min(3, cols_left)))
        # most blocks stay free-form, so conflicts (2+ rows and columns) stay common
        shape = draw(st.sampled_from(["any"] * 4 + ["tied-row", "tied-column"]))
        if shape == "tied-row":
            nr = 1
        elif shape == "tied-column":
            nc = 1
        values = [0.0, 0.25, 0.5, 0.75] if shape == "any" else [0.0, 0.25, 0.75, 0.75]
        cells = st.lists(st.sampled_from(values), min_size=nr * nc, max_size=nr * nc)
        blocks.append(np.array(draw(cells)).reshape(nr, nc))
        rows_left, cols_left = rows_left - nr, cols_left - nc
    W = np.zeros((6 - rows_left, 6 - cols_left))
    r0 = c0 = 0
    for block in blocks:
        W[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
        r0, c0 = r0 + block.shape[0], c0 + block.shape[1]
    rows = draw(st.permutations(range(W.shape[0])))
    cols = draw(st.permutations(range(W.shape[1])))
    W = W[np.ix_(rows, cols)]
    return W, W > 0.0


@settings(max_examples=320, deadline=None)
@given(block_diagonal_problems())
def test_assignment_matches_brute_force_on_independent_blocks(problem):
    W, eligible = problem
    got_pairs, got_total = max_weight_assignment(W, eligible)
    want_pairs, want_total = brute_force_assignment(W, eligible)
    assert got_pairs == want_pairs
    assert got_total == want_total


def test_assignment_breaks_a_non_dyadic_tie_on_the_fsum_optimum():
    """Two assignments whose exact totals differ by rounding alone: the
    fsum optimum 2.3000000000000003 beats 2.3, which a float solver's
    optimum (and the tie-break resting on it) took."""
    W = np.array([[.8, .2, 0, .5], [0, .2, .5, .8], [.5, .2, 0, 0], [.5, .5, 0, 0],
                  [.5, .2, .2, .5]])
    pairs, total = max_weight_assignment(W, W > 0.0)
    assert pairs == [(0, 0), (1, 3), (3, 1), (4, 2)]
    assert total == 2.3000000000000003
    assert (pairs, total) == tuple(brute_force_assignment(W, W > 0.0))


@pytest.mark.parametrize("ties", [[0.2, 0.5, 0.8], [0.1, 0.3, 0.7, 1.0]])
def test_assignment_matches_brute_force_on_non_dyadic_ties(ties):
    """Tie-heavy instances up to 6x6 whose totals are inexact in binary;
    with a float optimum, this seed's [0.2, 0.5, 0.8] instances depart
    from the exhaustive fsum optimum."""
    rng = np.random.default_rng(2)
    for i in range(250):
        nr, nc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        W = rng.choice(ties, size=(nr, nc))
        eligible = rng.random((nr, nc)) < 0.6
        W = np.where(eligible, W, 0.0)
        assert max_weight_assignment(W, eligible) == brute_force_assignment(W, eligible), i


TINY = 5e-324   # the least subnormal double, 2**-1074


@pytest.mark.parametrize("W, want", [
    # subnormal weights alone: a fixed 2**53 scale would make them all 0
    ([[TINY, 3 * TINY], [3 * TINY, TINY]], [(0, 1), (1, 0)]),
    ([[2 * TINY, TINY, 0.0], [TINY, 2 * TINY, 3 * TINY], [0.0, 3 * TINY, TINY]],
     [(0, 0), (1, 2), (2, 1)]),
    # 1074 binary orders apart: both totals round to 1.0, so the smaller pair
    # list wins over the exactly larger total
    ([[1.0, 1.0], [2 * TINY, TINY]], [(0, 0), (1, 1)]),
    # 900 orders apart, still within one float scale; a tie the same way
    ([[1.0, 1.0], [2.0 ** -899, 2.0 ** -900]], [(0, 0), (1, 1)]),
], ids=["subnormal-2x2", "subnormal-3x3", "1074-orders", "900-orders"])
def test_assignment_is_exact_for_subnormal_and_far_apart_weights(W, want):
    W = np.array(W)
    pairs, total = max_weight_assignment(W, W > 0.0)
    assert pairs == want
    assert (pairs, total) == tuple(brute_force_assignment(W, W > 0.0))


def _det_box_for(x, z, pose, cls="car", h_obj=1.5, w_obj=1.8):
    """Noise-free detection box via the forward model."""
    obs = observe(x, z, h_obj, pose, INTR, H_E)
    u = INTR.c_x + obs[0]
    v_bottom = horizon_line(INTR, pose.pitch) + obs[2]
    _, d = camera_nd(x, z, pose.yaw)
    w = INTR.f_x * w_obj / d
    return BoundingBox2D(u - w / 2, v_bottom - obs[1], w, obs[1], cls=cls)


def bound_match(tracks, detections, pose, iou_gate=TrackerConfig.iou_gate):
    """match with the model bound for the pose, as step binds it."""
    observe, _, _, y_h = pose_model(pose, INTR, H_E)
    return match(tracks, detections, observe, y_h, INTR.c_x, iou_gate)


def test_match_single_obvious_pair():
    tr = make_track(0.0, -10.0, 0.0, 2.0)
    tr = tr._replace(last_box=_det_box_for(0.0, -10.0, REAR))
    det = _det_box_for(0.0, -10.2, REAR)
    a = bound_match([tr], [det], REAR, iou_gate=0.1)
    assert a.pairs == ((1, 0),)
    assert a.unmatched_tracks == ()
    assert a.unmatched_detections == ()


def test_match_empty_inputs():
    a = bound_match([], [], REAR)
    assert a.pairs == ()
    det = _det_box_for(0.0, -10.0, REAR)
    b = bound_match([], [det], REAR)
    assert b.unmatched_detections == (0,)


# Few distinct positions, so tracks share predicted boxes and detections
# overlap several of them: lone pairs, conflicts and exact ties.
_SPOTS = st.tuples(st.sampled_from([-1.5, -0.6, 0.0, 0.4, 2.0]),
                   st.sampled_from([-5.0, -7.0, -7.5, -12.0, -25.0]))


@st.composite
def association_problems(draw):
    """Tracks (some without a last box, some behind the camera when the
    head turns far) and detections placed on or near their predicted
    boxes, plus strays; the tracks come in no particular id order."""
    pose = ImuPose(draw(st.sampled_from([-0.1, 0.0, 0.05])),
                   draw(st.sampled_from([math.pi, 2.9, -2.9, 1.7])))
    n = draw(st.integers(0, 6))
    ids = draw(st.permutations(range(1, 13)))[:n]
    tracks = []
    for tid in ids:
        x, z = draw(_SPOTS)
        size = draw(st.sampled_from([(40.0, 30.0), (60.0, 45.0), (25.0, 60.0)]))
        box = None if draw(st.integers(0, 5)) == 0 else BoundingBox2D(0.0, 0.0, *size)
        tr = make_track(x, z, 0.0, 1.0, cls=draw(st.sampled_from(["car", "cycle"])),
                        obj_height=draw(st.sampled_from([1.2, 1.5])), tid=tid)
        tracks.append(tr._replace(last_box=box))
    detections = []
    for tr in tracks:
        if tr.last_box is None or draw(st.integers(0, 3)) == 0:
            continue
        obs = observe(tr.x, tr.z, tr.obj_height, pose, INTR, H_E)
        if obs is None:
            continue
        box = reference_predicted_box(tr, obs, pose, INTR)
        dx, dy = draw(st.sampled_from([0.0, 3.0, -12.0, 35.0])), draw(st.sampled_from([0.0, 6.0]))
        grow = draw(st.sampled_from([1.0, 1.25, 0.5]))
        detections.append(BoundingBox2D(box.x + dx, box.y + dy, box.w * grow, box.h * grow))
    for _ in range(draw(st.integers(0, 2))):
        detections.append(BoundingBox2D(draw(_floats(0, 600)), draw(_floats(200, 600)),
                                        draw(_floats(5, 120)), draw(_floats(5, 120))))
    order = draw(st.permutations(range(len(detections))))
    gate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return tracks, [detections[i] for i in order], pose, gate


@settings(max_examples=300, deadline=None)
@given(association_problems())
def test_match_equals_the_full_matrix_reference(problem):
    """The list-based match gives the pairs and predicted triples of
    association on the full numpy weight matrix."""
    tracks, detections, pose, gate = problem
    got = bound_match(tracks, detections, pose, gate)
    want_pairs, want_predicted = full_matrix_match(tracks, detections, pose, INTR, H_E, gate)
    assert got.pairs == want_pairs
    assert got.predicted.keys() == want_predicted.keys()
    for tid, obs in want_predicted.items():
        # match keeps the pose model's floats; they hold the reference's bytes
        assert np.array(got.predicted[tid]).tobytes() == obs.tobytes()
    paired_tracks, paired_dets = {t for t, _ in want_pairs}, {d for _, d in want_pairs}
    assert got.unmatched_tracks == tuple(t.id for t in tracks if t.id not in paired_tracks)
    assert got.unmatched_detections == tuple(
        j for j in range(len(detections)) if j not in paired_dets)


# --------------------------------------------------------------- lifecycle

def test_step_spawns_tracks_with_ids_from_one():
    cfg = TrackerConfig()
    frame = FakeFrame(
        0.0, REAR, [_det_box_for(0.0, -10.0, REAR), _det_box_for(3.0, -15.0, REAR)]
    )
    state, snaps = step(TrackerState(), frame, cfg, INTR, H_E)
    assert sorted(t.id for t in state.tracks) == [1, 2]
    assert state.next_id == 3
    assert {round(s.z) for s in snaps} == {-10, -15}
    # spawn assumes zero velocity
    assert all(s.vx == 0.0 and s.vz == 0.0 for s in snaps)


def test_step_miss_lifecycle_removes_after_four():
    cfg = TrackerConfig(miss_max=3)
    state, _ = step(
        TrackerState(), FakeFrame(0.0, REAR, [_det_box_for(0.0, -10.0, REAR)]), cfg, INTR, H_E
    )
    for k in range(1, 5):
        state, snaps = step(state, FakeFrame(0.1 * k, REAR, []), cfg, INTR, H_E)
        if k < 4:
            assert len(state.tracks) == 1, f"still alive after miss {k}"
    assert state.tracks == ()


def test_step_ids_never_reused():
    cfg = TrackerConfig(miss_max=0)
    state = TrackerState()
    seen = []
    t = 0.0
    for cycle in range(3):
        state, _ = step(state, FakeFrame(t, REAR, [_det_box_for(0.0, -10.0, REAR)]), cfg, INTR, H_E)
        seen.extend(tr.id for tr in state.tracks)
        t += 0.1
        state, _ = step(state, FakeFrame(t, REAR, []), cfg, INTR, H_E)  # dies
        t += 0.1
        assert state.tracks == ()
    assert len(seen) == len(set(seen)) == 3


def test_step_ignores_detection_beyond_dmax():
    cfg = TrackerConfig(d_max=30.0)
    frame = FakeFrame(0.0, REAR, [_det_box_for(0.0, -45.0, REAR)])
    state, _ = step(TrackerState(), frame, cfg, INTR, H_E)
    assert state.tracks == ()


@pytest.mark.parametrize("vz, kept", [(0.0, True), (-10.0, False)], ids=["stays", "leaves"])
def test_step_retires_a_live_track_beyond_dmax(vz, kept):
    """A track 29.5 m behind, receding at 10 m/s, is estimated 30.5 m away
    on its next blink and dropped there, past d_max = 30 m; standing
    still, with the same one miss, it stays."""
    cfg = TrackerConfig(d_max=30.0, miss_max=3)
    state = TrackerState((make_track(0.0, -29.5, 0.0, vz),), 2, 0.0, 0.0)
    state, tracks = step(state, FakeFrame(0.1, REAR, []), cfg, INTR, H_E)
    assert [tr.id for tr in tracks] == ([1] if kept else [])


def test_step_rejects_non_increasing_frame_times():
    cfg = TrackerConfig()
    state, _ = step(TrackerState(), FakeFrame(1.0, REAR, []), cfg, INTR, H_E)
    with pytest.raises(ValueError):
        step(state, FakeFrame(1.0, REAR, []), cfg, INTR, H_E)


@settings(max_examples=100, deadline=None)
@given(
    next_id=st.integers(1, 50),
    last_t=st.none() | _floats(0, 5),
    lag=st.none() | _floats(0, 1),
    gap=_floats(0.01, 2),
    pitch=_floats(-0.3, 0.3),
    yaw=_floats(2.6, 3.7),
)
def test_empty_blink_gives_the_full_path_state(next_id, last_t, lag, gap, pitch, yaw):
    """A blink with no track and no detection returns at once with the
    state of the full path: the same blink with a detection above the
    horizon goes through association and spawning, and spawns nothing."""
    last_frame_t = None if last_t is None or lag is None else last_t - lag
    state = TrackerState((), next_id, last_t, last_frame_t)
    pose = ImuPose(pitch, yaw)
    t = (0.0 if last_t is None else last_t) + gap
    cfg = TrackerConfig()
    empty = step(state, FakeFrame(t, pose, []), cfg, INTR, H_E)
    above = BoundingBox2D(300.0, horizon_line(INTR, pose.pitch) - 50.0, 40.0, 30.0)
    full = step(state, FakeFrame(t, pose, [above]), cfg, INTR, H_E)
    assert empty == full and repr(empty) == repr(full)
    assert empty[0] == TrackerState((), next_id, t, t)


def test_empty_blink_skips_association(monkeypatch):
    calls = []
    monkeypatch.setattr(tracking, "match", lambda *args: calls.append(args))
    state, tracks = step(TrackerState((), 4, 1.0, 0.5), FakeFrame(1.1, REAR, []),
                         TrackerConfig(), INTR, H_E)
    assert (state, tracks, calls) == (TrackerState((), 4, 1.1, 1.1), (), [])


def test_straight_approach_converges():
    """Blink every tick on a noise-free approach; the depth estimate must
    land within 10% once the car is at 10 m."""
    cfg = TrackerConfig()
    state = TrackerState()
    z, vz = -25.0, 2.0
    t = 0.0
    est_at_10 = None
    for _ in range(200):
        frame = FakeFrame(t, REAR, [_det_box_for(0.0, z, REAR)])
        state, snaps = step(state, frame, cfg, INTR, H_E)
        if abs(z) <= 10.0:
            est_at_10 = snaps[0].z
            break
        t += 0.1
        z += vz * 0.1
    assert est_at_10 is not None
    assert abs(est_at_10 - z) / abs(z) <= 0.10


# ------------------------------------------------------------ byte pins

DENSE_TRACKER_DIGEST = "84961a8813f64cc1dba4ca64b42625bb6ee1c87b5680e7dd28cf3f059985a7c1"


def _dense_scenario(seed=6, vehicles=30, duration=20.0):
    """Slow traffic bunched behind a standing user: 5-6 live tracks and
    a detection eligible for two tracks on most ticks."""
    rng = np.random.default_rng(seed)
    spawns = np.sort(rng.uniform(0.0, duration - 1.0, vehicles))
    return scenario.ScenarioConfig(
        seed=int(rng.integers(2**31)),
        duration=duration,
        user=scenario.UserConfig(mode="standing"),
        vehicles=tuple(
            scenario.VehicleConfig(
                cls="car" if rng.random() < 0.75 else "cycle",
                spawn_time=float(t),
                x0=float(rng.uniform(-8.0, 8.0)),
                z0=-float(rng.uniform(6.0, 12.0)),
                speed=float(rng.uniform(0.1, 0.4)),
            )
            for t in spawns
        ),
    )


def test_step_projects_each_live_track_once_per_blink(monkeypatch):
    """match projects every live track once, and the update reuses those
    triples: a blink costs one pose-model observe call per live track,
    whether the track is matched or not.  step binds the model once for a
    blink with a track or a detection, for association, the update and
    the spawns, and not at all for an empty blink."""
    scen = _dense_scenario()
    frames, _ = scenario.generate(scen)
    bind, assign = tracking.geometry.pose_model, tracking.match
    calls, pairs, binds = [], [], []

    def counted_model(*args, **kwargs):
        binds.append(args)
        observe, jacobian, locate, y_h = bind(*args, **kwargs)

        def counted_observe(*point):
            calls.append(point)
            return observe(*point)

        return counted_observe, jacobian, locate, y_h

    def counted_match(*args, **kwargs):
        result = assign(*args, **kwargs)
        pairs.extend(result.pairs)
        return result

    monkeypatch.setattr(tracking.geometry, "pose_model", counted_model)
    monkeypatch.setattr(tracking, "match", counted_match)
    cfg = TrackerConfig()
    state = TrackerState()
    live, empty = [], 0
    for frame in frames:
        live.append(len(state.tracks))
        before, binds_before = len(calls), len(binds)
        state, _ = step(state, frame, cfg, scen.camera.intrinsics, scen.camera.camera_height)
        assert len(calls) - before == live[-1]
        busy = bool(live[-1] or frame.detections)
        assert len(binds) - binds_before == int(busy)
        empty += not busy
    assert max(live) >= 5 and len(pairs) > len(frames) and empty > 0


def test_dense_scenario_updates_never_call_eigvalsh(monkeypatch):
    """The closed-form gate clears every member of every update over the
    crowded scenario of the pin below, so no blink calls LAPACK's
    eigvalsh."""
    scen = _dense_scenario()
    frames, _ = scenario.generate(scen)
    calls = _counted_eigvalsh(monkeypatch)
    gate, members = tracking._cleared, []

    def counted_gate(S):
        members.append(len(S))
        return gate(S)

    monkeypatch.setattr(tracking, "_cleared", counted_gate)
    cfg, state = TrackerConfig(), TrackerState()
    for frame in frames:
        state, _ = step(state, frame, cfg, scen.camera.intrinsics, scen.camera.camera_height)
    assert sum(members) > len(frames) and calls == []


def test_dense_tracker_bytes_pinned():
    """Every-frame tracking over a crowded scenario reproduces the
    recorded per-tick track bytes: ids, state, covariance, misses and
    confidence.  Any change to the float operations or to association's
    tie-break moves this digest."""
    scen = _dense_scenario()
    frames, _ = scenario.generate(scen)
    cfg = TrackerConfig()
    state = TrackerState()
    digest = hashlib.sha256()
    for frame in frames:
        state, tracks = step(state, frame, cfg, scen.camera.intrinsics, scen.camera.camera_height)
        digest.update(f"tick {frame.t!r} {len(tracks)}\n".encode())
        for tr in tracks:
            digest.update(f"{tr.id} {tr.miss_count} {tr.confidence!r}\n".encode())
            digest.update(tr.vec.tobytes())
            digest.update(tr.P.tobytes())
    assert digest.hexdigest() == DENSE_TRACKER_DIGEST


@st.composite
def busy_scenarios(draw):
    """A trimmed copy of test_scenario.scenario_configs: a few seconds of
    one to five vehicles close behind the user and mostly closing, seen
    by a camera near the default, so that most examples hold tracks; the
    head may swing far (yaw up to 1.5 rad, pitch up to 0.5 rad)."""
    duration = draw(_floats(2, 8))
    vehicles = []
    for _ in range(draw(st.integers(1, 5))):
        profile = draw(st.sampled_from(scenario.VEHICLE_PROFILES))
        vehicles.append(scenario.VehicleConfig(
            cls=draw(st.sampled_from(scenario.VEHICLE_CLASSES)),
            spawn_time=draw(_floats(0, duration / 2)),
            x0=draw(_floats(-6, 6)), z0=draw(_floats(-30, -3)), speed=draw(_floats(0, 12)),
            heading=draw(_floats(-0.6, 0.6)), profile=profile, params=draw(_params(profile)),
        ))
    focal = draw(_floats(300, 900))
    return scenario.ScenarioConfig(
        seed=draw(st.integers(0, 2**31)),
        duration=duration,
        tick_rate=draw(st.sampled_from((5.0, 10.0, 20.0))),
        user=scenario.UserConfig(mode=draw(st.sampled_from(scenario.USER_MODES))),
        head_motion=draw(st.none() | st.builds(
            scenario.HeadMotionConfig, _floats(0, 1.5), _floats(1, 6), _floats(0, 0.5),
            _floats(1, 6), _floats(0, 0.1))),
        vehicles=tuple(vehicles),
        light=draw(st.sampled_from(scenario.LIGHT_CONDITIONS)),
        detector=scenario.DetectorConfig(
            fov=draw(_floats(0.8, 2.5)), box_noise_px=draw(_floats(0, 5)),
            first_detect_m={"car": draw(_floats(10, 40)), "cycle": draw(_floats(6, 40))}),
        camera=scenario.CameraConfig(
            intrinsics=CameraIntrinsics(focal, focal, 320.0, 320.0),
            camera_height=draw(_floats(1.0, 2.0))),
    )


@settings(max_examples=100, deadline=None)
@given(busy_scenarios())
def test_every_frame_loop_keeps_the_filter_invariants(scen):
    """The headset loop on generated scenarios, every frame a blink: after
    each predict and each update, every track keeps the filter invariants
    (finite state, exactly symmetric PSD covariance)."""
    frames, _ = scenario.generate(scen)
    cfg, cam = TrackerConfig(), scen.camera
    state = TrackerState()
    for frame in frames:
        state = advance(state, frame.t, cfg)
        for tr in state.tracks:
            _assert_filter_invariants(tr, cfg.gamma)
        state, tracks = step(state, frame, cfg, cam.intrinsics, cam.camera_height)
        for tr in tracks:
            _assert_filter_invariants(tr, cfg.gamma)
        assert 0.0 <= assess(tracks, now=frame.t).gamma_overall <= 1.0


# ------------------------------------------------------------------ config

@pytest.mark.parametrize("field", ["q_car", "q_cycle", "miss_max", "gamma", "d_max", "iou_gate"])
# a nan q_car used to read "must be non-negative": finite first, then range
@pytest.mark.parametrize("value", ["2", None, True, math.nan], ids=["str", "none", "bool", "nan"])
def test_non_number_tracker_field_is_a_config_error(field, value):
    rule = "must be a non-negative integer" if field == "miss_max" else "must be a finite number"
    with pytest.raises(InvalidConfig, match=f"^{field}: {rule}, got {value!r}$"):
        TrackerConfig(**{field: value})
