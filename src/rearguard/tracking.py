"""Planar multi-object tracking from sparse blinks.

State per track is [x, z, vx, vz] in the user frame with a constant
velocity model; the measurement is the pixel-space observation triple
from geometry.project_observation, linearized on the fly (EKF).  Blink
to blink association runs Kuhn-Munkres on IoU between detections and
the tracks' predicted boxes.

Each object is one frozen Track: the filter state (vec, P), its
confidence and what association needs.  Risk, the samplers and scoring
read these tracks directly; there is no separate per-tick view.

The tracker is a value (TrackerState); step() and advance() return new
states and never mutate their inputs, which keeps replays and
comparisons trivially reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import geometry
from .geometry import (
    AboveHorizon,
    BehindCamera,
    BoundingBox2D,
    CameraIntrinsics,
    ImuPose,
)

COND_LIMIT = 1e12  # innovation covariance above this is treated as singular


class SingularInnovation(RuntimeError):
    """Innovation covariance numerically singular; update not applied."""


@dataclass(frozen=True)
class TrackerConfig:
    q_car: float = 2.0          # process noise spectral density, m^2/s^3
    q_cycle: float = 1.0
    r_diag: tuple = (16.0, 9.0, 9.0)        # px^2: u_offset, height, horizon dev
    p0_diag: tuple = (4.0, 4.0, 16.0, 16.0)  # m^2, m^2, (m/s)^2, (m/s)^2
    iou_gate: float = 0.1
    miss_max: int = 3
    gamma: float = 1e-6
    d_max: float = 30.0

    def __post_init__(self):
        for name in ("q_car", "q_cycle", "miss_max"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("gamma", "d_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.iou_gate <= 1:
            raise ValueError("iou_gate must be in [0, 1]")
        for name, n in (("r_diag", 3), ("p0_diag", 4)):
            diag = getattr(self, name)
            if len(diag) != n or not all(isinstance(v, (int, float)) and v > 0 for v in diag):
                raise ValueError(f"{name} must hold {n} positive numbers")

    def q_for(self, cls: str) -> float:
        return self.q_cycle if cls == "cycle" else self.q_car

    def r_matrix(self) -> np.ndarray:
        return np.diag(self.r_diag).astype(float)

    def p0_matrix(self) -> np.ndarray:
        return np.diag(self.p0_diag).astype(float)


@dataclass(frozen=True)
class Track:
    """One tracked object: the filter state and what association needs."""

    id: int
    cls: str
    vec: np.ndarray   # shape (4,): x, z, vx, vz
    P: np.ndarray     # shape (4, 4)
    obj_height: float
    confidence: float
    miss_count: int = 0
    last_box: BoundingBox2D | None = None

    @property
    def x(self):
        return float(self.vec[0])

    @property
    def z(self):
        return float(self.vec[1])

    @property
    def vx(self):
        return float(self.vec[2])

    @property
    def vz(self):
        return float(self.vec[3])

    @property
    def range(self) -> float:
        return math.hypot(self.x, self.z)


@dataclass(frozen=True)
class Assignment:
    pairs: tuple            # ((track_id, det_index), ...)
    unmatched_tracks: tuple
    unmatched_detections: tuple


@dataclass(frozen=True)
class TrackerState:
    tracks: tuple = ()
    next_id: int = 1
    last_t: float | None = None
    last_frame_t: float | None = None


# ----------------------------------------------------------------- filter

def transition_matrix(dt: float) -> np.ndarray:
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    return F


def process_noise(dt: float, q: float) -> np.ndarray:
    """White-noise-acceleration discretization, independent per axis.

    Additive over interval splits: Q(a) + F(a) Q(b) F(a)^T ... reduces to
    Q(a+b), so predicting tick by tick equals one long predict.
    """
    dt2 = dt * dt
    Q = np.zeros((4, 4))
    Q[0, 0] = Q[1, 1] = q * dt * dt2 / 3.0
    Q[0, 2] = Q[2, 0] = Q[1, 3] = Q[3, 1] = q * dt2 / 2.0
    Q[2, 2] = Q[3, 3] = q * dt
    return Q


def confidence(P: np.ndarray, gamma: float = 1e-6) -> float:
    """Reciprocal of the covariance trace, offset by a small constant."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 1.0 / (float(np.trace(P)) + gamma)


def observation_jacobian(
    x: float,
    z: float,
    obj_height: float,
    pose: ImuPose,
    intr: CameraIntrinsics,
    camera_height: float,
) -> np.ndarray:
    """3x4 Jacobian of project_observation w.r.t. [x, z, vx, vz].

    The observation does not depend on velocity, so the last two columns
    are zero.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    n, d = geometry.user_to_camera_planar(x, z, pose.yaw)
    if d <= 0:
        raise BehindCamera("jacobian undefined behind the camera")
    d2 = d * d
    cp = math.cos(pose.pitch)
    H = np.zeros((3, 4))
    H[0, 0] = intr.f_x * cp * (c * d + s * n) / d2
    H[0, 1] = intr.f_x * cp * (s * d - c * n) / d2
    H[1, 0] = intr.f_y * obj_height * s / d2
    H[1, 1] = -intr.f_y * obj_height * c / d2
    H[2, 0] = intr.f_y * camera_height * s / d2
    H[2, 1] = -intr.f_y * camera_height * c / d2
    return H


def kalman_update(vec, P, residual, H, R):
    """Shared measurement-update algebra (Joseph form, symmetrized).

    Works for the EKF (residual against the nonlinear prediction) and
    for a plain linear model alike.  Raises SingularInnovation when the
    innovation covariance is not invertible to working precision.
    """
    S = H @ P @ H.T + R
    if np.linalg.cond(S) > COND_LIMIT:
        raise SingularInnovation(f"cond(S) = {np.linalg.cond(S):.3e}")
    K = P @ H.T @ np.linalg.inv(S)
    vec_post = vec + K @ residual
    I_KH = np.eye(P.shape[0]) - K @ H
    P_post = I_KH @ P @ I_KH.T + K @ R @ K.T
    P_post = 0.5 * (P_post + P_post.T)
    return vec_post, P_post


def predict(track: Track, dt: float, q: float, gamma: float = 1e-6) -> Track:
    """Advance a track by dt under the constant-velocity model."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    F = transition_matrix(dt)
    vec = F @ track.vec
    P = F @ track.P @ F.T + process_noise(dt, q)
    P = 0.5 * (P + P.T)
    return replace(track, vec=vec, P=P, confidence=confidence(P, gamma))


def update(
    track: Track,
    obs: np.ndarray,
    pose: ImuPose,
    intr: CameraIntrinsics,
    camera_height: float,
    r: np.ndarray,
    gamma: float = 1e-6,
) -> Track:
    """EKF measurement update against the pixel-space observation triple."""
    x, z = track.x, track.z
    predicted = geometry.project_observation(x, z, track.obj_height, pose, intr, camera_height)
    H = observation_jacobian(x, z, track.obj_height, pose, intr, camera_height)
    vec, P = kalman_update(track.vec, track.P, np.asarray(obs, float) - predicted, H, r)
    return replace(track, vec=vec, P=P, confidence=confidence(P, gamma))


# ------------------------------------------------------------ association

def iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.h + b.w * b.h - inter)


def predicted_box(
    track: Track, pose: ImuPose, intr: CameraIntrinsics, camera_height: float
) -> BoundingBox2D | None:
    """Project the predicted state to an image box for IoU gating.

    Bottom-center comes from the observation model; width and height are
    carried over from the last observed box (there is no better prior
    between blinks).  Returns None when the prediction is behind the
    camera this blink.
    """
    if track.last_box is None:
        return None
    try:
        obs = geometry.project_observation(
            track.x, track.z, track.obj_height, pose, intr, camera_height
        )
    except BehindCamera:
        return None
    u = intr.c_x + obs[0]
    v_bottom = geometry.horizon_line(intr, pose.pitch) + obs[2]
    w, h = track.last_box.w, track.last_box.h
    return BoundingBox2D(x=u - w / 2.0, y=v_bottom - h, w=w, h=h, cls=track.cls)


def _solve_rect(weights: np.ndarray, eligible: np.ndarray):
    """One maximum-total-weight assignment over eligible cells (others
    count as zero); returns the eligible pairs scipy picked."""
    if weights.size == 0:
        return []
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if eligible[r, c]]


def max_weight_assignment(weights: np.ndarray, eligible: np.ndarray):
    """Maximum-total assignment with a deterministic tie-break.

    Among all assignments achieving the optimal total, returns the one
    whose sorted (row, col) pair list is lexicographically smallest.
    Totals are compared as math.fsum of the pair weights, which is
    order-independent, so equal-total ties resolve identically no matter
    how the optimum was found.
    """
    base = _solve_rect(weights, eligible)
    t_star = math.fsum(weights[r, c] for r, c in base)
    fixed: list[tuple[int, int]] = []
    free_rows = list(range(weights.shape[0]))
    free_cols = list(range(weights.shape[1]))
    for row in range(weights.shape[0]):
        free_rows.remove(row)
        chosen = None
        for col in free_cols:
            if not eligible[row, col]:
                continue
            sub_rows = free_rows
            sub_cols = [c for c in free_cols if c != col]
            sub = weights[np.ix_(sub_rows, sub_cols)] if sub_rows and sub_cols else np.zeros((0, 0))
            sub_el = (
                eligible[np.ix_(sub_rows, sub_cols)] if sub_rows and sub_cols else np.zeros((0, 0), bool)
            )
            completion = _solve_rect(sub, sub_el)
            total = math.fsum(
                [weights[r, c] for r, c in fixed]
                + [weights[row, col]]
                + [sub[r, c] for r, c in completion]
            )
            if total == t_star:
                chosen = col
                break
        if chosen is not None:
            fixed.append((row, chosen))
            free_cols.remove(chosen)
    return fixed, t_star


def match(
    tracks,
    detections,
    pose: ImuPose,
    intr: CameraIntrinsics,
    camera_height: float,
    iou_gate: float = 0.1,
) -> Assignment:
    """Associate detections to tracks by maximum total IoU.

    Pairs below the gate (or with zero overlap) are never matched.
    Tracks whose predicted state cannot be projected this blink are
    unmatched by construction.
    """
    order = sorted(range(len(tracks)), key=lambda i: tracks[i].id)
    boxes = [predicted_box(tracks[i], pose, intr, camera_height) for i in order]
    nt, nd = len(tracks), len(detections)
    weights = np.zeros((nt, nd))
    eligible = np.zeros((nt, nd), dtype=bool)
    for r, (i, b) in enumerate(zip(order, boxes)):
        if b is None:
            continue
        for j, det in enumerate(detections):
            v = iou(b, det)
            if v > 0.0 and v >= iou_gate:
                weights[r, j] = v
                eligible[r, j] = True
    pairs_rc, _ = max_weight_assignment(weights, eligible)
    pairs = tuple((tracks[order[r]].id, c) for r, c in pairs_rc)
    matched_tracks = {tid for tid, _ in pairs}
    matched_dets = {c for _, c in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_tracks=tuple(t.id for t in tracks if t.id not in matched_tracks),
        unmatched_detections=tuple(j for j in range(nd) if j not in matched_dets),
    )


# -------------------------------------------------------------- lifecycle

def snapshots(tracker: TrackerState):
    """The live tracks, as risk and the samplers read them."""
    return tracker.tracks


def advance(tracker: TrackerState, t: float, config: TrackerConfig) -> TrackerState:
    """Predict every track forward to time t (no measurement)."""
    if tracker.last_t is None:
        return replace(tracker, last_t=t)
    dt = t - tracker.last_t
    if dt < 0:
        raise ValueError("time went backwards")
    if dt == 0:
        return tracker
    moved = tuple(
        predict(tr, dt, config.q_for(tr.cls), config.gamma) for tr in tracker.tracks
    )
    return replace(tracker, tracks=moved, last_t=t)


def _spawn(
    box: BoundingBox2D,
    track_id: int,
    pose: ImuPose,
    intr: CameraIntrinsics,
    camera_height: float,
    config: TrackerConfig,
) -> Track | None:
    try:
        depth = geometry.estimate_depth(box, intr, pose.pitch, camera_height)
    except AboveHorizon:
        return None
    p_cam = geometry.backproject(box, depth, intr)
    p_user = geometry.camera_to_user(p_cam, pose.yaw)
    if math.hypot(p_user.x, p_user.z) > config.d_max:
        return None  # out of tracking range; do not burn an id on it
    P0 = config.p0_matrix()
    return Track(
        id=track_id,
        cls=box.cls,
        vec=np.array([p_user.x, p_user.z, 0.0, 0.0]),
        P=P0,
        obj_height=box.h * depth / intr.f_y,
        confidence=confidence(P0, config.gamma),
        last_box=box,
    )


def step(
    tracker: TrackerState,
    frame,
    config: TrackerConfig,
    intr: CameraIntrinsics,
    camera_height: float,
):
    """Ingest one blink: predict, associate, update, spawn, retire.

    Returns (new TrackerState, its surviving tracks).
    Detections whose ground contact sits above the horizon are ignored;
    an update with a singular innovation counts as a miss.
    """
    if tracker.last_frame_t is not None and frame.t <= tracker.last_frame_t:
        raise ValueError("frame timestamps must be strictly increasing")
    tracker = advance(tracker, frame.t, config)
    pose = frame.pose
    detections = frame.detections

    assignment = match(
        tracker.tracks, detections, pose, intr, camera_height, config.iou_gate
    )
    by_id = {t.id: t for t in tracker.tracks}
    R = config.r_matrix()

    updated: dict[int, Track] = {}
    for tid, j in assignment.pairs:
        track = by_id[tid]
        det = detections[j]
        # measurement triple straight from the detection box
        u, v_bottom = det.bottom_center
        y_h = geometry.horizon_line(intr, pose.pitch)
        obs = np.array([u - intr.c_x, det.h, v_bottom - y_h])
        try:
            new = update(track, obs, pose, intr, camera_height, R, config.gamma)
        except (SingularInnovation, BehindCamera):
            continue
        updated[tid] = replace(new, miss_count=0, last_box=det)

    survivors = []
    for track in tracker.tracks:
        if track.id in updated:
            track = updated[track.id]
        else:
            # unmatched, or the update failed; either way a miss
            track = replace(track, miss_count=track.miss_count + 1)
        if track.miss_count > config.miss_max:
            continue
        if track.range > config.d_max:
            continue
        survivors.append(track)

    next_id = tracker.next_id
    for j in assignment.unmatched_detections:
        spawned = _spawn(detections[j], next_id, pose, intr, camera_height, config)
        if spawned is None:
            continue
        survivors.append(spawned)
        next_id += 1

    out = TrackerState(
        tracks=tuple(survivors),
        next_id=next_id,
        last_t=frame.t,
        last_frame_t=frame.t,
    )
    return out, out.tracks
