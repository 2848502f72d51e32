"""The scene generator as it was written before its one-pass rewrite: the
oracle that `scenario.generate`'s records and written bytes must equal.

Each vehicle is a `VehicleSim` stepped by its own method call every
tick, each object is projected by its own `pose_projector` call (the
pose model's `observe`, then the box), and the two head-jitter terms are
two scalar draws.  Everything else (the detection rule, the occlusion
sweep, the padded-frame test and the records) is the package's own.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from rearguard.geometry import BoundingBox2D, ImuPose, pose_model
from rearguard.scenario import (
    CLASS_DIMENSIONS,
    Frame,
    GroundTruthObject,
    GroundTruthTick,
    _detection_rule,
    _in_padded_frame,
    _occluded,
    tick_count,
)


def pose_projector(pose, cam):
    """The noise-free image box of an object for one pose, as a function
    (x, z, cls) -> (u, v_bottom, w_px, h_px, bearing), or None at or
    behind the camera plane (closer than half a metre counts as behind)."""
    observe, _, _, y_h = pose_model(pose, cam.intrinsics, cam.camera_height)
    f_x, c_x = cam.intrinsics.f_x, cam.intrinsics.c_x

    def project(x: float, z: float, cls: str) -> tuple | None:
        w_obj, h_obj = CLASS_DIMENSIONS[cls]
        obs = observe(x, z, h_obj)
        if obs is None:
            return None
        n, d, u_offset, h_px, deviation = obs
        if d <= 0.5:
            return None
        return c_x + u_offset, y_h + deviation, f_x * w_obj / d, h_px, math.atan2(n, d)

    return project


class VehicleSim:
    """Per-vehicle world-frame kinematics, stepped tick by tick."""

    def __init__(self, cfg, z_user_at_spawn: float, spawn_t: float):
        self.cfg = cfg
        self.cls = cfg.cls
        self.height = CLASS_DIMENSIONS[cfg.cls][1]
        self.speed = cfg.speed
        self.x = cfg.x0
        self.z = cfg.z0 + z_user_at_spawn
        self.base_x = cfg.x0
        self.vx, self.vz = self._velocity(spawn_t)

    def _velocity(self, t: float) -> tuple:
        p = self.cfg
        vx = self.speed * math.sin(p.heading)
        vz = self.speed * math.cos(p.heading)
        if p.profile == "lane-change-at":
            t0, dur = p.params["at"], p.params["duration"]
            if t0 <= t < t0 + dur:
                shift = p.params["to_x"] - self.base_x
                vx += shift * 0.5 * math.pi / dur * math.sin(math.pi * (t - t0) / dur)
        return vx, vz

    def step(self, t: float, dt: float):
        p = self.cfg
        # a constant vehicle keeps the velocity it spawned with
        if p.profile != "constant":
            if p.profile == "decelerate-at" and t >= p.params["at"]:
                self.speed = max(0.0, self.speed - p.params["rate"] * dt)
            self.vx, self.vz = self._velocity(t)
        self.x += self.vx * dt
        self.z += self.vz * dt


def generate(config):
    """(frames, truth) for a scenario config, object by object."""
    rng = np.random.default_rng(config.seed)
    dt = 1.0 / config.tick_rate
    n_ticks = tick_count(config.duration, config.tick_rate)
    hm = config.resolved_head_motion()
    user_speed = config.user.resolved_speed()
    cam = config.camera
    det = config.detector
    half_fov = det.fov / 2
    detection = {cls: _detection_rule(cls, config.light, det, config.tick_rate)
                 for cls in {v.cls for v in config.vehicles}}

    yaw_phase = rng.uniform(0.0, 2.0 * math.pi)
    pitch_phase = rng.uniform(0.0, 2.0 * math.pi)

    vehicles = config.vehicles
    queue = sorted(range(len(vehicles)), key=lambda i: (vehicles[i].spawn_time, i), reverse=True)
    live = []   # (config index, object id, sim), in config order
    next_object_id = 1

    frames, truth = [], []
    z_user = 0.0
    for k in range(n_ticks):
        t = k / config.tick_rate
        if k > 0:
            z_user += user_speed * dt

        pitch = hm.pitch_amplitude * math.sin(2 * math.pi * t / hm.pitch_period + pitch_phase)
        yaw = math.pi + hm.yaw_amplitude * math.sin(2 * math.pi * t / hm.yaw_period + yaw_phase)
        pitch += rng.normal(0.0, hm.jitter_std)
        yaw += rng.normal(0.0, hm.jitter_std)
        pose = ImuPose(pitch, yaw)

        for _, _, sim in live:
            sim.step(t, dt)
        born = []
        while queue and t >= vehicles[queue[-1]].spawn_time:
            born.append(queue.pop())
        if born:
            for i in sorted(born):
                live.append((i, next_object_id, VehicleSim(vehicles[i], z_user, t)))
                next_object_id += 1
            live.sort(key=itemgetter(0))

        objects = tuple(
            GroundTruthObject(oid, sim.cls, sim.x, sim.z - z_user, sim.vx, sim.vz - user_speed,
                              sim.height)
            for _, oid, sim in live)
        truth.append(GroundTruthTick(t, pose, objects))

        project = pose_projector(pose, cam)
        visible, views = [], []
        for obj in objects:
            box = project(obj.x, obj.z, obj.cls)
            if box is None or abs(box[4]) > half_fov:
                continue
            visible.append((obj, box))
            views.append((math.hypot(obj.x, obj.z), box[4]))
        detections = []
        for (obj, (u, v_bottom, w_px, h_px, _)), (range_m, _), hidden in zip(
                visible, views, _occluded(views, det.occlusion_sector)):
            if hidden:
                continue
            p_det = detection[obj.cls](range_m)
            if rng.random() >= p_det:
                continue
            if det.box_noise_px > 0:
                noise = rng.normal(0.0, det.box_noise_px, size=4).tolist()
                u, v_bottom = u + noise[0], v_bottom + noise[1]
                w_px = max(2.0, w_px + noise[2])
                h_px = max(2.0, h_px + noise[3])
            if not _in_padded_frame(cam, u, v_bottom, w_px, h_px):
                continue
            detections.append(BoundingBox2D(x=u - w_px / 2, y=v_bottom - h_px, w=w_px, h=h_px,
                                            cls=obj.cls, score=p_det))
        frames.append(Frame(t, pose, tuple(detections)))
    return frames, truth
