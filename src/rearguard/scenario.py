"""Synthetic rear-traffic world: trajectories, head motion, detector model,
and line-delimited trace files.

The generator produces exactly what the live system would see per tick:
an IMU pose and a list of detection boxes, alongside the ground truth
the evaluation harness scores against.  Detection boxes come from
geometry.pose_model, the forward model the tracker projects through and
inverts, plus a box's width, bearing and 0.5 m cutoff; the labels'
sensing footprint uses the same boxes and padded-frame test.

Everything is driven by one seeded generator in a fixed order, so a
given config produces byte-identical traces every time.

``build_config`` reads every config class of the package from YAML; the
classes check themselves with geometry's ``require``, so the headset's
modules (tracking, sampler, risk) need not import this generator.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import types
import typing
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    MAX_PIXELS,
    ImuPose,
    InvalidConfig,
    ParseError,
    VersionMismatch,
    is_finite_number,
    is_number,
    pose_model,
    read_lines,
    require,
    require_finite,
)

log = logging.getLogger(__name__)

TRACE_VERSION = 1

USER_MODES = ("standing", "walking", "jogging")
ROAD_TYPES = ("along", "intersection")
LIGHT_CONDITIONS = ("day", "night")
VEHICLE_CLASSES = ("car", "cycle")
VEHICLE_PROFILES = ("constant", "decelerate-at", "lane-change-at")
# numeric params each profile needs; the last one must be positive
PROFILE_PARAMS = {"decelerate-at": ("at", "rate"), "lane-change-at": ("at", "to_x", "duration")}

# physical extent of a detection target, meters (width, height)
CLASS_DIMENSIONS = {"car": (1.8, 1.5), "cycle": (0.6, 1.7)}

# the reference approach the detector medians are calibrated against
REF_APPROACH_SPEED = 8.33   # m/s
REF_APPROACH_START = 40.0   # m

DEFAULT_FOV = 1.2   # detector full view angle, radians

# the most ticks a scenario may hold: 27.8 h at 10 Hz, at some 1.2 KB a tick
MAX_TICKS = 10**6

# Physical bounds on a scene, which keep every number generate simulates
# finite (see VehicleConfig).
TICK_RATES = (1.0, 1000.0)                 # Hz, the least and the most
MAX_SECONDS = MAX_TICKS / TICK_RATES[0]    # the latest time a scenario reaches
MAX_OFFSET_M = 1000.0        # |x0|, |z0| and |to_x|, meters from the user
MAX_SPEED = 100.0            # m/s, of a vehicle or the user
MAX_DECELERATION = 100.0     # m/s^2, a decelerate-at rate
MIN_LANE_CHANGE_S = 0.1      # s, a lane-change-at duration
MIN_HEAD_PERIOD_S = 0.1      # s, a head_motion yaw or pitch period
MAX_CAMERA_HEIGHT = 10.0     # m; an ear this high above the road is on no road user
# each profile parameter's closed range and unit
PARAM_BOUNDS = {"at": (0.0, MAX_SECONDS, "s"), "rate": (0.0, MAX_DECELERATION, "m/s^2"),
                "to_x": (-MAX_OFFSET_M, MAX_OFFSET_M, "m"),
                "duration": (MIN_LANE_CHANGE_S, MAX_SECONDS, "s")}

DEFAULT_USER_SPEED = {"standing": 0.0, "walking": 1.4, "jogging": 2.6}

# yaw amplitude, yaw period, pitch amplitude, pitch period, jitter std
DEFAULT_HEAD_MOTION = {
    "standing": (0.05, 6.0, 0.02, 5.0, 0.002),
    "walking": (0.10, 4.0, 0.04, 3.5, 0.004),
    "jogging": (0.15, 2.5, 0.06, 2.0, 0.008),
}


# ------------------------------------------------------------------ config
# Each class checks its own fields with geometry.require and require_finite.

def _mapping(obj, *names):
    for name in names:
        value = getattr(obj, name)
        require(isinstance(value, dict), name, f"must be a mapping, got {value!r}")


def _positive(value) -> bool:
    return is_finite_number(value) and value > 0


def _within(value, lo: float, hi: float, name: str, unit: str) -> None:
    require(lo <= value <= hi, name, f"must be in [{lo:g}, {hi:g}] {unit}, got {value!r}")


def tick_count(duration: float, tick_rate: float) -> int:
    """The ticks of a run of `duration` seconds at `tick_rate` Hz: the
    records that `generate` makes and a trace of that header holds."""
    return int(round(duration * tick_rate))


def check_fov(fov) -> None:
    """The one rule for a scenario's `detector.fov` and a run file's `fov`."""
    require(is_number(fov) and 0 < fov < math.pi, "fov", f"must be in (0, pi), got {fov!r}")


@dataclass(frozen=True)
class CameraConfig:
    """The camera's intrinsics, image and mounting.  A box is in view
    while it lies inside the image grown by margin_px on every side; a
    margin beyond geometry.MAX_PIXELS describes no camera, and a
    camera_height above MAX_CAMERA_HEIGHT no earbud."""

    intrinsics: CameraIntrinsics = CameraIntrinsics(600.0, 600.0, 320.0, 320.0)
    image_size: tuple = (640, 640)
    camera_height: float = 1.55
    margin_px: float = 80.0

    def __post_init__(self):
        require_finite(self, "camera_height", "margin_px")
        require(self.camera_height > 0, "camera_height", "must be positive")
        require(self.camera_height <= MAX_CAMERA_HEIGHT, "camera_height",
                f"must be at most {MAX_CAMERA_HEIGHT:g} m, got {self.camera_height!r}")
        require(self.margin_px >= 0, "margin_px", "must be non-negative")
        require(self.margin_px <= MAX_PIXELS, "margin_px",
                f"must be at most {MAX_PIXELS:g} px, got {self.margin_px!r}")
        require(isinstance(self.image_size, (tuple, list)) and len(self.image_size) == 2
                and all(map(_positive, self.image_size)),
                "image_size", "must be two positive numbers")


@dataclass(frozen=True)
class UserConfig:
    mode: str = "walking"
    speed: float | None = None     # default depends on mode

    def __post_init__(self):
        require(self.mode in USER_MODES, "mode", f"must be one of {USER_MODES}")
        if self.speed is not None:
            require_finite(self, "speed")
        _within(self.resolved_speed(), 0.0, MAX_SPEED, "speed", "m/s")

    def resolved_speed(self) -> float:
        return DEFAULT_USER_SPEED[self.mode] if self.speed is None else self.speed


@dataclass(frozen=True)
class HeadMotionConfig:
    """Head sway: a sine in yaw and one in pitch, plus per-tick jitter.

    Periods are at least MIN_HEAD_PERIOD_S, a 10 Hz sway no head makes;
    finite alone did not suffice: a yaw_period of 1e-307 overflowed
    2 * pi * t / period to inf, and math.sin(inf) raised inside generate.
    A yaw swing of more than pi each way is more than a half turn of the
    head, so |yaw_amplitude| is at most pi.
    """

    yaw_amplitude: float
    yaw_period: float
    pitch_amplitude: float
    pitch_period: float
    jitter_std: float

    def __post_init__(self):
        require_finite(self, "yaw_amplitude", "yaw_period", "pitch_amplitude", "pitch_period",
                       "jitter_std")
        for name in ("yaw_period", "pitch_period"):
            period = getattr(self, name)
            require(period >= MIN_HEAD_PERIOD_S, name,
                    f"must be at least {MIN_HEAD_PERIOD_S:g} s, got {period!r}")
        require(abs(self.yaw_amplitude) <= math.pi, "yaw_amplitude",
                f"must be at most pi in magnitude, got {self.yaw_amplitude!r}")
        require(self.jitter_std >= 0, "jitter_std", "must be non-negative")
        require(abs(self.pitch_amplitude) + 6 * self.jitter_std < math.pi / 2, "pitch_amplitude",
                "plus 6 jitter_std must stay below pi/2, the pitch limit")


@dataclass(frozen=True)
class VehicleConfig:
    """One vehicle of a scene.

    Offsets, speed and profile parameters have physical bounds, and the
    scenario bounds its tick rate and user speed.  Within them every number
    generate simulates stays finite by a wide margin: a tick lasts at most
    1 s, a scene ends by MAX_SECONDS, and no vehicle moves faster than
    MAX_SPEED plus a lane change's peak lateral speed |to_x - x0| * pi /
    (2 * duration), at most some 3.2e4 m/s, so no position leaves 4e10 m.
    Finite values alone did not suffice: x0 1e308 changing lane to -1e308
    wrote NaN into the truth file.
    """

    cls: str
    spawn_time: float   # checked against the duration by ScenarioConfig
    x0: float           # user-frame lateral offset at spawn
    z0: float           # user-frame forward offset at spawn (behind is negative)
    speed: float        # world speed along its heading
    heading: float = 0.0   # world heading, 0 points along +z (user's forward)
    profile: str = "constant"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        require(self.cls in VEHICLE_CLASSES, "cls", f"must be one of {VEHICLE_CLASSES}")
        require_finite(self, "spawn_time", "x0", "z0", "speed", "heading")
        _within(self.x0, -MAX_OFFSET_M, MAX_OFFSET_M, "x0", "m")
        _within(self.z0, -MAX_OFFSET_M, MAX_OFFSET_M, "z0", "m")
        _within(self.speed, 0.0, MAX_SPEED, "speed", "m/s")
        require(self.profile in VEHICLE_PROFILES, "profile", f"must be one of {VEHICLE_PROFILES}")
        _mapping(self, "params")
        for name in PROFILE_PARAMS.get(self.profile, ()):
            value = self.params.get(name)
            require(is_number(value), f"params.{name}", f"a number is required for {self.profile}")
            require(is_finite_number(value), f"params.{name}", f"must be finite, got {value!r}")
            if name == PROFILE_PARAMS[self.profile][-1]:
                require(value > 0, f"params.{name}", "must be positive")
            _within(value, *PARAM_BOUNDS[name][:2], f"params.{name}", PARAM_BOUNDS[name][2])


@dataclass(frozen=True)
class DetectorConfig:
    fov: float = DEFAULT_FOV                # full angle, radians
    box_noise_px: float = 1.5
    first_detect_m: dict = field(default_factory=lambda: {"car": 12.0, "cycle": 6.0})
    spread_m: dict = field(default_factory=lambda: {"car": 1.2, "cycle": 0.8})
    night_factor: float = 0.6               # < 1 shrinks effective visibility
    occlusion_sector: float = math.radians(3.0)

    def __post_init__(self):
        check_fov(self.fov)
        require_finite(self, "box_noise_px", "night_factor", "occlusion_sector")
        require(0 < self.night_factor <= 1, "night_factor", "must be in (0, 1]")
        require(self.box_noise_px >= 0, "box_noise_px", "must be non-negative")
        require(0 <= self.occlusion_sector < math.pi, "occlusion_sector",
                f"must be in [0, pi), got {self.occlusion_sector!r}")
        _mapping(self, "first_detect_m", "spread_m")
        for name in ("first_detect_m", "spread_m"):
            for cls in getattr(self, name):
                require(cls in VEHICLE_CLASSES, f"{name}.{cls}",
                        f"unknown class, expected one of {VEHICLE_CLASSES}")
        for cls in VEHICLE_CLASSES:
            # the calibration approach starts at REF_APPROACH_START
            median = self.first_detect_m.get(cls)
            require(_positive(median) and median <= REF_APPROACH_START,
                    f"first_detect_m.{cls}", f"must be in (0, {REF_APPROACH_START:g}]")
            require(_positive(self.spread_m.get(cls)), f"spread_m.{cls}",
                    "must be positive and finite")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: float = 60.0
    tick_rate: float = 10.0
    user: UserConfig = UserConfig()
    head_motion: HeadMotionConfig | None = None
    vehicles: tuple[VehicleConfig, ...] = ()
    road: str = "along"
    light: str = "day"
    detector: DetectorConfig = DetectorConfig()
    camera: CameraConfig = CameraConfig()

    def __post_init__(self):
        require(isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0,
                "seed", "must be a non-negative integer")
        require_finite(self, "duration", "tick_rate")
        require(self.duration > 0, "duration", "must be positive")
        require(self.tick_rate > 0, "tick_rate", "must be positive")
        ticks = self.duration * self.tick_rate
        require(ticks <= MAX_TICKS, "duration", f"times tick_rate must give at most {MAX_TICKS} "
                f"ticks, got {ticks:g}")
        _within(self.tick_rate, *TICK_RATES, "tick_rate", "Hz")
        require(self.road in ROAD_TYPES, "road", f"must be one of {ROAD_TYPES}")
        require(self.light in LIGHT_CONDITIONS, "light", f"must be one of {LIGHT_CONDITIONS}")
        for i, v in enumerate(self.vehicles):
            require(0 <= v.spawn_time < self.duration, f"vehicles[{i}].spawn_time",
                    "must lie within the scenario duration")

    def resolved_head_motion(self) -> HeadMotionConfig:
        return self.head_motion or HeadMotionConfig(*DEFAULT_HEAD_MOTION[self.user.mode])


class Frame(NamedTuple):
    t: float
    pose: ImuPose
    detections: tuple   # of BoundingBox2D


class GroundTruthObject(NamedTuple):
    id: int
    cls: str
    x: float
    z: float
    vx: float
    vz: float
    height: float

    @property
    def range(self) -> float:
        return math.hypot(self.x, self.z)


class GroundTruthTick(NamedTuple):
    t: float
    pose: ImuPose
    objects: tuple   # of GroundTruthObject


@lru_cache(maxsize=None)
def _schema(cls) -> dict:
    """Each field of a config dataclass as (type without `| None`, may be
    null, is required); resolving string annotations is slow, and the
    classes are few and fixed."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        nullable = type(None) in args
        # a union of one type is that type itself
        hint = typing.Union[tuple(t for t in args if t is not type(None))] if nullable else hints[f.name]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        schema[f.name] = (hint, nullable, required)
    return schema


def build_config(cls, raw, label: str):
    """Build config dataclass `cls` from YAML data, led by its type hints:
    nested config dataclasses and tuples of them are built recursively,
    other lists become tuples, and an empty or null nested block means the
    field's default.  A plain field takes a value of its type or of any type
    in its union; an int passes for a float, a bool for neither.  Unknown and
    missing keys are named by dotted path (`vehicles[1].foo`).  A constructor
    error starts with its field, so it gets the block's path in front
    (`detector.fov: ...`)."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{label or 'config'}: must be a mapping")
    path = f"{label}." if label else ""
    schema = _schema(cls)
    unknown = sorted(str(k) for k in raw if k not in schema)
    if unknown:
        raise InvalidConfig(", ".join(path + k for k in unknown) + ": unknown field")
    kwargs = {k: _build_value(*schema[k][:2], v, path + k) for k, v in raw.items()
              if not (dataclasses.is_dataclass(schema[k][0]) and v in (None, {}))}
    missing = [k for k, (_, _, required) in schema.items() if required and k not in kwargs]
    if missing:
        raise InvalidConfig(", ".join(path + k for k in missing) + ": missing")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}{exc}") from exc


def _build_value(hint, nullable: bool, value, label: str):
    if nullable and value is None:
        return None
    if dataclasses.is_dataclass(hint):
        return build_config(hint, value, label)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and dataclasses.is_dataclass(args[0]):
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{label}: must be a list")
        return tuple(build_config(args[0], v, f"{label}[{i}]") for i, v in enumerate(value))
    value = tuple(value) if isinstance(value, list) else value
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    expected = args if union else (typing.get_origin(hint) or hint,)
    if is_number(value):   # an int passes for a float
        valid = float in expected or isinstance(value, expected)
    else:   # a bool is an int to Python, so it passes only where a bool is expected
        valid = isinstance(value, tuple(t for t in expected if t is not int))
    if not valid:
        raise InvalidConfig(f"{label}: expected {' or '.join(t.__name__ for t in expected)}, "
                            f"got {value!r}")
    return value


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from plain dict/YAML data."""
    return build_config(ScenarioConfig, raw, "")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain data that config_from_dict reads back, with the user speed and
    head motion resolved to the values a run uses."""
    cfg = dataclasses.replace(
        cfg, user=dataclasses.replace(cfg.user, speed=cfg.user.resolved_speed()),
        head_motion=cfg.resolved_head_motion())
    return _plain(dataclasses.asdict(cfg))


def _plain(value):
    """Tuples as lists, all the way down, for YAML and JSON."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


# -------------------------------------------------------------- detector

@lru_cache(maxsize=64)
def _calibrated_midpoint(target_median: float, spread: float, tick_rate: float = 10.0) -> float:
    """Solve the logistic midpoint so that the median first-detection range
    on the reference approach equals target_median.

    The reference approach closes at REF_APPROACH_SPEED with one detection
    trial per tick; the median is where the survival product crosses 1/2.
    """
    step = REF_APPROACH_SPEED / tick_rate
    ranges = np.arange(REF_APPROACH_START, target_median - 1e-9, -step)

    def log_survival(r0: float) -> float:
        p = 1.0 / (1.0 + np.exp((ranges - r0) / spread))
        p = np.clip(p, 0.0, 1.0 - 1e-12)
        return float(np.sum(np.log1p(-p)))

    lo, hi = target_median - 6.0, target_median + 6.0
    target = math.log(0.5)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # log_survival decreases as the midpoint grows (easier detection)
        if log_survival(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detector_model(range_m: float, cls: str, light: str, det: DetectorConfig,
                   tick_rate: float = 10.0) -> float:
    """Per-trial detection probability at the given range."""
    if range_m < 0:
        raise ValueError("range must be non-negative")
    effective = range_m / det.night_factor if light == "night" else range_m
    r0 = _calibrated_midpoint(det.first_detect_m[cls], det.spread_m[cls], tick_rate)
    try:
        return 1.0 / (1.0 + math.exp((effective - r0) / det.spread_m[cls]))
    except OverflowError:   # some 700 spreads past the midpoint: 1 / (1 + inf)
        return 0.0


def _pose_projector(pose: ImuPose, cam: CameraConfig):
    """The noise-free image box of an object for one pose, on one
    geometry.pose_model, as a function (x, z, cls) -> (u, v_bottom, w_px,
    h_px, bearing) of its user coordinates and class: box centre column,
    ground-contact row, size in pixels and bearing.  It runs per object
    and tick in generate and label_truth, so the box is a plain tuple:
    building a named tuple cost more than the projection.

    The function returns None when the object is at or behind the camera
    plane (closer than half a metre counts as behind; a box that close is
    degenerate).
    """
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


def _in_padded_frame(cam: CameraConfig, u: float, v_bottom: float, w_px: float, h_px: float):
    """Whether a box (centre column, contact row, size) lies inside the
    image grown by margin_px on every side."""
    (img_w, img_h), margin = cam.image_size, cam.margin_px
    return (-margin <= u - w_px / 2 and u + w_px / 2 <= img_w + margin
            and -margin <= v_bottom - h_px and v_bottom <= img_h + margin)


def sensing_footprint(pose: ImuPose, cam: CameraConfig, fov: float = DEFAULT_FOV):
    """Whether an object could in principle appear in a frame taken now,
    as a predicate (x, z, cls) -> bool for one pose.

    Applies the deterministic gates only (behind the camera plane, view
    cone, padded image bounds), not the detection trial or occlusion.
    Objects closer than the image bottom allows have a ground contact
    below the frame and are invisible to this sensor regardless of the
    detector.
    """
    project = _pose_projector(pose, cam)
    half_fov = fov / 2

    def sensed(x: float, z: float, cls: str) -> bool:
        box = project(x, z, cls)
        if box is None or abs(box[4]) > half_fov:
            return False
        return _in_padded_frame(cam, *box[:4])

    return sensed


def in_sensing_footprint(x: float, z: float, cls: str, pose: ImuPose,
                         cam: CameraConfig, fov: float = DEFAULT_FOV) -> bool:
    """One object's sensing_footprint."""
    return sensing_footprint(pose, cam, fov)(x, z, cls)


# -------------------------------------------------------------- generation

class _VehicleSim:
    """Per-vehicle world-frame kinematics, stepped tick by tick."""

    def __init__(self, cfg: VehicleConfig, z_user_at_spawn: float, spawn_t: float):
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


def _occluded(views, sector: float) -> list:
    """Which of the (range, bearing) pairs are hidden: an object is hidden
    when some strictly nearer one lies within `sector` of its bearing,
    abs(Δbearing) < sector.

    A sweep in order of range keeps the bearings of the objects already
    passed, sorted; an object is tested only once every strictly nearer
    one is in, and only against the bearing on each side of its own,
    since float subtraction is monotone and those two are the nearest.
    A NaN range compares false both ways, and no difference of a
    non-finite bearing falls below a sector, so such an object neither
    hides nor is hidden and stays out of the sweep.
    """
    hidden = [False] * len(views)
    order = sorted((i for i, (r, b) in enumerate(views) if r == r and math.isfinite(b)),
                   key=lambda i: views[i][0])
    nearer, tied = [], []   # bearings passed; those at the current range
    last = None
    for i in order:
        r, b = views[i]
        if r != last:
            for other in tied:
                insort(nearer, other)
            tied, last = [], r
        j = bisect_left(nearer, b)
        hidden[i] = ((j < len(nearer) and abs(nearer[j] - b) < sector)
                     or (j > 0 and abs(nearer[j - 1] - b) < sector))
        tied.append(b)
    return hidden


def generate(config: ScenarioConfig):
    """Produce (frames, truth) for a scenario config.

    Each tick, every spawned vehicle is a truth object, in config order;
    vehicles that spawn on the same tick take ids in config order.  An
    object is visible when it is in front of the camera plane and inside
    the view cone.  A visible object is occluded when some strictly
    nearer visible object lies within `detector.occlusion_sector` of its
    bearing; that is decided before its detection trial, so an occluded
    object draws nothing from the generator.  A detected box gets its
    noise and must then lie inside the padded image.
    """
    rng = np.random.default_rng(config.seed)
    dt = 1.0 / config.tick_rate
    n_ticks = tick_count(config.duration, config.tick_rate)
    hm = config.resolved_head_motion()
    user_speed = config.user.resolved_speed()
    cam = config.camera
    det = config.detector
    half_fov = det.fov / 2

    yaw_phase = rng.uniform(0.0, 2.0 * math.pi)
    pitch_phase = rng.uniform(0.0, 2.0 * math.pi)

    # the vehicles yet to spawn, the next one last; only spawned ones are walked
    vehicles = config.vehicles
    queue = sorted(range(len(vehicles)), key=lambda i: (vehicles[i].spawn_time, i), reverse=True)
    live = []   # (config index, object id, sim), in config order
    next_object_id = 1

    frames = []
    truth = []
    z_user = 0.0
    for k in range(n_ticks):
        t = k / config.tick_rate
        if k > 0:
            z_user += user_speed * dt

        pitch = hm.pitch_amplitude * math.sin(2 * math.pi * t / hm.pitch_period + pitch_phase)
        yaw = math.pi + hm.yaw_amplitude * math.sin(2 * math.pi * t / hm.yaw_period + yaw_phase)
        pitch += rng.normal(0.0, hm.jitter_std)
        yaw += rng.normal(0.0, hm.jitter_std)
        pose = ImuPose(pitch, yaw)   # which wraps the yaw to (-pi, pi]

        for _, _, sim in live:
            sim.step(t, dt)
        born = []
        while queue and t >= vehicles[queue[-1]].spawn_time:
            born.append(queue.pop())
        if born:
            for i in sorted(born):
                live.append((i, next_object_id, _VehicleSim(vehicles[i], z_user, t)))
                next_object_id += 1
            live.sort(key=itemgetter(0))

        objects = tuple([
            GroundTruthObject(oid, sim.cls, sim.x, sim.z - z_user, sim.vx, sim.vz - user_speed,
                              sim.height)
            for _, oid, sim in live])
        truth.append(GroundTruthTick(t, pose, objects))

        # geometric visibility first, then occlusion, then the detection trial
        project = _pose_projector(pose, cam)
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
            p_det = detector_model(range_m, obj.cls, config.light, det, config.tick_rate)
            if rng.random() >= p_det:
                continue
            if det.box_noise_px > 0:
                noise = rng.normal(0.0, det.box_noise_px, size=4).tolist()
                u, v_bottom = u + noise[0], v_bottom + noise[1]
                w_px = max(2.0, w_px + noise[2])
                h_px = max(2.0, h_px + noise[3])
            if not _in_padded_frame(cam, u, v_bottom, w_px, h_px):
                continue
            detections.append(
                BoundingBox2D(
                    x=u - w_px / 2, y=v_bottom - h_px, w=w_px, h=h_px,
                    cls=obj.cls, score=p_det,
                )
            )
        frames.append(Frame(t, pose, tuple(detections)))

    log.info("generated %d ticks, %d vehicles", n_ticks, len(config.vehicles))
    return frames, truth


# ---------------------------------------------------------------- trace IO

@dataclass(frozen=True)
class TraceHeader:
    camera: CameraConfig   # margin_px is not recorded and keeps its default
    tick_rate: float
    seed: int
    duration: float


def _header_record(config: ScenarioConfig, kind: str) -> dict:
    intr = config.camera.intrinsics
    return {
        "kind": kind,
        "version": TRACE_VERSION,
        "intrinsics": {"f_x": intr.f_x, "f_y": intr.f_y, "c_x": intr.c_x, "c_y": intr.c_y},
        "image_size": list(config.camera.image_size),
        "camera_height": config.camera.camera_height,
        "tick_rate": config.tick_rate,
        "seed": config.seed,
        "duration": config.duration,
    }


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


# NaN and Infinity are rejected as a line is decoded; floats keep the
# decoder's fast path and are checked a record at a time by _check_numbers
_DECODER = json.JSONDecoder(parse_constant=_non_finite)


def _check_numbers(values, what: str) -> None:
    """Raise ValueError unless every value is a finite number.  One float sum
    per record costs far less than a check per field; a literal too large
    for a double decodes to inf and fails it, and so do values whose sum
    overflows, all near the float limit; an int too large for a double
    fails it too, as the sum cannot convert it."""
    try:
        if math.isfinite(sum(values, 0.0)):
            return
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"non-finite number or non-number in {what} {list(values)!r}")


def _parse_header(path, line: str, expected_kind: str) -> TraceHeader:
    where = f"{path}: line 1"
    try:
        raw = _DECODER.decode(line)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: header must be a JSON object")
    if raw.get("version") != TRACE_VERSION:
        raise VersionMismatch(f"{path}: expected version {TRACE_VERSION}, got {raw.get('version')!r}")
    if raw.get("kind") != expected_kind:
        raise ParseError(f"{where}: expected kind {expected_kind!r}, got {raw.get('kind')!r}")
    for fieldname in ("intrinsics", "camera_height", "tick_rate", "seed", "duration"):
        if fieldname not in raw:
            raise ParseError(f"{where}: header missing field {fieldname!r}")
    intr = raw["intrinsics"]
    for sub in ("f_x", "f_y", "c_x", "c_y"):
        if not isinstance(intr, dict) or sub not in intr:
            raise ParseError(f"{where}: header missing field intrinsics.{sub!r}")
    image_size = raw.get("image_size", (640, 640))
    try:
        _check_numbers((*(intr[sub] for sub in ("f_x", "f_y", "c_x", "c_y")), raw["camera_height"],
                        raw["tick_rate"], raw["duration"], *image_size), "header")
        camera = CameraConfig(intrinsics=CameraIntrinsics(**intr), camera_height=raw["camera_height"],
                              image_size=tuple(image_size))
        # the scenario's own rules for the seed, tick rate and duration it wrote
        ScenarioConfig(raw["seed"], raw["duration"], raw["tick_rate"], camera=camera)
        header = TraceHeader(camera, raw["tick_rate"], raw["seed"], raw["duration"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return header


# one encoder writes every line, as one decoder reads them; json.dumps
# with these options would build a new encoder per record
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump(record: dict) -> str:
    return _ENCODER.encode(record)


def _write_records(path, config: ScenarioConfig, header_kind: str, rows) -> None:
    """Header line, then one line per record dict."""
    with open(path, "w") as fh:
        fh.write(_dump(_header_record(config, header_kind)) + "\n")
        for row in rows:
            fh.write(_dump(row) + "\n")


def write_trace(path, config: ScenarioConfig, frames) -> None:
    _write_records(path, config, "trace-header", (
        {
            "kind": "frame",
            "t": f.t,
            "pitch": f.pose.pitch,
            "yaw": f.pose.yaw,
            "detections": [[d.x, d.y, d.w, d.h, d.cls, d.score] for d in f.detections],
        }
        for f in frames
    ))


def _split_lines(path):
    """A trace or truth file as its header line and its (line number, line)
    records; blank lines are skipped.  A file that is not UTF-8 is refused
    at the line of its first bad byte (geometry.read_lines)."""
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    return lines[0], [(i, line) for i, line in enumerate(lines[1:], start=2) if line.strip()]


def _read_records(path, header_kind: str, build):
    """Header plus one record per line, each checked where it enters:
    finite numbers, valid boxes and poses, strictly increasing t."""
    header_line, body = _split_lines(path)
    header = _parse_header(path, header_line, header_kind)
    records = []
    for i, line in body:
        try:
            rec = build(_DECODER.decode(line))
            if records and not rec.t > records[-1].t:
                raise ValueError(f"t={rec.t} does not increase")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"{path}: line {i}: {exc}") from exc
        records.append(rec)
    return header, records


def _box(d) -> BoundingBox2D:
    x, y, w, h, cls, score = d
    _check_numbers((x, y, w, h, score), "box")
    return BoundingBox2D(x=x, y=y, w=w, h=h, cls=cls, score=score)


def _pose_record(raw: dict) -> tuple:
    """A record's t and pose, shared by trace frames and truth ticks."""
    t, pitch, yaw = raw["t"], raw["pitch"], raw["yaw"]
    _check_numbers((t, pitch, yaw), "t, pitch, yaw")
    return t, ImuPose(pitch=pitch, yaw=yaw)


def _frame(raw: dict) -> Frame:
    t, pose = _pose_record(raw)
    return Frame(t, pose, tuple(map(_box, raw["detections"])))


def read_trace(path):
    return _read_records(path, "trace-header", _frame)


def write_truth(path, config: ScenarioConfig, truth) -> None:
    _write_records(path, config, "truth-header", (
        {
            "kind": "truth",
            "t": tick.t,
            "pitch": tick.pose.pitch,
            "yaw": tick.pose.yaw,
            "objects": [[o.id, o.cls, o.x, o.z, o.vx, o.vz, o.height] for o in tick.objects],
        }
        for tick in truth
    ))


def _truth_object(o) -> GroundTruthObject:
    oid, cls, x, z, vx, vz, height = o
    if cls not in VEHICLE_CLASSES:
        raise ValueError(f"object {o!r}: class must be one of {VEHICLE_CLASSES}")
    _check_numbers((x, z, vx, vz, height), "object")
    return GroundTruthObject(id=oid, cls=cls, x=x, z=z, vx=vx, vz=vz, height=height)


_OBJECT_CLASSES = frozenset(VEHICLE_CLASSES)
_OBJECT_NUMBERS = itemgetter(2, 3, 4, 5, 6)   # x, z, vx, vz, height


def _truth_objects(rows) -> tuple:
    """A record's objects, checked as _truth_object checks each one.

    One finite sum over the magnitudes of every object's numbers stands for
    the per-object sums: each of those is at most this one, so they are all
    finite when it is (a plain sum could cancel an overflow they report).
    Only when it fails, or a row or class is bad, are the objects checked
    one by one, for the first bad object's own error.
    """
    try:
        objects = tuple(map(GroundTruthObject._make, rows))
        numbers = chain.from_iterable(map(_OBJECT_NUMBERS, objects))
        if (_OBJECT_CLASSES.issuperset([o.cls for o in objects])
                and math.isfinite(sum(map(abs, numbers), 0.0))):
            return objects
    except (TypeError, ValueError, OverflowError):
        pass
    return tuple(map(_truth_object, rows))


def _truth_tick(raw: dict) -> GroundTruthTick:
    t, pose = _pose_record(raw)
    return GroundTruthTick(t, pose, _truth_objects(raw["objects"]))


def read_truth(path):
    return _read_records(path, "truth-header", _truth_tick)


def check_aligned(frames, truth, truth_path=None) -> None:
    """Raise ParseError at the first tick where trace and truth disagree,
    naming its line when the truth was read from `truth_path`."""
    n = min(len(frames), len(truth))
    k = next((k for k in range(n) if frames[k].t != truth[k].t), n)
    if k == len(frames) == len(truth):
        return
    trace_t = frames[k].t if k < len(frames) else None
    truth_t = truth[k].t if k < len(truth) else None
    where = ""
    if truth_path is not None:
        # record k sits on numbers[k + 1]; a missing record, one past the end
        numbers = [1, *(i for i, _ in _split_lines(truth_path)[1])]
        line = numbers[k + 1] if k + 1 < len(numbers) else numbers[-1] + 1
        where = f"{truth_path}: line {line}: "
    raise ParseError(f"{where}truth t={truth_t} but trace t={trace_t}; "
                     "trace and truth are not aligned on ticks")
