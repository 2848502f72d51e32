"""Synthetic rear-traffic world: trajectories, head motion, detector model,
and line-delimited trace files.

The generator produces exactly what the live system would see per tick:
an IMU pose and a list of detection boxes, alongside the ground truth
the evaluation harness scores against.  Detection boxes come from
geometry.image_boxes, the batch form of the forward model the tracker
projects through and inverts (geometry.pose_model's observe), with a
box's width, bearing and 0.5 m cutoff; the labels' sensing footprint
uses the same boxes and padded-frame test.

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
    collector_paused,
    is_finite_number,
    is_number,
    image_boxes,
    pose_terms,
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


def _detection_rule(cls: str, light: str, det: DetectorConfig, tick_rate: float):
    """The per-trial detection probability of a `cls` object as a function
    of its range, its class terms bound once; generate binds one per class
    for a scenario, detector_model one per call."""
    night_factor = det.night_factor if light == "night" else None
    spread = det.spread_m[cls]
    r0 = _calibrated_midpoint(det.first_detect_m[cls], spread, tick_rate)

    def probability(range_m: float) -> float:
        effective = range_m if night_factor is None else range_m / night_factor
        try:
            return 1.0 / (1.0 + math.exp((effective - r0) / spread))
        except OverflowError:   # some 700 spreads past the midpoint: 1 / (1 + inf)
            return 0.0

    return probability


def detector_model(range_m: float, cls: str, light: str, det: DetectorConfig,
                   tick_rate: float = 10.0) -> float:
    """Per-trial detection probability at the given range."""
    if range_m < 0:
        raise ValueError("range must be non-negative")
    return _detection_rule(cls, light, det, tick_rate)(range_m)


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
    detector.  Each object's box comes from geometry.image_boxes, which
    projects generate's frames, on the pose's terms bound once.
    """
    terms = pose_terms(pose, cam.intrinsics, cam.camera_height)
    half_fov = fov / 2

    def sensed(x: float, z: float, cls: str) -> bool:
        (box,) = image_boxes(terms, ((None, cls, x, z),), CLASS_DIMENSIONS)
        if box is None or abs(box[4]) > half_fov:
            return False
        return _in_padded_frame(cam, *box[:4])

    return sensed


# -------------------------------------------------------------- generation

def _velocity(v: VehicleConfig, speed: float, t: float) -> tuple:
    """A vehicle's world-frame velocity at time t at the given speed along
    its heading, plus a lane change's lateral term while it lasts."""
    vx = speed * math.sin(v.heading)
    vz = speed * math.cos(v.heading)
    if v.profile == "lane-change-at":
        t0, dur = v.params["at"], v.params["duration"]
        if t0 <= t < t0 + dur:
            shift = v.params["to_x"] - v.x0
            vx += shift * 0.5 * math.pi / dur * math.sin(math.pi * (t - t0) / dur)
    return vx, vz


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
    if len(views) < 2:
        return hidden
    # (range, index) pairs sort by range, and equal ranges in index order
    order = sorted([(r, i) for i, (r, b) in enumerate(views) if r == r and math.isfinite(b)])
    nearer, tied = [], []   # bearings passed; those at the current range
    last = None
    for r, i in order:
        b = views[i][1]
        if r != last:
            for other in tied:
                insort(nearer, other)
            tied, last = [], r
        j = bisect_left(nearer, b)
        hidden[i] = ((j < len(nearer) and abs(nearer[j] - b) < sector)
                     or (j > 0 and abs(nearer[j - 1] - b) < sector))
        tied.append(b)
    return hidden


@collector_paused()
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

    One pass per tick: a live vehicle is a row [x, z, vx, vz, closing,
    speed, config index, id, class, height] in the world frame, moved in
    place (x += vx * dt); only a decelerate-at or lane-change-at vehicle
    runs its velocity rule first.  closing is the relative vz - user
    speed, kept from spawn and recomputed only after that rule, and x
    moves only when its step is nonzero or x is a zero: x + +-0.0 is x
    bit for bit except -0.0 + 0.0, which is 0.0.  So a vehicle's truth
    objects share one x while it drives straight, one height, and one vx
    and closing while no velocity rule runs, rather than holding equal
    copies.  The pose's terms are bound once, and the frame's objects
    are projected by one geometry.image_boxes call.
    tests/reference_generator.py keeps the per-vehicle, per-object loop
    this replaced, as the reference whose records and bytes it equals.

    It runs with the cyclic collector paused (geometry.collector_paused):
    the records it builds hold no cycles.
    """
    rng = np.random.default_rng(config.seed)
    rate = config.tick_rate
    dt = 1.0 / rate
    n_ticks = tick_count(config.duration, rate)
    hm = config.resolved_head_motion()
    yaw_amp, yaw_period, pitch_amp, pitch_period = (hm.yaw_amplitude, hm.yaw_period,
                                                    hm.pitch_amplitude, hm.pitch_period)
    user_speed = config.user.resolved_speed()
    cam = config.camera
    intr, camera_height = cam.intrinsics, cam.camera_height
    det = config.detector
    half_fov, sector, box_noise = det.fov / 2, det.occlusion_sector, det.box_noise_px
    detection = {cls: _detection_rule(cls, config.light, det, rate)
                 for cls in {v.cls for v in config.vehicles}}
    tau, sin, hypot, jitter_std = 2 * math.pi, math.sin, math.hypot, hm.jitter_std

    yaw_phase = rng.uniform(0.0, 2.0 * math.pi)
    pitch_phase = rng.uniform(0.0, 2.0 * math.pi)

    # the vehicles yet to spawn, the next one last; only spawned ones are walked
    vehicles = config.vehicles
    queue = sorted(range(len(vehicles)), key=lambda i: (vehicles[i].spawn_time, i), reverse=True)
    next_spawn = vehicles[queue[-1]].spawn_time if queue else math.inf
    live = []       # rows, in config order
    profiled = []   # (row, config) of each live vehicle with a velocity rule
    next_object_id = 1

    frames = []
    truth = []
    z_user = 0.0
    new = tuple.__new__
    for k in range(n_ticks):
        t = k / rate
        if k > 0:
            z_user += user_speed * dt

        pitch = pitch_amp * sin(tau * t / pitch_period + pitch_phase)
        yaw = math.pi + yaw_amp * sin(tau * t / yaw_period + yaw_phase)
        jitter = rng.normal(0.0, jitter_std, 2).tolist()
        pose = ImuPose(pitch + jitter[0], yaw + jitter[1])   # which wraps the yaw to (-pi, pi]

        for row, v in profiled:
            if v.profile == "decelerate-at" and t >= v.params["at"]:
                row[5] = max(0.0, row[5] - v.params["rate"] * dt)
            row[2], row[3] = _velocity(v, row[5], t)
            row[4] = row[3] - user_speed
        for row in live:
            step = row[2] * dt
            if step or not row[0]:   # x + +-0.0 is x, but for -0.0 + 0.0
                row[0] += step
            row[1] += row[3] * dt
        if t >= next_spawn:
            born = []
            while queue and t >= vehicles[queue[-1]].spawn_time:
                born.append(queue.pop())
            next_spawn = vehicles[queue[-1]].spawn_time if queue else math.inf
            for i in sorted(born):
                v = vehicles[i]
                vx, vz = _velocity(v, v.speed, t)
                row = [v.x0, v.z0 + z_user, vx, vz, vz - user_speed, v.speed, i,
                       next_object_id, v.cls, CLASS_DIMENSIONS[v.cls][1]]
                live.append(row)
                if v.profile != "constant":
                    profiled.append((row, v))
                next_object_id += 1
            live.sort(key=itemgetter(6))

        # records built as tracking._refiltered builds a Track, without the
        # NamedTuple constructor
        objects = tuple([new(GroundTruthObject, (oid, cls, x, z - z_user, vx, closing, h))
                         for x, z, vx, _, closing, _, _, oid, cls, h in live])
        truth.append(new(GroundTruthTick, (t, pose, objects)))

        # geometric visibility first, then occlusion, then the detection trial
        visible, views = [], []
        terms = pose_terms(pose, intr, camera_height)
        for obj, box in zip(objects, image_boxes(terms, objects, CLASS_DIMENSIONS)):
            if box is None or abs(box[4]) > half_fov:
                continue
            visible.append((obj, box))
            views.append((hypot(obj[2], obj[3]), box[4]))
        detections = []
        for (obj, (u, v_bottom, w_px, h_px, _)), (range_m, _), hidden in zip(
                visible, views, _occluded(views, sector)):
            if hidden:
                continue
            cls = obj[1]
            p_det = detection[cls](range_m)
            if rng.random() >= p_det:
                continue
            if box_noise > 0:
                noise = rng.normal(0.0, box_noise, size=4).tolist()
                u, v_bottom = u + noise[0], v_bottom + noise[1]
                w_px = max(2.0, w_px + noise[2])
                h_px = max(2.0, h_px + noise[3])
            if not _in_padded_frame(cam, u, v_bottom, w_px, h_px):
                continue
            detections.append(BoundingBox2D(u - w_px / 2, v_bottom - h_px, w_px, h_px, cls, p_det))
        frames.append(new(Frame, (t, pose, tuple(detections))))

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


def _decode(line: str):
    """One line's JSON value.  A line that is not JSON is a ValueError
    naming the column; the caller names the file and the line.

    The decoder's own scanner reads the line from its first character;
    when that gives one value that ends at the line's end, it is what
    _DECODER.decode returns, without decode's whitespace and end checks.
    Any other line (leading or trailing whitespace, extra data, an error)
    is decoded again by _DECODER.decode, whose errors keep their text."""
    try:
        value, end = _DECODER.scan_once(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    try:
        return _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"column {exc.colno}: {exc.msg}") from exc


def _check_numbers(values, what: str, strict: bool = False) -> None:
    """Raise ValueError unless every value is a finite number.  One float sum
    per record costs far less than a check per field; a literal too large
    for a double decodes to inf and fails it, and so do values whose sum
    overflows, all near the float limit; an int too large for a double
    fails it too, as the sum cannot convert it.  A bool passes the sum, so
    a record whose line holds one is checked value by value (strict), with
    geometry.is_finite_number."""
    try:
        if all(map(is_finite_number, values)) if strict else math.isfinite(sum(values, 0.0)):
            return
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"non-finite number or non-number in {what} {list(values)!r}")


def _parse_header(path, line: str, expected_kind: str) -> TraceHeader:
    where = f"{path}: line 1"
    try:
        raw = _decode(line)
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


# the options every line is written with, as one decoder reads them
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line_encoder():
    """A function of a record that gives its line, as _ENCODER.encode
    does, with one C encoder for every record it is given: encode, like
    json.dumps, builds a new one per record.  The C encoder has
    _ENCODER's options and no cycle markers, since a record is built of
    fresh dicts, lists and tuples and holds no cycle.  Where json has no
    C encoder, the function is _ENCODER.encode."""
    make = json.encoder.c_make_encoder
    if make is None:
        return _ENCODER.encode
    enc = _ENCODER
    chunks = make(None, enc.default, json.encoder.encode_basestring_ascii, enc.indent,
                  enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys,
                  enc.allow_nan)
    join = "".join

    def encode(record) -> str:
        return join(chunks(record, 0))

    return encode


def _write_records(path, config: ScenarioConfig, header_kind: str, rows) -> None:
    """Header line, then one line per record dict, each ended by a
    newline: encoded by one _line_encoder, then written in one write."""
    encode = _line_encoder()
    lines = [encode(_header_record(config, header_kind))]
    lines.extend(map(encode, rows))
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


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


@collector_paused()
def _read_records(path, header_kind: str, build):
    """Header plus one record per line, each checked where it enters:
    finite numbers, valid boxes and poses, strictly increasing t.
    build(raw, strict) makes a record of a line's JSON value; a line
    that may hold a JSON true or false is built strict, with the number
    check that refuses a bool (_check_numbers), and a string that holds
    the word costs only that slower check.  It runs with the cyclic
    collector paused, as generate does."""
    header_line, body = _split_lines(path)
    header = _parse_header(path, header_line, header_kind)
    records = []
    for i, line in body:
        try:
            rec = build(_decode(line), "true" in line or "false" in line)
            if records and not rec.t > records[-1].t:
                raise ValueError(f"t={rec.t} does not increase")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"{path}: line {i}: {exc}") from exc
        records.append(rec)
    return header, records


def _box(d, strict: bool) -> BoundingBox2D:
    x, y, w, h, cls, score = d
    if cls not in VEHICLE_CLASSES:
        raise ValueError(f"box {d!r}: class must be one of {VEHICLE_CLASSES}")
    _check_numbers((x, y, w, h, score), "box", strict)
    return BoundingBox2D(x, y, w, h, cls, score)


def _pose_record(raw: dict, kind: str, list_field: str, strict: bool) -> tuple:
    """A record's t, pose and `list_field`, shared by trace frames and
    truth ticks.  The record's kind must be the file's record kind, and
    its list field a JSON array: iterating an empty object or string
    would read as no detections or no objects."""
    t, pitch, yaw = raw["t"], raw["pitch"], raw["yaw"]
    if raw.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, got {raw.get('kind')!r}")
    rows = raw[list_field]
    if type(rows) is not list:
        raise ValueError(f"{list_field} must be an array, got {rows!r}")
    _check_numbers((t, pitch, yaw), "t, pitch, yaw", strict)
    return t, ImuPose(pitch, yaw), rows


_new = tuple.__new__   # records built as generate builds them


def _frame(raw: dict, strict: bool) -> Frame:
    t, pose, boxes = _pose_record(raw, "frame", "detections", strict)
    return _new(Frame, (t, pose, tuple([_box(d, strict) for d in boxes])))


def read_trace(path):
    return _read_records(path, "trace-header", _frame)


def write_truth(path, config: ScenarioConfig, truth) -> None:
    _write_records(path, config, "truth-header", (
        {
            "kind": "truth",
            "t": tick.t,
            "pitch": tick.pose.pitch,
            "yaw": tick.pose.yaw,
            # a GroundTruthObject is a tuple, which the encoder writes as an array
            "objects": tick.objects,
        }
        for tick in truth
    ))


def _truth_object(o, strict: bool = False) -> GroundTruthObject:
    oid, cls, x, z, vx, vz, height = o
    if isinstance(oid, bool) or not isinstance(oid, int) or oid < 0:
        raise ValueError(f"object {o!r}: id must be a non-negative integer")
    if cls not in VEHICLE_CLASSES:
        raise ValueError(f"object {o!r}: class must be one of {VEHICLE_CLASSES}")
    _check_numbers((x, z, vx, vz, height), "object", strict)
    return GroundTruthObject(id=oid, cls=cls, x=x, z=z, vx=vx, vz=vz, height=height)


_OBJECT_CLASSES = frozenset(VEHICLE_CLASSES)


def _truth_objects(rows, strict: bool) -> tuple:
    """A record's objects, checked as _truth_object checks each one.

    The objects are taken apart into one tuple per field.  math.isqrt
    over the ids raises for an id that is negative or not an int; a bool
    is an int to it, but a line that may hold one is read strict (see
    _read_records).  One finite sum over the magnitudes of every
    object's numbers stands for the per-object sums: each of those is at
    most this one, so they are all finite when it is (a plain sum could
    cancel an overflow they report).  Only when a check fails, or a row
    or class is bad, are the objects checked one by one, for the first
    bad object's own error; a strict check takes them one by one from
    the start.
    """
    if strict:
        return tuple([_truth_object(o, strict) for o in rows])
    try:
        objects = tuple(map(GroundTruthObject._make, rows))
        if not objects:
            return objects
        ids, classes, *numbers = zip(*objects)   # one tuple per field
        sum(map(math.isqrt, ids))   # raises for an id that is negative or not an int
        if (_OBJECT_CLASSES.issuperset(classes)
                and math.isfinite(sum(map(abs, chain.from_iterable(numbers)), 0.0))):
            return objects
    except (TypeError, ValueError, OverflowError):
        pass
    return tuple(map(_truth_object, rows))


def _truth_tick(raw: dict, strict: bool) -> GroundTruthTick:
    t, pose, rows = _pose_record(raw, "truth", "objects", strict)
    return _new(GroundTruthTick, (t, pose, _truth_objects(rows, strict)))


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
