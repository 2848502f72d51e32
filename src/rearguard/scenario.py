"""Synthetic rear-traffic world: trajectories, head motion, detector model,
and line-delimited trace files.

The generator produces exactly what the live system would see per tick:
an IMU pose and a list of detection boxes, alongside the ground truth
the evaluation harness scores against.  Detection boxes are built with
the same forward model the tracker inverts (contact row offset from the
horizon), so a noise-free trace round-trips through depth estimation to
the true range.

Everything is driven by one seeded generator in a fixed order, so a
given config produces byte-identical traces every time.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import typing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    ImuPose,
    horizon_line,
    normalize_angle,
    user_to_camera_planar,
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

DEFAULT_USER_SPEED = {"standing": 0.0, "walking": 1.4, "jogging": 2.6}

# yaw amplitude, yaw period, pitch amplitude, pitch period, jitter std
DEFAULT_HEAD_MOTION = {
    "standing": (0.05, 6.0, 0.02, 5.0, 0.002),
    "walking": (0.10, 4.0, 0.04, 3.5, 0.004),
    "jogging": (0.15, 2.5, 0.06, 2.0, 0.008),
}


class InvalidConfig(ValueError):
    """Config rejected; the message names the offending field by its dotted path."""


class ParseError(ValueError):
    """Input file unreadable or invalid; the message carries the line number."""


class VersionMismatch(ValueError):
    pass


# ------------------------------------------------------------------ config

@dataclass(frozen=True)
class CameraConfig:
    intrinsics: CameraIntrinsics = CameraIntrinsics(600.0, 600.0, 320.0, 320.0)
    image_size: tuple = (640, 640)
    camera_height: float = 1.55
    margin_px: float = 80.0


@dataclass(frozen=True)
class UserConfig:
    mode: str = "walking"
    speed: float | None = None     # default depends on mode
    height: float = 1.75

    def resolved_speed(self) -> float:
        return DEFAULT_USER_SPEED[self.mode] if self.speed is None else self.speed


@dataclass(frozen=True)
class HeadMotionConfig:
    yaw_amplitude: float
    yaw_period: float
    pitch_amplitude: float
    pitch_period: float
    jitter_std: float

    @classmethod
    def for_mode(cls, mode: str) -> "HeadMotionConfig":
        return cls(*DEFAULT_HEAD_MOTION[mode])


@dataclass(frozen=True)
class VehicleConfig:
    cls: str
    spawn_time: float
    x0: float           # user-frame lateral offset at spawn
    z0: float           # user-frame forward offset at spawn (behind is negative)
    speed: float        # world speed along its heading
    heading: float = 0.0   # world heading, 0 points along +z (user's forward)
    profile: str = "constant"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DetectorConfig:
    fov: float = DEFAULT_FOV                # full angle, radians
    box_noise_px: float = 1.5
    first_detect_m: dict = field(default_factory=lambda: {"car": 12.0, "cycle": 6.0})
    spread_m: dict = field(default_factory=lambda: {"car": 1.2, "cycle": 0.8})
    night_factor: float = 0.6               # < 1 shrinks effective visibility
    occlusion_sector: float = math.radians(3.0)


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

    def resolved_head_motion(self) -> HeadMotionConfig:
        return self.head_motion or HeadMotionConfig.for_mode(self.user.mode)


@dataclass(frozen=True)
class Frame:
    t: float
    pose: ImuPose
    detections: tuple


@dataclass(frozen=True)
class GroundTruthObject:
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


@dataclass(frozen=True)
class GroundTruthTick:
    t: float
    pose: ImuPose
    objects: tuple


def _require(cond: bool, fieldname: str, message: str):
    if not cond:
        raise InvalidConfig(f"{fieldname}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


def _positive(value) -> bool:
    return _is_number(value) and value > 0


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    _require(isinstance(cfg.seed, int) and cfg.seed >= 0, "seed", "must be a non-negative integer")
    _require(cfg.duration > 0, "duration", "must be positive")
    _require(cfg.tick_rate > 0, "tick_rate", "must be positive")
    _require(cfg.user.mode in USER_MODES, "user.mode", f"must be one of {USER_MODES}")
    _require(cfg.user.resolved_speed() >= 0, "user.speed", "must be non-negative")
    _require(cfg.road in ROAD_TYPES, "road", f"must be one of {ROAD_TYPES}")
    _require(cfg.light in LIGHT_CONDITIONS, "light", f"must be one of {LIGHT_CONDITIONS}")
    det = cfg.detector
    _require(0 < det.fov < math.pi, "detector.fov", "must be in (0, pi)")
    _require(0 < det.night_factor <= 1, "detector.night_factor", "must be in (0, 1]")
    _require(det.box_noise_px >= 0, "detector.box_noise_px", "must be non-negative")
    for cls in VEHICLE_CLASSES:
        # the calibration approach starts at REF_APPROACH_START
        median = det.first_detect_m.get(cls)
        _require(_positive(median) and median <= REF_APPROACH_START,
                 f"detector.first_detect_m.{cls}", f"must be in (0, {REF_APPROACH_START:g}]")
        _require(_positive(det.spread_m.get(cls)), f"detector.spread_m.{cls}", "must be positive")
    hm = cfg.resolved_head_motion()
    _require(hm.yaw_period > 0, "head_motion.yaw_period", "must be positive")
    _require(hm.pitch_period > 0, "head_motion.pitch_period", "must be positive")
    _require(hm.jitter_std >= 0, "head_motion.jitter_std", "must be non-negative")
    _require(abs(hm.pitch_amplitude) + 6 * hm.jitter_std < math.pi / 2, "head_motion.pitch_amplitude",
             "plus 6 jitter_std must stay below pi/2, the pitch limit")
    _require(cfg.camera.camera_height > 0, "camera.camera_height", "must be positive")
    _require(len(cfg.camera.image_size) == 2 and all(map(_positive, cfg.camera.image_size)),
             "camera.image_size", "must be two positive numbers")
    for i, v in enumerate(cfg.vehicles):
        tag = f"vehicles[{i}]"
        _require(v.cls in VEHICLE_CLASSES, f"{tag}.cls", f"must be one of {VEHICLE_CLASSES}")
        _require(0 <= v.spawn_time < cfg.duration, f"{tag}.spawn_time", "must lie within the scenario duration")
        _require(v.speed >= 0, f"{tag}.speed", "must be non-negative")
        _require(v.profile in VEHICLE_PROFILES, f"{tag}.profile", f"must be one of {VEHICLE_PROFILES}")
        for name in PROFILE_PARAMS.get(v.profile, ()):
            value = v.params.get(name)
            _require(_is_number(value), f"{tag}.params.{name}",
                     f"a number is required for {v.profile}")
            if name == PROFILE_PARAMS[v.profile][-1]:
                _require(value > 0, f"{tag}.params.{name}", "must be positive")
    return cfg


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
        hint = next(t for t in args if t is not type(None)) if nullable else hints[f.name]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        schema[f.name] = (hint, nullable, required)
    return schema


def build_config(cls, raw, label: str):
    """Build config dataclass `cls` from YAML data, led by its type hints:
    nested config dataclasses and tuples of them are built recursively,
    other lists become tuples, and an empty or null nested block means the
    field's default.  Unknown and missing keys are named by dotted path
    (`vehicles[1].foo`); constructor errors are re-raised naming the block."""
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
        raise InvalidConfig(f"{label or 'config'}: {exc}") from exc


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
    expected = typing.get_origin(hint) or hint
    if not isinstance(value, (int, float) if expected is float else expected):
        raise InvalidConfig(f"{label}: expected {expected.__name__}, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from plain dict/YAML data."""
    return validate_config(build_config(ScenarioConfig, raw, ""))


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
    return 1.0 / (1.0 + math.exp((effective - r0) / det.spread_m[cls]))


class _CleanBox(NamedTuple):
    u: float          # box centre column
    v_bottom: float   # ground-contact row
    w_px: float
    h_px: float
    d: float          # camera-forward depth
    bearing: float


def _project_clean_box(x: float, z: float, cls: str, pose: ImuPose,
                       cam: CameraConfig) -> _CleanBox | None:
    """Noise-free image box for an object at user coordinates (x, z).

    None when the object is at or behind the camera plane (closer than
    half a metre counts as behind; a box that close is degenerate).
    """
    n, d = user_to_camera_planar(x, z, pose.yaw)
    if d <= 0.5:
        return None
    intr = cam.intrinsics
    w_obj, h_obj = CLASS_DIMENSIONS[cls]
    u = intr.c_x + intr.f_x * (n / d) * math.cos(pose.pitch)
    v_bottom = horizon_line(intr, pose.pitch) + intr.f_y * cam.camera_height / d
    h_px = intr.f_y * h_obj / d
    w_px = intr.f_x * w_obj / d
    return _CleanBox(u, v_bottom, w_px, h_px, d, math.atan2(n, d))


def in_sensing_footprint(x: float, z: float, cls: str, pose: ImuPose,
                         cam: CameraConfig, fov: float = DEFAULT_FOV) -> bool:
    """Whether an object could in principle appear in a frame taken now.

    Applies the deterministic gates only (behind the camera plane, view
    cone, padded image bounds), not the detection trial or occlusion.
    Objects closer than the image bottom allows have a ground contact
    below the frame and are invisible to this sensor regardless of the
    detector.
    """
    proj = _project_clean_box(x, z, cls, pose, cam)
    if proj is None or abs(proj.bearing) > fov / 2:
        return False
    img_w, img_h = cam.image_size
    margin = cam.margin_px
    if not (-margin <= proj.u - proj.w_px / 2 and proj.u + proj.w_px / 2 <= img_w + margin):
        return False
    if not (-margin <= proj.v_bottom - proj.h_px and proj.v_bottom <= img_h + margin):
        return False
    return True


# -------------------------------------------------------------- generation

class _VehicleSim:
    """Per-vehicle world-frame kinematics, stepped tick by tick."""

    def __init__(self, cfg: VehicleConfig, z_user_at_spawn: float, spawn_t: float):
        self.cfg = cfg
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
        if p.profile == "decelerate-at" and t >= p.params["at"]:
            self.speed = max(0.0, self.speed - p.params["rate"] * dt)
        self.vx, self.vz = self._velocity(t)
        self.x += self.vx * dt
        self.z += self.vz * dt


def generate(config: ScenarioConfig):
    """Produce (frames, truth) for a validated scenario config."""
    validate_config(config)
    rng = np.random.default_rng(config.seed)
    dt = 1.0 / config.tick_rate
    n_ticks = int(round(config.duration * config.tick_rate))
    hm = config.resolved_head_motion()
    user_speed = config.user.resolved_speed()
    cam = config.camera
    intr = cam.intrinsics
    img_w, img_h = cam.image_size
    margin = cam.margin_px

    yaw_phase = rng.uniform(0.0, 2.0 * math.pi)
    pitch_phase = rng.uniform(0.0, 2.0 * math.pi)

    sims = [None] * len(config.vehicles)
    next_object_id = 1
    object_ids = [None] * len(config.vehicles)

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
        pose = ImuPose(pitch=pitch, yaw=normalize_angle(yaw))

        objects = []
        for i, vcfg in enumerate(config.vehicles):
            if t < vcfg.spawn_time:
                continue
            if sims[i] is None:
                sims[i] = _VehicleSim(vcfg, z_user, t)
                object_ids[i] = next_object_id
                next_object_id += 1
            elif k > 0:
                sims[i].step(t, dt)
            sim = sims[i]
            objects.append(
                GroundTruthObject(
                    id=object_ids[i],
                    cls=vcfg.cls,
                    x=sim.x,
                    z=sim.z - z_user,
                    vx=sim.vx,
                    vz=sim.vz - user_speed,
                    height=CLASS_DIMENSIONS[vcfg.cls][1],
                )
            )
        truth.append(GroundTruthTick(t=t, pose=pose, objects=tuple(objects)))

        # geometric visibility first, then the detection trial
        visible = []
        for obj in objects:
            proj = _project_clean_box(obj.x, obj.z, obj.cls, pose, cam)
            if proj is None:
                continue
            if abs(proj.bearing) > config.detector.fov / 2:
                continue
            visible.append((obj, proj))
        detections = []
        for obj, proj in visible:
            occluded = any(
                other.range < obj.range
                and abs(other_proj.bearing - proj.bearing) < config.detector.occlusion_sector
                for other, other_proj in visible
                if other.id != obj.id
            )
            if occluded:
                continue
            p_det = detector_model(obj.range, obj.cls, config.light, config.detector, config.tick_rate)
            if rng.random() >= p_det:
                continue
            u, v_bottom = proj.u, proj.v_bottom
            w_px, h_px = proj.w_px, proj.h_px
            if config.detector.box_noise_px > 0:
                noise = rng.normal(0.0, config.detector.box_noise_px, size=4)
                u, v_bottom = u + noise[0], v_bottom + noise[1]
                w_px = max(2.0, w_px + noise[2])
                h_px = max(2.0, h_px + noise[3])
            if not (-margin <= u - w_px / 2 and u + w_px / 2 <= img_w + margin):
                continue
            if not (-margin <= v_bottom - h_px and v_bottom <= img_h + margin):
                continue
            detections.append(
                BoundingBox2D(
                    x=u - w_px / 2, y=v_bottom - h_px, w=w_px, h=h_px,
                    cls=obj.cls, score=p_det,
                )
            )
        frames.append(Frame(t=t, pose=pose, detections=tuple(detections)))

    log.info("generated %d ticks, %d vehicles", n_ticks, len(config.vehicles))
    return frames, truth


# ---------------------------------------------------------------- trace IO

@dataclass(frozen=True)
class TraceHeader:
    intrinsics: CameraIntrinsics
    image_size: tuple
    camera_height: float
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
    overflows, all near the float limit."""
    try:
        if math.isfinite(sum(values, 0.0)):
            return
    except TypeError:
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
    try:
        header = TraceHeader(
            intrinsics=CameraIntrinsics(**intr),
            image_size=tuple(raw.get("image_size", (640, 640))),
            camera_height=raw["camera_height"],
            tick_rate=raw["tick_rate"],
            seed=raw["seed"],
            duration=raw["duration"],
        )
        _check_numbers((*dataclasses.astuple(header.intrinsics), header.camera_height,
                        header.tick_rate, header.duration, *header.image_size), "header")
        if not (header.camera_height > 0 and len(header.image_size) == 2
                and min(header.image_size) > 0):
            raise ValueError("camera_height and image_size must be positive")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return header


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_trace(path, config: ScenarioConfig, frames) -> None:
    with open(path, "w") as fh:
        fh.write(_dump(_header_record(config, "trace-header")) + "\n")
        for f in frames:
            fh.write(
                _dump(
                    {
                        "kind": "frame",
                        "t": f.t,
                        "pitch": f.pose.pitch,
                        "yaw": f.pose.yaw,
                        "detections": [
                            [d.x, d.y, d.w, d.h, d.cls, d.score] for d in f.detections
                        ],
                    }
                )
                + "\n"
            )


def _split_lines(path):
    """A trace or truth file as its header line and its (line number, line)
    records; blank lines are skipped."""
    with open(path) as fh:
        lines = fh.read().splitlines()
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
    return Frame(t=t, pose=pose, detections=tuple(map(_box, raw["detections"])))


def read_trace(path):
    return _read_records(path, "trace-header", _frame)


def write_truth(path, config: ScenarioConfig, truth) -> None:
    with open(path, "w") as fh:
        fh.write(_dump(_header_record(config, "truth-header")) + "\n")
        for tick in truth:
            fh.write(
                _dump(
                    {
                        "kind": "truth",
                        "t": tick.t,
                        "pitch": tick.pose.pitch,
                        "yaw": tick.pose.yaw,
                        "objects": [
                            [o.id, o.cls, o.x, o.z, o.vx, o.vz, o.height]
                            for o in tick.objects
                        ],
                    }
                )
                + "\n"
            )


def _truth_object(o) -> GroundTruthObject:
    oid, cls, x, z, vx, vz, height = o
    if cls not in VEHICLE_CLASSES:
        raise ValueError(f"object {o!r}: class must be one of {VEHICLE_CLASSES}")
    _check_numbers((x, z, vx, vz, height), "object")
    return GroundTruthObject(id=oid, cls=cls, x=x, z=z, vx=vx, vz=vz, height=height)


def _truth_tick(raw: dict) -> GroundTruthTick:
    t, pose = _pose_record(raw)
    return GroundTruthTick(t=t, pose=pose, objects=tuple(map(_truth_object, raw["objects"])))


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
