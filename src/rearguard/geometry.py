"""Camera geometry: the one pose model, forward (a user-frame object to
its observation triple) and inverse (a detection box to a user-frame
point, its height and its depth), used by the generator, the labels and
the tracker.

Conventions used throughout the package
---------------------------------------
Image: pixel column u grows to the right, pixel row v grows downward.
The horizon row for a head pitch ``theta_p`` is

    y_h = c_y - f_y * tan(theta_p)

so positive pitch moves the horizon up in the image.  A ground-contact
pixel of an object sits ``dy = v_bottom - y_h`` rows below the horizon,
and its depth along the camera's forward axis is

    depth = f_y * camera_height / dy

which is what makes depth estimation insensitive to head pitch: the
horizon shift and the contact-pixel shift cancel.

User frame: x to the user's right, z forward, planar (the vertical
coordinate is carried but not tracked).  The camera yaw ``theta_y`` is the
rotation of the camera frame relative to the user frame about the
vertical axis; a rear-facing camera has yaw close to pi.  Camera-frame
coordinates (n, d) of a user-frame point (x, z) are

    n = x * cos(theta_y) + z * sin(theta_y)     (lateral)
    d = -x * sin(theta_y) + z * cos(theta_y)    (forward, must be > 0)

The forward observation of an object at (x, z) with height h is the
triple used by the EKF measurement model:

    u_offset          = f_x * (n / d) * cos(theta_p)   pixels from c_x
    pixel_height      = f_y * h   / d                  pixels
    horizon_deviation = f_y * h_e / d                  pixels below y_h

The third component is exactly the ``dy`` that the inverse reads as
depth, so projection and depth estimation agree by construction.  The
inverse takes the box's bottom-centre column as n = (u - c_x) * d / f_x,
without the forward model's cos(theta_p).

This model has one home, ``pose_model``, which binds a pose once and
returns three functions and the horizon row: ``observe`` and
``jacobian`` of a user-frame object, ``locate`` of a detection box, and
``y_h``.  Callers bind the model once for the frame's pose and call
these directly, one object or many; ``pose_model`` is the only caller
of ``horizon_line``.

Every module imports this one and it imports no other, so it also holds
what they all use to refuse input: the number tests, the error types and
the config checks ``require`` and ``require_finite`` (``field: reason``),
and ``read_lines``, the one rule by which trace, truth and Q-table files
are decoded.  ``collector_paused`` is the one way a bulk record builder
runs without Python's cyclic collector.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Real

# Depth beyond this is reported as the clamp value rather than trusted;
# a 1 px horizon deviation at f_y=600, h_e=1.5 would already mean 900 m.
DEFAULT_MAX_DEPTH_M = 100.0
DEFAULT_MIN_DY_PX = 1.0

# No camera image is 10,000 px wide (an 8K frame is 7,680), so a pixel
# length or error beyond this describes no view of the scene.
MAX_PIXELS = 1.0e4

# A focal length beyond this views less than MAX_PIXELS / MAX_FOCAL_PX =
# 0.1 rad across the widest image: a telephoto lens, not a camera that
# watches the road behind its wearer.
MAX_FOCAL_PX = 1.0e5


class BehindCamera(ValueError):
    """Point has non-positive forward coordinate in the camera frame."""


class InvalidConfig(ValueError):
    """Config rejected; the message reads `<dotted path>: <reason>`."""


class ParseError(ValueError):
    """Input file unreadable or invalid; the message carries the line number."""


class VersionMismatch(ValueError):
    """Input file written in a format version this one does not read."""


def read_lines(path) -> list:
    """The lines of a text file, decoded from UTF-8 once and split as
    str.splitlines splits them.  A file that is not UTF-8 is a
    ParseError naming the path and the line of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count the line breaks among them
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}: line {line}: not UTF-8: {exc.reason} "
                         f"(byte 0x{data[exc.start]:02x})") from exc


@contextmanager
def collector_paused():
    """Run a block, or a function it decorates, with Python's cyclic
    collector paused, and leave the collector as the caller had it, on
    return and on a raised error: paused if the caller had paused it.

    For the bulk record builders (scenario.generate and the trace and
    truth reader), whose records hold no reference cycles: the collector
    would only rescan them as they pile up, and finds nothing to free.
    Reference counting still frees every record that is dropped.  The
    switch is process-wide, so other threads run unpaused only once the
    block is done.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def is_number(value) -> bool:
    """A real number; a bool is not one, though Python (and so YAML's
    true and false) counts it an int.  A plain float or int, the common
    case, is answered before the slower abstract-class check."""
    kind = type(value)
    if kind is float or kind is int:
        return True
    return isinstance(value, Real) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite real number; an int too large for a double is not one."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def require(cond: bool, fieldname: str, message: str) -> None:
    """The one way to refuse a config value: InvalidConfig `fieldname: message`."""
    if not cond:
        raise InvalidConfig(f"{fieldname}: {message}")


def require_finite(obj, *names) -> None:
    """Each named field of obj is a finite number; checked before its range,
    so a value of the wrong type built from Python is named too."""
    for name in names:
        value = getattr(obj, name)
        require(is_finite_number(value), name, f"must be a finite number, got {value!r}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels.  The focal lengths are at most
    MAX_FOCAL_PX, and the principal point lies within MAX_PIXELS of the
    image origin on each axis: one farther out is off every image."""

    f_x: float
    f_y: float
    c_x: float
    c_y: float

    def __post_init__(self):
        require_finite(self, "f_x", "f_y", "c_x", "c_y")
        for name in ("f_x", "f_y"):
            f = getattr(self, name)
            require(f > 0, name, "must be positive")
            require(f <= MAX_FOCAL_PX, name, f"must be at most {MAX_FOCAL_PX:g} px, got {f!r}")
        for name in ("c_x", "c_y"):
            c = getattr(self, name)
            require(abs(c) <= MAX_PIXELS, name,
                    f"must be within {MAX_PIXELS:g} px of the image origin, got {c!r}")


# Slotted, as the box below: one is built per tick and per record, and a
# slotted one has no values array beside it, so it is 40-48 bytes smaller.
@dataclass(frozen=True, slots=True)
class ImuPose:
    """Head orientation at a blink: pitch and yaw in radians.

    Pitch must lie in (-pi/2, pi/2); yaw is normalized to (-pi, pi].
    """

    pitch: float
    yaw: float

    def __post_init__(self):
        if not -math.pi / 2 < self.pitch < math.pi / 2:
            raise ValueError("pitch out of range (-pi/2, pi/2)")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


@dataclass(frozen=True, slots=True)
class BoundingBox2D:
    """Axis-aligned detector box: top-left corner, size, class and score."""

    x: float
    y: float
    w: float
    h: float
    cls: str = "car"
    score: float = 1.0

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError("box width and height must be positive")

    @property
    def bottom_center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h)


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


def horizon_line(intr: CameraIntrinsics, pitch: float) -> float:
    """Image row of the horizon for the given head pitch.

    May fall outside the image; that is fine, depth only cares about the
    offset of the contact pixel from this row.
    """
    return intr.c_y - intr.f_y * math.tan(pitch)


def pose_model(pose: ImuPose, intr: CameraIntrinsics, camera_height: float):
    """The camera model for one pose, its trigonometry done once, as the
    three functions and the horizon row (observe, jacobian, locate, y_h).

    ``observe(x, z, obj_height)`` gives a user-frame object's camera-frame
    ``n, d`` and its observation triple, five Python floats, or None when
    ``d <= 0``.  ``jacobian(x, z, obj_height)`` gives the triple's 3x4
    Jacobian w.r.t. [x, z, vx, vz] as 12 floats, row by row (zero in the
    velocity columns), and raises BehindCamera when ``d <= 0``.
    ``locate(box)`` gives the user-frame ``x, z`` of a box's bottom centre,
    the object height and the depth, four Python floats, or None when the
    contact row is ``DEFAULT_MIN_DY_PX`` or less below the horizon; depth
    is clamped to ``DEFAULT_MAX_DEPTH_M``.  ``y_h`` is ``horizon_line`` for
    the pose's pitch, the row that ``observe``'s horizon deviation and
    ``locate``'s contact row are measured from.  A plain tuple: binding
    runs once per frame on every path, and a named tuple would double its
    cost.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    cos_pitch = math.cos(pose.pitch)
    f_x, f_y, c_x = intr.f_x, intr.f_y, intr.c_x
    contact = f_y * camera_height
    y_h = horizon_line(intr, pose.pitch)

    def observe(x: float, z: float, obj_height: float):
        n, d = c * x + s * z, -s * x + c * z
        if d <= 0:
            return None
        return n, d, f_x * (n / d) * cos_pitch, f_y * obj_height / d, contact / d

    def jacobian(x: float, z: float, obj_height: float) -> tuple:
        n, d = c * x + s * z, -s * x + c * z
        if d <= 0:
            raise BehindCamera("jacobian undefined behind the camera")
        d2 = d * d
        return (f_x * cos_pitch * (c * d + s * n) / d2,
                f_x * cos_pitch * (s * d - c * n) / d2, 0.0, 0.0,
                f_y * obj_height * s / d2, -f_y * obj_height * c / d2, 0.0, 0.0,
                contact * s / d2, -contact * c / d2, 0.0, 0.0)

    def locate(box: BoundingBox2D):
        dy = box.y + box.h - y_h
        if dy <= DEFAULT_MIN_DY_PX:
            return None
        depth = min(contact / dy, DEFAULT_MAX_DEPTH_M)
        n = (box.x + box.w / 2.0 - c_x) * depth / f_x
        return c * n - s * depth, s * n + c * depth, box.h * depth / f_y, depth

    return observe, jacobian, locate, y_h

