"""Radial time-to-collision and alerting.

TTC of an object at user-frame (x, z) with velocity (vx, vz) is the time
for its range to reach zero assuming the current radial closing rate:

    ttc = -(x^2 + z^2) / (x*vx + z*vz)

Positive while approaching, negative while receding.  Pure tangential
motion has no radial closing rate; ttc() then returns None.  The risk
level maps ttc against a reaction-time budget t_r:

    kappa = max(0, 1 - ttc / t_r)        for ttc >= 0
    kappa = 0                            receding or not approaching

The overall level is the max over tracked objects and an alert fires
when it reaches the configured threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .geometry import InvalidConfig, is_finite_number, require, require_finite

RADIAL_EPS = 1e-9

DEFAULT_REACTION_TIME_S = 3.3
MAX_REACTION_TIME_S = 60.0
DEFAULT_ALERT_THRESHOLD = 0.01


@dataclass(frozen=True)
class RiskConfig:
    """The rule's terms: the reaction-time budget t_r (s) and the alert level."""
    reaction_time: float = DEFAULT_REACTION_TIME_S
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD

    def __post_init__(self):
        check_reaction_time(self.reaction_time)
        require_finite(self, "alert_threshold")
        # kappa lies in [0, 1]: a threshold of 0 or less alerts on every tick,
        # one above 1 never
        require(0 < self.alert_threshold <= 1, "alert_threshold",
                f"must be in (0, 1], got {self.alert_threshold!r}")


def check_reaction_time(t_r) -> None:
    """The one reaction-time rule, for a config and for every function that
    takes t_r: a positive finite number, at most MAX_REACTION_TIME_S.  A
    one-minute budget is beyond any road user's reaction plus braking, and
    past it the rule alerts on nearly every approaching object.  Per tick in
    assess, so the message is built only on failure, not eagerly as a
    require call would."""
    if not (is_finite_number(t_r) and t_r > 0):
        raise InvalidConfig(f"reaction_time: must be a positive finite number, got {t_r!r}")
    if t_r > MAX_REACTION_TIME_S:
        raise InvalidConfig(f"reaction_time: must be at most {MAX_REACTION_TIME_S:g} s, "
                            f"got {t_r!r}")


class DegeneratePosition(ValueError):
    """TTC is undefined for an object exactly at the origin."""


def ttc(x: float, z: float, vx: float, vz: float) -> float | None:
    """Radial time to collision in seconds; None when not approaching."""
    r2 = x * x + z * z
    if r2 == 0.0:
        raise DegeneratePosition("object at the user origin")
    radial = x * vx + z * vz
    if abs(radial) < RADIAL_EPS:
        return None
    return -r2 / radial


def _level(ttc_value: float | None, t_r: float) -> float:
    if ttc_value is None or ttc_value < 0:
        return 0.0
    return max(0.0, 1.0 - ttc_value / t_r)


def risk_level(ttc_value: float | None, t_r: float = DEFAULT_REACTION_TIME_S) -> float:
    """Map a TTC to [0, 1]; receding and non-approaching objects score 0."""
    check_reaction_time(t_r)
    return _level(ttc_value, t_r)


class ObjectRisk(NamedTuple):
    track_id: int
    ttc: float | None
    kappa: float


class RiskAssessment(NamedTuple):
    timestamp: float
    per_object: tuple = ()   # of ObjectRisk
    gamma_overall: float = 0.0
    alert: bool = False


def object_risk(obj, t_r: float) -> ObjectRisk:
    """One object's TTC and level, for a t_r the caller has checked.

    An object sitting exactly on the user is treated as maximal risk
    rather than an error; the degenerate position only occurs on
    estimated states passing through the origin.
    """
    try:
        t = ttc(obj.x, obj.z, obj.vx, obj.vz)
    except DegeneratePosition:
        return ObjectRisk(obj.id, None, 1.0)
    return ObjectRisk(obj.id, t, _level(t, t_r))


def assess(
    tracks,
    t_r: float = DEFAULT_REACTION_TIME_S,
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD,
    now: float = 0.0,
) -> RiskAssessment:
    """Score every track as object_risk does and fold into the overall
    alert decision.

    One pass over the tracks: ttc and the level inline, with object_risk's
    operations in its order, each ObjectRisk built positionally, and the
    overall level the running maximum (a kappa is never NaN or -0.0, so
    this is max over the kappas, 0.0 for no track)."""
    check_reaction_time(t_r)
    per, gamma, new = [], 0.0, tuple.__new__
    for obj in tracks:
        x, z = obj.x, obj.z
        r2 = x * x + z * z
        if r2 == 0.0:
            t, kappa = None, 1.0   # on the user: maximal risk, as object_risk rules
        else:
            radial = x * obj.vx + z * obj.vz
            if abs(radial) < RADIAL_EPS:
                t, kappa = None, 0.0
            else:
                t = -r2 / radial
                if t < 0:
                    kappa = 0.0
                else:
                    kappa = 1.0 - t / t_r
                    if not kappa > 0.0:   # max(0.0, kappa)
                        kappa = 0.0
        per.append(new(ObjectRisk, (obj.id, t, kappa)))
        if kappa > gamma:
            gamma = kappa
    return new(RiskAssessment, (now, tuple(per), gamma, gamma >= alert_threshold))
