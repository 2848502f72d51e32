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


def ttc_level(x: float, z: float, vx: float, vz: float, t_r: float) -> tuple:
    """The rule for one object: its radial TTC and its level, (ttc, kappa),
    for a t_r the caller has checked.  The one copy of the rule: assess,
    object_risk, ttc and the truth labels all read it.

    An object sitting exactly on the user is maximal risk, (None, 1.0),
    rather than an error; the degenerate position only occurs on
    estimated states passing through the origin.  Not approaching gives
    (None, 0.0) and receding (ttc, 0.0).  kappa is never NaN or -0.0:
    a NaN level, as max(0.0, nan) would, reads 0.0.
    """
    r2 = x * x + z * z
    if r2 == 0.0:
        return None, 1.0
    radial = x * vx + z * vz
    if abs(radial) < RADIAL_EPS:
        return None, 0.0
    t = -r2 / radial
    if t < 0:
        return t, 0.0
    kappa = 1.0 - t / t_r
    return t, (kappa if kappa > 0.0 else 0.0)


def ttc(x: float, z: float, vx: float, vz: float) -> float | None:
    """Radial time to collision in seconds; None when not approaching."""
    if x * x + z * z == 0.0:
        raise DegeneratePosition("object at the user origin")
    return ttc_level(x, z, vx, vz, DEFAULT_REACTION_TIME_S)[0]


def risk_level(ttc_value: float | None, t_r: float = DEFAULT_REACTION_TIME_S) -> float:
    """Map a TTC to [0, 1], as ttc_level maps an object's; receding and
    non-approaching objects score 0."""
    check_reaction_time(t_r)
    if ttc_value is None or ttc_value < 0:
        return 0.0
    return max(0.0, 1.0 - ttc_value / t_r)


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
    """One object's ttc_level, for a t_r the caller has checked."""
    return tuple.__new__(ObjectRisk, (obj.id, *ttc_level(obj.x, obj.z, obj.vx, obj.vz, t_r)))


def assess(
    tracks,
    t_r: float = DEFAULT_REACTION_TIME_S,
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD,
    now: float = 0.0,
) -> RiskAssessment:
    """Score every track with ttc_level, as object_risk does, and fold
    into the overall alert decision.

    One pass over the tracks: each ObjectRisk built positionally, and the
    overall level the running maximum (a kappa is never NaN or -0.0, so
    this is max over the kappas, 0.0 for no track)."""
    check_reaction_time(t_r)
    per, gamma, new, rule = [], 0.0, tuple.__new__, ttc_level
    for obj in tracks:
        t, kappa = rule(obj.x, obj.z, obj.vx, obj.vz, t_r)
        per.append(new(ObjectRisk, (obj.id, t, kappa)))
        if kappa > gamma:
            gamma = kappa
    return new(RiskAssessment, (now, tuple(per), gamma, gamma >= alert_threshold))
