"""Pipeline runs and sampler comparisons on synthetic scenarios.

A pipeline run replays one scenario tick by tick: the tracker predicts
every tick, the sampler decides whether to spend a blink, a blink feeds
the frame to the tracker, and risk is assessed on whatever state the
tracker holds.  Alerts are scored against ground-truth danger labels
obtained by applying the identical TTC/risk rule to the true states, so
a "false positive" means the estimated picture disagreed with the true
one at that tick.

Danger labels are scoped to what the sensor could in principle observe.
A vehicle in its last metres sits below the image bottom and outside
the view cone; no sampling policy can see it, so ticks whose danger
comes only from such objects are excluded from scoring rather than
charged to every sampler as misses.  The exclusion depends only on the
ground truth, never on the sampler, so denominators line up across a
comparison.

Metrics are accumulated after a warm-up segment (learning stays on
throughout; warm-up only excludes the cold start from the counters).
Tick-level FPR/FNR use the number of scored post-warm-up assessments as
the denominator.  Episode-level counts (missed danger episodes, false
alert episodes) are reported alongside, since per-tick and per-event
views answer different questions.

Blink count and blink fraction are the power proxy: every blink is one
camera wake-up, so the fraction of ticks sampled stands in for energy
draw.  No hardware power is measured.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .risk import DEFAULT_ALERT_THRESHOLD, DEFAULT_REACTION_TIME_S, assess
from .sampler import QTable, SamplerConfig, SarsaSampler
from .scenario import (
    DEFAULT_FOV,
    DEFAULT_USER_SPEED,
    CameraConfig,
    ScenarioConfig,
    UserConfig,
    VehicleConfig,
    check_aligned,
    generate,
    in_sensing_footprint,
)
from .scenario import InvalidConfig as ConfigError
from .tracking import TrackerConfig, TrackerState, advance, snapshots, step

SAMPLER_KINDS = ("sarsa", "everyframe", "interval", "random", "confidence")


@dataclass(frozen=True)
class PipelineConfig:
    tracker: TrackerConfig = TrackerConfig()
    sampler: SamplerConfig = SamplerConfig()
    reaction_time: float = DEFAULT_REACTION_TIME_S
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD
    warmup_s: float = 60.0
    interval_period: float = 5.0   # ticks between blinks for the interval baseline
    random_p: float = 0.2          # per-tick blink probability for the random baseline
    c_min: float = 1.5             # confidence floor for the threshold baseline;
                                   # picked so its suite blink fraction lands next
                                   # to the adaptive sampler's (equal-budget runs)


# ------------------------------------------------------------- samplers

class EveryFrameSampler:
    def decide(self, tracks, now: float) -> bool:
        return True


class IntervalSampler:
    """Blink once every `period` ticks; fractional periods accumulate phase."""

    def __init__(self, period: float):
        if period < 1.0:
            raise ConfigError("interval period must be at least one tick")
        self.period = period
        self._acc = 0.0

    def decide(self, tracks, now: float) -> bool:
        self._acc += 1.0
        if self._acc >= self.period:
            self._acc -= self.period
            return True
        return False


class RandomSampler:
    def __init__(self, p: float, rng):
        if not 0.0 <= p <= 1.0:
            raise ConfigError("random blink probability must be in [0, 1]")
        self.p = p
        self._rng = rng

    def decide(self, tracks, now: float) -> bool:
        return self._rng.random() < self.p


class ConfidenceThresholdSampler:
    """Blink whenever the weakest track drops below c_min.  With no
    tracks there is no confidence to lean on, so discovery falls back on
    the same forced-blink interval the adaptive sampler uses; blinking
    every empty tick would peg the budget far above any threshold's
    influence."""

    def __init__(self, c_min: float, dt_max: float):
        self.c_min = c_min
        self.dt_max = dt_max
        self.last_blink = 0.0

    def decide(self, tracks, now: float) -> bool:
        if tracks:
            blink = min(t.confidence for t in tracks) < self.c_min
        else:
            blink = now - self.last_blink >= self.dt_max
        if blink:
            self.last_blink = now
        return blink


def make_sampler(kind: str, config: PipelineConfig, rng, qtable: QTable | None = None):
    if kind == "sarsa":
        return SarsaSampler(config.sampler, rng, qtable)
    if kind == "everyframe":
        return EveryFrameSampler()
    if kind == "interval":
        return IntervalSampler(config.interval_period)
    if kind == "random":
        return RandomSampler(config.random_p, rng)
    if kind == "confidence":
        return ConfidenceThresholdSampler(config.c_min, config.sampler.dt_max)
    raise ConfigError(f"unknown sampler kind: {kind!r} (expected one of {SAMPLER_KINDS})")


# ------------------------------------------------------------- labeling

def ground_truth_danger(
    truth_tick,
    t_r: float = DEFAULT_REACTION_TIME_S,
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD,
) -> bool:
    """Apply the alerting rule to the true object states.

    Using the same TTC/risk mapping on both sides keeps the labels free
    of any second, independently invented danger notion.
    """
    return assess(truth_tick.objects, t_r, alert_threshold, now=truth_tick.t).alert


def observable_danger(
    truth_tick,
    camera: CameraConfig,
    fov: float = DEFAULT_FOV,
    t_r: float = DEFAULT_REACTION_TIME_S,
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD,
) -> bool:
    """Danger label restricted to objects inside the sensing footprint."""
    visible = [
        o for o in truth_tick.objects
        if in_sensing_footprint(o.x, o.z, o.cls, truth_tick.pose, camera, fov)
    ]
    return assess(visible, t_r, alert_threshold, now=truth_tick.t).alert


# -------------------------------------------------------------- reports

@dataclass(frozen=True)
class TickRecord:
    t: float
    blink: bool
    alert: bool
    danger: bool       # observable danger, the scoring label
    excluded: bool     # true danger invisible to the sensor; not scored
    measured: bool
    gamma: float


@dataclass(frozen=True)
class AlertEvent:
    t_start: float
    t_end: float
    peak_gamma: float
    track_ids: tuple


@dataclass(frozen=True)
class RunReport:
    scenario: str
    sampler_kind: str
    seed: int
    n_ticks: int
    n_assessments: int       # scored post-warm-up ticks
    n_excluded: int          # post-warm-up ticks with sensor-invisible danger
    n_fp: int
    n_fn: int
    fpr: float
    fnr: float
    blink_count: int         # whole run, warm-up included
    blink_fraction: float    # post-warm-up blinks over post-warm-up ticks
    mean_tracking_error: float   # position error of matched tracks, metres
    tracking_coverage: float     # fraction of visible object-ticks with a track nearby
    n_danger_episodes: int
    n_missed_episodes: int
    n_false_alert_episodes: int
    alert_events: tuple
    ticks: tuple | None = None


def report_to_dict(report: RunReport) -> dict:
    d = asdict(report)
    d.pop("ticks")
    d["alert_events"] = [asdict(e) for e in report.alert_events]
    return d


def _episodes(flags):
    """Maximal runs of consecutive True flags, as (start, end) index pairs."""
    spans = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        elif not f and start is not None:
            spans.append((start, i - 1))
            start = None
    if start is not None:
        spans.append((start, len(flags) - 1))
    return spans


def _alert_events(times, alerts, peak_ids, gammas):
    events = []
    for start, end in _episodes(alerts):
        ids = []
        for i in range(start, end + 1):
            if peak_ids[i] is not None and peak_ids[i] not in ids:
                ids.append(peak_ids[i])
        events.append(
            AlertEvent(
                t_start=times[start],
                t_end=times[end],
                peak_gamma=max(gammas[start : end + 1]),
                track_ids=tuple(ids),
            )
        )
    return tuple(events)


# ------------------------------------------------------------- pipeline

MATCH_RADIUS_M = 5.0   # a track within this distance counts as covering an object


def run_pipeline(
    frames,
    truth,
    sampler_kind: str,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
    camera: CameraConfig = CameraConfig(),
    fov: float = DEFAULT_FOV,
    qtable: QTable | None = None,
    keep_ticks: bool = False,
    scenario_label: str = "",
) -> RunReport:
    """Run one sampler over one (trace, truth) pair and score it."""
    frames = list(frames)
    truth = list(truth)
    check_aligned(frames, truth)

    rng = np.random.default_rng(seed)
    smp = make_sampler(sampler_kind, config, rng, qtable)
    tracker = TrackerState()
    intr = camera.intrinsics

    times, alerts, dangers, excludes, blinks, measured_flags = [], [], [], [], [], []
    gammas, peak_ids = [], []
    errors = []
    covered = 0
    visible_obj_ticks = 0
    d_max = config.tracker.d_max

    for frame, tick in zip(frames, truth):
        tracker = advance(tracker, frame.t, config.tracker)
        snaps = snapshots(tracker)
        blink = smp.decide(snaps, frame.t)
        if blink:
            tracker, snaps = step(tracker, frame, config.tracker, intr, camera.camera_height)

        result = assess(snaps, config.reaction_time, config.alert_threshold, now=frame.t)
        raw = ground_truth_danger(tick, config.reaction_time, config.alert_threshold)
        danger = observable_danger(tick, camera, fov,
                                   config.reaction_time, config.alert_threshold)
        measured = frame.t >= config.warmup_s

        if result.per_object:
            worst = max(result.per_object, key=lambda o: (o.kappa, -o.track_id))
            peak_ids.append(worst.track_id)
        else:
            peak_ids.append(None)
        gammas.append(result.gamma_overall)
        times.append(frame.t)
        alerts.append(result.alert)
        dangers.append(danger)
        excludes.append(raw and not danger)
        blinks.append(blink)
        measured_flags.append(measured)

        if measured:
            for obj in tick.objects:
                if obj.range > d_max:
                    continue
                if not in_sensing_footprint(obj.x, obj.z, obj.cls, tick.pose, camera, fov):
                    continue
                visible_obj_ticks += 1
                dist = min(
                    (math.hypot(s.x - obj.x, s.z - obj.z) for s in snaps),
                    default=math.inf,
                )
                if dist <= MATCH_RADIUS_M:
                    covered += 1
                    errors.append(dist)

    n_ticks = len(frames)
    m_idx = [i for i in range(n_ticks) if measured_flags[i]]
    scored = [i for i in m_idx if not excludes[i]]
    n_a = len(scored)
    n_fp = sum(1 for i in scored if alerts[i] and not dangers[i])
    n_fn = sum(1 for i in scored if dangers[i] and not alerts[i])
    blink_count = sum(blinks)
    blinks_measured = sum(1 for i in m_idx if blinks[i])

    m_alerts = [alerts[i] for i in m_idx]
    m_dangers = [dangers[i] for i in m_idx]
    m_ok = [dangers[i] or excludes[i] for i in m_idx]
    danger_eps = _episodes(m_dangers)
    missed = sum(
        1 for s, e in danger_eps if not any(m_alerts[s : e + 1])
    )
    # an alert run is a false event only if it never touches real danger,
    # visible or otherwise
    false_eps = sum(
        1 for s, e in _episodes(m_alerts) if not any(m_ok[s : e + 1])
    )

    ticks = None
    if keep_ticks:
        ticks = tuple(
            TickRecord(times[i], blinks[i], alerts[i], dangers[i],
                       excludes[i], measured_flags[i], gammas[i])
            for i in range(n_ticks)
        )

    return RunReport(
        scenario=scenario_label,
        sampler_kind=sampler_kind,
        seed=seed,
        n_ticks=n_ticks,
        n_assessments=n_a,
        n_excluded=len(m_idx) - n_a,
        n_fp=n_fp,
        n_fn=n_fn,
        fpr=n_fp / n_a if n_a else 0.0,
        fnr=n_fn / n_a if n_a else 0.0,
        blink_count=blink_count,
        blink_fraction=blinks_measured / len(m_idx) if m_idx else 0.0,
        mean_tracking_error=math.fsum(errors) / len(errors) if errors else 0.0,
        tracking_coverage=covered / visible_obj_ticks if visible_obj_ticks else 1.0,
        n_danger_episodes=len(danger_eps),
        n_missed_episodes=missed,
        n_false_alert_episodes=false_eps,
        alert_events=_alert_events(times, alerts, peak_ids, gammas),
        ticks=ticks,
    )


# ------------------------------------------------------------ comparison

REPORT_NOTES = (
    "Blink count / blink fraction is the power proxy: one blink = one camera wake-up.",
    "FPR and FNR are tick-level over all post-warm-up assessments; episode counts are"
    " reported alongside.",
    "Absolute alert-rate figures from real street recordings are out of scope; this"
    " harness reports orderings on its own synthetic suite.",
)

_AGG_METRICS = ("fpr", "fnr", "blink_fraction", "mean_tracking_error",
                "tracking_coverage", "n_missed_episodes", "n_false_alert_episodes")


@dataclass(frozen=True)
class ComparisonReport:
    runs: tuple
    aggregates: dict
    breakdowns: dict
    budget_matched: bool
    notes: tuple = REPORT_NOTES


def _scenario_axes(cfg: ScenarioConfig) -> dict:
    classes = sorted({v.cls for v in cfg.vehicles})
    return {
        "mode": cfg.user.mode,
        "road": cfg.road,
        "light": cfg.light,
        "classes": "+".join(classes) if classes else "none",
        "vehicle_count": str(len(cfg.vehicles)),
    }


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def _aggregate(rows):
    """rows: list of RunReport, one sampler.  Means in a canonical order."""
    rows = sorted(rows, key=lambda r: (r.scenario, r.seed))
    return {m: _mean(getattr(r, m) for r in rows) for m in _AGG_METRICS} | {
        "runs": len(rows)
    }


def compare(
    scenarios,
    samplers,
    config: PipelineConfig = PipelineConfig(),
    budget_match: bool = True,
    seeds=None,
) -> ComparisonReport:
    """Run every sampler over every scenario and aggregate.

    With budget_match on, the adaptive sampler runs first on each
    (scenario, seed) cell and its measured blink fraction sets the
    interval period and the random blink probability for that cell, so
    the baselines spend the same budget they are being compared against.

    `seeds` multiplies the grid: every scenario is replayed once per
    seed (the trace stays fixed; the seed drives the sampler side).
    Default is one run per scenario using the scenario's own seed.
    """
    scenarios = list(scenarios)
    samplers = list(samplers)
    if not scenarios:
        raise ConfigError("at least one scenario is required")
    if not samplers:
        raise ConfigError("at least one sampler is required")
    for kind in samplers:
        if kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler kind: {kind!r} (expected one of {SAMPLER_KINDS})")

    runs = []
    axes_by_key = {}
    for name, scen in scenarios:
        frames, truth = generate(scen)
        axes = _scenario_axes(scen)
        for seed in (list(seeds) if seeds else [scen.seed]):
            anchor = None
            ordered = sorted(samplers, key=lambda k: k != "sarsa")
            for kind in ordered:
                cfg_k = config
                if budget_match and anchor is not None:
                    if kind == "interval":
                        cfg_k = replace(config, interval_period=max(1.0, 1.0 / max(anchor, 1e-9)))
                    elif kind == "random":
                        cfg_k = replace(config, random_p=min(1.0, max(0.0, anchor)))
                report = run_pipeline(
                    frames, truth, kind, cfg_k,
                    seed=seed, camera=scen.camera, fov=scen.detector.fov,
                    scenario_label=name,
                )
                if kind == "sarsa":
                    anchor = report.blink_fraction
                runs.append(report)
                axes_by_key[(name, kind, seed)] = axes

    runs.sort(key=lambda r: (r.scenario, r.sampler_kind, r.seed))

    aggregates = {
        kind: _aggregate([r for r in runs if r.sampler_kind == kind])
        for kind in sorted(set(samplers))
    }

    breakdowns = {}
    for axis in ("mode", "road", "light", "classes", "vehicle_count"):
        per_value = {}
        values = sorted({
            axes_by_key[(r.scenario, r.sampler_kind, r.seed)][axis] for r in runs
        })
        for value in values:
            per_value[value] = {
                kind: _aggregate([
                    r for r in runs
                    if r.sampler_kind == kind
                    and axes_by_key[(r.scenario, r.sampler_kind, r.seed)][axis] == value
                ])
                for kind in sorted(set(samplers))
            }
        breakdowns[axis] = per_value

    return ComparisonReport(
        runs=tuple(runs),
        aggregates=aggregates,
        breakdowns=breakdowns,
        budget_matched=budget_match,
    )


def comparison_to_dict(rep: ComparisonReport) -> dict:
    return {
        "notes": list(rep.notes),
        "budget_matched": rep.budget_matched,
        "aggregates": rep.aggregates,
        "breakdowns": rep.breakdowns,
        "runs": [report_to_dict(r) for r in rep.runs],
    }


def format_comparison(rep: ComparisonReport) -> str:
    """Human-readable summary table."""
    lines = ["# sampler comparison"]
    lines += [f"# {note}" for note in rep.notes]
    header = (
        f"{'sampler':<12} {'fpr%':>7} {'fnr%':>7} {'blink':>7} "
        f"{'trk_err':>8} {'cover':>6} {'missed':>7} {'false_ev':>9}"
    )
    lines.append(header)
    for kind, agg in rep.aggregates.items():
        lines.append(
            f"{kind:<12} {100 * agg['fpr']:>7.2f} {100 * agg['fnr']:>7.2f} "
            f"{agg['blink_fraction']:>7.3f} {agg['mean_tracking_error']:>8.2f} "
            f"{agg['tracking_coverage']:>6.2f} "
            f"{agg['n_missed_episodes']:>7.2f} {agg['n_false_alert_episodes']:>9.2f}"
        )
    for axis, per_value in rep.breakdowns.items():
        lines.append(f"-- by {axis}")
        for value, per_kind in per_value.items():
            for kind, agg in per_kind.items():
                if agg["runs"] == 0:
                    continue
                lines.append(
                    f"{axis}={value:<14} {kind:<12} fpr {100 * agg['fpr']:6.2f}%  "
                    f"fnr {100 * agg['fnr']:6.2f}%  blink {agg['blink_fraction']:.3f}  "
                    f"({agg['runs']} runs)"
                )
    return "\n".join(lines) + "\n"


def config_digest(payload: dict) -> str:
    """Stable sha256 of a json-serializable config dict."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -------------------------------------------------------- standard suite

def _approach(cls, spawn, x, z0, closing, u, profile="constant", heading=0.0, **params):
    """Vehicle whose along-road closing speed relative to the user is fixed."""
    return VehicleConfig(
        cls=cls, spawn_time=float(spawn), x0=float(x), z0=float(z0),
        speed=closing + u, heading=heading, profile=profile, params=dict(params),
    )


def _crosser(spawn, x0, z0, speed):
    """Car crossing the road behind the user, lateral heading."""
    heading = math.pi / 2 if x0 < 0 else -math.pi / 2
    return VehicleConfig(
        cls="car", spawn_time=float(spawn), x0=float(x0), z0=float(z0),
        speed=speed, heading=heading,
    )


def standard_suite():
    """Twenty fixed scenarios used for the headline sampler comparison.

    Design notes, so the numbers are not mysterious:
    - closing speeds are low (cars around 2-2.5 m/s, cycles around 1.3)
      so danger onset happens well inside detector range and discovery
      latency is not the dominant error term;
    - spawns are staggered to leave empty stretches where an adaptive
      sampler can save its budget;
    - deceleration, lane changes, convoys and near-lane passes (lateral
      6 m, never truly dangerous) exist to punish stale state estimates
      with false alerts;
    - the second half of each two-minute run mirrors the first, so the
      measured minute sees the same traffic texture the warm-up did.
    """
    u_walk = DEFAULT_USER_SPEED["walking"]
    u_jog = DEFAULT_USER_SPEED["jogging"]
    rows = []

    def scen(mode, road, light, u, vehicles):
        rows.append((mode, road, light, u, vehicles))

    scen("standing", "along", "day", 0.0, [
        _approach("car", 3, 0.9, -44, 2.5, 0.0),
        _approach("car", 18, -6.0, -50, 3.2, 0.0),
        _approach("car", 34, -1.1, -46, 2.2, 0.0),
        _approach("cycle", 52, 0.7, -26, 1.25, 0.0),
        _approach("car", 70, 1.3, -45, 2.4, 0.0),
        _approach("car", 88, 6.0, -48, 3.0, 0.0),
        _approach("car", 97, -0.8, -42, 2.6, 0.0),
    ])
    scen("standing", "along", "day", 0.0, [
        _approach("car", 3, 1.0, -45, 2.5, 0.0),
        _approach("car", 20, -0.9, -44, 2.4, 0.0, profile="decelerate-at", at=34.0, rate=2.5),
        _approach("car", 40, 6.0, -47, 3.0, 0.0),
        _approach("cycle", 55, -0.7, -27, 1.3, 0.0),
        _approach("car", 72, 0.9, -43, 2.4, 0.0, profile="decelerate-at", at=86.0, rate=2.5),
        _approach("car", 90, 1.0, -40, 2.3, 0.0),
    ])
    scen("walking", "along", "day", u_walk, [
        _approach("car", 4, 0.9, -45, 2.4, u_walk),
        _approach("car", 22, -6.0, -52, 3.2, u_walk),
        _approach("car", 48, 2.2, -47, 2.3, u_walk,
                  profile="lane-change-at", at=61.0, duration=2.5, to_x=-1.2),
        _approach("cycle", 66, -0.8, -28, 1.25, u_walk),
        _approach("car", 84, 6.0, -48, 3.1, u_walk),
        _approach("car", 95, -1.2, -44, 2.5, u_walk),
    ])
    scen("jogging", "along", "day", u_jog, [
        _approach("car", 5, -0.9, -45, 2.4, u_jog),
        _approach("car", 24, 6.0, -50, 3.1, u_jog),
        _approach("car", 41, 1.1, -44, 2.2, u_jog),
        _approach("cycle", 61, 0.75, -27, 1.3, u_jog),
        _approach("car", 79, -1.2, -45, 2.5, u_jog),
        _approach("car", 99, 0.9, -41, 2.4, u_jog),
    ])
    scen("standing", "intersection", "day", 0.0, [
        _crosser(10, -26, -6.0, 2.6),
        _crosser(45, -26, -6.0, 2.6),
        _crosser(80, -26, -6.0, 2.6),
        _approach("car", 30, 0.8, -42, 2.4, 0.0, profile="decelerate-at", at=44.0, rate=2.2),
        _approach("car", 55, 1.1, -44, 2.5, 0.0),
        _approach("car", 75, -0.9, -40, 2.3, 0.0, profile="decelerate-at", at=89.0, rate=2.2),
    ])
    scen("standing", "intersection", "day", 0.0, [
        _crosser(8, 27, -5.5, 3.0),
        _crosser(40, 27, -5.5, 3.0),
        _crosser(72, 27, -5.5, 3.0),
        _crosser(100, 27, -5.5, 3.0),
        _approach("car", 25, -1.0, -45, 2.5, 0.0),
        _approach("car", 62, 0.9, -43, 2.4, 0.0),
        _approach("car", 94, -1.2, -40, 2.2, 0.0, profile="decelerate-at", at=106.0, rate=2.0),
    ])
    scen("walking", "intersection", "day", u_walk, [
        _crosser(12, -15, -4.0, 2.8),
        _crosser(50, -15, -4.0, 2.8),
        _crosser(86, -15, -4.0, 2.8),
        _approach("car", 20, 0.9, -44, 2.4, u_walk),
        _approach("car", 57, -1.0, -46, 2.5, u_walk),
        _approach("cycle", 88, 0.7, -27, 1.3, u_walk),
        _approach("car", 40, 6.0, -50, 3.0, u_walk),
    ])
    scen("jogging", "along", "day", u_jog, [
        _approach("car", 5, 0.6, -38, 2.3, u_jog),
        _approach("car", 5, 0.65, -46, 2.3, u_jog),
        _approach("car", 40, -6.0, -48, 3.1, u_jog),
        _approach("car", 62, 0.6, -38, 2.3, u_jog),
        _approach("car", 62, 0.65, -46, 2.3, u_jog),
        _approach("cycle", 92, -0.75, -26, 1.25, u_jog),
    ])
    scen("standing", "along", "night", 0.0, [
        _approach("car", 6, 0.9, -40, 1.9, 0.0),
        _approach("car", 20, -0.8, -44, 2.0, 0.0, profile="decelerate-at", at=36.0, rate=2.0),
        _approach("car", 30, -6.0, -45, 3.0, 0.0),
        _approach("car", 48, -1.0, -42, 1.85, 0.0),
        _approach("car", 80, 1.1, -40, 1.9, 0.0),
    ])
    scen("walking", "along", "night", u_walk, [
        _approach("car", 8, -0.9, -41, 1.9, u_walk),
        _approach("car", 35, 6.0, -46, 3.0, u_walk),
        _approach("car", 44, 2.0, -42, 1.8, u_walk,
                  profile="lane-change-at", at=56.0, duration=2.5, to_x=-1.0),
        _approach("car", 55, 1.0, -40, 1.85, u_walk),
        _approach("car", 90, -1.1, -38, 1.9, u_walk),
    ])
    scen("jogging", "along", "night", u_jog, [
        _approach("car", 5, 1.0, -40, 1.9, u_jog),
        _approach("car", 28, -6.0, -46, 3.2, u_jog),
        _approach("car", 50, -0.9, -41, 1.9, u_jog),
        _approach("car", 70, 6.0, -44, 3.0, u_jog),
        _approach("car", 85, 0.8, -39, 1.8, u_jog),
    ])
    scen("standing", "along", "night", 0.0, [
        _approach("car", 10, -1.0, -42, 2.0, 0.0),
        _approach("car", 33, 0.9, -43, 1.9, 0.0, profile="decelerate-at", at=49.0, rate=2.0),
        _approach("car", 60, 1.0, -40, 1.9, 0.0),
        _approach("car", 75, -6.0, -45, 3.0, 0.0),
        _approach("car", 95, -0.8, -36, 1.9, 0.0),
    ])
    scen("standing", "along", "day", 0.0, [
        _approach("cycle", 5, 0.7, -24, 1.3, 0.0),
        _approach("cycle", 30, -0.8, -26, 1.25, 0.0),
        _approach("car", 45, 6.0, -48, 3.0, 0.0),
        _approach("cycle", 58, 0.75, -25, 1.3, 0.0),
        _approach("car", 70, -1.1, -44, 2.4, 0.0),
        _approach("cycle", 85, -0.7, -24, 1.25, 0.0),
    ])
    scen("walking", "along", "day", u_walk, [
        _approach("car", 6, 1.0, -45, 2.4, u_walk),
        _approach("car", 25, 2.3, -46, 2.3, u_walk,
                  profile="lane-change-at", at=38.0, duration=2.5, to_x=-1.3),
        _approach("car", 50, -6.0, -50, 3.1, u_walk),
        _approach("car", 63, -2.2, -44, 2.4, u_walk,
                  profile="lane-change-at", at=74.0, duration=2.0, to_x=1.1),
        _approach("cycle", 92, -0.8, -26, 1.25, u_walk),
        _approach("car", 100, 6.0, -45, 3.2, u_walk),
    ])
    scen("jogging", "along", "day", u_jog, [
        _approach("car", 4, -0.9, -46, 2.5, u_jog),
        _approach("car", 21, 6.0, -52, 3.2, u_jog),
        _approach("car", 36, 1.2, -45, 2.3, u_jog),
        _approach("car", 60, -1.0, -45, 2.4, u_jog, profile="decelerate-at", at=75.0, rate=2.3),
        _approach("car", 78, 0.9, -42, 2.5, u_jog),
        _approach("cycle", 100, 0.7, -22, 1.4, u_jog),
    ])
    scen("standing", "along", "day", 0.0, [
        _approach("car", 10, 0.6, -40, 2.2, 0.0),
        _approach("car", 10, 0.7, -48, 2.2, 0.0),
        _approach("car", 45, -0.9, -44, 2.3, 0.0, profile="decelerate-at", at=60.0, rate=2.4),
        _approach("car", 70, -0.6, -41, 2.3, 0.0),
        _approach("car", 70, -0.68, -49, 2.3, 0.0),
        _approach("car", 95, 6.0, -46, 3.1, 0.0),
    ])
    scen("walking", "along", "day", u_walk, [
        _approach("cycle", 7, 0.75, -25, 1.3, u_walk),
        _approach("car", 26, -1.1, -46, 2.5, u_walk),
        _approach("car", 44, -6.0, -48, 3.0, u_walk),
        _approach("car", 58, 1.0, -44, 2.2, u_walk),
        _approach("car", 76, -0.85, -42, 2.4, u_walk, profile="decelerate-at", at=90.0, rate=2.5),
        _approach("car", 101, 1.15, -40, 2.3, u_walk),
    ])
    scen("jogging", "intersection", "day", u_jog, [
        _crosser(12, 25, -5.0, 3.0),
        _crosser(50, 25, -5.0, 3.0),
        _crosser(85, 25, -5.0, 3.0),
        _approach("car", 25, 0.95, -45, 2.4, u_jog),
        _approach("car", 62, -1.05, -43, 2.3, u_jog),
        _approach("car", 95, 0.85, -40, 2.4, u_jog),
        _approach("car", 40, -6.0, -47, 3.0, u_jog),
    ])
    scen("standing", "along", "night", 0.0, [
        _approach("car", 12, 1.0, -40, 1.9, 0.0),
        _approach("car", 35, -0.9, -42, 1.95, 0.0, profile="decelerate-at", at=50.0, rate=2.0),
        _approach("car", 55, 6.0, -44, 3.0, 0.0),
        _approach("car", 65, -1.0, -39, 1.9, 0.0),
        _approach("car", 85, 0.9, -41, 1.9, 0.0, profile="decelerate-at", at=100.0, rate=2.0),
    ])
    scen("walking", "along", "day", u_walk, [
        _approach("car", 3, 0.9, -44, 2.5, u_walk),
        _approach("car", 19, -6.0, -49, 3.2, u_walk),
        _approach("car", 34, 0.62, -40, 2.3, u_walk),
        _approach("car", 34, 0.7, -47.5, 2.3, u_walk),
        _approach("cycle", 68, -0.78, -26, 1.3, u_walk),
        _approach("car", 88, 1.05, -45, 2.4, u_walk),
        _approach("car", 105, 6.0, -42, 3.2, u_walk),
    ])

    suite = []
    for i, (mode, road, light, _u, vehicles) in enumerate(rows):
        name = f"s{i + 1:02d}-{mode}-{road}-{light}"
        suite.append((
            name,
            ScenarioConfig(
                seed=101 + i,
                duration=120.0,
                user=UserConfig(mode=mode),
                vehicles=tuple(vehicles),
                road=road,
                light=light,
            ),
        ))
    return tuple(suite)
