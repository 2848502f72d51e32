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
comparison.  For the same reason `label_truth` labels a scenario once
and `compare` scores every sampler and seed against those labels.
Labelling risk-scores each true object once per tick and projects it
only when that can change a label.

Per-tick records (`TickRecord`, `TruthLabel`) are NamedTuples; the
reports (`RunReport`, `AlertEvent`, `TruthLabels`, `ComparisonReport`)
are frozen dataclasses, serialised with `asdict`.

Scenarios are independent of each other: budget matching stays inside
one scenario, runs are sorted and means are summed exactly.  So
`compare` can run them in forked worker processes, the calling process
among them, and still give the same report bytes as one process does.

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
import os
import sys
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .geometry import InvalidConfig, is_number, require, require_finite
from .risk import (
    DEFAULT_ALERT_THRESHOLD,
    DEFAULT_REACTION_TIME_S,
    RiskConfig,
    assess,
    check_reaction_time,
    object_risk,
)
from .sampler import BASELINES, QTable, SamplerConfig, SarsaSampler, check_kind
from .sampler import SAMPLER_KINDS  # noqa: F401  callers read evaluation.SAMPLER_KINDS
from .scenario import (
    DEFAULT_FOV,
    DEFAULT_USER_SPEED,
    MAX_SECONDS,
    CameraConfig,
    ScenarioConfig,
    UserConfig,
    VehicleConfig,
    check_aligned,
    generate,
    sensing_footprint,
)
from .tracking import TrackerConfig, TrackerState, advance, snapshots, step


@dataclass(frozen=True)
class PipelineConfig(RiskConfig):
    """The risk terms, and what else a run needs: tracker, sampler, warm-up."""
    tracker: TrackerConfig = TrackerConfig()
    sampler: SamplerConfig = SamplerConfig()
    warmup_s: float = 60.0

    def __post_init__(self):
        super().__post_init__()
        require_finite(self, "warmup_s")
        require(self.warmup_s >= 0, "warmup_s", f"must be non-negative, got {self.warmup_s!r}")
        # a warm-up past the trace's end is legal and scores no tick; past the
        # latest time any scenario reaches it can only hide a whole run
        require(self.warmup_s <= MAX_SECONDS, "warmup_s",
                f"must be at most {MAX_SECONDS:g} s, got {self.warmup_s!r}")


def make_sampler(kind: str, config: PipelineConfig, rng, qtable: QTable | None = None):
    """The `kind` sampler, set up from `config.sampler`."""
    if check_kind(kind) == "sarsa":
        return SarsaSampler(config.sampler, rng, qtable)
    return BASELINES[kind](config.sampler, rng)


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


class TruthLabel(NamedTuple):
    """What the ground truth says about one tick, whatever the sampler."""

    t: float
    danger: bool       # observable danger, the scoring label
    excluded: bool     # true danger invisible to the sensor; not scored
    visible: tuple     # sensed objects within tracker.d_max: the coverage denominator


@dataclass(frozen=True)
class TruthLabels:
    """A scenario's per-tick labels and the settings they were made with."""

    ticks: tuple       # of TruthLabel, one per truth tick
    camera: CameraConfig
    fov: float
    reaction_time: float
    alert_threshold: float
    d_max: float


def _label_settings(camera: CameraConfig, fov: float, config: PipelineConfig) -> dict:
    return {"camera": camera, "fov": fov, "reaction_time": config.reaction_time,
            "alert_threshold": config.alert_threshold, "d_max": config.tracker.d_max}


def label_truth(
    truth,
    camera: CameraConfig = CameraConfig(),
    fov: float = DEFAULT_FOV,
    config: PipelineConfig = PipelineConfig(),
) -> TruthLabels:
    """Label every truth tick once, for any number of runs to score against.

    The labels read only the true states, the sensing footprint and the
    risk rule, never the sampler, so every sampler and seed replaying
    the same scenario shares them.  Each object is scored once per tick,
    and projected only when that can change a label: when its level is
    above the sensed maximum so far or it lies within `tracker.d_max`.
    `danger` is `assess` over the tick's objects inside
    `in_sensing_footprint`, and `excluded` is `ground_truth_danger` of
    the tick when `danger` is not, both as levels folded here.
    """
    t_r, threshold = config.reaction_time, config.alert_threshold
    check_reaction_time(t_r)
    d_max = config.tracker.d_max
    labels = []
    for tick in truth:
        sensed = None   # the tick's footprint, bound for the first object that needs it
        # assess's overall level, of every object and of the sensed ones
        gamma = gamma_sensed = 0.0
        visible = []
        for o in tick.objects:
            kappa = object_risk(o, t_r).kappa
            if kappa > gamma:
                gamma = kappa
            # sensed or not, this object moves neither the sensed level nor
            # the coverage list; a NaN level or range compares false and is projected
            if kappa <= gamma_sensed and o.range > d_max:
                continue
            if sensed is None:
                sensed = sensing_footprint(tick.pose, camera, fov)
            if sensed(o.x, o.z, o.cls):
                if kappa > gamma_sensed:
                    gamma_sensed = kappa
                if o.range <= d_max:
                    visible.append(o)
        danger = gamma_sensed >= threshold
        # excluded is true danger the sensor cannot see: raw and not observable
        excluded = not danger and gamma >= threshold
        labels.append(TruthLabel(tick.t, danger, excluded, tuple(visible)))
    return TruthLabels(tuple(labels), **_label_settings(camera, fov, config))


# -------------------------------------------------------------- reports

class TickRecord(NamedTuple):
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
    """Maximal runs of consecutive True flags, as slices."""
    spans, start = [], 0
    for on, run in groupby(flags):
        end = start + sum(1 for _ in run)
        if on:
            spans.append(slice(start, end))
        start = end
    return spans


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
    """Run one sampler over one trace and score it.

    `truth` is either the scenario's truth ticks, which are labelled
    here with `label_truth` before the first tick, or the `TruthLabels`
    already made from them with this run's camera, fov, risk terms and
    tracker range.
    """
    frames = list(frames)
    if isinstance(truth, TruthLabels):
        run = _label_settings(camera, fov, config)
        differ = [f"{k} {getattr(truth, k)!r} (run: {v!r})" for k, v in run.items()
                  if getattr(truth, k) != v]
        if differ:
            raise InvalidConfig("truth labels were made with another " + ", ".join(differ))
    else:
        truth = label_truth(truth, camera, fov, config)
    labels = truth.ticks
    check_aligned(frames, labels)

    rng = np.random.default_rng(seed)
    smp = make_sampler(sampler_kind, config, rng, qtable)
    tracker = TrackerState()
    intr = camera.intrinsics
    t_r, threshold = config.reaction_time, config.alert_threshold
    hypot = math.hypot

    records, peak_ids = [], []
    errors = []            # one per covered object-tick: distance to the nearest track
    visible_obj_ticks = 0

    for frame, label in zip(frames, labels):
        tracker = advance(tracker, frame.t, config.tracker)
        tracks = snapshots(tracker)
        blink = smp.decide(tracks, frame.t)
        if blink:
            tracker, tracks = step(tracker, frame, config.tracker, intr, camera.camera_height)

        result = assess(tracks, t_r, threshold, now=frame.t)
        measured = frame.t >= config.warmup_s
        records.append(TickRecord(frame.t, blink, result.alert, label.danger, label.excluded,
                                  measured, result.gamma_overall))
        # only alert episodes read the peak track
        peak_ids.append(
            max(result.per_object, key=lambda o: (o.kappa, -o.track_id)).track_id
            if result.alert and result.per_object else None
        )

        if measured and label.visible:
            visible_obj_ticks += len(label.visible)
            for obj in label.visible:
                # min(..., default=inf): the first of equal distances, and a
                # NaN first distance stays
                dist = None
                for tr in tracks:
                    d = hypot(tr.x - obj.x, tr.z - obj.z)
                    if dist is None or d < dist:
                        dist = d
                if dist is not None and dist <= MATCH_RADIUS_M:
                    errors.append(dist)

    post = [r for r in records if r.measured]
    scored = [r for r in post if not r.excluded]
    n_a = len(scored)
    n_fp = sum(r.alert and not r.danger for r in scored)
    n_fn = sum(r.danger and not r.alert for r in scored)

    danger_eps = _episodes(r.danger for r in post)
    missed = sum(not any(r.alert for r in post[ep]) for ep in danger_eps)
    # an alert run is a false event only if it never touches real danger,
    # visible or otherwise
    false_eps = sum(
        not any(r.danger or r.excluded for r in post[ep])
        for ep in _episodes(r.alert for r in post)
    )
    alert_events = tuple(
        AlertEvent(
            t_start=records[ep.start].t,
            t_end=records[ep.stop - 1].t,
            peak_gamma=max(r.gamma for r in records[ep]),
            track_ids=tuple(dict.fromkeys(i for i in peak_ids[ep] if i is not None)),
        )
        for ep in _episodes(r.alert for r in records)
    )

    return RunReport(
        scenario=scenario_label,
        sampler_kind=sampler_kind,
        seed=seed,
        n_ticks=len(records),
        n_assessments=n_a,
        n_excluded=len(post) - n_a,
        n_fp=n_fp,
        n_fn=n_fn,
        fpr=n_fp / n_a if n_a else 0.0,
        fnr=n_fn / n_a if n_a else 0.0,
        blink_count=sum(r.blink for r in records),
        blink_fraction=sum(r.blink for r in post) / len(post) if post else 0.0,
        mean_tracking_error=math.fsum(errors) / len(errors) if errors else 0.0,
        tracking_coverage=len(errors) / visible_obj_ticks if visible_obj_ticks else 1.0,
        n_danger_episodes=len(danger_eps),
        n_missed_episodes=missed,
        n_false_alert_episodes=false_eps,
        alert_events=alert_events,
        ticks=tuple(records) if keep_ticks else None,
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
    """rows: list of RunReport, one sampler.  fsum makes the means exact,
    so they do not depend on the order of the rows."""
    return {m: _mean(getattr(r, m) for r in rows) for m in _AGG_METRICS} | {
        "runs": len(rows)
    }


def _per_kind(runs, kinds) -> dict:
    return {kind: _aggregate([r for r in runs if r.sampler_kind == kind]) for kind in kinds}


def _scenario_runs(name, scen, ordered, config, budget_match, seeds) -> list:
    """One scenario's cells: generate and label once, then every seed
    with the samplers in `ordered`, sarsa first so that it sets the
    budget of the others."""
    frames, truth = generate(scen)
    labels = label_truth(truth, scen.camera, scen.detector.fov, config)
    runs = []
    for seed in seeds or [scen.seed]:
        anchor = None
        for kind in ordered:
            cfg_k = config
            if budget_match and anchor is not None:
                if kind == "interval":
                    cfg_k = replace(config, sampler=replace(
                        config.sampler, period=max(1.0, 1.0 / max(anchor, 1e-9))))
                elif kind == "random":
                    cfg_k = replace(config, sampler=replace(
                        config.sampler, p=min(1.0, max(0.0, anchor))))
            report = run_pipeline(
                frames, labels, kind, cfg_k,
                seed=seed, camera=scen.camera, fov=scen.detector.fov,
                scenario_label=name,
            )
            if kind == "sarsa":
                anchor = report.blink_fraction
            runs.append(report)
    return runs


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _default_workers() -> int:
    """Every usable CPU, or 1 where this process may not fork workers:
    on a platform without `fork`, and in a daemonic multiprocessing
    process (a `Pool` task, say), which may not start children."""
    if not hasattr(os, "fork"):
        return 1
    # only a process that has imported multiprocessing can be one of its
    # daemons, so this looks the module up rather than importing it
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return _usable_cpus()


def _map_forked(work, n: int, workers: int) -> list:
    """`[work(i) for i in range(n)]` over `workers` processes, this one
    among them.

    The other `workers - 1` are forked, so they share this process's
    modules, patches included, and `work` need not pickle.  Every process
    claims the next index from one shared counter and keeps its results
    until the counter runs out; the children then pickle theirs back over
    a pipe.  A failed index stops the claiming; every lower index was
    already claimed, so the lowest failed index is always run, and its
    exception is raised here as the serial loop would raise it (a child's
    traceback stays in the child; `workers=1` shows it).  The children
    are terminated and joined on every way out.
    """
    # imported here, not at the top: it costs 10-20 ms, which every
    # in-process caller of the package would pay
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    next_index = ctx.Value("l", 0)

    def claim(done: list) -> None:
        while True:
            with next_index.get_lock():
                i = next_index.value
                next_index.value = min(i + 1, n)
            if i >= n:
                return
            try:
                done.append((i, work(i), None))
            except Exception as exc:
                done.append((i, None, exc))
                with next_index.get_lock():
                    next_index.value = n
                return

    def child(conn) -> None:
        done = []
        claim(done)
        conn.send(done)
        conn.close()

    procs, conns = [], []
    try:
        for _ in range(workers - 1):
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send_end,), daemon=True)
            proc.start()
            send_end.close()
            procs.append(proc)
            conns.append(recv_end)
        done = []
        claim(done)
        for proc, conn in zip(procs, conns):
            try:
                done += conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a compare worker exited with code {proc.exitcode}"
                                   " before it returned its results") from None
            proc.join()
    finally:
        for proc in procs:
            proc.terminate()   # a no-op for a child already joined
            proc.join()
        for conn in conns:
            conn.close()

    done.sort(key=lambda item: item[0])
    for _, _, exc in done:
        if exc is not None:
            raise exc
    return [result for _, result, _ in done]


def compare(
    scenarios,
    samplers,
    config: PipelineConfig = PipelineConfig(),
    budget_match: bool = True,
    seeds=None,
    workers: int | None = None,
) -> ComparisonReport:
    """Run every sampler over every scenario and aggregate.

    With budget_match on, the adaptive sampler runs first on each
    (scenario, seed) cell and its measured blink fraction sets the
    interval period and the random blink probability for that cell, so
    the baselines spend the same budget they are being compared against.

    `seeds` multiplies the grid: every scenario is replayed once per
    seed (the trace stays fixed; the seed drives the sampler side).
    Default is one run per scenario using the scenario's own seed; given
    seeds are a non-empty list of distinct non-negative integers.
    Scenario names and sampler kinds must be unique.

    `workers` is the number of processes that run scenarios: a positive
    integer, or None for every usable CPU (1 in a daemonic
    multiprocessing worker, which may not have children); either is
    capped at the number of scenarios.  At 1 the scenarios run one after another in this
    process.  Above 1 this process runs scenarios too, beside
    `workers - 1` children made with the `fork` start method, each
    scenario whole in one process.  The report is the same, byte for
    byte, for every value: the runs are sorted and the means are exact.
    An error in any scenario is raised here with the type and message
    the serial loop gives; if several scenarios fail, the first in
    `scenarios` wins.
    """
    scenarios = list(scenarios)
    samplers = list(samplers)
    require(bool(scenarios), "scenarios", "at least one is required")
    require(bool(samplers), "samplers", "at least one is required")
    for kind in samplers:
        check_kind(kind, "samplers")
    for field, what, values in (("scenarios", "name", [name for name, _ in scenarios]),
                                ("samplers", "kind", samplers)):
        dups = [v for i, v in enumerate(values) if v in values[:i]]
        if dups:
            raise InvalidConfig(f"{field}: duplicate {what} {dups[0]!r}")
    if seeds is not None:
        valid = isinstance(seeds, (list, tuple)) and all(
            isinstance(s, int) and is_number(s) and s >= 0 for s in seeds)
        repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]] if valid else []
        if not (valid and seeds) or repeated:
            raise InvalidConfig(
                "seeds: expected a list of non-negative integers, at least one and none repeated,"
                f" got {seeds!r}" + (f"; seed {repeated[0]} repeats" if repeated else ""))

    if workers is not None and not (isinstance(workers, int) and is_number(workers)
                                    and workers >= 1):
        raise InvalidConfig(f"workers: expected a positive integer, got {workers!r}")

    ordered = sorted(samplers, key=lambda k: k != "sarsa")

    def scenario_runs(i):
        name, scen = scenarios[i]
        return _scenario_runs(name, scen, ordered, config, budget_match, seeds)

    workers = min(_default_workers() if workers is None else workers, len(scenarios))
    if workers == 1:
        per_scenario = [scenario_runs(i) for i in range(len(scenarios))]
    else:
        per_scenario = _map_forked(scenario_runs, len(scenarios), workers)
    runs = [r for reports in per_scenario for r in reports]
    axes = {name: _scenario_axes(scen) for name, scen in scenarios}
    runs.sort(key=lambda r: (r.scenario, r.sampler_kind, r.seed))
    kinds = sorted(samplers)
    breakdowns = {
        axis: {
            value: _per_kind([r for r in runs if axes[r.scenario][axis] == value], kinds)
            for value in sorted({a[axis] for a in axes.values()})
        }
        for axis in ("mode", "road", "light", "classes", "vehicle_count")
    }
    return ComparisonReport(
        runs=tuple(runs),
        aggregates=_per_kind(runs, kinds),
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
