"""Blink schedulers: tabular SARSA and the four baselines it is compared with.

The MDP state is a coarse discretization of what the tracker knows: the
bin of the lowest track confidence (plus a dedicated no-tracks bin), the
distance bin of that lowest-confidence object, and the time since the
last blink.  Actions are skip (0) and blink (1).  The reward couples the
cost of sampling with the change in the minimum track confidence, so
the agent learns to spend blinks where they buy certainty.

The confidence change in the reward is the difference of the minimum
confidence between consecutive ticks, zero when either tick has no
tracks.  That statistic jumps when the tracked set changes (a fresh
track enters with low confidence, a stale one gets dropped), so part of
the reward is flow noise rather than a verdict on the action; the
visit-count averaging is what grinds that out.

Exploration follows epsilon_t = epsilon0 / (1 + eta * t) on the global
step counter; the learning rate for a pair is one over its visit count.
Both schedules decay slowly enough that every pair keeps being visited,
which is what the convergence test leans on.

The baselines (every frame, a fixed interval, a coin flip, a confidence
threshold) read their knobs from the same `SamplerConfig`, so one
config block describes whichever sampler a run uses.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import (ParseError, VersionMismatch, is_finite_number, read_lines, require,
                       require_finite)
from .tracking import MAX_D

SKIP, BLINK = 0, 1

QTABLE_FORMAT = "rearguard-qtable"
QTABLE_VERSION = 1

# Physical bounds on the sampler's knobs (see SamplerConfig)
MAX_CONFIDENCE = 1.0e6   # 1/m^2, a covariance trace of 1e-6: a millimetre spread
MAX_ETA = 1.0            # per tick
MAX_DT_S = 1.0e6         # s, the latest time a scenario reaches (scenario.MAX_SECONDS)
MAX_PERIOD = 1.0e9       # ticks, compare's budget-matched period at its 1e-9 blink-fraction floor


class SamplerState(NamedTuple):
    conf_bin: int
    dist_bin: int
    dt_bin: int


@dataclass(frozen=True)
class SamplerConfig:
    """The learned sampler's knobs and the baselines'.

    Each has a physical bound.  Confidence, 1 / (trace + gamma), is
    positive and at most MAX_CONFIDENCE: a track known to a millimetre
    is beyond any camera box (the standard suite's tightest trace is
    0.12 m^2).  c_min lies in (0, MAX_CONFIDENCE]: at 0 or below, the
    threshold sampler would never blink while a track lives.  The
    conf_edges lie in [0, MAX_CONFIDENCE].  sample_cost is at least
    -MAX_CONFIDENCE: the reward weighs a blink against a change of the
    weakest confidence, so a costlier blink is never worth one, and a
    cost of -1e308 overflows the Q-values to NaN.  eta is at most
    MAX_ETA, one per tick: faster, exploration is gone before the
    second tick.  dt_max and the dt_edges are at most MAX_DT_S, the
    latest time a scenario reaches, and the dist_edges at most MAX_D,
    the tracking range's bound.  period is at most MAX_PERIOD ticks,
    the longest interval compare's budget matching sets; beyond the
    longest run (10^6 ticks) an interval never blinks anyway.
    """

    sample_cost: float = -0.05
    epsilon0: float = 1.0
    eta: float = 0.1
    beta: float = 0.9
    conf_edges: tuple = (0.02, 0.1, 0.5)
    dist_edges: tuple = (5.0, 10.0, 20.0)
    dt_edges: tuple = (0.2, 0.5, 1.0)
    dt_max: float = 2.0   # forced-blink valve: never go longer than this blind
    period: float = 5.0   # ticks between blinks for the interval baseline
    p: float = 0.2        # per-tick blink probability for the random baseline
    c_min: float = 1.5    # confidence floor for the threshold baseline; picked so its
                          # suite blink fraction lands next to the adaptive sampler's

    def __post_init__(self):
        require_finite(self, "sample_cost", "epsilon0", "eta", "beta", "dt_max", "period", "p",
                       "c_min")
        require(self.sample_cost <= 0, "sample_cost", "is a cost; it must be zero or negative")
        require(self.sample_cost >= -MAX_CONFIDENCE, "sample_cost",
                f"must be at least {-MAX_CONFIDENCE:g}, got {self.sample_cost!r}")
        require(0 < self.epsilon0 <= 1, "epsilon0", "must be in (0, 1]")
        require(self.eta > 0, "eta", "must be positive")
        require(self.eta <= MAX_ETA, "eta", f"must be at most {MAX_ETA:g} per tick, got {self.eta!r}")
        require(0 <= self.beta < 1, "beta", "must be in [0, 1)")
        require(self.dt_max > 0, "dt_max", "must be positive")
        require(self.dt_max <= MAX_DT_S, "dt_max",
                f"must be at most {MAX_DT_S:g} s, got {self.dt_max!r}")
        for name, hi, unit in (("conf_edges", MAX_CONFIDENCE, ""), ("dist_edges", MAX_D, " m"),
                               ("dt_edges", MAX_DT_S, " s")):
            edges = getattr(self, name)
            require(isinstance(edges, tuple) and all(map(is_finite_number, edges))
                    and all(a < b for a, b in zip(edges, edges[1:])), name,
                    f"must be a strictly increasing tuple of finite numbers, got {edges!r}")
            require(all(0 <= e <= hi for e in edges), name,
                    f"must lie in [0, {hi:g}]{unit}, got {edges!r}")
        require(self.period >= 1, "period", f"must be at least one tick, got {self.period!r}")
        require(self.period <= MAX_PERIOD, "period",
                f"must be at most {MAX_PERIOD:g} ticks, got {self.period!r}")
        require(0 <= self.p <= 1, "p", f"must be a blink probability in [0, 1], got {self.p!r}")
        require(0 < self.c_min <= MAX_CONFIDENCE, "c_min",
                f"must be in (0, {MAX_CONFIDENCE:g}], got {self.c_min!r}")

    @property
    def no_tracks_bin(self) -> int:
        return len(self.conf_edges) + 1


def bin_index(value: float, edges) -> int:
    """Index of the bin for value; a value on an edge goes to the higher bin."""
    return bisect_right(edges, value)


def observe_state(tracks, now: float, last_blink: float, config: SamplerConfig) -> SamplerState:
    """Discretize the tracker summary into the MDP state."""
    if now < last_blink:
        raise ValueError("now precedes last_blink")
    dt_bin = bin_index(now - last_blink, config.dt_edges)
    if not tracks:
        return SamplerState(config.no_tracks_bin, len(config.dist_edges), dt_bin)
    weakest = min(tracks, key=lambda t: t.confidence)
    return SamplerState(
        bin_index(weakest.confidence, config.conf_edges),
        bin_index(weakest.range, config.dist_edges),
        dt_bin,
    )


@dataclass
class QTable:
    values: dict = field(default_factory=dict)
    visits: dict = field(default_factory=dict)
    tick: int = 0

    def get(self, s: SamplerState, a: int) -> float:
        return self.values.get((s, a), 0.0)


def epsilon(config: SamplerConfig, tick: int) -> float:
    return config.epsilon0 / (1.0 + config.eta * tick)


def greedy_action(q: QTable, s: SamplerState) -> int:
    """Argmax over the two actions; a tie prefers blinking (fresh states
    default to sampling until the table says otherwise)."""
    values = q.values
    return BLINK if values.get((s, BLINK), 0.0) >= values.get((s, SKIP), 0.0) else SKIP


def choose_action(q: QTable, s: SamplerState, rng, config: SamplerConfig) -> int:
    if rng.random() < epsilon(config, q.tick):
        return int(rng.integers(0, 2))
    return greedy_action(q, s)


def reward(action: int, delta_conf: float, cost: float) -> float:
    return action * cost + delta_conf


def sarsa_update(
    q: QTable,
    s: SamplerState,
    a: int,
    r: float,
    s_next: SamplerState,
    a_next: int,
    beta: float,
) -> QTable:
    """On-policy TD update with visit-count learning rate.

    The visit count is incremented first, so the very first update of a
    pair uses alpha = 1 and adopts its target outright.
    """
    key, values = (s, a), q.values
    n = q.visits.get(key, 0) + 1
    q.visits[key] = n
    old = values.get(key, 0.0)
    values[key] = old + (r + beta * values.get((s_next, a_next), 0.0) - old) / n
    q.tick += 1
    return q


# ------------------------------------------------------------ persistence

def save_qtable(q: QTable, path) -> None:
    """Sorted text dump; floats via repr so reload is bit-exact."""
    lines = [f"{QTABLE_FORMAT} v{QTABLE_VERSION}", f"tick {q.tick}"]
    for (s, a) in sorted(q.values):
        lines.append(
            f"{s.conf_bin} {s.dist_bin} {s.dt_bin} {a} "
            f"{q.values[(s, a)]!r} {q.visits.get((s, a), 0)}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_qtable(path, config: SamplerConfig) -> QTable:
    """Read a table written by save_qtable for a run with `config`; a
    malformed file, or one that save_qtable could not have written (a
    second line other than ``tick <count>``, a negative tick or visit count,
    a state bin outside the config's bins, an action other than skip or
    blink, a non-finite value, a repeated (state, action) row, a byte
    that is not UTF-8), is a ParseError naming the path and line."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith(QTABLE_FORMAT):
        raise ParseError(f"{path}: line 1: not a {QTABLE_FORMAT} file")
    version = lines[0].split("v")[-1]
    if version != str(QTABLE_VERSION):
        raise VersionMismatch(f"{path}: unsupported qtable version {version}")
    tops = (config.no_tracks_bin, len(config.dist_edges), len(config.dt_edges))
    i = 2
    try:
        label, tick = lines[1].split()
        if label != "tick":
            raise ValueError(f"expected 'tick <count>', got {lines[1]!r}")
        q = QTable(tick=int(tick))
        if q.tick < 0:
            raise ValueError(f"tick must be non-negative, got {q.tick}")
        for i, line in enumerate(lines[2:], start=3):
            if not line:
                continue
            cb, db, tb, a, value, visits = line.split()
            s = SamplerState(int(cb), int(db), int(tb))
            a, value, visits = int(a), float(value), int(visits)
            if not all(0 <= b <= top for b, top in zip(s, tops)):
                raise ValueError(
                    f"state bins must be non-negative and at most {tops}, got {tuple(s)}")
            if a not in (SKIP, BLINK):
                raise ValueError(f"action must be {SKIP} or {BLINK}, got {a}")
            if not is_finite_number(value):
                raise ValueError(f"value must be finite, got {value!r}")
            if visits < 0:
                raise ValueError(f"visit count must be non-negative, got {visits}")
            if (s, a) in q.values:
                raise ValueError(f"repeated row for state {tuple(s)} and action {a}")
            q.values[(s, a)] = value
            q.visits[(s, a)] = visits
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: line {i}: {exc}") from exc
    return q


# ------------------------------------------------------------------ agent

class SarsaSampler:
    """Per-tick decision loop around the tabular pieces above.

    decide() observes, picks the action (with the forced-blink valve as
    a backstop), and completes the previous tick's SARSA transition now
    that its successor state and action are known.  Learning is always
    on; there is no separate train/exploit mode.
    """

    def __init__(self, config: SamplerConfig, rng, qtable: QTable | None = None):
        self.config = config
        self.rng = rng
        self.q = qtable if qtable is not None else QTable()
        self.last_blink = 0.0
        self._pending = None   # (state, action, min confidence or None)
        # observe_state's no-tracks states, one per dt bin: most ticks see none
        self._empty_states = [
            SamplerState(config.no_tracks_bin, len(config.dist_edges), dt_bin)
            for dt_bin in range(len(config.dt_edges) + 1)]

    def decide(self, tracks, now: float) -> bool:
        cfg = self.config
        since = now - self.last_blink
        if tracks:
            s = observe_state(tracks, now, self.last_blink, cfg)
            c_min = min(t.confidence for t in tracks)
        elif since < 0:
            raise ValueError("now precedes last_blink")
        else:
            s, c_min = self._empty_states[bin_index(since, cfg.dt_edges)], None

        a = choose_action(self.q, s, self.rng, cfg)
        if since >= cfg.dt_max:
            a = BLINK   # safety valve, recorded as the executed action

        if self._pending is not None:
            s_prev, a_prev, c_prev = self._pending
            delta = 0.0 if (c_prev is None or c_min is None) else c_min - c_prev
            r = reward(a_prev, delta, cfg.sample_cost)
            sarsa_update(self.q, s_prev, a_prev, r, s, a, cfg.beta)

        self._pending = (s, a, c_min)
        if a == BLINK:
            self.last_blink = now
        return a == BLINK


# -------------------------------------------------------------- baselines

class EveryFrameSampler:
    def __init__(self, config: SamplerConfig, rng):
        pass

    def decide(self, tracks, now: float) -> bool:
        return True


class IntervalSampler:
    """Blink once every `period` ticks; fractional periods accumulate phase."""

    def __init__(self, config: SamplerConfig, rng):
        self.period = config.period
        self._acc = 0.0

    def decide(self, tracks, now: float) -> bool:
        self._acc += 1.0
        if self._acc >= self.period:
            self._acc -= self.period
            return True
        return False


class RandomSampler:
    def __init__(self, config: SamplerConfig, rng):
        self.p = config.p
        self._rng = rng

    def decide(self, tracks, now: float) -> bool:
        return self._rng.random() < self.p


class ConfidenceThresholdSampler:
    """Blink whenever the weakest track drops below c_min.  With no
    tracks there is no confidence to lean on, so discovery falls back on
    the same forced-blink interval the adaptive sampler uses; blinking
    every empty tick would peg the budget far above any threshold's
    influence."""

    def __init__(self, config: SamplerConfig, rng):
        self.c_min = config.c_min
        self.dt_max = config.dt_max
        self.last_blink = 0.0

    def decide(self, tracks, now: float) -> bool:
        if tracks:
            blink = min(t.confidence for t in tracks) < self.c_min
        else:
            blink = now - self.last_blink >= self.dt_max
        if blink:
            self.last_blink = now
        return blink


BASELINES = {
    "everyframe": EveryFrameSampler,
    "interval": IntervalSampler,
    "random": RandomSampler,
    "confidence": ConfidenceThresholdSampler,
}
SAMPLER_KINDS = ("sarsa", *BASELINES)


def check_kind(kind, fieldname: str = "kind") -> str:
    """The sampler kind, if it names one; the config error for `fieldname` otherwise."""
    require(kind in SAMPLER_KINDS, fieldname, f"must be one of {SAMPLER_KINDS}, got {kind!r}")
    return kind
