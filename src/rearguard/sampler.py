"""Tabular SARSA blink scheduler.

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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from .scenario import ParseError, VersionMismatch

SKIP, BLINK = 0, 1

QTABLE_FORMAT = "rearguard-qtable"
QTABLE_VERSION = 1


class SamplerState(NamedTuple):
    conf_bin: int
    dist_bin: int
    dt_bin: int


@dataclass(frozen=True)
class SamplerConfig:
    sample_cost: float = -0.05
    epsilon0: float = 1.0
    eta: float = 0.1
    beta: float = 0.9
    conf_edges: tuple = (0.02, 0.1, 0.5)
    dist_edges: tuple = (5.0, 10.0, 20.0)
    dt_edges: tuple = (0.2, 0.5, 1.0)
    dt_max: float = 2.0   # forced-blink valve: never go longer than this blind

    def __post_init__(self):
        if not 0 < self.epsilon0 <= 1:
            raise ValueError("epsilon0 must be in (0, 1]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0 <= self.beta < 1:
            raise ValueError("beta must be in [0, 1)")
        if self.sample_cost > 0:
            raise ValueError("sample_cost is a cost; it cannot be positive")

    @property
    def no_tracks_bin(self) -> int:
        return len(self.conf_edges) + 1


def bin_index(value: float, edges) -> int:
    """Index of the bin for value; a value on an edge goes to the higher bin."""
    return bisect_right(list(edges), value)


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
    return BLINK if q.get(s, BLINK) >= q.get(s, SKIP) else SKIP


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
    n = q.visits.get((s, a), 0) + 1
    q.visits[(s, a)] = n
    old = q.get(s, a)
    q.values[(s, a)] = old + (r + beta * q.get(s_next, a_next) - old) / n
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


def load_qtable(path) -> QTable:
    """Read a table written by save_qtable; a malformed file is a
    ParseError naming the path and line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(QTABLE_FORMAT):
        raise ParseError(f"{path}: line 1: not a {QTABLE_FORMAT} file")
    version = lines[0].split("v")[-1]
    if version != str(QTABLE_VERSION):
        raise VersionMismatch(f"{path}: unsupported qtable version {version}")
    i = 2
    try:
        q = QTable(tick=int(lines[1].split()[1]))
        for i, line in enumerate(lines[2:], start=3):
            if not line:
                continue
            cb, db, tb, a, value, visits = line.split()
            key = (SamplerState(int(cb), int(db), int(tb)), int(a))
            q.values[key] = float(value)
            q.visits[key] = int(visits)
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

    def decide(self, tracks, now: float) -> bool:
        cfg = self.config
        s = observe_state(tracks, now, self.last_blink, cfg)
        c_min = min(t.confidence for t in tracks) if tracks else None

        a = choose_action(self.q, s, self.rng, cfg)
        if now - self.last_blink >= cfg.dt_max:
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
