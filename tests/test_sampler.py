"""Sampler tests: binning, schedules, the TD update, persistence, and
convergence on the toy MDP (full 10-seed sweep lives in acceptance)."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toy_mdp
from rearguard import scenario
from rearguard.sampler import (
    BLINK,
    MAX_CONFIDENCE,
    MAX_DT_S,
    MAX_ETA,
    MAX_PERIOD,
    SKIP,
    QTable,
    SamplerConfig,
    SamplerState,
    SarsaSampler,
    bin_index,
    choose_action,
    epsilon,
    greedy_action,
    load_qtable,
    observe_state,
    reward,
    sarsa_update,
    save_qtable,
)
from rearguard.scenario import InvalidConfig, ParseError

CFG = SamplerConfig()


@dataclass
class Snap:
    confidence: float
    range: float


# ----------------------------------------------------------------- config

KNOB_RULES = {
    "period": "period: must be a finite number",
    "p": "p: must be a finite number",
    "c_min": "c_min: must be a finite number",
}


@pytest.mark.parametrize("field", list(KNOB_RULES))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False])   # a bool is no number
def test_non_finite_baseline_knobs_are_config_errors(field, value):
    with pytest.raises(InvalidConfig, match=re.escape(f"{KNOB_RULES[field]}, got {value!r}")):
        SamplerConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("period", 0.5, "period: must be at least one tick, got 0.5"),
    ("p", -0.1, "p: must be a blink probability in [0, 1], got -0.1"),
    ("p", 1.5, "p: must be a blink probability in [0, 1], got 1.5"),
], ids=["period-below-one-tick", "p-negative", "p-above-one"])
def test_baseline_knobs_out_of_range_are_config_errors(field, value, message):
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        SamplerConfig(**{field: value})


@pytest.mark.parametrize("field", ["sample_cost", "epsilon0", "eta", "beta"])
# a nan eta used to read "must be positive": finite first, then range
@pytest.mark.parametrize("value", ["0.1", None, True, math.nan], ids=["str", "none", "bool", "nan"])
def test_non_number_learning_field_is_a_config_error(field, value):
    with pytest.raises(InvalidConfig, match=re.escape(f"{field}: must be a finite number, got {value!r}")):
        SamplerConfig(**{field: value})


def test_baseline_knobs_at_their_edges_are_accepted():
    cfg = SamplerConfig(period=1.0, p=0.0, c_min=5e-324)
    assert (cfg.period, cfg.p, cfg.c_min) == (1.0, 0.0, 5e-324)
    cfg = SamplerConfig(period=MAX_PERIOD, p=1.0, c_min=MAX_CONFIDENCE)
    assert (cfg.period, cfg.p, cfg.c_min) == (MAX_PERIOD, 1.0, MAX_CONFIDENCE)


# every field had no upper bound (and c_min no bound at all), so 1e308 loaded;
# a sample_cost of -1e308 learned NaN Q-values, a c_min of -1 never blinked on a track
@pytest.mark.parametrize("field, value, message", [
    ("sample_cost", -1e308, "sample_cost: must be at least -1e+06, got -1e+308"),
    ("c_min", -1.0, "c_min: must be in (0, 1e+06], got -1.0"),
    ("c_min", 0.0, "c_min: must be in (0, 1e+06], got 0.0"),
    ("c_min", 1e308, "c_min: must be in (0, 1e+06], got 1e+308"),
    ("eta", 1e308, "eta: must be at most 1 per tick, got 1e+308"),
    ("dt_max", 1e308, "dt_max: must be at most 1e+06 s, got 1e+308"),
    ("period", 1e308, "period: must be at most 1e+09 ticks, got 1e+308"),
    ("conf_edges", (0.02, 0.1, 1e308), "conf_edges: must lie in [0, 1e+06], got (0.02, 0.1, 1e+308)"),
    ("conf_edges", (-0.5, 0.1, 0.5), "conf_edges: must lie in [0, 1e+06], got (-0.5, 0.1, 0.5)"),
    ("dist_edges", (5.0, 10.0, 1e308), "dist_edges: must lie in [0, 1000] m, got (5.0, 10.0, 1e+308)"),
    ("dt_edges", (0.2, 0.5, 1e308), "dt_edges: must lie in [0, 1e+06] s, got (0.2, 0.5, 1e+308)"),
], ids=["sample-cost", "c-min-negative", "c-min-zero", "c-min-huge", "eta", "dt-max", "period",
        "conf-edges-huge", "conf-edges-negative", "dist-edges", "dt-edges"])
def test_knobs_beyond_their_physical_bounds_are_config_errors(field, value, message):
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        SamplerConfig(**{field: value})


def test_knobs_at_their_physical_bounds_are_accepted():
    cfg = SamplerConfig(sample_cost=-MAX_CONFIDENCE, eta=MAX_ETA, dt_max=MAX_DT_S,
                        conf_edges=(0.0, MAX_CONFIDENCE), dist_edges=(0.0, 1000.0),
                        dt_edges=(0.0, MAX_DT_S))
    assert (cfg.sample_cost, cfg.eta, cfg.dt_max) == (-MAX_CONFIDENCE, MAX_ETA, MAX_DT_S)
    # a dt_max beyond the latest time a scenario reaches would never fire
    assert MAX_DT_S == scenario.MAX_SECONDS


# ----------------------------------------------------------------- states

def test_bin_edge_goes_to_higher_bin():
    assert bin_index(0.02, CFG.conf_edges) == 1
    assert bin_index(0.1, CFG.conf_edges) == 2
    assert bin_index(0.019, CFG.conf_edges) == 0
    assert bin_index(0.6, CFG.conf_edges) == 3


def test_observe_state_empty():
    s = observe_state([], 0.05, 0.0, CFG)
    assert s == SamplerState(CFG.no_tracks_bin, 3, 0)


def test_observe_state_uses_lowest_confidence_track():
    snaps = [Snap(0.4, 8.0), Snap(0.03, 18.0)]
    s = observe_state(snaps, 1.0, 0.7, CFG)
    assert s.conf_bin == 1      # 0.03 in (0.02, 0.1]
    assert s.dist_bin == 2      # 18 m in (10, 20]
    assert s.dt_bin == 1        # 0.3 s in (0.2, 0.5]


def test_observe_state_rejects_backwards_time():
    with pytest.raises(ValueError):
        observe_state([], 0.0, 1.0, CFG)


# -------------------------------------------------------------- schedules

def test_epsilon_schedule_values():
    assert epsilon(SamplerConfig(eta=0.1), 0) == 1.0
    assert epsilon(SamplerConfig(eta=0.1), 90) == pytest.approx(0.1)


def test_epsilon_strictly_decreasing_and_diverging():
    cfg = SamplerConfig(eta=0.1)
    eps = np.array([epsilon(cfg, t) for t in range(0, 1000)])
    assert np.all(np.diff(eps) < 0)
    # harmonic-like divergence: partial sum stays close to the log integral
    t = np.arange(1, 10**6 + 1, dtype=float)
    partial = float(np.sum(cfg.epsilon0 / (1.0 + cfg.eta * t)))
    bound = 0.99 * cfg.epsilon0 * math.log(1.0 + cfg.eta * 10**6) / cfg.eta
    assert partial > bound


def test_choose_action_pure_exploitation():
    q = QTable(tick=10**9)     # epsilon effectively zero
    s = SamplerState(1, 0, 0)
    q.values[(s, SKIP)] = 0.2
    q.values[(s, BLINK)] = 0.7
    rng = np.random.default_rng(0)
    assert choose_action(q, s, rng, CFG) == BLINK


def test_greedy_tie_prefers_blink():
    q = QTable()
    assert greedy_action(q, SamplerState(0, 0, 0)) == BLINK


def test_choose_action_explores_at_start():
    q = QTable()   # tick 0, epsilon = 1: every action is a coin flip
    s = SamplerState(1, 0, 0)
    q.values[(s, SKIP)] = 100.0
    rng = np.random.default_rng(1)
    picks = {choose_action(q, s, rng, CFG) for _ in range(50)}
    assert picks == {SKIP, BLINK}


# ----------------------------------------------------------------- update

def test_reward_formula():
    assert reward(1, 0.2, -0.05) == pytest.approx(0.15)
    assert reward(0, 0.0, -0.05) == 0.0
    assert reward(1, 0.0, -0.05) == -0.05


def test_sarsa_first_visit_adopts_target():
    q = QTable()
    s, s2 = SamplerState(0, 0, 0), SamplerState(1, 0, 0)
    sarsa_update(q, s, SKIP, 1.0, s2, SKIP, 0.9)
    assert q.values[(s, SKIP)] == 1.0
    assert q.visits[(s, SKIP)] == 1
    assert q.tick == 1


def test_sarsa_zero_everything_is_fixed_point():
    q = QTable()
    s = SamplerState(0, 0, 0)
    sarsa_update(q, s, SKIP, 0.0, s, SKIP, 0.9)
    assert q.values[(s, SKIP)] == 0.0


def test_sarsa_second_visit_hand_value():
    q = QTable()
    s, s2 = SamplerState(0, 0, 0), SamplerState(1, 0, 0)
    q.values[(s, BLINK)] = 1.0
    q.visits[(s, BLINK)] = 1
    q.values[(s2, SKIP)] = 1.0
    sarsa_update(q, s, BLINK, 0.0, s2, SKIP, 0.9)
    # 1 + (1/2)(0 + 0.9*1 - 1) = 0.95
    assert q.values[(s, BLINK)] == pytest.approx(0.95)
    assert q.visits[(s, BLINK)] == 2


def test_sarsa_leaves_other_entries_alone():
    q = QTable()
    s, other = SamplerState(0, 0, 0), SamplerState(2, 2, 2)
    q.values[(other, SKIP)] = 5.0
    sarsa_update(q, s, SKIP, 1.0, s, SKIP, 0.9)
    assert q.values[(other, SKIP)] == 5.0
    assert (other, SKIP) not in q.visits


def test_visit_counts_equal_update_calls():
    q = QTable()
    s = SamplerState(0, 0, 0)
    for _ in range(7):
        sarsa_update(q, s, SKIP, 0.1, s, SKIP, 0.9)
    assert q.visits[(s, SKIP)] == 7
    assert q.tick == 7


# ------------------------------------------------------------ persistence

def test_qtable_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    q = QTable(tick=4321)
    for cb in range(5):
        for a in (SKIP, BLINK):
            key = (SamplerState(cb, int(rng.integers(0, 4)), int(rng.integers(0, 4))), a)
            q.values[key] = float(rng.normal() * 10.0 ** rng.integers(-8, 3))
            q.visits[key] = int(rng.integers(0, 10**6))
    path = tmp_path / "q.txt"
    save_qtable(q, path)
    q2 = load_qtable(path, CFG)
    assert q2.values == q.values
    assert q2.visits == q.visits
    assert q2.tick == q.tick
    # and a second save is byte-identical
    path2 = tmp_path / "q2.txt"
    save_qtable(q2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_qtable_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        load_qtable(path, CFG)


@pytest.mark.parametrize("body, message", [
    ("tick -10\n", "line 2: tick must be non-negative, got -10"),
    ("tick 3\n0 1 2 1 -0.5 4\n0 1 2 0 nan 4\n", "line 4: value must be finite, got nan"),
    ("tick 3\n0 1 2 1 -inf 4\n", "line 3: value must be finite, got -inf"),
    ("tick 3\n0 1 2 1 -0.5 -1\n", "line 3: visit count must be non-negative, got -1"),
    ("tick 3\n0 1 2 2 -0.5 4\n", "line 3: action must be 0 or 1, got 2"),
    ("tick 3\n0 1 2 -1 -0.5 4\n", "line 3: action must be 0 or 1, got -1"),
    ("tick 3\n-1 1 2 1 -0.5 4\n",
     "line 3: state bins must be non-negative and at most (4, 3, 3), got (-1, 1, 2)"),
    # bins the run's config cannot give used to load, unread, and be written back out
    ("tick 3\n99 1 2 1 1.0 1\n",
     "line 3: state bins must be non-negative and at most (4, 3, 3), got (99, 1, 2)"),
    ("tick 3\n4 3 3 1 1.0 1\n4 4 3 1 1.0 1\n",
     "line 4: state bins must be non-negative and at most (4, 3, 3), got (4, 4, 3)"),
    ("tick 3\n4 3 4 1 1.0 1\n",
     "line 3: state bins must be non-negative and at most (4, 3, 3), got (4, 3, 4)"),
    ("tick 3\n0 1 2 1 0.5 4\n0 1 2 1 0.7 4\n",
     "line 4: repeated row for state (0, 1, 2) and action 1"),
    ("foo 3\n", "line 2: expected 'tick <count>', got 'foo 3'"),
    ("tick 3 4\n", "line 2: too many values to unpack"),
], ids=["tick-negative", "value-nan", "value-inf", "visits-negative", "action-two",
        "action-negative", "bin-negative", "conf-bin-above", "dist-bin-above", "dt-bin-above",
        "row-repeated", "tick-mislabelled", "tick-extra-field"])
def test_qtable_load_rejects_what_save_never_writes(tmp_path, body, message):
    path = tmp_path / "q.txt"
    path.write_text(f"rearguard-qtable v1\n{body}")
    with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
        load_qtable(path, CFG)


def test_qtable_load_checks_bins_against_the_runs_config(tmp_path):
    """The top bins load under the config that has them, not under one with fewer edges."""
    path = tmp_path / "q.txt"
    path.write_text("rearguard-qtable v1\ntick 3\n4 3 3 1 1.0 1\n")
    assert list(load_qtable(path, CFG).values) == [(SamplerState(4, 3, 3), BLINK)]
    with pytest.raises(ParseError, match=re.escape("line 3: state bins must be non-negative and "
                                                   "at most (2, 3, 3), got (4, 3, 3)")):
        load_qtable(path, SamplerConfig(conf_edges=(0.1,)))


def test_qtable_load_keeps_an_unvisited_pair(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("rearguard-qtable v1\ntick 0\n0 1 2 1 0.0 0\n")
    q = load_qtable(path, CFG)
    assert (q.tick, q.values, q.visits) == (
        0, {(SamplerState(0, 1, 2), BLINK): 0.0}, {(SamplerState(0, 1, 2), BLINK): 0})


# ----------------------------------------------------------- agent loop

def _scripted_snaps(i):
    if i % 7 < 3:
        return []
    return [Snap(confidence=1.0 / (1 + i % 11), range=4.0 + (i % 5) * 6.0)]


def test_agent_is_deterministic_given_seed():
    seqs = []
    for _ in range(2):
        agent = SarsaSampler(CFG, np.random.default_rng(99))
        seqs.append([agent.decide(_scripted_snaps(i), i * 0.1) for i in range(300)])
    assert seqs[0] == seqs[1]
    assert any(seqs[0])


def test_forced_blink_valve():
    cfg = SamplerConfig(dt_max=0.3)
    agent = SarsaSampler(cfg, np.random.default_rng(5), qtable=QTable(tick=10**9))
    # teach the table to always skip; the valve must still fire
    for cb in range(cfg.no_tracks_bin + 1):
        for db in range(4):
            for tb in range(4):
                s = SamplerState(cb, db, tb)
                agent.q.values[(s, SKIP)] = 10.0
                agent.q.values[(s, BLINK)] = -10.0
    gaps = []
    last = 0.0
    for i in range(1, 60):
        now = i * 0.1
        if agent.decide([], now):
            gaps.append(now - last)
            last = now
    assert gaps, "valve never fired"
    assert max(gaps) <= cfg.dt_max + 0.1001


@pytest.mark.parametrize("tracks", [[], [Snap(0.3, 6.0)]], ids=["empty", "tracked"])
def test_decide_rejects_a_time_before_the_last_blink(tracks):
    agent = SarsaSampler(CFG, np.random.default_rng(0))
    assert agent.decide([], 5.0)   # past dt_max: the valve blinks
    with pytest.raises(ValueError, match="now precedes last_blink"):
        agent.decide(tracks, 4.9)


class _ReferenceSarsa(SarsaSampler):
    """SarsaSampler.decide as it read before the no-tracks states were
    built once: observe_state, choose_action, reward and sarsa_update on
    every tick."""

    def decide(self, tracks, now: float) -> bool:
        cfg = self.config
        s = observe_state(tracks, now, self.last_blink, cfg)
        c_min = min(t.confidence for t in tracks) if tracks else None

        a = choose_action(self.q, s, self.rng, cfg)
        if now - self.last_blink >= cfg.dt_max:
            a = BLINK

        if self._pending is not None:
            s_prev, a_prev, c_prev = self._pending
            delta = 0.0 if (c_prev is None or c_min is None) else c_min - c_prev
            r = reward(a_prev, delta, cfg.sample_cost)
            sarsa_update(self.q, s_prev, a_prev, r, s, a, cfg.beta)

        self._pending = (s, a, c_min)
        if a == BLINK:
            self.last_blink = now
        return a == BLINK


_snap = st.builds(Snap, st.floats(0.0, 1.0), st.floats(0.5, 40.0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       start_tick=st.sampled_from([0, 10, 10**4, 10**9]),
       dt_max=st.floats(0.15, 2.5),
       steps=st.lists(st.tuples(
           # mostly one tick apart, sometimes a gap past any dt_max
           st.one_of(st.just(0.1), st.floats(0.0, 3.0)),
           st.one_of(st.just([]), st.lists(_snap, max_size=4))), max_size=80))
def test_decide_equals_the_reference_loop(tmp_path_factory, seed, start_tick, dt_max, steps):
    cfg = SamplerConfig(dt_max=dt_max)
    agent = SarsaSampler(cfg, np.random.default_rng(seed), QTable(tick=start_tick))
    ref = _ReferenceSarsa(cfg, np.random.default_rng(seed), QTable(tick=start_tick))
    now = 0.0
    for gap, tracks in steps:
        now += gap
        assert agent.decide(tracks, now) == ref.decide(tracks, now)
    assert (agent.q.values, agent.q.visits, agent.q.tick) == (ref.q.values, ref.q.visits, ref.q.tick)
    assert agent.rng.random() == ref.rng.random()   # the same draws were taken
    out = tmp_path_factory.mktemp("q")
    save_qtable(agent.q, out / "agent.txt")
    save_qtable(ref.q, out / "ref.txt")
    assert (out / "agent.txt").read_bytes() == (out / "ref.txt").read_bytes()


# ----------------------------------------------------------- convergence

def test_toy_mdp_converges_to_value_iteration():
    q_star = toy_mdp.value_iteration(toy_mdp.TOY_CONFIG.beta)
    # sanity on the oracle itself: optimal policy is skip/skip/blink
    assert q_star[(toy_mdp.EMPTY, SKIP)] > q_star[(toy_mdp.EMPTY, BLINK)]
    assert q_star[(toy_mdp.GOOD, SKIP)] > q_star[(toy_mdp.GOOD, BLINK)]
    assert q_star[(toy_mdp.STALE, BLINK)] > q_star[(toy_mdp.STALE, SKIP)]

    for seed in (0, 1, 2):
        q = toy_mdp.run_sarsa(50_000, seed)
        err = max(abs(q.get(s, a) - q_star[(s, a)]) for s, a in q_star)
        assert err <= 0.05, f"seed {seed}: max Q error {err:.4f}"
        for s in toy_mdp.STATES:
            want = max((SKIP, BLINK), key=lambda a: q_star[(s, a)])
            assert greedy_action(q, s) == want, f"seed {seed}"


def test_trained_policy_behaviors():
    q = toy_mdp.run_sarsa(50_000, 7)
    # low-confidence object at 4 m: blink
    assert greedy_action(q, toy_mdp.STALE) == BLINK
    # idle with no tracks right after a blink: skip nearly always
    rng = np.random.default_rng(11)
    skips = sum(
        1 for _ in range(100) if choose_action(q, toy_mdp.EMPTY, rng, toy_mdp.TOY_CONFIG) == SKIP
    )
    assert skips > 80
