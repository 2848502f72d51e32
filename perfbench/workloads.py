"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (`build`), runs
one pass over them (`op`), and says what every pass's outputs must be
(`expected`).  Every pass repeats the same work.  `build` and `op` reach
the program only through `calls`, the benchmark's own call sites (see
`spans.CALL_SITES`), which the traced run wraps.  The load is a closed
loop with a single stream: each tick or command starts when the
previous one returned.

A pass returns its ticks, its timed work in host-seconds (wall time
corrected for the shared host's load, see host.py), the latency of each
pipeline tick in host-microseconds, and `outputs`:
(key, digest, n_ops) triples, one per checked output.  An output whose
digest is None (the pass raised or a command exited nonzero) or differs
from `expected()[key]` counts its n_ops as failed.

Only public entry points are called: `evaluation.compare`,
`evaluation.run_pipeline`, `evaluation.make_sampler`,
`tracking.advance/snapshots/step`, `risk.assess`, `scenario.generate`
and `cli.main`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from rearguard import cli, evaluation, sampler, scenario, tracking

from host import PERIOD_S

CONFIG = evaluation.PipelineConfig()

# crowded: dense slow traffic right behind a standing user, so several
# tracks are live at once and association plus multi-track filtering
# dominate the tick.  Ten short scenarios rather than a few long ones:
# the cost of a scenario, its slowest ticks above all, depends on how
# its random vehicles bunch up, and averaging ten independent draws
# keeps one seed's load close to another's.
CROWDED_SCENARIOS = 10
CROWDED_VEHICLES = 80
CROWDED_DURATION_S = 60.0


def derive(seed: int, *tags) -> int:
    """A 60-bit child seed, stable for (seed, tags)."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int(hashlib.sha256(text.encode()).hexdigest()[:15], 16)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    ticks: int           # pipeline ticks the pass completed
    host_s: float        # the pass's timed work, in host-seconds
    tick_us: list        # host-microseconds of each timed tick
    outputs: list = field(default_factory=list)   # (key, digest, n_ops)


# ------------------------------------------------------------ online loop

def online_pass(streams, kind: str, calls, host) -> OpResult:
    """The headset loop over every trace in order, as one stream.

    Mirrors the per-tick body of `evaluation.run_pipeline` without its
    labelling and scoring: advance, snapshots, decide, step on a blink,
    assess.  Each trace starts a fresh tracker and sampler, as a
    pipeline run does, so the (blink, alert, gamma) sequence must equal
    `run_pipeline(..., keep_ticks=True).ticks` for the same trace and
    seed.  A tick is timed from advance through assess; the host probe
    runs between ticks.
    """
    starts, lat, seq = [], [], []
    tcfg = CONFIG.tracker
    advance, snapshots, step = calls["advance"], calls["snapshots"], calls["step"]
    assess = calls["assess"]
    for frames, _truth, camera, _fov, seed in streams:
        smp = evaluation.make_sampler(kind, CONFIG, np.random.default_rng(seed))
        tracker = tracking.TrackerState()
        intr, height = camera.intrinsics, camera.camera_height
        for frame in frames:
            t0 = perf_counter()
            tracker = advance(tracker, frame.t, tcfg)
            snaps = snapshots(tracker)
            blink = smp.decide(snaps, frame.t)
            if blink:
                tracker, snaps = step(tracker, frame, tcfg, intr, height)
            result = assess(snaps, CONFIG.reaction_time, CONFIG.alert_threshold, now=frame.t)
            t1 = perf_counter()
            starts.append(t0)
            lat.append(t1 - t0)
            seq.append((blink, result.alert, result.gamma_overall))
            if t1 - host.last >= PERIOD_S:
                host.sample()
    tick_s = np.asarray(lat) * host.factor(np.asarray(starts))
    return OpResult(len(seq), float(tick_s.sum()), list(tick_s * 1e6),
                    [("stream", _seq_digest(seq), 1)])


def _seq_digest(seq) -> str:
    return sha256(json.dumps(seq).encode())


def _reference_stream(streams, kind: str) -> str:
    seq = []
    for frames, truth, camera, fov, seed in streams:
        rep = evaluation.run_pipeline(frames, truth, kind, CONFIG, seed=seed,
                                      camera=camera, fov=fov, keep_ticks=True)
        seq.extend((t.blink, t.alert, t.gamma) for t in rep.ticks)
    return _seq_digest(seq)


class OnlineSarsa:
    """The learned sampler over the 20 standard traces as one stream."""

    name = "online-sarsa"
    kind = "sarsa"
    ops_per_pass = 1

    def scenarios(self, seed):
        return list(evaluation.standard_suite())

    def build(self, seed, calls):
        streams = []
        for i, (_name, scen) in enumerate(self.scenarios(seed)):
            frames, truth = calls["generate"](scen)
            streams.append((frames, truth, scen.camera, scen.detector.fov,
                            derive(seed, self.name, i)))
        return streams

    def op(self, streams, calls, host) -> OpResult:
        return online_pass(streams, self.kind, calls, host)

    def expected(self, streams) -> dict:
        return {"stream": _reference_stream(streams, self.kind)}


def crowded_scenario(seed: int) -> scenario.ScenarioConfig:
    """Dense traffic closing slowly on a standing user, drawn from seed."""
    rng = np.random.default_rng(seed)
    spawns = np.sort(rng.uniform(0.0, CROWDED_DURATION_S - 1.0, CROWDED_VEHICLES))
    vehicles = []
    for t in spawns:
        vehicles.append(scenario.VehicleConfig(
            cls="car" if rng.random() < 0.75 else "cycle",
            spawn_time=float(t),
            x0=float(rng.uniform(-8.0, 8.0)),
            z0=-float(rng.uniform(6.0, 12.0)),
            speed=float(rng.uniform(0.1, 0.4)),
        ))
    return scenario.ScenarioConfig(
        seed=int(rng.integers(2**31)),
        duration=CROWDED_DURATION_S,
        user=scenario.UserConfig(mode="standing"),
        vehicles=tuple(vehicles),
    )


class Crowded(OnlineSarsa):
    """Every-frame sampling over dense scenarios built from the seed."""

    name = "crowded"
    kind = "everyframe"

    def scenarios(self, seed):
        return [(f"crowded-{i}", crowded_scenario(derive(seed, self.name, "scenario", i)))
                for i in range(CROWDED_SCENARIOS)]


# ------------------------------------------------------------ offline loops

@contextlib.contextmanager
def pipeline_ticks(host):
    """Time the ticks of every pipeline run made inside the block.

    A tick of `run_pipeline` runs from one `advance` call to the next;
    the last tick of a run also holds the run's scoring and is dropped.
    The host probe runs between ticks.  Yields the list that receives
    each tick's host-microseconds; it stays empty if the pipeline stops
    calling `evaluation.advance`.
    """
    ticks_us, starts, lat = [], [], []
    open_tick = [None]
    advance = evaluation.advance
    runs = {mod: mod.run_pipeline for mod in (evaluation, cli)}

    def marked_advance(*args, **kwargs):
        now = perf_counter()
        if open_tick[0] is not None:
            starts.append(open_tick[0])
            lat.append(now - open_tick[0])
        if now - host.last >= PERIOD_S:
            host.sample()
        open_tick[0] = perf_counter()
        return advance(*args, **kwargs)

    def marked(run_pipeline):
        def marked_run(*args, **kwargs):
            open_tick[0] = None
            try:
                return run_pipeline(*args, **kwargs)
            finally:
                open_tick[0] = None
        return marked_run

    evaluation.advance = marked_advance
    for mod, run_pipeline in runs.items():
        mod.run_pipeline = marked(run_pipeline)
    try:
        yield ticks_us
    finally:
        evaluation.advance = advance
        for mod, run_pipeline in runs.items():
            mod.run_pipeline = run_pipeline
        if lat:
            ticks_us.extend(np.asarray(lat) * host.factor(np.asarray(starts)) * 1e6)


class SuiteCompare:
    """`compare` over the standard suite with all five samplers.

    The seed only shuffles the order the scenarios are handed over in;
    the comparison is order-independent, so every seed must reproduce
    the recorded digest.
    """

    name = "suite-compare"

    def __init__(self, recorded_digest: str):
        self.recorded = recorded_digest

    @property
    def ops_per_pass(self):
        return len(evaluation.standard_suite()) * len(evaluation.SAMPLER_KINDS)

    def build(self, seed, calls):
        suite = list(evaluation.standard_suite())
        order = np.random.default_rng(derive(seed, self.name)).permutation(len(suite))
        return [suite[i] for i in order]

    def op(self, suite, calls, host) -> OpResult:
        with pipeline_ticks(host) as tick_us:
            t0 = perf_counter()
            rep = calls["compare"](suite, evaluation.SAMPLER_KINDS, CONFIG)
            t1 = perf_counter()
        host_s = host.seconds(t0, t1)
        ticks = sum(r.n_ticks for r in rep.runs)
        payload = json.dumps(evaluation.comparison_to_dict(rep), sort_keys=True, indent=2)
        return OpResult(ticks, host_s, tick_us or [host_s / ticks * 1e6],
                        [("comparison", sha256(payload.encode() + b"\n"), len(rep.runs))])

    def expected(self, suite) -> dict:
        return {"comparison": self.recorded}


# ------------------------------------------------------------ file round trip

RUN_FILES = ("report.json", "events.jsonl", "qtable.txt")
TRACE_FILES = ("trace.jsonl", "truth.jsonl")


class FileRoundtrip:
    """`rearguard generate` then `rearguard run` with the sarsa sampler
    from the trace files, for every standard scenario, through
    `cli.main`."""

    name = "file-roundtrip"

    def __init__(self, workdir: Path):
        self.workdir = workdir   # relative to the repository root

    @property
    def ops_per_pass(self):
        return 2 * len(evaluation.standard_suite())

    def build(self, seed, calls):
        jobs = []
        for i, (name, scen) in enumerate(evaluation.standard_suite()):
            d = self.workdir / name
            d.mkdir(parents=True, exist_ok=True)
            gen_seed = derive(seed, self.name, "generate", i) % 2**31
            run_seed = derive(seed, self.name, "run", i) % 2**31
            scen_yaml = d / "scenario.yaml"
            scen_yaml.write_text(yaml.safe_dump(scenario.config_to_dict(scen)))
            run_yaml = d / "run.yaml"
            run_yaml.write_text(yaml.safe_dump({
                "seed": run_seed,
                "warmup_s": CONFIG.warmup_s,
                "label": name,
                "trace": str(d / "trace.jsonl"),
                "truth": str(d / "truth.jsonl"),
                "sampler": {"kind": "sarsa"},
            }))
            jobs.append({
                "name": name, "scen": scen, "dir": d,
                "gen_seed": gen_seed, "run_seed": run_seed,
                "generate": ["generate", "--config", str(scen_yaml),
                             "--seed", str(gen_seed), "--out", str(d)],
                "run": ["run", "--config", str(run_yaml), "--out", str(d / "run")],
            })
        return jobs

    def op(self, jobs, calls, host) -> OpResult:
        ticks, host_s, outputs = 0, 0.0, []
        with pipeline_ticks(host) as tick_us:
            for job in jobs:
                t0 = perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    gen_code = calls["main"](job["generate"])
                    run_code = calls["main"](job["run"])
                host_s += host.seconds(t0, perf_counter())
                run_dir = job["dir"] / "run"
                outputs.append((job["name"] + "/generate",
                                self._digest(job["dir"], TRACE_FILES) if gen_code == 0 else None, 1))
                outputs.append((job["name"] + "/run",
                                self._digest(run_dir, RUN_FILES) if run_code == 0 else None, 1))
                if run_code == 0:
                    ticks += json.loads((run_dir / "report.json").read_text())["report"]["n_ticks"]
        return OpResult(ticks, host_s, tick_us or [host_s / max(ticks, 1) * 1e6], outputs)

    @staticmethod
    def _digest(directory: Path, names) -> str:
        return sha256(b"".join((directory / n).read_bytes() for n in names))

    @staticmethod
    def _content(run_dir: Path):
        """What a run reports, in a form the in-process reference can
        rebuild: report and alert events as parsed JSON, Q-table bytes."""
        report = json.loads((run_dir / "report.json").read_text())["report"]
        events = [json.loads(line) for line in
                  (run_dir / "events.jsonl").read_text().splitlines()]
        return json.loads(json.dumps([report, events])), (run_dir / "qtable.txt").read_bytes()

    def expected(self, jobs) -> dict:
        """Outputs the commands must have written.

        generate: the bytes the program's own generator and trace writers
        give in process.  run: the bytes of the command's last output,
        provided their content equals an in-process pipeline run with the
        file route's configuration; passes must agree byte for byte.
        """
        out = {}
        for job in jobs:
            scen = dataclasses.replace(job["scen"], seed=job["gen_seed"])
            ref = job["dir"] / "ref"
            ref.mkdir(exist_ok=True)
            frames, truth = scenario.generate(scen)
            scenario.write_trace(ref / "trace.jsonl", scen, frames)
            scenario.write_truth(ref / "truth.jsonl", scen, truth)
            out[job["name"] + "/generate"] = self._digest(ref, TRACE_FILES)

            qtable = sampler.QTable()
            rep = evaluation.run_pipeline(
                frames, truth, "sarsa", CONFIG, seed=job["run_seed"],
                camera=scen.camera, fov=scen.detector.fov, qtable=qtable,
                scenario_label=job["name"],
            )
            (ref / "report.json").write_text(json.dumps(
                {"report": evaluation.report_to_dict(rep)}))
            (ref / "events.jsonl").write_text("".join(
                json.dumps(dataclasses.asdict(ev)) + "\n" for ev in rep.alert_events))
            sampler.save_qtable(qtable, ref / "qtable.txt")
            run_dir = job["dir"] / "run"
            try:
                same = self._content(run_dir) == self._content(ref)
            except (OSError, ValueError, KeyError):
                same = False
            out[job["name"] + "/run"] = (self._digest(run_dir, RUN_FILES) if same
                                         else "differs from the in-process run")
        return out
