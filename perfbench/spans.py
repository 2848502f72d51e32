"""Span tracer for the traced benchmark run.

The traced run replaces layer functions with timing wrappers at the
module that calls them (``rearguard.evaluation.assess``,
``rearguard.tracking.match``, ``rearguard.cli.read_trace``, ...) and at
the benchmark's own call sites.  No source file changes.  Each span
records its name, start, end, parent span and the tick and cell it ran
in; spans are kept in flat arrays in memory and written out once, at the
end of the run.

A wrapped name that is missing from its module is skipped and its
metrics read zero, so the same benchmark runs on a program whose layers
were refactored.  ``Tracer.installed()`` restores every attribute it
replaced, even when the traced run raises.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Spans whose parent is one of these run truth-side risk checks; every
# other assess call scores the tracker's estimate.
TRUTH_LABELLERS = ("evaluation.ground_truth_danger", "evaluation.observable_danger")

# Spans with calls and self time reported per layer.
SPANS = (
    "evaluation.compare",
    "evaluation.run_pipeline",
    "evaluation.observable_danger",
    "evaluation.ground_truth_danger",
    "tracking.advance",
    "tracking.snapshots",
    "tracking.step",
    "tracking.match",
    "tracking.update",
    "geometry.project_observation",
    "risk.assess",
    "sampler.decide",
    "scenario.generate",
    "scenario.in_sensing_footprint",
    "scenario.write_trace",
    "scenario.write_truth",
    "scenario.read_trace",
    "scenario.read_truth",
    "cli.main",
)
CODEC_SPANS = ("scenario.write_trace", "scenario.write_truth",
               "scenario.read_trace", "scenario.read_truth")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_decide(tracer, args, kwargs, result):
    tracer.counts["sampler.blinks"] += bool(result)


def _on_label(tracer, args, kwargs, result):
    truth_tick = _arg(args, kwargs, 0, "truth_tick")
    # holding the object keeps its id from being reused by a later tick
    tracer.labelled[id(truth_tick)] = truth_tick


def _on_match(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["match.detections"] += len(_arg(args, kwargs, 1, "detections"))
    counts["match.pairs"] += len(result.pairs)
    counts["match.unmatched_detections"] += len(result.unmatched_detections)


def _on_step(tracer, args, kwargs, result):
    counts = tracer.counts
    before = _arg(args, kwargs, 0, "tracker")
    after = result[0]
    counts["step.spawned"] += after.next_id - before.next_id
    counts["step.tracks"] += len(after.tracks)


def _on_codec(span):
    def hook(tracer, args, kwargs, result):
        tracer.counts[span + ".bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return hook


# The benchmark's own calls into the program, by key:
# (module, attribute, span, hook, opens).  `opens` starts a new tick or
# cell id for the spans recorded under it.
CALL_SITES = {
    "generate": ("rearguard.scenario", "generate", "scenario.generate", None, None),
    "compare": ("rearguard.evaluation", "compare", "evaluation.compare", None, None),
    "main": ("rearguard.cli", "main", "cli.main", None, "cell"),
    "advance": ("rearguard.tracking", "advance", "tracking.advance", None, "tick"),
    "snapshots": ("rearguard.tracking", "snapshots", "tracking.snapshots", None, None),
    "step": ("rearguard.tracking", "step", "tracking.step", _on_step, None),
    "assess": ("rearguard.risk", "assess", "risk.assess", None, None),
}

# The program's own call sites wrapped in the traced run, in the same
# form.  Missing ones are skipped.
PATCHES = (
    ("rearguard.evaluation", "run_pipeline", "evaluation.run_pipeline", None, "cell"),
    ("rearguard.cli", "run_pipeline", "evaluation.run_pipeline", None, "cell"),
    ("rearguard.evaluation", "ground_truth_danger", "evaluation.ground_truth_danger", None, None),
    ("rearguard.evaluation", "observable_danger", "evaluation.observable_danger", _on_label, None),
    ("rearguard.evaluation", "in_sensing_footprint", "scenario.in_sensing_footprint", None, None),
    ("rearguard.evaluation", "assess", "risk.assess", None, None),
    ("rearguard.evaluation", "advance", "tracking.advance", None, "tick"),
    ("rearguard.evaluation", "snapshots", "tracking.snapshots", None, None),
    ("rearguard.evaluation", "step", "tracking.step", _on_step, None),
    ("rearguard.evaluation", "generate", "scenario.generate", None, None),
    ("rearguard.tracking", "match", "tracking.match", _on_match, None),
    ("rearguard.tracking", "update", "tracking.update", None, None),
    ("rearguard.tracking", "snapshots", "tracking.snapshots", None, None),
    ("rearguard.geometry", "project_observation", "geometry.project_observation", None, None),
    ("rearguard.cli", "generate", "scenario.generate", None, None),
    ("rearguard.cli", "write_trace", "scenario.write_trace", _on_codec("scenario.write_trace"), None),
    ("rearguard.cli", "write_truth", "scenario.write_truth", _on_codec("scenario.write_truth"), None),
    ("rearguard.cli", "read_trace", "scenario.read_trace", _on_codec("scenario.read_trace"), None),
    ("rearguard.cli", "read_truth", "scenario.read_truth", _on_codec("scenario.read_truth"), None),
)

# Samplers are objects built by this factory; their decide() is wrapped
# on each instance it returns.
SAMPLER_FACTORY = ("rearguard.evaluation", "make_sampler")


def call_sites(tracer=None) -> dict:
    """The functions behind CALL_SITES, wrapped when a tracer is given.

    Resolve these before `Tracer.installed()`, so a call site never
    wraps a function the tracer already wrapped.
    """
    out = {}
    for key, (module, attr, span, hook, opens) in CALL_SITES.items():
        fn = getattr(importlib.import_module(module), attr)
        out[key] = fn if tracer is None else tracer.wrap(fn, span, hook, opens)
    return out


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.cell = array("i")
        self.tick = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.tick_id = -1
        self.cell_id = -1
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.hook_errors = 0
        self.missing: list[str] = []
        self.labelled: dict[int, object] = {}
        self._saved: list = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, span: str, hook=None, opens=None):
        """Return fn recording one span per call."""
        nid = self._id(span)
        name, parent, cell, tick = self.name, self.parent, self.cell, self.tick
        start, end, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            if opens == "tick":
                self.tick_id += 1
            elif opens == "cell":
                self.cell_id += 1
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            cell.append(self.cell_id)
            tick.append(self.tick_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[span] += 1
                raise
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.hook_errors += 1
            return result

        return traced

    def _wrap_sampler_factory(self, factory):
        def make(*args, **kwargs):
            smp = factory(*args, **kwargs)
            smp.decide = self.wrap(smp.decide, "sampler.decide", _on_decide)
            return smp
        return make

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site in PATCHES, restoring them on exit."""
        try:
            for module, attr, span, hook, opens in PATCHES:
                self._patch(module, attr, lambda fn: self.wrap(fn, span, hook, opens))
            self._patch(*SAMPLER_FACTORY, self._wrap_sampler_factory)
            yield self
        finally:
            for mod, attr, original in reversed(self._saved):
                setattr(mod, attr, original)
            self._saved.clear()

    def _patch(self, module, attr, make_wrapper):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(f"{module}.{attr}")
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make_wrapper(original))

    # ------------------------------------------------------------ results

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "cell": np.frombuffer(self.cell, dtype=np.int32),
            "tick": np.frombuffer(self.tick, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span, plus the name table, to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names or [""]), **self.arrays())

    def layer_metrics(self, wall_s: float, tps_traced: float, tps_untraced: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        a = self.arrays()
        n_names = max(len(self.names), 1)
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_ns, minlength=n_names) / 1e9

        out = {}
        for span in SPANS:
            i = self._ids.get(span)
            out[span + ".calls"] = (int(calls[i]) if i is not None else 0, "count")
            out[span + ".self_s"] = (float(self_s[i]) if i is not None else 0.0, "s")

        # risk.assess split by who asked: truth labelling or the tracker
        assess = self._ids.get("risk.assess")
        truth_ids = [self._ids[s] for s in TRUTH_LABELLERS if s in self._ids]
        truth_ns = track_ns = 0.0
        truth_n = track_n = 0
        if assess is not None:
            mask = a["name"] == assess
            parents = a["parent"][mask]
            parent_names = np.where(parents >= 0, a["name"][np.maximum(parents, 0)], -1)
            is_truth = np.isin(parent_names, truth_ids)
            truth_n, track_n = int(is_truth.sum()), int((~is_truth).sum())
            truth_ns = float(self_ns[mask][is_truth].sum())
            track_ns = float(self_ns[mask][~is_truth].sum())
        out["risk.assess.truth.calls"] = (truth_n, "count")
        out["risk.assess.truth.self_s"] = (truth_ns / 1e9, "s")
        out["risk.assess.track.calls"] = (track_n, "count")
        out["risk.assess.track.self_s"] = (track_ns / 1e9, "s")

        c = self.counts
        n_label = out["evaluation.observable_danger.calls"][0]
        n_step = out["tracking.step.calls"][0]
        n_decide = out["sampler.decide.calls"][0]
        out["evaluation.label_reuse"] = (_ratio(len(self.labelled), n_label), "ratio")
        out["tracking.update.failed"] = (self.failed["tracking.update"], "count")
        out["tracking.match.pair_ratio"] = (
            _ratio(c["match.pairs"], c["match.detections"]), "ratio")
        out["tracking.step.spawn_ratio"] = (
            _ratio(c["step.spawned"], c["match.unmatched_detections"]), "ratio")
        out["tracking.step.tracks_mean"] = (_ratio(c["step.tracks"], n_step), "tracks")
        out["sampler.blink_ratio"] = (_ratio(c["sampler.blinks"], n_decide), "ratio")
        for span in CODEC_SPANS:
            out[span + ".bytes"] = (c[span + ".bytes"], "bytes")

        attributed = float(self_ns.sum()) / 1e9
        out["trace.spans"] = (len(dur), "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - attributed, "s")
        out["trace.speed_ratio"] = (_ratio(tps_traced, tps_untraced), "ratio")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
