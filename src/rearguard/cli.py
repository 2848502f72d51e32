"""Command-line front end: trace generation, single runs, comparisons.

Three subcommands cover the artifact's workflows:

  generate   scenario config -> trace + truth files
  run        one sampler over one trace -> report, event log, Q-table
  compare    sampler grid over a scenario suite -> aggregated report

Each is driven by a YAML config plus a few flag overrides.  Output files
embed a hash of the resolved configuration, so any report can be traced
back to exactly what produced it, and rerunning with the same config and
seed reproduces the bytes.

Exit codes: 0 success, 2 configuration error, 3 unreadable or invalid
input file (with its line number), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import yaml

from .evaluation import (
    REPORT_NOTES,
    SAMPLER_KINDS,
    PipelineConfig,
    compare,
    comparison_to_dict,
    config_digest,
    format_comparison,
    report_to_dict,
    run_pipeline,
    standard_suite,
)
from .risk import DEFAULT_ALERT_THRESHOLD, DEFAULT_REACTION_TIME_S
from .sampler import QTable, SamplerConfig, load_qtable, save_qtable
from .scenario import (
    DEFAULT_FOV,
    CameraConfig,
    InvalidConfig,
    ParseError,
    VersionMismatch,
    build_config,
    check_aligned,
    config_from_dict,
    generate,
    read_trace,
    read_truth,
    write_trace,
    write_truth,
)
from .tracking import TrackerConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


# ------------------------------------------------------------ config io

def _load_yaml(path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path}: top level must be a mapping")
    return raw


def _block(raw: dict, key: str) -> dict:
    """A top-level config block as a fresh mapping; absent or null is empty."""
    block = raw.get(key) or {}
    if not isinstance(block, dict):
        raise InvalidConfig(f"{key}: must be a mapping")
    return dict(block)


def _convert(conv, value, key: str):
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{key}: {exc}") from exc


def _non_negative_int(value) -> int:
    value = int(value)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _positive_float(value) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError("must be positive")
    return value


SAMPLER_ALIASES = {"period": "interval_period", "p": "random_p", "c_min": "c_min"}


def _pipeline_config(raw: dict, warmup_s) -> PipelineConfig:
    """Assemble the pipeline config from the tracker/sampler/risk blocks."""
    tracker = build_config(TrackerConfig, raw.get("tracker"), "tracker")

    sam_raw = _block(raw, "sampler")
    sam_raw.pop("kind", None)
    sam_raw.pop("qtable", None)
    overrides = {
        field: _convert(float, sam_raw.pop(key), f"sampler.{key}")
        for key, field in SAMPLER_ALIASES.items() if key in sam_raw
    }
    sampler = build_config(SamplerConfig, sam_raw, "sampler")

    risk_raw = _block(raw, "risk")
    reaction = _convert(_positive_float, risk_raw.pop("reaction_time", DEFAULT_REACTION_TIME_S),
                        "risk.reaction_time")
    threshold = _convert(float, risk_raw.pop("alert_threshold", DEFAULT_ALERT_THRESHOLD),
                         "risk.alert_threshold")
    if risk_raw:
        raise InvalidConfig(", ".join(f"risk.{k}" for k in sorted(map(str, risk_raw)))
                            + ": unknown field")

    return PipelineConfig(
        tracker=tracker,
        sampler=sampler,
        reaction_time=reaction,
        alert_threshold=threshold,
        warmup_s=_convert(float, warmup_s, "warmup_s"),
        **overrides,
    )


def _scenario_from(entry, label: str):
    """A scenario is either an inline mapping or a path to a YAML file."""
    if isinstance(entry, str):
        entry = _load_yaml(entry)
    if not isinstance(entry, dict):
        raise InvalidConfig(f"{label}: expected a mapping or a path")
    return config_from_dict(entry)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(args, raw: dict) -> Path:
    out = Path(args.out or raw.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    raw = _load_yaml(args.config)
    if args.seed is not None:
        raw = {**raw, "seed": args.seed}
    out = _out_dir(args, raw)
    raw.pop("out", None)
    scen = config_from_dict(raw)
    frames, truth = generate(scen)

    trace_path = out / "trace.jsonl"
    truth_path = out / "truth.jsonl"
    write_trace(trace_path, scen, frames)
    write_truth(truth_path, scen, truth)
    print(trace_path)
    print(truth_path)
    return EXIT_OK


def _resolve_run_inputs(raw: dict):
    """Returns (frames, truth, camera, fov) from files or an inline scenario."""
    if "trace" in raw or "truth" in raw:
        if not ("trace" in raw and "truth" in raw):
            raise InvalidConfig("trace and truth paths must be given together")
        header, frames = read_trace(raw["trace"])
        theader, truth = read_truth(raw["truth"])
        if header.seed != theader.seed or header.tick_rate != theader.tick_rate:
            raise ParseError(f"{raw['truth']}: line 1: trace and truth headers disagree; "
                             "not the same run")
        check_aligned(frames, truth, raw["truth"])
        camera = CameraConfig(
            intrinsics=header.intrinsics,
            image_size=tuple(header.image_size),
            camera_height=header.camera_height,
        )
        return frames, truth, camera, _convert(float, raw.get("fov", DEFAULT_FOV), "fov")
    if "scenario" in raw:
        scen = _scenario_from(raw["scenario"], "scenario")
        frames, truth = generate(scen)
        return frames, truth, scen.camera, scen.detector.fov
    raise InvalidConfig("run config needs either trace+truth paths or a scenario")


def cmd_run(args) -> int:
    raw = _load_yaml(args.config)

    seed = args.seed if args.seed is not None else raw.get("seed")
    if seed is None:
        raise InvalidConfig("seed is mandatory (config key 'seed' or --seed)")
    seed = _convert(_non_negative_int, seed, "seed")
    sampler_raw = _block(raw, "sampler")
    kind = args.sampler or sampler_raw.get("kind") or "sarsa"
    if kind not in SAMPLER_KINDS:
        raise InvalidConfig(f"unknown sampler kind: {kind!r} (expected one of {SAMPLER_KINDS})")
    warmup = args.warmup_s if args.warmup_s is not None else raw.get("warmup_s", 60.0)

    config = _pipeline_config(raw, warmup)
    frames, truth, camera, fov = _resolve_run_inputs(raw)

    qtable = None
    if kind == "sarsa":
        qtable_path = sampler_raw.get("qtable")
        qtable = load_qtable(qtable_path) if qtable_path else QTable()

    report = run_pipeline(
        frames, truth, kind, config,
        seed=seed, camera=camera, fov=fov, qtable=qtable,
        scenario_label=raw.get("label", ""),
    )

    resolved = {
        **raw,
        "seed": seed,
        "warmup_s": config.warmup_s,
        "sampler": {**sampler_raw, "kind": kind},
    }
    digest = config_digest(resolved)

    out = _out_dir(args, raw)
    report_path = out / "report.json"
    _write_json(report_path, {
        "config_digest": digest,
        "notes": list(REPORT_NOTES),
        "report": report_to_dict(report),
    })
    events_path = out / "events.jsonl"
    with open(events_path, "w") as fh:
        for ev in report.alert_events:
            fh.write(json.dumps(dataclasses.asdict(ev), sort_keys=True) + "\n")
    print(report_path)
    print(events_path)
    if kind == "sarsa":
        qtable_path = out / "qtable.txt"
        save_qtable(qtable, qtable_path)
        print(qtable_path)
    return EXIT_OK


def _resolve_suite(raw: dict):
    if raw.get("suite") == "standard":
        return list(standard_suite())
    entries = raw.get("scenarios")
    if not entries:
        raise InvalidConfig("compare config needs suite: standard or a scenarios list")
    suite = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "scenario" not in entry:
            raise InvalidConfig(f"scenarios[{i}]: expected a mapping with a 'scenario' key")
        name = str(entry.get("name", f"scenario-{i + 1:02d}"))
        suite.append((name, _scenario_from(entry["scenario"], f"scenarios[{i}]")))
    return suite


def cmd_compare(args) -> int:
    raw = _load_yaml(args.config)

    suite = _resolve_suite(raw)
    samplers = [args.sampler] if args.sampler else list(raw.get("samplers") or SAMPLER_KINDS)
    seeds = [args.seed] if args.seed is not None else raw.get("seeds")
    if seeds is not None and not (isinstance(seeds, list)
                                  and all(isinstance(s, int) and s >= 0 for s in seeds)):
        raise InvalidConfig(f"seeds: expected a list of non-negative integers, got {seeds!r}")
    warmup = args.warmup_s if args.warmup_s is not None else raw.get("warmup_s", 60.0)
    config = _pipeline_config(raw, warmup)

    rep = compare(
        suite, samplers, config,
        budget_match=bool(raw.get("budget_match", True)),
        seeds=seeds,
    )

    resolved = {
        **raw,
        "samplers": list(samplers),
        "seeds": list(seeds) if seeds else None,
        "warmup_s": config.warmup_s,
    }
    digest = config_digest(resolved)

    out = _out_dir(args, raw)
    json_path = out / "comparison.json"
    _write_json(json_path, {"config_digest": digest, **comparison_to_dict(rep)})
    summary_path = out / "summary.txt"
    summary_path.write_text(f"# config {digest}\n" + format_comparison(rep))
    print(json_path)
    print(summary_path)
    return EXIT_OK


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rearguard",
        description="Rear-approach hazard detection: generate traces, run samplers, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a scenario config to trace + truth files")
    gen.add_argument("--config", required=True, help="scenario YAML")
    gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    gen.add_argument("--out", default=None, help="output directory (default: config 'out' or cwd)")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run one sampler over one trace")
    run.add_argument("--config", required=True, help="run YAML (trace/truth or scenario, blocks)")
    run.add_argument("--sampler", choices=SAMPLER_KINDS, default=None,
                     help="sampler kind (default: config value, then sarsa)")
    run.add_argument("--seed", type=int, default=None, help="override the run seed")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--warmup-s", type=float, default=None, dest="warmup_s",
                     help="metrics warm-up in seconds (default: config value, then 60)")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="run a sampler grid over a suite")
    cmp_.add_argument("--config", required=True, help="suite YAML")
    cmp_.add_argument("--sampler", choices=SAMPLER_KINDS, default=None,
                      help="restrict the grid to a single sampler")
    cmp_.add_argument("--seed", type=int, default=None, help="replay with a single seed")
    cmp_.add_argument("--out", default=None, help="output directory")
    cmp_.add_argument("--warmup-s", type=float, default=None, dest="warmup_s",
                      help="metrics warm-up in seconds")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, VersionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # the safety net: a broken invariant, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
