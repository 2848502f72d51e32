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
from dataclasses import dataclass
from pathlib import Path

import yaml

from .evaluation import (
    REPORT_NOTES,
    PipelineConfig,
    compare,
    comparison_to_dict,
    config_digest,
    format_comparison,
    report_to_dict,
    run_pipeline,
    standard_suite,
)
from .geometry import InvalidConfig, ParseError, VersionMismatch, require
from .risk import RiskConfig
from .sampler import SAMPLER_KINDS, QTable, SamplerConfig, check_kind, load_qtable, save_qtable
from .scenario import (
    DEFAULT_FOV,
    build_config,
    check_aligned,
    check_fov,
    config_from_dict,
    generate,
    read_trace,
    read_truth,
    tick_count,
    write_trace,
    write_truth,
)
from .tracking import TrackerConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


# ------------------------------------------------------------ config io

@dataclass(frozen=True)
class RunSamplerBlock(SamplerConfig):
    """A run file's `sampler` block also picks the sampler and may name a Q-table to resume."""
    kind: str = "sarsa"
    qtable: str | None = None

    def __post_init__(self):
        super().__post_init__()
        check_kind(self.kind)
        require(self.qtable is None or self.kind == "sarsa", "qtable",
                f"only the sarsa sampler reads a Q-table; the run's sampler is {self.kind!r}")
        require(self.qtable != "", "qtable", "must name a Q-table file, got ''")


@dataclass(frozen=True)
class RunConfig:
    """A run file.  The trace comes from `trace` and `truth` files (whose header
    lacks the detector `fov`) or from a `scenario` mapping or scenario file path."""
    seed: int
    warmup_s: float = 60.0
    label: str = ""
    out: str | None = None
    trace: str | None = None
    truth: str | None = None
    fov: float | None = None
    scenario: dict | str | None = None
    sampler: RunSamplerBlock = RunSamplerBlock()
    tracker: TrackerConfig = TrackerConfig()
    risk: RiskConfig = RiskConfig()

    def __post_init__(self):
        require(self.seed >= 0, "seed", f"must be non-negative, got {self.seed}")
        require((self.trace is None) == (self.truth is None), "trace, truth",
                "must be given together")
        require((self.trace is None) != (self.scenario is None), "trace, truth, scenario",
                "a run config needs exactly one of trace+truth paths or a scenario")
        require(self.scenario is None or self.fov is None, "fov",
                "not allowed beside an inline scenario; the scenario's detector.fov sets it")
        if self.fov is not None:
            check_fov(self.fov)


@dataclass(frozen=True)
class ScenarioEntry:
    scenario: dict | str
    name: str | None = None


@dataclass(frozen=True)
class CompareConfig:
    """A compare file: the sampler grid over `suite: standard` or a `scenarios` list."""
    suite: str | None = None
    scenarios: tuple[ScenarioEntry, ...] | None = None
    samplers: tuple = SAMPLER_KINDS
    seeds: tuple | None = None
    warmup_s: float = 60.0
    budget_match: bool = True
    out: str | None = None
    sampler: SamplerConfig = SamplerConfig()
    tracker: TrackerConfig = TrackerConfig()
    risk: RiskConfig = RiskConfig()

    def __post_init__(self):
        require(self.suite in (None, "standard"), "suite",
                f"must be 'standard', got {self.suite!r}")
        require((self.suite is None) != (self.scenarios is None), "suite, scenarios",
                "a compare config needs exactly one of suite: standard or a scenarios list")


# libyaml's parser where PyYAML was built with it; both build the same
# values with the same safe constructors
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(path) -> dict:
    """A config file's top-level mapping.  The file is read as bytes, so the
    YAML reader detects its encoding, and a byte it cannot decode is a
    `yaml.ReaderError` naming the file and position."""
    with open(path, "rb") as fh:
        raw = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path}: top level must be a mapping")
    return raw


def _load(cls, path, **flags):
    """The file with the given flags in place of its keys, and the `cls` config
    built from it; a mapping flag sets keys in the block of its name, if that is one."""
    raw = _load_yaml(path)
    for key, value in flags.items():
        if isinstance(value, dict) and raw.get(key) is not None:
            value = {**raw[key], **value} if isinstance(raw[key], dict) else raw[key]
        if value is not None:
            raw[key] = value
    return raw, build_config(cls, raw, "")


def _pipeline_config(cfg: RunConfig | CompareConfig) -> PipelineConfig:
    return PipelineConfig(**dataclasses.asdict(cfg.risk), tracker=cfg.tracker,
                          sampler=cfg.sampler, warmup_s=float(cfg.warmup_s))


def _read_scenario(entry: dict | str, seed: int | None = None):
    """The one scenario reader: an inline mapping or a YAML file path, with
    `seed` in place of its key when given, as (ScenarioConfig, out).  A
    scenario's `out` only sets where `generate` writes; run and compare
    read the same files and ignore it."""
    raw = dict(_load_yaml(entry) if isinstance(entry, str) else entry)
    if seed is not None:
        raw["seed"] = seed
    out = raw.pop("out", None)
    if out is not None and not isinstance(out, str):
        raise InvalidConfig(f"out: expected str, got {out!r}")
    return config_from_dict(raw), out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(out) -> Path:
    out = Path(out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    scen, file_out = _read_scenario(args.config, args.seed)
    frames, truth = generate(scen)
    out = _out_dir(args.out or file_out)

    trace_path = out / "trace.jsonl"
    truth_path = out / "truth.jsonl"
    write_trace(trace_path, scen, frames)
    write_truth(truth_path, scen, truth)
    print(trace_path)
    print(truth_path)
    return EXIT_OK


def _resolve_run_inputs(cfg: RunConfig):
    """Returns (frames, truth, camera, fov) from files or an inline scenario."""
    if cfg.scenario is not None:
        scen, _ = _read_scenario(cfg.scenario)
        frames, truth = generate(scen)
        return frames, truth, scen.camera, scen.detector.fov
    header, frames = read_trace(cfg.trace)
    theader, truth = read_truth(cfg.truth)
    if header != theader:
        raise ParseError(f"{cfg.truth}: line 1: trace and truth headers disagree; "
                         "not the same run")
    n_ticks = tick_count(header.duration, header.tick_rate)
    if len(frames) != n_ticks:
        raise ParseError(f"{cfg.trace}: line 1: the header's duration and tick rate give "
                         f"{n_ticks} records, the file holds {len(frames)}")
    check_aligned(frames, truth, cfg.truth)
    return frames, truth, header.camera, DEFAULT_FOV if cfg.fov is None else cfg.fov


def cmd_run(args) -> int:
    raw, cfg = _load(RunConfig, args.config, seed=args.seed, warmup_s=args.warmup_s,
                     sampler=args.sampler and {"kind": args.sampler})
    kind = cfg.sampler.kind

    config = _pipeline_config(cfg)
    frames, truth, camera, fov = _resolve_run_inputs(cfg)

    qtable = None
    if kind == "sarsa":
        qtable = (QTable() if cfg.sampler.qtable is None
                  else load_qtable(cfg.sampler.qtable, cfg.sampler))

    report = run_pipeline(
        frames, truth, kind, config,
        seed=cfg.seed, camera=camera, fov=fov, qtable=qtable,
        scenario_label=cfg.label,
    )

    # the file as written, with the flags, the warm-up and the sampler kind resolved
    digest = config_digest({**raw, "warmup_s": config.warmup_s,
                            "sampler": {**(raw.get("sampler") or {}), "kind": kind}})

    out = _out_dir(args.out or cfg.out)
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


def _resolve_suite(cfg: CompareConfig):
    if cfg.suite:
        return list(standard_suite())
    return [(f"scenario-{i + 1:02d}" if entry.name is None else entry.name,
             _read_scenario(entry.scenario)[0])
            for i, entry in enumerate(cfg.scenarios)]


def cmd_compare(args) -> int:
    raw, cfg = _load(CompareConfig, args.config,
                     samplers=args.sampler and [args.sampler],
                     seeds=None if args.seed is None else [args.seed],
                     warmup_s=args.warmup_s)

    suite = _resolve_suite(cfg)
    config = _pipeline_config(cfg)
    rep = compare(suite, cfg.samplers, config, budget_match=cfg.budget_match, seeds=cfg.seeds)

    digest = config_digest({**raw, "samplers": list(cfg.samplers), "seeds": cfg.seeds,
                            "warmup_s": config.warmup_s})

    out = _out_dir(args.out or cfg.out)
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
