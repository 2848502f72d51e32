"""End-to-end command tests, run in process through main(), and the
refusal table's console-script rows in a fresh interpreter as well.

Everything goes through temp directories; the assertions lean on byte
comparisons where reproducibility is the contract.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from rearguard import cli
from rearguard.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main
from rearguard.geometry import ParseError
from rearguard.sampler import SamplerConfig, load_qtable
from rearguard.risk import RiskConfig
from rearguard.scenario import (
    CameraConfig,
    DetectorConfig,
    HeadMotionConfig,
    InvalidConfig,
    ScenarioConfig,
    UserConfig,
    VehicleConfig,
    config_from_dict,
    generate,
    read_trace,
    write_trace,
    write_truth,
)
from rearguard.tracking import TrackerConfig

SCENARIO = {
    "seed": 31,
    "duration": 12.0,
    "user": {"mode": "standing"},
    "vehicles": [
        {"cls": "car", "spawn_time": 1.0, "x0": 0.9, "z0": -25.0, "speed": 2.4},
    ],
}
RUN = {"seed": 5, "warmup_s": 0.0, "scenario": SCENARIO, "sampler": {"kind": "sarsa"}}
CMP = {
    "scenarios": [
        {"name": "cars", "scenario": SCENARIO},
        {"name": "cycles", "scenario": {**SCENARIO, "seed": 32, "vehicles": [
            {"cls": "cycle", "spawn_time": 2.0, "x0": -0.7, "z0": -15.0, "speed": 1.3}]}},
    ],
    "samplers": ["everyframe", "interval"],
    "warmup_s": 0.0,
}

# a fresh interpreter's environment, with this checkout's package first on its path
SRC = str(Path(cli.__file__).resolve().parents[1])
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def run_config(tmp_path, **overrides):
    return write_yaml(tmp_path / "run.yaml", {**RUN, **overrides})


def compare_config(tmp_path, **overrides):
    return write_yaml(tmp_path / "cmp.yaml", {**CMP, **overrides})


# -------------------------------------------------------------- generate

def test_the_package_imports_without_scipy():
    """A fresh interpreter that imports the command line loads no scipy:
    association solves its own assignments, so every command is spared
    the import."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rearguard.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        env=SRC_ENV, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_generate_writes_trace_and_truth(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    code = main(["generate", "--config", cfg, "--out", str(tmp_path / "g")])
    assert code == EXIT_OK
    out_lines = capsys.readouterr().out.splitlines()
    assert (tmp_path / "g" / "trace.jsonl").exists()
    assert (tmp_path / "g" / "truth.jsonl").exists()
    assert str(tmp_path / "g" / "trace.jsonl") in out_lines


def test_generate_same_seed_identical_files(tmp_path):
    cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("trace.jsonl", "truth.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_seed_flag_changes_the_trace(tmp_path):
    cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["generate", "--config", cfg, "--seed", "99",
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "a" / "trace.jsonl").read_bytes() != (
        tmp_path / "b" / "trace.jsonl"
    ).read_bytes()


def test_generate_out_flag_overrides_the_files_out(tmp_path):
    cfg = write_yaml(tmp_path / "scen.yaml", {**SCENARIO, "out": str(tmp_path / "file")})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "flag")]) == EXIT_OK
    assert (tmp_path / "flag" / "trace.jsonl").exists()
    assert not (tmp_path / "file").exists()
    assert main(["generate", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "file" / "truth.jsonl").exists()


# --------------------------------------------------------- config files

README = Path(__file__).resolve().parents[1] / "README.md"
README_CONFIGS = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)

# the module's loader is libyaml's where PyYAML was built with it; both
# loaders must read every config alike
LOADERS = [
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                          reason="PyYAML was built without libyaml")),
]


@pytest.fixture(params=LOADERS)
def yaml_loader(request, monkeypatch):
    monkeypatch.setattr(cli, "_YAML_LOADER", request.param)
    return request.param


def test_the_loader_is_libyaml_where_pyyaml_has_it():
    assert cli._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_readme_config_blocks_load_alike_under_both_loaders(tmp_path, yaml_loader):
    assert len(README_CONFIGS) >= 3
    for i, block in enumerate(README_CONFIGS):
        path = tmp_path / f"readme-{i}.yaml"
        path.write_text(block)
        assert cli._load_yaml(path) == yaml.safe_load(block)


# each names the file and where in it; a byte that is not UTF-8 used to exit 4
# with a UnicodeDecodeError
@pytest.mark.parametrize("data, text", [
    pytest.param(b"seed: [3, 4\nduration: 2.0\n", "while parsing a flow sequence",
                 id="unclosed-flow-sequence"),
    pytest.param(b"seed: 3\n  duration: 2.0\n", "mapping values are not allowed",
                 id="indented-mapping-value"),
    pytest.param(b"seed: 'three\nduration: 2.0\n", "while scanning a quoted scalar",
                 id="unterminated-quote"),
    pytest.param(b"seed: 3\nduration: 2.0\nlabel: \xff\xfe\n",
                 '", position 29', id="not-utf-8"),
])
def test_unparsable_config_exits_2_under_both_loaders(tmp_path, capsys, yaml_loader, data, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(data)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err and f'in "{cfg}"' in err
    assert not (tmp_path / "g").exists()


# valid YAML that used to exit 4 as well
def test_a_utf16_config_with_a_byte_order_mark_loads(tmp_path, yaml_loader):
    text = yaml.safe_dump(SCENARIO)
    plain, wide = tmp_path / "plain.yaml", tmp_path / "wide.yaml"
    plain.write_text(text)
    wide.write_bytes(text.encode("utf-16"))
    assert wide.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
    for cfg in (plain, wide):
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == EXIT_OK
    for f in ("trace.jsonl", "truth.jsonl"):
        assert (tmp_path / "wide" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes()


def test_one_scenario_file_with_out_serves_generate_run_and_compare(tmp_path):
    """A scenario's `out` sets only where `generate` writes; a run's
    `scenario` and a compare entry read the same file and ignore it."""
    scen = write_yaml(tmp_path / "scen.yaml", {**SCENARIO, "out": str(tmp_path / "gen")})
    assert main(["generate", "--config", scen]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "gen").iterdir()) == ["trace.jsonl", "truth.jsonl"]
    reports = []
    for name, entry in (("file", scen), ("inline", dict(SCENARIO))):
        run = write_yaml(tmp_path / f"{name}.yaml", {"seed": 5, "warmup_s": 0.0, "scenario": entry})
        assert main(["run", "--config", run, "--out", str(tmp_path / name)]) == EXIT_OK
        reports.append(json.loads((tmp_path / name / "report.json").read_text())["report"])
    assert reports[0] == reports[1]
    cmp_ = write_yaml(tmp_path / "cmp.yaml", {"scenarios": [{"scenario": scen}],
                                              "samplers": ["everyframe"], "warmup_s": 0.0})
    assert main(["compare", "--config", cmp_, "--out", str(tmp_path / "c")]) == EXIT_OK
    assert (tmp_path / "c" / "comparison.json").exists()


# ------------------------------------------------------------------- run

def test_run_writes_report_events_and_qtable(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "report.json").read_text())
    assert payload["config_digest"]
    assert payload["report"]["sampler_kind"] == "sarsa"
    assert payload["report"]["n_ticks"] == 120
    assert (out / "events.jsonl").exists()
    assert (out / "qtable.txt").exists()


def test_run_is_byte_reproducible(tmp_path):
    cfg = run_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(b)]) == EXIT_OK
    for name in ("report.json", "events.jsonl", "qtable.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_replay_continues_learning_from_saved_qtable(tmp_path):
    cfg = run_config(tmp_path)
    first = tmp_path / "first"
    assert main(["run", "--config", cfg, "--out", str(first)]) == EXIT_OK
    saved = first / "qtable.txt"

    replay_cfg = run_config(
        tmp_path, sampler={"kind": "sarsa", "qtable": str(saved)}
    )
    second = tmp_path / "second"
    assert main(["run", "--config", replay_cfg, "--out", str(second)]) == EXIT_OK

    before = load_qtable(saved, SamplerConfig())
    after = load_qtable(second / "qtable.txt", SamplerConfig())
    assert sum(after.visits.values()) > sum(before.visits.values())


def test_run_from_generated_trace_files(tmp_path):
    scen_cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    gen_out = tmp_path / "g"
    assert main(["generate", "--config", scen_cfg, "--out", str(gen_out)]) == EXIT_OK

    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5,
        "warmup_s": 0.0,
        "trace": str(gen_out / "trace.jsonl"),
        "truth": str(gen_out / "truth.jsonl"),
    })
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--sampler", "everyframe",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["blink_fraction"] == 1.0


def test_a_bad_byte_counts_lines_as_the_reader_splits_them(tmp_path):
    """Line numbers follow the reader's own line breaks, carriage returns
    among them, and a multi-byte character before the bad byte."""
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"header\r\nfirst\rsecond \xc3\xa9\n\nfourth \xc3\n")
    with pytest.raises(ParseError, match=r"trace.jsonl: line 5: not UTF-8: "
                                         r"invalid continuation byte \(byte 0xc3\)$"):
        read_trace(path)


def test_run_sampler_block_parameters_reach_the_baseline(tmp_path):
    # a 12 s scenario is 120 ticks; an interval of 120 means one blink
    cfg = run_config(tmp_path, sampler={"kind": "interval", "period": 120})
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "report.json").read_text())
    assert payload["report"]["blink_count"] == 1


def test_warmup_flag_overrides_config(tmp_path):
    cfg = run_config(tmp_path, warmup_s=6.0)
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--sampler", "everyframe",
                 "--warmup-s", "0", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "report.json").read_text())
    rep = payload["report"]
    assert rep["n_assessments"] + rep["n_excluded"] == rep["n_ticks"]


# ------------------------------------------------------------ exit codes

def test_error_inside_the_pipeline_is_an_invariant_failure(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("time went backwards")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    cfg = run_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_INVARIANT
    assert "internal error" in capsys.readouterr().err


# --------------------------------------------------------------- compare

def test_compare_writes_reports_with_digest(tmp_path):
    cfg = compare_config(tmp_path, seeds=[1, 2])
    out = tmp_path / "c"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "comparison.json").read_text())
    # 2 scenarios x 2 samplers x 2 seeds
    assert len(payload["runs"]) == 8
    assert payload["config_digest"]
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("# config " + payload["config_digest"])
    assert "everyframe" in summary


def test_compare_sampler_flag_restricts_the_grid(tmp_path):
    cfg = compare_config(tmp_path)
    out = tmp_path / "c"
    assert main(["compare", "--config", cfg, "--sampler", "everyframe",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "comparison.json").read_text())
    assert {r["sampler_kind"] for r in payload["runs"]} == {"everyframe"}


def test_compare_seed_and_sampler_flags_replace_the_file_keys(tmp_path):
    cfg = compare_config(tmp_path, seeds=[1, 2], samplers=["everyframe", "confidence"])
    out = tmp_path / "c"
    assert main(["compare", "--config", cfg, "--seed", "4", "--sampler", "interval",
                 "--out", str(out)]) == EXIT_OK
    runs = json.loads((out / "comparison.json").read_text())["runs"]
    assert {(r["sampler_kind"], r["seed"]) for r in runs} == {("interval", 4)}


@pytest.mark.parametrize("build, message", [
    (lambda: TrackerConfig(q_car=-1.0), "^q_car: must be non-negative$"),
    (lambda: RiskConfig(reaction_time=0),
     "^reaction_time: must be a positive finite number, got 0$"),
    (lambda: cli.RunConfig(seed=-1, scenario={}), "^seed: must be non-negative, got -1$"),
    (lambda: cli.CompareConfig(suite="mini"), "^suite: must be 'standard', got 'mini'$"),
    (lambda: ScenarioConfig(seed=-1), "^seed: must be a non-negative integer$"),
    (lambda: UserConfig(mode="flying"), r"^mode: must be one of \('standing', "),
    (lambda: DetectorConfig(fov=4.0), r"^fov: must be in \(0, pi\), got 4\.0$"),
    (lambda: CameraConfig(camera_height=0), "^camera_height: must be positive$"),
    (lambda: VehicleConfig(cls="bus", spawn_time=0.0, x0=0.0, z0=-20.0, speed=5.0),
     r"^cls: must be one of \('car', 'cycle'\)$"),
    (lambda: HeadMotionConfig(0.1, 4.0, 1.6, 3.5, 0.0),
     "^pitch_amplitude: plus 6 jitter_std must stay below pi/2, the pitch limit$"),
    # a file's loader checks types first; from Python these five used to
    # raise TypeError or AttributeError
    (lambda: ScenarioConfig(seed=1, duration="60"), "^duration: must be a finite number, got '60'$"),
    (lambda: CameraConfig(image_size=5), "^image_size: must be two positive numbers$"),
    (lambda: VehicleConfig("car", 0, 0, -5, 1, profile="decelerate-at", params=None),
     "^params: must be a mapping, got None$"),
    (lambda: UserConfig(speed="fast"), "^speed: must be a finite number, got 'fast'$"),
    (lambda: HeadMotionConfig(0.1, "4", 0.04, 3.5, 0.004),
     "^yaw_period: must be a finite number, got '4'$"),
    # a bool is not a seed, as a file's loader already said; this one passed
    (lambda: ScenarioConfig(seed=True), "^seed: must be a non-negative integer$"),
    # a file's loader said "expected int"; with inf no track retired on misses
    (lambda: TrackerConfig(miss_max=float("inf")),
     "^miss_max: must be a non-negative integer, got inf$"),
    (lambda: TrackerConfig(miss_max=2.5), "^miss_max: must be a non-negative integer, got 2.5$"),
    (lambda: TrackerConfig(miss_max=-1), "^miss_max: must be a non-negative integer, got -1$"),
], ids=["tracker", "risk", "run", "compare", "scenario", "user", "detector", "camera",
        "vehicle", "head-motion", "scenario-duration-type", "camera-image-size-type",
        "vehicle-params-type", "user-speed-type", "head-motion-period-type", "scenario-seed-bool",
        "tracker-miss-max-inf", "tracker-miss-max-float", "tracker-miss-max-negative"])
def test_config_blocks_built_in_python_raise_invalid_config(build, message):
    with pytest.raises(InvalidConfig, match=message):
        build()


# ------------------------------------------------------------- refusals
#
# One table of refusals. A row is an input builder, an exit code and the
# stderr text after "error: ". The builder writes only the row's inputs into
# the cwd, a fresh tmp dir, and returns the command line, with relative paths,
# so each text is a literal. _refuses runs every row through main() in
# process. It runs the rows that CONSOLE_REPROS names once more in a fresh
# interpreter, through the body of the installed console script.
#
# Two exit-code tests stay outside the table, because a subprocess cannot see
# their monkeypatches: test_error_inside_the_pipeline_is_an_invariant_failure
# (exit 4) patches cli.run_pipeline, and
# test_unparsable_config_exits_2_under_both_loaders patches cli._YAML_LOADER.

def _cmd(argv, files):
    """A row's builder: it writes `files` into the cwd, each a YAML mapping or
    text (a lone surrogate writes its byte), and returns `argv`."""
    def build():
        for name, data in files.items():
            text = yaml.safe_dump(data) if isinstance(data, dict) else data
            Path(name).write_text(text, encoding="utf-8", errors="surrogateescape")
        return argv
    return build


def _generate(config):
    return _cmd(["generate", "--config", "scen.yaml", "--out", "out"], {"scen.yaml": config})


def _run(change, *flags, files=None):
    return _cmd(["run", "--config", "run.yaml", *flags, "--out", "out"],
                {"run.yaml": {**RUN, **change}, **(files or {})})


def _qtable(name, body, **sampler):
    """A sarsa run resuming from the Q-table `name`, which holds `body` after
    its format line."""
    return _run({"sampler": {"kind": "sarsa", **sampler, "qtable": name}},
                files={name: "rearguard-qtable v1\n" + body})


def _compare(change):
    return _cmd(["compare", "--config", "cmp.yaml", "--out", "out"],
                {"cmp.yaml": {**CMP, **change}})


def _edited(edit, duration=12.0):
    """A run of SCENARIO's generated trace and truth files, their records first
    edited in place by edit(trace, truth). A str record is written as it is."""
    run = _run({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl"})

    def build():
        scen = config_from_dict({**SCENARIO, "duration": duration})
        frames, truth = generate(scen)
        write_trace("trace.jsonl", scen, frames)
        write_truth("truth.jsonl", scen, truth)
        records = {name: [json.loads(line) for line in Path(name).read_text().splitlines()]
                   for name in ("trace.jsonl", "truth.jsonl")}
        edit(*records.values())
        for name, rows in records.items():
            Path(name).write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n"
                                          for r in rows), errors="surrogateescape")
        return run()
    return build


def _first(records, key):
    return next(i for i, r in enumerate(records) if i and r[key])


def _set_box(field, value):
    def edit(trace, truth):
        trace[_first(trace, "detections")]["detections"][0][field] = value
    return edit


def _set_truth_object(field, value):
    def edit(trace, truth):
        truth[_first(truth, "objects")]["objects"][0][field] = value
    return edit


def _set_header(name, field, value):
    def edit(trace, truth):
        {"trace": trace, "truth": truth}[name][0][field] = value
    return edit


def _break_line_4(trace, truth):
    trace[3] = "{broken"


def _repeat_t(trace, truth):
    for records in (trace, truth):
        records[5]["t"] = records[4]["t"]


def _bad_header_focal(trace, truth):
    trace[0]["intrinsics"]["f_x"] = 0.0


def _claim_nine_seconds(trace, truth):
    for records in (trace, truth):
        records[0]["duration"] = 9.0


def _bad_byte(name, at):
    """A 0xff byte `at` characters into line 6 of the `name` file."""
    def edit(trace, truth):
        records = {"trace": trace, "truth": truth}[name]
        line = json.dumps(records[5])
        records[5] = line[:at] + "\udcff" + line[at:]
    return edit


def _shift_truth_t_after_blank_lines(trace, truth):
    truth[6]["t"] += 0.05
    truth[3:3] = ["", ""]   # they move the shifted record from line 7 to line 9


INTRINSICS = {"f_x": 600.0, "f_y": 600.0, "c_x": 320.0, "c_y": 320.0}
HEAD = "seed: 3\nduration: 5.0\n"
UNALIGNED = "trace and truth are not aligned on ticks"
DISAGREE = "trace and truth headers disagree; not the same run"
ONE_SUITE = ("suite, scenarios: a compare config needs exactly one of suite: standard or a "
             "scenarios list")
SEEDS = "seeds: expected a list of non-negative integers, at least one and none repeated, got "

# each name is the test id its rows run under, the name of the test they
# were before the table; a tuple is one plain test, a list one parametrized test
REFUSALS = {
    "test_generate_invalid_config_names_the_field": (
        _generate({**SCENARIO, "user": {"mode": "driving"}}), EXIT_CONFIG,
        "user.mode: must be one of ('standing', 'walking', 'jogging')"),
    # each used to pass: a NaN x0 wrote a truth file that `run` refused (exit 3),
    # a NaN margin dropped every detection, an infinite amplitude exited 4
    "test_generate_rejects_a_non_finite_number_by_its_path": [
        pytest.param(_generate(HEAD + "vehicles:\n  - {cls: car, spawn_time: 0.0, x0: .nan, "
                               "z0: -20.0, speed: 2.0}\n"), EXIT_CONFIG,
                     "vehicles[0].x0: must be a finite number, got nan", id="vehicle-x0-nan"),
        pytest.param(_generate(HEAD + "camera: {margin_px: .nan}\n"), EXIT_CONFIG,
                     "camera.margin_px: must be a finite number, got nan", id="margin-nan"),
        pytest.param(_generate(HEAD + "head_motion: {yaw_amplitude: .inf, yaw_period: 4.0, "
                               "pitch_amplitude: 0.04,\n  pitch_period: 3.5, jitter_std: 0.004}\n"),
                     EXIT_CONFIG, "head_motion.yaw_amplitude: must be a finite number, got inf",
                     id="yaw-amplitude-inf"),
        pytest.param(_generate(HEAD + "camera:\n  intrinsics: {f_x: 600.0, f_y: 600.0, "
                               "c_x: .nan, c_y: 320.0}\n"), EXIT_CONFIG,
                     "camera.intrinsics.c_x: must be a finite number, got nan",
                     id="intrinsics-nan"),
        pytest.param(_generate(HEAD + "vehicles:\n  - {cls: car, spawn_time: 0.0, x0: 0.0, "
                               "z0: -20.0, speed: 2.0,\n     profile: decelerate-at, "
                               "params: {at: .inf, rate: 1.0}}\n"), EXIT_CONFIG,
                     "vehicles[0].params.at: must be finite, got inf", id="param-inf"),
        pytest.param(_generate(HEAD + "detector: {occlusion_sector: .nan}\n"), EXIT_CONFIG,
                     "detector.occlusion_sector: must be a finite number, got nan",
                     id="occlusion-nan"),
    ],
    # x0 1e308 changing lane to -1e308 used to exit 0 with NaN in 15 truth
    # lines, for `run` to refuse the file (exit 3)
    "test_generate_refuses_the_lane_change_that_wrote_nan_truth": (
        _generate("seed: 3\nduration: 2.0\nvehicles:\n  - {cls: car, spawn_time: 0.0, "
                  "x0: 1.0e+308, z0: -20.0, speed: 3.0,\n     profile: lane-change-at, "
                  "params: {at: 0.5, to_x: -1.0e+308, duration: 1.0}}\n"),
        EXIT_CONFIG, "vehicles[0].x0: must be in [-1000, 1000] m, got 1e+308"),
    # used to exit 4 with a UnicodeDecodeError; it names the file and position,
    # and libyaml words the reason apart from PyYAML's own reader
    "test_generate_refuses_a_config_byte_that_is_not_utf8": (
        _generate("seed: 3\nduration: 2.0\nlabel: \udcff\udcfe\n"), EXIT_CONFIG,
        "unacceptable character #x00ff: "
        + ("invalid leading UTF-8 octet" if yaml.__with_libyaml__ else "invalid start byte")
        + '\n  in "scen.yaml", position 29'),
    "test_scenario_out_must_be_a_path": (
        _cmd(["generate", "--config", "scen.yaml"], {"scen.yaml": {**SCENARIO, "out": 5}}),
        EXIT_CONFIG, "out: expected str, got 5"),
    "test_run_missing_trace_exits_3_and_names_the_path": (
        _run({"scenario": None, "trace": "nope.jsonl", "truth": "nope-truth.jsonl"}), EXIT_IO,
        "[Errno 2] No such file or directory: 'nope.jsonl'"),
    # json's own position (line 1 column 2) used to follow the file's line
    "test_run_corrupt_trace_exits_3": (
        _edited(_break_line_4), EXIT_IO, "trace.jsonl: line 4: column 2: Expecting property name "
        "enclosed in double quotes"),
    "test_run_trace_with_an_int_too_large_for_a_double_exits_3": (
        _edited(lambda trace, truth: trace[3].update(pitch=10**400)), EXIT_IO,
        f"trace.jsonl: line 4: non-finite number or non-number in t, pitch, yaw [0.2, {10**400}, "
        "3.12271494191511]"),
    # a byte that is not UTF-8 used to exit 4, with the whole file in the message
    "test_run_refuses_a_byte_that_is_not_utf8_at_its_line": [
        pytest.param(_edited(_bad_byte("trace", 0)), EXIT_IO,
                     "trace.jsonl: line 6: not UTF-8: invalid start byte (byte 0xff)", id="trace-"),
        pytest.param(_edited(_bad_byte("truth", len('{"kind":'))), EXIT_IO,
                     "truth.jsonl: line 6: not UTF-8: invalid start byte (byte 0xff)",
                     id='truth-{"kind":'),
    ],
    "test_run_without_seed_is_a_config_error": (
        _cmd(["run", "--config", "run.yaml", "--out", "out"], {"run.yaml": {"scenario": SCENARIO}}),
        EXIT_CONFIG, "seed: missing"),
    "test_run_unknown_sampler_kind_in_config": (
        _run({"sampler": {"kind": "telepathy"}}), EXIT_CONFIG, "sampler.kind: must be one of "
        "('sarsa', 'everyframe', 'interval', 'random', 'confidence'), got 'telepathy'"),
    "test_run_exit_code_table": [
        *(pytest.param(_run(change), EXIT_CONFIG, text, id=name) for change, text, name in [
            ({"sampler": {"kind": "interval", "period": "often"}},
             "sampler.period: expected float, got 'often'", "period-not-a-number"),
            ({"sampler": {"kind": "random", "p": "half"}},
             "sampler.p: expected float, got 'half'", "p-not-a-number"),
            ({"sampler": {"kind": "confidence", "c_min": [1.5]}},
             "sampler.c_min: expected float, got (1.5,)", "c_min-not-a-number"),
            ({"sampler": {"kind": "interval", "period": 0.5}},
             "sampler.period: must be at least one tick, got 0.5", "period-below-one-tick"),
            ({"sampler": {"kind": "sarsa", "eta": -1.0}},
             "sampler.eta: must be positive", "sampler-field-invalid"),
            ({"sampler": "sarsa"}, "sampler: must be a mapping", "sampler-not-a-mapping"),
            ({"sampler": {"kind": "sarsa", "dt_max": -1.0}},
             "sampler.dt_max: must be positive", "sampler-dt-max-negative"),
            ({"sampler": {"kind": "confidence", "dt_max": float("nan")}},
             "sampler.dt_max: must be a finite number, got nan", "sampler-dt-max-nan"),
            # an int too large for a double used to exit 4 with an OverflowError
            ({"sampler": {"kind": "sarsa", "dt_max": 10**400}},
             f"sampler.dt_max: must be a finite number, got {10**400}",
             "sampler-dt-max-401-digits"),
            ({"sampler": {"kind": "sarsa", "conf_edges": [0.5, 0.1, 0.02]}},
             "sampler.conf_edges: must be a strictly increasing tuple of finite numbers, got (0.5, "
             "0.1, 0.02)", "sampler-edges-unsorted"),
            ({"sampler": {"kind": "sarsa", "eta": float("nan")}},
             "sampler.eta: must be a finite number, got nan", "sampler-eta-nan"),
            ({"sampler": {"kind": "sarsa", "sample_cost": float("nan")}},
             "sampler.sample_cost: must be a finite number, got nan", "sampler-cost-nan"),
            # a -inf cost used to exit 0 with an all-nan Q-table, a 401-digit one
            # to exit 4 with an OverflowError
            ({"sampler": {"kind": "sarsa", "sample_cost": -float("inf")}},
             "sampler.sample_cost: must be a finite number, got -inf", "sampler-cost-minus-inf"),
            ({"sampler": {"kind": "sarsa", "sample_cost": -10**400}},
             f"sampler.sample_cost: must be a finite number, got {-10**400}",
             "sampler-cost-401-digits"),
            # finite values past each knob's physical bound used to load: a -1e308 cost
            # learned NaN Q-values, a negative c_min never blinked on a track
            ({"sampler": {"kind": "sarsa", "sample_cost": -1e308}},
             "sampler.sample_cost: must be at least -1e+06, got -1e+308",
             "sampler-cost-beyond-bound"),
            ({"sampler": {"kind": "confidence", "c_min": -1.0}},
             "sampler.c_min: must be in (0, 1e+06], got -1.0", "c-min-negative"),
            ({"tracker": {"gamma": 1e308}},
             "tracker.gamma: must be at most 1 m^2, got 1e+308", "tracker-gamma-huge"),
            ({"sampler": {"kind": "sarsa", "eta": 1e308}},
             "sampler.eta: must be at most 1 per tick, got 1e+308", "sampler-eta-huge"),
            ({"sampler": {"kind": "confidence", "dt_max": 1e308}},
             "sampler.dt_max: must be at most 1e+06 s, got 1e+308", "sampler-dt-max-huge"),
            ({"sampler": {"kind": "interval", "period": 1e308}},
             "sampler.period: must be at most 1e+09 ticks, got 1e+308", "period-huge"),
            ({"sampler": {"kind": "sarsa", "conf_edges": [0.02, 0.1, 1e308]}},
             "sampler.conf_edges: must lie in [0, 1e+06], got (0.02, 0.1, 1e+308)",
             "sampler-conf-edges-huge"),
            ({"sampler": {"kind": "sarsa", "dist_edges": [5.0, 10.0, 1e308]}},
             "sampler.dist_edges: must lie in [0, 1000] m, got (5.0, 10.0, 1e+308)",
             "sampler-dist-edges-huge"),
            ({"sampler": {"kind": "sarsa", "dt_edges": [0.2, 0.5, 1e308]}},
             "sampler.dt_edges: must lie in [0, 1e+06] s, got (0.2, 0.5, 1e+308)",
             "sampler-dt-edges-huge"),
            ({"seed": "five"}, "seed: expected int, got 'five'", "seed-not-a-number"),
            ({"warmup_s": "soon"}, "warmup_s: expected float, got 'soon'", "warmup-not-a-number"),
            ({"risk": {"reaction_time": "slow"}},
             "risk.reaction_time: expected float, got 'slow'", "reaction-time-not-a-number"),
            ({"risk": {"alert_threshold": None}},
             "risk.alert_threshold: expected float, got None", "alert-threshold-null"),
            ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_x": -1.0}}}},
             "camera.intrinsics.f_x: must be positive", "intrinsics-invalid"),
            # a negative margin used to drop every detection without an error
            ({"scenario": {**SCENARIO, "camera": {"margin_px": -1}}},
             "camera.margin_px: must be non-negative", "margin-negative"),
            ({"scenario": {**SCENARIO, "vehicles": [{"cls": "car", "spawn_time": 1.0}]}},
             "vehicles[0].x0, vehicles[0].z0, vehicles[0].speed: missing", "vehicle-field-missing"),
            ({"scenario": {**SCENARIO, "detector": {"first_detect_m": {"car": "far"}}}},
             "detector.first_detect_m.car: must be in (0, 40]", "detector-median-not-a-number"),
            ({"scenario": {**SCENARIO, "head_motion": { "yaw_amplitude": 0.1, "yaw_period": 4.0,
             "pitch_amplitude": 1.6, "pitch_period": 3.5, "jitter_std": 0.0}}},
             "head_motion.pitch_amplitude: plus 6 jitter_std must stay below pi/2, the pitch limit",
             "pitch-amplitude-too-big"),
            ({"seed": -1}, "seed: must be non-negative, got -1", "seed-negative"),
            # each of these used to configure nothing and exit 0
            ({"scenario": {**SCENARIO, "detector": { "first_detect_m": {"car": 12.0, "cycle": 6.0,
             "truck": 3.0}}}},
             "detector.first_detect_m.truck: unknown class, expected one of ('car', 'cycle')",
             "first-detect-unknown-class"),
            ({"scenario": {**SCENARIO, "detector": { "spread_m": {"car": 1.2, "cycle": 0.8,
             "truck": 3.0}}}},
             "detector.spread_m.truck: unknown class, expected one of ('car', 'cycle')",
             "spread-unknown-class"),
            ({"scenario": {**SCENARIO, "detector": {"occlusion_sector": -0.1}}},
             "detector.occlusion_sector: must be in [0, pi), got -0.1",
             "occlusion-sector-negative"),
            ({"warmup_s": -1.0}, "warmup_s: must be non-negative, got -1.0", "warmup-negative"),
            # a 1e-307 period used to exit 4: 2 * pi * t / period overflowed, and sin(inf) raised
            ({"scenario": {**SCENARIO, "head_motion": { "yaw_amplitude": 0.1, "yaw_period": 1e-307,
             "pitch_amplitude": 0.04, "pitch_period": 3.5, "jitter_std": 0.0}}},
             "head_motion.yaw_period: must be at least 0.1 s, got 1e-307", "yaw-period-tiny"),
            ({"scenario": {**SCENARIO, "head_motion": { "yaw_amplitude": 0.1, "yaw_period": 4.0,
             "pitch_amplitude": 0.04, "pitch_period": 0.05, "jitter_std": 0.0}}},
             "head_motion.pitch_period: must be at least 0.1 s, got 0.05",
             "pitch-period-below-bound"),
            ({"scenario": {**SCENARIO, "head_motion": { "yaw_amplitude": -4.0, "yaw_period": 4.0,
             "pitch_amplitude": 0.04, "pitch_period": 3.5, "jitter_std": 0.0}}},
             "head_motion.yaw_amplitude: must be at most pi in magnitude, got -4.0",
             "yaw-amplitude-beyond-pi"),
            ({"risk": {"reaction_time": 0}},
             "risk.reaction_time: must be a positive finite number, got 0", "reaction-time-zero"),
            ({"tracker": {"gamma": 0}}, "tracker.gamma: must be positive", "tracker-gamma-zero"),
            ({"tracker": {"r_diag": [16.0, 9.0]}},
             "tracker.r_diag: must hold 3 positive finite numbers, got [16.0, 9.0]",
             "tracker-r-diag-short"),
            ({"scenario": {**SCENARIO, "duration": "long"}},
             "duration: expected float, got 'long'", "scenario-field-not-a-number"),
            ({"tracker": {"miss_max": "three"}},
             "tracker.miss_max: expected int, got 'three'", "tracker-field-not-a-number"),
            # non-finite filter terms: an inf noise term used to exit 4 (a NaN in the
            # filter), an inf r_diag entry or gamma to run on with a filter that ignores
            # its measurements
            ({"tracker": {"q_car": float("inf")}},
             "tracker.q_car: must be a finite number, got inf", "tracker-q-car-inf"),
            ({"tracker": {"q_cycle": float("inf")}},
             "tracker.q_cycle: must be a finite number, got inf", "tracker-q-cycle-inf"),
            ({"tracker": {"gamma": float("inf")}},
             "tracker.gamma: must be a finite number, got inf", "tracker-gamma-inf"),
            ({"tracker": {"d_max": float("inf")}},
             "tracker.d_max: must be a finite number, got inf", "tracker-d-max-inf"),
            ({"tracker": {"r_diag": [float("inf"), 9.0, 9.0]}},
             "tracker.r_diag: must hold 3 positive finite numbers, got [inf, 9.0, 9.0]",
             "tracker-r-diag-inf"),
            ({"tracker": {"p0_diag": [4.0, 4.0, float("inf"), 16.0]}},
             "tracker.p0_diag: must hold 4 positive finite numbers, got [4.0, 4.0, inf, 16.0]",
             "tracker-p0-diag-inf"),
            ({"tracker": {"q_car": float("nan")}},
             "tracker.q_car: must be a finite number, got nan", "tracker-q-car-nan"),
            # finite but unphysical noise terms and margins; each of these used to exit 0
            ({"tracker": {"q_car": 1.0e300}},
             "tracker.q_car: must be at most 10000 m^2/s^3, got 1e+300", "tracker-q-car-huge"),
            ({"tracker": {"q_cycle": 2.0e4}},
             "tracker.q_cycle: must be at most 10000 m^2/s^3, got 20000.0",
             "tracker-q-cycle-above-bound"),
            ({"tracker": {"r_diag": [16.0, 9.0, 1.0e9]}},
             "tracker.r_diag[2]: must be at most 1e+08 px^2, got 1000000000.0",
             "tracker-r-diag-above-bound"),
            ({"tracker": {"p0_diag": [1.0e300, 4, 16, 16]}},
             "tracker.p0_diag[0]: must be at most 1e+06 m^2, got 1e+300",
             "tracker-p0-diag-position-huge"),
            ({"tracker": {"p0_diag": [4, 4, 16, 1.0e5]}},
             "tracker.p0_diag[3]: must be at most 10000 (m/s)^2, got 100000.0",
             "tracker-p0-diag-velocity-above-bound"),
            ({"scenario": {**SCENARIO, "camera": {"margin_px": 1.0e300}}},
             "camera.margin_px: must be at most 10000 px, got 1e+300", "margin-huge"),
            ({"tracker": {"d_max": 1.0e300}},
             "tracker.d_max: must be at most 1000 m, got 1e+300", "tracker-d-max-huge"),
            # a focal length or principal point of 1e300 used to run: no detections,
            # FNR 0.0 and coverage 1.0
            ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_x": 1e300}}}},
             "camera.intrinsics.f_x: must be at most 100000 px, got 1e+300", "focal-x-huge"),
            ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_y": 2e5}}}},
             "camera.intrinsics.f_y: must be at most 100000 px, got 200000.0",
             "focal-y-above-bound"),
            ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "c_x": 1e300}}}},
             "camera.intrinsics.c_x: must be within 10000 px of the image origin, got 1e+300",
             "principal-x-huge"),
            ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "c_y": -2e4}}}},
             "camera.intrinsics.c_y: must be within 10000 px of the image origin, got -20000.0",
             "principal-y-far-negative"),
            ({"scenario": {**SCENARIO, "camera": {"camera_height": 1e300}}},
             "camera.camera_height: must be at most 10 m, got 1e+300", "camera-height-huge"),
            ({"scenario": {**SCENARIO, "camera": {"camera_height": 10.5}}},
             "camera.camera_height: must be at most 10 m, got 10.5", "camera-height-above-bound"),
            ({"warmup_s": float("nan")},
             "warmup_s: must be a finite number, got nan", "warmup-nan"),
            ({"sampler": {"kind": "interval", "period": float("inf")}},
             "sampler.period: must be a finite number, got inf", "period-inf"),
            ({"sampler": {"kind": "confidence", "c_min": float("nan")}},
             "sampler.c_min: must be a finite number, got nan", "c-min-nan"),
            ({"risk": {"alert_threshold": float("nan")}},
             "risk.alert_threshold: must be a finite number, got nan", "alert-threshold-nan"),
            # kappa lies in [0, 1]: 0 used to alert on every tick, 1.5 never
            ({"risk": {"alert_threshold": 0.0}},
             "risk.alert_threshold: must be in (0, 1], got 0.0", "alert-threshold-zero"),
            ({"risk": {"alert_threshold": 1.5}},
             "risk.alert_threshold: must be in (0, 1], got 1.5", "alert-threshold-above-one"),
            ({"risk": {"reaction_time": float("inf")}},
             "risk.reaction_time: must be a positive finite number, got inf", "reaction-time-inf"),
            # fov is checked before the trace files are opened, so none are needed here;
            # the rule is the scenario's detector.fov rule
            ({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl",
             "fov": float("nan")},
             "fov: must be in (0, pi), got nan", "fov-nan"),
            ({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl", "fov": 0.0},
             "fov: must be in (0, pi), got 0.0", "fov-zero"),
            ({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl", "fov": 3.5},
             "fov: must be in (0, pi), got 3.5", "fov-above-pi"),
            # an infinite tick count used to exit 4 (OverflowError) inside generate
            ({"scenario": {**SCENARIO, "duration": 1e308}},
             "duration: times tick_rate must give at most 1000000 ticks, got inf",
             "scenario-tick-count-overflows"),
            ({"fov": 0.05},
             "fov: not allowed beside an inline scenario; the scenario's detector.fov sets it",
             "fov-beside-inline-scenario"),
            ({"trace": "trace.jsonl", "truth": "truth.jsonl"},
             "trace, truth, scenario: a run config needs exactly one of trace+truth paths or a "
             "scenario", "files-beside-inline-scenario"),
            ({"scenario": None, "trace": "trace.jsonl"},
             "trace, truth: must be given together", "trace-without-truth"),
            ({"scenario": None},
             "trace, truth, scenario: a run config needs exactly one of trace+truth paths or a "
             "scenario", "no-input"),
            ({"scenario": None, "fov": 1.0},
             "trace, truth, scenario: a run config needs exactly one of trace+truth paths or a "
             "scenario", "fov-without-input"),
            ({"scenario": 3},
             "scenario: expected dict or str, got 3", "scenario-not-a-mapping-or-path"),
            ({"sampler": {"kind": None}}, "sampler.kind: expected str, got None", "kind-null"),
            # YAML booleans and quoted numbers are not numbers
            ({"seed": True}, "seed: expected int, got True", "seed-true"),
            ({"seed": "3"}, "seed: expected int, got '3'", "seed-quoted"),
            ({"warmup_s": True}, "warmup_s: expected float, got True", "warmup-true"),
            ({"warmup_s": "0"}, "warmup_s: expected float, got '0'", "warmup-quoted"),
            ({"sampler": {"kind": "interval", "period": True}},
             "sampler.period: expected float, got True", "period-true"),
            ({"risk": {"alert_threshold": False}},
             "risk.alert_threshold: expected float, got False", "alert-threshold-false"),
            ({"tracker": {"miss_max": True}},
             "tracker.miss_max: expected int, got True", "tracker-miss-max-true"),
            ({"tracker": {"r_diag": [True, 9.0, 9.0]}},
             "tracker.r_diag: must hold 3 positive finite numbers, got [True, 9.0, 9.0]",
             "tracker-r-diag-true"),
            ({"sampler": {"kind": "sarsa", "conf_edges": [False, 0.1, 0.5]}},
             "sampler.conf_edges: must be a strictly increasing tuple of finite numbers, got "
             "(False, 0.1, 0.5)", "sampler-edges-false"),
            ({"scenario": {**SCENARIO, "duration": True}},
             "duration: expected float, got True", "scenario-duration-true"),
            ({"scenario": {**SCENARIO, "seed": True}},
             "seed: expected int, got True", "scenario-seed-true"),
            ({"sampler": {"kind": "sarsa", "qtable": ""}},
             "sampler.qtable: must name a Q-table file, got ''", "qtable-empty"),
            # only sarsa reads a Q-table; a path beside another kind is never opened
            ({"sampler": {"kind": "interval", "qtable": "does-not-exist.txt"}},
             "sampler.qtable: only the sarsa sampler reads a Q-table; the run's sampler is "
             "'interval'", "qtable-beside-baseline"),
            # a warm-up past any scenario's end used to score 0 ticks with exit 0,
            # a one-minute-plus reaction time to alert on nearly every approach
            ({"warmup_s": 1e308}, "warmup_s: must be at most 1e+06 s, got 1e+308", "warmup-huge"),
            ({"risk": {"reaction_time": 1e308}},
             "risk.reaction_time: must be at most 60 s, got 1e+308", "reaction-time-huge"),
        ]),
        # used to report Python's unpacking error
        pytest.param(_qtable("bad.qtable", "tick 3\n0 1 2 blink\n"), EXIT_IO,
                     "bad.qtable: line 3: expected 6 fields (conf_bin dist_bin dt_bin action value "
                     "visits), got 4", id="qtable-malformed"),
        # values save_qtable never writes; tick -10 used to exit 4 (a zero
        # division in the exploration schedule), a nan value to exit 0 and spread
        pytest.param(_qtable("tick.qtable", "tick -10\n"), EXIT_IO,
                     "tick.qtable: line 2: tick must be non-negative, got -10",
                     id="qtable-tick-negative"),
        pytest.param(_qtable("nan.qtable", "tick 3\n0 1 2 1 -0.5 4\n0 1 3 1 nan 4\n"), EXIT_IO,
                     "nan.qtable: line 4: value must be finite, got nan", id="qtable-value-nan"),
        pytest.param(_qtable("inf.qtable", "tick 3\n0 1 2 1 inf 4\n"), EXIT_IO,
                     "inf.qtable: line 3: value must be finite, got inf", id="qtable-value-inf"),
        pytest.param(_qtable("visits.qtable", "tick 3\n0 1 2 1 -0.5 -1\n"), EXIT_IO,
                     "visits.qtable: line 3: visit count must be non-negative, got -1",
                     id="qtable-visits-negative"),
        pytest.param(_qtable("action.qtable", "tick 3\n0 1 2 2 -0.5 4\n"), EXIT_IO,
                     "action.qtable: line 3: action must be 0 or 1, got 2", id="qtable-action-two"),
        pytest.param(_qtable("bin.qtable", "tick 3\n0 -1 2 1 -0.5 4\n"), EXIT_IO,
                     "bin.qtable: line 3: state bins must be non-negative and at most (4, 3, 3), "
                     "got (0, -1, 2)", id="qtable-bin-negative"),
        # a bin the run's sampler config cannot give used to load and be written back out
        pytest.param(_qtable("range.qtable", "tick 3\n99 1 2 1 1.0 1\n"), EXIT_IO,
                     "range.qtable: line 3: state bins must be non-negative and at most (4, 3, 3), "
                     "got (99, 1, 2)", id="qtable-bin-above-range"),
        pytest.param(_qtable("edges.qtable", "tick 3\n4 1 2 1 1.0 1\n", conf_edges=[0.1]), EXIT_IO,
                     "edges.qtable: line 3: state bins must be non-negative and at most "
                     "(2, 3, 3), got (4, 1, 2)", id="qtable-bin-above-run-edges"),
        # both used to load: the later repeated row won, and foo 3 read as tick 3
        pytest.param(_qtable("repeat.qtable", "tick 3\n0 1 2 1 0.5 4\n0 1 3 1 0.5 4\n"
                             "0 1 2 1 0.7 4\n"), EXIT_IO,
                     "repeat.qtable: line 5: repeated row for state (0, 1, 2) and action 1",
                     id="qtable-row-repeated"),
        pytest.param(_qtable("label.qtable", "foo 3\n0 1 2 1 -0.5 4\n"), EXIT_IO,
                     "label.qtable: line 2: expected 'tick <count>', got 'foo 3'",
                     id="qtable-tick-mislabelled"),
        # used to exit 4 with UnicodeDecodeError, the whole file in the message
        pytest.param(_qtable("utf8.qtable", "tick 3\n0 1 2 1 -0.5 4\udcff\n"), EXIT_IO,
                     "utf8.qtable: line 3: not UTF-8: invalid start byte (byte 0xff)",
                     id="qtable-not-utf8"),
        pytest.param(_run({"sampler": {"kind": "sarsa", "qtable": "missing.qtable"}}), EXIT_IO,
                     "[Errno 2] No such file or directory: 'missing.qtable'", id="qtable-missing"),
        # headers that agree on a duration the records do not have used to run (exit 0)
        pytest.param(_edited(_claim_nine_seconds, duration=5.0), EXIT_IO,
                     "trace.jsonl: line 1: the header's duration and tick rate give 90 records, "
                     "the file holds 50", id="headers-claim-more-records"),
        pytest.param(_run({"sampler": {"kind": "sarsa", "qtable": "bad.qtable"}},
                          "--sampler", "random"), EXIT_CONFIG,
                     "sampler.qtable: only the sarsa sampler reads a Q-table; the run's sampler is "
                     "'random'", id="qtable-beside-flag-baseline"),
    ],
    "test_unknown_key_is_rejected_with_its_dotted_path": [
        pytest.param(_run(change), EXIT_CONFIG, f"{path}: unknown field", id=f"-{path}")
        for change, path in [
            ({"scenario": {**SCENARIO, "durration": 5.0}}, "durration"),
            ({"scenario": {**SCENARIO, "user": {"mode": "standing", "hieght": 1.8}}},
             "user.hieght"),
            # nothing read it: the camera height is camera.camera_height
            ({"scenario": {**SCENARIO, "user": {"mode": "standing", "height": 1.9}}},
             "user.height"),
            ({"scenario": {**SCENARIO, "detector": {"fvo": 1.0}}}, "detector.fvo"),
            ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "skew": 0.0}}}},
             "camera.intrinsics.skew"),
            ({"scenario": {**SCENARIO, "vehicles": [*SCENARIO["vehicles"],
                                                    {**SCENARIO["vehicles"][0], "foo": 1}]}},
             "vehicles[1].foo"),
            ({"tracker": {"iou_gat": 0.2}}, "tracker.iou_gat"),
            ({"sampler": {"kind": "sarsa", "epsilon": 0.5}}, "sampler.epsilon"),
            ({"risk": {"reaction": 2.0}}, "risk.reaction"),
            ({"warmupp_s": 30.0}, "warmupp_s"),
        ]
    ],
    # the seed, tick rate and duration cases used to load and run (exit 0), as did
    # a pair whose headers disagree on anything but the seed and tick rate
    "test_run_rejects_bad_input_file_with_line_number": [
        pytest.param(_edited(edit), EXIT_IO, text, id=name) for edit, text, name in [
            (_set_box(0, float("nan")), "trace.jsonl: line 52: non-finite number NaN", "nan-box"),
            (_set_box(1, "top"), "trace.jsonl: line 52: non-finite number or non-number in box "
             "[220.63932825033334, 'top', 73.11367594572415, 60.85677035102931, "
             "0.033082683741615396]", "box-not-a-number"),
            (_set_box(2, 0.0), "trace.jsonl: line 52: box width and height must be positive",
             "zero-width"),
            (_set_box(3, -4.0), "trace.jsonl: line 52: box width and height must be positive",
             "negative-height"),
            (lambda trace, truth: trace[5].update(pitch=2.0),
             "trace.jsonl: line 6: pitch out of range (-pi/2, pi/2)", "pitch-out-of-range"),
            (_repeat_t, "trace.jsonl: line 6: t=0.3 does not increase", "t-not-increasing"),
            (lambda trace, truth: truth[5].update(t=truth[5]["t"] + 0.05),
             "truth.jsonl: line 6: truth t=0.45 but trace t=0.4; " + UNALIGNED,
             "truth-t-disagrees"),
            (lambda trace, truth: truth.pop(),
             "truth.jsonl: line 121: truth t=None but trace t=11.9; " + UNALIGNED,
             "truth-truncated"),
            (_set_truth_object(2, float("nan")), "truth.jsonl: line 12: non-finite number NaN",
             "nan-truth-object"),
            (_set_truth_object(1, "bus"), "truth.jsonl: line 12: object "
             "[1, 'bus', 0.9, -25.0, 0.0, 2.4, 1.5]: class must be one of ('car', 'cycle')",
             "unknown-truth-class"),
            # each of these used to load: a bool passed the number check, and a bus
            # was tracked as a car
            (lambda trace, truth: trace[3].update(pitch=True), "trace.jsonl: line 4: non-finite "
             "number or non-number in t, pitch, yaw [0.2, True, 3.12271494191511]", "pitch-true"),
            (_set_box(0, True), "trace.jsonl: line 52: non-finite number or non-number in box "
             "[True, 313.05210888061714, 73.11367594572415, 60.85677035102931, "
             "0.033082683741615396]", "box-x-true"),
            (_set_truth_object(2, False), "truth.jsonl: line 12: non-finite number or non-number "
             "in object [False, -25.0, 0.0, 2.4, 1.5]", "truth-object-x-false"),
            (_set_box(4, "bus"), "trace.jsonl: line 52: box [220.63932825033334, "
             "313.05210888061714, 73.11367594572415, 60.85677035102931, 'bus', "
             "0.033082683741615396]: class must be one of ('car', 'cycle')", "unknown-box-class"),
            (_bad_header_focal, "trace.jsonl: line 1: f_x: must be positive", "header-focal-zero"),
            (_set_header("trace", "camera_height", 0),
             "trace.jsonl: line 1: camera_height: must be positive", "header-camera-height-zero"),
            (_set_header("trace", "seed", "abc"),
             "trace.jsonl: line 1: seed: must be a non-negative integer", "header-seed-string"),
            (_set_header("trace", "seed", 3.5),
             "trace.jsonl: line 1: seed: must be a non-negative integer", "header-seed-fraction"),
            (_set_header("trace", "tick_rate", -10),
             "trace.jsonl: line 1: tick_rate: must be positive", "header-tick-rate-negative"),
            (_set_header("truth", "duration", 0), "truth.jsonl: line 1: duration: must be positive",
             "header-duration-zero"),
            (_set_header("truth", "duration", 9.0), "truth.jsonl: line 1: " + DISAGREE,
             "headers-disagree-on-duration"),
            (_set_header("truth", "camera_height", 1.6), "truth.jsonl: line 1: " + DISAGREE,
             "headers-disagree-on-camera"),
        ]
    ],
    "test_misaligned_truth_line_number_counts_blank_lines": (
        _edited(_shift_truth_t_after_blank_lines), EXIT_IO,
        "truth.jsonl: line 9: truth t=0.55 but trace t=0.5; " + UNALIGNED),
    "test_compare_unknown_sampler_in_config": (
        _compare({"samplers": ["everyframe", "sonar"]}), EXIT_CONFIG, "samplers: must be one of "
        "('sarsa', 'everyframe', 'interval', 'random', 'confidence'), got 'sonar'"),
    "test_compare_duplicate_scenario_name_is_a_config_error": (
        _compare({"scenarios": [{"name": "cars", "scenario": SCENARIO},
                                {"name": "cars", "scenario": {**SCENARIO, "seed": 32}}]}),
        EXIT_CONFIG, "scenarios: duplicate name 'cars'"),
    "test_compare_seeds_must_be_non_negative_integers": [
        pytest.param(_compare({"seeds": seeds}), EXIT_CONFIG, SEEDS + got, id=name)
        for seeds, got, name in [([1, "two"], "(1, 'two')", "not-a-number"),
                                 ([-1], "(-1,)", "negative"),
                                 ([1, 1], "(1, 1); seed 1 repeats", "repeated"),
                                 ([], "()", "empty")]
    ],
    "test_compare_exit_code_table": [
        pytest.param(_compare(change), EXIT_CONFIG, text, id=name) for change, text, name in [
            ({"seed": 7}, "seed: unknown field", "unknown-seed"),
            ({"warmupp_s": 30.0}, "warmupp_s: unknown field", "unknown-warmupp-s"),
            ({"scenarios": [{"name": "cars", "scenario": SCENARIO, "seed": 4}]},
             "scenarios[0].seed: unknown field", "unknown-entry-key"),
            ({"scenarios": [{"name": "cars"}]}, "scenarios[0].scenario: missing",
             "entry-without-scenario"),
            ({"scenarios": ["cars.yaml"]}, "scenarios[0]: must be a mapping",
             "entry-not-a-mapping"),
            ({"scenarios": [{"scenario": 3}]}, "scenarios[0].scenario: expected dict or str, got 3",
             "entry-scenario-number"),
            ({"sampler": {"kind": "sarsa"}}, "sampler.kind: unknown field", "sampler-kind"),
            ({"sampler": {"qtable": "q.txt"}}, "sampler.qtable: unknown field", "sampler-qtable"),
            ({"suite": "standard"}, ONE_SUITE, "suite-beside-scenarios"),
            ({"suite": "full", "scenarios": None}, "suite: must be 'standard', got 'full'",
             "suite-unknown"),
            ({"budget_match": "false"}, "budget_match: expected bool, got 'false'",
             "budget-match-quoted"),
            ({"samplers": []}, "samplers: at least one is required", "samplers-empty"),
            ({"warmup_s": True}, "warmup_s: expected float, got True", "warmup-true"),
            # used to run, measuring from the first tick
            ({"warmup_s": -5.0}, "warmup_s: must be non-negative, got -5.0", "warmup-negative"),
            ({"seeds": [True]}, SEEDS + "(True,)", "seeds-true"),
            ({"risk": {"reaction_time": False}}, "risk.reaction_time: expected float, got False",
             "reaction-time-false"),
            # checked on load, though budget matching would replace both
            ({"budget_match": True, "sampler": {"period": 0.5}},
             "sampler.period: must be at least one tick, got 0.5", "period-below-one-tick"),
            ({"budget_match": True, "sampler": {"p": 1.5}},
             "sampler.p: must be a blink probability in [0, 1], got 1.5", "p-above-one"),
        ]
    ],
    "test_compare_without_scenarios_is_a_config_error": (
        _cmd(["compare", "--config", "cmp.yaml", "--out", "out"],
             {"cmp.yaml": {"samplers": ["everyframe"]}}), EXIT_CONFIG, ONE_SUITE),
}

# the rows that also run in a fresh interpreter: the exit-code checks CI ran
# through the installed `rearguard`, keyed by the names of their files there
CONSOLE_REPROS = {
    "huge": ("test_run_exit_code_table", "scenario-tick-count-overflows"),
    "nan": ("test_generate_refuses_the_lane_change_that_wrote_nan_truth", None),
    "dtmax": ("test_run_exit_code_table", "sampler-dt-max-401-digits"),
    "cost": ("test_run_exit_code_table", "sampler-cost-minus-inf"),
    "badq": ("test_run_exit_code_table", "qtable-tick-negative"),
    "repeatq": ("test_run_exit_code_table", "qtable-row-repeated"),
    "rangeq": ("test_run_exit_code_table", "qtable-bin-above-range"),
    "utf8q": ("test_run_exit_code_table", "qtable-not-utf8"),
    "sway": ("test_run_exit_code_table", "yaw-period-tiny"),
    "badseed": ("test_run_rejects_bad_input_file_with_line_number", "header-seed-string"),
    "longer": ("test_run_rejects_bad_input_file_with_line_number", "headers-disagree-on-duration"),
    "claim": ("test_run_exit_code_table", "headers-claim-more-records"),
    "badbyte": ("test_generate_refuses_a_config_byte_that_is_not_utf8", None),
    "badbyterun": ("test_run_refuses_a_byte_that_is_not_utf8_at_its_line", "trace-"),
}

# the body of the console-script wrapper that installing the package generates
CONSOLE_SCRIPT = "import sys; from rearguard.cli import main; sys.exit(main())"


def _refuses(build, code, text, tmp_path, monkeypatch, capsys, fresh=False):
    """Runs one row in `tmp_path`, in process or in a fresh interpreter: the
    command exits `code`, its stderr is `error: ` and `text`, and it writes nothing."""
    monkeypatch.chdir(tmp_path)
    argv = build()
    inputs = sorted(tmp_path.rglob("*"))
    if fresh:
        done = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], env=SRC_ENV,
                              capture_output=True, text=True)
        got, err = done.returncode, done.stderr
    else:
        got, err = main(argv), capsys.readouterr().err
    assert (got, err) == (code, f"error: {text}\n")
    assert sorted(tmp_path.rglob("*")) == inputs


def _in_process(rows):
    if isinstance(rows, tuple):
        return lambda tmp_path, monkeypatch, capsys: _refuses(*rows, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("build, code, text", rows)
    def test(build, code, text, tmp_path, monkeypatch, capsys):
        _refuses(build, code, text, tmp_path, monkeypatch, capsys)
    return test


globals().update({name: _in_process(rows) for name, rows in REFUSALS.items()})


def _row(name, param_id):
    rows = REFUSALS[name]
    return rows if param_id is None else next(p.values for p in rows if p.id == param_id)


@pytest.mark.parametrize("build, code, text", [
    pytest.param(*_row(*where), id=repro) for repro, where in CONSOLE_REPROS.items()])
def test_console_script_refuses(build, code, text, tmp_path, monkeypatch, capsys):
    _refuses(build, code, text, tmp_path, monkeypatch, capsys, fresh=True)


# ------------------------------------------------------------ digest pins

def _digest_case(tmp_path, case):
    out = tmp_path / "out"
    if case == "run-helper":
        argv, name = ["run", "--config", run_config(tmp_path)], "report.json"
    elif case == "compare-helper":
        argv, name = ["compare", "--config", compare_config(tmp_path)], "comparison.json"
    elif case == "run-integer-warmup":
        cfg = run_config(tmp_path, warmup_s=60, sampler={"kind": "interval", "period": 120})
        argv, name = ["run", "--config", cfg], "report.json"
    else:
        argv = ["run", "--config", run_config(tmp_path), "--seed", "9",
                "--warmup-s", "2", "--sampler", "random"]
        name = "report.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return json.loads((out / name).read_text())["config_digest"]


# recorded before run and compare files got their dataclass schema; the
# digested payload is the resolved config dict and must keep its bytes
@pytest.mark.parametrize("case, digest", [
    ("run-helper",
     "e980b208faa45a7074ad1ef1b6ccc656c1c19f43cb4ba8bb7b2ac26bf0b2e775"),
    ("compare-helper",
     "462ae52d9a43144573f22e15b994d10658f1327210c4d7e2bb2a2c0a4eebf40c"),
    ("run-integer-warmup",
     "54f2d435b9ef92e166292a1a5f50bdb268823b2cf3c86db5dce3d50aaaf99de8"),
    ("run-flag-overrides",
     "320039a3bdf4064eff494be0a9c49a6fdda2a4f157a38ea18b9755f3ed62858d"),
])
def test_config_digest_is_pinned(tmp_path, case, digest):
    assert _digest_case(tmp_path, case) == digest
