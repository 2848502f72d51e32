"""End-to-end command tests, run in process through main().

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
    read_trace,
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


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def run_config(tmp_path, **overrides):
    payload = {
        "seed": 5,
        "warmup_s": 0.0,
        "scenario": dict(SCENARIO),
        "sampler": {"kind": "sarsa"},
        **overrides,
    }
    return write_yaml(tmp_path / "run.yaml", payload)


# -------------------------------------------------------------- generate

def test_the_package_imports_without_scipy():
    """A fresh interpreter that imports the command line loads no scipy:
    association solves its own assignments, so every command is spared
    the import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rearguard.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
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


def test_generate_invalid_config_names_the_field(tmp_path, capsys):
    bad = {**SCENARIO, "user": {"mode": "driving"}}
    cfg = write_yaml(tmp_path / "scen.yaml", bad)
    code = main(["generate", "--config", cfg, "--out", str(tmp_path / "g")])
    assert code == EXIT_CONFIG
    assert "user.mode" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# each used to pass: a NaN x0 wrote a truth file that `run` refused (exit 3),
# a NaN margin dropped every detection, an infinite amplitude exited 4
@pytest.mark.parametrize("text, message", [
    ("vehicles:\n  - {cls: car, spawn_time: 0.0, x0: .nan, z0: -20.0, speed: 2.0}\n",
     "vehicles[0].x0: must be a finite number, got nan"),
    ("camera: {margin_px: .nan}\n", "camera.margin_px: must be a finite number, got nan"),
    ("head_motion: {yaw_amplitude: .inf, yaw_period: 4.0, pitch_amplitude: 0.04,\n"
     "              pitch_period: 3.5, jitter_std: 0.004}\n",
     "head_motion.yaw_amplitude: must be a finite number, got inf"),
    ("camera:\n  intrinsics: {f_x: 600.0, f_y: 600.0, c_x: .nan, c_y: 320.0}\n",
     "camera.intrinsics.c_x: must be a finite number, got nan"),
    ("vehicles:\n  - {cls: car, spawn_time: 0.0, x0: 0.0, z0: -20.0, speed: 2.0,\n"
     "     profile: decelerate-at, params: {at: .inf, rate: 1.0}}\n",
     "vehicles[0].params.at: must be finite, got inf"),
    ("detector: {occlusion_sector: .nan}\n",
     "detector.occlusion_sector: must be a finite number, got nan"),
], ids=["vehicle-x0-nan", "margin-nan", "yaw-amplitude-inf", "intrinsics-nan", "param-inf",
        "occlusion-nan"])
def test_generate_rejects_a_non_finite_number_by_its_path(tmp_path, capsys, text, message):
    cfg = tmp_path / "scen.yaml"
    cfg.write_text("seed: 3\nduration: 5.0\n" + text)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g").exists()


def test_generate_refuses_the_lane_change_that_wrote_nan_truth(tmp_path, capsys):
    """x0 1e308 changing lane to -1e308 used to exit 0 with NaN in 15 truth
    lines, for `run` to refuse the file (exit 3)."""
    cfg = tmp_path / "scen.yaml"
    cfg.write_text("seed: 3\nduration: 2.0\nvehicles:\n"
                   "  - {cls: car, spawn_time: 0.0, x0: 1.0e+308, z0: -20.0, speed: 3.0,\n"
                   "     profile: lane-change-at, params: {at: 0.5, to_x: -1.0e+308, duration: 1.0}}\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: vehicles[0].x0: must be in [-1000, 1000] m, got 1e+308\n"
    assert not (tmp_path / "g").exists()


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


def test_scenario_out_must_be_a_path(tmp_path, capsys):
    scen = write_yaml(tmp_path / "scen.yaml", {**SCENARIO, "out": 5})
    assert main(["generate", "--config", scen]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: out: expected str, got 5\n"


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


def test_run_missing_trace_exits_3_and_names_the_path(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5,
        "trace": str(tmp_path / "nope.jsonl"),
        "truth": str(tmp_path / "nope-truth.jsonl"),
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_IO
    assert "nope.jsonl" in capsys.readouterr().err


def test_run_corrupt_trace_exits_3(tmp_path, capsys):
    scen_cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    gen_out = tmp_path / "g"
    assert main(["generate", "--config", scen_cfg, "--out", str(gen_out)]) == EXIT_OK
    trace = gen_out / "trace.jsonl"
    lines = trace.read_text().splitlines()
    lines[3] = "{broken"
    trace.write_text("\n".join(lines) + "\n")

    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5,
        "trace": str(trace),
        "truth": str(gen_out / "truth.jsonl"),
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_IO
    assert "line 4" in capsys.readouterr().err


def test_run_trace_with_an_int_too_large_for_a_double_exits_3(tmp_path, capsys):
    scen_cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    gen_out = tmp_path / "g"
    assert main(["generate", "--config", scen_cfg, "--out", str(gen_out)]) == EXIT_OK
    trace = gen_out / "trace.jsonl"
    lines = trace.read_text().splitlines()
    record = json.loads(lines[3])
    record["pitch"] = "<pitch>"
    lines[3] = json.dumps(record).replace('"<pitch>"', "1" + "0" * 400)
    trace.write_text("\n".join(lines) + "\n")

    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5,
        "trace": str(trace),
        "truth": str(gen_out / "truth.jsonl"),
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "line 4: non-finite number or non-number" in err and "internal error" not in err


# a byte that is not UTF-8 used to exit 4, with the whole file in the message
@pytest.mark.parametrize("name, prefix", [("trace", b""), ("truth", b'{"kind":')])
def test_run_refuses_a_byte_that_is_not_utf8_at_its_line(tmp_path, capsys, name, prefix):
    scen_cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    gen_out = tmp_path / "g"
    assert main(["generate", "--config", scen_cfg, "--out", str(gen_out)]) == EXIT_OK
    path = gen_out / f"{name}.jsonl"
    lines = path.read_bytes().split(b"\n")
    lines[5] = prefix + b"\xff" + lines[5][len(prefix):]
    path.write_bytes(b"\n".join(lines))

    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5, "trace": str(gen_out / "trace.jsonl"), "truth": str(gen_out / "truth.jsonl"),
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: {path}: line 6: not UTF-8: invalid start byte (byte 0xff)\n")


def test_a_bad_byte_counts_lines_as_the_reader_splits_them(tmp_path):
    """Line numbers follow the reader's own line breaks, carriage returns
    among them, and a multi-byte character before the bad byte."""
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"header\r\nfirst\rsecond \xc3\xa9\n\nfourth \xc3\n")
    with pytest.raises(ParseError, match=r"trace.jsonl: line 5: not UTF-8: "
                                         r"invalid continuation byte \(byte 0xc3\)$"):
        read_trace(path)


def test_run_without_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "run.yaml", {"scenario": dict(SCENARIO)})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_run_unknown_sampler_kind_in_config(tmp_path, capsys):
    cfg = run_config(tmp_path, sampler={"kind": "telepathy"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sampler.kind: must be one of ('sarsa', " in err and "got 'telepathy'" in err


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

INTRINSICS = {"f_x": 600.0, "f_y": 600.0, "c_x": 320.0, "c_y": 320.0}


# Q-table bodies after the format line, for the exit-code table
QTABLE_FILES = {
    "bad.qtable": "tick 3\n0 1 2 blink\n",
    "tick.qtable": "tick -10\n",
    "nan.qtable": "tick 3\n0 1 2 1 -0.5 4\n0 1 3 1 nan 4\n",
    "inf.qtable": "tick 3\n0 1 2 1 inf 4\n",
    "visits.qtable": "tick 3\n0 1 2 1 -0.5 -1\n",
    "action.qtable": "tick 3\n0 1 2 2 -0.5 4\n",
    "bin.qtable": "tick 3\n0 -1 2 1 -0.5 4\n",
    "range.qtable": "tick 3\n99 1 2 1 1.0 1\n",
    "edges.qtable": "tick 3\n4 1 2 1 1.0 1\n",
    "repeat.qtable": "tick 3\n0 1 2 1 0.5 4\n0 1 3 1 0.5 4\n0 1 2 1 0.7 4\n",
    "label.qtable": "foo 3\n0 1 2 1 -0.5 4\n",
    # \udcff writes the byte 0xff (surrogateescape): not UTF-8, at the end of line 3
    "utf8.qtable": "tick 3\n0 1 2 1 -0.5 4\udcff\n",
}


@pytest.fixture(scope="module")
def long_pair(tmp_path_factory):
    """A generated 5 s, 50-record trace and truth pair with both headers
    edited alike to a 9 s duration."""
    root = tmp_path_factory.mktemp("long")
    scen = write_yaml(root / "scen.yaml", {**SCENARIO, "duration": 5.0})
    assert main(["generate", "--config", scen, "--out", str(root / "gen")]) == EXIT_OK
    for f in ("trace.jsonl", "truth.jsonl"):
        header, *records = (root / "gen" / f).read_text().splitlines(keepends=True)
        assert len(records) == 50
        (root / f).write_text(json.dumps({**json.loads(header), "duration": 9.0}) + "\n"
                              + "".join(records))
    return root


@pytest.mark.parametrize("change, code, text", [
    pytest.param({"sampler": {"kind": "interval", "period": "often"}}, EXIT_CONFIG,
                 "sampler.period: expected float, got 'often'", id="period-not-a-number"),
    pytest.param({"sampler": {"kind": "random", "p": "half"}}, EXIT_CONFIG,
                 "sampler.p:", id="p-not-a-number"),
    pytest.param({"sampler": {"kind": "confidence", "c_min": [1.5]}}, EXIT_CONFIG,
                 "sampler.c_min:", id="c_min-not-a-number"),
    pytest.param({"sampler": {"kind": "interval", "period": 0.5}}, EXIT_CONFIG,
                 "sampler.period: must be at least one tick", id="period-below-one-tick"),
    pytest.param({"sampler": {"kind": "sarsa", "eta": -1.0}}, EXIT_CONFIG,
                 "sampler.eta: must be positive", id="sampler-field-invalid"),
    pytest.param({"sampler": "sarsa"}, EXIT_CONFIG,
                 "sampler: must be a mapping", id="sampler-not-a-mapping"),
    pytest.param({"sampler": {"kind": "sarsa", "dt_max": -1.0}}, EXIT_CONFIG,
                 "sampler.dt_max: must be positive", id="sampler-dt-max-negative"),
    pytest.param({"sampler": {"kind": "confidence", "dt_max": float("nan")}}, EXIT_CONFIG,
                 "sampler.dt_max: must be a finite number, got nan", id="sampler-dt-max-nan"),
    # an int too large for a double used to exit 4 with an OverflowError
    pytest.param({"sampler": {"kind": "sarsa", "dt_max": 10**400}}, EXIT_CONFIG,
                 "sampler.dt_max: must be a finite number, got 1000",
                 id="sampler-dt-max-401-digits"),
    pytest.param({"sampler": {"kind": "sarsa", "conf_edges": [0.5, 0.1, 0.02]}}, EXIT_CONFIG,
                 "sampler.conf_edges: must be a strictly increasing tuple of finite numbers",
                 id="sampler-edges-unsorted"),
    pytest.param({"sampler": {"kind": "sarsa", "eta": float("nan")}}, EXIT_CONFIG,
                 "sampler.eta: must be a finite number, got nan", id="sampler-eta-nan"),
    pytest.param({"sampler": {"kind": "sarsa", "sample_cost": float("nan")}}, EXIT_CONFIG,
                 "sampler.sample_cost: must be a finite number, got nan", id="sampler-cost-nan"),
    # a -inf cost used to exit 0 with an all-nan Q-table, a 401-digit one
    # to exit 4 with an OverflowError
    pytest.param({"sampler": {"kind": "sarsa", "sample_cost": -float("inf")}}, EXIT_CONFIG,
                 "sampler.sample_cost: must be a finite number, got -inf",
                 id="sampler-cost-minus-inf"),
    pytest.param({"sampler": {"kind": "sarsa", "sample_cost": -10**400}}, EXIT_CONFIG,
                 "sampler.sample_cost: must be a finite number, got -1000",
                 id="sampler-cost-401-digits"),
    # finite values past each knob's physical bound used to load: a -1e308 cost
    # learned NaN Q-values, a negative c_min never blinked on a track
    pytest.param({"sampler": {"kind": "sarsa", "sample_cost": -1e308}}, EXIT_CONFIG,
                 "sampler.sample_cost: must be at least -1e+06, got -1e+308",
                 id="sampler-cost-beyond-bound"),
    pytest.param({"sampler": {"kind": "confidence", "c_min": -1.0}}, EXIT_CONFIG,
                 "sampler.c_min: must be in (0, 1e+06], got -1.0", id="c-min-negative"),
    pytest.param({"tracker": {"gamma": 1e308}}, EXIT_CONFIG,
                 "tracker.gamma: must be at most 1 m^2, got 1e+308", id="tracker-gamma-huge"),
    pytest.param({"sampler": {"kind": "sarsa", "eta": 1e308}}, EXIT_CONFIG,
                 "sampler.eta: must be at most 1 per tick, got 1e+308", id="sampler-eta-huge"),
    pytest.param({"sampler": {"kind": "confidence", "dt_max": 1e308}}, EXIT_CONFIG,
                 "sampler.dt_max: must be at most 1e+06 s, got 1e+308", id="sampler-dt-max-huge"),
    pytest.param({"sampler": {"kind": "interval", "period": 1e308}}, EXIT_CONFIG,
                 "sampler.period: must be at most 1e+09 ticks, got 1e+308", id="period-huge"),
    pytest.param({"sampler": {"kind": "sarsa", "conf_edges": [0.02, 0.1, 1e308]}}, EXIT_CONFIG,
                 "sampler.conf_edges: must lie in [0, 1e+06], got (0.02, 0.1, 1e+308)",
                 id="sampler-conf-edges-huge"),
    pytest.param({"sampler": {"kind": "sarsa", "dist_edges": [5.0, 10.0, 1e308]}}, EXIT_CONFIG,
                 "sampler.dist_edges: must lie in [0, 1000] m, got (5.0, 10.0, 1e+308)",
                 id="sampler-dist-edges-huge"),
    pytest.param({"sampler": {"kind": "sarsa", "dt_edges": [0.2, 0.5, 1e308]}}, EXIT_CONFIG,
                 "sampler.dt_edges: must lie in [0, 1e+06] s, got (0.2, 0.5, 1e+308)",
                 id="sampler-dt-edges-huge"),
    pytest.param({"seed": "five"}, EXIT_CONFIG, "seed:", id="seed-not-a-number"),
    pytest.param({"warmup_s": "soon"}, EXIT_CONFIG, "warmup_s:", id="warmup-not-a-number"),
    pytest.param({"risk": {"reaction_time": "slow"}}, EXIT_CONFIG,
                 "risk.reaction_time:", id="reaction-time-not-a-number"),
    pytest.param({"risk": {"alert_threshold": None}}, EXIT_CONFIG,
                 "risk.alert_threshold:", id="alert-threshold-null"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_x": -1.0}}}},
                 EXIT_CONFIG, "camera.intrinsics.f_x: must be positive", id="intrinsics-invalid"),
    # a negative margin used to drop every detection without an error
    pytest.param({"scenario": {**SCENARIO, "camera": {"margin_px": -1}}}, EXIT_CONFIG,
                 "camera.margin_px: must be non-negative", id="margin-negative"),
    pytest.param({"scenario": {**SCENARIO, "vehicles": [{"cls": "car", "spawn_time": 1.0}]}},
                 EXIT_CONFIG, "vehicles[0].x0, vehicles[0].z0, vehicles[0].speed: missing",
                 id="vehicle-field-missing"),
    pytest.param({"scenario": {**SCENARIO, "detector": {"first_detect_m": {"car": "far"}}}},
                 EXIT_CONFIG, "detector.first_detect_m.car: must be in", id="detector-median-not-a-number"),
    pytest.param({"scenario": {**SCENARIO, "head_motion": {
        "yaw_amplitude": 0.1, "yaw_period": 4.0, "pitch_amplitude": 1.6, "pitch_period": 3.5,
        "jitter_std": 0.0}}}, EXIT_CONFIG, "head_motion.pitch_amplitude:", id="pitch-amplitude-too-big"),
    pytest.param({"seed": -1}, EXIT_CONFIG, "seed: must be non-negative", id="seed-negative"),
    # each of these used to configure nothing and exit 0
    pytest.param({"scenario": {**SCENARIO, "detector": {
        "first_detect_m": {"car": 12.0, "cycle": 6.0, "truck": 3.0}}}}, EXIT_CONFIG,
                 "detector.first_detect_m.truck: unknown class, expected one of ('car', 'cycle')",
                 id="first-detect-unknown-class"),
    pytest.param({"scenario": {**SCENARIO, "detector": {
        "spread_m": {"car": 1.2, "cycle": 0.8, "truck": 3.0}}}}, EXIT_CONFIG,
                 "detector.spread_m.truck: unknown class, expected one of ('car', 'cycle')",
                 id="spread-unknown-class"),
    pytest.param({"scenario": {**SCENARIO, "detector": {"occlusion_sector": -0.1}}}, EXIT_CONFIG,
                 "detector.occlusion_sector: must be in [0, pi), got -0.1",
                 id="occlusion-sector-negative"),
    pytest.param({"warmup_s": -1.0}, EXIT_CONFIG,
                 "warmup_s: must be non-negative, got -1.0", id="warmup-negative"),
    # a 1e-307 period used to exit 4: 2 * pi * t / period overflowed, and sin(inf) raised
    pytest.param({"scenario": {**SCENARIO, "head_motion": {
        "yaw_amplitude": 0.1, "yaw_period": 1e-307, "pitch_amplitude": 0.04, "pitch_period": 3.5,
        "jitter_std": 0.0}}}, EXIT_CONFIG,
                 "head_motion.yaw_period: must be at least 0.1 s, got 1e-307",
                 id="yaw-period-tiny"),
    pytest.param({"scenario": {**SCENARIO, "head_motion": {
        "yaw_amplitude": 0.1, "yaw_period": 4.0, "pitch_amplitude": 0.04, "pitch_period": 0.05,
        "jitter_std": 0.0}}}, EXIT_CONFIG,
                 "head_motion.pitch_period: must be at least 0.1 s, got 0.05",
                 id="pitch-period-below-bound"),
    pytest.param({"scenario": {**SCENARIO, "head_motion": {
        "yaw_amplitude": -4.0, "yaw_period": 4.0, "pitch_amplitude": 0.04, "pitch_period": 3.5,
        "jitter_std": 0.0}}}, EXIT_CONFIG,
                 "head_motion.yaw_amplitude: must be at most pi in magnitude, got -4.0",
                 id="yaw-amplitude-beyond-pi"),
    pytest.param({"risk": {"reaction_time": 0}}, EXIT_CONFIG,
                 "risk.reaction_time: must be a positive finite number, got 0",
                 id="reaction-time-zero"),
    pytest.param({"tracker": {"gamma": 0}}, EXIT_CONFIG,
                 "tracker.gamma: must be positive", id="tracker-gamma-zero"),
    pytest.param({"tracker": {"r_diag": [16.0, 9.0]}}, EXIT_CONFIG,
                 "tracker.r_diag: must hold 3 positive finite numbers, got [16.0, 9.0]",
                 id="tracker-r-diag-short"),
    pytest.param({"scenario": {**SCENARIO, "duration": "long"}}, EXIT_CONFIG,
                 "duration: expected float", id="scenario-field-not-a-number"),
    pytest.param({"tracker": {"miss_max": "three"}}, EXIT_CONFIG,
                 "tracker.miss_max: expected int", id="tracker-field-not-a-number"),
    # non-finite filter terms: an inf noise term used to exit 4 (a NaN in the
    # filter), an inf r_diag entry or gamma to run on with a filter that ignores
    # its measurements
    pytest.param({"tracker": {"q_car": float("inf")}}, EXIT_CONFIG,
                 "tracker.q_car: must be a finite number, got inf", id="tracker-q-car-inf"),
    pytest.param({"tracker": {"q_cycle": float("inf")}}, EXIT_CONFIG,
                 "tracker.q_cycle: must be a finite number, got inf", id="tracker-q-cycle-inf"),
    pytest.param({"tracker": {"gamma": float("inf")}}, EXIT_CONFIG,
                 "tracker.gamma: must be a finite number, got inf", id="tracker-gamma-inf"),
    pytest.param({"tracker": {"d_max": float("inf")}}, EXIT_CONFIG,
                 "tracker.d_max: must be a finite number, got inf", id="tracker-d-max-inf"),
    pytest.param({"tracker": {"r_diag": [float("inf"), 9.0, 9.0]}}, EXIT_CONFIG,
                 "tracker.r_diag: must hold 3 positive finite numbers, got [inf, 9.0, 9.0]",
                 id="tracker-r-diag-inf"),
    pytest.param({"tracker": {"p0_diag": [4.0, 4.0, float("inf"), 16.0]}}, EXIT_CONFIG,
                 "tracker.p0_diag: must hold 4 positive finite numbers, got [4.0, 4.0, inf, 16.0]",
                 id="tracker-p0-diag-inf"),
    pytest.param({"tracker": {"q_car": float("nan")}}, EXIT_CONFIG,
                 "tracker.q_car: must be a finite number, got nan", id="tracker-q-car-nan"),
    # finite but unphysical noise terms and margins; each of these used to exit 0
    pytest.param({"tracker": {"q_car": 1.0e300}}, EXIT_CONFIG,
                 "tracker.q_car: must be at most 10000 m^2/s^3, got 1e+300",
                 id="tracker-q-car-huge"),
    pytest.param({"tracker": {"q_cycle": 2.0e4}}, EXIT_CONFIG,
                 "tracker.q_cycle: must be at most 10000 m^2/s^3, got 20000.0",
                 id="tracker-q-cycle-above-bound"),
    pytest.param({"tracker": {"r_diag": [16.0, 9.0, 1.0e9]}}, EXIT_CONFIG,
                 "tracker.r_diag[2]: must be at most 1e+08 px^2, got 1000000000.0",
                 id="tracker-r-diag-above-bound"),
    pytest.param({"tracker": {"p0_diag": [1.0e300, 4, 16, 16]}}, EXIT_CONFIG,
                 "tracker.p0_diag[0]: must be at most 1e+06 m^2, got 1e+300",
                 id="tracker-p0-diag-position-huge"),
    pytest.param({"tracker": {"p0_diag": [4, 4, 16, 1.0e5]}}, EXIT_CONFIG,
                 "tracker.p0_diag[3]: must be at most 10000 (m/s)^2, got 100000.0",
                 id="tracker-p0-diag-velocity-above-bound"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"margin_px": 1.0e300}}}, EXIT_CONFIG,
                 "camera.margin_px: must be at most 10000 px, got 1e+300", id="margin-huge"),
    pytest.param({"tracker": {"d_max": 1.0e300}}, EXIT_CONFIG,
                 "tracker.d_max: must be at most 1000 m, got 1e+300", id="tracker-d-max-huge"),
    # a focal length or principal point of 1e300 used to run: no detections,
    # FNR 0.0 and coverage 1.0
    pytest.param({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_x": 1e300}}}},
                 EXIT_CONFIG, "camera.intrinsics.f_x: must be at most 100000 px, got 1e+300",
                 id="focal-x-huge"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_y": 2e5}}}},
                 EXIT_CONFIG, "camera.intrinsics.f_y: must be at most 100000 px, got 200000.0",
                 id="focal-y-above-bound"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "c_x": 1e300}}}},
                 EXIT_CONFIG,
                 "camera.intrinsics.c_x: must be within 10000 px of the image origin, got 1e+300",
                 id="principal-x-huge"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "c_y": -2e4}}}},
                 EXIT_CONFIG,
                 "camera.intrinsics.c_y: must be within 10000 px of the image origin, got -20000.0",
                 id="principal-y-far-negative"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"camera_height": 1e300}}}, EXIT_CONFIG,
                 "camera.camera_height: must be at most 10 m, got 1e+300", id="camera-height-huge"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"camera_height": 10.5}}}, EXIT_CONFIG,
                 "camera.camera_height: must be at most 10 m, got 10.5",
                 id="camera-height-above-bound"),
    pytest.param({"warmup_s": float("nan")}, EXIT_CONFIG,
                 "warmup_s: must be a finite number, got nan", id="warmup-nan"),
    pytest.param({"sampler": {"kind": "interval", "period": float("inf")}}, EXIT_CONFIG,
                 "sampler.period: must be a finite number, got inf", id="period-inf"),
    pytest.param({"sampler": {"kind": "confidence", "c_min": float("nan")}}, EXIT_CONFIG,
                 "sampler.c_min: must be a finite number, got nan", id="c-min-nan"),
    pytest.param({"risk": {"alert_threshold": float("nan")}}, EXIT_CONFIG,
                 "risk.alert_threshold: must be a finite number, got nan",
                 id="alert-threshold-nan"),
    # kappa lies in [0, 1]: 0 used to alert on every tick, 1.5 never
    pytest.param({"risk": {"alert_threshold": 0.0}}, EXIT_CONFIG,
                 "risk.alert_threshold: must be in (0, 1], got 0.0", id="alert-threshold-zero"),
    pytest.param({"risk": {"alert_threshold": 1.5}}, EXIT_CONFIG,
                 "risk.alert_threshold: must be in (0, 1], got 1.5",
                 id="alert-threshold-above-one"),
    pytest.param({"risk": {"reaction_time": float("inf")}}, EXIT_CONFIG,
                 "risk.reaction_time: must be a positive finite number, got inf",
                 id="reaction-time-inf"),
    # fov is checked before the trace files are opened, so none are needed here;
    # the rule is the scenario's detector.fov rule
    pytest.param({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl",
                  "fov": float("nan")},
                 EXIT_CONFIG, "fov: must be in (0, pi), got nan", id="fov-nan"),
    pytest.param({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl", "fov": 0.0},
                 EXIT_CONFIG, "fov: must be in (0, pi), got 0.0", id="fov-zero"),
    pytest.param({"scenario": None, "trace": "trace.jsonl", "truth": "truth.jsonl", "fov": 3.5},
                 EXIT_CONFIG, "fov: must be in (0, pi), got 3.5", id="fov-above-pi"),
    # an infinite tick count used to exit 4 (OverflowError) inside generate
    pytest.param({"scenario": {**SCENARIO, "duration": 1e308}}, EXIT_CONFIG,
                 "duration: times tick_rate must give at most 1000000 ticks, got inf",
                 id="scenario-tick-count-overflows"),
    pytest.param({"fov": 0.05}, EXIT_CONFIG,
                 "fov: not allowed beside an inline scenario; the scenario's detector.fov sets it",
                 id="fov-beside-inline-scenario"),
    pytest.param({"trace": "trace.jsonl", "truth": "truth.jsonl"}, EXIT_CONFIG,
                 "trace, truth, scenario: a run config needs exactly one of",
                 id="files-beside-inline-scenario"),
    pytest.param({"scenario": None, "trace": "trace.jsonl"}, EXIT_CONFIG,
                 "trace, truth: must be given together", id="trace-without-truth"),
    pytest.param({"scenario": None}, EXIT_CONFIG,
                 "trace, truth, scenario: a run config needs exactly one of", id="no-input"),
    pytest.param({"scenario": None, "fov": 1.0}, EXIT_CONFIG,
                 "trace, truth, scenario: a run config needs exactly one of",
                 id="fov-without-input"),
    pytest.param({"scenario": 3}, EXIT_CONFIG,
                 "scenario: expected dict or str, got 3", id="scenario-not-a-mapping-or-path"),
    pytest.param({"sampler": {"kind": None}}, EXIT_CONFIG,
                 "sampler.kind: expected str, got None", id="kind-null"),
    # YAML booleans and quoted numbers are not numbers
    pytest.param({"seed": True}, EXIT_CONFIG, "seed: expected int, got True", id="seed-true"),
    pytest.param({"seed": "3"}, EXIT_CONFIG, "seed: expected int, got '3'", id="seed-quoted"),
    pytest.param({"warmup_s": True}, EXIT_CONFIG,
                 "warmup_s: expected float, got True", id="warmup-true"),
    pytest.param({"warmup_s": "0"}, EXIT_CONFIG,
                 "warmup_s: expected float, got '0'", id="warmup-quoted"),
    pytest.param({"sampler": {"kind": "interval", "period": True}}, EXIT_CONFIG,
                 "sampler.period: expected float, got True", id="period-true"),
    pytest.param({"risk": {"alert_threshold": False}}, EXIT_CONFIG,
                 "risk.alert_threshold: expected float, got False", id="alert-threshold-false"),
    pytest.param({"tracker": {"miss_max": True}}, EXIT_CONFIG,
                 "tracker.miss_max: expected int, got True", id="tracker-miss-max-true"),
    pytest.param({"tracker": {"r_diag": [True, 9.0, 9.0]}}, EXIT_CONFIG,
                 "tracker.r_diag: must hold 3 positive finite numbers, got [True, 9.0, 9.0]",
                 id="tracker-r-diag-true"),
    pytest.param({"sampler": {"kind": "sarsa", "conf_edges": [False, 0.1, 0.5]}}, EXIT_CONFIG,
                 "sampler.conf_edges: must be a strictly increasing tuple of finite numbers",
                 id="sampler-edges-false"),
    pytest.param({"scenario": {**SCENARIO, "duration": True}}, EXIT_CONFIG,
                 "duration: expected float, got True", id="scenario-duration-true"),
    pytest.param({"scenario": {**SCENARIO, "seed": True}}, EXIT_CONFIG,
                 "seed: expected int, got True", id="scenario-seed-true"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "bad.qtable"}}, EXIT_IO,
                 "bad.qtable: line 3", id="qtable-malformed"),
    # values save_qtable never writes; tick -10 used to exit 4 (a zero
    # division in the exploration schedule), a nan value to exit 0 and spread
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "tick.qtable"}}, EXIT_IO,
                 "tick.qtable: line 2: tick must be non-negative, got -10", id="qtable-tick-negative"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "nan.qtable"}}, EXIT_IO,
                 "nan.qtable: line 4: value must be finite, got nan", id="qtable-value-nan"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "inf.qtable"}}, EXIT_IO,
                 "inf.qtable: line 3: value must be finite, got inf", id="qtable-value-inf"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "visits.qtable"}}, EXIT_IO,
                 "visits.qtable: line 3: visit count must be non-negative, got -1",
                 id="qtable-visits-negative"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "action.qtable"}}, EXIT_IO,
                 "action.qtable: line 3: action must be 0 or 1, got 2", id="qtable-action-two"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "bin.qtable"}}, EXIT_IO,
                 "bin.qtable: line 3: state bins must be non-negative and at most (4, 3, 3), "
                 "got (0, -1, 2)",
                 id="qtable-bin-negative"),
    # a bin the run's sampler config cannot give used to load and be written back out
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "range.qtable"}}, EXIT_IO,
                 "range.qtable: line 3: state bins must be non-negative and at most (4, 3, 3), "
                 "got (99, 1, 2)", id="qtable-bin-above-range"),
    pytest.param({"sampler": {"kind": "sarsa", "conf_edges": [0.1], "qtable": "edges.qtable"}},
                 EXIT_IO, "edges.qtable: line 3: state bins must be non-negative and at most "
                 "(2, 3, 3), got (4, 1, 2)", id="qtable-bin-above-run-edges"),
    # both used to load: the later repeated row won, and foo 3 read as tick 3
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "repeat.qtable"}}, EXIT_IO,
                 "repeat.qtable: line 5: repeated row for state (0, 1, 2) and action 1",
                 id="qtable-row-repeated"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "label.qtable"}}, EXIT_IO,
                 "label.qtable: line 2: expected 'tick <count>', got 'foo 3'",
                 id="qtable-tick-mislabelled"),
    # used to exit 4 with UnicodeDecodeError, the whole file in the message
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "utf8.qtable"}}, EXIT_IO,
                 "utf8.qtable: line 3: not UTF-8: invalid start byte (byte 0xff)",
                 id="qtable-not-utf8"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "missing.qtable"}}, EXIT_IO,
                 "missing.qtable", id="qtable-missing"),
    # headers that agree on a duration the records do not have used to run (exit 0)
    pytest.param({"scenario": None, "long_pair": True}, EXIT_IO,
                 "/trace.jsonl: line 1: the header's duration and tick rate give 90 records, "
                 "the file holds 50", id="headers-claim-more-records"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": ""}}, EXIT_CONFIG,
                 "sampler.qtable: must name a Q-table file, got ''", id="qtable-empty"),
    # only sarsa reads a Q-table; a path beside another kind is never opened
    pytest.param({"sampler": {"kind": "interval", "qtable": "does-not-exist.txt"}}, EXIT_CONFIG,
                 "sampler.qtable: only the sarsa sampler reads a Q-table; the run's sampler is "
                 "'interval'", id="qtable-beside-baseline"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "bad.qtable"},
                  "flags": ["--sampler", "random"]}, EXIT_CONFIG,
                 "sampler.qtable: only the sarsa sampler reads a Q-table; the run's sampler is "
                 "'random'", id="qtable-beside-flag-baseline"),
])
def test_run_exit_code_table(tmp_path, monkeypatch, capsys, long_pair, change, code, text):
    monkeypatch.chdir(tmp_path)
    for name, body in QTABLE_FILES.items():
        (tmp_path / name).write_text(f"rearguard-qtable v1\n{body}", encoding="utf-8",
                                     errors="surrogateescape")
    change = dict(change)
    flags = change.pop("flags", [])   # command-line flags, kept out of the file
    if change.pop("long_pair", False):
        change.update(trace=str(long_pair / "trace.jsonl"), truth=str(long_pair / "truth.jsonl"))
    cfg = run_config(tmp_path, **change)
    assert main(["run", "--config", cfg, *flags, "--out", str(tmp_path / "r")]) == code
    assert text in capsys.readouterr().err


@pytest.mark.parametrize("change, path", [
    ({"scenario": {**SCENARIO, "durration": 5.0}}, "durration"),
    ({"scenario": {**SCENARIO, "user": {"mode": "standing", "hieght": 1.8}}}, "user.hieght"),
    # nothing read it: the camera height is camera.camera_height
    ({"scenario": {**SCENARIO, "user": {"mode": "standing", "height": 1.9}}}, "user.height"),
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
], ids=lambda v: v if isinstance(v, str) else "")
def test_unknown_key_is_rejected_with_its_dotted_path(tmp_path, capsys, change, path):
    cfg = run_config(tmp_path, **change)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert f"{path}: unknown field" in capsys.readouterr().err


def test_error_inside_the_pipeline_is_an_invariant_failure(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("time went backwards")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    cfg = run_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_INVARIANT
    assert "internal error" in capsys.readouterr().err


def _first(records, key):
    return next(i for i, r in enumerate(records) if i and r[key])


def _set_box(field, value):
    def mutate(trace, truth):
        k = _first(trace, "detections")
        trace[k]["detections"][0][field] = value
        return "trace", k + 1
    return mutate


def _set_pitch(trace, truth):
    trace[5]["pitch"] = 2.0
    return "trace", 6


def _repeat_t(trace, truth):
    for records in (trace, truth):
        records[5]["t"] = records[4]["t"]
    return "trace", 6


def _shift_truth_t(trace, truth):
    truth[5]["t"] += 0.05
    return "truth", 6


def _truncate_truth(trace, truth):
    truth.pop()
    return "truth", len(trace)


def _nan_truth_object(trace, truth):
    k = _first(truth, "objects")
    truth[k]["objects"][0][2] = float("nan")
    return "truth", k + 1


def _unknown_truth_class(trace, truth):
    k = _first(truth, "objects")
    truth[k]["objects"][0][1] = "bus"
    return "truth", k + 1


def _bad_header_focal(trace, truth):
    trace[0]["intrinsics"]["f_x"] = 0.0
    return "trace", 1


def _set_header(name, field, value):
    def mutate(trace, truth):
        {"trace": trace, "truth": truth}[name][0][field] = value
        return name, 1
    return mutate


# the seed, tick rate and duration cases used to load and run (exit 0), as did
# a pair whose headers disagree on anything but the seed and tick rate
@pytest.mark.parametrize("mutate", [
    _set_box(0, float("nan")), _set_box(1, "top"), _set_box(2, 0.0), _set_box(3, -4.0),
    _set_pitch, _repeat_t, _shift_truth_t, _truncate_truth, _nan_truth_object,
    _unknown_truth_class, _bad_header_focal, _set_header("trace", "camera_height", 0),
    _set_header("trace", "seed", "abc"), _set_header("trace", "seed", 3.5),
    _set_header("trace", "tick_rate", -10), _set_header("truth", "duration", 0),
    _set_header("truth", "duration", 9.0), _set_header("truth", "camera_height", 1.6),
], ids=["nan-box", "box-not-a-number", "zero-width", "negative-height", "pitch-out-of-range",
        "t-not-increasing", "truth-t-disagrees", "truth-truncated", "nan-truth-object",
        "unknown-truth-class", "header-focal-zero", "header-camera-height-zero",
        "header-seed-string", "header-seed-fraction", "header-tick-rate-negative",
        "header-duration-zero", "headers-disagree-on-duration", "headers-disagree-on-camera"])
def test_run_rejects_bad_input_file_with_line_number(tmp_path, capsys, mutate):
    scen_cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    gen_out = tmp_path / "g"
    assert main(["generate", "--config", scen_cfg, "--out", str(gen_out)]) == EXIT_OK
    files = {name: gen_out / f"{name}.jsonl" for name in ("trace", "truth")}
    records = {name: [json.loads(line) for line in path.read_text().splitlines()]
               for name, path in files.items()}
    bad, line = mutate(records["trace"], records["truth"])
    for name, path in files.items():
        path.write_text("".join(json.dumps(r) + "\n" for r in records[name]))

    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5, "trace": str(files["trace"]), "truth": str(files["truth"]),
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == EXIT_IO, err
    assert f"{files[bad]}: line {line}:" in err


def test_misaligned_truth_line_number_counts_blank_lines(tmp_path, capsys):
    scen_cfg = write_yaml(tmp_path / "scen.yaml", SCENARIO)
    gen_out = tmp_path / "g"
    assert main(["generate", "--config", scen_cfg, "--out", str(gen_out)]) == EXIT_OK
    truth_path = gen_out / "truth.jsonl"
    lines = truth_path.read_text().splitlines()
    record = json.loads(lines[6])
    record["t"] += 0.05
    lines[6] = json.dumps(record)
    # two blank lines ahead of the shifted record move it from line 7 to line 9
    truth_path.write_text("\n".join(lines[:3] + ["", ""] + lines[3:]) + "\n")

    cfg = write_yaml(tmp_path / "run.yaml", {
        "seed": 5, "trace": str(gen_out / "trace.jsonl"), "truth": str(truth_path),
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_IO
    assert f"{truth_path}: line 9: truth t=" in capsys.readouterr().err


# --------------------------------------------------------------- compare

def compare_config(tmp_path, **overrides):
    second = {**SCENARIO, "seed": 32, "vehicles": [
        {"cls": "cycle", "spawn_time": 2.0, "x0": -0.7, "z0": -15.0, "speed": 1.3},
    ]}
    payload = {
        "scenarios": [
            {"name": "cars", "scenario": dict(SCENARIO)},
            {"name": "cycles", "scenario": second},
        ],
        "samplers": ["everyframe", "interval"],
        "warmup_s": 0.0,
        **overrides,
    }
    return write_yaml(tmp_path / "cmp.yaml", payload)


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


def test_compare_unknown_sampler_in_config(tmp_path, capsys):
    cfg = compare_config(tmp_path, samplers=["everyframe", "sonar"])
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "sonar" in capsys.readouterr().err


def test_compare_duplicate_scenario_name_is_a_config_error(tmp_path, capsys):
    cfg = compare_config(tmp_path, scenarios=[
        {"name": "cars", "scenario": dict(SCENARIO)},
        {"name": "cars", "scenario": {**SCENARIO, "seed": 32}},
    ])
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "scenarios: duplicate name 'cars'" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [[1, "two"], [-1], [1, 1], []],
                         ids=["not-a-number", "negative", "repeated", "empty"])
def test_compare_seeds_must_be_non_negative_integers(tmp_path, capsys, seeds):
    cfg = compare_config(tmp_path, seeds=seeds)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "seeds: expected a list of non-negative integers" in capsys.readouterr().err


@pytest.mark.parametrize("change, text", [
    pytest.param({"seed": 7}, "seed: unknown field", id="unknown-seed"),
    pytest.param({"warmupp_s": 30.0}, "warmupp_s: unknown field", id="unknown-warmupp-s"),
    pytest.param({"scenarios": [{"name": "cars", "scenario": dict(SCENARIO), "seed": 4}]},
                 "scenarios[0].seed: unknown field", id="unknown-entry-key"),
    pytest.param({"scenarios": [{"name": "cars"}]}, "scenarios[0].scenario: missing",
                 id="entry-without-scenario"),
    pytest.param({"scenarios": ["cars.yaml"]}, "scenarios[0]: must be a mapping",
                 id="entry-not-a-mapping"),
    pytest.param({"scenarios": [{"scenario": 3}]},
                 "scenarios[0].scenario: expected dict or str, got 3", id="entry-scenario-number"),
    pytest.param({"sampler": {"kind": "sarsa"}}, "sampler.kind: unknown field", id="sampler-kind"),
    pytest.param({"sampler": {"qtable": "q.txt"}}, "sampler.qtable: unknown field",
                 id="sampler-qtable"),
    pytest.param({"suite": "standard"},
                 "suite, scenarios: a compare config needs exactly one of",
                 id="suite-beside-scenarios"),
    pytest.param({"suite": "full", "scenarios": None}, "suite: must be 'standard', got 'full'",
                 id="suite-unknown"),
    pytest.param({"budget_match": "false"}, "budget_match: expected bool, got 'false'",
                 id="budget-match-quoted"),
    pytest.param({"samplers": []}, "samplers: at least one is required", id="samplers-empty"),
    pytest.param({"warmup_s": True}, "warmup_s: expected float, got True", id="warmup-true"),
    # used to run, measuring from the first tick
    pytest.param({"warmup_s": -5.0}, "warmup_s: must be non-negative, got -5.0",
                 id="warmup-negative"),
    pytest.param({"seeds": [True]}, "seeds: expected a list of non-negative integers",
                 id="seeds-true"),
    pytest.param({"risk": {"reaction_time": False}}, "risk.reaction_time: expected float",
                 id="reaction-time-false"),
    # checked on load, though budget matching would replace both
    pytest.param({"budget_match": True, "sampler": {"period": 0.5}},
                 "sampler.period: must be at least one tick, got 0.5", id="period-below-one-tick"),
    pytest.param({"budget_match": True, "sampler": {"p": 1.5}},
                 "sampler.p: must be a blink probability in [0, 1], got 1.5", id="p-above-one"),
])
def test_compare_exit_code_table(tmp_path, capsys, change, text):
    cfg = compare_config(tmp_path, **change)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert text in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_compare_seed_and_sampler_flags_replace_the_file_keys(tmp_path):
    cfg = compare_config(tmp_path, seeds=[1, 2], samplers=["everyframe", "confidence"])
    out = tmp_path / "c"
    assert main(["compare", "--config", cfg, "--seed", "4", "--sampler", "interval",
                 "--out", str(out)]) == EXIT_OK
    runs = json.loads((out / "comparison.json").read_text())["runs"]
    assert {(r["sampler_kind"], r["seed"]) for r in runs} == {("interval", 4)}


def test_compare_without_scenarios_is_a_config_error(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "cmp.yaml", {"samplers": ["everyframe"]})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "scenarios" in capsys.readouterr().err


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
