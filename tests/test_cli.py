"""End-to-end command tests, run in process through main().

Everything goes through temp directories; the assertions lean on byte
comparisons where reproducibility is the contract.
"""

import json

import pytest
import yaml

from rearguard import cli
from rearguard.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main
from rearguard.sampler import load_qtable

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


def test_generate_invalid_config_names_the_field(tmp_path, capsys):
    bad = {**SCENARIO, "user": {"mode": "driving"}}
    cfg = write_yaml(tmp_path / "scen.yaml", bad)
    code = main(["generate", "--config", cfg, "--out", str(tmp_path / "g")])
    assert code == EXIT_CONFIG
    assert "user.mode" in capsys.readouterr().err


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

    before = load_qtable(saved)
    after = load_qtable(second / "qtable.txt")
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


def test_run_without_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "run.yaml", {"scenario": dict(SCENARIO)})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_run_unknown_sampler_kind_in_config(tmp_path, capsys):
    cfg = run_config(tmp_path, sampler={"kind": "telepathy"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "telepathy" in capsys.readouterr().err


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


@pytest.mark.parametrize("change, code, text", [
    pytest.param({"sampler": {"kind": "interval", "period": "often"}}, EXIT_CONFIG,
                 "sampler.period: could not convert", id="period-not-a-number"),
    pytest.param({"sampler": {"kind": "random", "p": "half"}}, EXIT_CONFIG,
                 "sampler.p:", id="p-not-a-number"),
    pytest.param({"sampler": {"kind": "confidence", "c_min": [1.5]}}, EXIT_CONFIG,
                 "sampler.c_min:", id="c_min-not-a-number"),
    pytest.param({"sampler": {"kind": "interval", "period": 0.5}}, EXIT_CONFIG,
                 "period must be at least one tick", id="period-below-one-tick"),
    pytest.param({"sampler": {"kind": "sarsa", "eta": -1.0}}, EXIT_CONFIG,
                 "sampler: eta must be positive", id="sampler-field-invalid"),
    pytest.param({"sampler": "sarsa"}, EXIT_CONFIG,
                 "sampler: must be a mapping", id="sampler-not-a-mapping"),
    pytest.param({"seed": "five"}, EXIT_CONFIG, "seed:", id="seed-not-a-number"),
    pytest.param({"warmup_s": "soon"}, EXIT_CONFIG, "warmup_s:", id="warmup-not-a-number"),
    pytest.param({"risk": {"reaction_time": "slow"}}, EXIT_CONFIG,
                 "risk.reaction_time:", id="reaction-time-not-a-number"),
    pytest.param({"risk": {"alert_threshold": None}}, EXIT_CONFIG,
                 "risk.alert_threshold:", id="alert-threshold-null"),
    pytest.param({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "f_x": -1.0}}}},
                 EXIT_CONFIG, "camera.intrinsics: focal lengths", id="intrinsics-invalid"),
    pytest.param({"scenario": {**SCENARIO, "vehicles": [{"cls": "car", "spawn_time": 1.0}]}},
                 EXIT_CONFIG, "vehicles[0].x0, vehicles[0].z0, vehicles[0].speed: missing",
                 id="vehicle-field-missing"),
    pytest.param({"scenario": {**SCENARIO, "detector": {"first_detect_m": {"car": "far"}}}},
                 EXIT_CONFIG, "detector.first_detect_m.car: must be in", id="detector-median-not-a-number"),
    pytest.param({"scenario": {**SCENARIO, "head_motion": {
        "yaw_amplitude": 0.1, "yaw_period": 4.0, "pitch_amplitude": 1.6, "pitch_period": 3.5,
        "jitter_std": 0.0}}}, EXIT_CONFIG, "head_motion.pitch_amplitude:", id="pitch-amplitude-too-big"),
    pytest.param({"seed": -1}, EXIT_CONFIG, "seed: must be non-negative", id="seed-negative"),
    pytest.param({"risk": {"reaction_time": 0}}, EXIT_CONFIG,
                 "risk.reaction_time: must be positive", id="reaction-time-zero"),
    pytest.param({"tracker": {"gamma": 0}}, EXIT_CONFIG,
                 "tracker: gamma must be positive", id="tracker-gamma-zero"),
    pytest.param({"tracker": {"r_diag": [16.0, 9.0]}}, EXIT_CONFIG,
                 "tracker: r_diag must hold 3 positive numbers", id="tracker-r-diag-short"),
    pytest.param({"scenario": {**SCENARIO, "duration": "long"}}, EXIT_CONFIG,
                 "duration: expected float", id="scenario-field-not-a-number"),
    pytest.param({"tracker": {"miss_max": "three"}}, EXIT_CONFIG,
                 "tracker.miss_max: expected int", id="tracker-field-not-a-number"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "bad.qtable"}}, EXIT_IO,
                 "bad.qtable: line 3", id="qtable-malformed"),
    pytest.param({"sampler": {"kind": "sarsa", "qtable": "missing.qtable"}}, EXIT_IO,
                 "missing.qtable", id="qtable-missing"),
])
def test_run_exit_code_table(tmp_path, monkeypatch, capsys, change, code, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.qtable").write_text("rearguard-qtable v1\ntick 3\n0 1 2 blink\n")
    cfg = run_config(tmp_path, **change)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == code
    assert text in capsys.readouterr().err


@pytest.mark.parametrize("change, path", [
    ({"scenario": {**SCENARIO, "durration": 5.0}}, "durration"),
    ({"scenario": {**SCENARIO, "user": {"mode": "standing", "hieght": 1.8}}}, "user.hieght"),
    ({"scenario": {**SCENARIO, "detector": {"fvo": 1.0}}}, "detector.fvo"),
    ({"scenario": {**SCENARIO, "camera": {"intrinsics": {**INTRINSICS, "skew": 0.0}}}},
     "camera.intrinsics.skew"),
    ({"scenario": {**SCENARIO, "vehicles": [*SCENARIO["vehicles"],
                                            {**SCENARIO["vehicles"][0], "foo": 1}]}},
     "vehicles[1].foo"),
    ({"tracker": {"iou_gat": 0.2}}, "tracker.iou_gat"),
    ({"sampler": {"kind": "sarsa", "epsilon": 0.5}}, "sampler.epsilon"),
    ({"risk": {"reaction": 2.0}}, "risk.reaction"),
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


def _bad_header_camera_height(trace, truth):
    trace[0]["camera_height"] = 0
    return "trace", 1


@pytest.mark.parametrize("mutate", [
    _set_box(0, float("nan")), _set_box(1, "top"), _set_box(2, 0.0), _set_box(3, -4.0),
    _set_pitch, _repeat_t, _shift_truth_t, _truncate_truth, _nan_truth_object,
    _unknown_truth_class, _bad_header_focal, _bad_header_camera_height,
], ids=["nan-box", "box-not-a-number", "zero-width", "negative-height", "pitch-out-of-range",
        "t-not-increasing", "truth-t-disagrees", "truth-truncated", "nan-truth-object",
        "unknown-truth-class", "header-focal-zero", "header-camera-height-zero"])
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


@pytest.mark.parametrize("seeds", [[1, "two"], [-1]], ids=["not-a-number", "negative"])
def test_compare_seeds_must_be_non_negative_integers(tmp_path, capsys, seeds):
    cfg = compare_config(tmp_path, seeds=seeds)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "seeds: expected a list of non-negative integers" in capsys.readouterr().err


def test_compare_without_scenarios_is_a_config_error(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "cmp.yaml", {"samplers": ["everyframe"]})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert "scenarios" in capsys.readouterr().err
