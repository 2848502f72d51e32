"""rearguard benchmark: one workload, one seed, one run.

From the repository root:

    python3 perfbench/run.py --workload online-sarsa --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed, runs the workload as a
closed loop for about --seconds (at least one op), checks every output,
and prints one line per metric, a stamp line, and last a JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics of
a separate traced run.  A copy of the result, with the stamp and the
output digests, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("suite-compare", "online-sarsa", "crowded", "file-roundtrip")
SETUP_REPS = 3    # input builds per run
IMPORT_REPS = 5   # package imports per run

# Times the import in a fresh interpreter, then the host probe three
# times in that same interpreter, so the import is scaled by the speed
# of the CPU it ran on.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rearguard.cli; wall = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import host; "
    "print(wall * host.PROBE_REF_S / host.probe_cost())"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_host_seconds() -> float:
    """Host-seconds to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, inputs, seconds: float, calls, host) -> dict:
    """Run passes back to back while the next one still fits in
    `seconds` (at least one), and take each metric's median over them."""
    passes, outputs = [], []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            r = workload.op(inputs, calls, host)
        except Exception:
            traceback.print_exc()
            outputs.append(("op", None, workload.ops_per_pass))
        else:
            passes.append(r)
            outputs.extend(r.outputs)
        last = perf_counter() - t0
        if perf_counter() - begin + last > seconds:
            break
    if not passes:
        return {"passes": 0, "outputs": outputs, "ticks_per_s": 0.0,
                "tick_p50_us": 0.0, "tick_p99_us": 0.0, "tick_samples": 0}
    return {
        "passes": len(passes),
        "outputs": outputs,
        "ticks_per_s": statistics.median(r.ticks / r.host_s if r.host_s > 0 else 0.0
                                         for r in passes),
        "tick_p50_us": statistics.median(percentile(r.tick_us, 50) for r in passes),
        "tick_p99_us": statistics.median(percentile(r.tick_us, 99) for r in passes),
        "tick_samples": len(passes[0].tick_us),
    }


def count_failed(outputs, expected: dict, recorded: dict | None) -> int:
    failed = 0
    for key, digest, n_ops in outputs:
        if digest is None or digest != expected.get(key):
            failed += n_ops
        elif recorded is not None and digest != recorded.get(key):
            failed += n_ops
    return failed


def source_digest() -> str:
    h = sha256()
    for path in sorted((SRC / "rearguard").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def make_workload(name: str, recorded: dict):
    import workloads

    if name == "suite-compare":
        return workloads.SuiteCompare(recorded.get("comparison", ""))
    if name == "online-sarsa":
        return workloads.OnlineSarsa()
    if name == "crowded":
        return workloads.Crowded()
    workdir = OUT.relative_to(ROOT) / name
    shutil.rmtree(workdir, ignore_errors=True)
    return workloads.FileRoundtrip(workdir)


def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rearguard" / "__init__.py").is_file():
        print(f"error: no rearguard sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import rearguard

    if SRC not in Path(rearguard.__file__).resolve().parents:
        print(f"error: imported rearguard from {rearguard.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans as tracing
    from host import HostSpeed

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads((HERE / "digests.json").read_text())
    by_seed = digests["recorded"].get(args.workload, {})
    recorded = by_seed.get(str(args.seed), by_seed.get("*"))
    OUT.mkdir(exist_ok=True)

    w = make_workload(args.workload, by_seed.get("*", {}))
    calls = tracing.call_sites()
    host = HostSpeed()

    imports, builds = [], []

    def setup():
        """Build the inputs, timed in host-seconds."""
        gc.collect()   # each build starts from a collected heap
        host.sample()
        t0 = perf_counter()
        built = w.build(args.seed, calls)
        t1 = perf_counter()
        host.sample()
        builds.append(host.seconds(t0, t1))
        return built

    if not args.trace:
        imports.append(import_host_seconds())
    inputs = setup()
    plain = measure(w, inputs, args.seconds, calls, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = list(plain["outputs"])

    info = {"passes": plain["passes"], "tick_samples_per_pass": plain["tick_samples"]}
    if args.trace:
        tracer = tracing.Tracer()
        traced_calls = tracing.call_sites(tracer)
        # probes become spans of their own, not time of the layer they interrupt
        host.sample = tracer.wrap(host.sample, "bench.host_probe")
        with tracer.installed():
            t0 = perf_counter()
            traced_inputs = w.build(args.seed, traced_calls)
            traced = measure(w, traced_inputs, args.seconds, traced_calls, host)
            traced_wall = perf_counter() - t0
        del traced_inputs
        tracer.write(OUT / f"spans-{args.workload}.npz")
        outputs += traced["outputs"]
        metrics = tracer.layer_metrics(traced_wall, traced["ticks_per_s"], plain["ticks_per_s"])
        info.update(traced_passes=traced["passes"], missing_wrappers=tracer.missing,
                    hook_errors=tracer.hook_errors)
        # the traced run must produce exactly the untraced outputs
        same_outputs = ({k: d for k, d, _ in traced["outputs"]}
                        == {k: d for k, d, _ in plain["outputs"]})
    else:
        # later set-ups run after the measurement, so that their samples
        # fall in other stretches of the host's load
        for _ in range(IMPORT_REPS - 1):
            imports.append(import_host_seconds())
        for _ in range(SETUP_REPS - 1):
            setup()
        same_outputs = True
        metrics = {
            "ticks_per_s": (plain["ticks_per_s"], "ticks/s"),
            "tick_p50_us": (plain["tick_p50_us"], "us"),
            "tick_p99_us": (plain["tick_p99_us"], "us"),
            "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        info.update(import_host_s=imports, build_host_s=builds)
    info["host_factor_median"] = host.median_factor()

    expected = w.expected(inputs)
    attempted = sum(n for _, _, n in outputs)
    failed = count_failed(outputs, expected, recorded)
    correct = failed == 0 and same_outputs and attempted > 0

    listed = bench["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        print(f"error: metrics do not match BENCHMARK.json: {sorted(set(want) ^ set(got))}",
              file=sys.stderr)
        return 3

    st = stamp(args)
    print("stamp " + json.dumps(st, sort_keys=True))
    for key, value in sorted(info.items()):
        print(f"info {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} ops)")
    if not same_outputs:
        print("error: traced outputs differ from untraced outputs", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    digests_seen = {k: d for k, d, _ in outputs}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "stamp": st, "info": info, "digests": digests_seen},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
