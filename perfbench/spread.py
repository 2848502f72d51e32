"""Run-to-run spread of the end-to-end metrics over several seeds.

From the repository root:

    python3 perfbench/spread.py --workload crowded --seeds 10

runs perfbench/run.py once per seed (1..N, one after another) and prints,
for every end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  The
values go to perfbench/out/spread-<workload>.json.  --baseline also
makes one traced run with the first seed and stores the medians and the
per-layer metrics in perfbench/baseline.json under the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    p.add_argument("--baseline", action="store_true",
                   help="store the medians in perfbench/baseline.json")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run(seed, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(trace)]
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            raise SystemExit(1)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed} trace {trace} ({perf_counter() - t0:.0f} s): "
              f"correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                         if trace == 0), flush=True)
        return result

    runs = []
    for seed in range(1, args.seeds + 1):
        runs.append({"seed": seed, **run(seed, 0)})

    summary = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med if med else float("inf"),
                              "bound": m["bound"], "unit": m["unit"]}
        s = summary[m["name"]]
        flag = "ok" if s["spread"] < m["bound"] / 3 else (
            "WITHIN BOUND" if s["spread"] <= m["bound"] else "OVER BOUND")
        print(f"{m['name']:<14} median {med:12.5g} {m['unit']:<8} spread {s['spread']:.4f} "
              f"bound {m['bound']}  {flag}")
    all_correct = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"all correct: {all_correct}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    if args.baseline:
        traced = run(1, 1)
        all_correct = all_correct and traced["correct"]
        stamp = json.loads((out / f"result-{args.workload}-seed{runs[-1]['seed']}-trace0.json")
                           .read_text())["stamp"]
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline[args.workload] = {
            "stamp": stamp,
            "seeds": [r["seed"] for r in runs],
            "all_correct": all_correct,
            "metrics": summary,
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
