"""Smoke check of the benchmark's output contract.

    python3 benchmark/smoke.py

Runs every workload for one second untraced and twice traced (about
half a minute in all) and checks that:
- the last line of standard output is the result object, with exactly
  the metric names and units that BENCHMARK.json lists for the mode;
- every run is correct, with no failed operation;
- the traced counts repeat exactly between the two traced runs;
- in a copy holding only BENCHMARK.json and the benchmark directory,
  the benchmark exits non-zero without printing a result.
The file is not named test_*, so the test suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            res = result(run(ROOT, w, 7, trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != KEYS or got != want[trace]:
                problems.append(f"{w} trace={trace}: keys or metrics differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {res['attempted']} attempted, "
                                f"{res['failed']} failed, correct={res['correct']}")
            if trace:
                traced.append({k: v["value"] for k, v in res["metrics"].items()
                               if v["unit"] != "s"})
        if traced[0] != traced[1]:
            problems.append(f"{w}: traced counts differ between runs")
        print(f"{w}: checked", file=sys.stderr)

    bare = os.path.join(HERE, "results", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("results", "traces", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, spec["workloads"][0]["name"], 7, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark without the program did not fail cleanly")

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
