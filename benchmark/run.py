"""Benchmark of spde: three workloads, end to end or traced per layer.

    python3 benchmark/run.py --workload audit --seed 1 --seconds 30 --trace 0

Workloads: audit, ensemble-ou, converge-plap (see workloads.py and
README.md).  The run writes the workload's configs from the seed, then
repeats passes of the workload's `spde` CLI commands, in this process,
until --seconds have elapsed.  Every pass is checked against values
computed apart from the program, and its CSV artifacts must repeat
those of the first pass byte for byte.

--trace 0 reports the end-to-end metrics: setup_s (median over
fresh-interpreter probes spread through the run), pass_s (median pass
wall time), work_per_s and peak_rss_mb.  --trace 1 wraps the layer
boundaries (tracer.py) and reports the per-layer metrics instead, and
writes the aggregated spans to benchmark/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means that line
was printed; without the spde sources in src/ the run exits 2.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
MAX_PROBLEMS = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("audit", "ensemble-ou", "converge-plap"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(workload):
    """Seconds from starting a fresh interpreter to a ready model and basis."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           *workload.configs]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def run_op(cli, op):
    """Run one CLI command; True when it exits with the expected code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(op.argv)
    except Exception:
        traceback.print_exc()
        return False
    if rc != op.expected_rc:
        print(f"{op.label}: exit {rc}, expected {op.expected_rc}", file=sys.stderr)
        return False
    return True


def read_artifacts(ops):
    out = {}
    for op in ops:
        if not os.path.isdir(op.out_dir):
            continue        # the workload's check reports the missing files
        for name in sorted(os.listdir(op.out_dir)):
            with open(os.path.join(op.out_dir, name), "rb") as f:
                out[f"{op.label}/{name}"] = f.read()
    return out


def machine_facts():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "solver_threads": 1}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spde", "__init__.py")):
        print(f"error: no spde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spde import basis, checks, cli, config, diagnostics, models, noise, solver

    import tracer as tr
    from workloads import WORKLOADS

    seed = args.seed % 2 ** 31
    workdir = os.path.join(HERE, "results", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](seed, workdir)
        tracer = None
        if args.trace:
            tracer = tr.install({
                "basis": basis, "checks": checks, "cli": cli, "config": config,
                "diagnostics": diagnostics, "models": models, "noise": noise,
                "solver": solver})

        times, snapshots, setups, problems = [], [], [], []
        attempted = failed = 0
        reference = None
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            if tracer is not None:
                tracer.reset()
            ran = []
            t0 = time.perf_counter()
            for op in workload.ops:
                attempted += 1
                if run_op(cli, op):
                    ran.append(op)
                else:
                    failed += 1
            times.append(time.perf_counter() - t0)

            artifacts = read_artifacts(ran)
            if tracer is not None:
                snap = tracer.snapshot()
                snap["counts"]["cli.artifact_bytes"] = sum(map(len, artifacts.values()))
                snapshots.append(snap)
            if len(ran) == len(workload.ops):
                try:
                    problems += workload.check(ran)
                except (OSError, KeyError, ValueError) as e:
                    problems.append(f"pass {len(times)}: unreadable output: {e!r}")
            csvs = {k: v for k, v in artifacts.items() if k.endswith(".csv")}
            if reference is None:
                reference = csvs
            elif csvs != reference:
                problems.append(f"pass {len(times)}: CSV artifacts differ from pass 1")
            if tracer is None and len(setups) < SETUP_PROBES:
                setups.append(probe_setup(workload))
        while tracer is None and len(setups) < SETUP_PROBES:
            setups.append(probe_setup(workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = statistics.median(times)
    quart = statistics.quantiles(times, n=4) if len(times) > 1 else [pass_s] * 3
    print(f"{args.workload} seed={args.seed}: {len(times)} passes, pass_s "
          f"median {pass_s:.4f} quartiles {quart[0]:.4f}/{quart[2]:.4f}, "
          f"{workload.work} {workload.work_unit} per pass", file=sys.stderr)

    if tracer is not None:
        for name in tracer.missing:
            print(f"unmeasured: {name} is missing or changed its arguments",
                  file=sys.stderr)
        metrics = tr.layer_metrics(snapshots, tracer.missing)
        if not tr.counts_repeat(snapshots):
            problems.append("per-layer counts differ between passes")
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        with open(os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json"),
                  "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "facts": machine_facts(), "pass_s": times,
                       "missing": tracer.missing, "metrics": metrics,
                       "passes": snapshots}, f, indent=1)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "work_per_s": {"value": workload.work / pass_s, "unit": "work/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    for p in problems[:MAX_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
