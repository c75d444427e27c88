"""Configuration-driven experiment runner.

spde <command> [--config FILE] [flags...]

Every flag has a config-file equivalent (config.FLAGS); flags win.  Every
command shares the model, basis and run settings and reads its own row of
experiment keys (config.READS), rejecting the others.  Exit codes: 0
success, 1 usage/config error, 2 audit violations, 3 blow-up.  Artifacts
are written once, after aggregation, so reruns with the same config
byte-reproduce every CSV (summary.json additionally carries a timestamp,
excluded from comparisons).
"""

import argparse
import datetime
import json
import os
import sys

from . import checks as ck
from . import diagnostics as dg
from . import noise as sn
from . import solver as sv
from .config import FLAGS, initial_coefficients, load_config
from .errors import ConfigError, NonfiniteStateError, SpdeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_BLOWUP = 3


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spde",
        description="Spectral-Galerkin SPDE experiments: hypothesis audits, "
                    "simulation, and convergence/uniqueness diagnostics.")
    ap.add_argument("--config", help="JSON config file")
    for name, _, _, kind, text in FLAGS:
        how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        ap.add_argument(name, help=text, **how)
    return ap


def _write_csv(path, rows):
    with open(path, "w", newline="") as f:
        for r in rows:
            f.write(",".join(r) + "\n")


def _write_summary(out_dir, payload):
    payload = dict(payload)
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def run(cfg):
    """Dispatch a validated config; returns the process exit code."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as e:    # a file where the directory or a parent should be
        raise ConfigError(f"out: cannot make directory {cfg.out_dir}: {e.strerror}")
    model = cfg.build_model()
    basis = cfg.build_basis(model)
    run_sec, exp = cfg.run, cfg.experiment
    seed = run_sec["seed"]

    if cfg.command == "check":
        reports = ck.run_all(model, basis, n_samples=exp["n_samples"], seed=seed)
        _write_csv(os.path.join(cfg.out_dir, "condition_report.csv"),
                   ck.reports_to_csv_rows(reports))
        text = ck.format_summary(model.name, reports)
        print(text)
        total = sum(r.n_violations for r in reports)
        _write_summary(cfg.out_dir, {
            "command": "check", "model": model.name, "n_samples": exp["n_samples"],
            "violations": int(total),
            "conditions": {r.condition: {"violations": r.n_violations,
                                         "min_margin": r.min_margin,
                                         "passed": r.passed}
                           for r in reports}})
        return EXIT_OK if total == 0 else EXIT_VIOLATIONS

    x0 = initial_coefficients(exp["x0"], basis.n_modes)
    if cfg.command == "simulate":
        path = sn.sample_path(model.noise_modes(basis),
                              int(round(run_sec["t_end"] / run_sec["dt"])),
                              run_sec["dt"], seed, 0)
        traj = sv.solve_path(model, basis, x0, path, run_sec["stepper"],
                             run_sec["t_end"], run_sec["save_dt"])
        _write_csv(os.path.join(cfg.out_dir, "trajectory.csv"),
                   sv.trajectory_csv_rows(traj, model, basis))
        h_final = float(traj.h_norms()[-1])
        print(f"simulate {model.name}: t_end={run_sec['t_end']} final h_norm={h_final:.6g}")
        _write_summary(cfg.out_dir, {"command": "simulate", "model": model.name,
                                     "final_h_norm": h_final})
        return EXIT_OK

    dt = run_sec["dt"]
    kw = dict(M=run_sec["paths"], seed=seed, t_end=run_sec["t_end"],
              save_dt=run_sec["save_dt"], stepper=run_sec["stepper"],
              threads=run_sec["threads"])
    if cfg.command == "moments":
        table = dg.moment_report(model, basis, x0, exp["p"], exp["alpha"], dt=dt, **kw)
    elif cfg.command == "equicontinuity":
        table = dg.equicontinuity_statistic(model, basis, x0, exp["deltas"],
                                            exp["alpha"], dt=dt, **kw)
    elif cfg.command == "converge":
        table = dg.galerkin_convergence(model, x0, exp["levels"], alpha=exp["alpha"],
                                        dt=dt, **kw)
    elif cfg.command == "continuity":
        direction = initial_coefficients(exp["direction"], basis.n_modes)
        table = dg.initial_data_continuity(model, basis, x0, direction,
                                           exp["perturbations"], exp["p"], dt=dt, **kw)
    elif cfg.command == "uniqueness":
        table = dg.uniqueness_probe(model, basis, x0, dt_levels=exp["dt_levels"],
                                    mode=exp["mode"], **kw)

    dg.write_table(table, os.path.join(cfg.out_dir, f"{cfg.command}.csv"))
    payload = {"command": cfg.command, "model": model.name}
    payload.update(table.summary_dict())
    _write_summary(cfg.out_dir, payload)
    lines = [f"{cfg.command} {model.name}:"]
    for k, est, se, m in table.rows:
        lines.append(f"  key={k:g} estimate={est:.6g} se={se:.3g} M={m}")
    if table.fitted_rate is not None:
        s, _, r2 = table.fitted_rate
        lines.append(f"  fitted slope={s:.4f} r2={r2:.4f}")
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None):
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return run(load_config(ns.config, vars(ns)))
    except NonfiniteStateError as e:
        print(f"blow-up: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    except SpdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
