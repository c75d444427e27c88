"""Configuration-driven experiment runner.

spde <command> [--config FILE] [flags...]

Commands: check, simulate, converge, moments, equicontinuity, continuity,
uniqueness.  Every flag has a config-file equivalent; flags win.  Exit
codes: 0 success, 1 usage/config error, 2 audit violations, 3 blow-up.
Artifacts are written once, after aggregation, so reruns with the same
config byte-reproduce every CSV (summary.json additionally carries a
timestamp, excluded from comparisons).
"""

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import checks as ck
from . import diagnostics as dg
from . import noise as sn
from . import solver as sv
from .config import COMMANDS, initial_coefficients, load_config
from .errors import ConfigError, InadmissiblePError, NonfiniteStateError, SpdeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_BLOWUP = 3


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spde",
        description="Spectral-Galerkin SPDE experiments: hypothesis audits, "
                    "simulation, and convergence/uniqueness diagnostics.")
    ap.add_argument("command", choices=COMMANDS, help="experiment to run")
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--model", help="model name (e.g. heat-ou, p-laplacian)")
    ap.add_argument("--n-modes", type=int, dest="n_modes", help="Galerkin dimension")
    ap.add_argument("--grid-size", type=int, dest="grid_size",
                    help="collocation grid size (default 4*n_modes)")
    ap.add_argument("--dt", type=float, help="solver time step")
    ap.add_argument("--save-dt", type=float, dest="save_dt", help="save interval")
    ap.add_argument("--t-end", type=float, dest="t_end", help="final time")
    ap.add_argument("--paths", type=int, help="Monte Carlo path count M")
    ap.add_argument("--seed", type=int, help="ensemble seed")
    ap.add_argument("--alpha", type=float, help="coercivity exponent override")
    ap.add_argument("--p", type=float, help="moment exponent")
    ap.add_argument("--sigma", type=float, help="noise amplitude (models with sigma)")
    ap.add_argument("--nu", type=float, help="gradient-noise amplitude")
    ap.add_argument("--x0", help="initial datum: zero, e1, decay2")
    ap.add_argument("--stepper", choices=sv.STEPPERS, help="time stepper")
    ap.add_argument("--n-samples", type=int, dest="n_samples",
                    help="audit sample count (check)")
    ap.add_argument("--threads", type=int, help="worker threads (0 = auto)")
    ap.add_argument("--out", help="output directory")
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


def _x0(cfg, n_modes):
    return initial_coefficients(cfg.experiment.get("x0", "e1"), n_modes)


def run(cfg):
    """Dispatch a validated config; returns the process exit code."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    model = cfg.build_model()
    basis = cfg.build_basis(model)
    run_sec = cfg.run
    seed = run_sec["seed"]
    stepper = run_sec.get("stepper") or model.default_stepper
    threads = run_sec.get("threads")

    if cfg.command == "check":
        n_samples = int(cfg.experiment.get("n_samples", 10000))
        reports = ck.run_all(model, basis, n_samples=n_samples, seed=seed)
        _write_csv(os.path.join(cfg.out_dir, "condition_report.csv"),
                   ck.reports_to_csv_rows(reports))
        text = ck.format_summary(model.name, reports)
        print(text)
        total = sum(r.n_violations for r in reports)
        _write_summary(cfg.out_dir, {
            "command": "check", "model": model.name, "n_samples": n_samples,
            "violations": int(total),
            "conditions": {r.condition: {"violations": r.n_violations,
                                         "min_margin": r.min_margin,
                                         "passed": r.passed}
                           for r in reports}})
        return EXIT_OK if total == 0 else EXIT_VIOLATIONS

    if cfg.command == "simulate":
        path = sn.sample_path(model.noise_modes(basis),
                              int(round(run_sec["t_end"] / run_sec["dt"])),
                              run_sec["dt"], seed, 0)
        traj = sv.solve_path(model, basis, _x0(cfg, basis.n_modes), path,
                             stepper, run_sec["t_end"], run_sec["save_dt"])
        _write_csv(os.path.join(cfg.out_dir, "trajectory.csv"),
                   sv.trajectory_csv_rows(traj, model, basis))
        h_final = float(traj.h_norms()[-1])
        print(f"simulate {model.name}: t_end={run_sec['t_end']} final h_norm={h_final:.6g}")
        _write_summary(cfg.out_dir, {"command": "simulate", "model": model.name,
                                     "final_h_norm": h_final})
        return EXIT_OK

    if cfg.command == "moments":
        p = float(cfg.experiment.get("p", 2.0))
        alpha = float(cfg.experiment.get("alpha", model.alpha))
        dg.check_moment_exponent(model, p)      # fail before solving
        ens = sv.solve_ensemble(model, basis, _x0(cfg, basis.n_modes),
                                run_sec["paths"], seed, stepper,
                                run_sec["t_end"], run_sec["dt"],
                                run_sec["save_dt"], on_blowup="discard",
                                threads=threads)
        table = dg.moment_report(ens, p, alpha)
        name = "moments"
    elif cfg.command == "equicontinuity":
        alpha = float(cfg.experiment.get("alpha", model.alpha))
        deltas = cfg.experiment.get("deltas")
        if deltas is None:
            deltas = [k * run_sec["save_dt"] for k in (2, 4, 8, 16, 32)]
        ens = sv.solve_ensemble(model, basis, _x0(cfg, basis.n_modes),
                                run_sec["paths"], seed, stepper,
                                run_sec["t_end"], run_sec["dt"],
                                run_sec["save_dt"], on_blowup="discard",
                                threads=threads)
        table = dg.equicontinuity_statistic(ens, deltas, alpha)
        name = "equicontinuity"
    elif cfg.command == "converge":
        alpha = float(cfg.experiment.get("alpha", model.alpha))
        levels = cfg.experiment.get("levels", [8, 16, 32])
        table = dg.galerkin_convergence(
            model, _x0(cfg, max(levels)), levels, run_sec["paths"], seed,
            run_sec["t_end"], run_sec["dt"], run_sec["save_dt"], alpha, stepper,
            threads=threads)
        name = "converge"
    elif cfg.command == "continuity":
        p = float(cfg.experiment.get("p", 2.0))
        eps = cfg.experiment.get("perturbations", [0.1 / 2 ** j for j in range(5)])
        direction = cfg.experiment.get("direction", "e1")
        table = dg.initial_data_continuity(
            model, basis, _x0(cfg, basis.n_modes),
            initial_coefficients(direction, basis.n_modes), eps, p,
            run_sec["paths"], seed, run_sec["t_end"], run_sec["dt"],
            run_sec["save_dt"], stepper, threads=threads)
        name = "continuity"
    elif cfg.command == "uniqueness":
        dt_levels = cfg.experiment.get("dt_levels")
        if dt_levels is None:
            dt_levels = [run_sec["dt"] * 2 ** k for k in (3, 2, 1, 0)]
        mode = cfg.experiment.get("mode", "dt-refinement")
        table = dg.uniqueness_probe(
            model, basis, _x0(cfg, basis.n_modes), run_sec["paths"], seed,
            dt_levels, run_sec["t_end"], run_sec.get("save_dt"), stepper, mode,
            threads=threads)
        name = "uniqueness"
    else:
        raise ConfigError(f"unhandled command {cfg.command!r}")

    dg.write_table(table, os.path.join(cfg.out_dir, f"{name}.csv"))
    payload = {"command": name, "model": model.name}
    payload.update(table.summary_dict())
    _write_summary(cfg.out_dir, payload)
    lines = [f"{name} {model.name}:"]
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
    flags = {k: v for k, v in vars(ns).items() if k != "config"}
    try:
        cfg = load_config(ns.config, flags)
        return run(cfg)
    except (ConfigError, InadmissiblePError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NonfiniteStateError as e:
        print(f"blow-up: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    except SpdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
