"""The benchmark's three workloads: inputs, work units and output checks.

A workload is a list of `spde` CLI commands, each driven by a JSON
config written from the run's seed.  One pass runs every command once;
the checks compare the artifacts a pass wrote against values computed
here, apart from the program.
"""

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# audit: the five well-posed models at n = 16, plus the negative controls
AUDIT_N_MODES = 16
ZOO_SAMPLES = 512
FIXTURE_SAMPLES = 256
ZOO = ("heat-ou", "p-laplacian", "convection-diffusion", "cahn-hilliard",
       "gradient-noise-heat")
FIXTURE_FAILS = {"fixture-bad-h1": "H1", "fixture-bad-h5": "H5",
                 "fixture-bad-h3": "H3"}
CONDITIONS_PER_MODEL = 6     # H1-H5 with H2', or H1, H2*-H5* and chi

# ensemble-ou: heat-ou moments against the semi-implicit recursion
OU = {"n_modes": 4, "sigma": 0.5, "dt": 1e-3, "t_end": 2.0, "paths": 2560}
OU_TOLERANCE_SE = 4.0

# converge-plap: p-Laplacian Galerkin Cauchy rows under common noise
PLAP = {"p": 4.0, "sigma": 0.4, "levels": [4, 8, 16, 32], "dt": 1e-4,
        "t_end": 0.2, "save_dt": 2e-3, "paths": 256}

EXIT_OK = 0
EXIT_VIOLATIONS = 2


@dataclass
class Op:
    label: str
    command: str
    config: str
    out_dir: str
    expected_rc: int

    @property
    def argv(self):
        return [self.command, "--config", self.config]


@dataclass
class Workload:
    name: str
    ops: list
    work: int                       # work units per pass
    work_unit: str
    check: Callable                 # list of ops that ran -> list of problems

    @property
    def configs(self):
        return [op.config for op in self.ops]


def _config(workdir, label, command, model, basis, run, experiment):
    out_dir = os.path.join(workdir, "out", label)
    path = os.path.join(workdir, f"{label}.json")
    doc = {"command": command, "model": model, "basis": basis, "run": run,
           "experiment": experiment, "out_dir": out_dir}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path, out_dir


def _summary(op):
    with open(os.path.join(op.out_dir, "summary.json")) as f:
        return json.load(f)


def _csv(op, name):
    with open(os.path.join(op.out_dir, name), newline="") as f:
        return list(csv.DictReader(f))


def _fitted(row):
    """Parse the condition report's "k=v;k=v" fitted-constants field."""
    pairs = (item.split("=", 1) for item in row["fitted"].split(";") if item)
    return {k: float(v) for k, v in pairs}


# -- audit ----------------------------------------------------------------

def audit(seed, workdir):
    ops = []
    for name in ZOO + tuple(FIXTURE_FAILS):
        n = ZOO_SAMPLES if name in ZOO else FIXTURE_SAMPLES
        path, out = _config(workdir, name, "check", {"name": name},
                            {"n_modes": AUDIT_N_MODES},
                            {"seed": seed, "threads": 1}, {"n_samples": n})
        rc = EXIT_OK if name in ZOO else EXIT_VIOLATIONS
        ops.append(Op(name, "check", path, out, rc))
    work = CONDITIONS_PER_MODEL * (len(ZOO) * ZOO_SAMPLES
                                   + len(FIXTURE_FAILS) * FIXTURE_SAMPLES)
    return Workload("audit", ops, work, "audited samples", _check_audit)


def _check_audit(ops):
    problems = []
    for op in ops:
        rows = {r["condition"]: r for r in _csv(op, "condition_report.csv")}
        summary = _summary(op)
        if len(rows) != CONDITIONS_PER_MODEL:
            problems.append(f"{op.label}: {len(rows)} conditions audited")
        if op.label in ZOO and summary["violations"] != 0:
            problems.append(f"{op.label}: {summary['violations']} violations")
        cond = FIXTURE_FAILS.get(op.label)
        if cond is not None and summary["conditions"][cond]["passed"]:
            problems.append(f"{op.label}: {cond} not flagged")
        if op.label == "gradient-noise-heat":
            # nu = 1: L_A = 1, L_B = nu^2 = 1 and every side exponent is 0,
            # so chi = 1 and the moment range is [2, 1 + 2 L_A / L_B) = [2, 3)
            fitted = _fitted(rows["chi-threshold"])
            if abs(fitted["chi"] - 1.0) > 1e-12 or abs(fitted["p_max"] - 3.0) > 1e-12:
                problems.append(f"chi-threshold: chi={fitted['chi']} "
                                f"p_max={fitted['p_max']}, want 1 and 3")
    return problems


# -- ensemble-ou ------------------------------------------------------------

def ou_closed_form(n_modes, sigma, dt, t_end):
    """Exact moments of the semi-implicit recursion from c_0 = 0,
    c <- (c + b_k dW) / (1 + dt lambda_k), b_k = sigma / (1 + lambda_k),
    lambda_k = k^2, saved only at 0 and t_end.

    Row 0 is E ||X(T)||^2 = sum_k Var_k.  Row 1 is the trapezoid over the
    two save points of ||X||_V^2 = sum_k (1 + lambda_k) c_k^2, i.e.
    (T/2) sum_k (1 + lambda_k) Var_k.
    """
    lam = np.arange(1, n_modes + 1, dtype=float) ** 2
    b = sigma / (1.0 + lam)
    r = 1.0 / (1.0 + dt * lam)
    steps = round(t_end / dt)
    var = b * b * dt * r * r * (1.0 - r ** (2 * steps)) / (1.0 - r * r)
    return float(var.sum()), float(t_end / 2.0 * np.sum((1.0 + lam) * var))


def ensemble_ou(seed, workdir):
    path, out = _config(
        workdir, "heat-ou-moments", "moments",
        {"name": "heat-ou", "sigma": OU["sigma"]}, {"n_modes": OU["n_modes"]},
        {"t_end": OU["t_end"], "dt": OU["dt"], "save_dt": OU["t_end"],
         "paths": OU["paths"], "seed": seed, "threads": 1},
        {"x0": "zero", "p": 2.0})
    ops = [Op("heat-ou-moments", "moments", path, out, EXIT_OK)]
    work = OU["paths"] * round(OU["t_end"] / OU["dt"])
    return Workload("ensemble-ou", ops, work, "path-steps", _check_ou)


def _check_ou(ops):
    (op,) = ops
    rows = _csv(op, "moments.csv")
    problems = []
    if _summary(op).get("n_blown") != 0:
        problems.append("heat-ou: paths blew up")
    exact = ou_closed_form(OU["n_modes"], OU["sigma"], OU["dt"], OU["t_end"])
    for row, want in zip(rows, exact):
        est, se, m = float(row["estimate"]), float(row["std_error"]), int(row["M"])
        if m != OU["paths"] or not abs(est - want) <= OU_TOLERANCE_SE * se:
            problems.append(f"heat-ou row {row['key']}: {est:.6g} +- {se:.3g} "
                            f"(M={m}) against closed form {want:.6g}")
    if len(rows) != len(exact):
        problems.append(f"heat-ou: {len(rows)} moment rows")
    return problems


# -- converge-plap ------------------------------------------------------------

def converge_plap(seed, workdir):
    top = max(PLAP["levels"])
    x0 = (0.5 / (1.0 + np.arange(top, dtype=float)) ** 2).tolist()
    path, out = _config(
        workdir, "p-laplacian-converge", "converge",
        {"name": "p-laplacian", "p": PLAP["p"], "sigma": PLAP["sigma"]},
        {"n_modes": top},
        {"t_end": PLAP["t_end"], "dt": PLAP["dt"], "save_dt": PLAP["save_dt"],
         "paths": PLAP["paths"], "seed": seed, "stepper": "explicit-tamed",
         "threads": 1},
        {"levels": PLAP["levels"], "x0": x0})
    ops = [Op("p-laplacian-converge", "converge", path, out, EXIT_OK)]
    work = PLAP["paths"] * round(PLAP["t_end"] / PLAP["dt"]) * len(PLAP["levels"])
    return Workload("converge-plap", ops, work, "path-steps", _check_plap)


def _check_plap(ops):
    (op,) = ops
    rows = _csv(op, "converge.csv")
    est = np.array([float(r["estimate"]) for r in rows])
    se = np.array([float(r["std_error"]) for r in rows])
    problems = []
    if len(rows) != len(PLAP["levels"]) - 1:
        return [f"p-laplacian: {len(rows)} Cauchy rows"]
    if any(int(r["M"]) != PLAP["paths"] for r in rows):
        problems.append("p-laplacian: a row lost paths")
    for i in range(len(est) - 1):
        if not est[i + 1] <= est[i] + 2.0 * np.hypot(se[i], se[i + 1]):
            problems.append(f"p-laplacian: row {i + 1} ({est[i + 1]:.3g}) above "
                            f"row {i} ({est[i]:.3g}) by more than 2 se")
    if not est[-1] <= 0.25 * est[0]:
        problems.append(f"p-laplacian: final row {est[-1]:.3g} > 0.25 x {est[0]:.3g}")
    return problems


WORKLOADS = {"audit": audit, "ensemble-ou": ensemble_ou,
             "converge-plap": converge_plap}
