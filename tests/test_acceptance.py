"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Sample sizes, tolerances and runtime caps are pinned here.
"""

import json
import time

import numpy as np
import pytest

from spde import checks as ck
from spde import cli
from spde import diagnostics as dg
from spde import models as sm
from spde import solver as sv


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def unit(n, k=0):
    e = np.zeros(n)
    e[k] = 1.0
    return e


# ------------------------------------------------------------------ 1 ---

def test_criterion_1_hypothesis_audits():
    t0 = time.perf_counter()
    clean = True
    details = []
    for name in sm.ZOO:
        model = sm.build_model(name)
        basis = model.make_basis(16)
        reports = ck.run_all(model, basis, n_samples=10000, seed=2026)
        bad = sum(r.n_violations for r in reports)
        clean &= bad == 0
        details.append(f"{name}:{bad}")
    for name in sm.FIXTURES:
        model = sm.build_model(name)
        basis = model.make_basis(16)
        reports = ck.run_all(model, basis, n_samples=1000, seed=2026)
        flagged = sum(r.n_violations for r in reports)
        clean &= flagged >= 1
        details.append(f"{name}:flagged={flagged}")
    elapsed = time.perf_counter() - t0
    clean &= elapsed <= 300.0
    report(1, "hypothesis audits clean, fixtures flagged",
           clean, f"({'; '.join(details)}; {elapsed:.0f}s <= 300s)")


# ------------------------------------------------------------------ 2 ---

def test_criterion_2_exact_solution_oracles():
    # deterministic heat decay at dt = 1e-3
    m0 = sm.HeatOU(sigma=0.0)
    b = m0.make_basis(8)
    decay_ok = True
    for stepper in sv.STEPPERS:
        ens = sv.solve_ensemble(m0, b, unit(8), M=1, seed=0, stepper=stepper,
                                t_end=1.0, dt=1e-3, save_dt=0.1)
        err = abs(np.linalg.norm(ens.states[0], axis=-1)[-1] - np.exp(-1.0))
        decay_ok &= err <= 1e-3

    # OU stationary variance at M = 1e4
    m = sm.HeatOU(sigma=0.5)
    b4 = m.make_basis(4)
    M = 10000
    ens = sv.solve_ensemble(m, b4, np.zeros(4), M=M, seed=1, t_end=6.0,
                            dt=1e-3, save_dt=6.0)
    term = ens.states[:, -1]
    lam = b4.eigenvalues
    exact = (0.5 / (1 + lam)) ** 2 / (2 * lam)
    var = term.var(axis=0, ddof=1)
    se = exact * np.sqrt(2.0 / (M - 1))
    ou_ok = bool(np.all(np.abs(var - exact) <= 3 * se + 0.01 * exact))

    # fitted deterministic convergence order for both steppers
    orders = []
    for stepper in sv.STEPPERS:
        errs, dts = [], [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            e = sv.solve_ensemble(m0, b, unit(8), M=1, seed=0, stepper=stepper,
                                  t_end=1.0, dt=dt, save_dt=0.2)
            errs.append(abs(np.linalg.norm(e.states[0], axis=-1)[-1] - np.exp(-1.0)))
        orders.append(dg.loglog_fit(dts, errs)[0])
    order_ok = all(abs(s - 1.0) <= 0.1 for s in orders)

    report(2, "exact-solution oracles", decay_ok and ou_ok and order_ok,
           f"(decay<=1e-3: {decay_ok}; OU var 3SE: {ou_ok}; "
           f"orders {orders[0]:.3f}/{orders[1]:.3f} in 1.0+-0.1)")


# ------------------------------------------------------------------ 3 ---

def test_criterion_3_moment_uniformity():
    t0 = time.perf_counter()
    M, p = 2000, 2.0
    levels = [8, 16, 32, 64]
    sups, vints = {}, {}
    for n in levels:
        m = sm.HeatOU(sigma=0.5)
        tab = dg.moment_report(m, m.make_basis(n), unit(n), p=p, alpha=2.0, M=M,
                               seed=7, t_end=1.0, dt=1e-3, save_dt=1e-2)
        sups[n] = (tab.rows[0][1], tab.rows[0][2])
        vints[n] = (tab.rows[1][1], tab.rows[1][2])

    pair_ok = True
    for i, a in enumerate(levels):
        for bn in levels[i + 1:]:
            diff = abs(sups[a][0] - sups[bn][0])
            band = 3.0 * np.hypot(sups[a][1], sups[bn][1])
            pair_ok &= diff <= band

    # V-moment bounded by one fitted C (1 + ||x||^2): fit on the coarsest
    # level with 3 SE headroom, check the rest inside their own 3 SE
    C = (vints[levels[0]][0] + 3 * vints[levels[0]][1]) / 2.0
    v_ok = all(vints[n][0] <= C * 2.0 + 3 * vints[n][1] for n in levels)

    # save-grid refinement study: sup over the save grid stabilizes
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(16)
    ests = []
    for sdt in (4e-2, 2e-2, 1e-2):
        tab = dg.moment_report(m, b, unit(16), p=p, alpha=2.0, M=500, seed=3,
                               t_end=1.0, dt=1e-3, save_dt=sdt)
        ests.append((tab.rows[0][1], tab.rows[0][2]))
    grid_ok = (ests[2][0] >= ests[1][0] >= ests[0][0] - 3 * ests[0][1]) and \
        abs(ests[2][0] - ests[1][0]) <= max(3 * np.hypot(ests[2][1], ests[1][1]),
                                            0.01 * ests[2][0])
    elapsed = time.perf_counter() - t0
    ok = pair_ok and v_ok and grid_ok and elapsed <= 600.0
    report(3, "moment uniformity across n", ok,
           f"(pairwise 3SE: {pair_ok}; V-moment bounded: {v_ok}; "
           f"save-grid stable: {grid_ok}; {elapsed:.0f}s <= 600s)")


# ------------------------------------------------------------------ 4 ---

def test_criterion_4_equicontinuity_rate():
    m = sm.HeatOU(sigma=0.5)
    deltas = [k * 1e-2 for k in (2, 4, 8, 16, 32)]
    tab = dg.equicontinuity_statistic(m, m.make_basis(16), unit(16), deltas, alpha=2.0,
                                      M=2000, seed=11, t_end=1.0, dt=1e-3, save_dt=1e-2)
    slope, _, r2 = tab.fitted_rate
    ok = slope >= 0.35 and r2 >= 0.9
    report(4, "equicontinuity (tightness shadow)", ok,
           f"(slope {slope:.3f} >= 0.35, r2 {r2:.3f} >= 0.9)")


# ------------------------------------------------------------------ 5 ---

def test_criterion_5_galerkin_convergence():
    # linear heat against the per-mode recursion oracle
    m0 = sm.HeatOU(sigma=0.0)
    x0 = 1.0 / (1.0 + np.arange(64.0)) ** 2
    tab = dg.galerkin_convergence(m0, x0, [8, 16, 32, 64], M=1, seed=0,
                                  t_end=0.25, dt=1e-3, save_dt=1e-2, alpha=2.0)
    slope_ok = tab.fitted_rate[0] <= -2.5
    oracle_ok = True
    for (nc, est, _, _) in tab.rows:
        n = int(nc)
        ks = np.arange(n + 1, 2 * n + 1)
        lam = ks.astype(float) ** 2
        c0 = 1.0 / ks ** 2
        t_grid = np.arange(0, 26) * 1e-2
        decay = (1.0 + 1e-3 * lam[:, None]) ** (-(t_grid / 1e-3)[None, :])
        sq = np.sum((c0[:, None] * decay) ** 2, axis=0)
        oracle_ok &= abs(est - np.trapezoid(sq, dx=1e-2)) <= 1e-8 * (1 + est)

    # p-Laplacian Cauchy decay under common noise; quasilinear stiffness
    # grows like n^2 |u'|^2, so the levels and dt are sized for the
    # explicit tamed scheme to stay in its accuracy regime at the top level
    mp = sm.PLaplacian(p=4.0, c=1.0, sigma=0.4)
    xp = 0.5 / (1.0 + np.arange(32.0)) ** 2
    tabp = dg.galerkin_convergence(mp, xp, [4, 8, 16, 32], M=500, seed=17,
                                   t_end=0.2, dt=1e-4, save_dt=2e-3,
                                   alpha=4.0, stepper="explicit-tamed")
    _, est, se, _ = np.array(tabp.rows).T
    dec_ok = all(est[i + 1] <= est[i] + 2 * np.hypot(se[i], se[i + 1])
                 for i in range(len(est) - 1))
    ratio_ok = est[-1] <= 0.25 * est[0]
    ok = slope_ok and oracle_ok and dec_ok and ratio_ok
    report(5, "Galerkin Cauchy convergence", ok,
           f"(heat slope {tab.fitted_rate[0]:.2f} <= -2.5, oracle: {oracle_ok}; "
           f"p-lap decreasing: {dec_ok}, final/first "
           f"{est[-1] / est[0]:.3f} <= 0.25)")


# ------------------------------------------------------------------ 6 ---

def test_criterion_6_initial_data_continuity():
    # additive heat: exact contraction of the difference
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(16)
    eps = [0.1 / 2 ** j for j in range(5)]
    tab = dg.initial_data_continuity(m, b, unit(16), unit(16, 1), eps, p=2.0,
                                     M=16, seed=5, t_end=0.5, dt=1e-3,
                                     save_dt=1e-2)
    heat_ok = all(est / (e ** 2) <= 1.0 + 1e-9 for (e, est, _, _) in tab.rows)

    # convection-diffusion: monotone decay to zero, final <= 0.1 * first
    mc = sm.ConvectionDiffusion(sigma=0.5)
    bc = mc.make_basis(16)
    tabc = dg.initial_data_continuity(mc, bc, unit(16), unit(16, 1), eps,
                                      p=2.0, M=200, seed=5, t_end=0.5,
                                      dt=1e-3, save_dt=1e-2)
    _, est, se, _ = np.array(tabc.rows).T
    mono_ok = all(est[i + 1] <= est[i] + 2 * np.hypot(se[i], se[i + 1])
                  for i in range(len(est) - 1))
    final_ok = est[-1] <= 0.1 * est[0]
    ok = heat_ok and mono_ok and final_ok
    report(6, "continuity in initial data", ok,
           f"(heat exact: {heat_ok}; conv-diff monotone: {mono_ok}, "
           f"final/first {est[-1] / est[0]:.2e} <= 0.1)")


# ------------------------------------------------------------------ 7 ---

def test_criterion_7_pathwise_uniqueness_probe():
    m = sm.PLaplacian(p=4.0, c=1.0, sigma=0.5)
    b = m.make_basis(16)
    tab = dg.uniqueness_probe(m, b, unit(16), M=200, seed=31,
                              dt_levels=[2e-3, 1e-3, 5e-4], t_end=0.2,
                              save_dt=2e-2, mode="dt-refinement",
                              stepper="explicit-tamed")
    slope = tab.fitted_rate[0]
    zero = dg.uniqueness_probe(m, b, unit(16), M=8, seed=31,
                               dt_levels=[2e-3], t_end=0.2, save_dt=2e-2,
                               mode="identical")
    zero_ok = all(r[1] == 0.0 for r in zero.rows)
    ok = slope >= 0.4 and zero_ok
    report(7, "pathwise-uniqueness probe", ok,
           f"(dt-refinement slope {slope:.2f} >= 0.4; identical==0: {zero_ok})")


# ------------------------------------------------------------------ 8 ---

def test_criterion_8_part2_threshold(tmp_path):
    rep = ck.check_chi_threshold(sm.build_model("gradient-noise-heat", nu=1.0))
    f = rep.fitted_constants
    chi_ok = rep.passed and f["chi"] == 1.0 and f["p_min"] == 2.0 \
        and abs(f["p_max"] - 3.0) < 1e-12

    # simulation at nu = 1 stays mean-square bounded
    m = sm.GradientNoiseHeat(nu=1.0)
    b = m.make_basis(16)
    ens = sv.solve_ensemble(m, b, unit(16), M=2000, seed=13, t_end=1.0,
                            dt=1e-3, save_dt=2e-2)
    st = ens.states
    second = np.mean(np.sum(st * st, axis=-1), axis=0)
    t = ens.times
    slope, intercept = np.polyfit(t, np.log(second), 1)
    resid = np.log(second) - (slope * t + intercept)
    se_slope = np.sqrt(np.sum(resid ** 2) / (t.size - 2)
                       / np.sum((t - t.mean()) ** 2))
    stable_ok = slope <= 0.0 + 2 * se_slope

    # the validator rejects nu = 1.5 for p = 2 moment reports
    code = cli.main(["moments", "--model", "gradient-noise-heat", "--nu", "1.5",
                     "--p", "2", "--paths", "4", "--t-end", "0.1",
                     "--out", str(tmp_path / "rej")])
    reject_ok = code == cli.EXIT_USAGE
    ok = chi_ok and stable_ok and reject_ok
    report(8, "Part II threshold L_B < 2 L_A / chi", ok,
           f"(chi=1, p in [2,3): {chi_ok}; log-moment slope {slope:.3f} <= 0: "
           f"{stable_ok}; nu=1.5 rejected: {reject_ok})")


# ------------------------------------------------------------------ 9 ---

def test_criterion_9_reproducibility(tmp_path):
    jobs = [
        ("check", ["check", "--model", "heat-ou", "--n-samples", "400"],
         "condition_report.csv"),
        ("simulate", ["simulate", "--model", "heat-ou", "--t-end", "0.2",
                      "--dt", "0.001", "--save-dt", "0.01"], "trajectory.csv"),
        ("moments", ["moments", "--model", "p-laplacian", "--paths", "60",
                     "--seed", "5", "--t-end", "0.2", "--dt", "0.001",
                     "--save-dt", "0.01"], "moments.csv"),
        ("equicontinuity", ["equicontinuity", "--model", "convection-diffusion",
                            "--paths", "60", "--seed", "5", "--t-end", "0.5",
                            "--dt", "0.001", "--save-dt", "0.01"],
         "equicontinuity.csv"),
    ]
    ok = True
    details = []
    for name, args, csv_name in jobs:
        outs = []
        for tag, extra in (("a", []), ("b", []), ("t4", ["--threads", "4"])):
            out = tmp_path / f"{name}-{tag}"
            code = cli.main(args + extra + ["--out", str(out)])
            ok &= code in (cli.EXIT_OK, cli.EXIT_VIOLATIONS)
            outs.append((out / csv_name).read_bytes())
        same = outs[0] == outs[1] == outs[2]
        ok &= same
        details.append(f"{name}:{'=' if same else '!='}")
    report(9, "CSV byte-reproducibility (reruns and threads)", ok,
           f"({'; '.join(details)})")
