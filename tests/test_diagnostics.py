import dataclasses
import tracemalloc

import numpy as np
import pytest

from spde import basis as sb
from spde import diagnostics as dg
from spde import models as sm
from spde import noise as sn
from spde import solver as sv
from spde.errors import (ConfigError, InadmissiblePError, InvalidDeltaError,
                         NonfiniteStateError)


def unit(n, k=0):
    e = np.zeros(n)
    e[k] = 1.0
    return e


def heat_ensemble(sigma=0.5, n=8, M=200, seed=3, t_end=1.0, dt=1e-3,
                  save_dt=1e-2, x0=None):
    m = sm.HeatOU(sigma=sigma)
    b = m.make_basis(n)
    x0 = unit(n) if x0 is None else x0
    return m, b, sv.solve_ensemble(m, b, x0, M=M, seed=seed, t_end=t_end,
                                   dt=dt, save_dt=save_dt, on_blowup="discard")


def test_moment_report_deterministic_contraction():
    # sigma = 0: sup_t ||X||_H^p is hit at t = 0 and equals ||x0||^p = 1
    m, b, ens = heat_ensemble(sigma=0.0, M=3)
    tab = dg.moment_report(ens, p=2, alpha=2)
    sup_row = tab.rows[0]
    assert sup_row[1] == 1.0 and sup_row[2] == 0.0
    assert tab.extra["n_blown"] == 0


def test_moment_report_requires_p_geq_2():
    m, b, ens = heat_ensemble(M=3)
    with pytest.raises(InadmissiblePError):
        dg.moment_report(ens, p=1.5, alpha=2)


def test_moment_report_part2_admissibility():
    m = sm.GradientNoiseHeat(nu=1.5)       # p_max = 1 + 2/2.25 < 2
    b = m.make_basis(8)
    ens = sv.solve_ensemble(m, b, unit(8), M=3, seed=1, t_end=0.1, dt=1e-3,
                            save_dt=1e-2)
    with pytest.raises(InadmissiblePError):
        dg.moment_report(ens, p=2, alpha=2)

    m1 = sm.GradientNoiseHeat(nu=1.0)      # p_max = 3
    b1 = m1.make_basis(8)
    ens1 = sv.solve_ensemble(m1, b1, unit(8), M=3, seed=1, t_end=0.1, dt=1e-3,
                             save_dt=1e-2)
    tab = dg.moment_report(ens1, p=2, alpha=2)
    assert np.isfinite(tab.rows[0][1])
    with pytest.raises(InadmissiblePError):
        dg.moment_report(ens1, p=3.0, alpha=2)   # boundary excluded


def test_moment_scaling_fit_then_check():
    # sub-homogeneity in the initial datum: the normalized moment
    # est / (1 + ||x||^p) fitted on the unscaled run bounds the 2x run up
    # to a factor-2 allowance (one amplitude cannot pin the universal
    # constant; unbounded growth in x would blow through any fixed factor)
    p = 2.0
    m, b, ens1 = heat_ensemble(M=400, seed=5)
    t1 = dg.moment_report(ens1, p=p, alpha=2)
    C = (t1.rows[0][1] + 3 * t1.rows[0][2]) / 2.0      # / (1 + ||x||^p)
    m2, b2, ens2 = heat_ensemble(M=400, seed=5, x0=2.0 * unit(8))
    t2 = dg.moment_report(ens2, p=p, alpha=2)
    assert t2.rows[0][1] <= 2.0 * C * (1.0 + 2.0 ** p) + 3 * t2.rows[0][2]


def test_equicontinuity_zero_for_constant_trajectory():
    # x0 = 0 with B(0) = 0 stays exactly at zero
    m = sm.PLaplacian(4, 1.0, 0.5)
    b = m.make_basis(8)
    ens = sv.solve_ensemble(m, b, np.zeros(8), M=3, seed=1, t_end=0.4,
                            dt=1e-3, save_dt=1e-2, stepper="explicit-tamed")
    tab = dg.equicontinuity_statistic(ens, [0.02, 0.04, 0.08], alpha=4)
    assert all(r[1] == 0.0 for r in tab.rows)


def test_equicontinuity_delta_validation():
    m, b, ens = heat_ensemble(M=3)
    with pytest.raises(InvalidDeltaError):
        dg.equicontinuity_statistic(ens, [0.015], alpha=2)
    with pytest.raises(InvalidDeltaError):
        dg.equicontinuity_statistic(ens, [5.0], alpha=2)   # longer than T


def test_equicontinuity_rate_and_monotonicity():
    m, b, ens = heat_ensemble(sigma=0.5, M=400, seed=11)
    deltas = [k * 1e-2 for k in (2, 4, 8, 16, 32)]
    tab = dg.equicontinuity_statistic(ens, deltas, alpha=2)
    slope, _, r2 = tab.fitted_rate
    assert slope >= 0.35 and r2 >= 0.9
    est = tab.estimates()
    se = tab.std_errors()
    assert np.all(est >= 0)
    # nondecreasing in delta within 2 SE
    assert np.all(np.diff(est) >= -2.0 * np.hypot(se[1:], se[:-1]))


def test_galerkin_convergence_invariant_subspace():
    # x0 in H_8 with noise confined to the first 8 modes: levels agree exactly
    m = sm.HeatOU(sigma=0.4)
    tab = dg.galerkin_convergence(m, unit(8), [8, 16, 32], M=4, seed=2,
                                  t_end=0.2, dt=1e-3, save_dt=1e-2, alpha=2,
                                  m_modes=8)
    assert all(r[1] == 0.0 for r in tab.rows)


def test_galerkin_convergence_heat_tail():
    # deterministic heat: the Cauchy error is the x0 tail energy, slope <= -2.5
    m = sm.HeatOU(sigma=0.0)
    x0 = 1.0 / (1.0 + np.arange(64.0)) ** 2
    tab = dg.galerkin_convergence(m, x0, [8, 16, 32, 64], M=1, seed=0,
                                  t_end=0.25, dt=1e-3, save_dt=1e-2, alpha=2)
    assert tab.fitted_rate[0] <= -2.5
    # oracle: per-mode scalar recursion of the implicit Euler scheme
    for (n_coarse, est, _, _) in tab.rows:
        n = int(n_coarse)
        ks = np.arange(n + 1, 2 * n + 1)
        lam = ks.astype(float) ** 2
        c0 = 1.0 / ks ** 2
        t_grid = np.arange(0, 26) * 1e-2
        decay = (1.0 + 1e-3 * lam[:, None]) ** (-(t_grid / 1e-3)[None, :])
        sq = np.sum((c0[:, None] * decay) ** 2, axis=0)
        oracle = np.trapezoid(sq, dx=1e-2)
        assert est == pytest.approx(oracle, rel=1e-8)


def test_initial_data_continuity_heat_exact():
    # additive noise: the difference solves the deterministic heat equation;
    # sup is attained at t = 0 where it equals eps ||d|| exactly
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(8)
    eps = [0.1 / 2 ** j for j in range(5)]
    d = unit(8, 1)
    tab = dg.initial_data_continuity(m, b, unit(8), d, eps, p=2, M=8, seed=3,
                                     t_end=0.5, dt=1e-3, save_dt=1e-2)
    for (e, est, se, _) in tab.rows:
        assert est / (e ** 2 * 1.0) <= 1.0 + 1e-9
        assert est / (e ** 2 * 1.0) >= 0.9   # attained at t=0
        assert se <= 1e-12


def test_initial_data_continuity_zero_perturbation():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(4)
    tab = dg.initial_data_continuity(m, b, unit(4), unit(4, 1), [0.0], p=2,
                                     M=4, seed=3, t_end=0.1, dt=1e-3,
                                     save_dt=1e-2)
    assert tab.rows[0][1] == 0.0


def test_uniqueness_probe_identical_is_zero():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(6)
    tab = dg.uniqueness_probe(m, b, unit(6), M=6, seed=4,
                              dt_levels=[4e-3, 2e-3], t_end=0.4,
                              save_dt=2e-2, mode="identical")
    assert all(r[1] == 0.0 for r in tab.rows)


def test_uniqueness_probe_stepper_rate_deterministic():
    # explicit vs semi-implicit on the deterministic heat equation:
    # global O(dt) difference, slope 1 +- 0.15 on the unsquared scale
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(6)
    tab = dg.uniqueness_probe(m, b, unit(6), M=1, seed=4,
                              dt_levels=[1e-2, 5e-3, 2.5e-3, 1.25e-3],
                              t_end=0.5, save_dt=5e-2, mode="stepper")
    dts = [r[0] for r in tab.rows]
    sups = np.sqrt([r[1] for r in tab.rows])
    slope, _, _ = dg.loglog_fit(dts, sups)
    assert abs(slope - 1.0) <= 0.15


def test_uniqueness_probe_dt_refinement_plaplacian():
    m = sm.PLaplacian(4, 1.0, 0.5)
    b = m.make_basis(16)
    tab = dg.uniqueness_probe(m, b, unit(16), M=64, seed=21,
                              dt_levels=[2e-3, 1e-3, 5e-4], t_end=0.2,
                              save_dt=2e-2, mode="dt-refinement",
                              stepper="explicit-tamed")
    assert tab.fitted_rate[0] >= 0.4


def test_tables_deterministic():
    m, b, e1 = heat_ensemble(M=50, seed=9)
    _, _, e2 = heat_ensemble(M=50, seed=9)
    t1 = dg.moment_report(e1, 2, 2)
    t2 = dg.moment_report(e2, 2, 2)
    assert t1.rows == t2.rows


def test_write_table(tmp_path):
    m, b, ens = heat_ensemble(M=10)
    tab = dg.moment_report(ens, 2, 2)
    csv = tmp_path / "moments.csv"
    dg.write_table(tab, csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "key,estimate,std_error,M"
    assert lines[1:] == [",".join(r) for r in tab.csv_rows()[1:]]
    assert len(lines) == 3


def all_blown_ensemble(M=3):
    m, b, ens = heat_ensemble(M=M, t_end=0.1)
    ens.blow_t[:] = 0.05 + 0.01 * np.arange(M)
    ens.states[:, 5:] = np.nan
    return ens


def test_all_blown_ensemble_raises_with_count():
    ens = all_blown_ensemble()
    with pytest.raises(NonfiniteStateError, match="all 3 paths blew up") as ei:
        dg.moment_report(ens, p=2, alpha=2)
    assert ei.value.time == 0.05
    with pytest.raises(NonfiniteStateError, match="all 3 paths blew up"):
        dg.equicontinuity_statistic(ens, [0.02], alpha=2)


def test_equicontinuity_drops_survivors_with_nonfinite_statistic():
    # one survivor near overflow: its squared shifts are inf at every
    # delta, so it counts as blown and the rows are those of the others
    m, b, ens = heat_ensemble(M=40, t_end=0.5)
    deltas = [0.02, 0.04]
    ref = dg.equicontinuity_statistic(
        dataclasses.replace(ens, states=ens.states[1:], blow_t=ens.blow_t[1:]),
        deltas, alpha=2)
    ens.trajectories[0].states[-1] = 1e200
    tab = dg.equicontinuity_statistic(ens, deltas, alpha=2)
    assert tab.extra["n_blown"] == 1
    assert tab.rows == ref.rows and [r[3] for r in tab.rows] == [39, 39]
    for t in ens.trajectories[1:]:
        t.states[-1] = 1e200
    with pytest.raises(NonfiniteStateError, match="all 40 paths"):
        dg.equicontinuity_statistic(ens, deltas, alpha=2)


def test_galerkin_convergence_streams_noise():
    # the (paths, steps, modes) block would be 64 * 2000 * 32 float64s;
    # streamed chunks hold at most noise.CHUNK_NORMALS each
    m = sm.PLaplacian(4.0, 1.0, 0.4)
    M, steps, modes = 64, 2000, 32
    x0 = 0.5 / (1.0 + np.arange(32)) ** 2
    tracemalloc.start()
    try:
        tab = dg.galerkin_convergence(m, x0, [16, 32], M=M, seed=1, t_end=0.2,
                                      dt=1e-4, save_dt=2e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tab.rows) == 1 and tab.rows[0][3] == M
    assert peak < 0.5 * M * steps * modes * 8


def test_galerkin_convergence_frees_noise_before_reductions():
    # one 4 MiB noise buffer serves the block and is dropped before the
    # block-end difference grids are built: the peak stays below the chunk
    # plus twice the save grids (holding the chunk through the reductions,
    # or a fresh array per chunk, each exceeded it)
    m = sm.PLaplacian(4.0, 1.0, 0.4)
    M, saves = 256, 51
    x0 = 0.5 / (1.0 + np.arange(32)) ** 2
    tracemalloc.start()
    try:
        dg.galerkin_convergence(m, x0, [16, 32], M=M, seed=1, t_end=0.05,
                                dt=1e-4, save_dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    save_grids = M * saves * (16 + 32) * 8
    assert peak < sn.CHUNK_NORMALS * 8 + 2 * save_grids


def test_initial_data_continuity_keeps_running_maxima():
    # six runs (base and five perturbations) of 128 paths * 3001 saves * 8
    # modes: each run's whole save grid is 24.6 MB.  Only the latest
    # chunk's save rows and per-path maxima are held, so the peak stays
    # below one such grid.
    m = sm.HeatOU(0.5)
    b = m.make_basis(8)
    M, steps, n = 128, 3000, 8
    tracemalloc.start()
    try:
        tab = dg.initial_data_continuity(m, b, unit(8), unit(8),
                                         [0.1 / 2 ** j for j in range(5)], 2.0,
                                         M=M, seed=1, t_end=steps * 1e-3, dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r[3] for r in tab.rows] == [M] * 5
    assert peak < M * (steps + 1) * n * 8


def test_uniqueness_probe_rejects_bad_mode_and_levels():
    m = sm.HeatOU(0.5)
    b = m.make_basis(4)
    with pytest.raises(InvalidDeltaError, match="unknown probe mode"):
        dg.uniqueness_probe(m, b, unit(4), M=2, seed=0, dt_levels=[0.02, 0.01],
                            t_end=0.04, mode="dt-refinment")
    # dt-refinement halves 0.03, and 0.015 is no multiple of the fine step 0.01
    with pytest.raises(ConfigError, match="dt_level"):
        dg.uniqueness_probe(m, b, unit(4), M=2, seed=0, dt_levels=[0.03, 0.02],
                            t_end=0.06)


def test_galerkin_convergence_frees_each_block():
    # a block's runs and difference grids are gone before the next block
    # allocates, so a second block does not raise the peak
    m = sm.PLaplacian(4.0, 1.0, 0.4)
    x0 = 0.5 / (1.0 + np.arange(32)) ** 2
    peaks = []
    for M in (256, 512):
        tracemalloc.start()
        try:
            dg.galerkin_convergence(m, x0, [16, 32], M=M, seed=3, t_end=0.05,
                                    dt=1e-4, save_dt=1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0]


BLOCK_DRIVEN = {
    "converge": lambda m, b, x0, th: dg.galerkin_convergence(
        m, x0, [4, 8, 16], M=300, seed=1, t_end=0.02, dt=1e-3, save_dt=5e-3,
        threads=th),
    "continuity": lambda m, b, x0, th: dg.initial_data_continuity(
        m, b, x0, unit(16, 1), [0.1, 0.05], 2.0, M=300, seed=1, t_end=0.02,
        dt=1e-3, save_dt=5e-3, threads=th),
    "uniqueness": lambda m, b, x0, th: dg.uniqueness_probe(
        m, b, x0, M=300, seed=1, dt_levels=[2e-3, 1e-3], t_end=0.02,
        save_dt=4e-3, threads=th),
}


@pytest.mark.parametrize("experiment", sorted(BLOCK_DRIVEN))
def test_block_driven_tables_thread_invariant(experiment):
    # M = 300 is a full block and a tail block, run on one or two workers
    m = sm.PLaplacian(4.0, 1.0, 0.4)
    b = m.make_basis(16)
    x0 = 0.5 / (1.0 + np.arange(16)) ** 2
    one, two = (BLOCK_DRIVEN[experiment](m, b, x0, th) for th in (1, 2))
    assert [r[3] for r in one.rows] == [300] * len(one.rows)
    assert one.rows == two.rows and one.fitted_rate == two.fitted_rate


def test_mean_se_scales_before_squaring():
    # the power-of-two scaling keeps the unscaled bits where those are
    # finite, and a finite std error where squaring would overflow
    rng = np.random.default_rng(0)
    for scale in (1e-26, 1.0, 1e26):
        x = scale * rng.standard_normal(50)
        assert dg._mean_se(x) == (np.mean(x), np.std(x, ddof=1) / np.sqrt(50), 50)
    est, se, m = dg._mean_se([1e190, 3e190])
    assert est == 2e190 and se == pytest.approx(1e190, rel=1e-12) and m == 2
    assert dg._mean_se([0.0, 0.0]) == (0.0, 0.0, 2)


class QuadraticOU(sm.HeatOU):
    """Heat-ou plus an explicit drift 4 c|c|: a path that the noise carries
    past |c_k| = lambda_k / 4 blows up, and the others stay of order one."""

    name = "quadratic-ou"

    def apply_A(self, basis, t, coeffs):
        c = np.asarray(coeffs, float)
        return super().apply_A(basis, t, c) + 4.0 * c * np.abs(c)


def test_continuity_and_uniqueness_count_blowups():
    # a few of these 40 paths blow up before t = 1; the rows are taken over
    # the rest, and count them, instead of turning NaN
    m = QuadraticOU(0.8)
    b = m.make_basis(4)
    kw = dict(M=40, seed=2, t_end=1.0)
    ens = sv.solve_ensemble(m, b, np.zeros(4), dt=1e-2, save_dt=1e-2,
                            on_blowup="discard", **kw)
    base_blown = ens.blown_count()
    assert base_blown > 0
    cont = dg.initial_data_continuity(m, b, np.zeros(4), unit(4), [0.1, 0.05], 2.0,
                                      dt=1e-2, **kw)
    # the dt = 0.02 level runs against dt / 2 = 1e-2, the ensemble's step
    uniq = dg.uniqueness_probe(m, b, np.zeros(4), dt_levels=[0.04, 0.02],
                               save_dt=0.04, **kw)
    for tab in (cont, uniq):
        n_blown = tab.extra["n_blown"]
        assert base_blown <= n_blown < 40
        for _, est, se, M in tab.rows:
            assert M == 40 - n_blown and np.isfinite(est) and np.isfinite(se)


def test_galerkin_convergence_counts_blowups():
    # the paths that blow up at either level leave every row and are
    # counted; the rows are those of the others, as for continuity
    m = QuadraticOU(1.0)
    tab = dg.galerkin_convergence(m, np.zeros(4), [4, 8], M=40, seed=2, t_end=1.0,
                                  dt=1e-2)
    n_blown = tab.extra["n_blown"]
    assert 0 < n_blown < 40
    for _, est, se, M in tab.rows:
        assert M == 40 - n_blown and np.isfinite(est) and np.isfinite(se)
    finite = dg.galerkin_convergence(sm.HeatOU(0.8), np.zeros(4), [4, 8], M=40,
                                     seed=2, t_end=1.0, dt=1e-2)
    assert finite.extra["n_blown"] == 0 and finite.rows[0][3] == 40


def test_galerkin_convergence_all_blown_raises():
    m = sm.GradientNoiseHeat(nu=30.0)
    with pytest.raises(NonfiniteStateError, match="all 20 paths blew up") as ei:
        dg.galerkin_convergence(m, unit(8), [4, 8], M=20, seed=2, t_end=5.12, dt=1e-2)
    assert ei.value.time is not None


def test_continuity_and_uniqueness_all_blown_raise():
    m = sm.GradientNoiseHeat(nu=30.0)
    b = m.make_basis(8)
    kw = dict(M=20, seed=2, t_end=5.12)
    with pytest.raises(NonfiniteStateError, match="all 20 paths blew up") as ei:
        dg.initial_data_continuity(m, b, unit(8), unit(8), [0.1], 2.0, dt=1e-2, **kw)
    assert ei.value.time is not None
    with pytest.raises(NonfiniteStateError, match="all 20 paths blew up"):
        dg.uniqueness_probe(m, b, unit(8), dt_levels=[0.08, 0.04], save_dt=0.08, **kw)


def per_path_moments(ens, p, alpha):
    """moment_report's rows by one path at a time, over the survivors."""
    sup_p, vint_p = [], []
    for t in ens.trajectories:
        if t.blew_up_at is None:
            sup_p.append(np.max(t.h_norms()) ** p)
            v = sb.v_norm(ens.basis, ens.model, t.states)
            vint_p.append(np.trapezoid(v ** alpha, dx=t.save_dt) ** (p / 2.0))
    return [(0.0, *dg._mean_se(sup_p)), (1.0, *dg._mean_se(vint_p))]


@pytest.mark.parametrize("model,n,save_dt", [
    (sm.HeatOU(0.5), 4, 0.2), (sm.HeatOU(0.5), 16, 0.02),
    (sm.PLaplacian(4.0, 1.0, 0.5), 16, 1e-3), (sm.PLaplacian(3.0, 1.0, 0.5), 32, 0.02),
])
def test_moment_report_matches_per_path_reference(monkeypatch, model, n, save_dt):
    # the vectorised reductions give each path's bits as a one-path array
    # does, whole or in slices of paths, and with blown paths left out
    b = model.make_basis(n)
    ens = sv.solve_ensemble(model, b, 0.5 / (1.0 + np.arange(n)) ** 2, M=300, seed=5,
                            t_end=0.2, dt=1e-3, save_dt=save_dt)
    for p in (2.0, 3.0):
        ref = per_path_moments(ens, p, model.alpha)
        assert dg.moment_report(ens, p, model.alpha).rows == ref
    monkeypatch.setattr(dg, "REDUCE_VALUES", 7 * ens.states.shape[1] * b.grid_size)
    assert dg.moment_report(ens, 2.0, model.alpha).rows == per_path_moments(ens, 2.0,
                                                                             model.alpha)
    ens.blow_t[[3, 100, 299]] = 0.1
    ens.states[[3, 100, 299], -1] = np.nan
    tab = dg.moment_report(ens, 2.0, model.alpha)
    assert tab.rows == per_path_moments(ens, 2.0, model.alpha)
    assert tab.extra["n_blown"] == 3 and tab.rows[0][3] == 297
