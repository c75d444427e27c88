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


def heat_run(sigma=0.5, n=8, M=200, seed=3, t_end=1.0, dt=1e-3, save_dt=1e-2,
             x0=None):
    """A heat-ou run: (model, basis, x0), the leading arguments of
    moment_report and equicontinuity_statistic, and the run's keywords."""
    m = sm.HeatOU(sigma=sigma)
    x0 = unit(n) if x0 is None else x0
    return (m, m.make_basis(n), x0), dict(M=M, seed=seed, t_end=t_end, dt=dt,
                                          save_dt=save_dt)


def test_moment_report_deterministic_contraction():
    # sigma = 0: sup_t ||X||_H^p is hit at t = 0 and equals ||x0||^p = 1
    args, kw = heat_run(sigma=0.0, M=3)
    tab = dg.moment_report(*args, p=2, alpha=2, **kw)
    sup_row = tab.rows[0]
    assert sup_row[1] == 1.0 and sup_row[2] == 0.0
    assert tab.extra["n_blown"] == 0


def test_moment_report_requires_p_geq_2():
    args, kw = heat_run(M=3)
    with pytest.raises(InadmissiblePError):
        dg.moment_report(*args, p=1.5, alpha=2, **kw)


def test_moment_report_part2_admissibility():
    kw = dict(alpha=2, M=3, seed=1, t_end=0.1, dt=1e-3, save_dt=1e-2)
    m = sm.GradientNoiseHeat(nu=1.5)       # p_max = 1 + 2/2.25 < 2
    with pytest.raises(InadmissiblePError):
        dg.moment_report(m, m.make_basis(8), unit(8), p=2, **kw)

    m1 = sm.GradientNoiseHeat(nu=1.0)      # p_max = 3
    b1 = m1.make_basis(8)
    tab = dg.moment_report(m1, b1, unit(8), p=2, **kw)
    assert np.isfinite(tab.rows[0][1])
    with pytest.raises(InadmissiblePError):
        dg.moment_report(m1, b1, unit(8), p=3.0, **kw)   # boundary excluded


@pytest.mark.parametrize("k", [0, 1, 2, 37, 300])
@pytest.mark.parametrize("name", ["heat-ou", "p-laplacian"])
def test_chunk_v_norm_matches_per_row_form(name, k):
    # moment_report takes ||X||_V^alpha of a chunk's (M, k, n) save rows in
    # one v_norm call; it keeps the bits of one call per save row, for the
    # spectral (heat-ou) and gradient-seminorm (p-laplacian) V-norms
    model = sm.build_model(name)
    basis = model.make_basis(16)
    for M in (sv.BLOCK, 44):
        rows = sb.sample_coeffs(basis, M * k, 7).reshape(M, k, basis.n_modes)
        rows[::5, k // 2:] = np.nan             # paths blown mid-chunk
        got = sb.v_norm(basis, model, rows) ** model.alpha
        vals = [sb.v_norm(basis, model, rows[:, i]) for i in range(k)]
        want = np.stack(vals, axis=1) ** model.alpha if vals else np.empty((M, 0))
        assert got.shape == want.shape == (M, k)
        assert got.tobytes() == want.tobytes()


def test_moment_scaling_fit_then_check():
    # sub-homogeneity in the initial datum: the normalized moment
    # est / (1 + ||x||^p) fitted on the unscaled run bounds the 2x run up
    # to a factor-2 allowance (one amplitude cannot pin the universal
    # constant; unbounded growth in x would blow through any fixed factor)
    p = 2.0
    args, kw = heat_run(M=400, seed=5)
    t1 = dg.moment_report(*args, p=p, alpha=2, **kw)
    C = (t1.rows[0][1] + 3 * t1.rows[0][2]) / 2.0      # / (1 + ||x||^p)
    args, kw = heat_run(M=400, seed=5, x0=2.0 * unit(8))
    t2 = dg.moment_report(*args, p=p, alpha=2, **kw)
    assert t2.rows[0][1] <= 2.0 * C * (1.0 + 2.0 ** p) + 3 * t2.rows[0][2]


def test_equicontinuity_zero_for_constant_trajectory():
    # x0 = 0 with B(0) = 0 stays exactly at zero
    m = sm.PLaplacian(4, 1.0, 0.5)
    tab = dg.equicontinuity_statistic(m, m.make_basis(8), np.zeros(8),
                                      [0.02, 0.04, 0.08], alpha=4, M=3, seed=1,
                                      t_end=0.4, dt=1e-3, save_dt=1e-2,
                                      stepper="explicit-tamed")
    assert all(r[1] == 0.0 for r in tab.rows)


def test_equicontinuity_delta_validation():
    args, kw = heat_run(M=3)
    with pytest.raises(InvalidDeltaError, match="not a multiple of save_dt"):
        dg.equicontinuity_statistic(*args, [0.015], alpha=2, **kw)
    with pytest.raises(InvalidDeltaError, match="t_end"):
        dg.equicontinuity_statistic(*args, [5.0], alpha=2, **kw)   # longer than T
    assert dg.delta_shifts([0.02, 0.2], 0.01, 0.2) == [2, 20]
    with pytest.raises(InvalidDeltaError, match="t_end 0.2"):
        dg.delta_shifts([0.21], 0.01, 0.2)


def test_equicontinuity_rate_and_monotonicity():
    args, kw = heat_run(sigma=0.5, M=400, seed=11)
    deltas = [k * 1e-2 for k in (2, 4, 8, 16, 32)]
    tab = dg.equicontinuity_statistic(*args, deltas, alpha=2, **kw)
    slope, _, r2 = tab.fitted_rate
    assert slope >= 0.35 and r2 >= 0.9
    _, est, se, _ = np.array(tab.rows).T
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
    args, kw = heat_run(M=50, seed=9)
    t1 = dg.moment_report(*args, 2, 2, **kw)
    t2 = dg.moment_report(*args, 2, 2, **kw)
    assert t1.rows == t2.rows


def test_write_table(tmp_path):
    args, kw = heat_run(M=10)
    tab = dg.moment_report(*args, 2, 2, **kw)
    csv = tmp_path / "moments.csv"
    dg.write_table(tab, csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "key,estimate,std_error,M"
    assert lines[1:] == [",".join(r) for r in tab.csv_rows()[1:]]
    assert len(lines) == 3


def test_all_blown_ensemble_raises_with_count():
    # every path blows up: the error counts them and carries the first
    # blow-up time
    m = QuadraticOU(1.0)
    b = m.make_basis(4)
    kw = dict(M=3, seed=2, t_end=1.0, dt=1e-2, save_dt=1e-2)
    first = np.min(sv.solve_ensemble(m, b, 10.0 * unit(4), **kw).blow_t)
    with pytest.raises(NonfiniteStateError, match="all 3 paths blew up") as ei:
        dg.moment_report(m, b, 10.0 * unit(4), p=2, alpha=2, **kw)
    assert ei.value.time == first
    with pytest.raises(NonfiniteStateError, match="all 3 paths blew up"):
        dg.equicontinuity_statistic(m, b, 10.0 * unit(4), [0.02], alpha=2, **kw)
    with pytest.raises(NonfiniteStateError, match="all 3 paths blew up") as ei:
        dg._survivor_rows([0.0], np.ones((1, 3)), 0.05 + 0.01 * np.arange(3))
    assert ei.value.time == 0.05


def test_survivor_with_nonfinite_statistic_leaves_every_row():
    # one survivor near overflow: its statistic is inf in one row, so it
    # counts as blown and the rows are those of the others
    values, blow_t = np.random.default_rng(0).random((2, 40)), np.full(40, np.nan)
    ref, _ = dg._survivor_rows([0.02, 0.04], values[:, 1:], blow_t[1:])
    values[1, 0] = np.inf
    rows, n_blown = dg._survivor_rows([0.02, 0.04], values, blow_t)
    assert n_blown == 1
    assert rows == ref and [r[3] for r in rows] == [39, 39]
    values[0, 1:] = np.inf
    with pytest.raises(NonfiniteStateError, match="all 40 paths"):
        dg._survivor_rows([0.02, 0.04], values, blow_t)


def per_path_shifts(ens, deltas, alpha, save_dt):
    """equicontinuity_statistic's rows by one path at a time, over the
    survivors whose integrals are finite at every delta."""
    with np.errstate(over="ignore"):
        integs = np.array([[np.trapezoid(np.sum((st[k:] - st[:-k]) ** 2, axis=-1)
                                         ** (alpha / 2.0), dx=save_dt)
                            for st in ens.states]
                           for k in dg.delta_shifts(deltas, save_dt, ens.times[-1])])
    keep = np.isnan(ens.blow_t) & np.all(np.isfinite(integs), axis=0)
    return [(d, *dg._mean_se(v[keep])) for d, v in zip(deltas, integs)]


def test_equicontinuity_drops_survivors_with_nonfinite_statistic():
    # no path blows up, but at alpha = 300 the shift integrals of some
    # survivors overflow: they count as blown and leave every row, and the
    # rows are those of the others; at alpha = 1500 every path overflows
    m = sm.HeatOU(sigma=50.0)
    b = m.make_basis(4)
    deltas = [0.02, 0.04]
    kw = dict(M=40, seed=0, t_end=0.1, dt=1e-3, save_dt=1e-2)
    ens = sv.solve_ensemble(m, b, unit(4), **kw)
    assert np.all(np.isnan(ens.blow_t))
    tab = dg.equicontinuity_statistic(m, b, unit(4), deltas, 300.0, **kw)
    n_blown = tab.extra["n_blown"]
    assert 0 < n_blown < 40
    assert tab.rows == per_path_shifts(ens, deltas, 300.0, 1e-2)
    assert [r[3] for r in tab.rows] == [40 - n_blown] * 2
    with pytest.raises(NonfiniteStateError, match="all 40 paths"):
        dg.equicontinuity_statistic(m, b, unit(4), deltas, 1500.0, **kw)


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
    # one 4 MiB noise buffer serves the block and each chunk's save rows
    # are folded into scalars: the peak stays below the chunk plus twice
    # the save grids (holding the chunk through whole-grid reductions, or
    # a fresh noise array per chunk, each exceeded it)
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
                                         M=M, seed=1, t_end=steps * 1e-3, dt=1e-3,
                                         save_dt=1e-3)
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


@pytest.mark.parametrize("experiment", ["moments", "equicontinuity"])
def test_moments_and_equicontinuity_free_each_block(experiment):
    # each block's per-path statistics are all that outlive it, and its
    # run is dropped before the next block runs: three blocks peak as one
    # does, and below one (M, S+1, n) grid of all three.  An untraced
    # first run keeps one-time set-up out of the peaks.
    m = sm.HeatOU(0.5)
    b = m.make_basis(8)
    kw = dict(seed=1, t_end=1.0, dt=1e-3, save_dt=1e-3)
    run = {"moments": lambda M: dg.moment_report(m, b, unit(8), 2.0, 2.0, M, **kw),
           "equicontinuity": lambda M: dg.equicontinuity_statistic(
               m, b, unit(8), [0.002, 0.004], 2.0, M, **kw)}[experiment]
    run(sv.BLOCK)
    peaks = []
    for M in (sv.BLOCK, 3 * sv.BLOCK):
        tracemalloc.start()
        try:
            tab = run(M)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [r[3] for r in tab.rows] == [M] * len(tab.rows)
    assert peaks[1] <= 1.02 * peaks[0]
    assert peaks[1] < 3 * sv.BLOCK * 1001 * 8 * 8


def test_galerkin_convergence_frees_each_block():
    # a block's runs and row values are gone before the next block
    # allocates, so a second block does not raise the peak.  An untraced
    # first run keeps one-time set-up out of the peaks.
    m = sm.PLaplacian(4.0, 1.0, 0.4)
    x0 = 0.5 / (1.0 + np.arange(32)) ** 2
    run = lambda M: dg.galerkin_convergence(m, x0, [16, 32], M=M, seed=3, t_end=0.05,
                                            dt=1e-4, save_dt=1e-3)
    run(256)
    peaks = []
    for M in (256, 512):
        tracemalloc.start()
        try:
            run(M)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0]


BLOCK_DRIVEN = {
    "moments": lambda m, b, x0, th: dg.moment_report(
        m, b, x0, 3.0, m.alpha, M=300, seed=1, t_end=0.02, dt=1e-3, save_dt=5e-3,
        threads=th),
    "converge": lambda m, b, x0, th: dg.galerkin_convergence(
        m, x0, [4, 8, 16], M=300, seed=1, t_end=0.02, dt=1e-3, save_dt=5e-3,
        threads=th),
    "equicontinuity": lambda m, b, x0, th: dg.equicontinuity_statistic(
        m, b, x0, [5e-3, 0.01], 2.0, M=300, seed=1, t_end=0.02, dt=1e-3,
        save_dt=5e-3, threads=th),
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


def full_grid_shift_rows(model, basis, x0, deltas, alpha, save_dt, **kw):
    """equicontinuity_statistic's rows and blown count from solve_ensemble's
    whole (M, S+1, n) grid, by the whole-grid formula."""
    ens = sv.solve_ensemble(model, basis, x0, save_dt=save_dt, **kw)
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in dg.delta_shifts(deltas, save_dt, kw["t_end"]):
            diff = ens.states[:, k:] - ens.states[:, :-k]
            values.append(np.trapezoid(np.sum(diff * diff, axis=-1) ** (alpha / 2.0),
                                       dx=save_dt, axis=1))
    return dg._survivor_rows(deltas, np.array(values), ens.blow_t)


def full_grid_cauchy_rows(model, x0, levels, alpha, M, seed, t_end, dt, save_dt):
    """galerkin_convergence's rows and blown count from every level's whole
    (M, S+1, n) save grid, by the whole-grid formula.  solve_ensemble
    draws each level's own noise, so the common-noise levels run here on
    the same block driver, which joins each level's returned save rows
    into its whole grid."""
    bases = {n: model.make_basis(n) for n in levels}
    m_fine = max(model.noise_modes(b) for b in bases.values())
    steps, save_every = sv.save_grid(t_end, dt, save_dt)

    def start(lo, hi):
        return {n: (sv.start_block(model, b, x0, hi - lo, dt, None, save_every), [])
                for n, b in bases.items()}

    def advance(runs, chunk):
        for n, b in bases.items():
            run, windows = runs[n]
            windows.append(sv._advance_block(model, b, run, chunk))

    def finish(lo, hi, runs):
        grids = {n: np.concatenate(windows, axis=1) for n, (_, windows) in runs.items()}
        errs = []
        for a, bn in zip(levels[:-1], levels[1:]):
            diff = grids[bn].copy()
            diff[:, :, :a] -= grids[a]
            errs.append(np.trapezoid(np.sum(diff * diff, axis=-1) ** (alpha / 2.0),
                                     dx=save_dt, axis=1))
        return errs, np.fmin.reduce([run.blow_t for run, _ in runs.values()])

    values, blow_t = zip(*sv.run_blocks(M, seed, m_fine, steps, dt, start, advance,
                                        finish))
    return dg._survivor_rows(levels[:-1], np.concatenate(values, axis=1),
                             np.concatenate(blow_t))


@pytest.mark.parametrize("small_chunks", [False, True], ids=["chunks", "small-chunks"])
@pytest.mark.parametrize("name", sm.ZOO)
def test_windowed_tables_match_full_grid_reference(monkeypatch, name, small_chunks):
    # M = 300 is a full block and a 44-path tail block.  With small chunks
    # a full block's chunk is one step, so at save_every = 2 its windows
    # hold no save row or one, while the tail block's chunks of five steps
    # hold two or three; every shift but the first crosses chunk
    # boundaries.  The windowed rows equal the whole-grid rows bit for bit,
    # and the moments those of one path at a time.
    model = sm.build_model(name)
    b = model.make_basis(8)
    x0 = 0.5 / (1.0 + np.arange(8)) ** 2
    kw = dict(M=300, seed=6, t_end=0.04, dt=1e-3)
    levels = [4, 8]
    if small_chunks:
        m_fine = max(model.noise_modes(model.make_basis(n)) for n in levels)
        assert model.noise_modes(b) == m_fine
        monkeypatch.setattr(sn, "CHUNK_NORMALS", sv.BLOCK * m_fine)
        assert sn.chunk_steps(sv.BLOCK, m_fine) == 1
        assert sn.chunk_steps(300 - sv.BLOCK, m_fine) == 5
    deltas = [2e-3, 6e-3, 0.014]
    eq = dg.equicontinuity_statistic(model, b, x0, deltas, model.alpha,
                                     save_dt=2e-3, **kw)
    rows, n_blown = full_grid_shift_rows(model, b, x0, deltas, model.alpha, 2e-3, **kw)
    assert eq.rows == rows and eq.extra["n_blown"] == n_blown
    cv = dg.galerkin_convergence(model, x0, levels, alpha=model.alpha, save_dt=2e-3,
                                 **kw)
    rows, n_blown = full_grid_cauchy_rows(model, x0, levels, model.alpha,
                                          save_dt=2e-3, **kw)
    assert cv.rows == rows and cv.extra["n_blown"] == n_blown
    mo = dg.moment_report(model, b, x0, 2.5, model.alpha, save_dt=2e-3, **kw)
    ens = sv.solve_ensemble(model, b, x0, save_dt=2e-3, **kw)
    assert mo.rows == per_path_moments(ens, model, b, 2e-3, 2.5, model.alpha)
    assert mo.extra["n_blown"] == np.count_nonzero(~np.isnan(ens.blow_t))


@pytest.mark.parametrize("experiment", ["converge", "equicontinuity", "moments"])
def test_windowed_peak_does_not_grow_with_t_end(experiment):
    # only a tail of save rows and (M, rows) scalars outlive a chunk, so a
    # run four times as long peaks within 2 % of the short one; whole
    # save grids grew the peak by 15 % (converge), 6 % (equicontinuity)
    # and 118 % (moments, whose V-norm ran over a block's whole grid).
    # Both runs fill whole noise chunks, so the noise buffer is the same,
    # and an untraced first run keeps one-time set-up out of the peaks.
    m = sm.PLaplacian(4.0, 1.0, 0.4)
    x0 = 0.5 / (1.0 + np.arange(32)) ** 2
    run = {"converge": lambda t_end: dg.galerkin_convergence(
               m, x0, [16, 32], M=64, seed=1, t_end=t_end, dt=1e-4, save_dt=5e-3),
           "equicontinuity": lambda t_end: dg.equicontinuity_statistic(
               m, m.make_basis(32), x0, [0.05, 0.1], 2.0, M=64, seed=1,
               t_end=6 * t_end, dt=1e-3, save_dt=0.05),
           "moments": lambda t_end: dg.moment_report(
               m, m.make_basis(32), x0, 2.0, 2.0, M=64, seed=1, t_end=6 * t_end,
               dt=1e-3, save_dt=5e-3)}[experiment]
    run(0.05)
    peaks = []
    for t_end in (0.05, 0.2):
        tracemalloc.start()
        try:
            tab = run(t_end)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [r[3] for r in tab.rows] == [64] * len(tab.rows)
    assert peaks[1] <= 1.02 * peaks[0]


def test_loglog_fit_needs_two_positive_points():
    assert dg.loglog_fit([0.02], [1.0]) is None
    assert dg.loglog_fit([1.0, 2.0, 4.0], [0.0, 0.0, 0.0]) is None
    assert dg.loglog_fit([1.0, 2.0, 4.0], [0.0, 1.0, 0.0]) is None
    slope, intercept, r2 = dg.loglog_fit([1.0, 2.0], [3.0, 12.0])
    assert slope == pytest.approx(2.0) and intercept == pytest.approx(np.log(3.0))
    assert r2 == pytest.approx(1.0)


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
    ens = sv.solve_ensemble(m, b, np.zeros(4), dt=1e-2, save_dt=1e-2, **kw)
    base_blown = np.count_nonzero(~np.isnan(ens.blow_t))
    assert base_blown > 0
    cont = dg.initial_data_continuity(m, b, np.zeros(4), unit(4), [0.1, 0.05], 2.0,
                                      dt=1e-2, save_dt=1e-2, **kw)
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
                                  dt=1e-2, save_dt=1e-2)
    n_blown = tab.extra["n_blown"]
    assert 0 < n_blown < 40
    for _, est, se, M in tab.rows:
        assert M == 40 - n_blown and np.isfinite(est) and np.isfinite(se)
    finite = dg.galerkin_convergence(sm.HeatOU(0.8), np.zeros(4), [4, 8], M=40,
                                     seed=2, t_end=1.0, dt=1e-2, save_dt=1e-2)
    assert finite.extra["n_blown"] == 0 and finite.rows[0][3] == 40


def test_galerkin_convergence_counts_coarse_blowups_after_the_first_chunk(monkeypatch):
    # the helper steps level 4 through a block of 20 chunks and sends each
    # chunk's rows with the level's blow-up times so far; blow-ups past
    # the first chunk must reach the table as when the parent steps every
    # level (the reference, with helpers stubbed as in test_config_cli)
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 40 * 8 * 5)     # 5-step chunks
    m, kw = QuadraticOU(1.0), dict(M=40, seed=2, t_end=1.0, dt=1e-2, save_dt=1e-2)
    sent, run_blocks = [], sv.run_blocks

    def tap(M, seed, m_modes, n_steps, dt, start, advance, *args, **kwargs):
        def spy(state, chunk, stepped):     # the level-4 blow-up times of each chunk
            sent.append(np.array(stepped[0][1]))
            advance(state, chunk, stepped)
        return run_blocks(M, seed, m_modes, n_steps, dt, start, spy, *args, **kwargs)
    monkeypatch.setattr(sv, "run_blocks", tap)
    tab = dg.galerkin_convergence(m, np.zeros(4), [4, 8], **kw)

    monkeypatch.setattr(sv, "run_blocks", run_blocks)
    level4, start_block = [], sv.start_block

    def record(model, basis, *args):
        run = start_block(model, basis, *args)
        if basis.n_modes == 4:
            level4.append(run)
        return run
    monkeypatch.setattr(sv, "start_block", record)
    monkeypatch.setattr(sn, "start_helpers",
                        lambda seed, m, steps, span_lists, multiple=1, job=None:
                        [None] * len(span_lists))
    monkeypatch.setattr(sn, "stop_helpers", lambda helpers: None)
    ref = dg.galerkin_convergence(m, np.zeros(4), [4, 8], **kw)

    assert 0 < tab.extra["n_blown"] < 40
    assert tab.rows == ref.rows and tab.extra == ref.extra
    assert len(sent) == 20 and np.isnan(sent[0]).all()
    assert np.array_equal(sent[-1], level4[0].blow_t, equal_nan=True)


EXPERIMENTS =("moments", "equicontinuity", "converge", "continuity", "uniqueness")


def run_experiment(name, m, x0, **kw):
    """One of the five experiments on an n = 4 basis (levels 4 and 8 for
    converge), 40 paths to t = 1 at dt = 1e-2."""
    b = m.make_basis(4)
    kw = dict(M=40, seed=2, t_end=1.0, **kw)
    if name == "moments":
        return dg.moment_report(m, b, x0, 2.0, 2.0, dt=1e-2, save_dt=1e-2, **kw)
    if name == "equicontinuity":
        return dg.equicontinuity_statistic(m, b, x0, [0.02, 0.04], 2.0, dt=1e-2,
                                           save_dt=1e-2, **kw)
    if name == "converge":
        return dg.galerkin_convergence(m, x0, [4, 8], dt=1e-2, save_dt=1e-2, **kw)
    if name == "continuity":
        return dg.initial_data_continuity(m, b, x0, unit(4), [0.1, 0.05], 2.0,
                                          dt=1e-2, save_dt=1e-2, **kw)
    return dg.uniqueness_probe(m, b, x0, dt_levels=[0.04, 0.02], save_dt=0.04, **kw)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_experiment_counts_blowups_one_way(name):
    # some paths blow up: the rows are taken over the others and count
    # them; when every path blows up there is nothing to estimate from
    tab = run_experiment(name, QuadraticOU(1.0), np.zeros(4))
    n_blown = tab.extra["n_blown"]
    assert 0 < n_blown < 40
    for _, est, se, M in tab.rows:
        assert M == 40 - n_blown and np.isfinite(est) and np.isfinite(se)
    first = tab.extra["first_blowup_t"]
    assert 0.0 < first <= 1.0
    if name in ("moments", "equicontinuity"):
        m = QuadraticOU(1.0)
        ens = sv.solve_ensemble(m, m.make_basis(4), np.zeros(4), M=40, seed=2,
                                t_end=1.0, dt=1e-2, save_dt=1e-2)
        assert first == np.nanmin(ens.blow_t)
    with pytest.raises(NonfiniteStateError, match="all 40 paths blew up") as ei:
        run_experiment(name, QuadraticOU(1.0), 10.0 * unit(4))
    assert ei.value.time is not None
    assert run_experiment(name, sm.HeatOU(0.5), np.zeros(4)).extra["first_blowup_t"] \
        is None


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_experiment_rejects_unknown_stepper(name):
    with pytest.raises(ConfigError, match="unknown stepper 'bogus'"):
        run_experiment(name, sm.HeatOU(0.5), np.zeros(4), stepper="bogus")


@pytest.mark.parametrize("run", [
    lambda m, b: dg.galerkin_convergence(m, unit(4), [4, 8], M=2, seed=0, t_end=0.05,
                                         dt=0.01, save_dt=0.02),
    lambda m, b: dg.initial_data_continuity(m, b, unit(4), unit(4), [0.1], 2.0, M=2,
                                            seed=0, t_end=0.05, dt=0.01, save_dt=0.02),
    lambda m, b: dg.uniqueness_probe(m, b, unit(4), M=2, seed=0, dt_levels=[0.02, 0.01],
                                     t_end=0.06, save_dt=0.04),
], ids=["converge", "continuity", "uniqueness"])
def test_diagnostics_reject_save_grid_short_of_t_end(run):
    # the last save would fall before t_end, and the integrals and sups
    # would stop there
    m = sm.HeatOU(0.5)
    with pytest.raises(ConfigError, match="t_end/save_dt"):
        run(m, m.make_basis(4))


def test_moment_report_counts_overflowing_survivors():
    # no path blows up, but 17 of the 40 sups overflow at p = 300: they
    # count as blown, and the rows are those of the other 23
    m = sm.HeatOU(sigma=50.0)
    b = m.make_basis(4)
    kw = dict(M=40, seed=0, t_end=0.1, dt=1e-3, save_dt=1e-3)
    assert np.all(np.isnan(sv.solve_ensemble(m, b, unit(4), **kw).blow_t))
    tab = dg.moment_report(m, b, unit(4), 300.0, 2.0, **kw)
    assert tab.extra["n_blown"] == 17
    for _, est, se, M in tab.rows:
        assert M == 23 and np.isfinite(est) and np.isfinite(se)


def test_galerkin_convergence_all_blown_raises():
    m = sm.GradientNoiseHeat(nu=30.0)
    with pytest.raises(NonfiniteStateError, match="all 20 paths blew up") as ei:
        dg.galerkin_convergence(m, unit(8), [4, 8], M=20, seed=2, t_end=5.12, dt=1e-2,
                                save_dt=1e-2)
    assert ei.value.time is not None


def test_continuity_and_uniqueness_all_blown_raise():
    m = sm.GradientNoiseHeat(nu=30.0)
    b = m.make_basis(8)
    kw = dict(M=20, seed=2, t_end=5.12)
    with pytest.raises(NonfiniteStateError, match="all 20 paths blew up") as ei:
        dg.initial_data_continuity(m, b, unit(8), unit(8), [0.1], 2.0, dt=1e-2,
                                   save_dt=1e-2, **kw)
    assert ei.value.time is not None
    with pytest.raises(NonfiniteStateError, match="all 20 paths blew up"):
        dg.uniqueness_probe(m, b, unit(8), dt_levels=[0.08, 0.04], save_dt=0.08, **kw)


def per_path_moments(ens, model, basis, save_dt, p, alpha):
    """moment_report's rows by one path at a time, over the survivors."""
    sup_p, vint_p = [], []
    for states, blow_t in zip(ens.states, ens.blow_t):
        if np.isnan(blow_t):
            sup_p.append(np.max(np.linalg.norm(states, axis=-1)) ** p)
            v = sb.v_norm(basis, model, states)
            vint_p.append(np.trapezoid(v ** alpha, dx=save_dt) ** (p / 2.0))
    return [(0.0, *dg._mean_se(sup_p)), (1.0, *dg._mean_se(vint_p))]


@pytest.mark.parametrize("model,n,save_dt", [
    (sm.HeatOU(0.5), 4, 0.2), (sm.HeatOU(0.5), 16, 0.02),
    (sm.PLaplacian(4.0, 1.0, 0.5), 16, 1e-3), (sm.PLaplacian(3.0, 1.0, 0.5), 32, 0.02),
    (QuadraticOU(4.5), 4, 0.02),
])
def test_moment_report_matches_per_path_reference(model, n, save_dt):
    # the windowed reductions give each path's bits as a one-path array
    # does, with blown paths left out (some of the quadratic-ou paths blow
    # up)
    b = model.make_basis(n)
    x0 = 0.5 / (1.0 + np.arange(n)) ** 2
    kw = dict(M=300, seed=5, t_end=0.2, dt=1e-3, save_dt=save_dt)
    ens = sv.solve_ensemble(model, b, x0, **kw)
    for p in (2.0, 3.0):
        tab = dg.moment_report(model, b, x0, p, model.alpha, **kw)
        assert tab.rows == per_path_moments(ens, model, b, save_dt, p, model.alpha)
    n_blown = np.count_nonzero(~np.isnan(ens.blow_t))
    assert tab.extra["n_blown"] == n_blown and tab.rows[0][3] == 300 - n_blown
    assert (n_blown > 0) == isinstance(model, QuadraticOU)
