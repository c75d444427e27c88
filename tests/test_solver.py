import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from spde import basis as sb
from spde import diagnostics as dg
from spde import models as sm
from spde import noise as sn
from spde import solver as sv
from spde.errors import ConfigError, NonfiniteStateError, UnsupportedModelNormError


def unit(n, k=0):
    e = np.zeros(n)
    e[k] = 1.0
    return e


class ExplodingModel(sm.Model):
    """Quadratic anti-dissipative drift: doubles the exponent each step."""

    name = "exploding"
    basis_kind = "dirichlet-interval"
    v_norm_kind = "spectral"

    def __init__(self):
        super().__init__(sm.HypothesisSpec())

    def linear_diagonal(self, basis):
        return -basis.eigenvalues

    def apply_A(self, basis, t, coeffs):
        c = np.asarray(coeffs, float)
        return c * np.abs(c) * 1e3

    def apply_B_increment(self, basis, t, coeffs, dw):
        return np.zeros_like(np.asarray(coeffs, float))

    def b_hs_norm_sq(self, basis, t, coeffs):
        c = np.asarray(coeffs, float)
        return np.zeros(c.shape[:-1]) if c.ndim > 1 else 0.0

    b_hs_diff_sq = None


def one_step(model, basis, c, dt, stepper):
    """One `stepper` step of the single path c under zero noise, through
    the block stepper; returns the one-row BlockRun."""
    run = sv.start_block(model, basis, c, 1, 1, dt, stepper, 1)
    sv._advance_block(model, basis, run, np.zeros((1, 1, basis.n_modes)))
    return run


def test_tamed_step_zero_drift_zero_noise():
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(4)
    run = one_step(m, b, np.zeros(4), 0.01, "explicit-tamed")
    assert np.all(run.c == 0) and run.step == 1


def test_tamed_step_heat_recursion():
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(4)
    dt, c1 = 0.01, 0.8
    out = one_step(m, b, np.array([c1, 0, 0, 0]), dt, "explicit-tamed").c[0]
    expect = c1 * (1.0 - dt / (1.0 + dt * abs(c1) * b.eigenvalues[0]))
    assert out[0] == pytest.approx(expect, rel=1e-14)


def test_taming_bound_any_drift_size():
    # dt ||a|| / (1 + dt ||a||) < 1; amplitude kept at 1e6 so the
    # out - c subtraction stays well below the bound's slack
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(8)
    huge = 1e6 * sb.sample_coeffs(b, 4, seed=1)
    for c in huge:
        out = one_step(m, b, c, 0.1, "explicit-tamed").c[0]
        assert np.linalg.norm(out - c) <= 1.0 + 1e-7


def test_semi_implicit_heat_exact():
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(4)
    dt = 0.05
    out = one_step(m, b, unit(4), dt, "semi-implicit").c[0]
    assert out[0] == pytest.approx(1.0 / (1.0 + dt), rel=1e-14)


def test_semi_implicit_cahn_hilliard_mode():
    m = sm.CahnHilliard(sigma=0.0, phi_cubic=0.0, phi_linear=0.0)
    b = m.make_basis(6)
    dt = 0.05
    out = one_step(m, b, unit(6, 1), dt, "semi-implicit").c[0]
    assert out[1] == pytest.approx(1.0 / (1.0 + dt), rel=1e-14)  # lambda_2 = 1


def test_semi_implicit_needs_linear_part():
    m = sm.PLaplacian(4, 1.0, 0.0)
    b = m.make_basis(4)
    with pytest.raises(UnsupportedModelNormError):
        sv.start_block(m, b, unit(4), 1, 1, 0.01, "semi-implicit", 1)


def test_stepper_consistency_order():
    # one-step difference between the two schemes is O(dt^2): shrinks ~4x
    # under dt halving once dt*lambda is small
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(4)
    c = sb.sample_coeffs(b, 1, seed=4)[0] * 0.1
    diffs = []
    for dt in (2e-3, 1e-3, 5e-4):
        e = one_step(m, b, c, dt, "explicit-tamed").c[0]
        i = one_step(m, b, c, dt, "semi-implicit").c[0]
        diffs.append(np.linalg.norm(e - i))
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.1)
    assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.1)


def test_heat_decay_oracle():
    # deterministic heat: |h_norm(1) - e^{-1}| <= 1e-3 at dt = 1e-3
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(8)
    for stepper in sv.STEPPERS:
        path = sn.sample_path(8, 1000, 1e-3, seed=0)
        traj = sv.solve_path(m, b, unit(8), path, stepper, 1.0, 0.01)
        assert abs(traj.h_norms()[-1] - np.exp(-1.0)) <= 1e-3


def test_deterministic_convergence_order_both_steppers():
    m = sm.HeatOU(sigma=0.0)
    b = m.make_basis(4)
    for stepper in sv.STEPPERS:
        errs, dts = [], [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            path = sn.sample_path(4, int(round(1.0 / dt)), dt, seed=0)
            traj = sv.solve_path(m, b, unit(4), path, stepper, 1.0, 0.2)
            errs.append(abs(traj.h_norms()[-1] - np.exp(-1.0)))
        slope, _, _ = dg.loglog_fit(dts, errs)
        assert abs(slope - 1.0) <= 0.1


def test_zero_initial_zero_noise_fixed_point():
    # B(0) = 0 for the multiplicative zoo: zero stays exactly zero
    m = sm.PLaplacian(4, 1.0, 0.5)
    b = m.make_basis(8)
    path = sn.sample_path(8, 200, 1e-3, seed=9)
    traj = sv.solve_path(m, b, np.zeros(8), path, "explicit-tamed", 0.2, 0.02)
    assert np.all(traj.states == 0.0)


def test_solve_path_validations():
    m = sm.HeatOU(0.5)
    b = m.make_basis(4)
    path = sn.sample_path(4, 100, 1e-3, seed=1)
    with pytest.raises(ConfigError):
        sv.solve_path(m, b, unit(4), path, "semi-implicit", 1.0, 0.0033)
    with pytest.raises(ConfigError):
        sv.solve_path(m, b, unit(4), path, "semi-implicit", 1.0, 0.01)  # too short
    with pytest.raises(ConfigError):
        sv.solve_path(m, b, unit(4), sn.truncate(path, 2), "semi-implicit", 0.1, 0.01)
    with pytest.raises(ConfigError):
        sv.solve_path(m, b, unit(4), path, "no-such-stepper", 0.1, 0.01)


def test_initial_projection_pads_and_truncates():
    b = sm.HeatOU(0.0).make_basis(4)
    assert np.array_equal(sv.project_initial(b, [1, 2]), [1, 2, 0, 0])
    assert np.array_equal(sv.project_initial(b, np.arange(6.0)), [0, 1, 2, 3])


def test_ensemble_m1_equals_solve_path():
    m = sm.HeatOU(0.5)
    b = m.make_basis(4)
    ens = sv.solve_ensemble(m, b, unit(4), M=1, seed=3, t_end=0.5, dt=1e-3,
                            save_dt=0.05)
    path = sn.sample_path(4, 500, 1e-3, seed=3, path_id=0)
    traj = sv.solve_path(m, b, unit(4), path, "semi-implicit", 0.5, 0.05)
    assert np.array_equal(ens.trajectories[0].states, traj.states)


def test_ensemble_reproducible_and_thread_invariant():
    m = sm.ConvectionDiffusion(0.5)
    b = m.make_basis(8)
    kw = dict(t_end=0.2, dt=1e-3, save_dt=0.02)
    a = sv.solve_ensemble(m, b, unit(8), M=600, seed=5, **kw)
    bb = sv.solve_ensemble(m, b, unit(8), M=600, seed=5, **kw)
    cc = sv.solve_ensemble(m, b, unit(8), M=600, seed=5, threads=4, **kw)
    assert np.array_equal(a.stacked(), bb.stacked())
    assert np.array_equal(a.stacked(), cc.stacked())


def test_ensemble_mean_matches_ou_mean():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(4)
    M, t_end = 4000, 1.0
    ens = sv.solve_ensemble(m, b, unit(4), M=M, seed=11, t_end=t_end,
                            dt=1e-3, save_dt=1.0)
    term = np.stack([t.states[-1] for t in ens.trajectories])
    mean1 = term[:, 0].mean()
    se = term[:, 0].std(ddof=1) / np.sqrt(M)
    assert abs(mean1 - np.exp(-t_end)) <= 3 * se + 1e-3  # 1e-3 scheme bias


def test_ou_stationary_variance():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(4)
    M = 4000
    ens = sv.solve_ensemble(m, b, np.zeros(4), M=M, seed=2, t_end=6.0,
                            dt=1e-3, save_dt=6.0)
    term = np.stack([t.states[-1] for t in ens.trajectories])
    lam = b.eigenvalues
    sig_k = 0.5 / (1.0 + lam)
    exact = sig_k ** 2 / (2.0 * lam)
    var = term.var(axis=0, ddof=1)
    se = exact * np.sqrt(2.0 / M)         # chi-square SE of a variance
    assert np.all(np.abs(var - exact) <= 3 * se + 0.02 * exact)


def test_blowup_raises_with_path_id():
    # semi-implicit leaves the quadratic drift explicit, so it overflows;
    # the tamed scheme caps drift increments at 1 and must NOT blow up
    m = ExplodingModel()
    b = m.make_basis(4)
    path = sn.sample_path(4, 1000, 0.05, seed=0, path_id=7)
    with pytest.raises(NonfiniteStateError) as ei:
        sv.solve_path(m, b, 10.0 * unit(4), path, "semi-implicit", 50.0, 0.05)
    assert ei.value.time is not None

    tamed = sv.solve_path(m, b, 10.0 * unit(4), path, "explicit-tamed", 50.0, 0.05)
    assert np.all(np.isfinite(tamed.states))

    ens = sv.solve_ensemble(m, b, 10.0 * unit(4), M=3, seed=0, t_end=50.0,
                            dt=0.05, save_dt=0.05, stepper="semi-implicit",
                            on_blowup="discard")
    assert ens.blown_count() == 3
    assert all(t.blew_up_at is not None for t in ens.trajectories)
    with pytest.raises(NonfiniteStateError) as ei:
        sv.solve_ensemble(m, b, 10.0 * unit(4), M=3, seed=0, t_end=50.0,
                          dt=0.05, save_dt=0.05, stepper="semi-implicit")
    assert ei.value.path_id == 0


def test_energy_identity_residual_rate():
    # discrete Ito balance: || Y_T ||^2 - || Y_0 ||^2 accumulates
    # 2<A,Y>dt + ||P B Q||^2 dt + 2(Y, B dW) up to O(dt^(1/2))
    m = sm.HeatOU(sigma=0.6)
    b = m.make_basis(6)
    n_paths, t_end = 48, 0.5
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    resid = []
    for dt in dts:
        steps = int(round(t_end / dt))
        acc = []
        for pid in range(n_paths):
            inc = sn.sample_path(6, steps, dt, seed=77, path_id=pid).increments
            c = unit(6) * 1.0
            total = 0.0
            for j in range(steps):
                a = m.apply_A(b, 0.0, c)
                binc = m.apply_B_increment(b, 0.0, c, inc[j])
                total += (2.0 * np.dot(a, c) + m.b_hs_norm_sq(b, 0.0, c)) * dt \
                    + 2.0 * np.dot(c, binc)
                c = (c + dt * (a + b.eigenvalues * c) + binc) / (1.0 + dt * b.eigenvalues)
            acc.append(abs(np.dot(c, c) - 1.0 - total))
        resid.append(np.mean(acc))
    slope, _, _ = dg.loglog_fit(dts, resid)
    assert slope >= 0.4


def test_trajectory_csv_rows():
    m = sm.HeatOU(0.0)
    b = m.make_basis(3)
    path = sn.sample_path(3, 10, 0.01, seed=1)
    traj = sv.solve_path(m, b, unit(3), path, "semi-implicit", 0.1, 0.05)
    rows = sv.trajectory_csv_rows(traj, m, b)
    assert rows[0] == ["t", "c_1", "c_2", "c_3", "h_norm", "v_norm"]
    assert len(rows) == 4      # header + 3 save times
    assert float(rows[1][1]) == 1.0


def chunked_run(model, basis, x0, inc, dt, stepper, save_every, lengths):
    """Advance one block through `inc` (steps, M, m) cut into chunks of the
    given lengths (cycled); returns the finished BlockRun."""
    steps, M, _ = inc.shape
    run = sv.start_block(model, basis, x0, M, steps, dt, stepper, save_every)
    lo, i = 0, 0
    while lo < steps:
        k = lengths[i % len(lengths)]
        sv._advance_block(model, basis, run, inc[lo:lo + k])
        lo, i = lo + k, i + 1
    return run


def windowed_rows(model, basis, x0, inc, dt, stepper, save_every, lengths):
    """The save rows a windowed run pops chunk by chunk, concatenated."""
    steps, M, _ = inc.shape
    run = sv.start_block(model, basis, x0, M, steps, dt, stepper, save_every,
                         window=True)
    rows, lo, i = [], 0, 0
    while lo < steps:
        k = lengths[i % len(lengths)]
        sv._advance_block(model, basis, run, inc[lo:lo + k])
        rows.append(run.pop_saves())
        lo, i = lo + k, i + 1
    assert run.saved is None
    return np.concatenate(rows, axis=1)


def supported_steppers(name):
    m = sm.build_model(name)
    implicit = m.linear_diagonal(m.make_basis(4)) is not None
    return [st for st in sv.STEPPERS if implicit or st == "explicit-tamed"]


ZOO_STEPPERS = [(name, st) for name in sm.ZOO for st in supported_steppers(name)]


@pytest.mark.parametrize("name,stepper", ZOO_STEPPERS)
def test_chunked_advance_equals_one_chunk(name, stepper):
    m = sm.build_model(name)
    b = m.make_basis(8)
    steps, M, dt = 60, 7, 1e-3
    gens = [sn.path_generator(3, pid) for pid in range(M)]
    inc = sn.sample_block(gens, steps, m.noise_modes(b), dt)
    x0 = 0.5 / (1.0 + np.arange(8)) ** 2
    whole = chunked_run(m, b, x0, inc, dt, stepper, 4, [steps])
    for lengths in ([1], [7], [13, 2, 5]):
        part = chunked_run(m, b, x0, inc, dt, stepper, 4, lengths)
        assert part.step == steps
        assert np.array_equal(part.saved, whole.saved)
        assert np.array_equal(part.c, whole.c)
        assert np.array_equal(part.blow_t, whole.blow_t, equal_nan=True)
        # a windowed run pops the same rows chunk by chunk, none from a
        # chunk of 1 step between saves
        rows = windowed_rows(m, b, x0, inc, dt, stepper, 4, lengths)
        assert np.array_equal(rows, whole.saved)


def test_chunked_advance_partial_blowup():
    # gradient noise at nu = 30 with dt = 1e-2 overflows some paths and
    # not others; blow-up times and the NaN tails must not see the chunking
    m = sm.GradientNoiseHeat(nu=30.0)
    b = m.make_basis(8)
    steps, M, dt = 350, 40, 1e-2
    inc = sn.sample_block([sn.path_generator(2, pid) for pid in range(M)],
                          steps, 1, dt)
    whole = chunked_run(m, b, unit(8), inc, dt, "semi-implicit", 1, [steps])
    blown = np.isfinite(whole.blow_t)
    assert 0 < blown.sum() < M
    for lengths in ([1], [64], [33, 90]):
        part = chunked_run(m, b, unit(8), inc, dt, "semi-implicit", 1, lengths)
        assert np.array_equal(part.blow_t, whole.blow_t, equal_nan=True)
        assert np.array_equal(part.saved, whole.saved, equal_nan=True)
        assert np.array_equal(part.alive, ~blown)
    rows = windowed_rows(m, b, unit(8), inc, dt, "semi-implicit", 1, [33, 90])
    assert np.array_equal(rows, whole.saved, equal_nan=True)
    # a dead row is NaN on the save grid from its blow-up time on
    i = int(np.flatnonzero(blown)[0])
    k = int(round(whole.blow_t[i] / dt))
    assert np.all(np.isnan(whole.saved[i, k:]))
    assert np.all(np.isfinite(whole.saved[i, :k]))


def test_finiteness_guard_adds_no_warning():
    m = sm.PLaplacian(4, 1.0, 0.4)
    b = m.make_basis(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = sv.solve_ensemble(m, b, unit(8), M=20, seed=1, t_end=0.05,
                                dt=1e-3, save_dt=0.01)
    assert ens.blown_count() == 0


def test_ensemble_streams_in_bounded_chunks(monkeypatch):
    # every chunk a block draws stays within the normal budget, and the
    # chunking leaves the ensemble's bits alone
    m = sm.ConvectionDiffusion(0.5)
    b = m.make_basis(8)
    kw = dict(t_end=0.1, dt=1e-3, save_dt=0.01)
    ref = sv.solve_ensemble(m, b, unit(8), M=300, seed=5, **kw).stacked()
    shapes = []
    draw = sn.sample_block

    def spy(*args):
        out = draw(*args)
        shapes.append(out.shape)
        return out
    monkeypatch.setattr(sn, "sample_block", spy)
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 8 * 256 * 30)
    got = sv.solve_ensemble(m, b, unit(8), M=300, seed=5, **kw).stacked()
    assert np.array_equal(got, ref)
    assert sorted(set(shapes)) == [(10, 256, 8), (30, 256, 8), (100, 44, 8)]


def test_ensemble_block_holds_one_noise_chunk():
    # the chunks of a block share one buffer: a fresh array per chunk held
    # two chunks at once while the next was drawn
    m = sm.HeatOU(0.5)
    b = m.make_basis(4)
    tracemalloc.start()
    try:
        sv.solve_ensemble(m, b, unit(4), M=256, seed=3, t_end=2.0, dt=1e-3,
                          save_dt=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sn.CHUNK_NORMALS * 8


def test_run_blocks_order_and_chunk_lifetime(monkeypatch):
    # finish results come back in block order at any thread count, and a
    # block's noise buffer is dead by the time its finish runs
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)     # 5-step chunks
    M, steps = 600, 23

    def start(lo, hi):
        return {"steps": 0}

    def advance(state, chunk):
        state["steps"] += len(chunk)
        state["buffer"] = weakref.ref(chunk.base)

    def finish(lo, hi, state):
        return lo, hi, state["steps"], state["buffer"]() is None

    for threads in (1, 2):
        got = sv.run_blocks(M, 0, 2, steps, 1e-3, start, advance, finish,
                            threads=threads)
        assert got == [(0, 256, steps, True), (256, 512, steps, True),
                       (512, 600, steps, True)]
    with pytest.raises(ConfigError, match="M must be >= 1"):
        sv.run_blocks(0, 0, 2, steps, 1e-3, start, advance, finish)


@pytest.mark.parametrize("num,den", [(1.0, 0.0), (-2.0, 1.0), (math.nan, 1.0),
                                     (math.inf, 1.0), (1.0, 1e-320), (3.0, 2.0)])
def test_ratio_as_int_rejects(num, den):
    with pytest.raises(ConfigError, match="t_end/dt"):
        sv.ratio_as_int(num, den, "t_end/dt")


def reference_block(model, basis, x0, inc, dt, stepper):
    """The step before block preparation, op for op: the unprepared model's
    apply_A / apply_B_increment, and L and 1 - dt*L as (n,) vectors
    broadcast against the block at every step.  Returns (M, steps+1, n)."""
    c = np.repeat(x0[None, :], inc.shape[1], axis=0)
    L = model.linear_diagonal(basis) if stepper == "semi-implicit" else None
    states = [c]
    for j, dw in enumerate(inc):
        t = j * dt
        a = model.apply_A(basis, t, c)
        binc = model.apply_B_increment(basis, t, c, dw)
        if L is not None:
            c = (c + dt * (a - L * c) + binc) / (1.0 - dt * L)
        else:
            tame = 1.0 + dt * np.linalg.norm(a, axis=-1, keepdims=True)
            c = c + dt * a / tame + binc
        states.append(c)
    return np.stack(states, axis=1)


@pytest.mark.parametrize("rows", [1, 37, 256])
@pytest.mark.parametrize("name,stepper", ZOO_STEPPERS)
def test_prepared_step_matches_unprepared_reference(name, stepper, rows):
    m = sm.build_model(name)
    b = m.make_basis(8)
    steps, dt = 24, 1e-3
    inc = sn.sample_block([sn.path_generator(4, pid) for pid in range(rows)],
                          steps, m.noise_modes(b), dt)
    x0 = 0.5 / (1.0 + np.arange(8)) ** 2
    ref = reference_block(m, b, x0, inc, dt, stepper)
    run = chunked_run(m, b, x0, inc, dt, stepper, 1, [5, 11])
    assert np.all(np.isfinite(ref))
    assert np.array_equal(run.saved, ref)
    assert type(run.model) is type(m) and m._prepared is None
