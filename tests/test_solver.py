import contextlib
import math
import os
import signal
import time
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
from spde.errors import (ConfigError, NoiseHelperError, NonfiniteStateError,
                         UnsupportedModelNormError)


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
    run = sv.start_block(model, basis, c, 1, dt, stepper, 1)
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
        sv.start_block(m, b, unit(4), 1, 0.01, "semi-implicit", 1)


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
        sv.solve_path(m, b, unit(4), sn.sample_path(2, 100, 1e-3, seed=1),
                      "semi-implicit", 0.1, 0.01)
    with pytest.raises(ConfigError):
        sv.solve_path(m, b, unit(4), path, "no-such-stepper", 0.1, 0.01)


def test_initial_projection_pads_and_truncates():
    m = sm.HeatOU(0.0)
    b = m.make_basis(4)
    assert np.array_equal(sv.project_initial(b, [1, 2]), [1, 2, 0, 0])
    assert np.array_equal(sv.project_initial(b, np.arange(6.0)), [0, 1, 2, 3])
    # start_block applies P_n itself, to every row of the block
    for x0, c in (([1, 2], [1, 2, 0, 0]), (np.arange(6.0), [0, 1, 2, 3])):
        run = sv.start_block(m, b, x0, 3, 1e-3, None, 1)
        assert np.array_equal(run.c, [c] * 3)


def test_ensemble_m1_equals_solve_path():
    m = sm.HeatOU(0.5)
    b = m.make_basis(4)
    ens = sv.solve_ensemble(m, b, unit(4), M=1, seed=3, t_end=0.5, dt=1e-3,
                            save_dt=0.05)
    path = sn.sample_path(4, 500, 1e-3, seed=3, path_id=0)
    traj = sv.solve_path(m, b, unit(4), path, "semi-implicit", 0.5, 0.05)
    assert np.array_equal(ens.states[0], traj.states)


def test_ensemble_reproducible_and_thread_invariant():
    m = sm.ConvectionDiffusion(0.5)
    b = m.make_basis(8)
    kw = dict(t_end=0.2, dt=1e-3, save_dt=0.02)
    a = sv.solve_ensemble(m, b, unit(8), M=600, seed=5, **kw)
    bb = sv.solve_ensemble(m, b, unit(8), M=600, seed=5, **kw)
    cc = sv.solve_ensemble(m, b, unit(8), M=600, seed=5, threads=4, **kw)
    assert np.array_equal(a.states, bb.states)
    assert np.array_equal(a.states, cc.states)


def test_ensemble_mean_matches_ou_mean():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(4)
    M, t_end = 4000, 1.0
    ens = sv.solve_ensemble(m, b, unit(4), M=M, seed=11, t_end=t_end,
                            dt=1e-3, save_dt=1.0)
    term = ens.states[:, -1]
    mean1 = term[:, 0].mean()
    se = term[:, 0].std(ddof=1) / np.sqrt(M)
    assert abs(mean1 - np.exp(-t_end)) <= 3 * se + 1e-3  # 1e-3 scheme bias


def test_ou_stationary_variance():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(4)
    M = 4000
    ens = sv.solve_ensemble(m, b, np.zeros(4), M=M, seed=2, t_end=6.0,
                            dt=1e-3, save_dt=6.0)
    term = ens.states[:, -1]
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
    assert ei.value.time is not None and ei.value.path_id == 7

    tamed = sv.solve_path(m, b, 10.0 * unit(4), path, "explicit-tamed", 50.0, 0.05)
    assert np.all(np.isfinite(tamed.states))

    ens = sv.solve_ensemble(m, b, 10.0 * unit(4), M=3, seed=0, t_end=50.0,
                            dt=0.05, save_dt=0.05, stepper="semi-implicit")
    assert np.count_nonzero(~np.isnan(ens.blow_t)) == 3


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
    given lengths (cycled); returns the finished BlockRun and the save
    rows returned chunk by chunk, joined into the (M, S+1, n) grid."""
    steps, M, _ = inc.shape
    run = sv.start_block(model, basis, x0, M, dt, stepper, save_every)
    rows, lo, i = [], 0, 0
    while lo < steps:
        k = lengths[i % len(lengths)]
        rows.append(sv._advance_block(model, basis, run, inc[lo:lo + k]))
        lo, i = lo + k, i + 1
    return run, np.concatenate(rows, axis=1)


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
    whole, whole_rows = chunked_run(m, b, x0, inc, dt, stepper, 4, [steps])
    for lengths in ([1], [7], [13, 2, 5]):
        # the run returns the same rows chunk by chunk, none from a chunk
        # of 1 step between saves
        part, rows = chunked_run(m, b, x0, inc, dt, stepper, 4, lengths)
        assert part.step == steps
        assert np.array_equal(rows, whole_rows)
        assert np.array_equal(part.c, whole.c)
        assert np.array_equal(part.blow_t, whole.blow_t, equal_nan=True)


def test_chunked_advance_partial_blowup():
    # gradient noise at nu = 30 with dt = 1e-2 overflows some paths and
    # not others; blow-up times and the NaN tails must not see the chunking
    m = sm.GradientNoiseHeat(nu=30.0)
    b = m.make_basis(8)
    steps, M, dt = 350, 40, 1e-2
    inc = sn.sample_block([sn.path_generator(2, pid) for pid in range(M)],
                          steps, 1, dt)
    whole, saved = chunked_run(m, b, unit(8), inc, dt, "semi-implicit", 1, [steps])
    blown = np.isfinite(whole.blow_t)
    assert 0 < blown.sum() < M
    for lengths in ([1], [64], [33, 90]):
        part, rows = chunked_run(m, b, unit(8), inc, dt, "semi-implicit", 1, lengths)
        assert np.array_equal(part.blow_t, whole.blow_t, equal_nan=True)
        assert np.array_equal(rows, saved, equal_nan=True)
    # a dead row is NaN on the save grid from its blow-up time on
    i = int(np.flatnonzero(blown)[0])
    k = int(round(whole.blow_t[i] / dt))
    assert np.all(np.isnan(saved[i, k:]))
    assert np.all(np.isfinite(saved[i, :k]))


def test_finiteness_guard_adds_no_warning():
    m = sm.PLaplacian(4, 1.0, 0.4)
    b = m.make_basis(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = sv.solve_ensemble(m, b, unit(8), M=20, seed=1, t_end=0.05,
                                dt=1e-3, save_dt=0.01)
    assert np.all(np.isnan(ens.blow_t))


def test_ensemble_streams_in_bounded_chunks(monkeypatch):
    # every chunk a block draws stays within the normal budget, and the
    # chunking leaves the ensemble's bits alone
    m = sm.ConvectionDiffusion(0.5)
    b = m.make_basis(8)
    kw = dict(t_end=0.1, dt=1e-3, save_dt=0.01)
    ref = sv.solve_ensemble(m, b, unit(8), M=300, seed=5, **kw).states
    shapes = []
    draw = sn.sample_block

    def spy(*args):
        out = draw(*args)
        shapes.append(out.shape)
        return out
    monkeypatch.setattr(sn, "sample_block", spy)
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 8 * 256 * 30)
    got = sv.solve_ensemble(m, b, unit(8), M=300, seed=5, **kw).states
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


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang into a failure: SIGALRM raises after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_helpers(monkeypatch):
    """The NoiseHelpers run_blocks forks, as a list filled when it forks."""
    forked, start = [], sn.start_helpers

    def spy(*args, **kwargs):
        helpers = start(*args, **kwargs)
        forked.extend(helpers)
        return helpers
    monkeypatch.setattr(sn, "start_helpers", spy)
    return forked


def run_counted(threads, advance, M=600, steps=400):
    """run_blocks over 2-mode noise in 5-step chunks (with the budget set
    by the caller); each block's state counts its chunks."""
    return sv.run_blocks(M, 0, 2, steps, 1e-3, lambda lo, hi: {"lo": lo, "chunks": 0},
                         advance, lambda lo, hi, state: (lo, state["chunks"]),
                         threads=threads)


def count_chunk(state, chunk):
    state["chunks"] += 1


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_blocks_forks_one_helper_per_worker_and_reaps_it(monkeypatch, threads):
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)     # 5-step chunks
    forked = record_helpers(monkeypatch)
    with deadline(60):
        got = run_counted(threads, count_chunk)
    # 400 steps in chunks of 5 steps, and of 14 for the 88-path tail block
    assert got == [(0, 80), (256, 80), (512, 29)]
    assert len(forked) == min(threads, 3)
    assert all(h.pid is None for h in forked)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_reaps_helpers_when_a_callback_raises(monkeypatch, threads):
    # block 1 stops on its second chunk while its helper is far from done
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)

    def advance(state, chunk):
        count_chunk(state, chunk)
        if state["lo"] == 256 and state["chunks"] == 2:
            raise ConfigError("stop in block 1")
    with deadline(60), pytest.raises(ConfigError, match="stop in block 1"):
        run_counted(threads, advance)
    assert_no_child_left()


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("cause", ["callback", "interrupt"])
def test_run_blocks_stops_every_worker_at_the_first_error(monkeypatch, cause, threads):
    # worker 0 raises, or sends the calling thread a signal, in block 0's
    # second chunk; each block has 700 to 2,000 chunks of 2 ms, and every
    # worker must stop after a small part of them, with the cause raised
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)     # 5-step chunks
    chunks = {}

    def advance(state, chunk):
        count_chunk(state, chunk)
        chunks[state["lo"]] = state["chunks"]
        if state["lo"] == 0 and state["chunks"] == 2:
            if cause == "callback":
                raise ConfigError("stop in block 0")
            os.kill(os.getpid(), signal.SIGUSR1)
        time.sleep(0.002)

    def interrupt(signum, frame):
        raise Interrupted
    old = signal.signal(signal.SIGUSR1, interrupt)
    try:
        with deadline(60), pytest.raises(ConfigError if cause == "callback"
                                         else Interrupted):
            run_counted(threads, advance, steps=10 ** 4)
    finally:
        signal.signal(signal.SIGUSR1, old)
    assert max(chunks.values()) < 100
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_raises_when_a_helper_is_killed(monkeypatch, threads):
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)
    forked = record_helpers(monkeypatch)

    def advance(state, chunk):
        count_chunk(state, chunk)
        if state["lo"] == 0 and state["chunks"] == 1:
            os.kill(forked[0].pid, signal.SIGKILL)
    with deadline(60), pytest.raises(NoiseHelperError, match="exit status -9"):
        run_counted(threads, advance)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_raises_when_a_helper_fails(monkeypatch, threads):
    # the generators are keyed in the helper only: the parent draws nothing
    def broken(seed, path_id):
        raise ValueError(f"no generator for path {path_id}")
    monkeypatch.setattr(sn, "path_generator", broken)
    with deadline(60), pytest.raises(NoiseHelperError,
                                     match="exit status 1.*no generator for path"):
        run_counted(threads, count_chunk)
    assert_no_child_left()


def test_helper_error_cut_inside_a_character_still_raises(monkeypatch):
    # the helper cuts its message at byte 4000, here inside an "é"
    def broken(seed, path_id):
        raise ValueError("x" + "é" * 3000)
    monkeypatch.setattr(sn, "path_generator", broken)
    with deadline(60), pytest.raises(NoiseHelperError,
                                     match=r"exit status 1\): ValueError\('xéé"):
        run_counted(1, count_chunk)
    assert_no_child_left()


def test_helper_exits_when_its_ends_close_while_a_sibling_runs():
    # helper 1 is forked holding copies of the parent's ends of helper 0;
    # unless it drops them, helper 0 never sees the parent stop.  Both
    # have far more chunks to draw than their two slots hold.
    helpers = sn.start_helpers(0, 2, 10 ** 6, [[(0, 256)], [(256, 512)]])
    try:
        with deadline(30):
            sn.stop_helpers(helpers[:1])
        assert helpers[0].pid is None and helpers[1].pid is not None
    finally:
        sn.stop_helpers(helpers[1:])
    assert_no_child_left()


OU = sm.build_model("heat-ou")
OU_BASIS = OU.make_basis(2)


def ou_run(lo, hi):
    """The runs of block [lo, hi) a helper steps: heat-ou on 2 modes from
    e1, saving every 5 steps of 1e-3."""
    return [sv.start_block(OU, OU_BASIS, unit(2), hi - lo, 1e-3, None, 5)]


def run_partnered(threads, advance, M=600, steps=400):
    """run_counted with ou_run's runs, which the helpers step: each
    block's state counts its chunks and the helper runs' save rows, and
    finish adds the shape of their latest blow_t."""
    return sv.run_blocks(M, 0, 2, steps, 1e-3,
                         lambda lo, hi: {"lo": lo, "chunks": 0, "rows": 0},
                         advance,
                         lambda lo, hi, state: (lo, state["chunks"], state["rows"],
                                                state["blow_t"].shape),
                         threads=threads, helper_runs=ou_run)


def count_partner_chunk(state, chunk, stepped):
    count_chunk(state, chunk)
    (rows, state["blow_t"]), = stepped
    state["rows"] += rows.shape[1]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_forks_one_partner_per_worker_and_reaps_it(monkeypatch, threads):
    # each chunk's rows equal those of the same run stepped here, on the
    # chunk the parent got from the helper
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)     # 5-step chunks
    forked = record_helpers(monkeypatch)

    def advance(state, chunk, stepped):
        if "run" not in state:
            state["run"] = ou_run(state["lo"], state["lo"] + chunk.shape[1])[0]
        here = state["run"].advance(chunk)
        assert len(stepped) == 1 and stepped[0][0].shape == here.shape
        assert np.array_equal(stepped[0][0], here)
        assert np.array_equal(stepped[0][1], state["run"].blow_t, equal_nan=True)
        count_partner_chunk(state, chunk, stepped)
    with deadline(60):
        got = run_partnered(threads, advance)
    # 80 saves past the initial row; chunks of 5 steps, and of 14 for the
    # 88-path tail block
    assert got == [(0, 80, 81, (256,)), (256, 80, 81, (256,)), (512, 29, 81, (88,))]
    assert len(forked) == threads
    assert all(h.pid is None for h in forked)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_reaps_partners_when_a_callback_raises(monkeypatch, threads):
    # block 1 stops on its second chunk while its helper is far from done
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)

    def advance(state, chunk, stepped):
        count_partner_chunk(state, chunk, stepped)
        if state["lo"] == 256 and state["chunks"] == 2:
            raise ConfigError("stop in block 1")
    with deadline(60), pytest.raises(ConfigError, match="stop in block 1"):
        run_partnered(threads, advance)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_raises_when_a_partner_is_killed(monkeypatch, threads):
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)
    forked = record_helpers(monkeypatch)

    def advance(state, chunk, stepped):
        count_partner_chunk(state, chunk, stepped)
        if state["lo"] == 0 and state["chunks"] == 1:
            os.kill(forked[0].pid, signal.SIGKILL)
    with deadline(60), pytest.raises(NoiseHelperError, match="exit status -9"):
        run_partnered(threads, advance)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_raises_when_a_partner_run_fails(monkeypatch, threads):
    # only the helpers step: the parent's advance just counts
    def broken(model, basis, run, increments):
        raise ValueError(f"no step for {run.c.shape[0]} paths")
    monkeypatch.setattr(sv, "_advance_block", broken)
    with deadline(60), pytest.raises(NoiseHelperError,
                                     match="exit status 1.*no step for 256 paths"):
        run_partnered(threads, count_partner_chunk)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_helper_exits_when_its_ends_close_while_a_partner_runs(monkeypatch, threads):
    # the helpers are stopped while they still step their runs, with
    # far more chunks left than a ring or a pipe holds.  Each helper is
    # forked holding copies of the parent's ends of the helpers forked
    # before it; unless it drops them, stop_helpers waits on the first
    # helper for ever.
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 256 * 2 * 5)
    forked, stop = record_helpers(monkeypatch), sn.stop_helpers
    running = []

    def spy(helpers):
        running.extend(os.waitpid(h.pid, os.WNOHANG) == (0, 0) for h in forked)
        stop(helpers)
    monkeypatch.setattr(sn, "stop_helpers", spy)

    def advance(state, chunk, stepped):
        count_partner_chunk(state, chunk, stepped)
        if state["chunks"] == 2:
            raise ConfigError("stop early")
    with deadline(60), pytest.raises(ConfigError, match="stop early"):
        run_partnered(threads, advance, steps=10 ** 5)
    assert running == [True] * threads
    assert_no_child_left()


def test_stepping_helper_exits_when_its_ends_close_while_a_sibling_steps():
    # helper 1 is forked holding copies of the parent's ends of helper 0,
    # its "rows" pipe among them; unless it drops them, helper 0 never
    # sees the parent stop.  Both have far more chunks to step than their
    # ring and pipe hold.
    def job(lo, hi):
        run, = ou_run(lo, hi)
        return lambda chunk: [(run.advance(chunk), run.blow_t)]
    helpers = sn.start_helpers(0, 2, 10 ** 5, [[(0, 256)], [(256, 512)]],
                               job=(1e-3, job))
    try:
        with deadline(30):
            sn.stop_helpers(helpers[:1])
        assert helpers[0].pid is None and helpers[1].pid is not None
    finally:
        sn.stop_helpers(helpers[1:])
    assert_no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_converge_forks_one_child_per_block_worker(monkeypatch, threads):
    # the helper steps the coarser levels on the normals it draws: no
    # second child per worker
    forks, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    m = sm.build_model("p-laplacian")
    with deadline(60):
        dg.galerkin_convergence(m, unit(8), [4, 8], M=600, seed=1, t_end=0.01,
                                dt=1e-3, save_dt=5e-3, threads=threads)
    assert len(forks) == threads
    assert_no_child_left()


def test_save_grid_counts_steps_and_saves():
    assert sv.save_grid(1.0, 1e-3, 1e-2) == (1000, 10)
    assert sv.save_grid(0.06, 0.02, 0.02) == (3, 1)
    with pytest.raises(ConfigError, match="t_end/save_dt"):
        sv.save_grid(0.05, 0.01, 0.02)
    with pytest.raises(ConfigError, match="save_dt/dt"):
        sv.save_grid(0.06, 0.02, 0.03)


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
    run, rows = chunked_run(m, b, x0, inc, dt, stepper, 1, [5, 11])
    assert np.all(np.isfinite(ref))
    assert np.array_equal(rows, ref)
    assert type(run.model) is type(m) and m._prepared is None
