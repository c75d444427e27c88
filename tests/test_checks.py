import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from test_solver import assert_no_child_left, deadline

from spde import basis as sb
from spde import checks as ck
from spde import cli
from spde import models as sm
from spde.errors import (HemicontinuityChildError, IncompleteSpecError,
                         MissingHypothesisSpecError)

SRC = pathlib.Path(ck.__file__).parents[1]


def grad_h_norm_sq(basis, w):
    """Quadrature of |d/dx w|^2: independent of the spectral identities."""
    dw = w @ basis.dfns
    return np.sum(dw * dw * basis.weights, axis=-1)


def test_heat_monotonicity_margin_identity():
    # with f = rho = eta = 0 and additive noise the H2 margin equals
    # 2 ||d/dx (u - v)||^2, computed here by grid quadrature
    model = sm.HeatOU(sigma=0.7)
    model.hypothesis.f_const = 0.0
    basis = model.make_basis(12)
    seed = 31
    rep = ck.check_local_monotonicity(model, basis, n_samples=300, variant="H2",
                                      seed=seed)
    us = sb.sample_coeffs(basis, 300, seed)
    vs = sb.sample_coeffs(basis, 300, seed + 1)
    oracle = 2.0 * grad_h_norm_sq(basis, us - vs)
    assert rep.passed
    assert rep.min_margin == pytest.approx(float(np.min(oracle)), rel=1e-9)
    assert rep.mean_margin == pytest.approx(float(np.mean(oracle)), rel=1e-9)


def test_gradient_noise_monotonicity_identity():
    # margin = 2||w'||^2 - nu^2 ||P w'||^2, bounded below by (2-nu^2)||w'||^2
    nu = 1.2
    model = sm.GradientNoiseHeat(nu=nu)
    basis = model.make_basis(24)
    seed = 13
    rep = ck.check_local_monotonicity(model, basis, n_samples=300,
                                      variant="H2star", seed=seed)
    us = sb.sample_coeffs(basis, 300, seed)
    vs = sb.sample_coeffs(basis, 300, seed + 1)
    w = us - vs
    gsq = grad_h_norm_sq(basis, w)
    hsq = np.sum(w * w, axis=-1)
    f = model.hypothesis.f_const
    assert rep.passed
    lower = f * hsq + (2.0 - nu ** 2) * gsq
    assert rep.min_margin >= float(np.min(lower)) - 1e-9
    proj = sb.analyze(basis, w @ basis.dfns)
    oracle = f * hsq + 2.0 * gsq - nu ** 2 * np.sum(proj * proj, axis=-1)
    assert rep.mean_margin == pytest.approx(float(np.mean(oracle)), rel=1e-9)


def test_h2star_requires_theta_below_alpha():
    model = sm.GradientNoiseHeat(nu=1.0)
    model.hypothesis.theta = 2.0          # = alpha
    basis = model.make_basis(8)
    with pytest.raises(IncompleteSpecError):
        ck.check_local_monotonicity(model, basis, 50, "H2star", seed=0)


def test_h2prime_needs_K_R_form():
    model = sm.GradientNoiseHeat(nu=1.0)   # declares no K_R form
    basis = model.make_basis(8)
    with pytest.raises(MissingHypothesisSpecError):
        ck.check_local_monotonicity(model, basis, 50, "H2prime", seed=0)


def test_missing_hypothesis_spec():
    model = sm.HeatOU(0.0)
    model.hypothesis = None
    with pytest.raises(MissingHypothesisSpecError):
        ck.check_coercivity(model, sm.HeatOU(0.0).make_basis(4), 10)


def test_hemicontinuity_heat_affine_ratio():
    model = sm.HeatOU(0.5)
    basis = model.make_basis(16)
    rep = ck.check_hemicontinuity(model, basis, n_samples=400, seed=5)
    assert rep.passed
    assert rep.fitted_constants["max_ratio"] == pytest.approx(0.25, abs=1e-3)


def test_hemicontinuity_plaplacian_smooth():
    model = sm.PLaplacian(4, 1.0, 0.5)
    basis = model.make_basis(16)
    rep = ck.check_hemicontinuity(model, basis, n_samples=400, seed=5)
    assert rep.passed
    assert rep.fitted_constants["max_ratio"] <= 0.3


def test_hemicontinuity_flags_discontinuous_drift():
    model = sm.build_model("fixture-bad-h1")
    basis = model.make_basis(16)
    for n_samples in (256, 1000):      # one block; four with a partial last one
        rep = ck.check_hemicontinuity(model, basis, n_samples=n_samples, seed=5)
        assert not rep.passed
        assert rep.n_violations >= 1


def test_coercivity_fit_heat():
    # 2<Lap u, u> = -2 (||u||_V^2 - ||u||_H^2): the largest passing c is 2
    model = sm.HeatOU(sigma=0.0)
    basis = model.make_basis(16)
    rep = ck.check_coercivity(model, basis, n_samples=3000, seed=7)
    assert rep.passed
    assert abs(rep.fitted_constants["fitted_c"] - 2.0) <= 0.02 * 2.0


def test_coercivity_fit_plaplacian():
    model = sm.PLaplacian(4, 1.0, 0.5)
    basis = model.make_basis(16)
    rep = ck.check_coercivity(model, basis, n_samples=3000, seed=7)
    assert rep.passed
    assert rep.fitted_constants["fitted_c"] >= 2.0


def test_monotone_fit_consistency():
    # fitted coercivity constant never drops below the declared one
    for name in sm.ZOO:
        model = sm.build_model(name)
        basis = model.make_basis(16)
        rep = ck.check_coercivity(model, basis, n_samples=2000, seed=3)
        assert rep.fitted_constants["fitted_c"] >= \
            rep.fitted_constants["declared_c"] - 1e-8


def test_coercivity_zero_state_margin_is_f():
    model = sm.HeatOU(sigma=0.0)
    basis = model.make_basis(8)
    z = np.zeros(8)
    lhs = 2 * np.sum(model.apply_A(basis, 0, z) * z, axis=-1) \
        + model.b_hs_norm_sq(basis, 0, z)
    rhs = model.hypothesis.f_const * (1 + 0.0) \
        - model.hypothesis.c_coercive * sb.v_norm(basis, model, z) ** 2
    assert rhs - lhs == model.hypothesis.f_const


def test_growth_heat_margins():
    model = sm.HeatOU(sigma=0.0)
    basis = model.make_basis(16)
    rep = ck.check_growth(model, basis, n_samples=3000, seed=9)
    assert rep.passed and rep.min_margin >= 0
    # zero state: margin = f * (1 + 0^beta); beta = 0 makes the factor 2
    z = np.zeros(16)
    dual = sb.dual_norm_estimate(basis, model, model.apply_A(basis, 0, z))
    rhs = (model.hypothesis.f_const + 0.0) * (1 + 0.0 ** model.hypothesis.beta)
    assert rhs - dual ** 2 == model.hypothesis.f_const * 2


def test_growth_plaplacian_conservative():
    model = sm.PLaplacian(4, 1.0, 0.5)
    basis = model.make_basis(16)
    rep = ck.check_growth(model, basis, n_samples=3000, seed=9)
    assert rep.passed
    assert rep.fitted_constants["fitted_C"] <= model.hypothesis.growth_C


def test_noise_additive_and_fitted_LB():
    model = sm.HeatOU(sigma=0.5)
    basis = model.make_basis(8)
    rep = ck.check_noise(model, basis, n_samples=2000, seed=3)
    assert rep.passed and rep.min_margin >= 0

    gn = sm.GradientNoiseHeat(nu=1.0)
    bg = gn.make_basis(64)
    rep = ck.check_noise(gn, bg, n_samples=5000, seed=3)
    assert rep.passed
    assert abs(rep.fitted_constants["fitted_L_B"] - 1.0) <= 0.02


def test_noise_negative_control():
    model = sm.build_model("fixture-bad-h5")
    basis = model.make_basis(16)
    rep = ck.check_noise(model, basis, n_samples=1000, seed=3)
    assert not rep.passed and rep.n_violations >= 1


def test_coercivity_negative_control():
    model = sm.build_model("fixture-bad-h3")
    basis = model.make_basis(16)
    rep = ck.check_coercivity(model, basis, n_samples=1000, seed=3)
    assert not rep.passed and rep.n_violations >= 1


def test_chi_threshold_gradient_noise():
    rep = ck.check_chi_threshold(sm.build_model("gradient-noise-heat", nu=1.0))
    assert rep.passed
    f = rep.fitted_constants
    assert f["chi"] == 1.0 and f["threshold"] == 2.0
    assert f["p_min"] == 2.0 and f["p_max"] == pytest.approx(3.0)

    rep = ck.check_chi_threshold(sm.build_model("gradient-noise-heat", nu=1.5))
    assert not rep.passed                    # L_B = 2.25 >= threshold 2

    rep = ck.check_chi_threshold(sm.build_model("heat-ou"))
    assert rep.passed and rep.fitted_constants["p_max"] == np.inf


def test_chi_threshold_requires_spec():
    with pytest.raises(IncompleteSpecError):
        ck.check_chi_threshold(sm.HypothesisSpec())     # alpha unknown


def test_reports_deterministic():
    model = sm.build_model("convection-diffusion")
    basis = model.make_basis(16)
    a = ck.run_all(model, basis, n_samples=500, seed=17)
    b = ck.run_all(model, basis, n_samples=500, seed=17)
    for ra, rb in zip(a, b):
        assert ra.condition == rb.condition
        assert ra.min_margin == rb.min_margin
        assert ra.median_margin == rb.median_margin
        assert ra.n_violations == rb.n_violations


def test_report_csv_shape():
    model = sm.build_model("heat-ou")
    basis = model.make_basis(8)
    reports = ck.run_all(model, basis, n_samples=200, seed=1)
    rows = ck.reports_to_csv_rows(reports)
    assert rows[0][0] == "condition"
    assert len(rows) == len(reports) + 1
    text = ck.format_summary("heat-ou", reports)
    assert "H1" in text and "pass" in text


# --- H1 on one fine lambda grid -------------------------------------------

def three_grid_h1(model, basis, n_samples, seed, n_lambda=16):
    """Reference H1: a separate linspace and apply_A call per grid, as
    before the coarse grids became strided views of the fine one."""
    n = basis.n_modes
    scales = (0.1, 1.0, 3.0, 10.0)
    us = sb.sample_coeffs(basis, n_samples, seed, scales=scales)
    vs = sb.sample_coeffs(basis, n_samples, seed + 1, scales=scales)
    xs = sb.sample_coeffs(basis, n_samples, seed + 2, scales=scales)
    cells = n_lambda - 1
    jumps, peaks = [], []
    for f in (1, 4, 16):
        grid = np.linspace(-1.0, 1.0, f * cells + 1)
        j = np.empty(n_samples)
        gmax = np.empty(n_samples)
        for lo in range(0, n_samples, 256):
            hi = min(lo + 256, n_samples)
            states = us[lo:hi, None, :] + grid[None, :, None] * vs[lo:hi, None, :]
            a = model.apply_A(basis, 0.0, states.reshape(-1, n))
            g = np.einsum("slk,sk->sl", a.reshape(hi - lo, grid.size, n), xs[lo:hi])
            j[lo:hi] = np.max(np.abs(np.diff(g, axis=1)), axis=1)
            gmax[lo:hi] = np.max(np.abs(g), axis=1)
        jumps.append(j)
        peaks.append(gmax)
    floor = 1e-12 * (1.0 + peaks[0])
    j1, j2 = jumps[1], jumps[2]
    return np.where(j1 > floor, j2 / np.maximum(j1, floor), 0.0)


class PowCahnHilliard(sm.CahnHilliard):
    """Cahn-Hilliard with the cubic written as a float power."""

    def phi(self, u):
        return self.a3 * u ** 3 + self.a1 * u


def assert_report_matches_ratios(rep, ratios, rtol):
    margins = 0.6 - ratios
    got = [rep.min_margin, rep.median_margin, rep.mean_margin,
           rep.fitted_constants["mean_ratio"], rep.fitted_constants["max_ratio"]]
    want = [np.min(margins), np.median(margins), np.mean(margins),
            np.mean(ratios), np.max(ratios)]
    if rtol == 0:
        assert got == [float(w) for w in want]
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
    assert rep.n_violations == int(np.sum(margins < -ck.TOL))


@pytest.mark.parametrize("name", ["heat-ou", "p-laplacian", "convection-diffusion"])
def test_hemicontinuity_one_grid_matches_three_grids_bitwise(name):
    model = sm.build_model(name)
    basis = model.make_basis(16)
    rep = ck.check_hemicontinuity(model, basis, n_samples=300, seed=4)
    assert_report_matches_ratios(rep, three_grid_h1(model, basis, 300, 4), rtol=0)


def test_hemicontinuity_one_grid_matches_three_grids_cahn_hilliard():
    # the reference also cubes by float power, so the two differ only in
    # the last bits of phi(u)
    model = sm.build_model("cahn-hilliard")
    basis = model.make_basis(16)
    rep = ck.check_hemicontinuity(model, basis, n_samples=300, seed=4)
    ref = three_grid_h1(PowCahnHilliard(), basis, 300, 4)
    assert_report_matches_ratios(rep, ref, rtol=1e-12)


def log_rows(log, rows):
    """Append "pid rows" to the file `log`: H1 evaluates half of its blocks
    on a forked child, so a count held in memory would miss its calls."""
    with open(log, "a") as f:
        f.write(f"{os.getpid()} {rows}\n")


def logged_rows(log):
    """The (pid, rows) pairs log_rows appended to `log`, and empties it."""
    with open(log, "r+") as f:
        pairs = [tuple(map(int, line.split())) for line in f]
        f.truncate(0)
    return pairs


class RowCountingHeat(sm.HeatOU):
    def __init__(self, log):
        super().__init__(sigma=0.5)
        self.log = log
        open(log, "w").close()

    def apply_A(self, basis, t, coeffs):
        log_rows(self.log, np.asarray(coeffs).reshape(-1, basis.n_modes).shape[0])
        return super().apply_A(basis, t, coeffs)


def count_h1_calls(log, n, n_samples, n_lambda):
    """apply_A calls of one H1 audit at n, in this process and its child,
    after checking that every lambda point of every sample is evaluated
    exactly once."""
    model = RowCountingHeat(log)
    basis = model.make_basis(n)
    ck.check_hemicontinuity(model, basis, n_samples=n_samples, n_lambda=n_lambda)
    calls = logged_rows(log)
    assert sum(rows for _, rows in calls) == (16 * (n_lambda - 1) + 1) * n_samples
    assert len({pid for pid, _ in calls}) == 2      # both processes evaluated
    return len(calls)


# apply_A calls, one per block: at n = 8 (grid_size 32) a block holds
# (2**14 - 64) // 32 = 510 rows, two lines of 241 or one of 257
H1_CALLS = {(300, 16): 150, (100, 17): 100, (512, 16): 256}


@pytest.mark.parametrize("n_samples,n_lambda", sorted(H1_CALLS))
def test_hemicontinuity_evaluates_each_lambda_once(tmp_path, n_samples, n_lambda):
    assert count_h1_calls(tmp_path / "rows", 8, n_samples, n_lambda) \
        == H1_CALLS[n_samples, n_lambda]


def test_hemicontinuity_split_lines_evaluate_each_lambda_once(tmp_path):
    # at n = 32 (grid_size 128) a block holds 127 rows, so each 241-row
    # line is cut into parts of 120 and 121 rows
    assert count_h1_calls(tmp_path / "rows", 32, 100, 16) == 200


@pytest.mark.parametrize("n", [16, 32])
def test_hemicontinuity_peak_memory_is_bounded(n):
    # with 8 MiB temporaries (2**20 values) H1 traced 32.1 MB at n = 16 and
    # 31.0 MB at n = 32; with temporaries under malloc's mmap threshold it
    # traces 0.71 and 0.92 MB, or up to 2.4 MB in a process's first audit
    model = sm.build_model("p-laplacian")
    basis = model.make_basis(n)
    tracemalloc.start()
    try:
        rep = ck.check_hemicontinuity(model, basis, n_samples=512, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_samples == 512
    assert peak < 4e6


def report_fields(rep):
    return (rep.n_samples, rep.n_violations, rep.min_margin, rep.median_margin,
            rep.mean_margin, rep.fitted_constants, rep.passed,
            [(v.index, v.margin) for v in rep.violations])


@pytest.mark.parametrize("name", sorted(sm.MODELS))
def test_hemicontinuity_report_independent_of_block_size(monkeypatch, tmp_path, name):
    # the default rule, the smallest parts it allows and one block holding
    # every line give the same bits: a block or part keeps H1_MIN_PART
    # coefficient values, enough that every row rounds as in a full block.
    # 70 samples at n = 16 fill one chunk of 67 and part of a second.
    # The rows are logged to a file, from this process and H1's child.
    model = sm.build_model(name)
    apply_A = model.apply_A
    log = tmp_path / "rows"
    log.touch()

    def counting_apply_A(basis, t, coeffs):
        log_rows(log, len(coeffs))
        return apply_A(basis, t, coeffs)

    monkeypatch.setattr(model, "apply_A", counting_apply_A)
    budget = ck.H1_GRID_VALUES
    cases = [(n, 40) for n in (4, 16, 32, 64)]
    if name in ("heat-ou", "p-laplacian"):
        cases.append((16, 70))
    for n, n_samples in cases:
        basis = model.make_basis(n)
        for n_lambda in (16, 17):
            line = 16 * (n_lambda - 1) + 1
            runs = []
            for values in (budget, 1, n_samples * line * basis.grid_size):
                monkeypatch.setattr(ck, "H1_GRID_VALUES", values)
                rep = ck.check_hemicontinuity(model, basis, n_samples=n_samples,
                                              n_lambda=n_lambda, seed=6)
                runs.append((report_fields(rep), [r for _, r in logged_rows(log)]))
            (ref, default), (small, smallest), (whole, one_block) = runs
            assert small == ref and whole == ref
            assert sum(default) == sum(smallest) == n_samples * line
            assert one_block == [n_samples * line]
            # every call keeps the floor: a short last block is folded
            assert min(smallest) * n >= ck.H1_MIN_PART
            if n >= 32:     # the split path runs
                assert max(smallest) < line and max(default) < line


@pytest.mark.parametrize("name", ["p-laplacian", "convection-diffusion", "cahn-hilliard"])
def test_hemicontinuity_folds_a_short_last_block(monkeypatch, name):
    # at n = 4 with grid_size 128 a block is 3 lines (2,892 coefficient
    # values); 67 and 100 samples would leave a last block of one line
    # (964 values), which rounds differently from the one-block report
    model = sm.build_model(name)
    basis = model.make_basis(4, 128)
    budget = ck.H1_GRID_VALUES
    for n_samples in (66, 67, 99, 100):
        monkeypatch.setattr(ck, "H1_GRID_VALUES", budget)
        ref = ck.check_hemicontinuity(model, basis, n_samples=n_samples, seed=4)
        monkeypatch.setattr(ck, "H1_GRID_VALUES", 10 ** 9)
        whole = ck.check_hemicontinuity(model, basis, n_samples=n_samples, seed=4)
        assert report_fields(ref) == report_fields(whole)


class ScriptedHeat(sm.HeatOU):
    """heat-ou whose apply_A first calls in_parent() in the process that
    built it, or in_child() in any other: H1's forked child."""

    def __init__(self, in_parent=None, in_child=None):
        super().__init__(sigma=0.5)
        self.parent = os.getpid()
        self.hooks = (in_parent, in_child)

    def apply_A(self, basis, t, coeffs):
        hook = self.hooks[os.getpid() != self.parent]
        if hook is not None:
            hook()
        return super().apply_A(basis, t, coeffs)


def fail_in_child():
    raise ValueError("no drift in the child")


def test_hemicontinuity_forks_one_child_only_with_two_blocks(monkeypatch, tmp_path):
    # at n = 16 a block is one line: 6 samples are 6 blocks, 1 sample one.
    # The two sides overlap in time: each logs the end of its calls.
    forks, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    log = tmp_path / "ends"
    log.touch()
    model = ScriptedHeat(in_parent=lambda: time.sleep(0.1),
                         in_child=lambda: time.sleep(0.1))
    apply_A = model.apply_A

    def timed_apply_A(basis, t, coeffs):
        out = apply_A(basis, t, coeffs)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {time.monotonic()}\n")
        return out
    monkeypatch.setattr(model, "apply_A", timed_apply_A)
    basis = model.make_basis(16)
    with deadline(60):
        rep = ck.check_hemicontinuity(model, basis, n_samples=6)
    assert rep.n_samples == 6 and len(forks) == 1
    assert_no_child_left()
    ends = [line.split() for line in log.read_text().splitlines()]
    child = [float(t) for pid, t in ends if int(pid) == forks[0]]
    here = [float(t) for pid, t in ends if int(pid) == os.getpid()]
    assert len(child) == len(here) == 3
    assert child[0] < here[-1] and here[0] < child[-1]
    ck.check_hemicontinuity(model, basis, n_samples=1)
    assert len(forks) == 1


def fork_refused():
    raise AssertionError("forked beside another thread")


def test_hemicontinuity_runs_in_process_beside_another_thread(monkeypatch):
    # a fork copies only the calling thread: with a second thread running
    # (or a multi-threaded BLAS), H1 evaluates every block here
    model = sm.build_model("p-laplacian")
    basis = model.make_basis(16)
    ref = ck.check_hemicontinuity(model, basis, n_samples=20, seed=2)
    monkeypatch.setattr(os, "fork", fork_refused)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        rep = ck.check_hemicontinuity(model, basis, n_samples=20, seed=2)
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert report_fields(rep) == report_fields(ref)


def test_hemicontinuity_child_failure_raises_its_message():
    model = ScriptedHeat(in_child=fail_in_child)
    with deadline(60), pytest.raises(
            HemicontinuityChildError,
            match=r"exit status 1\): ValueError\('no drift in the child'\)"):
        ck.check_hemicontinuity(model, model.make_basis(16), n_samples=8)
    assert_no_child_left()


def test_hemicontinuity_killed_child_raises():
    model = ScriptedHeat(in_child=lambda: os.kill(os.getpid(), signal.SIGKILL))
    with deadline(60), pytest.raises(HemicontinuityChildError, match="exit status -9"):
        ck.check_hemicontinuity(model, model.make_basis(16), n_samples=8)
    assert_no_child_left()


class Interrupt(KeyboardInterrupt):
    pass


@pytest.mark.parametrize("cause", [ValueError, Interrupt])
def test_hemicontinuity_kills_the_child_when_this_side_raises(cause):
    # the child's share of 4 blocks would take 12 s; this side raises in
    # its first block, and the child must be gone when the error arrives
    def fail():
        raise cause("stop here")
    model = ScriptedHeat(in_parent=fail, in_child=lambda: time.sleep(3))
    t0 = time.monotonic()
    with deadline(6), pytest.raises(cause, match="stop here"):
        ck.check_hemicontinuity(model, model.make_basis(16), n_samples=8)
    assert time.monotonic() - t0 < 3
    assert_no_child_left()


class ChildFailsHeat(ScriptedHeat):
    def __init__(self):
        super().__init__(in_child=fail_in_child)


def test_cli_check_reports_a_failed_child(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(sm.MODELS, "child-fails", ChildFailsHeat)
    with deadline(60):
        code = cli.main(["check", "--model", "child-fails", "--n-modes", "16",
                         "--n-samples", "8", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "error: H1 child ended before sending its blocks (exit status 1)" in err
    assert "no drift in the child" in err and "Traceback" not in err
    assert_no_child_left()


def child_pids(pid):
    """The pids of the children of process `pid` (one thread), or [] once
    it has exited."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(c) for c in f.read().split()]
    except FileNotFoundError:
        return []


def test_cli_check_interrupted_in_h1_leaves_no_process(tmp_path):
    # H1 of 100,000 samples takes several seconds on each side; SIGINT to
    # the parent must end it and its child at once
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spde.cli", "check", "--model", "convection-diffusion",
         "--n-modes", "16", "--n-samples", "100000", "--out", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    children = []
    try:
        t0 = time.monotonic()
        while not children and time.monotonic() - t0 < 60 and proc.poll() is None:
            time.sleep(0.05)
            children = child_pids(proc.pid)
        assert len(children) == 1, "H1 forked no child"
        time.sleep(max(0.0, 1.0 - (time.monotonic() - t0)))
        proc.send_signal(signal.SIGINT)
        t1 = time.monotonic()
        proc.communicate(timeout=30)
        assert time.monotonic() - t1 < 2.0
        assert proc.returncode != 0
        assert not os.path.exists(f"/proc/{children[0]}")
    finally:
        proc.kill()
        proc.communicate()
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_cahn_hilliard_phi_matches_power_form():
    model = sm.CahnHilliard(phi_cubic=1.3, phi_linear=-0.7)
    u = np.random.default_rng(0).standard_normal(4000) * np.repeat(
        [1e-3, 1.0, 10.0, 1e3], 1000)
    cubic, linear = model.a3 * u ** 3, model.a1 * u
    # relative to the size of the two terms: near the roots of phi they
    # cancel, and one ulp of the cubic is then a large share of the sum
    err = np.abs(model.phi(u) - (cubic + linear))
    assert np.all(err <= 1e-14 * (np.abs(cubic) + np.abs(linear)))


def test_nonfinite_margins_are_violations():
    # a NaN noise amplitude makes every sigma-dependent margin NaN; NaN
    # compares false against the tolerance and must still count as failing
    model = sm.PLaplacian(sigma=float("nan"))
    basis = model.make_basis(8)
    reports = {r.condition: r for r in ck.run_all(model, basis, n_samples=64)}
    assert reports["H1"].passed                      # H1 does not involve sigma
    for cond in ("H2", "H3", "H5"):
        rep = reports[cond]
        assert np.isnan(rep.min_margin)
        assert not rep.passed and rep.n_violations >= 1
    text = ck.format_summary(model.name, reports.values())
    assert "FAIL" in text
