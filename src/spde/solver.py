"""Time integration of the Galerkin SDE in coefficient coordinates.

One step function, `_advance_block`, holds both one-step maps: an
explicit Euler scheme with drift taming (the increment dt*a is divided
by 1 + dt*||a||, which caps a single drift update at norm 1 and keeps
moments of superlinear models bounded), and a semi-implicit scheme that
treats the model's diagonal linear part implicitly (unconditionally
stable for spectra up to k^4).

The step is batched over paths: a block of up to BLOCK paths advances
as one (M, n) array per step.  One driver, `run_blocks`, owns what every
ensemble experiment shares: the block spans, the worker threads, each
block's noise stream (time-major chunks (k, M, m) from
noise.stream_block) and the chunk's lifetime.  An experiment supplies
three callbacks: start a block's runs, advance them through one chunk,
and finish the block once its noise buffer is dropped.

`start_block` prepares a block once.  Its BlockRun holds the stepper's
diagonal L and the denominator 1 - dt*L broadcast to the block's (M, n)
shape, and a prepared copy of the model (Model.prepare) whose per-basis
constants are broadcast the same way, so no step recomputes them or
broadcasts an (n,) vector against the block.  The steps still call the
model's own apply_A and apply_B_increment, so each model's physics lives
in one place and a model that defines only those two methods steps
as it is.  The arithmetic, and so every bit, is that of the same
expressions on (n,) constants.

`_advance_block` carries a block's state from chunk to chunk, so memory
holds one chunk rather than the block's whole noise.  A run keeps its
whole save grid, or, windowed, only the save rows of its latest chunk,
for consumers that fold the rows into a running statistic as they go.
Chunks fed in order give the same bits as a single chunk holding every
step.  The fixed BLOCK keeps a path's arithmetic independent of the
number of worker threads; it does not make it independent of the path's
position in its block (outside elementwise models such as heat-ou, the
batched transforms can round differently).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import basis as sb
from . import noise as sn
from .errors import ConfigError, NonfiniteStateError, UnsupportedModelNormError

BLOCK = 256      # paths per batch; fixed so results never depend on threading

STEPPERS = ("explicit-tamed", "semi-implicit")


def worker_count(threads=None):
    """Worker threads for `threads`: None means 1, 0 one per CPU."""
    if threads is None:
        return 1
    if threads == 0:
        return os.cpu_count() or 1
    return max(1, threads)


def ratio_as_int(num, den, what):
    """num / den as an exact integer >= 1, or a ConfigError naming `what`."""
    if not (num > 0 and den > 0):
        raise ConfigError(f"{what}: values must be positive, got {num} and {den}")
    r = num / den
    k = int(round(r)) if math.isfinite(r) else 0
    if k < 1 or abs(r - k) > 1e-9 * max(1.0, abs(r)):
        raise ConfigError(f"{what}: {num} / {den} is not a positive integer")
    return k


@dataclass
class Trajectory:
    """States at the save grid (times[0] = 0 carries the initial value)."""

    times: np.ndarray          # (S+1,)
    states: np.ndarray         # (S+1, n)
    model_name: str
    n_modes: int
    stepper: str
    save_dt: float
    seed: int = 0
    path_id: int = 0
    m_modes: int = 0
    blew_up_at: float = None   # set only when on_blowup="discard"

    def h_norms(self):
        return np.linalg.norm(self.states, axis=-1)


@dataclass
class TrajectoryEnsemble:
    """M paths on one save grid, kept as arrays: states (M, S+1, n), NaN
    from a path's blow-up on, and blow_t (M,), the blow-up times, NaN for
    paths that stayed finite."""

    states: np.ndarray
    blow_t: np.ndarray
    times: np.ndarray          # (S+1,)
    save_dt: float
    model: object = None
    basis: object = None
    stepper: str = None
    seed: int = 0
    m_modes: int = 0

    @property
    def M(self):
        return len(self.states)

    @property
    def trajectories(self):
        """One Trajectory per path, built on each read; its states are a
        view of the ensemble's."""
        return [Trajectory(times=self.times, states=self.states[i],
                           model_name=self.model.name, n_modes=self.states.shape[-1],
                           stepper=self.stepper, save_dt=self.save_dt,
                           seed=self.seed, path_id=i, m_modes=self.m_modes,
                           blew_up_at=None if np.isnan(b) else float(b))
                for i, b in enumerate(self.blow_t)]

    def stacked(self):
        """The (M, S+1, n) states, not a copy."""
        return self.states

    def blown_count(self):
        return int(np.count_nonzero(~np.isnan(self.blow_t)))


def fit_noise_columns(increments, needed):
    """Match the mode-column count a model consumes: slice extra columns
    away, zero-pad missing ones (a projection Q_m with m below the
    Galerkin dimension)."""
    m = increments.shape[-1]
    if m == needed:
        return increments
    if m > needed:
        return increments[..., :needed]
    pad = np.zeros(increments.shape[:-1] + (needed - m,))
    return np.concatenate([increments, pad], axis=-1)


@dataclass
class BlockRun:
    """A block of paths part-way through its integration: what
    `_advance_block` carries from one chunk of increments to the next."""

    model: object              # the model as prepared for the block's basis and M
    c: np.ndarray              # (M, n) current coefficients
    saved: np.ndarray          # (M, rows, n) save-grid states, NaN past blow-up
    blow_t: np.ndarray         # (M,) blow-up times, NaN while finite
    alive: np.ndarray          # (M,) bool
    dt: float
    save_every: int
    L: np.ndarray = None       # (M, n) diagonal linear part when semi-implicit
    denom: np.ndarray = None   # (M, n) 1 - dt*L
    step: int = 0              # global index of the next step
    window: bool = False       # saved holds only the latest chunk's rows
    row0: int = 0              # save-grid index of saved[:, 0]

    def open_window(self, k):
        """Make room for the save rows of the next k steps alone; the
        first window also holds the initial row."""
        self.row0 = 0 if self.step == 0 else self.step // self.save_every + 1
        last = (self.step + k) // self.save_every
        self.saved = np.empty((len(self.c), last - self.row0 + 1, self.c.shape[-1]))
        if self.step == 0:
            self.saved[:, 0] = self.c

    def pop_saves(self):
        """The save rows of a windowed run's latest chunk, released from
        the run so that no more than one chunk's rows outlive it."""
        rows, self.saved = self.saved, None
        return rows

    def retire_nonfinite(self, c, t):
        """Per-row blow-up bookkeeping, run only when a step left a
        non-finite entry: stamp rows that just blew up with time t and
        zero every dead row."""
        newly = self.alive & ~np.all(np.isfinite(c), axis=-1)
        self.blow_t[newly] = t
        self.alive &= ~newly
        return np.where(self.alive[:, None], c, 0.0)


def start_block(model, basis, x0, M, n_steps, dt, stepper, save_every,
                window=False):
    """A BlockRun of M copies of the coefficient vector x0 at t = 0, with
    room for the saves of n_steps steps, or with window=True for the save
    rows of one chunk at a time (see BlockRun.pop_saves).  The run holds
    the model prepared for `basis` and M rows, and the semi-implicit L
    and 1 - dt*L broadcast to (M, n)."""
    L = denom = None
    if stepper == "semi-implicit":
        L = model.linear_diagonal(basis)
        if L is None:
            raise UnsupportedModelNormError(
                f"{model.name} declares no diagonal linear part")
        L = np.repeat(np.asarray(L, float)[None, :], M, axis=0)
        denom = 1.0 - dt * L
    c = np.repeat(np.asarray(x0, float)[None, :], M, axis=0)
    saved = None
    if not window:
        saved = np.empty((M, n_steps // save_every + 1, c.shape[-1]))
        saved[:, 0] = c
    return BlockRun(model=model.prepare(basis, M), c=c, saved=saved,
                    blow_t=np.full(M, np.nan), alive=np.ones(M, bool), dt=dt,
                    save_every=save_every, L=L, denom=denom, window=window)


def _advance_block(model, basis, run, increments):
    """Advance `run` in place through one time-major chunk of increments
    (k, M, m).  `model` and `basis` are those the run was started with;
    the steps call the run's prepared copy of the model.  Rows that turn
    non-finite get their blow-up time and are NaN on the save grid from
    then on."""
    increments = fit_noise_columns(increments, model.noise_modes(basis))
    if run.window:
        run.open_window(len(increments))
    model, c, L, denom = run.model, run.c, run.L, run.denom
    dt, save_every = run.dt, run.save_every
    # a row on its way to blowing up overflows before it is retired
    with np.errstate(over="ignore", invalid="ignore"):
        for j, dw in enumerate(increments, start=run.step):
            t = j * dt
            a = model.apply_A(basis, t, c)
            binc = model.apply_B_increment(basis, t, c, dw)
            if L is not None:
                c = (c + dt * (a - L * c) + binc) / denom
            else:
                tame = 1.0 + dt * np.linalg.norm(a, axis=-1, keepdims=True)
                c = c + dt * a / tame + binc
            if not np.isfinite(c).all():
                c = run.retire_nonfinite(c, (j + 1) * dt)
            if (j + 1) % save_every == 0:
                run.saved[:, (j + 1) // save_every - run.row0] = \
                    np.where(run.alive[:, None], c, np.nan)
    run.c = c
    run.step += len(increments)


def run_blocks(M, seed, m_modes, n_steps, dt, start, advance, finish, multiple=1,
               threads=None):
    """Drive paths 0..M-1 through n_steps steps in blocks of BLOCK paths.

    For each block [lo, hi): state = start(lo, hi); advance(state, chunk)
    for every chunk of the block's noise (noise.stream_block with m_modes,
    dt and `multiple`); then, with the chunk dropped, finish(lo, hi, state).
    Returns the finish results in block order.  Blocks run on
    worker_count(threads) threads; the callbacks of one block share no
    state with another's.  They run with numpy's overflow and
    invalid-value warnings off: blown rows are NaN by design, and the
    experiments count them."""
    if M < 1:
        raise ConfigError("M must be >= 1")

    def do_block(span):
        lo, hi = span
        with np.errstate(over="ignore", invalid="ignore"):
            state = start(lo, hi)
            for chunk in sn.stream_block(m_modes, n_steps, dt, seed, range(lo, hi),
                                         multiple):
                advance(state, chunk)
            del chunk   # frees the noise buffer before the block-end reductions
            return finish(lo, hi, state)

    spans = [(lo, min(lo + BLOCK, M)) for lo in range(0, M, BLOCK)]
    nw = worker_count(threads)
    if nw > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=nw) as ex:
            return list(ex.map(do_block, spans))
    return [do_block(span) for span in spans]


def solve_path(model, basis, x0, noise_path, stepper=None, t_end=None, save_dt=None):
    """Integrate one path driven by the given NoisePath.

    The initial value is projected onto the basis (coefficients padded or
    truncated to n_modes).  noise_path.dt_fine is the solver step; it must
    divide save_dt, which must divide t_end.
    """
    stepper = stepper or model.default_stepper
    if stepper not in STEPPERS:
        raise ConfigError(f"unknown stepper {stepper!r}")
    if t_end is None:
        t_end = noise_path.t_end
    if save_dt is None:
        save_dt = noise_path.dt_fine
    dt = noise_path.dt_fine
    save_every = ratio_as_int(save_dt, dt, "save_dt/dt")
    n_saves = ratio_as_int(t_end, save_dt, "t_end/save_dt")
    steps = save_every * n_saves
    if noise_path.n_steps < steps:
        raise ConfigError(
            f"noise path has {noise_path.n_steps} steps, need {steps}")
    m_need = model.noise_modes(basis)
    if noise_path.m_modes < m_need:
        raise ConfigError(
            f"noise path carries {noise_path.m_modes} modes, model uses {m_need}")
    run = start_block(model, basis, project_initial(basis, x0), 1, steps, dt,
                      stepper, save_every)
    _advance_block(model, basis, run, noise_path.increments[:steps, None, :])
    if np.isfinite(run.blow_t[0]):
        raise NonfiniteStateError(
            f"path {noise_path.path_id} blew up at t={run.blow_t[0]:.6g}",
            time=float(run.blow_t[0]), path_id=noise_path.path_id)
    times = save_dt * np.arange(n_saves + 1)
    return Trajectory(times=times, states=run.saved[0], model_name=model.name,
                      n_modes=basis.n_modes, stepper=stepper, save_dt=save_dt,
                      seed=noise_path.seed, path_id=noise_path.path_id,
                      m_modes=noise_path.m_modes)


def project_initial(basis, x0):
    """Realize P_n x: pad or truncate a coefficient vector to n_modes."""
    if isinstance(x0, sb.GalerkinState):
        x0 = x0.coeffs
    x0 = np.asarray(x0, float).ravel()
    n = basis.n_modes
    if x0.size >= n:
        return x0[:n].copy()
    out = np.zeros(n)
    out[:x0.size] = x0
    return out


def solve_ensemble(model, basis, x0, M, seed, stepper=None, t_end=1.0, dt=1e-3,
                   save_dt=None, m_modes=None, on_blowup="raise", threads=None):
    """M independent paths, path_id = 0..M-1, reproducible for a fixed M.

    Paths run in blocks through `run_blocks`, each keeping its whole save
    grid for the ensemble's (M, S+1, n) array.  on_blowup: "raise"
    propagates the first non-finite path (with its path_id); "discard"
    records the blow-up time and keeps going, leaving NaNs past the
    blow-up."""
    stepper = stepper or model.default_stepper
    if stepper not in STEPPERS:
        raise ConfigError(f"unknown stepper {stepper!r}")
    save_dt = save_dt if save_dt is not None else dt
    save_every = ratio_as_int(save_dt, dt, "save_dt/dt")
    n_saves = ratio_as_int(t_end, save_dt, "t_end/save_dt")
    steps = save_every * n_saves
    m = m_modes if m_modes is not None else model.noise_modes(basis)
    c0 = project_initial(basis, x0)
    times = save_dt * np.arange(n_saves + 1)

    all_states = np.empty((M, n_saves + 1, basis.n_modes))
    all_blow = np.full(M, np.nan)

    def finish(lo, hi, run):
        all_states[lo:hi] = run.saved
        all_blow[lo:hi] = run.blow_t

    run_blocks(M, seed, m, steps, dt,
               lambda lo, hi: start_block(model, basis, c0, hi - lo, steps, dt,
                                          stepper, save_every),
               lambda run, chunk: _advance_block(model, basis, run, chunk),
               finish, threads=threads)

    if on_blowup == "raise":
        bad = np.flatnonzero(np.isfinite(all_blow))
        if bad.size:
            pid = int(bad[0])
            raise NonfiniteStateError(
                f"path {pid} blew up at t={all_blow[pid]:.6g}",
                time=float(all_blow[pid]), path_id=pid)

    return TrajectoryEnsemble(states=all_states, blow_t=all_blow, times=times,
                              save_dt=save_dt, model=model, basis=basis,
                              stepper=stepper, seed=seed, m_modes=m)


def trajectory_csv_rows(traj, model, basis):
    """CSV export: t, c_1..c_n, h_norm, v_norm."""
    header = ["t"] + [f"c_{k+1}" for k in range(basis.n_modes)] + ["h_norm", "v_norm"]
    rows = [header]
    h = traj.h_norms()
    v = sb.v_norm(basis, model, traj.states)
    for i, t in enumerate(traj.times):
        rows.append([repr(float(t))] + [repr(float(x)) for x in traj.states[i]]
                    + [repr(float(h[i])), repr(float(v[i]))])
    return rows
