"""Time integration of the Galerkin SDE in coefficient coordinates.

One step function, `_advance_block`, holds both one-step maps: an
explicit Euler scheme with drift taming (the increment dt*a is divided
by 1 + dt*||a||, which caps a single drift update at norm 1 and keeps
moments of superlinear models bounded), and a semi-implicit scheme that
treats the model's diagonal linear part implicitly (unconditionally
stable for spectra up to k^4).

The step is batched over paths: a block of up to BLOCK paths advances
as one (M, n) array per step.  One driver, `run_blocks`, owns what every
ensemble experiment shares: the block spans, the block workers, each
block's noise stream (time-major chunks (k, M, m) from
noise.stream_block) and the chunk's lifetime.  Each worker is a thread
with one noise helper process (noise.start_helpers), forked before the
workers start, that draws the worker's blocks up to two chunks ahead
into a two-slot ring; the step loop only copies each chunk into its
buffer `out` and scales it.  A chunk lives in a ring slot until it is copied,
and in `out` until the next chunk overwrites it.  An experiment supplies
three callbacks: start a block's runs, advance them through one chunk,
and finish the block once its noise buffer is dropped.  Once one worker
raises, or the calling thread is interrupted, every other worker stops
at its next chunk.

Every run is a BlockRun, and every layer steps it the one way,
BlockRun.advance.  An experiment that steps several runs per block can
hand some of them to the helper: the helper then advances them on the
normals it has just drawn and writes, per chunk, one message of their
save rows and blow-up times so far to a pipe, which the worker's advance
callback receives.  So a worker is a thread with one child process, and
each block's noise is drawn once.  Galerkin convergence hands over every
level but the finest.

Every run is windowed: BlockRun.advance returns the save rows of the
chunk it stepped through, and a BlockRun keeps only what the next chunk
needs (the state, the blow-up times and the step count).  The callers
fold each chunk's rows into per-path scalars, so no block holds a save
grid and memory does not grow with the number of saves.  `solve_path`
(the simulate command's one path) and `solve_ensemble` (the tests'
reference ensemble) join the returned rows into the whole (S+1, n) or
(M, S+1, n) grid.

`start_block` prepares a block once: it projects x0 onto the basis (P_n)
and repeats it over the block's M rows.  Its BlockRun holds the stepper's
diagonal L and the denominator 1 - dt*L broadcast to the block's (M, n)
shape, and a prepared copy of the model (Model.prepare) whose per-basis
constants are broadcast the same way, so no step recomputes them or
broadcasts an (n,) vector against the block.  The steps still call the
model's own apply_A and apply_B_increment, so each model's physics lives
in one place and a model that defines only those two methods steps
as it is.  The arithmetic, and so every bit, is that of the same
expressions on (n,) constants.

BlockRun.advance carries a block's state from chunk to chunk, so memory
holds one chunk rather than the block's whole noise.  Chunks fed in
order give the same bits as a single chunk holding every step.  The
fixed BLOCK keeps a path's arithmetic independent of the number of
block workers; it does not make it independent of the path's position
in its block (outside elementwise models such as heat-ou, the batched
transforms can round differently).
"""

import math
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import basis as sb
from . import noise as sn
from .errors import ConfigError, NonfiniteStateError, UnsupportedModelNormError

BLOCK = 256      # paths per batch; fixed so results never depend on the workers

STEPPERS = ("explicit-tamed", "semi-implicit")


def worker_count(threads=None):
    """Block workers for `threads`, an integer >= 1; None means 1."""
    return 1 if threads is None else max(1, threads)


def ratio_as_int(num, den, what):
    """num / den as an exact integer >= 1, or a ConfigError naming `what`."""
    if not (num > 0 and den > 0):
        raise ConfigError(f"{what}: values must be positive, got {num} and {den}")
    r = num / den
    k = int(round(r)) if math.isfinite(r) else 0
    if k < 1 or abs(r - k) > 1e-9 * max(1.0, abs(r)):
        raise ConfigError(f"{what}: {num} / {den} is not a positive integer")
    return k


def save_grid(t_end, dt, save_dt):
    """(steps, save_every) of a run to t_end in steps of dt that saves
    every save_dt: save_dt/dt and t_end/save_dt must both be integers, so
    that the last save falls on t_end."""
    save_every = ratio_as_int(save_dt, dt, "save_dt/dt")
    return save_every * ratio_as_int(t_end, save_dt, "t_end/save_dt"), save_every


@dataclass
class Trajectory:
    """One path's states on its save grid; times[0] = 0 carries the
    initial value."""

    times: np.ndarray          # (S+1,)
    states: np.ndarray         # (S+1, n)

    def h_norms(self):
        return np.linalg.norm(self.states, axis=-1)


@dataclass
class TrajectoryEnsemble:
    """M paths on one save grid, kept as arrays: states (M, S+1, n), NaN
    from a path's blow-up on; blow_t (M,), the blow-up times, NaN for
    paths that stayed finite."""

    states: np.ndarray
    blow_t: np.ndarray
    times: np.ndarray          # (S+1,)


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
    basis: object
    c: np.ndarray              # (M, n) current coefficients
    blow_t: np.ndarray         # (M,) blow-up times, NaN while finite
    dt: float
    save_every: int
    L: np.ndarray = None       # (M, n) diagonal linear part when semi-implicit
    denom: np.ndarray = None   # (M, n) 1 - dt*L
    step: int = 0              # global index of the next step

    def retire_nonfinite(self, c, t):
        """Per-row blow-up bookkeeping, run only when a step left a
        non-finite entry: stamp rows that just blew up with time t and
        zero every dead row."""
        newly = np.isnan(self.blow_t) & ~np.all(np.isfinite(c), axis=-1)
        self.blow_t[newly] = t
        return np.where(np.isnan(self.blow_t)[:, None], c, 0.0)

    def advance(self, increments):
        """The save rows of one chunk of increments (see _advance_block)."""
        return _advance_block(self.model, self.basis, self, increments)


def start_block(model, basis, x0, M, dt, stepper, save_every):
    """A BlockRun of M copies of P_n x0 (project_initial) at t = 0.  The
    run holds the model prepared for `basis` and M rows, and the
    semi-implicit L and 1 - dt*L broadcast to (M, n).  Every run starts
    here, so this is where a stepper of None becomes the model's default
    and an unknown one is rejected."""
    stepper = stepper or model.default_stepper
    if stepper not in STEPPERS:
        raise ConfigError(f"unknown stepper {stepper!r}")
    L = denom = None
    if stepper == "semi-implicit":
        L = model.linear_diagonal(basis)
        if L is None:
            raise UnsupportedModelNormError(
                f"{model.name} declares no diagonal linear part")
        L = np.repeat(np.asarray(L, float)[None, :], M, axis=0)
        denom = 1.0 - dt * L
    c = np.repeat(project_initial(basis, x0)[None, :], M, axis=0)
    return BlockRun(model=model.prepare(basis, M), basis=basis, c=c, dt=dt, L=L,
                    blow_t=np.full(M, np.nan), save_every=save_every, denom=denom)


def _advance_block(model, basis, run, increments):
    """Advance `run` in place through one time-major chunk of increments
    (k, M, m) and return the chunk's save rows (M, rows, n), led by the
    initial row when the chunk is the run's first.  BlockRun.advance
    passes the run's own model and basis; the steps call its prepared
    copy of the model.  Rows that turn non-finite get their blow-up time
    and are NaN on the save grid from then on."""
    increments = fit_noise_columns(increments, model.noise_modes(basis))
    model, c, L, denom = run.model, run.c, run.L, run.denom
    dt, save_every = run.dt, run.save_every
    r = int(run.step == 0)       # the next save row; row 0 of a first chunk is c
    last = (run.step + len(increments)) // save_every
    saves = np.empty((len(c), last - run.step // save_every + r, c.shape[-1]))
    saves[:, :r] = c[:, None]
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
                saves[:, r] = np.where(np.isnan(run.blow_t)[:, None], c, np.nan)
                r += 1
    run.c = c
    run.step += len(increments)
    return saves


class _Stopped(Exception):
    """A worker's way out once another has raised or the caller is
    interrupted."""


def run_blocks(M, seed, m_modes, n_steps, dt, start, advance, finish, multiple=1,
               threads=None, helper_runs=None):
    """Drive paths 0..M-1 through n_steps steps in blocks of BLOCK paths.

    For each block [lo, hi): state = start(lo, hi); advance(state, chunk)
    for every chunk of the block's noise (noise.stream_block with m_modes,
    dt and `multiple`); then, with the chunk dropped, finish(lo, hi, state).
    Returns the finish results in block order.  Blocks run on
    min(worker_count(threads), blocks) worker threads, dealt round-robin;
    before any starts, each gets one noise helper process
    (noise.start_helpers) that draws its blocks' noise ahead of the steps.

    With `helper_runs`, a function (lo, hi) -> [BlockRun, ...] that sets
    up the runs of block [lo, hi) a helper steps, each worker's helper
    also advances them on the chunks it has drawn.  Then advance(state,
    chunk, stepped) gets, for each of those runs, the pair (save rows of
    the chunk, blow-up times so far).  Without helpers (a stub
    start_helpers returning None for each) the same runs step here.

    The callbacks of one block share no state with another's.  They run
    with numpy's overflow and invalid-value warnings off: blown rows are
    NaN by design, and the experiments count them.  Once a worker raises,
    or the calling thread is interrupted, the other workers stop at their
    next chunk and the error is raised.  The helpers are reaped
    before this returns or raises; one that fails or dies raises
    NoiseHelperError."""
    if M < 1:
        raise ConfigError("M must be >= 1")
    stop = threading.Event()

    def job(lo, hi):        # the block's helper runs: chunk -> [(rows, blow_t)]
        runs = helper_runs(lo, hi)
        return lambda chunk: [(run.advance(chunk), run.blow_t) for run in runs]

    def do_block(span, helper):
        lo, hi = span
        stepped = lambda chunk: ()      # the helper runs' part of advance's arguments
        if helper_runs is not None:
            step = job(lo, hi) if helper is None else (lambda chunk: helper.receive())
            stepped = lambda chunk: (step(chunk),)
        with np.errstate(over="ignore", invalid="ignore"):
            state = start(lo, hi)
            for chunk in sn.stream_block(m_modes, n_steps, dt, seed, range(lo, hi),
                                         multiple, helper):
                if stop.is_set():
                    raise _Stopped
                advance(state, chunk, *stepped(chunk))
            del chunk   # frees the noise buffer before the block-end reductions
            return finish(lo, hi, state)

    spans = [(lo, min(lo + BLOCK, M)) for lo in range(0, M, BLOCK)]
    nw = min(worker_count(threads), len(spans))
    span_lists = [spans[w::nw] for w in range(nw)]
    helpers = sn.start_helpers(seed, m_modes, n_steps, span_lists, multiple,
                               job=None if helper_runs is None else (dt, job))

    def work(w):
        try:
            return [do_block(span, helpers[w]) for span in span_lists[w]]
        except _Stopped:
            return None
    try:
        if nw == 1:
            done = [work(0)]
        else:
            with ThreadPoolExecutor(max_workers=nw) as ex:
                try:
                    futures = [ex.submit(work, w) for w in range(nw)]
                    wait(futures, return_when=FIRST_EXCEPTION)
                finally:
                    stop.set()      # a worker raised, or the caller was interrupted
            done = [f.result() for f in futures]    # raises a failed worker's error
        return [done[j % nw][j // nw] for j in range(len(spans))]
    finally:
        sn.stop_helpers(helpers)


def solve_path(model, basis, x0, noise_path, stepper, t_end, save_dt):
    """Integrate one path driven by the given NoisePath.

    The initial value is projected onto the basis (coefficients padded or
    truncated to n_modes).  noise_path.dt_fine is the solver step; it must
    divide save_dt, which must divide t_end.
    """
    dt = noise_path.dt_fine
    steps, save_every = save_grid(t_end, dt, save_dt)
    if noise_path.n_steps < steps:
        raise ConfigError(
            f"noise path has {noise_path.n_steps} steps, need {steps}")
    m_need = model.noise_modes(basis)
    if noise_path.m_modes < m_need:
        raise ConfigError(
            f"noise path carries {noise_path.m_modes} modes, model uses {m_need}")
    run = start_block(model, basis, x0, 1, dt, stepper, save_every)
    states = run.advance(noise_path.increments[:steps, None, :])
    if np.isfinite(run.blow_t[0]):
        raise NonfiniteStateError(
            f"path {noise_path.path_id} blew up at t={run.blow_t[0]:.6g}",
            time=float(run.blow_t[0]), path_id=noise_path.path_id)
    return Trajectory(times=save_dt * np.arange(steps // save_every + 1),
                      states=states[0])


def project_initial(basis, x0):
    """Realize P_n x: pad or truncate a coefficient vector to n_modes."""
    x0 = np.asarray(x0, float).ravel()
    n = basis.n_modes
    if x0.size >= n:
        return x0[:n].copy()
    out = np.zeros(n)
    out[:x0.size] = x0
    return out


def solve_ensemble(model, basis, x0, M, seed, t_end, dt, save_dt, stepper=None,
                   threads=None):
    """M independent paths, path_id = 0..M-1, from the initial value x0,
    reproducible for a fixed M, as one (M, S+1, n) TrajectoryEnsemble of
    every block's returned save rows.  The run goes on past a blow-up: a
    path is NaN from then on, with its blow-up time in blow_t."""
    steps, save_every = save_grid(t_end, dt, save_dt)

    def advance(state, chunk):
        run, windows = state
        windows.append(run.advance(chunk))

    states, blow_t = zip(*run_blocks(
        M, seed, model.noise_modes(basis), steps, dt,
        lambda lo, hi: (start_block(model, basis, x0, hi - lo, dt, stepper,
                                    save_every), []),
        advance,
        lambda lo, hi, state: (np.concatenate(state[1], axis=1), state[0].blow_t),
        threads=threads))
    states = np.concatenate(states)
    return TrajectoryEnsemble(states=states, blow_t=np.concatenate(blow_t),
                              times=save_dt * np.arange(states.shape[1]))


def trajectory_csv_rows(traj, model, basis):
    """CSV export: t, c_1..c_n, h_norm, v_norm.  A saved norm that overflows
    is a blow-up, as in the experiments: NonfiniteStateError at its time."""
    header = ["t"] + [f"c_{k+1}" for k in range(basis.n_modes)] + ["h_norm", "v_norm"]
    rows = [header]
    with np.errstate(over="ignore", invalid="ignore"):
        h, v = traj.h_norms(), sb.v_norm(basis, model, traj.states)
    bad = ~(np.isfinite(h) & np.isfinite(v))
    if bad.any():
        t = float(traj.times[np.argmax(bad)])
        raise NonfiniteStateError(f"the saved norms overflow at t={t:.6g}", time=t)
    for i, t in enumerate(traj.times):
        rows.append([repr(float(t))] + [repr(float(x)) for x in traj.states[i]]
                    + [repr(float(h[i])), repr(float(v[i]))])
    return rows
