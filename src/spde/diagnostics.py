"""Desk-scale statistical experiments behind the qualitative theory.

Each of the five experiments takes a model and produces a
DiagnosticTable: keyed Monte Carlo estimates with standard errors and,
where a rate is asserted, a log-log fit.  Each runs its paths in blocks
through solver.run_blocks and reduces a block to per-path statistics
before it lets the block go, so memory is bounded in the path count M.
Every run is windowed: BlockRun.advance (solver) returns each chunk's
save rows, and the experiment folds them into per-path scalars before
the next chunk, as running maxima (moments, continuity, uniqueness) or
as per-row values integrated at the block's end (moments, converge,
equicontinuity), so memory does not grow with the number of saves
either.
Converge steps its coarser levels on each block worker's noise helper
process (solver.run_blocks), on the normals the helper draws; the helper
sends their save rows and blow-up times so far in one message per
chunk, and the worker steps the finest level.
Exploded paths are discarded and counted rather than truncated by
stopping times; the count is itself part of the diagnostic
(_survivor_rows).  sup over [0, T] is read on the save grid, time
integrals use the trapezoid rule on the save grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as sb
from . import noise as sn
from . import solver as sv
from .errors import InadmissiblePError, InvalidDeltaError, NonfiniteStateError

PROBE_MODES = ("dt-refinement", "stepper", "identical")


@dataclass
class DiagnosticTable:
    experiment: str
    rows: list                      # (key, estimate, std_error, M)
    fitted_rate: tuple = None       # (slope, intercept, r2)
    extra: dict = field(default_factory=dict)

    def csv_rows(self):
        out = [["key", "estimate", "std_error", "M"]]
        for k, est, se, m in self.rows:
            out.append([repr(float(k)), repr(float(est)), repr(float(se)), str(int(m))])
        return out

    def summary_dict(self):
        d = {"experiment": self.experiment,
             "rows": [[float(k), float(e), float(s), int(m)] for k, e, s, m in self.rows]}
        if self.fitted_rate is not None:
            d["fitted_rate"] = {"slope": self.fitted_rate[0],
                                "intercept": self.fitted_rate[1],
                                "r2": self.fitted_rate[2]}
        d.update({k: v for k, v in self.extra.items()})
        return d


def loglog_fit(x, y):
    """Least-squares slope/intercept/r2 of log y against log x, or None
    with fewer than two positive points to fit."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return None
    lx, ly = np.log(x[keep]), np.log(y[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    res = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(res ** 2)) / ss_tot
    return (float(slope), float(intercept), float(r2))


def _mean_se(values):
    """Mean, standard error and count.  np.std squares deviations, which
    overflow above about 1e154; dividing by 2**k first is exact, so the
    result keeps its bits wherever the unscaled form is finite.  frexp
    gives k = 0 for a zero, NaN or infinite maximum."""
    values = np.asarray(values, float)
    m = values.size
    est = float(np.mean(values))
    se = 0.0
    if m > 1:
        k = math.frexp(np.max(np.abs(values)))[1]
        se = float(np.ldexp(np.std(np.ldexp(values, -k), ddof=1), k) / np.sqrt(m))
    return est, se, m


def _row_max(vals):
    """Per-path max of (M, rows) values; -inf when a chunk saved no row.
    NaN (a blown path) propagates, as np.max over the whole grid would."""
    return np.max(vals, axis=1, initial=-np.inf)


def _shift_power(diff, alpha):
    """||diff||_H^alpha of every save row of (paths, rows, n) differences."""
    return np.sum(diff * diff, axis=-1) ** (alpha / 2.0)


def _trapezoid(parts, dx):
    """Per-path trapezoid integral of (paths, rows) values given chunk by
    chunk: one np.trapezoid over the joined grid, as over a whole one."""
    return np.trapezoid(np.concatenate(parts, axis=1), dx=dx, axis=1)


def _first_blowups(runs):
    """Per path, the earliest blow-up time over `runs` (BlockRuns of the
    same paths), NaN where every run stayed finite."""
    return np.fmin.reduce([run.blow_t for run in runs])


def _first_blowup_t(blow_t):
    """The earliest blow-up time among blow_t, None when every path stayed
    finite."""
    times = blow_t[~np.isnan(blow_t)]
    return float(times.min()) if times.size else None


def _survivor_rows(keys, values, blow_t):
    """Table rows (key, estimate, std error, M) from per-path statistics
    values (rows, M) over the paths that did not blow up (blow_t NaN).
    A survivor whose statistic is not finite in some row (its states near
    overflow) counts as blown and leaves every row.  Returns the rows and
    the blown count; with no path left, raises NonfiniteStateError."""
    keep = np.isnan(blow_t) & np.all(np.isfinite(values), axis=0)
    n_blown = int(np.count_nonzero(~keep))
    if not keep.any():
        raise NonfiniteStateError(
            f"all {n_blown} paths blew up or overflowed the statistic",
            time=_first_blowup_t(blow_t))
    rows = [(float(k), *_mean_se(v[keep])) for k, v in zip(keys, values)]
    return rows, n_blown


def _table(experiment, keys, blocks, fit=True, **extra):
    """The DiagnosticTable of run_blocks results [(values (rows, k),
    blow_t (k,))]: rows over the survivors (_survivor_rows), their
    log-log fit when `fit` (None below two points), and among the extras
    n_blown and first_blowup_t, the earliest blow-up time or None."""
    values, blow_t = zip(*blocks)
    blow_t = np.concatenate(blow_t)
    rows, n_blown = _survivor_rows(keys, np.concatenate(values, axis=1), blow_t)
    rate = loglog_fit([r[0] for r in rows], [r[1] for r in rows]) if fit else None
    return DiagnosticTable(experiment=experiment, rows=rows, fitted_rate=rate,
                           extra={**extra, "n_blown": n_blown,
                                  "first_blowup_t": _first_blowup_t(blow_t)})


def check_moment_exponent(model, p):
    """Reject a moment exponent p outside [2, p_max); p_max is finite only
    for Part II models, whose noise bounds the admissible moments."""
    hyp = getattr(model, "hypothesis", None)
    p_max = hyp.admissible_p_max() if hyp is not None and hyp.part2 else math.inf
    if not 2.0 <= p < p_max:
        raise InadmissiblePError(
            f"p={p} outside admissible range [2, {p_max:.6g}) for {model.name}")


def moment_report(model, basis, x0, p, alpha, M, seed, t_end, dt, save_dt,
                  stepper=None, threads=None):
    """Monte Carlo moments E sup_t ||X||_H^p and E (int ||X||_V^alpha dt)^{p/2}
    over M paths from x0, one windowed run per block (solver.run_blocks):
    each chunk's save rows update a running sup of ||X||_H and add their
    ||X||_V^alpha, one v_norm call per chunk, to the per-path integrand."""
    check_moment_exponent(model, p)
    steps, save_every = sv.save_grid(t_end, dt, save_dt)

    def start(lo, hi):
        run = sv.start_block(model, basis, x0, hi - lo, dt, stepper, save_every)
        # (run, running sup of ||X||_H, the (k, rows) ||X||_V^alpha of each chunk)
        return run, np.full(hi - lo, -np.inf), []

    def advance(state, chunk):
        run, top, parts = state
        rows = run.advance(chunk)
        np.maximum(top, _row_max(np.linalg.norm(rows, axis=-1)), out=top)
        parts.append(sb.v_norm(basis, model, rows) ** alpha)

    def finish(lo, hi, state):
        run, top, parts = state
        # the powers are np.float64 scalar powers, as per path; numpy's
        # array power can round differently.  Blown paths give NaN and a
        # survivor's power can overflow; _survivor_rows counts both.
        return (np.array([[s ** p for s in top],
                          [v ** (p / 2.0) for v in _trapezoid(parts, save_dt)]]),
                run.blow_t)

    return _table("moments", [0.0, 1.0],
                  sv.run_blocks(M, seed, model.noise_modes(basis), steps, dt, start,
                                advance, finish, threads=threads),
                  fit=False, p=p, alpha=alpha,
                  row_keys=["sup_h_pow_p", "v_int_pow_p_half"])


def delta_shifts(delta_list, save_dt, t_end):
    """The save-grid shifts k = delta / save_dt of a run to t_end: each
    delta must be a positive multiple of save_dt no longer than t_end."""
    n_saves = round(t_end / save_dt)
    shifts = []
    for d in delta_list:
        k = int(round(d / save_dt))
        if k < 1 or abs(d - k * save_dt) > 1e-9 * max(d, save_dt):
            raise InvalidDeltaError(f"delta {d} is not a multiple of save_dt {save_dt}")
        if k > n_saves:
            raise InvalidDeltaError(f"delta {d} is longer than the run, t_end {t_end}")
        shifts.append(k)
    return shifts


def equicontinuity_statistic(model, basis, x0, delta_list, alpha, M, seed, t_end, dt,
                             save_dt, stepper=None, threads=None):
    """Time-shift statistic E int_0^{T-delta} ||X(t+delta) - X(t)||_H^alpha dt
    over M paths from x0, one windowed run per block (solver.run_blocks).

    Each chunk's save rows are paired with the rows max(shifts) before
    them: a tail of that many rows is all that outlives a chunk, with the
    per-row values of each shift.  A survivor whose integral is not finite
    at some delta (its states near overflow) counts as blown and leaves
    every row (_survivor_rows)."""
    shifts = delta_shifts(delta_list, save_dt, t_end)
    steps, save_every = sv.save_grid(t_end, dt, save_dt)
    depth = max(shifts)

    def start(lo, hi):
        run = sv.start_block(model, basis, x0, hi - lo, dt, stepper, save_every)
        # (run, tail of the latest save rows, per-shift lists of (k, rows) values)
        return [run, np.empty((hi - lo, 0, basis.n_modes)), [[] for _ in shifts]]

    def advance(state, chunk):
        run, tail, parts = state
        rows = np.concatenate([tail, run.advance(chunk)], axis=1)
        for out, k in zip(parts, shifts):
            # the pairs (i - k, i) whose later row i came in this chunk
            first = max(tail.shape[1], k)
            if first < rows.shape[1]:
                out.append(_shift_power(rows[:, first:] - rows[:, first - k:-k],
                                        alpha))
        state[1] = rows[:, -depth:].copy()

    def finish(lo, hi, state):
        run, _, parts = state
        return [_trapezoid(out, save_dt) for out in parts], run.blow_t

    return _table("equicontinuity", delta_list,
                  sv.run_blocks(M, seed, model.noise_modes(basis), steps, dt, start,
                                advance, finish, threads=threads),
                  alpha=alpha)


def galerkin_convergence(model, x0, n_levels, M, seed, t_end, dt, save_dt,
                         alpha=None, stepper=None, m_modes=None, threads=None):
    """Cauchy differences between adjacent Galerkin levels under common noise.

    One fine noise path per path_id carries the finest level's mode count
    (or m_modes, when the noise is deliberately confined to fewer
    directions); every level consumes its leading columns, so all levels
    see the same realization.  States are compared after zero-padding to
    the finer space; rows are keyed by the coarser dimension n and
    estimate E int_0^T ||X_n - X_2n||_H^alpha dt over the paths that
    stayed finite at every level; the others are counted in n_blown
    (_survivor_rows).  Blocks of paths run on `threads` workers
    (solver.run_blocks); the table does not depend on the count.  Each
    worker steps the finest level on the noise its helper process has
    drawn, and the helper steps every other level on the same normals;
    their rows enter the Cauchy pairs beside the worker's.
    """
    alpha = alpha if alpha is not None else model.alpha
    levels = sorted(n_levels)
    bases = {n: model.make_basis(n) for n in levels}
    m_fine = m_modes if m_modes is not None else max(
        model.noise_modes(bases[n]) for n in levels)
    steps, save_every = sv.save_grid(t_end, dt, save_dt)
    *below, top = levels

    def start_level(n, lo, hi):
        return sv.start_block(model, bases[n], x0, hi - lo, dt, stepper, save_every)

    def start(lo, hi):
        # the finest level's run, per level pair the (k, rows) values of each
        # chunk's save rows, and the coarser levels' latest blow-up times
        return [start_level(top, lo, hi), [[] for _ in below], ()]

    def coarser(lo, hi):
        # the levels the block's helper process steps
        return [start_level(n, lo, hi) for n in below]

    def advance(state, chunk, stepped):
        run, parts, _ = state
        below_rows, state[2] = zip(*stepped)
        rows = dict(zip(below, below_rows))
        rows[top] = run.advance(chunk)
        for out, a, bn in zip(parts, below, levels[1:]):
            diff = rows[bn].copy()
            diff[:, :, :a] -= rows[a]
            out.append(_shift_power(diff, alpha))

    def finish(lo, hi, state):
        run, parts, below_blow_t = state
        return ([_trapezoid(out, save_dt) for out in parts],
                np.fmin.reduce([*below_blow_t, run.blow_t]))

    return _table("converge", below,
                  sv.run_blocks(M, seed, m_fine, steps, dt, start, advance, finish,
                                threads=threads, helper_runs=coarser),
                  alpha=alpha, levels=list(map(int, levels)))


def initial_data_continuity(model, basis, x, direction, perturbation_sizes, p,
                            M, seed, t_end, dt, save_dt, stepper=None, threads=None):
    """E sup_t ||X(t, x + eps d) - X(t, x)||_H^p against eps, common noise.
    Blocks of paths run on `threads` workers (solver.run_blocks)."""
    steps, save_every = sv.save_grid(t_end, dt, save_dt)
    m = model.noise_modes(basis)
    d = sv.project_initial(basis, direction)
    x0 = sv.project_initial(basis, x)
    starts = [x0] + [x0 + e * d for e in perturbation_sizes]

    def start(lo, hi):
        runs = [sv.start_block(model, basis, c0, hi - lo, dt, stepper, save_every)
                for c0 in starts]
        # running sup over the save rows of each chunk: only (M,) maxima
        # outlive a chunk
        return runs, np.full((len(perturbation_sizes), hi - lo), -np.inf)

    def advance(state, chunk):
        (base, *perts), tops = state
        base_rows = base.advance(chunk)
        for top, run in zip(tops, perts):
            diff = run.advance(chunk) - base_rows
            np.maximum(top, _row_max(np.linalg.norm(diff, axis=-1)), out=top)

    def finish(lo, hi, state):
        runs, tops = state
        return tops ** p, _first_blowups(runs)

    return _table("continuity", perturbation_sizes,
                  sv.run_blocks(M, seed, m, steps, dt, start, advance, finish,
                                threads=threads),
                  p=p, direction_norm=float(np.linalg.norm(d)))


def uniqueness_probe(model, basis, x0, M, seed, dt_levels, t_end, save_dt=None,
                     stepper=None, mode="dt-refinement", threads=None):
    """Common-noise discrepancy between two discretizations of one equation.

    mode "dt-refinement": at each dt in dt_levels, compare dt against dt/2
    (both driven by block sums of one fine path).
    mode "stepper": at each dt, compare explicit-tamed vs semi-implicit.
    mode "identical": same stepper, same dt, twice (difference must be 0).
    Rows keyed by dt estimate E sup_t ||difference||_H^2.  Blocks of paths
    run on `threads` workers (solver.run_blocks).
    """
    if mode not in PROBE_MODES:
        raise InvalidDeltaError(f"unknown probe mode {mode!r}")
    dts = sorted(dt_levels, reverse=True)
    fine_dt = dts[-1] / 2.0
    steps_fine = sv.ratio_as_int(t_end, fine_dt, "t_end/fine_dt")
    save_dt = save_dt if save_dt is not None else dts[0]
    m = model.noise_modes(basis)

    # the two runs compared at each dt level: (step, coarsening factor of
    # the fine path, stepper, save_every)
    pairs = {}
    for d in dts:
        f1 = sv.ratio_as_int(d, fine_dt, "dt_level/fine_dt")
        _, se1 = sv.save_grid(t_end, d, save_dt)
        first = (d, f1, "explicit-tamed" if mode == "stepper" else stepper, se1)
        if mode == "dt-refinement":
            f2 = sv.ratio_as_int(d / 2.0, fine_dt, "dt_level/2/fine_dt")
            second = (d / 2.0, f2, stepper, 2 * se1)
        elif mode == "stepper":
            second = (d, f1, "semi-implicit", se1)
        else:
            second = first
        pairs[d] = (first, second)
    factors = {f for pair in pairs.values() for _, f, _, _ in pair}

    def start(lo, hi):
        runs = {d: [sv.start_block(model, basis, x0, hi - lo, h, st, se)
                    for h, f, st, se in pair]
                for d, pair in pairs.items()}
        return runs, {d: np.full(hi - lo, -np.inf) for d in dts}

    def advance(state, chunk):
        runs, tops = state
        coarse = sn.coarsen_chunk(chunk, factors)
        for d, pair in pairs.items():
            first, second = (run.advance(coarse[f])
                             for run, (_, f, _, _) in zip(runs[d], pair))
            diff = first - second
            np.maximum(tops[d], _row_max(np.sum(diff * diff, axis=-1)), out=tops[d])

    def finish(lo, hi, state):
        runs, tops = state
        return ([tops[d] for d in dts],
                _first_blowups([run for pair in runs.values() for run in pair]))

    # chunks hold whole coarse steps of every level
    return _table("uniqueness", dts,
                  sv.run_blocks(M, seed, m, steps_fine, fine_dt, start, advance, finish,
                                multiple=math.lcm(*factors), threads=threads),
                  mode=mode)


def write_table(table, csv_path):
    """The experiment's table as one CSV."""
    with open(csv_path, "w", newline="") as f:
        for r in table.csv_rows():
            f.write(",".join(r) + "\n")
