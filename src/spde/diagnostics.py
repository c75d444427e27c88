"""Desk-scale statistical experiments behind the qualitative theory.

Each experiment produces a DiagnosticTable: keyed Monte Carlo estimates
with standard errors and, where a rate is asserted, a log-log fit.
Exploded paths are discarded and counted rather than truncated by
stopping times; the count is itself part of the diagnostic.  sup over
[0, T] is read on the save grid, time integrals use the trapezoid rule
on the save grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as sb
from . import noise as sn
from . import solver as sv
from .errors import InadmissiblePError, InvalidDeltaError, NonfiniteStateError

# sub-stream offsets so experiments sharing a seed stay decoupled
_PERTURB_STREAM = 7919

PROBE_MODES = ("dt-refinement", "stepper", "identical")

REDUCE_VALUES = 2 ** 20     # grid values per slice of paths: 8 MiB per temporary


@dataclass
class DiagnosticTable:
    experiment: str
    rows: list                      # (key, estimate, std_error, M)
    fitted_rate: tuple = None       # (slope, intercept, r2)
    extra: dict = field(default_factory=dict)

    def estimates(self):
        return np.array([r[1] for r in self.rows])

    def std_errors(self):
        return np.array([r[2] for r in self.rows])

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
    """Least-squares slope/intercept/r2 of log y against log x."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return (0.0, 0.0, 0.0)
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


def _alive(ensemble):
    """The (M,) mask of paths that did not blow up, and the blown count;
    an ensemble in which every path blew up has nothing to estimate from."""
    alive = np.isnan(ensemble.blow_t)
    n_blown = ensemble.M - int(np.count_nonzero(alive))
    if not alive.any():
        first = float(np.min(ensemble.blow_t))
        raise NonfiniteStateError(
            f"all {n_blown} paths blew up (the first at t={first:.6g})", time=first)
    return alive, n_blown


def _survivor_slices(ensemble, alive, width):
    """The surviving paths' (k, S+1, n) states, k paths at a time with
    k * (S+1) * width at most REDUCE_VALUES (at least one path), so that
    a reduction's temporaries of last axis `width` stay bounded.  Each
    path is reduced as a one-path array would be: the row reductions run
    along the last axis and the matmuls path by path."""
    idx = np.flatnonzero(alive)
    k = max(1, REDUCE_VALUES // (ensemble.states.shape[1] * width))
    for lo in range(0, idx.size, k):
        yield ensemble.states[idx[lo:lo + k]]


def _first_blowups(runs):
    """Per path, the earliest blow-up time over `runs` (BlockRuns of the
    same paths), NaN where every run stayed finite."""
    return np.fmin.reduce([run.blow_t for run in runs])


def _survivor_rows(keys, values, blow_t):
    """Table rows (key, estimate, std error, M) from per-path statistics
    values (rows, M) over the paths that did not blow up (blow_t NaN).
    A survivor whose statistic is not finite in some row (its states near
    overflow) counts as blown and leaves every row.  Returns the rows and
    the blown count; with no path left, raises NonfiniteStateError."""
    keep = np.isnan(blow_t) & np.all(np.isfinite(values), axis=0)
    n_blown = int(np.count_nonzero(~keep))
    if not keep.any():
        times = blow_t[~np.isnan(blow_t)]
        first = float(times.min()) if times.size else None
        raise NonfiniteStateError(
            f"all {n_blown} paths blew up or overflowed the statistic", time=first)
    rows = [(float(k), *_mean_se(v[keep])) for k, v in zip(keys, values)]
    return rows, n_blown


def check_moment_exponent(model, p):
    """Reject a moment exponent p outside [2, p_max); p_max is finite only
    for Part II models, whose noise bounds the admissible moments."""
    hyp = getattr(model, "hypothesis", None)
    p_max = hyp.admissible_p_max(model.alpha) if hyp is not None and hyp.part2 \
        else math.inf
    if not 2.0 <= p < p_max:
        raise InadmissiblePError(
            f"p={p} outside admissible range [2, {p_max:.6g}) for {model.name}")


def moment_report(ensemble, p, alpha, model=None, basis=None):
    """Monte Carlo moments E sup_t ||X||_H^p and E (int ||X||_V^alpha dt)^{p/2}."""
    model = model or ensemble.model
    basis = basis or ensemble.basis
    check_moment_exponent(model, p)
    alive, n_blown = _alive(ensemble)
    # the last powers are np.float64 scalar powers, as per path before;
    # numpy's array power can round differently
    sup_p, vint_p = [], []
    for states in _survivor_slices(ensemble, alive, basis.grid_size):
        sup = np.max(np.linalg.norm(states, axis=-1), axis=1)
        vint = np.trapezoid(sb.v_norm(basis, model, states) ** alpha,
                            dx=ensemble.save_dt, axis=1)
        sup_p += [s ** p for s in sup]
        vint_p += [v ** (p / 2.0) for v in vint]
    rows = [(0.0, *_mean_se(sup_p)), (1.0, *_mean_se(vint_p))]
    return DiagnosticTable(
        experiment="moments", rows=rows,
        extra={"p": p, "alpha": alpha, "n_blown": n_blown,
               "row_keys": ["sup_h_pow_p", "v_int_pow_p_half"]})


def equicontinuity_statistic(ensemble, delta_list, alpha, model=None, basis=None):
    """Time-shift statistic E int_0^{T-delta} ||X(t+delta) - X(t)||_H^alpha dt.

    A survivor whose integral is not finite at some delta (its states
    near overflow) counts as blown and leaves every row."""
    alive, n_blown = _alive(ensemble)
    save_dt = ensemble.save_dt
    n_saves = ensemble.times.size - 1
    shifts = []
    for d in delta_list:
        k = int(round(d / save_dt))
        if k < 1 or abs(d - k * save_dt) > 1e-9 * max(d, save_dt) or k > n_saves:
            raise InvalidDeltaError(f"delta {d} is not a usable multiple of save_dt")
        shifts.append(k)
    integs = [[] for _ in shifts]
    with np.errstate(over="ignore", invalid="ignore"):
        for states in _survivor_slices(ensemble, alive, ensemble.states.shape[-1]):
            for out, k in zip(integs, shifts):
                diff = states[:, k:, :] - states[:, :-k or None, :]
                vals = np.sum(diff * diff, axis=-1) ** (alpha / 2.0)  # (paths, S+1-k)
                out.append(np.trapezoid(vals, dx=save_dt, axis=1))
    integs = [np.concatenate(out) for out in integs]
    finite = np.all(np.isfinite(integs), axis=0)
    n_blown += int(np.count_nonzero(~finite))
    if not finite.any():
        raise NonfiniteStateError(
            f"all {n_blown} paths blew up or overflowed the time-shift statistic")
    rows = [(float(d), *_mean_se(integ[finite]))
            for d, integ in zip(delta_list, integs)]
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="equicontinuity", rows=rows, fitted_rate=fit,
                           extra={"alpha": alpha, "n_blown": n_blown})


def galerkin_convergence(model, x0, n_levels, M, seed, t_end, dt, save_dt=None,
                         alpha=None, stepper=None, grid_factor=4, m_modes=None,
                         threads=None):
    """Cauchy differences between adjacent Galerkin levels under common noise.

    One fine noise path per path_id carries the finest level's mode count
    (or m_modes, when the noise is deliberately confined to fewer
    directions); every level consumes its leading columns, so all levels
    see the same realization.  States are compared after zero-padding to
    the finer space; rows are keyed by the coarser dimension n and
    estimate E int_0^T ||X_n - X_2n||_H^alpha dt over the paths that
    stayed finite at every level; the others are counted in n_blown
    (_survivor_rows).  Blocks of paths run on `threads` workers
    (solver.run_blocks); the table does not depend on the count.
    """
    alpha = alpha if alpha is not None else model.alpha
    save_dt = save_dt if save_dt is not None else dt
    stepper = stepper or model.default_stepper
    levels = sorted(n_levels)
    bases = {n: model.make_basis(n, grid_factor * n) for n in levels}
    m_fine = m_modes if m_modes is not None else max(
        model.noise_modes(bases[n]) for n in levels)
    steps = sv.ratio_as_int(t_end, dt, "t_end/dt")
    save_every = sv.ratio_as_int(save_dt, dt, "save_dt/dt")
    x0 = np.asarray(x0, float)

    def start(lo, hi):
        return {n: sv.start_block(model, bases[n], sv.project_initial(bases[n], x0),
                                  hi - lo, steps, dt, stepper, save_every)
                for n in levels}

    def advance(runs, chunk):
        for n in levels:
            sv._advance_block(model, bases[n], runs[n], chunk)

    def finish(lo, hi, runs):
        errs = []
        for a, bn in zip(levels[:-1], levels[1:]):
            diff = runs[bn].saved.copy()
            diff[:, :, :a] -= runs[a].saved
            vals = np.sum(diff * diff, axis=-1) ** (alpha / 2.0)
            errs.append(np.trapezoid(vals, dx=save_dt, axis=1))
        return errs, _first_blowups(runs.values())

    errs, blow = zip(*sv.run_blocks(M, seed, m_fine, steps, dt, start, advance,
                                    finish, threads=threads))
    rows, n_blown = _survivor_rows(levels[:-1], np.concatenate(errs, axis=1),
                                   np.concatenate(blow))
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="converge", rows=rows, fitted_rate=fit,
                           extra={"alpha": alpha, "levels": list(map(int, levels)),
                                  "n_blown": n_blown})


def initial_data_continuity(model, basis, x, direction, perturbation_sizes, p,
                            M, seed, t_end, dt, save_dt=None, stepper=None,
                            threads=None):
    """E sup_t ||X(t, x + eps d) - X(t, x)||_H^p against eps, common noise.
    Blocks of paths run on `threads` workers (solver.run_blocks)."""
    save_dt = save_dt if save_dt is not None else dt
    stepper = stepper or model.default_stepper
    steps = sv.ratio_as_int(t_end, dt, "t_end/dt")
    save_every = sv.ratio_as_int(save_dt, dt, "save_dt/dt")
    m = model.noise_modes(basis)
    d = sv.project_initial(basis, direction)
    x0 = sv.project_initial(basis, x)
    starts = [x0] + [x0 + e * d for e in perturbation_sizes]

    def start(lo, hi):
        runs = [sv.start_block(model, basis, c0, hi - lo, steps, dt, stepper,
                               save_every, window=True) for c0 in starts]
        # running sup over the save rows of each chunk: only (M,) maxima
        # outlive a chunk
        return runs, np.full((len(perturbation_sizes), hi - lo), -np.inf)

    def advance(state, chunk):
        (base, *perts), tops = state
        sv._advance_block(model, basis, base, chunk)
        base_rows = base.pop_saves()
        for top, run in zip(tops, perts):
            sv._advance_block(model, basis, run, chunk)
            diff = run.pop_saves() - base_rows
            np.maximum(top, _row_max(np.linalg.norm(diff, axis=-1)), out=top)

    def finish(lo, hi, state):
        runs, tops = state
        return tops ** p, _first_blowups(runs)

    sups, blow = zip(*sv.run_blocks(M, seed, m, steps, dt, start, advance, finish,
                                    threads=threads))
    rows, n_blown = _survivor_rows(perturbation_sizes, np.concatenate(sups, axis=1),
                                   np.concatenate(blow))
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="continuity", rows=rows, fitted_rate=fit,
                           extra={"p": p, "direction_norm": float(np.linalg.norm(d)),
                                  "n_blown": n_blown})


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
    stepper = stepper or model.default_stepper
    dts = sorted(dt_levels, reverse=True)
    for d in dts:
        sv.ratio_as_int(t_end, d, "t_end/dt_level")
    fine_dt = dts[-1] / 2.0
    steps_fine = sv.ratio_as_int(t_end, fine_dt, "t_end/fine_dt")
    save_dt = save_dt if save_dt is not None else dts[0]
    m = model.noise_modes(basis)
    x0 = sv.project_initial(basis, x0)

    # the two runs compared at each dt level: (step, coarsening factor of
    # the fine path, stepper, save_every)
    pairs = {}
    for d in dts:
        f1 = sv.ratio_as_int(d, fine_dt, "dt_level/fine_dt")
        se1 = sv.ratio_as_int(save_dt, d, "save_dt/dt_level")
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
        runs = {d: [sv.start_block(model, basis, x0, hi - lo, steps_fine // f, h, st,
                                   se, window=True)
                    for h, f, st, se in pair]
                for d, pair in pairs.items()}
        return runs, {d: np.full(hi - lo, -np.inf) for d in dts}

    def advance(state, chunk):
        runs, tops = state
        coarse = sn.coarsen_chunk(chunk, factors)
        for d, pair in pairs.items():
            for run, (_, f, _, _) in zip(runs[d], pair):
                sv._advance_block(model, basis, run, coarse[f])
            diff = runs[d][0].pop_saves() - runs[d][1].pop_saves()
            np.maximum(tops[d], _row_max(np.sum(diff * diff, axis=-1)), out=tops[d])

    def finish(lo, hi, state):
        runs, tops = state
        return ([tops[d] for d in dts],
                _first_blowups([run for pair in runs.values() for run in pair]))

    # chunks hold whole coarse steps of every level
    tops, blow = zip(*sv.run_blocks(M, seed, m, steps_fine, fine_dt, start, advance,
                                    finish, multiple=math.lcm(*factors),
                                    threads=threads))
    rows, n_blown = _survivor_rows(dts, np.concatenate(tops, axis=1),
                                   np.concatenate(blow))
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="uniqueness", rows=rows, fitted_rate=fit,
                           extra={"mode": mode, "n_blown": n_blown})


def write_table(table, csv_path):
    """The experiment's table as one CSV."""
    with open(csv_path, "w", newline="") as f:
        for r in table.csv_rows():
            f.write(",".join(r) + "\n")
