"""Desk-scale statistical experiments behind the qualitative theory.

Each experiment produces a DiagnosticTable: keyed Monte Carlo estimates
with standard errors and, where a rate is asserted, a log-log fit.
Exploded paths are discarded and counted rather than truncated by
stopping times; the count is itself part of the diagnostic.  sup over
[0, T] is read on the save grid, time integrals use the trapezoid rule
on the save grid.
"""

import json
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
    values = np.asarray(values, float)
    m = values.size
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return est, se, m


def _row_max(vals):
    """Per-path max of (M, rows) values; -inf when a chunk saved no row.
    NaN (a blown path) propagates, as np.max over the whole grid would."""
    return np.max(vals, axis=1, initial=-np.inf)


def _alive(ensemble):
    """Surviving trajectories and the blown count; an ensemble in which
    every path blew up has nothing to estimate from."""
    trajs = [t for t in ensemble.trajectories if t.blew_up_at is None]
    n_blown = ensemble.M - len(trajs)
    if not trajs:
        first = min(t.blew_up_at for t in ensemble.trajectories)
        raise NonfiniteStateError(
            f"all {n_blown} paths blew up (the first at t={first:.6g})", time=first)
    return trajs, n_blown


def moment_report(ensemble, p, alpha, model=None, basis=None):
    """Monte Carlo moments E sup_t ||X||_H^p and E (int ||X||_V^alpha dt)^{p/2}."""
    model = model or ensemble.model
    basis = basis or ensemble.basis
    if p < 2:
        raise InadmissiblePError("moment exponent p must be >= 2")
    hyp = getattr(model, "hypothesis", None)
    if hyp is not None and hyp.part2:
        p_max = hyp.admissible_p_max(model.alpha)
        if not p < p_max:
            raise InadmissiblePError(
                f"p={p} outside admissible range [2, {p_max:.6g}) for {model.name}")
    trajs, n_blown = _alive(ensemble)
    save_dt = trajs[0].save_dt
    sup_p, vint_p = [], []
    for t in trajs:
        h = t.h_norms()
        sup_p.append(np.max(h) ** p)
        v = sb.v_norm(basis, model, t.states)
        vint_p.append(np.trapezoid(v ** alpha, dx=save_dt) ** (p / 2.0))
    rows = [(0.0, *_mean_se(sup_p)), (1.0, *_mean_se(vint_p))]
    return DiagnosticTable(
        experiment="moments", rows=rows,
        extra={"p": p, "alpha": alpha, "n_blown": n_blown,
               "row_keys": ["sup_h_pow_p", "v_int_pow_p_half"]})


def equicontinuity_statistic(ensemble, delta_list, alpha, model=None, basis=None):
    """Time-shift statistic E int_0^{T-delta} ||X(t+delta) - X(t)||_H^alpha dt."""
    trajs, n_blown = _alive(ensemble)
    save_dt = trajs[0].save_dt
    n_saves = trajs[0].times.size - 1
    shifts = []
    for d in delta_list:
        k = int(round(d / save_dt))
        if k < 1 or abs(d - k * save_dt) > 1e-9 * max(d, save_dt) or k > n_saves:
            raise InvalidDeltaError(f"delta {d} is not a usable multiple of save_dt")
        shifts.append(k)
    states = np.stack([t.states for t in trajs])     # (M, S+1, n)
    rows = []
    for d, k in zip(delta_list, shifts):
        diff = states[:, k:, :] - states[:, :-k or None, :]
        vals = np.sum(diff * diff, axis=-1) ** (alpha / 2.0)      # (M, S+1-k)
        integ = np.trapezoid(vals, dx=save_dt, axis=1)
        rows.append((float(d), *_mean_se(integ)))
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="equicontinuity", rows=rows, fitted_rate=fit,
                           extra={"alpha": alpha, "n_blown": n_blown})


def galerkin_convergence(model, x0, n_levels, M, seed, t_end, dt, save_dt=None,
                         alpha=None, stepper=None, grid_factor=4, m_modes=None):
    """Cauchy differences between adjacent Galerkin levels under common noise.

    One fine noise path per path_id carries the finest level's mode count
    (or m_modes, when the noise is deliberately confined to fewer
    directions); every level consumes its leading columns, so all levels
    see the same realization.  States are compared after zero-padding to
    the finer space; rows are keyed by the coarser dimension n and
    estimate E int_0^T ||X_n - X_2n||_H^alpha dt.
    """
    alpha = alpha if alpha is not None else model.alpha
    save_dt = save_dt if save_dt is not None else dt
    stepper = stepper or model.default_stepper
    levels = sorted(n_levels)
    bases = {n: model.make_basis(n, grid_factor * n) for n in levels}
    m_fine = m_modes if m_modes is not None else max(
        model.noise_modes(bases[n]) for n in levels)
    steps = sv._ratio_as_int(t_end, dt, "t_end/dt")
    save_every = sv._ratio_as_int(save_dt, dt, "save_dt/dt")
    x0 = np.asarray(x0, float)

    errs = {n: [] for n in levels[:-1]}
    for lo in range(0, M, sv.BLOCK):
        hi = min(lo + sv.BLOCK, M)
        runs = {n: sv.start_block(model, bases[n], sv.project_initial(bases[n], x0),
                                  hi - lo, steps, dt, stepper, save_every)
                for n in levels}
        for chunk in sn.stream_block(m_fine, steps, dt, seed, range(lo, hi)):
            for n in levels:
                sv._advance_block(model, bases[n], runs[n], chunk)
        for n in levels:
            blow = runs[n].blow_t
            if np.any(np.isfinite(blow)):
                raise NonfiniteStateError("blow-up in convergence study",
                                          time=float(np.nanmin(blow)))
        for a, bn in zip(levels[:-1], levels[1:]):
            diff = runs[bn].saved.copy()
            diff[:, :, :a] -= runs[a].saved
            vals = np.sum(diff * diff, axis=-1) ** (alpha / 2.0)
            errs[a].extend(np.trapezoid(vals, dx=save_dt, axis=1))

    rows = [(float(n), *_mean_se(errs[n])) for n in levels[:-1]]
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="converge", rows=rows, fitted_rate=fit,
                           extra={"alpha": alpha, "levels": list(map(int, levels))})


def initial_data_continuity(model, basis, x, direction, perturbation_sizes, p,
                            M, seed, t_end, dt, save_dt=None, stepper=None):
    """E sup_t ||X(t, x + eps d) - X(t, x)||_H^p against eps, common noise."""
    save_dt = save_dt if save_dt is not None else dt
    stepper = stepper or model.default_stepper
    steps = sv._ratio_as_int(t_end, dt, "t_end/dt")
    save_every = sv._ratio_as_int(save_dt, dt, "save_dt/dt")
    m = model.noise_modes(basis)
    d = sv.project_initial(basis, direction)
    x0 = sv.project_initial(basis, x)

    sups = {e: [] for e in perturbation_sizes}
    for lo in range(0, M, sv.BLOCK):
        hi = min(lo + sv.BLOCK, M)
        base, *perts = [sv.start_block(model, basis, c0, hi - lo, steps, dt, stepper,
                                       save_every, window=True)
                        for c0 in [x0] + [x0 + e * d for e in perturbation_sizes]]
        # running sup over the save rows of each chunk: only (M,) maxima
        # outlive a chunk
        tops = np.full((len(perts), hi - lo), -np.inf)
        for chunk in sn.stream_block(m, steps, dt, seed, range(lo, hi)):
            sv._advance_block(model, basis, base, chunk)
            base_rows = base.pop_saves()
            for top, run in zip(tops, perts):
                sv._advance_block(model, basis, run, chunk)
                diff = run.pop_saves() - base_rows
                np.maximum(top, _row_max(np.linalg.norm(diff, axis=-1)), out=top)
        for e, top in zip(perturbation_sizes, tops):
            sups[e].extend(top ** p)

    rows = [(float(e), *_mean_se(sups[e])) for e in perturbation_sizes]
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="continuity", rows=rows, fitted_rate=fit,
                           extra={"p": p, "direction_norm": float(np.linalg.norm(d))})


def uniqueness_probe(model, basis, x0, M, seed, dt_levels, t_end, save_dt=None,
                     stepper=None, mode="dt-refinement"):
    """Common-noise discrepancy between two discretizations of one equation.

    mode "dt-refinement": at each dt in dt_levels, compare dt against dt/2
    (both driven by block sums of one fine path).
    mode "stepper": at each dt, compare explicit-tamed vs semi-implicit.
    mode "identical": same stepper, same dt, twice (difference must be 0).
    Rows keyed by dt estimate E sup_t ||difference||_H^2.
    """
    if mode not in PROBE_MODES:
        raise InvalidDeltaError(f"unknown probe mode {mode!r}")
    stepper = stepper or model.default_stepper
    dts = sorted(dt_levels, reverse=True)
    for d in dts:
        sv._ratio_as_int(t_end, d, "t_end/dt_level")
    fine_dt = dts[-1] / 2.0
    steps_fine = sv._ratio_as_int(t_end, fine_dt, "t_end/fine_dt")
    save_dt = save_dt if save_dt is not None else dts[0]
    m = model.noise_modes(basis)
    x0 = sv.project_initial(basis, x0)

    # the two runs compared at each dt level: (step, coarsening factor of
    # the fine path, stepper, save_every)
    pairs = {}
    for d in dts:
        f1 = sv._ratio_as_int(d, fine_dt, "dt_level/fine_dt")
        se1 = sv._ratio_as_int(save_dt, d, "save_dt/dt_level")
        first = (d, f1, "explicit-tamed" if mode == "stepper" else stepper, se1)
        if mode == "dt-refinement":
            f2 = sv._ratio_as_int(d / 2.0, fine_dt, "dt_level/2/fine_dt")
            second = (d / 2.0, f2, stepper, 2 * se1)
        elif mode == "stepper":
            second = (d, f1, "semi-implicit", se1)
        else:
            second = first
        pairs[d] = (first, second)
    factors = {f for pair in pairs.values() for _, f, _, _ in pair}

    sups = {d: [] for d in dts}
    for lo in range(0, M, sv.BLOCK):
        hi = min(lo + sv.BLOCK, M)
        runs = {d: [sv.start_block(model, basis, x0, hi - lo, steps_fine // f, h, st, se,
                                   window=True)
                    for h, f, st, se in pair]
                for d, pair in pairs.items()}
        tops = {d: np.full(hi - lo, -np.inf) for d in dts}
        # chunks hold whole coarse steps of every level
        for chunk in sn.stream_block(m, steps_fine, fine_dt, seed, range(lo, hi),
                                     multiple=math.lcm(*factors)):
            coarse = sn.coarsen_chunk(chunk, factors)
            for d, pair in pairs.items():
                for run, (_, f, _, _) in zip(runs[d], pair):
                    sv._advance_block(model, basis, run, coarse[f])
                diff = runs[d][0].pop_saves() - runs[d][1].pop_saves()
                np.maximum(tops[d], _row_max(np.sum(diff * diff, axis=-1)), out=tops[d])
        for d in dts:
            sups[d].extend(tops[d])

    rows = [(float(d), *_mean_se(sups[d])) for d in dts]
    fit = loglog_fit([r[0] for r in rows], [r[1] for r in rows])
    return DiagnosticTable(experiment="uniqueness", rows=rows, fitted_rate=fit,
                           extra={"mode": mode})


def write_table(table, csv_path, json_path=None, timestamp=None):
    """One CSV per experiment plus a JSON summary with fitted rates."""
    rows = table.csv_rows()
    with open(csv_path, "w", newline="") as f:
        for r in rows:
            f.write(",".join(r) + "\n")
    if json_path is not None:
        d = table.summary_dict()
        if timestamp is not None:
            d["timestamp"] = timestamp
        with open(json_path, "w") as f:
            json.dump(d, f, indent=2, sort_keys=True)
            f.write("\n")
