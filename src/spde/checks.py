"""Randomized audits of the hypothesis inequalities.

Each check draws multi-scale random states, evaluates both sides of one
inequality, and reports margins (RHS - LHS).  A sample is a violation
when margin < -tol*scale with scale = 1 + |LHS| + |RHS|, or when the
margin is not finite.  Everything is deterministic in (seed, n_samples);
growth audits use a certified lower bound of the dual norm, so a
reported violation there is a genuine one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as sb
from .errors import IncompleteSpecError, MissingHypothesisSpecError

TOL = 1e-8
MAX_STORED_VIOLATIONS = 16


@dataclass
class Violation:
    index: int
    t: float
    margin: float
    detail: str = ""
    u: np.ndarray = None
    v: np.ndarray = None


@dataclass
class ConditionReport:
    condition: str
    n_samples: int
    n_violations: int
    violations: list
    min_margin: float
    median_margin: float
    mean_margin: float
    fitted_constants: dict = field(default_factory=dict)
    passed: bool = True


def _report(condition, margins, scales, ts, fitted, us=None, vs=None, detail=""):
    margins = np.asarray(margins, float)
    scales = np.asarray(scales, float)
    # a non-finite margin (NaN from a NaN constant, or an overflow) is a
    # violation: the inequality could not be shown to hold
    bad = ~(np.isfinite(margins) & (margins >= -TOL * scales))
    idx = np.flatnonzero(bad)
    viols = []
    for i in idx[:MAX_STORED_VIOLATIONS]:
        viols.append(Violation(
            index=int(i), t=float(ts[i]), margin=float(margins[i]), detail=detail,
            u=None if us is None else np.array(us[i]),
            v=None if vs is None else np.array(vs[i])))
    return ConditionReport(
        condition=condition, n_samples=int(margins.size),
        n_violations=int(idx.size), violations=viols,
        min_margin=float(np.min(margins)),
        median_margin=float(np.median(margins)),
        mean_margin=float(np.mean(margins)),
        fitted_constants=dict(fitted), passed=bool(idx.size == 0))


def _merge(primary, extra):
    """Fold a secondary margin family (side conditions) into a report."""
    primary.n_violations += extra.n_violations
    primary.violations = (primary.violations + extra.violations)[:MAX_STORED_VIOLATIONS]
    primary.passed = primary.passed and extra.passed
    primary.fitted_constants.update(extra.fitted_constants)
    return primary


def _need_hypothesis(model):
    hyp = getattr(model, "hypothesis", None)
    if hyp is None:
        raise MissingHypothesisSpecError(
            f"model {getattr(model, 'name', model)!r} declares no hypothesis constants")
    return hyp


def _draw(basis, n, seed, scales=(0.1, 1.0, 10.0, 100.0)):
    return sb.sample_coeffs(basis, n, seed, scales=scales)


def _times(n, seed, t_max=1.0):
    rng = np.random.default_rng(np.random.Philox(key=(seed, 7)))
    return rng.uniform(0.0, t_max, n)


def _rho_eta(form, vnorms, hnorms):
    if form is None:
        return np.zeros_like(vnorms)
    return np.asarray(form(vnorms, hnorms), float) + np.zeros_like(vnorms)


def check_hemicontinuity(model, basis, n_samples=1000, n_lambda=16, seed=0):
    """Jump-decay test for continuity of s -> <A(u + s v), x> on [-1, 1].

    The map is evaluated once per sample, on the fine grid of
    16 (n_lambda - 1) + 1 points.  The coarse grids with 4 (n_lambda - 1)
    + 1 and n_lambda points are its strided views [::4] and [::16]; they
    hold the same lambda values as separately built grids, so no point
    is evaluated twice.

    The test is the ratio of the largest adjacent jumps across the last
    4x refinement (4x grid to fine grid): a continuous map shrinks it by
    about the refinement factor once the grid resolves it, while a
    genuine discontinuity keeps it order one at every resolution.  The
    first refinement absorbs smooth oscillation (large-amplitude states
    under trigonometric coefficients); amplitudes span three decades,
    which a jump in lambda survives unchanged.  A sample fails when the
    final ratio exceeds 0.6.
    """
    if n_lambda < 16:
        raise IncompleteSpecError("n_lambda must be >= 16")
    _need_hypothesis(model)
    n = basis.n_modes
    us = _draw(basis, n_samples, seed, scales=(0.1, 1.0, 3.0, 10.0))
    vs = _draw(basis, n_samples, seed + 1, scales=(0.1, 1.0, 3.0, 10.0))
    xs = _draw(basis, n_samples, seed + 2, scales=(0.1, 1.0, 3.0, 10.0))
    ts = _times(n_samples, seed + 3)

    grid = np.linspace(-1.0, 1.0, 16 * (n_lambda - 1) + 1)

    def g_values(lo, hi):
        # states (block, L, n) -> g values (block, L); the large states and
        # drift arrays are freed on return, before the next block is built
        states = us[lo:hi, None, :] + grid[None, :, None] * vs[lo:hi, None, :]
        a = model.apply_A(basis, 0.0, states.reshape(-1, n)).reshape(hi - lo, grid.size, n)
        return np.einsum("slk,sk->sl", a, xs[lo:hi])

    def max_jump(g):
        return np.max(np.abs(np.diff(g, axis=1)), axis=1)

    block = 256      # bounds the (block * lambda-grid, grid_size) temporaries
    j1 = np.empty(n_samples)
    j2 = np.empty(n_samples)
    gmax = np.empty(n_samples)
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        g = g_values(lo, hi)
        gmax[lo:hi] = np.max(np.abs(g[:, ::16]), axis=1)
        j1[lo:hi] = max_jump(g[:, ::4])
        j2[lo:hi] = max_jump(g)
    floor = 1e-12 * (1.0 + gmax)
    ratios = np.where(j1 > floor, j2 / np.maximum(j1, floor), 0.0)
    margins = 0.6 - ratios
    scales = np.ones_like(margins)
    fitted = {"mean_ratio": float(np.mean(ratios)), "max_ratio": float(np.max(ratios))}
    return _report("H1", margins, scales, ts, fitted, us, vs)


def check_local_monotonicity(model, basis, n_samples=1000, variant="H2", seed=0):
    """Audit of the one-sided Lipschitz inequality (plain, primed or starred).

    H2/H2star: 2<A(u)-A(v), u-v> + ||B(u)-B(v)||^2 <= [f + rho(u) + eta(v)] ||u-v||^2,
    plus the declared growth bounds on rho and eta.
    H2prime: <A(u)-A(v), u-v> <= K(R) ||u-v||^2 on the V-ball of radius R.
    """
    hyp = _need_hypothesis(model)
    if variant not in ("H2", "H2prime", "H2star"):
        raise IncompleteSpecError(f"unknown variant {variant!r}")
    if variant == "H2prime" and hyp.K_R_form is None:
        raise MissingHypothesisSpecError(f"{model.name} declares no K_R form")

    us = _draw(basis, n_samples, seed)
    vs = _draw(basis, n_samples, seed + 1)
    ts = _times(n_samples, seed + 2)
    w = us - vs
    wh2 = np.sum(w * w, axis=-1)
    au = model.apply_A(basis, 0.0, us)
    av = model.apply_A(basis, 0.0, vs)
    pair = np.einsum("sk,sk->s", au - av, w)
    hu, hv = sb.h_norm(basis, us), sb.h_norm(basis, vs)
    vu, vv = sb.v_norm(basis, model, us), sb.v_norm(basis, model, vs)

    if variant == "H2prime":
        R = np.maximum(vu, vv)
        K = np.array([hyp.K_R_form(r) for r in R])
        lhs = pair
        rhs = K * wh2
        margins = rhs - lhs
        scales = 1.0 + np.abs(lhs) + np.abs(rhs)
        fitted = {"max_K_used": float(np.max(K))}
        return _report("H2prime", margins, scales, ts, fitted, us, vs)

    bdiff = model.b_hs_diff_sq(basis, 0.0, us, vs)
    lhs = 2.0 * pair + bdiff
    rho = _rho_eta(hyp.rho_form, vu, hu)
    eta = _rho_eta(hyp.eta_form, vv, hv)
    rhs = (hyp.f_const + rho + eta) * wh2
    margins = rhs - lhs
    scales = 1.0 + np.abs(lhs) + np.abs(rhs)
    worst_f = np.max((lhs - (rho + eta) * wh2) / np.maximum(wh2, 1e-300))
    fitted = {"fitted_f": float(worst_f)}
    report = _report(variant, margins, scales, ts, fitted, us, vs)

    # side conditions on the declared rho, eta
    alpha = model.alpha
    v_all = np.concatenate([vu, vv])
    h_all = np.concatenate([hu, hv])
    t_all = np.concatenate([ts, ts])
    rho_all = np.abs(_rho_eta(hyp.rho_form, v_all, h_all))
    eta_all = np.abs(_rho_eta(hyp.eta_form, v_all, h_all))
    if variant == "H2":
        side_lhs = rho_all + eta_all
        side_rhs = hyp.mono_C * (1.0 + v_all ** alpha) * (1.0 + h_all ** hyp.gamma)
        side = _report("H2", side_rhs - side_lhs,
                       1.0 + np.abs(side_lhs) + np.abs(side_rhs),
                       t_all, {"side_min_margin": float(np.min(side_rhs - side_lhs))},
                       detail="rho/eta growth bound")
    else:
        if not hyp.theta < alpha:
            raise IncompleteSpecError(
                f"(H2)* requires theta < alpha, got theta={hyp.theta}, alpha={alpha}")
        C = hyp.mono_C if hyp.mono_C > 0 else 1.0
        rho_rhs = C * (1.0 + h_all ** hyp.lam) + C * v_all ** hyp.theta * (1.0 + h_all ** hyp.gamma)
        eta_rhs = C * (1.0 + h_all ** (2.0 + hyp.beta)) + C * v_all ** alpha * (1.0 + h_all ** hyp.beta)
        m = np.concatenate([rho_rhs - rho_all, eta_rhs - eta_all])
        s = 1.0 + np.concatenate([rho_all + rho_rhs, eta_all + eta_rhs])
        side = _report("H2star", m, s, np.concatenate([t_all, t_all]),
                       {"side_min_margin": float(np.min(m))},
                       detail="starred rho/eta growth bound")
    return _merge(report, side)


def check_coercivity(model, basis, n_samples=1000, seed=0, variant=None):
    """(H3): 2<A(u),u> + ||B(u)||^2 <= f (1+||u||_H^2) - c ||u||_V^alpha.
    (H3)*: <A(u),u> <= f (1+||u||_H^2) - L_A ||u||_V^alpha.

    Also fits the largest coefficient c passing every sample.
    """
    hyp = _need_hypothesis(model)
    if variant is None:
        variant = "H3star" if hyp.part2 else "H3"
    us = _draw(basis, n_samples, seed)
    ts = _times(n_samples, seed + 1)
    h2 = np.sum(us * us, axis=-1)
    vn = sb.v_norm(basis, model, us)
    pair = np.einsum("sk,sk->s", model.apply_A(basis, 0.0, us), us)
    if variant == "H3":
        lhs = 2.0 * pair + model.b_hs_norm_sq(basis, 0.0, us)
    else:
        lhs = pair
    coef = hyp.c_coercive
    rhs = hyp.f_const * (1.0 + h2) - coef * vn ** model.alpha
    margins = rhs - lhs
    scales = 1.0 + np.abs(lhs) + np.abs(rhs)
    va = vn ** model.alpha
    ok = va > 1e-12
    fitted_c = float(np.min((hyp.f_const * (1.0 + h2[ok]) - lhs[ok]) / va[ok]))
    fitted = {"fitted_c": fitted_c, "declared_c": float(coef)}
    return _report(variant, margins, scales, ts, fitted, us)


def check_growth(model, basis, n_samples=1000, seed=0, variant=None, n_probe=128):
    """(H4): ||A(u)||_{V*}^{alpha/(alpha-1)} <= (f + C ||u||_V^alpha)(1+||u||_H^beta).
    (H4)*: ... <= f (1+||u||_H^{2+beta}) + C ||u||_V^alpha (1+||u||_H^beta).

    The dual norm is exact for spectral-diagonal models and a sampled
    lower bound otherwise, so the audit is conservative.
    """
    hyp = _need_hypothesis(model)
    if variant is None:
        variant = "H4star" if hyp.part2 else "H4"
    us = _draw(basis, n_samples, seed)
    ts = _times(n_samples, seed + 1)
    hn = sb.h_norm(basis, us)
    vn = sb.v_norm(basis, model, us)
    a = model.apply_A(basis, 0.0, us)
    dual = sb.dual_norm_estimate(basis, model, a, n_probe=max(n_probe, 32), seed=seed + 2)
    expo = model.alpha / (model.alpha - 1.0)
    lhs = dual ** expo
    if variant == "H4":
        rhs = (hyp.f_const + hyp.growth_C * vn ** model.alpha) * (1.0 + hn ** hyp.beta)
    else:
        rhs = hyp.f_const * (1.0 + hn ** (2.0 + hyp.beta)) \
            + hyp.growth_C * vn ** model.alpha * (1.0 + hn ** hyp.beta)
    margins = rhs - lhs
    scales = 1.0 + np.abs(lhs) + np.abs(rhs)
    va = vn ** model.alpha * (1.0 + hn ** hyp.beta)
    ok = va > 1e-12
    fitted_C = float(np.max(np.maximum(lhs[ok] / va[ok] - hyp.f_const / va[ok], 0.0)))
    fitted = {"fitted_C": fitted_C, "declared_C": float(hyp.growth_C)}
    return _report(variant, margins, scales, ts, fitted, us)


def check_noise(model, basis, n_samples=1000, seed=0, variant=None):
    """(H5): ||B(u)||^2 <= g (1+||u||_H^2) plus H-continuity of B.
    (H5)*: ||B(u)||^2 <= g (1+||u||_H^2) + L_B ||u||_V^alpha; fits the
    smallest L_B passing all samples.
    """
    hyp = _need_hypothesis(model)
    if variant is None:
        variant = "H5star" if hyp.part2 else "H5"
    us = _draw(basis, n_samples, seed)
    ts = _times(n_samples, seed + 1)
    h2 = np.sum(us * us, axis=-1)
    vn = sb.v_norm(basis, model, us)
    bsq = model.b_hs_norm_sq(basis, 0.0, us) + np.zeros_like(h2)
    rhs = hyp.g_const * (1.0 + h2)
    if variant == "H5star":
        rhs = rhs + hyp.L_B * vn ** model.alpha
    margins = rhs - bsq
    scales = 1.0 + np.abs(bsq) + np.abs(rhs)
    va = vn ** model.alpha
    ok = va > 1e-12
    fitted = {"fitted_g": float(np.max(bsq / (1.0 + h2)))}
    if variant == "H5star":
        fitted["fitted_L_B"] = float(np.max(np.maximum(
            (bsq[ok] - hyp.g_const * (1.0 + h2[ok])) / va[ok], 0.0)))
        fitted["declared_L_B"] = float(hyp.L_B)
    report = _report(variant, margins, scales, ts, fitted, us)

    if variant == "H5":
        # H-continuity: B along H-converging sequences u_j -> u
        n_seq = min(n_samples, 256)
        dirs = _draw(basis, n_seq, seed + 3)
        base = us[:n_seq]
        d0 = np.sqrt(np.maximum(model.b_hs_diff_sq(basis, 0.0, base + dirs, base), 0.0))
        dJ = np.sqrt(np.maximum(model.b_hs_diff_sq(
            basis, 0.0, base + dirs * 2.0 ** -8, base), 0.0))
        ratio = np.where(d0 > 1e-12, dJ / np.maximum(d0, 1e-300), 0.0)
        cont = _report("H5", 0.25 - ratio, np.ones(n_seq), ts[:n_seq],
                       {"continuity_max_ratio": float(np.max(ratio))},
                       detail="H-continuity decay")
        report = _merge(report, cont)
    return report


def check_chi_threshold(model_or_spec, alpha=None):
    """Moment threshold of the starred framework: chi from the two-case
    display, the condition L_B < 2 L_A / chi, and the admissible moment
    range [2, 1 + 2 L_A / L_B)."""
    hyp = getattr(model_or_spec, "hypothesis", model_or_spec)
    if alpha is None:
        alpha = getattr(model_or_spec, "alpha", None)
    if hyp is None or alpha is None:
        raise IncompleteSpecError("need a hypothesis spec and alpha")
    chi = hyp.chi(alpha)
    threshold = 2.0 * hyp.L_A / chi
    margin = threshold - hyp.L_B
    p_max = hyp.admissible_p_max(alpha)
    fitted = {"chi": float(chi), "threshold": float(threshold),
              "L_A": float(hyp.L_A), "L_B": float(hyp.L_B),
              "p_min": 2.0, "p_max": float(p_max)}
    scale = 1.0 + abs(hyp.L_B) + abs(threshold)
    rep = _report("chi-threshold", [margin], [scale], [0.0], fitted)
    if p_max <= 2.0:
        rep.passed = False
        if rep.n_violations == 0:
            rep.n_violations = 1
            rep.violations.append(Violation(0, 0.0, float(p_max - 2.0),
                                            detail="admissible p-range empty"))
    return rep


def applicable_conditions(model):
    hyp = _need_hypothesis(model)
    if hyp.part2:
        return ["H1", "H2star", "H3star", "H4star", "H5star", "chi-threshold"]
    return ["H1", "H2", "H2prime", "H3", "H4", "H5"]


def run_all(model, basis, n_samples=1000, seed=0):
    """Every applicable condition report for the model, in a fixed order."""
    hyp = _need_hypothesis(model)
    out = []
    for cond in applicable_conditions(model):
        if cond == "H1":
            out.append(check_hemicontinuity(model, basis, n_samples, seed=seed))
        elif cond in ("H2", "H2star"):
            out.append(check_local_monotonicity(model, basis, n_samples, cond, seed=seed + 10))
        elif cond == "H2prime":
            out.append(check_local_monotonicity(model, basis, n_samples, cond, seed=seed + 20))
        elif cond in ("H3", "H3star"):
            out.append(check_coercivity(model, basis, n_samples, seed=seed + 30))
        elif cond in ("H4", "H4star"):
            out.append(check_growth(model, basis, n_samples, seed=seed + 40))
        elif cond in ("H5", "H5star"):
            out.append(check_noise(model, basis, n_samples, seed=seed + 50))
        elif cond == "chi-threshold":
            out.append(check_chi_threshold(model))
    return out


def reports_to_csv_rows(reports):
    header = ["condition", "n_samples", "n_violations", "min_margin",
              "median_margin", "mean_margin", "passed", "fitted"]
    rows = [header]
    for r in reports:
        fitted = ";".join(f"{k}={v!r}" for k, v in sorted(r.fitted_constants.items()))
        rows.append([r.condition, str(r.n_samples), str(r.n_violations),
                     repr(r.min_margin), repr(r.median_margin),
                     repr(r.mean_margin), str(int(r.passed)), fitted])
    return rows


def format_summary(model_name, reports):
    lines = [f"hypothesis audit: {model_name}"]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"  {r.condition:13s} {status}  n={r.n_samples}"
                     f"  violations={r.n_violations}"
                     f"  min_margin={r.min_margin:.3e}")
    return "\n".join(lines)
