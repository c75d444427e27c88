"""Randomized audits of the hypothesis inequalities.

Each check draws multi-scale random states, evaluates both sides of one
inequality, and reports margins (RHS - LHS).  A sample is a violation
when margin < -tol*scale with scale = 1 + |LHS| + |RHS|, or when the
margin is not finite.  Everything is deterministic in (seed, n_samples);
growth audits use a certified lower bound of the dual norm, so a
reported violation there is a genuine one.

The hemicontinuity audit (H1), most of an audit's time, runs on two
processes: with two or more blocks of samples, called from a process
that runs one thread (as `spde check` does, with spde's default of one
BLAS thread), it forks one child, which evaluates the first half of the
blocks while the calling process evaluates the second, and sends its
per-sample results back through a pipe.  Each block is evaluated as in
one process, so the report keeps every bit.
"""

import os
import signal
from dataclasses import dataclass, field

import numpy as np

from . import basis as sb
from .errors import (HemicontinuityChildError, IncompleteSpecError,
                     MissingHypothesisSpecError)

TOL = 1e-8
MAX_STORED_VIOLATIONS = 16
# values per H1 temporary, collocation values and the buffer of g values
# alike: 2**14 float64 are 128 KiB, glibc malloc's starting mmap
# threshold; 64 fewer leave room for its chunk header
H1_GRID_VALUES = 2 ** 14 - 64
H1_MIN_PART = 2 ** 11       # fewest coefficient values (rows x n_modes) per apply_A call


@dataclass
class Violation:
    index: int
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


def _report(condition, margins, scales, fitted, us=None, vs=None, detail=""):
    margins = np.asarray(margins, float)
    scales = np.asarray(scales, float)
    # a non-finite margin (NaN from a NaN constant, or an overflow) is a
    # violation: the inequality could not be shown to hold
    bad = ~(np.isfinite(margins) & (margins >= -TOL * scales))
    idx = np.flatnonzero(bad)
    viols = []
    for i in idx[:MAX_STORED_VIOLATIONS]:
        viols.append(Violation(
            index=int(i), margin=float(margins[i]), detail=detail,
            u=None if us is None else np.array(us[i]),
            v=None if vs is None else np.array(vs[i])))
    return ConditionReport(
        condition=condition, n_samples=int(margins.size),
        n_violations=int(idx.size), violations=viols,
        min_margin=float(np.min(margins)),
        median_margin=float(np.median(margins)),
        mean_margin=float(np.mean(margins)),
        fitted_constants=dict(fitted), passed=bool(idx.size == 0))


def _violations(condition, lhs, rhs, fitted, us=None, vs=None, detail=""):
    """The report of the inequality lhs <= rhs: margin rhs - lhs on the
    scale 1 + |lhs| + |rhs|."""
    return _report(condition, rhs - lhs, 1.0 + np.abs(lhs) + np.abs(rhs), fitted,
                   us, vs, detail)


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

    Blocks set the apply_A calls.  They are sized so that every
    (rows, grid_size) collocation temporary holds at most H1_GRID_VALUES
    values: under glibc malloc's mmap threshold, each block reuses the
    heap the last one freed instead of mapping and zero-filling fresh
    pages.  A block holds as many whole lambda lines as fit (4 at n = 4,
    2 at n = 8, 1 at n = 16); a line that does not fit (n = 32, or n = 16
    with n_lambda = 17) is cut into near-equal parts.  A block or part
    holds at least H1_MIN_PART / n_modes rows, over budget if need be:
    smaller products take other BLAS kernels in the quadrature pairing
    (below about 1,200 coefficient values; one row is a GEMV) and round
    differently.  A last block too short for that floor joins the block
    before it.  So every row rounds as in any larger block, and the
    report does not depend on the block rule.

    Chunks of whole blocks set the reductions.  Each block writes its g
    values into one reusable (chunk, lambda points) buffer, of at most
    H1_GRID_VALUES values unless a single block needs more, and the
    jumps are reduced once per full chunk, not once per block; max, abs
    and diff act row by row, so the chunk size changes no bit.

    Two processes share the blocks.  With two or more blocks, and this
    process running a single thread (_one_thread), one forked child
    evaluates the first half of them while this process evaluates
    the rest, the folded last block among them; each side fills its own
    buffer, and the child sends gmax, j1 and j2 of its samples back
    through a pipe (_on_child).  Each block is evaluated as in one
    process and the reductions act row by row, so the split changes no
    bit.  A single block runs here, without a fork.

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
    scales = (0.1, 1.0, 3.0, 10.0)
    us = sb.sample_coeffs(basis, n_samples, seed, scales)
    vs = sb.sample_coeffs(basis, n_samples, seed + 1, scales)
    xs = sb.sample_coeffs(basis, n_samples, seed + 2, scales)

    grid = np.linspace(-1.0, 1.0, 16 * (n_lambda - 1) + 1)

    def g_values(lo, hi, a, b):
        # samples lo:hi at lambda points a:b -> g values (hi - lo, b - a)
        states = us[lo:hi, None, :] + grid[None, a:b, None] * vs[lo:hi, None, :]
        out = model.apply_A(basis, 0.0, states.reshape(-1, n)).reshape(hi - lo, b - a, n)
        return np.einsum("slk,sk->sl", out, xs[lo:hi])

    def max_jump(g):
        return np.max(np.abs(np.diff(g, axis=1)), axis=1)

    # rows per apply_A call within the budget: whole lines per block, or
    # else parts of one line; a block or part has at least min_rows rows
    rows = max(1, H1_GRID_VALUES // basis.grid_size)
    min_rows = -(-H1_MIN_PART // n)
    block = max(rows // grid.size, -(-min_rows // grid.size))
    parts = max(1, min(-(-grid.size // rows), grid.size // min_rows))
    cuts = [grid.size * i // parts for i in range(parts + 1)]
    starts = list(range(0, n_samples, block))
    if len(starts) > 1 and (n_samples - starts[-1]) * grid.size * n < H1_MIN_PART:
        del starts[-1]      # fold a short last block into the one before
    # g values of a chunk of whole blocks; a folded last block may need more
    chunk = max(1, H1_GRID_VALUES // grid.size // block) * block
    j1 = np.empty(n_samples)
    j2 = np.empty(n_samples)
    gmax = np.empty(n_samples)

    def share(bounds):
        # the blocks starting at bounds[:-1], up to bounds[-1]: their
        # samples' gmax, j1 and j2
        end = bounds[-1]
        gbuf = np.empty((min(end - bounds[0], max(chunk, end - bounds[-2])), grid.size))

        def reduce(lo, hi):
            # jumps of the chunk's samples lo:hi, held in gbuf[:hi - lo]
            g = gbuf[:hi - lo]
            gmax[lo:hi] = np.max(np.abs(g[:, ::16]), axis=1)
            j1[lo:hi] = max_jump(g[:, ::4])
            j2[lo:hi] = max_jump(g)

        first = bounds[0]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - first > len(gbuf):
                reduce(first, lo)
                first = lo
            for a, b in zip(cuts, cuts[1:]):
                gbuf[lo - first:hi - first, a:b] = g_values(lo, hi, a, b)
        reduce(first, end)

    bounds = starts + [n_samples]
    if len(starts) == 1 or not _one_thread():
        share(bounds)
    else:   # the first half of the blocks on a child, the rest here
        half = len(starts) // 2
        _on_child(lambda: share(bounds[:half + 1]), lambda: share(bounds[half:]),
                  (gmax, j1, j2), starts[half])
    floor = 1e-12 * (1.0 + gmax)
    ratios = np.where(j1 > floor, j2 / np.maximum(j1, floor), 0.0)
    margins = 0.6 - ratios
    scales = np.ones_like(margins)
    fitted = {"mean_ratio": float(np.mean(ratios)), "max_ratio": float(np.max(ratios))}
    return _report("H1", margins, scales, fitted, us, vs)


def _one_thread():
    """Whether this process runs a single thread, BLAS threads included.
    A fork copies only the calling thread; and with a multi-threaded BLAS
    on both sides, the two processes' BLAS threads contend for the cores
    (p-laplacian H1 at n = 64 with two OpenBLAS threads took 0.8 to 29 s
    forked, against 0.6 to 0.9 s in one process)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:     # no /proc to count them: no fork
        return False


def _on_child(child, parent, arrays, n):
    """Run child() on one forked process while parent() runs here; child()
    fills the first n values of each of `arrays`, which it sends back
    through a pipe.  The child leaves only through os._exit; if parent()
    or the wait raises, it is killed and reaped before the error
    propagates.  A child that fails or dies raises
    HemicontinuityChildError with its exit status and message."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            child()
            with open(w, "wb") as f:
                for a in arrays:
                    f.write(a[:n])
            code = 0
        except BaseException as e:
            try:
                os.write(w, repr(e).encode()[:4000])
            except OSError:
                pass
        finally:
            os._exit(code)
    try:
        os.close(w)
        parent()
        said = b"".join(iter(lambda: os.read(r, 1 << 20), b""))
        status = os.waitpid(pid, 0)[1]
        pid = None
    finally:
        os.close(r)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or len(said) != 8 * n * len(arrays):
        why = said.decode(errors="replace") if code else "short of its results"
        raise HemicontinuityChildError(
            f"H1 child ended before sending its blocks (exit status {code})"
            f"{': ' + why if why else ''}")
    for i, a in enumerate(arrays):
        a[:n] = np.frombuffer(said, count=n, offset=8 * n * i)


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

    us = sb.sample_coeffs(basis, n_samples, seed)
    vs = sb.sample_coeffs(basis, n_samples, seed + 1)
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
        return _violations("H2prime", pair, K * wh2, {"max_K_used": float(np.max(K))},
                           us, vs)

    bdiff = model.b_hs_diff_sq(basis, 0.0, us, vs)
    lhs = 2.0 * pair + bdiff
    rho = _rho_eta(hyp.rho_form, vu, hu)
    eta = _rho_eta(hyp.eta_form, vv, hv)
    rhs = (hyp.f_const + rho + eta) * wh2
    worst_f = np.max((lhs - (rho + eta) * wh2) / np.maximum(wh2, 1e-300))
    report = _violations(variant, lhs, rhs, {"fitted_f": float(worst_f)}, us, vs)

    # side conditions on the declared rho, eta
    alpha = model.alpha
    v_all = np.concatenate([vu, vv])
    h_all = np.concatenate([hu, hv])
    rho_all = np.abs(_rho_eta(hyp.rho_form, v_all, h_all))
    eta_all = np.abs(_rho_eta(hyp.eta_form, v_all, h_all))
    if variant == "H2":
        side_lhs = rho_all + eta_all
        side_rhs = hyp.mono_C * (1.0 + v_all ** alpha) * (1.0 + h_all ** hyp.gamma)
        side = _violations("H2", side_lhs, side_rhs,
                           {"side_min_margin": float(np.min(side_rhs - side_lhs))},
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
        side = _report("H2star", m, s, {"side_min_margin": float(np.min(m))},
                       detail="starred rho/eta growth bound")
    return _merge(report, side)


def check_coercivity(model, basis, n_samples=1000, seed=0):
    """(H3): 2<A(u),u> + ||B(u)||^2 <= f (1+||u||_H^2) - c ||u||_V^alpha.
    (H3)*: <A(u),u> <= f (1+||u||_H^2) - L_A ||u||_V^alpha.

    Also fits the largest coefficient c passing every sample.
    """
    hyp = _need_hypothesis(model)
    variant = "H3star" if hyp.part2 else "H3"
    us = sb.sample_coeffs(basis, n_samples, seed)
    h2 = np.sum(us * us, axis=-1)
    vn = sb.v_norm(basis, model, us)
    pair = np.einsum("sk,sk->s", model.apply_A(basis, 0.0, us), us)
    if variant == "H3":
        lhs = 2.0 * pair + model.b_hs_norm_sq(basis, 0.0, us)
    else:
        lhs = pair
    coef = hyp.c_coercive
    rhs = hyp.f_const * (1.0 + h2) - coef * vn ** model.alpha
    va = vn ** model.alpha
    ok = va > 1e-12
    fitted_c = float(np.min((hyp.f_const * (1.0 + h2[ok]) - lhs[ok]) / va[ok]))
    fitted = {"fitted_c": fitted_c, "declared_c": float(coef)}
    return _violations(variant, lhs, rhs, fitted, us)


def check_growth(model, basis, n_samples=1000, seed=0):
    """(H4): ||A(u)||_{V*}^{alpha/(alpha-1)} <= (f + C ||u||_V^alpha)(1+||u||_H^beta).
    (H4)*: ... <= f (1+||u||_H^{2+beta}) + C ||u||_V^alpha (1+||u||_H^beta).

    The dual norm is exact for spectral-diagonal models and a sampled
    lower bound otherwise, so the audit is conservative.
    """
    hyp = _need_hypothesis(model)
    variant = "H4star" if hyp.part2 else "H4"
    us = sb.sample_coeffs(basis, n_samples, seed)
    hn = sb.h_norm(basis, us)
    vn = sb.v_norm(basis, model, us)
    a = model.apply_A(basis, 0.0, us)
    dual = sb.dual_norm_estimate(basis, model, a, seed=seed + 2)
    expo = model.alpha / (model.alpha - 1.0)
    lhs = dual ** expo
    if variant == "H4":
        rhs = (hyp.f_const + hyp.growth_C * vn ** model.alpha) * (1.0 + hn ** hyp.beta)
    else:
        rhs = hyp.f_const * (1.0 + hn ** (2.0 + hyp.beta)) \
            + hyp.growth_C * vn ** model.alpha * (1.0 + hn ** hyp.beta)
    va = vn ** model.alpha * (1.0 + hn ** hyp.beta)
    ok = va > 1e-12
    fitted_C = float(np.max(np.maximum(lhs[ok] / va[ok] - hyp.f_const / va[ok], 0.0)))
    fitted = {"fitted_C": fitted_C, "declared_C": float(hyp.growth_C)}
    return _violations(variant, lhs, rhs, fitted, us)


def check_noise(model, basis, n_samples=1000, seed=0):
    """(H5): ||B(u)||^2 <= g (1+||u||_H^2) plus H-continuity of B.
    (H5)*: ||B(u)||^2 <= g (1+||u||_H^2) + L_B ||u||_V^alpha; fits the
    smallest L_B passing all samples.
    """
    hyp = _need_hypothesis(model)
    variant = "H5star" if hyp.part2 else "H5"
    us = sb.sample_coeffs(basis, n_samples, seed)
    h2 = np.sum(us * us, axis=-1)
    vn = sb.v_norm(basis, model, us)
    bsq = model.b_hs_norm_sq(basis, 0.0, us) + np.zeros_like(h2)
    rhs = hyp.g_const * (1.0 + h2)
    if variant == "H5star":
        rhs = rhs + hyp.L_B * vn ** model.alpha
    va = vn ** model.alpha
    ok = va > 1e-12
    fitted = {"fitted_g": float(np.max(bsq / (1.0 + h2)))}
    if variant == "H5star":
        fitted["fitted_L_B"] = float(np.max(np.maximum(
            (bsq[ok] - hyp.g_const * (1.0 + h2[ok])) / va[ok], 0.0)))
        fitted["declared_L_B"] = float(hyp.L_B)
    report = _violations(variant, bsq, rhs, fitted, us)

    if variant == "H5":
        # H-continuity: B along H-converging sequences u_j -> u
        n_seq = min(n_samples, 256)
        dirs = sb.sample_coeffs(basis, n_seq, seed + 3)
        base = us[:n_seq]
        d0 = np.sqrt(np.maximum(model.b_hs_diff_sq(basis, 0.0, base + dirs, base), 0.0))
        dJ = np.sqrt(np.maximum(model.b_hs_diff_sq(
            basis, 0.0, base + dirs * 2.0 ** -8, base), 0.0))
        ratio = np.where(d0 > 1e-12, dJ / np.maximum(d0, 1e-300), 0.0)
        cont = _report("H5", 0.25 - ratio, np.ones(n_seq),
                       {"continuity_max_ratio": float(np.max(ratio))},
                       detail="H-continuity decay")
        report = _merge(report, cont)
    return report


def check_chi_threshold(model_or_spec):
    """Moment threshold of the starred framework: chi from the two-case
    display, the condition L_B < 2 L_A / chi, and the admissible moment
    range [2, 1 + 2 L_A / L_B)."""
    hyp = getattr(model_or_spec, "hypothesis", model_or_spec)
    alpha = getattr(model_or_spec, "alpha", None)
    if hyp is None or alpha is None:
        raise IncompleteSpecError("need a hypothesis spec and alpha")
    chi = hyp.chi(alpha)
    threshold = 2.0 * hyp.L_A / chi
    margin = threshold - hyp.L_B
    p_max = hyp.admissible_p_max()
    fitted = {"chi": float(chi), "threshold": float(threshold),
              "L_A": float(hyp.L_A), "L_B": float(hyp.L_B),
              "p_min": 2.0, "p_max": float(p_max)}
    scale = 1.0 + abs(hyp.L_B) + abs(threshold)
    rep = _report("chi-threshold", [margin], [scale], fitted)
    if p_max <= 2.0:
        rep.passed = False
        if rep.n_violations == 0:
            rep.n_violations = 1
            rep.violations.append(Violation(0, float(p_max - 2.0),
                                            detail="admissible p-range empty"))
    return rep


def applicable_conditions(model):
    hyp = _need_hypothesis(model)
    if hyp.part2:
        return ["H1", "H2star", "H3star", "H4star", "H5star", "chi-threshold"]
    return ["H1", "H2", "H2prime", "H3", "H4", "H5"]


def run_all(model, basis, n_samples=1000, seed=0):
    """Every applicable condition report for the model, in a fixed order."""
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
