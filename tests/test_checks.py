import numpy as np
import pytest

from spde import basis as sb
from spde import checks as ck
from spde import models as sm
from spde.errors import IncompleteSpecError, MissingHypothesisSpecError


def grad_h_norm_sq(basis, w):
    """Quadrature of |d/dx w|^2: independent of the spectral identities."""
    dw = sb.synthesize_derivative(basis, w)
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
    proj = sb.analyze(basis, sb.synthesize_derivative(basis, w))
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
    lhs = 2 * sb.dual_pairing(basis, model.apply_A(basis, 0, z), z) \
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


class RowCountingHeat(sm.HeatOU):
    def __init__(self):
        super().__init__(sigma=0.5)
        self.rows = 0
        self.calls = 0

    def apply_A(self, basis, t, coeffs):
        self.rows += np.asarray(coeffs).reshape(-1, basis.n_modes).shape[0]
        self.calls += 1
        return super().apply_A(basis, t, coeffs)


@pytest.mark.parametrize("n_samples,n_lambda", [(300, 16), (100, 17), (512, 16)])
def test_hemicontinuity_evaluates_each_lambda_once(n_samples, n_lambda):
    model = RowCountingHeat()
    basis = model.make_basis(8)
    ck.check_hemicontinuity(model, basis, n_samples=n_samples, n_lambda=n_lambda)
    assert model.rows == (16 * (n_lambda - 1) + 1) * n_samples
    assert model.calls == -(-n_samples // 256)          # one call per block


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
