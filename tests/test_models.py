import numpy as np
import pytest

from spde import basis as sb
from spde import models as sm
from spde.errors import BasisKindMismatchError, IncompleteSpecError


def unit(n, k=0):
    e = np.zeros(n)
    e[k] = 1.0
    return e


# --- drift in coordinates -----------------------------------------------

def test_heat_drift_is_diagonal():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(6)
    a = m.apply_A(b, 0.0, unit(6))
    expect = np.zeros(6)
    expect[0] = -1.0
    assert np.max(np.abs(a - expect)) < 1e-14


def test_plaplacian_mode_one_value():
    # <A(e1), e1> = -(2/pi)^2 * 3 * int cos^2 sin^2 = -3/(2pi)
    m = sm.PLaplacian(p=4.0, c=0.0, sigma=0.0)
    b = m.make_basis(8)
    a = m.apply_A(b, 0.0, unit(8))
    assert abs(a[0] - (-3.0 / (2.0 * np.pi))) < 1e-12
    # dense-quadrature cross-check of the same weak-form integral
    x = np.linspace(0, np.pi, 2 ** 14 + 1)
    du = np.sqrt(2 / np.pi) * np.cos(x)
    integrand = -np.abs(du) ** 2 * du * np.sqrt(2 / np.pi) * np.cos(x)
    dense = np.trapezoid(integrand, x)
    assert abs(a[0] - dense) < 1e-9


def test_cahn_hilliard_biharmonic_eigenvalue():
    m = sm.CahnHilliard(sigma=0.0, phi_cubic=0.0, phi_linear=0.0)
    b = m.make_basis(6)
    a = m.apply_A(b, 0.0, unit(6, 1))     # lambda_2 = 1
    expect = np.zeros(6)
    expect[1] = -1.0
    assert np.max(np.abs(a - expect)) < 1e-12


def test_basis_kind_mismatch():
    m = sm.CahnHilliard()
    wrong = sb.build_basis("dirichlet-interval", 4, 16)
    with pytest.raises(BasisKindMismatchError):
        m.apply_A(wrong, 0.0, np.zeros(4))


def test_plaplacian_requires_p_geq_2():
    with pytest.raises(IncompleteSpecError):
        sm.PLaplacian(p=1.5)


# --- noise maps ----------------------------------------------------------

def test_heat_ou_additive_increment():
    m = sm.HeatOU(sigma=0.8)
    b = m.make_basis(4)
    dw = np.array([0.5, -1.0, 0.25, 2.0])
    inc_a = m.apply_B_increment(b, 0.0, np.zeros(4), dw)
    inc_b = m.apply_B_increment(b, 0.0, np.ones(4), dw)
    expect = 0.8 / (1.0 + b.eigenvalues) * dw
    assert np.allclose(inc_a, expect, atol=1e-15)
    assert np.array_equal(inc_a, inc_b)          # state-independent


def test_zero_noise_row_gives_zero_increment():
    for m in (sm.HeatOU(0.3), sm.PLaplacian(4, 1, 0.5), sm.GradientNoiseHeat(1.0)):
        b = m.make_basis(6)
        inc = m.apply_B_increment(b, 0.0, np.ones(6), np.zeros(6))
        assert np.all(inc == 0)


def test_gradient_noise_increment_is_projected_derivative():
    nu, dbeta = 0.7, 0.3
    m = sm.GradientNoiseHeat(nu=nu)
    b = m.make_basis(16)
    inc = m.apply_B_increment(b, 0.0, unit(16), np.array([dbeta]))
    # d/dx e_1 = sqrt(2/pi) cos x, projected by quadrature
    expect = nu * dbeta * sb.analyze(b, np.sqrt(2 / np.pi) * np.cos(b.nodes))
    assert np.allclose(inc, expect, atol=1e-12)


def test_hs_norms():
    m = sm.HeatOU(sigma=0.5)
    b = m.make_basis(5)
    got = m.b_hs_norm_sq(b, 0.0, np.ones(5))
    assert abs(got - np.sum(0.25 / (1 + b.eigenvalues) ** 2)) < 1e-14

    # multiplicative diagonal maps vanish at zero
    for mm in (sm.PLaplacian(4, 1, 0.5), sm.ConvectionDiffusion(0.5),
               sm.CahnHilliard(0.5)):
        bb = mm.make_basis(5)
        assert mm.b_hs_norm_sq(bb, 0.0, np.zeros(5)) == 0.0


def test_gradient_noise_hs_norm_hits_analytic_value():
    # ||B(e1)||^2 -> nu^2 * (2/pi) int cos^2 = nu^2, up to projection tail
    m = sm.GradientNoiseHeat(nu=1.3)
    b = m.make_basis(512)
    got = m.b_hs_norm_sq(b, 0.0, unit(512))
    assert abs(got - 1.3 ** 2) < 0.01 * 1.3 ** 2


# --- weak-form consistency oracle ---------------------------------------

def _fine_quadrature_pairing(model, basis, u, v):
    """Weak form evaluated independently on a 4x finer grid."""
    fine = model.make_basis(basis.n_modes, 4 * basis.grid_size)
    w = fine.weights
    uu = sb.synthesize(fine, u)
    du = sb.synthesize_derivative(fine, u)
    vv = sb.synthesize(fine, v)
    dv = sb.synthesize_derivative(fine, v)
    name = model.name
    if name in ("heat-ou", "gradient-noise-heat"):
        return -np.sum(du * dv * w)
    if name == "p-laplacian":
        p, c = model.p, model.c
        return (-np.sum(np.abs(du) ** (p - 2) * du * dv * w)
                - c * np.sum(np.abs(uu) ** (p - 2) * uu * vv * w))
    if name == "convection-diffusion":
        flux = model.a_coeff(uu) * du + model.b_flux(uu)
        return -np.sum(flux * dv * w)
    if name == "cahn-hilliard":
        lam = fine.eigenvalues
        ddu = sb.synthesize(fine, -lam * np.asarray(u))
        ddv = sb.synthesize(fine, -lam * np.asarray(v))
        return -np.sum(ddu * ddv * w) + np.sum(model.phi(uu) * ddv * w)
    raise AssertionError(name)


@pytest.mark.parametrize("name", sm.ZOO)
def test_weak_form_consistency(name):
    model = sm.build_model(name)
    # G = 8n: the 1e-6 contract needs spectral headroom beyond the 4n
    # de-aliasing floor for the non-polynomial coefficients (sin u, a(u))
    basis = model.make_basis(8, 64)
    rng = np.random.default_rng(100)
    for _ in range(6):
        u = rng.standard_normal(8) / (1.0 + basis.eigenvalues) ** 0.5
        v = rng.standard_normal(8) / (1.0 + basis.eigenvalues) ** 0.5
        got = sb.dual_pairing(basis, model.apply_A(basis, 0.0, u), v)
        ref = _fine_quadrature_pairing(model, basis, u, v)
        assert abs(got - ref) <= 1e-6 * (1.0 + abs(ref))


@pytest.mark.parametrize("name,power", [("heat-ou", 1), ("cahn-hilliard", 2),
                                        ("gradient-noise-heat", 1)])
def test_eigenfunction_exactness(name, power):
    model = sm.build_model(name, **(dict(phi_cubic=0.0, phi_linear=0.0)
                                    if name == "cahn-hilliard" else {}))
    basis = model.make_basis(10)
    for k in range(10):
        a = model.apply_A(basis, 0.0, unit(10, k))
        expect = np.zeros(10)
        expect[k] = -basis.eigenvalues[k] ** power
        assert np.max(np.abs(a - expect)) <= 1e-10


def test_galerkin_consistency_linear_vs_nonlinear():
    # heat: truncation commutes with the drift
    heat = sm.HeatOU(0.0)
    b16, b8 = heat.make_basis(16), heat.make_basis(8)
    u = sb.sample_coeffs(b16, 1, seed=3)[0]
    a_big = heat.apply_A(b16, 0.0, u)[:8]
    a_small = heat.apply_A(b8, 0.0, u[:8])
    assert np.allclose(a_big, a_small, atol=1e-12)

    # p-laplacian: it does not (why convergence must be tested, not assumed)
    plap = sm.PLaplacian(4, 0.0, 0.0)
    c16, c8 = plap.make_basis(16), plap.make_basis(8)
    a_big = plap.apply_A(c16, 0.0, u)[:8]
    a_small = plap.apply_A(c8, 0.0, u[:8])
    assert np.max(np.abs(a_big - a_small)) > 1e-6


# --- hypothesis spec bookkeeping ----------------------------------------

def test_chi_two_case_formula():
    spec = sm.HypothesisSpec(beta=1.0, gamma=0.5, theta=1.0, lam=2.0)
    # alpha <= 2: max{1+beta, 1+lam, 1+gamma+2 theta/alpha}
    assert spec.chi(2.0) == max(2.0, 3.0, 1.0 + 0.5 + 1.0)
    # alpha > 2: max{1+beta, 3+lam-alpha, 3+gamma+theta-alpha}
    assert spec.chi(4.0) == max(2.0, 1.0, 0.5)


def test_admissible_p_range():
    spec = sm.HypothesisSpec(c_coercive=1.0, L_B=1.0)
    assert spec.admissible_p_max() == 3.0
    assert sm.HypothesisSpec(c_coercive=1.0, L_B=0.0).admissible_p_max() == np.inf


def test_zoo_alpha_values():
    assert sm.build_model("heat-ou").alpha == 2.0
    assert sm.build_model("p-laplacian", p=4).alpha == 4.0
    assert sm.build_model("convection-diffusion").alpha == 2.0
    assert sm.build_model("cahn-hilliard").alpha == 2.0
    assert sm.build_model("gradient-noise-heat").hypothesis.part2


def test_gradient_noise_declared_constants():
    m = sm.build_model("gradient-noise-heat", nu=1.5)
    assert m.hypothesis.L_B == 1.5 ** 2
    assert m.hypothesis.L_A == 1.0
    assert m.hypothesis.chi(m.alpha) == 1.0


def test_build_model_unknown():
    with pytest.raises(IncompleteSpecError):
        sm.build_model("no-such-model")


# --- declared physics against the hand-written maps ---------------------
# Each model's drift and noise, written out as explicit expressions on
# the grid.  Model derives them from the declared parts; the two must
# agree bit for bit, up to the sign of an exact zero: the hand-written
# drifts negate the grid field before pairing, Model negates the paired
# result, so the torus mode whose derivative vanishes pairs to +0.0 in
# one and -0.0 in the other, and fixture-bad-h5's zero noise columns are
# 0 * dw.  A step adds these terms to the state, and x + (-0.0) differs
# from x + (+0.0) only at x = -0.0.

def _ref_vnorm(b, c):
    return np.sqrt(np.sum((1.0 + b.eigenvalues) * c * c, axis=-1))


def ref_apply_A(m, b, c):
    lam = b.eigenvalues
    if m.name in ("heat-ou", "gradient-noise-heat", "fixture-bad-h5"):
        return -lam * c
    if m.name == "fixture-bad-h1":
        out = -lam * c
        out[..., 0] -= np.sign(c[..., 0])
        return out
    if m.name == "fixture-bad-h3":
        return np.array(c, copy=True)
    if m.name == "p-laplacian":
        du = c @ b.dfns
        flux = np.abs(du) ** (m.p - 2.0) * du
        out = -(flux * b.weights) @ b.dfns.T
        if m.c != 0.0:
            u = c @ b.fns
            low = np.abs(u) ** (m.p - 2.0) * u
            out = out - m.c * ((low * b.weights) @ b.fns.T)
        return out
    if m.name == "convection-diffusion":
        u = c @ b.fns
        du = c @ b.dfns
        flux = m.a_coeff(u) * du + m.b_flux(u)
        return -(flux * b.weights) @ b.dfns.T
    if m.name == "cahn-hilliard":
        out = -(lam ** 2) * c
        if m.a3 != 0.0 or m.a1 != 0.0:
            u = c @ b.fns
            out = out - lam * ((m.phi(u) * b.weights) @ b.fns.T)
        return out
    raise AssertionError(m.name)


def ref_noise(m, b, c, dw):
    """(increment, ||B(c)||^2, ||B(c) - B(c[::-1])||^2) for batched c."""
    lam = b.eigenvalues
    v = c[::-1]
    if m.name in ("heat-ou", "fixture-bad-h1"):
        amps = m.sigma / (1.0 + lam)
        val = float(np.sum(amps ** 2))
        if c.ndim == 1:
            return amps * dw[..., :b.n_modes], val, 0.0
        return amps * dw[..., :b.n_modes], np.full(c.shape[:-1], val), np.zeros(len(c))
    if m.name == "fixture-bad-h5":
        inc = np.zeros_like(c)
        inc[..., 0] = _ref_vnorm(b, c) * dw[..., 0]
        return (inc, _ref_vnorm(b, c) ** 2, (_ref_vnorm(b, c) - _ref_vnorm(b, v)) ** 2)
    if m.name == "fixture-bad-h3":
        hs = np.zeros(c.shape[:-1]) if c.ndim > 1 else 0.0
        return np.zeros_like(c), hs, hs
    if m.name == "gradient-noise-heat":
        def grad(x):
            return sb.analyze(b, x @ b.dfns)
        g, gd = grad(c), grad(c - v)
        return (m.nu * grad(c) * dw[..., 0][..., None], m.nu ** 2 * np.sum(g * g, axis=-1),
                m.nu ** 2 * np.sum(gd * gd, axis=-1))
    diag = m.sigma * (c + 0.1 * np.sin(c)) / (1.0 + lam)
    diag_v = m.sigma * (v + 0.1 * np.sin(v)) / (1.0 + lam)
    return (diag * dw[..., :b.n_modes], np.sum(diag * diag, axis=-1),
            np.sum((diag - diag_v) ** 2, axis=-1))


def same_bits(got, want):
    """Equal bytes once -0.0 is read as +0.0 (adding +0.0 does that and
    changes no other value)."""
    got, want = np.asarray(got) + 0.0, np.asarray(want) + 0.0
    return got.shape == want.shape and got.tobytes() == want.tobytes()


DECLARED_CASES = [(name, {}) for name in sm.MODELS] + [
    ("p-laplacian", {"c": 0.0}), ("p-laplacian", {"c": 0.5}),
    ("cahn-hilliard", {"phi_cubic": 0.0, "phi_linear": 0.0}),
    ("gradient-noise-heat", {"nu": 1.5}), ("heat-ou", {"sigma": 0.8})]


@pytest.mark.parametrize("name,params", DECLARED_CASES)
@pytest.mark.parametrize("n", [8, 16])
def test_declared_physics_matches_hand_written_maps(name, params, n):
    m = sm.build_model(name, **params)
    b = m.make_basis(n)
    rng = np.random.default_rng(n)
    for rows in (None, 1, 37, 256):
        shape = (n,) if rows is None else (rows, n)
        c = rng.standard_normal(shape) * 3.0 / (1.0 + b.eigenvalues) ** 0.5
        dw = rng.standard_normal(shape) * 0.03
        want_inc, want_hs, want_diff = ref_noise(m, b, c, dw)
        models = [m] if rows is None else [m, m.prepare(b, rows)]
        for mm in models:
            assert same_bits(mm.apply_A(b, 0.0, c), ref_apply_A(m, b, c))
            assert same_bits(mm.apply_B_increment(b, 0.0, c, dw), want_inc)
        assert same_bits(m.b_hs_norm_sq(b, 0.0, c), want_hs)
        assert same_bits(m.b_hs_diff_sq(b, 0.0, c, c[::-1]), want_diff)
