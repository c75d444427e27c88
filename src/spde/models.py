"""Model zoo: drift A, noise B, exponents and declared hypothesis constants.

Every model works in Galerkin coordinates on the basis it declares and
declares its physics, A(u) = D u + (G(u))_xx + (F(u, u_x))_x - S(u) and
B(u) dW = g(u) dW, in up to five parts: drift_diagonal(basis), the (n,)
diagonal D; potential(u), flux(u, u_x) and source(u), the grid values of
G, F and S (a grid part may return None for zero); noise_field(basis, c),
the field g(u), broadcasting against c.  A part left as None is skipped.

`Model` does the transforms: apply_A synthesizes u once (u_x only for a
flux) and returns D c - lambda (G, e) - (F, e') - (S, e), by quadrature
on the grid, through e_k'' = -lambda_k e_k and one integration by parts;
apply_B_increment is g dW[..., :noise_modes], and the Hilbert-Schmidt
norms are the sums of g^2 and (g(u) - g(v))^2.

All drift/noise maps broadcast over leading axes of the coefficient
array, so ensembles and audit batches evaluate in one call.  A model
names the (n,) per-basis arrays its parts read in `basis_constants` (D
as "drift"); `prepare` gives the solver a copy of the model with those
arrays computed once per block and broadcast to the block's shape.
"""

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import basis as sb
from .errors import BasisKindMismatchError, IncompleteSpecError


@dataclass
class HypothesisSpec:
    """Declared constants for the inequality audits.

    f_const/g_const stand in for the integrable functions f(t), g(t);
    c_coercive is c in the coercivity bound (and plays the role of L_A in
    the starred variants); mono_C and gamma bound |rho|+|eta|;
    beta/gamma/theta/lam are the exponents of the starred local-monotonicity
    side conditions; L_B is the V-norm growth coefficient of the noise.
    """

    f_const: float = 0.0
    g_const: float = 0.0
    c_coercive: float = 1.0
    growth_C: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0
    lam: float = 0.0
    L_B: float = 0.0
    mono_C: float = 0.0
    rho_form: Optional[Callable] = None    # (v_norm, h_norm) -> rho(u), vectorized
    eta_form: Optional[Callable] = None
    K_R_form: Optional[Callable] = None    # R -> K(R)
    part2: bool = False                    # audited against the starred conditions

    @property
    def L_A(self):
        return self.c_coercive

    def chi(self, alpha):
        """Moment-threshold exponent; two cases split at alpha = 2."""
        if alpha <= 2:
            return max(1.0 + self.beta, 1.0 + self.lam,
                       1.0 + self.gamma + 2.0 * self.theta / alpha)
        return max(1.0 + self.beta, 3.0 + self.lam - alpha,
                   3.0 + self.gamma + self.theta - alpha)

    def admissible_p_max(self, alpha=None):
        """Supremum of admissible moment exponents, 1 + 2 L_A / L_B."""
        if self.L_B == 0.0:
            return math.inf
        return 1.0 + 2.0 * self.L_A / self.L_B


class Model:
    """Base class: subclasses declare their physics (module docstring);
    apply_A, apply_B_increment and the noise norms are derived from it."""

    name = "abstract"
    alpha = 2.0
    basis_kind = "dirichlet-interval"
    v_norm_kind = "spectral"
    v_weight_exponent = 1.0
    default_stepper = "semi-implicit"

    drift_diagonal = None      # (basis) -> (n,) D
    potential = None           # (u) -> G(u) on the grid
    flux = None                # (u, u_x) -> F(u, u_x) on the grid
    source = None              # (u) -> S(u) on the grid
    noise_field = None         # (basis, c) -> g(u)

    _prepared = None           # (basis, constants) on a prepared copy

    def __init__(self, hypothesis):
        self.hypothesis = hypothesis

    def make_basis(self, n_modes, grid_size=None):
        if grid_size is None:
            grid_size = 4 * n_modes
        return sb.build_basis(self.basis_kind, n_modes, grid_size,
                              self.v_weight_exponent)

    def check_basis(self, basis):
        if basis.kind != self.basis_kind:
            raise BasisKindMismatchError(
                f"{self.name} expects {self.basis_kind}, got {basis.kind}")

    def noise_modes(self, basis):
        """Number of U-directions the noise actually uses."""
        return basis.n_modes

    def linear_diagonal(self, basis):
        """Diagonal drift part L_k for the semi-implicit stepper, or None."""
        return None if self.drift_diagonal is None else self.drift_diagonal(basis)

    def basis_constants(self, basis):
        """The (n,) arrays, by name, that the declared parts derive from
        the basis alone."""
        return {} if self.drift_diagonal is None else {"drift": self.drift_diagonal(basis)}

    def prepare(self, basis, rows):
        """A copy of the model for stepping `rows` paths on `basis`: the
        basis is checked and basis_constants computed once, broadcast to
        (rows, n), so each step's elementwise ops meet operands of one
        shape.  Only the copy's drift and noise maps read them, and only
        with this basis and (rows, n) coefficients."""
        self.check_basis(basis)
        model = copy.copy(self)
        model._prepared = (basis, {
            k: np.repeat(np.asarray(v, float)[None, :], rows, axis=0)
            for k, v in self.basis_constants(basis).items()})
        return model

    def _constants(self, basis):
        """basis_constants(basis) for the drift and noise maps: read from
        a copy prepared for this basis, else checked and computed."""
        if self._prepared is not None and self._prepared[0] is basis:
            return self._prepared[1]
        self.check_basis(basis)
        return self.basis_constants(basis)

    # drift ------------------------------------------------------------
    def apply_A(self, basis, t, coeffs):
        """D c - lambda (G, e) - (F, e') - (S, e) over the declared parts."""
        c = np.asarray(coeffs, float)
        drift = self._constants(basis).get("drift")
        out = None if drift is None else drift * c
        if self.potential or self.flux or self.source:
            u = c @ basis.fns
            if self.potential:
                out = _minus_pairing(out, self.potential(u), basis, basis.fns,
                                     basis.eigenvalues)
            if self.flux:
                out = _minus_pairing(out, self.flux(u, c @ basis.dfns), basis,
                                     basis.dfns)
            if self.source:
                out = _minus_pairing(out, self.source(u), basis, basis.fns)
        return np.zeros_like(c) if out is None else out

    # noise ------------------------------------------------------------
    def _noise(self, basis, coeffs):
        """g(u) for coefficients c; zeros for a model without noise."""
        c = np.asarray(coeffs, float)
        return np.zeros_like(c) if self.noise_field is None else self.noise_field(basis, c)

    def apply_B_increment(self, basis, t, coeffs, dw):
        c = np.asarray(coeffs, float)
        if self.noise_field is None:        # +0.0, where 0 * dw can be -0.0
            return np.zeros_like(c)
        return self.noise_field(basis, c) * np.asarray(dw)[..., :self.noise_modes(basis)]

    # a g that does not depend on u (additive noise) has shape (n,); adding
    # zeros, which is exact, gives its norm the coefficients' leading shape
    def b_hs_norm_sq(self, basis, t, coeffs):
        c = np.asarray(coeffs, float)
        g = self._noise(basis, c)
        return np.sum(g * g, axis=-1) + np.zeros(c.shape[:-1])

    def b_hs_diff_sq(self, basis, t, coeffs_u, coeffs_v):
        u = np.asarray(coeffs_u, float)
        d = self._noise(basis, u) - self._noise(basis, coeffs_v)
        return np.sum(d * d, axis=-1) + np.zeros(u.shape[:-1])


def _minus_pairing(out, field, basis, fns, scale=None):
    """out - scale * (field, fns) with the pairing by quadrature; a field
    of None is skipped, and an out of None stands for zero."""
    if field is None:
        return out
    term = (field * basis.weights) @ fns.T
    if scale is not None:
        term = scale * term
    return np.negative(term, out=term) if out is None else out - term


class _DiagonalLipschitzNoise:
    """Mixin: diagonal bounded-Lipschitz noise map.

    B(u) h_k = sigma * (c_k + 0.1 sin c_k) / (1 + lambda_k) * e_k.
    H-Lipschitz with constant 1.1*sigma, zero at zero, and the spectral
    damping keeps the Hilbert-Schmidt norm bounded uniformly in the
    Galerkin dimension.
    """

    def basis_constants(self, basis):
        return {**super().basis_constants(basis), "damping": 1.0 + basis.eigenvalues}

    def noise_field(self, basis, c):
        return self.sigma * (c + 0.1 * np.sin(c)) / self._constants(basis)["damping"]


class HeatOU(Model):
    """du = Laplace(u) dt + B dW with additive diagonal noise
    b_k = sigma/(1+lambda_k) on the Dirichlet interval."""

    name = "heat-ou"
    alpha = 2.0
    basis_kind = "dirichlet-interval"
    v_norm_kind = "spectral"
    v_weight_exponent = 1.0
    default_stepper = "semi-implicit"

    def __init__(self, sigma=0.5):
        self.sigma = float(sigma)
        super().__init__(HypothesisSpec(
            f_const=2.0,
            g_const=0.32 * self.sigma ** 2,
            c_coercive=2.0,
            growth_C=1.0,
            beta=0.0, gamma=0.0, mono_C=0.0,
            rho_form=None, eta_form=None,
            K_R_form=lambda R: 0.0,
        ))

    def drift_diagonal(self, basis):
        return -basis.eigenvalues

    def basis_constants(self, basis):
        return {**super().basis_constants(basis),
                "amps": self.sigma / (1.0 + basis.eigenvalues)}

    def noise_field(self, basis, c):
        return self._constants(basis)["amps"]


class PLaplacian(_DiagonalLipschitzNoise, Model):
    """du = [d/dx(|u_x|^{p-2} u_x) - c |u|^{p-2} u] dt + B(u) dW,
    Dirichlet interval, coercivity exponent alpha = p."""

    name = "p-laplacian"
    basis_kind = "dirichlet-interval"
    v_norm_kind = "gradient-seminorm"
    v_weight_exponent = 1.0
    default_stepper = "explicit-tamed"

    def __init__(self, p=4.0, c=1.0, sigma=0.5):
        if p < 2:
            raise IncompleteSpecError("p-laplacian requires p >= 2")
        self.p = float(p)
        self.c = float(c)
        self.sigma = float(sigma)
        self.alpha = self.p
        lip_sq = (1.1 * self.sigma) ** 2
        super().__init__(HypothesisSpec(
            f_const=max(1.3 * self.sigma ** 2, lip_sq),
            g_const=1.3 * self.sigma ** 2,
            c_coercive=2.0,
            # |<A(u),v>| <= (1 + c*pi^p) ||u||_V^{p-1} ||v||_V via Poincare;
            # declared with headroom, the audit fits the sharp value.
            growth_C=2.0 * (1.0 + self.c * np.pi ** self.p) ** (self.p / (self.p - 1.0)),
            beta=0.0, gamma=0.0, mono_C=0.0,
            rho_form=None, eta_form=None,
            K_R_form=lambda R: 0.0,
        ))

    # in-place on their own temporaries: no extra pass over the grid
    def flux(self, u, du):
        f = np.abs(du)
        f **= self.p - 2.0
        f *= du
        return f

    def source(self, u):
        if self.c == 0.0:
            return None
        s = np.abs(u)
        s **= self.p - 2.0
        s *= u
        s *= self.c
        return s


class ConvectionDiffusion(_DiagonalLipschitzNoise, Model):
    """du = d/dx[a(u) u_x + b(u)] dt + B(u) dW on the torus with
    a(u) = 1 + 1/(1+u^2) (bounded, uniformly elliptic) and b(u) = sin(u)."""

    name = "convection-diffusion"
    alpha = 2.0
    basis_kind = "periodic-torus"
    v_norm_kind = "spectral"
    v_weight_exponent = 1.0
    default_stepper = "semi-implicit"

    def __init__(self, sigma=0.5, mono_scale=64.0):
        self.sigma = float(sigma)
        self.mono_scale = float(mono_scale)
        C0 = self.mono_scale
        super().__init__(HypothesisSpec(
            f_const=8.0 + 1.3 * self.sigma ** 2,
            g_const=1.3 * self.sigma ** 2,
            c_coercive=2.0,
            growth_C=16.0,
            beta=0.0, gamma=2.0,
            mono_C=2.0 * C0,
            rho_form=lambda v, h: C0 * (1.0 + v ** 2) * (1.0 + h ** 2),
            eta_form=lambda v, h: C0 * (1.0 + v ** 2) * (1.0 + h ** 2),
            K_R_form=lambda R: 8.0 + 1.3 * sigma ** 2 + C0 * (1.0 + R ** 2) ** 2,
        ))

    @staticmethod
    def a_coeff(u):
        return 1.0 + 1.0 / (1.0 + u * u)

    @staticmethod
    def b_flux(u):
        return np.sin(u)

    def linear_diagonal(self, basis):
        # the drift is all flux; the stepper takes -lambda implicitly
        return -basis.eigenvalues

    def flux(self, u, du):
        return self.a_coeff(u) * du + self.b_flux(u)


class CahnHilliard(_DiagonalLipschitzNoise, Model):
    """du = [-u_xxxx + (phi(u))_xx] dt + B(u) dW, Neumann interval,
    V of H^2 type (spectral weights with s = 2), phi(x) = a3 x^3 + a1 x."""

    name = "cahn-hilliard"
    alpha = 2.0
    basis_kind = "neumann-interval"
    v_norm_kind = "spectral"
    v_weight_exponent = 2.0
    default_stepper = "semi-implicit"

    def __init__(self, sigma=0.5, phi_cubic=1.0, phi_linear=-1.0, mono_scale=24.0):
        if phi_cubic < 0:
            raise IncompleteSpecError("phi' >= -C needs a nonnegative cubic coefficient")
        self.sigma = float(sigma)
        self.a3 = float(phi_cubic)
        self.a1 = float(phi_linear)
        self.mono_scale = float(mono_scale)
        C0 = self.mono_scale
        super().__init__(HypothesisSpec(
            f_const=9.0 + 1.3 * self.sigma ** 2,
            g_const=1.3 * self.sigma ** 2,
            c_coercive=1.0,
            # ||phi(u)||^2 <= C(||u||_V^2 ||u||_H^4 + ||u||_H^6) by
            # Gagliardo-Nirenberg in d=1, hence beta = 6 here
            growth_C=48.0,
            beta=6.0, gamma=3.0,
            mono_C=2.0 * C0,
            # cubic phi in d=1: V-exponent d(p-1)/2 = 1, H-exponent (4-d)(p-1)/2 = 3
            rho_form=lambda v, h: C0 * (1.0 + v * h ** 3),
            eta_form=lambda v, h: C0 * (1.0 + v * h ** 3),
            K_R_form=lambda R: 9.0 + 2.0 * C0 * (1.0 + R ** 4),
        ))

    def phi(self, u):
        # u * u * u, not u ** 3: numpy's float power is far slower than two
        # multiplies, and phi runs on every collocation point of apply_A
        return self.a3 * (u * u * u) + self.a1 * u

    def drift_diagonal(self, basis):
        return -(basis.eigenvalues ** 2)

    def potential(self, u):
        return self.phi(u) if self.a3 != 0.0 or self.a1 != 0.0 else None


class GradientNoiseHeat(Model):
    """du = u_xx dt + nu u_x d(beta), a single Brownian motion driving a
    gradient-dependent noise; the Part II test case with L_A = 1,
    L_B = nu^2, chi = 1 (mean-square stable iff nu^2 < 2)."""

    name = "gradient-noise-heat"
    alpha = 2.0
    basis_kind = "dirichlet-interval"
    v_norm_kind = "spectral"
    v_weight_exponent = 1.0
    default_stepper = "semi-implicit"

    def __init__(self, nu=1.0):
        self.nu = float(nu)
        super().__init__(HypothesisSpec(
            f_const=1.0,
            g_const=0.0,
            c_coercive=1.0,            # L_A
            growth_C=1.0,
            beta=0.0, gamma=0.0, theta=0.0, lam=0.0,
            L_B=self.nu ** 2,
            mono_C=0.0,
            rho_form=None, eta_form=None,
            part2=True,
        ))

    def drift_diagonal(self, basis):
        return -basis.eigenvalues

    def noise_modes(self, basis):
        return 1

    def _projected_gradient(self, basis, coeffs):
        return sb.analyze(basis, coeffs @ basis.dfns)

    def noise_field(self, basis, c):
        self.check_basis(basis)
        return self.nu * self._projected_gradient(basis, c)

    # B is linear: the norms square one projected gradient, scaled after
    def b_hs_norm_sq(self, basis, t, coeffs):
        g = self._projected_gradient(basis, np.asarray(coeffs, float))
        return self.nu ** 2 * np.sum(g * g, axis=-1)

    def b_hs_diff_sq(self, basis, t, coeffs_u, coeffs_v):
        return self.b_hs_norm_sq(basis, t, np.asarray(coeffs_u, float) - coeffs_v)


# --- negative-control fixtures -----------------------------------------

class FixtureBadH1(HeatOU):
    """Heat drift minus sign(c_1) in the first coordinate: still monotone
    and coercive, but hemicontinuity fails along segments crossing c_1 = 0."""

    name = "fixture-bad-h1"

    def __init__(self, sigma=0.0):
        super().__init__(sigma=sigma)

    def linear_diagonal(self, basis):
        return None

    def apply_A(self, basis, t, coeffs):
        out = super().apply_A(basis, t, coeffs)
        out[..., 0] -= np.sign(np.asarray(coeffs, float)[..., 0])
        return out


class FixtureBadH5(HeatOU):
    """Noise with V-norm growth, ||B(u)||^2 = ||u||_V^2: violates the
    H-growth bound of the noise condition (and only that one; the
    understated coercivity constant keeps the H3 margin positive)."""

    name = "fixture-bad-h5"

    def __init__(self, sigma=1.0):
        super().__init__(sigma=sigma)
        self.hypothesis.g_const = max(1.0, self.sigma ** 2)
        self.hypothesis.c_coercive = 0.5

    def noise_field(self, basis, c):
        g = np.zeros_like(c)
        g[..., 0] = np.sqrt(np.sum((1.0 + basis.eigenvalues) * c * c, axis=-1))
        return g


class FixtureBadH3(Model):
    """Anti-dissipative drift A(u) = +u with an understated f: coercivity
    fails at moderate amplitudes."""

    name = "fixture-bad-h3"
    alpha = 2.0
    basis_kind = "dirichlet-interval"
    v_norm_kind = "spectral"
    v_weight_exponent = 1.0

    def __init__(self):
        super().__init__(HypothesisSpec(
            f_const=0.5, g_const=0.0, c_coercive=1.0, growth_C=4.0,
            mono_C=4.0, rho_form=lambda v, h: 2.0, eta_form=lambda v, h: 2.0,
            K_R_form=lambda R: 2.0))

    def apply_A(self, basis, t, coeffs):
        self.check_basis(basis)
        return np.array(coeffs, float, copy=True)


MODELS = {
    "heat-ou": HeatOU,
    "p-laplacian": PLaplacian,
    "convection-diffusion": ConvectionDiffusion,
    "cahn-hilliard": CahnHilliard,
    "gradient-noise-heat": GradientNoiseHeat,
    "fixture-bad-h1": FixtureBadH1,
    "fixture-bad-h5": FixtureBadH5,
    "fixture-bad-h3": FixtureBadH3,
}

ZOO = ("heat-ou", "p-laplacian", "convection-diffusion", "cahn-hilliard",
       "gradient-noise-heat")

FIXTURES = ("fixture-bad-h1", "fixture-bad-h5", "fixture-bad-h3")


def build_model(name, **params):
    if name not in MODELS:
        raise IncompleteSpecError(f"unknown model {name!r}")
    return MODELS[name](**params)
