"""Concrete spectral realization of the triple V ⊆ H ⊆ V*.

H is L² on one of three 1D domains, represented in an orthonormal
eigenbasis of -d²/dx² (with the boundary condition selecting the basis),
together with a uniform collocation grid carrying trapezoid quadrature
weights.  All norms, pairings and the projection onto the first n modes
are evaluated either diagonally in coefficients or by quadrature on the
grid.

Coefficient arrays broadcast: every operation accepts shape (..., n) and
returns results with matching leading dimensions.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    UnsupportedModelNormError,
)

KINDS = ("dirichlet-interval", "neumann-interval", "periodic-torus")


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs plus collocation grid; immutable once built."""

    kind: str
    n_modes: int
    eigenvalues: np.ndarray      # (n,), nondecreasing
    nodes: np.ndarray            # (G,)
    weights: np.ndarray          # (G,) quadrature weights
    v_weight_exponent: float     # s in the spectral V-norm weights (1+lambda)^s
    fns: np.ndarray = field(repr=False, default=None)    # (n, G) e_k(x_j)
    dfns: np.ndarray = field(repr=False, default=None)   # (n, G) e_k'(x_j)

    @property
    def grid_size(self):
        return self.nodes.shape[0]


def _interval_grid(grid_size):
    # trapezoid rule on [0, pi]; exact for trig polynomials of degree < 2(G-1)
    nodes = np.linspace(0.0, np.pi, grid_size)
    h = np.pi / (grid_size - 1)
    weights = np.full(grid_size, h)
    weights[0] = weights[-1] = h / 2.0
    return nodes, weights


def _periodic_grid(grid_size):
    nodes = 2.0 * np.pi * np.arange(grid_size) / grid_size
    weights = np.full(grid_size, 2.0 * np.pi / grid_size)
    return nodes, weights


def build_basis(kind, n_modes, grid_size, v_weight_exponent=1.0):
    """Construct the basis for the given domain kind.

    Requires grid_size >= 4*n_modes, which both de-aliases cubic
    nonlinearities and keeps the quadrature of every basis-function
    product exact.
    """
    if kind not in KINDS:
        raise InvalidDimensionError(f"unknown basis kind {kind!r}")
    if n_modes < 1:
        raise InvalidDimensionError("n_modes must be >= 1")
    if grid_size < 4 * n_modes:
        raise InvalidDimensionError(
            f"grid_size {grid_size} < 4*n_modes = {4 * n_modes}")
    if v_weight_exponent < 0:
        raise InvalidDimensionError("v_weight_exponent must be >= 0")

    if kind == "dirichlet-interval":
        nodes, weights = _interval_grid(grid_size)
        k = np.arange(1, n_modes + 1)
        lam = k.astype(float) ** 2
        amp = np.sqrt(2.0 / np.pi)
        fns = amp * np.sin(np.outer(k, nodes))
        dfns = amp * k[:, None] * np.cos(np.outer(k, nodes))
    elif kind == "neumann-interval":
        nodes, weights = _interval_grid(grid_size)
        m = np.arange(n_modes)        # wavenumbers 0, 1, 2, ...
        lam = m.astype(float) ** 2
        fns = np.cos(np.outer(m, nodes)) * np.sqrt(2.0 / np.pi)
        fns[0] = 1.0 / np.sqrt(np.pi)
        dfns = -np.sqrt(2.0 / np.pi) * m[:, None] * np.sin(np.outer(m, nodes))
        dfns[0] = 0.0
    else:  # periodic-torus
        nodes, weights = _periodic_grid(grid_size)
        fns = np.empty((n_modes, grid_size))
        dfns = np.empty((n_modes, grid_size))
        lam = np.empty(n_modes)
        fns[0] = 1.0 / np.sqrt(2.0 * np.pi)
        dfns[0] = 0.0
        lam[0] = 0.0
        amp = 1.0 / np.sqrt(np.pi)
        for i in range(1, n_modes):
            m = (i + 1) // 2
            lam[i] = float(m * m)
            if i % 2 == 1:            # cos(mx), sin(mx) pairs
                fns[i] = amp * np.cos(m * nodes)
                dfns[i] = -amp * m * np.sin(m * nodes)
            else:
                fns[i] = amp * np.sin(m * nodes)
                dfns[i] = amp * m * np.cos(m * nodes)

    return SpectralBasis(kind=kind, n_modes=n_modes, eigenvalues=lam,
                         nodes=nodes, weights=weights,
                         v_weight_exponent=float(v_weight_exponent),
                         fns=fns, dfns=dfns)


def analyze(basis, grid_values):
    """Project grid values onto the first n modes by quadrature."""
    v = np.asarray(grid_values, float)
    if v.shape[-1] != basis.grid_size:
        raise DimensionMismatchError(
            f"expected {basis.grid_size} grid values, got {v.shape[-1]}")
    return (v * basis.weights) @ basis.fns.T


def row_matmul(a, matrix):
    """a @ matrix over the rows of a (..., k), a row's bits whatever rows
    come with it.  OpenBLAS picks its kernel, and so its rounding, by
    problem size; zero-padding the rows to a multiple of 256 keeps every
    row count on the same kernels."""
    rows = a.reshape(-1, a.shape[-1])
    pad = -len(rows) % 256
    if pad:
        rows = np.concatenate([rows, np.zeros((pad, rows.shape[1]))])
    out = rows @ matrix
    return out[:len(out) - pad].reshape(a.shape[:-1] + out.shape[1:])


def h_norm(basis, state):
    """L² norm via Parseval: the Euclidean norm of the coefficients."""
    return np.linalg.norm(np.asarray(state, float), axis=-1)


def v_norm(basis, model, state):
    """Model-declared V-norm.

    Spectral models use diagonal weights (1+lambda_k)^s; gradient-seminorm
    models (the p-Laplacian class) use the L^alpha norm of the derivative,
    which is equivalent to the full W^{1,alpha} norm on these bounded
    domains.  Its matmuls are row_matmul's.
    """
    c = np.asarray(state, float)
    kind = getattr(model, "v_norm_kind", None)
    if kind == "spectral":
        w = (1.0 + basis.eigenvalues) ** basis.v_weight_exponent
        return np.sqrt(np.sum(w * c * c, axis=-1))
    if kind == "gradient-seminorm":
        a = model.alpha
        du = row_matmul(c, basis.dfns)
        return row_matmul(np.abs(du) ** a, basis.weights) ** (1.0 / a)
    raise UnsupportedModelNormError(
        f"model {getattr(model, 'name', model)!r} declares no V-norm kind")


def sample_coeffs(basis, n_samples, seed, scales=(0.1, 1.0, 10.0, 100.0)):
    """Multi-scale random states for audits and probes.

    Gaussian coefficients with spectral decay (1+lambda_k)^(-r/2), cycling
    r over three smoothness exponents and the overall amplitude over
    `scales`, so both high-frequency and large-amplitude regimes are probed.
    """
    smoothness = (0.6, 1.1, 2.1)
    rng = np.random.default_rng(np.random.Philox(key=seed))
    n = basis.n_modes
    r = np.asarray(smoothness)[np.arange(n_samples) % len(smoothness)]
    sd = (1.0 + basis.eigenvalues)[None, :] ** (-r[:, None] / 2.0)
    c = rng.standard_normal((n_samples, n)) * sd
    amp = np.asarray(scales)[(np.arange(n_samples) // len(smoothness)) % len(scales)]
    return c * amp[:, None]


def dual_norm_estimate(basis, model, dual_coeffs, n_probe=128, seed=0):
    """Dual norm of F given by its coefficients <F, e_k>.

    For spectral-diagonal V-norms this is the exact value
    (sum (1+lambda)^(-s) f_k^2)^(1/2).  Otherwise it is the maximum of
    <F, v> over n_probe random unit-V-norm states: a certified lower
    bound, which keeps growth audits conservative.
    """
    if n_probe < 32:
        raise InvalidDimensionError("n_probe must be >= 32")
    f = np.asarray(dual_coeffs, float)
    if f.shape[-1] != basis.n_modes:
        raise DimensionMismatchError("dual coefficient length mismatch")
    if getattr(model, "v_norm_kind", None) == "spectral":
        w = (1.0 + basis.eigenvalues) ** (-basis.v_weight_exponent)
        return np.sqrt(np.sum(w * f * f, axis=-1))
    probes = sample_coeffs(basis, n_probe, seed)
    vn = v_norm(basis, model, probes)
    keep = vn > 0
    probes = probes[keep] / vn[keep][:, None]
    vals = np.abs(f @ probes.T)          # (..., n_probe)
    return np.max(vals, axis=-1)

