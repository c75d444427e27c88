import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde import basis as sb
from spde.errors import (DimensionMismatchError, InvalidDimensionError,
                         UnsupportedModelNormError)
from spde.models import HeatOU, PLaplacian


class SpectralProxy:
    v_norm_kind = "spectral"
    alpha = 2.0


class GradientProxy:
    def __init__(self, alpha=4.0):
        self.alpha = alpha
    v_norm_kind = "gradient-seminorm"


def test_eigenvalues_dirichlet():
    b = sb.build_basis("dirichlet-interval", 4, 64, 1.0)
    assert np.allclose(b.eigenvalues, [1, 4, 9, 16])


def test_eigenvalues_neumann():
    b = sb.build_basis("neumann-interval", 3, 64, 2.0)
    assert np.allclose(b.eigenvalues, [0, 1, 4])


def test_eigenvalues_periodic():
    b = sb.build_basis("periodic-torus", 5, 64, 1.0)
    assert np.allclose(b.eigenvalues, [0, 1, 1, 4, 4])


@pytest.mark.parametrize("kind", sb.KINDS)
def test_orthonormality(kind):
    b = sb.build_basis(kind, 12, 48)
    gram = (b.fns * b.weights) @ b.fns.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-10
    assert np.all(np.diff(b.eigenvalues) >= 0)


def test_build_basis_preconditions():
    with pytest.raises(InvalidDimensionError):
        sb.build_basis("dirichlet-interval", 0, 64)
    with pytest.raises(InvalidDimensionError):
        sb.build_basis("dirichlet-interval", 8, 31)
    with pytest.raises(InvalidDimensionError):
        sb.build_basis("no-such-kind", 4, 64)


def test_grid_values_zero_and_single_mode():
    b = sb.build_basis("dirichlet-interval", 4, 64)
    assert np.all(np.zeros(4) @ b.fns == 0)
    vals = np.array([1.0, 0, 0, 0]) @ b.fns
    assert np.allclose(vals, np.sqrt(2 / np.pi) * np.sin(b.nodes), atol=1e-14)


def test_analyze_dimension_mismatch():
    b = sb.build_basis("dirichlet-interval", 4, 64)
    with pytest.raises(DimensionMismatchError):
        sb.analyze(b, np.ones(7))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_roundtrip_analyze_grid_values(seed):
    b = sb.build_basis("periodic-torus", 7, 28)
    u = np.random.default_rng(seed).standard_normal(7)
    back = sb.analyze(b, u @ b.fns)
    assert np.max(np.abs(back - u)) < 1e-10


def test_analyze_basis_function_and_zero():
    b = sb.build_basis("neumann-interval", 6, 48)
    coeffs = sb.analyze(b, b.fns[2])
    expect = np.zeros(6)
    expect[2] = 1.0
    assert np.max(np.abs(coeffs - expect)) < 1e-10
    assert np.all(sb.analyze(b, np.zeros(b.grid_size)) == 0)


def test_analyze_constant_function_dirichlet():
    # quadrature of e_k against 1: odd modes only, first = sqrt(2/pi)*2
    b = sb.build_basis("dirichlet-interval", 6, 4096)
    c = sb.analyze(b, np.ones(b.grid_size))
    assert abs(c[0] - np.sqrt(2 / np.pi) * 2.0) < 1e-5
    assert abs(c[1]) < 1e-12 and abs(c[3]) < 1e-12   # even modes vanish
    assert abs(c[2] - np.sqrt(2 / np.pi) * 2.0 / 3.0) < 1e-5


def test_h_norm_values():
    b = sb.build_basis("dirichlet-interval", 2, 8)
    assert sb.h_norm(b, [1.0, 0.0]) == 1.0
    assert sb.h_norm(b, [3.0, 4.0]) == 5.0


def test_h_norm_quadrature_oracle():
    b = sb.build_basis("dirichlet-interval", 10, 40)
    u = sb.sample_coeffs(b, 32, seed=5)
    h = sb.h_norm(b, u)
    grid_sq = np.sum((u @ b.fns) ** 2 * b.weights, axis=-1)
    assert np.all(np.abs(h ** 2 - grid_sq) <= 1e-9 * (1.0 + h ** 2))


def test_v_norm_heat_mode_one():
    b = sb.build_basis("dirichlet-interval", 4, 16, 1.0)
    v = sb.v_norm(b, SpectralProxy(), [1.0, 0, 0, 0])
    assert abs(v - np.sqrt(2.0)) < 1e-14


def test_v_norm_gradient_seminorm_p4():
    b = sb.build_basis("dirichlet-interval", 4, 64, 1.0)
    v = sb.v_norm(b, GradientProxy(4.0), [1.0, 0, 0, 0])
    expect = ((2 / np.pi) ** 2 * 3 * np.pi / 8) ** 0.25   # int cos^4 = 3pi/8
    assert abs(v - expect) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_v_norm_row_bits_do_not_depend_on_row_count(p, n):
    # OpenBLAS picks its kernel by problem size; the padded rows keep a
    # row's bits alone, in a reshaped batch and among any number of rows
    m = PLaplacian(p, 1.0, 0.4)
    b = m.make_basis(n)
    u = sb.sample_coeffs(b, 600, seed=7)
    ref = sb.v_norm(b, m, u)
    for k in (1, 37, 255, 256, 299):
        assert np.array_equal(sb.v_norm(b, m, u[:k]), ref[:k])
    assert np.array_equal(sb.v_norm(b, m, u[:300].reshape(20, 15, n)),
                          ref[:300].reshape(20, 15))
    for i in (0, 36, 254, 255, 298, 599):
        assert sb.v_norm(b, m, u[i]) == ref[i]


def test_v_norm_zero_iff_zero_dirichlet():
    b = sb.build_basis("dirichlet-interval", 5, 20)
    assert sb.v_norm(b, SpectralProxy(), np.zeros(5)) == 0.0
    u = sb.sample_coeffs(b, 8, seed=2)
    assert np.all(sb.v_norm(b, SpectralProxy(), u) > 0)
    assert np.all(sb.v_norm(b, GradientProxy(4.0), u) > 0)


def test_v_norm_unknown_kind():
    b = sb.build_basis("dirichlet-interval", 4, 16)

    class NoNorm:
        pass

    with pytest.raises(UnsupportedModelNormError):
        sb.v_norm(b, NoNorm(), np.ones(4))


def test_dual_norm_exact_spectral():
    b = sb.build_basis("dirichlet-interval", 4, 16, 1.0)
    assert sb.dual_norm_estimate(b, SpectralProxy(), np.zeros(4)) == 0.0
    got = sb.dual_norm_estimate(b, SpectralProxy(), [1.0, 0, 0, 0])
    assert abs(got - 1 / np.sqrt(2.0)) < 1e-14


def test_dual_norm_probe_requirement():
    b = sb.build_basis("dirichlet-interval", 4, 16)
    with pytest.raises(InvalidDimensionError):
        sb.dual_norm_estimate(b, GradientProxy(2.0), np.ones(4), n_probe=8)


def test_dual_norm_sampled_lower_bound():
    # sampled maximum is a lower bound of the exact diagonal dual norm and
    # gets within 20% of it at 512 probes in 4 modes
    b = sb.build_basis("dirichlet-interval", 4, 16, 1.0)
    rng = np.random.default_rng(42)
    model = HeatOU(sigma=0.0)
    for _ in range(5):
        F = rng.standard_normal(4)
        exact = sb.dual_norm_estimate(b, model, F)
        probes = sb.sample_coeffs(b, 512, seed=9)
        vn = sb.v_norm(b, model, probes)
        sampled = float(np.max(np.abs(F @ (probes / vn[:, None]).T)))
        assert sampled <= exact * (1 + 1e-12)
        assert sampled >= 0.8 * exact


def test_norm_chain_with_fitted_constants():
    # fit the embedding constant on one batch, check fresh samples with a
    # 5% allowance for the fit not being the exact supremum
    models = [HeatOU(sigma=0.0), PLaplacian(p=4.0, c=1.0, sigma=0.0)]
    for model in models:
        b = model.make_basis(8)
        c_emb = 0.0
        for s in (1, 2, 3, 4):      # largest observed ||u||_H / ||u||_V
            c = sb.sample_coeffs(b, 1024, seed=s)
            h, v = sb.h_norm(b, c), sb.v_norm(b, model, c)
            c_emb = max(c_emb, float(np.max(h[v > 0] / v[v > 0])))
        u = sb.sample_coeffs(b, 128, seed=77)
        h = sb.h_norm(b, u)
        v = sb.v_norm(b, model, u)
        assert np.all(h <= 1.05 * c_emb * v)
        dual = sb.dual_norm_estimate(b, model, u, n_probe=64, seed=3)
        assert np.all(dual <= 1.05 * c_emb * h)


def test_parseval_invariant():
    for kind in sb.KINDS:
        b = sb.build_basis(kind, 9, 36)
        u = sb.sample_coeffs(b, 64, seed=3)
        h2 = np.sum(u * u, axis=-1)
        grid_sq = np.sum((u @ b.fns) ** 2 * b.weights, axis=-1)
        assert np.all(np.abs(h2 - grid_sq) <= 1e-9 * (1.0 + h2))

