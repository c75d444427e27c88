"""Spectral-Galerkin simulation and hypothesis auditing for variational
SPDEs dX = A(t,X) dt + B(t,X) dW on 1D domains."""

from .basis import (GalerkinState, SpectralBasis, analyze, build_basis,
                    dual_norm_estimate, dual_pairing, h_norm, sample_coeffs,
                    synthesize, synthesize_derivative, v_norm)
from .checks import (ConditionReport, check_chi_threshold, check_coercivity,
                     check_growth, check_hemicontinuity,
                     check_local_monotonicity, check_noise, run_all)
from .config import ExperimentConfig, initial_coefficients, load_config
from .diagnostics import (DiagnosticTable, equicontinuity_statistic,
                          galerkin_convergence, initial_data_continuity,
                          loglog_fit, moment_report, uniqueness_probe)
from .models import (MODELS, ZOO, FIXTURES, HypothesisSpec, Model, build_model)
from .noise import (NoisePath, coarsen, dump_increments, load_increments,
                    sample_path, truncate)
from .solver import Trajectory, TrajectoryEnsemble, solve_ensemble, solve_path

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
