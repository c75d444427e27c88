"""Spectral-Galerkin simulation and hypothesis auditing for variational
SPDEs dX = A(t,X) dt + B(t,X) dW on 1D domains."""

__version__ = "0.1.0"
