"""Spectral-Galerkin simulation and hypothesis auditing for variational
SPDEs dX = A(t,X) dt + B(t,X) dW on 1D domains.

Importing spde before numpy gives OpenBLAS one thread
(OPENBLAS_NUM_THREADS=1) unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
or OMP_NUM_THREADS is set.  A second BLAS thread doubled the CPU time of
audits and convergence runs for no wall-time gain, and a core is better
spent on the noise helper processes (noise.start_helpers), which in a
convergence run also step the coarser Galerkin levels.  No result
depends on the BLAS thread count.  Importing numpy before spde leaves
the setting alone: OpenBLAS reads it once, when numpy loads.
"""

import os
import sys

if "numpy" not in sys.modules and not any(
        v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                  "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
