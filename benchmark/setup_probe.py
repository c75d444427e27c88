"""Set-up probe: a fresh interpreter made ready to run a workload.

    python3 benchmark/setup_probe.py <src dir> <config.json> [...]

Imports spde, loads each config, and builds its model and basis, plus
the level bases a convergence study builds.  It then prints
time.monotonic(), a clock shared by every process on the host.  The
parent reads that clock before it starts this interpreter, so the
difference is the time from a fresh interpreter to ready.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from spde.config import load_config  # noqa: E402  (needs the path above)

for path in sys.argv[2:]:
    cfg = load_config(path)
    model = cfg.build_model()
    cfg.build_basis(model)
    for n in cfg.experiment.get("levels", ()):
        model.make_basis(n, 4 * n)
print(repr(time.monotonic()))
