import os

import pytest

# One OpenBLAS thread in this process, as a `spde` command has by default,
# set before anything loads numpy: checks.check_hemicontinuity forks its
# child only from a process that runs one thread, and the tests cover that
# path.  Tests that vary the BLAS threads do so in subprocesses.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    solver.run_blocks must reap every noise helper it forks."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return          # no children at all
    pytest.fail(f"a child process is left behind ({'running' if pid == 0 else 'unreaped'})")
