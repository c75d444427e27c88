import os

import pytest


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
