"""The benchmark's per-layer tracer still fits the program.

benchmark/tracer.py wraps spde functions by name and reads their
arguments and results.  A refactor that renames a wrapped function or
reshapes what it takes or returns turns a metric into "unmeasured" or,
worse, into a silent zero.  This test installs the tracer, runs a tiny
`converge` and `moments`, and checks the counts against the work done.
"""

import importlib.util
import os

import pytest

from spde import basis, checks, cli, config, diagnostics, models, noise, solver

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracer.py")
MODULES = {"basis": basis, "checks": checks, "cli": cli, "config": config,
           "diagnostics": diagnostics, "models": models, "noise": noise,
           "solver": solver}


@pytest.fixture
def tracer():
    """Install the tracer; put every wrapped module and method back after."""
    spec = importlib.util.spec_from_file_location("spde_bench_tracer", TRACER_PATH)
    tr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tr)
    saved_modules = {mod: dict(vars(mod)) for mod in MODULES.values()}
    saved_methods = {(klass, attr): klass.__dict__[attr]
                     for cls in models.MODELS.values() for klass in cls.__mro__
                     for attr in ("apply_A", "apply_B_increment")
                     if attr in klass.__dict__}
    try:
        yield tr.install(MODULES)
    finally:
        for mod, names in saved_modules.items():
            for name, value in names.items():
                setattr(mod, name, value)
        for (klass, attr), fn in saved_methods.items():
            setattr(klass, attr, fn)


def run(tmp_path, tr, args):
    tr.reset()
    assert cli.main(args + ["--threads", "1", "--out", str(tmp_path)]) == cli.EXIT_OK
    return tr.snapshot()["counts"]


def test_tracer_counts_converge_and_moments(tmp_path, tracer):
    M, steps, levels = 20, 50, [4, 8, 16]
    cfg = tmp_path / "converge.json"
    cfg.write_text(
        '{"command": "converge", "model": {"name": "p-laplacian"},'
        ' "basis": {"n_modes": 16},'
        f' "run": {{"t_end": 0.05, "dt": 0.001, "save_dt": 0.01, "paths": {M}}},'
        f' "experiment": {{"levels": {levels}}}}}')
    counts = run(tmp_path / "c", tracer, ["converge", "--config", str(cfg)])
    assert tracer.missing == []
    assert counts["noise.normals"] == M * steps * max(levels)
    assert counts["solver.path_steps"] == M * steps * len(levels)
    assert 0 < counts["noise.block_mb"] <= noise.CHUNK_NORMALS * 8 / 1e6
    assert counts["models.apply_A.rows"] == M * steps * len(levels)

    M, steps, n = 300, 400, 8
    counts = run(tmp_path / "m", tracer,
                 ["moments", "--model", "heat-ou", "--n-modes", str(n),
                  "--paths", str(M), "--t-end", "0.4", "--dt", "0.001"])
    assert tracer.missing == []
    assert counts["noise.normals"] == M * steps * n
    assert counts["solver.path_steps"] == M * steps
    assert 0 < counts["noise.block_mb"] <= noise.CHUNK_NORMALS * 8 / 1e6
    assert counts["solver.blocks"] > 2          # chunk advances, not blocks
