"""The benchmark's per-layer tracer still fits the program.

benchmark/tracer.py wraps spde functions by name and reads their
arguments and results.  A refactor that renames a wrapped function or
reshapes what it takes or returns turns a metric into "unmeasured" or,
worse, into a silent zero.  These tests install the tracer, run a tiny
`converge`, `moments`, `continuity` and `uniqueness`, and check the
counts against the work done.
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
    # every step goes through the (prepared) model's own methods
    assert counts["models.apply_A.rows"] == M * steps
    assert counts["models.apply_B_increment.rows"] == M * steps


def test_tracer_counts_continuity_and_uniqueness(tmp_path, tracer):
    # both experiments step through solver._advance_block from inside
    # solver.run_blocks callbacks; every step of every run must be counted
    M, steps, n, eps = 20, 40, 8, [0.1, 0.05, 0.025]
    cfg = tmp_path / "continuity.json"
    cfg.write_text(
        '{"command": "continuity", "model": {"name": "p-laplacian"},'
        f' "basis": {{"n_modes": {n}}},'
        f' "run": {{"t_end": 0.04, "dt": 0.001, "save_dt": 0.01, "paths": {M}}},'
        f' "experiment": {{"perturbations": {eps}}}}}')
    counts = run(tmp_path / "c", tracer, ["continuity", "--config", str(cfg)])
    assert tracer.missing == []
    assert counts["noise.normals"] == M * steps * n
    assert counts["solver.path_steps"] == M * steps * (1 + len(eps))

    # dt-refinement: each level d runs at d and d / 2, both from one path
    # at half the finest level
    t_end, dt_levels = 0.04, [0.004, 0.002]
    cfg = tmp_path / "uniqueness.json"
    cfg.write_text(
        '{"command": "uniqueness", "model": {"name": "p-laplacian"},'
        f' "basis": {{"n_modes": {n}}},'
        f' "run": {{"t_end": {t_end}, "dt": 0.001, "save_dt": 0.008, "paths": {M}}},'
        f' "experiment": {{"dt_levels": {dt_levels}}}}}')
    counts = run(tmp_path / "u", tracer, ["uniqueness", "--config", str(cfg)])
    assert tracer.missing == []
    fine_steps = round(t_end / (min(dt_levels) / 2))
    assert counts["noise.normals"] == M * fine_steps * n
    assert counts["solver.path_steps"] == M * sum(round(t_end / d) * 3
                                                  for d in dt_levels)
