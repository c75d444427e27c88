import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spde
from spde import cli
from spde import diagnostics as dg
from spde import models as sm
from spde import noise as sn
from spde import solver as sv
from spde import config as cf
from spde.config import EXPERIMENT_KEYS, READS, initial_coefficients, load_config
from spde.errors import ConfigError


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_minimal_config_defaults(tmp_path):
    path = write_cfg(tmp_path, {"command": "simulate",
                                "model": {"name": "heat-ou"}})
    cfg = load_config(path)
    assert cfg.basis["n_modes"] == 16
    assert cfg.run["dt"] == 1e-3 and cfg.run["save_dt"] == 1e-3
    model = cfg.build_model()
    basis = cfg.build_basis(model)
    assert basis.grid_size == 4 * 16                      # G = 4n default
    assert model.default_stepper == "semi-implicit"


def test_ratio_error(tmp_path):
    path = write_cfg(tmp_path, {
        "command": "simulate", "model": {"name": "heat-ou"},
        "run": {"dt": 0.003, "save_dt": 0.01}})
    with pytest.raises(ConfigError, match="save_dt/dt"):
        load_config(path)


def test_unknown_top_key(tmp_path):
    path = write_cfg(tmp_path, {"command": "check",
                                "modle": {"name": "heat-ou"}})
    with pytest.raises(ConfigError, match="modle"):
        load_config(path)


def test_unknown_nested_key(tmp_path):
    path = write_cfg(tmp_path, {"command": "check",
                                "model": {"name": "heat-ou", "sgima": 1.0}})
    with pytest.raises(ConfigError, match="model.sgima"):
        load_config(path)
    path = write_cfg(tmp_path, {"command": "check",
                                "model": {"name": "heat-ou"},
                                "run": {"dtt": 0.01}})
    with pytest.raises(ConfigError, match="run.dtt"):
        load_config(path)


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="parse"):
        load_config(str(p))


def test_flags_override_file(tmp_path):
    path = write_cfg(tmp_path, {"command": "simulate",
                                "model": {"name": "heat-ou", "sigma": 1.0},
                                "run": {"dt": 1e-3}})
    cfg = load_config(path, flags={"sigma": 0.0, "n_modes": 8, "seed": 5})
    assert cfg.model_params["sigma"] == 0.0
    assert cfg.basis["n_modes"] == 8
    assert cfg.run["seed"] == 5


def test_command_required():
    with pytest.raises(ConfigError, match="command"):
        load_config(None, flags={"model": "heat-ou"})


def test_unknown_model():
    with pytest.raises(ConfigError, match="unknown model"):
        load_config(None, flags={"command": "check", "model": "heat"})


def test_x0_presets():
    c = initial_coefficients("decay2", 4)
    assert np.allclose(c, [1, 1 / 4, 1 / 9, 1 / 16])
    assert np.array_equal(initial_coefficients("zero", 3), np.zeros(3))
    assert np.array_equal(initial_coefficients([1.0, 2.0], 4), [1.0, 2.0])
    with pytest.raises(ConfigError):
        load_config(None, flags={"command": "simulate", "model": "heat-ou",
                                 "x0": "e9000"})


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])
    text = capsys.readouterr().out
    for flag in ("--config", "--model", "--n-modes", "--dt", "--t-end",
                 "--paths", "--seed", "--alpha", "--p", "--out",
                 "--save-dt", "--sigma", "--nu", "--x0", "--stepper",
                 "--grid-size", "--threads", "--n-samples"):
        assert flag in text


def test_cli_check_clean_and_fixture(tmp_path):
    out1 = tmp_path / "a"
    code = cli.main(["check", "--model", "heat-ou", "--n-samples", "300",
                     "--out", str(out1)])
    assert code == cli.EXIT_OK
    report = (out1 / "condition_report.csv").read_text().splitlines()
    assert report[0].startswith("condition,")
    assert all(row.split(",")[2] == "0" for row in report[1:])   # no violations

    out2 = tmp_path / "b"
    code = cli.main(["check", "--model", "fixture-bad-h5", "--n-samples", "300",
                     "--out", str(out2)])
    assert code == cli.EXIT_VIOLATIONS


def test_cli_simulate_heat_decay(tmp_path):
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--model", "heat-ou", "--sigma", "0",
                     "--x0", "e1", "--t-end", "1", "--dt", "0.001",
                     "--save-dt", "0.01", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    h_idx = header.index("h_norm")
    final = float(lines[-1].split(",")[h_idx])
    assert abs(final - np.exp(-1.0)) <= 1e-3


def test_cli_rejects_inadmissible_p(tmp_path):
    code = cli.main(["moments", "--model", "gradient-noise-heat", "--nu", "1.5",
                     "--p", "2", "--paths", "4", "--t-end", "0.1",
                     "--out", str(tmp_path / "m")])
    assert code == cli.EXIT_USAGE


def test_cli_blowup_exit_code(tmp_path):
    # p-laplacian under semi-implicit is refused (no diagonal linear part)
    # -> usage error; a genuine overflow path returns EXIT_BLOWUP
    code = cli.main(["simulate", "--model", "p-laplacian",
                     "--stepper", "semi-implicit", "--t-end", "0.1",
                     "--dt", "0.01", "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_USAGE


def test_cli_simulate_overflowing_norms_exit_blowup(tmp_path, capsys):
    # the path stays finite (near 1e293), but its saved norms overflow from
    # t = 1.87 on: a blow-up, with no Infinity written and no warning
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--model", "gradient-noise-heat", "--nu", "30",
                     "--n-modes", "8", "--dt", "1e-2", "--t-end", "3.5",
                     "--out", str(out)])
    assert code == cli.EXIT_BLOWUP
    err = capsys.readouterr().err
    assert err == "blow-up: the saved norms overflow at t=1.87\n"
    assert not (out / "trajectory.csv").exists()
    assert not (out / "summary.json").exists()


def test_cli_csv_byte_reproducible(tmp_path):
    args = ["moments", "--model", "heat-ou", "--paths", "50", "--seed", "9",
            "--t-end", "0.2", "--dt", "0.001", "--save-dt", "0.01"]
    outa, outb = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(outa)]) == 0
    assert cli.main(args + ["--out", str(outb)]) == 0
    assert (outa / "moments.csv").read_bytes() == (outb / "moments.csv").read_bytes()
    # summaries agree once the timestamp is dropped
    ja = json.loads((outa / "summary.json").read_text())
    jb = json.loads((outb / "summary.json").read_text())
    ja.pop("timestamp"), jb.pop("timestamp")
    assert ja == jb


def test_cli_thread_invariance(tmp_path):
    base = ["equicontinuity", "--model", "convection-diffusion", "--paths", "40",
            "--seed", "3", "--t-end", "0.5", "--dt", "0.001", "--save-dt", "0.01"]
    outa, outb = tmp_path / "t1", tmp_path / "tN"
    assert cli.main(base + ["--threads", "1", "--out", str(outa)]) == 0
    assert cli.main(base + ["--threads", "4", "--out", str(outb)]) == 0
    assert (outa / "equicontinuity.csv").read_bytes() == \
        (outb / "equicontinuity.csv").read_bytes()


SRC = os.path.dirname(os.path.dirname(os.path.abspath(spde.__file__)))

# a moments run of three blocks, two chunks each, a dt-refinement
# uniqueness run whose chunks hold whole coarse steps (multiple 16), and a
# converge run of a full and a tail block, whose coarser levels step on
# the noise helper process
BIT_JOBS = [
    (["moments", "--model", "p-laplacian", "--n-modes", "16", "--paths", "600",
      "--seed", "4", "--t-end", "0.2", "--dt", "0.001", "--save-dt", "0.01"],
     "moments.csv"),
    (["uniqueness", "--model", "p-laplacian", "--n-modes", "8", "--paths", "300",
      "--seed", "4", "--t-end", "0.32", "--dt", "0.001"], "uniqueness.csv"),
    (["converge", "--model", "p-laplacian", "--x0", "decay2", "--paths", "300",
      "--seed", "4", "--t-end", "0.02", "--dt", "0.0001", "--save-dt", "0.002"],
     "converge.csv"),
]


@pytest.mark.parametrize("args,csv_name", BIT_JOBS,
                         ids=["moments", "uniqueness", "converge"])
def test_csv_bytes_independent_of_workers_and_blas_threads(tmp_path, monkeypatch,
                                                           args, csv_name):
    # each setting runs `spde` in a fresh interpreter, so the BLAS thread
    # count takes effect; the reference draws in process from one
    # path_generator per path, with no helper, and so steps converge's
    # coarser levels in process too
    outs = {}
    for threads in (1, 2):
        for blas in ("1", "2"):
            out = tmp_path / f"t{threads}-b{blas}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           SRC, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "spde.cli", *args, "--threads",
                            str(threads), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outs[threads, blas] = (out / csv_name).read_bytes()
    monkeypatch.setattr(sn, "start_helpers",
                        lambda seed, m, steps, span_lists, multiple=1, job=None:
                        [None] * len(span_lists))
    monkeypatch.setattr(sn, "stop_helpers", lambda helpers: None)
    ref = tmp_path / "in-process"
    assert cli.main(args + ["--out", str(ref)]) == cli.EXIT_OK
    assert set(outs.values()) == {(ref / csv_name).read_bytes()}


def assert_usage_error(capsys, code, needle):
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize("under", [False, True])
def test_cli_rejects_out_at_or_under_a_file(tmp_path, capsys, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    code = cli.main(["check", "--model", "heat-ou", "--n-modes", "4",
                     "--n-samples", "8", "--out", str(out)])
    assert_usage_error(capsys, code, f"cannot make directory {out}")
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("flags", [
    ["--model", "p-laplacian", "--sigma", "nan"],
    ["--model", "heat-ou", "--sigma", "inf"],
    ["--model", "gradient-noise-heat", "--nu=-inf"],
])
def test_cli_rejects_nonfinite_model_parameters(tmp_path, capsys, flags):
    code = cli.main(["check", *flags, "--n-samples", "64",
                     "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, "must be a finite number")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("model", [
    {"name": "p-laplacian", "p": float("nan")},
    {"name": "p-laplacian", "c": "1"},
    {"name": "cahn-hilliard", "phi_cubic": float("inf")},
    {"name": "cahn-hilliard", "phi_linear": None},
    {"name": "convection-diffusion", "mono_scale": True},
])
def test_config_rejects_nonfinite_model_parameters(tmp_path, model):
    path = write_cfg(tmp_path, {"command": "check", "model": model})
    key = next(k for k in model if k != "name")
    with pytest.raises(ConfigError, match=f"model.{key} must be a finite number"):
        load_config(path)


@pytest.mark.parametrize("n_samples", ["0", "-5"])
def test_cli_rejects_bad_n_samples_flag(tmp_path, capsys, n_samples):
    code = cli.main(["check", "--model", "heat-ou", "--n-samples", n_samples,
                     "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, "experiment.n_samples must be an integer >= 1")


@pytest.mark.parametrize("n_samples", ["abc", 2.5, 0, True, None, float("nan")])
def test_cli_rejects_bad_n_samples_in_config(tmp_path, capsys, n_samples):
    path = write_cfg(tmp_path, {"command": "check", "model": {"name": "heat-ou"},
                                "experiment": {"n_samples": n_samples}})
    code = cli.main(["check", "--config", path, "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, "experiment.n_samples must be an integer >= 1")


def test_config_normalises_n_samples(tmp_path):
    path = write_cfg(tmp_path, {"command": "check", "model": {"name": "heat-ou"},
                                "experiment": {"n_samples": 300.0}})
    n = load_config(path).experiment["n_samples"]
    assert n == 300 and isinstance(n, int)


@pytest.mark.parametrize("x0", [[1, "a", 0, 0], [1.0, float("nan")], [],
                                {"k": 1}, 3.0, [[1.0, 0.0]]])
def test_cli_rejects_bad_x0_list(tmp_path, capsys, x0):
    path = write_cfg(tmp_path, {"command": "simulate", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4},
                                "run": {"t_end": 0.01, "dt": 0.001},
                                "experiment": {"x0": x0}})
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "s")])
    assert_usage_error(capsys, code, "experiment.x0")


def test_config_rejects_bad_direction(tmp_path):
    path = write_cfg(tmp_path, {"command": "continuity", "model": {"name": "heat-ou"},
                                "experiment": {"direction": [0, "b"]}})
    with pytest.raises(ConfigError, match=r"experiment.direction\[1\]"):
        load_config(path)


def test_config_accepts_numeric_x0_list(tmp_path):
    path = write_cfg(tmp_path, {"command": "simulate", "model": {"name": "heat-ou"},
                                "experiment": {"x0": [1, 0.5, 0, -2e-3]}})
    cfg = load_config(path)
    assert np.array_equal(initial_coefficients(cfg.experiment["x0"], 4),
                          [1.0, 0.5, 0.0, -2e-3])


@pytest.mark.parametrize("section,key", [("basis", "n_modes"), ("basis", "grid_size"),
                                         ("run", "paths"), ("run", "seed")])
@pytest.mark.parametrize("value", ["abc", 16.7, True])
def test_cli_rejects_non_integer_sizes(tmp_path, capsys, section, key, value):
    doc = {"command": "check", "model": {"name": "heat-ou"},
           "basis": {"n_modes": 4}, "experiment": {"n_samples": 64}}
    doc.setdefault(section, {})[key] = value
    path = write_cfg(tmp_path, doc)
    code = cli.main(["check", "--config", path, "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, f"{section}.{key} must be an integer")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("model,flag,key", [("heat-ou", "--sigma", "sigma"),
                                            ("gradient-noise-heat", "--nu", "nu")])
def test_cli_rejects_a_model_constant_that_overflows(tmp_path, capsys, model, flag, key):
    # 1e200 is finite, but the model's constants square it
    code = cli.main(["check", "--model", model, flag, "1e200", "--n-modes", "4",
                     "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, f"model.{key}=1e+200")
    assert not (tmp_path / "c").exists()


def refuse_to_build(*args):
    raise AssertionError("a basis was built")


@pytest.mark.parametrize("flag,key,cap", [("--n-modes", "n_modes", cf.MAX_N_MODES),
                                          ("--grid-size", "grid_size", cf.MAX_GRID_SIZE)])
def test_cli_rejects_sizes_over_the_cap(tmp_path, monkeypatch, capsys, flag, key, cap):
    # the cap is checked before the out dir or the basis exists; no basis
    # is built here, so a size past the cap allocates nothing
    monkeypatch.setattr(cf, "build_basis", refuse_to_build)
    for value in (str(10 ** 20), str(cap + 1)):
        code = cli.main(["check", "--model", "heat-ou", flag, value,
                         "--out", str(tmp_path / "c")])
        assert_usage_error(capsys, code, f"basis.{key} must be at most {cap}, got {value}")
        assert not (tmp_path / "c").exists()
    flags = {"command": "check", "model": "heat-ou", key: cap}
    assert load_config(None, flags=flags).basis[key] == cap


def test_config_caps_converge_levels(tmp_path):
    path = write_cfg(tmp_path, {"command": "converge", "model": {"name": "heat-ou"},
                                "experiment": {"levels": [4, 10 ** 20]}})
    with pytest.raises(ConfigError, match=r"experiment.levels\[1\] must be at most 1024"):
        load_config(path)


def test_config_seed_zero_and_integral_floats(tmp_path):
    path = write_cfg(tmp_path, {"command": "check", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4.0, "grid_size": 64.0},
                                "run": {"paths": 10.0, "seed": 0}})
    cfg = load_config(path)
    assert (cfg.basis["n_modes"], cfg.basis["grid_size"]) == (4, 64)
    assert (cfg.run["paths"], cfg.run["seed"]) == (10, 0)
    assert all(isinstance(v, int) for v in (cfg.basis["n_modes"], cfg.run["seed"]))
    with pytest.raises(ConfigError, match="run.seed must be an integer >= 0"):
        load_config(None, flags={"command": "check", "model": "heat-ou", "seed": -1})


@pytest.mark.parametrize("command", ["check", "moments"])
def test_cli_seed_must_fit_64_bits(tmp_path, capsys, command):
    # a path's Philox key holds the seed as a uint64: 2**64 - 1 is the
    # largest seed that runs, and 2**64 is a usage error, not a traceback
    args = [command, "--model", "p-laplacian", "--n-modes", "4", "--paths", "4",
            "--t-end", "0.01"] + (["--n-samples", "20"] if command == "check" else [])
    code = cli.main(args + ["--seed", str(2 ** 64), "--out", str(tmp_path / "big")])
    assert_usage_error(capsys, code, "error: run.seed must be below 2**64")
    assert cli.main(args + ["--seed", str(2 ** 64 - 1),
                            "--out", str(tmp_path / "max")]) == cli.EXIT_OK


def test_cli_rejects_unknown_probe_mode(tmp_path, capsys):
    path = write_cfg(tmp_path, {"command": "uniqueness", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4},
                                "run": {"t_end": 0.08, "dt": 1e-3, "paths": 4},
                                "experiment": {"mode": "dt-refinment"}})
    code = cli.main(["uniqueness", "--config", path, "--out", str(tmp_path / "u")])
    assert_usage_error(capsys, code, "experiment.mode must be one of")
    assert not (tmp_path / "u").exists()


def test_cli_uniqueness_defaults_save_dt_to_coarsest_level(tmp_path):
    # run.save_dt defaults to run.dt for the other commands; uniqueness
    # saves at its coarsest dt level, 8 * dt by default
    out = tmp_path / "u"
    code = cli.main(["uniqueness", "--model", "heat-ou", "--n-modes", "4",
                     "--paths", "4", "--t-end", "0.08", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len((out / "uniqueness.csv").read_text().splitlines()) == 5
    ref = dg.uniqueness_probe(sm.HeatOU(), sm.HeatOU().make_basis(4), [1.0], M=4,
                              seed=0, dt_levels=[8e-3, 4e-3, 2e-3, 1e-3], t_end=0.08,
                              save_dt=8e-3)
    assert json.loads((out / "summary.json").read_text())["rows"] == \
        [[float(k), float(e), float(s), int(m)] for k, e, s, m in ref.rows]


@pytest.mark.parametrize("levels", [[8], [], [8, 8], [0, 8], [4, 8.5], ["8", 16],
                                    [True, 8], 8, None])
def test_cli_rejects_bad_levels(tmp_path, capsys, levels):
    path = write_cfg(tmp_path, {"command": "converge", "model": {"name": "heat-ou"},
                                "run": {"t_end": 0.01, "dt": 1e-3, "paths": 4},
                                "experiment": {"levels": levels}})
    code = cli.main(["converge", "--config", path, "--out", str(tmp_path / "v")])
    assert_usage_error(capsys, code, "experiment.levels")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("flags,needle", [
    (["--grid-size", "200"], "basis.grid_size is not used by converge"),
    (["--n-modes", "64"], "basis.n_modes 64 is not the finest converge level 32"),
    (["--n-modes", "16"], "basis.n_modes 16 is not the finest converge level 32"),
])
def test_cli_converge_rejects_basis_settings_it_ignores(tmp_path, capsys, flags,
                                                        needle):
    # every level runs on the model's own basis of n modes on 4n points
    code = cli.main(["converge", "--model", "p-laplacian", "--paths", "4",
                     "--t-end", "0.01", *flags, "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, needle)
    assert not (tmp_path / "c").exists()


def test_config_converge_basis_restates_only_the_finest_level(tmp_path):
    doc = {"command": "converge", "model": {"name": "p-laplacian"},
           "experiment": {"levels": [4, 8, 16, 32]}}
    with pytest.raises(ConfigError, match="basis.v_weight_exponent is not used"):
        load_config(write_cfg(tmp_path, {**doc, "basis": {"v_weight_exponent": 2.0}}))
    with pytest.raises(ConfigError, match="basis.n_modes 16 is not the finest"):
        load_config(write_cfg(tmp_path, {**doc, "basis": {"n_modes": 16}}))
    cfg = load_config(write_cfg(tmp_path, {**doc, "basis": {"n_modes": 32}}))
    assert cfg.basis["n_modes"] == 32 and cfg.experiment["levels"] == [4, 8, 16, 32]
    # without a basis section the default n_modes is no restatement; the
    # levels default to [8, 16, 32]
    cfg = load_config(write_cfg(tmp_path, {"command": "converge",
                                           "model": {"name": "heat-ou"}}))
    assert cfg.experiment["levels"] == [8, 16, 32]
    assert load_config(None, {"command": "converge", "model": "heat-ou",
                              "n_modes": 32}).basis["n_modes"] == 32


@pytest.mark.parametrize("command,experiment", [
    ("equicontinuity", {"deltas": [0.02]}),
    ("uniqueness", {"mode": "identical"}),
])
def test_cli_fits_no_rate_to_fewer_than_two_points(tmp_path, capsys, command,
                                                   experiment):
    # one delta, or an all-zero identical-runs table, leaves fewer than two
    # points to fit: no slope is printed or written
    out = tmp_path / "f"
    path = write_cfg(tmp_path, {"command": command, "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4},
                                "run": {"t_end": 0.08, "dt": 1e-3, "paths": 8},
                                "experiment": experiment})
    code = cli.main([command, "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert "fitted" not in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert "fitted_rate" not in summary and summary["rows"]


def test_config_normalises_levels(tmp_path):
    path = write_cfg(tmp_path, {"command": "converge", "model": {"name": "heat-ou"},
                                "experiment": {"levels": [16.0, 4, 8]}})
    assert load_config(path).experiment["levels"] == [16, 4, 8]


def test_cli_all_blown_ensemble_exits_blowup(tmp_path, capsys):
    # at nu = 30 and dt = 1e-2 every one of these paths overflows before t_end
    code = cli.main(["equicontinuity", "--model", "gradient-noise-heat", "--nu", "30",
                     "--n-modes", "8", "--paths", "20", "--dt", "1e-2",
                     "--t-end", "5.12", "--save-dt", "1e-2", "--seed", "2",
                     "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BLOWUP
    assert "all 20 paths blew up" in err and "Traceback" not in err


def test_cli_equicontinuity_overflowing_survivors_exit_blowup(tmp_path, capsys):
    # 140 of these 300 paths blow up; the 160 survivors reach states whose
    # squared time shifts overflow, so none is left to estimate from
    out = tmp_path / "e"
    code = cli.main(["equicontinuity", "--model", "gradient-noise-heat", "--nu", "30",
                     "--n-modes", "8", "--paths", "300", "--dt", "1e-2",
                     "--t-end", "3.5", "--save-dt", "1e-2", "--seed", "2",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BLOWUP
    assert "all 300 paths blew up or overflowed" in captured.err
    assert "Traceback" not in captured.err and "inf" not in captured.out
    assert not (out / "equicontinuity.csv").exists()


@pytest.mark.parametrize("command,extra", [
    ("continuity", ["--save-dt", "1e-2"]),
    ("uniqueness", ["--save-dt", "8e-2"]),
])
def test_cli_continuity_and_uniqueness_overflow_exit_blowup(tmp_path, capsys, command,
                                                            extra):
    # of these 300 paths, some blow up by t = 3.5 and the survivors' sup
    # statistics overflow: no path is left, which used to print NaN rows
    out = tmp_path / "o"
    code = cli.main([command, "--model", "gradient-noise-heat", "--nu", "30",
                     "--n-modes", "8", "--paths", "300", "--dt", "1e-2",
                     "--t-end", "3.2" if command == "uniqueness" else "3.5",
                     "--seed", "2", *extra, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BLOWUP
    assert "all 300 paths blew up or overflowed" in captured.err
    assert "Traceback" not in captured.err and "nan" not in captured.out
    assert not (out / f"{command}.csv").exists()


def test_cli_moments_counts_overflowing_survivors(tmp_path, capsys):
    # 17 of these 40 sups overflow at p = 300: they are counted in n_blown
    # instead of turning the row into inf/nan
    out = tmp_path / "m"
    code = cli.main(["moments", "--model", "heat-ou", "--sigma", "50", "--p", "300",
                     "--n-modes", "4", "--paths", "40", "--t-end", "0.1",
                     "--out", str(out)])
    assert code == cli.EXIT_OK and capsys.readouterr().err == ""
    summary = (out / "summary.json").read_text()
    assert json.loads(summary)["n_blown"] == 17
    # the overflowing sups are counted, but no path blew up
    assert json.loads(summary)["first_blowup_t"] is None
    for text in (summary, (out / "moments.csv").read_text()):
        assert "Infinity" not in text and "NaN" not in text
        assert "inf" not in text and "nan" not in text
    assert (out / "moments.csv").read_text().splitlines()[1].endswith(",23")


@pytest.mark.parametrize("model", sorted(sm.MODELS))
def test_cli_simulate_runs_every_model_at_its_default_stepper(tmp_path, model):
    assert cli.main(["simulate", "--model", model, "--t-end", "0.01",
                     "--out", str(tmp_path / "s")]) == cli.EXIT_OK


@pytest.mark.parametrize("key,value,needle", [
    ("dt", "abc", "run.dt must be a finite number"),
    ("dt", None, "run.dt must be a finite number"),
    ("dt", [1], "run.dt must be a finite number"),
    ("dt", float("nan"), "run.dt must be a finite number"),
    ("t_end", float("inf"), "run.t_end must be a finite number"),
    ("save_dt", True, "run.save_dt must be a finite number"),
    ("dt", -1e-3, "save_dt/dt: values must be positive"),
    ("threads", "x", "run.threads must be an integer >= 1"),
    ("threads", -3, "run.threads must be an integer >= 1"),
    ("threads", 1.5, "run.threads must be an integer >= 1"),
    ("threads", 0, "run.threads must be an integer >= 1"),
])
def test_cli_rejects_bad_run_values(tmp_path, capsys, key, value, needle):
    run = {"t_end": 0.01, "paths": 4}
    run[key] = value
    path = write_cfg(tmp_path, {"command": "moments", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4}, "run": run})
    code = cli.main(["moments", "--config", path, "--out", str(tmp_path / "m")])
    assert_usage_error(capsys, code, needle)
    assert not (tmp_path / "m").exists()


def test_cli_rejects_negative_threads_flag(tmp_path, capsys):
    code = cli.main(["moments", "--model", "heat-ou", "--threads=-3",
                     "--out", str(tmp_path / "m")])
    assert_usage_error(capsys, code, "run.threads must be an integer >= 1, got -3")


def test_cli_large_estimates_get_finite_std_errors(tmp_path):
    # survivors near 1e95 give time-shift integrals near 1e191, whose
    # squared deviations overflow an unscaled np.std
    out = tmp_path / "e"
    code = cli.main(["equicontinuity", "--model", "gradient-noise-heat", "--nu", "30",
                     "--n-modes", "8", "--paths", "300", "--dt", "1e-2",
                     "--t-end", "1", "--save-dt", "1e-2", "--seed", "2",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = (out / "summary.json").read_text()
    assert "Infinity" not in summary
    rows = json.loads(summary)["rows"]
    assert len(rows) == 5 and all(1e189 < est < 1e193 and 0 < se < est
                                  for _, est, se, _ in rows)


@pytest.mark.parametrize("command,key,value,needle", [
    ("moments", "p", "abc", "experiment.p must be a finite number"),
    ("moments", "alpha", "abc", "experiment.alpha must be a finite number"),
    ("equicontinuity", "deltas", [0.002, "x"], "experiment.deltas[1] must be a finite"),
    ("continuity", "perturbations", [0.1, -0.05],
     "experiment.perturbations[1] must be positive"),
    ("uniqueness", "dt_levels", "abc", "experiment.dt_levels must be a non-empty list"),
    ("moments", "alpha", -1, "experiment.alpha must be positive"),
    ("equicontinuity", "alpha", 0, "experiment.alpha must be positive"),
    ("continuity", "p", -1, "experiment.p must be positive"),
    ("continuity", "p", 0, "experiment.p must be positive"),
])
def test_cli_rejects_bad_experiment_numbers(tmp_path, capsys, command, key, value,
                                            needle):
    path = write_cfg(tmp_path, {"command": command, "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4},
                                "run": {"t_end": 0.08, "dt": 1e-3, "paths": 4},
                                "experiment": {key: value}})
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code, needle)
    assert not (tmp_path / "x").exists()


def test_cli_equicontinuity_checks_deltas_before_solving(tmp_path, capsys, monkeypatch):
    # an inadmissible p or a delta longer than the run fails before any
    # path is solved; the default deltas keep the shifts that fit in the run
    def no_solve(*args, **kwargs):
        raise AssertionError("run_blocks ran")
    monkeypatch.setattr(sv, "run_blocks", no_solve)
    code = cli.main(["moments", "--model", "gradient-noise-heat", "--nu", "1.5",
                     "--p", "2", "--paths", "4", "--t-end", "0.1",
                     "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code, "outside admissible range")
    path = write_cfg(tmp_path, {"command": "equicontinuity", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4},
                                "run": {"t_end": 0.2, "save_dt": 0.01, "paths": 4},
                                "experiment": {"deltas": [0.02, 0.32]}})
    code = cli.main(["equicontinuity", "--config", path, "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code, "t_end")
    code = cli.main(["equicontinuity", "--model", "heat-ou", "--t-end", "0.01",
                     "--save-dt", "0.01", "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code, "t_end")      # no default shift fits
    monkeypatch.undo()
    out = tmp_path / "y"
    code = cli.main(["equicontinuity", "--model", "heat-ou", "--n-modes", "4",
                     "--paths", "4", "--t-end", "0.2", "--save-dt", "0.01",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    keys = [float(line.split(",")[0])
            for line in (out / "equicontinuity.csv").read_text().splitlines()[1:]]
    assert keys == [0.02, 0.04, 0.08, 0.16]


@pytest.mark.parametrize("key", ["deltas", "perturbations", "dt_levels"])
@pytest.mark.parametrize("value", [[], [0.0], [float("nan")], [True], 0.01, None])
def test_config_rejects_bad_positive_lists(tmp_path, key, value):
    path = write_cfg(tmp_path, {"command": "moments", "model": {"name": "heat-ou"},
                                "experiment": {key: value}})
    with pytest.raises(ConfigError, match=f"experiment.{key}"):
        load_config(path)


def test_heat_ou_moments_golden_bytes(tmp_path):
    # a scaled-down benchmark ensemble-ou run: 300 paths (one full block
    # and a tail block) x 200 steps.  Heat-ou steps with elementwise IEEE
    # operations on Philox normals alone, so these bytes hold on any
    # machine; the hash pins the output of the step before its block
    # constants were prepared once per block
    out = tmp_path / "m"
    code = cli.main(["moments", "--model", "heat-ou", "--n-modes", "4",
                     "--paths", "300", "--t-end", "0.2", "--dt", "1e-3",
                     "--save-dt", "0.2", "--x0", "zero", "--p", "2", "--seed", "5",
                     "--threads", "1", "--out", str(out)])
    assert code == cli.EXIT_OK
    digest = hashlib.sha256((out / "moments.csv").read_bytes()).hexdigest()
    assert digest == "ac1ec309c4f0db798e0868351775c39f415148f1c837c40377b556807e83ca62"


# a valid value of each experiment key for a heat-ou run to t_end 0.08
VALID = {"n_samples": 64, "x0": "e1", "p": 2.0, "alpha": 2.0, "deltas": [0.02],
         "levels": [2, 4], "perturbations": [0.1], "direction": "e1",
         "dt_levels": [0.002, 0.001], "mode": "identical"}


@pytest.mark.parametrize("key", sorted(EXPERIMENT_KEYS))
@pytest.mark.parametrize("command", sorted(READS))
def test_config_accepts_only_the_experiment_keys_a_command_reads(tmp_path, capsys,
                                                                 command, key):
    path = write_cfg(tmp_path, {"command": command, "model": {"name": "heat-ou"},
                                "run": {"t_end": 0.08, "paths": 4},
                                "experiment": {key: VALID[key]}})
    if key in READS[command]:
        assert load_config(path).experiment[key] == VALID[key]
        return
    out = tmp_path / "o"
    code = cli.main([command, "--config", path, "--out", str(out)])
    assert_usage_error(capsys, code, f"experiment.{key} is not read by {command}")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("moments", "--n-samples", "50"), ("check", "--p", "3"),
    ("uniqueness", "--alpha", "2"), ("continuity", "--alpha", "2"),
    ("converge", "--p", "3"),
])
def test_cli_rejects_flags_the_command_does_not_read(tmp_path, capsys, command, flag,
                                                     value):
    out = tmp_path / "o"
    code = cli.main([command, "--model", "heat-ou", "--paths", "8", "--t-end", "0.05",
                     flag, value, "--out", str(out)])
    assert_usage_error(capsys, code, f"experiment.{flag[2:].replace('-', '_')} is "
                                     f"not read by {command}")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_config_resolves_every_key_the_command_reads(command):
    cfg = load_config(None, {"command": command, "model": "p-laplacian"})
    assert set(cfg.experiment) == set(READS[command])
    assert set(cfg.run) == {"t_end", "dt", "save_dt", "paths", "seed", "stepper",
                            "threads"}
    assert cfg.run["save_dt"] == (8e-3 if command == "uniqueness" else 1e-3)
    assert set(cfg.basis) == {"n_modes", "grid_size", "v_weight_exponent"}
    if "alpha" in cfg.experiment:           # the model's own, as a float
        assert cfg.experiment["alpha"] == 4.0 and isinstance(cfg.experiment["alpha"],
                                                             float)


def test_cli_writes_integer_p_and_alpha_as_floats(tmp_path):
    path = write_cfg(tmp_path, {"command": "moments", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4}, "run": {"t_end": 0.05, "paths": 8},
                                "experiment": {"p": 2, "alpha": 2}})
    out = tmp_path / "m"
    assert cli.main(["moments", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    text = (out / "summary.json").read_text()
    assert '"p": 2.0' in text and '"alpha": 2.0' in text


def test_cli_every_command_accepts_every_run_key(tmp_path):
    # the run section is shared: check reads no paths, t_end or threads
    code = cli.main(["check", "--model", "heat-ou", "--n-modes", "4", "--n-samples", "50",
                     "--paths", "8", "--t-end", "0.05", "--threads", "2",
                     "--out", str(tmp_path / "c")])
    assert code == cli.EXIT_OK


def test_config_has_no_basis_kind(tmp_path):
    # the basis kind is the model's own
    path = write_cfg(tmp_path, {"command": "check", "model": {"name": "heat-ou"},
                                "basis": {"kind": "dirichlet-interval"}})
    with pytest.raises(ConfigError, match="unknown key basis.kind"):
        load_config(path)


@pytest.mark.parametrize("value,needle", [
    ("abc", "basis.v_weight_exponent must be a finite number"),
    (True, "basis.v_weight_exponent must be a finite number"),
    (float("nan"), "basis.v_weight_exponent must be a finite number"),
    (-1, "basis.v_weight_exponent must be >= 0"),
])
def test_cli_rejects_bad_v_weight_exponent(tmp_path, capsys, value, needle):
    path = write_cfg(tmp_path, {"command": "check", "model": {"name": "heat-ou"},
                                "basis": {"n_modes": 4, "v_weight_exponent": value}})
    code = cli.main(["check", "--config", path, "--out", str(tmp_path / "c")])
    assert_usage_error(capsys, code, needle)
    assert not (tmp_path / "c").exists()


def test_config_keeps_the_model_it_resolved_defaults_from(tmp_path):
    path = write_cfg(tmp_path, {"command": "moments",
                                "model": {"name": "p-laplacian", "p": 3}})
    cfg = load_config(path)
    model = cfg.build_model()
    assert model is cfg.build_model()
    assert cfg.experiment["alpha"] == float(model.alpha)
    assert cfg.basis["v_weight_exponent"] == model.v_weight_exponent


@pytest.mark.parametrize("doc,needle", [
    ({"model": "heat-ou"}, "model must be a JSON object"),
    ({"model": {"name": "heat-ou"}, "run": None}, "run must be a JSON object"),
    ({"model": {"name": "heat-ou"}, "basis": [1, 2]}, "basis must be a JSON object"),
    ({"model": {"name": ["heat-ou"]}}, "model.name must be a string"),
    ({"model": {"name": "heat-ou"}, "out_dir": None}, "out_dir must be a string"),
])
def test_cli_rejects_sections_of_the_wrong_type(tmp_path, monkeypatch, capsys, doc,
                                                needle):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, {"command": "check", **doc})
    code = cli.main(["check", "--config", path])
    assert_usage_error(capsys, code, needle)
    assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(path)])
