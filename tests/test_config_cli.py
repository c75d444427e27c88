import hashlib
import json

import numpy as np
import pytest

from spde import cli
from spde import diagnostics as dg
from spde import models as sm
from spde.config import initial_coefficients, load_config
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


def assert_usage_error(capsys, code, needle):
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert needle in err and "Traceback" not in err


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


@pytest.mark.parametrize("key,value,needle", [
    ("dt", "abc", "run.dt must be a finite number"),
    ("dt", None, "run.dt must be a finite number"),
    ("dt", [1], "run.dt must be a finite number"),
    ("dt", float("nan"), "run.dt must be a finite number"),
    ("t_end", float("inf"), "run.t_end must be a finite number"),
    ("save_dt", True, "run.save_dt must be a finite number"),
    ("dt", -1e-3, "save_dt/dt: values must be positive"),
    ("threads", "x", "run.threads must be an integer >= 0"),
    ("threads", -3, "run.threads must be an integer >= 0"),
    ("threads", 1.5, "run.threads must be an integer >= 0"),
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
    assert_usage_error(capsys, code, "run.threads must be an integer >= 0, got -3")


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
