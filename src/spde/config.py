"""Strict JSON experiment configuration.

A config document has five sections (model, basis, run, experiment,
out_dir) plus the command.  Unknown keys anywhere are errors, flags
override file fields, model parameters and initial-data coefficients
must be finite numbers, the exponents p and alpha finite positive
numbers, the deltas, perturbations and dt levels non-empty lists of
finite positive numbers, and the dt | save_dt | t_end divisibility
contract is enforced up front so every downstream ratio is an exact
integer.  converge builds the model's own basis at each level, so it
rejects a basis section that says more than n_modes = max(levels).
"""

import inspect
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import build_basis
from .diagnostics import PROBE_MODES
from .errors import ConfigError
from .models import MODELS, build_model
from .solver import STEPPERS, save_grid

COMMANDS = ("check", "simulate", "converge", "moments", "equicontinuity",
            "continuity", "uniqueness")

_BASIS_KEYS = {"kind", "n_modes", "grid_size", "v_weight_exponent"}
_RUN_KEYS = {"t_end", "dt", "save_dt", "paths", "seed", "stepper", "threads"}
_EXPERIMENT_KEYS = {"p", "alpha", "deltas", "levels", "perturbations",
                    "x0", "direction", "dt_levels", "mode", "n_samples"}
_TOP_KEYS = {"command", "model", "basis", "run", "experiment", "out_dir"}

_X0_PRESETS = ("zero", "e1", "decay2")


@dataclass
class ExperimentConfig:
    command: str
    model_name: str
    model_params: dict
    basis: dict
    run: dict
    experiment: dict
    out_dir: str

    def build_model(self):
        return build_model(self.model_name, **self.model_params)

    def build_basis(self, model):
        n = self.basis["n_modes"]
        g = self.basis.get("grid_size") or 4 * n
        kind = self.basis.get("kind") or model.basis_kind
        if kind != model.basis_kind:
            raise ConfigError(
                f"basis.kind {kind!r} does not match model basis {model.basis_kind!r}")
        s = self.basis.get("v_weight_exponent")
        if s is None:
            s = model.v_weight_exponent
        return build_basis(kind, n, g, s)


def _reject_unknown(section, mapping, allowed):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}" if section else
                              f"unknown key {key}")


def _finite_number(value, what):
    """Reject anything but a finite real number; JSON true/false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what, minimum=1):
    """An integer >= minimum, given as an int or an integral float."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_levels(value):
    """Galerkin levels: at least two distinct integers >= 1."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"experiment.levels must be a list, got {value!r}")
    levels = [_integer(v, f"experiment.levels[{i}]") for i, v in enumerate(value)]
    if len(levels) < 2 or len(set(levels)) != len(levels):
        raise ConfigError(
            f"experiment.levels must hold at least two distinct integers, got {value!r}")
    return levels


def _positive_number(value, what):
    _finite_number(value, what)
    if value <= 0:
        raise ConfigError(f"{what} must be positive, got {value!r}")


def _positive_numbers(value, what):
    """A non-empty list of finite positive numbers."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{what} must be a non-empty list of numbers, got {value!r}")
    for i, entry in enumerate(value):
        _positive_number(entry, f"{what}[{i}]")


def _check_coefficients(value, what):
    """A preset name or a non-empty list of finite coefficients."""
    if isinstance(value, str):
        if value not in _X0_PRESETS:
            raise ConfigError(f"{what} preset must be one of {_X0_PRESETS}")
        return
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{what} must be a preset name or a list of numbers")
    for i, entry in enumerate(value):
        _finite_number(entry, f"{what}[{i}]")


_DEFAULTS = {
    "basis": {"n_modes": 16},
    "run": {"t_end": 1.0, "dt": 1e-3, "paths": 100, "seed": 0},
    "experiment": {},
    "out_dir": "out",
}


def load_config(path=None, flags=None):
    """Parse and validate: file first, then flag overrides, then defaults."""
    doc = {}
    if path is not None:
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    _reject_unknown("", doc, _TOP_KEYS)

    model_sec = dict(doc.get("model", {}))
    basis_sec = dict(doc.get("basis", {}))
    run_sec = dict(doc.get("run", {}))
    exp_sec = dict(doc.get("experiment", {}))
    command = doc.get("command")
    out_dir = doc.get("out_dir", _DEFAULTS["out_dir"])

    flags = flags or {}
    if flags.get("command") is not None:
        command = flags["command"]
    if flags.get("model") is not None:
        model_sec["name"] = flags["model"]
    for k in ("sigma", "nu"):
        if flags.get(k) is not None:
            model_sec[k] = flags[k]
    if flags.get("n_modes") is not None:
        basis_sec["n_modes"] = flags["n_modes"]
    if flags.get("grid_size") is not None:
        basis_sec["grid_size"] = flags["grid_size"]
    for k in ("t_end", "dt", "save_dt", "seed", "stepper", "threads"):
        if flags.get(k) is not None:
            run_sec[k] = flags[k]
    if flags.get("paths") is not None:
        run_sec["paths"] = flags["paths"]
    for k in ("p", "alpha", "x0", "n_samples"):
        if flags.get(k) is not None:
            exp_sec[k] = flags[k]
    if flags.get("out") is not None:
        out_dir = flags["out"]

    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")

    name = model_sec.pop("name", None)
    if name is None:
        raise ConfigError("model.name is required")
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}")
    _reject_unknown("model", model_sec, inspect.signature(MODELS[name]).parameters)
    for key, value in model_sec.items():
        _finite_number(value, f"model.{key}")
    _reject_unknown("basis", basis_sec, _BASIS_KEYS)
    _reject_unknown("run", run_sec, _RUN_KEYS)
    _reject_unknown("experiment", exp_sec, _EXPERIMENT_KEYS)

    basis = {**_DEFAULTS["basis"], **basis_sec}
    run = {**_DEFAULTS["run"], **run_sec}
    if command != "uniqueness":     # which defaults it to its coarsest dt level
        run.setdefault("save_dt", run["dt"])

    basis["n_modes"] = _integer(basis["n_modes"], "basis.n_modes")
    if basis.get("grid_size") is not None:
        basis["grid_size"] = _integer(basis["grid_size"], "basis.grid_size")
        if basis["grid_size"] < 4 * basis["n_modes"]:
            raise ConfigError("basis.grid_size must be >= 4*n_modes")
    run["paths"] = _integer(run["paths"], "run.paths")
    run["seed"] = _integer(run["seed"], "run.seed", minimum=0)
    if run["seed"] >= 2 ** 64:      # the uint64 half of a path's Philox key
        raise ConfigError(f"run.seed must be below 2**64, got {run['seed']}")
    if run.get("threads") is not None:
        run["threads"] = _integer(run["threads"], "run.threads", minimum=0)
    if run.get("stepper") is not None and run["stepper"] not in STEPPERS:
        raise ConfigError(f"unknown stepper {run['stepper']!r}")

    for key in ("t_end", "dt", "save_dt"):
        if key in run:
            _finite_number(run[key], f"run.{key}")
    save_grid(run["t_end"], run["dt"], run.get("save_dt", run["dt"]))

    for key in ("p", "alpha"):
        if key in exp_sec:
            _positive_number(exp_sec[key], f"experiment.{key}")
    for key in ("deltas", "perturbations", "dt_levels"):
        if key in exp_sec:
            _positive_numbers(exp_sec[key], f"experiment.{key}")
    for key in ("x0", "direction"):
        if key in exp_sec:
            _check_coefficients(exp_sec[key], f"experiment.{key}")
    if "n_samples" in exp_sec:
        exp_sec["n_samples"] = _integer(exp_sec["n_samples"], "experiment.n_samples")
    if "levels" in exp_sec:
        exp_sec["levels"] = _check_levels(exp_sec["levels"])
    if command == "converge":
        # each level n runs on the model's own basis of n modes on 4n
        # points, so the basis section may only restate the finest level
        levels = exp_sec.setdefault("levels", [8, 16, 32])
        for key in ("grid_size", "v_weight_exponent"):
            if basis_sec.get(key) is not None:
                raise ConfigError(f"basis.{key} is not used by converge: level n "
                                  "runs on the model's basis of n modes")
        if "n_modes" in basis_sec and basis["n_modes"] != max(levels):
            raise ConfigError(f"basis.n_modes {basis['n_modes']} is not the finest "
                              f"converge level {max(levels)}")
    if "mode" in exp_sec and exp_sec["mode"] not in PROBE_MODES:
        raise ConfigError(f"experiment.mode must be one of {PROBE_MODES}, "
                          f"got {exp_sec['mode']!r}")

    return ExperimentConfig(command=command, model_name=name,
                            model_params=model_sec, basis=basis, run=run,
                            experiment=exp_sec, out_dir=str(out_dir))


def initial_coefficients(x0, n_modes):
    """Resolve an x0 selector (preset name or coefficient list)."""
    if isinstance(x0, str):
        c = np.zeros(n_modes)
        if x0 == "e1":
            c[0] = 1.0
        elif x0 == "decay2":
            c[:] = 1.0 / (1.0 + np.arange(n_modes)) ** 2
        elif x0 != "zero":
            raise ConfigError(f"unknown x0 preset {x0!r}")
        return c
    return np.asarray(x0, float).ravel()
