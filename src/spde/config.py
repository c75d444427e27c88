"""Strict JSON experiment configuration.

A config document has five sections (model, basis, run, experiment,
out_dir) plus the command.  Each setting is declared once (FLAGS,
_DEFAULTS, EXPERIMENT_KEYS) and a loaded config holds every default.  All
commands share the model, basis and run sections; an experiment key
outside the command's row of READS is an error.  Unknown keys anywhere
are errors, flags override file fields, model parameters and
initial-data coefficients must be finite numbers (a model constructor
that overflows on them is an error too), n_modes, grid_size and the
converge levels have caps (MAX_N_MODES, MAX_GRID_SIZE), the exponents p and
alpha finite positive numbers (read as floats), the deltas, perturbations
and dt levels non-empty lists of finite positive numbers, and the dt |
save_dt | t_end divisibility contract is enforced up front so every
downstream ratio is an exact integer.  converge builds the model's own
basis at each level, so it rejects a basis section that says more than
n_modes = max(levels).
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

# Every command-line argument once: (name, section, key, type or choices,
# help).  load_config moves the value argparse stores for --n-modes, as
# n_modes, to section[key]; section None is the document's top level.
FLAGS = (
    ("command", None, "command", COMMANDS, "experiment to run"),
    ("--model", "model", "name", str, "model name (e.g. heat-ou, p-laplacian)"),
    ("--n-modes", "basis", "n_modes", int, "Galerkin dimension"),
    ("--grid-size", "basis", "grid_size", int,
     "collocation grid size (default 4*n_modes)"),
    ("--dt", "run", "dt", float, "solver time step"),
    ("--save-dt", "run", "save_dt", float, "save interval"),
    ("--t-end", "run", "t_end", float, "final time"),
    ("--paths", "run", "paths", int, "Monte Carlo path count M"),
    ("--seed", "run", "seed", int, "ensemble seed"),
    ("--alpha", "experiment", "alpha", float, "coercivity exponent override"),
    ("--p", "experiment", "p", float, "moment exponent"),
    ("--sigma", "model", "sigma", float, "noise amplitude (models with sigma)"),
    ("--nu", "model", "nu", float, "gradient-noise amplitude"),
    ("--x0", "experiment", "x0", str, "initial datum: zero, e1, decay2"),
    ("--stepper", "run", "stepper", STEPPERS, "time stepper"),
    ("--n-samples", "experiment", "n_samples", int, "audit sample count (check)"),
    ("--threads", "run", "threads", int,
     "block workers, each with one noise helper process"),
    ("--out", None, "out_dir", str, "output directory"),
)

_SECTIONS = ("model", "basis", "run", "experiment")

# the largest Galerkin dimension and collocation grid a config may ask
# for, checked before anything is allocated: a basis holds (n_modes,
# grid_size) float64 matrices, 128 MiB each at both caps
MAX_N_MODES = 2 ** 10
MAX_GRID_SIZE = 2 ** 14

# the x0 and direction presets, as coefficients of n modes
_PRESETS = {"zero": np.zeros, "e1": lambda n: np.eye(1, n)[0],
            "decay2": lambda n: 1.0 / (1.0 + np.arange(n)) ** 2}


@dataclass
class ExperimentConfig:
    command: str
    model: object       # built once by load_config, which resolves its defaults
    model_params: dict
    basis: dict
    run: dict
    experiment: dict
    out_dir: str

    def build_model(self):
        return self.model

    def build_basis(self, model):
        return build_basis(model.basis_kind, self.basis["n_modes"],
                           self.basis["grid_size"], self.basis["v_weight_exponent"])


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


def _integer(value, what, minimum=1, maximum=None):
    """An integer >= minimum (and <= maximum, if given), given as an int or
    an integral float."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{what} must be at most {maximum}, got {value!r}")
    return int(value)


def _check_levels(value, what):
    """Galerkin levels: at least two distinct integers in [1, MAX_N_MODES]."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    levels = [_integer(v, f"{what}[{i}]", maximum=MAX_N_MODES)
              for i, v in enumerate(value)]
    if len(levels) < 2 or len(set(levels)) != len(levels):
        raise ConfigError(
            f"{what} must hold at least two distinct integers, got {value!r}")
    return levels


def _positive_number(value, what):
    _finite_number(value, what)
    if value <= 0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return float(value)


def _positive_numbers(value, what):
    """A non-empty list of finite positive numbers."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{what} must be a non-empty list of numbers, got {value!r}")
    for i, entry in enumerate(value):
        _positive_number(entry, f"{what}[{i}]")
    return value


def _check_coefficients(value, what):
    """A preset name or a non-empty list of finite coefficients."""
    if isinstance(value, str):
        if value not in _PRESETS:
            raise ConfigError(f"{what} preset must be one of {tuple(_PRESETS)}")
        return value
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{what} must be a preset name or a list of numbers")
    for i, entry in enumerate(value):
        _finite_number(entry, f"{what}[{i}]")
    return value


def _check_mode(value, what):
    if value not in PROBE_MODES:
        raise ConfigError(f"{what} must be one of {PROBE_MODES}, got {value!r}")
    return value


def _default_deltas(run, model):
    # the shifts that fit in the run; when none does, the first, which
    # diagnostics.delta_shifts rejects naming t_end
    save_dt = run["save_dt"]
    return [k * save_dt for k in (2, 4, 8, 16, 32)
            if k <= round(run["t_end"] / save_dt)] or [2 * save_dt]


# Every experiment key once: (check, default).  A check returns the value it
# accepts; a callable default takes the resolved run section and the model.
EXPERIMENT_KEYS = {
    "n_samples": (_integer, 10000),
    "x0": (_check_coefficients, "e1"),
    "p": (_positive_number, 2.0),
    "alpha": (_positive_number, lambda run, model: float(model.alpha)),
    "deltas": (_positive_numbers, _default_deltas),
    "levels": (_check_levels, lambda run, model: [8, 16, 32]),
    "perturbations": (_positive_numbers,
                      lambda run, model: [0.1 / 2 ** j for j in range(5)]),
    "direction": (_check_coefficients, "e1"),
    "dt_levels": (_positive_numbers,
                  lambda run, model: [run["dt"] * 2 ** k for k in (3, 2, 1, 0)]),
    "mode": (_check_mode, "dt-refinement"),
}

READS = {
    "check": ("n_samples",),
    "simulate": ("x0",),
    "moments": ("x0", "p", "alpha"),
    "equicontinuity": ("x0", "deltas", "alpha"),
    "converge": ("x0", "levels", "alpha"),
    "continuity": ("x0", "perturbations", "direction", "p"),
    "uniqueness": ("x0", "dt_levels", "mode"),
}

_DEFAULTS = {
    "basis": {"n_modes": 16, "grid_size": None, "v_weight_exponent": None},
    "run": {"t_end": 1.0, "dt": 1e-3, "paths": 100, "seed": 0, "stepper": None,
            "threads": None},
    "out_dir": "out",
}


def load_config(path=None, flags=None):
    """Parse, validate and resolve: file, then flag overrides, then defaults."""
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
    _reject_unknown("", doc, {"command", "out_dir", *_SECTIONS})

    for s in _SECTIONS:
        if not isinstance(doc.get(s, {}), dict):
            raise ConfigError(f"{s} must be a JSON object, got {doc[s]!r}")
    sections = {s: dict(doc.get(s, {})) for s in _SECTIONS}
    sections[None] = {"command": doc.get("command"),
                      "out_dir": doc.get("out_dir", _DEFAULTS["out_dir"])}
    flags = flags or {}
    for name, section, key, _, _ in FLAGS:
        value = flags.get(name.lstrip("-").replace("-", "_"))
        if value is not None:
            sections[section][key] = value
    if not isinstance(sections[None]["out_dir"], str):
        raise ConfigError(f"out_dir must be a string, got {sections[None]['out_dir']!r}")
    model_sec, basis_sec, run_sec, exp_sec = (sections[s] for s in _SECTIONS)
    command = sections[None]["command"]

    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")

    name = model_sec.pop("name", None)
    if name is None:
        raise ConfigError("model.name is required")
    if not isinstance(name, str):
        raise ConfigError(f"model.name must be a string, got {name!r}")
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}")
    _reject_unknown("model", model_sec, inspect.signature(MODELS[name]).parameters)
    for key, value in model_sec.items():
        _finite_number(value, f"model.{key}")
    try:
        model = build_model(name, **model_sec)
    except OverflowError:   # a finite constant whose square or power is not
        raise ConfigError("model constants overflow: " + ", ".join(
            f"model.{key}={value!r}" for key, value in model_sec.items())) from None
    _reject_unknown("basis", basis_sec, _DEFAULTS["basis"])
    _reject_unknown("run", run_sec, {"save_dt", *_DEFAULTS["run"]})
    _reject_unknown("experiment", exp_sec, EXPERIMENT_KEYS)

    basis = {**_DEFAULTS["basis"], **basis_sec}
    run = {**_DEFAULTS["run"], **run_sec}
    if command != "uniqueness":     # which saves at its coarsest dt level, below
        run.setdefault("save_dt", run["dt"])

    basis["n_modes"] = _integer(basis["n_modes"], "basis.n_modes", maximum=MAX_N_MODES)
    if basis["grid_size"] is None:
        basis["grid_size"] = 4 * basis["n_modes"]
    else:
        basis["grid_size"] = _integer(basis["grid_size"], "basis.grid_size",
                                      maximum=MAX_GRID_SIZE)
        if basis["grid_size"] < 4 * basis["n_modes"]:
            raise ConfigError("basis.grid_size must be >= 4*n_modes")
    if basis["v_weight_exponent"] is None:
        basis["v_weight_exponent"] = model.v_weight_exponent
    _finite_number(basis["v_weight_exponent"], "basis.v_weight_exponent")
    if basis["v_weight_exponent"] < 0:
        raise ConfigError("basis.v_weight_exponent must be >= 0")
    run["paths"] = _integer(run["paths"], "run.paths")
    run["seed"] = _integer(run["seed"], "run.seed", minimum=0)
    if run["seed"] >= 2 ** 64:      # the uint64 half of a path's Philox key
        raise ConfigError(f"run.seed must be below 2**64, got {run['seed']}")
    if run["threads"] is not None:
        run["threads"] = _integer(run["threads"], "run.threads")
    if run["stepper"] is not None and run["stepper"] not in STEPPERS:
        raise ConfigError(f"unknown stepper {run['stepper']!r}")

    for key in ("t_end", "dt", "save_dt"):
        if key in run:
            _finite_number(run[key], f"run.{key}")
    save_grid(run["t_end"], run["dt"], run.get("save_dt", run["dt"]))

    reads = READS[command]
    for key, value in exp_sec.items():     # a bad value outranks an unread key
        exp_sec[key] = EXPERIMENT_KEYS[key][0](value, f"experiment.{key}")
        if key not in reads:
            raise ConfigError(f"experiment.{key} is not read by {command}, which "
                              f"reads {', '.join(reads)}")
    for key in reads:
        default = EXPERIMENT_KEYS[key][1]
        exp_sec.setdefault(key, default(run, model) if callable(default) else default)
    if command == "uniqueness":
        run.setdefault("save_dt", max(exp_sec["dt_levels"]))
    if command == "converge":
        # each level n runs on the model's own basis of n modes on 4n
        # points, so the basis section may only restate the finest level
        levels = exp_sec["levels"]
        for key in ("grid_size", "v_weight_exponent"):
            if basis_sec.get(key) is not None:
                raise ConfigError(f"basis.{key} is not used by converge: level n "
                                  "runs on the model's basis of n modes")
        if "n_modes" in basis_sec and basis["n_modes"] != max(levels):
            raise ConfigError(f"basis.n_modes {basis['n_modes']} is not the finest "
                              f"converge level {max(levels)}")
        basis.update(n_modes=max(levels), grid_size=4 * max(levels))

    return ExperimentConfig(command=command, model=model,
                            model_params=model_sec, basis=basis, run=run,
                            experiment=exp_sec, out_dir=sections[None]["out_dir"])


def initial_coefficients(x0, n_modes):
    """Resolve an x0 selector (preset name or coefficient list)."""
    if isinstance(x0, str):
        return _PRESETS[_check_coefficients(x0, "x0")](n_modes)
    return np.asarray(x0, float).ravel()
