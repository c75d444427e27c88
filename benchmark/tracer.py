"""Per-layer tracing of spde from outside the program.

The tracer replaces named functions of the spde modules with timing
wrappers.  Each wrapper opens a span keyed by the metric it feeds, runs
the original, and closes the span; a span's exclusive time is its
duration minus the spans opened directly inside it, and a layer's
self time is the sum of its spans' exclusive times.  A call that
re-enters a span key already open (a subclass calling super().apply_A,
or solve_ensemble calling _advance_block) is passed through, so
inclusive busy time is never counted twice.

Wrapping is by name, so a refactor can remove a name or change its
arguments.  A metric lists the names it is built from; when any of them
no longer exists, or its counter no longer fits the arguments, the
metric is reported as unmeasured (value None) instead of failing the
run.  Spans are aggregated in memory per (key, parent key) and written
out once, when the benchmark ends.  The tracer assumes one thread: the
benchmark runs the solver with threads = 1.
"""

import functools
import math
import time
from collections import defaultdict

import numpy as np

SOLVER_NAMES = ("solver.solve_ensemble", "solver.solve_path",
                "solver._advance_block")
NOISE_NAMES = ("noise.sample_block",)
MODEL_NAMES = ("models.MODELS",)
BASIS_NAMES = ("basis.sample_coeffs", "basis.v_norm", "basis.dual_norm_estimate")
CHECK_NAMES = ("checks.check_hemicontinuity", "checks.check_local_monotonicity",
               "checks.check_coercivity", "checks.check_growth",
               "checks.check_noise", "checks.check_chi_threshold")
DIAGNOSTIC_NAMES = ("diagnostics.moment_report",
                    "diagnostics.equicontinuity_statistic",
                    "diagnostics.galerkin_convergence",
                    "diagnostics.initial_data_continuity",
                    "diagnostics.uniqueness_probe")
WRITE_NAMES = ("cli._write_csv", "cli._write_summary", "diagnostics.write_table")

CONDITIONS = ("H1", "H2", "H2prime", "H3", "H4", "H5",
              "H2star", "H3star", "H4star", "H5star", "chi-threshold")


def _busy(key):
    return lambda snap: snap["busy"].get(key, 0.0)


def _self(layer):
    return lambda snap: snap["self"].get(layer, 0.0)


def _count(key):
    return lambda snap: snap["counts"].get(key, 0)


# metric name -> (unit, names it needs, how it is read from a pass snapshot)
METRICS = {
    "noise.busy_s": ("s", NOISE_NAMES, _busy("noise")),
    "noise.calls": ("count", NOISE_NAMES, _count("noise.calls")),
    "noise.normals": ("count", NOISE_NAMES, _count("noise.normals")),
    "noise.block_mb": ("MB", NOISE_NAMES, _count("noise.block_mb")),
    "models.apply_A.busy_s": ("s", MODEL_NAMES, _busy("models.apply_A")),
    "models.apply_A.calls": ("count", MODEL_NAMES, _count("models.apply_A.calls")),
    "models.apply_A.rows": ("count", MODEL_NAMES, _count("models.apply_A.rows")),
    "models.apply_B_increment.busy_s": (
        "s", MODEL_NAMES, _busy("models.apply_B_increment")),
    "models.apply_B_increment.calls": (
        "count", MODEL_NAMES, _count("models.apply_B_increment.calls")),
    "models.apply_B_increment.rows": (
        "count", MODEL_NAMES, _count("models.apply_B_increment.rows")),
    "basis.sample_coeffs.busy_s": (
        "s", ("basis.sample_coeffs",), _busy("basis.sample_coeffs")),
    "basis.v_norm.busy_s": ("s", ("basis.v_norm",), _busy("basis.v_norm")),
    "basis.dual_norm_estimate.busy_s": (
        "s", ("basis.dual_norm_estimate",), _busy("basis.dual_norm_estimate")),
    "solver.busy_s": ("s", SOLVER_NAMES, _busy("solver")),
    "solver.self_s": ("s", SOLVER_NAMES + NOISE_NAMES + MODEL_NAMES, _self("solver")),
    "solver.path_steps": ("count", SOLVER_NAMES, _count("solver.path_steps")),
    "solver.blocks": ("count", SOLVER_NAMES, _count("solver.blocks")),
    **{f"checks.{c}.busy_s": ("s", CHECK_NAMES, _busy(f"checks.{c}"))
       for c in CONDITIONS},
    "checks.self_s": ("s", CHECK_NAMES + MODEL_NAMES + BASIS_NAMES, _self("checks")),
    "diagnostics.busy_s": ("s", DIAGNOSTIC_NAMES, _busy("diagnostics")),
    "diagnostics.self_s": (
        "s", DIAGNOSTIC_NAMES + SOLVER_NAMES + NOISE_NAMES + MODEL_NAMES + BASIS_NAMES,
        _self("diagnostics")),
    "config.load_config.busy_s": (
        "s", ("config.load_config",), _busy("config.load_config")),
    "cli.write.busy_s": ("s", WRITE_NAMES, _busy("cli.write")),
    # measured from the files on disk by the workload, not by a wrapper
    "cli.artifact_bytes": ("B", (), _count("cli.artifact_bytes")),
}


def _rows(coeffs):
    return math.prod(np.shape(coeffs)[:-1])


class Tracer:
    def __init__(self):
        self.missing = []
        self._stack = []          # open spans: [key, start, child_time]
        self._open = set()
        self._counting = set()
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0])   # (parent, key) -> [n, s]

    def snapshot(self):
        return {"busy": dict(self.busy), "self": dict(self.self_time),
                "counts": dict(self.counts),
                "edges": {f"{p} > {k}": v for (p, k), v in self.edges.items()}}

    # -- spans ---------------------------------------------------------
    def _call(self, name, key, layer, fn, args, kwargs, count, key_of):
        # a counter runs once per outermost call of its function group, even
        # inside an open span of the same key (_advance_block under
        # solve_ensemble), but not again for a super() call it wraps
        counted = count is not None and count not in self._counting
        if counted:
            self._counting.add(count)
        try:
            if key in self._open:
                out = fn(*args, **kwargs)
            else:
                out = self._span(key, layer, fn, args, kwargs, key_of)
        finally:
            if counted:
                self._counting.discard(count)
        if counted:
            try:
                count(self.counts, args, kwargs, out)
            except (AttributeError, IndexError, KeyError, TypeError):
                # the signature or result changed: unmeasured, not a failure
                if name not in self.missing:
                    self.missing.append(name)
        return out

    def _span(self, key, layer, fn, args, kwargs, key_of):
        self._open.add(key)
        frame = [key, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - frame[1]
            self._stack.pop()
            self._open.discard(key)
            if self._stack:
                self._stack[-1][2] += dt
        if key_of is not None:
            key = key_of(out)
        parent = self._stack[-1][0] if self._stack else "-"
        self.busy[key] += dt
        self.self_time[layer] += dt - frame[2]
        edge = self.edges[(parent, key)]
        edge[0] += 1
        edge[1] += dt
        return out

    def _wrapper(self, name, key, fn, count=None, key_of=None):
        layer = key.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, key, layer, fn, args, kwargs, count, key_of)
        return traced

    # -- installation --------------------------------------------------
    def wrap(self, modules, qualname, key, count=None, key_of=None):
        """Wrap module attribute `qualname` ("noise.sample_block") and every
        other spde module binding of the same object."""
        mod_name, attr = qualname.split(".", 1)
        fn = getattr(modules.get(mod_name), attr, None)
        if not callable(fn):
            self.missing.append(qualname)
            return
        wrapper = self._wrapper(qualname, key, fn, count, key_of)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)

    def wrap_method(self, name, classes, attr, key, count=None):
        """Wrap `attr` on every class that defines it itself; `name` is
        what a failing counter marks as unmeasured."""
        seen = set()
        for cls in classes:
            for klass in cls.__mro__:
                fn = klass.__dict__.get(attr)
                if fn is None or klass in seen or not callable(fn):
                    continue
                seen.add(klass)
                setattr(klass, attr, self._wrapper(name, key, fn, count))


def _count_noise(counts, args, kwargs, out):
    counts["noise.calls"] += 1
    counts["noise.normals"] += out.size
    counts["noise.block_mb"] = max(counts["noise.block_mb"], out.nbytes / 1e6)


def _count_rows(prefix):
    def count(counts, args, kwargs, out):
        coeffs = kwargs["coeffs"] if "coeffs" in kwargs else args[3]
        counts[prefix + ".calls"] += 1
        counts[prefix + ".rows"] += _rows(coeffs)
    return count


def _count_block(counts, args, kwargs, out):
    inc = kwargs["increments"] if "increments" in kwargs else args[3]
    counts["solver.path_steps"] += int(inc.shape[0]) * int(inc.shape[1])
    counts["solver.blocks"] += 1


def _condition_key(report):
    return "checks." + str(getattr(report, "condition", "unknown"))


def install(spde_modules):
    """Wrap the layer boundaries of the imported spde modules.

    `spde_modules` maps short module names ("noise", "solver", ...) to
    module objects.  Returns the tracer; its `missing` list names every
    wrapper target that does not exist, and grows during the run when a
    counter no longer fits its target's arguments.
    """
    tr = Tracer()
    mods = spde_modules
    tr.wrap(mods, "noise.sample_block", "noise", count=_count_noise)
    models = getattr(mods.get("models"), "MODELS", None)
    if isinstance(models, dict):
        classes = list(models.values())
        tr.wrap_method("models.MODELS", classes, "apply_A", "models.apply_A",
                       count=_count_rows("models.apply_A"))
        tr.wrap_method("models.MODELS", classes, "apply_B_increment",
                       "models.apply_B_increment",
                       count=_count_rows("models.apply_B_increment"))
    else:
        tr.missing.append("models.MODELS")
    for name in BASIS_NAMES:
        tr.wrap(mods, name, name)
    for name in SOLVER_NAMES:
        count = _count_block if name.endswith("_advance_block") else None
        tr.wrap(mods, name, "solver", count=count)
    for name in CHECK_NAMES:
        tr.wrap(mods, name, "checks", key_of=_condition_key)
    for name in DIAGNOSTIC_NAMES:
        tr.wrap(mods, name, "diagnostics")
    tr.wrap(mods, "config.load_config", "config.load_config")
    for name in WRITE_NAMES:
        tr.wrap(mods, name, "cli.write")
    return tr


def layer_metrics(snapshots, missing):
    """Per-layer metrics over a run's passes: busy and self times are the
    median over passes, counts are the first pass's (the caller checks
    that they repeat).  A metric whose names are missing is None."""
    out = {}
    for name, (unit, needs, read) in METRICS.items():
        if any(n in missing for n in needs):
            value = None
        else:
            values = [read(s) for s in snapshots]
            value = float(np.median(values)) if unit == "s" else values[0]
        out[name] = {"value": value, "unit": unit}
    return out


def counts_repeat(snapshots):
    """True when every count matches across passes."""
    first = snapshots[0]["counts"]
    return all(s["counts"] == first for s in snapshots[1:])
