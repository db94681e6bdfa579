"""Per-layer counts and self times, recorded from outside the package.

Tracer.install wraps every public function of the eight layer modules and
rebinds the wrapper under every name that binds the original anywhere in
the loaded trottersim package, so calls between modules are seen too. A
span's self time is its duration minus the durations of the wrapped spans
it encloses. A few counters ride on specific calls: Trotter steps per
run_schedule, matrix exponentials and scipy.optimize calls made inside
global_fit, and the distinct (circuit, noise) keys seen by induced_channel.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("linalg", "liouvillian", "channels", "dilation", "trotter",
          "tomography", "mitigation", "cli")

# Per-layer metric name -> unit, in the order printed.
LAYER_METRICS = {
    "tomography.global_fit.calls": "count",
    "tomography.global_fit.self_ms": "ms",
    "tomography.model_evals": "count",
    "tomography.optimizer_starts": "count",
    "linalg.expm.calls": "count",
    "linalg.expm.self_ms": "ms",
    "trotter.run_schedule.calls": "count",
    "trotter.run_schedule.self_ms": "ms",
    "trotter.steps": "count",
    "linalg.validate_density_matrix.calls": "count",
    "linalg.validate_density_matrix.self_ms": "ms",
    "liouvillian.pauli_expectations.calls": "count",
    "liouvillian.target_trace.self_ms": "ms",
    "dilation.induced_channel.calls": "count",
    "dilation.induced_channel.self_ms": "ms",
    "dilation.induced_channel.distinct_share": "ratio",
    "dilation.run_circuit.calls": "count",
    "channels.self_ms": "ms",
    "trotter.permutation_scan.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.import_ms": "ms",
    "mitigation.self_ms": "ms",
    **{f"{layer}.lines": "count" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


class Tracer:
    """Wrappers plus the counters they feed; one per traced process."""

    def __init__(self):
        self.calls = {}    # "module.function" -> calls
        self.self_s = {}   # "module.function" -> self seconds
        self.counts = {"steps": 0, "model_evals": 0, "optimizer_starts": 0,
                       "induced_distinct": 0}
        self._stack = []   # child seconds of each open span
        self._in_fit = 0
        self._keys = set()
        self._undo = []

    def new_pass(self):
        """Start a fresh distinct-key set (distinct_share is per pass)."""
        self.counts["induced_distinct"] += len(self._keys)
        self._keys = set()

    def snapshot(self):
        """Plain-data totals, mergeable across processes with merge()."""
        counts = dict(self.counts)
        counts["induced_distinct"] += len(self._keys)
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": counts}

    def _observe(self, name, args, kwargs):
        if name == "trotter.run_schedule":
            self.counts["steps"] += args[0].n_steps if args else kwargs["schedule"].n_steps
        elif name == "linalg.expm" and self._in_fit:
            self.counts["model_evals"] += 1
        elif name == "dilation.induced_channel":
            bound = self._induced_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            circuit, noise = bound.arguments["circuit"], bound.arguments["noise"]
            self._keys.add((
                tuple((g.kind, float(g.theta)) for g in circuit.gates),
                None if noise is None else (noise.p_grape, noise.p_ancilla_decay),
                bound.arguments["adaptive"],
            ))

    def _wrap(self, name, fn):
        is_fit = name == "tomography.global_fit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._observe(name, args, kwargs)
            self._stack.append(0.0)
            self._in_fit += is_fit
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self._in_fit -= is_fit
                child = self._stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + span - child
                if self._stack:
                    self._stack[-1] += span

        return wrapper

    def install(self):
        """Wrap the layers' public functions under every binding in the package."""
        modules = {n: m for n, m in sys.modules.items()
                   if (n == "trottersim" or n.startswith("trottersim.")) and m is not None}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"trottersim.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "dilation.induced_channel":
                    self._induced_signature = inspect.signature(obj)
                wrappers[id(obj)] = self._wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        # global_fit reaches the optimizer as scipy.optimize.minimize.
        import scipy.optimize

        minimize = scipy.optimize.minimize

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            if self._in_fit:
                self.counts["optimizer_starts"] += 1
            return minimize(*args, **kwargs)

        self._undo.append((scipy.optimize, "minimize", minimize))
        scipy.optimize.minimize = counted_minimize

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo = []


def merge(snapshots):
    """Sum several snapshot() results."""
    total = {"calls": {}, "self_s": {}, "counts": {}}
    for snap in snapshots:
        for part in total:
            for key, value in snap[part].items():
                total[part][key] = total[part].get(key, 0) + value
    return total


def layer_metrics(snap, passes, src_dir, import_ms, overhead_pct):
    """The per-layer metric values, counts and times per traced pass."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]

    def n(name):
        return calls.get(name, 0) / passes

    def ms(name):
        return 1e3 * self_s.get(name, 0.0) / passes

    def layer_ms(layer):
        return 1e3 * sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / passes

    fits = calls.get("tomography.global_fit", 0)
    induced = calls.get("dilation.induced_channel", 0)
    values = {
        "tomography.global_fit.calls": n("tomography.global_fit"),
        "tomography.global_fit.self_ms": ms("tomography.global_fit"),
        "tomography.model_evals": counts["model_evals"] / fits if fits else 0.0,
        "tomography.optimizer_starts": counts["optimizer_starts"] / fits if fits else 0.0,
        "linalg.expm.calls": n("linalg.expm"),
        "linalg.expm.self_ms": ms("linalg.expm"),
        "trotter.run_schedule.calls": n("trotter.run_schedule"),
        "trotter.run_schedule.self_ms": ms("trotter.run_schedule"),
        "trotter.steps": counts["steps"] / passes,
        "linalg.validate_density_matrix.calls": n("linalg.validate_density_matrix"),
        "linalg.validate_density_matrix.self_ms": ms("linalg.validate_density_matrix"),
        "liouvillian.pauli_expectations.calls": n("liouvillian.pauli_expectations"),
        "liouvillian.target_trace.self_ms": ms("liouvillian.target_trace"),
        "dilation.induced_channel.calls": n("dilation.induced_channel"),
        "dilation.induced_channel.self_ms": ms("dilation.induced_channel"),
        "dilation.induced_channel.distinct_share":
            counts["induced_distinct"] / induced if induced else 0.0,
        "dilation.run_circuit.calls": n("dilation.run_circuit"),
        "channels.self_ms": layer_ms("channels"),
        "trotter.permutation_scan.self_ms": ms("trotter.permutation_scan"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.import_ms": import_ms,
        "mitigation.self_ms": layer_ms("mitigation"),
        "trace.overhead_pct": overhead_pct,
    }
    for layer in LAYERS:
        text = (Path(src_dir) / "trottersim" / f"{layer}.py").read_text()
        values[f"{layer}.lines"] = len(text.splitlines())
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}
