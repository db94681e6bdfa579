"""The four workloads: seeded inputs, a fixed operation list, output checks.

Each workload builds its inputs from the seed when it is constructed (this is
the set-up), then exposes `ops`, the fixed list one pass runs in order. An
operation's `run(pass_index)` is the timed call into trottersim; its
`check(result, pass_index)` runs untimed, raises OpFailed when the program
reports a failure, and returns the list of wrong outputs it found. The
expected values come from model.py or from closed forms, never from stored
program output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import model
import tracer as tracing
import trottersim as ts

TAU0 = 3.56
STATES = ("0", "+", "+i", "1")
OBS = ("x", "y", "z")


class OpFailed(Exception):
    """The program reported that an operation failed."""


@dataclass
class Op:
    label: str
    work: float
    run: Callable[[int], object]
    check: Callable[[object, int], list]


def _rates(g):
    return ts.CanonicalRates(gamma1=g[0], gamma_phi=g[1], omega=g[2])


def _bloch(trace):
    return np.column_stack([trace.sx, trace.sy, trace.sz])


def _close(a, b, tol):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _random_bloch(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class Workload:
    """Built from (seed, tiny, out_dir); fills `ops` and `problems`, the
    wrong outputs found while setting up. `unit` names the work unit and
    `nominal_pass_s` is the pass length the pass count is derived from."""

    unit = ""
    nominal_pass_s = 5.0
    compares_passes = False  # finish() compares passes, so at least two run
    while_waiting = staticmethod(lambda: None)  # called while a subprocess runs

    def warm_up(self):
        pass

    def finish(self):
        """Checks that span passes; returns the wrong outputs found."""
        return []

    def start_tracing(self, tracer):
        """Route the operations that follow through the tracer's wrappers."""
        tracer.install()

    def stop_tracing(self, tracer, import_ms):
        """The traced totals and the cold import time of trottersim.cli in ms."""
        tracer.uninstall()
        return tracer.snapshot(), import_ms

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- fit-batch

# fig2-style angles (theta1, theta2, theta3) in degrees. Exact and shot
# sets are jittered by up to 1 degree per seed; grid points rather than free
# draws keep the cost of a pass nearly the same for every seed. The Trotter
# sets sit on fig2's own grid, unjittered: the fatol fault of FAILING_FIT
# also stops a Trotter fit now and then at small residuals, for example at
# (4.48, 20.04, 52.39), so jittered Trotter sets would fail on some seeds
# only. At fixed angles a fit converges on every run or on none.
FIT_ANGLES = {
    "exact": [(10, 30, 40), (30, 10, 70), (20, 20, 100), (35, 25, 140),
              (15, 35, 160), (25, 15, 20)],
    "shot": [(12, 28, 50), (28, 12, 90), (22, 22, 130), (38, 18, 160),
             (8, 38, 30), (18, 8, 110)],
    "trotter": [(5, 20, 51.4), (15, 20, 51.4), (30, 20, 51.4), (20, 10, 38.6),
                (20, 20, 38.6), (20, 20, 60)],
}
SHOTS = 2000
# Fails every time: Nelder-Mead's absolute fatol=1e-15 sits below the
# round-off of an objective near 1.79, so the fit runs to maxfev and
# reports converged=False.
FAILING_FIT = (35.3, 34.9, 66.8)
FIT_STEPS = 13


class FitBatch(Workload):
    unit = "fits"
    nominal_pass_s = 6.0

    def __init__(self, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        self.ops = []
        self.problems = []
        per_kind = 1 if tiny else None
        for kind, angles in FIT_ANGLES.items():
            for base in angles[:per_kind]:
                jitter = 0.0 if kind == "trotter" else rng.uniform(-1, 1, 3)
                self._add(kind, tuple(np.asarray(base, float) + jitter),
                          int(rng.integers(2**32)))
        self._add("trotter", FAILING_FIT, None)

    def _add(self, kind, angles, shot_seed):
        g = model.rates_from_angles(*angles, TAU0)
        rates = _rates(g)
        exact = model.tomography_curves(model.exact_step(g, TAU0), FIT_STEPS)
        if kind == "trotter":
            schedule = ts.TrotterSchedule(order=1, n_steps=FIT_STEPS, dt=TAU0)
            curves = ts.generate_tomography(
                rates, TAU0, FIT_STEPS,
                evolve=lambda rho0: ts.run_schedule(schedule, rates, rho0))
            expected = model.tomography_curves(
                model.trotter_step(g, TAU0, 1, model.LABELS), FIT_STEPS)
        elif kind == "shot":
            curves = ts.generate_tomography(rates, TAU0, FIT_STEPS, shots=SHOTS,
                                            seed=shot_seed)
            expected = exact
        else:
            curves = ts.generate_tomography(rates, TAU0, FIT_STEPS)
            expected = exact
        data = np.array([curves.curve(s, o) for s in STATES for o in OBS])
        label = f"{kind} {'/'.join(f'{a:.2f}' for a in angles)}"
        if kind == "shot":
            counts = (data + 1) * SHOTS / 2
            if not _close(counts, np.round(counts), 1e-6):
                self.problems.append(f"{label}: sampled values off the 2k/s-1 grid")
            if not _close(data, expected, 6 / np.sqrt(SHOTS)):
                self.problems.append(f"{label}: sampled curves stray from the model")
        elif not _close(data, expected, 1e-9):
            self.problems.append(f"{label}: generate_tomography disagrees with the model")
        rms_true = model.rms(exact, data)

        def check(fit, _pass):
            if not fit.converged:
                raise OpFailed(f"{label}: global_fit did not converge")
            out = []
            if not fit.t2 <= 2 * fit.t1 * (1 + 1e-9):
                out.append(f"{label}: T2={fit.t2} exceeds 2*T1={2 * fit.t1}")
            got = (1 / fit.t1, 1 / fit.t2 - 0.5 / fit.t1, fit.omega)
            rms_fit = model.rms(
                model.tomography_curves(model.exact_step(got, TAU0), FIT_STEPS), data)
            if abs(fit.residual - rms_fit) > 1e-9 + 1e-6 * rms_fit:
                out.append(f"{label}: reported residual {fit.residual} != {rms_fit}")
            if kind == "exact":
                want = (g[0], g[0] / 2 + g[1], g[2])
                have = (1 / fit.t1, 1 / fit.t2, fit.omega)
                if any(abs(h - w) > 1e-7 + 1e-5 * w for h, w in zip(have, want)):
                    out.append(f"{label}: fit {have} misses the rates {want}")
            elif rms_fit > rms_true * (1 + 1e-9) + 1e-12:
                out.append(f"{label}: RMS at the fit {rms_fit} above {rms_true} at the truth")
            return out

        self.ops.append(Op(label, 1, lambda _pass: ts.global_fit(curves), check))

    def warm_up(self):
        self.ops[0].run(0)


# ------------------------------------------------------------- long-horizon

LONG_STEPS = 10_000
# Driven kraus runs drift in trace by the unitarity error of the rotation
# step (up to ~4e-14 per step) and run_schedule rejects them once the drift
# passes 1e-10, after 2700 to 10^4 steps depending on the rates. The driven
# runs are therefore short; at 400 steps the drift stays below 4e-11.
DRIVEN_STEPS = 400
LONG_DT = TAU0 / 4


class LongHorizon(Workload):
    unit = "steps"
    nominal_pass_s = 3.75

    def __init__(self, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        n = 400 if tiny else LONG_STEPS
        n_driven = 40 if tiny else DRIVEN_STEPS
        angles = rng.uniform([10, 10, 20], [30, 30, 90])
        g = model.rates_from_angles(*angles, TAU0)
        undriven = (g[0], g[1], 0.0)
        self.problems = []
        self.ops = []
        self.accuracy = {}
        exact = model.exact_step(g, LONG_DT)
        tag = "/".join(f"{a:.2f}" for a in angles)
        for k in range(3):
            r0 = _random_bloch(rng)
            rho0 = model.bloch_state(r0).reshape(2, 2)
            if k < 2:
                self._add(f"target {tag} state{k}", n, self._target_run(g, rho0, n),
                          model.stepped(exact, r0, n), None)
            closed = model.undriven_closed_form(undriven, r0, np.arange(n + 1) * LONG_DT)
            for order in (1, 2):
                self._add(f"o{order} undriven {tag} state{k}", n,
                          self._schedule_run(order, n, undriven, rho0), closed, None)
            if k == 0:
                reference = model.stepped(exact, r0, n_driven)
                for order in (1, 2):
                    self._add(f"o{order} driven {tag} state{k}", n_driven,
                              self._schedule_run(order, n_driven, g, rho0),
                              reference, order)
        self.warm = self._schedule_run(2, 50, g, rho0)

    @staticmethod
    def _schedule_run(order, n, g, rho0):
        schedule = ts.TrotterSchedule(order=order, n_steps=n, dt=LONG_DT)
        rates = _rates(g)
        return lambda _pass: ts.run_schedule(schedule, rates, rho0)

    @staticmethod
    def _target_run(g, rho0, n):
        rates = _rates(g)
        return lambda _pass: ts.target_trace(rates, rho0, LONG_DT, n)

    def _add(self, label, n, run, reference, order):
        """reference: the exact Bloch vectors, or for order 1 and 2 the
        exact trace whose accuracy the two orders are compared on."""
        times = np.arange(n + 1) * LONG_DT

        def check(trace, pass_index):
            out = []
            if len(trace) != n + 1 or not _close(trace.times, times, 1e-9 * times[-1]):
                return [f"{label}: trace is not on the grid j*dt, j = 0..{n}"]
            bloch = _bloch(trace)
            if np.sqrt((bloch**2).sum(axis=1)).max() > 1 + 1e-9:
                out.append(f"{label}: a sample leaves the Bloch ball")
            if order is None:
                if not _close(bloch, reference, 1e-8):
                    out.append(f"{label}: trace deviates from the reference by "
                               f"{np.abs(bloch - reference).max():.3e}")
                return out
            acc = model.accuracy(bloch, reference)
            self.accuracy[(pass_index, order)] = acc
            first = self.accuracy.get((pass_index, 1))
            if order == 2 and not acc < first:
                out.append(f"{label}: second order ({acc:.3e}) does not beat "
                           f"first order ({first:.3e}) at equal dt")
            return out

        self.ops.append(Op(label, n, run, check))

    def warm_up(self):
        self.warm(0)


# ---------------------------------------------------------------- step-scan

SCAN_THETA2 = tuple(range(5, 75, 5))  # fig4's damping-angle grid, degrees
SCAN_STEPS = 13
BACKENDS = ("kraus", "dilation", "dilation+noise")
SCHEDULES = [(order, perm) for order in (1, 2)
             for perm in itertools.permutations(model.LABELS)]


class StepScan(Workload):
    unit = "schedules"
    nominal_pass_s = 1.5

    def __init__(self, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        theta1, theta3 = 20 + rng.uniform(-1, 1), 25.7 + rng.uniform(-1, 1)
        self.noise = ts.NoiseParams(p_grape=rng.uniform(0.005, 0.02),
                                    p_ancilla_decay=rng.uniform(0.005, 0.02))
        grid = SCAN_THETA2[:2] if tiny else SCAN_THETA2
        self.ops = []
        self.problems = []
        self.kraus = {}
        for base in grid:
            theta2 = base + rng.uniform(-1, 1)
            g = model.rates_from_angles(theta1, theta2, theta3, TAU0)
            exact = model.stepped(model.exact_step(g, TAU0), (0, 0, -1), SCAN_STEPS)
            reference = {
                (order, perm): model.accuracy(model.stepped(
                    model.trotter_step(g, TAU0, order, perm), (0, 0, -1), SCAN_STEPS),
                    exact)
                for order, perm in SCHEDULES
            }
            for backend in BACKENDS:
                self._add(f"{backend} theta2={theta2:.2f}", g, backend, reference)
        self.warm_rates = _rates(g)

    def _add(self, label, g, backend, reference):
        rates = _rates(g)
        noise = self.noise if backend == "dilation+noise" else None

        def run(_pass):
            return ts.permutation_scan(rates, n_steps=SCAN_STEPS, dt=TAU0,
                                       backend=backend, noise=noise)

        def check(scan, pass_index):
            got = {(order, tuple(perm)): rep.a for (order, perm), rep in scan.items()}
            if set(got) != set(reference):
                return [f"{label}: scan keys are not the 12 (order, permutation) pairs"]
            if backend == "dilation+noise":
                if not all(np.isfinite(a) and a >= 0 for a in got.values()):
                    return [f"{label}: non-finite or negative accuracy"]
                return []
            out = []
            worst = max(abs(got[k] - reference[k]) for k in reference)
            if worst > 1e-9:
                out.append(f"{label}: accuracies deviate from the model by {worst:.3e}")
            if backend == "kraus":
                self.kraus[(pass_index, label.split()[1])] = got
            else:
                kraus = self.kraus.get((pass_index, label.split()[1]), {})
                if any(abs(got[k] - kraus.get(k, np.inf)) > 1e-10 for k in got):
                    out.append(f"{label}: noiseless dilation differs from kraus")
            return out

        self.ops.append(Op(label, len(SCHEDULES), run, check))

    def warm_up(self):
        for backend in BACKENDS:
            noise = self.noise if backend == "dilation+noise" else None
            ts.permutation_scan(self.warm_rates, n_steps=3, dt=TAU0,
                                backend=backend, noise=noise)


# ------------------------------------------------------------ cli-reproduce

CLI_COMMANDS = (
    ("evolve",), ("trotter",), ("scan",), ("dilate-verify",), ("fit",),
    ("mitigate",), ("converge",), ("reproduce", "--figure", "fig2"),
    ("reproduce", "--figure", "fig3"), ("reproduce", "--figure", "fig4"),
)
CLI_TINY = (("evolve",), ("dilate-verify",), ("mitigate",),
            ("reproduce", "--figure", "fig3"))
TRACE_BOOT = Path(__file__).resolve().parent / "clitrace.py"
WAIT_POLL_S = 0.1


def _read_json(path):
    return json.loads(Path(path).read_text())


def _check_lagrange(label, cs, values, estimates):
    out = []
    for n, estimate in enumerate(estimates):
        weights = model.lagrange_at_zero(cs[: n + 1])
        mine = sum(w * v for w, v in zip(weights, values))
        if abs(estimate - mine) > 1e-9 * max(1.0, abs(mine)):
            out.append(f"{label}: order-{n} estimate {estimate} != {mine}")
    return out


class CliReproduce(Workload):
    unit = "commands"
    nominal_pass_s = 14.0
    compares_passes = True

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.out = Path(out_dir) / "cli"
        shutil.rmtree(self.out, ignore_errors=True)
        self.env = {k: v for k, v in os.environ.items() if k != "TROTTERSIM_WORKERS"}
        src = str(Path(ts.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.traced = False
        self.snapshots = []
        self.import_ms = []
        self.peak_kb = 0
        self.problems = []
        self.ops = [Op(" ".join(cmd), 1, self._runner(cmd), self._checker(cmd))
                    for cmd in (CLI_TINY if tiny else CLI_COMMANDS)]
        # evolve on the default config: theta = (20, 20, 51.4) deg, |1>, 13 steps.
        g = model.rates_from_angles(20.0, 20.0, 51.4, TAU0)
        self.evolve_ref = model.stepped(model.exact_step(g, TAU0), (0, 0, -1), 13)

    def _pass_dir(self, pass_index):
        return self.out / f"pass{pass_index}"

    def _runner(self, cmd):
        def run(pass_index):
            out = self._pass_dir(pass_index)
            out.mkdir(parents=True, exist_ok=True)
            args = [*cmd, "--out", str(out), "--seed", str(self.seed)]
            stats = out / f".trace-{'-'.join(cmd)}.json"
            if self.traced:
                argv = [sys.executable, str(TRACE_BOOT), str(stats), *args]
            else:
                argv = [sys.executable, "-m", "trottersim", *args]
            with open(out / ".stderr", "ab") as err:
                proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL,
                                        stderr=err)
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    self.while_waiting()
                    time.sleep(WAIT_POLL_S)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            if self.traced and stats.exists():
                snap = _read_json(stats)
                stats.unlink()
                self.import_ms.append(snap.pop("import_ms"))
                self.snapshots.append(snap)
            return proc.returncode

        return run

    def _checker(self, cmd):
        name = cmd[-1]

        def check(returncode, pass_index):
            if returncode != 0:
                raise OpFailed(f"trottersim {' '.join(cmd)} exited {returncode}")
            out = self._pass_dir(pass_index)
            if name == "evolve":
                rows = np.loadtxt(out / "evolve.csv", delimiter=",", skiprows=1)
                if not _close(rows[:, 2:5], self.evolve_ref, 1e-9):
                    return ["evolve.csv disagrees with the model"]
            elif name == "dilate-verify":
                if _read_json(out / "dilate_verify.json")["pass"] is not True:
                    return ["dilate-verify does not report pass"]
            elif name == "mitigate":
                doc = _read_json(out / "mitigate.json")
                return _check_lagrange(
                    "mitigate", [p["c"] for p in doc["points"]],
                    [p["value"] for p in doc["points"]],
                    [r["estimate"] for r in doc["results"]])
            elif name == "fig3":
                return self._check_fig3(out)
            return []

        return check

    @staticmethod
    def _check_fig3(out):
        rows = np.loadtxt(out / "fig3_points.csv", delimiter=",", skiprows=1)
        doc = _read_json(out / "fig3.json")
        estimates = [e["estimate"] for e in doc["extrapolations"]]
        problems = _check_lagrange("fig3", list(rows[:, 0]), list(rows[:, 1]), estimates)
        truth = 1 / model.rates_from_angles(20.0, 0.0, 0.0, TAU0)[1]
        if abs(doc["zero_damping_dephasing_time_us"] - truth) > 1e-9 * truth:
            problems.append("fig3: zero-damping dephasing time is not 1/gamma_phi")
        if not abs(estimates[1] - truth) < abs(estimates[0] - truth):
            problems.append("fig3: order-1 error is not below the order-0 error")
        return problems

    def warm_up(self):
        import trottersim.cli

        warm = self.out / "warm-up"
        warm.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = trottersim.cli.main(["evolve", "--out", str(warm)])
        if code != 0:
            raise RuntimeError("warm-up command failed")
        shutil.rmtree(warm)

    def finish(self):
        dirs = sorted(p for p in self.out.glob("pass*") if p.is_dir())
        if len(dirs) < 2:
            return ["fewer than two passes ran; artifacts not compared"]

        def artifacts(d):
            return {p.name: p.read_bytes() for p in d.iterdir()
                    if p.is_file() and not p.name.startswith(".")}

        first = artifacts(dirs[0])
        out = []
        for other in dirs[1:]:
            if artifacts(other) != first:
                out.append(f"artifacts of {other.name} differ from {dirs[0].name}")
        return out

    def peak_rss_mb(self):
        return self.peak_kb / 1024

    def start_tracing(self, tracer):
        self.traced = True  # each command then runs under clitrace.py

    def stop_tracing(self, tracer, import_ms):
        self.traced = False
        return tracing.merge(self.snapshots), statistics.median(self.import_ms)


WORKLOADS = {
    "fit-batch": FitBatch,
    "long-horizon": LongHorizon,
    "step-scan": StepScan,
    "cli-reproduce": CliReproduce,
}
