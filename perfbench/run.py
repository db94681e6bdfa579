"""Benchmark for trottersim: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the package is imported from
./src. The run first starts three set-up-only copies of itself, one after
another, and reports the median time from their start to the end of their
set-up as setup_s. It then sets up in this process and runs whole passes
through the workload's fixed operation list, checking every output. The
number of passes follows from --seconds and a fixed nominal pass length, so
every run does the same work whatever the machine's speed. Every reported
time is scaled to a reference machine speed (see SpeedClock). With --trace 1
it runs half the passes untraced and half with the layer tracer installed,
and prints the per-layer metrics and the tracing overhead instead of the
end-to-end ones. --tiny shrinks every workload to a few seconds, to check
the benchmark itself. Lines before the last one carry information only; the
last line is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_COPIES = 3
# The names of workloads.WORKLOADS; that module imports trottersim, which
# may only be imported once ./src is known to hold it.
WORKLOADS = ("fit-batch", "long-horizon", "step-scan", "cli-reproduce")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="a few seconds per workload")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SpeedClock:
    """Wall time scaled to a reference machine speed.

    On a shared machine the CPU's speed swings by up to 2x within seconds,
    far more than the regressions the bounds must catch. So every timed
    interval is bracketed by a short fixed numpy loop that does not use
    trottersim, and the interval is multiplied by REF_LOOP_MS over the mean
    of the two loop timings: a scaled time is the time the interval would
    have taken with the loop running at its reference speed.
    """

    REF_LOOP_MS = 0.6  # loop_ms() in the fastest state seen (2 CPUs, 2.1 GHz)

    def __init__(self):
        import numpy as np

        self._a = np.random.default_rng(0).standard_normal((4, 4)) * 0.25 + 0j
        self._eye = np.eye(4, dtype=complex)

    def loop_ms(self):
        """ms for 150 iterations, as 3x the fastest of three 50-iteration
        runs, so that one interrupt does not read as a slow machine."""
        best = float("inf")
        for _ in range(3):
            m = self._eye
            t0 = time.perf_counter()
            for _ in range(50):
                m = self._a @ m
                m /= abs(m).max()
            best = min(best, time.perf_counter() - t0)
        return 3e3 * best

    def timed(self, fn, *args):
        """fn(*args), its wall seconds and its scaled seconds."""
        self._samples = [self.loop_ms()]
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        self._samples.append(self.loop_ms())
        return result, elapsed, elapsed * self.REF_LOOP_MS / statistics.mean(self._samples)

    def sample(self):
        """One more loop timing for the interval being timed; code that waits
        on a subprocess calls this while it waits."""
        self._samples.append(self.loop_ms())

    def calibration_ms(self):
        """Median of nine runs of the loop, printed at the start and end of a run."""
        return statistics.median(self.loop_ms() for _ in range(9))


def set_up(args):
    """Import the package cold, build the workload's inputs, warm up."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import trottersim
    import trottersim.cli  # noqa: F401

    import_ms = 1e3 * (time.perf_counter() - t0)
    if Path(trottersim.__file__).resolve().parent != SRC / "trottersim":
        raise SystemExit(f"error: trottersim imported from {trottersim.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT)
    wl.warm_up()
    return wl, import_ms


def timed_setup_copies(clock, argv, copies):
    """Wall and scaled seconds from spawning a set-up-only copy to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]

    def one_copy():
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready = any(line.strip() == "ready" for line in proc.stdout)
        return proc, ready

    wall, scaled = [], []
    for _ in range(copies):
        (proc, ready), elapsed, elapsed_scaled = clock.timed(one_copy)
        proc.stdout.close()
        if proc.wait() != 0 or not ready:
            raise SystemExit(f"error: set-up copy exited {proc.returncode}")
        wall.append(elapsed)
        scaled.append(elapsed_scaled)
    return wall, scaled


def run_passes(clock, wl, passes, first_pass, tracer=None):
    """Run whole passes: scaled and wall op times, per-pass work rates, outcomes."""
    import workloads

    res = {"times": [], "wall": [], "rates": [], "wall_rates": [],
           "attempted": 0, "failed": 0, "problems": []}
    for p in range(first_pass, first_pass + passes):
        if tracer is not None:
            tracer.new_pass()
        busy = wall = work = 0.0
        for op in wl.ops:
            (result, error), elapsed, scaled = clock.timed(_call, op.run, p)
            busy += scaled
            wall += elapsed
            work += op.work
            res["times"].append(scaled)
            res["wall"].append(elapsed)
            res["attempted"] += 1
            try:
                if error is not None:
                    raise workloads.OpFailed(f"{op.label}: {error!r}")
                res["problems"] += op.check(result, p)
            except workloads.OpFailed as exc:
                res["failed"] += 1
                print(f"# failed: {exc}", file=sys.stderr)
        res["rates"].append(work / busy)
        res["wall_rates"].append(work / wall)
    return res


def _call(run, pass_index):
    try:
        return run(pass_index), None
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, exc


def tail(times):
    """Highest percentile with at least ten samples beyond it, or None below 40."""
    n = len(times)
    if n < 40:
        return None
    return 100 * (n - 10) / n, 1e3 * sorted(times)[n - 11]


def main(argv):
    args = parse_args(argv)
    if args.setup_only:
        set_up(args)
        print("ready", flush=True)
        return 0
    if not (SRC / "trottersim" / "__init__.py").is_file():
        print(f"error: no trottersim package under {SRC}", file=sys.stderr)
        return 2
    clock = SpeedClock()
    calib_start = clock.calibration_ms()
    setup_wall, setup_scaled = timed_setup_copies(
        clock, argv, 1 if args.tiny else SETUP_COPIES)
    t0 = time.perf_counter()
    wl, import_ms = set_up(args)
    own_setup = time.perf_counter() - t0
    wl.while_waiting = clock.sample

    if args.tiny:
        passes = 2 if wl.compares_passes else 1
    else:
        passes = max(2 if wl.compares_passes else 3, round(args.seconds / wl.nominal_pass_s))
    if args.trace:
        import tracer as tracing

        untraced_n = max(1, passes // 2)
        plain = run_passes(clock, wl, untraced_n, 0)
        tr = tracing.Tracer()
        wl.start_tracing(tr)
        traced_n = max(1, passes - untraced_n)
        traced = run_passes(clock, wl, traced_n, untraced_n, tr)
        snap, import_ms = wl.stop_tracing(tr, import_ms)
        overhead = 100 * (1 - statistics.median(traced["rates"])
                          / statistics.median(plain["rates"]))
        metrics = tracing.layer_metrics(snap, traced_n, SRC, import_ms, overhead)
        runs = [plain, traced]
    else:
        plain = run_passes(clock, wl, passes, 0)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(plain["times"]), "unit": "ms"},
            "work_per_s": {"value": statistics.median(plain["rates"]), "unit": "1/s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }
        runs = [plain]

    problems = list(wl.problems) + [p for r in runs for p in r["problems"]] + wl.finish()
    for problem in problems:
        print(f"# wrong output: {problem}", file=sys.stderr)
    times = [t for r in runs for t in r["times"]]
    info = {
        "workload": args.workload, "seed": args.seed, "work_unit": wl.unit,
        "passes": passes, "ops_per_pass": len(wl.ops),
        "setup_copies_s": {"scaled": [round(t, 4) for t in setup_scaled],
                           "wall": [round(t, 4) for t in setup_wall]},
        "own_setup_s": round(own_setup, 4), "import_ms": round(import_ms, 2),
        "wall_op_p50_ms": round(1e3 * statistics.median(plain["wall"]), 3),
        "pass_rates": {"scaled": [round(x, 4) for r in runs for x in r["rates"]],
                       "wall": [round(x, 4) for r in runs for x in r["wall_rates"]]},
        "calibration_ms": {"start": round(calib_start, 4),
                           "end": round(clock.calibration_ms(), 4)},
    }
    t = tail(times)
    if t is not None:
        info["op_tail_ms"] = {f"p{t[0]:.1f}": round(t[1], 3), "samples": len(times)}
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
