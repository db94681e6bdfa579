"""Command-line harness: validated configs, experiment drivers, CSV/JSON artifacts.

Subcommands:
    evolve         Exact master-equation trace -> evolve.csv.
    trotter        Trotterized trace plus accuracy -> trotter.csv,
                   trotter_target.csv, trotter.json.
    scan           Accuracy of all six permutations at both orders -> scan.json.
    dilate-verify  Distances between the dilation backend's channels and the
                   closed forms over an angle grid -> dilate_verify.json.
    fit            Simulated tomography and the global (T1, T2, Omega) fit ->
                   fit.json, fit_curves.csv.
    mitigate       Zero-noise extrapolation study (simulated or from a CSV of
                   measured points) -> mitigate.json.
    converge       Accuracy-versus-step-count slope -> converge.json.
    reproduce      Fixed figure protocols (required --figure fig2|fig3|fig4; no
                   --config) -> data bundles per protocol.

Configs are YAML mappings with angles written in degrees; they are converted to radians
at this boundary and validated in full before any computation starts, rejecting unknown
keys and any key that the subcommand does not read (CONFIG_TABLE lists the subcommands
that read each key).  Each job (a subcommand runner or a figure protocol) yields its
artifacts in write order as (file name, content) pairs; main writes each one into --out
as it arrives and echoes the paths once the job has finished, so a job that fails keeps
the files it yielded before.  Trace CSV files always carry the header
step,time_us,sx,sy,sz and every emitted trace's Bloch rows are checked as stored.
Identical config and seed produce byte-identical artifacts.  Exit codes: 0 success, 1
invalid configuration or usage, 2 numerical failure (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .channels import elementary_ptms
from .dilation import NoiseParams, angle_to_rates
from .linalg import _SPAN, _SPAN_TEXT, check_bloch_rows, check_span
from .liouvillian import CanonicalRates, EvolutionTrace, target_trace
from .mitigation import NoisePoint, check_scale_factors, extrapolate
from .tomography import INITIAL_STATES, OBS_LABELS, STATE_LABELS, generate_tomography, global_fit
from .trotter import (
    ALL_LABELS,
    TrotterSchedule,
    accuracy,
    convergence_order,
    permutation_scan,
    run_schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

TRACE_HEADER = "step,time_us,sx,sy,sz"
DISTANCE_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid configuration or command line; maps to exit code 1."""


class NumericalFailure(RuntimeError):
    """Computation produced an unacceptable result; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    Every field is resolved: defaults applied, the angles and intrinsic decay
    folded into ``rates`` and the Trotter settings held by ``schedule`` (dt = tau0).
    Construction happens only through build_config, which rejects unknown keys, keys
    the mode does not read and out-of-range values before any computation.
    """

    rates: CanonicalRates
    schedule: TrotterSchedule
    initial_state: str
    shots: int | None
    seed: int | None
    n_list: tuple[int, ...]
    theta_grid_deg: tuple[float, ...]
    c_list: tuple[float, ...]
    input_csv: str | None
    variable: str
    t_total_us: float | None


# ----------------------------------------------------------- config parsing


def _real(value, context):
    """A YAML number as a float; NaN and inf are left to the range checks."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest float
        raise ConfigError(f"{context} must lie in the float range, got a larger integer") from None


def _finite(value, context):
    x = _real(value, context)
    if not np.isfinite(x):
        raise ConfigError(f"{context} must be finite, got {x}")
    return x


def _time(value, context):
    """An intrinsic decay time: a number, or inf also spelled as a plain string."""
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", ".inf"):
        return np.inf
    return _real(value, context)


def _as_int(value, context, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{context} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{context} must be <= {hi}, got {value}")
    return int(value)


def _text(value, context):
    return str(value)


def _as_is(value, context):
    return value


def _choice(*choices):
    def coerce(value, context):
        if value not in choices:
            raise ConfigError(f"{context} must be one of {', '.join(choices)}, got {value!r}")
        return value

    return coerce


def _list_of(coerce, min_len=1):
    def coerce_list(value, context):
        if not isinstance(value, (list, tuple)) or len(value) < min_len:
            at_least = f" of at least {min_len} entries" if min_len else ""
            raise ConfigError(f"{context} must be a list{at_least}")
        return tuple(coerce(x, f"{context}[{i}]") for i, x in enumerate(value))

    return coerce_list


# The modes that read a key; dilate-verify reads only tau0_us and its angle grid.
_EVERY = ("evolve", "trotter", "scan", "dilate-verify", "fit", "mitigate", "converge")
_RATES = tuple(m for m in _EVERY if m != "dilate-verify")
_DRIVEN = tuple(m for m in _RATES if m != "mitigate")  # mitigate runs its schedule undriven
_SCHEDULE = ("trotter", "fit", "mitigate", "converge")
_NOISE = ("trotter", "scan", "fit", "converge")

# Every config key but `mode` (build_config adds its row: the default is the subcommand, the
# only accepted value) as key -> (default, coerce, the modes that read it); a key set for any
# other mode is rejected.  A coercer checks the YAML type only; the physical ranges are checked
# by the calls build_config makes (angle_to_rates, also once per theta_grid_deg entry,
# NoiseParams, TrotterSchedule) and by the scale-factor rule (c_list).  A table in place of a
# coercer is a nested section, whose keys carry their own modes.  Only a key whose default is
# None may be null.
CONFIG_TABLE = {
    "angles": ({}, {
        "theta1_deg": (20.0, _real, _RATES),
        "theta2_deg": (20.0, _real, _RATES),
        "theta3_deg": (51.4, _real, _DRIVEN),
        "tau0_us": (3.56, _real, _EVERY),
    }, _EVERY),
    "intrinsic": ({}, {"t1_us": (np.inf, _time, _RATES), "t2_us": (np.inf, _time, _RATES)}, _RATES),
    "n_steps": (13, partial(_as_int, hi=100_000), _RATES),
    "order": (1, _as_is, _SCHEDULE),
    "permutation": (ALL_LABELS, _list_of(_text), _SCHEDULE),
    "backend": ("kraus", _as_is, ("trotter", "scan", "fit", "mitigate", "converge")),
    # The section's presence selects NoiseParams; the defaults fill its keys.
    "noise": ({}, {"p_grape": (0.0, _real, _NOISE), "p_ancilla_decay": (0.0, _real, _NOISE)},
              _NOISE),
    "initial_state": ("1", _choice(*STATE_LABELS), ("evolve", "trotter", "scan", "converge")),
    "shots": (None, partial(_as_int, lo=1), ("fit",)),
    "seed": (None, partial(_as_int, lo=0, hi=2**64 - 1), ("fit",)),
    "n_list": ((4, 8, 16, 32, 64, 128), _list_of(partial(_as_int, lo=1, hi=100_000), 4),
               ("converge",)),
    "theta_grid_deg": (tuple(map(float, range(5, 90, 5))), _list_of(_finite), ("dilate-verify",)),
    "c_list": ((1.0, 2.13, 4.93, 9.96), _list_of(_real, 0), ("mitigate",)),
    "input_csv": (None, _text, ("mitigate",)),
    "variable": ("t2", _choice("t2", "rate"), ("mitigate",)),
    "t_total_us": (None, _finite, ("converge",)),
}


def _resolve(raw, table, mode, context=None):
    """Coerce a config mapping through its table for mode, filling in the defaults."""
    where = context or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(raw).__name__}")
    for key in raw:
        if not isinstance(key, str):
            raise ConfigError(f"{where} keys must be strings, got {key!r}")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    values = {}
    for key, (default, coerce, modes) in table.items():
        name = f"{context}.{key}" if context else key
        if key in raw and mode not in modes:
            raise ConfigError(f"{name} is not read by {mode}, only by {', '.join(modes)}")
        value = raw.get(key, default)
        if isinstance(coerce, dict):
            values[key] = _resolve(value, coerce, mode, name)
        else:
            values[key] = None if value is None and default is None else coerce(value, name)
    return values


def build_config(raw, mode):
    """Validate a raw config mapping into an ExperimentConfig.

    Args:
        raw: Mapping parsed from the YAML config file ({} for defaults).
        mode: Subcommand name; a mode key inside the config must match it.

    Returns:
        ExperimentConfig with defaults applied.

    Raises:
        ConfigError: On unknown keys, keys the mode does not read, type errors,
            or out-of-range values, including every ValueError of the objects it builds.
    """
    if mode == "mitigate" and isinstance(raw, dict) and raw.get("backend") == "dilation+noise":
        raise ConfigError("backend 'dilation+noise' needs noise, which mitigate does not read")
    v = _resolve(raw, {"mode": (mode, _choice(mode), (mode,)), **CONFIG_TABLE}, mode)
    del v["mode"]  # checked against the subcommand, which picks the runner
    deg, intrinsic, noise = v.pop("angles"), v.pop("intrinsic"), v.pop("noise")
    tau0 = deg["tau0_us"]
    try:
        rates = angle_to_rates(*(np.radians(deg[f"theta{i}_deg"]) for i in (1, 2, 3)), tau0,
                               intrinsic["t1_us"], intrinsic["t2_us"])
    except ValueError as exc:  # each message names its argument: name its section as written
        section = "intrinsic" if "_intrinsic" in str(exc) else "angles"
        raise ConfigError(f"{section} {raw.get(section)}: {exc}") from None
    try:  # the grid first, named as the config writes it: the schedule's dt is angles.tau0_us
        check_span(v["n_steps"], tau0, "n_steps", "angles.tau0_us")
        schedule = TrotterSchedule(
            permutation=v.pop("permutation"), order=v.pop("order"), n_steps=v.pop("n_steps"),
            dt=tau0, backend=v.pop("backend"),
            noise=NoiseParams(**noise) if "noise" in raw else None,
        )
        check_scale_factors(v["c_list"], "c_list")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if not 0 <= deg["theta3_deg"] <= 360:
        raise ConfigError(f"angles.theta3_deg must lie in [0, 360], got {deg['theta3_deg']}")
    n_list = v["n_list"]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    for i, x in enumerate(v["theta_grid_deg"] if mode == "dilate-verify" else ()):
        try:  # the runner's rates: the entry is all three angles
            angle_to_rates(*[np.radians(x)] * 3, tau0)
        except ValueError as exc:
            raise ConfigError(f"theta_grid_deg[{i}] = {x}: {exc}") from None
    t_total = v["t_total_us"]  # converge's finest step is t_total_us / max(n_list)
    if t_total is not None and not (t_total / max(n_list) > 0 and t_total < _SPAN):
        raise ConfigError(f"t_total_us must be below {_SPAN_TEXT} with t_total_us / max(n_list) "
                          f"positive, got {t_total}")
    return ExperimentConfig(rates=rates, schedule=schedule, **v)


def load_config(path, mode):
    """Read and validate a YAML config file; None path means all defaults."""
    if path is None:
        return build_config({}, mode)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    import yaml  # here, so that a run on the default config loads no yaml module
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return build_config({} if raw is None else raw, mode)


# --------------------------------------------------------------- emission


def _fmt(x):
    return repr(float(x))


def _write(path, content):
    """Write one artifact: an EvolutionTrace as a trace CSV after the check of its rows, a
    (header, rows) table as CSV (floats as repr, other cells as text), anything else as strict
    JSON, a non-finite float written as null."""
    if isinstance(content, EvolutionTrace):
        check_bloch_rows(content.rows, lambda j: f"trace {content.label!r} step {j[0]}")
        columns = (content.times, content.sx, content.sy, content.sz)
        content = (TRACE_HEADER, ((j, *v) for j, v in enumerate(zip(*columns))))
    if isinstance(content, tuple):
        header, rows = content
        lines = [header] + [
            ",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) for row in rows
        ]
        path.write_text("\n".join(lines) + "\n")
    else:  # strict JSON: a non-finite float, a bare NaN or Infinity to json.dumps, becomes null
        content = json.loads(json.dumps(content), parse_constant=lambda _: None)
        path.write_text(json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _engine_summary(cfg):
    schedule = cfg.schedule
    return {
        "backend": schedule.backend,
        "n_steps": schedule.n_steps,
        "order": schedule.order,
        "permutation": "-".join(schedule.permutation),
        "tau0_us": float(schedule.dt),
    }


def _rates_summary(rates):
    return {
        "gamma1_per_us": float(rates.gamma1),
        "gamma_phi_per_us": float(rates.gamma_phi),
        "omega_mhz": float(rates.omega),
    }


def _run_summary(cfg):
    """The engine, initial state and rates that the trotter, scan and converge JSONs share."""
    return {"engine": _engine_summary(cfg), "initial_state": cfg.initial_state,
            "rates": _rates_summary(cfg.rates)}


# ------------------------------------------------------------ mode runners


def _rho0(cfg):
    """The density matrix of the configured initial state."""
    return INITIAL_STATES[cfg.initial_state]


def _run_evolve(cfg):
    yield "evolve.csv", target_trace(cfg.rates, _rho0(cfg), cfg.schedule.dt, cfg.schedule.n_steps)


def _run_trotter(cfg):
    rates, schedule = cfg.rates, cfg.schedule
    rho0 = _rho0(cfg)
    trace = run_schedule(schedule, rates, rho0)
    target = target_trace(rates, rho0, schedule.dt, schedule.n_steps)
    report = accuracy(trace, target)
    yield "trotter.csv", trace
    yield "trotter_target.csv", target
    yield "trotter.json", {"accuracy": float(report.a), **_run_summary(cfg)}


def _run_scan(cfg):
    schedule, results = cfg.schedule, {"1": {}, "2": {}}
    scan = permutation_scan(cfg.rates, n_steps=schedule.n_steps, dt=schedule.dt, rho0=_rho0(cfg),
                            backend=schedule.backend, noise=schedule.noise)
    for (order, perm), report in scan.items():
        results[str(order)]["-".join(perm)] = float(report.a)
    # Commuting twins tie up to round-off: the name-first within 1e-12 relative of the least A.
    lows = {o: min(table.values()) * (1 + 1e-12) for o, table in results.items()}
    best = {o: min(k for k, a in table.items() if a <= lows[o]) for o, table in results.items()}
    summary = _run_summary(cfg)
    del summary["engine"]["order"], summary["engine"]["permutation"]  # scan runs every one
    yield "scan.json", {"best_permutation": best, "results": results, **summary}


def _run_dilate_verify(cfg):
    """Per label and grid angle, the Frobenius distance between the dilation backend's channel
    and the closed form at the angle's rates; it equals the distance of their Choi matrices."""
    tau0 = cfg.schedule.dt
    distances = {label: {} for label in ALL_LABELS}
    for theta_deg in cfg.theta_grid_deg:
        rates = angle_to_rates(*[np.radians(theta_deg)] * 3, tau0)
        gaps = (elementary_ptms(rates, [tau0], "dilation", None)[0]
                - elementary_ptms(rates, [tau0], "kraus", None)[0])
        for label, gap in zip(ALL_LABELS, gaps):
            distances[label][_fmt(theta_deg)] = float(np.linalg.norm(gap))
    # np.max, unlike max, returns NaN whenever a distance is NaN, which then fails the check
    max_distance = float(np.max([d for table in distances.values() for d in table.values()]))
    passed = max_distance < DISTANCE_TOL
    yield "dilate_verify.json", {
        "distances": distances,
        "max_distance": max_distance,
        "pass": passed,
        "tau0_us": float(tau0),
        "theta_grid_deg": list(cfg.theta_grid_deg),
        "tolerance": DISTANCE_TOL,
    }
    if not passed:
        raise NumericalFailure(
            f"dilation check failed: max channel distance {max_distance:.3e} "
            f"is not below {DISTANCE_TOL}"
        )


def _run_fit(cfg):
    rates, schedule = cfg.rates, cfg.schedule
    curves = generate_tomography(
        rates, schedule.dt, schedule.n_steps, shots=cfg.shots, seed=cfg.seed,
        evolve=lambda rho0: run_schedule(schedule, rates, rho0),
    )
    fit = global_fit(curves)
    yield "fit_curves.csv", ("step,time_us,state,obs,value", (
        (j, j * curves.dt, state, obs, v)
        for state in STATE_LABELS for obs in OBS_LABELS
        for j, v in enumerate(curves.curve(state, obs))
    ))
    omega, band = cfg.rates.omega, 1.0 / cfg.schedule.dt  # samples dt apart see omega mod 1/dt
    yield "fit.json", {
        "engine": _engine_summary(cfg),
        "fitted": {
            "at_bound": list(fit.at_bound),
            "converged": bool(fit.converged),
            "omega_mhz": float(fit.omega),
            "residual": float(fit.residual),
            "stderr": dict(zip(("t1_us", "t2_us", "omega_mhz"), fit.stderr)),
            "t1_us": float(fit.t1),
            "t2_us": float(fit.t2),
        },
        "predicted": {
            "omega_folded_mhz": float(omega - band * np.floor(omega / band + 0.5)),
            "omega_mhz": float(omega),
            "t1_us": float(cfg.rates.t1),
            "t2_us": float(cfg.rates.t2),
        },
        "seed": cfg.seed,
        "shots": cfg.shots,
    }
    if not fit.converged:
        raise NumericalFailure("tomography fit did not converge")


def _noise_rows(path):
    """A noise-point CSV's (c, value[, sigma]) rows as float triples, unchecked: a non-numeric
    first row is a header, blank lines are skipped and a missing or empty sigma is None. A row
    of fewer than two cells or a malformed number is a ValueError."""
    rows = []
    with open(path, newline="") as fh:
        for row_number, row in enumerate(csv.reader(fh)):
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if row_number == 0:
                try:
                    float(cells[0])
                except ValueError:
                    continue  # header row
            if len(cells) < 2:
                raise ValueError(f"row {row_number}: need at least c and value")
            sigma = float(cells[2]) if len(cells) >= 3 and cells[2] else None
            rows.append((float(cells[0]), float(cells[1]), sigma))
    return rows


def _run_mitigate(cfg):
    payload = {"variable": cfg.variable, "source": str(cfg.input_csv or "simulated")}
    if cfg.input_csv is None:  # build_config has checked c_list
        # Per factor c, fit's T2* at the undriven rates, damping scaled by c: it fails as fit does.
        base = replace(cfg.rates, omega=0.0)
        t2s = [_payload("fit", replace(cfg, rates=replace(base, gamma1=c * base.gamma1)))
               ["fitted"]["t2_us"] for c in cfg.c_list]
        points = [NoisePoint(c=c, value=1.0 / t2 if cfg.variable == "rate" else t2)
                  for c, t2 in zip(cfg.c_list, t2s)]
        payload["base_rates"] = _rates_summary(base)
        if base.gamma_phi > 0:
            limit = 1.0 / base.gamma_phi
            payload["zero_damping_limit"] = limit if cfg.variable == "t2" else 1.0 / limit
    else:
        try:
            rows = _noise_rows(cfg.input_csv)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load noise points from {cfg.input_csv}: {exc}") from exc
        if len(rows) < 1:
            raise ConfigError(f"no noise points found in {cfg.input_csv}")
        try:  # the rule reads the c column before NoisePoint checks each c
            check_scale_factors([row[0] for row in rows], f"the c column of {cfg.input_csv}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            points = [NoisePoint(*row) for row in rows]
        except ValueError as exc:  # a row's value or sigma
            raise ConfigError(f"cannot load noise points from {cfg.input_csv}: {exc}") from exc
    results = extrapolate(points)
    payload["points"] = [
        {"c": float(p.c), "sigma": None if p.sigma is None else float(p.sigma),
         "value": float(p.value)}
        for p in points
    ]
    payload["results"] = [asdict(r) for r in results]
    yield "mitigate.json", payload


def _run_converge(cfg):
    schedule = cfg.schedule
    t_total = cfg.t_total_us if cfg.t_total_us is not None else schedule.n_steps * schedule.dt
    result = convergence_order(schedule, cfg.rates, rho0=_rho0(cfg), n_list=cfg.n_list,
                               t_total=t_total)
    yield "converge.json", {
        "accuracies": [float(a) for a in result.accuracies],
        "n_values": [int(n) for n in result.n_values],
        "saturated": result.slope is None,
        "slope": None if result.slope is None else float(result.slope),
        "t_total_us": float(t_total),
        **_run_summary(cfg),
    }


def _payload(mode, cfg):
    """The <mode>.json payload of mode's runner on cfg; the other artifacts go unread."""
    return dict(RUNNERS[mode](cfg))[f"{mode}.json"]


RUNNERS = {
    "evolve": _run_evolve,
    "trotter": _run_trotter,
    "scan": _run_scan,
    "dilate-verify": _run_dilate_verify,
    "fit": _run_fit,
    "mitigate": _run_mitigate,
    "converge": _run_converge,
}


# --------------------------------------------------------------- reproduce
#
# Each figure protocol is a set of configs that fix their own angles (and, for
# fig3, an intrinsic T1); tau0, N, the order and c_list come from the defaults.
# Each config runs through its mode's runner, and the figure tabulates the runner's
# <mode>.json: a figure point fails exactly as its mode does.


def _sweep(mode, name, grid, fixed):
    """(angle, payload) per grid angle of name, in degrees, with the fixed angles held."""
    return [(a, _payload(mode, build_config({"angles": {**fixed, f"{name}_deg": a}}, mode)))
            for a in map(float, grid)]


# Swept angle -> (its grid in degrees, the two angles it holds fixed).
_FIG2_SWEEPS = {
    "theta1": (range(5, 45, 5), {"theta2_deg": 20.0, "theta3_deg": 51.4}),
    "theta2": (range(5, 45, 5), {"theta1_deg": 20.0, "theta3_deg": 38.6}),
    "theta3": (range(10, 80, 10), {"theta1_deg": 20.0, "theta2_deg": 20.0}),
}


def _reproduce_fig2():
    sweeps, keys = {}, ("t1_us", "t2_us", "omega_mhz")
    for name, (grid, fixed) in _FIG2_SWEEPS.items():
        points = _sweep("fit", name, grid, fixed)
        sweeps[name] = {"file": f"fig2_{name}.csv", "fixed_deg": fixed,
                        "grid_deg": [a for a, _ in points]}
        yield sweeps[name]["file"], (
            "angle_deg,t1_us,t2_us,omega_mhz,t1_pred_us,t2_pred_us,omega_pred_mhz",
            [(a, *(p["fitted"][k] for k in keys), *(p["predicted"][k] for k in keys))
             for a, p in points],
        )
    engine = points[-1][1]["engine"]  # every sweep point runs the default tau0, N and order
    yield "fig2.json", {"n_steps": engine["n_steps"], "order": engine["order"],
                        "sweeps": sweeps, "tau0_us": engine["tau0_us"]}


# Dephasing from theta1 = 20 deg, no drive, and the damping of an intrinsic
# T1 = 1/0.0090 us in place of a damping circuit.
_FIG3_CONFIG = {
    "angles": {"theta1_deg": 20.0, "theta2_deg": 0.0},
    "intrinsic": {"t1_us": 1 / 0.0090},
}


def _reproduce_fig3():
    cfg = build_config(_FIG3_CONFIG, "mitigate")
    payload = _payload("mitigate", cfg)
    yield "fig3_points.csv", ("c,t2star_us", [(p["c"], p["value"]) for p in payload["points"]])
    truth = payload["zero_damping_limit"]  # the pure-dephasing time 1/gamma_phi
    yield "fig3.json", {
        "base_rates": payload["base_rates"],
        "c_list": list(cfg.c_list),
        "extrapolations": [
            {"estimate": r["estimate"], "order": r["order"],
             "relative_error": (r["estimate"] - truth) / truth}
            for r in payload["results"]
        ],
        "n_steps": cfg.schedule.n_steps, "order": cfg.schedule.order, "tau0_us": cfg.schedule.dt,
        "theta1_deg": _FIG3_CONFIG["angles"]["theta1_deg"],
        "zero_damping_dephasing_time_us": truth,
    }


def _reproduce_fig4():
    fixed = {"theta1_deg": 20.0, "theta3_deg": 25.7}
    points = _sweep("scan", "theta2", range(5, 75, 5), fixed)
    rows = sorted((int(order), perm, a, acc) for a, p in points
                  for order, table in p["results"].items() for perm, acc in table.items())
    yield "fig4_accuracy.csv", ("order,permutation,theta2_deg,accuracy", rows)
    engine = points[-1][1]["engine"]
    yield "fig4.json", {"n_steps": engine["n_steps"], "tau0_us": engine["tau0_us"],
                        "theta2_grid_deg": [a for a, _ in points], **fixed}


_REPRODUCERS = {"fig2": _reproduce_fig2, "fig3": _reproduce_fig3, "fig4": _reproduce_fig4}
FIGURES = tuple(_REPRODUCERS)


# --------------------------------------------------------------- CLI shell


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="trottersim",
                     description="Trotterized open-qubit-system simulation harness.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in (*RUNNERS, "reproduce"):
        p = sub.add_parser(name)
        if name == "reproduce":  # each figure builds its own configs
            p.add_argument("--figure", choices=FIGURES, required=True)
            p.set_defaults(config=None)
        else:
            p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (overrides config)")
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser, paths = _build_parser(), []
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg = replace(cfg, seed=CONFIG_TABLE["seed"][1](args.seed, "--seed"))
        if cfg.shots is not None and cfg.seed is None:  # the sampler would draw OS entropy
            raise ConfigError("shots needs a seed, from the config key seed or --seed")
        args.out.mkdir(parents=True, exist_ok=True)
        job = (_REPRODUCERS[args.figure]() if args.command == "reproduce"
               else RUNNERS[args.command](cfg))
        for name, content in job:
            _write(args.out / name, content)
            paths.append(args.out / name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK

if __name__ == "__main__":
    sys.exit(main())
