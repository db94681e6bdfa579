"""Command-line harness: validated configs, experiment drivers, CSV/JSON artifacts.

Subcommands:
    evolve         Exact master-equation trace -> evolve.csv.
    trotter        Trotterized trace plus accuracy -> trotter.csv,
                   trotter_target.csv, trotter.json.
    scan           Accuracy of all six permutations at both orders -> scan.json.
    dilate-verify  Circuit-induced versus analytic channel distances over an
                   angle grid -> dilate_verify.json.
    fit            Simulated tomography and the global (T1, T2, Omega) fit ->
                   fit.json, fit_curves.csv.
    mitigate       Zero-noise extrapolation study (simulated or from a CSV of
                   measured points) -> mitigate.json.
    converge       Accuracy-versus-step-count slope -> converge.json.
    reproduce      Fixed figure protocols (--figure fig2|fig3|fig4) -> data
                   bundles per protocol.

Configs are YAML mappings with angles written in degrees; they are converted
to radians at this boundary and validated in full, rejecting unknown keys,
before any computation starts.  Trace CSV files always carry the header
step,time_us,sx,sy,sz and every emitted trace is checked against the
Bloch-norm bound.  Identical config and seed produce byte-identical
artifacts.  Exit codes: 0 success, 1 invalid configuration or usage,
2 numerical failure (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .channels import channel_distance, dephasing_channel, damping_channel, unitary_channel
from .dilation import (
    AngleParams,
    NoiseParams,
    angle_to_rates,
    damping_circuit,
    dephasing_circuit,
    effective_rates,
    induced_channel,
    rotation_circuit,
)
from .linalg import SIGMA_X, density, expm
from .liouvillian import CanonicalRates, EvolutionTrace, target_trace
from .mitigation import NoisePoint, extrapolate, load_noise_points, scaled_damping_t2
from .tomography import INITIAL_STATES, OBS_LABELS, STATE_LABELS, generate_tomography, global_fit
from .trotter import (
    ALL_LABELS,
    ALL_PERMUTATIONS,
    BACKENDS,
    TrotterSchedule,
    accuracy,
    convergence_order,
    permutation_scan,
    run_schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

WORKERS_ENV = "TROTTERSIM_WORKERS"
TRACE_HEADER = "step,time_us,sx,sy,sz"
BLOCH_TOL = 1e-8
DISTANCE_TOL = 1e-10

MODES = ("evolve", "trotter", "scan", "dilate-verify", "fit", "mitigate", "converge")
FIGURES = ("fig2", "fig3", "fig4")


class ConfigError(ValueError):
    """Invalid configuration or command line; maps to exit code 1."""


class NumericalFailure(RuntimeError):
    """Computation produced an unacceptable result; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description.

    Every field is resolved (defaults applied, angles in radians inside
    AngleParams, worker count still external); construction happens only
    through config parsing, which rejects unknown keys and out-of-range
    values before any computation.
    """

    mode: str
    angles: AngleParams
    intrinsic: tuple[float, float]
    n_steps: int
    order: int
    permutation: tuple[str, str, str]
    backend: str
    noise: NoiseParams | None
    initial_state: str
    shots: int | None
    seed: int | None
    n_list: tuple[int, ...]
    theta_grid_deg: tuple[float, ...]
    c_list: tuple[float, ...]
    n_max: int | None
    input_csv: str | None
    figure: str | None
    variable: str
    t_total_us: float | None


# ----------------------------------------------------------- config parsing


def _require_mapping(value, context):
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(value).__name__}")
    for key in value:
        if not isinstance(key, str):
            raise ConfigError(f"{context} keys must be strings, got {key!r}")
    return value


def _reject_unknown(mapping, allowed, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(unknown)}")


def _as_float(value, context, lo=None, hi=None, allow_inf=False):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    if isinstance(value, str):
        if allow_inf and value.strip().lower() in ("inf", "infinity", ".inf"):
            value = np.inf
        else:
            raise ConfigError(f"{context} must be a number, got {value!r}")
    x = float(value)
    if np.isnan(x):
        raise ConfigError(f"{context} must not be NaN")
    if np.isinf(x) and not allow_inf:
        raise ConfigError(f"{context} must be finite")
    if lo is not None and x < lo:
        raise ConfigError(f"{context} must be >= {lo}, got {x}")
    if hi is not None and x > hi:
        raise ConfigError(f"{context} must be <= {hi}, got {x}")
    return x


def _as_int(value, context, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{context} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{context} must be <= {hi}, got {value}")
    return int(value)


def _as_choice(value, choices, context):
    if value not in choices:
        raise ConfigError(f"{context} must be one of {', '.join(map(str, choices))}, got {value!r}")
    return value


def _parse_angles(raw):
    allowed = ("theta1_deg", "theta2_deg", "theta3_deg", "tau0_us")
    _require_mapping(raw, "angles")
    _reject_unknown(raw, allowed, "angles")
    theta1 = _as_float(raw.get("theta1_deg", 20.0), "angles.theta1_deg", lo=0.0)
    theta2 = _as_float(raw.get("theta2_deg", 20.0), "angles.theta2_deg", lo=0.0)
    theta3 = _as_float(raw.get("theta3_deg", 51.4), "angles.theta3_deg", lo=0.0, hi=360.0)
    tau0 = _as_float(raw.get("tau0_us", 3.56), "angles.tau0_us")
    if tau0 <= 0:
        raise ConfigError(f"angles.tau0_us must be positive, got {tau0}")
    if theta1 >= 90.0 or theta2 >= 90.0:
        raise ConfigError("angles theta1_deg and theta2_deg must be below 90 degrees")
    return AngleParams.from_degrees(theta1, theta2, theta3, tau0)


def _parse_intrinsic(raw):
    allowed = ("t1_us", "t2_us")
    _require_mapping(raw, "intrinsic")
    _reject_unknown(raw, allowed, "intrinsic")
    t1 = _as_float(raw.get("t1_us", np.inf), "intrinsic.t1_us", allow_inf=True)
    t2 = _as_float(raw.get("t2_us", np.inf), "intrinsic.t2_us", allow_inf=True)
    if t1 <= 0 or t2 <= 0:
        raise ConfigError("intrinsic times must be positive (inf for ideal)")
    if t2 > 2 * t1 * (1 + 1e-9):
        raise ConfigError(f"intrinsic t2_us={t2} exceeds the physical bound 2*t1_us={2 * t1}")
    return (t1, t2)


def _parse_noise(raw):
    allowed = ("p_grape", "p_ancilla_decay")
    _require_mapping(raw, "noise")
    _reject_unknown(raw, allowed, "noise")
    return NoiseParams(
        p_grape=_as_float(raw.get("p_grape", 0.0), "noise.p_grape", lo=0.0, hi=1.0),
        p_ancilla_decay=_as_float(
            raw.get("p_ancilla_decay", 0.0), "noise.p_ancilla_decay", lo=0.0, hi=1.0
        ),
    )


def _parse_permutation(raw):
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"permutation must list the three generator labels, got {raw!r}")
    perm = tuple(str(x) for x in raw)
    if sorted(perm) != sorted(ALL_LABELS):
        raise ConfigError(
            f"permutation must rearrange {', '.join(ALL_LABELS)}, got {', '.join(perm)}"
        )
    return perm


def _parse_number_list(raw, context, lo=None, hi=None):
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{context} must be a non-empty list")
    return tuple(_as_float(x, f"{context}[{i}]", lo=lo, hi=hi) for i, x in enumerate(raw))


_TOP_LEVEL_KEYS = (
    "mode", "angles", "intrinsic", "n_steps", "order", "permutation", "backend",
    "noise", "initial_state", "shots", "seed", "n_list", "theta_grid_deg",
    "c_list", "n_max", "input_csv", "figure", "variable", "t_total_us",
)

_DEFAULT_THETA_GRID = tuple(float(x) for x in range(5, 90, 5))
_DEFAULT_C_LIST = (1.0, 2.13, 4.93, 9.96)
_DEFAULT_N_LIST = (4, 8, 16, 32, 64, 128)


def build_config(raw, mode):
    """Validate a raw config mapping into an ExperimentConfig.

    Args:
        raw: Mapping parsed from the YAML config file ({} for defaults).
        mode: Subcommand name; a mode key inside the config must match it.

    Returns:
        ExperimentConfig with defaults applied.

    Raises:
        ConfigError: On unknown keys, type errors, or out-of-range values.
    """
    _require_mapping(raw, "config")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "config")
    if "mode" in raw:
        declared = _as_choice(raw["mode"], MODES + ("reproduce",), "mode")
        if declared != mode:
            raise ConfigError(f"config declares mode {declared!r} but the {mode} command was run")

    angles = _parse_angles(raw.get("angles", {}))
    intrinsic = _parse_intrinsic(raw.get("intrinsic", {}))
    backend = _as_choice(raw.get("backend", "kraus"), BACKENDS, "backend")
    noise = None
    if "noise" in raw:
        if backend != "dilation+noise":
            raise ConfigError("noise parameters require backend dilation+noise")
        noise = _parse_noise(raw["noise"])
    elif backend == "dilation+noise":
        raise ConfigError("backend dilation+noise requires a noise section")

    shots = raw.get("shots")
    if shots is not None:
        shots = _as_int(shots, "shots", lo=1)
    seed = raw.get("seed")
    if seed is not None:
        seed = _as_int(seed, "seed", lo=0, hi=2**64 - 1)
    n_max = raw.get("n_max")
    if n_max is not None:
        n_max = _as_int(n_max, "n_max", lo=0)
    t_total = raw.get("t_total_us")
    if t_total is not None:
        t_total = _as_float(t_total, "t_total_us")
        if t_total <= 0:
            raise ConfigError(f"t_total_us must be positive, got {t_total}")
    figure = raw.get("figure")
    if figure is not None:
        figure = _as_choice(figure, FIGURES, "figure")

    n_list_raw = raw.get("n_list", _DEFAULT_N_LIST)
    if not isinstance(n_list_raw, (list, tuple)) or len(n_list_raw) < 4:
        raise ConfigError("n_list must hold at least four step counts")
    n_list = tuple(_as_int(x, f"n_list[{i}]", lo=1) for i, x in enumerate(n_list_raw))
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")

    theta_grid = _parse_number_list(
        raw.get("theta_grid_deg", _DEFAULT_THETA_GRID), "theta_grid_deg", lo=0.0
    )
    if any(x >= 90.0 for x in theta_grid):
        raise ConfigError("theta_grid_deg entries must be below 90 degrees")

    c_list = _parse_number_list(raw.get("c_list", _DEFAULT_C_LIST), "c_list")
    if any(x <= 0 for x in c_list):
        raise ConfigError("c_list entries must be positive")
    if abs(c_list[0] - 1.0) > 1e-12:
        raise ConfigError(f"c_list must start with the unscaled factor 1, got {c_list[0]}")
    if n_max is not None and raw.get("input_csv") is None and n_max >= len(c_list):
        raise ConfigError(f"n_max={n_max} needs {n_max + 1} c_list entries, got {len(c_list)}")

    return ExperimentConfig(
        mode=mode,
        angles=angles,
        intrinsic=intrinsic,
        n_steps=_as_int(raw.get("n_steps", 13), "n_steps", lo=1, hi=100000),
        order=_as_choice(raw.get("order", 1), (1, 2), "order"),
        permutation=_parse_permutation(raw.get("permutation", list(ALL_LABELS))),
        backend=backend,
        noise=noise,
        initial_state=_as_choice(raw.get("initial_state", "1"), STATE_LABELS, "initial_state"),
        shots=shots,
        seed=seed,
        n_list=n_list,
        theta_grid_deg=theta_grid,
        c_list=c_list,
        n_max=n_max,
        input_csv=None if raw.get("input_csv") is None else str(raw["input_csv"]),
        figure=figure,
        variable=_as_choice(raw.get("variable", "t2"), ("t2", "rate"), "variable"),
        t_total_us=t_total,
    )


def load_config(path, mode):
    """Read and validate a YAML config file; None path means all defaults."""
    if path is None:
        return build_config({}, mode)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return build_config(raw, mode)


# --------------------------------------------------------------- emission


def _fmt(x):
    return repr(float(x))


def _json_num(x):
    x = float(x)
    return None if np.isinf(x) else x


def _write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trace_csv(path, trace):
    worst = float(trace.bloch_norms().max())
    if worst > 1.0 + BLOCH_TOL:
        raise NumericalFailure(
            f"trace {trace.label!r} leaves the Bloch ball: max norm {worst:.12f}"
        )
    lines = [TRACE_HEADER]
    for j, t in enumerate(trace.times):
        lines.append(
            f"{j},{_fmt(t)},{_fmt(trace.sx[j])},{_fmt(trace.sy[j])},{_fmt(trace.sz[j])}"
        )
    path.write_text("\n".join(lines) + "\n")


def _schedule(cfg):
    return TrotterSchedule(
        permutation=cfg.permutation,
        order=cfg.order,
        n_steps=cfg.n_steps,
        dt=cfg.angles.tau0,
        backend=cfg.backend,
        noise=cfg.noise,
    )


def _engine_summary(cfg):
    return {
        "backend": cfg.backend,
        "n_steps": cfg.n_steps,
        "order": cfg.order,
        "permutation": "-".join(cfg.permutation),
        "tau0_us": float(cfg.angles.tau0),
    }


def _rates_summary(rates):
    return {
        "gamma1_per_us": float(rates.gamma1),
        "gamma_phi_per_us": float(rates.gamma_phi),
        "omega_mhz": float(rates.omega),
    }


# ------------------------------------------------------------ mode runners


def _run_evolve(cfg, out):
    rates = effective_rates(cfg.angles, *cfg.intrinsic)
    rho0 = density(INITIAL_STATES[cfg.initial_state])
    trace = target_trace(rates, rho0, cfg.angles.tau0, cfg.n_steps)
    path = out / "evolve.csv"
    _write_trace_csv(path, trace)
    return [path]


def _run_trotter(cfg, out):
    rates = effective_rates(cfg.angles, *cfg.intrinsic)
    rho0 = density(INITIAL_STATES[cfg.initial_state])
    trace = run_schedule(_schedule(cfg), rates, rho0)
    target = target_trace(rates, rho0, cfg.angles.tau0, cfg.n_steps)
    report = accuracy(trace, target)
    csv_path, target_path, json_path = (
        out / "trotter.csv", out / "trotter_target.csv", out / "trotter.json",
    )
    _write_trace_csv(csv_path, trace)
    _write_trace_csv(target_path, target)
    _write_json(json_path, {
        "accuracy": float(report.a),
        "engine": _engine_summary(cfg),
        "initial_state": cfg.initial_state,
        "rates": _rates_summary(rates),
    })
    return [csv_path, target_path, json_path]


def _run_scan(cfg, out):
    rates = effective_rates(cfg.angles, *cfg.intrinsic)
    rho0 = density(INITIAL_STATES[cfg.initial_state])
    scan = permutation_scan(
        rates, n_steps=cfg.n_steps, dt=cfg.angles.tau0, rho0=rho0,
        orders=(1, 2), backend=cfg.backend, noise=cfg.noise,
    )
    results = {"1": {}, "2": {}}
    for (order, perm), report in scan.items():
        results[str(order)]["-".join(perm)] = float(report.a)
    best = {o: min(table, key=lambda k: (table[k], k)) for o, table in results.items()}
    path = out / "scan.json"
    _write_json(path, {
        "best_permutation": best,
        "engine": _engine_summary(cfg),
        "initial_state": cfg.initial_state,
        "rates": _rates_summary(rates),
        "results": results,
    })
    return [path]


def _run_dilate_verify(cfg, out):
    tau0 = cfg.angles.tau0
    distances = {"dephasing": {}, "damping": {}, "rotation": {}}
    for theta_deg in cfg.theta_grid_deg:
        params = AngleParams.from_degrees(theta_deg, theta_deg, theta_deg, tau0)
        rates = angle_to_rates(params)
        key = _fmt(theta_deg)
        distances["dephasing"][key] = channel_distance(
            induced_channel(dephasing_circuit(params.theta1)),
            dephasing_channel(rates.gamma_phi, tau0),
        )
        distances["damping"][key] = channel_distance(
            induced_channel(damping_circuit(params.theta2)),
            damping_channel(rates.gamma1, tau0),
        )
        distances["rotation"][key] = channel_distance(
            induced_channel(rotation_circuit(params.theta3)),
            unitary_channel(expm(-0.5j * params.theta3 * SIGMA_X)),
        )
    max_distance = max(max(d.values()) for d in distances.values())
    passed = max_distance < DISTANCE_TOL
    path = out / "dilate_verify.json"
    _write_json(path, {
        "distances": distances,
        "max_distance": max_distance,
        "pass": passed,
        "tau0_us": float(tau0),
        "theta_grid_deg": list(cfg.theta_grid_deg),
        "tolerance": DISTANCE_TOL,
    })
    if not passed:
        raise NumericalFailure(
            f"dilation check failed: max Choi distance {max_distance:.3e} "
            f"exceeds {DISTANCE_TOL}"
        )
    return [path]


def _run_fit(cfg, out):
    rates = effective_rates(cfg.angles, *cfg.intrinsic)
    schedule = _schedule(cfg)
    curves = generate_tomography(
        rates, cfg.angles.tau0, cfg.n_steps, shots=cfg.shots, seed=cfg.seed,
        evolve=lambda rho0: run_schedule(schedule, rates, rho0),
    )
    fit = global_fit(curves)
    lines = ["step,time_us,state,obs,value"]
    for state in STATE_LABELS:
        for obs in OBS_LABELS:
            values = curves.curve(state, obs)
            for j, t in enumerate(curves.times):
                lines.append(f"{j},{_fmt(t)},{state},{obs},{_fmt(values[j])}")
    curves_path = out / "fit_curves.csv"
    curves_path.write_text("\n".join(lines) + "\n")
    json_path = out / "fit.json"
    _write_json(json_path, {
        "engine": _engine_summary(cfg),
        "fitted": {
            "converged": bool(fit.converged),
            "omega_mhz": float(fit.omega),
            "residual": float(fit.residual),
            "t1_us": float(fit.t1),
            "t2_us": float(fit.t2),
        },
        "predicted": {
            "omega_mhz": float(rates.omega),
            "t1_us": _json_num(rates.t1),
            "t2_us": _json_num(rates.t2),
        },
        "seed": cfg.seed,
        "shots": cfg.shots,
    })
    if not fit.converged:
        raise NumericalFailure("tomography fit did not converge")
    return [curves_path, json_path]


def _run_mitigate(cfg, out):
    payload = {"variable": cfg.variable}
    if cfg.input_csv is not None:
        try:
            points = load_noise_points(cfg.input_csv)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load noise points from {cfg.input_csv}: {exc}") from exc
        if len(points) < 1:
            raise ConfigError(f"no noise points found in {cfg.input_csv}")
        payload["source"] = str(cfg.input_csv)
    else:
        base = replace(effective_rates(cfg.angles, *cfg.intrinsic), omega=0.0)

        def measure(c):
            return scaled_damping_t2(
                base, c, tau0=cfg.angles.tau0, n_steps=cfg.n_steps,
                order=cfg.order, backend=cfg.backend,
                inverse=cfg.variable == "rate",
            )

        values = [measure(c) for c in cfg.c_list]
        points = [NoisePoint(c=c, value=v) for c, v in zip(cfg.c_list, values)]
        payload["source"] = "simulated"
        payload["base_rates"] = _rates_summary(base)
        if base.gamma_phi > 0:
            limit = 1.0 / base.gamma_phi
            payload["zero_damping_limit"] = limit if cfg.variable == "t2" else 1.0 / limit
    n_max = cfg.n_max if cfg.n_max is not None else len(points) - 1
    if n_max >= len(points):
        raise ConfigError(f"n_max={n_max} needs {n_max + 1} points, got {len(points)}")
    results = [extrapolate(points, n) for n in range(n_max + 1)]
    payload["points"] = [
        {"c": float(p.c), "sigma": None if p.sigma is None else float(p.sigma),
         "value": float(p.value)}
        for p in points
    ]
    payload["results"] = [
        {
            "estimate": float(r.estimate),
            "gammas": [float(g) for g in r.gammas],
            "order": r.order,
            "sigma_est": None if r.sigma_est is None else float(r.sigma_est),
        }
        for r in results
    ]
    path = out / "mitigate.json"
    _write_json(path, payload)
    return [path]


def _run_converge(cfg, out):
    rates = effective_rates(cfg.angles, *cfg.intrinsic)
    rho0 = density(INITIAL_STATES[cfg.initial_state])
    t_total = cfg.t_total_us if cfg.t_total_us is not None else cfg.n_steps * cfg.angles.tau0
    result = convergence_order(
        _schedule(cfg), rates, rho0=rho0, n_list=cfg.n_list, t_total=t_total
    )
    path = out / "converge.json"
    _write_json(path, {
        "accuracies": [float(a) for a in result.accuracies],
        "engine": _engine_summary(cfg),
        "initial_state": cfg.initial_state,
        "n_values": [int(n) for n in result.n_values],
        "rates": _rates_summary(rates),
        "saturated": bool(result.saturated),
        "slope": None if result.slope is None else float(result.slope),
        "t_total_us": float(t_total),
    })
    return [path]


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


def _fit_noiseless(params, order=1, n_steps=13):
    rates = angle_to_rates(params)
    schedule = TrotterSchedule(order=order, n_steps=n_steps, dt=params.tau0)
    curves = generate_tomography(
        rates, params.tau0, n_steps,
        evolve=lambda rho0: run_schedule(schedule, rates, rho0),
    )
    return rates, global_fit(curves)


_FIG2_SWEEPS = {
    "theta1": {
        "grid": tuple(float(x) for x in range(5, 45, 5)),
        "fixed": {"theta2_deg": 20.0, "theta3_deg": 51.4},
        "make": lambda a: AngleParams.from_degrees(a, 20.0, 51.4),
    },
    "theta2": {
        "grid": tuple(float(x) for x in range(5, 45, 5)),
        "fixed": {"theta1_deg": 20.0, "theta3_deg": 38.6},
        "make": lambda a: AngleParams.from_degrees(20.0, a, 38.6),
    },
    "theta3": {
        "grid": tuple(float(x) for x in range(10, 80, 10)),
        "fixed": {"theta1_deg": 20.0, "theta2_deg": 20.0},
        "make": lambda a: AngleParams.from_degrees(20.0, 20.0, a),
    },
}


def _reproduce_fig2(out):
    paths = []
    summary = {"n_steps": 13, "order": 1, "sweeps": {}, "tau0_us": 3.56}
    header = "angle_deg,t1_us,t2_us,omega_mhz,t1_pred_us,t2_pred_us,omega_pred_mhz"
    for name, sweep in _FIG2_SWEEPS.items():
        def fit_row(angle_deg, make=sweep["make"]):
            rates, fit = _fit_noiseless(make(angle_deg))
            return (angle_deg, fit.t1, fit.t2, fit.omega, rates.t1, rates.t2, rates.omega)

        rows = [fit_row(angle_deg) for angle_deg in sweep["grid"]]
        lines = [header] + [",".join(_fmt(x) for x in row) for row in rows]
        path = out / f"fig2_{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
        summary["sweeps"][name] = {
            "file": path.name, "fixed_deg": sweep["fixed"], "grid_deg": list(sweep["grid"]),
        }
    json_path = out / "fig2.json"
    _write_json(json_path, summary)
    return paths + [json_path]


def _reproduce_fig3(out):
    base = CanonicalRates(
        gamma1=0.0090, gamma_phi=angle_to_rates(AngleParams.from_degrees(20, 0, 0)).gamma_phi,
        omega=0.0,
    )
    c_list = _DEFAULT_C_LIST
    values = [scaled_damping_t2(base, c) for c in c_list]
    points_path = out / "fig3_points.csv"
    points_path.write_text(
        "\n".join(["c,t2star_us"] + [f"{_fmt(c)},{_fmt(v)}" for c, v in zip(c_list, values)])
        + "\n"
    )
    points = [NoisePoint(c=c, value=v) for c, v in zip(c_list, values)]
    truth = 1.0 / base.gamma_phi
    results = [extrapolate(points, n) for n in range(len(points))]
    json_path = out / "fig3.json"
    _write_json(json_path, {
        "base_rates": _rates_summary(base),
        "c_list": list(c_list),
        "extrapolations": [
            {
                "estimate": float(r.estimate),
                "order": r.order,
                "relative_error": float((r.estimate - truth) / truth),
            }
            for r in results
        ],
        "n_steps": 13,
        "order": 1,
        "tau0_us": 3.56,
        "theta1_deg": 20.0,
        "zero_damping_dephasing_time_us": truth,
    })
    return [points_path, json_path]


def _reproduce_fig4(out):
    theta2_grid = tuple(float(x) for x in range(5, 75, 5))

    def scan_at(theta2_deg):
        params = AngleParams.from_degrees(20.0, theta2_deg, 25.7)
        rates = angle_to_rates(params)
        scan = permutation_scan(rates, n_steps=13, dt=params.tau0)
        return [
            (order, "-".join(perm), theta2_deg, report.a)
            for (order, perm), report in scan.items()
        ]

    tables = [scan_at(theta2_deg) for theta2_deg in theta2_grid]
    rows = sorted(
        (row for table in tables for row in table), key=lambda r: (r[0], r[1], r[2])
    )
    csv_path = out / "fig4_accuracy.csv"
    lines = ["order,permutation,theta2_deg,accuracy"]
    for order, perm, theta2_deg, acc in rows:
        lines.append(f"{order},{perm},{_fmt(theta2_deg)},{_fmt(acc)}")
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out / "fig4.json"
    _write_json(json_path, {
        "n_steps": 13,
        "tau0_us": 3.56,
        "theta1_deg": 20.0,
        "theta2_grid_deg": list(theta2_grid),
        "theta3_deg": 25.7,
    })
    return [csv_path, json_path]


_REPRODUCERS = {
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
}


# --------------------------------------------------------------- CLI shell


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
        prog="trottersim",
        description="Trotterized open-qubit-system simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in MODES + ("reproduce",):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (overrides config)")
        p.add_argument(
            "--workers", type=int, default=None,
            help=f"validated and ignored; runs are serial (default ${WORKERS_ENV} or 1)",
        )
        if name == "reproduce":
            p.add_argument("--figure", choices=FIGURES, default=None)
    return parser


def _resolve_workers(flag_value):
    if flag_value is None:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            return 1
        try:
            flag_value = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if flag_value < 1:
        raise ConfigError(f"workers must be >= 1, got {flag_value}")
    return flag_value


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_workers(args.workers)  # validated, then ignored: runs are serial
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            seed = _as_int(args.seed, "--seed", lo=0, hi=2**64 - 1)
            cfg = replace(cfg, seed=seed)
        if args.command == "reproduce":
            figure = args.figure if args.figure is not None else cfg.figure
            if figure is None:
                raise ConfigError("reproduce needs --figure or a figure config key")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "reproduce":
            paths = _REPRODUCERS[figure](out)
        else:
            paths = RUNNERS[args.command](cfg, out)
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
