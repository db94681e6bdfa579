"""Tests for the command-line harness: configs, artifacts, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuits import circuit_ptm
from reference import choi_distance, damping_kraus, dephasing_kraus, kraus_superop, rx, superop_of
import trottersim
import trottersim.cli as cli
from trottersim.cli import CONFIG_TABLE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from trottersim.dilation import angle_to_rates
from trottersim.liouvillian import EvolutionTrace, target_trace
from trottersim.mitigation import check_scale_factors
from trottersim.tomography import global_fit
from trottersim.trotter import ALL_PERMUTATIONS, AccuracyReport, run_schedule

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------ evolve


def test_evolve_zero_rates_constant_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "mode: evolve\n"
        "angles: {theta1_deg: 0.0, theta2_deg: 0.0, theta3_deg: 0.0}\n"
        "n_steps: 6\n",
    )
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rows = read_rows(tmp_path / "evolve.csv")
    assert rows[0] == ["step", "time_us", "sx", "sy", "sz"]
    assert len(rows) == 8
    assert all(r[2:] == ["0.0", "0.0", "-1.0"] for r in rows[1:])
    assert "wrote" in capsys.readouterr().out


def test_evolve_trace_header_exact(tmp_path):
    main(["evolve", "--out", str(tmp_path)])
    first_line = (tmp_path / "evolve.csv").read_text().splitlines()[0]
    assert first_line == "step,time_us,sx,sy,sz"


def test_evolve_bloch_norms_bounded(tmp_path):
    cfg = write_config(tmp_path, "angles: {theta1_deg: 35.0, theta2_deg: 35.0}\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rows = read_rows(tmp_path / "evolve.csv")[1:]
    for row in rows:
        sx, sy, sz = map(float, row[2:])
        assert sx * sx + sy * sy + sz * sz <= 1 + 1e-8


def test_evolve_rejects_a_trace_outside_the_bloch_ball(tmp_path, monkeypatch, capsys):
    # One sample with Bloch norm 1 + 1e-9: past the 1e-10 row check, so no evolve.csv.
    def outside(rates, rho0, tau0, n_steps):
        trace = target_trace(rates, rho0, tau0, n_steps)
        rows = trace.rows.copy()
        rows[3, 1:] *= (1 + 1e-9) / np.linalg.norm(rows[3, 1:])
        return EvolutionTrace(trace.dt, rows, label=trace.label)

    monkeypatch.setattr(cli, "target_trace", outside)
    assert main(["evolve", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "trace 'target' step 3 has negative eigenvalue" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_evolve_checks_the_trace_rows_as_stored(tmp_path, monkeypatch, capsys):
    # The writer checks the rows' own Tr rho column: 1 + 2e-10 at step 3 fails the trace
    # check, though <sx>, <sy> and <sz> are untouched.
    def leaky(rates, rho0, tau0, n_steps):
        trace = target_trace(rates, rho0, tau0, n_steps)
        rows = trace.rows.copy()
        rows[3, 0] = 1 + 2e-10
        return EvolutionTrace(trace.dt, rows, label=trace.label)

    monkeypatch.setattr(cli, "target_trace", leaky)
    assert main(["evolve", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "trace 'target' step 3 trace deviates from 1 by 2.000e-10" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_evolve_with_a_time_whose_square_overflows_exits_with_a_message(tmp_path, capsys):
    # 13 steps of tau0 = 1e200 us end past 1.34e154, where t^2 overflows: the schedule rejects
    # its grid while the config is built, a configuration error and not an OverflowError.
    cfg = write_config(tmp_path, "angles: {tau0_us: 1.0e+200}\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: n_steps * angles.tau0_us must be below 1.34e154, got 13 * 1e+200")
    assert not (tmp_path / "evolve.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["trotter", "fit", "converge"])
def test_a_grid_whose_last_time_overflows_exits_1_without_warnings(tmp_path, capsys, command):
    # 13 * 1e308 is inf: no overflow warning on the way, and one error line naming the config's
    # keys rather than the times grid it never builds, or converge's unset t_total_us.
    cfg = write_config(tmp_path, "angles: {tau0_us: 1.0e+308}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: n_steps * angles.tau0_us must be below 1.34e154, got 13 * 1e+308"]
    assert list(tmp_path.iterdir()) == [cfg]


# ----------------------------------------------------------------- trotter


def test_trotter_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        "angles: {theta1_deg: 20.0, theta2_deg: 30.0, theta3_deg: 25.7}\norder: 2\n",
    )
    assert main(["trotter", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "trotter.json").read_text())
    assert 0 < summary["accuracy"] < 0.05
    assert summary["engine"]["order"] == 2
    assert len(read_rows(tmp_path / "trotter.csv")) == 15
    assert len(read_rows(tmp_path / "trotter_target.csv")) == 15


# -------------------------------------------------------------------- scan


def test_scan_orders_separate(tmp_path):
    cfg = write_config(
        tmp_path,
        "angles: {theta1_deg: 20.0, theta2_deg: 30.0, theta3_deg: 25.7}\n",
    )
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "scan.json").read_text())
    first, second = summary["results"]["1"], summary["results"]["2"]
    assert len(first) == len(second) == 6
    assert max(second.values()) < min(first.values())
    assert summary["best_permutation"]["2"] in second


@pytest.mark.parametrize("toward", [np.inf, -np.inf], ids=["ulp-above", "ulp-below"])
def test_scan_best_permutation_does_not_flip_on_round_off(tmp_path, monkeypatch, toward):
    # Permutations that differ by the order of the commuting dephasing and damping channels
    # tie up to round-off. With the later-named twin one ulp above or below the other, and
    # both below every other permutation, the name-first twin is best at either order.
    first, later = ("rotation", "damping", "dephasing"), ("rotation", "dephasing", "damping")
    low = 0.0123456789
    table = {perm: 1.0 + k for k, perm in enumerate(ALL_PERMUTATIONS)}
    table.update({first: low, later: np.nextafter(low, toward)})
    scan = {(order, perm): AccuracyReport(a, [a]) for order in (1, 2) for perm, a in table.items()}
    monkeypatch.setattr(cli, "permutation_scan", lambda *args, **kwargs: scan)
    assert main(["scan", "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "scan.json").read_text())
    assert summary["best_permutation"] == {"1": "-".join(first), "2": "-".join(first)}
    assert summary["results"]["2"]["-".join(later)] != low


def test_scan_engine_echoes_only_the_settings_scan_reads(tmp_path):
    # scan runs every permutation at both orders, so its engine block names neither; trotter,
    # which runs one, keeps both.
    for mode, keys in (("scan", {"backend", "n_steps", "tau0_us"}),
                       ("trotter", {"backend", "n_steps", "order", "permutation", "tau0_us"})):
        assert main([mode, "--out", str(tmp_path)]) == EXIT_OK
        assert set(json.loads((tmp_path / f"{mode}.json").read_text())["engine"]) == keys


# ----------------------------------------------------------- dilate-verify


def test_dilate_verify_passes(tmp_path):
    assert main(["dilate-verify", "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "dilate_verify.json").read_text())
    assert report["pass"] is True
    assert report["max_distance"] < 1e-10
    assert set(report["distances"]) == {"dephasing", "damping", "rotation"}
    assert len(report["distances"]["dephasing"]) == 17


def test_dilate_verify_failure_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "DISTANCE_TOL", 1e-30)
    assert main(["dilate-verify", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "dilate_verify.json").read_text())
    assert report["pass"] is False


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_dilate_verify_fails_on_a_nan_distance(tmp_path, monkeypatch, capsys):
    # The fourth norm taken is the dephasing distance at 10 degrees, a NaN after
    # the finite one at 5 degrees: Python's max would skip it and pass.
    norm, calls = np.linalg.norm, []

    def nan_fourth(*args, **kwargs):
        calls.append(None)
        return np.nan if len(calls) == 4 else norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", nan_fourth)
    assert main(["dilate-verify", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    # Strict JSON: a NaN distance is written as null, never as a bare NaN token.
    report = json.loads((tmp_path / "dilate_verify.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["distances"]["dephasing"]["10.0"] is None
    assert report["pass"] is False and report["max_distance"] is None


def test_dilate_verify_checks_the_angles_the_dilation_backend_runs(tmp_path, monkeypatch):
    # A relative 1e-6 error in the damping angle that the dilation backend builds its circuit
    # at must fail the check.
    to_angles = trottersim.dilation._angles

    def skewed(rates, tau0):
        theta1, theta2, theta3 = to_angles(rates, tau0)
        return theta1, theta2 * (1 + 1e-6), theta3

    monkeypatch.setattr(trottersim.dilation, "_angles", skewed)
    assert main(["dilate-verify", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert json.loads((tmp_path / "dilate_verify.json").read_text())["pass"] is False


@settings(max_examples=200, deadline=None, derandomize=True)
@example(theta_deg=0.0, tau0=0.01)
@example(theta_deg=89.999, tau0=100.0)
@given(theta_deg=st.floats(0, 90, exclude_max=True), tau0=st.floats(0.01, 100))
def test_dilate_verify_distances_are_choi_distances_to_the_kraus_channels(theta_deg, tau0):
    # Each distance in dilate_verify.json is the Choi distance between the circuit
    # induced at the grid angle and the Kraus channel at the angle's rates. A grid angle that
    # angle_to_rates rejects is a config error, named before the run.
    raw = {"theta_grid_deg": [theta_deg], "angles": {"tau0_us": tau0}}
    theta = np.radians(theta_deg)
    try:
        rates = angle_to_rates(theta, theta, theta, tau0)
    except ValueError:  # no finite rate reproduces a step this close to 90 degrees
        with pytest.raises(cli.ConfigError, match=r"^theta_grid_deg\[0\] = "):
            cli.build_config(raw, "dilate-verify")
        return
    _, report = next(cli._run_dilate_verify(cli.build_config(raw, "dilate-verify")))
    oracles = {
        "dephasing": dephasing_kraus(rates.gamma_phi, tau0),
        "damping": damping_kraus(rates.gamma1, tau0),
        "rotation": rx(theta)[None],
    }
    for label, kraus in oracles.items():
        choi = choi_distance(superop_of(circuit_ptm(label, theta)), kraus_superop(kraus))
        assert abs(report["distances"][label][repr(theta_deg)] - choi) <= 1e-15


# --------------------------------------------------------------------- fit


def test_fit_recovers_predictions(tmp_path):
    cfg = write_config(tmp_path, "order: 2\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "fit.json").read_text())
    assert summary["fitted"]["converged"] is True
    for key in ("t1_us", "t2_us", "omega_mhz"):
        fitted, predicted = summary["fitted"][key], summary["predicted"][key]
        assert abs(fitted - predicted) < 0.10 * predicted
    # 51.4 deg per step is inside the band: the folded drive is the configured one.
    assert summary["predicted"]["omega_folded_mhz"] == summary["predicted"]["omega_mhz"]
    rows = read_rows(tmp_path / "fit_curves.csv")
    assert rows[0] == ["step", "time_us", "state", "obs", "value"]
    assert len(rows) == 1 + 12 * 14


def test_fit_of_an_aliased_drive_recovers_the_folded_rotation(tmp_path):
    # theta3 = 270 deg turns the drive by 3/4 of a cycle per sample, which the
    # samples cannot tell from a quarter turn the other way: omega folds to
    # (270 - 360) / (360 tau0). T1 and T2 carry the first-order Trotter error.
    cfg = write_config(tmp_path, "angles: {theta3_deg: 270}\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "fit.json").read_text())
    fitted, predicted = summary["fitted"], summary["predicted"]
    folded = -90.0 / (360 * 3.56)
    assert fitted["converged"] is True
    assert fitted["omega_mhz"] == pytest.approx(folded, rel=0.01)
    assert predicted["omega_mhz"] == pytest.approx(folded + 1 / 3.56, rel=1e-12)
    assert predicted["omega_folded_mhz"] == pytest.approx(folded, abs=1e-12)
    for key in ("t1_us", "t2_us"):
        assert fitted[key] == pytest.approx(predicted[key], rel=0.15)


_FLOOR_WITNESS = ("angles: {theta1_deg: 48.37255180111569, theta2_deg: 14.841168224909438, "
                  "theta3_deg: 169.87152881491664}\norder: 2\n")


@pytest.mark.parametrize("config, at_bound", [(None, []), (_FLOOR_WITNESS, ["gamma1"])],
                         ids=["default", "t1-floor"])
def test_fit_json_names_the_rates_on_a_face_of_the_box(tmp_path, config, at_bound):
    # The second config's fit pins 1/T1 to its floor: its t1_us of 1e6 is a bound.
    args = ["fit", "--out", str(tmp_path)]
    if config is not None:
        args += ["--config", str(write_config(tmp_path, config))]
    main(args)
    fitted = json.loads((tmp_path / "fit.json").read_text())["fitted"]
    assert fitted["at_bound"] == at_bound
    assert (fitted["t1_us"] == 1e6) == ("gamma1" in at_bound)


@pytest.mark.parametrize("config, missing", [(None, set()), (_FLOOR_WITNESS, {"t1_us", "t2_us"})],
                         ids=["default", "t1-floor"])
def test_fit_json_carries_standard_errors(tmp_path, config, missing):
    # A time that depends on a rate on a face of the box has no standard error (null).
    args = ["fit", "--out", str(tmp_path)]
    if config is not None:
        args += ["--config", str(write_config(tmp_path, config))]
    main(args)
    stderr = json.loads((tmp_path / "fit.json").read_text())["fitted"]["stderr"]
    assert set(stderr) == {"omega_mhz", "t1_us", "t2_us"}
    assert {key for key, se in stderr.items() if se is None} == missing
    assert all(se > 0 for se in stderr.values() if se is not None)
    readme = README.read_text()
    assert "`fitted.stderr`" in readme and all(f"`{key}`" in readme for key in stderr)


def test_fit_determinism_and_seed_override(tmp_path):
    cfg = write_config(tmp_path, "shots: 300\nseed: 7\n")
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert main(["fit", "--config", str(cfg), "--out", str(outs[0])]) == EXIT_OK
    assert main(["fit", "--config", str(cfg), "--out", str(outs[1])]) == EXIT_OK
    assert main(
        ["fit", "--config", str(cfg), "--out", str(outs[2]), "--seed", "8"]
    ) == EXIT_OK
    for name in ("fit.json", "fit_curves.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert (outs[0] / "fit_curves.csv").read_bytes() != (
        outs[2] / "fit_curves.csv"
    ).read_bytes()
    assert json.loads((outs[2] / "fit.json").read_text())["seed"] == 8


def test_fit_with_shots_and_no_seed_exits_1_and_names_the_seed(tmp_path, capsys):
    # Without a seed the sampler would draw fresh entropy, and fit.json would differ per run.
    cfg = write_config(tmp_path, "shots: 1000\n")
    out = tmp_path / "out"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: shots needs a seed, from the config key seed or --seed\n")
    assert not out.exists()
    assert main(["fit", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == EXIT_OK


def test_fit_without_convergence_keeps_its_artifacts_and_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "global_fit",
                        lambda curves: replace(global_fit(curves), converged=False))
    assert main(["fit", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: tomography fit did not converge" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.json", "fit_curves.csv"]
    assert json.loads((tmp_path / "fit.json").read_text())["fitted"]["converged"] is False


# ---------------------------------------------------------------- mitigate


def test_mitigate_from_csv(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(
        "c,value,sigma\n1,35.56,0.5\n2.13,29.63,0.5\n4.93,22.00,0.5\n9.96,14.15,0.5\n"
    )
    cfg = write_config(tmp_path, f"input_csv: {table}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "mitigate.json").read_text())
    estimates = [r["estimate"] for r in summary["results"]]
    np.testing.assert_allclose(
        estimates, [35.56, 40.8077876, 42.1751000, 42.7531478], rtol=1e-6
    )
    assert summary["results"][0]["sigma_est"] == 0.5
    assert summary["source"] == str(table)


def test_mitigate_input_csv_skips_a_header_and_blank_lines(tmp_path):
    # A non-numeric first row is a header, a blank line is skipped and an empty sigma is unset.
    table = tmp_path / "table.csv"
    table.write_text("c,value,sigma\n1,35.56,0.5\n2.13,29.63,\n\n4.93,22.00,0.3\n")
    cfg = write_config(tmp_path, f"input_csv: {table}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "mitigate.json").read_text())
    assert summary["points"] == [{"c": 1.0, "sigma": 0.5, "value": 35.56},
                                 {"c": 2.13, "sigma": None, "value": 29.63},
                                 {"c": 4.93, "sigma": 0.3, "value": 22.0}]
    assert summary["results"][1]["estimate"] == pytest.approx(40.8078, abs=1e-3)


def test_mitigate_input_csv_rejects_a_negative_sigma(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("c,value,sigma\n1,35.56,0.5\n2.13,29.63,-0.5\n")
    cfg = write_config(tmp_path, f"input_csv: {table}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: cannot load noise points from {table}: sigma "
                                       "must be nonnegative, got -0.5\n")
    assert not (tmp_path / "mitigate.json").exists()


@pytest.mark.filterwarnings("error")
def test_mitigate_records_the_condition_of_a_far_factor_without_a_warning(tmp_path, capsys):
    # c = 1e154 passes the scale-factor rule, and order 1's system has condition number about
    # 1e154: mitigate.json records it, and nothing warns (a warning is an error under -W error).
    cfg = write_config(tmp_path, "c_list: [1, 1.0e+154]\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    results = json.loads((tmp_path / "mitigate.json").read_text())["results"]
    assert [r["condition"] for r in results] == [1.0, pytest.approx(1e154, rel=1e-12)]


def test_mitigate_input_csv_headerless_and_short_row(tmp_path, capsys):
    bare = tmp_path / "bare.csv"
    bare.write_text("1,10\n2,8\n")
    cfg = write_config(tmp_path, f"input_csv: {bare}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "mitigate.json").read_text())
    assert [(p["c"], p["value"]) for p in summary["points"]] == [(1.0, 10.0), (2.0, 8.0)]
    bad = tmp_path / "bad.csv"
    bad.write_text("1\n")
    cfg = write_config(tmp_path, f"input_csv: {bad}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: cannot load noise points from {bad}: row 0: need "
                                       "at least c and value\n")


def test_mitigate_rate_variable(tmp_path):
    # Each point is 1/T2* of the same study run for t2. The undriven dephasing
    # and damping channels commute, so 1/T2* is linear in c and every order >= 1
    # lands on the zero-damping rate.
    summaries = {}
    for variable in ("t2", "rate"):
        cfg = write_config(tmp_path, f"variable: {variable}\n", name=f"{variable}.yaml")
        out = tmp_path / variable
        assert main(["mitigate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summaries[variable] = json.loads((out / "mitigate.json").read_text())
    t2, rate = summaries["t2"], summaries["rate"]
    assert [p["value"] for p in rate["points"]] == [1.0 / p["value"] for p in t2["points"]]
    assert len(rate["results"]) == 4
    for result in rate["results"][1:]:
        assert result["estimate"] == pytest.approx(rate["zero_damping_limit"], rel=1e-12, abs=0)


def test_mitigate_simulated_study(tmp_path):
    cfg = write_config(
        tmp_path,
        "angles: {theta1_deg: 20.0, theta2_deg: 10.0}\nc_list: [1.0, 2.13]\n",
    )
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "mitigate.json").read_text())
    limit = summary["zero_damping_limit"]
    raw, first = summary["results"][0]["estimate"], summary["results"][1]["estimate"]
    assert abs(first - limit) < abs(raw - limit)
    assert len(summary["points"]) == 2


def test_mitigate_simulates_the_configured_schedule(tmp_path, monkeypatch):
    # Each scale factor c steps the four tomography states through the configured schedule at
    # the undriven base rates with the damping scaled by c.
    text = ("c_list: [1.0, 2.0]\norder: 2\nn_steps: 7\nbackend: dilation\n"
            "permutation: [rotation, damping, dephasing]\n")
    seen = []

    def recorded(schedule, rates, rho0):
        seen.append((schedule, rates))
        return run_schedule(schedule, rates, rho0)

    monkeypatch.setattr(cli, "run_schedule", recorded)
    cfg = write_config(tmp_path, text)
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    built = cli.build_config(yaml.safe_load(text), "mitigate")
    base = replace(built.rates, omega=0.0)
    assert seen == [(built.schedule, replace(base, gamma1=c * base.gamma1))
                    for c in (1.0, 2.0) for _ in range(4)]


@pytest.mark.parametrize("argv", [["mitigate"], ["reproduce", "--figure", "fig3"]],
                         ids=["mitigate", "fig3"])
def test_mitigate_point_that_does_not_converge_exits_2(argv, tmp_path, monkeypatch, capsys):
    # A mitigate point is a fit: a scale factor whose fit did not converge makes mitigate exit 2,
    # and fig3 with it, before mitigate.json or any fig3 file is written.
    monkeypatch.setattr(cli, "global_fit",
                        lambda curves: replace(global_fit(curves), converged=False))
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", "numerical failure: tomography fit did not converge\n")
    assert list(tmp_path.iterdir()) == []


def test_simulated_mitigate_runs_the_scale_factor_rule_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return check_scale_factors(*args)

    monkeypatch.setattr(cli, "check_scale_factors", counted)
    cfg = write_config(tmp_path, "c_list: [1.0, 2.0, 3.0]\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert calls == [((1.0, 2.0, 3.0), "c_list")]
    results = json.loads((tmp_path / "mitigate.json").read_text())["results"]
    assert [r["order"] for r in results] == [0, 1, 2]  # every order the three factors allow


# ---------------------------------------------------------------- converge


def test_converge_second_order_slope(tmp_path):
    cfg = write_config(
        tmp_path,
        "order: 2\n"
        "angles: {theta1_deg: 20.0, theta2_deg: 30.0, theta3_deg: 25.7}\n"
        "n_list: [4, 8, 16, 32]\n",
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "converge.json").read_text())
    assert summary["slope"] == pytest.approx(-2.0, abs=0.3)
    assert summary["saturated"] is False
    assert summary["n_values"] == [4, 8, 16, 32]


# --------------------------------------------------------------- reproduce


def test_reproduce_fig3(tmp_path):
    assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == EXIT_OK
    rows = read_rows(tmp_path / "fig3_points.csv")
    assert rows[0] == ["c", "t2star_us"]
    assert len(rows) == 5
    summary = json.loads((tmp_path / "fig3.json").read_text())
    order1 = summary["extrapolations"][1]
    assert abs(order1["relative_error"]) < 0.15


def test_fig3_config_pins_the_paper_base_rates(tmp_path):
    # fig3 runs the mitigate config cli._FIG3_CONFIG undriven; the base rates that its
    # scaled points measure must stay exactly the paper's: gamma1 = 0.0090/us, dephasing of
    # theta1 = 20 deg, no drive.
    assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "fig3.json").read_text())["base_rates"] == {
        "gamma1_per_us": 0.0090,
        "gamma_phi_per_us": angle_to_rates(np.radians(20), 0.0, 0.0, 3.56).gamma_phi,
        "omega_mhz": 0.0,
    }


def test_reproduce_fig4(tmp_path):
    assert main(["reproduce", "--figure", "fig4", "--out", str(tmp_path)]) == EXIT_OK
    rows = read_rows(tmp_path / "fig4_accuracy.csv")
    assert rows[0] == ["order", "permutation", "theta2_deg", "accuracy"]
    assert len(rows) == 1 + 2 * 6 * 14
    by_order = {"1": [], "2": []}
    for order, _perm, theta2, acc in rows[1:]:
        if float(theta2) == 30.0:
            by_order[order].append(float(acc))
    assert max(by_order["2"]) < min(by_order["1"])


def test_reproduce_fig2(tmp_path):
    assert main(["reproduce", "--figure", "fig2", "--out", str(tmp_path)]) == EXIT_OK
    for sweep, n_points in (("theta1", 8), ("theta2", 8), ("theta3", 7)):
        rows = read_rows(tmp_path / f"fig2_{sweep}.csv")
        assert rows[0][0] == "angle_deg"
        assert len(rows) == 1 + n_points
    summary = json.loads((tmp_path / "fig2.json").read_text())
    assert summary["sweeps"]["theta1"]["fixed_deg"] == {
        "theta2_deg": 20.0, "theta3_deg": 51.4,
    }


def test_fig2_point_that_does_not_converge_exits_2(tmp_path, monkeypatch, capsys):
    # A figure point fails as its mode does: fit exits 2 on a fit that did not converge, so
    # fig2 does too, before any of its tables is written.
    monkeypatch.setattr(cli, "global_fit",
                        lambda curves: replace(global_fit(curves), converged=False))
    assert main(["reproduce", "--figure", "fig2", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", "numerical failure: tomography fit did not converge\n")
    assert list(tmp_path.glob("fig2*")) == []


def test_reproduce_without_figure_fails(tmp_path, capsys):
    assert main(["reproduce", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "figure" in capsys.readouterr().err


def test_reproduce_rejects_config_and_accepts_seed(tmp_path, capsys):
    # Each figure builds its own configs, so a config file is a usage error,
    # not a file read and then ignored.
    cfg, out = write_config(tmp_path, "n_steps: 5\norder: 2\n"), tmp_path / "out"
    argv = ["reproduce", "--figure", "fig4", "--out", str(out)]
    assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--seed", "7"]) == EXIT_OK


# ------------------------------------------------------------- bad configs

# A value other than its default for each leaf key of CONFIG_TABLE.  A subcommand that reads
# a noise key also gets the backend that takes noise, and one that reads shots a seed.
_LEAF_VALUES = {
    "angles.theta1_deg": 30.0, "angles.theta2_deg": 30.0, "angles.theta3_deg": 25.7,
    "angles.tau0_us": 2.0, "intrinsic.t1_us": 100.0, "intrinsic.t2_us": 100.0, "n_steps": 7,
    "order": 2, "permutation": ["rotation", "damping", "dephasing"], "backend": "dilation",
    "noise.p_grape": 0.01, "noise.p_ancilla_decay": 0.01, "initial_state": "0", "shots": 100,
    "seed": 1, "n_list": [4, 8, 16, 32], "theta_grid_deg": [10.0, 20.0], "c_list": [1.0, 2.0],
    "input_csv": "points.csv", "variable": "rate", "t_total_us": 20.0,
}
_COMPANIONS = {"noise": {"backend": "dilation+noise"}, "shots": {"seed": 1}}


def _leaf_modes():
    """Each leaf key of CONFIG_TABLE, dotted inside a section -> (its section's modes, its own)."""
    leaves = {}
    for key, (_, coerce, modes) in CONFIG_TABLE.items():
        if isinstance(coerce, dict):
            leaves.update({f"{key}.{sub}": (modes, row[2]) for sub, row in coerce.items()})
        else:
            leaves[key] = (modes, modes)
    return leaves


def test_each_key_is_accepted_exactly_by_the_modes_that_read_it(tmp_path, capsys):
    # Every (mode, leaf key) pair through main: a key its mode does not read exits 1 with one
    # line naming the key (or its unread section) and the mode; a key it reads, set off its
    # default, changes at least one artifact byte.  The one exception is mitigate's
    # permutation: mitigate runs undriven, and the dephasing and damping channels commute.
    leaves = _leaf_modes()
    assert set(leaves) == set(_LEAF_VALUES) and len(leaves) == 21
    for key, (_, coerce, modes) in CONFIG_TABLE.items():
        assert set(modes) <= set(cli.RUNNERS), key
        if isinstance(coerce, dict):  # a section is read where any of its keys is
            assert set(modes) == {m for _, _, sub_modes in coerce.values() for m in sub_modes}
    table = tmp_path / _LEAF_VALUES["input_csv"]
    table.write_text("c,value\n1,35.56\n2.13,29.63\n")
    values = {**_LEAF_VALUES, "input_csv": str(table)}

    def run(mode, raw, out):
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        code = main([mode, "--config", str(cfg), "--out", str(out)])
        artifacts = {p.name: p.read_bytes() for p in out.glob("*")}
        return code, capsys.readouterr(), artifacts

    read = 0
    for mode in cli.RUNNERS:
        code, _, default = run(mode, {}, tmp_path / mode)
        assert code == EXIT_OK and default, mode
        for i, (key, (section_modes, modes)) in enumerate(leaves.items()):
            section, _, sub = key.partition(".")
            raw = {section: {sub: values[key]}} if sub else {key: values[key]}
            out = tmp_path / f"{mode}-{i}"
            if mode not in modes:
                code, io_, artifacts = run(mode, raw, out)
                named, by = (key, modes) if mode in section_modes else (section, section_modes)
                assert code == EXIT_CONFIG and not artifacts and io_.out == "", (mode, key)
                assert io_.err == f"error: {named} is not read by {mode}, only by {', '.join(by)}\n"
                continue
            read += 1
            code, io_, artifacts = run(mode, {**_COMPANIONS.get(section, {}), **raw}, out)
            assert code == EXIT_OK, (mode, key, io_.err)
            assert (artifacts == default) == ((mode, key) == ("mitigate", "permutation")), (
                mode, key)
    assert read == 75 and len(leaves) * len(cli.RUNNERS) == 147


# Each bad config -> a subcommand that reads its keys, and a fragment of the message of the
# check that rejects it.
_HUGE = "1" + "0" * 400  # a YAML integer that no float holds
_INVALID = {
    "banana: 1\n": ("evolve", "unknown config keys: banana"),
    "angles: {theta1_deg: 20.0, theta9_deg: 1.0}\n": ("evolve", "unknown angles keys: theta9_deg"),
    "angles: {theta1_deg: 95.0}\n": ("evolve", "angles {'theta1_deg': 95.0}: theta1 must lie in"),
    "angles: {tau0_us: -1.0}\n": ("dilate-verify", "tau0 must be positive and finite"),
    "backend: quantum\n": ("scan", "backend must be one of"),
    "order: 3\n": ("trotter", "order must be 1 or 2, got 3"),
    "permutation: [dephasing, damping]\n": ("trotter", "permutation must contain each of"),
    "permutation: [dephasing, dephasing, rotation]\n": ("fit", "permutation must contain each"),
    "noise: {p_grape: 0.01}\n": ("trotter", "backend 'kraus' does not accept noise parameters"),
    "backend: dilation+noise\n": ("scan", "backend 'dilation+noise' requires noise parameters"),
    "shots: 0\n": ("fit", "shots must be >= 1, got 0"),
    "seed: -1\n": ("fit", "seed must be >= 0, got -1"),
    "n_list: [4, 8]\n": ("converge", "n_list must be a list of at least 4 entries"),
    "n_list: [8, 4, 16, 32]\n": ("converge", "n_list must be strictly increasing"),
    "n_list: [4, 8, 16, 100001]\n": ("converge", "n_list[3] must be <= 100000, got 100001"),
    "c_list: [2.0, 4.0]\n": ("mitigate", "c_list must start with the unscaled factor 1"),
    "intrinsic: {t1_us: 10.0, t2_us: 50.0}\n": ("evolve", "t2_intrinsic=50.0 exceeds 2*t1"),
    "intrinsic: {t1_us: -3.0}\n": ("mitigate", "intrinsic {'t1_us': -3.0}: t1_intrinsic must be"),
    "mode: scan\n": ("evolve", "mode must be one of evolve, got 'scan'"),
    "variable: sideways\n": ("mitigate", "variable must be one of t2, rate, got 'sideways'"),
    "theta_grid_deg: [5.0, 92.0]\n": ("dilate-verify", "theta_grid_deg[1] = 92.0: theta1 must"),
    # mitigate simulates undriven and noiseless: it reads no noise section.
    # mitigate simulates noiseless: dilation+noise is rejected with or without a noise section.
    "mode: mitigate\nbackend: dilation+noise\nnoise: {p_grape: 0.01}\n": (
        "mitigate", "backend 'dilation+noise' needs noise, which mitigate does not read"),
    "mode: mitigate\nbackend: dilation+noise\n": (
        "mitigate", "backend 'dilation+noise' needs noise, which mitigate does not read"),
    # The scale factors set the extrapolation orders: n_max is not a key.
    "mode: mitigate\nn_max: 4\n": ("mitigate", "unknown config keys: n_max"),
    # YAML integers beyond the largest float, through _real, _time and a list entry.
    f"angles: {{tau0_us: {_HUGE}}}\n": ("evolve", "angles.tau0_us must lie in the float range"),
    f"intrinsic: {{t1_us: {_HUGE}}}\n": ("fit", "intrinsic.t1_us must lie in the float range"),
    f"c_list: [1.0, 2.0, {_HUGE}, 8.0]\n": ("mitigate", "c_list[2] must lie in the float range"),
    # A value that is not a number, a non-finite grid angle and a key that is not a string are
    # named as written; a drive angle past a full turn is out of range.
    "angles: {theta1_deg: abc}\n": ("evolve", "angles.theta1_deg must be a number, got 'abc'"),
    "theta_grid_deg: [5.0, .inf]\n": ("dilate-verify", "theta_grid_deg[1] must be finite, got inf"),
    "1: 2\n": ("evolve", "config keys must be strings, got 1"),
    "angles: {theta3_deg: 400}\n": ("evolve", "angles.theta3_deg must lie in [0, 360], got 400.0"),
    # angle_to_rates checks the angles, tau0 and the intrinsic times once, each error naming its
    # argument under the section as written: the logarithm's pole at 90 degrees, a negative or
    # NaN angle, a zero tau0, an intrinsic time whose inverse overflows, and a grid entry within
    # the pole's guard, which dilate-verify's runner would reject after the run started.
    "angles: {theta1_deg: 90}\n": ("evolve", "angles {'theta1_deg': 90}: theta1 must lie in [0, "),
    "angles: {theta2_deg: 90}\n": ("evolve", "angles {'theta2_deg': 90}: theta2 must lie in [0, "),
    "angles: {theta2_deg: -1}\n": ("fit", "angles {'theta2_deg': -1}: theta2 must lie in [0, pi"),
    "angles: {theta3_deg: .nan}\n": ("trotter", "angles {'theta3_deg': nan}: theta3 must be"),
    "angles: {tau0_us: 0}\n": ("scan", "angles {'tau0_us': 0}: tau0 must be positive and finite"),
    "intrinsic: {t2_us: 1.0e-320}\n": (
        "trotter", "intrinsic {'t2_us': 1e-320}: t2_intrinsic must be positive with a finite"),
    "theta_grid_deg: [0, 89.9999999999]\n": (
        "dilate-verify", "theta_grid_deg[1] = 89.9999999999: theta2 must lie in [0, pi/2)"),
}


@pytest.mark.parametrize("text", _INVALID, ids=lambda text: text.replace(_HUGE, "1e400"))
def test_invalid_configs_exit_1(tmp_path, capsys, text):
    command, message = _INVALID[text]
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, text", [
    ("trotter", "order: true\n"), ("trotter", "order: 2.0\n"), ("trotter", "n_steps: 13.0\n"),
    ("fit", "order: true\n"), ("fit", "order: 2.0\n"), ("scan", "n_steps: 13.0\n"),
])
def test_non_integer_order_or_steps_exit_1(tmp_path, capsys, text, command):
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1.0e+200", "5.0e-324"])
def test_converge_rejects_a_total_time_no_step_grid_can_hold(tmp_path, capsys, value):
    # 1e200 squares past the largest float; 5e-324 / 128 rounds to a zero step. Either is
    # rejected with the config, naming t_total_us rather than the schedule's dt.
    cfg = write_config(tmp_path, f"t_total_us: {value}\n")
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: t_total_us must be below 1.34e154 with t_total_us / max(n_list) positive, "
        f"got {float(value)}"]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "table, message",
    [
        ("c,value,sigma\n", "no noise points found"),
    ],
    ids=["header-only"],
)
def test_mitigate_input_csv_with_too_few_points_exit_1(tmp_path, capsys, table, message):
    path = tmp_path / "table.csv"
    path.write_text(table)
    cfg = write_config(tmp_path, f"input_csv: {path}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mitigate.json").exists()


@pytest.mark.parametrize(
    "table, message",
    [
        ("c,value\n2,35.56\n3,29.63\n", "must start with the unscaled factor 1, got 2.0"),
        ("c,value\n1,35.56\n1,29.63\n", "repeats a scale factor among the 2 used"),
    ],
    ids=["first-c-not-1", "repeated-c"],
)
def test_mitigate_input_csv_with_bad_scale_factors_exit_1(tmp_path, capsys, table, message):
    # Bad input, not a numerical failure: rejected before any extrapolation.
    path = tmp_path / "table.csv"
    path.write_text(table)
    cfg = write_config(tmp_path, f"input_csv: {path}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mitigate.json").exists()


@pytest.mark.parametrize("table, message", [
    ("c,value,sigma\n1.0,10.0,1e200\n2.0,9.0,0.2\n", "sigma_est must be finite, got inf"),
    ("c,value\n1.0,1e308\n2.0,-1e308\n", "estimate must be finite, got inf"),
], ids=["sigma-overflow", "estimate-overflow"])
def test_mitigate_input_csv_overflow_is_a_numerical_failure(tmp_path, capsys, table, message):
    # An overflowing combination reaches ExtrapolationResult's check as inf: no
    # traceback and no RuntimeWarning (an error under this suite's filter).
    path = tmp_path / "table.csv"
    path.write_text(table)
    cfg = write_config(tmp_path, f"input_csv: {path}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.strip() == f"numerical failure: {message}"
    assert not (tmp_path / "mitigate.json").exists()


def test_mitigate_c_list_with_repeated_factor_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "c_list: [1.0, 1.0]\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "c_list repeats a scale factor" in capsys.readouterr().err
    assert not (tmp_path / "mitigate.json").exists()


@pytest.mark.parametrize("text, message", [
    ("n_max: 2\n", "unknown config keys: n_max"),
    ("input_csv: {table}\nc_list: [1.0, 1.0]\n",
     "c_list repeats a scale factor among the 2 used: [1.0, 1.0]"),
], ids=["n_max", "c_list-beside-input_csv"])
def test_mitigate_takes_no_order_and_checks_an_unused_c_list(tmp_path, capsys, text, message):
    # The factors set the extrapolation orders, so there is no n_max key; and c_list passes
    # the scale-factor rule even where an input_csv study leaves it unused.
    table = tmp_path / "table.csv"
    table.write_text("c,value\n1,35.56\n2.13,29.63\n")
    cfg = write_config(tmp_path, text.format(table=table))
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "mitigate.json").exists()


# Well separated factors, four times as likely as each bad one.
_FACTOR = st.sampled_from([1.0, 2.0, 3.5, 5.0] * 4 + [0.0, -2.0, np.nan, np.inf, -np.inf])


def _rule_failure(cs):
    """The kind of failure the scale-factor rule names first, or None when cs passes."""
    if not all(0 < c < np.inf for c in cs):
        return "positive and finite"
    if not cs or cs[0] != 1.0:
        return "must start with the unscaled factor 1"
    if len(set(cs)) < len(cs):
        return "repeats a scale factor"
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@example(cs=[])
@example(cs=[1.0, -2.0])
@example(cs=[1.0, 0.0])
@example(cs=[1.0, np.nan])
@example(cs=[1.0, np.inf])
@example(cs=[2.0, 4.0])
@example(cs=[1.0, 2.0, 2.0])
@given(cs=st.one_of(st.lists(_FACTOR, max_size=5),
                    st.lists(_FACTOR, max_size=5).map(lambda tail: [1.0, *tail])))
def test_scale_factor_rule_is_one_rule_before_any_measurement(tmp_path_factory, cs):
    # build_config (simulated mitigate, or c_list beside an input_csv), mitigate from
    # input_csv and check_scale_factors accept and reject the same factor lists with the
    # same message; a list that passes gives one result per factor, orders 0 to len - 1.
    failure = _rule_failure(cs)
    from_config = []
    for extra in ({}, {"input_csv": "points.csv"}):
        try:
            cli.build_config({"c_list": cs, **extra}, "mitigate")
            from_config.append(None)
        except cli.ConfigError as exc:
            from_config.append(str(exc))

    try:
        assert check_scale_factors(cs, "c_list") is None
        from_rule = None
    except ValueError as exc:
        from_rule = str(exc)
    assert from_config == [from_rule, from_rule]
    assert (from_rule is None) == (failure is None)
    assert failure is None or failure in from_rule

    out = tmp_path_factory.mktemp("csv")
    table = out / "t.csv"
    table.write_text("c,value\n" + "".join(f"{c!r},1.0\n" for c in cs))
    cfg = write_config(out, f"input_csv: {table}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["mitigate", "--config", str(cfg), "--out", str(out)])
    assert code == (EXIT_OK if failure is None else EXIT_CONFIG)
    if failure is None:
        results = json.loads((out / "mitigate.json").read_text())["results"]
        assert [r["order"] for r in results] == list(range(len(cs)))
    elif not cs:
        assert "no noise points found" in err.getvalue()
    else:  # the rule's message, before NoisePoint sees a bad c
        assert from_rule.replace("c_list", f"the c column of {table}") in err.getvalue()


def test_mitigate_from_csv_rejects_a_noisy_backend(tmp_path, capsys):
    # mitigate runs no noisy backend, with input_csv or without.
    table = tmp_path / "table.csv"
    table.write_text("c,value\n1,35.56\n2.13,29.63\n")
    cfg = write_config(
        tmp_path,
        f"backend: dilation+noise\nnoise: {{p_grape: 0.01}}\ninput_csv: {table}\n",
    )
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: backend 'dilation+noise' needs noise, which mitigate does not read\n")
    assert not (tmp_path / "mitigate.json").exists()


@pytest.mark.parametrize(
    "key, code",
    [
        ("shots", EXIT_OK), ("seed", EXIT_OK), ("input_csv", EXIT_OK),
        ("t_total_us", EXIT_OK), ("noise", EXIT_CONFIG), ("mode", EXIT_CONFIG),
        ("figure", EXIT_CONFIG),  # not a config key: reproduce takes --figure only
    ],
)
def test_only_keys_defaulting_to_null_accept_null(tmp_path, key, code):
    # Each key under a subcommand that reads it; figure is read by none.
    command = {"shots": "fit", "seed": "fit", "input_csv": "mitigate",
               "t_total_us": "converge", "noise": "trotter"}.get(key, "evolve")
    cfg = write_config(tmp_path, f"{key}: null\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == code


def test_fit_with_intrinsic_t1_only(tmp_path):
    cfg = write_config(tmp_path, "intrinsic: {t1_us: 114.0}\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    predicted = json.loads((tmp_path / "fit.json").read_text())["predicted"]
    channel = angle_to_rates(*np.radians([20.0, 20.0, 51.4]))
    assert 1.0 / predicted["t1_us"] == pytest.approx(channel.gamma1 + 1.0 / 114.0, rel=1e-12)
    assert 1.0 / predicted["t2_us"] == pytest.approx(1.0 / channel.t2 + 1.0 / 228.0, rel=1e-12)


_ANGLE = st.one_of(
    st.floats(-5.0, 95.0), st.sampled_from([0.0, 89.99995, 89.99999, 90.0, 90.000001])
)
_TIME = st.one_of(
    st.floats(-10.0, 300.0), st.floats(0.5, 300.0), st.just(float("inf")),
    st.sampled_from(["inf", ".inf"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(theta1=_ANGLE, theta2=_ANGLE, tau0=st.floats(-1.0, 10.0), t1=_TIME, t2=_TIME)
def test_config_accepts_angles_and_intrinsic_iff_effective_rates_does(
    theta1, theta2, tau0, t1, t2
):
    raw = {
        "angles": {"theta1_deg": theta1, "theta2_deg": theta2, "tau0_us": tau0},
        "intrinsic": {"t1_us": t1, "t2_us": t2},
    }
    try:
        angle_to_rates(*np.radians([theta1, theta2, 51.4]), tau0,
                       *(np.inf if isinstance(t, str) else t for t in (t1, t2)))
        physical = True
    except ValueError:
        physical = False
    try:
        cli.build_config(raw, "evolve")
        accepted = True
    except cli.ConfigError:
        accepted = False
    assert accepted == physical


@pytest.mark.filterwarnings("error")
def test_config_names_tau0_when_the_rates_overflow(tmp_path, capsys):
    cfg = write_config(tmp_path, "angles: {tau0_us: 2.2e-311}\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tau0" in err and "gamma1" not in err


def test_angle_errors_name_the_section_as_written(tmp_path, capsys):
    cfg = write_config(tmp_path, "angles: {theta1_deg: 100}\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "theta1_deg" in err and "100" in err


def _readme_schema_block():
    text = README.read_text()
    block = text.split("### YAML config schema", 1)[1].split("```yaml\n", 1)[1]
    return block.split("```", 1)[0]


def _readme_modes(block):
    """Each schema key's dotted name -> the subcommands in brackets in its comment."""
    modes, section = {}, None
    for line in block.splitlines():
        match = re.match(r"( *)(\w+):.*# \[([^\]]*)\]", line)
        if match:
            indent, key, names = match.groups()
            section = section if indent else key
            modes[f"{section}.{key}" if indent else key] = (
                set(cli.RUNNERS) if names == "all" else set(names.split()))
    return modes


def test_readme_schema_matches_config_table():
    block = _readme_schema_block()
    schema = yaml.safe_load(block)
    assert set(schema) == {"mode"} | set(CONFIG_TABLE)
    for key, (default, coerce, _) in CONFIG_TABLE.items():
        if isinstance(coerce, dict):
            assert set(schema[key]) == set(coerce), key
            for sub, (sub_default, _, _) in coerce.items():
                assert schema[key][sub] == sub_default, f"{key}.{sub}"
        elif isinstance(default, tuple):
            if "..." not in schema[key]:
                assert tuple(schema[key]) == default, key
        else:
            assert schema[key] == default, key
    table_modes = {"mode": set(cli.RUNNERS)}  # each mode reads its own name
    table_modes.update({key: set(row[2]) for key, row in CONFIG_TABLE.items()})
    table_modes.update({key: set(modes) for key, (_, modes) in _leaf_modes().items()})
    assert _readme_modes(block) == table_modes


def test_missing_config_file_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["evolve", "--config", str(missing)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_malformed_yaml_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "angles: [unclosed\n")
    assert main(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exit_1(capsys):
    assert main(["teleport"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_mitigate_bad_input_csv_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, f"input_csv: {tmp_path / 'absent.csv'}\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err



def test_workers_flag_is_an_unknown_argument(tmp_path, capsys):
    assert main(["evolve", "--out", str(tmp_path), "--workers", "2"]) == EXIT_CONFIG
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


# --------------------------------------------------------------- artifacts

# Each default command's artifacts, in write order.
ARTIFACTS = {
    "evolve": ["evolve.csv"],
    "trotter": ["trotter.csv", "trotter_target.csv", "trotter.json"],
    "scan": ["scan.json"],
    "dilate-verify": ["dilate_verify.json"],
    "fit": ["fit_curves.csv", "fit.json"],
    "mitigate": ["mitigate.json"],
    "converge": ["converge.json"],
    "fig2": ["fig2_theta1.csv", "fig2_theta2.csv", "fig2_theta3.csv", "fig2.json"],
    "fig3": ["fig3_points.csv", "fig3.json"],
    "fig4": ["fig4_accuracy.csv", "fig4.json"],
}


@pytest.mark.parametrize("command", ARTIFACTS)
def test_each_written_file_is_reported_once_in_write_order(tmp_path, capsys, command):
    assert set(ARTIFACTS) == {*cli.RUNNERS, *cli.FIGURES}
    argv = ["reproduce", "--figure", command] if command in cli.FIGURES else [command]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    paths = [tmp_path / name for name in ARTIFACTS[command]]
    assert capsys.readouterr().out.splitlines() == [f"wrote {path}" for path in paths]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    mtimes = [path.stat().st_mtime_ns for path in paths]
    assert mtimes == sorted(mtimes)


# ------------------------------------------------------------ start-up cost

# In one fresh interpreter whose import system refuses scipy: imports the package,
# reads each name in its __all__, and runs every subcommand on its default config
# twice, into two directories. It then compares the artifacts of the two runs byte
# for byte, and lists the scipy and yaml modules it loaded. Only a config file
# loads yaml.
_NO_SCIPY_SCRIPT = """
import contextlib, io, sys, tempfile
from pathlib import Path
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} blocked")
sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    print("blocked", end=" ")
import trottersim, trottersim.cli
names = [getattr(trottersim, name) for name in trottersim.__all__]
commands = [[name] for name in trottersim.cli.RUNNERS]
commands += [["reproduce", "--figure", fig] for fig in trottersim.cli.FIGURES]
with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, \\
        contextlib.redirect_stdout(io.StringIO()):
    codes = [trottersim.cli.main([*cmd, "--out", out]) for out in (a, b) for cmd in commands]
    runs = [{p.relative_to(out): p.read_bytes() for p in Path(out).rglob("*")} for out in (a, b)]
print(len(names), len(commands), codes, len(runs[0]), runs[0] == runs[1],
      sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml")))
"""


def test_no_cli_command_loads_scipy():
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == f"blocked {len(trottersim.__all__)} 10 {[0] * 20} 18 True []"
