"""Tests for the command-line harness: configs, artifacts, exit codes."""

import csv
import json

from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import trottersim.cli as cli
from trottersim.cli import CONFIG_TABLE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from trottersim.dilation import AngleParams, angle_to_rates, effective_rates
from trottersim.liouvillian import CanonicalRates

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


# --------------------------------------------------------------------- fit


def test_fit_recovers_predictions(tmp_path):
    cfg = write_config(tmp_path, "order: 2\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "fit.json").read_text())
    assert summary["fitted"]["converged"] is True
    for key in ("t1_us", "t2_us", "omega_mhz"):
        fitted, predicted = summary["fitted"][key], summary["predicted"][key]
        assert abs(fitted - predicted) < 0.10 * predicted
    rows = read_rows(tmp_path / "fit_curves.csv")
    assert rows[0] == ["step", "time_us", "state", "obs", "value"]
    assert len(rows) == 1 + 12 * 14


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
    text = ("c_list: [1.0, 2.0]\norder: 2\nn_steps: 7\nbackend: dilation\n"
            "permutation: [rotation, damping, dephasing]\n")
    seen = []

    def fake_t2(rates, c, schedule, inverse):
        seen.append(schedule)
        return 40.0 / c

    monkeypatch.setattr(cli, "scaled_damping_t2", fake_t2)
    cfg = write_config(tmp_path, text)
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert seen == 2 * [cli.build_config(yaml.safe_load(text), "mitigate").schedule]


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


def test_fig3_config_pins_the_paper_base_rates():
    # fig3 runs the mitigate config cli._FIG3_CONFIG; its rates must stay exactly
    # the paper's: gamma1 = 0.0090/us, dephasing of theta1 = 20 deg, no drive.
    cfg = cli.build_config(cli._FIG3_CONFIG, "mitigate")
    assert cfg.rates == CanonicalRates(
        gamma1=0.0090,
        gamma_phi=angle_to_rates(AngleParams.from_degrees(20, 0, 0, 3.56)).gamma_phi,
        omega=0.0,
    )


def test_reproduce_fig4(tmp_path):
    assert main(
        ["reproduce", "--figure", "fig4", "--out", str(tmp_path), "--workers", "2"]
    ) == EXIT_OK
    rows = read_rows(tmp_path / "fig4_accuracy.csv")
    assert rows[0] == ["order", "permutation", "theta2_deg", "accuracy"]
    assert len(rows) == 1 + 2 * 6 * 14
    by_order = {"1": [], "2": []}
    for order, _perm, theta2, acc in rows[1:]:
        if float(theta2) == 30.0:
            by_order[order].append(float(acc))
    assert max(by_order["2"]) < min(by_order["1"])


def test_reproduce_fig2(tmp_path):
    assert main(
        ["reproduce", "--figure", "fig2", "--out", str(tmp_path), "--workers", "2"]
    ) == EXIT_OK
    for sweep, n_points in (("theta1", 8), ("theta2", 8), ("theta3", 7)):
        rows = read_rows(tmp_path / f"fig2_{sweep}.csv")
        assert rows[0][0] == "angle_deg"
        assert len(rows) == 1 + n_points
    summary = json.loads((tmp_path / "fig2.json").read_text())
    assert summary["sweeps"]["theta1"]["fixed_deg"] == {
        "theta2_deg": 20.0, "theta3_deg": 51.4,
    }


def test_reproduce_figure_from_config_key(tmp_path):
    cfg = write_config(tmp_path, "figure: fig3\n")
    assert main(["reproduce", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "fig3.json").exists()


def test_reproduce_without_figure_fails(tmp_path, capsys):
    assert main(["reproduce", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "figure" in capsys.readouterr().err


# ------------------------------------------------------------- bad configs


@pytest.mark.parametrize(
    "text",
    [
        "banana: 1\n",
        "angles: {theta1_deg: 20.0, theta9_deg: 1.0}\n",
        "angles: {theta1_deg: 95.0}\n",
        "angles: {tau0_us: -1.0}\n",
        "backend: quantum\n",
        "order: 3\n",
        "permutation: [dephasing, damping]\n",
        "permutation: [dephasing, dephasing, rotation]\n",
        "noise: {p_grape: 0.01}\n",
        "backend: dilation+noise\n",
        "shots: 0\n",
        "seed: -1\n",
        "n_list: [4, 8]\n",
        "n_list: [8, 4, 16, 32]\n",
        "c_list: [2.0, 4.0]\n",
        "intrinsic: {t1_us: 10.0, t2_us: 50.0}\n",
        "intrinsic: {t1_us: -3.0}\n",
        "mode: scan\n",
        "variable: sideways\n",
        "theta_grid_deg: [5.0, 92.0]\n",
        "mode: mitigate\nbackend: dilation+noise\nnoise: {p_grape: 0.01}\n",
        "mode: mitigate\nn_max: 4\n",
    ],
)
def test_invalid_configs_exit_1(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    command = "mitigate" if text.startswith("mode: mitigate") else "evolve"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["order: true\n", "order: 2.0\n", "n_steps: 13.0\n"])
@pytest.mark.parametrize("command", ["trotter", "scan"])
def test_non_integer_order_or_steps_exit_1(tmp_path, capsys, text, command):
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table, extra, message",
    [
        ("c,value,sigma\n", "", "no noise points found"),
        ("c,value\n1,35.56\n2.13,29.63\n", "n_max: 2\n", "needs 3 points"),
    ],
    ids=["header-only", "two-rows-n_max-2"],
)
def test_mitigate_input_csv_with_too_few_points_exit_1(tmp_path, capsys, table, extra, message):
    path = tmp_path / "table.csv"
    path.write_text(table)
    cfg = write_config(tmp_path, f"input_csv: {path}\n{extra}")
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


def test_mitigate_input_csv_repeat_beyond_n_max_is_unused(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("c,value\n1,35.56\n2.13,29.63\n2.13,29.60\n")
    cfg = write_config(tmp_path, f"input_csv: {table}\nn_max: 1\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK


def test_mitigate_c_list_with_repeated_factor_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "c_list: [1.0, 1.0]\n")
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "c_list repeats a scale factor" in capsys.readouterr().err
    assert not (tmp_path / "mitigate.json").exists()


@pytest.mark.parametrize(
    "raw, mode",
    [
        ({"c_list": [1.0, 2.0, 2.0], "n_max": 1}, "mitigate"),  # the repeat is never used
        ({"c_list": [1.0, 1.0], "input_csv": "points.csv"}, "mitigate"),  # c_list unused
        ({"c_list": [1.0, 1.0]}, "fit"),  # only mitigate extrapolates
    ],
)
def test_c_list_repeats_that_no_extrapolation_uses_are_accepted(raw, mode):
    assert cli.build_config(raw, mode).c_list == tuple(raw["c_list"])


def test_mitigate_from_csv_ignores_noisy_backend(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("c,value\n1,35.56\n2.13,29.63\n")
    cfg = write_config(
        tmp_path,
        f"backend: dilation+noise\nnoise: {{p_grape: 0.01}}\ninput_csv: {table}\n",
    )
    assert main(["mitigate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize(
    "key, code",
    [
        ("shots", EXIT_OK), ("seed", EXIT_OK), ("n_max", EXIT_OK), ("input_csv", EXIT_OK),
        ("figure", EXIT_OK), ("t_total_us", EXIT_OK), ("noise", EXIT_CONFIG),
        ("mode", EXIT_CONFIG),
    ],
)
def test_only_keys_defaulting_to_null_accept_null(tmp_path, key, code):
    cfg = write_config(tmp_path, f"{key}: null\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == code


def test_fit_with_intrinsic_t1_only(tmp_path):
    cfg = write_config(tmp_path, "intrinsic: {t1_us: 114.0}\n")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    predicted = json.loads((tmp_path / "fit.json").read_text())["predicted"]
    channel = angle_to_rates(AngleParams.from_degrees(20.0, 20.0, 51.4))
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
        params = AngleParams.from_degrees(theta1, theta2, 51.4, tau0)
        effective_rates(params, *(np.inf if isinstance(t, str) else t for t in (t1, t2)))
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


def _readme_schema():
    text = README.read_text()
    block = text.split("### YAML config schema", 1)[1].split("```yaml\n", 1)[1]
    return yaml.safe_load(block.split("```", 1)[0])


def test_readme_schema_matches_config_table():
    schema = _readme_schema()
    assert set(schema) == {"mode"} | set(CONFIG_TABLE)
    for key, (default, coerce) in CONFIG_TABLE.items():
        if isinstance(coerce, dict):
            assert set(schema[key]) == set(coerce), key
            for sub, (sub_default, _) in coerce.items():
                assert schema[key][sub] == sub_default, f"{key}.{sub}"
        elif isinstance(default, tuple):
            if "..." not in schema[key]:
                assert tuple(schema[key]) == default, key
        else:
            assert schema[key] == default, key


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


# ----------------------------------------------------------------- workers


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == EXIT_OK


def test_workers_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.WORKERS_ENV, "many")
    assert main(["evolve", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_workers_flag_must_be_positive(tmp_path, capsys):
    assert main(["evolve", "--out", str(tmp_path), "--workers", "0"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
