import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from rydswap.cli import _SCHEMA, ConfigError, _gate_params, _noise_spec, _parse_config, main, preset_path
from rydswap.gates import make_protocol, run_gate, table_params
from rydswap.noise import DopplerSpec, NoiseSpec
from rydswap.tables import CellDiff


def run_cli(args):
    return main(args)


def test_gate_preset_outputs(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(["gate", "--preset", "table1_sqrt_iswap", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variant"] == "sqrt_iSWAP"
    assert abs(summary["fidelity"] - 0.9915) < 0.005
    assert summary["params"]["omega2"] == pytest.approx(2 * math.pi * 137.56)
    for name in ("amplitudes.csv", "phases.csv", "loss.csv"):
        assert (out / name).exists()
    # the resolved parameter echo is embedded in every CSV
    assert "params:" in (out / "amplitudes.csv").read_text().splitlines()[0]


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["gate", "--preset", "table1_sqrt_iswap", "--out", str(out)]) == 0
    for name in ("amplitudes.csv", "phases.csv", "loss.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[gate]\nvariant = SWAP\nomega3_mhz = 1.0\n")
    rc = run_cli(["gate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "omega3_mhz" in capsys.readouterr().err


def test_unknown_preset_lists_available(capsys, tmp_path):
    rc = run_cli(["gate", "--preset", "nope", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "table1_swap" in err


def test_missing_required_values(tmp_path):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("[gate]\nvariant = SWAP\nomega2_mhz = 100\n")
    assert run_cli(["gate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_set_override(tmp_path):
    out = tmp_path / "o"
    rc = run_cli([
        "gate", "--preset", "table1_sqrt_iswap",
        "--set", "gate.t_us=1.0", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["duration"] == 1.0
    assert summary["fidelity"] < 0.99  # detuned duration degrades the gate


def test_scan_subcommand(tmp_path):
    out = tmp_path / "scan"
    rc = run_cli([
        "scan", "--preset", "fig4c_vscan",
        "--set", "scan.values_mhz=-134.64 1001.2", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "scan.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#") and not l.startswith("value")]
    assert len(data) == 2
    plateau = float(data[0].split(",")[1])
    resonant = float(data[1].split(",")[1])
    assert plateau > resonant  # rotation fidelity collapses on resonance


def test_noise_subcommand(tmp_path):
    out = tmp_path / "noise"
    rc = run_cli([
        "noise", "--preset", "fig3a_doppler",
        "--set", "noise.n_shots=2", "--out", str(out), "--seed", "7",
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_shots"] == 2 and summary["seed"] == 7
    assert 0.9 < summary["mean_fidelity"] <= 1.0


def test_seed_from_config_and_override(tmp_path):
    noise = ["noise", "--preset", "fig3a_doppler", "--set", "noise.n_shots=1"]

    def run(extra, name):
        assert run_cli(noise + extra + ["--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "summary.json").read_text())

    from_config = run(["--set", "scenario.seed=5"], "config")
    assert from_config["seed"] == 5
    # the config seed drives the draws exactly as --seed does
    assert run(["--seed", "5"], "flag")["mean_fidelity"] == from_config["mean_fidelity"]
    overridden = run(["--set", "scenario.seed=5", "--seed", "9"], "override")
    assert overridden["seed"] == 9
    assert overridden["mean_fidelity"] != from_config["mean_fidelity"]
    assert run([], "default")["seed"] == 0


def test_seed_and_jobs_only_for_noise(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gate", "--preset", "table1_swap", "--jobs", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    rc = run_cli(["gate", "--preset", "table1_swap", "--set", "scenario.seed=5", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("override", ["noise.temp_uk=150", "scan.parameter=delta"])
def test_sections_only_for_their_subcommand(tmp_path, capsys, override):
    rc = run_cli(["gate", "--preset", "table1_swap", "--set", override, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"[{override.split('.')[0]}]" in capsys.readouterr().err


def test_sections_accepted_by_their_subcommand(tmp_path):
    # each subcommand still takes its own section, here from a --set override
    assert run_cli(["noise", "--preset", "fig3a_doppler", "--set", "noise.n_shots=1",
                    "--out", str(tmp_path / "n")]) == 0
    assert run_cli(["scan", "--preset", "fig4c_vscan", "--set", "scan.values_mhz=1001.2",
                    "--out", str(tmp_path / "s")]) == 0


def test_scenario_kind_must_match_subcommand(tmp_path, capsys):
    rc = run_cli(["gate", "--preset", "fig3a_doppler", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'noise'" in capsys.readouterr().err
    rc = run_cli(["gate", "--preset", "table1_swap", "--set", "scenario.calibrate=yes",
                  "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "calibrate" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["table1_swap", "table1_iswap", "table1_sqrt_iswap", "table1_c_iswap",
                                    "table1_cswap"])
def test_table_presets_are_the_published_operating_points(preset):
    # the presets and gates.table_params are two copies of the same points
    with resources.as_file(preset_path(preset)) as path:
        variant, params = _gate_params(_parse_config(path, []))
    assert params == table_params(variant)


@pytest.mark.parametrize("value", ["2.7", "two"])
def test_non_integer_n_controls_rejected(tmp_path, capsys, value):
    rc = run_cli(["gate", "--preset", "table1_cswap", "--set", "gate.variant=Ck_SWAP",
                  "--set", f"gate.n_controls={value}", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "n_controls" in capsys.readouterr().err


def test_noise_defaults_are_the_library_defaults():
    with resources.as_file(preset_path("fig3a_doppler")) as path:
        spec = _noise_spec(_parse_config(path, []), seed=0)
    assert spec == NoiseSpec(DopplerSpec(150e-6), n_shots=40, seed=0)


def test_trajectory_subcommand(tmp_path):
    out = tmp_path / "traj"
    rc = run_cli(["trajectory", "--preset", "table1_sqrt_iswap", "--out", str(out)])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t_us" and header[-2:] == ["p_rydberg", "norm"]
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(1.0, abs=1e-3)  # norm column


def test_calibrate_subcommand(tmp_path):
    out = tmp_path / "cal"
    rc = run_cli(["calibrate", "--preset", "table1_sqrt_iswap", "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "calibration.json").read_text())
    assert result["t_transfer_calibrated_us"] == pytest.approx(2.3095, rel=0.02)


def test_tables_harness_detects_perturbation():
    # a deliberately perturbed cell must fail its tolerance
    cell = CellDiff(
        gate="SWAP", quantity="fidelity", row="-", col="-",
        printed=0.9966, measured=0.9966 - 0.02, tol=0.005,
        expected_red=False, note="",
    )
    assert not cell.ok
    ok_cell = CellDiff(
        gate="SWAP", quantity="phase_pi", row="11", col="11",
        printed=-0.99, measured=0.995, tol=0.02, expected_red=False, note="",
    )
    assert ok_cell.ok  # phase comparison wraps modulo 2


# overrides that keep a run of each subcommand small
_SMALL = {"noise": ["--set", "noise.n_shots=1"], "scan": ["--set", "scan.values_mhz=1001.2"], "gate": []}


def test_set_values_overrides_preset_values_mhz(tmp_path):
    # values and values_mhz fill one field: the --set one is the later and wins
    out = tmp_path / "scan"
    rc = run_cli(["scan", "--preset", "fig4c_vscan", "--set", "scan.values=6000 7000", "--out", str(out)])
    assert rc == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert [float(l.split(",")[0]) for l in lines if not l.startswith(("#", "value"))] == [6000.0, 7000.0]


def test_set_overrides_a_later_alias_in_the_file(tmp_path):
    cfg = tmp_path / "alias.cfg"
    cfg.write_text("[gate]\nomega1_max_mhz = 33.5\nomega2_mhz = 190.8\ndelta_mhz = 999.73\nt_us = 4.7259\n"
                   "vct_ghz = 1.0\nvct_radus = 22140.0\n")
    assert _gate_params(_parse_config(cfg, []))[1].v_ct == 22140.0
    _, params = _gate_params(_parse_config(cfg, ["gate.vct_ghz=0.5"]))
    assert params.v_ct == pytest.approx(2 * math.pi * 500.0)


@pytest.mark.parametrize("override", ["noise.mass_kg=2.2e-25", "noise.lambda1_nm=459.6",
                                      "noise.counter_propagating=no"])
def test_doppler_key_without_temperature_rejected(tmp_path, capsys, override):
    # the Cs mass and the counter-propagating 459.6/1040 nm beams are fixed,
    # so temp_uk is the only Doppler key and these are unknown keys
    rc = run_cli(["noise", "--preset", "fig3bc_intensity", "--set", "noise.n_shots=1", "--set", override,
                  "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown key {override.split('=')[0].removeprefix('noise.')!r}" in capsys.readouterr().err


def test_scan_without_parameter_rejected(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("[gate]\nvariant = SWAP\nomega1_max_mhz = 33.5\nomega2_mhz = 190.8\ndelta_mhz = 999.73\n"
                   "t_us = 4.7259\n\n[scan]\nvalues_mhz = 1001.2\n")
    rc = run_cli(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "parameter" in capsys.readouterr().err


@pytest.mark.parametrize("command, preset, override, key", [
    ("noise", "fig3a_doppler", "noise.n_shots=1.5", "n_shots"),
    ("gate", "table1_swap", "gate.model=bogus", "model"),
    ("noise", "fig3a_doppler", "noise.counter_propagating=maybe", "counter_propagating"),
    ("scan", "fig4c_vscan", "scan.metric=bogus", "metric"),
    ("scan", "fig4c_vscan", "scan.parameter=bogus", "parameter"),
    ("gate", "table1_swap", "gate.sigma_ratio=0.3", "sigma_ratio"),
    ("scan", "fig4c_vscan", "scan.parameter=sigma_ratio", "sigma_ratio"),
    ("gate", "table1_swap", "gate.lifetime_us=0", "lifetime_us"),
    ("gate", "table1_swap", "gate.lifetime_us=-5", "lifetime_us"),
    ("gate", "table1_swap", "gate.t_us=0", "t_us"),
    ("gate", "table1_swap", "gate.t_us=-1", "t_us"),
    ("gate", "table1_cswap", "gate.vtt_mhz=5", "vtt_mhz"),
    ("gate", "table1_cswap", "gate.n_controls=2", "n_controls"),
    ("gate", "table1_cswap", "gate.vct_radus=0", "vct_radus"),
    ("noise", "fig3a_doppler", "gate.vct_radus=0", "vct_radus"),
    # fixed values, each set to the value it is fixed at
    ("gate", "table1_cswap", "gate.vcc_radus=22140", "vcc_radus"),
    ("gate", "table1_cswap", "gate.omega_c_mhz=10", "omega_c_mhz"),
    ("scan", "fig4c_vscan", "scan.metric=rotation_fidelity", "metric"),
    ("noise", "fig3bc_intensity", "noise.update_interval_us=0.01", "update_interval_us"),
])
def test_unreadable_or_rejected_value_is_a_config_error(tmp_path, capsys, command, preset, override, key):
    rc = run_cli([command, "--preset", preset] + _SMALL[command] + ["--set", override, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err


# a perturbed value of every [gate] key but variant, against table1_cswap
_GATE_PERTURBED = {
    "gate.model": "full", "gate.omega1_max_mhz": "34", "gate.omega2_mhz": "90", "gate.delta_mhz": "1001",
    "gate.t_us": "4.7", "gate.vtt_mhz": "5", "gate.vct_ghz": "3.5", "gate.vct_radus": "22000",
    "gate.lifetime_us": "100", "gate.n_controls": "2",
}


def test_every_gate_key_is_honoured_or_rejected():
    assert set(_GATE_PERTURBED) == {k for k in _SCHEMA if k.startswith("gate.")} - {"gate.variant"}

    def u_gate(overrides):
        with resources.as_file(preset_path("table1_cswap")) as path:
            variant, params = _gate_params(_parse_config(path, overrides))
        return run_gate(make_protocol(variant, params)).u_gate

    base = u_gate([])
    for key, value in _GATE_PERTURBED.items():
        try:
            u = u_gate([f"{key}={value}"])
        except ConfigError:
            continue
        assert not np.array_equal(u, base), f"{key}={value} is accepted but not honoured"


def test_scan_over_v_ct_needs_no_v_ct_in_its_gate(tmp_path):
    # the scan sets v_ct per point, so a [gate] v_ct of 0 is not a rejected gate
    rc = run_cli(["scan", "--preset", "fig4c_vscan", "--set", "gate.vct_radus=0"] + _SMALL["scan"]
                 + ["--out", str(tmp_path / "o")])
    assert rc == 0
    row = (tmp_path / "o" / "scan.csv").read_text().splitlines()[-1].split(",")
    assert row[-1] == "" and float(row[1]) > 0.9  # the point ran, at its own v_ct


def test_scan_of_a_non_numeric_parameter_rejected(tmp_path, capsys):
    rc = run_cli(["scan", "--preset", "fig4c_vscan", "--set", "scan.parameter=decay_rate",
                  "--set", "scan.values=1 2", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "parameter" in err and "decay_rate" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(tmp_path, jobs):
    with pytest.raises(SystemExit) as exc:
        run_cli(["noise", "--preset", "fig3a_doppler", "--set", "noise.n_shots=1", "--jobs", jobs,
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("preset", sorted(p.name[:-4] for p in resources.files("rydswap.presets").iterdir()
                                          if p.name.endswith(".cfg")))
def test_every_preset_runs_under_its_subcommand(tmp_path, preset):
    with resources.as_file(preset_path(preset)) as path:
        command = _parse_config(path, []).get("scenario", "kind", fallback="gate")
    assert run_cli([command, "--preset", preset] + _SMALL[command] + ["--out", str(tmp_path / "o")]) == 0


def _readme_keys() -> dict:
    """README's CLI key table as section.key -> the subcommands it names.

    A bare key in a row belongs to the section of the row's first key;
    parenthesized notes (value spellings) are not keys.
    """
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = text.split("| section.key | read by |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0].splitlines()
    keys = {}
    for row in rows:
        names, readers = row.strip("|").split("|")
        names = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", names))
        section = names[0].split(".")[0]
        for name in names:
            keys[name if "." in name else f"{section}.{name}"] = set(re.findall(r"`([^`]+)`", readers))
    return keys


def test_readme_key_table_matches_the_schema():
    assert _readme_keys() == {key: set(commands) for key, (_, _, commands) in _SCHEMA.items()}
