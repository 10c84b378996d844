"""Batch front-end: config ingestion, scenario execution, CSV emission.

Configs are INI files with unit-suffixed keys (omega2_mhz, vct_ghz, temp_uk,
...); unknown keys are rejected.  Ordinary-frequency values are multiplied
by 2*pi on ingestion.  Every output directory receives a machine-readable
summary.json with the resolved parameter set echoed for provenance, plus
CSV blocks laid out like the published result tables (amplitude moduli,
phases in units of pi, per-input loss).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import presets as presets_pkg
from .analytic import calibrate_swap_time, swap_time_estimate
from .dynamics import propagate
from .gates import (
    GateParams,
    VARIANTS,
    make_protocol,
    run_gate,
    two_target_plan,
)
from .noise import (
    DopplerSpec,
    IntensitySpec,
    NoiseSpec,
    monte_carlo_fidelity,
    sample_realization,
    shot_rng,
)
from .sweep import ScanSpec, scan

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


# Section -> key -> (target field, scale applied on ingestion).
_GATE_KEYS = {
    "variant": ("variant", None),
    "model": ("model", None),
    "omega1_max_mhz": ("omega1_max", TWO_PI),
    "omega2_mhz": ("omega2", TWO_PI),
    "delta_mhz": ("delta", TWO_PI),
    "t_us": ("duration", 1.0),
    "vtt_mhz": ("v_tt", TWO_PI),
    "vct_ghz": ("v_ct", TWO_PI * 1000.0),
    "vct_radus": ("v_ct", 1.0),
    "vcc_radus": ("v_cc", 1.0),
    "omega_c_mhz": ("omega_c", TWO_PI),
    "sigma_ratio": ("sigma_ratio", 1.0),
    "lifetime_us": ("lifetime", 1.0),
    "n_controls": ("n_controls", 1.0),
}

# [noise] key -> (spec part, field, reader).  Only the keys a config gives
# reach the specs, so the library's defaults hold for the rest.
_NOISE_KEYS = {
    "temp_uk": ("doppler", "temperature_K", lambda sec, key: sec.getfloat(key) / 1e6),
    "mass_kg": ("doppler", "mass_kg", lambda sec, key: sec.getfloat(key)),
    "lambda1_nm": ("doppler", "lambda1_m", lambda sec, key: sec.getfloat(key) / 1e9),
    "lambda2_nm": ("doppler", "lambda2_m", lambda sec, key: sec.getfloat(key) / 1e9),
    "counter_propagating": ("doppler", "counter_propagating", lambda sec, key: sec.getboolean(key)),
    "di_i_omega1": ("widths", "omega1", lambda sec, key: sec.getfloat(key)),
    "di_i_omega2": ("widths", "omega2", lambda sec, key: sec.getfloat(key)),
    "update_interval_us": ("intensity", "update_interval", lambda sec, key: sec.getfloat(key)),
    "n_shots": ("noise", "n_shots", lambda sec, key: sec.getint(key)),
}

_SCAN_KEYS = {"parameter": None, "values_mhz": None, "values": None, "metric": None}
_SCENARIO_KEYS = {"kind": None, "seed": None}


def _parse_config(path: Path | None, overrides: list[str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path is not None:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, value = item.split("=", 1)
        section, k = key.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, k, value)
    _validate_keys(cp)
    return cp


def _validate_keys(cp: configparser.ConfigParser) -> None:
    known = {
        "scenario": _SCENARIO_KEYS,
        "gate": _GATE_KEYS,
        "noise": _NOISE_KEYS,
        "scan": _SCAN_KEYS,
    }
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _gate_params(cp: configparser.ConfigParser) -> tuple[str, GateParams]:
    if not cp.has_section("gate"):
        raise ConfigError("config needs a [gate] section")
    sec = cp["gate"]
    variant = sec.get("variant", "SWAP")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown gate variant {variant!r}")
    kwargs = {}
    for key, raw in sec.items():
        field, scale = _GATE_KEYS[key]
        if key in ("variant",):
            continue
        if key == "model":
            kwargs["model"] = raw
            continue
        if key == "lifetime_us" and raw.lower() in ("none", "inf", "off"):
            kwargs["lifetime"] = None
            continue
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"gate.{key} must be numeric, got {raw!r}") from None
        if key == "n_controls":
            if not value.is_integer():
                raise ConfigError(f"gate.n_controls must be an integer, got {raw!r}")
            kwargs["n_controls"] = int(value)
        else:
            kwargs[field] = value * scale
    required = ("omega1_max", "omega2", "delta", "duration")
    missing = [f for f in required if f not in kwargs]
    if missing:
        raise ConfigError(f"[gate] is missing required values for {missing}")
    return variant, GateParams(**kwargs)


def _seed(args, cp: configparser.ConfigParser) -> int:
    """--seed if given, else [scenario] seed, else 0."""
    if args.seed is not None:
        return args.seed
    raw = cp.get("scenario", "seed", fallback="0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"scenario.seed must be an integer, got {raw!r}") from None


def _noise_spec(cp: configparser.ConfigParser, seed: int) -> NoiseSpec:
    if not cp.has_section("noise"):
        raise ConfigError("noise scenario needs a [noise] section")
    sec = cp["noise"]
    given = {"doppler": {}, "widths": {}, "intensity": {}, "noise": {}}
    for key in sec:
        part, field, read = _NOISE_KEYS[key]
        given[part][field] = read(sec, key)
    doppler = DopplerSpec(**given["doppler"]) if "temperature_K" in given["doppler"] else None
    intensity = IntensitySpec(given["widths"], **given["intensity"]) if given["widths"] else None
    return NoiseSpec(doppler=doppler, intensity=intensity, seed=seed, **given["noise"])


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_csv(path: Path, header: list[str], rows: list[list], preamble: list[str] = ()) -> None:
    lines = [f"# {p}" for p in preamble]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _params_echo(variant: str, params: GateParams) -> dict:
    d = asdict(params)
    d["variant"] = variant
    d.pop("interaction_overrides", None)
    return {k: (v if not isinstance(v, float) else float(f"{v:.12g}")) for k, v in d.items()}


def _emit_gate_outputs(out: Path, variant: str, params: GateParams, report, echo_extra=None) -> dict:
    n = report.u_gate.shape[0]
    labels = [format(i, f"0{int(math.log2(n))}b") for i in range(n)]
    preamble = [f"params: {json.dumps(_params_echo(variant, params), sort_keys=True)}"]
    _write_csv(
        out / "amplitudes.csv",
        ["in"] + labels,
        [[labels[j]] + [float(abs(report.rotation_matrix[i, j])) for i in range(n)] for j in range(n)],
        preamble,
    )
    _write_csv(
        out / "phases.csv",
        ["in"] + labels,
        [
            [labels[j]]
            + [
                float(np.angle(report.u_gate[i, j]) / math.pi) if abs(report.u_gate[i, j]) > 1e-6 else 0.0
                for i in range(n)
            ]
            for j in range(n)
        ],
        preamble + ["phases in units of pi"],
    )
    _write_csv(
        out / "loss.csv",
        ["in", "loss"],
        [[labels[j], float(report.per_input_loss[j])] for j in range(n)],
        preamble,
    )
    summary = {
        "variant": variant,
        "fidelity": report.fidelity,
        "fidelity_with_loss": report.fidelity_with_loss,
        "mean_loss": report.mean_loss,
        "t_bar_r_us": report.t_bar_r,
        "total_duration_us": report.total_duration,
        "params": _params_echo(variant, params),
    }
    if echo_extra:
        summary.update(echo_extra)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def preset_path(name: str):
    ref = resources.files(presets_pkg).joinpath(f"{name}.cfg")
    if not ref.is_file():
        available = sorted(p.name[:-4] for p in resources.files(presets_pkg).iterdir() if p.name.endswith(".cfg"))
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    return ref


def cmd_gate(args) -> int:
    cp = _load(args)
    variant, params = _gate_params(cp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    protocol = make_protocol(variant, params)
    report = run_gate(protocol)
    summary = _emit_gate_outputs(out, variant, params, report)
    print(f"{variant}: fidelity {summary['fidelity']:.6f} (with loss {summary['fidelity_with_loss']:.6f}), "
          f"mean loss {summary['mean_loss']:.3e}, T_bar_r {summary['t_bar_r_us']:.4f} us")
    return 0


def _dump_trajectory(path: Path, protocol) -> None:
    basis = protocol.basis
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[basis.comp_indices[1 if basis.n_atoms > 1 else 0]] = 1.0
    res = propagate(protocol.plan, psi0, record_populations=True)
    header = ["t_us"] + ["".join(basis.labels_of(i)) for i in range(basis.dim)] + ["p_rydberg", "norm"]
    rows = []
    for k, t in enumerate(res.rydberg_times):
        pops = res.population_traj[k]
        rows.append([float(t)] + [float(x) for x in pops] + [float(res.rydberg_populations[k]), float(pops.sum())])
    _write_csv(path, header, rows)


def cmd_calibrate(args) -> int:
    cp = _load(args)
    variant, params = _gate_params(cp)
    t_est, t_half = swap_time_estimate(params.omega1_max, params.delta, params.sigma_ratio)
    plan_factory = lambda t: two_target_plan(params, t)
    basis = plan_factory(1.0).stages[0].spec.basis
    psi_in = basis.basis_state(("0", "1"))
    out_index = basis.index_of(("1", "0"))
    target = 1.0 / math.sqrt(2.0) if variant == "sqrt_iSWAP" else None
    seed = t_half if target is None else t_half / 2.0
    t_transfer = calibrate_swap_time(plan_factory, psi_in, out_index, seed, transfer_target=target)
    result = {
        "t_estimate_us": t_est,
        "t_estimate_half_us": t_half,
        "t_transfer_calibrated_us": t_transfer,
        "params": _params_echo(variant, params),
    }
    if args.fidelity_objective:
        from .gates import calibrate_duration

        result["t_fidelity_calibrated_us"] = calibrate_duration(variant, params, t_transfer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "calibration.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_scan(args) -> int:
    cp = _load(args)
    variant, params = _gate_params(cp)
    if not cp.has_section("scan"):
        raise ConfigError("scan scenario needs a [scan] section")
    sec = cp["scan"]
    parameter = sec.get("parameter")
    metric = sec.get("metric", "rotation_fidelity")
    if "values_mhz" in sec:
        values = tuple(TWO_PI * float(v) for v in sec.get("values_mhz").split())
    elif "values" in sec:
        values = tuple(float(v) for v in sec.get("values").split())
    else:
        raise ConfigError("[scan] needs values or values_mhz")
    rows = scan(ScanSpec(variant=variant, base=params, parameter=parameter, values=values, metric=metric))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "scan.csv",
        ["value", "metric", "fidelity", "mean_loss", "t_bar_r_us", "error"],
        [[r.value, r.metric, r.fidelity, r.mean_loss, r.t_bar_r, r.error] for r in rows],
        [f"params: {json.dumps(_params_echo(variant, params), sort_keys=True)}",
         f"parameter: {parameter}  metric: {metric}"],
    )
    print(f"scan of {parameter}: {len(rows)} points -> {out / 'scan.csv'}")
    return 0


def cmd_noise(args) -> int:
    cp = _load(args)
    variant, params = _gate_params(cp)
    spec = _noise_spec(cp, _seed(args, cp))
    protocol = make_protocol(variant, params)
    result = monte_carlo_fidelity(protocol, spec, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, f in enumerate(result.fidelities):
        # realizations are replayable from the counter-based streams
        real = sample_realization(spec, protocol.basis.n_atoms, protocol.total_duration,
                                  shot_rng(spec.seed, i))
        dop = float(np.sqrt(np.mean(np.square(real.doppler_shifts)))) if real.doppler_shifts else 0.0
        imean = float(np.mean([np.mean(v) for v in real.intensity_factors.values()])) if real.intensity_factors else 1.0
        rows.append([i, dop, imean, float(f)])
    rows.append(["mean", 0.0, 1.0, result.mean_fidelity])
    rows.append(["std", 0.0, 0.0, result.std_fidelity])
    _write_csv(out / "noise.csv", ["shot", "doppler_rms_radus", "intensity_mean", "fidelity"], rows,
               [f"params: {json.dumps(_params_echo(variant, params), sort_keys=True)}",
                f"seed: {spec.seed}  n_shots: {spec.n_shots}"])
    summary = {
        "mean_fidelity": result.mean_fidelity,
        "std_fidelity": result.std_fidelity,
        "mean_infidelity": result.mean_infidelity,
        "n_shots": spec.n_shots,
        "seed": spec.seed,
        "params": _params_echo(variant, params),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"noise MC: mean fidelity {result.mean_fidelity:.6f} +- {result.std_fidelity:.6f} ({spec.n_shots} shots)")
    return 0


def cmd_trajectory(args) -> int:
    cp = _load(args)
    variant, params = _gate_params(cp)
    protocol = make_protocol(variant, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_trajectory(out / "trajectory.csv", protocol)
    print(f"trajectory written to {out / 'trajectory.csv'}")
    return 0


def cmd_tables(args) -> int:
    from .tables import reproduce_tables

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = reproduce_tables(out)
    print(report.text)
    return 0 if report.passed else 1


def _load(args) -> configparser.ConfigParser:
    if getattr(args, "preset", None):
        with resources.as_file(preset_path(args.preset)) as p:
            cp = _parse_config(p, args.set or [])
    elif getattr(args, "config", None) or args.set:
        cp = _parse_config(Path(args.config) if args.config else None, args.set or [])
    else:
        raise ConfigError("provide --config, --preset or --set overrides")
    kind = cp.get("scenario", "kind", fallback=args.command)
    if kind != args.command:
        raise ConfigError(f"config is a {kind!r} scenario, not {args.command!r}")
    if args.command != "noise" and cp.has_option("scenario", "seed"):
        raise ConfigError("scenario.seed is read only by the noise subcommand")
    for section in ("noise", "scan"):
        if args.command != section and cp.has_section(section):
            raise ConfigError(f"[{section}] is read only by the {section} subcommand")
    return cp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydswap",
        description="Pulse-level simulator of Rydberg exchange-gate protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help="bundled preset name (e.g. table1_swap)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("gate", help="run one gate and emit result tables")
    common(p)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("calibrate", help="calibrate the exchange duration")
    common(p)
    p.add_argument("--fidelity-objective", action="store_true",
                   help="also calibrate by full-gate fidelity")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("scan", help="one-parameter scan")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("noise", help="Monte Carlo noise run")
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: [scenario] seed, else 0)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for shots")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("trajectory", help="dump a population trajectory")
    common(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("tables", help="reproduce the published result tables against fixtures")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
