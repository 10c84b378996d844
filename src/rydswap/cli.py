"""Batch front-end: config ingestion, scenario execution, CSV emission.

Configs are INI files with unit-suffixed keys (omega2_mhz, vct_ghz, temp_uk,
...).  One table, _SCHEMA, says for every key the field it fills, how its
value is read and which subcommands read it; every other key, every key the
running subcommand does not read, and every value that cannot be read or
that the library rejects is a ConfigError (exit 2).  Ordinary-frequency
values are multiplied by 2*pi on ingestion.  Every output directory receives a machine-readable
summary.json with the resolved parameter set echoed for provenance, plus
CSV blocks laid out like the published result tables (amplitude moduli,
phases in units of pi, per-input loss).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
from dataclasses import MISSING, asdict, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import presets as presets_pkg
from .analytic import calibrate_swap_time, swap_time_estimate
from .dynamics import propagate
from .gates import (
    GateParams,
    GateProtocol,
    VARIANTS,
    _member,
    calibrate_duration,
    make_protocol,
    run_gate,
    two_target_plan,
)
from .noise import (
    DopplerSpec,
    IntensitySpec,
    NoiseSpec,
    monte_carlo_fidelity,
)
from .sweep import ScanSpec, scan

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


def _number(scale: float = 1.0, per: float = 1.0):
    """Reader of a finite number, times scale over per."""
    def read(raw: str) -> float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        return value * scale / per
    return read


def _numbers(scale: float = 1.0):
    """Reader of a whitespace-separated list of numbers, each times scale."""
    one = _number(scale)
    return lambda raw: tuple(one(v) for v in raw.split())


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        value = float(raw)
        if not value.is_integer():
            raise ValueError("not an integer") from None
        return int(value)


def _lifetime(raw: str) -> float | None:
    """Lifetime in us; none, inf or off switch decay off."""
    return None if raw.lower() in ("none", "inf", "off") else _number()(raw)


_GATE = ("gate", "calibrate", "scan", "noise", "trajectory")  # the subcommands that read [gate]

# section.key -> (field it fills, reader, subcommands that read it).  Keys
# that fill one field are aliases, and the later one wins.  A [noise] field
# is prefixed by the spec part it fills.  Any other key is rejected, and so
# is a key the running subcommand does not read.
_SCHEMA = {
    "scenario.kind": ("kind", str, _GATE),
    "scenario.seed": ("seed", _integer, ("noise",)),
    "gate.variant": ("variant", str, _GATE),
    "gate.model": ("model", str, _GATE),
    "gate.omega1_max_mhz": ("omega1_max", _number(TWO_PI), _GATE),
    "gate.omega2_mhz": ("omega2", _number(TWO_PI), _GATE),
    "gate.delta_mhz": ("delta", _number(TWO_PI), _GATE),
    "gate.t_us": ("duration", _number(), _GATE),
    "gate.vtt_mhz": ("v_tt", _number(TWO_PI), _GATE),
    "gate.vct_ghz": ("v_ct", _number(TWO_PI * 1000.0), _GATE),
    "gate.vct_radus": ("v_ct", _number(), _GATE),
    "gate.lifetime_us": ("lifetime", _lifetime, _GATE),
    "gate.n_controls": ("n_controls", _integer, _GATE),
    "noise.temp_uk": ("doppler.temperature_K", _number(per=1e6), ("noise",)),
    "noise.di_i_omega1": ("widths.omega1", _number(), ("noise",)),
    "noise.di_i_omega2": ("widths.omega2", _number(), ("noise",)),
    "noise.n_shots": ("noise.n_shots", _integer, ("noise",)),
    "scan.parameter": ("parameter", str, ("scan",)),
    "scan.values_mhz": ("values", _numbers(TWO_PI), ("scan",)),
    "scan.values": ("values", _numbers(), ("scan",)),
}


def _parse_config(path: Path | None, overrides: list[str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, value = item.split("=", 1)
        section, k = key.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.remove_option(section, k)  # re-set last, so it is the later of any aliases
        cp.set(section, k, value)
    for section in cp.sections():
        for key in cp[section]:
            if f"{section}.{key}" not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return cp


def _read(cp: configparser.ConfigParser, section: str) -> dict:
    """The section's values by the field each key fills."""
    values = {}
    for key, raw in (cp[section].items() if cp.has_section(section) else ()):
        field, reader, _ = _SCHEMA[f"{section}.{key}"]
        try:
            values[field] = reader(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot read {section}.{key} = {raw!r}: {exc}") from None
    return values


def _keys(section: str, name: str) -> str:
    """The keys of section that fill field name, joined by 'or'."""
    return " or ".join(k.split(".")[1] for k, (field, _, _) in _SCHEMA.items()
                       if k.startswith(f"{section}.") and field.split(".")[-1] == name)


def _build(cls, section: str, given: dict, **fixed):
    """cls(**given, **fixed); a required field no key filled, or a value cls rejects, is a ConfigError.

    A rejection names the keys of the given fields its message names.
    """
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
               and f.name not in given and f.name not in fixed]
    if missing:
        raise ConfigError(f"[{section}] needs {', '.join(_keys(section, name) for name in missing)}")
    try:
        return cls(**given, **fixed)
    except ValueError as exc:
        raise _rejected(section, exc, given) from None


def _rejected(section: str, exc: ValueError, names) -> ConfigError:
    """exc as a ConfigError that names the keys of those fields in names its message names."""
    named = [_keys(section, name) for name in names if re.search(rf"\b{name}\b", str(exc))]
    return ConfigError(f"[{section}] {exc}" + (f" (set by {', '.join(named)})" if named else ""))


def _gate_params(cp: configparser.ConfigParser) -> tuple[str, GateParams]:
    given = _read(cp, "gate")
    variant = given.pop("variant", "SWAP")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown gate variant {variant!r}")
    params = _build(GateParams, "gate", given)
    try:
        _member(variant, params.n_controls)  # the number of controls the variant takes
    except ValueError as exc:
        raise ConfigError(f"[gate] {exc}") from None
    return variant, params


def _protocol(variant: str, params: GateParams) -> GateProtocol:
    """make_protocol(variant, params); a gate it rejects is a ConfigError naming the [gate] keys.

    Not checked in _gate_params, because a scan sets its parameter per point
    and its [gate] may leave that parameter (v_ct) out.
    """
    try:
        return make_protocol(variant, params)
    except ValueError as exc:
        raise _rejected("gate", exc, [f.name for f in fields(GateParams)]) from None


def _noise_spec(cp: configparser.ConfigParser) -> NoiseSpec:
    """The [noise] spec, seeded by [scenario] seed (default 0); a rejected seed is reported under [scenario]."""
    if not cp.has_section("noise"):
        raise ConfigError("noise scenario needs a [noise] section")
    parts = {"doppler": {}, "widths": {}, "noise": {}}
    for field, value in _read(cp, "noise").items():
        part, name = field.split(".")
        parts[part][name] = value
    doppler = _build(DopplerSpec, "noise", parts["doppler"]) if parts["doppler"] else None
    intensity = _build(IntensitySpec, "noise", {}, relative_widths=parts["widths"]) if parts["widths"] else None
    spec = _build(NoiseSpec, "noise", parts["noise"], doppler=doppler, intensity=intensity)
    try:
        return replace(spec, seed=_read(cp, "scenario").get("seed", spec.seed))
    except ValueError as exc:
        raise _rejected("scenario", exc, ["seed"]) from None


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv(header: list[str], rows: list[list], preamble: list[str] = ()) -> str:
    lines = [f"# {p}" for p in preamble]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def _params_echo(variant: str, params: GateParams) -> dict:
    d = asdict(params)
    d["variant"] = variant
    return {k: (v if not isinstance(v, float) else float(f"{v:.12g}")) for k, v in d.items()}


def _params_line(variant: str, params: GateParams) -> str:
    return f"params: {json.dumps(_params_echo(variant, params), sort_keys=True)}"


def preset_path(name: str):
    ref = resources.files(presets_pkg).joinpath(f"{name}.cfg")
    if not ref.is_file():
        available = sorted(p.name[:-4] for p in resources.files(presets_pkg).iterdir() if p.name.endswith(".cfg"))
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    return ref


# Each cmd_* but cmd_tables takes (args, cp, variant, params) and returns the
# files to write into --out, by name, and the line to print.

def cmd_gate(args, cp, variant, params):
    protocol = _protocol(variant, params)
    report = run_gate(protocol)
    n = report.u_gate.shape[0]
    labels = [format(i, f"0{int(math.log2(n))}b") for i in range(n)]
    preamble = [_params_line(variant, params)]
    amplitudes = [[labels[j]] + [float(abs(report.rotation_matrix[i, j])) for i in range(n)] for j in range(n)]
    phases = [
        [labels[j]]
        + [
            float(np.angle(report.u_gate[i, j]) / math.pi) if abs(report.u_gate[i, j]) > 1e-6 else 0.0
            for i in range(n)
        ]
        for j in range(n)
    ]
    files = {
        "amplitudes.csv": _csv(["in"] + labels, amplitudes, preamble),
        "phases.csv": _csv(["in"] + labels, phases, preamble + ["phases in units of pi"]),
        "loss.csv": _csv(["in", "loss"], [[labels[j], float(report.per_input_loss[j])] for j in range(n)], preamble),
        "summary.json": _json({
            "variant": variant,
            "fidelity": report.fidelity,
            "fidelity_with_loss": report.fidelity_with_loss,
            "mean_loss": report.mean_loss,
            "t_bar_r_us": report.t_bar_r,
            "total_duration_us": protocol.total_duration,
            "params": _params_echo(variant, params),
        }),
    }
    return files, (f"{variant}: fidelity {report.fidelity:.6f} (with loss {report.fidelity_with_loss:.6f}), "
                   f"mean loss {report.mean_loss:.3e}, T_bar_r {report.t_bar_r:.4f} us")


def cmd_calibrate(args, cp, variant, params):
    if args.fidelity_objective:
        _protocol(variant, params)  # the gate calibrate_duration runs
    t_est, t_half = swap_time_estimate(params.omega1_max, params.delta)
    plan_factory = lambda t: two_target_plan(params, t)
    basis = plan_factory(1.0).basis
    psi_in = basis.basis_state(("0", "1"))
    out_index = basis.index_of(("1", "0"))
    transfer = abs(_member(variant, params.n_controls)[0].exchange[2][1])  # |<10|E|01>|
    target = transfer if transfer < 1 else None
    seed = t_half if target is None else t_half / 2.0
    t_transfer = calibrate_swap_time(plan_factory, psi_in, out_index, seed, transfer_target=target)
    result = {
        "t_estimate_us": t_est,
        "t_estimate_half_us": t_half,
        "t_transfer_calibrated_us": t_transfer,
        "params": _params_echo(variant, params),
    }
    if args.fidelity_objective:
        result["t_fidelity_calibrated_us"] = calibrate_duration(variant, params, t_transfer)
    text = _json(result)
    return {"calibration.json": text}, text.rstrip("\n")


def cmd_scan(args, cp, variant, params):
    spec = _build(ScanSpec, "scan", _read(cp, "scan"), variant=variant, base=params)
    rows = scan(spec)
    text = _csv(
        ["value", "metric", "fidelity", "mean_loss", "t_bar_r_us", "error"],
        [[r.value, r.metric, r.fidelity, r.mean_loss, r.t_bar_r, r.error] for r in rows],
        [_params_line(variant, params), f"parameter: {spec.parameter}  metric: rotation_fidelity"],
    )
    return {"scan.csv": text}, f"scan of {spec.parameter}: {len(rows)} points -> {Path(args.out) / 'scan.csv'}"


def cmd_noise(args, cp, variant, params):
    """Monte Carlo run: one noise.csv row per shot, read from the realization that shot ran under."""
    spec = _noise_spec(cp)
    result = monte_carlo_fidelity(_protocol(variant, params), spec, jobs=args.jobs)
    rows = []
    for i, (f, real) in enumerate(zip(result.fidelities, result.realizations)):
        dop = float(np.sqrt(np.mean(np.square(real.doppler_shifts)))) if real.doppler_shifts else 0.0
        imean = float(np.mean([np.mean(v) for v in real.intensity_factors.values()])) if real.intensity_factors else 1.0
        rows.append([i, dop, imean, float(f)])
    rows.append(["mean", 0.0, 1.0, result.mean_fidelity])
    rows.append(["std", 0.0, 0.0, result.std_fidelity])
    files = {
        "noise.csv": _csv(["shot", "doppler_rms_radus", "intensity_mean", "fidelity"], rows,
                          [_params_line(variant, params), f"seed: {spec.seed}  n_shots: {spec.n_shots}"]),
        "summary.json": _json({
            "mean_fidelity": result.mean_fidelity,
            "std_fidelity": result.std_fidelity,
            "mean_infidelity": result.mean_infidelity,
            "n_shots": spec.n_shots,
            "seed": spec.seed,
            "params": _params_echo(variant, params),
        }),
    }
    return files, (f"noise MC: mean fidelity {result.mean_fidelity:.6f} +- {result.std_fidelity:.6f} "
                   f"({spec.n_shots} shots)")


def cmd_trajectory(args, cp, variant, params):
    protocol = _protocol(variant, params)
    basis = protocol.basis
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[basis.comp_indices[1 if basis.n_atoms > 1 else 0]] = 1.0
    res = propagate(protocol.plan, psi0, record_populations=True)
    header = ["t_us"] + ["".join(basis.labels_of(i)) for i in range(basis.dim)] + ["p_rydberg", "norm"]
    p_rydberg = res.population_traj @ basis.rydberg_projector_diagonal()
    rows = [[float(t)] + [float(x) for x in pops] + [float(p), float(pops.sum())]
            for t, pops, p in zip(res.times, res.population_traj, p_rydberg)]
    return {"trajectory.csv": _csv(header, rows)}, f"trajectory written to {Path(args.out) / 'trajectory.csv'}"


def cmd_tables(args) -> int:
    from .tables import reproduce_tables

    report = reproduce_tables(Path(args.out))
    print(report.text)
    return 1 if report.failures else 0


def _load(args) -> configparser.ConfigParser:
    """The config of --preset or --config with the --set overrides, then --seed as scenario.seed."""
    overrides = (args.set or []) + ([f"scenario.seed={args.seed}"] if getattr(args, "seed", None) is not None else [])
    if args.preset:
        with resources.as_file(preset_path(args.preset)) as p:
            cp = _parse_config(p, overrides)
    elif args.config or args.set:
        cp = _parse_config(Path(args.config) if args.config else None, overrides)
    else:
        raise ConfigError("provide --config, --preset or --set overrides")
    kind = _read(cp, "scenario").get("kind", args.command)
    if kind != args.command:
        raise ConfigError(f"config is a {kind!r} scenario, not {args.command!r}")
    for section in cp.sections():
        for key in cp[section]:
            if args.command not in _SCHEMA[f"{section}.{key}"][2]:
                raise ConfigError(f"[{section}] {key} is not read by the {args.command} subcommand")
    return cp


def _gate_command(cmd):
    """Run cmd on the loaded config and its gate, then write the files it returns into --out."""
    def run(args) -> int:
        cp = _load(args)
        variant, params = _gate_params(cp)
        files, line = cmd(args, cp, variant, params)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
        print(line)
        return 0
    return run


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydswap",
        description="Pulse-level simulator of Rydberg exchange-gate protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def gate_command(name, cmd, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help="bundled preset name (e.g. table1_swap)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=_gate_command(cmd))
        return p

    gate_command("gate", cmd_gate, "run one gate and emit result tables")
    p = gate_command("calibrate", cmd_calibrate, "calibrate the exchange duration")
    p.add_argument("--fidelity-objective", action="store_true",
                   help="also calibrate by full-gate fidelity")
    gate_command("scan", cmd_scan, "one-parameter scan")
    p = gate_command("noise", cmd_noise, "Monte Carlo noise run")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; overrides [scenario] seed (default 0)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for shots (at least 1)")
    gate_command("trajectory", cmd_trajectory, "dump a population trajectory")

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
