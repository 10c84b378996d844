"""Monte Carlo noise models: Doppler dephasing and laser-intensity drift.

Thermal motion gives each atom a static Doppler shift per shot, sampled
Gaussian with sigma = k_eff * v_rms and applied to the optical Rydberg
drives only (the microwave wavevector is negligible).  Intensity drift
multiplies each drive family's Rabi frequency by an independent Gaussian
factor resampled every 10 ns (model.INTENSITY_INTERVAL).  Shots draw from
counter-based Philox streams keyed (seed, shot), so parallel execution is
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import GateProtocol, GateReport, run_gate
from .model import INTENSITY_INTERVAL, NoiseRealization

KB = 1.380649e-23  # J/K

# 133Cs mass and the wavelengths of the two counter-propagating excitation beams.
CS_MASS_KG = 2.2069e-25
LAMBDA_BLUE_M = 459.6e-9
LAMBDA_IR_M = 1040e-9


@dataclass(frozen=True)
class DopplerSpec:
    temperature_K: float

    def __post_init__(self):
        if self.temperature_K < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class IntensitySpec:
    """Relative Gaussian widths per drive family."""

    relative_widths: dict = field(default_factory=dict)  # family -> dI/I

    def __post_init__(self):
        for fam, w in self.relative_widths.items():
            if w < 0:
                raise ValueError(f"negative intensity width for {fam!r}")


@dataclass(frozen=True)
class NoiseSpec:
    doppler: DopplerSpec | None = None
    intensity: IntensitySpec | None = None
    n_shots: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")


def doppler_sigma(spec: DopplerSpec) -> float:
    """Doppler detuning width sigma = k_eff * v_rms, rad/us.

    k_eff = 2*pi |1/l1 - 1/l2| for the counter-propagating 459.6 and 1040 nm
    beams; v_rms = sqrt(kB T / M) for 133Cs.
    """
    k_eff = 2.0 * math.pi * abs(1.0 / LAMBDA_BLUE_M - 1.0 / LAMBDA_IR_M)
    v_rms = math.sqrt(KB * spec.temperature_K / CS_MASS_KG)  # m/s
    return k_eff * v_rms * 1e-6  # rad/s -> rad/us


def shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Counter-based stream for one shot: reproducible and order-free."""
    return np.random.Generator(np.random.Philox(key=[seed, shot]))


def sample_realization(
    spec: NoiseSpec, n_atoms: int, duration: float, rng: np.random.Generator
) -> NoiseRealization:
    """Draw one shot: static per-atom Doppler shifts plus intensity tracks.

    Intensity factors are 1 + xi with xi ~ N(0, width), clipped to
    [0, 1 + 5*width].
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    shifts = (0.0,) * n_atoms
    if spec.doppler is not None and spec.doppler.temperature_K > 0:
        sigma = doppler_sigma(spec.doppler)
        shifts = tuple(float(x) for x in rng.normal(0.0, sigma, size=n_atoms))

    if spec.intensity is None:
        return NoiseRealization(doppler_shifts=shifts)
    n_intervals = max(1, math.ceil(duration / INTENSITY_INTERVAL))
    factors = {}
    for family, width in sorted(spec.intensity.relative_widths.items()):
        if width == 0.0:
            continue
        xi = rng.normal(0.0, width, size=n_intervals)
        factors[family] = np.clip(1.0 + xi, 0.0, 1.0 + 5.0 * width)
    return NoiseRealization(doppler_shifts=shifts, intensity_factors=factors)


@dataclass
class MonteCarloResult:
    mean_fidelity: float
    std_fidelity: float
    fidelities: np.ndarray
    mean_loss: float
    reports: list[GateReport] = field(default_factory=list)

    @property
    def mean_infidelity(self) -> float:
        return 1.0 - self.mean_fidelity


def _run_shot(protocol: GateProtocol, spec: NoiseSpec, shot: int) -> GateReport:
    rng = shot_rng(spec.seed, shot)
    realization = sample_realization(
        spec, protocol.basis.n_atoms, protocol.total_duration, rng
    )
    try:
        return run_gate(protocol, realization)
    except Exception as exc:
        raise RuntimeError(f"shot {shot} (seed {spec.seed}) failed: {exc}") from exc


def monte_carlo_fidelity(
    protocol: GateProtocol,
    spec: NoiseSpec,
    jobs: int = 1,
    keep_reports: bool = False,
) -> MonteCarloResult:
    """Average the gate fidelity over independent noise shots.

    Shot i draws from the Philox stream (seed, i), so results are identical
    whether shots run serially or across a process pool.
    """
    shots = range(spec.n_shots)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_shot, [protocol] * spec.n_shots, [spec] * spec.n_shots, shots))
    else:
        reports = [_run_shot(protocol, spec, s) for s in shots]

    fids = np.array([r.fidelity for r in reports])
    return MonteCarloResult(
        mean_fidelity=float(np.mean(fids)),
        std_fidelity=float(np.std(fids)),
        fidelities=fids,
        mean_loss=float(np.mean([r.mean_loss for r in reports])),
        reports=reports if keep_reports else [],
    )
