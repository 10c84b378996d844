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
import numbers
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
        if not (math.isfinite(self.temperature_K) and self.temperature_K >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature_K!r}")


@dataclass(frozen=True)
class IntensitySpec:
    """Relative Gaussian widths per drive family."""

    relative_widths: dict = field(default_factory=dict)  # family -> dI/I

    def __post_init__(self):
        for fam, w in self.relative_widths.items():
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"intensity width for {fam!r} must be finite and >= 0, got {w!r}")


@dataclass(frozen=True)
class NoiseSpec:
    doppler: DopplerSpec | None = None
    intensity: IntensitySpec | None = None
    n_shots: int = 40
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_shots, numbers.Integral):
            raise ValueError(f"n_shots must be an integer, got {self.n_shots!r}")
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        # a Philox key word is an unsigned 64-bit integer
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


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
    """Per shot, in shot order: the noise realization it ran under, its gate
    fidelity, and its report (which holds the shot's losses) when reports are kept."""

    fidelities: np.ndarray
    realizations: list[NoiseRealization]
    reports: list[GateReport] = field(default_factory=list)

    @property
    def mean_fidelity(self) -> float:
        return float(np.mean(self.fidelities))

    @property
    def std_fidelity(self) -> float:
        return float(np.std(self.fidelities))

    @property
    def mean_infidelity(self) -> float:
        return 1.0 - self.mean_fidelity


def _run_shot(protocol: GateProtocol, spec: NoiseSpec, shot: int) -> tuple[NoiseRealization, GateReport]:
    realization = sample_realization(spec, protocol.basis.n_atoms, protocol.total_duration, shot_rng(spec.seed, shot))
    try:
        return realization, run_gate(protocol, realization)
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
    whether shots run serially or across a process pool of min(jobs, shots)
    workers.  A jobs that is not an integer of at least 1, or an intensity
    width for a family that no drive of the protocol carries, raises
    ValueError before any shot runs.
    """
    if not (isinstance(jobs, numbers.Integral) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if spec.intensity is not None:
        carried = {d.family for stage in protocol.plan.stages for d in stage.spec.drives}
        unknown = sorted(set(spec.intensity.relative_widths) - carried)
        if unknown:
            raise ValueError(f"no drive of {protocol.variant} carries the intensity families {unknown} "
                             f"(drive families: {sorted(carried)})")
    shots = range(spec.n_shots)
    # a pool starts all its workers at the first submit, so it gets no more than there are shots
    workers = min(jobs, spec.n_shots)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_shot, [protocol] * spec.n_shots, [spec] * spec.n_shots, shots))
    else:
        runs = [_run_shot(protocol, spec, s) for s in shots]

    realizations, reports = map(list, zip(*runs))
    return MonteCarloResult(
        fidelities=np.array([r.fidelity for r in reports]),
        realizations=realizations,
        reports=reports if keep_reports else [],
    )
