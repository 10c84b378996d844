"""Declarative rotating-frame Hamiltonians for driven multi-atom systems.

All frequencies are angular (rad/us) and all times are in microseconds;
config-file ingestion multiplies ordinary MHz/GHz values by 2*pi before they
reach this layer.  The Hamiltonian assembled here is

    H(t) = sum_drives (Omega(t)/2)(|upper><lower| + h.c.)
         + static frame detunings + drive detunings
         + pairwise interaction shifts on doubly-Rydberg product states
         - (i/2) * decay-rate diagonal,

i.e. a Hermitian part plus a purely imaginary decay diagonal whose norm loss
is reported downstream as Rydberg loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ProductBasis

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Envelope:
    """Time envelope of a drive amplitude.

    kind is one of ``truncated_gaussian``, ``square`` or ``zero``.  The
    truncated Gaussian is

        amplitude * (exp(-(t - t_mid)^2 / 2 sigma^2) - exp(-(T/2)^2 / 2 sigma^2))

    inside [t_start, t_end] and exactly zero at both endpoints and outside;
    the square envelope is amplitude on [t_start, t_end) and zero outside.
    """

    kind: str
    amplitude: float = 0.0
    t_start: float = 0.0
    t_end: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("truncated_gaussian", "square", "zero"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "truncated_gaussian" and self.sigma <= 0:
            raise ValueError("truncated_gaussian needs sigma > 0")


def envelope_value(env: Envelope, t):
    """Evaluate an envelope at time t (us, a float or an array), in rad/us."""
    if env.kind == "zero":
        return 0.0 * t
    if env.kind == "square":
        return env.amplitude * ((env.t_start <= t) & (t < env.t_end))
    # truncated_gaussian
    half = 0.5 * (env.t_end - env.t_start)
    t_mid = env.t_start + half
    core = np.exp(-((t - t_mid) ** 2) / (2.0 * env.sigma**2))
    floor = math.exp(-(half**2) / (2.0 * env.sigma**2))
    return env.amplitude * (core - floor) * ((env.t_start <= t) & (t <= env.t_end))


def gaussian_pulse(amplitude: float, t_start: float, duration: float, sigma_ratio: float = 0.25) -> Envelope:
    """Truncated Gaussian with sigma = sigma_ratio * duration."""
    return Envelope(
        "truncated_gaussian",
        amplitude=amplitude,
        t_start=t_start,
        t_end=t_start + duration,
        sigma=sigma_ratio * duration,
    )


def square_pulse(amplitude: float, t_start: float, duration: float) -> Envelope:
    return Envelope("square", amplitude=amplitude, t_start=t_start, t_end=t_start + duration)


@dataclass(frozen=True)
class DriveTerm:
    """A single coherent coupling between two levels of one atom.

    detuning is a static angular frequency added to the upper level while the
    spec is active.  doppler_sensitive marks optical Rydberg drives whose
    upper level picks up the atom's sampled Doppler shift in a noisy run;
    microwave logical drives leave it False.  family tags the drive for
    intensity-noise grouping ("omega1", "omega2", "omega_c", ...).
    """

    atom: int
    lower: str
    upper: str
    envelope: Envelope
    detuning: float = 0.0
    doppler_sensitive: bool = False
    family: str = ""

    def __post_init__(self):
        if self.lower == self.upper:
            raise ValueError("drive needs two distinct levels")


@dataclass(frozen=True)
class InteractionGraph:
    """Pairwise diagonal shifts between Rydberg-flagged levels.

    entries maps (atom_i, level_a, atom_j, level_b) -> shift V in rad/us,
    applied on product states where atom_i occupies level_a and atom_j
    occupies level_b.  Entries are stored with atom_i < atom_j; lookups are
    symmetric under the (i, a) <-> (j, b) exchange.
    """

    entries: tuple[tuple[int, str, int, str, float], ...] = ()

    @staticmethod
    def from_dict(d: dict) -> "InteractionGraph":
        items = []
        for (i, a, j, b), v in d.items():
            if i == j:
                raise ValueError("interaction needs two distinct atoms")
            if i > j:
                i, a, j, b = j, b, i, a
            items.append((i, a, j, b, float(v)))
        items.sort()
        return InteractionGraph(tuple(items))

    def diagonal(self, basis: ProductBasis) -> np.ndarray:
        diag = np.zeros(basis.dim)
        for i, a, j, b, v in self.entries:
            for atom, lev in ((i, a), (j, b)):
                if not basis.schemes[atom].rydberg_flags[basis.schemes[atom].level_index(lev)]:
                    raise ValueError(f"interaction on non-Rydberg level {lev!r} of atom {atom}")
            mask = basis.occupation_mask(i, a) & basis.occupation_mask(j, b)
            diag[mask] += v
        return diag


@dataclass(frozen=True)
class NoiseRealization:
    """One Monte Carlo draw of the noise channels.

    doppler_shifts: static per-atom detuning (rad/us) added to the upper
    level of every Doppler-sensitive drive for the whole shot.
    intensity_factors: per drive family, a piecewise-constant multiplicative
    factor resampled every update_interval; factor k applies on
    [k*dt_u, (k+1)*dt_u).
    """

    doppler_shifts: tuple[float, ...] = ()
    intensity_factors: dict = field(default_factory=dict)
    update_interval: float = 0.01

    def intensity_at(self, family: str, t):
        """Intensity factor of a family at time t (us, a float or an array)."""
        factors = self.intensity_factors.get(family)
        if factors is None:
            return 1.0
        k = np.clip(np.asarray(t) / self.update_interval, 0, len(factors) - 1).astype(int)
        return np.asarray(factors)[k]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Everything needed to evaluate H(t) on a product basis.

    collective_pairs restricts the named atom pairs to the single-excitation
    collective manifold: product states with both pair members in Rydberg
    levels are projected out, and a logical (non-Rydberg) drive on one member
    acts only while its partners are in logical levels.  This is the
    truncation under which the exchange proceeds exclusively through the
    symmetric single-excitation state; the empty default keeps the complete
    product space.
    """

    basis: ProductBasis
    drives: tuple[DriveTerm, ...] = ()
    interactions: InteractionGraph = InteractionGraph()
    frame_detunings: tuple[tuple[int, str, float], ...] = ()
    collective_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for d in self.drives:
            scheme = self.basis.schemes[d.atom]
            scheme.level_index(d.lower)
            scheme.level_index(d.upper)

    def _rydberg_mask(self, atom: int) -> np.ndarray:
        """Mask of basis states where ``atom`` occupies a Rydberg level."""
        scheme = self.basis.schemes[atom]
        levels = self.basis.level_arrays()[atom]
        flags = np.asarray(scheme.rydberg_flags)
        return flags[levels]

    def blocked_states(self) -> np.ndarray:
        """Mask of product states excluded by the collective truncation."""
        blocked = np.zeros(self.basis.dim, dtype=bool)
        for i, j in self.collective_pairs:
            blocked |= self._rydberg_mask(i) & self._rydberg_mask(j)
        return blocked

    def static_diagonal(self) -> np.ndarray:
        """Frame detunings + drive detunings + interactions, real rad/us."""
        diag = np.zeros(self.basis.dim)
        for atom, label, energy in self.frame_detunings:
            diag[self.basis.occupation_mask(atom, label)] += energy
        for d in self.drives:
            if d.detuning:
                diag[self.basis.occupation_mask(d.atom, d.upper)] += d.detuning
        diag += self.interactions.diagonal(self.basis)
        return diag

    def frame_energy(self, labels) -> float:
        """Static frame energy of one labelled product state (rad/us)."""
        e = 0.0
        for atom, label, energy in self.frame_detunings:
            if labels[atom] == label:
                e += energy
        return e

    def coupling_matrices(self) -> list[np.ndarray]:
        """(|upper><lower| + h.c.)/2 embedded per drive, in drive order.

        Under the collective truncation, logical drives are gated on the
        partner atoms being logical, and all couplings into the projected-out
        doubly-Rydberg pair states are zeroed.
        """
        blocked = self.blocked_states()
        mats = []
        for d in self.drives:
            scheme = self.basis.schemes[d.atom]
            n = scheme.n_levels
            op = np.zeros((n, n), dtype=complex)
            op[scheme.level_index(d.upper), scheme.level_index(d.lower)] = 0.5
            op += op.conj().T
            mat = self.basis.single_atom_operator(d.atom, op)

            logical_drive = not (
                scheme.rydberg_flags[scheme.level_index(d.lower)]
                or scheme.rydberg_flags[scheme.level_index(d.upper)]
            )
            gate = ~blocked
            if logical_drive:
                for i, j in self.collective_pairs:
                    partner = j if d.atom == i else (i if d.atom == j else None)
                    if partner is not None:
                        gate = gate & ~self._rydberg_mask(partner)
            if not gate.all():
                mat = mat * gate[None, :] * gate[:, None]
            mats.append(mat)
        return mats


@dataclass(frozen=True)
class BlockGroup:
    """Equal-size diagonal blocks of one stage's H(t).

    index[b] lists the basis states of block b in increasing order.  At drive
    factors f (one per drive) block b of H is

        diag(energy[b]) + sum_d f_d couplings[d, b] - (i/2) diag(decay[b]).
    """

    index: np.ndarray  # (n_blocks, d) basis indices
    energy: np.ndarray  # (n_blocks, d) static diagonal, rad/us
    decay: np.ndarray  # (n_blocks, d) decay rates, 1/us
    couplings: np.ndarray  # (n_drives, n_blocks, d, d)

    def hermitian_stack(self, factors: np.ndarray) -> np.ndarray:
        """Hermitian part of every block per row of factors: (steps, n_blocks, d, d)."""
        h = np.tensordot(factors, self.couplings, axes=1)
        diag = np.arange(self.index.shape[1])
        h[..., diag, diag] += self.energy
        return h


class HamiltonianEvaluator:
    """Caches the static parts of H(t) for fast repeated evaluation.

    Splits H(t) = H_static + sum_d f_d(t) K_d with K_d the drive coupling
    matrices; only the scalar envelope values are recomputed per step.
    Envelopes are read at stage time t, intensity noise at the global time
    t_offset + t.
    """

    def __init__(self, spec: HamiltonianSpec, noise: NoiseRealization | None = None, t_offset: float = 0.0):
        self.spec = spec
        self.noise = noise
        self.t_offset = t_offset
        basis = spec.basis
        diag = spec.static_diagonal().astype(complex)
        if noise is not None and noise.doppler_shifts:
            if len(noise.doppler_shifts) != basis.n_atoms:
                raise ValueError("doppler_shifts length must equal atom count")
            # One shift per (atom, upper level) even if several sensitive
            # drives share that level.
            shifted = {(d.atom, d.upper) for d in spec.drives if d.doppler_sensitive}
            for atom, upper in shifted:
                mask = basis.occupation_mask(atom, upper)
                diag[mask] += noise.doppler_shifts[atom]
        diag -= 0.5j * basis.decay_diagonal()
        diag[spec.blocked_states()] = 0.0
        self._static = np.diag(diag)
        self._couplings = spec.coupling_matrices()

    def _factor(self, drive: DriveTerm, t):
        """Amplitude of one drive at stage time t (a float or an array)."""
        f = envelope_value(drive.envelope, t)
        if self.noise is not None:
            f = f * self.noise.intensity_at(drive.family, self.t_offset + t)
        return f

    def __call__(self, t: float) -> np.ndarray:
        h = self._static.copy()
        for d, k in zip(self.spec.drives, self._couplings):
            f = self._factor(d, t)
            if f != 0.0:
                h += f * k
        return h

    def drive_factors(self, times: np.ndarray) -> np.ndarray:
        """Drive amplitudes f_d(t), shape (len(times), n_drives)."""
        f = np.zeros((len(times), len(self.spec.drives)))
        for j, d in enumerate(self.spec.drives):
            f[:, j] = self._factor(d, times)
        return f

    def block_groups(self) -> list[BlockGroup]:
        """H split into the connected components of its coupling pattern.

        Blocks of equal size form one group; groups come in increasing
        block size.
        """
        # Imported here: at module level it measured about 10% of the
        # library's import time, which only propagation needs.
        from scipy.sparse.csgraph import connected_components

        dim = self.spec.basis.dim
        pattern = np.zeros((dim, dim), dtype=bool)
        for k in self._couplings:
            pattern |= k != 0
        n_blocks, labels = connected_components(pattern, directed=False)
        members = [np.flatnonzero(labels == b) for b in range(n_blocks)]
        groups = []
        for size in sorted({len(m) for m in members}):
            index = np.array([m for m in members if len(m) == size])
            rows, cols = index[:, :, None], index[:, None, :]
            # couplings are real (coupling_matrices), and real stacks take the faster real eigh
            couplings = np.array([k[rows, cols].real for k in self._couplings]).reshape(-1, *index.shape, size)
            diag = np.diagonal(self._static)[index]
            groups.append(BlockGroup(index, diag.real, -2.0 * diag.imag, couplings))
        return groups


def standard_target_frame(basis: ProductBasis, delta: float, atoms=None) -> tuple[tuple[int, str, float], ...]:
    """Frame detunings placing each target's |1> at +delta.

    Per-atom assignment E(|0>) = 0, E(|1>) = delta, E(|r>) = 0: the microwave
    0<->1 drive is red-detuned by delta, the optical 1<->r drive blue-detuned
    by delta, and the two-photon 0->r transition is resonant.  Collective
    two-target energies then reproduce the (+delta, 0, -delta) ladder of the
    rotating-frame model up to a global shift of delta.
    """
    if atoms is None:
        atoms = range(basis.n_atoms)
    return tuple((a, "1", delta) for a in atoms)
