"""Declarative rotating-frame Hamiltonians for driven multi-atom systems.

All frequencies are angular (rad/us) and all times are in microseconds;
config-file ingestion multiplies ordinary MHz/GHz values by 2*pi before they
reach this layer.  The Hamiltonian assembled here is

    H(t) = sum_drives (Omega(t)/2)(|upper><lower| + h.c.)
         + static frame detunings
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
INTENSITY_INTERVAL = 0.01  # us between laser-intensity noise resamples


@dataclass(frozen=True)
class Envelope:
    """Shape and peak of a drive amplitude over its stage.

    kind is ``truncated_gaussian`` or ``square``.  An envelope spans the
    stage it drives: only the stage's duration T says when it is on.  The
    truncated Gaussian is

        amplitude * (exp(-(t - T/2)^2 / 2 sigma^2) - exp(-(T/2)^2 / 2 sigma^2))

    with sigma = T/4, exactly zero at t = 0 and t = T; the square envelope
    is amplitude on all of [0, T].  A drive on for part of the time is a
    stage of its own.
    """

    kind: str
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("truncated_gaussian", "square"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")


def envelope_value(env: Envelope, t, duration: float):
    """Evaluate an envelope at time t (us, a float or an array) into a stage of that duration, in rad/us."""
    if env.kind == "square":
        return np.full(np.shape(t), env.amplitude)
    # truncated_gaussian
    half = 0.5 * duration
    sigma = 0.25 * duration
    core = np.exp(-((t - half) ** 2) / (2.0 * sigma**2))
    floor = math.exp(-(half**2) / (2.0 * sigma**2))
    return env.amplitude * (core - floor)


def gaussian_pulse(amplitude: float) -> Envelope:
    """Truncated Gaussian over its stage, sigma = a quarter of the stage."""
    return Envelope("truncated_gaussian", amplitude=amplitude)


def square_pulse(amplitude: float) -> Envelope:
    return Envelope("square", amplitude=amplitude)


@dataclass(frozen=True)
class DriveTerm:
    """A single coherent coupling between two levels of one atom.

    A drive carries no energy: static level energies are the spec's
    frame_detunings.  doppler_sensitive marks optical Rydberg drives whose
    upper level picks up the atom's sampled Doppler shift in a noisy run;
    microwave logical drives leave it False.  family tags the drive for
    intensity-noise grouping ("omega1", "omega2", "omega_c", ...).
    """

    atom: int
    lower: str
    upper: str
    envelope: Envelope
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
    occupies level_b.  from_dict stores each entry with atom_i < atom_j.
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
    factor resampled every INTENSITY_INTERVAL; factor k applies on
    [k*INTENSITY_INTERVAL, (k+1)*INTENSITY_INTERVAL).
    """

    doppler_shifts: tuple[float, ...] = ()
    intensity_factors: dict = field(default_factory=dict)

    def intensity_at(self, family: str, t):
        """Intensity factor of a family at time t (us, a float or an array)."""
        factors = self.intensity_factors.get(family)
        if factors is None:
            return 1.0
        k = np.clip(np.asarray(t) / INTENSITY_INTERVAL, 0, len(factors) - 1).astype(int)
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

    def blocked_states(self) -> np.ndarray:
        """Mask of product states excluded by the collective truncation."""
        ryd = self.basis.rydberg_masks()
        blocked = np.zeros(self.basis.dim, dtype=bool)
        for i, j in self.collective_pairs:
            blocked |= ryd[i] & ryd[j]
        return blocked

    def static_diagonal(self) -> np.ndarray:
        """Frame detunings + interactions, real rad/us."""
        diag = np.zeros(self.basis.dim)
        for atom, label, energy in self.frame_detunings:
            diag[self.basis.occupation_mask(atom, label)] += energy
        diag += self.interactions.diagonal(self.basis)
        return diag

    def drive_edges(self) -> np.ndarray:
        """The basis-state pairs the drives couple: rows drive, lower state, upper state.

        Under the collective truncation, logical drives act only while the
        partner atoms are logical, and no pair touches a projected-out
        doubly-Rydberg state.
        """
        basis, ryd, levels = self.basis, self.basis.rydberg_masks(), self.basis.level_arrays()
        blocked = self.blocked_states()
        edges = [np.zeros((3, 0), dtype=int)]
        for k, d in enumerate(self.drives):
            scheme = basis.schemes[d.atom]
            lo, up = scheme.level_index(d.lower), scheme.level_index(d.upper)
            gate = ~blocked
            if not (scheme.rydberg_flags[lo] or scheme.rydberg_flags[up]):
                for i, j in self.collective_pairs:
                    if d.atom in (i, j):
                        gate = gate & ~ryd[j if d.atom == i else i]
            src = np.flatnonzero((levels[d.atom] == lo) & gate)
            dst = src + (up - lo) * (basis.dim // math.prod(s.n_levels for s in basis.schemes[: d.atom + 1]))
            keep = gate[dst]
            edges.append(np.array([np.full(np.sum(keep), k), src[keep], dst[keep]]))
        return np.concatenate(edges, axis=1)

    def coupling_matrices(self) -> np.ndarray:
        """(|upper><lower| + h.c.)/2 per drive, in drive order, on the pairs of drive_edges."""
        drive, src, dst = self.drive_edges()
        mats = np.zeros((len(self.drives), self.basis.dim, self.basis.dim), dtype=complex)
        mats[drive, src, dst] = mats[drive, dst, src] = 0.5
        return mats

    def block_groups(self) -> tuple[BlockGroup, ...]:
        """H's diagonal blocks by increasing size, derived from the atoms and cached by structure.

        Undriven atoms keep their level, which labels the blocks.  Driven
        atoms that no interaction or collective pair links form separate
        clusters, and a block is the Kronecker product of one coupled
        component per cluster.  Labels that shift a cluster alike share its
        factor rows.
        """
        key = (self.basis, tuple((d.atom, d.lower, d.upper) for d in self.drives), self.interactions,
               self.collective_pairs)
        if key not in _BLOCK_GROUPS:
            if len(_BLOCK_GROUPS) >= 64:
                _BLOCK_GROUPS.clear()
            _BLOCK_GROUPS[key] = _derive_block_groups(self)
        return _BLOCK_GROUPS[key]


@dataclass(frozen=True)
class BlockGroup:
    """Equal-shape diagonal blocks of one stage's H(t), as Kronecker products.

    index[b] lists block b's basis states in the Kronecker order of its
    factors, the first most significant.  Factor k stacks the distinct
    Hamiltonians of one cluster: row r lives on the basis states
    factor_index[k][r], along which only the cluster's atoms change level.
    Its diagonal is H's there minus the entry at the first of them, and at
    drive factors f_d its couplings are sum_d f_d factor_couplings[k][d, r].
    Block b is the Kronecker sum of the rows rows[b] plus, on its whole
    diagonal, H's entry at index[b, 0].  Without factors the blocks are 1-dim.
    """

    index: np.ndarray  # (n_blocks, d) basis indices
    rows: np.ndarray  # (n_blocks, n_factors)
    factor_index: tuple[np.ndarray, ...]  # per factor (n_rows, d_k)
    factor_couplings: tuple[np.ndarray, ...]  # per factor (n_drives, n_rows, d_k, d_k), real

    def __post_init__(self):
        for a in (self.index, self.rows, *self.factor_index, *self.factor_couplings):
            a.setflags(write=False)  # groups are cached and shared


# Block structures by (basis, drive level pairs, interactions, collective
# pairs).  The energies enter at propagation time, so the Monte Carlo shots
# and the detuning, amplitude and duration scan points of a protocol share one.
_BLOCK_GROUPS: dict = {}


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Smallest member of each node's connected component under the edges i-j."""
    label, i, j = np.arange(n), np.concatenate([i, j]), np.concatenate([j, i])
    while True:
        new = label.copy()
        np.minimum.at(new, i, label[j])
        if np.array_equal(new, label):
            return label
        label = new


def _derive_block_groups(spec: HamiltonianSpec) -> tuple[BlockGroup, ...]:
    """H's blocks from the atoms; see HamiltonianSpec.block_groups."""
    basis, (drive, src, dst) = spec.basis, spec.drive_edges()
    levels = np.array(basis.level_arrays()).T  # (dim, n_atoms)
    block_of = _components(basis.dim, src, dst)
    driven = sorted({d.atom for d in spec.drives})
    links = [(i, j) for i, _, j, _, _ in spec.interactions.entries] + list(spec.collective_pairs)
    links = np.array([link for link in links if set(link) <= set(driven)], dtype=int).reshape(-1, 2)
    cluster_of = _components(basis.n_atoms, links[:, 0], links[:, 1])
    clusters = [[a for a in driven if cluster_of[a] == c] for c in dict.fromkeys(cluster_of[driven])]
    shifts = spec.interactions.diagonal(basis)

    groups: dict = {}  # factor sizes -> (blocks, block rows, per factor {key: row}, per factor [(index, couplings)])
    for b in np.unique(block_of):
        states = np.flatnonzero(block_of == b)
        # the clusters whose levels vary along the block, with their level tuples
        local = [(atoms, *np.unique(levels[states][:, atoms], axis=0, return_inverse=True)) for atoms in clusters]
        local = [x for x in local if len(x[1]) > 1] if len(states) > 1 else []
        sizes = tuple(len(u) for _, u, _ in local)
        index = states[np.lexsort([inv.ravel() for _, _, inv in reversed(local)])] if local else states
        blocks, block_rows, row_of, factors = groups.setdefault(sizes, ([], [], [{} for _ in local],
                                                                        [[] for _ in local]))
        rows = []
        for slot, (atoms, u, _) in enumerate(local):
            fidx = np.moveaxis(index.reshape(sizes), slot, 0).reshape(sizes[slot], -1)[:, 0]
            pos = np.full(basis.dim, -1)
            pos[fidx] = np.arange(len(fidx))
            inside = (pos[src] >= 0) & (pos[dst] >= 0)
            k = np.zeros((len(spec.drives), len(fidx), len(fidx)))
            k[drive[inside], pos[src[inside]], pos[dst[inside]]] = 0.5
            k += np.swapaxes(k, 1, 2)
            # labelling atoms that shift the cluster alike share its row
            key = (tuple(atoms), u.tobytes(), k.tobytes(), (shifts[fidx] - shifts[fidx[0]]).tobytes())
            rows.append(row_of[slot].setdefault(key, len(factors[slot])))
            if rows[-1] == len(factors[slot]):
                factors[slot].append((fidx, k))
        blocks.append(index)
        block_rows.append(rows)
    return tuple(
        BlockGroup(np.array(blocks), np.array(block_rows, dtype=int).reshape(len(blocks), -1),
                   tuple(np.array([i for i, _ in f]) for f in factors),
                   tuple(np.ascontiguousarray(np.moveaxis([k for _, k in f], 0, 1)) for f in factors))
        for _, (blocks, block_rows, _, factors) in sorted(groups.items(), key=lambda g: (math.prod(g[0]), g[0]))
    )


class HamiltonianEvaluator:
    """Caches the static parts of H(t) for fast repeated evaluation.

    Splits H(t) = diag(diagonal) + sum_d f_d(t) K_d: diagonal holds the
    static energies and Doppler shifts minus i/2 the decay rates (zero on
    excluded states), and the dense coupling matrices K_d are built on the
    first call only; the block kernel reads diagonal and drive_factors.
    Envelopes span the stage of the given duration and are read at stage
    time t, intensity noise at the global time t_offset + t.
    """

    def __init__(self, spec: HamiltonianSpec, duration: float, noise: NoiseRealization | None = None,
                 t_offset: float = 0.0):
        self.spec = spec
        self.duration = duration
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
        self.diagonal = diag
        self._couplings = None

    def __call__(self, t: float) -> np.ndarray:
        if self._couplings is None:
            self._couplings = self.spec.coupling_matrices()
        return np.diag(self.diagonal) + np.tensordot(self.drive_factors(np.array([t]))[0], self._couplings, axes=1)

    def drive_factors(self, times: np.ndarray) -> np.ndarray:
        """Drive amplitudes f_d(t), shape (len(times), n_drives)."""
        f = np.zeros((len(times), len(self.spec.drives)))
        for j, d in enumerate(self.spec.drives):
            f[:, j] = envelope_value(d.envelope, times, self.duration)
            if self.noise is not None:
                f[:, j] *= self.noise.intensity_at(d.family, self.t_offset + times)
        return f


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
