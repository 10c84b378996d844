"""Multi-atom product bases for small dense Hilbert spaces.

Each atom carries an ordered list of internal levels; the product basis is
indexed mixed-radix with atom 0 most significant.  Every Rydberg-flagged
level of every atom decays at the basis's one rate.  Dimensions in this
package stay at or below a few hundred, so states and operators are plain
dense complex numpy arrays throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LevelScheme:
    """Internal level structure of a single atom.

    Parameters
    ----------
    labels : tuple of str
        Ordered level identifiers, e.g. ``("0", "1", "r")``.  The first
        levels are the logical qubit states.
    rydberg_flags : tuple of bool
        Marks which levels have Rydberg character: they interact, and they
        decay at the rate of the basis the scheme is part of.
    """

    labels: tuple[str, ...]
    rydberg_flags: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError(f"duplicate level labels: {self.labels}")
        if len(self.rydberg_flags) != n:
            raise ValueError("labels and rydberg_flags must have equal length")
        n_logical = sum(1 for f in self.rydberg_flags if not f)
        if n_logical < 2:
            raise ValueError("a scheme needs at least two non-Rydberg logical levels")

    @property
    def n_levels(self) -> int:
        return len(self.labels)

    def level_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown level {label!r} (have {self.labels})") from None


def qubit_scheme(rydberg_labels: tuple[str, ...] = ("r",)) -> LevelScheme:
    """Logical |0>, |1> plus one or more Rydberg levels."""
    return LevelScheme(("0", "1") + rydberg_labels, (False, False) + (True,) * len(rydberg_labels))


@dataclass(frozen=True)
class ProductBasis:
    """Mixed-radix product basis over several atoms.

    Atom 0 is most significant; within each atom the level order follows its
    scheme.  ``comp_indices`` lists, in lexicographic qubit order 00..0 to
    11..1, the basis indices whose atoms all occupy their first two levels,
    the qubit levels ``0`` and ``1``.  Every Rydberg-flagged level decays at
    ``decay_rate`` in 1/us, finite and at least 0 (ValueError otherwise).
    """

    schemes: tuple[LevelScheme, ...]
    decay_rate: float = 0.0
    dim: int = field(init=False)
    comp_indices: tuple[int, ...] = field(init=False)
    _levels: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("need at least one atom")
        if not (math.isfinite(self.decay_rate) and self.decay_rate >= 0):
            raise ValueError(f"decay_rate must be finite and >= 0, got {self.decay_rate!r}")
        dim = 1
        for s in self.schemes:
            dim *= s.n_levels
        object.__setattr__(self, "dim", dim)

        levels = []
        trailing = dim
        for scheme in self.schemes:
            trailing //= scheme.n_levels
            idx = (np.arange(dim) // trailing) % scheme.n_levels
            idx.flags.writeable = False
            levels.append(idx)
        object.__setattr__(self, "_levels", tuple(levels))

        # the qubit levels "0" and "1" are the first two of every scheme, and
        # mixed radix keeps bit order
        comp = np.flatnonzero(np.all(np.array(levels) < 2, axis=0))
        object.__setattr__(self, "comp_indices", tuple(int(i) for i in comp))

    @property
    def n_atoms(self) -> int:
        return len(self.schemes)

    def index_of(self, labels) -> int:
        """Basis index of a product state given per-atom level labels."""
        if len(labels) != self.n_atoms:
            raise ValueError(f"expected {self.n_atoms} labels, got {len(labels)}")
        idx = 0
        for scheme, lab in zip(self.schemes, labels):
            idx = idx * scheme.n_levels + scheme.level_index(lab)
        return idx

    def labels_of(self, index: int) -> tuple[str, ...]:
        """Per-atom level labels of basis state ``index``."""
        if not 0 <= index < self.dim:
            raise IndexError(f"index {index} outside [0, {self.dim})")
        out = []
        for scheme in reversed(self.schemes):
            index, lev = divmod(index, scheme.n_levels)
            out.append(scheme.labels[lev])
        return tuple(reversed(out))

    def level_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-atom integer level index of every basis state.

        One read-only int array of length ``dim`` per atom, built once with
        the basis; used to vectorize diagonal operators over the product
        space.
        """
        return self._levels

    def occupation_mask(self, atom: int, label: str) -> np.ndarray:
        """Boolean mask of basis states where ``atom`` occupies ``label``."""
        lev = self.schemes[atom].level_index(label)
        return self.level_arrays()[atom] == lev

    def rydberg_masks(self) -> list[np.ndarray]:
        """Per atom, the mask of basis states where it occupies a Rydberg-flagged level."""
        return [np.asarray(s.rydberg_flags)[lv] for s, lv in zip(self.schemes, self.level_arrays())]

    def rydberg_projector_diagonal(self) -> np.ndarray:
        """Diagonal of the summed Rydberg-number operator: the Rydberg atoms of each basis state."""
        return np.sum(self.rydberg_masks(), axis=0, dtype=float)

    def decay_diagonal(self) -> np.ndarray:
        """Diagonal of the total population decay rate, 1/us: decay_rate per Rydberg atom."""
        return self.decay_rate * self.rydberg_projector_diagonal()

    def basis_state(self, labels) -> np.ndarray:
        """Unit vector for a labelled product state."""
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.index_of(labels)] = 1.0
        return psi


def build_basis(schemes, decay_rate: float = 0.0) -> ProductBasis:
    """Construct a ProductBasis from a list of LevelScheme, decaying at decay_rate (1/us) per Rydberg atom."""
    return ProductBasis(tuple(schemes), decay_rate)

