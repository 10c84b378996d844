"""Gate-protocol catalog, realized-gate extraction and fidelity metrics.

Protocols follow the three-step recipe: (i) a resonant square pi pulse per
control from |0> to its Rydberg level (sequential for multi-control,
simultaneous dual-level for the multiplexed variants), (ii) a target stage of
duration T with a truncated-Gaussian microwave drive (sigma = T/4) and a
square optical drive, (iii) control retrieval mirroring (i) in reverse
order.  The retrieval pulses are phase-inverted so an excitation round trip
composes to the identity rather than -1; the realized gate matrix is then
read out in the interaction picture of the static frame (the deterministic
diagonal frame phases are removed) before the tabulated single-qubit phase
adjustments are applied.

Each member of the family is one catalog row (``_Member``); its ideal gate
(the row's exchange block applied to each reading's routed target pair),
interaction graph, control pulses and collective truncation are all
derived from that row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .analytic import _check_positive, crest, wrap_phase
from .basis import ProductBasis, build_basis, qubit_scheme
from .dynamics import Stage, StagePlan, propagate_matrix
from .model import (
    DriveTerm,
    HamiltonianSpec,
    InteractionGraph,
    NoiseRealization,
    gaussian_pulse,
    square_pulse,
    standard_target_frame,
)

TWO_PI = 2.0 * math.pi

_SQ = 1.0 / math.sqrt(2.0)
_SWAP = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
_ISWAP = ((1, 0, 0, 0), (0, 0, 1j, 0), (0, 1j, 0, 0), (0, 0, 0, 1))
_SQRT_ISWAP = ((1, 0, 0, 0), (0, _SQ, 1j * _SQ, 0), (0, 1j * _SQ, _SQ, 0), (0, 0, 0, 1))
_SWAP_CCSDAG = _SWAP[:3] + ((0, 0, 0, np.exp(-0.5j * math.pi)),)  # SWAP with the CCS+ phase on |11>


@dataclass(frozen=True)
class _Member:
    """One member of the gate family: every fact that sets it apart.

    Targets count from 0 after the controls.  routes[c] is the target pair
    exchanged while the controls read c, or None (with several controls c is
    1 only when all read 1; without controls there is one reading, 0).
    levels[c] is the Rydberg level reading c is pulsed to, or None; through
    v_ct it blocks every target outside route c.  The blockade pairs are the
    target pairs within one blockade radius: they interact through v_tt and
    form the collective truncation.  exchange is the 4x4 gate applied to the
    routed pair, in (|00>, |01>, |10>, |11>) order.
    """

    n_targets: int = 2
    routes: tuple = ((0, 1),)
    levels: tuple = ()
    blockade: tuple = ((0, 1),)
    exchange: tuple = _SWAP
    adjust: tuple = ()  # final virtual-Z adjustments, (phase/pi, who, level)
    flank: tuple = ()  # targets bit-flipped before and after the exchange
    k_controls: bool = False  # GateParams.n_controls sets the number of controls


# Controls carry their correction on |0>, the level that makes the Rydberg
# round trip; the two printed forms (-pi/2 on c for the conditional iSWAP,
# +pi/2 on c for the CCS+CSWAP composite) are this same operation up to a
# global phase.
_CATALOG = {
    "SWAP": _Member(adjust=((-0.2971, "targets", "1"),)),
    "iSWAP": _Member(exchange=_ISWAP, adjust=((-0.5, "targets", "1"),)),
    "sqrt_iSWAP": _Member(exchange=_SQRT_ISWAP),
    "bSWAP": _Member(adjust=((-0.2971, "targets", "1"),), flank=(1,)),
    "C_iSWAP": _Member(routes=(None, (0, 1)), levels=("r", None), exchange=_ISWAP,
                       adjust=((-0.5, "targets", "1"), (-0.5, "controls", "0"))),
    "C_SWAP_CCSdag": _Member(routes=(None, (0, 1)), levels=("r", None), exchange=_SWAP_CCSDAG,
                             adjust=((-0.5, "controls", "0"),)),
    "Ck_SWAP": _Member(routes=(None, (0, 1)), levels=("r", None), adjust=((-0.5, "controls", "0"),),
                       k_controls=True),
    "MUX_SWAP_4T": _Member(4, routes=((0, 1), (2, 3)), levels=("rP", "rD"), blockade=((0, 1), (2, 3))),
    # The hub shares both exchange channels and all three targets
    # sit inside one blockade radius, so the whole trio forms a
    # single collective cluster; anything less breaks the
    # hub-exchange symmetry of the shared intermediate.
    "MUX_SWAP_3T": _Member(3, routes=((0, 1), (0, 2)), levels=("rP", "rD"), blockade=((0, 1), (0, 2), (1, 2))),
}

VARIANTS = tuple(_CATALOG)


@dataclass(frozen=True)
class GateParams:
    """Physical knobs of a gate protocol, angular frequencies in rad/us.

    Every field has a [gate] config key.  Controls interact with each other
    through |v_ct| (close-packed multi-control geometry).  n_controls is
    Ck_SWAP's k (at least 1); every other variant takes only 1.  lifetime
    None means no decay.  v_tt shifts only doubly-excited target pairs,
    which lose every coupling in the collective model, so that model takes
    only the default.  Every frequency, shift and duration must be finite.
    """

    omega1_max: float
    omega2: float
    delta: float
    duration: float
    v_tt: float = TWO_PI * 700.0
    v_ct: float = 0.0
    lifetime: float | None = 400.0
    n_controls: int = 1
    model: str = "collective"

    def __post_init__(self):
        if self.model not in ("collective", "full"):
            raise ValueError(f"model must be 'collective' or 'full', got {self.model!r}")
        if not isinstance(self.n_controls, numbers.Integral):
            raise ValueError(f"n_controls must be an integer, got {self.n_controls!r}")
        for name in ("omega1_max", "omega2", "delta", "duration", "v_tt", "v_ct"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if self.lifetime is not None and not self.lifetime > 0:
            raise ValueError(f"lifetime must be positive (None for no decay), got {self.lifetime!r}")
        if self.model == "collective" and self.v_tt != GateParams.v_tt:
            raise ValueError("v_tt acts only in the full model; the collective model takes only 2pi x 700 MHz")

    @property
    def omega_c(self) -> float:
        """Rabi frequency of the control pi pulses."""
        return TWO_PI * 10.0

    @property
    def decay_rate(self) -> float:
        return 0.0 if self.lifetime is None else 1.0 / self.lifetime

    @property
    def control_pi_time(self) -> float:
        return math.pi / self.omega_c


@dataclass(frozen=True)
class GateProtocol:
    """A stage plan, which fixes basis and duration, plus its readout: the
    per-computational-state phase factor of the virtual-Z adjustments
    (adjust) and the computational-state index permutation applied before
    and after the gate (flank)."""

    variant: str
    plan: StagePlan
    ideal: np.ndarray
    adjust: np.ndarray
    flank: np.ndarray | None = None

    @property
    def basis(self) -> ProductBasis:
        return self.plan.basis

    @property
    def n_qubits(self) -> int:
        return self.basis.n_atoms

    @property
    def total_duration(self) -> float:
        return self.plan.total_duration


@dataclass
class GateReport:
    """Realized gate over the computational subspace plus error budgets.

    u_gate carries the Rydberg-decay amplitude damping (column norms below
    one, per_input_loss the lost norms, mean_loss their mean); rotation_matrix
    is u_gate with each column renormalized by its surviving norm, as the
    result tables use.  fidelity is the process fidelity of the renormalized
    gate (rotation and phase errors only); fidelity_with_loss scores u_gate
    itself, so decay counts against it.  t_bar_r is the Rydberg exposure
    per input, integral of P_r dt in us: the lost norm over the basis's
    decay rate where that rate is large enough for the steps' own norm drift
    (dynamics._STEP_DRIFT), and otherwise the trapezoid of P_r at the
    integrator's step ends (PropagationResult.time_integrated_rydberg).
    Phases follow the tabulated, accumulated-phase sign convention: the
    argument is minus the propagator's.
    """

    variant: str
    u_gate: np.ndarray
    rotation_matrix: np.ndarray
    fidelity: float
    fidelity_with_loss: float
    per_input_loss: np.ndarray
    t_bar_r: float

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.per_input_loss))


# ---------------------------------------------------------------------------
# Ideal unitaries


def _bit_table(n_qubits: int) -> np.ndarray:
    """(2**n, n) bits of every computational state, qubit 0 most significant."""
    return (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def _bit_weights(n_qubits: int) -> np.ndarray:
    """Weight of each qubit's bit in a computational-state index."""
    return 1 << np.arange(n_qubits - 1, -1, -1)


def _state_index(bits: tuple[int, ...], n_qubits: int) -> int:
    """Index of the leading qubits' bit tuple among its 2**len(bits) values."""
    if len(bits) > n_qubits or any(b not in (0, 1) for b in bits):
        raise ValueError(f"expected at most {n_qubits} bits, each 0 or 1, got {bits!r}")
    return int(_bit_weights(len(bits)) @ np.array(bits, dtype=int))


def _member(variant: str, n_controls: int) -> tuple[_Member, int]:
    """The variant's catalog row and its number of control atoms."""
    if variant not in _CATALOG:
        raise ValueError(f"unknown variant {variant!r} (choose from {VARIANTS})")
    member = _CATALOG[variant]
    if (n_controls < 1) if member.k_controls else (n_controls != 1):
        raise ValueError(f"{variant} needs n_controls {'>= 1' if member.k_controls else '= 1'}, got {n_controls}")
    return member, (n_controls if member.levels else 0)


def _flank(member: _Member, k: int) -> np.ndarray:
    """Index permutation that flips the bits of the flank targets (an involution)."""
    bits = _bit_table(k + member.n_targets)
    bits[:, [k + t for t in member.flank]] ^= 1
    return bits @ _bit_weights(bits.shape[1])


def ideal_unitary(variant: str, n_controls: int = 1) -> np.ndarray:
    member, k = _member(variant, n_controls)
    n = k + member.n_targets
    weights = _bit_weights(n).tolist()
    u = np.zeros((2**n, 2**n), dtype=complex)
    for j, bits in enumerate(_bit_table(n).tolist()):
        route = member.routes[int(all(bits[:k])) if k else 0]
        if route is None:
            u[j, j] = 1.0
            continue
        wa, wb = weights[k + route[0]], weights[k + route[1]]
        a, b = bits[k + route[0]], bits[k + route[1]]
        base = j - a * wa - b * wb  # this column with the pair at |00>
        for row, e in enumerate(member.exchange):
            if e[2 * a + b]:  # u starts at zero
                u[base + (row >> 1) * wa + (row & 1) * wb, j] = e[2 * a + b]
    if member.flank:
        x = _flank(member, k)
        u = u[np.ix_(x, x)]
    return u


# ---------------------------------------------------------------------------
# Protocol construction


def _interaction_graph(member: _Member, params: GateParams, n_controls: int) -> InteractionGraph:
    t0 = n_controls  # first target atom index
    entries = {(t0 + i, "r", t0 + j, "r"): params.v_tt for i, j in member.blockade}
    for c in range(n_controls):
        for level, route in zip(member.levels, member.routes):
            for t in range(member.n_targets):
                if level and t not in (route or ()):
                    entries[(c, level, t0 + t, "r")] = params.v_ct
    for c1 in range(n_controls):
        for c2 in range(c1 + 1, n_controls):
            for level in filter(None, member.levels):
                entries[(c1, level, c2, level)] = abs(params.v_ct)
    return InteractionGraph.from_dict(entries)


def make_protocol(variant: str, params: GateParams) -> GateProtocol:
    """Assemble stages, ideal unitary and phase adjustments for a variant."""
    member, n_controls = _member(variant, params.n_controls)
    if member.levels and params.v_ct == 0.0:
        raise ValueError(f"{variant} requires a control-target interaction v_ct")

    pulses = tuple((str(c), level) for c, level in enumerate(member.levels) if level)
    control_scheme = qubit_scheme(tuple(filter(None, member.levels)))
    basis = build_basis([control_scheme] * n_controls + [qubit_scheme()] * member.n_targets, params.decay_rate)

    interactions = _interaction_graph(member, params, n_controls)
    frame = standard_target_frame(params.delta, range(n_controls, basis.n_atoms))
    t_pi = params.control_pi_time
    pairs = ()
    if params.model == "collective":
        pairs = tuple((n_controls + i, n_controls + j) for i, j in member.blockade)

    def control_stage(control: int, sign: float) -> Stage:
        drives = tuple(DriveTerm(control, lower, upper, square_pulse(sign * params.omega_c),
                                 doppler_sensitive=True, family="omega_c") for lower, upper in pulses)
        return Stage(t_pi, HamiltonianSpec(basis, drives, interactions, frame, pairs))

    def target_stage() -> Stage:
        drives = []
        for t in range(n_controls, basis.n_atoms):
            drives.append(DriveTerm(t, "0", "1", gaussian_pulse(params.omega1_max), family="omega1"))
            drives.append(DriveTerm(t, "1", "r", square_pulse(params.omega2), doppler_sensitive=True,
                                    family="omega2"))
        return Stage(params.duration, HamiltonianSpec(basis, tuple(drives), interactions, frame, pairs))

    stages: list[Stage] = []
    for c in range(n_controls):
        stages.append(control_stage(c, +1.0))
    stages.append(target_stage())
    # Retrieval in reverse order, phase-inverted: the round trip is identity.
    for c in reversed(range(n_controls)):
        stages.append(control_stage(c, -1.0))

    atoms = {"controls": range(n_controls), "targets": range(n_controls, basis.n_atoms)}
    bits = _bit_table(basis.n_atoms)
    adjust = np.ones(len(bits), dtype=complex)
    for phi_pi, who, level in member.adjust:
        for a in atoms[who]:
            adjust[bits[:, a] == int(level == "1")] *= np.exp(1j * (phi_pi * math.pi))

    return GateProtocol(
        variant=variant,
        plan=StagePlan(tuple(stages)),
        ideal=ideal_unitary(variant, params.n_controls),
        adjust=adjust,
        flank=_flank(member, n_controls) if member.flank else None,
    )


def two_target_plan(params: GateParams, duration: float | None = None) -> StagePlan:
    """Bare two-target exchange stage, used by the duration calibration."""
    p = params if duration is None else replace(params, duration=duration)
    return make_protocol("SWAP", replace(p, v_ct=0.0, n_controls=1)).plan


def calibrate_duration(
    variant: str,
    params: GateParams,
    t_seed: float,
    half_width: float = 0.03,
    coarse: float = 2e-3,
    fine: float = 2e-4,
) -> float:
    """Pin the stage duration by maximizing the full-gate process fidelity.

    The bare exchange amplitude rides fast dressing ripples whose crests
    recur every light-shift cycle and are near-degenerate, so the published
    durations are fidelity optima rather than transfer optima; seed with the
    transfer-calibrated duration and keep the window inside one crest
    spacing of it.  ``crest`` takes the best point of a grid spaced coarse
    over the window and refines between its neighbours down to fine; a best
    point on the grid's end raises ValueError, as does a t_seed, half_width
    or coarse that is not positive and finite, before any gate runs.
    """
    _check_positive(t_seed=t_seed, half_width=half_width, coarse=coarse)

    def fid(t: float) -> float:
        return run_gate(make_protocol(variant, replace(params, duration=float(t)))).fidelity

    lo, hi = (1.0 - half_width) * t_seed, (1.0 + half_width) * t_seed
    grid = np.arange(lo, hi + coarse, coarse)
    grid = grid[grid <= hi]  # arange can end one step past hi
    return crest(fid, grid, fine)


def table_params(variant: str) -> GateParams:
    """Published operating points for the gate catalog.

    Angular frequencies carry the usual 2*pi per MHz; the control-target
    shift is quoted in bare rad/us (22140 and 24800), the units under which
    the blocked-branch phases of the published data reproduce (see the
    project notes on the unit resolution for this quantity).
    """
    common = dict(omega1_max=TWO_PI * 33.5, v_tt=TWO_PI * 700.0, duration=4.7259)
    catalog = {
        "SWAP": GateParams(omega2=TWO_PI * 190.8, delta=TWO_PI * 999.73, **common),
        "bSWAP": GateParams(omega2=TWO_PI * 190.8, delta=TWO_PI * 999.73, **common),
        "iSWAP": GateParams(omega2=TWO_PI * 145.82, delta=TWO_PI * 999.84, **common),
        "sqrt_iSWAP": GateParams(
            omega1_max=TWO_PI * 33.5,
            omega2=TWO_PI * 137.56,
            delta=TWO_PI * 1000.3,
            duration=2.3095,
            v_tt=TWO_PI * 700.0,
        ),
        "C_iSWAP": GateParams(omega2=TWO_PI * 145.82, delta=TWO_PI * 1000.3, v_ct=24800.0, **common),
        "C_SWAP_CCSdag": GateParams(omega2=TWO_PI * 89.76, delta=TWO_PI * 1001.2, v_ct=22140.0, **common),
    }
    if variant not in catalog:
        raise KeyError(f"no published operating point for {variant!r}")
    return catalog[variant]


# ---------------------------------------------------------------------------
# Gate extraction and metrics


def run_gate(protocol: GateProtocol, noise: NoiseRealization | None = None) -> GateReport:
    """Propagate every computational input and assemble the gate report."""
    comp = list(protocol.basis.comp_indices)
    # C order: the loss sums round by memory layout, and [:, comp] is F order
    columns = np.ascontiguousarray(np.eye(protocol.basis.dim, dtype=complex)[:, comp])
    res = propagate_matrix(protocol.plan, columns, noise)
    loss = res.norm_loss

    # Interactions shift only Rydberg levels, so on the computational states
    # the static diagonal is the frame energies: remove exp(-i E_frame T).
    frame = np.exp(1j * protocol.plan.stages[0].spec.static_diagonal()[comp] * protocol.total_duration)
    u = frame[:, None] * res.final_state[comp, :]
    # Accumulated-phase sign convention (resolved against the tabulated
    # exchange phase): report the conjugate of the propagator elements.
    u = np.conj(u)
    u = protocol.adjust[:, None] * u
    if protocol.flank is not None:
        # the flank relabels which physical input feeds each column, so
        # per-input quantities follow it
        x = protocol.flank
        u, loss = u[np.ix_(x, x)], loss[x]

    rotation = u / np.sqrt(np.clip(1.0 - loss, 1e-12, None))[None, :]
    return GateReport(
        variant=protocol.variant,
        u_gate=u,
        rotation_matrix=rotation,
        fidelity=process_fidelity(rotation, protocol.ideal),
        fidelity_with_loss=process_fidelity(u, protocol.ideal),
        per_input_loss=loss,
        t_bar_r=res.time_integrated_rydberg / len(comp),
    )


def process_fidelity(u_gate: np.ndarray, u_ideal: np.ndarray) -> float:
    """[Tr(M M+) + |Tr M|^2] / [n (n+1)] with M = U_ideal^+ U_gate.

    Insensitive to a global phase of the realized gate; equals 1 iff the
    gate matches the ideal up to that phase.
    """
    if u_gate.shape != u_ideal.shape or u_gate.shape[0] != u_gate.shape[1]:
        raise ValueError("gate and ideal must be square matrices of equal dimension")
    n = u_gate.shape[0]
    m = u_ideal.conj().T @ u_gate
    val = (np.trace(m @ m.conj().T).real + abs(np.trace(m)) ** 2) / (n * (n + 1))
    return float(val)


def rotation_fidelity(u_gate: np.ndarray, u_ideal: np.ndarray) -> float:
    """Process fidelity after per-element phase stripping.

    Each realized element is replaced by its modulus carrying the ideal
    element's phase, isolating population-rotation errors from phase errors.
    """
    phases = np.where(np.abs(u_ideal) > 1e-12, u_ideal / np.where(np.abs(u_ideal) > 1e-12, np.abs(u_ideal), 1.0), 1.0)
    return process_fidelity(np.abs(u_gate) * phases, u_ideal)


def conditional_rotation_fidelity(
    report: GateReport, protocol: GateProtocol, control_bits: tuple[int, ...]
) -> float:
    """Rotation fidelity of the block conditioned on a control configuration.

    Uses the decay-renormalized matrix: routing quality is scored separately
    from the Rydberg-loss budget.  control_bits are the leading qubits'
    bits; more bits than qubits, or an entry other than 0 or 1, raises
    ValueError.
    """
    free = protocol.n_qubits - len(control_bits)  # qubits after the controls
    start = _state_index(control_bits, protocol.n_qubits) << free
    sel = np.arange(start, start + (1 << free))
    sub = report.rotation_matrix[np.ix_(sel, sel)]
    ideal_sub = protocol.ideal[np.ix_(sel, sel)]
    return rotation_fidelity(sub, ideal_sub)


def acquired_phase(protocol: GateProtocol, input_bits: tuple[int, ...]) -> float:
    """Acquired AC-Stark phase of one computational input, radians in (-pi, pi].

    Convention: the phase is read from column input_bits of the bare
    protocol's u_gate (no tabulated phase adjustments or flank, static frame
    phases removed, accumulated-phase sign) at its dominant element, with
    the pi rotation sign of a completed exchange divided out.  This isolates
    the dynamical light-shift phase the effective model predicts.
    input_bits needs one entry, 0 or 1, per qubit (ValueError otherwise).
    """
    if len(input_bits) != protocol.n_qubits:
        raise ValueError(f"input_bits needs {protocol.n_qubits} bits, got {input_bits!r}")
    j = _state_index(input_bits, protocol.n_qubits)
    column = run_gate(replace(protocol, adjust=np.ones_like(protocol.adjust), flank=None)).u_gate[:, j]
    i = int(np.argmax(np.abs(column)))
    return wrap_phase(float(np.angle(column[i] if i == j else -column[i])))
