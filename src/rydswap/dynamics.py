"""Time propagation under piecewise-smooth H(t) with Rydberg-loss accounting.

The integrator exponentiates H(t_mid) exactly over each step, so the large
static interaction diagonals (tens of GHz) cost nothing in step size; the
step is limited only by envelope smoothness.  Every drive is on for its
whole stage, so only Stage says when a drive is on, and a stage's uniform
step count follows from the shapes it drives (StepPolicy).  Every stage
Hamiltonian is block-diagonal, with blocks derived from the atoms (see
HamiltonianSpec.block_groups), and each group of equal-shape blocks runs
through a stage on its own.  A block's step propagator is a phase times
the Kronecker product of its factor rows' exponentials, and the kernel
works on the distinct rows, never on assembled blocks.  The drive
amplitudes are read at every step midpoint.

A plan runs on one basis, whose Rydberg levels all decay at one rate Gamma.
A run reports one Rydberg exposure, the time integral of P_r summed over
its columns.  Since d|psi|^2/dt = -Gamma P_r on every basis state, the
exposure is the norm lost over Gamma: the decay budget.  Its error is the
steps' own norm drift over Gamma, so the budget serves only where Gamma T
is large enough against a fixed drift per step (see _STEP_DRIFT);
elsewhere, and without decay, the exposure is the trapezoid of P_r at t = 0
and every step end instead.  The plan alone picks the advance of every
coupled group, before any step: with the budget, the chunk product; without
decay, the chunk product with its derivative in a virtual decay rate, which
gives the trapezoid; with decay below the budget's cut, the step pass.

``propagate_matrix`` is the kernel, ``propagate`` its one-column view.  For
each stage and group it picks a source of step exponentials
(_constant_source or _varying_source) and an advance of the block states
(_advance, or _uncoupled for states no drive couples).  Recording
populations changes no result.

A chunk product reduces only steps it has not already seen.  A constant
stage repeats one step, which it raises to the chunk's length by repeated
squaring.  A time-dependent stage whose drive rows read the same backwards
(a Gaussian centred on its stage, square drives, Doppler shifts on the
diagonal; intensity tracks break it) is mirrored: its complex symmetric
split-decay steps satisfy b_(n-1-k) = b_k^T, so the product of its second
half is the first half's transpose, U = P^T P per distinct factor row.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import expm

from .basis import ProductBasis
from .model import BlockGroup, HamiltonianEvaluator, HamiltonianSpec, NoiseRealization

# Step propagators and states are built in chunks of steps of about this many
# complex elements each, which bounds the kernel's memory at any step count; a
# chunk that carries its derivative holds two such arrays.
_CHUNK_ELEMENTS = 32768

# Time-dependent stages exponentiate at interpolation nodes of their drive
# rows: directions of the rows' affine span below _RANK_TOL times the
# largest are dropped, each axis gets the nodes whose Bernstein-ellipse bound
# reaches _NODE_TARGET, and a gap above _CHECK_TOL between the interpolant
# and a direct exponential raises PropagationError.  _NODE_TAU holds the
# largest tau that n = 1..64 nodes serve on a grid of ellipses (_axis_nodes).
_RANK_TOL = 1e-12
_NODE_TARGET = 1e-14
_CHECK_TOL = 1e-10
_RHO = np.geomspace(1.0 + 1e-3, 1e4, 400)
_NODE_TAU = np.max((math.log(_NODE_TARGET) - math.log(4.0) + np.log(_RHO - 1.0) + np.arange(64)[:, None] * np.log(_RHO))
                   / (0.5 * (_RHO - 1.0 / _RHO)), axis=1)

# The decay budget's exposure, the norm lost over Gamma, also divides the
# steps' own norm drift by Gamma.  That drift does not depend on Gamma: a few
# eps per step, from each step's rounding and the interpolant's error.  At
# lifetime None the nine catalog gates drift, summed over their inputs, by
# 0.3-3.8e-16 of the input norm per step.  Taking at most _STEP_DRIFT
# |psi0|^2 per step, a run of n steps errs by at most
# n _STEP_DRIFT |psi0|^2 / Gamma, and the budget serves only where that is at
# most _BUDGET_TOL T |psi0|^2, i.e. where Gamma T >= n _STEP_DRIFT / _BUDGET_TOL.
# The cut needs only the plan, so a run takes one path and never both.
# _BUDGET_TOL T |psi0|^2 is 1e-8 of the exposure of inputs that spend a tenth
# of the run in the Rydberg levels; the controlled gates spend half of it and
# more, the two-qubit gates 2%.  On the catalog gates the measured error is
# at most 4.4e-9 of the exposure at lifetime 400 us, and 1.6e-8 anywhere
# below the cut (SWAP at its cut, a lifetime of about 1.5 ms).
_STEP_DRIFT = 1e-15
_BUDGET_TOL = 1e-9

# A time-dependent stage is mirrored where its drive rows equal their reverse
# to within _MIRROR_ULPS ulps of the largest factor; the catalog gates' target
# stages read the same backwards to 0.45 ulps.
_MIRROR_ULPS = 4

_log = logging.getLogger("rydswap")


class PropagationError(RuntimeError):
    """Non-finite amplitudes during integration (step too large or bad spec), or
    interpolated step exponentials that miss their checked bound."""


@dataclass(frozen=True)
class StepPolicy:
    """Integrator step control.

    Every envelope spans its stage, so the step count depends only on the
    shapes driven: a stage with a nonzero Gaussian takes 4
    gaussian_resolution uniform steps, a quarter of its sigma each, and
    any other stage takes square_resolution.  Both are integers of at least
    1 (ValueError otherwise).
    """

    gaussian_resolution: int = 800
    square_resolution: int = 200

    def __post_init__(self):
        for name in ("gaussian_resolution", "square_resolution"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class Stage:
    duration: float
    spec: HamiltonianSpec

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"stage duration must be positive and finite, got {self.duration!r}")


@dataclass(frozen=True)
class StagePlan:
    """Stages run in order under one step policy, at least one and all on one basis (ValueError otherwise)."""

    stages: tuple[Stage, ...]
    policy: StepPolicy = StepPolicy()

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a stage plan needs at least one stage")
        if any(stage.spec.basis != self.basis for stage in self.stages):
            raise ValueError("every stage of a plan must be on one basis")

    @property
    def basis(self) -> ProductBasis:
        return self.stages[0].spec.basis

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages)


@dataclass
class PropagationResult:
    """Final states plus Rydberg-exposure bookkeeping.

    From propagate_matrix final_state, norm_loss and population_traj have a
    trailing column axis; propagate returns them without it.  norm_loss is
    |psi0|^2 - |psi|^2, the population lost to Rydberg decay.
    time_integrated_rydberg is the exposure, the integral in us of the
    Rydberg population P_r summed over the columns: the summed norm loss
    over the basis's decay rate Gamma where Gamma T is large enough that the
    steps' own norm drift over Gamma stays within 1e-9 T |psi0|^2 (see
    _STEP_DRIFT), and otherwise the trapezoid of P_r sampled at t = 0 and at
    the end of every integrator step, read off the chunk product's
    derivative in a virtual decay rate without decay.  Off the step pass
    (decay below the cut), final_state, norm_loss and the exposure take a
    mirrored stage's second half as its first half's product transposed.
    When populations are recorded, population_traj holds |psi|^2 per basis
    state at those samples, stepped through every step, and times their
    times; otherwise both are None.  Recording changes none of the other
    fields.
    """

    final_state: np.ndarray
    norm_loss: np.ndarray | float
    time_integrated_rydberg: float
    times: np.ndarray | None = None
    population_traj: np.ndarray | None = None


def _stage_steps(stage: Stage, policy: StepPolicy) -> int:
    """Number of uniform steps for a stage (see StepPolicy)."""
    if any(d.envelope.kind == "truncated_gaussian" and d.envelope.amplitude != 0.0 for d in stage.spec.drives):
        return 4 * policy.gaussian_resolution
    return policy.square_resolution


def _factor_exponentials(group: BlockGroup, energies, rows: np.ndarray, dt: float) -> list[np.ndarray]:
    """exp(-i dt H) of every factor row of a group at each drive-factor row (see BlockGroup).

    Per factor, shape (len(rows), n_rows, d_k, d_k).  Each is a batched
    eigh of the real symmetric Hermitian part with the decay split off
    symmetrically, an error far below the step's own at these rates.
    """
    out = []
    for e, k in zip(energies, group.factor_couplings):
        h = np.tensordot(rows, k, axes=1)
        h[..., np.arange(e.shape[1]), np.arange(e.shape[1])] += e.real
        w, v = np.linalg.eigh(h)
        b = (v * np.exp(-1j * dt * w)[..., None, :]) @ np.swapaxes(v, -1, -2)
        if np.any(e.imag):
            damp = np.exp(0.5 * dt * e.imag)  # exp(-dt decay / 4)
            b *= damp[..., :, None]
            b *= damp[..., None, :]
        out.append(b)
    return out


def _affine_axes(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal axes (r, n_drives) of the affine span of the rows and each row's coordinates (n, r)."""
    diff = factors - factors[0]
    _, s, vt = np.linalg.svd(diff, full_matrices=False)
    r = int(np.sum(s > _RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return vt[:r], diff @ vt[:r].T


def _axis_nodes(tau: float) -> float:
    """Fewest Chebyshev-Lobatto nodes that interpolate exp(-i dt (A + s h B)), s in [-1, 1], to _NODE_TARGET.

    tau = dt h |B|.  On the Bernstein ellipse E_rho the exponential is at
    most exp(tau (rho - 1/rho) / 2), so degree n errs by at most
    4 M rho^-n / (rho - 1) (Trefethen, ATAP, Thm 8.2), minimized over rho.
    The bound is linear in tau, so _NODE_TAU holds the largest tau each
    count serves.  Beyond 64 nodes this is inf, and the steps become the nodes.
    """
    n = int(np.searchsorted(_NODE_TAU, tau))
    return n + 1 if n < len(_NODE_TAU) else math.inf


def _lobatto(m: int) -> np.ndarray:
    """m Chebyshev-Lobatto nodes cos(pi j / (m - 1)) of [-1, 1] (one node: +1)."""
    return np.cos(np.pi * np.arange(m) / max(1, m - 1))


def _lagrange(s: np.ndarray, m: int) -> np.ndarray:
    """Lagrange basis values (len(s), m) at the m Chebyshev-Lobatto nodes, barycentric form."""
    lam = (-1.0) ** np.arange(m)
    lam[[0, -1]] *= 0.5
    diff = s[:, None] - _lobatto(m)
    with np.errstate(divide="ignore", invalid="ignore"):  # the rows that hit a node are overwritten below
        w = lam / diff
        w /= np.sum(w, axis=1, keepdims=True)
    row = np.nonzero(diff == 0.0)[0]
    w[row] = diff[row] == 0.0
    return w


def _nodes(group: BlockGroup, factors: np.ndarray, axes: np.ndarray, coords: np.ndarray, dt: float, reads: int):
    """Interpolation nodes for one time-dependent stage and group.

    Returns the node rows, the per-axis Lagrange weights of steps 0..reads
    (None when the nodes are the step rows themselves) and the nodes per
    axis, from _axis_nodes.  The nodes form a tensor Chebyshev-Lobatto grid
    on the bounding box of all the steps' coordinates in the drive rows' span.
    """
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    half = 0.5 * (hi - lo)
    norms = [max(np.max(np.linalg.norm(np.tensordot(v, k, axes=1), 2, axis=(-2, -1))) for k in group.factor_couplings)
             for v in axes]
    counts = tuple(_axis_nodes(dt * h * b) for h, b in zip(half, norms))
    if math.prod(counts) >= len(factors):
        return factors, None, counts
    mid = lo + half
    grid = [mid[a] + half[a] * _lobatto(m) for a, m in enumerate(counts)]
    node_coords = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, len(counts))
    weights = [_lagrange((coords[:reads, a] - mid[a]) / half[a], m) for a, m in enumerate(counts)]
    return factors[0] + node_coords @ axes, weights, counts


def _weighted(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """w @ f over f's first axis, as one real GEMM on f's real and imaginary parts."""
    return (w @ f.reshape(len(f), -1).view(float)).view(complex).reshape(len(w), *f.shape[1:])


def _tensor_weights(weights: list[np.ndarray], k0: int, k1: int) -> np.ndarray:
    """Weights (k1 - k0, n_nodes) of steps k0..k1 on the tensor grid, the last axis fastest."""
    w = np.ones((k1 - k0, 1))
    for wa in weights:
        w = (w[:, :, None] * wa[k0:k1, None, :]).reshape(k1 - k0, -1)
    return w


def _budget_rate(plan: StagePlan) -> float:
    """The basis's decay rate Gamma if Gamma T >= n _STEP_DRIFT / _BUDGET_TOL for n steps over T, else 0."""
    gamma = plan.basis.decay_rate
    n = sum(_stage_steps(stage, plan.policy) for stage in plan.stages)
    return gamma if gamma * plan.total_duration * _BUDGET_TOL >= n * _STEP_DRIFT else 0.0


def _then(later, earlier):
    """(P2, D2) after (P1, D1): (P2 P1, D2 P1 + P2 D1); D is None where no derivative is carried."""
    (p2, d2), (p1, d1) = later, earlier
    return p2 @ p1, None if d2 is None else d2 @ p1 + p2 @ d1


def _chunk_product(b: np.ndarray, db: np.ndarray | None = None):
    """b[-1] @ ... @ b[0] over the first axis (a chunk's steps, in order).

    A broadcast b, one step repeated (stride 0 on the step axis, see
    _constant_source), is b[0] raised to len(b) by repeated squaring; any
    other b takes log2(len(b)) batched pairwise products.  Given db, the
    steps' derivatives in a parameter (a broadcast where b is one), it
    returns the product and its derivative, composed by _then.
    """
    if not b.strides[0]:
        step, out, m = (b[0], None if db is None else db[0]), None, len(b)
        while True:
            if m & 1:
                out = step if out is None else _then(step, out)
            m >>= 1
            if not m:
                return out[0] if db is None else out
            step = _then(step, step)
    while len(b) > 1:
        lo, hi = b[:len(b) - 1:2], b[1::2]
        if db is not None:
            pairs = db[1::2] @ lo + hi @ db[:len(b) - 1:2]
            db = np.concatenate([pairs, db[-1:]]) if len(b) % 2 else pairs
        pairs = hi @ lo
        b = np.concatenate([pairs, b[-1:]]) if len(b) % 2 else pairs
    return b[0] if db is None else (b[0], db[0])


def _apply_steps(us: list[np.ndarray], x: np.ndarray, shapes: list[tuple]) -> np.ndarray:
    """Block states x (n_blocks, d_0, rest) after each step j of us[k][j] (n_blocks, d_k, d_k), factor k on axis k.

    Returns the states after every step, (n_steps, *x.shape).  The factors
    commute, so the first goes last and writes the output.
    """
    out = np.empty((len(us[0]), *x.shape), dtype=complex)
    steps = [(u[:, :, None], shape) for u, shape in zip(us[1:], shapes[1:])]
    for j in range(len(out)):
        for u, shape in steps:
            x = np.matmul(u[j], x.reshape(shape)).reshape(out.shape[1:])
        x = np.matmul(us[0][j], x, out=out[j])
    return out


def _constant_source(group: BlockGroup, diag: np.ndarray, dt: float, h_const: np.ndarray):
    """A constant stage's step exponentials: one ``expm`` per distinct factor row, the same at every step.

    A source returns a function of (k0, k1) that gives the per-factor
    exponentials (k1 - k0, n_rows_k, d_k, d_k) of steps k0..k1, and a note
    on how it makes them.
    """
    fixed = [expm(-1j * dt * (h_const[i[:, :, None], i[:, None, :]] - np.eye(len(i[0])) * diag[i[:, :1, None]]))
             for i in group.factor_index]
    note = f"one expm per distinct row, rows per factor {[len(i) for i in group.factor_index]}"
    return lambda k0, k1: [np.broadcast_to(f, (k1 - k0, *f.shape)) for f in fixed], note


def _varying_source(group: BlockGroup, diag: np.ndarray, dt: float, factors: np.ndarray, span, i_stage: int,
                    reads: int):
    """A time-dependent stage's step exponentials (a source, see _constant_source), interpolated.

    The steps' cluster Hamiltonians differ only in the coordinates of their
    drive rows in the rows' affine span (span, from _affine_axes), and
    exp(-i dt (A + x B)) is entire in them.  So each distinct row is
    exponentiated only at the tensor Chebyshev-Lobatto nodes of _nodes, and
    a step's exponential is the Lagrange-weighted sum of the node
    exponentials (Trefethen, *Approximation Theory and Approximation
    Practice*, ch. 8), given only for steps 0..reads, those the run reads.
    Of these, the step of largest Lebesgue sum is checked: a direct
    exponential in the nodes' batch, and a gap above _CHECK_TOL raises
    PropagationError.  Where the grid would outnumber the steps, the nodes
    are the steps, each exponentiated directly.
    """
    energies = [diag[i] - diag[i[:, :1]] for i in group.factor_index]
    nodes, weights, counts = _nodes(group, factors, *span, dt, reads)
    if weights is None:
        return lambda k0, k1: _factor_exponentials(group, energies, factors[k0:k1], dt), "nodes at the steps"
    k = int(np.argmax(np.prod([np.sum(np.abs(w), axis=1) for w in weights], axis=0)))
    exps = _factor_exponentials(group, energies, np.concatenate([nodes, factors[k:k + 1]]), dt)
    w = _tensor_weights(weights, k, k + 1)
    gap = max(float(np.max(np.abs(_weighted(w, f[:-1]) - f[-1:]))) for f in exps)
    node_exps = [f[:-1] for f in exps]
    if gap > _CHECK_TOL:
        raise PropagationError(f"stage {i_stage}: interpolated step exponentials off by {gap:.2e}")
    return (lambda k0, k1: [_weighted(_tensor_weights(weights, k0, k1), f) for f in node_exps],
            f"nodes per axis {counts}, checked gap {gap:.2e}")


def _uncoupled(group: BlockGroup, x: np.ndarray, diag, ryd, dt: float, n: int, p_steps: float, need_pr, stage_pops):
    """States no drive couples (1-state blocks) after n steps of their phase alone, in closed form.

    Returns phase^n x and p_steps plus, with need_pr, their P_r summed over
    the columns and the step ends, ryd |x|^2 sum_k |phase|^(2k) over
    k = 1..n, a geometric series taken with ``expm1``.  Writes their
    populations at the step ends to stage_pops when given.
    """
    ref = group.index[:, 0]
    g = 2.0 * dt * diag[ref].imag  # log |phase|^2 = -Gamma ryd dt
    x2 = np.abs(x[:, 0]) ** 2
    if need_pr:
        geo = np.where(g == 0.0, n, np.exp(g) * np.expm1(n * g) / np.where(g == 0.0, 1.0, np.expm1(g)))
        p_steps += np.sum(ryd[group.index] * geo[:, None] * x2)
    if stage_pops is not None:
        stage_pops[:, ref] = np.exp(np.arange(1, n + 1)[:, None, None] * g[:, None]) * x2
    return np.exp(-1j * dt * diag[ref])[:, None, None] ** n * x, p_steps


def _advance(group: BlockGroup, source, x, diag, ryd, dt: float, n: int, p_steps: float, stepped, deriv, mirrored,
             stage_pops):
    """A coupled group's block states x (n_blocks, d, n_cols) after n steps of source, chunk by chunk.

    The step pass applies every step, through _apply_steps.  It runs when
    stepped (decay below the budget's cut), adding P_r at each step end to
    p_steps, and when stage_pops is given, writing the populations there.
    Otherwise _chunk_product reduces each chunk per distinct factor row, and
    the product is applied once: X <- phase^m A X B^T for two factors.  With
    deriv (no decay) the product carries its derivative D in a virtual decay
    rate on the Rydberg weights, which composes as the off-diagonal block of
    a block-triangular exponential does (Van Loan, IEEE Trans. Autom.
    Control 23, 395 (1978)); -dN/dGamma
    at Gamma = 0 is then the trapezoid of P_r, per chunk the reference
    states' own P_r times its steps plus -2 Re x+ (P+ D on each factor's
    axis) x.  A mirrored stage (n even, step n-1-k the same complex
    symmetric exponential as step k) reduces only steps 0..n/2, and also
    accumulates their product H per distinct row; steps n/2..n are then one
    chunk of H^T, with derivative D_H^T.  A recording run still steps them
    for its populations, on from the states at n/2.  Returns the final
    states and p_steps plus the group's P_r over the columns and step ends,
    which the bare chunk product leaves out.
    """
    n_blocks, d, n_cols = x.shape
    dims = [len(i[0]) for i in group.factor_index]
    ryd_g = ryd[group.index]
    phase = np.exp(-1j * dt * diag[group.index[:, 0]])
    p = 0.0 if deriv else p_steps  # with deriv, the trapezoid of P_r in units of dt
    if deriv:  # a step's derivative over dt is -(w B + B w) / 4, w a factor row's Rydberg weights
        slopes = [-0.25 * (w[:, :, None] + w[:, None, :]) for w in (ryd[i] - ryd[i[:, :1]] for i in group.factor_index)]
        p0 = np.sum(ryd_g[..., None] * np.abs(x) ** 2)
    # a chunk holds a product per distinct row, and a step pass goes through it in steps of
    # step_chunk, each holding every block's exponentials and states
    chunk = max(1, _CHUNK_ELEMENTS // sum(len(i) * dk * dk for i, dk in zip(group.factor_index, dims)))
    step_chunk = max(1, _CHUNK_ELEMENTS // (n_blocks * max(sum(dk * dk for dk in dims), d * n_cols)))
    x = x.reshape(n_blocks, dims[0], -1)
    shapes = [(n_blocks, math.prod(dims[:slot]), dk, -1) for slot, dk in enumerate(dims)]
    split = n // 2 if mirrored else n  # the products reduce steps 0..split
    half = None  # when mirrored, the product of the steps reduced so far, per distinct row
    second = range(split, n, chunk) if stage_pops is not None else [split] if mirrored else []
    for k0 in [*range(0, split, chunk), *second]:
        k1 = min(split if k0 < split else n, k0 + chunk)
        exps = source(k0, k1) if k0 < split or stage_pops is not None else None
        if stepped or stage_pops is not None:
            if k0 <= split:  # the step pass's latest states: the product's at each chunk up to the middle
                traj = x[None]
            for s0 in range(k0, k1, step_chunk):
                s1 = min(k1, s0 + step_chunk)
                us = [b[s0 - k0:s1 - k0][:, group.rows[:, slot]] for slot, b in enumerate(exps)]
                us[0] *= phase[:, None, None]
                traj = _apply_steps(us, traj[-1], shapes)
                # P_r weights the squared real and imaginary parts, then adds them
                sq = traj.reshape(s1 - s0, n_blocks * d, n_cols).view(float) ** 2
                if stepped:
                    p += np.sum(ryd_g.ravel() @ sq)
                if stage_pops is not None:
                    stage_pops[s0:s1][:, group.index.ravel()] = sq[..., 0::2] + sq[..., 1::2]
        if stepped:
            x = traj[-1]
            continue
        if k0 < split:
            m = k1 - k0
            prods = ([_chunk_product(b, np.broadcast_to(slope * b[0], b.shape) if not b.strides[0] else slope * b)
                      for b, slope in zip(exps, slopes)] if deriv else [(_chunk_product(b), None) for b in exps])
            if mirrored:
                half = prods if half is None else [_then(c, h) for c, h in zip(prods, half)]
        elif k0 == split:  # steps split..n are steps 0..split backwards, each transposed
            m = n - split
            prods = [(np.swapaxes(h, -1, -2), None if dh is None else np.swapaxes(dh, -1, -2)) for h, dh in half]
        else:
            continue
        if deriv:
            p += m * np.sum(ryd_g[:, 0] * np.sum(np.abs(x) ** 2, axis=(1, 2)))
            for slot, (prod, dprod) in enumerate(prods):
                e = (np.swapaxes(prod.conj(), -1, -2) @ dprod)[group.rows[:, slot]]
                y = x.reshape(shapes[slot])
                p -= 2.0 * np.sum(y.conj() * (e[:, None] @ y)).real
        u = [prod[group.rows[:, slot]][None] for slot, (prod, _) in enumerate(prods)]
        u[0] *= phase[:, None, None] ** m
        x = _apply_steps(u, x, shapes)[0]
    x = x.reshape(n_blocks, d, n_cols)
    if deriv:  # the trapezoid is dt (P_r(start) / 2 + the step ends' P_r - P_r(end) / 2)
        p = p_steps + (p + 0.5 * (np.sum(ryd_g[..., None] * np.abs(x) ** 2) - p0))
    return x, p


def propagate_matrix(
    plan: StagePlan,
    columns: np.ndarray,
    noise: NoiseRealization | None = None,
    record_populations: bool = False,
) -> PropagationResult:
    """Propagate the column states of a (dim, n_cols) matrix through all stages.

    Before any stage it picks one advance for every coupled group, from the
    plan alone: the chunk product where _budget_rate gives the decay rate
    Gamma (the exposure is then the norm lost over Gamma); without decay,
    the chunk product with its derivative; and with decay below the
    budget's cut, where -dN/dGamma is off by O(Gamma T), the step pass.
    Uncoupled states take _uncoupled.  It picks each stage's source:
    _constant_source where the drive rows are the same at every step, whose
    products reduce by binary powers, else _varying_source.  Off the step
    pass, a time-dependent stage of an even step count is mirrored where its
    rows equal their reverse to within _MIRROR_ULPS ulps of the largest
    factor, and its products reduce its first half.  A recorded run also
    steps every group for its populations.  Without the budget each stage adds
    dt (P_r(start) / 2 + the step ends' P_r - P_r(end) / 2) to the exposure.
    """
    norms0 = np.sum(np.abs(columns) ** 2, axis=0)
    if np.any(norms0 > 1.0 + 1e-9):
        raise ValueError("initial state norm exceeds 1")
    if plan.basis.dim != len(columns):
        raise ValueError("plan basis dimension does not match the propagated state")
    gamma = _budget_rate(plan)
    need_pr, deriv = not gamma, not plan.basis.decay_rate
    stepped = need_pr and not deriv
    path = "step pass" if stepped else "chunk product with derivative" if deriv else "chunk product"
    cols = columns.astype(complex)

    ryd = plan.basis.rydberg_projector_diagonal()
    p_end = ryd @ np.sum(np.abs(cols) ** 2, axis=1)
    exposure = 0.0
    times = [np.zeros(1)]
    pops = [np.abs(cols[None]) ** 2]

    t_offset = 0.0
    for i_stage, stage in enumerate(plan.stages):
        n = _stage_steps(stage, plan.policy)
        dt = stage.duration / n
        evaluator = HamiltonianEvaluator(stage.spec, stage.duration, noise, t_offset)
        factors = evaluator.drive_factors((np.arange(n) + 0.5) * dt)
        diag = evaluator.diagonal
        constant = np.all(factors == factors[0])
        tol = _MIRROR_ULPS * np.finfo(float).eps * np.max(np.abs(factors), initial=0.0)
        mirrored = not stepped and not constant and n % 2 == 0 and np.all(np.abs(factors - factors[::-1]) <= tol)
        reduced = "" if stepped else "; by binary powers" if constant else "; first half, mirrored" if mirrored else ""
        if constant:
            make_source = partial(_constant_source, h_const=evaluator(0.5 * dt))
        else:  # a mirrored stage reads steps 0..n/2 alone unless it records
            reads = n // 2 if mirrored and not record_populations else n
            make_source = partial(_varying_source, factors=factors, span=_affine_axes(factors), i_stage=i_stage,
                                  reads=reads)
        p_steps = 0.0  # P_r summed over the columns and the stage's step ends
        stage_pops = np.empty((n, *cols.shape)) if record_populations else None
        for group in stage.spec.block_groups():
            psi_g = cols[group.index]  # (n_blocks, d, n_cols)
            if not group.factor_index:
                how, note = "closed form", "the diagonal alone"
                psi_g, p_steps = _uncoupled(group, psi_g, diag, ryd, dt, n, p_steps, need_pr, stage_pops)
            else:
                source, note = make_source(group, diag, dt)
                how, note = path, note + reduced
                psi_g, p_steps = _advance(group, source, psi_g, diag, ryd, dt, n, p_steps, stepped, deriv, mirrored,
                                          stage_pops)
            _log.debug("stage %d, blocks %dx%d: %d steps by %s, from %s", i_stage, *group.index.shape, n, how, note)
            if not np.all(np.isfinite(psi_g)):
                raise PropagationError(f"non-finite amplitudes in stage {i_stage}")
            cols[group.index] = psi_g
        if need_pr:
            p_start, p_end = p_end, ryd @ np.sum(np.abs(cols) ** 2, axis=1)
            exposure += dt * (0.5 * p_start + p_steps - 0.5 * p_end)
        if record_populations:
            times.append(t_offset + np.arange(1, n + 1) * dt)
            pops.append(stage_pops)
        t_offset += stage.duration

    norms = np.sum(np.abs(cols) ** 2, axis=0)
    if not need_pr:
        exposure += np.sum(norms0 - norms) / gamma
    return PropagationResult(
        final_state=cols,
        norm_loss=np.maximum(0.0, norms0 - norms),
        time_integrated_rydberg=float(exposure),
        times=np.concatenate(times) if record_populations else None,
        population_traj=np.concatenate(pops) if record_populations else None,
    )


def propagate(
    plan: StagePlan,
    psi0: np.ndarray,
    noise: NoiseRealization | None = None,
    record_populations: bool = False,
) -> PropagationResult:
    """Propagate one state: propagate_matrix without the column axis."""
    res = propagate_matrix(plan, np.asarray(psi0)[:, None], noise, record_populations)
    return replace(res, final_state=res.final_state[:, 0], norm_loss=float(res.norm_loss[0]),
                   population_traj=None if res.population_traj is None else res.population_traj[..., 0])
