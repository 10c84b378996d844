"""Time propagation under piecewise-smooth H(t) with Rydberg-loss accounting.

The integrator exponentiates H(t_mid) exactly over each step, so the large
static interaction diagonals (tens of GHz) cost nothing in step size; the
step is limited only by envelope smoothness.  Every drive is on for its
whole stage, so only Stage says when a drive is on, and a stage's uniform
step count follows from the shapes it drives (StepPolicy).  Every stage
Hamiltonian is block-diagonal, with blocks derived from the atoms (see
HamiltonianSpec.block_groups), and one kernel propagates each group of
equal-shape blocks on its own.  A block's step propagator is a phase times
the Kronecker product of its factor rows' exponentials, and the kernel works
on the distinct rows, never on assembled blocks.  The drive amplitudes are
read at every step midpoint.  Where they are the same at every step, and
for 1-state blocks, each distinct row is exponentiated once with ``expm``,
its powers come by doubling and P_r is a trace against the Gram matrix of
the initial states, with no step loop.  In any other stage a step's
cluster Hamiltonians differ only in a few scalars (the Gaussian amplitude,
an intensity factor per noisy family), the coordinates of its drive row in
the affine span of the stage's rows, and exp(-i dt (A + x B)) is an entire
function of them.  So each distinct cluster Hamiltonian is exponentiated,
by a batched ``eigh``, only at a tensor grid of Chebyshev-Lobatto nodes on
the box those coordinates fill, sized by the Bernstein-ellipse bound, and a
step's exponential is the Lagrange-weighted sum of the node exponentials
(Trefethen, *Approximation Theory and Approximation Practice*, ch. 8).
Where the grid would outnumber the steps the nodes are the steps
themselves.  The interpolant is checked against a direct exponential at
the step of largest Lebesgue sum.  Each step applies the factors to their
axes of the block states, X <- phase A X B^T for two clusters.
``propagate_matrix`` is that kernel, ``propagate`` its one-column view.  A
scipy explicit Runge-Kutta propagation (``propagate_rk``, which imports
``solve_ivp`` on its first call) and the dense ``evolve_step`` are kept
alongside as independent cross-checks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .model import BlockGroup, HamiltonianEvaluator, HamiltonianSpec, NoiseRealization, envelope_value

# Step propagators and states are built in chunks of steps of about this many
# complex elements each, which bounds the kernel's memory at any step count.
_CHUNK_ELEMENTS = 32768

# Time-dependent stages exponentiate at interpolation nodes of their drive
# rows: directions of the rows' affine span below _RANK_TOL times the
# largest are dropped, each axis gets the nodes whose Bernstein-ellipse bound
# reaches _NODE_TARGET, and a gap above _CHECK_TOL between the interpolant
# and a direct exponential raises PropagationError.
_RANK_TOL = 1e-12
_NODE_TARGET = 1e-14
_CHECK_TOL = 1e-10

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
    any other stage takes square_resolution.
    """

    gaussian_resolution: int = 800
    square_resolution: int = 200


@dataclass(frozen=True)
class Stage:
    duration: float
    spec: HamiltonianSpec

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("stage duration must be positive")


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]
    policy: StepPolicy = StepPolicy()

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages)


@dataclass
class PropagationResult:
    """Final states plus Rydberg-exposure bookkeeping.

    From propagate_matrix every field but rydberg_times has a trailing
    column axis; propagate returns the same fields without it.  norm_loss
    is |psi0|^2 - |psi|^2, the population lost to Rydberg decay.
    rydberg_populations holds P_r at rydberg_times (t = 0 and the end of
    every integrator step); time_integrated_rydberg is its trapezoid in us.
    population_traj holds |psi|^2 per basis state at the same times when
    populations were recorded, else None.
    """

    final_state: np.ndarray
    norm_loss: np.ndarray | float
    rydberg_times: np.ndarray
    rydberg_populations: np.ndarray
    time_integrated_rydberg: np.ndarray | float
    population_traj: np.ndarray | None = None


def evolve_step(h: np.ndarray, dt: float, psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i h dt) to a state (or matrix of column states)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return expm(-1j * dt * h) @ psi


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
    Beyond 64 nodes this is inf, and the steps become the nodes.
    """
    rho = np.geomspace(1.0 + 1e-3, 1e4, 400)
    n = np.arange(64)[:, None]
    log_bound = np.log(4.0) + 0.5 * tau * (rho - 1.0 / rho) - np.log(rho - 1.0) - n * np.log(rho)
    ok = np.min(log_bound, axis=1) <= math.log(_NODE_TARGET)
    return int(np.argmax(ok)) + 1 if ok.any() else math.inf


def _lobatto(m: int) -> np.ndarray:
    """m Chebyshev-Lobatto nodes cos(pi j / (m - 1)) of [-1, 1] (one node: +1)."""
    return np.cos(np.pi * np.arange(m) / max(1, m - 1))


def _lagrange(s: np.ndarray, m: int) -> np.ndarray:
    """Lagrange basis values (len(s), m) at the m Chebyshev-Lobatto nodes, barycentric form."""
    lam = (-1.0) ** np.arange(m)
    lam[[0, -1]] *= 0.5
    diff = s[:, None] - _lobatto(m)
    hit = diff == 0.0
    w = lam / np.where(hit, 1.0, diff)
    w /= np.sum(w, axis=1, keepdims=True)
    at_node = np.any(hit, axis=1)
    w[at_node] = hit[at_node]
    return w


def _nodes(group: BlockGroup, factors: np.ndarray, axes: np.ndarray, coords: np.ndarray, dt: float):
    """Interpolation nodes for one time-dependent stage and group.

    Returns the node rows, the per-axis Lagrange weights of every step
    (None when the nodes are the step rows themselves) and the nodes per
    axis.  The nodes form a tensor Chebyshev-Lobatto grid on the bounding
    box of the steps' coordinates in the affine span of the drive rows.
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
    weights = [_lagrange((coords[:, a] - mid[a]) / half[a], m) for a, m in enumerate(counts)]
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


def _interpolation_gap(group: BlockGroup, energies, factors: np.ndarray, node_exps, weights, dt: float) -> float:
    """Largest entry gap between the interpolant and a direct exponential, at the step of largest Lebesgue sum."""
    lebesgue = np.prod([np.sum(np.abs(w), axis=1) for w in weights], axis=0)
    k = int(np.argmax(lebesgue))
    w = _tensor_weights(weights, k, k + 1)
    direct = _factor_exponentials(group, energies, factors[k:k + 1], dt)
    return max(float(np.max(np.abs(_weighted(w, f) - g))) for f, g in zip(node_exps, direct))


def propagate_matrix(
    plan: StagePlan,
    columns: np.ndarray,
    noise: NoiseRealization | None = None,
    record_populations: bool = False,
) -> PropagationResult:
    """Propagate the column states of a (dim, n_cols) matrix through all stages.

    The blocks of a stage do not interact, so each group of equal-size
    blocks runs through all of the stage's steps on its own, in step order.
    """
    norms0 = np.sum(np.abs(columns) ** 2, axis=0)
    if np.any(norms0 > 1.0 + 1e-9):
        raise ValueError("initial state norm exceeds 1")
    cols = columns.astype(complex)
    n_cols = cols.shape[1]

    ryd = plan.stages[0].spec.basis.rydberg_projector_diagonal()
    times = [np.zeros(1)]
    p_r = [(ryd @ np.abs(cols) ** 2)[None]]
    pops = [np.abs(cols[None]) ** 2] if record_populations else None

    t_offset = 0.0
    for i_stage, stage in enumerate(plan.stages):
        if stage.spec.basis.dim != cols.shape[0]:
            raise ValueError("stage basis dimension does not match the propagated state")
        n = _stage_steps(stage, plan.policy)
        dt = stage.duration / n
        evaluator = HamiltonianEvaluator(stage.spec, stage.duration, noise, t_offset)
        factors = evaluator.drive_factors((np.arange(n) + 0.5) * dt)
        constant = np.all(factors == factors[0])
        if constant:
            h_const = evaluator(0.5 * dt)
        else:
            axes, coords = _affine_axes(factors)
        diag = evaluator.diagonal
        stage_pr = np.zeros((n, n_cols))
        stage_pops = np.empty((n, *cols.shape)) if record_populations else None
        for group in stage.spec.block_groups():
            n_blocks, d = group.index.shape
            psi_g = cols[group.index]  # (n_blocks, d, n_cols)
            ryd_g = ryd[group.index]
            ref = group.index[:, 0]
            phase = np.exp(-1j * dt * diag[ref])
            if constant or not group.factor_index:
                # block b steps by phase_b F_r, F_r = exp of its distinct rows r.  Blocks of one key (r,
                # |phase_b|, Rydberg weights W) have P_r = |phase|^2k tr(F_r^k+ W F_r^k G) after k steps,
                # with G the key's Gram matrix sum_b x_b x_b+ per column.
                rows, first, row_of = np.unique(group.rows, axis=0, return_index=True, return_inverse=True)
                i = group.index[first]
                f = (expm(-1j * dt * (h_const[i[:, :, None], i[:, None, :]] - np.eye(d) * diag[i[:, :1, None]]))
                     if group.factor_index else np.ones((1, 1, 1)))
                keys, key_first, key_of = np.unique(np.column_stack([row_of, diag[ref].imag, ryd_g]), axis=0,
                                                    return_index=True, return_inverse=True)
                gram = (np.equal.outer(np.arange(len(keys)), key_of) @ (psi_g.conj()[:, :, None] * psi_g[:, None])
                        .reshape(n_blocks, -1)).reshape(len(keys), d * d, n_cols)
                _log.debug("stage %d, blocks %dx%d: %d steps in closed form, %d distinct rows, %d Gram keys",
                           i_stage, n_blocks, d, n, len(rows), len(keys))
                chunk = max(1, _CHUNK_ELEMENTS // (len(keys) * max(d * d, n_cols)))
                base = f[None]  # F^1..F^chunk by doubling
                while len(base) < min(n, chunk):
                    base = np.concatenate([base, base[:min(n, chunk) - len(base)] @ base[-1]])
                for k0 in range(0, n, chunk):
                    k1 = min(n, k0 + chunk)
                    f_k = base[:k1 - k0] @ f_k[-1] if k0 else base[:k1 - k0]
                    g = f_k[:, row_of[key_first]]
                    m = (np.swapaxes(g.conj(), -1, -2) @ (ryd_g[key_first, :, None] * g)).reshape(k1 - k0, -1, d * d)
                    decay = np.exp(np.outer(np.arange(k0 + 1, k1 + 1), 2.0 * dt * diag[ref[key_first]].imag))
                    stage_pr[k0:k1] += np.einsum("sk,ksc->sc", decay, np.swapaxes(m, 0, 1) @ gram).real
                    if record_populations:  # the same powers, applied to every block
                        sub = max(1, _CHUNK_ELEMENTS // (n_blocks * d * n_cols))
                        for j0 in range(k0, k1, sub):
                            j1 = min(k1, j0 + sub)
                            decay = np.exp(np.outer(np.arange(j0 + 1, j1 + 1), 2.0 * dt * diag[ref].imag))
                            x = f_k[j0 - k0:j1 - k0, row_of] @ psi_g
                            stage_pops[j0:j1][:, group.index] = decay[..., None, None] * np.abs(x) ** 2
                psi_g = phase[:, None, None] ** n * (f_k[-1, row_of] @ psi_g)
            else:
                energies = [diag[i] - diag[i[:, :1]] for i in group.factor_index]
                nodes, weights, counts = _nodes(group, factors, axes, coords, dt)
                gap = 0.0
                if weights is not None:
                    node_exps = _factor_exponentials(group, energies, nodes, dt)
                    gap = _interpolation_gap(group, energies, factors, node_exps, weights, dt)
                _log.debug("stage %d, blocks %dx%d: %d steps, nodes per axis %s, checked gap %.2e",
                           i_stage, n_blocks, d, n, counts if weights is not None else "(the steps)", gap)
                if gap > _CHECK_TOL:
                    raise PropagationError(f"stage {i_stage}: interpolated step exponentials off by {gap:.2e}")
                # factor k acts on axis k of the block states; the factors commute, so the
                # first goes last and writes the trajectory
                dims = [len(i[0]) for i in group.factor_index]
                chunk = max(1, _CHUNK_ELEMENTS // (n_blocks * max(sum(dk * dk for dk in dims), d * n_cols)))
                psi_g = psi_g.reshape(n_blocks, dims[0], -1)
                for k0 in range(0, n, chunk):
                    k1 = min(n, k0 + chunk)
                    exps = (_factor_exponentials(group, energies, factors[k0:k1], dt) if weights is None else
                            [_weighted(_tensor_weights(weights, k0, k1), f) for f in node_exps])
                    us = [b[:, group.rows[:, slot]] for slot, b in enumerate(exps)]
                    us[0] *= phase[:, None, None]
                    steps = [(us[slot][:, :, None], (n_blocks, math.prod(dims[:slot]), dk, -1))
                             for slot, dk in enumerate(dims) if slot]
                    traj = np.empty((k1 - k0, *psi_g.shape), dtype=complex)
                    for j in range(k1 - k0):
                        x = psi_g
                        for u, shape in steps:
                            x = np.matmul(u[j], x.reshape(shape)).reshape(psi_g.shape)
                        psi_g = np.matmul(us[0][j], x, out=traj[j])
                    # P_r weights the squared real and imaginary parts, then adds them
                    sq = traj.reshape(k1 - k0, -1, n_cols).view(float) ** 2
                    p = ryd_g.ravel() @ sq
                    stage_pr[k0:k1] += p[..., 0::2] + p[..., 1::2]
                    if record_populations:
                        stage_pops[k0:k1][:, group.index] = (sq[..., 0::2] + sq[..., 1::2]).reshape(
                            k1 - k0, n_blocks, d, n_cols)
            if not np.all(np.isfinite(psi_g)):
                raise PropagationError(f"non-finite amplitudes in stage {i_stage}")
            cols[group.index] = psi_g.reshape(n_blocks, d, n_cols)
        times.append(t_offset + np.arange(1, n + 1) * dt)
        p_r.append(stage_pr)
        if record_populations:
            pops.append(stage_pops)
        t_offset += stage.duration

    times = np.concatenate(times)
    p_r = np.concatenate(p_r)  # (n_samples, n_cols)
    return PropagationResult(
        final_state=cols,
        norm_loss=np.maximum(0.0, norms0 - np.sum(np.abs(cols) ** 2, axis=0)),
        rydberg_times=times,
        rydberg_populations=p_r,
        time_integrated_rydberg=np.trapezoid(p_r, times, axis=0),
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
    return PropagationResult(
        final_state=res.final_state[:, 0],
        norm_loss=float(res.norm_loss[0]),
        rydberg_times=res.rydberg_times,
        rydberg_populations=res.rydberg_populations[:, 0],
        time_integrated_rydberg=float(res.time_integrated_rydberg[0]),
        population_traj=None if res.population_traj is None else res.population_traj[..., 0],
    )


def propagate_rk(
    plan: StagePlan,
    psi0: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Cross-check propagation with scipy's explicit Runge-Kutta (DOP853).

    Independent of the exponential stepper and of the block structure: the
    right-hand side is -i (diagonal + the dense couplings summed per distinct
    envelope) y, and a call computes only the envelope values.  Used to
    validate the stepper on small systems.  Returns the final state only.
    """
    from scipy.integrate import solve_ivp

    psi = np.asarray(psi0, dtype=complex)
    for stage in plan.stages:
        diag = -1j * HamiltonianEvaluator(stage.spec, stage.duration).diagonal
        envelopes = list(dict.fromkeys(d.envelope for d in stage.spec.drives))
        couplings = np.zeros((len(envelopes), len(diag), len(diag)), dtype=complex)
        for d, k in zip(stage.spec.drives, stage.spec.coupling_matrices()):
            couplings[envelopes.index(d.envelope)] -= 1j * k

        def rhs(t, y):
            f = np.array([envelope_value(env, t, stage.duration) for env in envelopes])
            return diag * y + f @ (couplings @ y)

        sol = solve_ivp(
            rhs,
            (0.0, stage.duration),
            psi,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=False,
        )
        if not sol.success:
            raise PropagationError(f"RK cross-check failed: {sol.message}")
        psi = sol.y[:, -1]
    return psi
