"""Time propagation under piecewise-smooth H(t) with Rydberg-loss accounting.

The integrator exponentiates H(t_mid) exactly over each step, so the large
static interaction diagonals (tens of GHz) cost nothing in step size; the
step is limited only by envelope smoothness.  Every stage Hamiltonian is
block-diagonal, with blocks derived from the atoms (see
HamiltonianSpec.block_groups), and one kernel propagates each group of
equal-shape blocks on its own.  The drive amplitudes are read at every
step midpoint; a stage whose amplitudes are the same at every step
exponentiates each block once with ``expm``, any other stage each distinct
cluster Hamiltonian once per step with a batched ``eigh``, and a block
spanning two clusters is the Kronecker product of their exponentials.
``propagate_matrix`` is that kernel, ``propagate`` its one-column view.  A
scipy explicit Runge-Kutta propagation and the dense ``evolve_step`` are
kept alongside as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .model import BlockGroup, HamiltonianEvaluator, HamiltonianSpec, NoiseRealization, envelope_value

# Step propagators and states are built in chunks of steps of about this many
# complex elements each, which bounds the kernel's memory at any step count.
_CHUNK_ELEMENTS = 32768


class PropagationError(RuntimeError):
    """Non-finite amplitudes during integration (step too large or bad spec)."""


@dataclass(frozen=True)
class StepPolicy:
    """Integrator step control.

    The step is sigma/gaussian_resolution for stages with an active
    Gaussian envelope and duration/square_resolution otherwise.
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
    """Number of uniform steps for a stage."""
    gaussian_sigmas = [
        d.envelope.sigma
        for d in stage.spec.drives
        if d.envelope.kind == "truncated_gaussian" and d.envelope.amplitude != 0.0
    ]
    if gaussian_sigmas:
        dt = min(gaussian_sigmas) / policy.gaussian_resolution
    else:
        dt = stage.duration / policy.square_resolution
    return max(1, math.ceil(stage.duration / dt))


def _group_exponentials(group: BlockGroup, energies, phase: np.ndarray, factors: np.ndarray, dt: float) -> np.ndarray:
    """Step propagators of a group's blocks at each row of factors (see BlockGroup).

    Each distinct factor row is exponentiated once per step, by a batched
    eigh of its real symmetric Hermitian part with the decay split off
    symmetrically, an error far below the step's own at these rates.  A
    block's propagator is its phase times the Kronecker product of its
    rows' exponentials, as exp(A (+) B) = exp(A) (x) exp(B).
    """
    u = phase
    for slot, (e, k) in enumerate(zip(energies, group.factor_couplings)):
        h = np.tensordot(factors, k, axes=1)
        h[..., np.arange(e.shape[1]), np.arange(e.shape[1])] += e.real
        w, v = np.linalg.eigh(h)
        b = (v * np.exp(-1j * dt * w)[..., None, :]) @ np.swapaxes(v, -1, -2)
        if np.any(e.imag):
            damp = np.exp(0.5 * dt * e.imag)  # exp(-dt decay / 4)
            b *= damp[..., :, None]
            b *= damp[..., None, :]
        b = b[:, group.rows[:, slot]]
        # the Kronecker product, this slot's states least significant
        da, db = u.shape[-1], b.shape[-1]
        u = (u[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*b.shape[:-2], da * db, da * db)
    return u


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

    ryd = plan.stages[0].spec.basis.rydberg_projector_diagonal()
    times = [np.zeros(1)]
    p_r = [(ryd @ np.abs(cols) ** 2)[None]]
    pops = [np.abs(cols[None]) ** 2] if record_populations else None

    t_offset = 0.0
    for stage in plan.stages:
        if stage.spec.basis.dim != cols.shape[0]:
            raise ValueError("stage basis dimension does not match the propagated state")
        n = _stage_steps(stage, plan.policy)
        dt = stage.duration / n
        evaluator = HamiltonianEvaluator(stage.spec, noise, t_offset)
        factors = evaluator.drive_factors((np.arange(n) + 0.5) * dt)
        constant = np.all(factors == factors[0])
        if constant:
            h_const = evaluator(0.5 * dt)
        diag = evaluator.diagonal
        stage_pr = np.zeros((n, cols.shape[1]))
        stage_pops = np.empty((n, *cols.shape)) if record_populations else None
        for group in stage.spec.block_groups():
            n_blocks, d = group.index.shape
            psi_g = cols[group.index]  # (n_blocks, d, n_cols)
            ryd_g = ryd[group.index]
            if constant:
                h_g = h_const[group.index[:, :, None], group.index[:, None, :]]
                u_const = np.exp(-1j * dt * h_g) if d == 1 else expm(-1j * dt * h_g)
            else:
                energies = [diag[i] - diag[i[:, :1]] for i in group.factor_index]
                phase = np.exp(-1j * dt * diag[group.index[:, 0]])[:, None, None]
            chunk = max(1, _CHUNK_ELEMENTS // (n_blocks * d * max(d, cols.shape[1])))
            for k0 in range(0, n, chunk):
                k1 = min(n, k0 + chunk)
                u = u_const if constant else _group_exponentials(group, energies, phase, factors[k0:k1], dt)
                u = np.broadcast_to(u, (k1 - k0, n_blocks, d, d))
                traj = np.empty((k1 - k0, *psi_g.shape), dtype=complex)
                for j in range(k1 - k0):
                    psi_g = np.matmul(u[j], psi_g, out=traj[j])
                if not np.all(np.isfinite(psi_g)):
                    raise PropagationError(f"non-finite amplitudes at t={t_offset + k1 * dt:.6f} us")
                pop = np.abs(traj) ** 2
                stage_pr[k0:k1] += np.einsum("sbdc,bd->sc", pop, ryd_g)
                if record_populations:
                    stage_pops[k0:k1][:, group.index] = pop
            cols[group.index] = psi_g
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
    """Cross-check propagation with scipy's explicit Runge-Kutta (RK45).

    Independent of the exponential stepper and of the block structure: the
    right-hand side is -i (diagonal + the dense couplings summed per distinct
    envelope) y, and a call computes only the envelope values.  Used to
    validate the stepper on small systems.  Returns the final state only.
    """
    psi = np.asarray(psi0, dtype=complex)
    for stage in plan.stages:
        diag = -1j * HamiltonianEvaluator(stage.spec, None).diagonal
        envelopes = list(dict.fromkeys(d.envelope for d in stage.spec.drives))
        couplings = np.zeros((len(envelopes), len(diag), len(diag)), dtype=complex)
        for d, k in zip(stage.spec.drives, stage.spec.coupling_matrices()):
            couplings[envelopes.index(d.envelope)] -= 1j * k

        def rhs(t, y):
            f = np.array([envelope_value(env, t) for env in envelopes])
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
