"""References the propagation kernel and the gate metrics are checked against.

Each is independent of the code it checks: a dense per-step propagation on
the full H(t), a Runge-Kutta propagation that knows nothing of blocks or
exponentials, and a fidelity optimized over virtual-Z phases.
"""

import math
from functools import partial

import numpy as np
from scipy.linalg import expm

from rydswap.dynamics import PropagationError, StagePlan, _budget_rate, _stage_steps
from rydswap.gates import _bit_table, process_fidelity
from rydswap.model import HamiltonianEvaluator, envelope_value


def coupling_matrices(spec):
    """(|upper><lower| + h.c.)/2 per drive, (n_drives, dim, dim) in drive order, on the pairs of drive_edges."""
    drive, src, dst = spec.drive_edges()
    mats = np.zeros((len(spec.drives), spec.basis.dim, spec.basis.dim), dtype=complex)
    mats[drive, src, dst] = mats[drive, dst, src] = 0.5
    return mats


def _single_rate(plan):
    """Gamma if every stage's basis decays at Gamma per Rydberg excitation and nowhere else, else 0."""
    gamma = 0.0
    for stage in plan.stages:
        decay, ryd = stage.spec.basis.decay_diagonal(), stage.spec.basis.rydberg_projector_diagonal()
        gamma = gamma or float(np.max(decay[ryd > 0] / ryd[ryd > 0], initial=0.0))
        if not (gamma > 0.0 and np.allclose(decay, gamma * ryd, rtol=1e-12, atol=0.0)):
            return 0.0
    return gamma


def _dense_oracle(plan, cols, noise=None):
    """Dense per-step propagation: expm of the evaluator's full H at each step midpoint.

    Returns the final states, the sample times (t = 0 and every step end),
    the exposure and the populations (n_samples, dim, n_cols) at those
    times.  The exposure is the integral of P_r summed over the columns:
    on plans with one decay rate Gamma on every Rydberg level whose Gamma T
    passes the kernel's cut (_budget_rate), the norm the oracle loses over
    Gamma, the kernel's decay budget; otherwise the trapezoid of P_r.  In a
    stage whose drives vary the kernel splits the decay off symmetrically
    around each unitary step; the oracle splits it the same way, so the
    comparison measures the block assembly, not the splitting.
    """
    psi, t_offset = cols.astype(complex), 0.0
    times, pops = [0.0], [np.abs(psi) ** 2]
    ryd = plan.stages[0].spec.basis.rydberg_projector_diagonal()
    for stage in plan.stages:
        n = _stage_steps(stage, plan.policy)
        dt = stage.duration / n
        evaluator = HamiltonianEvaluator(stage.spec, stage.duration, noise, t_offset)
        mids = (np.arange(n) + 0.5) * dt
        factors = evaluator.drive_factors(mids)
        varying = np.any(factors != factors[0])
        for t in mids:
            times.append(t_offset + t + 0.5 * dt)
            h = evaluator(t)
            if varying:
                half_decay = np.diag(h).imag  # -decay/2
                damp = np.exp(0.5 * dt * half_decay)[:, None]
                psi = damp * (expm(-1j * dt * (h - 1j * np.diag(half_decay))) @ (damp * psi))
            else:
                psi = expm(-1j * dt * h) @ psi
            pops.append(np.abs(psi) ** 2)
        t_offset += stage.duration
    pops, times = np.array(pops), np.array(times)
    gamma = _single_rate(plan) if _budget_rate(plan) else 0.0
    if gamma:
        exposure = np.sum(np.abs(cols) ** 2 - np.abs(psi) ** 2) / gamma
    else:
        exposure = np.trapezoid(np.einsum("sdc,d->s", pops, ryd), times)
    return psi, times, float(exposure), pops


def propagate_rk(
    plan: StagePlan,
    psi0: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Cross-check propagation with Hairer and Wanner's Fortran DOP853 (scipy.integrate.ode).

    Independent of the exponential stepper and of the block structure: the
    right-hand side is -i (diagonal + the dense couplings summed per distinct
    envelope) y, in real form.  Square envelopes are constant, so their
    couplings join the static part; a call evaluates each other distinct
    envelope once, as a scalar.  Used to validate the stepper on small
    systems.  Returns the final state only.
    """
    from scipy.integrate import ode

    psi = np.asarray(psi0, dtype=complex)
    n = len(psi)
    for stage in plan.stages:
        timed = list(dict.fromkeys(d.envelope for d in stage.spec.drives if d.envelope.kind != "square"))
        gens = np.zeros((1 + len(timed), n, n), dtype=complex)  # -i H = gens[0] + sum_k f_k(t) gens[1 + k]
        gens[0] = np.diag(-1j * HamiltonianEvaluator(stage.spec, stage.duration).diagonal)
        for d, k in zip(stage.spec.drives, coupling_matrices(stage.spec)):
            if d.envelope.kind == "square":  # constant over the stage
                gens[0] -= 1j * float(envelope_value(d.envelope, 0.0, stage.duration)) * k
            else:
                gens[1 + timed.index(d.envelope)] -= 1j * k
        static, *real = np.block([[gens.real, -gens.imag], [gens.imag, gens.real]])  # on (Re y, Im y)
        drives = [(partial(envelope_value, env, duration=stage.duration), r) for env, r in zip(timed, real)]

        def rhs(t, y):
            m = static
            for f, r in drives:
                m = m + f(t) * r
            return m @ y

        # no step cap, as in solve_ivp
        solver = ode(rhs).set_integrator("dop853", rtol=rtol, atol=atol, nsteps=np.iinfo(np.int32).max)
        y = solver.set_initial_value(np.concatenate([psi.real, psi.imag]), 0.0).integrate(stage.duration)
        if not solver.successful():
            raise PropagationError(f"RK cross-check stopped at t = {solver.t} of {stage.duration}")
        psi = y[:n] + 1j * y[n:]
    return psi


def phase_optimized_fidelity(u_gate: np.ndarray, u_ideal: np.ndarray, n_qubits: int) -> float:
    """Best process fidelity over per-qubit virtual-Z corrections.

    Used where the tabulated phase convention is ambiguous (the half-angle
    exchange variant carries no printed adjustment).
    """
    from scipy.optimize import minimize

    bit_table = _bit_table(n_qubits)

    def neg_fid(phis):
        diag = np.exp(1j * (bit_table @ phis))
        return -process_fidelity(diag[:, None] * u_gate, u_ideal)

    best = -neg_fid(np.zeros(n_qubits))
    rng = np.random.default_rng(7)
    starts = [np.zeros(n_qubits)] + [rng.uniform(-math.pi, math.pi, n_qubits) for _ in range(6)]
    for x0 in starts:
        res = minimize(neg_fid, x0, method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-12})
        best = max(best, -res.fun)
    return float(best)
