import math
from dataclasses import replace

import numpy as np
import pytest

from rydswap.basis import LevelScheme, build_basis, qubit_scheme
from rydswap import dynamics
from rydswap.dynamics import (
    PropagationError,
    Stage,
    StagePlan,
    StepPolicy,
    _affine_axes,
    _axis_nodes,
    _factor_exponentials,
    _nodes,
    _stage_steps,
    _tensor_weights,
    _weighted,
    evolve_step,
    propagate,
    propagate_matrix,
    propagate_rk,
)
from rydswap.gates import GateParams, make_protocol, run_gate, table_params, two_target_plan
from rydswap.model import (
    DriveTerm,
    HamiltonianEvaluator,
    HamiltonianSpec,
    InteractionGraph,
    NoiseRealization,
    envelope_value,
    gaussian_pulse,
    square_pulse,
)
from rydswap.noise import DopplerSpec, IntensitySpec, NoiseSpec, sample_realization, shot_rng

TWO_PI = 2 * math.pi


def _free_spec(n_atoms=1):
    basis = build_basis([qubit_scheme()] * n_atoms)
    return basis, HamiltonianSpec(basis, (), InteractionGraph(), ())


def test_zero_hamiltonian_identity():
    basis, spec = _free_spec()
    psi0 = (basis.basis_state(("0",)) + 1j * basis.basis_state(("r",))) / math.sqrt(2)
    res = propagate(StagePlan((Stage(3.7, spec),)), psi0)
    assert np.max(np.abs(res.final_state - psi0)) < 1e-12
    assert res.norm_loss < 1e-14


def test_resonant_pi_pulse():
    basis = build_basis([qubit_scheme()])
    om = TWO_PI * 10.0
    drive = DriveTerm(0, "0", "1", square_pulse(om), family="x")
    spec = HamiltonianSpec(basis, (drive,), InteractionGraph(), ())
    res = propagate(StagePlan((Stage(math.pi / om, spec),)), basis.basis_state(("0",)))
    target = -1j * basis.basis_state(("1",))
    assert np.max(np.abs(res.final_state - target)) < 1e-9


def test_evolve_step_diagonal_phases():
    h = np.diag([1.0, 2.0, -3.0]).astype(complex)
    psi = np.ones(3, dtype=complex) / math.sqrt(3)
    out = evolve_step(h, 0.7, psi)
    assert np.allclose(out, np.exp(-1j * np.diag(h) * 0.7) * psi, atol=1e-12)


def test_evolve_step_decay_closed_form():
    gamma = 0.04
    h = np.diag([0.0, -0.5j * gamma])
    psi = np.array([0.0, 1.0], dtype=complex)
    out = evolve_step(h, 2.0, psi)
    assert abs(out[1]) == pytest.approx(math.exp(-gamma * 2.0 / 2.0), rel=1e-12)


def test_evolve_step_unitarity_random_hermitian():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = m + m.conj().T
    u = evolve_step(h, 0.31, np.eye(4, dtype=complex))
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10


def test_evolve_step_matches_eigendecomposition():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = m + m.conj().T
    w, v = np.linalg.eigh(h)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    ref = (v * np.exp(-1j * w * 0.47)) @ (v.conj().T @ psi)
    assert np.max(np.abs(evolve_step(h, 0.47, psi) - ref)) < 1e-11


def test_linearity():
    plan = two_target_plan(table_params("SWAP"))
    basis = plan.stages[0].spec.basis
    psi1 = basis.basis_state(("0", "1"))
    psi2 = basis.basis_state(("1", "1"))
    a, b = 0.6, 0.8j
    lhs = propagate(plan, a * psi1 + b * psi2).final_state
    rhs = a * propagate(plan, psi1).final_state + b * propagate(plan, psi2).final_state
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_norm_conservation_without_decay():
    params = table_params("SWAP")
    params = params.__class__(**{**params.__dict__, "lifetime": None, "duration": 5.0})
    plan = two_target_plan(params)
    basis = plan.stages[0].spec.basis
    res = propagate(plan, basis.basis_state(("0", "1")))
    assert abs(np.vdot(res.final_state, res.final_state).real - 1.0) < 1e-10
    assert res.norm_loss < 1e-10


def test_runge_kutta_cross_check_table_swap():
    # independent explicit Runge-Kutta propagation agrees with the
    # exponential stepper on the published exchange scenario; the static
    # spectrum is centered (a pure frame choice applied to both sides) so
    # the double-precision phase accumulation stays below the target
    from rydswap.model import HamiltonianSpec

    p = table_params("SWAP")
    plan = two_target_plan(p)
    stage = plan.stages[0]
    spec = stage.spec
    frame = spec.frame_detunings + tuple(
        (a, lab, -p.delta / 2) for a in (0, 1) for lab in ("0", "1", "r")
    )
    spec_c = HamiltonianSpec(spec.basis, spec.drives, spec.interactions, frame, spec.collective_pairs)
    centered = StagePlan((Stage(stage.duration, spec_c),), StepPolicy(gaussian_resolution=12800))
    psi0 = spec.basis.basis_state(("0", "1"))
    a = propagate(centered, psi0).final_state
    b = propagate_rk(StagePlan((Stage(stage.duration, spec_c),)), psi0, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(a - b)) < 1e-7


def test_default_resolution_amplitude_stability():
    # default step against its halving: small-amplitude dressed components
    # are the limiting quantities
    params = table_params("SWAP")
    plan = two_target_plan(params)
    basis = plan.stages[0].spec.basis
    psi0 = basis.basis_state(("0", "1"))
    coarse = propagate(StagePlan(plan.stages, StepPolicy()), psi0).final_state
    fine = propagate(StagePlan(plan.stages, StepPolicy(gaussian_resolution=1600)), psi0).final_state
    assert np.max(np.abs(coarse - fine)) < 5e-6


def test_square_window_shorter_than_stage():
    # a square drive on for a quarter of the time, as a driven stage and an
    # undriven one, is a pi/2 pulse, not a 2 pi rotation over the whole time
    basis = build_basis([qubit_scheme()])
    drive = DriveTerm(0, "0", "1", square_pulse(TWO_PI * 1.0), family="x")
    plan = StagePlan((Stage(0.25, HamiltonianSpec(basis, (drive,))), Stage(0.75, HamiltonianSpec(basis))))
    psi0 = basis.basis_state(("0",))
    psi = propagate(plan, psi0).final_state
    assert np.max(np.abs(psi - propagate_rk(plan, psi0))) < 1e-8
    assert abs(psi[basis.index_of(("1",))]) ** 2 == pytest.approx(0.5, abs=1e-9)


def test_dark_state_rydberg_exposure_matches_adiabatic_integral():
    # the |00> input follows the dark state; its integrated Rydberg
    # population equals the adiabatic admixture 2 W1^2/(2 W1^2 + W2^2)
    params = table_params("C_SWAP_CCSdag")
    plan = two_target_plan(params)
    basis = plan.stages[0].spec.basis
    res = propagate(plan, basis.basis_state(("0", "0")))
    t = np.linspace(0.0, params.duration, 2001)
    floor = math.exp(-2.0)
    om1 = params.omega1_max * (np.exp(-((t - params.duration / 2) ** 2) / (2 * (params.duration / 4) ** 2)) - floor)
    p_dark = 2 * om1**2 / (2 * om1**2 + params.omega2**2)
    expected = np.trapezoid(p_dark, t)
    assert res.time_integrated_rydberg == pytest.approx(expected, rel=0.10)


def test_propagation_result_invariants():
    plan = two_target_plan(table_params("C_SWAP_CCSdag"))
    basis = plan.stages[0].spec.basis
    res = propagate(plan, basis.basis_state(("1", "1")))
    assert 0.0 <= res.norm_loss <= 1.0
    assert 0.0 <= res.time_integrated_rydberg <= plan.total_duration
    res2 = propagate(plan, basis.basis_state(("1", "1")), record_populations=True)
    norms = res2.population_traj.sum(axis=1)
    assert np.all(np.diff(norms) < 1e-12)  # norm non-increasing with decay on


def test_propagate_matrix_matches_vector_propagation():
    plan = two_target_plan(table_params("iSWAP"))
    basis = plan.stages[0].spec.basis
    cols = np.zeros((basis.dim, 2), dtype=complex)
    cols[basis.index_of(("0", "1")), 0] = 1.0
    cols[basis.index_of(("1", "1")), 1] = 1.0
    res = propagate_matrix(plan, cols, record_populations=True)
    n_samples = len(res.rydberg_times)
    assert res.rydberg_populations.shape == (n_samples, 2)
    assert res.population_traj.shape == (n_samples, basis.dim, 2)
    for j, labels in enumerate((("0", "1"), ("1", "1"))):
        ref = propagate(plan, basis.basis_state(labels), record_populations=True)
        assert np.max(np.abs(res.final_state[:, j] - ref.final_state)) < 1e-12
        assert res.norm_loss[j] == pytest.approx(ref.norm_loss, abs=1e-12)
        assert res.time_integrated_rydberg[j] == pytest.approx(ref.time_integrated_rydberg, rel=1e-9)
        assert np.max(np.abs(res.rydberg_populations[:, j] - ref.rydberg_populations)) < 1e-12
        assert np.max(np.abs(res.population_traj[..., j] - ref.population_traj)) < 1e-12


def test_norm_budget_every_cswap_input():
    # population lost to decay plus population left adds up to the input's
    proto = make_protocol("C_SWAP_CCSdag", table_params("C_SWAP_CCSdag"))
    plan, basis = proto.plan, proto.basis
    cols = np.eye(basis.dim, dtype=complex)[:, list(basis.comp_indices)]
    assert cols.shape[1] == 8
    res = propagate_matrix(plan, cols)
    final_norms = np.sum(np.abs(res.final_state) ** 2, axis=0)
    assert np.all(res.norm_loss > 0.0)
    assert np.max(np.abs(res.norm_loss + final_norms - np.sum(np.abs(cols) ** 2, axis=0))) < 1e-12


def _blocked_plan():
    """Two stages on a block-diagonal H with decay.

    Atom 0 has levels 0, 1 and four decaying Rydberg levels; its drives
    couple {0, ra, rb} and {1, rc} and leave rd alone, so each level of the
    undriven atom 1 repeats a 3-block, a 2-block and a 1-block.  The second
    stage starts at a nonzero global time and carries the intensity-noisy
    "omega2" family.
    """
    g = 1.0 / 400.0  # the catalog's Rydberg decay rate, 1/us
    atom0 = LevelScheme(("0", "1", "ra", "rb", "rc", "rd"), (False, False) + (True,) * 4, (0.0, 0.0) + (g,) * 4)
    basis = build_basis([atom0, qubit_scheme(("r",), g)])
    frame = ((0, "1", TWO_PI * 3.0), (0, "rd", TWO_PI * 7.0), (1, "1", TWO_PI * 2.0), (1, "r", TWO_PI * 5.0))
    t1, t2 = 0.13, 0.9
    first = (DriveTerm(0, "0", "ra", square_pulse(TWO_PI * 4.0), family="omega1"),)
    second = (
        DriveTerm(0, "0", "ra", gaussian_pulse(TWO_PI * 9.0), family="omega1"),
        DriveTerm(0, "ra", "rb", square_pulse(TWO_PI * 6.0), family="omega2"),
        DriveTerm(0, "1", "rc", square_pulse(TWO_PI * 5.0), family="omega2"),
    )
    stages = (Stage(t1, HamiltonianSpec(basis, first, frame_detunings=frame)),
              Stage(t2, HamiltonianSpec(basis, second, frame_detunings=frame + ((0, "rb", TWO_PI * 1.5),))))
    rng = np.random.default_rng(3)
    track = 1.0 + 0.3 * rng.standard_normal(110)
    noise = NoiseRealization(intensity_factors={"omega2": track})
    return StagePlan(stages, StepPolicy(gaussian_resolution=200, square_resolution=20)), noise


def test_block_kernel_matches_dense_per_step_oracle():
    plan, noise = _blocked_plan()
    basis = plan.stages[0].spec.basis
    rng = np.random.default_rng(4)
    psi0 = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi0 /= np.linalg.norm(psi0)

    # dense midpoint H per step, intensity read at global time
    psi, pops, t_offset = psi0, [np.abs(psi0) ** 2], 0.0
    for stage in plan.stages:
        spec = stage.spec
        static = np.diag(spec.static_diagonal() - 0.5j * basis.decay_diagonal())
        n = _stage_steps(stage, plan.policy)
        dt = stage.duration / n
        for k in range(n):
            t = (k + 0.5) * dt
            h = static.copy()
            for d, kmat in zip(spec.drives, spec.coupling_matrices()):
                h += envelope_value(d.envelope, t, stage.duration) * noise.intensity_at(d.family, t_offset + t) * kmat
            psi = evolve_step(h, dt, psi)
            pops.append(np.abs(psi) ** 2)
        t_offset += stage.duration

    res = propagate(plan, psi0, noise, record_populations=True)
    assert np.max(np.abs(res.final_state - psi)) < 1e-8
    # populations come back in basis order, one row per step
    assert res.population_traj.shape == (len(pops), basis.dim)
    assert np.max(np.abs(res.population_traj - np.array(pops))) < 1e-8
    ryd = basis.rydberg_projector_diagonal()
    assert np.max(np.abs(res.rydberg_populations - res.population_traj @ ryd)) < 1e-12
    # the track is read at global time: the second stage starts 13 update
    # intervals in, so delaying the track by 13 intervals (what a reading
    # at stage time would see) changes the result
    track = noise.intensity_factors["omega2"]
    delayed = NoiseRealization(intensity_factors={"omega2": np.concatenate([track[:13], track])})
    assert np.max(np.abs(propagate(plan, psi0, delayed).final_state - psi)) > 1e-4


def _dense_oracle(plan, cols, noise=None):
    """Dense per-step propagation: evolve_step on the evaluator's full H at each step midpoint.

    Returns the final states, P_r (n_samples, n_cols) and the populations
    (n_samples, dim, n_cols) at t = 0 and after every step.  In a stage
    whose drives vary the kernel splits the decay off symmetrically around
    each unitary step; the oracle splits it the same way, so the comparison
    measures the block assembly, not the splitting.
    """
    psi, t_offset = cols.astype(complex), 0.0
    pops = [np.abs(psi) ** 2]
    for stage in plan.stages:
        n = _stage_steps(stage, plan.policy)
        dt = stage.duration / n
        evaluator = HamiltonianEvaluator(stage.spec, stage.duration, noise, t_offset)
        mids = (np.arange(n) + 0.5) * dt
        factors = evaluator.drive_factors(mids)
        varying = np.any(factors != factors[0])
        for t in mids:
            h = evaluator(t)
            if varying:
                half_decay = np.diag(h).imag  # -decay/2
                damp = np.exp(0.5 * dt * half_decay)[:, None]
                psi = damp * evolve_step(h - 1j * np.diag(half_decay), dt, damp * psi)
            else:
                psi = evolve_step(h, dt, psi)
            pops.append(np.abs(psi) ** 2)
        t_offset += stage.duration
    pops = np.array(pops)
    ryd = plan.stages[0].spec.basis.rydberg_projector_diagonal()
    return psi, np.einsum("sdc,d->sc", pops, ryd), pops


def _assert_matches_oracle(res, oracle, state_tol):
    psi, p_r, pops = oracle
    assert np.max(np.abs(res.final_state - psi)) < state_tol
    assert np.max(np.abs(res.rydberg_populations - p_r)) < 1e-10
    assert np.max(np.abs(res.time_integrated_rydberg - np.trapezoid(p_r, res.rydberg_times, axis=0))) < 1e-10
    if res.population_traj is not None:
        assert np.max(np.abs(res.population_traj - pops)) < 1e-10


def _oracle_case(name):
    p = table_params("C_SWAP_CCSdag")
    if name == "MUX_SWAP_4T":
        params = GateParams(omega1_max=TWO_PI * 20.0, omega2=TWO_PI * 55.0, delta=TWO_PI * 400.0,
                            duration=5.1, v_ct=TWO_PI * 3000.0)
        return make_protocol(name, params), StepPolicy(gaussian_resolution=4, square_resolution=1), None
    if name == "Ck_SWAP":
        params = replace(p, n_controls=2, v_ct=3.0 * p.omega2)
        return make_protocol(name, params), StepPolicy(gaussian_resolution=20, square_resolution=5), None
    proto = make_protocol("C_SWAP_CCSdag", p)
    spec = NoiseSpec(doppler=DopplerSpec(temperature_K=150e-6),
                     intensity=IntensitySpec({"omega1": 0.02, "omega2": 0.02}), n_shots=1, seed=0)
    return proto, StepPolicy(), sample_realization(spec, proto.basis.n_atoms, proto.total_duration, shot_rng(0, 0))


@pytest.mark.parametrize("name", ["MUX_SWAP_4T", "Ck_SWAP", "noisy C_SWAP_CCSdag"])
def test_merged_and_factored_kernel_matches_dense_oracle(name):
    # MUX_SWAP_4T's target blocks are Kronecker products of two pair
    # factors, Ck_SWAP merges 9 target blocks into 3 distinct ones, and the
    # noisy shot adds Doppler shifts and intensity tracks; all with decay
    proto, policy, noise = _oracle_case(name)
    plan = StagePlan(proto.plan.stages, policy)
    cols = np.eye(proto.basis.dim)[:, list(proto.basis.comp_indices)]
    _assert_matches_oracle(propagate_matrix(plan, cols, noise), _dense_oracle(plan, cols, noise), 1e-9)


def _constant_stage_plan():
    """One square-pulse stage whose driven atom's block repeats under each level of an undriven atom.

    Atom 1 is never driven and nothing interacts, so all five blocks share
    one factor row.  Their reference states differ: atom 1 in |0> or |1>
    (no decay, no Rydberg weight, different energies), in ra or rb (Rydberg,
    two decay rates) or in rc (Rydberg without decay).
    """
    atom1 = LevelScheme(("0", "1", "ra", "rb", "rc"), (False, False, True, True, True), (0.0, 0.0, 0.5, 2.0, 0.0))
    basis = build_basis([qubit_scheme(("r",), 1.0), atom1])
    frame = ((0, "1", TWO_PI * 3.0), (1, "1", TWO_PI * 2.0), (1, "rb", TWO_PI * 5.0), (0, "r", TWO_PI * 1.5))
    drives = (DriveTerm(0, "0", "1", square_pulse(TWO_PI * 4.0), family="omega1"),
              DriveTerm(0, "1", "r", square_pulse(TWO_PI * 6.0), family="omega2"))
    return StagePlan((Stage(0.6, HamiltonianSpec(basis, drives, frame_detunings=frame)),), StepPolicy(square_resolution=37))


@pytest.mark.parametrize("record", [False, True])
def test_constant_stage_closed_form_matches_dense_oracle(record):
    plan = _constant_stage_plan()
    basis = plan.stages[0].spec.basis
    (group,) = plan.stages[0].spec.block_groups()
    assert group.index.shape == (5, 3) and len(np.unique(group.rows, axis=0)) == 1
    rng = np.random.default_rng(6)
    cols = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
    cols /= np.linalg.norm(cols, axis=0)
    res = propagate_matrix(plan, cols, record_populations=record)
    assert (res.population_traj is not None) == record
    _assert_matches_oracle(res, _dense_oracle(plan, cols), 1e-12)


def _interpolation_case(name):
    """(protocol, noise, index of its time-dependent target stage)."""
    if name == "SWAP":
        return make_protocol("SWAP", table_params("SWAP")), None, 0
    p = table_params("C_SWAP_CCSdag")
    if name == "MUX_SWAP_4T":
        return make_protocol(name, p), None, 1
    proto = make_protocol("C_SWAP_CCSdag", p)
    spec = NoiseSpec(intensity=IntensitySpec({"omega1": 0.02, "omega2": 0.02}), n_shots=1, seed=5)
    return proto, sample_realization(spec, proto.basis.n_atoms, proto.total_duration, shot_rng(5, 0)), 1


def _step_exponentials(plan, noise, index):
    """Per group with factors: (nodes per axis, direct and interpolated factor exponentials at every step).

    The interpolated ones are None where the nodes are the steps.
    """
    stage = plan.stages[index]
    n = _stage_steps(stage, plan.policy)
    dt = stage.duration / n
    t_offset = sum(s.duration for s in plan.stages[:index])
    evaluator = HamiltonianEvaluator(stage.spec, stage.duration, noise, t_offset)
    factors = evaluator.drive_factors((np.arange(n) + 0.5) * dt)
    axes, coords = _affine_axes(factors)
    out = []
    for group in stage.spec.block_groups():
        if group.factor_index:
            energies = [evaluator.diagonal[i] - evaluator.diagonal[i[:, :1]] for i in group.factor_index]
            nodes, weights, counts = _nodes(group, factors, axes, coords, dt)
            direct = _factor_exponentials(group, energies, factors, dt)
            interp = None if weights is None else [
                _weighted(_tensor_weights(weights, 0, n), f) for f in _factor_exponentials(group, energies, nodes, dt)]
            out.append((counts, direct, interp))
    return out


@pytest.mark.parametrize("name, n_axes, n_factors", [("SWAP", 1, 1), ("noisy C_SWAP_CCSdag", 2, 1),
                                                     ("MUX_SWAP_4T", 1, 2)])
def test_interpolated_step_exponentials_match_direct(name, n_axes, n_factors):
    # one drive axis (the Gaussian), two (intensity tracks on omega1 and
    # omega2), and blocks that are Kronecker products of two 8-state factors
    proto, noise, index = _interpolation_case(name)
    groups = _step_exponentials(proto.plan, noise, index)
    assert groups
    for counts, direct, interp in groups:
        assert len(counts) == n_axes and len(direct) == n_factors
        assert math.prod(counts) < 100  # against 3200 steps
        for a, b in zip(direct, interp):
            assert np.max(np.abs(a - b)) < 1e-11


@pytest.mark.parametrize("name", ["SWAP", "noisy C_SWAP_CCSdag", "MUX_SWAP_4T"])
def test_interpolated_gate_matches_per_step_path(name, monkeypatch):
    proto, noise, _ = _interpolation_case(name)
    u = run_gate(proto, noise).u_gate
    monkeypatch.setattr(dynamics, "_axis_nodes", lambda tau: math.inf)  # the nodes become the steps
    assert np.max(np.abs(run_gate(proto, noise).u_gate - u)) < 1e-9


def test_stage_steps_are_exact_for_a_stage_spanning_pulse():
    # 4 * resolution steps for a Gaussian stage and square_resolution for a
    # square stage, at every duration of a fine grid
    basis = build_basis([qubit_scheme()])
    policy = StepPolicy()
    counts = set()
    for t in np.linspace(2.0, 10.0, 20001):
        gauss = Stage(t, HamiltonianSpec(basis, (DriveTerm(0, "0", "1", gaussian_pulse(1.0)),)))
        square = Stage(t, HamiltonianSpec(basis, (DriveTerm(0, "0", "1", square_pulse(1.0)),)))
        counts.add((_stage_steps(gauss, policy), _stage_steps(square, policy)))
    assert counts == {(4 * policy.gaussian_resolution, policy.square_resolution)}


def test_three_independent_drives_take_the_steps_as_nodes():
    # three Gaussians under independent intensity tracks span three axes;
    # their tensor grid would outnumber the steps, so every step is
    # exponentiated
    basis = build_basis([LevelScheme(("0", "1", "r", "s"), (False, False, True, True), (0.0, 0.0, 0.01, 0.01))])
    drives = (DriveTerm(0, "0", "1", gaussian_pulse(TWO_PI * 300.0), family="a"),
              DriveTerm(0, "1", "r", gaussian_pulse(TWO_PI * 250.0), family="b"),
              DriveTerm(0, "r", "s", gaussian_pulse(TWO_PI * 200.0), family="c"))
    spec = HamiltonianSpec(basis, drives, frame_detunings=((0, "1", TWO_PI * 40.0),))
    plan = StagePlan((Stage(1.0, spec),), StepPolicy(gaussian_resolution=20))
    rng = np.random.default_rng(8)
    noise = NoiseRealization(intensity_factors={f: 1.0 + 0.3 * rng.standard_normal(100) for f in "abc"})
    ((counts, _, interp),) = _step_exponentials(plan, noise, 0)
    assert len(counts) == 3 and interp is None
    assert math.prod(counts) >= _stage_steps(plan.stages[0], plan.policy)
    cols = np.eye(basis.dim)
    assert np.max(np.abs(propagate_matrix(plan, cols, noise).final_state - _dense_oracle(plan, cols, noise)[0])) < 1e-9


def test_axis_nodes_grow_with_tau_and_give_way_to_the_steps():
    counts = [_axis_nodes(tau) for tau in (1e-6, 0.01, 0.3, 3.0, 10.0)]
    assert counts == sorted(counts) and counts[0] >= 1 and counts[-1] <= 64
    assert _axis_nodes(1e3) == math.inf


def test_interpolation_check_raises_with_too_few_nodes(monkeypatch):
    proto = make_protocol("SWAP", table_params("SWAP"))
    monkeypatch.setattr(dynamics, "_axis_nodes", lambda tau: 3)
    with pytest.raises(PropagationError, match="interpolated"):
        run_gate(proto)


def test_invalid_inputs():
    basis, spec = _free_spec()
    with pytest.raises(ValueError):
        Stage(0.0, spec)
    with pytest.raises(ValueError):
        propagate(StagePlan((Stage(1.0, spec),)), 2.0 * basis.basis_state(("0",)))
    with pytest.raises(ValueError):
        evolve_step(np.eye(2, dtype=complex), -0.1, np.ones(2, dtype=complex))
