import importlib.util
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from rydswap.basis import LevelScheme, build_basis, qubit_scheme
from rydswap import dynamics
from rydswap.dynamics import (
    PropagationError,
    Stage,
    StagePlan,
    StepPolicy,
    _affine_axes,
    _axis_nodes,
    _chunk_product,
    _factor_exponentials,
    _nodes,
    _stage_steps,
    _varying_source,
    propagate,
    propagate_matrix,
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

from oracles import _dense_oracle, _single_rate, coupling_matrices, propagate_rk

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
    assert res.population_traj.shape == (len(res.times), basis.dim, 2)
    exposure = 0.0
    for j, labels in enumerate((("0", "1"), ("1", "1"))):
        ref = propagate(plan, basis.basis_state(labels), record_populations=True)
        assert np.max(np.abs(res.final_state[:, j] - ref.final_state)) < 1e-12
        assert res.norm_loss[j] == pytest.approx(ref.norm_loss, abs=1e-12)
        assert np.max(np.abs(res.population_traj[..., j] - ref.population_traj)) < 1e-12
        exposure += ref.time_integrated_rydberg
    assert res.time_integrated_rydberg == pytest.approx(exposure, rel=1e-12)


@pytest.mark.parametrize("lifetime", [400.0, None])
def test_exposure_sums_the_single_column_exposures(lifetime):
    # at 400 us the exposure is the decay budget.  Without decay every stage
    # takes the chunk product with its derivative at 8 columns and at one: the
    # constant control stages by binary powers, the target stage mirrored
    proto = make_protocol("C_SWAP_CCSdag", replace(table_params("C_SWAP_CCSdag"), lifetime=lifetime))
    cols = np.eye(proto.basis.dim, dtype=complex)[:, list(proto.basis.comp_indices)]
    res = propagate_matrix(proto.plan, cols)
    exposures = [propagate(proto.plan, c).time_integrated_rydberg for c in cols.T]
    assert min(exposures) > 0.0
    assert res.time_integrated_rydberg == pytest.approx(sum(exposures), rel=1e-12)


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 37, 200])
def test_binary_powers_match_the_pairwise_product(n, deriv):
    # a broadcast chunk (one step repeated) is raised to its length by
    # repeated squaring, a materialised copy of it is reduced pairwise
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4, 4))
    h = a + np.swapaxes(a, -1, -2) - 0.05j * np.diag(rng.random(4))
    b0 = np.stack([expm(-0.3j * hk) for hk in h])
    w = rng.random(4)
    db0 = -0.25 * (w[:, None] + w[None, :]) * b0
    b = np.broadcast_to(b0, (n, *b0.shape))
    db = np.broadcast_to(db0, b.shape) if deriv else None
    assert b.strides[0] == 0
    powered = _chunk_product(b, db)
    pairwise = _chunk_product(b.copy(), None if db is None else db.copy())
    if not deriv:
        powered, pairwise = [powered], [pairwise]
    for x, y in zip(powered, pairwise):
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))


@pytest.mark.parametrize("n", [*range(1, 10), 200, 3200])
def test_uncoupled_geometric_sum_matches_the_explicit_sum(n):
    # undriven states take their phase^n in closed form, and their P_r over
    # the step ends as a geometric series in |phase|^2; with decay below the
    # budget's cut, |phase|^2 - 1 is about -1e-7, where the series must not
    # lose digits to cancellation
    t = 1.0
    basis = build_basis([qubit_scheme()] * 2, 0.5e-6 * n / t)
    frame = ((0, "1", TWO_PI * 3.0), (1, "r", TWO_PI * 2.0))
    plan = StagePlan((Stage(t, HamiltonianSpec(basis, (), InteractionGraph(), frame)),),
                     StepPolicy(square_resolution=n))
    assert dynamics._budget_rate(plan) == 0.0
    assert all(not g.factor_index for g in plan.stages[0].spec.block_groups())
    rng = np.random.default_rng(n)
    cols = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
    cols /= np.linalg.norm(cols, axis=0)
    res = propagate_matrix(plan, cols, record_populations=True)
    ryd, dt = basis.rydberg_projector_diagonal(), t / n
    x2 = np.abs(cols) ** 2
    pops = np.exp(-basis.decay_rate * ryd[None, :, None] * np.arange(n + 1)[:, None, None] * dt) * x2
    p_r = np.einsum("kdc,d->k", pops, ryd)
    explicit = dt * (0.5 * p_r[0] + np.sum(p_r[1:]) - 0.5 * p_r[-1])
    assert res.time_integrated_rydberg == pytest.approx(explicit, rel=1e-12)
    assert np.max(np.abs(res.population_traj - pops)) < 1e-14
    # phase^n carries the phase's rounding n times over
    assert np.max(np.abs(np.abs(res.final_state) ** 2 - pops[-1])) < 1e-14 + n * dynamics._STEP_DRIFT


@pytest.mark.parametrize("name", ["SWAP", "iSWAP", "sqrt_iSWAP", "C_iSWAP", "C_SWAP_CCSdag", "bSWAP"])
def test_norm_budget_every_input(name):
    # population lost to decay plus population left adds up to the input's,
    # and with one decay rate on every Rydberg level the loss summed over the
    # inputs, over that rate, is the trapezoid of the recorded P_r
    params = table_params(name)
    proto = make_protocol(name, params)
    plan, basis = proto.plan, proto.basis
    cols = np.eye(basis.dim, dtype=complex)[:, list(basis.comp_indices)]
    assert cols.shape[1] == 2 ** proto.n_qubits
    res = propagate_matrix(plan, cols, record_populations=True)
    final_norms = np.sum(np.abs(res.final_state) ** 2, axis=0)
    assert np.all(res.norm_loss > 0.0)
    assert np.max(np.abs(res.norm_loss + final_norms - np.sum(np.abs(cols) ** 2, axis=0))) < 1e-12
    p_r = np.einsum("sdc,d->s", res.population_traj, basis.rydberg_projector_diagonal())
    assert np.sum(res.norm_loss) / params.decay_rate == pytest.approx(np.trapezoid(p_r, res.times), rel=1e-7)


def test_uncoupled_doubly_rydberg_state_obeys_the_decay_budget():
    # the collective truncation leaves |rr> without couplings, not without
    # decay: it loses 1 - exp(-2 Gamma T), and the exposure is that loss over Gamma
    params = table_params("SWAP")
    plan = two_target_plan(params)
    res = propagate(plan, plan.basis.basis_state(("r", "r")))
    gamma, t = params.decay_rate, plan.total_duration
    assert res.norm_loss == pytest.approx(-math.expm1(-2.0 * gamma * t), rel=1e-9)
    assert res.time_integrated_rydberg == pytest.approx(res.norm_loss / gamma, rel=1e-9)


def _blocked_plan():
    """Two stages on a block-diagonal H with decay.

    Atom 0 has levels 0, 1 and four decaying Rydberg levels; its drives
    couple {0, ra, rb} and {1, rc} and leave rd alone, so each level of the
    undriven atom 1 repeats a 3-block, a 2-block and a 1-block.  The second
    stage starts at a nonzero global time and carries the intensity-noisy
    "omega2" family.
    """
    g = 1.0 / 400.0  # the catalog's Rydberg decay rate, 1/us
    atom0 = LevelScheme(("0", "1", "ra", "rb", "rc", "rd"), (False, False) + (True,) * 4)
    basis = build_basis([atom0, qubit_scheme()], g)
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
            for d, kmat in zip(spec.drives, coupling_matrices(spec)):
                h += envelope_value(d.envelope, t, stage.duration) * noise.intensity_at(d.family, t_offset + t) * kmat
            psi = expm(-1j * dt * h) @ psi
            pops.append(np.abs(psi) ** 2)
        t_offset += stage.duration

    res = propagate(plan, psi0, noise, record_populations=True)
    assert np.max(np.abs(res.final_state - psi)) < 1e-8
    # populations come back in basis order, one row per step
    assert res.population_traj.shape == (len(pops), basis.dim)
    assert np.max(np.abs(res.population_traj - np.array(pops))) < 1e-8
    # one decay rate: the kernel reads the exposure off the decay budget, and so does the oracle
    assert _single_rate(plan)
    assert _dense_oracle(plan, psi0[:, None], noise)[2] == pytest.approx(res.time_integrated_rydberg, rel=1e-12)
    # the track is read at global time: the second stage starts 13 update
    # intervals in, so delaying the track by 13 intervals (what a reading
    # at stage time would see) changes the result
    track = noise.intensity_factors["omega2"]
    delayed = NoiseRealization(intensity_factors={"omega2": np.concatenate([track[:13], track])})
    assert np.max(np.abs(propagate(plan, psi0, delayed).final_state - psi)) > 1e-4


@pytest.mark.parametrize("name", ["blocked", "C_SWAP_CCSdag"])
def test_recording_populations_changes_no_result(name):
    # recording only adds a step pass for the populations: the final states
    # and the exposure come from the same products, so every result is equal
    plan, noise = _blocked_plan() if name == "blocked" else (make_protocol(name, table_params(name)).plan, None)
    basis = plan.stages[0].spec.basis
    rng = np.random.default_rng(8)
    cols = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
    cols /= np.linalg.norm(cols, axis=0)
    bare = propagate_matrix(plan, cols, noise)
    rec = propagate_matrix(plan, cols, noise, record_populations=True)
    assert bare.times is None and bare.population_traj is None
    assert np.array_equal(rec.final_state, bare.final_state)
    assert np.array_equal(rec.norm_loss, bare.norm_loss)
    assert rec.time_integrated_rydberg == bare.time_integrated_rydberg
    # one decay rate: both exposures are decay budgets (see _assert_matches_oracle)
    assert _single_rate(plan)
    assert _dense_oracle(plan, cols, noise)[2] == pytest.approx(rec.time_integrated_rydberg, rel=1e-9)


def _assert_matches_oracle(res, plan, cols, noise, state_tol):
    psi, times, exposure, pops = _dense_oracle(plan, cols, noise)
    assert np.max(np.abs(res.final_state - psi)) < state_tol
    if dynamics._budget_rate(plan):
        # both exposures are a norm loss over Gamma, and each carries its own
        # steps' norm drift (1e-13 to 1e-11) over Gamma: up to 4e-9 at 1/400
        assert res.time_integrated_rydberg == pytest.approx(exposure, rel=1e-9)
    else:
        assert abs(res.time_integrated_rydberg - exposure) < 1e-10
    if res.population_traj is not None:
        assert np.max(np.abs(res.population_traj - pops)) < 1e-10


def _oracle_case(name):
    p = table_params("C_SWAP_CCSdag")
    gate, _, lifetime = name.partition(" lifetime ")
    lifetime = 400.0 if not lifetime else None if lifetime == "None" else float(lifetime)
    if gate == "MUX_SWAP_4T":
        params = GateParams(omega1_max=TWO_PI * 20.0, omega2=TWO_PI * 55.0, delta=TWO_PI * 400.0,
                            duration=5.1, v_ct=TWO_PI * 3000.0, lifetime=lifetime)
        return make_protocol(gate, params), StepPolicy(gaussian_resolution=4, square_resolution=1), None
    if gate == "Ck_SWAP":
        params = replace(p, n_controls=2, v_ct=3.0 * p.omega2, lifetime=lifetime)
        return make_protocol(gate, params), StepPolicy(gaussian_resolution=20, square_resolution=5), None
    proto = make_protocol("C_SWAP_CCSdag", p)
    spec = NoiseSpec(doppler=DopplerSpec(temperature_K=150e-6),
                     intensity=IntensitySpec({"omega1": 0.02, "omega2": 0.02}), n_shots=1, seed=0)
    return proto, StepPolicy(), sample_realization(spec, proto.basis.n_atoms, proto.total_duration, shot_rng(0, 0))


@pytest.mark.parametrize("name", ["MUX_SWAP_4T", "Ck_SWAP", "noisy C_SWAP_CCSdag",
                                  "MUX_SWAP_4T lifetime None", "Ck_SWAP lifetime None",
                                  "MUX_SWAP_4T lifetime 1e6", "Ck_SWAP lifetime 1e6"])
def test_merged_and_factored_kernel_matches_dense_oracle(name, caplog):
    # MUX_SWAP_4T's target blocks are Kronecker products of two pair
    # factors, Ck_SWAP merges 9 target blocks into 3 distinct ones, and the
    # noisy shot adds Doppler shifts and intensity tracks; with decay, and
    # without it, where both target stages take the chunk product with its
    # virtual-decay derivative, and with decay below the budget's cut, where
    # every group steps its states and both exposures are trapezoids of P_r
    proto, policy, noise = _oracle_case(name)
    plan = StagePlan(proto.plan.stages, policy)
    if name.endswith("1e6"):
        assert proto.basis.decay_rate and dynamics._budget_rate(plan) == 0.0
    cols = np.eye(proto.basis.dim)[:, list(proto.basis.comp_indices)]
    with caplog.at_level(logging.DEBUG, logger="rydswap"):
        res = propagate_matrix(plan, cols, noise)
    # the time-dependent target stage's product covers its first half and
    # mirrors it, except where the noisy shot's intensity tracks break its
    # mirror symmetry (and that of every stage) and below the cut, where it steps
    target = re.findall(r"steps by .*, from nodes.*", caplog.text)
    assert target and {line.endswith("; first half, mirrored") for line in target} == {
        not name.startswith("noisy") and not name.endswith("1e6")}
    _assert_matches_oracle(res, plan, cols, noise, 1e-9)


def _constant_stage_plan():
    """One square-pulse stage whose driven atom's block repeats under each level of an undriven atom.

    Atom 1 is never driven and nothing interacts, so all five blocks share
    one factor row.  Their reference states differ: atom 1 in |0> or |1>
    (no decay, no Rydberg weight, different energies) or in ra, rb or rc
    (Rydberg, decaying at the basis's one rate, rb at another energy).
    """
    atom1 = LevelScheme(("0", "1", "ra", "rb", "rc"), (False, False, True, True, True))
    basis = build_basis([qubit_scheme(), atom1], 1.0)
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
    _assert_matches_oracle(res, plan, cols, None, 1e-12)


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("per_step", [False, True])
@pytest.mark.parametrize("rate", [1.0 / 400.0, 0.0], ids=["budget", "decay-free"])
def test_two_cluster_budget_run_matches_dense_oracle(rate, per_step, small_chunks, monkeypatch, caplog):
    # one decay rate on every Rydberg level: the two uncoupled atoms' factors
    # are reduced over each chunk on their own, at interpolation nodes or at
    # every step, and the step pass that records populations ends on the
    # reduced product's states; with small chunks there are several, and the
    # step pass goes through each in shorter pieces.  Without decay the
    # products carry their derivative in a virtual rate, whose trapezoid of
    # P_r the oracle sums from its populations; that takes all 9 columns,
    # since with 3 the two-factor group costs less stepped
    if per_step:
        monkeypatch.setattr(dynamics, "_axis_nodes", lambda tau: math.inf)
    if small_chunks:
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 300)
    basis = build_basis([qubit_scheme()] * 2, rate)
    drives = (DriveTerm(0, "1", "r", gaussian_pulse(TWO_PI * 9.0)),
              DriveTerm(1, "0", "1", square_pulse(TWO_PI * 4.0)),
              DriveTerm(1, "1", "r", gaussian_pulse(TWO_PI * 6.0)))
    frame = ((0, "1", TWO_PI * 3.0), (1, "r", TWO_PI * 2.0))
    plan = StagePlan((Stage(0.7, HamiltonianSpec(basis, drives, frame_detunings=frame)),),
                     StepPolicy(gaussian_resolution=25))
    assert dynamics._budget_rate(plan) == rate
    assert [len(g.factor_index) for g in plan.stages[0].spec.block_groups()] == [1, 2]
    rng = np.random.default_rng(9)
    if rate:
        cols = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
        cols /= np.linalg.norm(cols, axis=0)
    else:
        cols = np.eye(basis.dim)
    with caplog.at_level(logging.DEBUG, logger="rydswap"):
        res = propagate_matrix(plan, cols, record_populations=True)
    assert set(re.findall(r"steps by ([a-z ]+), from nodes", caplog.text)) == {
        "chunk product with derivative" if not rate else "chunk product"}
    # the stage reads the same backwards, so its products reduce the first
    # half (over several chunks with small chunks) and apply its transpose
    assert set(re.findall(r"from nodes[^;\n]*; ([a-z ,]+)", caplog.text)) == {"first half, mirrored"}
    _assert_matches_oracle(res, plan, cols, None, 1e-9)
    assert np.max(np.abs(res.population_traj[-1] - np.abs(res.final_state) ** 2)) < 1e-12
    bare = propagate_matrix(plan, cols)
    assert np.array_equal(bare.final_state, res.final_state)
    assert bare.time_integrated_rydberg == res.time_integrated_rydberg


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("name", ["MUX_SWAP_4T", "MUX_SWAP_4T lifetime None"])
def test_zero_column_batch_gives_the_empty_result(name, record):
    proto, policy, _ = _oracle_case(name)
    plan = StagePlan(proto.plan.stages, policy)
    res = propagate_matrix(plan, np.zeros((proto.basis.dim, 0)), record_populations=record)
    assert res.final_state.shape == (proto.basis.dim, 0) and res.norm_loss.shape == (0,)
    assert res.time_integrated_rydberg == 0.0
    if record:
        assert res.population_traj.shape == (len(res.times), proto.basis.dim, 0)
    else:
        assert res.population_traj is None


@pytest.mark.parametrize("lifetime", [400.0, None])
@pytest.mark.parametrize("name", ["SWAP", "C_SWAP_CCSdag"])
def test_mirrored_stage_matches_the_full_product(name, lifetime, monkeypatch, caplog):
    # a negative tolerance defeats the mirror check: the target stage then
    # reduces every step, and at lifetime None its group steps by the flop rule
    proto = make_protocol(name, replace(table_params(name), lifetime=lifetime))
    mirrored = run_gate(proto)
    monkeypatch.setattr(dynamics, "_MIRROR_ULPS", -1)
    with caplog.at_level(logging.DEBUG, logger="rydswap"):
        full = run_gate(proto)
    assert "mirrored" not in caplog.text and "from nodes" in caplog.text
    assert np.max(np.abs(full.u_gate - mirrored.u_gate)) < 1e-13
    assert full.t_bar_r == pytest.approx(mirrored.t_bar_r, rel=1e-9 if lifetime else 1e-12)


def _routing_protocols():
    """The routing gates at the benchmark's routing_large points, by variant."""
    spec = importlib.util.spec_from_file_location(
        "routing_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {v: workloads.with_resolution(make_protocol(v, workloads.routing_params(v)), res)
            for v, res, _ in workloads.ROUTING}


def test_routing_target_groups_take_the_cheaper_decay_free_path(caplog):
    # without decay a mirrored group takes the chunk product with its
    # derivative over its first half, and every target stage of the routing
    # gates is mirrored; the flop rule, which alone would keep MUX_SWAP_3T's
    # 20-state rows on the step pass, serves only groups that are not
    expected = {"MUX_SWAP_3T": "chunk product with derivative", "MUX_SWAP_4T": "chunk product with derivative",
                "Ck_SWAP": "chunk product with derivative"}
    for variant, proto in _routing_protocols().items():
        assert proto.basis.decay_rate == 0.0
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rydswap"):
            run_gate(proto)
        assert set(re.findall(r"steps by ([a-z ]+), from nodes", caplog.text)) == {expected[variant]}, variant


@pytest.mark.parametrize("name", ["SWAP", "C_SWAP_CCSdag"])
@pytest.mark.parametrize("lifetime", [400.0, 1e4, 1e6, 1e10])
def test_exposure_matches_recorded_trapezoid_at_any_lifetime(name, lifetime):
    # the decay budget also divides the steps' own norm drift (about 5e-12)
    # by the rate; where that error could pass 1e-8 of the exposure the
    # kernel takes the trapezoid of P_r instead (11% off at 1e10 us without)
    proto = make_protocol(name, replace(table_params(name), lifetime=lifetime))
    cols = np.eye(proto.basis.dim)[:, list(proto.basis.comp_indices)]
    res = propagate_matrix(proto.plan, cols, record_populations=True)
    p_r = np.einsum("sdc,d->s", res.population_traj, proto.basis.rydberg_projector_diagonal())
    assert res.time_integrated_rydberg == pytest.approx(np.trapezoid(p_r, res.times), rel=1e-7)


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

    The interpolated ones come from the kernel's own source, _varying_source,
    and are None where the nodes are the steps.
    """
    stage = plan.stages[index]
    n = _stage_steps(stage, plan.policy)
    dt = stage.duration / n
    t_offset = sum(s.duration for s in plan.stages[:index])
    evaluator = HamiltonianEvaluator(stage.spec, stage.duration, noise, t_offset)
    factors = evaluator.drive_factors((np.arange(n) + 0.5) * dt)
    span = _affine_axes(factors)
    out = []
    for group in stage.spec.block_groups():
        if group.factor_index:
            diag = evaluator.diagonal
            direct = _factor_exponentials(group, [diag[i] - diag[i[:, :1]] for i in group.factor_index], factors, dt)
            _, weights, counts = _nodes(group, factors, *span, dt)
            source, _ = _varying_source(group, diag, dt, factors, span, index)
            out.append((counts, direct, None if weights is None else source(0, n)))
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
    # square stage or a Gaussian of zero amplitude, whatever the duration
    basis = build_basis([qubit_scheme()])
    policy = StepPolicy()
    for t in (0.3, 2.0, 4.7259, 10.0):
        stages = [Stage(t, HamiltonianSpec(basis, (DriveTerm(0, "0", "1", pulse),)))
                  for pulse in (gaussian_pulse(1.0), square_pulse(1.0), gaussian_pulse(0.0))]
        counts = [_stage_steps(stage, policy) for stage in stages]
        assert counts == [4 * policy.gaussian_resolution, policy.square_resolution, policy.square_resolution]


def test_three_independent_drives_take_the_steps_as_nodes():
    # three Gaussians under independent intensity tracks span three axes;
    # their tensor grid would outnumber the steps, so every step is
    # exponentiated
    basis = build_basis([LevelScheme(("0", "1", "r", "s"), (False, False, True, True))], 0.01)
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


@pytest.mark.parametrize("field, value", [("square_resolution", 0), ("square_resolution", -3),
                                          ("square_resolution", 2.5), ("gaussian_resolution", 0)])
def test_step_policy_rejects_a_resolution_it_cannot_step(field, value):
    # these once failed inside propagate: ZeroDivisionError, IndexError, TypeError
    with pytest.raises(ValueError, match=field):
        StepPolicy(**{field: value})


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -1.0])
def test_stage_rejects_a_duration_it_cannot_step(duration):
    # nan and inf would only fail later, inside propagation ("SVD did not converge")
    _, spec = _free_spec()
    with pytest.raises(ValueError, match="stage duration"):
        Stage(duration, spec)


def test_stage_plan_runs_on_one_basis():
    # level 2 is Rydberg in one basis and logical in the other, and both have
    # dimension 3.  Before plans were held to one basis, two undriven 1 us
    # stages with the population parked in level 2 took stage 0's Rydberg
    # weights for both: an exposure of 2.0 us with the Rydberg basis first and
    # 0.0 with it second, where 1.0 was right both ways.  An empty plan failed
    # with an IndexError inside propagation.
    rydberg = build_basis([LevelScheme(("0", "1", "r"), (False, False, True))])
    logical = build_basis([LevelScheme(("0", "1", "p"), (False, False, False))])
    for first, second in ((rydberg, logical), (logical, rydberg)):
        with pytest.raises(ValueError, match="one basis"):
            StagePlan((Stage(1.0, HamiltonianSpec(first)), Stage(1.0, HamiltonianSpec(second))))
    with pytest.raises(ValueError, match="one basis"):  # the same levels, another decay rate
        StagePlan((Stage(1.0, HamiltonianSpec(rydberg)), Stage(1.0, HamiltonianSpec(replace(rydberg, decay_rate=0.1)))))
    with pytest.raises(ValueError, match="at least one stage"):
        StagePlan(())
    plan = StagePlan((Stage(1.0, HamiltonianSpec(rydberg)), Stage(1.0, HamiltonianSpec(build_basis(rydberg.schemes)))))
    assert plan.basis is rydberg
    assert propagate(plan, rydberg.basis_state(("r",))).time_integrated_rydberg == pytest.approx(2.0, rel=1e-12)
