import math
from dataclasses import replace

import numpy as np
import pytest

from rydswap.basis import LevelScheme, build_basis, qubit_scheme
from rydswap.dynamics import Stage, StagePlan, propagate
from rydswap.gates import GateParams, make_protocol, run_gate, table_params
from rydswap.model import (
    DriveTerm,
    Envelope,
    HamiltonianEvaluator,
    HamiltonianSpec,
    InteractionGraph,
    NoiseRealization,
    envelope_value,
    gaussian_pulse,
    square_pulse,
    standard_target_frame,
)

TWO_PI = 2 * math.pi


class TestEnvelope:
    def test_truncated_gaussian_peak_value(self):
        # peak = amplitude * (1 - exp(-2)) for sigma = T/4
        T = 4.7259
        env = gaussian_pulse(TWO_PI * 33.5)
        expected = TWO_PI * 33.5 * (1.0 - math.exp(-2.0))
        assert envelope_value(env, T / 2, T) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(TWO_PI * 28.9663, rel=1e-4)

    def test_truncated_gaussian_vanishes_at_edges_and_outside(self):
        env = gaussian_pulse(1.0)
        assert envelope_value(env, 0.0, 3.0) == 0.0
        assert envelope_value(env, 3.0, 3.0) == 0.0

    def test_truncated_gaussian_continuity(self):
        env = gaussian_pulse(2.0)
        eps = 1e-9
        assert abs(envelope_value(env, eps, 2.0) - envelope_value(env, 0.0, 2.0)) < 1e-6
        assert abs(envelope_value(env, 2.0 - eps, 2.0)) < 1e-6

    def test_square(self):
        env = square_pulse(3.0)
        assert envelope_value(env, 0.5, 2.0) == 3.0

    def test_square_on_and_gaussian_zero_at_stage_ends(self):
        # the square drive is on at both ends of its stage, where the
        # Runge-Kutta oracle evaluates it, and the Gaussian is exactly 0 there
        for T in np.linspace(0.1, 10.0, 991):
            for t in (0.0, T, np.array([0.0, T])):
                assert np.all(envelope_value(square_pulse(3.0), t, T) == 3.0)
                assert np.all(envelope_value(gaussian_pulse(2.0), t, T) == 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Envelope("triangle")


def _single_atom_spec(delta):
    basis = build_basis([qubit_scheme()])
    drive = DriveTerm(0, "1", "r", square_pulse(TWO_PI * 10.0), family="omega2", doppler_sensitive=True)
    frame = ((0, "1", delta),)
    return basis, HamiltonianSpec(basis, (drive,), InteractionGraph(), frame)


def test_single_atom_matrix_entries():
    delta = TWO_PI * 5.0
    basis, spec = _single_atom_spec(delta)
    h = HamiltonianEvaluator(spec, 1.0)(0.5)
    i1, ir = basis.index_of(("1",)), basis.index_of(("r",))
    assert h[ir, i1] == pytest.approx(TWO_PI * 5.0)
    assert h[i1, ir] == pytest.approx(TWO_PI * 5.0)
    assert h[i1, i1] == pytest.approx(delta)
    assert h[ir, ir] == 0.0


def _reference_collective_matrix(basis, om1, om2, delta, v):
    """Hand-built single-excitation collective matrix over the 9-state basis.

    Written out term by term from the rotating-frame model: logical drive
    between fully logical states, optical drive everywhere below double
    excitation, energies 0/Delta per target |1> plus v per target Rydberg
    level, doubly-Rydberg row and column empty.
    """
    idx = {"".join(l): basis.index_of(l) for l in
           [(a, b) for a in "01r" for b in "01r"]}
    h = np.zeros((9, 9), dtype=complex)
    for bra, ket in (("01", "00"), ("10", "00"), ("01", "11"), ("10", "11")):
        h[idx[bra], idx[ket]] = om1 / 2
        h[idx[ket], idx[bra]] = om1 / 2
    for bra, ket in (("1r", "11"), ("r1", "11"), ("0r", "01"), ("r0", "10")):
        h[idx[bra], idx[ket]] = om2 / 2
        h[idx[ket], idx[bra]] = om2 / 2
    energies = {"00": 0.0, "01": delta, "10": delta, "11": 2 * delta,
                "0r": v, "r0": v, "1r": delta + v, "r1": delta + v, "rr": 0.0}
    for key, e in energies.items():
        h[idx[key], idx[key]] += e
    return h, idx


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_collective_hamiltonian_matches_hand_built_matrix(seed):
    rng = np.random.default_rng(seed)
    om1, om2 = TWO_PI * rng.uniform(5, 50), TWO_PI * rng.uniform(50, 250)
    delta, v = TWO_PI * rng.uniform(500, 1500), TWO_PI * rng.uniform(-3000, 3000)
    basis = build_basis([qubit_scheme()] * 2)
    drives = []
    for a in (0, 1):
        drives.append(DriveTerm(a, "0", "1", square_pulse(om1), family="omega1"))
        drives.append(DriveTerm(a, "1", "r", square_pulse(om2), family="omega2"))
    frame = standard_target_frame(basis, delta) + ((0, "r", v), (1, "r", v))
    spec = HamiltonianSpec(basis, tuple(drives), InteractionGraph(), frame, ((0, 1),))
    h = HamiltonianEvaluator(spec, 1.0)(0.5)
    ref, idx = _reference_collective_matrix(basis, om1, om2, delta, v)
    assert np.max(np.abs(h - ref)) < 1e-9 * max(om2, delta)
    irr = idx["rr"]
    assert np.max(np.abs(h[irr, :])) == 0.0
    assert np.max(np.abs(h[:, irr])) == 0.0
    # symmetric/antisymmetric structure: |11> couples only to (|1r>+|r1>)/sqrt2
    sym = np.zeros(9, dtype=complex)
    sym[idx["1r"]] = sym[idx["r1"]] = 1 / math.sqrt(2)
    assert sym.conj() @ h[:, idx["11"]] == pytest.approx(om2 / math.sqrt(2), rel=1e-12)
    anti = np.zeros(9, dtype=complex)
    anti[idx["1r"]], anti[idx["r1"]] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert abs(anti.conj() @ h[:, idx["11"]]) < 1e-12


def test_hermiticity_of_nondecay_part():
    rng = np.random.default_rng(11)
    for _ in range(4):
        params = GateParams(
            omega1_max=TWO_PI * rng.uniform(5, 50),
            omega2=TWO_PI * rng.uniform(50, 200),
            delta=TWO_PI * rng.uniform(500, 1500),
            duration=rng.uniform(1, 5),
            v_ct=TWO_PI * rng.uniform(1000, 30000),
        )
        proto = make_protocol("C_SWAP_CCSdag", params)
        for stage in proto.plan.stages:
            h = HamiltonianEvaluator(stage.spec, stage.duration)(0.3 * stage.duration)
            h_h = (h + h.conj().T) / 2
            assert np.linalg.norm(h_h - h_h.conj().T) < 1e-12 * np.linalg.norm(h_h)
            anti = (h - h.conj().T) / 2
            assert np.max(np.abs(anti - np.diag(np.diag(anti)))) < 1e-14


def test_global_shift_changes_only_global_phase():
    params = table_params("SWAP")
    proto = make_protocol("SWAP", params)
    rep = run_gate(proto)

    shift = TWO_PI * 123.0
    stage = proto.plan.stages[0]
    spec = stage.spec
    shifted_frame = spec.frame_detunings + tuple(
        (a, lab, shift) for a in range(2) for lab in ("0", "1", "r")
    )
    spec2 = HamiltonianSpec(spec.basis, spec.drives, spec.interactions, shifted_frame, spec.collective_pairs)
    psi0 = spec.basis.basis_state(("0", "1"))
    r1 = propagate(proto.plan, psi0)
    r2 = propagate(StagePlan((Stage(stage.duration, spec2),), proto.plan.policy), psi0)
    # per-atom shift: total 2*shift on every product state -> global phase
    phase = np.exp(-1j * 2 * shift * stage.duration)
    assert np.max(np.abs(r2.final_state - phase * r1.final_state)) < 1e-8

    import rydswap.gates as G

    proto2 = G.GateProtocol(
        variant=proto.variant, basis=proto.basis,
        plan=StagePlan((Stage(stage.duration, spec2),), proto.plan.policy),
        ideal=proto.ideal, phase_adjust=proto.phase_adjust, n_controls=0, params=params,
    )
    # frame removal tracks the shifted energies, so the fidelity is identical
    rep2 = run_gate(proto2)
    assert abs(rep2.fidelity - rep.fidelity) < 1e-10


def test_interaction_irrelevant_without_rydberg_drive():
    basis = build_basis([qubit_scheme()] * 2)
    om1 = TWO_PI * 20.0
    drives = tuple(
        DriveTerm(a, "0", "1", square_pulse(om1), family="omega1") for a in (0, 1)
    )
    frame = standard_target_frame(basis, TWO_PI * 300.0)
    graph = InteractionGraph.from_dict({(0, "r", 1, "r"): TWO_PI * 700.0})
    psi0 = basis.basis_state(("0", "1"))
    outs = []
    for interactions in (InteractionGraph(), graph):
        spec = HamiltonianSpec(basis, drives, interactions, frame)
        outs.append(propagate(StagePlan((Stage(2.0, spec),)), psi0).final_state)
    assert np.max(np.abs(np.abs(outs[0]) ** 2 - np.abs(outs[1]) ** 2)) < 1e-12


def test_decay_only_survival():
    basis = build_basis([qubit_scheme(("r",), 1.0 / 400.0)])
    spec = HamiltonianSpec(basis, (), InteractionGraph(), ())
    psi0 = basis.basis_state(("r",))
    res = propagate(StagePlan((Stage(4.7259, spec),)), psi0)
    assert abs(res.final_state[basis.index_of(("r",))]) == pytest.approx(
        math.exp(-4.7259 / (2 * 400.0)), rel=1e-10
    )
    assert res.norm_loss == pytest.approx(1 - math.exp(-4.7259 / 400.0), rel=1e-8)


def test_interaction_graph_symmetry_and_validation():
    g = InteractionGraph.from_dict({(1, "r", 0, "r"): 2.0})
    assert g.entries[0][:4] == (0, "r", 1, "r")
    with pytest.raises(ValueError):
        InteractionGraph.from_dict({(0, "r", 0, "r"): 1.0})
    basis = build_basis([qubit_scheme()] * 2)
    bad = InteractionGraph.from_dict({(0, "1", 1, "r"): 1.0})
    with pytest.raises(ValueError):
        bad.diagonal(basis)


def test_noise_realization_enters_hamiltonian():
    basis, spec = _single_atom_spec(TWO_PI * 5.0)
    real = NoiseRealization(
        doppler_shifts=(TWO_PI * 0.1,),
        intensity_factors={"omega2": np.array([0.5])},
    )
    h = HamiltonianEvaluator(spec, 1.0, real)(0.5)
    i1, ir = basis.index_of(("1",)), basis.index_of(("r",))
    assert h[ir, i1] == pytest.approx(0.5 * TWO_PI * 5.0)
    assert h[ir, ir] == pytest.approx(TWO_PI * 0.1)


def test_drive_coupling_embedding():
    # a drive on atom 1 couples its two levels whatever atom 0's level is
    basis = build_basis([qubit_scheme()] * 2)
    spec = HamiltonianSpec(basis, (DriveTerm(1, "1", "r", square_pulse(1.0)),))
    (full,) = spec.coupling_matrices()
    for a in ("0", "1", "r"):
        assert full[basis.index_of((a, "r")), basis.index_of((a, "1"))] == 0.5
        assert full[basis.index_of((a, "1")), basis.index_of((a, "r"))] == 0.5
    assert np.count_nonzero(full) == 6


def test_drive_validation():
    basis = build_basis([qubit_scheme()])
    with pytest.raises(ValueError):
        DriveTerm(0, "1", "1", square_pulse(1.0))
    with pytest.raises(KeyError):
        HamiltonianSpec(basis, (DriveTerm(0, "1", "q", square_pulse(1.0)),))


# the target stage's largest group: (distinct blocks, factor sizes)
_TARGET_DISTINCT = {"SWAP": (1, (8,)), "C_SWAP_CCSdag": (2, (8,)), "C_iSWAP": (2, (8,)), "Ck_SWAP": (3, (8,)),
                    "MUX_SWAP_3T": (3, (20,)), "MUX_SWAP_4T": (3, (8, 8))}


@pytest.mark.parametrize(
    "variant, control_groups, target_groups",
    [
        # (control-stage groups, target-stage groups), each {block size: blocks}
        ("SWAP", None, {1: 1, 8: 1}),
        ("C_SWAP_CCSdag", {1: 11, 2: 8}, {1: 3, 8: 3}),
        ("C_iSWAP", {1: 11, 2: 8}, {1: 3, 8: 3}),
        ("Ck_SWAP", {1: 33, 2: 24}, {1: 9, 8: 9}),
        ("MUX_SWAP_3T", {1: 28, 2: 40}, {1: 28, 20: 4}),
        ("MUX_SWAP_4T", {1: 68, 2: 128}, {1: 68, 64: 4}),
    ],
)
def test_catalog_stage_block_partition(variant, control_groups, target_groups):
    # the control level is conserved in the target stage and each control
    # pulse couples one level pair, so every stage splits into small blocks;
    # in the target stage a control in |0> or |1> only labels the block, and
    # MUX_SWAP_4T's two target pairs do not interact, so its blocks factor
    if variant.startswith("MUX"):
        params = GateParams(omega1_max=TWO_PI * 20.0, omega2=TWO_PI * 55.0, delta=TWO_PI * 400.0,
                            duration=5.1, v_ct=TWO_PI * 3000.0)
    elif variant == "Ck_SWAP":
        params = replace(table_params("C_SWAP_CCSdag"), n_controls=2)
    else:
        params = table_params(variant)
    proto = make_protocol(variant, params)
    n_controls = proto.n_controls
    stages = proto.plan.stages
    assert len(stages) == 2 * n_controls + 1
    for k, stage in enumerate(stages):
        groups = stage.spec.block_groups()
        sizes = {g.index.shape[1]: g.index.shape[0] for g in groups}
        assert sizes == (target_groups if k == n_controls else control_groups)
        # real couplings give real stacks, which take the real eigh
        assert all(k.dtype == np.float64 for g in groups for k in g.factor_couplings)
        # the groups partition the basis
        covered = np.sort(np.concatenate([g.index.ravel() for g in groups]))
        assert np.array_equal(covered, np.arange(proto.basis.dim))
    target = stages[n_controls].spec.block_groups()[-1]
    n_distinct, factor_sizes = _TARGET_DISTINCT[variant]
    assert len(np.unique(target.rows, axis=0)) == n_distinct
    assert tuple(i.shape[1] for i in target.factor_index) == factor_sizes
    assert math.prod(factor_sizes) == target.index.shape[1]


def test_block_structure_shared_across_energies():
    # the structure is cached per spec structure: a detuning or amplitude
    # change (a scan point) reuses it, an interaction change does not
    params = table_params("C_SWAP_CCSdag")
    target = make_protocol("C_SWAP_CCSdag", params).plan.stages[1].spec
    scanned = make_protocol("C_SWAP_CCSdag", replace(params, delta=TWO_PI * 900.0, omega2=TWO_PI * 80.0))
    assert scanned.plan.stages[1].spec.block_groups() is target.block_groups()
    moved = make_protocol("C_SWAP_CCSdag", replace(params, v_ct=params.v_ct / 2))
    assert moved.plan.stages[1].spec.block_groups() is not target.block_groups()


def _random_spec(rng):
    """A few atoms with 1-2 decaying Rydberg levels, random drives, interactions and collective pairs.

    Frame energies sit on random levels and on every drive's upper level.
    """
    n = int(rng.integers(1, 5))
    schemes = []
    for _ in range(n):
        k = int(rng.integers(1, 3))
        schemes.append(LevelScheme(("0", "1") + tuple(f"r{i}" for i in range(k)), (False, False) + (True,) * k,
                                   (0.0, 0.0) + tuple(rng.uniform(0.0, 0.01, k))))
    drives, upper_shifts = [], []
    for _ in range(int(rng.integers(0, 5))):
        a = int(rng.integers(n))
        lo, up = rng.choice(schemes[a].labels, 2, replace=False)
        upper_shifts.append((a, str(up), float(rng.normal())))
        drives.append(DriveTerm(a, str(lo), str(up), square_pulse(1.0),
                                doppler_sensitive=bool(rng.integers(2))))
    interactions, pairs = {}, []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                ri, rj = (rng.choice(schemes[a].labels[2:]) for a in (i, j))
                interactions[(i, str(ri), j, str(rj))] = float(rng.choice([0.0, 1.0, 2.0]))
            if rng.random() < 0.3:
                pairs.append((i, j))
    frame = tuple((a, str(rng.choice(schemes[a].labels)), float(rng.normal())) for a in range(n)) + tuple(upper_shifts)
    return HamiltonianSpec(build_basis(schemes), tuple(drives), InteractionGraph.from_dict(interactions), frame,
                           tuple(pairs))


def test_block_groups_reassemble_the_dense_hamiltonian():
    # the atom-derived blocks, with their shared factor rows and Kronecker
    # sums, rebuild the dense H exactly on random specs, Doppler shifts and
    # undriven collective partners included
    rng = np.random.default_rng(1)
    for _ in range(60):
        spec = _random_spec(rng)
        shifts = tuple(rng.normal(size=spec.basis.n_atoms))
        evaluator = HamiltonianEvaluator(spec, 1.0, NoiseRealization(doppler_shifts=shifts))
        f = rng.normal(size=len(spec.drives))
        diag = evaluator.diagonal
        h = np.zeros((spec.basis.dim,) * 2, dtype=complex)
        for g in spec.block_groups():
            for index, rows in zip(g.index, g.rows):
                block = np.array([[diag[index[0]]]])
                for row, fi, k in zip(rows, g.factor_index, g.factor_couplings):
                    factor = np.tensordot(f, k[:, row], axes=1) + np.diag(diag[fi[row]] - diag[fi[row][0]])
                    block = np.kron(block, np.eye(len(factor))) + np.kron(np.eye(len(block)), factor)
                h[np.ix_(index, index)] += block
        assert np.max(np.abs(h - np.diag(diag) - np.tensordot(f, spec.coupling_matrices(), axes=1))) < 1e-12
