import math
from dataclasses import replace

import numpy as np
import pytest

from rydswap.gates import (
    GateParams,
    VARIANTS,
    acquired_phase,
    calibrate_duration,
    conditional_rotation_fidelity,
    ideal_unitary,
    make_protocol,
    phase_optimized_fidelity,
    process_fidelity,
    rotation_fidelity,
    run_gate,
    table_params,
    two_target_plan,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def swap_report():
    proto = make_protocol("SWAP", table_params("SWAP"))
    return proto, run_gate(proto)


@pytest.fixture(scope="module")
def cswap_report():
    proto = make_protocol("C_SWAP_CCSdag", table_params("C_SWAP_CCSdag"))
    return proto, run_gate(proto)


class TestIdealUnitaries:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unitary(self, variant):
        u = ideal_unitary(variant, n_controls=2 if variant == "Ck_SWAP" else 1)
        n = u.shape[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12

    def test_swap_structure(self):
        u = ideal_unitary("SWAP")
        assert u[2, 1] == u[1, 2] == 1.0 and u[1, 1] == 0.0

    def test_iswap_phase(self):
        u = ideal_unitary("iSWAP")
        assert u[2, 1] == 1j and u[0, 0] == 1.0

    def test_bswap_exchanges_00_11(self):
        u = ideal_unitary("bSWAP")
        assert u[3, 0] == u[0, 3] == 1.0 and u[1, 1] == 1.0

    def test_ccsdag_phase(self):
        u = ideal_unitary("C_SWAP_CCSdag")
        assert u[7, 7] == pytest.approx(np.exp(-0.5j * math.pi))
        assert u[6, 5] == 1.0 and u[1, 1] == 1.0

    def test_mux_routing_structure(self):
        u4 = ideal_unitary("MUX_SWAP_4T")
        # control 0: swap target pair (1,2): input c=0, t=0100 -> t=1000
        assert u4[0b01000, 0b00100] == 1.0
        # control 1: swap pair (3,4): input c=1, t=0001 -> t=0010
        assert u4[0b10010, 0b10001] == 1.0
        u3 = ideal_unitary("MUX_SWAP_3T")
        assert u3[0b0100, 0b0010] == 1.0  # c=0: swap t1,t2
        assert u3[0b1100, 0b1001] == 1.0  # c=1: swap t1,t3


class TestProcessFidelity:
    def test_identity(self):
        assert process_fidelity(np.eye(8, dtype=complex), np.eye(8, dtype=complex)) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        u = np.exp(0.37j) * np.eye(8, dtype=complex)
        assert process_fidelity(u, np.eye(8, dtype=complex)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_damping(self):
        u = 0.9 * np.eye(8, dtype=complex)
        # (8*0.81 + 51.84)/72 = 0.81
        assert process_fidelity(u, np.eye(8, dtype=complex)) == pytest.approx(0.81, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            process_fidelity(np.eye(4, dtype=complex), np.eye(8, dtype=complex))


class TestProtocolConstruction:
    def test_stage_layout_controlled(self):
        params = table_params("C_SWAP_CCSdag")
        proto = make_protocol("C_SWAP_CCSdag", params)
        assert len(proto.plan.stages) == 3
        t_pi = math.pi / params.omega_c
        assert proto.plan.stages[0].duration == pytest.approx(t_pi)
        assert proto.plan.stages[1].duration == pytest.approx(params.duration)
        assert proto.total_duration == pytest.approx(params.duration + 2 * t_pi)

    def test_ck_sequential_controls(self):
        params = replace(table_params("C_SWAP_CCSdag"), n_controls=3)
        proto = make_protocol("Ck_SWAP", params)
        assert len(proto.plan.stages) == 7
        assert proto.basis.n_atoms == 5
        # retrieval mirrors excitation in reverse order
        first = proto.plan.stages[0].spec.drives[0].atom
        last = proto.plan.stages[-1].spec.drives[0].atom
        assert first == last == 0

    def test_missing_vct_rejected(self):
        with pytest.raises(ValueError):
            make_protocol("C_iSWAP", replace(table_params("iSWAP"), v_ct=0.0))
        with pytest.raises(ValueError):
            make_protocol("FREDKIN", table_params("SWAP"))
        with pytest.raises(ValueError):
            GateParams(omega1_max=1, omega2=1, delta=1, duration=1, model="dense")

    @pytest.mark.parametrize("variant, k", [("Ck_SWAP", 0), ("Ck_SWAP", -1), ("C_SWAP_CCSdag", 2),
                                            ("SWAP", 0), ("MUX_SWAP_3T", 2)])
    def test_n_controls_honoured_or_rejected(self, variant, k):
        with pytest.raises(ValueError, match="n_controls"):
            make_protocol(variant, replace(table_params("C_SWAP_CCSdag"), n_controls=k))

    def test_two_target_plan_from_multi_control_params(self):
        # the duration calibration of a C_k-SWAP operating point runs the bare pair
        plan = two_target_plan(replace(table_params("C_SWAP_CCSdag"), n_controls=2))
        assert plan.stages[0].spec.basis.n_atoms == 2

    def test_mux_control_scheme(self):
        proto = make_protocol("MUX_SWAP_3T", replace(table_params("C_SWAP_CCSdag"), v_ct=TWO_PI * 3000))
        assert proto.basis.schemes[0].labels == ("0", "1", "rP", "rD")
        assert len(proto.plan.stages[0].spec.drives) == 2

    @pytest.mark.parametrize("variant, k, model, pulses, entries, pairs", [
        # rP (control |0>) blocks the pair outside route (t1, t2), rD the pair outside (t3, t4)
        ("MUX_SWAP_4T", 1, "collective", (("0", "rP"), ("1", "rD")),
         [(0, "rP", 3, "r", "ct"), (0, "rP", 4, "r", "ct"), (0, "rD", 1, "r", "ct"), (0, "rD", 2, "r", "ct"),
          (1, "r", 2, "r", "tt"), (3, "r", 4, "r", "tt")], ((1, 2), (3, 4))),
        # hub t1 exchanges with t2 on control |0> and with t3 on control |1>
        ("MUX_SWAP_3T", 1, "collective", (("0", "rP"), ("1", "rD")),
         [(0, "rP", 3, "r", "ct"), (0, "rD", 2, "r", "ct"),
          (1, "r", 2, "r", "tt"), (1, "r", 3, "r", "tt"), (2, "r", 3, "r", "tt")], ((1, 2), (1, 3), (2, 3))),
        ("Ck_SWAP", 2, "collective", (("0", "r"),),
         [(0, "r", 1, "r", "cc"), (0, "r", 2, "r", "ct"), (0, "r", 3, "r", "ct"),
          (1, "r", 2, "r", "ct"), (1, "r", 3, "r", "ct"), (2, "r", 3, "r", "tt")], ((2, 3),)),
        ("C_SWAP_CCSdag", 1, "full", (("0", "r"),),
         [(0, "r", 1, "r", "ct"), (0, "r", 2, "r", "ct"), (1, "r", 2, "r", "tt")], ()),
    ])
    def test_catalog_blockade_graph_and_pulses(self, variant, k, model, pulses, entries, pairs):
        # v_ct < 0 so that the default v_cc = |v_ct| is told apart from v_ct
        params = replace(table_params("C_SWAP_CCSdag"), v_ct=-3000.0, n_controls=k, model=model)
        shift = {"tt": params.v_tt, "ct": -3000.0, "cc": 3000.0}
        proto = make_protocol(variant, params)
        expected = tuple(sorted((i, a, j, b, shift[v]) for i, a, j, b, v in entries))
        for stage in proto.plan.stages:
            assert stage.spec.interactions.entries == expected
            assert stage.spec.collective_pairs == pairs
        for c in range(k):
            drives = proto.plan.stages[c].spec.drives
            assert tuple((d.atom, d.lower, d.upper) for d in drives) == tuple((c, lo, up) for lo, up in pulses)


class TestRunGate:
    def test_no_rydberg_pathway_means_no_exchange(self):
        # optical drive off: the second-order logical paths cancel exactly
        params = replace(table_params("SWAP"), omega2=0.0, lifetime=None)
        rep = run_gate(make_protocol("SWAP", params))
        off_diag = abs(rep.u_gate[2, 1]) ** 2
        assert off_diag < 1e-6
        assert rep.fidelity < 0.45  # diagonal gate scored against an exchange

    def test_column_norms_bounded(self, cswap_report):
        _, rep = cswap_report
        norms = np.linalg.norm(rep.u_gate, axis=0)
        assert np.all(norms <= 1 + 1e-9)
        assert 0.0 <= rep.fidelity <= 1.0

    def test_block_structure_no_control_mixing(self):
        params = replace(table_params("C_SWAP_CCSdag"), lifetime=None)
        rep = run_gate(make_protocol("C_SWAP_CCSdag", params))
        u = rep.u_gate
        assert np.max(np.abs(u[4:, :4])) < 1e-6
        assert np.max(np.abs(u[:4, 4:])) < 1e-6

    def test_loss_matches_rydberg_dwell_time(self, cswap_report):
        proto, rep = cswap_report
        params = proto.params
        t_exposed = params.duration + math.pi / params.omega_c
        analytic = 1.0 - math.exp(-t_exposed / params.lifetime)
        for j in range(4):  # control-|0> inputs
            assert rep.per_input_loss[j] == pytest.approx(analytic, rel=0.20)

    def test_loss_matrix_positions(self, swap_report):
        proto, rep = swap_report
        assert rep.loss_matrix[2, 1] == rep.per_input_loss[1]
        assert rep.loss_matrix[1, 1] == 0.0

    def test_rydberg_exposure_control_parking(self):
        # with target drives off, a control-|0> input parks in the Rydberg
        # state for the whole target stage plus the two half pulses
        params = replace(
            table_params("C_SWAP_CCSdag"), omega1_max=0.0, omega2=1e-12, lifetime=None
        )
        proto = make_protocol("C_SWAP_CCSdag", params)
        basis = proto.basis
        cols = np.zeros((basis.dim, 1), dtype=complex)
        cols[basis.index_of(("0", "0", "0")), 0] = 1.0
        from rydswap.dynamics import propagate

        res = propagate(proto.plan, cols[:, 0])
        expected = params.duration + math.pi / params.omega_c
        assert res.time_integrated_rydberg == pytest.approx(expected, rel=0.01)

    def test_single_target_blockade_suppresses_exchange(self):
        # blockading one target only removes the symmetric pathway
        params = replace(
            table_params("C_SWAP_CCSdag"),
            interaction_overrides={(0, "r", 2, "r"): 0.0},
        )
        rep = run_gate(make_protocol("C_SWAP_CCSdag", params))
        # control |0> branch: exchange must stay blocked by the single shift
        assert abs(rep.u_gate[2, 1]) ** 2 < 0.01

    def test_fidelity_metrics_ordering(self, cswap_report):
        proto, rep = cswap_report
        assert rep.fidelity >= rep.fidelity_with_loss
        f_rot = rotation_fidelity(rep.rotation_matrix, proto.ideal)
        assert f_rot >= rep.fidelity - 1e-9

    def test_phase_optimized_at_least_canonical(self, swap_report):
        proto, rep = swap_report
        f_opt = phase_optimized_fidelity(rep.rotation_matrix, proto.ideal, 2)
        assert f_opt >= rep.fidelity - 1e-9


class TestBswap:
    def test_bswap_matches_conjugated_swap(self):
        rep_b = run_gate(make_protocol("bSWAP", table_params("bSWAP")))
        rep_s = run_gate(make_protocol("SWAP", table_params("SWAP")))
        # |00> <-> |11| exchange with the same amplitude as the plain swap
        assert abs(rep_b.u_gate[3, 0]) == pytest.approx(abs(rep_s.u_gate[2, 1]), abs=1e-9)
        assert rep_b.fidelity == pytest.approx(rep_s.fidelity, abs=1e-9)


class TestAcquiredPhase:
    def test_dark_input_phase_small(self, cswap_report):
        proto, _ = cswap_report
        ph = acquired_phase(proto, (1, 0, 0))
        assert abs(ph) < 0.01 * math.pi


def test_conditional_rotation_fidelity_identity(cswap_report):
    proto, rep = cswap_report
    f0 = conditional_rotation_fidelity(rep, proto, (0,))
    f1 = conditional_rotation_fidelity(rep, proto, (1,))
    assert 0.99 < f0 <= 1.0
    assert 0.99 < f1 <= 1.0


def test_calibrate_duration_rejects_a_maximum_on_the_window_edge():
    # the fidelity still rises at the last coarse point of this narrow
    # window; that point lies past the window, so refining around it would
    # return a duration outside it
    with pytest.raises(ValueError, match="no interior maximum"):
        calibrate_duration("SWAP", table_params("SWAP"), 4.68, half_width=0.003)
