"""Workload definitions: what one measured pass runs and how it is checked.

Every pass calls the public library API only (``rydswap.tables``,
``rydswap.gates``, ``rydswap.noise``, ``rydswap.analytic``), looked up on the
module at call time so the tracer's wrappers see the calls.

Two workloads run: ``paper_small`` chains the table reproduction, the
criterion-6 calibration and a seeded noisy Monte Carlo (every matrix of
dimension 9 or 27, the ``expm`` path), and ``routing_large`` runs the
108-, 324- and 81-dimensional routing gates (the dense ``eigh`` path).  The
parts of ``paper_small`` are workloads of their own below, with their own
checks.  Only the noisy part takes the seed; everything else is
deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

import rydswap.analytic as analytic
import rydswap.gates as gates
import rydswap.noise as noise
import rydswap.tables as tables
from rydswap.dynamics import StagePlan, StepPolicy

TWO_PI = 2.0 * math.pi

# The integrator's defaults; the reference step is REFINE times finer.
GAUSSIAN_RESOLUTION = StepPolicy().gaussian_resolution
SQUARE_RESOLUTION = StepPolicy().square_resolution
REFINE = 8

TABLE_GATES = ("SWAP", "iSWAP", "sqrt_iSWAP", "C_iSWAP", "C_SWAP_CCSdag")

# Criterion-10 routing point.  The duration is the two-target transfer
# calibration of this point (calibrate_swap_time with xtol=2e-3), fixed here
# so the workload times the gates and not a 10 s calibration.
MUX_PARAMS = gates.GateParams(
    omega1_max=TWO_PI * 20.0, omega2=TWO_PI * 55.0, delta=TWO_PI * 400.0,
    duration=5.104074877613616, v_tt=TWO_PI * 700.0, v_ct=TWO_PI * 3000.0, lifetime=None,
)
# (variant, gaussian_resolution, control configurations whose conditional
# rotation fidelity must exceed ROUTING_MIN_FIDELITY).  The resolutions are a
# quarter of the acceptance test's (400, 100, 800) so that three passes fit
# in one run; the matrix dimensions (108, 324, 81) and so the per-step dense
# eigh cost are unchanged.
ROUTING = (
    ("MUX_SWAP_3T", 100, ((0,), (1,))),
    ("MUX_SWAP_4T", 25, ((0,), (1,))),
    ("Ck_SWAP", 200, ((1, 1),)),
)
ROUTING_MIN_FIDELITY = 0.98

NOISY_GATE = "C_SWAP_CCSdag"
NOISY_SHOTS = 8  # shots per monte_carlo_fidelity call
REFERENCE_SEED = 0  # the seed whose shots have stored references
REFERENCE_SHOTS = 2

PUBLISHED_SWAP_US = 4.7259
SWAP_TOLERANCE_US = 0.02 * PUBLISHED_SWAP_US  # criterion 6
# Criterion-6 chain, narrowed to fit a run: the transfer calibration uses an
# eighth of the default step count (its result is unchanged: the grid and
# golden-section comparisons come out the same), and the fidelity grid spans
# +-1.5% of the transfer time with 5 ns / 2 ns steps instead of +-3% with
# 2 ns / 0.2 ns.  The winning crest leads the next by 6e-3 in fidelity; a
# 6 ns coarse step or a +-1.4% window lands on the wrong one (4.615 us),
# which the criterion-6 check rejects.
TRANSFER_RESOLUTION = 100
TRANSFER_XTOL = 1e-3
DURATION_WINDOW = dict(half_width=0.015, coarse=5e-3, fine=2e-3)

# Absolute acceptance limits on unitary_err per part, about ten times the
# value measured at the commit that introduced the benchmark (see README.md).
UNITARY_ERR_LIMIT = {
    "table_gates": 1e-4,
    "routing_large": 5e-3,
    "noisy_mc": 1e-3,
    "calibration": 2e-5,
}


def with_resolution(protocol: gates.GateProtocol, gaussian: int, refine: int = 1) -> gates.GateProtocol:
    policy = StepPolicy(gaussian_resolution=gaussian * refine, square_resolution=SQUARE_RESOLUTION * refine)
    return replace(protocol, plan=StagePlan(protocol.plan.stages, policy))


def routing_params(variant: str) -> gates.GateParams:
    if variant == "Ck_SWAP":
        pc = gates.table_params("C_SWAP_CCSdag")
        return replace(pc, n_controls=2, v_ct=3.0 * pc.omega2, lifetime=None)
    return MUX_PARAMS


def noise_spec(seed: int, n_shots: int = NOISY_SHOTS) -> noise.NoiseSpec:
    return noise.NoiseSpec(
        doppler=noise.DopplerSpec(temperature_K=150e-6),
        intensity=noise.IntensitySpec({"omega2": 1e-4}),
        n_shots=n_shots,
        seed=seed,
    )


def transfer_plan(params: gates.GateParams, resolution: int = TRANSFER_RESOLUTION):
    def plan(t: float) -> StagePlan:
        return StagePlan(gates.two_target_plan(params, t).stages, StepPolicy(gaussian_resolution=resolution))

    return plan


def gate_u(variant: str, params: gates.GateParams, resolution: int, refine: int = 1) -> np.ndarray:
    return gates.run_gate(with_resolution(gates.make_protocol(variant, params), resolution, refine)).u_gate


def max_abs_diff(u: np.ndarray, ref: np.ndarray) -> float:
    if u.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(u - ref)))


class CheckFailed(Exception):
    pass


def checked_unitary_err(part: str, err: float) -> float:
    if not err <= UNITARY_ERR_LIMIT[part]:
        raise CheckFailed(f"{part} unitary_err {err:.3e} above limit {UNITARY_ERR_LIMIT[part]:.1e}")
    return err


class Workload:
    """One workload: set-up, a measured pass, per-pass and final checks."""

    name = ""
    PROBE = "small"  # host-speed kernel that mirrors the pass (hostspeed.py)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Protocol construction the pass reuses; timed by setup_probe.py."""

    def run_pass(self):
        raise NotImplementedError

    def check_pass(self, output, evals) -> None:
        """Raise CheckFailed if this pass's outputs are wrong."""

    def finish(self, reference) -> dict:
        """Checks that need the stored reference; returns reported figures."""
        raise NotImplementedError

    @staticmethod
    def reference_cases() -> dict:
        """case name -> function(refine) returning that case's u_gate.

        The calibration case depends on the duration the chain returns, so
        make_reference.py builds it itself.
        """
        return {}


class TableGates(Workload):
    name = "table_gates"

    def setup(self):
        # reproduce_tables builds its own protocols; building them here gives
        # setup_s the same make_protocol work the other workloads time.
        self.protocols = [gates.make_protocol(g, gates.table_params(g)) for g in TABLE_GATES]
        self.statuses = None
        self.u = {}

    def run_pass(self):
        return tables.reproduce_tables()

    def check_pass(self, report, evals):
        statuses = tuple(c.ok for c in report.cells)
        if self.statuses is None:
            self.statuses = statuses
            # The first report of each table gate is reproduce_tables' own:
            # in paper_small the calibration and noisy parts run after it.
            for _, r in evals:
                if getattr(r, "variant", None) in TABLE_GATES:
                    self.u.setdefault(r.variant, r.u_gate)
        elif statuses != self.statuses:
            raise CheckFailed("fixture statuses differ between passes")

    def finish(self, reference):
        expected = tuple(bool(x) for x in reference["cells/ok"])
        changed = [i for i, (a, b) in enumerate(zip(self.statuses, expected)) if a != b]
        if len(self.statuses) != len(expected) or changed:
            raise CheckFailed(f"fixture cells changed status: {changed}")
        err = max(max_abs_diff(self.u[g], reference[f"u/table/{g}"]) for g in TABLE_GATES)
        return {"unitary_err": checked_unitary_err(self.name, err), "cells_pass": sum(self.statuses), "cells_total": len(self.statuses)}

    @staticmethod
    def reference_cases():
        return {
            f"table/{g}": functools.partial(gate_u, g, gates.table_params(g), GAUSSIAN_RESOLUTION)
            for g in TABLE_GATES
        }


class RoutingLarge(Workload):
    name = "routing_large"
    PROBE = "dense"

    def setup(self):
        self.protocols = [
            (v, with_resolution(gates.make_protocol(v, routing_params(v)), res), cbits)
            for v, res, cbits in ROUTING
        ]
        self.u = {}

    def run_pass(self):
        return [(v, p, cbits, gates.run_gate(p)) for v, p, cbits in self.protocols]

    def check_pass(self, output, evals):
        for v, p, cbits, rep in output:
            for c in cbits:
                f = gates.conditional_rotation_fidelity(rep, p, c)
                if not f > ROUTING_MIN_FIDELITY:
                    raise CheckFailed(f"{v} conditional fidelity {f:.4f} for controls {c}")
            self.u.setdefault(v, rep.u_gate)

    def finish(self, reference):
        err = max(max_abs_diff(self.u[v], reference[f"u/routing/{v}"]) for v, _, _ in ROUTING)
        return {"unitary_err": checked_unitary_err(self.name, err)}

    @staticmethod
    def reference_cases():
        return {f"routing/{v}": functools.partial(gate_u, v, routing_params(v), res) for v, res, _ in ROUTING}


class NoisyMC(Workload):
    name = "noisy_mc"

    def setup(self):
        self.protocol = gates.make_protocol(NOISY_GATE, gates.table_params(NOISY_GATE))
        self.spec = noise_spec(self.seed)
        self.fidelities = None
        self.shot_u = None

    def run_pass(self):
        return noise.monte_carlo_fidelity(self.protocol, self.spec, jobs=1, keep_reports=True)

    def check_pass(self, mc, evals):
        if not np.all(np.isfinite(mc.fidelities)) or len(mc.fidelities) != self.spec.n_shots:
            raise CheckFailed("non-finite or missing shot fidelities")
        if self.fidelities is None:
            self.fidelities = mc.fidelities
            self.shot_u = [r.u_gate for r in mc.reports[:REFERENCE_SHOTS]]
        elif not np.array_equal(mc.fidelities, self.fidelities):
            raise CheckFailed("per-shot fidelities differ between two runs at one seed")

    def finish(self, reference):
        # The seed must reach the noise draw: another seed gives other
        # realizations and another shot-0 fidelity.
        other = self.seed + 1
        n_atoms, duration = self.protocol.basis.n_atoms, self.protocol.total_duration
        r_this = noise.sample_realization(self.spec, n_atoms, duration, noise.shot_rng(self.seed, 0))
        r_other = noise.sample_realization(self.spec, n_atoms, duration, noise.shot_rng(other, 0))
        if r_this.doppler_shifts == r_other.doppler_shifts:
            raise CheckFailed(f"seeds {self.seed} and {other} drew the same realization")
        f_other = noise.monte_carlo_fidelity(self.protocol, noise_spec(other, 1)).fidelities[0]
        if f_other == self.fidelities[0]:
            raise CheckFailed(f"seeds {self.seed} and {other} gave the same shot-0 fidelity")

        if self.seed == REFERENCE_SEED:
            shot_u = self.shot_u
        else:
            mc = noise.monte_carlo_fidelity(
                self.protocol, noise_spec(REFERENCE_SEED, REFERENCE_SHOTS), keep_reports=True
            )
            shot_u = [r.u_gate for r in mc.reports]
        err = max(max_abs_diff(u, reference[f"u/noisy/shot{i}"]) for i, u in enumerate(shot_u))
        return {"unitary_err": checked_unitary_err(self.name, err), "mean_fidelity": float(np.mean(self.fidelities))}

    @staticmethod
    def reference_cases():
        @functools.cache
        def shots(refine):
            proto = with_resolution(
                gates.make_protocol(NOISY_GATE, gates.table_params(NOISY_GATE)), GAUSSIAN_RESOLUTION, refine
            )
            mc = noise.monte_carlo_fidelity(proto, noise_spec(REFERENCE_SEED, REFERENCE_SHOTS), keep_reports=True)
            return [r.u_gate for r in mc.reports]

        return {f"noisy/shot{i}": (lambda refine, i=i: shots(refine)[i]) for i in range(REFERENCE_SHOTS)}


class Calibration(Workload):
    name = "calibration"

    def setup(self):
        self.params = gates.table_params("SWAP")
        self.plan = transfer_plan(self.params)
        basis = self.plan(1.0).stages[0].spec.basis
        self.psi_in = basis.basis_state(("0", "1"))
        self.out_index = basis.index_of(("1", "0"))
        self.t_swap = None

    def run_pass(self):
        p = self.params
        t_seed = analytic.swap_time_estimate(p.omega1_max, p.delta)[1]
        t_transfer = analytic.calibrate_swap_time(self.plan, self.psi_in, self.out_index, t_seed, xtol=TRANSFER_XTOL)
        return gates.calibrate_duration("SWAP", p, t_transfer, **DURATION_WINDOW)

    def check_pass(self, t_swap, evals):
        if abs(t_swap - PUBLISHED_SWAP_US) > SWAP_TOLERANCE_US:
            raise CheckFailed(f"calibrated duration {t_swap} us is outside criterion 6")
        if self.t_swap is None:
            self.t_swap = t_swap
        elif t_swap != self.t_swap:
            raise CheckFailed("calibrated duration differs between passes")

    def finish(self, reference):
        t_ref = float(reference["calibration/t_swap"])
        u = gate_u("SWAP", replace(self.params, duration=t_ref), GAUSSIAN_RESOLUTION)
        return {
            "unitary_err": checked_unitary_err(self.name, max_abs_diff(u, reference["u/calibration/SWAP"])),
            "duration_err_us": abs(self.t_swap - PUBLISHED_SWAP_US),
            "t_swap_us": self.t_swap,
        }


class PaperSmall(Workload):
    """The paper's small-matrix chain: tables, then calibration, then noise.

    One pass runs each part's pass in that order and checks each part as it
    would be checked alone; unitary_err is the largest of the parts'.
    """

    name = "paper_small"
    PARTS = (TableGates, Calibration, NoisyMC)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parts = [part(seed) for part in self.PARTS]

    def setup(self):
        for part in self.parts:
            part.setup()

    def run_pass(self):
        return [part.run_pass() for part in self.parts]

    def check_pass(self, outputs, evals):
        for part, output in zip(self.parts, outputs):
            part.check_pass(output, evals)

    def finish(self, reference):
        figures = {}
        errs = {}
        for part in self.parts:
            extra = part.finish(reference)
            errs[part.name] = extra.pop("unitary_err")
            figures.update(extra)
        return {"unitary_err": max(errs.values()), "unitary_err_parts": errs, **figures}

    @staticmethod
    def reference_cases():
        cases = {}
        for part in PaperSmall.PARTS:
            cases.update(part.reference_cases())
        return cases


WORKLOADS = {w.name: w for w in (PaperSmall, RoutingLarge)}
