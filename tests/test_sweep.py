import math
from dataclasses import replace

import pytest

from rydswap.gates import table_params
from rydswap.sweep import (
    DistanceSpec,
    ScanSpec,
    distance_scan,
    evaluate_metric,
    interaction_shift,
    optimize,
    scan,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def base_params():
    return table_params("SWAP")


class TestScan:
    def test_single_point_equals_direct_evaluation(self, base_params):
        spec = ScanSpec("SWAP", base_params, "omega2", (base_params.omega2,), metric="fidelity")
        rows = scan(spec)
        val, report = evaluate_metric("SWAP", base_params, "fidelity")
        assert len(rows) == 1
        assert rows[0].metric == pytest.approx(val, abs=1e-12)
        assert rows[0].fidelity == pytest.approx(report.fidelity, abs=1e-12)

    def test_deterministic(self, base_params):
        spec = ScanSpec("SWAP", base_params, "omega2",
                        (TWO_PI * 180.0, TWO_PI * 190.8), metric="rotation_fidelity")
        r1, r2 = scan(spec), scan(spec)
        assert [(a.value, a.metric) for a in r1] == [(b.value, b.metric) for b in r2]

    def test_failures_recorded_and_scan_continues(self, base_params):
        spec = ScanSpec("SWAP", base_params, "duration", (-1.0, base_params.duration))
        rows = scan(spec)
        assert math.isnan(rows[0].metric) and rows[0].error
        assert rows[1].error == "" and rows[1].metric > 0.9

    def test_rotation_fidelity_never_below_fidelity(self, base_params):
        spec = ScanSpec("SWAP", base_params, "omega2",
                        tuple(TWO_PI * x for x in (150.0, 190.8, 230.0)), metric="fidelity")
        for row in scan(spec):
            spec_r = ScanSpec("SWAP", replace(base_params, omega2=row.value),
                              "omega2", (row.value,), metric="rotation_fidelity")
            assert scan(spec_r)[0].metric >= row.metric - 1e-9

    def test_integer_parameter_scan(self):
        # n_controls is scanned as an integer; a non-integral value is that point's error
        base = replace(table_params("C_SWAP_CCSdag"), n_controls=2)
        rows = scan(ScanSpec("Ck_SWAP", base, "n_controls", (1.0, 2.0, 1.5), "fidelity"))
        assert all(math.isfinite(r.metric) and r.error == "" for r in rows[:2])
        assert math.isnan(rows[2].metric) and "n_controls" in rows[2].error

    def test_validation(self, base_params):
        with pytest.raises(ValueError):
            ScanSpec("SWAP", base_params, "omega2", ())
        with pytest.raises(ValueError):
            ScanSpec("SWAP", base_params, "omega99", (1.0,))
        with pytest.raises(ValueError):
            ScanSpec("SWAP", base_params, "omega2", (1.0,), metric="magic")


class TestOptimize:
    def test_empty_free_set_returns_base(self, base_params):
        res = optimize("SWAP", base_params, ())
        assert res.params == base_params
        assert not res.budget_exhausted

    def test_never_worse_than_seed(self, base_params):
        seed = replace(base_params, delta=base_params.delta * 1.05)
        base_val, _ = evaluate_metric("SWAP", seed, "infidelity_with_loss")
        res = optimize("SWAP", seed, ("delta",), budget=40)
        assert res.metric <= base_val + 1e-12

    def test_recovers_fidelity_from_perturbed_seed(self, base_params):
        # re-optimization around the published optimum; rotation fidelity is
        # the meaningful target under virtual-Z freedom (the full-fidelity
        # landscape with frozen phase adjustments caps below 0.9 at this
        # perturbation, see the project notes)
        seed = replace(
            base_params,
            omega2=base_params.omega2 * 1.05,
            delta=base_params.delta * 0.95,
            duration=base_params.duration * 1.05,
        )
        res = optimize("SWAP", seed, ("omega2", "delta", "duration"),
                       metric="rotation_fidelity", budget=300)
        assert res.metric >= 0.995
        trace = res.trace
        assert all(b >= a - 1e-15 for a, b in zip(trace, trace[1:]))


class TestDistance:
    def test_interaction_shift_arithmetic(self):
        # C6 = -80 THz um^6 at R = 10 um -> -80 MHz (x 2 pi when angular)
        assert interaction_shift(-80.0, 10.0, angular=False) == pytest.approx(-80.0)
        assert interaction_shift(-80.0, 10.0, angular=True) == pytest.approx(-TWO_PI * 80.0)
        assert interaction_shift(-80.0, 5.0, angular=False) == pytest.approx(-80.0 * 64)

    def test_distance_scan_structure(self, base_params):
        cswap = table_params("C_SWAP_CCSdag")
        spec = DistanceSpec(
            variant="C_SWAP_CCSdag",
            base=cswap,
            r_grid=(3.0, 3.5),
            c6_thz_um6=-80.0,
            free=(),
            budget=1,
        )
        rows = distance_scan(spec)
        assert [r.r_um for r in rows] == [3.0, 3.5]
        for r in rows:
            assert r.v_ct == pytest.approx(interaction_shift(-80.0, r.r_um))
            assert 0.0 <= r.infidelity_with_loss <= 1.0

    def test_weak_interaction_degrades(self):
        # rotation infidelity isolates the blocking failure from the fixed
        # phase bookkeeping, which only re-optimization can retune
        cswap = table_params("C_SWAP_CCSdag")
        spec = DistanceSpec(
            variant="C_SWAP_CCSdag", base=cswap,
            r_grid=(3.2, 12.0), c6_thz_um6=-80.0, free=(), budget=1,
        )
        rows = distance_scan(spec)
        assert rows[1].rotation_infidelity > 3 * rows[0].rotation_infidelity

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceSpec("C_SWAP_CCSdag", table_params("C_SWAP_CCSdag"), r_grid=())
        with pytest.raises(ValueError):
            DistanceSpec("C_SWAP_CCSdag", table_params("C_SWAP_CCSdag"), r_grid=(1.0,), budget=0)
