import math
from dataclasses import replace

import pytest

from rydswap.gates import make_protocol, rotation_fidelity, run_gate, table_params
from rydswap.sweep import ScanSpec, scan

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def base_params():
    return table_params("SWAP")


class TestScan:
    def test_single_point_equals_direct_evaluation(self, base_params):
        proto = make_protocol("SWAP", base_params)
        report = run_gate(proto)
        rows = scan(ScanSpec("SWAP", base_params, "omega2", (base_params.omega2,)))
        assert len(rows) == 1
        assert rows[0].metric == pytest.approx(rotation_fidelity(report.rotation_matrix, proto.ideal), abs=1e-12)
        assert rows[0].fidelity == pytest.approx(report.fidelity, abs=1e-12)

    def test_deterministic(self, base_params):
        spec = ScanSpec("SWAP", base_params, "omega2",
                        (TWO_PI * 180.0, TWO_PI * 190.8))
        r1, r2 = scan(spec), scan(spec)
        assert [(a.value, a.metric) for a in r1] == [(b.value, b.metric) for b in r2]

    def test_failures_recorded_and_scan_continues(self, base_params):
        spec = ScanSpec("SWAP", base_params, "duration", (-1.0, base_params.duration))
        rows = scan(spec)
        assert math.isnan(rows[0].metric) and rows[0].error
        assert rows[1].error == "" and rows[1].metric > 0.9

    def test_rotation_fidelity_never_below_fidelity(self, base_params):
        spec = ScanSpec("SWAP", base_params, "omega2", tuple(TWO_PI * x for x in (150.0, 190.8, 230.0)))
        for row in scan(spec):
            assert row.metric >= row.fidelity - 1e-9

    def test_integer_parameter_scan(self):
        # n_controls is scanned as an integer; a non-integral value is that point's error
        base = replace(table_params("C_SWAP_CCSdag"), n_controls=2)
        rows = scan(ScanSpec("Ck_SWAP", base, "n_controls", (1.0, 2.0, 1.5)))
        assert all(math.isfinite(r.metric) and r.error == "" for r in rows[:2])
        assert math.isnan(rows[2].metric) and "n_controls" in rows[2].error

    def test_validation(self, base_params):
        with pytest.raises(ValueError):
            ScanSpec("SWAP", base_params, "omega2", ())
        with pytest.raises(ValueError):
            ScanSpec("SWAP", base_params, "omega99", (1.0,))

    @pytest.mark.parametrize("parameter", ["decay_rate", "control_pi_time", "model"])
    def test_only_numeric_fields_scan(self, base_params, parameter):
        with pytest.raises(ValueError, match=parameter):
            ScanSpec("SWAP", base_params, parameter, (1.0, 2.0))

    @pytest.mark.parametrize("parameter", ["lifetime", "n_controls"])
    def test_optional_and_integer_fields_scan(self, base_params, parameter):
        assert ScanSpec("SWAP", base_params, parameter, (1.0,)).parameter == parameter
