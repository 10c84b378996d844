import math

import numpy as np
import pytest

from rydswap.gates import make_protocol, run_gate, table_params
from rydswap.noise import (
    DopplerSpec,
    IntensitySpec,
    NoiseSpec,
    doppler_sigma,
    monte_carlo_fidelity,
    sample_realization,
    shot_rng,
)

TWO_PI = 2 * math.pi


class TestDopplerSigma:
    def test_cs_counterpropagating_value(self):
        # k_eff = 2 pi |1/459.6nm - 1/1040nm|, v_rms = sqrt(kB 150uK / M_Cs)
        spec = DopplerSpec(temperature_K=150e-6)
        assert doppler_sigma(spec) == pytest.approx(TWO_PI * 0.117628, rel=1e-4)

    def test_zero_temperature(self):
        assert doppler_sigma(DopplerSpec(temperature_K=0.0)) == 0.0

    def test_sqrt_temperature_scaling(self):
        s1 = doppler_sigma(DopplerSpec(temperature_K=50e-6))
        s4 = doppler_sigma(DopplerSpec(temperature_K=200e-6))
        assert s4 == pytest.approx(2 * s1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DopplerSpec(temperature_K=-1.0)
        with pytest.raises(ValueError):
            IntensitySpec({"omega1": -0.1})
        with pytest.raises(ValueError):
            NoiseSpec(n_shots=0)


class TestSampleRealization:
    def test_fixed_seed_bit_identical(self):
        spec = NoiseSpec(
            doppler=DopplerSpec(temperature_K=150e-6),
            intensity=IntensitySpec({"omega1": 1e-3, "omega2": 1e-3}),
            seed=9,
        )
        r1 = sample_realization(spec, 3, 4.8, shot_rng(9, 5))
        r2 = sample_realization(spec, 3, 4.8, shot_rng(9, 5))
        assert r1.doppler_shifts == r2.doppler_shifts
        for fam in r1.intensity_factors:
            assert np.array_equal(r1.intensity_factors[fam], r2.intensity_factors[fam])
        r3 = sample_realization(spec, 3, 4.8, shot_rng(9, 6))
        assert r1.doppler_shifts != r3.doppler_shifts

    def test_zero_noise_identity(self):
        spec = NoiseSpec(doppler=DopplerSpec(temperature_K=0.0), intensity=IntensitySpec({}))
        r = sample_realization(spec, 2, 1.0, shot_rng(0, 0))
        assert r.doppler_shifts == (0.0, 0.0)
        assert r.intensity_factors == {}

    def test_sample_statistics(self):
        spec = NoiseSpec(doppler=DopplerSpec(temperature_K=150e-6), seed=4)
        sigma = doppler_sigma(spec.doppler)
        rng = shot_rng(4, 0)
        draws = np.concatenate(
            [sample_realization(spec, 4, 1.0, rng).doppler_shifts for _ in range(2500)]
        )
        assert np.std(draws) == pytest.approx(sigma, rel=0.03)

    def test_intensity_clipping_and_interval_count(self):
        # one factor per started 10 ns interval
        spec = NoiseSpec(intensity=IntensitySpec({"omega2": 0.5}), seed=1)
        r = sample_realization(spec, 1, 0.105, shot_rng(1, 0))
        factors = r.intensity_factors["omega2"]
        assert len(factors) == 11
        assert np.all(factors >= 0.0)
        assert np.all(factors <= 1.0 + 5 * 0.5)

    def test_intensity_lookup_is_piecewise(self):
        spec = NoiseSpec(intensity=IntensitySpec({"omega2": 0.2}), seed=2)
        r = sample_realization(spec, 1, 0.04, shot_rng(2, 0))
        factors = r.intensity_factors["omega2"]
        assert r.intensity_at("omega2", 0.011) == r.intensity_at("omega2", 0.019) == factors[1]
        assert r.intensity_at("omega2", 0.021) == factors[2] != factors[1]
        assert np.array_equal(r.intensity_at("omega2", np.array([0.0, 0.039, 0.5])), factors[[0, 3, 3]])
        assert r.intensity_at("omega1", 0.011) == 1.0


@pytest.fixture(scope="module")
def protocol():
    return make_protocol("SWAP", table_params("SWAP"))


class TestMonteCarlo:
    def test_single_shot_zero_noise_equals_deterministic(self, protocol):
        f0 = run_gate(protocol).fidelity
        spec = NoiseSpec(doppler=DopplerSpec(temperature_K=0.0), n_shots=1, seed=3)
        mc = monte_carlo_fidelity(protocol, spec)
        assert abs(mc.mean_fidelity - f0) < 1e-12
        assert mc.std_fidelity == 0.0

    def test_shot_order_independent_of_jobs(self, protocol):
        spec = NoiseSpec(doppler=DopplerSpec(temperature_K=100e-6), n_shots=4, seed=21)
        serial = monte_carlo_fidelity(protocol, spec, jobs=1)
        parallel = monte_carlo_fidelity(protocol, spec, jobs=2)
        assert np.array_equal(serial.fidelities, parallel.fidelities)

    def test_doppler_reduces_fidelity(self, protocol):
        f0 = run_gate(protocol).fidelity
        spec = NoiseSpec(doppler=DopplerSpec(temperature_K=400e-6), n_shots=8, seed=2)
        mc = monte_carlo_fidelity(protocol, spec)
        assert mc.mean_fidelity < f0
        assert mc.mean_infidelity == pytest.approx(1 - mc.mean_fidelity)
