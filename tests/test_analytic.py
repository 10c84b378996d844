import math

import numpy as np
import pytest

from rydswap.analytic import (
    calibrate_swap_time,
    crest,
    dark_state,
    effective_params,
    predict_phases,
    swap_time_estimate,
    truncated_gaussian_square_integral,
    wrap_phase,
)
from rydswap.gates import table_params, two_target_plan

TWO_PI = 2 * math.pi


class TestEffectiveParams:
    def test_table_swap_values(self):
        # frozen from direct evaluation of the closed forms with the SWAP
        # operating point at zero control shift
        ep = effective_params(TWO_PI * 33.5, TWO_PI * 190.8, TWO_PI * 999.73, 0.0)
        assert ep.a == pytest.approx(TWO_PI * 2.2604529, rel=1e-6)
        assert ep.b == pytest.approx(-TWO_PI * 18.207236, rel=1e-6)
        assert ep.c == pytest.approx(TWO_PI * 9.103618, rel=1e-6)
        assert ep.omega_eff == pytest.approx(-TWO_PI * 0.18709218, rel=1e-6)

    def test_omega_eff_identity(self):
        # A^2/(B-C) at V=0 collapses to -W1^2/(6 D) identically
        rng = np.random.default_rng(5)
        for _ in range(10):
            om1 = TWO_PI * rng.uniform(1, 60)
            om2 = TWO_PI * rng.uniform(10, 300)
            delta = TWO_PI * rng.uniform(100, 2000) * rng.choice([-1, 1])
            ep = effective_params(om1, om2, delta, 0.0)
            assert ep.omega_eff == pytest.approx(-om1**2 / (6 * delta), rel=1e-12)

    def test_near_degeneracy_for_blocked_branch(self):
        # strong control shift: lowest eigenvalue collapses onto lam0 = C
        ep = effective_params(TWO_PI * 33.5, TWO_PI * 89.76, TWO_PI * 1001.2, TWO_PI * 22140.0)
        assert ep.a == pytest.approx(TWO_PI * 1.0618467, rel=1e-6)
        assert abs(ep.lam_minus - ep.lam0) == pytest.approx(TWO_PI * 1.01885e-4, rel=1e-3)
        assert abs(ep.lam_minus - ep.lam0) < ep.a / 100
        assert ep.c < 0

    def test_eigensystem(self):
        ep = effective_params(TWO_PI * 20.0, TWO_PI * 100.0, TWO_PI * 900.0, TWO_PI * 50.0)
        assert ep.lam0 == ep.c
        root = math.sqrt(8 * ep.a**2 + (ep.b - ep.c) ** 2)
        assert ep.lam_minus == pytest.approx((ep.b + ep.c - root) / 2, rel=1e-12)
        assert ep.lam_plus == pytest.approx((ep.b + ep.c + root) / 2, rel=1e-12)
        for vec in (ep.eigvec_minus, ep.eigvec_plus):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(ep.eigvec_minus @ ep.eigvec_plus) < 1e-12
        # both orthogonal to the dark antisymmetric combination (1,-1,0)
        anti = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        assert abs(anti @ ep.eigvec_minus) < 1e-12

    def test_pole_errors(self):
        with pytest.raises(ValueError):
            effective_params(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            effective_params(1.0, 1.0, 5.0, 5.0)


class TestDarkState:
    def test_limit_cases(self):
        assert np.allclose(dark_state(0.0, 1.0), [1.0, 0.0, 0.0])
        sym = dark_state(1.0, 1.0)
        assert np.allclose(sym, np.array([1.0, -1.0, -1.0]) / math.sqrt(3))
        with pytest.raises(ValueError):
            dark_state(0.0, 0.0)

    def test_is_zero_eigenvector_of_reduced_hamiltonian(self):
        # five-state lambda system {00, 01, 10, 0r, r0}: the logical drive
        # connects 00 to 01/10, the optical drive closes each arm, and the
        # dark vector (om2, -om1, -om1) over (00, 0r, r0) is annihilated
        om1, om2, delta_p = 3.0, 11.0, 2.4
        h = np.zeros((5, 5))
        h[0, 1] = h[1, 0] = om1 / 2
        h[0, 2] = h[2, 0] = om1 / 2
        h[1, 3] = h[3, 1] = om2 / 2
        h[2, 4] = h[4, 2] = om2 / 2
        h[1, 1] = h[2, 2] = delta_p
        d = dark_state(om1, om2)
        psi = np.array([d[0], 0.0, 0.0, d[1], d[2]])
        assert np.max(np.abs(h @ psi)) < 1e-12


class TestSwapTimeEstimate:
    def test_table_swap_value_against_quadrature_oracle(self):
        # independent oracle: trapezoid integration of the squared envelope
        om1, delta = TWO_PI * 33.5, TWO_PI * 999.73
        x = np.linspace(0.0, 1.0, 200001)
        env = np.exp(-((x - 0.5) ** 2) / (2 * 0.25**2)) - math.exp(-2.0)
        c2 = np.trapezoid(env**2, x)
        t_expected = 6 * math.pi * delta / (om1**2 * c2)
        t_est, t_half = swap_time_estimate(om1, delta)
        assert t_est == pytest.approx(t_expected, rel=1e-7)
        assert t_est == pytest.approx(8.984, rel=1e-3)
        assert t_half == pytest.approx(t_est / 2, rel=1e-12)

    def test_square_envelope_closed_form(self):
        om1, delta = TWO_PI * 25.0, TWO_PI * 800.0
        c2 = truncated_gaussian_square_integral(0.25)
        t_est, _ = swap_time_estimate(om1, delta)
        assert t_est * c2 == pytest.approx(6 * math.pi * delta / om1**2, rel=1e-9)

    def test_scaling(self):
        om1, delta = TWO_PI * 20.0, TWO_PI * 1000.0
        t1, _ = swap_time_estimate(om1, delta)
        t2, _ = swap_time_estimate(2 * om1, delta)
        assert t2 == pytest.approx(t1 / 4, rel=1e-12)
        t3, _ = swap_time_estimate(om1, 2 * delta)
        assert t3 == pytest.approx(2 * t1, rel=1e-12)

    def test_no_solution(self):
        with pytest.raises(ValueError):
            swap_time_estimate(0.0, 1.0)


class TestCalibration:
    def test_delta_doubling_roughly_doubles_duration(self):
        params = table_params("SWAP")
        base = params.__class__(**{**params.__dict__, "lifetime": None})
        doubled = base.__class__(**{**base.__dict__, "delta": 2 * base.delta})

        def calibrated(p):
            plan = lambda t: two_target_plan(p, t)
            basis = plan(1.0).stages[0].spec.basis
            seed = swap_time_estimate(p.omega1_max, p.delta)[1]
            return calibrate_swap_time(
                plan, basis.basis_state(("0", "1")), basis.index_of(("1", "0")), seed,
                bracket=(0.8, 1.25), xtol=2e-3,
            )

        t_a, t_b = calibrated(base), calibrated(doubled)
        assert t_b / t_a == pytest.approx(2.0, rel=0.08)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            calibrate_swap_time(lambda t: None, np.zeros(2), 0, -1.0)

    def test_amplitude_rising_to_the_bracket_end_is_rejected(self):
        # well below the exchange time the transfer amplitude still rises,
        # so the best grid point is the bracket's upper end
        p = table_params("SWAP")
        plan = lambda t: two_target_plan(p, t)
        basis = plan(1.0).stages[0].spec.basis
        seed = swap_time_estimate(p.omega1_max, p.delta)[1]
        with pytest.raises(ValueError, match="no interior maximum"):
            calibrate_swap_time(plan, basis.basis_state(("0", "1")), basis.index_of(("1", "0")), seed,
                                bracket=(0.2, 0.5))


class TestCrest:
    # a slow envelope under a ripple of period 0.013, shorter than the grid
    # step of 0.05
    @staticmethod
    def f(x):
        return -((x - 0.37) ** 2) + 0.02 * np.cos(TWO_PI * x / 0.013)

    @staticmethod
    def df(x):
        return -2.0 * (x - 0.37) - 0.02 * TWO_PI / 0.013 * np.sin(TWO_PI * x / 0.013)

    def test_refines_to_a_local_maximum_inside_the_best_cell(self):
        grid = np.linspace(0.0, 1.0, 21)
        xtol = 1e-6
        x, k = crest(self.f, grid, xtol)
        assert k == int(np.argmax(self.f(grid)))
        assert grid[k - 1] < x < grid[k + 1]
        assert self.df(x - xtol) > 0.0 > self.df(x + xtol)
        assert self.f(x) >= self.f(grid[k])

    @pytest.mark.parametrize("sign, k_end", [(1.0, 10), (-1.0, 0)])
    def test_reports_an_end_point_unrefined(self, sign, k_end):
        grid = np.linspace(0.0, 1.0, 11)
        calls = []
        x, k = crest(lambda t: calls.append(t) or sign * t, grid, 1e-6)
        assert (x, k) == (grid[k_end], k_end)
        assert len(calls) == len(grid)


class TestPredictPhases:
    def test_universal_blocked_phase(self):
        for om2, delta, v in ((TWO_PI * 50, TWO_PI * 900, TWO_PI * 100),
                              (TWO_PI * 150, TWO_PI * 1200, -TWO_PI * 2000)):
            pred = predict_phases(om2, delta, v, 4.7259)
            assert pred.phi_rc00 == pytest.approx(wrap_phase(-1.5 * math.pi), abs=1e-12)

    def test_large_shift_limits(self):
        pred = predict_phases(TWO_PI * 100.0, TWO_PI * 1000.0, TWO_PI * 1e9, 4.0)
        assert abs(pred.phi_rc01) < 1e-3
        assert abs(wrap_phase(pred.phi_rc11 - math.pi)) < 1e-3

    def test_formula_values(self):
        om2, delta, v, t = TWO_PI * 89.76, TWO_PI * 1001.2, 22140.0, 4.7259
        pred = predict_phases(om2, delta, v, t)
        assert pred.phi_1c01 == pytest.approx(wrap_phase(om2**2 * t / (4 * delta)), abs=1e-12)
        assert pred.phi_rc01 == pytest.approx(wrap_phase(om2**2 * t / (4 * (delta - v))), abs=1e-12)

    def test_pole(self):
        with pytest.raises(ValueError):
            predict_phases(1.0, 5.0, 5.0, 1.0)


def test_wrap_phase_interval():
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(0.25) == pytest.approx(0.25)
    assert -math.pi < wrap_phase(-3.5 * math.pi) <= math.pi
