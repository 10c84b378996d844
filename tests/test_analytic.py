import math

import numpy as np
import pytest

from rydswap.analytic import (
    calibrate_swap_time,
    crest,
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
        # strong control shift: lowest eigenvalue collapses onto C
        ep = effective_params(TWO_PI * 33.5, TWO_PI * 89.76, TWO_PI * 1001.2, TWO_PI * 22140.0)
        assert ep.a == pytest.approx(TWO_PI * 1.0618467, rel=1e-6)
        assert abs(ep.lam_minus - ep.c) == pytest.approx(TWO_PI * 1.01885e-4, rel=1e-3)
        assert abs(ep.lam_minus - ep.c) < ep.a / 100
        assert ep.c < 0

    def test_eigensystem(self):
        # lam_minus is the lowest eigenvalue of H_eff on (|01>, |10>, |1r~>),
        # and C, the dark antisymmetric state's, is the next
        ep = effective_params(TWO_PI * 20.0, TWO_PI * 100.0, TWO_PI * 900.0, TWO_PI * 50.0)
        h = np.array([[ep.c, 0.0, ep.a], [0.0, ep.c, ep.a], [ep.a, ep.a, ep.b]])
        evals = np.linalg.eigvalsh(h)
        assert ep.lam_minus == pytest.approx(evals[0], rel=1e-12)
        assert ep.c == pytest.approx(evals[1], rel=1e-12)

    def test_pole_errors(self):
        with pytest.raises(ValueError):
            effective_params(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            effective_params(1.0, 1.0, 5.0, 5.0)


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
        c2 = truncated_gaussian_square_integral()
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

    @pytest.mark.parametrize("target", [None, 0.7])
    @pytest.mark.parametrize("kwargs, name", [({"bracket": (1.5, 0.7)}, "bracket"),
                                              ({"bracket": (0.0, 1.5)}, "bracket"),
                                              ({"xtol": 0.0}, "xtol"), ({"xtol": math.nan}, "xtol")])
    def test_rejects_a_search_it_cannot_honour_before_propagating(self, target, kwargs, name):
        def no_plan(t):
            raise AssertionError("no propagation may run")

        with pytest.raises(ValueError, match=name):
            calibrate_swap_time(no_plan, np.zeros(2), 0, 4.7, transfer_target=target, **kwargs)

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
        x = crest(self.f, grid, xtol)
        k = int(np.argmax(self.f(grid)))
        assert grid[k - 1] < x < grid[k + 1]
        assert self.df(x - xtol) > 0.0 > self.df(x + xtol)
        assert self.f(x) >= self.f(grid[k])

    @pytest.mark.parametrize("sign, k_end", [(1.0, 10), (-1.0, 0)])
    def test_rejects_an_end_point(self, sign, k_end):
        # the best point grid[k_end] has one neighbour: the whole grid is
        # evaluated, then nothing is refined
        grid = np.linspace(0.0, 1.0, 11)
        calls = []
        with pytest.raises(ValueError, match="no interior maximum"):
            crest(lambda t: calls.append(t) or sign * t, grid, 1e-6)
        assert calls == list(grid)
        assert int(np.argmax([sign * t for t in grid])) == k_end

    @staticmethod
    def bounded(f, calls, limit=500):
        """f, recording its arguments, that raises once called limit times."""
        def g(x):
            calls.append(x)
            if len(calls) > limit:
                raise RuntimeError("the search did not stop")
            return f(x)
        return g

    @pytest.mark.parametrize("xtol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_an_xtol_it_cannot_meet(self, xtol):
        calls = []
        with pytest.raises(ValueError, match="xtol"):
            crest(self.bounded(self.f, calls), np.linspace(0.0, 1.0, 21), xtol)
        assert calls == []

    @pytest.mark.parametrize("grid", [np.linspace(1.0, 0.0, 21), np.array([0.0, 0.5, 0.5, 1.0])])
    def test_rejects_a_grid_that_is_not_increasing(self, grid):
        calls = []
        with pytest.raises(ValueError, match="increasing"):
            crest(self.bounded(self.f, calls), grid, 1e-6)
        assert calls == []

    @pytest.mark.parametrize("xtol", [1e-16, 1e-20, 5e-324])
    def test_stops_at_float_spacing(self, xtol):
        # a bracket near 4.7 cannot shrink below about 9e-16
        calls = []
        x = crest(self.bounded(lambda x: -((x - 4.7) ** 2), calls), np.linspace(4.5, 4.9, 21), xtol)
        assert x == pytest.approx(4.7, abs=1e-7)


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
