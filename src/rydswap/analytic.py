"""Closed-form effective-model quantities used as oracles for the simulator.

The adiabatic elimination of the far-detuned states reduces the driven
two-target system (for inputs in the single-excitation exchange manifold) to
the subspace {|01>, |10>, |1r~>} with

    H_eff = A [(|01> + |10>)<1r~| + h.c.] + B |1r~><1r~| + C (|01><01| + |10><10|)

    A = sqrt(2) W1 W2 / (4 D),  B = V - 2 W2^2 / (4 D),  C = W2^2 / (4 (D - V)),

writing W1, W2 for the two Rabi frequencies, D for the one-photon detuning
and V for the control-induced shift.  The exchange proceeds at fourth order
with effective rate A^2/(B - C); the antisymmetric combination is an exact
zero-coupling eigenstate.  These closed forms seed the pulse-time
calibration and cross-validate the full propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import StagePlan, propagate


def wrap_phase(x: float) -> float:
    """Reduce an angle modulo 2*pi into (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class EffectiveParams:
    """Effective-model constants A, B and C, the exchange rate omega_eff =
    A^2/(B - C) and the lower dressed eigenvalue lam_minus, all in rad/us.

    lam_minus is the lower eigenvalue of the coupled block on (symmetric
    exchange state, |1r~>); the antisymmetric state's eigenvalue is C.
    """

    a: float
    b: float
    c: float
    omega_eff: float
    lam_minus: float


def effective_params(omega1: float, omega2: float, delta: float, v: float) -> EffectiveParams:
    """Adiabatic-elimination constants for the exchange manifold.

    Raises on the interaction-induced resonance delta == v, where C diverges.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    if delta == v:
        raise ValueError("pole at delta == v (interaction-induced resonance)")
    a = math.sqrt(2.0) * omega1 * omega2 / (4.0 * delta)
    b = v - 2.0 * omega2**2 / (4.0 * delta)
    c = omega2**2 / (4.0 * (delta - v))
    if b == c:
        raise ValueError("degenerate effective model (B == C)")
    omega_eff = a**2 / (b - c)

    root = math.sqrt(8.0 * a**2 + (b - c) ** 2)
    lam_minus = 0.5 * (b + c - root)

    return EffectiveParams(
        a=a,
        b=b,
        c=c,
        omega_eff=omega_eff,
        lam_minus=lam_minus,
    )


def truncated_gaussian_square_integral() -> float:
    """c2 = integral over [0,1] of the unit truncated-Gaussian envelope squared.

    For an envelope of peak 1, duration T and sigma = s T with s = 1/4, the
    squared-pulse area is peak^2 * T * c2, in closed form

        c2 = s sqrt(pi) erf(2) - 2 e^-2 s sqrt(2 pi) erf(sqrt 2) + e^-4.
    """
    s = 0.25
    return (s * math.sqrt(math.pi) * math.erf(2.0)
            - 2.0 * math.exp(-2.0) * s * math.sqrt(2.0 * math.pi) * math.erf(math.sqrt(2.0)) + math.exp(-4.0))


def swap_time_estimate(omega1_max: float, delta: float) -> tuple[float, float]:
    """Exchange-time estimate from the fourth-order rate condition.

    Solves integral of W1(t)^2 / (6 D) dt = pi for a truncated Gaussian with
    sigma = T/4 (self-consistent in T).  The printed condition is
    convention-ambiguous by a factor of two, so both the direct solution and
    its half are returned; calibrate_swap_time is the authoritative source.
    """
    if omega1_max == 0.0 or delta == 0.0:
        raise ValueError("no positive solution with a zero drive or detuning")
    c2 = truncated_gaussian_square_integral()
    t_est = 6.0 * math.pi * delta / (omega1_max**2 * c2)
    if t_est <= 0:
        raise ValueError("no positive solution (check the sign of delta)")
    return t_est, 0.5 * t_est


def _check_positive(**values: float) -> None:
    """Raise ValueError naming each value that is not positive and finite."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def crest(f: Callable[[float], float], grid, xtol: float) -> float:
    """Best grid point of f, refined by golden section between its neighbours.

    Returns the centre of the final bracket, at most xtol wide, or as narrow
    as floating point makes it.  A ripple shorter than the grid step still
    ends on one local maximum.  A best point on an end of the grid has one
    neighbour, so after the whole grid is evaluated it raises ValueError.
    The grid must be strictly increasing and xtol positive and finite; both
    are checked before f is called.
    """
    _check_positive(xtol=xtol)
    if not np.all(np.diff(grid) > 0):
        raise ValueError("the calibration grid must be strictly increasing")
    vals = [f(x) for x in grid]
    k = int(np.argmax(vals))
    if k in (0, len(grid) - 1):
        raise ValueError("no interior maximum in the calibration bracket")
    lo, hi = grid[k - 1], grid[k + 1]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        width = hi - lo
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        if hi - lo >= width:  # the bracket is down to float spacing
            break
    return float(0.5 * (lo + hi))


def calibrate_swap_time(
    plan_for_duration: Callable[[float], StagePlan],
    psi_in: np.ndarray,
    out_index: int,
    t_seed: float,
    transfer_target: float | None = None,
    bracket: tuple[float, float] = (0.7, 1.5),
    xtol: float = 1e-4,
) -> float:
    """Pin the exchange duration against the full propagation.

    plan_for_duration builds the complete two-target stage plan for a trial
    duration.  Without a transfer_target the routine maximizes
    |<out|U(T)|in>| on [bracket[0]*t_seed, bracket[1]*t_seed] by ``crest``
    over a 41-point grid (the amplitude carries dressing-phase ripples that
    defeat a bare unimodal search), and raises ValueError when the best grid
    point is an end of the bracket.  With a target (e.g. 1/sqrt(2) for the
    half rotation) it returns a crossing of the target by ``brentq`` on the
    bracket, first moving the bracket start to 0.2*t_seed if the amplitude
    there is already at or above the target.  The ripples make the amplitude
    cross the target several times per nanosecond near the half rotation (12
    sign changes between 2.320 and 2.326 us at the sqrt_iSWAP point), so the
    crossing returned is whichever one brentq's bracket path meets, not
    necessarily the first.  Only this mode imports brentq (scipy.optimize),
    on its first call.  A bracket that is not positive and increasing, or a
    t_seed or xtol that is not positive and finite, raises ValueError before
    any propagation.
    """
    _check_positive(t_seed=t_seed, xtol=xtol)
    if not 0 < bracket[0] < bracket[1]:
        raise ValueError(f"bracket must be increasing and positive, got {bracket!r}")

    def amplitude(t: float) -> float:
        res = propagate(plan_for_duration(t), psi_in)
        return abs(res.final_state[out_index])

    lo, hi = bracket[0] * t_seed, bracket[1] * t_seed

    if transfer_target is not None:
        f_lo = amplitude(lo)
        if f_lo >= transfer_target:
            lo = 0.2 * t_seed
            f_lo = amplitude(lo)
            if f_lo >= transfer_target:
                raise ValueError("bracket start already beyond the transfer target")
        f_hi = amplitude(hi)
        if f_hi < transfer_target:
            raise ValueError("transfer target not reached inside the bracket")
        from scipy.optimize import brentq

        return float(brentq(lambda t: amplitude(t) - transfer_target, lo, hi, xtol=xtol))

    return crest(amplitude, np.linspace(lo, hi, 41), xtol)


@dataclass(frozen=True)
class PhasePrediction:
    """Second-order light-shift phases per input, radians in (-pi, pi].

    Field names encode the control state during the target stage and the
    target-pair input.
    """

    phi_rc01: float
    phi_1c01: float
    phi_rc00: float
    phi_rc11: float


def predict_phases(omega2: float, delta: float, v: float, t_gate: float) -> PhasePrediction:
    """Light-shift phase catalog for the five far-detuned input classes."""
    if delta == v:
        raise ValueError("pole at delta == v")
    x_v = omega2**2 * t_gate / (4.0 * (delta - v))
    x_0 = omega2**2 * t_gate / (4.0 * delta)
    return PhasePrediction(
        phi_rc01=wrap_phase(x_v),
        phi_1c01=wrap_phase(x_0),
        phi_rc00=wrap_phase(-1.5 * math.pi),
        phi_rc11=wrap_phase(3.0 * math.pi + 2.0 * x_v),
    )
