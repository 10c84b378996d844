"""Properties of the propagation kernel on small random plans.

The plans draw 1-3 atoms of 2-4 levels (at least two logical), square and
Gaussian drives, random frame detunings, interactions between Rydberg
levels, collective pairs, one decay rate per basis (0, 0.4, 1.5 or 1e-7 per
us on every Rydberg level; 1e-7 falls below the decay budget's cut),
optional Doppler shifts and intensity tracks, and 1-2 stages at small
resolutions, so that every path of the kernel runs: uncoupled states in
closed form, constant and time-dependent stages through the one chunk loop
(the latter node-interpolated or per step, and mirrored unless intensity
tracks break it), two-cluster blocks, recorded and unrecorded runs, on the
decay budget and on the P_r path with and without decay, and over identity
batches the decay-free chunk product with its derivative.  Examples are derandomized, so the suite is deterministic.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rydswap.basis import LevelScheme, build_basis
from rydswap.dynamics import Stage, StagePlan, StepPolicy, _stage_steps, propagate_matrix
from rydswap.model import (
    INTENSITY_INTERVAL,
    DriveTerm,
    HamiltonianSpec,
    InteractionGraph,
    NoiseRealization,
    gaussian_pulse,
    square_pulse,
)

from oracles import _dense_oracle

FAMILIES = ("a", "b")
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def schemes(draw):
    n_levels = draw(st.integers(2, 4))
    n_logical = draw(st.integers(2, n_levels))
    n_rydberg = n_levels - n_logical
    labels = tuple(str(k) for k in range(n_logical)) + tuple(f"r{k}" for k in range(n_rydberg))
    return LevelScheme(labels, (False,) * n_logical + (True,) * n_rydberg)


@st.composite
def drives(draw, atoms):
    atom = draw(st.integers(0, len(atoms) - 1))
    lower, upper = draw(st.permutations(atoms[atom].labels))[:2]
    shape = draw(st.sampled_from([square_pulse, gaussian_pulse]))
    return DriveTerm(atom, lower, upper, shape(draw(st.floats(1.0, 40.0))),
                     doppler_sensitive=draw(st.booleans()), family=draw(st.sampled_from(FAMILIES)))


@st.composite
def cases(draw, decay=True):
    """A random small plan, a noise realization or None, and two random unit columns; decay=False draws no decay."""
    atoms = draw(st.lists(schemes(), min_size=1, max_size=3))
    # without decay, and at 1e-7 per us (below the budget's cut), the exposure
    # is the trapezoid of P_r; at 0.4 and 1.5, the decay budget
    basis = build_basis(atoms, draw(st.sampled_from([0.0, 0.4, 1.5, 1e-7])) if decay else 0.0)
    n = len(atoms)
    frame = tuple((a, label, draw(st.floats(-30.0, 30.0)))
                  for a, s in enumerate(atoms) for label in s.labels if draw(st.booleans()))
    rydberg = [(a, label) for a, s in enumerate(atoms) for label, f in zip(s.labels, s.rydberg_flags) if f]
    links = [(x, y) for x in rydberg for y in rydberg if x[0] < y[0]]
    chosen = draw(st.lists(st.sampled_from(links), unique=True, max_size=3)) if links else []
    interactions = InteractionGraph.from_dict({(i, a, j, b): draw(st.floats(-60.0, 60.0)) for (i, a), (j, b) in chosen})
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    collective = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))) if pairs else ()
    stages = tuple(
        Stage(draw(st.floats(0.05, 1.0)),
              HamiltonianSpec(basis, tuple(draw(st.lists(drives(atoms), max_size=3))), interactions, frame, collective))
        for _ in range(draw(st.integers(1, 2))))
    plan = StagePlan(stages, StepPolicy(gaussian_resolution=draw(st.integers(1, 12)),
                                        square_resolution=draw(st.integers(1, 6))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = None
    if draw(st.booleans()):
        shifts = tuple(rng.normal(0.0, 3.0, n)) if draw(st.booleans()) else ()
        n_intervals = math.ceil(plan.total_duration / INTENSITY_INTERVAL)
        tracks = {f: 1.0 + 0.2 * rng.standard_normal(n_intervals)
                  for f in draw(st.lists(st.sampled_from(FAMILIES), unique=True))}
        noise = NoiseRealization(shifts, tracks)
    cols = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal((basis.dim, 2))
    return plan, noise, cols / np.linalg.norm(cols, axis=0)


@PROPERTY
@given(cases())
def test_kernel_matches_dense_oracle(case):
    plan, noise, cols = case
    res = propagate_matrix(plan, cols, noise, record_populations=True)
    psi, times, exposure, pops = _dense_oracle(plan, cols, noise)
    assert np.max(np.abs(res.final_state - psi)) < 1e-9
    assert np.max(np.abs(res.population_traj - pops)) < 1e-9
    assert np.max(np.abs(res.times - times)) < 1e-12
    assert abs(res.time_integrated_rydberg - exposure) < 1e-9
    # a budget run takes its final states from the chunk products and its
    # populations from a step pass: the two agree
    assert np.max(np.abs(res.population_traj[-1] - np.abs(res.final_state) ** 2)) < 1e-12


@PROPERTY
@given(cases())
def test_recording_changes_no_result(case):
    plan, noise, cols = case
    bare = propagate_matrix(plan, cols, noise)
    rec = propagate_matrix(plan, cols, noise, record_populations=True)
    assert np.array_equal(rec.final_state, bare.final_state)
    assert np.array_equal(rec.norm_loss, bare.norm_loss)
    assert rec.time_integrated_rydberg == bare.time_integrated_rydberg


@PROPERTY
@given(cases(), st.complex_numbers(max_magnitude=0.5), st.complex_numbers(max_magnitude=0.5))
def test_propagation_is_linear_in_the_columns(case, a, b):
    plan, noise, cols = case
    batch = np.column_stack([cols, a * cols[:, 0] + b * cols[:, 1]])
    out = propagate_matrix(plan, batch, noise).final_state
    assert np.max(np.abs(out[:, 2] - (a * out[:, 0] + b * out[:, 1]))) < 1e-12
    for j in range(2):  # a column propagates the same alone as in a batch
        assert np.max(np.abs(propagate_matrix(plan, cols[:, j:j + 1], noise).final_state[:, 0] - out[:, j])) < 1e-12


@settings(PROPERTY, max_examples=100)
@given(cases(decay=False))
def test_decay_free_identity_batch_matches_dense_oracle(case):
    # over every basis column, time-dependent groups of several blocks or
    # clusters take the chunk product and read the trapezoid of P_r off its
    # virtual-decay derivative
    plan, noise, _ = case
    cols = np.eye(plan.basis.dim)
    res = propagate_matrix(plan, cols, noise)
    psi, _, exposure, _ = _dense_oracle(plan, cols, noise)
    assert np.max(np.abs(res.final_state - psi)) < 1e-12
    assert abs(res.time_integrated_rydberg - exposure) <= 1e-12 * abs(exposure)


@PROPERTY
@given(cases(decay=False))
def test_undriven_atoms_keep_their_level_populations(case):
    # H is diagonal in the levels of an atom that no drive of the stage names
    # (frame, interaction, Doppler and truncation terms all are)
    plan, noise, cols = case
    res = propagate_matrix(plan, cols, noise, record_populations=True)
    # without decay both exposures are a trapezoid of P_r: 8.1e-15 relative apart at worst over 200 examples
    exposure = _dense_oracle(plan, cols, noise)[2]
    assert abs(res.time_integrated_rydberg - exposure) <= 1e-12 * abs(exposure)
    basis = plan.basis
    start = 0
    for stage in plan.stages:
        n = _stage_steps(stage, plan.policy)
        pops = res.population_traj[start:start + n + 1]  # the stage's start and its step ends
        driven = {d.atom for d in stage.spec.drives}
        for atom, levels in enumerate(basis.level_arrays()):
            if atom not in driven:
                per_level = np.einsum("sdc,dl->slc", pops, np.equal.outer(levels, np.arange(levels.max() + 1)))
                assert np.max(np.abs(per_level - per_level[0])) < 1e-12
        start += n
