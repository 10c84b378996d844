import math

import numpy as np
import pytest

from rydswap.basis import LevelScheme, build_basis, qubit_scheme


def test_counting_two_atoms_three_levels():
    basis = build_basis([qubit_scheme()] * 2)
    assert basis.dim == 9
    labels = [basis.labels_of(i) for i in basis.comp_indices]
    assert labels == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_counting_three_atoms():
    basis = build_basis([qubit_scheme()] * 3)
    assert basis.dim == 27
    assert len(basis.comp_indices) == 8
    assert basis.labels_of(basis.comp_indices[0]) == ("0", "0", "0")
    assert basis.labels_of(basis.comp_indices[-1]) == ("1", "1", "1")


def test_counting_four_target_multiplex_geometry():
    control = qubit_scheme(("rP", "rD"))
    basis = build_basis([control] + [qubit_scheme()] * 4)
    assert basis.dim == 4 * 81 == 324
    assert len(basis.comp_indices) == 32


def test_index_examples():
    basis = build_basis([qubit_scheme()] * 2)
    assert basis.index_of(("0", "0")) == 0
    assert basis.index_of(("r", "r")) == 8
    basis3 = build_basis([qubit_scheme()] * 3)
    assert basis3.index_of(("1", "0", "r")) == 1 * 9 + 0 * 3 + 2


def test_index_roundtrip_random_basis():
    rng = np.random.default_rng(42)
    for _ in range(5):
        schemes = []
        for _ in range(rng.integers(1, 4)):
            n_ryd = int(rng.integers(1, 3))
            schemes.append(qubit_scheme(tuple(f"r{k}" for k in range(n_ryd))))
        basis = build_basis(schemes)
        for i in rng.integers(0, basis.dim, size=20):
            assert basis.index_of(basis.labels_of(int(i))) == int(i)


def test_comp_indices_increasing_and_logical():
    basis = build_basis([qubit_scheme(("r",)), qubit_scheme(("rP", "rD"))])
    comp = basis.comp_indices
    assert all(a < b for a, b in zip(comp, comp[1:]))
    for i in comp:
        labels = basis.labels_of(i)
        assert all(lab in ("0", "1") for lab in labels)
    # a third logical level is not a qubit level; the bits keep their order
    four = LevelScheme(("0", "1", "p", "r"), (False, False, False, True))
    basis = build_basis([four, qubit_scheme(("rP", "rD")), four])
    bits = [format(k, "03b") for k in range(8)]
    assert basis.comp_indices == tuple(basis.index_of(tuple(b)) for b in bits)


def test_scheme_validation():
    with pytest.raises(ValueError):
        LevelScheme(("0",), (False,))
    with pytest.raises(ValueError):
        LevelScheme(("0", "1", "r"), (False, False))
    for rate in (-0.1, math.nan, math.inf):  # the basis's one Rydberg decay rate
        with pytest.raises(ValueError, match="decay_rate"):
            build_basis([qubit_scheme()] * 2, rate)
    with pytest.raises(ValueError):
        build_basis([])
    with pytest.raises(KeyError):
        build_basis([qubit_scheme()]).index_of(("q",))


def test_matrix_products_match_naive_loops():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    mm = np.zeros((5, 5), dtype=complex)
    mv = np.zeros(5, dtype=complex)
    for i in range(5):
        for j in range(5):
            mv[i] += a[i, j] * v[j]
            for k in range(5):
                mm[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(a @ b - mm)) / np.max(np.abs(mm)) < 1e-12
    assert np.max(np.abs(a @ v - mv)) / np.max(np.abs(mv)) < 1e-12


def test_rydberg_and_decay_diagonals():
    basis = build_basis([qubit_scheme()] * 2, 0.25)
    ryd = basis.rydberg_projector_diagonal()
    assert ryd[basis.index_of(("r", "r"))] == 2.0
    assert ryd[basis.index_of(("0", "1"))] == 0.0
    dec = basis.decay_diagonal()
    assert dec[basis.index_of(("r", "1"))] == pytest.approx(0.25)
    assert dec[basis.index_of(("r", "r"))] == pytest.approx(0.5)


def test_level_arrays_built_once_read_only():
    four = LevelScheme(("0", "1", "p", "r"), (False, False, False, True))
    basis = build_basis([qubit_scheme(("r",)), four, qubit_scheme(("r", "s"))])
    first, second = basis.level_arrays(), basis.level_arrays()
    assert len(first) == basis.n_atoms
    assert all(a is b and not a.flags.writeable for a, b in zip(first, second))
    for index in range(basis.dim):
        labels = basis.labels_of(index)
        assert [s.labels[lv[index]] for s, lv in zip(basis.schemes, first)] == list(labels)
    assert basis == build_basis(basis.schemes) and hash(basis) == hash(build_basis(basis.schemes))
