"""Occupation bases, ladder operators, commutators, relative bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson import (
    AssemblyError,
    BasisSizeError,
    ModeSet,
    basis_dimension,
    build_annihilation,
    build_creation,
    build_field_energy,
    build_field_operator,
    enumerate_basis,
    verify_ccr,
    verify_standard_estimates,
)
from spinboson import fock
from spinboson.fock import field_energy_diagonal


def modes_of(freqs, weights=None):
    freqs = np.asarray(freqs, dtype=float)
    w = np.ones_like(freqs) if weights is None else np.asarray(weights, float)
    return ModeSet(freqs, w, np.zeros(len(freqs), dtype=int))


def brute_force_count(n_modes: int, n_max: int) -> int:
    """Exhaustive enumeration oracle for the basis dimension."""
    count = 0
    for occ in itertools.product(range(n_max + 1), repeat=n_modes):
        if sum(occ) <= n_max:
            count += 1
    return count


def recursive_count(n_modes: int, budget: int) -> int:
    if n_modes == 0:
        return 1
    return sum(recursive_count(n_modes - 1, budget - k) for k in range(budget + 1))


class TestEnumerateBasis:
    def test_single_mode_ladder(self):
        basis = enumerate_basis(modes_of([1.0]), 2)
        assert basis.dim == 3
        assert [basis.state(i) for i in range(3)] == [(0,), (1,), (2,)]

    def test_vacuum_sector(self):
        basis = enumerate_basis(modes_of([1.0, 2.0, 3.0]), 0)
        assert basis.dim == 1
        assert basis.state(0) == (0, 0, 0)

    def test_three_modes_two_bosons(self):
        basis = enumerate_basis(modes_of([1.0, 2.0, 3.0]), 2)
        assert basis.dim == 10  # 1 + 3 + 6
        assert basis.dim == brute_force_count(3, 2)

    def test_counts_match_recursive_oracle(self):
        for m in range(1, 7):
            for n_max in range(5):
                freqs = np.arange(1.0, m + 1.0)
                assert basis_dimension(m, n_max) == recursive_count(m, n_max)
                assert enumerate_basis(modes_of(freqs), n_max).dim == (
                    brute_force_count(m, n_max)
                )

    def test_index_maps_are_inverse_bijections(self):
        basis = enumerate_basis(modes_of([0.5, 1.0, 2.0]), 3)
        for i in range(basis.dim):
            assert basis.index_of(basis.state(i)) == i
        assert len(basis.index) == basis.dim

    def test_sorted_by_total_then_lex(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        keys = [(sum(basis.state(i)), basis.state(i)) for i in range(basis.dim)]
        assert keys == sorted(keys)

    def test_size_cap_refused_with_report(self):
        with pytest.raises(BasisSizeError) as err:
            enumerate_basis(modes_of(np.arange(1.0, 31.0)), 4, state_cap=100)
        assert err.value.requested > 100
        assert "dimension" in str(err.value)

    @given(m=st.integers(1, 5), n_max=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_dimension_property(self, m, n_max):
        assert basis_dimension(m, n_max) == recursive_count(m, n_max)


class TestFieldEnergy:
    def test_vacuum_entry_zero(self):
        basis = enumerate_basis(modes_of([1.3, 2.7]), 2)
        H = build_field_energy(basis)
        assert H[0, 0] == 0.0
        assert np.array_equal(H, H.conj().T)

    def test_single_mode_times_n(self):
        basis = enumerate_basis(modes_of([2.0]), 3)
        H = build_field_energy(basis)
        assert H[3, 3] == pytest.approx(6.0)

    def test_two_mode_sum(self):
        # one boson at omega = 1 plus two at omega = 0.5 carries energy 2
        basis = enumerate_basis(modes_of([0.5, 1.0]), 3)
        i = basis.index_of((2, 1))
        assert build_field_energy(basis)[i, i] == pytest.approx(2.0)

    def test_commutes_with_occupation_projectors(self, rng):
        basis = enumerate_basis(modes_of([0.7, 1.1, 1.9]), 2)
        H = build_field_energy(basis)
        proj = np.diag(rng.integers(0, 2, size=basis.dim).astype(complex))
        assert np.max(np.abs(H @ proj - proj @ H)) == 0.0


class TestLadderOperators:
    def test_zero_coefficients(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        assert np.all(build_annihilation(basis, [0.0, 0.0]) == 0.0)

    def test_single_mode_sqrt_n(self):
        basis = enumerate_basis(modes_of([1.0]), 4)
        a = build_annihilation(basis, [1.0])
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))

    def test_two_mode_hand_computed(self):
        # n_max = 1 over modes (1, i): states vac, (1,0), (0,1)
        basis = enumerate_basis(modes_of([1.0, 2.0]), 1)
        a = build_annihilation(basis, [1.0, 1.0j])
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, basis.index_of((1, 0))] = 1.0  # conj(1)
        expected[0, basis.index_of((0, 1))] = -1.0j  # conj(i)
        assert np.allclose(a, expected)

    def test_creation_is_adjoint(self, rng):
        basis = enumerate_basis(modes_of([0.5, 1.5, 2.5]), 3)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = build_annihilation(basis, h)
        c = build_creation(basis, h)
        assert np.allclose(c, a.conj().T)

    def test_field_operator_combines_both(self, rng):
        basis = enumerate_basis(modes_of([0.5, 1.5]), 2)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = build_field_operator(basis, h)
        expected = (
            build_annihilation(basis, np.conj(h))
            + build_creation(basis, h)
        )
        assert np.allclose(phi, expected)
        assert np.allclose(phi, phi.T)  # complex symmetric


class TestCanonicalCommutator:
    def test_unit_vector_exact(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        assert verify_ccr(basis, [1.0, 0.0], [1.0, 0.0]) < 1e-14

    def test_orthogonal_block_zero(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        assert verify_ccr(basis, [1.0, 0.0], [0.0, 1.0]) < 1e-14

    def test_random_vectors(self, rng):
        freqs = np.sort(rng.uniform(0.2, 3.0, size=4))
        basis = enumerate_basis(modes_of(freqs), 3)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        l = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert verify_ccr(basis, h, l) < 1e-12

    def test_rejects_pure_vacuum(self):
        basis = enumerate_basis(modes_of([1.0]), 0)
        with pytest.raises(ValueError):
            verify_ccr(basis, [1.0], [1.0])

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_ccr_property_random_seeds(self, seed):
        gen = np.random.default_rng(seed)
        basis = enumerate_basis(modes_of([0.3, 1.0, 2.2]), 2)
        h = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        l = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        assert verify_ccr(basis, h, l) < 1e-12


class TestStandardEstimates:
    def test_zero_vector(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        rep = verify_standard_estimates(basis, [0.0, 0.0])
        assert rep["lhs_a"] == 0.0 and rep["lhs_astar"] == 0.0 and rep["pass"]

    def test_single_mode_closed_form(self):
        # |a(h)(H_f+1)^(-1/2)| = max_n sqrt(n/(n+1)) at h = omega = 1
        basis = enumerate_basis(modes_of([1.0]), 5)
        rep = verify_standard_estimates(basis, [1.0])
        assert rep["lhs_a"] == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-12)
        assert rep["lhs_a"] < rep["rhs_a"] == 1.0
        assert rep["pass"]

    def test_hundred_random_vectors(self, rng):
        freqs = np.sort(rng.uniform(0.05, 3.0, size=6))
        basis = enumerate_basis(modes_of(freqs), 2)
        for _ in range(100):
            h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert verify_standard_estimates(basis, h)["pass"]


def dense_standard_norms(basis, h) -> tuple[float, float]:
    """|a(h)(H_f+1)^(-1/2)| and |a(h)*(H_f+1)^(-1/2)| by full-matrix SVDs."""
    a_mat = build_annihilation(basis, h)
    scale = 1.0 / np.sqrt(field_energy_diagonal(basis) + 1.0)
    return tuple(
        float(np.linalg.svd(m * scale[None, :], compute_uv=False)[0])
        for m in (a_mat, a_mat.conj().T)
    )


def random_amplitudes(gen, *shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


class TestLayerBlockedEstimates:
    @pytest.mark.parametrize("n_max", range(4))
    @pytest.mark.parametrize("n_modes", range(1, 9))
    def test_matches_dense_oracle(self, n_modes, n_max):
        gen = np.random.default_rng(10 * n_modes + n_max)
        freqs = np.sort(gen.uniform(0.05, 3.0, n_modes))
        basis = enumerate_basis(modes_of(freqs), n_max)
        hs = random_amplitudes(gen, 7, n_modes)
        stack = verify_standard_estimates(basis, hs)
        assert all(v.shape == (7,) for v in stack.values())
        for i, h in enumerate(hs):
            single = verify_standard_estimates(basis, h)
            assert single == {key: v[i].item() for key, v in stack.items()}
            assert all(type(v) is float for k, v in single.items() if k != "pass")
            assert single["pass"] is True
            if n_max == 0:
                assert single["lhs_a"] == 0.0 and single["lhs_astar"] == 0.0
                continue
            lhs_a, lhs_astar = dense_standard_norms(basis, h)
            assert abs(single["lhs_a"] - lhs_a) <= 1e-12 * lhs_a
            assert abs(single["lhs_astar"] - lhs_astar) <= 1e-12 * lhs_astar

    @pytest.mark.parametrize("blocks_per_stack", [1, 3, 4])
    def test_chunking_does_not_change_rows(self, monkeypatch, blocks_per_stack):
        # the largest layer block at (6 modes, n_max 3) is 21 x 56
        gen = np.random.default_rng(5)
        basis = enumerate_basis(modes_of(np.sort(gen.uniform(0.05, 3.0, 6))), 3)
        hs = random_amplitudes(gen, 10, 6)
        whole = verify_standard_estimates(basis, hs)
        monkeypatch.setattr(fock, "_SVD_STACK_BYTES", blocks_per_stack * 21 * 56 * 16)
        chunked = verify_standard_estimates(basis, hs)
        for key in whole:
            assert np.array_equal(chunked[key], whole[key])

    def test_empty_stack_and_bad_shape(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        rep = verify_standard_estimates(basis, np.zeros((0, 2)))
        assert all(len(v) == 0 for v in rep.values())
        with pytest.raises(AssemblyError, match="n_modes"):
            verify_standard_estimates(basis, np.zeros((2, 3)))
        with pytest.raises(AssemblyError, match="n_modes"):
            verify_standard_estimates(basis, np.zeros((1, 1, 2)))


def test_field_operator_block_is_the_slice(rng):
    for n_modes, n_max in itertools.product((1, 3, 5), range(4)):
        freqs = np.sort(rng.uniform(0.05, 3.0, n_modes))
        basis = enumerate_basis(modes_of(freqs), n_max)
        coeffs = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        coeffs[0] = 0.0
        even = np.nonzero(basis.total_parity > 0)[0]
        odd = np.nonzero(basis.total_parity < 0)[0]
        full = build_field_operator(basis, coeffs)
        for rows, cols in ((even, odd), (odd, even)):
            block = build_field_operator(basis, coeffs, rows, cols)
            assert np.array_equal(block, full[np.ix_(rows, cols)])


def test_mode_set_invariants():
    with pytest.raises(Exception):
        modes_of([1.0, 1.0])  # not strictly increasing
    with pytest.raises(Exception):
        modes_of([-1.0, 1.0])  # nonpositive frequency
    with pytest.raises(Exception):
        ModeSet([1.0], [0.0], [0])  # nonpositive weight
    with pytest.raises(Exception):
        # frequency outside its labelled shell
        ModeSet([1.0], [0.1], [1], shell_bounds={1: (2.0, 3.0)})


def test_mode_set_scaling_preserves_labels():
    m = ModeSet([1.0, 2.0], [0.1, 0.2], [1, 0], shell_bounds={1: (0.5, 1.5), 0: (1.5, 4.0)})
    s = m.scaled(2.0)
    assert np.allclose(s.frequencies, [2.0, 4.0])
    assert np.allclose(s.weights, [0.2, 0.4])
    assert s.shell_bounds[1] == (1.0, 3.0)


def test_field_energy_diagonal_matches_matrix():
    basis = enumerate_basis(modes_of([0.5, 1.25]), 2)
    assert np.allclose(
        np.diag(build_field_energy(basis)).real,
        field_energy_diagonal(basis),
    )
