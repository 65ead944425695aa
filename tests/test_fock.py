"""Occupation bases, ladder operators, commutators, relative bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson import (
    AssemblyError,
    BasisSizeError,
    CutoffLadder,
    DiscretizedField,
    ModeSet,
    basis_dimension,
    build_field_operator,
    enumerate_basis,
    verify_standard_estimates,
)
from spinboson import fock
from spinboson.fock import field_energy_diagonal


# Dense full-space oracles built straight from the lowering matrix elements.


def build_field_energy(basis) -> np.ndarray:
    """Diagonal field energy: entry sum_j n_j omega_j per occupation state."""
    return np.diag(field_energy_diagonal(basis).astype(complex))


def build_annihilation(basis, coeffs) -> np.ndarray:
    """Matrix of a(h) for amplitude vector h over the modes (antilinear)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    assert coeffs.shape == (basis.modes.n_modes,)
    rows, cols, mode_ix, amps = basis.lowering_triples()
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.add.at(mat, (rows, cols), np.conj(coeffs[mode_ix]) * amps)
    return mat


def build_creation(basis, coeffs) -> np.ndarray:
    """Matrix of a(h)*, the adjoint of a(h) on the truncated space."""
    return build_annihilation(basis, coeffs).conj().T


def verify_ccr(basis, h, l) -> float:
    """Max-entry residual of [a(h), a*(l)] - <h,l> restricted below the cutoff.

    The commutator is exact on states with total number <= n_max - 1; the
    top shell is where truncation necessarily breaks it, so that sector is
    excluded from the residual.
    """
    if basis.n_max < 1:
        raise ValueError("canonical commutator needs n_max >= 1")
    a_h = build_annihilation(basis, h)
    c_l = build_creation(basis, l)
    comm = a_h @ c_l - c_l @ a_h
    inner = complex(np.vdot(np.asarray(h, dtype=complex), np.asarray(l, dtype=complex)))
    resid = comm - inner * np.eye(basis.dim)
    keep = np.nonzero(basis.totals <= basis.n_max - 1)[0]
    return float(np.max(np.abs(resid[np.ix_(keep, keep)])))


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


def occupation(basis, i: int) -> tuple:
    return tuple(int(x) for x in basis.states[i])


def index_of(basis, occ) -> int:
    return int(basis.indices_of([occ])[0])


# The recursive enumeration, the tuple-keyed index map and the per-state
# lowering loop that the array routes replaced, kept as oracles.


def recursive_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle_states(n_modes: int, n_max: int) -> list:
    return [
        s for total in range(n_max + 1) for s in recursive_compositions(total, n_modes)
    ]


def oracle_lowering(states: list) -> tuple:
    index = {s: i for i, s in enumerate(states)}
    rows, cols, mode_ix, amps = [], [], [], []
    for col, occ in enumerate(states):
        for j in np.nonzero(occ)[0]:
            lowered = list(occ)
            lowered[j] -= 1
            rows.append(index[tuple(lowered)])
            cols.append(col)
            mode_ix.append(j)
            amps.append(np.sqrt(float(occ[j])))
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(mode_ix, dtype=np.int64),
        np.array(amps, dtype=float),
    )


def assert_matches_oracles(basis) -> None:
    states = oracle_states(basis.modes.n_modes, basis.n_max)
    assert basis.states.dtype == np.int32
    assert np.array_equal(basis.states, np.array(states, dtype=np.int32))
    for got, want in zip(basis.lowering_triples(), oracle_lowering(states)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEnumerateBasis:
    def test_single_mode_ladder(self):
        basis = enumerate_basis(modes_of([1.0]), 2)
        assert basis.dim == 3
        assert [occupation(basis, i) for i in range(3)] == [(0,), (1,), (2,)]

    def test_vacuum_sector(self):
        basis = enumerate_basis(modes_of([1.0, 2.0, 3.0]), 0)
        assert basis.dim == 1
        assert occupation(basis, 0) == (0, 0, 0)

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
        assert np.array_equal(basis.indices_of(basis.states), np.arange(basis.dim))
        assert len(np.unique(basis.states, axis=0)) == basis.dim

    def test_sorted_by_total_then_lex(self):
        basis = enumerate_basis(modes_of([1.0, 2.0]), 2)
        keys = [(sum(occupation(basis, i)), occupation(basis, i))
                for i in range(basis.dim)]
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

    @pytest.mark.parametrize("m", range(1, 7))
    def test_states_and_lowering_match_oracles(self, m):
        """Layer arrays and one lookup give the recursive route's states and
        its per-state lowering triples exactly, order included."""
        modes = modes_of(np.arange(1.0, m + 1.0))
        for n_max in range(5):
            assert_matches_oracles(enumerate_basis(modes, n_max))

    def test_readme_grid_scale_matches_oracles(self):
        field = DiscretizedField(CutoffLadder(0.25, 0.5, e1=1.0), 6,
                                 points_per_shell=8, r_max=4.0, n_max=2)
        basis = field.basis_for_scale(6)
        assert basis.dim == 2145
        assert_matches_oracles(basis)


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
        i = index_of(basis, (2, 1))
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
        expected[0, index_of(basis, (1, 0))] = 1.0  # conj(1)
        expected[0, index_of(basis, (0, 1))] = -1.0j  # conj(i)
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


def layer_svd_norms(basis, hs) -> tuple[np.ndarray, np.ndarray]:
    """Both norms of every row of ``hs`` by stacked SVDs of the layer blocks."""
    rows, cols, mode_ix, amps = basis.lowering_triples()
    totals = basis.totals
    scale = 1.0 / np.sqrt(field_energy_diagonal(basis) + 1.0)
    starts = np.searchsorted(totals, np.arange(basis.n_max + 2))
    lhs_a, lhs_astar = np.zeros(len(hs)), np.zeros(len(hs))
    for n in range(1, basis.n_max + 1):
        sel = totals[cols] == n
        lo, hi = rows[sel] - starts[n - 1], cols[sel] - starts[n]
        shape = (starts[n] - starts[n - 1], starts[n + 1] - starts[n])
        coef = hs[:, mode_ix[sel]]
        block = np.zeros((len(hs),) + shape, dtype=complex)
        block[:, lo, hi] = coef.conj() * amps[sel] * scale[cols[sel]]
        lhs_a = np.maximum(lhs_a, np.linalg.svd(block, compute_uv=False)[:, 0])
        block = np.zeros((len(hs),) + shape[::-1], dtype=complex)
        block[:, hi, lo] = coef * amps[sel] * scale[rows[sel]]
        lhs_astar = np.maximum(lhs_astar, np.linalg.svd(block, compute_uv=False)[:, 0])
    return lhs_a, lhs_astar


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
        # the largest per-vector temporary at (6 modes, n_max 3) is the 21 x 21
        # Gram matrix on layer 2 (216 scattered pairs)
        gen = np.random.default_rng(5)
        basis = enumerate_basis(modes_of(np.sort(gen.uniform(0.05, 3.0, 6))), 3)
        hs = random_amplitudes(gen, 10, 6)
        whole = verify_standard_estimates(basis, hs)
        monkeypatch.setattr(fock, "_STACK_BYTES", blocks_per_stack * 21 * 21 * 16)
        chunked = verify_standard_estimates(basis, hs)
        for key in whole:
            assert np.array_equal(chunked[key], whole[key])

    def test_gram_route_matches_layer_svds(self):
        """On the verify-appendix mode sets, 2,000 trials each."""
        gen = np.random.default_rng(0)
        for n_modes, n_max in [(4, 2), (6, 3), (8, 2)]:
            basis = enumerate_basis(
                modes_of(np.sort(gen.uniform(0.05, 3.0, n_modes))), n_max
            )
            hs = random_amplitudes(gen, 2000, n_modes)
            rep = verify_standard_estimates(basis, hs)
            lhs_a, lhs_astar = layer_svd_norms(basis, hs)
            assert np.all(np.abs(rep["lhs_a"] - lhs_a) <= 1e-13 * lhs_a)
            assert np.all(np.abs(rep["lhs_astar"] - lhs_astar) <= 1e-13 * lhs_astar)
            assert np.all(rep["pass"])

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
