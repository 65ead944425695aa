"""Form factors, dilation, grids, Hamiltonian assembly."""

import math

import numpy as np
import pytest

from spinboson import (
    ConfigError,
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    coupling_amplitudes,
    form_factor,
    interaction_norm_bound,
    shell_norm_report,
)
from spinboson.fock import build_field_operator, field_energy_diagonal

from sectors import spectrum


# Closed forms of the form factor, kept as oracles for the grid amplitudes.


def dilated_form_factor(k, cfg, theta=None):
    """Analytic continuation of the form factor along the dilation orbit.

    At theta = 0 this equals form_factor; at real theta it is the unitary
    dilation image exp(-3 theta / 2) f(exp(-theta) k).
    """
    theta = cfg.theta if theta is None else theta
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr <= 0.0):
        raise ValueError("form factor is defined for k > 0 only")
    pref = np.exp(-theta * (1.0 + cfg.mu))
    gauss = np.exp(-np.exp(-2.0 * theta) * k_arr**2 / cfg.lambda_uv**2)
    val = pref * gauss * k_arr ** (cfg.mu - 0.5)
    return complex(val) if np.isscalar(k) else val


def radial_reduction(cfg):
    """S-wave coupling profile F(r) = sqrt(4 pi) r f(r) as a callable.

    F carries the full interaction: |F|^2 integrated over (0, inf) equals
    the L2(R^3) norm squared of the form factor.
    """

    def profile(r):
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0.0):
            raise ValueError("radial profile is defined for r > 0 only")
        vals = np.sqrt(4.0 * math.pi) * r_arr ** (0.5 + cfg.mu) * np.exp(
            -(r_arr**2) / cfg.lambda_uv**2
        )
        return float(vals) if np.isscalar(r) else vals

    return profile


def form_factor_l2_norm_sq(cfg) -> float:
    """Closed form of the squared L2(R^3) norm of the form factor.

    Integrating 4 pi r^(1 + 2 mu) exp(-2 r^2 / Lambda^2) gives
    2 pi (Lambda^2 / 2)^(1 + mu) Gamma(1 + mu).
    """
    return (
        2.0 * math.pi * (cfg.lambda_uv**2 / 2.0) ** (1.0 + cfg.mu)
        * math.gamma(1.0 + cfg.mu)
    )


def kron_hamiltonian(cfg, field):
    """Independent route: the full-grid operator as explicit Kronecker products."""
    basis = field.basis_for_scale(None)
    c = coupling_amplitudes(cfg, basis.modes)
    phi = build_field_operator(basis, c)
    E = field_energy_diagonal(basis)
    return (
        np.kron(np.diag([cfg.e1, cfg.e0]), np.eye(basis.dim))
        + np.kron(np.eye(2), np.exp(-cfg.theta) * np.diag(E.astype(complex)))
        + cfg.g * np.kron(np.array([[0, 1], [1, 0]]), phi)
    )


class TestModelConfig:
    def test_mu_window(self):
        with pytest.raises(ConfigError, match="mu"):
            ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.6, g=0.0, theta=0.2j)
        with pytest.raises(ConfigError, match="mu"):
            ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.0, g=0.0, theta=0.2j)

    def test_theta_floor(self):
        with pytest.raises(ConfigError, match="Im theta"):
            ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.0, theta=0.05j,
                        nu_floor=0.1)

    def test_theta_real_window(self):
        with pytest.raises(ConfigError, match="Re theta"):
            ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.0,
                        theta=-0.01 + 0.2j)

    def test_ground_level_pinned(self):
        with pytest.raises(ConfigError, match="e0"):
            ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.0, theta=0.2j,
                        e0=0.1)

    def test_cone_divisor(self):
        with pytest.raises(ConfigError, match="m"):
            ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.0, theta=0.2j,
                        m_cone=3)


class TestCutoffLadder:
    def test_geometric_values(self):
        lad = CutoffLadder(0.25, 0.5, e1=1.0)
        assert lad.cutoff(0) == 0.25
        assert lad.cutoff(3) == pytest.approx(0.03125)

    def test_rho0_window_closed_at_quarter_gap(self):
        CutoffLadder(0.25, 0.5, e1=1.0)  # equality allowed
        with pytest.raises(ConfigError, match="rho0"):
            CutoffLadder(0.26, 0.5, e1=1.0)
        with pytest.raises(ConfigError, match="rho"):
            CutoffLadder(0.25, 1.0, e1=1.0)


class TestFormFactor:
    def test_gaussian_point(self, cfg):
        assert form_factor(1.0, cfg) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_power_times_gaussian(self, cfg):
        assert form_factor(2.0, cfg) == pytest.approx(
            np.exp(-4.0) * 2.0 ** (-0.25), rel=1e-12
        )

    def test_uv_limit_leaves_power(self):
        cfg = ModelConfig(e1=1.0, lambda_uv=1e8, mu=0.25, g=0.0, theta=0.2j)
        assert form_factor(2.0, cfg) == pytest.approx(2.0 ** (-0.25), rel=1e-10)

    def test_domain_error(self, cfg):
        with pytest.raises(ValueError):
            form_factor(0.0, cfg)
        with pytest.raises(ValueError):
            form_factor(-1.0, cfg)


class TestDilatedFormFactor:
    def test_theta_zero_matches(self, cfg):
        for k in (0.3, 1.0, 2.5):
            assert dilated_form_factor(k, cfg, theta=0.0) == pytest.approx(
                form_factor(k, cfg), rel=1e-14
            )

    def test_real_theta_real_value(self, cfg):
        val = dilated_form_factor(1.3, cfg, theta=0.2)
        assert val.imag == 0.0

    def test_arbitrary_precision_oracle(self, cfg):
        # independent high-precision evaluation of the continued formula
        import mpmath as mp

        mp.mp.dps = 50
        theta = mp.mpc(0, "0.1")
        k = mp.mpf(1)
        mu = mp.mpf("0.25")
        expected = mp.e ** (-theta * (1 + mu)) * mp.e ** (
            -mp.e ** (-2 * theta) * k**2
        ) * k ** (mu - mp.mpf("0.5"))
        got = dilated_form_factor(1.0, cfg, theta=0.1j)
        assert got.real == pytest.approx(float(expected.real), abs=1e-15)
        assert got.imag == pytest.approx(float(expected.imag), abs=1e-15)

    def test_vectorized(self, cfg):
        ks = np.array([0.5, 1.0, 2.0])
        vals = dilated_form_factor(ks, cfg)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(dilated_form_factor(1.0, cfg))


class TestRadialReduction:
    def test_norm_closed_form_value(self, cfg):
        # 2 pi (1/2)^1.25 Gamma(1.25)
        from scipy.special import gamma

        expected = 2.0 * np.pi * 0.5**1.25 * gamma(1.25)
        assert form_factor_l2_norm_sq(cfg) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(2.3945, abs=1e-3)

    def test_quadrature_converges_to_closed_form(self):
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.49, g=0.0, theta=0.2j)
        lad = CutoffLadder(0.25, 0.5, e1=1.0)
        field = DiscretizedField(
            lad, n_scales=24, points_per_shell=8, r_max=7.0, n_max=1,
            uv_points_per_panel=16,
        )
        profile = radial_reduction(cfg)
        r, w = field.grid.frequencies, field.grid.weights
        quad = float(np.sum(w * profile(r) ** 2))
        assert field.grid.n_modes < 450
        assert quad == pytest.approx(form_factor_l2_norm_sq(cfg), rel=1e-8)

    def test_small_r_prefactor(self, cfg):
        profile = radial_reduction(cfg)
        r = 1e-8
        assert profile(r) / r ** (0.5 + cfg.mu) == pytest.approx(
            np.sqrt(4 * np.pi), rel=1e-10
        )

    def test_amplitudes_square_sum_to_norm(self, cfg, ladder):
        field = DiscretizedField(
            ladder, n_scales=18, points_per_shell=8, r_max=6.0, n_max=1,
            uv_points_per_panel=12,
        )
        c = coupling_amplitudes(cfg, field.grid, theta=0.0)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(
            form_factor_l2_norm_sq(cfg), rel=1e-6
        )


class TestDiscretizedField:
    def test_shells_tile_disjointly(self, ladder):
        field = DiscretizedField(ladder, 4, points_per_shell=3, r_max=4.0)
        g = field.grid
        for k in range(1, 5):
            lo, hi = g.shell_bounds[k]
            sel = g.frequencies[g.labels == k]
            assert np.all((sel >= lo) & (sel <= hi))
            assert lo == pytest.approx(ladder.cutoff(k))
            assert hi == pytest.approx(ladder.cutoff(k - 1))

    def test_scale_restriction_is_exact_subset(self, ladder):
        field = DiscretizedField(ladder, 4, points_per_shell=3, r_max=4.0)
        fine = field.modes_for_scale(4)
        coarse = field.modes_for_scale(2)
        assert set(coarse.frequencies).issubset(set(fine.frequencies))
        assert np.all(coarse.frequencies >= ladder.cutoff(2))

    def test_embedding_round_trip(self, ladder):
        field = DiscretizedField(ladder, 3, points_per_shell=2, r_max=4.0,
                                 n_max=2, uv_points_per_panel=2)
        emb = field.embedding_indices(2, 3)
        small, big = field.basis_for_scale(2), field.basis_for_scale(3)
        assert len(np.unique(emb)) == small.dim
        # embedded states put zero occupation on the new shell
        new_modes = np.nonzero(big.modes.labels == 3)[0]
        for i in (0, 1, small.dim - 1):
            assert np.all(big.states[emb[i], new_modes] == 0)

    def test_embedding_matches_per_state_loop(self, ladder):
        """The vectorised lookup gives a per-state loop over a tuple map."""
        field = DiscretizedField(ladder, 3, points_per_shell=2, r_max=4.0,
                                 n_max=3, uv_points_per_panel=2)
        for n_small in range(1, 4):
            for n_big in range(n_small, 4):
                small = field.basis_for_scale(n_small)
                big = field.basis_for_scale(n_big)
                index = {tuple(s): i for i, s in enumerate(big.states.tolist())}
                pos = np.searchsorted(big.modes.frequencies, small.modes.frequencies)
                expected = []
                for occ in small.states:
                    full = np.zeros(big.modes.n_modes, dtype=np.int64)
                    full[pos] = occ
                    expected.append(index[tuple(full.tolist())])
                emb = field.embedding_indices(n_small, n_big)
                assert emb.dtype == np.int64
                assert np.array_equal(emb, expected)

    def test_scaled_field_consistent(self, ladder):
        field = DiscretizedField(ladder, 2, points_per_shell=2, r_max=4.0)
        s = field.scaled(np.exp(0.1))
        assert np.allclose(
            s.grid.frequencies, np.exp(0.1) * field.grid.frequencies
        )


class TestAssembly:
    def test_free_hermitian_spectrum(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field, theta=0.0, g=0.0)
        E = field_energy_diagonal(small_field.basis_for_scale(None))
        expected = np.concatenate([cfg.e1 + E, cfg.e0 + E])
        assert np.allclose(np.sort(spectrum(H).real), np.sort(expected))

    def test_free_rotated_spectrum(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field, g=0.0)
        E = field_energy_diagonal(small_field.basis_for_scale(None))
        expected = np.concatenate(
            [cfg.e1 + np.exp(-cfg.theta) * E, cfg.e0 + np.exp(-cfg.theta) * E]
        )
        order = np.lexsort((expected.imag, expected.real))
        assert np.allclose(spectrum(H), expected[order])

    def test_assembly_matches_kron_construction(self):
        # independent route: explicit kron of atom and field factors
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.2, theta=0.2j)
        lad = CutoffLadder(0.25, 0.5, e1=1.0)
        field = DiscretizedField(lad, 2, points_per_shell=2, r_max=4.0,
                                 n_max=2, uv_points_per_panel=2)
        H = assemble_hamiltonian(cfg, field).to_dense()
        assert np.max(np.abs(H - kron_hamiltonian(cfg, field))) < 1e-15

    def test_single_mode_secular_oracle(self):
        """One coupled mode, n_max = 1, theta = 0: hand-solved quadratics."""
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.3, theta=0.2j)
        lad = CutoffLadder(0.25, 0.5, e1=1.0)
        field = DiscretizedField(lad, 1, points_per_shell=1, r_max=0.45,
                                 n_max=1, uv_points_per_panel=1)
        basis = field.basis_for_scale(None)
        modes = basis.modes
        assert modes.n_modes == 2
        c = coupling_amplitudes(cfg, modes, theta=0.0)
        # zero the second mode's coupling: exact single-mode model
        phi = build_field_operator(basis, c * np.array([1.0, 0.0]))
        E = field_energy_diagonal(basis)
        dense = (
            np.kron(np.diag([cfg.e1, cfg.e0]), np.eye(basis.dim))
            + np.kron(np.eye(2), np.diag(E.astype(complex)))
            + cfg.g * np.kron(np.array([[0, 1], [1, 0]]), phi)
        )
        w = np.linalg.eigvals(dense)
        omega1, omega2 = modes.frequencies
        gc = cfg.g * c[0]

        def secular_pair(a, b):
            mean, half = (a + b) / 2, (a - b) / 2
            rad = np.sqrt(half**2 + gc**2)
            return [mean + rad, mean - rad]

        # coupled blocks {e1 (x) vac, e0 (x) 1_1} and {e1 (x) 1_1, e0 (x) vac};
        # the uncoupled mode-2 states stay at their free positions
        expected = (
            secular_pair(cfg.e1, cfg.e0 + omega1)
            + secular_pair(cfg.e1 + omega1, cfg.e0)
            + [cfg.e0 + omega2, cfg.e1 + omega2]
        )
        got = np.sort_complex(w)
        want = np.sort_complex(np.array(expected, dtype=complex))
        assert np.allclose(got, want, atol=1e-12)

    def test_conjugation_symmetry(self, small_field):
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05 + 0.02j,
                          theta=0.01 + 0.2j)
        H = assemble_hamiltonian(cfg, small_field)
        Hc = assemble_hamiltonian(
            cfg, small_field, theta=np.conj(cfg.theta), g=np.conj(cfg.g),
        )
        assert np.max(np.abs(Hc.to_dense() - H.to_dense().conj().T)) < 1e-15

    def test_dense_blocked_agree(self, cfg, small_field):
        # the sector blocks reassemble into the Kronecker-product operator
        Hb = assemble_hamiltonian(cfg, small_field)
        assert np.max(np.abs(kron_hamiltonian(cfg, small_field) - Hb.to_dense())) == 0.0

    def test_top_layer_is_diagonal_and_couples_one_layer_down(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field)
        totals = small_field.basis_for_scale(None).totals
        n_max = small_field.n_max
        for sector in H.sectors.values():
            block, top = sector.block, sector.top
            layer = totals[sector.indices % len(totals)]
            assert np.array_equal(top, np.nonzero(layer == n_max)[0])
            tt = block[np.ix_(top, top)]
            assert np.max(np.abs(tt - np.diag(np.diag(tt)))) == 0.0
            rest = np.nonzero(layer < n_max - 1)[0]
            assert np.max(np.abs(block[np.ix_(top, rest)])) == 0.0
            assert np.max(np.abs(block[np.ix_(rest, top)])) == 0.0

    def test_nesting_identity(self, cfg, ladder):
        """Step n+1 with new-shell coupling zeroed = step n + shell energy."""
        field = DiscretizedField(ladder, 3, points_per_shell=2, r_max=4.0,
                                 n_max=2, uv_points_per_panel=2)
        H_small = assemble_hamiltonian(cfg, field, n=2).to_dense()
        H_tilde = assemble_hamiltonian(
            cfg, field, n=3, interaction_scale=2
        ).to_dense()
        emb = field.embedding_indices(2, 3)
        dim_small = field.basis_for_scale(2).dim
        dim_big = field.basis_for_scale(3).dim
        glob = np.concatenate([emb, dim_big + emb])
        sub = H_tilde[np.ix_(glob, glob)]
        # on the embedded block the shell energy vanishes (vacuum occupation)
        assert np.max(np.abs(sub - H_small)) < 1e-14
        # no coupling out of the embedded block beyond the zeroed shell
        comp = np.setdiff1d(np.arange(2 * dim_big), glob)
        coupling_out = H_tilde[np.ix_(comp, glob)]
        E_new = field_energy_diagonal(field.basis_for_scale(3))
        # rows in the complement differ only through diagonal shell energy
        assert np.max(np.abs(coupling_out)) == 0.0

    def test_dilation_covariance_identity(self, cfg, ladder):
        """H at theta + beta on grid G equals H at theta on exp(-beta) G."""
        field = DiscretizedField(ladder, 2, points_per_shell=3, r_max=4.0,
                                 n_max=2, uv_points_per_panel=3)
        beta = 0.1
        A = assemble_hamiltonian(cfg, field, theta=cfg.theta + beta).to_dense()
        B = assemble_hamiltonian(
            cfg, field.scaled(np.exp(-beta)), theta=cfg.theta
        ).to_dense()
        assert np.max(np.abs(A - B)) < 1e-13 * np.max(np.abs(A))

    def test_interaction_cutoff_requires_valid_scale(self, cfg, small_field):
        from spinboson.errors import AssemblyError

        with pytest.raises(AssemblyError):
            assemble_hamiltonian(cfg, small_field, n=2, interaction_scale=3)


class TestInteractionBounds:
    def test_relative_bound_holds(self, cfg, small_field):
        basis = small_field.basis_for_scale(None)
        rep = interaction_norm_bound(cfg, basis)
        assert rep["pass"]
        assert rep["lhs"] <= rep["rhs"]

    def test_zero_coupling_profile(self, ladder):
        cfg = ModelConfig(e1=1.0, lambda_uv=1e-6, mu=0.25, g=0.0, theta=0.2j)
        field = DiscretizedField(ladder, 2, points_per_shell=2, r_max=4.0,
                                 n_max=1, uv_points_per_panel=2)
        rep = interaction_norm_bound(cfg, field.basis_for_scale(None))
        # a tiny UV scale kills the profile on the grid: both sides near zero
        assert rep["lhs"] <= rep["rhs"] + 1e-12

    def test_shell_norm_envelopes(self, cfg, ladder):
        field = DiscretizedField(ladder, 4, points_per_shell=8, r_max=4.0,
                                 n_max=1)
        for n in range(0, 4):
            rep = shell_norm_report(cfg, field, n)
            assert rep["pass"], rep
