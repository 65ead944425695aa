"""Eigensolvers, contour projectors, tracking, resolvent norms."""

import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import ArpackNoConvergence

from spinboson import (
    ContourCollisionError,
    ConvergenceError,
    CutoffLadder,
    DegeneracyError,
    DiscretizedField,
    ModelConfig,
    ShiftedSolver,
    SingularShiftError,
    SpectralCensus,
    TrackingError,
    assemble_hamiltonian,
    resolvent_norm,
    resolvent_scan,
    riesz_rank_one,
    run_ladder,
    track_eigenvalue,
)
from spinboson import spectral
from spinboson.spectral import (
    MAX_QUAD_POINTS,
    TOP_LAYER_GUARD,
    rank_two_difference_norm,
    shifted_inverse_eigenvalue,
)

from sectors import one_sector, sector, spectrum


def tiny_model(n_max, g=0.05):
    """(config, field) of a 2-scale, 2-point-per-shell grid."""
    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=g, theta=0.2j)
    field = DiscretizedField(
        CutoffLadder(0.25, 0.5, e1=1.0), 2, points_per_shell=2, r_max=4.0,
        n_max=n_max, uv_points_per_panel=2,
    )
    return cfg, field


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def contour_projector(A, center, radius, nodes=64):
    """Oracle: -(1/2 pi i) oint (A - z)^(-1) dz as a dense trapezoid sum.

    One numpy.linalg.solve per node, independent of the package's solvers.
    """
    A = np.asarray(A, dtype=complex)
    eye = np.eye(len(A))
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    total = sum(
        ph * np.linalg.solve(A - (center + radius * ph) * eye, eye) for ph in phases
    )
    return -radius / nodes * total


def idempotency_defect(P):
    return float(np.linalg.norm(P @ P - P, 2))


class TestEigAll:
    """An operator's spectrum: its sectors' eigenvalues, sorted."""

    def test_diagonal(self):
        w = spectrum(one_sector(np.diag([1.0, 2.0 + 1.0j])))
        assert np.allclose(w, [1.0, 2.0 + 1.0j])

    def test_sorted_lexicographically(self, rng):
        w = spectrum(one_sector(random_matrix(rng, 12)))
        keys = [(z.real, z.imag) for z in w]
        assert keys == sorted(keys)

    def test_blocked_equals_dense(self, cfg, small_field):
        Hb = assemble_hamiltonian(cfg, small_field)
        assert np.allclose(
            spectrum(one_sector(Hb.to_dense())), spectrum(Hb), atol=1e-10
        )

    def test_sector_spectrum_computed_once(self, cfg, small_field, monkeypatch):
        """The census is the sorted union of one eigvals call per sector."""
        H = assemble_hamiltonian(cfg, small_field)
        want = spectrum(H)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a)
        )
        census = SpectralCensus.of(H, cfg, small_field.basis_for_scale(None))
        assert calls == [len(s.indices) for s in H.sectors.values()]
        assert np.array_equal(census.values, want)
        for key, sec in H.sectors.items():
            own = census.values[census.sectors == key]
            assert np.array_equal(own, spectrum(one_sector(sec.block)))


class TestRieszProjection:
    def test_isolated_eigenvalue(self):
        P = contour_projector(np.diag([0.0, 5.0]), center=0.0, radius=1.0)
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-13)
        assert idempotency_defect(P) < 1e-13
        assert round(np.trace(P).real) == 1

    def test_empty_circle(self):
        P = contour_projector(np.diag([0.0, 5.0]), center=2.5, radius=1.0)
        assert np.max(np.abs(P)) < 1e-12
        assert round(np.trace(P).real) == 0

    def test_quadrature_converges_geometrically(self):
        # eigenvalue at 1.3 x radius: residual(2K) ~ residual(K)^2 trendwise
        A = np.diag([0.0, 1.3])
        resids = []
        for quad in (4, 8, 16):
            P = contour_projector(A, center=0.0, radius=1.0, nodes=quad)
            resids.append(max(idempotency_defect(P), 1e-300))
        assert resids[1] < resids[0] ** 2 * 10
        assert resids[2] < resids[1] ** 2 * 10

    def test_free_model_projector_is_atomic(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field, g=0.0)
        radius = 0.25 * 0.03125 * np.sin(cfg.nu)
        P = contour_projector(H.to_dense(), center=cfg.e1, radius=radius)
        dim_f = small_field.basis_for_scale(None).dim
        expected = np.zeros((2 * dim_f, 2 * dim_f))
        expected[0, 0] = 1.0  # excited atom (x) vacuum leads the ordering
        assert np.max(np.abs(P - expected)) < 1e-12

    def test_commutes_with_operator(self, rng):
        A = random_matrix(rng, 10)
        w = np.linalg.eigvals(A)
        target = w[0]
        gap = np.min(np.abs(np.delete(w, 0) - target))
        P = contour_projector(A, center=target, radius=0.4 * gap)
        assert np.linalg.norm(A @ P - P @ A, 2) < 1e-9


class TestRieszRankOne:
    def test_matches_dense_projector(self, rng):
        A = random_matrix(rng, 24)
        w = np.linalg.eigvals(A)
        k = int(np.argmax(np.abs(w - np.mean(w))))
        target = w[k]
        gap = np.min(np.abs(np.delete(w, k) - target))
        dense = contour_projector(A, center=target, radius=0.4 * gap)
        fact = riesz_rank_one(sector(A), center=target, radius=0.4 * gap)
        assert fact.rank == 1
        assert np.linalg.norm(fact.to_dense() - dense, 2) < 1e-8
        assert abs(fact.trace_value - 1.0) < 1e-8

    def test_projects_probe_onto_eigendirection(self, rng):
        A = np.diag([0.0, 2.0, 5.0]).astype(complex)
        fact = riesz_rank_one(sector(A), center=2.0, radius=0.5, probe=np.ones(3))
        v = fact.right[:, 0]
        assert abs(abs(v[1]) - 1.0) < 1e-12

    def test_empty_contour_raises(self, rng):
        A = np.diag([0.0, 5.0]).astype(complex)
        with pytest.raises(TrackingError):
            riesz_rank_one(sector(A), center=2.5, radius=0.5)


class TestTrackEigenvalue:
    def test_free_seed_exact(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field, g=0.0)
        rec = track_eigenvalue(H, SpectralCensus.of(H), seed=cfg.e1, radius=0.01)
        assert rec.lam == pytest.approx(cfg.e1, abs=1e-13)
        assert rec.projector_rank == 1
        assert rec.residual < 1e-10

    def test_small_coupling_shift_bounded(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field)
        rec = track_eigenvalue(H, SpectralCensus.of(H), seed=cfg.e1, radius=0.05)
        # first-scale proximity: |lambda - e1| <= |g| C with C order one
        assert abs(rec.lam - cfg.e1) < 10 * abs(cfg.g)
        assert rec.method_disagreement < 1e-8

    def test_constructed_instance_recovery(self, rng):
        w = np.array([0.3, 1.7 - 0.2j, -2.0 + 0.1j])
        V = random_matrix(rng, 3) + 3 * np.eye(3)
        A = V @ np.diag(w) @ np.linalg.inv(V)
        H = one_sector(A)
        rec = track_eigenvalue(H, SpectralCensus.of(H), seed=1.65 - 0.18j, radius=0.2)
        assert rec.lam == pytest.approx(w[1], abs=1e-10)

    def test_no_candidate(self, rng):
        H = one_sector(np.diag([0.0, 5.0]))
        with pytest.raises(TrackingError):
            track_eigenvalue(H, SpectralCensus.of(H), seed=2.0, radius=0.5)

    def test_ambiguous_candidates(self):
        H = one_sector(np.diag([1.0, 1.1]))
        with pytest.raises(DegeneracyError):
            track_eigenvalue(H, SpectralCensus.of(H), seed=1.05, radius=0.2)


class TestResolventNorm:
    def test_diagonal_distance(self):
        H = one_sector(np.diag([0.0, 1.0]))
        assert resolvent_norm(H, 2.0) == pytest.approx(1.0)

    def test_normal_matrix_identity(self, rng):
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        Q, _ = np.linalg.qr(random_matrix(rng, 6))
        A = Q @ np.diag(w) @ Q.conj().T
        z = 3.0 + 0.5j
        assert resolvent_norm(one_sector(A), z) == pytest.approx(
            1.0 / np.min(np.abs(w - z)), rel=1e-9
        )

    def test_jordan_block_oracle(self):
        # [[0,1],[0,0]] at z = i: direct 2x2 inverse has norm (1+sqrt5)/2
        A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        inv = np.linalg.inv(A - 1j * np.eye(2))
        direct = np.linalg.svd(inv, compute_uv=False)[0]
        assert direct == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)
        assert resolvent_norm(one_sector(A), 1.0j) == pytest.approx(direct, rel=1e-12)

    def test_at_eigenvalue_infinite(self):
        assert resolvent_norm(one_sector(np.diag([0.0, 1.0])), 1.0) == np.inf

    def test_never_below_distance_bound(self, rng):
        A = random_matrix(rng, 8)
        w = np.linalg.eigvals(A)
        for z in (0.5 + 0.5j, -1.0, 2.0j):
            bound = 1.0 / np.min(np.abs(w - z))
            assert resolvent_norm(one_sector(A), z) >= bound - 1e-12

    def test_large_block_iterative_path(self, rng):
        # a block far larger than the svds Krylov space (20 vectors)
        n = 520
        A = np.diag(np.linspace(1.0, 5.0, n)).astype(complex)
        A += 0.01 * random_matrix(rng, n) / np.sqrt(n)
        z = 0.5
        got = resolvent_norm(one_sector(A), z)
        want = 1.0 / np.linalg.svd(A - z * np.eye(n), compute_uv=False)[-1]
        assert got == pytest.approx(want, rel=1e-6)

    def test_projector_sector_must_exist(self):
        # a projector of sector None on an assembled operator
        proj = riesz_rank_one(sector(np.diag([0.0, 1.0, 2.0])), center=0.0, radius=0.5)
        with pytest.raises(KeyError):
            resolvent_norm(assemble_hamiltonian(*tiny_model(1)), 0.5j, proj)


def dense_resolvent_norm(A, z, P=None):
    """Oracle: |(A - z)^(-1) (1 - P)| from one dense solve and a full SVD."""
    eye = np.eye(len(A))
    comp = eye if P is None else eye - P
    return float(np.linalg.norm(np.linalg.solve(A - z * eye, comp), 2))


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("n_max", [0, 1, 2])
    @pytest.mark.parametrize("projected", [False, True])
    @pytest.mark.parametrize("offset", [1e-4, 0.6])
    def test_assembled_operator(self, n_max, projected, offset):
        # offset is |z - lambda| in units of the gap; n_max = 0 gives 1x1
        # sectors, the dense path for blocks below dimension 3
        H = assemble_hamiltonian(*tiny_model(n_max))
        w = spectrum(H)
        lam = w[np.argmin(np.abs(w - 1.0))]
        gap = np.sort(np.abs(w - lam))[1]
        rec = track_eigenvalue(H, SpectralCensus.of(H), seed=lam, radius=0.4 * gap)
        proj = rec.projector
        z = lam + offset * gap * np.exp(0.7j)
        want = max(
            dense_resolvent_norm(
                sec.block, z,
                proj.to_dense() if projected and key == proj.sector else None,
            )
            for key, sec in H.sectors.items()
        )
        got = resolvent_norm(H, z, proj if projected else None)
        assert got == pytest.approx(want, rel=1e-9)


class TestPowerFallback:
    @pytest.fixture(autouse=True)
    def no_arpack(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spectral, "svds", fail)

    def test_residual_stop(self):
        # singular values 1, 1/2, ...: the residual test passes in 16 steps
        H = one_sector(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert resolvent_norm(H, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_cap_raises(self):
        # ratio 1/1.0005^2 between the top two eigenvalues of M needs about
        # 13,700 steps, far above the cap
        with pytest.raises(ConvergenceError):
            resolvent_norm(one_sector(np.diag([1.0, 1.0005, 3.0, 4.0])), 0.0)


class TestResolventScan:
    def test_matches_sequential(self, rng):
        A = one_sector(random_matrix(rng, 6))
        grid = [0.5 + 0.1j * k for k in range(10)]
        scan = resolvent_scan(A, grid)
        assert [z for z, _ in scan] == grid
        for z, val in scan:
            assert val == pytest.approx(resolvent_norm(A, z), rel=1e-12)

    def test_single_point_reduces(self, rng):
        A = one_sector(random_matrix(rng, 5))
        ((z, val),) = resolvent_scan(A, [1.0j])
        assert val == pytest.approx(resolvent_norm(A, 1.0j))

    def test_threaded_matches(self, rng):
        A = one_sector(random_matrix(rng, 6))
        grid = [0.3 * k - 0.2j for k in range(8)]
        assert resolvent_scan(A, grid, jobs=2) == pytest.approx(
            resolvent_scan(A, grid), rel=1e-12
        )


class TestHelpers:
    def test_rank_two_difference_norm(self, rng):
        n = 30
        u1, l1, u2, l2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for _ in range(4))
        dense = np.outer(u1, l1.conj()) - np.outer(u2, l2.conj())
        want = np.linalg.norm(dense, 2)
        assert rank_two_difference_norm(u1, l1, u2, l2) == pytest.approx(want)

    def test_shifted_inverse_iteration(self, rng):
        w = np.array([0.2, 1.5 - 0.3j, 4.0])
        V = random_matrix(rng, 3) + 3 * np.eye(3)
        A = V @ np.diag(w) @ np.linalg.inv(V)
        lam, vec = shifted_inverse_eigenvalue(sector(A), 1.4 - 0.25j)
        assert lam == pytest.approx(w[1], abs=1e-10)
        assert np.linalg.norm(A @ vec - lam * vec) < 1e-9

    def test_projected_resolvent_norm_small(self, rng):
        A = random_matrix(rng, 12)
        w, V = np.linalg.eig(A)
        k = 0
        gap = np.min(np.abs(np.delete(w, k) - w[k]))
        H = one_sector(A)
        proj = riesz_rank_one(H.sectors[0], center=w[k], radius=0.4 * gap, sector=0)
        z = w[k] + 0.01 * gap  # close to the removed pole
        got = resolvent_norm(H, z, proj)
        dense = np.linalg.solve(
            A - z * np.eye(12), np.eye(12) - proj.to_dense()
        )
        assert got == pytest.approx(np.linalg.norm(dense, 2), rel=1e-8)
        # the projector removes the pole: the norm stays bounded by the gap
        assert got < 100.0 / gap


def dense_lu_route(A, z, b, adjoint=False):
    """Oracle for the shifted solver: a plain dense LU of A - z."""
    lu = lu_factor(A - z * np.eye(len(A), dtype=complex))
    return lu_solve(lu, b, trans=2 if adjoint else 0)


def sector_blocks(n_max, g=0.05, interaction_scale=None):
    """(block, top-layer positions) of both parity sectors on a tiny grid."""
    n = None if interaction_scale is None else 2
    H = assemble_hamiltonian(
        *tiny_model(n_max, g), n=n, interaction_scale=interaction_scale
    )
    return [(s.block, s.top) for s in H.sectors.values()]


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestShiftedSolver:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "g, interaction_scale", [(0.05, None), (0.0, None), (0.05, 1)]
    )
    def test_matches_dense_lu(self, n_max, g, interaction_scale, rng):
        for block, top in sector_blocks(n_max, g, interaction_scale):
            n = len(block)
            b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            for z in (0.9 - 0.01j, 0.02 + 0.003j, 1.3):
                solver = ShiftedSolver(sector(block, top), z)
                assert len(solver.r) == n - len(top)  # whole top layer eliminated
                for rhs in (b, b[:, 0]):
                    assert rel_err(
                        solver.solve(rhs), dense_lu_route(block, z, rhs)
                    ) < 1e-12
                    assert rel_err(
                        solver.solve_adjoint(rhs),
                        dense_lu_route(block, z, rhs, adjoint=True),
                    ) < 1e-12

    def test_plain_matrix_is_dense_lu(self, rng):
        A = random_matrix(rng, 9)
        b = rng.standard_normal(9) + 0j
        solver = ShiftedSolver(sector(A), 0.3 + 0.1j)
        assert len(solver.t) == 0
        assert np.array_equal(solver.solve(b), dense_lu_route(A, 0.3 + 0.1j, b))

    def test_real_matrix_matches_complex(self, rng):
        block, top = sector_blocks(2)[0]
        A = block.real
        b = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
        for t in (top, None):
            real = ShiftedSolver(sector(A, t), 0.9 - 0.01j)
            cplx = ShiftedSolver(sector(A.astype(complex), t), 0.9 - 0.01j)
            assert rel_err(real.solve(b), cplx.solve(b)) < 1e-14
            assert rel_err(real.solve_adjoint(b), cplx.solve_adjoint(b)) < 1e-14
        D = np.diag([0.0, 2.0, 5.0]) + 0.1 * rng.standard_normal((3, 3))
        w = np.linalg.eigvals(D)
        lam = w[np.argmin(np.abs(w))]
        real = riesz_rank_one(sector(D), center=lam, radius=0.5)
        cplx = riesz_rank_one(sector(D.astype(complex)), center=lam, radius=0.5)
        assert rel_err(real.to_dense(), cplx.to_dense()) < 1e-14
        lam_real, _ = shifted_inverse_eigenvalue(sector(D), 0.1)
        lam_cplx, _ = shifted_inverse_eigenvalue(sector(D.astype(complex)), 0.1)
        assert abs(lam_real - lam_cplx) <= 1e-14 * abs(lam_cplx)
        assert abs(lam_real - lam) < 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 10 * TOP_LAYER_GUARD])
    def test_shift_at_top_entry(self, offset, rng):
        block, top = sector_blocks(2)[0]
        # the most strongly coupled top state keeps H - d_t well conditioned
        coupling = np.abs(block[:, top]).sum(axis=0) - np.abs(np.diag(block)[top])
        t = top[np.argmax(coupling)]
        z = block[t, t] + offset
        solver = ShiftedSolver(sector(block, top), z)
        assert (t in solver.r) == (offset < TOP_LAYER_GUARD)
        assert not solver.singular
        b = rng.standard_normal(len(block)) + 1j * rng.standard_normal(len(block))
        assert rel_err(solver.solve(b), dense_lu_route(block, z, b)) < 1e-12
        assert rel_err(
            solver.solve_adjoint(b), dense_lu_route(block, z, b, adjoint=True)
        ) < 1e-12


class TestSectorSolverParts:
    """Shift-independent solver parts are built once per sector and freed with it."""

    @staticmethod
    def same_solver(a: ShiftedSolver, b: ShiftedSolver, rhs) -> None:
        assert np.array_equal(a.r, b.r) and np.array_equal(a.t, b.t)
        assert np.array_equal(a.lu[0], b.lu[0]) and np.array_equal(a.lu[1], b.lu[1])
        assert a.singular == b.singular
        assert np.array_equal(a.solve(rhs), b.solve(rhs))
        assert np.array_equal(a.solve_adjoint(rhs), b.solve_adjoint(rhs))

    def test_cached_parts_match_fresh_build(self, rng):
        H = assemble_hamiltonian(*tiny_model(2))
        for sec in H.sectors.values():
            n = len(sec.indices)
            rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            t = sec.top[0]
            # ordinary shifts, then the guard path (a shift on a top entry),
            # then an ordinary shift again after the guard rebuilt its parts
            for z in (0.9 - 0.01j, 0.02 + 0.003j, sec.block[t, t], 1.3):
                cached = ShiftedSolver(sec, z)
                fresh = ShiftedSolver(sector(sec.block, sec.top), z)
                self.same_solver(cached, fresh, rhs)
            assert sec.solver_parts is not None
            parts = sec.solver_parts
            ShiftedSolver(sec, 0.5 - 0.02j)
            assert sec.solver_parts is parts  # built once
            assert (t in ShiftedSolver(sec, sec.block[t, t]).r)

    def test_parts_freed_with_operator(self):
        H = assemble_hamiltonian(*tiny_model(2))
        sec = H.sectors[+1]
        resolvent_norm(H, 0.9 - 0.01j)
        ref = weakref.ref(sec.solver_parts)
        del H, sec
        gc.collect()
        assert ref() is None


class TestSingularShift:
    def test_pivot_detects_eigenvalue_shift(self):
        solver = ShiftedSolver(sector(np.diag([0.0, 1.0, 2.0]).astype(complex)), 1.0)
        assert solver.singular
        with pytest.raises(SingularShiftError):
            solver.solve(np.ones(3))

    def test_uncoupled_top_entry_on_shift(self):
        block, top = sector_blocks(2, g=0.0)[0]
        t = top[3]
        solver = ShiftedSolver(sector(block, top), block[t, t])
        assert t in solver.r and solver.singular

    def test_resolvent_norm_lu_branch(self):
        # the pivots flag the shift before svds runs, at any block size
        A = np.diag(np.linspace(1.0, 5.0, 520)).astype(complex)
        assert resolvent_norm(one_sector(A), A[7, 7]) == np.inf

    def test_projected_norm_on_other_eigenvalue(self):
        H = one_sector(np.diag([0.0, 1.0, 2.0]))
        proj = riesz_rank_one(H.sectors[0], center=0.0, radius=0.5, sector=0)
        assert resolvent_norm(H, 2.0, proj) == np.inf

    def test_inverse_iteration_raises(self):
        with pytest.raises(SingularShiftError):
            shifted_inverse_eigenvalue(sector(np.diag([0.0, 1.0]).astype(complex)), 1.0)

    def test_contour_node_on_eigenvalue(self):
        A = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ContourCollisionError):
            riesz_rank_one(sector(A), center=0.0, radius=1.0, quad_points=4)

    def test_exact_zero_pivot_does_not_warn(self):
        # lu_factor warns on an exactly zero pivot; the solver silences that
        # warning alone and reports the singular shift itself
        A = np.diag([0.0, 1.0, 2.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolvent_norm(one_sector(A), 1.0) == np.inf
            with pytest.raises(SingularShiftError):
                ShiftedSolver(sector(A), 1.0).solve(np.ones(3))
            with pytest.raises(LinAlgWarning):
                lu_factor(A - np.eye(3))


class TestQuadratureCap:
    def test_flag_set_at_cap(self):
        A = sector(np.diag([0.0, 2.0, 5.0]).astype(complex))
        fact = riesz_rank_one(A, center=0.0, radius=0.5, tol=0.0)
        assert fact.quad_points == MAX_QUAD_POINTS and not fact.converged
        assert riesz_rank_one(A, center=0.0, radius=0.5).converged

    def test_tracking_raises(self, monkeypatch):
        A = one_sector(np.diag([0.0, 1.2, 5.0]))
        # 16 nodes on radius 0.48 leave a defect near (0.48 / 1.2)^16 ~ 4e-7
        monkeypatch.setattr(spectral, "MAX_QUAD_POINTS", 16)
        with pytest.raises(TrackingError, match="stopped at 16 nodes"):
            track_eigenvalue(A, SpectralCensus.of(A), seed=0.1, radius=0.5,
                             quad_points=16)
        monkeypatch.undo()
        rec = track_eigenvalue(A, SpectralCensus.of(A), seed=0.1, radius=0.5,
                               quad_points=16)
        assert rec.projector.converged and rec.projector.quad_points > 16


class TestEliminatedRoute:
    def test_rank_one_on_sector_block(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field)
        block, top = H.sectors[+1].block, H.sectors[+1].top
        w = np.linalg.eigvals(block)
        k = int(np.argmin(np.abs(w - cfg.e1)))
        radius = 0.4 * np.min(np.abs(np.delete(w, k) - w[k]))
        fact = riesz_rank_one(sector(block, top), center=w[k], radius=radius)
        plain = riesz_rank_one(sector(block), center=w[k], radius=radius)
        dense = contour_projector(block, center=w[k], radius=radius)
        assert fact.converged and fact.rank == 1
        assert np.linalg.norm(fact.to_dense() - dense, 2) < 1e-8
        assert rel_err(fact.to_dense(), plain.to_dense()) < 1e-12
        assert abs(fact.trace_value - plain.trace_value) < 1e-12

    def test_ladder_matches_dense_lu_route(self, cfg, ladder, small_field,
                                           monkeypatch):
        fast = run_ladder(cfg, ladder, small_field)
        # an infinite guard keeps every top entry: each solve is a dense LU
        monkeypatch.setattr(spectral, "TOP_LAYER_GUARD", np.inf)
        slow = run_ladder(cfg, ladder, small_field)
        for rec_f, rec_s in zip(fast.scales, slow.scales):
            for i, f in rec_f.levels.items():
                s = rec_s.levels[i]
                assert f.lam == s.lam
                assert abs(f.projector_trace - s.projector_trace) < 1e-12
                for name in ("p3_gap", "atomic_projector_gap"):
                    a, b = getattr(f, name), getattr(s, name)
                    if b is not None:
                        assert abs(a - b) <= 1e-12 * abs(b)
