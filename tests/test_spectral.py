"""Eigensolvers, contour projectors, tracking, resolvent norms."""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, svds

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
    riesz_rank_one,
    run_ladder,
    track_eigenvalue,
)
from spinboson import spectral
from spinboson.spectral import (
    MAX_QUAD_POINTS,
    RESOLVENT_TOL,
    RITZ_STRIDE,
    TOP_LAYER_GUARD,
    contour_eigenpair,
    projector_distance,
    solver_tolerance,
)

from sectors import (
    dense_operator,
    dense_projector,
    dense_sectors,
    one_sector,
    probe_paired_rayleigh,
    quadrature_left,
    same_parts,
    sector,
    spectrum,
)


def tiny_model(n_max, g=0.05):
    """(config, field) of a 2-scale, 2-point-per-shell grid."""
    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=g, theta=0.2j)
    field = DiscretizedField(
        CutoffLadder(0.25, 0.5, e1=1.0), 2, points_per_shell=2, r_max=4.0,
        n_max=n_max, uv_points_per_panel=2,
    )
    return cfg, field


def random_matrix(rng, n, scale=1.0):
    """A random complex-symmetric matrix (B + B^T) / 2, like every sector."""
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (B + B.T) / 2


def orthogonal_similar(rng, w):
    """Q diag(w) Q^T, symmetrized bit for bit: a complex-symmetric matrix
    with eigenvalues w, Q = (I - K)^(-1) (I + K) the complex-orthogonal
    Cayley transform of a random complex antisymmetric K (Q^T Q = I)."""
    n = len(w)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = 0.3 * (B - B.T)
    Q = np.linalg.solve(np.eye(n) - K, np.eye(n) + K)
    A = (Q * w) @ Q.T
    return (A + A.T) / 2


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
            spectrum(one_sector(dense_operator(Hb))), spectrum(Hb), atol=1e-10
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
        census = SpectralCensus.of(H, jobs=1)
        assert calls == [len(s.indices) for s in H.sectors.values()]
        assert np.array_equal(census.values, want)
        for key, sec in H.sectors.items():
            own = census.values[census.sectors == key]
            assert np.array_equal(own, spectrum(one_sector(sec.dense())))


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
        H = assemble_hamiltonian(cfg.replace(g=0.0), small_field)
        radius = 0.25 * 0.03125 * np.sin(cfg.nu)
        P = contour_projector(dense_operator(H), center=cfg.e1, radius=radius)
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
        assert abs(fact.trace_value - 1.0) < 1e-10  # the count
        assert np.linalg.norm(dense_projector(fact) - dense, 2) < 1e-8

    def test_projects_probe_onto_eigendirection(self, rng):
        A = np.diag([0.0, 2.0, 5.0]).astype(complex)
        fact = riesz_rank_one(sector(A), center=2.0, radius=0.5, probe=np.ones(3))
        v = fact.right[:, 0]
        assert abs(abs(v[1]) - 1.0) < 1e-12

    def test_empty_contour_raises(self, rng):
        A = np.diag([0.0, 5.0]).astype(complex)
        with pytest.raises(TrackingError):
            riesz_rank_one(sector(A), center=2.5, radius=0.5)


class TestCount:
    """tr P, read off the node inverses, decides what a circle holds."""

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_solver_trace_matches_dense_inverse(self, n_max):
        """With a top layer, with a shift on a top entry (the guard keeps it
        in R), and without a top layer (every block read plain)."""
        for block, top in sector_blocks(n_max, g=0.05 + 0.01j):
            shifts = [0.9 - 0.01j, 0.02 + 0.003j, 1.3]
            if len(top):
                t = top[len(top) // 2]
                shifts.append(block[t, t])
                assert t in ShiftedSolver(sector(block, top), block[t, t]).r
            for z in shifts:
                want = np.trace(np.linalg.inv(block - z * np.eye(len(block))))
                for t in (top, None):
                    got = ShiftedSolver(sector(block, t), z).trace()
                    assert abs(got - want) <= 1e-12 * abs(want)

    def test_singular_shift_raises(self):
        with pytest.raises(SingularShiftError):
            ShiftedSolver(sector(np.diag([0.0, 1.0])), 1.0).trace()

    @pytest.mark.parametrize("inside", [2, 3])
    def test_more_than_one_eigenvalue_raises(self, rng, inside):
        w = np.concatenate([0.1 * np.arange(inside) - 0.01j,
                            np.linspace(3.0, 9.0, 30)])
        A = orthogonal_similar(rng, w)
        with pytest.raises(DegeneracyError,
                           match=f"more than one eigenvalue: {inside} \\(count"):
            riesz_rank_one(sector(A), center=0.1, radius=0.5)

    def test_empty_circle_raises_after_one_rule(self, rng, monkeypatch):
        w = np.concatenate([[0.0, 0.3 - 0.01j], np.linspace(3.0, 9.0, 38)])
        A = orthogonal_similar(rng, w)
        calls = []
        node_solver = spectral._node_solver

        def counted(sec, z):
            calls.append(z)
            return node_solver(sec, z)

        monkeypatch.setattr(spectral, "_node_solver", counted)
        with pytest.raises(TrackingError, match="encloses no spectrum"):
            riesz_rank_one(sector(A), center=1.5, radius=0.5)
        assert len(calls) == 16


class TestLeftVector:
    """The left vector conj(u / (u^T u)) of a complex-symmetric sector."""

    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("level", [0, 1])
    def test_matches_adjoint_quadrature_and_dense(self, n_max, level):
        cfg, field = tiny_model(n_max, g=0.05 + 0.01j)
        H = assemble_hamiltonian(cfg, field)
        census = SpectralCensus.of(H, jobs=1)
        lam = census.nearest(cfg.e1 if level == 1 else cfg.e0)
        gap = census.gap(lam)
        proj = track_eigenvalue(H, census, seed=lam, radius=0.4 * gap).projector
        sec = H.sectors[proj.sector]
        u, left = proj.right[:, 0], proj.left[:, 0]
        oracle = quadrature_left(sec, lam, 0.4 * gap, proj.quad_points, u)
        assert rel_err(left, oracle) <= 1e-10
        w, V = np.linalg.eig(sec.dense().conj().T)  # A^H l = conj(lam) l
        dense = V[:, np.argmin(np.abs(w - np.conj(lam)))]
        assert rel_err(left, dense / np.conj(np.vdot(dense, u))) <= 1e-10

    @pytest.mark.parametrize("split", [1e-6, 1e-14])
    def test_pairing_near_exceptional_point(self, split):
        """N = [[0, 1, 0], [1, 0, i], [0, i, 0]] is complex symmetric and
        nilpotent of order 3.  ``split`` on one diagonal entry parts its
        triple eigenvalue 0 into three; at 1e-6 they lie 0.017 apart with
        |u^T u| = 1.5e-4, at 1e-14 4e-5 apart with |u^T u| = 7e-10, below
        the 1e-8 floor of a usable pairing."""
        N = np.array([[0, 1, 0], [1, 0, 1j], [0, 1j, 0]])
        assert not np.linalg.matrix_power(N, 3).any()
        A = N + np.diag([split, 0.0, 0.0])
        w = np.linalg.eigvals(A)
        sep = np.min(np.abs(w[1:] - w[0]))
        if split > 1e-8:
            proj = riesz_rank_one(sector(A), center=w[0], radius=0.4 * sep)
            u = proj.right[:, 0]
            assert abs(u @ u) == pytest.approx(1.5e-4, rel=1e-3)
            assert np.array_equal(proj.left[:, 0], np.conj(u / (u @ u)))
        else:
            with pytest.raises(DegeneracyError, match="pairing"):
                riesz_rank_one(sector(A), center=w[0], radius=0.4 * sep)


class TestRayleighOracle:
    """The c-product quotient u^T A u / (u^T u) against the probe-paired
    quotient it replaced, on assembled sectors at complex g."""

    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("with_probe", [False, True])
    def test_matches_probe_paired_route(self, n_max, level, with_probe):
        cfg, field = tiny_model(n_max, g=0.05 + 0.01j)
        H = assemble_hamiltonian(cfg, field)
        census = SpectralCensus.of(H, jobs=1)
        lam = census.nearest(cfg.e1 if level == 1 else cfg.e0)
        probe = None
        if with_probe:  # the atomic level, as the ladder's first scale probes
            probe = np.zeros(H.dim, dtype=complex)
            probe[0 if level == 1 else H.dim // 2] = 1.0
        rec = track_eigenvalue(H, census, seed=lam, radius=0.4 * census.gap(lam),
                               probe=probe)
        proj = rec.projector
        sec = H.sectors[proj.sector]
        x0 = proj.right[:, 0] if probe is None else probe[sec.indices]
        oracle = probe_paired_rayleigh(sec, proj, x0)
        want = abs(oracle - rec.lam)
        assert abs(rec.method_disagreement - want) <= 1e-14 * max(1.0, abs(rec.lam))


class TestContourEigenpair:
    """The eigenvalue inside a circle, read off its contour projector."""

    def test_recovers_eigenpair(self, rng):
        w = np.array([0.2, 1.5 - 0.3j, 4.0])
        A = orthogonal_similar(rng, w)
        lam, proj, au = contour_eigenpair(sector(A), 1.4 - 0.25j, 0.5, None, 7)
        u = proj.right[:, 0]
        assert proj.sector == 7 and proj.converged
        assert lam == pytest.approx(w[1], abs=1e-10)
        assert np.linalg.norm(au - A @ u) < 1e-13
        assert np.linalg.norm(au - lam * u) < 1e-9

    @pytest.mark.parametrize(
        "radius, error, match",
        [(0.05, TrackingError, "encloses no spectrum"),
         (0.5, DegeneracyError, "more than one eigenvalue")],
        ids=["none", "two"],
    )
    def test_needs_one_eigenvalue(self, rng, radius, error, match):
        """A circle holding no eigenvalue raises, and so does one holding
        two: the count tr P reads 0 or 2."""
        w = np.concatenate([[0.0, 0.3 - 0.01j], np.linspace(3.0, 9.0, 38)])
        A = orthogonal_similar(rng, w)
        with pytest.raises(error, match=match):
            contour_eigenpair(sector(A), 0.15, radius, None, None)

    def test_matches_mpmath(self):
        """At complex g, on a 21-dimensional assembled sector, the eigenvalue
        and the projector u u^T / (u^T u) agree with 30-digit mpmath."""
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.3 + 0.1j, theta=0.2j)
        field = DiscretizedField(CutoffLadder(0.25, 0.5, e1=1.0), 1,
                                 points_per_shell=1, r_max=4.0, n_max=2,
                                 uv_points_per_panel=1)
        sec = assemble_hamiltonian(cfg, field).sectors[1]
        A = sec.dense()
        assert len(A) == 21
        with mpmath.workdps(30):
            E, EL, ER = mpmath.eig(mpmath.matrix(A.tolist()), left=True, right=True)
            w = np.array([complex(e) for e in E])
            k = int(np.argmin(np.abs(w - cfg.e1)))
            r, l = ER[:, k], EL[k, :]
            P_mp = np.array(((r * l) / (l * r)[0]).tolist(), dtype=complex)
            lam_mp = E[k]
        gap = np.sort(np.abs(w - w[k]))[1]
        lam, proj, _ = contour_eigenpair(sec, w[k], 0.4 * gap, None, 1)
        u = proj.right[:, 0]
        assert abs(lam - complex(lam_mp)) <= 1e-12
        assert np.linalg.norm(np.outer(u, u) / (u @ u) - P_mp, 2) <= 1e-12


class TestTrackEigenvalue:
    def test_free_seed_exact(self, cfg, small_field):
        H = assemble_hamiltonian(cfg.replace(g=0.0), small_field)
        census = SpectralCensus.of(H, jobs=1)
        rec = track_eigenvalue(H, census, seed=cfg.e1, radius=0.01)
        assert rec.lam == pytest.approx(cfg.e1, abs=1e-13)
        assert abs(rec.projector.trace_value - 1.0) < 1e-10
        assert rec.residual < 1e-10

    def test_small_coupling_shift_bounded(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field)
        census = SpectralCensus.of(H, jobs=1)
        rec = track_eigenvalue(H, census, seed=cfg.e1, radius=0.05)
        # first-scale proximity: |lambda - e1| <= |g| C with C order one
        assert abs(rec.lam - cfg.e1) < 10 * abs(cfg.g)
        assert rec.method_disagreement < 1e-8

    def test_constructed_instance_recovery(self, rng):
        w = np.array([0.3, 1.7 - 0.2j, -2.0 + 0.1j])
        H = one_sector(orthogonal_similar(rng, w))
        census = SpectralCensus.of(H, jobs=1)
        rec = track_eigenvalue(H, census, seed=1.65 - 0.18j, radius=0.2)
        assert rec.lam == pytest.approx(w[1], abs=1e-10)

    def test_no_candidate(self, rng):
        H = one_sector(np.diag([0.0, 5.0]))
        with pytest.raises(TrackingError):
            track_eigenvalue(H, SpectralCensus.of(H, jobs=1), seed=2.0, radius=0.5)

    def test_ambiguous_candidates(self):
        H = one_sector(np.diag([1.0, 1.1]))
        with pytest.raises(DegeneracyError):
            track_eigenvalue(H, SpectralCensus.of(H, jobs=1), seed=1.05, radius=0.2)


class TestProductsFromParts:
    """``OperatorMatrix.matvec`` and the Rayleigh check and residual of
    ``track_eigenvalue`` take their products from the sector parts; against
    the dense blocks of the assembly's dense route each stays within its
    sector's floor solver_tolerance(n, |A|_inf)."""

    @staticmethod
    def floors(cfg, field) -> dict:
        return {
            key: (indices, block, solver_tolerance(
                len(block), float(np.abs(block).sum(axis=1).max())))
            for key, (indices, block, _) in dense_sectors(cfg, field).items()
        }

    def test_matvec(self, cfg, small_field, rng):
        H = assemble_hamiltonian(cfg, small_field)
        x = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
        x /= np.linalg.norm(x)
        got = H.matvec(x)
        for indices, block, floor in self.floors(cfg, small_field).values():
            assert np.linalg.norm(got[indices] - block @ x[indices]) <= floor

    @pytest.mark.parametrize("level", [0, 1])
    def test_tracking_residual_and_rayleigh(self, cfg, small_field, level):
        H = assemble_hamiltonian(cfg, small_field)
        census = SpectralCensus.of(H, jobs=1)
        lam = census.nearest(cfg.e1 if level == 1 else cfg.e0)
        rec = track_eigenvalue(H, census, seed=lam, radius=0.5 * census.gap(lam))
        proj = rec.projector
        indices, block, floor = self.floors(cfg, small_field)[proj.sector]
        u = rec.right_vector[indices]
        residual = np.linalg.norm(block @ u - rec.lam * u)
        assert abs(rec.residual - residual) <= floor
        # the c-product quotient u^T A u / (u^T u), u of unit norm
        rayleigh = (u @ (block @ u)) / (u @ u)
        assert abs(rec.method_disagreement - abs(rayleigh - rec.lam)) <= floor


class TestResolventNorm:
    def test_diagonal_distance(self):
        H = one_sector(np.diag([0.0, 1.0]))
        assert resolvent_norm(H, 2.0) == pytest.approx(1.0)

    def test_normal_matrix_identity(self, rng):
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))  # real orthogonal
        A = (Q * w) @ Q.T
        A = (A + A.T) / 2  # normal and complex symmetric
        z = 3.0 + 0.5j
        assert resolvent_norm(one_sector(A), z) == pytest.approx(
            1.0 / np.min(np.abs(w - z)), rel=1e-9
        )

    def test_jordan_block_oracle(self):
        # the complex-symmetric nilpotent N = [[1, i], [i, -1]] (N^2 = 0) at
        # z = i: (N - i)^(-1) = i + N, whose norm is 1 + sqrt 2
        A = np.array([[1.0, 1.0j], [1.0j, -1.0]])
        assert not (A @ A).any()
        inv = np.linalg.inv(A - 1j * np.eye(2))
        direct = np.linalg.svd(inv, compute_uv=False)[0]
        assert direct == pytest.approx(1 + np.sqrt(2), rel=1e-12)
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
        # a block far larger than the Krylov space the stop rule needs
        A, z = large_block(rng)
        n = len(A)
        got = resolvent_norm(one_sector(A), z)
        want = 1.0 / np.linalg.svd(A - z * np.eye(n), compute_uv=False)[-1]
        assert got == pytest.approx(want, rel=1e-6)

    def test_projector_sector_must_exist(self):
        # a projector of sector None on an assembled operator
        proj = riesz_rank_one(sector(np.diag([0.0, 1.0, 2.0])), center=0.0, radius=0.5)
        with pytest.raises(KeyError):
            resolvent_norm(assemble_hamiltonian(*tiny_model(1)), 0.5j, proj)


def large_block(rng):
    """(A, z): a 520-dim near-diagonal block and a shift outside its spectrum."""
    n = 520
    A = np.diag(np.linspace(1.0, 5.0, n)).astype(complex)
    A += 0.01 * random_matrix(rng, n) / np.sqrt(n)
    return A, 0.5


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
        # sectors, where the first Lanczos step fills the sector
        H = assemble_hamiltonian(*tiny_model(n_max))
        w = spectrum(H)
        lam = w[np.argmin(np.abs(w - 1.0))]
        gap = np.sort(np.abs(w - lam))[1]
        census = SpectralCensus.of(H, jobs=1)
        rec = track_eigenvalue(H, census, seed=lam, radius=0.4 * gap)
        proj = rec.projector
        z = lam + offset * gap * np.exp(0.7j)
        want = max(
            dense_resolvent_norm(
                sec.dense(), z,
                dense_projector(proj) if projected and key == proj.sector else None,
            )
            for key, sec in H.sectors.items()
        )
        got = resolvent_norm(H, z, proj if projected else None)
        assert got == pytest.approx(want, rel=1e-9)


def svds_resolvent_norm(A, z, P=None):
    """Oracle: |(A - z)^(-1) (1 - P)| by the route the package took before
    its Lanczos: ARPACK svds(k=1) at RESOLVENT_TOL on the solves of a dense
    LU of A - z, from the same start vector, and the SVD of the solved
    identity below dimension 3, where ARPACK cannot run.
    """
    n = len(A)
    lu = lu_factor(A - z * np.eye(n, dtype=complex))
    P = np.zeros((n, n)) if P is None else P

    def matvec(x):
        return lu_solve(lu, x - P @ x)

    def rmatvec(y):
        s = lu_solve(lu, y, trans=2)
        return s - P.conj().T @ s

    if n < 3:
        return float(np.linalg.svd(matvec(np.eye(n)), compute_uv=False)[0])
    op = LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec, dtype=complex)
    v0 = np.random.default_rng(12345).standard_normal(n)
    s = svds(op, k=1, which="LM", v0=v0, tol=RESOLVENT_TOL,
             return_singular_vectors=False)
    return float(s[0])


class TestLanczosNorm:
    """The Lanczos route against the svds route it replaced, its stop rule and cap."""

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    @pytest.mark.parametrize("projected", [False, True])
    def test_matches_svds_on_assembled_operator(self, n_max, projected):
        H = assemble_hamiltonian(*tiny_model(n_max))
        w = spectrum(H)
        lam = w[np.argmin(np.abs(w - 1.0))]
        gap = np.sort(np.abs(w - lam))[1]
        census = SpectralCensus.of(H, jobs=1)
        rec = track_eigenvalue(H, census, seed=lam, radius=0.4 * gap)
        proj = rec.projector if projected else None
        for offset in (1e-4, 0.6):
            z = lam + offset * gap * np.exp(0.7j)
            want = max(
                svds_resolvent_norm(
                    sec.dense(), z,
                    dense_projector(proj) if proj is not None and key == proj.sector
                    else None,
                )
                for key, sec in H.sectors.items()
            )
            assert resolvent_norm(H, z, proj) == pytest.approx(
                want, rel=RESOLVENT_TOL
            )

    def test_matches_svds_on_large_block(self, rng):
        A, z = large_block(rng)
        assert resolvent_norm(one_sector(A), z) == pytest.approx(
            svds_resolvent_norm(A, z), rel=RESOLVENT_TOL
        )

    def test_stops_on_ritz_residual_at_stride(self):
        # singular values 1/(1 + k/n): the top one is separated well enough
        # for the residual rule to stop long before the Krylov space fills
        n = 200
        d = 1.0 + np.arange(n) / n
        calls = []

        def matvec(x):
            calls.append(1)
            return x / d

        got = spectral._top_singular_value(matvec, matvec, n)
        assert got == pytest.approx(1.0, rel=1e-12)
        assert len(calls) < n and len(calls) % RITZ_STRIDE == 0

    def test_clustered_top_values_within_cap(self):
        # 200 singular values within 2e-3 of the top one, as near a cluster
        # of top-layer eigenvalues: the residual rule needs far more steps
        # than an isolated top value, but stays under the cap
        n = 600
        d = np.concatenate([1 + 1e-5 * np.arange(200), np.linspace(1.1, 20, n - 200)])
        calls = []

        def matvec(x):
            calls.append(1)
            return x / d

        assert spectral._top_singular_value(matvec, matvec, n) == pytest.approx(
            1.0, rel=1e-12
        )
        assert 300 < len(calls) < spectral.LANCZOS_MAX_STEPS

    def test_breakdown_on_repeated_singular_value(self):
        # op = I / 2 on four dims: the first Lanczos vector spans an
        # invariant subspace and beta_1 is exactly zero
        assert resolvent_norm(one_sector(2.0 * np.eye(4)), 0.0) == 0.5

    def test_cap_raises(self, monkeypatch):
        # top singular values 1 and 1/1.0005: two steps cannot separate them
        H = one_sector(np.diag([1.0, 1.0005, 3.0, 4.0]))
        assert resolvent_norm(H, 0.0) == pytest.approx(1.0, rel=1e-12)
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError):
            resolvent_norm(H, 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_sector_is_exact(self, n, rng):
        A = random_matrix(rng, n)
        z = 0.3 - 0.2j
        want = np.linalg.svd(np.linalg.inv(A - z * np.eye(n)), compute_uv=False)[0]
        assert resolvent_norm(one_sector(A), z) == pytest.approx(want, rel=1e-14)


def mp_top_eigenpair(a, b):
    """Oracle: (nu, |s_k|) of a symmetric tridiagonal, at 30 digits.

    nu by bisection on the Sturm count of x - T (mpmath), s_k from one
    solve of (hi - T) z = 1 at the bracket's upper end hi, within 1e-28 |T|
    of nu: with b >= 0, hi - T is then a positive definite M-matrix, so
    z > 0 and its direction is nu's eigenvector up to (hi - nu) / gap.
    """
    with mpmath.workdps(30):
        A = [mpmath.mpf(float(v)) for v in a]
        B = [mpmath.mpf(float(v)) for v in b]
        norm = max(abs(v) for v in A) + 2 * max([abs(v) for v in B], default=0)
        lo, hi = -norm - 1, norm + 1
        while hi - lo > mpmath.mpf(10) ** -28 * (norm + 1):
            mid = (lo + hi) / 2
            q, above = mid - A[0], True
            for i in range(1, len(A)):
                if q <= 0:
                    above = False
                    break
                q = mid - A[i] - B[i - 1] ** 2 / q
            if above and q > 0:
                hi = mid
            else:
                lo = mid
        d, y = [hi - A[0]], [mpmath.mpf(1)]
        for i in range(1, len(A)):
            m = B[i - 1] / d[-1]
            d.append(hi - A[i] - B[i - 1] * m)
            y.append(1 + m * y[-1])
        z = [y[-1] / d[-1]]
        for i in range(len(A) - 2, -1, -1):
            z.insert(0, (y[i] + B[i] * z[0]) / d[i])
        return float(hi), float(z[-1] / mpmath.sqrt(mpmath.fsum(v * v for v in z)))


def lanczos_tridiagonal(d, start, k):
    """(alpha, beta) of k Lanczos steps on diag(d) from ``start``, each new
    vector projected twice against the whole basis."""
    V, alpha, beta = np.zeros((k, len(d))), np.zeros(k), np.zeros(k)
    q = start / np.linalg.norm(start)
    for j in range(k):
        V[j] = q
        w = d * q
        alpha[j] = q @ w
        for _ in range(2):
            w -= V[: j + 1].T @ (V[: j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        q = w / beta[j] if j < k - 1 else q
    return alpha, beta[: k - 1]


def jacobi_matrix(values, last_entries):
    """(alpha, beta) of the tridiagonal with these eigenvalues, whose unit
    eigenvectors end in these entries (up to normalization): Lanczos to the
    end on diag(values) from that start vector, which sets the first
    entries, read backwards."""
    alpha, beta = lanczos_tridiagonal(values, np.asarray(last_entries), len(values))
    return alpha[::-1].copy(), beta[::-1].copy()


def ritz_case(name):
    """(alpha, beta) of one named oracle case for ``_top_ritz``."""
    rng = np.random.default_rng(3)
    kind, _, arg = name.partition("-")
    if kind == "random":  # a rising diagonal keeps the top vector's end large
        k = int(arg)
        return np.sort(rng.uniform(0.0, 1.0, k)), rng.uniform(0.2, 1.0, k - 1)
    if kind == "cluster":
        # top pair 2 and 2 (1 - gap); the second vector ends in 1e-4, so
        # the first one's last entry is set by T to better than 1e-8
        gap = float(arg)
        values = np.concatenate([[2.0, 2.0 * (1 - gap)], rng.uniform(0.0, 1.5, 18)])
        ends = np.concatenate([[0.5, 1e-4], rng.uniform(0.5, 1, 18)])
        return jacobi_matrix(values, ends)
    if kind == "converged":  # 16 steps on a top eigenvalue 2 above [0, 1]
        d = np.concatenate([[2.0], rng.uniform(0, 1, 399)])
        return lanczos_tridiagonal(d, rng.standard_normal(400), 16)
    # a zero off-diagonal splits T; its top lies in the lower or upper block
    alpha = [1.0, 2.0, 0.5, 3.0, 1.0] if arg == "lower" else [3.0, 2.0, 0.5, 1.0, 1.0]
    return np.array(alpha), np.array([0.3, 0.0, 0.4, 0.2])


RITZ_CASES = [
    "random-1", "random-2", "random-5", "random-60", "random-400",
    "cluster-1e-4", "cluster-1e-6", "cluster-1e-8", "cluster-1e-10",
    "converged", "breakdown-lower", "breakdown-upper",
]


def scipy_top_singular_value(matvec, rmatvec, n):
    """Oracle: ``_top_singular_value`` with the Ritz step it had before,
    scipy's ``eigh_tridiagonal`` (LAPACK stebz and stein), and nothing
    else changed; returns the value and the number of steps."""
    from scipy.linalg import eigh_tridiagonal

    last, tol = min(n, spectral.LANCZOS_MAX_STEPS), RESOLVENT_TOL
    V = np.empty((last, n), dtype=complex)
    alpha, beta = np.empty(last), np.empty(last)
    q = np.random.default_rng(12345).standard_normal(n).astype(complex)
    q /= np.linalg.norm(q)
    for k in range(1, last + 1):
        V[k - 1] = q
        w = rmatvec(matvec(q))
        alpha[k - 1] = np.vdot(q, w).real
        w -= alpha[k - 1] * q
        if k > 1:
            w -= beta[k - 2] * V[k - 2]
        w -= V[:k].T @ (V[:k] @ w.conj()).conj()
        beta[k - 1] = np.linalg.norm(w)
        if k % RITZ_STRIDE == 0 or k == last or beta[k - 1] <= tol * alpha[:k].max():
            nu, s = eigh_tridiagonal(
                alpha[:k], beta[: k - 1], select="i", select_range=(k - 1, k - 1)
            )
            if k == n or beta[k - 1] * abs(s[-1, 0]) <= tol * nu[0]:
                return float(np.sqrt(nu[0])), k
        q = w / beta[k - 1]
    raise AssertionError("the oracle did not converge")


class TestTopRitz:
    """The numpy Ritz step against LAPACK stebz/stein and 30-digit mpmath."""

    @pytest.mark.parametrize("name", RITZ_CASES)
    def test_against_stebz_and_mpmath(self, name):
        from scipy.linalg import eigh_tridiagonal

        a, b = ritz_case(name)
        k = len(a)
        nu, s_k = spectral._top_ritz(a, b, -np.inf)
        if k == 1:
            want, vec = a, np.ones((1, 1))
        else:
            want, vec = eigh_tridiagonal(a, b, select="i", select_range=(k - 1, k - 1))
        mp_nu, mp_s = mp_top_eigenpair(a, b)
        ulp = np.spacing(mp_nu)
        assert abs(nu - want[0]) <= 4 * ulp and abs(nu - mp_nu) <= 4 * ulp
        if name == "breakdown-upper":  # the top vector has no entry below the split
            assert s_k == 0.0 and abs(vec[-1, 0]) < 1e-15 and mp_s < 1e-25
        else:
            assert s_k == pytest.approx(mp_s, rel=1e-8)
            assert s_k == pytest.approx(abs(vec[-1, 0]), rel=1e-8)
        if name == "converged":
            assert 1e-10 < s_k < 1e-8
        if name.startswith("cluster"):
            gap = float(name.split("-", 1)[1])
            second = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))[-2]
            assert (nu - second) / nu == pytest.approx(gap, rel=1e-3)

    @pytest.mark.parametrize("below", [1.0, 1 - 1e-6, 1 - 1e-15])
    def test_any_start_below_gives_the_same_pair(self, below):
        a, b = ritz_case("random-60")
        cold = spectral._top_ritz(a, b, -np.inf)
        got = spectral._top_ritz(a, b, below * cold[0])
        assert abs(got[0] - cold[0]) <= 2 * np.spacing(cold[0])
        assert got[1] == pytest.approx(cold[1], rel=1e-8)

    def test_point_cap_raises(self, monkeypatch):
        # the first point, the largest diagonal entry, lies below the value
        monkeypatch.setattr(spectral, "_RITZ_MAX_POINTS", 1)
        with pytest.raises(ConvergenceError, match="not bracketed"):
            spectral._top_ritz(*ritz_case("random-60"), -np.inf)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanczos_matches_scipy_ritz_step(self, seed):
        # 60 of 300 eigenvalues within 2e-3 of 1 - 0.02i, seen from 0.28
        # away: their singular values cluster as near a top-layer cluster,
        # and the norm takes about 90 steps and 23 Ritz steps
        rng = np.random.default_rng(seed)
        n = 300
        d = np.concatenate([1.0 + 2e-3 * rng.uniform(-1, 1, 60),
                            rng.uniform(1.5, 4.0, n - 60)]) - 0.02j
        A = np.diag(d) + 1e-3 * random_matrix(rng, n) / np.sqrt(n)
        solver = ShiftedSolver(sector(A), 1.0 - 0.3j)
        calls = []

        def matvec(x):
            calls.append(1)
            return solver.solve(x)

        want, steps = scipy_top_singular_value(solver.solve, solver.solve_adjoint, n)
        got = spectral._top_singular_value(matvec, solver.solve_adjoint, n)
        assert steps > 80 and len(calls) == steps
        assert abs(got - want) <= 4 * np.spacing(want)


class TestHelpers:
    def test_projector_distance(self, rng):
        """|P1 - P2| against the dense spectral projectors V e_k e_k^T V^(-1)
        of nearby complex-symmetric matrices; u scaled by any complex factor.
        A left vector normalized Hermitian-wise, u / (u^H u), would be off."""
        n = 30
        A1 = random_matrix(rng, n)
        A2 = A1 + 0.05 * random_matrix(rng, n)
        w1, V1 = np.linalg.eig(A1)
        w2, V2 = np.linalg.eig(A2)
        for k in range(0, n, 6):
            j = np.argmin(np.abs(w2 - w1[k]))
            P1 = np.outer(V1[:, k], np.linalg.inv(V1)[k])
            P2 = np.outer(V2[:, j], np.linalg.inv(V2)[j])
            want = np.linalg.norm(P1 - P2, 2)
            u1, u2 = (2.0 - 1.5j) * V1[:, k], 0.3j * V2[:, j]
            assert abs(projector_distance(u1, u2) - want) <= 1e-12
            # u l^H with l = u / (u^H u): the orthogonal projectors onto u
            hermitian = np.linalg.norm(
                np.outer(u1, u1.conj()) / np.vdot(u1, u1)
                - np.outer(u2, u2.conj()) / np.vdot(u2, u2), 2
            )
            assert abs(hermitian - want) > 1e-3

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
            A - z * np.eye(12), np.eye(12) - dense_projector(proj)
        )
        assert got == pytest.approx(np.linalg.norm(dense, 2), rel=1e-8)
        # the projector removes the pole: the norm stays bounded by the gap
        assert got < 100.0 / gap


def dense_lu_route(A, z, b, adjoint=False):
    """Oracle for the shifted solver: a plain dense LU of A - z."""
    lu = lu_factor(A - z * np.eye(len(A), dtype=complex))
    return lu_solve(lu, b, trans=2 if adjoint else 0)


def sector_blocks(n_max, g=0.05, interaction_scale=None):
    """(block, top-layer positions) of both parity sectors on a tiny grid.

    With ``interaction_scale`` the couplings of the modes of the shells
    below rho_interaction_scale are zeroed: entries between states whose
    counts of such bosons differ.
    """
    cfg, field = tiny_model(n_max, g)
    H = assemble_hamiltonian(cfg, field)
    if interaction_scale is None:
        return [(s.dense(), s.top) for s in H.sectors.values()]
    basis = field.basis_for_scale(None)
    deep = basis.states[:, basis.modes.labels > interaction_scale].sum(axis=1)
    blocks = []
    for s in H.sectors.values():
        count = deep[s.indices % basis.dim]
        same_count = count[:, None] == count[None, :]
        blocks.append((np.where(same_count, s.dense(), 0.0), s.top))
    return blocks


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def same_solver(a: ShiftedSolver, b: ShiftedSolver, rhs) -> None:
    """Two solvers with the same split and bit-for-bit equal solves."""
    assert np.array_equal(a.r, b.r) and np.array_equal(a.t, b.t)
    assert a.singular == b.singular
    if a.singular:  # both raise on every solve
        return
    eye = np.eye(len(rhs))  # every column: the whole inverse, bit for bit
    assert np.array_equal(a.solve(eye), b.solve(eye))
    assert np.array_equal(a.solve_adjoint(eye), b.solve_adjoint(eye))
    assert np.array_equal(a.solve(rhs), b.solve(rhs))
    assert np.array_equal(a.solve_adjoint(rhs), b.solve_adjoint(rhs))


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
        """Without a top layer each solve is one product with inv(A - z)."""
        A = random_matrix(rng, 9)
        b = rng.standard_normal(9) + 0j
        z = 0.3 + 0.1j
        solver = ShiftedSolver(sector(A), z)
        assert len(solver.t) == 0
        inv = np.asfortranarray(np.linalg.inv(A - z * np.eye(9, dtype=complex)))
        assert np.array_equal(solver.solve(b), inv @ b)
        # A - z is complex symmetric: the adjoint solve is the conjugated one
        assert np.array_equal(solver.solve_adjoint(b), np.conj(inv @ np.conj(b)))
        assert rel_err(solver.solve(b), dense_lu_route(A, z, b)) < 1e-12
        assert rel_err(
            solver.solve_adjoint(b), dense_lu_route(A, z, b, adjoint=True)
        ) < 1e-12

    def test_real_matrix_matches_complex(self, rng):
        block, top = sector_blocks(2)[0]
        A = block.real
        b = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
        for t in (top, None):
            real = ShiftedSolver(sector(A, t), 0.9 - 0.01j)
            cplx = ShiftedSolver(sector(A.astype(complex), t), 0.9 - 0.01j)
            assert rel_err(real.solve(b), cplx.solve(b)) < 1e-14
            assert rel_err(real.solve_adjoint(b), cplx.solve_adjoint(b)) < 1e-14
        B = rng.standard_normal((3, 3))
        D = np.diag([0.0, 2.0, 5.0]) + 0.05 * (B + B.T)
        w = np.linalg.eigvals(D)
        lam = w[np.argmin(np.abs(w))]
        real = riesz_rank_one(sector(D), center=lam, radius=0.5)
        cplx = riesz_rank_one(sector(D.astype(complex)), center=lam, radius=0.5)
        assert rel_err(dense_projector(real), dense_projector(cplx)) < 1e-14
        lam_real = contour_eigenpair(sector(D), 0.1, 0.5, None, None)[0]
        lam_cplx = contour_eigenpair(sector(D.astype(complex)), 0.1, 0.5, None, None)[0]
        assert abs(lam_real - lam_cplx) <= 1e-14 * abs(lam_cplx)
        assert abs(lam_real - lam) < 1e-12

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    def test_parts_match_dense_route_bit_for_bit(self, n_max, rng):
        """The assembled parts are those read off the dense block, in value,
        dtype and memory order, and so are their solves, guard path included."""
        cfg, field = tiny_model(n_max, g=0.05 + 0.01j)
        H = assemble_hamiltonian(cfg, field)
        for key, (indices, block, top) in dense_sectors(cfg, field).items():
            sec = H.sectors[key]
            assert np.array_equal(sec.indices, indices)
            same_parts(sec, sector(block, top))
            dense = sec.dense()
            assert dense.dtype == block.dtype and dense.flags.c_contiguous
            assert np.array_equal(dense, block)
            n = len(indices)
            rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            shifts = [0.9 - 0.01j, 0.02 + 0.003j, 1.3]
            if len(top):  # a shift on a top entry keeps it in R
                t = top[len(top) // 2]
                keep = top != t
                same_parts(sec.with_top(keep), sector(block, top[keep]))
                shifts.append(block[t, t])
                guarded = ShiftedSolver(sec, block[t, t])
                assert t in guarded.r
                regrouped = ShiftedSolver(sector(block, top[keep]), block[t, t])
                same_solver(guarded, regrouped, rhs)
            for z in shifts:
                dense_route = ShiftedSolver(sector(block, top), z)
                same_solver(ShiftedSolver(sec, z), dense_route, rhs)

    @staticmethod
    def top_entry_shift(offset):
        """(block, top, t, z): a shift ``offset`` off the top entry d_t."""
        block, top = sector_blocks(2)[0]
        # the most strongly coupled top state keeps H - d_t well conditioned
        coupling = np.abs(block[:, top]).sum(axis=0) - np.abs(np.diag(block)[top])
        t = top[np.argmax(coupling)]
        return block, top, t, block[t, t] + offset

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 10 * TOP_LAYER_GUARD])
    def test_shift_at_top_entry(self, offset, rng):
        """Both solves are backward stable on 20 right-hand sides, at floor
        solver_tolerance(n, 1); while d_t stays in R (offsets 0 and 1e-12)
        they also keep a 1e-12 forward error.  Just past the guard, where
        d_t - z = 1e-5 is eliminated, the forward error is not bounded so:
        it reaches 2e-12 on fresh right-hand sides."""
        block, top, t, z = self.top_entry_shift(offset)
        solver = ShiftedSolver(sector(block, top), z)
        assert (t in solver.r) == (offset < TOP_LAYER_GUARD)
        assert not solver.singular
        n = len(block)
        floor = solver_tolerance(n, 1.0)
        assert backward_error(block, z, solver.solve, rng) <= floor
        assert backward_error(block, z, solver.solve_adjoint, rng, True) <= floor
        if t in solver.r:
            for _ in range(20):
                b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                assert rel_err(solver.solve(b), dense_lu_route(block, z, b)) < 1e-12
                want = dense_lu_route(block, z, b, adjoint=True)
                assert rel_err(solver.solve_adjoint(b), want) < 1e-12

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_backward_error_sees_a_planted_error(self, adjoint, rng):
        """A 1e-10 relative error planted in the solves fails the check."""
        block, top, _, z = self.top_entry_shift(10 * TOP_LAYER_GUARD)
        solver = ShiftedSolver(sector(block, top), z)
        solve = solver.solve_adjoint if adjoint else solver.solve

        def planted(b):
            x = solve(b)
            e = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
            return x + 1e-10 * np.linalg.norm(x) * e / np.linalg.norm(e)

        floor = solver_tolerance(len(block), 1.0)
        assert backward_error(block, z, planted, rng, adjoint) > floor


def backward_error(block, z, solve, rng, adjoint=False) -> float:
    """Largest normwise backward error |M x - b| / (|M| |x| + |b|) of
    ``solve`` over 20 random right-hand sides b, with M = A - z, or
    its conjugate transpose for an adjoint solve (2-norms)."""
    M = block - z * np.eye(len(block))
    if adjoint:
        M = M.conj().T
    norm = np.linalg.norm(M, 2)
    worst = 0.0
    for _ in range(20):
        b = rng.standard_normal(len(M)) + 1j * rng.standard_normal(len(M))
        x = solve(b)
        worst = max(worst, np.linalg.norm(M @ x - b) / (
            norm * np.linalg.norm(x) + np.linalg.norm(b)))
    return worst


class TestSingularShift:
    def test_pivot_detects_eigenvalue_shift(self):
        solver = ShiftedSolver(sector(np.diag([0.0, 1.0, 2.0]).astype(complex)), 1.0)
        assert solver.singular
        with pytest.raises(SingularShiftError):
            solver.solve(np.ones(3))

    @pytest.mark.parametrize("n", [9, 40, 200])
    def test_computed_eigenvalue_of_dense_block(self, n, rng):
        # no pivot of A - z need vanish at a computed eigenvalue z; the
        # inverse's infinity norm flags every one, and a shift 1e-6 off none
        A = random_matrix(rng, n)
        w = np.linalg.eigvals(A)
        assert all(ShiftedSolver(sector(A), z).singular for z in w)
        assert not any(ShiftedSolver(sector(A), z + 1e-6).singular for z in w)

    def test_uncoupled_top_entry_on_shift(self):
        block, top = sector_blocks(2, g=0.0)[0]
        t = top[3]
        solver = ShiftedSolver(sector(block, top), block[t, t])
        assert t in solver.r and solver.singular

    def test_resolvent_norm_lu_branch(self):
        # the pivots flag the shift before Lanczos runs, at any block size
        A = np.diag(np.linspace(1.0, 5.0, 520)).astype(complex)
        assert resolvent_norm(one_sector(A), A[7, 7]) == np.inf

    def test_projected_norm_on_other_eigenvalue(self):
        H = one_sector(np.diag([0.0, 1.0, 2.0]))
        proj = riesz_rank_one(H.sectors[0], center=0.0, radius=0.5, sector=0)
        assert resolvent_norm(H, 2.0, proj) == np.inf

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
    def test_flag_set_at_cap(self, monkeypatch):
        A = sector(np.diag([0.0, 2.0, 5.0]).astype(complex))
        monkeypatch.setattr(spectral, "IDEMPOTENCY_TOL", 0.0)
        fact = riesz_rank_one(A, center=0.0, radius=0.5)
        assert fact.quad_points == MAX_QUAD_POINTS and not fact.converged
        monkeypatch.undo()
        assert riesz_rank_one(A, center=0.0, radius=0.5).converged

    def test_tracking_raises(self, monkeypatch):
        A = one_sector(np.diag([0.0, 1.2, 5.0]))
        # 16 nodes on radius 0.48 leave a defect near (0.48 / 1.2)^16 ~ 4e-7
        monkeypatch.setattr(spectral, "MAX_QUAD_POINTS", 16)
        with pytest.raises(TrackingError, match="stopped at 16 nodes"):
            track_eigenvalue(A, SpectralCensus.of(A, jobs=1), seed=0.1, radius=0.5)
        monkeypatch.undo()
        rec = track_eigenvalue(A, SpectralCensus.of(A, jobs=1), seed=0.1, radius=0.5)
        assert rec.projector.converged and rec.projector.quad_points > 16


class TestEliminatedRoute:
    def test_rank_one_on_sector_block(self, cfg, small_field):
        H = assemble_hamiltonian(cfg, small_field)
        block, top = H.sectors[+1].dense(), H.sectors[+1].top
        w = np.linalg.eigvals(block)
        k = int(np.argmin(np.abs(w - cfg.e1)))
        radius = 0.4 * np.min(np.abs(np.delete(w, k) - w[k]))
        fact = riesz_rank_one(sector(block, top), center=w[k], radius=radius)
        plain = riesz_rank_one(sector(block), center=w[k], radius=radius)
        dense = contour_projector(block, center=w[k], radius=radius)
        assert fact.converged and abs(fact.trace_value - 1.0) < 1e-10
        assert np.linalg.norm(dense_projector(fact) - dense, 2) < 1e-8
        assert rel_err(dense_projector(fact), dense_projector(plain)) < 1e-12
        assert abs(fact.trace_value - plain.trace_value) < 1e-12

    def test_ladder_matches_dense_lu_route(self, cfg, small_field, monkeypatch):
        fast = run_ladder(cfg, small_field, jobs=1)
        # an infinite guard keeps every top entry: each solve is a dense LU
        monkeypatch.setattr(spectral, "TOP_LAYER_GUARD", np.inf)
        slow = run_ladder(cfg, small_field, jobs=1)
        for rec_f, rec_s in zip(fast.scales, slow.scales):
            for i, f in rec_f.levels.items():
                s = rec_s.levels[i]
                assert f.lam == s.lam
                assert abs(f.projector_trace - s.projector_trace) < 1e-12
                for name in ("p3_gap", "atomic_projector_gap"):
                    a, b = getattr(f, name), getattr(s, name)
                    if b is not None:
                        assert abs(a - b) <= 1e-12 * abs(b)
