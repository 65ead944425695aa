"""Infrared ladder on small grids: tracking, induction checks, limits."""

import itertools
import weakref

import numpy as np
import pytest

from spinboson import (
    Box,
    DiscretizedField,
    ModelConfig,
    ModeSet,
    SpectralCensus,
    TrackingError,
    assemble_hamiltonian,
    check_p1,
    check_p2_p4,
    check_p3,
    enumerate_basis,
    extrapolate_limit,
    run_ladder,
)
from spinboson.multiscale import (
    _embed_full_vector,
    soft_branch_lattice,
    soft_branch_tolerance,
)
from spinboson import multiscale
from spinboson.spectral import resolvent_norm

from samplers import sample_window_oracle
from sectors import dense_operator, dense_sectors, same_parts, sector


P4_SAMPLES, P4_SEED = 6, 3


def shorter_field(field, n_scales):
    """``field`` with its first ``n_scales`` scales only; at those scales its
    modes and weights are bit for bit those of ``field``."""
    return DiscretizedField(
        field.ladder, n_scales, points_per_shell=field.points_per_shell,
        r_max=field.r_max, n_max=field.n_max,
        uv_points_per_panel=field.uv_points_per_panel,
    )


@pytest.fixture(scope="module")
def practical():
    """One shared small practical run: g = 0.05, 4 scales, P4 sampled.

    The checks write nothing into a trace, so every test reads this one.
    """
    from spinboson import CutoffLadder

    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    lad = CutoffLadder(0.25, 0.5, e1=1.0)
    field = DiscretizedField(lad, n_scales=4, points_per_shell=3, r_max=4.0,
                             n_max=2, uv_points_per_panel=3)
    trace = run_ladder(cfg, field, jobs=1, samples_per_scale=P4_SAMPLES, seed=P4_SEED)
    return cfg, field, trace


class TestFreeModel:
    def test_exact_levels_and_projectors(self, cfg, small_field):
        cfg0 = cfg.replace(g=0.0)
        trace = run_ladder(cfg0, small_field, jobs=1)
        for rec in trace.scales:
            for i in (0, 1):
                data = rec.levels[i]
                bare = cfg.e1 if i == 1 else cfg.e0
                assert abs(data.lam - bare) < 1e-12
                assert data.p2_unique
                assert data.projector_residual < 1e-10
                if data.p1_gap is not None:
                    assert data.p1_gap < 1e-12
                if data.atomic_projector_gap is not None:
                    assert data.atomic_projector_gap < 1e-12
                if data.p3_gap is not None:
                    assert data.p3_gap < 1e-12

    def test_minimal_two_scale_extrapolation(self, cfg, small_field):
        cfg0 = cfg.replace(g=0.0)
        field = shorter_field(small_field, 2)
        trace = run_ladder(cfg0, field, jobs=1)
        result = extrapolate_limit(trace)
        for i in (0, 1):
            assert result["levels"][i]["error_bar"] == 0.0
            # the free eigenvectors are exact on every grid
            residuals = result["levels"][i]["eigenvector_residuals"]
            assert len(residuals) == 2 and max(residuals) < 1e-12


class TestPracticalRun:
    def test_p1_p3_practical_envelopes(self, practical):
        cfg, field, trace = practical
        p1 = check_p1(trace, log10_C=9.0)
        p3 = check_p3(trace, log10_C=9.0)
        for i in (0, 1):
            assert p1["levels"][i]["all_practical_pass"]
            assert p3["levels"][i]["all_practical_pass"]
            assert 0.0 < p1["levels"][i]["fitted_ratio"] < 1.0
            assert 0.0 < p3["levels"][i]["fitted_ratio"] < 1.0

    def test_strict_bounds_reported(self, practical):
        cfg, field, trace = practical
        p1 = check_p1(trace, log10_C=9.0)
        rows = p1["levels"][1]["rows"]
        assert all("strict_bound_log10" in r for r in rows)
        # the strict bound with C ~ 1e9 is astronomically loose
        assert all(r["strict_pass"] for r in rows)

    def test_contour_safety(self, practical):
        _, _, trace = practical
        for rec in trace.scales:
            for data in rec.levels.values():
                assert data.contour_safe
                assert data.gap > 2.0 * rec.contour_radius

    def test_rayleigh_agreement_recorded(self, practical):
        _, _, trace = practical
        for rec in trace.scales:
            for data in rec.levels.values():
                assert data.rayleigh_disagreement < 1e-8

    def test_p2_classification(self, practical):
        _, _, trace = practical
        for rec in trace.scales:
            for data in rec.levels.values():
                assert data.p2_violation_count == 0
                assert data.p2_unique
                assert data.p2_count_window == 1 + data.p2_soft_branch_count

    def test_deterministic_rerun(self, practical):
        cfg, field, trace = practical
        again = run_ladder(cfg, field, jobs=1, samples_per_scale=P4_SAMPLES,
                           seed=P4_SEED)
        assert again.to_dict() == trace.to_dict()

    def test_extrapolation_and_residuals(self, practical):
        cfg, field, trace = practical
        result = extrapolate_limit(trace)
        for i in (0, 1):
            level = result["levels"][i]
            assert level["error_bar"] > 0.0
            res = level["eigenvector_residuals"]
            assert res[-1] < 1e-10  # final scale is exact on the full grid
            assert res[0] > res[-1]
        # error bar covers the observed remaining motion
        lam_last = trace.scales[-1].levels[1].lam
        lam_prev = trace.scales[-2].levels[1].lam
        assert abs(lam_last - lam_prev) < result["levels"][1]["error_bar"]

    def test_p2_p4_report(self, practical):
        """The report holds each fit K_n; the samples stay on the levels."""
        cfg, field, trace = practical
        report = check_p2_p4(trace)
        for rec in trace.scales:
            for i, data in rec.levels.items():
                entry = data.p4
                assert report["p4"][str(i)][str(rec.n)] == {"K_n": entry["K_n"]}
                assert len(entry["samples"]) == P4_SAMPLES
                assert np.isfinite(entry["K_n"]) and entry["K_n"] > 0
                for sample in entry["samples"]:
                    assert sample["lhs"] <= entry["K_n"] * sample["shape"] * (
                        1 + 1e-12
                    )
        for i in ("0", "1"):
            assert all(v["unique"] for v in report["p2"][i].values())

    def test_checks_leave_the_trace_alone(self, cfg, small_field):
        """Every check returns its report and writes nothing into the trace
        (a fresh one: the shared trace has met every check already)."""
        trace = run_ladder(cfg, small_field, jobs=1, samples_per_scale=2)
        before = trace.to_dict()
        check_p1(trace, log10_C=9.0)
        check_p3(trace, log10_C=9.0)
        check_p2_p4(trace)
        extrapolate_limit(trace)
        assert trace.to_dict() == before
        assert not hasattr(trace, "checks") and not hasattr(trace, "extrapolated")

    def test_p4_pole_removed_near_lambda(self, practical):
        cfg, field, trace = practical
        rec = trace.scales[-1]
        data = rec.levels[1]
        H = assemble_hamiltonian(cfg, field, n=rec.n)
        proj = data.projector
        lam = data.lam
        # approach the eigenvalue: the projected resolvent stays bounded
        norms = [resolvent_norm(H, lam + eps, proj) for eps in (1e-4, 1e-6, 1e-8)]
        assert max(norms) / min(norms) < 10.0


    def test_without_samples_p4_check_raises(self, cfg, small_field):
        trace = run_ladder(cfg, shorter_field(small_field, 1), levels=(1,), jobs=1)
        assert trace.scales[0].levels[1].p4 is None
        with pytest.raises(TrackingError, match="no P4 samples"):
            check_p2_p4(trace)


class TestReassemblyOracle:
    """The route before the scale loop kept its operators: every scale
    assembled afresh after the ladder, P4 sampled from one generator in
    (scale, level) order by the old window sampler, residuals from a fresh
    full-grid operator."""

    def test_p4_samples_and_fits_bit_for_bit(self, practical):
        cfg, field, trace = practical
        rng = np.random.default_rng(P4_SEED)
        for rec in trace.scales:
            H = assemble_hamiltonian(cfg, field, n=rec.n)
            basis = field.basis_for_scale(rec.n)
            eigs = np.concatenate(
                [np.linalg.eigvals(s.dense()) for s in H.sectors.values()]
            )
            starved = eigs[
                brute_lattice_dist(soft_branch_lattice(cfg, basis), eigs)
                <= soft_branch_tolerance(cfg, basis.modes)
            ]
            for i, data in rec.levels.items():
                zs = sample_window_oracle(
                    rng, Box.wn(cfg, i, rec.rho_n, data.lam), data.lam,
                    rec.contour_radius, P4_SAMPLES, avoid=starved,
                    avoid_radius=0.1 * rec.rho_n,
                )
                samples = data.p4["samples"]
                assert [s["z"] for s in samples] == zs
                k_fit = 0.0
                for z, sample in zip(zs, samples):
                    lhs = resolvent_norm(H, z, data.projector)
                    shape = 1.0 / (rec.rho_n + abs(z - data.lam))
                    assert (lhs, shape) == (sample["lhs"], sample["shape"])
                    k_fit = max(k_fit, lhs / shape)
                assert k_fit == data.p4["K_n"]

    def test_full_grid_residuals_bit_for_bit(self, practical):
        cfg, field, trace = practical
        H_full = assemble_hamiltonian(cfg, field, n=None)
        result = extrapolate_limit(trace)
        for i in (0, 1):
            want = []
            for rec in trace.scales:
                data = rec.levels[i]
                u = _embed_full_vector(field, rec.n, field.n_scales, data.vectors[0])
                want.append(float(np.linalg.norm(H_full.matvec(u) - data.lam * u)))
            assert result["levels"][i]["eigenvector_residuals"] == want

    def test_trace_keeps_full_grid_operator_bit_for_bit(self, practical):
        """The held operator's parts are a fresh assembly's and those the dense
        route reads off its blocks: values, dtypes and memory order."""
        cfg, field, trace = practical
        fresh = assemble_hamiltonian(cfg, field, n=None)
        held = trace.operator
        assert held.dim == fresh.dim == trace.scales[-1].dim
        assert list(held.sectors) == list(fresh.sectors)
        for key, (indices, block, top) in dense_sectors(cfg, field).items():
            for sec in (held.sectors[key], fresh.sectors[key]):
                assert np.array_equal(sec.indices, indices)
                same_parts(sec, sector(block, top))
                assert np.array_equal(sec.dense(), block)

    def test_trace_operator_holds_no_dense_block(self, practical):
        _, _, trace = practical
        for sec in trace.operator.sectors.values():
            arrays = [v for v in vars(sec).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 9
            assert all(a.size < len(sec.indices) ** 2 for a in arrays)


class TestOperatorLifetime:
    def test_scale_operator_released_before_next_assembly(self, cfg, small_field,
                                                          monkeypatch):
        """Scale n's operator is gone once scale n + 1's is assembled."""
        assemble = multiscale.assemble_hamiltonian
        held = []

        def tracked(*args, **kwargs):
            alive = [ref() is not None for ref in held]
            H = assemble(*args, **kwargs)
            held.append(weakref.ref(H))
            assert not any(alive), alive
            return H

        monkeypatch.setattr(multiscale, "assemble_hamiltonian", tracked)
        trace = run_ladder(cfg, small_field, jobs=1, samples_per_scale=2)
        assert len(held) == small_field.n_scales
        # the last scale's operator stays on the trace, every other is gone
        assert [ref() is not None for ref in held] == [False] * (len(held) - 1) + [True]
        assert held[-1]() is trace.operator


class TestNestingExactness:
    def test_embedded_projector_idempotent_rank_one(self, practical):
        cfg, field, trace = practical
        n = 3
        u, l = trace.scales[n - 2].levels[1].vectors
        u_e = _embed_full_vector(field, n - 1, n, u)
        l_e = _embed_full_vector(field, n - 1, n, l)
        # the embedded rank-one projector keeps unit pairing: idempotent
        pairing = np.vdot(l_e, u_e)
        assert abs(pairing - 1.0) < 1e-10
        assert np.linalg.norm(u_e) == pytest.approx(np.linalg.norm(u))

    def test_embedding_preserves_matrix_action(self, practical):
        """H3 on an embedded H2 vector: H2's action on the embedded states,
        and new entries only on states with one boson in a new-shell mode."""
        cfg, field, trace = practical
        H2 = dense_operator(assemble_hamiltonian(cfg, field, n=2))
        H3 = dense_operator(assemble_hamiltonian(cfg, field, n=3))
        u, _ = trace.scales[1].levels[1].vectors
        u_e = _embed_full_vector(field, 2, 3, u)
        lhs = H3 @ u_e
        rhs = _embed_full_vector(field, 2, 3, H2 @ u)
        embedded = _embed_full_vector(field, 2, 3, np.ones(len(u))) != 0
        assert np.linalg.norm((lhs - rhs)[embedded]) < 1e-12
        basis = field.basis_for_scale(3)
        new_bosons = basis.states[:, basis.modes.labels == 3].sum(axis=1)
        reached = np.flatnonzero(~embedded & (lhs != 0))
        assert len(reached) and np.all(new_bosons[reached % basis.dim] == 1)


class TestGridSelfConsistency:
    def test_refining_points_moves_lambda_below_tolerance(self):
        """Mode-grid refinement shifts the tracked value only slightly."""
        from spinboson import CutoffLadder, DiscretizedField

        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
        lad = CutoffLadder(0.25, 0.5, e1=1.0)
        lams = []
        for pts in (3, 5):
            field = DiscretizedField(lad, n_scales=2, points_per_shell=pts,
                                     r_max=4.0, n_max=2,
                                     uv_points_per_panel=pts)
            trace = run_ladder(cfg, field, levels=(1,), jobs=1)
            lams.append(trace.scales[-1].levels[1].lam)
        assert abs(lams[1] - lams[0]) < 5e-3


def hand_built_lattice(cfg, modes, n_max: int) -> np.ndarray:
    """The 1-, 2- and 3-boson mode sums the lattice was once built from by
    hand, kept as an oracle; it has no sums of four or more bosons."""
    freqs = modes.frequencies
    sums = [freqs]
    if n_max >= 2:
        pair = freqs[:, None] + freqs[None, :]
        sums.append(pair[np.triu_indices(len(freqs))])
    if n_max >= 3:
        triple = (sums[1][:, None] + freqs[None, :]).ravel()
        sums.append(np.unique(np.round(triple, 14)))
    all_sums = np.concatenate(sums)
    phase = np.exp(-cfg.theta)
    return np.concatenate([cfg.e0 + phase * all_sums, cfg.e1 + phase * all_sums])


def brute_lattice_dist(lattice: np.ndarray, zs) -> np.ndarray:
    """min |lattice - z| for each z, one point at a time (inf without a lattice)."""
    if len(lattice) == 0:
        return np.full(len(zs), np.inf)
    return np.array([np.min(np.abs(lattice - z)) for z in zs])


def max_distance(points: np.ndarray, lattice: np.ndarray) -> float:
    """Largest distance from a point of ``points`` to ``lattice``."""
    return float(np.max(np.min(np.abs(points[:, None] - lattice[None, :]), axis=1)))


class TestSoftBranchLattice:
    def test_lattice_contains_single_and_pairs(self, cfg, small_field):
        basis = small_field.basis_for_scale(1)
        modes = basis.modes
        lattice = soft_branch_lattice(cfg, basis)
        phase = np.exp(-cfg.theta)
        probe = cfg.e1 + phase * (modes.frequencies[0] + modes.frequencies[1])
        assert np.min(np.abs(lattice - probe)) < 1e-14

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_equals_hand_built_sums_up_to_two_bosons(self, cfg, small_field, n_max):
        modes = small_field.modes_for_scale(2)
        lattice = soft_branch_lattice(cfg, enumerate_basis(modes, n_max))
        old = hand_built_lattice(cfg, modes, n_max)
        assert set(lattice.tolist()) == set(old.tolist())

    def test_empty_without_bosons(self, cfg, small_field):
        """At n_max = 0 the basis is the vacuum alone (the hand-built sums
        held the single bosons even there)."""
        basis = enumerate_basis(small_field.modes_for_scale(2), 0)
        assert soft_branch_lattice(cfg, basis).shape == (0,)
        census = SpectralCensus([cfg.e0, cfg.e1], [-1, 1], cfg, basis)
        assert np.isinf(census.lattice_dist).all()  # nothing is starved

    def test_agrees_with_hand_built_sums_at_three_bosons(self, cfg, small_field):
        modes = small_field.modes_for_scale(2)
        lattice = soft_branch_lattice(cfg, enumerate_basis(modes, 3))
        old = hand_built_lattice(cfg, modes, 3)
        assert max_distance(lattice, old) <= 1e-14
        assert max_distance(old, lattice) <= 1e-14

    def test_holds_every_four_boson_energy(self, cfg, small_field):
        """The hand-built sums stopped at three bosons; the basis does not."""
        modes = small_field.modes_for_scale(2)
        lattice = soft_branch_lattice(cfg, enumerate_basis(modes, 4))
        sums = np.array([
            sum(modes.frequencies[list(c)])
            for c in itertools.combinations_with_replacement(range(modes.n_modes), 4)
        ])
        phase = np.exp(-cfg.theta)
        four = np.concatenate([cfg.e0 + phase * sums, cfg.e1 + phase * sums])
        assert max_distance(four, lattice) <= 1e-14
        assert max_distance(four, hand_built_lattice(cfg, modes, 4)) > 1e-3

    def test_tolerance_scales_with_coupling(self, cfg, small_field):
        modes = small_field.modes_for_scale(1)
        t1 = soft_branch_tolerance(cfg, modes)
        t2 = soft_branch_tolerance(cfg.replace(g=0.1), modes)
        assert t2 == pytest.approx(4.0 * t1)

    @pytest.mark.parametrize("max_freq", [None, 0.3])
    def test_mask_matches_pointwise_distance(self, cfg, small_field, rng, max_freq):
        basis = small_field.basis_for_scale(2)
        lattice = soft_branch_lattice(cfg, basis)
        tol = soft_branch_tolerance(cfg, basis.modes, max_freq)
        near = lattice[::3] + 0.5 * tol * np.exp(
            2j * np.pi * rng.uniform(size=len(lattice[::3]))
        )
        far = lattice[1::3] + 3.0 * tol
        zs = np.concatenate([near, far, rng.uniform(0, 2, 20) - 0.01j])
        census = SpectralCensus(zs, np.zeros(len(zs), dtype=int), cfg, basis)
        dist = census.lattice_dist
        assert np.array_equal(dist, brute_lattice_dist(lattice, census.values))
        assert set(census.values[dist <= tol].tolist()) >= set(near.tolist())
        empty = SpectralCensus([], [], cfg, basis)
        assert empty.values.shape == empty.lattice_dist.shape == (0,)

    def test_distance_with_tied_energies(self, cfg, rng):
        """Equally spaced modes: many free energies tie, exactly or to an ulp."""
        freqs = 0.1 * np.arange(1, 9)
        modes = ModeSet(freqs, np.full(8, 0.1), np.zeros(8, dtype=int))
        basis = enumerate_basis(modes, 3)
        lattice = soft_branch_lattice(cfg, basis)
        distinct = np.unique(basis.states @ freqs)
        assert len(distinct) < basis.dim // 4  # exact ties
        assert np.diff(distinct).min() < 1e-12  # ties to an ulp
        zs = np.concatenate([
            lattice + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=len(lattice))),
            lattice[::7],
            rng.uniform(-0.5, 3.0, 200) + 1j * rng.uniform(-1.0, 0.2, 200),
        ])
        census = SpectralCensus(zs, np.zeros(len(zs), dtype=int), cfg, basis)
        assert np.array_equal(
            census.lattice_dist, brute_lattice_dist(lattice, census.values)
        )
