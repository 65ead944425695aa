"""Infrared ladder on small grids: tracking, induction checks, limits."""

import weakref

import numpy as np
import pytest

from spinboson import (
    Box,
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    P4Sampler,
    SpectralCensus,
    assemble_hamiltonian,
    check_p1,
    check_p2_p4,
    check_p3,
    extrapolate_limit,
    run_ladder,
)
from spinboson.errors import TrackingError
from spinboson.fock import OperatorMatrix, Sector
from spinboson.multiscale import PAIRING, _embed_full_vector
from spinboson import multiscale
from spinboson.spectral import resolvent_norm

from samplers import sample_window_oracle
from sectors import dense, dense_operator, dense_sectors, same_parts, sector


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
def practical_p4():
    """One shared small practical run: g = 0.05, 4 scales, with the P4
    consumer attached.  It returns the P4 sampler after the trace.

    The checks write nothing into a trace, so every test reads this one.
    """
    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    lad = CutoffLadder(0.25, 0.5, e1=1.0)
    field = DiscretizedField(lad, n_scales=4, points_per_shell=3, r_max=4.0,
                             n_max=2, uv_points_per_panel=3)
    p4 = P4Sampler(P4_SAMPLES, P4_SEED)
    trace = run_ladder(cfg, field, jobs=1, consumers=(p4,))
    return cfg, field, trace, p4


@pytest.fixture(scope="module")
def practical(practical_p4):
    """The shared run's model, grid and trace."""
    return practical_p4[:3]


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

    def test_deterministic_rerun(self, practical_p4):
        cfg, field, trace, p4 = practical_p4
        again_p4 = P4Sampler(P4_SAMPLES, P4_SEED)
        again = run_ladder(cfg, field, jobs=1, consumers=(again_p4,))
        assert again.to_dict() == trace.to_dict()
        assert again_p4.rows == p4.rows

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

    def test_p2_p4_report(self, practical_p4):
        """The report holds each fit K_n and the points skipped per reason;
        the samples stay in the consumer's rows."""
        cfg, field, trace, p4 = practical_p4
        report = check_p2_p4(trace, p4.rows)
        assert set(p4.rows) == {(rec.n, i) for rec in trace.scales for i in rec.levels}
        for rec in trace.scales:
            for i, data in rec.levels.items():
                entry = p4.rows[rec.n, i]
                skipped = entry["skipped"]
                reasons = ("outside", "artifact", "near_lambda")
                assert set(skipped) <= set(reasons)
                assert report["p4"][str(i)][str(rec.n)] == {
                    "K_n": entry["K_n"],
                    "n_skipped": {r: skipped[r] for r in reasons},
                }
                assert len(entry["samples"]) == P4_SAMPLES
                assert np.isfinite(entry["K_n"]) and entry["K_n"] > 0
                for sample in entry["samples"]:
                    assert sample["lhs"] <= entry["K_n"] * sample["shape"] * (
                        1 + 1e-12
                    )
        for i in ("0", "1"):
            assert all(v["unique"] for v in report["p2"][i].values())

    def test_p4_keeps_the_points_around_lambda(self, cfg, small_field):
        """The CI tiny config (``cfg`` on ``small_field``) at 40 samples per
        scale.  At scale 3, lambda_1's window holds no starved eigenvalue:
        a rule that let lambda_1 count as an artifact skipped 4 points
        around it, this one skips none."""
        p4 = P4Sampler(40, 0)
        trace = run_ladder(cfg, small_field, jobs=1, consumers=(p4,))
        rec = trace.scales[2]
        lam = rec.levels[1].lam
        window = Box.wn(cfg, 1, rec.rho_n, lam)
        assert not rec.census.starved(window, lam).any()
        assert p4.rows[3, 1]["skipped"]["artifact"] == 0
        report = check_p2_p4(trace, p4.rows)["p4"]["1"]["3"]
        assert report["n_skipped"]["artifact"] == 0
        assert len(p4.rows[3, 1]["samples"]) == 40

    def test_checks_leave_the_trace_alone(self, cfg, small_field):
        """Every check returns its report and writes nothing into the trace
        (a fresh one: the shared trace has met every check already)."""
        p4 = P4Sampler(2, 0)
        trace = run_ladder(cfg, small_field, jobs=1, consumers=(p4,))
        before = trace.to_dict()
        check_p1(trace, log10_C=9.0)
        check_p3(trace, log10_C=9.0)
        check_p2_p4(trace, p4.rows)
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


class TestReassemblyOracle:
    """The route before the scale loop kept its operators: every scale
    assembled afresh after the ladder, P4 sampled from one generator in
    (scale, level) order by the old window sampler, residuals from a fresh
    full-grid operator."""

    def test_p4_samples_and_fits_bit_for_bit(self, practical_p4):
        cfg, field, trace, p4 = practical_p4
        rng = np.random.default_rng(P4_SEED)
        for rec in trace.scales:
            H = assemble_hamiltonian(cfg, field, n=rec.n)
            eigs = [np.linalg.eigvals(dense(s)) for s in H.sectors.values()]
            keys = np.repeat(list(H.sectors), [len(e) for e in eigs])
            eigs = np.concatenate(eigs)
            for i, data in rec.levels.items():
                # the window's starved eigenvalues, lambda aside
                window = Box.wn(cfg, i, rec.rho_n, data.lam)
                starved = eigs[brute_starved(eigs, keys, window, data.lam, H)]
                zs = sample_window_oracle(
                    rng, window, data.lam, rec.contour_radius, P4_SAMPLES,
                    avoid=starved, avoid_radius=0.1 * rec.rho_n,
                )
                samples = p4.rows[rec.n, i]["samples"]
                assert [s["z"] for s in samples] == zs
                k_fit = 0.0
                for z, sample in zip(zs, samples):
                    lhs = resolvent_norm(H, z, data.projector)
                    shape = 1.0 / (rec.rho_n + abs(z - data.lam))
                    assert (lhs, shape) == (sample["lhs"], sample["shape"])
                    k_fit = max(k_fit, lhs / shape)
                assert k_fit == p4.rows[rec.n, i]["K_n"]

    def test_full_grid_residuals_bit_for_bit(self, practical):
        cfg, field, trace = practical
        H_full = assemble_hamiltonian(cfg, field, n=None)
        result = extrapolate_limit(trace)
        for i in (0, 1):
            want = []
            for rec in trace.scales:
                data = rec.levels[i]
                u = _embed_full_vector(field, rec.n, field.n_scales, data.vector)
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
                assert np.array_equal(dense(sec), block)

    def test_trace_operator_holds_no_dense_block(self, practical):
        _, _, trace = practical
        for sec in trace.operator.sectors.values():
            arrays = [v for v in vars(sec).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 6  # indices, top, rest, d, a_rr, a_rt
            assert all(a.size < len(sec.indices) ** 2 for a in arrays)


class TestOperatorLifetime:
    @staticmethod
    def watched_assembly(monkeypatch) -> list:
        """Weak references to every operator the ladder assembles from now
        on; each assembly asserts that no earlier one is alive, nor any of
        its sectors (which the scale's census held for its re-solves)."""
        assemble = multiscale.assemble_hamiltonian
        held, parts = [], []

        def tracked(*args, **kwargs):
            alive = [ref() is not None for ref in held]
            kept = [any(ref() is not None for ref in refs) for refs in parts]
            H = assemble(*args, **kwargs)
            held.append(weakref.ref(H))
            parts.append([weakref.ref(sec) for sec in H.sectors.values()])
            assert not any(alive), alive
            assert not any(kept), ("sector parts kept", kept)
            return H

        monkeypatch.setattr(multiscale, "assemble_hamiltonian", tracked)
        return held

    def test_scale_operator_released_before_next_assembly(self, cfg, small_field,
                                                          monkeypatch):
        """Scale n's operator is gone once scale n + 1's is assembled, with
        the P4 consumer attached."""
        held = self.watched_assembly(monkeypatch)
        p4 = P4Sampler(2, 0)
        trace = run_ladder(cfg, small_field, jobs=1, consumers=(p4,))
        assert len(held) == small_field.n_scales
        assert len(p4.rows) == 2 * small_field.n_scales
        # the last scale's operator stays on the trace, every other is gone
        assert [ref() is not None for ref in held] == [False] * (len(held) - 1) + [True]
        assert held[-1]() is trace.operator
        assert all(rec.operator is None for rec in trace.scales)

    def test_consumer_keeping_the_operator_is_caught(self, cfg, small_field,
                                                     monkeypatch):
        """The check above fails for a consumer that keeps the previous
        scale's operator beside P4."""
        self.watched_assembly(monkeypatch)
        kept = []
        consumers = (P4Sampler(2, 0), lambda rec: kept.append(rec.operator))
        with pytest.raises(AssertionError, match=r"\[True\]"):
            run_ladder(cfg, small_field, jobs=1, consumers=consumers)
        assert len(kept) == 1

    def test_census_drops_the_sector_parts(self, cfg, small_field, monkeypatch):
        """Every scale's census stays on the trace, but the generator has it
        drop the sector parts when it clears the operator: the assembly
        check fails for a census that keeps them."""
        self.watched_assembly(monkeypatch)
        trace = run_ladder(cfg, small_field, jobs=1)
        assert all(rec.census.work for rec in trace.scales)
        del trace  # its full-grid operator
        monkeypatch.setattr(SpectralCensus, "release", lambda census: None)
        with pytest.raises(AssertionError, match="sector parts kept"):
            run_ladder(cfg, small_field, jobs=1)

    def test_released_census_refuses_an_uncertified_query(self, cfg, small_field):
        """After the release a query that meets a far disc raises, where it
        would have re-solved."""
        rec = run_ladder(cfg, small_field, jobs=1).scales[0]
        everywhere = Box(1.0, 10.0, -5.0, 1.0)
        with pytest.raises(TrackingError, match="released"):
            rec.census.in_box(everywhere)


class TestNestingExactness:
    def test_embedded_projector_idempotent_rank_one(self, practical):
        cfg, field, trace = practical
        n = 3
        u = trace.scales[n - 2].levels[1].vector
        u_e = _embed_full_vector(field, n - 1, n, u)
        # the embedded u keeps its pairing u^T u, so u u^T / (u^T u) stays
        # an idempotent of rank one
        assert u_e @ u_e == pytest.approx(u @ u, abs=1e-15)
        assert np.linalg.norm(u_e) == pytest.approx(np.linalg.norm(u))

    def test_embedding_preserves_matrix_action(self, practical):
        """H3 on an embedded H2 vector: H2's action on the embedded states,
        and new entries only on states with one boson in a new-shell mode."""
        cfg, field, trace = practical
        H2 = dense_operator(assemble_hamiltonian(cfg, field, n=2))
        H3 = dense_operator(assemble_hamiltonian(cfg, field, n=3))
        u = trace.scales[1].levels[1].vector
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


def dense_shifts(sec) -> np.ndarray:
    """s_t = sum_r A_rt^2 / (A_tt - A_rr) over the dense matrix, one top
    position at a time: the route that reads no sector part but ``top``.
    Only the coupled r enter; an uncoupled one may tie with t (powers-of-two
    shells make some three-boson energies equal one-boson ones)."""
    A = dense(sec)
    out = []
    for t in sec.top:
        r = sec.rest[A[sec.rest, t] != 0]
        out.append(np.sum(A[r, t] ** 2 / (A[t, t] - A[r, r])))
    return np.array(out, dtype=complex)


def brute_starved(values, keys, box, lam, H) -> np.ndarray:
    """The starved rule by brute force: in the box, not lam, and within
    PAIRING |s_t| of a top entry d_t of its own sector, pair by pair."""
    tops = {
        key: list(zip(np.diag(dense(sec))[sec.top], dense_shifts(sec)))
        for key, sec in H.sectors.items()
    }
    mask = np.zeros(len(values), dtype=bool)
    for k, (z, key) in enumerate(zip(values, keys)):
        if box.contains(z) and abs(z - lam) > 1e-12 * max(1.0, abs(lam)):
            mask[k] = any(abs(z - d) <= PAIRING * abs(s) for d, s in tops[key])
    return mask


class TestStarvedPairing:
    """A box eigenvalue other than lambda is starved exactly when it lies
    within PAIRING |s_t| of a top-layer entry d_t of its own sector."""

    @pytest.fixture(scope="class", params=[2, 3])
    def operator(self, request):
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.04 + 0.03j,
                          theta=0.2j)
        field = DiscretizedField(CutoffLadder(0.25, 0.5, e1=1.0), n_scales=3,
                                 points_per_shell=2, r_max=4.0,
                                 n_max=request.param, uv_points_per_panel=2)
        H = assemble_hamiltonian(cfg, field)
        return cfg, field, H, SpectralCensus.of(H, None, jobs=1)

    def test_shifts_match_the_dense_route(self, operator):
        _, _, H, census = operator
        for key, sec in H.sectors.items():
            want = dense_shifts(sec)
            got = sec.top_shifts()
            assert len(got) == len(sec.top) > 0 and np.all(want != 0)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
            d, shift = census.partners[key]
            assert np.array_equal(d, sec.d) and np.array_equal(shift, got)

    @pytest.mark.parametrize("where", ["b1", "wide"])
    def test_mask_matches_brute_force(self, operator, where):
        """In the first-scale box of the resonance (it holds no starved
        value on this grid) and in a box holding every eigenvalue; lambda is
        the value nearest e1."""
        cfg, field, H, census = operator
        box = {
            "b1": Box.b1(cfg, 1, field.ladder.cutoff(1)),
            "wide": Box(1.0, 10.0, -5.0, 1.0),
        }[where]
        lam = census.nearest(cfg.e1)
        mask = census.starved(box, lam)
        brute = brute_starved(census.values, census.sectors, box, lam, H)
        assert np.array_equal(mask, brute)
        assert mask.any() == (where == "wide")

    def test_synthetic_pairs(self):
        """1.5 |s_t| from d_t is starved, 3 |s_t| is not, next to the other
        sector's top entry is not, and lambda on a d_t never is."""
        d, s = np.array([1.0 - 0.01j]), np.array([1e-4 + 2e-4j])
        other = np.array([1.2 - 0.01j])
        r = abs(s[0])
        partners = {1: (d, s), -1: (other, s)}
        values = [d[0] + 1.5 * r, d[0] - 3j * r, other[0] + 1.5 * r, 1.1]
        census = SpectralCensus(values, [1, 1, 1, 1], partners)
        box = Box(1.0, 0.5, -0.1, 0.1)
        starved = dict(zip(census.values.tolist(), census.starved(box, 1.1)))
        assert starved == {values[0]: True, values[1]: False, values[2]: False,
                           1.1: False}
        census = SpectralCensus([d[0], d[0] + 0.5 * r], [1, 1], partners)
        assert census.starved(box, d[0]).tolist() == [False, True]
        assert census.starved(box, d[0] + 0.5 * r).tolist() == [True, False]
        empty = SpectralCensus([], [], partners)
        assert empty.starved(box, 1.1).shape == (0,)

    def test_planted_non_partner_breaks_uniqueness(self, cfg, small_field,
                                                   monkeypatch):
        """A census value in every window, far from every top entry, counts
        as a P2 violation and clears ``p2_unique``."""
        of = SpectralCensus.of
        planted = {0: cfg.e0 + 0.1 + 0.01j, 1: cfg.e1 + 0.1 + 0.01j}

        def with_planted(H, region, *, jobs):
            census = of(H, None, jobs=jobs)  # every eigenvalue, then the planted
            values = np.append(census.values, list(planted.values()))
            keys = np.append(census.sectors, [-1, 1])
            return SpectralCensus(values, keys, census.partners)

        monkeypatch.setattr(multiscale.SpectralCensus, "of", with_planted)
        trace = run_ladder(cfg, small_field, jobs=1)
        for rec in trace.scales:
            for i, data in rec.levels.items():
                window = Box.wn(cfg, i, rec.rho_n, data.lam)
                assert window.contains(planted[i])
                assert not rec.census.starved(window, data.lam).any()
                assert data.p2_violation_count == 1 and not data.p2_unique

    def test_partners_persist_at_one_more_boson(self):
        """Falsifier of the exemption: a starved z paired with d_t has lost
        only the decay its level gives it.  At n_max + 1 its sector has an
        eigenvalue within 0.05 |lambda_i - e_i| of d_t + (lambda_i - e_i);
        measured 2.3e-5 against 1.8e-4 at level 0 and 3.4e-4 against 8.5e-4
        at level 1.  z itself is no such witness: it lies up to 3.6e-3
        (level 0) and 1.4e-2 (level 1) from every n_max + 1 eigenvalue."""
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
        lad = CutoffLadder(0.25, 0.5, e1=1.0)

        def grid(n_max):
            return DiscretizedField(lad, n_scales=5, points_per_shell=2,
                                    r_max=4.0, n_max=n_max, uv_points_per_panel=2)

        last = run_ladder(cfg, grid(2), jobs=1).scales[-1]
        census = last.census
        above = SpectralCensus.of(assemble_hamiltonian(cfg, grid(3)), None, jobs=1)
        for i in (0, 1):
            lam = last.levels[i].lam
            dressing = lam - (cfg.e1 if i == 1 else cfg.e0)
            bound = 0.05 * abs(dressing)
            mask = census.starved(Box.b1(cfg, i, lad.cutoff(1)), lam)
            assert np.count_nonzero(mask) == 13
            witness, mutant = [], []
            for z, key in zip(census.values[mask], census.sectors[mask]):
                d, s = census.partners[key]
                t = np.argmin(np.abs(z - d))
                assert abs(z - d[t]) <= PAIRING * abs(s[t])
                own = above.values[above.sectors == key]
                witness.append(np.min(np.abs(own - (d[t] + dressing))))
                mutant.append(np.min(np.abs(own - z)))
            assert max(witness) <= bound, (i, max(witness), bound)
            assert max(mutant) > bound, (i, max(mutant), bound)


# (name, config document, tracked levels): the CI tiny config, the benchmark
# ``ladder`` and ``resolvent-scan`` configs (``bench/workloads.json``) and the
# README config
_MODEL = {"e1": 1.0, "lambda_uv": 1.0, "mu": 0.25, "g": 0.05, "theta": [0.0, 0.2],
          "nu_floor": 0.1, "m_cone": 4}
_BENCH = {"model": _MODEL, "ladder": {"rho0": 0.25, "rho": 0.5, "n_scales": 3},
          "discretization": {"points_per_shell": 2, "r_max": 4.0, "n_max": 2}}
CENSUS_CONFIGS = [
    ("tiny", {"ladder": {"n_scales": 3},
              "discretization": {"points_per_shell": 2, "uv_points_per_panel": 2}},
     (0, 1)),
    ("ladder", _BENCH, (0, 1)),
    ("resolvent-scan", _BENCH, (1,)),
    ("readme", {**_BENCH, "ladder": {"rho0": 0.25, "rho": 0.5, "n_scales": 6},
                "discretization": {"points_per_shell": 8, "r_max": 4.0, "n_max": 2}},
     (0, 1)),
]


def close_to(values, want) -> bool:
    """Each of ``values`` within 1e-12 relative (to max(1, |z|)) of ``want``'s
    entry at the same place."""
    values, want = np.asarray(values), np.asarray(want)
    scale = np.maximum(1.0, np.abs(want))
    return len(values) == len(want) and bool(
        np.all(np.abs(values - want) <= 1e-12 * scale))


def unmatched(values, spectrum) -> np.ndarray:
    """``spectrum`` less, for each of ``values``, its nearest entry."""
    left = list(spectrum)
    for z in values:
        left.pop(int(np.argmin(np.abs(np.array(left) - z))))
    return np.array(left)


class TestDecoupledCensus:
    """The census decouples the far top-layer entries and certifies every
    query against their discs; the dense census is its oracle."""

    @pytest.fixture(scope="class")
    def full_grid(self):
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
        field = DiscretizedField(CutoffLadder(0.25, 0.5, e1=1.0), n_scales=3,
                                 points_per_shell=2, r_max=4.0, n_max=2,
                                 uv_points_per_panel=2)
        return cfg, field, assemble_hamiltonian(cfg, field)

    @staticmethod
    def boxes(cfg, field):
        return [Box.b1(cfg, i, field.ladder.cutoff(1)) for i in (0, 1)]

    def test_reach_matches_the_dense_route(self, full_grid):
        """w_t = sum_r |A_rt| (sum_s |A_rs|) / |A_tt - A_rr| over the coupled r
        of the dense matrix, s over the top layer, one position at a time."""
        _, _, H = full_grid
        for sec in H.sectors.values():
            A = dense(sec)
            want = []
            for t in sec.top:
                r = sec.rest[A[sec.rest, t] != 0]
                row = np.abs(A[np.ix_(r, sec.top)]).sum(axis=1)
                want.append(np.sum(np.abs(A[r, t]) * row / np.abs(A[t, t] - A[r, r])))
            got = sec.top_reach()
            assert np.all(np.array(want) > 0)
            assert np.max(np.abs(got - want) / np.array(want)) <= 1e-12

    def test_far_discs_hold_the_far_spectrum(self, full_grid):
        """Every dense eigenvalue the near block does not give lies in the
        union of the far discs, plain and with any set of discs shrunk."""
        cfg, field, H = full_grid
        census = SpectralCensus.of(H, self.boxes(cfg, field), jobs=1)
        exact = SpectralCensus.of(H, None, jobs=1)
        assert set(census.far) == {1, -1}
        for key, discs in census.far.items():
            near = census.values[census.sectors == key]
            rest = unmatched(near, exact.values[exact.sectors == key])
            work = census.work[key]
            assert (len(near), len(rest)) == (work["near"], work["far"])
            shrunk = np.zeros(len(discs.centers), dtype=bool)
            shrunk[np.argsort(np.abs(discs.centers - cfg.e1))[:5]] = True
            plain = discs.radii(np.zeros(len(shrunk), dtype=bool), 1.0)
            for radii in (plain, discs.radii(shrunk, 0.25)):
                reach = np.abs(rest[:, None] - discs.centers) - radii
                assert np.all(np.min(reach, axis=1) <= 1e-12)

    @pytest.mark.parametrize("factor", [1.0, 0.5, 0.0625])
    def test_radii_are_the_row_sums_of_the_scaled_bound(self, rng, factor):
        """radii(shrunk, factor) are the off-diagonal row sums of D^(-1) |X||A| D,
        D = 1/factor on the shrunk rows: the bound |X||A| >= |X A| entrywise
        and the similarity, one entry at a time."""
        x, a = rng.uniform(0, 1, (7, 3)), rng.uniform(0, 1, (3, 7))
        discs = multiscale.FarDiscs(np.zeros(7, dtype=complex), x, a)
        shrunk = np.arange(7) % 3 == 0
        scale = np.where(shrunk, 1.0 / factor, 1.0)
        bound = (x @ a) * scale[None, :] / scale[:, None]
        want = bound.sum(axis=1) - np.diag(bound)
        assert np.allclose(discs.radii(shrunk, factor), want, rtol=1e-13, atol=0)

    @pytest.fixture(scope="class")
    def planted(self, full_grid):
        """The full grid with a coupled top entry of sector +1 moved to the
        middle of level 1's B1 box, and that box and level 0's."""
        cfg, field, H = full_grid
        b0, b1 = self.boxes(cfg, field)
        sec = H.sectors[+1]
        t = int(np.argmax(np.abs(sec.a_rt).sum(axis=0)))
        d = sec.d.copy()
        d[t] = complex(b1.level, 0.5 * (b1.lo + b1.hi))
        moved = Sector(sec.indices, sec.top, d, sec.a_rr, sec.a_rt)
        return OperatorMatrix(H.dim, {**H.sectors, +1: moved}), b0, b1, d[t]

    def test_planted_top_entry_forces_a_counted_resolve(self, planted):
        """With only level 0's box as the region, the entry planted in level
        1's box counts as far; the query of level 1's box meets its disc
        and re-solves that sector densely, once, which gives the dense
        census's values bit for bit."""
        H, b0, b1, z = planted
        census = SpectralCensus.of(H, [b0], jobs=1)
        work = census.work[+1]
        assert work["far"] > 0 and work["dense_resolves"] == 0
        t = np.flatnonzero(H.sectors[+1].d == z)[0]
        assert b0.distance(z) > multiscale.REACH * H.sectors[+1].top_reach()[t]
        inside = census.in_box(b1)
        assert work == {**work, "near": work["dim"], "far": 0, "dense_resolves": 1}
        assert census.work[-1]["dense_resolves"] == 0
        exact = SpectralCensus.of(H, None, jobs=1)
        own = census.values[census.sectors == +1]
        assert np.array_equal(own, exact.values[exact.sectors == +1])
        assert close_to(inside, exact.in_box(b1))
        assert np.min(np.abs(inside - z)) < 0.01  # the planted eigenvalue
        census.in_box(b1)  # certified now: no second re-solve
        assert work["dense_resolves"] == 1

    @pytest.mark.parametrize("query", ["nearest", "gap", "circle", "box", "starved"])
    def test_every_query_is_certified(self, planted, query):
        """Each query next to the planted entry re-solves its sector and
        answers as the dense census; without the re-solve it would miss the
        planted eigenvalue."""
        H, b0, b1, z = planted
        exact = SpectralCensus.of(H, None, jobs=1)
        w = exact.nearest(z)  # the planted eigenvalue
        lam = exact.values[np.argsort(np.abs(exact.values - w))[1]]

        def ask(census):
            return {
                "nearest": lambda: census.nearest(z),
                "gap": lambda: census.gap(lam),
                "circle": lambda: census.unique_in_circle(w, 1e-3),
                "box": lambda: census.in_box(b1),
                "starved": lambda: census.starved(b1, lam),
            }[query]()

        census = SpectralCensus.of(H, [b0], jobs=1)
        assert not np.any(np.abs(census.values - w) < 1e-3)
        got, want = ask(census), ask(exact)
        assert census.work[+1]["dense_resolves"] == 1
        if query == "starved":  # a mask over the values after the call
            got, want = census.values[got], exact.values[want]
            assert len(want)
        if query == "circle":
            assert got == want
        else:
            assert close_to(np.atleast_1d(got), np.atleast_1d(want))

    def test_residual_miss_resolves_densely(self, full_grid, monkeypatch):
        """One Riccati step leaves a residual far above RICCATI_RESIDUAL:
        every split sector is re-solved densely, counted, and the census is
        the dense one bit for bit."""
        cfg, field, H = full_grid
        monkeypatch.setattr(multiscale, "RICCATI_MAX_STEPS", 1)
        census = SpectralCensus.of(H, self.boxes(cfg, field), jobs=1)
        exact = SpectralCensus.of(H, None, jobs=1)
        assert not census.far
        for key, sec in H.sectors.items():
            dim = len(sec.indices)
            assert census.work[key] == {"dim": dim, "near": dim, "far": 0,
                                        "riccati_steps": 1, "dense_resolves": 1}
        assert np.array_equal(census.values, exact.values)
        assert np.array_equal(census.sectors, exact.sectors)

    def test_whole_plane_is_the_dense_route(self, full_grid):
        """Region None splits nothing: one eigvals per sector of its dense
        matrix, as many values as the dimension."""
        cfg, field, H = full_grid
        census = SpectralCensus.of(H, None, jobs=1)
        assert not census.far and len(census.values) == H.dim
        for key, sec in H.sectors.items():
            own = np.sort_complex(census.values[census.sectors == key])
            assert np.array_equal(own, np.sort_complex(np.linalg.eigvals(dense(sec))))
            assert census.work[key]["near"] == len(sec.indices)

    @pytest.mark.parametrize("name, doc, levels", CENSUS_CONFIGS,
                             ids=[c[0] for c in CENSUS_CONFIGS])
    def test_matches_the_dense_census(self, name, doc, levels, monkeypatch):
        """The tolerance against the dense route, at every scale: each census
        value within 1e-12 relative of a dense eigenvalue, lambda and its gap
        too; equal counts in every window and box; identical P2 counts,
        starved counts and verdicts.  No sector is re-solved on these grids."""
        import json

        from spinboson.cli import parse_config

        rc = parse_config(json.dumps(doc))
        cfg, field = rc.model, rc.field
        split = run_ladder(cfg, field, levels=levels, jobs=1)
        of = SpectralCensus.of.__func__
        monkeypatch.setattr(SpectralCensus, "of", classmethod(
            lambda cls, H, region, *, jobs: of(cls, H, None, jobs=jobs)))
        exact = run_ladder(cfg, field, levels=levels, jobs=1)
        p2 = ("p2_count_window", "p2_count_box", "p2_soft_branch_count",
              "p2_violation_count", "p2_unique", "contour_safe")
        for got, want in zip(split.scales, exact.scales):
            census, full = got.census, want.census
            assert all(w["dense_resolves"] == 0 for w in census.work.values())
            assert sum(w["near"] for w in census.work.values()) == len(census.values)
            for z in census.values:
                assert np.min(np.abs(full.values - z)) <= 1e-12 * max(1.0, abs(z))
            for i in levels:
                g, w = got.levels[i], want.levels[i]
                assert close_to([g.lam, g.gap], [w.lam, w.gap])
                assert [getattr(g, k) for k in p2] == [getattr(w, k) for k in p2]
                assert close_to(g.starved, w.starved)
                rho1 = field.ladder.cutoff(1)
                boxes = (g.window, Box.bn(cfg, i, rho1, got.rho_n, g.lam),
                         Box.b1(cfg, i, rho1))
                for box in boxes:
                    assert close_to(census.in_box(box), full.in_box(box))
