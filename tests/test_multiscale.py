"""Infrared ladder on small grids: tracking, induction checks, limits."""

import numpy as np
import pytest

from spinboson import (
    ModelConfig,
    assemble_hamiltonian,
    check_p1,
    check_p2_p4,
    check_p3,
    extrapolate_limit,
    run_ladder,
)
from spinboson.multiscale import (
    _embed_full_vector,
    soft_branch_lattice,
    soft_branch_tolerance,
)


@pytest.fixture(scope="module")
def practical():
    """One shared small practical run: g = 0.05, 4 scales."""
    from spinboson import CutoffLadder, DiscretizedField

    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    lad = CutoffLadder(0.25, 0.5, e1=1.0)
    field = DiscretizedField(lad, n_scales=4, points_per_shell=3, r_max=4.0,
                             n_max=2, uv_points_per_panel=3)
    trace = run_ladder(cfg, lad, field)
    return cfg, lad, field, trace


class TestFreeModel:
    def test_exact_levels_and_projectors(self, cfg, ladder, small_field):
        cfg0 = cfg.replace(g=0.0)
        trace = run_ladder(cfg0, ladder, small_field)
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

    def test_minimal_two_scale_extrapolation(self, cfg, ladder, small_field):
        cfg0 = cfg.replace(g=0.0)
        trace = run_ladder(cfg0, ladder, small_field, n_scales=2)
        result = extrapolate_limit(trace, cfg0, ladder)
        for i in (0, 1):
            assert result["levels"][i]["error_bar"] == 0.0


class TestPracticalRun:
    def test_p1_p3_practical_envelopes(self, practical):
        cfg, lad, field, trace = practical
        p1 = check_p1(trace, cfg, lad)
        p3 = check_p3(trace, cfg, lad)
        for i in (0, 1):
            assert p1["levels"][i]["all_practical_pass"]
            assert p3["levels"][i]["all_practical_pass"]
            assert 0.0 < p1["levels"][i]["fitted_ratio"] < 1.0
            assert 0.0 < p3["levels"][i]["fitted_ratio"] < 1.0

    def test_strict_bounds_reported(self, practical):
        cfg, lad, field, trace = practical
        p1 = check_p1(trace, cfg, lad, log10_C=9.0)
        rows = p1["levels"][1]["rows"]
        assert all("strict_bound_log10" in r for r in rows)
        # the strict bound with C ~ 1e9 is astronomically loose
        assert all(r["strict_pass"] for r in rows)

    def test_contour_safety(self, practical):
        _, _, _, trace = practical
        for rec in trace.scales:
            for data in rec.levels.values():
                assert data.contour_safe
                assert data.gap > 2.0 * rec.contour_radius

    def test_rayleigh_agreement_recorded(self, practical):
        _, _, _, trace = practical
        for rec in trace.scales:
            for data in rec.levels.values():
                assert data.rayleigh_disagreement < 1e-8

    def test_p2_classification(self, practical):
        _, _, _, trace = practical
        for rec in trace.scales:
            for data in rec.levels.values():
                assert data.p2_violation_count == 0
                assert data.p2_unique
                assert data.p2_count_window == 1 + data.p2_soft_branch_count

    def test_deterministic_rerun(self, practical):
        cfg, lad, field, trace = practical
        again = run_ladder(cfg, lad, field)
        assert again.to_dict() == trace.to_dict()

    def test_extrapolation_and_residuals(self, practical):
        cfg, lad, field, trace = practical
        result = extrapolate_limit(trace, cfg, lad, field)
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
        cfg, lad, field, trace = practical
        report = check_p2_p4(trace, cfg, lad, field, samples_per_scale=6,
                             seed=3)
        for i in ("0", "1"):
            for n, entry in report["p4"][i].items():
                assert np.isfinite(entry["K_n"]) and entry["K_n"] > 0
                for sample in entry["samples"]:
                    assert sample["lhs"] <= entry["K_n"] * sample["shape"] * (
                        1 + 1e-12
                    )
            assert all(v["unique"] for v in report["p2"][i].values())

    def test_p4_pole_removed_near_lambda(self, practical):
        cfg, lad, field, trace = practical
        from spinboson.spectral import projected_resolvent_norm

        rec = trace.scales[-1]
        data = rec.levels[1]
        H = assemble_hamiltonian(cfg, field, n=rec.n)
        proj = trace._projectors[(rec.n, 1)]
        sector = H.sectors[proj.sector]
        lam = data.lam
        # approach the eigenvalue: the projected resolvent stays bounded
        norms = [
            projected_resolvent_norm(sector.block, lam + eps, proj, top=sector.top)
            for eps in (1e-4, 1e-6, 1e-8)
        ]
        assert max(norms) / min(norms) < 10.0


class TestNestingExactness:
    def test_embedded_projector_idempotent_rank_one(self, practical):
        cfg, lad, field, trace = practical
        n = 3
        u, l = trace._vectors[(n - 1, 1)]
        u_e = _embed_full_vector(field, n - 1, n, u)
        l_e = _embed_full_vector(field, n - 1, n, l)
        # the embedded rank-one projector keeps unit pairing: idempotent
        pairing = np.vdot(l_e, u_e)
        assert abs(pairing - 1.0) < 1e-10
        assert np.linalg.norm(u_e) == pytest.approx(np.linalg.norm(u))

    def test_embedding_preserves_matrix_action(self, practical):
        cfg, lad, field, trace = practical
        H2 = assemble_hamiltonian(cfg, field, n=2).to_dense()
        H3t = assemble_hamiltonian(
            cfg, field, n=3, interaction_scale=2
        ).to_dense()
        u, _ = trace._vectors[(2, 1)]
        u_e = _embed_full_vector(field, 2, 3, u)
        lhs = H3t @ u_e
        rhs = _embed_full_vector(field, 2, 3, H2 @ u)
        assert np.linalg.norm(lhs - rhs) < 1e-12


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
            trace = run_ladder(cfg, lad, field, levels=(1,))
            lams.append(trace.scales[-1].levels[1].lam)
        assert abs(lams[1] - lams[0]) < 5e-3


class TestSoftBranchLattice:
    def test_lattice_contains_single_and_pairs(self, cfg, small_field):
        modes = small_field.modes_for_scale(1)
        lattice = soft_branch_lattice(cfg, modes, 2)
        phase = np.exp(-cfg.theta)
        probe = cfg.e1 + phase * (modes.frequencies[0] + modes.frequencies[1])
        assert np.min(np.abs(lattice - probe)) < 1e-14

    def test_tolerance_scales_with_coupling(self, cfg, small_field):
        modes = small_field.modes_for_scale(1)
        t1 = soft_branch_tolerance(cfg, modes)
        t2 = soft_branch_tolerance(cfg.replace(g=0.1), modes)
        assert t2 == pytest.approx(4.0 * t1)
