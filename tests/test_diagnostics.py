"""Golden rule, invariance scans, cone and resolvent surrogates."""

from dataclasses import replace

import numpy as np
import pytest

from spinboson import (
    ConfigError,
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    fermi_golden_rule,
    g_analyticity_check,
    golden_rule_coefficient,
    resolvent_cone_bound_check,
    second_order_eigenvalue,
    spectrum_cone_check,
    theta_invariance_scan,
    verify_cone_chain,
)
from spinboson import diagnostics
from spinboson.geometry import Box, Cone, dist_to_cone
from spinboson.multiscale import PAIRING, SpectralCensus, run_ladder
from spinboson.spectral import contour_eigenpair, solver_tolerance

from sectors import dense, one_sector, spectrum


@pytest.fixture(scope="module")
def coarse():
    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    lad = CutoffLadder(0.25, 0.5, e1=1.0)
    field = DiscretizedField(lad, n_scales=3, points_per_shell=3, r_max=4.0,
                             n_max=2, uv_points_per_panel=3)
    return cfg, field


class TestGoldenRuleCoefficient:
    def test_closed_form_value(self, cfg):
        # frozen from the arbitrary-precision oracle -4 pi^2 e^(-2)
        assert golden_rule_coefficient(cfg) == pytest.approx(
            -5.342822828218990, rel=1e-13
        )

    def test_matches_form_factor_square(self, cfg):
        from spinboson import form_factor

        gap = cfg.e1 - cfg.e0
        want = -4 * np.pi**2 * gap**2 * form_factor(gap, cfg) ** 2
        assert golden_rule_coefficient(cfg) == pytest.approx(want)


class TestSecondOrderOracle:
    def test_error_scales_as_fourth_power(self, coarse):
        """lambda(eig) - lambda(PT2) must shrink like g^4."""
        cfg, field = coarse

        modes = field.modes_for_scale(None)
        errs = []
        for g in (0.08, 0.04):
            cfg_g = cfg.replace(g=g)
            w = spectrum(assemble_hamiltonian(cfg_g, field))
            lam = w[np.argmin(np.abs(w - cfg.e1))]
            pt2 = second_order_eigenvalue(cfg_g, modes, 1)
            errs.append(abs(lam - pt2))
        assert errs[1] < errs[0] / 8.0  # g^4 would give 16, leave slack

    def test_free_limit(self, coarse):
        cfg, field = coarse
        modes = field.modes_for_scale(None)
        cfg0 = cfg.replace(g=0.0)
        assert second_order_eigenvalue(cfg0, modes, 1) == cfg.e1
        assert second_order_eigenvalue(cfg0, modes, 0) == cfg.e0


class TestFermiGoldenRule:
    def test_two_coupling_scan(self, coarse):
        cfg, field = coarse
        rep = fermi_golden_rule(cfg, field, [0.05, 0.025], jobs=1)
        assert rep["monotone_improvement"]
        rows = rep["rows"]
        assert rows[0]["g"] == 0.05 and rows[1]["g"] == 0.025
        for row in rows:
            assert row["rel_error_vs_coefficient"] < 0.15
        assert rows[1]["pt2_rel_disagreement"] < 0.05

    def test_needs_two_points(self, coarse):
        cfg, field = coarse
        with pytest.raises(ConfigError):
            fermi_golden_rule(cfg, field, [0.05], jobs=1)


class TestThetaInvariance:
    def test_refinement_delta_within_floor_of_dense_route(self, coarse, monkeypatch):
        """Each refinement delta agrees with the dense eigenvalue of the refined
        sector nearest the base value within that sector's floor
        solver_tolerance(n, |A|_inf), and so the budget within twice that."""
        cfg, field = coarse
        thetas = [0.18j, 0.2j, 0.22j]
        calls = []

        def spy(sec, center, radius, probe, key):
            calls.append((dense(sec), center))
            return contour_eigenpair(sec, center, radius, probe, key)

        monkeypatch.setattr(diagnostics, "contour_eigenpair", spy)
        rep = theta_invariance_scan(cfg, field, thetas, levels=(0, 1), jobs=1)
        assert [c[1] for c in calls] == [rep.lambdas[i][0] for i in (0, 1)]
        exact, floors = {}, []
        for i, (A, lam) in zip((0, 1), calls):
            w = np.linalg.eigvals(A)
            exact[i] = abs(w[np.argmin(np.abs(w - lam))] - lam)
            floors.append(solver_tolerance(len(A), float(np.abs(A).sum(axis=1).max())))
        floor = max(floors)
        got = rep.details["refinement_delta"]
        assert all(exact[i] > 0.0 for i in (0, 1))
        for i in (0, 1):
            assert abs(got[str(i)] - exact[i]) <= floor
        dense_budget = rep.details["solver_tolerance"] + 2.0 * max(exact.values())
        assert abs(rep.budget - dense_budget) <= 2.0 * floor

    def test_free_model_exactly_invariant(self, coarse):
        cfg, field = coarse
        cfg0 = cfg.replace(g=0.0)
        rep = theta_invariance_scan(cfg0, field, [0.15j, 0.2j, 0.25j], (0, 1), 1)
        assert rep.max_pairwise[0] < 1e-13
        assert rep.max_pairwise[1] < 1e-13
        # the bare levels are exact eigenvalues of the refined grid too
        assert rep.details["refinement_delta"] == {"0": 0.0, "1": 0.0}
        assert rep.budget == rep.details["solver_tolerance"]

    def test_real_shift_pair_exact(self, coarse):
        cfg, field = coarse
        rep = theta_invariance_scan(
            cfg, field, [0.18j, 0.2j, 0.1 + 0.2j], levels=(1,), jobs=1
        )
        (pair,) = rep.details["real_shift_pairs"]
        assert pair["deviation"] < 1e-10

    def test_refinement_follows_a_real_first_shift(self, cfg, small_field):
        """A first sample 0.1 + 0.2i runs on the grid scaled by e^0.1, which
        reproduces the matrix of 0.2i; its refinement is scaled alike, so the
        twin scans refine the same matrix (unscaled, the level-1 deltas read
        5.7e-4 and 1.2e-3)."""
        plain, shifted = (
            theta_invariance_scan(cfg, small_field, [first, 0.225j, 0.25j],
                                  levels=(0, 1), jobs=1)
            for first in (0.2j, 0.1 + 0.2j)
        )
        for i in (0, 1):
            assert abs(plain.lambdas[i][0] - shifted.lambdas[i][0]) < 1e-13
            a = plain.details["refinement_delta"][str(i)]
            b = shifted.details["refinement_delta"][str(i)]
            assert a > 0.0 and abs(a - b) < 1e-13
        assert abs(plain.budget - shifted.budget) < 1e-12

    def test_imaginary_moves_within_budget(self, coarse):
        cfg, field = coarse
        rep = theta_invariance_scan(
            cfg, field, [0.18j, 0.2j, 0.22j], levels=(1,), jobs=1
        )
        assert rep.budget is not None
        assert rep.max_pairwise[1] <= rep.budget

    def test_outside_domain_rejected(self, coarse):
        cfg, field = coarse
        with pytest.raises(ConfigError):
            theta_invariance_scan(cfg, field, [0.2j, 0.21j, 0.05j], (0, 1), 1)

    def test_needs_three_samples(self, coarse):
        cfg, field = coarse
        with pytest.raises(ConfigError):
            theta_invariance_scan(cfg, field, [0.2j, 0.25j], (0, 1), 1)


class TestCouplingAnalyticity:
    def test_constant_stub(self, coarse):
        cfg, field = coarse
        rep = g_analyticity_check(
            cfg, field, center=0.04, radius=0.01, n_samples=8, levels=(0, 1),
            jobs=1, eval_fn=lambda g: {0: 0.5, 1: 1.5},
        )
        assert rep.max_pairwise[0] < 1e-14
        assert rep.max_pairwise[1] < 1e-14

    def test_quadratic_synthetic_recovery(self, coarse):
        cfg, field = coarse
        a, b, c = 1.0 - 0.01j, 0.3 + 0.05j, -2.0 + 0.4j

        rep = g_analyticity_check(
            cfg, field, center=0.04, radius=0.01, n_samples=16,
            levels=(1,), jobs=1,
            eval_fn=lambda g: {1: a + b * g + c * g * g},
        )
        taylor = rep.details["fourier"]["1"]["taylor_estimates"]
        got_a0, got_a1, got_a2 = taylor[:3]
        center = 0.04
        assert got_a0 == pytest.approx(a + b * center + c * center**2, abs=1e-12)
        assert got_a1 == pytest.approx(b + 2 * c * center, abs=1e-9)
        assert got_a2 == pytest.approx(c, abs=1e-7)
        assert rep.details["fourier"]["1"]["fourier_minus1_residual"] < 1e-13

    def test_real_run_residuals(self):
        cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.04, theta=0.2j)
        lad = CutoffLadder(0.25, 0.5, e1=1.0)
        field = DiscretizedField(lad, n_scales=2, points_per_shell=2,
                                 r_max=4.0, n_max=2, uv_points_per_panel=2)
        rep = g_analyticity_check(cfg, field, center=0.04, radius=0.01,
                                  n_samples=8, levels=(1,), jobs=1)
        assert rep.max_pairwise[1] < 1e-4

    def test_sample_count_floor(self, coarse):
        cfg, field = coarse
        with pytest.raises(ConfigError):
            g_analyticity_check(cfg, field, center=0.04, radius=0.01,
                                n_samples=4, levels=(0, 1), jobs=1)


class TestSpectrumConeCheck:
    def test_free_model_on_axis(self, coarse):
        cfg, field = coarse
        cfg0 = cfg.replace(g=0.0)
        trace = run_ladder(cfg0, field, jobs=1)
        rep = spectrum_cone_check(trace, tol=1e-10)
        assert rep["pass"]
        # the free spectrum in the box sits on the rotated ray: zero distance
        for lv in rep["levels"].values():
            assert lv["max_dist_raw"] < 1e-12

    def test_practical_run_with_classification(self, coarse):
        cfg, field = coarse
        trace = run_ladder(cfg, field, jobs=1)
        rep = spectrum_cone_check(trace, tol=5e-3)
        assert rep["pass"], rep["levels"]

    def test_narrow_cone_stress_detects_violations(self, coarse):
        """Large coupling with a narrowed cone must produce violations.

        The cone divisor does not enter the ladder, so one run serves both
        cones: each check reads a copy of the trace with its ``m_cone``."""
        cfg, field = coarse
        strong = cfg.replace(g=0.15)
        trace = run_ladder(strong, field, levels=(0,), jobs=1)
        wide, narrow = (
            spectrum_cone_check(replace(trace, cfg=strong.replace(m_cone=m)), tol=1e-4)
            for m in (4, 40)
        )
        assert not narrow["pass"]
        assert len(narrow["levels"][0]["violations"]) >= len(
            wide["levels"][0]["violations"]
        )
        assert narrow["levels"][0]["violations"]

    def test_starved_states_counted_not_tested(self, coarse):
        """A starved value far outside the cone is no violation; an
        unstarved one at ``dist`` > tol is, with its raw distance.
        ``max_dist`` covers the tested values, ``max_dist_raw`` all, and
        either is None where it covers none."""
        cfg, field = coarse
        trace = run_ladder(cfg, field, levels=(1,), jobs=1)
        last = trace.scales[-1]
        lam1 = last.levels[1].lam
        d, s = np.array([lam1.real + 0.3]), np.array([1e-5 + 1e-5j])
        starved, stray = d[0] + abs(s[0]), lam1.real + 0.1
        last.census = SpectralCensus([lam1, starved, stray], [1, 1, 1],
                                     {1: (d, s)})
        rep = spectrum_cone_check(trace, tol=5e-3)
        level = rep["levels"][1]
        cone = Cone(lam1, cfg.nu, cfg.m_cone)
        far, off = dist_to_cone(cone, starved), dist_to_cone(cone, stray)
        assert far > off > 5e-3
        assert level["n_starved_branch"] == 1
        assert level["violations"] == [
            {"z": stray, "dist": off, "starved_branch": False}
        ]
        assert (level["max_dist"], level["max_dist_raw"]) == (off, far)
        assert not level["pass"] and not rep["pass"]
        last.census = SpectralCensus([lam1, starved], [1, 1], {1: (d, s)})
        assert spectrum_cone_check(trace, tol=5e-3)["pass"]
        # a maximum over no state is None, not the 0.0 of an empty max
        for values, raw in (([starved], far), ([lam1 + 10.0], None)):
            last.census = SpectralCensus(values, [1], {1: (d, s)})
            level = spectrum_cone_check(trace, tol=5e-3)["levels"][1]
            assert (level["max_dist"], level["max_dist_raw"]) == (None, raw)
            assert level["pass"]

    def test_chain_steps_pass_on_practical_run(self, coarse):
        cfg, field = coarse
        trace = run_ladder(cfg, field, jobs=1)
        rep = spectrum_cone_check(trace, tol=5e-3)
        assert rep["pass"]
        for i in (0, 1):
            rows = rep["chain"][i]
            assert [r["n"] for r in rows] == [1, 2]
            for n, row in enumerate(rows, start=1):
                assert row == {"n": n, **verify_cone_chain(
                    trace.scales[n - 1].levels[i].lam,
                    trace.scales[n].levels[i].lam, field.ladder, n, cfg)}
                assert row["pass"] and "witness" not in row
                assert row["gap_inner"] >= row["gap_inner_bound"]
                assert row["gap_outer"] >= row["gap_outer_bound"]

    def test_inner_step_ratio_depends_on_rho_alone(self, coarse):
        """v_n and v_mid lie on one axis, so the inner step's gap over its
        bound is 10 (0.25 - 0.39 rho) / rho, 1.1 at rho = 0.5, in every row
        of ladders whose lambda differ."""
        cfg, field = coarse
        lams, ratios = [], []
        for g in (0.05, 0.08):
            cfg_g = cfg.replace(g=g)
            trace = run_ladder(cfg_g, field, levels=(1,), jobs=1)
            rep = spectrum_cone_check(trace, tol=5e-3)
            lams.append(trace.scales[-1].levels[1].lam)
            ratios += [r["gap_inner"] / r["gap_inner_bound"] for r in rep["chain"][1]]
        assert abs(lams[1] - lams[0]) > 1e-4
        assert field.ladder.rho == 0.5
        assert ratios == pytest.approx([1.1] * 4, rel=1e-9)

    def test_oversized_step_fails_with_witness(self, coarse):
        """lambda_1 jumping by rho_1 / 2 from scale 1 to 2 fails the check."""
        cfg, field = coarse
        trace = run_ladder(cfg, field, levels=(1,), jobs=1)
        trace.scales[1].levels[1].lam += 0.5 * field.ladder.cutoff(1) * 1j
        rep = spectrum_cone_check(trace, tol=5e-3)
        assert rep["levels"][1]["pass"]
        assert not rep["pass"]
        step = rep["chain"][1][0]
        assert step["n"] == 1 and not step["pass"] and "witness" in step


class TestResolventConeBound:
    def test_structure_and_stability(self, coarse):
        cfg, field = coarse
        trace = run_ladder(cfg, field, levels=(1,), jobs=1)
        reps = [
            resolvent_cone_bound_check(trace, n_samples=40, seed=s)
            for s in (1, 2)
        ]
        for rep in reps:
            assert rep["n_used"] > 0
            assert np.isfinite(rep["K"]) and rep["K"] > 0
        ratio = reps[0]["K"] / reps[1]["K"]
        assert 0.5 < ratio < 2.0

    def test_fitted_constant_translation_covariant(self, rng):
        """Rigid translation of spectrum, cone and samples preserves K."""
        from spinboson.geometry import Cone, dist_to_cone
        from spinboson import resolvent_norm

        n = 16
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (B + B.T) / 2  # complex symmetric, as every sector is
        lam = complex(np.linalg.eigvals(A)[0])
        zs = [lam + complex(*rng.uniform(0.2, 1.0, 2)) for _ in range(12)]
        shift = 0.7 - 0.3j

        def fit(mat, vertex, pts):
            cone = Cone(vertex, 0.2, 4)
            return max(
                resolvent_norm(mat, z) * dist_to_cone(cone, z)
                for z in pts
                if dist_to_cone(cone, z) > 0
            )

        k_base = fit(one_sector(A), lam, zs)
        k_moved = fit(one_sector(A + shift * np.eye(n)), lam + shift,
                      [z + shift for z in zs])
        assert k_moved == pytest.approx(k_base, rel=1e-9)

    def test_artifacts_classified_by_the_box_rule(self, coarse, monkeypatch):
        """B1's eigenvalues are starved by ``census.starved(box, lambda_1)``,
        the rule ``spectrum_cone_check`` applies to the same box.  A
        synthetic census plants one eigenvalue 3 |s_t| from a top entry d_t
        in the box, which is no partner; with an exclusion radius that
        covers the box, counting it as an artifact would reject every
        sample.  A second value 1.5 |s_t| from d_t is starved."""
        cfg, field = coarse
        trace = run_ladder(cfg, field, levels=(1,), jobs=1)
        last = trace.scales[-1]
        lam1 = last.levels[1].lam
        box = Box.b1(cfg, 1, field.ladder.cutoff(1))
        d, s = np.array([lam1.real + 0.1 - 0.005j]), np.array([2e-5 - 1e-5j])
        partners = {1: (d, s)}
        planted, near = d[0] + 3j * abs(s[0]), d[0] + 1.5 * abs(s[0])
        assert box.contains(planted) and 3 > PAIRING > 1.5
        census = SpectralCensus([lam1, planted, near], [1, 1, 1], partners)
        assert census.values[census.starved(box, lam1)].tolist() == [near]
        last.census = SpectralCensus([lam1, planted], [1, 1], partners)
        monkeypatch.setattr(diagnostics, "ARTIFACT_EXCLUSION", 10.0)
        rep = resolvent_cone_bound_check(trace, n_samples=5, seed=0)
        assert (rep["n_skipped_artifact"], rep["n_used"]) == (0, 5)
        cone = spectrum_cone_check(trace, tol=5e-3)
        assert cone["levels"][1]["n_starved_branch"] == 0

    def test_rows_consistent(self, coarse):
        cfg, field = coarse
        trace = run_ladder(cfg, field, levels=(1,), jobs=1)
        rep = resolvent_cone_bound_check(trace, n_samples=20, seed=5)
        for row in rep["rows"]:
            assert row["lhs"] * row["dist"] <= rep["K"] * (1 + 1e-12)

    def test_ladder_census_reused_within_tolerance(self, coarse, monkeypatch):
        """Both cone checks read the last ladder scale's census and solve no
        spectrum again; in B1 and in lambda_1's window (lambda_1 lies below
        B1 on this grid) it holds the full-grid eigenvalues, as many, each
        within 1e-12 relative."""
        cfg, field = coarse
        trace = run_ladder(cfg, field, levels=(1,), jobs=1)
        fresh = spectrum(assemble_hamiltonian(cfg, field))
        last = trace.scales[-1]
        census = last.census
        for box in (Box.b1(cfg, 1, field.ladder.cutoff(1)), last.levels[1].window):
            got, want = census.in_box(box), fresh[box.contains(fresh)]
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert len(want) > 0

        def refused(a):
            raise AssertionError("a cone check solved a spectrum again")

        monkeypatch.setattr(np.linalg, "eigvals", refused)
        monkeypatch.setattr(np.linalg, "eig", refused)
        resolvent_cone_bound_check(trace, n_samples=5, seed=0)
        spectrum_cone_check(trace, tol=5e-3)
