"""Golden rule, invariance scans, cone and resolvent surrogates."""

import numpy as np
import pytest

from spinboson import (
    ConfigError,
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    TrackingError,
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
from spinboson.multiscale import run_ladder

from sectors import one_sector, spectrum


@pytest.fixture(scope="module")
def coarse():
    cfg = ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    lad = CutoffLadder(0.25, 0.5, e1=1.0)
    field = DiscretizedField(lad, n_scales=3, points_per_shell=3, r_max=4.0,
                             n_max=2, uv_points_per_panel=3)
    return cfg, lad, field


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
        cfg, lad, field = coarse

        modes = field.modes_for_scale(None)
        errs = []
        for g in (0.08, 0.04):
            H = assemble_hamiltonian(cfg, field, g=g)
            w = spectrum(H)
            lam = w[np.argmin(np.abs(w - cfg.e1))]
            pt2 = second_order_eigenvalue(cfg, modes, 1, g=g)
            errs.append(abs(lam - pt2))
        assert errs[1] < errs[0] / 8.0  # g^4 would give 16, leave slack

    def test_free_limit(self, coarse):
        cfg, lad, field = coarse
        modes = field.modes_for_scale(None)
        assert second_order_eigenvalue(cfg, modes, 1, g=0.0) == cfg.e1
        assert second_order_eigenvalue(cfg, modes, 0, g=0.0) == cfg.e0


class TestFermiGoldenRule:
    def test_two_coupling_scan(self, coarse):
        cfg, lad, field = coarse
        rep = fermi_golden_rule(cfg, lad, field, [0.05, 0.025])
        assert rep["monotone_improvement"]
        rows = rep["rows"]
        assert rows[0]["g"] == 0.05 and rows[1]["g"] == 0.025
        for row in rows:
            assert row["rel_error_vs_coefficient"] < 0.15
        assert rows[1]["pt2_rel_disagreement"] < 0.05

    def test_needs_two_points(self, coarse):
        cfg, lad, field = coarse
        with pytest.raises(ConfigError):
            fermi_golden_rule(cfg, lad, field, [0.05])


class TestThetaInvariance:
    def test_free_model_exactly_invariant(self, coarse):
        cfg, lad, field = coarse
        cfg0 = cfg.replace(g=0.0)
        rep = theta_invariance_scan(
            cfg0, lad, field, [0.15j, 0.2j, 0.25j], measure_budget=False
        )
        assert rep.max_pairwise[0] < 1e-13
        assert rep.max_pairwise[1] < 1e-13

    def test_real_shift_pair_exact(self, coarse):
        cfg, lad, field = coarse
        rep = theta_invariance_scan(
            cfg, lad, field, [0.18j, 0.2j, 0.1 + 0.2j], levels=(1,),
            measure_budget=False,
        )
        (pair,) = rep.details["real_shift_pairs"]
        assert pair["deviation"] < 1e-10

    def test_imaginary_moves_within_budget(self, coarse):
        cfg, lad, field = coarse
        rep = theta_invariance_scan(
            cfg, lad, field, [0.18j, 0.2j, 0.22j], levels=(1,)
        )
        assert rep.budget is not None
        assert rep.max_pairwise[1] <= rep.budget

    def test_outside_domain_rejected(self, coarse):
        cfg, lad, field = coarse
        with pytest.raises(ConfigError):
            theta_invariance_scan(cfg, lad, field, [0.2j, 0.21j, 0.05j])

    def test_needs_three_samples(self, coarse):
        cfg, lad, field = coarse
        with pytest.raises(ConfigError):
            theta_invariance_scan(cfg, lad, field, [0.2j, 0.25j])


class TestCouplingAnalyticity:
    def test_constant_stub(self, coarse):
        cfg, lad, field = coarse
        rep = g_analyticity_check(
            cfg, lad, field, center=0.04, radius=0.01,
            eval_fn=lambda g: {0: 0.5, 1: 1.5},
        )
        assert rep.max_pairwise[0] < 1e-14
        assert rep.max_pairwise[1] < 1e-14

    def test_quadratic_synthetic_recovery(self, coarse):
        cfg, lad, field = coarse
        a, b, c = 1.0 - 0.01j, 0.3 + 0.05j, -2.0 + 0.4j

        rep = g_analyticity_check(
            cfg, lad, field, center=0.04, radius=0.01, n_samples=16,
            levels=(1,),
            eval_fn=lambda g: {1: a + b * g + c * g * g},
        )
        taylor = rep.details["fourier"]["1"]["taylor_estimates"]
        got_a0 = complex(*taylor[0])
        got_a1 = complex(*taylor[1])
        got_a2 = complex(*taylor[2])
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
        rep = g_analyticity_check(cfg, lad, field, center=0.04, radius=0.01,
                                  n_samples=8, levels=(1,))
        assert rep.max_pairwise[1] < 1e-4

    def test_sample_count_floor(self, coarse):
        cfg, lad, field = coarse
        with pytest.raises(ConfigError):
            g_analyticity_check(cfg, lad, field, center=0.04, radius=0.01,
                                n_samples=4)


class TestSpectrumConeCheck:
    def test_free_model_on_axis(self, coarse):
        cfg, lad, field = coarse
        cfg0 = cfg.replace(g=0.0)
        trace = run_ladder(cfg0, lad, field)
        rep = spectrum_cone_check(cfg0, lad, field, trace, tol=1e-10)
        assert rep["pass"]
        # the free spectrum in the box sits on the rotated ray: zero distance
        for lv in rep["levels"].values():
            assert lv["max_dist_raw"] < 1e-12

    def test_practical_run_with_classification(self, coarse):
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field)
        rep = spectrum_cone_check(cfg, lad, field, trace, tol=5e-3)
        assert rep["pass"], rep["levels"]

    def test_narrow_cone_stress_detects_violations(self, coarse):
        """Large coupling with a narrowed cone must produce violations."""
        cfg, lad, field = coarse
        strong = cfg.replace(g=0.15)
        trace = run_ladder(strong, lad, field, levels=(0,))
        wide = spectrum_cone_check(
            strong, lad, field, trace, tol=1e-4, levels=(0,), m=4
        )
        narrow = spectrum_cone_check(
            strong, lad, field, trace, tol=1e-4, levels=(0,), m=40
        )
        assert not narrow["pass"]
        assert len(narrow["levels"][0]["violations"]) >= len(
            wide["levels"][0]["violations"]
        )
        assert narrow["levels"][0]["violations"]

    def test_chain_steps_pass_on_practical_run(self, coarse):
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field)
        rep = spectrum_cone_check(cfg, lad, field, trace, tol=5e-3)
        assert rep["pass"]
        for i in (0, 1):
            rows = rep["chain"][i]
            assert [r["n"] for r in rows] == [1, 2]
            for n, row in enumerate(rows, start=1):
                assert row == {"n": n, **verify_cone_chain(
                    trace.scales[n - 1].levels[i].lam,
                    trace.scales[n].levels[i].lam, lad, n, cfg)}
                assert row["pass"] and "witness" not in row
                assert row["gap_inner"] >= row["gap_inner_bound"]
                assert row["gap_outer"] >= row["gap_outer_bound"]

    def test_inner_step_ratio_depends_on_rho_alone(self, coarse):
        """v_n and v_mid lie on one axis, so the inner step's gap over its
        bound is 10 (0.25 - 0.39 rho) / rho, 1.1 at rho = 0.5, in every row
        of ladders whose lambda differ."""
        cfg, lad, field = coarse
        lams, ratios = [], []
        for g in (0.05, 0.08):
            cfg_g = cfg.replace(g=g)
            trace = run_ladder(cfg_g, lad, field, levels=(1,))
            rep = spectrum_cone_check(cfg_g, lad, field, trace, tol=5e-3, levels=(1,))
            lams.append(trace.scales[-1].levels[1].lam)
            ratios += [r["gap_inner"] / r["gap_inner_bound"] for r in rep["chain"][1]]
        assert abs(lams[1] - lams[0]) > 1e-4
        assert lad.rho == 0.5
        assert ratios == pytest.approx([1.1] * 4, rel=1e-9)

    def test_oversized_step_fails_with_witness(self, coarse):
        """lambda_1 jumping by rho_1 / 2 from scale 1 to 2 fails the check."""
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field, levels=(1,))
        trace.scales[1].levels[1].lam += 0.5 * lad.cutoff(1) * 1j
        rep = spectrum_cone_check(cfg, lad, field, trace, tol=5e-3, levels=(1,))
        assert rep["levels"][1]["pass"]
        assert not rep["pass"]
        step = rep["chain"][1][0]
        assert step["n"] == 1 and not step["pass"] and "witness" in step


class TestResolventConeBound:
    def test_structure_and_stability(self, coarse):
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field, levels=(1,))
        reps = [
            resolvent_cone_bound_check(cfg, lad, field, trace, n_samples=40,
                                       seed=s)
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
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
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

    def test_rows_consistent(self, coarse):
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field, levels=(1,))
        rep = resolvent_cone_bound_check(cfg, lad, field, trace, n_samples=20,
                                         seed=5)
        for row in rep["rows"]:
            assert row["lhs"] * row["dist"] <= rep["K"] * (1 + 1e-12)

    def test_ladder_spectrum_reused_identically(self, coarse):
        """The last ladder scale's spectrum is the full-grid one, bit for bit."""
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field, levels=(1,))
        fresh = spectrum(assemble_hamiltonian(cfg, field))
        assert np.array_equal(trace.scales[-1].census.values, fresh)

    def test_stopped_ladder_rejected(self, coarse):
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field, n_scales=2, levels=(1,))
        with pytest.raises(TrackingError, match="stopped at scale 2"):
            resolvent_cone_bound_check(cfg, lad, field, trace, n_samples=5)
        with pytest.raises(TrackingError, match="stopped at scale 2"):
            spectrum_cone_check(cfg, lad, field, trace, tol=5e-3, levels=(1,))

    def test_threaded_report_matches_serial(self, coarse):
        cfg, lad, field = coarse
        trace = run_ladder(cfg, lad, field, levels=(1,))
        serial, threaded = (
            resolvent_cone_bound_check(cfg, lad, field, trace, n_samples=10,
                                       seed=3, jobs=jobs)
            for jobs in (1, 2)
        )
        assert threaded["n_used"] == serial["n_used"] == 10
        assert [r["z"] for r in threaded["rows"]] == [r["z"] for r in serial["rows"]]
        assert [r["lhs"] for r in threaded["rows"]] == pytest.approx(
            [r["lhs"] for r in serial["rows"]], rel=1e-12
        )
        assert threaded["K"] == pytest.approx(serial["K"], rel=1e-12)
