"""Acceptance criteria: one test per criterion, tolerances pinned here.

Each test prints one PASS line with its headline numbers and asserts the
stated tolerance and runtime budget.  Expensive runs are shared through
module fixtures; their wall time is charged to the first criterion that
uses them.  The shared pinned ladder also answers the g = 0.05 row of
criterion 2 and the theta = 0.2i sample of criterion 3, which would
otherwise repeat it.  The module runs the way the command line does:
OpenBLAS pinned to one thread and ``JOBS`` worker threads for the sector
eigensolves.
Every retained ladder run registers its scale records (not the trace,
which holds the run's full-grid operator) so the final criterion can audit
projector residuals and spectral uniqueness across all of them.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import spinboson as sb
from spinboson import diagnostics
from spinboson.diagnostics import (
    fermi_golden_rule,
    resolvent_cone_bound_check,
    second_order_eigenvalue,
    spectrum_cone_check,
    theta_invariance_scan,
)
from spinboson.multiscale import check_p1, check_p3, run_ladder
from spinboson.threads import pinned_blas, usable_cpus

RUN_REGISTRY: list = []
JOBS = usable_cpus()


@pytest.fixture(scope="module", autouse=True)
def one_blas_thread():
    with pinned_blas():
        yield


def _record(k: int, detail: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {detail}")


@pytest.fixture(scope="module")
def pinned():
    """The pinned practical setup: e1=1, Lambda=1, mu=0.25, nu=0.2."""
    cfg = sb.ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    ladder = sb.CutoffLadder(rho0=0.25, rho=0.5, e1=1.0)
    field = sb.DiscretizedField(
        ladder, n_scales=6, points_per_shell=8, r_max=4.0, n_max=2
    )
    return SimpleNamespace(cfg=cfg, field=field)


@pytest.fixture(scope="module")
def shared_run(pinned):
    """One full pinned ladder run at g = 0.05, both levels."""
    t0 = time.perf_counter()
    trace = run_ladder(pinned.cfg, pinned.field, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    RUN_REGISTRY.append(("pinned g=0.05", trace.scales))
    return SimpleNamespace(trace=trace, elapsed=elapsed)


def reuse_shared_run(monkeypatch, pinned, shared_run, register=None):
    """Answer ``diagnostics.run_ladder``'s pinned g = 0.05 ladder with the
    trace of ``shared_run`` (both levels, so any subset) instead of running
    it again; every other ladder runs.  ``register`` sees every trace."""
    ladder = diagnostics.run_ladder

    def run(cfg, field, levels=(0, 1), **kwargs):
        if cfg == pinned.cfg and field is pinned.field:
            trace = shared_run.trace
        else:
            trace = ladder(cfg, field, levels=levels, **kwargs)
        if register is not None:
            register(trace)
        return trace

    monkeypatch.setattr(diagnostics, "run_ladder", run)


def test_criterion_1_free_model_exactness():
    """g = 0: lambda = e_i and P = atomic projector to 1e-12, all scales."""
    t0 = time.perf_counter()
    cfg = sb.ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.0, theta=0.2j)
    ladder = sb.CutoffLadder(0.25, 0.5, e1=1.0)
    field = sb.DiscretizedField(
        ladder, n_scales=6, points_per_shell=2, r_max=4.0, n_max=2,
        uv_points_per_panel=2,
    )
    trace = run_ladder(cfg, field, jobs=JOBS)
    RUN_REGISTRY.append(("free model", trace.scales))
    worst_lam = 0.0
    worst_proj = 0.0
    from spinboson.spectral import projector_distance

    for rec in trace.scales:
        dim_f = field.basis_for_scale(rec.n).dim
        for i in (0, 1):
            data = rec.levels[i]
            bare = cfg.e1 if i == 1 else cfg.e0
            worst_lam = max(worst_lam, abs(data.lam - bare))
            vac = np.zeros(2 * dim_f, dtype=complex)
            vac[0 if i == 1 else dim_f] = 1.0
            worst_proj = max(worst_proj, projector_distance(data.vector, vac))
    elapsed = time.perf_counter() - t0
    assert worst_lam <= 1e-12
    assert worst_proj <= 1e-12
    assert elapsed < 10.0
    _record(1, f"max |lambda - e_i| = {worst_lam:.2e}, "
               f"max |P - atomic| = {worst_proj:.2e}, {elapsed:.1f}s")


def test_criterion_2_fermi_golden_rule(pinned, shared_run, monkeypatch):
    """Im(lambda_1)/g^2 approaches -4 pi^2 e^(-2); oracle concurs."""
    t0 = time.perf_counter()
    import mpmath as mp

    mp.mp.dps = 30
    oracle = float(-4 * mp.pi**2 * mp.e**-2)
    coeff = sb.golden_rule_coefficient(pinned.cfg)
    assert coeff == pytest.approx(oracle, rel=1e-13)

    def register(trace):
        RUN_REGISTRY.append((f"fgr g={abs(trace.cfg.g)}", trace.scales))

    # the g = 0.05 row is the shared pinned ladder
    reuse_shared_run(monkeypatch, pinned, shared_run, register)
    rep = fermi_golden_rule(pinned.cfg, pinned.field, [0.05, 0.025], jobs=JOBS)
    err_big, err_small = (r["rel_error_vs_coefficient"] for r in rep["rows"])
    pt2_dis = rep["rows"][1]["pt2_rel_disagreement"]
    elapsed = time.perf_counter() - t0
    assert err_big < 0.15 and err_small < 0.15
    assert err_small < err_big  # strictly closer at the smaller coupling
    assert pt2_dis < 0.05
    assert elapsed < 300.0
    _record(2, f"E_I = {coeff:.5f}, rel errors {err_big:.3%} -> "
               f"{err_small:.3%}, oracle gap {pt2_dis:.3%}, {elapsed:.0f}s")


def test_criterion_3_theta_invariance(pinned, shared_run, monkeypatch):
    """lambda_1 constant over the dilation samples within the budget."""
    reuse_shared_run(monkeypatch, pinned, shared_run)  # the theta = 0.2i sample
    t0 = time.perf_counter()
    thetas = [0.15j, 0.2j, 0.25j, 0.1 + 0.2j]
    rep = theta_invariance_scan(
        pinned.cfg, pinned.field, thetas, levels=(1,), jobs=JOBS
    )
    elapsed = time.perf_counter() - t0
    spread = rep.max_pairwise[1]
    re_pairs = rep.details["real_shift_pairs"]
    assert re_pairs, "the sample set contains one pure real shift pair"
    worst_pair = max(p["deviation"] for p in re_pairs)
    assert worst_pair <= 1e-10
    assert spread <= rep.budget
    assert elapsed < 600.0
    _record(3, f"max pairwise {spread:.2e} <= budget {rep.budget:.2e}, "
               f"real-shift pair {worst_pair:.1e}, {elapsed:.0f}s")


def test_criterion_4_multiscale_decay(pinned, shared_run):
    """P1 and P3 gaps decay geometrically within the stated envelopes."""
    t0 = time.perf_counter()
    trace = shared_run.trace
    cfg = pinned.cfg
    log10_C = sb.compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone
    ).log10_C
    p1 = check_p1(trace, log10_C)
    p3 = check_p3(trace, log10_C)
    rho, mu = pinned.field.ladder.rho, pinned.cfg.mu
    p1_cap = rho ** (1.0 + mu / 2.0) + 0.1
    p3_cap = rho ** (mu / 2.0) + 0.15
    ratios = {}
    for i in (0, 1):
        r1 = p1["levels"][i]["fitted_ratio"]
        r3 = p3["levels"][i]["fitted_ratio"]
        assert r1 is not None and r1 <= p1_cap
        assert r3 is not None and r3 <= p3_cap
        ratios[i] = (r1, r3)
    elapsed = time.perf_counter() - t0 + shared_run.elapsed
    assert elapsed < 300.0
    _record(4, f"P1 ratios {ratios[0][0]:.3f}/{ratios[1][0]:.3f} <= "
               f"{p1_cap:.3f}; P3 ratios {ratios[0][1]:.3f}/"
               f"{ratios[1][1]:.3f} <= {p3_cap:.3f}, {elapsed:.0f}s")


def test_criterion_5_cone_localization(pinned, shared_run):
    """Box spectrum within 5e-3 of the resonance cone at m = 4."""
    t0 = time.perf_counter()
    rep = spectrum_cone_check(shared_run.trace, tol=5e-3)
    elapsed = time.perf_counter() - t0
    level1 = rep["levels"][1]
    assert rep["pass"], rep["levels"]
    assert elapsed < 120.0
    dist, raw = ("none" if d is None else f"{d:.1e}"
                 for d in (level1["max_dist"], level1["max_dist_raw"]))
    _record(5, f"{level1['n_in_box']} eigenvalues in the box, "
               f"{level1['n_starved_branch']} starved branches, max dist "
               f"{dist} (raw {raw}), {elapsed:.0f}s")


def test_criterion_6_resolvent_bound_shape():
    """K = sup |(H-z)^(-1)| dist(z, cone) finite and seed-stable."""
    t0 = time.perf_counter()
    cfg = sb.ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    ladder = sb.CutoffLadder(0.25, 0.5, e1=1.0)
    field = sb.DiscretizedField(
        ladder, n_scales=6, points_per_shell=3, r_max=4.0, n_max=2,
        uv_points_per_panel=3,
    )
    trace = run_ladder(cfg, field, levels=(1,), jobs=JOBS)
    RUN_REGISTRY.append(("resolvent-shape grid", trace.scales))
    reports = [
        resolvent_cone_bound_check(trace, n_samples=200, seed=seed)
        for seed in (11, 22)
    ]
    elapsed = time.perf_counter() - t0
    k_values = [rep["K"] for rep in reports]
    assert all(rep["n_used"] == 200 for rep in reports)
    assert all(np.isfinite(k) and k > 0 for k in k_values)
    ratio = max(k_values) / min(k_values)
    assert ratio < 2.0
    assert elapsed < 300.0
    _record(6, f"K = {k_values[0]:.2f} / {k_values[1]:.2f} "
               f"(ratio {ratio:.2f}), {elapsed:.0f}s")


def test_criterion_7_appendix_estimates():
    """Ladder and interaction relative bounds: zero violations in 100x3."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    cfg = sb.ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    total = 0
    violations = 0
    for n_modes, n_max in ((4, 2), (6, 3), (8, 2)):
        freqs = np.sort(rng.uniform(0.05, 3.0, size=n_modes))
        modes = sb.ModeSet(freqs, np.ones(n_modes), np.zeros(n_modes, int))
        basis = sb.enumerate_basis(modes, n_max)
        base = sb.coupling_amplitudes(cfg, modes)
        for _ in range(100):
            h = base * (1 + 0.5 * rng.standard_normal(n_modes)) + 0.1 * (
                rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
            )
            total += 2
            if not sb.verify_standard_estimates(basis, h)["pass"]:
                violations += 1
            if not sb.interaction_norm_bound(cfg, basis, amplitudes=h)["pass"]:
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0
    _record(7, f"{total} inequality checks, zero violations, {elapsed:.0f}s")


def test_criterion_8_constants_ledger():
    """Log-domain constant chain against the high-precision oracle."""
    t0 = time.perf_counter()
    import mpmath as mp

    mp.mp.dps = 60
    D = mp.mpf(10) ** 6 + 10
    log10_C = mp.log10(D) - 3 * mp.log10(mp.sin(mp.pi / 32))
    log10_rho0 = -(8 / mp.mpf("0.25")) * log10_C

    rep = sb.compute_constants(mu=0.25, nu_floor=float(np.pi / 16),
                               c_generic=1.0)
    assert rep.log10_C == pytest.approx(float(log10_C), abs=1e-10)
    assert abs(rep.log10_C - 9.026) < 0.01
    assert rep.log10_rho0_max == pytest.approx(float(log10_rho0), abs=1e-9)
    assert abs(rep.log10_rho0_max - (-288.8)) < 0.5

    # boundary probes: exact bounds pass with zero slack, an order past fails
    at_bound = {
        "log10_rho0": rep.log10_rho0_max,
        "log10_rho": rep.log10_rho_max,
        "log10_g": rep.log10_g0,
    }
    checks = sb.check_inequalities(rep, at_bound)
    assert all(c["satisfied"] for c in checks)
    assert all(abs(c["slack_log10"]) < 1e-9 for c in checks)
    beyond = dict(at_bound, log10_rho0=rep.log10_rho0_max + 1.0)
    checks = {c["id"]: c for c in sb.check_inequalities(rep, beyond)}
    assert not checks["rho0_window"]["satisfied"]
    assert checks["rho0_window"]["slack_log10"] == pytest.approx(-1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _record(8, f"log10 C = {rep.log10_C:.4f}, log10 rho0_max = "
               f"{rep.log10_rho0_max:.1f}, boundary probes exact, "
               f"{elapsed:.2f}s")


def test_nmax_convergence_study():
    """Total-boson cutoff study 1 -> 3: the 2 -> 3 move is subdominant."""
    t0 = time.perf_counter()
    cfg = sb.ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=0.2j)
    ladder = sb.CutoffLadder(0.25, 0.5, e1=1.0)
    lams = {}
    for n_max in (1, 2, 3):
        field = sb.DiscretizedField(
            ladder, n_scales=6, points_per_shell=2, r_max=4.0, n_max=n_max,
            uv_points_per_panel=2,
        )
        H = sb.assemble_hamiltonian(cfg, field, n=None)
        seed = second_order_eigenvalue(cfg, field.modes_for_scale(None), 1)
        # the resolved second-order seed sits within ~2e-4 of the target;
        # the nearest soft branch is one cutoff away (~4e-3 at n_max = 1)
        census = sb.SpectralCensus.of(H, None, jobs=JOBS)
        rec = sb.track_eigenvalue(H, census, seed=seed, radius=1.5e-3)
        lams[n_max] = rec.lam
    step12 = abs(lams[2] - lams[1])
    step23 = abs(lams[3] - lams[2])
    elapsed = time.perf_counter() - t0
    assert step23 < 0.3 * step12
    assert step23 < 0.01 * abs(lams[2].imag)
    _record(0, f"n_max steps |d12| = {step12:.2e}, |d23| = {step23:.2e}, "
               f"{elapsed:.0f}s")


def test_criterion_9_riesz_machinery():
    """Projector residuals < 1e-10 and window uniqueness on every run."""
    assert RUN_REGISTRY, "earlier criteria must have registered their runs"
    n_scales = 0
    worst_resid = 0.0
    for label, scales in RUN_REGISTRY:
        for rec in scales:
            for i, data in rec.levels.items():
                n_scales += 1
                worst_resid = max(worst_resid, data.projector_residual)
                assert data.projector_residual < 1e-10, (label, rec.n, i)
                assert data.p2_violation_count == 0, (label, rec.n, i)
                assert data.p2_unique, (label, rec.n, i)
                assert data.contour_safe, (label, rec.n, i)
    _record(9, f"{len(RUN_REGISTRY)} runs, {n_scales} tracked scales, "
               f"worst projector residual {worst_resid:.1e}")
