"""Headline numerical experiments on the dilated model.

Each experiment packages one statement about the infrared limit into a
measurable surrogate: the decay rate of the resonance against the golden
rule coefficient, invariance of the tracked eigenvalues under dilation
moves, analyticity in the coupling via circle sampling, and localization
of spectrum and resolvent growth relative to the cones.

Cross-parameter comparisons never use magic tolerances: every budget is
the sum of an eigensolver floor and a measured one-step grid-refinement
delta.  The golden-rule experiment carries its own independent oracle, a
second-order perturbation sum evaluated directly on the discretized modes,
so that ladder output is checked against closed-form arithmetic before it
is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import pi

import numpy as np

from .errors import ConfigError
from .geometry import Box, Cone, cone_contains, dist_to_cone, verify_cone_chain
from .model import (
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    coupling_amplitudes,
    form_factor,
)
from .multiscale import MultiscaleTrace, run_ladder
from .spectral import ShiftedSolver, contour_eigenpair, resolvent_norm, solver_tolerance

# Grid refinement of the theta-invariance budget: points per shell and per
# ultraviolet panel grow by this factor (and by at least one).
REFINE_FACTOR = 1.5
# Resolvent samples closer than this to a truncation-starved eigenvalue
# are skipped.
ARTIFACT_EXCLUSION = 5e-3


@dataclass
class InvarianceReport:
    """Eigenvalue drift across a parameter scan plus its tolerance budget."""

    parameter: str
    samples: list
    lambdas: dict
    max_pairwise: dict
    budget: float | None = None
    details: dict = dc_field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        """Every level's drift is at most the budget, the run's pass test."""
        return all(v <= self.budget for v in self.max_pairwise.values())


def golden_rule_coefficient(cfg: ModelConfig) -> float:
    """Leading decay coefficient -4 pi^2 (e1 - e0)^2 f(e1 - e0)^2."""
    gap = cfg.delta
    return -4.0 * pi**2 * gap**2 * form_factor(gap, cfg) ** 2


def second_order_eigenvalue(cfg: ModelConfig, modes, i: int) -> complex:
    """Second-order perturbation value of lambda_i on the discretized modes.

    The intermediate states are the flipped atom level dressed with one
    boson; the bilinear pairing squares the coupling amplitudes without
    conjugation.
    """
    coeffs = coupling_amplitudes(cfg, modes)
    e_i = cfg.e1 if i == 1 else cfg.e0
    e_other = cfg.e0 if i == 1 else cfg.e1
    denom = e_i - e_other - np.exp(-cfg.theta) * modes.frequencies
    return complex(e_i + cfg.g**2 * np.sum(coeffs**2 / denom))


def fermi_golden_rule(
    cfg: ModelConfig,
    field: DiscretizedField,
    g_list,
    jobs: int,
) -> dict:
    """Resonance width against the golden rule across couplings.

    For each coupling the ladder tracks the resonance to the last scale;
    Im(lambda_1)/g^2 must approach the closed-form coefficient as g drops,
    and the second-order oracle on the same discretization must agree with
    the ladder value.  ``jobs`` goes to every ladder (``run_ladder``).
    """
    if len(g_list) < 2:
        raise ConfigError("the golden-rule scan needs at least two couplings")
    e_i = golden_rule_coefficient(cfg)
    modes_full = field.modes_for_scale(None)
    rows = []
    for g in g_list:
        cfg_g = cfg.replace(g=g)
        lam = run_ladder(cfg_g, field, levels=(1,), jobs=jobs).scales[-1].levels[1].lam
        ratio = lam.imag / abs(g) ** 2 if g != 0 else 0.0
        pt2 = second_order_eigenvalue(cfg_g, modes_full, i=1)
        rows.append(
            {
                "g": float(abs(g)),
                "lambda1": lam,
                "im_ratio": float(ratio),
                "rel_error_vs_coefficient": float(
                    abs(ratio - e_i) / abs(e_i)
                ),
                "pt2_im": pt2.imag,
                "pt2_rel_disagreement": float(
                    abs(lam.imag - pt2.imag) / abs(lam.imag)
                )
                if lam.imag != 0
                else 0.0,
            }
        )
    rows.sort(key=lambda r: -r["g"])
    errors = [r["rel_error_vs_coefficient"] for r in rows]
    return {
        "coefficient": e_i,
        "rows": rows,
        "monotone_improvement": bool(
            all(b < a for a, b in zip(errors[:-1], errors[1:]))
        ),
    }


def _refinement_delta(
    cfg: ModelConfig, field: DiscretizedField, tracked: dict
) -> dict:
    """One-step grid-refinement sensitivity of the final eigenvalues.

    ``tracked`` maps each level to its last-scale ``LevelScaleData`` on
    ``field`` scaled by exp(Re theta), and the refined grid is scaled
    alike.  The refined operator is assembled at the last scale only,
    and the refined eigenvalue is read by ``contour_eigenpair`` on the
    circle of radius 0.4 gap around the base value, gap its census gap;
    the ladder need not be rerun since that gap far exceeds the grid
    sensitivity.  A circle that holds no refined eigenvalue, or two,
    raises.  A base value that is an eigenvalue of the refined operator to
    working precision (a singular shift, as for the free model's bare
    levels) has delta 0.
    """
    refined = DiscretizedField(
        field.ladder,
        field.n_scales,
        points_per_shell=max(
            field.points_per_shell + 1,
            int(round(field.points_per_shell * REFINE_FACTOR)),
        ),
        r_max=field.r_max,
        n_max=field.n_max,
        uv_points_per_panel=max(
            field.uv_points_per_panel + 1,
            int(round(field.uv_points_per_panel * REFINE_FACTOR)),
        ),
    )
    if abs(cfg.theta.real) != 0.0:
        refined = refined.scaled(float(np.exp(cfg.theta.real)))
    H = assemble_hamiltonian(cfg, refined, n=None)
    deltas = {}
    for i, data in tracked.items():
        key = +1 if i == 1 else -1  # the sector holding phi_i (x) vacuum
        sec, lam = H.sectors[key], data.lam
        if ShiftedSolver(sec, lam).singular:
            deltas[i] = 0.0
            continue
        lam_ref = contour_eigenpair(sec, lam, 0.4 * data.gap, None, key)[0]
        deltas[i] = abs(lam_ref - lam)
    return deltas


def theta_invariance_scan(
    cfg: ModelConfig,
    field: DiscretizedField,
    theta_list,
    levels: tuple,
    jobs: int,
) -> InvarianceReport:
    """Constancy of the tracked eigenvalues along the dilation orbit.

    Real dilation shifts move the radial coordinate, so each sample is
    assembled on the grid scaled by exp(Re theta); with that covariant
    grid a pure Re-theta shift reproduces the identical matrix and the
    eigenvalues match to solver precision.  Imaginary-part moves change
    the quadrature of a theta-independent quantity and are compared
    against the budget: the solver floor plus twice the largest one-step
    grid-refinement delta at the first sample (``_refinement_delta``, on
    the contour projector of the refined grid around the first sample's
    values), measured on every scan.  ``jobs`` goes to every ladder.
    """
    if len(theta_list) < 3:
        raise ConfigError("an invariance scan needs at least three samples")
    for theta in theta_list:
        cfg.validate_theta(theta)
    lambdas: dict = {i: [] for i in levels}
    dims, first = [], None  # first: the first sample's last-scale levels
    for theta in theta_list:
        cfg_t = cfg.replace(theta=theta)
        grid = (
            field
            if abs(theta.real) == 0.0
            else field.scaled(float(np.exp(theta.real)))
        )
        # only the last scale's record is kept: the trace, and the full-grid
        # operator it holds, goes before the next ladder runs
        last = run_ladder(cfg_t, grid, levels=levels, jobs=jobs).scales[-1]
        dims.append(last.dim)
        first = first or last.levels
        for i in levels:
            lambdas[i].append(last.levels[i].lam)
    max_pairwise = {
        i: float(
            max(
                abs(a - b)
                for k, a in enumerate(vals)
                for b in vals[k + 1 :]
            )
        )
        if len(vals) > 1
        else 0.0
        for i, vals in lambdas.items()
    }
    scale = max(abs(v) for vals in lambdas.values() for v in vals)
    tol_solver = solver_tolerance(max(dims), scale)
    details: dict = {"solver_tolerance": tol_solver}
    deltas = _refinement_delta(cfg.replace(theta=theta_list[0]), field, first)
    details["refinement_delta"] = {str(i): float(d) for i, d in deltas.items()}
    budget = tol_solver + 2.0 * max(deltas.values())

    # pure real shifts: paired samples with equal Im theta must coincide
    re_pairs = []
    for a in range(len(theta_list)):
        for b in range(a + 1, len(theta_list)):
            ta, tb = theta_list[a], theta_list[b]
            if abs(ta.imag - tb.imag) < 1e-15 and abs(ta.real - tb.real) > 0:
                dev = max(abs(lambdas[i][a] - lambdas[i][b]) for i in levels)
                re_pairs.append(
                    {"pair": [a, b], "deviation": float(dev)}
                )
    details["real_shift_pairs"] = re_pairs
    return InvarianceReport(
        parameter="theta",
        samples=[complex(t) for t in theta_list],
        lambdas=lambdas,
        max_pairwise=max_pairwise,
        budget=budget,
        details=details,
    )


def g_analyticity_check(
    cfg: ModelConfig,
    field: DiscretizedField,
    center: complex,
    radius: float,
    n_samples: int,
    levels: tuple,
    jobs: int,
    eval_fn=None,
) -> InvarianceReport:
    """Discrete Cauchy test of analyticity in the coupling.

    Samples the eigenvalue map on a circle of couplings and checks two
    residuals of analyticity: the sample mean must reproduce the center
    value and the (-1)-Fourier coefficient must vanish.  ``eval_fn`` may
    replace the ladder route by any callable g -> {level: lambda}, which
    the synthetic tests use.  ``jobs`` goes to every ladder.  The report's
    ``budget`` is left unset: ``g-circle`` records there the tolerance
    ``cli.G_CIRCLE_TOL`` that gates it.
    """
    if n_samples < 8:
        raise ConfigError("the coupling circle needs at least eight samples")
    if eval_fn is None:

        def eval_fn(g):
            trace = run_ladder(cfg.replace(g=g), field, levels=levels, jobs=jobs)
            return {i: data.lam for i, data in trace.scales[-1].levels.items()}

    ks = np.arange(n_samples)
    phases = np.exp(2j * pi * ks / n_samples)
    gs = center + radius * phases
    lam_samples = {i: [] for i in levels}
    for g in gs:
        vals = eval_fn(complex(g))
        for i in levels:
            lam_samples[i].append(complex(vals[i]))
    lam_center = eval_fn(complex(center))
    details: dict = {"fourier": {}}
    max_resid = {}
    for i in levels:
        arr = np.array(lam_samples[i])
        coeff = {
            m: complex(np.mean(arr * np.exp(-2j * pi * m * ks / n_samples)))
            for m in range(-1, min(4, n_samples - 1))
        }
        resid_mean = abs(coeff[0] - complex(lam_center[i]))
        resid_neg = abs(coeff[-1])
        scale = max(1e-300, abs(coeff[0]))
        max_resid[i] = float(max(resid_mean, resid_neg) / scale)
        details["fourier"][str(i)] = {
            "taylor_estimates": [
                coeff[m] / radius**m for m in range(0, min(4, n_samples - 1))
            ],
            "mean_residual": float(resid_mean),
            "fourier_minus1_residual": float(resid_neg),
        }
    return InvarianceReport(
        parameter="g",
        samples=[complex(g) for g in gs],
        lambdas=lam_samples,
        max_pairwise=max_resid,
        details=details,
    )


def spectrum_cone_check(trace: MultiscaleTrace, tol: float) -> dict:
    """Cone localization of the full-grid spectrum inside the level boxes.

    The last scale of ``trace`` is its field's full grid and supplies the
    spectrum and, for each level i the ladder tracked, lambda_i.  Every
    eigenvalue of the deepest-cutoff operator that falls in the first-scale
    box of level i must lie within ``tol`` of the cone with vertex at the
    tracked lambda_i and divisor ``cfg.m_cone`` (the trace's config).
    Truncation-starved states (``census.starved(box, lambda_i)``: the
    partners of a top-layer entry, whose decay channel the boson cutoff
    removed; lambda_i itself never is one) are counted and not tested.
    ``max_dist`` covers the tested states, ``max_dist_raw`` all of them;
    each is None where it covers no state.

    ``chain`` holds, per level, one ``verify_cone_chain`` row for each
    consecutive pair of scales of the trace: the nested-cone step from
    lambda_i^(n) to lambda_i^(n+1).  Every row must pass too.
    """
    cfg, field, last = trace.cfg, trace.field, trace.scales[-1]
    rho1, census = field.ladder.cutoff(1), last.census
    out: dict = {"levels": {}, "chain": {}, "dim": last.dim}
    for i in sorted(last.levels):
        lam = complex(last.levels[i].lam)
        cone = Cone(lam, cfg.nu, cfg.m_cone)
        box = Box.b1(cfg, i, rho1)
        starved = census.starved(box, lam)  # it may re-solve, so values after it
        inside = box.contains(census.values)
        rows = [
            {"z": z, "dist": float(dist_to_cone(cone, z)), "starved_branch": s}
            for z, s in zip(census.values[inside], starved[inside].tolist())
        ]
        tested = [r for r in rows if not r["starved_branch"]]
        violations = [r for r in tested if r["dist"] > tol]
        out["levels"][i] = {
            "vertex": lam,
            "n_in_box": len(rows),
            "n_starved_branch": sum(r["starved_branch"] for r in rows),
            "max_dist": max((r["dist"] for r in tested), default=None),
            "max_dist_raw": max((r["dist"] for r in rows), default=None),
            "violations": violations,
            "pass": not violations,
        }
        out["chain"][i] = [
            {"n": a.n, **verify_cone_chain(a.levels[i].lam, b.levels[i].lam,
                                           field.ladder, a.n, cfg)}
            for a, b in zip(trace.scales, trace.scales[1:])
        ]
    out["pass"] = all(v["pass"] for v in out["levels"].values()) and all(
        row["pass"] for rows in out["chain"].values() for row in rows
    )
    return out


def resolvent_cone_bound_check(
    trace: MultiscaleTrace, n_samples: int, seed: int
) -> dict:
    """Fit of |(H - z)^(-1)| <= K / dist(z, cone(lambda_1)) over the box.

    The last scale of ``trace`` is its field's full grid and supplies
    lambda_1, the full-grid spectrum and the operator whose resolvent
    norms are taken, one point after another (``trace.operator``, the one
    the ladder built).  The cones have divisor ``cfg.m_cone`` (the trace's
    config).

    ``Box.sample`` draws 70 % of the points uniformly over the box, the
    rest at log-uniform distances from lambda_1.  Samples avoid the
    backward-shifted cone (vertex moved by 2 rho_N^(1 + mu/4) along the
    axis); points landing inside it or outside the box, or on the vertex
    cone itself, are skipped with a note.  Truncation-starved branch
    eigenvalues pollute the sampled region (in the untruncated model it
    belongs to the resolvent set), so samples inside a small exclusion
    radius (``ARTIFACT_EXCLUSION``) of those artifact eigenvalues are
    skipped and counted as well.  The box's starved eigenvalues are those
    of ``census.starved(box, lambda_1)``, the rule ``spectrum_cone_check``
    applies to the same box: partners of a top-layer entry of their sector.
    """
    cfg, field, last = trace.cfg, trace.field, trace.scales[-1]
    lam1 = complex(last.levels[1].lam)
    rho_last = field.ladder.cutoff(field.n_scales)
    shift = 2.0 * rho_last ** (1.0 + cfg.mu / 4.0)
    axis = np.exp(-1j * cfg.nu)
    cone_main = Cone(lam1, cfg.nu, cfg.m_cone)
    cone_forbidden = Cone(lam1 - shift * axis, cfg.nu, cfg.m_cone)
    box = Box.b1(cfg, 1, field.ladder.cutoff(1))

    mask = last.census.starved(box, lam1)  # it may re-solve, so values after it
    starved = last.census.values[mask]

    def reject(z: complex) -> str | None:
        if cone_contains(cone_forbidden, z):
            return "forbidden"
        if len(starved) and np.min(np.abs(starved - z)) < ARTIFACT_EXCLUSION:
            return "artifact"
        return None

    samples, skipped = box.sample(
        np.random.default_rng(seed), n_samples, int(0.7 * n_samples), lam1,
        lambda r: 10.0 ** r.uniform(-3, np.log10(0.4 * cfg.delta)), reject,
    )
    rows = []
    degenerate = 0
    k_fit = 0.0
    for z in samples:
        dist = dist_to_cone(cone_main, z)
        if dist <= 1e-12:
            degenerate += 1
            continue
        lhs = resolvent_norm(trace.operator, z)
        rows.append({"z": z, "lhs": float(lhs), "dist": float(dist)})
        k_fit = max(k_fit, lhs * dist)
    return {
        "K": float(k_fit),
        "n_used": len(rows),
        "n_skipped_forbidden": skipped["outside"] + skipped["forbidden"],
        "n_skipped_artifact": skipped["artifact"],
        "n_skipped_on_cone": degenerate,
        "vertex": lam1,
        "rows": rows,
    }
