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

from .errors import ConfigError, TrackingError
from .geometry import Box, Cone, cone_contains, dist_to_cone, verify_cone_chain
from .model import (
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    coupling_amplitudes,
    form_factor,
)
from .multiscale import MultiscaleTrace, run_ladder, soft_branch_tolerance
from .spectral import resolvent_scan, shifted_inverse_eigenvalue

# Grid refinement of the theta-invariance budget: points per shell and per
# ultraviolet panel grow by this factor (and by at least one).
REFINE_FACTOR = 1.5
# Resolvent samples closer than this to a truncation-starved eigenvalue
# are skipped.
ARTIFACT_EXCLUSION = 5e-3


def solver_tolerance(dim: int, scale: float) -> float:
    """Backward-error floor for dense nonsymmetric eigenvalues."""
    return 100.0 * dim * np.finfo(float).eps * max(1.0, scale)


@dataclass
class InvarianceReport:
    """Eigenvalue drift across a parameter scan plus its tolerance budget."""

    parameter: str
    samples: list
    lambdas: dict
    max_pairwise: dict
    budget: float | None = None
    details: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        def cplx(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "parameter": self.parameter,
            "samples": [cplx(s) for s in self.samples],
            "lambdas": {
                str(i): [cplx(v) for v in vals] for i, vals in self.lambdas.items()
            },
            "max_pairwise": {str(i): v for i, v in self.max_pairwise.items()},
            "budget": self.budget,
            "details": self.details,
        }


def golden_rule_coefficient(cfg: ModelConfig) -> float:
    """Leading decay coefficient -4 pi^2 (e1 - e0)^2 f(e1 - e0)^2."""
    gap = cfg.delta
    return -4.0 * pi**2 * gap**2 * form_factor(gap, cfg) ** 2


def second_order_eigenvalue(
    cfg: ModelConfig,
    modes,
    i: int,
    g: complex | None = None,
    theta: complex | None = None,
) -> complex:
    """Second-order perturbation value of lambda_i on the discretized modes.

    The intermediate states are the flipped atom level dressed with one
    boson; the bilinear pairing squares the coupling amplitudes without
    conjugation.
    """
    g = cfg.g if g is None else g
    theta = cfg.theta if theta is None else theta
    coeffs = coupling_amplitudes(cfg, modes, theta=theta)
    e_i = cfg.e1 if i == 1 else cfg.e0
    e_other = cfg.e0 if i == 1 else cfg.e1
    denom = e_i - e_other - np.exp(-theta) * modes.frequencies
    return complex(e_i + g**2 * np.sum(coeffs**2 / denom))


def fermi_golden_rule(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    g_list,
    quad_points: int = 16,
    jobs: int = 1,
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
    modes_full = field_disc.modes_for_scale(None)
    rows = []
    for g in g_list:
        cfg_g = cfg.replace(g=g)
        trace = run_ladder(
            cfg_g, ladder, field_disc, levels=(1,), quad_points=quad_points,
            jobs=jobs,
        )
        lam = trace.scales[-1].levels[1].lam
        ratio = lam.imag / abs(g) ** 2 if g != 0 else 0.0
        pt2 = second_order_eigenvalue(cfg_g, modes_full, i=1)
        rows.append(
            {
                "g": float(abs(g)),
                "lambda1": [lam.real, lam.imag],
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
                "trace": trace,
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


def _final_lambda(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    levels: tuple,
    quad_points: int = 16,
    jobs: int = 1,
):
    trace = run_ladder(
        cfg, ladder, field_disc, levels=levels, quad_points=quad_points,
        jobs=jobs,
    )
    return {i: trace.scales[-1].levels[i].lam for i in levels}, trace


def _refinement_delta(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    lam_base: dict,
) -> dict:
    """One-step grid-refinement sensitivity of the final eigenvalues.

    The refined operator is assembled at the last scale only and the
    eigenvalue nearest the base value is pulled out by shifted inverse
    iteration; the ladder need not be rerun since the eigenvalue gap far
    exceeds the grid sensitivity.
    """
    refined = DiscretizedField(
        field_disc.ladder,
        field_disc.n_scales,
        points_per_shell=max(
            field_disc.points_per_shell + 1,
            int(round(field_disc.points_per_shell * REFINE_FACTOR)),
        ),
        r_max=field_disc.r_max,
        n_max=field_disc.n_max,
        uv_points_per_panel=max(
            field_disc.uv_points_per_panel + 1,
            int(round(field_disc.uv_points_per_panel * REFINE_FACTOR)),
        ),
        state_cap=field_disc.state_cap,
    )
    H = assemble_hamiltonian(cfg, refined, n=None)
    deltas = {}
    for i, lam in lam_base.items():
        sector = H.sectors[+1 if i == 1 else -1]  # the one holding phi_i (x) vacuum
        lam_ref, _ = shifted_inverse_eigenvalue(sector, complex(lam))
        deltas[i] = abs(lam_ref - lam)
    return deltas


def theta_invariance_scan(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    theta_list,
    levels: tuple = (0, 1),
    quad_points: int = 16,
    measure_budget: bool = True,
    jobs: int = 1,
) -> InvarianceReport:
    """Constancy of the tracked eigenvalues along the dilation orbit.

    Real dilation shifts move the radial coordinate, so each sample is
    assembled on the grid scaled by exp(Re theta); with that covariant
    grid a pure Re-theta shift reproduces the identical matrix and the
    eigenvalues match to solver precision.  Imaginary-part moves change
    the quadrature of a theta-independent quantity and are compared
    against the measured budget.  ``jobs`` goes to every ladder.
    """
    if len(theta_list) < 3:
        raise ConfigError("an invariance scan needs at least three samples")
    for theta in theta_list:
        cfg.validate_theta(theta)
    lambdas: dict = {i: [] for i in levels}
    dims = []
    for theta in theta_list:
        cfg_t = cfg.replace(theta=theta)
        grid = (
            field_disc
            if abs(theta.real) == 0.0
            else field_disc.scaled(float(np.exp(theta.real)))
        )
        lams, trace = _final_lambda(cfg_t, ladder, grid, levels, quad_points, jobs)
        dims.append(trace.scales[-1].dim)
        for i in levels:
            lambdas[i].append(lams[i])
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

    budget = None
    if measure_budget:
        base_cfg = cfg.replace(theta=theta_list[0])
        base_lams = {i: lambdas[i][0] for i in levels}
        deltas = _refinement_delta(base_cfg, ladder, field_disc, base_lams)
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
        samples=list(theta_list),
        lambdas=lambdas,
        max_pairwise=max_pairwise,
        budget=budget,
        details=details,
    )


def g_analyticity_check(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    center: complex,
    radius: float,
    n_samples: int = 8,
    levels: tuple = (0, 1),
    eval_fn=None,
    quad_points: int = 16,
    jobs: int = 1,
) -> InvarianceReport:
    """Discrete Cauchy test of analyticity in the coupling.

    Samples the eigenvalue map on a circle of couplings and checks two
    residuals of analyticity: the sample mean must reproduce the center
    value and the (-1)-Fourier coefficient must vanish.  ``eval_fn`` may
    replace the ladder route by any callable g -> {level: lambda}, which
    the synthetic tests use.  ``jobs`` goes to every ladder.
    """
    if n_samples < 8:
        raise ConfigError("the coupling circle needs at least eight samples")
    if eval_fn is None:

        def eval_fn(g):
            lams, _ = _final_lambda(
                cfg.replace(g=g), ladder, field_disc, levels, quad_points, jobs
            )
            return lams

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
                [
                    (coeff[m] / radius**m).real,
                    (coeff[m] / radius**m).imag,
                ]
                for m in range(0, min(4, n_samples - 1))
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


def _full_grid_scale(trace: MultiscaleTrace, field_disc: DiscretizedField):
    """The ladder's last scale and its spectral census.

    That scale must be the full grid's, so its operator is the one the
    cone checks are about; a ladder stopped earlier raises TrackingError.
    """
    last = trace.scales[-1]
    if last.n != field_disc.n_scales:
        raise TrackingError(
            f"the ladder stopped at scale {last.n}; the cone checks need the "
            f"full grid's scale {field_disc.n_scales}"
        )
    return last, last.census


def spectrum_cone_check(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    trace: MultiscaleTrace,
    tol: float,
    levels: tuple = (0, 1),
    m: int | None = None,
) -> dict:
    """Cone localization of the full-grid spectrum inside the level boxes.

    ``trace`` is a ladder run on ``field_disc`` down to its last scale,
    which supplies lambda_i and the full-grid spectrum.  Every eigenvalue
    of the deepest-cutoff operator that falls in the first-scale box of
    level i must lie within ``tol`` of the cone with vertex at the
    tracked lambda_i.  Truncation-starved soft-branch
    states (multiboson states whose decay channel exceeds the total-number
    cutoff; they sit one core width above their physical position and are
    recognized by their distance to the free branch lattice) are tested
    after restoring the core dressing lambda_i - e_i; raw distances are
    reported for both classes.

    ``chain`` holds, per level, one ``verify_cone_chain`` row for each
    consecutive pair of scales of the trace: the nested-cone step from
    lambda_i^(n) to lambda_i^(n+1).  Every row must pass too.
    """
    m = cfg.m_cone if m is None else m
    cone_cfg = cfg.replace(m_cone=m)  # the chain's cones have the same shape
    last, census = _full_grid_scale(trace, field_disc)
    modes = field_disc.modes_for_scale(None)
    box = Box.b1(cfg, 1, ladder.cutoff(1))  # every level's box is as high
    max_freq = (box.hi - box.lo) / np.sin(cfg.nu)
    branch_tol = soft_branch_tolerance(cfg, modes, max_freq)
    out: dict = {"levels": {}, "chain": {}, "dim": last.dim,
                 "branch_tol": branch_tol}
    for i in levels:
        lam = complex(last.levels[i].lam)
        bare = cfg.e1 if i == 1 else cfg.e0
        dressing = lam - bare
        cone = Cone(lam, cfg.nu, m)
        in_box, lattice_dist = census.in_box(Box.b1(cfg, i, ladder.cutoff(1)))
        soft = lattice_dist <= branch_tol
        rows = []
        violations = []
        n_starved = 0
        for z, starved in zip(in_box, soft.tolist()):
            raw = dist_to_cone(cone, z)
            eff = dist_to_cone(cone, z + dressing) if starved else raw
            n_starved += starved
            rows.append(
                {
                    "z": [z.real, z.imag],
                    "dist_raw": float(raw),
                    "dist": float(eff),
                    "starved_branch": starved,
                }
            )
            if eff > tol:
                violations.append(rows[-1])
        out["levels"][i] = {
            "vertex": [lam.real, lam.imag],
            "n_in_box": len(in_box),
            "n_starved_branch": n_starved,
            "max_dist": float(max((r["dist"] for r in rows), default=0.0)),
            "max_dist_raw": float(max((r["dist_raw"] for r in rows), default=0.0)),
            "violations": violations,
            "pass": not violations,
        }
        out["chain"][i] = [
            {"n": a.n, **verify_cone_chain(a.levels[i].lam, b.levels[i].lam,
                                           ladder, a.n, cone_cfg)}
            for a, b in zip(trace.scales, trace.scales[1:])
        ]
    out["pass"] = all(v["pass"] for v in out["levels"].values()) and all(
        row["pass"] for rows in out["chain"].values() for row in rows
    )
    return out


def resolvent_cone_bound_check(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    trace: MultiscaleTrace,
    n_samples: int = 200,
    seed: int = 0,
    m: int | None = None,
    jobs: int = 1,
) -> dict:
    """Fit of |(H - z)^(-1)| <= K / dist(z, cone(lambda_1)) over the box.

    ``trace`` is a ladder run on ``field_disc`` down to its last scale,
    which supplies lambda_1 and the full-grid spectrum; the operator is
    reassembled for the resolvent norms, which ``jobs`` threads evaluate.

    Samples avoid the backward-shifted cone (vertex moved by
    2 rho_N^(1 + mu/4) along the axis); points landing inside it or on the
    vertex cone itself are skipped with a note.  Truncation-starved branch
    eigenvalues pollute the sampled region (in the untruncated model it
    belongs to the resolvent set), so samples inside a small exclusion
    radius (``ARTIFACT_EXCLUSION``) of those artifact eigenvalues are
    skipped and counted as well.
    """
    m = cfg.m_cone if m is None else m
    last, census = _full_grid_scale(trace, field_disc)
    lam1 = complex(last.levels[1].lam)
    rho_last = ladder.cutoff(field_disc.n_scales)
    shift = 2.0 * rho_last ** (1.0 + cfg.mu / 4.0)
    axis = np.exp(-1j * cfg.nu)
    cone_main = Cone(lam1, cfg.nu, m)
    cone_forbidden = Cone(lam1 - shift * axis, cfg.nu, m)
    box = Box.b1(cfg, 1, ladder.cutoff(1))

    rng = np.random.default_rng(seed)
    H = assemble_hamiltonian(cfg, field_disc, n=None)
    in_box, lattice_dist = census.in_box(box)
    modes = field_disc.modes_for_scale(None)
    starved = in_box[lattice_dist <= soft_branch_tolerance(cfg, modes)]

    def near_artifact(z: complex) -> bool:
        return len(starved) > 0 and bool(
            np.min(np.abs(starved - z)) < ARTIFACT_EXCLUSION
        )

    samples = []
    skipped_forbidden = 0
    skipped_artifact = 0
    n_uniform = int(0.7 * n_samples)
    guard = 0
    while len(samples) < n_uniform and guard < 400 * n_samples:
        guard += 1
        z = complex(
            rng.uniform(box.level - box.half_width, box.level + box.half_width),
            rng.uniform(box.lo, box.hi),
        )
        if not box.contains(z):
            continue
        if cone_contains(cone_forbidden, z):
            skipped_forbidden += 1
            continue
        if near_artifact(z):
            skipped_artifact += 1
            continue
        samples.append(z)
    while len(samples) < n_samples and guard < 800 * n_samples:
        guard += 1
        r = 10.0 ** rng.uniform(-3, np.log10(0.4 * cfg.delta))
        z = lam1 + r * np.exp(2j * pi * rng.uniform())
        if not box.contains(z) or cone_contains(cone_forbidden, z):
            skipped_forbidden += 1
            continue
        if near_artifact(z):
            skipped_artifact += 1
            continue
        samples.append(z)

    kept = []
    degenerate = 0
    for z in samples:
        dist = dist_to_cone(cone_main, z)
        if dist <= 1e-12:
            degenerate += 1
            continue
        kept.append((z, dist))
    scan = resolvent_scan(H, [z for z, _ in kept], jobs)
    rows = []
    k_fit = 0.0
    for (z, dist), (_, lhs) in zip(kept, scan):
        rows.append(
            {"z": [z.real, z.imag], "lhs": float(lhs), "dist": float(dist)}
        )
        k_fit = max(k_fit, lhs * dist)
    return {
        "K": float(k_fit),
        "n_used": len(rows),
        "n_skipped_forbidden": skipped_forbidden,
        "n_skipped_artifact": skipped_artifact,
        "n_skipped_on_cone": degenerate,
        "vertex": [lam1.real, lam1.imag],
        "rows": rows,
    }
