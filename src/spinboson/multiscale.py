"""Infrared ladder: per-scale eigenvalue tracking and induction checks.

Scale n keeps the boson modes above the cutoff rho_n = rho0 rho^n.  The
run seeds each scale's eigenvalue search with the previous scale's result
(scale 1 is seeded at the bare atomic levels), builds the rank-one contour
projector of the tracked eigenvalue, and records the quantities the
induction argument controls:

* P1: the per-scale eigenvalue motion |lambda^(n) - lambda^(n-1)|, against
  a strict bound |g| C^(n+1) rho_{n-1}^(1+mu) and the practical envelope
  |g| (1/2)^(n-1) rho_{n-1};
* P2: uniqueness of the tracked eigenvalue in its per-scale window;
* P3: the projector motion |P^(n) - P^(n-1) (x) P_vac|, exact through the
  nested grids (tensoring with the new shells' vacuum is an index
  embedding), against (|g|/rho) C^(2n+2) rho_{n-1}^mu and the practical
  envelope (|g|/rho) (1/2)^(n-1);
* P4: the projected resolvent bound |(H - z)^(-1) (1 - P)| against the
  shape K_n / (rho_n + |z - lambda^(n)|) on sampled z.

The per-scale uniqueness window is the level box with its lower edge
anchored a quarter contour radius below the tracked eigenvalue.  In the
small-coupling regime this is identical to the literal per-scale box; at
practical couplings the resonance can sink below the first-scale box floor
(its width is O(g^2) versus a floor at rho_1 sin(nu) / 2) and the anchored
window is the faithful surrogate.  Both counts are recorded.

One truncation effect needs care in the uniqueness count: with a total
boson cutoff, the deepest multiboson states above the resonance (excited
core plus n_max soft bosons) lose their decay channel and sit a resonance
width higher than physics puts them, so at deep scales they drift into the
window.  They are identified by their distance to the free soft-branch
lattice, which is smaller by orders of magnitude than any genuine second
eigenvalue's displacement, counted separately, and excluded from the
uniqueness verdict.  At couplings inside the smallness windows the lattice
never intersects the window and the check is the literal one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import TrackingError
from .geometry import Region, region_contains
from .model import (
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    coupling_amplitudes,
)
from .spectral import (
    RieszProjector,
    block_resolvent_norm,
    projected_resolvent_norm,
    rank_two_difference_norm,
    sort_spectrum,
    track_eigenvalue,
)

SCHEMA_VERSION = 1


@dataclass
class LevelScaleData:
    """Tracked data of one atomic level at one scale."""

    lam: complex
    gap: float
    residual: float
    rayleigh_disagreement: float
    projector_residual: float
    projector_trace: complex
    projector_quad_points: int
    contour_safe: bool
    p2_count_window: int
    p2_count_box: int
    p2_soft_branch_count: int
    p2_violation_count: int
    p2_unique: bool
    p1_gap: float | None = None
    p3_gap: float | None = None
    first_scale_shift: float | None = None
    atomic_projector_gap: float | None = None


@dataclass
class ScaleRecord:
    n: int
    rho_n: float
    contour_radius: float
    dim: int
    levels: dict = field(default_factory=dict)


@dataclass
class MultiscaleTrace:
    """Per-scale records of one ladder run plus check attachments."""

    g: complex
    theta: complex
    mu: float
    e1: float
    rho0: float
    rho: float
    n_scales: int
    n_max: int
    points_per_shell: int
    scales: list = field(default_factory=list)
    extrapolated: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    wall_time: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        self._projectors: dict = {}
        self._eigs: dict = {}
        self._vectors: dict = {}

    def level_series(self, i: int, name: str) -> list:
        return [getattr(rec.levels[i], name) for rec in self.scales]

    def spectrum(self, n: int) -> np.ndarray:
        """The scale-n operator's eigenvalues, sorted as ``eig_all`` sorts."""
        return sort_spectrum(self._eigs[n])

    def to_dict(self) -> dict:
        def cplx(z):
            z = complex(z)
            return [z.real, z.imag]

        scales = []
        for rec in self.scales:
            levels = {}
            for i, data in rec.levels.items():
                levels[str(i)] = {
                    "lambda": cplx(data.lam),
                    "gap": data.gap,
                    "residual": data.residual,
                    "rayleigh_disagreement": data.rayleigh_disagreement,
                    "projector_residual": data.projector_residual,
                    "projector_trace": cplx(data.projector_trace),
                    "projector_quad_points": data.projector_quad_points,
                    "contour_safe": data.contour_safe,
                    "p2_count_window": data.p2_count_window,
                    "p2_count_box": data.p2_count_box,
                    "p2_soft_branch_count": data.p2_soft_branch_count,
                    "p2_violation_count": data.p2_violation_count,
                    "p2_unique": data.p2_unique,
                    "p1_gap": data.p1_gap,
                    "p3_gap": data.p3_gap,
                    "first_scale_shift": data.first_scale_shift,
                    "atomic_projector_gap": data.atomic_projector_gap,
                }
            scales.append(
                {
                    "n": rec.n,
                    "rho_n": rec.rho_n,
                    "contour_radius": rec.contour_radius,
                    "dim": rec.dim,
                    "levels": levels,
                }
            )
        return {
            "schema_version": self.schema_version,
            "g": cplx(self.g),
            "theta": cplx(self.theta),
            "mu": self.mu,
            "e1": self.e1,
            "rho0": self.rho0,
            "rho": self.rho,
            "n_scales": self.n_scales,
            "n_max": self.n_max,
            "points_per_shell": self.points_per_shell,
            "scales": scales,
            "extrapolated": self.extrapolated,
            "checks": self.checks,
            "warnings": list(self.warnings),
        }


def _embed_full_vector(
    field: DiscretizedField, n_small: int, n_big: int, vec: np.ndarray
) -> np.ndarray:
    """Zero-pad an atom (x) Fock vector from a coarse scale into a fine one."""
    emb = field.embedding_indices(n_small, n_big)
    dim_small = field.basis_for_scale(n_small).dim
    dim_big = field.basis_for_scale(n_big).dim
    out = np.zeros(2 * dim_big, dtype=complex)
    out[emb] = vec[:dim_small]
    out[dim_big + emb] = vec[dim_small:]
    return out


def _atomic_vacuum(i: int, dim: int) -> np.ndarray:
    """phi_i (x) vacuum in the global coordinates (excited atom first)."""
    vec = np.zeros(dim, dtype=complex)
    vec[0 if i == 1 else dim // 2] = 1.0
    return vec


def soft_branch_lattice(cfg: ModelConfig, modes, n_max: int) -> np.ndarray:
    """Free multiboson branch points e_a + exp(-theta) * (mode-sum).

    Sums run over occupation patterns with 1 .. n_max bosons.  These are
    the zero-coupling positions of the soft branches; with a total-number
    truncation the deepest multiboson states keep only an O(g^2 c_soft^2)
    dressing (their decay channel needs one boson more than the cutoff
    allows), so the interacting spectrum contains near-copies of this
    lattice.
    """
    freqs = modes.frequencies
    sums = [freqs]
    if n_max >= 2:
        pair = freqs[:, None] + freqs[None, :]
        sums.append(pair[np.triu_indices(len(freqs))])
    if n_max >= 3:
        pair = sums[1]
        triple = (pair[:, None] + freqs[None, :]).ravel()
        sums.append(np.unique(np.round(triple, 14)))
    all_sums = np.concatenate(sums)
    phase = np.exp(-cfg.theta)
    return np.concatenate(
        [cfg.e0 + phase * all_sums, cfg.e1 + phase * all_sums]
    )


def soft_branch_tolerance(
    cfg: ModelConfig, modes, max_freq: float | None = None
) -> float:
    """Matching tolerance for truncation-starved soft-branch states.

    Such a state keeps only the annihilation-channel dressing of its soft
    bosons, of size |g|^2 |c_j|^2; the factor 20 covers multi-boson sums
    and stays orders of magnitude below any genuine eigenvalue shift.
    """
    coeffs = np.abs(coupling_amplitudes(cfg, modes)) ** 2
    if max_freq is not None:
        coeffs = coeffs[modes.frequencies <= max(max_freq, 0.0)]
    top = float(np.max(coeffs)) if len(coeffs) else 0.0
    return max(20.0 * abs(cfg.g) ** 2 * top, 1e-10)


def _classify_window_spectrum(
    cfg: ModelConfig,
    modes,
    n_max: int,
    window_eigs: np.ndarray,
    lam: complex,
    window_height: float,
) -> tuple[int, int]:
    """Split in-window eigenvalues into soft-branch copies and violations.

    Returns (soft_branch_count, violation_count) over the eigenvalues other
    than the tracked one.
    """
    others = [z for z in window_eigs if abs(z - lam) > 1e-12 * max(1.0, abs(lam))]
    if not others:
        return 0, 0
    lattice = soft_branch_lattice(cfg, modes, n_max)
    tol = soft_branch_tolerance(cfg, modes, window_height / np.sin(cfg.nu))
    n_soft = 0
    n_bad = 0
    for z in others:
        if np.min(np.abs(lattice - z)) <= tol:
            n_soft += 1
        else:
            n_bad += 1
    return n_soft, n_bad


def _window_region(cfg: ModelConfig, ladder: CutoffLadder, i: int, n: int, lam):
    return Region(
        "Wn",
        e0=cfg.e0,
        e1=cfg.e1,
        nu=cfg.nu,
        i=i,
        rho_n=ladder.cutoff(n),
        lam=complex(lam),
    )


def _box_region(cfg: ModelConfig, ladder: CutoffLadder, i: int, n: int, lam):
    return Region(
        "Bn",
        e0=cfg.e0,
        e1=cfg.e1,
        nu=cfg.nu,
        i=i,
        rho1=ladder.cutoff(1),
        rho_n=ladder.cutoff(n),
        lam=complex(lam),
    )


def run_ladder(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    n_scales: int | None = None,
    levels: tuple = (0, 1),
    quad_points: int = 16,
    agree_tol: float = 1e-8,
) -> MultiscaleTrace:
    """Run the infrared ladder and collect the induction diagnostics.

    Each scale tracks lambda_i from the previous scale's value, rebuilds
    the rank-one contour projector, and compares it against the previous
    projector tensored with the new shells' vacuum.
    """
    t0 = time.perf_counter()
    n_scales = field_disc.n_scales if n_scales is None else n_scales
    if n_scales > field_disc.n_scales:
        raise TrackingError("field grid does not cover the requested scales")
    trace = MultiscaleTrace(
        g=cfg.g,
        theta=cfg.theta,
        mu=cfg.mu,
        e1=cfg.e1,
        rho0=ladder.rho0,
        rho=ladder.rho,
        n_scales=n_scales,
        n_max=field_disc.n_max,
        points_per_shell=field_disc.points_per_shell,
    )
    bare = {0: cfg.e0, 1: cfg.e1}
    prev_lam = dict(bare)
    prev_vec: dict = {}

    for n in range(1, n_scales + 1):
        H = assemble_hamiltonian(cfg, field_disc, n=n)
        modes = field_disc.modes_for_scale(n)
        all_eigs = np.concatenate([s.eigvals for s in H.sectors.values()])
        trace._eigs[n] = all_eigs
        rho_n = ladder.cutoff(n)
        contour_radius = 0.25 * rho_n * np.sin(cfg.nu)
        rec = ScaleRecord(
            n=n, rho_n=rho_n, contour_radius=contour_radius, dim=H.dim
        )
        for i in levels:
            seed = prev_lam[i]
            nearest = complex(all_eigs[np.argmin(np.abs(all_eigs - seed))])
            # widen the search circle when the eigenvalue moved beyond the
            # nominal contour (first scale at practical couplings)
            r_track = max(contour_radius, 2.0 * abs(nearest - seed))
            if i in prev_vec:
                probe = _embed_full_vector(field_disc, n - 1, n, prev_vec[i][0])
                left_probe = _embed_full_vector(field_disc, n - 1, n, prev_vec[i][1])
            else:
                probe = _atomic_vacuum(i, H.dim)
                left_probe = None
            record = track_eigenvalue(
                H,
                seed=seed,
                radius=r_track,
                probe=probe,
                left_probe=left_probe,
                quad_points=quad_points,
                agree_tol=agree_tol,
            )
            lam = record.lam
            proj = record.projector
            u_g = record.right_vector
            l_g = record.left_vector

            window = _window_region(cfg, ladder, i, n, lam)
            box = _box_region(cfg, ladder, i, n, lam)
            in_window = np.array(
                [z for z in all_eigs if region_contains(window, z)]
            )
            count_w = len(in_window)
            count_b = int(sum(region_contains(box, z) for z in all_eigs))
            height = 0.125 * cfg.delta * np.sin(cfg.nu) - (
                lam.imag - 0.25 * rho_n * np.sin(cfg.nu)
            )
            n_soft, n_bad = _classify_window_spectrum(
                cfg, modes, field_disc.n_max, in_window, lam, height
            )

            data = LevelScaleData(
                lam=lam,
                gap=record.gap,
                residual=record.residual,
                rayleigh_disagreement=record.method_disagreement,
                projector_residual=proj.idempotency_residual,
                projector_trace=proj.trace_value,
                projector_quad_points=proj.quad_points,
                contour_safe=bool(record.gap > 2.0 * contour_radius),
                p2_count_window=count_w,
                p2_count_box=count_b,
                p2_soft_branch_count=n_soft,
                p2_violation_count=n_bad,
                p2_unique=bool(n_bad == 0),
            )
            if n == 1:
                data.first_scale_shift = abs(lam - bare[i])
                vac = _atomic_vacuum(i, H.dim)
                data.atomic_projector_gap = rank_two_difference_norm(
                    u_g, l_g, vac, vac
                )
            else:
                data.p1_gap = abs(lam - prev_lam[i])
                u_prev = _embed_full_vector(field_disc, n - 1, n, prev_vec[i][0])
                l_prev = _embed_full_vector(field_disc, n - 1, n, prev_vec[i][1])
                data.p3_gap = rank_two_difference_norm(u_g, l_g, u_prev, l_prev)
            rec.levels[i] = data
            trace._projectors[(n, i)] = proj
            trace._vectors[(n, i)] = (u_g, l_g)
            prev_lam[i] = lam
            prev_vec[i] = (u_g, l_g)
        trace.scales.append(rec)
    trace.wall_time = time.perf_counter() - t0
    return trace


def _fitted_ratio(gaps: list) -> float | None:
    """Geometric mean of successive quotients, None for degenerate input."""
    vals = [g for g in gaps if g is not None]
    if len(vals) < 2 or any(g <= 0.0 for g in vals):
        return None
    quotients = [b / a for a, b in zip(vals[:-1], vals[1:])]
    return float(np.exp(np.mean(np.log(quotients))))


def check_p1(
    trace: MultiscaleTrace,
    cfg: ModelConfig,
    ladder: CutoffLadder,
    log10_C: float | None = None,
) -> dict:
    """Per-scale eigenvalue-motion bounds plus the observed decay ratio."""
    g_abs = abs(cfg.g)
    out: dict = {"levels": {}}
    for i in sorted({k for rec in trace.scales for k in rec.levels}):
        rows = []
        gaps = []
        for rec in trace.scales:
            data = rec.levels[i]
            if data.p1_gap is None:
                continue
            n = rec.n
            rho_prev = ladder.cutoff(n - 1)
            practical = g_abs * 0.5 ** (n - 1) * rho_prev
            row = {
                "n": n,
                "gap": data.p1_gap,
                "practical_bound": practical,
                "practical_pass": bool(data.p1_gap <= practical or g_abs == 0.0),
            }
            if log10_C is not None:
                strict_log10 = (
                    (np.log10(g_abs) if g_abs > 0 else -np.inf)
                    + (n + 1) * log10_C
                    + (1.0 + cfg.mu) * np.log10(rho_prev)
                )
                row["strict_bound_log10"] = float(strict_log10)
                row["strict_pass"] = bool(
                    data.p1_gap == 0.0
                    or np.log10(data.p1_gap) <= strict_log10 + 1e-12
                )
            rows.append(row)
            gaps.append(data.p1_gap)
        out["levels"][i] = {
            "rows": rows,
            "fitted_ratio": _fitted_ratio(gaps),
            "all_practical_pass": bool(all(r["practical_pass"] for r in rows)),
        }
    return out


def check_p3(trace: MultiscaleTrace, cfg: ModelConfig, ladder: CutoffLadder,
             log10_C: float | None = None) -> dict:
    """Per-scale projector-motion bounds plus the observed decay ratio."""
    g_abs = abs(cfg.g)
    rho = ladder.rho
    out: dict = {"levels": {}}
    for i in sorted({k for rec in trace.scales for k in rec.levels}):
        rows = []
        gaps = []
        for rec in trace.scales:
            data = rec.levels[i]
            if data.p3_gap is None:
                continue
            n = rec.n
            practical = (g_abs / rho) * 0.5 ** (n - 1)
            limit_rate = 2.0 * (g_abs / rho) * 0.5**n * ladder.cutoff(n) ** (
                cfg.mu / 2.0
            )
            row = {
                "n": n,
                "gap": data.p3_gap,
                "practical_bound": practical,
                "practical_pass": bool(data.p3_gap <= practical or g_abs == 0.0),
                "limit_rate_envelope": limit_rate,
            }
            if log10_C is not None:
                strict_log10 = (
                    (np.log10(g_abs / rho) if g_abs > 0 else -np.inf)
                    + (2 * n + 2) * log10_C
                    + cfg.mu * np.log10(ladder.cutoff(n - 1))
                )
                row["strict_bound_log10"] = float(strict_log10)
            rows.append(row)
            gaps.append(data.p3_gap)
        out["levels"][i] = {
            "rows": rows,
            "fitted_ratio": _fitted_ratio(gaps),
            "all_practical_pass": bool(all(r["practical_pass"] for r in rows)),
        }
    return out


def _sample_window(
    rng: np.random.Generator,
    cfg: ModelConfig,
    ladder: CutoffLadder,
    i: int,
    n: int,
    lam: complex,
    contour_radius: float,
    count: int,
    avoid: np.ndarray | None = None,
    avoid_radius: float = 0.0,
) -> list:
    """Stratified samples of the scale-n window, denser near the contour.

    Points closer than ``avoid_radius`` to any element of ``avoid`` (the
    truncation-artifact eigenvalues) are rejected.
    """
    region = _window_region(cfg, ladder, i, n, lam)
    level = cfg.e1 if i == 1 else cfg.e0
    delta = cfg.delta
    sn = np.sin(cfg.nu)
    lo_im = lam.imag - 0.25 * ladder.cutoff(n) * sn
    hi_im = 0.125 * delta * sn

    def ok(z: complex) -> bool:
        if not region_contains(region, z):
            return False
        if avoid is not None and len(avoid) and avoid_radius > 0.0:
            if np.min(np.abs(avoid - z)) < avoid_radius:
                return False
        return True

    out = []
    n_uniform = max(1, int(0.6 * count))
    guard = 0
    while len(out) < n_uniform and guard < 100 * count:
        guard += 1
        z = complex(
            rng.uniform(level - 0.5 * delta, level + 0.5 * delta),
            rng.uniform(lo_im, hi_im),
        )
        if ok(z) and abs(z - lam) > 0.25 * contour_radius:
            out.append(z)
    while len(out) < count and guard < 200 * count:
        guard += 1
        radius = contour_radius * rng.uniform(1.5, 6.0)
        z = lam + radius * np.exp(2j * np.pi * rng.uniform())
        if ok(z):
            out.append(z)
    return out


def check_p2_p4(
    trace: MultiscaleTrace,
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    samples_per_scale: int = 50,
    seed: int = 0,
    log10_C: float | None = None,
) -> dict:
    """Spectral uniqueness per window and the projected resolvent shape.

    P2 reuses the stored spectra.  P4 reassembles each scale, samples its
    window, and fits the smallest K_n with
    |(H - z)^(-1) (1 - P)| <= K_n / (rho_n + |z - lambda^(n)|).
    """
    rng = np.random.default_rng(seed)
    out: dict = {"p2": {}, "p4": {}}
    for rec in trace.scales:
        n = rec.n
        for i, data in rec.levels.items():
            out["p2"].setdefault(str(i), {})[str(n)] = {
                "count_window": data.p2_count_window,
                "count_box": data.p2_count_box,
                "soft_branch_count": data.p2_soft_branch_count,
                "violation_count": data.p2_violation_count,
                "unique": data.p2_unique,
            }
    for rec in trace.scales:
        n = rec.n
        H = assemble_hamiltonian(cfg, field_disc, n=n)
        modes = field_disc.modes_for_scale(n)
        lattice = soft_branch_lattice(cfg, modes, field_disc.n_max)
        branch_tol = soft_branch_tolerance(cfg, modes)
        scale_eigs = trace._eigs[n]
        starved = np.array(
            [z for z in scale_eigs if np.min(np.abs(lattice - z)) <= branch_tol]
        )
        for i, data in rec.levels.items():
            proj: RieszProjector = trace._projectors[(n, i)]
            lam = data.lam
            zs = _sample_window(
                rng,
                cfg,
                ladder,
                i,
                n,
                lam,
                rec.contour_radius,
                samples_per_scale,
                avoid=starved,
                avoid_radius=0.1 * rec.rho_n,
            )
            samples = []
            k_fit = 0.0
            own = H.sectors[proj.sector]
            others = [s for key, s in H.sectors.items() if key != proj.sector]
            for z in zs:
                lhs = projected_resolvent_norm(own.block, z, proj, top=own.top)
                for other in others:
                    lhs = max(lhs, block_resolvent_norm(other.block, z, other.top))
                shape = 1.0 / (rec.rho_n + abs(z - lam))
                samples.append(
                    {"z": [z.real, z.imag], "lhs": lhs, "shape": shape}
                )
                k_fit = max(k_fit, lhs / shape)
            entry = {"K_n": k_fit, "samples": samples}
            if log10_C is not None and k_fit > 0:
                entry["log10_K_n"] = float(np.log10(k_fit))
                entry["log10_C_pow_n1"] = float((n + 1) * log10_C)
            out["p4"].setdefault(str(i), {})[str(n)] = entry
    trace.checks["p2_p4"] = {
        "p2": out["p2"],
        "p4": {
            i: {n: {"K_n": v["K_n"]} for n, v in per.items()}
            for i, per in out["p4"].items()
        },
    }
    return out


def extrapolate_limit(
    trace: MultiscaleTrace,
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField | None = None,
) -> dict:
    """Infrared limit estimate with error bars and eigenvector residuals.

    The estimate is the last tracked value; the bar is the maximum of the
    envelope 2 |g| rho_N^(1 + mu/2) and the observed geometric tail of the
    per-scale gaps.  When the field is supplied, the residual of each
    scale's eigenvector against the full-grid operator is recorded; it
    mirrors the closed-operator limit construction and must shrink with n.
    """
    if len(trace.scales) < 2:
        raise TrackingError("limit extrapolation needs at least two scales")
    n_last = trace.scales[-1].n
    rho_last = ladder.cutoff(n_last)
    envelope = 2.0 * abs(cfg.g) * rho_last ** (1.0 + cfg.mu / 2.0)
    result: dict = {"levels": {}, "warnings": []}
    H_full = None
    if field_disc is not None:
        H_full = assemble_hamiltonian(cfg, field_disc, n=None)
    for i in sorted(trace.scales[-1].levels):
        lams = trace.level_series(i, "lam")
        gaps = [d for d in trace.level_series(i, "p1_gap") if d is not None]
        tail = 0.0
        if gaps and gaps[-1] > 0:
            ratio = _fitted_ratio(gaps)
            if ratio is not None and ratio < 0.95:
                tail = gaps[-1] * ratio / (1.0 - ratio)
            else:
                tail = envelope
            if any(b > a * (1.0 + 1e-9) for a, b in zip(gaps[:-1], gaps[1:])):
                result["warnings"].append(
                    f"level {i}: per-scale gaps are not monotone"
                )
        residuals = []
        if H_full is not None:
            for rec in trace.scales:
                u, _ = trace._vectors[(rec.n, i)]
                u_emb = _embed_full_vector(
                    field_disc, rec.n, field_disc.n_scales, u
                )
                lam_n = rec.levels[i].lam
                residuals.append(
                    float(np.linalg.norm(H_full.matvec(u_emb) - lam_n * u_emb))
                )
        result["levels"][i] = {
            "lambda": [lams[-1].real, lams[-1].imag],
            "error_bar": float(max(envelope, tail)),
            "envelope": float(envelope),
            "observed_tail": float(tail),
            "eigenvector_residuals": residuals,
        }
    trace.extrapolated = result
    return result
