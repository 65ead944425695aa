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

Each scale's operator is assembled once and used while the scale loop
holds it: the eigensolves (into the scale's ``SpectralCensus``, which
tracking and every spectrum count read), the contour projectors, the P4
samples (when ``samples_per_scale`` asks for them) and, at the full grid's
scale, the residual of every scale's eigenvector against the full-grid
operator.
The per-scale data stays on the scale records; ``check_p2_p4`` and
``extrapolate_limit`` only read the trace.

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
uniqueness verdict.  The lattice is e_i + exp(-theta) times the free
energy of every state of the scale basis with a boson, so it holds every
multiboson sum the basis holds.  At couplings inside the smallness windows
the lattice never intersects the window and the check is the literal one.
Each scale's ``SpectralCensus`` holds every eigenvalue's distance to the
lattice, measured once; the P2 count, the P4 sample exclusions and the
cone checks compare it with their own ``soft_branch_tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, TrackingError
from .fock import field_energy_diagonal
from .geometry import Box
from .model import (
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    coupling_amplitudes,
)
from .spectral import (
    RieszProjector,
    rank_two_difference_norm,
    resolvent_norm,
    track_eigenvalue,
)
from .threads import parallel_map

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
    # kept for the checks and not serialized: the contour projector, the
    # (right, left) eigenvectors in global coordinates, the P4 samples and
    # the eigenvector's residual against the full-grid operator
    projector: RieszProjector | None = None
    vectors: tuple | None = None
    p4: dict | None = None
    full_grid_residual: float | None = None


@dataclass
class ScaleRecord:
    """One scale: its cutoff, contour radius, dimension and (unserialized) census."""

    n: int
    rho_n: float
    contour_radius: float
    dim: int
    census: SpectralCensus
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
    schema_version: int = SCHEMA_VERSION

    def level_series(self, i: int, name: str) -> list:
        return [getattr(rec.levels[i], name) for rec in self.scales]

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


def soft_branch_lattice(cfg: ModelConfig, basis) -> np.ndarray:
    """Free multiboson branch points e_a + exp(-theta) * (free energy).

    The free energies are those of the basis states with 1 .. n_max
    bosons.  These are the zero-coupling positions of the soft branches;
    with a total-number truncation the deepest multiboson states keep only
    an O(g^2 c_soft^2) dressing (their decay channel needs one boson more
    than the cutoff allows), so the interacting spectrum contains
    near-copies of this lattice.
    """
    energies = field_energy_diagonal(basis)[1:]  # state 0 is the vacuum
    phase = np.exp(-cfg.theta)
    return np.concatenate([cfg.e0 + phase * energies, cfg.e1 + phase * energies])


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


class SpectralCensus:
    """One operator's dense spectrum, computed once and read by every check.

    ``values`` holds the eigenvalues sorted by (real, imaginary) part,
    ``sectors`` the key of each one's sector, and ``lattice_dist`` each
    one's distance to ``soft_branch_lattice(cfg, basis)`` (inf without a
    basis), which callers compare with their own ``soft_branch_tolerance``.
    """

    def __init__(self, values, sectors, cfg: ModelConfig | None = None, basis=None):
        values = np.asarray(values, dtype=complex)
        order = np.lexsort((values.imag, values.real))
        self.values, self.sectors = values[order], np.asarray(sectors)[order]
        self.lattice_dist = out = np.full(len(values), np.inf)
        lattice = [] if basis is None else soft_branch_lattice(cfg, basis)
        if len(lattice) == 0:
            return
        # w = (z - e_a) exp(theta) puts the ray e_a + exp(-theta) E on the
        # real axis.  Only the free energies E as near to w as the nearest
        # one, up to a rounding margin (``slack``), can give the least
        # computed distance; measuring those with the lattice's own entries
        # gives min |lattice - z| bit for bit in O(dim log dim).
        energies = field_energy_diagonal(basis)[1:]
        energies, first = np.unique(energies, return_index=True)
        padded, rot = np.r_[-np.inf, energies, np.inf], np.exp(cfg.theta)
        for ray, origin in enumerate((cfg.e0, cfg.e1)):
            points = lattice[ray * (len(lattice) // 2) + first]
            w = (self.values - origin) * rot
            k = np.searchsorted(padded, w.real)
            gap_x = np.minimum(w.real - padded[k - 1], padded[k] - w.real)
            slack = 1e-12 * (1.0 + np.abs(w) + energies[-1] + abs(origin * rot))
            reach = np.hypot(gap_x, w.imag) + 2.0 * slack
            floor = np.maximum(np.abs(w.imag) - slack, 0.0)
            half = np.sqrt(reach**2 - floor**2) + slack
            lo = np.searchsorted(energies, w.real - half)
            hi = np.searchsorted(energies, w.real + half, side="right")
            for j in range(int(np.max(hi - lo, initial=0))):
                d = np.abs(points[np.minimum(lo + j, hi - 1)] - self.values)
                np.minimum(out, d, out=out)

    @classmethod
    def of(cls, H, cfg: ModelConfig | None = None, basis=None, jobs: int = 1):
        """Census of H: one ``np.linalg.eigvals`` per sector, on ``jobs`` threads."""
        blocks = [sec.block for sec in H.sectors.values()]
        parts = parallel_map(np.linalg.eigvals, blocks, jobs)
        keys = np.repeat(list(H.sectors), [len(p) for p in parts])
        return cls(np.concatenate(parts), keys, cfg, basis)

    def nearest(self, z: complex) -> complex:
        return complex(self.values[np.argmin(np.abs(self.values - z))])

    def unique_in_circle(self, center: complex, radius: float) -> tuple[complex, int]:
        """The one eigenvalue with |lambda - center| <= radius and its sector key."""
        inside = np.flatnonzero(np.abs(self.values - center) <= radius)
        where = f"inside circle(center {center}, radius {radius})"
        if len(inside) == 0:
            raise TrackingError(f"no eigenvalue {where}")
        if len(inside) > 1:
            raise DegeneracyError(
                f"{len(inside)} eigenvalues {where}; tracking needs exactly one"
            )
        return complex(self.values[inside[0]]), self.sectors[inside[0]].item()

    def gap(self, lam: complex) -> float:
        """Distance from lam to the second-nearest eigenvalue (lam itself is one)."""
        dist = np.sort(np.abs(self.values - lam))
        return float(dist[1]) if len(dist) > 1 else np.inf

    def in_box(self, box: Box) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues inside ``box``, in order, and their lattice distances."""
        inside = box.contains(self.values)
        return self.values[inside], self.lattice_dist[inside]


def run_ladder(
    cfg: ModelConfig,
    ladder: CutoffLadder,
    field_disc: DiscretizedField,
    n_scales: int | None = None,
    levels: tuple = (0, 1),
    quad_points: int = 16,
    jobs: int = 1,
    samples_per_scale: int = 0,
    seed: int = 0,
) -> MultiscaleTrace:
    """Run the infrared ladder and collect the induction diagnostics.

    Each scale tracks lambda_i from the previous scale's value, rebuilds
    the rank-one contour projector, and compares it against the previous
    projector tensored with the new shells' vacuum.  The parity sectors of
    each scale are eigensolved on up to ``jobs`` threads.

    With ``samples_per_scale`` > 0, P4 samples that many points of each
    level's window per scale (scale by scale, level by level, from one
    generator seeded with ``seed``) and records the projected resolvent
    norms.  At the full grid's scale (n = ``field_disc.n_scales``) every
    scale's eigenvector is embedded into the full grid and its residual
    against that operator is recorded; a ladder stopped earlier records
    none.
    """
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
    rng = np.random.default_rng(seed)

    for n in range(1, n_scales + 1):
        H = assemble_hamiltonian(cfg, field_disc, n=n)
        basis = field_disc.basis_for_scale(n)
        census = SpectralCensus.of(H, cfg, basis, jobs)
        rho_n = ladder.cutoff(n)
        contour_radius = 0.25 * rho_n * np.sin(cfg.nu)
        rec = ScaleRecord(
            n=n, rho_n=rho_n, contour_radius=contour_radius, dim=H.dim,
            census=census,
        )
        starved = census.lattice_dist <= soft_branch_tolerance(cfg, basis.modes)
        for i in levels:
            seed_lam = prev_lam[i]
            nearest = census.nearest(seed_lam)
            # widen the search circle when the eigenvalue moved beyond the
            # nominal contour (first scale at practical couplings)
            r_track = max(contour_radius, 2.0 * abs(nearest - seed_lam))
            if i in prev_vec:
                probe = _embed_full_vector(field_disc, n - 1, n, prev_vec[i][0])
                left_probe = _embed_full_vector(field_disc, n - 1, n, prev_vec[i][1])
            else:
                probe = _atomic_vacuum(i, H.dim)
                left_probe = None
            record = track_eigenvalue(
                H,
                census,
                seed=seed_lam,
                radius=r_track,
                probe=probe,
                left_probe=left_probe,
                quad_points=quad_points,
            )
            lam = record.lam
            proj = record.projector
            u_g = record.right_vector
            l_g = record.left_vector

            window = Box.wn(cfg, i, rho_n, lam)
            box = Box.bn(cfg, i, ladder.cutoff(1), rho_n, lam)
            # the window's other eigenvalues: soft-branch copies or violations
            in_window, dist = census.in_box(window)
            others = np.abs(in_window - lam) > 1e-12 * max(1.0, abs(lam))
            max_freq = (window.hi - window.lo) / np.sin(cfg.nu)
            soft = dist <= soft_branch_tolerance(cfg, basis.modes, max_freq)
            n_soft = int(np.count_nonzero(others & soft))
            n_bad = int(np.count_nonzero(others)) - n_soft

            data = LevelScaleData(
                lam=lam,
                gap=record.gap,
                residual=record.residual,
                rayleigh_disagreement=record.method_disagreement,
                projector_residual=proj.idempotency_residual,
                projector_trace=proj.trace_value,
                projector_quad_points=proj.quad_points,
                contour_safe=bool(record.gap > 2.0 * contour_radius),
                p2_count_window=len(in_window),
                p2_count_box=len(census.in_box(box)[0]),
                p2_soft_branch_count=n_soft,
                p2_violation_count=n_bad,
                p2_unique=bool(n_bad == 0),
                projector=proj,
                vectors=(u_g, l_g),
            )
            if n == 1:
                data.first_scale_shift = abs(lam - bare[i])
                vac = _atomic_vacuum(i, H.dim)
                data.atomic_projector_gap = rank_two_difference_norm(
                    u_g, l_g, vac, vac
                )
            else:
                data.p1_gap = abs(lam - prev_lam[i])
                # the probes are the previous scale's vectors, embedded
                data.p3_gap = rank_two_difference_norm(u_g, l_g, probe, left_probe)
            if samples_per_scale:
                zs = _sample_window(
                    rng, window, lam, contour_radius, samples_per_scale,
                    avoid=census.values[starved], avoid_radius=0.1 * rho_n,
                )
                data.p4 = _p4_entry(H, proj, zs, lam, rho_n)
            rec.levels[i] = data
            prev_lam[i] = lam
            prev_vec[i] = (u_g, l_g)
        if n == field_disc.n_scales:
            for earlier in [*trace.scales, rec]:
                for data in earlier.levels.values():
                    u = _embed_full_vector(field_disc, earlier.n, n, data.vectors[0])
                    data.full_grid_residual = float(
                        np.linalg.norm(H.matvec(u) - data.lam * u)
                    )
        trace.scales.append(rec)
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
    window: Box,
    lam: complex,
    contour_radius: float,
    count: int,
    avoid: np.ndarray | None = None,
    avoid_radius: float = 0.0,
) -> list:
    """Stratified samples of a scale's window, denser near the contour.

    Points closer than ``avoid_radius`` to any element of ``avoid`` (the
    truncation-artifact eigenvalues) are rejected.
    """

    def ok(z: complex) -> bool:
        if not window.contains(z):
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
            rng.uniform(window.level - window.half_width,
                        window.level + window.half_width),
            rng.uniform(window.lo, window.hi),
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


def _p4_entry(H, proj: RieszProjector, zs: list, lam: complex, rho_n: float) -> dict:
    """Projected resolvent norms at ``zs`` and the smallest K_n with
    |(H - z)^(-1) (1 - P)| <= K_n / (rho_n + |z - lambda^(n)|)."""
    samples = []
    k_fit = 0.0
    for z in zs:
        lhs = resolvent_norm(H, z, proj)
        shape = 1.0 / (rho_n + abs(z - lam))
        samples.append({"z": [z.real, z.imag], "lhs": lhs, "shape": shape})
        k_fit = max(k_fit, lhs / shape)
    return {"K_n": k_fit, "samples": samples}


def check_p2_p4(trace: MultiscaleTrace) -> dict:
    """Spectral uniqueness per window and the projected resolvent shape.

    P2 reads the stored window counts, P4 the samples ``run_ladder`` took
    with ``samples_per_scale`` > 0; a trace without them raises
    TrackingError.  The K_n fits are also stored in ``trace.checks``.
    """
    out: dict = {"p2": {}, "p4": {}}
    for rec in trace.scales:
        n = rec.n
        for i, data in rec.levels.items():
            if data.p4 is None:
                raise TrackingError(
                    f"scale {n}, level {i} has no P4 samples: run the ladder "
                    "with samples_per_scale > 0"
                )
            out["p2"].setdefault(str(i), {})[str(n)] = {
                "count_window": data.p2_count_window,
                "count_box": data.p2_count_box,
                "soft_branch_count": data.p2_soft_branch_count,
                "violation_count": data.p2_violation_count,
                "unique": data.p2_unique,
            }
            out["p4"].setdefault(str(i), {})[str(n)] = data.p4
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
) -> dict:
    """Infrared limit estimate with error bars and eigenvector residuals.

    The estimate is the last tracked value; the bar is the maximum of the
    envelope 2 |g| rho_N^(1 + mu/2) and the observed geometric tail of the
    per-scale gaps.  The residual of each scale's eigenvector against the
    full-grid operator, recorded by a ladder that reached the full grid,
    is reported; it mirrors the closed-operator limit construction and
    must shrink with n.
    """
    if len(trace.scales) < 2:
        raise TrackingError("limit extrapolation needs at least two scales")
    n_last = trace.scales[-1].n
    rho_last = ladder.cutoff(n_last)
    envelope = 2.0 * abs(cfg.g) * rho_last ** (1.0 + cfg.mu / 2.0)
    result: dict = {"levels": {}, "warnings": []}
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
        residuals = [
            r for r in trace.level_series(i, "full_grid_residual") if r is not None
        ]
        result["levels"][i] = {
            "lambda": [lams[-1].real, lams[-1].imag],
            "error_bar": float(max(envelope, tail)),
            "envelope": float(envelope),
            "observed_tail": float(tail),
            "eigenvector_residuals": residuals,
        }
    trace.extrapolated = result
    return result
