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
  envelope (|g|/rho) (1/2)^(n-1).  Each projector is u u^T / (u^T u) for
  its eigenvector u (the Hamiltonian is complex symmetric), so a scale
  keeps u alone and P3 is ``projector_distance`` of two such vectors;
* P4: the projected resolvent bound |(H - z)^(-1) (1 - P)| against the
  shape K_n / (rho_n + |z - lambda^(n)|) on sampled z.

Each scale's operator is assembled once and used while the scale loop
holds it: the eigensolves (into the scale's ``SpectralCensus``, which
tracking and every spectrum count read), the contour projectors and the
P4 samples (when ``samples_per_scale`` asks for them).  It is let go
before the next scale's is assembled.  The last scale's operator, the
full grid's, stays on the trace as ``trace.operator`` for the two readers
of that grid: ``extrapolate_limit`` (every scale's eigenvector residual)
and ``resolvent_cone_bound_check``.  Its sectors hold Schur-complement
parts (``fock.Sector``), not dense blocks, yet it is the largest object
of a run, so no caller keeps a trace while the next ladder runs.  The
per-scale data stays on the scale records, and the trace
carries the model and the grid it ran with, so every check
(``check_p1``, ``check_p2_p4``, ``check_p3``, ``extrapolate_limit`` and
the cone checks in ``diagnostics``) takes the trace alone.  A check
returns its report and writes nothing into the trace: the ``ladder``
command builds ``trace.json`` from the trace's own report and the checks'.

The per-scale uniqueness window is the level box with its lower edge
anchored a quarter contour radius below the tracked eigenvalue.  In the
small-coupling regime this is identical to the literal per-scale box; at
practical couplings the resonance can sink below the first-scale box floor
(its width is O(g^2) versus a floor at rho_1 sin(nu) / 2) and the anchored
window is the faithful surrogate.  Both counts are recorded.

One truncation effect needs care in the uniqueness count: with a total
boson cutoff, a state with n_max bosons (a top-layer entry d_t of its
parity sector) has lost its decay channel, which needs one boson more than
the cutoff allows.  Its eigenvalue stays next to d_t, displaced by little
more than the second-order shift s_t = sum_r A_rt^2 / (d_t - A_rr[r, r]),
and at deep scales such states drift into the window above the resonance.
``SpectralCensus.starved(box, lam)`` alone decides which eigenvalues in a
box, lam never among them, are starved: the partners of a top-layer entry
of their own sector, within ``PAIRING`` |s_t| of it.  They are counted
separately and excluded from the uniqueness verdict.  P2 and P4 ask about
the window, the cone checks in ``diagnostics`` about the full grid's B1
boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .errors import DegeneracyError, TrackingError
from .fock import OperatorMatrix
from .geometry import Box
from .model import DiscretizedField, ModelConfig, assemble_hamiltonian
from .spectral import (
    RieszProjector,
    projector_distance,
    resolvent_norm,
    track_eigenvalue,
)
from .threads import parallel_map

SCHEMA_VERSION = 1
# A box eigenvalue is starved when it lies within PAIRING |s_t| of a
# top-layer entry d_t of its own sector.  Measured with g up to 0.15 and
# n_max 2 and 3: partners lie at most 1.06 |s_t| from their d_t, every
# other eigenvalue at least 102 |s_t| from each.  The factor errs toward
# testing: a missed partner fails a check, a false one could pass it.
PAIRING = 2.0


@dataclass
class LevelScaleData:
    """Tracked data of one atomic level at one scale."""

    lam: complex
    gap: float
    residual: float
    rayleigh_disagreement: float
    projector_residual: float
    projector_trace: complex  # tr P, the count of eigenvalues its circle holds
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
    # kept for the checks and not serialized: the contour projector, its
    # eigenvector u in global coordinates and the P4 samples
    projector: RieszProjector | None = None
    vector: np.ndarray | None = None
    p4: dict | None = None

    def report(self) -> dict:
        """The serialized fields, ``lam`` under the key ``lambda``."""
        kept = ("projector", "vector", "p4")
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in kept
        }


@dataclass
class ScaleRecord:
    """One scale: its cutoff, contour radius, dimension and (unserialized) census."""

    n: int
    rho_n: float
    contour_radius: float
    dim: int
    census: SpectralCensus
    levels: dict = dc_field(default_factory=dict)


@dataclass
class MultiscaleTrace:
    """Per-scale records of one ladder run.

    ``cfg`` and ``field`` are the model and the grid the ladder ran with,
    so every check reads the run off the trace alone; the last scale is
    ``field``'s full grid, and ``operator`` (not serialized) is that
    scale's operator.
    """

    cfg: ModelConfig
    field: DiscretizedField
    scales: list = dc_field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    operator: OperatorMatrix | None = dc_field(default=None, repr=False)

    def level_series(self, i: int, name: str) -> list:
        return [getattr(rec.levels[i], name) for rec in self.scales]

    def to_dict(self) -> dict:
        """The trace's own report: run parameters and scale records."""
        scales = [
            {
                "n": rec.n,
                "rho_n": rec.rho_n,
                "contour_radius": rec.contour_radius,
                "dim": rec.dim,
                "levels": {i: data.report() for i, data in rec.levels.items()},
            }
            for rec in self.scales
        ]
        cfg, grid = self.cfg, self.field
        return {
            "schema_version": self.schema_version,
            "g": complex(cfg.g),
            "theta": complex(cfg.theta),
            "mu": cfg.mu,
            "e1": cfg.e1,
            "rho0": grid.ladder.rho0,
            "rho": grid.ladder.rho,
            "n_scales": grid.n_scales,
            "n_max": grid.n_max,
            "points_per_shell": grid.points_per_shell,
            "scales": scales,
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


def _is_lam(values, lam: complex):
    """Which of ``values`` are the tracked eigenvalue lam, to rounding."""
    return np.abs(values - lam) <= 1e-12 * max(1.0, abs(lam))


class SpectralCensus:
    """One operator's dense spectrum, computed once and read by every check.

    ``values`` holds the eigenvalues sorted by (real, imaginary) part and
    ``sectors`` the key of each one's sector.  ``partners`` maps each
    sector key to its top-layer entries d_t and their second-order shifts
    s_t (``Sector.d``, ``Sector.top_shifts``), which ``starved`` reads.
    """

    def __init__(self, values, sectors, partners: dict):
        values = np.asarray(values, dtype=complex)
        order = np.lexsort((values.imag, values.real))
        self.values, self.sectors = values[order], np.asarray(sectors)[order]
        self.partners = partners

    @classmethod
    def of(cls, H, *, jobs: int):
        """Census of H: one ``np.linalg.eigvals`` per sector, on ``jobs`` threads.

        Each task builds its sector's dense matrix and drops it once its
        eigenvalues are in, so at ``jobs`` 1 one dense matrix exists at a time.
        The top-layer pairs are read off the sector parts.
        """
        parts = parallel_map(
            lambda sec: np.linalg.eigvals(sec.dense()), H.sectors.values(), jobs
        )
        keys = np.repeat(list(H.sectors), [len(p) for p in parts])
        partners = {key: (sec.d, sec.top_shifts()) for key, sec in H.sectors.items()}
        return cls(np.concatenate(parts), keys, partners)

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

    def starved(self, box: Box, lam: complex) -> np.ndarray:
        """Which eigenvalues in ``box``, other than lam, are truncation-starved.

        Returns a mask over ``values``.  An eigenvalue z of the box is
        starved when it is the partner of a top-layer entry d_t of its own
        sector, |z - d_t| <= PAIRING |s_t|.  The tracked eigenvalue lam, to
        rounding, never is.
        """
        values = self.values
        mask = box.contains(values) & ~_is_lam(values, lam)
        out = np.zeros(len(values), dtype=bool)
        for key, (d, shift) in self.partners.items():
            own = np.flatnonzero(mask & (self.sectors == key))
            near = np.abs(values[own, None] - d) <= PAIRING * np.abs(shift)
            out[own] = np.any(near, axis=1)
        return out


def run_ladder(
    cfg: ModelConfig,
    field: DiscretizedField,
    levels: tuple = (0, 1),
    *,
    jobs: int,
    samples_per_scale: int = 0,
    seed: int = 0,
) -> MultiscaleTrace:
    """Run the infrared ladder and collect the induction diagnostics.

    The ladder runs every scale of ``field``, from 1 to its ``n_scales``,
    and the trace keeps ``cfg`` and ``field``.  Each scale tracks lambda_i
    from the previous scale's value, rebuilds the rank-one contour
    projector, and compares it against the previous projector tensored
    with the new shells' vacuum.  The parity sectors of each scale are
    eigensolved on up to ``jobs`` threads.

    With ``samples_per_scale`` > 0, P4 samples that many points of each
    level's window per scale (scale by scale, level by level, from one
    generator seeded with ``seed``), away from the window's starved
    eigenvalues, and records the projected resolvent norms and the points
    it skipped per reason.  The last scale is the full grid's, and its
    operator stays on the trace as ``trace.operator``.
    """
    trace = MultiscaleTrace(cfg, field)
    bare = {0: cfg.e0, 1: cfg.e1}
    prev_lam = dict(bare)
    prev_vec: dict = {}
    rng = np.random.default_rng(seed)

    for n in range(1, field.n_scales + 1):
        H = None  # scale n - 1's operator goes before scale n's is assembled
        H = assemble_hamiltonian(cfg, field, n=n)
        census = SpectralCensus.of(H, jobs=jobs)
        rho_n = field.ladder.cutoff(n)
        contour_radius = 0.25 * rho_n * np.sin(cfg.nu)
        rec = ScaleRecord(
            n=n, rho_n=rho_n, contour_radius=contour_radius, dim=H.dim,
            census=census,
        )
        for i in levels:
            seed_lam = prev_lam[i]
            nearest = census.nearest(seed_lam)
            # widen the search circle when the eigenvalue moved beyond the
            # nominal contour (first scale at practical couplings)
            r_track = max(contour_radius, 2.0 * abs(nearest - seed_lam))
            # what P3 (at scale 1 the atomic gap) compares against: the
            # previous scale's u, embedded (which keeps u^T u), or the level
            if i in prev_vec:
                probe = _embed_full_vector(field, n - 1, n, prev_vec[i])
            else:
                probe = _atomic_vacuum(i, H.dim)
            record = track_eigenvalue(
                H, census, seed=seed_lam, radius=r_track, probe=probe
            )
            lam = record.lam
            proj = record.projector
            u_g = record.right_vector

            window = Box.wn(cfg, i, rho_n, lam)
            box = Box.bn(cfg, i, field.ladder.cutoff(1), rho_n, lam)
            # the window's other eigenvalues: soft-branch copies or violations
            in_window = census.values[window.contains(census.values)]
            starved = census.starved(window, lam)
            n_soft = int(np.count_nonzero(starved))
            n_bad = int(np.count_nonzero(~_is_lam(in_window, lam))) - n_soft

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
                p2_count_box=int(np.count_nonzero(box.contains(census.values))),
                p2_soft_branch_count=n_soft,
                p2_violation_count=n_bad,
                p2_unique=bool(n_bad == 0),
                projector=proj,
                vector=u_g,
            )
            if n == 1:
                data.first_scale_shift = abs(lam - bare[i])
                data.atomic_projector_gap = projector_distance(u_g, probe)
            else:
                data.p1_gap = abs(lam - prev_lam[i])
                data.p3_gap = projector_distance(u_g, probe)
            if samples_per_scale:
                # truncation artifacts: no P4 sample lies within 0.1 rho_n of one
                artifacts = census.values[starved]

                def reject(z):
                    if len(artifacts) and np.min(np.abs(artifacts - z)) < 0.1 * rho_n:
                        return "artifact"
                    if abs(z - lam) <= 0.25 * contour_radius:
                        return "near_lambda"
                    return None

                zs, skipped = window.sample(
                    rng, samples_per_scale, max(1, int(0.6 * samples_per_scale)),
                    lam, lambda r: contour_radius * r.uniform(1.5, 6.0), reject,
                )
                # the smallest K_n with |(H - z)^(-1) (1 - P)| <= K_n shape(z)
                samples = [
                    {"z": z, "lhs": resolvent_norm(H, z, proj),
                     "shape": 1.0 / (rho_n + abs(z - lam))}
                    for z in zs
                ]
                k_fit = max((s["lhs"] / s["shape"] for s in samples), default=0.0)
                data.p4 = {"K_n": k_fit, "samples": samples, "skipped": skipped}
            rec.levels[i] = data
            prev_lam[i] = lam
            prev_vec[i] = u_g
        trace.scales.append(rec)
    trace.operator = H  # the last scale's: the full grid's
    return trace


def _fitted_ratio(gaps: list) -> float | None:
    """Geometric mean of successive quotients, None for degenerate input."""
    if len(gaps) < 2 or any(g <= 0.0 for g in gaps):
        return None
    quotients = [b / a for a, b in zip(gaps[:-1], gaps[1:])]
    return float(np.exp(np.mean(np.log(quotients))))


def _motion_check(trace: MultiscaleTrace, gap_name: str, row) -> dict:
    """Per-level rows of a motion check, its decay ratio and practical verdict.

    ``row(n, gap)`` is the check's row at each scale whose ``gap_name``
    entry is set; scales without one (the first) are skipped.
    """
    out: dict = {"levels": {}}
    for i in sorted({k for rec in trace.scales for k in rec.levels}):
        rows = [
            row(rec.n, gap)
            for rec, gap in zip(trace.scales, trace.level_series(i, gap_name))
            if gap is not None
        ]
        out["levels"][i] = {
            "rows": rows,
            "fitted_ratio": _fitted_ratio([r["gap"] for r in rows]),
            "all_practical_pass": bool(all(r["practical_pass"] for r in rows)),
        }
    return out


def check_p1(trace: MultiscaleTrace, log10_C: float) -> dict:
    """Per-scale eigenvalue-motion bounds plus the observed decay ratio.

    The strict bound uses the chain constant C (``log10_C``, as
    ``compute_constants`` reports it).
    """
    cfg, ladder = trace.cfg, trace.field.ladder
    g_abs = abs(cfg.g)

    def row(n: int, gap: float) -> dict:
        rho_prev = ladder.cutoff(n - 1)
        practical = g_abs * 0.5 ** (n - 1) * rho_prev
        strict_log10 = (
            (np.log10(g_abs) if g_abs > 0 else -np.inf)
            + (n + 1) * log10_C
            + (1.0 + cfg.mu) * np.log10(rho_prev)
        )
        return {
            "n": n,
            "gap": gap,
            "practical_bound": practical,
            "practical_pass": bool(gap <= practical or g_abs == 0.0),
            "strict_bound_log10": float(strict_log10),
            "strict_pass": bool(gap == 0.0 or np.log10(gap) <= strict_log10 + 1e-12),
        }

    return _motion_check(trace, "p1_gap", row)


def check_p3(trace: MultiscaleTrace, log10_C: float) -> dict:
    """Per-scale projector-motion bounds plus the observed decay ratio.

    The strict bound uses the chain constant C, as ``check_p1`` does.
    """
    cfg, ladder = trace.cfg, trace.field.ladder
    g_abs, rho = abs(cfg.g), ladder.rho

    def row(n: int, gap: float) -> dict:
        practical = (g_abs / rho) * 0.5 ** (n - 1)
        limit_rate = 2.0 * (g_abs / rho) * 0.5**n * ladder.cutoff(n) ** (cfg.mu / 2.0)
        strict_log10 = (
            (np.log10(g_abs / rho) if g_abs > 0 else -np.inf)
            + (2 * n + 2) * log10_C
            + cfg.mu * np.log10(ladder.cutoff(n - 1))
        )
        return {
            "n": n,
            "gap": gap,
            "practical_bound": practical,
            "practical_pass": bool(gap <= practical or g_abs == 0.0),
            "limit_rate_envelope": limit_rate,
            "strict_bound_log10": float(strict_log10),
        }

    return _motion_check(trace, "p3_gap", row)


def check_p2_p4(trace: MultiscaleTrace) -> dict:
    """Spectral uniqueness per window and the projected resolvent fits.

    P2 reads the stored window counts, P4 the K_n fit of the samples
    ``run_ladder`` took with ``samples_per_scale`` > 0 (the samples stay in
    the levels' ``p4`` entries) and the number of points the sampler
    skipped per reason: outside the window, within 0.1 rho_n of a starved
    eigenvalue (``artifact``) or near lambda.  A trace without samples
    raises TrackingError.
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
            skipped = data.p4["skipped"]
            reasons = ("outside", "artifact", "near_lambda")
            out["p4"].setdefault(str(i), {})[str(n)] = {
                "K_n": data.p4["K_n"],
                "n_skipped": {r: skipped[r] for r in reasons},
            }
    return out


def extrapolate_limit(trace: MultiscaleTrace) -> dict:
    """Infrared limit estimate with error bars and eigenvector residuals.

    The estimate is the last tracked value; the bar is the maximum of the
    envelope 2 |g| rho_N^(1 + mu/2) and the observed geometric tail of the
    per-scale gaps.  Each scale's eigenvector is embedded into the full
    grid and its residual against ``trace.operator`` is reported; it
    mirrors the closed-operator limit construction and must shrink with n.
    """
    if len(trace.scales) < 2:
        raise TrackingError("limit extrapolation needs at least two scales")
    cfg, field, H = trace.cfg, trace.field, trace.operator
    rho_last = field.ladder.cutoff(trace.scales[-1].n)
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
        residuals = []
        for rec in trace.scales:
            data = rec.levels[i]
            u = _embed_full_vector(field, rec.n, field.n_scales, data.vector)
            residuals.append(float(np.linalg.norm(H.matvec(u) - data.lam * u)))
        result["levels"][i] = {
            "lambda": lams[-1],
            "error_bar": float(max(envelope, tail)),
            "envelope": float(envelope),
            "observed_tail": float(tail),
            "eigenvector_residuals": residuals,
        }
    return result
