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

The ladder is a stream of scales.  Per scale, ``run_ladder`` assembles the
operator, takes its ``SpectralCensus`` (the spectrum every count reads),
tracks the levels and fills the P1, P2 and P3 data.  It hands
the ``ScaleRecord``, the operator on ``rec.operator``, to the attached
consumers (P4's is ``P4Sampler``) and the trace, and clears that operator
before the next scale's is assembled.  The last, the full grid's, moves to
``trace.operator`` for ``extrapolate_limit`` (every scale's eigenvector
residual) and ``resolvent_cone_bound_check``; it is the largest object of
a run, so no caller keeps a trace while the next ladder runs.  Every check
takes the trace alone (``check_p2_p4`` the P4 rows beside it), returns its
report and writes nothing into the trace.

The census is as local as the checks that read it.  ``run_ladder`` hands
``SpectralCensus.of`` the region its scale will query: per tracked level,
B_i stretched down to the window of any eigenvalue the nominal tracking
circle can find (``Box.region``).  In each parity sector the top-layer
entries far from that region couple to the rest only through the layer
below, and an invariant-subspace similarity, the Riccati equation of the
Feshbach map in matrix form (Bach-Froehlich-Sigal, Adv. Math. 137, 1998),
removes them exactly: ``eigvals`` takes only the near block, and the far
block's eigenvalues are kept as Gershgorin discs.  Every query (nearest
value, gap, tracking circle, box, starved states) is certified against
the discs, and a sector whose discs could change an answer is re-solved
densely, so every answer is the dense spectrum's.  The census keeps the
sector parts for those re-solves until the generator clears the operator.
``trace.json`` records, per scale and sector, the dimension, |N|, |F|,
the Riccati steps and the dense re-solves.

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
from .fock import OperatorMatrix, Sector
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
# The census decouples each sector's top-layer entries d_t farther than
# REACH times their first-order reach w_t (``Sector.top_reach``) from the
# region its scale queries (``SpectralCensus.of``).  The far discs reached
# at most 1.18 w_t from their d_t (|center - d_t| + radius) on the CI tiny,
# benchmark and README grids at g = 0.05, and at g = 0.1, 0.15 and
# 0.04 + 0.03i on the first two.  Riccati fixed-point steps stop when a
# step moves Y by at most RICCATI_TOL times its largest entry, or after
# RICCATI_MAX_STEPS; a split is kept when its residual is at most
# RICCATI_RESIDUAL times the largest entry (the benchmark grid's splits
# leave at most 2.3e-15 against 7.7).  A sector is split only when its
# near block holds at most SPLIT_SHARE of it: on sectors of 190 to 2,145
# rows of the benchmark and README grids, one thread, splits with near
# shares 0.02 to 0.48 took 0.02 to 0.72 of the dense eigvals time, and
# shares 0.55 to 0.82 took 0.92 to 2.0 of it.
REACH = 2.0
RICCATI_TOL = 1e-14
RICCATI_MAX_STEPS = 50
RICCATI_RESIDUAL = 1e-14
SPLIT_SHARE = 0.5
# A query that meets far discs tries them again with the met discs shrunk
# by this factor (``FarDiscs.radii``); on the benchmark ``ladder`` grid it
# certifies scale 1's gap of lambda_1, whose circle one disc met.
SHRINK = 0.5


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
    # kept for P4, not serialized: the P2 window and its starved eigenvalues
    window: Box
    starved: np.ndarray
    p1_gap: float | None = None
    p3_gap: float | None = None
    first_scale_shift: float | None = None
    atomic_projector_gap: float | None = None
    # kept for the checks, not serialized: the projector and its u (global coordinates)
    projector: RieszProjector | None = None
    vector: np.ndarray | None = None

    def report(self) -> dict:
        """The serialized fields, ``lam`` under the key ``lambda``."""
        kept = ("projector", "vector", "window", "starved")
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in kept
        }


@dataclass
class ScaleRecord:
    """A scale's cutoff, contour radius, dimension, unserialized census and operator."""

    n: int
    rho_n: float
    contour_radius: float
    dim: int
    census: SpectralCensus
    levels: dict = dc_field(default_factory=dict)
    operator: OperatorMatrix | None = dc_field(default=None, repr=False)


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

    def to_dict(self) -> dict:
        """The trace's own report: run parameters and scale records."""
        scales = [
            {
                "n": rec.n,
                "rho_n": rec.rho_n,
                "contour_radius": rec.contour_radius,
                "dim": rec.dim,
                "census": rec.census.work,
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


def _is_lam(values, lam: complex):
    """Which of ``values`` are the tracked eigenvalue lam, to rounding."""
    return np.abs(values - lam) <= 1e-12 * max(1.0, abs(lam))


def _eigvals(a: np.ndarray) -> np.ndarray:
    """``numpy.linalg.eigvals`` as bound at call time (tests and tracers wrap it)."""
    return np.linalg.eigvals(a)


@dataclass
class FarDiscs:
    """Gershgorin discs of a sector's decoupled far block B = D_F - X A_NF.

    Only the rows L of A_NF are not zero (the layer below the top), so
    (X A_NF)_ts = sum_l X_tl A_ls.  ``centers`` are the diagonal of B;
    ``x`` holds |X_tl| and ``a`` |A_lt|, so that sum_l |X_tl| (sum_s |A_ls| -
    |A_lt|) bounds the off-diagonal sum of row t.  Every eigenvalue of B
    lies in the union of the discs.
    """

    centers: np.ndarray
    x: np.ndarray
    a: np.ndarray

    def radii(self, shrunk: np.ndarray, factor: float) -> np.ndarray:
        """The disc radii of the similar D^(-1) B D, D = 1/factor on the rows
        of the mask ``shrunk`` and 1 elsewhere: those rows' entries outside
        ``shrunk`` scale by ``factor``, the other rows' entries inside it by
        1 / ``factor`` (Varga, Gersgorin and His Circles, 2004, 1.3).  With
        factor 1 they are the discs of B."""
        inside = self.a[:, shrunk].sum(axis=1)
        outside = self.a.sum(axis=1) - inside
        rows = np.where(shrunk, self.x @ (inside + factor * outside),
                        self.x @ (outside + inside / factor))
        return rows - np.einsum("tl,lt->t", self.x, self.a)


def _dense_values(sec: Sector) -> np.ndarray:
    """The eigvals of ``sec``'s dense matrix: ``with_top`` of no top entry
    holds it, entry for entry and C-ordered, as its A_RR."""
    return _eigvals(sec.with_top(np.zeros(len(sec.top), dtype=bool)).a_rr)


def _decouple(split: Sector) -> tuple:
    """The near block A_NN + A_NF X and the ``FarDiscs`` of ``split``, whose
    top layer is the far set F and whose other positions are N, and the
    Riccati steps taken; (None, None, steps) when the residual misses.

    The Riccati equation D_F X - X (A_NN + A_NF X) + A_FN = 0 makes [I; X]
    span an invariant subspace, so the similarity [[I, 0], [X, I]] turns the
    sector's matrix block upper triangular (Stewart, SIAM Rev. 15, 1973),
    with diagonal blocks A_NN + A_NF X and D_F - X A_NF.  X is taken by
    fixed-point steps on one eigendecomposition A_NN = V diag(lam) W,
    W = V^(-1): in Y = X V each step is Y <- (Y W_NL A_LF Y - A_FN V) /
    (d_t - lam_j), with L the rows of A_NF that are not zero (the layer
    below the top), so a step costs O(|F| |L| |N|).  The steps stop as
    ``RICCATI_TOL`` and ``RICCATI_MAX_STEPS`` say, and X is kept when
    |D_F X - X (A_NN + A_NF X) + A_FN|_max is at most ``RICCATI_RESIDUAL``
    times the largest entry of A_NN and D_F.
    """
    a_nn, a_nf, d = split.a_rr, split.a_rt, split.d
    try:
        lam, vec = np.linalg.eig(a_nn)
        winv = np.linalg.inv(vec)
    except np.linalg.LinAlgError:
        return None, None, 0
    layer = np.flatnonzero(np.any(a_nf != 0, axis=1))
    a_lf = a_nf[layer]
    a_fn_v = a_lf.T @ vec[layer]
    w_l = winv[:, layer]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / (d[:, None] - lam)
        y = -a_fn_v * inv
        for step in range(1, RICCATI_MAX_STEPS + 1):
            new = ((y @ w_l) @ (a_lf @ y) - a_fn_v) * inv
            change, size = np.abs(new - y).max(), np.abs(new).max()
            y = new
            if not change > RICCATI_TOL * size:  # converged, or not finite
                break
        x = y @ winv
        near = a_nn.copy()
        near[layer] += a_lf @ x
        residual = np.abs(d[:, None] * x - x @ near + a_nf.T).max()
    if not residual <= RICCATI_RESIDUAL * max(np.abs(a_nn).max(), np.abs(d).max()):
        return None, None, step  # NaN lands here too
    x_l = x[:, layer]
    centers = d - np.einsum("tl,lt->t", x_l, a_lf)
    return near, FarDiscs(centers, np.abs(x_l), np.abs(a_lf)), step


def _sector_census(sec: Sector, far: np.ndarray) -> tuple:
    """One sector's census with ``top[far]`` decoupled (``_decouple``):
    (values, ``FarDiscs`` or None, work counts).

    The sector is solved densely when no entry is far or the near block
    would hold more than ``SPLIT_SHARE`` of it, and re-solved densely
    (counted) when the decoupling fails.  The dense route is the eigvals of
    the sector's dense matrix.
    """
    dim, n_far = len(sec.indices), int(np.count_nonzero(far))
    work = {"dim": dim, "near": dim, "far": 0, "riccati_steps": 0, "dense_resolves": 0}
    if not n_far or dim - n_far > SPLIT_SHARE * dim:
        return _dense_values(sec), None, work
    near, discs, work["riccati_steps"] = _decouple(sec.with_top(far))
    if near is None:
        work["dense_resolves"] = 1
        return _dense_values(sec), None, work
    work.update(near=dim - n_far, far=n_far)
    return _eigvals(near), discs, work


class SpectralCensus:
    """One operator's spectrum near the level boxes, read by every check.

    ``values`` holds the eigenvalues it knows, sorted by (real, imaginary)
    part, and ``sectors`` the key of each one's sector.  ``partners`` maps
    each sector key to its top-layer entries d_t and their second-order
    shifts s_t (``Sector.d``, ``Sector.top_shifts``), which ``starved``
    reads.  ``far`` maps the key of each sector that was split to the
    ``FarDiscs`` holding its other eigenvalues, those of its decoupled far
    block (``_sector_census``); a census built from values alone has none
    and knows every eigenvalue.  Every query first certifies that no disc
    can change its answer, and re-solves densely each sector where that
    fails, so the answers are those of the dense spectrum.  ``work`` holds
    per sector its dimension, |N|, |F|, the Riccati steps and the dense
    re-solves.
    """

    def __init__(self, values, sectors, partners: dict):
        self._sort(values, sectors)
        self.partners = partners
        self.far: dict = {}
        self.work: dict = {}
        self._parts: dict = {}

    def _sort(self, values, sectors) -> None:
        """Set ``values``, sorted by (real, imaginary) part, and ``sectors``."""
        values = np.asarray(values, dtype=complex)
        order = np.lexsort((values.imag, values.real))
        self.values, self.sectors = values[order], np.asarray(sectors)[order]

    @classmethod
    def of(cls, H, region, *, jobs: int):
        """Census of H for queries in ``region``, on ``jobs`` threads.

        ``region`` is a list of ``Box``es, or None for the whole plane.
        In each sector the top-layer entries d_t farther than ``REACH``
        times their reach w_t (``Sector.top_reach``) from every box of
        ``region`` are decoupled (``_sector_census``), so one
        ``np.linalg.eigvals`` call per sector takes only the near block;
        with None every sector is solved densely.  The census keeps the
        sector parts for the re-solves of its queries until ``release``;
        the top-layer pairs are read off them.
        """
        def solve(sec):
            far = np.zeros(len(sec.top), dtype=bool)
            if region is not None:
                dist = np.min([box.distance(sec.d) for box in region], axis=0,
                              initial=np.inf)
                far = dist > REACH * sec.top_reach()
            return _sector_census(sec, far)

        parts = parallel_map(solve, H.sectors.values(), jobs)
        keys = np.repeat(list(H.sectors), [len(p[0]) for p in parts])
        partners = {key: (sec.d, sec.top_shifts()) for key, sec in H.sectors.items()}
        census = cls(np.concatenate([p[0] for p in parts]), keys, partners)
        census._parts = dict(H.sectors)
        for key, (_, discs, work) in zip(H.sectors, parts):
            census.work[key] = work
            if discs is not None:
                census.far[key] = discs
        return census

    def release(self) -> None:
        """Drop the sector parts: a query that needs a re-solve raises after this."""
        self._parts = {}

    def _certify(self, meets) -> None:
        """Certify a query: ``meets(centers, radii)`` marks the discs that
        could change its answer.  Where the plain discs meet it, the met
        discs are shrunk by ``SHRINK`` (``FarDiscs.radii``); a sector whose
        discs still meet it is re-solved densely."""
        for key, discs in list(self.far.items()):
            c = discs.centers
            met = meets(c, discs.radii(np.zeros(len(c), dtype=bool), 1.0))
            if not met.any() or not meets(c, discs.radii(met, SHRINK)).any():
                continue
            if key not in self._parts:
                raise TrackingError(
                    f"census query meets the far block of sector {key}, whose "
                    "parts were released: it cannot be certified"
                )
            values, own = _dense_values(self._parts[key]), self.sectors == key
            self._sort(np.concatenate([self.values[~own], values]),
                       np.concatenate([self.sectors[~own], np.full(len(values), key)]))
            del self.far[key]
            work = self.work[key]
            work.update(near=work["dim"], far=0)
            work["dense_resolves"] += 1

    def _certify_disc(self, center: complex, radius: float) -> None:
        """Certify the closed disc |z - center| <= radius."""
        self._certify(lambda c, r: np.abs(c - center) - r <= radius)

    def nearest(self, z: complex) -> complex:
        self._certify_disc(z, np.min(np.abs(self.values - z), initial=np.inf))
        return complex(self.values[np.argmin(np.abs(self.values - z))])

    def unique_in_circle(self, center: complex, radius: float) -> tuple[complex, int]:
        """The one eigenvalue with |lambda - center| <= radius and its sector key."""
        self._certify_disc(center, radius)
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
        self._certify_disc(lam, dist[1] if len(dist) > 1 else np.inf)
        dist = np.sort(np.abs(self.values - lam))
        return float(dist[1]) if len(dist) > 1 else np.inf

    def _certify_box(self, box: Box) -> None:
        """Certify the closed ``box``."""
        self._certify(lambda c, r: box.distance(c) <= r)

    def in_box(self, box: Box) -> np.ndarray:
        """The eigenvalues in ``box``, sorted as ``values``."""
        self._certify_box(box)
        return self.values[box.contains(self.values)]

    def starved(self, box: Box, lam: complex) -> np.ndarray:
        """Which eigenvalues in ``box``, other than lam, are truncation-starved.

        Returns a mask over ``values`` as they stand after the call.  An
        eigenvalue z of the box is starved when it is the partner of a
        top-layer entry d_t of its own sector, |z - d_t| <= PAIRING |s_t|.
        The tracked eigenvalue lam, to rounding, never is.
        """
        self._certify_box(box)
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
    consumers: tuple = (),
) -> MultiscaleTrace:
    """Run the infrared ladder and collect the induction diagnostics.

    The ladder runs every scale of ``field``, from 1 to its ``n_scales``,
    and the trace keeps ``cfg`` and ``field``.  Each scale tracks lambda_i
    from the previous scale's value, rebuilds the rank-one contour
    projector, and compares it against the previous projector tensored
    with the new shells' vacuum.  Each scale's census covers the tracked
    levels' ``Box.region``s, seeded at the previous values; its parity
    sectors are solved on up to ``jobs`` threads.

    Each of ``consumers`` is called with every scale's record, in scale
    order, while ``rec.operator`` holds that scale's operator, which it must
    not keep.  The census then drops its sector parts (``release``), except
    the last scale's: that operator, the full grid's, moves to the trace as
    ``trace.operator``.
    """

    def scales():
        prev_lam, prev_vec = {0: cfg.e0, 1: cfg.e1}, {}
        for n in range(1, field.n_scales + 1):
            H = assemble_hamiltonian(cfg, field, n=n)
            rho_n = field.ladder.cutoff(n)
            contour_radius = 0.25 * rho_n * np.sin(cfg.nu)
            region = [Box.region(cfg, i, field.ladder.cutoff(1), rho_n, prev_lam[i])
                      for i in levels]
            census = SpectralCensus.of(H, region, jobs=jobs)
            rec = ScaleRecord(n, rho_n, contour_radius, H.dim, census, operator=H)
            for i in levels:
                seed = prev_lam[i]
                # widen the search circle when the eigenvalue moved beyond the
                # nominal contour (first scale at practical couplings)
                r_track = max(contour_radius, 2.0 * abs(census.nearest(seed) - seed))
                # what P3 (at scale 1 the atomic gap) compares against: the
                # previous scale's u, embedded (which keeps u^T u), or
                # phi_i (x) vacuum (the excited atom first)
                if i in prev_vec:
                    probe = _embed_full_vector(field, n - 1, n, prev_vec[i])
                else:
                    probe = np.zeros(H.dim, dtype=complex)
                    probe[0 if i == 1 else H.dim // 2] = 1.0
                record = track_eigenvalue(H, census, seed=seed, radius=r_track,
                                          probe=probe)
                lam, proj, u_g = record.lam, record.projector, record.right_vector

                window = Box.wn(cfg, i, rho_n, lam)
                box = Box.bn(cfg, i, field.ladder.cutoff(1), rho_n, lam)
                # the window's other eigenvalues: soft-branch copies or violations
                in_window = census.in_box(window)
                # in_box certified the window: starved re-solves nothing
                mask = census.starved(window, lam)
                starved = census.values[mask]
                n_soft = len(starved)
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
                    p2_count_box=len(census.in_box(box)),
                    p2_soft_branch_count=n_soft,
                    p2_violation_count=n_bad,
                    p2_unique=bool(n_bad == 0),
                    window=window,
                    starved=starved,
                    projector=proj,
                    vector=u_g,
                )
                if n == 1:  # prev_lam holds the bare levels
                    data.first_scale_shift = abs(lam - prev_lam[i])
                    data.atomic_projector_gap = projector_distance(u_g, probe)
                else:
                    data.p1_gap = abs(lam - prev_lam[i])
                    data.p3_gap = projector_distance(u_g, probe)
                rec.levels[i] = data
                prev_lam[i] = lam
                prev_vec[i] = u_g
            yield rec
            if n < field.n_scales:  # it goes before the next one is assembled
                rec.operator = H = None
                census.release()

    trace = MultiscaleTrace(cfg, field)
    for rec in scales():
        for consume in consumers:
            consume(rec)
        trace.scales.append(rec)
    trace.operator, rec.operator = rec.operator, None  # the full grid's
    return trace


@dataclass
class P4Sampler:
    """P4 as a ladder consumer: the projected resolvent bound on sampled z.

    It samples ``samples_per_scale`` points of each level's window per scale
    (scale by scale, level by level, from one generator seeded with
    ``seed``), away from the window's starved eigenvalues, and takes their
    norms on the scale's operator.  ``rows[n, i]`` holds the samples, the
    fit K_n and the points skipped per reason; ``check_p2_p4`` reads them.
    """

    samples_per_scale: int
    seed: int

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.rows: dict = {}

    def __call__(self, rec: ScaleRecord) -> None:
        count, rho_n, radius = self.samples_per_scale, rec.rho_n, rec.contour_radius
        for i, data in rec.levels.items():
            lam, window = data.lam, data.window
            # truncation artifacts: no sample lies within 0.1 rho_n of one
            artifacts = data.starved

            def reject(z):
                if len(artifacts) and np.min(np.abs(artifacts - z)) < 0.1 * rho_n:
                    return "artifact"
                if abs(z - lam) <= 0.25 * radius:
                    return "near_lambda"
                return None

            zs, skipped = window.sample(
                self.rng, count, max(1, int(0.6 * count)), lam,
                lambda r: radius * r.uniform(1.5, 6.0), reject,
            )
            # the smallest K_n with |(H - z)^(-1) (1 - P)| <= K_n shape(z)
            samples = [
                {"z": z, "lhs": resolvent_norm(rec.operator, z, data.projector),
                 "shape": 1.0 / (rho_n + abs(z - lam))}
                for z in zs
            ]
            k_fit = max((s["lhs"] / s["shape"] for s in samples), default=0.0)
            self.rows[rec.n, i] = {"K_n": k_fit, "samples": samples, "skipped": skipped}


def _fitted_ratio(gaps: list) -> float | None:
    """Geometric mean of successive quotients, None for degenerate input."""
    if len(gaps) < 2 or any(g <= 0.0 for g in gaps):
        return None
    quotients = [b / a for a, b in zip(gaps[:-1], gaps[1:])]
    return float(np.exp(np.mean(np.log(quotients))))


def _motion_check(trace: MultiscaleTrace, gap_name: str, bounds) -> dict:
    """Per-level rows of a motion check, its decay ratio and practical verdict.

    At each scale n whose ``gap_name`` entry is set (the first is not),
    ``bounds(n)`` gives the row's ``practical_bound`` and
    ``strict_bound_log10`` (and any other entry of its row).  A gap passes
    the bounds it does not exceed, and every practical bound at g = 0.
    """
    out: dict = {"levels": {}}
    free = trace.cfg.g == 0
    for i in sorted({k for rec in trace.scales for k in rec.levels}):
        rows = []
        for rec in trace.scales:
            if (gap := getattr(rec.levels[i], gap_name)) is None:
                continue
            row = {"n": rec.n, "gap": gap, **bounds(rec.n)}
            row["practical_pass"] = bool(gap <= row["practical_bound"] or free)
            row["strict_pass"] = bool(
                gap == 0.0 or np.log10(gap) <= row["strict_bound_log10"] + 1e-12
            )
            rows.append(row)
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

    def bounds(n: int) -> dict:
        rho_prev = ladder.cutoff(n - 1)
        strict_log10 = (
            (np.log10(g_abs) if g_abs > 0 else -np.inf)
            + (n + 1) * log10_C
            + (1.0 + cfg.mu) * np.log10(rho_prev)
        )
        return {
            "practical_bound": g_abs * 0.5 ** (n - 1) * rho_prev,
            "strict_bound_log10": float(strict_log10),
        }

    return _motion_check(trace, "p1_gap", bounds)


def check_p3(trace: MultiscaleTrace, log10_C: float) -> dict:
    """Per-scale projector-motion bounds plus the observed decay ratio.

    The strict bound uses the chain constant C, as ``check_p1`` does.
    """
    cfg, ladder = trace.cfg, trace.field.ladder
    g_abs, rho = abs(cfg.g), ladder.rho

    def bounds(n: int) -> dict:
        strict_log10 = (
            (np.log10(g_abs / rho) if g_abs > 0 else -np.inf)
            + (2 * n + 2) * log10_C
            + cfg.mu * np.log10(ladder.cutoff(n - 1))
        )
        return {
            "practical_bound": (g_abs / rho) * 0.5 ** (n - 1),
            "limit_rate_envelope": 2.0 * (g_abs / rho) * 0.5**n
            * ladder.cutoff(n) ** (cfg.mu / 2.0),
            "strict_bound_log10": float(strict_log10),
        }

    return _motion_check(trace, "p3_gap", bounds)


def check_p2_p4(trace: MultiscaleTrace, p4: dict) -> dict:
    """Spectral uniqueness per window and the projected resolvent fits.

    P2 reads the trace's window counts, P4 the rows of the ``P4Sampler``
    that ran with the ladder (``p4``, its ``rows``): each K_n fit and the
    number of points the sampler skipped per reason, outside the window,
    within 0.1 rho_n of a starved eigenvalue (``artifact``) or near lambda.
    """
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
            row = p4[n, i]
            skipped = row["skipped"]
            reasons = ("outside", "artifact", "near_lambda")
            out["p4"].setdefault(str(i), {})[str(n)] = {
                "K_n": row["K_n"],
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
        series = [rec.levels[i] for rec in trace.scales]
        gaps = [d.p1_gap for d in series if d.p1_gap is not None]
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
        for rec, data in zip(trace.scales, series):
            u = _embed_full_vector(field, rec.n, field.n_scales, data.vector)
            residuals.append(float(np.linalg.norm(H.matvec(u) - data.lam * u)))
        result["levels"][i] = {
            "lambda": series[-1].lam,
            "error_bar": float(max(envelope, tail)),
            "envelope": float(envelope),
            "observed_tail": float(tail),
            "eigenvector_residuals": residuals,
        }
    return result
