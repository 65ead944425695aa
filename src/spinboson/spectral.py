"""Non-Hermitian spectral primitives.

Operators have one layout: an ``OperatorMatrix`` of keyed sectors
(``OperatorMatrix.sectors``; the model assembly keys its two parity
blocks +1 and -1).  The exact parity symmetry splits the Hamiltonian into
those blocks, and all spectral quantities of the full operator are unions
or maxima over the sectors.  The operator-level routines
(``track_eigenvalue``, ``resolvent_norm``) take an ``OperatorMatrix``; the
per-block ones (``ShiftedSolver``, ``riesz_rank_one``,
``contour_eigenpair``) take one ``Sector``.  The dense spectrum
is not computed here: ``track_eigenvalue`` reads it from the operator's
``SpectralCensus`` (``multiscale``), which eigensolves each sector once.

Every shifted solve goes through ``ShiftedSolver``.  An assembled sector
carries the positions of its top boson layer N = n_max, which is diagonal
and couples only to the layer N - 1.  The solver eliminates that layer
exactly (the Feshbach-Schur map of Bach-Froehlich-Sigal, used here as
plain linear algebra) and inverts only the Schur complement on the lower
layers R, a |R| x |R| matrix much smaller than the block.  The pieces of
that complement that do not depend on the shift (the index split, the
top-layer diagonal, the dense coupling A_RT and A_RR) are what a
``Sector`` holds: the assembly builds them directly, so each shift only
forms S(z) and inverts it with numpy; a sector without a top layer
inverts its shifted block through the same code.  Every sector matrix is
complex symmetric (A^T = A), and so is S(z): the adjoint solve is the
conjugated solve, conj((A - z)^(-1) conj c), and needs no second
inverse.  No routine here builds a sector's dense matrix: the Rayleigh
quotient of ``contour_eigenpair`` and the residual of ``track_eigenvalue``
share one product from the parts (``Sector.apply``).  Resolvent norms
build one solver per sector and shift and run Lanczos on its solves; only
the Schur complement is inverted densely, and no block is SVD'd densely.
All of this is numpy: the Lanczos Ritz step (``_top_ritz``) brackets the
top eigenvalue of the tridiagonal by Newton steps on its LDL^T pivots and
reads the eigenvector's last entry off a twisted factorization.

Contour projectors are trapezoid quadratures of the resolvent around a
circle.  The integrand is analytic in an annulus whose radii are set by the
distance of the nearest excluded eigenvalue, so the quadrature converges
geometrically and a small node count reaches residuals near machine
precision.  The projector is never formed entrywise: its trace, the
eigenvalue count that alone certifies what the circle holds, is the same
quadrature of tr (A - z)^(-1) (``ShiftedSolver.trace``), and its action on
probe vectors is accumulated node by node (one solver per node, shared by
the count and both passes); u is recovered from that action.  u is all a
tracked eigenvalue keeps: for a simple eigenvalue of a complex-symmetric
matrix the projector is u u^T / (u^T u), the c-product of resonance theory
(Moiseyev, Non-Hermitian Quantum Mechanics, 2011), so the left vector
conj(u / (u^T u)), the projector's adjoint P^H s = conj(P conj s), the
Rayleigh quotient u^T A u / (u^T u) and the distance of two projectors
(``projector_distance``) are all read off u.  This keeps every ladder step
at O(nodes * |R|^2 (|R| + |T|)) flops for forming and inverting the
complements, with |T| the size of the eliminated layer.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourCollisionError,
    ConvergenceError,
    DegeneracyError,
    SingularShiftError,
    TrackingError,
)
from .fock import OperatorMatrix, Sector

IDEMPOTENCY_TOL = 1e-10
MAX_QUAD_POINTS = 1024
# A contour's count tr P within this of an integer k counts k eigenvalues:
# 16 nodes on a radius of 0.4 gap leave about 0.4^16 = 4e-7, and tracked
# circles on the CI, benchmark and README grids count 1 to 1.3e-12.
COUNT_TOL = 1e-6
# Relative agreement of the two eigenvalue routes in track_eigenvalue.
AGREE_TOL = 1e-8
# Resolvent norms: Lanczos stops at this relative Ritz residual, tested
# every RITZ_STRIDE steps; clustered top singular values take up to 808
# steps on the README grid, so it raises only after LANCZOS_MAX_STEPS.
RESOLVENT_TOL = 1e-9
LANCZOS_MAX_STEPS = 2000
RITZ_STRIDE = 4
# points _top_ritz may test before it gives up (a few suffice in practice)
_RITZ_MAX_POINTS = 200
# A top-layer entry d_t with |d_t - z| below this (times max(1, |z|)) stays
# in the inverted part: eliminating it would divide by a near-zero d_t - z.
TOP_LAYER_GUARD = 1e-6


def __getattr__(name: str):
    # bench/tracer.py wraps lu_factor, lu_solve and svds as bound here; the
    # package calls none of them, so scipy loads only when one is asked for
    if name in ("lu_factor", "lu_solve", "svds"):
        sub = "sparse.linalg" if name == "svds" else "linalg"
        return getattr(importlib.import_module(f"scipy.{sub}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ShiftedSolver:
    """Solves with A - z and its adjoint, the top layer eliminated exactly.

    A is the complex-symmetric matrix of the Sector ``sec``, which holds
    exactly the parts read here, so every shift reuses them.  On the
    sector's top-layer positions T the block A_TT is diagonal (entries
    d_t).  With R the remaining positions, A - z is solved through the
    Schur complement

        S(z) = (A_RR - z) - A_RT (D_T - z)^(-1) A_RT^T,

    the only matrix inverted (once per shift), so each solve is one
    product with S(z)^(-1).  As A - z is complex symmetric, its adjoint
    solve is the conjugated solve: (A - z)^(-H) c = conj((A - z)^(-1)
    conj c), so one inverse serves both.  A top entry with |d_t - z| <
    TOP_LAYER_GUARD * max(1, |z|) stays in R, so a zero d_t - z never
    divides: for that shift the parts are regrouped (``Sector.with_top``).
    A sector without a top layer has R = everything: S(z) is A - z.

    ``singular`` is set, and the solves raise SingularShiftError, when the
    inversion meets an exactly zero pivot or |S^(-1)|_inf >= 1 / (|R| eps
    s), s the largest entry of S and at least 1: by Gastinel-Kahan, S then
    lies within |R| eps s of a singular matrix in the infinity norm.
    """

    def __init__(self, sec: Sector, z: complex):
        self.z = z = complex(z)
        d = sec.d - z
        keep = np.abs(d) >= TOP_LAYER_GUARD * max(1.0, abs(z))
        if not keep.all():
            sec, d = sec.with_top(keep), d[keep]
        self._sec = sec
        self.t, self.r, self.dt = sec.top, sec.rest, d
        schur = sec.a_rr - z * np.eye(len(self.r))
        if len(self.t):
            schur -= (sec.a_rt / d) @ sec.a_rt.T
        try:
            # kept in Fortran order: a C-ordered inverse runs the products
            # below on another BLAS kernel and moves the solves by rounding
            inv = np.asfortranarray(np.linalg.inv(schur))
        except np.linalg.LinAlgError:  # an exactly zero pivot
            inv = None
        bound = len(self.r) * np.finfo(float).eps * np.abs(schur).max(initial=1.0)
        self.singular = inv is None or bool(
            np.abs(inv).sum(axis=1).max(initial=0.0) * bound >= 1.0
        )
        self._inv = None if self.singular else inv

    @property
    def _inverse(self) -> np.ndarray:
        """S(z)^(-1); a singular shift raises."""
        if self.singular:
            raise SingularShiftError(
                f"shift {self.z} lies on the spectrum to working precision"
            )
        return self._inv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A - z)^(-1) b for a vector or a block of columns."""
        inv, a_rt = self._inverse, self._sec.a_rt
        b = np.asarray(b, dtype=complex)
        dt = self.dt if b.ndim == 1 else self.dt[:, None]
        w = b[self.t] / dt
        x = np.empty_like(b)
        x_r = inv @ (b[self.r] - a_rt @ w)
        x[self.r] = x_r
        x[self.t] = w - (a_rt.T @ x_r) / dt
        return x

    def solve_adjoint(self, c: np.ndarray) -> np.ndarray:
        """(A - z)^(-H) c for a vector or a block of columns."""
        return self.solve(np.conj(c)).conj()

    def trace(self) -> complex:
        """tr (A - z)^(-1) = tr S^(-1) + sum_t (1 + a_t^T S^(-1) a_t / (d_t - z))
        / (d_t - z), a_t the columns of A_RT: the inverse's T block is
        (D_T - z)^(-1) + (D_T - z)^(-1) A_RT^T S^(-1) A_RT (D_T - z)^(-1).
        One |R|^2 |T| product, the work of forming S(z).
        """
        inv, a_rt = self._inverse, self._sec.a_rt
        quad = np.einsum("rt,rt->t", a_rt, inv @ a_rt)
        return complex(np.trace(inv) + np.sum((1.0 + quad / self.dt) / self.dt))


@dataclass
class RieszProjector:
    """Rank-one contour-quadrature spectral projector u u^T / (u^T u).

    ``right`` holds u as one column; ``left`` is derived from it, so that
    the projector is right @ left^H.  ``trace_value`` is tr P, the number
    of eigenvalues the circle encloses, and ``idempotency_residual`` the
    quadrature defect |P u - u|.  ``converged`` is False when node doubling
    stopped at MAX_QUAD_POINTS short of ``riesz_rank_one``'s tolerances.
    ``sector`` is the key of the operator sector the projector lives in.
    """

    quad_points: int
    idempotency_residual: float
    trace_value: complex
    right: np.ndarray
    sector: int | None = None
    converged: bool = True

    @property
    def left(self) -> np.ndarray:
        """conj(u / (u^T u)) as one column: P u = u."""
        u = self.right[:, 0]
        return np.conj(u / (u @ u)).reshape(-1, 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.right @ (self.left.conj().T @ x)


def _contour_nodes(center: complex, radius: float, n_nodes: int):
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    phases = np.exp(1j * t)
    return center + radius * phases, phases


def _node_solver(sec: Sector, z: complex) -> ShiftedSolver:
    """Shifted solver at a contour node; a node on the spectrum is a collision."""
    solver = ShiftedSolver(sec, z)
    if solver.singular:
        raise ContourCollisionError(f"contour node {z} lies on the spectrum")
    return solver


def _contour_block_action(
    solvers, phases: np.ndarray, radius: float, X: np.ndarray
) -> np.ndarray:
    """P @ X from the node solvers of one rule."""
    PX = np.zeros(X.shape, dtype=complex)
    for solver, ph in zip(solvers, phases):
        PX += ph * solver.solve(X)
    return -radius / len(phases) * PX


def riesz_rank_one(
    sec: Sector,
    center: complex,
    radius: float,
    quad_points: int = 16,
    probe: np.ndarray | None = None,
    sector: int | None = None,
) -> RieszProjector:
    """Factored contour projector of ``sec`` for an expected simple eigenvalue.

    One ShiftedSolver per node serves the whole rule, so all node solvers
    are held at once: nodes * |R|^2 * 16 bytes (one inverse each) for the
    sector's lower layers R.  Their traces give the count tr P, the
    algebraic multiplicity of what the circle encloses (Kato 1966), and it
    alone decides what the circle holds: within COUNT_TOL of 0 it raises
    TrackingError, of 2 or more DegeneracyError, at once.  u, the range
    of P, is read off P applied to probe vectors; |P u - u| is the defect.
    The sector's matrix is complex symmetric, so the projector is
    u u^T / (u^T u) and u is all it keeps; a pairing |u^T u| below 1e-8
    (u has unit norm) raises DegeneracyError, as near an exceptional
    point, where u^T u vanishes.  Nodes double from ``quad_points`` until
    the defect passes IDEMPOTENCY_TOL and the count lies within COUNT_TOL
    of 1; at MAX_QUAD_POINTS the projector is returned with ``converged``
    False.  ``sector`` is recorded on the projector.  Every caller in the
    package starts at 16 nodes; ``quad_points`` stays a parameter because
    ``bench/tracer.py`` reads it to count the doublings.
    """
    n = len(sec.indices)
    rng = np.random.default_rng(7)
    cols = [probe] if probe is not None else []
    cols += [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for _ in range(3)]
    X = np.stack([c / np.linalg.norm(c) for c in cols], axis=1)

    n_nodes = quad_points
    while True:
        nodes, phases = _contour_nodes(center, radius, n_nodes)
        solvers = [_node_solver(sec, z) for z in nodes]
        traces = np.array([solver.trace() for solver in solvers])
        count = complex(-radius / n_nodes * np.sum(phases * traces))
        k = round(count.real)
        counted = abs(count - k) <= COUNT_TOL
        if counted and k != 1:
            what = "no spectrum" if k < 1 else f"more than one eigenvalue: {k}"
            error = TrackingError if k < 1 else DegeneracyError
            raise error(f"contour at {center} (radius {radius}) encloses {what} "
                        f"(count {count})")
        PX = _contour_block_action(solvers, phases, radius, X)
        u = np.linalg.svd(PX, full_matrices=False)[0][:, 0]
        # P fixes its range, so |P u - u| measures the quadrature error
        pu = _contour_block_action(solvers, phases, radius, u[:, None])[:, 0]
        idem = float(np.linalg.norm(pu - u))
        converged = counted and idem < IDEMPOTENCY_TOL
        if converged or n_nodes >= MAX_QUAD_POINTS:
            break
        solvers = None  # free this rule's factorizations before the next
        n_nodes *= 2

    if abs(u @ u) < 1e-8:  # u^T u, the c-product
        raise DegeneracyError(
            f"left/right pairing nearly singular at contour center {center}"
        )
    return RieszProjector(
        quad_points=n_nodes,
        idempotency_residual=idem,
        trace_value=count,
        right=u.reshape(-1, 1),
        sector=sector,
        converged=converged,
    )


@dataclass
class SpectralRecord:
    """One tracked eigenvalue with its cross-validation data.

    ``right_vector`` is the projector's u in the operator's coordinates.
    """

    lam: complex
    gap: float
    residual: float
    method_disagreement: float
    projector: RieszProjector
    right_vector: np.ndarray


def contour_eigenpair(
    sec: Sector,
    center: complex,
    radius: float,
    probe: np.ndarray | None,
    sector: int | None,
) -> tuple[complex, RieszProjector, np.ndarray]:
    """The simple eigenvalue of ``sec`` inside circle(center, radius).

    Read off the contour projector (``riesz_rank_one``, with ``probe``
    given in the sector's coordinates): returns the c-product Rayleigh
    quotient u^T A u / (u^T u) of its u, the projector and A u.  A circle
    whose count is 0, or a projector not converged at MAX_QUAD_POINTS,
    raises TrackingError; a count of 2 or more DegeneracyError.
    """
    proj = riesz_rank_one(sec, center=center, radius=radius, probe=probe, sector=sector)
    if not proj.converged:
        raise TrackingError(
            f"contour projector at {center} stopped at {proj.quad_points} nodes: "
            f"idempotency defect {proj.idempotency_residual:.3e} (tolerance "
            f"{IDEMPOTENCY_TOL:.0e}), count {proj.trace_value} (within {COUNT_TOL:.0e})"
        )
    u = proj.right[:, 0]
    au = sec.apply(u)
    return complex((u @ au) / (u @ u)), proj, au


def track_eigenvalue(
    H: OperatorMatrix,
    census,
    seed: complex,
    radius: float,
    probe: np.ndarray | None = None,
) -> SpectralRecord:
    """Locate the unique eigenvalue inside circle(seed, radius).

    ``census``, the ``SpectralCensus`` of H, names that eigenvalue (raising
    TrackingError or DegeneracyError unless there is exactly one), its
    sector and its gap.  Two independent routes must agree: that value and
    the c-product Rayleigh quotient of ``contour_eigenpair`` on a circle
    around it within 0.4 gap, to AGREE_TOL; the residual |A u - lam u|
    reuses A u.  The probe vector is given in the global coordinates of H;
    the contour solvers work in the eigenvalue's sector and the returned u
    is embedded back into the full space.
    """
    lam, key = census.unique_in_circle(seed, radius)
    sec = H.sectors[key]
    gap = census.gap(lam)

    if probe is not None:  # in the sector's coordinates
        probe = np.asarray(probe, dtype=complex)[sec.indices]
    # contour centered on the candidate, radius limited by the gap
    proj_radius = min(radius, 0.4 * gap) if np.isfinite(gap) else radius
    rayleigh, proj, au = contour_eigenpair(sec, lam, proj_radius, probe, key)
    disagreement = abs(rayleigh - lam)
    if not disagreement <= AGREE_TOL * max(1.0, abs(lam)):  # NaN fails too
        raise TrackingError(
            f"eigenvalue routes disagree: contour Rayleigh {rayleigh} vs "
            f"direct {lam} (|diff| = {disagreement:.3e})"
        )
    u = proj.right[:, 0]
    right = np.zeros(H.dim, dtype=complex)  # in H's coordinates
    right[sec.indices] = u
    return SpectralRecord(
        lam=lam,
        gap=gap,
        residual=float(np.linalg.norm(au - lam * u)),
        method_disagreement=disagreement,
        projector=proj,
        right_vector=right,
    )


def _pivots(a: list, e: list, x: float) -> tuple[int, float, list]:
    """Sturm data of x - T for the symmetric tridiagonal T.

    ``a`` is the diagonal of T and ``e`` the squared off-diagonal after a
    leading 0.  The LDL^T pivots of x - T are q_i = x - a_i - e_i / q_(i-1);
    returns how many are not positive (the number of eigenvalues of T at or
    above x, by Sylvester's law of inertia, so 0 means x lies above the
    spectrum), p'(x) / p(x) for p(x) = det(x - T) = prod q_i, and the
    pivots.  A zero pivot counts as negative.
    """
    pivots = []
    q, dq, ratio, neg = 1.0, 0.0, 0.0, 0
    for ai, ei in zip(a, e):
        r = ei / q
        dq = 1.0 + r * dq / q  # d q_i / dx
        q = x - ai - r
        if q <= 0.0:
            neg += 1
            q = q or -1e-300
        pivots.append(q)
        ratio += dq / q
    return neg, ratio, pivots


def _twisted(q: list, b: list, e: list, tau: float) -> tuple[float, float]:
    """|s_k| and the Rayleigh correction of the bottom eigenvector of M - tau.

    M = L D L^T is the factored x - T of ``_pivots`` (D = diag(q), the
    subdiagonal of L is -b_i / q_i; ``e`` holds b_i^2).  The stationary
    (top-down) and progressive (bottom-up) transforms of M - tau give the
    twisted factorizations N_r Delta_r N_r^T, whose twist gamma_r of least
    magnitude marks the largest entry z_r of the eigenvector; z follows
    from the two bidiagonal factors by products, with no subtraction
    (Dhillon and Parlett, Linear Algebra Appl. 387, 2004).  With z_r = 1,
    returns |z_k| / |z| and gamma_r / |z|^2: the Rayleigh quotient of z is
    tau plus that correction.  M - tau is never formed from T: x - tau
    would round away the small distance tau from x to the eigenvalue, and
    with it the accuracy of z when a second eigenvalue lies close by.
    """
    s, above = -tau, 1.0  # above: sum of z_j^2 over j <= i, at z_i = 1
    stationary = [(s, above)]
    for qi, bi, ei in zip(q, b, e):
        dplus = qi + s
        w = bi / dplus  # z_i / z_(i+1)
        s = ei / (qi * dplus) * s - tau
        above = 1.0 + w * w * above
        stationary.append((s, above))
    p = q[-1] - tau
    gamma = stationary[-1][0] + p + tau
    best, norm2, z_k = abs(gamma), stationary[-1][1], 1.0
    below, tail = 1.0, 1.0  # sum of z_j^2 over j >= i and z_k, at z_i = 1
    for qi, bi, ei, (si, up) in zip(
        reversed(q[:-1]), reversed(b), reversed(e), reversed(stationary[:-1])
    ):
        dminus = ei / qi + p
        w = bi / dminus  # z_(i+1) / z_i
        p = p * qi / dminus - tau
        tail *= w
        below = 1.0 + w * w * below
        twist = si + p + tau
        if abs(twist) < best:
            best, gamma, norm2, z_k = abs(twist), twist, up + below - 1.0, tail
    return abs(z_k) / math.sqrt(norm2), gamma / norm2


def _top_ritz(
    alpha: np.ndarray, beta: np.ndarray, below: float
) -> tuple[float, float]:
    """Largest eigenvalue nu of a symmetric tridiagonal T, and |s_k|.

    ``alpha`` is the diagonal of T, ``beta`` its k - 1 off-diagonal entries
    and s_k the last entry of the unit eigenvector of nu.  ``below`` must
    not lie above nu (the top Ritz value of a leading block does not, by
    interlacing).  Each point x is placed by the sign test of ``_pivots``.
    Newton on det(x - T) from above never passes nu; from a point with nu
    alone above it, it lands above nu; a cluster of m eigenvalues, which
    slows Newton to steps of (x - nu) / m, has m read off two successive
    steps; and a step leaving the bracket of points below and above
    bisects it.  At an x above nu whose Newton step delta is small enough
    that the next would change nothing, the Rayleigh quotient of the
    twisted eigenvector of (x - T) - delta bounds nu from below.  Once that
    bound is within two units of x - delta (a unit is eps |x|, or eps
    2^-40 |T| near 0, where the pivots resolve no finer), nu is the
    Rayleigh value and s_k comes from the same vector.  Raises
    ConvergenceError after _RITZ_MAX_POINTS points.
    """
    a = alpha.tolist()
    if len(a) == 1:
        return a[0], 1.0
    b = beta.tolist()
    e = (beta * beta).tolist()
    e0 = [0.0, *e]
    eps = sys.float_info.epsilon
    norm = max(map(abs, a)) + 2.0 * math.sqrt(max(e))  # bounds |T|
    floor = max(2.0**-40 * norm, sys.float_info.min)
    x = max(below, max(a))
    grow = 2.0**-15 * norm
    lo = hi = last = moved = None
    for _ in range(_RITZ_MAX_POINTS):
        unit = eps * max(abs(x), floor)
        neg, ratio, q = _pivots(a, e0, x)
        if neg:  # x is not above nu
            lo, last = x, None
            if neg == 1 and ratio < 0.0:
                y = max(x - 1.0 / ratio, math.nextafter(x, math.inf))
            elif hi is None:
                y, grow = x + grow, 8.0 * grow
            else:
                y = 0.5 * (lo + hi)
        else:
            hi, hi_q, delta = x, q, 1.0 / ratio
            tiny = delta <= unit
            # Newton converging quadratically (delta ~ moved^2) would move
            # the next point by about delta^3 / moved^2: a quarter unit here
            if tiny or (moved and delta <= 1e-2 * moved
                        and delta**3 <= 0.25 * unit * moved**2):
                s_k, corr = _twisted(q, b, e, delta)
                if abs(corr) <= 2.0 * unit:
                    return x - (delta + corr), s_k
            # a tiny step that the Rayleigh bound does not confirm tests the
            # point two units down, so the bracket closes on nu
            step = 2.0 * unit if tiny else delta
            if last is not None and delta > 0.3 * last:
                # linear convergence, delta = (1 - 1/m) last: a cluster of m
                step = max(step, delta * last / (last - delta))
            y, last = x - step, delta
        if lo is not None and hi is not None:
            if hi - lo <= 2.0 * unit:
                return hi - delta, _twisted(hi_q, b, e, delta)[0]
            if not lo < y < hi:
                y, last = 0.5 * (lo + hi), None
        x, moved = y, abs(y - x)
    raise ConvergenceError(
        f"the top Ritz value was not bracketed in {_RITZ_MAX_POINTS} points"
    )


def _top_singular_value(matvec, rmatvec, n: int) -> float:
    """Largest singular value of an n x n operator from its two actions.

    Lanczos on M = op^H op (the operator svds iterates on) from the svds
    start vector ``default_rng(12345)``; each step subtracts the three-term
    recurrence, then projects once against the whole basis.  Every
    RITZ_STRIDE steps the largest Ritz value nu of the tridiagonal T_k is
    tested: the iteration stops when its residual beta_k |s_k| (s_k the
    last entry of its eigenvector) is at most RESOLVENT_TOL * nu (the svds
    rule), or at k = n, where the Ritz values are those of M.  As nu is at
    least every diagonal entry of T_k, a step with beta_k below
    RESOLVENT_TOL times the largest of them passes the rule and is tested
    at once; this also ends a breakdown (beta_k = 0).  ``_top_ritz`` finds
    nu and s_k from the previous test's nu, which interlacing keeps below
    the new one.  Raises ConvergenceError when LANCZOS_MAX_STEPS steps do
    not get there.
    """
    last, tol = min(n, LANCZOS_MAX_STEPS), RESOLVENT_TOL
    nu = -math.inf
    V = np.empty((last, n), dtype=complex)  # only rows written take memory
    alpha, beta = np.empty(last), np.empty(last)
    q = np.random.default_rng(12345).standard_normal(n).astype(complex)
    q /= np.linalg.norm(q)
    for k in range(1, last + 1):
        V[k - 1] = q
        w = rmatvec(matvec(q))
        alpha[k - 1] = np.vdot(q, w).real
        w -= alpha[k - 1] * q
        if k > 1:
            w -= beta[k - 2] * V[k - 2]
        w -= V[:k].T @ (V[:k] @ w.conj()).conj()  # V^H w without copying V
        beta[k - 1] = np.linalg.norm(w)
        if k % RITZ_STRIDE == 0 or k == last or beta[k - 1] <= tol * alpha[:k].max():
            nu, s_k = _top_ritz(alpha[:k], beta[: k - 1], nu)
            if k == n or beta[k - 1] * s_k <= tol * nu:
                return float(np.sqrt(nu))
        q = w / beta[k - 1]
    raise ConvergenceError(
        f"Lanczos for the resolvent norm missed the relative Ritz residual "
        f"{RESOLVENT_TOL:.0e} in {LANCZOS_MAX_STEPS} steps"
    )


def _sector_resolvent_norm(
    sec: Sector, z: complex, proj: RieszProjector | None
) -> float:
    """Norm of (A - z)^(-1) (1 - P) on one sector; P = 0 when proj is None."""
    solver = ShiftedSolver(sec, z)
    if solver.singular:
        return np.inf
    if proj is None:
        matvec, rmatvec = solver.solve, solver.solve_adjoint
    else:
        def matvec(x):
            return solver.solve(x - proj.apply(x))

        def rmatvec(y):  # (1 - P)^H (A - z)^(-H) y, as P^H s = conj(P conj s)
            t = solver.solve(np.conj(y))
            return np.conj(t - proj.apply(t))

    return _top_singular_value(matvec, rmatvec, len(sec.indices))


def resolvent_norm(
    H: OperatorMatrix, z: complex, proj: RieszProjector | None = None
) -> float:
    """Norm of (H - z)^(-1) (1 - P): the maximum over the sectors of H.

    ``proj`` is a factored projector P on the sector ``H.sectors[proj.sector]``
    and acts only there; without it this is the norm of the resolvent.
    Returns inf when z sits on the spectrum to working precision.
    """
    sectors = H.sectors
    if proj is not None and proj.sector not in sectors:
        raise KeyError(f"projector sector {proj.sector!r} is not a sector of H")
    on = None if proj is None else proj.sector
    return max(
        _sector_resolvent_norm(sec, z, proj if key == on else None)
        for key, sec in sectors.items()
    )


def solver_tolerance(dim: int, scale: float) -> float:
    """Backward-error floor for dense nonsymmetric eigenvalues."""
    return 100.0 * dim * np.finfo(float).eps * max(1.0, scale)


def projector_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Spectral norm of u1 u1^T / (u1^T u1) - u2 u2^T / (u2^T u2).

    Each term is the projector of a simple eigenvalue of a complex-symmetric
    matrix with right vector u_k, so the difference is the rank-two
    [u1, -u2] [l1, l2]^H with l_k = conj(u_k / (u_k^T u_k)); its norm is
    that of the 2 x 2 product of the two factors' R parts, and no n x n
    matrix is formed.
    """
    left = np.conj(np.stack([u1 / (u1 @ u1), u2 / (u2 @ u2)], axis=1))
    ra = np.linalg.qr(np.stack([u1, -u2], axis=1), mode="r")
    rb = np.linalg.qr(left, mode="r")
    return float(np.linalg.svd(ra @ rb.conj().T, compute_uv=False)[0])
