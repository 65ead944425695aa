"""Non-Hermitian spectral primitives.

Operators have one layout: an ``OperatorMatrix`` of keyed sectors
(``OperatorMatrix.sectors``; the model assembly keys its two parity
blocks +1 and -1).  The exact parity symmetry splits the Hamiltonian into
those blocks, and all spectral quantities of the full operator are unions
or maxima over the sectors.  Operator-level routines (``track_eigenvalue``,
``resolvent_norm``, ``resolvent_scan``) take an ``OperatorMatrix``; the
per-block ones (``ShiftedSolver``, ``riesz_rank_one``,
``shifted_inverse_eigenvalue``) take one ``Sector``.  The dense spectrum
is not computed here: ``track_eigenvalue`` reads it from the operator's
``SpectralCensus`` (``multiscale``), which eigensolves each sector once.

Every shifted solve goes through ``ShiftedSolver``.  An assembled sector
carries the positions of its top boson layer N = n_max, which is diagonal
and couples only to the layer N - 1.  The solver eliminates that layer
exactly (the Feshbach-Schur map of Bach-Froehlich-Sigal, used here as
plain linear algebra) and factors only the Schur complement on the lower
layers R, a |R| x |R| matrix much smaller than the block.  The pieces of
that complement that do not depend on the shift (the index split, the
top-layer diagonal, the sparse couplings A_RT and A_TR with their
adjoints, and A_RR) are built once per sector, kept on it as
``Sector.solver_parts`` and freed with it; each shift then only forms
and factors S(z); a sector without a top layer gets a dense LU of its
block through the same code.  Resolvent norms build one solver per
sector and shift and run Lanczos (svds) on its solves; no block of
dimension 3 or more is inverted or SVD'd densely.

Contour projectors are trapezoid quadratures of the resolvent around a
circle.  The integrand is analytic in an annulus whose radii are set by the
distance of the nearest excluded eigenvalue, so the quadrature converges
geometrically and a small node count reaches residuals near machine
precision.  The projector is never formed entrywise: its action on a block
of probe vectors is accumulated node by node (one solver per node, shared
by both quadrature passes), and the rank-one factors are recovered from
that action.  This keeps every ladder step at O(nodes * |R|^3 / 3) flops
for the factorizations plus sparse work on the eliminated layer.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    svds,
)

from .errors import (
    ContourCollisionError,
    ConvergenceError,
    DegeneracyError,
    SingularShiftError,
    TrackingError,
)
from .fock import OperatorMatrix, Sector
from .threads import parallel_map

IDEMPOTENCY_TOL = 1e-10
MAX_QUAD_POINTS = 1024
# Relative agreement of the two eigenvalue routes in track_eigenvalue.
AGREE_TOL = 1e-8
# Accuracy of resolvent norms: the svds tolerance and the relative residual
# at which the power-iteration fallback stops (within POWER_MAX_ITERS steps).
RESOLVENT_TOL = 1e-9
POWER_MAX_ITERS = 300
# A top-layer entry d_t with |d_t - z| below this (times max(1, |z|)) stays
# in the factored part: eliminating it would divide by a near-zero d_t - z.
TOP_LAYER_GUARD = 1e-6

# catch_warnings swaps the process-wide filter list; the lock keeps threads
# of one scan from restoring each other's filters out of order.
_LU_WARNING_LOCK = threading.Lock()


def _per_row(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reshape a per-row factor so it broadcasts against b (vector or block)."""
    return d.reshape((-1,) + (1,) * (b.ndim - 1))


class _SolverParts:
    """The shift-independent pieces of every ShiftedSolver of one block.

    For top-layer positions T and the remaining positions R: the diagonal
    d of A_TT, the CSR matrices A_RT and A_TR with their conjugate
    transposes, and the dense A_RR.  A Sector builds them once and keeps
    them (``Sector.solver_parts``).
    """

    def __init__(self, A: np.ndarray, top: np.ndarray):
        n = A.shape[0]
        self.block = A
        self.t = top
        self.d = A[top, top]
        in_t = np.zeros(n, dtype=bool)
        in_t[top] = True
        self.r = np.nonzero(~in_t)[0]
        self.a_rt = sparse.csr_matrix(A[np.ix_(self.r, top)])
        self.a_tr = sparse.csr_matrix(A[np.ix_(top, self.r)])
        self.a_rt_h = self.a_rt.conj().T.tocsr()
        self.a_tr_h = self.a_tr.conj().T.tocsr()
        self.a_rr = A[np.ix_(self.r, self.r)].astype(complex, copy=False)


def _solver_parts(sec: Sector) -> _SolverParts:
    """The sector's solver parts, built on first use and then kept on it."""
    if sec.solver_parts is None:
        sec.solver_parts = _SolverParts(sec.block, sec.top)
    return sec.solver_parts


class ShiftedSolver:
    """Solves with A - z and its adjoint, the top layer eliminated exactly.

    A is the block of the Sector ``sec``, whose solver parts are built once
    and reused by every shift.  On the sector's top-layer positions T the
    block A_TT is diagonal (entries d_t).  With R the remaining positions,
    A - z is solved through the Schur complement

        S(z) = (A_RR - z) - A_RT (D_T - z)^(-1) A_TR,

    the only matrix factored.  A top entry with
    |d_t - z| < TOP_LAYER_GUARD * max(1, |z|) stays in R, so a zero d_t - z
    never divides; it reaches the pivots instead, and the parts are rebuilt
    for that shift.  A sector without a top layer has R = everything, and
    this is a dense LU of A - z.

    ``singular`` is set when a pivot of the factorization vanishes to
    working precision (|R| eps times the largest entry of S, at least 1):
    the shift then lies on the spectrum and the solves raise
    SingularShiftError.
    """

    def __init__(self, sec: Sector, z: complex):
        parts = _solver_parts(sec)
        self.z = z = complex(z)
        d = parts.d - z
        keep = np.abs(d) >= TOP_LAYER_GUARD * max(1.0, abs(z))
        if not keep.all():
            parts, d = _SolverParts(parts.block, parts.t[keep]), d[keep]
        self._parts = parts
        self.t, self.r, self.dt = parts.t, parts.r, d
        schur = parts.a_rr.copy()
        schur[np.diag_indices(len(self.r))] -= z
        if len(self.t):
            schur -= (
                parts.a_rt @ sparse.diags(1.0 / self.dt) @ parts.a_tr
            ).toarray()
        # an exactly zero pivot makes lu_factor warn; the pivot test below
        # decides singularity, so that warning alone is silenced here
        with _LU_WARNING_LOCK, warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "Diagonal number .* is exactly zero", LinAlgWarning
            )
            self.lu = lu_factor(schur)
        pivots = np.abs(np.diag(self.lu[0]))
        scale = max(1.0, float(np.abs(schur).max())) if schur.size else 1.0
        self.singular = bool(
            len(pivots) and pivots.min() <= len(pivots) * np.finfo(float).eps * scale
        )

    def _check(self) -> None:
        if self.singular:
            raise SingularShiftError(
                f"shift {self.z} lies on the spectrum to working precision"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A - z)^(-1) b for a vector or a block of columns."""
        self._check()
        b = np.asarray(b, dtype=complex)
        dt = _per_row(self.dt, b)
        w = b[self.t] / dt
        x = np.empty_like(b)
        x_r = lu_solve(self.lu, b[self.r] - self._parts.a_rt @ w)
        x[self.r] = x_r
        x[self.t] = w - (self._parts.a_tr @ x_r) / dt
        return x

    def solve_adjoint(self, c: np.ndarray) -> np.ndarray:
        """(A - z)^(-H) c for a vector or a block of columns."""
        self._check()
        c = np.asarray(c, dtype=complex)
        dt = _per_row(self.dt.conj(), c)
        w = c[self.t] / dt
        y = np.empty_like(c)
        y_r = lu_solve(self.lu, c[self.r] - self._parts.a_tr_h @ w, trans=2)
        y[self.r] = y_r
        y[self.t] = w - (self._parts.a_rt_h @ y_r) / dt
        return y


@dataclass
class RieszProjector:
    """Rank-factored contour-quadrature spectral projector right @ left^H.

    ``trace_value`` estimates the enclosed spectral count;
    ``idempotency_residual`` is the quadrature defect |P^2 - P| estimated
    on a probe block.  ``converged`` is False when node doubling stopped at
    MAX_QUAD_POINTS with the residual still above the requested tolerance.
    ``sector`` is the key of the operator sector the projector lives in.
    """

    center: complex
    radius: float
    quad_points: int
    dim: int
    idempotency_residual: float
    trace_value: complex
    rank: int
    right: np.ndarray
    left: np.ndarray
    sector: int | None = None
    converged: bool = True

    def to_dense(self) -> np.ndarray:
        return self.right @ self.left.conj().T

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.right @ (self.left.conj().T @ x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.left @ (self.right.conj().T @ y)


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
    solvers,
    phases: np.ndarray,
    radius: float,
    X: np.ndarray,
    Y: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(P @ X, P^H @ Y) from the node solvers of one rule."""
    PX = np.zeros(X.shape, dtype=complex)
    PHY = None if Y is None else np.zeros(Y.shape, dtype=complex)
    for solver, ph in zip(solvers, phases):
        PX += ph * solver.solve(X)
        if Y is not None:
            PHY += np.conj(ph) * solver.solve_adjoint(Y)
    weight = -radius / len(phases)
    return weight * PX, None if Y is None else weight * PHY


def riesz_rank_one(
    sec: Sector,
    center: complex,
    radius: float,
    quad_points: int = 16,
    probe: np.ndarray | None = None,
    left_probe: np.ndarray | None = None,
    tol: float = IDEMPOTENCY_TOL,
    sector: int | None = None,
) -> RieszProjector:
    """Factored contour projector of ``sec`` for an expected simple eigenvalue.

    Two quadrature passes share one ShiftedSolver per node, so all node
    factorizations of one rule are held at once: nodes * |R|^2 * 16 bytes
    for the sector's lower layers R.  The first pass recovers the range and
    corange from probe vectors, the second measures the idempotency defect and the
    enclosed trace on that subspace.  Nodes double until the defect passes
    ``tol``; at MAX_QUAD_POINTS the projector is returned with
    ``converged`` False.  ``sector`` is recorded on the projector.
    """
    n = len(sec.indices)
    rng = np.random.default_rng(7)
    cols = [probe] if probe is not None else []
    cols += [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for _ in range(3)]
    X = np.stack([c / np.linalg.norm(c) for c in cols], axis=1)
    ycols = [left_probe] if left_probe is not None else [X[:, 0]]
    ycols += [rng.standard_normal(n) + 1j * rng.standard_normal(n)]
    Y = np.stack([c / np.linalg.norm(c) for c in ycols], axis=1)

    n_nodes = quad_points
    while True:
        nodes, phases = _contour_nodes(center, radius, n_nodes)
        solvers = [_node_solver(sec, z) for z in nodes]
        PX, PHY = _contour_block_action(solvers, phases, radius, X, Y)
        u_basis, svals, _ = np.linalg.svd(PX, full_matrices=False)
        if svals[0] < 1e3 * np.finfo(float).eps:
            raise TrackingError(
                f"contour at {center} (radius {radius}) encloses no spectrum "
                "visible to the probes"
            )
        u = u_basis[:, 0]
        wl, _, _ = np.linalg.svd(PHY, full_matrices=False)
        w = wl[:, 0]

        # second pass: trace on span{u, random} and the defect of P on its
        # own range (P fixes range vectors, so |P u - u| measures the
        # quadrature error in operator norm up to O(1) factors)
        extra = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Q, _ = np.linalg.qr(np.stack([u, extra / np.linalg.norm(extra)], axis=1))
        PQ, _ = _contour_block_action(solvers, phases, radius, Q)
        trace = complex(np.trace(Q.conj().T @ PQ))
        pu = PQ @ (Q.conj().T @ u)
        idem = float(np.linalg.norm(pu - u))
        if idem < tol or n_nodes >= MAX_QUAD_POINTS:
            break
        solvers = None  # free this rule's factorizations before the next
        n_nodes *= 2

    pairing = np.vdot(u, w).conjugate()  # w^H u
    if abs(pairing) < 1e-8:
        raise DegeneracyError(
            f"left/right pairing nearly singular at contour center {center}"
        )
    left = w / np.conj(pairing)  # so that P = u @ left^H has P u = u
    return RieszProjector(
        center=center,
        radius=radius,
        quad_points=n_nodes,
        dim=n,
        idempotency_residual=idem,
        trace_value=trace,
        rank=int(round(trace.real)),
        right=u.reshape(-1, 1),
        left=left.reshape(-1, 1),
        sector=sector,
        converged=idem < tol,
    )


@dataclass
class SpectralRecord:
    """One tracked eigenvalue with its cross-validation data."""

    lam: complex
    gap: float
    projector_rank: int
    residual: float
    method_disagreement: float = 0.0
    projector: RieszProjector | None = None
    right_vector: np.ndarray | None = None
    left_vector: np.ndarray | None = None


def track_eigenvalue(
    H: OperatorMatrix,
    census,
    seed: complex,
    radius: float,
    probe: np.ndarray | None = None,
    left_probe: np.ndarray | None = None,
    quad_points: int = 16,
) -> SpectralRecord:
    """Locate the unique eigenvalue inside circle(seed, radius).

    ``census``, the ``SpectralCensus`` of H, names that eigenvalue (raising
    TrackingError or DegeneracyError unless there is exactly one), its
    sector and its gap.  Two independent routes must agree: that value and
    the Rayleigh quotient built from the contour projector with the
    adjoint-projector left pairing, to AGREE_TOL.  Probe vectors are given
    in the global coordinates of H; the contour solvers work in the
    eigenvalue's sector and the returned vectors are embedded back into the
    full space.  A projector whose idempotency defect stays above
    IDEMPOTENCY_TOL at MAX_QUAD_POINTS raises TrackingError.
    """
    lam, key = census.unique_in_circle(seed, radius)
    sec = H.sectors[key]
    A = sec.block
    gap = census.gap(lam)

    def localize(vec):
        if vec is None:
            return None
        return np.asarray(vec, dtype=complex)[sec.indices]

    # contour centered on the candidate, radius limited by the gap
    proj_radius = min(radius, 0.4 * gap) if np.isfinite(gap) else radius
    proj = riesz_rank_one(
        sec,
        center=lam,
        radius=proj_radius,
        quad_points=quad_points,
        probe=localize(probe),
        left_probe=localize(left_probe),
        sector=key,
    )
    if not proj.converged:
        raise TrackingError(
            f"contour projector at {lam} stopped at {proj.quad_points} nodes "
            f"with idempotency defect {proj.idempotency_residual:.3e} "
            f"above {IDEMPOTENCY_TOL:.1e}"
        )
    if proj.rank != 1 or abs(proj.trace_value - 1.0) > 0.1:
        raise DegeneracyError(
            f"projector at {lam} reports trace {proj.trace_value}, expected 1"
        )
    u = proj.right[:, 0]
    x0 = localize(probe)
    x0 = u if x0 is None else x0
    y0 = localize(left_probe)
    y0 = x0 if y0 is None else y0
    pv = proj.apply(np.asarray(x0, dtype=complex))
    pw = proj.apply_adjoint(np.asarray(y0, dtype=complex))
    denom = np.vdot(pw, pv)
    if abs(denom) < 1e-12 * np.linalg.norm(pv) * np.linalg.norm(pw):
        raise TrackingError("Rayleigh pairing degenerate for the given probes")
    rayleigh = complex(np.vdot(pw, A @ pv) / denom)
    disagreement = abs(rayleigh - lam)
    scale = max(1.0, abs(lam))
    if disagreement > AGREE_TOL * scale:
        raise TrackingError(
            f"eigenvalue routes disagree: contour Rayleigh {rayleigh} vs "
            f"direct {lam} (|diff| = {disagreement:.3e})"
        )
    residual = float(np.linalg.norm(A @ u - lam * u))

    def globalize(vec):
        out = np.zeros(H.dim, dtype=complex)
        out[sec.indices] = vec
        return out

    return SpectralRecord(
        lam=lam,
        gap=gap,
        projector_rank=proj.rank,
        residual=residual,
        method_disagreement=disagreement,
        projector=proj,
        right_vector=globalize(u),
        left_vector=globalize(proj.left[:, 0]),
    )


def _power_norm(matvec, rmatvec, x: np.ndarray) -> float:
    """Largest singular value by power iteration on M = op^H op (svds fallback).

    Stops when |M x - nu x| <= RESOLVENT_TOL * nu with nu = x^H M x, the
    Rayleigh quotient of the unit iterate; raises ConvergenceError when
    POWER_MAX_ITERS steps do not get there.
    """
    x = x / np.linalg.norm(x)
    for _ in range(POWER_MAX_ITERS):
        y = rmatvec(matvec(x))
        nu = float(np.vdot(x, y).real)
        if np.linalg.norm(y - nu * x) <= RESOLVENT_TOL * nu:
            return float(np.sqrt(nu))
        x = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"power iteration for the resolvent norm missed the relative residual "
        f"{RESOLVENT_TOL:.0e} in {POWER_MAX_ITERS} steps"
    )


def _sector_resolvent_norm(
    sec: Sector, z: complex, proj: RieszProjector | None
) -> float:
    """Norm of (A - z)^(-1) (1 - P) on one sector; P = 0 when proj is None."""
    n = len(sec.indices)
    solver = ShiftedSolver(sec, z)
    if solver.singular:
        return np.inf
    if proj is None:
        matvec, rmatvec = solver.solve, solver.solve_adjoint
    else:
        def matvec(x):
            return solver.solve(x - proj.apply(x))

        def rmatvec(y):
            s = solver.solve_adjoint(y)
            return s - proj.apply_adjoint(s)

    if n < 3:
        # ARPACK needs k = 1 < n - 1, so svds raises on a 1x1 or 2x2 block
        op_dense = matvec(np.eye(n, dtype=complex))
        return float(np.linalg.svd(op_dense, compute_uv=False)[0])
    op = LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec, dtype=complex)
    v0 = np.random.default_rng(12345).standard_normal(n)
    try:
        s = svds(
            op, k=1, which="LM", v0=v0, tol=RESOLVENT_TOL,
            return_singular_vectors=False,
        )
        return float(s[0])
    except (ArpackNoConvergence, ArpackError):
        return _power_norm(matvec, rmatvec, v0.astype(complex))


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


def resolvent_scan(
    H: OperatorMatrix, z_grid, jobs: int = 1
) -> list[tuple[complex, float]]:
    """Elementwise resolvent norms over a grid on ``jobs`` threads, order kept."""
    z_list = list(z_grid)
    return list(zip(z_list, parallel_map(lambda z: resolvent_norm(H, z), z_list, jobs)))


def shifted_inverse_eigenvalue(
    sec: Sector, shift: complex
) -> tuple[complex, np.ndarray]:
    """Eigenvalue of the block of ``sec`` nearest to ``shift``.

    Shifted inverse iteration: at most 40 steps from a random start; stops
    when the Rayleigh quotient moves by less than 1e-13 relative.  Raises
    SingularShiftError when the shift is an eigenvalue to working precision.
    """
    A = sec.block
    n = A.shape[0]
    solver = ShiftedSolver(sec, shift)
    rng = np.random.default_rng(2024)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = shift
    for _ in range(40):
        y = solver.solve(x)
        y /= np.linalg.norm(y)
        lam_new = complex(np.vdot(y, A @ y))
        if abs(lam_new - lam) < 1e-13 * max(1.0, abs(lam_new)):
            x = y
            lam = lam_new
            break
        x, lam = y, lam_new
    return lam, x


def rank_two_difference_norm(
    u1: np.ndarray, l1: np.ndarray, u2: np.ndarray, l2: np.ndarray
) -> float:
    """Spectral norm of u1 l1^H - u2 l2^H without forming the matrices."""
    A = np.stack([u1, -u2], axis=1)
    B = np.stack([l1, l2], axis=1)
    qa, ra = np.linalg.qr(A)
    qb, rb = np.linalg.qr(B)
    core = ra @ rb.conj().T
    return float(np.linalg.svd(core, compute_uv=False)[0])
