"""Non-Hermitian spectral primitives.

Operators arrive as plain matrices (one sector) or as the keyed parity
sectors of the model assembly (``OperatorMatrix.sectors``): the exact
parity symmetry splits the Hamiltonian into two blocks, and all spectral
quantities of the full operator are unions or maxima over the sectors.
Each sector computes its eigenvalues once and keeps them.

Every shifted solve goes through ``ShiftedSolver``.  An assembled sector
carries the positions of its top boson layer N = n_max, which is diagonal
and couples only to the layer N - 1.  The solver eliminates that layer
exactly (the Feshbach-Schur map of Bach-Froehlich-Sigal, used here as
plain linear algebra) and factors only the Schur complement on the lower
layers R, a |R| x |R| matrix much smaller than the block.  A plain matrix
has no such layer and gets a dense LU through the same code.  Resolvent
norms build one solver per sector and shift and run Lanczos (svds) on its
solves; no block of dimension 3 or more is inverted or SVD'd densely.

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
from concurrent import futures
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


def _sectors(H) -> dict:
    """The sectors of an assembled operator; a plain matrix is one sector."""
    if isinstance(H, OperatorMatrix):
        return H.sectors
    arr = np.asarray(H, dtype=complex)
    return {None: Sector(np.arange(len(arr)), arr, np.zeros(0, dtype=np.int64))}


def _per_row(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reshape a per-row factor so it broadcasts against b (vector or block)."""
    return d.reshape((-1,) + (1,) * (b.ndim - 1))


class ShiftedSolver:
    """Solves with A - z and its adjoint, the top layer eliminated exactly.

    ``top`` holds positions T of A whose block A_TT is diagonal (entries
    d_t).  With R the remaining positions, A - z is solved through the
    Schur complement

        S(z) = (A_RR - z) - A_RT (D_T - z)^(-1) A_TR,

    the only matrix factored.  A_RT and A_TR are kept as CSR matrices.  A
    top entry with |d_t - z| < TOP_LAYER_GUARD * max(1, |z|) stays in R, so
    a zero d_t - z never divides; it reaches the pivots instead.  Without
    ``top`` R is everything and this is a dense LU of A - z.

    ``singular`` is set when a pivot of the factorization vanishes to
    working precision (|R| eps times the largest entry of S, at least 1):
    the shift then lies on the spectrum and the solves raise
    SingularShiftError.
    """

    def __init__(self, A: np.ndarray, z: complex, top: np.ndarray | None = None):
        n = A.shape[0]
        self.z = z = complex(z)
        top = np.zeros(0, dtype=np.int64) if top is None else np.asarray(top)
        d = A[top, top] - z
        keep = np.abs(d) >= TOP_LAYER_GUARD * max(1.0, abs(z))
        self.t = top[keep]
        self.dt = d[keep]
        in_t = np.zeros(n, dtype=bool)
        in_t[self.t] = True
        self.r = np.nonzero(~in_t)[0]
        self.a_rt = sparse.csr_matrix(A[np.ix_(self.r, self.t)])
        self.a_tr = sparse.csr_matrix(A[np.ix_(self.t, self.r)])
        self.a_rt_h = self.a_rt.conj().T.tocsr()
        self.a_tr_h = self.a_tr.conj().T.tocsr()
        schur = A[np.ix_(self.r, self.r)].astype(complex, copy=False)
        schur[np.diag_indices(len(self.r))] -= z
        if len(self.t):
            schur -= (self.a_rt @ sparse.diags(1.0 / self.dt) @ self.a_tr).toarray()
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
        x_r = lu_solve(self.lu, b[self.r] - self.a_rt @ w)
        x[self.r] = x_r
        x[self.t] = w - (self.a_tr @ x_r) / dt
        return x

    def solve_adjoint(self, c: np.ndarray) -> np.ndarray:
        """(A - z)^(-H) c for a vector or a block of columns."""
        self._check()
        c = np.asarray(c, dtype=complex)
        dt = _per_row(self.dt.conj(), c)
        w = c[self.t] / dt
        y = np.empty_like(c)
        y_r = lu_solve(self.lu, c[self.r] - self.a_tr_h @ w, trans=2)
        y[self.r] = y_r
        y[self.t] = w - (self.a_rt_h @ y_r) / dt
        return y


def sort_spectrum(values: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (real, imaginary) part."""
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


def eig_all(H, hermitian_tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues, sorted by (real, imaginary) part.

    For operators flagged Hermitian the imaginary parts are checked against
    ``hermitian_tol`` before being returned.
    """
    spectrum = np.concatenate([s.eigvals for s in _sectors(H).values()])
    if isinstance(H, OperatorMatrix) and H.hermitian:
        worst = float(np.max(np.abs(spectrum.imag))) if len(spectrum) else 0.0
        scale = max(1.0, float(np.max(np.abs(spectrum))))
        if worst > hermitian_tol * scale:
            raise ValueError(
                f"hermitian-flagged operator produced imaginary parts up to {worst}"
            )
    return sort_spectrum(spectrum)


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


def _node_solver(A: np.ndarray, z: complex, top: np.ndarray | None) -> ShiftedSolver:
    """Shifted solver at a contour node; a node on the spectrum is a collision."""
    solver = ShiftedSolver(A, z, top)
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
    A: np.ndarray,
    center: complex,
    radius: float,
    quad_points: int = 16,
    probe: np.ndarray | None = None,
    left_probe: np.ndarray | None = None,
    tol: float = IDEMPOTENCY_TOL,
    sector: int | None = None,
    top: np.ndarray | None = None,
) -> RieszProjector:
    """Factored contour projector for an expected simple eigenvalue.

    Two quadrature passes over a dense block share one solver per node
    (``top`` are the block's top-layer positions, see ShiftedSolver), so
    all node factorizations of one rule are held at once: nodes * |R|^2
    complex entries, which for a plain matrix (R is everything) is
    nodes * n^2 * 16 bytes.  The first pass recovers the range and corange
    from probe vectors, the second measures the idempotency defect and the
    enclosed trace on that subspace.  Nodes double until the defect passes
    ``tol``; at MAX_QUAD_POINTS the projector is returned with
    ``converged`` False.  ``sector`` is recorded on the projector.
    """
    n = A.shape[0]
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
        solvers = [_node_solver(A, z, top) for z in nodes]
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
    rayleigh: complex = 0.0
    method_disagreement: float = 0.0
    projector: RieszProjector | None = None
    right_vector: np.ndarray | None = None
    left_vector: np.ndarray | None = None


def track_eigenvalue(
    H,
    seed: complex,
    radius: float,
    probe: np.ndarray | None = None,
    left_probe: np.ndarray | None = None,
    quad_points: int = 16,
) -> SpectralRecord:
    """Locate the unique eigenvalue inside circle(seed, radius).

    Two independent routes must agree: the nearest candidate from the full
    eigenvalue list and the Rayleigh quotient built from the contour
    projector with the adjoint-projector left pairing, to AGREE_TOL.  Probe
    vectors are given in the global coordinates of H; the tracked eigenvalue
    is located in its sector (whose top-layer positions go to the contour
    solvers) and the returned vectors are embedded back into the full
    space.  A
    projector whose idempotency defect stays above IDEMPOTENCY_TOL at
    MAX_QUAD_POINTS raises TrackingError.
    """
    sectors = _sectors(H)
    hits: list[tuple] = []
    for key, sec in sectors.items():
        inside = np.nonzero(np.abs(sec.eigvals - seed) <= radius)[0]
        hits.extend((key, int(i)) for i in inside)
    if len(hits) == 0:
        raise TrackingError(
            f"no eigenvalue inside circle(center {seed}, radius {radius})"
        )
    if len(hits) > 1:
        raise DegeneracyError(
            f"{len(hits)} eigenvalues inside circle(center {seed}, "
            f"radius {radius}); tracking needs exactly one"
        )
    key, i = hits[0]
    sec = sectors[key]
    A = sec.block
    lam = complex(sec.eigvals[i])
    spectrum = np.concatenate([s.eigvals for s in sectors.values()])
    dist_sorted = np.sort(np.abs(spectrum - lam))
    gap = float(dist_sorted[1]) if len(dist_sorted) > 1 else np.inf

    def localize(vec):
        if vec is None:
            return None
        return np.asarray(vec, dtype=complex)[sec.indices]

    # contour centered on the candidate, radius limited by the gap
    proj_radius = min(radius, 0.4 * gap) if np.isfinite(gap) else radius
    proj = riesz_rank_one(
        A,
        center=lam,
        radius=proj_radius,
        quad_points=quad_points,
        probe=localize(probe),
        left_probe=localize(left_probe),
        sector=key,
        top=sec.top,
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

    dim = sum(len(s.indices) for s in sectors.values())

    def globalize(vec):
        out = np.zeros(dim, dtype=complex)
        out[sec.indices] = vec
        return out

    return SpectralRecord(
        lam=lam,
        gap=gap,
        projector_rank=proj.rank,
        residual=residual,
        rayleigh=rayleigh,
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
    solver = ShiftedSolver(sec.block, z, sec.top)
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


def resolvent_norm(H, z: complex, proj: RieszProjector | None = None) -> float:
    """Norm of (H - z)^(-1) (1 - P): the maximum over the sectors of H.

    ``proj`` is a factored projector P on the sector ``H.sectors[proj.sector]``
    (a plain matrix is the sector None) and acts only there; without it this
    is the norm of the resolvent.  Returns inf when z sits on the spectrum to
    working precision.
    """
    sectors = _sectors(H)
    if proj is not None and proj.sector not in sectors:
        raise KeyError(f"projector sector {proj.sector!r} is not a sector of H")
    on = None if proj is None else proj.sector
    return max(
        _sector_resolvent_norm(sec, z, proj if key == on else None)
        for key, sec in sectors.items()
    )


def resolvent_scan(H, z_grid, jobs: int = 1) -> list[tuple[complex, float]]:
    """Elementwise resolvent norms over a grid, order preserving."""
    z_list = list(z_grid)
    if jobs > 1 and len(z_list) > 1:
        with futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            norms = list(pool.map(lambda z: resolvent_norm(H, z), z_list))
    else:
        norms = [resolvent_norm(H, z) for z in z_list]
    return list(zip(z_list, norms))


def shifted_inverse_eigenvalue(
    A: np.ndarray, shift: complex, top: np.ndarray | None = None
) -> tuple[complex, np.ndarray]:
    """Eigenvalue of A nearest to ``shift`` by shifted inverse iteration.

    At most 40 steps from a random start; stops when the Rayleigh quotient
    moves by less than 1e-13 relative.  Raises SingularShiftError when the
    shift is an eigenvalue to working precision.
    """
    n = A.shape[0]
    solver = ShiftedSolver(A, shift, top)
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
