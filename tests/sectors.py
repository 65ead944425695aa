"""Plain matrices in the operator layout the spectral routines take."""

import numpy as np

from spinboson.fock import (
    OperatorMatrix,
    Sector,
    build_field_operator,
    field_energy_diagonal,
)
from spinboson.model import coupling_amplitudes
from spinboson.spectral import RieszProjector


def sector(A, top=None) -> Sector:
    """A square matrix as one Sector, with optional top-layer positions.

    The dense-to-Sector route: the parts are read off A by index, each
    with the dtype and memory order the assembly gives them (A_RR
    complex, A_RT in A's dtype, both C-ordered).  A must be complex
    symmetric: A_TR is not read, and ``Sector`` rejects a non-symmetric A_RR.
    """
    top = np.zeros(0, dtype=np.int64) if top is None else np.asarray(top)
    in_t = np.zeros(len(A), dtype=bool)
    in_t[top] = True
    r = np.nonzero(~in_t)[0]
    return Sector(
        np.arange(len(A)), top, A[top, top],
        A[np.ix_(r, r)].astype(complex, copy=False),
        A[np.ix_(r, top)],
    )


def same_parts(a: Sector, b: Sector) -> None:
    """Two Sectors hold equal parts, bit for bit, with equal dtypes and layouts."""
    for name in ("top", "rest", "d", "a_rr", "a_rt"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.flags.c_contiguous == y.flags.c_contiguous, name
        assert x.flags.f_contiguous == y.flags.f_contiguous, name
        assert np.array_equal(x, y), name


def dense(sec: Sector) -> np.ndarray:
    """The sector's matrix A as one C-ordered array of its parts' type: the
    dense route, kept as the oracle of every route that reads the parts."""
    n, r, t = len(sec.indices), sec.rest, sec.top
    out = np.zeros((n, n), dtype=np.result_type(sec.d, sec.a_rr, sec.a_rt))
    out[np.ix_(r, r)] = sec.a_rr
    out[np.ix_(r, t)] = sec.a_rt
    out[np.ix_(t, r)] = sec.a_rt.T
    out[t, t] = sec.d
    return out


def one_sector(A) -> OperatorMatrix:
    """A square matrix as a complex operator of one sector (key 0)."""
    A = np.asarray(A, dtype=complex)
    return OperatorMatrix(len(A), {0: sector(A)})


def dense_sectors(cfg, field, n=None) -> dict:
    """The dense route of the assembly: {key: (indices, block, top)}.

    Each parity block is written whole, its diagonal, then g times the
    even-odd field operator and its transpose across the two atoms.
    """
    basis = field.basis_for_scale(n)
    coeffs = coupling_amplitudes(cfg, basis.modes)
    energies = field_energy_diagonal(basis)
    levels, phase = cfg.atom_levels(), np.exp(-cfg.theta)
    even = np.nonzero(basis.total_parity > 0)[0]
    odd = np.nonzero(basis.total_parity < 0)[0]
    phi_eo = build_field_operator(basis, coeffs, even, odd)
    out = {}
    for key, first, second in ((+1, even, odd), (-1, odd, even)):
        n1, n2 = len(first), len(second)
        block = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        block[:n1, :n1] = np.diag(levels[0] + phase * energies[first])
        block[n1:, n1:] = np.diag(levels[1] + phase * energies[second])
        coupling = phi_eo if first is even else phi_eo.T
        block[:n1, n1:] = cfg.g * coupling
        block[n1:, :n1] = cfg.g * coupling.T
        fock = np.concatenate([first, second])
        top = np.nonzero(basis.totals[fock] == basis.n_max)[0]
        out[key] = (np.concatenate([first, basis.dim + second]), block, top)
    return out


def spectrum(H: OperatorMatrix) -> np.ndarray:
    """All eigenvalues of H, sorted by (real, imaginary) part."""
    values = np.concatenate([np.linalg.eigvals(dense(s)) for s in H.sectors.values()])
    return values[np.lexsort((values.imag, values.real))]


def dense_operator(H: OperatorMatrix) -> np.ndarray:
    """H as one dense matrix, its sector blocks in place."""
    out = np.zeros((H.dim, H.dim), dtype=complex)
    for s in H.sectors.values():
        out[np.ix_(s.indices, s.indices)] = dense(s)
    return out


def dense_projector(proj: RieszProjector) -> np.ndarray:
    """The rank-factored projector right @ left^H as a dense matrix."""
    return proj.right @ proj.left.conj().T


def quadrature_left(sec: Sector, center, radius, n_nodes, u) -> np.ndarray:
    """Oracle for a rank-one projector's left vector: the adjoint quadrature.

    P^H is applied to [u, random] by the trapezoid rule on ``n_nodes``
    nodes of the circle, one dense solve with (A - z)^H per node; its top
    left singular vector w spans the corange, scaled so that w^H u = 1.
    This is the second contour pass ``riesz_rank_one`` ran before it took
    the left vector from the complex symmetry.
    """
    A = dense(sec).astype(complex)
    n = len(A)
    rng = np.random.default_rng(0)
    Y = np.stack([u, rng.standard_normal(n) + 1j * rng.standard_normal(n)], axis=1)
    PHY = np.zeros(Y.shape, dtype=complex)
    for k in range(n_nodes):
        ph = np.exp(2j * np.pi * k / n_nodes)
        M = (A - (center + radius * ph) * np.eye(n)).conj().T
        PHY += np.conj(ph) * np.linalg.solve(M, Y)
    w = np.linalg.svd(-radius / n_nodes * PHY, full_matrices=False)[0][:, 0]
    return w / np.conj(np.vdot(w, u))


def probe_paired_rayleigh(sec: Sector, proj: RieszProjector, x0) -> complex:
    """Oracle for the tracking Rayleigh check: the probe-paired quotient.

    With pv = P x0 and pw = P^H x0 (P^H = left @ right^H) the quotient is
    pw^H A pv / pw^H pv.  This is the route ``track_eigenvalue`` took before
    it read the c-product quotient u^T A u / (u^T u) off u; a probe with
    u^T x0 = 0 makes pv and pw vanish, and the quotient 0 / 0.
    """
    pv = proj.apply(x0)
    pw = proj.left @ (proj.right.conj().T @ x0)
    return complex(np.vdot(pw, sec.apply(pv)) / np.vdot(pw, pv))
