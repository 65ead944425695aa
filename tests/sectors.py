"""Plain matrices in the operator layout the spectral routines take."""

import numpy as np

from spinboson.fock import OperatorMatrix, Sector
from spinboson.spectral import RieszProjector


def sector(A, top=None) -> Sector:
    """A square matrix as one Sector, with optional top-layer positions."""
    top = np.zeros(0, dtype=np.int64) if top is None else np.asarray(top)
    return Sector(np.arange(len(A)), A, top)


def one_sector(A) -> OperatorMatrix:
    """A square matrix as a complex operator of one sector (key 0)."""
    A = np.asarray(A, dtype=complex)
    return OperatorMatrix(len(A), {0: sector(A)})


def spectrum(H: OperatorMatrix) -> np.ndarray:
    """All eigenvalues of H, sorted by (real, imaginary) part."""
    values = np.concatenate([np.linalg.eigvals(s.block) for s in H.sectors.values()])
    return values[np.lexsort((values.imag, values.real))]


def dense_operator(H: OperatorMatrix) -> np.ndarray:
    """H as one dense matrix, its sector blocks in place."""
    out = np.zeros((H.dim, H.dim), dtype=complex)
    for s in H.sectors.values():
        out[np.ix_(s.indices, s.indices)] = s.block
    return out


def dense_projector(proj: RieszProjector) -> np.ndarray:
    """The rank-factored projector right @ left^H as a dense matrix."""
    return proj.right @ proj.left.conj().T
