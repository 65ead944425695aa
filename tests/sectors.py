"""Plain matrices in the operator layout the spectral routines take."""

import numpy as np

from spinboson.fock import OperatorMatrix, Sector
from spinboson.spectral import sort_spectrum


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
    return sort_spectrum(np.concatenate([s.eigvals for s in H.sectors.values()]))
