"""Truncated bosonic Fock spaces over finite mode sets.

A mode set is a finite family of positive oscillator frequencies with
quadrature weights, obtained by discretizing the radial one-particle space.
The Fock basis enumerates occupation multi-indices (n_1, ..., n_M) with a
total-number cutoff sum(n_j) <= n_max; creation, annihilation and field
energy operators are assembled as explicit matrices in that basis.
Operators with an exact symmetry (the assembled Hamiltonian) are stored
as an ``OperatorMatrix`` of keyed ``Sector`` blocks instead, and
``build_field_operator`` can build just one block (the even-odd coupling).
The relative-bound check ``verify_standard_estimates`` takes one amplitude
vector or a stack of them and works on boson-layer blocks: a(h) lowers the
total number by one, so its norms split layer by layer.

Conventions fixed here and used everywhere downstream:

* a(h) is antilinear in h: its matrix is sum_j conj(h_j) A_j, where A_j is
  the elementary lowering matrix with <n - e_j| A_j |n> = sqrt(n_j).
* a(h)* is linear in h and equals the conjugate transpose of a(h) on the
  truncated space (compression preserves adjointness; it is the canonical
  commutation relation that truncation breaks, and only on the top shell).
* Quadrature weights are absorbed into mode amplitudes as sqrt(w_j), so the
  discrete l2 norm of an amplitude vector approximates the continuum L2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Iterator

import numpy as np

from .errors import AssemblyError, BasisSizeError

DEFAULT_STATE_CAP = 500_000
# Byte cap of one stacked layer block in verify_standard_estimates: bounds
# the transient memory of a long stack while keeping the SVD calls few.
_SVD_STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class ModeSet:
    """Discretized one-particle modes: frequencies, weights, shell labels.

    ``labels[j]`` records which panel of the radial grid mode j came from:
    label k >= 1 means the k-th infrared shell [rho_k, rho_{k-1}), label 0
    means the ultraviolet segment [rho_0, r_max].  ``shell_bounds`` maps each
    label to its half-open interval (closed at r_max) so the labelling can be
    validated.
    """

    frequencies: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    shell_bounds: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)
        if freqs.ndim != 1 or len(freqs) == 0:
            raise AssemblyError("mode set needs at least one frequency")
        if len(weights) != len(freqs) or len(labels) != len(freqs):
            raise AssemblyError("frequencies, weights and labels must align")
        if not np.all(freqs > 0.0):
            raise AssemblyError("all mode frequencies must be positive")
        if not np.all(np.diff(freqs) > 0.0):
            raise AssemblyError("mode frequencies must be strictly increasing")
        if not np.all(weights > 0.0):
            raise AssemblyError("quadrature weights must be positive")
        for j, lab in enumerate(labels):
            if int(lab) in self.shell_bounds:
                lo, hi = self.shell_bounds[int(lab)]
                if not (lo <= freqs[j] <= hi):
                    raise AssemblyError(
                        f"mode {j} at frequency {freqs[j]:.6g} lies outside "
                        f"its labelled shell [{lo:.6g}, {hi:.6g}]"
                    )

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    def restrict(self, keep: np.ndarray) -> "ModeSet":
        """Sub-mode-set at the given sorted index mask/array."""
        keep = np.asarray(keep)
        return ModeSet(
            self.frequencies[keep],
            self.weights[keep],
            self.labels[keep],
            self.shell_bounds,
        )

    def scaled(self, factor: float) -> "ModeSet":
        """Dilated copy: frequencies and weights multiplied by ``factor``.

        Realizes the one-particle dilation r -> factor * r at the quadrature
        level (weights transform like dr).
        """
        if factor <= 0:
            raise AssemblyError("scaling factor must be positive")
        bounds = {
            k: (factor * lo, factor * hi) for k, (lo, hi) in self.shell_bounds.items()
        }
        return ModeSet(
            factor * self.frequencies, factor * self.weights, self.labels, bounds
        )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def basis_dimension(n_modes: int, n_max: int) -> int:
    """Stars-and-bars count: sum over totals n of multisets of size n."""
    return sum(comb(n + n_modes - 1, n) for n in range(n_max + 1))


class FockBasis:
    """Occupation basis with total-number cutoff, plus both index maps.

    State 0 is the vacuum.  States are ordered by (total number, occupation
    tuple) with ascending lexicographic order inside each total sector.
    """

    def __init__(self, modes: ModeSet, n_max: int, state_cap: int = DEFAULT_STATE_CAP):
        if n_max < 0:
            raise AssemblyError("n_max must be nonnegative")
        dim = basis_dimension(modes.n_modes, n_max)
        if dim > state_cap:
            raise BasisSizeError(dim, state_cap, modes.n_modes, n_max)
        self.modes = modes
        self.n_max = n_max
        states: list[tuple[int, ...]] = []
        for total in range(n_max + 1):
            states.extend(_compositions(total, modes.n_modes))
        self.states = np.array(states, dtype=np.int32)
        self.index = {s: i for i, s in enumerate(states)}
        self.dim = dim
        self._lowering = None

    def state(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.states[i])

    def index_of(self, occupations) -> int:
        return self.index[tuple(int(x) for x in occupations)]

    @property
    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)

    @property
    def total_parity(self) -> np.ndarray:
        """(-1)^N per state; used for the interaction parity sector split."""
        return 1 - 2 * (self.totals % 2)

    def lowering_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All elementary lowering matrix elements as flat arrays.

        Returns (rows, cols, mode, amp) with <row| A_mode |col> = amp,
        amp = sqrt(occupation of mode in state col).
        """
        if self._lowering is None:
            rows, cols, mode_ix, amps = [], [], [], []
            for col, occ in enumerate(self.states):
                occupied = np.nonzero(occ)[0]
                for j in occupied:
                    lowered = occ.copy()
                    lowered[j] -= 1
                    rows.append(self.index[tuple(int(x) for x in lowered)])
                    cols.append(col)
                    mode_ix.append(j)
                    amps.append(np.sqrt(float(occ[j])))
            self._lowering = (
                np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64),
                np.array(mode_ix, dtype=np.int64),
                np.array(amps, dtype=float),
            )
        return self._lowering


@dataclass
class Sector:
    """One exact symmetry sector of an operator.

    ``indices`` are the sector's positions in the full space, ``block`` its
    dense matrix on them, and ``top`` the positions inside the block whose
    rows and columns vanish off the diagonal except towards the other
    positions (the top boson layer of an assembled Hamiltonian), which
    shifted solvers eliminate exactly.  ``eigvals`` is computed on first
    use and then reused.
    """

    indices: np.ndarray
    block: np.ndarray
    top: np.ndarray

    def __post_init__(self):
        n = len(self.indices)
        if self.block.shape != (n, n):
            raise AssemblyError("block shape does not match its index set")
        if len(self.top) and not (0 <= np.min(self.top) and np.max(self.top) < n):
            raise AssemblyError("top-layer positions outside their block")

    @cached_property
    def eigvals(self) -> np.ndarray:
        return np.linalg.eigvals(self.block)


@dataclass
class OperatorMatrix:
    """Complex matrix of an operator stored as its symmetry sectors.

    ``sectors`` maps each sector key (the parity of an assembled
    Hamiltonian, +1 first) to its Sector; the index sets partition
    range(dim) and entries between different sectors are structurally zero.
    """

    dim: int
    sectors: dict[int, Sector]
    hermitian: bool = False

    def __post_init__(self):
        seen = np.concatenate([s.indices for s in self.sectors.values()])
        if len(seen) != self.dim or len(np.unique(seen)) != self.dim:
            raise AssemblyError("sector index sets must partition the dimension")

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for s in self.sectors.values():
            out[np.ix_(s.indices, s.indices)] = s.block
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=complex)
        for s in self.sectors.values():
            out[s.indices] = s.block @ x[s.indices]
        return out


def enumerate_basis(
    modes: ModeSet, n_max: int, state_cap: int = DEFAULT_STATE_CAP
) -> FockBasis:
    """Enumerate the truncated occupation basis over the given modes."""
    return FockBasis(modes, n_max, state_cap=state_cap)


def build_field_energy(basis: FockBasis) -> np.ndarray:
    """Diagonal field energy: entry sum_j n_j omega_j per occupation state."""
    return np.diag(field_energy_diagonal(basis).astype(complex))


def field_energy_diagonal(basis: FockBasis) -> np.ndarray:
    """The diagonal of the field energy as a real vector (no matrix)."""
    return basis.states @ basis.modes.frequencies


def build_annihilation(basis: FockBasis, coeffs: np.ndarray) -> np.ndarray:
    """Matrix of a(h) for amplitude vector h over the modes (antilinear)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.modes.n_modes,):
        raise AssemblyError("coefficient vector length must equal mode count")
    rows, cols, mode_ix, amps = basis.lowering_triples()
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.add.at(mat, (rows, cols), np.conj(coeffs[mode_ix]) * amps)
    return mat


def build_creation(basis: FockBasis, coeffs: np.ndarray) -> np.ndarray:
    """Matrix of a(h)*, the adjoint of a(h) on the truncated space."""
    return build_annihilation(basis, coeffs).conj().T


def build_field_operator(
    basis: FockBasis,
    coeffs: np.ndarray,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """a(conj(h)) + a(h)* for amplitudes h: the interaction combination.

    Complex symmetric for any h (both ladder directions carry h itself);
    Hermitian exactly when h is real.  ``rows`` and ``cols`` (basis index
    arrays, all of them by default) select the block that is built; every
    entry receives at most one matrix element, so a block equals the same
    slice of the full matrix exactly.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.modes.n_modes,):
        raise AssemblyError("coefficient vector length must equal mode count")
    lowered, raised, mode_ix, amps = basis.lowering_triples()
    vals = coeffs[mode_ix] * amps
    rows = np.arange(basis.dim) if rows is None else np.asarray(rows)
    cols = np.arange(basis.dim) if cols is None else np.asarray(cols)
    pos_r, pos_c = _positions(basis.dim, rows), _positions(basis.dim, cols)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for r, c in ((lowered, raised), (raised, lowered)):
        keep = (pos_r[r] >= 0) & (pos_c[c] >= 0)
        mat[pos_r[r[keep]], pos_c[c[keep]]] += vals[keep]
    return mat


def _positions(dim: int, index: np.ndarray) -> np.ndarray:
    """Position of each basis state in ``index``, or -1 where it is absent."""
    pos = np.full(dim, -1)
    pos[index] = np.arange(len(index))
    return pos


def verify_ccr(basis: FockBasis, h: np.ndarray, l: np.ndarray) -> float:
    """Max-entry residual of [a(h), a*(l)] - <h,l> restricted below the cutoff.

    The commutator is exact on states with total number <= n_max - 1; the
    top shell is where truncation necessarily breaks it, so that sector is
    excluded from the residual.
    """
    if basis.n_max < 1:
        raise ValueError("canonical commutator needs n_max >= 1")
    a_h = build_annihilation(basis, h)
    c_l = build_creation(basis, l)
    comm = a_h @ c_l - c_l @ a_h
    inner = complex(np.vdot(np.asarray(h, dtype=complex), np.asarray(l, dtype=complex)))
    resid = comm - inner * np.eye(basis.dim)
    keep = np.nonzero(basis.totals <= basis.n_max - 1)[0]
    return float(np.max(np.abs(resid[np.ix_(keep, keep)])))


def verify_standard_estimates(basis: FockBasis, h: np.ndarray) -> dict:
    """Check the annihilation/creation relative bounds against (H_f + 1)^(1/2).

    Computes the truncated-space operator norms of a(h)(H_f+1)^(-1/2) and
    a(h)*(H_f+1)^(-1/2) and compares with the closed-form l2 bounds
    |h/sqrt(omega)| and |h| + |h/sqrt(omega)|.  Compression can only shrink
    operator norms, so both inequalities must hold on any truncation.

    ``h`` is one amplitude vector of shape (n_modes,), which gives a dict of
    floats, or a stack of shape (k, n_modes), which gives the same keys
    holding length-k arrays.  a(h) maps boson layer n to layer n - 1 and
    (H_f+1)^(-1/2) is diagonal, so both operators are direct sums of their
    layer blocks and each norm is the largest block norm; the blocks are
    built straight from the lowering triples and their largest singular
    values taken by stacked SVDs of at most ``_SVD_STACK_BYTES`` each.
    """
    h = np.asarray(h, dtype=complex)
    hs = np.atleast_2d(h)
    if h.ndim > 2 or hs.shape[1] != basis.modes.n_modes:
        raise AssemblyError("amplitudes must have shape (n_modes,) or (k, n_modes)")
    lhs_a = np.zeros(len(hs))
    lhs_astar = np.zeros(len(hs))
    rows, cols, mode_ix, amps = basis.lowering_triples()
    totals = basis.totals
    scale = 1.0 / np.sqrt(field_energy_diagonal(basis) + 1.0)
    starts = np.searchsorted(totals, np.arange(basis.n_max + 2))
    for n in range(1, basis.n_max + 1):
        sel = totals[cols] == n
        lo = rows[sel] - starts[n - 1]  # position in layer n - 1
        hi = cols[sel] - starts[n]  # position in layer n
        shape = (starts[n] - starts[n - 1], starts[n + 1] - starts[n])
        # a(h)(H_f+1)^(-1/2): layer n -> n - 1, scaled on layer n
        amp_a = amps[sel] * scale[cols[sel]]
        # a(h)*(H_f+1)^(-1/2): layer n - 1 -> n, scaled on layer n - 1
        amp_astar = amps[sel] * scale[rows[sel]]
        step = max(1, _SVD_STACK_BYTES // (16 * shape[0] * shape[1]))
        for k in range(0, len(hs), step):
            coef = hs[k : k + step, mode_ix[sel]]
            block = np.zeros((len(coef),) + shape, dtype=complex)
            block[:, lo, hi] = coef.conj() * amp_a
            _max_norm(lhs_a[k : k + step], block)
            block = np.zeros((len(coef),) + shape[::-1], dtype=complex)
            block[:, hi, lo] = coef * amp_astar
            _max_norm(lhs_astar[k : k + step], block)
    rhs_a = np.linalg.norm(hs / np.sqrt(basis.modes.frequencies), axis=1)
    rhs_astar = np.linalg.norm(hs, axis=1) + rhs_a
    slack = 1e-12 * (1.0 + rhs_astar)
    rep = {
        "lhs_a": lhs_a,
        "lhs_astar": lhs_astar,
        "rhs_a": rhs_a,
        "rhs_astar": rhs_astar,
        "pass": (lhs_a <= rhs_a + slack) & (lhs_astar <= rhs_astar + slack),
    }
    if h.ndim == 1:
        return {key: v[0].item() for key, v in rep.items()}
    return rep


def _max_norm(out: np.ndarray, blocks: np.ndarray) -> None:
    """out = max(out, largest singular value of each stacked block)."""
    np.maximum(out, np.linalg.svd(blocks, compute_uv=False)[:, 0], out=out)
