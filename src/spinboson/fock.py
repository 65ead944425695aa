"""Truncated bosonic Fock spaces over finite mode sets.

A mode set is a finite family of positive oscillator frequencies with
quadrature weights, obtained by discretizing the radial one-particle space.
The Fock basis enumerates occupation multi-indices (n_1, ..., n_M) with a
total-number cutoff sum(n_j) <= n_max, one boson layer at a time as an
array; the field energy is its diagonal
(``field_energy_diagonal``) and the field operator a(conj h) + a(h)* is
assembled from the elementary lowering matrix elements
(``FockBasis.lowering_triples``), whole or one block at a time (the
couplings of a parity sector).  Operators with an exact symmetry (the
assembled Hamiltonian) are stored as an ``OperatorMatrix`` of keyed
``Sector``s, each kept as the Schur-complement parts of its top layer.
The relative-bound check ``verify_standard_estimates`` takes one amplitude
vector or a stack of them and works on boson-layer blocks: a(h) lowers the
total number by one, so its norms split layer by layer, and each block norm
is read off the top eigenvalue of the block's Gram matrix on the lower
layer.  Each state is keyed by its bosons' modes, and one lookup on these
keys serves the lowering matrix elements and, through
``FockBasis.indices_of``, the scale embeddings.  The module needs numpy only.

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

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import AssemblyError, BasisSizeError

# Largest basis enumerated: a bigger request raises BasisSizeError before
# any array is built.
STATE_CAP = 500_000
# Byte cap of each stacked temporary in verify_standard_estimates: bounds
# the transient memory of a long stack while keeping the eigvalsh calls few.
_STACK_BYTES = 256 * 1024


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


def basis_dimension(n_modes: int, n_max: int) -> int:
    """Stars-and-bars count: sum over totals n of multisets of size n."""
    return sum(comb(n + n_modes - 1, n) for n in range(n_max + 1))


class FockBasis:
    """Occupation basis with total-number cutoff and its one index lookup.

    State 0 is the vacuum.  States are ordered by (total number, occupation
    tuple) with ascending lexicographic order inside each total sector.
    """

    def __init__(self, modes: ModeSet, n_max: int):
        if n_max < 0:
            raise AssemblyError("n_max must be nonnegative")
        dim = basis_dimension(modes.n_modes, n_max)
        if dim > STATE_CAP:
            raise BasisSizeError(dim, STATE_CAP, modes.n_modes, n_max)
        self.modes = modes
        self.n_max = n_max
        # each state's key: its bosons' modes ascending, padded with n_modes
        keys = np.concatenate(
            [_layer_keys(modes.n_modes, n, n_max) for n in range(n_max + 1)]
        )
        states = np.zeros((dim, modes.n_modes + 1), dtype=np.int32)
        np.add.at(states, (np.arange(dim)[:, None], keys), 1)
        self.states = np.ascontiguousarray(states[:, :-1])
        self._keys = keys
        self.dim = dim
        self._lowering = None

    def indices_of(self, occupations: np.ndarray) -> np.ndarray:
        """Basis index of every row of a (k, n_modes) occupation array.

        Rows are compared by their bosons' modes in ascending order (n_max
        entries, padded with n_modes): a dense code of the occupation
        numbers would overflow int64 at a few dozen modes.
        """
        occupations = np.asarray(occupations, dtype=np.int64)
        if occupations.ndim != 2 or occupations.shape[1] != self.modes.n_modes:
            raise AssemblyError("occupations must have shape (k, n_modes)")
        if np.any(occupations < 0) or np.any(occupations.sum(axis=1) > self.n_max):
            raise AssemblyError("occupations outside the truncated basis")
        return self._indices_of_keys(_boson_modes(occupations, self.n_max))

    def _indices_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Basis index of every row of a (k, n_max) array of boson-mode keys."""
        keys = np.concatenate([self._keys, keys])
        _, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        position = np.empty(len(keys), dtype=np.int64)
        position[inverse[: self.dim]] = np.arange(self.dim)
        return position[inverse[self.dim :]]

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
        amp = sqrt(occupation of mode in state col), sorted by column and
        then by mode.
        """
        if self._lowering is None:
            keys = self._keys
            # a mode's first slot in a key: in row-major order these are the
            # (column, mode) pairs of np.nonzero(self.states)
            first = keys < self.modes.n_modes
            first[:, 1:] &= keys[:, 1:] != keys[:, :-1]
            cols, slot = np.nonzero(first)
            mode_ix = keys[cols, slot]
            # the lowered key: that slot turned into padding, sorted last
            lowered = keys[cols]
            lowered[np.arange(len(cols)), slot] = self.modes.n_modes
            lowered.sort(axis=1)
            amps = np.sqrt(self.states[cols, mode_ix].astype(float))
            self._lowering = (self._indices_of_keys(lowered), cols, mode_ix, amps)
        return self._lowering


def _layer_keys(n_modes: int, total: int, width: int) -> np.ndarray:
    """The keys of the states with ``total`` bosons, padded to ``width``.

    Ascending multisets of mode indices are the occupation tuples in
    descending order, so they are taken in reverse.
    """
    multisets = itertools.combinations_with_replacement(range(n_modes), total)
    keys = np.full((comb(n_modes + total - 1, total), width), n_modes, dtype=np.int64)
    ascending = np.array(list(multisets), dtype=np.int64).reshape(len(keys), total)
    keys[:, :total] = ascending[::-1]
    return keys


def _boson_modes(occupations: np.ndarray, width: int) -> np.ndarray:
    """Each row's key: its bosons' modes ascending, padded to ``width`` with n_modes."""
    rows, modes = np.nonzero(occupations)
    counts = occupations[rows, modes]
    rows, modes = np.repeat(rows, counts), np.repeat(modes, counts)
    totals = occupations.sum(axis=1)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(totals) - totals, totals)
    out = np.full((len(occupations), width), occupations.shape[1], dtype=np.int64)
    out[rows, slot] = modes
    return out


@dataclass
class Sector:
    """One exact symmetry sector of an operator, kept as its Schur-complement parts.

    ``indices`` are the sector's positions in the full space.  Inside the
    sector, ``top`` holds the positions whose rows and columns vanish off
    the diagonal except towards the other positions (the top boson layer
    of an assembled Hamiltonian), with diagonal entries ``d``, and ``rest``
    (set here) the other positions R, both ascending.  The sector's matrix
    A is kept as the pieces every shifted solver reads: ``d``, A_RR
    (``a_rr``, complex), A_RT (``a_rt``) and A_TR (``a_tr``), all C-ordered,
    and the conjugate transposes ``a_rt_h`` and ``a_tr_h`` (set here, as
    transposed views, so F-ordered).  The layouts are part of the result:
    the BLAS kernel of a product, and with it the rounding, follows them.
    With a top layer no piece holds len(indices)^2 entries; products with A
    go through ``apply``, and ``dense`` builds A only for the one dense
    eigensolve of each sector, into the operator's ``SpectralCensus``.
    """

    indices: np.ndarray
    top: np.ndarray
    d: np.ndarray
    a_rr: np.ndarray
    a_rt: np.ndarray
    a_tr: np.ndarray
    rest: np.ndarray = field(init=False, repr=False)
    a_rt_h: np.ndarray = field(init=False, repr=False)
    a_tr_h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, n_t = len(self.indices), len(self.top)
        if n_t and not (0 <= np.min(self.top) and np.max(self.top) < n):
            raise AssemblyError("top-layer positions outside their sector")
        in_top = np.zeros(n, dtype=bool)
        in_top[self.top] = True
        self.rest = np.nonzero(~in_top)[0]
        n_r = len(self.rest)
        shapes = (self.d.shape, self.a_rr.shape, self.a_rt.shape, self.a_tr.shape)
        if n_r + n_t != n or shapes != ((n_t,), (n_r, n_r), (n_r, n_t), (n_t, n_r)):
            raise AssemblyError("sector parts do not match its index split")
        self.a_rt_h = self.a_rt.conj().T
        self.a_tr_h = self.a_tr.conj().T

    def dense(self) -> np.ndarray:
        """The sector's matrix A as one C-ordered array of its parts' type."""
        n, r, t = len(self.indices), self.rest, self.top
        out = np.zeros((n, n), dtype=np.result_type(self.d, self.a_rr, self.a_rt))
        out[np.ix_(r, r)] = self.a_rr
        out[np.ix_(r, t)] = self.a_rt
        out[np.ix_(t, r)] = self.a_tr
        out[t, t] = self.d
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x from the parts, for a vector or a block of columns."""
        r, t = self.rest, self.top
        x_r, x_t = x[r], x[t]
        out = np.empty(x.shape, dtype=np.result_type(x, self.a_rr, self.d))
        out[r] = self.a_rr @ x_r + self.a_rt @ x_t
        d = self.d if x.ndim == 1 else self.d[:, None]
        out[t] = d * x_t + self.a_tr @ x_r
        return out

    def with_top(self, keep: np.ndarray) -> "Sector":
        """The same matrix with only ``top[keep]`` as its top layer.

        The other top positions move into R; no entry is recomputed, so
        the parts equal those taken from the dense matrix with that split.
        """
        drop = ~keep
        top = self.top[keep]
        in_rest = np.ones(len(self.indices), dtype=bool)
        in_rest[top] = False
        pos = np.cumsum(in_rest) - 1  # each position's place in the new R
        old, moved = pos[self.rest], pos[self.top[drop]]
        n_r = len(old) + len(moved)
        a_rr = np.zeros((n_r, n_r), dtype=complex)
        a_rr[np.ix_(old, old)] = self.a_rr
        a_rr[np.ix_(old, moved)] = self.a_rt[:, drop]
        a_rr[np.ix_(moved, old)] = self.a_tr[drop]
        a_rr[moved, moved] = self.d[drop]
        a_rt = np.zeros((n_r, len(top)), dtype=self.a_rt.dtype)
        a_rt[old] = self.a_rt[:, keep]
        a_tr = np.zeros((len(top), n_r), dtype=self.a_tr.dtype)
        a_tr[:, old] = self.a_tr[keep]
        return Sector(self.indices, top, self.d[keep], a_rr, a_rt, a_tr)


@dataclass
class OperatorMatrix:
    """Complex matrix of an operator stored as its symmetry sectors.

    ``sectors`` maps each sector key (the parity of an assembled
    Hamiltonian, +1 first) to its Sector; the index sets partition
    range(dim) and entries between different sectors are structurally zero.
    """

    dim: int
    sectors: dict[int, Sector]

    def __post_init__(self):
        seen = np.sort(np.concatenate([s.indices for s in self.sectors.values()]))
        if not np.array_equal(seen, np.arange(self.dim)):
            raise AssemblyError("sector index sets must partition the dimension")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H x, sector by sector from the parts (``Sector.apply``)."""
        out = np.zeros_like(x, dtype=complex)
        for s in self.sectors.values():
            out[s.indices] = s.apply(x[s.indices])
        return out


def enumerate_basis(modes: ModeSet, n_max: int) -> FockBasis:
    """Enumerate the truncated occupation basis over the given modes."""
    return FockBasis(modes, n_max)


def field_energy_diagonal(basis: FockBasis) -> np.ndarray:
    """The diagonal of the field energy as a real vector (no matrix)."""
    return basis.states @ basis.modes.frequencies


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
    layer blocks and each norm is the largest block norm.  The norm of a
    block is the square root of the largest eigenvalue of its Gram matrix on
    layer n - 1 (``_layer_pairs``), taken by stacked ``eigvalsh`` calls whose
    temporaries hold at most ``_STACK_BYTES`` each.
    """
    h = np.asarray(h, dtype=complex)
    hs = np.atleast_2d(h)
    if h.ndim > 2 or hs.shape[1] != basis.modes.n_modes:
        raise AssemblyError("amplitudes must have shape (n_modes,) or (k, n_modes)")
    lhs_a = np.zeros(len(hs))
    lhs_astar = np.zeros(len(hs))
    for size, mode1, mode2, weights, segments, targets in _layer_pairs(basis):
        step = max(1, _STACK_BYTES // (16 * max(len(mode1), size * size)))
        for k in range(0, len(hs), step):
            coef = hs[k : k + step, mode1].conj() * hs[k : k + step, mode2]
            for out, weight in zip((lhs_a, lhs_astar), weights):
                gram = np.zeros((len(coef), size, size), dtype=complex)
                gram.reshape(len(coef), -1)[:, targets] = np.add.reduceat(
                    coef * weight, segments, axis=1
                )
                _max_norm(out[k : k + step], gram)
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


def _layer_pairs(basis: FockBasis) -> list[tuple]:
    """The Gram matrices of every boson layer's blocks, as fixed scatters.

    For the block B of a(h)(H_f+1)^(-1/2) from layer n to layer n - 1 and
    the block C of a(h)*(H_f+1)^(-1/2) from layer n - 1 to layer n, both
    B B* and C* C live on layer n - 1.  Entry (l1, l2) of either sums, over
    the pairs of lowering entries (e1, e2) that leave one layer-n state for
    l1 and l2, conj(h[mode1]) h[mode2] times a fixed weight.  Only the lower
    triangle (l1 >= l2) is kept, the one ``eigvalsh`` reads.  Per layer
    n = 1..n_max this gives (size of layer n - 1, mode1, mode2, the weights
    of B B* and C* C, the first pair of each target, the flat target
    position l1 * size + l2), with the pairs sorted by target.
    """
    rows, cols, mode_ix, amps = basis.lowering_triples()
    totals = basis.totals
    scale = 1.0 / np.sqrt(field_energy_diagonal(basis) + 1.0)
    # a(h)(H_f+1)^(-1/2) scales on layer n, a(h)*(H_f+1)^(-1/2) on layer n - 1
    amp_a, amp_astar = amps * scale[cols], amps * scale[rows]
    starts = np.searchsorted(totals, np.arange(basis.n_max + 2))
    layers = []
    for n in range(1, basis.n_max + 1):
        # the entries leaving layer n; the triples are sorted by column
        sel = np.nonzero(totals[cols] == n)[0]
        lo = rows[sel] - starts[n - 1]  # position in layer n - 1
        first = np.searchsorted(cols[sel], cols[sel])  # first entry of the state
        count = np.bincount(first, minlength=len(sel))[first]
        # every ordered pair (e1, e2) of entries of one layer-n state
        e1 = np.repeat(np.arange(len(sel)), count)
        e2 = first[e1] + np.arange(len(e1)) - np.repeat(np.cumsum(count) - count, count)
        lower = lo[e1] >= lo[e2]
        e1, e2 = e1[lower], e2[lower]
        size = int(starts[n] - starts[n - 1])
        flat = lo[e1] * size + lo[e2]
        order = np.argsort(flat, kind="stable")
        e1, e2, flat = sel[e1[order]], sel[e2[order]], flat[order]
        segments = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
        weights = (amp_a[e1] * amp_a[e2], amp_astar[e1] * amp_astar[e2])
        layers.append(
            (size, mode_ix[e1], mode_ix[e2], weights, segments, flat[segments])
        )
    return layers


def _max_norm(out: np.ndarray, grams: np.ndarray) -> None:
    """out = max(out, square root of the largest eigenvalue of each Gram matrix)."""
    top = np.linalg.eigvalsh(grams)[:, -1]
    np.maximum(out, np.sqrt(np.maximum(top, 0.0)), out=out)
