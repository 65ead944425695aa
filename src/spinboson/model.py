"""Complex-dilated massless spin-boson model on a shell-structured radial grid.

The two-level atom has energies e0 = 0 < e1 and couples linearly, through
sigma_1, to a massless scalar field with form factor

    f(k) = exp(-k^2 / Lambda^2) * |k|^(mu - 1/2),      mu in (0, 1/2).

The form factor is rotation invariant, so the interaction only sees the
s-wave sector of the field.  Reducing to that sector replaces L2(R^3) by
L2((0, inf), dr) with coupling profile F(r) = sqrt(4 pi) r f(r) and leaves
the tracked eigenvalues unchanged; higher angular momentum sectors carry
free field branches only.

Dilation by theta multiplies the field energy by exp(-theta) and continues
the coupling profile analytically,

    f_theta(k) = exp(-theta (1 + mu)) exp(-exp(-2 theta) k^2 / Lambda^2)
                 * |k|^(mu - 1/2),

which at real theta is the unitary image of f under the dilation group.
Because the continuation acts by moving the radial coordinate, a shift of
Re(theta) is exactly equivalent to scaling the quadrature grid: assembling
at theta + beta on grid G gives, entry for entry, the same matrix as
assembling at theta on the grid scaled by exp(-beta).  That identity is the
discrete form of "real dilations are unitary" and is exploited by the
invariance diagnostics.

Infrared cutoffs rho_n = rho_0 * rho^n define nested grids: the step-n
field keeps the modes with frequency >= rho_n.  Shells are discretized with
Gauss-Legendre panels so that restriction to a coarser step is literally a
subset of modes, which makes the cross-scale projector comparisons exact.

The assembled Hamiltonian on C^2 (x) Fock is

    H = K + exp(-theta) H_f + g sigma_1 (x) (a(f_themabar) + a(f_theta)*),

stored as its two parity sectors: the exact symmetry sigma_3 (x) (-1)^N,
which the interaction preserves, splits it into two half-size blocks.
Sector +1 holds (excited atom, even Fock) and (ground atom, odd Fock), so
it contains e1 (x) vacuum; sector -1 holds (excited atom, odd Fock) and
(ground atom, even Fock), with e0 (x) vacuum.  Global indices put the
excited atom first: atom a, Fock state s sits at a * dim(basis) + s.
Inside each block the top boson layer N = n_max is diagonal and couples
only to the layer N - 1, so each sector is assembled directly as the
pieces that shifted solves need to eliminate that layer exactly: its
diagonal and the couplings among and to the lower layers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import pi
from typing import ClassVar

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AssemblyError, ConfigError
from .fock import (
    FockBasis,
    ModeSet,
    OperatorMatrix,
    Sector,
    build_field_operator,
    enumerate_basis,
    field_energy_diagonal,
)

RE_THETA_MIN = -1e-3
RE_THETA_MAX = 1e3
# Upper cap on Im(theta).  The analyticity domain only needs the rotated
# Gaussian to keep decaying, i.e. cos(2 Im theta) bounded below; pi/8 gives
# cos(pi/4) and comfortably contains every dilation used in practice.
IM_THETA_CAP = pi / 8
# Bound of nu_floor, the floor of Im theta: the constant chain needs (0, pi/16].
NU_FLOOR_MAX = pi / 16


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters of one run; immutable and shareable.

    The ground atom level ``e0`` is fixed at 0 and is not a parameter.
    """

    e0: ClassVar[float] = 0.0

    e1: float
    lambda_uv: float
    mu: float
    g: complex
    theta: complex
    nu_floor: float = 0.1
    m_cone: int = 4

    def __post_init__(self):
        if self.e1 <= 0.0:
            raise ConfigError("e1 must be positive")
        if self.lambda_uv <= 0.0:
            raise ConfigError("the ultraviolet scale Lambda must be positive")
        if not (0.0 < self.mu < 0.5):
            raise ConfigError(f"mu = {self.mu} violates mu in (0, 1/2)")
        if not (0.0 < self.nu_floor <= NU_FLOOR_MAX):
            raise ConfigError(f"nu_floor = {self.nu_floor} outside (0, pi/16]")
        if self.m_cone < 4:
            raise ConfigError("cone aperture divisor m must be at least 4")
        self.validate_theta(self.theta)

    def validate_theta(self, theta: complex) -> None:
        if not (RE_THETA_MIN < theta.real < RE_THETA_MAX):
            raise ConfigError(
                f"Re theta = {theta.real} outside ({RE_THETA_MIN}, {RE_THETA_MAX})"
            )
        if not (self.nu_floor < theta.imag < IM_THETA_CAP):
            raise ConfigError(
                f"Im theta = {theta.imag} outside (nu_floor = {self.nu_floor}, "
                f"{IM_THETA_CAP:.6f})"
            )

    @property
    def nu(self) -> float:
        """Imaginary part of the dilation parameter."""
        return self.theta.imag

    @property
    def delta(self) -> float:
        """Atomic gap e1 - e0."""
        return self.e1 - self.e0

    def atom_levels(self) -> np.ndarray:
        """Energies in atom-basis order (excited first)."""
        return np.array([self.e1, self.e0])

    def replace(self, **kwargs) -> "ModelConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class CutoffLadder:
    """Geometric infrared cutoffs rho_n = rho0 * rho^n."""

    rho0: float
    rho: float
    e1: float = 1.0

    def __post_init__(self):
        # rho0 may sit exactly at e1/4; the practical ladders used for
        # numerics do, and nothing downstream needs strictness there.
        if not (0.0 < self.rho0 <= min(1.0, self.e1 / 4.0)):
            raise ConfigError(
                f"rho0 = {self.rho0} outside (0, min(1, e1/4) = "
                f"{min(1.0, self.e1 / 4.0)}]"
            )
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho = {self.rho} outside (0, 1)")

    def cutoff(self, n: int) -> float:
        if n < 0:
            raise ValueError("scale index must be nonnegative")
        return self.rho0 * self.rho**n


def form_factor(k: float, cfg: ModelConfig) -> float:
    """Undilated form factor value at radial momentum k > 0."""
    if k <= 0.0:
        raise ValueError("form factor is defined for k > 0 only")
    return float(np.exp(-(k**2) / cfg.lambda_uv**2) * k ** (cfg.mu - 0.5))


def coupling_amplitudes(
    cfg: ModelConfig, modes: ModeSet, theta: complex | None = None
) -> np.ndarray:
    """Weighted mode amplitudes sqrt(w_j) F_theta(r_j) of the interaction.

    ``theta`` (default ``cfg.theta``) may lie outside the dilation strip
    that ``ModelConfig`` accepts, theta = 0 included.
    """
    theta = cfg.theta if theta is None else theta
    r = modes.frequencies
    pref = np.exp(-theta * (1.0 + cfg.mu))
    gauss = np.exp(-np.exp(-2.0 * theta) * r**2 / cfg.lambda_uv**2)
    profile = np.sqrt(4.0 * pi) * r ** (0.5 + cfg.mu) * gauss
    return np.sqrt(modes.weights) * pref * profile


def _gauss_panel(lo: float, hi: float, points: int):
    x, w = leggauss(points)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


class DiscretizedField:
    """Shell-structured radial grid plus the truncated bases it generates.

    The grid is the union of Gauss-Legendre panels on the infrared shells
    [rho_k, rho_{k-1}) for k = n_scales .. 1 and on a geometric splitting of
    the ultraviolet segment [rho_0, r_max].  Step-n data (modes, basis) are
    obtained by dropping the shells below rho_n, so coarser grids are exact
    subsets of finer ones.
    """

    def __init__(
        self,
        ladder: CutoffLadder,
        n_scales: int,
        points_per_shell: int = 8,
        r_max: float | None = None,
        n_max: int = 2,
        uv_points_per_panel: int | None = None,
        _grid: ModeSet | None = None,
    ):
        if n_scales < 1:
            raise ConfigError("need at least one infrared scale")
        if points_per_shell < 1:
            raise ConfigError("points_per_shell must be positive")
        if ladder.cutoff(n_scales) < np.finfo(float).tiny:
            raise ConfigError(f"the last cutoff rho0 rho^{n_scales} underflows")
        self.ladder = ladder
        self.n_scales = n_scales
        self.points_per_shell = points_per_shell
        self.n_max = n_max
        self.uv_points_per_panel = (
            max(4, points_per_shell // 2)
            if uv_points_per_panel is None
            else uv_points_per_panel
        )
        self.r_max = r_max
        self.grid = self._build_grid() if _grid is None else _grid
        self._scale_modes: dict[int, ModeSet] = {}
        self._scale_bases: dict[int, FockBasis] = {}
        self._embeddings: dict[tuple[int, int], np.ndarray] = {}

    def _build_grid(self) -> ModeSet:
        lad = self.ladder
        if self.r_max is None:
            self.r_max = 4.0  # suits Lambda = 1; the CLI passes 4 * Lambda
        if self.r_max <= lad.rho0:
            raise ConfigError("r_max must exceed rho0")
        freqs, weights, labels = [], [], []
        bounds: dict[int, tuple[float, float]] = {}
        for k in range(self.n_scales, 0, -1):
            lo, hi = lad.cutoff(k), lad.cutoff(k - 1)
            x, w = _gauss_panel(lo, hi, self.points_per_shell)
            freqs.extend(x)
            weights.extend(w)
            labels.extend([k] * len(x))
            bounds[k] = (lo, hi)
        # ultraviolet segment, split geometrically with the ladder ratio so
        # the on-shell region around e1 gets its own well-resolved panel
        edges = [lad.rho0]
        factor = 1.0 / lad.rho
        while edges[-1] * factor < self.r_max * (1.0 - 1e-12):
            edges.append(edges[-1] * factor)
        edges.append(self.r_max)
        for lo, hi in zip(edges[:-1], edges[1:]):
            x, w = _gauss_panel(lo, hi, self.uv_points_per_panel)
            freqs.extend(x)
            weights.extend(w)
            labels.extend([0] * len(x))
        bounds[0] = (lad.rho0, self.r_max)
        order = np.argsort(freqs)
        return ModeSet(
            np.asarray(freqs)[order],
            np.asarray(weights)[order],
            np.asarray(labels)[order],
            bounds,
        )

    def modes_for_scale(self, n: int | None) -> ModeSet:
        """Modes with frequency >= rho_n (all modes when n is None)."""
        if n is None:
            n = self.n_scales
        if not (1 <= n <= self.n_scales):
            raise ConfigError(f"scale {n} outside 1..{self.n_scales}")
        if n not in self._scale_modes:
            keep = np.nonzero(self.grid.labels <= n)[0]
            self._scale_modes[n] = self.grid.restrict(keep)
        return self._scale_modes[n]

    def basis_for_scale(self, n: int | None) -> FockBasis:
        if n is None:
            n = self.n_scales
        if n not in self._scale_bases:
            self._scale_bases[n] = enumerate_basis(self.modes_for_scale(n), self.n_max)
        return self._scale_bases[n]

    def embedding_indices(self, n_small: int, n_big: int) -> np.ndarray:
        """Index of each step-n_small state inside the step-n_big basis.

        The embedding extends occupations by zeros on the new shells; it
        realizes tensoring with the vacuum of the added modes exactly.
        """
        if n_small > n_big:
            raise ConfigError("embedding goes from coarse into fine scales")
        key = (n_small, n_big)
        if key not in self._embeddings:
            small, big = self.basis_for_scale(n_small), self.basis_for_scale(n_big)
            # positions of the small grid's modes inside the big grid
            pos = np.searchsorted(big.modes.frequencies, small.modes.frequencies)
            if not np.allclose(
                big.modes.frequencies[pos], small.modes.frequencies, rtol=0, atol=0
            ):
                raise AssemblyError("scale grids are not nested")
            padded = np.zeros((small.dim, big.modes.n_modes), dtype=np.int64)
            padded[:, pos] = small.states
            self._embeddings[key] = big.indices_of(padded)
        return self._embeddings[key]

    def scaled(self, factor: float) -> "DiscretizedField":
        """Field with every node and weight multiplied by ``factor``.

        Used to realize real dilation shifts exactly at the matrix level.
        """
        out = DiscretizedField(
            self.ladder,
            self.n_scales,
            points_per_shell=self.points_per_shell,
            r_max=self.r_max * factor,
            n_max=self.n_max,
            uv_points_per_panel=self.uv_points_per_panel,
            _grid=self.grid.scaled(factor),
        )
        return out


def assemble_hamiltonian(
    cfg: ModelConfig,
    field: DiscretizedField,
    n: int | None = None,
    theta: complex | None = None,
) -> OperatorMatrix:
    """Assemble the dilated Hamiltonian on the step-n space.

    ``n = k`` builds the step-k operator (modes with frequency >= rho_k);
    ``n = None`` is the no-extra-cutoff marker and uses the full grid.  Every
    mode of the step couples to the atom with coupling ``cfg.g``; on the
    step-(n-1) states, embedded with the new shells empty, the step-n
    operator acts as the step-(n-1) operator plus terms that create one
    new-shell boson.

    The result has dimension 2 * dim(basis) and is stored as its two
    parity sectors, keyed +1 and -1 (see the module docstring), each as the
    Schur-complement parts of its top boson layer (``fock.Sector``); no
    array of a sector's squared size is built.  At theta = 0 with real g
    it is Hermitian; conjugating theta -> conj(theta), g -> conj(g) transposes it.
    ``theta`` (default ``cfg.theta``) is the only way to assemble at a
    theta outside the dilation strip that ``ModelConfig`` accepts, such as
    the 0 and conj(theta) of those two statements.
    """
    theta = cfg.theta if theta is None else theta
    basis = field.basis_for_scale(n)
    coeffs = coupling_amplitudes(cfg, basis.modes, theta=theta)

    dim_f = basis.dim
    energies = field_energy_diagonal(basis)
    levels = cfg.atom_levels()
    phase = np.exp(-theta)

    # parity sectors: sigma_3 (x) (-1)^N commutes with H exactly, and the
    # field operator only connects even to odd boson numbers
    parity = basis.total_parity
    even = np.nonzero(parity > 0)[0]
    odd = np.nonzero(parity < 0)[0]

    def sector(fock_first: np.ndarray, fock_second: np.ndarray) -> Sector:
        """Excited atom on fock_first, then ground atom on fock_second."""
        n1 = len(fock_first)
        fock = np.concatenate([fock_first, fock_second])
        diag = np.concatenate([
            levels[0] + phase * energies[fock_first],
            levels[1] + phase * energies[fock_second],
        ])
        in_top = basis.totals[fock] == basis.n_max
        top, rest = np.nonzero(in_top)[0], np.nonzero(~in_top)[0]

        def off_diagonal(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            """Entries (rows, cols) off the diagonal: g phi across atoms, 0 within."""
            out = np.zeros((len(rows), len(cols)), dtype=complex)
            r1, c1 = np.searchsorted(rows, n1), np.searchsorted(cols, n1)
            for r, c in ((slice(r1), slice(c1, None)), (slice(r1, None), slice(c1))):
                phi = build_field_operator(basis, coeffs, fock[rows[r]], fock[cols[c]])
                # g first: ``g * <temporary>`` may run in place as phi * g,
                # and the operand order moves the complex product by an ulp
                out[r, c] = np.multiply(cfg.g, phi)
            return out

        a_rr = off_diagonal(rest, rest)
        a_rr[np.diag_indices(len(rest))] = diag[rest]
        # H is complex symmetric, so A_RT also gives A_TR (``Sector``)
        return Sector(
            np.concatenate([fock_first, dim_f + fock_second]), top, diag[top],
            a_rr, off_diagonal(rest, top),
        )

    return OperatorMatrix(2 * dim_f, {+1: sector(even, odd), -1: sector(odd, even)})


def interaction_norm_bound(
    cfg: ModelConfig,
    basis: FockBasis,
    amplitudes: np.ndarray | None = None,
) -> dict:
    """Relative bound of the interaction against (H_0 + 1)^(1/2).

    Assembles V = sigma_1 (x) (a + a*) for the basis modes and checks
    |V (H_0 + 1)^(-1/2)| <= |f| + 2 |f / sqrt(omega)| with discrete norms.
    ``amplitudes`` replaces the model coupling profile by an arbitrary
    vector, which is how perturbed form factors are probed.
    """
    if amplitudes is not None:
        coeffs = np.asarray(amplitudes, dtype=complex)
    else:
        coeffs = coupling_amplitudes(cfg, basis.modes)
    phi = build_field_operator(basis, coeffs)
    energies = field_energy_diagonal(basis)
    levels = cfg.atom_levels()
    scale = [1.0 / np.sqrt(levels[a] + energies + 1.0) for a in range(2)]
    # sigma_1 swaps atom components: the two off-diagonal blocks carry phi
    top = phi * scale[1][None, :]
    bottom = phi * scale[0][None, :]
    lhs = float(
        max(
            np.linalg.svd(top, compute_uv=False)[0],
            np.linalg.svd(bottom, compute_uv=False)[0],
        )
    )
    norm_f = float(np.linalg.norm(coeffs))
    norm_f_over_sqrt = float(
        np.linalg.norm(coeffs / np.sqrt(basis.modes.frequencies))
    )
    rhs = norm_f + 2.0 * norm_f_over_sqrt
    return {
        "lhs": lhs,
        "rhs": rhs,
        "norm_f": norm_f,
        "norm_f_over_sqrt_omega": norm_f_over_sqrt,
        "pass": bool(lhs <= rhs + 1e-12 * (1.0 + rhs)),
    }


def shell_norm_report(cfg: ModelConfig, field: DiscretizedField, n: int) -> dict:
    """Quadrature shell norms of the coupling against their closed envelopes.

    ``verify-appendix`` runs this on every shell of the run's grid
    (n = 0 .. n_scales - 1).  For the shell [rho_{n+1}, rho_n) the
    envelopes are
    |exp(-theta (1+mu))| sqrt(4 pi) rho_n^mu rho_n for |f| and
    |exp(-theta (1+mu))| sqrt(4 pi) rho_n^mu sqrt(rho_n) for |f/sqrt(omega)|.
    """
    if not (1 <= n + 1 <= field.n_scales):
        raise ConfigError("shell index outside the discretized ladder")
    mask = field.grid.labels == (n + 1)
    modes = field.grid.restrict(np.nonzero(mask)[0])
    coeffs = coupling_amplitudes(cfg, modes)
    norm_f = float(np.linalg.norm(coeffs))
    norm_f_over = float(np.linalg.norm(coeffs / np.sqrt(modes.frequencies)))
    rho_n = field.ladder.cutoff(n)
    pref = abs(np.exp(-cfg.theta * (1.0 + cfg.mu))) * np.sqrt(4.0 * pi)
    bound_f = pref * rho_n**cfg.mu * rho_n
    bound_f_over = pref * rho_n**cfg.mu * np.sqrt(rho_n)
    return {
        "norm_f": norm_f,
        "bound_f": bound_f,
        "norm_f_over_sqrt_omega": norm_f_over,
        "bound_f_over_sqrt_omega": bound_f_over,
        "pass": bool(norm_f <= bound_f and norm_f_over <= bound_f_over),
    }
