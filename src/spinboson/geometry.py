"""Cones and complex-plane regions used to localize spectrum.

A cone C_m(v) is the closed convex sector with apex v whose axis points
along exp(-i nu) (into the lower half plane) and whose half-aperture is
nu / m.  Membership and Euclidean distance are closed-form after rotating
the axis onto the positive real line: for w = (z - v) exp(i nu) with polar
angle phi, the distance is 0 inside (|phi| <= nu/m), |w| sin(|phi| - nu/m)
against the nearest edge, and |w| beyond the normal fan of the apex.

The level boxes around the atomic levels are ``Box`` rectangles, and this
module is the only place that knows their inequalities: every box is
|Re z - e_i| <= delta/2 and lo <= Im z <= delta sin(nu) / 8.  The
first-scale box B_i (``Box.b1``) has lo = -rho_1 sin(nu) / 2.  The
tracking window actually used by the ladder in practical mode
(``Box.wn``) anchors lo a quarter cutoff below the tracked eigenvalue,
lambda - rho_n sin(nu) / 4; the literal scale-n box (``Box.bn``) takes
the larger of the two floors, so it coincides with the window whenever
the eigenvalue sits inside its first-scale box.

``verify_cone_chain`` checks the nested-cone step from scale n to n + 1,
which ``spectrum_cone_check`` (the ``cone-check`` subcommand) runs on each
consecutive pair of tracked eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Cone:
    """Closed sector {v + x exp(-i alpha) : x >= 0, |alpha - nu| <= nu/m}."""

    vertex: complex
    nu: float
    m: int = 4

    def __post_init__(self):
        if not (0.0 < self.nu):
            raise ConfigError("cone axis angle nu must be positive")
        if self.m < 4:
            raise ConfigError("cone aperture divisor m must be at least 4")

    @property
    def half_aperture(self) -> float:
        return self.nu / self.m

    def edge_directions(self) -> tuple[complex, complex]:
        return (
            np.exp(-1j * (self.nu - self.half_aperture)),
            np.exp(-1j * (self.nu + self.half_aperture)),
        )


def dist_to_cone(cone: Cone, z: complex) -> float:
    """Euclidean distance from z to the closed cone (0 iff contained)."""
    w = (complex(z) - cone.vertex) * np.exp(1j * cone.nu)
    rho = abs(w)
    if rho == 0.0:
        return 0.0
    psi = abs(np.angle(w)) - cone.half_aperture
    if psi <= 0.0:
        return 0.0
    if psi >= np.pi / 2.0:
        return rho
    return rho * float(np.sin(psi))


def cone_contains(cone: Cone, z: complex) -> bool:
    """Closed-set membership."""
    return dist_to_cone(cone, z) <= 0.0


def cone_complement_distance(inner: Cone, outer: Cone) -> float:
    """dist(inner cone, complement of outer cone) for nested same-shape cones.

    Both cones are translates v + K of one convex cone K, and K + K lies in
    K, so the inner vertex is the point of the inner cone nearest the
    complement.  With w = (v_in - v_out) exp(i nu) inside the rotated
    sector |arg w| <= nu/m, its distance to the nearer edge ray is
    |w| sin(nu/m - |arg w|).  Cones that are not nested give 0.
    """
    if (inner.nu, inner.m) != (outer.nu, outer.m):
        raise ConfigError("cone gap distance expects cones of the same shape")
    w = (complex(inner.vertex) - outer.vertex) * np.exp(1j * outer.nu)
    slack = outer.half_aperture - abs(np.angle(w))
    if slack < 0.0:
        return 0.0  # not nested: the cones' boundaries already touch
    return abs(w) * float(np.sin(slack))


@dataclass(frozen=True)
class Box:
    """Closed rectangle |Re z - level| <= half_width, lo <= Im z <= hi.

    Every level box is one: ``b1`` (the first-scale box B_i), ``bn`` (its
    scale-n refinement) and ``wn`` (the anchored tracking window) build
    them; see the module docstring.
    """

    level: float
    half_width: float
    lo: float
    hi: float

    @classmethod
    def _around(cls, cfg, i: int, lo: float) -> "Box":
        top = 0.125 * cfg.delta * np.sin(cfg.nu)
        return cls(cfg.e1 if i == 1 else cfg.e0, 0.5 * cfg.delta, lo, top)

    @classmethod
    def b1(cls, cfg, i: int, rho1: float) -> "Box":
        """B_i: the box of level i, floored at -rho_1 sin(nu) / 2."""
        return cls._around(cfg, i, -0.5 * rho1 * np.sin(cfg.nu))

    @classmethod
    def bn(cls, cfg, i: int, rho1: float, rho_n: float, lam: complex) -> "Box":
        """B_i at scale n: B_i above a quarter cutoff below lambda_i^(n)."""
        floors = cls.b1(cfg, i, rho1).lo, cls.wn(cfg, i, rho_n, lam).lo
        return cls._around(cfg, i, max(floors))

    @classmethod
    def wn(cls, cfg, i: int, rho_n: float, lam: complex) -> "Box":
        """The scale-n window: B_i floored a quarter cutoff below lambda."""
        return cls._around(cfg, i, lam.imag - 0.25 * rho_n * np.sin(cfg.nu))

    def contains(self, z):
        """Closed-set membership: a bool for a number, a mask for an array."""
        re, im = np.real(z), np.imag(z)
        inside = (
            (abs(re - self.level) <= self.half_width)
            & (self.lo <= im)
            & (im <= self.hi)
        )
        return inside if np.ndim(inside) else bool(inside)


def verify_cone_chain(
    lambda_n: complex,
    lambda_n1: complex,
    ladder,
    n: int,
    cfg,
) -> dict:
    """Check the nested-cone step from scale n to n + 1.

    Builds the three vertices (quarter-cutoff ahead of each eigenvalue and
    the intermediate one), tests both inclusions by vertex membership, and
    measures the two gap distances against their sine envelopes.

    Only the outer step (v_mid into the cone at v_n1) sees the eigenvalues.
    v_n and v_mid both sit on the axis through lambda_n, so the inner
    inclusion and gap_inner / gap_inner_bound = 10 (0.25 - 0.39 rho) / rho
    depend on the ladder ratio rho alone: 1.1 at rho = 0.5, and below 1, a
    failing step whatever lambda does, for every rho > 0.25 / 0.49 = 0.510.
    """
    nu, m = cfg.nu, cfg.m_cone
    rho_n = ladder.cutoff(n)
    rho_n1 = ladder.cutoff(n + 1)
    axis = np.exp(-1j * nu)
    v_n = lambda_n + 0.25 * rho_n * axis
    v_mid = lambda_n + (0.4 - 0.01) * rho_n1 * axis
    v_n1 = lambda_n1 + 0.25 * rho_n1 * axis
    cone_mid = Cone(v_mid, nu, m)
    cone_n1 = Cone(v_n1, nu, m)
    incl_inner = cone_contains(cone_mid, v_n)
    incl_outer = cone_contains(cone_n1, v_mid)
    gap_outer = cone_complement_distance(cone_mid, cone_n1)
    gap_inner = cone_complement_distance(Cone(v_n, nu, m), cone_mid)
    bound_outer = np.sin(nu / (2 * m)) * rho_n1 / 10.0
    bound_inner = np.sin(nu / m) * rho_n1 / 10.0
    report = {
        "vertices": {"v_n": v_n, "v_mid": v_mid, "v_n1": v_n1},
        "inner_inclusion": bool(incl_inner),
        "outer_inclusion": bool(incl_outer),
        "gap_outer": float(gap_outer),
        "gap_outer_bound": float(bound_outer),
        "gap_inner": float(gap_inner),
        "gap_inner_bound": float(bound_inner),
        "pass": bool(
            incl_inner
            and incl_outer
            and gap_outer >= bound_outer * (1.0 - 1e-9)
            and gap_inner >= bound_inner * (1.0 - 1e-9)
        ),
    }
    if not incl_inner:
        report["witness"] = v_n
    elif not incl_outer:
        report["witness"] = v_mid
    return report
