"""Log-domain evaluation of the smallness-constant chain.

The multiscale construction is driven by one explicit constant chain: a
base constant D = 10^6 + 10 c (c >= 1 is the generic bound on all the
unnamed estimate constants and is not derivable from first principles, so
it is an input here), an angle-dependent constant

    C >= D / sin(nu_floor / 2)^3,

strengthened when a cone aperture m is in play by
C >= 1e5 / sin(nu/m)^2 and C >= D / sin(nu/m), and the admissibility
windows

    C^8 rho0^mu <= 1,        C^4 rho^mu <= 1/4,
    g0 <= rho1 sin(nu_floor/2)^2 / (1e4 c),
    |g| <= sin(nu/(2m))^3 rho / 1e8,    rho <= 1e-3 sin(nu/m) e1.

The admissible rho0 is around 10^(-300) for realistic angles, so every
quantity is carried in log10; nothing here ever under- or overflows.
Slacks are reported in log10 units of the constrained parameter, i.e. a
proposal one order of magnitude past its bound scores slack -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log10, pi, sin

from .errors import ConfigError
from .model import IM_THETA_CAP

# the least admissible generic constant bound c of the constant chain
C_GENERIC_MIN = 1.0


@dataclass
class FeasibilityReport:
    """Admissible-parameter summary, everything in log10."""

    c_generic: float
    mu: float
    nu_floor: float
    nu: float | None
    m: int | None
    D: float
    log10_C: float
    log10_rho0_max: float
    log10_rho_max: float
    log10_rho1_max: float
    log10_g0: float
    log10_gm: float


def compute_constants(
    mu: float,
    nu_floor: float,
    nu: float | None = None,
    m: int | None = None,
    c_generic: float = 10.0,
) -> FeasibilityReport:
    """Evaluate the constant chain at its equality choices.

    C sits at the maximum of its applicable lower bounds; rho0, rho and the
    coupling caps sit at their upper bounds.  Without ``nu`` and ``m`` the
    chain is the plain one, without the cone-aperture bounds.
    """
    if not (0.0 < mu < 0.5):
        raise ConfigError(f"mu = {mu} outside (0, 1/2)")
    if not (0.0 < nu_floor <= pi / 16.0):
        raise ConfigError(f"nu_floor = {nu_floor} outside (0, pi/16]")
    if c_generic < C_GENERIC_MIN:
        raise ConfigError(
            f"the generic constant bound must satisfy c >= {C_GENERIC_MIN}"
        )
    if nu is not None and not (nu_floor <= nu < IM_THETA_CAP):
        raise ConfigError(f"nu = {nu} outside [nu_floor, {IM_THETA_CAP:.6f})")
    if m is not None:
        if m < 4:
            raise ConfigError("cone divisor m must be at least 4")
        if nu is None:
            raise ConfigError("cone-aware constants need nu alongside m")

    D = 1.0e6 + 10.0 * c_generic
    log10_C = log10(D) - 3.0 * log10(sin(nu_floor / 2.0))
    if m is not None:
        log10_C = max(
            log10_C,
            5.0 - 2.0 * log10(sin(nu / m)),
            log10(D) - log10(sin(nu / m)),
        )
    log10_rho0_max = -(8.0 / mu) * log10_C
    log10_rho_max = (log10(0.25) - 4.0 * log10_C) / mu
    log10_rho1_max = log10_rho0_max + log10_rho_max
    log10_g0 = (
        log10_rho1_max + 2.0 * log10(sin(nu_floor / 2.0)) - 4.0 - log10(c_generic)
    )
    if m is not None:
        log10_gm = min(log10_g0, 3.0 * log10(sin(nu / (2 * m))) + log10_rho_max - 8.0)
    else:
        log10_gm = log10_g0
    return FeasibilityReport(
        c_generic=c_generic,
        mu=mu,
        nu_floor=nu_floor,
        nu=nu,
        m=m,
        D=D,
        log10_C=log10_C,
        log10_rho0_max=log10_rho0_max,
        log10_rho_max=log10_rho_max,
        log10_rho1_max=log10_rho1_max,
        log10_g0=log10_g0,
        log10_gm=log10_gm,
    )


def check_inequalities(
    report: FeasibilityReport,
    proposed: dict,
    e1: float = 1.0,
) -> list[dict]:
    """Evaluate each admissibility inequality at a proposed (rho0, rho, g).

    ``proposed`` carries log10 values under keys ``log10_rho0``,
    ``log10_rho``, ``log10_g``.  Slack is the signed log10 headroom of the
    constrained parameter; a check passes when its slack is nonnegative.
    """
    for key in ("log10_rho0", "log10_rho", "log10_g"):
        if key not in proposed:
            raise ConfigError(f"proposed parameters are missing {key}")
    lr0 = float(proposed["log10_rho0"])
    lr = float(proposed["log10_rho"])
    lg = float(proposed["log10_g"])
    eps = 1e-12
    checks = []

    def add(check_id: str, slack: float):
        checks.append(
            {
                "id": check_id,
                "satisfied": bool(slack >= -eps),
                "slack_log10": float(slack),
            }
        )

    add("rho0_window", report.log10_rho0_max - lr0)
    add("rho_window", report.log10_rho_max - lr)
    # the coupling window scales with the proposed first cutoff rho1
    g0_at_proposed = (
        (lr0 + lr)
        + 2.0 * log10(sin(report.nu_floor / 2.0))
        - 4.0
        - log10(report.c_generic)
    )
    add("g_window", g0_at_proposed - lg)
    if report.m is not None and report.nu is not None:
        add(
            "g_cone_window",
            3.0 * log10(sin(report.nu / (2 * report.m))) + lr - 8.0 - lg,
        )
        add(
            "rho_cone_window",
            -3.0 + log10(sin(report.nu / report.m)) + log10(e1) - lr,
        )
    return checks
