"""Numerical laboratory for the complex-dilated massless spin-boson model.

Builds truncated-Fock-space matrices of the dilated Hamiltonian on nested
radial grids, runs the infrared multiscale ladder for the ground state and
the resonance, and checks the spectral, resolvent and analyticity
statements that the construction rests on.

The exports load on first use (``_EXPORTS`` names the submodule of each),
so ``import spinboson`` costs nothing and the scipy stack behind
``spectral`` loads only once a name that needs it is asked for.
"""

import importlib

_EXPORTS = {
    "constants": ("FeasibilityReport", "check_inequalities", "compute_constants"),
    "diagnostics": (
        "InvarianceReport",
        "fermi_golden_rule",
        "g_analyticity_check",
        "golden_rule_coefficient",
        "resolvent_cone_bound_check",
        "second_order_eigenvalue",
        "spectrum_cone_check",
        "theta_invariance_scan",
    ),
    "errors": (
        "AssemblyError",
        "BasisSizeError",
        "ConfigError",
        "ContourCollisionError",
        "ConvergenceError",
        "DegeneracyError",
        "SingularShiftError",
        "SpinBosonError",
        "TrackingError",
    ),
    "fock": (
        "FockBasis",
        "ModeSet",
        "OperatorMatrix",
        "basis_dimension",
        "build_field_operator",
        "enumerate_basis",
        "verify_standard_estimates",
    ),
    "geometry": ("Box", "Cone", "cone_contains", "dist_to_cone", "verify_cone_chain"),
    "model": (
        "CutoffLadder",
        "DiscretizedField",
        "ModelConfig",
        "assemble_hamiltonian",
        "coupling_amplitudes",
        "form_factor",
        "interaction_norm_bound",
        "shell_norm_report",
    ),
    "multiscale": (
        "MultiscaleTrace",
        "SpectralCensus",
        "check_p1",
        "check_p2_p4",
        "check_p3",
        "extrapolate_limit",
        "run_ladder",
    ),
    "spectral": (
        "RieszProjector",
        "ShiftedSolver",
        "SpectralRecord",
        "resolvent_norm",
        "resolvent_scan",
        "riesz_rank_one",
        "track_eigenvalue",
    ),
    "threads": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
