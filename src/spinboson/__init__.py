"""Numerical laboratory for the complex-dilated massless spin-boson model.

Builds truncated-Fock-space matrices of the dilated Hamiltonian on nested
radial grids, runs the infrared multiscale ladder for the ground state and
the resonance, and checks the spectral, resolvent and analyticity
statements that the construction rests on.
"""

from .constants import FeasibilityReport, check_inequalities, compute_constants
from .diagnostics import (
    InvarianceReport,
    fermi_golden_rule,
    g_analyticity_check,
    golden_rule_coefficient,
    resolvent_cone_bound_check,
    second_order_eigenvalue,
    spectrum_cone_check,
    theta_invariance_scan,
)
from .errors import (
    AssemblyError,
    BasisSizeError,
    ConfigError,
    ContourCollisionError,
    ConvergenceError,
    DegeneracyError,
    SingularShiftError,
    SpinBosonError,
    TrackingError,
)
from .fock import (
    FockBasis,
    ModeSet,
    OperatorMatrix,
    basis_dimension,
    build_field_operator,
    enumerate_basis,
    verify_standard_estimates,
)
from .geometry import (
    Cone,
    Region,
    cone_contains,
    dist_to_cone,
    region_contains,
    verify_cone_chain,
)
from .model import (
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    assemble_hamiltonian,
    coupling_amplitudes,
    form_factor,
    interaction_norm_bound,
    shell_norm_report,
)
from .multiscale import (
    MultiscaleTrace,
    check_p1,
    check_p2_p4,
    check_p3,
    extrapolate_limit,
    run_ladder,
)
from .spectral import (
    RieszProjector,
    ShiftedSolver,
    SpectralRecord,
    resolvent_norm,
    resolvent_scan,
    riesz_rank_one,
    track_eigenvalue,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
