"""Exception types shared across the package."""


class SpinBosonError(Exception):
    """Base class for all package errors."""


class BasisSizeError(SpinBosonError):
    """Requested occupation basis exceeds the configured dimension cap."""

    def __init__(self, requested: int, cap: int, n_modes: int, n_max: int):
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"occupation basis with {n_modes} modes and total-number cutoff "
            f"{n_max} has dimension {requested}, above the cap {cap}"
        )


class AssemblyError(SpinBosonError):
    """Operator assembly received structurally inconsistent inputs."""


class ContourCollisionError(SpinBosonError):
    """An eigenvalue sits on or too close to an integration contour."""


class SingularShiftError(SpinBosonError):
    """A shifted solve was requested at a shift on the spectrum."""


class ConvergenceError(SpinBosonError):
    """An iteration reached its step cap without meeting its stopping test."""


class TrackingError(SpinBosonError):
    """Eigenvalue tracking lost its target or found an ambiguous candidate."""


class DegeneracyError(SpinBosonError):
    """A projector that must be rank one reports a different rank."""


class ConfigError(SpinBosonError):
    """A run configuration violates a model invariant."""
