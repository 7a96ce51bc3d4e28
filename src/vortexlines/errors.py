"""Exception types shared across the package."""

#: The text a field, or a search over its nodes, is refused with where a
#: value of psi is not finite.
NON_FINITE = "sampled field contains non-finite values"


class VortexLinesError(Exception):
    """Base class for all package-specific errors."""


class SpecValidationError(VortexLinesError, ValueError):
    """A solution spec or config violates its invariants."""


class NoPrefactorError(VortexLinesError):
    """Requested the vortex prefactor of a bare-carrier solution."""


class DegenerateVortexError(VortexLinesError):
    """Re(w) and Im(w) are parallel: the node is a sheet, not a vortex."""


class NotOnLineError(VortexLinesError):
    """The supplied point is not certified to lie on a vortex line."""


class VortexCoreError(VortexLinesError):
    """Flow velocity requested at (or too close to) a wave-function zero."""


class AmbiguousWindingError(VortexLinesError):
    """Phase unwrapping failed to converge below the increment bound."""


class BoundaryDecayError(VortexLinesError):
    """Initial data does not decay sufficiently at the periodic box wall."""

    def __init__(self, message, boundary_amplitude):
        super().__init__(message)
        self.boundary_amplitude = boundary_amplitude


class GridMismatchError(VortexLinesError, ValueError):
    """Two sampled fields do not share the same grid."""
