"""Exact quantum vortex-line solutions, local anatomy, tracking, and oracles."""

from .constants import NATURAL_UNITS, PhysicalConstants
from .catalog import (
    FAMILIES,
    FAMILY_BY_NAME,
    FreeLineVortex,
    FreePlaneWave,
    FreeRingCylinder,
    FreeRingSphere,
    FreeTwoLines,
    FreeTwoLinesSymmetric,
    GaussianLineVortex,
    GaussianPacket,
    MagneticGenerator,
    MagneticLine,
    RelLineVortex,
    RelPlaneWave,
    RelRingCylinder,
    SolutionSpec,
    TrapGenerator,
    TrapRing,
    WaveVector,
    WindowedRingCylinder,
    WindowedTwoLinesSymmetric,
    amplitude,
    gradient,
    pde_residual,
    prefactor,
)
from .polynomials import Poly3
from .generate import generate_from_polynomial
from .anatomy import (
    Contour,
    LocalVortexData,
    circulation,
    circulation_from_velocity,
    flow_velocity,
    line_velocity,
    line_velocity_from_laplacian,
    linearized_field,
    w_vector,
    winding_number,
)
from .grids import Grid3, SampledField, SlabbedField, sample
from .tracker import (
    Event,
    EventLog,
    VortexPolyline,
    detect_pierced_faces,
    extract,
    extract_lines,
    match_polylines,
    node_speeds,
    track,
)
from .propagator import PropagatorConfig, evolve, l2_relative_error
from .scenario import CheckResult, ScenarioConfig, ScenarioResult
from .scenario import run as run_scenario
from .scenario import validate as validate_scenario
from .presets import list_presets, preset
from . import errors, serialization

__all__ = [name for name in dir() if not name.startswith("_")]
