"""Named ready-to-run scenarios covering every verification suite.

Each preset fixes a solution, a grid, a time window, and the checks that are
meaningful for it.  Time windows are offset from round numbers so that exact
creation/annihilation instants fall strictly between frames, and grids are
offset from the origin so no lattice node sits exactly on a zero line.
"""

from __future__ import annotations

import math

from .catalog import (
    FreeLineVortex,
    FreeRingCylinder,
    FreeRingSphere,
    FreeTwoLinesSymmetric,
    GaussianLineVortex,
    MagneticLine,
    RelRingCylinder,
    TrapRing,
    WaveVector,
    WindowedRingCylinder,
    WindowedTwoLinesSymmetric,
)
from .constants import NATURAL_UNITS
from .errors import SpecValidationError
from .grids import Grid3
from .scenario import ScenarioConfig

_OFFSET = (0.013, 0.011, 0.017)

TWO_PI = 2.0 * math.pi


def _centered_grid(lengths, dims) -> Grid3:
    return Grid3.centered(_OFFSET, lengths, dims)


def _periodic_grid(length: float, n: int) -> Grid3:
    """Grid whose implicit FFT period equals `length` (spacing = length/n)."""
    spacing = length / n
    origin = tuple(-0.5 * length + o for o in _OFFSET)
    return Grid3(origin, (spacing,) * 3, (n,) * 3)


def _superluminal_a(consts, k: WaveVector, target: float) -> float:
    """The a at which the node ring drifts axially at `target`: the drift
    speed is proportional to 1 / |a|."""
    return RelRingCylinder(R=1.0, a=1.0, k=k).axial_drift_speed(consts) / target


def _build_presets() -> dict[str, tuple[str, ScenarioConfig]]:
    consts = NATURAL_UNITS
    presets: dict[str, tuple[str, ScenarioConfig]] = {}

    presets["fig1"] = (
        "Spherical-carrier ring: creation, shrink law, and annihilation",
        ScenarioConfig(
            spec=FreeRingSphere(R=3.0, a=1.0),
            consts=consts,
            grid=_centered_grid(8.0, 48),
            time_range=(-2.03125, 1.96875),
            n_frames=64,
            checks=("residual", "circulation", "locus", "events"),
        ),
    )
    presets["fig2"] = (
        "Cylinder-carrier ring drifting at the quantum speed 2*hbar/(m*a)",
        ScenarioConfig(
            spec=FreeRingCylinder(R=2.0, a=0.5),
            consts=consts,
            grid=_centered_grid(6.0, 48),
            time_range=(-0.503125, 0.496875),
            n_frames=8,
            checks=("residual", "circulation", "locus", "node_speed"),
        ),
    )
    presets["fig3"] = (
        "Crossed line pair at varphi = pi/4: connectivity switches near t = 0",
        ScenarioConfig(
            spec=FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4),
            consts=consts,
            grid=_centered_grid(3.0, 48),
            time_range=(-0.53125, 0.46875),
            n_frames=16,
            checks=("residual", "events"),
        ),
    )
    presets["fig3_parallel"] = (
        "Parallel line pair at varphi = 0: the lines never change",
        ScenarioConfig(
            spec=FreeTwoLinesSymmetric(a=0.4, varphi=0.0),
            consts=consts,
            grid=_centered_grid(3.0, 48),
            time_range=(-0.53125, 0.46875),
            n_frames=16,
            checks=("residual", "events"),
        ),
    )
    omega_c = consts.cyclotron_frequency(1.0)
    presets["fig4"] = (
        "Rectilinear vortex precessing in a uniform magnetic field",
        ScenarioConfig(
            spec=MagneticLine(B=1.0, a=0.8, varphi=0.5),
            consts=consts,
            grid=_centered_grid(6.0, 48),
            time_range=(0.0, TWO_PI / omega_c),
            n_frames=64,
            checks=("residual", "circulation", "locus"),
        ),
    )
    presets["fig5"] = (
        "Vortex ring orbiting in a harmonic trap with the trap period",
        ScenarioConfig(
            spec=TrapRing(omega=1.0, R=1.0),
            consts=consts,
            grid=_centered_grid(8.0, 48),
            time_range=(0.013, 0.013 + TWO_PI),
            n_frames=64,
            checks=("residual", "circulation", "locus"),
        ),
    )
    presets["pair_annihilation"] = (
        "Antiparallel pair: creation and annihilation at -+ m a^2 / hbar",
        ScenarioConfig(
            spec=FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2),
            consts=consts,
            grid=_centered_grid(8.0, 48),
            time_range=(-2.03125, 1.96875),
            n_frames=64,
            checks=("residual", "circulation", "events"),
        ),
    )
    presets["anatomy"] = (
        "Gaussian-packet line vortex: flow anatomy and drift speed",
        ScenarioConfig(
            spec=GaussianLineVortex(l=1.5, x0=0.4),
            consts=consts,
            grid=_centered_grid(6.0, 48),
            time_range=(-0.53125, 0.46875),
            n_frames=8,
            checks=("residual", "circulation", "node_speed"),
        ),
    )
    presets["generation"] = (
        "Numeric k-differentiation of carriers vs the closed-form catalog",
        ScenarioConfig(
            spec=FreeLineVortex(chi=math.pi / 4, k=WaveVector(0.3, -0.2, 0.4)),
            consts=consts,
            grid=_centered_grid(4.0, 24),
            time_range=(-0.203125, 0.196875),
            n_frames=4,
            checks=("residual", "generation"),
        ),
    )
    k_rel = WaveVector(0.2, 0.0, 0.0)
    presets["relativistic"] = (
        "Klein-Gordon ring whose node ring drifts faster than light",
        ScenarioConfig(
            spec=RelRingCylinder(
                R=2.0, a=_superluminal_a(consts, k_rel, 1.5), k=k_rel
            ),
            consts=consts,
            grid=_centered_grid(6.0, 48),
            time_range=(0.011, 0.211),
            n_frames=4,
            checks=("residual", "circulation", "node_speed"),
        ),
    )
    presets["oracle_ring"] = (
        "Windowed cylinder ring vs the split-step propagator",
        ScenarioConfig(
            spec=WindowedRingCylinder(R=1.0, a=0.5, l=2.5),
            consts=consts,
            grid=_periodic_grid(48.0, 96),
            time_range=(0.0, 0.5),
            n_frames=4,
            checks=("residual", "oracle"),
        ),
    )
    presets["oracle_pair"] = (
        "Windowed antiparallel pair vs the split-step propagator",
        ScenarioConfig(
            spec=WindowedTwoLinesSymmetric(a=1.0, varphi=math.pi / 2, l=4.0),
            consts=consts,
            grid=_periodic_grid(66.0, 96),
            time_range=(0.0, 0.5),
            n_frames=4,
            checks=("residual", "oracle"),
        ),
    )
    return presets


_PRESETS = _build_presets()


def list_presets() -> list[tuple[str, str]]:
    """All preset names with their one-line descriptions."""
    return [(name, desc) for name, (desc, _) in _PRESETS.items()]


def preset(name: str) -> ScenarioConfig:
    if name not in _PRESETS:
        known = ", ".join(_PRESETS)
        raise SpecValidationError(f"unknown preset {name!r}; known presets: {known}")
    return _PRESETS[name][1]
