"""Split-step spectral propagator: an oracle independent of the closed forms.

Strang splitting on a periodic box — half potential step, full spectral
kinetic step, half potential step — for the free and harmonic-trap
Hamiltonians.  The half potential steps of adjacent steps are fused into one
full step, so `steps` steps take one FFT pair each plus steps + 1 potential
multiplies.  The kinetic phase exp(-i hbar k^2 dt / 2m) and the trap's
potential phase are outer products of three 1-D phase vectors, and the
transforms are `scipy.fft`'s on all cores.  With no potential there is
nothing to split, so one step of length T equals any number of steps that
add up to T.  Everything here sees only sampled data, never the analytic
formulas, which is what makes the comparison meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import NATURAL_UNITS, PhysicalConstants
from .errors import BoundaryDecayError, SpecValidationError
from .grids import Grid3, SampledField, require_same_grid

BOUNDARY_DECAY = 1e-12


@dataclass(frozen=True)
class PropagatorConfig:
    """Periodic-box evolution parameters; splitting is second order (Strang)."""

    grid: Grid3
    dt: float
    steps: int
    hamiltonian: str = "free"  # "free" or "harmonic"
    omega: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0):
            raise SpecValidationError("dt must be > 0")
        if self.steps < 0:
            raise SpecValidationError("steps must be >= 0")
        if self.hamiltonian not in ("free", "harmonic"):
            raise SpecValidationError(
                f"unsupported hamiltonian {self.hamiltonian!r}; use free or harmonic"
            )
        if self.hamiltonian == "harmonic" and not (self.omega > 0):
            raise SpecValidationError("harmonic hamiltonian requires omega > 0")


def _boundary_amplitude(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    walls = []
    for axis in range(3):
        walls.append(np.abs(np.take(values, 0, axis=axis)).max())
        walls.append(np.abs(np.take(values, -1, axis=axis)).max())
    return float(max(walls)) / peak


def evolve(
    initial: SampledField,
    config: PropagatorConfig,
    consts: PhysicalConstants = NATURAL_UNITS,
) -> SampledField:
    """Advance the field by steps * dt with Strang-split spectral stepping."""
    if initial.grid != config.grid:
        raise SpecValidationError("initial field grid does not match config grid")
    boundary = _boundary_amplitude(initial.values)
    if boundary > BOUNDARY_DECAY:
        raise BoundaryDecayError(
            f"initial data at the box wall is {boundary:.3e} of the peak "
            f"(limit {BOUNDARY_DECAY:g}); enlarge the box or window the data",
            boundary_amplitude=boundary,
        )
    if config.steps == 0:
        return initial
    # Imported here: at module level scipy.fft slows every import of the package.
    from scipy import fft

    grid = initial.grid
    kinetic = _separable_phase(
        [
            consts.hbar * config.dt / (2.0 * consts.mass)
            * (2.0 * math.pi * np.fft.fftfreq(grid.dims[a], d=grid.spacing[a])) ** 2
            for a in range(3)
        ]
    )
    if config.hamiltonian == "harmonic":
        # V = m w^2 r^2 / 2; exp(-i V dt / 2 hbar) is the half step.
        rate = 0.25 * consts.mass * config.omega**2 * config.dt / consts.hbar
        half_potential = _separable_phase(
            [rate * grid.axis_coords(a) ** 2 for a in range(3)]
        )
        potential = half_potential * half_potential
        psi = initial.values * half_potential
    else:
        half_potential = potential = None
        psi = initial.values.copy()

    # Adjacent half steps of the potential are fused into one full step.
    for step in range(config.steps):
        psi = fft.fftn(psi, workers=-1, overwrite_x=True)
        psi *= kinetic
        psi = fft.ifftn(psi, workers=-1, overwrite_x=True)
        if potential is not None:
            psi *= potential if step < config.steps - 1 else half_potential
    return SampledField(grid, psi, initial.time + config.steps * config.dt)


def _separable_phase(phases: list[np.ndarray]) -> np.ndarray:
    """exp(-i (q_x + q_y + q_z)) on the grid from the three 1-D phases q_a,
    as the outer product of three 1-D exponentials."""
    x, y, z = (np.exp(-1j * q) for q in phases)
    return (x[:, None] * y[None, :])[:, :, None] * z[None, None, :]


def norm(a: SampledField) -> float:
    """Discrete L2 norm including the cell volume."""
    volume = float(np.prod(a.grid.spacing))
    return math.sqrt(float(np.sum(np.abs(a.values) ** 2)) * volume)


def l2_relative_error(a: SampledField, b: SampledField) -> float:
    """Relative L2 distance minimized over one global complex factor.

    min over lambda of ||a - lambda b|| / ||a||, attained at
    lambda = <b, a> / <b, b>; zero when the fields differ only by an overall
    complex constant.  The residual is formed directly rather than as
    sqrt(1 - overlap), which cancels to zero for errors below about 1e-8.
    """
    require_same_grid(a, b)
    va, vb = a.values.ravel(), b.values.ravel()
    na2 = float(np.vdot(va, va).real)
    nb2 = float(np.vdot(vb, vb).real)
    if na2 == 0.0 or nb2 == 0.0:
        return 0.0 if na2 == nb2 else 1.0
    residual = va - (np.vdot(vb, va) / nb2) * vb
    return math.sqrt(float(np.vdot(residual, residual).real) / na2)
