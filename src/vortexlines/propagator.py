"""Exact evolution of the discrete Hamiltonian: an oracle independent of the
closed forms.

On a periodic box the free and harmonic-trap Hamiltonians are sums of
commuting 1-D parts H_a = D_a + diag(m w^2 x^2 / 2), with D_a the spectral
kinetic operator F^-1 diag(hbar^2 k^2 / 2m) F, a real symmetric circulant
matrix (w = 0 for the free case).  The evolution over a duration t is then
the Kronecker product of three N_a x N_a propagators
U_a = exp(-i H_a t / hbar), each the exact evolution of the discrete system:
there is no time step and no splitting error, whatever t.  With no
potential H_a is diagonal in the DFT basis, so U_a is
F^-1 diag(exp(-i hbar k^2 t / 2m)) F; with the trap it comes from the
eigendecomposition H_a = V diag(E) V^T as V diag(exp(-i E t / hbar)) V^T.
Each U_a is applied along its axis by one matrix product:
(N_x + N_y + N_z) N_x N_y N_z complex multiply-adds per call.
`require_decayed(wall, peak)` refuses data that has not decayed at the box
walls, which the periodic box would wrap round; `require_decayed_above`
decides from a lower bound of the peak where it can.  Dense `evolve` reads
a `grids.SlabbedField`'s grid whole, a read that finds its peak for that
check, and holds the evolved grid as a `SlabbedField`.  A field that is a sum
of products of axis vectors X (x) Y (x) Z evolves without its grid:
(U_x (x) U_y (x) U_z)(X (x) Y (x) Z) = U_x X (x) U_y Y (x) U_z Z (the
separated representation: Beylkin & Mohlenkamp, PNAS 99:10246, 2002), so
`axis_propagators` hands out the three U_a for that, and the evolved field
is a `grids.SlabbedField`, formed slab by slab from the mapped axis rows
where it is read (`Snapshot.on_grid_slabs`).  The L2 error reads either
kind of field slab by slab, at most one slab of each at a time, and its
first pass over a `SlabbedField` is the one that finds its peak and
profiles.  The evolution sees
only t0 data, dense or as axis samples, and the discrete H; never the time
dependence of the analytic formulas, which is what makes the comparison
meaningful.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .constants import NATURAL_UNITS, PhysicalConstants
from .errors import BoundaryDecayError, SpecValidationError
from .grids import FormedField, Grid3, SlabbedField, require_same_grid, require_whole_grid, slabs

BOUNDARY_DECAY = 1e-12


@dataclass(frozen=True)
class PropagatorConfig:
    """Evolution over `duration`.  The box is the evolved field's grid, and
    omega > 0 adds the harmonic trap."""

    duration: float
    omega: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise SpecValidationError("duration must be finite and >= 0")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise SpecValidationError("omega must be finite and >= 0")

    @property
    def hamiltonian(self) -> str:
        return "harmonic" if self.omega > 0 else "free"


def require_decayed(wall: float, peak: float):
    """Refuse initial data whose largest |psi| on the box walls is above
    BOUNDARY_DECAY of its peak |psi|: BoundaryDecayError with the ratio, 0
    for a zero field.  A NaN ratio is refused too."""
    boundary = 0.0 if peak == 0.0 else wall / peak
    if not boundary <= BOUNDARY_DECAY:
        raise BoundaryDecayError(
            f"initial data at the box wall is {boundary:.3e} of the peak "
            f"(limit {BOUNDARY_DECAY:g}); enlarge the box or window the data",
            boundary_amplitude=boundary,
        )


def require_decayed_above(wall: float, low: float, peak: Callable[[], float]):
    """`require_decayed(wall, peak())`, with low at most the peak |psi|: a
    wall within BOUNDARY_DECAY of a positive low is within it of the peak,
    so peak() is called only where it is not, and a refusal reports the
    ratio to the peak."""
    if not (low > 0.0 and wall / low <= BOUNDARY_DECAY):
        require_decayed(wall, peak())


def evolve(
    initial: SlabbedField,
    config: PropagatorConfig,
    consts: PhysicalConstants = NATURAL_UNITS,
) -> SlabbedField:
    """Advance the field by `config.duration` under the discrete Hamiltonian,
    from its grid read whole: the evolved grid is held."""
    require_whole_grid(initial, SlabbedField)
    psi = initial.slab(slice(None))
    faces = (psi[[0, -1]], psi[:, [0, -1]], psi[..., [0, -1]])
    require_decayed(max(float(np.abs(f).max()) for f in faces), initial.peak)
    if config.duration == 0:
        return initial
    u_x, u_y, u_z = axis_propagators(initial.grid, config, consts)
    psi = (u_x @ psi.reshape(len(psi), -1)).reshape(psi.shape)
    evolved = np.matmul(u_y, psi) @ u_z.T
    return SlabbedField(initial.grid, evolved.__getitem__, initial.time + config.duration)


def axis_propagators(
    grid: Grid3, config: PropagatorConfig, consts: PhysicalConstants = NATURAL_UNITS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_x, U_y, U_z): the evolution over `config.duration` is
    U_x (x) U_y (x) U_z."""
    return tuple(_axis_propagator(grid, a, config, consts) for a in range(3))


def _axis_propagator(
    grid: Grid3, axis: int, config: PropagatorConfig, consts: PhysicalConstants
) -> np.ndarray:
    """exp(-i H_a t / hbar) along `axis` as an N x N matrix, t the duration."""
    n = grid.dims[axis]
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing[axis])
    if config.hamiltonian == "free":
        # H_a is diagonal in the DFT basis: one phase per wave number.
        kinetic = np.exp(-1j * consts.hbar * config.duration / (2.0 * consts.mass) * k**2)
        return np.fft.ifft(kinetic[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    # The circulant kinetic matrix: entry (i, j) is its first column's
    # (i - j) mod n; k^2 is even in k, so that column is real.
    column = np.fft.ifft(consts.hbar**2 / (2.0 * consts.mass) * k**2).real
    h = column[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    h[np.diag_indices(n)] += 0.5 * consts.mass * config.omega**2 * grid.axis_coords(axis) ** 2
    energies, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * energies * (config.duration / consts.hbar))) @ vectors.T


def l2_relative_error(a: FormedField, b: FormedField) -> float:
    """Relative L2 distance minimized over one global complex factor.

    min over lambda of ||a - lambda b|| / ||a||, attained at
    lambda = <b, a> / <b, b>; zero when the fields differ only by an overall
    complex constant.  The residual is formed directly rather than as
    sqrt(1 - overlap), which cancels to zero for errors below about 1e-8.
    Both passes run slab by slab (`grids.slabs`), so no whole-grid
    temporary is made, and each pass forms the slabs of a `FormedField`
    as it reads them.
    """
    require_same_grid(a, b)
    parts = slabs(a.grid.dims)
    na2 = nb2 = 0.0
    ba = 0j
    for s in parts:
        aa, bb, overlap = _gram(a.slab(s), b.slab(s))
        na2, nb2, ba = na2 + aa, nb2 + bb, ba + overlap
    if na2 == 0.0 or nb2 == 0.0:
        return 0.0 if na2 == nb2 else 1.0
    # Part by part: numpy divides a complex by a float through the float's
    # reciprocal, so <b, b> / |b|^2 need not come out exactly 1.
    lam = complex(ba.real / nb2, ba.imag / nb2)
    r2 = 0.0
    for s in parts:
        r2 += _residual2(a.slab(s), lam, b.slab(s))
    return math.sqrt(r2 / na2)


def _gram(sa: np.ndarray, sb: np.ndarray) -> tuple[float, float, complex]:
    """(<a, a>, <b, b>, <b, a>) on one slab.  A helper, so that no slab
    outlives the step that reads it."""
    return np.vdot(sa, sa).real, np.vdot(sb, sb).real, np.vdot(sb, sa)


def _residual2(sa: np.ndarray, lam: complex, sb: np.ndarray) -> float:
    """||a - lam b||^2 on one slab."""
    residual = lam * sb
    np.subtract(sa, residual, out=residual)
    return np.vdot(residual, residual).real
