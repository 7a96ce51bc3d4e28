"""The catalog of exact vortex-carrying wave functions.

Every family is psi = P * exp(G): a polynomial prefactor P times a carrier
whose exponent G is a quadratic, both held as polynomials with time-jet
coefficients (`Poly3` of `Jet`s).  Bare carriers are the families with P = 1.
Each family is a tagged spec (one dataclass); families on the same carrier
share a base class:

* plane-wave families write P as the image polynomial of the moving
  coordinates r - v t and the time t;
* Klein-Gordon families do the same on the relativistic plane wave;
* Gaussian-carrier families are lens images of plane-wave prefactors,
  P(r, t) = P_pw(r / beta, t / beta) with beta = 1 + i hbar t / (m l^2); the
  same map takes the plane wave to the Gaussian packet, so each one equals
  its plane-wave counterpart times exp(-r^2 / 2 l^2) at t = 0.

`spec.at(consts, t)` builds P and G once as a `Snapshot`; `snapshot.on(r)`
gives psi and its first and second derivatives in u = (x, y, z, t) at a point
set (or `snapshot.on(x, y, z)` at coordinate arrays that broadcast together).
Every derivative is exp(G) times one of two identities,

    d_i psi / exp(G)     = P_i + P G_i,
    d_i d_j psi / exp(G) = P_ij + P_i G_j + P_j G_i + P (G_ij + G_i G_j),

where a t index picks the jet order of P and G; the gradient, Hessian,
Laplacian, first/second time derivatives and the time derivative of the
gradient are views of them.  The snapshot compiles P and G once into one
table (exponents, and coefficient columns for P, G and their first two time
derivatives).  At a point set, the spatial derivatives come from that table
by exponent shift: all derivatives up to first order are one batched matrix
product whatever the number of terms, the second-order ones one more.  Grid
axes, which would make that table one row per grid point, take the separable
path instead: each derivative is a `Poly3.evaluate` of the plain polynomial,
and since G has no cross terms, exp(G) is kept as one factor per axis and
multiplied into each result in place, so no full-size exp(G) is formed.
`amplitude`, `gradient`, ... are one-line views of it, and `pde_residual`
certifies each family against its governing equation using those analytic
derivatives only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .carriers import (
    free_plane_wave,
    gaussian_packet,
    magnetic_generator,
    rel_dispersion,
    rel_plane_wave,
    trap_generator,
)
from .constants import PhysicalConstants
from .errors import NoPrefactorError, SpecValidationError
from .polynomials import Exponents, Jet, Poly3, coordinates


@dataclass(frozen=True)
class WaveVector:
    kx: float = 0.0
    ky: float = 0.0
    kz: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.kx, self.ky, self.kz)):
            raise SpecValidationError("wave vector components must be finite")

    @staticmethod
    def of(value) -> "WaveVector":
        if isinstance(value, WaveVector):
            return value
        kx, ky, kz = value
        return WaveVector(float(kx), float(ky), float(kz))

    def as_array(self) -> np.ndarray:
        return np.array([self.kx, self.ky, self.kz], dtype=float)

    @property
    def norm(self) -> float:
        return math.hypot(self.kx, self.ky, self.kz)


ZERO_K = WaveVector()


def _require(condition: bool, message: str):
    if not condition:
        raise SpecValidationError(message)


_ONE = Poly3.constant(1.0)


class SolutionSpec:
    """Base class for the tagged union of analytic families: psi = P * exp(G)."""

    equation = "free"  # one of free / trap / magnetic / relativistic
    is_bare = False    # bare carriers have the prefactor P = 1

    def carrier(self, consts: PhysicalConstants, t: float) -> Poly3:
        """The carrier exponent G at time t."""
        raise NotImplementedError

    def prefactor_jets(self, consts: PhysicalConstants, t: float) -> Poly3:
        """The prefactor P at time t."""
        return _ONE

    def classical_velocity(self, consts: PhysicalConstants) -> np.ndarray:
        return np.zeros(3)

    def length_scale(self, consts: PhysicalConstants) -> float:
        return 1.0

    def at(self, consts: PhysicalConstants, t: float) -> "Snapshot":
        """psi = P * exp(G) at time t, ready to evaluate at point sets."""
        if not math.isfinite(t):
            raise SpecValidationError("non-finite position or time")
        return Snapshot(self.prefactor_jets(consts, t), self.carrier(consts, t))


class _PlaneWaveCarrier(SolutionSpec):
    """Families on the free plane wave exp(i k.r - i hbar k^2 t / 2m).

    A family writes its prefactor as `image(consts, coords, tau)`, a
    polynomial in the moving coordinates coords = r - v tau and the time tau.
    """

    def __post_init__(self):
        object.__setattr__(self, "k", WaveVector.of(self.k))

    def carrier(self, consts, t):
        return free_plane_wave(consts, self.k.as_array(), t)

    def image(self, consts, coords: list[Poly3], tau: Jet) -> Poly3:
        return _ONE

    def prefactor_jets(self, consts, t):
        return self._image_at(consts, Jet.const(1.0), Jet(t, 1.0, 0.0))

    def _image_at(self, consts, scale: Jet, tau: Jet) -> Poly3:
        """The image polynomial at coordinates scale * r - v tau."""
        v = self.classical_velocity(consts)
        coords = [scale * Poly3.coordinate(a) - float(v[a]) * tau for a in range(3)]
        return self.image(consts, coords, tau)

    def classical_velocity(self, consts):
        return consts.hbar * self.k.as_array() / consts.mass

    def length_scale(self, consts):
        return 1.0 / self.k.norm if self.k.norm > 0 else 1.0


class _KleinGordonCarrier(_PlaneWaveCarrier):
    """Families on the Klein-Gordon plane wave exp(i k.r - i omega_k t)."""

    equation = "relativistic"

    def carrier(self, consts, t):
        return rel_plane_wave(consts, self.k.as_array(), t)

    def classical_velocity(self, consts):
        karr = self.k.as_array()
        return consts.light_speed**2 * karr / rel_dispersion(consts, karr)


class _GaussianCarrier(_PlaneWaveCarrier):
    """Families on the spreading Gaussian packet of width l.

    The prefactor is the lens image P_pw(r / beta, t / beta) of a plane-wave
    prefactor, beta = 1 + i hbar t / (m l^2).
    """

    def __post_init__(self):
        super().__post_init__()
        _require(self.l > 0, "l must be > 0")

    def carrier(self, consts, t):
        return gaussian_packet(consts, self.k.as_array(), self.l, t)

    def prefactor_jets(self, consts, t):
        rate = 1j * consts.hbar / (consts.mass * self.l**2)
        inv_beta = Jet(1.0 + rate * t, rate, 0.0).inv()
        return self._image_at(consts, inv_beta, Jet(t, 1.0, 0.0) * inv_beta)

    def length_scale(self, consts):
        return self.l


@dataclass(frozen=True)
class FreePlaneWave(_PlaneWaveCarrier):
    k: WaveVector = ZERO_K
    is_bare = True


@dataclass(frozen=True)
class FreeLineVortex(_PlaneWaveCarrier):
    chi: float = math.pi / 4
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(math.isfinite(self.chi), "chi must be finite")

    def image(self, consts, coords, tau):
        x, y, _ = coords
        return math.cos(self.chi) * x + (1j * math.sin(self.chi)) * y


@dataclass(frozen=True)
class FreeRingCylinder(_PlaneWaveCarrier):
    R: float
    a: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(self.R > 0, "R must be > 0")
        _require(self.a != 0, "a must be nonzero")

    def image(self, consts, coords, tau):
        x, y, z = coords
        quantum = (2j * consts.hbar / consts.mass) * tau
        return x * x + y * y - self.R**2 + (1j * self.a) * z + quantum

    def length_scale(self, consts):
        return self.R


@dataclass(frozen=True)
class FreeRingSphere(_PlaneWaveCarrier):
    R: float
    a: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(self.R > 0, "R must be > 0")
        _require(self.a != 0, "a must be nonzero")

    def image(self, consts, coords, tau):
        x, y, z = coords
        quantum = (3j * consts.hbar / consts.mass) * tau
        return x * x + y * y + z * z - self.R**2 + (1j * self.a) * z + quantum

    def length_scale(self, consts):
        return self.R

    def annihilation_time(self, consts) -> float:
        """The ring contracts to a point at +t_a and was born at -t_a."""
        return consts.mass * abs(self.a) * self.R / (3.0 * consts.hbar)


def _complex_vec(value) -> tuple[complex, complex, complex]:
    vx, vy, vz = value
    return (complex(vx), complex(vy), complex(vz))


def _real_vec(value) -> tuple[float, float, float]:
    vx, vy, vz = value
    return (float(vx), float(vy), float(vz))


def _is_degenerate_w(w) -> bool:
    w = np.asarray(w, dtype=complex)
    cross = np.cross(w, np.conj(w))
    return np.linalg.norm(cross) <= 1e-12 * max(np.linalg.norm(w) ** 2, 1e-300)


@dataclass(frozen=True)
class FreeTwoLines(_PlaneWaveCarrier):
    w1: tuple[complex, complex, complex]
    r1: tuple[float, float, float]
    w2: tuple[complex, complex, complex]
    r2: tuple[float, float, float]
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "w1", _complex_vec(self.w1))
        object.__setattr__(self, "w2", _complex_vec(self.w2))
        object.__setattr__(self, "r1", _real_vec(self.r1))
        object.__setattr__(self, "r2", _real_vec(self.r2))
        for name in ("w1", "w2"):
            _require(
                not _is_degenerate_w(getattr(self, name)),
                f"{name} x conj({name}) vanishes: degenerate node sheet",
            )

    def image(self, consts, coords, tau):
        lin1 = sum(
            (self.w1[a] * coords[a] for a in range(3)),
            Poly3.constant(-np.dot(self.w1, self.r1)),
        )
        lin2 = sum(
            (self.w2[a] * coords[a] for a in range(3)),
            Poly3.constant(-np.dot(self.w2, self.r2)),
        )
        dot12 = complex(np.dot(self.w1, self.w2))
        return lin1 * lin2 + (1j * consts.hbar / consts.mass * dot12) * tau

    def length_scale(self, consts):
        sep = np.linalg.norm(np.subtract(self.r1, self.r2))
        return sep if sep > 0 else 1.0


@dataclass(frozen=True)
class FreeTwoLinesSymmetric(_PlaneWaveCarrier):
    a: float
    varphi: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(self.a != 0, "a must be nonzero")
        _require(math.isfinite(self.varphi), "varphi must be finite")

    def image(self, consts, coords, tau):
        x, y, z = coords
        c, s = math.cos(self.varphi), math.sin(self.varphi)
        w_upper = c * x + s * y + 1j * (z + self.a)
        w_lower = c * x - s * y + 1j * (z - self.a)
        return w_upper * w_lower + (-2j * consts.hbar * s * s / consts.mass) * tau

    def length_scale(self, consts):
        return abs(self.a)

    def annihilation_time(self, consts) -> float:
        """For the antiparallel pair (varphi = pi/2) the lines collide at +t_a."""
        return consts.mass * self.a**2 / consts.hbar


@dataclass(frozen=True)
class GaussianPacket(_GaussianCarrier):
    l: float
    k: WaveVector = ZERO_K
    is_bare = True


@dataclass(frozen=True)
class GaussianLineVortex(_GaussianCarrier):
    """Lens image of the plane-wave offset line x - x0 + i y."""

    l: float
    x0: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(math.isfinite(self.x0), "x0 must be finite")

    def image(self, consts, coords, tau):
        x, y, _ = coords
        return x - self.x0 + 1j * y


@dataclass(frozen=True)
class MagneticGenerator(SolutionSpec):
    B: float
    k: WaveVector = ZERO_K
    equation = "magnetic"
    is_bare = True

    def __post_init__(self):
        object.__setattr__(self, "k", WaveVector.of(self.k))
        _require(self.B != 0, "B must be nonzero")

    def carrier(self, consts, t):
        return magnetic_generator(consts, self.k.as_array(), self.B, t)

    def length_scale(self, consts):
        return math.sqrt(2.0 * consts.hbar / abs(consts.charge * self.B))


@dataclass(frozen=True)
class MagneticLine(SolutionSpec):
    B: float
    a: float
    varphi: float
    equation = "magnetic"

    def __post_init__(self):
        _require(self.B != 0, "B must be nonzero")
        _require(self.a != 0, "a must be nonzero")
        _require(abs(math.cos(self.varphi)) > 1e-12, "varphi too close to pi/2")

    def carrier(self, consts, t):
        return magnetic_generator(consts, np.zeros(3), self.B, t)

    def prefactor_jets(self, consts, t):
        omega_c = consts.cyclotron_frequency(self.B)
        E = Jet.exp_i(-1j * omega_c, t)
        x, y, z = (Poly3.coordinate(a) for a in range(3))
        x_img = (0.5 * (E + 1.0)) * x + (0.5j * (E - 1.0)) * y
        y_img = (-0.5j * (E - 1.0)) * x + (0.5 * (E + 1.0)) * y
        s, c = math.sin(self.varphi), math.cos(self.varphi)
        return y_img - self.a + 1j * ((-s) * x_img + c * z)

    def length_scale(self, consts):
        return abs(self.a)

    def parametric_locus(self, consts, t: float, x: np.ndarray) -> np.ndarray:
        """Points (x, y(x), z(x)) on the precessing straight vortex line.

        Derived directly from the zero set of the generating-function
        solution; every returned point satisfies psi = 0 exactly.
        """
        x = np.asarray(x, dtype=float)
        theta = consts.cyclotron_frequency(self.B) * t
        s = math.sin(self.varphi)
        cth, sth = math.cos(theta), math.sin(theta)
        denom = (1.0 - s) + (1.0 + s) * cth
        y = (2.0 * self.a + x * sth * (1.0 + s)) / denom
        z = (2.0 * s * x + self.a * sth * (1.0 + s)) / (math.cos(self.varphi) * denom)
        return np.stack([x, y, z], axis=-1)


@dataclass(frozen=True)
class TrapGenerator(SolutionSpec):
    omega: float
    k: WaveVector = ZERO_K
    equation = "trap"
    is_bare = True

    def __post_init__(self):
        object.__setattr__(self, "k", WaveVector.of(self.k))
        _require(self.omega > 0, "omega must be > 0")

    def carrier(self, consts, t):
        return trap_generator(consts, self.k.as_array(), self.omega, t)

    def length_scale(self, consts):
        return math.sqrt(consts.hbar / (consts.mass * self.omega))


@dataclass(frozen=True)
class TrapRing(SolutionSpec):
    omega: float
    R: float
    equation = "trap"

    def __post_init__(self):
        _require(self.omega > 0, "omega must be > 0")
        _require(self.R > 0, "R must be > 0")

    def carrier(self, consts, t):
        return trap_generator(consts, np.zeros(3), self.omega, t)

    def prefactor_jets(self, consts, t):
        osc_len2 = consts.hbar / (consts.mass * self.omega)
        E = Jet.exp_i(-1j * self.omega, t)
        E2 = E * E
        x, y, z = (Poly3.coordinate(a) for a in range(3))
        return (
            E2 * (x * x + y * y - osc_len2)
            + osc_len2
            - E * (2.0 * self.R) * x
            + (1j * self.R) * E * z
        )

    def length_scale(self, consts):
        return self.R


@dataclass(frozen=True)
class RelPlaneWave(_KleinGordonCarrier):
    k: WaveVector = ZERO_K
    is_bare = True


@dataclass(frozen=True)
class RelLineVortex(_KleinGordonCarrier):
    chi: float = math.pi / 4
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(math.isfinite(self.chi), "chi must be finite")

    def image(self, consts, coords, tau):
        return FreeLineVortex(self.chi, self.k).image(consts, coords, tau)


@dataclass(frozen=True)
class RelRingCylinder(_KleinGordonCarrier):
    R: float
    a: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(self.R > 0, "R must be > 0")
        _require(self.a != 0, "a must be nonzero")

    def axial_drift_speed(self, consts) -> float:
        """Quantum axial speed of the node ring (can exceed light_speed)."""
        karr = self.k.as_array()
        omega = rel_dispersion(consts, karr)
        c2 = consts.light_speed**2
        perp = c2 * (self.k.kx**2 + self.k.ky**2) / omega**2
        return (c2 / omega) * (2.0 - perp) / abs(self.a)

    def image(self, consts, coords, tau):
        # Exact image of x^2 + y^2 - R^2 + i a z under the relativistic
        # generating function; its k=0 limit agrees with the cylinder ring.
        x, y, z = coords
        rate = 1j * abs(self.a) * self.axial_drift_speed(consts)
        return x * x + y * y - self.R**2 + (1j * self.a) * z + rate * tau

    def length_scale(self, consts):
        return self.R


@dataclass(frozen=True)
class WindowedRingCylinder(_GaussianCarrier):
    """Cylinder-plane vortex ring riding on a normalizable Gaussian envelope.

    This is the square-integrable variant used for split-step validation: the
    lens image of FreeRingCylinder, so at t = 0 it equals the plane-wave
    cylinder ring times exp(-r^2/2l^2).
    """

    R: float
    a: float
    l: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(self.R > 0, "R must be > 0")
        _require(self.a != 0, "a must be nonzero")

    def image(self, consts, coords, tau):
        return FreeRingCylinder(self.R, self.a, self.k).image(consts, coords, tau)

    def length_scale(self, consts):
        return self.R


@dataclass(frozen=True)
class WindowedTwoLinesSymmetric(_GaussianCarrier):
    """Symmetric vortex pair riding on a normalizable Gaussian envelope: the
    lens image of FreeTwoLinesSymmetric."""

    a: float
    varphi: float
    l: float
    k: WaveVector = ZERO_K

    def __post_init__(self):
        super().__post_init__()
        _require(self.a != 0, "a must be nonzero")

    def image(self, consts, coords, tau):
        pair = FreeTwoLinesSymmetric(self.a, self.varphi, self.k)
        return pair.image(consts, coords, tau)

    def length_scale(self, consts):
        return abs(self.a)


FAMILIES = (
    FreePlaneWave,
    FreeLineVortex,
    FreeRingCylinder,
    FreeRingSphere,
    FreeTwoLines,
    FreeTwoLinesSymmetric,
    GaussianPacket,
    GaussianLineVortex,
    MagneticGenerator,
    MagneticLine,
    TrapGenerator,
    TrapRing,
    RelPlaneWave,
    RelLineVortex,
    RelRingCylinder,
    WindowedRingCylinder,
    WindowedTwoLinesSymmetric,
)

FAMILY_BY_NAME = {cls.__name__: cls for cls in FAMILIES}

CARRIER_FAMILIES = (
    FreePlaneWave,
    GaussianPacket,
    MagneticGenerator,
    TrapGenerator,
    RelPlaneWave,
)


def _check_coords(r) -> list[np.ndarray]:
    arrays = [np.asarray(c, dtype=float) for c in r]
    if len(arrays) == 1 and arrays[0].shape[-1:] != (3,):
        raise SpecValidationError(
            f"positions must have trailing length 3, got {arrays[0].shape}"
        )
    if not all(np.isfinite(a).all() for a in arrays):
        raise SpecValidationError("non-finite position or time")
    return arrays


#: Column offsets of P and G in a snapshot's coefficient table.
_P, _G = 0, 3
_ZERO = Jet.const(0.0)

#: The spatial derivative indices of P and G that the product rules use, in
#: two parts, up to first order and second order: a point set evaluates each
#: part in one batch.  _PART_OF[idx] is (part, position in it).
_SPATIAL = ((), (0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PARTS = (slice(0, 4), slice(4, 10))
_PART_OF = {idx: (0, n) if n < 4 else (1, n - 4) for n, idx in enumerate(_SPATIAL)}
#: How often each index differentiates along x, y and z, shape (10, 1, 3).
_SHIFTS = np.array([[idx.count(a) for a in range(3)] for idx in _SPATIAL])[:, None]


@cache
def _shifted(terms: tuple[Exponents, ...]) -> tuple[int, np.ndarray, np.ndarray]:
    """(top, rows, weight) of `Snapshot.table` for terms with these exponents,
    with weight[n, k] the factor that differentiating term k along index n
    puts in front of it, shape (10, T, 1).  Differentiating shifts the
    exponents down and multiplies by their falling factorials, zero where it
    removes the term.  Cached, since a family has the same terms at every
    time and parameter value (the 17 families have 8 distinct sets); the
    arrays are read-only."""
    exps = np.array(terms, dtype=np.intp).reshape(-1, 3)
    top = int(exps.max(initial=0)) + 1
    weight = np.where(_SHIFTS > 0, exps, 1) * np.where(_SHIFTS > 1, exps - 1, 1)
    rows = np.moveaxis(np.maximum(exps - _SHIFTS, 0) + top * np.arange(3), -1, 0)
    weight = weight.prod(axis=-1)[..., None]
    rows.flags.writeable = weight.flags.writeable = False
    return top, rows, weight


class Snapshot:
    """psi = P * exp(G) at one time.

    Point sets read P and G from one table over the terms of either: their
    exponents (T x 3) and coefficients (T x 6), whose columns are P, dP/dt,
    d2P/dt2, G, dG/dt and d2G/dt2.  Grid axes read the same columns as plain
    polynomials (`polys`).
    """

    def __init__(self, prefactor_jets: Poly3, exponent: Poly3):
        self._jets = (prefactor_jets, exponent)

    @cached_property
    def polys(self) -> list[Poly3]:
        """The table's columns as plain polynomials."""
        return [f.order(n) for f in self._jets for n in range(3)]

    @cached_property
    def table(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The table differentiated along each index n of `_SPATIAL`, as
        (top, rows, coeffs): the derivative of the six columns is the sum
        over the terms k of coeffs[n, k] times the product over the axes a
        of powers[rows[a, n, k]], where powers holds x_a ** j in row
        top * a + j (every exponent is below top)."""
        p, g = (f.coeffs for f in self._jets)
        terms = tuple(p | g)
        top, rows, weight = _shifted(terms)
        coeffs = np.array([
            (a.f, a.df, a.d2f, b.f, b.df, b.d2f)
            for a, b in ((p.get(e, _ZERO), g.get(e, _ZERO)) for e in terms)
        ], dtype=complex).reshape(-1, 6)
        return top, rows, weight * coeffs

    def on(self, *r) -> "FieldValues":
        """psi and its derivatives at positions r of shape (..., 3), or at
        three coordinate arrays x, y, z that broadcast together (grid axes
        shaped (N, 1, 1), (1, N, 1), (1, 1, N) give the whole grid)."""
        return FieldValues(self, *_check_coords(r))


class FieldValues:
    """psi and its derivatives in u = (x, y, z, t) at one point set, each
    formed on first use from one of two product-rule identities on
    P * exp(G), all sharing one exp(G).

    Index 3 of u is t: a t index picks the jet order of P and G, a spatial
    index differentiates the polynomial.  At a point set, all derivative
    indices up to first order, and then all second-order ones, give every
    table column at once: one batch of monomial matrices, differentiated by
    exponent shift, times the snapshot's coefficients.  On coordinate arrays
    each derivative is a separable `Poly3.evaluate`, which forms no
    (points x terms) array.
    """

    def __init__(self, snapshot: Snapshot, *r):
        self.snapshot, self.coords = snapshot, coordinates(*r)
        self.shape = np.broadcast(*self.coords).shape
        self._points = r[0].reshape(-1, 3) if len(r) == 1 else None
        self._derivs: dict = {}
        self._parts: list = [None, None]

    @cached_property
    def _carrier(self) -> list:
        if self._points is not None:
            return [np.exp(self._d(_G, ()))]
        # G has no cross terms (carriers.py), so exp(G) factors by axis.
        return self.snapshot.polys[_G].exp_factors(*self.coords)

    def _times_carrier(self, values: np.ndarray) -> np.ndarray:
        """values * exp(G), formed in place: values is a new full-size array."""
        for factor in self._carrier:
            values *= factor
        return values

    def _d(self, f: int, idx: tuple[int, ...]) -> np.ndarray:
        """The derivative of P or G (f = _P or _G) along the sorted indices
        idx of u, at the coordinates."""
        key = (f, idx)
        if key not in self._derivs:
            # idx is sorted, so its t indices come last.
            order = idx.count(3)
            column, spatial = f + order, idx[:len(idx) - order]
            if self._points is not None:
                part, n = _PART_OF[spatial]
                value = self._part(part)[n, :, column].reshape(self.shape)
            else:
                poly = self.snapshot.polys[column]
                for axis in spatial:
                    poly = poly.diff(axis)
                value = poly.evaluate(*self.coords)
            self._derivs[key] = value
        return self._derivs[key]

    @cached_property
    def _powers(self) -> np.ndarray:
        """x_a ** j at each point, row top * a + j for j < top."""
        top, x = self.snapshot.table[0], self._points.T
        powers = np.empty((3, top, len(self._points)))
        powers[:, 0] = 1.0
        for j in range(1, top):
            np.multiply(powers[:, j - 1], x, out=powers[:, j])
        return powers.reshape(3 * top, -1)

    def _part(self, k: int) -> np.ndarray:
        """All six columns differentiated along each index of part k of
        `_SPATIAL`, shape (indices, points, 6)."""
        if self._parts[k] is None:
            _, rows, coeffs = self.snapshot.table
            part, powers = _PARTS[k], self._powers
            monomials = powers[rows[0, part]]
            monomials *= powers[rows[1, part]]
            monomials *= powers[rows[2, part]]
            # Real monomials times interleaved (re, im) coefficient columns.
            values = np.matmul(monomials.transpose(0, 2, 1), coeffs[part].view(float))
            self._parts[k] = values.view(complex)
        return self._parts[k]

    def _first(self, i: int) -> np.ndarray:
        """d_i psi / exp(G) = P_i + P G_i."""
        return self._d(_P, (i,)) + self._d(_P, ()) * self._d(_G, (i,))

    def _second(self, i: int, j: int) -> np.ndarray:
        """d_i d_j psi / exp(G) = P_ij + P_i G_j + P_j G_i + P (G_ij + G_i G_j),
        for i <= j."""
        d = self._d
        return (
            d(_P, (i, j)) + d(_P, (i,)) * d(_G, (j,)) + d(_P, (j,)) * d(_G, (i,))
            + d(_P, ()) * (d(_G, (i, j)) + d(_G, (i,)) * d(_G, (j,)))
        )

    @cached_property
    def psi(self) -> np.ndarray:
        # psi is allocated last, after P and the factors of exp(G), and no
        # full-size exp(G) is formed.  Sampling a grid every frame is
        # sensitive to this order: others let the C allocator trim and regrow
        # the heap each frame (measured as minor page faults).
        p, _ = self._d(_P, ()), self._carrier
        return self._times_carrier(p.copy())

    @cached_property
    def grad(self) -> np.ndarray:
        out = np.empty(self.shape + (3,), dtype=complex)
        for a in range(3):
            out[..., a] = self._times_carrier(self._first(a))
        return out

    @cached_property
    def hess(self) -> np.ndarray:
        """Spatial Hessian of psi, shape (..., 3, 3)."""
        out = np.empty(self.shape + (3, 3), dtype=complex)
        for a in range(3):
            for b in range(a, 3):
                out[..., a, b] = out[..., b, a] = self._times_carrier(self._second(a, b))
        return out

    @cached_property
    def lap(self) -> np.ndarray:
        return self._times_carrier(sum(self._second(a, a) for a in range(3)))

    @cached_property
    def dt(self) -> np.ndarray:
        return self._times_carrier(self._first(3))

    @cached_property
    def dt_grad(self) -> np.ndarray:
        """d/dt of grad psi, shape (..., 3)."""
        out = np.empty(self.shape + (3,), dtype=complex)
        for a in range(3):
            out[..., a] = self._times_carrier(self._second(a, 3))
        return out

    @cached_property
    def d2t(self) -> np.ndarray:
        return self._times_carrier(self._second(3, 3))


def amplitude(spec: SolutionSpec, consts: PhysicalConstants, r, t: float) -> np.ndarray:
    """Evaluate psi(r, t); r has shape (..., 3)."""
    return spec.at(consts, t).on(r).psi


def gradient(spec: SolutionSpec, consts: PhysicalConstants, r, t: float) -> np.ndarray:
    """Analytic grad psi, shape (..., 3)."""
    return spec.at(consts, t).on(r).grad


def laplacian(spec: SolutionSpec, consts: PhysicalConstants, r, t: float) -> np.ndarray:
    return spec.at(consts, t).on(r).lap


def time_derivative(spec: SolutionSpec, consts: PhysicalConstants, r, t: float) -> np.ndarray:
    return spec.at(consts, t).on(r).dt


def second_time_derivative(
    spec: SolutionSpec, consts: PhysicalConstants, r, t: float
) -> np.ndarray:
    return spec.at(consts, t).on(r).d2t


def prefactor(spec: SolutionSpec, consts: PhysicalConstants, t: float) -> Poly3:
    """The complex polynomial P multiplying the carrier at time t."""
    if not math.isfinite(t):
        raise SpecValidationError("non-finite time")
    if spec.is_bare:
        raise NoPrefactorError(
            f"{type(spec).__name__} is a bare carrier and has no vortex prefactor"
        )
    return spec.prefactor_jets(consts, t).order(0)


def _trap_potential(spec, consts, x, y, z):
    return 0.5 * consts.mass * spec.omega**2 * (x * x + y * y + z * z)


def pde_residual(spec: SolutionSpec, consts: PhysicalConstants, r, t: float) -> np.ndarray:
    """Normalized residual of the governing equation, from analytic derivatives."""
    field = spec.at(consts, t).on(r)
    x, y, z = field.coords
    hbar, mass = consts.hbar, consts.mass
    if spec.equation == "relativistic":
        c2 = consts.light_speed**2
        terms = [
            field.d2t / c2,
            -field.lap,
            (mass * consts.light_speed / hbar) ** 2 * field.psi,
        ]
    else:
        terms = [
            1j * hbar * field.dt,
            hbar**2 / (2.0 * mass) * field.lap,
        ]
        if spec.equation == "trap":
            terms.append(-_trap_potential(spec, consts, x, y, z) * field.psi)
        elif spec.equation == "magnetic":
            grad = field.grad
            eB = consts.charge * spec.B
            angular = x * grad[..., 1] - y * grad[..., 0]
            # The generating function satisfies the symmetric-gauge equation
            # with angular coefficient -i*hbar*e*B/(2m).
            terms.append((1j * hbar * eB / (2.0 * mass)) * angular)
            terms.append(
                -(eB**2 / (8.0 * mass)) * (x * x + y * y) * field.psi
            )
    total = sum(terms)
    scale = np.maximum.reduce([np.abs(term) for term in terms])
    residual = np.zeros_like(scale)
    mask = scale > 0
    residual[mask] = np.abs(total[mask]) / scale[mask]
    return residual
