"""The catalog of exact vortex-carrying wave functions.

Every family is psi = P * exp(G): a polynomial prefactor P times a carrier
exp(G) whose exponent is a quadratic with diagonal quadratic part,

    G(r, t) = sum_a m_a(t) x_a^2 + b(t).r + c(t) + phi(t).

Bare carriers are the families with P = 1.  Each family is a tagged spec (one
dataclass); families on the same carrier share a base class, which holds the
carrier's clock s(t), one scalar function of time, its phase phi(t), and its
coordinate map: image coordinates and an image time (coords, tau),
polynomials in r and s.  Less phi, G follows one rule (`SolutionSpec.carrier`):

    G = window + i k.coords - i omega_k tau   at the carrier's (coords, tau),

so m, b and c are polynomials in s and G is a `Poly3` in (x, y, z, s).  The
carriers differ by their clock, map, window and phase only:

    carrier       clock s        map (coords, tau)        window; phi
    plane wave    t              (r, s)                   0; 0
    Gaussian      1 / beta       (s r, (1 - s) / rate)    -s r^2 / 2 l^2; (3/2) log s
    trap          e^{-i w t}     (s r, (1 - s^2) / 2iw)   -m w r^2 / 2 hbar; -(3/2) i w t
    magnetic      e^{-i w_c t}   cyclotron rotation       -e B (x^2 + y^2) / 4 hbar; -i w_c t / 2

with beta = 1 + i hbar t / (m l^2), rate = i hbar / (m l^2), w_c = e B / m
and the dispersion omega_k = hbar k^2 / 2m.  The Klein-Gordon plane wave has
the plane wave's clock and map and its own dispersion omega_k =
c sqrt(k^2 + (m c / hbar)^2).  The cyclotron rotation is (x_img, y_img, z),
with

    x_img = ((s + 1) x + i (s - 1) y) / 2,  y_img = (-i (s - 1) x + (s + 1) y) / 2,

and the image time tau = i (s - 1) / w_c of the x and y plane waves.  The
magnetic carrier is the one exception to the rule: its z plane wave has no
image time, since the generator's z phase -i hbar kz^2 / (2 e B) is
constant, and the map holds only for prefactors linear in z.

A family gives P only as its `image` polynomial of the moving map
coordinates coords - v tau and the map time tau.  The lens map of the
Gaussian takes the plane wave to the Gaussian packet, so each Gaussian family
equals its plane-wave counterpart times exp(-r^2 / 2 l^2) at t = 0; TrapRing
is the trap image of the cylinder ring FreeRingCylinder(R, a=R) displaced by
R along x, and MagneticLine the cyclotron image of a straight line.

Each spec is compiled once into a table over the (x, y, z) terms of P and G
and the powers of s.  `spec.at(consts, t)` contracts it with the power jets
[s^n, d/dt s^n, d2/dt2 s^n] at s(t) and adds phi's jet to G's constant term:
a `Snapshot`, whose columns per term are P, G and their first two time
derivatives.  `snapshot.on(r)` gives psi and its first and second
derivatives in u = (x, y, z, t) at a point set.  Every derivative is exp(G)
times one of two identities,

    d_i psi / exp(G)     = P_i + P G_i,
    d_i d_j psi / exp(G) = P_ij + P_i G_j + P_j G_i + P (G_ij + G_i G_j),

where a t index picks the time order of P and G; the gradient, Hessian,
Laplacian, first/second time derivatives and the time derivative of the
gradient are views of them.  The spatial derivatives come from the table by
exponent shift: all derivatives up to first order are one batched matrix
product whatever the number of terms, the second-order ones one more.
`snapshot.on_grid` reads psi on a grid of three axes from the same table:
since G has no cross terms, exp(G) is one factor per axis, folded into that
axis's monomial rows, so psi is one matrix product and no (points x terms)
array is formed; `snapshot.on_grid_slabs` forms it one slab of x planes at a
time, from one set of axis rows.  `snapshot.on_zero_box` forms that product
only on the box of the blocks where a Taylor bound cannot prove P != 0, and
finds the grid's exact peak |psi| from the same rows: |psi| <= (the bound of
|P|) times the per-axis max of |exp(G)| on a block, so only the blocks whose
bound beats the best value found so far are evaluated, by the same product
batched over the blocks (interval branch-and-bound: Moore, Interval
Analysis, 1966; Hansen, Global Optimization Using Interval Analysis, 1992).
`amplitude` and `gradient` are one-line views of `on`, and `pde_residual`
certifies each family against its governing equation using those analytic
derivatives only.

A family with a closed-form law of motion states it: the ring's circle
(`ring`), the node speed, the annihilation time and the period, each None
on the families without one.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cache, cached_property, lru_cache

import numpy as np

from .constants import PhysicalConstants
from .errors import NoPrefactorError, SpecValidationError
from .polynomials import Exponents, Poly3


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


#: A complex value with its first two time derivatives.
TimeOrders = tuple[complex, complex, complex]
#: A carrier's image coordinates and image time (coords, tau), in (x, y, z, s).
Map = tuple[list[Poly3], Poly3]

_ONE = Poly3.constant(1.0)
_S = Poly3.coordinate(3)
_R = tuple(Poly3.coordinate(a) for a in range(3))


def _plane_wave(k, frequency: float, coords: list[Poly3], tau: Poly3) -> Poly3:
    """i k.coords - i frequency tau."""
    return sum((1j * float(k[a]) * coords[a] for a in range(3)), (-1j * frequency) * tau)


def _rotating_clock(omega: float, phase_rate: complex, t: float) -> tuple[TimeOrders, TimeOrders]:
    """(s, phi) with s = e^{-i omega t} and phi = phase_rate * t."""
    s = cmath.exp(-1j * omega * t)
    return (s, -1j * omega * s, -omega * omega * s), (phase_rate * t, phase_rate, 0.0)


class SolutionSpec:
    """Base class for the tagged union of analytic families: psi = P * exp(G)."""

    equation = "free"  # one of free / trap / magnetic / relativistic
    is_bare = False    # bare carriers have the prefactor P = 1

    def __post_init__(self):
        """Every parameter must be finite (a `WaveVector` checks its own); R, l
        and omega must be > 0, and a and B nonzero."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "k":
                object.__setattr__(self, "k", WaveVector.of(value))
            elif not np.isfinite(value).all():
                raise SpecValidationError(f"{f.name} must be finite, got {value!r}")
            elif f.name in ("R", "l", "omega"):
                _require(value > 0, f"{f.name} must be > 0")
            elif f.name in ("a", "B"):
                _require(value != 0, f"{f.name} must be nonzero")

    def carrier(self, consts: PhysicalConstants) -> Poly3:
        """The carrier exponent G less its phase, in (x, y, z, s): the window
        plus the plane wave i k.coords - i omega_k tau at the carrier's
        coordinate map."""
        wave = _plane_wave(self.k.as_array(), self.frequency(consts), *self.coordinate_map(consts))
        return self.window(consts) + wave

    def window(self, consts: PhysicalConstants) -> Poly3:
        """The part of G that is not a plane wave: none on a plane-wave carrier."""
        return Poly3()

    def frequency(self, consts: PhysicalConstants) -> float:
        """The plane wave's omega_k, by Schroedinger's dispersion hbar k^2 / 2m."""
        k = self.k.as_array()
        return 0.5 * consts.hbar * float(np.dot(k, k)) / consts.mass

    def clock(self, consts: PhysicalConstants, t: float) -> tuple[TimeOrders, TimeOrders]:
        """The carrier's clock s and phase phi at time t, each with its first
        two time derivatives."""
        raise NotImplementedError

    def coordinate_map(self, consts: PhysicalConstants) -> Map:
        """The carrier's image coordinates and time (coords, tau), in
        (x, y, z, s)."""
        raise NotImplementedError

    def image(self, consts, coords: list[Poly3], tau: Poly3) -> Poly3:
        """The prefactor P, a polynomial in the moving image coordinates
        coords - v tau and the image time tau; 1 for a bare carrier."""
        return _ONE

    def polynomials(self, consts: PhysicalConstants) -> tuple[Poly3, Poly3]:
        """P and G less its phase, in (x, y, z, s): P is the image under the
        carrier's coordinate map."""
        coords, tau = self.coordinate_map(consts)
        v = self.classical_velocity(consts)
        moving = [c - float(v[a]) * tau for a, c in enumerate(coords)]
        return self.image(consts, moving, tau), self.carrier(consts)

    def classical_velocity(self, consts: PhysicalConstants) -> np.ndarray:
        return np.zeros(3)

    def length_scale(self, consts: PhysicalConstants) -> float:
        return 1.0

    # The paper's closed-form laws of motion, on the families that have one.

    def ring(self, consts: PhysicalConstants, t: float) -> tuple[np.ndarray, float] | None:
        """The circle of the vortex ring at time t, normal to z: (center,
        radius), with a NaN radius where there is no ring."""
        return None

    def node_speed(self, consts: PhysicalConstants) -> float | None:
        """The speed of every node of the lines."""
        return None

    def annihilation_time(self, consts: PhysicalConstants) -> float | None:
        """t_a of the lines born at -t_a that annihilate at +t_a."""
        return None

    def period(self, consts: PhysicalConstants) -> float | None:
        """The time after which every line is back where it started."""
        return None

    def at(self, consts: PhysicalConstants, t: float) -> "Snapshot":
        """psi = P * exp(G) at time t, ready to evaluate at point sets."""
        if not math.isfinite(t):
            raise SpecValidationError("non-finite position or time")
        terms, coeffs = _compiled(self, consts)
        s, phase = self.clock(consts, t)
        columns = (coeffs @ _power_jets(s, coeffs.shape[-1])).reshape(-1, 6)
        columns[0, _G:] += phase
        return Snapshot(terms, columns)


class _PlaneWaveCarrier(SolutionSpec):
    """Families on the free plane wave exp(i k.r - i hbar k^2 t / 2m): clock
    s = t, map (r, s), no phase.  A family's prefactor is its image
    polynomial of the moving coordinates r - v t and the time t."""

    def clock(self, consts, t):
        return (t, 1.0, 0.0), (0.0, 0.0, 0.0)

    def coordinate_map(self, consts):
        return list(_R), _S

    def classical_velocity(self, consts):
        return consts.hbar * self.k.as_array() / consts.mass

    def length_scale(self, consts):
        return 1.0 / self.k.norm if self.k.norm > 0 else 1.0


class _KleinGordonCarrier(_PlaneWaveCarrier):
    """Families on the Klein-Gordon plane wave exp(i k.r - i omega_k t)."""

    equation = "relativistic"

    def frequency(self, consts):
        """The Klein-Gordon dispersion omega_k = c sqrt(k^2 + (m c / hbar)^2)."""
        c = consts.light_speed
        mu = consts.mass * c / consts.hbar
        k = self.k.as_array()
        return c * float(np.sqrt(k @ k + mu * mu))

    def classical_velocity(self, consts):
        return consts.light_speed**2 * self.k.as_array() / self.frequency(consts)


class _GaussianCarrier(_PlaneWaveCarrier):
    """Families on the spreading Gaussian packet of width l: clock s = 1 /
    beta with beta = 1 + rate t and rate = i hbar / (m l^2), lens map
    (s r, (1 - s) / rate) = (r / beta, t / beta), phase (3/2) log s, window
    -s r^2 / 2 l^2.  The prefactor is the lens image of a plane-wave
    prefactor."""

    def _rate(self, consts):
        return 1j * consts.hbar / (consts.mass * self.l * self.l)

    def clock(self, consts, t):
        rate = self._rate(consts)
        s = 1.0 / (1.0 + rate * t)
        ds = -rate * s * s
        return (s, ds, -2.0 * rate * s * ds), (1.5 * cmath.log(s), -1.5 * rate * s, -1.5 * rate * ds)

    def coordinate_map(self, consts):
        return [_S * x for x in _R], (1.0 - _S) * (1.0 / self._rate(consts))

    def window(self, consts):
        return (-0.5 / self.l**2) * _S * sum(x * x for x in _R)

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

    def image(self, consts, coords, tau):
        x, y, _ = coords
        return math.cos(self.chi) * x + (1j * math.sin(self.chi)) * y


@dataclass(frozen=True)
class FreeRingCylinder(_PlaneWaveCarrier):
    R: float
    a: float
    k: WaveVector = ZERO_K

    def image(self, consts, coords, tau):
        x, y, z = coords
        quantum = (2j * consts.hbar / consts.mass) * tau
        return x * x + y * y - self.R**2 + (1j * self.a) * z + quantum

    def length_scale(self, consts):
        return self.R

    def ring(self, consts, t):
        """Im P = 0 at the height z = -2 hbar t / (m a) above v t, and Re P = 0
        on the radius R there."""
        z = -2.0 * consts.hbar * t / (consts.mass * self.a)
        return self.classical_velocity(consts) * t + (0.0, 0.0, z), self.R

    def node_speed(self, consts):
        """The ring drifts along z at 2 hbar / (m |a|), at k = 0."""
        return None if self.k.norm > 0 else 2.0 * consts.hbar / (consts.mass * abs(self.a))


@dataclass(frozen=True)
class FreeRingSphere(_PlaneWaveCarrier):
    R: float
    a: float
    k: WaveVector = ZERO_K

    def image(self, consts, coords, tau):
        x, y, z = coords
        quantum = (3j * consts.hbar / consts.mass) * tau
        return x * x + y * y + z * z - self.R**2 + (1j * self.a) * z + quantum

    def length_scale(self, consts):
        return self.R

    def ring(self, consts, t):
        """Im P = 0 at the height z = -3 hbar t / (m a) above v t, and Re P = 0
        on the radius sqrt(R^2 - z^2) there, for |t| < t_a."""
        z = -3.0 * consts.hbar * t / (consts.mass * self.a)
        square = self.R**2 - z**2
        radius = math.sqrt(square) if square >= 0.0 else math.nan
        return self.classical_velocity(consts) * t + (0.0, 0.0, z), radius

    def annihilation_time(self, consts):
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

    def image(self, consts, coords, tau):
        x, y, z = coords
        c, s = math.cos(self.varphi), math.sin(self.varphi)
        w_upper = c * x + s * y + 1j * (z + self.a)
        w_lower = c * x - s * y + 1j * (z - self.a)
        return w_upper * w_lower + (-2j * consts.hbar * s * s / consts.mass) * tau

    def length_scale(self, consts):
        return abs(self.a)

    def annihilation_time(self, consts):
        """The antiparallel pair (|sin varphi| = 1) is born at -t_a and
        collides at +t_a; other crossing angles reconnect instead."""
        if abs(math.sin(self.varphi)) > 1.0 - 1e-9:
            return consts.mass * self.a**2 / consts.hbar
        return None


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

    def image(self, consts, coords, tau):
        x, y, _ = coords
        return x - self.x0 + 1j * y

    def node_speed(self, consts):
        """The line moves at hbar |x0| / (m l^2), at k = 0."""
        return None if self.k.norm > 0 else consts.hbar * abs(self.x0) / (consts.mass * self.l**2)


class _MagneticCarrier(SolutionSpec):
    """Families on the Landau ground state in a uniform field B along z:
    clock s = e^{-i w_c t}, map the cyclotron rotation (x_img, y_img, z) with
    image time i (s - 1) / w_c, phase -i w_c t / 2.  Families without a wave
    vector ride the k = 0 carrier."""

    equation = "magnetic"
    k = ZERO_K

    def carrier(self, consts):
        """The Landau window and the in-plane plane wave at the cyclotron map,
        times the z plane wave exp(i kz z - i hbar kz^2 / 2 e B), which has no
        image time: the map holds only for a P linear in z."""
        eB = consts.charge * self.B
        k_perp = (self.k.kx, self.k.ky, 0.0)
        window = (-eB / (4.0 * consts.hbar)) * sum(x * x for x in _R[:2])
        frequency = 0.5 * consts.hbar * float(np.dot(k_perp, k_perp)) / consts.mass
        in_plane = _plane_wave(k_perp, frequency, *self.coordinate_map(consts))
        kz = self.k.kz
        return window + in_plane + (1j * kz) * _R[2] - 1j * consts.hbar * kz * kz / (2.0 * eB)

    def clock(self, consts, t):
        omega_c = consts.cyclotron_frequency(self.B)
        return _rotating_clock(omega_c, -0.5j * omega_c, t)

    def coordinate_map(self, consts):
        x, y, z = _R
        x_img = 0.5 * (_S + 1.0) * x + 0.5j * (_S - 1.0) * y
        y_img = -0.5j * (_S - 1.0) * x + 0.5 * (_S + 1.0) * y
        return [x_img, y_img, z], (1j / consts.cyclotron_frequency(self.B)) * (_S - 1.0)

    def period(self, consts):
        """One cyclotron period 2 pi / w_c, the clock's."""
        return 2.0 * math.pi / consts.cyclotron_frequency(self.B)


@dataclass(frozen=True)
class MagneticGenerator(_MagneticCarrier):
    B: float
    k: WaveVector = ZERO_K
    is_bare = True

    def length_scale(self, consts):
        return math.sqrt(2.0 * consts.hbar / abs(consts.charge * self.B))


@dataclass(frozen=True)
class MagneticLine(_MagneticCarrier):
    """The magnetic image of the straight line y - a + i (-sin(varphi) x +
    cos(varphi) z)."""

    B: float
    a: float
    varphi: float

    def __post_init__(self):
        super().__post_init__()
        _require(abs(math.cos(self.varphi)) > 1e-12, "varphi too close to pi/2")

    def image(self, consts, coords, tau):
        x, y, z = coords
        s, c = math.sin(self.varphi), math.cos(self.varphi)
        return y - self.a + 1j * ((-s) * x + c * z)

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


class _TrapCarrier(SolutionSpec):
    """Families on the ground state of the harmonic trap of frequency omega:
    clock s = e^{-i omega t}, map (s r, (1 - s^2) / (2 i omega)), phase
    -(3/2) i omega t, window -m omega r^2 / 2 hbar.  Families without a wave
    vector ride the k = 0 carrier."""

    equation = "trap"
    k = ZERO_K

    def clock(self, consts, t):
        return _rotating_clock(self.omega, -1.5j * self.omega, t)

    def coordinate_map(self, consts):
        return [_S * x for x in _R], (1.0 - _S * _S) * (1.0 / (2j * self.omega))

    def window(self, consts):
        return (-consts.mass * self.omega / (2.0 * consts.hbar)) * sum(x * x for x in _R)

    def period(self, consts):
        """One trap period 2 pi / omega, the clock's."""
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class TrapGenerator(_TrapCarrier):
    omega: float
    k: WaveVector = ZERO_K
    is_bare = True

    def length_scale(self, consts):
        return math.sqrt(consts.hbar / (consts.mass * self.omega))


@dataclass(frozen=True)
class TrapRing(_TrapCarrier):
    """The trap image of the cylinder ring FreeRingCylinder(R, a=R) displaced
    by R along x: at t = 0 a ring of radius R about (R, 0, 0)."""

    omega: float
    R: float

    def image(self, consts, coords, tau):
        x, y, z = coords
        return FreeRingCylinder(self.R, self.R).image(consts, [x - self.R, y, z], tau)

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

    def image(self, consts, coords, tau):
        return FreeLineVortex(self.chi, self.k).image(consts, coords, tau)


@dataclass(frozen=True)
class RelRingCylinder(_KleinGordonCarrier):
    R: float
    a: float
    k: WaveVector = ZERO_K

    def axial_drift_speed(self, consts) -> float:
        """Quantum axial speed of the node ring (can exceed light_speed)."""
        omega = self.frequency(consts)
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

    This is the square-integrable variant used for propagator validation: the
    lens image of FreeRingCylinder, so at t = 0 it equals the plane-wave
    cylinder ring times exp(-r^2/2l^2).
    """

    R: float
    a: float
    l: float
    k: WaveVector = ZERO_K

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


def _check_points(r) -> np.ndarray:
    points = np.asarray(r, dtype=float)
    if points.shape[-1:] != (3,):
        raise SpecValidationError(
            f"positions must have trailing length 3, got {points.shape}"
        )
    if not np.isfinite(points).all():
        raise SpecValidationError("non-finite position or time")
    return points


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x ** j for j < top, stacked along a new first axis."""
    powers = np.empty((top,) + x.shape)
    powers[0] = 1.0
    for j in range(1, top):
        np.multiply(powers[j - 1], x, out=powers[j])
    return powers


#: Column offsets of P and G in a snapshot's coefficient table.
_P, _G = 0, 3

#: The spatial derivative indices of P and G that the product rules use, in
#: two parts, up to first order and second order: a point set evaluates each
#: part in one batch.  _PART_OF[idx] is (part, position in it).
_SPATIAL = ((), (0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PARTS = (slice(0, 4), slice(4, 10))
_PART_OF = {idx: (0, n) if n < 4 else (1, n - 4) for n, idx in enumerate(_SPATIAL)}
#: How often each index differentiates along x, y and z, shape (10, 1, 3).
_SHIFTS = np.array([[idx.count(a) for a in range(3)] for idx in _SPATIAL])[:, None]
#: beta! of each index as a multi-index beta: 2 for a repeated axis, else 1.
_FACTORIALS = np.maximum(_SHIFTS, 1).prod(axis=-1)

#: Grid cells per axis of the blocks on which `Snapshot.prefactor_bounds`
#: bounds |P| from below.
BLOCK_CELLS = 4


#: A relative margin far beyond the rounding of the block bounds: a block
#: is cleared of zeros only where lead - rest exceeds it times lead + rest,
#: and the |psi| bound of a block is raised by it.  `tracker` flags
#: near-degenerate faces by the same fraction.
DEGENERACY_FLOOR = 1e-9

#: Blocks of the largest |psi| bounds that `Snapshot.on_zero_box` evaluates
#: first, in one batch, before it knows which others the peak clears.
PEAK_FIRST_BLOCKS = 8


def block_edges(n: int) -> np.ndarray:
    """The nodes that bound the blocks along an axis of n nodes: block b
    spans nodes edges[b] to edges[b + 1], BLOCK_CELLS cells, clipped to the
    grid, so an axis of fewer cells than a block is one block."""
    return np.minimum(np.arange(0, n + BLOCK_CELLS - 1, BLOCK_CELLS), n - 1)


def _kept_blocks(lead: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The blocks where P may vanish, from `Snapshot.prefactor_bounds`: all
    but those where Taylor's bound lead - rest exceeds DEGENERACY_FLOOR
    (lead + rest)."""
    return ~(lead - rest > DEGENERACY_FLOOR * (lead + rest))


def _zero_box(kept: np.ndarray, edges: list[np.ndarray]) -> tuple[slice, slice, slice]:
    """The smallest box of grid nodes that holds every kept block, given the
    block edges of each axis: an empty box where no block is kept.  A face
    where psi vanishes lies in kept blocks with both its cells, where the
    tracker's noise count looks."""
    if not kept.any():
        return (slice(0, 0),) * 3
    box = []
    for a, e in enumerate(edges):
        held = np.flatnonzero(kept.any(axis=tuple(b for b in range(3) if b != a)))
        box.append(slice(int(e[held[0]]), int(e[held[-1] + 1]) + 1))
    return tuple(box)


def _amplitude_bounds(rows, edges, lead: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """An upper bound of |psi| on the nodes of each block, shape (B_x, B_y,
    B_z): |P| <= lead + rest on the block (`Snapshot.prefactor_bounds`), and
    |exp(G)| is the product over the axes of |row 0| of the axis rows
    (`Snapshot._axis_rows`), whose max over the block's nodes is taken per
    axis; raised by DEGENERACY_FLOOR for rounding."""
    factors = []
    for r, e in zip(rows, edges):
        carrier = np.abs(r[0])
        cells = np.maximum(carrier[:-1], carrier[1:])
        factors.append(np.maximum.reduceat(cells, e[:-1]))
    fx, fy, fz = factors
    return (lead + rest) * (1.0 + DEGENERACY_FLOOR) * fx[:, None, None] * fy[:, None] * fz


@cache
def _shifted(terms: tuple[Exponents, ...]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(top, exps, rows, weight) of `Snapshot.table` for terms with these
    exponents (exps, shape (T, 3)), with weight[n, k] the factor that
    differentiating term k along index n puts in front of it, shape
    (10, T, 1).  Differentiating shifts the exponents down and multiplies by
    their falling factorials, zero where it removes the term.  Cached, since
    a family has the same terms at every time and parameter value (the 17
    families have 8 distinct sets); the arrays are read-only."""
    exps = np.array(terms, dtype=np.intp).reshape(-1, 3)
    top = int(exps.max(initial=0)) + 1
    weight = np.where(_SHIFTS > 0, exps, 1) * np.where(_SHIFTS > 1, exps - 1, 1)
    rows = np.moveaxis(3 * np.maximum(exps - _SHIFTS, 0) + np.arange(3), -1, 0)
    weight = weight.prod(axis=-1)[..., None]
    exps.flags.writeable = rows.flags.writeable = weight.flags.writeable = False
    return top, exps, rows, weight


#: How many compiled specs `_compiled` keeps: every spec of a run, while
#: `generate_from_polynomial`'s one-off k-stencil carriers pass through.
_COMPILED_SPECS = 64


@lru_cache(maxsize=_COMPILED_SPECS)
def _compiled(
    spec: SolutionSpec, consts: PhysicalConstants
) -> tuple[tuple[Exponents, ...], np.ndarray]:
    """P and G of spec as polynomials in s over their (x, y, z) terms:
    (terms, coeffs) with coeffs[k, f, n] the coefficient of terms[k] * s^n in
    P (f = 0) or G (f = 1).  terms[0] is the constant term, where `at` adds
    G's phase.  The array is read-only."""
    polys = spec.polynomials(consts)
    rows: dict[Exponents, int] = {(0, 0, 0): 0}
    for poly in polys:
        for exps in poly.coeffs:
            rows.setdefault(exps[:3], len(rows))
    top = 1 + max((e[3] for poly in polys for e in poly.coeffs if len(e) > 3), default=0)
    coeffs = np.zeros((len(rows), 2, top), dtype=complex)
    for f, poly in enumerate(polys):
        for exps, c in poly.coeffs.items():
            coeffs[rows[exps[:3]], f, exps[3] if len(exps) > 3 else 0] = c
    coeffs.flags.writeable = False
    return tuple(rows), coeffs


def _power_jets(s: TimeOrders, top: int) -> np.ndarray:
    """[s^n, d/dt s^n, d2/dt2 s^n] for n < top, shape (top, 3), by the
    product rule from s^0 = 1."""
    s0, s1, s2 = s
    jets = [(1.0, 0.0, 0.0)]
    for _ in range(1, top):
        p, dp, d2p = jets[-1]
        jets.append((s0 * p, s1 * p + s0 * dp, s2 * p + 2.0 * s1 * dp + s0 * d2p))
    return np.array(jets, dtype=complex)


class Snapshot:
    """psi = P * exp(G) at one time.

    Point sets and grids read P and G from one table over the terms of
    either: their exponents (T x 3) and coefficients (T x 6), whose columns
    are P, dP/dt, d2P/dt2, G, dG/dt and d2G/dt2.
    """

    def __init__(self, terms: tuple[Exponents, ...], columns: np.ndarray):
        self.terms, self.columns = terms, columns

    @cached_property
    def table(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The table differentiated along each index n of `_SPATIAL`, as
        (top, exps, rows, coeffs): the derivative of the six columns is the
        sum over the terms k of coeffs[n, k] times the product over the axes
        a of powers[rows[a, n, k]], where powers holds x_a ** j in row
        3 * j + a (every exponent is below top)."""
        top, exps, rows, weight = _shifted(self.terms)
        return top, exps, rows, weight * self.columns

    def on(self, r) -> "FieldValues":
        """psi and its derivatives at positions r of shape (..., 3)."""
        return FieldValues(self, _check_points(r))

    def on_grid(self, x, y, z) -> np.ndarray:
        """psi on the grid of three 1-D axes, shape (N_x, N_y, N_z)."""
        return self._psi_on(self._axis_rows((x, y, z)))

    def on_grid_mapped(self, x, y, z, maps) -> np.ndarray:
        """(M_x (x) M_y (x) M_z) psi on the grid of three 1-D axes, for the
        N_a x N_a matrices maps = (M_x, M_y, M_z), shape (N_x, N_y, N_z).

        psi is a sum over P's terms of products of axis rows (`_axis_rows`),
        so each M_a acts on its own axis's rows, rows @ M_a.T, before
        `on_grid`'s product: top (N_x^2 + N_y^2 + N_z^2) + T N_x N_y N_z
        complex multiply-adds, where applying the M_a to psi's grid takes
        (N_x + N_y + N_z) N_x N_y N_z.
        """
        rows = self._axis_rows((x, y, z))
        return self._psi_on([r @ m.T for r, m in zip(rows, maps)])

    def on_grid_slabs(self, x, y, z) -> Callable[[slice], np.ndarray]:
        """psi on slabs of x planes of the grid of three 1-D axes: a function
        of a slice s of the x axis that returns on_grid(x, y, z)[s].  The
        axis rows are formed once, and each slab is `on_grid`'s product on
        the slab's x rows, so no whole-grid array is formed."""
        x_rows, y_rows, z_rows = self._axis_rows((x, y, z))
        return lambda s: self._psi_on([x_rows[:, s], y_rows, z_rows])

    def _axis_rows(self, axes) -> list[np.ndarray]:
        """Per axis a, x_a ** j exp(g_a(x_a)) in row j, shape (top, N_a).

        G has no cross terms, so exp(G) is one factor per axis, exp(c +
        g_x(x)) exp(g_y(y)) exp(g_z(z)) with G's constant c going with x,
        and row 0 is that factor alone.
        """
        top, exps, _, coeffs = self.table
        g = coeffs[0, :, _G]
        if np.any((np.count_nonzero(exps, axis=1) > 1) & (g != 0)):
            raise ValueError("exp of a polynomial with cross terms does not factor by axis")
        axis_of = exps.argmax(axis=1)  # the constant term goes with x
        rows = []
        for a, coord in enumerate(axes):
            powers, mine = _powers(np.asarray(coord, dtype=float), top), axis_of == a
            rows.append(powers * np.exp(g[mine] @ powers[exps[mine, a]]))
        return rows

    @cached_property
    def _prefactor_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The exponents (3, T) and coefficients (T,) of P's nonzero terms."""
        _, exps, _, coeffs = self.table
        p = coeffs[0, :, _P]
        return exps[p != 0].T, p[p != 0]

    def _psi_on(self, rows) -> np.ndarray:
        """psi on the grid of the axis rows (`_axis_rows`), each of shape
        (top, *batch, N_a): one matrix product per batch index over the terms
        of P, the (x, y) monomial plane, shape (T, N_x N_y), with P's
        coefficients times the z rows.  Shape (*batch, N_x, N_y, N_z)."""
        (ex, ey, ez), p = self._prefactor_terms
        x, y, z = rows
        plane = x[ex, ..., :, None] * y[ey, ..., None, :]
        shape = plane.shape[1:] + z.shape[-1:]
        plane = plane.reshape(*plane.shape[:-2], -1)
        z_rows = p.reshape(-1, *[1] * (z.ndim - 1)) * z[ez]
        psi = np.moveaxis(plane, 0, -1) @ np.moveaxis(z_rows, 0, -2)
        return psi.reshape(shape)

    def on_zero_box(self, x, y, z) -> tuple[tuple[slice, slice, slice], np.ndarray, float] | None:
        """psi on the box of the grid of three 1-D axes where P may vanish,
        and the grid's peak |psi|: (box, psi on the box, peak), or None where
        P's degree is beyond `prefactor_bounds`.

        The box is the smallest one of grid nodes that holds every block
        (`block_edges`) that the bound cannot clear of zeros (`_zero_box`),
        and psi is `on_grid`'s product on the box's axis rows.  The peak is
        the exact max of |psi| over every node, found by interval
        branch-and-bound (Moore, Interval Analysis, 1966; Hansen, Global
        Optimization Using Interval Analysis, 1992) on the blocks' bounds
        (`_amplitude_bounds`): from the max over the box, one batched product
        evaluates the PEAK_FIRST_BLOCKS blocks of the largest bounds, and a
        second one every other block whose bound still exceeds the max.
        """
        axes = [np.asarray(c, dtype=float) for c in (x, y, z)]
        bounds = self.prefactor_bounds(*axes)
        if bounds is None:
            return None
        rows = self._axis_rows(axes)
        edges = [block_edges(len(c)) for c in axes]
        box = _zero_box(_kept_blocks(*bounds), edges)
        values = self._psi_on([r[:, s] for r, s in zip(rows, box)])
        peak = float(np.abs(values).max(initial=0.0))
        # Every node of a block inside the box is in values already.
        inside = [(e[:-1] >= s.start) & (e[1:] < s.stop) for e, s in zip(edges, box)]
        above = _amplitude_bounds(rows, edges, *bounds)
        above[np.ix_(*inside)] = 0.0
        above = above.ravel()
        k = min(PEAK_FIRST_BLOCKS, len(above))
        first = np.argpartition(above, -k)[-k:]
        peak = self._block_peak(rows, edges, first[above[first] > peak], peak)
        above[first] = 0.0
        peak = self._block_peak(rows, edges, np.flatnonzero(above > peak), peak)
        return box, values, peak

    def walls_and_peak(self, x, y, z) -> tuple[float, float]:
        """The max |psi| on the six walls of the grid of three 1-D axes, and
        the grid's peak |psi|: `on_zero_box`'s, with no grid formed, or the
        whole grid's where P's degree is beyond `prefactor_bounds`.  Each
        axis's two walls are one `_psi_on` matrix product over both its end
        rows (over one row it would be a matrix-vector product, up to 7e-15
        relative off the sampled grid's walls); these differ from the
        sampled grid's by roundoff still.  A NaN on a wall makes it NaN."""
        found = self.on_zero_box(x, y, z)
        rows = self._axis_rows((x, y, z))
        ends = [[r[:, [0, -1]] if b == a else r for b, r in enumerate(rows)] for a in range(3)]
        wall = np.max([np.abs(self._psi_on(e)).max() for e in ends])
        peak = found[2] if found is not None else np.abs(self._psi_on(rows)).max()
        return float(wall), float(peak)

    def _block_peak(self, rows, edges, blocks, peak: float) -> float:
        """The max of peak and |psi| over the nodes of the given blocks (flat
        indices into the (B_x, B_y, B_z) blocks), from `_psi_on` on each
        block's 5 nodes per axis (a short block repeats its last)."""
        if not len(blocks):
            return peak
        at = np.unravel_index(blocks, [len(e) - 1 for e in edges])
        span = np.arange(BLOCK_CELLS + 1)
        node_rows = [
            r[:, np.minimum(e[b, None] + span, e[b + 1, None])]  # (top, blocks, 5)
            for r, e, b in zip(rows, edges, at)
        ]
        return max(peak, float(np.abs(self._psi_on(node_rows)).max()))

    def prefactor_bounds(self, x, y, z) -> tuple[np.ndarray, np.ndarray] | None:
        """Taylor's lower bound of |P| on each block (`block_edges`) of the
        grid of three 1-D axes: (lead, rest), each shape (B_x, B_y, B_z), with
        lead = |P(c)| and rest the sum over beta != 0 of
        |d^beta P(c) / beta!| h^beta at the block's centre c and half-widths
        h.  |P| >= lead - rest on the closed block (interval exclusion: Moore,
        Interval Analysis, 1966), and |P| <= lead + rest there.  The table's derivatives reach second order,
        which completes the expansion of a P of degree 2 at most, as every
        family's is; a P of higher degree gets None.

        The derivatives are the table's exponent shifts of P.  Those up to
        first order, each times h^beta, are one matrix product per index over
        the (x, y) plane of centres times the z rows, as psi in `on_grid`;
        the second-order ones of a P of degree 2 are constants.
        """
        top, exps, rows, coeffs = self.table
        live = self.columns[:, _P] != 0
        if exps[live].sum(axis=1).max(initial=0) > 2:
            return None
        low, high = _PARTS
        monomials, widths = [], []
        for a, coord in enumerate((x, y, z)):
            edges = block_edges(len(coord))
            lo, hi = coord[edges[:-1]], coord[edges[1:]]
            h = (0.5 * (hi - lo)) ** _SHIFTS[..., a, None]  # h_a ** beta_a, (10, 1, B_a)
            # Row 3 j + a of the table holds x_a ** j.
            monomials.append(_powers(0.5 * (lo + hi), top)[rows[a][low, live] // 3] * h[low])
            widths.append(h[high])
        p = coeffs[:, live, _P] / _FACTORIALS
        plane = monomials[0][..., None] * monomials[1][:, :, None]
        # Real monomials times interleaved (re, im) z rows.
        z_rows = (p[low, :, None] * monomials[2]).view(float)
        values = np.matmul(plane.reshape(*plane.shape[:2], -1).transpose(0, 2, 1), z_rows)
        lead, *first = np.abs(values.view(complex))
        # Their shifted terms are constants: |sum| h^beta, one product per axis.
        second = np.abs(p[high].sum(axis=1))[:, None, None] * widths[0]
        second = (second[..., None] * widths[1][..., None, :]).reshape(len(second), -1)
        second = second.T @ widths[2][:, 0]
        shape = [w.shape[-1] for w in widths]
        return lead.reshape(shape), (sum(first) + second).reshape(shape)


class FieldValues:
    """psi and its derivatives in u = (x, y, z, t) at one point set, each
    formed on first use from one of two product-rule identities on
    P * exp(G), all sharing one exp(G).

    Index 3 of u is t: a t index picks the time order of P and G, a spatial
    index differentiates the polynomial.  All derivative indices up to first
    order, and then all second-order ones, give every table column at once:
    one batch of monomial matrices, differentiated by exponent shift, times
    the snapshot's coefficients.
    """

    def __init__(self, snapshot: Snapshot, points: np.ndarray):
        self.snapshot, self.points = snapshot, points
        self.shape = points.shape[:-1]
        self._derivs: dict = {}
        self._parts: list = [None, None]

    @cached_property
    def _carrier(self) -> np.ndarray:
        return np.exp(self._d(_G, ()))

    def _times_carrier(self, values: np.ndarray) -> np.ndarray:
        """values * exp(G), formed in place: values is a new array."""
        values *= self._carrier
        return values

    def _d(self, f: int, idx: tuple[int, ...]) -> np.ndarray:
        """The derivative of P or G (f = _P or _G) along the sorted indices
        idx of u, at the points."""
        key = (f, idx)
        if key not in self._derivs:
            # idx is sorted, so its t indices come last.
            order = idx.count(3)
            part, n = _PART_OF[idx[:len(idx) - order]]
            self._derivs[key] = self._part(part)[n, :, f + order].reshape(self.shape)
        return self._derivs[key]

    @cached_property
    def _powers(self) -> np.ndarray:
        """x_a ** j at each point, row 3 * j + a for j < top."""
        top, x = self.snapshot.table[0], self.points.reshape(-1, 3).T
        return _powers(x, top).reshape(3 * top, -1)

    def _part(self, k: int) -> np.ndarray:
        """All six columns differentiated along each index of part k of
        `_SPATIAL`, shape (indices, points, 6)."""
        if self._parts[k] is None:
            _, _, rows, coeffs = self.snapshot.table
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
        return self._d(_P, ()) * self._carrier

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


def prefactor(spec: SolutionSpec, consts: PhysicalConstants, t: float) -> Poly3:
    """The complex polynomial P multiplying the carrier at time t."""
    if not math.isfinite(t):
        raise SpecValidationError("non-finite time")
    if spec.is_bare:
        raise NoPrefactorError(
            f"{type(spec).__name__} is a bare carrier and has no vortex prefactor"
        )
    snapshot = spec.at(consts, t)
    return Poly3({e: c for e, c in zip(snapshot.terms, snapshot.columns[:, _P].tolist()) if c})


def _trap_potential(spec, consts, x, y, z):
    return 0.5 * consts.mass * spec.omega**2 * (x * x + y * y + z * z)


def pde_residual(spec: SolutionSpec, consts: PhysicalConstants, r, t: float) -> np.ndarray:
    """Normalized residual of the governing equation, from analytic derivatives."""
    field = spec.at(consts, t).on(r)
    x, y, z = np.moveaxis(field.points, -1, 0)
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
