"""Carrier (generating) wave functions: exponents, clocks and coordinate maps.

Every solution in the catalog is psi = P * exp(G): a polynomial prefactor P
times a carrier exp(G) whose exponent is a quadratic with diagonal quadratic
part,

    G(r, t) = sum_a m_a(t) x_a^2 + b(t).r + c(t) + phi(t).

Each carrier has a clock s(t), one scalar function of time, and a coordinate
map: image coordinates and an image time (coords, tau), polynomials in r and
s.  Less the spatially constant phase phi(t), its exponent is a window plus
the plane wave i k.r - i hbar k^2 t / 2m at (coords, tau), so m, b and c are
polynomials in s and G is a `Poly3` in (x, y, z, s):

    carrier       clock s        map (coords, tau)        window; phi
    plane wave    t              (r, s)                   0; 0
    Gaussian      1 / beta       (s r, (1 - s) / rate)    -s r^2 / 2 l^2; (3/2) log s
    trap          e^{-i w t}     (s r, (1 - s^2) / 2iw)   -m w r^2 / 2 hbar; -(3/2) i w t
    magnetic      e^{-i w_c t}   cyclotron rotation       -e B (x^2 + y^2) / 4 hbar; -i w_c t / 2

with beta = 1 + i hbar t / (m l^2), rate = i hbar / (m l^2) and w_c = e B / m.
The Klein-Gordon plane wave i k.r - i omega_k t has the plane wave's clock
and map.  The cyclotron rotation is (x_img, y_img, z), with

    x_img = ((s + 1) x + i (s - 1) y) / 2,  y_img = (-i (s - 1) x + (s + 1) y) / 2,

and the image time tau_perp = i (s - 1) / w_c of the x and y plane waves.
Its z part has no plane-wave time: the generator's z phase
-i hbar kz^2 / (2 e B) is constant, and the map holds only for prefactors
linear in z.  The catalog writes each prefactor as an image polynomial under
the same map, so `spec.at(consts, t)` contracts one table compiled per spec
with the powers of s(t), and adds phi(t) to G's constant term.  Since G has no
cross terms, exp(G) on a grid is one factor per axis.  A bare carrier is the
solution with P = 1.
"""

from __future__ import annotations

import cmath

import numpy as np

from .constants import PhysicalConstants
from .polynomials import Poly3

#: A complex value with its first two time derivatives.
TimeOrders = tuple[complex, complex, complex]
Map = tuple[list[Poly3], Poly3]

_S = Poly3.coordinate(3)
_R = tuple(Poly3.coordinate(a) for a in range(3))


def time_clock(t: float) -> tuple[TimeOrders, TimeOrders]:
    """(s, phi) of the plane-wave carriers: s = t and no phase."""
    return (t, 1.0, 0.0), (0.0, 0.0, 0.0)


def lens_clock(consts: PhysicalConstants, width: float, t: float) -> tuple[TimeOrders, TimeOrders]:
    """(s, phi) of the Gaussian carriers: s = 1 / (1 + rate t), phi = (3/2) log s."""
    rate = 1j * consts.hbar / (consts.mass * width * width)
    s = 1.0 / (1.0 + rate * t)
    ds = -rate * s * s
    return (s, ds, -2.0 * rate * s * ds), (1.5 * cmath.log(s), -1.5 * rate * s, -1.5 * rate * ds)


def rotating_clock(omega: float, phase_rate: complex, t: float) -> tuple[TimeOrders, TimeOrders]:
    """(s, phi) with s = e^{-i omega t} and phi = phase_rate * t."""
    s = cmath.exp(-1j * omega * t)
    return (s, -1j * omega * s, -omega * omega * s), (phase_rate * t, phase_rate, 0.0)


def time_map() -> Map:
    return list(_R), _S


def lens_map(consts: PhysicalConstants, width: float) -> Map:
    rate = 1j * consts.hbar / (consts.mass * width * width)
    return [_S * x for x in _R], (1.0 - _S) * (1.0 / rate)


def trap_map(omega: float) -> Map:
    return [_S * x for x in _R], (1.0 - _S * _S) * (1.0 / (2j * omega))


def cyclotron_map(omega_c: float) -> Map:
    x, y, z = _R
    x_img = 0.5 * (_S + 1.0) * x + 0.5j * (_S - 1.0) * y
    y_img = -0.5j * (_S - 1.0) * x + 0.5 * (_S + 1.0) * y
    return [x_img, y_img, z], (1j / omega_c) * (_S - 1.0)


def _plane_wave(k, frequency: float, coords: list[Poly3], tau: Poly3) -> Poly3:
    """i k.coords - i frequency tau."""
    return sum((1j * float(k[a]) * coords[a] for a in range(3)), (-1j * frequency) * tau)


def _free_frequency(consts: PhysicalConstants, k) -> float:
    return 0.5 * consts.hbar * float(np.dot(k, k)) / consts.mass


def _radius2(axes: int) -> Poly3:
    return sum(x * x for x in _R[:axes])


def free_plane_wave(consts: PhysicalConstants, k: np.ndarray) -> Poly3:
    """exp(i k.r - i hbar k^2 t / 2m)."""
    return _plane_wave(k, _free_frequency(consts, k), *time_map())


def gaussian_packet(consts: PhysicalConstants, k: np.ndarray, width: float) -> Poly3:
    """Spreading Gaussian envelope exp(-k^2 l^2/2) beta^{-3/2} exp(-(r - i k l^2)^2 / (2 l^2 beta))."""
    window = (-0.5 / width**2) * _S * _radius2(3)
    coords, tau = lens_map(consts, width)
    return window + _plane_wave(k, _free_frequency(consts, k), coords, tau)


def magnetic_generator(
    consts: PhysicalConstants, k: np.ndarray, field_strength: float
) -> Poly3:
    """Landau ground-state Gaussian times the uniform-field generating phase."""
    eB = consts.charge * field_strength
    k_perp = (float(k[0]), float(k[1]), 0.0)
    kz = float(k[2])
    window = (-eB / (4.0 * consts.hbar)) * _radius2(2)
    coords, tau = cyclotron_map(eB / consts.mass)
    in_plane = _plane_wave(k_perp, _free_frequency(consts, k_perp), coords, tau)
    return window + in_plane + (1j * kz) * _R[2] - 1j * consts.hbar * kz * kz / (2.0 * eB)


def trap_generator(consts: PhysicalConstants, k: np.ndarray, omega: float) -> Poly3:
    """Harmonic-trap ground state times exp(i e^{-i w t}(k.r - hbar k^2 sin(w t)/(2 m w)))."""
    window = (-consts.mass * omega / (2.0 * consts.hbar)) * _radius2(3)
    return window + _plane_wave(k, _free_frequency(consts, k), *trap_map(omega))


def rel_plane_wave(consts: PhysicalConstants, k: np.ndarray) -> Poly3:
    """exp(i k.r - i omega_k t) with the Klein-Gordon dispersion."""
    return _plane_wave(k, rel_dispersion(consts, k), *time_map())


def rel_dispersion(consts: PhysicalConstants, k: np.ndarray) -> float:
    c = consts.light_speed
    mu = consts.mass * c / consts.hbar
    return c * float(np.sqrt(k @ k + mu * mu))
