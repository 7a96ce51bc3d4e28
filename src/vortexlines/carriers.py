"""Carrier (generating) wave functions, as exponents.

Every solution in the catalog is psi = P * exp(G): a polynomial prefactor P
times a carrier exp(G) whose exponent is a quadratic with diagonal quadratic
part,

    G(r, t) = sum_a m_a(t) x_a^2 + b(t).r + c(t).

Each constructor here returns G as a `JetPoly` (m, b, c held as time-jets),
which gives exact analytic gradients, Laplacians and first/second time
derivatives of the carrier; the catalog's snapshot, `spec.at(consts, t)`,
builds P and G once and evaluates psi and its derivatives from one exp(G).
A bare carrier is the solution with P = 1.  The Gaussian packet is the lens
image of the plane wave: with beta = 1 + i hbar t / (m l^2), its exponent is
the plane wave's at (r / beta, t / beta) plus the window
-r^2 / (2 l^2 beta) - (3/2) log beta.
"""

from __future__ import annotations

import numpy as np

from .constants import PhysicalConstants
from .polynomials import Jet, JetPoly

_ZERO = Jet.const(0.0)


def _quadratic(m_diag, b, c: Jet) -> JetPoly:
    """G = sum_a m_a x_a^2 + b_a x_a + c, leaving out zero coefficients."""
    terms = {(0, 0, 0): c}
    for axis in range(3):
        for power, jet in ((2, m_diag[axis]), (1, b[axis])):
            if jet != _ZERO:
                exps = [0, 0, 0]
                exps[axis] = power
                terms[tuple(exps)] = jet
    return JetPoly(terms)


def free_plane_wave(consts: PhysicalConstants, k: np.ndarray, t: float) -> JetPoly:
    """exp(i k.r - i hbar k^2 t / 2m)."""
    k2 = float(k @ k)
    rate = -1j * consts.hbar * k2 / (2.0 * consts.mass)
    return _quadratic(
        (_ZERO, _ZERO, _ZERO),
        tuple(Jet.const(1j * ka) for ka in k),
        Jet(rate * t, rate, 0.0),
    )


def gaussian_packet(
    consts: PhysicalConstants, k: np.ndarray, width: float, t: float
) -> JetPoly:
    """Spreading Gaussian envelope exp(-k^2 l^2/2) beta^{-3/2} exp(-(r - i k l^2)^2 / (2 l^2 beta))."""
    l2 = width * width
    beta = Jet(1.0 + 1j * consts.hbar * t / (consts.mass * l2),
               1j * consts.hbar / (consts.mass * l2), 0.0)
    inv_beta = beta.inv()
    k2 = float(k @ k)
    m_jet = (-0.5 / l2) * inv_beta
    b = tuple((1j * ka) * inv_beta for ka in k)
    c = (0.5 * k2 * l2) * inv_beta - 1.5 * beta.log() - Jet.const(0.5 * k2 * l2)
    return _quadratic((m_jet, m_jet, m_jet), b, c)


def magnetic_generator(
    consts: PhysicalConstants, k: np.ndarray, field_strength: float, t: float
) -> JetPoly:
    """Landau ground-state Gaussian times the uniform-field generating phase.

    The z phase -i hbar kz^2/(2 e B) is constant in (r, t), so it only
    shifts the overall phase of the solution.
    """
    eB = consts.charge * field_strength
    hbar = consts.hbar
    omega_c = eB / consts.mass
    E = Jet.exp_i(-1j * omega_c, t)
    kx, ky, kz = (float(ka) for ka in k)
    m_perp = Jet.const(-eB / (4.0 * hbar))
    b = (
        (0.5j * kx) * (E + 1.0) + (0.5 * ky) * (E - 1.0),
        (0.5j * ky) * (E + 1.0) - (0.5 * kx) * (E - 1.0),
        Jet.const(1j * kz),
    )
    c = (
        Jet(-0.5j * omega_c * t, -0.5j * omega_c, 0.0)
        + (hbar * (kx * kx + ky * ky) / (2.0 * eB)) * (E - 1.0)
        + Jet.const(-1j * hbar * kz * kz / (2.0 * eB))
    )
    return _quadratic((m_perp, m_perp, _ZERO), b, c)


def trap_generator(
    consts: PhysicalConstants, k: np.ndarray, omega: float, t: float
) -> JetPoly:
    """Harmonic-trap ground state times exp(i e^{-i w t}(k.r - hbar k^2 sin(w t)/(2 m w)))."""
    hbar, mass = consts.hbar, consts.mass
    F = Jet.exp_i(-1j * omega, t)
    sin_jet = Jet(np.sin(omega * t), omega * np.cos(omega * t),
                  -omega * omega * np.sin(omega * t))
    k2 = float(k @ k)
    m_jet = Jet.const(-mass * omega / (2.0 * hbar))
    b = tuple((1j * float(ka)) * F for ka in k)
    c = (
        Jet(-1.5j * omega * t, -1.5j * omega, 0.0)
        + (-1j * hbar * k2 / (2.0 * mass * omega)) * (F * sin_jet)
    )
    return _quadratic((m_jet, m_jet, m_jet), b, c)


def rel_plane_wave(consts: PhysicalConstants, k: np.ndarray, t: float) -> JetPoly:
    """exp(i k.r - i omega_k t) with the Klein-Gordon dispersion."""
    omega_k = rel_dispersion(consts, k)
    return _quadratic(
        (_ZERO, _ZERO, _ZERO),
        tuple(Jet.const(1j * float(ka)) for ka in k),
        Jet(-1j * omega_k * t, -1j * omega_k, 0.0),
    )


def rel_dispersion(consts: PhysicalConstants, k: np.ndarray) -> float:
    c = consts.light_speed
    mu = consts.mass * c / consts.hbar
    return c * float(np.sqrt(k @ k + mu * mu))
