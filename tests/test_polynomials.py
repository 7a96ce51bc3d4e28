import cmath

import numpy as np
import pytest

import vortexlines as vl
from vortexlines.polynomials import Poly3

H = 1e-4

#: Constants away from natural units, so that a misplaced hbar, m or e shows.
C2 = vl.PhysicalConstants(hbar=2.0, mass=3.0, charge=0.5, light_speed=5.0)
_WC = C2.charge * 1.3 / C2.mass
_LENS = 1j * C2.hbar / (C2.mass * 1.5**2)

#: Each carrier with its clock s(t) and phase phi(t) in closed form.
CLOCKS = [
    (vl.FreePlaneWave(k=(0.3, -0.2, 0.4)), lambda t: t, lambda t: 0.0),
    (vl.RelPlaneWave(k=(0.3, -0.2, 0.4)), lambda t: t, lambda t: 0.0),
    (
        vl.GaussianPacket(l=1.5),
        lambda t: 1.0 / (1.0 + _LENS * t),
        lambda t: -1.5 * cmath.log(1.0 + _LENS * t),
    ),
    (vl.TrapGenerator(omega=0.9), lambda t: cmath.exp(-0.9j * t), lambda t: -1.35j * t),
    (vl.MagneticGenerator(B=1.3), lambda t: cmath.exp(-1j * _WC * t), lambda t: -0.5j * _WC * t),
]


def numeric_jet(fn, t):
    """Second-order jet of a scalar function by central differences."""
    return (
        fn(t),
        (fn(t + H) - fn(t - H)) / (2 * H),
        (fn(t + H) - 2 * fn(t) + fn(t - H)) / H**2,
    )


def test_carrier_clock_and_phase_jets_match_numeric_derivatives():
    for spec, clock, phase in CLOCKS:
        for t in (-0.7, 0.0, 0.4):
            s_jet, phi_jet = spec.clock(C2, t)
            for jet, fn in ((s_jet, clock), (phi_jet, phase)):
                assert jet[0] == pytest.approx(fn(t), abs=1e-14), (spec, t)
                assert jet == pytest.approx(numeric_jet(fn, t), abs=1e-6), (spec, t)


def test_poly3_clock_coordinate_product_and_diff():
    # s is the fourth coordinate; a term without s keeps three exponents.
    x, y, s = Poly3.coordinate(0), Poly3.coordinate(1), Poly3.coordinate(3)
    p = x * x - (s * y) * (s * y)
    assert p.coeffs == {(2, 0, 0): 1.0, (0, 2, 0, 2): -1.0}
    assert p.degree() == 4
    ds = p.diff(3)
    assert ds.coeffs == {(0, 2, 0, 1): -2.0}
    assert ds.diff(3).coeffs == {(0, 2, 0): -2.0}
    assert x.diff(3).coeffs == {}
    assert ds.diff(1).coeffs == {(0, 1, 0, 1): -4.0}


def test_poly3_scalar_dispatch_from_the_left():
    # A scalar on the left defers to Poly3's reflected operators.
    x, s = Poly3.coordinate(0), Poly3.coordinate(3)
    assert (1.0 - s).coeffs == {(0, 0, 0): 1.0, (0, 0, 0, 1): -1.0}
    assert (2.0 + x).coeffs == {(1, 0, 0): 1.0, (0, 0, 0): 2.0}
    assert (2j * s).coeffs == (s * 2j).coeffs == {(0, 0, 0, 1): 2j}


def test_poly3_differentiation_and_evaluation():
    p = Poly3({(2, 0, 0): 1.0, (0, 1, 1): 2.0j, (0, 0, 0): -3.0})
    pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    vals = p.evaluate(pts)
    assert vals[0] == pytest.approx(1.0 + 12.0j - 3.0)
    dx = p.diff(0)
    assert dx.coeffs == {(1, 0, 0): 2.0}


def test_poly3_merges_and_drops_zero_terms():
    pre = Poly3({(1, 0, 0): 1.0, (0, 2, 0): 0.0}) + Poly3({(1, 0, 0): 2.0})
    assert pre.coeffs == {(1, 0, 0): 3.0}
    assert pre.degree() == 1
    assert (Poly3({(1, 0, 0): 1.0}) + Poly3({(1, 0, 0): -1.0})).coeffs == {}
