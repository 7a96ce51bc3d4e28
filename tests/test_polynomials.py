import cmath

import numpy as np
import pytest

from vortexlines.polynomials import Jet, JetPoly, Poly3

H = 1e-4


def numeric_jet(fn, t):
    """Second-order jet of a scalar function by central differences."""
    return (
        fn(t),
        (fn(t + H) - fn(t - H)) / (2 * H),
        (fn(t + H) - 2 * fn(t) + fn(t - H)) / H**2,
    )


def assert_jet_close(jet, fn, t, tol=1e-6):
    f, df, d2f = numeric_jet(fn, t)
    assert jet.f == pytest.approx(f, abs=tol)
    assert jet.df == pytest.approx(df, abs=tol)
    assert jet.d2f == pytest.approx(d2f, abs=tol)


def test_jet_exp_i_matches_numeric_derivatives():
    rate = 0.7 - 1.3j
    assert_jet_close(Jet.exp_i(rate, 0.4), lambda t: cmath.exp(rate * t), 0.4)


def test_jet_product_rule():
    t = 0.3
    a = Jet.exp_i(2.0j, t)
    b = Jet(t * t, 2 * t, 2.0)
    assert_jet_close(a * b, lambda s: cmath.exp(2.0j * s) * s * s, t)


def test_jet_inverse_and_exp_and_pow():
    t = 0.25
    base = Jet(1.0 + 0.5j * t, 0.5j, 0.0)
    assert_jet_close(base.inv(), lambda s: 1.0 / (1.0 + 0.5j * s), t)
    assert_jet_close(base.exp(), lambda s: cmath.exp(1.0 + 0.5j * s), t)
    assert_jet_close(base.pow(-1.5), lambda s: (1.0 + 0.5j * s) ** -1.5, t)


def test_jet_arithmetic_with_scalars():
    a = Jet(2.0, 1.0, 0.0)
    assert (a + 1.0).f == 3.0
    assert (1.0 - a).f == -1.0
    assert (3.0 * a).df == 3.0
    assert (-a).f == -2.0


def test_jetpoly_coordinate_product_and_orders():
    x = JetPoly.coordinate(0)
    y = JetPoly.coordinate(1)
    t_jet = Jet(0.5, 1.0, 0.0)  # "t" at t=0.5
    p = (x + t_jet * y) * (x - t_jet * y)  # x^2 - t^2 y^2
    value = p.order(0)
    assert value.coeffs[(2, 0, 0)] == 1.0
    assert value.coeffs[(0, 2, 0)] == pytest.approx(-0.25)
    dt = p.order(1)
    assert dt.coeffs[(0, 2, 0)] == pytest.approx(-1.0)  # d/dt(-t^2) = -2t = -1
    d2t = p.order(2)
    assert d2t.coeffs[(0, 2, 0)] == pytest.approx(-2.0)


def test_jetpoly_scalar_dispatch_from_jet_side():
    # Jet op JetPoly must defer to JetPoly's reflected operators.
    x = JetPoly.coordinate(0)
    j = Jet(2.0, 1.0, 0.0)
    left = j * x
    right = x * j
    assert left.terms.keys() == right.terms.keys()
    assert (j + x).terms[(0, 0, 0)].f == 2.0


def test_poly3_differentiation_and_evaluation():
    p = Poly3({(2, 0, 0): 1.0, (0, 1, 1): 2.0j, (0, 0, 0): -3.0})
    pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    vals = p.evaluate(pts)
    assert vals[0] == pytest.approx(1.0 + 12.0j - 3.0)
    dx = p.diff(0)
    assert dx.coeffs == {(1, 0, 0): 2.0}
    assert p.laplacian().coeffs == {(0, 0, 0): 2.0}


def test_poly3_merges_and_drops_zero_terms():
    pre = Poly3({(1, 0, 0): 1.0, (0, 2, 0): 0.0}) + Poly3({(1, 0, 0): 2.0})
    assert pre.coeffs == {(1, 0, 0): 3.0}
    assert pre.degree() == 1
    assert (Poly3({(1, 0, 0): 1.0}) + Poly3({(1, 0, 0): -1.0})).coeffs == {}


def test_poly3_evaluates_on_broadcast_axes_like_on_points():
    p = Poly3({(2, 0, 0): 1.0, (1, 1, 0): -0.5j, (1, 1, 1): 0.25, (0, 0, 1): 2.0, (0, 0, 0): 1.5})
    x, y, z = np.linspace(-1, 1, 4), np.linspace(0, 2, 5), np.linspace(-3, 0, 6)
    pts = np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)
    on_axes = p.evaluate(x[:, None, None], y[None, :, None], z[None, None, :])
    assert on_axes.shape == (4, 5, 6)
    assert np.allclose(on_axes, p.evaluate(pts), rtol=1e-14, atol=1e-14)


def test_poly3_exp_factors_multiply_to_exp():
    g = Poly3({(2, 0, 0): -0.3, (0, 1, 0): 0.4j, (0, 0, 2): -0.1 + 0.2j, (0, 0, 0): 0.7})
    x, y, z = np.linspace(-1, 1, 4), np.linspace(0, 2, 5), np.linspace(-3, 0, 6)
    axes = (x[:, None, None], y[None, :, None], z[None, None, :])
    product = np.ones((4, 5, 6), dtype=complex)
    for factor in g.exp_factors(*axes):
        product = product * factor
    assert np.allclose(product, np.exp(g.evaluate(*axes)), rtol=1e-14, atol=0.0)
    # On grid axes no factor is full-size, and a constant stays a scalar.
    assert [np.shape(f) for f in g.exp_factors(*axes)] == [(4, 5, 1), (1, 1, 6)]
    assert [np.shape(f) for f in Poly3({(0, 0, 0): 0.5}).exp_factors(*axes)] == [()]
    pts = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, 3)
    assert len(g.exp_factors(pts)) == 1
    with pytest.raises(ValueError):
        Poly3({(1, 1, 0): 1.0}).exp_factors(pts)
