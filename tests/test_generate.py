import dataclasses

import numpy as np
import pytest

import vortexlines as vl
from vortexlines.errors import SpecValidationError
from vortexlines.generate import K_STEP_FACTOR, _stencil, fd_weights, generate_from_polynomial
from vortexlines.polynomials import Poly3

C = vl.NATURAL_UNITS
K = vl.WaveVector(0.3, -0.2, 0.4)

# (vortex solution, bare carrier it derives from) for every carrier family.
PAIRS = [
    (vl.FreeLineVortex(chi=0.6, k=K), vl.FreePlaneWave(k=K)),
    (vl.FreeRingCylinder(R=1.3, a=0.8, k=K), vl.FreePlaneWave(k=K)),
    (vl.FreeRingSphere(R=1.5, a=0.7, k=K), vl.FreePlaneWave(k=K)),
    (vl.FreeTwoLinesSymmetric(a=0.8, varphi=0.7, k=K), vl.FreePlaneWave(k=K)),
    (vl.GaussianLineVortex(l=1.5, x0=0.4, k=K), vl.GaussianPacket(l=1.5, k=K)),
    (
        vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5, k=K),
        vl.GaussianPacket(l=2.5, k=K),
    ),
    (vl.MagneticLine(B=1.3, a=0.8, varphi=0.5), vl.MagneticGenerator(B=1.3)),
    (vl.TrapRing(omega=0.9, R=1.2), vl.TrapGenerator(omega=0.9)),
    (vl.RelLineVortex(chi=0.6, k=K), vl.RelPlaneWave(k=K)),
    (vl.RelRingCylinder(R=1.3, a=0.8, k=K), vl.RelPlaneWave(k=K)),
]


def test_fd_weights_match_classic_central_stencils():
    assert np.allclose(fd_weights([-1, 0, 1], 1), [-0.5, 0.0, 0.5])
    assert np.allclose(fd_weights([-1, 0, 1], 2), [1.0, -2.0, 1.0])
    assert np.allclose(
        fd_weights([-2, -1, 0, 1, 2], 1),
        [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12],
    )
    assert np.allclose(
        fd_weights([-2, -1, 0, 1, 2], 2),
        [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12],
    )


def test_fd_weights_rejects_undersized_stencil():
    with pytest.raises(SpecValidationError):
        fd_weights([-1, 0, 1], 3)


@pytest.mark.parametrize(
    "target,carrier", PAIRS, ids=lambda v: type(v).__name__
)
def test_generated_solution_matches_closed_form(target, carrier):
    poly = vl.prefactor(target, C, 0.0)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.5, 1.5, size=(15, 3))
    for t in (0.0, 0.45):
        ref = vl.amplitude(target, C, pts, t)
        gen = generate_from_polynomial(carrier, poly, C, pts, t)
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(gen - ref))) / scale < 1e-5


def test_generation_with_explicit_polynomial():
    # x + i y applied to a plane wave is sqrt(2) times the chi = pi/4 vortex.
    poly = Poly3({(1, 0, 0): 1.0, (0, 1, 0): 1j})
    target = vl.FreeLineVortex(chi=np.pi / 4, k=K)
    pts = np.random.default_rng(23).uniform(-1.0, 1.0, size=(10, 3))
    t = 0.3
    gen = generate_from_polynomial(vl.FreePlaneWave(k=K), poly, C, pts, t)
    ref = np.sqrt(2.0) * vl.amplitude(target, C, pts, t)
    assert float(np.max(np.abs(gen - ref))) < 1e-6


def test_generation_rejects_non_carrier():
    poly = Poly3({(1, 0, 0): 1.0})
    with pytest.raises(SpecValidationError):
        generate_from_polynomial(
            vl.FreeRingCylinder(R=1.0, a=0.5), poly, C, (0.1, 0.2, 0.3), 0.0
        )


@pytest.mark.parametrize(
    "poly",
    [Poly3({(3, 1, 1): 1.0}), Poly3({(-1, 0, 0): 1.0}), Poly3.coordinate(0) * Poly3.coordinate(3)],
    ids=["degree-5", "negative-exponent", "power-of-s"],
)
def test_generation_rejects_unsupported_polynomial(poly):
    with pytest.raises(SpecValidationError):
        generate_from_polynomial(vl.FreePlaneWave(k=K), poly, C, (0.1, 0.2, 0.3), 0.0)


def _nested_loops(carrier, terms, r, t):
    """sum of c (-i d/dk)^exps over the terms of P, applied to the carrier at
    (r, t) with one loop per axis over its central stencil (the unit stencil
    on an axis of exponent 0), z outermost."""
    h = K_STEP_FACTOR / carrier.length_scale(C)
    result = np.zeros(len(r), dtype=complex)
    for exps, coeff in terms.items():
        sx, sy, sz = (_stencil(e) if e else ([0.0], [1.0]) for e in exps)
        total = np.zeros(len(r), dtype=complex)
        for oz, wz in zip(*sz):
            for oy, wy in zip(*sy):
                for ox, wx in zip(*sx):
                    k = carrier.k.as_array() + h * np.array([ox, oy, oz])
                    shifted = dataclasses.replace(carrier, k=vl.WaveVector(*k))
                    total += wz * wy * wx * vl.amplitude(shifted, C, r, t)
        order = sum(exps)
        result += coeff * (-1j) ** order * total / h**order
    return result


@pytest.mark.parametrize(
    "carrier", [vl.FreePlaneWave(k=K), vl.GaussianPacket(l=1.5, k=K)],
    ids=lambda v: type(v).__name__,
)
def test_generation_on_terms_along_several_axes_matches_nested_loops(carrier):
    # The loops run in generate_from_polynomial's order, so the stencil
    # sums, which cancel to h^order of their terms, round alike.
    pts = np.random.default_rng(29).uniform(-1.0, 1.0, size=(12, 3))
    for terms in ({(1, 1, 1): 1.0}, {(2, 0, 1): 1.0},
                  {(1, 1, 1): 0.7 - 0.2j, (2, 0, 1): 1.3j, (0, 2, 0): -0.4}):
        for t in (0.0, 0.35):
            gen = generate_from_polynomial(carrier, Poly3(terms), C, pts, t)
            assert np.array_equal(gen, _nested_loops(carrier, terms, pts, t)), (terms, t)
