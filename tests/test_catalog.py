import math

import numpy as np
import pytest

import vortexlines as vl
from vortexlines.errors import NoPrefactorError, SpecValidationError
from vortexlines.grids import Grid3, sample

C = vl.NATURAL_UNITS
K = vl.WaveVector(0.3, -0.2, 0.4)

ALL_SPECS = [
    vl.FreePlaneWave(k=K),
    vl.FreeLineVortex(chi=0.6, k=K),
    vl.FreeRingCylinder(R=2.0, a=0.7, k=K),
    vl.FreeRingSphere(R=3.0, a=1.0, k=K),
    vl.FreeTwoLines(
        w1=(1.0, 0.5j, 1j), r1=(0.3, 0.0, 0.0),
        w2=(0.2, 1.0, -1j), r2=(-0.3, 0.1, 0.0), k=K,
    ),
    vl.FreeTwoLinesSymmetric(a=1.0, varphi=0.7, k=K),
    vl.GaussianPacket(l=1.5, k=K),
    vl.GaussianLineVortex(l=1.5, x0=0.4, k=K),
    vl.MagneticGenerator(B=1.3),
    vl.MagneticLine(B=1.3, a=0.8, varphi=0.5),
    vl.TrapGenerator(omega=0.9),
    vl.TrapRing(omega=0.9, R=1.2),
    vl.RelPlaneWave(k=K),
    vl.RelLineVortex(chi=0.6, k=K),
    vl.RelRingCylinder(R=2.0, a=0.7, k=K),
    vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5, k=K),
    vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0, k=K),
]


def random_points(n, seed=3, scale=1.5):
    return np.random.default_rng(seed).uniform(-scale, scale, size=(n, 3))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_residual_vanishes(spec):
    pts = random_points(200)
    for t in (-0.8, 0.0, 0.6):
        res = vl.pde_residual(spec, C, pts, t)
        assert float(np.max(res)) < 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_gradient_matches_finite_differences(spec):
    pts = random_points(20, seed=5)
    t = 0.37
    grad = vl.gradient(spec, C, pts, t)
    h = 1e-6
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd = (
            vl.amplitude(spec, C, pts + shift, t)
            - vl.amplitude(spec, C, pts - shift, t)
        ) / (2 * h)
        scale = np.maximum(np.abs(grad[:, axis]), np.abs(fd)) + 1e-12
        assert float(np.max(np.abs(grad[:, axis] - fd) / scale)) < 1e-7
    # The Hessian against differences of the exact gradient, relative to
    # each point's largest entry (off-diagonal entries can vanish).
    hess = spec.at(C, t).on(pts).hess
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
    peak = np.max(np.abs(hess), axis=(1, 2)) + 1e-12
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd = (vl.gradient(spec, C, pts + shift, t) - vl.gradient(spec, C, pts - shift, t)) / (2 * h)
        assert float(np.max(np.abs(hess[:, :, axis] - fd) / peak[:, None])) < 1e-7


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_laplacian_and_time_derivatives_match_finite_differences(spec):
    pts = random_points(10, seed=7)
    t = 0.21
    h = 1e-4
    lap = vl.laplacian(spec, C, pts, t)
    fd_lap = -6.0 * vl.amplitude(spec, C, pts, t)
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd_lap = fd_lap + vl.amplitude(spec, C, pts + shift, t)
        fd_lap = fd_lap + vl.amplitude(spec, C, pts - shift, t)
    fd_lap /= h**2
    scale = np.maximum(np.abs(lap), np.abs(fd_lap)) + 1e-9
    assert float(np.max(np.abs(lap - fd_lap) / scale)) < 1e-5
    hess = spec.at(C, t).on(pts).hess
    trace = np.trace(hess, axis1=-2, axis2=-1)
    peak = np.max(np.abs(hess), axis=(1, 2)) + 1e-300
    assert float(np.max(np.abs(trace - lap) / peak)) < 1e-12

    dt = vl.time_derivative(spec, C, pts, t)
    fd_dt = (vl.amplitude(spec, C, pts, t + h) - vl.amplitude(spec, C, pts, t - h)) / (
        2 * h
    )
    scale = np.maximum(np.abs(dt), np.abs(fd_dt)) + 1e-9
    assert float(np.max(np.abs(dt - fd_dt) / scale)) < 1e-6

    dt_grad = spec.at(C, t).on(pts).dt_grad
    fd_dt_grad = (vl.gradient(spec, C, pts, t + h) - vl.gradient(spec, C, pts, t - h)) / (2 * h)
    peak = np.max(np.maximum(np.abs(dt_grad), np.abs(fd_dt_grad)), axis=1) + 1e-9
    assert float(np.max(np.abs(dt_grad - fd_dt_grad) / peak[:, None])) < 1e-6

    d2t = vl.second_time_derivative(spec, C, pts, t)
    fd_d2t = (
        vl.amplitude(spec, C, pts, t + h)
        - 2 * vl.amplitude(spec, C, pts, t)
        + vl.amplitude(spec, C, pts, t - h)
    ) / h**2
    scale = np.maximum(np.abs(d2t), np.abs(fd_d2t)) + 1e-9
    assert float(np.max(np.abs(d2t - fd_d2t) / scale)) < 1e-5


def test_prefactor_times_carrier_equals_amplitude():
    pts = random_points(50, seed=11)
    t = 0.43
    for spec in ALL_SPECS:
        if spec.is_bare:
            continue
        pre = vl.prefactor(spec, C, t).evaluate(pts)
        carrier = np.exp(spec.carrier(C, t).order(0).evaluate(pts))
        full = vl.amplitude(spec, C, pts, t)
        assert np.allclose(pre * carrier, full, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_point_set_table_matches_the_separable_grid_path(spec):
    # A point set reads P and G from the snapshot's coefficient table; grid
    # axes differentiate each polynomial and evaluate it separably, which
    # serves as the reference here.
    grid = Grid3((-2.1, -1.7, -2.6), (0.55, 0.49, 0.61), (5, 6, 7))
    axes = [
        grid.axis_coords(a).reshape([-1 if b == a else 1 for b in range(3)])
        for a in range(3)
    ]
    for t in (-0.7, 0.0, 0.45):
        snapshot = spec.at(C, t)
        on_points, on_axes = snapshot.on(grid.points()), snapshot.on(*axes)
        for name in ("psi", "grad", "hess", "lap", "dt", "dt_grad", "d2t"):
            got, ref = getattr(on_points, name), getattr(on_axes, name)
            assert got.shape == ref.shape
            peak = float(np.max(np.abs(ref)))
            assert float(np.max(np.abs(got - ref))) <= 1e-14 * peak, (t, name)


def test_grid_sample_equals_pointwise_amplitude():
    # sample() evaluates on the three axis vectors; amplitude() on the array
    # of all grid points.  An offset, anisotropic grid catches a swapped axis.
    grid = Grid3((-2.1, -1.7, -2.6), (0.55, 0.49, 0.61), (6, 7, 9))
    for spec in ALL_SPECS:
        for t in (-0.7, 0.0, 0.45):
            sampled = sample(spec, C, grid, t).values
            pointwise = vl.amplitude(spec, C, grid.points(), t)
            peak = float(np.max(np.abs(pointwise)))
            assert float(np.max(np.abs(sampled - pointwise))) <= 1e-13 * peak, (spec, t)


def test_no_carrier_exponent_has_cross_terms():
    # exp(G) is evaluated as a product of one factor per axis, which holds
    # only while G has no terms in two or more coordinates.
    for spec in ALL_SPECS:
        for t in (-0.7, 0.0, 0.45):
            for exps in spec.carrier(C, t).coeffs:
                assert sum(1 for p in exps if p) <= 1, (spec, exps)


@pytest.mark.parametrize(
    "windowed,plane_wave",
    [
        (
            vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5, k=K),
            vl.FreeRingCylinder(R=1.0, a=0.5, k=K),
        ),
        (
            vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0, k=K),
            vl.FreeTwoLinesSymmetric(a=1.0, varphi=0.7, k=K),
        ),
    ],
    ids=lambda s: type(s).__name__,
)
def test_windowed_family_is_plane_wave_times_window_at_t0(windowed, plane_wave):
    pts = random_points(50, seed=13)
    window = np.exp(-np.sum(pts * pts, axis=-1) / (2.0 * windowed.l**2))
    expected = vl.amplitude(plane_wave, C, pts, 0.0) * window
    got = vl.amplitude(windowed, C, pts, 0.0)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_prefactor_of_bare_carrier_raises():
    with pytest.raises(NoPrefactorError):
        vl.prefactor(vl.FreePlaneWave(k=K), C, 0.0)


def test_amplitude_scalar_point_and_grid_shapes():
    spec = vl.FreeRingCylinder(R=2.0, a=0.7)
    scalar = vl.amplitude(spec, C, (2.0, 0.0, 0.1), 0.0)
    assert np.shape(scalar) == ()
    block = vl.amplitude(spec, C, np.zeros((4, 5, 3)) + 0.3, 0.2)
    assert block.shape == (4, 5)


def test_zero_set_special_values():
    # Cylinder ring: radius R at height z = -2 hbar t / (m a).
    ring = vl.FreeRingCylinder(R=2.0, a=0.7)
    t = 0.31
    z = -2.0 * t / 0.7
    assert abs(vl.amplitude(ring, C, (2.0, 0.0, z), t)) < 1e-12
    # Sphere ring: annihilation instant has its only zero at the origin area.
    sphere = vl.FreeRingSphere(R=3.0, a=1.0)
    assert sphere.annihilation_time(C) == pytest.approx(1.0)
    t_a = sphere.annihilation_time(C)
    r_sq = 3.0**2 - (3.0 * (t_a / 2) / 1.0) ** 2
    assert abs(
        vl.amplitude(sphere, C, (math.sqrt(r_sq), 0.0, -3.0 * (t_a / 2)), t_a / 2)
    ) < 1e-12
    # Antiparallel pair: lines at y = -t, z = +-sqrt(1 - t^2) for a = 1.
    pair = vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2)
    assert pair.annihilation_time(C) == pytest.approx(1.0)
    t = 0.6
    assert abs(
        vl.amplitude(pair, C, (1.7, -t, math.sqrt(1 - t * t)), t)
    ) < 1e-12


def test_magnetic_parametric_locus_lies_on_zero_set():
    spec = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    xs = np.linspace(-2.0, 2.0, 9)
    for t in (0.0, 0.4, 1.9):
        pts = spec.parametric_locus(C, t, xs)
        vals = vl.amplitude(spec, C, pts, t)
        grads = vl.gradient(spec, C, pts, t)
        assert float(np.max(np.abs(vals) / np.linalg.norm(grads, axis=1))) < 1e-12


def test_trap_ring_t0_locus():
    spec = vl.TrapRing(omega=0.9, R=1.2)
    theta = np.linspace(0.0, 2 * math.pi, 17)
    pts = np.stack(
        [1.2 + 1.2 * np.cos(theta), 1.2 * np.sin(theta), np.zeros_like(theta)], axis=-1
    )
    assert float(np.max(np.abs(vl.amplitude(spec, C, pts, 0.0)))) < 1e-12


def test_galilean_transport_of_free_zero_set():
    # Free-family zeros ride along the classical velocity hbar k / m.
    ring = vl.FreeRingCylinder(R=2.0, a=0.7, k=K)
    v = np.array([K.kx, K.ky, K.kz])  # hbar = m = 1
    t = 0.52
    base = np.array([2.0, 0.0, -2.0 * t / 0.7])
    assert abs(vl.amplitude(ring, C, base + v * t, t)) < 1e-12


def test_spec_validation_errors():
    with pytest.raises(SpecValidationError):
        vl.FreeRingCylinder(R=-1.0, a=0.5)
    with pytest.raises(SpecValidationError):
        vl.FreeRingCylinder(R=1.0, a=0.0)
    with pytest.raises(SpecValidationError):
        vl.TrapRing(omega=0.0, R=1.0)
    with pytest.raises(SpecValidationError):
        vl.MagneticLine(B=1.0, a=0.5, varphi=math.pi / 2)  # cos(varphi) ~ 0
    with pytest.raises(SpecValidationError):
        # Degenerate direction: w x conj(w) = 0 is a node sheet, not a vortex.
        vl.FreeTwoLines(
            w1=(1.0, 1.0, 0.0), r1=(0, 0, 0), w2=(1.0, 0.0, 1j), r2=(1, 0, 0)
        )
    with pytest.raises(SpecValidationError):
        vl.PhysicalConstants(hbar=0.0)


def test_relativistic_axial_drift_speed_formula():
    spec = vl.RelRingCylinder(R=2.0, a=0.7, k=vl.WaveVector(0.2, 0.0, 0.0))
    omega = math.sqrt(0.2**2 + 1.0)
    perp = 0.2**2 / omega**2
    assert spec.axial_drift_speed(C) == pytest.approx((2.0 - perp) / (omega * 0.7))
