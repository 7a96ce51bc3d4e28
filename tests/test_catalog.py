import math

import numpy as np
import pytest

import vortexlines as vl
from vortexlines.catalog import _G, _P, _SPATIAL, Snapshot
from vortexlines.errors import NoPrefactorError, SpecValidationError
from vortexlines.grids import Grid3, sample
from vortexlines.polynomials import Poly3

C = vl.NATURAL_UNITS
#: Constants away from natural units, so that a misplaced hbar, m or e shows.
C2 = vl.PhysicalConstants(hbar=2.0, mass=3.0, charge=0.5, light_speed=5.0)
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


def at_clock(poly, s):
    """A polynomial in (x, y, z, s) at the clock value s, in (x, y, z)."""
    out = Poly3()
    for exps, c in poly.coeffs.items():
        out = out + Poly3({exps[:3]: c * s ** (exps[3] if len(exps) > 3 else 0)})
    return out


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
        (s, _, _), (phase, _, _) = spec.clock(C, t)
        carrier = np.exp(at_clock(spec.carrier(C), s).evaluate(pts) + phase)
        full = vl.amplitude(spec, C, pts, t)
        assert np.allclose(pre * carrier, full, rtol=1e-12, atol=1e-12)


#: An offset, anisotropic grid, so that a swapped axis shows.
SMALL_GRID = Grid3((-2.1, -1.7, -2.6), (0.55, 0.49, 0.61), (5, 6, 7))


def time_orders(poly, s_jet):
    """poly(x, y, z, s(t)) and its first two time derivatives, in (x, y, z),
    by the chain rule on Poly3.diff along s."""
    s, ds, d2s = s_jet
    d1, d2 = poly.diff(3), poly.diff(3).diff(3)
    return (
        at_clock(poly, s),
        at_clock(d1, s) * ds,
        at_clock(d2, s) * (ds * ds) + at_clock(d1, s) * d2s,
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_table_columns_match_the_differentiated_polynomials(spec):
    # Every column of the snapshot's table (P and G, time orders 0-2) along
    # every spatial index the product rules use, differentiated by exponent
    # shift, against the compiled polynomials in (x, y, z, s) differentiated
    # with Poly3.diff along x, y, z and s (by the chain rule at s(t)), plus
    # G's phase, and summed term by term.
    points = SMALL_GRID.points()
    prefactor, exponent = spec.polynomials(C)
    for t in (-0.7, 0.0, 0.45):
        field = spec.at(C, t).on(points)
        s_jet, phase = spec.clock(C, t)
        for f, full in ((_P, prefactor), (_G, exponent)):
            for order, poly_t in enumerate(time_orders(full, s_jet)):
                if f == _G:
                    poly_t = poly_t + phase[order]
                for idx in _SPATIAL:
                    poly = poly_t
                    for axis in idx:
                        poly = poly.diff(axis)
                    ref = poly.evaluate(points)
                    got = field._d(f, idx + (3,) * order)
                    assert got.shape == ref.shape
                    peak = float(np.max(np.abs(ref)))
                    assert float(np.max(np.abs(got - ref))) <= 1e-14 * peak, (t, f, order, idx)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_point_set_table_matches_the_separable_grid_path(spec):
    # Both read the snapshot's table: a point set as a (points x terms)
    # monomial matrix, a grid as per-axis monomial rows with one exp(G)
    # factor folded into each (`on_grid`).
    axes = [SMALL_GRID.axis_coords(a) for a in range(3)]
    for t in (-0.7, 0.0, 0.45):
        snapshot = spec.at(C, t)
        on_grid, on_points = snapshot.on_grid(*axes), snapshot.on(SMALL_GRID.points()).psi
        assert on_grid.shape == SMALL_GRID.dims
        peak = float(np.max(np.abs(on_points)))
        assert float(np.max(np.abs(on_grid - on_points))) <= 1e-14 * peak, t


def test_on_grid_rejects_a_carrier_with_cross_terms():
    # exp(G) factors by axis only while G has no term in two coordinates.
    x = np.linspace(-1.0, 1.0, 4)
    columns = np.zeros((2, 6), dtype=complex)
    columns[0, _P] = columns[1, _G] = 1.0  # P = 1, G = x y
    with pytest.raises(ValueError):
        Snapshot(((0, 0, 0), (1, 1, 0)), columns).on_grid(x, x, x)


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
    # G is a polynomial in (x, y, z) and the clock s, the fourth exponent.
    for spec in ALL_SPECS:
        for exps in spec.carrier(C).coeffs:
            assert sum(1 for p in exps[:3] if p) <= 1, (spec, exps)


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


@pytest.mark.parametrize("t", [-0.7, 0.0, 0.45])
def test_trap_ring_and_magnetic_line_prefactors_match_the_hand_derived_formulas(t):
    # The two families that were once written out by hand, against their
    # images under the trap and cyclotron maps.
    pts = random_points(50, seed=19)
    x, y, z = pts.T
    ring = vl.TrapRing(omega=0.9, R=1.2)
    E = np.exp(-1j * ring.omega * t)
    l2 = C2.hbar / (C2.mass * ring.omega)
    R = ring.R
    expected = E * E * (x * x + y * y - l2) + l2 - 2.0 * R * E * x + 1j * R * E * z
    line = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    E = np.exp(-1j * C2.cyclotron_frequency(line.B) * t)
    x_img = 0.5 * (E + 1.0) * x + 0.5j * (E - 1.0) * y
    y_img = -0.5j * (E - 1.0) * x + 0.5 * (E + 1.0) * y
    phi = line.varphi
    expected_line = y_img - line.a + 1j * (-math.sin(phi) * x_img + math.cos(phi) * z)
    for spec, ref in ((ring, expected), (line, expected_line)):
        got = vl.prefactor(spec, C2, t).evaluate(pts)
        peak = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(got - ref))) <= 1e-14 * peak, spec


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
