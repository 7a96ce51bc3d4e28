import math
import warnings

import numpy as np
import pytest
from scipy.special import i1

import vortexlines as vl
from vortexlines.anatomy import Contour, _line_integral, linearized_field, min_norm_solve
from vortexlines.errors import (
    AmbiguousWindingError,
    DegenerateVortexError,
    NotOnLineError,
    SpecValidationError,
    VortexCoreError,
)

C = vl.NATURAL_UNITS
QUANTUM = 2.0 * math.pi  # hbar = mass = 1


def test_contour_validation():
    with pytest.raises(SpecValidationError):
        Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=0.0)
    with pytest.raises(SpecValidationError):
        Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=1.0, samples=8)
    with pytest.raises(SpecValidationError):
        Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=1.0, samples=33)
    with pytest.raises(SpecValidationError):
        Contour(center=(0, 0, 0), normal=(0, 0, 0), radius=1.0)
    c = Contour(center=(0, 0, 0), normal=(0, 0, 2), radius=1.0)
    assert c.normal == (0.0, 0.0, 1.0)
    pts = c.points()
    assert pts.shape == (65, 3)
    assert np.allclose(pts[0], pts[-1])


@pytest.mark.parametrize("changed", [
    {"center": (math.nan, 0.0, 0.0)}, {"center": (0.0, math.inf, 0.0)}, {"radius": math.inf},
    {"normal": (math.inf, 0.0, 1.0)}, {"samples": 32.0},
    # A 2-vector would pass every finiteness test and fail later in numpy.
    {"center": (0.0, 0.0)}, {"normal": (0.0, 1.0)},
], ids=["nan-center", "inf-center", "inf-radius", "inf-normal", "float-samples",
        "2-vector-center", "2-vector-normal"])
def test_contour_refuses_non_finite_geometry_and_a_non_integer_sample_count(changed):
    # Each is refused before any arithmetic, so no RuntimeWarning is raised
    # and no NaN point or normal is formed.
    circle = {"center": (0.0, 0.0, 0.0), "normal": (0.0, 0.0, 1.0), "radius": 1.0} | changed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecValidationError):
            Contour(**circle)


def test_winding_of_callable_fields():
    ring = Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=0.7)

    def single(pts):
        pts = np.asarray(pts)
        return pts[..., 0] + 1j * pts[..., 1]

    def double(pts):
        return single(pts) ** 2

    def anti(pts):
        return np.conj(single(pts))

    assert vl.winding_number(single, C, ring) == 1
    assert vl.winding_number(double, C, ring) == 2
    assert vl.winding_number(anti, C, ring) == -1
    # Reversing the normal reverses the traversal sense.
    flipped = Contour(center=(0, 0, 0), normal=(0, 0, -1), radius=0.7)
    assert vl.winding_number(single, C, flipped) == -1


def test_winding_rejects_contour_through_zero():
    field = lambda pts: np.asarray(pts)[..., 0] + 1j * np.asarray(pts)[..., 1]
    through = Contour(center=(0.7, 0, 0), normal=(0, 0, 1), radius=0.7, samples=16)
    with pytest.raises(AmbiguousWindingError):
        vl.winding_number(field, C, through)


def test_circulation_dual_routes_agree_on_line_vortex():
    spec = vl.FreeLineVortex(chi=0.6)
    ring = Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=0.8)
    by_phase = vl.circulation(spec, C, ring, t=0.0)
    by_velocity = vl.circulation_from_velocity(spec, C, ring, t=0.0)
    assert by_phase == pytest.approx(QUANTUM, rel=1e-12)
    assert by_velocity == pytest.approx(QUANTUM, rel=1e-9)


def test_circulation_off_center_contour_still_quantized():
    spec = vl.GaussianLineVortex(l=1.5, x0=0.4)
    ring = Contour(center=(0.4, 0.2, 0.5), normal=(0.1, 0.2, 1.0), radius=0.9)
    assert vl.circulation(spec, C, ring, t=0.0) == pytest.approx(QUANTUM, rel=1e-12)
    not_enclosing = Contour(center=(4.0, 0, 0), normal=(0, 0, 1), radius=0.5)
    assert vl.circulation(spec, C, not_enclosing, t=0.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_magnetic_circulation_includes_vector_potential():
    spec = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    point = spec.parametric_locus(C, 0.0, np.array([0.2]))[0]
    data = vl.w_vector(spec, C, point, 0.0)
    ring = Contour(center=tuple(point), normal=data.tangent, radius=0.3)
    gamma = vl.circulation(spec, C, ring, t=0.0)
    by_velocity = vl.circulation_from_velocity(spec, C, ring, t=0.0)
    assert by_velocity == pytest.approx(gamma, rel=1e-6)
    # Adding back the enclosed-flux term recovers one quantum up to the
    # smooth background phase, which scales with the contour area.
    small = Contour(center=tuple(point), normal=data.tangent, radius=0.05)
    flux = (C.charge / C.mass) * spec.B * math.pi * 0.05**2 * data.tangent[2]
    assert vl.circulation(spec, C, small, t=0.0) + flux == pytest.approx(
        QUANTUM, abs=1e-4
    )


def test_line_integral_is_exact_for_the_symmetric_gauge_potential():
    # (B/2)(-y, x, 0) has curl (0, 0, B), so around a circle it integrates to
    # B pi r^2 n_z.  Along the exact tangent the integrand is a trigonometric
    # polynomial of degree 2 in the angle, which the trapezoid rule sums
    # exactly; chords would be off by (2 pi / N)^2 / 6.
    B, radius = 1.3, 0.7
    contour = Contour(center=(0.4, -0.3, 0.2), normal=(0.3, -0.5, 1.0), radius=radius)
    evaluated = []

    def potential(points):
        evaluated.append(len(points))
        return 0.5 * B * np.stack([-points[:, 1], points[:, 0], np.zeros(len(points))], axis=1)

    flux = B * math.pi * radius**2 * contour.normal[2]
    assert _line_integral(potential, contour, 256) == pytest.approx(flux, rel=1e-14)
    assert evaluated == [256]


def test_line_integral_doubling_evaluates_only_the_new_nodes():
    # A field that needs doublings: each one evaluates the new odd nodes
    # only, and the sum is the rule on every node of the last one, evaluated
    # at once.
    center = np.array([0.3, -0.2, 0.1])
    contour = Contour(center=tuple(center), normal=(0.0, 0.0, 1.0), radius=1.0, samples=16)
    batches = []

    def field(pts):
        batches.append(len(pts))
        out = np.zeros(pts.shape)
        out[:, 1] = np.exp(3.0 * (pts[:, 0] - center[0]))
        return out

    value = _line_integral(field, contour, 16)
    n = sum(batches)
    assert len(batches) > 2 and batches == [16] + [16 * 2**i for i in range(len(batches) - 1)]
    pts = contour.points(n)[:-1]
    terms = np.einsum("ij,ij->i", field(pts), np.cross(contour.normal, pts - center))
    assert value == 2.0 * math.pi / n * float(np.sum(terms))
    # Green: the integral of 3 exp(3 (x - c_x)) over the unit disc.
    assert value == pytest.approx(2.0 * math.pi * i1(3.0), rel=1e-12)


def test_circulation_routes_agree_to_roundoff():
    line = vl.FreeLineVortex(chi=0.6)
    magnetic = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    point = magnetic.parametric_locus(C, 0.0, np.array([0.2]))[0]
    tangent = vl.w_vector(magnetic, C, point, 0.0).tangent
    for spec, ring in (
        (line, Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=0.8)),
        (magnetic, Contour(center=tuple(point), normal=tangent, radius=0.3)),
    ):
        by_phase = vl.circulation(spec, C, ring, t=0.0)
        by_velocity = vl.circulation_from_velocity(spec, C, ring, t=0.0)
        assert by_velocity == pytest.approx(by_phase, rel=1e-14)


def test_flow_velocity_of_ideal_vortex_is_azimuthal():
    spec = vl.FreeLineVortex(chi=math.pi / 4)
    v = vl.flow_velocity(spec, C, (0.5, 0.0, 0.0), 0.0)
    assert v == pytest.approx([0.0, 1.0 / 0.5, 0.0])
    with pytest.raises(VortexCoreError):
        vl.flow_velocity(spec, C, (0.0, 0.0, 0.0), 0.0)


def test_w_vector_geometry():
    spec = vl.FreeLineVortex(chi=0.6)
    data = vl.w_vector(spec, C, (0.0, 0.0, 0.3), 0.0)
    assert data.tangent == pytest.approx((0.0, 0.0, 1.0))
    assert data.chi == pytest.approx(0.6)
    assert data.winding_sign == 1
    # The tangent is oriented along the vorticity, so flipping chi flips the
    # tangent while the winding about it stays +1 by convention.
    mirrored = vl.w_vector(vl.FreeLineVortex(chi=-0.6), C, (0.0, 0.0, 0.3), 0.0)
    assert mirrored.tangent == pytest.approx((0.0, 0.0, -1.0))
    assert mirrored.winding_sign == 1
    with pytest.raises(NotOnLineError):
        vl.w_vector(spec, C, (0.5, 0.2, 0.0), 0.0)


def test_w_vector_rejects_node_sheet():
    spec = vl.FreeLineVortex(chi=0.0)  # purely real prefactor: a sheet, not a line
    with pytest.raises(DegenerateVortexError):
        vl.w_vector(spec, C, (0.0, 0.5, 0.0), 0.0)


def test_linearized_field_reproduces_winding():
    data = vl.w_vector(vl.FreeLineVortex(chi=0.6), C, (0.0, 0.0, 0.0), 0.0)
    model = linearized_field(data.w, (0.0, 0.0, 0.0))
    ring = Contour(center=(0, 0, 0), normal=data.tangent, radius=0.1)
    assert vl.winding_number(model, C, ring) == data.winding_sign


def test_line_velocity_routes_agree():
    cases = [
        (vl.FreeRingCylinder(R=2.0, a=0.7), (2.0, 0.0, -2.0 * 0.31 / 0.7), 0.31),
        (vl.GaussianLineVortex(l=1.5, x0=0.4), (0.4, 0.4 / 1.5**2 * 0.2, 0.8), 0.2),
    ]
    for spec, point, t in cases:
        u1 = vl.line_velocity(spec, C, point, t)
        u2 = vl.line_velocity_from_laplacian(spec, C, point, t)
        assert np.allclose(u1, u2, rtol=1e-9, atol=1e-12)


def _separate_snapshot_velocities(spec, consts, point, t):
    """Both line velocities as w_vector and a second snapshot give them."""
    point = np.asarray(point, dtype=float)
    w = np.asarray([vl.w_vector(spec, consts, point, t).w])
    values = spec.at(consts, t).on(point)
    from_laplacian = 1j * consts.hbar / (2.0 * consts.mass) * complex(values.lap)
    if spec.equation == "magnetic":
        eB = consts.charge * spec.B
        from_laplacian += -(eB / (2.0 * consts.mass)) * (point[0] * w[0, 1] - point[1] * w[0, 0])
    return [min_norm_solve(w, np.array([-dpsi]))[0]
            for dpsi in (complex(values.dt), from_laplacian)]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig4", "anatomy"])
def test_line_velocity_builds_one_snapshot(name, monkeypatch):
    # w and dpsi/dt (or the Laplacian) come from one snapshot's values at
    # the point, bit-identical to reading them from two snapshots.
    config = vl.preset(name)
    t = float(np.mean(config.time_range))
    nodes = np.concatenate([line.points for line in vl.tracker.extract(
        config.spec, config.consts, config.grid, t)])[::7]
    assert len(nodes) >= 5
    expected = [_separate_snapshot_velocities(config.spec, config.consts, p, t) for p in nodes]
    calls = []
    at = vl.SolutionSpec.at

    def counted(self, consts, time):
        calls.append(time)
        return at(self, consts, time)

    monkeypatch.setattr(vl.SolutionSpec, "at", counted)
    for point, (velocity, from_laplacian) in zip(nodes, expected):
        for route, reference in ((vl.line_velocity, velocity),
                                 (vl.line_velocity_from_laplacian, from_laplacian)):
            calls.clear()
            assert np.array_equal(route(config.spec, config.consts, point, t), reference)
            assert len(calls) == 1


def test_line_velocity_magnetic_cross_check():
    spec = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    t = 0.4
    point = spec.parametric_locus(C, t, np.array([0.6]))[0]
    u1 = vl.line_velocity(spec, C, point, t)
    u2 = vl.line_velocity_from_laplacian(spec, C, point, t)
    assert np.allclose(u1, u2, rtol=1e-9, atol=1e-12)


def test_line_velocity_matches_known_drift():
    # Cylinder ring drifts along -z at 2*hbar/(m*a); line representative is
    # orthogonal to the tangent so the axial component carries the whole speed.
    spec = vl.FreeRingCylinder(R=2.0, a=0.5)
    u = vl.line_velocity(spec, C, (2.0, 0.0, 0.0), 0.0)
    assert u[2] == pytest.approx(-2.0 / 0.5, rel=1e-12)


def test_line_velocity_from_laplacian_rejects_relativistic():
    spec = vl.RelLineVortex(chi=0.6)
    with pytest.raises(SpecValidationError):
        vl.line_velocity_from_laplacian(spec, C, (0.0, 0.0, 0.0), 0.0)


def test_a_wrong_potential_fails_the_residual_and_the_line_velocities(monkeypatch):
    # The residual and the Laplacian line velocity read the potentials that
    # the carriers state: the gauge with its sign flipped fails fig4's
    # residual and parts the two line velocities, and the trap's V scaled by
    # 1.01 fails fig5's residual.
    fig4, fig5 = vl.preset("fig4"), vl.preset("fig5")
    t = 0.4
    point = fig4.spec.parametric_locus(C, t, np.array([0.6]))[0]

    def routes():
        return [route(fig4.spec, C, point, t)
                for route in (vl.line_velocity, vl.line_velocity_from_laplacian)]

    for config in (fig4, fig5):
        assert vl.scenario.check_residual(config, [], None, None)[0].passed
    assert np.allclose(*routes(), rtol=1e-9, atol=1e-12)
    gauge = vl.catalog._MagneticCarrier.vector_potential
    monkeypatch.setattr(vl.catalog._MagneticCarrier, "vector_potential",
                        lambda self, consts, points: -gauge(self, consts, points))
    assert not vl.scenario.check_residual(fig4, [], None, None)[0].passed
    assert not np.allclose(*routes(), rtol=1e-3)
    potential = vl.catalog._TrapCarrier.potential
    monkeypatch.setattr(vl.catalog._TrapCarrier, "potential",
                        lambda self, consts, points: 1.01 * potential(self, consts, points))
    assert not vl.scenario.check_residual(fig5, [], None, None)[0].passed
