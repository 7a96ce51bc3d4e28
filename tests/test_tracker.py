import math

import numpy as np
import pytest

import vortexlines as vl
from vortexlines import tracker
from vortexlines.errors import SpecValidationError
from vortexlines.grids import Grid3, SampledField, sample
from vortexlines.tracker import (
    VortexPolyline,
    analytic_refiner,
    detect_pierced_faces,
    extract,
    extract_lines,
    match_polylines,
    node_speeds,
    symmetric_hausdorff,
    track,
)

C = vl.NATURAL_UNITS

OFF = (0.013, 0.011, 0.017)  # keep lattice nodes off the zero lines


def test_detection_finds_axis_aligned_vortex():
    spec = vl.FreeLineVortex(chi=0.6)
    grid = Grid3.centered(OFF, 2.0, 9)
    det = detect_pierced_faces(sample(spec, C, grid, 0.0))
    assert det.ambiguous_count == 0
    assert all(f.axis == 2 and f.winding == 1 for f in det.pierced)
    # One pierced face per z-plane of the grid.
    assert len(det.pierced) == grid.dims[2]
    anti = detect_pierced_faces(
        sample(vl.FreeLineVortex(chi=-0.6), C, grid, 0.0)
    )
    assert all(f.winding == -1 for f in anti.pierced)


def test_refine_point_lands_on_the_zero():
    spec = vl.FreeLineVortex(chi=0.6)
    (refined,) = analytic_refiner(spec, C, 0.0)(np.array([[0.08, -0.06, 0.5]]), 2)
    assert refined == pytest.approx((0.0, 0.0, 0.5), abs=1e-12)


def test_refine_point_keeps_the_seed_on_a_degenerate_jacobian():
    # A purely real prefactor has a rank-1 Jacobian in any face plane.
    spec = vl.FreeLineVortex(chi=0.0)
    seeds = np.array([[0.08, 0.06, 0.5], [0.08, -0.06, 0.5]])
    refined = analytic_refiner(spec, C, 0.0)(seeds, 2)
    assert np.array_equal(refined, seeds)


def test_extract_closed_ring_geometry():
    spec = vl.FreeRingCylinder(R=1.0, a=0.5)
    grid = Grid3.centered(OFF, 4.0, 32)
    t = 0.1
    lines = extract(spec, C, grid, t)
    assert len(lines) == 1
    (ring,) = lines
    assert ring.closed
    assert abs(ring.winding) == 1
    radii = np.hypot(ring.points[:, 0], ring.points[:, 1])
    assert np.allclose(radii, 1.0, atol=1e-9)
    assert np.allclose(ring.points[:, 2], -2.0 * t / 0.5, atol=1e-9)
    assert ring.length == pytest.approx(2.0 * math.pi, rel=1e-2)


def test_extract_open_pair_has_opposite_windings():
    spec = vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 2)
    grid = Grid3.centered(OFF, 2.0, 24)
    lines = extract(spec, C, grid, 0.0)
    assert len(lines) == 2
    assert not any(line.closed for line in lines)
    assert sorted(line.winding for line in lines) == [-1, 1]
    # The two straight lines sit at z = +-a.
    zs = sorted(float(np.mean(line.points[:, 2])) for line in lines)
    assert zs == pytest.approx([-0.4, 0.4], abs=1e-9)


def test_polyline_validation():
    with pytest.raises(SpecValidationError):
        VortexPolyline(np.zeros((2, 3)), closed=True, winding=1, frame_time=0.0)
    with pytest.raises(SpecValidationError):
        VortexPolyline(np.zeros((5, 3)), closed=False, winding=0, frame_time=0.0)


def test_symmetric_hausdorff():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.5, 0.0], [2.0, 0.0, 0.0]])
    assert symmetric_hausdorff(a, b) == pytest.approx(1.0)
    assert symmetric_hausdorff(a, a) == 0.0


def test_match_polylines_greedy_pairing():
    def line(z, shift=0.0):
        pts = np.array([[x + shift, 0.0, z] for x in np.linspace(-1, 1, 5)])
        return VortexPolyline(pts, closed=False, winding=1, frame_time=0.0)

    previous = [line(0.0), line(1.0)]
    current = [line(1.0, shift=0.05), line(0.0, shift=0.05)]
    assert sorted(match_polylines(previous, current, cutoff=0.5)) == [(0, 1), (1, 0)]
    assert match_polylines(previous, current, cutoff=0.01) == []


def test_track_pair_creation_and_annihilation_brackets():
    spec = vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2)
    grid = Grid3.centered(OFF, 6.0, 48)
    # Frame step chosen so the frames bracketing +-t_a = 1 see the lines
    # still separated by several grid cells.
    n_frames = 20
    frames, log = track(spec, C, grid, -1.2625, 1.2375, n_frames)
    assert len(frames) == n_frames + 1
    creations = log.of_kind("creation")
    annihilations = log.of_kind("annihilation")
    assert len(creations) == 1 and len(annihilations) == 1
    # The pair is born at -t_a and collides at +t_a with t_a = m a^2 / hbar.
    assert creations[0].t_lo < -1.0 < creations[0].t_hi
    assert annihilations[0].t_lo < 1.0 < annihilations[0].t_hi
    assert not log.of_kind("reconnection")


def test_track_reconnection_for_crossed_pair():
    spec = vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4)
    grid = Grid3.centered(OFF, 3.0, 24)
    _, log = track(spec, C, grid, -0.53, 0.47, 16)
    assert len(log.of_kind("reconnection")) >= 1
    assert not log.of_kind("creation") and not log.of_kind("annihilation")


@pytest.mark.parametrize("varphi", [0.1 * math.pi, math.pi / 4, 0.49 * math.pi],
                         ids=["0.1pi", "pi/4", "0.49pi"])
def test_track_reconnection_roots_follow_the_law(varphi):
    # At x = z = 0 the prefactor is -(s y + i a)^2 - 2i hbar s^2 t / m with
    # s = sin(varphi): it vanishes at s y = +-a, t = -m a y / (hbar s), where
    # both lines pass through one point.  So the reconnections are at
    # t* = -+m a^2 / (hbar s^2), y* = +-a / s.
    a, s = 0.4, math.sin(varphi)
    t_r, y_r = C.mass * a**2 / (C.hbar * s**2), a / s
    grid = Grid3.centered(OFF, 3.0 * y_r, 32)
    spec = vl.FreeTwoLinesSymmetric(a=a, varphi=varphi)
    _, log = track(spec, C, grid, -1.2 * t_r, 1.2 * t_r, 16)
    assert [e.kind for e in log.events] == ["reconnection", "reconnection"]
    for event, sign in zip(log.events, (-1, 1)):
        assert abs(event.t - sign * t_r) <= 1e-9 * t_r
        assert event.location == pytest.approx((0.0, -sign * y_r, 0.0), abs=1e-9 * y_r)
        assert event.t_lo <= event.t <= event.t_hi


def test_track_steady_parallel_pair_logs_nothing():
    spec = vl.FreeTwoLinesSymmetric(a=0.4, varphi=0.0)
    grid = Grid3.centered(OFF, 3.0, 24)
    _, log = track(spec, C, grid, -0.53, 0.47, 8)
    assert not log.events


def test_track_requires_enough_frames():
    spec = vl.FreeLineVortex(chi=0.6)
    grid = Grid3.centered(OFF, 2.0, 8)
    with pytest.raises(SpecValidationError):
        track(spec, C, grid, 0.0, 1.0, 0)
    with pytest.raises(SpecValidationError):
        track(spec, C, grid, 1.0, 0.0, 8)


def test_node_speeds_recover_ring_drift():
    spec = vl.FreeRingCylinder(R=1.0, a=0.5)
    grid = Grid3.centered(OFF, 4.0, 32)
    frames, _ = track(spec, C, grid, -0.2, 0.2, 8)
    speeds = node_speeds(frames)
    flat = np.concatenate([np.ravel(s) for s in speeds])
    # The ring drifts rigidly along -z at 2 hbar / (m a).
    assert flat == pytest.approx(np.full_like(flat, 4.0), rel=1e-6)


def _bilinear_zero_reference(values, grid, axis, index):
    """Per-face clipped Newton iteration on the bilinear corner model, one
    np.linalg.solve per step: the loop the tracker's seeding vectorizes."""
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3

    def corner(d1, d2):
        idx = list(index)
        idx[a1] += d1
        idx[a2] += d2
        return values[tuple(idx)]

    v00, v10, v01, v11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
    u = np.array([0.5, 0.5])
    for _ in range(12):
        f = (v00 * (1 - u[0]) * (1 - u[1]) + v10 * u[0] * (1 - u[1])
             + v01 * (1 - u[0]) * u[1] + v11 * u[0] * u[1])
        fu = (v10 - v00) * (1 - u[1]) + (v11 - v01) * u[1]
        fv = (v01 - v00) * (1 - u[0]) + (v11 - v10) * u[0]
        jac = np.array([[fu.real, fv.real], [fu.imag, fv.imag]])
        try:
            step = np.linalg.solve(jac, [f.real, f.imag])
        except np.linalg.LinAlgError:
            break
        u = np.clip(u - step, 0.0, 1.0)
        if np.linalg.norm(step) < 1e-12:
            break
    point = np.asarray(grid.origin) + np.asarray(grid.spacing) * np.asarray(index)
    point[a1] += u[0] * grid.spacing[a1]
    point[a2] += u[1] * grid.spacing[a2]
    return point


@pytest.mark.parametrize("spec, side, t", [
    (vl.FreeRingSphere(R=3.0, a=1.0), 8.0, 0.0),
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4), 3.0, -0.1),
    (vl.MagneticLine(B=1.0, a=0.8, varphi=0.5), 6.0, 1.0),
])
def test_bilinear_seeds_match_the_per_face_reference(spec, side, t):
    grid = Grid3.centered(OFF, side, 24)
    field = sample(spec, C, grid, t)
    det = detect_pierced_faces(field)
    # An identity refiner receives the seeds axis by axis, in face order.
    seeds = []

    def keep(points, axis):
        seeds.append(points.copy())
        return points

    extract_lines(field, det, refiner=keep)
    reference = [
        _bilinear_zero_reference(field.values, grid, int(f.axis), tuple(f.index))
        for f in det.pierced
    ]
    # Cramer's rule and LU round differently: allow 64 ulps of the box side.
    assert np.allclose(np.concatenate(seeds), reference, rtol=0.0,
                       atol=64 * np.finfo(float).eps * side)


@pytest.mark.parametrize("spec, side, t, noise", [
    (vl.FreeRingSphere(R=3.0, a=1.0), 8.0, 0.0, 0.0),
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4), 3.0, -0.1, 0.0),
    (vl.GaussianLineVortex(l=0.6, x0=0.3), 8.0, 0.0, 1e-13),
])
def test_detection_does_not_depend_on_the_slab_size(monkeypatch, spec, side, t, noise):
    # One slab (the whole grid) against slabs of one, two and three planes
    # of faces: the pierced faces and both counts must be identical.  Random
    # roundoff-level noise on the Gaussian's far field gives ambiguous faces
    # and faces below the noise floor, whose level is the global peak.
    grid = Grid3.centered(OFF, side, (20, 13, 11))
    values = sample(spec, C, grid, t).values
    rng = np.random.default_rng(1)
    values = values + noise * (
        rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    )
    field = SampledField(grid, values, t)
    monkeypatch.setattr(tracker, "SLAB_POINTS", 1 << 30)
    whole = detect_pierced_faces(field)
    for planes in (1, 2, 3):
        monkeypatch.setattr(tracker, "SLAB_POINTS", planes * 13 * 11)
        slabbed = detect_pierced_faces(field)
        assert slabbed.pierced.tobytes() == whole.pierced.tobytes()
        assert slabbed.ambiguous_count == whole.ambiguous_count
        assert slabbed.noise_count == whole.noise_count
    if noise:
        assert whole.ambiguous_count > 0 and whole.noise_count > 0


def test_slabbed_detection_finds_x_faces_on_every_plane(monkeypatch):
    # A line along x pierces one x face in every x plane, the last included;
    # the second line of the pair lies far outside the grid.
    spec = vl.FreeTwoLines(w1=(0.0, 1.0, 1j), r1=(0.0, 0.0, 0.0),
                           w2=(0.0, 1.0, 1j), r2=(0.0, 50.0, 0.0))
    grid = Grid3.centered(OFF, 2.0, (11, 9, 9))
    monkeypatch.setattr(tracker, "SLAB_POINTS", 2 * 9 * 9)
    det = detect_pierced_faces(sample(spec, C, grid, 0.0))
    assert all(f.axis == 0 for f in det.pierced)
    assert sorted(f.index[0] for f in det.pierced) == list(range(grid.dims[0]))
