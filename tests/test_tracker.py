import collections
import itertools
import math
import warnings
from dataclasses import dataclass

import tracemalloc

import numpy as np
import pytest
from conftest import held, on_grid, whole
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import vortexlines as vl
from vortexlines import catalog, grids, tracker
from vortexlines.catalog import BLOCK_CELLS, block_edges
from vortexlines.errors import SpecValidationError
from vortexlines.grids import Grid3, SampledField, sample
from vortexlines.tracker import (
    VortexPolyline,
    analytic_refiner,
    detect_pierced_faces,
    extract,
    extract_lines,
    match_polylines,
    nearest,
    node_speeds,
    track,
)

C = vl.NATURAL_UNITS

OFF = (0.013, 0.011, 0.017)  # keep lattice nodes off the zero lines

K = vl.WaveVector(0.3, -0.2, 0.4)

#: One instance of each family of the catalog.
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


@dataclass(frozen=True)
class CubicPrefactor(catalog._PlaneWaveCarrier):
    """P = 1 + x^2 y on the plane-wave carrier: third-order Taylor terms,
    beyond the block bound."""

    k: vl.WaveVector = catalog.ZERO_K

    def image(self, consts, coords, tau):
        x, y, _ = coords
        return x * x * y + 1.0


def test_detection_finds_axis_aligned_vortex():
    spec = vl.FreeLineVortex(chi=0.6)
    grid = Grid3.centered(OFF, 2.0, 9)
    det = detect_pierced_faces(whole(spec, C, grid, 0.0))
    assert det.ambiguous_count == 0
    assert all(f.axis == 2 and f.winding == 1 for f in det.pierced)
    # One pierced face per z-plane of the grid.
    assert len(det.pierced) == grid.dims[2]
    anti = detect_pierced_faces(whole(vl.FreeLineVortex(chi=-0.6), C, grid, 0.0))
    assert all(f.winding == -1 for f in anti.pierced)


def test_refine_point_lands_on_the_zero():
    spec = vl.FreeLineVortex(chi=0.6)
    (refined,) = analytic_refiner(spec, C, spec.at(C, 0.0))(np.array([[0.08, -0.06, 0.5]]), 2)
    assert refined == pytest.approx((0.0, 0.0, 0.5), abs=1e-12)


def test_refine_point_keeps_the_seed_on_a_degenerate_jacobian():
    # A purely real prefactor has a rank-1 Jacobian in any face plane.
    spec = vl.FreeLineVortex(chi=0.0)
    seeds = np.array([[0.08, 0.06, 0.5], [0.08, -0.06, 0.5]])
    refined = analytic_refiner(spec, C, spec.at(C, 0.0))(seeds, 2)
    assert np.array_equal(refined, seeds)


def test_extract_builds_one_snapshot_and_refines_every_face_at_once(monkeypatch):
    # A tilted line pierces faces normal to all three axes.
    spec, t = vl.MagneticLine(B=1.0, a=0.8, varphi=0.5), 1.0
    grid = Grid3.centered(OFF, 6.0, 24)
    detection = detect_pierced_faces(whole(spec, C, grid, t))
    faces = detection.pierced
    assert set(faces.axis.tolist()) == {0, 1, 2}
    # Refining all faces with their own axes agrees with refining axis by axis.
    seeds = tracker._bilinear_zeros(grid, faces, detection.corners)
    refine = analytic_refiner(spec, C, spec.at(C, t))
    together = refine(seeds, faces.axis)
    apart = np.concatenate([refine(seeds[faces.axis == a], a) for a in range(3)])
    assert not np.array_equal(together, seeds)
    assert np.max(np.abs(together - apart)) <= 1e-12 * grid.cell_diagonal
    # One snapshot samples the frame and one refines all of its crossings.
    calls = []
    at = vl.SolutionSpec.at

    def counted(self, consts, time):
        calls.append(time)
        return at(self, consts, time)

    monkeypatch.setattr(vl.SolutionSpec, "at", counted)
    assert extract(spec, C, grid, t)
    assert len(calls) == 2


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


def _event_solves(monkeypatch) -> list:
    """Record every event root solve that track starts."""
    calls = []
    solve = tracker._event_root

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(tracker, "_event_root", counted)
    return calls


def _unpaired(config, frames) -> list[int]:
    """Frame pairs whose lines do not all pair one to one."""
    return [
        i for i, (prev, curr) in enumerate(zip(frames, frames[1:]))
        if not len(prev) == len(curr)
        == len(match_polylines(config.spec, config.consts, config.grid, prev, curr))
    ]


def test_continuation_pairs_the_precessing_line_one_to_one(monkeypatch):
    # At 16 frames per cyclotron period fig4's line nodes move 1 to 7 cell
    # diagonals a frame: only the predictor's step along the line velocity
    # lands them.
    config = vl.preset("fig4")
    assert config.spec == vl.MagneticLine(B=1.0, a=0.8, varphi=0.5)
    solves = _event_solves(monkeypatch)
    frames, log = track(config.spec, config.consts, config.grid, *config.time_range, 16)
    assert all(len(lines) == 1 for lines in frames)
    assert _unpaired(config, frames) == []
    assert not solves and not log.events


#: Per preset, the frame pairs that do not pair and the event solves.  They
#: are the pairs that hold an event, and fig5's pair 24, where its ring, cut
#: open by a box face, comes back inside and the nodes next to that face
#: miss it; fig4 and fig5 have no event.
UNPAIRED = {
    "fig1": ([16, 48], 2), "pair_annihilation": ([16, 48], 4), "fig3": ([3, 13], 8),
    "fig4": ([], 0), "fig5": ([24], 2),
}


@pytest.mark.parametrize("name", UNPAIRED)
def test_event_solves_start_only_at_unpaired_lines(monkeypatch, name):
    unpaired, solves = UNPAIRED[name]
    config = vl.preset(name)
    calls = _event_solves(monkeypatch)
    frames, _ = track(config.spec, config.consts, config.grid, *config.time_range, config.n_frames)
    assert len(calls) == solves
    assert _unpaired(config, frames) == unpaired


@pytest.mark.parametrize("queries, points", [(1, 1), (7, 300), (300, 1200), (0, 50)])
def test_nearest_equals_a_kd_tree_and_pairwise_distances(queries, points):
    rng = np.random.default_rng(queries + points)
    r = 0.25
    # A last point far from the cloud, and a query at exactly r from it.
    cloud = np.vstack([rng.uniform(-2.0, 2.0, size=(points, 3)), [10.5, 10.5, 10.5]])
    probes = np.vstack([rng.normal(size=(queries, 3)), [10.75, 10.5, 10.5]])
    distance, index = nearest(cloud, probes)
    assert distance[-1] == r and index[-1] == points
    assert np.array_equal(distance, cdist(probes, cloud).min(axis=1))
    within = distance < r
    tree_distance, tree_index = cKDTree(cloud).query(probes, distance_upper_bound=r)
    assert np.array_equal(within, np.isfinite(tree_distance))
    assert np.array_equal(index[within], tree_index[within])
    assert np.array_equal(distance[within], tree_distance[within])
    assert tree_index[-1] == len(cloud)
    empty = nearest(cloud, np.empty((0, 3)))
    assert empty[0].shape == empty[1].shape == (0,)


@pytest.mark.parametrize("name", ["fig1", "fig5", "pair_annihilation"])
def test_landings_target_the_line_a_kd_tree_finds(name):
    # fig5's pair 24 is among them: a box face cuts its ring open there.
    config = vl.preset(name)
    spec, consts, grid = config.spec, config.consts, config.grid
    frames, _ = track(spec, consts, grid, *config.time_range, config.n_frames)
    landed_anywhere = 0
    for prev, curr in zip(frames, frames[1:]):
        if not prev or not curr:
            continue
        _, landed, _, target = tracker._landings(spec, consts, grid, prev, curr)
        # The tree gives index n for a node with no neighbour within a diagonal.
        owner = np.append(np.repeat(np.arange(len(curr)), [len(p.points) for p in curr]), -1)
        tree = cKDTree(np.concatenate([p.points for p in curr]))
        finite = np.all(np.isfinite(landed), axis=1)
        expected = np.full(len(landed), -1)
        expected[finite] = owner[
            tree.query(landed[finite], distance_upper_bound=grid.cell_diagonal)[1]]
        assert np.array_equal(target, expected)
        landed_anywhere += np.count_nonzero(target >= 0)
    assert landed_anywhere > 0


def test_nearest_memory_stays_bounded_in_blocks():
    rng = np.random.default_rng(3)
    points, queries = rng.normal(size=(4000, 3)), rng.normal(size=(4000, 3))
    tracemalloc.start()
    try:
        nearest(points, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 4000 x 4000 array of doubles alone is 128 MB.
    assert peak < 16e6


def test_nearest_in_blocks_equals_one_block(monkeypatch):
    rng = np.random.default_rng(4)
    points, queries = rng.normal(size=(4000, 3)), rng.normal(size=(1000, 3))
    blocked = nearest(points, queries)
    assert len(queries) * len(points) > 4 * tracker.NEAREST_BLOCK
    monkeypatch.setattr(tracker, "NEAREST_BLOCK", len(queries) * len(points))
    whole = nearest(points, queries)
    assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])


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


#: hbar and m away from 1: the pair's events scale with m / hbar.
C_UNITS = vl.PhysicalConstants(hbar=1.3, mass=0.7)


@pytest.mark.parametrize("consts", [C, C_UNITS], ids=["natural", "hbar=1.3,m=0.7"])
@pytest.mark.parametrize("spec, kind", [
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4), "reconnection"),
    (vl.WindowedTwoLinesSymmetric(a=0.4, varphi=math.pi / 4, l=4.0), "reconnection"),
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 3), "reconnection"),
    (vl.WindowedTwoLinesSymmetric(a=0.4, varphi=math.pi / 3, l=1.5), "reconnection"),
    (vl.FreeTwoLinesSymmetric(a=0.5, varphi=0.6), "reconnection"),
    (vl.WindowedTwoLinesSymmetric(a=0.5, varphi=0.6, l=2.0), "reconnection"),
    (vl.WindowedTwoLinesSymmetric(a=1.0, varphi=math.pi / 2, l=4.0), "annihilation"),
    (vl.WindowedTwoLinesSymmetric(a=0.8, varphi=math.pi / 2, l=4.0), "annihilation"),
])
def test_track_pair_roots_equal_the_pair_laws(spec, kind, consts):
    # t* = m a^2 / (hbar sin^2 varphi sqrt(1 - 2 a^2 / (l^2 sin^2 varphi))),
    # l = inf on the plane wave: the lines touch at x = z = 0 at -+t*.
    law = getattr(spec, f"{kind}_time")(consts)
    scale = consts.mass / consts.hbar
    grid = Grid3.centered(OFF, 8.0 * spec.a, 48)
    _, log = track(spec, consts, grid, -1.53125 * scale, 1.46875 * scale, 16)
    kinds = ["creation", "annihilation"] if kind == "annihilation" else [kind] * 2
    assert [e.kind for e in log.events] == kinds
    for event, sign in zip(log.events, (-1, 1)):
        assert abs(event.t - sign * law) <= 1e-12 * law


@pytest.mark.parametrize("consts", [C, C_UNITS], ids=["natural", "hbar=1.3,m=0.7"])
@pytest.mark.parametrize("spec", [
    vl.WindowedTwoLinesSymmetric(a=1.0, varphi=math.pi / 2, l=1.2),
    vl.WindowedTwoLinesSymmetric(a=0.5, varphi=0.6, l=0.6),
])
def test_a_pair_too_wide_for_its_window_never_touches(spec, consts):
    # 2 a^2 >= l^2 sin^2 varphi: the law has no time, and no event occurs.
    assert spec.annihilation_time(consts) is None and spec.reconnection_time(consts) is None
    _, log = track(spec, consts, Grid3.centered(OFF, 8.0 * spec.a, 48), -5.03, 4.97, 16)
    assert not log.events


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
    speeds = node_speeds(spec, C, grid, frames)
    flat = np.concatenate([np.ravel(s) for _, s in speeds])
    # The ring drifts rigidly along -z at 2 hbar / (m a).
    assert flat == pytest.approx(np.full_like(flat, 4.0), rel=1e-6)


def test_node_speeds_match_the_line_velocity_on_the_relativistic_ring():
    # Each counted node's speed over a frame step is the line velocity at
    # the node, to the curvature of its path over the step.
    config = vl.preset("relativistic")
    spec, consts, grid = config.spec, config.consts, config.grid
    frames, _ = track(spec, consts, grid, *config.time_range, config.n_frames)
    speeds = node_speeds(spec, consts, grid, frames)
    assert len(speeds) == config.n_frames
    for prev, curr, (counted, measured) in zip(frames, frames[1:], speeds):
        nodes, _, line, target = tracker._landings(spec, consts, grid, prev, curr)
        nodes = nodes[np.isin(line, tracker._paired(line, target)[:, 0])]
        assert np.array_equal(counted, nodes)
        t = prev[0].frame_time
        exact = [np.linalg.norm(vl.line_velocity(spec, consts, p, t)) for p in nodes]
        assert len(measured) == len(nodes) > 0
        assert measured == pytest.approx(exact, rel=1e-4)


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
    values = on_grid(spec, C, grid, t)
    field = held(grid, values, t)
    det = detect_pierced_faces(field)
    # An identity refiner receives all the seeds at once, in face order.
    seeds = []

    def keep(points, axis):
        seeds.append(points.copy())
        return points

    extract_lines(field, det, refiner=keep)
    reference = [
        _bilinear_zero_reference(values, grid, int(f.axis), tuple(f.index))
        for f in det.pierced
    ]
    # Cramer's rule and LU round differently: allow 64 ulps of the box side.
    assert np.allclose(np.concatenate(seeds), reference, rtol=0.0,
                       atol=64 * np.finfo(float).eps * side)


def _roots_in_square(v00, v10, v01, v11) -> list:
    """The zeros (p, q) of a face's bilinear model in its closed unit square,
    found by eliminating p: f = (a + c q) + (b + d q) p vanishes where
    Im((a + c q) conj(b + d q)) = 0, a quadratic in q."""
    a, b, c, d = v00, v10 - v00, v01 - v00, v11 - v10 - v01 + v00
    quadratic = [(c * np.conj(d)).imag, (a * np.conj(d) + c * np.conj(b)).imag,
                 (a * np.conj(b)).imag]
    found = []
    for q in np.roots(quadratic):
        if q.imag != 0.0:
            continue
        lo, hi = a + c * q.real, b + d * q.real
        p = -(lo * np.conj(hi)).real / abs(hi) ** 2
        if 0.0 <= p <= 1.0 and 0.0 <= q.real <= 1.0:
            found.append((p, q.real))
    return found


def _seeded_fields():
    """Each family on a 16^3 grid at 3 times."""
    for spec in ALL_SPECS:
        grid = Grid3.centered(OFF, 4.0 * spec.length_scale(C), 16)
        for t in (-0.4, 0.0, 0.5):
            yield whole(spec, C, grid, t)


@pytest.mark.parametrize("fields", [
    pytest.param(_seeded_fields, id="families"),
    *(pytest.param(lambda name=name: [held(
        Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (96,) * 3), _evolved_oracle_field(name), 0.0)],
        id=name) for name in ("oracle_ring", "oracle_pair")),
])
def test_each_pierced_face_model_has_one_root_at_the_seed(fields):
    # A face that winds once holds one zero of its model, found here by
    # eliminating the other coordinate; the seed is that zero.  Where the
    # per-face clipped Newton iteration reaches it too, the two agree to
    # rounding; on three faces of FreeRingSphere at t = 0.5 that iteration
    # stalls on an edge of the square, off the zero.
    converged = 0
    for field in fields():
        grid, values = field.grid, field.slab(slice(None))
        detection = detect_pierced_faces(field)
        faces = detection.pierced
        seeds = tracker._bilinear_zeros(grid, faces, detection.corners)
        corners = tracker._corners(values, faces.axis, faces.index).T
        assert np.array_equal(corners, detection.corners.T)
        for f, seed, v in zip(faces, seeds, corners):
            (root,) = _roots_in_square(*v)
            plane = [(f.axis + 1) % 3, (f.axis + 2) % 3]
            node = np.asarray(grid.origin) + np.asarray(grid.spacing) * f.index
            step = np.asarray(grid.spacing)[plane]
            zero = node.copy()
            zero[plane] += np.asarray(root) * step
            assert np.allclose(seed, zero, rtol=0.0, atol=1e-12 * grid.cell_diagonal)
            reference = _bilinear_zero_reference(values, grid, int(f.axis), tuple(f.index))
            p, q = (reference - node)[plane] / step
            model = (v[0] * (1 - p) * (1 - q) + v[1] * p * (1 - q)
                     + v[2] * (1 - p) * q + v[3] * p * q)
            if abs(model) <= 1e-9 * np.abs(v).max():
                converged += 1
                assert np.allclose(seed, reference, rtol=0.0,
                                   atol=64 * np.finfo(float).eps * max(grid.lengths))
    assert converged > 0


@pytest.mark.parametrize("corners, zero", [
    ((1 + 1j,) * 4, (0.5, 0.5)),
    (tuple((1 + 2j) * r for r in (-1.0, 1.0, 1.0, -1.0)), (0.5, 0.5)),
    ((-0.3 - 0.6j, 0.7 - 0.6j, -0.3 + 0.4j, 0.7 + 0.4j), (0.3, 0.6)),
], ids=["equal_corners", "proportional_parts", "planar"])
def test_bilinear_seed_of_a_single_face(corners, zero):
    # Equal corners, and Re psi proportional to Im psi, leave the quadratic
    # identically zero: the face keeps its centre.  A planar model
    # (p - 0.3) + i (q - 0.6) has a linear quadratic with one root.
    grid = Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    faces = np.array([(2, (0, 0, 0), 1)], dtype=tracker.FACE_DTYPE).view(np.recarray)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (seed,) = tracker._bilinear_zeros(grid, faces, np.array(corners)[:, None])
    assert seed == pytest.approx((*zero, 0.0), abs=1e-15)


def _dense_reference(values):
    """(pierced faces, ambiguous count, noise count) from the phase winding
    on every face of the grid: np.angle, wrapped steps and circulation over
    all 3 N (N - 1)^2 faces, the detector whose work detect_pierced_faces
    restricts to the faces where Re psi and Im psi both change sign.  Over
    those faces, the ambiguous faces are flagged but not crossed, and the
    noise faces have every corner below the noise floor; only those that
    share a cell with a pierced face count."""
    phases = np.angle(values)
    amps = np.abs(values)
    noise = tracker.NOISE_FLOOR * amps.max()
    margin = tracker.DEGENERACY_FLOOR * amps
    diffs = [tracker._wrap(np.diff(phases, axis=a)) for a in range(3)]
    loud = [np.abs(d) > tracker.AMBIGUOUS_EDGE_FRACTION * math.pi for d in diffs]

    def pairs(reduce, arr, axis):
        n = arr.shape[axis]
        return reduce(arr.take(range(n - 1), axis), arr.take(range(1, n), axis))

    def corners(arr, a1, a2):
        n1, n2 = arr.shape[a1], arr.shape[a2]
        return np.stack([
            arr.take(range(d1, n1 - 1 + d1), a1).take(range(d2, n2 - 1 + d2), a2)
            for d1 in (0, 1) for d2 in (0, 1)
        ])

    faces, ambiguous, noisy = [], 0, []
    for axis in range(3):
        a1, a2 = (axis + 1) % 3, (axis + 2) % 3
        circulation = np.diff(diffs[a2], axis=a1) - np.diff(diffs[a1], axis=a2)
        crossed = np.abs(circulation) > math.pi
        corner_amps, corner_margin = corners(amps, a1, a2), corners(margin, a1, a2)
        trusted = corner_amps.max(axis=0) >= noise
        at = np.nonzero(crossed & trusted)
        found = np.empty(len(at[0]), tracker.FACE_DTYPE)
        found["axis"] = axis
        found["index"] = np.stack(at, axis=1)
        found["winding"] = np.rint(circulation[at] / tracker.TWO_PI)
        faces.append(found)
        sign_change = np.ones(crossed.shape, dtype=bool)
        for part in (values.real, values.imag):
            part = corners(part, a1, a2)
            sign_change &= ~np.all(part > corner_margin, axis=0)
            sign_change &= ~np.all(part < -corner_margin, axis=0)
        flagged = (pairs(np.logical_or, loud[a1], a2) | pairs(np.logical_or, loud[a2], a1)
                   | (corner_amps.min(axis=0)
                      < tracker.DEGENERACY_FLOOR * corner_amps.max(axis=0)))
        ambiguous += np.count_nonzero(sign_change & trusted & flagged & ~crossed)
        noisy.append(sign_change & ~trusted)
    # Face i along its normal lies between cells i - 1 and i.
    holds = np.zeros(np.subtract(values.shape, 1), dtype=bool)
    for found in faces:
        for cell in (found["index"], found["index"] - np.eye(3, dtype=int)[found["axis"]]):
            inside = np.all((cell >= 0) & (cell < holds.shape), axis=1)
            holds[tuple(cell[inside].T)] = True
    beside = 0
    for axis, noise_faces in enumerate(noisy):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(3)]
        beside += np.count_nonzero(noise_faces & pairs(np.logical_or, np.pad(holds, pad), axis))
    return np.concatenate(faces), ambiguous, beside


def _family_cases():
    """(spec, grid, t): each family of the catalog on grids at offset 0 and
    at random offsets, at several sizes and times."""
    assert {type(spec) for spec in ALL_SPECS} == set(vl.FAMILIES)
    rng = np.random.default_rng(8)
    for spec in ALL_SPECS:
        for n, t in ((10, -0.4), (16, 0.0), (23, 0.5)):
            side = 4.0 * spec.length_scale(C)
            for offset in ((0.0, 0.0, 0.0), rng.uniform(-0.5, 0.5, 3) * side / (n - 1)):
                yield spec, Grid3.centered(offset, side, n), t


def _families_on_offset_grids():
    """The family cases sampled, each with the box where its P may vanish."""
    for spec, grid, t in _family_cases():
        yield on_grid(spec, C, grid, t), sample(spec, C, grid, t).box


def _on_box(grid, values, box):
    """Whole-grid values cut to a box, with the whole grid's peak |psi|."""
    return SampledField(grid, values[box], 0.0, box=box, peak=np.abs(values).max())


def _kept_blocks(snapshot, grid):
    """The blocks of the grid where the snapshot's P may vanish."""
    axes = [grid.axis_coords(a) for a in range(3)]
    return catalog._kept_blocks(*snapshot.prefactor_bounds(*axes))


def _ring_in_a_grid_plane():
    """A ring whose zero line lies in the grid plane z = -0.4 up to roundoff:
    Im psi has roundoff size and random sign at the nodes of that plane."""
    grid = Grid3.centered((0.0, 0.0, 0.0), 4.0, 16)
    return on_grid(vl.FreeRingCylinder(R=1.0, a=0.5), C, grid, 0.1)


def _off_center_field(spec, side, t):
    """spec sampled at time t on a 20 x 13 x 11 grid of the given side,
    offset from the origin."""
    return on_grid(spec, C, Grid3.centered(OFF, side, (20, 13, 11)), t)


def _noisy_gaussian():
    """Random roundoff-level noise on a Gaussian's far field: faces below the
    noise floor, and ambiguous faces."""
    values = _off_center_field(vl.GaussianLineVortex(l=0.6, x0=0.3), 8.0, 0.0)
    rng = np.random.default_rng(1)
    return values + 1e-13 * (
        rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    )


def _evolved_oracle_field(name):
    """The numerically evolved field that the oracle check extracts lines from."""
    config = vl.preset(name)
    t0, t1 = config.time_range
    prop = vl.propagator.PropagatorConfig(duration=t1 - t0)
    evolved = vl.propagator.evolve(whole(config.spec, C, config.grid, t0), prop, C)
    return evolved.slab(slice(None))


@pytest.mark.parametrize("fields", [
    pytest.param(_families_on_offset_grids, id="families"),
    pytest.param(lambda: [(_off_center_field(vl.FreeRingSphere(R=3.0, a=1.0), 8.0, 0.0), None)],
                 id="free_ring_sphere"),
    pytest.param(lambda: [(_off_center_field(
        vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4), 3.0, -0.1), None)],
                 id="free_two_lines_symmetric"),
    pytest.param(lambda: [(_ring_in_a_grid_plane(), None)], id="ring_in_a_grid_plane"),
    pytest.param(lambda: [(_noisy_gaussian(), None)], id="noisy_gaussian"),
    pytest.param(lambda: [(_evolved_oracle_field("oracle_ring"), None)], id="oracle_ring"),
    pytest.param(lambda: [(_evolved_oracle_field("oracle_pair"), None)], id="oracle_pair"),
])
def test_detection_matches_the_dense_reference(fields):
    # Only faces where Re psi and Im psi both change sign are examined, over
    # the whole grid and, for an analytic field, over the box where its P may
    # vanish; the pierced faces must be bit-identical to winding on every
    # face, and so must the ambiguous and noise counts.
    for values, box in fields():
        grid = Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), values.shape)
        pierced, ambiguous, noise = _dense_reference(values)
        entire = held(grid, values)
        for field in [entire] if box is None else [entire, _on_box(grid, values, box)]:
            det = detect_pierced_faces(field)
            assert det.pierced.tobytes() == pierced.tobytes()
            assert (det.ambiguous_count, det.noise_count) == (ambiguous, noise)


@pytest.mark.parametrize("name, count", [("oracle_ring", 0), ("oracle_pair", 4)])
def test_noise_count_ignores_roundoff_away_from_the_lines(name, count):
    # The evolved field is roundoff far from its lines: noise of 1e-16 of
    # its peak moves ~1.5e5 of oracle_ring's ~9e5 noise faces, none of
    # them beside a pierced face.
    values = _evolved_oracle_field(name)
    rng = np.random.default_rng(3)
    noisy = values + 1e-16 * np.abs(values).max() * (
        rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    )
    grid = Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), values.shape)
    for field in (values, noisy):
        assert detect_pierced_faces(held(grid, field)).noise_count == count


def _blocks_holding(face, dims) -> list[tuple[int, int, int]]:
    """The blocks (`block_edges`) whose closed node ranges hold all four
    corners of a face: one or two along its normal, one along each other
    axis."""
    spans = []
    for a, n in enumerate(dims):
        edges, lo = block_edges(n), face.index[a]
        hi = lo + (a != face.axis)
        spans.append(np.flatnonzero((edges[:-1] <= lo) & (hi <= edges[1:])).tolist())
    return list(itertools.product(*spans))


#: The ring x^2 + y^2 = R^2 inside one block of a 13^3 grid, the block whose
#: centre is the ring's: there grad P vanishes in x and y, so only the
#: second-order Taylor terms keep the block.
SMALL_RING = (
    vl.FreeRingCylinder(R=0.3, a=0.5),
    Grid3((-1.5, -1.5, -0.06), (0.25, 0.25, 0.01), (13, 13, 13)),
)


@pytest.mark.parametrize("cases", [
    pytest.param(_family_cases, id="families"),
    pytest.param(lambda: [(*SMALL_RING, t) for t in (-0.0125, 0.0021, 0.0137)], id="small_ring"),
])
def test_every_pierced_face_lies_in_a_kept_block(cases):
    # Whole-grid detection finds no crossing in a block that the certificate
    # excludes.  Checked block by block: the box around the kept blocks
    # would hide a block excluded wrongly.
    found = 0
    for spec, grid, t in cases():
        kept = _kept_blocks(spec.at(C, t), grid)
        for face in detect_pierced_faces(whole(spec, C, grid, t)).pierced:
            assert any(kept[block] for block in _blocks_holding(face, grid.dims)), (spec, t)
            found += 1
    assert found


#: Grid shapes with axes of fewer cells than a block, or a short last block.
SHORT_AXES = [(n,) * 3 for n in range(4, 10)] + [(20, 13, 11), (4, 30, 5)]

#: (spec, grid side, t) of the specs sampled on them.
SHORT_AXES_SPECS = [
    (vl.MagneticLine(B=1.0, a=0.8, varphi=0.5), 6.0, 1.0),
    (vl.FreeRingCylinder(R=1.0, a=0.5), 3.0, 0.1),
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4), 2.0, -0.1),
]


@pytest.mark.parametrize("dims", SHORT_AXES, ids=lambda dims: "x".join(map(str, dims)))
def test_box_detection_matches_the_whole_grid_on_short_axes(dims):
    # An axis of fewer cells than a block is one block, and the last block
    # of an axis is clipped to the grid: the box always ends at its nodes.
    for n in dims:
        edges = block_edges(n)
        assert edges[0] == 0 and edges[-1] == n - 1
        assert np.all((np.diff(edges) >= 1) & (np.diff(edges) <= BLOCK_CELLS))
    found = 0
    for spec, side, t in SHORT_AXES_SPECS:
        grid = Grid3.centered(OFF, side, dims)
        values = on_grid(spec, C, grid, t)
        entire = detect_pierced_faces(held(grid, values, t))
        boxed = detect_pierced_faces(_on_box(grid, values, sample(spec, C, grid, t).box))
        assert boxed.pierced.tobytes() == entire.pierced.tobytes()
        assert (boxed.ambiguous_count, boxed.noise_count) == (
            entire.ambiguous_count, entire.noise_count)
        found += len(entire.pierced)
    assert found


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.is_bare],
                         ids=lambda s: type(s).__name__)
def test_a_bare_carrier_excludes_the_whole_grid(spec):
    grid = Grid3.centered(OFF, 4.0, 16)
    box = sample(spec, C, grid, 0.3).box
    assert box == (slice(0, 0),) * 3
    det = detect_pierced_faces(_on_box(grid, on_grid(spec, C, grid, 0.3), box))
    assert (len(det.pierced), det.ambiguous_count, det.noise_count) == (0, 0, 0)
    assert extract(spec, C, grid, 0.3) == []


def test_a_prefactor_beyond_the_bound_keeps_the_whole_grid():
    # P = 1 + x^2 y has third-order Taylor terms that the bound lacks:
    # sampling on the zero box refuses it, and the whole grid's one product
    # still evaluates it.
    grid = Grid3.centered(OFF, 2.0, 9)
    with pytest.raises(SpecValidationError, match="degree 3"):
        sample(CubicPrefactor(), C, grid, 0.0)
    x, y, _ = np.meshgrid(*(grid.axis_coords(a) for a in range(3)), indexing="ij")
    assert np.allclose(on_grid(CubicPrefactor(), C, grid, 0.0), x * x * y + 1.0, rtol=1e-15,
                       atol=0.0)


def test_a_zero_field_has_no_crossings_and_forms_no_face_codes(traced_peak):
    # Its peak, and so its noise floor, is 0: every face would be a
    # candidate, as no node is below the floor.  A field of 1e-300 has the
    # same result from the full detection.
    grid = Grid3.centered(OFF, 4.0, 64)
    zero = held(grid, np.zeros(grid.dims))
    tiny = held(grid, np.full(grid.dims, 1e-300 + 0j))
    assert zero.peak == 0.0
    det, peak = traced_peak(detect_pierced_faces, zero)
    assert peak <= 1e4
    for found in (det, detect_pierced_faces(tiny)):
        assert found.pierced.dtype == tracker.FACE_DTYPE
        assert (len(found.pierced), found.ambiguous_count, found.noise_count) == (0, 0, 0)
    assert extract_lines(zero) == []


def test_track_runs_every_stage_once_per_frame(monkeypatch):
    # A frame is timed from its sample to its extraction, so it includes
    # the certificate, and refinement is timed through analytic_refiner:
    # each runs once a frame, also where every block is excluded.
    calls = collections.Counter()
    stages = ("sample", "detect_pierced_faces", "extract_lines", "analytic_refiner")
    for name in stages:
        def counted(*args, _stage=getattr(tracker, name), _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(tracker, name, counted)
    for spec in (vl.FreeRingCylinder(R=1.0, a=0.5), vl.FreePlaneWave(k=K)):
        calls.clear()
        frames, _ = track(spec, C, Grid3.centered(OFF, 4.0, 16), -0.2, 0.2, 4)
        assert len(frames) == 5
        assert calls == {name: 5 for name in stages}


def test_an_event_solve_starts_once_per_line_that_does_not_pair(monkeypatch):
    # Each solve starts from the line's centroid moved to the frame pair's
    # middle time, and from nowhere else: fig5 at 8 frames has no events,
    # and each of its 16 lines that do not pair starts one solve.
    config = vl.preset("fig5")
    starts, root = [], tracker._event_root

    def counted(*args):
        starts.append(args[2])
        return root(*args)

    monkeypatch.setattr(tracker, "_event_root", counted)
    frames, log = track(config.spec, config.consts, config.grid, *config.time_range, 8)
    assert len(frames) == 9 and log.events == []
    assert len(starts) == 16


def test_box_detection_takes_the_noise_floor_from_the_whole_grid():
    # A spike outside the box lifts the noise floor above every node inside
    # it: no face there is a candidate, as over the whole grid.
    spec, grid = vl.FreeLineVortex(chi=0.6), Grid3.centered(OFF, 2.0, 16)
    values = on_grid(spec, C, grid, 0.0)
    box = sample(spec, C, grid, 0.0).box
    assert box[0].stop < grid.dims[0]
    assert len(detect_pierced_faces(_on_box(grid, values, box)).pierced)
    values[-1, -1, -1] = 1e12
    for field in (held(grid, values), _on_box(grid, values, box)):
        det = detect_pierced_faces(field)
        assert (len(det.pierced), det.ambiguous_count, det.noise_count) == (0, 0, 0)


def _evolved_trap_ring():
    """TrapRing evolved in the trap over t = 0..0.5 on a 20 x 24 x 28
    periodic box: its far field is roundoff, with noise faces beside pierced
    ones."""
    sides, dims = (19.0, 20.0, 21.0), (20, 24, 28)
    grid = Grid3(tuple(-0.5 * side + o for side, o in zip(sides, OFF)),
                 tuple(side / n for side, n in zip(sides, dims)), dims)
    field = whole(vl.TrapRing(omega=1.0, R=1.0), C, grid, 0.0)
    return vl.propagator.evolve(field, vl.propagator.PropagatorConfig(duration=0.5, omega=1.0))


def test_detection_in_slabs_equals_one_slab(monkeypatch):
    # One x plane per slab, three planes (20 is not a multiple of three) and
    # one slab for the whole box give the same codes, so the same result;
    # so does an empty box, which has no slab at all.
    evolved = _evolved_trap_ring()
    plane = evolved.grid.dims[1] * evolved.grid.dims[2]
    empty = SampledField(evolved.grid, np.zeros((0, 24, 28), complex), 0.0,
                         box=(slice(3, 3), slice(None), slice(None)), peak=1.0)
    boxed = sample(vl.FreeRingCylinder(R=1.0, a=0.5), C, Grid3.centered(OFF, 4.0, 32), 0.1)
    results = collections.defaultdict(list)
    for slab in (1, 3 * plane, 10**9):
        monkeypatch.setattr(grids, "SLAB_POINTS", slab)
        for name, field in (("evolved", evolved), ("empty", empty), ("boxed", boxed)):
            det = detect_pierced_faces(field)
            results[name].append((det.pierced.tobytes(), det.ambiguous_count, det.noise_count))
    assert results["evolved"][0][2] > 0 and len(results["boxed"][0][0])
    assert results["empty"][0] == (np.empty(0, tracker.FACE_DTYPE).tobytes(), 0, 0)
    for name, found in results.items():
        assert found == found[:1] * 3, name


def test_detection_holds_one_byte_per_node_of_codes(traced_peak):
    # No whole-grid |psi| or bool array, and no face codes kept across axes:
    # the codes, one byte a node, one axis's face codes and the pairs
    # temporary they are built from, one byte a node each, and at 64^3 the
    # candidate faces in 0.4 MB more.
    grid = Grid3(tuple(-24.0 + o for o in OFF), (0.75,) * 3, (64,) * 3)
    field = whole(vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5), C, grid, 0.0)
    assert field.peak > 0.0  # its fold pass, outside the trace
    detection, peak = traced_peak(detect_pierced_faces, field)
    assert len(detection.pierced) and peak <= 3 * math.prod(grid.dims) + 4e5


def _short_axes_cases():
    """The cases of the short-axes test: its specs on each grid shape."""
    for dims in SHORT_AXES:
        for spec, side, t in SHORT_AXES_SPECS:
            yield spec, Grid3.centered(OFF, side, dims), t


@pytest.mark.parametrize("cases", [
    pytest.param(_family_cases, id="families"),
    pytest.param(_short_axes_cases, id="short_axes"),
    pytest.param(lambda: [(*SMALL_RING, t) for t in (-0.0125, 0.0021, 0.0137)], id="small_ring"),
    pytest.param(lambda: [(s, Grid3.centered(OFF, 4.0, 16), 0.3) for s in ALL_SPECS if s.is_bare],
                 id="bare_carriers"),
])
def test_box_sample_detects_as_the_whole_grid(cases):
    # Detection on a field sampled only on its box, with the peak from the
    # block bounds, is bit-identical to detection in that box of the
    # whole-grid sample; refined lines agree to 1e-12 cell diagonals.
    for spec, grid, t in cases():
        field, values = sample(spec, C, grid, t), on_grid(spec, C, grid, t)
        peak = field.search(np.abs(field.values).max(initial=0.0))
        assert peak == pytest.approx(np.abs(values).max(), rel=1e-15, abs=0)
        boxed, reference = detect_pierced_faces(field), detect_pierced_faces(
            _on_box(grid, values, field.box))
        assert boxed.pierced.tobytes() == reference.pierced.tobytes()
        assert (boxed.ambiguous_count, boxed.noise_count) == (
            reference.ambiguous_count, reference.noise_count)
        refine = analytic_refiner(spec, C, spec.at(C, t))
        lines = extract_lines(field, boxed, refine)
        expected = extract_lines(_on_box(grid, values, field.box), reference, refine)
        assert [len(line.points) for line in lines] == [len(line.points) for line in expected]
        for line, other in zip(lines, expected):
            assert np.max(np.abs(line.points - other.points)) <= 1e-12 * grid.cell_diagonal
        if spec.is_bare:
            assert field.values.shape == (0, 0, 0) and lines == []


def test_sample_runs_the_certificate(monkeypatch):
    # A frame is timed from its sample to its extraction: the block bounds
    # run inside sample, once a frame.
    calls, inside = [], []

    def counted_sample(*args, **kwargs):
        inside.append(True)
        try:
            return sample(*args, **kwargs)
        finally:
            inside.pop()

    bounds = vl.catalog.Snapshot.prefactor_bounds

    def counted_bounds(self, *args):
        calls.append(bool(inside))
        return bounds(self, *args)

    monkeypatch.setattr(tracker, "sample", counted_sample)
    monkeypatch.setattr(vl.catalog.Snapshot, "prefactor_bounds", counted_bounds)
    frames, _ = track(vl.FreeRingCylinder(R=1.0, a=0.5), C, Grid3.centered(OFF, 4.0, 16),
                      -0.2, 0.2, 4)
    assert len(frames) == 5
    assert calls == [True] * 5
