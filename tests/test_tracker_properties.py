"""Property sweeps of the plaquette tracker over grid size, offset, frame
count and time window.

Phase winding is conserved through every grid cell (Berry & Dennis, Proc. R.
Soc. A 456:2059, 2000): the wrapped edge phase steps of a closed cell surface
cancel, so unless noise-floor faces were dropped, no cell may leak winding
flux, every pierced face must pair up inside each of its cells, and the
chained polylines must use every pierced face exactly once.  Newton
refinement on the exact field must never abort: each crossing lands on a
zero or keeps its seed.  Creation and annihilation are roots of psi = 0,
omega = 0 in space-time, found at the closed-form times whatever the grid
and the frames.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import whole
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vortexlines as vl
from vortexlines.grids import Grid3
from vortexlines.scenario import check_events
from vortexlines.tracker import (
    analytic_refiner,
    cell_winding_balance,
    detect_pierced_faces,
    extract_lines,
    track,
)

C = vl.NATURAL_UNITS

#: (spec, box side, time): one snapshot of each family with lines in the box.
CASES = [
    (vl.FreeRingCylinder(R=1.0, a=0.5), 4.0, 0.1),
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4), 3.0, -0.1),
    (vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 2), 3.0, 0.0),
    (vl.FreeRingSphere(R=3.0, a=1.0), 8.0, 0.5),
    (vl.TrapRing(omega=1.0, R=1.0), 8.0, 0.7),
    (vl.MagneticLine(B=1.0, a=0.8, varphi=0.5), 6.0, 1.0),
]

def _sorted_rows(points):
    return points[np.lexsort(points.T[::-1])]


offsets = st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(CASES), n=st.integers(10, 40), offset=offsets)
def test_extraction_conserves_winding_and_uses_every_face(case, n, offset):
    spec, side, t = case
    spacing = side / (n - 1)
    grid = Grid3.centered(np.asarray(offset) * spacing, side, n)
    field = whole(spec, C, grid, t)
    detection = detect_pierced_faces(field)
    if detection.noise_count:
        return
    assert cell_winding_balance(detection, grid.dims) == 0
    # An identity refiner leaves the bilinear seeds in place and shows them.
    seeds = []

    def keep(points, axis):
        seeds.append(points.copy())
        return points

    lines = extract_lines(field, detection, refiner=keep)
    # Each face's seed is one polyline point: the same multiset of points.
    used = np.concatenate([line.points for line in lines] or [np.zeros((0, 3))])
    every = np.concatenate(seeds or [np.zeros((0, 3))])
    assert len(every) == len(detection.pierced)
    assert np.array_equal(_sorted_rows(used), _sorted_rows(every))
    reach = grid.cell_diagonal * (1.0 + 1e-12)
    for line in lines:
        steps = np.diff(line.points, axis=0)
        if line.closed:
            steps = np.vstack([steps, line.points[0] - line.points[-1]])
        assert np.all(np.linalg.norm(steps, axis=1) <= reach)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(CASES), n=st.integers(10, 40), offset=offsets)
def test_refinement_lands_on_a_zero_or_keeps_its_seed(case, n, offset):
    spec, side, t = case
    spacing = side / (n - 1)
    grid = Grid3.centered(np.asarray(offset) * spacing, side, n)
    refine = analytic_refiner(spec, C, spec.at(C, t))
    pairs = []

    def record(seeds, axis):
        refined = refine(seeds, axis)
        pairs.append((seeds.copy(), refined))
        return refined

    extract_lines(whole(spec, C, grid, t), refiner=record)
    scale = spec.length_scale(C)
    for seeds, refined in pairs:
        field = spec.at(C, t).on(refined)
        on_zero = np.abs(field.psi) <= 1e-12 * np.linalg.norm(field.grad, axis=-1) * scale
        kept = np.all(refined == seeds, axis=1)
        assert np.all(on_zero | kept)


#: Lines born at -t_a and gone at +t_a, as in the fig1 and pair_annihilation
#: presets.
LIFECYCLES = [
    vl.FreeRingSphere(R=3.0, a=1.0),
    vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2),
]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=st.sampled_from(LIFECYCLES), n=st.integers(24, 48),
       n_frames=st.integers(6, 32), shift=st.floats(0.0, 1.0, exclude_max=True))
# The window starts 0.136 before the creation, and the first steps of its
# solves leave the window.
@example(spec=LIFECYCLES[1], n=23, n_frames=4, shift=0.895)
def test_events_are_found_at_the_law(spec, n, n_frames, shift):
    t_a = spec.annihilation_time(C)
    grid = Grid3.centered((0.013, 0.011, 0.017), 8.0, n)
    t0, t1 = -2.03125, 1.96875
    offset = shift * (t1 - t0) / n_frames
    _, log = track(spec, C, grid, t0 + offset, t1 + offset, n_frames)
    assert [e.kind for e in log.events] == ["creation", "annihilation"]
    for event, expected in zip(log.events, (-t_a, t_a)):
        assert abs(event.t - expected) <= 1e-9 * t_a
        assert event.t_lo <= event.t <= event.t_hi
        assert event.frame_hi == event.frame_lo + 1


#: No frame lands inside the short life of the ring, t in (-0.2, 0.2), so
#: no line is ever seen and no event solve starts.
_BETWEEN_FRAMES = pytest.mark.xfail(
    strict=True, reason="an event between frames with no line on any frame is missed")


@pytest.mark.parametrize("n_frames", [
    pytest.param(3, marks=_BETWEEN_FRAMES), 4, pytest.param(5, marks=_BETWEEN_FRAMES), 8])
def test_a_short_lived_ring_is_found_at_any_frame_count(n_frames):
    # fig1's grid, with a ring born at -0.2 and gone at +0.2 in a window of
    # (-1, 1): at 4 and 8 frames a frame lands in the ring's life, at 3 and 5
    # none does.
    config = dataclasses.replace(
        vl.preset("fig1"), spec=vl.FreeRingSphere(R=0.6, a=1.0), time_range=(-1.0, 1.0),
        n_frames=n_frames, checks=("events",))
    frames, log = track(config.spec, C, config.grid, -1.0, 1.0, n_frames)
    results = check_events(config, frames, log, None)
    assert [r.passed for r in results] == [True, True], results
