"""Detection over a field formed slab by slab equals detection over the same
values held whole.

`tracker.detect_pierced_faces` reads any field through `slab(s)` and codes
only its support box, the nodes within one node of those at or above the
noise floor, whose bound the field learns in the first pass over its slabs.
Held or formed, coded on the support box or on the whole grid, the pierced
faces, their corners and the ambiguous and noise counts must be the same
bytes; and a slab that is not finite must be refused as held values are.
"""

import numpy as np
import pytest
from conftest import held
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexlines as vl
from vortexlines import grids, propagator
from vortexlines.errors import SpecValidationError
from vortexlines.grids import Grid3, SampledField, SlabbedField, slabs
from vortexlines.tracker import NOISE_FLOOR, detect_pierced_faces

OFF = (0.013, 0.011, 0.017)


def _slabbed(grid, values):
    """values formed slab by slab: each read is a fresh copy of its planes."""
    return SlabbedField(grid, lambda s: values[s].copy(), 0.0)


def _detected(field):
    det = detect_pierced_faces(field)
    return det.pierced.tobytes(), det.corners.tobytes(), det.ambiguous_count, det.noise_count


def _with_slab_points(points, fn, *args):
    old = grids.SLAB_POINTS
    grids.SLAB_POINTS = points
    try:
        return fn(*args)
    finally:
        grids.SLAB_POINTS = old


@st.composite
def fields(draw):
    """Small complex fields: iid values; the same scaled to around and below
    the noise floor off a box against walls, or off one node, with one node
    exactly at the floor in some; an all-zero field; and, in some, one x
    plane of NaN, inf or |psi| beyond the largest float."""
    dims = draw(st.tuples(*[st.integers(4, 9)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    kind = draw(st.sampled_from(["iid", "walls", "single", "zero"]))
    if kind == "walls":
        # Kept: a box against a wall of each axis, on either side.
        kept = np.ones(dims, dtype=bool)
        for a, n in enumerate(dims):
            cut = draw(st.integers(0, n - 1))
            side = np.arange(n) >= cut if draw(st.booleans()) else np.arange(n) < n - cut
            kept &= np.expand_dims(side, tuple(b for b in range(3) if b != a))
    else:
        kept = np.zeros(dims, dtype=bool)
        kept[tuple(draw(st.integers(0, n - 1)) for n in dims)] = True
    if kind in ("walls", "single"):
        peak = np.abs(values[kept]).max()
        top = draw(st.sampled_from([-1.0, 0.3]))  # all below the floor, or some above
        scale = NOISE_FLOOR * peak * 10.0 ** rng.uniform(-4.0, top, dims)
        values = np.where(kept, values, values / np.abs(values) * scale)
        if draw(st.booleans()):
            values[tuple(draw(st.integers(0, n - 1)) for n in dims)] = NOISE_FLOOR * np.abs(values).max()
    elif kind == "zero":
        values = np.zeros(dims, dtype=complex)
    bad = draw(st.sampled_from([None] * 5 + [complex("nan"), complex("inf"), 1.5e308 + 1.5e308j]))
    if bad is not None:
        values[draw(st.integers(0, dims[0] - 1))] = bad
    return values


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=fields(), points=st.sampled_from([1, 30, 100, 1 << 15]))
def test_slab_detection_equals_held_detection(values, points):
    grid = Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), values.shape)
    whole = held(grid, values)
    try:
        peak = whole.peak
    except SpecValidationError as refused:
        # The first pass over fresh slabs refuses them with the same text
        # as the held grid's.
        with pytest.raises(SpecValidationError) as info:
            _with_slab_points(points, detect_pierced_faces, _slabbed(grid, values))
        assert str(info.value) == str(refused)
        return
    slabbed = _slabbed(grid, values)
    found = _with_slab_points(points, _detected, slabbed)
    assert slabbed.peak == peak == np.abs(values).max()
    for axis, profile in enumerate(slabbed.profiles):
        others = tuple(b for b in range(3) if b != axis)
        assert np.array_equal(profile, np.abs(values).max(axis=others))
    assert found == _detected(whole)
    # Coded on the whole grid, as a field given its peak is, the same bytes.
    assert found == _detected(SampledField(grid, values, 0.0, peak=peak))


def _oracle_trap():
    """TrapRing on a periodic 72^3 box of side 18, over t = 0..0.5."""
    n, length = 72, 18.0
    grid = Grid3(tuple(-0.5 * length + o for o in OFF), (length / n,) * 3, (n,) * 3)
    return vl.ScenarioConfig(spec=vl.TrapRing(omega=1.0, R=1.0), consts=vl.NATURAL_UNITS,
                             grid=grid, time_range=(0.0, 0.5), n_frames=8, checks=("oracle",))


@pytest.mark.parametrize("name", ["oracle_ring", "oracle_pair", "oracle_trap"])
def test_evolved_oracle_fields_detect_the_same_slabbed_as_held(name):
    # The oracle check's evolved field, formed slab by slab from t0's mapped
    # axis rows, against its slabs held whole: the same bytes, and the same
    # as coding the whole grid.
    config = _oracle_trap() if name == "oracle_trap" else vl.preset(name)
    spec, consts, grid = config.spec, config.consts, config.grid
    t0, t1 = config.time_range
    omega = spec.omega if spec.equation == "trap" else 0.0
    maps = propagator.axis_propagators(grid, propagator.PropagatorConfig(t1 - t0, omega), consts)
    axes = [grid.axis_coords(a) for a in range(3)]
    form = spec.at(consts, t0).on_grid_slabs(*axes, maps=maps)
    values = np.concatenate([form(s) for s in slabs(grid.dims)])
    slabbed = SlabbedField(grid, form, t1)
    found = _detected(slabbed)
    assert len(np.frombuffer(found[0], dtype=vl.tracker.FACE_DTYPE))
    assert found == _detected(held(grid, values, t1))
    assert found == _detected(SampledField(grid, values, t1, peak=np.abs(values).max()))
