import numpy as np
import pytest
from conftest import held, on_grid

import vortexlines as vl
from vortexlines.errors import GridMismatchError, SpecValidationError
from vortexlines import grids
from vortexlines.grids import (
    Grid3,
    SampledField,
    SlabbedField,
    require_same_grid,
    sample,
    sample_in_slabs,
    slabs,
)

C = vl.NATURAL_UNITS


def test_grid_construction_and_properties():
    grid = Grid3.centered((0.5, 0.0, -0.5), (2.0, 4.0, 6.0), (5, 9, 13))
    assert grid.origin == pytest.approx((-0.5, -2.0, -3.5))
    assert grid.spacing == pytest.approx((0.5, 0.5, 0.5))
    assert grid.lengths == pytest.approx((2.0, 4.0, 6.0))
    assert grid.cell_diagonal == pytest.approx(np.sqrt(3 * 0.25))
    assert np.allclose(grid.axis_coords(0), [-0.5, 0.0, 0.5, 1.0, 1.5])
    pts = np.stack(np.meshgrid(*map(grid.axis_coords, range(3)), indexing="ij"), axis=-1)
    assert pts.shape == (5, 9, 13, 3)
    assert pts[0, 0, 0] == pytest.approx((-0.5, -2.0, -3.5))
    assert pts[-1, -1, -1] == pytest.approx((1.5, 2.0, 2.5))


def test_grid_validation():
    with pytest.raises(SpecValidationError):
        Grid3((0, 0, 0), (0.0, 1.0, 1.0), (8, 8, 8))
    with pytest.raises(SpecValidationError):
        Grid3((0, 0, 0), (1.0, 1.0, 1.0), (3, 8, 8))


@pytest.mark.parametrize("origin, spacing, dims", [
    ((0, 0), (1, 1, 1), (4, 4, 4)),
    ((0, 0, 0), (1, 1, 1, 1), (4, 4, 4)),
    ((0, 0, 0), (1, 1, 1), (4, 4)),
    ((0, 0, 0), (1, 1, 1), (4.5, 4, 4)),
    # No spacing: Grid3.centered, which must not truncate 16.7 to 16.
    pytest.param((0, 0, 0), None, 16.7, id="centered"),
])
def test_grid_rejects_axes_that_are_not_three_integers(origin, spacing, dims):
    with pytest.raises(SpecValidationError):
        if spacing is None:
            Grid3.centered(origin, 4.0, dims)
        else:
            Grid3(origin, spacing, dims)


def test_sampled_field_validation():
    grid = Grid3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    with pytest.raises(SpecValidationError):
        SampledField(grid, np.zeros((4, 4, 5), dtype=complex), 0.0, peak=1.0)
    bad = np.zeros((4, 4, 4), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(SpecValidationError, match="non-finite"):
        SampledField(grid, bad, 0.0, peak=1.0)
    # A box field, the whole grid's box too, is given the grid's peak.
    with pytest.raises(SpecValidationError, match="peak"):
        SampledField(grid, np.zeros((4, 4, 4), dtype=complex), 0.0)


def test_require_same_grid():
    g1 = Grid3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    g2 = Grid3((0.1, 0, 0), (1, 1, 1), (4, 4, 4))
    f1, f2 = held(g1, np.zeros(g1.dims)), held(g2, np.zeros(g2.dims))
    require_same_grid(f1, f1)
    with pytest.raises(GridMismatchError):
        require_same_grid(f1, f2)


def test_sampled_field_on_a_box():
    grid = Grid3((0, 0, 0), (1, 1, 1), (6, 5, 4))
    box = (slice(1, 4), slice(0, 5), slice(2, 2))
    field = SampledField(grid, np.ones((3, 5, 0), complex), 0.0, box=box, peak=2.0)
    assert field.offset.tolist() == [1, 0, 2] and field.shape == (3, 5, 0)
    assert (field.peak, field.bound, field.search, field.profiles) == (2.0, None, None, None)
    with pytest.raises(SpecValidationError):  # values not of the box's shape
        SampledField(grid, np.ones(grid.dims, complex), 0.0, box=box, peak=2.0)
    with pytest.raises(SpecValidationError):  # a box without the grid's peak
        SampledField(grid, np.ones((3, 5, 0), complex), 0.0, box=box)
    with pytest.raises(SpecValidationError):
        SampledField(grid, np.ones((3, 5, 0), complex), 0.0, box=box, peak=np.inf)
    with pytest.raises(SpecValidationError):
        SampledField(grid, np.ones((2, 5, 4), complex), 0.0, box=(slice(0, 4, 2),) * 3, peak=1.0)


def test_a_box_field_given_a_bound_keeps_its_search():
    # The field only holds the search, which detection calls with the box's
    # own max |psi|: its peak is None.  The bound must be finite and >= 0,
    # and comes with a search, not with a peak.
    grid = Grid3((0, 0, 0), (1, 1, 1), (6, 5, 4))
    box = (slice(1, 4), slice(0, 5), slice(0, 4))
    values = np.full((3, 5, 4), 0.5 + 0j)
    values[2, 3, 1] = -3j
    calls = []

    def search(low):
        calls.append(low)
        return 7.0

    field = SampledField(grid, values, 0.0, box=box, bound=7.0, search=search)
    assert (field.peak, field.bound, field.search, field.profiles) == (None, 7.0, search, None)
    assert calls == []
    empty = (slice(1, 1), slice(0, 5), slice(0, 4))
    assert SampledField(grid, values[:0], 0.0, box=empty, bound=1.0, search=abs).shape == (0, 5, 4)
    for bad in ({"bound": np.inf, "search": search}, {"bound": -1.0, "search": search},
                {"bound": np.nan, "search": search}, {"bound": 7.0}, {"search": search},
                {"bound": 7.0, "search": search, "peak": 7.0}):
        with pytest.raises(SpecValidationError):
            SampledField(grid, values, 0.0, box=box, **bad)
    with pytest.raises(SpecValidationError, match="non-finite"):
        SampledField(grid, np.where(values == -3j, np.nan, values), 0.0, box=box, bound=7.0,
                     search=search)


def _box_field():
    """A field sampled on the box where its lines can be: part of the grid."""
    grid = Grid3.centered((0.013, 0.011, 0.017), 4.0, 16)
    field = sample(vl.FreeLineVortex(chi=0.6), C, grid, 0.0)
    assert field.shape != grid.dims
    return field


def test_require_same_grid_refuses_a_box_field():
    field = _box_field()
    grid = field.grid
    whole = held(grid, on_grid(vl.FreeLineVortex(chi=0.6), C, grid, 0.0))
    require_same_grid(whole, whole)
    # On the whole grid's box too, a SampledField is a box field.
    full = SampledField(grid, whole.slab(slice(None)), 0.0, peak=whole.peak)
    for a, b in ((field, whole), (whole, field), (field, field), (full, whole)):
        with pytest.raises(SpecValidationError, match="whole grid"):
            require_same_grid(a, b)


@pytest.mark.parametrize("shape", [(96, 96, 96), (20, 24, 28), (3, 200, 300), (7, 1, 1),
                                   (0, 5, 5), (5, 0, 5)])
def test_slabs_cover_the_first_axis_in_order(shape):
    found = slabs(shape)
    if 0 in shape:
        assert found == []
        return
    plane = shape[1] * shape[2]
    planes = [s.stop - s.start for s in found]
    assert found[0].start == 0 and found[-1].stop == shape[0]
    assert all(a.stop == b.start for a, b in zip(found, found[1:]))
    # At least one plane, and at most SLAB_POINTS points where a plane fits.
    assert all(k >= 1 and (k == 1 or k * plane <= grids.SLAB_POINTS) for k in planes)
    assert all(k == planes[0] for k in planes[:-1])


def test_slabbed_field_refuses_a_non_finite_slab():
    grid = Grid3.centered((0.0, 0.0, 0.0), 4.0, 8)
    field = sample_in_slabs(vl.GaussianPacket(l=1.0), C, grid, 0.0)
    assert field.shape == grid.dims and field.slab(slice(0, 2)).shape == (2, 8, 8)

    def form(s):
        values = field.slab(s)
        values[-1, 3, 5] = complex(0.0, np.nan)
        return values

    with pytest.raises(SpecValidationError, match="non-finite"):
        SlabbedField(grid, form, 0.0).slab(slice(0, 2))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_a_formed_field_refuses_a_non_finite_slab_and_finds_no_maxima(monkeypatch, bad):
    # The L2 error's reference field is checked finite in its first pass,
    # in a middle slab too, but folds no max |psi| profiles.
    grid = Grid3((0, 0, 0), (1, 1, 1), (8, 5, 6))
    monkeypatch.setattr(grids, "SLAB_POINTS", 2 * 5 * 6)
    values = np.ones(grid.dims, complex)
    values[4, 2, 3] = bad
    folded = []
    monkeypatch.setattr(grids, "_fold_maxima", lambda *args: folded.append(args))
    field = grids.FormedField(grid, lambda s: values[s].copy(), 0.0)
    assert not hasattr(field, "peak") and not hasattr(field, "profiles")
    field.slab(slice(0, 4))
    with pytest.raises(SpecValidationError, match="non-finite"):
        field.slab(slice(4, 6))
    assert folded == []
    # Once every plane has been read, reads are not tested again.
    values[4, 2, 3] = 1.0
    for s in slabs(grid.dims):
        field.slab(s)
    values[4, 2, 3] = bad
    assert not np.isfinite(field.slab(slice(4, 6))).all()


def test_a_whole_grid_field_finds_its_peak_in_the_finiteness_pass(monkeypatch):
    grid = Grid3.centered((0.013, 0.011, 0.017), 4.0, (20, 24, 28))
    values = on_grid(vl.FreeRingCylinder(R=1.0, a=0.5), C, grid, 0.25)
    for slab in (24 * 28, 3 * 24 * 28, 10**9):
        monkeypatch.setattr(grids, "SLAB_POINTS", slab)
        for layout in (values, np.asfortranarray(values)):
            field = held(grid, layout, 0.25)
            for s in slabs(grid.dims):
                assert np.shares_memory(field.slab(s), layout)
            assert field.peak == np.abs(values).max()
            for axis, profile in enumerate(field.profiles):
                others = tuple(b for b in range(3) if b != axis)
                assert np.array_equal(profile, np.abs(values).max(axis=others))
    # A box field keeps the peak it is given.
    box = (slice(2, 9), slice(None), slice(None))
    assert SampledField(grid, values[box], 0.25, box=box, peak=7.0).peak == 7.0


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                 complex(np.inf, 0.0), complex(0.0, -np.inf)])
def test_a_non_finite_value_in_a_middle_slab_is_refused(monkeypatch, bad):
    # Python's max keeps its first argument over a NaN, so a peak taken over
    # slabs would drop one that is not in the first slab: every slab's max
    # is tested.
    grid = Grid3((0, 0, 0), (1, 1, 1), (8, 5, 6))
    monkeypatch.setattr(grids, "SLAB_POINTS", 2 * 5 * 6)
    values = np.ones(grid.dims, complex)
    values[4, 2, 3] = bad
    assert len(slabs(grid.dims)) == 4
    with pytest.raises(SpecValidationError, match="non-finite"):
        held(grid, values).peak
    # A box field is tested on the real view of its values where it can be,
    # and on the complex values of another layout.
    box = (slice(2, 7), slice(None), slice(None))
    for layout in (values[box], np.asfortranarray(values[box])):
        with pytest.raises(SpecValidationError, match="non-finite"):
            SampledField(grid, layout, 0.0, box=box, peak=1.0)


def test_a_whole_grid_field_whose_peak_overflows_is_refused():
    grid = Grid3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    values = np.full(grid.dims, complex(1.5e308, 1.5e308))
    with pytest.raises(SpecValidationError, match="peak"):
        held(grid, values).peak
