import numpy as np
import pytest

import vortexlines as vl
from vortexlines.errors import GridMismatchError, SpecValidationError
from vortexlines.grids import (
    Grid3,
    SampledField,
    load_checkpoint,
    require_same_grid,
    sample,
    save_checkpoint,
)

C = vl.NATURAL_UNITS


def test_grid_construction_and_properties():
    grid = Grid3.centered((0.5, 0.0, -0.5), (2.0, 4.0, 6.0), (5, 9, 13))
    assert grid.origin == pytest.approx((-0.5, -2.0, -3.5))
    assert grid.spacing == pytest.approx((0.5, 0.5, 0.5))
    assert grid.lengths == pytest.approx((2.0, 4.0, 6.0))
    assert grid.cell_diagonal == pytest.approx(np.sqrt(3 * 0.25))
    assert np.allclose(grid.axis_coords(0), [-0.5, 0.0, 0.5, 1.0, 1.5])
    pts = grid.points()
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
])
def test_grid_rejects_axes_that_are_not_three_integers(origin, spacing, dims):
    with pytest.raises(SpecValidationError):
        Grid3(origin, spacing, dims)


def test_sampled_field_validation():
    grid = Grid3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    with pytest.raises(SpecValidationError):
        SampledField(grid, np.zeros((4, 4, 5), dtype=complex), 0.0)
    bad = np.zeros((4, 4, 4), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(SpecValidationError):
        SampledField(grid, bad, 0.0)


def test_require_same_grid():
    g1 = Grid3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    g2 = Grid3((0.1, 0, 0), (1, 1, 1), (4, 4, 4))
    f1 = SampledField(g1, np.zeros(g1.dims, complex), 0.0)
    f2 = SampledField(g2, np.zeros(g2.dims, complex), 0.0)
    require_same_grid(f1, f1)
    with pytest.raises(GridMismatchError):
        require_same_grid(f1, f2)


def test_checkpoint_round_trip(tmp_path):
    grid = Grid3.centered((0.1, 0.2, 0.3), (3.0, 3.0, 3.0), (6, 7, 8))
    field = sample(vl.FreeRingCylinder(R=1.0, a=0.5), C, grid, t=0.25)
    path = tmp_path / "field.vlf"
    save_checkpoint(field, path)
    loaded = load_checkpoint(path)
    assert loaded.grid == field.grid
    assert loaded.time == field.time
    assert np.array_equal(loaded.values, field.values)
    # Byte-stable: saving the loaded field reproduces the file exactly.
    path2 = tmp_path / "field2.vlf"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_layout_is_x_fastest_little_endian(tmp_path):
    grid = Grid3((0, 0, 0), (1, 1, 1), (4, 4, 4))
    values = np.zeros((4, 4, 4), dtype=complex)
    values[1, 0, 0] = 2.0 + 3.0j  # second x index, first y/z
    field = SampledField(grid, values, 0.0)
    path = tmp_path / "layout.vlf"
    save_checkpoint(field, path)
    raw = np.frombuffer(path.read_bytes()[len(path.read_bytes()) - 2 * 64 * 8 :], "<f8")
    assert raw[2] == 2.0 and raw[3] == 3.0  # element index 1 along x


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.vlf"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(SpecValidationError):
        load_checkpoint(path)
