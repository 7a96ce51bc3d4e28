import tracemalloc

import numpy as np
import pytest

from vortexlines.grids import SlabbedField


def held(grid, values, t=0.0) -> SlabbedField:
    """values, psi on every node of grid, as a whole-grid field held in
    memory: each slab is a view of values' planes."""
    return SlabbedField(grid, np.asarray(values, dtype=complex).__getitem__, float(t))


def on_grid(spec, consts, grid, t) -> np.ndarray:
    """spec's psi at time t on every node of grid: `Snapshot.on_grid`'s one
    product, the whole-grid reference."""
    return spec.at(consts, t).on_grid(*(grid.axis_coords(a) for a in range(3)))


def whole(spec, consts, grid, t) -> SlabbedField:
    """spec sampled on every node of grid at time t, held (`on_grid`)."""
    return held(grid, on_grid(spec, consts, grid, t), t)


@pytest.fixture
def traced_peak():
    """peak(fn, *args): (fn's result, the peak bytes fn's allocations held)."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
