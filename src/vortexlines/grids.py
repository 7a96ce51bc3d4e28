"""Rectilinear sampling grids and sampled complex fields, on a box of a
grid's nodes or on the whole grid.

A whole-grid field is a `SlabbedField`: formed slab by slab from axis rows
where it is read, or held, `SlabbedField(grid, values.__getitem__, t)`.  It
finds its peak |psi|, and its max |psi| over each plane normal to each axis
(three 1-D profiles), in the first pass over its slabs that checks them
finite, so it pays no pass of its own; the tracker codes only the box of
nodes the profiles put at or above its noise floor.  A `FormedField` is
only checked finite in that pass.  A `SampledField` holds values on a box
of the grid: `sample` gives an analytic field on its zero box, with a bound
of |psi| outside the box and a search for the peak, which detection runs
only where a node's |psi| lies between the noise floors of the box's max
and of the bound."""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .catalog import SolutionSpec
from .constants import PhysicalConstants
from .errors import NON_FINITE, GridMismatchError, SpecValidationError

#: The most points one slab of a whole-grid pass holds: 2**15 complex values,
#: 512 kB, stay in a core's L2 cache, so a pass over slabs holds no
#: whole-grid temporary.
SLAB_POINTS = 1 << 15


@dataclass(frozen=True)
class Grid3:
    """A rectilinear 3D grid: origin corner, spacing per axis, points per axis."""

    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        if not np.shape(self.origin) == np.shape(self.spacing) == np.shape(self.dims) == (3,):
            raise SpecValidationError("grid origin, spacing and dims must have 3 entries each")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        try:
            object.__setattr__(self, "dims", tuple(operator.index(v) for v in self.dims))
        except TypeError:
            raise SpecValidationError(f"grid dims must be integers, got {self.dims}") from None
        if not np.all(np.isfinite(self.origin + self.spacing)):
            raise SpecValidationError("grid origin and spacing must be finite")
        if any(not (s > 0) for s in self.spacing):
            raise SpecValidationError("grid spacing must be strictly positive")
        if any(d < 4 for d in self.dims):
            raise SpecValidationError("grid must have at least 4 points per axis")

    @staticmethod
    def centered(center, lengths, dims) -> "Grid3":
        """Grid spanning center +- lengths/2 with dims points per axis."""
        center = np.asarray(center, dtype=float)
        lengths = np.broadcast_to(np.asarray(lengths, dtype=float), (3,))
        # Uncast, so the constructor rejects dims that are not integers.
        dims = np.broadcast_to(dims, (3,))
        spacing = lengths / (dims - 1)
        origin = center - lengths / 2.0
        return Grid3(tuple(origin), tuple(spacing), tuple(dims))

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))

    @property
    def lengths(self) -> tuple[float, float, float]:
        return tuple(
            self.spacing[a] * (self.dims[a] - 1) for a in range(3)
        )


class SampledField:
    """Complex amplitudes on a box of a grid's nodes at a fixed time.

    `box`, three slices of grid nodes (unit step), is where the values are
    held, and values has the box's shape; the default box is the whole grid.
    The tracker's noise floor scales with the whole grid's peak |psi|.  A
    field is given that `peak`, or `bound`, an upper bound of |psi| on every
    grid node outside the box, and `search`, a function of the box's own max
    |psi| that returns the peak (`sample`): the peak lies between that max
    and the larger of it and bound.  A field given a bound has peak None,
    and no field on a box has profiles.
    """

    #: A box field has no max |psi| profiles: detection codes its whole box.
    profiles = None

    def __init__(
        self, grid: Grid3, values, time: float, box=(slice(None),) * 3,
        peak: float | None = None, *, bound: float | None = None,
        search: Callable[[float], float] | None = None,
    ):
        values = np.asarray(values, dtype=complex)
        box = tuple(box)
        if len(box) != 3 or not all(isinstance(s, slice) and s.step in (None, 1) for s in box):
            raise SpecValidationError(f"box must be three slices of unit step, got {box}")
        shape = tuple(len(range(*s.indices(n))) for s, n in zip(box, grid.dims))
        if values.shape != shape:
            raise SpecValidationError(
                f"values shape {values.shape} does not match grid dims {grid.dims}"
                + ("" if shape == grid.dims else f" on the box {shape}")
            )
        if (peak is None) == (bound is None) or (bound is None) != (search is None):
            raise SpecValidationError("a field is given its peak |psi|, or a bound with a search")
        given = peak if bound is None else bound
        if not (0.0 <= given < math.inf):
            name = "peak" if bound is None else "bound"
            raise SpecValidationError(f"{name} |psi| must be finite and >= 0, got {given!r}")
        for s in slabs(shape):
            _require_finite(values[s])
        self.grid, self.values, self.time, self.box = grid, values, time, box
        #: The max |psi| over the whole grid, or None.
        self.peak = peak
        #: An upper bound of |psi| on the grid's nodes outside the box, or None.
        self.bound = bound
        #: The whole grid's peak from the box's max |psi|, or None.
        self.search = search

    @property
    def shape(self) -> tuple[int, int, int]:
        """The box's shape."""
        return self.values.shape

    def slab(self, s: slice) -> np.ndarray:
        """The values on the x planes s of the box."""
        return self.values[s]

    @property
    def offset(self) -> np.ndarray:
        """The grid index of the box's lowest node."""
        return np.array([s.indices(n)[0] for s, n in zip(self.box, self.grid.dims)])


def sample(spec: SolutionSpec, consts: PhysicalConstants, grid: Grid3, t: float) -> SampledField:
    """Evaluate the analytic solution on the box of the grid's nodes that
    holds every block where the prefactor P may vanish
    (`Snapshot.on_zero_box`; e^G never does), so the field holds every
    line, from the box's axis vectors, never an array of all points.  It
    bounds |psi| outside the box, and its `search` finds the whole grid's
    exact peak |psi|, which the tracker's noise floor needs only where a
    node's |psi| lies between the floors of the box's max and of the bound.
    A P beyond the block bound's degree 2 is refused
    (`Snapshot.prefactor_bounds`).
    """
    axes = [grid.axis_coords(a) for a in range(3)]
    box, values, bound, search = spec.at(consts, t).on_zero_box(*axes)
    return SampledField(grid, values, float(t), box=box, bound=bound, search=search)


class FormedField:
    """Complex amplitudes on the whole grid at a fixed time, formed slab by
    slab where they are read rather than held: `slab(s)` returns the values
    on the x planes s (a slice of the x axis, as from `slabs`), so a pass
    over slabs holds one slab at a time.  Until every x plane has been read
    once, each slab read is refused if it is not finite, as a `SampledField`
    refuses its values.  `form` must give the same values for a plane at
    every read."""

    def __init__(self, grid: Grid3, form: Callable[[slice], np.ndarray], time: float):
        self.grid, self.form, self.time = grid, form, float(time)
        self.shape = grid.dims
        self.offset = np.zeros(3, dtype=np.intp)
        self._unread = np.ones(grid.dims[0], dtype=bool)

    def slab(self, s: slice) -> np.ndarray:
        values = self.form(s)
        if self._unread is not None:
            self._first_read(s, values)
            self._unread[s] = False
            if not self._unread.any():
                self._unread = None
        return values

    def _first_read(self, s: slice, values: np.ndarray):
        _require_finite(values)


class SlabbedField(FormedField):
    """A `FormedField` that finds its peak |psi| and max |psi| profiles in
    the first pass that reads it, for the tracker: the first read of each x
    plane folds its max |psi| into the `profiles`, which refuses it if it is
    not finite; `peak` and `profiles` read the grid in one pass of their own
    only if no pass has.  A grid held in memory is one too,
    `SlabbedField(grid, values.__getitem__, t)`: each slab is a view of
    values' planes."""

    #: A whole-grid field has no node outside its box to bound.
    bound = None

    def __init__(self, grid: Grid3, form: Callable[[slice], np.ndarray], time: float):
        super().__init__(grid, form, time)
        self._maxima = np.zeros(grid.dims[0]), np.zeros(grid.dims[1:])
        self._profiles = None

    def _first_read(self, s: slice, values: np.ndarray):
        _fold_maxima(self._maxima, s, values)

    @property
    def profiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The max |psi| over each plane normal to x, y and z."""
        if self._profiles is None:
            if self._unread is not None:
                for s in slabs(self.grid.dims):
                    self.slab(s)
            along_x, across = self._maxima
            self._profiles = along_x, across.max(axis=1), across.max(axis=0)
        return self._profiles

    @property
    def peak(self) -> float:
        """The max |psi| over the grid."""
        return float(self.profiles[0].max())


def _fold_maxima(maxima, s: slice, values: np.ndarray):
    """Fold values, psi on the x planes s, into maxima: the max |psi| over
    each x plane, and over x at each (y, z) node.  The max |psi| is finite
    only where every value is: values that are not are refused."""
    amps = np.abs(values)
    planes = amps.reshape(len(amps), -1).max(axis=1)
    top = float(planes.max())
    if not math.isfinite(top):
        _require_finite(values)
        raise SpecValidationError(f"peak |psi| must be finite, got {top!r}")
    along_x, across = maxima
    along_x[s] = planes
    np.maximum(across, amps.max(axis=0), out=across)


def _require_finite(values: np.ndarray):
    """Refuse complex values that are not all finite, both parts tested at
    once on the real view where the last axis is contiguous."""
    if values.strides[-1] == values.itemsize:
        values = values.view(float)
    if not np.isfinite(values).all():
        raise SpecValidationError(NON_FINITE)


def sample_in_slabs(
    spec: SolutionSpec, consts: PhysicalConstants, grid: Grid3, t: float
) -> FormedField:
    """The analytic solution on the whole grid, formed slab by slab where it
    is read (`Snapshot.on_grid_slabs`): each slab is those planes of
    `Snapshot.on_grid`'s one product.  It finds no peak or profiles, which
    only a detected field needs."""
    axes = [grid.axis_coords(a) for a in range(3)]
    return FormedField(grid, spec.at(consts, t).on_grid_slabs(*axes), float(t))


def slabs(shape) -> list[slice]:
    """Slices of the first axis of an array of `shape`, in order, that cover
    it in slabs of at least one plane and at most SLAB_POINTS points where a
    plane fits; none where an axis is empty."""
    planes, plane = shape[0], math.prod(shape[1:])
    if planes == 0 or plane == 0:
        return []
    step = max(1, SLAB_POINTS // plane)
    return [slice(i, min(i + step, planes)) for i in range(0, planes, step)]


def require_whole_grid(field, kind: type = FormedField):
    """Refuse a field that is not a `kind` of whole-grid field, such as a
    `SampledField`, which holds values on a box of its grid only."""
    if not isinstance(field, kind):
        raise SpecValidationError(
            f"{type(field).__name__} of {field.shape} nodes on a {field.grid.dims} grid; "
            f"this needs the whole grid as a {kind.__name__}"
        )


def require_same_grid(a: FormedField, b: FormedField):
    require_whole_grid(a)
    require_whole_grid(b)
    if a.grid != b.grid:
        raise GridMismatchError("sampled fields live on different grids")
