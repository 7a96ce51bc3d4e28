"""Rectilinear sampling grids, sampled complex fields, and checkpoint IO."""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

from .catalog import SolutionSpec
from .constants import PhysicalConstants
from .errors import GridMismatchError, SpecValidationError

CHECKPOINT_MAGIC = b"VLF1"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4si3q3d3dd")  # magic, version, dims, spacing, origin, time


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

    def points(self) -> np.ndarray:
        """All grid positions, shape dims + (3,)."""
        ax = [self.axis_coords(a) for a in range(3)]
        mesh = np.meshgrid(*ax, indexing="ij")
        return np.stack(mesh, axis=-1)

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))

    @property
    def lengths(self) -> tuple[float, float, float]:
        return tuple(
            self.spacing[a] * (self.dims[a] - 1) for a in range(3)
        )


@dataclass(frozen=True)
class SampledField:
    """Complex amplitudes on a grid at a fixed time."""

    grid: Grid3
    values: np.ndarray
    time: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.dims:
            raise SpecValidationError(
                f"values shape {values.shape} does not match grid dims {self.grid.dims}"
            )
        if not np.all(np.isfinite(values)):
            raise SpecValidationError("sampled field contains non-finite values")
        object.__setattr__(self, "values", values)


def sample(spec: SolutionSpec, consts: PhysicalConstants, grid: Grid3, t: float) -> SampledField:
    """Evaluate the analytic solution on every grid point, from the grid's
    three axis vectors (`Snapshot.on_grid`), never an array of all points."""
    values = spec.at(consts, t).on_grid(*(grid.axis_coords(a) for a in range(3)))
    return SampledField(grid=grid, values=values, time=float(t))


def require_same_grid(a: SampledField, b: SampledField):
    if a.grid != b.grid:
        raise GridMismatchError("sampled fields live on different grids")


def save_checkpoint(field: SampledField, path):
    """Write a field as a small self-describing little-endian binary file."""
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        *field.grid.dims,
        *field.grid.spacing,
        *field.grid.origin,
        field.time,
    )
    # Interleaved re, im pairs with the x index varying fastest.
    flat = field.values.transpose(2, 1, 0).reshape(-1)
    payload = np.empty(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def load_checkpoint(path) -> SampledField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        payload = fh.read()
    if len(header) < _HEADER.size:
        raise SpecValidationError(
            f"checkpoint header has {len(header)} bytes, expected {_HEADER.size}"
        )
    fields = _HEADER.unpack(header)
    magic, version = fields[0], fields[1]
    if magic != CHECKPOINT_MAGIC or version != CHECKPOINT_VERSION:
        raise SpecValidationError(f"not a recognized checkpoint file: {magic!r} v{version}")
    grid = Grid3(fields[8:11], fields[5:8], fields[2:5])
    dims, time = grid.dims, fields[11]
    expected = 16 * dims[0] * dims[1] * dims[2]
    if len(payload) != expected:
        raise SpecValidationError(
            f"checkpoint payload has {len(payload)} bytes, dims {dims} need {expected}"
        )
    raw = np.frombuffer(payload, dtype="<f8")
    values = (raw[0::2] + 1j * raw[1::2]).reshape(dims[::-1]).transpose(2, 1, 0)
    return SampledField(grid, values, time)
