"""JSON/JSONL/CSV/SVG serialization of specs, fields, polylines and events.

All writers are deterministic: fixed key order, fixed float formatting, no
timestamps or environment-dependent content.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .catalog import FAMILY_BY_NAME, SolutionSpec, WaveVector
from .constants import PhysicalConstants
from .errors import SpecValidationError
from .grids import Grid3
from .tracker import Event, EventLog, VortexPolyline

_COMPLEX_VECTOR_FIELDS = {"w1", "w2"}
_REAL_VECTOR_FIELDS = {"r1", "r2"}

#: SVG snapshots look along y, onto the (x, z) plane, 480 pixels square.
SVG_VIEW_AXIS = 1
SVG_SIZE = 480


def spec_to_dict(spec: SolutionSpec) -> dict:
    out = {"family": type(spec).__name__}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, WaveVector):
            out[f.name] = [value.kx, value.ky, value.kz]
        elif f.name in _COMPLEX_VECTOR_FIELDS:
            out[f.name] = [[c.real, c.imag] for c in value]
        elif f.name in _REAL_VECTOR_FIELDS:
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def spec_from_dict(data: dict) -> SolutionSpec:
    data = dict(data)
    family = data.pop("family", None)
    if family not in FAMILY_BY_NAME:
        raise SpecValidationError(f"unknown solution family {family!r}")
    cls = FAMILY_BY_NAME[family]
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecValidationError(
            f"unknown fields for {family}: {sorted(unknown)}"
        )
    kwargs = {}
    for name, value in data.items():
        if name == "k":
            kwargs[name] = WaveVector.of(value)
        elif name in _COMPLEX_VECTOR_FIELDS:
            kwargs[name] = tuple(complex(re, im) for re, im in value)
        elif name in _REAL_VECTOR_FIELDS:
            kwargs[name] = tuple(float(v) for v in value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SpecValidationError(f"{family}: {exc}") from None


def consts_to_dict(consts: PhysicalConstants) -> dict:
    return dataclasses.asdict(consts)


def consts_from_dict(data: dict) -> PhysicalConstants:
    return PhysicalConstants(**data)


def grid_to_dict(grid: Grid3) -> dict:
    return {
        "origin": list(grid.origin),
        "spacing": list(grid.spacing),
        "dims": list(grid.dims),
    }


def grid_from_dict(data: dict) -> Grid3:
    return Grid3(tuple(data["origin"]), tuple(data["spacing"]), tuple(data["dims"]))


def dump_json(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def polyline_record(frame: int, t: float, line_id: int, line: VortexPolyline) -> dict:
    return {
        "frame": frame,
        "t": t,
        "line_id": line_id,
        "closed": line.closed,
        "winding": line.winding,
        "points": line.points.ravel().tolist(),
    }


def write_polylines_jsonl(path, frames: list[list[VortexPolyline]], times) -> None:
    """One JSON record per line per frame, points as flat x,y,z triplets."""
    with open(path, "w") as fh:
        for i, (t, lines) in enumerate(zip(times, frames)):
            for j, line in enumerate(lines):
                fh.write(json.dumps(polyline_record(i, float(t), j, line),
                                    sort_keys=True))
                fh.write("\n")


def write_polylines_csv(path, frames: list[list[VortexPolyline]], times) -> None:
    """Tabular variant: one refined point per row."""
    with open(path, "w") as fh:
        fh.write("frame,t,line_id,closed,winding,point_index,x,y,z\n")
        for i, (t, lines) in enumerate(zip(times, frames)):
            for j, line in enumerate(lines):
                for n, p in enumerate(line.points):
                    fh.write(
                        f"{i},{t!r},{j},{int(line.closed)},{line.winding},"
                        f"{n},{p[0]!r},{p[1]!r},{p[2]!r}\n"
                    )


def event_to_dict(event: Event) -> dict:
    return {
        "kind": event.kind,
        "t": event.t,
        "t_lo": event.t_lo,
        "t_hi": event.t_hi,
        "location": [float(v) for v in event.location],
        "frame_lo": event.frame_lo,
        "frame_hi": event.frame_hi,
        "details": event.details,
    }


def event_log_to_dict(log: EventLog) -> dict:
    return {
        "events": [event_to_dict(e) for e in log.events],
        "warnings": list(log.warnings),
    }


def write_events(path, log: EventLog) -> None:
    dump_json(event_log_to_dict(log), path)


def svg_snapshot(lines: list[VortexPolyline], bounds_lo, bounds_hi, path) -> None:
    """Orthographic projection of one frame's polylines along `SVG_VIEW_AXIS`."""
    ax_u, ax_v = [a for a in range(3) if a != SVG_VIEW_AXIS]
    lo = np.asarray(bounds_lo, dtype=float)
    hi = np.asarray(bounds_hi, dtype=float)
    span_u = hi[ax_u] - lo[ax_u]
    span_v = hi[ax_v] - lo[ax_v]
    scale = SVG_SIZE / max(span_u, span_v)

    def project(p):
        u = (p[ax_u] - lo[ax_u]) * scale
        v = SVG_SIZE - (p[ax_v] - lo[ax_v]) * scale
        return f"{u:.3f},{v:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for line in lines:
        pts = line.points
        if line.closed:
            pts = np.vstack([pts, pts[:1]])
        color = "#d62728" if line.winding > 0 else "#1f77b4"
        coords = " ".join(project(p) for p in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
