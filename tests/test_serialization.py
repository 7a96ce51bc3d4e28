import csv
import json
import math

import numpy as np
import pytest

import vortexlines as vl
from vortexlines.errors import SpecValidationError
from vortexlines.serialization import (
    consts_from_dict,
    consts_to_dict,
    event_log_to_dict,
    grid_from_dict,
    grid_to_dict,
    spec_from_dict,
    spec_to_dict,
    svg_snapshot,
    write_events,
    write_polylines_csv,
    write_polylines_jsonl,
)
from vortexlines.grids import Grid3
from vortexlines.tracker import Event, EventLog, VortexPolyline

K = vl.WaveVector(0.3, -0.2, 0.4)

SPECS = [
    vl.FreePlaneWave(k=K),
    vl.FreeLineVortex(chi=0.6, k=K),
    vl.FreeRingCylinder(R=2.0, a=0.7, k=K),
    vl.FreeRingSphere(R=3.0, a=1.0),
    vl.FreeTwoLines(
        w1=(1.0, 0.5j, 1j), r1=(0.3, 0.0, 0.0),
        w2=(0.2, 1.0, -1j), r2=(-0.3, 0.1, 0.0),
    ),
    vl.FreeTwoLinesSymmetric(a=1.0, varphi=0.7),
    vl.GaussianPacket(l=1.5, k=K),
    vl.GaussianLineVortex(l=1.5, x0=0.4),
    vl.MagneticGenerator(B=1.3),
    vl.MagneticLine(B=1.3, a=0.8, varphi=0.5),
    vl.TrapGenerator(omega=0.9),
    vl.TrapRing(omega=0.9, R=1.2),
    vl.RelPlaneWave(k=K),
    vl.RelLineVortex(chi=0.6, k=K),
    vl.RelRingCylinder(R=2.0, a=0.7, k=K),
    vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5),
    vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_spec_round_trip(spec):
    data = spec_to_dict(spec)
    json.dumps(data)  # must be plain-JSON serializable
    assert spec_from_dict(data) == spec


def test_spec_from_dict_rejects_bad_input():
    with pytest.raises(SpecValidationError):
        spec_from_dict({"family": "NoSuchFamily"})
    with pytest.raises(SpecValidationError):
        spec_from_dict({"family": "TrapRing", "omega": 1.0, "R": 1.0, "bogus": 3})
    # A vector of the wrong length is refused as the family's, not as a bare
    # unpacking error.
    for data in ({"family": "FreePlaneWave", "k": [1.0, 2.0]},
                 {"family": "FreeTwoLines", "w1": [[1.0, 0.0]], "r1": [0.0, 0.0, 0.0],
                  "w2": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "r2": [0.0, 0.0, 0.0]}):
        with pytest.raises(SpecValidationError, match=data["family"]):
            spec_from_dict(data)


def test_consts_and_grid_round_trip():
    consts = vl.PhysicalConstants(hbar=2.0, mass=3.0, charge=0.5, light_speed=5.0)
    assert consts_from_dict(consts_to_dict(consts)) == consts
    grid = Grid3((0.1, 0.2, 0.3), (0.5, 0.5, 0.25), (8, 8, 16))
    assert grid_from_dict(grid_to_dict(grid)) == grid


def _sample_frames():
    theta = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    ring = VortexPolyline(
        np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1),
        closed=True, winding=1, frame_time=0.0,
    )
    segment = VortexPolyline(
        np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]),
        closed=False, winding=-1, frame_time=0.1,
    )
    return [[ring], [ring, segment]], [0.0, 0.1]


def test_polyline_writers(tmp_path):
    frames, times = _sample_frames()
    jsonl = tmp_path / "lines.jsonl"
    write_polylines_jsonl(jsonl, frames, times)
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(records) == 3
    assert records[0]["frame"] == 0 and records[0]["closed"] is True
    assert records[2]["winding"] == -1
    assert len(records[0]["points"]) == 3 * 12

    # Times as `scenario.run` passes them, numpy floats like the points.
    path = tmp_path / "lines.csv"
    write_polylines_csv(path, frames, np.asarray(times))
    header, *rows = csv.reader(path.read_text().splitlines())
    assert header == ["frame", "t", "line_id", "closed", "winding", "point_index", "x", "y", "z"]
    assert len(rows) == 12 + 12 + 2
    for row in rows:
        i, t, j, closed, winding, n, *point = row
        assert float(t) == times[int(i)] and int(closed) in (0, 1) and int(winding) in (-1, 1)
        assert [float(v) for v in point] == frames[int(i)][int(j)].points[int(n)].tolist()


def test_event_log_serialization(tmp_path):
    log = EventLog()
    log.events.append(
        Event("annihilation", 0.9, 1.0, (0.0, -0.9, 0.0), 18, 19, details="pair",
              t=0.95)
    )
    log.warnings.append("something noteworthy")
    data = event_log_to_dict(log)
    assert data["events"][0]["kind"] == "annihilation"
    assert data["events"][0]["t"] == 0.95
    assert data["warnings"] == ["something noteworthy"]
    path = tmp_path / "events.json"
    write_events(path, log)
    assert json.loads(path.read_text()) == data


def test_serialization_is_deterministic(tmp_path):
    frames, times = _sample_frames()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_polylines_jsonl(a, frames, times)
    write_polylines_jsonl(b, frames, times)
    assert a.read_bytes() == b.read_bytes()


def test_svg_snapshot(tmp_path):
    frames, _ = _sample_frames()
    path = tmp_path / "frame.svg"
    svg_snapshot(frames[1], (-2, -2, -2), (2, 2, 2), path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 2
    assert "#d62728" in text and "#1f77b4" in text  # one line of each sign
