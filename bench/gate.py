"""Reference-artifact gate: a pass counts only if its artifacts match.

A scenario result is reduced to a digest -- per-line frame, closedness,
winding and point count; all refined points; event kinds with their frame
brackets; check names, pass/fail and measured values -- and compared with a
digest recorded by `record.py`.  Tolerances:

* points: within POINT_TOLERANCE cell diagonals (Euclidean, per point).
  Stored as float32, whose rounding is below 1e-5 of any cell diagonal here.
* line counts, closedness, winding, event kinds and brackets, check names
  and pass/fail: exact.
* check measured values: within CHECK_TOLERANCE of the check's own
  tolerance (plus 1e-9 relative), so roundoff-level values such as
  equation residuals may move while any real change trips the gate.
* the oracle's L2 error (the first `oracle` record) is gated on pass/fail
  only: `l2_relative_error` computes sqrt(1 - overlap), which cannot
  resolve errors below about 1e-8 and cancels to exactly 0.0 for both
  oracle presets, so its value carries no information there.

Run this file directly to run the self-test.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

POINT_TOLERANCE = 1e-4
CHECK_TOLERANCE = 1e-2
PASS_FAIL_ONLY = {("oracle", 0)}  # (check name, occurrence in the scenario)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(result, config) -> dict:
    """The compared content of one `scenario.run` result."""
    frames = result.frames
    lines = [(i, line) for i, frame in enumerate(frames) for line in frame]
    points = [line.points for _, line in lines]
    return {
        "n_frames": np.array(len(frames)),
        "diag": np.array(config.grid.cell_diagonal),
        "line_frame": np.array([i for i, _ in lines], dtype=np.int32),
        "line_closed": np.array([line.closed for _, line in lines], dtype=bool),
        "line_winding": np.array([line.winding for _, line in lines], dtype=np.int32),
        "line_npts": np.array([len(p) for p in points], dtype=np.int32),
        "points": np.concatenate(points) if points else np.zeros((0, 3)),
        "event_kind": np.array([e.kind for e in result.event_log.events], dtype=str),
        "event_frames": np.array(
            [(e.frame_lo, e.frame_hi) for e in result.event_log.events], dtype=np.int32
        ).reshape(-1, 2),
        "check_name": np.array([c.name for c in result.checks], dtype=str),
        "check_passed": np.array([c.passed for c in result.checks], dtype=bool),
        "check_measured": np.array([c.measured for c in result.checks], dtype=float),
        "check_tolerance": np.array([c.tolerance for c in result.checks], dtype=float),
    }


def save(path: Path, data: dict) -> None:
    data = dict(data, points=data["points"].astype(np.float32))
    np.savez_compressed(path, **data)


def load(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


def compare(got: dict, ref: dict) -> list[str]:
    """Every way `got` differs from the reference; empty when it matches."""
    problems = []
    if int(got["n_frames"]) != int(ref["n_frames"]):
        return [f"frame count {int(got['n_frames'])} != {int(ref['n_frames'])}"]
    for key in ("line_frame", "line_closed", "line_winding", "line_npts"):
        if not np.array_equal(got[key], ref[key]):
            problems.append(f"{key} differs")
    if not problems:
        dist = np.linalg.norm(got["points"] - ref["points"].astype(float), axis=1)
        limit = POINT_TOLERANCE * float(ref["diag"])
        if dist.size and dist.max() > limit:
            worst = int(np.argmax(dist))
            problems.append(
                f"point {worst} moved {dist[worst]:.3g} > {limit:.3g} "
                f"({POINT_TOLERANCE:g} cell diagonals)"
            )
    if not (
        np.array_equal(got["event_kind"], ref["event_kind"])
        and np.array_equal(got["event_frames"], ref["event_frames"])
    ):
        problems.append(
            f"events {list(zip(got['event_kind'], got['event_frames'].tolist()))} != "
            f"{list(zip(ref['event_kind'], ref['event_frames'].tolist()))}"
        )
    if not np.array_equal(got["check_name"], ref["check_name"]):
        problems.append(f"checks {got['check_name'].tolist()} != {ref['check_name'].tolist()}")
        return problems
    seen: dict[str, int] = {}
    for i, name in enumerate(ref["check_name"].tolist()):
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        if bool(got["check_passed"][i]) != bool(ref["check_passed"][i]):
            problems.append(f"check {name}#{occurrence} passed={bool(got['check_passed'][i])}")
        if (name, occurrence) in PASS_FAIL_ONLY:
            continue
        m, r = float(got["check_measured"][i]), float(ref["check_measured"][i])
        if math.isnan(m) and math.isnan(r):
            continue
        slack = CHECK_TOLERANCE * float(ref["check_tolerance"][i]) + 1e-9 * abs(r)
        if not abs(m - r) <= slack:
            problems.append(f"check {name}#{occurrence} measured {m!r} != {r!r} +- {slack:.3g}")
    return problems


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"gate self-test failed: {message}")


def selftest(names) -> None:
    """Raise unless the gate accepts each reference as is and trips on a
    perturbed polyline point and on a dropped event."""
    for name in dict.fromkeys(list(names) + ["fig1"]):
        ref = load(REFERENCE_DIR / f"{name}.npz")
        same = dict(ref, points=ref["points"].astype(float))
        _expect(compare(same, ref) == [], f"{name}: gate rejects its own reference")
        moved = same["points"].copy()
        moved[len(moved) // 2, 0] += 0.01 * float(ref["diag"])
        _expect(any("moved" in p for p in compare(dict(same, points=moved), ref)),
                f"{name}: gate missed a point moved by 0.01 cell diagonals")
        if len(ref["event_kind"]):
            dropped = dict(same, event_kind=ref["event_kind"][1:],
                           event_frames=ref["event_frames"][1:])
            _expect(any(p.startswith("events") for p in compare(dropped, ref)),
                    f"{name}: gate missed a dropped event")


if __name__ == "__main__":
    selftest(sorted(p.stem for p in REFERENCE_DIR.glob("*.npz")))
    print("gate self-test passed")
    sys.exit(0)
