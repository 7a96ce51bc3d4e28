"""Extract and track vortex lines in sampled complex fields.

Detection certifies grid-face crossings by integer phase winding around each
plaquette; crossings are refined either by Newton iteration on the analytic
field (when a solution spec is available) or by a bilinear model of the four
face corners (for purely numerical fields).  Lines are chained cell by cell,
matched across frames, and creation / annihilation / reconnection events are
reported as time brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .catalog import SolutionSpec
from .constants import PhysicalConstants
from .errors import RefinementFailedError, SpecValidationError
from .grids import Grid3, SampledField, sample

TWO_PI = 2.0 * math.pi

#: Edge phase differences this close to pi make the winding untrustworthy.
AMBIGUOUS_EDGE_FRACTION = 0.995

#: A corner amplitude below this fraction of the face's strongest corner
#: flags the face as near-degenerate.
DEGENERACY_FLOOR = 1e-9

#: Faces whose strongest corner is below this fraction of the grid peak are
#: treated as numerical noise and skipped: at that level the phase pattern is
#: roundoff, not signal.
NOISE_FLOOR = 1e-10

#: Newton iterations allowed per refined crossing.
NEWTON_MAX_ITERATIONS = 25

#: Polyline matching cutoff, in cell diagonals.
MATCH_CUTOFF_DIAGONALS = 3.0

#: A disappearing loop/pair within this many diagonals counts as an event.
EVENT_SIZE_DIAGONALS = 4.0


@dataclass(frozen=True)
class PiercedFace:
    """A grid-cell face with nonzero phase winding around its edges.

    The face is normal to `axis`, with `index` the grid index of its corner
    of lowest coordinates; winding is measured right-handed about +axis.
    """

    axis: int
    index: tuple[int, int, int]
    winding: int


#: Ambiguous-face records kept per detection (the count is always exact).
MAX_AMBIGUOUS_RECORDS = 10000


@dataclass(frozen=True)
class DetectionResult:
    pierced: tuple[PiercedFace, ...]
    ambiguous: tuple[tuple[int, tuple[int, int, int]], ...]
    ambiguous_count: int = 0
    #: Winding crossings discarded because every corner sat below the noise
    #: floor; nonzero means lines may terminate inside the box by design.
    noise_count: int = 0


@dataclass(frozen=True)
class VortexPolyline:
    """An ordered chain of refined zero crossings."""

    points: np.ndarray
    closed: bool
    winding: int
    frame_time: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        minimum = 3 if self.closed else 2
        if len(points) < minimum:
            raise SpecValidationError(
                f"polyline needs >= {minimum} points, got {len(points)}"
            )
        if self.winding == 0:
            raise SpecValidationError("polyline winding must be nonzero")
        object.__setattr__(self, "points", points)

    @property
    def length(self) -> float:
        seg = np.diff(self.points, axis=0)
        total = float(np.sum(np.linalg.norm(seg, axis=1)))
        if self.closed:
            total += float(np.linalg.norm(self.points[-1] - self.points[0]))
        return total

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    @property
    def endpoints(self) -> np.ndarray:
        return np.stack([self.points[0], self.points[-1]])


@dataclass(frozen=True)
class Event:
    kind: str  # creation | annihilation | reconnection
    t_lo: float
    t_hi: float
    location: tuple[float, float, float]
    frame_lo: int
    frame_hi: int
    details: str = ""


@dataclass
class EventLog:
    events: list[Event] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]


def _wrap(phase: np.ndarray) -> np.ndarray:
    return np.mod(phase + math.pi, TWO_PI) - math.pi


def detect_pierced_faces(field: SampledField) -> DetectionResult:
    """Find every cell face whose edge phases wind by a nonzero multiple of 2pi."""
    phases = np.angle(field.values)
    amps = np.abs(field.values)
    peak = float(np.max(amps))
    noise = NOISE_FLOOR * peak
    diffs = [_wrap(np.diff(phases, axis=a)) for a in range(3)]
    pierced: list[PiercedFace] = []
    ambiguous: list[tuple[int, tuple[int, int, int]]] = []
    ambiguous_count = 0
    noise_count = 0
    for axis in range(3):
        a1, a2 = (axis + 1) % 3, (axis + 2) % 3

        def cut(arr, lo1=None, lo2=None):
            index = [slice(None)] * 3
            if lo1 is not None:
                index[a1] = slice(None, -1) if lo1 else slice(1, None)
            if lo2 is not None:
                index[a2] = slice(None, -1) if lo2 else slice(1, None)
            return arr[tuple(index)]

        bottom = cut(diffs[a1], lo2=True)
        top = cut(diffs[a1], lo2=False)
        left = cut(diffs[a2], lo1=True)
        right = cut(diffs[a2], lo1=False)
        total = bottom + right - top - left
        winding = np.rint(total / TWO_PI).astype(int)
        # Nested pairwise reductions: a list-based reduce would stack four
        # copies of each face array.
        edge_max = np.maximum(
            np.maximum(np.abs(bottom), np.abs(top)),
            np.maximum(np.abs(left), np.abs(right)),
        )
        c00, c10 = cut(amps, True, True), cut(amps, False, True)
        c01, c11 = cut(amps, True, False), cut(amps, False, False)
        corner_min = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
        corner_max = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
        # Faces whose corners all sit below the global noise floor carry no
        # usable phase information (roundoff tails) and are ignored outright.
        trusted = corner_max >= noise
        flagged = trusted & (
            (edge_max > AMBIGUOUS_EDGE_FRACTION * math.pi)
            | (corner_min < DEGENERACY_FLOOR * corner_max)
        )
        for idx in np.argwhere((winding != 0) & trusted):
            pierced.append(PiercedFace(axis, tuple(int(i) for i in idx),
                                       int(winding[tuple(idx)])))
        flagged_idx = np.argwhere(flagged & (winding == 0))
        ambiguous_count += len(flagged_idx)
        noise_count += int(np.count_nonzero((winding != 0) & ~trusted))
        for idx in flagged_idx[: max(0, MAX_AMBIGUOUS_RECORDS - len(ambiguous))]:
            ambiguous.append((axis, tuple(int(i) for i in idx)))
    return DetectionResult(
        tuple(pierced), tuple(ambiguous), ambiguous_count, noise_count
    )


def cell_winding_balance(detection: DetectionResult, dims) -> int:
    """Max absolute net winding flux out of any grid cell (0 if lines are
    conserved: every line entering a cell also leaves it)."""
    balance: dict[tuple[int, int, int], int] = {}
    for face in detection.pierced:
        upper = face.index
        lower = list(face.index)
        lower[face.axis] -= 1
        for cell, sign in ((tuple(lower), 1), (upper, -1)):
            if all(0 <= cell[a] <= dims[a] - 2 for a in range(3)):
                balance[cell] = balance.get(cell, 0) + sign * face.winding
    return max((abs(v) for v in balance.values()), default=0)


def _face_corner_positions(grid: Grid3, face: PiercedFace):
    axis, idx = face.axis, np.asarray(face.index, dtype=float)
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    base = np.asarray(grid.origin) + np.asarray(grid.spacing) * idx
    e1 = np.zeros(3)
    e1[a1] = grid.spacing[a1]
    e2 = np.zeros(3)
    e2[a2] = grid.spacing[a2]
    return base, e1, e2


def _bilinear_zero(field: SampledField, face: PiercedFace) -> np.ndarray:
    """Zero of the bilinear corner model of psi on the face, in world coords."""
    axis, (i, j, k) = face.axis, face.index
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    corner = [i, j, k]

    def value(d1, d2):
        idx = list(corner)
        idx[a1] += d1
        idx[a2] += d2
        return field.values[tuple(idx)]

    v00, v10, v01, v11 = value(0, 0), value(1, 0), value(0, 1), value(1, 1)
    u = np.array([0.5, 0.5])
    for _ in range(12):
        f = (v00 * (1 - u[0]) * (1 - u[1]) + v10 * u[0] * (1 - u[1])
             + v01 * (1 - u[0]) * u[1] + v11 * u[0] * u[1])
        fu = (v10 - v00) * (1 - u[1]) + (v11 - v01) * u[1]
        fv = (v01 - v00) * (1 - u[0]) + (v11 - v10) * u[0]
        jac = np.array([[fu.real, fv.real], [fu.imag, fv.imag]])
        rhs = np.array([f.real, f.imag])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            break
        u = np.clip(u - step, 0.0, 1.0)
        if np.linalg.norm(step) < 1e-12:
            break
    base, e1, e2 = _face_corner_positions(field.grid, face)
    return base + u[0] * e1 + u[1] * e2


def refine_point(
    spec: SolutionSpec,
    consts: PhysicalConstants,
    t: float,
    seed,
    face_normal_axis: int,
) -> np.ndarray:
    """Newton-refine a zero crossing within the plane normal to the given axis."""
    refined = _refine_batch(
        spec, consts, t, np.asarray(seed, dtype=float).reshape(1, 3), face_normal_axis
    )
    return refined[0]


def _refine_batch(spec, consts, t, seeds, axis):
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    pts = np.array(seeds, dtype=float)
    scale = spec.length_scale(consts)
    snapshot = spec.at(consts, t)
    active = np.ones(len(pts), dtype=bool)
    for _ in range(NEWTON_MAX_ITERATIONS):
        field = snapshot.on(pts[active])
        psi, grad = field.psi, field.grad
        gmag = np.linalg.norm(grad, axis=-1)
        done = np.abs(psi) <= 1e-12 * gmag * scale
        still = ~done
        idx = np.flatnonzero(active)
        active[idx[done]] = False
        if not np.any(active):
            return pts
        sub = idx[still]
        gu, gv = grad[still][:, a1], grad[still][:, a2]
        det = gu.real * gv.imag - gu.imag * gv.real
        bad = np.abs(det) < 1e-300
        if np.any(bad):
            raise RefinementFailedError(
                "degenerate Jacobian during Newton refinement",
                last_iterate=pts[sub[bad][0]],
            )
        f = psi[still]
        du = (f.real * gv.imag - f.imag * gv.real) / det
        dv = (f.imag * gu.real - f.real * gu.imag) / det
        pts[sub, a1] -= du
        pts[sub, a2] -= dv
    raise RefinementFailedError(
        f"no convergence in {NEWTON_MAX_ITERATIONS} Newton iterations",
        last_iterate=pts[np.flatnonzero(active)[0]],
    )


def analytic_refiner(spec: SolutionSpec, consts: PhysicalConstants, t: float):
    """A batched refiner closure over the exact field for extract_lines."""

    def refine(seeds: np.ndarray, axis: int) -> np.ndarray:
        return _refine_batch(spec, consts, t, seeds, axis)

    return refine


def extract_lines(
    field: SampledField,
    detection: DetectionResult | None = None,
    refiner=None,
) -> list[VortexPolyline]:
    """Chain pierced faces into polylines of refined zero crossings.

    `refiner(seeds, axis) -> positions` refines all crossings on faces normal
    to `axis`; without one, the bilinear corner model is used (adequate for
    numerical fields, sub-cell accurate).
    """
    if detection is None:
        detection = detect_pierced_faces(field)
    if not detection.pierced:
        return []
    grid = field.grid
    dims = grid.dims

    positions: dict[tuple, np.ndarray] = {}
    by_axis: dict[int, list[PiercedFace]] = {}
    for face in detection.pierced:
        by_axis.setdefault(face.axis, []).append(face)
    for axis, faces in by_axis.items():
        seeds = np.array([_bilinear_zero(field, f) for f in faces])
        if refiner is not None:
            seeds = refiner(seeds, axis)
        for f, p in zip(faces, seeds):
            positions[(f.axis, f.index)] = p

    face_by_key = {(f.axis, f.index): f for f in detection.pierced}

    # Group faces by the cells they bound.
    cells: dict[tuple[int, int, int], list[tuple]] = {}
    for key in face_by_key:
        axis, idx = key
        lower = list(idx)
        lower[axis] -= 1
        for cell in (idx, tuple(lower)):
            if all(0 <= cell[a] <= dims[a] - 2 for a in range(3)):
                cells.setdefault(cell, []).append(key)

    # Pair faces within each cell (closest refined points first for 4+).
    links: dict[tuple, list[tuple[tuple, tuple]]] = {}

    def add_link(key_a, key_b, cell):
        links.setdefault(key_a, []).append((key_b, cell))
        links.setdefault(key_b, []).append((key_a, cell))

    for cell, keys in cells.items():
        if len(keys) == 2:
            add_link(keys[0], keys[1], cell)
        elif len(keys) > 2:
            remaining = list(keys)
            while len(remaining) >= 2:
                best = None
                for i in range(len(remaining)):
                    for j in range(i + 1, len(remaining)):
                        d = np.linalg.norm(
                            positions[remaining[i]] - positions[remaining[j]]
                        )
                        if best is None or d < best[0]:
                            best = (d, i, j)
                _, i, j = best
                add_link(remaining[i], remaining[j], cell)
                for idx_del in sorted((i, j), reverse=True):
                    remaining.pop(idx_del)

    visited: set[tuple] = set()
    polylines: list[VortexPolyline] = []

    def walk(start, first_cell):
        chain = [start]
        visited.add(start)
        cell = first_cell
        key = start
        while True:
            nxt = None
            for other, via in links.get(key, ()):  # the pair face across `cell`
                if via == cell and other not in visited:
                    nxt = other
                    break
            if nxt is None:
                # Either the chain closed or it reached the grid boundary.
                closed = any(
                    via == cell and other == start for other, via in links.get(key, ())
                )
                return chain, closed and len(chain) > 2
            chain.append(nxt)
            visited.add(nxt)
            key = nxt
            axis, idx = key
            lower = list(idx)
            lower[axis] -= 1
            next_cell = tuple(lower) if cell == idx else idx
            if not all(0 <= next_cell[a] <= dims[a] - 2 for a in range(3)):
                return chain, False
            cell = next_cell

    def start_cells(key):
        axis, idx = key
        lower = list(idx)
        lower[axis] -= 1
        return [c for c in (idx, tuple(lower))
                if all(0 <= c[a] <= dims[a] - 2 for a in range(3))]

    # Open chains first (faces with a boundary side), then remaining cycles.
    order = sorted(face_by_key, key=lambda k: (len(start_cells(k)), k))
    for key in order:
        if key in visited:
            continue
        candidates = start_cells(key)
        if len(candidates) == 1:
            chain, closed = walk(key, candidates[0])
        else:
            chain, closed = walk(key, candidates[0])
            if not closed and chain[0] == key:
                # Started mid-chain: extend backwards through the other cell.
                visited.discard(key)
                back, _ = walk(key, candidates[1])
                if len(back) > 1:
                    chain = back[::-1] + chain[1:]
        if len(chain) < 2:
            visited.add(key)
            continue
        first = face_by_key[chain[0]]
        sign_cell = _shared_cell(chain[0], chain[1], links)
        # The chain crosses its first face along +axis when it runs into
        # the cell whose corner index is the face's own.
        sign = 1 if sign_cell == chain[0][1] else -1
        polylines.append(
            VortexPolyline(
                points=np.array([positions[k] for k in chain]),
                closed=closed,
                winding=sign * first.winding,
                frame_time=field.time,
            )
        )
    return polylines


def _shared_cell(key_a, key_b, links):
    for other, via in links.get(key_a, ()):
        if other == key_b:
            return via
    raise SpecValidationError("chain links are inconsistent")


def extract(
    spec: SolutionSpec, consts: PhysicalConstants, grid: Grid3, t: float
) -> list[VortexPolyline]:
    """Sample, detect, and extract with analytic Newton refinement."""
    field = sample(spec, consts, grid, t)
    return extract_lines(field, refiner=analytic_refiner(spec, consts, t))


def symmetric_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    tree_a, tree_b = cKDTree(a), cKDTree(b)
    return max(float(np.max(tree_b.query(a)[0])), float(np.max(tree_a.query(b)[0])))


def match_polylines(
    previous: list[VortexPolyline], current: list[VortexPolyline], cutoff: float
) -> list[tuple[int, int]]:
    """Greedy pairing by symmetric Hausdorff distance below the cutoff."""
    candidates = []
    for i, pa in enumerate(previous):
        for j, pb in enumerate(current):
            d = symmetric_hausdorff(pa.points, pb.points)
            if d <= cutoff:
                candidates.append((d, i, j))
    candidates.sort(key=lambda item: item[0])
    used_i: set[int] = set()
    used_j: set[int] = set()
    matches = []
    for _, i, j in candidates:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        matches.append((i, j))
    return matches


def _endpoint_pairing_changed(previous, current, cutoff) -> bool:
    """True when open-line endpoints persist but their partners swap."""
    prev_open = [p for p in previous if not p.closed]
    curr_open = [p for p in current if not p.closed]
    if len(prev_open) != len(curr_open) or len(prev_open) < 2:
        return False
    prev_ends = np.concatenate([p.endpoints for p in prev_open])
    curr_ends = np.concatenate([p.endpoints for p in curr_open])
    tree = cKDTree(curr_ends)
    dist, assign = tree.query(prev_ends)
    if np.max(dist) > cutoff or len(set(assign.tolist())) != len(curr_ends):
        return False
    # Endpoint 2i and 2i+1 belong to previous line i; their images must
    # belong to a single current line for the topology to be unchanged.
    for i in range(len(prev_open)):
        if assign[2 * i] // 2 != assign[2 * i + 1] // 2:
            return True
    return False


def track(
    spec: SolutionSpec,
    consts: PhysicalConstants,
    grid: Grid3,
    t_start: float,
    t_end: float,
    n_frames: int,
) -> tuple[list[list[VortexPolyline]], EventLog]:
    """Extract lines at n_frames+1 evenly spaced times and log topology events."""
    if n_frames < 3:
        raise SpecValidationError("tracking needs at least 3 frames")
    if not t_start < t_end:
        raise SpecValidationError("t_start must be < t_end")
    times = np.linspace(t_start, t_end, n_frames + 1)
    log = EventLog()
    frames: list[list[VortexPolyline]] = []
    detections = []
    for t in times:
        fld = sample(spec, consts, grid, float(t))
        det = detect_pierced_faces(fld)
        frames.append(
            extract_lines(fld, det, refiner=analytic_refiner(spec, consts, float(t)))
        )
        detections.append(det)
    flagged = [d.ambiguous_count for d in detections]
    if any(flagged):
        log.warnings.append(
            f"ambiguous faces flagged on {sum(1 for n in flagged if n)} of "
            f"{len(flagged)} frames (max {max(flagged)} per frame)"
        )
    imbalanced = [
        i for i, d in enumerate(detections)
        # Noise-floor terminations legitimately break winding-flux balance.
        if d.noise_count == 0 and cell_winding_balance(d, grid.dims) != 0
    ]
    if imbalanced:
        log.warnings.append(
            f"cell winding flux imbalance on frames {imbalanced}"
        )

    diag = grid.cell_diagonal
    cutoff = MATCH_CUTOFF_DIAGONALS * diag
    event_size = EVENT_SIZE_DIAGONALS * diag

    # ancestry[i][j] = index in frame i-1 matched to line j of frame i
    ancestry: list[dict[int, int]] = [dict()]
    all_matches: list[list[tuple[int, int]]] = []
    for i in range(len(frames) - 1):
        matches = match_polylines(frames[i], frames[i + 1], cutoff)
        all_matches.append(matches)
        ancestry.append({j: a for a, j in matches})

    def lineage_lengths(frame_idx: int, line_idx: int, depth: int) -> list[float]:
        out = [frames[frame_idx][line_idx].length]
        f, j = frame_idx, line_idx
        for _ in range(depth):
            if j not in ancestry[f]:
                break
            j = ancestry[f][j]
            f -= 1
            out.append(frames[f][j].length)
        return out

    descendants: list[dict[int, int]] = [
        {a: j for a, j in m} for m in all_matches
    ] + [dict()]

    def future_lengths(frame_idx: int, line_idx: int, depth: int) -> list[float]:
        out = [frames[frame_idx][line_idx].length]
        f, j = frame_idx, line_idx
        for _ in range(depth):
            if j not in descendants[f]:
                break
            j = descendants[f][j]
            f += 1
            out.append(frames[f][j].length)
        return out

    pending: list[tuple[int, int, str]] = []
    for i, matches in enumerate(all_matches):
        matched_prev = {a for a, _ in matches}
        matched_curr = {b for _, b in matches}
        vanishing = [j for j in range(len(frames[i])) if j not in matched_prev]
        appearing = [j for j in range(len(frames[i + 1])) if j not in matched_curr]
        t_lo, t_hi = float(times[i]), float(times[i + 1])

        _emit_boundary_events(
            log, pending, "annihilation", frames[i], vanishing, i, i + 1,
            t_lo, t_hi, event_size, lambda j: lineage_lengths(i, j, 3),
        )
        _emit_boundary_events(
            log, pending, "creation", frames[i + 1], appearing, i, i + 1,
            t_lo, t_hi, event_size, lambda j: future_lengths(i + 1, j, 3),
        )
        if (
            not vanishing
            and not appearing
            and _endpoint_pairing_changed(frames[i], frames[i + 1], cutoff)
        ) or (
            vanishing
            and appearing
            and all(not frames[i][j].closed for j in vanishing)
            and all(not frames[i + 1][j].closed for j in appearing)
            and _endpoint_pairing_changed(
                [frames[i][j] for j in vanishing],
                [frames[i + 1][j] for j in appearing],
                cutoff,
            )
        ):
            center = np.mean(
                [frames[i][j].centroid for j in range(len(frames[i]))], axis=0
            )
            log.events.append(
                Event("reconnection", t_lo, t_hi, tuple(center), i, i + 1,
                      details="open-line endpoint pairing changed")
            )
    # Drop creation/annihilation records that were really a reconnection.
    recon_brackets = {(e.frame_lo, e.frame_hi) for e in log.of_kind("reconnection")}
    log.events = [
        e for e in log.events
        if e.kind == "reconnection" or (e.frame_lo, e.frame_hi) not in recon_brackets
    ]
    log.warnings.extend(
        msg for lo, hi, msg in pending if (lo, hi) not in recon_brackets
    )
    return frames, log


def _emit_boundary_events(
    log, pending, kind, frame, indices, frame_lo, frame_hi, t_lo, t_hi,
    event_size, history
):
    """Classify lines that appear or vanish across one frame step."""
    loops = [j for j in indices if frame[j].closed]
    opens = [j for j in indices if not frame[j].closed]
    for j in loops:
        lengths = history(j)
        shrinking = all(
            lengths[n] <= lengths[n + 1] + 1e-12 for n in range(len(lengths) - 1)
        )
        if (shrinking and len(lengths) >= 3) or lengths[0] < event_size:
            log.events.append(
                Event(kind, t_lo, t_hi, tuple(frame[j].centroid), frame_lo, frame_hi,
                      details="closed loop shrank to a point")
            )
        else:
            pending.append((
                frame_lo, frame_hi,
                f"{kind}? loop of length {lengths[0]:.3g} at frames "
                f"{frame_lo}-{frame_hi} fails the size/monotonicity test",
            ))
    # Opposite-winding open lines that die (or are born) together in close
    # proximity are a pair event.
    remaining = list(opens)
    while len(remaining) >= 2:
        j = remaining.pop(0)
        best = None
        for other in remaining:
            d = symmetric_hausdorff(frame[j].points, frame[other].points)
            if best is None or d < best[0]:
                best = (d, other)
        if best is not None and best[0] < 2.0 * event_size:
            remaining.remove(best[1])
            center = 0.5 * (frame[j].centroid + frame[best[1]].centroid)
            log.events.append(
                Event(kind, t_lo, t_hi, tuple(center), frame_lo, frame_hi,
                      details="vortex pair of opposite circulation")
            )
        else:
            pending.append((
                frame_lo, frame_hi,
                f"unpaired open line {kind} candidate at frames {frame_lo}-{frame_hi}",
            ))
    if len(remaining) == 1:
        pending.append((
            frame_lo, frame_hi,
            f"unpaired open line {kind} candidate at frames {frame_lo}-{frame_hi}",
        ))


def node_speeds(
    frames: list[list[VortexPolyline]],
    times=None,
    cutoff: float | None = None,
) -> list[np.ndarray]:
    """Normal displacement speed of each matched line point between frames.

    Returns one array per frame pair, concatenating the per-point speeds of
    all matched lines; unmatched lines are skipped.
    """
    speeds = []
    for i in range(len(frames) - 1):
        prev, curr = frames[i], frames[i + 1]
        if not prev or not curr:
            speeds.append(np.array([]))
            continue
        if times is not None:
            dt = float(times[i + 1] - times[i])
        else:
            dt = curr[0].frame_time - prev[0].frame_time
        if cutoff is None:
            all_pts = np.concatenate([p.points for p in prev])
            span = np.linalg.norm(all_pts.max(axis=0) - all_pts.min(axis=0))
            pair_cutoff = max(span, 1.0)
        else:
            pair_cutoff = cutoff
        matches = match_polylines(prev, curr, pair_cutoff)
        per_pair = []
        for a, b in matches:
            dist = _distance_to_polyline(curr[b].points, prev[a])
            per_pair.append(dist / dt)
        speeds.append(np.concatenate(per_pair) if per_pair else np.array([]))
    return speeds


def _distance_to_polyline(points: np.ndarray, line: VortexPolyline) -> np.ndarray:
    """Distance from each query point to the nearest segment of the polyline."""
    verts = line.points
    if line.closed:
        verts = np.vstack([verts, verts[:1]])
    starts, ends = verts[:-1], verts[1:]
    seg = ends - starts  # (S, 3)
    seg_len2 = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    rel = points[:, None, :] - starts[None, :, :]  # (N, S, 3)
    s = np.clip(np.sum(rel * seg[None, :, :], axis=2) / seg_len2, 0.0, 1.0)
    nearest = starts[None, :, :] + s[..., None] * seg[None, :, :]
    d = np.linalg.norm(points[:, None, :] - nearest, axis=2)
    return d.min(axis=1)
