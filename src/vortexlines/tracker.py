"""Extract and track vortex lines in sampled complex fields.

Detection certifies grid-face crossings by integer phase winding around each
plaquette (the counting rule of Berry & Dennis, Proc. R. Soc. A 456:2059,
2000) and returns the pierced faces as one record array (`FACE_DTYPE`:
axis, index, winding) in (axis, index) order.  Everything downstream runs on
that array by face id: a vectorized clipped Newton iteration on each face's
bilinear corner model seeds the crossings, which are refined by Newton
iteration on the analytic field when a solution spec is available (a
crossing whose Newton iteration fails keeps its seed); each face's two cells
get integer ids, from which the winding-flux balance is counted and a
partner table pairs the faces inside every cell.  Walking that table chains
the crossings into polylines, which are matched across frames.

Events are critical points of t on the zero sheet of psi(r, t), where the
vorticity omega = grad Re psi x grad Im psi vanishes (Nye & Berry, Proc. R.
Soc. A 336:165, 1974): roots of (Re psi, Im psi, omega) in (x, y, z, t),
seeded where the frame matching changes and classified by the signature of
t's Hessian on the sheet (minimum: creation, maximum: annihilation, saddle:
reconnection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .catalog import SolutionSpec
from .constants import PhysicalConstants
from .errors import SpecValidationError
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

#: Grid points per slab of detection's scratch arrays: a few MB of scratch,
#: which stays in cache.
SLAB_POINTS = 1 << 15

#: Newton iterations allowed per refined crossing.
NEWTON_MAX_ITERATIONS = 25

#: Polyline matching cutoff, in cell diagonals.
MATCH_CUTOFF_DIAGONALS = 3.0

#: Gauss-Newton steps allowed per event root.
EVENT_MAX_ITERATIONS = 40

#: Event solves stop at steps below this fraction of a cell diagonal and of a
#: frame step, with unit-free residuals below it; Hessian eigenvalues below
#: this fraction of the largest count as zero.
EVENT_TOLERANCE = 1e-10


#: A pierced face: the face normal to `axis` whose corner of lowest
#: coordinates is grid node `index`, with the phase winding around its edges
#: measured right-handed about +axis.
FACE_DTYPE = np.dtype(
    [("axis", np.intp), ("index", np.intp, (3,)), ("winding", np.intp)]
)


@dataclass(frozen=True)
class DetectionResult:
    #: Pierced faces, a FACE_DTYPE record array in (axis, index) order.
    pierced: np.recarray
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
    #: The root time t*; [t_lo, t_hi] are the frame times around it.
    t: float = field(kw_only=True)


@dataclass
class EventLog:
    events: list[Event] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]


def _wrap(phase: np.ndarray) -> np.ndarray:
    """Phase steps wrapped into [-pi, pi).  Floor, not rint: rint rounds the
    tie at +pi to even and would keep +pi, and roundoff-level fields hold
    phases of exactly 0 and +-pi."""
    return phase - TWO_PI * np.floor(phase / TWO_PI + 0.5)


def _pairs(reduce, arr: np.ndarray, axis: int) -> np.ndarray:
    """reduce(arr[i], arr[i + 1]) for each neighbour pair along `axis`."""
    lo = [slice(None)] * arr.ndim
    hi = list(lo)
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return reduce(arr[tuple(lo)], arr[tuple(hi)])


def detect_pierced_faces(field: SampledField) -> DetectionResult:
    """Find every cell face whose edge phases wind by a nonzero multiple of 2pi.

    The grid is read in slabs of whole x planes, each sharing its last plane
    with the next, so the scratch arrays hold about `SLAB_POINTS` grid points
    whatever the grid size: no full-size temporaries, and no heap growth and
    trim per frame.  Every face is computed from the same values as on the
    whole grid, so the result does not depend on the slab size.
    """
    values = field.values
    n = values.shape[0]
    step = max(1, SLAB_POINTS // values[0].size)
    peak = max(float(np.abs(values[i:i + step]).max()) for i in range(0, n, step))
    slabs = [
        _detect_slab(values[start:start + step + 1], start, NOISE_FLOOR * peak,
                     last=start + step >= n - 1)
        for start in range(0, n - 1, step)
    ]
    return DetectionResult(
        np.concatenate([faces[axis] for axis in range(3) for faces, _, _ in slabs])
        .view(np.recarray),
        sum(ambiguous for _, ambiguous, _ in slabs),
        sum(noisy for _, _, noisy in slabs),
    )


def _detect_slab(slab: np.ndarray, start: int, noise: float, last: bool):
    """Pierced faces per axis, ambiguous and noise counts of the planes
    start, start + 1, ... held in slab.  Its last plane of x faces belongs to
    the next slab unless this is the last one."""
    phases = np.angle(slab)
    amps = np.abs(slab)
    diffs = [_wrap(np.diff(phases, axis=a)) for a in range(3)]
    del phases
    loud = [np.abs(d) > AMBIGUOUS_EDGE_FRACTION * math.pi for d in diffs]
    pierced = []
    ambiguous_count = noise_count = 0
    for axis in range(3):
        a1, a2 = (axis + 1) % 3, (axis + 2) % 3
        # Wrapped steps sum to a multiple of 2pi around a face, up to roundoff.
        circulation = np.diff(diffs[a2], axis=a1) - np.diff(diffs[a1], axis=a2)
        crossed = np.abs(circulation) > math.pi
        corner_min = _pairs(np.minimum, _pairs(np.minimum, amps, a1), a2)
        corner_max = _pairs(np.maximum, _pairs(np.maximum, amps, a1), a2)
        # Faces whose corners all sit below the global noise floor carry no
        # usable phase information (roundoff tails) and are ignored outright.
        trusted = corner_max >= noise
        flagged = trusted & (
            _pairs(np.logical_or, loud[a1], a2)
            | _pairs(np.logical_or, loud[a2], a1)
            | (corner_min < DEGENERACY_FLOOR * corner_max)
        )
        if axis == 0 and not last:
            circulation, crossed, trusted, flagged = (
                a[:-1] for a in (circulation, crossed, trusted, flagged)
            )
        ambiguous_count += int(np.count_nonzero(flagged & ~crossed))
        noise_count += int(np.count_nonzero(crossed & ~trusted))
        at = np.nonzero(crossed & trusted)
        faces = np.empty(len(at[0]), FACE_DTYPE)
        faces["axis"] = axis
        faces["index"] = np.stack(at, axis=1) + (start, 0, 0)
        faces["winding"] = np.rint(circulation[at] / TWO_PI)
        pierced.append(faces)
    return pierced, ambiguous_count, noise_count


def _face_cells(faces: np.recarray, dims) -> np.ndarray:
    """Ids of each face's two cells, shape (n, 2): side 0 is the cell whose
    lowest corner is the face's own index, side 1 the cell below it along the
    face normal.  Cells are numbered in C order; -1 marks one outside the grid."""
    shape = np.asarray(dims) - 1
    cells = np.repeat(faces.index[:, None, :], 2, axis=1)
    cells[np.arange(len(faces)), 1, faces.axis] -= 1
    inside = np.all((cells >= 0) & (cells < shape), axis=-1)
    ids = np.full(inside.shape, -1, dtype=np.intp)
    ids[inside] = np.ravel_multi_index(tuple(cells[inside].T), tuple(shape))
    return ids


def cell_winding_balance(detection: DetectionResult, dims) -> int:
    """Max absolute net winding flux out of any grid cell (0 if lines are
    conserved: every line entering a cell also leaves it)."""
    faces = detection.pierced
    ids = _face_cells(faces, dims)
    # A crossing enters its face's own cell and leaves the cell below.
    flux = np.stack([-faces.winding, faces.winding], axis=1)
    inside = ids >= 0
    _, cell = np.unique(ids[inside], return_inverse=True)
    net = np.bincount(cell, weights=flux[inside])
    return int(np.max(np.abs(net), initial=0))


def _bilinear_zeros(field: SampledField, faces: np.recarray) -> np.ndarray:
    """Zero of each face's bilinear corner model of psi, in world coords.

    Clipped Newton iteration in the face's unit square from its centre, at
    most 12 steps; a face stops once its step is below 1e-12 or its
    Jacobian is singular.  The model's zero set can be a curve, so the
    start point and the clipping decide which zero is returned.
    """
    rows = np.arange(len(faces))
    a1, a2 = (faces.axis + 1) % 3, (faces.axis + 2) % 3
    e1, e2 = np.eye(3, dtype=np.intp)[a1], np.eye(3, dtype=np.intp)[a2]

    def corner(offset):
        return field.values[tuple((faces.index + offset).T)]

    v00, v10, v01, v11 = corner(0), corner(e1), corner(e2), corner(e1 + e2)
    u = np.full((len(faces), 2), 0.5)
    live = rows
    for _ in range(12):
        c00, c10, c01, c11 = v00[live], v10[live], v01[live], v11[live]
        p, q = u[live, 0], u[live, 1]
        f = (c00 * (1 - p) * (1 - q) + c10 * p * (1 - q)
             + c01 * (1 - p) * q + c11 * p * q)
        fu = (c10 - c00) * (1 - q) + (c11 - c01) * q
        fv = (c01 - c00) * (1 - p) + (c11 - c10) * p
        # Cramer's rule for [[fu.re, fv.re], [fu.im, fv.im]] step = [f.re, f.im].
        det = fu.real * fv.imag - fv.real * fu.imag
        solvable = det != 0
        f, fu, fv, det = f[solvable], fu[solvable], fv[solvable], det[solvable]
        du = (f.real * fv.imag - fv.real * f.imag) / det
        dv = (fu.real * f.imag - fu.imag * f.real) / det
        live = live[solvable]
        u[live] = np.clip(u[live] - np.stack([du, dv], axis=1), 0.0, 1.0)
        live = live[np.sqrt(du * du + dv * dv) >= 1e-12]
        if not len(live):
            break
    spacing = np.asarray(field.grid.spacing)
    points = np.asarray(field.grid.origin) + spacing * faces.index
    points[rows, a1] += u[:, 0] * spacing[a1]
    points[rows, a2] += u[:, 1] * spacing[a2]
    return points


def _refine_batch(spec, consts, t, seeds, axis):
    """Newton iteration in each seed's face plane on the exact field.  A
    point that meets a singular Jacobian or does not converge keeps its
    seed: one bad point never aborts an extraction."""
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    seeds = np.asarray(seeds, dtype=float)
    pts, done = seeds.copy(), np.zeros(len(seeds), dtype=bool)
    scale = spec.length_scale(consts)
    snapshot = spec.at(consts, t)
    live = np.arange(len(pts))
    for _ in range(NEWTON_MAX_ITERATIONS):
        field = snapshot.on(pts[live])
        psi, grad = field.psi, field.grad
        hit = np.abs(psi) <= 1e-12 * np.linalg.norm(grad, axis=-1) * scale
        done[live[hit]] = True
        gu, gv = grad[:, a1], grad[:, a2]
        det = gu.real * gv.imag - gu.imag * gv.real
        # NaN compares false: a point whose iterate overflowed stops too.
        step = ~hit & (np.abs(det) >= 1e-300)
        live, f, gu, gv, det = (a[step] for a in (live, psi, gu, gv, det))
        if not len(live):
            break
        pts[live, a1] -= (f.real * gv.imag - f.imag * gv.real) / det
        pts[live, a2] -= (f.imag * gu.real - f.real * gu.imag) / det
        live = live[np.all(np.isfinite(pts[live]), axis=1)]
    return np.where(done[:, None], pts, seeds)


def analytic_refiner(spec: SolutionSpec, consts: PhysicalConstants, t: float):
    """A batched refiner closure over the exact field for extract_lines."""

    def refine(seeds: np.ndarray, axis: int) -> np.ndarray:
        return _refine_batch(spec, consts, t, seeds, axis)

    return refine


def _partners(ids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """partner[f, side]: the face paired with face f inside its cell
    ids[f, side], or -1.  A cell pierced twice pairs its two faces; one
    pierced more often pairs its closest points first, in face order on ties."""
    face, side = np.nonzero(ids >= 0)
    order = np.argsort(ids[face, side], kind="stable")
    face, side = face[order], side[order]
    cell = ids[face, side]
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    counts = np.diff(np.r_[starts, len(cell)])
    partner = np.full(ids.shape, -1, dtype=np.intp)

    def link(i, j):
        partner[face[i], side[i]] = face[j]
        partner[face[j], side[j]] = face[i]

    two = starts[counts == 2]
    link(two, two + 1)
    for start, count in zip(starts[counts > 2], counts[counts > 2]):
        members = np.arange(start, start + count)
        pts = points[face[members]]
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        dist[np.tril_indices(count)] = np.inf
        for _ in range(count // 2):
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            link(members[i], members[j])
            dist[[i, j], :] = np.inf
            dist[:, [i, j]] = np.inf
    return partner


def _walk(start: int, side: int, ids: list, partner: list, visited: list):
    """Follow partners from face `start` out through its cell ids[start][side].

    Returns the face chain and whether it closed back on `start`."""
    chain = [start]
    visited[start] = True
    face = start
    while True:
        nxt = partner[face][side]
        if nxt < 0 or visited[nxt]:
            return chain, nxt == start and len(chain) > 2
        chain.append(nxt)
        visited[nxt] = True
        # Leave the next face through the cell it was not entered by.
        side = 1 if ids[nxt][0] == ids[face][side] else 0
        face = nxt
        if ids[face][side] < 0:
            return chain, False


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
    faces = detection.pierced
    if not len(faces):
        return []
    points = _bilinear_zeros(field, faces)
    if refiner is not None:
        bounds = np.searchsorted(faces.axis, np.arange(4))
        for axis in range(3):
            lo, hi = bounds[axis], bounds[axis + 1]
            if hi > lo:
                points[lo:hi] = refiner(points[lo:hi], axis)
    ids = _face_cells(faces, field.grid.dims)
    partner = _partners(ids, points)
    ids_list, partner_list = ids.tolist(), partner.tolist()
    visited = [False] * len(faces)
    polylines: list[VortexPolyline] = []
    # Open chains first (faces with a side outside the grid), then cycles.
    order = np.argsort(np.count_nonzero(ids >= 0, axis=1), kind="stable")
    for start in order.tolist():
        if visited[start]:
            continue
        sides = [s for s in (0, 1) if ids_list[start][s] >= 0]
        chain, closed = _walk(start, sides[0], ids_list, partner_list, visited)
        if len(sides) == 2 and not closed:
            # Started mid-chain: extend backwards through the other cell.
            visited[start] = False
            back, _ = _walk(start, sides[1], ids_list, partner_list, visited)
            chain = back[::-1] + chain[1:]
        if len(chain) < 2:
            continue
        # The chain crosses its first face along +axis when it runs into
        # the cell whose corner index is the face's own.
        sign = 1 if partner_list[chain[0]][0] == chain[1] else -1
        polylines.append(
            VortexPolyline(
                points=points[chain],
                closed=closed,
                winding=sign * int(faces.winding[chain[0]]),
                frame_time=field.time,
            )
        )
    return polylines


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


def _repaired_lines(previous, current, cutoff) -> list[VortexPolyline]:
    """Open lines of `previous` whose endpoints persist into `current` but
    whose two ends now belong to different lines; empty when the endpoint
    pairing is unchanged."""
    prev_open = [p for p in previous if not p.closed]
    curr_open = [p for p in current if not p.closed]
    if len(prev_open) != len(curr_open) or len(prev_open) < 2:
        return []
    prev_ends = np.concatenate([p.endpoints for p in prev_open])
    curr_ends = np.concatenate([p.endpoints for p in curr_open])
    tree = cKDTree(curr_ends)
    dist, assign = tree.query(prev_ends)
    if np.max(dist) > cutoff or len(set(assign.tolist())) != len(curr_ends):
        return []
    # Endpoint 2i and 2i+1 belong to previous line i; their images must
    # belong to a single current line for the topology to be unchanged.
    return [
        line for i, line in enumerate(prev_open)
        if assign[2 * i] // 2 != assign[2 * i + 1] // 2
    ]


def _moved(spec, consts, line: VortexPolyline, t: float) -> np.ndarray:
    """The line's centroid moved to time t by the mean node velocity, each
    u . grad psi = -dpsi/dt at minimum norm."""
    values = spec.at(consts, line.frame_time).on(line.points)
    grad = np.stack([values.grad.real, values.grad.imag], axis=1)
    dt = np.stack([values.dt.real, values.dt.imag], axis=1)[..., None]
    velocity = -(np.linalg.pinv(grad) @ dt).mean(axis=0)[:, 0]
    return line.centroid + velocity * (t - line.frame_time)


def _event_root(spec, consts, seed, lo, hi, scale):
    """Gauss-Newton root X* = (x, y, z, t) of (Re psi, Im psi, omega) from
    `seed` clipped into the box lo <= X <= hi: (X*, field values, scaled
    Jacobian), or None if the solve does not converge.  An iterate that
    leaves the box is projected back into it, and the solve ends at the
    third step in a row that leaves it: a first step from a seed near the
    box's edge may overshoot a root inside it.

    X is measured in `scale`; rows are unit-free, psi / (g scale[0]) and
    omega / g^2 with g = |grad psi| at the seed.  Each step solves the exact
    5 x 4 Jacobian by least squares, at minimum norm on a curve of roots.
    """
    def at(x):
        v = spec.at(consts, float(x[3])).on(x[:3])
        return v, np.r_[v.psi.real, v.psi.imag, np.cross(v.grad.real, v.grad.imag)]

    x = np.clip(seed, lo, hi)
    values, residual = at(x)
    g = float(np.linalg.norm(values.grad))
    if not g > 0:
        return None
    rows = np.array([1.0 / (g * scale[0])] * 2 + [1.0 / g**2] * 3)
    clipped = 0
    for _ in range(EVENT_MAX_ITERATIONS):
        re, im = values.grad.real, values.grad.imag
        d_grad = np.column_stack([values.hess, values.dt_grad])  # d grad psi / dX
        jac = np.vstack([np.r_[re, values.dt.real], np.r_[im, values.dt.imag],
                         (np.cross(d_grad.real.T, im) + np.cross(re, d_grad.imag.T)).T])
        jac *= rows[:, None] * scale
        step = np.linalg.lstsq(jac, rows * residual, rcond=None)[0]
        x = x - step * scale
        if np.max(np.abs(step)) <= EVENT_TOLERANCE:
            done = np.max(np.abs(rows * residual)) <= EVENT_TOLERANCE
            return (x, values, jac) if done else None
        inside = np.clip(x, lo, hi)
        clipped = clipped + 1 if np.any(inside != x) else 0
        if clipped == 3:
            return None
        x = inside
        values, residual = at(x)
    return None


def _classify(values):
    """(kind, eigenvalues) of an event root from the signature of t's
    Hessian on the zero sheet, or None if it vanishes.

    There e_t = l1 grad4 Re psi + l2 grad4 Im psi in (x, y, z, t), and the
    Hessian is -(l1 Re H + l2 Im H) on the plane normal to the common
    direction of grad Re psi and grad Im psi: a minimum of t is a creation,
    a maximum an annihilation, a saddle a reconnection.
    """
    grad, dt = values.grad, complex(values.dt)
    gradients = np.stack([np.r_[grad.real, dt.real], np.r_[grad.imag, dt.imag]], 1)
    l1, l2 = np.linalg.lstsq(gradients, np.eye(4)[3], rcond=None)[0]
    plane = np.linalg.svd(np.stack([grad.real, grad.imag], 1))[0][:, 1:]
    eig = np.linalg.eigvalsh(-plane.T @ (l1 * values.hess.real + l2 * values.hess.imag) @ plane)
    zero = EVENT_TOLERANCE * np.max(np.abs(eig))
    if zero == 0:
        return None
    eig = np.where(np.abs(eig) <= zero, 0.0, eig)
    if eig[0] >= 0:
        return "creation", eig
    return ("annihilation" if eig[1] <= 0 else "reconnection"), eig


def _events_at_roots(spec, consts, grid, times, candidates) -> list[Event]:
    """One event per distinct root, in time order, from (frame pair i, line)
    candidates.  A solve starts at the pair's middle time from the line's
    centroid moved there by its node velocity, and if that fails from the
    centroid itself, unless the two are within a cell diagonal: a line seen
    in one frame can sit halfway between two events, but next to an event
    its nodes move too fast to extrapolate.  Roots are one event when they
    have the same kind, t* within the solver tolerance, and positions within
    a cell diagonal once the offset along the Jacobian's null direction (a
    curve of roots) is removed.
    """
    diag, frame_step = grid.cell_diagonal, float(times[1] - times[0])
    scale = np.array([diag, diag, diag, frame_step])
    lo = np.append(grid.origin, times[0])
    hi = np.append(np.add(grid.origin, grid.lengths), times[-1])
    found: list[tuple[Event, np.ndarray]] = []
    for i, line in candidates:
        t_mid = 0.5 * (times[i] + times[i + 1])
        moved = _moved(spec, consts, line, t_mid)
        root = _event_root(spec, consts, np.append(moved, t_mid), lo, hi, scale)
        if root is None and np.linalg.norm(moved - line.centroid) > diag:
            root = _event_root(spec, consts, np.append(line.centroid, t_mid), lo, hi, scale)
        classified = root and _classify(root[1])
        if not classified:
            continue
        (x, _, jac), (kind, eig) = root, classified

        def repeats(event, null):
            offset = x[:3] - event.location
            return (event.kind == kind and abs(event.t - x[3]) <= EVENT_TOLERANCE * frame_step
                    and np.linalg.norm(offset - (offset @ null) * null) <= diag)

        if any(repeats(*known) for known in found):
            continue
        _, sing, vt = np.linalg.svd(jac)
        null = vt[-1, :3] if sing[-1] <= EVENT_TOLERANCE * sing[0] else np.zeros(3)
        k = min(int(np.searchsorted(times, x[3], side="right")) - 1, len(times) - 2)
        found.append((Event(
            kind, float(times[k]), float(times[k + 1]), tuple(float(c) for c in x[:3]),
            k, k + 1, t=float(x[3]), details=f"root of psi = omega = 0; Hessian of t on "
            f"the zero sheet has eigenvalues {eig[0]:+.4g}, {eig[1]:+.4g}",
        ), null / max(float(np.linalg.norm(null)), 1e-300)))
    return sorted((event for event, _ in found), key=lambda e: e.t)


def track(
    spec: SolutionSpec,
    consts: PhysicalConstants,
    grid: Grid3,
    t_start: float,
    t_end: float,
    n_frames: int,
) -> tuple[list[list[VortexPolyline]], EventLog]:
    """Extract lines at n_frames+1 evenly spaced times and log topology
    events: the roots inside the grid box and the time window, seeded at each
    line of a frame pair whose matching is not a bijection or whose open
    lines re-pair their endpoints."""
    if n_frames < 1:
        raise SpecValidationError("tracking needs at least 1 frame")
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

    cutoff = MATCH_CUTOFF_DIAGONALS * grid.cell_diagonal
    candidates = []
    for i in range(n_frames):
        prev, curr = frames[i], frames[i + 1]
        matches = match_polylines(prev, curr, cutoff)
        kept_prev, kept_curr = {a for a, _ in matches}, {b for _, b in matches}
        unmatched = [line for j, line in enumerate(prev) if j not in kept_prev]
        unmatched += [line for j, line in enumerate(curr) if j not in kept_curr]
        candidates.extend((i, line) for line in unmatched or _repaired_lines(prev, curr, cutoff))
    log.events = _events_at_roots(spec, consts, grid, times, candidates)
    return frames, log


def node_speeds(frames: list[list[VortexPolyline]]) -> list[np.ndarray]:
    """Normal displacement speed of each matched line point between frames.

    Returns one array per frame pair, concatenating the per-point speeds of
    all matched lines; unmatched lines are skipped.  Lines are matched within
    the extent of the earlier frame (at least 1), and the time step is taken
    from the lines' frame times.
    """
    speeds = []
    for prev, curr in zip(frames, frames[1:]):
        if not prev or not curr:
            speeds.append(np.array([]))
            continue
        dt = curr[0].frame_time - prev[0].frame_time
        all_pts = np.concatenate([p.points for p in prev])
        cutoff = max(np.linalg.norm(all_pts.max(axis=0) - all_pts.min(axis=0)), 1.0)
        per_pair = [
            _distance_to_polyline(curr[b].points, prev[a]) / dt
            for a, b in match_polylines(prev, curr, cutoff)
        ]
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
