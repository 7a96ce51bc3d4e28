"""Extract and track vortex lines in sampled complex fields.

Detection certifies grid-face crossings by integer phase winding around each
plaquette (the counting rule of Berry & Dennis, Proc. R. Soc. A 456:2059,
2000).  A line is the zero set Re psi = Im psi = 0, so only a face over whose
corners both parts change sign can wind: the winding, and the ambiguous and
noise counts, are taken over those faces alone, inside a box of grid nodes.
An analytic field is psi = P exp(G), and exp(G) never vanishes, so its lines
are the zero set of the polynomial P: a Taylor bound on |P| over blocks of
catalog.BLOCK_CELLS cells per axis excludes the blocks where P cannot vanish
(interval exclusion: Moore, Interval Analysis, 1966; Snyder, SIGGRAPH 1992),
and each frame is sampled only on the smallest box that holds the others
(`grids.sample`), with a bound of |psi| outside it: the whole grid's peak
|psi|, the scale of the noise floor, lies between the box's max and the
larger of that and the bound, and detection searches for it only where a
node's |psi| lies between the floors of the two.  A numeric field, held or
formed slab by slab, covers the whole grid (`grids.SlabbedField`), and
finds its peak and its max |psi| profiles along each axis in the first slab
pass that checks its values finite; detection reads it slab by slab
and codes only its support box, the nodes within one node of those at or
above the noise floor, where every candidate and every counted noise face
lies.  Detection returns the pierced faces as one record array (`FACE_DTYPE`:
axis, index, winding) in (axis, index) order, with psi at their corners.
Everything downstream runs on those arrays by face id: the zero of each
face's bilinear corner model, one root of a real quadratic, seeds the
crossings, which
are refined by one batched Newton iteration on the analytic field when a
solution spec is available, each in its own face plane (a crossing whose
Newton iteration fails keeps its seed); each face's two cells get integer
ids, from which the winding-flux balance is counted and a partner table
pairs the faces inside every cell.  Walking that table chains the crossings
into polylines, which follow from frame to frame by predictor-corrector
continuation on the exact field (Allgower & Georg, Numerical Continuation
Methods, 1990).

Events, where the continuation breaks down, are critical points of t on the
zero sheet of psi(r, t), where the vorticity omega = grad Re psi x grad Im
psi vanishes (Nye & Berry, Proc. R. Soc. A 336:165, 1974): roots of
(Re psi, Im psi, omega) in (x, y, z, t), seeded at the lines that do not pair
and classified by the signature of t's Hessian on the sheet (minimum:
creation, maximum: annihilation, saddle: reconnection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anatomy import min_norm_solve
from .catalog import DEGENERACY_FLOOR, SolutionSpec, Snapshot
from .constants import PhysicalConstants
from .errors import SpecValidationError
from .grids import Grid3, SampledField, SlabbedField, sample, slabs

TWO_PI = 2.0 * math.pi

#: Edge phase differences this close to pi make the winding untrustworthy.
AMBIGUOUS_EDGE_FRACTION = 0.995

#: Faces whose strongest corner is below this fraction of the grid peak are
#: treated as numerical noise and skipped: at that level the phase pattern is
#: roundoff, not signal.
NOISE_FLOOR = 1e-10

#: The most squared distances one block of `nearest` holds.  Its two blocks
#: of 2**16 doubles, 1 MB, stay in a core's L2 cache: at 300 queries x 1200
#: points, 2**16 took 2.3-3.1 ms and 2**18 5.2-7.2 ms (2 cores, 2 MB L2 each).
NEAREST_BLOCK = 1 << 16

#: Newton iterations allowed per refined crossing.
NEWTON_MAX_ITERATIONS = 25

#: Min-norm Newton steps a crossing gets from its seed where the face-plane
#: iteration fails.
MIN_NORM_STEPS = 8

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
    #: psi at each pierced face's corners (`_corners`), shape (4, faces).
    corners: np.ndarray
    #: Candidate faces inside the detection box (both parts of psi change
    #: sign, a corner at or above the noise floor) that are not crossed but
    #: have an edge phase step near pi or a corner below DEGENERACY_FLOOR of
    #: their strongest.
    ambiguous_count: int = 0
    #: Faces inside the detection box beside a pierced face (in one of its
    #: cells) over which both parts of psi change sign but every corner is
    #: below the noise floor; they are skipped, so nonzero means a line may
    #: end inside the grid by design.
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


def _pairs(reduce, arr: np.ndarray, axis: int, room=None) -> np.ndarray:
    """reduce(arr[i], arr[i + 1]) for each neighbour pair along `axis`,
    written to the front of the flat array `room` if one is given."""
    lo = [slice(None)] * arr.ndim
    hi = list(lo)
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    lo, hi = arr[tuple(lo)], arr[tuple(hi)]
    out = None if room is None else room[:lo.size].reshape(lo.shape)
    return reduce(lo, hi, out=out)


#: The steps from a face's lowest corner i to its corners i, i + e1, i + e2
#: and i + e1 + e2, for a face normal to each axis, where (e1, e2) are the
#: unit steps along axis + 1 and axis + 2: shape (axis, corner, 3).
_CORNER_STEPS = np.array([
    [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)],
    [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
])


def _corners(values: np.ndarray, axis, index: np.ndarray) -> np.ndarray:
    """values at the corners of each face (`_CORNER_STEPS`), normal to
    axis[f] with lowest corner index[f]: shape (4, faces)."""
    return values[tuple((index[:, None] + _CORNER_STEPS[axis]).T)]


def detect_pierced_faces(field: SampledField | SlabbedField) -> DetectionResult:
    """Find every cell face whose edge phases wind by a nonzero multiple of 2pi.

    A face can wind only if neither Re psi nor Im psi keeps one sign at all
    four corners: corners in one open half-plane of C give exact wrapped
    steps and zero winding.  A part counts as one-signed only where it
    exceeds DEGENERACY_FLOOR |psi| at every corner, so a zero within roundoff
    of a grid edge, whose wrapped steps roundoff decides, stays a candidate.
    Masks over the detection box pick these candidates, and the phase winding
    is computed on their corners only, gathered from the slabs that hold
    them (`_gather_corners`).

    The noise floor is NOISE_FLOOR times the whole grid's peak |psi|, the
    field's `peak`.  The faces are looked for inside the detection box
    (`_support`), read slab by slab through `field.slab`, and pierced faces
    keep their grid indices.  A field whose peak is 0 is zero everywhere and
    has no crossings: with a floor of 0, every face would be a candidate.

    A field with a `bound` of |psi| outside its box (`grids.sample`) is
    coded on its whole box at the floor of the bound, in the pass that finds
    the box's max |psi|, lo: the peak lies between lo and the larger of lo
    and the bound, so where no node's |psi| lies between the floors of lo
    and of the bound, every node has the code the peak's floor gives it.
    Only where one does is the exact peak searched for, `field.search(lo)`,
    and the nodes coded again at its floor where that gives another code.
    """
    bound = field.bound
    if bound is None and field.peak == 0.0:
        return _no_crossings()
    floor = NOISE_FLOOR * (field.peak if bound is None else bound)
    box = _support(field, floor)
    shape = tuple(b.stop - b.start for b in box)
    # Slabs of the field's whole planes: each formed slab holds at most
    # grids.SLAB_POINTS points, as in every other pass over the field.
    reads = slabs(shape[:1] + field.shape[1:])
    # One block of three bytes a node: the node codes, then one axis's pair
    # and face codes at a time (`_noise_beside` needs none), the pairs' room
    # reused for the candidate mask.  The axis passes allocate nothing, and
    # the heap does not shrink and grow again around each of them.
    size = math.prod(shape)
    work = np.empty(3 * size, np.uint8)
    code = work[:size].reshape(shape)
    noisy, low, under, over = _code(field, box, reads, code, floor, bound is not None)
    if bound is not None:
        # No node's |psi| lies between under and over, so a floor in
        # (under, over] codes every node as the bound's floor did; the
        # peak's floor lies between those of low and max(low, bound).
        peak = low if under < NOISE_FLOOR * low <= over else field.search(low)
        if peak == 0.0:
            return _no_crossings()
        if not under < NOISE_FLOOR * peak <= over:
            noisy = _code(field, box, reads, code, NOISE_FLOOR * peak)[0]
    candidates = []
    for axis in range(3):
        a1, a2 = (axis + 1) % 3, (axis + 2) % 3
        pairs = _pairs(np.bitwise_and, code, a1, work[size:])
        face = _pairs(np.bitwise_and, pairs, a2, work[2 * size:])
        mask = np.equal(face, 0, out=work[size:size + face.size].view(bool).reshape(face.shape))
        at = np.unravel_index(np.flatnonzero(mask), face.shape)
        faces = np.empty(len(at[0]), FACE_DTYPE)
        faces["axis"] = axis
        faces["index"] = np.stack(at, axis=1)
        candidates.append(faces)
    faces = np.concatenate(candidates).view(np.recarray)
    corners = _gather_corners(field, box, reads, faces)
    p00, p10, p01, p11 = np.angle(corners)
    # Wrapped edge steps: along e1 at the low and high e2 side, then along e2.
    steps = _wrap(np.stack([p10 - p00, p11 - p01, p01 - p00, p11 - p10]))
    # Wrapped steps sum to a multiple of 2pi around a face, up to roundoff.
    circulation = (steps[3] - steps[2]) - (steps[1] - steps[0])
    crossed = np.abs(circulation) > math.pi
    amps = np.abs(corners)
    flagged = np.any(np.abs(steps) > AMBIGUOUS_EDGE_FRACTION * math.pi, axis=0) | (
        amps.min(axis=0) < DEGENERACY_FLOOR * amps.max(axis=0)
    )
    pierced = faces[crossed]
    pierced["winding"] = np.rint(circulation[crossed] / TWO_PI)
    noise = _noise_beside(code, pierced) if noisy else 0
    pierced["index"] += field.offset + [b.start for b in box]
    return DetectionResult(pierced, corners[:, crossed],
                           int(np.count_nonzero(flagged & ~crossed)), noise)


def _no_crossings() -> DetectionResult:
    return DetectionResult(np.empty(0, FACE_DTYPE).view(np.recarray), np.empty((4, 0), complex))


def _code(field, box, reads, code: np.ndarray, floor: float, bracket: bool = False):
    """Code the nodes of the detection box, slab by slab, straight into the
    code array (uint8, the box's shape): bits 1, 2 for Re psi above, below
    +-DEGENERACY_FLOOR |psi|, 4, 8 for Im psi, and 16 for |psi| below the
    noise floor.  ANDed over a face's corners, a sign bit survives only where
    that part keeps its sign at all four, and bit 16 only where all four are
    below the floor: a face of code 0 is a candidate, one of code 16 a noise
    face.  Returns (noisy, low, under, over): whether any node is below the
    floor and, with bracket, the max |psi|, the max |psi| below the floor
    and the min |psi| at or above it (0, -inf and inf without)."""
    noisy, low, under, over = False, 0.0, -math.inf, math.inf
    for s in reads:
        psi, out = _read(field, box, s), code[s]
        amps = np.abs(psi)
        below = amps < floor
        if bracket:
            low = max(low, float(amps.max()))
            if below.any():
                noisy = True
                under = max(under, float(amps[below].max()))
                over = min(over, float(amps[~below].min(initial=math.inf)))
            else:
                over = min(over, float(amps.min()))
        else:
            noisy = noisy or bool(below.any())
        np.multiply(below, np.uint8(16), out=out)
        amps *= DEGENERACY_FLOOR
        for bit, part in ((1, psi.real), (4, psi.imag)):
            out |= (part > amps) * np.uint8(bit)
        np.negative(amps, out=amps)
        for bit, part in ((2, psi.real), (8, psi.imag)):
            out |= (part < amps) * np.uint8(bit)
    return noisy, low, under, over


def _support(field, floor: float) -> tuple[slice, slice, slice]:
    """The detection box, in the field's box: the bounding box of the nodes
    where |psi| >= floor, from the field's max |psi| profiles, grown by one
    node.  A candidate face, or a noise face in a cell with a pierced face,
    has every corner within one node of a node at or above the floor, so
    none lies outside it.  A field with no profiles (a box field, such as
    one sampled on its zero box) is searched on its whole box."""
    if field.profiles is None:
        return tuple(slice(0, n) for n in field.shape)
    box = []
    for profile in field.profiles:
        above = np.flatnonzero(profile >= floor)
        box.append(slice(max(int(above[0]) - 1, 0), min(int(above[-1]) + 2, len(profile))))
    return tuple(box)


def _read(field, box, s: slice) -> np.ndarray:
    """psi on the x planes s of the detection box."""
    return field.slab(slice(box[0].start + s.start, box[0].start + s.stop))[:, box[1], box[2]]


def _gather_corners(field, box, reads, faces: np.recarray) -> np.ndarray:
    """psi at the corners of the faces of the detection box (`_corners`),
    from the slabs `reads`: of each, only the planes from its first to its
    last that hold a corner are read."""
    x, y, z = (faces.index[:, None] + _CORNER_STEPS[faces.axis]).T
    corners = np.empty(x.shape, complex)
    for s in reads:
        inside = (x >= s.start) & (x < s.stop)
        if inside.any():
            at = x[inside]
            lo = int(at.min())
            corners[inside] = _read(field, box, slice(lo, int(at.max()) + 1))[at - lo, y[inside], z[inside]]
    return corners


def _noise_beside(code: np.ndarray, pierced: np.recarray) -> int:
    """Noise faces (code 16, the AND of the node codes at its four corners)
    of the cells that hold a pierced face, where a line can end at the noise
    floor.  A cell's faces normal to an axis have their lowest corner at its
    own and the next node; only their codes are formed."""
    ids = _face_cells(pierced, code.shape)
    cells = np.stack(np.unravel_index(ids[ids >= 0], np.subtract(code.shape, 1)), axis=1)
    count = 0
    for axis in range(3):
        faces = np.concatenate([cells, cells + np.eye(3, dtype=np.intp)[axis]])
        faces = _distinct(np.ravel_multi_index(tuple(faces.T), code.shape))
        index = np.stack(np.unravel_index(faces, code.shape), axis=1)
        face_codes = np.bitwise_and.reduce(_corners(code, axis, index), axis=0)
        count += int(np.count_nonzero(face_codes == 16))
    return count


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, by one sort:
    np.unique's, without the numpy.ma import np.unique makes."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


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
    cells = ids[inside]
    net = np.bincount(np.searchsorted(_distinct(cells), cells), weights=flux[inside])
    return int(np.max(np.abs(net), initial=0))


def _bilinear_zeros(grid: Grid3, faces: np.recarray, corners: np.ndarray) -> np.ndarray:
    """Zero of each face's bilinear corner model of psi, from psi at its
    corners (`_corners`), in world coords.

    In the face's unit square the model is f = a + b p + c q + d p q, linear
    in q with coefficients A = a + b p and C = c + d p.  So f vanishes where
    Im(A conj C) = 0, a real quadratic in p solved in the stable form, and
    q = -Re(A conj C) / |C|^2.  A face that winds once holds exactly one such
    root in its closed square; a face with none keeps its centre.
    """
    rows = np.arange(len(faces))
    a1, a2 = (faces.axis + 1) % 3, (faces.axis + 2) % 3
    v00, v10, v01, v11 = corners
    a, b, c, d = v00, v10 - v00, v01 - v00, v11 - v10 - v01 + v00
    alpha = (b * d.conj()).imag
    beta = (a * d.conj() + b * c.conj()).imag
    gamma = (a * c.conj()).imag
    # A linear quadratic (alpha = 0) has its one root in gamma / half; a
    # missing root comes out inf or NaN, which lies in no square.
    with np.errstate(all="ignore"):
        half = -0.5 * (beta + np.copysign(np.sqrt(beta * beta - 4.0 * alpha * gamma), beta))
        p = np.stack([half / alpha, gamma / half], axis=1)
        big_a, big_c = a[:, None] + b[:, None] * p, c[:, None] + d[:, None] * p
        q = -(big_a * big_c.conj()).real / np.abs(big_c) ** 2
    inside = (p >= 0.0) & (p <= 1.0) & (q >= 0.0) & (q <= 1.0)
    root = np.argmax(inside, axis=1)
    u = np.where(inside[rows, root][:, None], np.stack([p, q], axis=2)[rows, root], 0.5)
    spacing = np.asarray(grid.spacing)
    points = np.asarray(grid.origin) + spacing * faces.index
    points[rows, a1] += u[:, 0] * spacing[a1]
    points[rows, a2] += u[:, 1] * spacing[a2]
    return points


def _refine_batch(snapshot, scale, seeds, axis):
    """Newton iteration in each seed's face plane, normal to axis (one per
    seed, or one for all), on the exact field.  A point where it meets a
    singular Jacobian or does not converge starts again from its seed, with
    up to MIN_NORM_STEPS min-norm Newton steps in space (`min_norm_solve`),
    and keeps its seed only if those fail too: one bad point never aborts
    an extraction."""

    def converged(field):
        return np.abs(field.psi) <= 1e-12 * np.linalg.norm(field.grad, axis=-1) * scale

    seeds = np.asarray(seeds, dtype=float)
    axis = np.broadcast_to(axis, len(seeds))
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    pts, done = seeds.copy(), np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(pts))
    for _ in range(NEWTON_MAX_ITERATIONS):
        field = snapshot.on(pts[live])
        psi, grad = field.psi, field.grad
        hit = converged(field)
        done[live[hit]] = True
        u, v = a1[live], a2[live]
        rows = np.arange(len(live))
        gu, gv = grad[rows, u], grad[rows, v]
        det = gu.real * gv.imag - gu.imag * gv.real
        # NaN compares false: a point whose iterate overflowed stops too.
        step = ~hit & (np.abs(det) >= 1e-300)
        live, u, v, f, gu, gv, det = (a[step] for a in (live, u, v, psi, gu, gv, det))
        if not len(live):
            break
        pts[live, u] -= (f.real * gv.imag - f.imag * gv.real) / det
        pts[live, v] -= (f.imag * gu.real - f.real * gu.imag) / det
        live = live[np.all(np.isfinite(pts[live]), axis=1)]
    live = np.flatnonzero(~done)
    pts[live] = seeds[live]
    for step in range(MIN_NORM_STEPS + 1):
        if not len(live):
            break
        field = snapshot.on(pts[live])
        hit = converged(field)
        done[live[hit]] = True
        live, psi, grad = live[~hit], field.psi[~hit], field.grad[~hit]
        if step < MIN_NORM_STEPS and len(live):
            pts[live] -= min_norm_solve(grad, psi)
            live = live[np.all(np.isfinite(pts[live]), axis=1)]
    return np.where(done[:, None], pts, seeds)


def analytic_refiner(spec: SolutionSpec, consts: PhysicalConstants, snapshot: Snapshot):
    """A batched refiner closure for extract_lines over the exact field
    `snapshot` of spec."""
    scale = spec.length_scale(consts)

    def refine(seeds: np.ndarray, axis) -> np.ndarray:
        return _refine_batch(snapshot, scale, seeds, axis)

    return refine


def _extract_frame(spec, consts, grid, t) -> tuple[list[VortexPolyline], DetectionResult]:
    """Sample the exact field at time t on its zero box, detect there and
    extract with Newton refinement, which builds one more snapshot."""
    field = sample(spec, consts, grid, t)
    detection = detect_pierced_faces(field)
    refiner = analytic_refiner(spec, consts, spec.at(consts, t))
    return extract_lines(field, detection, refiner=refiner), detection


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
    field: SampledField | SlabbedField,
    detection: DetectionResult | None = None,
    refiner=None,
) -> list[VortexPolyline]:
    """Chain pierced faces into polylines of refined zero crossings.

    `refiner(seeds, axes) -> positions` refines the crossings of all pierced
    faces in one call, from their bilinear seeds, where axes[f] is the normal
    of face f; without one, the bilinear corner model is used (adequate for
    numerical fields, sub-cell accurate).
    """
    if detection is None:
        detection = detect_pierced_faces(field)
    faces = detection.pierced
    if not len(faces):
        return []
    points = _bilinear_zeros(field.grid, faces, detection.corners)
    if refiner is not None:
        points = refiner(points, faces.axis)
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
    """Sample, detect where P may vanish, and extract with analytic Newton
    refinement."""
    return _extract_frame(spec, consts, grid, t)[0]


def nearest(points: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distance to, and the index of, the nearest of `points` (n >= 1, 3)
    to each of `queries` (m, 3), by exhaustive search: squared differences
    summed in x, y, z order, the first index of the least sum, then its square
    root.  That is the arithmetic of a KD-tree query and of pairwise
    distances, so both come out bit-equal to theirs.  Queries go in blocks of
    at most NEAREST_BLOCK squared distances, which leaves each row's
    arithmetic as it is.  A query with a NaN coordinate gets distance NaN."""
    columns = np.asarray(points, dtype=float).T.copy()
    queries = np.asarray(queries, dtype=float)
    distance = np.empty(len(queries))
    index = np.empty(len(queries), dtype=np.intp)
    rows = max(1, NEAREST_BLOCK // columns.shape[1])
    squared = np.empty((min(rows, len(queries)), columns.shape[1]))
    diff = np.empty_like(squared)
    for lo in range(0, len(queries), rows):
        block = queries[lo:lo + rows, :, None]
        total, term = squared[:len(block)], diff[:len(block)]
        np.subtract(block[:, 0], columns[0], out=total)
        total *= total
        for axis in (1, 2):
            np.subtract(block[:, axis], columns[axis], out=term)
            term *= term
            total += term
        best = np.argmin(total, axis=1)
        index[lo:lo + rows] = best
        distance[lo:lo + rows] = np.sqrt(total[np.arange(len(block)), best])
    return distance, index


def _landings(spec, consts, grid, previous, current):
    """Each node of `previous` carried to the time of `current` along
    u = -J^+ dpsi/dt, then by one min-norm Newton step onto psi = 0.  It lands
    on the line of `current` that owns its nearest node, when that node is
    strictly closer than a cell diagonal (d < diagonal; at d = diagonal it
    lands nowhere); nodes that start or land within a cell diagonal of the
    box faces do not count.  Returns (nodes, landings, line, target line or
    -1) of the counted nodes."""
    nodes = np.concatenate([p.points for p in previous])
    line = np.repeat(np.arange(len(previous)), [len(p.points) for p in previous])
    t0, t1 = previous[0].frame_time, current[0].frame_time
    values = spec.at(consts, t0).on(nodes)
    landed = nodes + (t1 - t0) * min_norm_solve(values.grad, -values.dt)
    values = spec.at(consts, t1).on(landed)
    landed -= min_norm_solve(values.grad, values.psi)
    diag = grid.cell_diagonal
    lo = np.asarray(grid.origin) + diag
    hi = lo + np.asarray(grid.lengths) - 2.0 * diag
    # NaN compares false: a node whose step overflowed counts, and lands nowhere.
    counted = ~np.any((nodes < lo) | (nodes > hi) | (landed < lo) | (landed > hi), axis=1)
    nodes, landed, line = nodes[counted], landed[counted], line[counted]
    owner = np.repeat(np.arange(len(current)), [len(p.points) for p in current])
    distance, index = nearest(np.concatenate([p.points for p in current]), landed)
    target = np.where(distance < diag, owner[index], -1)
    return nodes, landed, line, target


def _paired(line, target) -> np.ndarray:
    """Pairs (i, j), shape (k, 2), from the distinct (line, target) links, each
    an integer key: every counted node of line i landed, all on line j, and
    no node of another line landed on j."""
    width = np.max(target, initial=0) + 2
    i, j = np.divmod(_distinct(line * width + target + 1), width)
    alone = (np.bincount(i)[i] == 1) & (np.bincount(j)[j] == 1) & (j > 0)
    return np.stack([i, j - 1], axis=1)[alone]


def match_polylines(
    spec: SolutionSpec, consts: PhysicalConstants, grid: Grid3,
    previous: list[VortexPolyline], current: list[VortexPolyline],
) -> list[tuple[int, int]]:
    """Pairs (i, j) of line i of `previous` and the line j of `current` that
    its nodes alone land on, continued along the exact field (_landings).  A
    line that does not pair has met an event or a box face."""
    if not previous or not current:
        return []
    links = _landings(spec, consts, grid, previous, current)[2:]
    return [(i, j) for i, j in _paired(*links).tolist()]


def _event_root(spec, consts, seed, lo, hi, scale):
    """Gauss-Newton root X* = (x, y, z, t) of (Re psi, Im psi, omega) from
    `seed` clipped into the box lo <= X <= hi: (X*, field values, scaled
    Jacobian), or None if the solve does not converge.  An iterate that
    leaves the box is projected back into it, and the solve ends at the
    third step in a row that leaves it: a first step from a seed near the
    box's edge may overshoot a root inside it.

    X is measured in `scale`; rows are unit-free, psi / (g scale[0]) and
    omega / g^2 with g = |grad psi| at the seed.  Each step solves the exact
    5 x 4 Jacobian by least squares, at minimum norm on a curve of roots: its
    rows are d psi / dX = `grad4` and, by the product rule on omega, d grad
    psi / dX = `hess4[:3]`.
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
        d_grad = values.hess4[:3]  # d grad psi / dX
        jac = np.vstack([values.grad4.real, values.grad4.imag,
                         (np.cross(d_grad.real.T, im) + np.cross(re, d_grad.imag.T)).T])
        jac *= rows[:, None] * scale
        step = np.linalg.lstsq(jac, rows * residual, rcond=None)[0]
        x = x - step * scale
        if np.max(np.abs(step)) <= EVENT_TOLERANCE:
            if not np.max(np.abs(rows * residual)) <= EVENT_TOLERANCE:
                values, residual = at(x)  # judge the root returned
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
    gradients = np.stack([values.grad4.real, values.grad4.imag], 1)
    l1, l2 = np.linalg.lstsq(gradients, np.eye(4)[3], rcond=None)[0]
    plane = np.linalg.svd(gradients[:3])[0][:, 1:]
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
    candidates, the lines of frame pair i that do not pair.  A solve starts
    at the pair's middle time from the line's centroid moved there by its
    mean node velocity u = -J^+ dpsi/dt: a line seen in one frame can sit
    halfway between two events.  Roots are one event when they have the
    same kind, t* within the solver tolerance, and positions within a cell
    diagonal once the offset along the Jacobian's null direction (a curve of
    roots) is removed.
    """
    diag, frame_step = grid.cell_diagonal, float(times[1] - times[0])
    scale = np.array([diag, diag, diag, frame_step])
    lo = np.append(grid.origin, times[0])
    hi = np.append(np.add(grid.origin, grid.lengths), times[-1])
    found: list[tuple[Event, np.ndarray]] = []
    for i, line in candidates:
        t_mid = 0.5 * (times[i] + times[i + 1])
        values = spec.at(consts, line.frame_time).on(line.points)
        velocity = min_norm_solve(values.grad, -values.dt).mean(axis=0)
        moved = line.centroid + velocity * (t_mid - line.frame_time)
        root = _event_root(spec, consts, np.append(moved, t_mid), lo, hi, scale)
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
    line of a frame pair that does not pair (match_polylines)."""
    if n_frames < 1:
        raise SpecValidationError("tracking needs at least 1 frame")
    if not t_start < t_end:
        raise SpecValidationError("t_start must be < t_end")
    times = np.linspace(t_start, t_end, n_frames + 1)
    log = EventLog()
    frames: list[list[VortexPolyline]] = []
    detections = []
    for t in times:
        lines, detection = _extract_frame(spec, consts, grid, float(t))
        frames.append(lines)
        detections.append(detection)
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

    candidates = []
    for i in range(n_frames):
        prev, curr = frames[i], frames[i + 1]
        pairs = match_polylines(spec, consts, grid, prev, curr)
        kept_prev, kept_curr = {a for a, _ in pairs}, {b for _, b in pairs}
        candidates.extend((i, line) for j, line in enumerate(prev) if j not in kept_prev)
        candidates.extend((i, line) for j, line in enumerate(curr) if j not in kept_curr)
    log.events = _events_at_roots(spec, consts, grid, times, candidates)
    return frames, log


def node_speeds(
    spec: SolutionSpec, consts: PhysicalConstants, grid: Grid3,
    frames: list[list[VortexPolyline]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The counted nodes of the paired lines, shape (n, 3), and
    |landed - node| / dt of each, with the nodes continued as in
    match_polylines and dt taken from the lines' frame times: one (nodes,
    speeds) per frame pair, empty where a frame has no lines."""
    speeds = []
    for prev, curr in zip(frames, frames[1:]):
        if not prev or not curr:
            speeds.append((np.empty((0, 3)), np.array([])))
            continue
        nodes, landed, line, target = _landings(spec, consts, grid, prev, curr)
        paired = np.zeros(len(prev), dtype=bool)
        paired[_paired(line, target)[:, 0]] = True
        paired = paired[line]
        dt = curr[0].frame_time - prev[0].frame_time
        chords = np.linalg.norm(landed[paired] - nodes[paired], axis=1)
        speeds.append((nodes[paired], chords / dt))
    return speeds
