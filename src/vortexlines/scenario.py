"""Config-driven scenario runner: sample -> extract -> track -> verify.

A scenario binds one analytic solution to a grid and a time window, runs the
tracker over the window, and evaluates named verification suites.  Every
check reports {name, passed, measured, tolerance}; the run fails (nonzero
status) if any check fails, but artifacts are always written.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import anatomy, propagator, serialization, tracker
from .catalog import (
    FreeLineVortex,
    FreePlaneWave,
    FreeRingCylinder,
    MagneticLine,
    RelRingCylinder,
    SolutionSpec,
    TrapRing,
    amplitude,
    pde_residual,
    prefactor,
)
from .constants import PhysicalConstants
from .errors import (AmbiguousWindingError, BoundaryDecayError, DegenerateVortexError,
                     NotOnLineError, SpecValidationError, VortexCoreError)
from .generate import generate_from_polynomial
from .grids import Grid3, SlabbedField, sample_in_slabs

RESIDUAL_TOLERANCE = 1e-6
CIRCULATION_TOLERANCE = 1e-4
GENERATION_TOLERANCE = 1e-5
ORACLE_L2_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ScenarioConfig:
    spec: SolutionSpec
    consts: PhysicalConstants
    grid: Grid3
    time_range: tuple[float, float]
    n_frames: int
    checks: tuple[str, ...]
    output_format: str = "text"  # text | table | svg
    seed: int = 0

    def __post_init__(self):
        if np.shape(self.time_range) != (2,):
            raise SpecValidationError(f"time_range must be [start, end], got {self.time_range}")
        if not np.all(np.isfinite(self.time_range)):
            raise SpecValidationError(f"time_range must be finite, got {self.time_range}")
        for name in ("n_frames", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise SpecValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.seed < 0:
            raise SpecValidationError(f"seed must be >= 0, got {self.seed}")
        # Not any iterable: a string would be split into letters.
        if not (isinstance(self.checks, (list, tuple))
                and all(isinstance(c, str) for c in self.checks)):
            raise SpecValidationError(f"checks must be a list of check names, got {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))

    def to_dict(self) -> dict:
        return {
            "spec": serialization.spec_to_dict(self.spec),
            "consts": serialization.consts_to_dict(self.consts),
            "grid": serialization.grid_to_dict(self.grid),
            "time_range": list(self.time_range),
            "n_frames": self.n_frames,
            "checks": list(self.checks),
            "output_format": self.output_format,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        try:
            return ScenarioConfig(
                spec=serialization.spec_from_dict(data["spec"]),
                consts=serialization.consts_from_dict(data.get("consts", {})),
                grid=serialization.grid_from_dict(data["grid"]),
                time_range=tuple(float(v) for v in data["time_range"]),
                n_frames=data["n_frames"],
                checks=data.get("checks", ()),
                output_format=data.get("output_format", "text"),
                seed=data.get("seed", 0),
            )
        except SpecValidationError:
            raise
        except KeyError as exc:
            raise SpecValidationError(f"config is missing the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(f"malformed config: {exc}") from None


def validate(config: ScenarioConfig) -> list[str]:
    """All config violations, not just the first."""
    problems = []
    if not config.time_range[0] < config.time_range[1]:
        problems.append(
            f"time_range: start {config.time_range[0]} must be < end {config.time_range[1]}"
        )
    if config.n_frames < 1:
        problems.append(f"n_frames: must be >= 1, got {config.n_frames}")
    for name in config.checks:
        if name not in CHECK_REGISTRY:
            problems.append(f"checks: unknown check {name!r}")
    if "oracle" in config.checks and config.spec.equation not in ("free", "trap"):
        problems.append(
            f"checks: oracle is unavailable for the {config.spec.equation} equation"
        )
    elif "oracle" in config.checks and not config.spec.window(config.consts).coeffs:
        # The periodic propagator needs data that decays at the box walls.
        problems.append(
            f"checks: oracle is unavailable for {type(config.spec).__name__}, "
            "which has no window to decay at the box walls"
        )
    if config.output_format not in ("text", "table", "svg"):
        problems.append(f"output_format: unknown format {config.output_format!r}")
    return problems


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class ScenarioResult:
    exit_status: int
    checks: list[CheckResult]
    frames: list
    event_log: tracker.EventLog
    artifacts: list[str] = field(default_factory=list)


def run(config: ScenarioConfig, out_dir) -> ScenarioResult:
    problems = validate(config)
    if problems:
        raise SpecValidationError("; ".join(problems))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0, t1 = config.time_range
    times = np.linspace(t0, t1, config.n_frames + 1)

    frames, log = tracker.track(
        config.spec, config.consts, config.grid, t0, t1, config.n_frames
    )

    artifacts = []
    lines_path = out / "polylines.jsonl"
    serialization.write_polylines_jsonl(lines_path, frames, times)
    artifacts.append(str(lines_path))
    events_path = out / "events.json"
    serialization.write_events(events_path, log)
    artifacts.append(str(events_path))
    if config.output_format == "table":
        csv_path = out / "polylines.csv"
        serialization.write_polylines_csv(csv_path, frames, times)
        artifacts.append(str(csv_path))
    elif config.output_format == "svg":
        lo = np.asarray(config.grid.origin)
        hi = lo + np.asarray(config.grid.lengths)
        for i, lines in enumerate(frames):
            svg_path = out / f"frame_{i:04d}.svg"
            serialization.svg_snapshot(lines, lo, hi, svg_path)
            artifacts.append(str(svg_path))

    checks = []
    for name in config.checks:
        checks.extend(CHECK_REGISTRY[name](config, frames, log, times))

    summary_path = out / "summary.json"
    serialization.dump_json(
        {
            "config": config.to_dict(),
            "checks": [c.to_dict() for c in checks],
            "n_events": len(log.events),
            "n_warnings": len(log.warnings),
        },
        summary_path,
    )
    artifacts.append(str(summary_path))
    status = 0 if all(c.passed for c in checks) else 1
    return ScenarioResult(status, checks, frames, log, artifacts)


# --------------------------------------------------------------------------
# checks


def _draws(seed, lo, hi, count, time_range, n_times):
    """`count` points uniform in the box [lo, hi] and `n_times` times uniform
    in time_range, from Python's random.Random(seed): each u = random() maps
    to lo + (hi - lo) * u, the points row-major, then the times."""
    u = random.Random(seed).random
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    pts = lo + span * np.array([u() for _ in range(3 * count)]).reshape(count, 3)
    t0, t1 = time_range
    return pts, [t0 + (t1 - t0) * u() for _ in range(n_times)]


def check_residual(config, frames, log, times) -> list[CheckResult]:
    """The normalized equation residual at 1000 points of the grid box and 8
    times of the window, drawn by `_draws` from random.Random(config.seed)."""
    lo = np.asarray(config.grid.origin)
    pts, ts = _draws(config.seed, lo, lo + np.asarray(config.grid.lengths), 1000,
                     config.time_range, 8)
    # np.max, not max: a NaN anywhere must make the measured value NaN.
    worst = float(np.max([np.max(pde_residual(config.spec, config.consts, pts, t)) for t in ts]))
    return [
        CheckResult("residual", worst < RESIDUAL_TOLERANCE, worst, RESIDUAL_TOLERANCE,
                    "max normalized equation residual at 1000 points x 8 times")
    ]


def _line_probe(config, frames, times):
    """A (frame index, line, point) triple from the middle of the run."""
    order = sorted(range(len(frames)), key=lambda i: abs(i - len(frames) // 2))
    for i in order:
        if frames[i]:
            line = max(frames[i], key=lambda p: len(p.points))
            return i, line, line.points[len(line.points) // 2]
    return None


def check_circulation(config, frames, log, times) -> list[CheckResult]:
    def failed(detail):
        return [CheckResult("circulation", False, math.nan, CIRCULATION_TOLERANCE, detail)]

    probe = _line_probe(config, frames, times)
    if probe is None:
        return failed("no vortex line found to probe")
    i, line, point = probe
    t = float(times[i])
    try:
        data = anatomy.w_vector(config.spec, config.consts, point, t)
        contour = anatomy.Contour(
            center=tuple(point), normal=data.tangent,
            radius=1.5 * config.grid.cell_diagonal, samples=256,
        )
        gamma = anatomy.circulation_from_velocity(
            config.spec, config.consts, contour, t,
            vector_potential=(lambda pts: np.zeros(np.asarray(pts).shape)),
        )
        n = anatomy.winding_number(config.spec, config.consts, contour, t)
    except NotOnLineError as exc:
        # Refinement left this point at its bilinear seed.
        return failed(f"probe point is not on a line: {exc}")
    except (DegenerateVortexError, VortexCoreError, AmbiguousWindingError) as exc:
        return failed(f"no circulation at the probe point: {exc}")
    quantum = 2.0 * math.pi * config.consts.hbar / config.consts.mass
    if n == 0:
        return [CheckResult("circulation", False, 0.0, CIRCULATION_TOLERANCE,
                            "contour winding came out zero")]
    measured = abs(gamma / (n * quantum) - 1.0)
    return [
        CheckResult("circulation", measured < CIRCULATION_TOLERANCE, measured,
                    CIRCULATION_TOLERANCE,
                    f"relative deviation of the velocity line integral from {n} quanta")
    ]


def _periodicity(before, after, tolerance, detail) -> CheckResult:
    """The Hausdorff distance between the line points a period apart."""
    if before is None or after is None:
        return CheckResult("locus", False, math.nan, tolerance,
                           f"no line to compare: {detail}")
    d = float(np.maximum(tracker.nearest(after, before)[0].max(),
                         tracker.nearest(before, after)[0].max()))
    return CheckResult("locus", d <= tolerance, d, tolerance, detail)


def _off_circle(points, center, radius) -> np.ndarray:
    """Each point's distance from the circle of this center and radius,
    normal to z: the hypot of its radial and height errors."""
    radial = np.hypot(points[:, 0] - center[0], points[:, 1] - center[1]) - radius
    return np.hypot(radial, points[:, 2] - center[2])


def check_locus(config, frames, log, times) -> list[CheckResult]:
    """The lines against the family's locus law, and, where the family has
    a period, the lines at the window's start against those one period on.
    A ring family's frames are held to its circle where the law's radius
    exceeds the tolerance; such a frame without lines, or a frame with lines
    where the law has no ring (a NaN radius), fails the check with NaN and
    names its time."""
    spec, consts, grid = config.spec, config.consts, config.grid
    diag = grid.cell_diagonal
    period = spec.period(consts)

    def points_at(t):
        """The line points at time t, from the tracked frame of exactly that
        time where there is one; None where there are no lines."""
        (hit,) = np.nonzero(times == t)
        lines = frames[hit[0]] if len(hit) else tracker.extract(spec, consts, grid, t)
        return np.concatenate([l.points for l in lines]) if lines else None

    if isinstance(spec, MagneticLine):
        tolerance = diag
        span = max(grid.lengths)
        xs = np.linspace(-span, span, 1200)
        distances = []
        for phase in range(8):
            t = phase * period / 8.0
            pts = points_at(t)
            if pts is None:
                return [CheckResult("locus", False, math.nan, tolerance,
                                    f"no line extracted at t={t:.4g}")]
            curve = spec.parametric_locus(consts, t, xs)
            distances.append(tracker.nearest(curve, pts)[0].max())
        worst = float(np.max(distances))
        law = "the parametric precessing line at 8 phases"
    elif isinstance(spec, TrapRing):
        tolerance = 0.5 * diag
        pts = points_at(0.0)
        if pts is None:
            return [CheckResult("locus", False, math.nan, tolerance,
                                "no ring extracted at t=0")]
        worst = float(np.max(_off_circle(pts, (spec.R, 0.0, 0.0), spec.R)))
        law = "the t=0 circle of radius R through the trap center"
    elif spec.ring(consts, 0.0) is not None:
        tolerance = 0.5 * diag
        offsets = []
        for t in map(float, times):
            center, radius = spec.ring(consts, t)
            pts = points_at(t)
            if (pts is None and radius > tolerance) or (pts is not None and math.isnan(radius)):
                return [CheckResult("locus", False, math.nan, tolerance,
                                    f"the law's radius at t={t:.6g} is {radius:.4g}, but "
                                    f"{'no' if pts is None else 'some'} lines were found")]
            if radius > tolerance:
                offsets.append(float(np.max(_off_circle(pts, center, radius))))
        worst = float(np.max(offsets)) if offsets else math.nan
        law = f"the ring's circle over {len(offsets)} frames"
    else:
        return [CheckResult(
            "locus", False, math.nan, 0.0,
            f"no analytic locus is registered for {type(spec).__name__}")]
    results = [CheckResult("locus", worst <= tolerance, worst, tolerance,
                           f"max distance from {law}")]
    if period is not None:
        start = float(times[0])
        results.append(_periodicity(
            points_at(start), points_at(start + period), tolerance,
            f"lines return to their start after one period {period:.6g}"))
    return results


def check_events(config, frames, log, times) -> list[CheckResult]:
    """The events that the family's laws place strictly inside the window,
    t0 < t < t1; `track` finds none at a window end.  Where the family has
    an annihilation time t_a: exactly one creation at -t_a and one
    annihilation at +t_a, each at the law's time, or none of a kind whose
    time lies outside.  Where it has a reconnection time t_r inside:
    reconnections and nothing else.  No events otherwise."""
    spec, consts = config.spec, config.consts
    t0, t1 = config.time_range
    t_a = spec.annihilation_time(consts)
    if t_a is not None:
        results = []
        tolerance = 1e-9 * t_a
        for kind, expected in (("creation", -t_a), ("annihilation", t_a)):
            found = log.of_kind(kind)
            if not t0 < expected < t1:
                results.append(CheckResult(
                    "events", not found, float(len(found)), 0.0,
                    f"no {kind}: the law's t={expected:+.6g} lies outside the window"))
                continue
            measured = min((abs(e.t - expected) for e in found), default=math.nan)
            results.append(CheckResult(
                "events", len(found) == 1 and measured <= tolerance, measured, tolerance,
                f"exactly one {kind}, at the law's t={expected:+.6g}"))
        return results
    t_r = spec.reconnection_time(consts)
    if t_r is not None and (t0 < -t_r < t1 or t0 < t_r < t1):
        n_recon = len(log.of_kind("reconnection"))
        spurious = len(log.events) - n_recon
        return [CheckResult(
            "events", n_recon >= 1 and spurious == 0, float(n_recon), 1.0,
            "switchover window shows reconnection events and nothing else")]
    return [CheckResult(
        "events", len(log.events) == 0, float(len(log.events)), 0.0,
        "no topology events expected in this window")]


def check_oracle(config, frames, log, times) -> list[CheckResult]:
    spec, consts, grid = config.spec, config.consts, config.grid
    t0, t1 = config.time_range
    prop_config = propagator.PropagatorConfig(
        t1 - t0, spec.omega if spec.equation == "trap" else 0.0)
    # No whole-grid field is held.  t0's walls, and its zero box's max |psi|,
    # at most its peak, come from its axis rows; the peak is searched for
    # only if the walls are not within the limit of that max.  psi(t0) is a
    # sum of products of axis rows, and the evolution is U_x (x) U_y (x) U_z:
    # each U_a acts on its axis's rows, and the evolved field is formed slab
    # by slab where the L2 error and detection read it.  The L2 error's
    # first pass finds its peak and profiles for detection.
    snapshot = spec.at(consts, t0)
    axes = [grid.axis_coords(a) for a in range(3)]
    try:
        propagator.require_decayed_above(*snapshot.walls_and_bracket(*axes))
    except BoundaryDecayError as exc:
        return [CheckResult("oracle", False, exc.boundary_amplitude,
                            propagator.BOUNDARY_DECAY, str(exc))]
    maps = propagator.axis_propagators(grid, prop_config, consts)
    evolved = SlabbedField(grid, snapshot.on_grid_slabs(*axes, maps=maps), t1)
    err = propagator.l2_relative_error(sample_in_slabs(spec, consts, grid, t1), evolved)
    results = [CheckResult(
        "oracle", err < ORACLE_L2_TOLERANCE, err, ORACLE_L2_TOLERANCE,
        f"phase-optimal L2 error of exact discrete evolution over t={t0:g}..{t1:g}")]

    numeric_lines = tracker.extract_lines(evolved)
    diag = grid.cell_diagonal
    if not numeric_lines:
        results.append(CheckResult(
            "oracle", False, math.nan, diag,
            "no vortex lines found in the evolved field"))
        return results
    # Extract the analytic lines on a finer box around the numeric ones.
    num_pts = np.concatenate([l.points for l in numeric_lines])
    lo = num_pts.min(axis=0) - 3.0 * diag
    hi = num_pts.max(axis=0) + 3.0 * diag
    lengths = np.maximum(hi - lo, 6.0 * diag)
    dims = np.clip(np.ceil(lengths / (0.4 * diag)).astype(int), 16, 96)
    subgrid = Grid3.centered(0.5 * (lo + hi), lengths, dims)
    analytic_lines = tracker.extract(spec, consts, subgrid, t1)
    if not analytic_lines:
        results.append(CheckResult(
            "oracle", False, math.nan, diag,
            "no analytic vortex lines found near the numeric ones"))
        return results
    ana_pts = np.concatenate([l.points for l in analytic_lines])
    # Open lines end where each field drops below its own noise floor, so
    # compare only on the overlap of the two extractions.
    box_lo = ana_pts.min(axis=0) - diag
    box_hi = ana_pts.max(axis=0) + diag
    inside = np.all((num_pts >= box_lo) & (num_pts <= box_hi), axis=1)
    if np.count_nonzero(inside) < 0.5 * len(num_pts):
        results.append(CheckResult(
            "oracle", False, math.nan, diag,
            "numeric lines mostly lie outside the analytic-line region"))
        return results
    worst = float(tracker.nearest(ana_pts, num_pts[inside])[0].max())
    results.append(CheckResult(
        "oracle", worst <= diag, worst, diag,
        "tracker output from the evolved field matches the analytic extraction"))
    return results


def check_node_speed(config, frames, log, times) -> list[CheckResult]:
    """Each node's chord speed against the speed |u| of the line velocity
    u = -J^+ dpsi/dt at the node, the law of every family at every k; where
    a closed form exists, |u| against it too, and on the Klein-Gordon ring
    the slowest node must outrun light."""
    spec, consts = config.spec, config.consts
    found = [
        (float(t), nodes, speeds)
        for t, (nodes, speeds) in zip(times, tracker.node_speeds(spec, consts, config.grid, frames))
        if len(speeds)
    ]
    if not found:
        return [CheckResult("node_speed", False, math.nan, 0.0,
                            "no matched lines to measure")]
    speeds = np.concatenate([s for _, _, s in found])
    velocity = []
    for t, nodes, _ in found:
        field = spec.at(consts, t).on(nodes)
        velocity.append(anatomy.min_norm_solve(field.grad, -field.dt))
    expected = np.linalg.norm(np.concatenate(velocity), axis=1)
    # Lines at rest are held to a speed floor far below any drift.
    floor = 1e-9 * consts.hbar / (consts.mass * spec.length_scale(consts))
    measured = float(np.max(np.abs(speeds - expected) / np.maximum(expected, floor)))
    ok, law = True, "the line velocity at each node"
    exact = spec.node_speed(consts)
    if exact is not None:
        measured = float(np.maximum(measured, np.max(np.abs(expected - exact) / max(exact, floor))))
        law += f", and of its speed from the exact {exact:g}"
    if isinstance(spec, RelRingCylinder):
        slowest, c = float(np.min(speeds)), consts.light_speed
        ok = slowest > c
        law += f"; slowest node {slowest:.7g} against light speed {c:g}"
    return [CheckResult("node_speed", ok and measured < 1e-4, measured, 1e-4,
                        f"max relative deviation from {law}")]


def check_generation(config, frames, log, times) -> list[CheckResult]:
    """Generated line and ring amplitudes against their closed forms at 100
    points of [-1.5, 1.5]^3 and times of [-1, 1], drawn by `_draws` from
    random.Random(config.seed)."""
    consts = config.consts
    pts, ts = _draws(config.seed, (-1.5,) * 3, (1.5,) * 3, 100, (-1.0, 1.0), 100)
    k = getattr(config.spec, "k", FreePlaneWave().k)
    cases = [
        (FreePlaneWave(k=k), FreeLineVortex(chi=0.6, k=k), "line vortex"),
        (FreePlaneWave(k=k), FreeRingCylinder(R=1.3, a=0.8, k=k), "cylinder ring"),
    ]
    results = []
    for carrier, target, label in cases:
        poly = prefactor(target, consts, 0.0)
        errors = []
        for p, t in zip(pts, ts):
            gen = complex(generate_from_polynomial(carrier, poly, consts, p, t))
            ref = complex(amplitude(target, consts, p, t))
            errors.append(abs(gen - ref) / max(abs(ref), 1e-9))
        worst = float(np.max(errors))
        results.append(CheckResult(
            "generation", worst < GENERATION_TOLERANCE, worst, GENERATION_TOLERANCE,
            f"numeric k-differentiation reproduces the {label} closed form "
            "at 100 random spacetime points"))
    return results


CHECK_REGISTRY = {
    "residual": check_residual,
    "circulation": check_circulation,
    "locus": check_locus,
    "events": check_events,
    "oracle": check_oracle,
    "node_speed": check_node_speed,
    "generation": check_generation,
}
