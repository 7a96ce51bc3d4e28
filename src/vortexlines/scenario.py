"""Config-driven scenario runner: sample -> extract -> track -> verify.

A scenario binds one analytic solution to a grid and a time window, runs the
tracker over the window, and evaluates named verification suites.  Every
check reports {name, passed, measured, tolerance}; the run fails (nonzero
status) if any check fails, but artifacts are always written.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import anatomy, propagator, serialization, tracker
from .catalog import (
    FreeLineVortex,
    FreePlaneWave,
    FreeRingCylinder,
    FreeRingSphere,
    FreeTwoLinesSymmetric,
    GaussianLineVortex,
    MagneticLine,
    RelRingCylinder,
    SolutionSpec,
    TrapRing,
    amplitude,
    pde_residual,
    prefactor,
)
from .constants import PhysicalConstants
from .errors import NotOnLineError, SpecValidationError
from .generate import generate_from_polynomial
from .grids import Grid3, sample

CHECK_NAMES = (
    "residual",
    "circulation",
    "locus",
    "events",
    "oracle",
    "node_speed",
    "generation",
)

RESIDUAL_TOLERANCE = 1e-6
CIRCULATION_TOLERANCE = 1e-4
GENERATION_TOLERANCE = 1e-5
ORACLE_L2_TOLERANCE = 1e-5


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
        for name in ("n_frames", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise SpecValidationError(f"{name} must be an integer, got {value!r}") from None

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
                checks=tuple(data.get("checks", ())),
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
        if name not in CHECK_NAMES:
            problems.append(f"checks: unknown check {name!r}")
    if "oracle" in config.checks and config.spec.equation not in ("free", "trap"):
        problems.append(
            f"checks: oracle is unavailable for the {config.spec.equation} equation"
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


def _grid_points(config, rng, count):
    lo = np.asarray(config.grid.origin)
    hi = lo + np.asarray(config.grid.lengths)
    return rng.uniform(lo, hi, size=(count, 3))


def check_residual(config, frames, log, times) -> list[CheckResult]:
    rng = np.random.default_rng(config.seed)
    pts = _grid_points(config, rng, 1000)
    ts = rng.uniform(config.time_range[0], config.time_range[1], size=8)
    worst = max(
        float(np.max(pde_residual(config.spec, config.consts, pts, float(t))))
        for t in ts
    )
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
    probe = _line_probe(config, frames, times)
    if probe is None:
        return [CheckResult("circulation", False, math.nan, CIRCULATION_TOLERANCE,
                            "no vortex line found to probe")]
    i, line, point = probe
    t = float(times[i])
    try:
        data = anatomy.w_vector(config.spec, config.consts, point, t)
    except NotOnLineError as exc:
        # Refinement left this point at its bilinear seed.
        return [CheckResult("circulation", False, math.nan, CIRCULATION_TOLERANCE,
                            f"probe point is not on a line: {exc}")]
    contour = anatomy.Contour(
        center=tuple(point), normal=data.tangent,
        radius=1.5 * config.grid.cell_diagonal, samples=256,
    )
    quantum = 2.0 * math.pi * config.consts.hbar / config.consts.mass
    gamma = anatomy.circulation_from_velocity(
        config.spec, config.consts, contour, t,
        vector_potential=(lambda pts: np.zeros(np.asarray(pts).shape)),
    )
    n = anatomy.winding_number(config.spec, config.consts, contour, t)
    if n == 0:
        return [CheckResult("circulation", False, 0.0, CIRCULATION_TOLERANCE,
                            "contour winding came out zero")]
    measured = abs(gamma / (n * quantum) - 1.0)
    return [
        CheckResult("circulation", measured < CIRCULATION_TOLERANCE, measured,
                    CIRCULATION_TOLERANCE,
                    f"relative deviation of the velocity line integral from {n} quanta")
    ]


def _max_distance_to_curve(points: np.ndarray, curve: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    return float(np.max(cKDTree(curve).query(points)[0]))


def check_locus(config, frames, log, times) -> list[CheckResult]:
    spec, consts, grid = config.spec, config.consts, config.grid
    diag = grid.cell_diagonal
    results = []
    if isinstance(spec, MagneticLine):
        omega_c = consts.cyclotron_frequency(spec.B)
        period = 2.0 * math.pi / omega_c
        span = max(grid.lengths)
        xs = np.linspace(-span, span, 1200)
        worst = 0.0
        for phase in range(8):
            t = phase * period / 8.0
            lines = tracker.extract(spec, consts, grid, t)
            if not lines:
                return [CheckResult("locus", False, math.nan, diag,
                                    f"no line extracted at t={t:.4g}")]
            curve = spec.parametric_locus(consts, t, xs)
            for line in lines:
                worst = max(worst, _max_distance_to_curve(line.points, curve))
        results.append(CheckResult(
            "locus", worst <= diag, worst, diag,
            "max deviation from the parametric precessing line at 8 phases"))
        before = np.concatenate(
            [l.points for l in tracker.extract(spec, consts, grid, 0.0)])
        after = np.concatenate(
            [l.points for l in tracker.extract(spec, consts, grid, period)])
        d = tracker.symmetric_hausdorff(before, after)
        results.append(CheckResult(
            "locus", d <= diag, d, diag,
            "line returns to its start after one cyclotron period"))
    elif isinstance(spec, TrapRing):
        lines = tracker.extract(spec, consts, grid, 0.0)
        if not lines:
            return [CheckResult("locus", False, math.nan, 0.5 * diag,
                                "no ring extracted at t=0")]
        pts = np.concatenate([l.points for l in lines])
        radial = np.hypot(pts[:, 0] - spec.R, pts[:, 1]) - spec.R
        dist = np.hypot(radial, pts[:, 2])
        worst = float(np.max(np.abs(dist)))
        results.append(CheckResult(
            "locus", worst <= 0.5 * diag, worst, 0.5 * diag,
            "t=0 ring is the circle of radius R through the trap center"))
        period = 2.0 * math.pi / spec.omega
        t_probe = float(times[len(times) // 2])
        before = np.concatenate(
            [l.points for l in tracker.extract(spec, consts, grid, t_probe)])
        after = np.concatenate(
            [l.points for l in tracker.extract(spec, consts, grid, t_probe + period)])
        d = tracker.symmetric_hausdorff(before, after)
        results.append(CheckResult(
            "locus", d <= 0.5 * diag, d, 0.5 * diag,
            "ring locus is periodic with the trap period"))
    elif isinstance(spec, FreeRingSphere):
        worst = 0.0
        checked = 0
        for i, lines in enumerate(frames):
            t = float(times[i])
            arg = spec.R**2 - (3.0 * consts.hbar * t / (consts.mass * spec.a)) ** 2
            if arg <= (0.5 * diag) ** 2 or not lines:
                continue
            expected = math.sqrt(arg)
            center = spec.classical_velocity(consts) * t
            pts = np.concatenate([l.points for l in lines])
            measured = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
            worst = max(worst, float(np.max(np.abs(measured - expected))))
            checked += 1
        ok = checked > 0 and worst <= 0.5 * diag
        results.append(CheckResult(
            "locus", ok, worst, 0.5 * diag,
            f"ring radius follows sqrt(R^2 - (3 hbar t / m a)^2) over {checked} frames"))
    elif isinstance(spec, FreeRingCylinder):
        worst = 0.0
        checked = 0
        v = spec.classical_velocity(consts)
        for i, lines in enumerate(frames):
            if not lines:
                continue
            t = float(times[i])
            pts = np.concatenate([l.points for l in lines])
            center = v * t
            radial = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) - spec.R
            z_true = center[2] - 2.0 * consts.hbar * t / (consts.mass * spec.a)
            worst = max(worst, float(np.max(np.hypot(radial, pts[:, 2] - z_true))))
            checked += 1
        ok = checked > 0 and worst <= 0.5 * diag
        results.append(CheckResult(
            "locus", ok, worst, 0.5 * diag,
            f"ring keeps radius R and drifts at -2 hbar/(m a) over {checked} frames"))
    else:
        results.append(CheckResult(
            "locus", False, math.nan, 0.0,
            f"no analytic locus is registered for {type(spec).__name__}"))
    return results


def _expected_event_time(spec, consts):
    if isinstance(spec, FreeRingSphere):
        return spec.annihilation_time(consts)
    if isinstance(spec, FreeTwoLinesSymmetric) and abs(
        math.sin(spec.varphi)
    ) > 1.0 - 1e-9:
        return spec.annihilation_time(consts)
    return None


def check_events(config, frames, log, times) -> list[CheckResult]:
    spec, consts = config.spec, config.consts
    width_limit = (config.time_range[1] - config.time_range[0]) / config.n_frames
    results = []
    t_a = _expected_event_time(spec, consts)
    if t_a is not None:
        for kind, expected in (("creation", -t_a), ("annihilation", t_a)):
            hits = [
                e for e in log.of_kind(kind)
                if e.t_lo <= expected <= e.t_hi
                and (e.t_hi - e.t_lo) <= width_limit * (1 + 1e-9)
            ]
            measured = min(
                (abs(0.5 * (e.t_lo + e.t_hi) - expected) for e in log.of_kind(kind)),
                default=math.nan,
            )
            results.append(CheckResult(
                "events", len(hits) == 1, measured, 0.5 * width_limit,
                f"exactly one {kind} bracket contains t={expected:+.6g}"))
    elif isinstance(spec, FreeTwoLinesSymmetric) and 0.0 < spec.varphi < 0.5 * math.pi:
        n_recon = len(log.of_kind("reconnection"))
        spurious = len(log.events) - n_recon
        results.append(CheckResult(
            "events", n_recon >= 1 and spurious == 0, float(n_recon), 1.0,
            "switchover window shows reconnection events and nothing else"))
    else:
        results.append(CheckResult(
            "events", len(log.events) == 0, float(len(log.events)), 0.0,
            "no topology events expected in this window"))
    return results


def check_oracle(config, frames, log, times) -> list[CheckResult]:
    spec, consts, grid = config.spec, config.consts, config.grid
    t0, t1 = config.time_range
    duration = t1 - t0
    if spec.equation == "trap":
        # The Strang error scales with (omega dt)^2: 1000 steps per trap
        # period, whatever the frame count.
        steps = math.ceil(1000.0 * duration * spec.omega / (2.0 * math.pi))
        prop_config = propagator.PropagatorConfig(
            grid=grid, dt=duration / steps, steps=steps,
            hamiltonian="harmonic", omega=spec.omega,
        )
    else:
        # With no potential the kinetic step is exact for any dt: one step.
        prop_config = propagator.PropagatorConfig(
            grid=grid, dt=duration, steps=1, hamiltonian="free"
        )
    initial = sample(spec, consts, grid, t0)
    evolved = propagator.evolve(initial, prop_config, consts)
    reference = sample(spec, consts, grid, t1)
    err = propagator.l2_relative_error(reference, evolved)
    results = [CheckResult(
        "oracle", err < ORACLE_L2_TOLERANCE, err, ORACLE_L2_TOLERANCE,
        f"phase-optimal L2 error of split-step evolution over t={t0:g}..{t1:g}")]

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
    worst = _max_distance_to_curve(num_pts[inside], ana_pts)
    results.append(CheckResult(
        "oracle", worst <= diag, worst, diag,
        "tracker output from the evolved field matches the analytic extraction"))
    return results


def _expected_node_speed(spec, consts):
    if isinstance(spec, FreeRingCylinder):
        return 2.0 * consts.hbar / (consts.mass * abs(spec.a)), None
    if isinstance(spec, GaussianLineVortex):
        return consts.hbar * abs(spec.x0) / (consts.mass * spec.l**2), None
    if isinstance(spec, RelRingCylinder):
        return None, (1.4, 1.6)
    return None, None


def check_node_speed(config, frames, log, times) -> list[CheckResult]:
    spec, consts = config.spec, config.consts
    expected, window = _expected_node_speed(spec, consts)
    speeds = tracker.node_speeds(frames)
    flat = np.concatenate([s for s in speeds if s.size]) if speeds else np.array([])
    if flat.size == 0:
        return [CheckResult("node_speed", False, math.nan, 0.0,
                            "no matched lines to measure")]
    if window is not None:
        lo, hi = window
        ok = bool(np.all((flat >= lo) & (flat <= hi)))
        return [CheckResult(
            "node_speed", ok, float(np.mean(flat)), hi,
            f"all node speeds within [{lo}, {hi}] (speed of light is "
            f"{consts.light_speed:g})")]
    if expected is None:
        return [CheckResult("node_speed", False, math.nan, 0.0,
                            f"no speed law registered for {type(spec).__name__}")]
    measured = float(np.max(np.abs(flat - expected))) / expected
    return [CheckResult(
        "node_speed", measured < 1e-4, measured, 1e-4,
        f"max relative deviation from the exact speed {expected:g}")]


def check_generation(config, frames, log, times) -> list[CheckResult]:
    consts = config.consts
    rng = np.random.default_rng(config.seed)
    pts = rng.uniform(-1.5, 1.5, size=(100, 3))
    ts = rng.uniform(-1.0, 1.0, size=100)
    k = getattr(config.spec, "k", FreePlaneWave().k)
    cases = [
        (FreePlaneWave(k=k), FreeLineVortex(chi=0.6, k=k), "line vortex"),
        (FreePlaneWave(k=k), FreeRingCylinder(R=1.3, a=0.8, k=k), "cylinder ring"),
    ]
    results = []
    for carrier, target, label in cases:
        poly = prefactor(target, consts, 0.0)
        worst = 0.0
        for p, t in zip(pts, ts):
            gen = complex(generate_from_polynomial(carrier, poly, consts, p, float(t)))
            ref = complex(amplitude(target, consts, p, float(t)))
            worst = max(worst, abs(gen - ref) / max(abs(ref), 1e-9))
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
