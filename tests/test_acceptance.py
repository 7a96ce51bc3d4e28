"""End-to-end acceptance suite.

Each test covers one end-to-end guarantee at its stated tolerance and prints
a single PASS/FAIL line (visible with `pytest -v -s` or in captured output on
failure).
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

import vortexlines as vl
from vortexlines.anatomy import Contour
from vortexlines.catalog import amplitude, gradient, pde_residual, prefactor
from vortexlines.generate import generate_from_polynomial
from vortexlines.grids import Grid3
from vortexlines.presets import preset
from vortexlines.scenario import run as run_scenario
from vortexlines.tracker import extract, node_speeds, symmetric_hausdorff, track

C = vl.NATURAL_UNITS
K = vl.WaveVector(0.3, -0.2, 0.4)
QUANTUM = 2.0 * math.pi * C.hbar / C.mass

OFF = (0.013, 0.011, 0.017)

ALL_SPECS = [
    vl.FreePlaneWave(k=K),
    vl.FreeLineVortex(chi=0.6, k=K),
    vl.FreeRingCylinder(R=2.0, a=0.7, k=K),
    vl.FreeRingSphere(R=3.0, a=1.0, k=K),
    vl.FreeTwoLines(
        w1=(1.0, 0.5j, 1j), r1=(0.3, 0.0, 0.0),
        w2=(0.2, 1.0, -1j), r2=(-0.3, 0.1, 0.0), k=K,
    ),
    vl.FreeTwoLinesSymmetric(a=1.0, varphi=0.7, k=K),
    vl.GaussianPacket(l=1.5, k=K),
    vl.GaussianLineVortex(l=1.5, x0=0.4, k=K),
    vl.MagneticGenerator(B=1.3),
    vl.MagneticLine(B=1.3, a=0.8, varphi=0.5),
    vl.TrapGenerator(omega=0.9),
    vl.TrapRing(omega=0.9, R=1.2),
    vl.RelPlaneWave(k=K),
    vl.RelLineVortex(chi=0.6, k=K),
    vl.RelRingCylinder(R=2.0, a=0.7, k=K),
    vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5, k=K),
    vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0, k=K),
]


def report(criterion: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _project_to_zero(spec, t, start, tangent, max_iter=50):
    """Newton-project a point onto the zero set, moving normal to the tangent."""
    tangent = np.asarray(tangent, dtype=float)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(tangent @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ tangent) * tangent
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(tangent, e1)
    p = np.array(start, dtype=float)
    scale = spec.length_scale(C)
    for _ in range(max_iter):
        psi = complex(amplitude(spec, C, p, t))
        g = np.asarray(gradient(spec, C, p, t))
        if abs(psi) <= 1e-13 * np.linalg.norm(g) * scale:
            return p
        jac = np.array(
            [
                [(g @ e1).real, (g @ e2).real],
                [(g @ e1).imag, (g @ e2).imag],
            ]
        )
        s = np.linalg.solve(jac, [-psi.real, -psi.imag])
        p = p + s[0] * e1 + s[1] * e2
    raise AssertionError("Newton projection onto the zero set did not converge")


def test_residual_suite():
    rng = np.random.default_rng(0)
    worst = 0.0
    for spec in ALL_SPECS:
        pts = rng.uniform(-1.5, 1.5, size=(1000, 3))
        for t in rng.uniform(-1.0, 1.0, size=3):
            worst = max(
                worst, float(np.max(pde_residual(spec, C, pts, float(t))))
            )
    report(
        "pde residual suite",
        worst < 1e-6,
        f"max normalized residual {worst:.3e} over all families (tol 1e-6)",
    )


def test_circulation_quantization():
    # First-order vortices, one of each sign, extracted from a sampled pair.
    spec = vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2)
    grid = Grid3.centered(OFF, 6.0, 48)
    lines = extract(spec, C, grid, 0.0)
    assert len(lines) == 2
    worst_first = 0.0
    for line in lines:
        point = line.points[len(line.points) // 2]
        data = vl.w_vector(spec, C, point, 0.0)
        ring = Contour(center=tuple(point), normal=data.tangent, radius=0.5)
        gamma = vl.circulation_from_velocity(spec, C, ring, t=0.0)
        worst_first = max(worst_first, abs(abs(gamma) - QUANTUM) / QUANTUM)

    # Constructed second-order zero: winding-2 phase carries two quanta.
    def second_order(pts):
        pts = np.asarray(pts)
        return (pts[..., 0] + 1j * pts[..., 1]) ** 2

    ring = Contour(center=(0, 0, 0), normal=(0, 0, 1), radius=0.5)
    gamma2 = vl.circulation(second_order, C, ring)
    err2 = abs(gamma2 - 2 * QUANTUM) / (2 * QUANTUM)
    ok = worst_first < 1e-4 and err2 < 1e-4
    report(
        "circulation quantization",
        ok,
        f"first-order rel err {worst_first:.3e}, second-order rel err {err2:.3e} "
        "(tol 1e-4)",
    )


def test_sphere_ring_lifecycle():
    spec = vl.FreeRingSphere(R=3.0, a=1.0)
    grid = Grid3.centered(OFF, 8.0, 48)
    t0, t1, n_frames = -2.03125, 1.96875, 64
    frames, log = track(spec, C, grid, t0, t1, n_frames)
    times = np.linspace(t0, t1, n_frames + 1)
    width_limit = (t1 - t0) / n_frames
    creations = log.of_kind("creation")
    annihilations = log.of_kind("annihilation")
    brackets_ok = (
        len(creations) == 1
        and len(annihilations) == 1
        and creations[0].t_lo < -1.0 < creations[0].t_hi
        and annihilations[0].t_lo < 1.0 < annihilations[0].t_hi
        and creations[0].t_hi - creations[0].t_lo <= width_limit + 1e-12
        and annihilations[0].t_hi - annihilations[0].t_lo <= width_limit + 1e-12
    )
    worst_radius = 0.0
    checked = 0
    for t, lines in zip(times, frames):
        arg = 9.0 - (3.0 * t) ** 2
        if arg <= (0.5 * grid.cell_diagonal) ** 2 or not lines:
            continue
        expected = math.sqrt(arg)
        for line in lines:
            radii = np.hypot(line.points[:, 0], line.points[:, 1])
            worst_radius = max(worst_radius, float(np.max(np.abs(radii - expected))))
        checked += 1
    radius_ok = checked > 0 and worst_radius <= 0.5 * grid.cell_diagonal
    report(
        "sphere ring lifecycle",
        brackets_ok and radius_ok,
        f"brackets contain -1/+1 with width <= {width_limit:g}: {brackets_ok}; "
        f"radius-law deviation {worst_radius:.3e} over {checked} frames "
        f"(tol {0.5 * grid.cell_diagonal:.3e})",
    )


def test_antiparallel_pair_lifecycle():
    spec = vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2)
    grid = Grid3.centered(OFF, 8.0, 48)
    t0, t1, n_frames = -2.03125, 1.96875, 64
    _, log = track(spec, C, grid, t0, t1, n_frames)
    creations = log.of_kind("creation")
    annihilations = log.of_kind("annihilation")
    brackets_ok = (
        len(creations) == 1
        and len(annihilations) == 1
        and creations[0].t_lo < -1.0 < creations[0].t_hi
        and annihilations[0].t_lo < 1.0 < annihilations[0].t_hi
    )
    lines = extract(spec, C, grid, 0.0)
    if len(lines) == 2:
        tree = cKDTree(lines[1].points)
        separation = float(np.min(tree.query(lines[0].points)[0]))
    else:
        separation = math.nan
    sep_ok = abs(separation - 2.0) <= grid.cell_diagonal
    report(
        "antiparallel pair lifecycle",
        brackets_ok and sep_ok,
        f"brackets contain -+1: {brackets_ok}; inter-line distance at t=0 is "
        f"{separation:.4f} vs 2a = 2 (tol {grid.cell_diagonal:.3e})",
    )


def test_switchover_topology():
    grid = Grid3.centered(OFF, 3.0, 48)
    _, log_crossed = track(
        vl.FreeTwoLinesSymmetric(a=0.4, varphi=math.pi / 4),
        C, grid, -0.53125, 0.46875, 16,
    )
    _, log_parallel = track(
        vl.FreeTwoLinesSymmetric(a=0.4, varphi=0.0),
        C, grid, -0.53125, 0.46875, 16,
    )
    crossed_ok = len(log_crossed.of_kind("reconnection")) >= 1
    parallel_ok = not log_parallel.events
    report(
        "switchover topology",
        crossed_ok and parallel_ok,
        f"reconnections at varphi=pi/4: {len(log_crossed.of_kind('reconnection'))}; "
        f"events at varphi=0: {len(log_parallel.events)}",
    )


def test_magnetic_precession():
    spec = vl.MagneticLine(B=1.0, a=0.8, varphi=0.5)
    grid = Grid3.centered(OFF, 6.0, 48)
    period = 2.0 * math.pi / C.cyclotron_frequency(1.0)
    diag = grid.cell_diagonal
    span = 3.0 * max(grid.lengths)
    xs = np.linspace(-span, span, 1600)
    worst = 0.0
    for phase in np.linspace(0.0, period, 8, endpoint=False):
        lines = extract(spec, C, grid, float(phase))
        assert lines, f"no line extracted at phase {phase}"
        curve = spec.parametric_locus(C, float(phase), xs)
        tree = cKDTree(curve)
        for line in lines:
            worst = max(worst, float(np.max(tree.query(line.points)[0])))
    base = extract(spec, C, grid, 0.4)
    shifted = extract(spec, C, grid, 0.4 + period)
    period_dev = symmetric_hausdorff(
        np.concatenate([b.points for b in base]),
        np.concatenate([s.points for s in shifted]),
    )
    ok = worst <= diag and period_dev <= diag
    report(
        "magnetic precession",
        ok,
        f"max deviation from parametric curve {worst:.3e} at 8 phases; "
        f"periodicity deviation {period_dev:.3e} (tol {diag:.3e})",
    )


def test_trap_ring_locus_and_period():
    spec = vl.TrapRing(omega=1.0, R=1.0)
    grid = Grid3.centered(OFF, 8.0, 48)
    tol = 0.5 * grid.cell_diagonal
    lines = extract(spec, C, grid, 0.0)
    assert lines
    pts = np.concatenate([line.points for line in lines])
    # Circle of radius R in the z = 0 plane centered at (R, 0, 0).
    circle_dev = float(
        np.max(np.hypot(np.hypot(pts[:, 0] - 1.0, pts[:, 1]) - 1.0, pts[:, 2]))
    )
    base = extract(spec, C, grid, 0.3)
    shifted = extract(spec, C, grid, 0.3 + 2.0 * math.pi)
    period_dev = symmetric_hausdorff(
        np.concatenate([b.points for b in base]),
        np.concatenate([s.points for s in shifted]),
    )
    ok = circle_dev <= tol and period_dev <= tol
    report(
        "trap ring locus and period",
        ok,
        f"t=0 circle deviation {circle_dev:.3e}, periodicity deviation "
        f"{period_dev:.3e} (tol {tol:.3e})",
    )


def test_generating_function_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for target, carrier in [
        (vl.FreeLineVortex(chi=0.6, k=K), vl.FreePlaneWave(k=K)),
        (vl.FreeRingCylinder(R=1.3, a=0.8, k=K), vl.FreePlaneWave(k=K)),
    ]:
        poly = prefactor(target, C, 0.0)
        pts = rng.uniform(-1.5, 1.5, size=(100, 3))
        ts = rng.uniform(-1.0, 1.0, size=100)
        for p, t in zip(pts, ts):
            ref = complex(amplitude(target, C, p, float(t)))
            gen = complex(generate_from_polynomial(carrier, poly, C, p, float(t)))
            worst = max(worst, abs(gen - ref) / max(abs(ref), 1e-9))
    report(
        "generating function equivalence",
        worst < 1e-5,
        f"max relative deviation {worst:.3e} at 100 random spacetime points "
        "per family (tol 1e-5)",
    )


def test_propagator_oracle_equivalence(tmp_path):
    config = preset("oracle_ring")
    assert config.grid.dims == (96, 96, 96)
    start = time.monotonic()
    result = run_scenario(config, tmp_path / "oracle")
    elapsed = time.monotonic() - start
    oracle_checks = [c for c in result.checks if c.name.startswith("oracle")]
    assert oracle_checks
    ok = all(c.passed for c in oracle_checks) and elapsed <= 120.0
    detail = "; ".join(
        f"{c.name} measured {c.measured:.3e} (tol {c.tolerance:.3e})"
        for c in oracle_checks
    )
    report(
        "propagator oracle equivalence",
        ok,
        f"{detail}; runtime {elapsed:.1f}s (limit 120s)",
    )


def test_line_velocity_law():
    dt = 1e-4
    cases = []

    cyl = vl.FreeRingCylinder(R=2.0, a=0.5)
    cases.append(("cylinder ring", cyl, np.array([2.0, 0.0, -2.0 * 0.3 / 0.5]), 0.3))

    gauss = vl.GaussianLineVortex(l=1.5, x0=0.4)
    drift = 0.4 / 1.5**2
    cases.append(
        ("gaussian line vortex", gauss, np.array([0.4, drift * 0.2, 0.7]), 0.2)
    )

    trap = vl.TrapRing(omega=1.0, R=1.0)
    trap_lines = extract(trap, C, Grid3.centered(OFF, 8.0, 48), 0.3)
    longest = max(trap_lines, key=lambda line: line.length)
    cases.append(("trap ring", trap, longest.points[len(longest.points) // 2], 0.3))

    worst = 0.0
    details = []
    for label, spec, point, t in cases:
        data = vl.w_vector(spec, C, point, t)
        u = vl.line_velocity(spec, C, point, t)
        forward = _project_to_zero(spec, t + dt, point, data.tangent)
        backward = _project_to_zero(spec, t - dt, point, data.tangent)
        u_fd = (forward - backward) / (2.0 * dt)
        rel = float(np.linalg.norm(u_fd - u) / np.linalg.norm(u))
        worst = max(worst, rel)
        details.append(f"{label} {rel:.3e}")
    speed = float(np.linalg.norm(vl.line_velocity(cyl, C, (2.0, 0.0, 0.0), 0.0)))
    speed_err = abs(speed - 2.0 / 0.5) / (2.0 / 0.5)
    ok = worst < 1e-4 and speed_err < 1e-4
    report(
        "line velocity law",
        ok,
        f"formula vs displacement rel err: {', '.join(details)}; cylinder speed "
        f"{speed:.6f} vs 2*hbar/(m*a) = 4 (rel err {speed_err:.3e}, tol 1e-4)",
    )


def test_superluminal_node_speed():
    k = vl.WaveVector(0.2, 0.0, 0.0)
    # The axial drift speed is proportional to 1 / |a|: solve it for 1.5.
    a = vl.RelRingCylinder(R=2.0, a=1.0, k=k).axial_drift_speed(C) / 1.5
    spec = vl.RelRingCylinder(R=2.0, a=a, k=k)
    grid = Grid3.centered(OFF, 6.0, 48)
    times = np.linspace(0.011, 0.211, 5)
    frames, _ = track(spec, C, grid, float(times[0]), float(times[-1]), 4)
    speeds = np.concatenate(
        [np.ravel(s) for s in node_speeds(frames)]
    )
    lo, hi = float(np.min(speeds)), float(np.max(speeds))
    ok = len(speeds) > 0 and 1.4 <= lo and hi <= 1.6
    report(
        "superluminal node speed",
        ok,
        f"measured node speeds in [{lo:.4f}, {hi:.4f}], window [1.4, 1.6] "
        "(light speed 1)",
    )
