import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import on_grid

import vortexlines as vl
from vortexlines.catalog import (_G, _P, _PAIR_OF, _SPATIAL, FieldValues, Snapshot,
                                 _amplitude_bounds, block_edges)
from vortexlines.errors import NoPrefactorError, SpecValidationError
from vortexlines.grids import Grid3, sample
from vortexlines.polynomials import Poly3

C = vl.NATURAL_UNITS
#: Constants away from natural units, so that a misplaced hbar, m or e shows.
C2 = vl.PhysicalConstants(hbar=2.0, mass=3.0, charge=0.5, light_speed=5.0)
K = vl.WaveVector(0.3, -0.2, 0.4)

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


def random_points(n, seed=3, scale=1.5):
    return np.random.default_rng(seed).uniform(-scale, scale, size=(n, 3))


def at_clock(poly, s):
    """A polynomial in (x, y, z, s) at the clock value s, in (x, y, z)."""
    out = Poly3()
    for exps, c in poly.coeffs.items():
        out = out + Poly3({exps[:3]: c * s ** (exps[3] if len(exps) > 3 else 0)})
    return out


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_residual_vanishes(spec):
    pts = random_points(200)
    for t in (-0.8, 0.0, 0.6):
        res = vl.pde_residual(spec, C, pts, t)
        assert float(np.max(res)) < 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_gradient_matches_finite_differences(spec):
    pts = random_points(20, seed=5)
    t = 0.37
    grad = vl.gradient(spec, C, pts, t)
    h = 1e-6
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd = (
            vl.amplitude(spec, C, pts + shift, t)
            - vl.amplitude(spec, C, pts - shift, t)
        ) / (2 * h)
        scale = np.maximum(np.abs(grad[:, axis]), np.abs(fd)) + 1e-12
        assert float(np.max(np.abs(grad[:, axis] - fd) / scale)) < 1e-7
    # The Hessian against differences of the exact gradient, relative to
    # each point's largest entry (off-diagonal entries can vanish).
    hess = spec.at(C, t).on(pts).hess
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
    peak = np.max(np.abs(hess), axis=(1, 2)) + 1e-12
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd = (vl.gradient(spec, C, pts + shift, t) - vl.gradient(spec, C, pts - shift, t)) / (2 * h)
        assert float(np.max(np.abs(hess[:, :, axis] - fd) / peak[:, None])) < 1e-7


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_laplacian_and_time_derivatives_match_finite_differences(spec):
    pts = random_points(10, seed=7)
    t = 0.21
    h = 1e-4
    lap = spec.at(C, t).on(pts).lap
    fd_lap = -6.0 * vl.amplitude(spec, C, pts, t)
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd_lap = fd_lap + vl.amplitude(spec, C, pts + shift, t)
        fd_lap = fd_lap + vl.amplitude(spec, C, pts - shift, t)
    fd_lap /= h**2
    scale = np.maximum(np.abs(lap), np.abs(fd_lap)) + 1e-9
    assert float(np.max(np.abs(lap - fd_lap) / scale)) < 1e-5
    hess = spec.at(C, t).on(pts).hess
    trace = np.trace(hess, axis1=-2, axis2=-1)
    peak = np.max(np.abs(hess), axis=(1, 2)) + 1e-300
    assert float(np.max(np.abs(trace - lap) / peak)) < 1e-12

    dt = spec.at(C, t).on(pts).dt
    fd_dt = (vl.amplitude(spec, C, pts, t + h) - vl.amplitude(spec, C, pts, t - h)) / (
        2 * h
    )
    scale = np.maximum(np.abs(dt), np.abs(fd_dt)) + 1e-9
    assert float(np.max(np.abs(dt - fd_dt) / scale)) < 1e-6

    dt_grad = spec.at(C, t).on(pts).dt_grad
    fd_dt_grad = (vl.gradient(spec, C, pts, t + h) - vl.gradient(spec, C, pts, t - h)) / (2 * h)
    peak = np.max(np.maximum(np.abs(dt_grad), np.abs(fd_dt_grad)), axis=1) + 1e-9
    assert float(np.max(np.abs(dt_grad - fd_dt_grad) / peak[:, None])) < 1e-6

    d2t = spec.at(C, t).on(pts).d2t
    fd_d2t = (
        vl.amplitude(spec, C, pts, t + h)
        - 2 * vl.amplitude(spec, C, pts, t)
        + vl.amplitude(spec, C, pts, t - h)
    ) / h**2
    scale = np.maximum(np.abs(d2t), np.abs(fd_d2t)) + 1e-9
    assert float(np.max(np.abs(d2t - fd_d2t) / scale)) < 1e-5


def test_prefactor_times_carrier_equals_amplitude():
    pts = random_points(50, seed=11)
    t = 0.43
    for spec in ALL_SPECS:
        if spec.is_bare:
            continue
        pre = vl.prefactor(spec, C, t).evaluate(pts)
        (s, _, _), (phase, _, _) = spec.clock(C, t)
        carrier = np.exp(at_clock(spec.carrier(C), s).evaluate(pts) + phase)
        full = vl.amplitude(spec, C, pts, t)
        assert np.allclose(pre * carrier, full, rtol=1e-12, atol=1e-12)


#: An offset, anisotropic grid, so that a swapped axis shows.
SMALL_GRID = Grid3((-2.1, -1.7, -2.6), (0.55, 0.49, 0.61), (5, 6, 7))


def grid_points(grid):
    """All positions of the grid, shape dims + (3,)."""
    return np.stack(np.meshgrid(*map(grid.axis_coords, range(3)), indexing="ij"), axis=-1)


def time_orders(poly, s_jet):
    """poly(x, y, z, s(t)) and its first two time derivatives, in (x, y, z),
    by the chain rule on Poly3.diff along s."""
    s, ds, d2s = s_jet
    d1, d2 = poly.diff(3), poly.diff(3).diff(3)
    return (
        at_clock(poly, s),
        at_clock(d1, s) * ds,
        at_clock(d2, s) * (ds * ds) + at_clock(d1, s) * d2s,
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_table_columns_match_the_differentiated_polynomials(spec):
    # Every column of the snapshot's table (P and G, time orders 0-2) along
    # every spatial index the product rules use, differentiated by exponent
    # shift in the table's two parts, against the compiled polynomials in
    # (x, y, z, s) differentiated with Poly3.diff along x, y, z and s (by the
    # chain rule at s(t)), plus G's phase, and summed term by term.
    points = grid_points(SMALL_GRID)
    prefactor, exponent = spec.polynomials(C)
    for t in (-0.7, 0.0, 0.45):
        field = spec.at(C, t).on(points)
        parts = np.concatenate([field._part(0), field._part(1)])  # along _SPATIAL
        s_jet, phase = spec.clock(C, t)
        for f, full in ((_P, prefactor), (_G, exponent)):
            for order, poly_t in enumerate(time_orders(full, s_jet)):
                if f == _G:
                    poly_t = poly_t + phase[order]
                for n, idx in enumerate(_SPATIAL):
                    poly = poly_t
                    for axis in idx:
                        poly = poly.diff(axis)
                    ref = poly.evaluate(points)
                    got = parts[n, :, f + order].reshape(field.shape)
                    assert got.shape == ref.shape
                    peak = float(np.max(np.abs(ref)))
                    assert float(np.max(np.abs(got - ref))) <= 1e-14 * peak, (t, f, order, idx)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_point_set_table_matches_the_separable_grid_path(spec):
    # Both read the snapshot's table: a point set as a (points x terms)
    # monomial matrix, a grid as per-axis monomial rows with one exp(G)
    # factor folded into each (`on_grid`).
    axes = [SMALL_GRID.axis_coords(a) for a in range(3)]
    for t in (-0.7, 0.0, 0.45):
        snapshot = spec.at(C, t)
        on_grid, on_points = snapshot.on_grid(*axes), snapshot.on(grid_points(SMALL_GRID)).psi
        assert on_grid.shape == SMALL_GRID.dims
        peak = float(np.max(np.abs(on_points)))
        assert float(np.max(np.abs(on_grid - on_points))) <= 1e-14 * peak, t


def test_on_grid_rejects_a_carrier_with_cross_terms():
    # exp(G) factors by axis only while G has no term in two coordinates.
    x = np.linspace(-1.0, 1.0, 4)
    columns = np.zeros((2, 6), dtype=complex)
    columns[0, _P] = columns[1, _G] = 1.0  # P = 1, G = x y
    with pytest.raises(ValueError):
        Snapshot(((0, 0, 0), (1, 1, 0)), columns).on_grid(x, x, x)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_prefactor_bounds_hold_on_every_block(spec):
    # Taylor's bound lead - rest never exceeds |P| on its closed block: at
    # its 8 corners and at 200 random points in it, on a 16^3 grid of 4^3
    # blocks, evaluated term by term (Poly3.evaluate).
    grid = Grid3.centered((0.013, 0.011, 0.017), 4.0 * spec.length_scale(C), 16)
    axes = [grid.axis_coords(a) for a in range(3)]
    ends = [
        np.stack(np.meshgrid(*(x[block_edges(len(x))[side:][:4]] for x in axes),
                             indexing="ij"), axis=-1)[..., None, :]
        for side in (0, 1)
    ]
    corners = [np.where(np.array(c, dtype=bool), ends[1], ends[0])
               for c in itertools.product((0, 1), repeat=3)]
    rng = np.random.default_rng(11)
    inside = ends[0] + rng.random((4, 4, 4, 200, 3)) * (ends[1] - ends[0])
    points = np.concatenate(corners + [inside], axis=-2)
    for t in (-0.4, 0.0, 0.5):
        lead, rest = spec.at(C, t).prefactor_bounds(*axes)
        assert lead.shape == rest.shape == (4, 4, 4)
        p = 1.0 if spec.is_bare else vl.prefactor(spec, C, t).evaluate(points)
        lowest = np.min(np.abs(p) * np.ones(points.shape[:-1]), axis=-1)
        assert np.all(lowest >= lead - rest - 1e-12 * (lead + rest)), t


def test_prefactor_bounds_need_a_complete_expansion():
    # The table's derivatives reach second order: they bound a quadratic P
    # exactly, and refuse a cubic one.
    x = np.linspace(-1.0, 1.0, 9)
    columns = np.zeros((2, 6), dtype=complex)
    columns[:, _P] = 1.0
    lead, rest = Snapshot(((0, 0, 0), (1, 1, 0)), columns).prefactor_bounds(x, x, x)
    # P = 1 + x y on blocks [-1, 0] and [0, 1] per axis: centres (+-1/2,
    # +-1/2), h = 1/2, so |P(c)| = 1 + c_x c_y and rest = 1/4 + 1/4 + 1/4.
    assert np.allclose(lead[:, :, 0], [[1.25, 0.75], [0.75, 1.25]], rtol=0, atol=1e-15)
    assert np.allclose(rest, 0.75, rtol=0, atol=1e-15)
    with pytest.raises(SpecValidationError, match="degree 3"):
        Snapshot(((0, 0, 0), (2, 1, 0)), columns).prefactor_bounds(x, x, x)


def _offset_grids(spec):
    """Grids of 4 length scales a side at random offsets: 16^3, with every
    block whole, and 19 x 13 x 11, whose last blocks are short."""
    rng = np.random.default_rng(5)
    side = 4.0 * spec.length_scale(C)
    for dims in ((16, 16, 16), (19, 13, 11)):
        offset = rng.uniform(-0.5, 0.5, 3) * side / (np.array(dims) - 1)
        yield Grid3.centered(offset, side, dims)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_zero_box_sample_has_the_grid_peak(spec):
    # The search from the box's max finds the grid's max |psi| itself, not
    # a bound: within 4 ulps of the whole grid's, whose gemm has another
    # shape.  The box values are the whole-grid values there, up to the same
    # rounding.
    for grid in _offset_grids(spec):
        for t in (-0.4, 0.0, 0.5):
            whole = on_grid(spec, C, grid, t)
            field = sample(spec, C, grid, t)
            peak = np.abs(whole).max()
            found = field.search(np.abs(field.values).max(initial=0.0))
            assert abs(found - peak) <= 4 * np.spacing(peak), (grid.dims, t)
            assert np.all(np.abs(field.values - whole[field.box]) <= 1e-15 * peak)


@pytest.mark.parametrize("spec", [
    vl.FreeRingCylinder(R=2.0, a=0.7, k=K),
    vl.MagneticLine(B=1.3, a=0.8, varphi=0.5),
    vl.TrapRing(omega=0.9, R=1.2),
    vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0, k=K),
], ids=lambda s: type(s).__name__)
def test_block_peak_is_the_max_over_the_blocks_nodes(spec):
    # `_block_peak` reads |psi| on random sets of blocks through `_psi_on`'s
    # batched product: within 4 ulps of the whole-grid sample's max there,
    # whose gemm has another shape.  At 48^3 the last block of each axis is
    # short (3 cells); the sets always hold the block in the far corner.
    rng = np.random.default_rng(13)
    side = 4.0 * spec.length_scale(C)
    for n in (48, 13):
        grid = Grid3.centered(rng.uniform(-0.5, 0.5, 3) * side / (n - 1), side, n)
        axes = [grid.axis_coords(a) for a in range(3)]
        edges = [block_edges(n)] * 3
        count = (len(edges[0]) - 1) ** 3
        for t in (-0.4, 0.5):
            snapshot = spec.at(C, t)
            amps, rows = np.abs(snapshot.on_grid(*axes)), snapshot._axis_rows(axes)
            for size in (1, 7, count):
                blocks = np.append(rng.choice(count - 1, size - 1, replace=False), count - 1)
                expected = max(
                    amps[tuple(slice(e[b], e[b + 1] + 1) for e, b in zip(edges, block))].max()
                    for block in zip(*np.unravel_index(blocks, [len(e) - 1 for e in edges]))
                )
                got = snapshot._block_peak(rows, edges, blocks, 0.0)
                assert abs(got - expected) <= 4 * np.spacing(expected), (n, t, size)
                assert snapshot._block_peak(rows, edges, blocks, 2.0 * expected) == 2.0 * expected
            assert snapshot._block_peak(rows, edges, np.array([], dtype=int), 0.25) == 0.25


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_psi_in_a_searched_block_is_refused(bad):
    # Python's max keeps its first argument over a NaN: a block whose rows
    # hold one is refused, as a SampledField refuses its values, not passed
    # over.  A bound outside the zero box that is not finite is refused too.
    spec = vl.FreeLineVortex(chi=0.6, k=K)
    n = 17
    axes = [np.linspace(-8.0, 8.0, n) + 0.01 * a for a in range(3)]
    edges = [block_edges(n)] * 3
    snapshot = spec.at(C, 0.3)
    rows = snapshot._axis_rows(axes)
    rows[0][0, 6] = bad
    # The blocks of x nodes 4-8 hold the planted node; the first block does not.
    assert snapshot._block_peak(rows, edges, np.array([0]), 0.0) > 0.0
    for blocks in (np.array([16]), np.arange(64)):
        with pytest.raises(SpecValidationError, match="non-finite"), np.errstate(invalid="ignore"):
            snapshot._block_peak(rows, edges, blocks, 0.0)
    # Planted at the last x node, outside the zero box of the line.
    box = snapshot.on_zero_box(*axes)[0]
    assert box[0].stop < n

    def planted(self, coords, _rows=Snapshot._axis_rows):
        found = _rows(self, coords)
        found[0][:, -1] = bad
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Snapshot, "_axis_rows", planted)
        with pytest.raises(SpecValidationError, match="non-finite"), np.errstate(invalid="ignore"):
            snapshot.on_zero_box(*axes)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_amplitude_bounds_hold_on_every_node(spec):
    # |psi| at every node of a block is at most the block's bound: the
    # bound on |P| times the max of |exp(G)| over the block's nodes.
    for grid in _offset_grids(spec):
        axes = [grid.axis_coords(a) for a in range(3)]
        edges = [block_edges(len(x)) for x in axes]
        for t in (-0.4, 0.0, 0.5):
            snapshot = spec.at(C, t)
            bounds = _amplitude_bounds(
                snapshot._axis_rows(axes), edges, *snapshot.prefactor_bounds(*axes))
            amps = np.abs(snapshot.on_grid(*axes))
            for block in itertools.product(*(range(len(e) - 1) for e in edges)):
                nodes = tuple(slice(e[b], e[b + 1] + 1) for e, b in zip(edges, block))
                assert amps[nodes].max() <= bounds[block], (grid.dims, t, block)


def test_grid_sample_equals_pointwise_amplitude():
    # on_grid evaluates on the three axis vectors; amplitude() on the array
    # of all grid points.  An offset, anisotropic grid catches a swapped axis.
    grid = Grid3((-2.1, -1.7, -2.6), (0.55, 0.49, 0.61), (6, 7, 9))
    for spec in ALL_SPECS:
        for t in (-0.7, 0.0, 0.45):
            sampled = on_grid(spec, C, grid, t)
            pointwise = vl.amplitude(spec, C, grid_points(grid), t)
            peak = float(np.max(np.abs(pointwise)))
            assert float(np.max(np.abs(sampled - pointwise))) <= 1e-13 * peak, (spec, t)


def test_no_carrier_exponent_has_cross_terms():
    # exp(G) is evaluated as a product of one factor per axis, which holds
    # only while G has no terms in two or more coordinates.
    # G is a polynomial in (x, y, z) and the clock s, the fourth exponent.
    for spec in ALL_SPECS:
        for exps in spec.carrier(C).coeffs:
            assert sum(1 for p in exps[:3] if p) <= 1, (spec, exps)


@pytest.mark.parametrize(
    "windowed,plane_wave",
    [
        (
            vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5, k=K),
            vl.FreeRingCylinder(R=1.0, a=0.5, k=K),
        ),
        (
            vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0, k=K),
            vl.FreeTwoLinesSymmetric(a=1.0, varphi=0.7, k=K),
        ),
    ],
    ids=lambda s: type(s).__name__,
)
def test_windowed_family_is_plane_wave_times_window_at_t0(windowed, plane_wave):
    pts = random_points(50, seed=13)
    window = np.exp(-np.sum(pts * pts, axis=-1) / (2.0 * windowed.l**2))
    expected = vl.amplitude(plane_wave, C, pts, 0.0) * window
    got = vl.amplitude(windowed, C, pts, 0.0)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


#: hbar, m and e away from 1, so that a misplaced constant in a scale shows.
C3 = vl.PhysicalConstants(hbar=1.3, mass=0.7, charge=1.9)


@pytest.mark.parametrize("spec, scale", [
    (vl.FreePlaneWave(k=K), 1.0 / K.norm),
    (vl.FreePlaneWave(), 1.0),
    (vl.FreeLineVortex(chi=0.6, k=K), 1.0 / K.norm),
    (vl.FreeRingCylinder(R=2.0, a=-0.7, k=K), 2.0),
    (vl.FreeRingSphere(R=3.0, a=1.0), 3.0),
    (vl.FreeTwoLines(w1=(1.0, 0.5j, 1j), r1=(0.3, 0.0, 0.0), w2=(0.2, 1.0, -1j),
                     r2=(-0.3, 0.1, 0.0)), math.hypot(0.6, 0.1)),
    (vl.FreeTwoLinesSymmetric(a=-0.4, varphi=0.7, k=K), 0.4),
    (vl.GaussianPacket(l=1.5, k=K), 1.5),
    (vl.GaussianLineVortex(l=1.5, x0=0.4), 1.5),
    (vl.MagneticGenerator(B=-1.3), math.sqrt(2.0 * 1.3 / (1.9 * 1.3))),
    (vl.MagneticLine(B=1.3, a=-0.8, varphi=0.5), 0.8),
    (vl.TrapGenerator(omega=0.9), math.sqrt(1.3 / (0.7 * 0.9))),
    (vl.TrapRing(omega=0.9, R=1.2), 1.2),
    (vl.RelPlaneWave(k=K), 1.0 / K.norm),
    (vl.RelLineVortex(chi=0.6), 1.0),
    (vl.RelRingCylinder(R=2.0, a=0.7, k=K), 2.0),
    (vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5), 1.0),
    (vl.WindowedTwoLinesSymmetric(a=-1.0, varphi=0.7, l=3.0), 1.0),
], ids=lambda v: type(v).__name__ if isinstance(v, vl.SolutionSpec) else None)
def test_length_scale_is_the_ring_radius_else_the_offset_else_the_carriers(spec, scale):
    assert spec.length_scale(C3) == pytest.approx(scale, rel=1e-15)


def test_the_bare_carriers_are_the_families_without_an_image():
    bare = {type(spec).__name__ for spec in ALL_SPECS if spec.is_bare}
    assert bare == {"FreePlaneWave", "GaussianPacket", "MagneticGenerator", "TrapGenerator",
                    "RelPlaneWave"}
    assert len(ALL_SPECS) == len(vl.catalog.FAMILIES)


def test_prefactor_of_bare_carrier_raises():
    with pytest.raises(NoPrefactorError):
        vl.prefactor(vl.FreePlaneWave(k=K), C, 0.0)


def test_amplitude_scalar_point_and_grid_shapes():
    spec = vl.FreeRingCylinder(R=2.0, a=0.7)
    scalar = vl.amplitude(spec, C, (2.0, 0.0, 0.1), 0.0)
    assert np.shape(scalar) == ()
    block = vl.amplitude(spec, C, np.zeros((4, 5, 3)) + 0.3, 0.2)
    assert block.shape == (4, 5)
    # Every derivative at a scalar point and on a (4, 5) block has the point
    # set's shape and equals the matching rows of the flat batch; a scalar
    # point's arithmetic may round differently, by an ulp or so.
    tail = {"grad": (3,), "dt": (), "hess": (3, 3), "lap": (), "dt_grad": (3,), "d2t": (),
            "grad4": (4,), "hess4": (4, 4)}
    points = random_points(20, seed=17)
    snapshot = vl.TrapRing(omega=0.9, R=1.2).at(C, 0.3)
    flat = snapshot.on(points)
    for shape, at in (((), points[7]), ((4, 5), points.reshape(4, 5, 3))):
        field = snapshot.on(at)
        for name, rows in tail.items():
            got, want = getattr(field, name), getattr(flat, name).reshape((-1,) + rows)
            want = want[7] if shape == () else want.reshape(shape + rows)
            assert got.shape == shape + rows, name
            peak = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 4e-16 * peak, (name, shape)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_space_time_hessian_is_symmetric_and_holds_the_blocks(spec):
    # hess4 is formed on the ten pairs u <= v and mirrored; its blocks, and
    # grad4's, are the spatial and time derivatives, bit for bit.
    for t in (-0.7, 0.0, 0.45):
        field = spec.at(C, t).on(random_points(50))
        hess4, grad4 = field.hess4, field.grad4
        assert hess4.shape == (50, 4, 4) and grad4.shape == (50, 4)
        assert np.array_equal(hess4, np.swapaxes(hess4, -1, -2))
        assert np.array_equal(hess4[:, :3, :3], field.hess)
        assert np.array_equal(hess4[:, :3, 3], field.dt_grad)
        assert np.array_equal(hess4[:, 3, 3], field.d2t)
        assert np.array_equal(grad4, np.concatenate([field.grad, field.dt[:, None]], axis=1))


def _full_dt(field):
    """dt as grad4's t entry, the space-time gradient formed whole."""
    return field.grad4[..., 3]


def _full_lap(field):
    """lap from `_second`'s rows, with (x, t) ... (t, t) appended to the
    second part of the table."""
    return field._field(sum(field._second(_PAIR_OF.diagonal()[:3])))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_residual_forms_only_what_it_reads_bit_for_bit(spec, monkeypatch):
    # pde_residual reads dt without grad4's spatial entries and lap from
    # the table's three spatial diagonal rows alone: both, and so every
    # residual, are bit for bit the ones read off the full space-time forms.
    # Only the magnetic equation reads grad, and so grad4, and only the
    # Klein-Gordon one d2t, and so hess4.
    pts = random_points(200, seed=5)
    residuals = []
    for t in (-0.7, 0.0, 0.45):
        field = spec.at(C, t).on(pts)
        assert np.array_equal(field.dt, _full_dt(spec.at(C, t).on(pts)))
        assert np.array_equal(field.lap, _full_lap(spec.at(C, t).on(pts)))
        with monkeypatch.context() as patch:
            if spec.equation != "relativistic":
                patch.setattr(FieldValues, "hess4", property(lambda v: pytest.fail("formed hess4")))
            if spec.equation != "magnetic":
                patch.setattr(FieldValues, "grad4", property(lambda v: pytest.fail("formed grad4")))
            residuals.append(vl.catalog.pde_residual(spec, C, pts, t))
    monkeypatch.setattr(FieldValues, "dt", property(_full_dt))
    monkeypatch.setattr(FieldValues, "lap", property(_full_lap))
    for t, residual in zip((-0.7, 0.0, 0.45), residuals):
        assert np.array_equal(vl.catalog.pde_residual(spec, C, pts, t), residual)


@pytest.mark.parametrize("spec", [
    vl.FreeRingCylinder(R=2.0, a=0.7), vl.FreeRingCylinder(R=2.0, a=-0.7, k=(0.3, -0.2, 0.4)),
    vl.FreeRingSphere(R=3.0, a=1.0), vl.FreeRingSphere(R=3.0, a=-1.3, k=(0.2, 0.0, -0.5)),
], ids=["cylinder", "cylinder-k", "sphere", "sphere-k"])
def test_ring_law_is_the_zero_set(spec):
    # Every point of the law's circle is a zero of psi, at any time and k.
    angles = np.linspace(0.0, 2.0 * math.pi, 7)
    for t in (-0.4, 0.0, 0.31):
        center, radius = spec.ring(C, t)
        circle = np.stack([np.cos(angles), np.sin(angles), np.zeros(7)], axis=1)
        psi = vl.amplitude(spec, C, center + radius * circle, t)
        assert np.max(np.abs(psi)) < 1e-12 * radius**2


def test_laws_hold_only_where_the_family_has_one():
    sphere = vl.FreeRingSphere(R=3.0, a=1.0)
    t_a = sphere.annihilation_time(C)
    assert math.isnan(sphere.ring(C, 1.01 * t_a)[1])
    assert sphere.ring(C, t_a)[1] == 0.0
    # Only the antiparallel pair annihilates; a crossing pair reconnects.
    assert vl.FreeTwoLinesSymmetric(a=1.0, varphi=-math.pi / 2).annihilation_time(C) == 1.0
    assert vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 4).annihilation_time(C) is None
    assert vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 4).reconnection_time(C) == (
        pytest.approx(2.0))
    assert vl.FreeTwoLinesSymmetric(a=1.0, varphi=-math.pi / 2).reconnection_time(C) is None
    # Closed-form node speeds hold at k = 0 only.
    assert vl.FreeRingCylinder(R=2.0, a=-0.5).node_speed(C) == 4.0
    assert vl.GaussianLineVortex(l=2.0, x0=-0.4).node_speed(C) == pytest.approx(0.1)
    assert vl.GaussianLineVortex(l=2.0, x0=0.4, k=(0.1, 0.0, 0.0)).node_speed(C) is None
    assert vl.TrapRing(omega=2.0, R=1.0).period(C) == math.pi
    assert vl.MagneticLine(B=4.0, a=0.8, varphi=0.5).period(C) == pytest.approx(
        2.0 * math.pi / C.cyclotron_frequency(4.0))
    for spec in (vl.FreeLineVortex(), vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5)):
        laws = (spec.ring(C, 0.0), spec.node_speed(C), spec.annihilation_time(C),
                spec.reconnection_time(C), spec.period(C))
        assert laws == (None,) * 5


def test_zero_set_special_values():
    # Cylinder ring: radius R at height z = -2 hbar t / (m a).
    ring = vl.FreeRingCylinder(R=2.0, a=0.7)
    t = 0.31
    z = -2.0 * t / 0.7
    assert abs(vl.amplitude(ring, C, (2.0, 0.0, z), t)) < 1e-12
    # Sphere ring: annihilation instant has its only zero at the origin area.
    sphere = vl.FreeRingSphere(R=3.0, a=1.0)
    assert sphere.annihilation_time(C) == pytest.approx(1.0)
    t_a = sphere.annihilation_time(C)
    r_sq = 3.0**2 - (3.0 * (t_a / 2) / 1.0) ** 2
    assert abs(
        vl.amplitude(sphere, C, (math.sqrt(r_sq), 0.0, -3.0 * (t_a / 2)), t_a / 2)
    ) < 1e-12
    # Antiparallel pair: lines at y = -t, z = +-sqrt(1 - t^2) for a = 1.
    pair = vl.FreeTwoLinesSymmetric(a=1.0, varphi=math.pi / 2)
    assert pair.annihilation_time(C) == pytest.approx(1.0)
    t = 0.6
    assert abs(
        vl.amplitude(pair, C, (1.7, -t, math.sqrt(1 - t * t)), t)
    ) < 1e-12


@pytest.mark.parametrize("t", [-0.7, 0.0, 0.45])
def test_trap_ring_and_magnetic_line_prefactors_match_the_hand_derived_formulas(t):
    # The two families that were once written out by hand, against their
    # images under the trap and cyclotron maps.
    pts = random_points(50, seed=19)
    x, y, z = pts.T
    ring = vl.TrapRing(omega=0.9, R=1.2)
    E = np.exp(-1j * ring.omega * t)
    l2 = C2.hbar / (C2.mass * ring.omega)
    R = ring.R
    expected = E * E * (x * x + y * y - l2) + l2 - 2.0 * R * E * x + 1j * R * E * z
    line = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    E = np.exp(-1j * C2.cyclotron_frequency(line.B) * t)
    x_img = 0.5 * (E + 1.0) * x + 0.5j * (E - 1.0) * y
    y_img = -0.5j * (E - 1.0) * x + 0.5 * (E + 1.0) * y
    phi = line.varphi
    expected_line = y_img - line.a + 1j * (-math.sin(phi) * x_img + math.cos(phi) * z)
    for spec, ref in ((ring, expected), (line, expected_line)):
        got = vl.prefactor(spec, C2, t).evaluate(pts)
        peak = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(got - ref))) <= 1e-14 * peak, spec


def test_magnetic_parametric_locus_lies_on_zero_set():
    spec = vl.MagneticLine(B=1.3, a=0.8, varphi=0.5)
    xs = np.linspace(-2.0, 2.0, 9)
    for t in (0.0, 0.4, 1.9):
        pts = spec.parametric_locus(C, t, xs)
        vals = vl.amplitude(spec, C, pts, t)
        grads = vl.gradient(spec, C, pts, t)
        assert float(np.max(np.abs(vals) / np.linalg.norm(grads, axis=1))) < 1e-12


def test_trap_ring_t0_locus():
    spec = vl.TrapRing(omega=0.9, R=1.2)
    theta = np.linspace(0.0, 2 * math.pi, 17)
    pts = np.stack(
        [1.2 + 1.2 * np.cos(theta), 1.2 * np.sin(theta), np.zeros_like(theta)], axis=-1
    )
    assert float(np.max(np.abs(vl.amplitude(spec, C, pts, 0.0)))) < 1e-12


def test_galilean_transport_of_free_zero_set():
    # Free-family zeros ride along the classical velocity hbar k / m.
    ring = vl.FreeRingCylinder(R=2.0, a=0.7, k=K)
    v = np.array([K.kx, K.ky, K.kz])  # hbar = m = 1
    t = 0.52
    base = np.array([2.0, 0.0, -2.0 * t / 0.7])
    assert abs(vl.amplitude(ring, C, base + v * t, t)) < 1e-12


def test_spec_validation_errors():
    with pytest.raises(SpecValidationError):
        vl.FreeRingCylinder(R=-1.0, a=0.5)
    with pytest.raises(SpecValidationError):
        vl.FreeRingCylinder(R=1.0, a=0.0)
    with pytest.raises(SpecValidationError):
        vl.TrapRing(omega=0.0, R=1.0)
    with pytest.raises(SpecValidationError):
        vl.MagneticLine(B=1.0, a=0.5, varphi=math.pi / 2)  # cos(varphi) ~ 0
    with pytest.raises(SpecValidationError):
        # Degenerate direction: w x conj(w) = 0 is a node sheet, not a vortex.
        vl.FreeTwoLines(
            w1=(1.0, 1.0, 0.0), r1=(0, 0, 0), w2=(1.0, 0.0, 1j), r2=(1, 0, 0)
        )
    with pytest.raises(SpecValidationError):
        vl.PhysicalConstants(hbar=0.0)


#: (spec, parameter, out-of-domain value) for every parameter of ALL_SPECS
#: with a sign domain: R, l and omega must be > 0, a and B nonzero.
DOMAIN_CASES = [
    (spec, name, bad)
    for spec in ALL_SPECS
    for name, bads in (("R", (0.0, -1.0)), ("l", (0.0, -1.0)), ("omega", (0.0, -1.0)),
                       ("a", (0.0,)), ("B", (0.0,)))
    if name in {f.name for f in dataclasses.fields(spec)}
    for bad in bads
]


@pytest.mark.parametrize(
    "spec,name,bad", DOMAIN_CASES,
    ids=[f"{type(spec).__name__}-{name}={bad}" for spec, name, bad in DOMAIN_CASES],
)
def test_every_domain_parameter_is_checked_at_construction(spec, name, bad):
    with pytest.raises(SpecValidationError, match=rf"^{name} must be"):
        dataclasses.replace(spec, **{name: bad})


def _bare_closed_forms(consts, k, t, r):
    """The bare carriers as textbook closed forms, each as (spec, psi at r)."""
    hbar, m, c = consts.hbar, consts.mass, consts.light_speed
    kr, k2 = r @ k.as_array(), k.norm**2
    l, omega, B = 1.5, 0.9, 1.3
    beta = 1.0 + 1j * hbar * t / (m * l * l)
    shifted = r - 1j * l * l * k.as_array()
    omega_k = c * math.sqrt(k2 + (m * c / hbar) ** 2)
    omega_c = consts.charge * B / m
    r2, rho2 = (r * r).sum(axis=-1), (r[:, :2] ** 2).sum(axis=-1)
    ground = np.exp(-m * omega * r2 / (2.0 * hbar) - 1.5j * omega * t)
    drive = kr - hbar * k2 * math.sin(omega * t) / (2.0 * m * omega)
    return [
        (vl.FreePlaneWave(k=k), np.exp(1j * kr - 1j * hbar * k2 * t / (2.0 * m))),
        (vl.RelPlaneWave(k=k), np.exp(1j * kr - 1j * omega_k * t)),
        (vl.GaussianPacket(l=l, k=k), np.exp(-k2 * l * l / 2.0) * beta**-1.5
         * np.exp(-(shifted * shifted).sum(axis=-1) / (2.0 * l * l * beta))),
        (vl.TrapGenerator(omega=omega, k=k), ground * np.exp(1j * np.exp(-1j * omega * t) * drive)),
        (vl.MagneticGenerator(B=B),
         np.exp(-consts.charge * B * rho2 / (4.0 * hbar) - 0.5j * omega_c * t)),
    ]


@pytest.mark.parametrize("consts", [C, C2], ids=["C", "C2"])
@pytest.mark.parametrize("t", [-0.7, 0.45])
def test_bare_carriers_match_their_closed_forms(consts, t):
    pts = random_points(50, seed=21)
    for spec, expected in _bare_closed_forms(consts, K, t, pts):
        got = vl.amplitude(spec, consts, pts, t)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0), type(spec).__name__


def test_relativistic_axial_drift_speed_formula():
    spec = vl.RelRingCylinder(R=2.0, a=0.7, k=vl.WaveVector(0.2, 0.0, 0.0))
    omega = math.sqrt(0.2**2 + 1.0)
    perp = 0.2**2 / omega**2
    assert spec.axial_drift_speed(C) == pytest.approx((2.0 - perp) / (omega * 0.7))
