import math

import numpy as np
import pytest
from conftest import held, on_grid, whole
from scipy.linalg import expm

import vortexlines as vl
from vortexlines import grids, propagator
from vortexlines.errors import BoundaryDecayError, SpecValidationError
from vortexlines.grids import Grid3, SampledField, SlabbedField, sample
from vortexlines.propagator import (
    PropagatorConfig,
    axis_propagators,
    evolve,
    l2_relative_error,
)

C = vl.NATURAL_UNITS

OFF = (0.013, 0.011, 0.017)


def periodic_grid(length, n):
    spacing = length / n
    origin = tuple(-0.5 * length + o for o in OFF)
    return Grid3(origin, (spacing,) * 3, (n,) * 3)


def grid_points(grid):
    """All positions of the grid, shape dims + (3,)."""
    return np.stack(np.meshgrid(*map(grid.axis_coords, range(3)), indexing="ij"), axis=-1)


#: Every x plane: a whole-grid field's slab of all of its values.
ALL = slice(None)


def test_config_validation():
    for duration in (-0.1, math.inf, -math.inf, math.nan):
        with pytest.raises(SpecValidationError, match="duration"):
            PropagatorConfig(duration=duration)
    for omega in (-1.0, math.inf, math.nan):
        with pytest.raises(SpecValidationError, match="omega"):
            PropagatorConfig(duration=0.1, omega=omega)


def test_hamiltonian_follows_omega():
    assert PropagatorConfig(duration=0.1).hamiltonian == "free"
    assert PropagatorConfig(duration=0.1, omega=0.5).hamiltonian == "harmonic"


def test_zero_steps_is_identity():
    grid = periodic_grid(32.0, 32)
    field = whole(vl.GaussianPacket(l=2.0), C, grid, 0.0)
    out = evolve(field, PropagatorConfig(duration=0.0))
    assert out is field


def test_rejects_non_decayed_boundary_data():
    grid = periodic_grid(6.0, 16)
    field = whole(vl.GaussianPacket(l=2.0), C, grid, 0.0)  # box far too small
    with pytest.raises(BoundaryDecayError) as info:
        evolve(field, PropagatorConfig(duration=0.01))
    assert info.value.boundary_amplitude > 1e-12


def test_norm_is_conserved():
    grid = periodic_grid(32.0, 48)
    field = whole(vl.GaussianPacket(l=2.0), C, grid, 0.0)
    out = evolve(field, PropagatorConfig(duration=0.5))
    norm_in, norm_out = np.linalg.norm(field.slab(ALL)), np.linalg.norm(out.slab(ALL))
    assert abs(norm_out - norm_in) < 1e-10 * norm_in


def test_free_evolution_is_spectrally_exact_for_gaussian_packet():
    # The free propagator is the exact evolution of the spectral kinetic
    # operator, so the only error is the periodic-box truncation.
    grid = periodic_grid(40.0, 64)
    spec = vl.GaussianPacket(l=2.0, k=vl.WaveVector(0.3, 0.0, 0.0))
    field = whole(spec, C, grid, 0.0)
    out = evolve(field, PropagatorConfig(duration=0.5))
    reference = whole(spec, C, grid, 0.5)
    assert l2_relative_error(reference, out) < 1e-6


def test_free_evolution_matches_windowed_vortex_pair():
    grid = periodic_grid(52.0, 64)
    spec = vl.WindowedTwoLinesSymmetric(a=1.0, varphi=math.pi / 2, l=3.0)
    field = whole(spec, C, grid, 0.0)
    out = evolve(field, PropagatorConfig(duration=0.5))
    reference = whole(spec, C, grid, 0.5)
    assert l2_relative_error(reference, out) < 1e-6


def test_trap_ground_state_is_stationary():
    grid = periodic_grid(18.0, 48)
    omega = 1.0

    def ground(pts):
        r2 = np.sum((np.asarray(pts)) ** 2, axis=-1)
        return np.exp(-0.5 * omega * r2) + 0.0j

    field = held(grid, ground(grid_points(grid)))
    config = PropagatorConfig(duration=0.05, omega=omega)
    out = evolve(field, config)
    # Residual after projecting out the global phase, computed directly.
    va, vb = field.slab(ALL).ravel(), out.slab(ALL).ravel()
    lam = np.vdot(va, vb) / np.vdot(va, va)
    residual = np.linalg.norm(vb - lam * va) / np.linalg.norm(va)
    assert residual < 1e-8


@pytest.mark.parametrize("t", [0.2, 0.5, 2.0 * math.pi], ids=["0.2", "0.5", "period"])
def test_trap_evolution_is_exact(t):
    # The trap propagator is the exact evolution of the discrete
    # Hamiltonian, with no time step: on a grid fine enough to resolve the
    # ring, the evolved field is the closed form's to roundoff, over a short
    # time as over a whole trap period.
    grid = periodic_grid(18.0, 48)
    spec = vl.TrapRing(omega=1.0, R=1.0)
    out = evolve(whole(spec, C, grid, 0.0), PropagatorConfig(duration=t, omega=1.0))
    assert out.time == t
    assert l2_relative_error(whole(spec, C, grid, t), out) < 1e-12


def test_l2_error_ignores_global_phase():
    grid = periodic_grid(20.0, 24)
    field = whole(vl.GaussianPacket(l=2.0), C, grid, 0.0)
    rotated = held(grid, field.slab(ALL) * (0.7 - 1.9j))
    assert l2_relative_error(field, rotated) < 1e-12
    assert l2_relative_error(field, field) == 0.0


@pytest.mark.parametrize("scale", [0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 5.0, 7.0])
def test_l2_error_of_a_field_with_itself_is_zero(scale):
    # lambda = <b, a> / <b, b> must come out exactly 1: a complex divided by
    # |b|^2 as a whole goes through the reciprocal, which need not round back.
    grid = periodic_grid(20.0, 24)
    scaled = held(grid, scale * on_grid(vl.GaussianPacket(l=2.0), C, grid, 0.0))
    assert l2_relative_error(scaled, scaled) == 0.0


def test_l2_error_resolves_small_errors():
    # A perturbation of 1e-9 relative, orthogonal to the field: the error is
    # its size, far below where sqrt(1 - overlap) cancels to zero.
    grid = periodic_grid(20.0, 24)
    field = whole(vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5), C, grid, 0.0)
    va = field.slab(ALL)
    w = va * np.cos(grid_points(grid)[..., 0])
    u = w - (np.vdot(va, w) / np.vdot(va, va)) * va
    delta = 1e-9 * np.linalg.norm(va) / np.linalg.norm(u) * u
    perturbed = held(grid, va + delta)
    assert l2_relative_error(field, perturbed) == pytest.approx(1e-9, rel=1e-4)


def _reference_free_steps(psi, grid, dt, steps):
    """Plain loop of free steps on numpy.fft, with the kinetic phase built on
    the full grid."""
    k = [2.0 * math.pi * np.fft.fftfreq(grid.dims[a], d=grid.spacing[a]) for a in range(3)]
    k2 = k[0][:, None, None] ** 2 + k[1][None, :, None] ** 2 + k[2][None, None, :] ** 2
    kinetic = np.exp(-0.5j * k2 * dt)
    for _ in range(steps):
        psi = np.fft.ifftn(np.fft.fftn(psi) * kinetic)
    return psi


def test_one_free_step_equals_many_reference_steps():
    grid = periodic_grid(28.0, 32)
    spec = vl.WindowedTwoLinesSymmetric(a=1.0, varphi=math.pi / 2, l=1.5)
    field = whole(spec, C, grid, 0.0)
    out = evolve(field, PropagatorConfig(duration=0.5))
    reference = _reference_free_steps(field.slab(ALL), grid, dt=0.01, steps=50)
    peak = float(np.max(np.abs(reference)))
    assert out.time == pytest.approx(0.5)
    assert float(np.max(np.abs(out.slab(ALL) - reference))) < 1e-12 * peak


# Unequal dims and spacings, so a swapped axis cannot go unnoticed as it
# would on a cubic grid.
ANISOTROPIC = Grid3(
    tuple(-0.5 * side + o for side, o in zip((19.0, 20.0, 21.0), OFF)),
    (19.0 / 20, 20.0 / 24, 21.0 / 28),
    (20, 24, 28),
)


def _reference_propagator(grid, axis, duration, omega):
    """exp(-i H t) along `axis` by scipy's expm (hbar = m = 1), with the
    kinetic matrix built from the DFT matrix: neither the circulant column
    nor the eigendecomposition of the propagator."""
    n = grid.dims[axis]
    dft = np.fft.fft(np.eye(n), axis=0)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing[axis])
    hamiltonian = np.linalg.solve(dft, 0.5 * k[:, None] ** 2 * dft)
    hamiltonian += np.diag(0.5 * omega**2 * grid.axis_coords(axis) ** 2)
    return expm(-1j * duration * hamiltonian)


@pytest.mark.parametrize(
    "grid, hamiltonian, duration",
    [
        (periodic_grid(18.0, 32), "harmonic", 0.5),
        (ANISOTROPIC, "harmonic", 0.5),
        (ANISOTROPIC, "harmonic", 2.0 * math.pi),
        (ANISOTROPIC, "free", 0.5),
    ],
    ids=["cubic-harmonic", "anisotropic-harmonic", "anisotropic-harmonic-period",
         "anisotropic-free"],
)
def test_axis_propagators_equal_expm_on_the_whole_grid(grid, hamiltonian, duration):
    omega = 1.0 if hamiltonian == "harmonic" else 0.0
    field = whole(vl.TrapRing(omega=1.0, R=1.0), C, grid, 0.0)
    out = evolve(field, PropagatorConfig(duration=duration, omega=omega))
    u_x, u_y, u_z = (_reference_propagator(grid, a, duration, omega) for a in range(3))
    reference = np.einsum("ia,abc->ibc", u_x, field.slab(ALL))
    reference = np.einsum("jb,ibc->ijc", u_y, reference)
    reference = np.einsum("kc,ijc->ijk", u_z, reference)
    peak = float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(out.slab(ALL) - reference))) < 1e-12 * peak


@pytest.mark.parametrize("hamiltonian", ["free", "harmonic"])
def test_evolve_leaves_the_input_untouched(hamiltonian):
    grid = periodic_grid(18.0, 24)
    values = on_grid(vl.TrapRing(omega=1.0, R=1.0), C, grid, 0.0)
    before = values.tobytes()
    config = PropagatorConfig(duration=0.06, omega=1.0 if hamiltonian == "harmonic" else 0.0)
    evolve(held(grid, values), config)
    assert values.tobytes() == before


def _box_fields(grid):
    """The ring sampled on its zero box, part of the grid, and its whole
    grid held as a `SampledField`, a box field on the whole grid's box."""
    spec = vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5)
    field = sample(spec, C, grid, 0.0)
    assert field.shape != grid.dims
    values = on_grid(spec, C, grid, 0.0)
    return field, SampledField(grid, values, 0.0, peak=np.abs(values).max())


def test_evolve_refuses_a_box_field():
    # Dense evolve reads a SlabbedField's grid: a box field is refused, and
    # so is a FormedField, which finds no peak for the decay check.
    grid = periodic_grid(24.0, 32)
    config = PropagatorConfig(duration=0.1)
    spec = vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5)
    for field in (*_box_fields(grid), grids.sample_in_slabs(spec, C, grid, 0.0)):
        with pytest.raises(SpecValidationError, match="SlabbedField"):
            evolve(field, config, C)


def test_l2_error_refuses_a_box_field():
    grid = periodic_grid(24.0, 32)
    other = whole(vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5), C, grid, 0.0)
    for field in _box_fields(grid):
        for a, b in ((field, other), (other, field)):
            with pytest.raises(SpecValidationError, match="whole grid"):
                l2_relative_error(a, b)


@pytest.mark.parametrize("config", [
    PropagatorConfig(duration=0.5),
    PropagatorConfig(duration=0.5, omega=1.0),
], ids=["free", "harmonic"])
def test_evolve_of_a_formed_field_equals_evolve_of_the_held_grid(config):
    # A SlabbedField formed from t0's axis rows is read whole by evolve: the
    # evolved grid, its decay check and its time are bit for bit those of
    # the grid held whole.
    spec, t0 = vl.TrapRing(omega=1.0, R=1.0), 0.25
    axes = [ANISOTROPIC.axis_coords(a) for a in range(3)]
    formed = SlabbedField(ANISOTROPIC, spec.at(C, t0).on_grid_slabs(*axes), t0)
    out, reference = evolve(formed, config), evolve(whole(spec, C, ANISOTROPIC, t0), config)
    assert isinstance(out, SlabbedField) and out.time == reference.time == t0 + 0.5
    assert np.array_equal(out.slab(ALL), reference.slab(ALL))
    assert out.peak == reference.peak


#: Slab sizes: one x plane, three planes (20 x planes are not a multiple of
#: three), and more points than the grid holds.
PLANE = ANISOTROPIC.dims[1] * ANISOTROPIC.dims[2]
SLAB_SIZES = [1, 3 * PLANE, 10**9]


def _slab_evolve(field, config):
    """evolve's three axis products with U_y and U_z applied in place, slab
    by slab of x planes (`grids.slabs`): one gemm per slab for U_z."""
    grid = field.grid
    u_x, u_y, u_z = (propagator._axis_propagator(grid, a, config, C) for a in range(3))
    n_x, n_y, n_z = grid.dims
    psi = (u_x @ field.slab(ALL).reshape(n_x, -1)).reshape(n_x, n_y, n_z)
    for s in grids.slabs(psi.shape):
        part = np.matmul(u_y, psi[s]).reshape(-1, n_z)
        np.matmul(part, u_z.T, out=psi[s].reshape(-1, n_z))
    return psi


@pytest.mark.parametrize("slab", SLAB_SIZES)
@pytest.mark.parametrize("hamiltonian", ["free", "harmonic"])
def test_evolve_in_slabs_equals_whole_array_products(monkeypatch, hamiltonian, slab):
    # evolve's whole-array products are bit for bit the slab-by-slab ones,
    # whatever the slab size.
    field = whole(vl.TrapRing(omega=1.0, R=1.0), C, ANISOTROPIC, 0.0)
    config = PropagatorConfig(duration=0.5, omega=1.0 if hamiltonian == "harmonic" else 0.0)
    monkeypatch.setattr(grids, "SLAB_POINTS", slab)
    assert np.array_equal(evolve(field, config).slab(ALL), _slab_evolve(field, config))


@pytest.mark.parametrize("slab", SLAB_SIZES)
def test_whole_grid_reductions_in_slabs(monkeypatch, slab):
    field = whole(vl.TrapRing(omega=1.0, R=1.0), C, ANISOTROPIC, 0.0)
    config = PropagatorConfig(duration=0.5, omega=1.0)
    out = evolve(field, config)
    monkeypatch.setattr(grids, "SLAB_POINTS", slab)
    # The one-pass formulas the slab passes replace.
    va, vb = out.slab(ALL).ravel(), field.slab(ALL).ravel()
    lam = np.vdot(vb, va) / np.vdot(vb, vb).real
    whole_l2 = np.linalg.norm(va - lam * vb) / np.linalg.norm(va)
    assert l2_relative_error(out, field) == pytest.approx(whole_l2, rel=1e-13, abs=0.0)


# At 64^3 one whole-grid complex array is 4.2 MB.
MEMORY_GRID = periodic_grid(48.0, 64)


def test_l2_error_makes_no_whole_grid_temporary(traced_peak):
    spec = vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5)
    a, b = (whole(spec, C, MEMORY_GRID, t) for t in (0.0, 0.01))
    err, peak = traced_peak(l2_relative_error, a, b)
    assert err > 0.0 and peak <= 2e6


#: The six families the oracle check accepts, with windows narrow enough to
#: decay at ANISOTROPIC's walls.
ORACLE_FAMILIES = [
    vl.WindowedRingCylinder(R=1.0, a=0.5, l=1.0),
    vl.WindowedTwoLinesSymmetric(a=1.0, varphi=math.pi / 2, l=1.0),
    vl.GaussianPacket(l=1.0, k=(0.3, -0.2, 0.1)),
    vl.GaussianLineVortex(l=1.0, x0=0.4),
    vl.TrapRing(omega=1.0, R=1.0),
    vl.TrapGenerator(omega=1.0),
]


@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda spec: type(spec).__name__)
@pytest.mark.parametrize("config", [
    PropagatorConfig(duration=0.5),
    PropagatorConfig(duration=0.5, omega=1.0),
], ids=["free-1", "harmonic-25"])
def test_separated_evolution_equals_dense_evolve(spec, config):
    # The oracle check evolves psi(t0) through its axis rows; evolve of the
    # sampled t0 grid is the reference.
    t0 = 0.25
    dense = evolve(whole(spec, C, ANISOTROPIC, t0), config).slab(ALL)
    axes = [ANISOTROPIC.axis_coords(a) for a in range(3)]
    form = spec.at(C, t0).on_grid_slabs(*axes, maps=axis_propagators(ANISOTROPIC, config))
    separated = np.concatenate([form(s) for s in grids.slabs(ANISOTROPIC.dims)])
    assert separated.shape == ANISOTROPIC.dims
    assert np.max(np.abs(separated - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("slab", SLAB_SIZES)
@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda spec: type(spec).__name__)
def test_decay_check_in_slabs_equals_the_sampled_grids(monkeypatch, spec, slab):
    # The oracle check forms psi(t1) for the L2 error slab by slab from its
    # axis rows; each slab is bit for bit the sampled grid's.
    monkeypatch.setattr(grids, "SLAB_POINTS", slab)
    for t in (0.0, 0.25):
        values = on_grid(spec, C, ANISOTROPIC, t)
        slabbed = grids.sample_in_slabs(spec, C, ANISOTROPIC, t)
        for s in grids.slabs(ANISOTROPIC.dims):
            assert np.array_equal(slabbed.slab(s), values[s])


def _grid_walls_and_peak(values):
    """The max |psi| on the six faces of a sampled grid, and its peak."""
    walls = [np.abs(np.take(values, i, axis=a)).max() for a in range(3) for i in (0, -1)]
    return max(walls), np.abs(values).max()


@pytest.mark.parametrize("grid", [ANISOTROPIC, periodic_grid(12.0, 16), periodic_grid(16.0, 40)],
                         ids=["anisotropic", "16", "40"])
@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda spec: type(spec).__name__)
def test_walls_and_peak_from_axis_rows_match_the_slabs(spec, grid):
    # The oracle check reads psi(t0)'s walls from its axis rows, both end
    # rows of an axis in one product, and its peak from P's block bounds:
    # not bit for bit the sampled grid's, but within roundoff of it.
    axes = [grid.axis_coords(a) for a in range(3)]
    for t in (0.0, 0.25, 0.5):
        wall, _, peak = spec.at(C, t).walls_and_bracket(*axes)
        dense_wall, dense_peak = _grid_walls_and_peak(on_grid(spec, C, grid, t))
        assert wall == pytest.approx(dense_wall, rel=1e-15, abs=0.0)
        assert peak() == pytest.approx(dense_peak, rel=1e-15, abs=0.0)


def test_walls_and_peak_of_a_prefactor_beyond_the_block_bound():
    # P = 1 + x^2 y has no block bound: the decay check and the zero box
    # refuse it rather than fall back to the whole grid.
    columns = np.zeros((2, 6), dtype=complex)
    columns[:, 0] = 1.0
    snapshot = vl.catalog.Snapshot(((0, 0, 0), (2, 1, 0)), columns)
    axes = [ANISOTROPIC.axis_coords(a) for a in range(3)]
    with pytest.raises(SpecValidationError, match="degree 3"):
        snapshot.walls_and_bracket(*axes)
    with pytest.raises(SpecValidationError, match="degree 3"):
        snapshot.on_zero_box(*axes)


def test_require_decayed_at_the_limit():
    # A ratio equal to the limit passes, and so does a zero field; the next
    # float above the limit fails, and so does a NaN ratio.
    limit = propagator.BOUNDARY_DECAY
    propagator.require_decayed(limit, 1.0)
    propagator.require_decayed(0.0, 0.0)
    above = float(np.nextafter(limit, 1.0))
    with pytest.raises(BoundaryDecayError, match="initial data at the box wall") as info:
        propagator.require_decayed(above, 1.0)
    assert info.value.boundary_amplitude == above
    with pytest.raises(BoundaryDecayError) as info:
        propagator.require_decayed(math.nan, 1.0)
    assert math.isnan(info.value.boundary_amplitude)
