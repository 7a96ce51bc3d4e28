import collections
import dataclasses
import filecmp
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import held, on_grid, whole
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import vortexlines as vl
from vortexlines import anatomy, scenario, tracker
from vortexlines.cli import main
from vortexlines.errors import BoundaryDecayError, SpecValidationError
from vortexlines.grids import Grid3, sample_in_slabs, slabs
from vortexlines.presets import list_presets, preset
from vortexlines.scenario import (
    ScenarioConfig, _periodicity, check_circulation, check_events, check_locus, check_node_speed,
    check_oracle, run, validate,
)
from vortexlines.tracker import VortexPolyline
from vortexlines.serialization import spec_from_dict, spec_to_dict

OFF = (0.013, 0.011, 0.017)


def tiny_config(**overrides):
    base = dict(
        spec=vl.FreeRingCylinder(R=1.0, a=0.5),
        consts=vl.NATURAL_UNITS,
        grid=Grid3.centered(OFF, 4.0, 16),
        time_range=(-0.1, 0.1),
        n_frames=4,
        checks=("residual",),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_validate_reports_all_problems():
    config = tiny_config(
        time_range=(1.0, -1.0),
        n_frames=0,
        checks=("residual", "nonsense"),
        output_format="pdf",
    )
    problems = validate(config)
    assert len(problems) == 4
    assert any("time_range" in p for p in problems)
    assert any("n_frames" in p for p in problems)
    assert any("nonsense" in p for p in problems)
    assert any("pdf" in p for p in problems)


def test_validate_rejects_oracle_for_unsupported_equation():
    config = tiny_config(
        spec=vl.RelRingCylinder(R=1.0, a=0.5), checks=("oracle",)
    )
    assert any("oracle" in p for p in validate(config))


def test_run_refuses_invalid_config(tmp_path):
    with pytest.raises(SpecValidationError):
        run(tiny_config(n_frames=0), tmp_path)


def test_run_writes_artifacts_and_passes(tmp_path):
    result = run(tiny_config(), tmp_path / "out")
    assert result.exit_status == 0
    assert all(c.passed for c in result.checks)
    names = {p.rsplit("/", 1)[-1] for p in result.artifacts}
    assert {"polylines.jsonl", "events.json", "summary.json"} <= names
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["checks"][0]["name"] == "residual"
    assert summary["config"]["n_frames"] == 4


@pytest.mark.parametrize("name", ["fig2", "fig3_parallel", "anatomy", "relativistic"])
def test_presets_outside_the_benchmark_run_and_pass(tmp_path, name):
    # The drifting cylinder ring, the parallel pair, the Gaussian-packet line
    # vortex and the only Klein-Gordon run: their checks read grad, dt, lap
    # and d2t.
    result = run(preset(name), tmp_path / name)
    assert result.exit_status == 0
    assert result.checks and all(c.passed for c in result.checks)


def test_run_table_and_svg_formats(tmp_path):
    result = run(tiny_config(output_format="table"), tmp_path / "t")
    assert any(p.endswith("polylines.csv") for p in result.artifacts)
    result = run(tiny_config(output_format="svg"), tmp_path / "s")
    svgs = [p for p in result.artifacts if p.endswith(".svg")]
    assert len(svgs) == 5  # one snapshot per frame


def test_run_is_deterministic(tmp_path):
    run(tiny_config(), tmp_path / "a")
    run(tiny_config(), tmp_path / "b")
    for name in ("polylines.jsonl", "events.json", "summary.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_scenario_config_round_trip():
    config = preset("fig2")
    rebuilt = ScenarioConfig.from_dict(
        json.loads(json.dumps(config.to_dict()))
    )
    assert rebuilt == config


def test_presets_catalog():
    presets = list_presets()
    assert len(presets) >= 8
    names = [name for name, _ in presets]
    assert len(set(names)) == len(names)
    for name, description in presets:
        assert description
        config = preset(name)
        assert validate(config) == []
    with pytest.raises(SpecValidationError):
        preset("no_such_preset")


def test_preset_spec_round_trips_through_serialization():
    spec = preset("fig2").spec
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "oracle_ring" in out


def test_cli_requires_exactly_one_source(capsys):
    assert main(["run", "--out", "x"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_unknown_preset_fails(capsys):
    assert main(["run", "--preset", "bogus", "--out", "x"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_cli_validate_verb(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config().to_dict()))
    assert main(["validate", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    bad = tiny_config().to_dict()
    bad["n_frames"] = 0
    config_path.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(config_path)]) == 1
    assert "n_frames" in capsys.readouterr().out


def _edited(edit) -> str:
    data = tiny_config().to_dict()
    edit(data)
    return json.dumps(data)


def _with_spec(spec, **fields) -> str:
    """The tiny config on another family, with some fields replaced."""
    return _edited(lambda d: d.update(spec={**spec_to_dict(spec), **fields}))


@pytest.mark.parametrize("text", [
    pytest.param('{"spec": {', id="invalid-json"),
    pytest.param("[]", id="not-an-object"),
    pytest.param(_edited(lambda d: d.pop("grid")), id="missing-grid"),
    pytest.param(_edited(lambda d: d["spec"].pop("R")), id="missing-family-field"),
    pytest.param(_edited(lambda d: d["consts"].update(planck=1.0)), id="unknown-constant"),
    pytest.param(_edited(lambda d: d["grid"].update(origin=[0.0, 0.0])), id="grid-origin-of-2"),
    pytest.param(_edited(lambda d: d.update(time_range=[-0.1, 0.0, 0.1])), id="time-range-of-3"),
    pytest.param(_edited(lambda d: d.update(time_range=0.1)), id="scalar-time-range"),
    pytest.param(_edited(lambda d: d.update(time_range=["a", "b"])), id="text-time-range"),
    # Python's json parses Infinity and NaN.
    pytest.param(_edited(lambda d: d["grid"]["origin"].__setitem__(0, math.inf)),
                 id="infinite-grid-origin"),
    pytest.param(_edited(lambda d: d["grid"]["origin"].__setitem__(2, math.nan)),
                 id="nan-grid-origin"),
    pytest.param(_edited(lambda d: d["grid"]["spacing"].__setitem__(2, math.inf)),
                 id="infinite-grid-spacing"),
    pytest.param(_edited(lambda d: d.update(time_range=[-math.inf, 0.1])),
                 id="infinite-time-range"),
    pytest.param(_edited(lambda d: d.update(time_range=[math.nan, 0.1])), id="nan-time-range"),
    pytest.param(_edited(lambda d: d["spec"].update(a=math.nan)), id="nan-ring-a"),
    pytest.param(_edited(lambda d: d["spec"].update(a=math.inf)), id="infinite-ring-a"),
    pytest.param(_with_spec(vl.FreeRingSphere(R=1.0, a=1.0), R=math.inf),
                 id="infinite-sphere-R"),
    pytest.param(_with_spec(vl.MagneticGenerator(B=1.0), B=math.nan), id="nan-field-B"),
    pytest.param(_with_spec(vl.TrapRing(omega=1.0, R=1.0), omega=math.inf),
                 id="infinite-trap-omega"),
    pytest.param(_with_spec(vl.WindowedTwoLinesSymmetric(a=1.0, varphi=0.7, l=3.0),
                            varphi=math.nan), id="nan-windowed-varphi"),
    pytest.param(_with_spec(vl.FreeTwoLines(w1=(1.0, 1j, 0.0), r1=(0.3, 0.0, 0.0),
                                            w2=(1.0, -1j, 0.0), r2=(-0.3, 0.0, 0.0)),
                            r2=[-0.3, math.inf, 0.0]), id="infinite-line-r2"),
    pytest.param(_edited(lambda d: d["consts"].update(mass=math.inf)), id="infinite-mass"),
    pytest.param(_edited(lambda d: d.update(n_frames=2.5)), id="fractional-n-frames"),
    pytest.param(_edited(lambda d: d.update(seed=2.5)), id="fractional-seed"),
    pytest.param(_edited(lambda d: d.update(seed=-1)), id="negative-seed"),
    pytest.param(_edited(lambda d: d.update(checks="residual")), id="checks-as-a-string"),
    pytest.param(_edited(lambda d: d.update(checks=["residual", 1])), id="check-not-a-name"),
])
@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_rejects_a_malformed_config(tmp_path, capsys, text, verb):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    out = ["--out", str(tmp_path / "out")] if verb == "run" else []
    assert main([verb, "--config", str(config_path)] + out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, verb):
    # random.Random seeds with |seed|, so -1 would draw seed 1's points; the
    # config refuses a negative seed, before any frame is tracked.
    out = tmp_path / "out"
    args = ["--out", str(out)] if verb == "run" else []
    assert main([verb, "--preset", "fig2", "--seed", "-1"] + args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert captured.out == "" and not out.exists()


def test_config_refuses_checks_that_are_not_a_list_of_names():
    for checks in ("residual", ["residual", None], 3):
        with pytest.raises(SpecValidationError, match="checks"):
            tiny_config(checks=checks)
    assert tiny_config(checks=["residual", "locus"]).checks == ("residual", "locus")


def test_draws_are_seeded_and_lie_in_the_box_and_the_window():
    grid = tiny_config().grid
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.lengths)
    window = (-0.1, 0.1)
    pts, ts = scenario._draws(0, lo, hi, 1000, window, 8)
    again, again_ts = scenario._draws(0, lo, hi, 1000, window, 8)
    other, other_ts = scenario._draws(1, lo, hi, 1000, window, 8)
    assert np.array_equal(pts, again) and ts == again_ts
    assert not np.any(np.all(pts == other, axis=1)) and set(ts).isdisjoint(other_ts)
    assert pts.shape == (1000, 3) and len(ts) == 8
    assert np.all((pts >= lo) & (pts <= hi))
    assert all(window[0] <= t <= window[1] for t in ts)
    # The points take the first 3000 draws row-major, the times the next 8.
    u = random.Random(0).random
    first = [u() for _ in range(3)]
    for _ in range(2997):
        u()
    assert np.array_equal(pts[0], lo + (hi - lo) * np.array(first))
    assert ts[0] == window[0] + (window[1] - window[0]) * u()


def test_cli_run_with_config_and_overrides(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config().to_dict()))
    code = main(
        [
            "run", "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--grid", "12", "--frames", "3", "--format", "table", "--seed", "7",
        ]
    )
    output = capsys.readouterr().out
    assert code == 0
    assert "PASS residual" in output
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["grid"]["dims"] == [12, 12, 12]
    assert summary["config"]["n_frames"] == 3
    assert summary["config"]["seed"] == 7
    # The physical box is preserved under --grid.
    grid = summary["config"]["grid"]
    assert grid["spacing"][0] * 11 == pytest.approx(4.0)


def test_cli_run_preset(tmp_path, capsys):
    code = main(
        ["run", "--preset", "generation", "--out", str(tmp_path / "gen")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS residual" in out and "PASS generation" in out
    assert "artifacts:" in out


def test_cli_reports_failing_check(tmp_path, capsys):
    # The plain cylinder locus law does not hold for the windowed variant,
    # so asking for the locus check must fail rather than pass vacuously.
    config = tiny_config(
        spec=vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5),
        checks=("locus",),
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    code = main(
        ["run", "--config", str(config_path), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "FAIL locus" in capsys.readouterr().out


def test_cli_run_tracks_events_with_two_frames(tmp_path, capsys):
    # Two frames still bracket the pair's creation at t = -1 and its
    # annihilation at t = +1: short runs are tracked like long ones.
    code = main(
        ["run", "--preset", "pair_annihilation", "--frames", "2",
         "--out", str(tmp_path / "pair")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS events") == 2
    events = json.loads((tmp_path / "pair" / "events.json").read_text())
    assert [e["kind"] for e in events["events"]] == ["creation", "annihilation"]


def test_trap_oracle_is_the_same_at_any_frame_count():
    # The harmonic oracle evolves over the window in one exact step, so it
    # passes, with the same error, whatever the frame count.
    n, length = 48, 18.0
    grid = Grid3(tuple(-0.5 * length + o for o in OFF), (length / n,) * 3, (n,) * 3)
    errors = []
    for n_frames in (2, 4, 8):
        config = tiny_config(
            spec=vl.TrapRing(omega=1.0, R=1.0), grid=grid, time_range=(0.0, 0.5),
            n_frames=n_frames, checks=("oracle",),
        )
        results = check_oracle(config, [], None, None)
        assert all(r.passed for r in results), (n_frames, results)
        errors.append(results[0].measured)
    assert errors[0] == errors[1] == errors[2]


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_circulation_check_evaluates_each_contour_node_once(tmp_path, monkeypatch, name):
    # The velocity route doubles its 256 nodes to 512 here; the doubling
    # evaluates the 256 new nodes only.
    exact, batches = anatomy.flow_velocity, []

    def counted(spec, consts, r, t, vector_potential=None):
        batches.append(len(r))
        return exact(spec, consts, r, t, vector_potential=vector_potential)

    monkeypatch.setattr(anatomy, "flow_velocity", counted)
    result = run(dataclasses.replace(preset(name), checks=("circulation",)), tmp_path)
    assert batches == [256, 256]
    assert result.exit_status == 0 and result.checks[0].measured < 1e-12


def test_oracle_holds_no_whole_grid_field(tmp_path, monkeypatch, traced_peak):
    # oracle_ring's box at 64^3: no field is held whole.  t0's walls and peak
    # come from its axis rows and zero box, the evolved field and t1 are
    # formed slab by slab in the L2 error, and detection reads the evolved
    # one's slabs on its support box: a slab per field, and one byte a node
    # of codes.
    n = 64
    grid = Grid3(tuple(-24.0 + o for o in OFF), (48.0 / n,) * 3, (n,) * 3)
    config = dataclasses.replace(preset("oracle_ring"), grid=grid, n_frames=1,
                                 checks=("oracle",))
    peaks = []

    def traced(*args):
        results, peak = traced_peak(check_oracle, *args)
        peaks.append(peak)
        return results

    monkeypatch.setitem(scenario.CHECK_REGISTRY, "oracle", traced)
    result = run(config, tmp_path)
    assert result.exit_status == 0 and len(peaks) == 1
    assert peaks[0] <= 4 * n**3 + 2e6


def _held_evolved_check(config):
    """check_oracle's results with the evolved field held whole, formed by
    one product of t0's mapped axis rows, as the check formed it when it
    held that field: its L2 error and line-check values are the reference."""
    spec, consts, grid = config.spec, config.consts, config.grid
    t0, t1 = config.time_range
    omega = spec.omega if spec.equation == "trap" else 0.0
    snapshot = spec.at(consts, t0)
    maps = vl.propagator.axis_propagators(grid, vl.PropagatorConfig(t1 - t0, omega), consts)
    rows = snapshot._axis_rows([grid.axis_coords(a) for a in range(3)])
    values = snapshot._psi_on([r @ m.T for r, m in zip(rows, maps)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "SlabbedField", lambda grid, form, time: held(grid, values, time))
        return check_oracle(config, [], None, None)


@pytest.mark.parametrize("name", ["oracle_ring", "oracle_pair", "oracle_trap"])
def test_oracle_values_equal_the_held_field_check(name, monkeypatch):
    # The slabbed check's L2 error and line-check distance are bit for bit
    # those of the check on the held evolved grid, on any BLAS thread count
    # (the L2 error's last bits depend on it, the same for both).  Only the
    # evolved field, which detection reads, folds max |psi| profiles, once
    # a slab in the L2 error's first pass: the reference psi(t1) folds none.
    config = _oracle_trap() if name == "oracle_trap" else preset(name)
    folded, fold = [], vl.grids._fold_maxima

    def counted(maxima, s, values):
        folded.append(s)
        fold(maxima, s, values)

    monkeypatch.setattr(vl.grids, "_fold_maxima", counted)
    results = check_oracle(config, [], None, None)
    monkeypatch.undo()
    assert folded == slabs(config.grid.dims)
    reference = _held_evolved_check(config)
    assert [r.passed for r in results] == [True, True]
    assert [(r.measured, r.detail) for r in results] == [(r.measured, r.detail) for r in reference]


def _oracle_trap():
    """TrapRing on a periodic 72^3 box of side 18, over t = 0..0.5."""
    n, length = 72, 18.0
    grid = Grid3(tuple(-0.5 * length + o for o in OFF), (length / n,) * 3, (n,) * 3)
    return tiny_config(spec=vl.TrapRing(omega=1.0, R=1.0), grid=grid, time_range=(0.0, 0.5),
                       n_frames=8, checks=("oracle",))


@pytest.mark.parametrize("name", ["oracle_ring", "oracle_pair", "oracle_trap"])
def test_oracle_reference_slabs_are_the_sampled_grid(name):
    # The L2 error forms psi(t1) slab by slab from its axis rows: each slab
    # is bit for bit the sampled grid's, and so is the error.
    config = _oracle_trap() if name == "oracle_trap" else preset(name)
    spec, grid, (t0, t1) = config.spec, config.grid, config.time_range
    values = on_grid(spec, config.consts, grid, t1)
    slabbed = sample_in_slabs(spec, config.consts, grid, t1)
    for s in slabs(grid.dims):
        assert np.array_equal(slabbed.slab(s), values[s])
    other = whole(spec, config.consts, grid, t0)
    l2 = vl.propagator.l2_relative_error
    assert l2(slabbed, other) == l2(held(grid, values, t1), other) > 0.0


def test_oracle_on_a_box_too_small_for_the_window_fails_with_the_dense_error():
    # The check reads psi(t0) slab by slab; it fails with the error that
    # evolve of the sampled t0 grid raises, text and amplitude alike.
    grid = Grid3(tuple(-3.0 + o for o in OFF), (6.0 / 16,) * 3, (16,) * 3)
    config = tiny_config(spec=vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5), grid=grid,
                         time_range=(0.0, 0.5), checks=("oracle",))
    with pytest.raises(BoundaryDecayError) as info:
        vl.propagator.evolve(whole(config.spec, config.consts, grid, 0.0),
                             vl.PropagatorConfig(duration=0.5))
    results = check_oracle(config, [], None, None)
    assert [(r.name, r.passed, r.measured, r.tolerance, r.detail) for r in results] == [
        ("oracle", False, info.value.boundary_amplitude, vl.propagator.BOUNDARY_DECAY,
         str(info.value))]
    assert info.value.boundary_amplitude > vl.propagator.BOUNDARY_DECAY
    assert results[0].detail == (
        f"initial data at the box wall is {results[0].measured:.3e} of the peak "
        "(limit 1e-12); enlarge the box or window the data")


def _oracle_window():
    """WindowedRingCylinder on a periodic 32^3 box of side 20, over t = 0..0.5:
    its walls are 6.5e-18 of its peak at t = 0."""
    grid = Grid3(tuple(-10.0 + o for o in OFF), (20.0 / 32,) * 3, (32,) * 3)
    return tiny_config(spec=vl.WindowedRingCylinder(R=1.0, a=0.5, l=1.0), grid=grid,
                       time_range=(0.0, 0.5), checks=("oracle",))


def _formed_in_slabs(monkeypatch):
    """Spy on the oracle check: the times at which it forms a field slab by
    slab."""
    formed = []

    def in_slabs(spec, consts, grid, t):
        formed.append(t)
        return sample_in_slabs(spec, consts, grid, t)

    monkeypatch.setattr(scenario, "sample_in_slabs", in_slabs)
    return formed


def test_oracle_decay_check_forms_no_t0_grid(monkeypatch):
    # The walls and peak come from t0's axis rows: only t1 is formed, for
    # the L2 error.
    config = _oracle_window()
    formed = _formed_in_slabs(monkeypatch)
    results = check_oracle(config, [], None, None)
    assert results[0].detail.startswith("phase-optimal L2 error")
    assert formed == [0.5]


def _as_tuples(results):
    return [(r.name, r.passed, r.measured, r.tolerance, r.detail) for r in results]


def test_oracle_decay_check_at_the_limit_of_the_axis_rows_ratio(monkeypatch):
    # With the limit at the ratio of t0's walls and peak from its axis rows
    # the check passes; one float below it, it fails with that ratio and the
    # decay rule's text.
    config = _oracle_window()
    expected = _as_tuples(check_oracle(config, [], None, None))
    axes = [config.grid.axis_coords(a) for a in range(3)]
    wall, _, peak = config.spec.at(config.consts, 0.0).walls_and_bracket(*axes)
    ratio = wall / peak()
    monkeypatch.setattr(vl.propagator, "BOUNDARY_DECAY", ratio)
    assert _as_tuples(check_oracle(config, [], None, None)) == expected
    below = float(np.nextafter(ratio, 0.0))
    monkeypatch.setattr(vl.propagator, "BOUNDARY_DECAY", below)
    assert _as_tuples(check_oracle(config, [], None, None)) == [(
        "oracle", False, ratio, below,
        f"initial data at the box wall is {ratio:.3e} of the peak (limit {below:g}); "
        "enlarge the box or window the data")]


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_oracle_refuses_a_non_finite_reference_slab(monkeypatch, bad):
    # psi(t1) for the L2 error folds no maxima, but its first pass still
    # refuses a slab that is not finite, a middle one too.
    config = _oracle_window()

    def planted(spec, consts, grid, t):
        form = sample_in_slabs(spec, consts, grid, t).form

        def with_bad(s):
            values = form(s)
            if s.start <= 16 < s.stop:
                values[16 - s.start, 3, 5] = bad
            return values

        return vl.grids.FormedField(grid, with_bad, t)

    monkeypatch.setattr(scenario, "sample_in_slabs", planted)
    monkeypatch.setattr(vl.grids, "SLAB_POINTS", 4 * 32 * 32)
    assert len(slabs(config.grid.dims)) == 8
    with pytest.raises(SpecValidationError, match="non-finite"):
        check_oracle(config, [], None, None)


def _decay_outcome(check, *args):
    """None where the decay check passes, else its ratio and text."""
    try:
        check(*args)
    except BoundaryDecayError as exc:
        return exc.boundary_amplitude, str(exc)
    return None


@pytest.mark.parametrize("name", ["oracle_ring", "oracle_pair", "oracle_trap", "oracle_too_small"])
def test_oracle_decay_check_from_the_box_max_equals_the_exact_peak_check(monkeypatch, name):
    # The check decides from t0's zero box max |psi|, at most the peak, and
    # reads the exact peak only where the walls are not within the limit of
    # that max: the same pass or fail as against the exact peak, and on a
    # failure the same ratio and text.  The presets pass without a search,
    # and the box too small for its window fails; each passes at the limit
    # of its exact ratio, and fails one float below it.
    if name == "oracle_too_small":
        grid = Grid3(tuple(-3.0 + o for o in OFF), (6.0 / 16,) * 3, (16,) * 3)
        config = tiny_config(spec=vl.WindowedRingCylinder(R=1.0, a=0.5, l=2.5), grid=grid,
                             time_range=(0.0, 0.5), checks=("oracle",))
    else:
        config = _oracle_trap() if name == "oracle_trap" else preset(name)
    axes = [config.grid.axis_coords(a) for a in range(3)]
    snapshot = config.spec.at(config.consts, config.time_range[0])
    wall, low, peak = snapshot.walls_and_bracket(*axes)
    exact = peak()
    assert low <= exact
    searched = []

    def counted():
        searched.append(True)
        return peak()

    decay = vl.propagator
    for limit in (decay.BOUNDARY_DECAY, wall / exact, float(np.nextafter(wall / exact, 0.0))):
        monkeypatch.setattr(decay, "BOUNDARY_DECAY", limit)
        searched.clear()
        found = _decay_outcome(decay.require_decayed_above, wall, low, counted)
        assert found == _decay_outcome(decay.require_decayed, wall, exact)
        assert (found is None) == (limit >= wall / exact)
        assert bool(searched) == (not wall / low <= limit)


@pytest.mark.parametrize("name, field", [
    ("oracle_ring", "duration"),
    ("oracle_pair", "duration"),
    ("oracle_trap", "duration"),
    ("oracle_trap", "omega"),
])
def test_oracle_fails_with_the_propagator_off_by_a_millionth(monkeypatch, name, field):
    # A relative 1e-6 change of the duration leaves an L2 error of 8.2e-8 on
    # the ring, 3.0e-8 on the pair and 3.3e-7 in the trap, and of omega
    # 8.7e-7: all far above the tolerance, which roundoff stays far below.
    exact = scenario.propagator.axis_propagators

    def off(grid, config, consts):
        value = (1.0 + 1e-6) * getattr(config, field)
        return exact(grid, dataclasses.replace(config, **{field: value}), consts)

    monkeypatch.setattr(scenario.propagator, "axis_propagators", off)
    config = _oracle_trap() if name == "oracle_trap" else preset(name)
    l2 = check_oracle(config, [], None, None)[0]
    assert not l2.passed and l2.measured > 2.0 * scenario.ORACLE_L2_TOLERANCE, l2


@pytest.mark.parametrize("preset_name, grid, frames, law", [
    ("fig1", "56", "16", 1.0),
    ("fig1", "40", "16", 1.0),
    ("pair_annihilation", "48", "31", 1.0),
    ("fig3", "24", "31", 0.32),
])
def test_cli_events_are_roots_at_the_law(tmp_path, capsys, preset_name, grid, frames, law):
    # Coarse frames: the ring outgrows the match cutoff between frames, a
    # bracket lies off the event, a Newton refinement fails to converge.
    # Each event is solved as a root at the closed-form time -+law.
    code = main(["run", "--preset", preset_name, "--grid", grid, "--frames", frames,
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0, out
    events = json.loads((tmp_path / "out" / "events.json").read_text())["events"]
    expected = {"fig3": ["reconnection", "reconnection"]}.get(
        preset_name, ["creation", "annihilation"])
    assert [e["kind"] for e in events] == expected
    for event, sign in zip(events, (-1, 1)):
        assert abs(event["t"] - sign * law) <= 1e-9 * law
        assert event["t_lo"] <= event["t"] <= event["t_hi"]
    assert out.count("PASS events") == (1 if preset_name == "fig3" else 2)


@pytest.mark.parametrize("varphi, reconnections", [
    (3 * math.pi / 4, 2), (-math.pi / 4, 2), (math.pi / 4 + 2 * math.pi, 2), (math.pi, 0),
], ids=["3pi/4", "-pi/4", "pi/4+2pi", "pi"])
def test_events_expect_reconnections_at_every_crossing_angle(varphi, reconnections):
    # The pair's zero set depends on varphi only through sin^2 varphi: pi - varphi
    # mirrors x and -varphi mirrors y, so these angles reconnect as pi/4 does on
    # fig3's grid and window.  At pi the lines are parallel and nothing happens.
    config = dataclasses.replace(
        preset("fig3"), spec=vl.FreeTwoLinesSymmetric(a=0.4, varphi=varphi), checks=("events",))
    frames, log = tracker.track(config.spec, config.consts, config.grid,
                                *config.time_range, config.n_frames)
    assert [e.kind for e in log.events] == ["reconnection"] * reconnections
    (result,) = check_events(config, frames, log, None)
    assert result.passed, result
    assert result.measured == reconnections


def _tracked(config):
    """The tracked frames, event log and frame times of config."""
    frames, log = tracker.track(config.spec, config.consts, config.grid, *config.time_range,
                                config.n_frames)
    return frames, log, np.linspace(*config.time_range, config.n_frames + 1)


def test_events_gate_the_root_time_against_the_law():
    # At 16 frames fig1's brackets lie off the law by up to half a frame
    # step, but the roots sit at -+t_a; t* moved by 1e-6 of t_a fails.
    config = dataclasses.replace(preset("fig1"), n_frames=16, checks=("events",))
    frames, log, times = _tracked(config)
    t_a = config.spec.annihilation_time(config.consts)
    results = check_events(config, frames, log, times)
    assert [r.passed for r in results] == [True, True]
    assert all(r.measured <= 1e-9 * t_a and r.tolerance == 1e-9 * t_a for r in results)
    shifted = tracker.EventLog(
        events=[dataclasses.replace(e, t=e.t * (1.0 + 1e-6)) for e in log.events])
    results = check_events(config, frames, shifted, times)
    assert [r.passed for r in results] == [False, False]
    assert all(r.measured == pytest.approx(1e-6 * t_a, rel=1e-3) for r in results)


@pytest.mark.parametrize("name, spec, window, n_frames", [
    ("fig1", None, (-0.53125, 0.46875), 16),
    ("fig1", None, (-2.03125, 0.46875), 16),
    ("pair_annihilation", None, (-0.53125, 0.46875), 16),
    ("fig3", None, (-0.25, 0.25), 16),
    ("fig3", vl.WindowedTwoLinesSymmetric(a=0.4, varphi=math.pi / 4, l=4.0), None, None),
], ids=["fig1-ring-alive", "fig1-creation-only", "pair-alive", "fig3-before-switch",
        "windowed-crossing-pair"])
def test_events_expect_only_the_law_events_inside_the_window(name, spec, window, n_frames):
    base = preset(name)
    config = dataclasses.replace(
        base, spec=spec or base.spec, time_range=window or base.time_range,
        n_frames=n_frames or base.n_frames, checks=("events",))
    frames, log, times = _tracked(config)
    results = check_events(config, frames, log, times)
    assert all(r.passed for r in results), results


def test_events_refuse_a_law_event_logged_outside_the_window():
    # fig1 over (-2.03125, 0.46875) sees its creation at -1; the same log
    # judged over (-0.53125, 0.46875), where no law event lies, fails.
    config = dataclasses.replace(preset("fig1"), time_range=(-2.03125, 0.46875), n_frames=16,
                                 checks=("events",))
    frames, log, times = _tracked(config)
    assert [e.kind for e in log.events] == ["creation"]
    narrow = dataclasses.replace(config, time_range=(-0.53125, 0.46875))
    creation, annihilation = check_events(narrow, frames, log, times)
    assert not creation.passed and creation.measured == 1.0 and creation.tolerance == 0.0
    assert annihilation.passed and annihilation.measured == 0.0
    assert "outside the window" in creation.detail


def test_events_refuse_a_reconnection_where_the_law_places_none():
    # fig3's reconnections at -+0.32 judged over (-0.25, 0.25).
    config = preset("fig3")
    frames, log, times = _tracked(config)
    narrow = dataclasses.replace(config, time_range=(-0.25, 0.25))
    (result,) = check_events(narrow, frames, log, times)
    assert not result.passed and result.measured == 2.0


def test_ring_locus_fails_on_a_frame_without_the_laws_ring():
    # Frame 32 of fig1, t = -0.03125, where the law's radius is 2.999.
    config = dataclasses.replace(preset("fig1"), checks=("locus",))
    frames, _, times = _tracked(config)
    (result,) = check_locus(config, frames, None, times)
    assert result.passed
    emptied = frames[:32] + [[]] + frames[33:]
    (result,) = check_locus(config, emptied, None, times)
    assert not result.passed and math.isnan(result.measured)
    assert "t=-0.03125" in result.detail
    # Lines where the law has no ring fail too: frame 0, t = -2.03125.
    (result,) = check_locus(config, [frames[32]] + frames[1:], None, times)
    assert not result.passed and math.isnan(result.measured)
    assert "t=-2.03125" in result.detail


def test_oracle_on_data_at_the_box_wall_fails_without_aborting_the_run(tmp_path, capsys):
    # A window ten times wider than fig2's box leaves the ring at full height
    # at the box walls, which the periodic propagator refuses: the oracle
    # check fails and the artifacts are written.
    config = dataclasses.replace(
        preset("fig2"), spec=vl.WindowedRingCylinder(R=2.0, a=0.5, l=10.0),
        checks=("residual", "oracle"))
    assert validate(config) == []
    result = run(config, tmp_path / "run")
    assert result.exit_status == 1
    assert [(c.name, c.passed, c.measured, c.tolerance) for c in result.checks[1:]] == [
        ("oracle", False, 1.0, vl.propagator.BOUNDARY_DECAY)]
    assert "box wall" in result.checks[1].detail
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "cli")]) == 1
    assert "FAIL oracle" in capsys.readouterr().out
    summary = json.loads((tmp_path / "cli" / "summary.json").read_text())
    assert [(c["name"], c["passed"]) for c in summary["checks"]] == [
        ("residual", True), ("oracle", False)]
    assert summary["checks"][1]["measured"] == 1.0


def test_validate_refuses_oracle_on_a_carrier_without_a_window(tmp_path, capsys):
    # fig2's plane-wave carrier never decays at the box walls, so its oracle
    # check could never pass.
    config = dataclasses.replace(preset("fig2"), checks=("residual", "oracle"))
    assert any("oracle" in p and "window" in p for p in validate(config))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    assert main(["validate", "--config", str(config_path)]) == 1
    assert "window" in capsys.readouterr().out


def _probe_frame(name):
    """A preset and its tracked frame at the time `check_circulation` probes."""
    config = preset(name)
    t = float(np.linspace(*config.time_range, config.n_frames + 1)[(config.n_frames + 1) // 2])
    return config, [tracker.extract(config.spec, config.consts, config.grid, t)], [t]


@pytest.mark.parametrize("name", ["fig1", "fig4", "anatomy"])
def test_circulation_check_resolves_roundoff(name):
    # The trapezoid rule on the exact circle converges geometrically, so the
    # velocity integral is one quantum to roundoff, not to an extrapolation's
    # floor (1.2e-14 under Richardson extrapolation of the chord rule).
    config, frames, times = _probe_frame(name)
    (result,) = check_circulation(config, frames, None, times)
    assert result.passed
    assert result.measured <= 1e-15


def test_circulation_check_evaluates_few_velocities(monkeypatch):
    config, frames, times = _probe_frame("fig1")
    points = []
    flow_velocity = vl.anatomy.flow_velocity

    def counted(spec, consts, r, t, vector_potential=None):
        points.append(len(r))
        return flow_velocity(spec, consts, r, t, vector_potential=vector_potential)

    monkeypatch.setattr(vl.anatomy, "flow_velocity", counted)
    (result,) = check_circulation(config, frames, None, times)
    assert result.passed
    assert sum(points) <= 768


@pytest.mark.parametrize("chi, error", [
    (1e-12, "node sheet"), (1e-10, "wave-function zero"),
], ids=["degenerate-w", "vortex-core"])
def test_circulation_fails_without_aborting_the_run_where_the_probe_has_no_flow(
        tmp_path, capsys, chi, error):
    # A nearly real line vortex: at chi = 1e-12 Re w and Im w are parallel at
    # the probe, and at 1e-10 the contour's flow velocity meets the zero.
    config = dataclasses.replace(
        preset("fig2"), spec=vl.FreeLineVortex(chi=chi), n_frames=2, checks=("circulation",))
    assert validate(config) == []
    result = run(config, tmp_path / "run")
    assert result.exit_status == 1
    (check,) = result.checks
    assert (check.name, check.passed, check.tolerance) == (
        "circulation", False, scenario.CIRCULATION_TOLERANCE)
    assert math.isnan(check.measured) and error in check.detail
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "cli")]) == 1
    assert "FAIL circulation" in capsys.readouterr().out
    summary = json.loads((tmp_path / "cli" / "summary.json").read_text())
    assert [(c["name"], c["passed"]) for c in summary["checks"]] == [("circulation", False)]


def test_circulation_fails_on_a_probe_left_at_its_seed():
    # A crossing whose refinement failed keeps its bilinear seed, off the
    # zero: the check reports that instead of raising.
    config = tiny_config(checks=("circulation",))
    seeds = VortexPolyline(np.array([[1.1, 0.0, 0.0], [1.1, 0.1, 0.0], [1.1, 0.2, 0.0]]),
                           closed=False, winding=1, frame_time=0.0)
    (result,) = check_circulation(config, [[seeds]], None, [0.0])
    assert not result.passed
    assert "not on a line" in result.detail


@pytest.mark.parametrize("start, lines, status", [
    (0.0, [1, 2, 0, 0, 0], 0),
    (1.6, [0, 0, 0, 0, 0], 1),
], ids=["probe_with_lines", "probe_without_lines"])
def test_locus_fails_instead_of_raising_on_frames_without_lines(
        tmp_path, capsys, start, lines, status):
    # The trap ring leaves this corner of the trap within half a period.
    # The periodicity probe reads the first frame: at t = 0 it holds the
    # ring, at t = 1.6 nothing, and the check then fails with a detail.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "spec": {"family": "TrapRing", "omega": 1.0, "R": 1.0},
        "grid": {"origin": [0.213, -1.189, -0.483], "spacing": [0.1, 0.1, 0.1],
                 "dims": [21, 25, 11]},
        "time_range": [start, 3.14159],
        "n_frames": 4,
        "checks": ["locus"],
    }))
    assert main(["validate", "--config", str(config_path)]) == 0
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == status
    with open(tmp_path / "out" / "polylines.jsonl") as fh:
        per_frame = collections.Counter(json.loads(row)["frame"] for row in fh)
    assert [per_frame[i] for i in range(5)] == lines
    assert "PASS locus: measured" in out
    if status:
        assert "FAIL locus: measured nan" in out and "no line to compare" in out


@pytest.mark.parametrize("name, count", [("fig4", 0), ("fig5", 1)])
def test_locus_reads_the_tracked_frames(tmp_path, monkeypatch, name, count):
    # fig4's 8 phases and its period end are frame times; fig5's trap period
    # spans its window, so only its t = 0 ring is extracted anew.
    calls = []
    extract = tracker.extract

    def counted(spec, consts, grid, t):
        calls.append(t)
        return extract(spec, consts, grid, t)

    monkeypatch.setattr(tracker, "extract", counted)
    result = run(preset(name), tmp_path / name)
    assert result.exit_status == 0
    assert len(calls) == count


@pytest.mark.parametrize("shift, passed", [(1e-3, True), (0.2, False)])
def test_locus_gates_the_ring_height(shift, passed):
    # fig1's ring lies on the sphere's circle at every frame; moving every
    # node along z moves it off by the shift, whatever the radius reads.
    config = dataclasses.replace(preset("fig1"), checks=("locus",))
    frames, _, times = _tracked(config)
    moved = [[dataclasses.replace(line, points=line.points + (0.0, 0.0, shift))
              for line in lines] for lines in frames]
    (result,) = check_locus(config, moved, None, times)
    assert result.passed == passed
    assert result.measured == pytest.approx(shift, rel=1e-6)
    assert result.tolerance == 0.5 * config.grid.cell_diagonal


def test_periodicity_is_the_symmetric_hausdorff_distance():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.5, 0.0], [2.0, 0.0, 0.0]])
    assert _periodicity(a, b, 2.0, "").measured == pytest.approx(1.0)
    assert _periodicity(a, a, 2.0, "").measured == 0.0


def _one_sided(a, b):
    """max over a of the distance to the nearest point of b, by brute force."""
    return float(cdist(a, b).min(axis=1).max())


def test_distances_equal_a_brute_force_reference_on_random_clouds():
    rng = np.random.default_rng(5)
    for n, m in ((1, 1), (7, 300), (300, 1200), (250, 40)):
        a, b = rng.normal(size=(n, 3)), rng.uniform(-2.0, 2.0, size=(m, 3))
        assert tracker.nearest(b, a)[0].max() == _one_sided(a, b)
        expected = max(_one_sided(a, b), _one_sided(b, a))
        assert _periodicity(a, b, 1.0, "").measured == expected


def test_locus_distances_equal_a_brute_force_reference_on_fig4():
    # fig4's 8 phases and its period end are frame times, so check_locus
    # reads every distance off the tracked frames.
    config = preset("fig4")
    spec, consts = config.spec, config.consts
    times = np.linspace(*config.time_range, config.n_frames + 1)
    frames, _ = tracker.track(spec, consts, config.grid, *config.time_range, config.n_frames)

    def points_at(t):
        (hit,) = np.nonzero(times == t)
        return np.concatenate([line.points for line in frames[hit[0]]])

    period = 2.0 * math.pi / consts.cyclotron_frequency(spec.B)
    span = max(config.grid.lengths)
    xs = np.linspace(-span, span, 1200)
    locus, periodicity = check_locus(config, frames, None, times)
    phases = [phase * period / 8.0 for phase in range(8)]
    assert locus.measured == max(
        _one_sided(points_at(t), spec.parametric_locus(consts, t, xs)) for t in phases
    )
    before, after = points_at(0.0), points_at(period)
    assert periodicity.measured == max(_one_sided(before, after), _one_sided(after, before))


def _node_speed_on(config):
    """check_node_speed on the tracked frames of config."""
    frames, _, times = _tracked(config)
    (result,) = check_node_speed(config, frames, None, times)
    return result


def test_node_speed_fails_on_chord_speeds_off_by_a_thousandth(monkeypatch):
    config = preset("relativistic")
    assert _node_speed_on(config).passed
    node_speeds = tracker.node_speeds
    monkeypatch.setattr(tracker, "node_speeds", lambda *args: [
        (nodes, speeds * (1.0 + 1e-3)) for nodes, speeds in node_speeds(*args)
    ])
    result = _node_speed_on(config)
    assert not result.passed
    assert result.measured == pytest.approx(1e-3, rel=0.05)


def test_node_speed_fails_below_light_speed():
    # The same ring drifting at 0.9 c: its nodes follow the line velocity,
    # but the slowest one does not outrun light.
    config = preset("relativistic")
    spec, consts = config.spec, config.consts
    a = spec.a * spec.axial_drift_speed(consts) / (0.9 * consts.light_speed)
    result = _node_speed_on(dataclasses.replace(config, spec=dataclasses.replace(spec, a=a)))
    assert not result.passed
    assert result.measured < 1e-4
    assert "slowest node 0.9" in result.detail


@pytest.mark.parametrize("dims, shift", [(36, (0.0, 0.0, 0.0)), (48, (-0.05, 0.04, 0.06))],
                         ids=["36^3", "shifted-origin"])
def test_node_speed_holds_where_face_plane_newton_fails(dims, shift):
    # On these grids the nearly flat ring lies close to a z grid plane, so
    # z-normal faces are pierced whose face-plane Newton fails; their
    # crossings are landed on the line by min-norm steps, not kept at seeds.
    config = preset("relativistic")
    old = config.grid
    spacing = tuple(old.spacing[a] * (old.dims[a] - 1) / (dims - 1) for a in range(3))
    origin = tuple(o + s * h for o, s, h in zip(old.origin, shift, spacing))
    config = dataclasses.replace(config, grid=Grid3(origin, spacing, (dims,) * 3))
    result = _node_speed_on(config)
    assert result.passed, result
    assert result.measured < 2e-5


def test_node_speed_of_lines_at_rest():
    # fig3_parallel's lines never move: |u| = 0 at every node, and each
    # deviation is measured against a speed floor instead.
    config = dataclasses.replace(preset("fig3_parallel"), checks=("node_speed",))
    result = _node_speed_on(config)
    assert result.passed, result


#: Presets whose nodes also move with the classical velocity hbar k / m.
MOVING_CARRIERS = [("fig2", (0.0, 0.0, 0.3)), ("fig2", (0.3, 0.0, 0.0)), ("anatomy", (0.2, 0.0, 0.0))]


@pytest.mark.parametrize("name,k", MOVING_CARRIERS, ids=[f"{n}-k={k}" for n, k in MOVING_CARRIERS])
def test_node_speed_holds_at_nonzero_k(monkeypatch, name, k):
    config = preset(name)
    config = dataclasses.replace(config, spec=dataclasses.replace(config.spec, k=vl.WaveVector(*k)))
    assert _node_speed_on(config).passed
    node_speeds = tracker.node_speeds
    monkeypatch.setattr(tracker, "node_speeds", lambda *args: [
        (nodes, speeds * (1.0 + 1e-3)) for nodes, speeds in node_speeds(*args)
    ])
    result = _node_speed_on(config)
    assert not result.passed
    assert result.measured == pytest.approx(1e-3, rel=0.05)


def _nan_at_call(fn, call):
    """fn, but its result at call number `call` (from 0) has its first entry
    NaN; a tuple result has it in its first element."""
    calls = itertools.count()

    def wrapped(*args):
        result = fn(*args)
        if next(calls) == call:
            values = result[0] if isinstance(result, tuple) else result
            values = np.array(values, dtype=np.result_type(values, float))
            values.flat[0] = math.nan
            result = (values, *result[1:]) if isinstance(result, tuple) else values
        return result

    return wrapped


def test_residual_fails_on_a_nan_at_any_time(monkeypatch):
    # fig1's residual reads 0.0 at all 8 times; one NaN value at the third
    # time must make the measured value NaN, not be dropped by the max.
    monkeypatch.setattr(scenario, "pde_residual", _nan_at_call(scenario.pde_residual, 2))
    (result,) = scenario.check_residual(preset("fig1"), None, None, None)
    assert not result.passed and math.isnan(result.measured)


def test_generation_fails_on_a_nan_at_any_point(monkeypatch):
    monkeypatch.setattr(scenario, "generate_from_polynomial",
                        _nan_at_call(scenario.generate_from_polynomial, 4))
    line, ring = scenario.check_generation(preset("generation"), None, None, None)
    assert not line.passed and math.isnan(line.measured)
    assert ring.passed


def test_magnetic_locus_fails_on_a_nan_at_any_phase(monkeypatch):
    # With only the first frame tracked, check_locus extracts fig4's lines
    # at its other phases and a period on; nearest's first 8 calls are the
    # 8 phases.
    config = preset("fig4")
    t0 = config.time_range[0]
    frames = [tracker.extract(config.spec, config.consts, config.grid, t0)]
    monkeypatch.setattr(tracker, "nearest", _nan_at_call(tracker.nearest, 2))
    locus, periodicity = check_locus(config, frames, None, np.array([t0]))
    assert not locus.passed and math.isnan(locus.measured)
    assert periodicity.passed


def test_ring_locus_fails_on_a_nan_at_any_frame(monkeypatch):
    config = dataclasses.replace(preset("fig1"), n_frames=4, checks=("locus",))
    frames, _, times = _tracked(config)
    monkeypatch.setattr(scenario, "_off_circle", _nan_at_call(scenario._off_circle, 1))
    (result,) = check_locus(config, frames, None, times)
    assert "over 2 frames" in result.detail
    assert not result.passed and math.isnan(result.measured)


@pytest.mark.parametrize("call", [0, 1], ids=["before-to-after", "after-to-before"])
def test_periodicity_fails_on_a_nan_in_either_direction(monkeypatch, call):
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    monkeypatch.setattr(tracker, "nearest", _nan_at_call(tracker.nearest, call))
    result = _periodicity(a, a, 1.0, "")
    assert not result.passed and math.isnan(result.measured)


def test_node_speed_fails_on_a_nan_exact_speed(monkeypatch):
    # fig2's ring drifts at an exact speed; a NaN one must not be dropped
    # against the finite deviation from the line velocity.
    config = dataclasses.replace(preset("fig2"), checks=("node_speed",))
    monkeypatch.setattr(type(config.spec), "node_speed", lambda self, consts: math.nan)
    result = _node_speed_on(config)
    assert not result.passed and math.isnan(result.measured)


#: Runs fig1 (continuation), fig4 (locus and periodicity) and oracle_pair
#: (check_oracle) with every scipy import made to raise.
NO_SCIPY_RUN = textwrap.dedent("""
    import sys, tempfile
    sys.modules["scipy"] = None
    from vortexlines.presets import preset
    from vortexlines.scenario import run
    with tempfile.TemporaryDirectory() as out:
        for name in ("fig1", "fig4", "oracle_pair"):
            result = run(preset(name), f"{out}/{name}")
            failed = [c.name for c in result.checks if not c.passed]
            assert result.exit_status == 0 and result.checks and not failed, (name, failed)
    loaded = [m for m, module in sys.modules.items() if m.startswith("scipy") and module]
    assert not loaded, loaded
""")


#: Runs fig1 (the residual check) and generation (the generation check), then
#: lists the modules that numpy.random would have loaded.
NO_NUMPY_RANDOM_RUN = textwrap.dedent("""
    import sys, tempfile
    from vortexlines.presets import preset
    from vortexlines.scenario import run
    with tempfile.TemporaryDirectory() as out:
        for name in ("fig1", "generation"):
            assert run(preset(name), f"{out}/{name}").exit_status == 0, name
    loaded = [m for m in ("numpy.random", "secrets", "hashlib") if m in sys.modules]
    assert not loaded, loaded
""")


def _python_exits_cleanly(code):
    """Run code in a fresh interpreter that imports this vortexlines."""
    src = str(Path(vl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


def test_a_run_imports_no_scipy():
    _python_exits_cleanly(NO_SCIPY_RUN)


def test_a_run_imports_no_numpy_random():
    _python_exits_cleanly(NO_NUMPY_RANDOM_RUN)


#: The families the oracle check accepts with lines to track: two windowed
#: free carriers, the trap ring and the Gaussian line.
ORACLE_SPECS = st.one_of(
    st.builds(vl.WindowedRingCylinder, R=st.floats(0.5, 2.0), a=st.floats(0.3, 1.0),
              l=st.floats(0.5, 3.0)),
    st.builds(vl.WindowedTwoLinesSymmetric, a=st.floats(0.3, 1.5),
              varphi=st.floats(0.1, math.pi - 0.1), l=st.floats(0.5, 3.0)),
    st.builds(vl.TrapRing, omega=st.floats(0.5, 2.0), R=st.floats(0.5, 2.0)),
    st.builds(vl.GaussianLineVortex, l=st.floats(0.5, 3.0), x0=st.floats(-1.0, 1.0)),
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(spec=ORACLE_SPECS, dims=st.tuples(*[st.integers(6, 20)] * 3), side=st.floats(3.0, 30.0),
       offset=st.tuples(*[st.floats(-0.5, 0.5)] * 3), t0=st.floats(-1.0, 1.0),
       duration=st.floats(0.01, 1.0))
def test_oracle_runs_end_to_end_on_any_valid_config(spec, dims, side, offset, t0, duration):
    # Whatever the box, its resolution and the window, a config that
    # validate accepts runs to a verdict: summary.json is written, and the
    # status is 0 or 1, with no exception and no RuntimeWarning.
    spacing = side / (np.asarray(dims) - 1)
    grid = Grid3.centered(np.asarray(offset) * spacing, side, dims)
    config = tiny_config(spec=spec, grid=grid, time_range=(t0, t0 + duration), n_frames=2,
                         checks=("oracle",))
    assume(validate(config) == [])
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run(config, out)
        summary = json.loads((Path(out) / "summary.json").read_text())
    assert result.exit_status in (0, 1)
    assert summary["checks"][0]["name"] == "oracle"
