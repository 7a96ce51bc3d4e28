import filecmp
import json
import math

import numpy as np
import pytest

import vortexlines as vl
from vortexlines.cli import main
from vortexlines.errors import SpecValidationError
from vortexlines.grids import Grid3
from vortexlines.presets import list_presets, preset
from vortexlines.scenario import ScenarioConfig, check_circulation, check_oracle, run, validate
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


def test_trap_oracle_step_count_follows_the_trap_period():
    # The harmonic oracle takes its Strang step count from the trap period,
    # so it passes, with the same error, whatever the frame count.  A count
    # of max(50, 10 * n_frames) steps fails at 2 and 4 frames (1.01e-5).
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


def test_circulation_fails_on_a_probe_left_at_its_seed():
    # A crossing whose refinement failed keeps its bilinear seed, off the
    # zero: the check reports that instead of raising.
    config = tiny_config(checks=("circulation",))
    seeds = VortexPolyline(np.array([[1.1, 0.0, 0.0], [1.1, 0.1, 0.0], [1.1, 0.2, 0.0]]),
                           closed=False, winding=1, frame_time=0.0)
    (result,) = check_circulation(config, [[seeds]], None, [0.0])
    assert not result.passed
    assert "not on a line" in result.detail
