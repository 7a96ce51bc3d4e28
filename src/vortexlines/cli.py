"""Command-line entry point: run, list-presets, validate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import SpecValidationError, VortexLinesError
from .grids import Grid3
from .presets import list_presets, preset
from .scenario import ScenarioConfig, run, validate


def _add_config_source(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="path to a scenario config JSON file")
    parser.add_argument("--preset", help="name of a built-in scenario")


def _add_overrides(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--grid", type=int, metavar="N",
        help="override grid resolution to N^3, keeping the physical box",
    )
    parser.add_argument(
        "--frames", type=int, metavar="N", help="override the number of frames"
    )
    parser.add_argument(
        "--format", choices=("text", "table", "svg"), dest="output_format",
        help="artifact format: text (JSON/JSONL), table (adds CSV), svg (adds frame snapshots)",
    )
    parser.add_argument(
        "--seed", type=int,
        help="seed (>= 0) of Python's random.Random(seed), which draws the check sample points; "
        "they differ from those of earlier releases for the same seed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlines",
        description="Exact vortex-line solutions: scenario runner and verifier",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a scenario and its checks")
    _add_config_source(run_p)
    run_p.add_argument("--out", default="out", help="output directory")
    _add_overrides(run_p)

    sub.add_parser("list-presets", help="list built-in scenarios")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    _add_config_source(val_p)
    _add_overrides(val_p)
    return parser


def _load_config(args) -> ScenarioConfig:
    if bool(args.config) == bool(args.preset):
        raise SpecValidationError("provide exactly one of --config or --preset")
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecValidationError(f"cannot read config {args.config}: {exc}") from None
        config = ScenarioConfig.from_dict(data)
    else:
        config = preset(args.preset)
    return _apply_overrides(config, args)


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    changes = {}
    if args.grid is not None:
        if args.grid < 4:
            raise SpecValidationError("--grid must be at least 4")
        old = config.grid
        spacing = tuple(
            old.spacing[a] * (old.dims[a] - 1) / (args.grid - 1) for a in range(3)
        )
        changes["grid"] = Grid3(old.origin, spacing, (args.grid,) * 3)
    if args.frames is not None:
        changes["n_frames"] = args.frames
    if args.output_format is not None:
        changes["output_format"] = args.output_format
    if args.seed is not None:
        changes["seed"] = args.seed
    return dataclasses.replace(config, **changes) if changes else config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "list-presets":
            for name, description in list_presets():
                print(f"{name:18s} {description}")
            return 0
        config = _load_config(args)
        if args.verb == "validate":
            problems = validate(config)
            for problem in problems:
                print(problem)
            if not problems:
                print("ok")
            return 0 if not problems else 1
        result = run(config, args.out)
        for check in result.checks:
            status = "PASS" if check.passed else "FAIL"
            print(
                f"{status} {check.name}: measured {check.measured:.6g} "
                f"(tolerance {check.tolerance:.6g}) - {check.detail}"
            )
        for warning in result.event_log.warnings:
            print(f"warning: {warning}")
        for event in result.event_log.events:
            print(
                f"event: {event.kind} at t = {event.t:.15g} in "
                f"[{event.t_lo:.6g}, {event.t_hi:.6g}] "
                f"at {tuple(round(float(c), 4) for c in event.location)}"
            )
        print(f"artifacts: {', '.join(result.artifacts)}")
        return result.exit_status
    except VortexLinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
