"""vortexlines benchmark: time to a verified scenario, per workload.

Run from the repository root:

    python3 bench/run.py --workload events --seed 1 --seconds 10 --trace 0

The library is imported from ./src of the current directory.  A timed run
(--trace 0) repeats passes over the workload's scenarios through
`vortexlines.scenario.run` until --seconds have elapsed, checks every
scenario result against its recorded reference (gate.py), and prints the
end-to-end metrics.  A traced run (--trace 1) alternates traced and untraced
passes (traced, untraced, traced, ...), prints the per-layer metrics, the
tracing overhead and the baseline table, writes the spans to
.bench_out/<workload>/spans.jsonl, and fails if two traced passes disagree
on any work count.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status 0 means every
pass was correct.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import instrument
import workloads

#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    pass


def load_library(root: Path):
    """Import vortexlines from ./src of the checkout, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "vortexlines" / "__init__.py").is_file():
        raise SetupError(f"no vortexlines package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import vortexlines as vl

    if src not in Path(vl.__file__).resolve().parents:
        raise SetupError(f"imported vortexlines from {vl.__file__}, not from {src}")
    return vl


def setup(root: Path, workload: str, seed: int):
    """Import vortexlines, build the configs, load the references."""
    vl = load_library(root)
    configs = workloads.build(vl, workload, seed)
    refs = {name: gate.load(gate.REFERENCE_DIR / f"{name}.npz") for name, _ in configs}
    return vl, configs, refs


def measure_setup(root: Path, workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = perf_counter() - start
            _, err = probe.communicate(timeout=SETUP_TIMEOUT_S)
        if probe.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe failed ({probe.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def run_pass(vl, configs, out: Path, call):
    """One pass over the scenarios; returns (results, wall_s, per-scenario s)."""
    gc.collect()
    results, per_scenario = {}, {}
    start = perf_counter()
    for name, config in configs:
        t0 = perf_counter()
        try:
            results[name] = call(name, vl.scenario.run, config, out / name)
        except Exception as exc:  # a raising scenario is a failed run, not a crash
            traceback.print_exc(file=sys.stderr)
            results[name] = exc
        per_scenario[name] = perf_counter() - t0
    return results, perf_counter() - start, per_scenario


def untraced_call(name, fn, *args):
    return fn(*args)


def verify(results, configs, refs) -> list[str]:
    """One message per failed scenario run: raised, failed a check, or its
    artifacts differ from the reference."""
    failures = []
    for name, config in configs:
        result = results[name]
        if isinstance(result, Exception):
            failures.append(f"{name}: raised {result!r}")
            continue
        problems = [
            f"check {c.name} failed: {c.measured!r} vs {c.tolerance!r}"
            for c in result.checks if not c.passed
        ]
        problems += [f"missing artifact {p}" for p in result.artifacts if not Path(p).is_file()]
        problems += gate.compare(gate.digest(result, config), refs[name])
        if problems:
            failures.append(f"{name}: " + "; ".join(problems))
    return failures


def environment(configs) -> dict:
    """Software, hardware and threading context of the measurement."""
    import scipy

    cpu = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for row in lscpu.splitlines():
            key, _, value = row.partition(":")
            if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
                cpu[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError) as exc:
        cpu["error"] = repr(exc)
    grids = {}
    for _, config in configs:
        dims = config.grid.dims
        grids["x".join(map(str, dims))] = round(16 * int(np.prod(dims)) / 1e6, 2)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "os_threads": len(os.listdir("/proc/self/task")),
        "complex128_array_mb": grids,
    }


def percentile_summary(latencies_s: list[float]) -> dict:
    ms = np.asarray(latencies_s) * 1e3
    p50, p90 = np.percentile(ms, 50), np.percentile(ms, 90)
    return {"frames": int(ms.size), "p50": float(p50), "p90": float(p90),
            "beyond_p90": int(np.count_nonzero(ms > p90))}


def timed_run(vl, configs, refs, seconds, out):
    clock = instrument.FrameClock(vl)
    walls, failures, attempted = [], [], 0
    start = perf_counter()
    try:
        while True:
            results, wall, _ = run_pass(vl, configs, out, untraced_call)
            walls.append(wall)
            attempted += len(configs)
            failures += verify(results, configs, refs)
            if perf_counter() - start >= seconds:
                break
    finally:
        clock.close()
    frames = percentile_summary(clock.latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "frame_ms_p50": (frames["p50"], "ms"),
        "frame_ms_p90": (frames["p90"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    report = [
        f"wall_s: median of {len(walls)} passes {[round(w, 3) for w in walls]}",
        f"frame_ms_p50/p90: {frames['frames']} frames, {frames['beyond_p90']} beyond p90",
        f"fail_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:g}",
    ]
    details = {"passes_s": walls, "frames": frames}
    return metrics, attempted, failures, [], report, details


def traced_run(vl, configs, refs, seconds, out):
    """Untraced and traced passes in turn, untraced first, until --seconds
    have elapsed and at least two of each have run.  The first pass of a
    process runs cold, so it is an untraced one and takes no part in the
    overhead: the median over later pairs of traced minus the untraced pass
    just before it, so that slow drifts of machine speed cancel."""
    tracer = instrument.Tracer()
    traced, untraced_walls, untraced_scenarios = [], [], []
    failures, attempted = [], 0
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        results, wall, per_scenario = run_pass(vl, configs, out, untraced_call)
        untraced_walls.append(wall)
        untraced_scenarios.append(per_scenario)
        attempted += len(configs)
        failures += verify(results, configs, refs)

        first = len(tracer.spans)
        tracer.install(vl)
        try:
            results, wall, _ = run_pass(
                vl, configs, out,
                lambda name, fn, *args: tracer.call("scenario.run", name, fn, *args),
            )
        finally:
            tracer.uninstall()
        traced.append((instrument.PassSpans(tracer.spans, first), wall))
        attempted += len(configs)
        failures += verify(results, configs, refs)

    per_pass = [instrument.layer_metrics(p) for p, _ in traced]
    errors, metrics = [], {}
    for name, unit in instrument.PER_LAYER[:-1]:
        values = [m[name] for m in per_pass]
        if unit not in instrument.COUNT_UNITS:
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) != 1:
            errors.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (values[0], unit)
    overhead = statistics.median(
        t - u for (_, t), u in zip(traced[1:], untraced_walls[1:])
    )
    metrics["trace.overhead_s"] = (overhead, "s")

    scenario_s = {
        name: statistics.median(p[name] for p in untraced_scenarios[1:]) for name, _ in configs
    }
    table = instrument.baseline_table(traced[0][0], scenario_s)
    instrument.write_spans(out / "spans.jsonl", tracer.spans)
    report = [
        f"traced passes {[round(w, 3) for _, w in traced]} s, "
        f"untraced {[round(w, 3) for w in untraced_walls]} s, "
        f"overhead (median traced - untraced over warm pairs) {overhead:+.3f} s",
        *instrument.format_table(table),
    ]
    details = {"traced_s": [w for _, w in traced], "untraced_s": untraced_walls,
               "baseline": table}
    return metrics, attempted, failures, errors, report, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()

    try:
        if args.setup_probe:
            setup(root, args.workload, args.seed)
            print("ready", flush=True)
            return 0
        vl, configs, refs = setup(root, args.workload, args.seed)
        gate.selftest(refs)
        setup_times = [] if args.trace else measure_setup(root, args.workload, args.seed)
    except (SetupError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    out = root / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = environment(configs)
    run = traced_run if args.trace else timed_run
    metrics, attempted, failures, errors, report, details = run(
        vl, configs, refs, args.seconds, out)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
        report.insert(0, f"setup_s: median of {[round(t, 3) for t in setup_times]}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in report:
        print(line)
    for failure in failures + errors:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(out / f"result_trace{args.trace}.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "env": env,
                   "failures": failures + errors, "details": details},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
