"""Instrumentation applied from outside the library.

Both instruments rebind public names: a function is replaced by a wrapper
under every name it is bound to in every loaded `vortexlines` module (so
`grids.sample`, `tracker.sample` and `scenario.sample` are all wrapped), and
restored afterwards.  The library's source is not touched.

* FrameClock (timed runs): two timestamps per frame.  A frame runs from the
  start of the `grids.sample` call that produced a field to the end of the
  `tracker.extract_lines` call on that field; a numeric field (one that no
  `sample` call produced, e.g. an evolved oracle field) is timed from
  `extract_lines` alone.
* Tracer (traced runs): a span per call into each layer's public functions,
  with name, start, end, parent span, scenario id and the call's work counts.
  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import weakref
from time import perf_counter

import numpy as np


def _library_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "vortexlines" or name.startswith("vortexlines."))
    ]


class Rebinder:
    """Replace functions under all their names in the library, then restore."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def replace_item(self, mapping: dict, key, wrapper):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class FrameClock:
    """Per-frame latency from two timestamps per frame (see module doc)."""

    def __init__(self, vl):
        self.latencies: list[float] = []
        self._last = None  # (weak reference to the last sampled field, its start)
        self._rebinder = Rebinder()
        sample, extract_lines = vl.grids.sample, vl.tracker.extract_lines

        def timed_sample(*args, **kwargs):
            start = perf_counter()
            field = sample(*args, **kwargs)
            self._last = (weakref.ref(field), start)
            return field

        def timed_extract_lines(*args, **kwargs):
            start = perf_counter()
            lines = extract_lines(*args, **kwargs)
            end = perf_counter()
            field = _arg(args, kwargs, 0, "field")
            if self._last is not None and self._last[0]() is field:
                start = self._last[1]
                self._last = None
            self.latencies.append(end - start)
            return lines

        self._rebinder.replace(sample, timed_sample)
        self._rebinder.replace(extract_lines, timed_extract_lines)

    def close(self):
        self._rebinder.restore()


# --------------------------------------------------------------------------
# tracing

# Span record fields.
NAME, START, END, PARENT, SCENARIO, COUNTS = range(6)

ANATOMY_FUNCTIONS = ("circulation_from_velocity", "winding_number", "w_vector")
ANATOMY = tuple(f"anatomy.{name}" for name in ANATOMY_FUNCTIONS)
#: Serialization writers and the position of their `path` argument.
WRITERS = {
    "write_polylines_jsonl": 0, "write_polylines_csv": 0, "write_events": 0,
    "dump_json": 1, "svg_snapshot": 3,
}
SERIALIZATION = tuple(f"serialization.{name}" for name in WRITERS)
CHECKS = ("residual", "circulation", "locus", "events", "oracle")

#: Model of the bytes `evolve` moves per grid point and step: every FFT and
#: every elementwise product reads and writes one complex128 array.
#: Free steps make 3 such passes (fftn, kinetic phase, ifftn); harmonic
#: steps 2 more (the half potential steps).
_EVOLVE_PASSES = {"free": 3, "harmonic": 5}


def _faces(dims) -> int:
    """Faces `detect_pierced_faces` examines: per normal axis a, a face per
    node along a and per cell edge along the two other axes."""
    return sum(
        dims[a] * (dims[(a + 1) % 3] - 1) * (dims[(a + 2) % 3] - 1) for a in range(3)
    )


def _grid_label(grid) -> str:
    return "x".join(str(d) for d in grid.dims)


class Tracer:
    """Spans around calls into each layer's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.scenario = None
        self._stack: list[int] = []
        self._rebinder = None

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario, None]
            spans.append(record)
            stack.append(index)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if count is not None:
                record[COUNTS] = count(args, kwargs, result, index)
            return result

        return traced

    def call(self, name, scenario_id, fn, *args):
        """Run fn(*args) as a top-level span of one scenario."""
        self.scenario = scenario_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.scenario = None

    def _child_counts(self, index, name):
        for record in self.spans[index + 1:]:
            if record[PARENT] == index and record[NAME] == name:
                return record[COUNTS]
        return None

    def install(self, vl):
        """Wrap every traced function of the library."""
        rebind = self._rebinder = Rebinder()

        def on(fn, name, count=None):
            rebind.replace(fn, self.wrap(name, fn, count))

        def points(args, kwargs, result, index):
            return {"points": int(np.prod(np.shape(_arg(args, kwargs, 2, "r"))[:-1]))}

        def sampled(args, kwargs, result, index):
            return {"points": int(result.values.size), "grid": _grid_label(result.grid)}

        def detected(args, kwargs, result, index):
            grid = _arg(args, kwargs, 0, "field").grid
            return {
                "faces": _faces(grid.dims), "pierced": len(result.pierced),
                "ambiguous": result.ambiguous_count, "noise": result.noise_count,
                "grid": _grid_label(grid),
            }

        def extracted(args, kwargs, result, index):
            detection = args[1] if len(args) > 1 else kwargs.get("detection")
            if detection is None:
                pierced = (self._child_counts(index, "tracker.detect") or {}).get("pierced", 0)
            else:
                pierced = len(detection.pierced)
            return {
                "pierced_in": pierced, "lines_out": len(result),
                "points_out": sum(len(line.points) for line in result),
                "grid": _grid_label(_arg(args, kwargs, 0, "field").grid),
            }

        def matched(args, kwargs, result, index):
            return {"pairs": len(result)}

        def evolved(args, kwargs, result, index):
            config = _arg(args, kwargs, 1, "config")
            n = int(_arg(args, kwargs, 0, "initial").values.size)
            per_step = _EVOLVE_PASSES[config.hamiltonian] * 2 * 16 * n
            return {"steps": config.steps, "points": n, "bytes": config.steps * per_step}

        def written(position):
            def count(args, kwargs, result, index):
                return {"bytes": os.path.getsize(_arg(args, kwargs, position, "path"))}
            return count

        on(vl.grids.sample, "grids.sample", sampled)
        on(vl.catalog.amplitude, "catalog.amplitude", points)
        on(vl.catalog.gradient, "catalog.gradient", points)
        on(vl.catalog.pde_residual, "catalog.pde_residual", points)
        on(vl.tracker.detect_pierced_faces, "tracker.detect", detected)
        on(vl.tracker.extract_lines, "tracker.extract_lines", extracted)
        on(vl.tracker.match_polylines, "tracker.match", matched)
        on(vl.tracker.track, "tracker.track")
        on(vl.tracker.extract, "tracker.extract")
        on(vl.propagator.evolve, "propagator.evolve", evolved)
        on(vl.propagator.l2_relative_error, "propagator.l2_relative_error")
        for name in ANATOMY_FUNCTIONS:
            on(getattr(vl.anatomy, name), f"anatomy.{name}")
        for name, position in WRITERS.items():
            on(getattr(vl.serialization, name), f"serialization.{name}", written(position))

        # Refinement is timed through the closure analytic_refiner returns.
        analytic_refiner = vl.tracker.analytic_refiner

        def traced_refiner(*args, **kwargs):
            return self.wrap(
                "tracker.refine", analytic_refiner(*args, **kwargs),
                lambda a, k, result, index: {"points": len(a[0])},
            )

        rebind.replace(analytic_refiner, traced_refiner)
        registry = vl.scenario.CHECK_REGISTRY
        for name in list(registry):
            rebind.replace_item(registry, name, self.wrap(f"scenario.check.{name}", registry[name]))

    def uninstall(self):
        self._rebinder.restore()


class PassSpans:
    """Durations, self times and nesting of the spans of one pass."""

    def __init__(self, spans, first: int):
        self.spans = spans
        self.first = first
        self.records = spans[first:]
        self.duration = [r[END] - r[START] for r in self.records]
        children = [0.0] * len(self.records)
        for r, d in zip(self.records, self.duration):
            if r[PARENT] >= first:
                children[r[PARENT] - first] += d
        self.self_time = [d - c for d, c in zip(self.duration, children)]

    def _outermost(self, i, names) -> bool:
        parent = self.records[i][PARENT]
        while parent >= self.first:
            if self.spans[parent][NAME] in names:
                return False
            parent = self.spans[parent][PARENT]
        return True

    def select(self, names):
        """Indices of spans named in `names` not nested in another of them."""
        if isinstance(names, str):
            names = (names,)
        return [
            i for i, r in enumerate(self.records)
            if r[NAME] in names and self._outermost(i, names)
        ]

    def busy(self, names) -> float:
        return sum(self.duration[i] for i in self.select(names))

    def self_s(self, name) -> float:
        return sum(t for r, t in zip(self.records, self.self_time) if r[NAME] == name)

    def calls(self, names) -> int:
        return len(self.select(names))

    def total(self, names, key) -> int:
        return sum(self.records[i][COUNTS][key] for i in self.select(names))


#: Per-layer metrics of a traced run, with units.  Counts (unit count or B)
#: must repeat exactly between traced passes.
PER_LAYER = [
    ("grids.sample.busy_s", "s"), ("grids.sample.calls", "count"),
    ("grids.sample.points", "count"), ("grids.sample.ns_per_point", "ns"),
    ("catalog.amplitude.busy_s", "s"), ("catalog.amplitude.points", "count"),
    ("catalog.gradient.busy_s", "s"), ("catalog.gradient.points", "count"),
    ("catalog.pde_residual.busy_s", "s"),
    ("tracker.detect.busy_s", "s"), ("tracker.detect.calls", "count"),
    ("tracker.detect.faces", "count"), ("tracker.detect.pierced", "count"),
    ("tracker.detect.ambiguous", "count"), ("tracker.detect.noise", "count"),
    ("tracker.detect.ns_per_face", "ns"),
    ("tracker.extract_lines.self_s", "s"), ("tracker.extract_lines.pierced_in", "count"),
    ("tracker.extract_lines.lines_out", "count"),
    ("tracker.extract_lines.points_out", "count"),
    ("tracker.refine.busy_s", "s"), ("tracker.refine.calls", "count"),
    ("tracker.refine.points", "count"),
    ("tracker.match.busy_s", "s"), ("tracker.match.pairs", "count"),
    ("tracker.track.self_s", "s"),
    ("tracker.extract.calls", "count"), ("tracker.extract.busy_s", "s"),
    ("propagator.evolve.busy_s", "s"), ("propagator.evolve.steps", "count"),
    ("propagator.evolve.points", "count"), ("propagator.evolve.ns_per_point_step", "ns"),
    ("propagator.evolve.bytes_computed", "B"),
    ("propagator.l2_relative_error.busy_s", "s"),
    ("anatomy.busy_s", "s"), ("anatomy.calls", "count"),
    *[(f"scenario.check.{name}.self_s", "s") for name in CHECKS],
    ("serialization.busy_s", "s"), ("serialization.bytes", "B"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]
COUNT_UNITS = ("count", "B")


def _per(numerator_s: float, work: int) -> float:
    return 1e9 * numerator_s / work if work else 0.0


def layer_metrics(p: PassSpans) -> dict:
    """Every PER_LAYER metric of one traced pass except trace.overhead_s,
    which compares passes and is added by the caller."""
    m = {}
    for layer in ("grids.sample", "catalog.amplitude", "catalog.gradient",
                  "catalog.pde_residual", "tracker.detect", "tracker.refine",
                  "tracker.match", "tracker.extract", "propagator.evolve",
                  "propagator.l2_relative_error"):
        m[f"{layer}.busy_s"] = p.busy(layer)
    for layer in ("grids.sample", "tracker.detect", "tracker.refine", "tracker.extract"):
        m[f"{layer}.calls"] = p.calls(layer)
    for layer in ("grids.sample", "catalog.amplitude", "catalog.gradient",
                  "tracker.refine", "propagator.evolve"):
        m[f"{layer}.points"] = p.total(layer, "points")
    m["grids.sample.ns_per_point"] = _per(m["grids.sample.busy_s"], m["grids.sample.points"])
    for key in ("faces", "pierced", "ambiguous", "noise"):
        m[f"tracker.detect.{key}"] = p.total("tracker.detect", key)
    m["tracker.detect.ns_per_face"] = _per(m["tracker.detect.busy_s"], m["tracker.detect.faces"])
    m["tracker.extract_lines.self_s"] = p.self_s("tracker.extract_lines")
    for key in ("pierced_in", "lines_out", "points_out"):
        m[f"tracker.extract_lines.{key}"] = p.total("tracker.extract_lines", key)
    m["tracker.match.pairs"] = p.total("tracker.match", "pairs")
    m["tracker.track.self_s"] = p.self_s("tracker.track")
    m["propagator.evolve.steps"] = p.total("propagator.evolve", "steps")
    m["propagator.evolve.bytes_computed"] = p.total("propagator.evolve", "bytes")
    evolve_work = sum(
        p.records[i][COUNTS]["steps"] * p.records[i][COUNTS]["points"]
        for i in p.select("propagator.evolve")
    )
    m["propagator.evolve.ns_per_point_step"] = _per(m["propagator.evolve.busy_s"], evolve_work)
    m["anatomy.busy_s"] = p.busy(ANATOMY)
    m["anatomy.calls"] = sum(p.calls(name) for name in ANATOMY)
    for name in CHECKS:
        m[f"scenario.check.{name}.self_s"] = p.self_s(f"scenario.check.{name}")
    m["serialization.busy_s"] = p.busy(SERIALIZATION)
    m["serialization.bytes"] = p.total(SERIALIZATION, "bytes")
    m["trace.spans"] = len(p.records)
    return {name: m[name] for name, _ in PER_LAYER[:-1]}


def baseline_table(traced: PassSpans, untraced_scenario_s: dict) -> dict:
    """ROADMAP's baseline layout: per-scenario times and per-frame layer
    costs by grid size, plus every span name's calls, busy and self time."""
    def per_grid(name, cost):
        groups: dict[str, list[float]] = {}
        for i in traced.select(name):
            groups.setdefault(traced.records[i][COUNTS]["grid"], []).append(cost(i))
        return {g: {"frames": len(v), "median_ms": 1e3 * statistics.median(v)}
                for g, v in sorted(groups.items())}

    inner_detect: dict[int, float] = {}
    for r, d in zip(traced.records, traced.duration):
        if r[NAME] == "tracker.detect" and r[PARENT] >= traced.first:
            inner_detect[r[PARENT] - traced.first] = d

    def seed_refine_chain(i):
        """extract_lines minus the detection it ran itself."""
        return traced.duration[i] - inner_detect.get(i, 0.0)

    scenarios = {}
    for i in traced.select("scenario.run"):
        sid = traced.records[i][SCENARIO]
        evolve = sum(
            traced.duration[j] for j in traced.select("propagator.evolve")
            if traced.records[j][SCENARIO] == sid
        )
        scenarios[sid] = {
            "untraced_s": untraced_scenario_s.get(sid),
            "traced_s": traced.duration[i],
            "evolve_s": evolve,
        }
    layers: dict[str, dict] = {}
    for r, self_time in zip(traced.records, traced.self_time):
        row = layers.setdefault(r[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_time
    for name, row in layers.items():
        row["busy_s"] = traced.busy(name)
    return {
        "scenarios": scenarios,
        "per_frame": {
            "sample": per_grid("grids.sample", lambda i: traced.duration[i]),
            "detect": per_grid("tracker.detect", lambda i: traced.duration[i]),
            "seed_refine_chain": per_grid("tracker.extract_lines", seed_refine_chain),
        },
        "layers": dict(sorted(layers.items())),
    }


def format_table(table: dict) -> list[str]:
    lines = ["scenario                 untraced_s  traced_s  evolve_s"]
    for sid, row in table["scenarios"].items():
        untraced = row["untraced_s"]
        lines.append(
            f"{sid:<24} {untraced if untraced is not None else float('nan'):>10.3f}"
            f" {row['traced_s']:>9.3f} {row['evolve_s']:>9.3f}"
        )
    lines.append("per-frame layer (median ms, frames)")
    for layer, groups in table["per_frame"].items():
        cells = "  ".join(
            f"{g}: {v['median_ms']:.2f} ms ({v['frames']})" for g, v in groups.items()
        )
        lines.append(f"  {layer:<18} {cells}")
    lines.append("span                                     calls     busy_s     self_s")
    for name, row in table["layers"].items():
        lines.append(
            f"  {name:<38} {row['calls']:>6} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    return lines


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for index, r in enumerate(spans):
            fh.write(json.dumps({
                "id": index, "name": r[NAME], "start": r[START], "end": r[END],
                "parent": r[PARENT], "scenario": r[SCENARIO], "counts": r[COUNTS],
            }, sort_keys=True))
            fh.write("\n")
