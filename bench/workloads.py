"""The benchmark's workloads: named lists of scenario configs.

Every workload is a list of (scenario id, ScenarioConfig) pairs run through
`vortexlines.scenario.run`.  The seed only reaches `ScenarioConfig.seed`,
which picks the random sample points of the `residual` check; grids, time
windows and frame counts are fixed, so every seed yields the same polylines
and events and one recorded reference per scenario serves all seeds.
See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses

WORKLOADS = {
    "events": ("fig1", "pair_annihilation", "fig3"),
    "confined": ("fig4", "fig5", "oracle_trap"),
    "oracle": ("oracle_ring", "oracle_pair"),
}

#: Same grid offset the presets use, so no lattice node sits on a zero line.
_OFFSET = (0.013, 0.011, 0.017)


def _oracle_trap(vl):
    """TrapRing on a periodic 72^3 box of side 18, checked against the
    harmonic split-step propagator.

    8 frames, because `check_oracle` takes max(50, 10 * n_frames) Strang
    steps: with the default 4 frames the 50 steps leave an L2 error of
    1.01e-5 against the 1e-5 tolerance; 80 steps give 3.9e-6.
    """
    length, n = 18.0, 72
    grid = vl.Grid3(
        tuple(-0.5 * length + o for o in _OFFSET), (length / n,) * 3, (n,) * 3
    )
    return vl.ScenarioConfig(
        spec=vl.TrapRing(omega=1.0, R=1.0),
        consts=vl.NATURAL_UNITS,
        grid=grid,
        time_range=(0.0, 0.5),
        n_frames=8,
        checks=("residual", "oracle"),
    )


def scenario_config(vl, name: str, seed: int):
    """The config of one benchmark scenario, with the run's seed."""
    if name == "oracle_trap":
        config = _oracle_trap(vl)
    else:
        config = vl.preset(name)
    if name == "fig3":
        # The one write-heavy use of serialization: one SVG per frame.
        config = dataclasses.replace(config, output_format="svg")
    return dataclasses.replace(config, seed=seed)


def build(vl, workload: str, seed: int):
    """[(scenario id, ScenarioConfig)] for a workload."""
    return [(name, scenario_config(vl, name, seed)) for name in WORKLOADS[workload]]
