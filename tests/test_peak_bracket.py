"""Detection on a field sampled on its zero box, with its peak |psi| only
bracketed, equals detection of the same box given its exact peak.

`grids.sample` gives the box's values, a bound of |psi| on every node
outside the box, and a search for the exact peak.  The peak lies between
the box's max |psi|, lo, and the larger of lo and the bound, hi:
`tracker.detect_pierced_faces` codes the box at the floor of hi, and runs
the search only where a node's |psi| lies between the floors of lo and hi.
The pierced faces, their corners and the ambiguous and noise counts must be
the same bytes as with the exact floor, and the search must run exactly
where such a node exists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexlines as vl
from vortexlines.catalog import Snapshot
from vortexlines.grids import Grid3, SampledField, sample
from vortexlines.tracker import NOISE_FLOOR, detect_pierced_faces, track

PRESETS = [name for name, _ in vl.list_presets()]


def _detected(field):
    det = detect_pierced_faces(field)
    return det.pierced.tobytes(), det.corners.tobytes(), det.ambiguous_count, det.noise_count


@st.composite
def bracketed_boxes(draw):
    """(grid, box, values, bound, peak): a box of iid values, part of it
    scaled to |psi| below, inside and above the band between the floors of
    lo and of the bound, with nodes exactly at those floors and at the
    peak's in some; an all-zero box; and an empty box.  The peak is drawn
    in [lo, max(lo, bound)], at either end or between."""
    shape = draw(st.tuples(*[st.integers(4, 8)] * 3))
    kind = draw(st.sampled_from(["band"] * 6 + ["zero", "empty"]))
    if kind == "empty":
        shape = (0,) + shape[1:]
    start = draw(st.tuples(*[st.integers(0, 3)] * 3))
    dims = tuple(max(n + s + 2, 4) for n, s in zip(shape, start))
    grid = Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), dims)
    box = tuple(slice(s, s + n) for s, n in zip(start, shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "band":
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lo = np.abs(values).max()
        ratio = draw(st.sampled_from([0.05, 0.5, 1.0, 2.0, 12.5]))
        # Scaled: the nodes off a box against a wall of each axis.
        kept = np.ones(shape, dtype=bool)
        for a, n in enumerate(shape):
            cut = draw(st.integers(0, n - 1))
            kept &= np.expand_dims(np.arange(n) >= cut, tuple(b for b in range(3) if b != a))
        # Decades around the band, [1, ratio) times the floor of lo, or all
        # of them below or above it.
        low, high = draw(st.sampled_from([(-1.0, 2.0), (-3.0, -1.0), (2.0, 3.0)]))
        scale = NOISE_FLOOR * lo * 10.0 ** rng.uniform(low, high, shape)
        values = np.where(kept, values, values / np.abs(values) * scale)
        bound = lo * ratio
        peak = lo + draw(st.sampled_from([0.0, 0.5, 1.0])) * (max(lo, bound) - lo)
        for level in (lo, bound, peak):
            at = tuple(draw(st.integers(0, n - 1)) for n in shape)
            # Not at the box's max, which would move lo.
            if draw(st.booleans()) and np.abs(values[at]) < lo:
                values[at] = NOISE_FLOOR * level * draw(st.sampled_from([1.0, -1.0, 1j]))
    else:
        values = np.zeros(shape, dtype=complex)
        bound = draw(st.sampled_from([0.0, 1.0]))
        peak = bound * draw(st.sampled_from([0.0, 0.5, 1.0]))
    return grid, box, values, bound, peak


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=bracketed_boxes())
def test_bracketed_detection_equals_detection_at_the_exact_peak(case):
    grid, box, values, bound, peak = case
    lo = np.abs(values).max(initial=0.0)
    calls = []

    def search(low):
        calls.append(low)
        return peak

    bracketed = SampledField(grid, values, 0.0, box=box, bound=bound, search=search)
    exact = SampledField(grid, values, 0.0, box=box, peak=peak)
    assert _detected(bracketed) == _detected(exact)
    # The search runs, once, from the box's max, exactly where a node lies
    # in the band between the two floors.
    floors = sorted((NOISE_FLOOR * lo, NOISE_FLOOR * bound))
    amps = np.abs(values)
    assert calls == [lo] * bool(np.any((amps >= floors[0]) & (amps < floors[1])))


def _frames(name):
    """The spec, consts, grid and frame times that `track` samples for a
    preset."""
    config = vl.preset(name)
    t0, t1 = config.time_range
    return config, np.linspace(t0, t1, config.n_frames + 1)


@pytest.mark.parametrize("name", PRESETS)
def test_tracked_frames_detect_as_at_the_exact_peak(name):
    config, times = _frames(name)
    for t in times:
        field = sample(config.spec, config.consts, config.grid, float(t))
        found = _detected(field)
        peak = field.search(np.abs(field.values).max(initial=0.0))
        exact = SampledField(config.grid, field.values, float(t), box=field.box, peak=peak)
        assert found == _detected(exact), t


def test_tracked_frames_search_for_the_peak_only_where_the_band_holds_a_node(monkeypatch):
    # On the free (fig1, pair_annihilation, fig3), magnetic (fig4) and trap
    # (fig5) presets no box node lies in the band on any frame; on
    # oracle_pair, whose Gaussian window takes box nodes down to the noise
    # floor, some do.
    calls = []
    search = Snapshot._search_peak

    def counted(self, *args):
        calls.append(True)
        return search(self, *args)

    monkeypatch.setattr(Snapshot, "_search_peak", counted)
    for name in ("fig1", "pair_annihilation", "fig3", "fig4", "fig5", "oracle_pair"):
        calls.clear()
        config, times = _frames(name)
        frames, _ = track(config.spec, config.consts, config.grid, times[0], times[-1],
                          config.n_frames)
        assert len(frames) == len(times)
        assert (len(calls) > 0) == (name == "oracle_pair"), name
