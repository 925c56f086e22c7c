"""Property tests for the E27 telemetry merge/delta layer.

Two invariants carry the whole telemetry plane:

* **merge exactness** — merging per-daemon histogram shards (same bounds)
  is indistinguishable from observing the whole population into one
  histogram, so cluster p50/p95/p99 are exact, not approximations;
* **delta fidelity** — replaying any sequence of sparse-absolute deltas
  reconstructs the publisher's latest snapshot, including counter resets
  (absolute values simply overwrite) and the wire codec round-trips.

All suites run with ``derandomize=True`` so CI is reproducible.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.obs import Histogram
from repro.obs.cluster import (
    MergeError,
    ScopeSnapshot,
    decode_scopes,
    encode_scope,
    merge_histograms,
)
from repro.obs.cluster.merge import MODE_DELTA, MODE_FULL, MODE_SAME

BOUNDS = (0.001, 0.005, 0.025, 0.1, 0.5)

values = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
shards = st.lists(st.lists(values, max_size=40), min_size=1, max_size=6)
#: (value, trace id or "" for an untraced observation)
traced_values = st.tuples(values, st.sampled_from(["", "", "t1", "t2", "a:b"]))


def _observed(observations):
    """A live instrument fed ``(value, trace)`` pairs; untraced-only
    inputs leave it with no exemplars at all (``exemplars is None``)."""
    live = Histogram(bounds=BOUNDS)
    for value, trace in observations:
        if trace:
            live.observe_ex(value, trace)
        else:
            live.observe(value)
    return live


# ---------------------------------------------------------------------------
# Merge exactness
# ---------------------------------------------------------------------------
@given(shards)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_merged_shards_equal_whole_population(shards):
    whole = Histogram(bounds=BOUNDS)
    frozen = []
    for shard in shards:
        live = Histogram(bounds=BOUNDS)
        for v in shard:
            live.observe(v)
            whole.observe(v)
        frozen.append(live.copy())

    merged = merge_histograms(frozen)
    assert merged is not None
    assert merged.counts == list(whole.counts)
    assert abs(merged.total - whole.total) < 1e-9
    assert merged.count == whole.count
    if whole.count:
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
    for q in (0.5, 0.95, 0.99):
        assert merged.percentile(q) == whole.percentile(q)


@given(shards)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_merge_is_order_independent(shards):
    frozen = []
    for shard in shards:
        live = Histogram(bounds=BOUNDS)
        for v in shard:
            live.observe(v)
        frozen.append(live.copy())
    forward = merge_histograms(frozen)
    backward = merge_histograms(list(reversed(frozen)))
    # Counts are exact; totals agree up to float-summation order.
    assert forward.counts == backward.counts
    assert abs(forward.total - backward.total) <= 1e-9 * max(1.0, abs(forward.total))
    assert forward.minimum == backward.minimum
    assert forward.maximum == backward.maximum


@given(st.lists(st.lists(traced_values, max_size=20), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_merge_keeps_latest_exemplar_per_bucket(shards):
    merged = merge_histograms(_observed(shard) for shard in shards)
    expected = {}
    for shard in shards:
        live = _observed(shard)
        expected.update(live.exemplars or {})
    assert (merged.exemplars or {}) == expected
    assert merged.count == sum(merged.counts) == sum(len(s) for s in shards)


def test_merge_rejects_mismatched_bounds():
    a = Histogram((0.1, 1.0))
    b = Histogram((0.1, 2.0))
    with pytest.raises(MergeError):
        a.merge(b)
    with pytest.raises(MergeError):
        a.subtract_base(b)


def test_codec_fields_rebuild_an_instrument():
    h = Histogram((0.1, 1.0), [2, 0, 1], 2.5, 0.01, 2.3)
    assert h.count == 3
    assert h.exemplars is None
    assert h == Histogram((0.1, 1.0), [2, 0, 1], 2.5, 0.01, 2.3, {})
    assert h.percentile(0.5) == 0.1 and h.percentile(1.0) == 2.3
    with pytest.raises(MergeError):
        Histogram((0.1, 1.0), [1, 2])


def test_merge_keeps_slowest_exemplar():
    slow = Histogram(bounds=BOUNDS)
    slow.observe_ex(0.4, "t-slow")
    fast = Histogram(bounds=BOUNDS)
    fast.observe_ex(0.002, "t-fast")
    merged = merge_histograms([fast.copy(), slow.copy()])
    trace, value = merged.slowest_exemplar()
    assert trace == "t-slow" and value == 0.4


# ---------------------------------------------------------------------------
# Delta fidelity (including counter resets)
# ---------------------------------------------------------------------------
names = st.from_regex(r"[a-z]{1,5}", fullmatch=True)
counter_maps = st.dictionaries(names, st.integers(0, 10**6), max_size=5)
gauge_maps = st.dictionaries(names, st.integers(-100, 100).map(float), max_size=4)


def _snapshot(counters, gauges, observations):
    live = Histogram(bounds=BOUNDS)
    for v in observations:
        live.observe(v)
    return ScopeSnapshot(
        "svc", "host:1", 0, counters, gauges,
        {"lat": live} if observations else {},
    )


@given(st.lists(st.tuples(counter_maps, gauge_maps, st.lists(values, max_size=10)),
                min_size=1, max_size=8))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_delta_stream_reconstructs_latest(states):
    """Replay diffs between arbitrary successive states — including ones
    where counters go *down* (a reset) — onto an aggregator-side copy;
    the copy always equals the publisher's latest snapshot."""
    # Registries never delete instruments: carry unmentioned ones forward.
    snaps = []
    carry_c, carry_g = {}, {}
    for c, g, obs in states:
        carry_c = {**carry_c, **c}
        carry_g = {**carry_g, **g}
        snaps.append(_snapshot(carry_c, carry_g, obs))
    tracked = snaps[0].copy()
    for prev, curr in zip(snaps, snaps[1:]):
        delta = curr.diff(prev)
        if delta is None:
            assert curr.counters == prev.counters
            assert curr.gauges == prev.gauges
            continue
        tracked.apply(delta)
    latest = snaps[-1]
    # Sparse deltas never delete instruments, so compare on the union of
    # keys the stream ever set: every key present in the latest snapshot
    # must read back exactly.
    for name, value in latest.counters.items():
        assert tracked.counters[name] == value
    for name, value in latest.gauges.items():
        assert tracked.gauges[name] == value
    for name, hist in latest.histograms.items():
        assert tracked.histograms[name] == hist


@given(counter_maps, gauge_maps, st.lists(values, min_size=1, max_size=20))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_wire_codec_round_trips(counters, gauges, observations):
    snap = _snapshot(counters, gauges, observations)
    for mode in (MODE_FULL, MODE_DELTA):
        rows = encode_scope(snap, mode)
        decoded = decode_scopes(rows)
        assert len(decoded) == 1
        got_mode, got = decoded[0]
        assert got_mode == mode
        assert got == snap


@given(st.lists(traced_values, max_size=20))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_wire_codec_round_trips_live_instruments(observations):
    """A live instrument, with or without exemplars, decodes to an equal
    histogram, and diffing it against its decoded copy sends nothing
    (no exemplars on one side and an empty map on the other are equal)."""
    live = _observed(observations)
    snap = ScopeSnapshot("svc", "host:1", 0, {}, {}, {"lat": live})
    (_, got), = decode_scopes(encode_scope(snap, MODE_FULL))
    decoded = got.histograms["lat"]
    assert decoded == live
    assert decoded.count == live.count
    assert (decoded.minimum, decoded.maximum) == (live.minimum, live.maximum)
    assert encode_scope(got, MODE_FULL) == encode_scope(snap, MODE_FULL)
    assert snap.diff(got) is None and got.diff(snap) is None


def test_wire_codec_round_trips_exemplars():
    live = Histogram(bounds=BOUNDS)
    live.observe_ex(0.3, "trace:with:colons")
    live.observe_ex(0.002, "t42")
    snap = ScopeSnapshot(
        "svc", "host:1", 3, {"ok": 7}, {},
        {"lat": live.copy()},
    )
    (mode, got), = decode_scopes(encode_scope(snap, MODE_FULL))
    assert got.histograms["lat"].exemplars == live.exemplars
    assert got.incarnation == 3


def test_same_mode_is_header_only():
    rows = encode_scope(ScopeSnapshot("svc", "host:1", 2), MODE_SAME)
    assert len(rows) == 1
    (mode, got), = decode_scopes(rows)
    assert mode == MODE_SAME
    assert got.key == ("svc", "host:1", 2)
    assert not got.counters and not got.gauges and not got.histograms


def test_rebase_after_restart_starts_near_zero():
    """The incarnation seam: current-minus-base yields a fresh series."""
    live = Histogram(bounds=BOUNDS)
    for _ in range(10):
        live.observe(0.01)
    base = _snapshot({"ok": 100}, {}, [])
    base.histograms["lat"] = live.copy()
    live.observe(0.3)
    curr = ScopeSnapshot(
        "svc", "host:1", 1, {"ok": 103}, {"depth": 2.0},
        {"lat": live.copy()},
    )
    fresh = curr.rebase(base)
    assert fresh.counters["ok"] == 3
    assert fresh.gauges["depth"] == 2.0  # gauges are instantaneous
    assert fresh.histograms["lat"].count == 1
    assert fresh.incarnation == 1


@given(st.lists(traced_values, max_size=20), st.lists(traced_values, max_size=20))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rebase_equals_post_restart_observations(before, after):
    """current-minus-base of one instrument is exactly what was observed
    after the base was frozen, and ``count`` follows the counts."""
    live = _observed(before)
    base = live.copy()
    fresh = _observed(after)
    for value, trace in after:
        if trace:
            live.observe_ex(value, trace)
        else:
            live.observe(value)
    rebased = live.subtract_base(base)
    assert rebased.counts == fresh.counts
    assert rebased.count == sum(rebased.counts) == len(after)
    assert abs(rebased.total - fresh.total) <= 1e-9 * max(1.0, live.total)
    assert (rebased.exemplars or {}) == (live.exemplars or {})


def test_rebase_clamps_counts_and_recounts():
    """A base ahead of the current value (a bucket the new incarnation
    never refilled) clamps at zero, and ``count`` is recomputed."""
    current = Histogram(BOUNDS, [1, 0, 4, 0, 0, 0], 0.1)
    base = Histogram(BOUNDS, [3, 0, 1, 0, 0, 0], 0.05)
    rebased = current.subtract_base(base)
    assert rebased.counts == [0, 0, 3, 0, 0, 0]
    assert rebased.count == 3
