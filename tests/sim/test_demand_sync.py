"""Demand-driven conservative sync (E30): causality and A/B equivalence.

The protocol's load-bearing promise: once the coordinator grants shard
``i`` a window up to ``g``, **no boundary message with a timestamp below
``g`` is ever delivered to ``i`` afterwards** — the window's contents
were complete at grant time.  The causality regression here instruments
the coordinator's dispatch path and checks that invariant message by
message on a real campus run; the equivalence tests pin the A/B
contract (same merged trace as lockstep and as the single kernel) and
the structural null-message elimination.
"""

import functools
import hashlib
import json

import pytest

from repro.env import build_campus, campus_shard_map
from repro.sim.parallel import ShardedSimulator
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

REGIONS = 4
SEED = 11
PROFILE = PopulationProfile(n_users=40, duration=4.0, process="poisson")
BUILDER = functools.partial(build_campus, regions=REGIONS, seed=SEED)


def _instrument_grants(sim):
    """Wrap every shard handle's send() to watch window dispatches.

    Records, per shard, the highest horizon granted so far; any inbox
    message timestamped inside an *earlier* (already completed) granted
    window is a causality violation.  Local mode makes the check exact:
    send() executes the window synchronously, so by the next dispatch to
    the same shard the previous window has fully run.
    """
    granted = [0.0] * sim.n_shards
    violations = []
    for i, handle in enumerate(sim._handles):
        orig = handle.send

        def send(msg, i=i, orig=orig):
            if msg and msg[0] == "window":
                _, g, inbox = msg
                for m in inbox:
                    if m[1] < granted[i]:
                        violations.append(
                            (i, m[1], granted[i],
                             f"message kind {m[0]!r} for t={m[1]} delivered "
                             f"after shard {i} was granted {granted[i]}"))
                if g > granted[i]:
                    granted[i] = g
            orig(msg)

        handle.send = send
    return violations


def _run_campus(n_shards, sync, *, instrument=False):
    shard_map = campus_shard_map(REGIONS, n_shards) if n_shards > 1 else None
    sim = ShardedSimulator(BUILDER, n_shards=n_shards,
                           host_to_shard=shard_map, mode="local", seed=SEED,
                           sync=sync)
    with sim:
        violations = _instrument_grants(sim) if instrument else []
        sim.boot(settle=1.0)
        sim.spawn(start_population, profile=PROFILE)
        sim.run(sim.now + PROFILE.duration + 2.0)
        results = sim.collect(collect_population)
        counters = sim.counters()
        report = sim.sync_report()
        trace_hash = sim.merged_trace().hash()
    ops = sum(r["ops"] for r in results)
    return ops, counters, report, trace_hash, violations


class TestCausality:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_no_message_lands_inside_granted_window(self, n_shards):
        ops, counters, report, _, violations = _run_campus(
            n_shards, "demand", instrument=True)
        assert ops > 0
        assert counters["boundary.msgs_out"] > 0, "nothing crossed shards"
        assert counters["sync.grants"] > 0
        assert not violations, violations[:5]

    def test_lockstep_windows_obey_the_same_invariant(self):
        # the A/B control must honor the identical delivery contract
        _, counters, _, _, violations = _run_campus(
            2, "lockstep", instrument=True)
        assert counters["boundary.msgs_out"] > 0
        assert not violations, violations[:5]


class TestEquivalence:
    def test_demand_matches_lockstep_and_single_kernel(self):
        ops1, _, _, hash1, _ = _run_campus(1, "demand")
        ops_d, counters_d, _, hash_d, _ = _run_campus(2, "demand")
        ops_l, counters_l, _, hash_l, _ = _run_campus(2, "lockstep")
        assert ops1 > 0
        assert ops1 == ops_d == ops_l
        assert hash1 == hash_d == hash_l
        # demand-driven dispatch is null-free by construction; lockstep
        # pays for its blind per-round broadcasts
        assert counters_d["sync.null_messages"] == 0
        assert counters_l["sync.null_messages"] > 0
        assert counters_d["sync.grants"] < counters_l["sync.grants"]

    def test_empty_shards_see_only_boot_grants(self):
        """8 shards over 4 regions: odd shards own nothing.  Beyond the
        boot sequence's own timers (one grant), demand sync never
        dispatches them — where lockstep broadcasts every round — and
        the run still matches the single kernel."""
        ops1, _, _, hash1, _ = _run_campus(1, "demand")
        ops8, counters8, report8, hash8, _ = _run_campus(8, "demand")
        assert ops8 == ops1
        assert hash8 == hash1
        assert counters8["boundary.msgs_out"] > 0
        for i, shard in enumerate(report8["per_shard"]):
            if i % 2 == 1:
                assert shard["grants"] <= 2, f"empty shard {i} kept drawing"
            else:
                assert shard["grants"] > 20 * 2

    def test_width_histograms_count_every_grant(self):
        _, _, report, _, _ = _run_campus(2, "demand")
        for shard in report["per_shard"]:
            assert shard["window_width"]["count"] == shard["grants"]
            assert shard["window_width"]["p95"] > 0.0
        assert sum(s["grants"] for s in report["per_shard"]) \
            == report["grants"]


class TestSchedulePin:
    """Pin the sync schedule itself, not only its outcome: a change to
    which shard is granted what, and when, can keep the merged trace (the
    equivalence tests above) and still be a different protocol."""

    @pytest.mark.parametrize("n_shards, sync, report_sha256, counters", [
        (2, "demand",
         "ff8aef20039b199c91d7122e02b5385b805494ea79271f0f08082d45ff5649d1",
         {"rounds": 397, "grants": 440, "null_messages": 0,
          "payload_free_grants": 401, "lookahead_stalls": 0}),
        (4, "demand",
         "00a8af7fa446884f0d4ef22217aa528d2b8af12b16f192ab4d27f28adb816197",
         {"rounds": 422, "grants": 531, "null_messages": 0,
          "payload_free_grants": 441, "lookahead_stalls": 0}),
        (8, "demand",
         "4ceacfcebbd462e56c000ebdbdb360e9d49b0a5b1d96d636cf30a52555cf866e",
         {"rounds": 422, "grants": 535, "null_messages": 0,
          "payload_free_grants": 445, "lookahead_stalls": 0}),
        (2, "lockstep",
         "51890fba6c807cc2ea3d61fa80b297d88a5ea247f2479792a8f0e1d38969aca4",
         {"rounds": 565, "grants": 1130, "null_messages": 1078,
          "payload_free_grants": 1078, "lookahead_stalls": 491}),
    ])
    def test_sync_report_and_counters_are_pinned(self, n_shards, sync,
                                                  report_sha256, counters):
        _, got_counters, report, _, _ = _run_campus(n_shards, sync)
        expected = {f"sync.{k}": v for k, v in counters.items()}
        expected["sync.shards"] = n_shards
        expected["sync.demand"] = 1.0 if sync == "demand" else 0.0
        assert {k: v for k, v in got_counters.items()
                if k.startswith("sync.")} == expected
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == report_sha256


class TestProtocolSelection:
    def test_env_var_selects_lockstep(self, monkeypatch):
        monkeypatch.setenv("ACE_SYNC_LOCKSTEP", "1")
        sim = ShardedSimulator(BUILDER, n_shards=1, mode="local")
        assert sim.sync == "lockstep"
        monkeypatch.setenv("ACE_SYNC_LOCKSTEP", "0")
        assert ShardedSimulator(BUILDER, n_shards=1, mode="local").sync \
            == "demand"

    def test_explicit_sync_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("ACE_SYNC_LOCKSTEP", "1")
        sim = ShardedSimulator(BUILDER, n_shards=1, mode="local",
                               sync="demand")
        assert sim.sync == "demand"

    def test_unknown_sync_rejected(self):
        from repro.sim import SimulationError

        with pytest.raises(SimulationError, match="unknown sync protocol"):
            ShardedSimulator(BUILDER, n_shards=1, mode="local",
                             sync="optimistic")
