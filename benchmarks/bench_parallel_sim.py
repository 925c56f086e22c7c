"""E29 — sharded multi-process kernel at population scale (tracked).

Re-runs the E18 "how many users fit" question at 10k+ users on the
four-region campus (:mod:`repro.env.campus`), with the population
workload (:mod:`repro.workloads.population`) driving MMPP arrivals, a
flash crowd (the E28 shape), and per-user session FSMs — swept across
1, 2, and 4 kernel shards (:class:`repro.sim.parallel.ShardedSimulator`,
one OS process per shard).

Two claims are pinned:

* **capacity** — aggregate events/sec, measured on the *critical path*:
  total kernel events divided by (max per-shard CPU seconds + coordinator
  CPU seconds).  CPU-based rather than wall-based on purpose: CI
  containers often expose a single core, where four shard processes
  time-slice and wall clock shows nothing; the critical-path quotient is
  what a machine with >= 4 free cores would see.  Wall seconds and the
  visible core count are reported alongside for transparency.  The
  committed baseline must show >= 2.5x at 4 shards (ISSUE 9).
* **determinism** — the merged trace is shard-count invariant: the same
  canonical hash (and identical per-op latency samples) at 1, 2, and 4
  shards, both for a fixed-scale invariance run (hash pinned in
  ``BENCH_E29.json`` and CI-guarded) and for the full sweep itself.

Results go to ``BENCH_E29.json`` (``ACE_BENCH_ARTIFACT_DIR`` when set,
else the committed copy at the repo root).  ``ACE_BENCH_GUARD=1`` turns
baseline drift (speedup ratio down > 20%, or any invariance-hash change)
into a failure.  ``ACE_BENCH_SHORT=1`` runs a CI-sized population.
"""

import functools
import time

from repro.env import build_campus, campus_shard_map
from repro.metrics import ResultTable, cores_available, summarize
from repro.sim.parallel import ShardedSimulator
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

from benchmarks.tracked import SHORT, enforce, load_baseline, same_size, write_report

BASELINE = "BENCH_E29.json"

REGIONS = 4
SEED = 29
SHARD_COUNTS = (1, 2, 4)

#: the population under test: 10k+ users full-size, CI-sized when SHORT
SWEEP_PROFILE = PopulationProfile(
    n_users=1_500 if SHORT else 10_000,
    duration=20.0 if SHORT else 30.0,
    process="mmpp",
    flash_at=12.0 if SHORT else 18.0,
    flash_duration=4.0 if SHORT else 6.0,
)

#: fixed-scale run whose merged-trace hash is pinned in BENCH_E29.json —
#: deliberately independent of SHORT so CI checks the committed hash
INVARIANCE_PROFILE = PopulationProfile(
    n_users=120, duration=8.0, process="poisson",
    flash_at=4.0, flash_duration=2.0,
)

#: acceptance target (ISSUE 9); the committed baseline must clear this
AGG_SPEEDUP_4SHARDS_MIN = 2.5
#: in-test floor, slacker than the committed target so a noisy shared
#: runner doesn't flake the suite
AGG_SPEEDUP_FLOOR = 1.4 if SHORT else 2.0

BUILDER = functools.partial(build_campus, regions=REGIONS, seed=SEED)


def run_sharded(n_shards: int, profile: PopulationProfile, *,
                mode: str = "process", with_trace_hash: bool = True) -> dict:
    """One boot + population run at ``n_shards``; returns a report row."""
    shard_map = campus_shard_map(REGIONS, n_shards) if n_shards > 1 else None
    # Pinned to the lockstep protocol on purpose: this benchmark carries
    # the E29 baseline (window counts, null-message rates, pinned hash),
    # which is the A/B control for the E30 demand-sync benchmark.
    sim = ShardedSimulator(BUILDER, n_shards=n_shards,
                           host_to_shard=shard_map, mode=mode, seed=SEED,
                           sync="lockstep")
    with sim:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        sim.boot(settle=2.0)
        sim.spawn(start_population, profile=profile)
        sim.run(sim.now + profile.duration + 3.0)
        coordinator_cpu = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
        results = sim.collect(collect_population)
        counters = sim.counters()
        reports = sim.shard_reports()
        trace_hash = sim.merged_trace().hash() if with_trace_hash else None
    samples = sorted(s for r in results for s in r["samples"])
    shard_cpus = [r["cpu_s"] for r in reports]
    critical_cpu = max(shard_cpus) + coordinator_cpu
    events = counters["events_delivered"]
    return {
        "n_shards": n_shards,
        "mode": mode,
        "ops": sum(r["ops"] for r in results),
        "sessions": sum(r["sessions_spawned"] for r in results),
        "errors": sum(r["errors"] for r in results),
        "roams": sum(r["roams"] for r in results),
        "events_delivered": int(events),
        "rounds": int(counters["sync.rounds"]),
        "null_messages": int(counters["sync.null_messages"]),
        "lookahead_stalls": int(counters["sync.lookahead_stalls"]),
        "boundary_msgs": int(counters["boundary.msgs_out"]),
        "boundary_bytes": int(counters["boundary.bytes_out"]),
        "shard_cpu_s": [round(c, 3) for c in shard_cpus],
        "coordinator_cpu_s": round(coordinator_cpu, 3),
        "critical_cpu_s": round(critical_cpu, 3),
        "wall_s": round(wall_s, 3),
        "agg_events_per_s": round(events / critical_cpu),
        "latency": {
            "p50_ms": round(summarize(samples).p50 * 1e3, 6),
            "p95_ms": round(summarize(samples).p95 * 1e3, 6),
        },
        "merged_trace_sha256": trace_hash,
        "counters": {k: round(v, 3) for k, v in counters.items()},
        "_samples": samples,  # stripped before the report is written
    }


def run_invariance() -> dict:
    """Fixed-scale 1/2/4-shard runs; everything observable must match."""
    rows = [run_sharded(n, INVARIANCE_PROFILE, mode="local")
            for n in SHARD_COUNTS]
    base = rows[0]
    for row in rows[1:]:
        assert row["ops"] == base["ops"], (base["ops"], row["ops"])
        assert row["_samples"] == base["_samples"], (
            f"latency samples diverge at {row['n_shards']} shards")
        assert row["merged_trace_sha256"] == base["merged_trace_sha256"], (
            f"merged trace diverges at {row['n_shards']} shards")
    return {
        "profile": {"n_users": INVARIANCE_PROFILE.n_users,
                    "duration": INVARIANCE_PROFILE.duration,
                    "process": INVARIANCE_PROFILE.process},
        "shard_counts": list(SHARD_COUNTS),
        "ops": base["ops"],
        "merged_trace_sha256": base["merged_trace_sha256"],
    }


def run_sweep() -> dict:
    rows = {}
    for n in SHARD_COUNTS:
        row = run_sharded(n, SWEEP_PROFILE, mode="process")
        rows[str(n)] = row
    base = rows["1"]
    base_samples = base["_samples"]
    # The sweep itself is shard-count invariant: same served ops, same
    # per-op latencies, same merged trace — at full population scale.
    for key, row in rows.items():
        assert row["ops"] == base["ops"], (key, base["ops"], row["ops"])
        assert row["_samples"] == base_samples, (
            f"latency samples diverge at {key} shards")
        assert row["merged_trace_sha256"] == base["merged_trace_sha256"], (
            f"merged trace diverges at {key} shards")
    for row in rows.values():
        row.pop("_samples")
    speedup = {
        key: round(base["critical_cpu_s"] / rows[key]["critical_cpu_s"], 3)
        for key in rows if key != "1"
    }
    return {
        "profile": {"n_users": SWEEP_PROFILE.n_users,
                    "duration": SWEEP_PROFILE.duration,
                    "process": SWEEP_PROFILE.process,
                    "flash_at": SWEEP_PROFILE.flash_at,
                    "flash_duration": SWEEP_PROFILE.flash_duration},
        "regions": REGIONS,
        "cores_available": cores_available(),
        "shards": rows,
        "agg_speedup": speedup,
    }


def _check_against_baseline(report: dict) -> list:
    """Speedup-ratio and invariance-hash drift vs the committed baseline."""
    baseline = load_baseline(BASELINE)
    problems = []
    committed = baseline.get("sweep", {}).get("agg_speedup", {}).get("4")
    measured = report["sweep"]["agg_speedup"]["4"]
    # The speedup ratio is only comparable between runs of the same
    # population size: the committed baseline is a full 10k-user run,
    # and a SHORT rerun legitimately shows a smaller ratio (less work
    # per window amortizes the sync cost worse).
    if committed and same_size(baseline, report, "4-shard speedup"):
        drop = (committed - measured) / committed
        if drop > 0.20:
            problems.append(
                f"4-shard aggregate speedup {measured:.2f}x is {drop:.0%} "
                f"below the committed baseline {committed:.2f}x")
    pinned = baseline.get("invariance", {}).get("merged_trace_sha256")
    current = report["invariance"]["merged_trace_sha256"]
    if pinned and pinned != current:
        problems.append(
            f"invariance-run merged-trace hash changed: committed "
            f"{pinned[:16]}…, measured {current[:16]}… — the sharded "
            f"kernel no longer reproduces the committed trace")
    return problems


def test_e29_parallel_sim(benchmark, table_printer):
    def run():
        return {
            "experiment": "E29",
            "short": SHORT,
            "targets": {"agg_speedup_4shards_min": AGG_SPEEDUP_4SHARDS_MIN},
            "invariance": run_invariance(),
            "sweep": run_sweep(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    sweep = report["sweep"]
    table = table_printer(ResultTable(
        f"E29: {sweep['profile']['n_users']} users / {REGIONS} regions, "
        f"1-4 kernel shards (critical-path CPU; "
        f"{sweep['cores_available']} cores visible)",
        ["shards", "agg_ev_per_s", "crit_cpu_s", "wall_s", "rounds",
         "boundary_msgs", "p95_ms", "speedup"],
    ))
    for key in sorted(sweep["shards"], key=int):
        row = sweep["shards"][key]
        table.add(key, row["agg_events_per_s"], row["critical_cpu_s"],
                  row["wall_s"], row["rounds"], row["boundary_msgs"],
                  row["latency"]["p95_ms"],
                  f"{sweep['agg_speedup'].get(key, 1.0):.2f}x")

    # The 1-shard run must ride the unmodified fast-path kernel.
    one = sweep["shards"]["1"]
    assert one["counters"]["ready_hits"] > 0, "fast path did not carry"
    assert one["rounds"] <= 3, "single shard should degenerate to run()"
    # Cross-shard traffic must actually exist, or the sweep proves nothing.
    assert sweep["shards"]["4"]["boundary_msgs"] > 0

    speedup4 = sweep["agg_speedup"]["4"]
    assert speedup4 >= AGG_SPEEDUP_FLOOR, (
        f"4-shard aggregate speedup only {speedup4:.2f}x "
        f"(floor {AGG_SPEEDUP_FLOOR}x)")

    enforce(BASELINE, _check_against_baseline(report))

    write_report(BASELINE, report)
