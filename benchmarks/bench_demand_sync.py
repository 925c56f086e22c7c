"""E30 — demand-driven conservative sync vs the E29 lockstep control.

The E29 lockstep protocol broadcasts one time grant per shard per round
and pays for it in null messages: payload-free grants to shards with
nothing executable in the window.  E30 replaces it with demand-driven
grants — a per-pair lookahead matrix L[i][j], a coordinator-side fixed
point over each shard's next event time, and a coordinator that only
dispatches a shard when its safe horizon strictly exceeds its next
executable event.
Both protocols must produce the *identical* merged trace; the old path
stays selectable (``sync="lockstep"`` / ``ACE_SYNC_LOCKSTEP=1``) as the
A/B control.

Three claims are pinned in ``BENCH_E30.json``:

* **equivalence** — lockstep and demand produce the same canonical
  merged-trace hash at 1, 2, 4, and 8 shards, both on a fixed-scale
  invariance profile (hash committed and CI-guarded — the same profile
  whose hash E29 pinned, so demand sync must reproduce the committed E29
  trace bit-for-bit) and on the full population sweep.
* **null elimination** — at 4 shards the demand protocol cuts
  ``sync.null_messages`` by >= 5x vs lockstep on the same workload.  (By
  construction every demand grant delivers at least one event, so the
  measured reduction is typically far larger.)
* **the 100k rung** — a 100k-user campus run
  (:func:`repro.env.campus_100k_profile`: lazy session materialization +
  compact per-user state) completes a timed 4-shard run; wall seconds,
  per-shard maxrss, and served ops are recorded.

Results go to ``BENCH_E30.json`` (``ACE_BENCH_ARTIFACT_DIR`` when set,
else the committed copy at the repo root).  ``ACE_BENCH_GUARD=1`` turns
baseline drift (invariance-hash change, null-reduction ratio below
target) into a failure.  ``ACE_BENCH_SHORT=1`` runs CI-sized populations
(the invariance profile is deliberately SHORT-independent).
"""

import functools
import time

from repro.env import build_campus, campus_100k_profile, campus_shard_map
from repro.metrics import ResultTable, cores_available
from repro.sim.parallel import ShardedSimulator
from repro.sim.trace import diff_traces
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

from benchmarks.tracked import SHORT, enforce, load_baseline, write_report

BASELINE = "BENCH_E30.json"
E29_BASELINE = "BENCH_E29.json"

REGIONS = 4
SEED = 29
SHARD_COUNTS = (1, 2, 4, 8)

#: the population under test — the E29 sweep workload, now also at 8
#: shards (where the region-contiguous map leaves four shards empty:
#: lockstep null-broadcasts to them every round, demand never grants them)
SWEEP_PROFILE = PopulationProfile(
    n_users=1_500 if SHORT else 10_000,
    duration=20.0 if SHORT else 30.0,
    process="mmpp",
    flash_at=12.0 if SHORT else 18.0,
    flash_duration=4.0 if SHORT else 6.0,
)

#: fixed-scale run whose merged-trace hash is pinned in BENCH_E30.json —
#: identical to the E29 invariance profile on purpose, so the committed
#: E29 hash doubles as an external witness for the new protocol
INVARIANCE_PROFILE = PopulationProfile(
    n_users=120, duration=8.0, process="poisson",
    flash_at=4.0, flash_duration=2.0,
)

#: the 100k-user rung (SHORT: 20k) — acceptance is "completes a timed run"
N_USERS_100K = 20_000 if SHORT else 100_000
CAMPUS_100K_SHARDS = 4

#: acceptance target (ISSUE 10): demand cuts null messages >= 5x at 4 shards
NULL_REDUCTION_4SHARDS_MIN = 5.0

BUILDER = functools.partial(build_campus, regions=REGIONS, seed=SEED)
#: tracing off for the 100k rung: the claim is capacity, not the trace
BUILDER_100K = functools.partial(
    build_campus, regions=REGIONS, seed=SEED, trace=False
)


def run_one(n_shards: int, profile: PopulationProfile, *, sync: str,
            mode: str = "process", builder=BUILDER,
            with_trace: bool = True) -> dict:
    """One boot + population run; returns a report row (plus the merged
    trace under ``_trace`` when requested, stripped before writing)."""
    shard_map = campus_shard_map(REGIONS, n_shards) if n_shards > 1 else None
    sim = ShardedSimulator(builder, n_shards=n_shards,
                           host_to_shard=shard_map, mode=mode, seed=SEED,
                           sync=sync)
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
        sync_report = sim.sync_report()
        trace = sim.merged_trace() if with_trace else None
    shard_cpus = [r["cpu_s"] for r in reports]
    critical_cpu = max(shard_cpus) + coordinator_cpu
    events = counters["events_delivered"]
    return {
        "n_shards": n_shards,
        "sync": sync,
        "mode": mode,
        "ops": sum(r["ops"] for r in results),
        "sessions": sum(r["sessions_spawned"] for r in results),
        "errors": sum(r["errors"] for r in results),
        "events_delivered": int(events),
        "rounds": int(counters["sync.rounds"]),
        "grants": int(counters["sync.grants"]),
        "null_messages": int(counters["sync.null_messages"]),
        "payload_free_grants": int(counters["sync.payload_free_grants"]),
        "lookahead_stalls": int(counters["sync.lookahead_stalls"]),
        "boundary_msgs": int(counters["boundary.msgs_out"]),
        "shard_cpu_s": [round(c, 3) for c in shard_cpus],
        "coordinator_cpu_s": round(coordinator_cpu, 3),
        "critical_cpu_s": round(critical_cpu, 3),
        "wall_s": round(wall_s, 3),
        "agg_events_per_s": round(events / critical_cpu),
        "maxrss_kb": [int(r.get("maxrss_kb", 0)) for r in reports],
        "grants_per_shard": [s["grants"] for s in sync_report["per_shard"]],
        "window_width_p95": [
            round(s["window_width"]["p95"], 6)
            for s in sync_report["per_shard"]
        ],
        "merged_trace_sha256": trace.hash() if trace is not None else None,
        "_trace": trace,  # stripped before the report is written
    }


def _assert_same_trace(a: dict, b: dict, context: str) -> None:
    if a["merged_trace_sha256"] == b["merged_trace_sha256"]:
        return
    delta = ""
    if a["_trace"] is not None and b["_trace"] is not None:
        lines = diff_traces(a["_trace"].records, b["_trace"].records)
        delta = "\nfirst diverging records:\n  " + "\n  ".join(lines)
    raise AssertionError(
        f"merged trace diverges ({context}): "
        f"{a['sync']}@{a['n_shards']} {a['merged_trace_sha256'][:16]}… vs "
        f"{b['sync']}@{b['n_shards']} {b['merged_trace_sha256'][:16]}…"
        + delta)


def run_invariance() -> dict:
    """Fixed-scale runs, both protocols x 1/2/4/8 shards, one hash."""
    base = None
    rows = []
    for n in SHARD_COUNTS:
        for sync in ("lockstep", "demand"):
            row = run_one(n, INVARIANCE_PROFILE, sync=sync, mode="local")
            if base is None:
                base = row
            else:
                assert row["ops"] == base["ops"], (sync, n, row["ops"])
                _assert_same_trace(base, row, "invariance")
            rows.append({k: row[k] for k in
                         ("n_shards", "sync", "rounds", "grants",
                          "null_messages")})
    return {
        "profile": {"n_users": INVARIANCE_PROFILE.n_users,
                    "duration": INVARIANCE_PROFILE.duration,
                    "process": INVARIANCE_PROFILE.process},
        "shard_counts": list(SHARD_COUNTS),
        "ops": base["ops"],
        "runs": rows,
        "merged_trace_sha256": base["merged_trace_sha256"],
    }


def run_sweep() -> dict:
    """Population sweep, demand vs lockstep at every shard count."""
    shards = {}
    for n in SHARD_COUNTS:
        demand = run_one(n, SWEEP_PROFILE, sync="demand", mode="process")
        lockstep = run_one(n, SWEEP_PROFILE, sync="lockstep", mode="process")
        assert demand["ops"] == lockstep["ops"], (n, demand["ops"],
                                                 lockstep["ops"])
        _assert_same_trace(lockstep, demand, f"sweep @{n} shards")
        for row in (demand, lockstep):
            row.pop("_trace")
        shards[str(n)] = {"demand": demand, "lockstep": lockstep}
    null_reduction = {
        key: round(pair["lockstep"]["null_messages"]
                   / max(pair["demand"]["null_messages"], 1), 2)
        for key, pair in shards.items() if key != "1"
    }
    grant_reduction = {
        key: round(pair["lockstep"]["grants"]
                   / max(pair["demand"]["grants"], 1), 2)
        for key, pair in shards.items() if key != "1"
    }
    return {
        "profile": {"n_users": SWEEP_PROFILE.n_users,
                    "duration": SWEEP_PROFILE.duration,
                    "process": SWEEP_PROFILE.process,
                    "flash_at": SWEEP_PROFILE.flash_at,
                    "flash_duration": SWEEP_PROFILE.flash_duration},
        "regions": REGIONS,
        "cores_available": cores_available(),
        "shards": shards,
        "null_reduction": null_reduction,
        "grant_reduction": grant_reduction,
    }


def run_100k() -> dict:
    """The capacity rung: a timed 100k-user run on the trimmed profile."""
    profile = campus_100k_profile(n_users=N_USERS_100K)
    row = run_one(CAMPUS_100K_SHARDS, profile, sync="demand",
                  mode="process", builder=BUILDER_100K, with_trace=False)
    row.pop("_trace")
    row["n_users"] = profile.n_users
    row["lazy_sessions"] = profile.lazy_sessions
    row["compact_sessions"] = profile.compact_sessions
    # The thinned arrival process targets n_users in expectation and is
    # capped there, so a realization can fall short of the cap by a few
    # Poisson standard deviations (sigma = sqrt(n)).
    floor = profile.n_users - 5 * int(profile.n_users ** 0.5)
    assert row["sessions"] >= floor, (
        f"population pump spawned {row['sessions']} of {profile.n_users} "
        f"sessions (floor {floor})")
    assert row["ops"] > 0
    return row


def _check_against_baseline(report: dict) -> list:
    """Invariance-hash and null-reduction drift vs committed baselines."""
    problems = []
    current = report["invariance"]["merged_trace_sha256"]
    pinned = load_baseline(BASELINE).get("invariance", {}).get("merged_trace_sha256")
    if pinned and pinned != current:
        problems.append(
            f"invariance-run merged-trace hash changed: committed "
            f"{pinned[:16]}…, measured {current[:16]}… — demand sync "
            f"no longer reproduces the committed trace")
    # The E29 baseline pinned the same fixed-scale profile under the old
    # protocol; demand sync must reproduce that committed trace too.
    e29_pinned = load_baseline(E29_BASELINE).get("invariance", {}).get(
        "merged_trace_sha256")
    if e29_pinned and e29_pinned != current:
        problems.append(
            f"demand sync does not reproduce the committed E29 trace: "
            f"E29 pinned {e29_pinned[:16]}…, measured {current[:16]}…")
    measured = report["sweep"]["null_reduction"]["4"]
    if measured < NULL_REDUCTION_4SHARDS_MIN:
        problems.append(
            f"4-shard null-message reduction only {measured:.1f}x "
            f"(target {NULL_REDUCTION_4SHARDS_MIN}x)")
    return problems


def test_e30_demand_sync(benchmark, table_printer):
    def run():
        return {
            "experiment": "E30",
            "short": SHORT,
            "targets": {
                "null_reduction_4shards_min": NULL_REDUCTION_4SHARDS_MIN,
            },
            "invariance": run_invariance(),
            "sweep": run_sweep(),
            "campus_100k": run_100k(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    sweep = report["sweep"]
    table = table_printer(ResultTable(
        f"E30: {sweep['profile']['n_users']} users / {REGIONS} regions, "
        f"demand vs lockstep sync ({sweep['cores_available']} cores)",
        ["shards", "sync", "rounds", "grants", "nulls", "stalls",
         "agg_ev_per_s", "crit_cpu_s"],
    ))
    for key in sorted(sweep["shards"], key=int):
        for sync in ("lockstep", "demand"):
            row = sweep["shards"][key][sync]
            table.add(key, sync, row["rounds"], row["grants"],
                      row["null_messages"], row["lookahead_stalls"],
                      row["agg_events_per_s"], row["critical_cpu_s"])
    big = report["campus_100k"]
    table100k = table_printer(ResultTable(
        f"E30: {big['n_users']} users on {big['n_shards']} shards "
        f"(lazy+compact sessions, tracing off)",
        ["ops", "events", "wall_s", "crit_cpu_s", "max_rss_mb"],
    ))
    table100k.add(big["ops"], big["events_delivered"], big["wall_s"],
                  big["critical_cpu_s"],
                  round(max(big["maxrss_kb"]) / 1024, 1))

    # Demand grants only move executable work: no nulls, no stalls.
    four = sweep["shards"]["4"]
    assert four["demand"]["null_messages"] == 0
    assert four["demand"]["lookahead_stalls"] == 0
    assert sweep["null_reduction"]["4"] >= NULL_REDUCTION_4SHARDS_MIN, (
        f"null reduction at 4 shards only {sweep['null_reduction']['4']}x")
    # The 8-shard run has four empty shards: lockstep null-broadcasts to
    # them every round, demand grants them only their boot-time events.
    eight = sweep["shards"]["8"]
    assert eight["demand"]["boundary_msgs"] > 0
    for i in range(8):
        grants = eight["demand"]["grants_per_shard"][i]
        if i % 2 == 1:
            assert grants <= 2, f"empty shard {i} drew {grants} grants"
        else:
            assert grants > 100
    assert min(eight["lockstep"]["grants_per_shard"]) \
        == eight["lockstep"]["rounds"]

    enforce(BASELINE, _check_against_baseline(report))

    write_report(BASELINE, report)
