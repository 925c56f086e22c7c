#!/usr/bin/env python3
"""The repository's benchmark: one command, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campus-sessions --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
timed section under the span tracer and reports the per-layer metrics,
the per-op ledger and the tracing overhead.  Every figure is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
makes ``correct`` false and the exit code 1.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

from hostclock import HostClock
from stats import median, tail
from tracing import Tracer, install_layer_wrappers, merge_summaries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = ("campus-sessions", "secure-rpc", "store-rw", "campus-2shard")

#: name -> unit of every end-to-end metric (``--trace 0``)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_host_s": "1/s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "goodput_ops_per_sim_s": "1/s",
}

#: name -> unit of every per-layer metric (``--trace 1``)
PER_LAYER_UNITS = {
    "sim.events_per_op": "count",
    "sim.ready_share": "ratio",
    "sim.self_ms_per_op": "ms",
    "net.connects_per_op": "count",
    "net.messages_per_op": "count",
    "net.bytes_per_op": "B",
    "net.self_ms_per_op": "ms",
    "lang.parses_per_op": "count",
    "lang.encodes_per_op": "count",
    "lang.full_parse_share": "ratio",
    "lang.self_ms_per_op": "ms",
    "core.commands_per_op": "count",
    "core.pool_reuse_share": "ratio",
    "core.failovers_per_op": "count",
    "core.self_ms_per_op": "ms",
    "services.self_ms_per_op": "ms",
    "security.handshakes_per_op": "count",
    "security.dh_per_op": "count",
    "security.signs_per_op": "count",
    "security.verifies_per_op": "count",
    "security.keynote_checks_per_op": "count",
    "security.credential_cache_hit_share": "ratio",
    "security.self_ms_per_op": "ms",
    "security.setup_s": "s",
    "store.replications_per_write": "count",
    "store.batch_size": "count",
    "store.put_p50_ms": "ms",
    "store.get_p50_ms": "ms",
    "store.self_ms_per_op": "ms",
    "parallel.shard_busy_share": "ratio",
    "parallel.coordinator_s": "s",
    "parallel.events_per_grant": "count",
    "parallel.boundary_msgs_per_op": "count",
    "parallel.cpu_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_share": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10,
                        help="sizes the fixed work of the timed section "
                             "(calibrated to about this many host seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seed: int, seconds: int):
    """Set up ``workload.setups`` times, timing each on a HostClock; the last
    ``workload.repetitions`` installations also run the timed section
    once each, on the same seed.  Their host time is pooled and their
    simulated results must agree exactly.  Returns (one HostClock per
    set-up, one RunResult per repetition)."""
    clocks, runs = [], []
    n = max(workload.setups, workload.repetitions)
    for i in range(n):
        built = []
        clock = HostClock(workload.bigint_share)
        clock.slice(lambda: built.append(workload.setup(seed, seconds)))
        clocks.append(clock)
        inst = built[0]
        try:
            if i >= n - workload.repetitions:
                runs.append(workload.run(inst, seed, seconds))
        finally:
            workload.close(inst)
    return clocks, runs


def _host_rate(runs, raw: bool = False) -> float:
    """Completed ops per host second (reference seconds unless ``raw``),
    pooled over the repetitions."""
    seconds = sum(r.host_s if raw else r.ref_s for r in runs)
    return _ratio(sum(r.completed for r in runs), seconds)


def end_to_end(workload, runs, setup_s: float) -> tuple:
    """The end-to-end metrics, plus the tail percentile actually used."""
    res = runs[0]
    lat = res.latencies_s
    limit_s = workload.latency_limit_ms / 1e3
    tail_info = tail(lat)
    rss = res.host.get("rss_mb") or _self_rss_mb()
    values = {
        "setup_s": setup_s,
        "ops_per_host_s": _host_rate(runs),
        "peak_rss_mb": rss,
        "op_p50_ms": median(lat) * 1e3,
        "op_tail_ms": tail_info["value"] * 1e3,
        "goodput_ops_per_sim_s": _ratio(sum(1 for x in lat if x <= limit_s),
                                        res.sim_window_s),
    }
    return values, tail_info


def per_layer(runs, tres, summary: dict, setup_summary: dict) -> dict:
    """The per-layer metrics of a traced run (``tres``)."""
    ops = tres.completed
    led = tres.ledger
    counts = summary["counts"]
    layers = summary["layers"]

    def count(*names):
        return sum(counts.get(n, 0) for n in names)

    def ms_per_op(layer):
        return _ratio(layers.get(layer, 0.0) * 1e3, ops)

    puts = led.get("puts", 0)
    put_lat = tres.layer.get("put_latencies_s") or []
    get_lat = tres.layer.get("get_latencies_s") or []
    shard_cpu = tres.host.get("shard_cpu_s") or []
    grants = tres.layer.get("sync.grants", 0)
    traced_ops_s = _host_rate([tres])
    return {
        "sim.events_per_op": _ratio(led["events"], ops),
        "sim.ready_share": _ratio(led["ready_hits"], led["events_scheduled"]),
        "sim.self_ms_per_op": ms_per_op("sim"),
        "net.connects_per_op": _ratio(
            count("Network.connect") + tres.layer.get("boundary.connects", 0), ops),
        "net.messages_per_op": _ratio(led["messages"], ops),
        "net.bytes_per_op": _ratio(led["bytes"], ops),
        "net.self_ms_per_op": ms_per_op("net"),
        "lang.parses_per_op": _ratio(count("parse_command"), ops),
        "lang.encodes_per_op": _ratio(count("ACECmdLine.to_string"), ops),
        "lang.full_parse_share": _ratio(count("parse_command_full"),
                                        count("parse_command")),
        "lang.self_ms_per_op": ms_per_op("lang"),
        "core.commands_per_op": _ratio(led["commands_served"], ops),
        "core.pool_reuse_share": _ratio(led["pool_reuse"],
                                        led["pool_reuse"] + led["pool_dial"]),
        "core.failovers_per_op": _ratio(led["failovers"], ops),
        "core.self_ms_per_op": ms_per_op("core"),
        "services.self_ms_per_op": ms_per_op("services"),
        "security.handshakes_per_op": _ratio(count("handshake_client"), ops),
        "security.dh_per_op": _ratio(count("dh_keypair"), ops),
        "security.signs_per_op": _ratio(count("KeyPair.sign"), ops),
        "security.verifies_per_op": _ratio(count("verify_signature"), ops),
        "security.keynote_checks_per_op": _ratio(
            count("ComplianceChecker.authorized"), ops),
        "security.credential_cache_hit_share": _ratio(
            led["auth_cache_hits"], led["auth_cache_hits"] + led["auth_cache_misses"]),
        "security.self_ms_per_op": ms_per_op("security"),
        "security.setup_s": setup_summary["layers"].get("security", 0.0),
        "store.replications_per_write": _ratio(led["replications_sent"], puts),
        "store.batch_size": _ratio(led["replications_sent"], led["replication_batches"]),
        "store.put_p50_ms": median(put_lat) * 1e3 if put_lat else 0.0,
        "store.get_p50_ms": median(get_lat) * 1e3 if get_lat else 0.0,
        "store.self_ms_per_op": ms_per_op("store"),
        "parallel.shard_busy_share": _ratio(sum(shard_cpu),
                                            len(shard_cpu) * tres.host_s),
        "parallel.coordinator_s": tres.host.get("coordinator_cpu_s", 0.0),
        "parallel.events_per_grant": _ratio(led["events"], grants),
        "parallel.boundary_msgs_per_op": _ratio(
            tres.layer.get("boundary.msgs_out", 0), ops),
        "parallel.cpu_ms_per_op": _ratio(sum(shard_cpu) * 1e3, ops),
        "trace.overhead_ratio": _ratio(_host_rate(runs), traced_ops_s),
        "trace.accounted_share": _ratio(summary["parent_self_s"], tres.host_s),
    }


def _traced(workload, args):
    """Set up and run once more under the span tracer; returns the traced
    result, the merged trace digest and the traced set-up digest."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}")
    tracer = Tracer()
    install_layer_wrappers(tracer)
    with tracer:
        inst = workload.setup(args.seed, args.seconds, tracer=tracer)
        setup_summary = tracer.summary()
        try:
            tres = workload.run(inst, args.seed, args.seconds, tracer=tracer,
                                span_path=stem)
        finally:
            workload.close(inst)
        tracer.write(stem)
    own = tres.host["own_trace"]
    shards = tres.host.get("shard_traces") or []
    summary = merge_summaries([own] + shards)
    summary["parent_self_s"] = sum(own["layers"].values())
    return tres, summary, setup_summary


def _ledger_diff(a: dict, b: dict) -> str:
    return ", ".join(f"{k}: {a.get(k)} vs {b.get(k)}"
                     for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k))


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from repro.metrics import cores_available
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_clocks, runs = _measure(workload, args.seed, args.seconds)
    res = runs[0]
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "cores_available": cores_available(),
        "python": platform.python_version(),
        "loop": workload.loop, "offered_load": workload.offered_load(args.seconds),
        "latency_limit_ms": workload.latency_limit_ms,
        "bigint_share": workload.bigint_share,
        "setups_raw_s": [round(c.raw_s, 6) for c in setup_clocks],
        "setups_ref_s": [round(c.ref_s, 6) for c in setup_clocks],
        "repetitions_raw_s": [round(r.host_s, 6) for r in runs],
        "repetitions_ref_s": [round(r.ref_s, 6) for r in runs],
        "raw_ops_per_host_s": _host_rate(runs, raw=True),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))

    checks = [check for r in runs for check in r.checks]
    for i, other in enumerate(runs[1:], 2):
        checks.append((f"repetition {i} reproduces the ledger and latencies "
                       "(else: nondeterminism)",
                       other.ledger == res.ledger and other.latencies_s == res.latencies_s,
                       _ledger_diff(res.ledger, other.ledger)))
    e2e, tail_info = end_to_end(workload, runs, median([c.ref_s for c in setup_clocks]))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    completed = sum(r.completed for r in runs)
    error_rate = _ratio(failed, attempted)
    checks.append(("completed + failed == attempted", completed + failed == attempted,
                   f"{completed} + {failed} != {attempted}"))
    checks.append(("error_rate is 0 at the nominal load", error_rate == 0.0,
                   f"error_rate={error_rate}"))
    print(f"op_tail_ms is p{tail_info['pct']:.3f} of n={tail_info['n']} ops "
          f"({tail_info['beyond']} beyond it); error_rate {error_rate:.6f} "
          f"({failed}/{attempted})")

    if args.trace:
        tres, summary, setup_summary = _traced(workload, args)
        checks.extend((f"traced run: {name}", ok, detail)
                      for name, ok, detail in tres.checks)
        checks.append(("traced run reproduces the ledger and latencies "
                       "(else: nondeterminism)",
                       tres.ledger == res.ledger and tres.latencies_s == res.latencies_s,
                       _ledger_diff(res.ledger, tres.ledger)))
        metrics = per_layer(runs, tres, summary, setup_summary)
        checks.append(("layer self times account for the timed wall",
                       abs(metrics["trace.accounted_share"] - 1.0) < 0.02,
                       f"{metrics['trace.accounted_share']:.4f}"))
        print("ledger " + json.dumps(tres.ledger, sort_keys=True))
        print("ledger_per_op " + json.dumps({
            "events": metrics["sim.events_per_op"],
            "connects": metrics["net.connects_per_op"],
            "parses": metrics["lang.parses_per_op"],
            "handshakes": metrics["security.handshakes_per_op"],
            "replications": _ratio(tres.ledger["replications_sent"], tres.completed),
        }, sort_keys=True))
        print("layer_self_s " + json.dumps(
            {k: round(v, 6) for k, v in summary["layers"].items()}, sort_keys=True))
        print(f"spans {summary['spans']} written under {OUT_DIR}")
        units = PER_LAYER_UNITS
        title = "per-layer metrics (traced run)"
    else:
        metrics = e2e
        units = END_TO_END_UNITS
        title = "end-to-end metrics"
    _print_metrics(title, metrics, units)

    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
