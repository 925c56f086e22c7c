"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload builds an installation (``setup``, timed on its own), runs a
fixed amount of seeded work in the timed section (``run``) and checks the
program's outputs.  The amount of work depends only on ``--seconds`` and
the seed, never on how fast the host is, so every simulated-time figure
and every count repeats exactly for a given seed.

=================  ===========  ===========================================
workload           loop         what dominates host time
=================  ===========  ===========================================
campus-sessions    open+closed  kernel, connects, codec (no security/store)
secure-rpc         closed       SSL records, handshakes, KeyNote checks
store-rw           closed       3-way replicated store, reads + writes
campus-2shard      open+closed  campus-sessions on 2 kernel shard processes
=================  ===========  ===========================================
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core import SecurityMode
from repro.env import ACEEnvironment, build_campus, campus_shard_map
from repro.lang import ACECmdLine, parse_command
from repro.services.lighting import LightDaemon
from repro.sim.parallel import ShardedSimulator
from repro.store.namespace import Version
from repro.workloads import PopulationProfile, collect_population, start_population

from hostclock import HostClock

#: simulated seconds per timed slice (each slice is calibrated, see hostclock)
SLICE_SIM_S = 0.05


@dataclass
class RunResult:
    """What one timed section produced, plus the checks made on it."""

    attempted: int = 0
    failed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    sim_window_s: float = 0.0
    #: raw host seconds of the timed section
    host_s: float = 0.0
    #: the same at the reference interpreter speed (see hostclock)
    ref_s: float = 0.0
    #: deterministic per-run counts (kernel, network, daemons, store)
    ledger: Dict[str, float] = field(default_factory=dict)
    #: per-layer figures only this workload can measure
    layer: Dict[str, Any] = field(default_factory=dict)
    #: host-time figures (CPU, memory, trace digests): not deterministic
    host: Dict[str, Any] = field(default_factory=dict)
    checks: List[tuple] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _counter_sum(snapshot: Dict[str, Any], prefix: str, suffix: str) -> float:
    return sum(v for k, v in snapshot.items()
               if k.startswith(prefix) and k.endswith(suffix))


def _metric_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    keys = ("rpc.pool.reuse", "rpc.pool.dial", "rpc.failover",
            "store.client.failovers")
    out = {k: after.get(k, 0) - before.get(k, 0) for k in keys}
    for name, suffix in (("auth_cache_hits", ".auth_cache.hits"),
                         ("auth_cache_misses", ".auth_cache.misses")):
        out[name] = (_counter_sum(after, "daemon.", suffix)
                     - _counter_sum(before, "daemon.", suffix))
    for name, suffix in (("replications_sent", ".replications_sent"),
                         ("replication_batches", ".replication_batches")):
        out[name] = (_counter_sum(after, "store.", suffix)
                     - _counter_sum(before, "store.", suffix))
    return out


def _kernel_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in
            ("events_scheduled", "ready_hits", "events_delivered")}


def _ledger(ops: int, kernel: Dict[str, float], net_before: Dict[str, int],
            net_after: Dict[str, int], metrics: Dict[str, float],
            served: int) -> Dict[str, float]:
    """The per-op ledger's raw counts for one timed section."""
    return {
        "ops": ops,
        "events": kernel["events_delivered"],
        "events_scheduled": kernel["events_scheduled"],
        "ready_hits": kernel["ready_hits"],
        "messages": net_after["messages"] - net_before["messages"],
        "bytes": net_after["bytes_total"] - net_before["bytes_total"],
        "commands_served": served,
        "pool_reuse": metrics["rpc.pool.reuse"],
        "pool_dial": metrics["rpc.pool.dial"],
        "failovers": metrics["rpc.failover"] + metrics["store.client.failovers"],
        "auth_cache_hits": metrics["auth_cache_hits"],
        "auth_cache_misses": metrics["auth_cache_misses"],
        "replications_sent": metrics["replications_sent"],
        "replication_batches": metrics["replication_batches"],
    }


def _served(env) -> int:
    return sum(d.commands_served for d in env.daemons.values())


def _stop_trace(tracer, res: RunResult) -> None:
    """End the traced section: digest this process's spans and stop
    recording, so the output checks that follow stay out of the trace."""
    if tracer is not None:
        tracer.enabled = False
        res.host["own_trace"] = tracer.summary()


# ---------------------------------------------------------------------------
# campus-sessions / campus-2shard
# ---------------------------------------------------------------------------

CAMPUS_REGIONS = 4
#: users per second of ``--seconds``: 300 users at the default 10 s
CAMPUS_USERS_PER_SECOND = 30
#: the only HRM on the campus (client hosts carry no monitors), so the
#: only service a ``lookup cls=HRM`` may return
CAMPUS_HRMS = ("hrm.r0-infra",)


def campus_profile(seconds: int) -> PopulationProfile:
    """MMPP arrivals over 10 s with a 4 s flash crowd at t=12 s; sessions
    dial per call (``call_once``) and think 1 s on average."""
    return PopulationProfile(
        n_users=CAMPUS_USERS_PER_SECOND * seconds,
        duration=20.0,
        process="mmpp",
        flash_at=12.0,
        flash_duration=4.0,
    )


def _campus_builder(shard, *, seed: int, tracer=None):
    env = build_campus(shard, seed=seed, regions=CAMPUS_REGIONS, trace=False)
    env.bench_tracer = tracer
    return env


def _shard_snapshot(env, shard) -> Dict[str, Any]:
    """Counts one shard holds: network stats, daemon command counters, and
    the observability counters (module-level: crosses the shard pipe)."""
    return {
        "net": env.net.stats.snapshot(),
        "served": _served(env),
        "metrics": env.obs.metrics.snapshot(),
    }


def _shard_trace_reset(env, shard) -> None:
    if env.bench_tracer is not None:
        env.bench_tracer.reset()


def _shard_trace_summary(env, shard, span_path: str) -> Optional[dict]:
    """Stop this shard's tracer, write its spans, return its digest."""
    tracer = env.bench_tracer
    if tracer is None:
        return None
    tracer.enabled = False
    tracer.write(f"{span_path}-shard{shard.index}")
    return tracer.summary()


def _shard_lookup_check(env, shard) -> None:
    """Start one ``lookup cls=HRM`` per owned region against its ASD; the
    replies land in ``env.bench_lookups`` once the kernel runs."""
    env.bench_lookups = {}

    def probe(region):
        client = env.client(env.net.host(region.client_host), principal="bench-check")
        reply = yield from client.call_once(region.asd, ACECmdLine("lookup", cls="HRM"))
        env.bench_lookups[region.index] = reply.to_string()

    for region in env.campus_regions:
        if shard.owns(region.client_host):
            env.sim.process(probe(region), name=f"bench-lookup-{region.index}")


def _shard_lookups(env, shard) -> Dict[int, str]:
    return dict(getattr(env, "bench_lookups", {}))


def _lookup_names(reply_text: str) -> List[str]:
    reply = parse_command(reply_text)
    services = reply.get("services", ())
    return sorted(entry.split("|", 1)[0] for entry in services)


class Campus:
    """The 4-region campus under a 300-user MMPP population with a flash
    crowd; 1 shard in-process (``campus-sessions``) or 2 shard processes
    (``campus-2shard``), both through :class:`ShardedSimulator` so that
    they boot the same way and complete the identical op count."""

    latency_limit_ms = 25.0

    def __init__(self, name: str, n_shards: int):
        self.name = name
        self.n_shards = n_shards
        # set-up is ~25 ms in-process and ~60 ms with shard processes
        self.setups = 15 if n_shards == 1 else 9
        self.repetitions = 3
        self.bigint_share = 0.0
        self.loop = "open arrivals, closed sessions (think 1 s)"

    def offered_load(self, seconds: int) -> str:
        return (f"{CAMPUS_USERS_PER_SECOND * seconds} users, MMPP arrivals "
                f"over 10 s, flash x7 at 12-16 s")

    def setup(self, seed: int, seconds: int, tracer=None) -> ShardedSimulator:
        builder = functools.partial(_campus_builder, seed=seed, tracer=tracer)
        if self.n_shards == 1:
            sim = ShardedSimulator(builder, n_shards=1, mode="local", seed=seed)
        else:
            sim = ShardedSimulator(
                builder, n_shards=self.n_shards,
                host_to_shard=campus_shard_map(CAMPUS_REGIONS, self.n_shards),
                mode="process", seed=seed)
        sim.start()
        try:
            sim.boot(settle=2.0)
        except BaseException:
            sim.close()
            raise
        return sim

    def close(self, sim: ShardedSimulator) -> None:
        sim.close()

    def run(self, sim: ShardedSimulator, seed: int, seconds: int,
            tracer=None, span_path: str = "") -> RunResult:
        res = RunResult()
        profile = campus_profile(seconds)
        before = sim.shard_reports()
        snap_before = sim.collect(_shard_snapshot)
        counters_before = sim.counters()
        sim.spawn(start_population, profile=profile)
        if tracer is not None:
            sim.collect(_shard_trace_reset)
            tracer.reset()
        t_sim0 = sim.now
        end = t_sim0 + profile.duration + 3.0
        clock = HostClock(self.bigint_share)
        cpu_before = [r["cpu_s"] for r in sim.shard_reports()]
        while sim.now < end:
            clock.slice(lambda: sim.run(min(sim.now + SLICE_SIM_S, end)))
        reports = sim.shard_reports()
        res.host_s, res.ref_s, cpu_s = clock.raw_s, clock.ref_s, clock.cpu_s
        if tracer is not None and self.n_shards > 1:
            res.host["shard_traces"] = sim.collect(_shard_trace_summary, span_path)
        _stop_trace(tracer, res)
        res.sim_window_s = sim.now - t_sim0
        counters = sim.counters()
        results = sim.collect(collect_population)
        snap_after = sim.collect(_shard_snapshot)

        ops = sum(r["ops"] for r in results)
        errors = sum(r["errors"] for r in results)
        res.latencies_s = [s for r in results for s in r["samples"]]
        res.attempted = ops + errors
        res.failed = errors

        kernel = {k: 0.0 for k in ("events_scheduled", "ready_hits", "events_delivered")}
        for b, a in zip(before, reports):
            for k, v in _kernel_deltas(b["kernel"], a["kernel"]).items():
                kernel[k] += v
        metrics: Dict[str, float] = {}
        net_before = {"messages": 0, "bytes_total": 0}
        net_after = dict(net_before)
        served = served_lookup = served_list = 0
        for sb, sa in zip(snap_before, snap_after):
            for k, v in _metric_deltas(sb["metrics"], sa["metrics"]).items():
                metrics[k] = metrics.get(k, 0) + v
            for k in net_before:
                net_before[k] += sb["net"][k]
                net_after[k] += sa["net"][k]
            served += sa["served"] - sb["served"]
            served_lookup += (_counter_sum(sa["metrics"], "daemon.", ".cmd.lookup")
                              - _counter_sum(sb["metrics"], "daemon.", ".cmd.lookup"))
            served_list += (_counter_sum(sa["metrics"], "daemon.", ".cmd.listUsers")
                            - _counter_sum(sb["metrics"], "daemon.", ".cmd.listUsers"))
        res.ledger = _ledger(ops, kernel, net_before, net_after, metrics, served)
        if self.n_shards == 1:
            # the in-process shard shares the coordinator's CPU clock, which
            # also ran the calibrations between slices: count only the
            # slices, and leave the coordinator no separable CPU
            res.host["shard_cpu_s"] = [cpu_s]
            res.host["coordinator_cpu_s"] = 0.0
        else:
            res.host["shard_cpu_s"] = [a["cpu_s"] - b for b, a in zip(cpu_before, reports)]
            res.host["coordinator_cpu_s"] = cpu_s
        res.host["rss_mb"] = sum(r.get("maxrss_kb", 0) for r in reports) / 1024.0
        for key in ("sync.grants", "boundary.msgs_out", "boundary.connects"):
            res.layer[key] = counters[key] - counters_before[key]

        res.check("no failed ops", errors == 0, f"{errors} of {res.attempted} failed")
        res.check("sessions ran", ops > 0 and sum(r["sessions_started"] for r in results) > 0)
        res.check("every op is one lookup + one listUsers served",
                  served_lookup == ops and served_list == ops,
                  f"ops={ops} lookups={served_lookup} listUsers={served_list}")
        self._check_lookups(sim, res)
        return res

    def _check_lookups(self, sim: ShardedSimulator, res: RunResult) -> None:
        """Every region's directory still answers ``lookup cls=HRM`` with
        exactly the registered monitor: the central ASD knows it, regional
        ASDs hold no HRM registration."""
        sim.spawn(_shard_lookup_check)
        sim.run(sim.now + 2.0)
        replies: Dict[int, str] = {}
        for part in sim.collect(_shard_lookups):
            replies.update(part)
        for region in range(CAMPUS_REGIONS):
            expected = list(CAMPUS_HRMS) if region == 0 else []
            got = _lookup_names(replies[region]) if region in replies else None
            res.check(f"lookup at region {region} returns the registered HRM",
                      got == expected, f"got {got}, expected {expected}")


#: per-message latency jitter (a share of the path latency) on the
#: single-site installations, so that simulated latencies depend on the
#: seed the way a real network's do
NET_JITTER = 0.1


# ---------------------------------------------------------------------------
# secure-rpc
# ---------------------------------------------------------------------------

SECURE_CLIENTS = 8
#: commands per client per second of ``--seconds``
SECURE_OPS_PER_CLIENT_PER_SECOND = 40
#: every this-many-th call of a client dials a fresh SSL channel
SECURE_FRESH_EVERY = 20
SECURE_THINK_S = 0.05


class SecureRpc:
    """An SSL+KeyNote installation: ``authorized_client``\\ s in a closed
    loop send ``setLevel`` to their own light.  One call in
    ``SECURE_FRESH_EVERY`` dials fresh (handshake + signed attach); the
    rest reuse the client's pooled channel and pay record HMAC plus the
    per-command KeyNote check."""

    name = "secure-rpc"
    latency_limit_ms = 100.0
    # each set-up boots ~2.7 s of SSL handshakes
    setups = 3
    repetitions = 2
    #: about half the host time is big-integer arithmetic (handshakes,
    #: signatures); the rest is interpreter work (records, KeyNote checks)
    bigint_share = 0.5
    loop = f"closed, {SECURE_CLIENTS} clients, think {SECURE_THINK_S * 1e3:.0f} ms"

    def offered_load(self, seconds: int) -> str:
        return (f"{SECURE_CLIENTS} clients x "
                f"{SECURE_OPS_PER_CLIENT_PER_SECOND * seconds} commands, "
                f"1 in {SECURE_FRESH_EVERY} on a fresh channel")

    def setup(self, seed: int, seconds: int, tracer=None) -> ACEEnvironment:
        env = ACEEnvironment(seed=seed, security=SecurityMode.SSL_KEYNOTE, trace=False,
                             net_kwargs={"jitter_frac": NET_JITTER})
        env.add_infrastructure("infra", with_wss=False, with_idmon=False)
        lab = env.add_workstation("lab", room="lab", monitors=False, cores=2)
        desk = env.add_workstation("desk", room="lab", monitors=False)
        env.bench_lights = [
            env.add_device(LightDaemon, f"light{i}", lab, room="lab")
            for i in range(SECURE_CLIENTS)
        ]
        env.bench_clients = [
            env.authorized_client(desk, f"operator{i}") for i in range(SECURE_CLIENTS)
        ]
        env.boot()
        return env

    def close(self, env: ACEEnvironment) -> None:
        for client in env.bench_clients:
            client.close_channels()

    def run(self, env: ACEEnvironment, seed: int, seconds: int,
            tracer=None, span_path: str = "") -> RunResult:
        res = RunResult()
        sim = env.sim
        per_client = SECURE_OPS_PER_CLIENT_PER_SECOND * seconds
        bad_replies: List[str] = []
        last_level: Dict[int, int] = {}

        def operator(i: int):
            client, light = env.bench_clients[i], env.bench_lights[i]
            rng = env.rng.py(f"bench.secure.{i}")
            for k in range(per_client):
                yield sim.timeout(rng.expovariate(1.0 / SECURE_THINK_S))
                level = rng.randrange(101)
                command = ACECmdLine("setLevel", level=level)
                t0 = sim.now
                res.attempted += 1
                try:
                    if k % SECURE_FRESH_EVERY == i % SECURE_FRESH_EVERY:
                        reply = yield from client.call_once(light.address, command)
                    else:
                        reply = yield from client.call_pooled(light.address, command)
                except Exception as exc:  # counted and reported, never hidden
                    res.failed += 1
                    bad_replies.append(f"{type(exc).__name__}: {exc}")
                    continue
                if reply.name != "cmdOk" or reply.get("level") != level:
                    res.failed += 1
                    bad_replies.append(reply.to_string())
                    continue
                res.latencies_s.append(sim.now - t0)
                last_level[i] = level

        served_before = [light.commands_served for light in env.bench_lights]
        served_total_before = _served(env)
        metrics_before = env.obs.metrics.snapshot()
        kernel_before = sim.counters()
        net_before = env.net.stats.snapshot()
        procs = [sim.process(operator(i), name=f"operator{i}")
                 for i in range(SECURE_CLIENTS)]
        if tracer is not None:
            tracer.reset()
        t_sim0 = sim.now
        res.host_s, res.ref_s, finished_at = _run_sliced(sim, procs, self.bigint_share)
        _stop_trace(tracer, res)
        res.sim_window_s = finished_at - t_sim0
        self._ledger(env, res, kernel_before, net_before, metrics_before,
                     served_total_before)
        served = [light.commands_served - b
                  for light, b in zip(env.bench_lights, served_before)]

        res.check("no failed ops", res.failed == 0,
                  f"{res.failed} of {res.attempted} failed: {bad_replies[:3]}")
        res.check("no authorization or record-verification failures",
                  not any("denied" in r or "MAC" in r or "Handshake" in r
                          for r in bad_replies), str(bad_replies[:3]))
        res.check("every command served exactly once",
                  served == [per_client] * SECURE_CLIENTS, f"served={served}")
        res.check("each light holds its client's last level",
                  all(env.bench_lights[i].level == last_level.get(i)
                      for i in range(SECURE_CLIENTS)),
                  str([(light.level, last_level.get(i))
                       for i, light in enumerate(env.bench_lights)]))
        return res

    @staticmethod
    def _ledger(env, res, kernel_before, net_before, metrics_before,
                served_before) -> None:
        res.ledger = _ledger(
            len(res.latencies_s), _kernel_deltas(kernel_before, env.sim.counters()),
            net_before, env.net.stats.snapshot(),
            _metric_deltas(metrics_before, env.obs.metrics.snapshot()),
            _served(env) - served_before)


def _run_sliced(sim, procs, bigint_share: float) -> tuple:
    """Run the kernel in calibrated slices until every workload process
    has finished; returns (raw host s, reference host s, the simulated
    time the last one finished)."""
    finished: List[float] = []

    def join():
        yield sim.all_of(procs)
        finished.append(sim.now)

    sim.process(join(), name="bench-join")
    clock = HostClock(bigint_share)
    while not finished:
        clock.slice(lambda: sim.run(until=sim.now + SLICE_SIM_S))
    return clock.raw_s, clock.ref_s, finished[0]


# ---------------------------------------------------------------------------
# store-rw
# ---------------------------------------------------------------------------

STORE_CLIENTS = 8
STORE_OPS_PER_CLIENT_PER_SECOND = 150
STORE_KEYS = 4096
STORE_ZIPF_S = 1.0
STORE_PUT_SHARE = 0.3
STORE_THINK_S = 0.02
#: keys re-read from every replica after the run to check convergence
STORE_CONVERGENCE_KEYS = 48


class StoreRw:
    """A 2-group x 3-replica persistent store; ``store_client``\\ s in a
    closed loop issue 30% ``put`` / 70% ``get`` on Zipf-skewed keys."""

    name = "store-rw"
    latency_limit_ms = 20.0
    setups = 15
    repetitions = 3
    bigint_share = 0.0
    loop = f"closed, {STORE_CLIENTS} clients, think {STORE_THINK_S * 1e3:.0f} ms"

    def offered_load(self, seconds: int) -> str:
        return (f"{STORE_CLIENTS} clients x "
                f"{STORE_OPS_PER_CLIENT_PER_SECOND * seconds} ops, "
                f"{STORE_PUT_SHARE:.0%} put, Zipf s={STORE_ZIPF_S} over "
                f"{STORE_KEYS} keys")

    def setup(self, seed: int, seconds: int, tracer=None) -> ACEEnvironment:
        env = ACEEnvironment(seed=seed, trace=False,
                             net_kwargs={"jitter_frac": NET_JITTER})
        env.add_infrastructure("infra", with_wss=False, with_idmon=False)
        env.add_persistent_store(replicas=3, groups=2)
        desk = env.add_workstation("desk", monitors=False)
        env.bench_clients = [env.store_client(desk, principal=f"sc{i}")
                             for i in range(STORE_CLIENTS)]
        env.boot()
        return env

    def close(self, env: ACEEnvironment) -> None:
        pass

    def run(self, env: ACEEnvironment, seed: int, seconds: int,
            tracer=None, span_path: str = "") -> RunResult:
        res = RunResult()
        sim = env.sim
        per_client = STORE_OPS_PER_CLIENT_PER_SECOND * seconds
        weights = [1.0 / (k + 1) ** STORE_ZIPF_S for k in range(STORE_KEYS)]
        cumulative = []
        total = 0.0
        for w in weights:
            total += w
            cumulative.append(total)
        issued: Dict[str, set] = {}           # path -> values ever put
        versions: Dict[str, list] = {}        # path -> [(Version, value)]
        stale_reads: List[str] = []
        put_lat: List[float] = []
        get_lat: List[float] = []

        def worker(i: int):
            client = env.bench_clients[i]
            rng = env.rng.py(f"bench.store.{i}")
            for k in range(per_client):
                yield sim.timeout(rng.expovariate(1.0 / STORE_THINK_S))
                key = bisect.bisect_left(cumulative, rng.random() * total)
                path = f"/bench/k{key}"
                is_put = rng.random() < STORE_PUT_SHARE
                t0 = sim.now
                res.attempted += 1
                try:
                    if is_put:
                        value = f"c{i}.{k}"
                        issued.setdefault(path, set()).add(value)
                        version = yield from client.put(path, {"v": value})
                        versions.setdefault(path, []).append(
                            (Version.from_wire(version), value))
                    else:
                        attrs = yield from client.get(path)
                        if attrs is not None and attrs.get("v") not in issued.get(path, ()):
                            stale_reads.append(f"{path}={attrs}")
                except Exception as exc:  # counted and reported, never hidden
                    res.failed += 1
                    stale_reads.append(f"{type(exc).__name__}: {exc}")
                    continue
                elapsed = sim.now - t0
                res.latencies_s.append(elapsed)
                (put_lat if is_put else get_lat).append(elapsed)

        metrics_before = env.obs.metrics.snapshot()
        kernel_before = sim.counters()
        net_before = env.net.stats.snapshot()
        served_before = _served(env)
        procs = [sim.process(worker(i), name=f"store-worker{i}")
                 for i in range(STORE_CLIENTS)]
        if tracer is not None:
            tracer.reset()
        t_sim0 = sim.now
        res.host_s, res.ref_s, finished_at = _run_sliced(sim, procs, self.bigint_share)
        _stop_trace(tracer, res)
        res.sim_window_s = finished_at - t_sim0
        SecureRpc._ledger(env, res, kernel_before, net_before, metrics_before,
                          served_before)
        res.ledger["puts"] = len(put_lat)
        res.ledger["gets"] = len(get_lat)
        res.layer["put_latencies_s"] = put_lat
        res.layer["get_latencies_s"] = get_lat

        res.check("no failed ops", res.failed == 0,
                  f"{res.failed} of {res.attempted} failed")
        res.check("every get returns a value some put wrote to that key",
                  not stale_reads, str(stale_reads[:3]))
        res.check("puts and gets both ran", put_lat and get_lat)
        self._check_convergence(env, res, versions)
        return res

    @staticmethod
    def _check_convergence(env, res: RunResult, versions: Dict[str, list]) -> None:
        """After replication settles, every replica of a key returns the
        newest completed write (last-writer-wins by version)."""
        env.run_for(12.0)
        busiest = sorted(versions, key=lambda p: (-len(versions[p]), p))
        paths = busiest[:STORE_CONVERGENCE_KEYS]
        expected = {p: max(versions[p])[1] for p in paths}
        desk = env.net.host("desk")
        checker = env.store_client(desk, principal="bench-check")
        wrong: List[str] = []

        def read_all():
            for path in paths:
                for _ in range(3):  # reads rotate over the group's 3 replicas
                    attrs = yield from checker.get(path)
                    got = attrs.get("v") if attrs else None
                    if got != expected[path]:
                        wrong.append(f"{path}: {got} != {expected[path]}")

        env.run(read_all(), timeout=600.0)
        res.check("replicas converge to the newest write",
                  not wrong and bool(paths), f"{len(wrong)} mismatches: {wrong[:3]}")


WORKLOADS: Dict[str, Any] = {
    "campus-sessions": Campus("campus-sessions", 1),
    "secure-rpc": SecureRpc(),
    "store-rw": StoreRw(),
    "campus-2shard": Campus("campus-2shard", 2),
}
