"""E24 — hot-path performance: kernel fast path + codec fast lane (tracked).

The two loops every experiment in this reproduction runs on are the
`repro.sim` event kernel and the `repro.lang` command codec.  E24 pins
their performance to a machine-readable baseline:

* **kernel microbench** — four scheduler-bound scenarios (zero-delay event
  churn, process chains over already-processed events, an interrupt storm,
  a process spawn storm), each with a heap of pending heartbeat-style
  timers as ballast (that is what a real environment's heap looks like —
  E18 runs thousands of leases/heartbeats).  Each scenario runs on the old
  heap-only path (``Simulator(fastpath=False)``) and the ready-queue fast
  path, measured in delivered events per wall second via
  :class:`repro.obs.ProfileScope`.
* **codec sweep** — E1's flat-form command lines through the full
  tokenizer/parser vs the fast-lane ``parse_command``, plus a vector-form
  call to show the fallback costs nothing it didn't already cost.
* **Scenario-1 macro run** — the §7.1 new-user story end to end on both
  kernel paths, with the kernel counters proving the fast path actually
  carried the run.

Results are written to ``BENCH_E24.json`` (to ``ACE_BENCH_ARTIFACT_DIR``
when set — the CI artifact — else to the repo root, which is the committed
perf trajectory).  The regression guard compares the measured *speedup
ratios* against the committed baseline — ratios are machine-independent,
absolute events/sec are not — and fails the run under ``ACE_BENCH_GUARD=1``
when a ratio drops more than 20% below the baseline; otherwise it warns.

Set ``ACE_BENCH_SHORT=1`` for a CI-sized run.
"""

import os
import time

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine
from repro.lang.parser import parse_command, parse_command_full
from repro.metrics import ResultTable
from repro.obs import ProfileScope
from repro.sim import Interrupt, Simulator
from repro.sim.kernel import NORMAL

from benchmarks.tracked import SHORT, enforce, load_baseline, write_report

BALLAST = 1000 if SHORT else 4000
REPEATS = 2 if SHORT else 3
SIZES = {
    "event_churn": 20_000 if SHORT else 200_000,
    "process_chain": 6_000 if SHORT else 60_000,
    "interrupt_storm": 4_000 if SHORT else 30_000,
    "spawn_storm": 5_000 if SHORT else 50_000,
}

#: acceptance targets (ISSUE 4); the committed baseline must clear these
KERNEL_SPEEDUP_MIN = 1.5
PARSE_SPEEDUP_MIN = 2.0
#: in-test floors, slacker than the committed-baseline targets so a noisy
#: shared CI runner doesn't flake the suite
KERNEL_SPEEDUP_FLOOR = 1.1 if SHORT else 1.35
PARSE_SPEEDUP_FLOOR = 2.0

BASELINE = "BENCH_E24.json"


# ---------------------------------------------------------------------------
# Kernel microbench scenarios
# ---------------------------------------------------------------------------

def _ballasted(fastpath: bool) -> Simulator:
    """A simulator with a realistic heap of far-future timers pending."""
    sim = Simulator(fastpath=fastpath)
    for i in range(BALLAST):
        sim.timeout(1e6 + i)
    return sim


def _scn_event_churn(fastpath: bool) -> ProfileScope:
    """Zero-delay trigger/deliver cycles through callbacks — the pattern
    queue hand-offs and notification fan-outs produce."""
    n = SIZES["event_churn"]
    sim = _ballasted(fastpath)
    count = [0]

    def relight(_ev):
        count[0] += 1
        if count[0] < n:
            sim.event().succeed(1, priority=NORMAL).callbacks.append(relight)

    sim.event().succeed(0).callbacks.append(relight)
    with ProfileScope("event_churn", sim=sim, profile=False) as scope:
        sim.run(until=0.0)
    assert count[0] == n
    return scope


def _scn_process_chain(fastpath: bool) -> ProfileScope:
    """Short-lived processes yielding already-processed events and
    zero-delay timeouts — the relay-allocation hot case."""
    n = SIZES["process_chain"]
    sim = _ballasted(fastpath)

    def link(depth):
        ev = sim.event()
        ev.succeed(depth)
        got = yield ev          # triggered, delivered while we wait
        yield sim.timeout(0)    # zero-delay timeout
        return got

    def driver():
        for i in range(n):
            yield sim.process(link(i))
        return n

    with ProfileScope("process_chain", sim=sim, profile=False) as scope:
        assert sim.run_process(driver()) == n
    return scope


def _scn_interrupt_storm(fastpath: bool) -> ProfileScope:
    """One long sleeper interrupted over and over — the kick-event case."""
    n = SIZES["interrupt_storm"]
    sim = _ballasted(fastpath)

    def sleeper():
        hits = 0
        while True:
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                hits += 1
                if hits >= n:
                    return hits

    def poker(target):
        for _ in range(n):
            target.interrupt("poke")
            yield sim.timeout(0)

    target = sim.process(sleeper())
    sim.process(poker(target))

    def waiter():
        return (yield target)

    with ProfileScope("interrupt_storm", sim=sim, profile=False) as scope:
        assert sim.run_process(waiter()) == n
    return scope


def _scn_spawn_storm(fastpath: bool) -> ProfileScope:
    """Spawn-and-join of trivial processes — the bootstrap-event case."""
    n = SIZES["spawn_storm"]
    sim = _ballasted(fastpath)

    def leaf(i):
        return i
        yield  # pragma: no cover - makes it a generator

    def driver():
        for i in range(n):
            yield sim.process(leaf(i))
        return n

    with ProfileScope("spawn_storm", sim=sim, profile=False) as scope:
        assert sim.run_process(driver()) == n
    return scope


_KERNEL_SCENARIOS = {
    "event_churn": _scn_event_churn,
    "process_chain": _scn_process_chain,
    "interrupt_storm": _scn_interrupt_storm,
    "spawn_storm": _scn_spawn_storm,
}


def run_kernel_microbench() -> dict:
    """Best-of-``REPEATS`` events/sec per scenario on both kernel paths."""
    results: dict = {"scenarios": {}, "counters": {}}
    slow_total_ev = fast_total_ev = 0
    slow_total_s = fast_total_s = 0.0
    for name, scenario in _KERNEL_SCENARIOS.items():
        slow_best = fast_best = None
        for _ in range(REPEATS):
            slow = scenario(False)
            fast = scenario(True)
            if slow_best is None or slow.events_per_s > slow_best.events_per_s:
                slow_best = slow
            if fast_best is None or fast.events_per_s > fast_best.events_per_s:
                fast_best = fast
        # The two paths must do the same logical work (same total order ⇒
        # same number of schedules/deliveries).
        assert slow_best.counters["events_scheduled"] == fast_best.counters["events_scheduled"]
        assert slow_best.counters["events_delivered"] == fast_best.counters["events_delivered"]
        assert slow_best.counters["ready_hits"] == 0
        assert fast_best.counters["heap_pushes"] <= BALLAST + 1 + SIZES[name]
        results["scenarios"][name] = {
            "slow_events_per_s": round(slow_best.events_per_s),
            "fast_events_per_s": round(fast_best.events_per_s),
            "speedup": round(fast_best.events_per_s / slow_best.events_per_s, 3),
        }
        results["counters"][name] = dict(fast_best.counters)
        slow_total_ev += slow_best.counters["events_delivered"]
        fast_total_ev += fast_best.counters["events_delivered"]
        slow_total_s += slow_best.wall_s
        fast_total_s += fast_best.wall_s
    slow_agg = slow_total_ev / slow_total_s
    fast_agg = fast_total_ev / fast_total_s
    results["aggregate"] = {
        "slow_events_per_s": round(slow_agg),
        "fast_events_per_s": round(fast_agg),
        "speedup": round(fast_agg / slow_agg, 3),
    }
    return results


# ---------------------------------------------------------------------------
# Codec sweep (E1's workload)
# ---------------------------------------------------------------------------

CODEC_CALLS = [
    ("power-toggle", ACECmdLine("power", state="on"), True),
    ("ptz-set-position", ACECmdLine("setPosition", x=1.25, y=2.5, z=0.75), True),
    ("asd-register",
     ACECmdLine("register", name="camera.hawk", host="podium", port=10234,
                room="hawk", cls="ACEService/Device/PTZCamera/VCC4"),
     True),
    ("calibration-matrix",
     ACECmdLine("calibrate", m=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
     False),  # vector/array form: fast lane must fall back, not win
]


def _parse_rate(fn, text: str, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn(text)
    return n / (time.perf_counter() - t0)


def run_codec_sweep() -> dict:
    n = 2_000 if SHORT else 20_000
    results: dict = {"calls": {}}
    flat_full = flat_fast = 0.0
    flat_count = 0
    for name, command, flat in CODEC_CALLS:
        text = command.to_string()
        assert parse_command(text) == parse_command_full(text) == command
        full_best = max(_parse_rate(parse_command_full, text, n) for _ in range(REPEATS))
        fast_best = max(_parse_rate(parse_command, text, n) for _ in range(REPEATS))
        results["calls"][name] = {
            "flat": flat,
            "full_per_s": round(full_best),
            "fast_per_s": round(fast_best),
            "speedup": round(fast_best / full_best, 3),
        }
        if flat:
            flat_full += 1.0 / full_best
            flat_fast += 1.0 / fast_best
            flat_count += 1
    results["flat_aggregate"] = {
        "full_per_s": round(flat_count / flat_full),
        "fast_per_s": round(flat_count / flat_fast),
        "speedup": round(flat_full / flat_fast, 3),
    }
    return results


# ---------------------------------------------------------------------------
# Scenario-1 macro run
# ---------------------------------------------------------------------------

def run_scenario1(fastpath: bool) -> ProfileScope:
    previous = os.environ.get("ACE_KERNEL_FASTPATH")
    os.environ["ACE_KERNEL_FASTPATH"] = "1" if fastpath else "0"
    try:
        env = standard_environment(seed=224).boot()
        with ProfileScope("scenario1", sim=env.sim, profile=False) as scope:
            result = env.run(scenario_1_new_user(env))
        assert result["workspace"]
        return scope
    finally:
        if previous is None:
            os.environ.pop("ACE_KERNEL_FASTPATH", None)
        else:
            os.environ["ACE_KERNEL_FASTPATH"] = previous


def run_scenario1_macro() -> dict:
    slow = min((run_scenario1(False) for _ in range(REPEATS)), key=lambda s: s.wall_s)
    fast = min((run_scenario1(True) for _ in range(REPEATS)), key=lambda s: s.wall_s)
    # The fast path must actually carry the run...
    assert fast.counters["ready_hits"] > 0
    assert fast.counters["relays_avoided"] > 0
    assert slow.counters["ready_hits"] == 0
    # ...and do the identical logical work.
    assert slow.counters["events_scheduled"] == fast.counters["events_scheduled"]
    return {
        "sim_s": round(fast.sim_s, 6),
        "slow_wall_s": round(slow.wall_s, 4),
        "fast_wall_s": round(fast.wall_s, 4),
        "speedup": round(slow.wall_s / fast.wall_s, 3),
        "counters": dict(fast.counters),
    }


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

def _check_against_baseline(report: dict) -> list:
    """Compare measured speedup ratios with the committed baseline; returns
    a list of regression messages (empty when clean or no baseline)."""
    baseline = load_baseline(BASELINE)
    problems = []
    checks = [
        ("kernel aggregate", report["kernel"]["aggregate"]["speedup"],
         baseline.get("kernel", {}).get("aggregate", {}).get("speedup")),
        ("codec flat aggregate", report["codec"]["flat_aggregate"]["speedup"],
         baseline.get("codec", {}).get("flat_aggregate", {}).get("speedup")),
    ]
    for label, measured, committed in checks:
        if not committed:
            continue
        drop = (committed - measured) / committed
        if drop > 0.20:
            problems.append(
                f"{label} speedup {measured:.2f}x is {drop:.0%} below the "
                f"committed baseline {committed:.2f}x"
            )
    return problems


def test_e24_hotpath(benchmark, table_printer):
    def run():
        return {
            "experiment": "E24",
            "short": SHORT,
            "targets": {
                "kernel_speedup_min": KERNEL_SPEEDUP_MIN,
                "parse_speedup_min": PARSE_SPEEDUP_MIN,
            },
            "kernel": run_kernel_microbench(),
            "codec": run_codec_sweep(),
            "scenario1": run_scenario1_macro(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    kt = table_printer(ResultTable(
        f"E24: kernel microbench, heap-only vs ready-queue path "
        f"(ballast={BALLAST}, best of {REPEATS})",
        ["scenario", "slow_ev_per_s", "fast_ev_per_s", "speedup"],
    ))
    for name, row in report["kernel"]["scenarios"].items():
        kt.add(name, row["slow_events_per_s"], row["fast_events_per_s"],
               f'{row["speedup"]:.2f}x')
    agg = report["kernel"]["aggregate"]
    kt.add("aggregate", agg["slow_events_per_s"], agg["fast_events_per_s"],
           f'{agg["speedup"]:.2f}x')

    ct = table_printer(ResultTable(
        "E24: codec, full parser vs fast lane",
        ["call", "full_per_s", "fast_per_s", "speedup"],
    ))
    for name, row in report["codec"]["calls"].items():
        ct.add(name, row["full_per_s"], row["fast_per_s"], f'{row["speedup"]:.2f}x')
    flat = report["codec"]["flat_aggregate"]
    ct.add("flat aggregate", flat["full_per_s"], flat["fast_per_s"],
           f'{flat["speedup"]:.2f}x')

    s1 = report["scenario1"]
    st = table_printer(ResultTable(
        "E24: Scenario 1 macro run (wall s)",
        ["path", "wall_s", "ready_hits", "relays_avoided"],
    ))
    st.add("heap-only", s1["slow_wall_s"], 0, 0)
    st.add("fast", s1["fast_wall_s"], s1["counters"]["ready_hits"],
           s1["counters"]["relays_avoided"])

    # Shape assertions (floors are slacker than the committed targets so a
    # noisy shared runner doesn't flake; the committed BENCH_E24.json is
    # what must clear the ISSUE's 1.5x / 2x).
    assert agg["speedup"] >= KERNEL_SPEEDUP_FLOOR, (
        f"kernel fast path only {agg['speedup']:.2f}x (floor {KERNEL_SPEEDUP_FLOOR}x)")
    assert flat["speedup"] >= PARSE_SPEEDUP_FLOOR, (
        f"codec fast lane only {flat['speedup']:.2f}x (floor {PARSE_SPEEDUP_FLOOR}x)")
    # The vector-form call must not regress: the fallback adds one failed
    # regex match, so parity within noise.
    vec = report["codec"]["calls"]["calibration-matrix"]
    assert vec["speedup"] > 0.7, f"fallback regressed vectors: {vec}"
    # The macro run must not be slower on the fast path (it is dominated by
    # non-kernel work, so just require no regression beyond noise).
    assert s1["speedup"] > 0.85, f"scenario 1 regressed: {s1}"

    # Perf-regression guard against the committed trajectory.
    enforce(BASELINE, _check_against_baseline(report))
    write_report(BASELINE, report)
