"""Workload generators for the benchmark harness."""

from repro.workloads.chaos import CallRecord, ChaosRunResult, run_chaos_workload
from repro.workloads.clients import (
    closed_loop_clients,
    open_loop_arrivals,
    store_workload,
    user_session_workload,
)
from repro.workloads.population import (
    CompactUserRng,
    PopulationProfile,
    PopulationState,
    collect_population,
    generate_arrivals,
    start_population,
)

__all__ = [
    "CallRecord",
    "ChaosRunResult",
    "CompactUserRng",
    "PopulationProfile",
    "PopulationState",
    "closed_loop_clients",
    "collect_population",
    "generate_arrivals",
    "open_loop_arrivals",
    "run_chaos_workload",
    "start_population",
    "store_workload",
    "user_session_workload",
]
