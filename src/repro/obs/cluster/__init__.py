"""`repro.obs.cluster` — the E27 cluster telemetry plane.

PR 2 gave every daemon local counters and causal traces; this package is
the layer that can see the *cluster*.  A per-host
:class:`~repro.obs.cluster.publisher.TelemetryPublisherDaemon` captures
the host's :class:`~repro.obs.TelemetryScope` slices of the shared
metrics registry and delta-pushes them (jittered interval, sparse
changed-only rows) to the
:class:`~repro.obs.cluster.aggregator.TelemetryAggregatorDaemon` — an
ordinary ACE daemon, discoverable via the ASD and supervisable via the
PR 6 recovery plane — which keeps per-(service, address, incarnation)
series, merges histograms exactly (identical bucket bounds, summed
counts), evaluates declarative :class:`~repro.obs.cluster.slo.SLOSpec`
objectives with multi-window burn-rate alerting routed through the
notification plane, and serves the whole picture to operators as a
:class:`~repro.obs.cluster.snapshot.ClusterSnapshot`
(``python -m repro.obs.status``).

Everything rides the existing wire protocol (``obsPush``/``obsScrape``/
``obsSummary``/``obsAlert`` commands with :mod:`repro.lang.wire` encoded
rows); with telemetry off nothing here is constructed and the wire is
byte-identical to pre-E27 traffic.
"""

from repro.obs.cluster.alerts import (
    alert_from_command,
    alert_from_payload,
    alert_to_command,
    is_fast_burn,
)
from repro.obs.cluster.merge import (
    MergeError,
    ScopeSnapshot,
    decode_scopes,
    encode_scope,
    merge_histograms,
)
from repro.obs.cluster.publisher import TelemetryPublisherDaemon
from repro.obs.cluster.aggregator import TelemetryAggregatorDaemon
from repro.obs.cluster.slo import SLOEngine, SLOSpec, default_slos
from repro.obs.cluster.snapshot import ClusterSnapshot

__all__ = [
    "ClusterSnapshot",
    "MergeError",
    "SLOEngine",
    "SLOSpec",
    "ScopeSnapshot",
    "TelemetryAggregatorDaemon",
    "TelemetryPublisherDaemon",
    "alert_from_command",
    "alert_from_payload",
    "alert_to_command",
    "decode_scopes",
    "default_slos",
    "encode_scope",
    "is_fast_burn",
    "merge_histograms",
]
