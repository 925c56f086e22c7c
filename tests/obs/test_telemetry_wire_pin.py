"""Pinned telemetry wire: every ``encode_scope`` row and the operator
snapshot JSON of two small fixed-seed runs.

The E27 plane's wire rows are what publishers and aggregators exchange,
so their bytes are a compatibility contract.  The hashes below were
taken before the histogram snapshot type was folded into
:class:`repro.obs.registry.Histogram`; any change to how histograms are
frozen, diffed, rebased or encoded shows up here as a hash change.
"""

import hashlib

import pytest

import repro.obs.cluster.publisher as publisher
from repro.lang import ACECmdLine
from repro.lang.command import is_ok
from repro.obs.cluster import ClusterSnapshot
from tests.obs.test_telemetry_plane import INTERVAL, SUSPICION, build, echo_burst

#: (rows emitted, sha256 over the rows, sha256 of ClusterSnapshot.to_json())
PINNED = {
    "echo": (
        265,
        "1f8c9921170f9d6abfed33af1f7419b05d59d7ec8e5594943a1bdafa51017afe",
        "933154a68673e0df39a63993300ffb47a130a510f86df5412ee0a465f44dfe45",
    ),
    "restart": (
        694,
        "e0366cd5f779d93e99717816a1ebca58c09cad8d9b3e6edf5bef0eeb3507e89c",
        "13d800d2dea252061617ff4d62b832d05c2d96290287ef14da6cd2642263fdcf",
    ),
}


@pytest.fixture
def recorded_rows(monkeypatch):
    rows = []
    encode = publisher.encode_scope

    def recording(snap, mode=publisher.MODE_FULL):
        out = encode(snap, mode)
        rows.extend(out)
        return out

    monkeypatch.setattr(publisher, "encode_scope", recording)
    return rows


def traced_burst(env, n):
    """Echo calls under a root trace, so histograms carry exemplars."""
    client = env.client(env.net.host("lab1"), principal="probe")
    target = env.daemons["echo"].address

    def flow():
        for i in range(n):
            span = client.begin_trace("probe")
            reply = yield from client.call_resilient(
                target, ACECmdLine("echo", text=f"t{i}"))
            client.end_trace(span)
            assert is_ok(reply)

    env.run(flow())


def _digest(rows, aggregator):
    rows_hash = hashlib.sha256()
    for row in rows:
        rows_hash.update(hashlib.sha256(row.encode()).digest())
    snap_json = ClusterSnapshot.capture(aggregator, topk=3).to_json()
    return len(rows), rows_hash.hexdigest(), hashlib.sha256(snap_json.encode()).hexdigest()


def test_echo_run_rows_and_snapshot_are_pinned(recorded_rows):
    env, aggregator, _ = build(seed=29)
    echo_burst(env, 25)
    env.run_for(4 * INTERVAL)
    assert _digest(recorded_rows, aggregator) == PINNED["echo"]


def test_restart_seam_rows_and_snapshot_are_pinned(recorded_rows):
    """A supervised restart exercises the incarnation rebase
    (``subtract_base``) and exemplar-carrying histograms on the wire."""
    env, aggregator, _ = build(seed=29, supervision=True)
    traced_burst(env, 20)
    env.run_for(2 * INTERVAL)
    env.daemons["echo"].kill()
    env.run_for(SUSPICION + 3.0)
    traced_burst(env, 10)
    echo_burst(env, 5)
    env.run_for(3 * INTERVAL)
    rows_with_exemplars = [
        row for row in recorded_rows
        if row.startswith("H") and not row.endswith("|")
    ]
    assert rows_with_exemplars
    assert _digest(recorded_rows, aggregator) == PINNED["restart"]
