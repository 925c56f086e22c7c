"""Per-environment metrics registry: counters, gauges, fixed-bucket
histograms, and read-only views.

Everything on the hot path is plain-Python and allocation-light — a
counter increment is one dict hit amortized to an attribute bump (callers
cache the instrument object), and histograms use fixed bucket bounds with
a linear scan (bucket counts are short tuples; no numpy anywhere near the
command dispatch path).

``register_view(name, fn)`` folds externally-owned counters into
:meth:`MetricsRegistry.snapshot` — that is how the resilient RPC layer's
:class:`~repro.metrics.RpcStats` shows up under ``rpc.*`` without moving.

Series cardinality is bounded: per-address/per-principal label explosions
in large topologies evict the least-recently-used instrument instead of
growing without bound, counted by :attr:`MetricsRegistry.dropped_series`.
Histogram bucket bounds are explicit and per-registry configurable so
cross-daemon merges (the E27 telemetry plane) are exact, never
interpolated.
"""

from __future__ import annotations

from collections import OrderedDict
from math import inf
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: default latency bucket upper bounds, seconds (last bucket is +inf)
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: default cap on live instruments per registry; far above any current
#: topology (a 60-daemon environment creates ~800 series) but a hard wall
#: against per-address series growing with simulated fleet size
DEFAULT_MAX_SERIES = 4096


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A value that goes up and down (queue depth, table size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class MergeError(ValueError):
    """Incompatible histograms or telemetry rows (mismatched bucket
    bounds, bad rows)."""


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in the implicit overflow bucket.

    :meth:`observe_ex` additionally pins a trace-exemplar id to the bucket
    the observation landed in, so an operator can jump from "p99 spiked"
    straight to the span tree of a request that actually lived in that
    bucket.  Exemplar storage is bounded by the bucket count and lives
    only in memory — it never changes wire traffic.

    The same type is the telemetry plane's frozen value: the optional
    constructor fields rebuild a histogram from the merge codec's wire
    rows, :meth:`copy` freezes a live instrument, and :meth:`merge` /
    :meth:`subtract_base` are the exact cross-daemon and restart-seam
    arithmetic (bounds must match, counts add, nothing is interpolated).
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum",
                 "exemplars")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 counts: Optional[Sequence[int]] = None, total: float = 0.0,
                 minimum: float = inf, maximum: float = -inf,
                 exemplars: Optional[Dict[int, Tuple[str, float]]] = None):
        self.bounds = tuple(float(b) for b in bounds)
        if any(b1 >= b2 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        if counts is None:
            self.counts = [0] * (len(self.bounds) + 1)
        else:
            self.counts = list(counts)
            if len(self.counts) != len(self.bounds) + 1:
                raise MergeError("histogram counts/bounds length mismatch")
        self.count = sum(self.counts)
        self.total = float(total)
        self.minimum = minimum
        self.maximum = maximum
        #: bucket index -> (trace_id, value) of the latest traced
        #: observation that landed there (None until first exemplar)
        self.exemplars: Optional[Dict[int, Tuple[str, float]]] = (
            dict(exemplars) if exemplars else None
        )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def bucket_index(self, value: float) -> int:
        """The bucket an observation of ``value`` lands in."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def observe_ex(self, value: float, trace_id: str) -> None:
        """:meth:`observe`, plus record ``trace_id`` as the exemplar for
        the bucket the value lands in (latest write wins per bucket)."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        idx = self.bucket_index(value)
        self.counts[idx] += 1
        if trace_id:
            if self.exemplars is None:
                self.exemplars = {}
            self.exemplars[idx] = (trace_id, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the bucket holding
        the q-th observation, the observed max for the overflow bucket);
        0 when empty."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for i, n in enumerate(self.counts):
            running += n
            if running >= target:
                return self.bounds[i] if i < len(self.bounds) else self.maximum
        return self.maximum

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.maximum if self.count else 0.0,
        }

    # -- frozen-value arithmetic (the telemetry plane) ----------------------
    def copy(self) -> "Histogram":
        return Histogram(self.bounds, self.counts, self.total, self.minimum,
                         self.maximum, self.exemplars)

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other`` into this histogram (exact; bounds must match)."""
        if other.bounds != self.bounds:
            raise MergeError(
                f"cannot merge histograms with bounds {self.bounds} "
                f"and {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        # Latest write wins per bucket; any exemplar beats none.
        if other.exemplars:
            if self.exemplars is None:
                self.exemplars = {}
            self.exemplars.update(other.exemplars)
        return self

    def subtract_base(self, base: "Histogram") -> "Histogram":
        """This histogram minus a frozen base (the incarnation-seam
        rebasing: shared instruments never reset in-sim, so a restarted
        daemon's fresh series is current-minus-base).  Bucket counts clamp
        at zero; extrema cannot be un-observed, so they stay as currently
        observed."""
        if base.bounds != self.bounds:
            raise MergeError("rebase with mismatched bounds")
        counts = [max(c - b, 0) for c, b in zip(self.counts, base.counts)]
        return Histogram(self.bounds, counts, max(self.total - base.total, 0.0),
                         self.minimum, self.maximum, self.exemplars)

    def slowest_exemplar(self) -> Optional[Tuple[str, float]]:
        """The exemplar pinned to the highest occupied bucket, if any."""
        if not self.exemplars:
            return None
        return self.exemplars[max(self.exemplars)]

    def __eq__(self, other) -> bool:
        """Same bounds, bucket counts, sum and exemplars (no exemplars and
        an empty exemplar map are equal).  Extrema are not compared: they
        only move with an observation, which moves the counts too."""
        return (
            isinstance(other, Histogram)
            and self.bounds == other.bounds
            and self.counts == other.counts
            and self.total == other.total
            and (self.exemplars or {}) == (other.exemplars or {})
        )


class MetricsRegistry:
    """Name → instrument store with a cheap flattened snapshot.

    ``max_series`` bounds live-instrument cardinality: creating an
    instrument past the cap evicts the least-recently-*fetched* one and
    bumps :attr:`dropped_series` (a caller holding the evicted object can
    keep updating it, but the registry no longer reports it — exactly the
    behaviour wanted for per-address series in huge topologies).

    ``default_buckets`` makes the environment-wide histogram bounds
    explicit; per-instrument ``bounds`` passed to :meth:`histogram` must
    agree with what the instrument was created with, so two daemons can
    never feed one series with incompatible bucket layouts (cross-daemon
    merges stay exact).
    """

    def __init__(
        self,
        *,
        max_series: int = DEFAULT_MAX_SERIES,
        default_buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.max_series = max_series
        self.default_buckets = tuple(float(b) for b in default_buckets)
        self.dropped_series = 0
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._views: Dict[str, Callable[[], Dict[str, Any]]] = {}
        #: LRU order over (kind, name); OrderedDict used as an ordered set
        self._lru: "OrderedDict[Tuple[str, str], None]" = OrderedDict()

    def _touch(self, kind: str, name: str) -> None:
        self._lru.move_to_end((kind, name))

    def _admit(self, kind: str, name: str) -> None:
        self._lru[(kind, name)] = None
        while len(self._lru) > self.max_series:
            old_kind, old_name = self._lru.popitem(last=False)[0]
            if old_kind == "c":
                self._counters.pop(old_name, None)
            elif old_kind == "g":
                self._gauges.pop(old_name, None)
            else:
                self._histograms.pop(old_name, None)
            self.dropped_series += 1

    # -- get-or-create (callers cache the returned object) -----------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
            self._admit("c", name)
        else:
            self._touch("c", name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
            self._admit("g", name)
        else:
            self._touch("g", name)
        return inst

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(bounds or self.default_buckets)
            self._admit("h", name)
        else:
            self._touch("h", name)
            if bounds is not None and tuple(float(b) for b in bounds) != inst.bounds:
                raise ValueError(
                    f"histogram {name!r} already exists with bounds "
                    f"{inst.bounds}, conflicting request {tuple(bounds)}"
                )
        return inst

    def register_view(self, name: str, fn: Callable[[], Dict[str, Any]]) -> None:
        """Fold an external ``fn() -> dict`` under ``<name>.*`` at snapshot
        time (e.g. the RPC layer's RpcStats)."""
        self._views[name] = fn

    # -- reading -----------------------------------------------------------
    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Flat name → value dict (histograms flatten to ``name.count`` /
        ``name.mean`` / percentiles), filtered by ``prefix``."""
        out: Dict[str, Any] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            for key, value in h.snapshot().items():
                out[f"{name}.{key}"] = value
        for name, fn in self._views.items():
            for key, value in fn().items():
                out[f"{name}.{key}"] = value
        if self.dropped_series:
            out["obs.dropped_series"] = self.dropped_series
        if prefix:
            out = {k: v for k, v in out.items() if k.startswith(prefix)}
        return out

    def export_scope(
        self, prefix: str
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Histogram]]:
        """Structured ``(counters, gauges, histograms)`` for every
        instrument under ``prefix``, with the prefix stripped from names.

        Unlike :meth:`snapshot` this keeps histograms whole (bounds +
        per-bucket counts + exemplars) so the telemetry plane can merge
        them exactly across daemons.  The returned ``Histogram`` objects
        are the live instruments — read-only use only.
        """
        cut = len(prefix)
        counters = {
            name[cut:]: c.value
            for name, c in self._counters.items() if name.startswith(prefix)
        }
        gauges = {
            name[cut:]: g.value
            for name, g in self._gauges.items() if name.startswith(prefix)
        }
        histograms = {
            name[cut:]: h
            for name, h in self._histograms.items() if name.startswith(prefix)
        }
        return counters, gauges, histograms

    def names(self) -> List[str]:
        return sorted(self.snapshot())
