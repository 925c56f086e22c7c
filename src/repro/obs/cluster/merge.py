"""Mergeable metric snapshots, delta codec, and exact histogram merging.

The unit of transfer is the *scope snapshot*: every instrument under one
:class:`~repro.obs.TelemetryScope`, captured with values frozen, keyed by
``(service, address, incarnation)``.  Snapshots encode to ``|``-escaped
:mod:`repro.lang.wire` rows carried as a VECTOR argument of the
``obsPush``/``obsScrape`` commands:

* ``S|service|address|incarnation|mode`` — scope header
  (``full``/``delta``/``same``; ``same`` is a header-only heartbeat)
* ``C|name|value`` — counter (absolute value)
* ``G|name|value`` — gauge
* ``H|name|bounds|counts|total|min|max|exemplars`` — a
  :class:`~repro.obs.registry.Histogram` with explicit bucket bounds,
  per-bucket counts, and ``idx:trace:value`` exemplar triples

Delta encoding is *sparse-absolute*: a delta row set carries only the
instruments that changed since the last acknowledged push, each with its
absolute value.  Applying deltas in order over a full snapshot therefore
reproduces the current state exactly — including counter resets, which
are just absolute values lower than before (no increment arithmetic to
get wrong).  Histogram merging requires identical bucket bounds (the
registry enforces them per-name) and is exact: counts add, no
interpolation.
"""

from __future__ import annotations

from math import inf, isinf
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lang.wire import join_wire, split_wire
from repro.obs.registry import Histogram, MergeError

MODE_FULL = "full"
MODE_DELTA = "delta"
#: header-only heartbeat: "this series is unchanged but still alive", so
#: aggregator freshness tracks publisher liveness, not metric churn
MODE_SAME = "same"


def _num(value) -> str:
    """Round-trippable numeric text (ints stay ints)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _parse_num(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def merge_histograms(items: Iterable[Histogram]) -> Optional[Histogram]:
    """Exactly merge histograms (same bounds) into one; None when empty."""
    merged: Optional[Histogram] = None
    for item in items:
        if merged is None:
            merged = item.copy()
        else:
            merged.merge(item)
    return merged


class ScopeSnapshot:
    """Every instrument of one telemetry scope, values frozen, identity
    tagged ``(service, address, incarnation)``."""

    __slots__ = ("service", "address", "incarnation", "counters", "gauges",
                 "histograms")

    def __init__(self, service: str, address: str, incarnation: int,
                 counters=None, gauges=None, histograms=None):
        self.service = service
        self.address = address
        self.incarnation = incarnation
        self.counters: Dict[str, float] = dict(counters or {})
        self.gauges: Dict[str, float] = dict(gauges or {})
        self.histograms: Dict[str, Histogram] = dict(histograms or {})

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.service, self.address, self.incarnation)

    @classmethod
    def capture(cls, scope, registry) -> "ScopeSnapshot":
        """Freeze the current values of ``scope`` out of ``registry``."""
        if scope.provider is not None:
            counters, gauges, live = scope.provider()
        else:
            counters, gauges, live = registry.export_scope(scope.prefix)
        return cls(
            scope.service, scope.address, scope.incarnation,
            dict(counters), dict(gauges),
            {name: h.copy() for name, h in live.items()},
        )

    def copy(self) -> "ScopeSnapshot":
        return ScopeSnapshot(
            self.service, self.address, self.incarnation,
            dict(self.counters), dict(self.gauges),
            {name: h.copy() for name, h in self.histograms.items()},
        )

    def rebase(self, base: "ScopeSnapshot") -> "ScopeSnapshot":
        """Subtract a frozen previous-incarnation ``base`` so this series
        starts near zero (gauges are instantaneous — not rebased)."""
        counters = {
            name: value - base.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        histograms = {}
        for name, hist in self.histograms.items():
            old = base.histograms.get(name)
            histograms[name] = (
                hist.subtract_base(old)
                if old is not None and old.bounds == hist.bounds else hist.copy()
            )
        return ScopeSnapshot(
            self.service, self.address, self.incarnation,
            counters, dict(self.gauges), histograms,
        )

    def diff(self, prev: "ScopeSnapshot") -> Optional["ScopeSnapshot"]:
        """Sparse delta vs ``prev``: only changed instruments, absolute
        values.  None when nothing changed."""
        counters = {
            n: v for n, v in self.counters.items() if prev.counters.get(n) != v
        }
        gauges = {
            n: v for n, v in self.gauges.items() if prev.gauges.get(n) != v
        }
        histograms = {}
        for name, hist in self.histograms.items():
            old = prev.histograms.get(name)
            if old != hist:
                histograms[name] = hist
        if not counters and not gauges and not histograms:
            return None
        return ScopeSnapshot(
            self.service, self.address, self.incarnation,
            counters, gauges, histograms,
        )

    def apply(self, delta: "ScopeSnapshot") -> None:
        """Overwrite with a sparse delta (absolute values, so counter
        resets apply correctly)."""
        self.counters.update(delta.counters)
        self.gauges.update(delta.gauges)
        for name, hist in delta.histograms.items():
            self.histograms[name] = hist.copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScopeSnapshot)
            and self.key == other.key
            and self.counters == other.counters
            and self.gauges == other.gauges
            and self.histograms == other.histograms
        )

    def __repr__(self) -> str:
        return (
            f"ScopeSnapshot({self.service}@{self.address}#{self.incarnation}: "
            f"{len(self.counters)}c/{len(self.gauges)}g/{len(self.histograms)}h)"
        )


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------
def _hist_to_row(name: str, hist: Histogram) -> str:
    # ``idx:trace:value`` triples; trace ids are deterministic ``t<n>``
    # tokens but parsing still tolerates embedded ``:`` via split-once /
    # rsplit-once on the numeric ends.
    exemplars = " ".join(
        f"{i}:{trace}:{_num(value)}"
        for i, (trace, value) in sorted((hist.exemplars or {}).items())
    )
    return join_wire((
        "H", name,
        " ".join(_num(b) for b in hist.bounds),
        " ".join(str(c) for c in hist.counts),
        _num(hist.total),
        "" if isinf(hist.minimum) else _num(hist.minimum),
        "" if isinf(hist.maximum) else _num(hist.maximum),
        exemplars,
    ))


def _hist_from_row(fields: List[str]) -> Tuple[str, Histogram]:
    name, bounds, counts, total, minimum, maximum, exemplars = fields
    ex: Dict[int, Tuple[str, float]] = {}
    if exemplars:
        for triple in exemplars.split(" "):
            idx, rest = triple.split(":", 1)
            trace, value = rest.rsplit(":", 1)
            ex[int(idx)] = (trace, float(_parse_num(value)))
    return name, Histogram(
        tuple(float(b) for b in bounds.split(" ")) if bounds else (),
        [int(c) for c in counts.split(" ")],
        _parse_num(total),
        inf if minimum == "" else _parse_num(minimum),
        -inf if maximum == "" else _parse_num(maximum),
        ex,
    )


def encode_scope(snap: ScopeSnapshot, mode: str = MODE_FULL) -> List[str]:
    """One scope snapshot as wire rows (header + one row per instrument)."""
    rows = [join_wire(("S", snap.service, snap.address,
                       str(snap.incarnation), mode))]
    for name in sorted(snap.counters):
        rows.append(join_wire(("C", name, _num(snap.counters[name]))))
    for name in sorted(snap.gauges):
        rows.append(join_wire(("G", name, _num(snap.gauges[name]))))
    for name in sorted(snap.histograms):
        rows.append(_hist_to_row(name, snap.histograms[name]))
    return rows


def decode_scopes(rows: Iterable[str]) -> List[Tuple[str, ScopeSnapshot]]:
    """Parse wire rows back into ``[(mode, ScopeSnapshot), ...]``."""
    out: List[Tuple[str, ScopeSnapshot]] = []
    current: Optional[ScopeSnapshot] = None
    for row in rows:
        fields = split_wire(row)
        tag = fields[0]
        if tag == "S":
            if len(fields) != 5:
                raise MergeError(f"malformed scope header ({len(fields)} fields)")
            current = ScopeSnapshot(fields[1], fields[2], int(fields[3]))
            out.append((fields[4], current))
        elif current is None:
            raise MergeError("metric row before scope header")
        elif tag == "C":
            current.counters[fields[1]] = _parse_num(fields[2])
        elif tag == "G":
            current.gauges[fields[1]] = _parse_num(fields[2])
        elif tag == "H":
            name, hist = _hist_from_row(fields[1:])
            current.histograms[name] = hist
        else:
            raise MergeError(f"unknown telemetry row tag {tag!r}")
    return out
