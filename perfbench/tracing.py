"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of each layer *from outside* the
program: it replaces class attributes and module-level bindings with
thin wrappers for the duration of a ``with Tracer(...):`` block and
restores the originals on exit.  Every wrapped call records one span
``(name, start, end, parent)`` in compact arrays; nothing is written until
the run ends.

A span around a generator function counts only host time while that
generator is resumed: each resumption is its own segment, and simulated
waits (the generator parked on a kernel event) are not host time.  A
span's *self time* is its duration minus the part of it covered by its
children (:func:`self_times`).  Layer self times are the sums of their
spans' self times, so with one root span around the timed section the
layer self times add up to that section's host time.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_perf = time.perf_counter


class Tracer:
    """Records spans and per-name call counts for the wrapped entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.enabled = False

    # -- recording -------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        stack = self._stack
        self.parents.append(stack[-1] if stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(_perf())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _perf()
        stack = self._stack
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:  # an inner span escaped by exception: unwind
            del stack[stack.index(idx):]

    def reset(self) -> None:
        """Drop recorded spans and counts (keeps the installed wrappers)."""
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack.clear()
        self.calls = [0] * len(self.names)

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A drop-in for ``fn`` that records a span per call (per resumed
        segment when ``fn`` returns a generator)."""
        nid = self.name_id(name, layer)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.calls[nid] += 1
                return _traced_generator(tracer, nid, fn(*args, **kwargs))
        else:
            traced = self._wrap_plain(fn, nid)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _wrap_plain(self, fn: Callable, nid: int) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if inspect.isgenerator(result):  # e.g. a handler returning a generator
                return _traced_generator(tracer, nid, result)
            return result

        return traced

    def patch_attr(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Wrap ``owner.attr`` where ``owner`` defines it itself."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.wrap(original.__func__, name, layer)))
        else:
            setattr(owner, attr, self.wrap(original, name, layer))

    def patch_function(self, fn: Callable, name: str, layer: str) -> None:
        """Wrap a module-level function at every ``repro.*`` binding of it
        (``from x import f`` copies the reference into the importer)."""
        wrapped = self.wrap(fn, name, layer)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.enabled = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.enabled = False
        self.uninstall()

    # -- results -----------------------------------------------------------
    def span_count(self) -> int:
        return len(self.starts)

    def self_time_by_layer(self) -> Dict[str, float]:
        """Sum of span self times per layer (seconds)."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: Dict[str, float] = {layer: 0.0 for layer in self.layers}
        layers, name_ids = self.layers, self.name_ids
        for i, value in enumerate(selfs):
            out[layers[name_ids[i]]] += value
        return out

    def root_time(self) -> float:
        """Total duration of the top-level spans (seconds)."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents) if parent < 0
        )

    def counts(self) -> Dict[str, int]:
        return {name: self.calls[i] for i, name in enumerate(self.names)}

    def summary(self) -> Dict[str, object]:
        """A picklable digest (shard processes ship this to the parent)."""
        return {
            "layers": self.self_time_by_layer(),
            "root_s": self.root_time(),
            "counts": self.counts(),
            "spans": self.span_count(),
        }

    def write(self, path: str) -> None:
        """Write every span as fixed-width binary columns plus a name table:
        ``<path>.names`` (one ``name<TAB>layer`` per line) and ``<path>.bin``
        (float64 starts, float64 ends, int32 name ids, int32 parents)."""
        with open(path + ".names", "w", encoding="utf-8") as fh:
            for name, layer in zip(self.names, self.layers):
                fh.write(f"{name}\t{layer}\n")
        with open(path + ".bin", "wb") as fh:
            for column in (self.starts, self.ends, self.name_ids, self.parents):
                column.tofile(fh)


def _traced_generator(tracer: Tracer, nid: int, gen):
    """Delegate to ``gen``, timing each resumption as its own segment."""
    value, thrown = None, None
    while True:
        idx = tracer.open(nid)
        try:
            if thrown is None:
                item = gen.send(value)
            else:
                exc, thrown = thrown, None
                item = gen.throw(exc)
        except StopIteration as stop:
            tracer.close(idx)
            return stop.value
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx)
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the traced generator
            value, thrown = None, exc


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        elif end > cur_hi:
            cur_hi = end
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the time its children cover.

    Children may nest or overlap one another; overlapping stretches are
    counted once, and any part of a child outside its parent is ignored.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, intervals in children.items():
        out[parent] -= _covered(intervals, starts[parent], ends[parent])
    return out


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.core.client import ConnectionPool, ServiceClient, ServiceConnection
    from repro.core.daemon import ACEDaemon
    from repro.lang import ACECmdLine, CommandSemantics
    from repro.lang import parser as lang_parser
    from repro.net.boundary import BoundaryNetwork
    from repro.net.network import Network
    from repro.net.secure import SecureChannel, handshake_client, handshake_server
    from repro.net.sockets import Connection
    from repro.security import crypto
    from repro.security.keynote import ComplianceChecker
    from repro.sim.kernel import Simulator
    from repro.sim.parallel import ShardedSimulator
    from repro.store.client import StoreClient
    from repro.store.server import PersistentStoreDaemon
    import repro.services  # noqa: F401  (imports every daemon class)

    patch = tracer.patch_attr
    # sim: the kernel; its self time is the remainder nothing else claims
    patch(Simulator, "run", "Simulator.run", "sim")
    patch(Simulator, "run_window", "Simulator.run_window", "sim")
    patch(Simulator, "run_process", "Simulator.run_process", "sim")
    patch(ShardedSimulator, "run", "ShardedSimulator.run", "parallel")
    # net: connection setup and stream transfer
    patch(Network, "connect", "Network.connect", "net")
    patch(BoundaryNetwork, "connect", "BoundaryNetwork.connect", "net")
    patch(Connection, "send", "Connection.send", "net")
    patch(Connection, "recv", "Connection.recv", "net")
    # lang: codec and semantic checks
    tracer.patch_function(lang_parser.parse_command, "parse_command", "lang")
    tracer.patch_function(lang_parser.parse_command_full, "parse_command_full", "lang")
    patch(ACECmdLine, "to_string", "ACECmdLine.to_string", "lang")
    patch(CommandSemantics, "validate", "CommandSemantics.validate", "lang")
    # core: client RPC and daemon dispatch threads
    patch(ServiceClient, "connect", "ServiceClient.connect", "core")
    patch(ServiceConnection, "call", "ServiceConnection.call", "core")
    patch(ConnectionPool, "acquire", "ConnectionPool.acquire", "core")
    patch(ACEDaemon, "_command_thread", "ACEDaemon.command_thread", "core")
    patch(ACEDaemon, "_control_thread", "ACEDaemon.control_thread", "core")
    # security: SSL handshake + records, signatures, DH, KeyNote
    tracer.patch_function(handshake_client, "handshake_client", "security")
    tracer.patch_function(handshake_server, "handshake_server", "security")
    tracer.patch_function(crypto.verify_signature, "verify_signature", "security")
    tracer.patch_function(crypto.dh_keypair, "dh_keypair", "security")
    tracer.patch_function(crypto.dh_shared_secret, "dh_shared_secret", "security")
    patch(crypto.KeyPair, "sign", "KeyPair.sign", "security")
    patch(crypto.KeyPair, "generate", "KeyPair.generate", "security")
    patch(SecureChannel, "send", "SecureChannel.send", "security")
    patch(SecureChannel, "recv", "SecureChannel.recv", "security")
    patch(ComplianceChecker, "authorized", "ComplianceChecker.authorized", "security")
    patch(ACEDaemon, "_fetch_credentials", "ACEDaemon.fetch_credentials", "security")
    # store: client routing and the replica handlers
    patch(StoreClient, "put", "StoreClient.put", "store")
    patch(StoreClient, "get", "StoreClient.get", "store")
    for attr in sorted(vars(PersistentStoreDaemon)):
        if attr.startswith("cmd_"):
            patch(PersistentStoreDaemon, attr, f"PersistentStoreDaemon.{attr}", "store")
    # services: every other daemon's command handlers
    for cls in _daemon_classes(ACEDaemon):
        if issubclass(cls, PersistentStoreDaemon):
            continue
        for attr in sorted(vars(cls)):
            if attr.startswith("cmd_") and callable(vars(cls)[attr]):
                patch(cls, attr, f"{cls.__name__}.{attr}", "services")


def _daemon_classes(base: type) -> Iterable[type]:
    seen = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def layer_names() -> Tuple[str, ...]:
    return ("sim", "parallel", "net", "lang", "core", "services", "security", "store")


def merge_summaries(summaries: Iterable[Optional[dict]]) -> dict:
    """Add up per-process tracer digests (one per shard)."""
    out = {"layers": {layer: 0.0 for layer in layer_names()},
           "root_s": 0.0, "counts": {}, "spans": 0}
    for s in summaries:
        if not s:
            continue
        for layer, value in s["layers"].items():
            out["layers"][layer] = out["layers"].get(layer, 0.0) + value
        out["root_s"] += s["root_s"]
        out["spans"] += s["spans"]
        for name, n in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
    return out
