"""Layer spans for the traced benchmark run.

Server side (:func:`install`, :meth:`Tracer.dump`): the launcher wraps the
public functions of each layer *where they are looked up* — a function
imported by name into another module (``peel_level`` into
``repro.core.engine``, ``keyed_digest_block`` into
``repro.core.envelope``, ``encode_frame`` into ``repro.lbs.frontend``) is
replaced in every ``repro`` module that holds it, not only where it is
defined, or those calls would go unrecorded. Each call becomes one span
(name, start, end, parent, batch id, one count) kept in per-thread arrays
in memory and written once when the server exits. Collector pauses are
spans too (``gc.collect``, from ``gc.callbacks``), so the time a collection
steals from a layer is charged to the collector, not to that layer.

Generator side (:class:`Spans`): self time of every span
(its duration minus the part its child spans cover), per-name sums within
a time window, and the self-check that a ``handle_batch`` span equals the
self times of everything under it.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span name -> (owner path, attribute, kind, count).
#: ``owner path`` is a module or ``module:Class``; ``kind`` is
#: ``function``, ``method`` or ``classmethod``; ``count`` is what the span
#: records besides its times: ``arg`` (length of the first argument after
#: ``self``), ``result`` (length of the return value), or ``None``.
WRAPPED: Dict[str, Tuple[str, str, str, Optional[str]]] = {
    "framing.feed": ("repro.lbs.framing:FrameDecoder", "feed", "method", "arg"),
    "framing.encode": ("repro.lbs.framing", "encode_frame", "function", "result"),
    "service.handle_batch": (
        "repro.lbs.service:AnonymizerService", "handle_batch", "method", "arg"
    ),
    "backends.cloak_batch_raw": (
        "repro.lbs.backends:ExecutionBackend", "cloak_batch_raw", "method", None
    ),
    "backends.deanonymize_batch_raw": (
        "repro.lbs.backends:ExecutionBackend", "deanonymize_batch_raw", "method", None
    ),
    "wire.cloak_parse": ("repro.lbs.wire:CloakRequestDoc", "from_dict", "classmethod", None),
    "wire.peel_parse": (
        "repro.lbs.wire:DeanonymizeRequestDoc", "from_dict", "classmethod", None
    ),
    "wire.build": ("repro.lbs.wire:OutcomeDoc", "to_dict", "method", None),
    "engine.anonymize": ("repro.core.engine:ReverseCloakEngine", "anonymize", "method", None),
    "engine.deanonymize": (
        "repro.core.engine:ReverseCloakEngine", "deanonymize", "method", None
    ),
    "rge.forward_step": ("repro.core.rge:ReversibleGlobalExpansion", "forward_step", "method", None),
    "rge.backward_anchors": (
        "repro.core.rge:ReversibleGlobalExpansion", "backward_anchors", "method", "result"
    ),
    "region_state.add": ("repro.core.region_state:RegionState", "add", "method", None),
    "reversal.peel_level": ("repro.core.reversal", "peel_level", "function", None),
    "envelope.level_mac": ("repro.core.envelope", "level_mac", "function", None),
    "envelope.witness_bytes": ("repro.core.envelope", "witness_bytes", "function", None),
    "envelope.seal_anchor": ("repro.core.envelope", "seal_anchor", "function", None),
    "envelope.parse": ("repro.core.envelope:CloakEnvelope", "from_dict", "classmethod", None),
    "prf.keyed_digest": ("repro.keys.prf", "keyed_digest", "function", None),
    "prf.keyed_digest_block": ("repro.keys.prf", "keyed_digest_block", "function", "result"),
    "prf.drawer_value": ("repro.keys.prf:PrfDrawer", "value", "method", None),
    "prf.drawer_block": ("repro.keys.prf:PrfDrawer", "block", "method", "result"),
    "prf.key_state": ("repro.keys.prf:_KeyedHmacState", "__init__", "method", None),
}

#: Spans counted as PRF messages (HMAC'd messages: 1 per call unless the
#: span counts its results).
PRF_SPANS = (
    "prf.keyed_digest", "prf.keyed_digest_block", "prf.drawer_value", "prf.drawer_block",
)
SEAL_SPANS = ("envelope.level_mac", "envelope.witness_bytes", "envelope.seal_anchor")

_BATCH_SPAN = "service.handle_batch"
#: The collector's span (recorded from ``gc.callbacks``, not a wrapper);
#: its count is the generation collected.
GC_SPAN = "gc.collect"


class _Store:
    """One thread's spans, column-wise."""

    __slots__ = ("name", "start", "end", "parent", "batch", "count", "stack", "current")

    def __init__(self) -> None:
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.batch = array("q")
        self.count = array("q")
        self.stack: List[int] = []
        self.current = -1  # the enclosing handle_batch span, or -1


class Tracer:
    """The server-side span recorder (see module docs)."""

    def __init__(self) -> None:
        self.names: List[str] = list(WRAPPED) + [GC_SPAN]
        self._gc_id = self.names.index(GC_SPAN)
        self._local = threading.local()
        self._stores: List[_Store] = []
        self._lock = threading.Lock()

    def _store(self) -> _Store:
        store = getattr(self._local, "store", None)
        if store is None:
            store = _Store()
            self._local.store = store
            with self._lock:
                self._stores.append(store)
        return store

    def _wrap(self, fn: Callable, name: str, count: Optional[str], skip: int) -> Callable:
        name_id = self.names.index(name)
        opens_batch = name == _BATCH_SPAN
        store_of = self._store
        clock = time.monotonic

        def traced(*args, **kwargs):
            store = store_of()
            index = len(store.start)
            stack = store.stack
            store.name.append(name_id)
            store.parent.append(stack[-1] if stack else -1)
            previous = store.current
            if opens_batch:
                store.current = index
            store.batch.append(store.current)
            store.count.append(0)
            store.end.append(0.0)
            stack.append(index)
            store.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                store.end[index] = clock()
                stack.pop()
                store.current = previous
            if count == "result":
                store.count[index] = len(result)
            elif count == "arg":
                store.count[index] = len(args[skip])
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: one ``gc.collect`` span per collection,
        counting its generation, nested under whatever span it paused."""
        store = self._store()
        if phase == "start":
            stack = store.stack
            index = len(store.start)
            store.name.append(self._gc_id)
            store.parent.append(stack[-1] if stack else -1)
            store.batch.append(store.current)
            store.count.append(info["generation"])
            store.end.append(0.0)
            stack.append(index)
            store.start.append(time.monotonic())
        else:
            store.end[store.stack.pop()] = time.monotonic()

    def install(self) -> None:
        """Wrap every :data:`WRAPPED` call at each of its lookup sites and
        hook the collector."""
        import gc
        import importlib

        gc.callbacks.append(self._on_gc)
        for name, (owner_path, attribute, kind, count) in WRAPPED.items():
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if kind == "classmethod":
                    wrapped = classmethod(self._wrap(raw.__func__, name, count, 1))
                else:
                    wrapped = self._wrap(raw, name, count, 1)
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(original, name, count, 0)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro"):
                    continue
                for held, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, held, wrapped)

    def dump(self, path: str) -> None:
        """Write every thread's spans to ``path`` (``.npz``)."""
        columns: Dict[str, List[np.ndarray]] = {
            key: [] for key in ("name", "start", "end", "parent", "batch", "count")
        }
        offset = 0
        with self._lock:
            stores = list(self._stores)
        for store in stores:
            size = len(store.start)
            for key in ("name", "start", "end", "count"):
                columns[key].append(np.frombuffer(getattr(store, key), dtype=_DTYPES[key])[:size])
            for key in ("parent", "batch"):
                links = np.frombuffer(getattr(store, key), dtype=np.int64)[:size].copy()
                links[links >= 0] += offset
                columns[key].append(links)
            offset += size
        arrays = {
            key: (np.concatenate(parts) if parts else np.zeros(0, dtype=_DTYPES[key]))
            for key, parts in columns.items()
        }
        np.savez(path, names=np.array(self.names), **arrays)


_DTYPES = {
    "name": np.int16,
    "start": np.float64,
    "end": np.float64,
    "parent": np.int64,
    "batch": np.int64,
    "count": np.int64,
}


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer


class Spans:
    """Loaded spans with self times (generator side)."""

    def __init__(self, path: str) -> None:
        with np.load(path) as data:
            self.names = [str(name) for name in data["names"]]
            self.name = data["name"].astype(np.int64)
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.batch = data["batch"]
            self.count = data["count"]
        self.duration = self.end - self.start
        linked = self.parent >= 0
        children = np.zeros(len(self.start))
        np.add.at(children, self.parent[linked], self.duration[linked])
        self.self_time = self.duration - children

    def _id(self, name: str) -> int:
        return self.names.index(name)

    def window(self, t0: float, t1: float) -> np.ndarray:
        return (self.start >= t0) & (self.start < t1)

    def calls(self, mask: np.ndarray, *names: str) -> int:
        return int(np.isin(self.name[mask], [self._id(n) for n in names]).sum())

    def counted(self, mask: np.ndarray, *names: str) -> int:
        """Σ recorded counts (or 1 per call for spans that count nothing)."""
        total = 0
        for name in names:
            picked = mask & (self.name == self._id(name))
            if name == GC_SPAN or WRAPPED[name][3] is None:
                total += int(picked.sum())
            else:
                total += int(self.count[picked].sum())
        return total

    def self_seconds(self, mask: np.ndarray, *names: str) -> float:
        picked = mask & np.isin(self.name, [self._id(n) for n in names])
        return float(self.self_time[picked].sum())

    def under(self, mask: np.ndarray, name: str, parent_name: str) -> np.ndarray:
        """``mask`` spans of ``name`` whose direct parent is ``parent_name``."""
        picked = mask & (self.name == self._id(name)) & (self.parent >= 0)
        parents = np.where(picked, self.parent, 0)
        return picked & (self.name[parents] == self._id(parent_name))

    def full_collection_ms(self) -> float:
        """Mean pause of the server's full (generation 2) collections."""
        full = (self.name == self._id(GC_SPAN)) & (self.count == 2)
        return float(self.duration[full].mean()) * 1e3 if full.any() else 0.0

    def batches(self, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(durations, sizes) of the ``handle_batch`` spans in ``mask``."""
        picked = mask & (self.name == self._id(_BATCH_SPAN))
        return self.duration[picked], self.count[picked]

    def check(self) -> List[str]:
        """Span bookkeeping faults: unfinished spans, children outside
        their parent, and ``handle_batch`` spans whose subtree self times
        do not add up to their duration."""
        faults = []
        if (self.end <= 0).any():
            faults.append(f"{int((self.end <= 0).sum())} spans never ended")
        linked = np.flatnonzero(self.parent >= 0)
        parent = self.parent[linked]
        outside = (self.start[linked] < self.start[parent]) | (
            self.end[linked] > self.end[parent]
        )
        if outside.any():
            faults.append(f"{int(outside.sum())} child spans lie outside their parent")
        roots = np.flatnonzero(self.name == self._id(_BATCH_SPAN))
        inside = self.batch >= 0
        sums = np.zeros(len(self.start))
        np.add.at(sums, self.batch[inside], self.self_time[inside])
        gap = np.abs(sums[roots] - self.duration[roots])
        if roots.size and gap.max() > 1e-6:
            faults.append(
                f"handle_batch self times miss the span by up to {gap.max() * 1e6:.2f} us"
            )
        return faults
