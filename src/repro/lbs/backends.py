"""Pluggable execution backends of the anonymization service.

The serving facade (:class:`~repro.lbs.service.AnonymizerService`) owns the
protocol — request in, outcome out — and delegates *where the work runs*
to an :class:`ExecutionBackend`:

* :class:`InlineBackend` — the calling thread, one engine. The reference
  implementation the process pool must match byte for byte.
* :class:`ProcessPoolBackend` — N worker *processes*, each holding its own
  engine rebuilt from wire documents against a per-batch snapshot, so
  the workers never share mutable state with the parent or each other.

Wire documents are the only thing that crosses the seam. A backend is
bound once to an immutable :class:`BackendSpec` (network + algorithm +
hint policy) and then serves any number of batches through exactly two
methods, both defined on :class:`ExecutionBackend` itself:

* :meth:`~ExecutionBackend.cloak_batch_raw` — raw cloak request
  documents (:class:`~repro.lbs.wire.CloakRequestDoc` dicts) against the
  one snapshot the batch was submitted with;
* :meth:`~ExecutionBackend.deanonymize_batch_raw` — raw reversal request
  documents (:class:`~repro.lbs.wire.DeanonymizeRequestDoc` dicts);
  snapshot-free, because envelopes are self-describing.

Both answer one :class:`~repro.lbs.wire.OutcomeDoc` dict per document, in
order. Per-item failures ride in place as structured error documents:
malformed documents, unknown users, user segments not on the map, the
typed cloaking failures (:class:`~repro.errors.CloakingError`) and the
typed reversal failures (:data:`ReversalServingError`). Anything else — an
engine bug, an infrastructure failure — propagates to the caller instead
of being swallowed into outcomes.

Each operation has one per-item serving function, :func:`_serve_chunk_docs`
and :func:`_peel_chunk_docs`. :class:`InlineBackend` runs it in process,
the pool's workers run it once per chunk, and the pool runs it on the
parent when a chunk degrades. Only user resolution happens before it, on
the parent, once per batch for every backend: the parent alone holds the
full snapshot, so workers need population counts only. Reversal engines
come from each envelope's own algorithm metadata through a bounded
:class:`ReversalEngineCache`, and the peels of one chunk share keyed-draw
buffers through one :class:`~repro.core.reversal.DrawsCache`.

Every item runs under the cooperative deadline its document carries
(``deadline_ms``, surfacing as the structured ``deadline_exceeded``
code), and :class:`ProcessPoolBackend` supervises its workers: death of a
shard mid-batch is recovered by respawn + chunk re-drive with bounded
retries, degrading to inline execution rather than ever losing a batch.
The recovery paths are exercised deterministically through
:mod:`repro.lbs.faults`.
"""

from __future__ import annotations

import json
import os
import stat
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.algorithm import CloakingAlgorithm
from ..core.engine import (
    DeanonymizationResult,
    ReverseCloakEngine,
    algorithm_from_spec,
)
from ..core.envelope import CloakEnvelope
from ..core.reversal import DrawsCache
from ..errors import (
    CloakingError,
    DeanonymizationError,
    EnvelopeError,
    MobilityError,
    ProfileError,
    ReverseCloakError,
    RoadNetworkError,
    WireFormatError,
    WorkerCrashedError,
)
from ..mobility.snapshot import PopulationSnapshot
from ..roadnet.graph import RoadNetwork
from ..roadnet.io import network_from_dict, network_to_dict
from .faults import Deadline, FaultInjector, FaultPlan
from .wire import (
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
    snapshot_from_dict,
    snapshot_to_dict,
)

__all__ = [
    "BackendSpec",
    "BatchOutcome",
    "ReversalOutcome",
    "ReversalEngineCache",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
]

#: The typed per-request failure union of batch serving. Anything else is a
#: bug or an infrastructure failure and must propagate.
ServingError = Union[CloakingError, MobilityError]

#: The typed per-item failure union of batch *reversal* serving: wrong or
#: missing keys, collisions, malformed or foreign envelopes, bad levels.
#: Anything else is a bug or an infrastructure failure and must propagate.
ReversalServingError = Union[DeanonymizationError, EnvelopeError, ProfileError]

#: The isinstance tuple of :data:`ReversalServingError` (what
#: :func:`_peel_chunk_docs` converts into per-item outcome documents).
_REVERSAL_ERRORS = (DeanonymizationError, EnvelopeError, ProfileError)


@dataclass(frozen=True)
class BatchOutcome:
    """The result of one request inside a batch.

    Exactly one of :attr:`envelope` / :attr:`error` is set. Batch serving
    never lets one failing request abort its siblings; the error object is
    returned in place so the caller can retry or report per request.

    Attributes:
        request: The request this outcome answers (same position as in the
            submitted batch).
        envelope: The cloaked envelope on success.
        error: The :class:`~repro.errors.CloakingError` or
            :class:`~repro.errors.MobilityError` the request failed with —
            these are the only failures serving converts into outcomes;
            unexpected exceptions propagate out of the batch call.
    """

    request: CloakRequest
    envelope: Optional[CloakEnvelope] = None
    error: Optional[ServingError] = None

    @property
    def ok(self) -> bool:
        return self.envelope is not None


@dataclass(frozen=True)
class ReversalOutcome:
    """The result of one de-anonymization request inside a batch.

    Exactly one of :attr:`result` / :attr:`error` is set; failures sit in
    place so one bad item (wrong key, tampered envelope, collision) never
    aborts its siblings.

    Attributes:
        request: The reversal request this outcome answers (same position
            as in the submitted batch).
        result: The recovered per-level regions on success.
        error: The typed :data:`ReversalServingError` the item failed with
            — the only failures serving converts into outcomes; unexpected
            exceptions propagate out of the batch call.
    """

    request: DeanonymizeRequestDoc
    result: Optional[DeanonymizationResult] = None
    error: Optional[ReversalServingError] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class ReversalEngineCache:
    """Bounded, lock-guarded LRU of reversal engines keyed by algorithm spec.

    Envelopes name their own algorithm and parameters, and those fields are
    attacker-controlled on the wire endpoints — an unbounded
    ``{(algorithm, params): engine}`` dict lets churning parameters grow
    engine objects (and their pre-assignment tables) without limit, the
    same bug class PR 4 fixed in the transition-domain memo. This cache
    caps the live set (move-to-end on hit, evict oldest past ``cap``) and
    keeps the common case allocation-free: a ``default`` engine matching
    its own algorithm spec is answered without touching the LRU at all.

    Thread-safe; engines themselves hold only immutable shared structures,
    so handing one instance to several serving threads is fine.
    """

    def __init__(
        self,
        network: RoadNetwork,
        default: Optional[ReverseCloakEngine] = None,
        cap: int = 32,
    ) -> None:
        if cap < 1:
            raise ProfileError(f"engine cache cap must be >= 1, got {cap}")
        self._network = network
        self._default = default
        # The default's spec, computed once: algorithm instances are
        # immutable, and rebuilding the params dict per lookup would put
        # an allocation on every peel's fast path.
        self._default_spec = (
            (default.algorithm.name, default.algorithm.params())
            if default is not None
            else None
        )
        self._cap = cap
        self._lock = threading.Lock()
        self._engines: "OrderedDict[Tuple[str, str], ReverseCloakEngine]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def engine_for(self, envelope: CloakEnvelope) -> ReverseCloakEngine:
        """The reversal engine of ``envelope``'s algorithm metadata.

        Raises:
            EnvelopeError: The envelope names an unknown algorithm.
        """
        default_spec = self._default_spec
        if default_spec is not None and (
            (envelope.algorithm, envelope.algorithm_params) == default_spec
        ):
            return self._default
        cache_key = (
            envelope.algorithm,
            json.dumps(envelope.algorithm_params, sort_keys=True),
        )
        with self._lock:
            engine = self._engines.get(cache_key)
            if engine is not None:
                self._engines.move_to_end(cache_key)
                return engine
        # Build outside the lock (RPLE pre-assignment can be expensive);
        # a racing builder of the same spec just loses its copy.
        engine = ReverseCloakEngine.for_envelope(self._network, envelope)
        with self._lock:
            existing = self._engines.get(cache_key)
            if existing is not None:
                self._engines.move_to_end(cache_key)
                return existing
            self._engines[cache_key] = engine
            while len(self._engines) > self._cap:
                self._engines.popitem(last=False)
        return engine


@dataclass(frozen=True)
class BackendSpec:
    """Everything a backend needs to run the cloaking work anywhere.

    Attributes:
        network: The shared road map.
        algorithm: The cloaking algorithm instance (its ``name``/``params()``
            are the wire spec process workers rebuild it from).
        include_hints: Sealed-hint envelope policy (decision D1).
    """

    network: RoadNetwork
    algorithm: CloakingAlgorithm
    include_hints: bool = True

    def build_engine(self) -> ReverseCloakEngine:
        return ReverseCloakEngine(self.network, self.algorithm)


def user_segment_of(snapshot: PopulationSnapshot, user_id: int) -> int:
    """The segment ``user_id`` occupies in ``snapshot``.

    Raises:
        MobilityError: The user is not in the snapshot.
    """
    if not snapshot.has_user(user_id):
        raise MobilityError(f"user {user_id} is not in the current snapshot")
    return snapshot.segment_of(user_id)


def _resolve_user(snapshot: PopulationSnapshot, document) -> dict:
    """``document`` with its user resolved to a ``user_segment``.

    A document that already carries a segment passes unchanged. The fast
    path — a literal ``int`` user id the snapshot knows — patches the
    segment into a copy without parsing: the chunk function parses every
    document it serves anyway. Anything else is parsed first, so a
    malformed document fails as malformed before it can fail as an
    unknown user.

    Raises:
        WireFormatError: The document is malformed.
        MobilityError: The user is not in the snapshot.
    """
    if isinstance(document, dict):
        if document.get("user_segment") is not None:
            return document
        user_id = document.get("user_id")
        # `type` not `isinstance`: bool subclasses int, and from_dict's
        # int() coercion must stay the one authority on anything that is
        # not literally an int already.
        if type(user_id) is int and snapshot.has_user(user_id):
            return dict(document, user_segment=snapshot.segment_of(user_id))
    user_id = CloakRequestDoc.from_dict(document).user_id
    return dict(document, user_segment=user_segment_of(snapshot, user_id))


def _serve_chunk_docs(
    engine: ReverseCloakEngine,
    snapshot: PopulationSnapshot,
    include_hints: bool,
    request_docs: Sequence[dict],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
) -> List[dict]:
    """Serve one chunk of resolved cloak request documents.

    The one per-item cloaking path: inline serving, the process-pool
    workers and the pool's inline degradation all run it. Each document
    is parsed here (a malformed one answers in place), runs under its own
    cooperative deadline, and expected serving failures — deadline expiry
    included — become error outcome documents in place. So does a
    pre-resolved ``user_segment`` the map does not have
    (:class:`~repro.errors.RoadNetworkError`): it answers what it would
    alone, and its neighbours in the chunk are still served. Anything else
    propagates.
    """
    outcomes = []
    for item, request_doc in enumerate(request_docs):
        try:
            doc = CloakRequestDoc.from_dict(request_doc)
        except WireFormatError as exc:
            outcomes.append(OutcomeDoc.from_exception(exc).to_dict())
            continue
        deadline = Deadline.start(doc.deadline_ms)
        if injector is not None:
            injector.on_item(chunk, item, "cloak", deadline)
        try:
            envelope = engine.anonymize(
                doc.user_segment,
                snapshot,
                doc.profile,
                doc.chain,
                include_hints=include_hints,
                checkpoint=deadline.check if deadline.active else None,
            )
        except (CloakingError, RoadNetworkError) as exc:
            outcomes.append(OutcomeDoc.from_exception(exc).to_dict())
        else:
            outcomes.append(OutcomeDoc.from_envelope(envelope).to_dict())
    return outcomes


def _peel_chunk_docs(
    engines: ReversalEngineCache,
    request_docs: Sequence[dict],
    draws_cache: Optional[DrawsCache] = None,
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
) -> List[dict]:
    """Serve one chunk of reversal request documents.

    The one per-item reversal path, run wherever :func:`_serve_chunk_docs`
    runs. Each item's engine comes from the envelope's own algorithm
    metadata through the bounded cache, the chunk shares one keyed-draw
    cache, each item runs under its own cooperative deadline, and every
    typed reversal failure — a malformed document and deadline expiry
    included (:class:`~repro.errors.DeadlineExceededError` is a
    :class:`~repro.errors.DeanonymizationError`) — becomes a structured
    error outcome in place. Anything else propagates.
    """
    outcomes = []
    for item, request_doc in enumerate(request_docs):
        try:
            doc = DeanonymizeRequestDoc.from_dict(request_doc)
        except WireFormatError as exc:
            outcomes.append(OutcomeDoc.from_exception(exc).to_dict())
            continue
        deadline = Deadline.start(doc.deadline_ms)
        if injector is not None:
            injector.on_item(chunk, item, "peel", deadline)
        try:
            result = engines.engine_for(doc.envelope).deanonymize(
                doc.envelope,
                doc.key_map(),
                doc.target_level,
                mode=doc.mode,
                draws_cache=draws_cache,
                checkpoint=deadline.check if deadline.active else None,
            )
        except _REVERSAL_ERRORS as exc:
            outcomes.append(OutcomeDoc.from_exception(exc).to_dict())
        else:
            outcomes.append(OutcomeDoc.from_result(result).to_dict())
    return outcomes


class ExecutionBackend(ABC):
    """Where the serving work of one anonymization service runs.

    Lifecycle: the service calls :meth:`bind` exactly once with its
    immutable :class:`BackendSpec`, then any number of
    :meth:`cloak_batch_raw` / :meth:`deanonymize_batch_raw` calls, then
    :meth:`close`. Backends are thread-safe for concurrent batch
    submissions.

    The two serving methods live here and only here; a backend implements
    the hooks behind them, :meth:`_serve_cloaks` and :meth:`_serve_peels`.
    """

    _spec: Optional[BackendSpec] = None

    def bind(self, spec: BackendSpec) -> None:
        """Pin this backend to its serving configuration (idempotent for
        the same spec; a backend never serves two configurations)."""
        if self._spec is not None and self._spec is not spec:
            raise CloakingError("backend is already bound to another service")
        self._spec = spec

    @property
    def spec(self) -> BackendSpec:
        if self._spec is None:
            raise CloakingError("backend is not bound to a service yet")
        return self._spec

    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        """Serve raw (unparsed) cloak request documents against
        ``snapshot``; outcome documents in order.

        Parse failures, unknown users and serving failures all answer in
        place as structured error documents; this method never raises for
        a bad document. Users are resolved here, on the caller's side (see
        :func:`_resolve_user`); a document that fails resolution never
        reaches :meth:`_serve_cloaks`.

        Raises:
            CloakingError: The backend is not bound to a service.
        """
        if not documents:
            return []
        self.spec  # raise the unbound error before any work
        outcomes: List[Optional[dict]] = [None] * len(documents)
        resolved: List[dict] = []
        positions: List[int] = []
        for position, document in enumerate(documents):
            try:
                resolved.append(_resolve_user(snapshot, document))
            except ReverseCloakError as exc:
                outcomes[position] = OutcomeDoc.from_exception(exc).to_dict()
                continue
            positions.append(position)
        if resolved:
            for position, outcome in zip(
                positions, self._serve_cloaks(snapshot, resolved)
            ):
                outcomes[position] = outcome
        return outcomes  # type: ignore[return-value]

    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        """Serve raw (unparsed) reversal request documents; outcome
        documents in order.

        Snapshot-free: each envelope carries everything reversal needs, so
        the documents go to :meth:`_serve_peels` as they are, and its
        per-item parse answers a malformed one in place.

        Raises:
            CloakingError: The backend is not bound to a service.
        """
        if not documents:
            return []
        self.spec  # raise the unbound error before any work
        return self._serve_peels(list(documents))

    @abstractmethod
    def _serve_cloaks(
        self, snapshot: PopulationSnapshot, documents: List[dict]
    ) -> List[dict]:
        """Outcome documents of resolved cloak documents, in order."""

    @abstractmethod
    def _serve_peels(self, documents: List[dict]) -> List[dict]:
        """Outcome documents of raw reversal documents, in order."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """Serve every batch sequentially on the calling thread.

    The reference implementation: every other backend must match its
    results byte for byte. Reversal serving reuses one bounded engine
    cache across batches and shares one keyed-draw cache within each
    batch.

    Args:
        fault_plan: Optional :class:`~repro.lbs.faults.FaultPlan`
            (defaults to the ambient :data:`~repro.lbs.faults.FAULT_PLAN_ENV`
            plan). Inline serving presents to the plan as worker ``0``,
            incarnation ``0``, with each batch as one chunk whose items are
            the documents that reached serving — but only ``delay`` faults
            apply: kill and drop faults are inert in-process (there is no
            worker to lose).
    """

    def __init__(self, fault_plan: Optional[FaultPlan] = None) -> None:
        self._engine: Optional[ReverseCloakEngine] = None
        self._reversal_engines: Optional[ReversalEngineCache] = None
        self._injector = FaultInjector(
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._chunk_lock = threading.Lock()
        self._chunk_counter = 0

    def bind(self, spec: BackendSpec) -> None:
        super().bind(spec)
        if self._engine is None:
            self._engine = spec.build_engine()
            self._reversal_engines = ReversalEngineCache(
                spec.network, default=self._engine
            )

    def _next_chunk(self) -> int:
        # Services share one backend across request threads; an unguarded
        # read-increment pair here hands the same chunk id (and therefore
        # the same fault-plan row) to two concurrent batches.
        with self._chunk_lock:
            chunk = self._chunk_counter
            self._chunk_counter += 1
            return chunk

    def _fault_slot(self) -> Tuple[Optional[FaultInjector], int]:
        """The (injector, chunk id) of the next batch; ``(None, 0)``
        without a fault plan, so fault-free serving draws no chunk id."""
        if not self._injector:
            return None, 0
        return self._injector, self._next_chunk()

    def _serve_cloaks(
        self, snapshot: PopulationSnapshot, documents: List[dict]
    ) -> List[dict]:
        injector, chunk = self._fault_slot()
        return _serve_chunk_docs(
            self._engine,
            snapshot,
            self.spec.include_hints,
            documents,
            injector=injector,
            chunk=chunk,
        )

    def _serve_peels(self, documents: List[dict]) -> List[dict]:
        injector, chunk = self._fault_slot()
        return _peel_chunk_docs(
            self._reversal_engines,
            documents,
            DrawsCache(),
            injector=injector,
            chunk=chunk,
        )


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------
#: Chunk reply meaning "this worker has not seen the batch's snapshot yet";
#: the parent re-submits the chunk with the snapshot document attached.
_NEED_SNAPSHOT = "__need_snapshot__"

#: Per-process worker state, populated by :func:`_worker_init` (one engine
#: per worker process, plus the cache of the last snapshot it deserialized).
_WORKER_STATE: dict = {}


def _worker_init(
    network_blob: str, algorithm_name: str, params_blob: str, include_hints: bool
) -> None:
    """Process-pool worker initializer (module-level: ``spawn`` pickles the
    function by qualified name). Rebuilds the engine from wire documents —
    the worker never shares live objects with the parent."""
    network = network_from_dict(json.loads(network_blob))
    algorithm = algorithm_from_spec(network, algorithm_name, json.loads(params_blob))
    engine = ReverseCloakEngine(network, algorithm)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        engine=engine,
        # Reversal engines are rebuilt worker-side from each envelope's own
        # algorithm metadata; the bounded cache mirrors the parent's.
        reversal_engines=ReversalEngineCache(network, default=engine),
        include_hints=include_hints,
        snapshot_token=None,
        snapshot=None,
    )


def _worker_serve_chunk(
    snapshot_token: int,
    snapshot_blob: Optional[str],
    request_docs: Tuple[dict, ...],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
):
    """Serve one cloaking chunk inside a worker process.

    Returns outcome documents (plain dicts) in chunk order, or the
    :data:`_NEED_SNAPSHOT` sentinel when the worker's cached snapshot is
    stale and the chunk carried no snapshot document. Expected serving
    failures become error outcomes; anything else propagates and surfaces
    in the parent.
    """
    state = _WORKER_STATE
    if state.get("snapshot_token") != snapshot_token:
        if snapshot_blob is None:
            return _NEED_SNAPSHOT
        state["snapshot"] = snapshot_from_dict(json.loads(snapshot_blob))
        state["snapshot_token"] = snapshot_token
    return _serve_chunk_docs(
        state["engine"],
        state["snapshot"],
        state["include_hints"],
        request_docs,
        injector=injector,
        chunk=chunk,
    )


def _worker_peel_chunk(
    request_docs: Tuple[dict, ...],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
):
    """Serve one reversal chunk inside a worker process."""
    return _peel_chunk_docs(
        _WORKER_STATE["reversal_engines"],
        request_docs,
        DrawsCache(),
        injector=injector,
        chunk=chunk,
    )


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close socket FDs a ``fork``-started worker inherited from the parent.

    A worker forked while the parent is serving (first lazy spawn under
    load, or a supervised respawn) inherits duplicates of every open
    socket: the front-end listener and every accepted connection. Those
    duplicates keep the TCP connections alive after the parent closes its
    own copies, so evictions, drains and shutdowns would never surface to
    the peers as FIN/RST. Workers rebuild all state from wire documents by
    design and own no socket except their dispatch pipe (itself a
    socketpair end — ``keep_fd``), so every other inherited socket is
    safe to close. Under ``spawn``/``forkserver`` nothing is inherited and
    this is a no-op; without procfs (macOS) it degrades to a no-op too,
    which matches the platform's ``spawn`` default.
    """
    try:
        fd_names = os.listdir("/proc/self/fd")
    except OSError:
        return
    for name in fd_names:
        try:
            fd = int(name)
        except ValueError:
            continue
        if fd == keep_fd or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(
    connection,
    network_blob: str,
    algorithm_name: str,
    params_blob: str,
    include_hints: bool,
    plan_blob: Optional[str] = None,
    worker_index: int = 0,
    incarnation: int = 0,
) -> None:
    """The serve loop of one sharded worker process.

    Module-level so the ``spawn`` start method can import it by qualified
    name. The worker rebuilds its engine from the wire documents it was
    started with, then answers tagged messages on its dedicated pipe until
    it receives ``None``:

    * ``("cloak", token, snapshot_blob, request_docs)`` — one cloaking
      chunk against the token's snapshot;
    * ``("peel", request_docs)`` — one de-anonymization chunk
      (snapshot-free).

    Replies are ``("ok", outcome_docs)``, ``("ok", _NEED_SNAPSHOT)`` for a
    stale snapshot cache, or ``("raise", exception)`` for unexpected
    failures (re-raised in the parent).

    ``plan_blob``/``worker_index``/``incarnation`` configure the worker's
    deterministic :class:`~repro.lbs.faults.FaultInjector` (the plan ships
    as JSON so it survives ``spawn``). Chunk ordinals count the messages
    *this incarnation* has received, so a respawned worker starts from
    chunk 0 — and, because faults default to incarnation 0, does not
    re-trigger the fault that killed its predecessor.
    """
    _close_inherited_sockets(connection.fileno())
    _worker_init(network_blob, algorithm_name, params_blob, include_hints)
    plan = FaultPlan.from_json(plan_blob) if plan_blob else None
    injector = FaultInjector(
        plan, worker_index, incarnation, process_worker=True
    )
    injector.install_signal_faults()
    chunk_counter = 0
    while True:
        message = connection.recv()
        if message is None:
            if injector.ignore_shutdown():
                continue
            break
        chunk = chunk_counter
        chunk_counter += 1
        op = "peel" if message[0] == "peel" else "cloak"
        try:
            injector.on_chunk(chunk, op)
            kind = message[0]
            if kind == "cloak":
                _, token, snapshot_blob, request_docs = message
                reply = _worker_serve_chunk(
                    token, snapshot_blob, request_docs, injector, chunk
                )
            elif kind == "peel":
                reply = _worker_peel_chunk(message[1], injector, chunk)
            else:
                raise RuntimeError(f"unknown worker message kind: {kind!r}")
        except BaseException as exc:  # ship unexpected failures to the parent
            try:
                connection.send(("raise", exc))
            except Exception:
                connection.send(
                    ("raise", RuntimeError(f"worker failure: {exc!r}"))
                )
        else:
            if injector.drop_reply(chunk, op):
                continue
            connection.send(("ok", reply))
    connection.close()


class _WedgedWorkerError(Exception):
    """Internal: a worker missed its dispatch-wait timeout (wedged or its
    reply was lost); treated exactly like a dead pipe by supervision."""


#: What supervision treats as "the worker is gone": a dead pipe (EOF /
#: broken pipe / reset, all OSError subclasses) or a missed dispatch wait.
_TRANSPORT_ERRORS = (EOFError, OSError, _WedgedWorkerError)

#: Grace added on top of a chunk's largest item deadline when the parent
#: bounds its dispatch wait with it: deadlines are cooperative, so a worker
#: may legitimately finish (and report expiry itself) slightly late.
_DEADLINE_WAIT_GRACE_S = 1.0


@dataclass
class _WorkerHandle:
    """One live worker shard: its process, private pipe, stable slot index
    and incarnation number (bumped on every supervised respawn)."""

    process: object
    connection: object
    index: int
    incarnation: int


class ProcessPoolBackend(ExecutionBackend):
    """Serve batches across N sharded worker processes, one engine each.

    The workers are dedicated processes on private pipes (not a task
    queue): the parent splits every batch into one contiguous chunk per
    worker, writes each chunk to its worker, and reads the replies back —
    no shared queues, no management threads, so the per-batch dispatch
    overhead stays flat as workers are added.

    Everything crossing the process boundary is a wire document:

    * at start-up each worker rebuilds the road network and algorithm from
      their serialized forms (:func:`_worker_init`);
    * per batch, the snapshot ships as a counts document under a
      monotonically increasing token — workers cache the parsed snapshot
      by token, so a steady stream of batches against one snapshot pays
      the (de)serialization once per worker, not once per batch;
    * cloak requests ship as the caller's raw
      :class:`~repro.lbs.wire.CloakRequestDoc` dicts with the user already
      resolved to a segment (the parent holds the user-to-segment map;
      workers only ever need counts), and results return as
      :class:`~repro.lbs.wire.OutcomeDoc` dicts;
    * reversal requests ship as raw
      :class:`~repro.lbs.wire.DeanonymizeRequestDoc` dicts — snapshot-free;
      workers rebuild each envelope's reversal engine from its own
      algorithm metadata through a bounded per-worker cache.

    Wire documents round-trip exactly, so the envelopes and recovered
    regions a worker produces are byte-identical to inline serving —
    asserted by the backend tests.

    Batches are dispatched one at a time (a lock serializes
    :meth:`cloak_batch_raw` / :meth:`deanonymize_batch_raw` callers);
    parallelism lives *inside* a batch.

    **Supervision.** Worker death is an operational event, not a batch
    failure: when a pipe dies (EOF, broken pipe, reset) or a dispatch wait
    times out, the parent respawns the slot — incarnation bumped, engine
    rebuilt from the same wire documents — and re-drives *only the lost
    chunk*, with exponential backoff, up to ``max_chunk_retries`` times.
    A chunk that outlives its retry budget degrades to inline execution on
    the parent (byte-identical by the counts-only snapshot equivalence the
    wire protocol already guarantees), so a batch is never lost; with
    ``inline_fallback=False`` the chunk's items surface as structured
    ``worker_crashed`` outcomes instead. Failures a worker *reports*
    (``("raise", exc)``) are not crashes: the pool stays up, the remaining
    replies are drained, and the failure re-raises as before.
    :attr:`worker_restarts` and :attr:`inline_fallbacks` count the
    recovery events.

    Args:
        max_workers: Number of worker processes; ``None`` picks
            ``min(4, cpu_count)``.
        start_method: ``multiprocessing`` start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``); ``None`` uses the platform
            default. Everything shipped to workers is picklable under
            ``spawn``, so macOS/Windows semantics are covered.
        fault_plan: Optional :class:`~repro.lbs.faults.FaultPlan` shipped
            to every worker (as JSON, so it survives ``spawn``); defaults
            to the ambient :data:`~repro.lbs.faults.FAULT_PLAN_ENV` plan.
        max_chunk_retries: Respawn-and-redrive attempts per lost chunk
            before degrading it.
        retry_backoff_s: Base of the exponential backoff between respawn
            attempts (``retry_backoff_s * 2**(attempt-1)`` seconds).
        dispatch_timeout_s: Optional bound on each dispatch wait; a worker
            that misses it is treated as wedged (killed, respawned, chunk
            re-driven). Required for ``drop_reply`` faults to be
            recoverable — without it, and without per-item deadlines, a
            silently dropped reply would block the parent forever.
        inline_fallback: Degrade retry-exhausted chunks to inline
            execution (default) instead of ``worker_crashed`` outcomes.
        shutdown_join_s: Join timeout of each teardown escalation stage
            (sentinel → ``terminate()`` → ``kill()``).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_chunk_retries: int = 2,
        retry_backoff_s: float = 0.05,
        dispatch_timeout_s: Optional[float] = None,
        inline_fallback: bool = True,
        shutdown_join_s: float = 5.0,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise CloakingError(f"max_workers must be >= 1, got {max_workers}")
        if max_chunk_retries < 0:
            raise CloakingError(
                f"max_chunk_retries must be >= 0, got {max_chunk_retries}"
            )
        self._max_workers = max_workers or min(4, os.cpu_count() or 1)
        self._start_method = start_method
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._plan_blob = (
            self._fault_plan.to_json() if self._fault_plan else None
        )
        self._max_chunk_retries = max_chunk_retries
        self._retry_backoff_s = retry_backoff_s
        self._dispatch_timeout_s = dispatch_timeout_s
        self._inline_fallback = inline_fallback
        self._shutdown_join_s = shutdown_join_s
        self._dispatch_lock = threading.Lock()
        self._context = None
        self._init_args: Optional[tuple] = None
        self._workers: List[_WorkerHandle] = []
        # The degradation engines are built lazily on the first retry
        # exhaustion — the happy path never pays for them.
        self._fallback_engine: Optional[ReverseCloakEngine] = None
        self._fallback_reversal: Optional[ReversalEngineCache] = None
        #: Supervised respawns performed (observability; tests assert on it).
        self.worker_restarts = 0
        #: Chunks degraded to inline execution after retry exhaustion.
        self.inline_fallbacks = 0
        # Snapshot shipping state: one token per distinct snapshot object,
        # blob serialized once; workers that have not seen the batch's
        # token answer _NEED_SNAPSHOT and get a resend with the blob.
        self._snapshot_token = 0
        self._snapshot_seen: Optional[PopulationSnapshot] = None
        self._snapshot_blob: Optional[str] = None
        self._cold_token = True

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _spawn_worker(self, index: int, incarnation: int) -> _WorkerHandle:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_end,)
            + self._init_args
            + (self._plan_blob, index, incarnation),
            daemon=True,
        )
        process.start()
        child_end.close()
        return _WorkerHandle(process, parent_end, index, incarnation)

    def _ensure_workers(self) -> List[_WorkerHandle]:
        """Spawn the worker shards on first use (dispatch lock held)."""
        if not self._workers:
            if self._context is None:
                import multiprocessing

                self._context = multiprocessing.get_context(self._start_method)
            spec = self.spec
            self._init_args = (
                json.dumps(network_to_dict(spec.network)),
                spec.algorithm.name,
                json.dumps(spec.algorithm.params()),
                spec.include_hints,
            )
            for index in range(self._max_workers):
                self._workers.append(self._spawn_worker(index, incarnation=0))
        return self._workers

    def _reap_worker(self, handle: _WorkerHandle) -> None:
        """Put one worker down for good: terminate, escalate to kill, close
        the pipe. Used on respawn and by teardown."""
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=self._shutdown_join_s)
        if process.is_alive():  # SIGTERM ignored or wedged: cannot be refused
            process.kill()
            process.join(timeout=self._shutdown_join_s)
        try:
            handle.connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def _respawn(self, slot: int) -> _WorkerHandle:
        """Replace the worker in ``slot`` with a fresh incarnation
        (dispatch lock held). The replacement rebuilds its engine from the
        same wire documents; its snapshot cache starts cold, so re-driven
        cloak chunks must carry the snapshot blob."""
        handle = self._workers[slot]
        self._reap_worker(handle)
        replacement = self._spawn_worker(handle.index, handle.incarnation + 1)
        self._workers[slot] = replacement
        self.worker_restarts += 1
        return replacement

    def _snapshot_wire(self, snapshot: PopulationSnapshot) -> Tuple[int, str]:
        """The (token, counts blob) of ``snapshot``, serialized once per
        distinct snapshot object (snapshots are immutable)."""
        if snapshot is not self._snapshot_seen:
            self._snapshot_token += 1
            self._snapshot_seen = snapshot
            self._snapshot_blob = json.dumps(
                snapshot_to_dict(snapshot, counts_only=True)
            )
            self._cold_token = True
        return self._snapshot_token, self._snapshot_blob

    def _serve_cloaks(
        self, snapshot: PopulationSnapshot, documents: List[dict]
    ) -> List[dict]:
        """Fan resolved cloak documents out to the worker shards; replies
        in batch order.

        The documents cross the pipes as they are: each shard parses what
        it serves, so a malformed document answers in place from there. A
        worker answering :data:`_NEED_SNAPSHOT` gets its chunk once more
        with the snapshot document attached (see :meth:`_collect_chunk`).
        """
        with self._dispatch_lock:
            return self._dispatch_cloaks(snapshot, documents)

    def _dispatch_cloaks(
        self, snapshot: PopulationSnapshot, documents: List[dict]
    ) -> List[dict]:
        """:meth:`_serve_cloaks` with the dispatch lock held: the snapshot
        blob rides along eagerly only while its token is cold."""
        token, blob = self._snapshot_wire(snapshot)
        replies = self._drive(
            "cloak",
            self._chunk(documents),
            snapshot=snapshot,
            token=token,
            blob=blob,
            ship_blob=blob if self._cold_token else None,
        )
        self._cold_token = False
        return replies

    def _serve_peels(self, documents: List[dict]) -> List[dict]:
        """Fan raw reversal documents out to the worker shards; replies in
        batch order. Same supervision as :meth:`_serve_cloaks`, minus the
        snapshot machinery, which reversal does not need."""
        with self._dispatch_lock:
            return self._drive("peel", self._chunk(documents))

    def _message(
        self, op: str, chunk: List[dict], token: Optional[int], blob: Optional[str]
    ) -> tuple:
        if op == "cloak":
            return ("cloak", token, blob, tuple(chunk))
        return ("peel", tuple(chunk))

    def _chunk_timeout(self, chunk: List[dict]) -> Optional[float]:
        """How long a dispatch wait on ``chunk`` may block.

        ``dispatch_timeout_s`` when configured; additionally, when *every*
        item carries a deadline, the worker must have answered by the
        largest one (plus cooperative grace) — this is the parent-side
        deadline enforcement on dispatch waits. ``None`` blocks forever.
        The documents are unparsed here, so an item whose deadline is
        missing or not a number leaves the wait unbounded by deadlines;
        the worker's parse answers for it.
        """
        timeout = self._dispatch_timeout_s
        try:
            latest = max(float(doc["deadline_ms"]) for doc in chunk)
        except (KeyError, TypeError, ValueError):
            return timeout
        bound = latest / 1000.0 + _DEADLINE_WAIT_GRACE_S
        return bound if timeout is None else min(timeout, bound)

    def _recv_reply(self, handle: _WorkerHandle, timeout: Optional[float]):
        if timeout is not None and not handle.connection.poll(timeout):
            raise _WedgedWorkerError(
                f"worker {handle.index} (incarnation {handle.incarnation}) "
                f"sent no reply within {timeout:g}s"
            )
        return handle.connection.recv()

    def _drive(
        self,
        op: str,
        chunks: List[List[dict]],
        snapshot: Optional[PopulationSnapshot] = None,
        token: Optional[int] = None,
        blob: Optional[str] = None,
        ship_blob: Optional[str] = None,
    ) -> List[dict]:
        """Send every chunk to its shard, then collect replies in order.

        Dispatch lock held. The fan-out phase keeps all shards busy in
        parallel; the collect phase runs per-slot supervision
        (:meth:`_collect_chunk`), so a crash on one shard never discards
        another shard's work. Worker-*reported* failures drain the
        remaining replies before re-raising, exactly as before.
        """
        self._ensure_workers()
        sent: List[bool] = []
        for slot, chunk in enumerate(chunks):
            try:
                self._workers[slot].connection.send(
                    self._message(op, chunk, token, ship_blob)
                )
                sent.append(True)
            except (OSError, ValueError):
                # Dead before the batch even reached it: leave the send to
                # the supervised collect pass, which will respawn the slot.
                sent.append(False)
        replies: List[dict] = []
        failure: Optional[BaseException] = None
        for slot, chunk in enumerate(chunks):
            kind, payload = self._collect_chunk(
                op, slot, chunk, token, blob, sent[slot], snapshot
            )
            if kind == "raise":
                failure = failure or payload
                continue
            replies.extend(payload)
        if failure is not None:
            raise failure
        return replies

    def _collect_chunk(
        self,
        op: str,
        slot: int,
        chunk: List[dict],
        token: Optional[int],
        blob: Optional[str],
        sent: bool,
        snapshot: Optional[PopulationSnapshot],
    ):
        """Collect one shard's reply, recovering the chunk through worker
        death: respawn with exponential backoff and re-drive (re-driven
        cloak chunks always carry the snapshot blob — a fresh incarnation's
        snapshot cache is cold), degrade after ``max_chunk_retries``.
        Returns ``("ok", outcome_docs)`` or ``("raise", exc)``.
        """
        timeout = self._chunk_timeout(chunk)
        attempt = 0
        while True:
            handle = self._workers[slot]
            try:
                if not sent:
                    handle.connection.send(self._message(op, chunk, token, blob))
                    sent = True
                kind, payload = self._recv_reply(handle, timeout)
                if kind == "ok" and payload == _NEED_SNAPSHOT:
                    handle.connection.send(self._message(op, chunk, token, blob))
                    kind, payload = self._recv_reply(handle, timeout)
                return kind, payload
            except _TRANSPORT_ERRORS:
                attempt += 1
                # Replace the dead/wedged incarnation either way, so the
                # pool is whole for the remaining slots and later batches.
                self._respawn(slot)
                if attempt > self._max_chunk_retries:
                    return "ok", self._degraded_chunk(op, chunk, snapshot)
                time.sleep(self._retry_backoff_s * (2 ** (attempt - 1)))
                sent = False

    def _degraded_chunk(
        self,
        op: str,
        chunk: List[dict],
        snapshot: Optional[PopulationSnapshot],
    ) -> List[dict]:
        """The outcome documents of a chunk whose retry budget ran out:
        inline execution on the parent (graceful degradation — byte-
        identical, the batch is never lost), or per-item ``worker_crashed``
        outcomes when ``inline_fallback`` is off."""
        if not self._inline_fallback:
            error = WorkerCrashedError(
                f"worker chunk lost {self._max_chunk_retries + 1} times; "
                "retries exhausted and inline fallback is disabled"
            )
            doc = OutcomeDoc.from_exception(error).to_dict()
            return [dict(doc) for _ in chunk]
        self.inline_fallbacks += 1
        if op == "cloak":
            return _serve_chunk_docs(
                self._fallback_cloak_engine(),
                snapshot,
                self.spec.include_hints,
                chunk,
            )
        return _peel_chunk_docs(
            self._fallback_reversal_engines(), chunk, DrawsCache()
        )

    def _fallback_cloak_engine(self) -> ReverseCloakEngine:
        if self._fallback_engine is None:
            self._fallback_engine = self.spec.build_engine()
        return self._fallback_engine

    def _fallback_reversal_engines(self) -> ReversalEngineCache:
        if self._fallback_reversal is None:
            self._fallback_reversal = ReversalEngineCache(
                self.spec.network, default=self._fallback_cloak_engine()
            )
        return self._fallback_reversal

    def _chunk(self, docs: List[dict]) -> List[List[dict]]:
        """Split the batch into one contiguous chunk per worker."""
        workers = min(self._max_workers, len(docs))
        base, extra = divmod(len(docs), workers)
        chunks: List[List[dict]] = []
        start = 0
        for index in range(workers):
            size = base + (1 if index < extra else 0)
            chunks.append(docs[start : start + size])
            start += size
        return chunks

    def _teardown_workers(self) -> None:
        """Shut every worker down and reset snapshot-shipping state
        (dispatch lock held). The next batch spawns a fresh pool.

        Escalation ladder per worker: cooperative shutdown sentinel →
        ``join(shutdown_join_s)`` → ``terminate()`` (SIGTERM) → join →
        ``kill()`` (SIGKILL, cannot be ignored) → join. ``close()``
        therefore never leaks a live child, even against a worker that
        ignores the sentinel and SIGTERM.
        """
        for handle in self._workers:
            try:
                handle.connection.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=self._shutdown_join_s)
            self._reap_worker(handle)
        self._workers.clear()
        self._snapshot_seen = None
        self._snapshot_blob = None
        self._cold_token = True

    def close(self) -> None:
        with self._dispatch_lock:
            self._teardown_workers()
