"""Pluggable execution backends of the anonymization service.

The serving facade (:class:`~repro.lbs.service.AnonymizerService`) owns the
protocol — request in, outcome out — and delegates *where the cloaking
work runs* to an :class:`ExecutionBackend`:

* :class:`InlineBackend` — the calling thread, one engine. The reference
  implementation the process pool must match byte for byte.
* :class:`ProcessPoolBackend` — N worker *processes*, each holding its own
  engine rebuilt from wire documents against a per-batch snapshot. Work
  and results cross the boundary as wire documents only, so serving is
  byte-identical to inline and the workers never share mutable state —
  the seam every later sharding/async PR builds on.

A backend is bound once to an immutable :class:`BackendSpec` (network +
algorithm + hint policy) and then serves any number of batches; each batch
is pinned to the one snapshot it was submitted with. Outcomes come back in
request order, failures in place (:class:`BatchOutcome`), and *unexpected*
exceptions — anything outside the documented
:class:`~repro.errors.CloakingError` / :class:`~repro.errors.MobilityError`
serving failures — propagate to the caller instead of being swallowed into
outcomes.

Since PR 5 the seam carries the system's headline operation too:
:meth:`ExecutionBackend.deanonymize_batch` serves a batch of
de-anonymization requests (:class:`~repro.lbs.wire.DeanonymizeRequestDoc`)
under the same contract — outcomes in request order
(:class:`ReversalOutcome`), per-item typed failures
(:class:`~repro.errors.DeanonymizationError` /
:class:`~repro.errors.EnvelopeError` / :class:`~repro.errors.ProfileError`)
in place, anything else propagating, byte-identical results across every
backend. Reversal needs no population snapshot (envelopes are
self-describing), so the batch is snapshot-free; reversal engines are
resolved from each envelope's own algorithm metadata through a bounded
:class:`ReversalEngineCache`, and peels within a batch share keyed-draw
buffers through one :class:`~repro.core.reversal.DrawsCache` per serving
thread.

Since PR 6 the seam is fault-tolerant: every backend enforces the
cooperative per-request deadlines carried in the wire documents
(``deadline_ms``, surfacing as the structured ``deadline_exceeded`` code),
and :class:`ProcessPoolBackend` supervises its workers — death of a shard
mid-batch is recovered by respawn + chunk re-drive with bounded retries,
degrading to inline execution rather than ever losing a batch. The
recovery paths are exercised deterministically through
:mod:`repro.lbs.faults`.
"""

from __future__ import annotations

import dataclasses
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

#: The isinstance tuple of :data:`ReversalServingError` (also what the
#: process-pool workers convert into per-item outcome documents).
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


def _peel_outcome(
    engines: ReversalEngineCache,
    request: DeanonymizeRequestDoc,
    draws_cache: Optional[DrawsCache],
    deadline: Optional[Deadline] = None,
) -> ReversalOutcome:
    """One reversal request against a pinned engine cache.

    The single code path every backend funnels reversal through (process
    workers via its wire-doc twin ``_peel_chunk_docs``): resolve the
    engine from the envelope's own metadata, peel under the request's
    cooperative deadline, capture the typed failure union in place
    (:class:`~repro.errors.DeadlineExceededError` is a
    :class:`~repro.errors.DeanonymizationError`, so expiry lands in place
    like any other per-item failure).
    """
    if deadline is None:
        deadline = Deadline.start(request.deadline_ms)
    try:
        engine = engines.engine_for(request.envelope)
        result = engine.deanonymize(
            request.envelope,
            request.key_map(),
            request.target_level,
            mode=request.mode,
            draws_cache=draws_cache,
            checkpoint=deadline.check if deadline.active else None,
        )
    except _REVERSAL_ERRORS as exc:
        return ReversalOutcome(request=request, error=exc)
    return ReversalOutcome(request=request, result=result)


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


def serve_request(
    engine: ReverseCloakEngine,
    snapshot: PopulationSnapshot,
    request: CloakRequest,
    include_hints: bool,
    deadline: Optional[Deadline] = None,
) -> CloakEnvelope:
    """One request against a pinned (engine, snapshot) pair.

    The single code path every backend funnels through (process workers
    via their wire-doc twin ``_serve_chunk_docs``): resolve the user
    (unless the request already carries its pre-resolved segment), expand
    under the request's cooperative deadline, return the envelope. Raw
    location is used transiently and not retained.
    """
    if deadline is None:
        deadline = Deadline.start(request.deadline_ms)
    user_segment = request.user_segment
    if user_segment is None:
        if not snapshot.has_user(request.user_id):
            raise MobilityError(
                f"user {request.user_id} is not in the current snapshot"
            )
        user_segment = snapshot.segment_of(request.user_id)
    return engine.anonymize(
        user_segment,
        snapshot,
        request.profile,
        request.chain,
        include_hints=include_hints,
        checkpoint=deadline.check if deadline.active else None,
    )


def _serve_outcome(
    engine: ReverseCloakEngine,
    snapshot: PopulationSnapshot,
    request: CloakRequest,
    include_hints: bool,
    deadline: Optional[Deadline] = None,
) -> BatchOutcome:
    try:
        envelope = serve_request(
            engine, snapshot, request, include_hints, deadline=deadline
        )
    except (CloakingError, MobilityError) as exc:
        return BatchOutcome(request=request, error=exc)
    return BatchOutcome(request=request, envelope=envelope)


class ExecutionBackend(ABC):
    """Where the serving work of one anonymization service runs.

    Lifecycle: the service calls :meth:`bind` exactly once with its
    immutable :class:`BackendSpec`, then any number of
    :meth:`cloak_batch` / :meth:`deanonymize_batch` calls, then
    :meth:`close`. Backends are thread-safe for concurrent batch
    submissions.
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

    @abstractmethod
    def cloak_batch(
        self, snapshot: PopulationSnapshot, requests: Sequence[CloakRequest]
    ) -> List[BatchOutcome]:
        """Serve ``requests`` against ``snapshot``, outcomes in order."""

    @abstractmethod
    def deanonymize_batch(
        self, requests: Sequence[DeanonymizeRequestDoc]
    ) -> List[ReversalOutcome]:
        """Serve a batch of reversal requests, outcomes in request order.

        Snapshot-free: each envelope carries everything reversal needs.
        Per-item :data:`ReversalServingError` failures come back in place;
        anything else propagates. Results are byte-identical across every
        backend.
        """

    def cloak_batch_docs(
        self, snapshot: PopulationSnapshot, docs: Sequence[CloakRequestDoc]
    ) -> List[dict]:
        """Serve parsed cloak request documents; outcome documents in order.

        The wire-document twin of :meth:`cloak_batch`, for transports that
        already hold parsed documents (the network front-end's coalescer):
        same serving semantics and byte-identical envelopes, but results
        come back as :class:`~repro.lbs.wire.OutcomeDoc` dicts ready to
        serialize — per-item failures ride in place as structured error
        documents instead of exceptions.
        """
        outcomes = self.cloak_batch(snapshot, [doc.to_request() for doc in docs])
        return [
            OutcomeDoc.from_envelope(outcome.envelope).to_dict()
            if outcome.ok
            else OutcomeDoc.from_exception(outcome.error).to_dict()
            for outcome in outcomes
        ]

    def deanonymize_batch_docs(
        self, docs: Sequence[DeanonymizeRequestDoc]
    ) -> List[dict]:
        """Serve parsed reversal request documents; outcome documents in
        order — the wire-document twin of :meth:`deanonymize_batch` (see
        :meth:`cloak_batch_docs`)."""
        outcomes = self.deanonymize_batch(docs)
        return [
            OutcomeDoc.from_result(outcome.result).to_dict()
            if outcome.ok
            else OutcomeDoc.from_exception(outcome.error).to_dict()
            for outcome in outcomes
        ]

    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        """Serve *raw* (unparsed) cloak request documents; outcome
        documents in order.

        The entry the transport coalescer calls: parse failures, unknown
        users and serving failures all ride in place as structured error
        documents — this method never raises for a bad document. The
        default validates parent-side and delegates to
        :meth:`cloak_batch_docs`; backends whose workers re-validate every
        document anyway may override it to defer validation to the shard
        and skip the duplicate parse.
        """
        outcomes: List[Optional[dict]] = [None] * len(documents)
        docs: List[CloakRequestDoc] = []
        positions: List[int] = []
        for position, document in enumerate(documents):
            try:
                doc = CloakRequestDoc.from_dict(document)
                if doc.user_segment is None:
                    # Resolve against the snapshot up front (the shard may
                    # only hold counts): an unknown user fails here, in
                    # place, exactly like the single-request path.
                    if not snapshot.has_user(doc.user_id):
                        raise MobilityError(
                            f"user {doc.user_id} is not in the current "
                            "snapshot"
                        )
                    doc = dataclasses.replace(
                        doc, user_segment=snapshot.segment_of(doc.user_id)
                    )
            except ReverseCloakError as exc:
                outcomes[position] = OutcomeDoc.from_exception(exc).to_dict()
                continue
            docs.append(doc)
            positions.append(position)
        if docs:
            for position, outcome in zip(
                positions, self.cloak_batch_docs(snapshot, docs)
            ):
                outcomes[position] = outcome
        return outcomes  # type: ignore[return-value]

    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        """Serve *raw* (unparsed) reversal request documents; outcome
        documents in order — the raw twin of :meth:`cloak_batch_raw`
        (reversal is snapshot-free)."""
        outcomes: List[Optional[dict]] = [None] * len(documents)
        docs: List[DeanonymizeRequestDoc] = []
        positions: List[int] = []
        for position, document in enumerate(documents):
            try:
                docs.append(DeanonymizeRequestDoc.from_dict(document))
            except ReverseCloakError as exc:
                outcomes[position] = OutcomeDoc.from_exception(exc).to_dict()
                continue
            positions.append(position)
        if docs:
            for position, outcome in zip(
                positions, self.deanonymize_batch_docs(docs)
            ):
                outcomes[position] = outcome
        return outcomes  # type: ignore[return-value]

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
            incarnation ``0``, with each batch as one chunk — but only
            ``delay`` faults apply: kill and drop faults are inert
            in-process (there is no worker to lose).
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

    def cloak_batch(
        self, snapshot: PopulationSnapshot, requests: Sequence[CloakRequest]
    ) -> List[BatchOutcome]:
        spec = self.spec
        engine = self._engine
        if not self._injector:
            return [
                _serve_outcome(engine, snapshot, request, spec.include_hints)
                for request in requests
            ]
        chunk = self._next_chunk()
        outcomes = []
        for item, request in enumerate(requests):
            deadline = Deadline.start(request.deadline_ms)
            self._injector.on_item(chunk, item, "cloak", deadline)
            outcomes.append(
                _serve_outcome(
                    engine, snapshot, request, spec.include_hints, deadline=deadline
                )
            )
        return outcomes

    def deanonymize_batch(
        self, requests: Sequence[DeanonymizeRequestDoc]
    ) -> List[ReversalOutcome]:
        self.spec  # raise the unbound error before any work
        engines = self._reversal_engines
        draws_cache = DrawsCache()
        if not self._injector:
            return [
                _peel_outcome(engines, request, draws_cache)
                for request in requests
            ]
        chunk = self._next_chunk()
        outcomes = []
        for item, request in enumerate(requests):
            deadline = Deadline.start(request.deadline_ms)
            self._injector.on_item(chunk, item, "peel", deadline)
            outcomes.append(
                _peel_outcome(engines, request, draws_cache, deadline=deadline)
            )
        return outcomes


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


def _serve_chunk_docs(
    engine: ReverseCloakEngine,
    snapshot: PopulationSnapshot,
    include_hints: bool,
    request_docs: Sequence[dict],
    injector: Optional[FaultInjector] = None,
    chunk: int = 0,
) -> List[dict]:
    """Serve one chunk of cloaking request documents against an engine.

    The wire-doc twin of :func:`_serve_outcome`, shared by the process-pool
    workers and the parent's inline degradation path (which is why it takes
    plain documents, not live requests): each item runs under its own
    cooperative deadline, expected serving failures — deadline expiry
    included — become error outcome documents in place, anything else
    propagates.
    """
    outcomes = []
    for item, request_doc in enumerate(request_docs):
        try:
            doc = CloakRequestDoc.from_dict(request_doc)
        except WireFormatError as exc:
            # Raw documents may reach the shard unvalidated (the
            # coalescing fast path defers parsing here); a malformed item
            # answers in place, like its reversal twin below.
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
        except CloakingError as exc:
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
    """Serve one chunk of reversal request documents against an engine cache.

    The wire-doc twin of :func:`_peel_outcome`, shared by the process-pool
    workers and the parent's inline degradation path: each item's engine is
    resolved from the envelope's own algorithm metadata through the bounded
    cache, the chunk shares one keyed-draw cache, each item runs under its
    own cooperative deadline, and every typed reversal failure — including
    a malformed item document — becomes a structured error outcome in
    place. Anything else propagates.
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
        outcome = _peel_outcome(engines, doc, draws_cache, deadline=deadline)
        outcomes.append(
            OutcomeDoc.from_result(outcome.result).to_dict()
            if outcome.ok
            else OutcomeDoc.from_exception(outcome.error).to_dict()
        )
    return outcomes


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
    * requests ship as :class:`~repro.lbs.wire.CloakRequestDoc` dicts with
      the user already resolved to a segment (the parent holds the
      user-to-segment map; workers only ever need counts), and results
      return as :class:`~repro.lbs.wire.OutcomeDoc` dicts;
    * reversal batches (:meth:`deanonymize_batch`) ship as
      :class:`~repro.lbs.wire.DeanonymizeRequestDoc` dicts — snapshot-free;
      workers rebuild each envelope's reversal engine from its own
      algorithm metadata through a bounded per-worker cache.

    Wire documents round-trip exactly, so the envelopes and recovered
    regions a worker produces are byte-identical to inline serving —
    asserted by the backend tests.

    Batches are dispatched one at a time (a lock serializes
    :meth:`cloak_batch` / :meth:`deanonymize_batch` callers); parallelism
    lives *inside* a batch.

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

    def cloak_batch(
        self, snapshot: PopulationSnapshot, requests: Sequence[CloakRequest]
    ) -> List[BatchOutcome]:
        if not requests:
            return []
        # Resolve users up front (the parent holds the full snapshot) so
        # workers need only counts; unknown users fail here, in place,
        # exactly like inline serving. Requests arriving with their segment
        # pre-resolved skip the lookup.
        outcomes: List[Optional[BatchOutcome]] = [None] * len(requests)
        chunk_docs: List[dict] = []
        chunk_positions: List[int] = []
        for position, request in enumerate(requests):
            user_segment = request.user_segment
            if user_segment is None:
                if not snapshot.has_user(request.user_id):
                    outcomes[position] = BatchOutcome(
                        request=request,
                        error=MobilityError(
                            f"user {request.user_id} is not in the current snapshot"
                        ),
                    )
                    continue
                user_segment = snapshot.segment_of(request.user_id)
            doc = CloakRequestDoc.from_request(request, user_segment=user_segment)
            chunk_docs.append(doc.to_dict())
            chunk_positions.append(position)

        if chunk_docs:
            with self._dispatch_lock:
                replies = self._dispatch(snapshot, chunk_docs)
            cursor = 0
            failure: Optional[BaseException] = None
            for reply in replies:
                outcome_doc = OutcomeDoc.from_dict(reply)
                position = chunk_positions[cursor]
                cursor += 1
                request = requests[position]
                if outcome_doc.ok:
                    outcomes[position] = BatchOutcome(
                        request=request, envelope=outcome_doc.envelope
                    )
                else:
                    error = outcome_doc.to_exception()
                    if not isinstance(error, (CloakingError, MobilityError)):
                        failure = failure or error
                        continue
                    outcomes[position] = BatchOutcome(request=request, error=error)
            if failure is not None:
                raise failure
        return list(outcomes)  # type: ignore[arg-type]

    def cloak_batch_docs(
        self, snapshot: PopulationSnapshot, docs: Sequence[CloakRequestDoc]
    ) -> List[dict]:
        """Ship parsed cloak documents straight to the worker shards.

        Overrides the default to skip the request-object round-trip: the
        parsed documents go over the pipes as-is (after parent-side user
        resolution for any item still carrying only a user id) and the
        workers' outcome documents come back untouched — the hot path of
        the network front-end's coalescer. Unlike :meth:`cloak_batch`,
        *every* worker-reported error rides in place as a structured
        outcome document; nothing re-raises, because a transport caller
        answers per item.
        """
        if not docs:
            return []
        self.spec  # raise the unbound error before spawning anything
        outcomes: List[Optional[dict]] = [None] * len(docs)
        chunk_docs: List[dict] = []
        chunk_positions: List[int] = []
        for position, doc in enumerate(docs):
            if doc.user_segment is None:
                if not snapshot.has_user(doc.user_id):
                    error = MobilityError(
                        f"user {doc.user_id} is not in the current snapshot"
                    )
                    outcomes[position] = OutcomeDoc.from_exception(error).to_dict()
                    continue
                doc = dataclasses.replace(
                    doc, user_segment=snapshot.segment_of(doc.user_id)
                )
            chunk_docs.append(doc.to_dict())
            chunk_positions.append(position)
        if chunk_docs:
            with self._dispatch_lock:
                replies = self._dispatch(snapshot, chunk_docs)
            for position, reply in zip(chunk_positions, replies):
                outcomes[position] = reply
        return list(outcomes)  # type: ignore[arg-type]

    def deanonymize_batch_docs(
        self, docs: Sequence[DeanonymizeRequestDoc]
    ) -> List[dict]:
        """Ship parsed reversal documents straight to the worker shards
        (see :meth:`cloak_batch_docs`; reversal is snapshot-free)."""
        if not docs:
            return []
        self.spec  # raise the unbound error before spawning anything
        chunk_docs = [doc.to_dict() for doc in docs]
        with self._dispatch_lock:
            return self._dispatch_peels(chunk_docs)

    def cloak_batch_raw(
        self, snapshot: PopulationSnapshot, documents: Sequence[dict]
    ) -> List[dict]:
        """Ship raw cloak documents to the worker shards unparsed.

        The shards run ``CloakRequestDoc.from_dict`` on every document they
        serve, so the parent-side parse of the default implementation is
        pure duplication — measurable on the coalescer's hot path, where
        the parent competes with its own workers for cores. The parent
        only patches in the user's segment (it alone holds the full
        snapshot); a malformed document answers in place from the shard's
        parse. Documents the id fast path cannot vouch for — a
        non-integer ``user_id``, an unknown user — take the parsing
        default instead, which preserves error precedence: a malformed
        document must fail as malformed, never as merely unknown.
        """
        if not documents:
            return []
        self.spec  # raise the unbound error before spawning anything
        outcomes: List[Optional[dict]] = [None] * len(documents)
        chunk_docs: List[dict] = []
        chunk_positions: List[int] = []
        slow_documents: List[dict] = []
        slow_positions: List[int] = []
        for position, document in enumerate(documents):
            if isinstance(document, dict) and document.get("user_segment") is None:
                user_id = document.get("user_id")
                # `type` not `isinstance`: bool subclasses int, and
                # from_dict's int() coercion must stay the one authority
                # on anything that is not literally an int already.
                if type(user_id) is int and snapshot.has_user(user_id):
                    document = dict(
                        document, user_segment=snapshot.segment_of(user_id)
                    )
                else:
                    slow_documents.append(document)
                    slow_positions.append(position)
                    continue
            chunk_docs.append(document)
            chunk_positions.append(position)
        if slow_documents:
            for position, outcome in zip(
                slow_positions,
                super().cloak_batch_raw(snapshot, slow_documents),
            ):
                outcomes[position] = outcome
        if chunk_docs:
            with self._dispatch_lock:
                replies = self._dispatch(snapshot, chunk_docs)
            for position, reply in zip(chunk_positions, replies):
                outcomes[position] = reply
        return list(outcomes)  # type: ignore[arg-type]

    def deanonymize_batch_raw(self, documents: Sequence[dict]) -> List[dict]:
        """Ship raw reversal documents to the worker shards unparsed (see
        :meth:`cloak_batch_raw`; the shard's per-item parse answers
        malformed documents in place)."""
        if not documents:
            return []
        self.spec  # raise the unbound error before spawning anything
        with self._dispatch_lock:
            return self._dispatch_peels(list(documents))

    def _dispatch(
        self, snapshot: PopulationSnapshot, chunk_docs: List[dict]
    ) -> List[dict]:
        """Fan the batch out to the worker shards; replies in batch order.

        Dispatch lock held. A worker answering :data:`_NEED_SNAPSHOT` gets
        its chunk once more with the snapshot document attached. Failures a
        worker *reports* (``("raise", exc)``) keep the pipes aligned — the
        other replies are drained before re-raising; a *transport* failure
        (dead worker, broken pipe, missed dispatch wait) is recovered by
        supervision (see :meth:`_collect_chunk`): the slot is respawned and
        only the lost chunk re-driven, so the surviving workers' replies
        are never discarded.
        """
        token, blob = self._snapshot_wire(snapshot)
        ship_blob = blob if self._cold_token else None
        replies = self._drive(
            "cloak",
            self._chunk(chunk_docs),
            snapshot=snapshot,
            token=token,
            blob=blob,
            ship_blob=ship_blob,
        )
        self._cold_token = False
        return replies

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
        """
        timeout = self._dispatch_timeout_s
        deadlines = [doc.get("deadline_ms") for doc in chunk]
        if deadlines and all(value is not None for value in deadlines):
            bound = max(deadlines) / 1000.0 + _DEADLINE_WAIT_GRACE_S
            timeout = bound if timeout is None else min(timeout, bound)
        return timeout

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
                    handle.connection.send(("cloak", token, blob, tuple(chunk)))
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

    def deanonymize_batch(
        self, requests: Sequence[DeanonymizeRequestDoc]
    ) -> List[ReversalOutcome]:
        """Fan a reversal batch out across the worker shards.

        This is the first parallel reversal path in the system: each shard
        peels its contiguous chunk with its own engine (reversal is pure
        CPU with no shared state, so on multi-core hardware the slowest
        serving operation finally scales with workers). Requests cross the
        pipes as :class:`~repro.lbs.wire.DeanonymizeRequestDoc` dicts —
        key material rides inside them exactly as on the single-request
        wire path — and results return as outcome documents, so recovered
        regions are byte-identical to inline serving.
        """
        if not requests:
            return []
        self.spec  # raise the unbound error before spawning anything
        chunk_docs = [request.to_dict() for request in requests]
        with self._dispatch_lock:
            replies = self._dispatch_peels(chunk_docs)
        outcomes: List[ReversalOutcome] = []
        failure: Optional[BaseException] = None
        for request, reply in zip(requests, replies):
            outcome_doc = OutcomeDoc.from_dict(reply)
            if outcome_doc.ok:
                outcomes.append(
                    ReversalOutcome(request=request, result=outcome_doc.result)
                )
            else:
                error = outcome_doc.to_exception()
                if not isinstance(error, _REVERSAL_ERRORS):
                    failure = failure or error
                    continue
                outcomes.append(ReversalOutcome(request=request, error=error))
        if failure is not None:
            raise failure
        return outcomes

    def _dispatch_peels(self, chunk_docs: List[dict]) -> List[dict]:
        """Fan one reversal batch out to the workers; replies in order.

        Dispatch lock held. Same supervision discipline as the cloaking
        :meth:`_dispatch` — reported failures drain the remaining replies
        before re-raising, transport failures respawn the slot and
        re-drive only its chunk — minus the snapshot machinery, which
        reversal does not need.
        """
        return self._drive("peel", self._chunk(chunk_docs))

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
            process = handle.process
            process.join(timeout=self._shutdown_join_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self._shutdown_join_s)
            if process.is_alive():
                process.kill()
                process.join(timeout=self._shutdown_join_s)
            try:
                handle.connection.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._workers.clear()
        self._snapshot_seen = None
        self._snapshot_blob = None
        self._cold_token = True

    def close(self) -> None:
        with self._dispatch_lock:
            self._teardown_workers()
