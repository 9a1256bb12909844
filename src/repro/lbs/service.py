"""The anonymization service facade.

Paper, Section II-B: *"a trusted anonymizer obtains the raw location
information from the mobile clients with the user-defined profile"*, and
Section IV's deployment adds the symmetric server-side capability — the
anonymizer also answers de-anonymization requests from key-holding
requesters.

:class:`AnonymizerService` is that component, redesigned around two seams:

* **the wire protocol** (:mod:`repro.lbs.wire`) — every entry point has a
  transport-neutral twin: :meth:`handle` accepts a raw request document
  and returns an outcome document, so an HTTP/gRPC/queue front-end needs
  zero knowledge of domain objects;
* **the execution backend** (:mod:`repro.lbs.backends`) — where batch
  cloaking work runs (inline, sharded process pool) is a constructor
  choice, not a code path.

The service retains *no* per-request state — the defining advantage over
the mapping-store baseline — apart from lock-guarded bookkeeping counters
used by experiments. It is thread-safe: batches are pinned to the snapshot
installed when they start, and a concurrent :meth:`update_snapshot` never
tears a batch.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from ..core.algorithm import CloakingAlgorithm
from ..core.engine import DeanonymizationResult, ReverseCloakEngine
from ..core.envelope import CloakEnvelope
from ..core.profile import PrivacyProfile
from ..errors import (
    CloakingError,
    MobilityError,
    OverloadedError,
    ProfileError,
    ReverseCloakError,
    WireFormatError,
)
from ..keys.keys import KeyChain
from ..mobility.snapshot import PopulationSnapshot
from ..roadnet.graph import RoadNetwork
from .backends import (
    BackendSpec,
    BatchOutcome,
    ExecutionBackend,
    InlineBackend,
    ReversalEngineCache,
    ReversalOutcome,
    serve_request,
)
from .faults import Deadline
from .wire import (
    CLOAK_REQUEST_FORMAT,
    DEANONYMIZE_BATCH_FORMAT,
    DEANONYMIZE_REQUEST_FORMAT,
    PING_FORMAT,
    PING_REQUEST_FORMAT,
    STATS_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
    BatchOutcomeDoc,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
    error_class_for_code,
)

__all__ = ["AnonymizerService"]


class AnonymizerService:
    """The anonymization service of the ReverseCloak deployment.

    Args:
        network: The shared road map.
        algorithm: Cloaking algorithm (defaults to RGE inside the engine).
        include_hints: Produce sealed-hint envelopes (decision D1).
        backend: The :class:`~repro.lbs.backends.ExecutionBackend` batches
            run on; defaults to :class:`~repro.lbs.backends.InlineBackend`.
            The service binds (and, on :meth:`close`, releases) it.
        max_inflight: Optional admission-control budget: the maximum
            number of requests (batch items count individually) allowed in
            flight at once across every serving entry point. Work beyond
            the budget is *shed* — rejected up front with
            :class:`~repro.errors.OverloadedError` (the structured
            ``overloaded`` outcome on the wire path) before any engine
            work runs, instead of queuing unboundedly. A batch is admitted
            all-or-nothing. ``None`` (default) admits everything.

    Example:
        >>> from repro import grid_network, PopulationSnapshot
        >>> from repro import KeyChain, PrivacyProfile
        >>> network = grid_network(6, 6)
        >>> service = AnonymizerService(network)
        >>> service.update_snapshot(PopulationSnapshot.from_counts(
        ...     {sid: 2 for sid in network.segment_ids()}))
        >>> profile = PrivacyProfile.uniform(levels=2, base_k=4, k_step=4,
        ...                                  base_l=3, l_step=2,
        ...                                  max_segments=30)
        >>> chain = KeyChain.generate(profile.level_count)
        >>> envelope = service.cloak_segment(30, profile, chain)
        >>> service.deanonymize(envelope, chain, target_level=0).region_at(0)
        (30,)
    """

    def __init__(
        self,
        network: RoadNetwork,
        algorithm: Optional[CloakingAlgorithm] = None,
        include_hints: bool = True,
        backend: Optional[ExecutionBackend] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ProfileError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._network = network
        self._engine = ReverseCloakEngine(network, algorithm)
        self._include_hints = include_hints
        self._spec = BackendSpec(
            network=network,
            algorithm=self._engine.algorithm,
            include_hints=include_hints,
        )
        self._backend = backend if backend is not None else InlineBackend()
        self._backend.bind(self._spec)
        self._snapshot: Optional[PopulationSnapshot] = None
        # Counter lock: the service is called from several threads at once
        # (cloak()/cloak_batch() run concurrently) and bare ``+= 1`` would
        # drop increments under that interleaving.
        self._counter_lock = threading.Lock()
        self._requests_served = 0
        self._failures = 0
        self._reversals_served = 0
        self._reversal_failures = 0
        # Admission control: a bounded in-flight budget shared by every
        # serving entry point. The counter is all the state load-shedding
        # needs — there is no queue to bound because the service never
        # queues; work beyond the budget is rejected at the door.
        self._max_inflight = max_inflight
        self._inflight = 0
        self._requests_shed = 0
        # Reversal engines per algorithm spec seen in envelopes — a
        # *bounded* LRU: the spec fields are attacker-controlled input on
        # the ``handle`` wire endpoint, so churning parameters must evict,
        # not accumulate. The hot path (envelopes matching this service's
        # own algorithm) is answered by the default engine without
        # touching the cache.
        self._reversal_engines = ReversalEngineCache(
            network, default=self._engine
        )

    # ------------------------------------------------------------------
    # configuration and bookkeeping
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def engine(self) -> ReverseCloakEngine:
        return self._engine

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    @property
    def include_hints(self) -> bool:
        return self._include_hints

    @property
    def requests_served(self) -> int:
        with self._counter_lock:
            return self._requests_served

    @property
    def failures(self) -> int:
        """Total serving failures, cloaking *and* reversal."""
        with self._counter_lock:
            return self._failures

    @property
    def reversals_served(self) -> int:
        with self._counter_lock:
            return self._reversals_served

    @property
    def reversal_failures(self) -> int:
        """The reversal-side share of :attr:`failures`."""
        with self._counter_lock:
            return self._reversal_failures

    @property
    def max_inflight(self) -> Optional[int]:
        return self._max_inflight

    @property
    def inflight(self) -> int:
        """Requests currently being served (batch items counted singly)."""
        with self._counter_lock:
            return self._inflight

    @property
    def requests_shed(self) -> int:
        """Requests rejected by admission control (never executed; not
        part of :attr:`failures` — shedding is backpressure, not a serving
        failure)."""
        with self._counter_lock:
            return self._requests_shed

    def stats(self) -> dict:
        """One consistent reading of every serving counter.

        The payload of the ``repro.stats_request`` wire format (see
        :meth:`handle`): the service-level counters under one lock
        acquisition, plus the bound backend's supervision counters
        (``worker_restarts``/``inline_fallbacks``; zero for backends
        without supervision). Transport front-ends merge their own
        counters into the same flat mapping.
        """
        with self._counter_lock:
            counters = {
                "requests_served": self._requests_served,
                "failures": self._failures,
                "reversals_served": self._reversals_served,
                "reversal_failures": self._reversal_failures,
                "requests_shed": self._requests_shed,
                "inflight": self._inflight,
            }
        counters["worker_restarts"] = int(
            getattr(self._backend, "worker_restarts", 0)
        )
        counters["inline_fallbacks"] = int(
            getattr(self._backend, "inline_fallbacks", 0)
        )
        return counters

    @contextmanager
    def _admit(self, units: int):
        """Hold ``units`` of the in-flight budget for the enclosed work.

        Raises :class:`~repro.errors.OverloadedError` — and counts the
        shed — when granting ``units`` would push the in-flight total past
        ``max_inflight``. Admission is all-or-nothing per call, so one
        oversized batch cannot starve by partial execution.
        """
        limit = self._max_inflight
        if limit is None:
            yield
            return
        with self._counter_lock:
            if self._inflight + units > limit:
                self._requests_shed += units
                inflight = self._inflight
            else:
                self._inflight += units
                inflight = None
        if inflight is not None:
            raise OverloadedError(
                f"admitting {units} request(s) would exceed the in-flight "
                f"budget ({inflight}/{limit} in flight); shed — retry later"
            )
        try:
            yield
        finally:
            with self._counter_lock:
                self._inflight -= units

    def update_snapshot(self, snapshot: PopulationSnapshot) -> None:
        """Install the current population snapshot (called per tick by the
        deployment; the anonymizer never looks at stale positions).

        Snapshots are immutable; in-flight batches keep serving against the
        snapshot they captured at submission.
        """
        self._snapshot = snapshot

    def close(self) -> None:
        """Release the backend's worker resources (idempotent)."""
        self._backend.close()

    def __enter__(self) -> "AnonymizerService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # cloaking
    # ------------------------------------------------------------------
    def cloak(self, request: CloakRequest) -> CloakEnvelope:
        """Serve one anonymization request.

        Looks up the user's current segment in the snapshot, expands per the
        profile, and returns the envelope.
        """
        snapshot = self._require_snapshot()
        with self._admit(1):
            try:
                envelope = serve_request(
                    self._engine, snapshot, request, self._include_hints
                )
            except CloakingError:
                self._count(failures=1)
                raise
        self._count(served=1)
        return envelope

    def cloak_segment(
        self,
        user_segment: int,
        profile: PrivacyProfile,
        chain: KeyChain,
        deadline_ms: Optional[float] = None,
    ) -> CloakEnvelope:
        """Cloak an explicit segment (bypasses the user lookup; used by
        experiments that sweep positions directly, and by the wire path
        for pre-resolved requests — which is why it honors an optional
        cooperative ``deadline_ms``)."""
        snapshot = self._require_snapshot()
        deadline = Deadline.start(deadline_ms)
        with self._admit(1):
            try:
                envelope = self._engine.anonymize(
                    user_segment,
                    snapshot,
                    profile,
                    chain,
                    include_hints=self._include_hints,
                    checkpoint=deadline.check if deadline.active else None,
                )
            except CloakingError:
                self._count(failures=1)
                raise
        self._count(served=1)
        return envelope

    def cloak_batch(self, requests: Sequence[CloakRequest]) -> List[BatchOutcome]:
        """Serve a batch of requests on the execution backend.

        Every request is cloaked against the snapshot installed when the
        batch starts (one immutable capture for the whole batch). Outcomes
        come back in request order; a request failing with a
        :class:`~repro.errors.CloakingError` or
        :class:`~repro.errors.MobilityError` yields a
        :class:`BatchOutcome` carrying that error instead of aborting the
        batch — any other exception propagates.

        Raises:
            MobilityError: No snapshot is installed.
        """
        snapshot = self._require_snapshot()
        if not requests:
            return []
        with self._admit(len(requests)):
            outcomes = self._backend.cloak_batch(snapshot, requests)
        served = sum(1 for outcome in outcomes if outcome.ok)
        cloak_failures = sum(
            1 for outcome in outcomes if isinstance(outcome.error, CloakingError)
        )
        self._count(served=served, failures=cloak_failures)
        return outcomes

    # ------------------------------------------------------------------
    # de-anonymization (server-side endpoint)
    # ------------------------------------------------------------------
    def deanonymize(
        self,
        envelope: CloakEnvelope,
        keys,
        target_level: int,
        mode: str = "auto",
    ) -> DeanonymizationResult:
        """Peel ``envelope`` down to ``target_level`` for a key-holding
        requester.

        Drives :meth:`ReverseCloakEngine.for_envelope`: the reversal engine
        is configured from the envelope's own algorithm metadata (cached per
        algorithm spec), so the service can reverse envelopes produced with
        any algorithm on this map — including by other anonymizer instances.
        """
        with self._admit(1):
            try:
                result = self._reversal_engine(envelope).deanonymize(
                    envelope, keys, target_level, mode=mode
                )
            except ReverseCloakError:
                # Failed reversals count too — `handle` converts them into
                # outcome documents, so without this the wire path would
                # leave no bookkeeping trace at all.
                self._count(reversal_failures=1)
                raise
        self._count(reversals=1)
        return result

    def deanonymize_batch(
        self, requests: Sequence[DeanonymizeRequestDoc]
    ) -> List[ReversalOutcome]:
        """Serve a batch of reversal requests on the execution backend.

        The batch twin of :meth:`deanonymize`, and the path that finally
        puts the system's headline operation on the serving seam: outcomes
        come back in request order, per-item failures (wrong keys,
        collisions, foreign envelopes) ride in place as typed
        :class:`~repro.lbs.backends.ReversalOutcome` errors, and the
        results are byte-identical whichever backend the service was
        configured with — the process pool peels shards in parallel.
        """
        if not requests:
            return []
        with self._admit(len(requests)):
            outcomes = self._backend.deanonymize_batch(requests)
        served = sum(1 for outcome in outcomes if outcome.ok)
        self._count(reversals=served, reversal_failures=len(outcomes) - served)
        return outcomes

    def _reversal_engine(self, envelope: CloakEnvelope) -> ReverseCloakEngine:
        return self._reversal_engines.engine_for(envelope)

    # ------------------------------------------------------------------
    # transport-neutral entry point
    # ------------------------------------------------------------------
    def handle(self, document: dict) -> dict:
        """Serve one raw wire document and return an outcome document.

        Dispatches on the document's ``format`` tag
        (:data:`~repro.lbs.wire.CLOAK_REQUEST_FORMAT` /
        :data:`~repro.lbs.wire.DEANONYMIZE_REQUEST_FORMAT` /
        :data:`~repro.lbs.wire.DEANONYMIZE_BATCH_FORMAT` — batch requests
        answer with a :class:`~repro.lbs.wire.BatchOutcomeDoc`, per-item
        errors in place). Every
        :class:`~repro.errors.ReverseCloakError` — including malformed
        documents, shed load (``overloaded``) and expired deadlines
        (``deadline_exceeded``) — comes back as a structured error
        outcome; only genuinely unexpected exceptions propagate. This is
        the single method a transport adapter needs.

        A batch document's ``deadline_ms`` is applied as the default
        cooperative deadline of every item that does not carry its own.
        """
        try:
            kind = document.get("format") if isinstance(document, dict) else None
            if kind == CLOAK_REQUEST_FORMAT:
                request_doc = CloakRequestDoc.from_dict(document)
                if request_doc.user_segment is not None:
                    envelope = self.cloak_segment(
                        request_doc.user_segment,
                        request_doc.profile,
                        request_doc.chain,
                        deadline_ms=request_doc.deadline_ms,
                    )
                else:
                    envelope = self.cloak(request_doc.to_request())
                return OutcomeDoc.from_envelope(envelope).to_dict()
            if kind == DEANONYMIZE_REQUEST_FORMAT:
                reversal_doc = DeanonymizeRequestDoc.from_dict(document)
                result = self.deanonymize(
                    reversal_doc.envelope,
                    reversal_doc.key_map(),
                    reversal_doc.target_level,
                    mode=reversal_doc.mode,
                )
                return OutcomeDoc.from_result(result).to_dict()
            if kind == DEANONYMIZE_BATCH_FORMAT:
                batch_doc = DeanonymizeBatchDoc.from_dict(document)
                items = batch_doc.items
                if batch_doc.deadline_ms is not None:
                    # The batch-level deadline is a default, not a cap:
                    # items carrying their own deadline keep it.
                    items = tuple(
                        item
                        if item.deadline_ms is not None
                        else dataclasses.replace(
                            item, deadline_ms=batch_doc.deadline_ms
                        )
                        for item in items
                    )
                outcomes = self.deanonymize_batch(items)
                return BatchOutcomeDoc(
                    outcomes=tuple(
                        OutcomeDoc.from_result(outcome.result)
                        if outcome.ok
                        else OutcomeDoc.from_exception(outcome.error)
                        for outcome in outcomes
                    )
                ).to_dict()
            if kind == STATS_REQUEST_FORMAT:
                version = document.get("version")
                if version != WIRE_VERSION:
                    raise WireFormatError(
                        f"unsupported {STATS_REQUEST_FORMAT} version: {version!r}"
                    )
                return {
                    "format": STATS_FORMAT,
                    "version": WIRE_VERSION,
                    "status": "ok",
                    "counters": self.stats(),
                }
            if kind == PING_REQUEST_FORMAT:
                # The liveness probe: no counters, no lock, nothing that
                # can block — a probe must answer even when serving hurts.
                version = document.get("version")
                if version != WIRE_VERSION:
                    raise WireFormatError(
                        f"unsupported {PING_REQUEST_FORMAT} version: {version!r}"
                    )
                return {
                    "format": PING_FORMAT,
                    "version": WIRE_VERSION,
                    "status": "ok",
                }
            raise WireFormatError(self._unknown_format_message(document, kind))
        except ReverseCloakError as exc:
            return OutcomeDoc.from_exception(exc).to_dict()

    @staticmethod
    def _unknown_format_message(document, kind) -> str:
        """Name the offending top-level key(s) of an undispatchable
        document: a bare ``unknown document format: None`` used to leave a
        client with a typo'd ``"fromat"`` key nothing to grep for."""
        if not isinstance(document, dict):
            return (
                "unknown document format: request must be a JSON object, "
                f"got {type(document).__name__}"
            )
        if "format" not in document:
            keys = ", ".join(repr(str(key)) for key in sorted(map(str, document)))
            return (
                "unknown document format: no 'format' key; offending "
                f"top-level key(s): [{keys}]"
            )
        return f"unknown document format: 'format' is {kind!r}"

    def handle_json(self, payload: str) -> str:
        """:meth:`handle` over JSON strings (byte-transport adapters)."""
        try:
            document = json.loads(payload)
        except ValueError as exc:
            malformed = WireFormatError(f"request is not valid JSON: {exc}")
            return OutcomeDoc.from_exception(malformed).to_json()
        return json.dumps(self.handle(document), sort_keys=True)

    def handle_batch(self, documents: Sequence[dict]) -> List[dict]:
        """Serve many *independent* wire documents as coalesced batches.

        The transport-batching twin of :meth:`handle`, built for
        front-ends that accumulate compatible requests
        (:mod:`repro.lbs.frontend`): one outcome document per input
        document, positionally, each answering exactly what :meth:`handle`
        would have answered for that document alone — but single cloak and
        single reversal documents are grouped into one
        ``cloak_batch_raw`` / ``deanonymize_batch_raw`` backend call
        each, so a process-pool backend pays its dispatch overhead once
        per coalesced batch instead of once per request — and ships the
        raw documents, deferring validation to wherever the backend
        parses anyway. Every other format (reversal batches, stats,
        unknown) is served individually through :meth:`handle`.

        Admission control is per coalesced group, all-or-nothing like any
        batch; a shed group answers structured ``overloaded`` outcomes in
        place. Parse failures, unknown users and serving failures all ride
        in place too — this method never raises for a bad document.
        """
        results: List[Optional[dict]] = [None] * len(documents)
        cloak_lane: List[Tuple[int, dict]] = []
        peel_lane: List[Tuple[int, dict]] = []
        for position, document in enumerate(documents):
            kind = document.get("format") if isinstance(document, dict) else None
            if kind == CLOAK_REQUEST_FORMAT:
                cloak_lane.append((position, document))
            elif kind == DEANONYMIZE_REQUEST_FORMAT:
                peel_lane.append((position, document))
            else:
                results[position] = self.handle(document)
        if cloak_lane:
            self._serve_cloak_lane(cloak_lane, results)
        if peel_lane:
            self._serve_peel_lane(peel_lane, results)
        return results  # type: ignore[return-value]

    def _serve_cloak_lane(
        self,
        lane: List[Tuple[int, dict]],
        results: List[Optional[dict]],
    ) -> None:
        """One coalesced cloak group through the backend's raw-document
        path, outcomes written back positionally; counter bookkeeping
        matches :meth:`cloak_batch` (only cloaking errors count as
        failures — a malformed or unknown-user document counts as
        neither, exactly like :meth:`handle`)."""
        docs = [document for _, document in lane]
        try:
            snapshot = self._require_snapshot()
            with self._admit(len(docs)):
                outcome_docs = self._backend.cloak_batch_raw(snapshot, docs)
        except ReverseCloakError as exc:
            outcome = OutcomeDoc.from_exception(exc).to_dict()
            for position, _ in lane:
                results[position] = dict(outcome)
            return
        served = 0
        failures = 0
        for (position, _), outcome in zip(lane, outcome_docs):
            results[position] = outcome
            if outcome.get("status") == "ok":
                served += 1
            else:
                code = str((outcome.get("error") or {}).get("code", ""))
                if issubclass(error_class_for_code(code), CloakingError):
                    failures += 1
        self._count(served=served, failures=failures)

    def _serve_peel_lane(
        self,
        lane: List[Tuple[int, dict]],
        results: List[Optional[dict]],
    ) -> None:
        """One coalesced reversal group through the backend's raw-document
        path; counter bookkeeping matches :meth:`deanonymize_batch`,
        except that malformed documents — which :meth:`handle` rejects
        before ever counting — stay uncounted here too."""
        docs = [document for _, document in lane]
        try:
            with self._admit(len(docs)):
                outcome_docs = self._backend.deanonymize_batch_raw(docs)
        except ReverseCloakError as exc:
            outcome = OutcomeDoc.from_exception(exc).to_dict()
            for position, _ in lane:
                results[position] = dict(outcome)
            return
        served = 0
        reversal_failures = 0
        for (position, _), outcome in zip(lane, outcome_docs):
            results[position] = outcome
            if outcome.get("status") == "ok":
                served += 1
            else:
                code = str((outcome.get("error") or {}).get("code", ""))
                if not issubclass(error_class_for_code(code), WireFormatError):
                    reversal_failures += 1
        self._count(reversals=served, reversal_failures=reversal_failures)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_snapshot(self) -> PopulationSnapshot:
        snapshot = self._snapshot
        if snapshot is None:
            raise MobilityError("anonymizer has no population snapshot")
        return snapshot

    def _count(
        self,
        served: int = 0,
        failures: int = 0,
        reversals: int = 0,
        reversal_failures: int = 0,
    ) -> None:
        with self._counter_lock:
            self._requests_served += served
            self._failures += failures + reversal_failures
            self._reversals_served += reversals
            self._reversal_failures += reversal_failures
