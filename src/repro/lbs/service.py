"""The anonymization service facade.

Paper, Section II-B: *"a trusted anonymizer obtains the raw location
information from the mobile clients with the user-defined profile"*, and
Section IV's deployment adds the symmetric server-side capability — the
anonymizer also answers de-anonymization requests from key-holding
requesters.

:class:`AnonymizerService` is that component, redesigned around two seams:

* **the wire protocol** (:mod:`repro.lbs.wire`) — :meth:`handle` accepts
  a raw request document and returns an outcome document, and
  :meth:`handle_batch` does the same for many independent documents at
  once, so an HTTP/gRPC/queue front-end needs zero knowledge of domain
  objects;
* **the execution backend** (:mod:`repro.lbs.backends`) — where batch
  work runs (inline, sharded process pool) is a constructor choice, not
  a code path. Only wire documents cross it.

Every wire operation has one route. Cloak and reversal documents, alone or
coalesced, go through one *lane* per operation: admission, one backend
call with the raw documents, counters. The typed batch calls
:meth:`cloak_batch` / :meth:`deanonymize_batch` are thin adapters over the
same lanes (request objects to documents and outcome documents back). The
typed single calls :meth:`cloak` / :meth:`cloak_segment` /
:meth:`deanonymize` run on the service's own engine: they are the
in-process library API and parse nothing.

The service retains *no* per-request state — the defining advantage over
the mapping-store baseline — apart from lock-guarded bookkeeping counters
used by experiments. It is thread-safe: batches are pinned to the snapshot
installed when they start, and a concurrent :meth:`update_snapshot` never
tears a batch.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, get_args

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
    ReversalServingError,
    ServingError,
    user_segment_of,
)
from .faults import Deadline
from .wire import (
    BATCH_OUTCOME_FORMAT,
    CLOAK_REQUEST_FORMAT,
    DEANONYMIZE_BATCH_FORMAT,
    DEANONYMIZE_REQUEST_FORMAT,
    PING_FORMAT,
    PING_REQUEST_FORMAT,
    STATS_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
    error_class_for_code,
)

__all__ = ["AnonymizerService"]

#: The failures typed batch calls return in place (see
#: :data:`~repro.lbs.backends.ServingError` and
#: :data:`~repro.lbs.backends.ReversalServingError`).
_SERVING_ERRORS = get_args(ServingError)
_REVERSAL_ERRORS = get_args(ReversalServingError)


def _typed_outcomes(outcome_type, payload: str, errors, requests, replies):
    """Typed batch outcomes of outcome documents, one per request.

    An error outcome becomes ``outcome_type(request, error=...)`` when its
    exception is one of ``errors``; the first other error raises.
    """
    outcomes = []
    for request, reply in zip(requests, replies):
        outcome = OutcomeDoc.from_dict(reply)
        if outcome.ok:
            outcomes.append(outcome_type(request, getattr(outcome, payload)))
            continue
        error = outcome.to_exception()
        if not isinstance(error, errors):
            raise error
        outcomes.append(outcome_type(request, error=error))
    return outcomes


def _error_class(outcome: dict) -> type:
    """The exception class of an error outcome document's code."""
    return error_class_for_code(str((outcome.get("error") or {}).get("code", "")))


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

        Looks up the user's current segment in the snapshot (unless the
        request already carries it), expands per the profile, and returns
        the envelope.
        """
        snapshot = self._require_snapshot()
        with self._admit(1):
            user_segment = request.user_segment
            if user_segment is None:
                user_segment = user_segment_of(snapshot, request.user_id)
            return self._anonymize(
                snapshot,
                user_segment,
                request.profile,
                request.chain,
                request.deadline_ms,
            )

    def cloak_segment(
        self,
        user_segment: int,
        profile: PrivacyProfile,
        chain: KeyChain,
        deadline_ms: Optional[float] = None,
    ) -> CloakEnvelope:
        """Cloak an explicit segment (bypasses the user lookup; used by
        experiments that sweep positions directly) under an optional
        cooperative ``deadline_ms``."""
        snapshot = self._require_snapshot()
        with self._admit(1):
            return self._anonymize(
                snapshot, user_segment, profile, chain, deadline_ms
            )

    def _anonymize(
        self,
        snapshot: PopulationSnapshot,
        user_segment: int,
        profile: PrivacyProfile,
        chain: KeyChain,
        deadline_ms: Optional[float],
    ) -> CloakEnvelope:
        deadline = Deadline.start(deadline_ms)
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

        An adapter over the cloak lane that :meth:`handle_batch` serves:
        the requests travel as wire documents, and the outcomes are read
        back from outcome documents.

        Raises:
            MobilityError: No snapshot is installed.
        """
        replies = self._cloak_lane(
            [CloakRequestDoc.from_request(request).to_dict() for request in requests]
        )
        return _typed_outcomes(
            BatchOutcome, "envelope", _SERVING_ERRORS, requests, replies
        )

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

        The batch twin of :meth:`deanonymize`: outcomes come back in
        request order, per-item failures (wrong keys, collisions, foreign
        envelopes) ride in place as typed
        :class:`~repro.lbs.backends.ReversalOutcome` errors, and the
        results are byte-identical whichever backend the service was
        configured with — the process pool peels shards in parallel. An
        adapter over the reversal lane, like :meth:`cloak_batch`.
        """
        replies = self._peel_lane([request.to_dict() for request in requests])
        return _typed_outcomes(
            ReversalOutcome, "result", _REVERSAL_ERRORS, requests, replies
        )

    def _reversal_engine(self, envelope: CloakEnvelope) -> ReverseCloakEngine:
        return self._reversal_engines.engine_for(envelope)

    # ------------------------------------------------------------------
    # transport-neutral entry point
    # ------------------------------------------------------------------
    def handle(self, document: dict) -> dict:
        """Serve one raw wire document and return an outcome document.

        Dispatches on the document's ``format`` tag. A single cloak
        (:data:`~repro.lbs.wire.CLOAK_REQUEST_FORMAT`) or reversal
        (:data:`~repro.lbs.wire.DEANONYMIZE_REQUEST_FORMAT`) document is
        served as a batch of one through :meth:`handle_batch`, so it takes
        the same route alone as coalesced. A reversal batch
        (:data:`~repro.lbs.wire.DEANONYMIZE_BATCH_FORMAT`) is validated as
        a whole and its items go through the same reversal lane; it
        answers with a :class:`~repro.lbs.wire.BatchOutcomeDoc`, per-item
        errors in place. Its ``deadline_ms`` is the default cooperative
        deadline of every item that does not carry its own.

        Every :class:`~repro.errors.ReverseCloakError` — including
        malformed documents, shed load (``overloaded``) and expired
        deadlines (``deadline_exceeded``) — comes back as a structured
        error outcome; only genuinely unexpected exceptions propagate.
        This is the single method a transport adapter needs.
        """
        kind = document.get("format") if isinstance(document, dict) else None
        if kind == CLOAK_REQUEST_FORMAT or kind == DEANONYMIZE_REQUEST_FORMAT:
            return self.handle_batch([document])[0]
        try:
            if kind == DEANONYMIZE_BATCH_FORMAT:
                default_ms = DeanonymizeBatchDoc.from_dict(document).deadline_ms
                items = document["items"]
                if default_ms is not None:
                    # The batch-level deadline is a default, not a cap:
                    # items carrying their own deadline keep it.
                    items = [
                        item
                        if item.get("deadline_ms") is not None
                        else dict(item, deadline_ms=default_ms)
                        for item in items
                    ]
                return {
                    "format": BATCH_OUTCOME_FORMAT,
                    "version": WIRE_VERSION,
                    "outcomes": self._peel_lane(items),
                }
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
        answers for that document alone. Cloak documents form one lane
        and reversal documents another; each lane is one
        ``cloak_batch_raw`` / ``deanonymize_batch_raw`` backend call with
        the raw documents, so a process-pool backend pays its dispatch
        overhead once per lane and each document is parsed where it is
        served. Every other format (reversal batches, stats, unknown) is
        served individually through :meth:`handle`.

        Admission control is per lane, all-or-nothing like any batch.
        When a lane fails as a whole (no snapshot, or shed), each document
        in it that does not parse answers ``malformed_document``, as it
        would alone, and is not counted as shed; the rest answer the
        lane's error. Parse failures, unknown users and serving failures
        all ride in place too: this method never raises for a bad
        document.
        """
        results: List[Optional[dict]] = [None] * len(documents)
        cloak_lane: List[int] = []
        peel_lane: List[int] = []
        for position, document in enumerate(documents):
            kind = document.get("format") if isinstance(document, dict) else None
            if kind == CLOAK_REQUEST_FORMAT:
                cloak_lane.append(position)
            elif kind == DEANONYMIZE_REQUEST_FORMAT:
                peel_lane.append(position)
            else:
                results[position] = self.handle(document)
        for positions, serve, parse in (
            (cloak_lane, self._cloak_lane, CloakRequestDoc.from_dict),
            (peel_lane, self._peel_lane, DeanonymizeRequestDoc.from_dict),
        ):
            if not positions:
                continue
            lane = [documents[position] for position in positions]
            try:
                replies = serve(lane)
            except ReverseCloakError as exc:
                replies = self._lane_failure(lane, exc, parse)
            for position, reply in zip(positions, replies):
                results[position] = reply
        return results  # type: ignore[return-value]

    def _lane_failure(
        self,
        lane: List[dict],
        exc: ReverseCloakError,
        parse: Callable[[dict], object],
    ) -> List[dict]:
        """The answers of a lane that failed as a whole: a document that
        does not parse answers as malformed (and, if the lane was shed, is
        taken back out of :attr:`requests_shed`); the rest answer
        ``exc``. Parsing happens only here, off the serving path."""
        failure = OutcomeDoc.from_exception(exc).to_dict()
        replies = []
        malformed = 0
        for document in lane:
            try:
                parse(document)
            except WireFormatError as bad:
                replies.append(OutcomeDoc.from_exception(bad).to_dict())
                malformed += 1
            else:
                replies.append(dict(failure))
        if malformed and isinstance(exc, OverloadedError):
            with self._counter_lock:
                self._requests_shed -= malformed
        return replies

    def _cloak_lane(self, documents: List[dict]) -> List[dict]:
        """Serve raw cloak documents through the backend against the
        current snapshot, admitted as one unit; outcome documents in
        order. Counts every success as served and every cloaking error as
        a failure; a malformed or unknown-user document counts as
        neither.

        Raises:
            MobilityError: No snapshot is installed.
            OverloadedError: The lane was shed.
        """
        snapshot = self._require_snapshot()
        with self._admit(len(documents)):
            replies = self._backend.cloak_batch_raw(snapshot, documents)
        served = failures = 0
        for reply in replies:
            if reply.get("status") == "ok":
                served += 1
            elif issubclass(_error_class(reply), CloakingError):
                failures += 1
        self._count(served=served, failures=failures)
        return replies

    def _peel_lane(self, documents: List[dict]) -> List[dict]:
        """Serve raw reversal documents through the backend, admitted as
        one unit; outcome documents in order. Counts every success as a
        reversal served and every other error as a reversal failure,
        except malformed documents, which count as neither.

        Raises:
            OverloadedError: The lane was shed.
        """
        with self._admit(len(documents)):
            replies = self._backend.deanonymize_batch_raw(documents)
        served = failures = 0
        for reply in replies:
            if reply.get("status") == "ok":
                served += 1
            elif not issubclass(_error_class(reply), WireFormatError):
                failures += 1
        self._count(reversals=served, reversal_failures=failures)
        return replies

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
