"""The transport-neutral wire protocol of the serving layer.

The paper's deployment (Section II-B) is a client / anonymizer / LBS
pipeline: cloaking and de-anonymization requests cross process and machine
boundaries. This module defines the versioned, JSON-round-trippable
documents those boundaries exchange, so any transport — an in-process call,
a sharded process pool, a TCP front-end — can carry the same requests and
produce byte-identical results:

* :class:`CloakRequestDoc` — one client's anonymization request (user id,
  profile, per-level keys, optionally the pre-resolved segment),
* :class:`DeanonymizeRequestDoc` — a requester's reversal request
  (envelope, granted keys, target level, reversal mode),
* :class:`DeanonymizeBatchDoc` — an ordered batch of reversal requests,
  served as one unit on an execution backend (key material travels inside
  each item as the existing key-grant documents),
* :class:`OutcomeDoc` — the uniform response envelope: a success payload
  (cloak envelope or recovered regions) *or* a structured error code,
* :class:`BatchOutcomeDoc` — the positional outcome list of a batch
  request: one :class:`OutcomeDoc` per item, same order, with per-item
  structured error codes (one failing item never poisons its siblings).

Every parser raises :class:`~repro.errors.WireFormatError` on a malformed
document; serving surfaces map that to the stable error code
``"malformed_document"``. Error codes are part of the protocol: they are
stable strings (see :data:`ERROR_CODES`), never Python class names, so
non-Python clients can switch on them and process-pool workers can ship
failures back without pickling exception objects.

Secrecy note: request documents necessarily carry key material (the
anonymizer needs the keys to drive the expansion; that is the paper's trust
model). They are wire forms for links *inside* the trusted perimeter —
client to anonymizer, anonymizer to its workers — and must never be logged
or published. Outcome documents carry no key material.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from ..core.engine import DeanonymizationResult
from ..core.envelope import CloakEnvelope
from ..core.profile import PrivacyProfile
from ..errors import (
    WIRE_ERROR_CODES,
    CloakingError,
    CollisionError,
    DeanonymizationError,
    FrontierExhaustedError,
    ReverseCloakError,
    ToleranceExceededError,
    WireFormatError,
)
from ..keys.keys import AccessKey, KeyChain
from ..mobility.snapshot import PopulationSnapshot

__all__ = [
    "WIRE_VERSION",
    "CLOAK_REQUEST_FORMAT",
    "DEANONYMIZE_REQUEST_FORMAT",
    "DEANONYMIZE_BATCH_FORMAT",
    "OUTCOME_FORMAT",
    "BATCH_OUTCOME_FORMAT",
    "SNAPSHOT_FORMAT",
    "STATS_REQUEST_FORMAT",
    "STATS_FORMAT",
    "PING_REQUEST_FORMAT",
    "PING_FORMAT",
    "HEALTH_REQUEST_FORMAT",
    "HEALTH_FORMAT",
    "MALFORMED_DOCUMENT",
    "ERROR_CODES",
    "CloakRequest",
    "CloakRequestDoc",
    "DeanonymizeRequestDoc",
    "DeanonymizeBatchDoc",
    "OutcomeDoc",
    "BatchOutcomeDoc",
    "error_code_for",
    "error_class_for_code",
    "error_doc_for",
    "exception_from_error_doc",
    "snapshot_to_dict",
    "snapshot_from_dict",
]

WIRE_VERSION = 1

CLOAK_REQUEST_FORMAT = "repro.cloak_request"
DEANONYMIZE_REQUEST_FORMAT = "repro.deanonymize_request"
DEANONYMIZE_BATCH_FORMAT = "repro.deanonymize_batch"
OUTCOME_FORMAT = "repro.outcome"
BATCH_OUTCOME_FORMAT = "repro.batch_outcome"
SNAPSHOT_FORMAT = "repro.snapshot"
STATS_REQUEST_FORMAT = "repro.stats_request"
STATS_FORMAT = "repro.stats"
PING_REQUEST_FORMAT = "repro.ping"
PING_FORMAT = "repro.pong"
HEALTH_REQUEST_FORMAT = "repro.health_request"
HEALTH_FORMAT = "repro.health"

#: The error code every malformed wire document maps to.
MALFORMED_DOCUMENT = "malformed_document"


@dataclass(frozen=True)
class CloakRequest:
    """One mobile client's anonymization request.

    Attributes:
        user_id: The requesting user (must be present in the snapshot).
        profile: The user-defined multi-level privacy profile.
        chain: The user's per-level access keys (kept client-side after the
            request; the server uses them only to drive the expansion).
        deadline_ms: Optional cooperative serving deadline in milliseconds.
            The clock starts when a server begins executing the request;
            expiry surfaces as the structured ``deadline_exceeded`` code.
        user_segment: The user's segment, when the caller already resolved
            it against the serving snapshot (transport front-ends and
            execution backends do, so the engine never re-resolves).
            ``None`` means serving must look the user up itself.
    """

    user_id: int
    profile: PrivacyProfile
    chain: KeyChain
    deadline_ms: Optional[float] = None
    user_segment: Optional[int] = None


def _require(document, kind: str) -> dict:
    """Common envelope of every wire parser: dict, format tag, version."""
    if not isinstance(document, dict):
        raise WireFormatError(
            f"{kind} document must be a dict, got {type(document).__name__}"
        )
    if document.get("format") != kind:
        raise WireFormatError(
            f"not a {kind} document (format={document.get('format')!r})"
        )
    if document.get("version") != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported {kind} version: {document.get('version')!r}"
        )
    return document


def _parse(kind: str, what: str, thunk):
    """Run a field parser, mapping any structural failure to WireFormatError."""
    try:
        return thunk()
    except WireFormatError:
        raise
    except (
        ReverseCloakError,
        AttributeError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        raise WireFormatError(f"malformed {kind}: bad {what}: {exc}") from None


#: Parsed-profile memo keyed by canonical JSON. Real workloads draw
#: profiles from a handful of presets, so batch serving parses each
#: distinct profile document once instead of once per request; profiles
#: are immutable, so sharing instances is safe. True LRU (move-to-end on
#: hit, evict oldest past the cap): request documents are attacker input,
#: so a long-running :class:`~repro.lbs.service.AnonymizerService` fed
#: churning profiles must neither grow without limit nor — as the former
#: clear-when-full policy did — drop the hot presets whenever the cap is
#: reached. Lock-guarded: backends parse concurrently.
_PROFILE_CACHE: "OrderedDict[str, PrivacyProfile]" = OrderedDict()
_PROFILE_CACHE_CAP = 256
_PROFILE_CACHE_LOCK = threading.Lock()


def _cached_profile(document) -> PrivacyProfile:
    try:
        key = json.dumps(document, sort_keys=True)
    except (TypeError, ValueError):
        return PrivacyProfile.from_dict(document)  # unhashable junk: let it fail there
    with _PROFILE_CACHE_LOCK:
        profile = _PROFILE_CACHE.get(key)
        if profile is not None:
            _PROFILE_CACHE.move_to_end(key)
            return profile
    profile = PrivacyProfile.from_dict(document)
    with _PROFILE_CACHE_LOCK:
        _PROFILE_CACHE[key] = profile
        _PROFILE_CACHE.move_to_end(key)
        while len(_PROFILE_CACHE) > _PROFILE_CACHE_CAP:
            _PROFILE_CACHE.popitem(last=False)
    return profile


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CloakRequestDoc:
    """The wire form of a :class:`CloakRequest`.

    Attributes:
        user_id: The requesting user.
        profile: The multi-level privacy profile.
        chain: The per-level access keys.
        user_segment: The user's segment, when the front-end already
            resolved it against the serving snapshot (execution backends do
            this so workers need only population *counts*, not the full
            user-to-segment map). ``None`` means the server must look the
            user up itself.
        deadline_ms: Optional cooperative serving deadline (milliseconds;
            see :class:`CloakRequest`). Omitted from the wire form when
            unset, so deadline-free documents are byte-identical to the
            previous protocol revision.
    """

    user_id: int
    profile: PrivacyProfile
    chain: KeyChain
    user_segment: Optional[int] = None
    deadline_ms: Optional[float] = None

    @classmethod
    def from_request(
        cls, request: CloakRequest, user_segment: Optional[int] = None
    ) -> "CloakRequestDoc":
        return cls(
            user_id=request.user_id,
            profile=request.profile,
            chain=request.chain,
            user_segment=(
                user_segment if user_segment is not None else request.user_segment
            ),
            deadline_ms=request.deadline_ms,
        )

    def to_request(self) -> CloakRequest:
        return CloakRequest(
            user_id=self.user_id,
            profile=self.profile,
            chain=self.chain,
            deadline_ms=self.deadline_ms,
            user_segment=self.user_segment,
        )

    def to_dict(self) -> dict:
        document = {
            "format": CLOAK_REQUEST_FORMAT,
            "version": WIRE_VERSION,
            "user_id": self.user_id,
            "profile": self.profile.to_dict(),
            "chain": self.chain.to_dict(),
            # Emitted even when None: v1 documents have always carried the
            # key, and omitting it would change their byte form (the
            # envelope oracle hashes these bytes).
            # reprolint: disable=wire-roundtrip
            "user_segment": self.user_segment,
        }
        if self.deadline_ms is not None:
            document["deadline_ms"] = self.deadline_ms
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "CloakRequestDoc":
        document = _require(document, CLOAK_REQUEST_FORMAT)
        # Flat try/except (no per-field closures): this parser sits on the
        # batch-serving hot path of the process-pool workers.
        try:
            user_id = int(document["user_id"])
            profile = _cached_profile(document["profile"])
            chain = KeyChain.from_dict(document["chain"])
            segment = document.get("user_segment")
            user_segment = None if segment is None else int(segment)
            deadline = document.get("deadline_ms")
            deadline_ms = None if deadline is None else float(deadline)
        except WireFormatError:
            raise
        except (
            ReverseCloakError,
            AttributeError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            raise WireFormatError(
                f"malformed {CLOAK_REQUEST_FORMAT}: {exc}"
            ) from None
        return cls(
            user_id=user_id,
            profile=profile,
            chain=chain,
            user_segment=user_segment,
            deadline_ms=deadline_ms,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "CloakRequestDoc":
        try:
            document = json.loads(payload)
        except ValueError as exc:
            raise WireFormatError(f"cloak request is not valid JSON: {exc}") from None
        return cls.from_dict(document)


@dataclass(frozen=True)
class DeanonymizeRequestDoc:
    """The wire form of a server-side de-anonymization request.

    Attributes:
        envelope: The published cloak to peel.
        keys: The requester's granted keys (typically a
            :meth:`~repro.keys.access_control.KeyGrant` suffix).
        target_level: The lowest level to recover.
        mode: ``"auto"``, ``"hint"``, or ``"search"``.
        deadline_ms: Optional cooperative serving deadline (milliseconds;
            see :class:`CloakRequest`). Omitted from the wire form when
            unset.
    """

    envelope: CloakEnvelope
    keys: Tuple[AccessKey, ...]
    target_level: int
    mode: str = "auto"
    deadline_ms: Optional[float] = None

    def key_map(self) -> Dict[int, AccessKey]:
        return {key.level: key for key in self.keys}

    def to_dict(self) -> dict:
        document = {
            "format": DEANONYMIZE_REQUEST_FORMAT,
            "version": WIRE_VERSION,
            "envelope": self.envelope.to_dict(),
            "keys": [key.to_dict() for key in self.keys],
            "target_level": self.target_level,
            "mode": self.mode,
        }
        if self.deadline_ms is not None:
            document["deadline_ms"] = self.deadline_ms
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "DeanonymizeRequestDoc":
        document = _require(document, DEANONYMIZE_REQUEST_FORMAT)
        kind = DEANONYMIZE_REQUEST_FORMAT
        envelope = _parse(
            kind, "envelope", lambda: CloakEnvelope.from_dict(document["envelope"])
        )
        keys = _parse(
            kind,
            "keys",
            lambda: tuple(AccessKey.from_dict(item) for item in document["keys"]),
        )
        target_level = _parse(
            kind, "target_level", lambda: int(document["target_level"])
        )
        mode = str(document.get("mode", "auto"))
        deadline_ms = _parse(
            kind,
            "deadline_ms",
            lambda: (
                None
                if document.get("deadline_ms") is None
                else float(document["deadline_ms"])
            ),
        )
        return cls(
            envelope=envelope,
            keys=keys,
            target_level=target_level,
            mode=mode,
            deadline_ms=deadline_ms,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "DeanonymizeRequestDoc":
        try:
            document = json.loads(payload)
        except ValueError as exc:
            raise WireFormatError(
                f"deanonymize request is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(document)


@dataclass(frozen=True)
class DeanonymizeBatchDoc:
    """An ordered batch of de-anonymization requests, served as one unit.

    Each item is a complete :class:`DeanonymizeRequestDoc` — envelope,
    granted keys (the existing key-grant wire form), target level and mode
    travel per item, so a batch may mix envelopes, algorithms and grants
    freely. The response is a :class:`BatchOutcomeDoc`: one outcome per
    item in the same position, failures carried as per-item structured
    error codes.

    ``deadline_ms`` is a batch-level *default* cooperative deadline: when
    set, serving applies it to every item that does not carry its own
    ``deadline_ms``. Per-item deadlines always win. Omitted from the wire
    form when unset.
    """

    items: Tuple[DeanonymizeRequestDoc, ...]
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.items:
            raise WireFormatError(
                "a deanonymize batch must contain at least one item"
            )

    def to_dict(self) -> dict:
        document = {
            "format": DEANONYMIZE_BATCH_FORMAT,
            "version": WIRE_VERSION,
            "items": [item.to_dict() for item in self.items],
        }
        if self.deadline_ms is not None:
            document["deadline_ms"] = self.deadline_ms
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "DeanonymizeBatchDoc":
        document = _require(document, DEANONYMIZE_BATCH_FORMAT)
        items = document.get("items")
        if not isinstance(items, list) or not items:
            raise WireFormatError(
                f"malformed {DEANONYMIZE_BATCH_FORMAT}: 'items' must be a "
                "non-empty list"
            )
        deadline_ms = _parse(
            DEANONYMIZE_BATCH_FORMAT,
            "deadline_ms",
            lambda: (
                None
                if document.get("deadline_ms") is None
                else float(document["deadline_ms"])
            ),
        )
        return cls(
            items=tuple(
                _parse(
                    DEANONYMIZE_BATCH_FORMAT,
                    f"item {index}",
                    lambda item=item: DeanonymizeRequestDoc.from_dict(item),
                )
                for index, item in enumerate(items)
            ),
            deadline_ms=deadline_ms,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "DeanonymizeBatchDoc":
        try:
            document = json.loads(payload)
        except ValueError as exc:
            raise WireFormatError(
                f"deanonymize batch is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(document)


# ----------------------------------------------------------------------
# error codes
# ----------------------------------------------------------------------
#: Stable protocol error codes, most-derived exception first. The order is
#: the dispatch order of :func:`error_code_for`, so a subclass must appear
#: before every one of its bases. The single declaration lives beside the
#: exception hierarchy as :data:`repro.errors.WIRE_ERROR_CODES`; this is
#: an alias for wire-layer callers.
ERROR_CODES: Tuple[Tuple[Type[ReverseCloakError], str], ...] = WIRE_ERROR_CODES

_CODE_TO_CLASS: Dict[str, Type[ReverseCloakError]] = {}
for _cls, _code in ERROR_CODES:
    _CODE_TO_CLASS.setdefault(_code, _cls)


def error_code_for(exc: BaseException) -> str:
    """The stable protocol code of ``exc`` (``"internal_error"`` fallback)."""
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal_error"


def error_class_for_code(code: str) -> Type[ReverseCloakError]:
    """The exception class a stable protocol code reconstructs as.

    The reverse direction of :func:`error_code_for` — what a caller holding
    only an outcome document's ``error.code`` uses to attribute the failure
    (e.g. "is this a :class:`~repro.errors.CloakingError`?") without
    rebuilding the exception. Unknown codes map to the hierarchy root.
    """
    return _CODE_TO_CLASS.get(code, ReverseCloakError)


def error_doc_for(exc: BaseException) -> dict:
    """The structured error payload of an :class:`OutcomeDoc`.

    Carries the code, the human-readable message, and — for the error types
    whose constructors take structured arguments — enough detail to rebuild
    an equivalent exception on the other side of the wire.
    """
    details: dict = {}
    if isinstance(exc, ToleranceExceededError):
        details = {"level": exc.level, "detail": exc.detail}
    elif isinstance(exc, FrontierExhaustedError):
        details = {"level": exc.level}
    elif isinstance(exc, CollisionError):
        details = {"level": exc.level, "hypotheses": exc.hypotheses}
    doc = {"code": error_code_for(exc), "message": str(exc)}
    if details:
        doc["details"] = details
    return doc


#: Fallback classes for the parameterised codes: their constructors take
#: structured arguments, so a detail-less payload reconstructs as the
#: nearest message-only base instead (still catchable the same way).
_MESSAGE_ONLY_FALLBACK: Dict[str, Type[ReverseCloakError]] = {
    "tolerance_exceeded": CloakingError,
    "frontier_exhausted": CloakingError,
    "reversal_collision": DeanonymizationError,
}


def exception_from_error_doc(document: dict) -> ReverseCloakError:
    """Rebuild the typed exception an error payload describes.

    The reconstruction preserves the exception *type* (so callers can keep
    using ``except CloakingError`` across a process boundary) and the
    structured attributes of the parameterised types. A parameterised code
    arriving without usable details (e.g. from a non-Python client)
    degrades to the nearest message-only base class rather than failing.
    """
    if not isinstance(document, dict) or "code" not in document:
        raise WireFormatError("error payload must be a dict with a 'code'")
    code = str(document["code"])
    message = str(document.get("message", code))
    details = document.get("details") or {}
    try:
        if code == "tolerance_exceeded":
            return ToleranceExceededError(int(details["level"]), str(details["detail"]))
        if code == "frontier_exhausted":
            return FrontierExhaustedError(int(details["level"]))
        if code == "reversal_collision":
            return CollisionError(int(details["level"]), int(details["hypotheses"]))
    except (KeyError, TypeError, ValueError):
        pass  # detail-less variants degrade to the message-only fallback
    cls = _MESSAGE_ONLY_FALLBACK.get(code) or _CODE_TO_CLASS.get(
        code, ReverseCloakError
    )
    return cls(message)


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OutcomeDoc:
    """The uniform serving response: success payload or structured error.

    Exactly one of the three payload shapes is present:

    * ``envelope`` — a cloaking success,
    * ``result`` — a de-anonymization success,
    * ``error_code``/``error_message`` — a structured failure.
    """

    envelope: Optional[CloakEnvelope] = None
    result: Optional[DeanonymizationResult] = None
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    error_details: Optional[dict] = None

    def __post_init__(self) -> None:
        present = sum(
            1
            for payload in (self.envelope, self.result, self.error_code)
            if payload is not None
        )
        if present != 1:
            raise WireFormatError(
                "an outcome carries exactly one of envelope/result/error"
            )

    @property
    def ok(self) -> bool:
        return self.error_code is None

    @classmethod
    def from_envelope(cls, envelope: CloakEnvelope) -> "OutcomeDoc":
        return cls(envelope=envelope)

    @classmethod
    def from_result(cls, result: DeanonymizationResult) -> "OutcomeDoc":
        return cls(result=result)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "OutcomeDoc":
        payload = error_doc_for(exc)
        return cls(
            error_code=payload["code"],
            error_message=payload["message"],
            error_details=payload.get("details"),
        )

    def to_exception(self) -> ReverseCloakError:
        """The typed exception of an error outcome (raises on success docs)."""
        if self.ok:
            raise WireFormatError("outcome is a success; there is no error")
        payload = {"code": self.error_code, "message": self.error_message}
        if self.error_details:
            payload["details"] = self.error_details
        return exception_from_error_doc(payload)

    def raise_if_error(self) -> "OutcomeDoc":
        """Raise the typed exception of an error outcome; return self on
        success, so transports can chain ``OutcomeDoc.from_dict(d).raise_if_error()``."""
        if not self.ok:
            raise self.to_exception()
        return self

    def to_dict(self) -> dict:
        document: dict = {
            "format": OUTCOME_FORMAT,
            "version": WIRE_VERSION,
            "status": "ok" if self.ok else "error",
        }
        if self.envelope is not None:
            document["envelope"] = self.envelope.to_dict()
        elif self.result is not None:
            document["result"] = {
                "target_level": self.result.target_level,
                "regions": {
                    str(level): list(region)
                    for level, region in sorted(self.result.regions.items())
                },
                "removed": {
                    str(level): list(removed)
                    for level, removed in sorted(self.result.removed.items())
                },
            }
        else:
            document["error"] = {
                "code": self.error_code,
                "message": self.error_message,
            }
            if self.error_details:
                document["error"]["details"] = dict(self.error_details)
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "OutcomeDoc":
        document = _require(document, OUTCOME_FORMAT)
        kind = OUTCOME_FORMAT
        status = document.get("status")
        if status == "ok":
            if "envelope" in document:
                envelope = _parse(
                    kind,
                    "envelope",
                    lambda: CloakEnvelope.from_dict(document["envelope"]),
                )
                return cls(envelope=envelope)
            if "result" in document:
                def build_result() -> DeanonymizationResult:
                    payload = document["result"]
                    return DeanonymizationResult(
                        target_level=int(payload["target_level"]),
                        regions={
                            int(level): tuple(int(s) for s in region)
                            for level, region in payload["regions"].items()
                        },
                        removed={
                            int(level): tuple(int(s) for s in removed)
                            for level, removed in payload["removed"].items()
                        },
                    )

                return cls(result=_parse(kind, "result", build_result))
            raise WireFormatError("ok outcome carries neither envelope nor result")
        if status == "error":
            error = document.get("error")
            if not isinstance(error, dict) or "code" not in error:
                raise WireFormatError("error outcome carries no structured error")
            return cls(
                error_code=str(error["code"]),
                error_message=str(error.get("message", error["code"])),
                error_details=error.get("details"),
            )
        raise WireFormatError(f"unknown outcome status: {status!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "OutcomeDoc":
        try:
            document = json.loads(payload)
        except ValueError as exc:
            raise WireFormatError(f"outcome is not valid JSON: {exc}") from None
        return cls.from_dict(document)


@dataclass(frozen=True)
class BatchOutcomeDoc:
    """The positional response of a batch request.

    One :class:`OutcomeDoc` per submitted item, in submission order —
    failures sit in place as structured error outcomes, so a client can
    retry or report per item without re-correlating anything.
    """

    outcomes: Tuple[OutcomeDoc, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise WireFormatError(
                "a batch outcome must contain at least one outcome"
            )

    @property
    def ok(self) -> bool:
        """Whether every item succeeded."""
        return all(outcome.ok for outcome in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "format": BATCH_OUTCOME_FORMAT,
            "version": WIRE_VERSION,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "BatchOutcomeDoc":
        document = _require(document, BATCH_OUTCOME_FORMAT)
        outcomes = document.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise WireFormatError(
                f"malformed {BATCH_OUTCOME_FORMAT}: 'outcomes' must be a "
                "non-empty list"
            )
        return cls(
            outcomes=tuple(
                _parse(
                    BATCH_OUTCOME_FORMAT,
                    f"outcome {index}",
                    lambda item=item: OutcomeDoc.from_dict(item),
                )
                for index, item in enumerate(outcomes)
            )
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "BatchOutcomeDoc":
        try:
            document = json.loads(payload)
        except ValueError as exc:
            raise WireFormatError(
                f"batch outcome is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(document)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def snapshot_to_dict(
    snapshot: PopulationSnapshot, counts_only: bool = False
) -> dict:
    """The wire form of a population snapshot.

    With ``counts_only`` the document carries per-segment *counts* instead
    of the user-to-segment map — an order of magnitude smaller, and exactly
    what cloaking needs (``delta_k`` compares counts; envelopes never
    mention user ids). Execution backends ship the counts form to workers
    after resolving each request's user to a segment up front; the
    identity-preserving form exists for transports that need the lookup on
    the far side.
    """
    document: dict = {
        "format": SNAPSHOT_FORMAT,
        "version": WIRE_VERSION,
        "time": snapshot.time,
    }
    if counts_only:
        document["counts"] = {
            str(segment_id): snapshot.count_on(segment_id)
            for segment_id in snapshot.occupied_segments()
        }
    else:
        document["users"] = {
            str(user_id): snapshot.segment_of(user_id)
            for user_id in snapshot.users()
        }
    return document


def snapshot_from_dict(document: dict) -> PopulationSnapshot:
    """Rebuild a snapshot from :func:`snapshot_to_dict` output.

    A counts-form document synthesizes consecutive user ids (like
    :meth:`PopulationSnapshot.from_counts`): counts — the cloaking-relevant
    content — round-trip exactly, identities do not.
    """
    document = _require(document, SNAPSHOT_FORMAT)
    kind = SNAPSHOT_FORMAT
    time = _parse(kind, "time", lambda: float(document.get("time", 0.0)))
    if "users" in document:
        return _parse(
            kind,
            "users",
            lambda: PopulationSnapshot(
                {
                    int(user_id): int(segment_id)
                    for user_id, segment_id in document["users"].items()
                },
                time=time,
            ),
        )
    if "counts" in document:
        return _parse(
            kind,
            "counts",
            lambda: PopulationSnapshot.from_counts(
                {
                    int(segment_id): int(count)
                    for segment_id, count in document["counts"].items()
                },
                time=time,
            ),
        )
    raise WireFormatError("snapshot document carries neither users nor counts")
