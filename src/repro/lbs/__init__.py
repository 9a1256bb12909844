"""LBS substrate: anonymization service (wire protocol + execution
backends), provider, anonymous query processing, temporal deferral and
continuous cloaking."""

from .backends import (
    BackendSpec,
    BatchOutcome,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    ReversalEngineCache,
    ReversalOutcome,
)
from .continuous import CloakTimeline, ContinuousCloaker, TimelineEntry
from .deferral import DeferredCloaking, DeferredResult, TemporalTolerance
from .faults import (
    FAULT_PLAN_ENV,
    NETWORK_FAULT_KINDS,
    Deadline,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultyConnection,
    NetworkFaultInjector,
)
from .framing import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_frame
from .provider import LBSProvider
from .query import CandidateResult, PoiDirectory, PointOfInterest, range_query
from .service import AnonymizerService
from .wire import (
    BatchOutcomeDoc,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
)

__all__ = [
    "AnonymizerService",
    "CloakRequest",
    "BatchOutcome",
    "ReversalOutcome",
    "ReversalEngineCache",
    "CloakRequestDoc",
    "DeanonymizeRequestDoc",
    "DeanonymizeBatchDoc",
    "OutcomeDoc",
    "BatchOutcomeDoc",
    "ExecutionBackend",
    "BackendSpec",
    "InlineBackend",
    "ProcessPoolBackend",
    "LBSProvider",
    "PoiDirectory",
    "PointOfInterest",
    "CandidateResult",
    "range_query",
    "TemporalTolerance",
    "DeferredCloaking",
    "DeferredResult",
    "ContinuousCloaker",
    "CloakTimeline",
    "TimelineEntry",
    "Deadline",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultyConnection",
    "NetworkFaultInjector",
    "NETWORK_FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FrameDecoder",
    "encode_frame",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrontendServer",
    "FrontendClient",
    "ResilientClient",
]


def __getattr__(name: str):
    # The front-end is imported lazily (PEP 562) so that
    # ``python -m repro.lbs.frontend`` does not import the module twice
    # (once here, once as ``__main__`` — runpy warns about exactly that).
    if name in ("FrontendServer", "FrontendClient", "ResilientClient"):
        from . import frontend

        return getattr(frontend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
