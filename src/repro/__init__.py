"""ReverseCloak: a reversible multi-level location privacy protection system.

A from-scratch reproduction of *ReverseCloak: A Reversible Multi-level
Location Privacy Protection System* (Li, Palanisamy, Kalaivanan,
Raghunathan — ICDCS 2017) and the algorithms of its companion paper
(CIKM 2015): reversible location cloaking over road networks with
multi-level, key-controlled de-anonymization.

Quickstart::

    from repro import (
        ReverseCloakEngine, PrivacyProfile, KeyChain,
        grid_network, TrafficSimulator,
    )

    network = grid_network(12, 12)
    simulator = TrafficSimulator(network, n_cars=500, seed=7)
    snapshot = simulator.snapshot()
    profile = PrivacyProfile.uniform(levels=3, base_k=5, k_step=5,
                                     base_l=3, l_step=2, max_segments=60)
    chain = KeyChain.generate(profile.level_count)

    engine = ReverseCloakEngine(network)
    envelope = engine.anonymize(user_segment=100, snapshot=snapshot,
                                profile=profile, chain=chain)
    result = engine.deanonymize(envelope, chain, target_level=0)
    assert result.region_at(0) == (100,)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
reproduced evaluation.
"""

from .core import (
    CloakEnvelope,
    CloakingAlgorithm,
    DeanonymizationResult,
    LevelRecord,
    LevelRequirement,
    Preassignment,
    PrivacyProfile,
    RegionState,
    ReverseCloakEngine,
    ReversibleGlobalExpansion,
    ReversiblePreassignmentExpansion,
    ToleranceSpec,
    TransitionTable,
    algorithm_for_envelope,
)
from .errors import (
    CloakingError,
    CollisionError,
    DeadlineExceededError,
    DeanonymizationError,
    EnvelopeError,
    FrontierExhaustedError,
    KeyMismatchError,
    MobilityError,
    OverloadedError,
    PreassignmentError,
    ProfileError,
    QueryError,
    ReverseCloakError,
    RoadNetworkError,
    ToleranceExceededError,
    WorkerCrashedError,
)
from .keys import AccessControlProfile, AccessKey, KeyChain, KeyGrant, Requester
from .lbs import (
    AnonymizerService,
    BatchOutcome,
    CloakRequest,
    InlineBackend,
    ProcessPoolBackend,
)
from .mobility import (
    GaussianPlacement,
    MobilityTrace,
    PopulationSnapshot,
    TrafficSimulator,
    UniformPlacement,
    record_trace,
)
from .roadnet import (
    BoundingBox,
    Point,
    RoadNetwork,
    RoadNetworkBuilder,
    atlanta_like,
    fig1_network,
    fig2_network,
    fig3_network,
    grid_network,
    load_network_json,
    path_network,
    radial_network,
    random_delaunay_network,
    save_network_json,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ReverseCloakEngine",
    "DeanonymizationResult",
    "CloakEnvelope",
    "LevelRecord",
    "CloakingAlgorithm",
    "ReversibleGlobalExpansion",
    "ReversiblePreassignmentExpansion",
    "Preassignment",
    "TransitionTable",
    "PrivacyProfile",
    "LevelRequirement",
    "ToleranceSpec",
    "RegionState",
    "algorithm_for_envelope",
    # serving
    "AnonymizerService",
    "CloakRequest",
    "BatchOutcome",
    "InlineBackend",
    "ProcessPoolBackend",
    # keys
    "AccessKey",
    "KeyChain",
    "AccessControlProfile",
    "Requester",
    "KeyGrant",
    # mobility
    "TrafficSimulator",
    "PopulationSnapshot",
    "GaussianPlacement",
    "UniformPlacement",
    "MobilityTrace",
    "record_trace",
    # roadnet
    "Point",
    "BoundingBox",
    "RoadNetwork",
    "RoadNetworkBuilder",
    "grid_network",
    "path_network",
    "radial_network",
    "random_delaunay_network",
    "atlanta_like",
    "fig1_network",
    "fig2_network",
    "fig3_network",
    "save_network_json",
    "load_network_json",
    # errors
    "ReverseCloakError",
    "RoadNetworkError",
    "ProfileError",
    "CloakingError",
    "ToleranceExceededError",
    "FrontierExhaustedError",
    "DeanonymizationError",
    "CollisionError",
    "KeyMismatchError",
    "EnvelopeError",
    "PreassignmentError",
    "MobilityError",
    "QueryError",
    "DeadlineExceededError",
    "WorkerCrashedError",
    "OverloadedError",
]
