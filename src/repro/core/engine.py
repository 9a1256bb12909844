"""The multi-level ReverseCloak engine: anonymize and de-anonymize.

This is the system's public entry point (paper Section II-B). The engine
owns the level loop; the per-step mechanics live in the algorithms
(:mod:`repro.core.rge`, :mod:`repro.core.rple`) and the reversal search in
:mod:`repro.core.reversal`.

Anonymization: starting from the user's segment (level ``L^0``), each keyed
level expands the region until its ``(delta_k, delta_l)`` requirement holds,
selecting segments with that level's key. The result is a
:class:`~repro.core.envelope.CloakEnvelope`.

De-anonymization: a requester holding the keys of levels ``j+1..N-1`` peels
the envelope down to level ``j``, recovering each intermediate region
exactly. Three bootstrap modes (decision D1):

* ``"hint"`` — unseal the per-level last-added hint (deterministic, default),
* ``"search"`` — paper-faithful hypothesis search over frontier-removable
  segments with replay certification,
* ``"auto"`` — hints when present, search otherwise.

There is one production path per operation: the expansion always carries
one maintained :class:`~repro.core.region_state.RegionState` and one
:class:`~repro.core.algorithm.LevelDraws` buffer per level, and reversal
always runs the checkpoint/rollback search. The straight, cache-free
transcription of the paper these paths must agree with byte for byte lives
with the tests (``tests/reference.py``), not behind engine flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..errors import (
    CloakingError,
    CollisionError,
    DeanonymizationError,
    EnvelopeError,
    KeyMismatchError,
    ProfileError,
)
from ..keys.keys import AccessKey, KeyChain
from ..mobility.snapshot import PopulationSnapshot
from ..roadnet.graph import RoadNetwork
from .algorithm import CloakingAlgorithm, LevelDraws
from .envelope import (
    CloakEnvelope,
    LevelRecord,
    level_mac,
    network_digest,
    region_digest,
    seal_anchor,
    unseal_anchor,
    witness_byte,
    witness_bytes,
)
from .profile import PrivacyProfile
from .region_state import RegionState
from .reversal import (
    DEFAULT_BRANCH_LIMIT,
    DrawsCache,
    PeelOutcome,
    enumerate_bootstraps,
    peel_level,
    replay_level,
)
from .rge import ReversibleGlobalExpansion
from .rple import ReversiblePreassignmentExpansion

__all__ = [
    "ReverseCloakEngine",
    "DeanonymizationResult",
    "algorithm_for_envelope",
    "algorithm_from_spec",
]

KeysLike = Union[KeyChain, Mapping[int, AccessKey], Iterable[AccessKey]]


def _normalize_keys(keys: KeysLike) -> Dict[int, AccessKey]:
    if isinstance(keys, KeyChain):
        return {key.level: key for key in keys}
    if isinstance(keys, Mapping):
        for level, key in keys.items():
            if key.level != level:
                raise ProfileError(
                    f"key for level {key.level} registered under level {level}"
                )
        return dict(keys)
    return {key.level: key for key in keys}


def algorithm_from_spec(
    network: RoadNetwork, name: str, params: Optional[Mapping] = None
) -> CloakingAlgorithm:
    """Reconstruct an algorithm from its wire spec ``(name, params)``.

    This is the single place a serialized algorithm identity (envelope
    metadata, a backend worker's engine spec) turns back into an instance.
    Pre-assignment is deterministic, so the RPLE instance built here is
    identical to the anonymizer's.
    """
    params = params or {}
    if name == ReversibleGlobalExpansion.name:
        return ReversibleGlobalExpansion()
    if name == ReversiblePreassignmentExpansion.name:
        max_hops = params.get("max_hops")
        return ReversiblePreassignmentExpansion.for_network(
            network,
            list_length=int(params.get("list_length", 8)),
            max_hops=None if max_hops is None else int(max_hops),
        )
    raise EnvelopeError(f"unknown algorithm: {name!r}")


def algorithm_for_envelope(
    network: RoadNetwork, envelope: CloakEnvelope
) -> CloakingAlgorithm:
    """Reconstruct the algorithm instance an envelope was produced with."""
    return algorithm_from_spec(network, envelope.algorithm, envelope.algorithm_params)


@dataclass(frozen=True)
class DeanonymizationResult:
    """The outcome of peeling an envelope down to ``target_level``.

    Attributes:
        target_level: The lowest recovered level.
        regions: Recovered region per level, ``target_level .. top`` —
            ``regions[level]`` is the cloaking region of that level.
        removed: Segments removed per peeled level, in removal order.
    """

    target_level: int
    regions: Dict[int, Tuple[int, ...]]
    removed: Dict[int, Tuple[int, ...]]

    def region_at(self, level: int) -> Tuple[int, ...]:
        """The recovered region of ``level`` (ascending segment ids)."""
        try:
            return self.regions[level]
        except KeyError:
            raise DeanonymizationError(
                f"level {level} was not recovered (have "
                f"{sorted(self.regions)})"
            ) from None


class ReverseCloakEngine:
    """Anonymization/de-anonymization engine bound to one map + algorithm.

    Args:
        network: The shared road map.
        algorithm: A :class:`CloakingAlgorithm`; defaults to RGE.
        branch_limit: Hypothesis cap per level peel.
        validate_reversals: Certify every peel by forward replay (default
            on; turning it off makes hint-mode reversal fastest but trades
            away tamper detection).

    Example:
        >>> from repro.roadnet import grid_network
        >>> from repro.mobility import PopulationSnapshot
        >>> from repro.keys import KeyChain
        >>> from repro.core import PrivacyProfile
        >>> network = grid_network(6, 6)
        >>> snapshot = PopulationSnapshot.from_counts(
        ...     {sid: 2 for sid in network.segment_ids()})
        >>> profile = PrivacyProfile.uniform(levels=2, base_k=4, k_step=4,
        ...                                  base_l=3, l_step=2,
        ...                                  max_segments=30)
        >>> chain = KeyChain.generate(profile.level_count)
        >>> engine = ReverseCloakEngine(network)
        >>> envelope = engine.anonymize(30, snapshot, profile, chain)
        >>> result = engine.deanonymize(envelope, chain, target_level=0)
        >>> result.region_at(0)
        (30,)
    """

    def __init__(
        self,
        network: RoadNetwork,
        algorithm: Optional[CloakingAlgorithm] = None,
        branch_limit: int = DEFAULT_BRANCH_LIMIT,
        validate_reversals: bool = True,
    ) -> None:
        self._network = network
        self._algorithm = algorithm or ReversibleGlobalExpansion()
        self._branch_limit = branch_limit
        self._validate = validate_reversals
        self._net_digest = network_digest(network)

    @classmethod
    def for_envelope(
        cls,
        network: RoadNetwork,
        envelope: CloakEnvelope,
        branch_limit: int = DEFAULT_BRANCH_LIMIT,
        validate_reversals: bool = True,
    ) -> "ReverseCloakEngine":
        """An engine configured to reverse ``envelope`` (requester side)."""
        return cls(
            network,
            algorithm_for_envelope(network, envelope),
            branch_limit=branch_limit,
            validate_reversals=validate_reversals,
        )

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def algorithm(self) -> CloakingAlgorithm:
        return self._algorithm

    # ------------------------------------------------------------------
    # anonymization
    # ------------------------------------------------------------------
    def anonymize(
        self,
        user_segment: int,
        snapshot: PopulationSnapshot,
        profile: PrivacyProfile,
        chain: KeyChain,
        include_hints: bool = True,
        checkpoint: Optional[Callable[[], None]] = None,
    ) -> CloakEnvelope:
        """Cloak ``user_segment`` under every level of ``profile``.

        Args:
            user_segment: The segment holding the actual user (level 0).
            snapshot: Current user-to-segment assignment (for ``delta_k``).
            profile: The user-defined multi-level privacy profile.
            chain: One key per level (``chain.levels`` must match).
            include_hints: Embed sealed last-added hints per level
                (decision D1; disable to produce a pure search-mode
                envelope).
            checkpoint: Optional zero-argument callable invoked between
                expansion steps and at each level boundary. The serving
                layer threads cooperative deadline checks through here
                (:class:`~repro.lbs.faults.Deadline`); a checkpoint aborts
                by raising. Cooperative, not preemptive: the step in
                progress always completes first.

        Raises:
            ToleranceExceededError: A level hit ``sigma_s`` unsatisfied.
            FrontierExhaustedError: A level consumed its whole component.
            CloakingError: Other expansion failures (e.g. an RPLE dead end).
        """
        self._network.segment(user_segment)
        if chain.levels != profile.level_count:
            raise ProfileError(
                f"profile has {profile.level_count} levels but the chain has "
                f"{chain.levels} keys"
            )
        # One incrementally maintained state carries the region across every
        # level: frontier, running length/bbox/population and the sorted
        # member order survive level boundaries, so no level re-derives
        # anything about the region it inherited.
        state = RegionState(self._network, (user_segment,), snapshot=snapshot)
        region = state.members
        anchor = user_segment
        records: List[LevelRecord] = []
        step_cap = self._network.segment_count + 1
        for level in range(1, profile.level_count + 1):
            if checkpoint is not None:
                checkpoint()
            requirement = profile.requirement(level)
            key = chain.key_for(level)
            # One draw buffer per level: the level's R_i values are block
            # pre-drawn ahead of the expansion instead of one HMAC per
            # transition.
            draws = LevelDraws(key)
            start_anchor = anchor
            steps = 0
            step_anchors: List[int] = []
            while not requirement.satisfied_by(
                self._network, region, snapshot, state=state
            ):
                if steps >= step_cap:
                    raise CloakingError(
                        f"level {level} exceeded {step_cap} transitions"
                    )
                if checkpoint is not None:
                    checkpoint()
                step_anchors.append(anchor)
                segment = self._algorithm.forward_step(
                    self._network, region, anchor, key, steps + 1,
                    requirement.tolerance, state=state, draws=draws,
                )
                state.add(segment)
                anchor = segment
                steps += 1
            sealed = seal_anchor(key, anchor, "hint") if include_hints else None
            sealed_start = (
                seal_anchor(key, start_anchor, "start") if include_hints else None
            )
            witnesses = witness_bytes(key, step_anchors) if include_hints else ()
            digest = region_digest(region)
            records.append(
                LevelRecord(
                    level=level,
                    steps=steps,
                    k=requirement.k,
                    l=requirement.l,
                    tolerance=requirement.tolerance,
                    sealed_anchor=sealed,
                    sealed_start=sealed_start,
                    witnesses=witnesses,
                    mac=level_mac(
                        key, level, steps, sealed, sealed_start, witnesses,
                        digest, self._algorithm.name, self._net_digest,
                    ),
                    digest=digest,
                )
            )
        return CloakEnvelope(
            algorithm=self._algorithm.name,
            algorithm_params=self._algorithm.params(),
            network_name=self._network.name,
            net_digest=self._net_digest,
            region=tuple(sorted(region)),
            levels=tuple(records),
            snapshot_time=snapshot.time,
        )

    # ------------------------------------------------------------------
    # de-anonymization
    # ------------------------------------------------------------------
    def deanonymize(
        self,
        envelope: CloakEnvelope,
        keys: KeysLike,
        target_level: int,
        mode: str = "auto",
        draws_cache: Optional[DrawsCache] = None,
        checkpoint: Optional[Callable[[], None]] = None,
    ) -> DeanonymizationResult:
        """Peel ``envelope`` down to ``target_level``.

        Args:
            envelope: The published cloak.
            keys: Keys covering levels ``target_level+1 .. top`` (a
                :class:`KeyChain`, a ``{level: key}`` mapping, or any
                iterable of keys — extras are ignored).
            target_level: The lowest level to recover (0 recovers the user's
                segment).
            mode: ``"hint"``, ``"search"``, or ``"auto"``.
            draws_cache: Optional cross-request
                :class:`~repro.core.reversal.DrawsCache` — batch callers
                pass one so peels of envelopes sharing level keys reuse
                each other's memoized keyed draws. Values are pure
                functions of the key, so results are byte-identical with
                or without it.
            checkpoint: Optional zero-argument callable invoked before
                each level peel (cooperative deadline hook; see
                :meth:`anonymize`).

        Raises:
            KeyMismatchError: A key fails its level MAC or hint check.
            CollisionError: Search found zero or multiple certified peels.
            EnvelopeError: Map mismatch or malformed envelope.
        """
        if mode not in ("auto", "hint", "search"):
            raise DeanonymizationError(f"unknown reversal mode: {mode!r}")
        if envelope.net_digest != self._net_digest:
            raise EnvelopeError(
                "envelope was produced on a different road network "
                f"({envelope.net_digest} != {self._net_digest})"
            )
        if envelope.algorithm != self._algorithm.name:
            raise EnvelopeError(
                f"envelope algorithm {envelope.algorithm!r} does not match "
                f"engine algorithm {self._algorithm.name!r}"
            )
        top = envelope.top_level
        if not 0 <= target_level < top:
            raise DeanonymizationError(
                f"target_level must be in 0..{top - 1}, got {target_level}"
            )
        key_map = _normalize_keys(keys)
        for level in range(target_level + 1, top + 1):
            if level not in key_map:
                raise KeyMismatchError(
                    f"missing key for level {level} (need levels "
                    f"{target_level + 1}..{top})"
                )

        regions: Dict[int, Tuple[int, ...]] = {top: envelope.region}
        removed: Dict[int, Tuple[int, ...]] = {}
        region = frozenset(envelope.region)
        chained_anchors: Tuple[int, ...] = ()
        for level in range(top, target_level, -1):
            if checkpoint is not None:
                checkpoint()
            record = envelope.level_record(level)
            key = key_map[level]
            record.verify_key(key, envelope.algorithm, envelope.net_digest)
            # One shared draw buffer per level peel: every hypothesis and
            # replay certification below re-reads the same keyed values.
            # A batch caller's cache widens the sharing to sibling
            # envelopes peeled under the same key.
            if draws_cache is not None:
                draws = draws_cache.draws_for(key, lookahead=record.steps)
            else:
                draws = LevelDraws(key, lookahead=record.steps)
            if region_digest(region) != record.digest:
                raise EnvelopeError(
                    f"level {level} digest mismatch: envelope inconsistent"
                )
            if level == 1 and mode != "search" and record.sealed_start is not None:
                # Level 1's sealed start anchor *is* the L0 region, so the
                # innermost peel reduces to a forward replay — O(steps),
                # no hypothesis search. This matters: level 1 typically
                # adds the most segments of any level.
                region, removed[1] = self._reconstruct_level_one(
                    record, key, region, draws=draws
                )
                regions[0] = tuple(sorted(region))
                continue
            bootstraps = self._bootstraps_for(
                mode, record, key, region, chained_anchors
            )
            expected_digest = (
                envelope.level_record(level - 1).digest if level - 1 >= 1 else None
            )
            expected_start: Optional[int] = None
            if mode != "search" and record.sealed_start is not None:
                expected_start = unseal_anchor(key, record.sealed_start, "start")
            accept = (
                self._hint_acceptor(expected_start)
                if expected_start is not None
                else None
            )
            witness_filter = None
            if mode != "search" and record.witnesses:
                witness_filter = self._witness_filter(key, record.witnesses)
            outcomes = peel_level(
                self._network,
                self._algorithm,
                key,
                region,
                record.steps,
                record.tolerance,
                bootstraps,
                branch_limit=self._branch_limit,
                validate=self._validate or mode == "search",
                first_only=not (self._validate or mode == "search"),
                accept=accept,
                witness_filter=witness_filter,
                draws=draws,
                inner_digest=expected_digest,
            )
            if accept is not None:
                if not outcomes:
                    raise KeyMismatchError(
                        f"no reversal of level {level} matches the sealed "
                        f"metadata (wrong key or tampered envelope)"
                    )
                outcome = outcomes[0]
                chained_anchors = (outcome.start_anchor,)
            else:
                outcome = self._select_outcome(outcomes, level)
                chained_anchors = tuple(
                    sorted(
                        {
                            o.start_anchor
                            for o in outcomes
                            if o.inner_region == outcome.inner_region
                        }
                    )
                )
            removed[level] = outcome.removed
            region = outcome.inner_region
            regions[level - 1] = tuple(sorted(region))
        return DeanonymizationResult(
            target_level=target_level, regions=regions, removed=removed
        )

    def deanonymize_batch(
        self,
        items: Iterable[Tuple[CloakEnvelope, KeysLike, int]],
        mode: str = "auto",
        draws_cache: Optional[DrawsCache] = None,
    ) -> List[DeanonymizationResult]:
        """Peel a batch of envelopes, sharing per-key reversal state.

        The batch twin of :meth:`deanonymize`: results are element-wise
        byte-identical to calling it once per item, but the batch resolves
        the compiled network plane once up front and threads one
        :class:`~repro.core.reversal.DrawsCache` through every peel, so
        envelopes sharing level keys (a user's timeline, re-peeled grant
        suffixes) pay for each distinct keyed draw once across the whole
        batch.

        Args:
            items: ``(envelope, keys, target_level)`` triples.
            mode: Reversal mode applied to every item.
            draws_cache: Optional externally owned cache (defaults to a
                fresh one per batch).

        Raises:
            Whatever :meth:`deanonymize` raises, on the first failing item
            — per-item error capture is the serving layer's job
            (:meth:`repro.lbs.backends.ExecutionBackend.deanonymize_batch_raw`).
        """
        cache = draws_cache if draws_cache is not None else DrawsCache()
        # One compiled-plane resolution for the whole batch: every peel's
        # region bookkeeping reads the same plane, so touch the accessor
        # once here instead of once per item inside the hot path.
        self._network.compiled()
        return [
            self.deanonymize(
                envelope, keys, target_level, mode=mode, draws_cache=cache
            )
            for envelope, keys, target_level in items
        ]

    def _bootstraps_for(
        self,
        mode: str,
        record: LevelRecord,
        key: AccessKey,
        region: AbstractSet[int],
        chained_anchors: Tuple[int, ...],
    ) -> Tuple[int, ...]:
        """Candidate last-added segments for peeling ``record``'s level."""
        if mode in ("auto", "hint") and record.sealed_anchor is not None:
            anchor = unseal_anchor(key, record.sealed_anchor)
            if anchor not in region:
                raise KeyMismatchError(
                    f"unsealed hint for level {record.level} is not in the "
                    f"region (wrong key or tampered envelope)"
                )
            return (anchor,)
        if mode == "hint":
            raise DeanonymizationError(
                f"level {record.level} carries no sealed hint; use search mode"
            )
        if chained_anchors:
            return chained_anchors
        return enumerate_bootstraps(self._network, region)

    def _reconstruct_level_one(
        self,
        record: LevelRecord,
        key: AccessKey,
        region: frozenset,
        draws: LevelDraws,
    ) -> Tuple[frozenset, Tuple[int, ...]]:
        """Peel level 1 by forward replay from the sealed user segment.

        Returns ``(L0 region, removed sequence)``. Every mismatch — start
        not in the region, replay diverging from the published region, or
        the replay's last addition contradicting the sealed bootstrap —
        indicates a wrong key or tampering and raises.
        """
        assert record.sealed_start is not None
        start = unseal_anchor(key, record.sealed_start, "start")
        if start not in region:
            raise KeyMismatchError(
                "unsealed level-1 start anchor is not in the region "
                "(wrong key or tampered envelope)"
            )
        additions = replay_level(
            self._network,
            self._algorithm,
            key,
            {start},
            start,
            record.steps,
            record.tolerance,
            draws=draws,
        )
        if additions is None or frozenset({start}) | set(additions) != region:
            raise KeyMismatchError(
                "level-1 forward replay does not regenerate the region "
                "(wrong key or tampered envelope)"
            )
        if additions and record.sealed_anchor is not None:
            bootstrap = unseal_anchor(key, record.sealed_anchor, "hint")
            if additions[-1] != bootstrap:
                raise KeyMismatchError(
                    "level-1 replay contradicts the sealed bootstrap hint"
                )
        return frozenset({start}), tuple(reversed(additions))

    @staticmethod
    def _witness_filter(key: AccessKey, witnesses: Tuple[int, ...]):
        """The per-step anchor filter from the level's keyed witnesses
        (decision D13): the anchor of step ``step`` must hash to the
        recorded byte."""

        def matches(step: int, anchor: int) -> bool:
            return witness_byte(key, step, anchor) == witnesses[step - 1]

        return matches

    @staticmethod
    def _hint_acceptor(expected_start: int):
        """The outcome predicate of hint-mode reversal.

        The sealed start anchor pins the chain's origin, and ``peel_level``
        checks the level below's public region digest (hint peels run at
        levels >= 2 only; level 1 is a forward replay). Forward replay from
        a pinned (inner region, start anchor) is deterministic, so at most
        one certified outcome can match — the peel may therefore stop at
        the first match.
        """

        def accept(outcome: PeelOutcome) -> bool:
            return outcome.start_anchor == expected_start

        return accept

    @staticmethod
    def _select_outcome(outcomes: List[PeelOutcome], level: int) -> PeelOutcome:
        """Pick the unique consistent outcome or raise :class:`CollisionError`.

        ``peel_level`` has already dropped outcomes that miss the level
        below's public region digest (levels >= 2), so search mode's
        residual ambiguity survives only in peels down to level 0.
        """
        if not outcomes:
            raise CollisionError(level, 0)
        inner_regions = {outcome.inner_region for outcome in outcomes}
        if len(inner_regions) > 1:
            raise CollisionError(level, len(inner_regions))
        return outcomes[0]
