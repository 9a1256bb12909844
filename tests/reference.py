"""A straight, cache-free reference of ReverseCloak's anonymize and search peel.

The engine (:mod:`repro.core.engine`, :mod:`repro.core.reversal`) keeps one
production path per concern, tuned for speed: a maintained
:class:`~repro.core.region_state.RegionState`, block-drawn
:class:`~repro.core.algorithm.LevelDraws`, a checkpoint/rollback hypothesis
search with memos and iterative deepening. This module is the oracle those
paths are differentially tested against. It transcribes the paper directly
and keeps nothing between calls:

* the RGE step is the Figure 2 transition table written out from scratch —
  rows are the region, columns the tolerance-eligible frontier, both ordered
  by ``(length, segment id)``; cell ``(i, j)`` holds ``(i + j) mod |CanA|``
  and one :func:`~repro.core.algorithm.keyed_draw` per step picks the
  transition;
* RPLE steps (whose pre-assigned lists are map data, not engine state) go
  through the algorithm's state-less, draws-less ``forward_step`` /
  ``backward_hypotheses``;
* sealing uses the envelope primitives one value at a time
  (:func:`~repro.core.envelope.witness_byte` per step);
* search peel is a plain depth-first walk over every hypothesis chain whose
  summed penalty stays within the cap, certified by forward replay.

Importable from any test module as ``import reference`` (it sits next to
``tests/conftest.py``, whose directory pytest puts on ``sys.path``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.algorithm import CloakingAlgorithm, keyed_draw
from repro.core.envelope import (
    CloakEnvelope,
    LevelRecord,
    level_mac,
    network_digest,
    region_digest,
    seal_anchor,
    witness_byte,
)
from repro.errors import CloakingError

#: The engine's largest iterative-deepening budget: search peel explores
#: every chain whose summed hypothesis penalty is at most this.
PENALTY_CAP = 32


@dataclass(frozen=True)
class Trace:
    """What the reference anonymize published, plus what it did.

    Attributes:
        envelope: The sealed envelope.
        regions: Region per level, ascending ids; ``regions[0]`` is the
            user's segment.
        additions: Segments added per level ``1..N``, in addition order.
    """

    envelope: CloakEnvelope
    regions: Dict[int, Tuple[int, ...]]
    additions: Dict[int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# one expansion step, forward and backward
# ----------------------------------------------------------------------
def _length_order(network, segments) -> List[int]:
    """Table order: shortest segment first, ties by segment id."""
    return sorted(segments, key=lambda sid: (network.segment_length(sid), sid))


def _eligible(network, region, tolerance) -> List[int]:
    """``CanA``: frontier segments whose addition keeps the tolerance."""
    return [
        candidate
        for candidate in network.frontier(set(region))
        if tolerance.fits(network, set(region) | {candidate})
    ]


def forward(algorithm, network, region, anchor, key, step, tolerance) -> int:
    """The segment step ``step`` adds to ``region`` from ``anchor``."""
    if algorithm.name != "rge":
        return algorithm.forward_step(network, region, anchor, key, step, tolerance)
    rows = _length_order(network, region)
    columns = _length_order(network, _eligible(network, region, tolerance))
    if anchor not in rows or not columns:
        raise CloakingError(f"RGE cannot step from {anchor} at step {step}")
    pick = keyed_draw(key, step) % len(columns)
    # The unique column j of the anchor's row i with (i + j) mod |CanA| == pick.
    return columns[(pick - rows.index(anchor)) % len(columns)]


def backward(algorithm, network, inner, removed, key, step, tolerance):
    """``(anchor, penalty)`` hypotheses for the step that added ``removed``."""
    if algorithm.name != "rge":
        return algorithm.backward_hypotheses(
            network, inner, removed, key, step, tolerance
        )
    rows = _length_order(network, inner)
    columns = _length_order(network, _eligible(network, inner, tolerance))
    if removed not in columns:
        return ()
    pick = keyed_draw(key, step) % len(columns)
    column = columns.index(removed)
    # Every row whose cell in the removed segment's column holds the pick,
    # ranked in row order; a later rank costs its index.
    anchors = [
        rows[row] for row in range(len(rows))
        if (row + column) % len(columns) == pick
    ]
    return tuple((anchor, rank) for rank, anchor in enumerate(anchors))


# ----------------------------------------------------------------------
# anonymize
# ----------------------------------------------------------------------
def anonymize(
    network,
    algorithm: CloakingAlgorithm,
    user_segment: int,
    snapshot,
    profile,
    chain,
    include_hints: bool = True,
) -> Trace:
    """Cloak ``user_segment`` level by level and seal every level record."""
    net_digest = network_digest(network)
    region: Set[int] = {user_segment}
    anchor = user_segment
    regions = {0: (user_segment,)}
    additions: Dict[int, Tuple[int, ...]] = {}
    records = []
    for level in range(1, profile.level_count + 1):
        requirement = profile.requirement(level)
        key = chain.key_for(level)
        start_anchor = anchor
        added: List[int] = []
        anchors: List[int] = []
        while not requirement.satisfied_by(network, region, snapshot):
            if len(added) > network.segment_count:
                raise CloakingError(f"level {level} never satisfied")
            anchors.append(anchor)
            anchor = forward(
                algorithm, network, region, anchor, key, len(added) + 1,
                requirement.tolerance,
            )
            region.add(anchor)
            added.append(anchor)
        if include_hints:
            sealed = seal_anchor(key, anchor, "hint")
            sealed_start = seal_anchor(key, start_anchor, "start")
            witnesses = tuple(
                witness_byte(key, step, step_anchor)
                for step, step_anchor in enumerate(anchors, start=1)
            )
        else:
            sealed = sealed_start = None
            witnesses = ()
        digest = region_digest(region)
        records.append(
            LevelRecord(
                level=level,
                steps=len(added),
                k=requirement.k,
                l=requirement.l,
                tolerance=requirement.tolerance,
                sealed_anchor=sealed,
                sealed_start=sealed_start,
                witnesses=witnesses,
                mac=level_mac(
                    key, level, len(added), sealed, sealed_start, witnesses,
                    digest, algorithm.name, net_digest,
                ),
                digest=digest,
            )
        )
        regions[level] = tuple(sorted(region))
        additions[level] = tuple(added)
    envelope = CloakEnvelope(
        algorithm=algorithm.name,
        algorithm_params=algorithm.params(),
        network_name=network.name,
        net_digest=net_digest,
        region=tuple(sorted(region)),
        levels=tuple(records),
        snapshot_time=snapshot.time,
    )
    return Trace(envelope=envelope, regions=regions, additions=additions)


# ----------------------------------------------------------------------
# search peel
# ----------------------------------------------------------------------
Outcome = Tuple[FrozenSet[int], Tuple[int, ...], int]


def replay(algorithm, network, key, inner, start_anchor, steps, tolerance):
    """The additions of ``steps`` forward steps from ``inner``, or ``None``."""
    region = set(inner)
    anchor = start_anchor
    added = []
    for step in range(1, steps + 1):
        try:
            anchor = forward(
                algorithm, network, region, anchor, key, step, tolerance
            )
        except CloakingError:
            return None
        region.add(anchor)
        added.append(anchor)
    return tuple(added)


def search_peel(
    network,
    algorithm: CloakingAlgorithm,
    key,
    outer_region,
    steps: int,
    tolerance,
    penalty_cap: int = PENALTY_CAP,
) -> Set[Outcome]:
    """Every certified ``(inner region, removal order, start anchor)``.

    The last-added segment is unknown, so every segment whose removal
    leaves the region connected is a bootstrap. Removing the segment added
    at step ``j`` must keep the rest connected; the backward lookup then
    names the anchor of step ``j`` — the segment added at ``j - 1`` or, at
    step 1, the level's start anchor. A chain survives while its summed
    penalty is within ``penalty_cap``; a completed chain counts only if
    forward replay from its inner region regenerates it exactly.
    """
    outer = frozenset(outer_region)
    bootstraps = [
        sid for sid in sorted(outer) if network.is_connected_region(outer - {sid})
    ]
    if steps == 0:
        return {(outer, (), bootstrap) for bootstrap in bootstraps}
    completions: List[Outcome] = []

    def walk(region, removing, step, remaining, removed):
        inner = region - {removing}
        if not inner or not network.is_connected_region(inner):
            return
        removed = removed + (removing,)
        for anchor, penalty in backward(
            algorithm, network, inner, removing, key, step, tolerance
        ):
            if penalty > remaining:
                continue
            if step == 1:
                completions.append((inner, removed, anchor))
            else:
                walk(inner, anchor, step - 1, remaining - penalty, removed)

    for bootstrap in bootstraps:
        walk(outer, bootstrap, steps, penalty_cap, ())
    return {
        (inner, removed, start)
        for inner, removed, start in completions
        if replay(algorithm, network, key, inner, start, steps, tolerance)
        == tuple(reversed(removed))
    }


def peel_all(network, algorithm, trace: Trace, chain) -> Dict[int, Set[Outcome]]:
    """:func:`search_peel` of every level of ``trace``, outer region given."""
    return {
        record.level: search_peel(
            network,
            algorithm,
            chain.key_for(record.level),
            trace.regions[record.level],
            record.steps,
            record.tolerance,
        )
        for record in trace.envelope.levels
    }


def outcome_set(outcomes) -> Set[Outcome]:
    """Engine :class:`~repro.core.reversal.PeelOutcome` objects as tuples."""
    return {
        (outcome.inner_region, outcome.removed, outcome.start_anchor)
        for outcome in outcomes
    }


def true_outcome(trace: Trace, level: int) -> Tuple[FrozenSet[int], Tuple[int, ...]]:
    """The (inner region, removal order) anonymization actually produced."""
    return (
        frozenset(trace.regions[level - 1]),
        tuple(reversed(trace.additions[level])),
    )
