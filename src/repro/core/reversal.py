"""Backward peeling of one privacy level (the de-anonymization core).

A level that added ``n`` segments is peeled by undoing transitions ``n`` down
to ``1``. Undoing transition ``j`` removes the segment that step added and —
via the algorithm's backward lookup on the same keyed draw — identifies the
segment added at step ``j-1``, which is the next removal target. The paper's
"collision issue" appears exactly here: a backward lookup may return several
consistent anchors (and, without a sealed hint, the *first* removal target of
the outermost level is unknown). Peeling is therefore a depth-first search
over hypotheses:

* each state carries the current region, the segment to remove, and the step
  index;
* a hypothesis dies when the removal disconnects the region or the backward
  lookup returns nothing;
* completed hypotheses are certified by *forward replay*: re-running the
  expansion from the recovered inner region with the level key must
  regenerate the removed sequence exactly. Replay is deterministic, so at
  most one removal sequence per (inner region, start anchor) survives.

With a sealed hint and a collision-free table the search degenerates to a
straight-line walk — the common, fast path. The search breadth is capped;
exceeding the cap raises :class:`~repro.errors.CollisionError` rather than
silently exploring an exponential space.

Complexity and the checkpoint/rollback search discipline: the search owns
**one** undo-logged :class:`~repro.core.region_state.RegionState` for the
whole peel. Descending into a hypothesis is ``token = state.checkpoint();
state.remove(segment)``; returning is ``state.rollback(token)`` — O(deg)
per edge of the search tree instead of the former O(|R|) clone-per-region
derivation, so quickly-pruned branches (RPLE's dead-anchor fan-out,
decision D12) cost what they explore, not what the region weighs.

Three further costs stay local:

* **Removability.** Each explored node asks whether removing its target
  keeps the region connected. Every visited region is connected when the
  outer one is, so :meth:`~repro.roadnet.compiled.CompiledNetwork.keeps_connected`
  answers it: the segments at one junction form a clique, so only the
  target's two neighbour groups need to meet again, and a bidirectional
  BFS that always grows the smaller side stops at the first meeting. That
  costs the explored neighbourhood instead of a per-region articulation
  pass, on the search and the hinted path alike. A disconnected (tampered)
  outer region falls back to the exact from-scratch check.
* **Digest before certification.** Above level 1 the level below's public
  region digest (``inner_digest``) pins the inner region, so completed
  hypotheses that miss it are dropped before any replay, with one digest
  per distinct inner region.
* **One replay per (inner region, start anchor).** Completed hypotheses
  are certified by forward replay, which is deterministic in the pair
  (``steps`` is fixed per peel). A capped memo runs each distinct replay
  once and checks every outcome's removal order against it.

A value cache keyed by the flowing region frozensets makes the
iterative-deepening re-walks cheap: ``backward_hypotheses`` results are
pure functions of (region, removed, step), so later budget passes replay
the tree mostly through dict hits. Backward lookups read the maintained
length ordering directly (``state_backward``) — no per-node
transition-table builds — and candidate filtering uses O(1) tolerance
deltas. Hinted straight-line peels stay O(R * deg); replay certification
maintains one state for its whole forward run. None of the screening work
counts toward the explored-hypothesis limit, so the branch limit, outcome
order and collision verdicts do not depend on it.

The one exception to maintained state is size-driven: hinted peels and
replays of regions below :func:`incremental_threshold` run the
from-scratch recomputes, which win on constants there. The oracle this
search is differentially tested against — a straight, cache-free
transcription of the paper's search peel — lives with the tests
(``tests/reference.py``). The cross-budget interval memo makes the
explored-work counter here advance more slowly than a per-pass re-walk
(replayed subtrees are not re-counted), so a search near the branch limit
may complete where the re-walk would raise; the first deepening pass —
where tiny test limits trip — counts identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    CloakingError,
    CollisionError,
    DeanonymizationError,
    UnknownSegmentError,
)
from ..keys.keys import AccessKey
from ..roadnet.graph import RoadNetwork
from .algorithm import CloakingAlgorithm, LevelDraws
from .envelope import region_digest
from .profile import ToleranceSpec
from .region_state import RegionState

__all__ = [
    "DrawsCache",
    "PeelOutcome",
    "peel_level",
    "replay_level",
    "enumerate_bootstraps",
    "incremental_threshold",
]

#: Default cap on explored hypotheses per level peel. RPLE dead-anchor
#: relocation (decision D12) can fan out several quickly-pruned hypotheses
#: per step, so the cap is generous; genuine run-aways still terminate.
DEFAULT_BRANCH_LIMIT = 20_000

#: Calibrated cost ratio behind :func:`incremental_threshold`: roughly how
#: many neighbour-scan units a from-scratch hinted step may burn before
#: building/maintaining incremental state breaks even. Measured on grid
#: maps (mean segment degree ~6), where the crossover sits at ~32-member
#: regions — the value PR 1 hard-coded before the compiled plane existed.
_CROSSOVER_STEP_COST = 192


def incremental_threshold(network: RoadNetwork) -> int:
    """Region-size crossover for the incremental bookkeeping of ``network``.

    Below it, a *hinted* (witness/accept-pinned, straight-line) peel is
    cheaper with the original from-scratch recomputes than with maintained
    :class:`RegionState` bookkeeping — the fixed costs (state construction,
    exact-length accumulation) dominate tiny regions. The from-scratch step
    costs O(|R| * deg) while the maintained step costs ~O(deg), so the
    break-even member count scales inversely with the map's mean segment
    degree — read off the compiled plane instead of hard-coding the grid
    answer. Search-mode peels keep the states at every size: they revisit
    regions across many hypotheses, so the caches amortise even when
    small. Both paths are behaviourally identical, so crossing over is
    purely a constant-factor choice.
    """
    mean_degree = network.compiled().avg_degree
    return max(8, int(_CROSSOVER_STEP_COST / max(mean_degree, 1.0)))


class DrawsCache:
    """A per-batch pool of :class:`~repro.core.algorithm.LevelDraws` buffers.

    One level peel already shares a single draws buffer across all of its
    hypotheses and replay certifications; a *batch* of reversals goes one
    step further — envelopes produced under the same key chain (a user's
    timeline, a provider re-peeling grant suffixes) re-request exactly the
    same ``(level, key, step, attempt)`` values, so the pool hands every
    peel of the same ``(level, key material)`` pair the same memoized
    buffer. Keyed draws are pure functions of that pair, so sharing never
    changes a value — outcomes stay byte-identical with or without the
    cache.

    Not thread-safe (neither is :class:`LevelDraws`): a cache belongs to
    one serving thread's batch. Bounded — batch contents are attacker
    input on the wire endpoints, so a batch of envelopes churning distinct
    keys must not grow the pool without limit; past the cap, new keys
    simply get unpooled buffers (correct, just unshared).
    """

    __slots__ = ("_buffers", "_cap")

    #: Default buffer cap: levels x distinct chains worth sharing in one
    #: batch. Past it the cache stops pooling rather than evicting — an
    #: evicted buffer's sunk draws would be repaid in full on re-entry.
    DEFAULT_CAP = 512

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        self._buffers: Dict[Tuple[int, bytes], LevelDraws] = {}
        self._cap = cap

    def __len__(self) -> int:
        return len(self._buffers)

    def draws_for(self, key: AccessKey, lookahead: Optional[int] = None) -> LevelDraws:
        """The shared buffer of ``key`` (created on first use).

        ``lookahead`` sizes the first pre-draw block of a *new* buffer
        (an existing buffer keeps its memoized values and simply refills).
        """
        cache_key = (key.level, key.material)
        draws = self._buffers.get(cache_key)
        if draws is None:
            draws = LevelDraws(key, lookahead=lookahead)
            if len(self._buffers) < self._cap:
                self._buffers[cache_key] = draws
        return draws


@dataclass(frozen=True)
class PeelOutcome:
    """One consistent reversal of a level.

    Attributes:
        inner_region: The region of the level below.
        removed: Removed segments in removal order — element 0 is the
            level's last-added segment (the bootstrap).
        start_anchor: The level's starting anchor, i.e. the last-added
            segment of the level below; seeds the next level's peel.
    """

    inner_region: frozenset
    removed: Tuple[int, ...]
    start_anchor: int

    @property
    def added_sequence(self) -> Tuple[int, ...]:
        """The forward addition order this outcome implies."""
        return tuple(reversed(self.removed))


def replay_level(
    network: RoadNetwork,
    algorithm: CloakingAlgorithm,
    key: AccessKey,
    start_region: AbstractSet[int],
    start_anchor: int,
    steps: int,
    tolerance: ToleranceSpec,
    draws: Optional[LevelDraws] = None,
) -> Optional[Tuple[int, ...]]:
    """Re-run ``steps`` forward transitions from a hypothesised inner state.

    Returns the addition sequence, or ``None`` when the expansion fails
    (which certifies the hypothesis as inconsistent). One incremental
    :class:`RegionState` is maintained across the whole replay (O(deg) per
    step after the O(|region| * deg) initialisation) unless the final
    region is below the incremental crossover size.
    ``draws`` serves the keyed values from the batched PRF plane — pass the
    peel's shared buffer so replays never recompute a draw.
    """
    state: Optional[RegionState] = (
        RegionState.from_region(network, start_region)
        if len(start_region) + steps > incremental_threshold(network)
        else None
    )
    region = state.members if state is not None else set(start_region)
    anchor = start_anchor
    additions: List[int] = []
    for step in range(1, steps + 1):
        try:
            segment = algorithm.forward_step(
                network, region, anchor, key, step, tolerance, state=state,
                draws=draws,
            )
        except CloakingError:
            return None
        if state is not None:
            state.add(segment)
        else:
            region.add(segment)
        additions.append(segment)
        anchor = segment
    return tuple(additions)


def enumerate_bootstraps(
    network: RoadNetwork, region: AbstractSet[int]
) -> Tuple[int, ...]:
    """All possible last-added segments of ``region`` (search-mode bootstrap).

    Forward expansion keeps every intermediate region connected, so the true
    last-added segment always leaves a connected remainder when removed.
    """
    return network.articulation_free_removals(set(region))


def peel_level(
    network: RoadNetwork,
    algorithm: CloakingAlgorithm,
    key: AccessKey,
    outer_region: AbstractSet[int],
    steps: int,
    tolerance: ToleranceSpec,
    bootstraps: Sequence[int],
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
    validate: bool = True,
    first_only: bool = False,
    accept: Optional[Callable[[PeelOutcome], bool]] = None,
    witness_filter: Optional[Callable[[int, int], bool]] = None,
    draws: Optional[LevelDraws] = None,
    inner_digest: Optional[str] = None,
) -> List[PeelOutcome]:
    """Peel one level, returning every replay-certified outcome.

    Args:
        network: The shared road map.
        algorithm: The cloaking algorithm (same instance family as forward).
        key: The level key.
        outer_region: The region including this level's additions.
        steps: Number of segments the level added (from the envelope).
        tolerance: The level's spatial tolerance (from the envelope).
        bootstraps: Candidate last-added segments to start from — a single
            unsealed hint, chained anchors from the level above, or
            :func:`enumerate_bootstraps` output.
        branch_limit: Cap on explored hypotheses; exceeding it raises
            :class:`CollisionError`.
        validate: Certify completed hypotheses by forward replay. Disabling
            skips certification (fastest path; only sensible with hints and
            collision-free tables).
        first_only: Stop at the first completed (and, if ``validate``,
            certified) outcome.
        accept: Optional outcome predicate. When given, only matching
            outcomes are collected and the search stops at the first match —
            sound whenever the predicate identifies the outcome uniquely
            (hint mode pins the start anchor and the inner-region digest, so
            replay determinism guarantees at most one match).
        witness_filter: Optional per-step anchor filter
            ``(step, anchor) -> bool`` from the envelope's keyed witnesses
            (decision D13); discards false hypotheses with probability
            255/256 per step, keeping hinted peels near-linear.
        draws: Optional shared :class:`LevelDraws` buffer of ``key``'s
            level (the batched PRF plane). Hypotheses and replay
            certifications across the whole peel then pay for each distinct
            keyed draw once. ``None`` falls back to per-call draws.
        inner_digest: Optional public region digest of the level below
            (the envelope's ``record(level - 1).digest``). Outcomes whose
            inner region misses it are dropped before certification.

    Returns:
        Certified outcomes. Empty when no hypothesis is consistent.

    Raises:
        UnknownSegmentError: ``outer_region`` holds an id not in the map.
    """
    outer = frozenset(outer_region)
    if steps == 0:
        # Nothing to remove; the level's last-added equals its start anchor.
        zero_outcomes = [
            PeelOutcome(inner_region=outer, removed=(), start_anchor=bootstrap)
            for bootstrap in dict.fromkeys(bootstraps)
            if bootstrap in outer
        ]
        if accept is not None:
            zero_outcomes = [o for o in zero_outcomes if accept(o)][:1]
        if inner_digest is not None and region_digest(outer) != inner_digest:
            zero_outcomes = []
        return zero_outcomes
    if steps >= len(outer):
        raise DeanonymizationError(
            f"level claims {steps} additions but the region only has "
            f"{len(outer)} segments"
        )

    # The search combines four ideas:
    #
    # * *Suffix memoization* — different removal orders of the same segment
    #   set converge onto identical (region, target, step) states; the memo
    #   stores each state's consistent completions so shared subtrees are
    #   walked once instead of once per permutation.
    # * *Iterative deepening on hypothesis penalty* — algorithms tag
    #   backward hypotheses with a penalty (RPLE charges its global-fallback
    #   interpretation, decision D12). True chains use few penalised steps,
    #   so low-budget passes find them before the high-penalty hypothesis
    #   space (which is where false branches breed) is ever entered.
    # * *Budget-interval reuse* — a node's completions are
    #   a step function of its remaining budget: they can only change at
    #   the penalty of a pruned hypothesis or at a child's own next flip
    #   point. Each computation therefore returns, besides its completions,
    #   the smallest remaining value at which they could differ, and a
    #   cross-budget memo replays unchanged subtrees as dict hits instead
    #   of re-walking them once per deepening pass. Values are identical by
    #   construction; only the explored-work counter advances more slowly,
    #   so a search near the branch limit may complete where the per-pass
    #   re-walk would abort (the first pass, where tiny limits trip, counts
    #   identically — budget 0 never produces an interval hit).
    # * *Certified early exit* — with an ``accept`` predicate (hint mode),
    #   replay determinism makes the first certified match unique, so the
    #   search stops there.
    explored = 0
    outcomes: List[PeelOutcome] = []
    seen_outcomes = set()
    budgets = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

    compiled = network.compiled()
    try:
        # Also the id check: every lookup below assumes known segments.
        outer_connected = compiled.is_connected(outer)
    except KeyError as exc:
        raise UnknownSegmentError(exc.args[0]) from None
    # Every region the search visits is connected when the outer region
    # is — descent only ever crosses the removability gate — so the gate
    # can be the junction-local test. A disconnected (tampered) outer
    # region takes the exact from-scratch check instead.
    keeps_connected = compiled.keeps_connected
    is_connected_region = network.is_connected_region

    # Hinted peels walk one straight chain of small regions; below the
    # crossover the from-scratch recomputes win on constants.
    maintain_state = not (
        (witness_filter is not None or accept is not None)
        and len(outer) <= incremental_threshold(network)
    )

    # Incremental bookkeeping shared across the whole peel (all budgets):
    # one live RegionState walks the search tree by checkpoint/remove on
    # descent and rollback on return — O(deg) per edge, nothing
    # proportional to |R|. A value memo keyed by the region frozensets
    # makes node revisits (sibling hypotheses within a budget, whole-tree
    # re-walks across deepening budgets) near-free: ``backward_hypotheses``
    # tuples are pure functions of (region, removed segment, step). Capped;
    # past the cap values are recomputed but not stored (never evicted
    # wholesale — the early, hot entries such as the outer region and the
    # true chain's prefixes stay cached).
    live: Optional[RegionState] = (
        RegionState.from_region(network, outer) if maintain_state else None
    )
    hyp_cache: Dict[Tuple[frozenset, int, int], tuple] = {}
    _HYP_CACHE_CAP = 32768

    # Cross-budget caches of the live-state path, all keyed by the node
    # signature ``(region, removing, step)`` (pure functions of it):
    # the inner-region frozenset with its removability verdict, and the
    # budget-interval entries ``(valid_from, bound, completions)`` — the
    # node's completions are valid verbatim for any remaining budget in
    # ``[valid_from, bound)``.
    inf = float("inf")
    inner_cache: Dict[Tuple[frozenset, int, int], Tuple[frozenset, bool]] = {}
    interval_memo: dict = {}

    # Completed hypotheses are screened cheapest first: ``accept``, then
    # the level-below digest (memoized per inner region), then replay
    # certification. Replay is deterministic in (inner region, start
    # anchor) — ``steps`` is fixed for the peel — so one replay serves
    # every outcome sharing the pair. Both memos are capped like the
    # hypothesis cache; past the cap values are recomputed, not stored.
    digest_matches: Dict[frozenset, bool] = {}
    replays: Dict[Tuple[frozenset, int], Optional[Tuple[int, ...]]] = {}
    _SCREEN_CACHE_CAP = 4096

    def _screened(outcome: PeelOutcome) -> bool:
        if accept is not None and not accept(outcome):
            return False
        inner = outcome.inner_region
        if inner_digest is not None:
            matches = digest_matches.get(inner)
            if matches is None:
                matches = region_digest(inner) == inner_digest
                if len(digest_matches) < _SCREEN_CACHE_CAP:
                    digest_matches[inner] = matches
            if not matches:
                return False
        if not validate:
            return True
        replay_key = (inner, outcome.start_anchor)
        if replay_key in replays:
            replayed = replays[replay_key]
        else:
            replayed = replay_level(
                network, algorithm, key, inner, outcome.start_anchor, steps,
                tolerance, draws=draws,
            )
            if len(replays) < _SCREEN_CACHE_CAP:
                replays[replay_key] = replayed
        return replayed == outcome.added_sequence

    for budget in budgets:
        memo: dict = {}

        def search(
            region: frozenset, removing: int, step: int, remaining: int
        ) -> Tuple[List[Tuple[frozenset, Tuple[int, ...], int]], float]:
            nonlocal explored
            node_key = (region, removing, step, remaining)
            result = memo.get(node_key)
            if result is not None:
                return result
            node_sig = (region, removing, step)
            if live is not None:
                cached = interval_memo.get(node_sig)
                if cached is not None:
                    valid_from, bound, completions = cached
                    if valid_from <= remaining < bound:
                        result = (completions, bound)
                        memo[node_key] = result
                        return result
            explored += 1
            if explored > branch_limit:
                raise CollisionError(key.level, explored)
            completions: List[Tuple[frozenset, Tuple[int, ...], int]] = []
            bound = inf
            if removing in region:
                gate = inner_cache.get(node_sig) if live is not None else None
                if gate is None:
                    inner = region - {removing}
                    if outer_connected:
                        connected = keeps_connected(region, removing)
                    else:
                        connected = is_connected_region(inner)
                    gate = (inner, connected)
                    if live is not None and len(inner_cache) < _HYP_CACHE_CAP:
                        inner_cache[node_sig] = gate
                inner, connected = gate
                if inner and connected:
                    hypotheses: Optional[tuple] = None
                    if live is not None:
                        hypotheses = hyp_cache.get(node_sig)
                    # Descend the live state: the recursion below expects
                    # it to *be* the inner region. Skipped only when the
                    # node is a cached leaf (step 1), which never recurses
                    # and needs no state.
                    token = -1
                    if live is not None and (hypotheses is None or step > 1):
                        token = live.checkpoint()
                        live.remove(removing)
                    if hypotheses is None:
                        hypotheses = algorithm.backward_hypotheses(
                            network, inner, removing, key, step, tolerance,
                            state=live, draws=draws,
                        )
                        if live is not None and len(hyp_cache) < _HYP_CACHE_CAP:
                            hyp_cache[node_sig] = hypotheses
                    if witness_filter is not None:
                        # The hypothesis is the anchor of forward step
                        # ``step``; its keyed witness must match. Survivors
                        # are re-ranked from zero — the filter removes the
                        # false crowd, so the first survivor must be free or
                        # a true chain would accumulate pre-filter ranks
                        # past any deepening budget.
                        hypotheses = tuple(
                            (anchor, index)
                            for index, (anchor, __) in enumerate(
                                (anchor, penalty)
                                for anchor, penalty in hypotheses
                                if witness_filter(step, anchor)
                            )
                        )
                    if step == 1:
                        for anchor, penalty in hypotheses:
                            if penalty <= remaining:
                                completions.append((inner, (removing,), anchor))
                            elif penalty < bound:
                                bound = penalty
                    else:
                        for anchor, penalty in hypotheses:
                            if penalty > remaining:
                                if penalty < bound:
                                    bound = penalty
                                continue
                            sub, sub_bound = search(
                                inner, anchor, step - 1, remaining - penalty
                            )
                            threshold = penalty + sub_bound
                            if threshold < bound:
                                bound = threshold
                            for inner2, suffix, start in sub:
                                completions.append(
                                    (inner2, (removing,) + suffix, start)
                                )
                    if token >= 0:
                        live.rollback(token)
            result = (completions, bound)
            memo[node_key] = result
            if live is not None:
                interval_memo[node_sig] = (remaining, bound, completions)
            return result

        for bootstrap in dict.fromkeys(bootstraps):
            for inner, removed_seq, start in search(outer, bootstrap, steps, budget)[0]:
                signature = (inner, removed_seq, start)
                if signature in seen_outcomes:
                    continue
                outcome = PeelOutcome(
                    inner_region=inner, removed=removed_seq, start_anchor=start
                )
                if not _screened(outcome):
                    continue
                seen_outcomes.add(signature)
                outcomes.append(outcome)
                if first_only or accept is not None:
                    return outcomes
    return outcomes
