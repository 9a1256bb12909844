"""Shared machinery of the reversible cloaking algorithms.

Both RGE and RPLE fit one contract (:class:`CloakingAlgorithm`):

* ``forward_step`` — given the current region and the last-added *anchor*
  segment, deterministically select the next segment with the level key,
* ``backward_anchors`` — given the region *before* a step and the segment
  that step added, return every anchor hypothesis consistent with the key
  (exactly one in the collision-free case).

The engine (:mod:`repro.core.engine`) owns the multi-level loop and the
reversal search; algorithms only answer single-step questions, which keeps
the reversibility argument local: a forward step and its backward lookup use
the same keyed draw and the same deterministically ordered views of the
region, so the backward result provably contains the forward anchor.

Keyed draws use a per-step, per-attempt PRF index (reconstruction decision
D3): ``R(step, attempt) = PRF(key, level-domain, step << 24 | attempt)``.
Indexing by step — instead of one running counter — lets the backward pass
replay any step's draws without knowing how many draws earlier steps
consumed (RPLE redraws make that count variable).

Draws come in two byte-identical planes. :func:`keyed_draw` is the per-call
plane: one HMAC per invocation. :class:`LevelDraws` is the batched plane:
one buffer per (level key, request) that pre-draws the attempt-0 values of
a run of upcoming steps in a single tight loop (:func:`~repro.keys.prf.
prf_block`), draws redraw attempts on demand, and memoizes every value it
has drawn — so a whole level peel (many
hypotheses replaying the same steps) pays for each distinct draw once. The
engine and the reversal search construct one ``LevelDraws`` per level and
pass it down; algorithms fall back to :func:`keyed_draw` when ``draws`` is
``None``. That draws-less, state-less form of the step API is what the
test-side reference implementation (``tests/reference.py``) is built on.

Complexity: every step-level primitive here accepts an optional maintained
:class:`~repro.core.region_state.RegionState`. Without it, the frontier and
each candidate's tolerance check are recomputed from the raw region —
O(|R| * deg + |CanA| * |R|) per step, O(R^2 * deg) per level. With it, the
frontier is read from the maintained multiset and tolerance uses O(1)
deltas (:meth:`ToleranceSpec.fits_after_add`), making a level of R
additions O(R * (deg + |CanA|)) — near-linear in the region size. Both
paths are deterministic and produce byte-identical candidate orderings, so
envelopes and reversals are unaffected by which one ran.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Dict, Optional, Set, Tuple

from ..errors import CloakingError, FrontierExhaustedError, ToleranceExceededError
from ..keys.keys import AccessKey
from ..keys.prf import PrfDrawer, prf_value
from ..roadnet.graph import RoadNetwork
from .profile import ToleranceSpec
from .region_state import RegionState

__all__ = ["CloakingAlgorithm", "LevelDraws", "keyed_draw", "eligible_candidates"]

_ATTEMPT_BITS = 24
MAX_ATTEMPT = 1 << _ATTEMPT_BITS

#: Per-level transition-domain bytes (pure function of the level number;
#: rebuilt-per-draw f-string encoding showed up in expansion profiles).
#: Bounded: level numbers arrive from attacker-controlled envelopes, so an
#: unbounded memo would let forged level fields grow a server's memory;
#: real profiles use a handful of levels, so a full drop past the cap
#: costs one re-encode per level afterwards.
_TRANSITION_DOMAINS: dict = {}
_TRANSITION_DOMAINS_CAP = 128


def _transition_domain(level: int) -> bytes:
    domain = _TRANSITION_DOMAINS.get(level)
    if domain is None:
        if len(_TRANSITION_DOMAINS) >= _TRANSITION_DOMAINS_CAP:
            _TRANSITION_DOMAINS.clear()
        domain = f"reversecloak|level={level}|transitions".encode()
        _TRANSITION_DOMAINS[level] = domain
    return domain


def keyed_draw(key: AccessKey, step: int, attempt: int = 0) -> int:
    """The keyed pseudo-random number ``R`` of ``(step, attempt)``.

    ``step`` is 1-based (the paper's ``R_i`` drives the i-th transition);
    ``attempt`` counts redraws within a step (RPLE only; RGE always uses
    attempt 0).
    """
    if step < 1:
        raise CloakingError(f"step must be >= 1, got {step}")
    if not 0 <= attempt < MAX_ATTEMPT:
        raise CloakingError(f"attempt must be in 0..{MAX_ATTEMPT - 1}, got {attempt}")
    return prf_value(
        key.material, _transition_domain(key.level), (step << _ATTEMPT_BITS) | attempt
    )


class LevelDraws:
    """Buffered keyed draws of one level key (the batched PRF plane).

    Maintains two pre-draw surfaces over the level's transition domain,
    byte-identical to :func:`keyed_draw` everywhere:

    * **attempt-0 plane** — the first request at or past the pre-drawn
      horizon block-draws the attempt-0 values of the next run of steps in
      one :func:`~repro.keys.prf.prf_block` loop (geometrically growing
      blocks, so a level of ``n`` additions costs O(n) batched HMACs plus
      at most one block of overshoot);
    * **redraw plane** — RPLE redraws (attempt >= 1) are drawn singly
      (most redraw runs stop after one extra attempt, so speculative
      bursts would mostly waste HMACs) and memoized like everything else.

    Every drawn value is memoized, which is what makes one instance worth
    sharing across a whole level peel: sibling hypotheses and replay
    certifications re-request the same (step, attempt) pairs over and over
    and pay a dict hit instead of an HMAC.

    Not thread-safe — instances are per-request scratch state (engines
    build one per level per call), never shared across threads.
    """

    __slots__ = ("_drawer", "_level", "_values", "_next_step", "_block")

    #: First attempt-0 block size; doubles per refill up to the cap. The
    #: cap bounds end-of-level overshoot (wasted draws past the last step)
    #: at 63 while still amortising the per-block fixed cost over >= 16
    #: draws — with an unbounded doubling schedule a ~500-step level wastes
    #: a whole trailing block, which measurably exceeds the batching gain.
    _INITIAL_BLOCK = 16
    _MAX_BLOCK = 64
    #: Ceiling on a caller-supplied lookahead. Envelopes are attacker
    #: input, and the engine sizes peel buffers from a record's claimed
    #: step count before the steps-vs-region validation runs — without a
    #: ceiling a forged ``steps`` would allocate and draw an arbitrarily
    #: large first block. Real levels are bounded by the map size; past
    #: the ceiling the buffer just refills in capped blocks.
    _MAX_LOOKAHEAD = 4096

    def __init__(self, key: AccessKey, lookahead: Optional[int] = None) -> None:
        """Wrap ``key``; ``lookahead`` (e.g. a known step count) sizes the
        first attempt-0 block so replays draw their whole level at once."""
        self._drawer = PrfDrawer(key.material, _transition_domain(key.level))
        self._level = key.level
        self._values: Dict[int, int] = {}
        self._next_step = 1
        # A caller-supplied lookahead is an exact upcoming step count (a
        # replay knows its level length), so honour it beyond _MAX_BLOCK —
        # every pre-drawn value will be consumed. Only the growth schedule
        # of the unknown-length path (and forged counts, see
        # _MAX_LOOKAHEAD) is capped.
        self._block = max(
            self._INITIAL_BLOCK, min(lookahead or 0, self._MAX_LOOKAHEAD)
        )

    @property
    def level(self) -> int:
        return self._level

    def draw(self, step: int, attempt: int = 0) -> int:
        """The keyed pseudo-random number ``R`` of ``(step, attempt)``.

        Identical to ``keyed_draw(key, step, attempt)``, served from the
        pre-drawn buffers.
        """
        if step < 1:
            raise CloakingError(f"step must be >= 1, got {step}")
        if not 0 <= attempt < MAX_ATTEMPT:
            raise CloakingError(
                f"attempt must be in 0..{MAX_ATTEMPT - 1}, got {attempt}"
            )
        packed = (step << _ATTEMPT_BITS) | attempt
        value = self._values.get(packed)
        if value is not None:
            return value
        if attempt == 0:
            # Extend the attempt-0 horizon to cover ``step`` in one loop.
            count = max(self._block, step - self._next_step + 1)
            indices = [s << _ATTEMPT_BITS for s in range(self._next_step, self._next_step + count)]
            self._values.update(zip(indices, self._drawer.block(indices)))
            self._next_step += count
            self._block = min(2 * count, self._MAX_BLOCK)
        else:
            # Redraw plane: drawn singly (most redraw runs stop after one
            # extra attempt, so bursts mostly waste HMACs) but memoized, so
            # a peel's many hypotheses re-read each attempt value for free.
            value = self._drawer.value(packed)
            self._values[packed] = value
            return value
        return self._values[packed]


def eligible_candidates(
    network: RoadNetwork,
    region: AbstractSet[int],
    tolerance: ToleranceSpec,
    state: Optional[RegionState] = None,
) -> Tuple[int, ...]:
    """The tolerance-filtered candidate frontier ``CanA`` of ``region``.

    A frontier segment is eligible when adding it keeps the region within
    the level's spatial tolerance. Both expansion and reversal must apply
    exactly this filter, otherwise their candidate orderings diverge; it is
    therefore the single shared implementation.

    With a maintained ``state`` (whose members equal ``region``) the
    frontier comes from the incremental multiset and each candidate is
    checked with an O(1) tolerance delta instead of an O(|region|) set copy
    and recompute; the result — content *and* order — is identical.
    """
    if state is not None:
        uniform = tolerance.uniform_fit_after_add(state)
        if uniform is not None:
            # Count-only tolerance: one decision covers every candidate,
            # so skip the per-candidate filter calls entirely. Content and
            # order are unchanged: all candidates pass or all fail.
            return state.frontier() if uniform else ()
        return tuple(
            candidate
            for candidate in state.frontier()
            if tolerance.fits_after_add(state, candidate)
        )
    region_set = set(region)
    return tuple(
        candidate
        for candidate in network.frontier(region_set)
        if tolerance.fits(network, region_set | {candidate})
    )


class CloakingAlgorithm(ABC):
    """Contract shared by the reversible expansion algorithms."""

    #: Short machine-readable name recorded in envelopes ("rge" / "rple").
    name: str = ""

    @abstractmethod
    def forward_step(
        self,
        network: RoadNetwork,
        region: AbstractSet[int],
        anchor: int,
        key: AccessKey,
        step: int,
        tolerance: ToleranceSpec,
        state: Optional[RegionState] = None,
        draws: Optional[LevelDraws] = None,
    ) -> int:
        """Select the next segment to add.

        Args:
            network: The shared road map.
            region: The current cloaking region (anchor included).
            anchor: The last-added segment (the user segment at level start).
            key: The level key driving the keyed draws.
            step: 1-based transition index within this level.
            tolerance: The level's spatial tolerance.
            state: Optional maintained state of ``region`` for O(1) frontier
                and tolerance reads; never changes the selected segment.
            draws: Optional batched draw buffer of ``key``'s level; serves
                the identical keyed values at block-draw cost.

        Returns:
            The id of the selected frontier segment.

        Raises:
            ToleranceExceededError: No frontier segment fits the tolerance.
            FrontierExhaustedError: The frontier itself is empty.
            CloakingError: The algorithm cannot continue from this anchor.
        """

    @abstractmethod
    def backward_anchors(
        self,
        network: RoadNetwork,
        inner_region: AbstractSet[int],
        removed: int,
        key: AccessKey,
        step: int,
        tolerance: ToleranceSpec,
        state: Optional[RegionState] = None,
        draws: Optional[LevelDraws] = None,
    ) -> Tuple[int, ...]:
        """Anchor hypotheses for the step that added ``removed``.

        Args:
            network: The shared road map.
            inner_region: The region *before* the step (``removed`` excluded).
            removed: The segment the forward step added.
            key: The level key.
            step: 1-based transition index within this level.
            tolerance: The level's spatial tolerance.
            state: Optional maintained state of ``inner_region``; never
                changes the returned hypotheses.
            draws: Optional batched draw buffer of ``key``'s level.

        Returns:
            Candidate anchors, best-first. Empty when ``removed`` could not
            have been added at this step with this key (the caller prunes the
            hypothesis).
        """

    def backward_hypotheses(
        self,
        network: RoadNetwork,
        inner_region: AbstractSet[int],
        removed: int,
        key: AccessKey,
        step: int,
        tolerance: ToleranceSpec,
        state: Optional[RegionState] = None,
        draws: Optional[LevelDraws] = None,
    ) -> Tuple[Tuple[int, int], ...]:
        """Anchor hypotheses with a search *penalty* each.

        The reversal search runs iterative deepening over the summed
        penalty of a chain: hypotheses ranked first (the overwhelmingly
        likely ones) are free, later-ranked alternatives cost their rank.
        True chains deviate from first choices rarely, so they surface in a
        low-budget pass before the combinatorial false-hypothesis space is
        entered. RPLE overrides this to additionally charge its
        global-fallback interpretation (decision D12).
        """
        return tuple(
            (anchor, index)
            for index, anchor in enumerate(
                self.backward_anchors(
                    network, inner_region, removed, key, step, tolerance,
                    state=state, draws=draws,
                )
            )
        )

    def params(self) -> dict:
        """Algorithm parameters to embed in envelopes (overridden by RPLE)."""
        return {}

    def _raise_no_candidates(
        self,
        network: RoadNetwork,
        region: AbstractSet[int],
        step: int,
        level: int,
        state: Optional[RegionState] = None,
    ) -> None:
        """Raise the precise exhaustion error for an empty eligible set."""
        frontier = state.frontier() if state is not None else network.frontier(
            set(region)
        )
        if frontier:
            raise ToleranceExceededError(
                level, f"no frontier segment fits the tolerance at step {step}"
            )
        raise FrontierExhaustedError(level)
