"""Tests for level peeling and forward replay."""

import pytest

import reference
from repro.core import (
    ReversibleGlobalExpansion,
    ToleranceSpec,
    enumerate_bootstraps,
    peel_level,
    region_digest,
    replay_level,
)
from repro.errors import CollisionError, DeanonymizationError, UnknownSegmentError
from repro.keys import AccessKey
from repro.roadnet import grid_network


WIDE = ToleranceSpec(max_segments=100)


@pytest.fixture(scope="module")
def grid():
    return grid_network(8, 8)


@pytest.fixture(scope="module")
def key():
    return AccessKey.from_passphrase(1, "peel-test")


@pytest.fixture(scope="module")
def rge():
    return ReversibleGlobalExpansion()


def expand(network, algorithm, key, start, steps):
    """Run a forward expansion, returning (region, additions, final anchor)."""
    region = {start}
    anchor = start
    additions = []
    for step in range(1, steps + 1):
        segment = algorithm.forward_step(network, region, anchor, key, step, WIDE)
        region.add(segment)
        additions.append(segment)
        anchor = segment
    return region, additions, anchor


class TestReplay:
    def test_replay_reproduces_expansion(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 6)
        replayed = replay_level(grid, rge, key, {27}, 27, 6, WIDE)
        assert replayed == tuple(additions)

    def test_replay_fails_from_wrong_anchor(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 6)
        wrong_anchor_replay = replay_level(
            grid, rge, key, {27}, 27, 5, WIDE
        )  # shorter but fine
        assert wrong_anchor_replay == tuple(additions[:5])

    def test_replay_none_on_failure(self, grid, rge, key):
        # replay that cannot expand (tolerance 1 segment) returns None
        tight = ToleranceSpec(max_segments=1)
        assert replay_level(grid, rge, key, {27}, 27, 2, tight) is None


class TestEnumerateBootstraps:
    def test_contains_true_last_added(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 5)
        assert anchor in enumerate_bootstraps(grid, region)

    def test_all_keep_connectivity(self, grid, rge, key):
        region, __, __ = expand(grid, rge, key, 27, 5)
        for bootstrap in enumerate_bootstraps(grid, region):
            assert grid.is_connected_region(region - {bootstrap})


class TestPeelLevel:
    def test_peel_with_true_bootstrap(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 6)
        outcomes = peel_level(grid, rge, key, region, 6, WIDE, (anchor,))
        assert outcomes
        exact = [o for o in outcomes if o.inner_region == frozenset({27})]
        assert len(exact) == 1
        assert exact[0].removed == tuple(reversed(additions))
        assert exact[0].start_anchor == 27

    def test_peel_zero_steps(self, grid, rge, key):
        outcomes = peel_level(grid, rge, key, {1, 2, 3}, 0, WIDE, (2,))
        assert len(outcomes) == 1
        assert outcomes[0].inner_region == frozenset({1, 2, 3})
        assert outcomes[0].removed == ()
        assert outcomes[0].start_anchor == 2

    def test_peel_zero_steps_bootstrap_must_be_inside(self, grid, rge, key):
        assert peel_level(grid, rge, key, {1, 2, 3}, 0, WIDE, (99,)) == []

    def test_steps_exceeding_region_rejected(self, grid, rge, key):
        with pytest.raises(DeanonymizationError):
            peel_level(grid, rge, key, {1, 2, 3}, 3, WIDE, (1,))

    def test_wrong_bootstrap_is_pruned_or_distinct(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 6)
        wrong = [b for b in enumerate_bootstraps(grid, region) if b != anchor]
        outcomes = peel_level(grid, rge, key, region, 6, WIDE, tuple(wrong))
        # a wrong bootstrap can never certify back to the true inner region
        # with the true sequence
        for outcome in outcomes:
            assert outcome.removed[0] != anchor

    def test_validation_filters_inconsistent(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 6)
        all_bootstraps = enumerate_bootstraps(grid, region)
        certified = peel_level(
            grid, rge, key, region, 6, WIDE, all_bootstraps, validate=True
        )
        uncertified = peel_level(
            grid, rge, key, region, 6, WIDE, all_bootstraps, validate=False
        )
        assert len(certified) <= len(uncertified)
        assert any(o.inner_region == frozenset({27}) for o in certified)

    def test_branch_limit_raises_collision(self, grid, rge, key):
        region, __, anchor = expand(grid, rge, key, 27, 10)
        with pytest.raises(CollisionError):
            peel_level(
                grid,
                rge,
                key,
                region,
                10,
                WIDE,
                enumerate_bootstraps(grid, region),
                branch_limit=2,
            )

    def test_first_only_stops_early(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 6)
        outcomes = peel_level(
            grid, rge, key, region, 6, WIDE, (anchor,), first_only=True
        )
        assert len(outcomes) == 1

    def test_added_sequence_property(self, grid, rge, key):
        region, additions, anchor = expand(grid, rge, key, 27, 4)
        outcomes = peel_level(grid, rge, key, region, 4, WIDE, (anchor,))
        truth = [o for o in outcomes if o.inner_region == frozenset({27})]
        assert truth[0].added_sequence == tuple(additions)


class TestDigestPrefilter:
    def test_keeps_exactly_the_matching_outcomes(self, grid, rge, key):
        region, __, __ = expand(grid, rge, key, 27, 6)
        bootstraps = enumerate_bootstraps(grid, region)
        everything = peel_level(grid, rge, key, region, 6, WIDE, bootstraps)
        truth = region_digest({27})
        pinned = peel_level(
            grid, rge, key, region, 6, WIDE, bootstraps, inner_digest=truth
        )
        assert pinned == [
            o for o in everything if region_digest(o.inner_region) == truth
        ]
        assert [o.inner_region for o in pinned] == [frozenset({27})]
        assert peel_level(
            grid, rge, key, region, 6, WIDE, bootstraps,
            inner_digest=region_digest({28}),
        ) == []

    def test_zero_step_level_checks_the_digest(self, grid, rge, key):
        inner = {1, 2, 3}
        assert peel_level(
            grid, rge, key, inner, 0, WIDE, (2,), inner_digest=region_digest(inner)
        )
        assert peel_level(
            grid, rge, key, inner, 0, WIDE, (2,), inner_digest=region_digest({1})
        ) == []

    def test_screening_never_counts_toward_the_branch_limit(self, grid, rge, key):
        """Digest checks and replays do not advance the explored counter:
        the smallest limit a search completes under is the same with and
        without them."""
        region, __, __ = expand(grid, rge, key, 27, 7)
        bootstraps = enumerate_bootstraps(grid, region)

        def smallest_limit(**screening):
            limit = 1
            while True:
                try:
                    peel_level(
                        grid, rge, key, region, 7, WIDE, bootstraps,
                        branch_limit=limit, **screening,
                    )
                    return limit
                except CollisionError:
                    limit += 1

        plain = smallest_limit(validate=False)
        assert plain > 1
        assert smallest_limit(validate=True) == plain
        assert smallest_limit(inner_digest=region_digest({27})) == plain


class TestUnknownSegments:
    """An unknown id in the outer region raises ``UnknownSegmentError`` on
    both paths, never a bare ``KeyError`` and never an empty answer."""

    @pytest.fixture(scope="class")
    def tampered(self, rge, key):
        grid9 = grid_network(9, 9)
        region, __, anchor = expand(grid9, rge, key, 40, 6)
        return grid9, region | {999999}, anchor

    @pytest.mark.parametrize("bootstrap", ["unknown", "outside"])
    def test_hinted_path(self, tampered, rge, key, bootstrap):
        grid9, outer, __ = tampered
        # Neither bootstrap starts a walk, so only an upfront check sees
        # the unknown id.
        start = 999999 if bootstrap == "unknown" else 0
        with pytest.raises(UnknownSegmentError):
            peel_level(
                grid9, rge, key, outer, 6, WIDE, (start,), accept=lambda o: True
            )

    def test_search_path(self, tampered, rge, key):
        grid9, outer, anchor = tampered
        with pytest.raises(UnknownSegmentError):
            peel_level(grid9, rge, key, outer, 6, WIDE, (anchor,))


class TestDisconnectedOuterRegion:
    """A tampered, disconnected outer region takes the exact connectivity
    check: the junction-local test assumes a connected region."""

    @pytest.fixture(scope="class")
    def outer(self, grid, rge, key):
        region, __, __ = expand(grid, rge, key, 27, 6)
        far = next(
            sid for sid in reversed(grid.segment_ids())
            if sid not in region and not set(grid.neighbors(sid)) & region
        )
        outer = frozenset(region | {far})
        assert not grid.is_connected_region(outer)
        return outer

    def test_every_chain_keeps_the_region_connected(self, grid, rge, key, outer):
        for steps in (1, 3, 6):
            for outcome in peel_level(
                grid, rge, key, outer, steps, WIDE, sorted(outer), validate=False
            ):
                remaining = set(outer)
                for segment in outcome.removed:
                    remaining.discard(segment)
                    assert grid.is_connected_region(remaining), outcome

    def test_matches_reference(self, grid, rge, key, outer):
        for steps in (1, 3, 6):
            outcomes = peel_level(grid, rge, key, outer, steps, WIDE, sorted(outer))
            assert reference.outcome_set(outcomes) == reference.search_peel(
                grid, rge, key, outer, steps, WIDE
            )
