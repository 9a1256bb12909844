"""Search-mode reversal of the socket benchmark's 64 key holders, pinned.

The world is rebuilt here from constants — the ``atlanta_like`` map, two
users per segment, the light two-level profile, the key holders drawn with
seed 20170605 and their ``socketbench-{user}-{level}`` passphrases — so
this test does not depend on the benchmark package. Each holder is peeled
in ``search`` mode (no sealed hints) down to its granted level, ``index %
2``, as the benchmark's ``peel`` workload does.

Every holder's result is pinned to a literal: a digest of its per-level
regions and removal orders, or the level and hypothesis count of the
:class:`~repro.errors.CollisionError` it raises. A faster search must
reproduce them exactly — a self-consistency check would miss a change
that is merely deterministic.
"""

import hashlib
import json
import random

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    atlanta_like,
)
from repro.errors import CollisionError

LIGHT_PROFILE = dict(
    levels=2, base_k=20, k_step=20, base_l=3, l_step=1, max_segments=80
)
USERS_PER_SEGMENT = 2
HOLDER_COUNT = 64
HOLDER_SEED = 20170605

#: ``holder index -> result digest`` or ``(level, hypotheses)`` of the
#: collision the search-mode peel raises.
PINNED = {
    0: "f87d84ae7482", 1: "d4d9e45f47c4", 2: "7fe56ded63b0", 3: "c720509ec0ec",
    4: "7da2b0afda13", 5: "595470893848", 6: "010d2785dccd", 7: "86e4e276f709",
    8: "36d7c0498735", 9: "73a2e0e23083", 10: "1d1985395fad",
    11: "fca7cef8248c", 12: "80abee1145f5", 13: "476d90cf965d",
    14: "0e9e23cbca17", 15: "3286586cdf72", 16: "64d1523350d5",
    17: "5e026f08d0d1", 18: (1, 3), 19: "25b66aff1599", 20: "bdfb5d07dd79",
    21: "40b059ddafec", 22: "bf922f65f0e9", 23: "5a7e0c8a8614",
    24: "a699184fccca", 25: "c34e598b515b", 26: "318ccd2bc80b",
    27: "e540cd8f1dcc", 28: "1569eedfeeba", 29: "0799971abd90",
    30: "0028042242e3", 31: "60c70cfdfd8f", 32: "d7b18dc89135",
    33: "73c6151e18df", 34: "45eaf7f24e45", 35: "a32549154c9a",
    36: "8bbb53f3773d", 37: "e6b473615456", 38: "a5912067a77f",
    39: "2847ee9bb595", 40: (1, 2), 41: "2b3fdbc8d4a5", 42: "ab7dffabefd6",
    43: "599f694e0359", 44: "d58e25abc8a8", 45: "fdd0ba440f6c",
    46: "268ba456c496", 47: "7f6c83f0d1c3", 48: "81fdbc6fe9f0",
    49: "183a5a0f7798", 50: "9352827a21b3", 51: "8272c4718417", 52: (2, 20001),
    53: "1cd8e546326c", 54: "4eb0a71e6d84", 55: "4c3b8a56a12b", 56: (1, 3),
    57: "88dfc6c7df58", 58: (1, 2), 59: "54a07076f3cf", 60: "c2e4908fc80b",
    61: "ecf1fe2daf98", 62: "5cabda0571dd", 63: "c78bbf899569",
}


def holder_chain(user_id: int) -> KeyChain:
    return KeyChain.from_passphrases(
        [f"socketbench-{user_id}-{level}" for level in (1, 2)]
    )


def search_result(engine, envelope, user_id: int, index: int):
    """The pinned form of holder ``index``'s search-mode peel."""
    target = index % 2
    keys = holder_chain(user_id).suffix(target + 1)
    try:
        result = engine.deanonymize(envelope, keys, target, mode="search")
    except CollisionError as exc:
        return (exc.level, exc.hypotheses)
    document = {
        "regions": {str(level): list(region) for level, region in result.regions.items()},
        "removed": {str(level): list(order) for level, order in result.removed.items()},
    }
    payload = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


@pytest.fixture(scope="module")
def world():
    network = atlanta_like()
    snapshot = PopulationSnapshot.from_counts(
        {segment_id: USERS_PER_SEGMENT for segment_id in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(**LIGHT_PROFILE)
    engine = ReverseCloakEngine(network)
    holders = random.Random(HOLDER_SEED).sample(snapshot.users(), HOLDER_COUNT)
    envelopes = [
        engine.anonymize(
            snapshot.segment_of(user_id), snapshot, profile, holder_chain(user_id)
        )
        for user_id in holders
    ]
    return engine, holders, envelopes


class TestPinnedSearchResults:
    def test_every_holder_is_pinned(self):
        assert sorted(PINNED) == list(range(HOLDER_COUNT))

    @pytest.mark.parametrize("index", range(HOLDER_COUNT))
    def test_search_peel(self, world, index):
        engine, holders, envelopes = world
        assert search_result(
            engine, envelopes[index], holders[index], index
        ) == PINNED[index]
