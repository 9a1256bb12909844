"""The three traffic mixes of the socket benchmark and their reference world.

Every workload serves the same server configuration (the defaults of
:class:`~repro.lbs.service.AnonymizerService` and
:class:`~repro.lbs.frontend.FrontendServer`) and differs only in the map it
is started on and the requests it receives:

* ``cloak`` — cloak requests only, light two-level profile on the
  irregular ``atlanta_like`` map, users drawn from the whole snapshot (a
  working set far larger than the key and profile memos).
* ``peel`` — de-anonymization requests only, from 64 fixed key holders on
  the same map and profile; one request in eight runs in ``search`` mode.
* ``mixed`` — three cloaks to one hint-mode peel on the 71x71 grid with a
  heavy three-level profile, so both coalescing lanes are busy at once.

The map and population snapshot are fixed; the workload seed chooses only
the user pool, the order in which users and holders are drawn, and the
arrival times. :class:`Traffic` is the generator's in-process copy of the
server's world: it encodes the requests and checks every reply against the
library itself (a cloak must peel back to the user's true segment, a peel
must return the expected regions, repeats must be byte-identical).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    atlanta_like,
    grid_network,
)
from repro.errors import ReverseCloakError
from repro.lbs import CloakRequest, CloakRequestDoc, DeanonymizeRequestDoc, OutcomeDoc

#: Light profile: two levels, ~10 expansion steps each.
LIGHT_PROFILE = dict(
    levels=2, base_k=20, k_step=20, base_l=3, l_step=1, max_segments=80
)
#: Heavy profile: three levels, ~20 expansion steps each.
HEAVY_PROFILE = dict(
    levels=3, base_k=40, k_step=40, base_l=4, l_step=2, max_segments=200
)
#: Users per segment of the fixed population snapshot.
USERS_PER_SEGMENT = 2
#: Key holders of the peel traffic, drawn once from the snapshot with
#: :data:`HOLDER_SEED` (the same set for every workload seed).
HOLDER_COUNT = 64
HOLDER_SEED = 20170605
#: Holders (indices into the holder list) whose ``search``-mode peel on
#: the ``atlanta`` map with the light profile is unique and took under
#: 25 ms in-process on a 2-CPU VM; the ``peel`` workload draws its
#: search-mode requests from these. Of all 64 holders, 5 collide
#: (``reversal_collision``) and 28 take 25 ms to 1.7 s — a search
#: pathology kept out of a serving benchmark, where one such request
#: stalls the whole lane.
SEARCH_HOLDERS = (
    6, 9, 11, 12, 14, 15, 16, 17, 20, 21, 23, 25, 26, 28, 29, 30,
    31, 35, 38, 42, 43, 44, 45, 46, 47, 48, 53, 55, 59, 60, 61,
)

_OK_PREFIX = b'{"format":"repro.outcome","version":1,"status":"ok"'
_OUTCOME_MARK = b',"outcome":'


@dataclass(frozen=True)
class Workload:
    """One traffic mix. Rates are absolute offered loads in req/s."""

    name: str
    map_name: str
    profile: dict
    #: Every ``peel_every``-th request is a peel (1: all, 0: none).
    peel_every: int
    #: Every ``search_every``-th peel runs in search mode (0: never).
    search_every: int
    #: Distinct cloaking users per run, drawn from the snapshot by seed.
    user_pool: int
    lo_rps: float
    hi_rps: float
    p99_limit_ms: float


WORKLOADS: Dict[str, Workload] = {
    "cloak": Workload(
        name="cloak",
        map_name="atlanta",
        profile=LIGHT_PROFILE,
        peel_every=0,
        search_every=0,
        user_pool=2048,
        lo_rps=260.0,
        hi_rps=520.0,
        p99_limit_ms=50.0,
    ),
    "peel": Workload(
        name="peel",
        map_name="atlanta",
        profile=LIGHT_PROFILE,
        peel_every=1,
        search_every=8,
        user_pool=0,
        lo_rps=50.0,
        hi_rps=100.0,
        p99_limit_ms=100.0,
    ),
    "mixed": Workload(
        name="mixed",
        map_name="grid71",
        profile=HEAVY_PROFILE,
        peel_every=4,
        search_every=0,
        user_pool=256,
        lo_rps=70.0,
        hi_rps=140.0,
        p99_limit_ms=100.0,
    ),
}


def build_network(map_name: str):
    """The workload's road map (a pure function of its name)."""
    if map_name == "atlanta":
        return atlanta_like()
    if map_name == "grid71":
        return grid_network(71, 71)
    raise ValueError(f"unknown map: {map_name!r}")


def build_snapshot(network) -> PopulationSnapshot:
    return PopulationSnapshot.from_counts(
        {segment_id: USERS_PER_SEGMENT for segment_id in network.segment_ids()}
    )


def user_chain(user_id: int, levels: int) -> KeyChain:
    return KeyChain.from_passphrases(
        [f"socketbench-{user_id}-{level}" for level in range(1, levels + 1)]
    )


def _compact(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode()


class WrongReply(Exception):
    """A reply that is not what the library computes for its request."""


#: A request key: ``("c", user_id, "")`` or ``("p", holder_index, mode)``.
Key = Tuple[str, int, str]


class Traffic:
    """The generator's copy of one workload's world, requests and checks.

    Args:
        workload: The traffic mix.
        seed: Chooses the cloaking user pool; :meth:`stream` draws with
            its own seeded generator.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.network = build_network(workload.map_name)
        self.snapshot = build_snapshot(self.network)
        self.profile = PrivacyProfile.uniform(**workload.profile)
        self.levels = self.profile.level_count
        self.engine = ReverseCloakEngine(self.network)
        everyone = self.snapshot.users()
        self.pool: List[int] = []
        if workload.peel_every != 1:
            self.pool = random.Random(seed).sample(everyone, workload.user_pool)
        self.holders: List[int] = []
        if workload.peel_every:
            self.holders = random.Random(HOLDER_SEED).sample(everyone, HOLDER_COUNT)
        self.search_holders = (
            list(SEARCH_HOLDERS) if workload.search_every else []
        )
        self.docs: Dict[Key, bytes] = {}
        self._expected: Dict[Key, bytes] = {}
        self._first_cloak: Dict[int, bytes] = {}
        for user_id in self.pool:
            self._add_cloak(user_id)
        self._envelopes = [self._cloak_holder(user_id) for user_id in self.holders]
        for index in range(len(self.holders)):
            self._add_peel(index, "hint")
        for index in self.search_holders:
            self._add_peel(index, "search")

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _add_cloak(self, user_id: int) -> Key:
        key = ("c", user_id, "")
        if key not in self.docs:
            request = CloakRequest(
                user_id=user_id,
                profile=self.profile,
                chain=user_chain(user_id, self.levels),
            )
            self.docs[key] = _compact(CloakRequestDoc.from_request(request).to_dict())
        return key

    def _cloak_holder(self, user_id: int):
        """(envelope, full peel) of one holder, cloaked in-process; the
        full peel must recover the holder's true segment."""
        chain = user_chain(user_id, self.levels)
        segment = self.snapshot.segment_of(user_id)
        envelope = self.engine.anonymize(segment, self.snapshot, self.profile, chain)
        full = self.engine.deanonymize(envelope, chain, 0, mode="hint")
        if full.region_at(0) != (segment,):
            raise WrongReply(f"holder {user_id}: in-process peel lost the user")
        return envelope, full

    def _add_peel(self, index: int, mode: str) -> None:
        """Record the request and expected reply of holder ``index``'s
        peel to its granted level ``index % levels``."""
        envelope, full = self._envelopes[index]
        chain = user_chain(self.holders[index], self.levels)
        target = index % self.levels
        keys = chain.suffix(target + 1)
        result = self.engine.deanonymize(envelope, keys, target, mode=mode)
        if result.region_at(target) != full.region_at(target):
            raise WrongReply(f"holder {index}: {mode} peel disagrees with the chain")
        key = ("p", index, mode)
        expected = OutcomeDoc.from_result(result).to_dict()
        regions = expected.get("result", {}).get("regions", {})
        if regions.get(str(target)) != list(full.region_at(target)):
            raise WrongReply(f"holder {index}: outcome document misstates the region")
        self._expected[key] = _compact(expected)
        request = DeanonymizeRequestDoc(
            envelope=envelope, keys=keys, target_level=target, mode=mode
        )
        self.docs[key] = _compact(request.to_dict())

    def warmup_keys(self) -> List[Key]:
        """A fixed request set, independent of the seed, covering every
        request kind the workload sends (what makes first-use costs land
        in set-up, not in the first measured phase)."""
        keys: List[Key] = []
        if self.workload.peel_every != 1:
            fixed = random.Random(HOLDER_SEED + 1).sample(self.snapshot.users(), 8)
            keys.extend(self._add_cloak(user_id) for user_id in fixed)
        if self.holders:
            keys.extend(("p", index, "hint") for index in range(4))
        keys.extend(("p", index, "search") for index in self.search_holders[:2])
        return keys

    def stream(self, seed: str, count: int) -> List[Key]:
        """``count`` request keys drawn with ``seed``, in the workload's mix."""
        rng = random.Random(seed)
        workload = self.workload
        keys: List[Key] = []
        peels = 0
        for index in range(count):
            is_peel = workload.peel_every and (
                index % workload.peel_every == workload.peel_every - 1
            )
            if not is_peel:
                keys.append(("c", rng.choice(self.pool), ""))
                continue
            peels += 1
            if workload.search_every and peels % workload.search_every == 0:
                keys.append(("p", rng.choice(self.search_holders), "search"))
            else:
                keys.append(("p", rng.randrange(len(self.holders)), "hint"))
        return keys

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    @staticmethod
    def outcome_of(payload: bytes) -> bytes:
        """The outcome document bytes of one reply frame payload."""
        cut = payload.find(_OUTCOME_MARK)
        if cut < 0 or not payload.endswith(b"}"):
            raise WrongReply(f"reply frame has no outcome: {payload[:120]!r}")
        return payload[cut + len(_OUTCOME_MARK) : -1]

    def check(self, key: Key, outcome: bytes) -> bool:
        """Check one reply; ``False`` for a structured error (a failed
        request), :class:`WrongReply` for a wrong answer."""
        if not outcome.startswith(_OK_PREFIX):
            return False
        if key[0] == "p":
            if outcome != self._expected[key]:
                raise WrongReply(f"peel {key} returned {outcome[:160]!r}")
            return True
        first = self._first_cloak.setdefault(key[1], outcome)
        if first != outcome:
            raise WrongReply(f"cloak of user {key[1]} is not byte-identical")
        return True

    def verify_cloaks(self) -> int:
        """Peel every distinct cloak reply seen back to level 0 with the
        user's own chain; it must be the user's true segment. Returns the
        number of envelopes verified."""
        for user_id, outcome in self._first_cloak.items():
            chain = user_chain(user_id, self.levels)
            try:
                envelope = OutcomeDoc.from_dict(json.loads(outcome)).envelope
                result = self.engine.deanonymize(envelope, chain, 0, mode="hint")
            except (ReverseCloakError, ValueError) as exc:
                raise WrongReply(f"cloak of user {user_id} does not peel: {exc!r}") from None
            if result.region_at(0) != (self.snapshot.segment_of(user_id),):
                raise WrongReply(f"cloak of user {user_id} does not peel to its user")
        return len(self._first_cloak)
