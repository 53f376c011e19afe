"""Shard groups: k independent DKG rosters multiplexed over one transport.

Word complexity is O(n³) per group (Theorems 6-10), so production scale
comes from running *many* groups, not from growing ``n``.  A
:class:`ShardGroup` describes one such group: its own
:class:`~repro.crypto.keys.TrustedSetup` (independent key material, its
own ``n``/``f``), the universe party ids assigned to it, and the seed its
parties derive every RNG stream from.

The layout contract shared by every execution mode
(``repro.service.shards`` runs the same groups multiplexed on one
transport, sequentially on solo transports, or in worker processes):

* **slots** — on a shared transport, group ``g``'s parties occupy a
  contiguous block of universe slots; envelopes keep carrying
  *group-local* sender/recipient indices (the protocols address peers
  ``0..n_g-1`` and look keys up in the group directory by those
  indices), and the transport resolves the delivery slot from the
  envelope's session id;
* **sessions** — group ``g`` owns the session-id block
  ``[g·SESSION_STRIDE, (g+1)·SESSION_STRIDE)``; epoch ``e`` runs as
  session ``g·SESSION_STRIDE + e``.  A solo run of the group uses the
  *same* session ids (the ``EpochDriver`` lane's base), so the per-session
  RNG streams (``{rng_label}-session-{sid}``) — and therefore every PVSS
  dealing — are byte-identical across modes;
* **seeds** — ``group_seed`` is a pure function of the universe seed and
  the gid, so a worker process can rebuild the exact group (setup, party
  RNG labels) from ``(gid, n, f, universe_seed)`` alone — config in as
  plain values, no key material crossing the process boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import TrustedSetup

__all__ = [
    "SESSION_STRIDE",
    "ShardGroup",
    "group_of_session",
    "group_seed",
    "make_shard_group",
    "partition_universe",
]

#: Session ids per group: group ``g``'s epoch ``e`` is session
#: ``g * SESSION_STRIDE + e``.  Part of the cross-mode identity contract
#: (the solo runs must use the same ids), so treat like a wire constant.
SESSION_STRIDE = 1 << 16


def group_of_session(session: int) -> int:
    """The gid owning a session id (sessions are blocked per group)."""
    return session // SESSION_STRIDE


def group_seed(seed: int, gid: int) -> int:
    """The group's deterministic seed, derived from the universe seed.

    A pure function of ``(seed, gid)`` so every execution mode — and a
    worker process rebuilding the group from its config tuple — lands on
    identical key material and party RNG labels.
    """
    return int.from_bytes(hash_bytes("shard-seed", seed, gid)[:6], "big")


@dataclass(frozen=True)
class ShardGroup:
    """One DKG group of a sharded deployment."""

    gid: int
    setup: TrustedSetup = field(repr=False)
    seed: int
    #: Universe party ids assigned to this group; local index ``i`` is
    #: universe member ``members[i]`` (provenance/report data only — the
    #: protocols run on local indices).
    members: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.setup.directory.n

    @property
    def f(self) -> int:
        return self.setup.directory.f

    @property
    def session_base(self) -> int:
        return self.gid * SESSION_STRIDE

    def session_of(self, epoch: int) -> int:
        if not 0 <= epoch < SESSION_STRIDE:
            raise ValueError(f"epoch {epoch} outside the group's session block")
        return self.session_base + epoch


def make_shard_group(
    gid: int,
    n: int,
    f: Optional[int],
    seed: int,
    members: tuple[int, ...] = (),
    params: str = "TESTING",
) -> ShardGroup:
    """Materialize one group from its plain-value description.

    The single constructor every mode shares: the coordinator, the solo
    (sequential) runner and the shard-executor worker all call this, so
    "same config tuple" implies "same keys, same RNG labels" — the root
    of the cross-mode byte-identity invariant.
    """
    gseed = group_seed(seed, gid)
    setup = TrustedSetup.generate(
        n, f=f, params=params, seed=gseed, session=f"adkg-shard-{gid}"
    )
    return ShardGroup(gid=gid, setup=setup, seed=gseed, members=tuple(members))


def partition_universe(
    universe: int, groups: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Deterministic seeded assignment of universe ids to ``groups`` groups.

    A seeded shuffle sliced into contiguous chunks: every party lands in
    exactly one group, group sizes differ by at most one, and the same
    ``(universe, groups, seed)`` always yields the same assignment — the
    coordinator's membership decision is reproducible from the seed
    alone.
    """
    if groups < 1:
        raise ValueError("need at least one group")
    if universe < groups:
        raise ValueError(f"cannot split {universe} parties into {groups} groups")
    ids = list(range(universe))
    random.Random(f"shard-assign-{seed}").shuffle(ids)
    base, extra = divmod(universe, groups)
    assignment = []
    cursor = 0
    for gid in range(groups):
        size = base + (1 if gid < extra else 0)
        assignment.append(tuple(ids[cursor : cursor + size]))
        cursor += size
    return tuple(assignment)
