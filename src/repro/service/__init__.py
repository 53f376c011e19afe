"""Long-lived threshold services built on the session-multiplexed engine.

The paper's ADKG is the *setup* step for services that live much longer
than one protocol run: repeated common coins, randomness beacons,
proactive key refresh.  This package hosts the first of them:

* :class:`~repro.service.epochs.EpochDriver` — runs a sequence of ADKG
  *epochs* as concurrent sessions over one live transport, pipelined so
  epoch ``e+1``'s dealing/sharing phase overlaps epoch ``e``'s agreement
  phase (``pipeline_depth`` epochs in flight at once), garbage-collecting
  each completed epoch's protocol state;
* :class:`~repro.service.beacon.RandomnessBeacon` — a drand-style
  verifiable randomness stream: each epoch's agreed group key drives
  threshold-VRF evaluations, chained across epochs so the stream stays
  linked over key handoffs.

* :class:`~repro.service.shards.GroupCoordinator` /
  :class:`~repro.service.shards.ShardedBeacon` — horizontal scale-out
  (DESIGN §12): k independent DKG groups partitioned from one party
  universe, each on a transport of its own — one after the other, or in
  a shared fork pool when the host has the cores, every group returning
  its :class:`~repro.service.shards.GroupResult` either way — with
  per-group beacon streams hash-combined into one randomness service.

:func:`~repro.service.beacon.run_beacon` is the one-call entry point the
CLI (``repro beacon``), the pipelining experiment and the session
benchmark share; :func:`~repro.service.shards.run_sharded` is its
multi-group analogue (``repro run --groups k``).
"""

from repro.service.beacon import (
    BeaconOutput,
    BeaconReport,
    RandomnessBeacon,
    run_beacon,
)
from repro.service.epochs import EpochDriver, EpochResult
from repro.service.membership import (
    ChurnBeacon,
    ChurnEvent,
    ChurnReport,
    MembershipDriver,
    MembershipSchedule,
    committee_setup,
    parse_churn,
    run_churn,
)
from repro.service.shards import (
    CombinedOutput,
    GroupCoordinator,
    GroupResult,
    ShardedBeacon,
    ShardReport,
    run_sharded,
)

__all__ = [
    "BeaconOutput",
    "BeaconReport",
    "ChurnBeacon",
    "ChurnEvent",
    "ChurnReport",
    "CombinedOutput",
    "EpochDriver",
    "EpochResult",
    "GroupCoordinator",
    "GroupResult",
    "MembershipDriver",
    "MembershipSchedule",
    "RandomnessBeacon",
    "ShardReport",
    "ShardedBeacon",
    "committee_setup",
    "parse_churn",
    "run_beacon",
    "run_churn",
    "run_sharded",
]
