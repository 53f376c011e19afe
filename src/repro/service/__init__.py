"""Long-lived threshold services built on the session-multiplexed engine.

The paper's ADKG is the *setup* step for services that live much longer
than one protocol run: randomness beacons, proactive key refresh.  Every
service here runs a committee *timeline* — epochs that are each a fresh
ADKG or a reshare handoff of the previous key — as stretches, the
consecutive epochs one committee runs on one transport:

* :class:`~repro.service.timeline.MembershipDriver` — the one loop:
  each stretch through the :class:`~repro.service.epochs.EpochDriver`
  (fresh epochs pipelined, each completed epoch's state collected) under
  its crash plan and chaos spec, then its beacon rounds;
* :class:`~repro.service.beacon.RandomnessBeacon` — the one beacon: each
  epoch's key drives threshold-VRF rounds chained from genesis, verified
  with ``handoffs=True`` where one key is handed across committees.

:func:`~repro.service.timeline.run_beacon` (``repro beacon``) and
:func:`~repro.service.membership.run_churn` (``repro run --reshare``)
only build their stretches and run them.
"""

from repro.service.beacon import BeaconOutput, RandomnessBeacon
from repro.service.epochs import EpochDriver, EpochResult
from repro.service.membership import (
    ChurnBeacon,
    ChurnEvent,
    ChurnReport,
    MembershipSchedule,
    committee_setup,
    parse_churn,
    run_churn,
)
from repro.service.timeline import BeaconReport, MembershipDriver, run_beacon

__all__ = [
    "BeaconOutput",
    "BeaconReport",
    "ChurnBeacon",
    "ChurnEvent",
    "ChurnReport",
    "EpochDriver",
    "EpochResult",
    "MembershipDriver",
    "MembershipSchedule",
    "RandomnessBeacon",
    "committee_setup",
    "parse_churn",
    "run_beacon",
    "run_churn",
]
