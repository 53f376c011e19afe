"""Asynchronous message-passing substrate.

Protocols are *sans-io* state machines (:class:`repro.net.protocol.Protocol`)
composed into per-party stacks (:class:`repro.net.party.Party`) and executed
by a :class:`repro.net.transport.Transport`: the deterministic
discrete-event simulator (:class:`repro.net.runtime.Simulation`), where
the adversary's scheduler controls delivery, or the real socket transport
(:mod:`repro.net.tcp_runtime`), which ships every message as
:mod:`repro.net.codec` bytes.  This package does not import the socket
transport: ``make_transport("tcp")`` does, so a simulated run never
loads asyncio, ssl or socket.  The transport meters words, messages,
bytes and causal rounds (:mod:`repro.net.metrics`), and the adversary
controls both message scheduling and Byzantine party behaviour
(:mod:`repro.net.adversary`).  A seeded link-fault plane
(:mod:`repro.net.chaos`) injects partitions, loss, duplication,
reordering, delay and corruption into the shared delivery pipeline on
any transport.
"""

from repro.net.payload import Payload, words_of
from repro.net.envelope import Envelope
from repro.net.conditions import Completion
from repro.net.protocol import Protocol
from repro.net.party import Party
from repro.net.metrics import Metrics
from repro.net.delays import (
    DelayModel,
    FixedDelay,
    UniformDelay,
    ExponentialDelay,
    HeavyTailDelay,
)
from repro.net.transport import (
    Transport,
    make_transport,
    TRANSPORT_KINDS,
)
from repro.net.chaos import (
    ChaosPlane,
    ChaosSpec,
    DelayWindow,
    LinkFault,
    Partition,
)
from repro.net.runtime import Simulation
from repro.net.adversary import (
    Behavior,
    CrashBehavior,
    SilentBehavior,
    DropBehavior,
    MutateBehavior,
    EquivocateBehavior,
    RandomLagScheduler,
)

__all__ = [
    "Payload",
    "words_of",
    "Envelope",
    "Completion",
    "Protocol",
    "Party",
    "Metrics",
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "ExponentialDelay",
    "HeavyTailDelay",
    "Transport",
    "make_transport",
    "TRANSPORT_KINDS",
    "ChaosPlane",
    "ChaosSpec",
    "DelayWindow",
    "LinkFault",
    "Partition",
    "Simulation",
    "Behavior",
    "CrashBehavior",
    "SilentBehavior",
    "DropBehavior",
    "MutateBehavior",
    "EquivocateBehavior",
    "RandomLagScheduler",
]
