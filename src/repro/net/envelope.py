"""Routed message envelopes.

An envelope carries a payload between two parties together with the
full instance address inside the recipient's stack: the *session id*
(which root protocol run this message belongs to — a party may host
several concurrent root instances, e.g. pipelined ADKG epochs) and the
*instance path* below that session's root (e.g.
``("nwh", "view", 3, "pe", "gather", "vrb", 2)``), plus the sender's
causal depth, used for round accounting.

On the wire the session id is the sixth envelope field (see
:mod:`repro.net.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.payload import Payload

Path = tuple


@dataclass(frozen=True, slots=True, weakref_slot=True, init=False)
class Envelope:
    """One routed message.

    Slotted: envelopes are the single most-allocated object of a run
    (one per recipient per send), and the sim's bulk-delivery engine
    holds whole timesteps of them in memory at once — ``__slots__``
    drops the per-instance dict and speeds field access on the hot
    scheduler path.  The weakref slot keeps them identity-memoizable.
    """

    path: Path
    sender: int
    recipient: int
    payload: Payload
    depth: int
    session: int = 0

    def __init__(
        self,
        path: Path,
        sender: int,
        recipient: int,
        payload: Payload,
        depth: int,
        session: int = 0,
    ) -> None:
        # Frozen, so the generated __init__ would store each field through
        # object.__setattr__; storing through the slot descriptors costs
        # half as much, and an op builds ~40 000 envelopes.
        _set_path(self, path)
        _set_sender(self, sender)
        _set_recipient(self, recipient)
        _set_payload(self, payload)
        _set_depth(self, depth)
        _set_session(self, session)

    def word_size(self) -> int:
        """Words on the wire: the payload plus one routing word."""
        return self.payload.word_size() + 1

    def describe(self) -> str:
        prefix = f"s{self.session}:" if self.session else ""
        return (
            f"{self.sender}->{self.recipient} "
            f"{prefix}{'/'.join(str(part) for part in self.path)} "
            f"{self.payload.type_name()}"
        )


_set_path, _set_sender, _set_recipient, _set_payload, _set_depth, _set_session = (
    Envelope.__dict__[name].__set__
    for name in ("path", "sender", "recipient", "payload", "depth", "session")
)
