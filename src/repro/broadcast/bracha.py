"""Bracha's reliable broadcast [11, 12] with optional external validity.

The simple ``O(n²·m)``-word protocol: the dealer sends its value, parties
echo it, and two rounds of amplified ``ready`` votes pin it down.  The
paper uses the erasure-coded variant (:mod:`repro.broadcast.ct_rbc`) for
its complexity results; Bracha is kept as the ablation baseline (E9) and
as the reference implementation the CT variant's tests compare against.

Properties (Section 2.2): Validity, Agreement, Termination; with a
``validate`` predicate also External Validity (only valid values are
echoed, readied or output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.crypto.hashing import hash_bytes
from repro.crypto.verify_cache import content_encoding
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol

Validator = Callable[[Any], bool]


@dataclass(frozen=True)
class BrachaVal(Payload):
    value: Any

    def word_size(self) -> int:
        return max(1, words_of(self.value))


@dataclass(frozen=True)
class BrachaEcho(Payload):
    value: Any

    def word_size(self) -> int:
        return max(1, words_of(self.value))


@dataclass(frozen=True)
class BrachaReady(Payload):
    value: Any

    def word_size(self) -> int:
        return max(1, words_of(self.value))


class BrachaBroadcast(Protocol):
    """One broadcast instance with a designated ``dealer``.

    The dealer's instance takes the ``value`` to broadcast; everyone
    else passes ``None``.  The instance outputs the delivered value.
    """

    #: Declared mutable state — plain dicts/sets of encodable values, so
    #: an instance snapshot/restores without pickle (DESIGN.md section 9).
    STATE_FIELDS = ("_echoed", "_ready_sent", "_echoes", "_readies", "_values")

    def __init__(
        self,
        dealer: int,
        value: Any = None,
        validate: Optional[Validator] = None,
    ) -> None:
        super().__init__()
        self.dealer = dealer
        self.value = value
        self.validate = validate or (lambda _value: True)
        self._echoed = False
        self._ready_sent = False
        self._echoes: dict[bytes, set[int]] = {}
        self._readies: dict[bytes, set[int]] = {}
        self._values: dict[bytes, Any] = {}

    def on_start(self) -> None:
        if self.me == self.dealer:
            if self.value is None:
                raise ValueError("dealer must provide a value")
            self.multicast(BrachaVal(self.value))

    def on_message(self, sender: int, payload: Payload) -> None:
        if isinstance(payload, BrachaVal):
            self._on_val(sender, payload.value)
        elif isinstance(payload, BrachaEcho):
            self._on_vote(sender, payload.value, self._echoes)
        elif isinstance(payload, BrachaReady):
            self._on_vote(sender, payload.value, self._readies)

    # -- handlers -------------------------------------------------------------------

    def _on_val(self, sender: int, value: Any) -> None:
        if sender != self.dealer or self._echoed:
            return
        if not self._try_validate(value):
            return
        self._echoed = True
        self.multicast(BrachaEcho(value))

    def _on_vote(self, sender: int, value: Any, box: dict[bytes, set[int]]) -> None:
        encoded = content_encoding(value)
        if encoded is None:
            return  # unencodable garbage from a Byzantine sender
        digest = hash_bytes("bracha-value", encoded)
        box.setdefault(digest, set()).add(sender)
        self._values.setdefault(digest, value)
        self._progress(digest)

    def _progress(self, digest: bytes) -> None:
        value = self._values[digest]
        echoes = len(self._echoes.get(digest, ()))
        readies = len(self._readies.get(digest, ()))
        if not self._ready_sent and (
            echoes >= self.quorum or readies >= self.f + 1
        ):
            if self._try_validate(value):
                self._ready_sent = True
                self.multicast(BrachaReady(value))
        if readies >= 2 * self.f + 1 and self._try_validate(value):
            self.output(value)

    # -- helpers --------------------------------------------------------------------

    def _try_validate(self, value: Any) -> bool:
        try:
            return bool(self.validate(value))
        except Exception:
            return False
