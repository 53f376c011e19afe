"""A weak common coin from threshold-VRF shares (baseline building block).

Each ABA round draws one bit from the threshold VRF over a PVSS
transcript associated with the ABA instance (the dealer's own broadcast
sharing): parties exchange evaluation shares of ``φ(transcript, ⟨round⟩)``
and combine ``f+1`` of them.

The coin is *weak*: a party that never received the transcript cannot
verify or combine shares and falls back to a public hash bit, so parties
may disagree on a flip.  The ABA (:mod:`repro.baselines.aba`) decides
without reading the coin, so a split flip costs rounds, never agreement.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto import threshold_vrf as tvrf
from repro.crypto.hashing import hash_to_int
from repro.crypto.keys import PartySecret, PublicDirectory


class CoinHelper:
    """Share creation/verification/combination for one coin context.

    ``context`` is any encodable tag that makes coin flips domain-unique
    (the ABA instance path); ``transcript`` may arrive late via
    :meth:`attach_transcript`.
    """

    def __init__(
        self,
        directory: PublicDirectory,
        secret: PartySecret,
        context: Any,
        transcript: Optional[Any] = None,
    ) -> None:
        self.directory = directory
        self.secret = secret
        self.context = context
        self.transcript = transcript

    def attach_transcript(self, transcript: Any) -> None:
        if self.transcript is None:
            self.transcript = transcript

    # -- durability --------------------------------------------------------------------

    def snapshot(self) -> Any:
        """The helper's only mutable state: the (late-bound) transcript."""
        return self.transcript

    def restore(self, transcript: Any) -> None:
        """Rebind the transcript captured by :meth:`snapshot` (or ``None``)."""
        self.transcript = transcript

    def _message(self, round_no: int) -> tuple:
        return ("baseline-coin", self.context, round_no)

    def make_share(self, round_no: int) -> Optional[tvrf.EvalShare]:
        """This party's coin share, or ``None`` without a transcript."""
        if self.transcript is None:
            return None
        return tvrf.EvalSh(
            self.directory, self.secret, self.transcript, self._message(round_no)
        )

    def share_valid(self, sender: int, round_no: int, share: Any) -> bool:
        if self.transcript is None:
            return False
        return tvrf.EvalShVerify(
            self.directory, self.transcript, sender, self._message(round_no), share
        )

    def combine(self, round_no: int, shares: list) -> int:
        """Combine ≥ f+1 verified shares into the coin bit."""
        evaluation, _proof = tvrf.Eval(
            self.directory, self.transcript, self._message(round_no), shares
        )
        return tvrf.vrf_output(self.directory, evaluation) & 1

    def fallback_bit(self, round_no: int) -> int:
        """Public hash coin for parties without the transcript (weak mode)."""
        return hash_to_int("baseline-coin-fallback", 2, self.context, round_no)
