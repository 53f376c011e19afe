"""Cachin-Tessaro erasure-coded reliable broadcast (Appendix A, Theorem 6).

The dealer Reed-Solomon-encodes its serialized value into ``n`` fragments
(reconstruction threshold ``k = f+1``), commits to the fragment vector
with a vector commitment (Merkle tree by default; Section 7.1's
constant-size-opening alternative is available as ``vc_kind="kzg"``), and sends each party its fragment plus opening proof.
Parties echo *their own* fragment to everyone; a party that collects
``n-f`` proof-valid fragments for a root decodes, **re-encodes and
re-commits** to check the root (this is what forces agreement: a root
either commits a codeword — in which case every subset decodes the same
value — or nobody ever validates it), then votes ``ready``.  ``f+1``
readies amplify; ``2f+1`` readies plus a successful decode deliver.

Word complexity per Theorem 6: ``O(n²·(c + p) + m·n)`` with ``c`` the
commitment size (1 word) and ``p`` the opening proof size (``log n``
words).  Fragment word sizes are accounted logically (``ceil(m/(f+1))``
words) while the payload carries the real fragment bytes.  The value is
serialized with the registry byte codec (:mod:`repro.net.codec`), whose
strict decoder never constructs attacker-chosen objects: bytes a faulty
dealer disperses that do not decode mean "dealer faulty".

With a ``validate`` predicate this is the paper's Validated Reliable
Broadcast: ``ready`` votes and delivery are gated on external validity of
the decoded value.

Instances keep processing after output, with two exceptions that change
nothing any party sends or outputs.  An ECHO for a root already decoded
or marked bad is dropped before its fragment is checked: decoding, the
READY and output hang on the root's readies, never on more fragments.
And an instance that has output, echoed and sent READY retires
(``Protocol._retired``), so the party drops its later deliveries
unhandled: with all three done it can neither send nor output again.
What neither path reads again is released: a root's fragments once it
decodes or goes bad, and the readies once the instance retires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.broadcast import erasure
from repro.crypto.vector_commitment import make_scheme
from repro.net import codec
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol

Validator = Callable[[Any], bool]


def _fragment_words(claim_words: int, k: int) -> int:
    return max(1, -(-claim_words // k))


@dataclass(frozen=True)
class CTVal(Payload):
    """Dealer → party j: j's fragment with its commitment opening."""

    root: Any
    fragment: bytes
    proof: Any
    claim_words: int
    k: int

    def word_size(self) -> int:
        return 1 + _fragment_words(self.claim_words, self.k) + self.proof.word_size()


@dataclass(frozen=True)
class CTEcho(Payload):
    """Party j → all: j's own fragment."""

    root: Any
    fragment: bytes
    proof: Any
    claim_words: int
    k: int

    def word_size(self) -> int:
        return 1 + _fragment_words(self.claim_words, self.k) + self.proof.word_size()


@dataclass(frozen=True)
class CTReady(Payload):
    root: Any

    def word_size(self) -> int:
        return 1


class CTBroadcast(Protocol):
    """One erasure-coded reliable broadcast instance with a designated dealer."""

    #: Declared mutable state: per-root fragment/ready/decode bookkeeping.
    #: The lazily built vector-commitment backend (``_vc``) is derived
    #: configuration, not state — a restored instance rebuilds it on use.
    STATE_FIELDS = (
        "_echoed",
        "_ready_sent",
        "_fragments",
        "_readies",
        "_decoded",
        "_bad_roots",
    )

    def __init__(
        self,
        dealer: int,
        value: Any = None,
        validate: Optional[Validator] = None,
        vc_kind: str = "merkle",
    ) -> None:
        super().__init__()
        self.dealer = dealer
        self.value = value
        self.validate = validate or (lambda _value: True)
        self.vc_kind = vc_kind
        self._vc = None
        self._cache = None
        self._echoed = False
        self._ready_sent = False
        self._fragments: dict[bytes, dict[int, bytes]] = {}
        self._readies: dict[bytes, set[int]] = {}
        self._decoded: dict[bytes, Any] = {}
        self._bad_roots: set[bytes] = set()

    def _bind_backend(self) -> None:
        """Bind the vector-commitment backend (Merkle by default; E10 swaps
        KZG in) and the directory's verify cache as plain attributes, once
        per instance: in the dealer's ``on_start``, else on the first
        message after install or restore.  The echo and ready handlers run
        n times per broadcast at every party and read both on each call."""
        directory = self.directory
        self._vc = make_scheme(self.vc_kind, directory)
        self._cache = directory.verify_cache

    def on_start(self) -> None:
        if self.me == self.dealer:
            if self.value is None:
                raise ValueError("dealer must provide a value")
            self._bind_backend()
            data = codec.encode(self.value)
            fragments = erasure.rs_encode(data, self.f + 1, self.n)
            commitment, proofs = self._vc.commit(fragments)
            claim = max(1, words_of(self.value))
            for j in range(self.n):
                self.send(
                    j,
                    CTVal(
                        root=commitment,
                        fragment=fragments[j],
                        proof=proofs[j],
                        claim_words=claim,
                        k=self.f + 1,
                    ),
                )

    def on_message(self, sender: int, payload: Payload) -> None:
        if self._vc is None:
            self._bind_backend()
        # Echoes and readies are 2n of the 2n + 1 messages an instance gets.
        if isinstance(payload, CTEcho):
            self._on_echo(sender, payload)
        elif isinstance(payload, CTReady):
            self._on_ready(sender, payload)
        elif isinstance(payload, CTVal):
            self._on_val(sender, payload)

    # -- handlers ----------------------------------------------------------------------

    def _on_val(self, sender: int, payload: CTVal) -> None:
        if sender != self.dealer or self._echoed:
            return
        vc = self._vc
        if payload.k != self.f + 1 or not vc.is_commitment(payload.root):
            return
        ok = vc.verify(payload.root, payload.fragment, self.me, payload.proof, self.n)
        if not ok:
            return
        self._echoed = True
        self.multicast(
            CTEcho(
                root=payload.root,
                fragment=payload.fragment,
                proof=payload.proof,
                claim_words=payload.claim_words,
                k=payload.k,
            )
        )
        if self._output_done:  # it output before this VAL arrived
            self._retire()

    def _on_echo(self, sender: int, payload: CTEcho) -> None:
        if payload.k != self.f + 1 or not self._vc.is_commitment(payload.root):
            return
        if payload.root in self._decoded or payload.root in self._bad_roots:
            return  # nothing left for a fragment of this root to do
        if not self._fragment_valid(sender, payload):
            return
        slot = self._fragments.setdefault(payload.root, {})
        if sender in slot:
            return
        slot[sender] = payload.fragment
        self._progress(payload.root)

    def _fragment_valid(self, sender: int, payload: CTEcho) -> bool:
        """Proof-check ``sender``'s echoed fragment, amortized.

        The same (root, fragment, proof) triple is verified by every one
        of the n-1 echo recipients, so the verdict is content-memoized in
        the directory's verify cache — O(distinct fragments) openings per
        run instead of O(n · echoes).  Sound under Byzantine inputs for
        the usual reason: the key is the canonical encoding of everything
        the verdict depends on (including the claimed sender index), so a
        mutated fragment or a replayed proof under a different index
        misses the cache and is verified for real.
        """
        return self._cache.identity_memoize(
            "ctrbc-frag",
            payload,
            (sender, self.n, self.vc_kind),
            (payload.root, payload.fragment, sender, payload.proof,
             self.n, self.vc_kind),
            lambda: self._vc.verify(
                payload.root, payload.fragment, sender, payload.proof, self.n
            ),
        )

    def _on_ready(self, sender: int, payload: CTReady) -> None:
        if not self._vc.is_commitment(payload.root):
            return
        self._readies.setdefault(payload.root, set()).add(sender)
        self._progress(payload.root)

    # -- state machine -------------------------------------------------------------------

    def _progress(self, root: bytes) -> None:
        if root in self._bad_roots:
            return
        fragments = self._fragments.get(root, {})
        readies = self._readies.get(root, ())
        k = self.f + 1
        decodable = len(fragments) >= self.quorum or (
            len(readies) >= k and len(fragments) >= k
        )
        if root not in self._decoded and decodable:
            self._try_decode(root)
        value_ready = root in self._decoded
        if not self._ready_sent and (value_ready or len(readies) >= k):
            # Ready on own decode-and-validate, or amplify f+1 readies
            # (at least one honest party already vouched for the root).
            self._ready_sent = True
            self.multicast(CTReady(root))
        if value_ready and len(readies) >= 2 * self.f + 1:
            self.output(self._decoded[root])
            # Output implies READY sent; without the echo the VAL still
            # has work to do when it arrives.
            if self._echoed:
                self._retire()

    def _retire(self) -> None:
        """Output, echo and READY are done: ``Party.deliver`` drops every
        later delivery, so no handler reads the readies again."""
        self._retired = True
        self._readies = {}

    def rearm(self) -> None:
        """No conditions; re-derive retirement from the restored state."""
        self._retired = self._output_done and self._echoed and self._ready_sent

    def _try_decode(self, root: bytes) -> None:
        # The decoded value is a function of the root alone: every
        # fragment in ``_fragments`` carries a proof-valid opening, so it
        # *is* a leaf of the vector the root commits — if any k-subset
        # decodes to data whose re-encoding recommits to the root, the
        # leaves form a codeword and every other subset decodes the same
        # data; if not, no subset can pass the recommit check.  The whole
        # decode→recommit→deserialize pipeline is therefore memoized per
        # (root, k, n, scheme) in the directory cache: one RS decode and
        # one commitment rebuild per distinct root per run, instead of
        # one per party.  ``None`` (root commits no codeword / garbage
        # bytes) is cached too.  External validity stays per instance —
        # two broadcasts may validate the same value differently.
        value = self._cache.memoize(
            "ctrbc-decode",
            (root, self.f + 1, self.n, self.vc_kind),
            lambda: self._decode_codeword(root),
        )
        # Decoded or bad, the root's fragments have no reader left:
        # ``_on_echo`` drops its echoes and ``_progress`` skips the decode.
        del self._fragments[root]
        if value is None or not self._try_validate(value):
            self._bad_roots.add(root)
            return
        self._decoded[root] = value

    def _decode_codeword(self, root: bytes) -> Any:
        """Decode the root's codeword from this party's fragments.

        Returns the deserialized value, or ``None`` when the fragments do
        not decode / the root does not commit the re-encoded codeword /
        the bytes are malformed.
        """
        fragments = self._fragments.get(root, {})
        try:
            data = erasure.rs_decode(fragments, self.f + 1)
        except ValueError:
            return None
        # Re-encode and re-commit: the root must commit exactly this
        # codeword (kept as its own memoized domain so the E10 ablation
        # counters stay comparable).
        if not self._cache.memoize(
            "ctrbc-root",
            (data, root, self.f + 1, self.n, self.vc_kind),
            lambda: self._recommit_matches(data, root),
        ):
            return None
        codec.encode_stats["wire.decode.calls"] += 1
        try:
            return codec.decode(data)
        except codec.CodecError:
            return None

    def _recommit_matches(self, data: bytes, root: Any) -> bool:
        check_fragments = erasure.rs_encode(data, self.f + 1, self.n)
        return self._vc.commitment_only(check_fragments) == root

    def _try_validate(self, value: Any) -> bool:
        try:
            return bool(self.validate(value))
        except Exception:
            return False
