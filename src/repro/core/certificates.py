"""Key / lock / commit certificates for NWH (Algorithms 11-13, Definition 3).

A certificate is ``n - f`` signed votes on ``(kind, H(value), view)``.
Values can be large (an aggregated PVSS transcript is O(n) words), so
votes sign the canonical digest of the value — SHA-256 over its wire
encoding, see :func:`value_digest` — and the certificate travels with
the value itself; the checker re-derives the digest.  The digest's
preimage is the wire format, so a committee runs one codec version.

Per the paper, keys and locks from before the first view (``view == 0``)
are vacuously correct, and ``keyCorrect`` additionally demands external
validity of the value (Algorithm 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto import schnorr
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import PartySecret, PublicDirectory
from repro.crypto.verify_cache import content_encoding
from repro.core.validity import Validator, safe_validate

KIND_ECHO = "echo"
KIND_KEY = "key"
KIND_LOCK = "lock"

_CHAIN = {KIND_ECHO: KIND_ECHO, KIND_KEY: KIND_ECHO, KIND_LOCK: KIND_KEY}


@dataclass(frozen=True)
class SignedVote:
    """One party's signature on ``(kind, H(value), view)``."""

    signer: int
    signature: schnorr.Signature

    def word_size(self) -> int:
        return 1


Certificate = tuple  # tuple[SignedVote, ...]


def value_digest(value: Any) -> bytes:
    """Canonical digest of an agreement value (possibly large).

    ``H(codec bytes)``: the value's one canonical :mod:`repro.net.codec`
    encoding, which an aggregate keeps from its first walk or from the
    frame it was decoded out of — so the vote a sender signs over its own
    object checks at a receiver that only ever held the decoded copy, for
    one hash and no walk.  A value the codec cannot encode never crosses a
    wire; it is named by its ``repr`` under a separate domain.
    """
    encoded = content_encoding(value)
    if encoded is None:
        return hash_bytes("nwh-value-opaque", repr(value))
    return hash_bytes("nwh-value", encoded)


def make_vote(
    directory: PublicDirectory,
    secret: PartySecret,
    kind: str,
    value: Any,
    view: int,
) -> SignedVote:
    """Sign ``(kind, H(value), view)`` — the paper's σ on ⟨kind, v, view⟩."""
    signature = schnorr.sign(
        directory.sign_group,
        secret.sign,
        "nwh-vote",
        directory.session,
        kind,
        value_digest(value),
        view,
    )
    return SignedVote(signer=secret.index, signature=signature)


def vote_valid(
    directory: PublicDirectory,
    vote: Any,
    kind: str,
    value: Any,
    view: int,
) -> bool:
    """One vote's signature check, memoized per ``(vote, kind, digest, view)``.

    The value enters the key only through its canonical digest — exactly
    what the signature covers — so votes forwarded inside many
    certificates are verified once per distinct vote.
    """
    if not isinstance(vote, SignedVote):
        return False
    if not 0 <= vote.signer < directory.n:
        return False
    digest = value_digest(value)

    def check() -> bool:
        return schnorr.verify(
            directory.sign_group,
            directory.sign_pks[vote.signer],
            vote.signature,
            "nwh-vote",
            directory.session,
            kind,
            digest,
            view,
        )

    return directory.verify_cache.identity_memoize(
        "cert-vote", vote, (kind, digest, view), (vote, kind, digest, view), check
    )


def certificate_valid(
    directory: PublicDirectory,
    proof: Any,
    kind: str,
    value: Any,
    view: int,
) -> bool:
    """``n - f`` distinct valid votes on ``(kind, H(value), view)``.

    Memoized per distinct certificate: NWH re-checks the same echo/key/
    lock certificates inside every message that forwards them.
    """
    if not isinstance(proof, tuple):
        return False

    def check() -> bool:
        signers = set()
        for vote in proof:
            if not vote_valid(directory, vote, kind, value, view):
                return False
            signers.add(vote.signer)
        return len(signers) >= directory.quorum

    return directory.verify_cache.memoize(
        "cert", (proof, kind, value_digest(value), view), check
    )


def key_correct(
    directory: PublicDirectory,
    validate: Validator,
    view: int,
    value: Any,
    proof: Any,
) -> bool:
    """Algorithm 11: external validity + echo-certificate (or view 0)."""
    if not safe_validate(validate, value):
        return False
    if not isinstance(view, int) or view < 0:
        return False
    if view == 0:
        return True
    return certificate_valid(directory, proof, KIND_ECHO, value, view)


def lock_correct(
    directory: PublicDirectory,
    view: int,
    value: Any,
    proof: Any,
) -> bool:
    """Algorithm 12: key-certificate (or view 0)."""
    if not isinstance(view, int) or view < 0:
        return False
    if view == 0:
        return True
    return certificate_valid(directory, proof, KIND_KEY, value, view)


def commit_correct(
    directory: PublicDirectory,
    view: int,
    value: Any,
    proof: Any,
) -> bool:
    """Algorithm 13: lock-certificate (no view-0 escape hatch)."""
    if not isinstance(view, int) or view < 1:
        return False
    return certificate_valid(directory, proof, KIND_LOCK, value, view)


@dataclass(frozen=True)
class KeyTuple:
    """The (key, key_val, key_proof) triple NWH feeds into PE.

    ``view == 0`` means "no key yet" — ``value`` is then the party's own
    input and ``proof`` is ``None`` (the paper's ``(0, x_i, ⊥)``).
    """

    view: int
    value: Any
    proof: Optional[Certificate]

    def word_size(self) -> int:
        from repro.net.payload import words_of

        proof_words = words_of(self.proof) if self.proof else 0
        return 1 + max(1, words_of(self.value)) + proof_words


def key_tuple_correct(
    directory: PublicDirectory, validate: Validator, candidate: Any
) -> bool:
    """External-validity predicate over :class:`KeyTuple` values."""
    if not isinstance(candidate, KeyTuple):
        return False
    return key_correct(
        directory, validate, candidate.view, candidate.value, candidate.proof
    )

