"""Proactive resharing: hand an existing group key to a new committee.

The ADKG's sharing lives entirely in the exponent: party ``i`` of an
(f, n) committee holds nothing but the *encrypted* share
``Ŝ_i = epk_i^{F(x_i)}`` (and could at most decrypt to ``g^{F(x_i)}``) —
no scalar share exists anywhere, matching the paper's remark that the
DKG needs no reconstruction algorithm.  Resharing therefore cannot
"PVSS the share value" directly; what an old share-holder *can* publish
is a randomization of its share that a new (f', n') committee can
verify and interpolate without any party ever seeing a scalar:

* **Dealing** (old party ``i``, share point ``x_i = i + 1``): pick a
  random degree-``f'`` polynomial ``δ_i`` with ``δ_i(0) = 0`` and
  publish

  - commitments ``B_{i,x} = A_{x_i} · g^{δ_i(x)} = g^{q_i(x)}`` for
    ``x = 0..n'`` where ``q_i(x) = F(x_i) + δ_i(x)`` — anchored by
    ``B_{i,0} == A_{x_i}``, the *public* commitment to ``i``'s old
    share, so ``q_i(0) = F(x_i)`` is forced;
  - encrypted share *deltas* ``D_{i,j} = epk'_j{}^{δ_i(j+1)}`` for each
    new party ``j`` (the dealer knows the ``δ_i`` scalars — they are its
    own randomness; the unknowable part ``F(x_i)`` stays in the anchor);
  - a Schnorr signature under ``i``'s *old* signing key binding the
    dealing to the handoff context.

* **Verification** is public: anchor check, SCRAPE low-degree test on
  the ``B`` vector, one RLC-batched pairing check
  ``e(g, D_{i,j}) == e(epk'_j, B_{i,j+1} · B_{i,0}^{-1})``, signature.

* **Agreement**: the new committee runs NWH (whose key/lock/commit
  certificates come from :mod:`repro.core.certificates`) on a *bundle*
  of ``t = f_old + 1`` full signed dealings from distinct old dealers.
  Agreeing on the bundle — not on anyone's locally interpolated result —
  keeps external validity checkable by every party and finalization a
  deterministic pure function of the agreed value.

* **Finalization**: with Lagrange weights ``λ_i`` at 0 over the old
  share points of the bundle's dealers, ``A'_x = Π B_{i,x}^{λ_i}`` and
  ``Δ_j = Π D_{i,j}^{λ_i}``.  The new sharing polynomial is
  ``F'(x) = Σ λ_i q_i(x)`` with ``F'(0) = Σ λ_i F(x_i) = F(0)``:
  **the group public key is unchanged** (``A'_0 == A_0``,
  byte-identical), the secret was never reconstructed, and the new
  shares ``F'(j+1)`` are statistically independent of the old ones away
  from 0 — old shares are useless against the new epoch.

A new party evaluates the threshold VRF from a reshared transcript via
``e(H(m), Δ_j)^{1/esk'_j} · e(H(m), A'_0) = e(H(m), g)^{F'(j+1)}`` —
see :func:`repro.crypto.threshold_vrf.EvalSh`, which dispatches on the
transcript kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.crypto import schnorr
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import PartySecret, PublicDirectory
from repro.crypto.pairing import BilinearGroup, GroupElement
from repro.crypto.polynomial import (
    lagrange_coefficients,
    random_polynomial,
    scrape_coefficients,
)
from repro.crypto.verify_cache import content_digest

__all__ = [
    "HandoffSpec",
    "ReshareBundle",
    "ReshareDealing",
    "ReshareTranscript",
    "deal_reshare",
    "finalize",
    "verify_bundle",
    "verify_dealing",
    "verify_reshared",
]


@dataclass(frozen=True)
class HandoffSpec:
    """The public context of one handoff: who the old committee was.

    Everything a new-committee party needs to verify a dealing against
    the *previous* epoch: the old session label (domain separation), the
    old committee's signing keys, and the old transcript's commitment
    vector (``old_commitments[0]`` is the invariant group key,
    ``old_commitments[i+1]`` anchors old party ``i``'s share).
    """

    epoch: int
    old_session: str
    old_n: int
    old_f: int
    old_sign_pks: tuple[int, ...]
    old_commitments: tuple[GroupElement, ...]

    def word_size(self) -> int:
        return len(self.old_commitments) + 1

    @property
    def threshold(self) -> int:
        """``f_old + 1`` dealings reconstruct the sharing in the exponent."""
        return self.old_f + 1

    @property
    def group_key(self) -> GroupElement:
        return self.old_commitments[0]

    def well_formed(self) -> bool:
        return (
            self.old_n >= 1
            and 0 <= self.old_f
            and self.old_n >= 3 * self.old_f + 1
            and len(self.old_sign_pks) == self.old_n
            and len(self.old_commitments) == self.old_n + 1
        )


@dataclass(frozen=True)
class ReshareDealing:
    """One old share-holder's re-dealing of its share to the new committee."""

    dealer: int
    commitments: tuple[GroupElement, ...]
    cipher_deltas: tuple[GroupElement, ...]
    signature: schnorr.Signature

    def word_size(self) -> int:
        return len(self.commitments) + len(self.cipher_deltas) + 1


@dataclass(frozen=True)
class ReshareBundle:
    """The NWH agreement value: ≥ f_old + 1 signed dealings, one context."""

    spec: HandoffSpec
    dealings: tuple[ReshareDealing, ...]

    def word_size(self) -> int:
        return self.spec.word_size() + sum(d.word_size() for d in self.dealings)

    @property
    def dealers(self) -> frozenset[int]:
        return frozenset(dealing.dealer for dealing in self.dealings)


@dataclass(frozen=True)
class ReshareTranscript:
    """A finalized handoff: the old key re-shared to the new committee.

    Interface-compatible with :class:`~repro.crypto.pvss.PVSSTranscript`
    where the service stack cares (``public_key``, ``share_commitment``)
    so epochs chain: a reshared epoch can itself be the "old" sharing of
    the next handoff.
    """

    spec: HandoffSpec
    commitments: tuple[GroupElement, ...]
    cipher_deltas: tuple[GroupElement, ...]
    dealers: tuple[int, ...]

    def word_size(self) -> int:
        return (
            self.spec.word_size()
            + len(self.commitments)
            + len(self.cipher_deltas)
            + 1
        )

    @property
    def public_key(self) -> GroupElement:
        """``g^{F'(0)} = g^{F(0)}`` — byte-identical to the old key."""
        return self.commitments[0]

    def share_commitment(self, party: int) -> GroupElement:
        """``g^{F'(party+1)}`` — the new committee's share commitments."""
        return self.commitments[party + 1]


def _dealing_context(
    directory: PublicDirectory, spec: HandoffSpec, dealing_body: tuple
) -> tuple:
    """The signed context: old and new sessions plus the dealing content."""
    return (
        "reshare-dealing",
        spec.old_session,
        directory.session,
        spec.epoch,
    ) + dealing_body


def _dealing_body(
    group: BilinearGroup,
    dealer: int,
    commitments: Sequence[GroupElement],
    cipher_deltas: Sequence[GroupElement],
) -> tuple:
    """What a dealer signs of its dealing, and every verifier rebuilds."""
    return (
        dealer,
        tuple(group.encode_element(b) for b in commitments),
        tuple(group.encode_element(d) for d in cipher_deltas),
    )


def deal_reshare(
    directory: PublicDirectory,
    spec: HandoffSpec,
    dealer: PartySecret,
    rng: random.Random,
) -> ReshareDealing:
    """Old party ``dealer.index``'s dealing to the committee of ``directory``.

    ``dealer`` is the *old* committee's key material (its index is the
    old local index; its signing key matches ``spec.old_sign_pks``).
    ``directory`` is the *new* epoch's directory — its size, encryption
    keys and session label shape the dealing.
    """
    group = directory.pair_group
    field = group.scalar_field
    anchor = spec.old_commitments[dealer.index + 1]
    # δ(0) = 0: the dealing shifts the share polynomial without moving
    # the dealer's anchored value q(0) = F(x_i).
    delta = random_polynomial(field, directory.f, rng, secret=0)
    evaluations = delta.evaluate_many(range(directory.n + 1))
    commitments = tuple(
        group.mul(anchor, power)
        for power in group.exp_many((group.g,) * len(evaluations), evaluations)
    )
    cipher_deltas = group.exp_many(directory.enc_pks, evaluations[1:])
    body = _dealing_body(group, dealer.index, commitments, cipher_deltas)
    signature = schnorr.sign(
        directory.sign_group,
        dealer.sign,
        *_dealing_context(directory, spec, body),
    )
    return ReshareDealing(
        dealer=dealer.index,
        commitments=commitments,
        cipher_deltas=cipher_deltas,
        signature=signature,
    )


def verify_dealing(
    directory: PublicDirectory, spec: HandoffSpec, dealing: ReshareDealing
) -> bool:
    """Publicly verify one reshare dealing (memoized, content-addressed)."""
    if not isinstance(dealing, ReshareDealing) or not isinstance(spec, HandoffSpec):
        return False
    return directory.verify_cache.identity_memoize(
        "reshare-dealing",
        dealing,
        (spec,),
        (dealing, spec),
        lambda: _verify_dealing(directory, spec, dealing),
    )


def _verify_dealing(
    directory: PublicDirectory, spec: HandoffSpec, dealing: ReshareDealing
) -> bool:
    group = directory.pair_group
    n = directory.n
    if not spec.well_formed():
        return False
    if not 0 <= dealing.dealer < spec.old_n:
        return False
    if len(dealing.commitments) != n + 1 or len(dealing.cipher_deltas) != n:
        return False
    if not all(group.is_element(b) for b in dealing.commitments):
        return False
    if not all(group.is_element(d) for d in dealing.cipher_deltas):
        return False
    # The anchor: q(0) must be the dealer's *old committed share* — this
    # is what makes a dealing a resharing of F rather than of anything
    # the dealer invented.
    if dealing.commitments[0] != spec.old_commitments[dealing.dealer + 1]:
        return False
    sig_ok = schnorr.verify(
        directory.sign_group,
        spec.old_sign_pks[dealing.dealer],
        dealing.signature,
        *_dealing_context(
            directory,
            spec,
            _dealing_body(
                group, dealing.dealer, dealing.commitments, dealing.cipher_deltas
            ),
        ),
    )
    if not sig_ok:
        return False
    return _verify_resharing(
        directory, dealing, dealing.commitments, dealing.cipher_deltas
    )


def _verify_resharing(
    directory: PublicDirectory,
    statement: Any,
    commitments: Sequence[GroupElement],
    cipher_deltas: Sequence[GroupElement],
) -> bool:
    """SCRAPE + RLC pairing checks shared by dealings and transcripts.

    ``cipher_deltas[j]`` must encrypt ``q(j+1) - q(0)`` under ``epk'_j``
    where ``q`` is the degree ≤ f' polynomial committed by
    ``commitments``: ``e(g, D_j) == e(epk'_j, B_{j+1} · B_0^{-1})``,
    batched with Fiat-Shamir 128-bit weights exactly as in
    :func:`repro.crypto.pvss._verify_sharing` — seeded, as there, by the
    hash of the wire bytes of the whole ``statement`` (the dealing or
    transcript under check); one the codec cannot encode is rejected.
    """
    group = directory.pair_group
    field = group.scalar_field
    n = directory.n
    statement_digest = content_digest(statement)
    if statement_digest is None:
        return False
    seed = hash_bytes("reshare-scrape", directory.session, statement_digest)
    duals = scrape_coefficients(
        field, list(range(n + 1)), directory.f, random.Random(seed)
    )
    check = group.multi_exp(commitments, duals)
    if check != group.identity(commitments[0].kind):
        return False
    rlc_seed = hash_bytes("reshare-rlc", directory.session, statement_digest)
    rlc = random.Random(rlc_seed)
    weights = [rlc.randrange(1, 1 << 128) for _ in range(n)]
    anchor_inv = group.inv(commitments[0])
    lhs = group.pair(group.g, group.multi_exp(cipher_deltas, weights))
    rhs = group.multi_pair(
        zip(
            group.exp_many(directory.enc_pks, weights),
            (group.mul(commitment, anchor_inv) for commitment in commitments[1:]),
        )
    )
    return lhs == rhs


def verify_bundle(
    directory: PublicDirectory,
    bundle: Any,
    expected: Optional[HandoffSpec] = None,
) -> bool:
    """NWH's external-validity predicate for a handoff.

    A valid bundle carries ``≥ f_old + 1`` verifying dealings from
    distinct old dealers under one handoff spec; when ``expected`` is
    given the bundle's spec must be exactly the locally known one (a
    proposer cannot substitute a fabricated "old committee").
    """
    if not isinstance(bundle, ReshareBundle):
        return False
    if expected is not None and bundle.spec != expected:
        return False
    return directory.verify_cache.identity_memoize(
        "reshare-bundle",
        bundle,
        (),
        (bundle,),
        lambda: _verify_bundle(directory, bundle),
    )


def _verify_bundle(directory: PublicDirectory, bundle: ReshareBundle) -> bool:
    spec = bundle.spec
    if not spec.well_formed():
        return False
    dealers = [dealing.dealer for dealing in bundle.dealings]
    if len(set(dealers)) != len(dealers):
        return False
    if len(dealers) < spec.threshold:
        return False
    return all(
        verify_dealing(directory, spec, dealing) for dealing in bundle.dealings
    )


def finalize(directory: PublicDirectory, bundle: ReshareBundle) -> ReshareTranscript:
    """Interpolate an agreed bundle into the new epoch's transcript.

    Deterministic in the bundle alone, so every new-committee party
    derives byte-identical transcripts from the NWH output — agreement
    on the bundle *is* agreement on the new sharing.
    """
    spec = bundle.spec
    group = directory.pair_group
    field = group.scalar_field
    dealings = sorted(bundle.dealings, key=lambda dealing: dealing.dealer)
    xs = [dealing.dealer + 1 for dealing in dealings]
    lambdas = lagrange_coefficients(field, xs, at=0)
    width = directory.n + 1
    commitments = tuple(
        group.multi_exp([dealing.commitments[x] for dealing in dealings], lambdas)
        for x in range(width)
    )
    cipher_deltas = tuple(
        group.multi_exp([dealing.cipher_deltas[j] for dealing in dealings], lambdas)
        for j in range(directory.n)
    )
    return ReshareTranscript(
        spec=spec,
        commitments=commitments,
        cipher_deltas=cipher_deltas,
        dealers=tuple(dealing.dealer for dealing in dealings),
    )


def verify_reshared(
    directory: PublicDirectory,
    transcript: Any,
    expected: Optional[HandoffSpec] = None,
) -> bool:
    """Publicly verify a finalized reshared transcript.

    Checks the invariant key (``commitments[0]`` equals the spec's old
    group key), the low-degree bound of the new sharing, and the
    pairing-consistency of every encrypted delta.  ``expected`` pins the
    handoff spec where the caller knows it (beacon verification does).
    """
    if not isinstance(transcript, ReshareTranscript):
        return False
    if expected is not None and transcript.spec != expected:
        return False
    return directory.verify_cache.identity_memoize(
        "reshare-transcript",
        transcript,
        (),
        (transcript,),
        lambda: _verify_reshared(directory, transcript),
    )


def _verify_reshared(
    directory: PublicDirectory, transcript: ReshareTranscript
) -> bool:
    group = directory.pair_group
    spec = transcript.spec
    n = directory.n
    if not spec.well_formed():
        return False
    dealers = list(transcript.dealers)
    if len(set(dealers)) != len(dealers) or len(dealers) < spec.threshold:
        return False
    if any(not 0 <= dealer < spec.old_n for dealer in dealers):
        return False
    if len(transcript.commitments) != n + 1:
        return False
    if len(transcript.cipher_deltas) != n:
        return False
    if not all(group.is_element(b) for b in transcript.commitments):
        return False
    if not all(group.is_element(d) for d in transcript.cipher_deltas):
        return False
    # Key invariance: the whole point of the handoff.
    if transcript.commitments[0] != spec.group_key:
        return False
    return _verify_resharing(
        directory, transcript, transcript.commitments, transcript.cipher_deltas
    )
