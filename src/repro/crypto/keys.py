"""PKI setup: per-party key material and the public directory.

The paper assumes only a PKI (Section 1): each party publishes a signing
public key and a PVSS encryption public key before the protocol starts.
:class:`TrustedSetup` generates that PKI deterministically from a seed —
it is *setup of keys only*, not a trusted dealer for any secret.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from repro.crypto.group import SchnorrGroup
from repro.crypto.pairing import BilinearGroup, GroupElement
from repro.crypto.params import GroupParams, get_params
from repro.crypto.schnorr import SigningKey, keygen
from repro.crypto.verify_cache import VerifyCache


@dataclass(frozen=True)
class PartySecret:
    """One party's private key material."""

    index: int
    sign: SigningKey
    enc_sk: int


@dataclass(frozen=True)
class PublicDirectory:
    """Everything public: group descriptions and all parties' public keys."""

    n: int
    f: int
    params: GroupParams
    sign_group: SchnorrGroup
    pair_group: BilinearGroup
    sign_pks: tuple[int, ...]
    enc_pks: tuple[GroupElement, ...]
    session: str
    #: Verification memo (see :mod:`repro.crypto.verify_cache`).  Every
    #: transport replaces it in its parties' copy of the directory, so
    #: verdicts never cross runs or key sets.
    verify_cache: VerifyCache = dc_field(
        default_factory=VerifyCache,
        compare=False,
        repr=False,
    )

    def __post_init__(self) -> None:
        if self.n < 1 or self.f < 0 or self.n < 3 * self.f + 1:
            raise ValueError(
                f"need n >= 1, f >= 0 and n >= 3f + 1, got n={self.n}, f={self.f}"
            )
        if len(self.sign_pks) != self.n or len(self.enc_pks) != self.n:
            raise ValueError("one public key per party required")

    @property
    def quorum(self) -> int:
        """``n - f``: the size of every waiting threshold in the paper."""
        return self.n - self.f

    def share_index(self, party: int) -> int:
        """The Shamir evaluation point used for ``party`` (1-based; 0 is the secret)."""
        if not 0 <= party < self.n:
            raise IndexError(f"party {party} out of range")
        return party + 1


class TrustedSetup:
    """Deterministic PKI generation for an ``n``-party system."""

    def __init__(self, directory: PublicDirectory, secrets: tuple[PartySecret, ...]):
        self.directory = directory
        self._secrets = secrets

    @classmethod
    def generate(
        cls,
        n: int,
        f: int | None = None,
        params: GroupParams | str = "TESTING",
        seed: int = 0,
    ) -> "TrustedSetup":
        """Generate key material for ``n`` parties tolerating ``f`` faults.

        ``f`` defaults to the optimum ``floor((n - 1) / 3)``.
        """
        if isinstance(params, str):
            params = get_params(params)
        if f is None:
            f = (n - 1) // 3
        session = "adkg-repro"
        rng = random.Random(("trusted-setup", params.name, n, f, seed, session).__repr__())
        sign_group = SchnorrGroup(params)
        pair_group = BilinearGroup(params.q, name=f"{params.name}-pair")
        secrets = []
        sign_pks = []
        enc_pks = []
        for index in range(n):
            signing = keygen(sign_group, rng)
            enc_sk = pair_group.rand_scalar(rng) or 1
            secrets.append(PartySecret(index=index, sign=signing, enc_sk=enc_sk))
            sign_pks.append(signing.pk)
            enc_pks.append(pair_group.exp(pair_group.g, enc_sk))
        directory = PublicDirectory(
            n=n,
            f=f,
            params=params,
            sign_group=sign_group,
            pair_group=pair_group,
            sign_pks=tuple(sign_pks),
            enc_pks=tuple(enc_pks),
            session=session,
        )
        return cls(directory, tuple(secrets))

    def secret(self, party: int) -> PartySecret:
        return self._secrets[party]

