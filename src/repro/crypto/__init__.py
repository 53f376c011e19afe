"""Cryptographic substrate for the ADKG reproduction.

Everything in this package is implemented from scratch on top of the
Python standard library:

* real (non-simulated) primitives: prime fields, Schnorr groups over safe
  primes, Schnorr signatures, Schnorr proofs of knowledge, Merkle-tree
  vector commitments, SCRAPE low-degree tests;
* one explicitly simulated primitive: :mod:`repro.crypto.pairing`, a
  generic-group bilinear map used by the aggregatable PVSS and threshold
  VRF (see DESIGN.md section 2 for why the substitution is behaviour
  preserving).
"""

from repro.crypto.params import GroupParams, PRESETS, get_params
from repro.crypto.field import PrimeField
from repro.crypto.group import SchnorrGroup
from repro.crypto.pairing import BilinearGroup, GroupElement
from repro.crypto.keys import PartySecret, PublicDirectory, TrustedSetup

__all__ = [
    "GroupParams",
    "PRESETS",
    "get_params",
    "PrimeField",
    "SchnorrGroup",
    "BilinearGroup",
    "GroupElement",
    "PartySecret",
    "PublicDirectory",
    "TrustedSetup",
]
