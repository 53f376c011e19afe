"""Schnorr signatures: correctness and rejection paths."""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto import schnorr
from repro.crypto.hashing import hash_to_int
from repro.crypto.group import SchnorrGroup
from repro.crypto.params import get_params

GROUP = SchnorrGroup(get_params("TESTING"))


def _key(seed=1):
    return schnorr.keygen(GROUP, random.Random(seed))


def test_sign_verify_roundtrip():
    key = _key()
    sig = schnorr.sign(GROUP, key, "hello", 42)
    assert schnorr.verify(GROUP, key.pk, sig, "hello", 42)


def test_verify_rejects_wrong_message():
    key = _key()
    sig = schnorr.sign(GROUP, key, "hello", 42)
    assert not schnorr.verify(GROUP, key.pk, sig, "hello", 43)
    assert not schnorr.verify(GROUP, key.pk, sig, "hellx", 42)
    assert not schnorr.verify(GROUP, key.pk, sig)


def test_verify_rejects_wrong_key():
    key, other = _key(1), _key(2)
    sig = schnorr.sign(GROUP, key, "msg")
    assert not schnorr.verify(GROUP, other.pk, sig, "msg")


def test_verify_rejects_mangled_signature():
    key = _key()
    sig = schnorr.sign(GROUP, key, "msg")
    bad_c = schnorr.Signature(c=(sig.c + 1) % GROUP.q, s=sig.s)
    bad_s = schnorr.Signature(c=sig.c, s=(sig.s + 1) % GROUP.q)
    assert not schnorr.verify(GROUP, key.pk, bad_c, "msg")
    assert not schnorr.verify(GROUP, key.pk, bad_s, "msg")


def test_verify_rejects_out_of_range_and_junk():
    key = _key()
    sig = schnorr.sign(GROUP, key, "msg")
    assert not schnorr.verify(GROUP, key.pk, "not-a-signature", "msg")
    assert not schnorr.verify(
        GROUP, key.pk, schnorr.Signature(c=GROUP.q, s=sig.s), "msg"
    )
    assert not schnorr.verify(GROUP, 0, sig, "msg")


def test_signatures_are_deterministic():
    key = _key()
    assert schnorr.sign(GROUP, key, "m") == schnorr.sign(GROUP, key, "m")


def test_message_encoding_is_structural_not_concatenated():
    key = _key()
    sig = schnorr.sign(GROUP, key, "ab", "c")
    assert not schnorr.verify(GROUP, key.pk, sig, "a", "bc")


def test_word_size():
    key = _key()
    assert schnorr.sign(GROUP, key, "m").word_size() == 1


def _four_modexp_verify(group, pk, signature, *message):
    """The textbook formula: membership, ``g^s``, ``pk^c`` and an inversion."""
    if not isinstance(signature, schnorr.Signature):
        return False
    if not group.is_element(pk):
        return False
    if not (0 <= signature.c < group.q and 0 <= signature.s < group.q):
        return False
    commitment = group.mul(
        group.exp(group.g, signature.s), group.inv(group.exp(pk, signature.c))
    )
    return hash_to_int("schnorr-chal", group.q, commitment, pk, *message) == signature.c


#: Keys that are not group elements (``p - 1`` is a non-residue since
#: ``p = 3 mod 4``), not ints, or ints in disguise.
ODD_KEYS = (1, 0, GROUP.p - 1, GROUP.p, -1, "pk", 1.0, None, True, False)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    message=st.integers(0, 2**16),
    mutation=st.sampled_from(
        ("none", "c", "s", "message", "key", "c=0", "s=0", "odd-key")
    ),
    delta=st.integers(1, GROUP.q - 1),
    odd_key=st.sampled_from(ODD_KEYS),
)
def test_verify_agrees_with_the_four_modexp_formula(
    seed, message, mutation, delta, odd_key
):
    key = _key(seed)
    pk, sig, msg = key.pk, schnorr.sign(GROUP, key, "m", message), ("m", message)
    if mutation == "c":
        sig = schnorr.Signature(c=(sig.c + delta) % GROUP.q, s=sig.s)
    elif mutation == "s":
        sig = schnorr.Signature(c=sig.c, s=(sig.s + delta) % GROUP.q)
    elif mutation == "message":
        msg = ("m", message + 1)
    elif mutation == "key":
        pk = _key(seed + 1).pk
    elif mutation == "c=0":
        sig = schnorr.Signature(c=0, s=sig.s)
    elif mutation == "s=0":
        sig = schnorr.Signature(c=sig.c, s=0)
    elif mutation == "odd-key":
        pk = odd_key
    expected = _four_modexp_verify(GROUP, pk, sig, *msg)
    assert schnorr.verify(GROUP, pk, sig, *msg) == expected
    assert expected == (mutation == "none")


def test_verify_agrees_on_degenerate_signatures():
    """``c = 0`` makes ``pk^(q-c)`` the identity, as ``inv(pk^0)`` is; a
    forged ``(0, s)`` passes iff the hash of ``g^s`` happens to be 0."""
    for pk in ODD_KEYS + (_key().pk, GROUP.g):
        for c, s in ((0, 0), (0, 1), (1, 0), (GROUP.q - 1, GROUP.q - 1)):
            sig = schnorr.Signature(c=c, s=s)
            assert schnorr.verify(GROUP, pk, sig, "m") == _four_modexp_verify(
                GROUP, pk, sig, "m"
            )
