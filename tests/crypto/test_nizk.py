"""DLOG proofs over both the real group and the pairing group."""

import random

import pytest

from repro.crypto import nizk
from repro.crypto.group import SchnorrGroup
from repro.crypto.pairing import BilinearGroup
from repro.crypto.params import get_params

PARAMS = get_params("TESTING")


@pytest.fixture(params=["schnorr", "pairing"])
def group(request):
    if request.param == "schnorr":
        return SchnorrGroup(PARAMS)
    return BilinearGroup(PARAMS.q)


def test_dlog_roundtrip(group):
    rng = random.Random(1)
    x = rng.randrange(1, group.order)
    h = group.exp(group.generator, x)
    proof = nizk.prove_dlog(group, group.generator, h, x, rng, "ctx")
    assert nizk.verify_dlog(group, group.generator, h, proof, "ctx")


def test_dlog_rejects_wrong_statement_or_context(group):
    rng = random.Random(2)
    x = rng.randrange(1, group.order)
    h = group.exp(group.generator, x)
    proof = nizk.prove_dlog(group, group.generator, h, x, rng, "ctx")
    other = group.exp(group.generator, (x + 1) % group.order)
    assert not nizk.verify_dlog(group, group.generator, other, proof, "ctx")
    assert not nizk.verify_dlog(group, group.generator, h, proof, "other-ctx")
    assert not nizk.verify_dlog(group, group.generator, h, "junk", "ctx")


def test_dlog_rejects_wrong_secret(group):
    rng = random.Random(3)
    x = rng.randrange(1, group.order)
    h = group.exp(group.generator, x)
    forged = nizk.prove_dlog(
        group, group.generator, h, (x + 1) % group.order, rng, "ctx"
    )
    assert not nizk.verify_dlog(group, group.generator, h, forged, "ctx")


def test_proof_word_sizes(group):
    rng = random.Random(6)
    x = rng.randrange(1, group.order)
    h = group.exp(group.generator, x)
    proof = nizk.prove_dlog(group, group.generator, h, x, rng)
    assert proof.word_size() == 1
