"""End-to-end integration: the public API, transports, delay regimes."""

import pytest

from repro import run_adkg
from repro.crypto import threshold_enc as tenc, threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net.delays import ExponentialDelay, HeavyTailDelay, UniformDelay


def test_run_adkg_public_api():
    result = run_adkg(n=4, seed=1)
    assert result.agreed
    assert result.n == 4 and result.f == 1
    assert result.public_key is not None
    assert result.words_total > 0
    assert result.views >= 1
    assert result.rounds > 0
    assert "words_by_layer" in result.metrics_summary


def test_run_adkg_to_quiescence_counts_more_words():
    fast = run_adkg(n=4, seed=2)
    full = run_adkg(n=4, seed=2, to_quiescence=True)
    assert full.words_total >= fast.words_total
    assert full.transcript == fast.transcript


def test_same_seed_same_everything():
    a = run_adkg(n=4, seed=3, to_quiescence=True)
    b = run_adkg(n=4, seed=3, to_quiescence=True)
    assert a.transcript == b.transcript
    assert a.words_total == b.words_total
    assert a.rounds == b.rounds


def test_different_seeds_different_keys():
    a = run_adkg(n=4, seed=4)
    b = run_adkg(n=4, seed=5)
    assert a.transcript != b.transcript


@pytest.mark.parametrize(
    "delay_model",
    [UniformDelay(0.1, 2.0), ExponentialDelay(1.0), HeavyTailDelay(1.0, 1.2)],
    ids=["uniform", "exponential", "heavy-tail"],
)
def test_adkg_under_every_delay_regime(delay_model):
    result = run_adkg(n=4, seed=6, delay_model=delay_model)
    assert result.agreed


def test_agreed_key_supports_vrf_and_encryption_together():
    """One DKG, two applications: beacon + vault share the same key."""
    import random

    setup = TrustedSetup.generate(4, seed=8)
    result = run_adkg(n=4, seed=8, setup=setup)
    directory, dkg = setup.directory, result.transcript

    # Threshold VRF.
    message = ("epoch", 0)
    shares = [
        tvrf.EvalSh(directory, setup.secret(i), dkg, message) for i in range(2)
    ]
    evaluation, proof = tvrf.Eval(directory, dkg, message, shares)
    assert tvrf.EvalVerify(directory, dkg, message, evaluation, proof)

    # Threshold encryption.
    secret_doc = b"both applications, one committee key"
    ct = tenc.encrypt(directory, dkg, secret_doc, random.Random(9))
    dec_shares = [
        tenc.decryption_share(directory, setup.secret(i), dkg, ct)
        for i in (1, 3)
    ]
    assert tenc.combine(directory, dkg, ct, dec_shares) == secret_doc


def test_bigger_committee_smoke():
    result = run_adkg(n=10, seed=9)
    assert result.agreed
    assert len(result.transcript.contributors) >= 7


def test_run_adkg_takes_its_committee_from_the_setup():
    setup = TrustedSetup.generate(4, seed=1)
    result = run_adkg(seed=1, setup=setup)
    assert (result.n, result.f) == (4, 1)
    assert run_adkg(n=4, seed=1, setup=setup).transcript == result.transcript
    with pytest.raises(ValueError, match="n=7.*n=4"):
        run_adkg(n=7, seed=1, setup=setup)


def test_run_adkg_respects_explicit_f():
    result = run_adkg(seed=10, setup=TrustedSetup.generate(7, f=1, seed=10))
    assert result.f == 1
    assert result.agreed
