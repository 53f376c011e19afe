"""Trusted setup / PKI generation."""

import pytest

from repro.crypto.keys import TrustedSetup
from repro.crypto.params import get_params


def test_generation_is_deterministic():
    a = TrustedSetup.generate(4, seed=5)
    b = TrustedSetup.generate(4, seed=5)
    assert a.directory.sign_pks == b.directory.sign_pks
    assert a.directory.enc_pks == b.directory.enc_pks
    assert a.secret(0).sign.sk == b.secret(0).sign.sk


def test_different_seeds_differ():
    a = TrustedSetup.generate(4, seed=5)
    b = TrustedSetup.generate(4, seed=6)
    assert a.directory.sign_pks != b.directory.sign_pks


def test_default_f_is_optimal():
    for n, expected_f in [(4, 1), (6, 1), (7, 2), (10, 3), (13, 4)]:
        setup = TrustedSetup.generate(n)
        assert setup.directory.f == expected_f
        assert setup.directory.quorum == n - expected_f


def test_resilience_bound_enforced():
    with pytest.raises(ValueError):
        TrustedSetup.generate(6, f=2)
    # A committee of nobody: 0 >= 3*(-1) + 1 holds, so it needs its own check.
    for n, f in ((0, None), (-4, None), (4, -1)):
        with pytest.raises(ValueError, match="n >= 1, f >= 0"):
            TrustedSetup.generate(n, f=f)


def test_keys_match_directory():
    setup = TrustedSetup.generate(5, seed=3)
    directory = setup.directory
    sign_group, pair_group = directory.sign_group, directory.pair_group
    for i in range(5):
        secret = setup.secret(i)
        assert secret.index == i
        assert sign_group.exp(sign_group.g, secret.sign.sk) == directory.sign_pks[i]
        assert pair_group.exp(pair_group.g, secret.enc_sk) == directory.enc_pks[i]


def test_share_index_is_one_based():
    setup = TrustedSetup.generate(4, seed=1)
    assert setup.directory.share_index(0) == 1
    assert setup.directory.share_index(3) == 4
    with pytest.raises(IndexError):
        setup.directory.share_index(4)


def test_params_presets_accepted_by_name_and_object():
    by_name = TrustedSetup.generate(4, params="testing", seed=2)
    by_obj = TrustedSetup.generate(4, params=get_params("TESTING"), seed=2)
    assert by_name.directory.sign_pks == by_obj.directory.sign_pks
