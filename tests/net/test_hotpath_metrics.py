"""Hot-path work counters: transport-independence and amortization.

The verification cache is keyed by value *content*, so what gets
verified must not depend on how the bytes traveled.  At ``f=0`` the
protocol is schedule-independent (every party waits for all ``n``
contributions), so the set of distinct values verified — the ``.misses``
counters — is identical whether envelopes moved by reference through the
simulator or as codec frames over real TCP sockets.
"""

import pytest

from repro import run_adkg
from repro.crypto.keys import TrustedSetup


def _verify_counters(result) -> dict:
    return result.metrics_summary["counters"]["verify"]


def _misses(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.endswith(".misses")}


def test_verify_counters_identical_sim_vs_tcp():
    # One setup each: a setup's directory carries the verify cache.
    sim = run_adkg(seed=7, setup=TrustedSetup.generate(4, f=0, seed=7))
    tcp = run_adkg(
        seed=7, setup=TrustedSetup.generate(4, f=0, seed=7), transport="tcp"
    )
    assert sim.agreed and tcp.agreed
    sim_verify, tcp_verify = _verify_counters(sim), _verify_counters(tcp)
    # Distinct-values-verified is schedule-independent at f=0; the total
    # call counts (hits included) agree too, but only misses are asserted
    # strictly — a delivery racing the realtime teardown could bump a hit.
    assert _misses(sim_verify) == _misses(tcp_verify)
    assert sim_verify["pvss-transcript.calls"] == tcp_verify["pvss-transcript.calls"]
    # The paper's metric is equally transport-blind.
    assert sim.words_total == tcp.words_total


def test_transcript_verification_is_amortized_per_distinct_value():
    result = run_adkg(n=7, seed=3, transport="sim")
    verify = _verify_counters(result)
    calls = verify["pvss-transcript.calls"]
    misses = verify["pvss-transcript.misses"]
    # O(n·echoes) requests, O(distinct transcripts) actual verifications.
    assert misses <= 2 * result.n
    assert calls >= 4 * misses
    assert verify["pvss-transcript.hits"] == calls - misses


def test_encode_once_fan_out_counters():
    result = run_adkg(n=7, seed=3, transport="sim", measure_bytes=True)
    encode = result.metrics_summary["counters"]["encode"]
    # A multicast encodes its payload once and reuses the buffer for the
    # other recipients: hits dominate misses.
    assert encode["payload.hits"] > encode["payload.misses"]
    assert encode["payload.calls"] == (
        encode["payload.hits"] + encode["payload.misses"]
    )


def test_an_aggregate_is_walked_at_most_once_per_object(monkeypatch):
    """The contributions and transcripts riding inside payloads, RBC values
    and cache keys are encoded once per *object*, however often they recur."""
    from repro.crypto import pvss

    created = []
    for cls in (pvss.PVSSContribution, pvss.PVSSTranscript):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            created.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    result = run_adkg(n=7, seed=3, transport="sim", measure_bytes=True)
    encode = result.metrics_summary["counters"]["encode"]
    assert 0 < encode["aggregate.misses"] <= len(created)
    assert encode["aggregate.calls"] > encode["aggregate.misses"]
    assert encode["aggregate.calls"] == (
        encode["aggregate.hits"] + encode["aggregate.misses"]
    )


def test_pairing_ops_scale_with_distinct_values_not_echoes():
    result = run_adkg(n=7, seed=3, transport="sim")
    verify = _verify_counters(result)
    pairing = result.metrics_summary["counters"]["pairing"]
    # Each distinct transcript/contribution verification costs 2 pairing
    # ops (the RLC batch), each eval-share check 1; repeated arrivals of
    # the same value cost none.  So pairing work is a small multiple of
    # total distinct verifications, far below total verify *requests*.
    distinct = sum(v for k, v in verify.items() if k.endswith(".misses"))
    requests = sum(v for k, v in verify.items() if k.endswith(".calls"))
    assert pairing["pair_calls"] <= 4 * distinct
    assert pairing["pair_calls"] < requests


# -- one crypto plane: verification runs in-process, nothing selects otherwise --------


def test_run_adkg_workers_keyword_accepts_only_zero():
    with pytest.raises(ValueError, match="workers"):
        run_adkg(n=4, seed=1, workers=2)
    for workers in (0, None):
        result = run_adkg(n=4, seed=1, workers=workers)
        assert result.agreed
        assert "pool" not in result.metrics_summary["counters"]


def test_verify_cache_emits_only_the_four_inline_counters():
    setup = TrustedSetup.generate(4, seed=1)
    assert run_adkg(n=4, seed=1, setup=setup).agreed
    snapshot = setup.directory.verify_cache.snapshot()
    assert snapshot
    suffixes = {key.rsplit(".", 1)[1] for key in snapshot}
    assert suffixes <= {"calls", "hits", "misses", "uncacheable"}
