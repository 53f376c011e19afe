"""Hot-path work counters: transport-independence and amortization.

The verification cache is keyed by value *content*, so what gets
verified must not depend on how the bytes traveled.  At ``f=0`` the
protocol is schedule-independent (every party waits for all ``n``
contributions), so the set of distinct values verified — the ``.misses``
counters — is identical whether envelopes moved by reference through the
simulator or as codec frames over real TCP sockets.
"""

from collections import Counter

import pytest

from repro import run_adkg
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.metrics import counter_delta


def _verify_counters(result) -> dict:
    return result.metrics_summary["counters"]["verify"]


def _misses(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.endswith(".misses")}


def _encodes(run) -> tuple:
    """``run()``'s result and the codec's process-wide encode counts it grew."""
    before = Counter(codec.encode_stats)
    result = run()
    return result, counter_delta(codec.encode_stats, before)


def test_verify_counters_identical_sim_vs_tcp():
    # One setup for both: each run's transport brings a verify cache of its own.
    setup = TrustedSetup.generate(4, f=0, seed=7)
    sim = run_adkg(seed=7, setup=setup)
    tcp = run_adkg(seed=7, setup=setup, transport="tcp")
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
    _result, encode = _encodes(
        lambda: run_adkg(n=7, seed=3, transport="sim", measure_bytes=True)
    )
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
    _result, encode = _encodes(
        lambda: run_adkg(n=7, seed=3, transport="sim", measure_bytes=True)
    )
    assert 0 < encode["aggregate.misses"] <= len(created)
    assert encode["aggregate.calls"] > encode["aggregate.misses"]
    assert encode["aggregate.calls"] == (
        encode["aggregate.hits"] + encode["aggregate.misses"]
    )


def test_pairing_ops_scale_with_distinct_values_not_echoes():
    setup = TrustedSetup.generate(7, seed=3)
    group = setup.directory.pair_group
    before = group.pair_calls
    result = run_adkg(seed=3, setup=setup, transport="sim")
    pair_calls = group.pair_calls - before
    verify = _verify_counters(result)
    # Each distinct transcript/contribution verification costs 2 pairing
    # ops (the RLC batch), each eval-share check 1; repeated arrivals of
    # the same value cost none.  So pairing work is a small multiple of
    # total distinct verifications, far below total verify *requests*.
    distinct = sum(v for k, v in verify.items() if k.endswith(".misses"))
    requests = sum(v for k, v in verify.items() if k.endswith(".calls"))
    assert pair_calls <= 4 * distinct
    assert pair_calls < requests


# -- one crypto plane: verification runs in-process, nothing selects otherwise --------


def test_run_adkg_workers_keyword_accepts_only_zero():
    with pytest.raises(ValueError, match="workers"):
        run_adkg(n=4, seed=1, workers=2)
    for workers in (0, None):
        result = run_adkg(n=4, seed=1, workers=workers)
        assert result.agreed
        assert "pool" not in result.metrics_summary["counters"]


def test_verify_cache_emits_only_the_four_inline_counters():
    result = run_adkg(n=4, seed=1)
    assert result.agreed
    verify = _verify_counters(result)
    assert verify
    suffixes = {key.rsplit(".", 1)[1] for key in verify}
    assert suffixes <= {"calls", "hits", "misses", "uncacheable"}


@pytest.mark.parametrize("transport", ("sim", "tcp"))
def test_two_runs_on_one_setup_count_the_same_verify_work(transport):
    """Each run brings a verify cache of its own: a second run on the same
    setup verifies every distinct value again, and counts it."""
    setup = TrustedSetup.generate(4, f=0, seed=2)
    first, second = (
        run_adkg(seed=2, setup=setup, transport=transport) for _ in range(2)
    )
    assert first.agreed and second.agreed
    counted = [_verify_counters(result) for result in (first, second)]
    if transport == "tcp":  # a delivery racing the teardown may bump a hit
        counted = [_misses(counters) for counters in counted]
    assert counted[0] == counted[1]
    assert _misses(counted[1])
