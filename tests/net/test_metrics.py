"""Metrics accounting unit tests."""

from repro.net.envelope import Envelope
from repro.net.metrics import Metrics

from tests.net.helpers import Blob, Ping


def _env(path=(), words_payload=None, sender=0, recipient=1, depth=1):
    payload = words_payload if words_payload is not None else Ping(1)
    return Envelope(
        path=path, sender=sender, recipient=recipient, payload=payload, depth=depth
    )


def test_send_accounting_totals():
    metrics = Metrics()
    metrics.record_send(_env())
    metrics.record_send(_env(words_payload=Blob(data=(1,) * 9)))
    assert metrics.messages_total == 2
    # Ping: 1 payload word + 1 routing; Blob: 9 + 1.
    assert metrics.words_total == 2 + 10
    assert metrics.words_by_type["Ping"] == 2
    assert metrics.words_by_type["Blob"] == 10


def test_layer_attribution_is_inclusive():
    metrics = Metrics()
    metrics.record_send(_env(path=("nwh", ("pe", 1), "gather", ("vrb", 3))))
    for layer in ("nwh", "pe", "gather", "vrb"):
        assert metrics.words_by_layer[layer] == 2
    assert metrics.words_for_layer("absent") == 0


def test_non_string_path_parts_ignored():
    metrics = Metrics()
    metrics.record_send(_env(path=(3, ("x",), "layer")))
    assert set(metrics.words_by_layer) == {"x", "layer"}


def test_delivery_tracks_max_depth():
    metrics = Metrics()
    metrics.record_delivery(_env(depth=4))
    metrics.record_delivery(_env(depth=2))
    assert metrics.max_depth == 4
    assert metrics.deliveries == 2


def test_summary_shape():
    metrics = Metrics()
    metrics.record_send(_env(path=("a",)))
    summary = metrics.summary()
    assert summary["words_total"] == 2
    assert summary["messages_total"] == 1
    assert summary["words_by_layer"] == {"a": 2}
    assert "words_by_type" in summary


def test_envelope_describe():
    env = _env(path=("nwh", ("pe", 1)))
    text = env.describe()
    assert "0->1" in text and "Ping" in text


# -- merge: the counter-collision fix for concurrent session families ------------------


def _family(sends, depth, counter):
    """One session family's namespaced metrics with a live work counter."""
    metrics = Metrics()
    for i in range(sends):
        metrics.record_send(_env(path=("a" if i % 2 else "b",)))
    metrics.record_delivery(_env(depth=depth))
    metrics.record_frame(sends, nbytes=10 * sends)
    metrics.attach_counters("verify", lambda: dict(counter))
    return metrics


def test_merge_sums_families_without_collisions():
    a = _family(3, depth=5, counter={"calls": 7, "hits": 2})
    b = _family(2, depth=9, counter={"calls": 4, "misses": 1})
    merged = a.merge(b)
    assert merged.messages_total == 5
    assert merged.words_total == a.words_total + b.words_total
    assert merged.deliveries == 2
    assert merged.max_depth == 9  # max, not sum
    assert merged.frames_total == 2
    assert merged.wire_bytes_total == 50
    assert dict(merged.words_by_layer) == {
        layer: a.words_by_layer[layer] + b.words_by_layer[layer]
        for layer in ("a", "b")
    }
    # Same-named counters sum by key instead of clobbering each other —
    # the collision the per-family namespacing exists to prevent.
    assert merged.counters("verify") == {"calls": 11, "hits": 2, "misses": 1}


def test_merge_is_associative_and_order_independent():
    parts = [
        _family(1, depth=2, counter={"calls": 1}),
        _family(4, depth=7, counter={"calls": 3, "hits": 3}),
        _family(2, depth=1, counter={"misses": 5}),
    ]
    a, b, c = parts

    def flatten(metrics):
        return (metrics.summary(), metrics.counters("verify"))

    reference = flatten(Metrics.merged(parts))
    assert flatten(Metrics.merged([c, a, b])) == reference  # any order
    assert flatten(a.merge(b).merge(c)) == reference  # left fold
    assert flatten(a.merge(b.merge(c))) == reference  # right fold
    assert flatten(Metrics.merged([a.merge(b), c])) == reference  # grouping


def test_merge_mutates_neither_operand_and_snapshots_counters():
    live = {"calls": 1}
    a = _family(2, depth=3, counter=live)
    b = _family(1, depth=1, counter={"calls": 10})
    before = (a.summary(), b.summary())
    merged = a.merge(b)
    assert (a.summary(), b.summary()) == before
    assert merged.counters("verify") == {"calls": 11}
    # The merged value is a snapshot: later growth of a live provider
    # must not retroactively change it (a merged Metrics is a value).
    live["calls"] = 100
    assert merged.counters("verify") == {"calls": 11}
    assert a.counters("verify") == {"calls": 100}  # the source stays live
