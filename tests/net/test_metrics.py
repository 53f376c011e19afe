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
