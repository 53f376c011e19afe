"""Word, message, round and frame metering — plus hot-path work counters.

Every send is recorded with its full instance path and payload type, so
experiments can report both totals (Theorems 6-10 measure total words)
and per-layer breakdowns (Theorem 8's ``n³·es + n²·ds + g(m+d) + b(n)``
decomposition).  Layer attribution is *inclusive*: a reliable-broadcast
message inside Gather inside PE counts towards ``rb``, ``gather`` and
``pe``.

Beyond the paper's word metric, a :class:`Metrics` can carry *counter
providers*: named live views over computational-work counters (crypto
verification calls/hits/misses from
:mod:`repro.crypto.verify_cache`, payload encode calls from
:mod:`repro.net.codec`, pairing operations).  The transport binds them as
deltas against its construction-time baseline, so ``counters("verify")``
is "work done by this run" — the structural quantity
``tests/net/totals_golden.json`` pins and experiment E12 tabulates,
independent of wall-clock noise.

The batched message plane adds *frame* accounting on top: every send is
still metered individually (``bytes_total`` is the protocol byte metric,
``FRAME_HEADER_BYTES + len(encode_envelope(e))`` summed over sends,
whatever frames carried them), while :meth:`Metrics.record_frame` counts
the frames actually produced (TCP's socket frames, the simulator's heap
entries), their occupancy, and on TCP alone the bytes they occupy on the
wire (``wire_bytes_total``); ``frames_saved`` / ``wire_bytes_saved`` are
the amortization the plane delivers.  See DESIGN.md section 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.net.envelope import Envelope


def counter_delta(live: Mapping[str, int], baseline: Mapping[str, int]) -> dict:
    """The non-zero growth of ``live`` over ``baseline`` (both Counters)."""
    return {
        key: live[key] - baseline.get(key, 0)
        for key in live
        if live[key] - baseline.get(key, 0)
    }


#: Instance paths repeat for every message of an instance, but layer
#: attribution re-derived the layer names from the path parts on every
#: send.  Value-keyed memo (paths are small hashable tuples; the layer
#: list is a pure function of the path), bounded like the codec's path
#: memo.
_path_layers_memo: dict[tuple, tuple[str, ...]] = {}
_PATH_LAYERS_LIMIT = 8192


def _path_layers(path: tuple) -> tuple[str, ...]:
    try:
        cached = _path_layers_memo.get(path)
    except TypeError:
        cached = None  # unhashable (forged) path: derive without caching
    else:
        if cached is None:
            cached = _derive_layers(path)
            if len(_path_layers_memo) >= _PATH_LAYERS_LIMIT:
                _path_layers_memo.clear()
            _path_layers_memo[path] = cached
        return cached
    return _derive_layers(path)


def _derive_layers(path: tuple) -> tuple[str, ...]:
    layers = []
    for part in path:
        if isinstance(part, str):
            layers.append(part)
        elif isinstance(part, tuple) and part and isinstance(part[0], str):
            layers.append(part[0])
    return tuple(layers)


@dataclass
class Metrics:
    words_total: int = 0
    messages_total: int = 0
    bytes_total: int = 0
    words_by_layer: Counter = field(default_factory=Counter)
    words_by_type: Counter = field(default_factory=Counter)
    messages_by_type: Counter = field(default_factory=Counter)
    max_depth: int = 0
    deliveries: int = 0
    #: Frames the batched message plane actually produced: TCP frames or
    #: simulator heap entries (one per message at a coalescing cap of one).
    frames_total: int = 0
    #: Largest number of envelopes observed in one frame.
    batch_occupancy_max: int = 0
    #: Actual bytes TCP's frames occupy on the wire (transport framing
    #: included); 0 on the simulator.  ``bytes_total`` stays the
    #: *protocol* byte metric — per-envelope sizes, whatever the frames —
    #: so the difference is exactly what coalescing saved.
    wire_bytes_total: int = 0
    counter_providers: dict[str, Callable[[], dict]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def record_send(
        self, envelope: Envelope, nbytes: int | None = None, count: int = 1
    ) -> None:
        """Record ``count`` network sends that meter like ``envelope``.

        ``nbytes`` is one envelope's wire size under the byte codec
        (transport framing included); transports that do not encode to
        bytes pass ``None`` and only the paper's word metric is kept.
        ``count > 1`` is a fan-out metered once: exactly ``count`` calls
        for envelopes of the same word size, payload type, path and
        ``nbytes`` (the transport's run metering guarantees those).
        """
        words = envelope.word_size() * count
        self.words_total += words
        self.messages_total += count
        type_name = envelope.payload.type_name()
        self.words_by_type[type_name] += words
        self.messages_by_type[type_name] += count
        if nbytes is not None:
            self.bytes_total += nbytes * count
        for layer in _path_layers(envelope.path):
            self.words_by_layer[layer] += words

    def record_delivery(self, envelope: Envelope) -> None:
        self.deliveries += 1
        if envelope.depth > self.max_depth:
            self.max_depth = envelope.depth

    def record_frame(self, envelopes: int, nbytes: int | None = None) -> None:
        """Record one frame of ``envelopes`` envelopes.

        ``nbytes`` is the frame's actual on-wire size (transport framing
        included) where a socket carries it; ``None`` for a simulator
        heap entry.
        """
        self.frames_total += 1
        if envelopes > self.batch_occupancy_max:
            self.batch_occupancy_max = envelopes
        if nbytes is not None:
            self.wire_bytes_total += nbytes

    @property
    def frames_saved(self) -> int:
        """Per-envelope frames the coalescing plane avoided.

        Envelopes still sitting in an unflushed coalescing buffer when a
        run stops are metered as sends but not yet framed, so this is
        clamped at zero.
        """
        if not self.frames_total:
            return 0
        return max(0, self.messages_total - self.frames_total)

    @property
    def batch_occupancy_mean(self) -> float:
        """Mean envelopes per coalesced frame (0.0 before the first frame)."""
        if not self.frames_total:
            return 0.0
        return self.messages_total / self.frames_total

    @property
    def wire_bytes_saved(self) -> int:
        """Protocol bytes minus actual wire bytes (what coalescing saved)."""
        if not self.frames_total or not self.wire_bytes_total:
            return 0
        return max(0, self.bytes_total - self.wire_bytes_total)

    def words_for_layer(self, layer: str) -> int:
        return self.words_by_layer.get(layer, 0)

    def attach_counters(self, name: str, provider: Callable[[], dict]) -> None:
        """Register a live work-counter view (e.g. ``"verify"``, ``"encode"``)."""
        self.counter_providers[name] = provider

    def counters(self, name: str) -> dict:
        """The named counter view right now; ``{}`` if none was attached."""
        provider = self.counter_providers.get(name)
        return dict(provider()) if provider is not None else {}

    def summary(self) -> dict:
        return {
            "words_total": self.words_total,
            "messages_total": self.messages_total,
            "bytes_total": self.bytes_total,
            "frames_total": self.frames_total,
            "frames_saved": self.frames_saved,
            "batch_occupancy_mean": round(self.batch_occupancy_mean, 2),
            "batch_occupancy_max": self.batch_occupancy_max,
            "wire_bytes_total": self.wire_bytes_total,
            "wire_bytes_saved": self.wire_bytes_saved,
            "max_depth": self.max_depth,
            "deliveries": self.deliveries,
            "words_by_layer": dict(self.words_by_layer),
            "words_by_type": dict(self.words_by_type),
            "counters": {
                name: dict(provider())
                for name, provider in self.counter_providers.items()
            },
        }
