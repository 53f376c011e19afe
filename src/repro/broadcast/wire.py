"""Value (de)serialization for dispersal-style broadcasts.

The erasure-coded broadcast genuinely fragments a byte string; protocol
values (PVSS transcripts, key tuples, ...) are encoded with the registry
byte codec (:mod:`repro.net.codec`) to produce it.  Word accounting is
*not* derived from the byte length — the logical word size of the
original value travels with the fragments so the metered complexity
matches the paper's model (see ``CTVal.word_size``).

``deserialize`` is hardened for Byzantine-dealer inputs by construction:
the codec never executes attacker-chosen constructors the way
``pickle.loads`` would — unknown type ids, truncated buffers and
structurally invalid values all fail closed, surfacing as ``None`` here
and mapped to "dealer faulty" by the broadcast.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net import codec


def serialize(value: Any) -> bytes:
    """Encode a protocol value to deterministic codec bytes."""
    return codec.encode(value)


def deserialize(data: bytes) -> Optional[Any]:
    """Decode bytes back into a value; ``None`` if the bytes are malformed."""
    codec.encode_stats["wire.decode.calls"] += 1
    try:
        return codec.decode(data)
    except codec.CodecError:
        return None
