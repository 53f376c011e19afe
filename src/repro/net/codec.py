"""Registry-based byte codec for every value that crosses a transport.

The sans-io protocols exchange frozen dataclasses (payloads, certificates,
PVSS contributions, group elements, ...).  The simulator can pass them by
reference, but the TCP runtime — and the erasure-coded broadcast, which
genuinely fragments a byte string — need a real wire format.  This module
provides one without pickle: a deterministic tag-length-value encoding
with an explicit *type registry*.

Format
------
Every value is a one-byte tag followed by tag-specific content:

====  ==========================================================
0x00  ``None``
0x01  ``True``
0x02  ``False``
0x03  int — zigzag varint (arbitrary precision)
0x04  bytes — varint length + raw bytes
0x05  str — varint length + UTF-8 bytes
0x06  tuple — varint count + items
0x07  list — varint count + items
0x08  frozenset — varint count + items, strictly ascending by encoded bytes
0x09  set — like frozenset
0x0A  dict — varint count + key/value pairs, strictly ascending by encoded key
0x0B  float — 8 bytes IEEE-754 big-endian
0x0C  aggregate reference — 32-byte SHA-256 of the aggregate's struct
      bytes; legal in a shared-aggregate encoding only (below)
0x10  registered struct — varint type id + varint field count + fields
====  ==========================================================

Every length, count, id and (zigzagged) integer is a little-endian
base-128 varint in its one shortest spelling.  Structs are registered
with :func:`register` under a stable numeric id (the ids below are part
of the wire format; never reuse one).  The field count doubles as the
struct's format version and every struct requires an exact count.  A
registered dataclass is encoded as its fields in declaration order, so
``decode(encode(x)) == x`` for every registered type whose fields are
themselves encodable.  Sets and dicts are serialized in sorted-encoding
order, making ``encode`` deterministic: equal values produce equal bytes.
Two distinct members or keys with one encoding (two NaNs) are refused by
``encode``, as ``decode`` would refuse the bytes.

``decode`` is strict: unknown tags, unknown type ids, truncated buffers,
trailing bytes, invalid UTF-8, field-count mismatches, overlong
(non-canonical) varints and set members or dict keys out of sorted order
all raise :class:`CodecError`.  So ``encode(decode(b)) == b`` for every
accepted ``b``, and the decoder can hand an aggregate the bytes it was
read from (``_payload_memo``).  A Byzantine dealer's malformed bytes
surface as a clean error (CT-RBC maps it to "dealer faulty"), never as
attacker-controlled object construction the way ``pickle.loads`` would
allow.

Batch frames
------------
Every wire frame that carries envelopes is a batch frame — one envelope
or many, there is one spelling.  Its body is versioned and
self-describing::

    0xB5 (magic)  0x01 (version)
    uvarint k     k x (uvarint length + payload encoding)
    uvarint m     m x (uvarint payload-index +
                       tuple(path, sender, recipient, depth, session))

The payload table deduplicates *within* the frame: a multicast payload
carried by several envelopes of one frame is serialized once and
referenced by index.  ``0xB5`` sits outside the codec tag space, so a
bare envelope encoding (:func:`encode_envelope`, what a WAL record
holds and the byte metric sizes — it starts with the struct tag ``0x10``) is never
mistaken for a frame: :func:`decode_batch` refuses it.  A batch of one
costs 4 bytes plus the payload's length varint more than the bare
envelope (+5 B under 128 B of payload, +6 B under 16 KiB).  Decoding is
as strict as everywhere else: bad magic/version, truncated tables,
out-of-range payload indices, blob-length mismatches, non-``Payload``
table entries, malformed headers and trailing bytes all raise
:class:`CodecError`.

Shared-aggregate encoding
-------------------------
A party snapshot reaches the same immutable transcript from many places
(each RBC's decoded value and output, Gather sets, PE, NWH, the payloads
NWH journals), so :func:`encode_shared` — used by ``Party.freeze`` and
nothing else — stores each distinct aggregate once and names it wherever
it occurs::

    0x0C  uvarint k   k x (ordinary struct encoding of one aggregate,
                           strictly ascending by SHA-256 of those bytes)
    one value, in which every aggregate is written as
    0x0C + that SHA-256  instead of its struct bytes

A table entry is an ordinary encoding all the way down (an aggregate
nested in an aggregate stays inline), and the bytes ``_payload_memo``
holds are always ordinary ones: a payload met in the body is walked
field by field past the memo, never read from it or written to it.
:func:`decode_shared` is as strict as :func:`decode` and resolves every
reference to a digest to *one* object, so the sharing a party had
before it was frozen is what it has after the thaw.  One spelling here
too (``encode_shared(decode_shared(b)) == b``): a table out of order or
with a duplicate, an entry that is not an aggregate or that nothing
references, a reference to nothing, an aggregate spelled inline in the
body and a reference inside a table entry are all rejected.  ``decode``,
``decode_envelope``, ``decode_batch`` and the WAL reader refuse 0x0C
like any unknown tag: bytes from a peer can never make a receiver
resolve a reference.

See DESIGN.md sections 3 and 8 for how the codec slots into the
transport architecture and the batched message plane, and section 9 for
the snapshot format.
"""

from __future__ import annotations

import dataclasses
import struct as _struct
from collections import Counter
from hashlib import sha256
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional

from repro.crypto.pairing import KIND_G, KIND_GT, GroupElement
from repro.crypto.verify_cache import TUPLE_FIELDS, IdentityMemo

__all__ = [
    "CodecError",
    "register",
    "encode",
    "decode",
    "SharedRecord",
    "shared_record",
    "encode_shared",
    "decode_shared",
    "encode_envelope",
    "decode_envelope",
    "encode_batch",
    "decode_batch",
    "encoded_size",
    "encoded_envelope_size",
    "encoded_batch_size",
    "encode_stats",
]

#: First body byte of a batch frame.  Deliberately outside the codec tag
#: space: no value encoding (a bare envelope starts with ``_TAG_STRUCT``,
#: 0x10) can pass for a frame.
BATCH_MAGIC = 0xB5
#: Batch frame format version (second body byte).
BATCH_VERSION = 0x01

#: Encode-once accounting: ``payload.calls`` counts every payload struct
#: encoding request, ``payload.hits`` the ones served from the identity
#: memo (a broadcast encodes its payload once, then reuses the buffer for
#: all n recipients), ``payload.misses`` the real encodings.  These three
#: count *payloads only*; the crypto aggregates nested inside them (and
#: inside snapshots, RBC values and verify-cache keys) count under
#: ``aggregate.calls/hits/misses`` — a miss is one field-by-field walk of
#: an aggregate, a hit is one walk saved.
encode_stats: Counter = Counter()
_PAYLOAD_STATS = ("payload.calls", "payload.hits", "payload.misses")
_AGGREGATE_STATS = ("aggregate.calls", "aggregate.hits", "aggregate.misses")

# Struct bytes keyed by object identity (weakref-guarded): the one memo
# behind "encode a frozen value once".  Sound because every type it
# serves is a frozen value dataclass: a distinct (e.g. Byzantine-
# transformed) value is a distinct object and never aliases a memoized
# buffer.  Process-wide is safe for the same reason — bytes are a pure
# function of the value.  An entry dies with its object.  It has two
# producers that write the same bytes: the encoder that first walks an
# object (:func:`_payload_struct_bytes`) and, for aggregates, the decoder
# that just built it from them (:func:`_decode_seq`).
_payload_memo = IdentityMemo()
# Served type set 1 — every registered ``Payload`` subclass (added by
# :func:`register`): the multicast fan-out unit, one frozen object
# addressed to all n recipients.
_memoized_types: set[type] = set()
# Served type set 2 — the frozen crypto *aggregates* payloads carry by
# reference (filled by :func:`_register_builtins`).  Inclusion rule: a
# registered frozen non-payload struct with a variable-length
# tuple-of-registered-struct field (so O(n) to walk) that protocol state
# holds many references to — the same transcript object sits in Gather
# sets, PE proposals, NWH key/lock/suggest records and RBC values, and
# ``Party.freeze`` meets every one of those references on every
# checkpoint.  Fixed-width leaves (``GroupElement``, ``Signature``,
# ``DlogProof``, ``ContributorTag``, ``KeyTuple``, ``SignedVote``,
# ``EvalShare``) stay out: they cost about as much to walk as to look
# up, and memoizing them measured no gain for thousands of extra
# entries (DESIGN §4).  An aggregate enters the memo only if its
# sequence fields are real tuples — ``IdentityMemo.put`` checks it.
_aggregate_memoized_types: set[type] = set()
# Every other registered struct — no memo role, not the envelope — ->
# (struct header, field getter): what the encode loop finds with one
# lookup (``GroupElement``, ``Signature``, ``ContributorTag``, ...).
_plain_structs: dict[type, tuple[bytes, Callable[[Any], tuple]]] = {}

# Envelope instance paths, interned both ways in one table under one
# bound: ``path tuple -> its encoding`` for the encoder and ``encoding ->
# validated path tuple`` for the batch decoder (a tuple never equals a
# bytes key, so the directions cannot collide).  Paths are small hashable
# tuples and repeat for every message of an instance — a party sees each
# instance path >= 2n times.  Value-keyed is sound in both directions:
# encoding and decoding are pure functions of the value resp. the bytes.
_envelope_type: Optional[type] = None
_payload_type: Optional[type] = None
_path_memo: dict[Any, Any] = {}
_PATH_MEMO_LIMIT = 8192


class CodecError(ValueError):
    """Raised when bytes cannot be decoded (or a value cannot be encoded)."""


_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_BYTES = 0x04
_TAG_STR = 0x05
_TAG_TUPLE = 0x06
_TAG_LIST = 0x07
_TAG_FROZENSET = 0x08
_TAG_SET = 0x09
_TAG_DICT = 0x0A
_TAG_FLOAT = 0x0B
_TAG_REF = 0x0C
_TAG_STRUCT = 0x10

#: How a shared-aggregate encoding opens (a plain one never does: 0x0C is
#: not a value tag outside it).
SHARED_OPEN = bytes((_TAG_REF,))
#: Bytes of the SHA-256 that follows a reference tag.
_REF_DIGEST_BYTES = 32

#: How a batch envelope header opens: tuple tag, five elements.
_BATCH_HEADER_OPEN = bytes((_TAG_TUPLE, 5))

# Registered struct ids, stable across versions (wire compatibility):
#   1-19    substrate (Envelope)
#   20-63   crypto value types; 23 (DLEQ proof), 25 (constant-size opening),
#           36-37 (scalar PVSS) and 38 (Shamir share) are retired, never reused
#   64-99   protocol payloads
#   >= 9000 reserved for tests / external extensions
_ENVELOPE_ID = 1
_ELEMENT_ID = 20

#: Registered struct -> (wire id, field names, pre-built struct header
#: ``0x10 . id . field-count``, ``value -> field values`` getter).  The
#: last two are the struct's compiled *encode plan*, built by
#: :func:`register`.
_by_type: dict[type, tuple[int, tuple[str, ...], bytes, Callable[[Any], tuple]]] = {}
_by_id: dict[int, tuple[type, tuple[str, ...], tuple[Any, ...]]] = {}
_by_name: dict[str, type] = {}
#: Wire id -> (class, field names, ((field index, concrete class), ...)):
#: the struct's compiled *decode plan*, its annotation checkers resolved
#: to the classes they name.  Compiled on the first decode of an id (a
#: checker may name a class registered later) and dropped wholesale by
#: every :func:`register`, which can bind or rebind any name.
_decode_plans: dict[int, tuple[type, tuple[str, ...], tuple[tuple[int, type], ...]]] = {}
_builtin_registered = False
_registering = False

_SIMPLE_ANNOTATIONS: dict[str, type] = {
    "int": int,
    "bytes": bytes,
    "str": str,
    "bool": bool,
    "float": float,
    "tuple": tuple,
    "Path": tuple,  # the Envelope path alias
    "list": list,
    "set": set,
    "frozenset": frozenset,
    "dict": dict,
}


def _annotation_checker(annotation: Any) -> Any:
    """Best-effort type check derived from a dataclass field annotation.

    Returns a type to isinstance-check, a class-name string resolved
    against the registry when the decode plan is compiled, or ``None``
    for annotations we cannot (or should not) enforce — ``Any``,
    ``Optional``, unions.  Honest encoders always satisfy their own
    annotations, so this rejects only attacker-crafted frames whose field
    values have the wrong shape.
    """
    if not isinstance(annotation, str):
        annotation = getattr(annotation, "__name__", "")
    if "|" in annotation:
        return None  # PEP-604 unions admit several types: unchecked
    base = annotation.strip().split("[", 1)[0].strip().split(".")[-1]
    if base in _SIMPLE_ANNOTATIONS:
        return _SIMPLE_ANNOTATIONS[base]
    if not base or base in ("Any", "Optional", "Union", "object", "None"):
        return None
    return base  # resolved against _by_name by _compile_decode_plan


def _field_getter(fields: tuple[str, ...]) -> Callable[[Any], tuple]:
    """``value -> tuple of its field values`` (``attrgetter`` alone returns
    a bare value, not a 1-tuple, for a single name)."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if not fields:
        return lambda value: ()
    single = attrgetter(fields[0])
    return lambda value: (single(value),)


def register(cls: type, type_id: int, fields: Optional[tuple[str, ...]] = None) -> type:
    """Register a dataclass under a stable wire id.

    ``fields`` defaults to the dataclass fields in declaration order; the
    decoder reconstructs instances via ``cls(*field_values)`` and checks
    each value against the field's annotation where that annotation names
    a concrete type.  Ids below 9000 are reserved for the repo itself.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"can only register dataclasses, got {cls!r}")
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    if fields is None:
        fields = tuple(declared)
    existing = _by_id.get(type_id)
    if existing is not None and existing[0] is not cls:
        raise ValueError(
            f"codec id {type_id} already taken by {existing[0].__name__}"
        )
    checkers = tuple(_annotation_checker(declared.get(name)) for name in fields)
    header = bytearray((_TAG_STRUCT,))
    _write_uvarint(header, type_id)
    _write_uvarint(header, len(fields))
    getter = _field_getter(fields)
    _by_type[cls] = (type_id, fields, bytes(header), getter)
    _by_id[type_id] = (cls, fields, checkers)
    TUPLE_FIELDS[cls] = tuple(n for n, c in zip(fields, checkers) if c is tuple)
    _by_name[cls.__name__] = cls
    _decode_plans.clear()
    from repro.net.payload import Payload  # deferred: payload.py is below codec

    if issubclass(cls, Payload):
        # Protocol payloads are the multicast fan-out unit: the same
        # frozen object is addressed to all n recipients, so its struct
        # encoding is memoized by identity (see encode_stats above).
        _memoized_types.add(cls)
    elif cls not in _aggregate_memoized_types and cls is not _envelope_type:
        _plain_structs[cls] = (bytes(header), getter)
    return cls


# -- varints ---------------------------------------------------------------------------

#: Integers (after zigzag) are bounded to this many bits on the wire —
#: far above the 256-bit STANDARD group parameters, and enforced
#: symmetrically: `encode` refuses above it, `decode` rejects above it.
_MAX_INT_BITS = 4096
#: Longest varint the reader follows: bounds attacker-supplied "infinite"
#: varints a few bits above :data:`_MAX_INT_BITS`.
_MAX_VARINT_BYTES = _MAX_INT_BITS // 7 + 1


def _write_uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read one unsigned varint at ``pos``; returns ``(value, next_pos)``.

    The one reader behind every length, count, id and integer of the
    codec, the batch tables and the storage frames.  Strict: a varint
    that runs off the buffer, exceeds :data:`_MAX_VARINT_BYTES`, or is
    *overlong* (a multi-byte varint whose final group is zero — a second
    spelling of a shorter value) raises :class:`CodecError`, so every
    accepted byte string is the unique encoding of its value.
    """
    value = shift = 0
    for byte in data[pos : pos + _MAX_VARINT_BYTES]:
        if byte < 0x80:
            if shift and not byte:
                raise CodecError("non-canonical varint")
            return value | byte << shift, pos + shift // 7 + 1
        value |= (byte & 0x7F) << shift
        shift += 7
    if len(data) - pos < _MAX_VARINT_BYTES:
        raise CodecError("truncated varint")
    raise CodecError("varint too long")


# -- encoding --------------------------------------------------------------------------

#: ``tag + one-byte varint`` for every int whose zigzag form fits one byte.
_SMALL_INT = tuple(bytes((_TAG_INT, zigzagged)) for zigzagged in range(0x80))
#: ``struct header + kind str + int tag`` of a ``GroupElement`` of each
#: kind: all of such an element but its log's varint.
_ELEMENT_HEADS = {
    kind: bytes((_TAG_STRUCT, _ELEMENT_ID, 2, _TAG_STR, len(kind)))
    + kind.encode()
    + bytes((_TAG_INT,))
    for kind in (KIND_G, KIND_GT)
}


def _encode_items(out: bytearray, items: Any, table: Optional[dict] = None) -> None:
    """Append the encoding of every value of ``items`` — the one encode loop.

    A container or struct costs one call for all its children, not one
    per child; the types that make up nearly every wire value (int,
    bytes, str, tuple, plain registered struct) are handled in place.

    ``table`` selects the shared-aggregate encoding: an aggregate met
    here is written as a reference and its struct bytes are entered in
    ``table`` under their digest, and a payload is walked like any other
    struct, past the memo.  The mode is an argument, and the one producer
    of memoized bytes, :func:`_payload_struct_bytes`, never takes it: what
    enters ``_payload_memo`` (and the table) is plain by construction.
    """
    for value in items:
        kind = type(value)
        if kind is int:
            # Arbitrary-precision zigzag: n >= 0 -> 2n, n < 0 -> -2n - 1.
            zigzagged = value << 1 if value >= 0 else ((-value) << 1) - 1
            if zigzagged < 0x80:
                out += _SMALL_INT[zigzagged]
                continue
            if zigzagged.bit_length() > _MAX_INT_BITS:
                # Same bound the decoder enforces: fail loudly at the sender
                # instead of encoding bytes the receiver will reject.
                raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
            out.append(_TAG_INT)
            while zigzagged >= 0x80:  # _write_uvarint, in place
                out.append(zigzagged & 0x7F | 0x80)
                zigzagged >>= 7
            out.append(zigzagged)
        elif kind is bytes or kind is str:
            if kind is bytes:
                out.append(_TAG_BYTES)
            else:
                out.append(_TAG_STR)
                value = value.encode("utf-8")
            if len(value) < 0x80:
                out.append(len(value))
            else:
                _write_uvarint(out, len(value))
            out += value
        elif kind is tuple:
            out.append(_TAG_TUPLE)
            if len(value) < 0x80:
                out.append(len(value))
            else:
                _write_uvarint(out, len(value))
            _encode_items(out, value, table)
        elif (
            kind is GroupElement
            and type(log := value.log) is int
            and log >= 0
            and type(value.kind) is str
            and (head := _ELEMENT_HEADS.get(value.kind)) is not None
        ):
            # One prebuilt head, then the log's zigzag form (2 * log).
            zigzagged = log << 1
            if zigzagged.bit_length() > _MAX_INT_BITS:
                raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
            out += head
            while zigzagged >= 0x80:
                out.append(zigzagged & 0x7F | 0x80)
                zigzagged >>= 7
            out.append(zigzagged)
        elif (plain := _plain_structs.get(kind)) is not None:
            out += plain[0]
            _encode_items(out, plain[1](value), table)
        else:
            entry = _by_type.get(kind)
            if entry is None:
                encoder = _BUILTIN_ENCODERS.get(kind)
                if encoder is None:
                    raise CodecError(f"no codec registration for type {kind.__name__!r}")
                encoder(out, value, table)
            elif kind in _memoized_types and table is None:
                out += _payload_struct_bytes(value)
            elif kind in _aggregate_memoized_types:
                buffer = _payload_struct_bytes(value, _AGGREGATE_STATS)
                if table is None:
                    out += buffer
                else:
                    digest = sha256(buffer).digest()
                    table[digest] = buffer
                    out.append(_TAG_REF)
                    out += digest
            elif kind is _envelope_type:
                path, *routing = entry[3](value)
                out += entry[2]
                _encode_path(out, path)
                _encode_items(out, routing, table)
            else:
                out += entry[2]
                _encode_items(out, entry[3](value), table)


def _encode_path(out: bytearray, path: Any) -> None:
    """Append an envelope path: its interned bytes, or — for an unhashable
    or non-tuple path (forged envelope; the decoder rejects it anyway) —
    a direct encoding."""
    cached = _path_struct_bytes(path) if type(path) is tuple else None
    if cached is None:
        _encode_items(out, (path,))
    else:
        out += cached


def _encode_into(out: bytearray, value: Any) -> None:
    """Append one value's encoding (hand-built frames in the tests)."""
    _encode_items(out, (value,))


def _encoded(value: Any, table: Optional[dict] = None) -> bytes:
    out = bytearray()
    _encode_items(out, (value,), table)
    return bytes(out)


def _encode_list(out: bytearray, value: list, table: Optional[dict]) -> None:
    out.append(_TAG_LIST)
    _write_uvarint(out, len(value))
    _encode_items(out, value, table)


def _encoding_order(keys: Any) -> Optional[list]:
    """The non-empty ``keys`` (a set, or a dict's keys) sorted by their
    encodings, where that order is known without encoding them: ints in
    [0, 64) (one zigzag byte, ``2 * key``) by value, and ``bytes`` or ASCII
    ``str`` shorter than 128 (a one-byte length) by ``(length, key)``.
    ``None`` for any other mix."""
    kind = type(next(iter(keys)))
    if kind is int:
        if all(type(key) is int and 0 <= key < 64 for key in keys):
            return sorted(keys)
    elif kind is str or kind is bytes:
        if all(
            type(key) is kind and len(key) < 0x80 and (kind is bytes or key.isascii())
            for key in keys
        ):
            return sorted(sorted(keys), key=len)  # stable: by (len, key)
    return None


def _distinct(encodings: Any, count: int) -> None:
    """Refuse at the sender what the decoder would refuse: two distinct
    members or keys (two NaNs) with one encoding."""
    if len(encodings) != count:
        raise CodecError("two set members or dict keys encode alike")


def _encode_set(out: bytearray, value: Any, table: Optional[dict]) -> None:
    out.append(_TAG_FROZENSET if type(value) is frozenset else _TAG_SET)
    _write_uvarint(out, len(value))
    if not value:
        return
    members = _encoding_order(value)
    if members is not None:
        _encode_items(out, members, table)
        return
    encodings = {_encoded(member, table) for member in value}
    _distinct(encodings, len(value))
    out += b"".join(sorted(encodings))


def _encode_dict(out: bytearray, value: dict, table: Optional[dict]) -> None:
    out.append(_TAG_DICT)
    _write_uvarint(out, len(value))
    if not value:
        return
    keys = _encoding_order(value)
    if keys is not None:
        _encode_items(out, [part for key in keys for part in (key, value[key])], table)
        return
    by_encoding = {_encoded(key, table): mapped for key, mapped in value.items()}
    _distinct(by_encoding, len(value))
    for encoding in sorted(by_encoding):
        out += encoding
        _encode_items(out, (by_encoding[encoding],), table)


def _encode_float(out: bytearray, value: float, table: Optional[dict]) -> None:
    out.append(_TAG_FLOAT)
    out += _struct.pack(">d", value)


class SharedRecord(NamedTuple):
    """A value already encoded for a shared-aggregate body: its bytes and
    the table entries (digest -> struct bytes) its references name.

    References name aggregates by digest, not by table position, so the
    bytes are the same wherever the value sits and in whichever encoding
    it is spliced into: :func:`encode_shared` appends ``data`` verbatim
    where it meets the record.  ``Party.freeze`` keeps one per unchanged
    instance.
    """

    data: bytes
    entries: dict


def _encode_record(out: bytearray, value: SharedRecord, table: Optional[dict]) -> None:
    if table is None:
        raise CodecError("a SharedRecord is legal inside encode_shared only")
    out += value.data
    table.update(value.entries)


_BUILTIN_ENCODERS: dict[type, Callable[[bytearray, Any, Optional[dict]], None]] = {
    type(None): lambda out, value, table: out.append(_TAG_NONE),
    bool: lambda out, value, table: out.append(_TAG_TRUE if value else _TAG_FALSE),
    list: _encode_list,
    frozenset: _encode_set,
    set: _encode_set,
    dict: _encode_dict,
    float: _encode_float,
    SharedRecord: _encode_record,
}


def _payload_struct_bytes(
    value: Any, stats: Optional[tuple[str, str, str]] = _PAYLOAD_STATS
) -> bytes:
    """The identity-memoized struct encoding of a payload or an aggregate.

    The caller must have checked that ``type(value)`` is in one of the
    two served type sets.  ``stats`` names the calls/hits/misses keys of
    :data:`encode_stats` to count under; ``None`` fetches without
    counting — wire-layer *reuse* of already-produced bytes (batch
    assembly, size accounting of built frames) must not distort the
    encode-once counters the perf harness asserts on.

    A value whose tuple-annotated fields are not all real tuples (a
    list smuggled in by an in-process adversary, who could mutate it
    after this first encoding) is encoded, and ``IdentityMemo.put`` refuses it.
    """
    if stats:
        encode_stats[stats[0]] += 1
    cached = _payload_memo.get(value)
    if cached is not None:
        if stats:
            encode_stats[stats[1]] += 1
        return cached
    if stats:
        encode_stats[stats[2]] += 1
    _type_id, _fields, header, getter = _by_type[type(value)]
    chunk = bytearray(header)
    _encode_items(chunk, getter(value))
    buffer = bytes(chunk)
    _payload_memo.put(value, buffer)
    return buffer


def _intern_path(key: Any, value: Any) -> None:
    """One insert into the two-way path table, under its single bound."""
    if len(_path_memo) >= _PATH_MEMO_LIMIT:
        _path_memo.clear()
    _path_memo[key] = value


def _path_struct_bytes(path: tuple) -> Optional[bytes]:
    """The value-memoized encoding of an envelope path; ``None`` if the
    path is unhashable (forged) and therefore not memoizable."""
    try:
        cached = _path_memo.get(path)
    except TypeError:
        return None
    if cached is None:
        cached = _encoded(path)
        _intern_path(path, cached)
    return cached


def encode(value: Any) -> bytes:
    """Deterministically encode ``value`` to bytes.

    Raises :class:`CodecError` for unregistered/unsupported types.  A
    payload or an aggregate is its memoized struct bytes, as anywhere.
    """
    _ensure_registered()
    kind = type(value)
    if kind in _aggregate_memoized_types:
        return _payload_struct_bytes(value, _AGGREGATE_STATS)
    if kind in _memoized_types:
        return _payload_struct_bytes(value)
    return _encoded(value)


def shared_record(value: Any) -> SharedRecord:
    """Encode ``value`` as it would sit in an :func:`encode_shared` body."""
    _ensure_registered()
    entries: dict[bytes, bytes] = {}
    return SharedRecord(_encoded(value, entries), entries)


def encode_shared(value: Any) -> bytes:
    """Encode ``value`` with every aggregate stored once (see the module
    docstring); ``value`` may hold :class:`SharedRecord` parts.

    For snapshots only: :func:`decode_shared` reads the result, and no
    reader of bytes that arrive from a peer does.
    """
    record = shared_record(value)
    out = bytearray(SHARED_OPEN)
    _write_uvarint(out, len(record.entries))
    for digest in sorted(record.entries):
        out += record.entries[digest]
    out += record.data
    return bytes(out)


# -- decoding --------------------------------------------------------------------------


def _compile_decode_plan(type_id: int) -> tuple:
    entry = _by_id.get(type_id)
    if entry is None:
        raise CodecError(f"unknown codec type id {type_id}")
    cls, fields, checkers = entry
    checks = []
    for index, checker in enumerate(checkers):
        if isinstance(checker, str):
            # An annotation naming a type the registry doesn't know stays
            # unchecked (``Any`` fields too — handlers isinstance-check those).
            checker = _by_name.get(checker)
        if checker is not None:
            checks.append((index, checker))
    plan = _decode_plans[type_id] = (cls, fields, tuple(checks))
    return plan


def _decode_seq(
    data: bytes,
    size: int,
    pos: int,
    count: int,
    depth: int,
    refs: Optional[tuple[dict, set]] = None,
) -> tuple[list, int]:
    """Decode ``count`` consecutive values at ``pos`` — the one decode loop.

    Returns ``(values, next_pos)``.  ``size`` is ``len(data)``, taken once
    by the caller; ``depth`` is the nesting depth of these values.  Like
    the encode loop, a container or struct costs one call for all its
    children; tags are tested most-frequent first and the one-byte varint
    (every tag-sized count, id and length, and most ints) is read in
    place.  Every strictness check of the format is made per value.

    ``refs`` is ``None`` except in the body of a shared-aggregate
    encoding (:func:`decode_shared`): there it is the decoded table and
    the set of digests referenced so far, a reference tag resolves
    against it and an aggregate spelled inline is rejected.
    """
    if count and depth > 64:
        raise CodecError("value nesting too deep")
    values: list = []
    append = values.append
    for _ in range(count):
        if pos >= size:
            raise CodecError("truncated value")
        tag = data[pos]
        pos += 1
        if tag == _TAG_INT:
            if pos < size and data[pos] < 0x80:
                raw = data[pos]
                pos += 1
            else:
                raw, pos = _read_uvarint(data, pos)
                if raw.bit_length() > _MAX_INT_BITS:
                    # Exactly the bound encode enforces: without this, a crafted
                    # frame could inject an int honest parties cannot re-encode.
                    raise CodecError(
                        f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)"
                    )
            append(-((raw + 1) >> 1) if raw & 1 else raw >> 1)  # zigzag
        elif tag == _TAG_STRUCT:
            start = pos - 1
            if pos < size and data[pos] < 0x80:
                type_id = data[pos]
                pos += 1
            else:
                type_id, pos = _read_uvarint(data, pos)
            cls, fields, checks = _decode_plans.get(type_id) or _compile_decode_plan(type_id)
            if pos < size and data[pos] < 0x80:
                arity = data[pos]
                pos += 1
            else:
                arity, pos = _read_uvarint(data, pos)
            if arity != len(fields):
                raise CodecError(
                    f"field count mismatch for {cls.__name__}: "
                    f"expected {len(fields)}, got {arity}"
                )
            members, pos = _decode_seq(data, size, pos, arity, depth + 1, refs)
            for index, expected in checks:
                member = members[index]
                # An ``int`` field holds an int, never a bool: True would
                # equal 1 and be a second spelling of it.
                if type(member) is not expected and (
                    expected is int or not isinstance(member, expected)
                ):
                    # Attacker-crafted field value whose type contradicts
                    # the field's concrete annotation: fail closed.
                    raise CodecError(
                        f"field {cls.__name__}.{fields[index]} expects "
                        f"{expected.__name__}, got {type(member).__name__}"
                    )
            try:
                value = cls(*members)
            except CodecError:
                raise
            except Exception as exc:
                raise CodecError(f"cannot construct {cls.__name__}: {exc}") from exc
            if cls in _aggregate_memoized_types:
                if refs is not None:
                    raise CodecError(
                        f"{cls.__name__} spelled inline where a reference belongs"
                    )
                # The decoder is the other producer of an aggregate's bytes:
                # accepted bytes are the unique encoding of their value, so
                # the span just read *is* what a walk would emit.  A slice of
                # ``bytes`` is an independent copy, never a view on the frame.
                _payload_memo.put(value, data[start:pos])
            append(value)
        elif tag == _TAG_BYTES or tag == _TAG_STR:
            if pos < size and data[pos] < 0x80:
                end = pos + 1 + data[pos]
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
                end = pos + length
            if end > size:
                raise CodecError("truncated bytes" if tag == _TAG_BYTES else "truncated string")
            if tag == _TAG_BYTES:
                append(data[pos:end])
            else:
                try:
                    append(data[pos:end].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise CodecError("invalid UTF-8 in string") from exc
            pos = end
        elif tag == _TAG_TUPLE:
            if pos < size and data[pos] < 0x80:
                length = data[pos]
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
            if length > size:  # cheap bound: every item costs >= 1 byte
                raise CodecError("container length exceeds buffer")
            members, pos = _decode_seq(data, size, pos, length, depth + 1, refs)
            append(tuple(members))
        else:
            value, pos = _decode_rare(data, size, pos, tag, depth, refs)
            append(value)
    return values, pos


def _decode_rare(
    data: bytes, size: int, pos: int, tag: int, depth: int, refs: Optional[tuple[dict, set]]
) -> tuple[Any, int]:
    """The value whose ``tag`` was just read at ``pos - 1``, for the tags
    :func:`_decode_seq` does not handle in place."""
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_FLOAT:
        if pos + 8 > size:
            raise CodecError("truncated float")
        return _struct.unpack_from(">d", data, pos)[0], pos + 8
    if tag == _TAG_REF and refs is not None:
        table, referenced = refs
        digest = data[pos : pos + _REF_DIGEST_BYTES]
        value = table.get(digest)  # a truncated digest is no key either
        if value is None:
            raise CodecError("reference to no shared table entry")
        referenced.add(digest)
        return value, pos + _REF_DIGEST_BYTES
    if tag not in (_TAG_LIST, _TAG_FROZENSET, _TAG_SET, _TAG_DICT):
        raise CodecError(f"unknown tag byte {tag:#04x}")
    length, pos = _read_uvarint(data, pos)
    if length > size:
        raise CodecError("container length exceeds buffer")
    if tag == _TAG_LIST:
        return _decode_seq(data, size, pos, length, depth + 1, refs)
    # Sets and dicts are written in sorted-encoding order, and only that
    # order is read back: each member (dict: key) span must sort strictly
    # after the one before it, so a set or dict too has one spelling.
    pairs = tag == _TAG_DICT
    members: list = []
    previous = b""
    for _ in range(length):
        (member,), end = _decode_seq(data, size, pos, 1, depth + 1, refs)
        span = data[pos:end]
        if span <= previous:
            raise CodecError("set members or dict keys out of order")
        previous = span
        pos = end
        if pairs:
            (mapped,), pos = _decode_seq(data, size, pos, 1, depth + 1, refs)
            member = (member, mapped)
        members.append(member)
    try:
        result = (dict if pairs else frozenset if tag == _TAG_FROZENSET else set)(members)
    except TypeError as exc:
        raise CodecError("unhashable set member or dict key") from exc
    if len(result) != length:
        # Distinct spellings of equal values (1 and True, 0.0 and -0.0).
        raise CodecError("duplicate set member or dict key")
    return result, pos


def decode(data: bytes) -> Any:
    """Decode one value; the buffer must contain exactly one encoding.

    Raises :class:`CodecError` on any malformation, including trailing
    bytes after a well-formed prefix.
    """
    _ensure_registered()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    values, pos = _decode_seq(data, len(data), 0, 1, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return values[0]


def decode_shared(data: bytes) -> Any:
    """Decode one :func:`encode_shared` buffer, strictly.

    Every reference to one digest resolves to the *same* object, and each
    table entry enters ``_payload_memo`` with the bytes it was read from,
    as any decoded aggregate does.
    """
    _ensure_registered()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    size = len(data)
    if data[:1] != SHARED_OPEN:
        raise CodecError("not a shared-aggregate encoding")
    count, pos = _read_uvarint(data, 1)
    if count > size:
        raise CodecError("shared table count exceeds buffer")
    table: dict[bytes, Any] = {}
    previous = b""
    for _ in range(count):
        start = pos
        # Depth 1 here and below: the five-field envelope, the one value
        # with two spellings, is a top-of-frame affair and never state.
        (entry,), pos = _decode_seq(data, size, pos, 1, 1)
        if type(entry) not in _aggregate_memoized_types:
            raise CodecError("shared table entry is not an aggregate")
        digest = sha256(data[start:pos]).digest()
        if digest <= previous:
            raise CodecError("shared table out of digest order")
        previous = digest
        table[digest] = entry
    referenced: set[bytes] = set()
    (value,), pos = _decode_seq(data, size, pos, 1, 1, (table, referenced))
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes after value")
    if len(referenced) != len(table):
        raise CodecError("shared table entry is never referenced")
    return value


# -- envelopes -------------------------------------------------------------------------


def encode_envelope(envelope: Any) -> bytes:
    """Encode a routed :class:`~repro.net.envelope.Envelope` to wire bytes."""
    _ensure_registered()
    if type(envelope) is not _envelope_type:
        raise CodecError(f"expected Envelope, got {type(envelope).__name__}")
    return _encoded(envelope)


def _validate_path(path: Any) -> None:
    if not isinstance(path, tuple):
        raise CodecError("envelope path must be a tuple")
    try:
        hash(path)
    except TypeError as exc:
        # An unhashable path element (e.g. a list) would blow up the
        # recipient's instance-table lookup — fail closed here instead.
        raise CodecError("envelope path is not hashable") from exc


def _validate_routing(sender: Any, recipient: Any, depth: Any, session: Any) -> None:
    if not (type(sender) is type(recipient) is type(depth) is type(session) is int):
        for field_name, value in (
            ("sender", sender),
            ("recipient", recipient),
            ("depth", depth),
            ("session", session),
        ):
            if type(value) is not int:
                raise CodecError(f"envelope {field_name} must be an int")
    if session < 0:
        raise CodecError("envelope session must be non-negative")


def _validate_envelope(value: Any) -> Any:
    """Shared post-decode envelope validation (single and batch frames).

    The value must be an envelope with an int sender/recipient/depth/
    session, a hashable tuple path, and a
    :class:`~repro.net.payload.Payload` payload — anything else raises
    :class:`CodecError`.  (The batch decoder applies the same three
    checks to the parts before it assembles the envelope.)
    """
    if not isinstance(value, _envelope_type):
        raise CodecError("decoded value is not an Envelope")
    _validate_path(value.path)
    if not isinstance(value.payload, _payload_type):
        raise CodecError("envelope payload is not a registered Payload")
    _validate_routing(value.sender, value.recipient, value.depth, value.session)
    return value


def decode_envelope(data: bytes) -> Any:
    """Decode wire bytes into an :class:`~repro.net.envelope.Envelope`.

    The decoded value must be an envelope with an int sender/recipient/
    depth, a tuple path, and a :class:`~repro.net.payload.Payload`
    payload — anything else raises :class:`CodecError`.
    """
    return _validate_envelope(decode(data))


# -- sizes without bytes ---------------------------------------------------------------


def _size_items(items: Any) -> int:
    """Bytes :func:`_encode_items` would append for ``items`` (plain mode),
    counted instead of written: the size walk.

    Ints and group elements are sized from ``bit_length``, bytes and strs
    from their lengths, tuples and registered structs by walking their
    parts; a payload or an aggregate whose bytes the memo already holds
    is its length.  Every other type (``None``, bools, lists, sets,
    dicts, floats) is sized by encoding it, so each rare type has one
    implementation.  Raises :class:`CodecError` wherever the encoder
    does; a str UTF-8 cannot spell raises ``UnicodeEncodeError`` here, as
    in the encoder, and :func:`_walk` turns it into a ``CodecError``.
    Outside such a rare-type container a payload or an aggregate is
    never encoded: it counts nothing in :data:`encode_stats` and enters
    no memo.
    """
    size = 0
    for value in items:
        kind = type(value)
        if kind is int:
            zigzagged = value << 1 if value >= 0 else ((-value) << 1) - 1
            if zigzagged < 0x80:
                size += 2
                continue
            bits = zigzagged.bit_length()
            if bits > _MAX_INT_BITS:
                raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
            size += 1 + (bits + 6) // 7
        elif kind is bytes:
            length = len(value)
            size += 1 + _uvarint_size(length) + length
        elif kind is str:
            length = len(value) if value.isascii() else len(value.encode("utf-8"))
            size += 1 + _uvarint_size(length) + length
        elif kind is tuple:
            size += 1 + _uvarint_size(len(value)) + _size_items(value)
        elif (
            kind is GroupElement
            and type(log := value.log) is int
            and log >= 0
            and type(value.kind) is str
            and (head := _ELEMENT_HEADS.get(value.kind)) is not None
        ):
            zigzagged = log << 1
            if zigzagged.bit_length() > _MAX_INT_BITS:
                raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
            size += len(head) + _uvarint_size(zigzagged)
        elif (plain := _plain_structs.get(kind)) is not None:
            size += len(plain[0]) + _size_items(plain[1](value))
        else:
            entry = _by_type.get(kind)
            if entry is None:
                size += len(_encoded(value))
            elif kind is _envelope_type:
                path, *routing = entry[3](value)
                cached = _path_struct_bytes(path) if type(path) is tuple else None
                size += len(entry[2]) + (
                    _size_items((path,)) if cached is None else len(cached)
                )
                size += _size_items(routing)
            elif (cached := _payload_memo.get(value)) is not None:
                size += len(cached)  # a payload or an aggregate already encoded
            else:
                size += len(entry[2]) + _size_items(entry[3](value))
    return size


def _walk(value: Any) -> int:
    """:func:`_size_items` of one value; an unencodable str is a
    :class:`CodecError`, so a sizing-only caller catches one type."""
    try:
        return _size_items((value,))
    except UnicodeEncodeError as exc:
        raise CodecError("str is not encodable as UTF-8") from exc


def encoded_size(value: Any) -> int:
    """Bytes ``value`` occupies on the wire (without transport framing):
    ``len(encode(value))``, walked, not built."""
    _ensure_registered()
    return _walk(value)


def encoded_envelope_size(envelope: Any) -> int:
    """Bytes of ``envelope``'s bare encoding: the protocol byte metric.

    ``len(encode_envelope(envelope))``, walked, not built (see
    :func:`_size_items`): the struct header, the interned path bytes and
    the varint widths of the four routing ints, plus the payload — its
    memoized bytes' length where the bytes exist, else its walk.
    """
    _ensure_registered()
    if type(envelope) is not _envelope_type:
        raise CodecError(f"expected Envelope, got {type(envelope).__name__}")
    return _walk(envelope)


# -- batch frames ----------------------------------------------------------------------


def _uvarint_size(value: int) -> int:
    """Bytes :func:`_write_uvarint` emits for ``value`` (>= 0)."""
    if value < 128:  # the overwhelmingly common case on the size path
        return 1
    return (value.bit_length() + 6) // 7


def _batch_payload_bytes(payload: Any) -> bytes:
    """One payload's encoding for batch assembly (never counts stats)."""
    if type(payload) in _memoized_types:
        return _payload_struct_bytes(payload, None)
    return encode(payload)


def _batch_header_into(out: bytearray, envelope: Any) -> None:
    """Append one envelope's routing header (everything but the payload)."""
    out += _BATCH_HEADER_OPEN
    _encode_path(out, envelope.path)
    _encode_items(
        out, (envelope.sender, envelope.recipient, envelope.depth, envelope.session)
    )


def encode_batch(envelopes: Any) -> bytes:
    """Encode several envelopes into one coalesced wire frame body.

    Payloads are deduplicated within the frame (a multicast payload
    shared by k envelopes of the frame is serialized once).  One
    envelope is a batch of one: every frame has the same format.
    """
    _ensure_registered()
    envelopes = list(envelopes)
    if not envelopes:
        raise CodecError("cannot encode an empty batch")
    blobs: list[bytes] = []
    index_by_bytes: dict[bytes, int] = {}
    records: list[tuple[int, Any]] = []
    for envelope in envelopes:
        if type(envelope) is not _envelope_type:
            raise CodecError(
                f"expected Envelope, got {type(envelope).__name__}"
            )
        blob = _batch_payload_bytes(envelope.payload)
        index = index_by_bytes.get(blob)
        if index is None:
            index = len(blobs)
            index_by_bytes[blob] = index
            blobs.append(blob)
        records.append((index, envelope))
    out = bytearray((BATCH_MAGIC, BATCH_VERSION))
    _write_uvarint(out, len(blobs))
    for blob in blobs:
        _write_uvarint(out, len(blob))
        out.extend(blob)
    _write_uvarint(out, len(records))
    for index, envelope in records:
        _write_uvarint(out, index)
        _batch_header_into(out, envelope)
    return bytes(out)


# No runtime calls ``encoded_size`` or ``encoded_batch_size``: both stay
# defined while the benchmark's ``net.codec.size`` span binds them
# (``perf/trace.py``), and go with ROADMAP item 4(b).
def encoded_batch_size(envelopes: list, body_sizes: list[int]) -> int:
    """``len(encode_batch(envelopes))`` without building the frame.

    ``body_sizes[i]`` is ``len(encode_envelope(envelopes[i]))``.  A bare
    envelope is ``3 + path + ints + payload`` bytes and its batch header
    ``2 + path + ints``, so ``header = body - payload - 1``.
    """
    _ensure_registered()
    if not envelopes:
        raise CodecError("cannot encode an empty batch")
    blob_total = blob_count = total = 0
    index_by_bytes: dict[bytes, int] = {}
    # A multicast's envelopes are adjacent and share one payload object:
    # its blob length and table index carry over from the previous one.
    previous: Any = index_by_bytes  # no envelope's payload is this dict
    blob_size = index_size = 0
    for envelope, body_size in zip(envelopes, body_sizes, strict=True):
        if type(envelope) is not _envelope_type:
            raise CodecError(f"expected Envelope, got {type(envelope).__name__}")
        payload = envelope.payload
        if payload is not previous:
            blob = _batch_payload_bytes(payload)
            index = index_by_bytes.get(blob)
            if index is None:
                index = blob_count
                index_by_bytes[blob] = index
                blob_count += 1
                size = len(blob)
                blob_total += _uvarint_size(size) + size
            previous = payload
            blob_size = len(blob)
            index_size = _uvarint_size(index)
        total += index_size + body_size - blob_size - 1
    return (
        total
        + 2  # magic + version
        + _uvarint_size(blob_count)
        + blob_total
        + _uvarint_size(len(envelopes))
    )


def decode_batch(data: bytes) -> list:
    """Decode one wire frame body into its list of envelopes.

    The body must open with :data:`BATCH_MAGIC`; a bare envelope
    encoding is not a frame.  Every envelope passes the same validation
    :func:`decode_envelope` applies; any malformation raises
    :class:`CodecError`.
    """
    _ensure_registered()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if not data:
        raise CodecError("empty frame")
    if data[0] != BATCH_MAGIC:
        raise CodecError(f"not a batch frame (first byte {data[0]:#04x})")
    if len(data) < 2:
        raise CodecError("truncated batch frame")
    if data[1] != BATCH_VERSION:
        raise CodecError(f"unsupported batch frame version {data[1]}")
    size = len(data)
    blob_count, pos = _read_uvarint(data, 2)
    if blob_count == 0 or blob_count > size:
        raise CodecError("batch payload table count out of range")
    payloads = []
    for _ in range(blob_count):
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > size:
            raise CodecError("truncated batch payload blob")
        (value,), pos = _decode_seq(data, size, pos, 1, 0)
        if pos != end:
            raise CodecError("batch payload blob length mismatch")
        if not isinstance(value, _payload_type):
            raise CodecError("batch payload is not a registered Payload")
        payloads.append(value)
    envelope_count, pos = _read_uvarint(data, pos)
    if envelope_count == 0 or envelope_count > size:
        raise CodecError("batch envelope count out of range")
    envelopes = []
    for _ in range(envelope_count):
        if pos < size and data[pos] < 0x80:
            index = data[pos]
            pos += 1
        else:
            index, pos = _read_uvarint(data, pos)
        if index >= blob_count:
            raise CodecError("batch payload index out of range")
        # Varints are canonical, so a five-element tuple opens one way only.
        if data[pos : pos + 2] != _BATCH_HEADER_OPEN:
            raise CodecError("malformed batch envelope header")
        path, pos = _decode_path(data, size, pos + 2)
        (sender, recipient, depth, session), pos = _decode_seq(data, size, pos, 4, 1)
        _validate_routing(sender, recipient, depth, session)
        envelopes.append(
            _envelope_type(path, sender, recipient, payloads[index], depth, session)
        )
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes after batch")
    return envelopes


def _decode_path(data: bytes, size: int, pos: int) -> tuple[tuple, int]:
    """Decode and validate the envelope path at ``pos`` of a batch header.

    A path repeats for every message of its instance, so its wire span is
    found without building anything and looked up in the path table; only
    a span never seen before (or one the scan declines) is decoded, and it
    is interned only once it decoded *and* validated — a rejected path
    never enters the table.
    """
    end = _plain_path_end(data, size, pos)
    if end:
        path = _path_memo.get(data[pos:end])
        if path is not None:
            return path, end
    (path,), stop = _decode_seq(data, size, pos, 1, 1)
    _validate_path(path)
    if stop == end:
        _intern_path(data[pos:end], path)
    return path, stop


def _plain_path_end(data: bytes, size: int, pos: int) -> int:
    """Where the value at ``pos`` ends, if it is made only of ints, strs,
    bytes and tuples of fewer than 128 elements with one-byte lengths —
    what honest instance paths are made of; ``0`` for anything else (the
    caller then takes the normal decoder).  Checks nothing but bounds:
    the span is only ever a lookup key for bytes that already decoded.
    """
    pending = 1
    while pending:
        if pos + 1 >= size:  # each of these values is a tag and >= 1 more byte
            return 0
        tag = data[pos]
        byte = data[pos + 1]
        pos += 2
        pending -= 1
        if tag == _TAG_INT:
            while byte >= 0x80:
                if pos >= size:
                    return 0
                byte = data[pos]
                pos += 1
        elif tag == _TAG_STR or tag == _TAG_BYTES:
            if byte >= 0x80:
                return 0
            pos += byte
        elif tag == _TAG_TUPLE:
            if byte >= 0x80:
                return 0
            pending += byte
        else:
            return 0
    return pos if pos <= size else 0


# -- built-in registrations ------------------------------------------------------------


def _ensure_registered() -> None:
    """Register the repo's payloads and crypto value types (idempotent).

    Registration is lazy so that this module can be imported from anywhere
    in the net layer without creating import cycles with the protocol
    modules it serializes.
    """
    global _builtin_registered, _registering
    if _builtin_registered or _registering:
        return
    # The success flag is only set after every registration ran: if an
    # import fails mid-way, the next call retries and re-raises the real
    # error instead of silently operating on a half-filled registry.
    # The in-progress flag guards against re-entrance while the protocol
    # modules are importing.
    _registering = True
    try:
        _register_builtins()
        _builtin_registered = True
    finally:
        _registering = False


def _register_builtins() -> None:
    from repro.net.envelope import Envelope
    from repro.net.payload import Payload
    from repro.crypto import nizk, schnorr
    from repro.crypto.merkle import MerkleProof
    from repro.crypto.pvss import ContributorTag, PVSSContribution, PVSSTranscript
    from repro.crypto.reshare import (
        HandoffSpec,
        ReshareBundle,
        ReshareDealing,
        ReshareTranscript,
    )
    from repro.crypto.threshold_enc import Ciphertext, DecryptionShare
    from repro.crypto.threshold_sig import SignatureShare, ThresholdSignature
    from repro.crypto.threshold_vrf import EvalShare
    from repro.core.certificates import KeyTuple, SignedVote
    from repro.core.adkg import ADKGShare
    from repro.core.reshare import ReshareDealingMsg
    from repro.core.nwh import (
        BlameMsg,
        CommitMsg,
        EchoMsg,
        EquivocateMsg,
        KeyVoteMsg,
        LockVoteMsg,
        Suggest,
    )
    from repro.core.proposal_election import PEDkgShare, PEEvalShare
    from repro.broadcast.bracha import BrachaEcho, BrachaReady, BrachaVal
    from repro.broadcast.ct_rbc import CTEcho, CTReady, CTVal
    from repro.baselines.aba import Aux, BVal, CoinShareMsg, Decided

    # Substrate, and the aggregates of the inclusion rule above, named
    # before they register (``register`` gives neither a plain-struct entry).
    global _envelope_type, _payload_type
    _envelope_type, _payload_type = Envelope, Payload
    _aggregate_memoized_types.update(
        (
            PVSSContribution,
            PVSSTranscript,
            HandoffSpec,
            ReshareDealing,
            ReshareBundle,
            ReshareTranscript,
        )
    )
    register(Envelope, _ENVELOPE_ID)
    # Crypto value types.
    register(GroupElement, _ELEMENT_ID)
    register(schnorr.Signature, 21)
    register(nizk.DlogProof, 22)
    register(MerkleProof, 24)
    register(ContributorTag, 26)
    register(PVSSContribution, 27)
    register(PVSSTranscript, 28)
    register(EvalShare, 29)
    register(SignedVote, 30)
    register(KeyTuple, 31)
    register(SignatureShare, 32)
    register(ThresholdSignature, 33)
    register(Ciphertext, 34)
    register(DecryptionShare, 35)
    register(HandoffSpec, 39)
    register(ReshareDealing, 40)
    register(ReshareBundle, 41)
    register(ReshareTranscript, 42)
    # Protocol payloads.
    register(BrachaVal, 64)
    register(BrachaEcho, 65)
    register(BrachaReady, 66)
    register(CTVal, 67)
    register(CTEcho, 68)
    register(CTReady, 69)
    register(PEDkgShare, 70)
    register(PEEvalShare, 71)
    register(Suggest, 72)
    register(EchoMsg, 73)
    register(KeyVoteMsg, 74)
    register(LockVoteMsg, 75)
    register(CommitMsg, 76)
    register(BlameMsg, 77)
    register(EquivocateMsg, 78)
    register(ADKGShare, 79)
    register(BVal, 80)
    register(Aux, 81)
    register(CoinShareMsg, 82)
    register(Decided, 83)
    register(ReshareDealingMsg, 84)
