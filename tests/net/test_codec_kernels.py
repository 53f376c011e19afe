"""The codec's encode kernels against a plain per-byte encoder.

The encoder finds a plain registered struct with one lookup, writes a
G or GT element from one prebuilt head, orders a map or set without
encoding its keys where it can, writes it in one pass and returns a
payload's or an aggregate's memoized bytes.  Each case here is encoded
twice — by the codec and by a test-local per-byte loop that walks every
value and encodes every set member and map pair on its own, with no memo
— and must give equal bytes or an equal :class:`CodecError`.  The last
test pins the bool rule: an ``int`` field or routing field never holds a
bool.
"""

import hashlib
import operator
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.aba import Decided
from repro.crypto import nizk, schnorr
from repro.crypto.group import SchnorrGroup
from repro.crypto.merkle import MerkleProof
from repro.crypto.pairing import BilinearGroup, GroupElement
from repro.crypto.params import get_params
from repro.crypto.pvss import ContributorTag, PVSSTranscript
from repro.net import codec
from repro.net.envelope import Envelope

Q = get_params("TESTING").q


def _uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _reference(value, table=None) -> bytes:
    """The value's encoding by the plain per-byte loop, with no memo; with
    a ``table``, an aggregate is a reference to its entry there."""
    out = bytearray()
    _reference_into(out, value, table)
    return bytes(out)


def _reference_shared(value) -> bytes:
    """``encode_shared`` by the same loop: the digest-ordered table, then the body."""
    table = {}
    body = _reference(value, table)
    out = bytearray(b"\x0c")
    _uvarint(out, len(table))
    for digest in sorted(table):
        out += table[digest]
    return bytes(out + body)


def _reference_into(out: bytearray, value, table=None) -> None:
    kind = type(value)
    if table is not None and kind in codec._aggregate_memoized_types:
        entry = _reference(value)
        digest = hashlib.sha256(entry).digest()
        table[digest] = entry
        out += b"\x0c" + digest
    elif value is None:
        out.append(0x00)
    elif kind is bool:
        out.append(0x01 if value else 0x02)
    elif kind is int:
        zigzagged = value << 1 if value >= 0 else ((-value) << 1) - 1
        if zigzagged.bit_length() > 4096:
            raise codec.CodecError("integer exceeds the codec bound (4096 bits)")
        out.append(0x03)
        _uvarint(out, zigzagged)
    elif kind is bytes or kind is str:
        raw = value if kind is bytes else value.encode("utf-8")
        out.append(0x04 if kind is bytes else 0x05)
        _uvarint(out, len(raw))
        out += raw
    elif kind is tuple or kind is list:
        out.append(0x06 if kind is tuple else 0x07)
        _uvarint(out, len(value))
        for item in value:
            _reference_into(out, item, table)
    elif kind is set or kind is frozenset:
        out.append(0x08 if kind is frozenset else 0x09)
        _uvarint(out, len(value))
        out += b"".join(sorted(_reference(item, table) for item in value))
    elif kind is dict:
        out.append(0x0A)
        _uvarint(out, len(value))
        pairs = ((_reference(k, table), _reference(v, table)) for k, v in value.items())
        for key, mapped in sorted(pairs):
            out += key + mapped
    elif kind is float:
        out.append(0x0B)
        out += struct.pack(">d", value)
    elif kind in codec._by_type:
        type_id, fields, _header, _getter = codec._by_type[kind]
        out.append(0x10)
        _uvarint(out, type_id)
        _uvarint(out, len(fields))
        for name in fields:
            _reference_into(out, getattr(value, name), table)
    else:
        raise codec.CodecError(f"no codec registration for type {kind.__name__!r}")


def _outcome(encode, value):
    try:
        return encode(value)
    except codec.CodecError as exc:
        return ("CodecError", str(exc))


def _assert_same(value):
    assert _outcome(codec.encode, value) == _outcome(_reference, value)


def _width_boundaries():
    """``±2^(7k) ± 1`` for every varint width, and the 4096-bit bound."""
    values = {0, 1, -1}
    for k in range(1, 4096 // 7 + 2):
        for edge in (1 << (7 * k), -(1 << (7 * k))):
            values.update((edge - 1, edge, edge + 1))
    for edge in (1 << 4095, -(1 << 4095)):
        values.update((edge - 1, edge, edge + 1))
    return sorted(values)


def test_ints_at_every_varint_width_and_the_bound():
    codec._ensure_registered()
    for value in _width_boundaries():
        _assert_same(value)
    with pytest.raises(codec.CodecError):
        codec.encode(1 << 4095)
    assert codec.decode(codec.encode(-(1 << 4095))) == -(1 << 4095)


@given(st.integers(min_value=-(1 << 4100), max_value=1 << 4100))
@settings(max_examples=100)
def test_ints_of_any_width(value):
    codec._ensure_registered()
    _assert_same(value)


logs = st.one_of(
    st.integers(min_value=0, max_value=Q - 1),
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=Q, max_value=1 << 80),
    st.text(max_size=4),
)
elements = st.builds(GroupElement, st.sampled_from(["G", "GT", "X", ""]), logs)


@given(elements)
@settings(max_examples=100)
def test_group_elements_of_every_kind_and_log(element):
    codec._ensure_registered()
    _assert_same(element)


@given(elements, st.integers(min_value=0, max_value=Q - 1), st.integers(min_value=-1, max_value=Q))
@settings(max_examples=60)
def test_plain_structs_nested_in_plain_structs(element, c, s):
    codec._ensure_registered()
    tag = ContributorTag(
        dealer=3,
        secret_commitment=element,
        pok=nizk.DlogProof(challenge=c, response=s),
        signature=schnorr.Signature(c=s, s=c),
    )
    _assert_same(tag)
    _assert_same(MerkleProof(index=c, siblings=(b"\x00" * 32, b"\xff")))
    _assert_same((tag, [element, None], "G" * 40))


keys = st.one_of(
    st.integers(min_value=-200, max_value=200),
    st.binary(max_size=6),
    st.text(max_size=20),
    st.tuples(st.integers(min_value=-3, max_value=3), st.text(max_size=2)),
)


@given(
    st.dictionaries(st.integers(min_value=0, max_value=127), st.integers()),
    st.dictionaries(keys, st.one_of(st.none(), st.booleans(), elements)),
    st.frozensets(keys),
    st.sets(st.binary(max_size=40)),
)
@settings(max_examples=50)
def test_dicts_and_sets_with_small_int_mixed_and_bytes_keys(small, mixed, frozen, blobs):
    codec._ensure_registered()
    for value in (small, mixed, frozen, blobs, {bytes([k]): k for k in range(0, 256, 7)}):
        _assert_same(value)


# Every side of each fast path: ints at and past [0, 64) and bools; strs
# and bytes of lengths 127 and 128, ASCII or not; element logs at 0, below
# it, as bools, past 64 bits and at the 4096-bit bound, of kinds G, GT and
# others; and maps and sets that mix all of them.
_long = st.integers(min_value=125, max_value=130)
_int_keys = st.integers(min_value=-3, max_value=66) | st.sampled_from([-70, -64, 127, 128, 200])
_str_keys = (
    st.text(st.characters(max_codepoint=0x7F), max_size=3)
    | st.text(max_size=3)
    | st.builds(operator.mul, st.characters(max_codepoint=0x1FF), _long)
)
_bytes_keys = st.binary(max_size=3) | st.builds(
    operator.mul, st.binary(min_size=1, max_size=1), _long
)
_element_logs = st.sampled_from(
    [0, 1, 63, 64, -1, -64, True, False, 1 << 64, (1 << 4095) - 1, -(1 << 4095), 1 << 4095]
) | st.integers(min_value=-(1 << 70), max_value=1 << 70)
_edge_elements = st.builds(GroupElement, st.sampled_from(["G", "GT", "X", ""]), _element_logs)
_edge_aggregates = st.builds(
    PVSSTranscript,
    commitments=st.lists(_edge_elements, max_size=2).map(tuple),
    cipher_shares=st.just(()),
    tags=st.just(()),
)
_edge_scalars = _int_keys | st.booleans() | _str_keys | _bytes_keys | _edge_elements
_edge_keys = (
    _edge_scalars
    | _edge_aggregates
    | st.frozensets(_edge_scalars, max_size=3)
    | st.lists(_edge_scalars, max_size=2).map(tuple)
)
_edge_values = st.none() | _edge_scalars | _edge_aggregates | st.sets(_int_keys, max_size=3)
_edge_parts = st.tuples(
    st.dictionaries(_int_keys, _edge_values, max_size=5),
    st.dictionaries(_str_keys, _edge_values, max_size=5),
    st.dictionaries(_bytes_keys, _edge_values, max_size=5),
    st.dictionaries(_edge_keys, _edge_values, max_size=4),
    st.sets(_int_keys, max_size=6) | st.frozensets(_int_keys | st.booleans(), max_size=4),
    st.frozensets(_str_keys, max_size=5) | st.sets(_bytes_keys, max_size=5),
    st.frozensets(_edge_keys, max_size=4),
    st.recursive(
        _edge_values,
        lambda children: st.dictionaries(_edge_keys, children, max_size=3)
        | st.lists(children, max_size=3).map(tuple),
        max_leaves=6,
    ),
)


#: One value on each side of every fast-path edge, in the parts' shape.
_EDGES = (
    {-1: None, 0: None, 63: None},
    {"é": None, "ab": None, "a" * 127: None},
    {b"\xff": None, b"\x00\x00": None, b"y" * 127: None, b"x" * 128: None},
    {1: None, "a": None, b"a": None, False: None, GroupElement("G", 0): None, "b" * 128: None},
    frozenset({0, 63, 64, 127, 128}),
    frozenset({"c", "ab", "a" * 127}),
    frozenset({GroupElement("G", -1), GroupElement("GT", 1 << 64), GroupElement("X", 1)}),
    (GroupElement(["G"], 1), GroupElement("G", (1 << 4095) - 1), GroupElement("GT", 1 << 4095)),
)


@given(_edge_parts, st.booleans())
@example(_EDGES, False)
@example(_EDGES, True)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_maps_sets_and_elements_match_the_member_by_member_walk(parts, shared):
    """Maps and sets written in one pass and elements from one prebuilt
    head give the bytes (or the error) of the walk that encodes every
    member on its own, plain and in the shared-aggregate mode, and decode
    back to the value."""
    codec._ensure_registered()
    encode, decode, reference = (
        (codec.encode_shared, codec.decode_shared, _reference_shared)
        if shared
        else (codec.encode, codec.decode, _reference)
    )
    for value in parts:
        wire = _outcome(encode, value)
        assert wire == _outcome(reference, value)
        if type(wire) is tuple:  # an int past the bound
            continue
        try:
            decoded = decode(wire)
        except codec.CodecError as exc:  # an element whose log is a bool
            assert "expects int, got bool" in str(exc)
            continue
        assert decoded == value and type(decoded) is type(value)
        assert encode(decoded) == wire


def test_unregistered_types_raise_the_same_error():
    codec._ensure_registered()
    for value in (object(), (1, object()), [GroupElement("G", object())]):
        _assert_same(value)


def test_an_int_field_never_holds_a_bool():
    """Five places where True used to pass for 1 — each a second spelling."""
    codec._ensure_registered()
    with pytest.raises(codec.CodecError):
        codec.decode(codec.encode(GroupElement("G", True)))
    with pytest.raises(codec.CodecError):
        codec.decode(codec.encode(schnorr.Signature(c=True, s=False)))
    forged = Envelope(path=("x",), sender=True, recipient=1, payload=Decided(bit=1), depth=1)
    with pytest.raises(codec.CodecError):
        codec.decode_envelope(codec.encode_envelope(forged))
    with pytest.raises(codec.CodecError):
        codec.decode_batch(codec.encode_batch([forged]))
    assert not SchnorrGroup(get_params("TESTING")).is_element(True)
    assert not BilinearGroup(Q).is_element(GroupElement("G", True))
    # The int spellings themselves still decode.
    assert codec.decode(codec.encode(GroupElement("G", 1))) == GroupElement("G", 1)
