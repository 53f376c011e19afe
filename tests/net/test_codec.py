"""The registry byte codec: round-trips, determinism, malformed rejection,
golden wire vectors and the decode-boundary mutation corpus."""

import dataclasses
import hashlib
import json
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.broadcast.bracha import BrachaEcho, BrachaReady, BrachaVal
from repro.broadcast.ct_rbc import CTEcho, CTReady, CTVal
from repro.baselines.aba import BOT, Aux, BVal, CoinShareMsg, Decided
from repro.core.adkg import ADKGShare
from repro.core import certificates as certs
from repro.core.certificates import KeyTuple, SignedVote
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
from repro.core.reshare import ReshareDealingMsg
from repro.crypto import nizk, pvss, reshare, schnorr
from repro.crypto import threshold_enc as tenc
from repro.crypto import threshold_sig as tsig
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.pairing import GroupElement
from repro.net import codec
from repro.net.envelope import Envelope
from repro.net.payload import Payload
from repro.crypto.verify_cache import content_digest
from tests.net.helpers import assert_retained_bytes_are_a_cold_walk, print_golden_changes


def registered_ids():
    """Every registered type and its wire id."""
    codec._ensure_registered()
    return {cls: entry[0] for cls, entry in codec._by_type.items()}


def _make_transcript(setup):
    contributions = [
        pvss.deal(setup.directory, setup.secret(i), random.Random(f"codec-{i}"))
        for i in range(3)
    ]
    return pvss.aggregate(setup.directory, contributions)


@pytest.fixture(scope="module")
def setup():
    return TrustedSetup.generate(4, seed=11)


@pytest.fixture(scope="module")
def transcript(setup):
    return _make_transcript(setup)


def roundtrip(value):
    encoded = codec.encode(value)
    decoded = codec.decode(encoded)
    assert decoded == value
    assert type(decoded) is type(value)
    # Determinism: equal values encode to equal bytes.
    assert codec.encode(decoded) == encoded
    return encoded


# -- primitives ------------------------------------------------------------------------


def test_primitive_roundtrips():
    for value in (
        None,
        True,
        False,
        0,
        -1,
        7,
        1 << 300,
        -(1 << 300),
        b"",
        b"\x00\xffraw",
        "",
        "unicode ☃",
        (),
        (1, "x", (b"y", None)),
        [],
        [1, [2, 3]],
        frozenset({1, 2, 3}),
        set(),
        {"a": (1, 2), 3: b"v"},
        {},
        1.5,
        -0.25,
    ):
        roundtrip(value)


def test_int_bound_is_symmetric():
    """Whatever encode accepts, decode accepts — and vice versa."""
    roundtrip(1 << 4000)  # far above the 256-bit STANDARD params
    roundtrip(-(1 << 4000))
    with pytest.raises(codec.CodecError):
        codec.encode(1 << 4200)  # over the wire bound: refused at the sender
    # A hand-crafted varint just over the bound is refused at the receiver
    # too — otherwise honest parties could receive ints they cannot re-send.
    zigzagged = (1 << 4098) << 1
    crafted = bytearray([0x03])
    while True:
        byte = zigzagged & 0x7F
        zigzagged >>= 7
        crafted.append(byte | 0x80 if zigzagged else byte)
        if not zigzagged:
            break
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(crafted))


def test_int_is_not_confused_with_bool():
    assert codec.decode(codec.encode(1)) == 1
    assert codec.decode(codec.encode(1)) is not True
    assert codec.decode(codec.encode(True)) is True


def test_set_and_dict_encodings_are_order_independent():
    assert codec.encode({1, 2, 3}) == codec.encode({3, 1, 2})
    assert codec.encode({"a": 1, "b": 2}) == codec.encode({"b": 2, "a": 1})


# -- every registered type -------------------------------------------------------------


def _sample_values(setup, transcript):
    directory = setup.directory
    secret = setup.secret(0)
    rng = random.Random("codec-samples")
    group = directory.pair_group
    contribution = pvss.deal(directory, secret, random.Random("codec-c"))
    eval_share = tvrf.EvalSh(directory, secret, transcript, ("m", 1))
    vote = certs.make_vote(directory, secret, certs.KIND_ECHO, "v", 1)
    key_tuple = KeyTuple(1, "value", (vote,))
    tree = MerkleTree([b"a", b"b", b"c"])
    # The retired scalar-PVSS sample (ids 36-37) drew these from ``rng``
    # here; drawing them still keeps the later samples' golden bytes.
    for _ in range(directory.f + 1):
        rng.randrange(directory.sign_group.q)
    for _ in range(directory.n):
        rng.randrange(1, directory.sign_group.q)
    ciphertext = tenc.encrypt(directory, transcript, b"msg", rng)
    handoff_spec = reshare.HandoffSpec(
        epoch=1,
        old_session=directory.session,
        old_n=directory.n,
        old_f=directory.f,
        old_sign_pks=directory.sign_pks,
        old_commitments=transcript.commitments,
    )
    reshare_dealings = tuple(
        reshare.deal_reshare(
            directory, handoff_spec, setup.secret(i), random.Random(f"codec-r{i}")
        )
        for i in range(directory.f + 1)
    )
    reshare_bundle = reshare.ReshareBundle(
        spec=handoff_spec, dealings=reshare_dealings
    )
    samples = {
        Envelope: Envelope(
            path=("nwh", ("pe", 1), "gather"),
            sender=0,
            recipient=2,
            payload=Suggest(key=key_tuple, view=2),
            depth=3,
        ),
        GroupElement: group.exp(group.g, 12345),
        schnorr.Signature: schnorr.sign(
            directory.sign_group, secret.sign, "codec", 1
        ),
        nizk.DlogProof: nizk.prove_dlog(
            group, group.g, group.exp(group.g, 5), 5, rng
        ),
        MerkleProof: tree.prove(1),
        pvss.ContributorTag: contribution.tag,
        pvss.PVSSContribution: contribution,
        pvss.PVSSTranscript: transcript,
        tvrf.EvalShare: eval_share,
        SignedVote: vote,
        KeyTuple: key_tuple,
        tsig.SignatureShare: tsig.sign_share(directory, secret, transcript, "m"),
        tsig.ThresholdSignature: tsig.ThresholdSignature(
            value=group.pair(group.g, group.g)
        ),
        tenc.Ciphertext: ciphertext,
        tenc.DecryptionShare: tenc.decryption_share(
            directory, secret, transcript, ciphertext
        ),
        BrachaVal: BrachaVal(value=("x", 1)),
        BrachaEcho: BrachaEcho(value=frozenset({0, 1, 2})),
        BrachaReady: BrachaReady(value=key_tuple),
        CTVal: CTVal(root=tree.root, fragment=b"frag", proof=tree.prove(0), claim_words=9, k=2),
        CTEcho: CTEcho(root=tree.root, fragment=b"frag", proof=tree.prove(0), claim_words=9, k=2),
        CTReady: CTReady(root=tree.root),
        PEDkgShare: PEDkgShare(contribution=contribution),
        PEEvalShare: PEEvalShare(k=1, share=eval_share),
        Suggest: Suggest(key=key_tuple, view=1),
        EchoMsg: EchoMsg(
            key=key_tuple, election_proof=frozenset({0, 1, 2}), vote=vote, view=1
        ),
        KeyVoteMsg: KeyVoteMsg(value="v", proof=(vote,), vote=vote, view=1),
        LockVoteMsg: LockVoteMsg(value="v", proof=(vote,), vote=vote, view=1),
        CommitMsg: CommitMsg(value="v", proof=(vote,), view=1),
        BlameMsg: BlameMsg(
            key=key_tuple,
            election_proof=frozenset({0, 1, 2}),
            lock_view=0,
            lock_value="v",
            lock_proof=None,
            view=1,
        ),
        EquivocateMsg: EquivocateMsg(
            key_a=key_tuple,
            proof_a=frozenset({0, 1, 2}),
            key_b=KeyTuple(0, "w", None),
            proof_b=frozenset({1, 2, 3}),
            view=1,
        ),
        ADKGShare: ADKGShare(contribution=contribution),
        reshare.HandoffSpec: handoff_spec,
        reshare.ReshareDealing: reshare_dealings[0],
        reshare.ReshareBundle: reshare_bundle,
        reshare.ReshareTranscript: reshare.finalize(directory, reshare_bundle),
        ReshareDealingMsg: ReshareDealingMsg(dealing=reshare_dealings[0]),
        BVal: BVal(round_no=1, phase=1, bit=0),
        Aux: Aux(round_no=1, phase=2, bit=BOT),
        CoinShareMsg: CoinShareMsg(round_no=1, share=eval_share),
        Decided: Decided(bit=1),
    }
    return samples


def test_every_registered_repo_type_roundtrips(setup, transcript):
    samples = _sample_values(setup, transcript)
    repo_types = {
        cls for cls, type_id in registered_ids().items() if type_id < 9000
    }
    missing = repo_types - set(samples)
    assert not missing, f"no codec sample for registered types: {missing}"
    for cls, value in samples.items():
        assert type(value) is cls
        roundtrip(value)


def test_registered_payloads_cover_all_protocol_payloads(setup, transcript):
    """Every concrete Payload subclass in the repo must be registered."""
    registered = set(registered_ids())

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    repo_payloads = {
        cls
        for cls in walk(Payload)
        if cls.__module__.startswith("repro.")
    }
    unregistered = repo_payloads - registered
    assert not unregistered, f"payloads missing codec registration: {unregistered}"


def test_envelope_helpers_validate(setup, transcript):
    env = _sample_values(setup, transcript)[Envelope]
    assert codec.decode_envelope(codec.encode_envelope(env)) == env
    assert codec.encoded_size(env) == len(codec.encode(env))
    # A non-envelope value is rejected even though it decodes fine.
    with pytest.raises(codec.CodecError):
        codec.decode_envelope(codec.encode((1, 2, 3)))
    # An envelope whose payload is not a Payload is rejected.
    bogus = Envelope(path=(), sender=0, recipient=1, payload="nope", depth=1)
    with pytest.raises(codec.CodecError):
        codec.decode_envelope(codec.encode(bogus))


# -- malformed input -------------------------------------------------------------------


def test_truncations_never_crash(setup, transcript):
    for value in (_sample_values(setup, transcript)[pvss.PVSSContribution], (1, "x"), {1: 2}):
        encoded = codec.encode(value)
        for cut in range(len(encoded)):
            with pytest.raises(codec.CodecError):
                codec.decode(encoded[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode(codec.encode(1) + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode(b"\xfe")


def test_unknown_type_id_rejected():
    out = bytearray([0x10])
    out.extend(b"\xbb\x06")  # varint 863: unregistered id
    out.append(0)
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(out))


def test_field_count_mismatch_rejected():
    encoded = bytearray(codec.encode(Decided(bit=1)))
    # struct tag, type id varint, then the field count byte: patch it.
    assert encoded[0] == 0x10
    pos = 1
    while encoded[pos] & 0x80:
        pos += 1
    pos += 1
    encoded[pos] += 1
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(encoded))


def test_invalid_utf8_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode(b"\x05\x02\xff\xfe")


def test_huge_length_claims_rejected():
    # bytes tag claiming 2**30 bytes with nothing behind it
    with pytest.raises(codec.CodecError):
        codec.decode(b"\x04\x80\x80\x80\x80\x04")
    # tuple tag claiming a billion items
    with pytest.raises(codec.CodecError):
        codec.decode(b"\x06\x80\x80\x80\x80\x04")


def test_deep_nesting_rejected():
    data = b"\x06\x01" * 100 + b"\x00"  # 100 nested 1-tuples
    with pytest.raises(codec.CodecError):
        codec.decode(data)


def test_an_element_keeps_every_decode_check():
    """A G or GT element, written from one prebuilt head, is read by the
    struct path: its log is a canonical varint under the 4096-bit bound,
    and the element counts against the nesting bound, exactly like an
    element of another kind."""
    for kind in ("G", "GT", "X"):
        wire = codec.encode(GroupElement(kind, 5))
        head = wire[:-1]
        nested = codec.decode(b"\x06\x01" * 63 + wire)
        for _ in range(63):
            (nested,) = nested
        assert nested == GroupElement(kind, 5)
        with pytest.raises(codec.CodecError, match="too deep"):
            codec.decode(b"\x06\x01" * 64 + wire)
        with pytest.raises(codec.CodecError, match="non-canonical"):
            codec.decode(head + b"\x8a\x00")
        with pytest.raises(codec.CodecError, match="truncated"):
            codec.decode(head + b"\x8a")
        over = (1 << 4096) | 1
        varint = bytearray()
        while over >= 0x80:
            varint.append(over & 0x7F | 0x80)
            over >>= 7
        varint.append(over)
        with pytest.raises(codec.CodecError, match="exceeds the codec bound"):
            codec.decode(head + bytes(varint))
        assert codec.decode(head + b"\x8a\x01") == GroupElement(kind, 69)


def test_duplicate_set_members_rejected():
    one = codec.encode(1)
    data = bytes([0x08, 2]) + one + one
    with pytest.raises(codec.CodecError):
        codec.decode(data)


def test_members_that_encode_alike_are_refused_at_the_sender():
    """Two distinct NaNs are two members but one encoding: the decoder would
    reject the bytes, so the encoder refuses them, at any depth."""
    nan_a, nan_b = float("nan"), float("nan")
    for value in (
        {nan_a, nan_b},
        frozenset({nan_a, nan_b}),
        {nan_a: 1, nan_b: 2},
        (1, [{nan_a: None, nan_b: None}]),
    ):
        with pytest.raises(codec.CodecError, match="encode alike"):
            codec.encode(value)
    with pytest.raises(codec.CodecError, match="encode alike"):
        codec.encode_shared({nan_a, nan_b})
    one_nan = codec.encode({nan_a, 1.5})
    assert codec.encode(codec.decode(one_nan)) == one_nan


def test_out_of_order_set_members_and_dict_keys_rejected():
    """One value, one spelling, for sets and dicts too: members (dict: keys)
    are accepted in sorted-encoding order only — at any depth."""
    one, two = codec.encode(1), codec.encode(2)
    assert one < two
    for tag in (0x08, 0x09):
        assert codec.decode(bytes([tag, 2]) + one + two) == {1, 2}
        with pytest.raises(codec.CodecError, match="out of order"):
            codec.decode(bytes([tag, 2]) + two + one)
    value = codec.encode("v")
    assert codec.decode(bytes([0x0A, 2]) + one + value + two + value) == {1: "v", 2: "v"}
    with pytest.raises(codec.CodecError, match="out of order"):
        codec.decode(bytes([0x0A, 2]) + two + value + one + value)
    with pytest.raises(codec.CodecError, match="out of order"):  # a repeated key
        codec.decode(bytes([0x0A, 2]) + one + value + one + codec.encode("w"))
    nested = codec.encode(CTReady(root=(frozenset({1, 2}),)))
    swapped = nested.replace(one + two, two + one)
    assert swapped != nested
    with pytest.raises(codec.CodecError, match="out of order"):
        codec.decode(swapped)
    # Equal values under two spellings are still one member too many.
    with pytest.raises(codec.CodecError, match="duplicate"):
        codec.decode(bytes([0x08, 2]) + codec.encode(True) + one)


def test_a_five_field_envelope_is_refused_at_every_level():
    """The pre-session envelope was the one accepted byte string that did
    not re-encode to itself; it is refused now, top level and nested."""
    envelope = Envelope(("later",), 1, 0, Decided(bit=1), 2)
    body = bytearray((0x10, 1, 5))  # struct tag, envelope id, the old field count
    for value in (("later",), 1, 0, envelope.payload, 2):  # path..depth, no session
        codec._encode_into(body, value)
    wire = bytes(body)
    for outer in (b"", b"\x06\x01", b"\x07\x01", codec.encode(CTReady(root=None))[:-1]):
        with pytest.raises(codec.CodecError, match="field count mismatch"):
            codec.decode(outer + wire)
        assert codec.decode(outer + codec.encode(envelope))  # six fields decode fine
    with pytest.raises(codec.CodecError, match="field count mismatch"):
        codec.decode_envelope(wire)


def test_wrong_typed_struct_fields_rejected():
    """Attacker-crafted field values of the wrong type must fail closed."""
    for forged in (
        Decided(bit="not-an-int"),
        Suggest(key=None, view=b"bytes-not-int"),
        CTReady(root=b"ok-any-field"),  # control: Any fields stay open
    ):
        encoded = codec.encode(forged)
        if isinstance(forged, CTReady):
            assert codec.decode(encoded) == forged
        else:
            with pytest.raises(codec.CodecError):
                codec.decode(encoded)


def test_union_annotated_fields_are_unchecked():
    """PEP-604 unions admit several types; the decoder must not pin one."""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MaybeTuple(Payload):
        items: "tuple[int, ...] | None"

    codec.register(MaybeTuple, 9100)
    roundtrip(MaybeTuple(items=None))
    roundtrip(MaybeTuple(items=(1, 2)))


def test_unhashable_envelope_path_rejected():
    env = Envelope(
        path=(["not", "hashable"],),
        sender=0,
        recipient=1,
        payload=Decided(bit=1),
        depth=1,
    )
    encoded = codec.encode(env)
    with pytest.raises(codec.CodecError):
        codec.decode_envelope(encoded)


def test_unencodable_type_raises():
    with pytest.raises(codec.CodecError):
        codec.encode(object())


def test_register_rejects_id_collisions():
    from repro.core.adkg import ADKGShare as A

    with pytest.raises(ValueError):
        codec.register(Decided, registered_ids()[A])


def test_overlong_varints_rejected():
    """One value, one spelling: a multi-byte varint may not end in a zero group."""
    assert codec.decode(b"\x03\x00") == 0
    for overlong in (
        b"\x03\x80\x00",  # int 0 in two bytes
        b"\x03\x82\x80\x00",  # int 1 in three
        b"\x04\x81\x00x",  # bytes length 1 in two
        b"\x06\x80\x00",  # empty tuple, count in two
        b"\x10\xd3\x80\x00\x01\x03\x02",  # Decided (id 83), id in three
    ):
        with pytest.raises(codec.CodecError, match="non-canonical"):
            codec.decode(overlong)
    assert codec.decode(b"\x10\x53\x01\x03\x02") == Decided(bit=1)


# -- golden wire vectors ---------------------------------------------------------------

#: ``name -> hex`` of what the encoder emitted at the commit *before* the
#: codec was compiled into per-type plans (PR 14) — but for the vectors that
#: carry an NWH vote, which are PR 19's: a vote signs ``H(codec bytes)``
#: since then, so its signature scalars differ; the format does not.
#: Regenerate only for a deliberate wire-format change, from a checkout of
#: the format's reference commit: ``PYTHONPATH=<reference>/src:. python -c
#: "from tests.net.test_codec import write_golden; write_golden()"``; it
#: prints ``name: old → new`` (size and hash) for every vector it changes.
GOLDEN_PATH = pathlib.Path(__file__).with_name("codec_golden.json")
#: Struct ids whose types were deleted.  An id is part of the wire format,
#: so each stays unregistered, and its last vector (under ``"retired"``)
#: must fail to decode.
RETIRED_IDS = {23, 25, 36, 37, 38}


def _golden_cases(setup, transcript):
    """``name -> (value, encoder, decoder)``: one instance of every repo
    type plus the batch frame, of several envelopes and of one."""
    samples = _sample_values(setup, transcript)
    ids = registered_ids()
    cases = {
        f"{ids[cls]:02d}-{cls.__name__}": (value, codec.encode, codec.decode)
        for cls, value in samples.items()
    }
    cases["builtins"] = (
        (
            None, True, False, 0, -1, 63, 64, -64, -65, 8191, 8192, (1 << 255) + 12345,
            -(1 << 300), (1 << 4095) - 1, b"", b"x" * 127, b"y" * 128, b"z" * 300,
            "", "unicode \u2603", [1, [2, 3]], frozenset({1, 2, 300}), {"b", "a"},
            {"k": (1, 2), 3: b"v", (1, "t"): None}, 1.5, -0.0, (), tuple(range(130)),
        ),
        codec.encode,
        codec.decode,
    )  # fmt: skip
    shared = samples[CTEcho]  # one multicast payload, two recipients
    batch = [
        Envelope(("adkg", ("rbc", 2)), 0, 1, shared, 7, 3),
        Envelope(("adkg", ("rbc", 2)), 0, 2, shared, 7, 3),
        Envelope(("adkg", "nwh", 1), 3, 0, samples[Suggest], 200, 0),
    ]
    cases["batch-frame"] = (batch, codec.encode_batch, codec.decode_batch)
    cases["batch-of-one"] = (batch[2:], codec.encode_batch, codec.decode_batch)
    return cases


def write_golden():
    setup = TrustedSetup.generate(4, seed=11)
    cases = _golden_cases(setup, _make_transcript(setup))
    vectors = {name: encoder(value).hex() for name, (value, encoder, _) in cases.items()}
    old = json.loads(GOLDEN_PATH.read_text())
    vectors["retired"] = old["retired"]

    def summary(golden):
        return {
            name: f"{len(wire) // 2} B sha256 {hashlib.sha256(bytes.fromhex(wire)).hexdigest()[:8]}"
            for name, wire in golden.items()
            if name != "retired"
        }

    print_golden_changes(summary(old), summary(vectors))
    GOLDEN_PATH.write_text(json.dumps(vectors, indent=0, sort_keys=True) + "\n")


def test_golden_wire_vectors(setup, transcript):
    """The encoder's output is byte-identical to the reference commit's for
    every registered type and every frame format, and decodes back."""
    golden = json.loads(GOLDEN_PATH.read_text())
    retired = golden.pop("retired")
    cases = _golden_cases(setup, transcript)
    assert set(cases) == set(golden)
    covered = {int(name[:2]) for name in golden if name[:2].isdigit()}
    assert covered == {1, *range(20, 43), *range(64, 85)} - RETIRED_IDS
    assert {int(name[:2]) for name in retired} == RETIRED_IDS
    assert golden["batch-frame"].startswith("b501")
    assert golden["batch-of-one"].startswith("b501")
    for name, (value, encoder, decoder) in cases.items():
        wire = bytes.fromhex(golden[name])
        assert encoder(value) == wire, name
        assert decoder(wire) == value, name


def test_retired_ids_stay_retired():
    retired = json.loads(GOLDEN_PATH.read_text())["retired"]
    assert not RETIRED_IDS & set(registered_ids().values())
    for name, wire in retired.items():
        with pytest.raises(codec.CodecError, match=f"unknown codec type id {name[:2]}"):
            codec.decode(bytes.fromhex(wire))


# -- encode-once aggregates ------------------------------------------------------------

AGGREGATES = (
    pvss.PVSSContribution,
    pvss.PVSSTranscript,
    reshare.HandoffSpec,
    reshare.ReshareDealing,
    reshare.ReshareBundle,
    reshare.ReshareTranscript,
)


def test_aggregate_bytes_are_the_same_cold_and_warm(setup, transcript):
    """A memo miss and a memo hit produce the golden bytes, alone and
    nested in a container; only the miss walks the aggregate."""
    golden = json.loads(GOLDEN_PATH.read_text())
    samples = _sample_values(setup, transcript)
    ids = registered_ids()
    assert set(AGGREGATES) == codec._aggregate_memoized_types
    stats = codec.encode_stats
    for cls in AGGREGATES:
        value = samples[cls]
        wire = bytes.fromhex(golden[f"{ids[cls]:02d}-{cls.__name__}"])
        codec._payload_memo.clear()
        assert codec.encode(value) == wire, cls  # cold: walked
        calls, misses = stats["aggregate.calls"], stats["aggregate.misses"]
        assert codec.encode(value) == wire, cls  # warm: cached bytes
        assert codec.encode((value, [value]))[2 : 2 + len(wire)] == wire
        assert stats["aggregate.calls"] == calls + 3
        assert stats["aggregate.misses"] == misses
        # Leaves are not memoized: they cost a lookup to walk.
        assert codec._payload_memo.get(samples[pvss.ContributorTag]) is None


def test_a_field_equal_fresh_copy_encodes_to_identical_bytes(transcript):
    """Memo miss ≡ memo hit: identity decides who walks, never the bytes.
    A constructed copy has no bytes until it is walked; a decoded copy
    holds the bytes it was read from — its own entry, equal to the walk."""
    warm = codec.encode(transcript)
    built = pvss.PVSSTranscript(
        transcript.commitments, transcript.cipher_shares, transcript.tags
    )
    assert built is not transcript and codec._payload_memo.get(built) is None
    assert codec.encode(built) == warm
    decoded = codec.decode(warm)
    assert decoded is not transcript and decoded == transcript
    assert codec._payload_memo.get(decoded) == warm
    codec._payload_memo.clear()
    assert codec.encode(decoded) == warm  # the cold walk agrees


def test_a_received_transcript_is_never_walked(transcript):
    """decode → cache key → re-send / checkpoint of a transcript that came
    off the wire: every request for its bytes is a hit, none a walk — alone
    or nested in a payload."""
    frame = codec.encode([transcript, transcript])
    stats = codec.encode_stats
    calls, misses = stats["aggregate.calls"], stats["aggregate.misses"]
    first, second = codec.decode(frame)
    assert first is not second  # one object, one entry, per occurrence
    assert stats["aggregate.calls"] == calls  # seeding is not a request
    assert content_digest(first) == content_digest(transcript)
    assert codec.encode([first, second]) == frame
    suggest = Suggest(key=KeyTuple(0, second, None), view=1)
    assert codec.encode(suggest) == codec.encode(
        Suggest(key=KeyTuple(0, transcript, None), view=1)
    )
    assert stats["aggregate.calls"] == calls + 6
    assert stats["aggregate.misses"] == misses


def test_an_aggregate_with_a_list_field_is_never_memoized(transcript):
    """A list in a sequence field could be mutated after the first encode
    (an in-process adversary): such a value is encoded, never cached."""
    listy = pvss.PVSSTranscript(
        transcript.commitments, list(transcript.cipher_shares), transcript.tags
    )
    first = codec.encode(listy)
    assert first != codec.encode(transcript)  # a list is tagged as a list
    assert codec._payload_memo.get(listy) is None
    assert codec._payload_memo.get(transcript) is not None
    listy.cipher_shares.reverse()
    second = codec.encode(listy)
    assert second != first and len(second) == len(first)
    with pytest.raises(codec.CodecError, match="expects tuple"):
        codec.decode(second)  # and no honest receiver accepts such a value


# -- properties ------------------------------------------------------------------------

# Up to 4088 bits either side of zero (from bytes: a literal bound that size
# would make every strategy repr enormous).
_ints = st.integers(-200, 200) | st.binary(max_size=511).map(
    lambda raw: int.from_bytes(raw, "big", signed=True)
)
_leaves = (
    st.none()
    | st.booleans()
    | _ints
    | st.floats(allow_nan=False)
    | st.binary(max_size=200)
    | st.text(max_size=20)
)


def _structs(children):
    return (
        st.builds(GroupElement, kind=st.text(max_size=2), log=_ints)
        | st.builds(nizk.DlogProof, challenge=_ints, response=_ints)
        | st.builds(Decided, bit=_ints)
        | st.builds(CTReady, root=children)
        | _aggregates(st.lists(children, max_size=3).map(tuple))
    )


def _aggregates(tuples):
    """Aggregates, one nested in another: the decoder checks a
    tuple-annotated field for being a tuple, not for what the tuple holds."""
    spec = st.builds(
        reshare.HandoffSpec,
        epoch=_ints,
        old_session=st.text(max_size=3),
        old_n=_ints,
        old_f=_ints,
        old_sign_pks=st.just((1, 2)),
        old_commitments=st.just(()),
    )
    return st.builds(
        pvss.PVSSTranscript, commitments=tuples, cipher_shares=st.just(()), tags=st.just(())
    ) | st.builds(reshare.ReshareBundle, spec=spec, dealings=st.just(()))


_hashables = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.frozensets(children, max_size=4)
    | _structs(children),
    max_leaves=10,
)
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.sets(_hashables, max_size=3)
    | st.frozensets(_hashables, max_size=3)
    | st.dictionaries(_hashables, children, max_size=3)
    | _structs(children),
    max_leaves=20,
)


@given(_values)
def test_decode_inverts_encode(value):
    wire = codec.encode(value)
    decoded = codec.decode(wire)
    assert decoded == value and type(decoded) is type(value)
    assert codec.encode(decoded) == wire


@given(_values, st.data())
def test_accepted_bytes_reencode_to_themselves(value, data):
    """``encode(decode(b)) == b`` for every ``b`` the decoder accepts (what
    canonical varints and member order buy), and every aggregate inside
    holds the bytes a cold walk emits: mutate an honest encoding, keep what
    decodes."""
    wire = bytearray(codec.encode(value))
    for _ in range(data.draw(st.integers(0, 3))):
        position = data.draw(st.integers(0, len(wire) - 1))
        if data.draw(st.booleans()):
            wire[position] = data.draw(st.integers(0, 255))
        else:  # respell a one-byte varint, where this is one, in two bytes
            wire[position] |= 0x80
            wire.insert(position + 1, 0)
    wire = bytes(wire)
    try:
        decoded = codec.decode(wire)
    except codec.CodecError:
        return
    assert codec.encode(decoded) == wire
    assert_retained_bytes_are_a_cold_walk(decoded)
    assert codec.encode(decoded) == wire  # and cold, too


def test_golden_vectors_reencode_to_themselves(setup, transcript):
    """The same property on the golden vectors, with no exception."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for name, (_value, encoder, decoder) in _golden_cases(setup, transcript).items():
        wire = bytes.fromhex(golden[name])
        decoded = decoder(wire)
        assert encoder(decoded) == wire, name
        assert_retained_bytes_are_a_cold_walk(decoded)
        assert encoder(decoded) == wire, name


# -- shared-aggregate encoding (snapshots only) ----------------------------------------


def _name(aggregate) -> bytes:
    """How a shared body spells ``aggregate``: tag + SHA-256 of its bytes."""
    return codec.SHARED_OPEN + hashlib.sha256(codec.encode(aggregate)).digest()


def _shared(entries, body: bytes) -> bytes:
    """A shared encoding assembled by hand: ``entries`` as given, unsorted."""
    return codec.SHARED_OPEN + bytes((len(entries),)) + b"".join(entries) + body


def _shared_mutant_ok(wire: bytes) -> bool:
    """``wire`` is refused, or is the one spelling of what it decodes to and
    left nothing but plain walks behind."""
    try:
        decoded = codec.decode_shared(wire)
    except codec.CodecError:
        return False
    assert codec.encode_shared(decoded) == wire
    assert_retained_bytes_are_a_cold_walk(decoded)
    assert codec.encode_shared(decoded) == wire  # and cold, too
    return True


@given(_values, st.data())
def test_shared_encoding_inverts_and_has_one_spelling(value, data):
    wire = codec.encode_shared(value)
    decoded = codec.decode_shared(wire)
    assert decoded == value and type(decoded) is type(value)
    assert _shared_mutant_ok(wire)
    for refused in (codec.decode, codec.decode_batch, codec.decode_envelope):
        with pytest.raises(codec.CodecError):
            refused(wire)
    mutant = bytearray(wire)
    for _ in range(data.draw(st.integers(1, 3))):
        position = data.draw(st.integers(0, len(mutant) - 1))
        if data.draw(st.booleans()):
            mutant[position] = data.draw(st.integers(0, 255))
        else:
            mutant[position] |= 0x80
            mutant.insert(position + 1, 0)
    _shared_mutant_ok(bytes(mutant))


def test_shared_encoding_stores_an_aggregate_once_and_thaws_it_to_one_object(
    setup, transcript
):
    """Every place that held the transcript — a container, a plain struct,
    a payload kept in state — names it; the table holds its bytes once; the
    decoder hands every place the same object, already holding its bytes."""
    other = pvss.deal(setup.directory, setup.secret(3), random.Random("shared"))
    suggest = Suggest(key=KeyTuple(0, transcript, None), view=1)
    value = [transcript, (other, suggest), {1: transcript}, KeyTuple(2, transcript, None)]
    plain = codec.encode(transcript)
    stats = Counter(codec.encode_stats)
    wire = codec.encode_shared(value)
    # One walk: the fresh dealing's, for its table entry.
    assert codec.encode_stats["aggregate.misses"] == stats["aggregate.misses"] + 1
    # A payload in state is walked past the memo: not a payload encoding.
    assert codec.encode_stats["payload.calls"] == stats["payload.calls"]
    assert wire.count(plain) == 1 and wire.count(_name(transcript)) == 4
    assert len(wire) < len(codec.encode(value)) - 2 * len(plain)
    first, (dealt, journaled), mapped, key = codec.decode_shared(wire)
    assert first is journaled.key.value is mapped[1] is key.value
    assert first == transcript and dealt == other and journaled == suggest
    assert codec._payload_memo.get(first) == plain
    assert codec._payload_memo.get(journaled) is None  # payloads are not seeded
    assert codec.encode(journaled) == codec.encode(suggest)
    # A kept record splices in verbatim, wherever it sits.
    record = codec.shared_record((other, suggest))
    assert codec.encode_shared([transcript, record, {1: transcript}, value[3]]) == wire
    with pytest.raises(codec.CodecError, match="inside encode_shared only"):
        codec.encode([record])


def test_shared_decoder_rejects_every_second_spelling(setup, transcript):
    other = pvss.deal(setup.directory, setup.secret(3), random.Random("shared"))
    low, high = sorted((transcript, other), key=_name)
    entries = [codec.encode(low), codec.encode(high)]
    body = codec.encode_shared((low, high))[2 + sum(map(len, entries)) :]
    assert body == b"\x06\x02" + _name(low) + _name(high)
    assert codec.decode_shared(_shared(entries, body)) == (low, high)

    def refused(wire: bytes, match: str) -> None:
        with pytest.raises(codec.CodecError, match=match):
            codec.decode_shared(wire)

    refused(_shared(entries[::-1], body), "out of digest order")
    refused(_shared([entries[0]] * 2, b"\x06\x02" + _name(low) * 2), "out of digest order")
    for intruder in (codec.encode(7), codec.encode(transcript.commitments[0])):
        refused(_shared([intruder], b"\x00"), "not an aggregate")
    refused(_shared(entries, b"\x06\x01" + _name(low)), "never referenced")
    refused(_shared([entries[0]], body), "reference to no shared table entry")
    refused(_shared(entries, body[:-1]), "reference to no shared table entry")
    refused(_shared([], codec.encode(low)), "inline where a reference belongs")
    in_payload = codec.encode(Suggest(key=KeyTuple(0, low, None), view=1))
    refused(_shared([], in_payload), "inline where a reference belongs")
    # A table entry is plain all the way down: no reference inside one.
    outer = pvss.PVSSTranscript(commitments=(low,), cipher_shares=(), tags=())
    forged = codec.encode(outer).replace(codec.encode(low), _name(low))
    assert forged.count(_name(low)) == 1
    nested = sorted((codec.encode(low), forged), key=lambda e: hashlib.sha256(e).digest())
    refused(
        _shared(nested, b"\x06\x02" + _name(low) + codec.SHARED_OPEN + hashlib.sha256(forged).digest()),
        "unknown tag byte 0x0c",
    )
    refused(_shared(entries, body + b"\x00"), "trailing bytes")
    refused(codec.encode((low, high)), "not a shared-aggregate encoding")
    refused(b"", "not a shared-aggregate encoding")
    refused(codec.SHARED_OPEN + b"\x7f" + entries[0][:64], "exceeds buffer")
    refused(codec.SHARED_OPEN + b"\x82\x00" + b"".join(entries) + body, "non-canonical")


def test_the_reference_tag_is_refused_by_every_reader_of_peer_bytes(transcript):
    """0x0C never crosses a wire or enters a WAL: each reader of bytes that
    a peer wrote treats it as the unknown tag it is there, so no frame can
    make a receiver resolve a reference."""
    from repro.storage import frames

    payload = Suggest(key=KeyTuple(0, transcript, None), view=1)
    envelopes = [Envelope(("nwh",), 1, recipient, payload, 2, 0) for recipient in (0, 2)]

    def frames_around(payload_wire: bytes) -> dict:
        """One frame per reader, every length prefix honest."""
        envelope_wire = codec.encode_envelope(envelopes[0]).replace(
            codec.encode(payload), payload_wire
        )
        batch = bytearray((codec.BATCH_MAGIC, codec.BATCH_VERSION, 1))
        codec._write_uvarint(batch, len(payload_wire))
        batch += payload_wire
        batch.append(len(envelopes))
        for envelope in envelopes:
            batch.append(0)
            codec._batch_header_into(batch, envelope)
        return {
            codec.decode: payload_wire,
            codec.decode_envelope: envelope_wire,
            codec.decode_batch: bytes(batch),
            frames.decode_wal_record: frames._frame(frames.WAL_MAGIC, 9, envelope_wire),
        }

    honest = frames_around(codec.encode(payload))
    assert honest[codec.decode_batch] == codec.encode_batch(envelopes)
    assert honest[frames.decode_wal_record] == frames.encode_wal_record(envelopes[0], 9)
    for reader, wire in honest.items():
        reader(wire)
    forged = codec.encode(payload).replace(codec.encode(transcript), _name(transcript))
    assert forged.count(_name(transcript)) == 1
    for reader, wire in frames_around(forged).items():
        with pytest.raises(codec.CodecError, match="unknown tag byte 0x0c"):
            reader(wire)
        with pytest.raises(codec.CodecError):
            reader(codec.encode_shared(payload))


#: The longest varint the reader follows (a few bits above the int bound).
MAX_VARINT_BYTES = 4096 // 7 + 1


@given(st.integers(0, 1 << 70) | st.binary(max_size=512).map(lambda raw: int.from_bytes(raw, "big")))
def test_uvarint_reader_inverts_writer(value):
    out = bytearray(b"\xff")
    codec._write_uvarint(out, value)
    assert len(out) - 1 == max(1, (value.bit_length() + 6) // 7)
    assert codec._read_uvarint(bytes(out) + b"\xff", 1) == (value, len(out))


def test_uvarint_reader_is_bounded():
    endless = b"\x80" * (MAX_VARINT_BYTES + 10)
    with pytest.raises(codec.CodecError, match="too long"):
        codec._read_uvarint(endless + b"\x01", 0)
    with pytest.raises(codec.CodecError, match="truncated"):
        codec._read_uvarint(endless[:20], 0)
    with pytest.raises(codec.CodecError, match="truncated"):
        codec._read_uvarint(b"\x01", 1)
    longest = b"\x80" * (MAX_VARINT_BYTES - 1) + b"\x01"
    assert codec._read_uvarint(longest, 0) == (1 << 7 * (MAX_VARINT_BYTES - 1), len(longest))


# Honest instance paths: nested tuples of names and indices.
_path_parts = st.recursive(
    st.integers(-3, 300) | st.text(max_size=6) | st.binary(max_size=3),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)
_payload_pool = st.lists(
    st.builds(Decided, bit=_ints)
    | st.builds(CTReady, root=_hashables)
    # Blob lengths whose varints take two and three bytes.
    | st.sampled_from((200, 17_000)).map(lambda size: CTReady(root=bytes(size))),
    min_size=1,
    max_size=3,
)


@st.composite
def _envelope_lists(draw):
    pool = draw(_payload_pool)  # envelopes share payload objects, like a multicast
    routing = st.integers(-2, 70) | _ints
    envelopes = [
        Envelope(
            path=tuple(draw(st.lists(_path_parts, max_size=4))),
            sender=draw(routing),
            recipient=draw(routing),
            payload=pool[draw(st.integers(0, len(pool) - 1))],
            depth=draw(routing),
            session=draw(routing),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    if draw(st.booleans()):
        # Past 128 distinct payloads a frame's table index takes two bytes.
        last = envelopes[-1]
        envelopes += [
            Envelope(last.path, last.sender, last.recipient, Decided(bit), last.depth, last.session)
            for bit in range(1000, 1130)
        ]
    return envelopes


@given(_envelope_lists())
def test_size_accounting_matches_the_encoder(envelopes):
    """``encoded_batch_size``'s header rule, from the metered bare sizes,
    is the frame ``encode_batch`` builds."""
    sizes = [len(codec.encode_envelope(envelope)) for envelope in envelopes]
    wire = codec.encode_batch(envelopes)
    assert codec.encoded_batch_size(envelopes, sizes) == len(wire)
    with pytest.raises(ValueError):
        codec.encoded_batch_size(envelopes, sizes[:-1])
    if all(envelope.session >= 0 for envelope in envelopes):
        assert codec.decode_batch(wire) == envelopes
    else:
        with pytest.raises(codec.CodecError):
            codec.decode_batch(wire)


# -- the size walk ---------------------------------------------------------------------


@given(_values)
def test_the_size_walk_is_the_encoded_length(value):
    """``encoded_size`` walks a value without building it: the same length
    cold (nothing memoized) and warm (every payload's bytes memoized)."""
    codec._payload_memo.clear()
    cold = codec.encoded_size(value)
    wire = codec.encode(value)
    assert cold == len(wire) == codec.encoded_size(value)


@given(_envelope_lists(), st.booleans())
def test_the_envelope_size_walk_is_the_envelope_encoding_length(envelopes, memoized):
    """The protocol byte metric, walked: for every envelope the encoder
    accepts, its payload's bytes memoized or not."""
    for envelope in envelopes:
        codec._payload_memo.clear()
        if memoized:
            codec.encode(envelope.payload)
            assert codec._payload_memo.get(envelope.payload) is not None
        size = codec.encoded_envelope_size(envelope)
        # The walk leaves the payload as it found it: memoized or not.
        assert (codec._payload_memo.get(envelope.payload) is not None) == memoized
        assert size == len(codec.encode_envelope(envelope))
    with pytest.raises(codec.CodecError, match="expected Envelope"):
        codec.encoded_envelope_size(envelopes[0].payload)


@dataclasses.dataclass(frozen=True)
class _Unregistered(Payload):
    junk: int


#: Values the encoder refuses: an int past the bound (alone and as a group
#: element's log), a str UTF-8 cannot spell, unregistered types, and two set
#: members that encode alike.
_unencodable = st.sampled_from(
    (
        1 << 4096,
        -(1 << 4100),
        GroupElement("G", 1 << 4095),
        "lone \ud800 surrogate",
        object(),
        _Unregistered(1),
        frozenset((float("nan"), float("nan"))),
    )
)
_refused = st.recursive(
    _unencodable,
    lambda children: st.tuples(_values, children).map(tuple)
    | st.tuples(children, _values).map(list)
    | st.builds(CTReady, root=children)
    | st.builds(Decided, bit=children)
    | st.builds(
        pvss.PVSSTranscript,
        commitments=st.tuples(children),
        cipher_shares=st.just(()),
        tags=st.just(()),
    )
    | st.builds(lambda payload: Envelope(("p",), 0, 1, payload, 1, 0), st.builds(CTReady, root=children)),
    max_leaves=4,
)


@given(_refused)
def test_the_size_walk_refuses_what_the_encoder_refuses(value):
    """An honest unencodable send fails loudly on a sizing-only transport
    too: wherever ``encode`` raises, the walk raises ``CodecError``."""
    with pytest.raises(ValueError):
        codec.encode(value)  # a CodecError, or UnicodeEncodeError for a str
    with pytest.raises(codec.CodecError):
        codec.encoded_size(value)
    if type(value) is Envelope:
        with pytest.raises(codec.CodecError):
            codec.encoded_envelope_size(value)


def test_every_golden_value_sizes_to_its_golden_length(setup, transcript):
    golden = json.loads(GOLDEN_PATH.read_text())
    for name, (value, encoder, _decoder) in _golden_cases(setup, transcript).items():
        length = len(bytes.fromhex(golden[name]))
        if encoder is codec.encode_batch:
            sizes = [codec.encoded_envelope_size(envelope) for envelope in value]
            assert sizes == [len(codec.encode_envelope(envelope)) for envelope in value]
            assert codec.encoded_batch_size(value, sizes) == length, name
        else:
            assert codec.encoded_size(value) == length, name
        if type(value) is Envelope:
            assert codec.encoded_envelope_size(value) == length, name
