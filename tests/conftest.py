"""Suite-wide fixtures: the freeze oracle and the invariant oracle; a leak
fails its test; the ``ci`` Hypothesis profile.

``Party.freeze`` reuses the encoded record of every leaf instance the
party delivered nothing to since the previous freeze, and of every RNG
stream that did not move (``repro/net/party.py``).  A missed invalidation
there is a silently stale snapshot that no hand-picked case would find,
so every freeze any test makes — directly, through a
``DurabilityRecorder`` or inside a service driver, on all three
transports — is taken a second time with every kept record dropped, and
the two blobs must be equal byte for byte.  The count of freezes checked
is printed with the run's summary.

The invariant oracle watches every run any test makes, on both
transports: it wraps ``Transport.build_party`` (which parties a run has,
and which of them are corrupted) and ``Protocol.output``.  A party is
honest for an instance when the run did not corrupt it and the instance
is the library's own class (a planted dealer from
``tests/broadcast/helpers.py`` is not).  It checks that

1. every honest output of a ``CTBroadcast`` or ``BrachaBroadcast``
   instance is the same value, and the dealer's input when the dealer is
   honest;
2. the honest outputs of an ``ADKG``, ``ReshareAgreement``,
   ``ACSBasedADKG``, ``NWH`` or ``BinaryAgreement`` instance agree
   (Gather and PE outputs may differ by design);
3. a party index outputs one value per instance: a thawed, replayed
   party reproduces what its crashed predecessor output;
4. the transcript an ``ADKG`` or ``ACSBasedADKG`` instance agrees on
   has at least f + 1 contributors and passes ``DKGVerify`` against a
   verify cache no run has warmed.

A violation fails the test that made the run.  What the oracle knows of
a run lives only as long as the run's parties, and its cold check
leaves the process-wide encode and pairing counters as it found them.

Every test under this directory also runs with ``ResourceWarning`` and
pytest's unraisable-exception warning as errors, so a socket, transport,
file or event loop a test leaks fails that test, under plain ``pytest``
as under ``python -X dev``.
"""

import dataclasses
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from repro.baselines.aba import BinaryAgreement
from repro.baselines.kms_adkg import ACSBasedADKG
from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.ct_rbc import CTBroadcast
from repro.core.adkg import ADKG
from repro.core.nwh import NWH
from repro.core.reshare import ReshareAgreement
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.verify_cache import VerifyCache
from repro.net import codec
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.transport import Transport

_freeze = Party.freeze
_checked = 0

# ``--hypothesis-profile=ci``: CI's long run of the drawn properties that
# leave their example count to the profile (tests/baselines and
# tests/core/test_corrupted_fields.py).
settings.register_profile("ci", max_examples=2_000)


def drop_freeze_records(party: Party) -> None:
    """Forget what ``freeze`` kept: the next one encodes everything."""
    for state in party.sessions:
        state.rng_record = None
        for instance in state.instances.values():
            instance._record = None


def _freeze_checked_against_cold(party: Party) -> bytes:
    global _checked
    blob = _freeze(party)
    # Tests count walks and calls of the freezes *they* make.
    stats = Counter(codec.encode_stats)
    drop_freeze_records(party)
    cold = _freeze(party)
    codec.encode_stats.clear()
    codec.encode_stats.update(stats)
    assert blob == cold, (
        f"party {party.index}: freeze reused a stale record "
        f"({len(blob)} bytes warm, {len(cold)} cold)"
    )
    _checked += 1
    return blob


_HERE = Path(__file__).parent
_LEAKS_FAIL = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(_HERE):
            for mark in _LEAKS_FAIL:
                item.add_marker(mark)


@pytest.fixture(autouse=True)
def freeze_oracle(monkeypatch):
    monkeypatch.setattr(Party, "freeze", _freeze_checked_against_cold)


# -- the invariant oracle -------------------------------------------------------------

_BROADCASTS = (CTBroadcast, BrachaBroadcast)
_AGREEING = (*_BROADCASTS, ADKG, ReshareAgreement, ACSBasedADKG, NWH, BinaryAgreement)

_build_party = Transport.build_party
_output = Protocol.output
#: Transport -> its run, and party -> the run that built it; weak, so a
#: run's record goes with its parties.
_runs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_run_of: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_violations: list[str] = []
_oracle = Counter()


class _Run:
    """One transport's outputs so far."""

    def __init__(self, transport: Transport) -> None:
        self.transport = weakref.ref(transport)
        #: (party index, session, path) -> that index's first output.
        self.first: dict = {}
        #: (session, path) -> the first honest output.
        self.agreed: dict = {}
        #: DKG (session, path)s whose agreed transcript was verified cold.
        self.verified: set = set()
        _oracle["runs"] += 1


def _build_party_watched(transport: Transport, index: int) -> Party:
    party = _build_party(transport, index)
    run = _runs.get(transport)
    if run is None:
        run = _runs[transport] = _Run(transport)
    _run_of[party] = run
    return party


def _library(protocol: Protocol) -> bool:
    return type(protocol).__module__.startswith("repro.")


def _output_watched(protocol: Protocol, value) -> None:
    if not protocol._output_done:
        run = _run_of.get(protocol._party)
        transport = run.transport() if run is not None else None
        if transport is not None:
            _check_output(run, transport, protocol, value)
    _output(protocol, value)


def _check_output(run: _Run, transport: Transport, protocol: Protocol, value) -> None:
    index, instance = protocol.me, (protocol.session, protocol.path)
    where = f"{type(protocol).__name__} at session {instance[0]}, path {instance[1]}"
    _oracle["outputs"] += 1
    first = run.first.setdefault((index, *instance), value)
    if first != value:
        _violations.append(f"{where}: party {index} output twice, differently")
    if (
        index in transport.corrupt
        or not isinstance(protocol, _AGREEING)
        or not _library(protocol)
    ):
        return
    agreed = run.agreed.setdefault(instance, value)
    if agreed != value:
        _violations.append(f"{where}: honest party {index} disagrees")
    if isinstance(protocol, _BROADCASTS):
        dealer = protocol.dealer
        source = transport.parties[dealer].instance(protocol.path, protocol.session)
        # A rebuilt (thawed) dealer instance holds no input: None.
        if (
            dealer not in transport.corrupt
            and source is not None
            and _library(source)
            and source.value is not None
            and source.value != value
        ):
            _violations.append(f"{where}: output is not honest dealer {dealer}'s input")
    if isinstance(protocol, (ADKG, ACSBasedADKG)) and instance not in run.verified:
        run.verified.add(instance)
        _verify_cold(protocol, value, where)


def _verify_cold(protocol: Protocol, transcript, where: str) -> None:
    """Check 4, leaving the process-wide counters as they were."""
    directory = protocol.directory
    encodes, group = Counter(codec.encode_stats), directory.pair_group
    pair_calls = group.pair_calls
    cold = dataclasses.replace(directory, verify_cache=VerifyCache())
    try:
        if len(getattr(transcript, "contributors", ())) < directory.f + 1:
            _violations.append(f"{where}: fewer than f + 1 contributors")
        elif not tvrf.DKGVerify(cold, transcript):
            _violations.append(f"{where}: agreed transcript fails DKGVerify")
    finally:
        codec.encode_stats.clear()
        codec.encode_stats.update(encodes)
        group.pair_calls = pair_calls
    _oracle["transcripts"] += 1


@pytest.fixture(autouse=True)
def invariant_oracle(monkeypatch):
    _violations.clear()
    monkeypatch.setattr(Transport, "build_party", _build_party_watched)
    monkeypatch.setattr(Protocol, "output", _output_watched)
    yield
    violations = list(_violations)
    _violations.clear()
    _runs.clear()
    _run_of.clear()
    if violations:
        pytest.fail("invariant oracle:\n" + "\n".join(violations[:10]))


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"freeze oracle: {_checked} freezes byte-identical to a cold freeze"
    )
    terminalreporter.write_line(
        f"invariant oracle: {_oracle['outputs']} outputs of {_oracle['runs']} runs "
        f"checked, {_oracle['transcripts']} agreed transcripts verified cold"
    )
