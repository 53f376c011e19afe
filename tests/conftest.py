"""Suite-wide fixture: the freeze oracle; a leak fails its test; the
``ci`` Hypothesis profile.

``Party.freeze`` reuses the encoded record of every leaf instance the
party delivered nothing to since the previous freeze, and of every RNG
stream that did not move (``repro/net/party.py``).  A missed invalidation
there is a silently stale snapshot that no hand-picked case would find,
so every freeze any test makes — directly, through a
``DurabilityRecorder`` or inside a service driver, on all three
transports — is taken a second time with every kept record dropped, and
the two blobs must be equal byte for byte.  The count of freezes checked
is printed with the run's summary.

Every test under this directory also runs with ``ResourceWarning`` and
pytest's unraisable-exception warning as errors, so a socket, transport,
file or event loop a test leaks fails that test, under plain ``pytest``
as under ``python -X dev``.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from repro.net import codec
from repro.net.party import Party

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


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"freeze oracle: {_checked} freezes byte-identical to a cold freeze"
    )
