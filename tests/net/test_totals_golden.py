"""The refactoring contract as a golden: protocol totals pinned to the digit.

ROADMAP aim 2 makes "byte-identical protocol totals before and after" the
contract every delivery-pipeline change signs.  This file pins it for three
runs that between them cross every metering path: the benign bulk path with
bytes metered, the hostile recipe of ``perf/workloads.py`` (per-envelope heap
entries, Byzantine senders, chaos) at its quick size, and the per-envelope
reference: a coalescing cap of one (``Transport.batch_cap_envelopes``).

``totals_golden.json`` holds what the commit *before* run metering (PR 16)
counted, but for ``bytes`` / ``wire_bytes`` of the two byte-metered runs:
those are PR 19's, where NWH votes began to sign ``H(codec bytes)`` —
another preimage, so other signature scalars, and a scalar is a varint
(−60 of 701 897 and +24 of 114 438 ``bytes``, −15 of 225 412
``wire_bytes``; chance, not format).  ``verify_misses`` are counted by the
commit where ADKG and PE began checking dealt contributions as one
aggregate: no ``pvss-contrib`` misses, and two more ``pvss-transcript``
misses in the hostile run — the personal PE transcripts of its silent and
its dropping party, which no peer checks, now checked by their aggregator.
The hostile run's ``ctrbc-frag.misses`` (47 → 44) are counted by the commit
where a CT-RBC instance stopped checking ECHO fragments it can no longer
use: one for a root it already decoded or marked bad, or one reaching an
instance that has output, echoed and sent READY.  Three echoed fragments
reached, under that run's delays, only such instances, so nobody verifies
them; every send, delivery and round is unchanged.
The hostile run's ``deliveries`` (2 399 → 2 337) and five ``verify_misses``
(``cert-vote`` 21 → 18, ``cert`` 11 → 9, ``ctrbc-frag`` 44 → 37,
``pvss-transcript`` 14 → 12, ``tvrf-evalsh`` 35 → 30) are counted by the
commit where a silent party stopped running a protocol stack: its own
self-deliveries and the checks it alone made are gone.  Every send, word,
message, round and chaos count is unchanged, and so is every network
delivery, a silent recipient's included.
``cap1-n4-bytes`` replaced a run on a second, per-envelope send plane that
recorded no frames: its ``frames`` and ``wire_bytes`` are counted by the
commit before that plane was deleted, every other entry is the deleted
run's to the digit.  Since sends leave only at the flush, never inside the
delivery that caused them, the 3 sends of the activation that completed
that run are still buffered when it stops: its ``frames`` (564 → 561) and
``wire_bytes`` (117 426 → 115 983) count the frames actually transmitted.
Both byte-metered runs' ``wire_bytes`` (225 397 and 115 983) read 0 since
the commit where the simulator stopped pricing its heap entries: a heap
entry spans links no one socket carries, so only TCP counts wire bytes,
and every other entry is unchanged.

Totals alone let an arithmetic slip through as long as it still verifies,
so ``"values"`` pins what two runs computed: the agreed transcript (its
content digest) and group public key of the benign run, and the beacon
values of a two-epoch beacon — written by the commit before the group
operations became batch kernels (``multi_exp``).  Regenerate only for a
deliberate protocol or wire-format change, with ``repro`` imported from a
checkout of the reference commit and this file from this one; it prints
``key: old → new`` for every entry it changes.  Run it from a directory
inside neither checkout (``python -c`` puts the working directory first
on the path, so a reference checkout's own ``tests`` would win), and
import ``repro`` before this module (``perf/__init__.py`` puts this
checkout's ``src`` first on the path)::

    PYTHONPATH=<reference>/src:<this checkout> python -c "import repro; \
        from tests.net.test_totals_golden import write_golden; write_golden()"
"""

import json
import pathlib
from collections import Counter
from unittest import mock

import pytest

from perf.workloads import WORKLOADS, created_instances

from repro import run_adkg
from repro.crypto.verify_cache import content_digest, content_encoding
from repro.net import codec
from repro.net.metrics import Metrics, counter_delta
from repro.net.transport import Transport
from repro.service import run_beacon
from tests.net.helpers import print_golden_changes

GOLDEN_PATH = pathlib.Path(__file__).with_name("totals_golden.json")

_HOSTILE = WORKLOADS["adkg_sim_n13_hostile"]

def _cap1_n4_bytes():
    with mock.patch.object(Transport, "batch_cap_envelopes", 1):
        return run_adkg(n=4, seed=9, measure_bytes=True)


CASES = {
    "benign-n7-bytes": lambda: run_adkg(n=7, seed=3, measure_bytes=True),
    "hostile-n7": lambda: _HOSTILE.run(3, **_HOSTILE.sizes["quick"])[1],
    "cap1-n4-bytes": _cap1_n4_bytes,
}


def _totals(case) -> dict:
    encodes = Counter(codec.encode_stats)  # process-wide: bracketed
    with created_instances(Metrics) as created:
        result = case()
    encode = counter_delta(codec.encode_stats, encodes)
    (metrics,) = created
    counters = result.metrics_summary["counters"]
    return {
        "words": metrics.words_total,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "frames": metrics.frames_total,
        "wire_bytes": metrics.wire_bytes_total,
        "rounds": result.rounds,
        "deliveries": metrics.deliveries,
        "words_by_layer": dict(sorted(metrics.words_by_layer.items())),
        "messages_by_type": dict(sorted(metrics.messages_by_type.items())),
        "verify_misses": {
            key: value
            for key, value in sorted(counters["verify"].items())
            if key.endswith(".misses")
        },
        "encode": {
            key: encode.get(key, 0) for key in ("payload.calls", "payload.misses")
        },
    }


def _values() -> dict:
    adkg = run_adkg(n=7, seed=3, measure_bytes=True)
    beacon = run_beacon(4, epochs=2, seed=1)
    return {
        "benign-n7-transcript-digest": content_digest(adkg.transcript).hex(),
        "benign-n7-public-key": content_encoding(adkg.public_key).hex(),
        "beacon-n4-epochs2-seed1": [output.value for output in beacon.outputs],
    }


def write_golden():
    import repro

    print("reference:", repro.__file__)
    golden = {name: _totals(case) for name, case in CASES.items()}
    golden["values"] = _values()
    print_golden_changes(json.loads(GOLDEN_PATH.read_text()), golden)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_totals_match_reference_commit(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == {*CASES, "values"}
    assert _totals(CASES[name]) == golden[name]


def test_values_match_reference_commit():
    assert _values() == json.loads(GOLDEN_PATH.read_text())["values"]
