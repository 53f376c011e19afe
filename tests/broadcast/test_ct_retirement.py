"""A delivered CT-RBC stops listening, and nothing any party sends moves.

A CT-RBC instance that has output, echoed and sent READY can neither send
nor output again, so it sets ``Protocol._retired`` and ``Party.deliver``
drops its later deliveries before the handler, the freeze-record reset and
the ``upon`` sweep, counting them in ``drop_stats["retired"]``.  Before
that, an ECHO for a root the instance already decoded (or marked bad) is
dropped before its fragment is checked.
"""

from repro.broadcast.ct_rbc import CTBroadcast, CTEcho, CTReady, CTVal
from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net.adversary import Scheduler
from repro.net.delays import FixedDelay
from repro.net.envelope import Envelope
from repro.net.runtime import Simulation

from tests.broadcast.helpers import BroadcastHarness, NonCodewordCTDealer, run_broadcast

RBC = ("rbc",)


def _instances(party, session=0):
    state = party.sessions.peek(session)
    return {
        path: instance
        for path, instance in state.instances.items()
        if isinstance(instance, CTBroadcast)
    }


def test_a_retired_instance_runs_no_handler_and_no_sweep():
    sim = run_broadcast(4, "ct", ("payload", 7))
    party = sim.parties[2]
    instance = party.instance(RBC)
    assert instance.has_output and instance._retired
    party.freeze()
    record = instance._record
    assert record is not None
    calls = []
    instance.on_message = lambda *args: calls.append("handler")
    conditions = party.sessions.peek(0).conditions
    conditions.run_to_fixpoint = lambda: calls.append("sweep")
    (root,) = instance._decoded
    late = (CTReady(root), CTEcho(root, b"x", None, 1, 2), CTVal(root, b"x", None, 1, 2))
    before = party.drop_stats["retired"]
    for sender, payload in enumerate(late):
        party.deliver(Envelope(RBC, sender, 2, payload, 9, 0))
    assert calls == []
    assert party.drop_stats["retired"] == before + len(late)
    assert instance._record is record


class _LateVal(Scheduler):
    """Holds the dealer's VAL to one party until the broadcast is long over."""

    def __init__(self, late: int) -> None:
        self.late = late

    def schedule(self, rng, envelope, base_delay, time):
        if envelope.recipient == self.late and type(envelope.payload) is CTVal:
            return base_delay + 50
        return base_delay


def test_an_instance_that_delivers_before_the_val_still_echoes_it():
    n, late = 4, 3
    setup = TrustedSetup.generate(n, seed=1)
    sim = Simulation(
        setup, delay_model=FixedDelay(1.0), scheduler=_LateVal(late), seed=1
    )
    sim.start(lambda p: BroadcastHarness("ct", 0, ("v",) if p.index == 0 else None))
    instance = sim.parties[late].instance(RBC)
    sim.run(stop=lambda _sim: instance.has_output)
    assert instance.has_output
    assert not instance._echoed and not instance._retired
    sim.run()
    assert instance._echoed and instance._retired
    # Every party echoed its fragment to the n - 1 others, the late one too.
    assert sim.metrics.messages_by_type["CTEcho"] == n * (n - 1)


def test_thaw_retires_exactly_the_instances_the_original_had_retired():
    setup = TrustedSetup.generate(4, seed=3)
    sim = Simulation(setup, seed=3, delay_model=FixedDelay(1.0))
    sim.start(lambda p: ADKG())
    original = sim.parties[0]

    def retired(party):
        return {path for path, i in _instances(party).items() if i._retired}

    # Stop where some of party 0's broadcasts are retired and some not.
    sim.run(stop=lambda _sim: 0 < len(retired(original)) < len(_instances(original)))
    assert 0 < len(retired(original)) < len(_instances(original))
    blob = original.freeze()
    clone = sim.build_party(0)
    clone.thaw(blob, root_factory=lambda p: ADKG())
    assert retired(clone) == retired(original)
    assert clone.freeze() == blob


def test_an_echo_for_a_decoded_or_bad_root_skips_the_fragment_check():
    for dealer_cls in (None, NonCodewordCTDealer):
        sim = run_broadcast(4, "ct", ("msg",), dealer_cls=dealer_cls)
        instance = sim.parties[1].instance(RBC)
        (root,) = instance._decoded or instance._bad_roots
        checked = []
        instance._fragment_valid = lambda sender, payload: checked.append(payload.root)
        for echo_root in (root, bytes(32)):
            instance.on_message(2, CTEcho(echo_root, b"x", None, 1, 2))
        # Only the unknown root's fragment is checked.
        assert checked == [bytes(32)]
