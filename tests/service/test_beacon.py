"""The epoch driver and the randomness beacon service."""

import dataclasses

import pytest

from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net.delays import FixedDelay
from repro.net.runtime import Simulation
from repro.service import EpochDriver, RandomnessBeacon, run_beacon
from repro.service.beacon import GENESIS, verify_output


def _driver(n=4, seed=1, epochs=2, depth=1, **kwargs):
    setup = TrustedSetup.generate(n, seed=seed)
    sim = Simulation(setup, seed=seed, delay_model=FixedDelay(1.0))
    return setup, EpochDriver(sim, epochs=epochs, pipeline_depth=depth, **kwargs)


def _contexts(setup, transcripts):
    """A static committee's ``verify_chain`` contexts: one directory."""
    return {epoch: (setup.directory, t) for epoch, t in transcripts.items()}


# -- the epoch driver ------------------------------------------------------------------


def test_epochs_complete_in_order_with_fresh_keys():
    _setup, driver = _driver(epochs=3, depth=2)
    results = driver.run()
    assert [r.epoch for r in results] == [0, 1, 2]
    assert all(r.agreed for r in results)
    keys = [r.public_key for r in results]
    assert len({str(k) for k in keys}) == 3  # every epoch rotates the key
    for result in results:
        assert result.completed_at >= result.started_at


def test_pipelined_epochs_finish_earlier_end_to_end():
    _setup, sequential = _driver(seed=5, epochs=3, depth=1)
    _setup, pipelined = _driver(seed=5, epochs=3, depth=2)
    seq = sequential.run()
    pipe = pipelined.run()
    assert pipe[-1].completed_at < seq[-1].completed_at
    # Pipelining reorders the schedule; it must not change what's agreed.
    assert [r.transcript for r in pipe] == [r.transcript for r in seq]


def test_driver_validates_parameters():
    setup = TrustedSetup.generate(4, seed=1)
    sim = Simulation(setup, seed=1)
    with pytest.raises(ValueError):
        EpochDriver(sim, epochs=0)
    with pytest.raises(ValueError):
        EpochDriver(sim, epochs=1, pipeline_depth=0)
    with pytest.raises(TypeError):
        EpochDriver(object(), epochs=1).run()


def test_a_crash_interlude_rides_the_pipelined_loop():
    """A crash plan is a per-epoch value on the one loop: epoch 1 of a
    depth-2 run crashes a party (epoch 0 still in flight beside it) and
    rehydrates it; every epoch agrees and the beacon chain verifies."""
    from repro.core.adkg import ADKG
    from repro.storage import CrashPlan

    setup = TrustedSetup.generate(4, seed=1)
    sim = Simulation(setup, seed=1, delay_model=FixedDelay(1.0))
    root_factory = lambda party: ADKG()  # noqa: E731
    with CrashPlan(sim, root_factory, indices=(2,), after=12, delay=4.0) as plan:
        results = EpochDriver(
            sim,
            epochs=3,
            pipeline_depth=2,
            root_factory=root_factory,
            interludes={1: plan},
        ).run()
    assert [r.epoch for r in results] == [0, 1, 2] and all(r.agreed for r in results)
    assert plan.reattach_at == plan.crash_at + 4.0
    assert plan.replay[2]["wal_records"] > 0
    # Epoch 0 was in flight when party 2 went down: it finishes only after
    # the party is back, and the recovered party output every epoch.
    assert results[0].completed_at > plan.reattach_at > results[1].started_at
    assert all(2 in r.outputs for r in results)
    beacon = RandomnessBeacon()
    for result in results:
        beacon.emit_epoch(result.epoch, setup, result.transcript)
    transcripts = {r.epoch: r.transcript for r in results}
    assert beacon.verify_chain(beacon.outputs, _contexts(setup, transcripts))


# -- the beacon ------------------------------------------------------------------------


def test_beacon_outputs_verify_against_each_epochs_key():
    setup, driver = _driver(epochs=2, depth=2)
    results = driver.run()
    beacon = RandomnessBeacon(rounds_per_epoch=3)
    for result in results:
        beacon.emit_epoch(result.epoch, setup, result.transcript)
    assert len(beacon.outputs) == 2 * 3
    transcripts = {r.epoch: r.transcript for r in results}
    for output in beacon.outputs:
        assert verify_output(setup.directory, output, transcripts[output.epoch])
        # The wrong epoch's key must NOT verify this value.
        other = transcripts[1 - output.epoch]
        assert not verify_output(setup.directory, output, other)
    assert beacon.verify_chain(beacon.outputs, _contexts(setup, transcripts))


def test_beacon_chain_is_genesis_rooted_and_tamper_evident():
    setup, driver = _driver(epochs=2, depth=1)
    results = driver.run()
    beacon = RandomnessBeacon(rounds_per_epoch=2)
    for result in results:
        beacon.emit_epoch(result.epoch, setup, result.transcript)
    transcripts = {r.epoch: r.transcript for r in results}
    contexts = _contexts(setup, transcripts)
    outputs = beacon.outputs
    assert outputs[0].prev == GENESIS
    for previous, current in zip(outputs, outputs[1:]):
        assert current.prev == previous.value  # linked across the epoch handoff
    # Tampering with a value breaks both the value check and the chain.
    forged = dataclasses.replace(outputs[1], value=outputs[1].value ^ 1)
    assert not verify_output(setup.directory, forged, transcripts[forged.epoch])
    tampered = [outputs[0], forged] + outputs[2:]
    assert not beacon.verify_chain(tampered, contexts)
    # Reordering breaks linkage even though each value verifies alone.
    assert not beacon.verify_chain(outputs[::-1], contexts)
    # Same public key, shares out of order: every value still checks out
    # against the key, so the transcript itself has to be verified.
    agreed = transcripts[0]
    reversed_shares = dataclasses.replace(
        agreed, cipher_shares=agreed.cipher_shares[::-1]
    )
    assert reversed_shares.public_key == agreed.public_key
    assert not tvrf.DKGVerify(setup.directory, reversed_shares)
    assert all(
        verify_output(setup.directory, o, reversed_shares)
        for o in outputs
        if o.epoch == 0
    )
    forged_contexts = _contexts(setup, {**transcripts, 0: reversed_shares})
    assert not beacon.verify_chain(outputs, forged_contexts)


def test_chains_out_of_position_fail_both_verifiers():
    """Valid values with valid ``prev`` links still fail when their
    positions do not walk the epochs in order: a repeated round 0 of
    epoch 0, epoch 1 before epoch 0, and the empty chain — on fresh keys
    and across handoffs alike."""
    from repro.service import run_churn

    def bad_chains(setup_of, transcript_of):
        def chain(rounds, *epochs):
            beacon = RandomnessBeacon(rounds_per_epoch=rounds)
            for epoch in epochs:
                beacon.emit_epoch(epoch, setup_of(epoch), transcript_of(epoch))
            return beacon.outputs

        return {
            "repeated round": chain(1, 0, 0),
            "epoch 1 first": chain(2, 1, 0),
            "empty": [],
        }

    setup, driver = _driver(epochs=2)
    transcripts = {r.epoch: r.transcript for r in driver.run()}
    beacon = RandomnessBeacon(rounds_per_epoch=1)
    for epoch in (0, 1):
        beacon.emit_epoch(epoch, setup, transcripts[epoch])
    contexts = _contexts(setup, transcripts)
    assert beacon.verify_chain(beacon.outputs, contexts)
    for case, chain in bad_chains(lambda e: setup, transcripts.get).items():
        assert not beacon.verify_chain(chain, contexts), case

    churn = run_churn(4, epochs=2, seed=1)
    membership, contexts = churn.membership, churn.membership.contexts
    assert RandomnessBeacon.verify_chain(churn.outputs, contexts, handoffs=True)
    chains = bad_chains(membership.setups.get, lambda e: contexts[e][1])
    for case, chain in chains.items():
        assert not RandomnessBeacon.verify_chain(chain, contexts, handoffs=True), case


def test_beacon_value_is_unique_across_signer_subsets():
    """Definition 2: any f+1 shares combine to the same beacon value."""
    setup, driver = _driver(n=4, epochs=1)
    results = driver.run()
    f = setup.directory.f
    one = RandomnessBeacon(rounds_per_epoch=1, signers=range(f + 1))
    two = RandomnessBeacon(rounds_per_epoch=1, signers=range(1, f + 2))
    [a] = one.emit_epoch(0, setup, results[0].transcript)
    [b] = two.emit_epoch(0, setup, results[0].transcript)
    assert a.value == b.value


def test_beacon_rejects_invalid_transcript():
    setup, driver = _driver(epochs=1)
    results = driver.run()
    beacon = RandomnessBeacon()
    bad = dataclasses.replace(
        results[0].transcript, tags=results[0].transcript.tags[:1]
    )
    with pytest.raises(ValueError):
        beacon.emit_epoch(0, setup, bad)


# -- the one-call service --------------------------------------------------------------


def test_run_beacon_end_to_end_on_sim():
    report = run_beacon(n=4, epochs=3, pipeline_depth=2, seed=3)
    assert report.all_verified
    assert report.epochs == 3
    assert len(report.outputs) == 3 * report.rounds_per_epoch
    assert len({o.value for o in report.outputs}) == len(report.outputs)
    assert report.end_to_end > 0
    assert report.words_total > 0
    # Each epoch's transcript passes the paper's DKGVerify.
    setup = TrustedSetup.generate(4, seed=3)
    for result in report.epoch_results:
        assert tvrf.DKGVerify(setup.directory, result.transcript)


def test_run_beacon_over_realtime_transports():
    for kind in ("asyncio", "tcp"):
        report = run_beacon(
            n=4, epochs=2, pipeline_depth=2, transport=kind, seed=2, timeout=60
        )
        assert report.all_verified, kind
        assert len(report.epoch_results) == 2
        if kind == "tcp":
            assert report.bytes_total > 0
