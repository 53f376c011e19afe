#!/usr/bin/env python3
"""A drand-style randomness beacon on the session-multiplexed engine.

Threshold VRFs "can be used to implement random beacons" (Section 1 of
the paper, citing RandHound/drand-style systems [32]).  Earlier versions
of this example hand-rolled a single ADKG run and looped VRF shares by
hand; it now drives the real service layer:

1. the :class:`~repro.service.timeline.MembershipDriver` runs the
   committee's timeline — here one stretch of ADKG *epochs* as
   concurrent sessions over one network, through the one
   :class:`~repro.service.epochs.EpochDriver` loop: epoch ``e+1``'s PVSS
   dealing overlaps epoch ``e``'s agreement phase (pipelining), and each
   completed epoch's protocol state is garbage-collected;
2. every epoch establishes a *fresh* group key (proactive rotation);
3. the :class:`~repro.service.beacon.RandomnessBeacon` — the same class
   a churning committee's key handoffs use — emits chained, publicly
   verifiable VRF outputs under each epoch's key, with the chain linking
   across key changes back to genesis.

Run:  python examples/randomness_beacon.py
"""

from repro.service import RandomnessBeacon, run_beacon
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup

N, SEED, EPOCHS, DEPTH, ROUNDS = 7, 7, 4, 2, 2


def main() -> None:
    print(
        f"Running {EPOCHS} pipelined ADKG epochs (n={N}, pipeline depth "
        f"{DEPTH}) feeding a {ROUNDS}-round-per-epoch beacon ...\n"
    )
    report = run_beacon(
        n=N,
        epochs=EPOCHS,
        pipeline_depth=DEPTH,
        rounds_per_epoch=ROUNDS,
        transport="sim",
        seed=SEED,
    )
    assert report.all_verified, "beacon stream must verify end-to-end"

    for result in report.epoch_results:
        print(
            f"epoch {result.epoch}: fresh key agreed over "
            f"[{result.started_at:.0f}, {result.completed_at:.0f}] rounds, "
            f"pk = {str(result.public_key)[:44]}..."
        )
    print()
    for output in report.outputs:
        print(f"beacon {output.epoch}.{output.round}: {output.value:032x}")

    keys = {str(r.public_key) for r in report.epoch_results}
    assert len(keys) == EPOCHS, "every epoch must rotate to a fresh key"
    values = [o.value for o in report.outputs]
    assert len(set(values)) == len(values), "beacon values must all differ"

    # Anyone can re-verify the whole stream from public data: each value
    # against its epoch's group key, and the chain linkage to genesis.
    setup = TrustedSetup.generate(N, seed=SEED)
    contexts = {r.epoch: (setup.directory, r.transcript) for r in report.epoch_results}
    assert RandomnessBeacon.verify_chain(report.outputs, contexts)
    for result in report.epoch_results:
        assert tvrf.DKGVerify(setup.directory, result.transcript)
    print("\nindependent verifier: every output + chain linkage check out — OK")

    # Uniqueness (Definition 2): a different f+1 signer subset would have
    # produced the very same stream — no subset can bias the beacon.
    f = setup.directory.f
    other = RandomnessBeacon(rounds_per_epoch=ROUNDS, signers=range(1, f + 2))
    for result in report.epoch_results:
        other.emit_epoch(result.epoch, setup, result.transcript)
    assert [o.value for o in other.outputs] == values
    print("uniqueness: a disjoint-ish signer subset emits the same stream — OK")

    print(
        f"\npipelined end-to-end: {report.end_to_end:.0f} rounds for "
        f"{EPOCHS} epochs (mean epoch latency "
        f"{report.mean_epoch_latency:.0f} rounds)"
    )


if __name__ == "__main__":
    main()
