"""A simulated run holds only what it runs.

Importing the library for a simulated run loads no socket stack: only
``make_transport("tcp")`` imports :mod:`repro.net.tcp_runtime`.  And each
protocol drops the state no handler, condition, ``rearm`` or output can
read again: ADKG's and PE's contribution pools once aggregated, a CT-RBC
root's fragments once decoded or found bad, and a retired CT-RBC's
readies.  The invariants hold on every party of a finished run, a party
thawed mid-run included, and a freeze writes the smaller state.
"""

import pathlib
import subprocess
import sys

from repro.broadcast.ct_rbc import CTBroadcast
from repro.core.adkg import ADKG
from repro.core.proposal_election import ProposalElection
from repro.crypto.keys import TrustedSetup
from repro.net.delays import FixedDelay
from repro.net.runtime import Simulation

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SOCKET_STACK = ("asyncio", "ssl", "socket", "selectors", "repro.net.tcp_runtime")


def test_a_simulated_run_loads_no_socket_stack():
    script = (
        "import sys\n"
        "import repro, repro.service, repro.storage\n"
        "result = repro.run_adkg(n=4, transport='sim')\n"
        "assert result.agreed\n"
        f"print(sorted(m for m in {SOCKET_STACK!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _instances(party):
    for state in party.sessions:
        yield from state.instances.values()


def _assert_released(party) -> dict:
    """Check the release invariants on one party; count what they covered."""
    seen = {"aggregated": 0, "decoded": 0, "retired": 0}
    for instance in _instances(party):
        if isinstance(instance, ADKG) and instance.proposal is not None:
            assert instance.received == []
            seen["aggregated"] += 1
        elif isinstance(instance, ProposalElection) and instance.vrf_dkg is not None:
            assert instance.dkg_contributions == []
            seen["aggregated"] += 1
        elif isinstance(instance, CTBroadcast):
            done = set(instance._decoded) | instance._bad_roots
            assert not done & set(instance._fragments)
            seen["decoded"] += len(done)
            if instance._retired:
                assert instance._readies == {}
                seen["retired"] += 1
    return seen


def test_aggregated_and_delivered_state_is_released():
    n, seed = 7, 4
    setup = TrustedSetup.generate(n, seed=seed)
    sim = Simulation(setup, seed=seed, delay_model=FixedDelay(1.0))
    sim.start(lambda party: ADKG())

    def midway(_sim) -> bool:
        """Party 3 has retired some of its broadcasts, not all of them."""
        broadcasts = [
            i for i in _instances(sim.parties[3]) if isinstance(i, CTBroadcast)
        ]
        retired = sum(i._retired for i in broadcasts)
        return 0 < retired < len(broadcasts)

    sim.run(stop=midway)
    blob = sim.parties[3].freeze()
    thawed = sim.build_party(3)
    thawed.thaw(blob, root_factory=lambda party: ADKG())
    sim.parties[3] = thawed
    assert thawed.freeze() == blob
    at_thaw = _assert_released(thawed)
    assert at_thaw["aggregated"] and at_thaw["decoded"] and at_thaw["retired"]
    sim.run()
    assert len(set(sim.honest_results().values())) == 1
    for party in sim.parties:
        seen = _assert_released(party)
        # ADKG and PE each aggregated; every broadcast decoded and retired.
        assert seen["aggregated"] >= 2
        assert seen["decoded"] and seen["retired"]
