"""Every option has a caller: the entry points' option lists as a ratchet.

Each name below was an option that only tests set, that no caller set,
or that said again what another argument already says (a setup carries
its committee's ``n``, ``f`` and group parameters).  None may come back
as a keyword: a test that needs another value overrides the class
attribute on its instance, or builds what it needs.
"""

import inspect

import pytest

import repro
from repro.crypto.keys import TrustedSetup
from repro.net.chaos import ChaosPlane, ChaosSpec
from repro.net.party import Party
from repro.net.runtime import Simulation
from repro.net.tcp_runtime import TCPRuntime
from repro.net.transport import make_run_transport
from repro.storage import run_crash_recovery

REMOVED = {
    "run_adkg": (repro.run_adkg, {"f", "params", "max_steps", "broadcast_kind"}),
    "run_crash_recovery": (
        run_crash_recovery,
        {"root_factory", "behaviors", "delay_model", "setup", "max_steps"},
    ),
    "make_run_transport": (make_run_transport, {"max_steps"}),
    "TCPRuntime": (
        TCPRuntime.__init__,
        {
            "host",
            "send_queue_cap",
            "heartbeat_interval",
            "reconnect_base",
            "reconnect_cap",
        },
    ),
    "Party": (Party.__init__, {"rng", "pending_cap", "session_backlog_cap"}),
}


@pytest.mark.parametrize("entry", sorted(REMOVED))
def test_removed_options_stay_removed(entry):
    function, names = REMOVED[entry]
    assert not names & set(inspect.signature(function).parameters)


def test_the_tunables_are_constants_not_arguments():
    assert (
        TCPRuntime.host,
        TCPRuntime.send_queue_cap,
        TCPRuntime.reconnect_base,
        TCPRuntime.reconnect_cap,
    ) == ("127.0.0.1", 1024, 0.05, 2.0)
    assert Party.session_backlog_cap == 64
    assert Party(0, n=7, f=2).pending_cap == max(64, 32 * 7)


def test_a_transport_refuses_a_prebuilt_chaos_plane():
    """A chaos plane is named one way: a spec (or its string), seeded
    from the run seed."""
    setup = TrustedSetup.generate(4, seed=1)
    plane = ChaosPlane(ChaosSpec.parse("drop:0.5"), seed=9)
    with pytest.raises(TypeError, match="ChaosSpec or spec string"):
        Simulation(setup, seed=1, chaos=plane)
