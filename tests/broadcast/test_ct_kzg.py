"""The constant-size-opening CT broadcast variant (Section 7.1 option)."""

from tests.broadcast.helpers import run_broadcast


def test_validity_and_agreement():
    sim = run_broadcast(4, "ct-kzg", ("payload", 1))
    results = sim.honest_results()
    assert len(results) == 4
    assert set(results.values()) == {("payload", 1)}


def test_larger_system():
    sim = run_broadcast(7, "ct-kzg", tuple(range(40)))
    assert len(sim.honest_results()) == 7


def test_external_validity():
    sim = run_broadcast(4, "ct-kzg", ("bad",), validate=lambda v: v == ("good",))
    assert sim.honest_results() == {}


def test_kzg_openings_save_words_at_scale():
    """Constant openings beat log n openings once n is large enough."""
    value = (1,) * 8
    n = 13
    merkle = run_broadcast(n, "ct", value).metrics.words_total
    kzg = run_broadcast(n, "ct-kzg", value).metrics.words_total
    assert kzg < merkle


def test_full_adkg_runs_over_kzg_broadcasts():
    from repro.core.adkg import ADKG
    from repro.crypto.keys import TrustedSetup
    from repro.net.transport import make_run_transport

    runtime = make_run_transport("sim", TrustedSetup.generate(4, seed=3), seed=3)
    results = runtime.run_sync(lambda party: ADKG(broadcast_kind="ct-kzg"))
    values = list(results.values())
    assert len(values) == 4 and all(value == values[0] for value in values)
