"""The six workloads: what one op runs, at which size, and what makes it correct.

Every workload is one function instantiated at two sizes — ``full`` (what
``BENCHMARK.json`` measures) and ``quick`` (what ``perf/test_perf.py`` runs) —
so the test exercises the code the benchmark times.

Common rules (perf/README.md states them once): closed loop, one op at a
time, inline crypto plane (``workers=0``), default batching, a fresh
``TrustedSetup`` per op because the ``VerifyCache`` lives on its directory.
``run`` is the timed part; ``check`` runs after the clock stopped and returns
the op's modelled facts (``rounds`` on the simulated clock, never a substitute
for wall clock) plus every reason the op is not correct.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from perf import ROOT

from repro import run_adkg
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net import (
    CrashBehavior,
    DropBehavior,
    HeavyTailDelay,
    RandomLagScheduler,
    SilentBehavior,
)
from repro.service import run_beacon, run_churn
from repro.storage import run_crash_recovery

#: Scratch space for the recovery workload's WAL and snapshots.  Inside the
#: checkout (the benchmark may write nowhere else) and ignored by git.
TMP_ROOT = ROOT / ".perf_tmp"

CHAOS = "drop:0.05;dup:0.02;reorder:0.05"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Deterministic on the simulator: counts repeat exactly for one seed.
    sim: bool
    #: ``size`` -> keyword arguments of ``run``.
    sizes: dict[str, dict[str, Any]]
    #: ``(seed, **size)`` -> whatever ``check`` needs.  Timed.
    run: Callable[..., Any]
    #: ``(result, **size)`` -> ``(facts, [problems])``.  Untimed.
    check: Callable[..., tuple[dict[str, float], list[str]]]

    def epochs(self, size: str) -> int:
        """Group-key epochs one op completes (an ADKG is one)."""
        return self.sizes[size].get("epochs", 1)


# -- adkg (sim, hostile, tcp) ----------------------------------------------------------


def _run_adkg(seed: int, *, n: int, transport: str = "sim", hostile: bool = False):
    setup = TrustedSetup.generate(n, seed=seed)
    kwargs: dict[str, Any] = {}
    if hostile:
        f = setup.directory.f
        faults = (
            SilentBehavior(),
            DropBehavior(0.5),
            CrashBehavior(after_sends=30),
            SilentBehavior(),
        )
        # All f corruptions are spent, on the top indices.
        kwargs = {
            "delay_model": HeavyTailDelay(1.0, 1.0),
            "scheduler": RandomLagScheduler(factor=20, rate=0.3),
            "behaviors": {n - 1 - i: faults[i % len(faults)] for i in range(f)},
            "chaos": CHAOS,
            "measure_bytes": False,
        }
    elif transport == "sim":
        kwargs = {"measure_bytes": True}
    result = run_adkg(
        n=n, seed=seed, setup=setup, transport=transport, workers=0, **kwargs
    )
    return setup, result


def _check_adkg(outcome, *, n: int, transport: str = "sim", hostile: bool = False):
    setup, result = outcome
    honest = n - (setup.directory.f if hostile else 0)
    problems = []
    if len(result.outputs) != honest:
        problems.append(f"{len(result.outputs)} of {honest} honest parties output")
    if not result.agreed:
        problems.append("honest outputs disagree")
    elif not tvrf.DKGVerify(setup.directory, result.transcript):
        problems.append("agreed transcript fails DKGVerify")
    return {"rounds": result.rounds, "epoch_latency_rounds": result.rounds}, problems


# -- beacon ----------------------------------------------------------------------------


def _run_beacon(seed: int, *, n: int, epochs: int, rounds_per_epoch: int):
    return run_beacon(
        n,
        epochs=epochs,
        pipeline_depth=2,
        rounds_per_epoch=rounds_per_epoch,
        transport="sim",
        seed=seed,
    )


def _check_beacon(report, *, n: int, epochs: int, rounds_per_epoch: int):
    problems = []
    if not report.all_verified:
        problems.append("beacon chain does not verify")
    if len(report.outputs) != epochs * rounds_per_epoch:
        problems.append(f"{len(report.outputs)} beacon values emitted")
    facts = {
        "rounds": report.end_to_end,
        "epoch_latency_rounds": report.mean_epoch_latency,
    }
    return facts, problems


# -- churn -----------------------------------------------------------------------------


def _run_churn(seed: int, *, universe: int, epochs: int, churn: str):
    return run_churn(universe, epochs=epochs, churn=churn, transport="sim", seed=seed)


def _check_churn(report, *, universe: int, epochs: int, churn: str):
    problems = []
    if not report.agreed:
        problems.append("an epoch ended without agreement")
    if not report.key_invariant:
        problems.append("group key changed across a handoff")
    if not report.all_verified:
        problems.append("cross-handoff beacon chain does not verify")
    if len(report.membership.results) != epochs:
        problems.append(f"{len(report.membership.results)} of {epochs} epochs ran")
    # Every epoch runs on a fresh transport whose clock starts at zero.
    rounds = sum(r.completed_at for r in report.membership.results)
    return {"rounds": rounds, "epoch_latency_rounds": rounds / epochs}, problems


# -- recovery --------------------------------------------------------------------------


def _run_recovery(seed: int, *, n: int, crash: tuple, crash_after: int, cadence: int):
    TMP_ROOT.mkdir(exist_ok=True)
    storage = tempfile.mkdtemp(prefix="recovery-", dir=TMP_ROOT)
    try:
        # fsync=False is stated, not hidden: it keeps the number about the
        # program, not about the disk this host shares.
        return run_crash_recovery(
            transport="sim",
            n=n,
            seed=seed,
            crash_indices=crash,
            crash_after=crash_after,
            cadence=cadence,
            recovery_delay=3.0,
            fsync=False,
            storage_dir=storage,
        )
    finally:
        shutil.rmtree(storage, ignore_errors=True)


def _check_recovery(report, *, n: int, crash: tuple, crash_after: int, cadence: int):
    problems = []
    if not report["agreement"]:
        problems.append("no agreement after recovery")
    if not report["valid"]:
        problems.append("agreed transcript is not valid")
    if report["honest_outputs"] != n:
        problems.append(f"{report['honest_outputs']} of {n} parties output")
    if set(report["replay"]) != set(crash):
        problems.append("not every crashed party was rehydrated")
    facts = {
        "rounds": report["rounds"],
        "epoch_latency_rounds": report["rounds"],
        "replay_records": sum(r["wal_records"] for r in report["replay"].values()),
    }
    return facts, problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "adkg_sim_n16",
            True,
            {"full": {"n": 16}, "quick": {"n": 7}},
            _run_adkg,
            _check_adkg,
        ),
        Workload(
            "adkg_sim_n13_hostile",
            True,
            {"full": {"n": 13, "hostile": True}, "quick": {"n": 7, "hostile": True}},
            _run_adkg,
            _check_adkg,
        ),
        Workload(
            "adkg_tcp_n10",
            False,
            {
                "full": {"n": 10, "transport": "tcp"},
                "quick": {"n": 4, "transport": "tcp"},
            },
            _run_adkg,
            _check_adkg,
        ),
        Workload(
            "beacon_sim_n10",
            True,
            {
                "full": {"n": 10, "epochs": 4, "rounds_per_epoch": 4},
                "quick": {"n": 4, "epochs": 3, "rounds_per_epoch": 2},
            },
            _run_beacon,
            _check_beacon,
        ),
        Workload(
            "churn_sim_n13",
            True,
            {
                "full": {
                    "universe": 13,
                    "epochs": 3,
                    "churn": "join:11@1;join:12@1;leave:1@2;threshold:2@2",
                },
                "quick": {
                    "universe": 7,
                    "epochs": 3,
                    "churn": "join:5@1;join:6@1;leave:1@2",
                },
            },
            _run_churn,
            _check_churn,
        ),
        Workload(
            "recovery_sim_n10",
            True,
            {
                "full": {
                    "n": 10, "crash": (0, 1, 2), "crash_after": 600, "cadence": 64,
                },
                "quick": {"n": 4, "crash": (0,), "crash_after": 40, "cadence": 16},
            },
            _run_recovery,
            _check_recovery,
        ),
    )
}


def op_seeds(workload: str, seed: int, slot: int) -> Iterator[int]:
    """The op seeds of one child process: a pure function of ``--seed``."""
    rng = random.Random(f"perf-{workload}-{seed}-{slot}")
    while True:
        yield rng.randrange(1, 2**31)


@contextlib.contextmanager
def created_instances(cls: type) -> Iterator[list]:
    """Collect every ``cls`` instance constructed inside the block.

    The drivers build their transports internally and return reports of
    different shapes; the ``Metrics`` (and pairing groups) an op created are
    the one uniform place its counts can be read from.  The hook costs one
    call per transport, not per message, and is identical in both passes.
    """
    created: list = []
    original = cls.__init__

    def recording_init(self, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        created.append(self)

    cls.__init__ = recording_init
    try:
        yield created
    finally:
        cls.__init__ = original
