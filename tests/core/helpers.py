"""Shared harnesses for core-protocol tests."""

from typing import Callable, Optional

from repro.crypto.keys import TrustedSetup
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation


def run_protocol(
    n: int,
    factory: Callable[[Party], Protocol],
    seed: int = 1,
    behaviors=None,
    scheduler=None,
    delay_model=None,
    setup: Optional[TrustedSetup] = None,
    max_steps: int = 5_000_000,
    to_quiescence: bool = True,
    chaos=None,
):
    """Run a root-protocol simulation and return it."""
    setup = setup or TrustedSetup.generate(n, seed=seed)
    sim = Simulation(
        setup,
        seed=seed,
        behaviors=behaviors,
        scheduler=scheduler,
        delay_model=delay_model,
        chaos=chaos,
    )
    sim.start(factory)
    stop = None if to_quiescence else Simulation.all_honest_output
    sim.run(max_steps=max_steps, stop=stop)
    return sim


def gather_core(sim) -> set:
    """The (superset of the) binding core: intersection of honest outputs."""
    outputs = [set(sim.parties[i].result.keys()) for i in sim.honest]
    core = outputs[0]
    for indices in outputs[1:]:
        core &= indices
    return core
