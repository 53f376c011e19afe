"""Condition registry and Completion semantics."""

import random

import pytest

from repro.net.conditions import Completion, ConditionRegistry
from repro.net.envelope import Envelope
from repro.net.party import Party
from repro.net.protocol import Protocol

from tests.net.helpers import Ping


def test_condition_fires_once_when_satisfied():
    registry = ConditionRegistry()
    state = {"x": 0, "fired": 0}
    registry.add(lambda: state["x"] >= 2, lambda: state.__setitem__("fired", state["fired"] + 1))
    registry.run_to_fixpoint()
    assert state["fired"] == 0
    state["x"] = 2
    registry.run_to_fixpoint()
    registry.run_to_fixpoint()
    assert state["fired"] == 1


def test_recurring_condition():
    registry = ConditionRegistry()
    log = []
    state = {"x": 0}

    def act():
        log.append(state["x"])
        state["x"] = 0

    registry.add(lambda: state["x"] > 0, act, once=False)
    state["x"] = 1
    registry.run_to_fixpoint()
    state["x"] = 2
    registry.run_to_fixpoint()
    assert log == [1, 2]


def test_cascading_conditions_reach_fixpoint():
    registry = ConditionRegistry()
    state = {"a": False, "b": False, "c": False}
    registry.add(lambda: state["b"], lambda: state.__setitem__("c", True))
    registry.add(lambda: state["a"], lambda: state.__setitem__("b", True))
    state["a"] = True
    registry.run_to_fixpoint()
    assert state["c"]


def test_action_can_register_new_condition():
    registry = ConditionRegistry()
    result = []

    def first():
        registry.add(lambda: True, lambda: result.append("second"))

    registry.add(lambda: True, first)
    registry.run_to_fixpoint()
    assert result == ["second"]


def test_cancelled_condition_never_fires():
    registry = ConditionRegistry()
    hits = []
    condition = registry.add(lambda: True, lambda: hits.append(1))
    condition.cancel()
    registry.run_to_fixpoint()
    assert hits == []


def test_raising_predicate_is_reported():
    registry = ConditionRegistry()
    registry.add(lambda: 1 / 0, lambda: None, label="boom")
    with pytest.raises(RuntimeError, match="boom"):
        registry.run_to_fixpoint()


def test_livelock_guard():
    registry = ConditionRegistry()
    registry.add(lambda: True, lambda: None, once=False)
    with pytest.raises(RuntimeError):
        registry.run_to_fixpoint(max_rounds=5)


def test_completion_resolution_and_callbacks():
    completion = Completion()
    seen = []
    completion.on_done(seen.append)
    assert not completion.done
    with pytest.raises(RuntimeError):
        _ = completion.value
    completion.resolve(42)
    completion.resolve(99)  # second resolve ignored
    assert completion.done
    assert completion.value == 42
    completion.on_done(seen.append)  # late subscriber fires immediately
    assert seen == [42, 42]


def test_pending_count():
    registry = ConditionRegistry()
    registry.add(lambda: False, lambda: None)
    registry.add(lambda: False, lambda: None)
    assert registry.pending_count() == 2


# -- the party's sweep after each delivery ---------------------------------------------


class _Reacting(Protocol):
    """Registers one ``upon`` per message it gets, counting its predicate's
    evaluations; ``rearm`` registers one that is satisfied at once (what a
    restored, already-done clause is)."""

    STATE_FIELDS = ("fired",)

    def __init__(self) -> None:
        super().__init__()
        self.fired: list = []
        self.tested = 0

    def on_message(self, sender, payload):
        self.upon(self._test, lambda: self.fired.append(payload.counter))

    def _test(self):
        self.tested += 1
        return True

    def rearm(self):
        self.upon(lambda: True, lambda: self.fired.append("rearmed"))


def _party_with(protocol, index=0):
    party = Party(index, 4, 1, random.Random(index))
    party.run_root(protocol)
    return party


def _to(party, counter, path=()):
    return Envelope(path, 1, party.index, Ping(counter), 1, 0)


def test_a_condition_the_delivering_handler_registers_fires_in_that_delivery():
    protocol = _Reacting()
    party = _party_with(protocol)
    assert party.conditions.pending_count() == 0
    party.deliver(_to(party, 1))
    assert protocol.fired == [1]


def test_a_fired_once_condition_is_not_tested_again():
    protocol = _Reacting()
    party = _party_with(protocol)
    party.deliver(_to(party, 1))
    assert (protocol.tested, protocol.fired) == (1, [1])
    # A message for a path not spawned yet is buffered; its sweep finds
    # the registry empty.
    party.deliver(_to(party, 2, path=("elsewhere",)))
    assert (protocol.tested, protocol.fired) == (1, [1])
    assert party.conditions.pending_count() == 0


def test_sweep_conditions_and_the_thaw_sweep_still_sweep():
    """Outside a delivery the party sweeps as well: ``sweep_conditions``
    runs every live registry, and ``thaw`` fires what ``rearm`` registered."""
    flag = []
    protocol = _Reacting()
    party = _party_with(protocol)
    protocol.upon(lambda: bool(flag), lambda: protocol.fired.append("flag"))
    party.sweep_conditions()
    assert protocol.fired == []
    flag.append(1)
    party.sweep_conditions()
    assert protocol.fired == ["flag"]

    thawed = _Reacting()
    Party(0, 4, 1, random.Random(0)).thaw(party.freeze(), root_factory=lambda _: thawed)
    assert thawed.fired == ["flag", "rearmed"]
