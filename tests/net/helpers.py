"""Tiny protocols used by the substrate tests."""

import dataclasses
from dataclasses import dataclass

from repro.net import codec
from repro.net.payload import Payload
from repro.net.protocol import Protocol


@dataclass(frozen=True)
class Ping(Payload):
    counter: int


@dataclass(frozen=True)
class Blob(Payload):
    data: tuple

    def word_size(self) -> int:
        return len(self.data)


# Test-only codec ids live at >= 9000 (see repro.net.codec) so the TCP
# runtime can carry these payloads across real sockets.
codec.register(Ping, 9001)
codec.register(Blob, 9002)


class PingPong(Protocol):
    """Party 0 pings party 1 ``rounds`` times; both output the final count."""

    def __init__(self, rounds: int = 3) -> None:
        super().__init__()
        self.rounds = rounds

    def on_start(self):
        if self.me == 0:
            self.send(1, Ping(0))
        elif self.me > 1:
            self.output(-1)  # bystanders finish immediately

    def on_message(self, sender, payload):
        if payload.counter >= self.rounds:
            self.output(payload.counter)
            return
        self.send(sender, Ping(payload.counter + 1))
        if payload.counter + 1 >= self.rounds:
            self.output(payload.counter + 1)


class EchoAll(Protocol):
    """Everyone multicasts one message and outputs once n were received."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: set[int] = set()

    def on_start(self):
        self.multicast(Ping(self.me))
        self.upon(
            lambda: len(self.seen) >= self.n,
            lambda: self.output(frozenset(self.seen)),
            label="echo-all-done",
        )

    def on_message(self, sender, payload):
        self.seen.add(sender)


class ParentChild(Protocol):
    """Parent spawns a child EchoAll and relabels its output."""

    def on_start(self):
        self.spawn("child", EchoAll())

    def on_sub_output(self, name, value):
        self.output(("from", name, value))


def print_golden_changes(old: dict, new: dict, prefix: str = "") -> None:
    """Print ``key: old → new`` for every entry a golden regeneration
    changes (nested dicts by dotted key), so the delta is stated by the
    tool that wrote it."""
    for key in sorted(set(old) | set(new), key=str):
        before, after = old.get(key), new.get(key)
        if isinstance(before, dict) and isinstance(after, dict):
            print_golden_changes(before, after, f"{prefix}{key}.")
        elif before != after:
            print(f"{prefix}{key}: {before} → {after}")


def aggregates_in(value):
    """Every codec-memoized aggregate reachable from ``value``, outermost first."""
    if type(value) in codec._aggregate_memoized_types:
        yield value
    if isinstance(value, dict):
        children = [*value, *value.values()]
    elif isinstance(value, (tuple, list, set, frozenset)):
        children = value
    elif dataclasses.is_dataclass(value):
        children = [getattr(value, field.name) for field in dataclasses.fields(value)]
    else:
        return
    for child in children:
        yield from aggregates_in(child)


def assert_retained_bytes_are_a_cold_walk(decoded) -> None:
    """Every aggregate inside a value the decoder just built holds bytes,
    and they are exactly what a field-by-field walk of it emits."""
    aggregates = list(aggregates_in(decoded))
    retained = [codec._payload_memo.get(aggregate) for aggregate in aggregates]
    assert None not in retained
    codec._payload_memo.clear()
    for aggregate, kept in zip(aggregates, retained):
        assert codec.encode(aggregate) == kept


def assert_memo_holds_only_plain_walks() -> int:
    """Every live ``_payload_memo`` entry — payloads and aggregates — is
    what a cold plain walk of its object emits: no reference tag ever got
    in.  Returns the number of entries checked (the memo is left cold)."""
    entries = [
        (ref(), kept) for ref, kept in list(codec._payload_memo._entries.values())
    ]
    codec._payload_memo.clear()
    for value, kept in entries:
        if value is not None:
            assert codec.encode(value) == kept, type(value).__name__
    return len(entries)
