"""One party's protocol stack: session multiplexing, routing, buffering.

The party hosts a :class:`SessionTable` of concurrent *sessions* — each
session is one root protocol instance (e.g. one ADKG epoch) with its own
tree of sub-instances addressed by path, its own "upon" condition
registry, its own deterministic RNG stream and its own terminal result.
Session 0 is the default, so single-session callers (``run_root`` /
``party.result``) read exactly as before the session layer existed.

Messages that arrive for a path that has not been spawned yet are
buffered and replayed on spawn — in an asynchronous network a peer may
race ahead and message a sub-protocol the local party has not started.
The buffering is bounded along every axis an attacker controls, so a
Byzantine peer spraying fictitious addresses cannot grow memory without
bound: at most ``pending_cap`` payloads per (session, path), at most
``8 * pending_cap`` buffered payloads per session in total (which also
bounds the number of per-path buckets), and at most
``session_backlog_cap`` root-less sessions (states created by incoming
traffic before the local party started the session).  Everything beyond
a cap is dropped and counted.  Sessions the application actually starts
are bounded by the application itself (e.g. the epoch driver's sliding
window).
Completed sessions can be garbage-collected (:meth:`Party.collect_session`):
their instance tree, buffered messages and conditions are freed, the
result is kept as a tombstone, and late traffic for them is dropped and
counted as stale.

Durability: :meth:`Party.freeze` serializes the whole session table —
every instance's declared state, the pending buffers, the per-session
RNG streams, results and tombstones — into one codec blob (no pickle);
:meth:`Party.thaw` rebuilds an equivalent party from such a blob plus
the application's root factory, and :meth:`Party.replay` pushes a
write-ahead log of post-snapshot envelopes back through the normal
:meth:`deliver` path with network re-sends suppressed (they already left
in the party's previous life).  See DESIGN.md section 9.

A checkpoint costs what is new in it.  The blob is a shared-aggregate
encoding (:func:`repro.net.codec.encode_shared`): a transcript that
state reaches from many places is stored once, and ``thaw`` gives every
such place the same object back.  And ``freeze`` keeps the encoded record
of a *leaf* instance — one that never spawned a child and never
registered a condition — for as long as the party hands it no event.
The rule that makes this exact: **only the party calls a leaf's
handlers** (:meth:`Party.deliver`, and :meth:`Party._install` before any
record exists), so a leaf the party did not call since its record was
taken has the state the record holds.  An instance with children or
conditions can change behind the party's back (``on_sub_output``, an
``upon`` action fired by another instance's delivery) and is encoded
afresh every time.  The blob is byte-identical to one frozen with no
record kept; the test suite checks that on every freeze it makes
(``tests/conftest.py``).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, TYPE_CHECKING

from repro.net.conditions import ConditionRegistry
from repro.net.envelope import Envelope, Path
from repro.net.payload import Payload
from repro.net.protocol import Protocol

if TYPE_CHECKING:
    from repro.crypto.keys import PartySecret, PublicDirectory

#: Leading tag + version of a :meth:`Party.freeze` blob.  The version is
#: part of the encoded value, checked strictly on thaw: a future format
#: bump can never be misread as the current one.  Version 1 was a plain
#: codec value; 2 is a shared-aggregate encoding of the same tuple.
SNAPSHOT_TAG = "repro-party-snapshot"
SNAPSHOT_VERSION = 2


class SessionState:
    """Everything one party holds for one root protocol run."""

    __slots__ = (
        "sid",
        "instances",
        "pending",
        "pending_count",
        "conditions",
        "rng",
        "result",
        "result_depth",
        "collected",
        "backlog_counted",
        "rng_record",
    )

    def __init__(self, sid: int, rng: random.Random) -> None:
        self.sid = sid
        self.instances: dict[Path, Protocol] = {}
        self.pending: dict[Path, list[tuple[int, Payload]]] = {}
        self.pending_count = 0
        self.conditions = ConditionRegistry()
        self.rng = rng
        self.result: Any = _UNSET
        self.result_depth: Optional[int] = None
        self.collected = False
        #: True while this root-less state counts against the party's
        #: ``session_backlog_cap`` (set only for states allocated by
        #: *incoming traffic* — local accessors are trusted callers).
        self.backlog_counted = False
        #: ``(rng.getstate(), its encoded record)`` as of the last freeze:
        #: the stream moves only when the party deals, so most checkpoints
        #: find the 625 ints where the previous one left them.
        self.rng_record: Optional[tuple[tuple, Any]] = None

    @property
    def has_result(self) -> bool:
        return self.result is not _UNSET


class SessionTable:
    """The party's sessions, created lazily and collectable individually.

    Lazy creation matters for asynchrony: a peer that raced ahead may
    message session ``s`` before the local party was told to start it —
    the table then holds a root-less state that buffers those messages
    until ``run_root`` installs the root.  ``unstarted_count`` tracks the
    root-less states allocated *by incoming traffic*, so the party can
    refuse to allocate more than ``session_backlog_cap`` of them for
    attacker-chosen sids (states created by local accessors are trusted
    and uncounted).
    """

    def __init__(self, party: "Party") -> None:
        self._party = party
        self._states: dict[int, SessionState] = {}
        self.unstarted_count = 0

    def peek(self, sid: int) -> Optional[SessionState]:
        return self._states.get(sid)

    def ensure(self, sid: int, *, count_backlog: bool = False) -> SessionState:
        state = self._states.get(sid)
        if state is None:
            state = SessionState(sid, self._party._derive_rng(sid))
            self._states[sid] = state
            if count_backlog:
                state.backlog_counted = True
                self.unstarted_count += 1
        return state

    def mark_started(self, state: SessionState) -> None:
        """A root was installed: the state no longer counts as backlog."""
        if state.backlog_counted:
            state.backlog_counted = False
            self.unstarted_count -= 1

    def collect(self, sid: int) -> bool:
        """Free a session's instance/pending/condition state (keep result).

        Returns False if the session does not exist or was already
        collected.  The tombstone keeps the result (and the ``collected``
        flag makes :meth:`Party.deliver` drop late traffic for it).
        """
        state = self._states.get(sid)
        if state is None or state.collected:
            return False
        if state.backlog_counted:
            state.backlog_counted = False
            self.unstarted_count -= 1  # collecting a root-less backlog state
        state.instances = {}
        state.pending = {}
        state.pending_count = 0
        state.conditions = ConditionRegistry()
        state.collected = True
        return True

    def ids(self) -> list[int]:
        return sorted(self._states)

    def __iter__(self) -> Iterator[SessionState]:
        return iter(list(self._states.values()))

    def __len__(self) -> int:
        return len(self._states)


class Party:
    """A single party: a session table of protocol instances plus plumbing."""

    def __init__(
        self,
        index: int,
        n: int,
        f: int,
        rng: random.Random,
        directory: Optional["PublicDirectory"] = None,
        secret: Optional["PartySecret"] = None,
        *,
        rng_label: Optional[str] = None,
        pending_cap: Optional[int] = None,
        session_backlog_cap: int = 64,
    ) -> None:
        self.index = index
        self.n = n
        self.f = f
        self.rng = rng
        self._directory = directory
        self._secret = secret
        # Per-session RNG streams derive from this label so that session
        # ``s`` deals identically whether it runs alone, after another
        # session, or interleaved with one (the session-equivalence tests
        # rely on it).  Session 0 keeps the constructor-provided ``rng``
        # for backward compatibility with single-session seeds.
        self._rng_label = rng_label if rng_label is not None else f"party-{index}"
        #: Buffered payloads allowed per not-yet-spawned (session, path);
        #: generous for honest traffic (a few messages per sender per
        #: path) yet bounds what a spraying adversary can pin in memory.
        self.pending_cap = (
            pending_cap if pending_cap is not None else max(64, 32 * n)
        )
        #: Total buffered payloads allowed per session (across all paths)
        #: — also bounds the number of per-path buckets a session holds.
        self.pending_budget = 8 * self.pending_cap
        #: Root-less sessions the party will lazily allocate for incoming
        #: traffic; honest peers only race ahead by the service's window.
        self.session_backlog_cap = session_backlog_cap
        #: Buffer accounting: ``pending.dropped`` (per-path cap hit),
        #: ``pending.stale`` (traffic for a collected session), and
        #: ``retired`` (deliveries to a retired instance).  Exposed
        #: through ``Metrics.counters("pending")`` by the transport.
        self.drop_stats: Counter = Counter()
        self.sessions = SessionTable(self)
        #: Queued sends, ``(session, path, recipient, payload)`` each; a
        #: multicast is one record with recipient ``None``.
        self._outbox: list[tuple[int, Path, Optional[int], Payload]] = []
        self.current_depth = 0
        self.halted = False
        #: A root result may exist that the transport's done-detection has
        #: not seen.  True from construction (so a thawed replacement's
        #: pre-crash results are picked up) and after every root output;
        #: the delivery seam clears it when it notes progress.
        self.result_unnoted = True

    # -- crypto access ---------------------------------------------------------------

    @property
    def directory(self) -> "PublicDirectory":
        if self._directory is None:
            raise RuntimeError("party has no public directory configured")
        return self._directory

    @property
    def secret(self) -> "PartySecret":
        if self._secret is None:
            raise RuntimeError("party has no secret key material configured")
        return self._secret

    # -- session access ----------------------------------------------------------------

    def _derive_rng(self, sid: int) -> random.Random:
        """Seed a session's stream (called once, at session creation)."""
        if sid == 0:
            return self.rng
        return random.Random(f"{self._rng_label}-session-{sid}")

    def session_rng(self, sid: int) -> random.Random:
        """The session's deterministic RNG stream (session 0 = base rng).

        One *persistent* ``Random`` per session: repeated draws advance
        the stream.  (Re-deriving per access would hand every caller the
        same stream restarted from its seed — independent samplings, e.g.
        a party's n PVSS dealings within one epoch, would correlate.)
        """
        return self.sessions.ensure(sid).rng

    def conditions_for(self, sid: int) -> ConditionRegistry:
        return self.sessions.ensure(sid).conditions

    @property
    def conditions(self) -> ConditionRegistry:
        """Session 0's condition registry (single-session compatibility)."""
        return self.conditions_for(0)

    def session_result(self, sid: int) -> Any:
        state = self.sessions.peek(sid)
        if state is None or not state.has_result:
            raise LookupError(f"session {sid} has no result at party {self.index}")
        return state.result

    def session_has_result(self, sid: int) -> bool:
        state = self.sessions.peek(sid)
        return state is not None and state.has_result

    @property
    def result(self) -> Any:
        state = self.sessions.peek(0)
        return state.result if state is not None else _UNSET

    @property
    def result_depth(self) -> Optional[int]:
        state = self.sessions.peek(0)
        return state.result_depth if state is not None else None

    @property
    def has_result(self) -> bool:
        return self.session_has_result(0)

    def pending_messages(self, session: Optional[int] = None) -> int:
        """Currently buffered not-yet-routable payloads (one or all sessions)."""
        if session is not None:
            state = self.sessions.peek(session)
            return state.pending_count if state is not None else 0
        return sum(state.pending_count for state in self.sessions)

    def collect_session(self, sid: int) -> bool:
        """Garbage-collect a completed session's state; see :class:`SessionTable`."""
        return self.sessions.collect(sid)

    # -- stack management --------------------------------------------------------------

    def run_root(self, protocol: Protocol, session: int = 0) -> Protocol:
        """Install and start a session's root protocol (path ``()``).

        A halted party installs nothing and returns ``protocol`` unbound:
        it holds no session for it.
        """
        if self.halted:
            return protocol
        state = self.sessions.ensure(session)
        if state.collected:
            raise RuntimeError(
                f"session {session} was already collected at party {self.index}"
            )
        return self._install(state, (), None, None, protocol)

    def spawn(self, parent: Protocol, name: Any, child: Protocol) -> Protocol:
        path = parent.path + (name,)
        state = self.sessions.ensure(parent._session)
        return self._install(state, path, parent, name, child)

    def _install(
        self,
        state: SessionState,
        path: Path,
        parent: Optional[Protocol],
        name: Any,
        protocol: Protocol,
    ) -> Protocol:
        self._bind(state, path, parent, name, protocol)
        protocol.on_start()
        replay = state.pending.pop(path, [])
        state.pending_count -= len(replay)
        for sender, payload in replay:
            protocol.on_message(sender, payload)
        return protocol

    def _bind_constants(self, protocol: Protocol) -> None:
        """The party-wide constants every handler and predicate reads,
        bound once as plain attributes instead of looked up per access."""
        protocol.me = self.index
        protocol.n = self.n
        protocol.f = self.f
        protocol.quorum = self.n - self.f

    def instance(self, path: Path, session: int = 0) -> Optional[Protocol]:
        state = self.sessions.peek(session)
        return state.instances.get(path) if state is not None else None

    # -- event handling ------------------------------------------------------------------

    def deliver(self, envelope: Envelope) -> None:
        """Route one delivered envelope, then sweep its session's conditions."""
        if self.halted:
            return
        if envelope.depth > self.current_depth:
            self.current_depth = envelope.depth
        existing = self.sessions.peek(envelope.session)
        if existing is not None and existing.collected:
            # The session finished and was garbage-collected; a straggler
            # (or a replaying adversary) is talking to a ghost.
            self.drop_stats["pending.stale"] += 1
            return
        if (
            existing is None
            and self.sessions.unstarted_count >= self.session_backlog_cap
        ):
            # Refuse to allocate yet another root-less session for
            # attacker-chosen sids: the backlog of sessions this party
            # has not been told to start is full.
            self.drop_stats["pending.dropped"] += 1
            return
        state = existing if existing is not None else self.sessions.ensure(
            envelope.session, count_backlog=True
        )
        instance = state.instances.get(envelope.path)
        if instance is None:
            bucket = state.pending.setdefault(envelope.path, [])
            if (
                len(bucket) >= self.pending_cap
                or state.pending_count >= self.pending_budget
            ):
                self.drop_stats["pending.dropped"] += 1
                if not bucket:
                    # Don't let the refused message leave an empty
                    # bucket behind (distinct-path spraying).
                    del state.pending[envelope.path]
            else:
                bucket.append((envelope.sender, envelope.payload))
                state.pending_count += 1
        elif instance._retired:
            # Nothing the instance could still do depends on this message:
            # no handler, no state change, so no sweep and a kept record.
            self.drop_stats["retired"] += 1
            return
        else:
            instance._record = None  # whatever freeze kept for it is stale now
            instance.on_message(envelope.sender, envelope.payload)
        state.conditions.run_to_fixpoint()

    def sweep_conditions(self) -> None:
        for state in self.sessions:
            if not state.collected:
                state.conditions.run_to_fixpoint()

    def dispatch_output(self, protocol: Protocol, value: Any) -> None:
        if protocol._parent is not None:
            protocol._parent.on_sub_output(protocol._name, value)
        else:
            state = self.sessions.ensure(protocol._session)
            state.result = value
            state.result_depth = self.current_depth
            self.result_unnoted = True

    # -- sending -----------------------------------------------------------------------

    def queue_send(
        self, path: Path, recipient: int, payload: Payload, session: int = 0
    ) -> None:
        if self.halted:
            return
        if not 0 <= recipient < self.n:
            raise ValueError(f"recipient {recipient} out of range")
        if not isinstance(payload, Payload):
            raise TypeError(f"payload must be a Payload, got {type(payload)!r}")
        self._outbox.append((session, path, recipient, payload))

    def queue_multicast(self, path: Path, payload: Payload, session: int = 0) -> None:
        """Queue ``payload`` to every party, self included, as one record
        (recipient ``None``) that the transport's flush expands."""
        if self.halted:
            return
        if not isinstance(payload, Payload):
            raise TypeError(f"payload must be a Payload, got {type(payload)!r}")
        self._outbox.append((session, path, None, payload))

    @property
    def has_queued_sends(self) -> bool:
        """Would :meth:`collect_outbox` return anything right now?"""
        return bool(self._outbox)

    def collect_outbox(self) -> list[tuple[int, Path, Optional[int], Payload]]:
        """Drain the queued ``(session, path, recipient, payload)`` records.

        A multicast's record has recipient ``None``: the transport's flush
        (:meth:`Transport._flush_party <repro.net.transport.Transport._flush_party>`)
        and :meth:`replay` expand it into the n envelopes that n ``send``
        calls would queue, recipients in order.  Only network envelopes
        advance the causal depth (``current_depth + 1``): a self-addressed
        envelope is free local computation and carries the current depth
        unchanged — otherwise chains of self-deliveries would inflate the
        asynchronous round measure (``metrics.max_depth``) past the
        paper's network-hop count.
        """
        records = self._outbox
        self._outbox = []
        return records

    def halt(self) -> None:
        """Stop processing and sending: what a detached party's lost
        process and a silent party (``Transport.build_party``) do."""
        self.halted = True
        self._outbox.clear()

    # -- durability: freeze / thaw / replay ---------------------------------------------

    def freeze(self) -> bytes:
        """Serialize this party's full protocol state to one codec blob.

        Must be called at a delivery boundary (outbox drained, conditions
        at fixpoint) — exactly where the durability recorder checkpoints.
        The blob carries, per session: the RNG stream state, the pending
        buffers, result/tombstone bookkeeping and every instance's
        :meth:`~repro.net.protocol.Protocol.snapshot` record in spawn
        order.  Constructor-time configuration (directory, secret, caps)
        is *not* serialized — a thawing party is rebuilt from the same
        trusted setup and the application's root factory.

        Only what changed is encoded anew: a leaf instance the party
        delivered nothing to since the last freeze contributes the
        record kept then, and so does an RNG stream that did not move
        (module docstring).  The bytes do not depend on what was kept.
        """
        from repro.net import codec

        if self._outbox:
            raise RuntimeError(
                "freeze() requires a drained outbox; snapshot at delivery "
                "boundaries only"
            )
        sessions = []
        for state in self.sessions:
            instances = []
            for path, instance in state.instances.items():
                record = instance._record if instance._leaf else None
                if record is None:
                    record = codec.shared_record((path, instance.snapshot()))
                    if instance._leaf:
                        instance._record = record
                instances.append(record)
            rng_state = state.rng.getstate()
            if state.rng_record is None or state.rng_record[0] != rng_state:
                state.rng_record = (rng_state, codec.shared_record(rng_state))
            sessions.append(
                (
                    state.sid,
                    state.collected,
                    state.backlog_counted,
                    state.has_result,
                    state.result if state.has_result else None,
                    state.result_depth,
                    state.rng_record[1],
                    state.pending,
                    instances,
                )
            )
        value = (
            SNAPSHOT_TAG,
            SNAPSHOT_VERSION,
            self.index,
            self.n,
            self.f,
            self.current_depth,
            dict(self.drop_stats),
            sessions,
        )
        return codec.encode_shared(value)

    def thaw(
        self,
        blob: bytes,
        root_factory: Optional[Callable[["Party"], Protocol]] = None,
        root_factories: Optional[Mapping[int, Callable[["Party"], Protocol]]] = None,
    ) -> None:
        """Rebuild the session table from a :meth:`freeze` blob.

        Must be called on a pristine party constructed with the same
        ``(index, n, f, rng_label, directory, secret)`` as the frozen
        one.  ``root_factory`` rebuilds each rooted session's root
        instance (``root_factories`` overrides it per session id);
        children are rebuilt recursively through each parent's
        :meth:`~repro.net.protocol.Protocol.build_child`, ``on_start`` is
        never re-run, and every instance's pending ``upon`` conditions
        are re-derived via :meth:`~repro.net.protocol.Protocol.rearm`.
        An aggregate the frozen party reached from many places is one
        object in the thawed party too.
        """
        from repro.net import codec

        if len(self.sessions) or self._outbox:
            raise RuntimeError("thaw() requires a pristine party")
        if blob[:1] != codec.SHARED_OPEN:
            # Version 1 blobs were plain codec values.  No reader is kept
            # for them: they are refused here, unread.
            raise ValueError(
                "unsupported party snapshot version: not a shared-aggregate "
                "blob (version 1 predates them)"
            )
        value = codec.decode_shared(blob)
        if (
            not isinstance(value, tuple)
            or len(value) != 8
            or value[0] != SNAPSHOT_TAG
        ):
            raise ValueError("not a party snapshot blob")
        tag, version, index, n, f, depth, drop_stats, sessions = value
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported party snapshot version {version}")
        if (index, n, f) != (self.index, self.n, self.f):
            raise ValueError(
                f"snapshot of party {index} (n={n}, f={f}) cannot thaw "
                f"party {self.index} (n={self.n}, f={self.f})"
            )
        self.current_depth = depth
        self.drop_stats = Counter(drop_stats)
        restored: list[tuple[SessionState, list[Protocol]]] = []
        for record in sessions:
            (
                sid,
                collected,
                backlog_counted,
                has_result,
                result,
                result_depth,
                rng_state,
                pending,
                instances,
            ) = record
            state = self.sessions.ensure(sid)
            state.rng.setstate(rng_state)
            if has_result:
                state.result = result
                self.result_unnoted = True
            state.result_depth = result_depth
            state.pending = dict(pending)
            state.pending_count = sum(len(bucket) for bucket in pending.values())
            if backlog_counted:
                state.backlog_counted = True
                self.sessions.unstarted_count += 1
            if collected:
                self.sessions.collect(sid)
                continue
            order: list[Protocol] = []
            for path, snap in instances:
                if path == ():
                    factory = None
                    if root_factories is not None:
                        factory = root_factories.get(sid)
                    if factory is None:
                        factory = root_factory
                    if factory is None:
                        raise ValueError(
                            f"session {sid} has a root but no root factory "
                            "was provided"
                        )
                    instance = self._bind(state, (), None, None, factory(self))
                else:
                    parent = state.instances.get(path[:-1])
                    if parent is None:
                        raise ValueError(
                            f"snapshot instance {path!r} precedes its parent"
                        )
                    name = path[-1]
                    instance = self._bind(
                        state, path, parent, name, parent.build_child(name)
                    )
                instance.restore(snap)
                order.append(instance)
            restored.append((state, order))
        # Re-arm conditions only once every tree stands, then sweep: a
        # re-armed chain may consult sibling instances.  The sweep must
        # not produce network sends — the snapshot was taken at a
        # condition fixpoint, so anything that fires here re-fires
        # already-done (idempotent) work.
        for state, order in restored:
            for instance in order:
                instance.rearm()
            state.conditions.run_to_fixpoint()
        if self._outbox:
            sends = [path for _s, path, _r, _p in self._outbox]
            raise RuntimeError(
                f"thaw() produced network sends from re-armed conditions: "
                f"{sends!r} — a protocol's rearm() is not idempotent"
            )

    def _bind(
        self,
        state: SessionState,
        path: Path,
        parent: Optional[Protocol],
        name: Any,
        protocol: Protocol,
    ) -> Protocol:
        """Put an instance at its path: all of installing a rebuilt one,
        which gets no ``on_start`` and no pending replay."""
        if path in state.instances:
            raise RuntimeError(
                f"instance already exists at {path!r} in session {state.sid}"
            )
        protocol._party = self
        protocol._path = path
        protocol._parent = parent
        protocol._name = name
        protocol._session = state.sid
        self._bind_constants(protocol)
        if parent is not None:
            parent._leaf = False  # its children call its on_sub_output
        else:
            self.sessions.mark_started(state)
        state.instances[path] = protocol
        return protocol

    def replay(self, envelopes: Iterable[Envelope]) -> dict[str, int]:
        """Re-deliver a write-ahead log through the normal event path.

        Each envelope runs the exact live pipeline — :meth:`deliver`,
        then the outbox drained with self-addressed envelopes delivered
        inline — except that *network* sends are suppressed instead of
        transmitted: they already left the party in its pre-crash life,
        and re-emitting them would duplicate traffic.  Suppressions are
        counted in ``drop_stats["replay.suppressed"]``.  Determinism of
        the replay (same RNG stream, same delivery order, same condition
        sweeps) makes the rebuilt state exact.
        """
        me = self.index
        delivered = 0
        suppressed = 0
        for envelope in envelopes:
            self.deliver(envelope)
            delivered += 1
            pending = self.collect_outbox()
            position = 0
            while position < len(pending):
                session, path, recipient, payload = pending[position]
                position += 1
                if recipient is None:
                    suppressed += self.n - 1  # a multicast's network copies
                elif recipient != me:
                    suppressed += 1
                    continue
                self.deliver(
                    Envelope(path, me, me, payload, self.current_depth, session)
                )
                pending += self.collect_outbox()
        if suppressed:
            self.drop_stats["replay.suppressed"] += suppressed
        return {"delivered": delivered, "suppressed": suppressed}


class _Unset:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()
