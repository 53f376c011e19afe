"""The sans-io Protocol base class.

A protocol instance is a state machine bound to one party and one
*instance path*.  It reacts to three kinds of events:

* ``on_start()`` — invoked once when the instance is spawned;
* ``on_message(sender, payload)`` — a point-to-point message addressed to
  this instance arrived;
* ``on_sub_output(name, value)`` — a child instance produced its output.

It acts through the helpers: ``send`` / ``multicast`` queue messages,
``spawn`` creates a child instance (the child's path extends the
parent's), ``output`` delivers this instance's result to the parent (or
to the party if this is the root), and ``upon`` registers an "upon
<predicate>, do <action>" condition re-checked after every event.

Protocols never block; the paper's "wait for X" clauses become ``upon``
conditions over accumulated state.

Durability contract
-------------------
Every protocol is an *explicitly serializable* state machine: its whole
mutable state lives in the attributes named by :attr:`Protocol.STATE_FIELDS`
(codec-encodable values only — no closures, no instance references), so a
party can be frozen to bytes mid-session and rehydrated elsewhere (see
:meth:`repro.net.party.Party.freeze` / ``thaw`` and DESIGN.md section 9).
Four hooks implement the contract:

* :meth:`capture_state` / :meth:`apply_state` — read/write the declared
  fields (override only to convert representations, e.g. a ``defaultdict``);
* :meth:`build_child` — reconstruct a previously spawned child instance
  (the parent supplies the non-serializable constructor arguments such as
  validator closures; the child's mutable state is restored separately);
* :meth:`rearm` — re-register the pending ``upon`` conditions implied by
  the restored state.  Conditions are never serialized: they are closures,
  but every one of them is a pure function of declared state, so the
  restored instance re-derives them.  Actions must therefore be idempotent
  with respect to already-fired work (the snapshot is always taken at a
  condition fixpoint, so a re-armed condition that is immediately
  satisfiable corresponds to work that already ran and must re-fire as a
  no-op).

``on_start`` is *not* called on restore — its sends already happened in
the pre-snapshot life of the instance.

Who may call a handler: **only the party calls a leaf's handlers.**  An
instance that never spawned a child and never registered a condition (a
reliable broadcast, typically) changes state only inside ``on_start`` /
``on_message``, and those run only from :meth:`Party._install
<repro.net.party.Party._install>` and :meth:`Party.deliver
<repro.net.party.Party.deliver>`; ``Party.freeze`` relies on it to reuse
such an instance's encoded record until the party next delivers to it.
A parent that wants to feed a child does so through a method that ends
in ``spawn`` or ``upon`` (as ``BinaryAgreement.provide_input`` does) or
through a message — never by writing the child's fields.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.net.conditions import Condition
from repro.net.payload import Payload

if TYPE_CHECKING:
    from repro.crypto.keys import PartySecret, PublicDirectory
    from repro.net.party import Party


class Protocol:
    """Base class for sans-io protocol instances."""

    #: Names of the attributes that constitute this instance's mutable
    #: state.  Everything a restored instance needs beyond its
    #: constructor arguments must be listed here and hold codec-encodable
    #: values; ``snapshot()``/``restore()`` round-trip exactly these.
    STATE_FIELDS: tuple[str, ...] = ()

    #: This party's index, the committee size, the fault bound and the
    #: paper's ubiquitous waiting threshold ``n - f``: plain attributes the
    #: party binds when it installs the instance (they exist only then).
    me: int
    n: int
    f: int
    quorum: int

    def __init__(self) -> None:
        self._party: Optional["Party"] = None
        self._path: tuple = ()
        self._parent: Optional["Protocol"] = None
        self._name: Any = None
        self._session: int = 0
        self._output_done = False
        self.output_value: Any = None
        #: Owned by ``Party.freeze``: False once this instance has a child
        #: or a condition (its state can then change without a delivery),
        #: and the encoded ``(path, snapshot())`` kept at the last freeze,
        #: which ``Party.deliver`` drops.
        self._leaf = True
        self._record: Any = None

    # -- event hooks (override in subclasses) ------------------------------------

    def on_start(self) -> None:
        """Called once when the instance is spawned."""

    def on_message(self, sender: int, payload: Payload) -> None:
        """Called for each payload addressed to this instance."""

    def on_sub_output(self, name: Any, value: Any) -> None:
        """Called when child instance ``name`` outputs ``value``."""

    # -- identity ------------------------------------------------------------------

    @property
    def party(self) -> "Party":
        if self._party is None:
            raise RuntimeError("protocol not bound to a party yet")
        return self._party

    @property
    def path(self) -> tuple:
        return self._path

    @property
    def session(self) -> int:
        """The session id this instance (and its whole tree) belongs to."""
        return self._session

    @property
    def rng(self) -> random.Random:
        """This session's deterministic RNG stream at this party."""
        return self.party.session_rng(self._session)

    @property
    def directory(self) -> "PublicDirectory":
        return self.party.directory

    @property
    def secret(self) -> "PartySecret":
        return self.party.secret

    @property
    def has_output(self) -> bool:
        return self._output_done

    # -- actions --------------------------------------------------------------------

    def send(self, recipient: int, payload: Payload) -> None:
        """Queue a point-to-point message to ``recipient`` for this instance."""
        self.party.queue_send(self._path, recipient, payload, session=self._session)

    def multicast(self, payload: Payload) -> None:
        """Send to every party, self included (the paper's "send to all").

        Queues one outbox record, which the party expands into n
        envelopes in recipient order: the same envelopes n ``send`` calls
        would queue, at one validation.  It does not call :meth:`send`,
        so a subclass that overrides ``send`` does not see multicasts.
        """
        self.party.queue_multicast(self._path, payload, session=self._session)

    def spawn(self, name: Any, child: "Protocol") -> "Protocol":
        """Create child instance ``name``; its path is ``self.path + (name,)``."""
        return self.party.spawn(self, name, child)

    def output(self, value: Any) -> None:
        """Deliver this instance's output (once) to the parent / party.

        Per the paper, instances keep processing messages after
        outputting; ``output`` does not stop the instance.
        """
        if self._output_done:
            return
        self._output_done = True
        self.output_value = value
        self.party.dispatch_output(self, value)

    def upon(
        self,
        predicate: Callable[[], bool],
        action: Callable[[], None],
        once: bool = True,
        label: str = "",
    ) -> Condition:
        """Register an "upon <predicate>, do <action>" clause.

        The clause lives in this *session's* registry: it is swept after
        events of this session and freed with the session on GC.
        """
        self._leaf = False  # the action may run after any delivery of the session
        return self.party.conditions_for(self._session).add(
            predicate, action, once=once, label=label
        )

    # -- durability (snapshot / restore) ------------------------------------------------

    def snapshot(self) -> tuple:
        """This instance's serializable record: ``(class_name, done, value, state)``.

        The record is codec-encodable by construction (every declared
        state field must hold encodable values) and carries the base
        output bookkeeping alongside :meth:`capture_state`'s fields.
        ``class_name`` is a restore-time sanity check, not a factory key:
        instances are rebuilt by :meth:`build_child` / the root factory,
        never by reflection over the wire bytes.
        """
        return (
            type(self).__name__,
            self._output_done,
            self.output_value,
            self.capture_state(),
        )

    def restore(self, record: tuple) -> None:
        """Apply a :meth:`snapshot` record to this freshly constructed instance.

        The instance must already be installed at its path (so ``party``
        and ``session`` resolve) and must have been built with equivalent
        constructor arguments.  Children and conditions are *not* handled
        here — the party's thaw walks the tree via :meth:`build_child`
        and calls :meth:`rearm` once the whole tree stands.
        """
        cls_name, done, value, state = record
        if cls_name != type(self).__name__:
            raise ValueError(
                f"snapshot of {cls_name!r} cannot restore a "
                f"{type(self).__name__!r} at {self._path!r}"
            )
        self._output_done = bool(done)
        self.output_value = value
        self.apply_state(state)

    def capture_state(self) -> dict:
        """The declared state fields as an encodable dict.

        Override when a field's in-memory representation is not directly
        encodable (e.g. rebuild a ``defaultdict`` in :meth:`apply_state`);
        the override must stay the exact inverse of ``apply_state``.
        """
        return {name: getattr(self, name) for name in self.STATE_FIELDS}

    def apply_state(self, state: dict) -> None:
        """Set the declared state fields from a :meth:`capture_state` dict."""
        for name in self.STATE_FIELDS:
            if name not in state:
                raise ValueError(
                    f"snapshot for {type(self).__name__} misses field {name!r}"
                )
            setattr(self, name, state[name])

    def build_child(self, name: Any) -> "Protocol":
        """Reconstruct the child instance spawned under ``name``.

        Called during restore, after this instance's own state was
        applied, once per child recorded in the snapshot.  The parent
        supplies exactly the constructor arguments the original spawn
        used (validators, broadcast kinds, ...); ``on_start`` is never
        called on the rebuilt child.
        """
        raise NotImplementedError(
            f"{type(self).__name__} spawned child {name!r} but does not "
            "implement build_child()"
        )

    def rearm(self) -> None:
        """Re-register the pending ``upon`` conditions implied by state.

        Called once per instance after the whole tree was restored
        (parents before children, in original spawn order).  The default
        is no conditions.
        """
