"""The Transport abstraction shared by the simulator and the TCP runtime.

A :class:`Transport` owns the parties and the metrics and implements the
one pipeline every runtime shares:

* **outbox draining** (:meth:`Transport._flush_party`) — one step per
  outbox record: self copies are delivered inline (local computation:
  no words, no bytes, no delay); a record's network envelopes are built
  in one comprehension, metered once per record (words always, codec
  bytes when ``measure_bytes`` is on) and appended to the coalescing
  buffer, except that a sender with a Byzantine
  :class:`~repro.net.adversary.Behavior` is transformed and metered per
  envelope, and may speak only as itself, to its peers (anything else is
  dropped unmetered, counted under ``adversary``); what it changed
  travels as codec bytes on both runtimes;
* **delivery** (:meth:`Transport._deliver_buffered`) — the recipient's
  behavior may swallow the message, otherwise the delivery is recorded
  and routed into the party's protocol stack; the outbox is drained into
  the coalescing buffer if the activation queued sends,
  :meth:`Transport._note_results` (done-detection) runs if it produced a
  root result, and the delivery observers see the envelope.  Nothing is
  transmitted while a delivery is on the stack, so an observer (the WAL
  recorder) always runs before any of that delivery's reactions leave;
* **coalescing** (:meth:`Transport._flush_coalesced`) — the one point
  sends leave: the buffer is handed to the subclass's
  :meth:`Transport._transmit_coalesced` in creation order, in slices of
  at most ``batch_cap_envelopes``, after each activation burst /
  simulated timestep, so a multicast burst travels as few frames instead
  of n.  At a cap of one every send is a slice of its own: the
  per-envelope reference the equivalence tests compare against.
  *Protocol* word/byte accounting does not depend on the frames: every
  send is metered at buffer time with ``FRAME_HEADER_BYTES +
  codec.encoded_envelope_size(e)``, a size walk that builds no bytes.
  A send is metered as offered load; one a runtime cannot carry is
  counted in the run's ``Metrics.counts`` where its frame would be
  built.

A run counts only its own work: the transport's :class:`Metrics` holds
the one counter table, and the transport, its chaos plane and the verify
cache on its parties' directory (:attr:`Transport.directory`) count
into it.

Two subclasses provide only *when and how* a transmitted batch comes
back to :meth:`_deliver_buffered`, through their one send hook
:meth:`Transport._transmit_coalesced`, and count what they put in
flight with ``Metrics.record_frame``:

* :class:`~repro.net.runtime.Simulation` — a priority queue of simulated
  delivery times (discrete-event, deterministic); its frames are heap
  entries, counted and never priced;
* :class:`~repro.net.tcp_runtime.TCPRuntime` — codec-encoded frames over
  real TCP stream connections, on a live asyncio event loop; the one
  runtime that builds frames, and so the one that counts wire bytes.

Both also answer one **driving surface** (DESIGN §7) — ``open`` /
``close``, ``start``, ``now``, ``completion_time`` and the awaitables
``wait_any`` / ``wait_session``, ``wait_until``, ``sleep``, ``drain`` —
so a scenario is one coroutine that runs on either.  The
simulator's awaitables step its event queue inline and never suspend,
which lets :meth:`Transport.block_on` drive it with no event loop.

:func:`make_transport` is the single name-based injection point;
:func:`make_run_transport` adds what every ``run_*`` entry point shares.
"""

from __future__ import annotations

import bisect
import dataclasses
import operator
import random
from collections import Counter as _Counter
from typing import Any, Callable, Optional

from repro.crypto.keys import TrustedSetup
from repro.crypto.verify_cache import VerifyCache
from repro.net import codec
from repro.net.adversary import Behavior, SilentBehavior
from repro.net.chaos import DELIVER as _CHAOS_DELIVER, HOLD as _CHAOS_HOLD
from repro.net.chaos import coerce_chaos
from repro.net.delays import FixedDelay
from repro.net.envelope import Envelope
from repro.net.metrics import Metrics
from repro.net.party import Party
from repro.net.protocol import Protocol

RootFactory = Callable[[Party], Protocol]

TRANSPORT_KINDS = ("sim", "tcp")

#: Bytes of transport framing per message (length-prefix the TCP runtime
#: writes before each codec frame); counted for every transport so byte
#: totals are comparable across them.
FRAME_HEADER_BYTES = 4

#: Upper bound on one frame, enforced symmetrically: the sender refuses
#: to build a larger frame (honest: loud CodecError; forged: dropped),
#: and the TCP receiver treats a larger length prefix as an attack.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_RECIPIENT = operator.attrgetter("recipient")


def _wider_recipients(recipient: int) -> int:
    """The least recipient index whose zigzag varint is a byte wider than
    ``recipient``'s: 64, 8192, 1 << 20, ..."""
    if recipient < 64:
        return 64
    width = ((recipient << 1).bit_length() + 6) // 7
    return 1 << (7 * width - 1)


class Transport:
    """Base class: parties, adversary, metrics and the delivery pipeline."""

    #: Coalescing-buffer flush policy: the buffer is transmitted in
    #: slices of at most this many envelopes.
    batch_cap_envelopes = 256
    #: Whether this runtime frames every send, and so sizes a send from
    #: its payload's encoded bytes (one encode-once request per send)
    #: instead of walking a payload it will encode anyway.  The simulator
    #: builds no frames and encodes nothing to meter.
    builds_frames = False

    def __init__(
        self,
        setup: TrustedSetup,
        behaviors: Optional[dict[int, Behavior]] = None,
        seed: int = 0,
        *,
        rng_namespace: str = "transport",
        measure_bytes: bool = False,
        chaos: Any = None,
    ) -> None:
        directory = setup.directory
        self.setup = setup
        self.metrics = Metrics()
        self.metrics.pending_view = self._pending_counters
        #: The parties' directory: the setup's, with a verify cache of this
        #: run's own that counts into ``metrics.counts``.
        self.directory = dataclasses.replace(
            directory, verify_cache=VerifyCache(self.metrics.counts)
        )
        self.n = directory.n
        self.f = directory.f
        self.behaviors = dict(behaviors or {})
        for index, behavior in self.behaviors.items():
            if type(index) is not int or not 0 <= index < self.n:
                raise ValueError(
                    f"behavior key {index!r} names no party of n={self.n}"
                )
            if not isinstance(behavior, Behavior):
                raise TypeError(
                    f"behavior of party {index} is not a Behavior: {behavior!r}"
                )
        if len(self.behaviors) > self.f:
            raise ValueError(
                f"cannot corrupt {len(self.behaviors)} parties with f={self.f}"
            )
        #: Fixed at construction: done-detection waits on ``honest``.
        self.corrupt = frozenset(self.behaviors)
        self.honest = frozenset(range(self.n)) - self.corrupt
        self.measure_bytes = measure_bytes
        #: The coalescing buffer awaiting :meth:`_flush_coalesced`, as
        #: two parallel creation-ordered lists: the network envelopes and
        #: each one's buffered delay.  Parallel lists, not a tuple per
        #: envelope: a multicast extends each list once.  The delay is
        #: drawn at *append* time via :meth:`_buffered_delays` so RNG
        #: consumption interleaves with Byzantine behavior transforms in
        #: creation order, whatever the cap (``None`` where the transport
        #: draws none).
        self._outgoing: list[Envelope] = []
        self._outgoing_delays: list[Any] = []
        #: Per-delivery observers (the WAL recorder); each is called with
        #: every network envelope that was actually delivered.
        self._delivery_observers: list[Callable[[Envelope], None]] = []
        self.seed = seed
        self._adv_rng = random.Random(f"{rng_namespace}-adv-{seed}")
        #: Link-level fault injection (DESIGN §11).  ``chaos`` accepts a
        #: :class:`~repro.net.chaos.ChaosSpec` or a spec string; the plane
        #: is seeded from the run seed, so same-seed chaos runs are
        #: exactly reproducible.  ``None`` (and an idle spec) leaves
        #: the delivery pipeline byte-identical to a plane-free run.
        self.chaos = coerce_chaos(chaos, seed, self.metrics.counts)
        #: A session is started exactly when it is in one of these two.
        #: Per incomplete session: honest parties whose result has not
        #: been noted yet (a service running thousands of epochs pays
        #: O(window), not O(history), per note).
        self._session_waiting: dict[int, set[int]] = {}
        #: :meth:`now` at which each session reached all-honest completion.
        self.session_completion_times: dict[int, float] = {}
        #: Detached (crashed) party indices mapped to the envelopes parked
        #: for them while down; re-injected on :meth:`reattach_party`.
        self._detached: dict[int, list[Envelope]] = {}
        #: Per party index, every other index ascending: the recipients of
        #: a multicast's network envelopes.
        self._peers = [
            tuple(r for r in range(self.n) if r != index) for index in range(self.n)
        ]
        # Party RNG streams are namespace-independent so that the same
        # (seed, index) deals identical PVSS contributions on every
        # transport — the cross-transport equivalence tests rely on it.
        # The same string doubles as the per-session RNG derivation label,
        # making session ``s`` transport- and interleaving-independent too.
        self.parties = [self.build_party(i) for i in range(self.n)]

    def build_party(self, index: int) -> Party:
        """A pristine party with this transport's canonical constructor args.

        Used at construction and by crash recovery: a rehydrated
        replacement must be built with byte-identical configuration
        (RNG label, directory, secret) for
        :meth:`~repro.net.party.Party.thaw` to be exact.  A party whose
        behaviour is a :class:`SilentBehavior` is returned halted: it runs
        no protocol stack, and what is addressed to it is still scheduled,
        judged and counted, then dropped at :meth:`Party.deliver`.
        """
        party = Party(
            index=index,
            n=self.n,
            f=self.f,
            directory=self.directory,
            secret=self.setup.secret(index),
            rng_label=f"party-{self.seed}-{index}",
        )
        if isinstance(self.behaviors.get(index), SilentBehavior):
            party.halt()
        return party

    def _pending_counters(self) -> dict:
        """Session-buffer accounting aggregated over all parties.

        ``dropped``/``stale`` come from the parties' bounded pending
        buffers (see :class:`~repro.net.party.Party`), ``retired`` counts
        deliveries to retired instances; ``buffered`` is a live gauge of
        payloads currently parked for unspawned paths.
        """
        totals = _Counter()
        buffered = 0
        for party in self.parties:
            totals.update(party.drop_stats)
            buffered += party.pending_messages()
        counters = {key.split("pending.", 1)[-1]: value for key, value in totals.items()}
        if buffered:
            counters["buffered"] = buffered
        return counters

    # -- lifecycle ---------------------------------------------------------------------

    def start(self, root_factory: RootFactory, session: int = 0) -> None:
        """Install a session's root at every party and flush initial sends.

        May be called repeatedly with distinct session ids — including on
        a network that is already carrying traffic — so long-lived
        deployments can inject new root protocol runs (e.g. the next DKG
        epoch) without tearing the transport down.
        """
        if (
            session in self._session_waiting
            or session in self.session_completion_times
        ):
            raise RuntimeError(f"session {session} already started")
        self._session_waiting[session] = set(self.honest)
        for party in self.parties:
            party.run_root(root_factory(party), session=session)
            party.sweep_conditions()
        for party in self.parties:
            self._flush_party(party)
            self._note_results(party)
        self._flush_coalesced()

    def collect_session(self, session: int) -> None:
        """Garbage-collect a completed session's state at every party."""
        for party in self.parties:
            party.collect_session(session)

    # -- the driving surface ------------------------------------------------------------
    #
    # What a scenario coroutine may ask of either runtime.  ``wait_any``,
    # ``wait_until`` and ``sleep`` are each runtime's own: the simulator
    # steps its queue inline, TCP suspends on its event loop.

    async def open(self) -> None:
        """Bring up transport resources; idempotent."""

    async def close(self) -> None:
        """Cancel in-flight work and tear down transport resources."""

    def now(self) -> float:
        """The run's clock (and the chaos plane's): simulated time, or
        seconds since :meth:`open`."""
        return 0.0

    def completion_time(self, session: int = 0) -> float:
        """:meth:`now` at the delivery that completed ``session`` (NaN
        before) — for a pipelined session awaited out of order, earlier
        than the moment a waiter observed it."""
        return self.session_completion_times.get(session, float("nan"))

    async def wait_session(
        self, session: int, timeout: float = 60.0
    ) -> dict[int, Any]:
        """Await one session's completion; returns its honest results."""
        await self.wait_any((session,), timeout=timeout)
        return self.honest_results(session)

    async def drain(self) -> None:
        """Deliver what is still in flight: the simulator runs to
        quiescence; TCP's :meth:`close` cancels stragglers instead."""

    def block_on(self, coroutine: Any) -> Any:
        """Drive a coroutine written against the surface to its result.

        The base form serves awaitables that never suspend (the
        simulator's): one ``send(None)`` reaches the ``return`` with no
        event loop, from sync code or from inside a running loop alike.
        """
        try:
            coroutine.send(None)
        except StopIteration as finished:
            return finished.value
        coroutine.close()
        raise RuntimeError(
            f"a coroutine driven on {type(self).__name__} suspended; "
            "await only the transport's own surface"
        )

    async def run_root(
        self, root_factory: RootFactory, timeout: float = 60.0
    ) -> dict[int, Any]:
        """Open, run session 0 to all-honest output, close; honest results.

        ``open()`` and ``start()`` sit inside the one cleanup scope: a
        partial open (one of n*(n-1) connections refused) or a
        loudly-failing start (honest unencodable payload) must still
        cancel every spawned task and close sockets.  ``timeout`` bounds
        the wait for agreement on TCP (the simulator has its delivery
        budget); a background task's exception is re-raised by the wait,
        one recorded during post-success teardown is not.
        """
        try:
            await self.open()
            self.start(root_factory)
            return await self.wait_session(0, timeout=timeout)
        finally:
            await self.close()

    def run_sync(
        self, root_factory: RootFactory, timeout: float = 60.0
    ) -> dict[int, Any]:
        """The one blocking entry point: :meth:`run_root` on any runtime."""
        return self.block_on(self.run_root(root_factory, timeout=timeout))

    def round_measure(self) -> float:
        """The transport's asynchronous-round measure for a finished run.

        TCP reports the maximum causal depth; the simulator overrides this
        with simulated time (which equals the causal-chain length under
        ``FixedDelay``).
        """
        return float(self.metrics.max_depth)

    # -- results -----------------------------------------------------------------------

    def honest_results(self, session: int = 0) -> dict[int, Any]:
        return {
            i: self.parties[i].session_result(session)
            for i in sorted(self.honest)
            if self.parties[i].session_has_result(session)
        }

    def all_honest_output(self, session: int = 0) -> bool:
        """True once every honest party produced the session's result
        (False for a session never started) — an O(1) stop predicate."""
        return session in self.session_completion_times

    # -- the shared pipeline -----------------------------------------------------------

    def _flush_party(self, party: Party) -> None:
        """Drain a party's outbox records: deliver self copies, meter and
        buffer network envelopes.

        Nothing is transmitted here — the buffer is handed to the
        subclass at the next :meth:`_flush_coalesced`.  One record is one
        step: a multicast becomes its n − 1 network envelopes in one
        comprehension, draws its delays (:meth:`_buffered_delays`) and
        is metered with one ``record_send(head, nbytes, count=k)`` per
        recipient varint width (:meth:`_meter_record`); its self copy is
        then delivered inline (local computation: free, never
        transformed) and whatever that queued joins the records still to
        flush.  A sender with a
        :class:`Behavior` passes each network envelope through its
        transform and is metered per transformed envelope
        (:meth:`_buffer_transformed`).
        """
        records = party.collect_outbox()
        me = party.index
        behavior = self.behaviors.get(me) if self.behaviors else None
        peers = self._peers[me]
        here = party.current_depth
        depth = here + 1
        position = 0
        while position < len(records):
            session, path, recipient, payload = records[position]
            position += 1
            if recipient != me:
                envelopes = [
                    Envelope(path, me, r, payload, depth, session)
                    for r in (peers if recipient is None else (recipient,))
                ]
                if behavior is None:
                    self._meter_record(envelopes)
                else:
                    for envelope in envelopes:
                        for env in behavior.transform_outgoing(envelope, self._adv_rng):
                            self._buffer_transformed(env, envelope)
                if recipient is not None:
                    continue
            # The self copy: local computation, free, never transformed.
            envelope = Envelope(path, me, me, payload, here, session)
            self.metrics.record_delivery(envelope)
            party.deliver(envelope)
            records += party.collect_outbox()

    def _meter_record(self, envelopes: list[Envelope]) -> None:
        """Meter and buffer one honest record's network envelopes.

        They share every field but the recipient, ascending, so all with
        one recipient varint width have one size: the group's head is
        sized and the group recorded with one ``record_send``.  An honest
        party's unencodable payload is a programming error: the
        :class:`~repro.net.codec.CodecError` propagates, every earlier
        record already metered and buffered.
        """
        delays = self._buffered_delays(envelopes)
        start, total = 0, len(envelopes)
        while start < total:
            head = envelopes[start]
            limit = _wider_recipients(head.recipient)
            end = (
                total
                if envelopes[-1].recipient < limit
                else bisect.bisect_left(envelopes, limit, start, key=_RECIPIENT)
            )
            nbytes = self._envelope_nbytes(head)
            self._meter_run(head, nbytes, end - start)
            self._outgoing += envelopes[start:end]
            self._outgoing_delays += (
                [None] * (end - start) if delays is None else delays[start:end]
            )
            start = end

    def _meter_run(self, head: Envelope, nbytes: Optional[int], count: int) -> None:
        """Meter ``count`` buffered sends that differ from ``head`` only in
        a same-width recipient: words, messages, bytes, by-type and
        by-layer all times ``count``, in one call."""
        self.metrics.record_send(head, nbytes, count)
        if count > 1 and self.builds_frames:
            # Sizing the head was one payload-encode request; each sibling
            # is such a request served from the memo, so the encode-once
            # counters match sizing every send on its own to the digit.
            stats = codec.encode_stats
            stats["payload.calls"] += count - 1
            stats["payload.hits"] += count - 1

    def _buffer_transformed(self, envelope: Envelope, given: Envelope) -> None:
        """Meter and buffer what a :class:`Behavior` emitted for ``given``.

        A corrupted party speaks only as itself, to its peers (else a drop,
        counted as ``adversary.forged_sender`` or
        ``adversary.readdressed``), in bytes: any envelope but ``given``
        travels as its codec round trip, uncounted in
        ``codec.encode_stats``, or is dropped as ``adversary.codec_refused``
        (as is a negative depth, which a TCP receiver refuses).  The decoded copy is metered by DESIGN §1's
        bytes rule, never by its own ``word_size``: the adversary chose
        every field that sizes it.
        """
        sender = given.sender
        if envelope.sender != sender:
            self.metrics.counts["adversary.forged_sender"] += 1
            return
        if envelope.recipient not in self._peers[sender]:
            self.metrics.counts["adversary.readdressed"] += 1
            return
        if envelope is given:
            self._meter_run(envelope, self._envelope_nbytes(envelope), 1)
        else:
            counted = codec.encode_stats.copy()
            try:
                body = codec.encode_envelope(envelope)
                if len(body) > MAX_FRAME_BYTES:
                    raise codec.CodecError("over the frame bound")
                envelope = codec.decode_envelope(body)
                if envelope.depth < 0:
                    raise codec.CodecError("negative depth")
                words = -(-len(codec.encode(envelope.payload)) // 32) + 1
            except (ValueError, RecursionError):
                # A CodecError, or a value the encoder cannot write at all:
                # a lone surrogate (UnicodeEncodeError), nesting past the stack.
                self.metrics.counts["adversary.codec_refused"] += 1
                return
            finally:
                codec.encode_stats.clear()
                codec.encode_stats.update(counted)
            nbytes = FRAME_HEADER_BYTES + len(body) if self.measure_bytes else None
            self.metrics.record_send(envelope, nbytes, words=words)
        delays = self._buffered_delays([envelope])
        self._outgoing.append(envelope)
        self._outgoing_delays.append(None if delays is None else delays[0])

    def _envelope_nbytes(self, envelope: Envelope) -> Optional[int]:
        """The envelope's protocol byte metric.

        ``FRAME_HEADER_BYTES + len(encode_envelope(envelope))`` — what the
        envelope costs as a value, independent of the frame that carries
        it — sized by :func:`~repro.net.codec.encoded_envelope_size`'s
        walk, which builds no bytes.  A runtime that
        :attr:`builds_frames` first encodes the payload (the bytes its
        frame reuses), so the walk takes the payload's length from the
        memo.  ``None`` when bytes are not metered on this transport.
        Raises :class:`~repro.net.codec.CodecError` for an unencodable
        payload: only honest envelopes are sized here, so that is a loud
        failure.
        """
        if not self.measure_bytes:
            return None
        if self.builds_frames:
            codec.encode(envelope.payload)
        size = codec.encoded_envelope_size(envelope)
        if size > MAX_FRAME_BYTES:
            raise codec.CodecError(
                f"envelope frame of {size} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte wire bound"
            )
        return FRAME_HEADER_BYTES + size

    def _deliver_buffered(self, envelope: Envelope) -> bool:
        """Deliver one envelope, leaving its sends in the coalescing buffer.

        False if the adversary ate it.  Every delivery path calls this per
        envelope and :meth:`_flush_coalesced` once after its burst (the
        sim before its next queue pop, a TCP reader after one frame), so
        the burst's activations coalesce into shared frames and nothing
        leaves before the delivery observers have run.
        """
        chaos = self.chaos
        if chaos is not None and chaos.active:
            action, delay = chaos.decide(envelope, self.now())
            if action is not _CHAOS_DELIVER:
                if action is _CHAOS_HOLD:
                    # Held by a partition / retransmitted after loss /
                    # pulled out of line: re-injected after ``delay``,
                    # exempt from chaos on re-entry.  Never metered as a
                    # delivery until it actually reaches the party.
                    chaos.release(envelope)
                    self._chaos_requeue(envelope, delay)
                    return False
                # DUPLICATE: the original is delivered now (below); a
                # *distinct* copy — its own identity, so the release
                # marking cannot alias — is re-injected after ``delay``.
                copy = dataclasses.replace(envelope)
                chaos.release(copy)
                self._chaos_requeue(copy, delay)
        index = envelope.recipient
        parked = self._detached.get(index)
        if parked is not None:
            # The recipient's process is down: park the delivery the way
            # a reconnecting link's send queue would, to be re-injected
            # on reattach.  Parked traffic is not metered as delivered.
            parked.append(envelope)
            return False
        behavior = self.behaviors.get(index)
        if behavior is not None and not behavior.allow_delivery(
            envelope, self._adv_rng
        ):
            return False
        metrics = self.metrics
        metrics.deliveries += 1
        if envelope.depth > metrics.max_depth:
            metrics.max_depth = envelope.depth
        recipient = self.parties[index]
        recipient.deliver(envelope)
        # A delivery pays only for what happened: most queue no sends and
        # produce no root result (one per party and session).
        if recipient.has_queued_sends:
            self._flush_party(recipient)
        if recipient.result_unnoted:
            self._note_results(recipient)
        if self._delivery_observers:
            for observer in self._delivery_observers:
                observer(envelope)
        return True

    def add_delivery_observer(
        self, observer: Callable[[Envelope], None]
    ) -> None:
        """Register a per-network-delivery callback.

        Multiple observers coexist; each sees every delivered envelope.
        """
        self._delivery_observers.append(observer)

    def remove_delivery_observer(
        self, observer: Callable[[Envelope], None]
    ) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        try:
            self._delivery_observers.remove(observer)
        except ValueError:
            pass

    # -- detach / reattach (crash–recovery) ----------------------------------------------

    def detach_party(self, index: int) -> None:
        """Take a party's process down mid-run.

        Its in-memory protocol state is considered lost (the object is
        halted and is replaced on reattach); traffic addressed to it is
        parked — modelling peers' transport-level send queues across a
        reconnect — and re-injected by :meth:`reattach_party`.  Works
        identically on both runtimes because parking happens in the
        shared delivery pipeline.
        """
        if not 0 <= index < self.n:
            raise ValueError(f"party index {index} out of range")
        if index in self._detached:
            raise RuntimeError(f"party {index} is already detached")
        self._detached[index] = []
        self.parties[index].halt()

    def reattach_party(self, index: int, party: Party) -> int:
        """Bring a detached party back as ``party`` and drain its parked
        traffic.

        ``party`` is the rehydrated replacement (built via
        :meth:`build_party` and ``thaw``-ed from durable storage).  Parked
        envelopes are re-injected through the normal delivery pipeline —
        and therefore through the coalescing buffer — in arrival order.
        Returns the number of parked envelopes actually delivered.
        """
        if index not in self._detached:
            raise RuntimeError(f"party {index} is not detached")
        if party.index != index:
            raise ValueError(
                f"replacement party has index {party.index}, expected {index}"
            )
        parked = self._detached.pop(index)
        self.parties[index] = party
        delivered = 0
        for envelope in parked:
            if self._deliver_buffered(envelope):
                delivered += 1
        self._flush_coalesced()
        # A thawed party may already hold session results produced before
        # the crash; fold them into done-detection immediately.
        self._note_results(self.parties[index])
        return delivered

    # -- chaos hooks -------------------------------------------------------------------

    def _chaos_requeue(self, envelope: Envelope, delay: float) -> None:
        """Re-inject a chaos-held envelope after ``delay`` time units.

        The simulator pushes onto its delivery heap; TCP spawns a
        sleeping task.  Both re-enter the shared pipeline, where
        the released marking lets the envelope through.
        """
        raise NotImplementedError(
            "this transport cannot re-inject chaos-held envelopes"
        )

    def _buffered_delays(self, envelopes: list[Envelope]) -> Optional[list]:
        """Transport-specific in-flight parameters drawn at buffer time,
        one per envelope, or ``None`` when the transport draws none.

        The simulator overrides this to draw each envelope's delivery
        delay (delay model + adversarial scheduler) the moment it is
        buffered, so the adversary RNG is consumed in creation order —
        interleaved with the Byzantine behavior transforms — rather than
        at flush time, whatever the cap.
        """
        return None

    # -- done-detection ----------------------------------------------------------------

    def _note_results(self, party: Party) -> list[int]:
        """Fold the party's root results into done-detection; return the
        sessions that just reached all-honest completion.

        The one done-detection step.  Runs when a party may hold a
        result the waiting sets have not seen
        (:attr:`Party.result_unnoted`): after a delivery that produced a
        root output, at session start, on reattach.  A completed
        session's waiting set becomes its :meth:`now` stamp.
        """
        party.result_unnoted = False
        index = party.index
        done = []
        for session, waiting in self._session_waiting.items():
            if index in waiting and party.session_has_result(session):
                waiting.discard(index)
                if not waiting:
                    done.append(session)
        if done:
            now = self.now()
            for session in done:
                del self._session_waiting[session]
                self.session_completion_times[session] = now
        return done

    def _flush_coalesced(self) -> None:
        """The one point sends leave: hand the coalescing buffer to the
        transport in creation order, ``batch_cap_envelopes`` at a time."""
        envelopes = self._outgoing
        if not envelopes:
            return
        delays = self._outgoing_delays
        self._outgoing, self._outgoing_delays = [], []
        cap = self.batch_cap_envelopes
        for offset in range(0, len(envelopes), cap):
            end = offset + cap
            self._transmit_coalesced(envelopes[offset:end], delays[offset:end])

    # -- subclass hooks ----------------------------------------------------------------

    def _transmit_coalesced(self, envelopes: list[Envelope], delays: list) -> None:
        """Put one creation-ordered batch of metered envelopes in flight
        (with each one's buffered delay) and record its frames — the one
        send hook a runtime implements."""
        raise NotImplementedError


def make_transport(
    kind: str,
    setup: TrustedSetup,
    *,
    behaviors: Optional[dict[int, Behavior]] = None,
    seed: int = 0,
    **kwargs: Any,
) -> Transport:
    """Build a transport by name: ``"sim"`` or ``"tcp"``.

    Extra keyword arguments are forwarded to the selected runtime
    (e.g. ``delay_model=``/``scheduler=`` for ``sim``).
    """
    if kind == "sim":
        from repro.net.runtime import Simulation

        return Simulation(setup, behaviors=behaviors, seed=seed, **kwargs)
    if kind == "tcp":
        from repro.net.tcp_runtime import TCPRuntime

        return TCPRuntime(setup, behaviors=behaviors, seed=seed, **kwargs)
    raise ValueError(
        f"unknown transport kind {kind!r}; choose from {TRANSPORT_KINDS}"
    )


def make_run_transport(
    kind: str,
    setup: TrustedSetup,
    *,
    delay_model: Any = None,
    scheduler: Any = None,
    to_quiescence: bool = False,
    **kwargs: Any,
) -> Transport:
    """:func:`make_transport` with what every ``run_*`` entry point shares.

    On ``sim`` the delay model defaults to ``FixedDelay(1.0)`` (simulated
    time is then the asynchronous round measure).  TCP refuses the three
    simulator-only arguments rather than silently returning numbers
    measured under other semantics than the caller asked for.
    Any other keyword left ``None`` means the runtime's own default.
    """
    kwargs = {name: value for name, value in kwargs.items() if value is not None}
    if kind == "sim":
        return make_transport(
            kind,
            setup,
            delay_model=delay_model or FixedDelay(1.0),
            scheduler=scheduler,
            **kwargs,
        )
    sim_only = {
        "to_quiescence": to_quiescence or None,
        "delay_model": delay_model,
        "scheduler": scheduler,
    }
    given = [name for name, value in sim_only.items() if value is not None]
    if given:
        raise ValueError(
            f"{', '.join(given)}: sim transport only, not {kind!r}"
        )
    return make_transport(kind, setup, **kwargs)
