"""TCP transport: every message crosses a real socket as codec bytes.

Each party runs an ``asyncio`` stream server on the loopback interface;
at startup every ordered pair of distinct parties opens one TCP
connection.  A transmitted envelope is encoded by :mod:`repro.net.codec`
into a length-prefixed frame, written to the sender's connection, read
back by the recipient's server, decoded, and only then delivered into the
recipient's protocol stack — so a full run proves the protocols execute
unchanged over an actual socket boundary, with nothing shared in memory
between sender and recipient but bytes.

Framing: a 4-byte big-endian length followed by one frame body, always
a batch frame (:func:`repro.net.codec.encode_batch`).  It coalesces
every envelope one flush slice queued for the same connection (a slice
holds at most ``batch_cap_envelopes``, so a cap of one sends batches of
one), with intra-frame payload deduplication.  Malformed frames (codec errors,
oversized lengths) are dropped and counted in ``rejected_frames``, as is
every decoded envelope addressed to a different party or carrying an
out-of-range sender — the Byzantine-input posture of the codec applies
at the transport edge too.  A corrupted party speaks only as itself:
the shared flush drops, and counts as ``adversary.forged_sender``, any
envelope a :class:`~repro.net.adversary.Behavior` emits under another
party's index, so no behaviour can impersonate.  A raw TCP peer still
can: the receiver takes an in-range sender index at face value, since
no connection is bound to one peer yet (by a signed hello, say).

Byte metering is always on: ``metrics.bytes_total`` is the *protocol*
byte metric — the sum of per-envelope sizes (length prefix + bare
envelope encoding), whatever the frames — while
``metrics.wire_bytes_total`` counts the bytes of the frames queued for
the sockets, so their difference is what coalescing saved.  This is the
one runtime that builds frames (:meth:`TCPRuntime._batch_frame`), so the
one that counts wire bytes.  A send is metered when it is buffered, as
offered load; one with no connection to travel on (the runtime is not
open) is dropped where its frame would be built and counted in
``dropped_sends``, as a frame shed by backpressure is.

Backpressure: each ordered pair's send queue is a *bounded*
``asyncio.Queue`` (``send_queue_cap`` frames).  ``drain()`` applies
socket-level backpressure between frames; if a peer stalls long enough
that the queue fills anyway, further frames are shed and counted in the
``tcp.backpressure`` metrics counter (honest runs never hit the cap —
the drops model a long-lived deployment shedding load instead of
growing without bound).

Self-healing (DESIGN §11): each ordered pair is supervised by a
:class:`_Link`.  Connection loss is detected three ways — the link's
read side hits EOF (a dedicated watcher task), a frame write/drain
fails, or an idle-timeout heartbeat frame
(:func:`repro.net.codec.encode_heartbeat`) fails to go out — and is
counted once per connection generation in ``tcp.conn_lost``.  The pump
then reconnects with capped exponential backoff and deterministic
per-link jitter (``tcp.reconnects``), retaining the in-flight frame
across the outage and re-writing it on the new connection
(``tcp.resent_frames``) — the same parked-traffic model the transport's
``detach_party``/``reattach_party`` applies at the party level, here at
the socket level: the bounded send queue simply survives the reconnect
and drains onto the new socket.  Heartbeats are transport chatter, not
protocol traffic: they are never metered as protocol words/bytes or
wire frames, only counted (``tcp.heartbeats`` sent, ``heartbeats_seen``
received).  A frame whose write raced a connection loss may be
delivered twice (at-least-once delivery); that is exactly the chaos
plane's ``duplicate`` link fault, which the protocols tolerate.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Any, Callable, Optional

from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import Behavior
from repro.net.envelope import Envelope
from repro.net.party import Party
from repro.net.transport import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    RootFactory,
    Transport,
)

__all__ = ["TCPRuntime", "RootFactory"]


class _Link:
    """One ordered pair's supervised, self-healing connection state.

    The bounded frame queue and the pump task are *permanent*; the
    socket behind them is replaceable.  ``generation`` increments on
    every successful (re)connect so stale EOF watchers from a previous
    socket cannot mis-count a loss of the current one; ``pending`` holds
    the frame currently being written, retained across a write failure
    and re-sent on the next connection.
    """

    __slots__ = (
        "pair",
        "queue",
        "writer",
        "pending",
        "resend",
        "generation",
        "attempts",
        "rng",
    )

    def __init__(
        self, pair: tuple[int, int], queue: asyncio.Queue, rng: random.Random
    ) -> None:
        self.pair = pair
        self.queue = queue
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Optional[bytes] = None
        self.resend = False
        self.generation = 0
        self.attempts = 0
        self.rng = rng


class TCPRuntime(Transport):
    """Run an n-party protocol over real asyncio TCP stream connections.

    A frame's reader calls :meth:`Transport._deliver_buffered` per
    envelope, then one :meth:`_flush_coalesced`, from the event loop.  Two
    usage shapes, both spelled with the driving surface:

    * one-shot — :meth:`Transport.run_root` returns session 0's honest
      results or raises :class:`asyncio.TimeoutError`;
    * long-lived — :meth:`open` once, inject sessions with
      :meth:`Transport.start` while traffic is flowing, await
      :meth:`wait_any` / :meth:`Transport.wait_session`, :meth:`close`
      at the end: what the epoch-pipelining service layer drives.
    """

    frames_on_wire = True

    #: Loopback interface every party's server binds.
    host = "127.0.0.1"
    #: Frames each ordered pair's bounded send queue holds before shedding.
    send_queue_cap = 1024
    #: Idle gap after which the pump writes a heartbeat frame — the
    #: bound on how long a dead idle connection can stay undetected.
    heartbeat_interval = 1.0
    #: Capped exponential backoff between reconnect attempts:
    #: ``min(cap, base * 2^attempt)``, jittered by a deterministic
    #: per-link factor in [0.5, 1.5).
    reconnect_base = 0.05
    reconnect_cap = 2.0
    #: A frame is split so its body stays under this many bytes.
    batch_cap_bytes = 1 << 20

    def __init__(
        self,
        setup: TrustedSetup,
        behaviors: Optional[dict[int, Behavior]] = None,
        seed: int = 0,
        measure_bytes: bool = True,
        chaos: Any = None,
    ) -> None:
        # ``measure_bytes`` exists for call-site uniformity with the other
        # transports, but TCP always meters (the byte counts are the bytes
        # actually written to the sockets, at no extra encoding cost) —
        # refuse a request to turn it off rather than silently ignore it.
        if not measure_bytes:
            raise ValueError(
                "the TCP runtime always meters bytes; measure_bytes=False "
                "is not supported"
            )
        super().__init__(
            setup,
            behaviors,
            seed,
            rng_namespace="tcp-runtime",
            measure_bytes=True,
            chaos=chaos,
        )
        #: Pending ``call_soon`` handle for the deferred coalescing-buffer
        #: drain (see :meth:`_flush_coalesced`), or ``None``.
        self._flush_handle: Optional[asyncio.Handle] = None
        self._tasks: set[asyncio.Task] = set()
        #: Set whenever a session completes or a background task fails:
        #: what every :meth:`wait_any` sleeps on between its checks.
        self._progress = asyncio.Event()
        self._failure: Optional[BaseException] = None
        self._opened = False
        #: Event-loop time of :meth:`open` (or of the first clock reading
        #: before it); :meth:`now` counts seconds since then.
        self._clock_origin: Optional[float] = None
        self.ports: dict[int, int] = {}
        self.rejected_frames = 0
        #: Frames shed because a pair's bounded send queue was full.
        self.backpressure_drops = 0
        #: Connection losses detected (once per connection generation).
        self.conn_lost = 0
        #: Successful reconnects after a loss.
        self.reconnects = 0
        #: Heartbeat frames written (idle links) / read back by servers.
        self.heartbeats_sent = 0
        self.heartbeats_seen = 0
        #: Data frames written again on a fresh connection after their
        #: first write failed mid-frame.  Resends are *wire* traffic
        #: only: the envelopes were metered as protocol sends exactly
        #: once, at send time.
        self.resent_frames = 0
        self._closing = False
        self._servers: list[asyncio.AbstractServer] = []
        self._links: dict[tuple[int, int], _Link] = {}
        body = codec.encode_heartbeat()
        self._heartbeat_frame = (
            len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body
        )
        self.metrics.attach_counters("tcp", self._tcp_counters)

    def _tcp_counters(self) -> dict:
        counters = {}
        for key, value in (
            ("backpressure", self.backpressure_drops),
            ("rejected_frames", self.rejected_frames),
            ("conn_lost", self.conn_lost),
            ("reconnects", self.reconnects),
            ("heartbeats", self.heartbeats_sent),
            ("heartbeats_seen", self.heartbeats_seen),
            ("resent_frames", self.resent_frames),
        ):
            if value:
                counters[key] = value
        return counters

    # -- the driving surface -----------------------------------------------------------

    async def open(self) -> None:
        if not self._opened:
            self._progress = asyncio.Event()  # bound to this run's loop
            await self._open()
            self._opened = True
            self.now()  # the first reading starts the clock

    async def close(self) -> None:
        # Raise the closing flag *before* the background tasks are
        # cancelled: a pump whose queued-frame future is already resolved
        # when the cancel lands can have the CancelledError swallowed
        # inside ``wait_for`` (the future-done race) — the cooperative
        # check at the top of the pump loop is what guarantees it still
        # exits.
        self._closing = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        Transport._flush_coalesced(self)  # drain anything still parked
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for link in self._links.values():
            if link.writer is not None:
                link.writer.close()
        for server in self._servers:
            server.close()
        await asyncio.gather(
            *(server.wait_closed() for server in self._servers),
            return_exceptions=True,
        )
        self._links.clear()
        self._servers.clear()
        self._opened = False

    def now(self) -> float:
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # outside the loop: treat as the run's start
            return 0.0
        if self._clock_origin is None:
            self._clock_origin = now
        return now - self._clock_origin

    async def wait_any(self, sessions: Any, timeout: float = 60.0) -> list[int]:
        """Await the first completions among ``sessions``; returns the
        completed ones (at least one).

        Raises :class:`asyncio.TimeoutError` if none completes in time,
        or the underlying failure if a background task died first.
        """
        sessions = tuple(sessions)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            done = [s for s in sessions if self.all_honest_output(s)]
            if done:
                return done
            if self._failure is not None:
                raise self._failure
            self._progress.clear()
            try:
                await asyncio.wait_for(
                    self._progress.wait(), timeout=deadline - loop.time()
                )
            except asyncio.TimeoutError:
                raise asyncio.TimeoutError(
                    f"sessions {sorted(sessions)} incomplete after {timeout}s"
                ) from None

    async def wait_until(
        self, predicate: Callable[[Transport], bool], timeout: float = 60.0
    ) -> None:
        """Poll ``predicate(self)`` until it holds (2 ms cadence)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not predicate(self):
            if self._failure is not None:
                raise self._failure
            if loop.time() > deadline:
                raise asyncio.TimeoutError(
                    f"awaited condition not reached within {timeout}s"
                )
            await asyncio.sleep(0.002)

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def block_on(self, coroutine: Any) -> Any:
        """``asyncio.run``: socket awaitables need a loop to suspend on."""
        return asyncio.run(coroutine)

    def _spawn(self, coro) -> asyncio.Task:
        """Track a background task for cancellation and error propagation."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._on_task_done)
        return task

    def _on_task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None and self._failure is None:
            self._failure = exc
            self._progress.set()  # wake every waiter so it can re-raise

    def _flush_coalesced(self) -> None:
        """Drain the coalescing buffer at the end of the loop iteration.

        On a live event loop, activations of different parties interleave
        — the base class's flush-per-activation therefore produced
        near-empty frames (mean occupancy ~1.1 at n=6 versus ~224 on the
        simulator).  Deferring the drain one ``call_soon`` hop gives every
        activation scheduled in the same loop iteration a chance to park
        its sends first, and one drain then coalesces the lot: flush on
        writer-drain, not per-activation.  Callers outside a running loop
        (e.g. ``start()`` in a synchronous test) fall back to the
        immediate drain.
        """
        if not self._outgoing:
            return
        if self._flush_handle is not None:
            return  # drain already scheduled for this iteration
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            super()._flush_coalesced()
            return
        self._flush_handle = loop.call_soon(self._drain_coalesced)

    def _drain_coalesced(self) -> None:
        self._flush_handle = None
        super()._flush_coalesced()

    def _note_results(self, party: Party) -> list[int]:
        done = super()._note_results(party)
        if done:
            self._progress.set()
        return done

    def _chaos_requeue(self, envelope: Envelope, delay: float) -> None:
        self._spawn(self._chaos_redeliver(envelope, delay))

    async def _chaos_redeliver(self, envelope: Envelope, delay: float) -> None:
        await asyncio.sleep(delay)
        self._deliver_buffered(envelope)
        self._flush_coalesced()

    # -- socket lifecycle --------------------------------------------------------------

    async def _open(self) -> None:
        """Bind one loopback server per party, then connect every ordered
        pair (strictly: a refused connection aborts the open)."""
        for i in range(self.n):
            server = await asyncio.start_server(
                lambda reader, writer, party=i: self._accept(party, reader, writer),
                host=self.host,
                port=0,
            )
            self._servers.append(server)
            self.ports[i] = server.sockets[0].getsockname()[1]
        for pair in itertools.permutations(range(self.n), 2):
            sender, recipient = pair
            # Bounded: _pump applies socket backpressure via drain();
            # the cap sheds load if a peer stalls past it (counted in
            # tcp.backpressure) instead of growing without bound.
            link = _Link(
                pair,
                asyncio.Queue(maxsize=self.send_queue_cap),
                random.Random(
                    f"tcp-reconnect-{self.seed}-{sender}-{recipient}"
                ),
            )
            self._links[pair] = link
            # The initial connect is strict (a refused connection
            # aborts the open); only *re*connects go through backoff.
            reader, writer = await asyncio.open_connection(
                self.host, self.ports[recipient]
            )
            link.writer = writer
            self._spawn(self._watch_eof(link, reader, link.generation))
            self._spawn(self._pump(link))

    def kill_connection(self, sender: int, recipient: int) -> None:
        """Kill one ordered link's current socket mid-run (test/chaos hook).

        The close is orderly at the socket level (frames already handed
        to the kernel still reach the peer, then FIN), so the injected
        failure is a *connection* loss, not silent data loss — the
        supervision machinery must detect it (EOF watcher or a failed
        write), reconnect with backoff and re-inject the retained
        traffic.  Raises if the pair has no link (unknown indices or the
        transport is not open).
        """
        link = self._links.get((sender, recipient))
        if link is None:
            raise ValueError(f"no TCP link for pair {(sender, recipient)}")
        if link.writer is not None:
            link.writer.close()

    # -- connection supervision --------------------------------------------------------

    def _mark_lost(self, link: _Link, generation: int) -> None:
        """Record one connection loss; idempotent per generation."""
        if (
            self._closing
            or link.generation != generation
            or link.writer is None
        ):
            return
        self.conn_lost += 1
        writer, link.writer = link.writer, None
        writer.close()

    async def _watch_eof(
        self, link: _Link, reader: asyncio.StreamReader, generation: int
    ) -> None:
        """Detect a peer-side close promptly: the server never writes, so
        any read completion (EOF or reset) means the connection died."""
        try:
            await reader.read()
        except (ConnectionError, OSError):
            pass
        self._mark_lost(link, generation)

    async def _reconnect(self, link: _Link) -> None:
        """Re-dial one link until it is connected (or the runtime closes).

        Capped exponential backoff with deterministic per-link jitter:
        attempt ``k`` sleeps ``min(cap, base * 2^k) * uniform(0.5, 1.5)``
        drawn from the link's seeded RNG stream.
        """
        while link.writer is None and not self._closing:
            delay = min(
                self.reconnect_cap, self.reconnect_base * (2 ** link.attempts)
            )
            await asyncio.sleep(delay * (0.5 + link.rng.random()))
            if self._closing:
                return
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.ports[link.pair[1]]
                )
            except OSError:
                link.attempts += 1
                continue
            link.writer = writer
            link.generation += 1
            link.attempts = 0
            self.reconnects += 1
            self._spawn(self._watch_eof(link, reader, link.generation))

    # -- sending -----------------------------------------------------------------------

    def _transmit_coalesced(
        self, envelopes: list[Envelope], sizes: list, delays: list
    ) -> None:
        """Group the batch per connection and frame each group.

        Order per connection is the creation order (FIFO queue, in-frame
        order preserved by the codec); groups are split so no frame
        exceeds ``batch_cap_bytes`` of payload body.
        """
        groups: dict[tuple[int, int], list] = {}
        for envelope, nbytes in zip(envelopes, sizes):
            pair = (envelope.sender, envelope.recipient)
            group = groups.get(pair)
            if group is None:
                groups[pair] = group = []
            group.append((envelope, nbytes))
        byte_cap = min(self.batch_cap_bytes, MAX_FRAME_BYTES // 2)
        for pair, items in groups.items():
            link = self._links.get(pair)
            if link is None:
                # Not open (or already closed): metered, never framed.
                self.dropped_sends += len(items)
                continue
            current: list[Envelope] = []
            current_bytes = 0
            for envelope, nbytes in items:
                body = nbytes - FRAME_HEADER_BYTES
                if current and current_bytes + body > byte_cap:
                    self._put_frame(link, current)
                    current = []
                    current_bytes = 0
                current.append(envelope)
                current_bytes += body
            if current:
                self._put_frame(link, current)

    def _batch_frame(self, envelopes: list[Envelope]) -> bytes:
        """One wire frame: length prefix + batch frame body."""
        body = codec.encode_batch(envelopes)
        if len(body) > MAX_FRAME_BYTES:
            raise codec.CodecError(
                f"batch frame of {len(body)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte wire bound"
            )
        return len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body

    def _put_frame(self, link: _Link, envelopes: list[Envelope]) -> None:
        frame = self._batch_frame(envelopes)
        try:
            link.queue.put_nowait(frame)
        except asyncio.QueueFull:
            # The envelopes were already metered as sends (offered load);
            # the shed frame is visible in tcp.backpressure and in
            # dropped_sends.
            self.backpressure_drops += 1
            self.dropped_sends += len(envelopes)
            return
        self.metrics.record_frame(len(envelopes), len(frame))

    async def _next_frame(self, link: _Link) -> Optional[bytes]:
        """The link's next queued frame, or ``None`` after an idle gap."""
        queue = link.queue
        if not queue.empty():
            return queue.get_nowait()
        try:
            return await asyncio.wait_for(
                queue.get(), timeout=self.heartbeat_interval
            )
        except asyncio.TimeoutError:
            return None

    async def _pump(self, link: _Link) -> None:
        """Drain one ordered pair's frames onto its (current) socket.

        ``drain()`` applies socket-level backpressure between frames (the
        pump pauses while the peer's kernel buffers are full); producers
        shed load once the bounded queue fills on top of that.  The pump
        outlives the socket: a failed write marks the connection lost,
        keeps the frame in ``link.pending``, reconnects with backoff and
        re-sends.  Idle gaps produce heartbeat frames, which both prove
        liveness to the peer and bound how long a dead connection can
        hide (a heartbeat write failure triggers the same healing path).
        """
        while True:
            if self._closing:
                return
            frame = link.pending
            heartbeat = False
            if frame is None:
                frame = await self._next_frame(link)
                if frame is None:
                    if link.writer is None:
                        # Idle *and* down: heal now rather than waiting
                        # for traffic.
                        await self._reconnect(link)
                        if link.writer is None:
                            return  # runtime closing
                        continue
                    heartbeat = True
                    frame = self._heartbeat_frame
                else:
                    link.pending = frame
            if link.writer is None:
                await self._reconnect(link)
                if link.writer is None:
                    return  # runtime closing
            try:
                link.writer.write(frame)
                await link.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # RuntimeError covers asyncio's "write after close".
                self._mark_lost(link, link.generation)
                if not heartbeat:
                    link.resend = True  # pending retained; resent above
                continue
            if heartbeat:
                self.heartbeats_sent += 1
            else:
                if link.resend:
                    link.resend = False
                    self.resent_frames += 1
                link.pending = None

    # -- receiving ---------------------------------------------------------------------

    def _accept(
        self, party: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._spawn(self._read_frames(party, reader, writer))

    async def _read_frames(
        self, party: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_BYTES)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                length = int.from_bytes(header, "big")
                if length > MAX_FRAME_BYTES:
                    self.rejected_frames += 1
                    return  # poison-length frame: drop the connection
                try:
                    frame = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if codec.is_heartbeat(frame):
                    # Transport chatter: never metered, never delivered.
                    self.heartbeats_seen += 1
                    continue
                try:
                    envelopes = codec.decode_batch(frame)
                except codec.CodecError:
                    self.rejected_frames += 1
                    continue
                for envelope in envelopes:
                    if (
                        envelope.recipient != party
                        or not 0 <= envelope.sender < self.n
                        or envelope.depth < 0
                    ):
                        self.rejected_frames += 1
                        continue
                    self._deliver_buffered(envelope)
                # One flush for the whole frame: the activations it
                # triggered coalesce into shared outgoing frames.
                self._flush_coalesced()
        finally:
            writer.close()
