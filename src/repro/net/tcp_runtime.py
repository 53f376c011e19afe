"""TCP transport: every message crosses a real socket as codec bytes.

Each party runs an ``asyncio`` stream server on the loopback interface;
at startup every ordered pair of distinct parties opens one TCP
connection.  A transmitted envelope is encoded by :mod:`repro.net.codec`
into a length-prefixed frame, written to the sender's connection, read
back by the recipient's server, decoded, and only then delivered into the
recipient's protocol stack — so a full run proves the protocols execute
unchanged over an actual socket boundary, with nothing shared in memory
between sender and recipient but bytes.

Framing: a 4-byte big-endian length followed by one frame body.  A
connection's first frame is a *hello* (below); every later one is a
batch frame (:func:`repro.net.codec.encode_batch`).  It coalesces
every envelope one flush slice queued for the same connection (a slice
holds at most ``batch_cap_envelopes``, so a cap of one sends batches of
one), with intra-frame payload deduplication, and is halved while its
body exceeds ``batch_cap_bytes``.  Malformed frames (codec errors,
oversized lengths) are dropped and counted as ``tcp.rejected_frames``, as
is every decoded envelope addressed to a different party — the
Byzantine-input posture of the codec applies at the transport edge too.

Authenticated channels: a party speaks only as itself, on both sides of
the socket.  The shared flush drops (``adversary.forged_sender``) any
envelope a :class:`~repro.net.adversary.Behavior` emits under another
index, and sends what a behaviour changed through the codec first, as
on the simulator (``adversary.codec_refused``).  A receiver binds each
connection to the peer its hello names: :data:`HELLO_MAGIC`, then the
codec encoding of ``(sender, generation, signature)``, signed by the
sender over the session, the ordered pair and a generation newer than
the pair's last.  A bad first frame closes
the connection, an envelope from any other sender is dropped, and both
count as ``tcp.rejected_frames``.  Hellos are never metered.

Byte metering is always on: ``metrics.bytes_total`` is the *protocol*
byte metric — the sum of per-envelope sizes (length prefix + bare
envelope encoding), whatever the frames — while
``metrics.wire_bytes_total`` counts the bytes of the frames queued for
the sockets, so their difference is what coalescing saved.  This is the
one runtime that builds frames (:meth:`TCPRuntime._batch_frame`), so the
one that counts wire bytes.  A send is metered when it is buffered, as
offered load; one with no connection to travel on (the runtime is not
open) is dropped where its frame would be built and counted as
``tcp.dropped_sends``, as the sends of a frame shed by backpressure are.
Every ``tcp.*`` count is written straight into the run's
``Metrics.counts`` table.

Backpressure: each ordered pair's send queue is a *bounded*
``asyncio.Queue`` (``send_queue_cap`` frames).  ``drain()`` applies
socket-level backpressure between frames; if a peer stalls long enough
that the queue fills anyway, further frames are shed and counted in the
``tcp.backpressure`` metrics counter (honest runs never hit the cap —
the drops model a long-lived deployment shedding load instead of
growing without bound).

Self-healing (DESIGN §11): each ordered pair is supervised by a
:class:`_Link`: a bounded queue, a socket and an EOF watcher.
Connection loss is detected two ways — the link's read side hits EOF (a
dedicated watcher task), or a frame write/drain fails — and is counted
once per connection generation in ``tcp.conn_lost``.  The pump
reconnects when its next frame is due, with capped exponential backoff
and deterministic per-link jitter (``tcp.reconnects``), retaining the
in-flight frame across the outage and re-writing it on the new
connection (``tcp.resent_frames``: wire traffic only, its envelopes were
metered once, at send time) — the same parked-traffic model the
transport's ``detach_party``/``reattach_party`` applies at the party
level, here at the socket level: the bounded send queue simply survives
the reconnect and drains onto the new socket.  No timer watches an idle
link: in an asynchronous network a silent peer cannot be told from a
slow one.  A frame whose write raced a connection loss may be
delivered twice (at-least-once delivery); that is exactly the chaos
plane's ``duplicate`` link fault, which the protocols tolerate.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Any, Callable, Optional

from repro.crypto import schnorr
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

#: First body byte of a hello frame.  Outside the codec tag space and
#: unlike :data:`repro.net.codec.BATCH_MAGIC`, so no batch passes for one.
HELLO_MAGIC = 0xA7
#: Hash domain of the hello's signature.
HELLO_DOMAIN = "tcp-hello"


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

    #: Loopback interface every party's server binds.
    host = "127.0.0.1"
    #: Frames each ordered pair's bounded send queue holds before shedding.
    send_queue_cap = 1024
    #: Capped exponential backoff between reconnect attempts:
    #: ``min(cap, base * 2^attempt)``, jittered by a deterministic
    #: per-link factor in [0.5, 1.5).
    reconnect_base = 0.05
    reconnect_cap = 2.0
    #: A frame of several envelopes is halved while its body exceeds
    #: this many bytes.
    batch_cap_bytes = 1 << 20
    builds_frames = True

    def __init__(
        self,
        setup: TrustedSetup,
        behaviors: Optional[dict[int, Behavior]] = None,
        seed: int = 0,
        measure_bytes: bool = True,
        chaos: Any = None,
    ) -> None:
        # TCP always meters bytes: refuse a request not to, never ignore it.
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
        self._closing = False
        self._servers: list[asyncio.AbstractServer] = []
        self._links: dict[tuple[int, int], _Link] = {}
        #: Per ordered pair, the last generation a hello bound on it.
        self._hello_generations: dict[tuple[int, int], int] = {}

    # -- the driving surface -----------------------------------------------------------

    async def open(self) -> None:
        if not self._opened:
            self._progress = asyncio.Event()  # bound to this run's loop
            self._closing = False
            await self._open()
            self._opened = True
            self.now()  # the first reading starts the clock

    async def close(self) -> None:
        # Raised before the tasks are cancelled: a loss or a reconnect
        # racing the shutdown is not counted and not re-dialled.
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
        self._hello_generations.clear()
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
            self._attach(link, reader, writer)
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
        self.metrics.counts["tcp.conn_lost"] += 1
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
            link.generation += 1
            link.attempts = 0
            self.metrics.counts["tcp.reconnects"] += 1
            self._attach(link, reader, writer)

    def _attach(
        self, link: _Link, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Make a fresh connection the link's socket: its first frame is
        the hello binding it to the sender, and an EOF watcher follows it."""
        sender, recipient = link.pair
        directory = self.setup.directory
        signature = schnorr.sign(
            directory.sign_group, self.setup.secret(sender).sign, HELLO_DOMAIN,
            directory.session, sender, recipient, link.generation,
        )  # fmt: skip
        body = bytes((HELLO_MAGIC,)) + codec.encode(
            (sender, link.generation, signature)
        )
        writer.write(len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body)
        link.writer = writer
        self._spawn(self._watch_eof(link, reader, link.generation))

    # -- sending -----------------------------------------------------------------------

    def _transmit_coalesced(self, envelopes: list[Envelope], delays: list) -> None:
        """Group the batch per connection and frame each group.

        Order per connection is the creation order (FIFO queue, in-frame
        order preserved by the codec).
        """
        groups: dict[tuple[int, int], list[Envelope]] = {}
        for envelope in envelopes:
            pair = (envelope.sender, envelope.recipient)
            group = groups.get(pair)
            if group is None:
                groups[pair] = group = []
            group.append(envelope)
        for pair, group in groups.items():
            link = self._links.get(pair)
            if link is None:
                # Not open (or already closed): metered, never framed.
                self.metrics.counts["tcp.dropped_sends"] += len(group)
            else:
                self._put_frames(link, group)

    def _put_frames(self, link: _Link, envelopes: list[Envelope]) -> None:
        """Queue ``envelopes`` as one frame, halved while the body of
        several exceeds ``batch_cap_bytes``: a group is encoded once
        unless it must be split."""
        body = codec.encode_batch(envelopes)
        if len(body) > self.batch_cap_bytes and len(envelopes) > 1:
            half = len(envelopes) // 2
            self._put_frames(link, envelopes[:half])
            self._put_frames(link, envelopes[half:])
            return
        frame = self._batch_frame(body)
        try:
            link.queue.put_nowait(frame)
        except asyncio.QueueFull:
            # The envelopes were already metered as sends (offered load);
            # the shed frame is visible in tcp.backpressure and its
            # sends in tcp.dropped_sends.
            self.metrics.counts["tcp.backpressure"] += 1
            self.metrics.counts["tcp.dropped_sends"] += len(envelopes)
            return
        self.metrics.record_frame(len(envelopes), len(frame))

    def _batch_frame(self, body: bytes) -> bytes:
        """One wire frame: length prefix + a batch frame body."""
        if len(body) > MAX_FRAME_BYTES:
            raise codec.CodecError(
                f"batch frame of {len(body)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte wire bound"
            )
        return len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body

    async def _pump(self, link: _Link) -> None:
        """Drain one ordered pair's frames onto its (current) socket.

        ``drain()`` applies socket-level backpressure between frames (the
        pump pauses while the peer's kernel buffers are full); producers
        shed load once the bounded queue fills on top of that.  The pump
        outlives the socket: a failed write marks the connection lost,
        keeps the frame in ``link.pending``, reconnects with backoff and
        re-sends.  A link lost while idle reconnects when its next frame
        is due.
        """
        while True:
            if link.pending is None:
                link.pending = await link.queue.get()
            if link.writer is None:
                await self._reconnect(link)
                if link.writer is None:
                    return  # runtime closing
            try:
                link.writer.write(link.pending)
                await link.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # RuntimeError covers asyncio's "write after close".
                self._mark_lost(link, link.generation)
                link.resend = True  # pending retained; resent above
                continue
            if link.resend:
                link.resend = False
                self.metrics.counts["tcp.resent_frames"] += 1
            link.pending = None

    # -- receiving ---------------------------------------------------------------------

    def _accept(
        self, party: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._spawn(self._read_frames(party, reader, writer))

    def _hello_peer(self, party: int, body: bytes) -> Optional[int]:
        """The peer a hello frame body binds a connection into ``party``
        to, or ``None``: another party, a generation newer than the pair's
        last, and that party's signature over both."""
        if body[:1] != bytes((HELLO_MAGIC,)):
            return None
        directory = self.setup.directory
        try:
            sender, generation, signature = codec.decode(body[1:])
            valid = (
                type(sender) is int
                and type(generation) is int
                and 0 <= sender < self.n
                and sender != party
                and generation > self._hello_generations.get((sender, party), -1)
                and schnorr.verify(
                    directory.sign_group, directory.sign_pks[sender], signature,
                    HELLO_DOMAIN, directory.session, sender, party, generation,
                )
            )  # fmt: skip
        except (codec.CodecError, TypeError, ValueError):
            return None
        if not valid:
            return None
        self._hello_generations[sender, party] = generation
        return sender

    async def _read_frames(
        self, party: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = None  # bound by the connection's hello
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_BYTES)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                length = int.from_bytes(header, "big")
                if length > MAX_FRAME_BYTES:
                    self.metrics.counts["tcp.rejected_frames"] += 1
                    return  # poison-length frame: drop the connection
                try:
                    frame = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if peer is None:
                    peer = self._hello_peer(party, frame)
                    if peer is None:
                        self.metrics.counts["tcp.rejected_frames"] += 1
                        return  # not a peer: drop the connection
                    continue
                try:
                    envelopes = codec.decode_batch(frame)
                except codec.CodecError:
                    self.metrics.counts["tcp.rejected_frames"] += 1
                    continue
                for envelope in envelopes:
                    if (
                        envelope.recipient != party
                        or envelope.sender != peer
                        or envelope.depth < 0
                    ):
                        self.metrics.counts["tcp.rejected_frames"] += 1
                        continue
                    self._deliver_buffered(envelope)
                # One flush for the whole frame: the activations it
                # triggered coalesce into shared outgoing frames.
                self._flush_coalesced()
        finally:
            writer.close()
