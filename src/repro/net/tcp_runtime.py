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
the sockets, so their difference is what coalescing saved.

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
from typing import Any, Optional

from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import Behavior
from repro.net.envelope import Envelope
from repro.net.transport import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    RealtimeTransport,
    RootFactory,
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


class TCPRuntime(RealtimeTransport):
    """Run an n-party protocol over real asyncio TCP stream connections."""

    frames_on_wire = True

    def __init__(
        self,
        setup: TrustedSetup,
        behaviors: Optional[dict[int, Behavior]] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        measure_bytes: bool = True,
        send_queue_cap: int = 1024,
        chaos: Any = None,
        heartbeat_interval: float = 1.0,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
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
        if send_queue_cap < 1:
            raise ValueError("send_queue_cap must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if reconnect_base <= 0 or reconnect_cap < reconnect_base:
            raise ValueError(
                "reconnect backoff needs 0 < reconnect_base <= reconnect_cap"
            )
        super().__init__(
            setup,
            behaviors,
            seed,
            rng_namespace="tcp-runtime",
            measure_bytes=True,
            chaos=chaos,
        )
        self.host = host
        self.ports: dict[int, int] = {}
        self.rejected_frames = 0
        self.send_queue_cap = send_queue_cap
        #: Frames shed because a pair's bounded send queue was full.
        self.backpressure_drops = 0
        #: Idle gap after which the pump writes a heartbeat frame — the
        #: bound on how long a dead idle connection can stay undetected.
        self.heartbeat_interval = heartbeat_interval
        #: Capped exponential backoff between reconnect attempts:
        #: ``min(cap, base * 2^attempt)``, jittered by a deterministic
        #: per-link factor in [0.5, 1.5).
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
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

    # -- socket lifecycle --------------------------------------------------------------

    async def _open(self) -> None:
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

    async def close(self) -> None:
        # Raise the closing flag *before* the base class cancels the
        # background tasks: a pump whose queued-frame future is already
        # resolved when the cancel lands can have the CancelledError
        # swallowed inside ``wait_for`` (the future-done race) — the
        # cooperative check at the top of the pump loop is what
        # guarantees it still exits.
        self._closing = True
        await super().close()

    async def _close(self) -> None:
        self._closing = True
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

    def _transmittable(self, envelopes: list[Envelope]) -> list[Envelope]:
        links = self._links
        return [e for e in envelopes if (e.sender, e.recipient) in links]

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
                # Connection torn down between metering and flush.
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
