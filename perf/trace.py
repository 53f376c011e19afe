"""Spans around the layers' entry points, recorded from outside the program.

``install()`` replaces entry points of ``repro`` with wrappers that record a
span — ``(id, parent, name, start, end)`` — per call.  It runs in the traced
child process only; nothing under ``src/`` knows about it.  Spans are kept in
memory; ``Tracer.end_op`` folds one op's spans into *self* time per span name
(a span's duration minus the part its child spans cover), which is what the
per-layer ``*_s`` metrics report.

A function imported by name (``from x import f``) is bound in several
modules, so a function is patched wherever a ``repro`` module binds the same
object.  A target that no longer exists is skipped and listed in
``Tracer.missing`` (reported as ``trace.unpatched``): a refactor may rename
an entry point without breaking the benchmark, at the price of coverage.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: name of the span that wraps one whole op; its self time is what no layer
#: span covered (``trace.other_s``).
ROOT_SPAN = "op"

#: span name -> ``module:attr`` or ``module:Class.attr`` targets.
TARGETS: dict[str, tuple[str, ...]] = {
    "net.runtime.step": ("repro.net.runtime:Simulation.step",),
    # The shared delivery seam and the coalescing flush are private names;
    # ROADMAP.md names them as *the* seams, and without them the transport's
    # bookkeeping cannot be told apart from the scheduler's.
    "net.transport": (
        "repro.net.transport:Transport.start",
        "repro.net.transport:Transport.collect_session",
        "repro.net.transport:Transport.detach_party",
        "repro.net.transport:Transport.reattach_party",
        "repro.net.transport:Transport._deliver_buffered",
        "repro.net.transport:Transport._flush_coalesced",
    ),
    "net.transport.meter": (
        "repro.net.metrics:Metrics.record_send",
        "repro.net.metrics:Metrics.record_delivery",
        "repro.net.metrics:Metrics.record_frame",
    ),
    "net.party.deliver": ("repro.net.party:Party.deliver",),
    "net.party.conditions": (
        "repro.net.conditions:ConditionRegistry.run_to_fixpoint",
    ),
    "net.party.outbox": ("repro.net.party:Party.collect_outbox",),
    "net.codec.encode": (
        "repro.net.codec:encode",
        "repro.net.codec:encode_envelope",
        "repro.net.codec:encode_batch",
    ),
    "net.codec.decode": (
        "repro.net.codec:decode",
        "repro.net.codec:decode_envelope",
        "repro.net.codec:decode_batch",
    ),
    "net.codec.size": (
        "repro.net.codec:encoded_size",
        "repro.net.codec:encoded_envelope_size",
        "repro.net.codec:encoded_batch_size",
    ),
    "net.chaos": ("repro.net.chaos:ChaosPlane.decide",),
    "broadcast.rs_encode": ("repro.broadcast.erasure:rs_encode",),
    "broadcast.rs_decode": ("repro.broadcast.erasure:rs_decode",),
    "crypto.setup": (
        "repro.crypto.keys:TrustedSetup.generate",
        "repro.service.membership:committee_setup",
    ),
    "crypto.verify_cache.lookup": (
        "repro.crypto.verify_cache:VerifyCache.identity_memoize",
    ),
    "crypto.verify_cache.key": (
        "repro.crypto.verify_cache:content_digest",
        "repro.crypto.verify_cache:content_encoding",
    ),
    "crypto.pair": (
        "repro.crypto.pairing:BilinearGroup.pair",
        "repro.crypto.pairing:BilinearGroup.multi_pair",
        "repro.crypto.pairing:BilinearGroup.multi",
    ),
    "crypto.deal": ("repro.crypto.pvss:deal", "repro.crypto.pvss:aggregate"),
    "crypto.tvrf": tuple(
        f"repro.crypto.threshold_vrf:{name}"
        for name in (
            "DKGSh", "DKGShVerify", "DKGAggregate", "DKGVerify", "EvalSh",
            "EvalShVerify", "Eval", "EvalVerify", "vrf_output",
        )
    ),
    "crypto.reshare": tuple(
        f"repro.crypto.reshare:{name}"
        for name in (
            "deal_reshare", "verify_dealing", "verify_bundle", "finalize",
            "verify_reshared",
        )
    ),
    "storage.wal_append": ("repro.storage.wal:WriteAheadLog.append",),
    "storage.replay": (
        "repro.storage.wal:WriteAheadLog.replay",
        "repro.net.party:Party.replay",
    ),
    "storage.snapshot.freeze": ("repro.net.party:Party.freeze",),
    "storage.snapshot.save": ("repro.storage.store:SnapshotStore.save_snapshot",),
    "storage.restore": (
        "repro.storage.store:SnapshotStore.load_snapshot",
        "repro.net.party:Party.thaw",
    ),
    "service.driver": (
        "repro.service.epochs:EpochDriver.run",
        "repro.service.membership:MembershipDriver.run",
    ),
    "service.beacon_emit": (
        "repro.service.beacon:RandomnessBeacon.emit_epoch",
        "repro.service.membership:ChurnBeacon.emit_epoch",
    ),
    "service.beacon_verify": (
        "repro.service.beacon:RandomnessBeacon.verify_chain",
        "repro.service.membership:ChurnBeacon.verify_chain",
    ),
}

#: Protocol state machines: span name -> classes whose ``on_start`` /
#: ``on_message`` / ``on_sub_output`` handlers and ``upon`` actions it covers.
PROTOCOLS: dict[str, tuple[str, ...]] = {
    "broadcast.handler": (
        "repro.broadcast.ct_rbc:CTBroadcast",
        "repro.broadcast.bracha:BrachaBroadcast",
    ),
    "core.gather": ("repro.core.gather:Gather",),
    "core.pe": ("repro.core.proposal_election:ProposalElection",),
    "core.nwh": ("repro.core.nwh:NWH",),
    "core.adkg": ("repro.core.adkg:ADKG",),
    "core.reshare": ("repro.core.reshare:ReshareAgreement",),
}

HANDLERS = ("on_start", "on_message", "on_sub_output")


class Tracer:
    """The span store of one traced child process."""

    def __init__(self, keep_spans: bool = False) -> None:
        #: Spans of the op in flight, appended when a span *ends* (children
        #: before their parent): ``(id, parent id, name, start, end)``.
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: Ids of the spans currently open, innermost last; -1 = no parent.
        self.stack: list[int] = [-1]
        self.next_id = 0
        self.missing: list[str] = []
        #: Bytes the WAL was asked to append in the op in flight.
        self.wal_bytes = 0
        #: Protocol instances started in the op in flight, per span name.
        self.starts: Counter = Counter()
        self.keep_spans = keep_spans
        #: With ``keep_spans``: every span of the pass, tagged with its op.
        self.kept: list[tuple[int, int, int, str, float, float]] = []
        self.ops = 0

    # -- recording ---------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        Deliberately no ``functools.wraps``: closures (``upon`` actions,
        ``memoize`` computes) are wrapped once per call, and copying
        metadata there would cost more than the span.
        """
        spans, stack = self.spans, self.stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self.next_id
            self.next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return traced

    def end_op(self) -> dict[str, Any]:
        """Fold the finished op's spans; returns self seconds and call counts.

        Only spans inside the op's root span count: the correctness check
        that follows the timed part calls wrapped functions too.
        """
        root_end = next(
            (end for _id, _parent, name, _start, end in self.spans if name == ROOT_SPAN),
            float("inf"),
        )
        spans = [span for span in self.spans if span[3] < root_end]
        covered = [0.0] * self.next_id
        for _id, parent, _name, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for span_id, _parent, name, start, end in spans:
            self_s[name] += end - start - covered[span_id]
            calls[name] += 1
        if self.keep_spans:
            op = self.ops
            self.kept.extend((op, *span) for span in spans)
        folded = {
            "self_s": self_s,
            "calls": calls,
            "starts": self.starts,
            "wal_bytes": self.wal_bytes,
        }
        self.spans.clear()
        self.next_id = 0
        self.wal_bytes = 0
        self.starts = Counter()
        self.ops += 1
        return folded

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for op, span_id, parent, name, start, end in self.kept:
                record = {
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }
                out.write(json.dumps(record) + "\n")

    # -- patching ----------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not."""
        for name, targets in TARGETS.items():
            for target in targets:
                self._patch(target, lambda fn, name=name: self.wrap(name, fn))
        for name, classes in PROTOCOLS.items():
            for cls_target in classes:
                for handler in HANDLERS:
                    make = self._wrap_start if handler == "on_start" else self.wrap
                    self._patch(
                        f"{cls_target}.{handler}",
                        lambda fn, name=name, make=make: make(name, fn),
                        optional=True,
                    )
        self._patch("repro.net.protocol:Protocol.upon", self._wrap_upon)
        self._patch(
            "repro.crypto.verify_cache:VerifyCache.memoize", self._wrap_memoize
        )
        self._patch(
            "repro.storage.frames:encode_wal_record", self._wrap_wal_record
        )

    def _patch(
        self, target: str, make: Callable[[Callable], Callable], optional: bool = False
    ) -> None:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            # A handler the class inherits (not overrides) has no work of
            # its own to attribute: not a missing target.
            if not optional:
                self.missing.append(target)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        elif owner_name:
            setattr(owner, attr, make(raw))
        else:
            wrapped = make(raw)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, wrapped)

    def _wrap_start(self, name: str, on_start: Callable) -> Callable:
        """A handler span that also counts the instance as started."""
        traced = self.wrap(name, on_start)

        def counting_start(protocol) -> None:
            self.starts[name] += 1
            traced(protocol)

        return counting_start

    def _wrap_upon(self, upon: Callable) -> Callable:
        """``upon`` actions run inside ``run_to_fixpoint``; attribute them to
        the protocol that registered them, not to the registry's sweep."""
        span_of = {}
        for name, classes in PROTOCOLS.items():
            for target in classes:
                span_of[target.partition(":")[2]] = name

        @functools.wraps(upon)
        def traced_upon(protocol, predicate, action, *args: Any, **kwargs: Any):
            for cls in type(protocol).__mro__:
                name = span_of.get(cls.__name__)
                if name is not None:
                    action = self.wrap(name, action)
                    break
            return upon(protocol, predicate, action, *args, **kwargs)

        return traced_upon

    def _wrap_memoize(self, memoize: Callable) -> Callable:
        """``memoize`` is the cache lookup; its ``compute`` argument, run on a
        miss, is the verification proper and gets its own span."""
        lookup = self.wrap("crypto.verify_cache.lookup", memoize)

        @functools.wraps(memoize)
        def traced_memoize(cache, domain, parts, compute):
            return lookup(cache, domain, parts, self.wrap("crypto.verify", compute))

        return traced_memoize

    def _wrap_wal_record(self, encode_wal_record: Callable) -> Callable:
        @functools.wraps(encode_wal_record)
        def counting(*args: Any, **kwargs: Any) -> bytes:
            record = encode_wal_record(*args, **kwargs)
            self.wal_bytes += len(record)
            return record

        return counting
