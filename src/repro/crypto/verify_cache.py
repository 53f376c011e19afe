"""Content-addressed memoization of cryptographic verification.

The protocols above the crypto layer re-verify the same values over and
over: a PVSS transcript arrives once per RBC echo path, a signed vote is
checked inside every certificate that carries it, and (in-process) every
party repeats the identical pairing checks its peers already ran.  All of
these verifications are pure functions of the public directory and the
value bytes, so the repo amortizes them behind a :class:`VerifyCache`.

Safety under Byzantine inputs comes from the cache key, not from trust in
the sender: a result is stored under the SHA-256 of the value's canonical
:mod:`repro.net.codec` encoding (plus a domain tag and any context parts).
A transcript with even one mutated byte encodes to different bytes, hashes
to a different key, and misses the cache — there is no way to inherit a
``True`` verdict from the unmutated original.  Values the codec cannot
encode never enter the content-addressed store (the check simply runs),
so it can only deduplicate work, never change a verdict.

Scoping: each run has a cache of its own.  A transport hands its
parties a copy of the setup's :class:`~repro.crypto.keys.PublicDirectory`
that carries a fresh cache counting into the run's
:attr:`~repro.net.metrics.Metrics.counts`, so verdicts never cross runs
or differently-keyed systems, and the ``verify`` counters are the run's
work alone.  Within one run all in-process parties share the cache (and
a recovered party's replay finds it warm); the ``*.misses`` counter is
exactly "distinct values verified", which is the structural quantity
``perf.run`` reports as ``crypto.verify_cache.misses``.  A directory
built outside a run carries a cache with a table of its own.

Identity memoization (:class:`IdentityMemo`) is a second, cheaper layer:
it maps a *specific object* to a derived value — a verdict under a
context (:meth:`VerifyCache.identity_memoize`), or the object's encoded
bytes (the codec's one struct-bytes memo, which serves payloads and the
crypto aggregates inside them).  It is keyed by ``id`` with a weakref
guard, so a different (e.g. attacker-rebuilt) object never inherits the
original's entry, and it stores only what :func:`frozen` calls
immutable — a value with a list in a tuple field could change after
its first check, so its verdict is looked up by content every time.

One byte string per value: an aggregate's codec bytes exist once per
object — written by the encoder that first walked it or by the decoder
that just read it off a frame — and :func:`content_encoding` /
:func:`content_digest` are how everything that needs *the* canonical
bytes of a value gets them: cache keys here, the NWH vote digest
(:func:`repro.core.certificates.value_digest`), Bracha's tally keys and
the PVSS / reshare Fiat-Shamir seeds.  For a transcript that arrived
over a wire each is one SHA-256 over bytes the frame already held; no
consumer walks the value, and none keeps a digest memo of its own.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import Counter
from typing import Any, Callable, Optional, TypeVar

T = TypeVar("T")

_ATOMS = (int, str, bytes, bool, type(None))

#: Registered struct -> the names of its tuple-annotated fields, declared
#: by :func:`repro.net.codec.register`; what :func:`frozen` trusts.
TUPLE_FIELDS: dict[type, tuple[str, ...]] = {}


def frozen(value: Any) -> bool:
    """Whether ``value`` cannot change under anyone holding a reference.

    True for an atom, a tuple of such values, and a codec-registered
    (frozen) struct whose tuple-annotated fields all hold real tuples.
    A list smuggled into a tuple field by an in-process adversary can be
    mutated after a first look; an unregistered type is not trusted.
    """
    kind = type(value)
    if kind in _ATOMS:
        return True
    if kind is tuple:
        for item in value:
            if type(item) not in _ATOMS and not frozen(item):
                return False
        return True
    names = TUPLE_FIELDS.get(kind)
    if names is None:
        return False
    for name in names:
        if type(getattr(value, name)) is not tuple:
            return False
    return True


class IdentityMemo:
    """An ``id``-keyed memo with weakref invalidation.

    ``get`` returns a previously stored value only if the stored weakref
    still points at the *same object* — a recycled ``id`` after garbage
    collection can never alias a stale entry.  ``put`` ignores an object
    or value that is not :func:`frozen` or not weakref-able.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[int, tuple[weakref.ref, Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Forget everything (a cold start; entries rebuild on demand)."""
        self._entries.clear()

    def get(self, obj: Any) -> Optional[Any]:
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def put(self, obj: Any, value: Any) -> None:
        if not (frozen(obj) and frozen(value)):
            return
        oid = id(obj)
        try:
            ref = weakref.ref(obj, lambda _ref, _e=self._entries, _k=oid: _e.pop(_k, None))
        except TypeError:
            return  # ints, tuples, ... — not weakref-able, not worth memoizing
        self._entries[oid] = (ref, value)


#: :mod:`repro.net.codec`, bound by the first :func:`content_encoding`
#: (the codec imports this module, so this one cannot import it on load).
_codec: Any = None


def content_encoding(value: Any) -> Optional[bytes]:
    """Canonical codec bytes of ``value``, or ``None`` if not encodable.

    The one way to ask for a value's canonical bytes outside the wire
    path (``perf/trace.py`` TARGETS pins the name).  For a payload or an
    aggregate these are the codec's memoized bytes themselves.
    """
    global _codec
    if _codec is None:
        from repro.net import codec

        _codec = codec
    try:
        return _codec.encode(value)
    except _codec.CodecError:
        return None


def content_digest(value: Any) -> Optional[bytes]:
    """SHA-256 of ``value``'s canonical codec bytes.

    Returns ``None`` when the codec cannot encode the value; callers must
    then treat the value as uncacheable (a Fiat-Shamir seed: as
    rejected).  Not memoized here: the codec already keeps the bytes of
    every payload and crypto aggregate by identity, so a repeat costs one
    hash over cached bytes.
    """
    encoded = content_encoding(value)
    if encoded is None:
        return None
    return hashlib.sha256(encoded).digest()


def _part_key(part: Any) -> Optional[Any]:
    """A hashable cache-key component for one context part."""
    if isinstance(part, _ATOMS):
        return (type(part).__name__, part)
    return content_digest(part)


class VerifyCache:
    """Per-directory store of verification verdicts, with counters.

    ``stats`` (the run's counter table, or a table of the cache's own)
    counts, per domain: ``verify.<domain>.calls`` (every memoize
    request), ``verify.<domain>.hits`` / ``verify.<domain>.misses``
    (cacheable requests served from / added to the store) and
    ``verify.<domain>.uncacheable`` (values the codec could not encode —
    always recomputed).

    Single-threaded: every runtime delivers on one thread.
    """

    __slots__ = ("_results", "stats", "_domains")

    def __init__(self, stats: Optional[Counter] = None) -> None:
        self._results: dict[tuple, Any] = {}
        self.stats: Counter = Counter() if stats is None else stats
        #: domain -> (identity memo, calls / hits / misses / uncacheable keys).
        self._domains: dict[str, tuple[IdentityMemo, str, str, str, str]] = {}

    def __len__(self) -> int:
        return len(self._results)

    def identity_memoize(
        self,
        domain: str,
        obj: Any,
        context: tuple,
        parts: tuple,
        compute: Callable[[], T],
    ) -> T:
        """:meth:`memoize` with an object-identity fast layer in front.

        When the *same immutable object* is checked repeatedly under the
        same ``context`` (an in-process multicast fans one frozen payload
        out to n-1 recipients), the verdict is returned from an
        ``id``-keyed memo without hashing anything.  Any context mismatch
        — e.g. a replayed object under a different claimed sender — falls
        through to the content-addressed layer, which re-keys on the
        canonical bytes of ``parts``; a different object with equal bytes
        still hits there.  Counted as a hit: the request was served from
        cache.  Only an ``obj`` and ``context`` that are :func:`frozen`
        are remembered by identity.
        """
        memo, calls, hits, _misses, _uncacheable = self._domain(domain)
        entry = memo.get(obj)
        if entry is not None and entry[0] == context:
            self.stats[calls] += 1
            self.stats[hits] += 1
            return entry[1]
        result = self.memoize(domain, parts, compute)
        memo.put(obj, (context, result))
        return result

    def memoize(self, domain: str, parts: tuple, compute: Callable[[], T]) -> T:
        """Return ``compute()``, served from the cache when possible.

        ``parts`` is the full verification context: the value under test
        plus everything the verdict depends on (thresholds, messages,
        signer indices, ...).  Each part is keyed by its canonical content
        digest, so two contexts share a verdict iff they are byte-equal.
        """
        stats = self.stats
        _memo, calls, hits, misses, uncacheable = self._domain(domain)
        stats[calls] += 1
        key_parts = []
        for part in parts:
            part_key = _part_key(part)
            if part_key is None:
                stats[uncacheable] += 1
                return compute()
            key_parts.append(part_key)
        key = (domain, *key_parts)
        if key in self._results:
            stats[hits] += 1
            return self._results[key]
        stats[misses] += 1
        result = self._results[key] = compute()
        return result

    def _domain(self, domain: str) -> tuple[IdentityMemo, str, str, str, str]:
        record = self._domains.get(domain)
        if record is None:
            stats = ("calls", "hits", "misses", "uncacheable")
            record = (IdentityMemo(), *(f"verify.{domain}.{stat}" for stat in stats))
            self._domains[domain] = record
        return record
