"""Uniform constructor for (validated) reliable broadcast instances.

The Gather protocol and the ablation benchmark (E9) swap broadcast
implementations by name; this factory is the single injection point.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.ct_rbc import CTBroadcast
from repro.net.protocol import Protocol

BROADCAST_KINDS = ("ct", "bracha")


def make_broadcast(
    kind: str,
    dealer: int,
    value: Any = None,
    validate: Optional[Callable[[Any], bool]] = None,
) -> Protocol:
    """Build a reliable-broadcast instance of the given ``kind``.

    ``kind`` is ``"ct"`` (the paper's erasure-coded protocol with Merkle
    openings, default everywhere) or ``"bracha"`` (the ablation baseline);
    a non-``None`` ``validate`` yields the Validated Reliable Broadcast variant.
    """
    if kind == "ct":
        return CTBroadcast(dealer=dealer, value=value, validate=validate)
    if kind == "bracha":
        return BrachaBroadcast(dealer=dealer, value=value, validate=validate)
    raise ValueError(f"unknown broadcast kind {kind!r}; choose from {BROADCAST_KINDS}")
