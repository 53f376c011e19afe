"""Message payloads and word-size accounting.

The paper measures communication in *words*: a word holds a constant
number of values or cryptographic objects (Section 1, Section 7).  Every
payload type implements ``word_size``; :func:`words_of` computes the word
size of arbitrary nested protocol values with the accounting rules of
DESIGN.md (scalars, indices, digests, group elements, signatures: one word
each).
"""

from __future__ import annotations

from typing import Any


class Payload:
    """Base class for protocol messages.

    Subclasses are frozen dataclasses.  ``word_size`` defaults to the
    structural size of all fields; override it when a message references
    values by index rather than by value (the Gather optimization).
    """

    def word_size(self) -> int:
        fields = getattr(self, "__dataclass_fields__", None)
        if fields is None:
            raise TypeError(f"{type(self).__name__} must be a dataclass")
        return max(1, sum(words_of(getattr(self, name)) for name in fields))

    def type_name(self) -> str:
        return type(self).__name__


def words_of(value: Any) -> int:
    """Word size of a nested protocol value.

    Containers cost the sum of their items; scalars cost one word; ``None``
    and booleans are flags folded into their message (zero words).
    """
    if value is None or isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return 1
    if isinstance(value, str):
        return 1
    if isinstance(value, bytes):
        # Digests and short byte strings are one word per 32 bytes.
        return max(1, (len(value) + 31) // 32)
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(words_of(item) for item in value)
    if isinstance(value, dict):
        return sum(words_of(k) + words_of(v) for k, v in value.items())
    sizer = getattr(value, "word_size", None)
    if callable(sizer):
        return sizer()
    raise TypeError(f"cannot size value of type {type(value)!r} in words")
