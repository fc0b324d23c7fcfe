"""Message types exchanged between sites and the coordinator.

The paper measures communication in messages of ``O(log n)`` bits.  To let
experiments check bounds in either unit we model each message explicitly and
charge it a bit cost derived from its integer payload (plus a small constant
header for the message kind and the site identifier).

A :class:`Message` is an immutable record that computes that cost once, when
it is built, so a channel charges a message (or ``k`` broadcast copies of
it) by reading one stored integer.  Its payload is read at that moment: the
protocols fill a payload dict before they build the message and never after.
"""

from __future__ import annotations

import enum
import numbers
from collections import namedtuple
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "MessageKind",
    "Message",
    "BROADCAST_SITE",
    "COORDINATOR",
    "HEADER_BITS",
    "integer_bit_length",
    "integer_bit_lengths",
    "message_bits",
]

# Sentinel destination meaning "all sites" for coordinator broadcasts.
BROADCAST_SITE = -1

# Sentinel address of the coordinator, used as sender/receiver of site traffic.
COORDINATOR = -2

# Fixed header cost (message kind + addressing), in bits.
HEADER_BITS = 16


class MessageKind(enum.Enum):
    """The role a message plays in the tracking protocols."""

    #: A site reports new local state (drift, counter value, ...).
    REPORT = "report"
    #: The coordinator asks a site for its exact local state.
    REQUEST = "request"
    #: A site answers a coordinator request.
    REPLY = "reply"
    #: The coordinator broadcasts new global parameters (e.g. the block level r).
    BROADCAST = "broadcast"


#: The five fields, for their C-level tuple accessors (see :class:`Message`).
_Fields = namedtuple("_Fields", ["kind", "sender", "receiver", "payload", "time"])

_new_tuple = tuple.__new__


class Message(tuple):
    """One message on a channel between a site and the coordinator.

    An immutable record, ``Message(kind, sender, receiver, payload={},
    time=0)`` built positionally or by keyword, with read-only fields,
    field-wise equality and a dataclass-style ``repr``.  It is a tuple
    underneath: the five fields, then the bit cost computed at
    construction, which :meth:`bits` returns without reading the payload
    again.

    Attributes:
        kind: The protocol role of the message.
        sender: Site id of the sender, or ``COORDINATOR`` if sent by the
            coordinator.
        receiver: Site id of the receiver, ``COORDINATOR``, or
            ``BROADCAST_SITE`` for a coordinator broadcast to every site.
        payload: Named integer (or float) fields carried by the message.
        time: The stream timestep at which the message was sent.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: MessageKind,
        sender: int,
        receiver: int,
        payload: Optional[Mapping[str, float]] = None,
        time: int = 0,
    ) -> "Message":
        if payload is None:
            payload = {}
        bits = HEADER_BITS
        for value in payload.values():
            if type(value) is int:  # the common case, inlined
                bits += 1 + (value.bit_length() or 1)
            else:
                bits += integer_bit_length(value)
        return _new_tuple(cls, (kind, sender, receiver, payload, time, bits))

    kind = _Fields.kind
    sender = _Fields.sender
    receiver = _Fields.receiver
    payload = _Fields.payload
    time = _Fields.time

    def bits(self) -> int:
        """Return the bit cost charged for this message."""
        return self[5]

    # Equality, hashing and pickling use the five fields only: the cost is
    # derived from them (payloads ``{"x": 1}`` and ``{"x": 1.0}`` compare
    # equal although they cost differently).
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self[:5] != other[:5]

    def __hash__(self) -> int:
        return hash(self[:5])

    def __getnewargs__(self) -> tuple:
        return self[:5]

    def __repr__(self) -> str:
        kind, sender, receiver, payload, time = self[:5]
        return (
            f"{type(self).__qualname__}(kind={kind!r}, sender={sender!r}, "
            f"receiver={receiver!r}, payload={payload!r}, time={time!r})"
        )


def integer_bit_length(value: float) -> int:
    """Bits needed to encode one payload value (sign + magnitude).

    Floats (used by randomized estimators for ``1/p`` corrections) are charged
    as 32-bit quantities, matching the word-size accounting of the paper.
    """
    if type(value) is int:  # fast path for the overwhelmingly common case
        return 1 + (value.bit_length() or 1)
    if type(value) is not float and isinstance(value, numbers.Integral):
        return 1 + (int(value).bit_length() or 1)
    return 32


def integer_bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`integer_bit_length` for arrays of integers.

    Exact for ``|value| < 2**53``: ``np.frexp`` returns the binary exponent,
    which for a positive integer equals its bit length (and 0 for 0, which the
    ``max(1, .)`` clamp maps to the same 1-bit charge as the scalar version).
    Payload magnitudes in this codebase are bounded by stream length, far
    below the 2**53 float-precision limit.
    """
    exponents = np.frexp(np.abs(values).astype(np.float64))[1]
    return 1 + np.maximum(exponents, 1)


def message_bits(message: Message) -> int:
    """Total bit cost of a message: header plus payload encoding.

    ``HEADER_BITS`` plus :func:`integer_bit_length` of every payload value,
    as computed when the message was built (:meth:`Message.bits`).
    """
    return message.bits()
