"""Deterministic discrete-event scheduler for the asynchronous transport.

The scheduler is a heap-based event queue over *virtual time*.  Determinism
is the design constraint: given the same pushes, :meth:`EventScheduler.pop_due`
always yields the same events in the same order, because ties in due time are
broken by a monotonically increasing sequence number (insertion order) rather
than by object identity.  All randomness in the asynchronous subsystem lives
in the seeded latency models (:mod:`repro.asynchrony.latency`); the queue
itself is a pure data structure, so a fixed seed reproduces a run exactly.
An event is a :class:`~typing.NamedTuple` ``(due, seq, payload)`` ordered
by the C tuple comparison; ``seq`` is unique, so payloads are never compared.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, NamedTuple, Optional

from repro.exceptions import ProtocolError

__all__ = ["ScheduledEvent", "EventScheduler"]


class ScheduledEvent(NamedTuple):
    """One event in the virtual-time queue.

    Ordering is ``(due, seq)``: earlier virtual time first, insertion order
    among ties.  The payload is never compared.

    Attributes:
        due: Virtual time at which the event becomes deliverable.
        seq: Global insertion index, the deterministic tie-breaker.
        payload: Arbitrary event data (the async channel stores in-flight
            messages here).
    """

    due: float
    seq: int
    payload: Any


class EventScheduler:
    """Heap-ordered event queue over virtual time.

    Events pushed at or before the current frontier are delivered in
    ``(due, seq)`` order by :meth:`pop_due`, which supports reentrant pushes:
    handling one event may schedule further events, and any that fall inside
    the window being drained are delivered in the same sweep.
    """

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_due(self) -> Optional[float]:
        """Due time of the earliest pending event, or ``None`` if empty."""
        return self._heap[0].due if self._heap else None

    def push(self, due: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` at virtual time ``due`` and return the event."""
        if due < 0:
            raise ProtocolError(f"event due time must be >= 0, got {due}")
        event = ScheduledEvent(float(due), self._seq, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop_due(self, until: float) -> Iterator[ScheduledEvent]:
        """Yield every event with ``due <= until``, in ``(due, seq)`` order.

        The iterator is lazy and re-examines the heap after every yield, so
        events pushed while one is being handled are included when they fall
        inside the window.  Consuming the iterator fully drains the window.
        """
        while self._heap and self._heap[0].due <= until:
            yield heapq.heappop(self._heap)

    def pop_all(self) -> Iterator[ScheduledEvent]:
        """Yield every remaining event in ``(due, seq)`` order."""
        while self._heap:
            yield heapq.heappop(self._heap)
