"""Latency-aware asynchronous channel with in-flight messages.

:class:`AsyncChannel` conforms to the :class:`repro.monitoring.channel.Channel`
counting contract — every transmission is charged (messages, bits, per-kind
breakdown, optional transcript log) at *send* time, exactly like the
synchronous channel — but delivery happens later: each message is held in
flight and handed to its destination handler at a scheduled virtual time,
``send instant + sampled latency``.  The channel owns the virtual clock; the
runner (:func:`repro.monitoring.runner.run_tracking`) advances it as stream
updates arrive and drains the queue after the last one.  In-flight messages
wait in an :class:`~repro.asynchrony.events.EventScheduler` heap of
``(due, seq, payload)`` named tuples; a clock step with nothing due only
raises the clock, so an idle channel costs one comparison per step.

Ordering semantics are explicit:

* ``preserve_order=True`` (default) keeps each directed link (one site to the
  coordinator, or the coordinator to one site) FIFO, like a TCP connection:
  a message never overtakes an earlier one on the same link, even when the
  latency model hands it a smaller delay.
* ``preserve_order=False`` allows reordering within a link (UDP-like); the
  channel counts how many deliveries arrived out of send order so experiments
  can correlate reordering with estimate error.

A sampled delay of exactly zero is delivered *inline*, synchronously, through
the same code path as the synchronous channel (provided the link has nothing
in flight that FIFO would force it behind).  Under ``ConstantLatency(0)``
every message takes this path, which is why the zero-latency asynchronous
engine is bit-for-bit identical to the synchronous one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.asynchrony.events import EventScheduler
from repro.asynchrony.latency import ZERO_LATENCY, LatencyModel
from repro.exceptions import ProtocolError
from repro.monitoring.channel import Channel
from repro.monitoring.messages import BROADCAST_SITE, COORDINATOR, Message

__all__ = ["InFlightMessage", "AsyncChannel"]

#: A directed link: ("up", site_id) for site-to-coordinator traffic and
#: ("down", site_id) for coordinator-to-site traffic (broadcast copies use the
#: receiving site's down link, one in-flight copy per site).
Link = Tuple[str, int]


class InFlightMessage:
    """One transmission travelling through the asynchronous channel.

    Attributes:
        message: The message being delivered (already charged at send time).
        handler: Destination handler to invoke at delivery.
        link: Directed link the transmission travels on.
        link_order: Send index on that link (0-based), used to detect
            reordered deliveries.
        sent_at: Virtual time at which the transmission was sent.
    """

    __slots__ = ("message", "handler", "link", "link_order", "sent_at")

    def __init__(
        self,
        message: Message,
        handler: Callable[[Message], None],
        link: Link,
        link_order: int,
        sent_at: float,
    ) -> None:
        self.message = message
        self.handler = handler
        self.link = link
        self.link_order = link_order
        self.sent_at = sent_at


class AsyncChannel(Channel):
    """A counted channel whose deliveries take (virtual) time.

    Cost accounting is identical to the synchronous :class:`Channel` — the
    shared ``_account`` helper charges every transmission at send time — so
    experiments compare communication bounds across transports without
    recalibration.  What changes is *when* handlers run: messages wait in a
    deterministic heap-based event queue and are delivered by
    :meth:`advance_to` / :meth:`drain` in ``(due time, send order)`` order.

    Staleness instrumentation is collected as messages flow: the age of every
    delivery (virtual time spent in flight), the in-flight high-water mark,
    and the number of deliveries that arrived out of send order on their
    link.  :func:`repro.analysis.staleness.summarize_staleness` aggregates
    these into a report.
    """

    def __init__(
        self,
        num_sites: int,
        latency: LatencyModel = ZERO_LATENCY,
        seed: Optional[int] = 0,
        preserve_order: bool = True,
    ) -> None:
        super().__init__(num_sites)
        self._latency = latency
        self._rng = np.random.default_rng(seed)
        self._preserve_order = preserve_order
        self._scheduler = EventScheduler()
        self._clock = 0.0
        # Per-link bookkeeping: queued-but-undelivered count (FIFO inline
        # guard), latest scheduled due time (FIFO delivery floor), send and
        # delivery counters (reordering detection).
        self._link_pending: Dict[Link, int] = {}
        self._link_front: Dict[Link, float] = {}
        self._link_sent: Dict[Link, int] = {}
        self._link_delivered_high: Dict[Link, int] = {}
        #: Virtual-time age of every delivery so far, in send order of
        #: delivery (inline deliveries contribute 0.0).
        self.delivery_ages: List[float] = []
        #: Largest number of messages simultaneously in flight.
        self.inflight_highwater = 0
        #: Deliveries that arrived out of send order on their link.
        self.reordered_deliveries = 0

    # -- clock & queue introspection ----------------------------------------

    @property
    def is_synchronous(self) -> bool:
        """Asynchronous delivery: inline closed-form closes must not be used."""
        return False

    @property
    def supports_span_events(self) -> bool:
        """Whether the span kernel may bulk-schedule a span's count reports.

        ``True``: the kernel's batched fast path may run over this channel,
        charging a trigger-free span's count reports in one bulk call and
        putting a single prepaid aggregate in flight per span
        (:meth:`send_prepaid_to_coordinator`) — one event per span, not one
        per message.  Simulated block closes stay disabled
        (``is_synchronous`` is ``False``), so close steps travel as real
        per-message traffic and the protocol's request/reply/broadcast
        exchanges keep their exact latency behaviour.
        """
        return True

    @property
    def now(self) -> float:
        """Current virtual time (monotone; advanced by the runner)."""
        return self._clock

    @property
    def in_flight(self) -> int:
        """Number of messages currently travelling through the channel."""
        return len(self._scheduler)

    @property
    def delivered_count(self) -> int:
        """Total deliveries so far (inline and queued)."""
        return len(self.delivery_ages)

    def adopt_accounting(self, other) -> None:
        """Continue ``other``'s counters, clock and staleness lists here.

        Extends :meth:`repro.monitoring.channel.Channel.adopt_accounting`
        with the asynchronous signals: the virtual clock keeps its value
        across a migration handoff (time never rewinds) and the staleness
        aggregates stay cumulative.  The old channel must be quiescent —
        the handoff protocol drains the hierarchy first.
        """
        super().adopt_accounting(other)
        if isinstance(other, AsyncChannel):
            if other.in_flight:
                raise ProtocolError(
                    f"cannot adopt a channel with {other.in_flight} messages "
                    "still in flight; drain the hierarchy before the handoff"
                )
            self._clock = max(self._clock, other._clock)
            self.delivery_ages = other.delivery_ages
            self.inflight_highwater = other.inflight_highwater
            self.reordered_deliveries = other.reordered_deliveries

    # -- send paths (Channel contract) ---------------------------------------

    def send_to_coordinator(self, message: Message) -> None:
        """Charge a site-to-coordinator message and put it in flight."""
        if self._coordinator_handler is None:
            raise ProtocolError("no coordinator registered on this channel")
        self._account(message)
        delay = self._latency.sample(self._rng, message.sender, COORDINATOR)
        self._transmit(
            message, self._coordinator_handler, ("up", message.sender), delay
        )

    def send_to_site(self, message: Message) -> None:
        """Charge a coordinator-to-site message (or broadcast) and put it in flight.

        A broadcast is charged ``k`` transmissions, exactly like the
        synchronous channel, and each copy samples its *own* latency: under
        jitter, different sites learn new protocol parameters at different
        virtual times.
        """
        if message.receiver == BROADCAST_SITE:
            handlers = [
                self._site_handler(site_id) for site_id in range(self._num_sites)
            ]
            self._account(message, copies=self._num_sites)
            for site_id, handler in enumerate(handlers):
                delay = self._latency.sample(self._rng, COORDINATOR, site_id)
                self._transmit(message, handler, ("down", site_id), delay)
            return
        handler = self._site_handler(message.receiver)
        self._account(message)
        delay = self._latency.sample(self._rng, COORDINATOR, message.receiver)
        self._transmit(message, handler, ("down", message.receiver), delay)

    def send_prepaid_to_coordinator(self, message: Message) -> None:
        """Put an already-charged span aggregate in flight as one event.

        The span kernel charges a trigger-free span's count reports in bulk
        (identical message and bit accounting to sending each individually)
        and then coalesces their coordinator-side effect into one aggregate
        ``REPORT`` whose payload carries the span's *total* count.  This
        method schedules that aggregate without charging it again: one
        in-flight event per span, which is what lets virtual-time latency
        sweeps scale to 10^7-update streams.  Delivery runs through the
        ordinary receive path, so an aggregate that crosses the block
        trigger when it lands (reports from other sites may have arrived
        first) still closes the block correctly.

        With zero latency the aggregate is delivered inline, reproducing the
        synchronous kernel's ``absorb_count_reports`` exactly; with real
        latency the span's reports share one sampled delay, trading
        per-message timing granularity for event-queue volume — the
        transport-level batching any real uplink performs.
        """
        if self._coordinator_handler is None:
            raise ProtocolError("no coordinator registered on this channel")
        delay = self._latency.sample(self._rng, message.sender, COORDINATOR)
        self._transmit(
            message, self._coordinator_handler, ("up", message.sender), delay
        )

    def multicast(self, message: Message, receivers) -> None:
        """Charge one copy per receiver and put each copy in flight.

        Same accounting as the synchronous channel's multicast; like a
        broadcast, every copy samples its *own* latency, so different shards
        learn a new global level at different virtual times.
        """
        if not receivers:
            raise ProtocolError("multicast needs at least one receiver")
        if len(set(receivers)) != len(receivers):
            raise ProtocolError(
                f"multicast receivers must be distinct, got {list(receivers)}"
            )
        handlers = [self._site_handler(site_id) for site_id in receivers]
        self._account(message, copies=len(receivers))
        for site_id, handler in zip(receivers, handlers):
            delay = self._latency.sample(self._rng, COORDINATOR, site_id)
            self._transmit(message, handler, ("down", site_id), delay)

    # -- scheduling and delivery ---------------------------------------------

    def _transmit(
        self,
        message: Message,
        handler: Callable[[Message], None],
        link: Link,
        delay: float,
    ) -> None:
        """Deliver inline (zero effective delay) or schedule for later."""
        delay = max(0.0, float(delay))
        order = self._link_sent.get(link, 0)
        self._link_sent[link] = order + 1
        item = InFlightMessage(message, handler, link, order, self._clock)
        fifo_clear = not self._preserve_order or self._link_pending.get(link, 0) == 0
        if delay == 0.0 and fifo_clear:
            # Synchronous degenerate case: same reentrant delivery as the
            # synchronous channel, so zero latency is provably equivalent.
            self._deliver(item, self._clock)
            return
        due = self._clock + delay
        if self._preserve_order:
            due = max(due, self._link_front.get(link, 0.0))
            self._link_front[link] = due
        self._link_pending[link] = self._link_pending.get(link, 0) + 1
        self._scheduler.push(due, item)
        self.inflight_highwater = max(self.inflight_highwater, len(self._scheduler))

    def _deliver(self, item: InFlightMessage, at: float) -> None:
        """Hand one in-flight message to its handler at virtual time ``at``."""
        self._clock = at
        self.delivery_ages.append(at - item.sent_at)
        if self.observer is not None:
            self.observer.on_delivery(item.message, at - item.sent_at)
        high = self._link_delivered_high.get(item.link, -1)
        if item.link_order < high:
            self.reordered_deliveries += 1
        else:
            self._link_delivered_high[item.link] = item.link_order
        item.handler(item.message)

    def _handle(self, event) -> None:
        """Deliver one due event's message (the delivery loops' one hook)."""
        item = event.payload
        self._link_pending[item.link] -= 1
        self._deliver(item, event.due)

    def advance_to(self, until: float) -> None:
        """Advance the virtual clock to ``until``, delivering everything due.

        Deliveries happen in ``(due time, send order)`` order; a delivery
        that sends further messages (a reply, a broadcast) may have them
        delivered in the same sweep when their due times also fall inside
        the window.  The clock never moves backwards: a stale ``until`` just
        delivers nothing.  With nothing due by ``until`` (an idle tree row
        at most clock steps) the call only raises the clock.
        """
        until = float(until)
        due = self._scheduler.next_due
        if due is not None and due <= until:
            for event in self._scheduler.pop_due(until):
                self._handle(event)
        if until > self._clock:
            self._clock = until

    def drain(self) -> float:
        """Deliver every remaining in-flight message; return the final clock.

        Used at end of stream so the coordinator settles on its final
        estimate once the last in-flight message lands.
        """
        for event in self._scheduler.pop_all():
            self._handle(event)
        return self._clock
