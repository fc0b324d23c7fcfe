"""Counted communication channel between sites and the coordinator.

The channel is the single place where communication cost is accounted, so
every algorithm measured by the experiments pays for its messages the same
way.  Broadcasts are charged once per site, matching the paper's accounting
("k broadcast at n_{j+1}").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.monitoring.messages import BROADCAST_SITE, Message, MessageKind

__all__ = ["ChannelStats", "Channel", "RunningTotals"]


class RunningTotals:
    """Messages and bits charged to a group of counters, kept as they charge.

    A tree's channel view
    (:class:`repro.monitoring.sharding.ShardedChannelView`) joins every
    node's :class:`ChannelStats` to one of these, so reading the tree's
    totals at a record costs O(1), not a walk over every channel.
    """

    __slots__ = ("messages", "bits")

    def __init__(self) -> None:
        self.messages = 0
        self.bits = 0

    def join(self, counters: Iterable["ChannelStats"]) -> None:
        """Feed from exactly ``counters``, restarting at their current sums."""
        self.messages = self.bits = 0
        for stats in counters:
            stats._group = self
            self.messages += stats.messages
            self.bits += stats.bits


@dataclass
class ChannelStats:
    """Cumulative communication counters for one simulation run.

    ``messages``/``bits`` count every charged *transmission attempt* — on a
    lossy transport that includes retransmissions, so the cost of reliability
    is exact rather than estimated.  The reliability counters break the
    attempts down: ``dropped`` attempts never arrived, ``retransmitted``
    attempts were re-sends triggered by a timeout, ``duplicates`` arrived but
    were suppressed by receiver-side dedup.  On the lossless transports all
    three stay zero.
    """

    messages: int = 0
    bits: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bits_by_kind: dict[str, int] = field(default_factory=dict)
    dropped: int = 0
    retransmitted: int = 0
    duplicates: int = 0
    dropped_by_kind: dict[str, int] = field(default_factory=dict)
    retransmitted_by_kind: dict[str, int] = field(default_factory=dict)
    duplicates_by_kind: dict[str, int] = field(default_factory=dict)

    # Running totals of the group of counters this one belongs to (a tree's
    # channels, see :class:`RunningTotals`), bumped by every charge; ``None``
    # outside a tree.  Unannotated, so not a field: copies feed no group.
    _group = None

    def _charge(self, kind_value: str, copies: int, total_bits: int) -> None:
        """Single accounting primitive every charge path funnels through.

        Both :meth:`record` (real messages, synchronous or asynchronous) and
        :meth:`record_bulk` (closed-form simulated messages) delegate here, so
        the counters cannot drift between delivery engines or channel types.
        Per-kind counters are keyed by the kind's string value, which callers
        read as ``kind._value_``: the member's stored value, without the
        Python-level call of the ``value`` property.
        """
        self.messages += copies
        self.bits += total_bits
        by_kind = self.by_kind
        by_kind[kind_value] = by_kind.get(kind_value, 0) + copies
        bits_by_kind = self.bits_by_kind
        bits_by_kind[kind_value] = bits_by_kind.get(kind_value, 0) + total_bits
        group = self._group
        if group is not None:
            group.messages += copies
            group.bits += total_bits

    def record(self, message: Message, copies: int = 1) -> None:
        """Charge ``copies`` transmissions of ``message`` at its built cost."""
        self._charge(message.kind._value_, copies, copies * message.bits())

    def record_bulk(self, kind_value: str, copies: int, total_bits: int) -> None:
        """Charge ``copies`` messages of one kind totalling ``total_bits``.

        Used by the batched fast path to account for messages it has
        simulated in closed form without constructing them one by one.
        """
        self._charge(kind_value, copies, total_bits)

    def record_dropped(self, message: Message, copies: int = 1) -> None:
        """Count ``copies`` transmission attempts of ``message`` that were lost.

        A dropped attempt has already been charged (at send time, like every
        other attempt); this records only that it never arrived.
        """
        kind = message.kind._value_
        self.dropped += copies
        self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + copies

    def record_retransmit(self, message: Message, copies: int = 1) -> None:
        """Count ``copies`` timeout-triggered re-sends of ``message``.

        The re-send itself is charged through the normal accounting funnel;
        this marks how much of the traffic was retransmission overhead.
        """
        kind = message.kind._value_
        self.retransmitted += copies
        self.retransmitted_by_kind[kind] = (
            self.retransmitted_by_kind.get(kind, 0) + copies
        )

    def record_duplicate(self, message: Message, copies: int = 1) -> None:
        """Count ``copies`` arrivals of ``message`` suppressed as duplicates."""
        kind = message.kind._value_
        self.duplicates += copies
        self.duplicates_by_kind[kind] = (
            self.duplicates_by_kind.get(kind, 0) + copies
        )

    def snapshot(self) -> "ChannelStats":
        """Return an independent copy of the current counters."""
        return ChannelStats(
            messages=self.messages,
            bits=self.bits,
            by_kind=dict(self.by_kind),
            bits_by_kind=dict(self.bits_by_kind),
            dropped=self.dropped,
            retransmitted=self.retransmitted,
            duplicates=self.duplicates,
            dropped_by_kind=dict(self.dropped_by_kind),
            retransmitted_by_kind=dict(self.retransmitted_by_kind),
            duplicates_by_kind=dict(self.duplicates_by_kind),
        )

    def __add__(self, other: "ChannelStats") -> "ChannelStats":
        """Combine two counters into a new, independent one.

        This is how per-shard accounting aggregates (the sharded hierarchy
        keeps one :class:`ChannelStats` per shard channel plus one for the
        root channel); summing counters never requires hand-rolled dict math.
        """
        if not isinstance(other, ChannelStats):
            return NotImplemented
        total = self.snapshot()
        total.add(other)
        return total

    def __radd__(self, other: object) -> "ChannelStats":
        """Support ``sum(stats_iterable)`` (and ``sum(..., ChannelStats())``)."""
        if other == 0:
            return self.snapshot()
        if isinstance(other, ChannelStats):
            return other.__add__(self)
        return NotImplemented

    def rate(self, clock: float) -> dict:
        """Throughput of this counter over ``clock`` units of (virtual) time.

        Returns ``{"elapsed", "messages_per_unit", "bits_per_unit"}`` —
        zeros when no time has elapsed, so a zero-length run is reportable.
        Used by both ``result.summary()["rates"]`` and the live service's
        rate gauges, so a Prometheus scrape and a batch summary agree by
        construction.
        """
        elapsed = float(clock)
        if elapsed <= 0.0:
            return {
                "elapsed": 0.0,
                "messages_per_unit": 0.0,
                "bits_per_unit": 0.0,
            }
        return {
            "elapsed": elapsed,
            "messages_per_unit": self.messages / elapsed,
            "bits_per_unit": self.bits / elapsed,
        }

    @classmethod
    def merge(cls, stats: "Iterable[ChannelStats]") -> "ChannelStats":
        """Combine any number of counters into one fresh total.

        ``ChannelStats.merge(network.shard_stats())`` is the canonical way to
        aggregate the per-shard accounting of a
        :class:`repro.monitoring.sharding.ShardedNetwork`.
        """
        total = cls()
        for item in stats:
            total.add(item)
        return total

    def add(self, other: "ChannelStats") -> None:
        """Add ``other``'s counters into this one, in place.

        For building a total: a tree's running totals do not see it.  A
        per-kind key new to this counter goes after the keys it holds, so
        merging in a fixed order fixes the key order of every breakdown.
        """
        self.messages += other.messages
        self.bits += other.bits
        self.dropped += other.dropped
        self.retransmitted += other.retransmitted
        self.duplicates += other.duplicates
        for target, source in (
            (self.by_kind, other.by_kind),
            (self.bits_by_kind, other.bits_by_kind),
            (self.dropped_by_kind, other.dropped_by_kind),
            (self.retransmitted_by_kind, other.retransmitted_by_kind),
            (self.duplicates_by_kind, other.duplicates_by_kind),
        ):
            for kind, count in source.items():
                target[kind] = target.get(kind, 0) + count


class Channel:
    """Delivers messages between the coordinator and ``k`` sites, counting cost.

    The channel is synchronous: :meth:`send` delivers the message to its
    destination handler before returning.  Handlers are registered by the
    :class:`repro.monitoring.network.MonitoringNetwork` when it wires the
    actors together.
    """

    def __init__(self, num_sites: int) -> None:
        if num_sites < 1:
            raise ProtocolError(f"channel needs at least one site, got {num_sites}")
        self._num_sites = num_sites
        self._coordinator_handler: Optional[Callable[[Message], None]] = None
        #: Registered site handlers by site id; a site built on first touch
        #: has no entry until it is built.
        self._site_handlers: Dict[int, Callable[[Message], None]] = {}
        #: Builds and attaches a site that has no handler yet (see
        #: :meth:`build_sites_with`); ``None`` means every site registers up
        #: front and a missing handler is a wiring error.
        self._site_builder: Optional[Callable[[int], object]] = None
        self.stats = ChannelStats()
        self._log: List[Message] = []
        self._record_log = False
        #: Optional observability hook (see
        #: :mod:`repro.observability.instrument`).  Observers are strictly
        #: read-only: with one attached, accounting and delivery behave
        #: bit-for-bit as with ``None``.
        self.observer = None

    @property
    def num_sites(self) -> int:
        """Number of sites attached to this channel."""
        return self._num_sites

    @property
    def is_synchronous(self) -> bool:
        """Whether :meth:`send_to_coordinator`/:meth:`send_to_site` deliver inline.

        Synchronous delivery is what the closed-form batched fast path relies
        on (it reads peer state mid-run); asynchronous subclasses return
        ``False`` so that fast path falls back to per-update delivery.
        """
        return True

    def _account(self, message: Message, copies: int = 1) -> None:
        """Charge (and, when enabled, log) ``copies`` transmissions.

        Single accounting entry point shared by the synchronous send paths
        and any delaying subclass, so cost and transcript semantics cannot
        drift between transports: every transmission is charged at *send*
        time, one log entry per charged copy.
        """
        self.stats.record(message, copies)
        if self.observer is not None:
            self.observer.on_message(message, copies)
        if self._record_log:
            if copies == 1:
                self._log.append(message)
            else:
                self._log.extend([message] * copies)

    def enable_log(self) -> None:
        """Record every delivered message (used by the tracing lower bound)."""
        self._record_log = True

    @property
    def log_enabled(self) -> bool:
        """Whether every delivered message is being recorded in the log."""
        return self._record_log

    @property
    def log(self) -> List[Message]:
        """All messages delivered so far, if logging is enabled.

        The log mirrors the channel's *charged* traffic one entry per
        transmission: a broadcast delivered to ``k`` sites appears ``k``
        times, matching the ``k`` message copies it is charged.
        """
        return list(self._log)

    def register_coordinator(self, handler: Callable[[Message], None]) -> None:
        """Register the coordinator's message handler."""
        self._coordinator_handler = handler

    def register_site(self, site_id: int, handler: Callable[[Message], None]) -> None:
        """Register the handler for one site."""
        if not 0 <= site_id < self._num_sites:
            raise ProtocolError(f"site id {site_id} out of range 0..{self._num_sites - 1}")
        self._site_handlers[site_id] = handler

    def build_sites_with(self, builder: Callable[[int], object]) -> None:
        """Reach sites that are built on first touch.

        ``builder(site_id)`` must build the site and attach it to this
        channel (registering its handler).  A network whose sites are built
        lazily installs its own builder here, so a message addressed to an
        untouched site builds that site instead of failing.
        """
        self._site_builder = builder

    def totals(self) -> Tuple[int, int]:
        """``(messages, bits)`` charged so far, without copying the counters."""
        return self.stats.messages, self.stats.bits

    def send_to_coordinator(self, message: Message) -> None:
        """Deliver a site-to-coordinator message and charge its cost."""
        if self._coordinator_handler is None:
            raise ProtocolError("no coordinator registered on this channel")
        self._account(message)
        self._coordinator_handler(message)

    def charge(self, kind: MessageKind, copies: int, total_bits: int) -> None:
        """Charge ``copies`` already-simulated messages without delivering them.

        The batched fast path uses this for messages whose receiver-side
        effect it has already established in closed form (bulk count-report
        absorption, simulated block closes) or that a later real message
        subsumes (superseded estimation reports).  Cost accounting is
        identical to sending each message individually; only the Python-level
        construction and dispatch are elided.  Refuses to run while the
        message log is enabled, because charged messages would never appear
        in the log — callers must fall back to per-update delivery when
        tracing.
        """
        if self._record_log:
            raise ProtocolError(
                "charge-only accounting would desynchronise the message log; "
                "use per-update delivery while logging is enabled"
            )
        if copies < 0 or total_bits < 0:
            raise ProtocolError(
                f"cannot charge {copies} messages / {total_bits} bits"
            )
        kind_value = kind._value_
        self.stats.record_bulk(kind_value, copies, total_bits)
        if self.observer is not None:
            self.observer.on_bulk(kind_value, copies, total_bits)

    def adopt_accounting(self, other: "Channel") -> None:
        """Continue ``other``'s cumulative accounting on this channel.

        Used by the live-migration state handoff
        (:func:`repro.monitoring.tree.migrate_site`): when a shard's network
        is rebuilt around a new membership, the fresh channel takes over the
        old channel's :class:`ChannelStats` *object* (not a copy), so the
        run's cumulative counters keep growing monotonically across the
        handoff instead of resetting to zero.
        """
        self.stats = other.stats
        self._log = other._log
        self._record_log = other._record_log
        self.observer = other.observer

    def send_to_site(self, message: Message) -> None:
        """Deliver a coordinator-to-site message (or broadcast) and charge its cost.

        A broadcast (``receiver == BROADCAST_SITE``) is delivered to every
        site and charged ``k`` message transmissions, matching the paper.
        """
        if message.receiver == BROADCAST_SITE:
            self._account(message, copies=self._num_sites)
            for site_id in range(self._num_sites):
                self._site_handler(site_id)(message)
            return
        handler = self._site_handler(message.receiver)
        self._account(message)
        handler(message)

    def multicast(self, message: Message, receivers: Sequence[int]) -> None:
        """Deliver one coordinator message to a subset of sites.

        Shard-aware middle ground between unicast and broadcast: the message
        is charged once per listed receiver (exactly as a broadcast charges
        once per site) and delivered to exactly those sites.  The root
        aggregator of the sharded hierarchy uses this to re-send level
        changes only to the shards whose recorded level is stale.
        """
        if not receivers:
            raise ProtocolError("multicast needs at least one receiver")
        if len(set(receivers)) != len(receivers):
            raise ProtocolError(f"multicast receivers must be distinct, got {list(receivers)}")
        handlers = [self._site_handler(site_id) for site_id in receivers]
        self._account(message, copies=len(receivers))
        for handler in handlers:
            handler(message)

    def _site_handler(self, site_id: int) -> Callable[[Message], None]:
        """Return the registered handler for one site, validating the id."""
        if not 0 <= site_id < self._num_sites:
            raise ProtocolError(
                f"receiver {site_id} out of range 0..{self._num_sites - 1}"
            )
        handler = self._site_handlers.get(site_id)
        if handler is None and self._site_builder is not None:
            self._site_builder(site_id)
            handler = self._site_handlers.get(site_id)
        if handler is None:
            raise ProtocolError(f"site {site_id} has no registered handler")
        return handler
