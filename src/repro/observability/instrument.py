"""Wire a metrics registry and trace log into a running monitoring network.

The protocol objects carry *hooks*, not metrics: :class:`Channel` calls
``observer.on_message`` / ``on_bulk`` when it charges traffic,
:class:`AsyncChannel` calls ``observer.on_delivery`` when an in-flight
message lands, and :class:`BlockTrackingCoordinator` brackets a block-close
round with ``observer.on_close_begin`` / ``on_close_end``.  All hooks sit
behind a single ``if observer is not None`` check, so an uninstrumented
network pays one attribute test per event and its behaviour is bit-for-bit
unchanged (property-tested in ``tests/test_observability_equivalence.py``).

Metrics themselves are even cheaper than the hooks: the channels already
maintain exact cumulative accounting (:class:`ChannelStats` message/bit
counters by kind, the async transport's ``delivery_ages``), so every
traffic series is **derived at scrape time** by a registry *collector*
that re-reads channel and coordinator state — attaching a registry adds
*zero* per-message work.  Channel observers are installed only when a
:class:`TraceLog` is attached, because structured per-event tracing is the
one thing that cannot be reconstructed after the fact.  This also keeps
numbers the span kernel computes in closed form (simulated block closes
never pass through ``_close_block``) truthful: ``repro_blocks_completed``
reads coordinator state, while the hook-driven
``repro_block_closes_total`` counts real close rounds only.

This module supplies the observers and the collector.
:func:`instrument_network` walks any topology — a flat
:class:`MonitoringNetwork`, or the rows of a tree's one
:class:`ShardedNetwork` — labelling series with the same root-first level
index ``result.summary()["levels"]`` uses.

A live migration rebuilds the two affected leaf networks; the fresh
channels adopt the old ones' accounting *and observer*, while the fresh
coordinators start blank — :meth:`NetworkInstrumentation.on_migration`
therefore re-walks the tree after every handoff.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import level_message_shares, shard_imbalance
from repro.analysis.staleness import summarize_staleness
from repro.core.template import BlockTrackingCoordinator
from repro.monitoring.channel import ChannelStats
from repro.monitoring.sharding import ShardedNetwork
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracelog import TraceLog

__all__ = ["NetworkInstrumentation", "instrument_network"]

#: Histogram buckets for virtual-time delivery ages: sub-unit (inline and
#: near-inline deliveries) through heavy-tail stragglers.
AGE_BUCKETS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _walk(network) -> List[Tuple[object, object, int]]:
    """``(channel, coordinator, level)`` for every node, root first.

    Levels are root-first, matching
    :meth:`repro.monitoring.sharding.ShardedNetwork.level_summary`; a tree's
    rows come in table (pre-order) order, and a flat network is one node at
    level 0.
    """
    if isinstance(network, ShardedNetwork):
        return [
            (row.network.channel, row.coordinator, row.level) for row in network.nodes
        ]
    return [(network.channel, network.coordinator, 0)]


class _ChannelObserver:
    """Per-level channel hook target: emits structured trace events.

    Counting happens at scrape time from the channel's own accounting, so
    this observer exists purely for the trace log and is only installed
    when one is attached.
    """

    __slots__ = ("_level", "_trace")

    def __init__(self, instrumentation: "NetworkInstrumentation", level: int):
        self._level = level
        self._trace = instrumentation.trace

    def on_message(self, message, copies: int) -> None:
        """One real send of ``copies`` transmissions was charged."""
        self._trace.emit(
            "send",
            time=message.time,
            kind=message.kind.value,
            level=self._level,
            sender=message.sender,
            receiver=message.receiver,
            copies=copies,
        )

    def on_bulk(self, kind_value: str, copies: int, total_bits: int) -> None:
        """A closed-form bulk charge (simulated messages) was accounted."""
        if copies:
            self._trace.emit(
                "bulk_charge",
                kind=kind_value,
                level=self._level,
                copies=copies,
                bits=total_bits,
            )

    def on_delivery(self, message, age: float) -> None:
        """An in-flight message landed after ``age`` units of virtual time."""
        self._trace.emit(
            "deliver",
            time=message.time,
            kind=message.kind.value,
            level=self._level,
            sender=message.sender,
            receiver=message.receiver,
            age=age,
        )


class _CoordinatorObserver:
    """Per-level coordinator hook target: block-close counters and spans."""

    __slots__ = ("_level", "_trace", "_closes", "_spans")

    def __init__(self, instrumentation: "NetworkInstrumentation", level: int):
        self._level = str(level)
        self._trace = instrumentation.trace
        self._closes = instrumentation.block_closes_total.labels(
            level=self._level
        )
        # Open spans keyed by coordinator identity: under the asynchronous
        # transport several shard coordinators on one level can have closes
        # in flight at once.
        self._spans: Dict[int, object] = {}

    def on_close_begin(self, coordinator, time) -> None:
        """A coordinator started collecting (c_i, f_i) replies."""
        if self._trace is not None:
            self._spans[id(coordinator)] = self._trace.begin_span(
                "block_close",
                float(time),
                level=int(self._level),
                from_block_level=coordinator.level,
            )

    def on_close_end(self, coordinator, time) -> None:
        """The k-th reply arrived; the new level was broadcast."""
        self._closes.inc()
        if self._trace is not None:
            span = self._spans.pop(id(coordinator), None)
            if span is not None:
                span.end(
                    float(time),
                    new_block_level=coordinator.level,
                    blocks_completed=coordinator.blocks_completed,
                )


def _refill_histogram(child, values) -> None:
    """Overwrite a histogram child with a fresh set of observations.

    The collector rebuilds delivery-age histograms from the channels'
    complete ``delivery_ages`` records on every scrape; scrapes are rare
    (seconds apart) while deliveries are hot, so recomputing here is the
    cheap side of the trade.
    """
    buckets = child.buckets
    counts = [0] * len(buckets)
    total = 0.0
    for value in values:
        value = float(value)
        total += value
        index = bisect_left(buckets, value)
        if index < len(buckets):
            counts[index] += 1
    child.counts = counts
    child.sum = total
    child.count = len(values)


class NetworkInstrumentation:
    """Metrics + tracing attached to one monitoring network.

    Construct (or let :func:`instrument_network` construct) with an optional
    shared :class:`MetricsRegistry` and optional :class:`TraceLog`, then
    :meth:`attach` a network.  Detaching is never needed: throwing the
    instrumentation away and leaving ``observer`` slots populated only costs
    the dead hook calls, and a fresh network starts with ``observer=None``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        reg = self.registry
        self.messages_total = reg.counter(
            "repro_messages_total",
            "Charged message transmissions by kind and hierarchy level.",
            labels=("kind", "level"),
        )
        self.bits_total = reg.counter(
            "repro_bits_total",
            "Charged communication bits by kind and hierarchy level.",
            labels=("kind", "level"),
        )
        self.deliveries_total = reg.counter(
            "repro_deliveries_total",
            "Asynchronous in-flight deliveries by hierarchy level.",
            labels=("level",),
        )
        self.delivery_age = reg.histogram(
            "repro_delivery_age",
            "Virtual time spent in flight per delivery.",
            labels=("level",),
            buckets=AGE_BUCKETS,
        )
        self.dropped_total = reg.counter(
            "repro_dropped_total",
            "Message transmissions lost by the faulty transport, by kind "
            "and hierarchy level.",
            labels=("kind", "level"),
        )
        self.retransmissions_total = reg.counter(
            "repro_retransmissions_total",
            "Timeout-driven retransmissions by kind and hierarchy level.",
            labels=("kind", "level"),
        )
        self.duplicates_total = reg.counter(
            "repro_duplicates_total",
            "Deliveries suppressed as duplicates (a retransmitted copy "
            "raced a slow original), by kind and hierarchy level.",
            labels=("kind", "level"),
        )
        self.block_closes_total = reg.counter(
            "repro_block_closes_total",
            "Completed block-close rounds by hierarchy level "
            "(real close rounds only; simulated closes appear in "
            "repro_blocks_completed).",
            labels=("level",),
        )
        self.block_level = reg.gauge(
            "repro_block_level",
            "Largest block level r across the level's coordinators.",
            labels=("level",),
        )
        self.blocks_completed = reg.gauge(
            "repro_blocks_completed",
            "Completed blocks per hierarchy level, read from coordinator "
            "state (includes closes the span kernel simulated in closed "
            "form).",
            labels=("level",),
        )
        self.migrations_total = reg.counter(
            "repro_migrations_total",
            "Live site migrations completed.",
        )
        self.in_flight = reg.gauge(
            "repro_in_flight",
            "Messages currently travelling on any channel.",
        )
        self._network = None
        self._channel_observers: Dict[int, _ChannelObserver] = {}
        self._coordinator_observers: Dict[int, _CoordinatorObserver] = {}
        self._collector_added = False

    def _channel_observer(self, level: int) -> _ChannelObserver:
        observer = self._channel_observers.get(level)
        if observer is None:
            observer = _ChannelObserver(self, level)
            self._channel_observers[level] = observer
        return observer

    def _coordinator_observer(self, level: int) -> _CoordinatorObserver:
        observer = self._coordinator_observers.get(level)
        if observer is None:
            observer = _CoordinatorObserver(self, level)
            self._coordinator_observers[level] = observer
        return observer

    def attach(self, network) -> "NetworkInstrumentation":
        """Hook every coordinator (and, when tracing, channel) in ``network``.

        Channel observers exist only to feed the trace log — all traffic
        metrics are derived from the channels' own accounting at scrape
        time — so without a trace the channels keep ``observer=None`` and
        the hot path is untouched.  Idempotent: re-attaching (after a
        migration rebuilt leaves, say) re-walks the topology and re-points
        the ``observer`` slots at the same shared per-level observers.
        """
        self._network = network
        for channel, coordinator, level in _walk(network):
            if self.trace is not None:
                channel.observer = self._channel_observer(level)
            if isinstance(coordinator, BlockTrackingCoordinator):
                coordinator.observer = self._coordinator_observer(level)
        # The tree notifies us after a live migration so the rebuilt leaf
        # coordinators get re-hooked.
        network.observer = self
        if not self._collector_added:
            self.registry.add_collector(self._collect)
            self._collector_added = True
        return self

    def on_migration(self, network, report) -> None:
        """Called by :func:`repro.monitoring.tree.migrate_site` after a handoff."""
        self.migrations_total.inc()
        if self.trace is not None:
            self.trace.emit(
                "migration",
                time=float(report.time),
                site_id=report.site_id,
                source_leaf=report.source_leaf,
                dest_leaf=report.dest_leaf,
                handoff_messages=report.handoff_messages,
                handoff_bits=report.handoff_bits,
            )
        self.attach(network)

    # -- derived series, refreshed at scrape time ----------------------------

    def _collect(self) -> None:
        network = self._network
        if network is None:
            return
        level_stats: Dict[int, ChannelStats] = {}
        level_ages: Dict[int, list] = {}
        blocks_by_level: Dict[int, int] = {}
        level_of_r: Dict[int, int] = {}
        for channel, coordinator, level in _walk(network):
            stats = level_stats.get(level)
            if stats is None:
                level_stats[level] = channel.stats.snapshot()
            else:
                level_stats[level] = stats + channel.stats
            ages = getattr(channel, "delivery_ages", None)
            if ages is not None:
                level_ages.setdefault(level, []).extend(ages)
            if isinstance(coordinator, BlockTrackingCoordinator):
                blocks_by_level[level] = (
                    blocks_by_level.get(level, 0) + coordinator.blocks_completed
                )
                level_of_r[level] = max(
                    level_of_r.get(level, 0), coordinator.level
                )
        for level, stats in level_stats.items():
            label = str(level)
            for kind, count in stats.by_kind.items():
                # Counters are hook-free: overwrite the child with the
                # channel's own monotone total.
                self.messages_total.labels(kind=kind, level=label).value = (
                    float(count)
                )
                self.bits_total.labels(kind=kind, level=label).value = float(
                    stats.bits_by_kind.get(kind, 0)
                )
            # Reliability counters only materialise for (kind, level) pairs
            # the faulty transport actually touched, so a lossless run's
            # scrape output is unchanged.
            for counter, per_kind in (
                (self.dropped_total, stats.dropped_by_kind),
                (self.retransmissions_total, stats.retransmitted_by_kind),
                (self.duplicates_total, stats.duplicates_by_kind),
            ):
                for kind, count in per_kind.items():
                    counter.labels(kind=kind, level=label).value = float(count)
        for level, ages in level_ages.items():
            label = str(level)
            self.deliveries_total.labels(level=label).value = float(len(ages))
            _refill_histogram(self.delivery_age.labels(level=label), ages)
        for level, blocks in blocks_by_level.items():
            self.blocks_completed.labels(level=str(level)).set(blocks)
        for level, r in level_of_r.items():
            self.block_level.labels(level=str(level)).set(r)
        channel = network.channel
        self.in_flight.set(getattr(channel, "in_flight", 0))
        if hasattr(channel, "delivery_ages"):
            staleness = summarize_staleness(channel)
            reg = self.registry
            reg.gauge(
                "repro_staleness_mean_age",
                "Mean virtual-time age of deliveries so far.",
            ).set(staleness.mean_age)
            reg.gauge(
                "repro_staleness_max_age",
                "Largest virtual-time age of any delivery so far.",
            ).set(staleness.max_age)
            reg.gauge(
                "repro_staleness_p95_age",
                "95th-percentile virtual-time delivery age.",
            ).set(staleness.p95_age)
            reg.gauge(
                "repro_inflight_highwater",
                "Largest number of messages simultaneously in flight.",
            ).set(staleness.inflight_highwater)
            reg.gauge(
                "repro_reordered_deliveries",
                "Deliveries that arrived out of send order on their link.",
            ).set(staleness.reordered)
        level_summary = getattr(network, "level_summary", None)
        if level_summary is not None:
            self.registry.gauge(
                "repro_shard_imbalance",
                "Hottest shard's message count over the mean "
                "(1.0 = balanced).",
            ).set(shard_imbalance(network.shard_stats()))
            shares = level_message_shares(level_summary())
            share_gauge = self.registry.gauge(
                "repro_level_message_share",
                "Each hierarchy level's fraction of total message traffic.",
                labels=("level",),
            )
            for level, share in enumerate(shares):
                share_gauge.labels(level=str(level)).set(share)


def instrument_network(
    network,
    registry: Optional[MetricsRegistry] = None,
    trace: Optional[TraceLog] = None,
) -> NetworkInstrumentation:
    """Attach metrics (and optionally tracing) to a wired network.

    Works on any topology the runners drive: a flat
    :class:`~repro.monitoring.network.MonitoringNetwork` or a tree of any
    depth, over synchronous or asynchronous channels.  Returns the
    :class:`NetworkInstrumentation`, whose ``registry`` renders Prometheus
    text via
    :meth:`~repro.observability.metrics.MetricsRegistry.render`.
    """
    return NetworkInstrumentation(registry=registry, trace=trace).attach(network)
