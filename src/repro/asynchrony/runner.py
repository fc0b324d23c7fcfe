"""Event-driven runner: interleave stream updates with delayed deliveries.

:func:`run_tracking_async` is the asynchronous counterpart of
:func:`repro.monitoring.runner.run_tracking`.  Both consume any iterable of
updates in time order and record the coordinator's estimate against the exact
value at a configurable stride; the difference is the clock.  The
asynchronous runner drives the channel's *virtual* clock: before the update
at timestep ``t`` is handed to its site, every in-flight message due at or
before ``t`` is delivered (in deterministic ``(due, send order)`` order), so
protocol reactions and stream progress interleave exactly as they would on a
network where delivery takes time.  After the last update the channel is
drained, letting the coordinator settle on its final estimate.

Under the zero-latency model every message is delivered inline at its send
instant, the event queue stays empty, and the run is bit-for-bit identical —
estimates, message counts, bit counts, transcript order — to the synchronous
engine (``tests/test_async_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.staleness import StalenessSummary, summarize_staleness
from repro.asynchrony.channel import AsyncChannel
from repro.asynchrony.latency import ZERO_LATENCY, LatencyModel
from repro.exceptions import ProtocolError
from repro.faults.channel import FaultPlan, FaultyChannel
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import (
    TrackingResult,
    _finish,
    _record,
    _run_batched,
)
from repro.monitoring.sharding import (
    ShardedNetwork,
    ShardingPolicy,
    build_sharded_network,
)
from repro.monitoring.tree import build_tree_network, resolve_fanouts
from repro.types import Update

__all__ = [
    "AsyncTrackingResult",
    "run_tracking_async",
    "build_async_network",
    "build_sharded_async_network",
    "build_tree_async_network",
]


@dataclass
class AsyncTrackingResult(TrackingResult):
    """A :class:`TrackingResult` plus the asynchronous run's staleness signals.

    Attributes:
        staleness: Message-age, in-flight and reordering aggregates.
        final_clock: Virtual time at which the last in-flight message landed.
        final_estimate: The coordinator's estimate after the drain — with
            zero latency this equals the last record's estimate; with real
            latency it shows where the estimate *settles* once the backlog
            clears.
        final_true_value: The exact ``f(n)`` at end of stream.
        dropped: Transmission attempts the fault plan lost on the wire.
        retransmitted: Timeout-triggered re-sends (all charged in
            ``total_messages``/``total_bits``); after a full drain this
            equals ``dropped + duplicates``.
        duplicates: Arrivals suppressed by receiver-side dedup.
    """

    staleness: StalenessSummary = field(default_factory=StalenessSummary)
    final_clock: float = 0.0
    final_estimate: float = 0.0
    final_true_value: int = 0
    dropped: int = 0
    retransmitted: int = 0
    duplicates: int = 0

    def settled_error(self) -> float:
        """Absolute estimate error after every in-flight message landed."""
        return abs(self.final_true_value - self.final_estimate)

    def _elapsed_clock(self) -> float:
        """The transport's drained clock, which runs past the last record."""
        return max(self.final_clock, super()._elapsed_clock())

    def summary(self, epsilon=None) -> dict:
        """The synchronous summary plus the asynchronous run's signals.

        Extends :meth:`TrackingResult.summary` with the staleness
        aggregates, the final virtual clock and the settled estimate, so
        JSON consumers of ``repro run --config`` see the transport axis in
        the same document.  (``to_dict`` picks this up automatically.)
        """
        data = super().summary(epsilon)
        data["staleness"] = {
            "delivered": self.staleness.delivered,
            "mean_age": self.staleness.mean_age,
            "max_age": self.staleness.max_age,
            "p95_age": self.staleness.p95_age,
            "inflight_highwater": self.staleness.inflight_highwater,
            "reordered": self.staleness.reordered,
        }
        data["final_clock"] = self.final_clock
        data["final_estimate"] = self.final_estimate
        data["final_true_value"] = self.final_true_value
        data["settled_error"] = self.settled_error()
        data["reliability"] = {
            "dropped": self.dropped,
            "retransmitted": self.retransmitted,
            "duplicates": self.duplicates,
        }
        return data


def _make_async_channel(
    num_ports: int,
    latency: LatencyModel,
    seed: Optional[int],
    preserve_order: bool,
    faults: Optional[FaultPlan],
    fault_seed: Optional[int],
) -> AsyncChannel:
    """One node's channel: plain, or fault-injecting when a plan is given.

    The plan is re-seeded per node with ``fault_seed`` (derived by the
    topology builders exactly like the latency seeds), and each channel
    builds its own loss-model instance, so per-link burst state never leaks
    between nodes.
    """
    if faults is None:
        return AsyncChannel(
            num_ports, latency=latency, seed=seed, preserve_order=preserve_order
        )
    return FaultyChannel(
        num_ports,
        latency=latency,
        seed=seed,
        preserve_order=preserve_order,
        plan=faults.with_seed(fault_seed),
    )


def build_async_network(
    factory,
    latency: LatencyModel = ZERO_LATENCY,
    seed: Optional[int] = 0,
    preserve_order: bool = True,
    faults: Optional[FaultPlan] = None,
) -> MonitoringNetwork:
    """Wire a tracker factory's coordinator and sites over an async channel.

    Works with any factory exposing ``build_network()`` (the Section 3
    trackers and every baseline), so existing algorithms run unmodified over
    the asynchronous transport: the factory builds its usual actors, and this
    helper re-wires them onto a fresh :class:`AsyncChannel`.

    Args:
        factory: Tracker factory (e.g. ``DeterministicCounter(k, eps)``).
        latency: Delivery-latency model for the channel.
        seed: Seed for the channel's latency RNG.
        preserve_order: Per-link FIFO (default) versus reordering allowed.
        faults: Optional :class:`~repro.faults.channel.FaultPlan`; when given
            the channel is a fault-injecting
            :class:`~repro.faults.channel.FaultyChannel` (a zero-loss plan is
            inert, i.e. bit-for-bit this builder's plain channel).

    Returns:
        A :class:`MonitoringNetwork` whose channel is the async transport.
    """
    base = factory.build_network()
    channel = _make_async_channel(
        base.num_sites,
        latency,
        seed,
        preserve_order,
        faults,
        None if faults is None else faults.seed,
    )
    return MonitoringNetwork(base.coordinator, base.sites, channel=channel)


def build_sharded_async_network(
    factory,
    num_shards: int,
    latency: LatencyModel = ZERO_LATENCY,
    root_latency: Optional[LatencyModel] = None,
    seed: Optional[int] = 0,
    preserve_order: bool = True,
    sharding: Optional[ShardingPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> ShardedNetwork:
    """Wire a sharded hierarchy whose both levels are latency-aware.

    Every shard's site-to-coordinator channel and the shard-to-root channel
    become :class:`AsyncChannel` instances, so a shard estimate crosses *two*
    latency legs before the root sees it: site to shard coordinator, then
    shard to root.  Each channel draws from its own deterministic RNG (shard
    ``s`` from ``seed + 1 + s``, the root from ``seed``), so runs reproduce
    exactly.  With zero latency at both levels the run is bit-for-bit the
    synchronous sharded engine.

    Args:
        factory: Flat tracker factory exposing ``num_sites``/``shard_factory``.
        num_shards: Number of shards (1 = flat topology, no root leg).
        latency: Latency model for the shard-local (site-to-coordinator) legs.
        root_latency: Latency model for the shard-to-root leg; defaults to
            the shard-local model.
        seed: Base seed for the channels' latency RNGs.
        preserve_order: Per-link FIFO (default) versus reordering allowed.

    Returns:
        A :class:`~repro.monitoring.sharding.ShardedNetwork` over async
        channels, ready for :func:`run_tracking_async`.
    """
    chosen_root_latency = latency if root_latency is None else root_latency

    fault_base = None if faults is None else faults.seed

    def local_channel(shard_id: int, group_size: int) -> AsyncChannel:
        # A single shard has no root leg, and its channel must draw exactly
        # the same latency sequence as build_async_network's — that is what
        # keeps shards=1 bit-for-bit the flat async engine under jitter.
        # Loss seeds mirror the latency-seed scheme.
        if num_shards == 1:
            local_seed, fault_seed = seed, fault_base
        else:
            local_seed = None if seed is None else seed + 1 + shard_id
            fault_seed = None if fault_base is None else fault_base + 1 + shard_id
        return _make_async_channel(
            group_size, latency, local_seed, preserve_order, faults, fault_seed
        )

    def root_channel(shard_count: int) -> AsyncChannel:
        return _make_async_channel(
            shard_count,
            chosen_root_latency,
            seed,
            preserve_order,
            faults,
            fault_base,
        )

    return build_sharded_network(
        factory,
        num_shards,
        sharding=sharding,
        local_channel_factory=local_channel,
        root_channel_factory=root_channel,
    )


def build_tree_async_network(
    factory,
    levels: Optional[int] = None,
    fanout: Optional[int] = None,
    fanouts=None,
    latency: LatencyModel = ZERO_LATENCY,
    root_latency: Optional[LatencyModel] = None,
    seed: Optional[int] = 0,
    preserve_order: bool = True,
    sharding: Optional[ShardingPolicy] = None,
    epsilon_split="leaf",
    split_ratio: float = 0.5,
    broadcast_deadband: float = 0.0,
    faults: Optional[FaultPlan] = None,
):
    """Wire an L-level monitoring tree whose every level is latency-aware.

    The asynchronous counterpart of
    :func:`repro.monitoring.tree.build_tree_network`: each node — every leaf
    shard and every aggregator — gets its own :class:`AsyncChannel`, so an
    estimate originating at a site crosses ``levels`` latency legs before the
    root sees it.  Channel RNG seeds are derived breadth-first from the
    node's ``(level, position)``: the root draws from ``seed``, the node at
    position ``p`` of level ``l`` from ``seed + offset(l) + p`` where
    ``offset`` counts all nodes above.  For a two-level tree that is exactly
    the legacy :func:`build_sharded_async_network` assignment (root =
    ``seed``, shard ``s`` = ``seed + 1 + s``), so the tree generalisation is
    seed-compatible with the existing async hierarchy, and with zero latency
    everywhere the run is bit-for-bit the synchronous tree.

    Args:
        factory: Flat tracker factory exposing ``num_sites``/``shard_factory``.
        levels: Total coordinator levels (1 = flat; give ``fanout`` too).
        fanout: Uniform per-level fan-out (with ``levels``).
        fanouts: Explicit per-level fan-outs, top-down (overrides ``fanout``).
        latency: Latency model for the leaf (site-to-shard) legs.
        root_latency: Latency model for every aggregation leg; defaults to
            the leaf model.
        seed: Base seed for the channels' latency RNGs.
        preserve_order: Per-link FIFO (default) versus reordering allowed.
        sharding: Partition policy applied at every split.
        epsilon_split: Per-level error-budget policy (name or instance).
        split_ratio: Ratio for the named ``"geometric"`` policy.
        broadcast_deadband: Relative deadband on downward level re-broadcasts.

    Returns:
        A tree :class:`~repro.monitoring.sharding.ShardedNetwork` over async
        channels (or a flat async network for one level), ready for
        :func:`run_tracking_async`.
    """
    resolved = resolve_fanouts(levels=levels, fanout=fanout, fanouts=fanouts)
    chosen_root_latency = latency if root_latency is None else root_latency
    # Breadth-first node counts per level: 1 root, then products of fan-outs.
    sizes = [1]
    for fan in resolved:
        sizes.append(sizes[-1] * fan)
    offsets = [sum(sizes[:level]) for level in range(len(sizes))]
    leaf_level = len(resolved)

    fault_base = None if faults is None else faults.seed

    def channel_factory(level: int, position: int, num_ports: int) -> AsyncChannel:
        node_seed = None if seed is None else seed + offsets[level] + position
        fault_seed = (
            None if fault_base is None else fault_base + offsets[level] + position
        )
        node_latency = latency if level == leaf_level else chosen_root_latency
        return _make_async_channel(
            num_ports, node_latency, node_seed, preserve_order, faults, fault_seed
        )

    return build_tree_network(
        factory,
        fanouts=resolved,
        sharding=sharding,
        epsilon_split=epsilon_split,
        split_ratio=split_ratio,
        broadcast_deadband=broadcast_deadband,
        channel_factory=channel_factory,
    )


def run_tracking_async(
    network: MonitoringNetwork,
    updates: Iterable[Update],
    record_every: int = 1,
    drain: bool = True,
    batched: bool = False,
) -> AsyncTrackingResult:
    """Run a distributed stream over the asynchronous transport.

    Args:
        network: A network wired over an :class:`AsyncChannel` (see
            :func:`build_async_network`), or a
            :class:`~repro.monitoring.sharding.ShardedNetwork` whose shard
            and root channels are all asynchronous (see
            :func:`build_sharded_async_network`) — there the shard-to-root
            hop is scheduled as a second latency leg after the site-to-shard
            one.
        updates: The distributed stream, one update per timestep, in time
            order; any iterable works and is consumed exactly once.
        record_every: Record an estimate-vs-truth point every this many
            timesteps (the final timestep is always recorded).  Records taken
            while messages are in flight show the *stale* estimate — that is
            the instrumentation this runner exists for.
        drain: Deliver all remaining in-flight messages after the stream
            ends (default).  Disable to inspect the undelivered backlog on
            the channel instead.
        batched: Opt into the bulk span engine: contiguous same-site runs
            are segmented by the span kernel (exactly like the synchronous
            batched engine) and each trigger-free span's count reports fly
            as *one* prepaid in-flight event instead of one per message
            (:meth:`AsyncChannel.send_prepaid_to_coordinator`), with
            in-flight deliveries advanced at segment boundaries.  With zero
            latency this is bit-for-bit the synchronous engine (the
            existing equivalence contract); with real latency it models
            delivery timing at span granularity — the transport-level
            batching any real uplink performs — which is what lets latency
            sweeps reach 10^7-update streams.  The default stays
            per-update, the exact per-message transport model.

    Returns:
        An :class:`AsyncTrackingResult` with per-step records, total costs
        and staleness aggregates.
    """
    channel = network.channel
    if isinstance(network, ShardedNetwork):
        # Sharded hierarchy: the network advances every shard clock, pushes
        # fresh estimates onto the root channel (the second latency leg) and
        # advances the root — see ShardedNetwork.advance_to.  All underlying
        # channels must be latency-aware.
        if not all(isinstance(ch, AsyncChannel) for ch in channel.channels):
            raise ProtocolError(
                "run_tracking_async needs every shard channel and the root "
                "channel to be asynchronous; build the network with "
                "repro.asynchrony.build_sharded_async_network (use "
                "run_tracking for synchronous channels)"
            )
        advance = network.advance_to
        drain_all = network.drain
    elif isinstance(channel, AsyncChannel):
        advance = channel.advance_to
        drain_all = channel.drain
    else:
        raise ProtocolError(
            "run_tracking_async needs a network wired over an AsyncChannel; "
            "build one with repro.asynchrony.build_async_network (use "
            "run_tracking for synchronous channels)"
        )
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    result = AsyncTrackingResult()
    true_value = 0
    if batched:
        # The synchronous batched loop, with the virtual clock advanced to
        # each segment's first timestep before the segment is delivered.
        _run_batched(network, updates, record_every, result, advance=advance)
        if result.records:
            true_value = result.records[-1].true_value
    else:
        last_time = 0
        seen_any = False
        recorded_last = False
        for index, update in enumerate(updates):
            advance(update.time)
            network.deliver_update(update.time, update.site, update.delta)
            true_value += update.delta
            last_time = update.time
            seen_any = True
            if index % record_every == 0:
                _record(result, network, update.time, true_value)
                recorded_last = True
            else:
                recorded_last = False
        if seen_any and not recorded_last:
            _record(result, network, last_time, true_value)
    if drain:
        drain_all()
    stats = _finish(result, network)
    result.staleness = summarize_staleness(channel)
    result.final_clock = channel.now
    result.final_estimate = network.estimate()
    result.final_true_value = true_value
    result.dropped = stats.dropped
    result.retransmitted = stats.retransmitted
    result.duplicates = stats.duplicates
    return result
