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
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.staleness import StalenessSummary, summarize_staleness
from repro.asynchrony.channel import AsyncChannel
from repro.asynchrony.latency import LatencyModel
from repro.exceptions import ProtocolError
from repro.faults.channel import FaultPlan, FaultyChannel
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import (
    TrackingResult,
    _finish,
    _run_batched,
    _run_per_update,
)
from repro.monitoring.sharding import ShardedNetwork
from repro.types import Update

__all__ = [
    "AsyncTrackingResult",
    "run_tracking_async",
    "async_channels",
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


def async_channels(
    fanouts: Sequence[int],
    latency: LatencyModel,
    seed: Optional[int] = 0,
    preserve_order: bool = True,
    faults: Optional[FaultPlan] = None,
    root_latency: Optional[LatencyModel] = None,
) -> Callable[[int, int, int], AsyncChannel]:
    """The latency-aware transport for a network of shape ``fanouts``.

    Returns the ``(level, position, num_ports) -> channel`` factory that
    :func:`repro.monitoring.tree.build_tree_network` takes as its
    ``channel_factory``: every node (the flat star, each leaf shard, each
    aggregator) gets its own :class:`AsyncChannel`, or a fault-injecting
    :class:`~repro.faults.channel.FaultyChannel` when ``faults`` is given.
    Leaf channels use ``latency``; aggregator channels use ``root_latency``
    (default: ``latency``).  Each channel builds its own loss-model instance,
    so per-link burst state never leaks between nodes.

    Seeds are assigned breadth-first: the node at ``position`` of ``level``
    draws latency from ``seed + offset(level) + position``, where
    ``offset(level)`` counts every node above that level.  The flat star
    (``fanouts=[]``) draws from ``seed``; for ``fanouts=[S]`` the root draws
    from ``seed`` and shard ``s`` from ``seed + 1 + s``.  Loss seeds follow
    the same scheme from ``faults.seed``.  With zero latency on every level
    the run is bit-for-bit the synchronous network of the same shape.

    The factory carries ``fanouts`` as an attribute, and
    :func:`~repro.monitoring.tree.build_tree_network` refuses it for a tree
    of any other shape (seeds and the root latency depend on the shape).
    """
    chosen_root_latency = latency if root_latency is None else root_latency
    # offsets[level]: how many nodes lie above ``level`` (1 root, then the
    # running products of the fan-outs).
    offsets = [0]
    width = 1
    for fan in fanouts:
        offsets.append(offsets[-1] + width)
        width *= fan
    leaf_level = len(offsets) - 1

    def channel_factory(level: int, position: int, num_ports: int) -> AsyncChannel:
        node = offsets[level] + position
        options = dict(
            latency=latency if level == leaf_level else chosen_root_latency,
            seed=None if seed is None else seed + node,
            preserve_order=preserve_order,
        )
        if faults is None:
            return AsyncChannel(num_ports, **options)
        fault_seed = None if faults.seed is None else faults.seed + node
        return FaultyChannel(num_ports, plan=faults.with_seed(fault_seed), **options)

    channel_factory.fanouts = tuple(int(fan) for fan in fanouts)
    return channel_factory


def run_tracking_async(
    network: MonitoringNetwork,
    updates: Iterable[Update],
    record_every: int = 1,
    drain: bool = True,
    batched: bool = False,
) -> AsyncTrackingResult:
    """Run a distributed stream over the asynchronous transport.

    Args:
        network: A network wired over async channels: flat, or a tree's
            :class:`~repro.monitoring.sharding.ShardedNetwork` whose every
            channel is asynchronous (see :func:`async_channels`) — there
            each child-to-parent hop is scheduled as one more latency leg
            after the site-to-leaf one.
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
        # A tree: the network advances every node's clock and pushes fresh
        # estimates up each latency leg — see ShardedNetwork.advance_to.  All
        # underlying channels must be latency-aware.
        if not all(isinstance(ch, AsyncChannel) for ch in channel.channels):
            raise ProtocolError(
                "run_tracking_async needs every shard channel and the root "
                "channel to be asynchronous; build the network with "
                "channel_factory=repro.asynchrony.async_channels(...) (use "
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
            "build one with channel_factory=repro.asynchrony.async_channels"
            "(...) (use run_tracking for synchronous channels)"
        )
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    result = AsyncTrackingResult()
    # The synchronous loops, with the virtual clock advanced to each update's
    # (or each segment's first) timestep before it is delivered.
    run = _run_batched if batched else _run_per_update
    run(network, updates, record_every, result, advance=advance)
    if drain:
        drain_all()
    stats = _finish(result, network)
    result.staleness = summarize_staleness(channel)
    result.final_clock = channel.now
    result.final_estimate = network.estimate()
    result.final_true_value = result.records[-1].true_value if result.records else 0
    result.dropped = stats.dropped
    result.retransmitted = stats.retransmitted
    result.duplicates = stats.duplicates
    return result
