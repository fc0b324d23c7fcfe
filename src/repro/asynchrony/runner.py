"""What an asynchronous run reports, and the transport that produces it.

:func:`repro.monitoring.runner.run_tracking` drives every network; over
latency-aware channels it advances the virtual clock as the stream arrives,
drains the in-flight messages after the last update and returns the
:class:`AsyncTrackingResult` defined here: the synchronous result plus
message-age, in-flight and reordering aggregates, the settled estimate and
the reliability counters.  :func:`async_channels` is the channel factory that
wires those latency-aware (optionally lossy) channels into a network of any
shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.staleness import StalenessSummary
from repro.asynchrony.channel import AsyncChannel
from repro.asynchrony.latency import LatencyModel
from repro.faults.channel import FaultPlan, FaultyChannel
from repro.monitoring.runner import TrackingResult

__all__ = [
    "AsyncTrackingResult",
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
