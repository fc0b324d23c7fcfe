"""Discrete-event asynchronous transport for the monitoring substrate.

The paper's model delivers every site-to-coordinator message synchronously
and instantly.  This package asks what happens when delivery takes time: a
deterministic discrete-event scheduler (:mod:`repro.asynchrony.events`),
pluggable latency models (:mod:`repro.asynchrony.latency`), a latency-aware
:class:`AsyncChannel` that conforms to the synchronous channel's counting
contract while holding messages in flight (:mod:`repro.asynchrony.channel`),
and the :class:`AsyncTrackingResult` a run over them reports
(:mod:`repro.asynchrony.runner`).  The one runner,
:func:`repro.monitoring.runner.run_tracking`, interleaves stream updates with
deliveries on the network's virtual clock.

Existing algorithms — the Section 3 trackers and every baseline — run
unmodified over this transport: :func:`async_channels` is the channel
factory that :func:`repro.monitoring.tree.build_tree_network` takes for any
shape (the flat star, or one table-backed
:class:`~repro.monitoring.sharding.ShardedNetwork` for a tree of any depth;
latency-aware, optionally lossy)::

    network = build_tree_network(
        factory, fanouts=[4], channel_factory=async_channels([4], latency)
    )
    result = run_tracking(network, updates, record_every=25)

The
coordinator close protocols complete when the last (possibly delayed) reply
lands, which over a synchronous channel degenerates to exactly the paper's
reentrant behaviour.  The zero-latency configuration is bit-for-bit
identical to the synchronous engine (estimates, message counts, bit counts,
transcript order), which anchors every latency experiment to the paper's
semantics.  Staleness aggregates live in
:mod:`repro.analysis.staleness`.
"""

from repro.asynchrony.channel import AsyncChannel, InFlightMessage
from repro.asynchrony.events import EventScheduler, ScheduledEvent
from repro.asynchrony.latency import (
    ZERO_LATENCY,
    AsymmetricLatency,
    ConstantLatency,
    HeavyTailLatency,
    LatencyModel,
    UniformLatency,
)
from repro.asynchrony.runner import AsyncTrackingResult, async_channels

__all__ = [
    "AsyncChannel",
    "InFlightMessage",
    "EventScheduler",
    "ScheduledEvent",
    "ZERO_LATENCY",
    "AsymmetricLatency",
    "ConstantLatency",
    "HeavyTailLatency",
    "LatencyModel",
    "UniformLatency",
    "AsyncTrackingResult",
    "async_channels",
]
