"""Bulk span scheduling on the asynchronous transport.

``run_tracking(..., batched=True)`` over asynchronous channels routes
contiguous same-site runs through the span kernel: trigger-free spans
charge their count reports in bulk and put *one* prepaid aggregate in
flight per span (:meth:`AsyncChannel.send_prepaid_to_coordinator`), while
block closes stay real per-message traffic.  Contract pinned here:

* zero latency is bit-for-bit the synchronous batched engine (which is
  itself bit-for-bit per-update), flat and sharded alike — the async
  subsystem's existing equivalence anchor extends to the bulk engine;
* under real latency the event-queue volume collapses (that is the point:
  one event per span lets virtual-time sweeps reach 10^7-update streams)
  while cost accounting still charges every message individually.
"""

import pytest

from repro.asynchrony import (
    ConstantLatency,
    UniformLatency,
    ZERO_LATENCY,
    async_channels,
)
from repro.api import RunSpec, SourceSpec, TopologySpec, TrackerSpec, TransportSpec
from repro.core import DeterministicCounter, RandomizedCounter
from repro.monitoring import build_tree_network, run_tracking
from repro.monitoring.messages import COORDINATOR, Message, MessageKind
from repro.streams import BlockedAssignment, assign_sites, random_walk_stream

def _fingerprint(result):
    return (
        [
            (r.time, r.true_value, r.estimate, r.messages, r.bits)
            for r in result.records
        ],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
    )


def _factories(num_sites):
    return [
        lambda: DeterministicCounter(num_sites, 0.1),
        lambda: RandomizedCounter(num_sites, 0.1, seed=9),
    ]


class TestZeroLatencyBulkSpans:
    @pytest.mark.parametrize("num_sites", [1, 2, 4, 8])
    def test_batched_async_is_bit_for_bit_the_sync_engine(self, num_sites):
        spec = random_walk_stream(6_000, seed=3)
        updates = assign_sites(spec, num_sites, BlockedAssignment(512))
        for build in _factories(num_sites):
            sync = run_tracking(
                build().build_network(), updates, record_every=50, batched=True
            )
            network = build_tree_network(
                build(),
                fanouts=[],
                channel_factory=async_channels([], ConstantLatency(0.0)),
            )
            asynchronous = run_tracking(
                network, updates, record_every=50, batched=True
            )
            assert _fingerprint(sync) == _fingerprint(asynchronous)

    def test_sharded_single_shard_matches_flat_bulk_engine(self):
        spec = random_walk_stream(4_000, seed=5)
        updates = assign_sites(spec, 4, BlockedAssignment(256))
        trackers = [TrackerSpec("deterministic"), TrackerSpec("randomized", seed=9)]
        for build, tracker in zip(_factories(4), trackers):
            flat = run_tracking(
                build_tree_network(
                    build(),
                    fanouts=[],
                    channel_factory=async_channels([], ConstantLatency(0.0)),
                ),
                updates,
                record_every=40,
                batched=True,
            )
            sharded = run_tracking(
                RunSpec(
                    source=SourceSpec(sites=4),
                    tracker=tracker,
                    topology=TopologySpec(shards=1),
                    transport=TransportSpec(mode="async"),
                ).build_network(),
                updates,
                record_every=40,
                batched=True,
            )
            assert _fingerprint(flat) == _fingerprint(sharded)

    def test_batched_async_matches_per_update_async(self):
        """Transitivity check without the sync engine in the middle."""
        spec = random_walk_stream(3_000, seed=7)
        updates = assign_sites(spec, 2, BlockedAssignment(128))
        for build in _factories(2):
            per_update = run_tracking(
                build_tree_network(
                    build(),
                    fanouts=[],
                    channel_factory=async_channels([], ZERO_LATENCY),
                ), updates, record_every=25
            )
            batched = run_tracking(
                build_tree_network(
                    build(),
                    fanouts=[],
                    channel_factory=async_channels([], ZERO_LATENCY),
                ), updates, record_every=25, batched=True
            )
            assert _fingerprint(per_update) == _fingerprint(batched)


class TestLatencyBulkSpans:
    def _run(self, batched, shards=1):
        spec = random_walk_stream(12_000, seed=3)
        updates = assign_sites(spec, 8, BlockedAssignment(512))
        if shards > 1:
            network = build_tree_network(
                DeterministicCounter(8, 0.1),
                fanouts=[shards],
                channel_factory=async_channels(
                    [shards], UniformLatency(2.0, 6.0), seed=1
                ),
            )
        else:
            network = build_tree_network(
                DeterministicCounter(8, 0.1),
                fanouts=[],
                channel_factory=async_channels([], UniformLatency(2.0, 6.0), seed=1),
            )
        result = run_tracking(
            network, updates, record_every=500, batched=batched
        )
        return result, network

    def test_event_volume_collapses_under_latency(self):
        per_update, per_update_network = self._run(batched=False)
        batched, batched_network = self._run(batched=True)
        # Every charged message is an event on the per-update engine; the
        # bulk engine coalesces each span's count reports into one event.
        assert per_update_network.channel.delivered_count == per_update.total_messages
        assert (
            batched_network.channel.delivered_count < batched.total_messages / 2
        )
        # The backlog settles either way and the estimate lands on a sane
        # value once drained (the stream's exact final value is recorded).
        assert batched.final_true_value == per_update.final_true_value

    def test_bulk_spans_work_in_the_sharded_hierarchy(self):
        result, network = self._run(batched=True, shards=2)
        assert result.total_messages > 0
        assert network.channel.in_flight == 0  # drained
        assert result.final_true_value == result.records[-1].true_value


class TestPrepaidScheduling:
    def test_prepaid_send_charges_nothing(self):
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ConstantLatency(1.5)),
        )
        channel = network.channel
        before = channel.stats.snapshot()
        channel.send_prepaid_to_coordinator(
            Message(
                kind=MessageKind.REPORT,
                sender=0,
                receiver=COORDINATOR,
                payload={"count": 1},
                time=1,
            )
        )
        assert channel.stats.messages == before.messages
        assert channel.stats.bits == before.bits
        assert channel.in_flight == 1
        channel.drain()
        # Delivery runs the ordinary receive path: t_hat advanced by the
        # aggregate count even though the transmission was prepaid.
        assert network.coordinator.reported_updates == 1

    def test_prepaid_aggregate_can_close_a_block_at_delivery(self):
        """An aggregate crossing the trigger when it lands still closes the
        block through the ordinary receive path — the property that keeps
        bulk spans sound when other sites' reports arrive first."""
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ConstantLatency(1.5)),
        )
        channel = network.channel
        channel.send_prepaid_to_coordinator(
            Message(
                kind=MessageKind.REPORT,
                sender=0,
                receiver=COORDINATOR,
                payload={"count": 3},  # >= the level-0 trigger of k = 2
                time=1,
            )
        )
        channel.drain()
        assert network.coordinator.blocks_completed == 1
        assert network.coordinator.reported_updates == 0

    def test_channel_advertises_span_scheduling(self):
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ZERO_LATENCY),
        )
        assert network.channel.supports_span_events
        sync_network = DeterministicCounter(2, 0.1).build_network()
        assert not getattr(sync_network.channel, "supports_span_events", False)
