"""The sharded hierarchy's contracts: flat equivalence, accounting, topology.

Central claims pinned here:

* ``shards=1`` is *bit-for-bit* the flat engine — estimates, message counts,
  bit counts, per-kind breakdown and transcript order — across the
  per-update, batched and (zero-latency) asynchronous engines;
* with multiple shards, every shard behaves bit-for-bit like a flat
  coordinator over its own substream, and the root's estimate is the exact
  sum of the shard estimates (the hierarchical-merge contract; the
  hypothesis version lives in ``tests/test_sharding_property.py``);
* communication stays separately accounted per shard, the root channel
  carries only estimate pushes and level re-sends, and the root re-sends
  global level changes to stale shards via the counted multicast.
"""

import pytest

from repro.asynchrony import (
    ConstantLatency,
    UniformLatency,
    async_channels,
)
from repro.api import RunSpec, SourceSpec, TopologySpec, TrackerSpec, TransportSpec
from repro.baselines import CormodeCounter, HuangCounter, NaiveCounter
from repro.core import DeterministicCounter, RandomizedCounter
from repro.core.blocks import block_level
from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring import (
    PARTITION_NAMES,
    ChannelStats,
    MessageKind,
    RootAggregator,
    ShardedNetwork,
    build_tree_network,
    partition_sites,
    run_tracking,
)
from repro.monitoring.messages import COORDINATOR, Message
from repro.streams import (
    BlockedAssignment,
    RoundRobinAssignment,
    SkewedAssignment,
    assign_sites,
    monotone_stream,
    random_walk_stream,
    sawtooth_stream,
)


def _fingerprint(result):
    """Everything observable about a run: records, totals, kind breakdown."""
    return (
        [
            (r.time, r.true_value, r.estimate, r.messages, r.bits)
            for r in result.records
        ],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
    )


def _transcript(channel):
    """A channel's charged transcript, one entry per transmission."""
    return [
        (m.kind, m.sender, m.receiver, dict(m.payload), m.time) for m in channel.log
    ]


class TestPartitionSites:
    def test_contiguous_balanced_within_one(self):
        assert partition_sites(10, 3, "contiguous") == [
            range(0, 4),
            range(4, 7),
            range(7, 10),
        ]

    def test_strided_interleaves(self):
        groups = partition_sites(7, 3, "strided")
        assert [list(group) for group in groups] == [[0, 3, 6], [1, 4], [2, 5]]

    @pytest.mark.parametrize("partition", PARTITION_NAMES)
    def test_partition_is_a_partition(self, partition):
        for num_sites, fan in [(1, 1), (5, 5), (9, 4), (16, 3)]:
            groups = partition_sites(num_sites, fan, partition)
            assert len(groups) == fan
            flat = [site for group in groups for site in group]
            assert sorted(flat) == list(range(num_sites))
            assert all(group for group in groups)


def _single_shard(tracker, transport=None):
    """The ``shards=1`` topology over 4 sites, as the spec layer wires it."""
    return RunSpec(
        source=SourceSpec(sites=4),
        tracker=tracker,
        topology=TopologySpec(shards=1),
        transport=TransportSpec() if transport is None else transport,
    ).build_network()


class TestFlatEquivalence:
    """shards=1 must be bit-for-bit the flat engine, on every engine."""

    @pytest.mark.parametrize(
        "factory_builder, tracker",
        [
            (lambda: DeterministicCounter(4, 0.1), TrackerSpec("deterministic")),
            (
                lambda: RandomizedCounter(4, 0.1, seed=9),
                TrackerSpec("randomized", seed=9),
            ),
            (lambda: CormodeCounter(4, 0.1), TrackerSpec("cormode")),
            (lambda: NaiveCounter(4), TrackerSpec("naive")),
        ],
        ids=["deterministic", "randomized", "cormode", "naive"],
    )
    @pytest.mark.parametrize("batched", [False, True], ids=["per-update", "batched"])
    def test_sync_engines_bit_for_bit(self, factory_builder, tracker, batched):
        monotone = isinstance(factory_builder(), CormodeCounter)
        spec = (
            monotone_stream(2_000) if monotone else random_walk_stream(2_000, seed=3)
        )
        updates = assign_sites(spec, 4, BlockedAssignment(64))
        flat_net = factory_builder().build_network()
        flat_net.channel.enable_log()
        flat = run_tracking(flat_net, updates, record_every=21, batched=batched)
        sharded_net = _single_shard(tracker)
        sharded_net.channel.enable_log()
        sharded = run_tracking(
            sharded_net, updates, record_every=21, batched=batched
        )
        assert _fingerprint(flat) == _fingerprint(sharded)
        assert _transcript(flat_net.channel) == _transcript(sharded_net.channel)

    def test_async_zero_latency_bit_for_bit(self):
        spec = sawtooth_stream(1_500, amplitude=30)
        updates = assign_sites(spec, 4)
        flat = run_tracking(
            DeterministicCounter(4, 0.1).build_network(),
            updates,
            record_every=9,
            batched=False,
        )
        network = _single_shard(TrackerSpec(), TransportSpec(mode="async"))
        asynchronous = run_tracking(network, updates, record_every=9)
        assert _fingerprint(flat) == _fingerprint(asynchronous)
        assert asynchronous.staleness.inflight_highwater == 0

    def test_async_jittered_latency_bit_for_bit(self):
        """shards=1 must match the flat async engine even when the latency
        RNG is consulted — the single shard's channel draws the same seed."""
        spec = random_walk_stream(800, seed=29)
        updates = assign_sites(spec, 4)
        flat = run_tracking(
            build_tree_network(
                DeterministicCounter(4, 0.1),
                fanouts=[],
                channel_factory=async_channels([], UniformLatency(1.0, 3.0), seed=0),
            ),
            updates,
            record_every=7,
        )
        sharded = run_tracking(
            _single_shard(
                TrackerSpec(),
                TransportSpec(mode="async", latency="uniform", scale=2.0, seed=0),
            ),
            updates,
            record_every=7,
        )
        assert _fingerprint(flat) == _fingerprint(sharded)
        assert flat.staleness == sharded.staleness

    def test_single_shard_pays_no_root_hop(self):
        network = _single_shard(TrackerSpec())
        flat_net = DeterministicCounter(4, 0.1).build_network()
        assert not isinstance(network, ShardedNetwork)
        assert getattr(network, "root", None) is None
        updates = assign_sites(random_walk_stream(500, seed=5), 4)
        result = run_tracking(network, updates, record_every=10)
        flat = run_tracking(flat_net, updates, record_every=10)
        assert result.levels is None
        assert _fingerprint(result) == _fingerprint(flat)
        assert network.stats == flat_net.stats


class TestHierarchicalMerge:
    """Shards behave like flat coordinators over their substreams; root sums."""

    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    @pytest.mark.parametrize("partition", PARTITION_NAMES)
    def test_per_shard_flat_equivalence(self, num_shards, partition):
        spec = random_walk_stream(3_000, seed=7)
        updates = assign_sites(spec, 8, RoundRobinAssignment())
        factory = DeterministicCounter(8, 0.1)
        network = build_tree_network(
            factory, fanouts=[num_shards], partition=partition
        )
        run_tracking(network, updates, record_every=25, batched=False)
        for shard in network.shards:
            reference = factory.shard_factory(
                shard.num_sites, shard.shard_id
            ).build_network()
            for update in updates:
                if update.site in shard.site_ids:
                    reference.deliver_update(
                        update.time,
                        shard.site_ids.index(update.site),
                        update.delta,
                    )
            assert reference.estimate() == shard.estimate()
            assert reference.stats.messages == shard.stats.messages
            assert reference.stats.bits == shard.stats.bits
            assert reference.stats.by_kind == shard.stats.by_kind
        assert network.estimate() == pytest.approx(
            sum(shard.estimate() for shard in network.shards)
        )

    def test_batched_engine_matches_per_update_observably(self):
        spec = random_walk_stream(4_000, seed=11)
        updates = assign_sites(spec, 8, BlockedAssignment(128))
        nets = {}
        results = {}
        for batched in (False, True):
            nets[batched] = build_tree_network(
                DeterministicCounter(8, 0.1),
                fanouts=[4],
            )
            results[batched] = run_tracking(
                nets[batched], updates, record_every=50, batched=batched
            )
        # Estimates at every record point and shard-local accounting are
        # engine-invariant; only the root-push count may differ (push
        # granularity follows delivery granularity).
        assert [r.estimate for r in results[False].records] == [
            r.estimate for r in results[True].records
        ]
        assert nets[False].local_stats.messages == nets[True].local_stats.messages
        assert nets[False].local_stats.bits == nets[True].local_stats.bits
        assert nets[False].estimate() == nets[True].estimate()

    def test_root_level_tracks_merged_magnitude(self):
        network = build_tree_network(NaiveCounter(4), fanouts=[2])
        updates = assign_sites(monotone_stream(600), 4)
        run_tracking(network, updates, record_every=60)
        root = network.root
        assert root.estimate() == 600.0
        assert root.level == block_level(600, 4)
        for shard in network.shards:
            assert shard.root_level == root.level

    def test_root_channel_carries_only_reports_and_level_resends(self):
        network = build_tree_network(DeterministicCounter(6, 0.1), fanouts=[3])
        updates = assign_sites(random_walk_stream(2_000, seed=13), 6)
        run_tracking(network, updates, record_every=40)
        kinds = set(network.root_stats.by_kind)
        assert kinds <= {MessageKind.REPORT.value, MessageKind.BROADCAST.value}
        assert network.root_stats.by_kind[MessageKind.REPORT.value] == sum(
            network.root.reports_by_shard.values()
        )
        assert sum(shard.pushes for shard in network.shards) == network.root.reports

    def test_withheld_level_change_reaches_the_stale_shards_later(self):
        """A level change the broadcast deadband withholds reaches every
        shard at the next refresh that is not withheld; refreshes at the
        level every shard holds send nothing."""

        class RecordingChannel:
            def __init__(self):
                self.multicasts = []

            def register_coordinator(self, handler):
                pass

            def multicast(self, message, receivers):
                self.multicasts.append((message.payload["level"], list(receivers)))

        root = RootAggregator(num_shards=3, num_sites=4, broadcast_deadband=0.5)
        channel = RecordingChannel()
        root.attach(channel)
        # k = 4: levels 2 and 3 are [32, 64) and [64, 128).
        for time, (shard_id, estimate) in enumerate(
            [
                (0, 60),  # level 2, sent to every shard
                (1, 5),  # 65: level 3, withheld (|65 - 60| <= 30)
                (1, 7),  # 67: still withheld
                (1, -1),  # 59: back at level 2, which every shard holds
                (1, 6),  # 66: level 3, withheld again
                (2, 40),  # 106: level 3, no longer withheld
                (2, 41),  # 107: level 3, which every shard now holds
            ],
            start=1,
        ):
            root.receive_message(
                Message(
                    kind=MessageKind.REPORT,
                    sender=shard_id,
                    receiver=COORDINATOR,
                    payload={"estimate": float(estimate)},
                    time=time,
                )
            )
        assert channel.multicasts == [(2, [0, 1, 2]), (3, [0, 1, 2])]
        assert root.broadcasts_suppressed == 9
        assert root.level == 3

    def test_total_stats_decompose_into_local_plus_root(self):
        network = build_tree_network(DeterministicCounter(6, 0.1), fanouts=[3])
        updates = assign_sites(random_walk_stream(1_500, seed=17), 6)
        result = run_tracking(network, updates, record_every=30)
        combined = network.local_stats + network.root_stats
        assert result.total_messages == combined.messages
        assert result.total_bits == combined.bits
        assert network.stats.by_kind == combined.by_kind
        # Per-shard counters are genuinely per shard: they sum to the local
        # total and ChannelStats.merge reproduces it.
        assert ChannelStats.merge(network.shard_stats()).messages == (
            network.local_stats.messages
        )


class TestAsyncSharded:
    def test_zero_latency_matches_sync_sharded(self):
        spec = random_walk_stream(2_500, seed=19)
        updates = assign_sites(spec, 8)
        sync_net = build_tree_network(DeterministicCounter(8, 0.1), fanouts=[4])
        sync = run_tracking(sync_net, updates, record_every=13, batched=False)
        async_net = build_tree_network(
            DeterministicCounter(8, 0.1),
            fanouts=[4],
            channel_factory=async_channels([4], ConstantLatency(0.0)),
        )
        asynchronous = run_tracking(async_net, updates, record_every=13)
        assert _fingerprint(sync) == _fingerprint(asynchronous)
        assert asynchronous.staleness.inflight_highwater == 0
        assert asynchronous.final_estimate == sync_net.estimate()

    def test_second_leg_delays_the_root_view(self):
        """With latency only on the root leg, shards are exact but the root lags."""
        spec = monotone_stream(800)
        updates = assign_sites(spec, 4)
        network = build_tree_network(
            NaiveCounter(4),
            fanouts=[2],
            channel_factory=async_channels(
                [2], ConstantLatency(0.0), seed=0, root_latency=ConstantLatency(50.0)
            ),
        )
        result = run_tracking(network, updates, record_every=1)
        # Shard estimates are exact (local legs are instant)...
        assert sum(shard.estimate() for shard in network.shards) == 800.0
        # ...but the root's merged view lagged while pushes were in flight.
        assert result.records[-1].estimate == 750.0
        # The final drain settles the root on the exact merge.
        assert result.final_estimate == 800.0
        assert network.estimate() == 800.0
        assert result.total_messages == network.stats.messages

    def test_staleness_signals_aggregate_both_levels(self):
        spec = random_walk_stream(1_200, seed=23)
        updates = assign_sites(spec, 6)
        network = build_tree_network(
            DeterministicCounter(6, 0.1),
            fanouts=[3],
            channel_factory=async_channels([3], UniformLatency(1.0, 4.0), seed=2),
        )
        result = run_tracking(network, updates, record_every=20)
        assert result.staleness.delivered == result.total_messages
        assert result.staleness.mean_age > 0
        assert result.staleness.inflight_highwater > 0
        assert result.final_clock >= 1_200

    def test_root_leg_is_causal(self):
        """A push formed inside an advance window is transmitted at the
        window frontier, never back-dated to the previous advance point."""
        spec = monotone_stream(2)
        updates = [u for u in assign_sites(spec, 2)]
        network = build_tree_network(
            NaiveCounter(2),
            fanouts=[2],
            channel_factory=async_channels(
                [2], ConstantLatency(10.0), seed=0, root_latency=ConstantLatency(1.0)
            ),
        )
        # The update at t=1 reaches site 0's shard coordinator at t=11,
        # inside advance_to(100): the push is transmitted at the frontier
        # (t=100) and lands at t=101 — it used to be back-dated to the root
        # clock of the *previous* advance point and land at t=1, before the
        # shard itself had formed the estimate.
        network.deliver_update(1, 0, 1)
        network.advance_to(100.0)
        assert network.root.reports == 0
        assert network.channel.in_flight == 1  # the push, on the root leg
        final_clock = network.drain()
        assert network.root.reports == 1
        assert final_clock >= 101.0
        assert network.estimate() == 1.0

    def test_mixed_transport_tree_rejected(self):
        """Async leaves under a synchronous root: one clock cannot drive it."""
        leaf_channels = async_channels([2], ConstantLatency(1.0))

        def channel_factory(level, position, num_ports):
            if level == 0:
                return None  # the root keeps the synchronous channel
            return leaf_channels(level, position, num_ports)

        network = build_tree_network(
            DeterministicCounter(4, 0.1), fanouts=[2], channel_factory=channel_factory
        )
        with pytest.raises(ProtocolError, match="mixes synchronous and asynchronous"):
            run_tracking(network, [])


class TestTopologyValidation:
    def test_unknown_site_rejected(self):
        network = build_tree_network(DeterministicCounter(4, 0.1), fanouts=[2])
        with pytest.raises(ProtocolError):
            network.deliver_update(1, 9, 1)
        with pytest.raises(ProtocolError):
            network.deliver_batch(9, [1], [1])

    @pytest.mark.parametrize("partition", PARTITION_NAMES)
    def test_more_shards_than_sites_rejected(self, partition):
        with pytest.raises(ConfigurationError, match="leaves"):
            build_tree_network(
                DeterministicCounter(2, 0.1), fanouts=[3], partition=partition
            )

    def test_unknown_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="partition"):
            build_tree_network(
                DeterministicCounter(4, 0.1), fanouts=[2], partition="nope"
            )

    def test_factory_without_shard_hook_rejected(self):
        class Bare:
            num_sites = 4

        with pytest.raises(ConfigurationError):
            build_tree_network(Bare(), fanouts=[2])

    def test_root_aggregator_needs_two_shards(self):
        with pytest.raises(ConfigurationError):
            RootAggregator(num_shards=1, num_sites=4)

    def test_uplink_refuses_stream_updates(self):
        network = build_tree_network(DeterministicCounter(4, 0.1), fanouts=[2])
        with pytest.raises(ProtocolError):
            network.shards[0].uplink.receive_update(1, 1)

    def test_seeded_factories_derive_per_shard_seeds(self):
        factory = RandomizedCounter(8, 0.1, seed=5)
        assert factory.shard_factory(4, 0).seed == 5
        assert factory.shard_factory(4, 1).seed == 6
        assert HuangCounter(8, 0.1, seed=3).shard_factory(2, 2).seed == 5
        assert RandomizedCounter(8, 0.1).shard_factory(4, 1).seed is None

    def test_reply_quorum_is_the_local_group_size(self):
        network = build_tree_network(DeterministicCounter(9, 0.1), fanouts=[3])
        for shard in network.shards:
            assert shard.coordinator.reply_quorum == shard.num_sites == 3
