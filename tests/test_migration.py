"""Live site migration: exact handoff, visible cost, strict preconditions.

The headline claim: after ``migrate_site`` moves a site between leaf
shards, the destination leaf behaves *bit-for-bit* as if the migrated site
had lived there from the handoff point onward — same coordinator state,
same site states, same estimates and same post-handoff traffic as a
reference leaf bootstrapped from the identical checkpoint and fed the
identical suffix substream.  Alongside that: global site ids stay stable,
the root's merged view stays the exact sum of the leaves, the handoff's
cost is charged on the real channels (and itemised in the report), and the
protocol refuses the configurations it cannot serve exactly.
"""

import pytest

from repro.asynchrony import UniformLatency, async_channels
from repro.baselines import CormodeCounter, NaiveCounter
from repro.core import DeterministicCounter, RandomizedCounter
from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring import (
    ChannelStats,
    build_tree_network,
    leaf_groups,
    migrate_site,
)
from repro.streams import RoundRobinAssignment, assign_sites, random_walk_stream


def _updates(n, k, seed=7):
    return list(
        assign_sites(random_walk_stream(n, seed=seed), k, RoundRobinAssignment())
    )


def _site_totals(updates, k):
    values = [0] * k
    counts = [0] * k
    for update in updates:
        values[update.site] += update.delta
        counts[update.site] += 1
    return values, counts


def _leaf_state(network):
    """Full observable state of a flat leaf network, for bitwise comparison."""
    coordinator = network.coordinator
    return (
        coordinator.level,
        coordinator.boundary_value,
        coordinator.boundary_time,
        coordinator.reported_updates,
        network.estimate(),
        [
            (site.level, site.count_since_report, site.block_value_change)
            for site in network.sites
        ],
    )


class TestExactHandoff:
    @pytest.mark.parametrize("randomized", [False, True])
    def test_dest_leaf_is_bitwise_a_native_resident(self, randomized):
        """After the handoff, the dest leaf == a leaf the site always lived in.

        Reference: a standalone leaf over the destination's new membership,
        bootstrapped from the same checkpoint, fed the same suffix.
        """
        k = 6
        factory = (
            RandomizedCounter(k, 0.1, seed=11)
            if randomized
            else DeterministicCounter(k, 0.1)
        )
        net = build_tree_network(factory, fanouts=[2])
        updates = _updates(5000, k)
        prefix, suffix = updates[:2500], updates[2500:]
        for update in prefix:
            net.deliver_update(update.time, update.site, update.delta)

        report = migrate_site(net, 1, dest_leaf=1, time=prefix[-1].time)
        assert report.site_id == 1
        assert (report.source_leaf, report.dest_leaf) == (0, 1)

        group = leaf_groups(net)[1]
        assert group == [3, 4, 5, 1]
        values, counts = _site_totals(prefix, k)

        # The reference leaf: same factory recipe, same checkpoint.
        ref_factory = factory.shard_factory(len(group), 1)
        ref = ref_factory.build_network()
        ref_factory.bootstrap_network(
            ref,
            [values[s] for s in group],
            [counts[s] for s in group],
        )
        dest = net.leaves()[1].network
        assert _leaf_state(dest) == _leaf_state(ref)
        before = ChannelStats.merge([dest.channel.stats])

        for update in suffix:
            net.deliver_update(update.time, update.site, update.delta)
            if update.site in group:
                ref.deliver_update(
                    update.time, group.index(update.site), update.delta
                )
            assert dest.estimate() == ref.estimate()

        assert _leaf_state(dest) == _leaf_state(ref)
        # Post-handoff traffic on the adopted channel == the reference's
        # whole-life traffic (the adopted counters only shift the baseline).
        assert (
            dest.channel.stats.messages - before.messages
            == ref.channel.stats.messages
        )
        assert dest.channel.stats.bits - before.bits == ref.channel.stats.bits

    def test_root_stays_exact_and_ids_stable_across_depths(self):
        k = 12
        net = build_tree_network(DeterministicCounter(k, 0.1), fanouts=[2, 3])
        updates = _updates(6000, k)
        prefix, suffix = updates[:3000], updates[3000:]
        for update in prefix:
            net.deliver_update(update.time, update.site, update.delta)
        migrate_site(net, 0, dest_leaf=5, time=prefix[-1].time)
        # Global ids keep addressing the same logical sites.
        assert 0 in leaf_groups(net)[5]
        for update in suffix:
            net.deliver_update(update.time, update.site, update.delta)
        assert net.estimate() == sum(
            leaf.network.estimate() for leaf in net.leaves()
        )
        values, _ = _site_totals(updates, k)
        eps = 0.1
        assert abs(net.estimate() - sum(values)) <= eps * abs(sum(values)) + k

    def test_naive_counter_migrates_exactly(self):
        k = 4
        net = build_tree_network(NaiveCounter(k), fanouts=[2])
        updates = _updates(2000, k)
        prefix, suffix = updates[:1000], updates[1000:]
        for update in prefix:
            net.deliver_update(update.time, update.site, update.delta)
        migrate_site(net, 0, dest_leaf=1, time=prefix[-1].time)
        for update in suffix:
            net.deliver_update(update.time, update.site, update.delta)
        values, _ = _site_totals(updates, k)
        assert net.estimate() == sum(values)

    def test_migration_works_on_legacy_sharded_builder(self):
        net = build_tree_network(DeterministicCounter(8, 0.1), fanouts=[4])
        for update in _updates(1000, 8):
            net.deliver_update(update.time, update.site, update.delta)
        report = migrate_site(net, 2, dest_leaf=3, time=1000)
        assert report.dest_leaf == 3
        assert 2 in leaf_groups(net)[3]


class TestHandoffCost:
    def test_report_itemises_what_the_channels_charged(self):
        k = 8
        net = build_tree_network(DeterministicCounter(k, 0.1), fanouts=[2, 2])
        updates = _updates(3000, k)
        for update in updates:
            net.deliver_update(update.time, update.site, update.delta)
        total_before = ChannelStats.merge(net.level_stats())
        # Site 0: leaf 0 (subtree 0) -> leaf 3 (subtree 1): the two leaf
        # checkpoints plus three aggregator levels crossed (both mid-level
        # nodes and the root).
        report = migrate_site(net, 0, dest_leaf=3, time=3000)
        total_after = ChannelStats.merge(net.level_stats())
        assert report.checkpoint_messages == 3 * (1 + 3)
        assert report.transfer_hops == 3
        assert (
            report.handoff_messages
            == report.checkpoint_messages + report.transfer_hops
        )
        # Channels also carry the re-register refresh pushes (one report per
        # wrapper on the two affected paths: both leaves + both mid nodes),
        # which are ordinary protocol traffic, not handoff bookkeeping.
        refresh_pushes = 4
        assert (
            total_after.messages - total_before.messages
            == report.handoff_messages + refresh_pushes
        )
        assert total_after.bits - total_before.bits > report.handoff_bits
        assert report.handoff_bits > 0

    def test_intra_subtree_move_crosses_fewer_levels(self):
        k = 8
        net = build_tree_network(DeterministicCounter(k, 0.1), fanouts=[2, 2])
        for update in _updates(1000, k):
            net.deliver_update(update.time, update.site, update.delta)
        # Leaf 0 -> leaf 1 share their mid-level parent; only that node and
        # the root see the transfer.
        report = migrate_site(net, 0, dest_leaf=1, time=1000)
        assert report.transfer_hops == 2


class TestAsyncMigration:
    def test_drain_then_exact_handoff_under_jitter(self):
        k = 8
        net = build_tree_network(
            DeterministicCounter(k, 0.1),
            fanouts=[2, 2],
            channel_factory=async_channels([2, 2], UniformLatency(0.0, 4.0), seed=13),
        )
        updates = _updates(4000, k)
        prefix, suffix = updates[:2000], updates[2000:]
        for update in prefix:
            net.deliver_update(update.time, update.site, update.delta)
        report = migrate_site(net, 1, dest_leaf=2, time=prefix[-1].time)
        assert report.transfer_hops >= 2
        for update in suffix:
            net.deliver_update(update.time, update.site, update.delta)
        net.drain()
        # Once drained, aggregation is exact again all the way up.
        assert net.estimate() == sum(
            leaf.network.estimate() for leaf in net.leaves()
        )

    def test_async_migration_preserves_cumulative_accounting(self):
        k = 4
        net = build_tree_network(
            DeterministicCounter(k, 0.1),
            fanouts=[2],
            channel_factory=async_channels([2], UniformLatency(0.0, 2.0), seed=7),
        )
        for update in _updates(1500, k):
            net.deliver_update(update.time, update.site, update.delta)
        # Settle first so the measured delta is the migration's alone (the
        # drain inside migrate_site lands in-flight messages, whose
        # deliveries trigger ordinary protocol responses).
        net.drain()
        before = ChannelStats.merge(net.level_stats())
        report = migrate_site(net, 0, dest_leaf=1, time=1500)
        after = ChannelStats.merge(net.level_stats())
        # Handoff traffic plus one refresh push per affected leaf wrapper.
        assert after.messages - before.messages == report.handoff_messages + 2


class TestRefusals:
    def _net(self, k=6):
        net = build_tree_network(DeterministicCounter(k, 0.1), fanouts=[2])
        for update in _updates(500, k):
            net.deliver_update(update.time, update.site, update.delta)
        return net

    def test_refuses_while_transcript_logging(self):
        net = self._net()
        net.channel.enable_log()
        with pytest.raises(ProtocolError, match="transcript"):
            migrate_site(net, 0, dest_leaf=1)

    def test_refuses_unknown_site(self):
        with pytest.raises(ProtocolError, match="does not exist"):
            migrate_site(self._net(), 99, dest_leaf=1)

    def test_refuses_same_leaf(self):
        with pytest.raises(ConfigurationError, match="already lives"):
            migrate_site(self._net(), 0, dest_leaf=0)

    def test_refuses_bad_destination(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            migrate_site(self._net(), 0, dest_leaf=5)

    def test_refuses_emptying_a_leaf(self):
        net = build_tree_network(DeterministicCounter(2, 0.1), fanouts=[2])
        with pytest.raises(ConfigurationError, match="last site"):
            migrate_site(net, 0, dest_leaf=1)

    def test_refuses_flat_network(self):
        flat = DeterministicCounter(4, 0.1).build_network()
        with pytest.raises(ConfigurationError, match="top-level"):
            migrate_site(flat, 0, dest_leaf=1)

    def test_refuses_nested_subtree(self):
        net = build_tree_network(DeterministicCounter(8, 0.1), fanouts=[2, 2])
        with pytest.raises(ConfigurationError, match="top-level"):
            migrate_site(net.shards[0].network, 0, dest_leaf=1)

    def test_refuses_tracker_without_bootstrap(self):
        net = build_tree_network(CormodeCounter(4, 0.1), fanouts=[2])
        for update in _updates(200, 4):
            net.deliver_update(update.time, update.site, update.delta)
        with pytest.raises(ConfigurationError, match="bootstrap_network"):
            migrate_site(net, 0, dest_leaf=1)
