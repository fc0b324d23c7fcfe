"""Sites built on first touch: a network pays for the sites its traffic reaches.

A tracker factory's ``build_network`` hands :class:`MonitoringNetwork` the
site count and its ``build_site`` instead of ``k`` built sites, and the
network builds site ``i`` the first time an update or a message addresses
it.  Laziness must be invisible: every case below runs the same workload on
a lazy network and on the same network built from an explicit site list,
and compares everything observable.  The million-site case pins the point
of the change: a few segments into a 4-level tree build exactly the sites
they touch.
"""

import tracemalloc

import numpy as np
import pytest

from repro.asynchrony import (
    UniformLatency,
    ZERO_LATENCY,
    async_channels,
)
from repro.baselines.naive import NaiveCoordinator, NaiveSite
from repro.core import DeterministicCounter, RandomizedCounter
from repro.exceptions import ProtocolError
from repro.monitoring import (
    MonitoringNetwork,
    build_tree_network,
    migrate_site,
    run_tracking,
)
from repro.monitoring.messages import BROADCAST_SITE, COORDINATOR, Message, MessageKind
from repro.streams import BlockedAssignment, assign_sites, random_walk_stream
from repro.streams.io import TraceColumns
from repro.types import Update

EPSILON = 0.1


def _build_eagerly(factory, channel=None):
    """The network ``factory`` builds, but from an explicit site list."""
    return MonitoringNetwork(
        factory.build_coordinator(),
        [factory.build_site(site_id) for site_id in range(factory.num_sites)],
        channel=channel,
    )


class EagerDeterministic(DeterministicCounter):
    """Deterministic tracker whose networks (tree leaves too) list every site."""

    def build_network(self, channel=None):
        return _build_eagerly(self, channel)


class EagerRandomized(RandomizedCounter):
    def build_network(self, channel=None):
        return _build_eagerly(self, channel)


def _factories(randomized, num_sites):
    if randomized:
        return (
            RandomizedCounter(num_sites, EPSILON, seed=5),
            EagerRandomized(num_sites, EPSILON, seed=5),
        )
    return (
        DeterministicCounter(num_sites, EPSILON),
        EagerDeterministic(num_sites, EPSILON),
    )


def _fingerprint(result):
    return (
        [
            (r.time, r.true_value, r.estimate, r.messages, r.bits)
            for r in result.records
        ],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
        result.levels,
    )


def _site_states(network):
    return [
        (site.site_id, site.level, site.count_since_report, site.block_value_change)
        for site in network.sites
    ]


def _updates(length, num_sites, block, seed=3):
    stream = random_walk_stream(length, seed=seed)
    return list(assign_sites(stream, num_sites, BlockedAssignment(block)))


class TestMillionSiteTree:
    def test_a_few_segments_build_exactly_the_touched_sites(self):
        network = build_tree_network(
            DeterministicCounter(1_000_000, EPSILON),
            fanouts=[10, 10, 10],
            epsilon_split="geometric",
        )
        rng = np.random.default_rng(11)
        touched = rng.choice(1_000_000, size=24, replace=False)
        sites = np.repeat(touched, 16)
        deltas = np.where(rng.random(sites.size) < 0.8, 1, -1)
        times = np.arange(1, sites.size + 1)
        result = run_tracking(
            network, TraceColumns(times, sites, deltas), record_every=64
        )
        assert result.records[-1].true_value == int(deltas.sum())

        # Contiguous sharding: leaf ``s // 1000`` owns site ``s``.
        per_leaf = {}
        for site in touched.tolist():
            per_leaf[site // 1000] = per_leaf.get(site // 1000, 0) + 1
        leaves = network.leaves()
        built = {
            index: leaf.network.num_built_sites
            for index, leaf in enumerate(leaves)
            if leaf.network.num_built_sites
        }
        assert built == per_leaf
        assert sum(built.values()) == touched.size

    def test_build_allocates_nothing_per_site(self):
        # Every node is built, but no site and no per-site table: a dense
        # table per leaf, or a list of site ids per node, would cost
        # megabytes here.
        _assert_million_site_build_is_lean(partition="contiguous")

    def test_strided_build_allocates_nothing_per_site(self):
        # Strided groups stay ``range``s routed with a divmod: a list of
        # site ids or a routing dictionary per node would cost megabytes.
        _assert_million_site_build_is_lean(partition="strided")


def _assert_million_site_build_is_lean(partition):
    """A k=10^6, 4-level tree builds under 8 MiB traced and builds no site."""
    tracemalloc.start()
    try:
        network = build_tree_network(
            DeterministicCounter(1_000_000, EPSILON),
            fanouts=[10, 10, 10],
            partition=partition,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"tree build peaked at {peak / 2**20:.1f} MiB"
    assert sum(leaf.network.num_built_sites for leaf in network.leaves()) == 0


class TestLazyMatchesExplicit:
    @pytest.mark.parametrize("randomized", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    def test_block_closes(self, randomized, batched):
        """Closes reach untouched sites (real requests, or simulated ones)."""
        lazy_factory, eager_factory = _factories(randomized, 8)
        updates = _updates(3_000, 8, block=200)
        lazy = lazy_factory.build_network()
        eager = eager_factory.build_network()
        assert lazy.num_built_sites == 0 and eager.num_built_sites == 8
        lazy_result = run_tracking(lazy, updates, record_every=50, batched=batched)
        eager_result = run_tracking(eager, updates, record_every=50, batched=batched)
        assert lazy.coordinator.blocks_completed > 0
        assert _fingerprint(lazy_result) == _fingerprint(eager_result)
        assert _site_states(lazy) == _site_states(eager)

    def test_broadcast_reaches_unbuilt_sites(self):
        lazy_factory, eager_factory = _factories(False, 6)
        networks = [lazy_factory.build_network(), eager_factory.build_network()]
        for network in networks:
            network.deliver_update(1, 2, 1)
            network.coordinator.send(
                Message(
                    kind=MessageKind.BROADCAST,
                    sender=COORDINATOR,
                    receiver=BROADCAST_SITE,
                    payload={"level": 3},
                    time=1,
                )
            )
        lazy, eager = networks
        assert lazy.num_built_sites == 6
        assert _site_states(lazy) == _site_states(eager)
        assert [site.level for site in lazy.sites] == [3] * 6
        assert lazy.stats == eager.stats

    def test_sites_builds_the_missing_ones_in_id_order(self):
        # 40 updates at level 0 stay short of the 50-report block trigger.
        lazy_factory, eager_factory = _factories(True, 50)
        lazy = lazy_factory.build_network()
        eager = eager_factory.build_network()
        for network in (lazy, eager):
            network.deliver_batch(3, list(range(1, 41)), [1] * 40)
        assert lazy.coordinator.blocks_completed == 0
        assert lazy.num_built_sites == 1
        assert [site.site_id for site in lazy.sites] == list(range(50))
        assert lazy.num_built_sites == 50
        assert _site_states(lazy) == _site_states(eager)
        assert [site._rng.random() for site in lazy.sites] == [
            site._rng.random() for site in eager.sites
        ]

    def test_message_log(self):
        lazy_factory, eager_factory = _factories(False, 6)
        updates = _updates(1_500, 6, block=100)
        lazy = lazy_factory.build_network()
        eager = eager_factory.build_network()
        lazy.channel.enable_log()
        eager.channel.enable_log()
        lazy_result = run_tracking(lazy, updates, record_every=25, batched=True)
        eager_result = run_tracking(eager, updates, record_every=25, batched=True)
        assert _fingerprint(lazy_result) == _fingerprint(eager_result)
        assert lazy.channel.log == eager.channel.log

    @pytest.mark.parametrize("site_id", [1, 3])
    def test_migration_out_of_a_partially_built_leaf(self, site_id):
        """Move a touched (1) or an untouched (3) site out of a leaf of four."""
        lazy_factory, eager_factory = _factories(False, 12)
        head = [Update(time=t, site=t % 2, delta=1) for t in range(1, 31)]
        tail = [
            Update(time=t, site=(t * 7) % 12, delta=1 if t % 3 else -1)
            for t in range(31, 400)
        ]
        results = []
        for factory in (lazy_factory, eager_factory):
            network = build_tree_network(factory, fanouts=[3])
            run_tracking(network, head, record_every=10, batched=True)
            report = migrate_site(network, site_id, dest_leaf=2, time=30)
            result = run_tracking(network, tail, record_every=10, batched=True)
            results.append(
                (
                    report,
                    _fingerprint(result),
                    [_site_states(leaf.network) for leaf in network.leaves()],
                )
            )
        assert results[0] == results[1]
        assert results[0][0].handoff_messages > 0


class TestAsyncTreeLeaves:
    """Leaves take their async channel at build time and stay lazy."""

    @staticmethod
    def _tree(factory, latency):
        return build_tree_network(
            factory,
            fanouts=[2, 2],
            channel_factory=async_channels([2, 2], latency, seed=3),
        )

    @pytest.mark.parametrize(
        "latency",
        [ZERO_LATENCY, UniformLatency(0.5, 3.0)],
        ids=["zero-latency", "jittered"],
    )
    def test_builds_touched_sites_and_matches_the_eager_build(self, latency):
        lazy_factory, eager_factory = _factories(False, 16)
        network = self._tree(lazy_factory, latency)
        assert sum(leaf.network.num_built_sites for leaf in network.leaves()) == 0
        # Sites 0, 5 and 9 sit in leaves 0, 1 and 2; five updates close no
        # block, so no broadcast reaches an untouched site.
        for time, site in enumerate([0, 5, 9, 0, 5], start=1):
            network.advance_to(time)
            network.deliver_update(time, site, 1)
        leaves = network.leaves()
        assert [leaf.network.coordinator.blocks_completed for leaf in leaves] == [0] * 4
        assert [leaf.network.num_built_sites for leaf in leaves] == [1, 1, 1, 0]

        updates = _updates(3_000, 16, block=100)
        lazy = run_tracking(
            self._tree(lazy_factory, latency), updates, record_every=50
        )
        eager = run_tracking(
            self._tree(eager_factory, latency), updates, record_every=50
        )
        assert _fingerprint(lazy) == _fingerprint(eager)
        assert lazy.staleness == eager.staleness
        assert (lazy.final_clock, lazy.final_estimate) == (
            eager.final_clock,
            eager.final_estimate,
        )


class TestSiteIdContract:
    def test_builder_returning_the_wrong_id_is_refused(self):
        network = MonitoringNetwork(
            NaiveCoordinator(), 3, build_site=lambda site_id: NaiveSite(0)
        )
        network.deliver_update(1, 0, 1)
        with pytest.raises(ProtocolError, match="site builder returned site 0"):
            network.deliver_update(2, 2, 1)

    def test_builder_needs_a_positive_site_count(self):
        with pytest.raises(ProtocolError):
            MonitoringNetwork(NaiveCoordinator(), 0, build_site=NaiveSite)

    def test_explicit_list_keeps_its_contract(self):
        network = MonitoringNetwork(NaiveCoordinator(), [NaiveSite(1), NaiveSite(0)])
        assert network.num_built_sites == 2
        with pytest.raises(ProtocolError, match="exactly 0..1"):
            MonitoringNetwork(NaiveCoordinator(), [NaiveSite(0), NaiveSite(2)])
