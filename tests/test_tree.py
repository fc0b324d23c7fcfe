"""The recursive tree's contracts: shape, budgets, accounting, deadbands.

Central claims pinned here:

* the spec's shape shorthands (shards/levels/fanout/fanouts) resolve to one
  fan-out list, and contradictions fail with a field-naming ``SpecError``
  before any network is built;
* the error-budget split rules return valid per-level budgets (non-
  negative, leaf budget positive, summing to ``eps``), and the default
  leaf split keeps aggregation exact;
* a tree of any depth keeps every internal node's estimate equal to the
  exact sum of its children (the hypothesis version lives in
  ``tests/test_tree_property.py``), and its per-level accounting decomposes
  the total;
* the running ``(messages, bits)`` a record reads equals the per-channel
  sums at every record, on every engine and transport and across a
  migration;
* ``shards=S``, ``levels=2, fanout=S`` and ``fanouts=[S]`` resolve to the
  same fan-out list, so they build the same tree;
* push and broadcast deadbands suppress traffic and count what they saved;
* on an asynchronous tree, a clock step and a delivery path check only the
  rows whose channels delivered since their last check (the golden cases
  pin that the outputs stay).
"""

import numpy as np
import pytest

from repro.api import RunSpec, SourceSpec, TopologySpec, TrackerSpec, TransportSpec
from repro.asynchrony import (
    UniformLatency,
    async_channels,
)
from repro.core import DeterministicCounter, RandomizedCounter
from repro.exceptions import ConfigurationError, SpecError
from repro.faults import FaultPlan, enable_close_repair
from repro.monitoring import (
    EPSILON_SPLIT_NAMES,
    ChannelStats,
    ShardCoordinator,
    ShardedNetwork,
    build_tree_network,
    leaf_groups,
    migrate_site,
    run_tracking,
    split_budgets,
)
from repro.monitoring import runner as runner_module
from repro.streams import (
    BlockedAssignment,
    RoundRobinAssignment,
    assign_sites,
    monotone_stream,
    random_walk_stream,
)
from repro.streams.io import TraceColumns


def _updates(n, k, seed=7):
    return assign_sites(random_walk_stream(n, seed=seed), k, RoundRobinAssignment())


@pytest.fixture
def push_checks(monkeypatch):
    """Rows whose ``push_estimate`` ran, one entry per call."""
    calls = []
    push = ShardCoordinator.push_estimate

    def counted(row, time):
        calls.append(row)
        push(row, time)

    monkeypatch.setattr(ShardCoordinator, "push_estimate", counted)
    return calls


class TestResolveFanouts:
    """The spec layer resolves every shape shorthand to one fan-out list."""

    @staticmethod
    def resolve(**shape):
        return TopologySpec(**shape).resolve_fanouts()

    def test_levels_and_fanout_expand_uniformly(self):
        assert self.resolve(levels=4, fanout=3) == [3, 3, 3]

    def test_levels_one_is_flat(self):
        assert self.resolve(levels=1) == []

    def test_explicit_fanouts_win(self):
        assert self.resolve(fanouts=[4, 2]) == [4, 2]

    def test_levels_may_restate_fanouts(self):
        # A disagreeing ``levels`` is one of the bad shapes below.
        assert self.resolve(levels=3, fanouts=[4, 2]) == [4, 2]

    def test_no_shape_at_all_is_flat(self):
        assert self.resolve() == []

    @pytest.mark.parametrize("shards", [2, 3, 4, 5])
    def test_every_spelling_of_one_level_of_shards_is_one_tree(self, shards):
        # ``shards=S``, ``levels=2, fanout=S`` and ``fanouts=[S]`` hand the
        # builder the same list, so they build the same tree.
        assert (
            self.resolve(shards=shards)
            == self.resolve(levels=2, fanout=shards)
            == self.resolve(fanouts=[shards])
            == [shards]
        )

    @pytest.mark.parametrize(
        "shape",
        [
            {"levels": 3},
            {"fanout": 2},
            {"levels": 1, "fanout": 2},
            {"levels": 0, "fanout": 2},
            {"levels": 2, "fanout": 1},
            {"fanout": 2, "fanouts": [2]},
            {"levels": 3, "fanouts": [2]},
            {"fanouts": [3, 1]},
        ],
        ids=lambda shape: ",".join(f"{key}={value}" for key, value in shape.items()),
    )
    def test_bad_shapes_name_the_field(self, shape):
        with pytest.raises(SpecError, match=r"topology\."):
            self.resolve(**shape)
        with pytest.raises(SpecError, match=r"topology\."):
            TopologySpec(**shape).validate()


class TestSplitBudgets:
    def test_leaf_split_concentrates_at_leaves(self):
        assert split_budgets("leaf", 0.1, 3) == [0.0, 0.0, 0.1]

    def test_uniform_split_is_equal(self):
        assert split_budgets("uniform", 0.3, 3) == [0.3 / 3] * 3

    def test_geometric_split_sums_to_eps_leaf_largest(self):
        budgets = split_budgets("geometric", 0.07, 3)
        assert sum(budgets) == pytest.approx(0.07)
        assert budgets == pytest.approx([0.01, 0.02, 0.04])

    def test_geometric_ratio_shapes_the_split(self):
        budgets = split_budgets("geometric", 0.1, 3, ratio=0.3)
        assert budgets == pytest.approx([0.1 * w / 1.39 for w in (0.09, 0.3, 1.0)])

    @pytest.mark.parametrize("name", EPSILON_SPLIT_NAMES)
    def test_budgets_are_valid_for_every_rule(self, name):
        for levels in (1, 2, 5):
            budgets = split_budgets(name, 0.2, levels)
            assert len(budgets) == levels
            assert all(budget >= 0.0 for budget in budgets)
            assert 0.0 < budgets[-1] <= 0.2
            assert sum(budgets) == pytest.approx(0.2)

    @pytest.mark.parametrize("ratio", [0.0, 1.0])
    def test_builder_checks_the_geometric_ratio(self, ratio):
        factory = DeterministicCounter(4, 0.1)
        with pytest.raises(ConfigurationError, match="ratio"):
            build_tree_network(
                factory, fanouts=[2], epsilon_split="geometric", split_ratio=ratio
            )
        # Only the geometric rule reads the ratio.
        build_tree_network(factory, fanouts=[2], split_ratio=ratio)

    def test_builder_rejects_unknown_split(self):
        with pytest.raises(ConfigurationError, match="epsilon_split"):
            build_tree_network(
                DeterministicCounter(4, 0.1), fanouts=[2], epsilon_split="nope"
            )

    def test_budgets_land_on_the_tree(self):
        net = build_tree_network(
            DeterministicCounter(8, 0.2),
            fanouts=[2, 2],
            epsilon_split="geometric",
        )
        # Wrappers at node level l carry the level-l budget as push deadband.
        top = net.shards[0]
        assert top.push_deadband == pytest.approx(0.2 / 7)
        assert top.children[0].push_deadband == pytest.approx(0.4 / 7)
        # Every leaf tracker runs with the leaf budget.
        for leaf in net.leaves():
            assert leaf.network.coordinator.epsilon == pytest.approx(0.8 / 7)

    def test_default_leaf_split_keeps_leaf_epsilon(self):
        net = build_tree_network(DeterministicCounter(8, 0.2), fanouts=[2, 2])
        for leaf in net.leaves():
            assert leaf.network.coordinator.epsilon == 0.2
            assert leaf.push_deadband == 0.0


class TestTreeShape:
    def test_depth_and_leaf_count(self):
        net = build_tree_network(DeterministicCounter(27, 0.1), fanouts=[3, 3, 3])
        assert net.num_levels == 4
        assert len(net.leaves()) == 3 * 3 * 3  # one site per leaf
        assert net.num_sites == 27

    def test_leaf_groups_partition_the_sites(self):
        net = build_tree_network(
            DeterministicCounter(10, 0.1), fanouts=[2, 2]
        )
        groups = leaf_groups(net)
        assert sorted(s for group in groups for s in group) == list(range(10))
        assert all(group for group in groups)

    def test_strided_partition_composes(self):
        net = build_tree_network(
            DeterministicCounter(8, 0.1), fanouts=[2, 2], partition="strided"
        )
        # Top split strides global ids; the nested splits stride positions
        # within each group.
        assert leaf_groups(net) == [[0, 4], [2, 6], [1, 5], [3, 7]]

    @pytest.mark.parametrize("fanouts", [[2, 1], [0]])
    def test_fanout_below_two_rejected(self, fanouts):
        with pytest.raises(ConfigurationError, match="fan-out >= 2"):
            build_tree_network(DeterministicCounter(8, 0.1), fanouts=fanouts)

    def test_more_leaves_than_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree_network(DeterministicCounter(7, 0.1), fanouts=[2, 2, 2])

    def test_flat_shape_builds_flat_network(self):
        net = build_tree_network(DeterministicCounter(5, 0.1), fanouts=[])
        assert not isinstance(net, ShardedNetwork)
        assert net.num_sites == 5

    def test_factory_without_shard_factory_rejected(self):
        class NoShards:
            num_sites = 4
            epsilon = 0.1
            shard_factory = None

        with pytest.raises(ConfigurationError):
            build_tree_network(NoShards(), fanouts=[2])

    @pytest.mark.parametrize(
        "tree, transport",
        [([2, 3], [3, 2]), ([], [4]), ([4], []), ([2, 2], [2, 2, 2])],
    )
    def test_channel_factory_must_fit_the_tree(self, tree, transport):
        with pytest.raises(ConfigurationError, match="fanouts"):
            build_tree_network(
                DeterministicCounter(8, 0.1),
                fanouts=tree,
                channel_factory=async_channels(transport, UniformLatency(0.0, 1.0)),
            )

    def test_plain_build_network_suffices_without_a_transport(self):
        class Plain:
            """A tracker factory whose build_network takes no channel."""

            def __init__(self, num_sites):
                self.num_sites = num_sites
                self.epsilon = 0.1

            def build_network(self):
                return DeterministicCounter(self.num_sites, self.epsilon).build_network()

            def shard_factory(self, num_sites, shard_id):
                return Plain(num_sites)

        assert build_tree_network(Plain(6), fanouts=[]).num_sites == 6
        assert build_tree_network(Plain(6), fanouts=[2]).num_sites == 6
        assert build_tree_network(
            Plain(6), fanouts=[2], channel_factory=lambda *node: None
        ).num_sites == 6


class TestTreeTracking:
    def test_root_estimate_is_exact_sum_of_leaves(self):
        net = build_tree_network(DeterministicCounter(12, 0.1), fanouts=[3, 2])
        for update in _updates(4000, 12):
            net.deliver_update(update.time, update.site, update.delta)
        total = sum(leaf.network.estimate() for leaf in net.leaves())
        assert net.estimate() == pytest.approx(total)

    def test_level_stats_decompose_total(self):
        net = build_tree_network(DeterministicCounter(12, 0.1), fanouts=[2, 2])
        result = run_tracking(net, _updates(4000, 12), record_every=500)
        merged = ChannelStats.merge(net.level_stats())
        assert merged.messages == result.total_messages
        assert merged.bits == result.total_bits
        assert merged.by_kind == result.messages_by_kind

    def test_level_summary_shape_and_roles(self):
        net = build_tree_network(DeterministicCounter(12, 0.1), fanouts=[2, 2])
        result = run_tracking(net, _updates(3000, 12), record_every=500)
        rows = result.levels
        assert [row["level"] for row in rows] == [0, 1, 2]
        assert [row["role"] for row in rows] == ["aggregate", "aggregate", "leaf"]
        assert rows[0]["nodes"] == 1 and rows[1]["nodes"] == 2
        assert rows[2]["nodes"] == 4
        # Aggregation levels carry only pushes (reports) and level re-sends.
        assert set(rows[0]["messages_by_kind"]) <= {"report", "broadcast"}

    def test_flat_run_has_no_levels_view(self):
        result = DeterministicCounter(4, 0.1).track(_updates(500, 4))
        assert result.levels is None


def _assert_exact_totals(network):
    """The view's running totals equal the per-channel sums and the stats."""
    channels = network.channel.channels
    summed = (
        sum(channel.stats.messages for channel in channels),
        sum(channel.stats.bits for channel in channels),
    )
    stats = network.stats
    assert network.channel.totals() == summed == (stats.messages, stats.bits)


@pytest.fixture
def checked_records(monkeypatch):
    """Check the running totals at every record; list the records checked."""
    checked = []
    record = runner_module._record

    def checking(result, network, time, true_value):
        _assert_exact_totals(network)
        checked.append(time)
        record(result, network, time, true_value)

    monkeypatch.setattr(runner_module, "_record", checking)
    return checked


def _blocked_updates(n, k, seed=7):
    stream = random_walk_stream(n, seed=seed)
    return list(assign_sites(stream, k, BlockedAssignment(48)))


def _run(network, updates, engine, record_every=10):
    if engine == "arrays":
        updates = TraceColumns(
            np.array([u.time for u in updates]),
            np.array([u.site for u in updates]),
            np.array([u.delta for u in updates]),
        )
        return run_tracking(network, updates, record_every=record_every)
    return run_tracking(
        network, updates, record_every=record_every, batched=engine == "batched"
    )


def _async_tree(faults=None):
    return build_tree_network(
        DeterministicCounter(8, 0.1),
        fanouts=[2, 2],
        channel_factory=async_channels(
            [2, 2], UniformLatency(0.5, 3.0), seed=11, faults=faults
        ),
    )


class TestRunningTotals:
    """A tree's ``channel.totals()`` is exact at every record, on every path."""

    @pytest.mark.parametrize("engine", ["per-update", "batched", "arrays"])
    def test_synchronous_engines(self, checked_records, engine):
        net = build_tree_network(DeterministicCounter(8, 0.1), fanouts=[2, 2])
        result = _run(net, _blocked_updates(3000, 8), engine)
        assert len(checked_records) == len(result.records) > 0
        assert result.records[-1].messages == result.total_messages > 0
        _assert_exact_totals(net)

    @pytest.mark.parametrize("engine", ["per-update", "batched"])
    def test_async(self, checked_records, engine):
        net = _async_tree()
        result = _run(net, _blocked_updates(3000, 8), engine)
        assert len(checked_records) == len(result.records) > 0
        _assert_exact_totals(net)
        assert net.channel.totals() == (result.total_messages, result.total_bits)

    def test_lossy_with_repair(self, checked_records):
        net = _async_tree(faults=FaultPlan(loss=0.1, seed=5))
        enable_close_repair(net)
        result = _run(net, _blocked_updates(2000, 8), "per-update")
        assert result.dropped > 0 and result.retransmitted > 0
        assert len(checked_records) == len(result.records) > 0
        _assert_exact_totals(net)

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_across_a_migration(self, checked_records, asynchronous):
        net = (
            _async_tree()
            if asynchronous
            else build_tree_network(DeterministicCounter(8, 0.1), fanouts=[2, 2])
        )
        updates = _updates(3000, 8)
        first = run_tracking(net, updates[:1500], record_every=25)
        _assert_exact_totals(net)
        before = net.channel.totals()
        report = migrate_site(net, 1, dest_leaf=3, time=updates[1499].time)
        _assert_exact_totals(net)
        assert net.channel.totals()[0] >= before[0] + report.handoff_messages
        second = run_tracking(net, updates[1500:], record_every=25)
        assert len(checked_records) == len(first.records) + len(second.records)
        _assert_exact_totals(net)


class TestDeadbands:
    def test_push_deadband_suppresses_and_counts(self):
        exact = build_tree_network(DeterministicCounter(8, 0.1), fanouts=[2])
        damped = build_tree_network(
            DeterministicCounter(8, 0.1),
            fanouts=[2],
            epsilon_split="uniform",
        )
        updates = _updates(4000, 8)
        run_tracking(exact, list(updates), record_every=400)
        run_tracking(damped, list(updates), record_every=400)
        suppressed = sum(s.pushes_suppressed for s in damped.shards)
        assert suppressed > 0
        assert (
            damped.root_network.channel.stats.messages
            < exact.root_network.channel.stats.messages
        )
        # The saved pushes are visible in the per-level accounting.
        assert damped.level_summary()[0]["pushes_suppressed"] == suppressed

    def test_uniform_split_error_stays_within_total_budget(self):
        net = build_tree_network(
            DeterministicCounter(8, 0.1),
            fanouts=[2, 2],
            epsilon_split="uniform",
        )
        updates = assign_sites(
            monotone_stream(6000), 8, RoundRobinAssignment()
        )
        result = run_tracking(net, updates, record_every=1)
        # End-to-end bound: prod(1 + eps/L) - 1 <= e^eps - 1; allow the
        # deterministic tracker's additive slack at small values by checking
        # violations of the *total* budget over the monotone tail only.
        tail = [r for r in result.records if abs(r.true_value) >= 64]
        assert tail, "stream never reached the asymptotic regime"
        for record in tail:
            bound = ((1 + 0.1 / 3) ** 3 - 1) * abs(record.true_value) + 3
            assert abs(record.estimate - record.true_value) <= bound

    def test_broadcast_deadband_suppresses_level_resends(self):
        exact = build_tree_network(
            DeterministicCounter(8, 0.1), fanouts=[2]
        )
        damped = build_tree_network(
            DeterministicCounter(8, 0.1),
            fanouts=[2],
            broadcast_deadband=0.5,
        )
        updates = _updates(6000, 8)
        run_tracking(exact, list(updates), record_every=400)
        run_tracking(damped, list(updates), record_every=400)
        root = damped.root_network.coordinator
        assert root.broadcasts_suppressed > 0
        exact_casts = exact.root_network.channel.stats.by_kind.get("broadcast", 0)
        damped_casts = damped.root_network.channel.stats.by_kind.get("broadcast", 0)
        assert damped_casts < exact_casts
        assert (
            damped.level_summary()[0]["broadcasts_suppressed"]
            == root.broadcasts_suppressed
        )

    def test_negative_broadcast_deadband_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree_network(
                DeterministicCounter(4, 0.1),
                fanouts=[2],
                broadcast_deadband=-0.1,
            )


class TestAsyncTree:
    def test_deep_tree_settles_on_exact_sum_after_drain(self):
        net = build_tree_network(
            RandomizedCounter(12, 0.1, seed=3),
            fanouts=[2, 2],
            channel_factory=async_channels([2, 2], UniformLatency(0.0, 3.0), seed=5),
        )
        result = run_tracking(net, _updates(3000, 12), record_every=300)
        total = sum(leaf.network.estimate() for leaf in net.leaves())
        assert result.final_estimate == pytest.approx(total)
        assert result.levels is not None and len(result.levels) == 3

    def test_multi_hop_latency_ages_accumulate_per_level(self):
        net = build_tree_network(
            DeterministicCounter(8, 0.1),
            fanouts=[2, 2],
            channel_factory=async_channels([2, 2], UniformLatency(1.0, 3.0), seed=2),
        )
        run_tracking(net, _updates(2000, 8), record_every=200)
        # Every level saw deliveries with real in-flight time.
        for channel in net.channel.channels:
            assert channel.delivered_count > 0

    def test_clock_step_on_a_quiescent_tree_checks_no_estimate(self, push_checks):
        net = build_tree_network(
            DeterministicCounter(8, 0.1),
            fanouts=[2, 2],
            channel_factory=async_channels([2, 2], UniformLatency(1.0, 3.0), seed=2),
        )
        run_tracking(net, _updates(500, 8), record_every=50)
        assert net.channel.in_flight == 0
        estimates = [row.estimate() for row in net.nodes]
        push_checks.clear()
        for until in (600, 601.5, 10_000):
            net.advance_to(until)
        assert push_checks == []
        assert [row.estimate() for row in net.nodes] == estimates
        assert net.channel.now == 10_000

    def test_lossy_tree_checks_at_most_one_estimate_per_update(self, push_checks):
        # The shape of perfbench's lossy-tree-async workload.  Checking every
        # row would make 8 checks per update here: 2 on the delivery path
        # and 6 in the clock walk.  Both check only the rows whose channels
        # delivered since their last check, ~0.53 per update.
        length = 5_000
        spec = RunSpec(
            source=SourceSpec(
                stream="biased_walk",
                length=length,
                seed=21,
                sites=8,
                params={"drift": 0.5},
            ),
            tracker=TrackerSpec(name="deterministic", epsilon=0.1),
            topology=TopologySpec(levels=3, fanout=2),
            transport=TransportSpec(
                mode="async",
                latency="uniform",
                scale=0.55,
                seed=22,
                loss=0.1,
                loss_model="iid",
                loss_seed=23,
                repair=True,
            ),
            engine="per-update",
            record_every=20,
        )
        result = spec.build().run()
        assert result.dropped > 0
        assert result.retransmitted == result.dropped + result.duplicates
        assert len(push_checks) <= length
