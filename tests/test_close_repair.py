"""The sequence-numbered block-close repair: correctness and effectiveness.

The naive block protocol zeroes a site's ``block_value_change`` when the
close's BROADCAST arrives — silently discarding any drift delivered in the
reply-to-broadcast gap, which under a delayed or lossy transport biases the
coordinator's boundary value further with every close.  The repair
sequence-numbers closes so a site subtracts *exactly what it replied* and
the gap drift rides the next REPLY into the boundary.

Three claims under test.  First, plumbing: :func:`enable_close_repair` flags
every block-tracking actor across flat/sharded/tree topologies and refuses
baseline networks with nothing to repair.  Second, conservatism: under the
synchronous (instant-delivery) transport the gap is empty, so a repaired run
produces *identical* estimates and message counts — only the close sequence
numbers' bits are added.  Third, effectiveness — the reason the subsystem
exists: under loss the naive protocol's violation fraction degrades
measurably while the repaired protocol stays within noise of its lossless
baseline.
"""

import pytest

from repro.asynchrony import UniformLatency, async_channels
from repro.baselines import NaiveCounter
from repro.core import DeterministicCounter
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, enable_close_repair
from repro.monitoring import build_tree_network, run_tracking
from repro.streams import (
    RoundRobinAssignment,
    assign_sites,
    oscillating_stream,
    random_walk_stream,
)

EPSILON = 0.1
NUM_SITES = 8


def _updates(spec, k=NUM_SITES):
    return list(assign_sites(spec, k, RoundRobinAssignment()))


class TestEnableCloseRepair:
    def test_flags_flat_network(self):
        network = DeterministicCounter(NUM_SITES, EPSILON).build_network()
        flagged = enable_close_repair(network)
        assert flagged == NUM_SITES + 1  # sites plus coordinator
        assert network.coordinator.repair_closes
        assert all(site.repair_closes for site in network.sites)

    def test_flags_sharded_leaves_only(self):
        network = build_tree_network(DeterministicCounter(6, EPSILON), fanouts=[3])
        flagged = enable_close_repair(network)
        # Three leaf networks of (2 sites + 1 coordinator) each; the root
        # aggregator exchanges no close protocol and stays naive.
        assert flagged == 3 * (2 + 1)

    def test_flags_tree_recursively(self):
        network = build_tree_network(
            DeterministicCounter(8, EPSILON), fanouts=[2, 2]
        )
        assert enable_close_repair(network) > 0

    def test_rejects_networks_with_nothing_to_repair(self):
        network = NaiveCounter(4, EPSILON).build_network()
        with pytest.raises(ConfigurationError):
            enable_close_repair(network)


class TestSynchronousConservatism:
    def test_sync_estimates_and_messages_unchanged_bits_grow(self):
        # Instant delivery leaves no reply-to-broadcast gap, so the repair
        # must be a pure no-op on the protocol's decisions: identical
        # estimates and message schedule, with only the "close" payload
        # integers adding bits.
        updates = _updates(random_walk_stream(4_000, seed=6))

        naive_net = DeterministicCounter(NUM_SITES, EPSILON).build_network()
        naive = run_tracking(naive_net, updates, record_every=9)

        repaired_net = DeterministicCounter(NUM_SITES, EPSILON).build_network()
        enable_close_repair(repaired_net)
        repaired = run_tracking(repaired_net, updates, record_every=9)

        assert [
            (r.time, r.estimate, r.messages) for r in repaired.records
        ] == [(r.time, r.estimate, r.messages) for r in naive.records]
        assert repaired.total_messages == naive.total_messages
        assert repaired.total_bits > naive.total_bits


class TestLossyEffectiveness:
    def _run(self, loss, repair):
        network = build_tree_network(
            DeterministicCounter(NUM_SITES, EPSILON),
            fanouts=[],
            channel_factory=async_channels(
                [],
                UniformLatency(0.1, 1.0),
                seed=3,
                faults=FaultPlan(loss=loss, seed=5) if loss else None,
            ),
        )
        if repair:
            enable_close_repair(network)
        updates = _updates(oscillating_stream(12_000, target=400, seed=11))
        result = run_tracking(network, updates, record_every=20)
        return result.summary(EPSILON)["violation_fraction"]

    def test_repair_holds_accuracy_where_naive_degrades(self):
        naive_lossless = self._run(0.0, repair=False)
        naive_lossy = self._run(0.2, repair=False)
        repaired_lossless = self._run(0.0, repair=True)
        repaired_lossy = self._run(0.2, repair=True)
        # The naive protocol degrades measurably at 20% loss...
        assert naive_lossy > naive_lossless + 0.2
        # ...while the repaired protocol stays within noise of lossless.
        assert repaired_lossy <= repaired_lossless + 0.05
        assert repaired_lossy < 0.1

    def test_repair_is_inert_without_loss(self):
        # Small latency, no loss: both protocols track fine; the repair
        # changes nothing observable about accuracy.
        assert self._run(0.0, repair=True) <= self._run(0.0, repair=False) + 0.02


class TestRepairOnHierarchies:
    @pytest.mark.parametrize("topology", ["shards", "tree"])
    def test_repaired_hierarchy_runs_clean_under_loss(self, topology):
        if topology == "shards":
            network = build_tree_network(
                DeterministicCounter(6, EPSILON),
                fanouts=[3],
                channel_factory=async_channels(
                    [3],
                    UniformLatency(0.1, 1.0),
                    seed=2,
                    faults=FaultPlan(loss=0.1, seed=4),
                ),
            )
        else:
            network = build_tree_network(
                DeterministicCounter(8, EPSILON),
                fanouts=[2, 2],
                channel_factory=async_channels(
                    [2, 2],
                    UniformLatency(0.1, 1.0),
                    seed=2,
                    faults=FaultPlan(loss=0.1, seed=4),
                ),
            )
        enable_close_repair(network)
        k = 6 if topology == "shards" else 8
        updates = _updates(random_walk_stream(3_000, seed=8), k=k)
        result = run_tracking(network, updates, record_every=25)
        assert result.retransmitted == result.dropped + result.duplicates
        assert result.final_estimate == pytest.approx(
            result.final_true_value, abs=max(40.0, 0.3 * abs(result.final_true_value))
        )
