"""Equivalence in the kernel cells the closed forms were last to cover.

PR 4's multiblock hook handled only the dense regime (``eps * 2**r <= 1``)
and PR 5's fast-forward cut its window at the first block-level change, so
the sparse regime and cross-level ladders used to fall back to per-update
replay — precisely the cells the existing equivalence suites never forced.
This suite engineers streams into those cells and asserts bit-for-bit
equivalence across {deterministic, randomized} x {flat, levels=3 tree} x
{sync, zero-latency async}, plus the columnar engine on a tree against
``run_tracking`` on the same trace.

A non-hypothesis vacuity guard instruments the multiblock hook directly and
asserts that the engineered streams really do drive it into sparse cycles,
into ladders spanning 2+ levels and into windows that mix dense with sparse
cycles (drawing with non-drawing steps, for the randomized tracker) —
without it, every equivalence assertion here could pass on the dense
same-level case alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchrony import (
    ConstantLatency,
    async_channels,
)
from repro.core import DeterministicCounter, RandomizedCounter
from repro.core.deterministic import DeterministicSite
from repro.core.randomized import report_probability
from repro.monitoring.runner import run_tracking
from repro.monitoring.tree import build_tree_network
from repro.streams import (
    BlockedAssignment,
    assign_sites,
    biased_walk_stream,
    nearly_monotone_stream,
    oscillating_stream,
)
from repro.streams.io import columns_from_updates

#: eps = 0.5 puts the deterministic threshold above one update from level 1
#: up (0.5 * 2**1 = 1, 0.5 * 2**2 = 2 > 1): the sparse regime starts as soon
#: as the value climbs at all.
SPARSE_EPSILON = 0.5

FACTORIES = {
    "deterministic": lambda k, eps, seed: DeterministicCounter(k, eps),
    "randomized": lambda k, eps, seed: RandomizedCounter(k, eps, seed=seed),
}

#: Streams that climb: consecutive block closes walk up the level ladder, so
#: long same-site blocks hand the kernel windows whose closes cross levels.
CLIMBING_STREAMS = {
    "biased_walk": lambda n, seed: biased_walk_stream(n, drift=0.8, seed=seed),
    "nearly_monotone": lambda n, seed: nearly_monotone_stream(n, seed=seed),
}

#: Streams that oscillate: mean reversion keeps the value crossing band
#: edges in both directions, so block closes *descend* the level ladder as
#: often as they climb — the schedule shape the adaptive close ladder
#: exists for.
OSCILLATING_STREAMS = {
    "oscillating_tight": lambda n, seed: oscillating_stream(
        n, target=24, pull=0.12, seed=seed
    ),
    "oscillating_loose": lambda n, seed: oscillating_stream(
        n, target=40, pull=0.06, seed=seed
    ),
}


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


def _local_fingerprint(result, network):
    """Estimates plus merged leaf-channel counters, for tree topologies.

    Every aggregated level's push counts legitimately differ with delivery
    granularity (see the push-granularity note in
    ``repro.monitoring.sharding``), so per-update vs batched on a tree
    compares the records' estimates and the leaf-level protocol traffic —
    the part the span kernel owns — not the uplink transcript.
    """
    from repro.monitoring.channel import ChannelStats

    leaf_stats = ChannelStats.merge(leaf.stats for leaf in network.leaves())
    return (
        [(r.time, r.true_value, r.estimate) for r in result.records],
        leaf_stats.messages,
        leaf_stats.bits,
        leaf_stats.by_kind,
    )


def _updates(stream_name, length, num_sites, block, seed):
    spec = CLIMBING_STREAMS[stream_name](length, seed)
    return assign_sites(spec, num_sites, BlockedAssignment(block))


def _oscillating_updates(stream_name, length, num_sites, block, seed):
    spec = OSCILLATING_STREAMS[stream_name](length, seed)
    return assign_sites(spec, num_sites, BlockedAssignment(block))


class TestSparseAndCrossLevelCells:
    """The hypothesis sweep over the previously skipped cells."""

    @settings(max_examples=20, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        stream_name=st.sampled_from(sorted(CLIMBING_STREAMS)),
        num_sites=st.integers(min_value=1, max_value=4),
        length=st.integers(min_value=600, max_value=2500),
        block=st.sampled_from([256, 1024]),
        record_every=st.sampled_from([1, 53, 400]),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_flat_sync_bit_for_bit(
        self, factory_name, stream_name, num_sites, length, block, record_every, seed
    ):
        updates = _updates(stream_name, length, num_sites, block, seed)

        def run(batched):
            factory = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, seed)
            network = factory.build_network()
            result = run_tracking(
                network, updates, record_every=record_every, batched=batched
            )
            return result

        assert _fingerprint(run(False)) == _fingerprint(run(True))

    @settings(max_examples=12, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        stream_name=st.sampled_from(sorted(CLIMBING_STREAMS)),
        length=st.integers(min_value=600, max_value=2000),
        record_every=st.sampled_from([1, 83]),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_tree_sync_levels_match(
        self, factory_name, stream_name, length, record_every, seed
    ):
        num_sites = 4
        updates = _updates(stream_name, length, num_sites, 512, seed)

        def run(batched):
            factory = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, seed)
            network = build_tree_network(factory, fanouts=[2, 2])
            result = run_tracking(
                network, updates, record_every=record_every, batched=batched
            )
            return result, network

        slow, slow_network = run(False)
        fast, fast_network = run(True)
        assert _local_fingerprint(slow, slow_network) == _local_fingerprint(
            fast, fast_network
        )

    @settings(max_examples=12, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        stream_name=st.sampled_from(sorted(CLIMBING_STREAMS)),
        num_sites=st.integers(min_value=1, max_value=4),
        length=st.integers(min_value=600, max_value=2000),
        record_every=st.sampled_from([1, 67]),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_flat_zero_latency_async_bit_for_bit(
        self, factory_name, stream_name, num_sites, length, record_every, seed
    ):
        updates = _updates(stream_name, length, num_sites, 512, seed)

        def run(batched):
            factory = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, seed)
            network = build_tree_network(
                factory,
                fanouts=[],
                channel_factory=async_channels([], ConstantLatency(0.0), seed=0),
            )
            return run_tracking(
                network, updates, record_every=record_every, batched=batched
            )

        assert _fingerprint(run(False)) == _fingerprint(run(True))

    @settings(max_examples=8, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        stream_name=st.sampled_from(sorted(CLIMBING_STREAMS)),
        length=st.integers(min_value=600, max_value=1500),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_tree_zero_latency_async_levels_match(
        self, factory_name, stream_name, length, seed
    ):
        num_sites = 4
        updates = _updates(stream_name, length, num_sites, 512, seed)

        def run(batched):
            factory = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, seed)
            network = build_tree_network(
                factory,
                fanouts=[2, 2],
                channel_factory=async_channels([2, 2], ConstantLatency(0.0), seed=0),
            )
            result = run_tracking(
                network, updates, record_every=61, batched=batched
            )
            return result, network

        slow, slow_network = run(False)
        fast, fast_network = run(True)
        assert _local_fingerprint(slow, slow_network) == _local_fingerprint(
            fast, fast_network
        )

    @settings(max_examples=12, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        stream_name=st.sampled_from(sorted(CLIMBING_STREAMS)),
        length=st.integers(min_value=600, max_value=2000),
        record_every=st.sampled_from([1, 71]),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_tree_arrays_matches_run_tracking(
        self, factory_name, stream_name, length, record_every, seed
    ):
        """The columnar engine on a 3-level tree against run_tracking."""
        num_sites = 6
        updates = _updates(stream_name, length, num_sites, 512, seed)
        columns = columns_from_updates(updates)

        def network():
            factory = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, seed)
            return build_tree_network(factory, fanouts=[2, 2])

        batched = run_tracking(
            network(), updates, record_every=record_every, batched=True
        )
        arrays = run_tracking(network(), columns, record_every=record_every)
        assert _fingerprint(batched) == _fingerprint(arrays)
        assert batched.levels == arrays.levels


class TestDescentScheduleCells:
    """Oscillating (up-*and*-down) level schedules across every topology cell.

    Each hypothesis example draws one cell of {deterministic, randomized} x
    {flat, levels=3 tree} x {sync, zero-latency async} and runs the same
    oscillating workload per-update and batched — bit for bit, including
    the randomized tracker's RNG draw count.
    """

    @settings(max_examples=24, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        stream_name=st.sampled_from(sorted(OSCILLATING_STREAMS)),
        topology=st.sampled_from(["flat", "tree"]),
        transport=st.sampled_from(["sync", "async"]),
        epsilon=st.sampled_from([0.1, SPARSE_EPSILON]),
        length=st.integers(min_value=600, max_value=2500),
        block=st.sampled_from([256, 1024]),
        record_every=st.sampled_from([1, 53, 400]),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_descent_cells_bit_for_bit(
        self,
        factory_name,
        stream_name,
        topology,
        transport,
        epsilon,
        length,
        block,
        record_every,
        seed,
    ):
        num_sites = 4 if topology == "tree" else 2
        updates = _oscillating_updates(stream_name, length, num_sites, block, seed)

        def run(batched):
            factory = FACTORIES[factory_name](num_sites, epsilon, seed)
            if topology == "tree":
                if transport == "async":
                    network = build_tree_network(
                        factory,
                        fanouts=[2, 2],
                        channel_factory=async_channels(
                            [2, 2], ConstantLatency(0.0), seed=0
                        ),
                    )
                    result = run_tracking(
                        network, updates, record_every=record_every, batched=batched
                    )
                else:
                    network = build_tree_network(factory, fanouts=[2, 2])
                    result = run_tracking(
                        network, updates, record_every=record_every, batched=batched
                    )
                return _local_fingerprint(result, network)
            if transport == "async":
                network = build_tree_network(
                    factory,
                    fanouts=[],
                    channel_factory=async_channels([], ConstantLatency(0.0), seed=0),
                )
                result = run_tracking(
                    network, updates, record_every=record_every, batched=batched
                )
            else:
                network = factory.build_network()
                result = run_tracking(
                    network, updates, record_every=record_every, batched=batched
                )
            return _fingerprint(result)

        assert run(False) == run(True)


def _is_mixed(site, levels):
    """Whether a window mixes the hook's dense and sparse cases.

    Deterministic: some cycle reports at every step (threshold <= 1) and
    some cycle runs the threshold-crossing scan.  Randomized: some steps
    draw a coin (p < 1) and some report without drawing — the entry step
    runs at the site's current level, cycle ``j`` at ``levels[j - 1]``.
    """
    if isinstance(site, DeterministicSite):
        dense = [site._threshold_at(int(r)) <= 1.0 for r in levels[:-1]]
    else:
        dense = [
            report_probability(int(r), site.num_sites, site.epsilon) >= 1.0
            for r in [site.level, *levels[:-1]]
        ]
    return any(dense) and not all(dense)


class TestCellsAreActuallyHit:
    """Vacuity guard: the engineered streams reach the new kernel branches."""

    @pytest.mark.parametrize("factory_name", sorted(FACTORIES))
    def test_sparse_and_multi_level_windows_fire(self, factory_name):
        num_sites = 2
        updates = _updates("biased_walk", 4_000, num_sites, 1_024, seed=3)
        factory = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, 3)
        network = factory.build_network()
        calls = {"sparse": 0, "cross": 0, "two_plus_levels": 0, "mixed": 0}
        for site in network.sites:
            original = site.on_multiblock_window

            def wrapped(
                deltas, start, close_offsets, levels, _original=original, _site=site
            ):
                if _site.level > 0 and SPARSE_EPSILON * 2 ** _site.level > 1:
                    calls["sparse"] += 1
                if np.any(levels[:-1] != _site.level):
                    calls["cross"] += 1
                    span = int(np.max(levels)) - min(
                        int(np.min(levels)), _site.level
                    )
                    if span >= 2:
                        calls["two_plus_levels"] += 1
                if _is_mixed(_site, levels):
                    calls["mixed"] += 1
                return _original(deltas, start, close_offsets, levels)

            site.on_multiblock_window = wrapped
        fast = run_tracking(network, updates, record_every=500, batched=True)
        assert calls["sparse"] > 0, calls
        assert calls["cross"] > 0, calls
        assert calls["two_plus_levels"] > 0, calls
        assert calls["mixed"] > 0, calls
        # And the instrumented run still matches per-update delivery.
        reference = FACTORIES[factory_name](num_sites, SPARSE_EPSILON, 3).track(
            updates, record_every=500, batched=False
        )
        assert _fingerprint(reference) == _fingerprint(fast)
        assert network.coordinator.level >= 2

    @pytest.mark.parametrize("factory_name", sorted(FACTORIES))
    @pytest.mark.parametrize("epsilon", [0.1, SPARSE_EPSILON])
    def test_descending_schedules_fire(self, factory_name, epsilon):
        """Oscillating streams hand the hook windows whose levels *descend*.

        Without this, every assertion in :class:`TestDescentScheduleCells`
        could pass on climbing-only schedules — the cell PR 8 already
        covered.  The tight oscillating stream must produce cross-level
        windows in which a later close sits at a *lower* level than an
        earlier one (eps=0.1 keeps those windows all-dense; eps=0.5 pushes
        them sparse, and some windows there mix dense with sparse cycles).
        """
        num_sites = 2
        updates = _oscillating_updates(
            "oscillating_tight", 8_000, num_sites, 1_024, seed=7
        )
        factory = FACTORIES[factory_name](num_sites, epsilon, 7)
        network = factory.build_network()
        calls = {"cross": 0, "descending": 0, "mixed": 0}
        for site in network.sites:
            original = site.on_multiblock_window

            def wrapped(
                deltas, start, close_offsets, levels, _original=original, _site=site
            ):
                if np.any(levels[:-1] != _site.level):
                    calls["cross"] += 1
                    if np.any(np.diff(levels) < 0):
                        calls["descending"] += 1
                if _is_mixed(_site, levels):
                    calls["mixed"] += 1
                return _original(deltas, start, close_offsets, levels)

            site.on_multiblock_window = wrapped
        fast = run_tracking(network, updates, record_every=500, batched=True)
        assert calls["cross"] > 0, calls
        assert calls["descending"] > 0, calls
        if epsilon == SPARSE_EPSILON:
            assert calls["mixed"] > 0, calls
        # The instrumented descent run still matches per-update delivery.
        reference = FACTORIES[factory_name](num_sites, epsilon, 7).track(
            updates, record_every=500, batched=False
        )
        assert _fingerprint(reference) == _fingerprint(fast)
