"""Property-based tests (hypothesis) for the recursive tree's contracts.

Two invariants, over arbitrary unit-delta streams:

* **Depth-2 equivalence.**  ``build_tree_network(levels=2, fanout=S)`` is
  *bit-for-bit* the two-level sharded spelling ``fanouts=[S]`` — estimates,
  message counts, bit counts, per-kind breakdown, root transcript — across
  the per-update, batched and asynchronous engines.  (Both spellings build
  the same table; ``tests/test_tree_golden.py`` pins the outputs
  themselves.)
* **Exact internal sums.**  At any depth and fan-out, every internal node's
  estimate equals the exact sum of its children's estimates (the default
  leaf split reserves the whole budget for the leaf trackers, so
  aggregation is lossless all the way to the root).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchrony import (
    async_channels,
)
from repro.core import DeterministicCounter, RandomizedCounter
from repro.monitoring import (
    ShardedNetwork,
    StridedSharding,
    build_tree_network,
    run_tracking,
)
from repro.streams.model import deltas_to_updates

unit_deltas = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=300)


def _assign(deltas, num_sites, policy_name):
    if policy_name == "round_robin":
        sites = [(t - 1) % num_sites for t in range(1, len(deltas) + 1)]
    elif policy_name == "blocked":
        sites = [((t - 1) // 16) % num_sites for t in range(1, len(deltas) + 1)]
    else:  # single hot site
        sites = [0] * len(deltas)
    return deltas_to_updates(deltas, sites)


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


def _transcript(channel):
    return [
        (m.kind, m.sender, m.receiver, dict(m.payload), m.time) for m in channel.log
    ]


@given(
    deltas=unit_deltas,
    num_sites=st.integers(min_value=2, max_value=8),
    num_shards=st.integers(min_value=2, max_value=8),
    policy_name=st.sampled_from(["round_robin", "blocked", "hot"]),
    batched=st.booleans(),
    randomized=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_two_level_tree_is_bitwise_the_sharded_network(
    deltas, num_sites, num_shards, policy_name, batched, randomized
):
    num_shards = min(num_shards, num_sites)
    updates = _assign(deltas, num_sites, policy_name)

    def factory():
        return (
            RandomizedCounter(num_sites, 0.1, seed=7)
            if randomized
            else DeterministicCounter(num_sites, 0.1)
        )

    legacy = build_tree_network(factory(), fanouts=[num_shards])
    legacy.channel.enable_log()
    tree = build_tree_network(factory(), levels=2, fanout=num_shards)
    tree.channel.enable_log()

    a = run_tracking(legacy, list(updates), record_every=13, batched=batched)
    b = run_tracking(tree, list(updates), record_every=13, batched=batched)
    assert _fingerprint(a) == _fingerprint(b)
    assert _transcript(tree.root_network.channel) == _transcript(
        legacy.root_network.channel
    )
    for left, right in zip(legacy.shards, tree.shards):
        assert _transcript(right.network.channel) == _transcript(
            left.network.channel
        )


@given(
    deltas=unit_deltas,
    num_shards=st.integers(min_value=2, max_value=6),
    latency_scale=st.sampled_from([0.0, 2.0, 8.0]),
    randomized=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_two_level_async_tree_is_bitwise_the_sharded_async_network(
    deltas, num_shards, latency_scale, randomized
):
    from repro.asynchrony import UniformLatency, ZERO_LATENCY

    num_sites = 8
    updates = _assign(deltas, num_sites, "round_robin")
    latency = (
        ZERO_LATENCY if latency_scale == 0.0 else UniformLatency(0.0, latency_scale)
    )

    def factory():
        return (
            RandomizedCounter(num_sites, 0.1, seed=3)
            if randomized
            else DeterministicCounter(num_sites, 0.1)
        )

    legacy = build_tree_network(
        factory(),
        fanouts=[num_shards],
        channel_factory=async_channels([num_shards], latency, seed=19),
    )
    tree = build_tree_network(
        factory(),
        levels=2,
        fanout=num_shards,
        channel_factory=async_channels([num_shards], latency, seed=19),
    )
    a = run_tracking(legacy, list(updates), record_every=17)
    b = run_tracking(tree, list(updates), record_every=17)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.final_clock == b.final_clock


def _check_internal_sums(network):
    """Every internal node's estimate is the exact sum of its children's."""
    assert isinstance(network, ShardedNetwork)
    for row in network.nodes:
        if row.children:
            children = [child.network.estimate() for child in row.children]
            assert row.network.estimate() == sum(children)


@given(
    deltas=unit_deltas,
    fanouts=st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=3),
    policy_name=st.sampled_from(["round_robin", "blocked", "hot"]),
    strided=st.booleans(),
    randomized=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_internal_nodes_sum_exactly_at_any_depth(
    deltas, fanouts, policy_name, strided, randomized
):
    num_leaves = 1
    for fan in fanouts:
        num_leaves *= fan
    num_sites = num_leaves + 3
    updates = _assign(deltas, num_sites, policy_name)
    factory = (
        RandomizedCounter(num_sites, 0.1, seed=5)
        if randomized
        else DeterministicCounter(num_sites, 0.1)
    )
    network = build_tree_network(
        factory,
        fanouts=fanouts,
        sharding=StridedSharding() if strided else None,
    )
    for update in updates:
        network.deliver_update(update.time, update.site, update.delta)
        _check_internal_sums(network)
