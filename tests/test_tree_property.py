"""Property-based test (hypothesis) for the recursive tree's exact sums.

**Exact internal sums.**  At any depth, fan-out and partition, over
arbitrary unit-delta streams, every internal node's estimate equals the
exact sum of its children's estimates (the default leaf split reserves the
whole budget for the leaf trackers, so aggregation is lossless all the way
to the root).  That ``shards=S``, ``levels=2, fanout=S`` and
``fanouts=[S]`` are one tree is a property of the spec layer's
resolution (``tests/test_tree.py``); ``tests/test_tree_golden.py`` pins
tree outputs themselves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeterministicCounter, RandomizedCounter
from repro.monitoring import PARTITION_NAMES, ShardedNetwork, build_tree_network
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
    partition=st.sampled_from(PARTITION_NAMES),
    randomized=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_internal_nodes_sum_exactly_at_any_depth(
    deltas, fanouts, policy_name, partition, randomized
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
    network = build_tree_network(factory, fanouts=fanouts, partition=partition)
    for update in updates:
        network.deliver_update(update.time, update.site, update.delta)
        _check_internal_sums(network)
