"""Property-based test (hypothesis) for the hierarchical-merge contract.

For any unit-delta stream, site count, assignment policy, shard count,
partition rule and delivery engine: every shard of the sharded hierarchy
must end bit-for-bit identical — estimate, message count, bit count,
per-kind breakdown — to a flat coordinator replaying that shard's substream,
and the root's merged estimate must equal the flat coordinator's estimate in
the degenerate single-shard case and the exact sum of the shard estimates in
general.  This is the invariant that makes the sharded topology a pure
*routing* refactor: the protocol maths happens in unmodified flat
coordinators, wherever they sit in the tree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeterministicCounter, RandomizedCounter
from repro.monitoring import PARTITION_NAMES, build_tree_network, run_tracking
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


@given(
    deltas=unit_deltas,
    num_sites=st.integers(min_value=1, max_value=8),
    num_shards=st.integers(min_value=1, max_value=8),
    policy_name=st.sampled_from(["round_robin", "blocked", "hot"]),
    partition=st.sampled_from(PARTITION_NAMES),
    batched=st.booleans(),
    randomized=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_hierarchical_merge_equals_flat_coordinators(
    deltas, num_sites, num_shards, policy_name, partition, batched, randomized
):
    num_shards = min(num_shards, num_sites)
    updates = _assign(deltas, num_sites, policy_name)
    factory = (
        RandomizedCounter(num_sites, 0.1, seed=7)
        if randomized
        else DeterministicCounter(num_sites, 0.1)
    )
    if num_shards == 1:
        # Degenerate hierarchy: one shard is no tree, ``shards=1`` wires the
        # flat star, and its view *is* the flat coordinator.
        network = build_tree_network(factory, fanouts=[])
        result = run_tracking(network, updates, record_every=13, batched=batched)
        flat = factory.shard_factory(num_sites, 0).build_network()
        for update in updates:
            flat.deliver_update(update.time, update.site, update.delta)
        assert network.estimate() == flat.estimate()
        assert result.total_messages == flat.stats.messages
        assert network.stats.bits == flat.stats.bits
        assert network.stats.by_kind == flat.stats.by_kind
        return
    network = build_tree_network(factory, fanouts=[num_shards], partition=partition)
    result = run_tracking(network, updates, record_every=13, batched=batched)

    for shard in network.shards:
        reference = factory.shard_factory(
            shard.num_sites, shard.shard_id
        ).build_network()
        local_of = {g: l for l, g in enumerate(shard.site_ids)}
        for update in updates:
            if update.site in local_of:
                reference.deliver_update(
                    update.time, local_of[update.site], update.delta
                )
        assert reference.estimate() == shard.estimate()
        assert reference.stats.messages == shard.stats.messages
        assert reference.stats.bits == shard.stats.bits
        assert reference.stats.by_kind == shard.stats.by_kind

    merged = sum(shard.estimate() for shard in network.shards)
    assert network.estimate() == merged
