"""Recursive L-level monitoring trees with a split error budget.

This module is the topology layer above :mod:`repro.monitoring.sharding`:
it builds a tree of any depth as one table of node rows, splits the error
budget ``eps`` across the levels, and supports *live migration* of a site
between leaf shards with an exact state handoff.

Topology
    :func:`build_tree_network` is the one network builder, and a tree is
    three decisions: a fan-out list (top-down), the name of the rule that
    splits a node's sites among its children (:func:`partition_sites`) and
    the name of the rule that splits ``eps`` across the levels
    (:func:`split_budgets`).  It builds, in one depth-first pass, the node
    table of a single :class:`~repro.monitoring.sharding.ShardedNetwork`:
    aggregators over aggregators until the leaves, each leaf an unmodified
    flat tracker over its site group.  No fan-outs is the flat star itself,
    and ``fanouts=[S]`` is the two-level sharded hierarchy.  The transport is
    the ``channel_factory`` argument alone
    (:func:`repro.asynchrony.async_channels` for latency and loss).  The
    ``shards``/``levels``/``fanout`` shorthands are the spec layer's
    (:meth:`repro.api.TopologySpec.resolve_fanouts`); this layer takes only
    the fan-out list.

Error budget
    :func:`split_budgets` divides ``eps`` into one budget per level,
    top-down: budgets for the aggregation levels become relative
    *push deadbands* (a child withholds a new estimate while it moved less
    than ``b_l`` relative to the last push), and the last budget is the
    ``eps`` the leaf trackers are built with.  Each hop's relative error is
    bounded by its budget, so the root's end-to-end relative error is
    bounded by ``prod(1 + b_l) - 1`` — for budgets summing to ``eps`` this
    is ``eps`` to first order (and at most ``e^eps - 1``).  The default
    ``"leaf"`` rule puts the whole budget at the leaves (zero deadbands),
    which preserves the legacy exact-merge behaviour bit for bit.

Migration
    :func:`migrate_site` moves one site between leaf shards mid-run:
    **drain** (the hierarchy settles, async transports deliver their
    backlog), **transfer** (both affected leaves checkpoint their exact
    per-site state, charged as a request/reply/broadcast exchange on their
    channels plus one state-transfer hop per aggregator level between the
    leaves), **re-register** (both leaves are rebuilt around the new
    membership via the tracker factory's ``bootstrap_network`` hook, their
    channels adopting the old cumulative accounting, and the routing of
    every aggregator row is rewired).  From the handoff point onward the
    destination shard behaves exactly as a freshly bootstrapped network over
    its new group — pinned by ``tests/test_migration.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring.channel import Channel
from repro.monitoring.messages import (
    BROADCAST_SITE,
    COORDINATOR,
    Message,
    MessageKind,
)
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.sharding import (
    RootAggregator,
    ShardCoordinator,
    ShardedNetwork,
)

__all__ = [
    "PARTITION_NAMES",
    "EPSILON_SPLIT_NAMES",
    "partition_sites",
    "split_budgets",
    "build_tree_network",
    "leaf_groups",
    "MigrationReport",
    "migrate_site",
]

#: Site-partition rules addressable by name (spec/CLI vocabulary).
PARTITION_NAMES = ("contiguous", "strided")

#: Error-budget split rules addressable by name (spec/CLI vocabulary).
EPSILON_SPLIT_NAMES = ("leaf", "uniform", "geometric")


# --------------------------------------------------------------------------
# The two rules a tree applies: site partition and error-budget split.
# --------------------------------------------------------------------------

def partition_sites(num_sites: int, fan: int, name: str) -> List[range]:
    """Split the ids ``0..num_sites-1`` into ``fan`` groups by the named rule.

    ``name`` is one of :data:`PARTITION_NAMES` (the builder checks it).
    ``"contiguous"``: group ``g`` is a contiguous range starting at
    ``g * base + min(g, extra)`` (``base, extra = divmod(num_sites, fan)``),
    so sizes are balanced to within one and blocked ingestion stays
    group-local.  ``"strided"``: group ``g`` is ``range(g, num_sites, fan)``,
    the round-robin interleave.  An id's position in its group is its id in
    the child's space.  Groups stay ``range`` objects, so a node routes
    either layout arithmetically instead of building a per-site table.
    """
    if name == "strided":
        return [range(group, num_sites, fan) for group in range(fan)]
    base, extra = divmod(num_sites, fan)
    groups, start = [], 0
    for group in range(fan):
        stop = start + base + (group < extra)
        groups.append(range(start, stop))
        start = stop
    return groups


def split_budgets(
    name: str, epsilon: float, levels: int, ratio: float = 0.5
) -> List[float]:
    """Divide ``epsilon`` into one budget per level, top-down, by the named rule.

    ``name`` is one of :data:`EPSILON_SPLIT_NAMES` (the builder checks it).
    Entries ``0 .. levels - 2`` are the relative push deadbands of the
    aggregation levels (index 0 = pushes into the root), the last is the
    ``eps`` the leaf trackers run with; the budgets sum to ``epsilon``.
    ``"leaf"`` puts it all at the leaves (aggregation relays exactly),
    ``"uniform"`` gives every level ``epsilon / levels``, and
    ``"geometric"`` weights level ``l`` by ``ratio ** (levels - 1 - l)``,
    normalised (leaf largest; with ``ratio = 0.5`` and three levels the
    split is ``eps * (1/7, 2/7, 4/7)``).
    """
    if name == "uniform":
        return [float(epsilon) / levels] * levels
    if name == "geometric":
        weights = [ratio ** (levels - 1 - level) for level in range(levels)]
        total = sum(weights)
        return [float(epsilon) * weight / total for weight in weights]
    return [0.0] * (levels - 1) + [float(epsilon)]


# --------------------------------------------------------------------------
# Tree construction.
# --------------------------------------------------------------------------

@dataclass
class _TreeRecipe:
    """Everything needed to rebuild one leaf of a tree during migration."""

    factory: object
    fanouts: List[int]
    budgets: List[float]
    channel_factory: Optional[Callable[[int, int, int], Optional[Channel]]]

    @property
    def leaf_level(self) -> int:
        return len(self.fanouts)

    @property
    def leaf_epsilon(self) -> float:
        return self.budgets[-1]

    def build_leaf(
        self, size: int, leaf_index: int
    ) -> Tuple[MonitoringNetwork, object]:
        """Build one leaf's flat network (and its factory) as the tree builder does."""
        sub_factory = self.factory.shard_factory(size, leaf_index)
        if sub_factory.epsilon != self.leaf_epsilon:
            sub_factory.epsilon = self.leaf_epsilon
        channel = (
            self.channel_factory(self.leaf_level, leaf_index, size)
            if self.channel_factory is not None
            else None
        )
        return _build_flat(sub_factory, channel), sub_factory


def _build_flat(factory, channel: Optional[Channel]) -> MonitoringNetwork:
    """``factory.build_network()``, handing in ``channel`` only when injected."""
    if channel is None:
        return factory.build_network()
    return factory.build_network(channel=channel)


def build_tree_network(
    factory,
    fanouts: Sequence[int],
    partition: str = "contiguous",
    epsilon_split: str = "leaf",
    split_ratio: float = 0.5,
    broadcast_deadband: float = 0.0,
    channel_factory: Optional[Callable[[int, int, int], Optional[Channel]]] = None,
):
    """Build a monitoring network of any shape from a flat tracker factory.

    The one network builder: ``fanouts=[]`` is the flat star
    ``factory.build_network()``, ``fanouts=[S]`` the two-level sharded
    hierarchy, and deeper lists L-level trees.  The factory's ``k``
    sites are partitioned top-down: the root level splits them into
    ``fanouts[0]`` groups, each group is split again by the next fan-out,
    and so on; the final groups become leaf shards running an unmodified
    copy of the tracker built by
    ``factory.shard_factory(group_size, leaf_index)`` with the leaf level's
    share of the error budget.  Every aggregation node is a
    :class:`~repro.monitoring.sharding.RootAggregator` over its children's
    uplinks — a subtree is a :class:`~repro.monitoring.sharding.Site` of its
    parent at any depth.  Each node becomes one row of the returned
    network's table, in one depth-first pass.  Every node is built here,
    but no site: a leaf from a factory that builds sites on first touch
    builds only the sites its traffic reaches, so a tree over ``k`` sites
    costs O(nodes), not O(k), to build.

    Args:
        factory: Flat tracker factory exposing ``num_sites``, ``epsilon``
            and, for a tree, ``shard_factory``.
        fanouts: Per-aggregation-level fan-outs, top-down, each at least 2
            (empty = flat).  Their product may not exceed ``k``.
        partition: Rule from :data:`PARTITION_NAMES` splitting a node's
            sites among its children (:func:`partition_sites`), applied at
            every split.
        epsilon_split: Rule from :data:`EPSILON_SPLIT_NAMES` dividing
            ``eps`` across the levels (:func:`split_budgets`); default
            ``"leaf"`` (all budget at the leaves, aggregation exact).
        split_ratio: Ratio of the ``"geometric"`` split, in ``(0, 1)``.
        broadcast_deadband: Relative deadband on every aggregator's downward
            level re-broadcasts (0.0 = re-broadcast on every change).
        channel_factory: The transport: ``(level, position, num_ports) ->
            Channel`` injecting each node's channel; ``level`` is the node's
            depth (0 = root, ``len(fanouts)`` = leaves; the flat star is
            level 0) and ``position`` its left-to-right index within its
            level.  ``None`` (or a ``None`` return) keeps the default
            synchronous channel; :func:`repro.asynchrony.async_channels`
            builds the latency-aware and lossy ones.  A factory carrying a
            ``fanouts`` attribute (as ``async_channels``' does) must have
            been made for this tree's fan-outs.  An injected channel reaches
            a flat network through ``factory.build_network(channel=...)``
            (a leaf's through its shard factory's); without one,
            ``build_network()`` is called with no argument.

    Returns:
        The tree's one :class:`~repro.monitoring.sharding.ShardedNetwork`,
        with the build recipe attached for live migration, or the flat
        ``MonitoringNetwork`` for ``fanouts=[]``.
    """
    num_sites = getattr(factory, "num_sites", None)
    if num_sites is None:
        raise ConfigurationError(
            "build_tree_network needs a tracker factory exposing num_sites"
        )
    resolved = [int(fan) for fan in fanouts]
    if any(fan < 2 for fan in resolved):
        raise ConfigurationError(
            f"every aggregation level needs fan-out >= 2, got fanouts {resolved}"
        )
    for argument, name, allowed in (
        ("partition", partition, PARTITION_NAMES),
        ("epsilon_split", epsilon_split, EPSILON_SPLIT_NAMES),
    ):
        if name not in allowed:
            raise ConfigurationError(
                f"unknown {argument} {name!r}; pick one of {sorted(allowed)}"
            )
    if epsilon_split == "geometric" and not 0.0 < split_ratio < 1.0:
        raise ConfigurationError(
            f"geometric split ratio must be in (0, 1), got {split_ratio}"
        )
    declared = getattr(channel_factory, "fanouts", None)
    if declared is not None and list(declared) != resolved:
        raise ConfigurationError(
            f"the channel factory was made for fanouts {list(declared)}, but "
            f"the tree has fanouts {resolved}"
        )
    if not resolved:
        channel = (
            channel_factory(0, 0, num_sites) if channel_factory is not None else None
        )
        return _build_flat(factory, channel)
    if getattr(factory, "shard_factory", None) is None:
        raise ConfigurationError(
            f"{type(factory).__name__} does not expose shard_factory(num_sites, "
            "shard_id); add one to run it in a tree"
        )
    if math.prod(resolved) > num_sites:
        raise ConfigurationError(
            f"fanouts {resolved} describe {math.prod(resolved)} leaves, but the "
            f"factory serves only {num_sites} sites (every leaf needs >= 1 site)"
        )
    budgets = split_budgets(
        epsilon_split, float(factory.epsilon), len(resolved) + 1, split_ratio
    )
    recipe = _TreeRecipe(
        factory=factory,
        fanouts=resolved,
        budgets=budgets,
        channel_factory=channel_factory,
    )

    nodes: List[Optional[ShardCoordinator]] = []

    def build_node(level: int, position: int, shard_id: int, site_ids: Sequence[int]):
        """Build the subtree rooted at (level, position) over ``site_ids``.

        The node's row takes its table slot on entry (pre-order) and is
        filled in once its children exist.  ``site_ids`` are ids in the
        *parent's* space; the node's own space is positions
        ``0..len(site_ids)-1``.
        """
        index = len(nodes)
        nodes.append(None)
        children: List[ShardCoordinator] = []
        if level == len(resolved):
            network = recipe.build_leaf(len(site_ids), position)[0]
        else:
            fan = resolved[level]
            groups = partition_sites(len(site_ids), fan, partition)
            for child_index, group in enumerate(groups):
                child = build_node(
                    level + 1, position * fan + child_index, child_index, group
                )
                child.push_deadband = budgets[level]
                children.append(child)
            aggregator = RootAggregator(
                num_shards=fan,
                num_sites=len(site_ids),
                broadcast_deadband=float(broadcast_deadband),
            )
            channel = (
                channel_factory(level, position, fan)
                if channel_factory is not None
                else None
            )
            network = MonitoringNetwork(
                aggregator, [child.uplink for child in children], channel=channel
            )
        row = ShardCoordinator(shard_id, network, site_ids, level, position, children)
        nodes[index] = row
        return row

    build_node(0, 0, 0, range(num_sites))
    network = ShardedNetwork(nodes)
    network._tree_recipe = recipe
    return network


# --------------------------------------------------------------------------
# Tree inspection.
# --------------------------------------------------------------------------

def leaf_groups(network: ShardedNetwork) -> List[List[int]]:
    """Global site ids of every leaf shard, left to right.

    The position of an id within its leaf's list is the site's leaf-local
    id, whatever produced the placement (either partition rule, nested, or
    a migration's relabelling) — the composite global-to-leaf map is read off the rows'
    site ids, parents before children.
    """
    owned: Dict[int, List[int]] = {id(network.nodes[0]): list(range(network.num_sites))}
    for row in network.nodes[1:]:
        ids = owned[id(row.parent)]
        owned[id(row)] = [ids[position] for position in row.site_ids]
    return [owned[id(leaf)] for leaf in network.leaves()]


def _ancestors(row: ShardCoordinator) -> List[ShardCoordinator]:
    """The rows above ``row``, parent first, up to and including the root."""
    out = []
    while row.parent is not None:
        row = row.parent
        out.append(row)
    return out


# --------------------------------------------------------------------------
# Live migration.
# --------------------------------------------------------------------------

@dataclass
class MigrationReport:
    """What one :func:`migrate_site` handoff did and charged.

    Attributes:
        site_id: The migrated global site id (ids are stable across moves).
        source_leaf: Leaf index the site left.
        dest_leaf: Leaf index the site joined.
        time: Timestep stamped on the handoff traffic.
        checkpoint_messages: Messages charged for the two leaf checkpoints
            (request/reply/broadcast per member site).
        transfer_hops: Aggregator levels the site's state crossed.
        handoff_messages: Total messages charged by the handoff.
        handoff_bits: Total bits charged by the handoff.
    """

    site_id: int
    source_leaf: int
    dest_leaf: int
    time: int
    checkpoint_messages: int = 0
    transfer_hops: int = 0
    handoff_messages: int = 0
    handoff_bits: int = 0


@dataclass
class _HandoffLedger:
    """Accumulates the cost of every message the handoff charges."""

    messages: int = 0
    bits: int = 0

    def charge(self, channel: Channel, message: Message) -> None:
        size = message.bits()
        channel.charge(message.kind, 1, size)
        self.messages += 1
        self.bits += size


def migrate_site(
    network: ShardedNetwork,
    site_id: int,
    dest_leaf: int,
    time: int = 0,
) -> MigrationReport:
    """Move one site to another leaf shard mid-run, with exact state handoff.

    The protocol is drain -> transfer -> re-register:

    1. **Drain.**  On asynchronous transports the whole hierarchy is drained
       so every in-flight message lands and each node settles (synchronous
       channels are always settled).
    2. **Transfer.**  The source and destination leaves checkpoint: each
       pays one request/reply exchange per member site (the coordinator
       collecting exact per-site state) plus a broadcast announcing the
       bootstrapped level, and the migrating site's state pays one transfer
       message per aggregator level between the two leaves.  All of it is
       charged on the real channels, so the migration cost is visible in the
       per-level accounting.
    3. **Re-register.**  Both leaves are rebuilt by the original factory for
       their new sizes, bootstrapped with the exact checkpointed values via
       the factory's ``bootstrap_network`` hook (estimates exact, fresh
       block at the recomputed level), their new channels adopt the old
       cumulative counters (and virtual clock), the routing tables of every
       ancestor are rewired, and fresh estimates are pushed up the two
       affected paths so the root's merged view is exact again.

    Global site ids are stable: the stream keeps addressing the site by the
    same id; only the internal placement changes.

    Args:
        network: The tree, built by :func:`build_tree_network`.
        site_id: Global id of the site to move.
        dest_leaf: Destination leaf index (see
            :meth:`~repro.monitoring.sharding.ShardedNetwork.leaves`).
        time: Timestep stamped on the handoff traffic and pushes.

    Returns:
        A :class:`MigrationReport` with the handoff's accounted cost.
    """
    if not isinstance(network, ShardedNetwork):
        raise ConfigurationError(
            "migrate_site operates on the top-level ShardedNetwork of a tree"
        )
    recipe: Optional[_TreeRecipe] = getattr(network, "_tree_recipe", None)
    if recipe is None:
        raise ConfigurationError(
            "this network was not built by build_tree_network; migration "
            "needs the build recipe to rebuild the affected leaves"
        )
    if network.channel.log_enabled:
        raise ProtocolError(
            "the state handoff uses charge-only accounting, which would "
            "desynchronise the message transcript; disable logging to migrate"
        )
    leaves = network.leaves()
    groups = leaf_groups(network)
    if not 0 <= dest_leaf < len(leaves):
        raise ConfigurationError(
            f"dest_leaf {dest_leaf} out of range 0..{len(leaves) - 1}"
        )
    source_leaf = None
    for index, group in enumerate(groups):
        if site_id in group:
            source_leaf = index
            break
    if source_leaf is None:
        raise ProtocolError(
            f"site {site_id} does not exist; the network serves "
            f"{network.num_sites} sites"
        )
    if source_leaf == dest_leaf:
        raise ConfigurationError(
            f"site {site_id} already lives in leaf {dest_leaf}"
        )
    if len(groups[source_leaf]) < 2:
        raise ConfigurationError(
            f"cannot migrate the last site out of leaf {source_leaf}; every "
            "leaf shard needs at least one site"
        )

    # 1. Drain: settle the hierarchy so checkpoints read exact state.
    if not network.channel.is_synchronous:
        network.drain()

    new_groups = [list(group) for group in groups]
    new_groups[source_leaf] = [s for s in groups[source_leaf] if s != site_id]
    new_groups[dest_leaf] = list(groups[dest_leaf]) + [site_id]

    ledger = _HandoffLedger()

    # 2. Transfer: rebuild and bootstrap the two affected leaves, charging
    # the checkpoint exchange on their (adopted) channels.
    for leaf_index in (source_leaf, dest_leaf):
        leaf = leaves[leaf_index]
        members = new_groups[leaf_index]
        values = [network._site_values[s] for s in members]
        counts = [network._site_counts[s] for s in members]
        old_channel = leaf.network.channel
        base, sub_factory = recipe.build_leaf(len(members), leaf_index)
        base.channel.adopt_accounting(old_channel)
        bootstrap = getattr(sub_factory, "bootstrap_network", None)
        if bootstrap is None:
            raise ConfigurationError(
                f"{type(sub_factory).__name__} has no bootstrap_network hook; "
                "this tracker cannot take a live state handoff"
            )
        bootstrap(base, values, counts)
        _charge_checkpoint(ledger, base, values, counts, time)
        # The row survives the handoff (its uplink stays registered on the
        # parent channel, its push counters keep counting); only its network
        # is rebuilt, so the channel view is re-read right after.
        leaf.network = base
    network.channel.refresh()

    # One state-transfer message per aggregator level between the leaves.
    crossed = {id(node): node for node in _ancestors(leaves[source_leaf])}
    crossed.update((id(node), node) for node in _ancestors(leaves[dest_leaf]))
    transfer = Message(
        kind=MessageKind.REPORT,
        sender=leaves[source_leaf].shard_id,
        receiver=COORDINATOR,
        payload={
            "count": network._site_counts[site_id],
            "change": network._site_values[site_id],
        },
        time=time,
    )
    for node in crossed.values():
        ledger.charge(node.network.channel, transfer)

    # 3. Re-register: rewire every ancestor's routing to the new membership
    # and push fresh estimates up both affected paths, deepest rows first.
    _rewire(network, new_groups)
    refreshed: Dict[int, ShardCoordinator] = {}
    for leaf in (leaves[source_leaf], leaves[dest_leaf]):
        for row in [leaf] + _ancestors(leaf)[:-1]:
            refreshed.setdefault(id(row), row)
    for row in sorted(refreshed.values(), key=lambda row: -row.level):
        row.push_estimate(time)

    report = MigrationReport(
        site_id=site_id,
        source_leaf=source_leaf,
        dest_leaf=dest_leaf,
        time=time,
        checkpoint_messages=3 * (len(new_groups[source_leaf]) + len(new_groups[dest_leaf])),
        transfer_hops=len(crossed),
        handoff_messages=ledger.messages,
        handoff_bits=ledger.bits,
    )
    # The rebuilt leaf channels adopted their predecessors' observers, but
    # the fresh coordinators start blank — let any attached instrumentation
    # re-walk the tree and record the handoff.
    observer = getattr(network, "observer", None)
    if observer is not None:
        observer.on_migration(network, report)
    return report


def _charge_checkpoint(
    ledger: _HandoffLedger,
    leaf_network: MonitoringNetwork,
    values: Sequence[int],
    counts: Sequence[int],
    time: int,
) -> None:
    """Charge a leaf's checkpoint: request/reply per site plus the level cast.

    Mirrors a block close's exchange — the coordinator asks every member for
    its exact state, each replies, and the freshly bootstrapped level is
    broadcast — which is exactly what the bootstrap just simulated.
    """
    channel = leaf_network.channel
    level = getattr(leaf_network.coordinator, "level", 0)
    for local_id, (value, count) in enumerate(zip(values, counts)):
        ledger.charge(
            channel,
            Message(
                kind=MessageKind.REQUEST,
                sender=COORDINATOR,
                receiver=local_id,
                payload={},
                time=time,
            ),
        )
        ledger.charge(
            channel,
            Message(
                kind=MessageKind.REPLY,
                sender=local_id,
                receiver=COORDINATOR,
                payload={"count": int(count), "change": int(value)},
                time=time,
            ),
        )
        ledger.charge(
            channel,
            Message(
                kind=MessageKind.BROADCAST,
                sender=COORDINATOR,
                receiver=BROADCAST_SITE,
                payload={"level": int(level)},
                time=time,
            ),
        )


def _rewire(network: ShardedNetwork, new_groups: List[List[int]]) -> None:
    """Rebuild every level's id space and routing for a new leaf membership.

    Each node's id space is positional; after a migration the spaces are
    relabelled as the concatenation of the children's orderings (which
    preserves the composite global-to-leaf-local map for untouched leaves),
    the routing of every aggregator row is rebuilt, and every aggregator's
    subtree site count is refreshed.  Rows are visited children first.
    """
    orders: Dict[int, List[int]] = {}
    for row in network._post:
        if not row.children:
            members = new_groups[row.position]
            if len(members) != row.network.num_sites:
                raise ConfigurationError(
                    f"leaf rebuild serves {row.network.num_sites} sites "
                    f"but the new membership lists {len(members)}"
                )
            orders[id(row)] = list(members)
            continue
        offset = 0
        for child in row.children:
            order = orders[id(child)]
            child.site_ids = (
                tuple(order)
                if row.parent is None
                else tuple(range(offset, offset + len(order)))
            )
            offset += len(order)
        row._route_children()
        row.coordinator.num_sites = offset
        orders[id(row)] = [
            space_id for child in row.children for space_id in orders[id(child)]
        ]
