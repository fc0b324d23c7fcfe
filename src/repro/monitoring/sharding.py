"""Monitoring trees as one table: node rows under a single network.

The flat topology puts one coordinator in front of all ``k`` sites, which
caps scalability at what a single Python object (and a single message queue)
can absorb.  This module holds the hierarchy's node types:

* a :class:`ShardCoordinator` is one *row* of a tree's node table: its
  level, position, parent and children, the site ids it owns, its push
  state, and its own :class:`~repro.monitoring.network.MonitoringNetwork` —
  for a leaf, an unmodified flat tracker network over the leaf's site group
  (the block template, Cormode, Huang, the naive counter, built for the
  group's size, so block closes complete on the leaf's own reply count,
  never the global ``k``); for an aggregator, a :class:`RootAggregator`
  over its children's :class:`ShardUplink` ports;
* a :class:`RootAggregator` merges its children's estimates and re-sends
  level changes to the children whose recorded level is stale (a
  shard-aware multicast, charged per receiver);
* a :class:`ShardedNetwork` owns the whole table — row 0 is the root, its
  children are the network's ``shards`` — routes delivery down the rows,
  walks them depth-first for clocks and draining, and keeps per-level
  accounting as loops over the table.

Every node runs over its own counted channel, so **communication stays
separately accounted per node**: a leaf channel counts the traffic between
its sites and its coordinator, an aggregator channel the hops from its
children.  Networks are wired by
:func:`repro.monitoring.tree.build_tree_network`, whose channel factory is
the one transport seam — latency-aware channels from
:func:`repro.asynchrony.async_channels` turn every hop into a latency leg.

Estimate contract (the hierarchical-merge property, pinned by
``tests/test_sharding_property.py``): every leaf behaves *bit-for-bit* like a
flat coordinator run over its own substream, and every aggregator's estimate
is the exact sum of its children's pushed estimates.  One shard is no tree:
the builder returns the flat network itself.

Push granularity: a node pushes its estimate to its parent whenever the
estimate changed since the last push, evaluated after each delivery event
(one update on the per-update engine, one contiguous run on the batched and
columnar engines) and after each virtual-clock advance on the asynchronous
engine.  Leaf-local traffic is engine-invariant by the existing
batched-equivalence contract — each leaf's sites route their runs through
the same span kernel (:mod:`repro.engine`) as a flat network, multi-block
fast-forwarding included, against the leaf's own coordinator; the
*push count* depends on delivery granularity, exactly like transport-level
batching on a real uplink.  The asynchronous bulk span engine
(``run_tracking(..., batched=True)`` over async channels) extends the same
trade to the transport: one in-flight event per leaf-local span, estimate
pushes at segment boundaries.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring.channel import Channel, ChannelStats, RunningTotals
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import (
    BROADCAST_SITE,
    COORDINATOR,
    Message,
    MessageKind,
)
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.site import Site

__all__ = [
    "ShardUplink",
    "ShardCoordinator",
    "RootAggregator",
    "ShardedChannelView",
    "ShardedNetwork",
]


class ShardUplink(Site):
    """A shard coordinator's port on the root channel.

    The root network treats each shard as a "site" with id ``shard_id``; the
    uplink relays root messages to its shard and gives the shard a counted
    :meth:`~repro.monitoring.site.Site.send` path to the root.  Stream
    updates never travel on the root channel.
    """

    def __init__(self, shard: "ShardCoordinator") -> None:
        super().__init__(shard.shard_id)
        self._shard = shard

    def receive_update(self, time: int, delta: int) -> None:
        raise ProtocolError(
            "the root channel carries shard estimates and level changes, "
            "never stream updates; deliver updates through the ShardedNetwork"
        )

    def receive_message(self, message: Message) -> None:
        self._shard.on_root_message(message)


class ShardCoordinator:
    """One node of a monitoring tree: a row of its network's node table.

    A leaf row runs any existing coordinator/site set (built by the tracker
    factory for the *group's* size, so every protocol threshold and reply
    quorum is leaf-local) over its own counted channel; an aggregator row
    runs a :class:`RootAggregator` over its children's uplinks.  Every row
    but the root pushes its estimate to its parent whenever it changes by
    more than the row's push deadband (0 by default: push on any change).

    Attributes:
        shard_id: Position of this node on its parent's channel (0 at the
            root).
        network: The node's own network — a flat tracker
            :class:`MonitoringNetwork` for a leaf, the aggregator's
            :class:`MonitoringNetwork` over its children's uplinks otherwise.
        site_ids: Site ids owned by this node *in the parent's id space*
            (global ids under the root); the position of an id in this
            tuple is its node-local site id.
        level: Depth in the tree (0 = root).
        position: Left-to-right index within the level.
        parent: The parent row (``None`` at the root).
        children: Child rows, left to right (empty for a leaf).
        root_level: Last level received from the parent aggregator
            (diagnostic — node-local protocol behaviour never depends on it,
            which is what makes the hierarchy exactly compositional).
        uplink: This node's port on the parent channel.
        push_deadband: Relative budget for upward pushes: a new estimate is
            withheld while ``|new - last| <= push_deadband * |last|``.  The
            default 0.0 pushes on any change (the exact legacy behaviour);
            positive values are assigned by the tree builder's epsilon split
            and trade parent-leg traffic for bounded per-hop error.
    """

    def __init__(
        self,
        shard_id: int,
        network: MonitoringNetwork,
        site_ids: Sequence[int],
        level: int = 0,
        position: int = 0,
        children: Sequence["ShardCoordinator"] = (),
    ) -> None:
        if shard_id < 0:
            raise ConfigurationError(f"shard id must be >= 0, got {shard_id}")
        if not children and len(site_ids) != network.num_sites:
            raise ConfigurationError(
                f"shard {shard_id} owns {len(site_ids)} global sites but its "
                f"network serves {network.num_sites}"
            )
        self.shard_id = shard_id
        self.network = network
        # A contiguous group stays a symbolic ``range`` (indexing, length
        # and membership behave exactly like the tuple) so million-site
        # trees never materialise per-site id tuples level by level.
        self.site_ids: Sequence[int] = (
            site_ids
            if isinstance(site_ids, range)
            else tuple(int(site) for site in site_ids)
        )
        self.level = level
        self.position = position
        self.parent: Optional["ShardCoordinator"] = None
        self.children: Tuple["ShardCoordinator", ...] = tuple(children)
        for child in self.children:
            child.parent = self
        self.root_level = 0
        self.uplink = ShardUplink(self)
        self._last_pushed = 0.0
        #: Estimate pushes sent to the parent so far (per-node uplink count).
        self.pushes = 0
        #: Pushes withheld by the deadband (saved uplink messages).
        self.pushes_suppressed = 0
        self.push_deadband = 0.0
        # Channel deliveries as of this row's last gated estimate check
        # (:meth:`push_if_delivered`).
        self._delivered_seen = 0
        if self.children:
            self._route_children()

    def _route_children(self) -> None:
        """Map this node's site ids to ``(child, child-local id)``.

        When every child owns a contiguous, in-order range of the id space
        (the ``"contiguous"`` partition), or child ``i`` owns
        ``range(i, k, S)`` (the ``"strided"`` partition), the map is pure
        arithmetic — disjointness and 0..k-1 coverage hold by construction,
        and no per-site dictionary is built (a million-site tree would
        otherwise pay O(k) per level).  Any other layout (a migration
        relabels the id spaces with tuples) falls back to the explicit
        validated dictionary.
        """
        self._route: Optional[Dict[int, Tuple["ShardCoordinator", int]]] = None
        self._starts: Optional[List[int]] = None
        self._stride: Optional[int] = None
        groups = [child.site_ids for child in self.children]
        ranges = all(isinstance(ids, range) and len(ids) for ids in groups)
        if ranges and all(
            ids.step == 1 and ids.start == (groups[i - 1].stop if i else 0)
            for i, ids in enumerate(groups)
        ):
            self._starts = [ids.start for ids in groups]
        elif ranges and all(
            ids.start == i and ids.step == len(groups) and ids.stop == groups[0].stop
            for i, ids in enumerate(groups)
        ):
            self._stride = len(groups)
        else:
            route: Dict[int, Tuple[ShardCoordinator, int]] = {}
            for child in self.children:
                for local_id, global_id in enumerate(child.site_ids):
                    if global_id in route:
                        raise ConfigurationError(
                            f"site {global_id} is owned by more than one shard"
                        )
                    route[global_id] = (child, local_id)
            if set(route) != set(range(len(route))):
                raise ConfigurationError(
                    "shard site groups must cover exactly 0..k-1, got "
                    f"{sorted(route)}"
                )
            self._route = route

    def _locate(self, site_id: int) -> Tuple["ShardCoordinator", int]:
        """The child owning this node's site ``site_id``, and its local id."""
        if self._starts is not None:
            child = self.children[bisect_right(self._starts, site_id) - 1]
            return child, site_id - child.site_ids.start
        if self._stride is not None:
            local_id, index = divmod(site_id, self._stride)
            return self.children[index], local_id
        return self._route[site_id]

    @property
    def num_sites(self) -> int:
        """Number of sites this node's subtree serves."""
        return len(self.site_ids)

    @property
    def coordinator(self) -> Coordinator:
        """The node's coordinator: the leaf tracker's, or the aggregator."""
        return self.network.coordinator

    @property
    def stats(self) -> ChannelStats:
        """Live communication counters of this node's own channel."""
        return self.network.stats

    def estimate(self) -> float:
        """The node's current estimate of its subtree's value."""
        return self.network.estimate()

    def push_estimate(self, time: int) -> None:
        """Push the local estimate to the parent if it moved past the deadband.

        The initial value 0.0 is the parent's prior for every child, so a
        node that never communicates never pushes — matching the flat
        protocols, which also say nothing while their estimate sits at zero.
        With a positive :attr:`push_deadband` ``b``, a change is withheld
        while ``|new - last| <= b * |last|`` — one relative-error hop of the
        split budget — and counted in :attr:`pushes_suppressed`.
        """
        estimate = self.network.estimate()
        if estimate == self._last_pushed:
            return
        if self.push_deadband > 0.0 and abs(estimate - self._last_pushed) <= (
            self.push_deadband * abs(self._last_pushed)
        ):
            self.pushes_suppressed += 1
            return
        self._last_pushed = estimate
        self.pushes += 1
        self.uplink.send(
            Message(
                kind=MessageKind.REPORT,
                sender=self.shard_id,
                receiver=COORDINATOR,
                payload={"estimate": float(estimate)},
                time=time,
            )
        )

    def push_if_delivered(self, time: int) -> None:
        """:meth:`push_estimate`, if this row's estimate can have moved.

        On an asynchronous channel a node's estimate moves only when a
        message is delivered to its coordinator, so the check runs only if
        the channel delivered since this row's last check, or if a positive
        push deadband may be withholding a change (a withheld change counts
        at every check).  Skipped checks would have found nothing to push.
        """
        delivered = self.network.channel.delivered_count
        if delivered != self._delivered_seen or self.push_deadband > 0.0:
            self._delivered_seen = delivered
            self.push_estimate(time)

    def on_root_message(self, message: Message) -> None:
        """Record a level change re-sent by the parent aggregator."""
        if message.kind is not MessageKind.BROADCAST:
            raise ConfigurationError(
                f"shard {self.shard_id} received unexpected root message kind "
                f"{message.kind}"
            )
        self.root_level = int(message.payload["level"])


class RootAggregator(Coordinator):
    """Root of the hierarchy: merges shard estimates, re-sends level changes.

    The root's estimate is the exact sum of the last estimate each shard
    pushed.  From the merged value it maintains the *global* block level
    (:func:`repro.core.blocks.block_level` with the global ``k``) and, when
    the level changes, multicasts it on the root channel to exactly the
    shards whose recorded level is stale — charged once per receiver, like a
    broadcast restricted to the stale subset.
    """

    def __init__(
        self,
        num_shards: int,
        num_sites: int,
        broadcast_deadband: float = 0.0,
    ) -> None:
        if num_shards < 2:
            raise ConfigurationError(
                f"a root aggregator needs at least two shards, got {num_shards} "
                "(a single shard is served by the flat network directly)"
            )
        if broadcast_deadband < 0.0:
            raise ConfigurationError(
                f"broadcast_deadband must be >= 0, got {broadcast_deadband}"
            )
        super().__init__()
        self.num_shards = num_shards
        #: Number of sites ``k`` this aggregator's whole subtree serves — the
        #: level rule is evaluated against the subtree's topology, not a
        #: single shard's (at the top of the tree this is the global ``k``).
        self.num_sites = num_sites
        self._estimates: Dict[int, float] = {s: 0.0 for s in range(num_shards)}
        #: Global block level derived from the merged estimate.
        self.level = 0
        #: The level every shard holds: 0 at the start, then the last level
        #: multicast (a multicast reaches every shard and a withheld one
        #: none, so the shards never disagree).
        self._sent_level = 0
        #: Estimate reports received, total and per shard.
        self.reports = 0
        self.reports_by_shard: Dict[int, int] = {s: 0 for s in range(num_shards)}
        #: Relative deadband on downward level re-broadcasts: while the
        #: merged estimate has moved less than this fraction since the last
        #: broadcast, stale shards are left stale (E19 follow-on).  0.0
        #: re-broadcasts on every level change, the exact legacy behaviour.
        self.broadcast_deadband = broadcast_deadband
        #: Broadcast copies withheld by the deadband so far (each suppression
        #: event counts the stale shards it would have refreshed).
        self.broadcasts_suppressed = 0
        self._estimate_at_broadcast = 0.0
        # Imported here, once per aggregator: repro.core builds on
        # repro.monitoring, so a module-level import would be circular.
        from repro.core.blocks import block_level

        self._block_level = block_level

    def estimate(self) -> float:
        """Merged estimate: the sum of the shards' pushed estimates."""
        return float(sum(self._estimates.values()))

    def receive_message(self, message: Message) -> None:
        if message.kind is not MessageKind.REPORT:
            raise ConfigurationError(
                f"root aggregator received unexpected message kind {message.kind}"
            )
        shard_id = message.sender
        if shard_id not in self._estimates:
            raise ProtocolError(
                f"estimate report from unknown shard {shard_id}; root serves "
                f"shards 0..{self.num_shards - 1}"
            )
        self._estimates[shard_id] = float(message.payload["estimate"])
        self.reports += 1
        self.reports_by_shard[shard_id] += 1
        self._refresh_level(message.time)

    def _refresh_level(self, time: int) -> None:
        """Recompute the global level; re-send it to every shard if it moved."""
        estimate = self.estimate()
        self.level = self._block_level(int(round(estimate)), self.num_sites)
        if self.level == self._sent_level:
            return
        if self.broadcast_deadband > 0.0 and abs(
            estimate - self._estimate_at_broadcast
        ) <= self.broadcast_deadband * abs(self._estimate_at_broadcast):
            self.broadcasts_suppressed += self.num_shards
            return
        self._estimate_at_broadcast = estimate
        self.multicast(
            Message(
                kind=MessageKind.BROADCAST,
                sender=COORDINATOR,
                receiver=BROADCAST_SITE,
                payload={"level": self.level},
                time=time,
            ),
            list(range(self.num_shards)),
        )
        self._sent_level = self.level


class ShardedChannelView:
    """Read-only aggregate over every channel of a tree.

    Presents the runner-facing slice of the channel interface —
    ``is_synchronous`` and merged ``stats`` for the synchronous engines, the
    staleness signals (``delivery_ages``, ``inflight_highwater``,
    ``reordered_deliveries``), ``in_flight`` and ``now`` for the
    asynchronous one — so both runners drive a tree exactly like a flat
    network.  ``inflight_highwater`` is the *sum* of the per-channel
    high-water marks (channels peak at different instants, so this is an
    upper bound on the true global peak).

    :attr:`channels` lists every node's channel in post-order (each child's
    subtree, then the node's own channel).  It is built once and rebuilt by
    :meth:`refresh` when a migration rebuilds a leaf network; cumulative
    stats stay monotone because rebuilt channels adopt their predecessor's
    counters.  Every channel's counters feed one :class:`RunningTotals`, so
    :meth:`totals` is O(1) however many nodes the tree has.
    """

    def __init__(self, network: "ShardedNetwork") -> None:
        self._network = network
        self._totals = RunningTotals()
        self.refresh()

    def refresh(self) -> None:
        """Re-read every node's channel; restart the totals at their sums.

        A migration calls this after its rebuilt leaf channels adopt their
        predecessors' counters, so the running totals stay exact.
        """
        self.channels: Tuple[Channel, ...] = tuple(
            row.network.channel for row in self._network._post
        )
        self._totals.join(channel.stats for channel in self.channels)

    @property
    def is_synchronous(self) -> bool:
        """Whether every underlying channel delivers inline."""
        return all(channel.is_synchronous for channel in self.channels)

    @property
    def stats(self) -> ChannelStats:
        """Merged counters over every node's channel."""
        return ChannelStats.merge(channel.stats for channel in self.channels)

    def totals(self) -> Tuple[int, int]:
        """``(messages, bits)`` over every channel, kept as they are charged.

        Every channel's counters bump one shared :class:`RunningTotals` in
        the same charge, so this reads two integers instead of walking the
        channels (per-kind counts stay unmerged; :attr:`stats` merges them).
        """
        totals = self._totals
        return totals.messages, totals.bits

    def enable_log(self) -> None:
        """Enable the per-transmission log on every underlying channel."""
        for channel in self.channels:
            channel.enable_log()

    @property
    def log_enabled(self) -> bool:
        """Whether any underlying channel records its transcript."""
        return any(channel.log_enabled for channel in self.channels)

    # -- asynchronous aggregates (duck-typed for summarize_staleness) --------

    @property
    def delivery_ages(self) -> List[float]:
        """All channels' delivery ages, in :attr:`channels` order."""
        ages: List[float] = []
        for channel in self.channels:
            ages.extend(getattr(channel, "delivery_ages", ()))
        return ages

    @property
    def inflight_highwater(self) -> int:
        """Sum of the per-channel in-flight high-water marks."""
        return sum(getattr(channel, "inflight_highwater", 0) for channel in self.channels)

    @property
    def reordered_deliveries(self) -> int:
        """Total out-of-send-order deliveries across all channels."""
        return sum(
            getattr(channel, "reordered_deliveries", 0) for channel in self.channels
        )

    @property
    def in_flight(self) -> int:
        """Messages currently travelling on any underlying channel."""
        return _in_flight(self.channels)

    @property
    def now(self) -> float:
        """Latest virtual clock across the underlying channels."""
        return _now(self.channels)


def _in_flight(channels) -> int:
    return sum(getattr(channel, "in_flight", 0) for channel in channels)


def _now(channels) -> float:
    return max((getattr(channel, "now", 0.0) for channel in channels), default=0.0)


class ShardedNetwork:
    """A monitoring tree: one table of :class:`ShardCoordinator` rows.

    Exposes the same driving surface as :class:`MonitoringNetwork`
    (``deliver_update``, ``deliver_batch``, ``estimate``, ``stats``,
    ``channel``), so :func:`repro.monitoring.runner.run_tracking` runs it
    unmodified, over any transport.  An update
    is routed down the rows to its leaf (site id to leaf-local id), each
    leaf's batched fast path runs against its own unmodified coordinator,
    and after every delivery the rows on the path push their estimates
    bottom-up.  Clocks and draining walk the rows depth-first; accounting
    loops over the table.

    Args:
        nodes: The node table in pre-order (each node before its subtree,
            children left to right); row 0 is the root aggregator, and every
            leaf sits at the deepest level.  Built by
            :func:`repro.monitoring.tree.build_tree_network`.
    """

    def __init__(self, nodes: Sequence[ShardCoordinator]) -> None:
        self.nodes: Tuple[ShardCoordinator, ...] = tuple(nodes)
        root = self.nodes[0]
        if root.parent is not None or len(root.children) < 2:
            raise ConfigurationError(
                "a sharded network's row 0 must be a root with at least two "
                "children (a single shard is the flat network itself)"
            )
        self.shards: Tuple[ShardCoordinator, ...] = root.children
        self.root_network: MonitoringNetwork = root.network
        self._root = root
        self._num_sites = root.num_sites
        # Rows grouped by level, and the post-order (children before
        # parents) that channel aggregates and shard stats follow.
        levels: List[List[ShardCoordinator]] = []
        for row in self.nodes:
            if row.level == len(levels):
                levels.append([])
            levels[row.level].append(row)
        self._levels = levels
        self._post: Tuple[ShardCoordinator, ...] = tuple(_post_order(root, []))
        self.channel = ShardedChannelView(self)
        # Delivery gates its path pushes only when every channel counts
        # deliveries (a mixed tree is refused by the runner).
        self._asynchronous = not any(
            channel.is_synchronous for channel in self.channel.channels
        )
        # Exact per-site running value and update count.  This is what the
        # live-migration state handoff checkpoints a site group from; the
        # default-0 entries of never-touched sites are never stored.
        self._site_values: Dict[int, int] = defaultdict(int)
        self._site_counts: Dict[int, int] = defaultdict(int)

    # -- topology ------------------------------------------------------------

    @property
    def num_sites(self) -> int:
        """Global number of sites ``k`` across all leaves."""
        return self._num_sites

    @property
    def num_shards(self) -> int:
        """Number of the root's children."""
        return len(self.shards)

    @property
    def root(self) -> RootAggregator:
        """The root aggregator."""
        return self.root_network.coordinator

    @property
    def num_levels(self) -> int:
        """Number of coordinator levels: the aggregators' plus the leaves'."""
        return len(self._levels)

    def leaves(self) -> List[ShardCoordinator]:
        """All leaf rows (the ones serving real sites), left to right."""
        return list(self._levels[-1])

    def _leaf(self, site_id: int) -> Tuple[ShardCoordinator, int]:
        """The leaf row serving global site ``site_id``, and its local id."""
        site = int(site_id)
        if not 0 <= site < self._num_sites:
            raise ProtocolError(
                f"update destined for site {site_id}, but network has "
                f"{self.num_sites} sites"
            )
        node = self._root
        while node.children:
            node, site = node._locate(site)
        return node, site

    # -- accounting ----------------------------------------------------------

    @property
    def stats(self) -> ChannelStats:
        """Merged counters over every node's channel."""
        return self.channel.stats

    def shard_stats(self) -> List[ChannelStats]:
        """Per-shard snapshots: each root child's whole subtree, merged."""
        out: List[ChannelStats] = []
        start = 0
        for index, row in enumerate(self._post):
            if row.parent is self._root:
                out.append(
                    ChannelStats.merge(
                        node.network.stats for node in self._post[start:index + 1]
                    )
                )
                start = index + 1
        return out

    @property
    def local_stats(self) -> ChannelStats:
        """Merged counters of every channel below the root."""
        return ChannelStats.merge(row.network.stats for row in self._post[:-1])

    @property
    def root_stats(self) -> ChannelStats:
        """Counters of the root aggregator's channel."""
        return self.root_network.stats.snapshot()

    def _merge_levels(self) -> Tuple[ChannelStats, List[ChannelStats]]:
        """The merged counters and each level's, from one post-order walk.

        Post-order visits each level's rows left to right, so every merge
        meets the per-kind keys in the order a merge of :attr:`stats` or of
        one level alone meets them.  A channel that never charged adds
        nothing and is skipped.
        """
        total = ChannelStats()
        levels = [ChannelStats() for _ in self._levels]
        for row in self._post:
            stats = row.network.stats
            if stats.by_kind:
                total.add(stats)
                levels[row.level].add(stats)
        return total, levels

    def level_stats(self) -> List[ChannelStats]:
        """Per-level channel counters, root level first, leaf level last.

        Entry ``d`` merges the channels of every node at depth ``d``, left
        to right.  Summing the list reproduces :attr:`stats` exactly.
        """
        return self._merge_levels()[1]

    def level_summary(self) -> List[dict]:
        """Per-level accounting as JSON-compatible dicts, root level first.

        Aggregation levels carry the upward-push and downward-broadcast
        counters alongside the channel totals — including the messages the
        push deadband and the broadcast deadband *saved* — so the split
        error budget's traffic effect is visible per level in
        ``result.summary()``.
        """
        return self.accounting()[1]

    def accounting(self) -> Tuple[ChannelStats, List[dict]]:
        """:attr:`stats` and :meth:`level_summary`, from one channel walk.

        What the end of a run reads: both come out of one post-order walk,
        with the key orders they have when read one at a time.
        """
        total, level_stats = self._merge_levels()
        out = []
        for depth, (rows, stats) in enumerate(zip(self._levels, level_stats)):
            entry = {
                "level": depth,
                "messages": stats.messages,
                "bits": stats.bits,
                "messages_by_kind": dict(stats.by_kind),
            }
            if rows[0].children:
                children = [child for row in rows for child in row.children]
                entry.update(
                    role="aggregate",
                    nodes=len(rows),
                    pushes=sum(child.pushes for child in children),
                    pushes_suppressed=sum(
                        child.pushes_suppressed for child in children
                    ),
                    broadcasts_suppressed=sum(
                        getattr(row.coordinator, "broadcasts_suppressed", 0)
                        for row in rows
                    ),
                )
            else:
                entry.update(role="leaf", nodes=len(rows))
            out.append(entry)
        return total, out

    # -- delivery ------------------------------------------------------------

    def deliver_update(self, time: int, site_id: int, delta: int) -> None:
        """Route one stream update down to its leaf, then push bottom-up.

        On an asynchronous tree a path row checks its estimate only if its
        channel delivered since its last check (or its push deadband is
        positive), the rule of :meth:`advance_to`; a synchronous tree checks
        every row on the path.
        """
        row, local_id = self._leaf(site_id)
        row.network.deliver_update(time, local_id, delta)
        push = (
            ShardCoordinator.push_if_delivered
            if self._asynchronous
            else ShardCoordinator.push_estimate
        )
        while row.parent is not None:
            push(row, time)
            row = row.parent
        self._site_values[site_id] += int(delta)
        self._site_counts[site_id] += 1

    def deliver_batch(
        self, site_id: int, times: Sequence[int], deltas: Sequence[int]
    ) -> None:
        """Route a contiguous same-site run to its leaf, then push bottom-up."""
        row, local_id = self._leaf(site_id)
        row.network.deliver_batch(local_id, times, deltas)
        if len(times):
            time = int(times[-1])
            while row.parent is not None:
                row.push_estimate(time)
                row = row.parent
            total = deltas.sum() if hasattr(deltas, "sum") else sum(deltas)
            self._site_values[site_id] += int(total)
            self._site_counts[site_id] += len(deltas)

    def estimate(self) -> float:
        """The tree's estimate: the root aggregator's merged view."""
        return self.root_network.estimate()

    # -- asynchronous driving (the runner's virtual clock for a tree) --------

    def advance_to(self, until: float) -> None:
        """Advance every clock to ``until`` and push fresh estimates.

        A depth-first walk of the tree: each row advances its clock before
        its subtree's (pre-order) and pushes its estimate after it
        (post-order).  A parent's clock therefore sits at the window
        frontier before its children push: an estimate formed by a delivery
        inside the window is pushed at ``until`` (at or after the moment it
        came to exist), never back-dated to the previous advance point — a
        parent cannot receive knowledge before its child had it.  Requires
        latency-aware channels at every level
        (:func:`repro.asynchrony.async_channels`).

        The walk works only where something happened: an idle channel just
        raises its clock, and a row re-checks its estimate only if its
        channel delivered since its last check (a node's estimate moves only
        on a delivery to its coordinator) or its push deadband is positive
        (a withheld change counts at every check), so every send and push
        count is unchanged.  :meth:`deliver_update` gates its path pushes the
        same way.  :meth:`deliver_batch`, :meth:`drain` and migration push
        their paths unconditionally: the span kernel moves a leaf
        coordinator without a delivery, and migration rebuilds a leaf
        directly.
        """
        _advance(self._root, until, int(until))

    def drain(self) -> float:
        """Deliver every in-flight message at every level; return the clock.

        Each aggregator loops its children's drains, their estimate pushes
        and its own drain until its subtree is quiescent, so the root
        settles on the final merged estimate once the last report lands.
        As in :meth:`advance_to`, an aggregator's clock is raised to its
        subtree's frontier before each push round, keeping every upward leg
        causal.
        """
        return _now(_drain(self._root))


def _post_order(
    row: ShardCoordinator, out: List[ShardCoordinator]
) -> List[ShardCoordinator]:
    """Append ``row``'s subtree to ``out``, children before parents."""
    for child in row.children:
        _post_order(child, out)
    out.append(row)
    return out


def _advance(row: ShardCoordinator, until: float, time: int) -> None:
    """Advance ``row``'s subtree to ``until``; each child pushes after its own."""
    row.network.channel.advance_to(until)
    for child in row.children:
        _advance(child, until, time)
        child.push_if_delivered(time)


def _drain(row: ShardCoordinator) -> List[Channel]:
    """Drain ``row``'s subtree until quiescent; return its channels."""
    channel = row.network.channel
    if not row.children:
        channel.drain()
        return [channel]
    while True:
        channels = [ch for child in row.children for ch in _drain(child)]
        channels.append(channel)
        now = _now(channels)
        channel.advance_to(now)
        for child in row.children:
            child._delivered_seen = child.network.channel.delivered_count
            child.push_estimate(int(now))
        channel.drain()
        if _in_flight(channels) == 0:
            return channels
