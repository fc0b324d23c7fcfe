"""Recursive sharded hierarchy: coordinator subtrees under aggregators.

The flat topology puts one coordinator in front of all ``k`` sites, which
caps scalability at what a single Python object (and a single message queue)
can absorb.  This module refactors the substrate into a *recursively
composable* hierarchy:

* a :class:`ShardCoordinator` owns a *disjoint group* of sites and runs any
  existing :class:`~repro.monitoring.coordinator.Coordinator` — the block
  template, Cormode, Huang, the naive counter — locally over its own counted
  channel, completely unmodified (the inner coordinator is built for the
  shard's group size, so block closes complete on the shard's own reply
  count, never the global ``k``);
* a :class:`RootAggregator` merges the shard-level estimates into the global
  estimate and re-sends global level changes down to the shards whose
  recorded level is stale (a shard-aware multicast, charged per receiver);
* crucially, a :class:`ShardCoordinator`'s inner network may itself be a
  :class:`ShardedNetwork`: the shard's uplink is then the *subtree's* port on
  its parent's channel, and the two-level hierarchy generalizes to an
  L-level monitoring tree (:func:`repro.monitoring.tree.build_tree_network`)
  with no change to the delivery, push or accounting semantics at any single
  level.  Delivery, virtual-clock advancement, draining and per-level
  accounting all recurse structurally through the nesting.

Both levels run over ordinary counted channels, so **communication stays
separately accounted per shard**: each shard channel counts the up/down
traffic between its sites and its coordinator, and the root channel counts
the shard-to-root hops.  This module holds the node types only; networks
are wired by :func:`repro.monitoring.tree.build_tree_network`, whose channel
factory is the one transport seam — latency-aware channels from
:func:`repro.asynchrony.async_channels` turn the shard-to-root hop into a
second latency leg.  :func:`build_sharded_network` is the legacy
``fanouts=[num_shards]`` spelling of that call.

Estimate contract (the hierarchical-merge property, pinned by
``tests/test_sharding_property.py``): every shard behaves *bit-for-bit* like a
flat coordinator run over its own substream, and the root's estimate is the
exact sum of the shard estimates.  With ``num_shards == 1`` the hierarchy
degenerates to the flat network itself — no root hop exists, and runs are
bit-for-bit identical to the flat engine in estimates, message counts, bit
counts and transcript order, across the per-update, batched and asynchronous
engines (``tests/test_sharding.py``).

Push granularity: a shard pushes its estimate to the root whenever the
estimate changed since the last push, evaluated after each delivery event
(one update on the per-update engine, one contiguous run on the batched and
columnar engines) and after each virtual-clock advance on the asynchronous
engine.  Shard-local traffic is engine-invariant by the existing
batched-equivalence contract — each shard's sites route their runs through
the same span kernel (:mod:`repro.engine`) as a flat network, multi-block
fast-forwarding included, against the shard's own coordinator; the
*root-hop count* depends on delivery granularity, exactly like
transport-level batching on a real uplink.  The asynchronous bulk span
engine (``run_tracking_async(batched=True)``) extends the same trade to the
transport: one in-flight event per shard-local span, estimate pushes at
segment boundaries.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring.channel import Channel, ChannelStats
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
    "ShardingPolicy",
    "ContiguousSharding",
    "StridedSharding",
    "ShardUplink",
    "ShardCoordinator",
    "RootAggregator",
    "ShardedChannelView",
    "ShardedNetwork",
    "build_sharded_network",
]


def _check_shard_counts(num_sites: int, num_shards: int) -> None:
    if num_sites < 1:
        raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
    if not 1 <= num_shards <= num_sites:
        raise ConfigurationError(
            f"num_shards must be in 1..{num_sites} (one site per shard at "
            f"least), got {num_shards}"
        )


class ShardingPolicy:
    """Protocol for policies partitioning global site ids into shard groups.

    ``partition(num_sites, num_shards)`` must return ``num_shards`` disjoint,
    non-empty groups of global site ids that together cover
    ``range(num_sites)``.  The order of ids within a group defines the
    shard-local site ids ``0..len(group) - 1``.
    """

    def partition(self, num_sites: int, num_shards: int) -> List[List[int]]:
        raise NotImplementedError


class ContiguousSharding(ShardingPolicy):
    """Each shard owns a contiguous range of sites, balanced to within one.

    The natural layout for blocked ingestion: consecutive site ids land in
    the same shard, so contiguous site runs stay shard-local.
    """

    def partition(self, num_sites: int, num_shards: int) -> List[Sequence[int]]:
        _check_shard_counts(num_sites, num_shards)
        base, extra = divmod(num_sites, num_shards)
        groups: List[Sequence[int]] = []
        start = 0
        for shard_id in range(num_shards):
            size = base + (1 if shard_id < extra else 0)
            # Groups are ``range`` objects: consumers only index/iterate
            # them, and keeping them symbolic lets the sharded network
            # route contiguous layouts arithmetically instead of building
            # O(k) dictionaries per tree level.
            groups.append(range(start, start + size))
            start += size
        return groups


class StridedSharding(ShardingPolicy):
    """Site ``i`` goes to shard ``i mod num_shards`` (round-robin interleave).

    Spreads a round-robin site assignment evenly over the shards, the
    balanced counterpart to :class:`ContiguousSharding` for interleaved
    workloads.
    """

    def partition(self, num_sites: int, num_shards: int) -> List[Sequence[int]]:
        _check_shard_counts(num_sites, num_shards)
        # ``range`` groups sharing the one stop ``num_sites``: the sharded
        # network routes this layout with a ``divmod`` instead of building
        # a per-site dictionary at every tree level.
        return [
            range(shard_id, num_sites, num_shards) for shard_id in range(num_shards)
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
    """One shard: an unmodified inner network over a disjoint site group.

    The shard runs any existing coordinator/site set (built by the tracker
    factory for the *group's* size, so every protocol threshold and reply
    quorum is shard-local) over its own counted channel, and pushes its
    estimate to its parent aggregator whenever it changes by more than the
    shard's push deadband (0 by default: push on any change).

    The inner ``network`` may itself be a :class:`ShardedNetwork` — then this
    object wraps a whole *subtree* and its uplink is the subtree's port on
    the parent channel, which is what makes the hierarchy recursively
    composable to any depth.

    Attributes:
        shard_id: Position of this shard on its parent's channel.
        network: The inner network — a flat :class:`MonitoringNetwork` for a
            leaf shard, or a nested :class:`ShardedNetwork` for a subtree.
        site_ids: Site ids owned by this shard *in the parent's id space*
            (global ids at the top level); the position of an id in this
            tuple is its shard-local site id.
        root_level: Last level received from the parent aggregator
            (diagnostic — shard-local protocol behaviour never depends on it,
            which is what makes the hierarchy exactly compositional).
        uplink: This shard's port on the parent channel.
        push_deadband: Relative budget for upward pushes: a new estimate is
            withheld while ``|new - last| <= push_deadband * |last|``.  The
            default 0.0 pushes on any change (the exact legacy behaviour);
            positive values are assigned by the tree builder's epsilon-split
            policy and trade root-leg traffic for bounded per-hop error.
        parent_network: The :class:`ShardedNetwork` whose ``shards`` tuple
            contains this shard (set by that network; ``None`` until wired).
    """

    def __init__(
        self,
        shard_id: int,
        network,
        site_ids: Sequence[int],
    ) -> None:
        if shard_id < 0:
            raise ConfigurationError(f"shard id must be >= 0, got {shard_id}")
        if len(site_ids) != network.num_sites:
            raise ConfigurationError(
                f"shard {shard_id} owns {len(site_ids)} global sites but its "
                f"network serves {network.num_sites}"
            )
        self.shard_id = shard_id
        self.network = network
        if isinstance(network, ShardedNetwork):
            network.wrapper = self
        # A contiguous group stays a symbolic ``range`` (indexing, length
        # and membership behave exactly like the tuple) so million-site
        # trees never materialise per-site id tuples level by level.
        self.site_ids: Sequence[int] = (
            site_ids
            if isinstance(site_ids, range)
            else tuple(int(site) for site in site_ids)
        )
        self.root_level = 0
        self.uplink = ShardUplink(self)
        self._last_pushed = 0.0
        #: Estimate pushes sent to the parent so far (per-shard uplink count).
        self.pushes = 0
        #: Pushes withheld by the deadband (saved uplink messages).
        self.pushes_suppressed = 0
        self.push_deadband = 0.0
        self.parent_network: Optional["ShardedNetwork"] = None

    @property
    def is_leaf(self) -> bool:
        """Whether this shard's inner network is flat (serves real sites)."""
        return not isinstance(self.network, ShardedNetwork)

    def replace_network(self, network) -> None:
        """Swap the inner network during a migration state handoff.

        The wrapper object itself survives the handoff — its uplink stays
        registered on the parent channel and its push counters keep
        accumulating — only the inner network is rebuilt around the new
        membership (see :func:`repro.monitoring.tree.migrate_site`).
        """
        if isinstance(network, ShardedNetwork):
            network.wrapper = self
        self.network = network

    @property
    def num_sites(self) -> int:
        """Number of sites this shard serves."""
        return self.network.num_sites

    @property
    def coordinator(self) -> Coordinator:
        """The unmodified inner coordinator running this shard's protocol."""
        return self.network.coordinator

    @property
    def stats(self) -> ChannelStats:
        """Live communication counters of the shard-local channel."""
        return self.network.stats

    def estimate(self) -> float:
        """The shard's current estimate of its local substream value."""
        return self.network.estimate()

    def push_estimate(self, time: int) -> None:
        """Push the local estimate to the parent if it moved past the deadband.

        The initial value 0.0 is the parent's prior for every shard, so a
        shard that never communicates never pushes — matching the flat
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

    def on_root_message(self, message: Message) -> None:
        """Record a level change re-sent by the root aggregator."""
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
        self._shard_levels: Dict[int, int] = {s: 0 for s in range(num_shards)}
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
        """Recompute the global level; re-send it to shards that are stale."""
        # Imported lazily: repro.core builds on repro.monitoring, so a
        # module-level import here would be circular.  At call time the core
        # package is fully initialised.
        from repro.core.blocks import block_level

        estimate = self.estimate()
        self.level = block_level(int(round(estimate)), self.num_sites)
        stale = [
            shard_id
            for shard_id in range(self.num_shards)
            if self._shard_levels[shard_id] != self.level
        ]
        if not stale:
            return
        if self.broadcast_deadband > 0.0 and abs(
            estimate - self._estimate_at_broadcast
        ) <= self.broadcast_deadband * abs(self._estimate_at_broadcast):
            self.broadcasts_suppressed += len(stale)
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
            stale,
        )
        for shard_id in stale:
            self._shard_levels[shard_id] = self.level


class ShardedChannelView:
    """Read-only aggregate over every real channel in a (sub)hierarchy.

    Presents the runner-facing slice of the channel interface —
    ``is_synchronous`` and merged ``stats`` for the synchronous engines, the
    staleness signals (``delivery_ages``, ``inflight_highwater``,
    ``reordered_deliveries``), ``in_flight`` and ``now`` for the
    asynchronous one — so both runners drive a sharded network exactly like
    a flat one.  ``inflight_highwater`` is the *sum* of the per-channel
    high-water marks (channels peak at different instants, so this is an
    upper bound on the true global peak).

    The view is *live*: it holds the network, not a channel list, and
    resolves :attr:`channels` on every access.  Nested subtrees are
    flattened to their real channels, and a migration that rebuilds a leaf
    network is reflected immediately — cumulative stats stay monotone
    because rebuilt channels adopt their predecessor's counters.
    """

    def __init__(self, network: "ShardedNetwork") -> None:
        self._network = network

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All real channels: each shard's (subtrees flattened), then the root."""
        flat: List[Channel] = []
        for shard in self._network.shards:
            channel = shard.network.channel
            if isinstance(channel, ShardedChannelView):
                flat.extend(channel.channels)
            else:
                flat.append(channel)
        root_network = self._network.root_network
        if root_network is not None:
            flat.append(root_network.channel)
        return tuple(flat)

    @property
    def is_synchronous(self) -> bool:
        """Whether every underlying channel delivers inline."""
        return all(channel.is_synchronous for channel in self.channels)

    @property
    def stats(self) -> ChannelStats:
        """Merged counters over every shard channel and the root channel."""
        return ChannelStats.merge(channel.stats for channel in self.channels)

    def totals(self) -> Tuple[int, int]:
        """``(messages, bits)`` over every channel, per-kind counts unmerged."""
        messages = bits = 0
        for channel in self.channels:
            stats = channel.stats
            messages += stats.messages
            bits += stats.bits
        return messages, bits

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
        """All channels' delivery ages, shard order then root."""
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
        return sum(getattr(channel, "in_flight", 0) for channel in self.channels)

    @property
    def now(self) -> float:
        """Latest virtual clock across the underlying channels."""
        return max(
            (getattr(channel, "now", 0.0) for channel in self.channels), default=0.0
        )


class ShardedNetwork:
    """One level of the monitoring hierarchy: shards under an aggregator.

    Exposes the same driving surface as :class:`MonitoringNetwork`
    (``deliver_update``, ``deliver_batch``, ``estimate``, ``stats``,
    ``channel``), so :func:`repro.monitoring.runner.run_tracking` and
    :func:`repro.asynchrony.run_tracking_async` run it unmodified.  Updates
    are routed to the owning shard (site id to shard-local id), each leaf
    shard's batched fast path runs against its own unmodified coordinator,
    and after every delivery the affected shard pushes its estimate to the
    root if it changed.  A shard whose inner network is itself a
    :class:`ShardedNetwork` recurses: delivery, clock advancement, draining
    and accounting all descend structurally, so an L-level tree is just
    L - 1 nested instances of this one class
    (:func:`repro.monitoring.tree.build_tree_network`).

    With one shard there is no root: the network is the flat topology
    itself, bit-for-bit, and :meth:`estimate` reads the single shard
    directly.
    """

    def __init__(
        self,
        shards: Sequence[ShardCoordinator],
        root_network: Optional[MonitoringNetwork],
    ) -> None:
        if not shards:
            raise ConfigurationError("a sharded network needs at least one shard")
        self.shards: Tuple[ShardCoordinator, ...] = tuple(shards)
        #: The ShardCoordinator wrapping this network when it is a subtree of
        #: a deeper hierarchy; ``None`` at the top of the tree.
        self.wrapper: Optional[ShardCoordinator] = None
        if len(self.shards) == 1:
            if root_network is not None:
                raise ConfigurationError(
                    "a single-shard network is the flat topology; it takes no "
                    "root network (and pays no root hop)"
                )
        elif root_network is None:
            raise ConfigurationError(
                f"{len(self.shards)} shards need a root network to merge them"
            )
        elif root_network.num_sites != len(self.shards):
            raise ConfigurationError(
                f"root network serves {root_network.num_sites} uplinks, "
                f"topology has {len(self.shards)} shards"
            )
        self.root_network = root_network
        # Routing: when every shard owns a contiguous, in-order range of the
        # id space (the default ContiguousSharding layout), or shard ``i``
        # owns ``range(i, k, S)`` (the StridedSharding layout), the map from
        # site id to (shard, local id) is pure arithmetic — disjointness and
        # 0..k-1 coverage hold by construction, and no per-site dictionary
        # is built (a million-site tree would otherwise pay O(k) per level).
        # Any other layout falls back to the explicit validated dictionary.
        self._route: Optional[Dict[int, Tuple[ShardCoordinator, int]]] = None
        self._starts: Optional[List[int]] = None
        self._stride: Optional[int] = None
        groups = [shard.site_ids for shard in self.shards]
        ranges = all(isinstance(ids, range) and len(ids) for ids in groups)
        if ranges and all(
            ids.step == 1 and ids.start == (groups[i - 1].stop if i else 0)
            for i, ids in enumerate(groups)
        ):
            self._num_sites = groups[-1].stop
            self._starts = [ids.start for ids in groups]
        elif ranges and all(
            ids.start == i and ids.step == len(groups) and ids.stop == groups[0].stop
            for i, ids in enumerate(groups)
        ):
            self._num_sites = groups[0].stop
            self._stride = len(groups)
        else:
            route: Dict[int, Tuple[ShardCoordinator, int]] = {}
            for shard in self.shards:
                for local_id, global_id in enumerate(shard.site_ids):
                    if global_id in route:
                        raise ConfigurationError(
                            f"site {global_id} is owned by more than one shard"
                        )
                    route[global_id] = (shard, local_id)
            if set(route) != set(range(len(route))):
                raise ConfigurationError(
                    "shard site groups must cover exactly 0..k-1, got "
                    f"{sorted(route)}"
                )
            self._route = route
            self._num_sites = len(route)
        for shard in self.shards:
            shard.parent_network = self
        self.channel = ShardedChannelView(self)
        # Exact per-site running value and update count, maintained at the
        # top of the tree only (nested instances see deliveries with their
        # wrapper already set and skip the bookkeeping).  This is what the
        # live-migration state handoff checkpoints a site group from; the
        # default-0 entries of never-touched sites are never stored.
        self._site_values: Dict[int, int] = defaultdict(int)
        self._site_counts: Dict[int, int] = defaultdict(int)

    # -- topology ------------------------------------------------------------

    @property
    def num_sites(self) -> int:
        """Global number of sites ``k`` across all shards."""
        return self._num_sites

    @property
    def num_shards(self) -> int:
        """Number of shards in the hierarchy."""
        return len(self.shards)

    @property
    def root(self) -> Optional[RootAggregator]:
        """The root aggregator, or ``None`` in the single-shard topology."""
        if self.root_network is None:
            return None
        return self.root_network.coordinator

    @property
    def num_levels(self) -> int:
        """Number of coordinator levels in this (sub)hierarchy.

        A flat inner network counts one level (its shard coordinators); each
        aggregator above adds one.  The legacy two-level topology reports 2,
        its single-shard degenerate (no root) reports 1.
        """
        deepest = max(
            shard.network.num_levels if isinstance(shard.network, ShardedNetwork) else 1
            for shard in self.shards
        )
        return deepest + (1 if self.root_network is not None else 0)

    def leaves(self) -> List[ShardCoordinator]:
        """All leaf shards (the ones serving real sites), left to right."""
        out: List[ShardCoordinator] = []
        for shard in self.shards:
            if isinstance(shard.network, ShardedNetwork):
                out.extend(shard.network.leaves())
            else:
                out.append(shard)
        return out

    def shard_of(self, site_id: int) -> ShardCoordinator:
        """Return the shard that owns global site ``site_id``."""
        return self._locate(site_id)[0]

    def _locate(self, site_id: int) -> Tuple[ShardCoordinator, int]:
        site = int(site_id)
        if self._route is not None:
            try:
                return self._route[site]
            except KeyError:
                raise ProtocolError(
                    f"update destined for site {site_id}, but network has "
                    f"{self.num_sites} sites"
                ) from None
        if not 0 <= site < self._num_sites:
            raise ProtocolError(
                f"update destined for site {site_id}, but network has "
                f"{self.num_sites} sites"
            )
        if self._stride is not None:
            local_id, index = divmod(site, self._stride)
            return self.shards[index], local_id
        shard = self.shards[bisect_right(self._starts, site) - 1]
        return shard, site - shard.site_ids.start

    # -- accounting ----------------------------------------------------------

    @property
    def stats(self) -> ChannelStats:
        """Merged counters: every shard channel plus the root channel."""
        return self.channel.stats

    def shard_stats(self) -> List[ChannelStats]:
        """Per-shard snapshots of the shard-local communication counters."""
        return [shard.stats.snapshot() for shard in self.shards]

    @property
    def local_stats(self) -> ChannelStats:
        """Merged shard-local counters, excluding the root channel."""
        return ChannelStats.merge(shard.stats for shard in self.shards)

    @property
    def root_stats(self) -> ChannelStats:
        """Counters of the shard-to-root channel (zero in flat topology)."""
        if self.root_network is None:
            return ChannelStats()
        return self.root_network.stats.snapshot()

    def level_stats(self) -> List[ChannelStats]:
        """Per-level channel counters, root level first, leaf level last.

        Index 0 is this network's own aggregator channel (absent in the
        single-shard degenerate), deeper indices merge the channels of every
        node at that depth; the last entry merges the leaf shards' local
        channels.  Summing the list reproduces :attr:`stats` exactly.
        """
        child_levels: List[List[ChannelStats]] = []
        for shard in self.shards:
            inner = shard.network
            if isinstance(inner, ShardedNetwork):
                child_levels.append(inner.level_stats())
            else:
                child_levels.append([inner.stats.snapshot()])
        depth = max(len(levels) for levels in child_levels)
        merged = [
            ChannelStats.merge(
                levels[d] for levels in child_levels if d < len(levels)
            )
            for d in range(depth)
        ]
        if self.root_network is not None:
            merged.insert(0, self.root_network.stats.snapshot())
        return merged

    def level_summary(self) -> List[dict]:
        """Per-level accounting as JSON-compatible dicts, root level first.

        Aggregation levels carry the upward-push and downward-broadcast
        counters alongside the channel totals — including the messages the
        push deadband and the broadcast deadband *saved* — so the split
        error budget's traffic effect is visible per level in
        ``result.summary()``.
        """
        stats = self.level_stats()
        meta = self._level_meta()
        out = []
        for depth, (level_stats, level_meta) in enumerate(zip(stats, meta)):
            entry = {
                "level": depth,
                "messages": level_stats.messages,
                "bits": level_stats.bits,
                "messages_by_kind": dict(level_stats.by_kind),
            }
            entry.update(level_meta)
            out.append(entry)
        return out

    def _level_meta(self) -> List[dict]:
        """Role and push/broadcast counters per level, aligned with level_stats."""
        child_meta: List[List[dict]] = []
        for shard in self.shards:
            inner = shard.network
            if isinstance(inner, ShardedNetwork):
                child_meta.append(inner._level_meta())
            else:
                child_meta.append([{"role": "leaf", "nodes": 1}])
        depth = max(len(meta) for meta in child_meta)
        merged: List[dict] = []
        for d in range(depth):
            entries = [meta[d] for meta in child_meta if d < len(meta)]
            combined = dict(entries[0])
            for entry in entries[1:]:
                for key, value in entry.items():
                    if key == "role":
                        continue
                    combined[key] = combined.get(key, 0) + value
            merged.append(combined)
        if self.root_network is not None:
            aggregator = self.root_network.coordinator
            merged.insert(
                0,
                {
                    "role": "aggregate",
                    "nodes": 1,
                    "pushes": sum(s.pushes for s in self.shards),
                    "pushes_suppressed": sum(
                        s.pushes_suppressed for s in self.shards
                    ),
                    "broadcasts_suppressed": getattr(
                        aggregator, "broadcasts_suppressed", 0
                    ),
                },
            )
        return merged

    # -- delivery ------------------------------------------------------------

    def deliver_update(self, time: int, site_id: int, delta: int) -> None:
        """Route one stream update to its owning shard, then sync the root.

        A nested shard's inner :class:`ShardedNetwork` routes again with the
        shard-local id, so the update descends the tree to its leaf and every
        aggregator on the path sees a (deadband-filtered) push afterwards.
        """
        shard, local_id = self._locate(site_id)
        shard.network.deliver_update(time, local_id, delta)
        if self.root_network is not None:
            shard.push_estimate(time)
        if self.wrapper is None:
            self._site_values[site_id] += int(delta)
            self._site_counts[site_id] += 1

    def deliver_batch(
        self, site_id: int, times: Sequence[int], deltas: Sequence[int]
    ) -> None:
        """Route a contiguous same-site run to its shard, then sync the root."""
        shard, local_id = self._locate(site_id)
        shard.network.deliver_batch(local_id, times, deltas)
        if self.root_network is not None and len(times):
            shard.push_estimate(int(times[-1]))
        if self.wrapper is None and len(times):
            total = deltas.sum() if hasattr(deltas, "sum") else sum(deltas)
            self._site_values[site_id] += int(total)
            self._site_counts[site_id] += len(deltas)

    def estimate(self) -> float:
        """The hierarchy's estimate: the root's merged view (flat: shard 0)."""
        if self.root_network is None:
            return self.shards[0].estimate()
        return self.root_network.estimate()

    # -- asynchronous driving (see repro.asynchrony.runner) ------------------

    def advance_to(self, until: float) -> None:
        """Advance every clock to ``until``, then push fresh shard estimates.

        The root channel advances *before* the pushes so its clock sits at
        the window frontier when a push is transmitted: an estimate formed by
        a shard delivery inside the window is pushed at ``until`` (at or
        after the moment it came to exist), never back-dated to the previous
        advance point — the root cannot receive knowledge before the shard
        had it.  Requires latency-aware channels at both levels
        (:func:`repro.asynchrony.async_channels`).
        """
        if self.root_network is not None:
            self.root_network.channel.advance_to(until)
        for shard in self.shards:
            inner = shard.network
            if isinstance(inner, ShardedNetwork):
                inner.advance_to(until)
            else:
                inner.channel.advance_to(until)
            if self.root_network is not None:
                shard.push_estimate(int(until))

    def drain(self) -> float:
        """Deliver every in-flight message at both levels; return the clock.

        Loops shard drains, estimate pushes and root drains until the whole
        hierarchy is quiescent, so the root settles on the final merged
        estimate once the last shard report lands.  As in :meth:`advance_to`,
        the root clock is raised to the global frontier before each push
        round, keeping the shard-to-root leg causal.
        """
        while True:
            for shard in self.shards:
                inner = shard.network
                if isinstance(inner, ShardedNetwork):
                    inner.drain()
                else:
                    inner.channel.drain()
            if self.root_network is not None:
                self.root_network.channel.advance_to(self.channel.now)
                for shard in self.shards:
                    shard.push_estimate(int(self.channel.now))
                self.root_network.channel.drain()
            if self.channel.in_flight == 0:
                return self.channel.now


def build_sharded_network(
    factory,
    num_shards: int,
    sharding: Optional[ShardingPolicy] = None,
    channel_factory=None,
) -> ShardedNetwork:
    """Build the two-level sharded hierarchy: ``fanouts=[num_shards]``.

    The legacy entry point, kept as the reference wiring the equivalence
    suites compare against.  Above one shard it is exactly
    :func:`repro.monitoring.tree.build_tree_network` with
    ``fanouts=[num_shards]``; one shard wraps the flat network in a single
    :class:`ShardCoordinator` with no root hop, bit-for-bit the flat
    topology.  ``channel_factory`` is the tree builder's transport argument
    (for one shard, only its flat level-0 channel is asked for).
    """
    # Imported lazily: the tree module builds on this one.
    from repro.monitoring.tree import build_tree_network

    if num_shards != 1:
        return build_tree_network(
            factory,
            fanouts=[num_shards],
            sharding=sharding,
            channel_factory=channel_factory,
        )
    base = build_tree_network(factory, fanouts=[], channel_factory=channel_factory)
    policy = sharding if sharding is not None else ContiguousSharding()
    groups = policy.partition(base.num_sites, 1)
    if len(groups) != 1 or not groups[0]:
        raise ConfigurationError(
            f"sharding policy returned {len(groups)} groups (some possibly "
            "empty) for 1 shard"
        )
    return ShardedNetwork([ShardCoordinator(0, base, groups[0])], None)
