"""Distributed-monitoring substrate.

This package simulates the coordinator/site model of Cormode, Muthukrishnan
and Yi: ``k`` sites receive stream updates and exchange messages with a single
coordinator over counted channels.  Algorithms plug into the substrate by
implementing the :class:`Site` and :class:`Coordinator` protocols; the
:class:`MonitoringNetwork` wires them together and the
:func:`run_tracking` runner drives a stream through the network while
recording the coordinator's estimate, the exact value, and the communication
cost at every recording point.

Two delivery engines share identical protocol semantics.  The per-update
engine dispatches every update through
:meth:`MonitoringNetwork.deliver_update`.  The batched engine groups
contiguous same-site runs into :meth:`MonitoringNetwork.deliver_batch`
calls, which route through the span kernel (:mod:`repro.engine`):
block-template sites simulate whole protocol spans in closed form (NumPy
cumulative sums for report conditions, arithmetic for block trigger points,
bulk cost accounting for superseded messages) and fast-forward runs of
consecutive same-level block closes as one closed-form window — an order of
magnitude faster on long streams while staying bit-for-bit identical in
estimates, message counts and bit counts.  ``run_tracking`` accepts any
iterable of updates (no ``len()`` required) and keeps memory at
``O(records)``.

Past what one coordinator can serve, :mod:`repro.monitoring.sharding` scales
the substrate into a tree held as one table of node rows
(:class:`ShardCoordinator`) under one :class:`ShardedNetwork`: disjoint site
groups each run an unmodified coordinator locally at the leaves, and every
aggregator row's :class:`RootAggregator` merges its children's estimates
over another counted channel — communication stays separately accounted
per node.
:func:`build_tree_network` is the one network builder and takes a tree as
a fan-out list and two rule names: ``fanouts=[]`` is the flat star,
``fanouts=[S]`` the two-level hierarchy and deeper lists L-level trees;
``partition`` names how a node's sites split among its children
(:func:`partition_sites`) and ``epsilon_split`` how the error budget splits
across levels (:func:`split_budgets`).  Its ``channel_factory`` argument
is the one transport seam (:func:`repro.asynchrony.async_channels` for
latency and loss).  :func:`migrate_site` moves a site between leaf shards
live.
"""

from repro.monitoring.channel import Channel, ChannelStats
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.history import EstimateHistory
from repro.monitoring.messages import (
    BROADCAST_SITE,
    COORDINATOR,
    Message,
    MessageKind,
    integer_bit_length,
    message_bits,
)
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackingResult, run_tracking
from repro.monitoring.sharding import (
    RootAggregator,
    ShardCoordinator,
    ShardedNetwork,
)
from repro.monitoring.site import Site
from repro.monitoring.tree import (
    EPSILON_SPLIT_NAMES,
    PARTITION_NAMES,
    MigrationReport,
    build_tree_network,
    leaf_groups,
    migrate_site,
    partition_sites,
    split_budgets,
)

__all__ = [
    "Channel",
    "ChannelStats",
    "Coordinator",
    "EstimateHistory",
    "BROADCAST_SITE",
    "COORDINATOR",
    "Message",
    "MessageKind",
    "integer_bit_length",
    "message_bits",
    "MonitoringNetwork",
    "TrackingResult",
    "run_tracking",
    "RootAggregator",
    "ShardCoordinator",
    "ShardedNetwork",
    "Site",
    "PARTITION_NAMES",
    "EPSILON_SPLIT_NAMES",
    "partition_sites",
    "split_budgets",
    "build_tree_network",
    "leaf_groups",
    "MigrationReport",
    "migrate_site",
]
