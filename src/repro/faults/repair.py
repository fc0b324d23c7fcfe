"""Turn on the sequence-numbered block-close repair across a topology.

The naive block protocol was designed for instant delivery: when a site
receives the close's BROADCAST it zeroes its per-block state, implicitly
assuming nothing happened since its REPLY.  Over a delayed (and worse, lossy
and retransmitting) transport that assumption fails — drift that arrives in
the reply-to-broadcast gap is silently discarded, and the coordinator's
boundary value drifts further from the truth with every close.  The repair
(:attr:`repro.core.template.BlockTrackingSite.repair_closes`) sequence-numbers
every close so a site can subtract *exactly what it replied* and keep the gap
drift for the next close's REPLY to carry into the boundary.

:func:`enable_close_repair` flips the flag on every block-tracking actor of a
network — every leaf of a tree — so both ends of every leaf channel agree on
the payload format.
"""

from __future__ import annotations

from repro.core.template import BlockTrackingCoordinator, BlockTrackingSite
from repro.exceptions import ConfigurationError

__all__ = ["enable_close_repair"]


def enable_close_repair(network) -> int:
    """Enable sequence-numbered block closes on every actor of ``network``.

    On a :class:`~repro.monitoring.sharding.ShardedNetwork` it visits every
    leaf row's network (aggregators exchange no close protocol, so only the
    leaf networks are touched) and flags every
    :class:`~repro.core.template.BlockTrackingSite` and
    :class:`~repro.core.template.BlockTrackingCoordinator`.  Must be called
    before the run starts: flipping the payload format mid-protocol would
    desynchronise a close already in flight.

    Returns:
        The number of actors flagged (coordinator plus sites, per leaf).

    Raises:
        ConfigurationError: If the network contains no block-tracking actors
            to repair (e.g. a baseline tracker).
    """
    from repro.monitoring.sharding import ShardedNetwork

    networks = (
        [leaf.network for leaf in network.leaves()]
        if isinstance(network, ShardedNetwork)
        else [network]
    )
    flagged = sum(_flag(leaf) for leaf in networks)
    if flagged == 0:
        raise ConfigurationError(
            "close repair needs a block-tracking network; this network has "
            "no block-protocol actors to repair"
        )
    return flagged


def _flag(network) -> int:
    flagged = 0
    coordinator = getattr(network, "coordinator", None)
    if isinstance(coordinator, BlockTrackingCoordinator):
        coordinator.repair_closes = True
        flagged += 1
    for site in getattr(network, "sites", ()):
        if isinstance(site, BlockTrackingSite):
            site.repair_closes = True
            flagged += 1
    return flagged
