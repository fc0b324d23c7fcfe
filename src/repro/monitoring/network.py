"""Wiring of a coordinator and ``k`` sites over one counted channel.

Updates reach sites either one at a time (:meth:`MonitoringNetwork.deliver_update`)
or as contiguous same-site runs (:meth:`MonitoringNetwork.deliver_batch`), the
fast path used by the batched streaming engine in
:mod:`repro.monitoring.runner`.  Batch delivery hands the run to the site's
``receive_batch``, which for the block-template trackers is a thin adapter
over the span kernel (:mod:`repro.engine`).  Both paths are
protocol-equivalent: batch delivery produces the same messages, in the same
order, with the same counted cost as per-update delivery.

A :class:`MonitoringNetwork` is one *flat* star: one coordinator, ``k``
sites, one channel.  A monitoring tree (:mod:`repro.monitoring.sharding`)
gives every node of its table one flat network: a leaf's is the tracker's
network over its site group, an aggregator's has its children's uplinks as
its "sites".  :meth:`MonitoringNetwork.multicast` is the shard-aware
delivery primitive that topology adds to the substrate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.exceptions import ProtocolError
from repro.monitoring.channel import Channel, ChannelStats
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.site import Site

__all__ = ["MonitoringNetwork"]


class MonitoringNetwork:
    """A coordinator plus ``k`` sites connected by a counted channel.

    The network owns the channel and therefore the communication counters.
    By default the channel is the synchronous counted :class:`Channel`; a
    transport with different delivery semantics (e.g. the latency-aware
    :class:`repro.asynchrony.AsyncChannel`) can be injected via ``channel``.
    Algorithms are built by a factory (see
    :class:`repro.core.deterministic.DeterministicCounter` and friends) that
    returns a matched coordinator/site set; the network only handles wiring
    and update dispatch.

    Sites come either as an explicit list, or as a count ``k`` plus a
    ``build_site(site_id)`` callable.  In the second form site ``i`` is built
    the first time an update or a message addresses it, so a network costs
    what its traffic touches, not ``k`` site objects: built sites are kept
    by id, and nothing is allocated per unbuilt site.  :attr:`sites` still
    returns all ``k``, building whatever is missing.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        sites: Union[Sequence[Site], int],
        channel: Optional[Channel] = None,
        build_site: Optional[Callable[[int], Site]] = None,
    ) -> None:
        site_list: Optional[List[Site]] = None
        if build_site is None:
            if not sites:
                raise ProtocolError("a monitoring network needs at least one site")
            site_ids = sorted(site.site_id for site in sites)
            if site_ids != list(range(len(sites))):
                raise ProtocolError(
                    f"site ids must be exactly 0..{len(sites) - 1}, got {site_ids}"
                )
            site_list = sorted(sites, key=lambda s: s.site_id)
            num_sites = len(site_list)
        else:
            if not isinstance(sites, int) or sites < 1:
                raise ProtocolError(
                    "a network with a site builder needs a site count >= 1, "
                    f"got {sites!r}"
                )
            num_sites = sites
        if channel is not None and channel.num_sites != num_sites:
            raise ProtocolError(
                f"injected channel serves {channel.num_sites} sites, "
                f"network has {num_sites}"
            )
        self.coordinator = coordinator
        self._num_sites = num_sites
        self._built: Dict[int, Site] = (
            {} if site_list is None else dict(enumerate(site_list))
        )
        # The id-ordered list :attr:`sites` returns, cached once every site
        # exists (the span kernel iterates it at every simulated close).
        self._site_list = site_list
        self._build_site = build_site
        self.channel = channel if channel is not None else Channel(num_sites=num_sites)
        coordinator.attach(self.channel)
        if site_list is not None:
            for site in site_list:
                site.attach(self.channel)
        else:
            self.channel.build_sites_with(self._site)

    def _site(self, site_id: int) -> Site:
        """Site ``site_id``, built and attached on first touch."""
        site = self._built.get(site_id)
        if site is None:
            site = self._build_site(site_id)
            if site.site_id != site_id:
                raise ProtocolError(
                    f"site builder returned site {site.site_id} for id "
                    f"{site_id}; site ids must be exactly 0..{self._num_sites - 1}"
                )
            self._built[site_id] = site
            site.attach(self.channel)
        return site

    @property
    def sites(self) -> List[Site]:
        """Every site, in id order, building any that no traffic touched yet."""
        if self._site_list is None:
            self._site_list = [self._site(i) for i in range(self._num_sites)]
        return self._site_list

    @property
    def num_sites(self) -> int:
        """Number of sites ``k`` in the network."""
        return self._num_sites

    @property
    def num_built_sites(self) -> int:
        """Number of sites built so far (``k`` for an explicit site list)."""
        return len(self._built)

    @property
    def stats(self) -> ChannelStats:
        """Live communication counters for this network."""
        return self.channel.stats

    def deliver_update(self, time: int, site_id: int, delta: int) -> None:
        """Deliver one stream update to its destination site.

        Local delivery of the update itself is free (it models the site
        observing its own data); any communication it triggers is charged by
        the channel.
        """
        if not 0 <= site_id < self._num_sites:
            raise ProtocolError(
                f"update destined for site {site_id}, but network has "
                f"{self.num_sites} sites"
            )
        site = self._built.get(site_id)
        if site is None:
            site = self._site(site_id)
        site.receive_update(time, delta)

    def deliver_batch(
        self, site_id: int, times: Sequence[int], deltas: Sequence[int]
    ) -> None:
        """Deliver a contiguous run of updates, all destined for one site.

        Equivalent to calling :meth:`deliver_update` once per pair, but lets
        the site absorb communication-free prefixes of the run in bulk.  Like
        per-update delivery, local delivery itself is free; any communication
        the run triggers is charged by the channel exactly as in the
        per-update path.
        """
        if not 0 <= site_id < self._num_sites:
            raise ProtocolError(
                f"batch destined for site {site_id}, but network has "
                f"{self.num_sites} sites"
            )
        site = self._built.get(site_id)
        if site is None:
            site = self._site(site_id)
        site.receive_batch(times, deltas, network=self)

    def multicast(self, message, site_ids) -> None:
        """Deliver one coordinator message to a subset of this network's sites.

        Charged once per listed receiver, like a broadcast restricted to
        ``site_ids``.  The sharded hierarchy's root network uses this to
        refresh only the shards whose recorded global level is stale.
        """
        self.channel.multicast(message, site_ids)

    def estimate(self) -> float:
        """Return the coordinator's current estimate."""
        return self.coordinator.estimate()
