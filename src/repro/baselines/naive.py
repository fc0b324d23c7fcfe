"""Naive baseline: forward every update to the coordinator.

This is the trivial exact algorithm: one message per stream update, zero
error.  Every non-trivial tracker must beat its ``n`` messages (and the paper's
lower bounds say nothing can beat ``~v/eps`` while keeping the guarantee).
"""

from __future__ import annotations

from typing import List

from repro.core.template import check_tracking_parameters
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import COORDINATOR, Message, MessageKind
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackerFactory
from repro.monitoring.site import Site

__all__ = ["NaiveSite", "NaiveCoordinator", "NaiveCounter"]


class NaiveSite(Site):
    """Forwards each update verbatim."""

    def receive_update(self, time: int, delta: int) -> None:
        self.send(
            Message(
                kind=MessageKind.REPORT,
                sender=self.site_id,
                receiver=COORDINATOR,
                payload={"delta": delta},
                time=time,
            )
        )

    def receive_message(self, message: Message) -> None:
        # The coordinator never needs to talk back.
        return None


class NaiveCoordinator(Coordinator):
    """Sums the forwarded deltas; the estimate is always exact."""

    def __init__(self) -> None:
        super().__init__()
        self._value = 0

    def receive_message(self, message: Message) -> None:
        self._value += int(message.payload["delta"])

    def estimate(self) -> float:
        return float(self._value)


class NaiveCounter(TrackerFactory):
    """Factory matching the interface of the Section 3 tracker factories."""

    def __init__(self, num_sites: int, epsilon: float = 0.1) -> None:
        check_tracking_parameters(num_sites, epsilon)
        self.num_sites = num_sites
        self.epsilon = epsilon

    def shard_factory(self, num_sites: int, shard_id: int) -> "NaiveCounter":
        """Per-shard clone for the sharded hierarchy."""
        return NaiveCounter(num_sites, self.epsilon)

    def build_network(self, channel=None) -> MonitoringNetwork:
        """Create a wired coordinator + ``k`` naive sites."""
        sites: List[NaiveSite] = [NaiveSite(i) for i in range(self.num_sites)]
        return MonitoringNetwork(NaiveCoordinator(), sites, channel=channel)

    def bootstrap_network(self, network, values, counts) -> None:
        """Seed a fresh naive network with exact state (live-migration hook).

        The naive coordinator's only state is the exact running total; the
        sites are stateless, so a handoff just restores the sum.
        """
        network.coordinator._value = int(sum(values))
