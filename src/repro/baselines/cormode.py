"""Deterministic monotone counter (Cormode, Muthukrishnan & Yi).

The classic round-based algorithm for tracking an insertion-only count to
``eps`` relative error with ``O((k / eps) log n)`` messages:

* The coordinator runs in rounds.  At the start of round ``j`` it knows the
  exact count ``F_j`` and broadcasts a per-site signal threshold
  ``theta_j = max(1, floor(eps * F_j / k))``.
* Each site sends a (payload-free) signal every ``theta_j`` new updates.
* The coordinator estimates ``F_j + (signals received) * theta_j``.  After
  ``k`` signals it polls every site for its exact residual count, computes the
  exact ``F_{j+1}`` and starts the next round.

Unreported updates total less than ``k * theta_j <= eps * F_j <= eps * f(n)``,
so the estimate is always within ``eps`` relative error *for monotone
streams*.  Fed a non-monotone stream the algorithm still runs (it counts the
net change) but its guarantee is void — which is exactly the gap the paper's
variability framework closes.  The E7 benchmark compares it against the
Section 3 trackers on monotone inputs.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.template import check_tracking_parameters
from repro.exceptions import ConfigurationError
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import BROADCAST_SITE, COORDINATOR, Message, MessageKind
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackerFactory
from repro.monitoring.site import Site

__all__ = ["CormodeSite", "CormodeCoordinator", "CormodeCounter"]


class CormodeSite(Site):
    """Site side: signal every ``theta`` updates, answer polls exactly."""

    def __init__(self, site_id: int) -> None:
        super().__init__(site_id)
        self.threshold = 1
        self.unsignalled = 0

    def receive_update(self, time: int, delta: int) -> None:
        self.unsignalled += delta
        if self.unsignalled >= self.threshold:
            self.unsignalled -= self.threshold
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={},
                    time=time,
                )
            )

    def receive_message(self, message: Message) -> None:
        if message.kind is MessageKind.REQUEST:
            residual = self.unsignalled
            self.unsignalled = 0
            self.send(
                Message(
                    kind=MessageKind.REPLY,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"residual": residual},
                    time=message.time,
                )
            )
        elif message.kind is MessageKind.BROADCAST:
            self.threshold = int(message.payload["threshold"])
        else:
            raise ConfigurationError(f"unexpected message kind {message.kind}")


class CormodeCoordinator(Coordinator):
    """Coordinator side: round bookkeeping and the running estimate."""

    def __init__(self, num_sites: int, epsilon: float) -> None:
        super().__init__()
        self.num_sites = num_sites
        self.epsilon = epsilon
        self.round_base = 0
        self.threshold = 1
        self.signals = 0
        self.rounds_completed = 0
        self._collecting = False
        self._residuals: Dict[int, int] = {}
        self._close_time = 0

    def estimate(self) -> float:
        return float(self.round_base + self.signals * self.threshold)

    def receive_message(self, message: Message) -> None:
        if message.kind is MessageKind.REPLY:
            if not self._collecting:
                raise ConfigurationError("reply received outside of a round close")
            self._residuals[message.sender] = int(message.payload["residual"])
            if len(self._residuals) == self.num_sites:
                self._finish_round()
            return
        if message.kind is not MessageKind.REPORT:
            raise ConfigurationError(f"unexpected message kind {message.kind}")
        self.signals += 1
        if self.signals >= self.num_sites and not self._collecting:
            self._close_round(message.time)

    def _close_round(self, time: int) -> None:
        """Start a round close by polling every site for its exact residual.

        Over a synchronous channel the replies arrive reentrantly and the
        round completes within this call; over an asynchronous channel the
        poll is in flight for a while and :meth:`_finish_round` runs when the
        last (possibly delayed) reply lands.
        """
        self._collecting = True
        self._residuals = {}
        self._close_time = time
        for site_id in range(self.num_sites):
            self.send(
                Message(
                    kind=MessageKind.REQUEST,
                    sender=COORDINATOR,
                    receiver=site_id,
                    payload={},
                    time=time,
                )
            )
        if self._channel is not None and self._channel.is_synchronous:
            if self._collecting:
                raise ConfigurationError(
                    f"round close expected {self.num_sites} replies, "
                    f"got {len(self._residuals)}"
                )

    def _finish_round(self) -> None:
        self._collecting = False
        exact = (
            self.round_base
            + self.signals * self.threshold
            + sum(self._residuals.values())
        )
        self.round_base = exact
        self.signals = 0
        self.rounds_completed += 1
        self.threshold = max(1, int(math.floor(self.epsilon * exact / self.num_sites)))
        self.send(
            Message(
                kind=MessageKind.BROADCAST,
                sender=COORDINATOR,
                receiver=BROADCAST_SITE,
                payload={"threshold": self.threshold},
                time=self._close_time,
            )
        )


class CormodeCounter(TrackerFactory):
    """Factory for the deterministic monotone baseline."""

    def __init__(self, num_sites: int, epsilon: float) -> None:
        check_tracking_parameters(num_sites, epsilon)
        self.num_sites = num_sites
        self.epsilon = epsilon

    def shard_factory(self, num_sites: int, shard_id: int) -> "CormodeCounter":
        """Per-shard clone for the sharded hierarchy (same ``eps``, local ``k``)."""
        return CormodeCounter(num_sites, self.epsilon)

    def build_network(self, channel=None) -> MonitoringNetwork:
        """Create a wired coordinator + ``k`` sites running the CMY protocol."""
        coordinator = CormodeCoordinator(self.num_sites, self.epsilon)
        sites = [CormodeSite(i) for i in range(self.num_sites)]
        return MonitoringNetwork(coordinator, sites, channel=channel)
