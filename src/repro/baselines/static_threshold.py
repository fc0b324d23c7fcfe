"""Non-adaptive fixed-threshold tracker (ablation of the block partition).

Each site reports its exact local drift whenever it has drifted by a fixed
amount ``T`` since its last report; the coordinator sums the latest reports.
There is no block partition and no re-synchronisation, so the additive error
is up to ``k * T`` at all times:

* choose ``T`` small (1) and the cost degenerates to one message per update;
* choose ``T`` large and the relative-error guarantee is violated whenever
  ``|f(n)| < k T / eps``.

The E14 ablation benchmark runs this tracker next to the Section 3.3 tracker
to show that the *adaptive* threshold (``eps * 2^r`` tied to the block level,
re-synchronised at block boundaries) is what converts an additive guarantee
into the paper's relative one.
"""

from __future__ import annotations

from typing import Dict

from repro.core.template import check_tracking_parameters
from repro.exceptions import ConfigurationError
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import COORDINATOR, Message, MessageKind
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackerFactory
from repro.monitoring.site import Site

__all__ = ["StaticThresholdSite", "StaticThresholdCoordinator", "StaticThresholdCounter"]


class StaticThresholdSite(Site):
    """Site side: report the exact drift every ``threshold`` units of change."""

    def __init__(self, site_id: int, threshold: int) -> None:
        super().__init__(site_id)
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.drift = 0
        self.unreported = 0

    def receive_update(self, time: int, delta: int) -> None:
        self.drift += delta
        self.unreported += delta
        if abs(self.unreported) >= self.threshold:
            self.unreported = 0
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"drift": self.drift},
                    time=time,
                )
            )

    def receive_message(self, message: Message) -> None:
        return None


class StaticThresholdCoordinator(Coordinator):
    """Coordinator side: sum of the latest reported per-site drifts."""

    def __init__(self) -> None:
        super().__init__()
        self._drifts: Dict[int, int] = {}

    def receive_message(self, message: Message) -> None:
        self._drifts[message.sender] = int(message.payload["drift"])

    def estimate(self) -> float:
        return float(sum(self._drifts.values()))


class StaticThresholdCounter(TrackerFactory):
    """Factory for the fixed-threshold ablation tracker."""

    def __init__(self, num_sites: int, threshold: int, epsilon: float = 0.1) -> None:
        check_tracking_parameters(num_sites, epsilon)
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.num_sites = num_sites
        self.threshold = threshold
        self.epsilon = epsilon

    def build_network(self, channel=None) -> MonitoringNetwork:
        """Create a wired coordinator + ``k`` fixed-threshold sites."""
        sites = [StaticThresholdSite(i, self.threshold) for i in range(self.num_sites)]
        return MonitoringNetwork(
            StaticThresholdCoordinator(), sites, channel=channel
        )
