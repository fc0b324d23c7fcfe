"""Sampling counter for random streams, after Liu, Radunovic & Vojnovic.

Liu et al. study continuous distributed counting when the update stream is
generated by random coin flips, obtaining expected communication
``O((sqrt(k)/eps) sqrt(n log n))`` for fair coins and
``O((sqrt(k)/eps) (log n)^{1+c} / |mu|)`` for coins with drift ``mu``.  Their
full algorithm layers several estimators; this module implements a compact
sampling variant calibrated to the same regime, which the E8 benchmark uses
purely as a *communication-shape* baseline:

* Every site keeps its exact local drift ``d_i`` (signed sum of its updates).
* On each update at global time ``t`` the site reports ``d_i`` with
  probability ``p_t = min(1, 3 sqrt(2k) / (eps * sqrt(t)))`` — the magnitude
  ``sqrt(t)`` being the typical scale of ``|f(t)|`` under fair coin flips.
* The coordinator keeps the Horvitz–Thompson-style corrected estimate
  ``d_hat_i = d_i`` for the latest report (the correction term of Huang et
  al. does not apply to signed drifts, so the estimator is "freshest value"
  rather than unbiased; staleness is bounded because reports keep arriving).

Expected messages are ``sum_t p_t = O((sqrt(k)/eps) sqrt(n))``.  The error
guarantee is *distributional*: it holds at times when ``|f(t)|`` is at its
typical ``Theta(sqrt(t))`` scale and degrades when the walk returns close to
zero — which is precisely the weakness the variability framework removes, and
what the benchmark demonstrates by reporting the violation fraction next to
the message counts.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.core.template import check_tracking_parameters
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import COORDINATOR, Message, MessageKind
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackerFactory
from repro.monitoring.site import Site

__all__ = ["LiuStyleSite", "LiuStyleCoordinator", "LiuStyleCounter"]


class LiuStyleSite(Site):
    """Site side: report the exact local drift with a time-decaying probability."""

    def __init__(self, site_id: int, num_sites: int, epsilon: float, seed: Optional[int] = None) -> None:
        super().__init__(site_id)
        self.num_sites = num_sites
        self.epsilon = epsilon
        self._rng = np.random.default_rng(seed)
        self.drift = 0

    def report_probability(self, time: int) -> float:
        """Per-update report probability ``min(1, 3 sqrt(2k) / (eps sqrt(t)))``."""
        return min(
            1.0,
            3.0 * math.sqrt(2.0 * self.num_sites) / (self.epsilon * math.sqrt(max(time, 1))),
        )

    def receive_update(self, time: int, delta: int) -> None:
        self.drift += delta
        probability = self.report_probability(time)
        if probability >= 1.0 or self._rng.random() < probability:
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
        # The coordinator never initiates communication in this baseline.
        return None


class LiuStyleCoordinator(Coordinator):
    """Coordinator side: sum of the latest reported per-site drifts."""

    def __init__(self) -> None:
        super().__init__()
        self._drifts: Dict[int, int] = {}

    def receive_message(self, message: Message) -> None:
        self._drifts[message.sender] = int(message.payload["drift"])

    def estimate(self) -> float:
        return float(sum(self._drifts.values()))


class LiuStyleCounter(TrackerFactory):
    """Factory for the sampling baseline calibrated to coin-flip streams."""

    def __init__(self, num_sites: int, epsilon: float, seed: Optional[int] = None) -> None:
        check_tracking_parameters(num_sites, epsilon)
        self.num_sites = num_sites
        self.epsilon = epsilon
        self.seed = seed

    def shard_factory(self, num_sites: int, shard_id: int) -> "LiuStyleCounter":
        """Per-shard clone; shard ``s`` draws from base seed ``seed + s``."""
        seed = None if self.seed is None else self.seed + shard_id
        return LiuStyleCounter(num_sites, self.epsilon, seed=seed)

    def build_network(self, channel=None) -> MonitoringNetwork:
        """Create a wired coordinator + ``k`` sampling sites."""
        sites = [
            LiuStyleSite(
                i, self.num_sites, self.epsilon,
                seed=None if self.seed is None else self.seed + i,
            )
            for i in range(self.num_sites)
        ]
        return MonitoringNetwork(LiuStyleCoordinator(), sites, channel=channel)
