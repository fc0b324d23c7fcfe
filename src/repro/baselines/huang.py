"""Randomized monotone counter (Huang, Yi & Zhang).

The randomized counter for insertion-only streams uses
``O((k + sqrt(k)/eps) log n)`` messages in expectation and guarantees the
``eps`` relative error with constant probability.  Structure:

* Rounds are defined by doublings of the count.  At the start of round ``j``
  the coordinator knows the exact count ``F_j``; the round ends when roughly
  ``F_j`` further updates have arrived (detected through per-site count
  signals, as in the deterministic counter), at which point the coordinator
  re-synchronises exactly.
* Within a round every site, on each update, sends its exact local count with
  probability ``p = min(1, 3 sqrt(2k) / (eps * F_j))``.  The coordinator keeps
  ``c_hat_i = c_i - 1 + 1/p`` for the last received count (Lemma 2.1 of Huang
  et al., restated as Fact 3.1 in the paper), an unbiased estimator of the
  site's count with variance at most ``1/p^2``.

The total standard deviation is at most ``sqrt(2k)/p <= eps F_j / 3``, so by
Chebyshev the estimate is within ``eps F_j <= eps f(n)`` with probability at
least 8/9 at any fixed time.  Expected in-round traffic is about
``p * F_j = 3 sqrt(2k) / eps`` messages per round and there are ``O(log n)``
rounds.

The Section 3.4 tracker is exactly this algorithm run inside the paper's
variability blocks (twice, once per sign), which is why the E7 benchmark
compares the two on monotone streams.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.core.template import check_tracking_parameters
from repro.exceptions import ConfigurationError
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import BROADCAST_SITE, COORDINATOR, Message, MessageKind
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackerFactory
from repro.monitoring.site import Site

__all__ = ["HuangSite", "HuangCoordinator", "HuangCounter"]


class HuangSite(Site):
    """Site side: probabilistic count reports plus round-progress signals."""

    def __init__(self, site_id: int, seed: Optional[int] = None) -> None:
        super().__init__(site_id)
        self._rng = np.random.default_rng(seed)
        #: Exact count of updates received at this site in the current round.
        self.round_count = 0
        #: Probability of reporting after each update (set by broadcast).
        self.report_probability = 1.0
        #: Updates per progress signal (set by broadcast).
        self.signal_threshold = 1
        self._unsignalled = 0

    def receive_update(self, time: int, delta: int) -> None:
        if delta != 1:
            raise ConfigurationError(
                "the Huang et al. baseline only supports insertion (+1) updates"
            )
        self.round_count += 1
        self._unsignalled += 1
        if self.report_probability >= 1.0 or self._rng.random() < self.report_probability:
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"count": self.round_count, "probabilistic": 1},
                    time=time,
                )
            )
        if self._unsignalled >= self.signal_threshold:
            self._unsignalled -= self.signal_threshold
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"signal": 1},
                    time=time,
                )
            )

    def receive_message(self, message: Message) -> None:
        if message.kind is MessageKind.REQUEST:
            count = self.round_count
            self.round_count = 0
            self._unsignalled = 0
            self.send(
                Message(
                    kind=MessageKind.REPLY,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"count": count},
                    time=message.time,
                )
            )
        elif message.kind is MessageKind.BROADCAST:
            self.report_probability = float(message.payload["probability"])
            self.signal_threshold = int(message.payload["signal_threshold"])
        else:
            raise ConfigurationError(f"unexpected message kind {message.kind}")


class HuangCoordinator(Coordinator):
    """Coordinator side: unbiased per-site estimators plus round bookkeeping."""

    def __init__(self, num_sites: int, epsilon: float) -> None:
        super().__init__()
        self.num_sites = num_sites
        self.epsilon = epsilon
        self.round_base = 0
        self.report_probability = 1.0
        self.signal_threshold = 1
        self.signals = 0
        self.rounds_completed = 0
        self._estimates: Dict[int, float] = {}
        self._collecting = False
        self._replies: Dict[int, int] = {}
        self._close_time = 0

    def estimate(self) -> float:
        return float(self.round_base + sum(self._estimates.values()))

    def receive_message(self, message: Message) -> None:
        if message.kind is MessageKind.REPLY:
            if not self._collecting:
                raise ConfigurationError("reply received outside of a round close")
            self._replies[message.sender] = int(message.payload["count"])
            if len(self._replies) == self.num_sites:
                self._finish_round()
            return
        if message.kind is not MessageKind.REPORT:
            raise ConfigurationError(f"unexpected message kind {message.kind}")
        if "signal" in message.payload:
            self.signals += 1
            if self.signals >= self.num_sites and not self._collecting:
                self._close_round(message.time)
            return
        corrected = (
            float(message.payload["count"]) - 1.0 + 1.0 / self.report_probability
        )
        self._estimates[message.sender] = corrected

    def _close_round(self, time: int) -> None:
        """Start a round close; completes when the last reply arrives.

        Synchronous channels deliver the replies reentrantly, so the round
        completes within this call; asynchronous channels finish it from
        :meth:`receive_message` when the ``k``-th delayed reply lands.
        """
        self._collecting = True
        self._replies = {}
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
                    f"got {len(self._replies)}"
                )

    def _finish_round(self) -> None:
        self._collecting = False
        exact = self.round_base + sum(self._replies.values())
        self.round_base = exact
        self.signals = 0
        self.rounds_completed += 1
        self._estimates = {}
        self.report_probability = min(
            1.0, 3.0 * math.sqrt(2.0 * self.num_sites) / (self.epsilon * max(exact, 1))
        )
        self.signal_threshold = max(1, exact // self.num_sites)
        self.send(
            Message(
                kind=MessageKind.BROADCAST,
                sender=COORDINATOR,
                receiver=BROADCAST_SITE,
                payload={
                    "probability": self.report_probability,
                    "signal_threshold": self.signal_threshold,
                },
                time=self._close_time,
            )
        )


class HuangCounter(TrackerFactory):
    """Factory for the randomized monotone baseline."""

    def __init__(self, num_sites: int, epsilon: float, seed: Optional[int] = None) -> None:
        check_tracking_parameters(num_sites, epsilon)
        self.num_sites = num_sites
        self.epsilon = epsilon
        self.seed = seed

    def shard_factory(self, num_sites: int, shard_id: int) -> "HuangCounter":
        """Per-shard clone; shard ``s`` draws from base seed ``seed + s``."""
        seed = None if self.seed is None else self.seed + shard_id
        return HuangCounter(num_sites, self.epsilon, seed=seed)

    def build_network(self, channel=None) -> MonitoringNetwork:
        """Create a wired coordinator + ``k`` sites running the HYZ protocol."""
        coordinator = HuangCoordinator(self.num_sites, self.epsilon)
        sites = [
            HuangSite(i, seed=None if self.seed is None else self.seed + i)
            for i in range(self.num_sites)
        ]
        return MonitoringNetwork(coordinator, sites, channel=channel)
