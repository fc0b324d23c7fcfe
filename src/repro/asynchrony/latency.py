"""Pluggable delivery-latency models for the asynchronous channel.

A latency model answers one question: how long does *this* transmission take,
in virtual time units (the unit is one stream timestep)?  Models receive the
channel's seeded generator plus the link endpoints, so per-link asymmetry and
heavy-tailed jitter are both expressible while the whole simulation stays
reproducible from a single seed.

The zero-latency model is the bridge back to the paper: under
``ConstantLatency(0)`` every message is delivered inline at its send instant,
and the asynchronous engine is bit-for-bit identical to the synchronous one
(``tests/test_async_equivalence.py`` pins this down).
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "HeavyTailLatency",
    "AsymmetricLatency",
    "ZERO_LATENCY",
]


@runtime_checkable
class LatencyModel(Protocol):
    """Protocol for per-transmission delivery delays.

    Implementations must be pure functions of ``rng`` draws and the link
    endpoints — never of wall-clock state — so that a seeded run is
    reproducible.  Returned delays are in virtual-time units and must be
    finite and non-negative (the channel clamps tiny negative float noise).
    """

    def sample(self, rng: np.random.Generator, sender: int, receiver: int) -> float:
        """Return the delivery delay for one transmission on ``sender -> receiver``."""
        ...


class ConstantLatency:
    """Every transmission takes exactly ``delay`` virtual-time units.

    ``ConstantLatency(0)`` is the synchronous degenerate case: the async
    channel delivers such messages inline, reproducing the paper's
    instant-delivery model exactly.
    """

    def __init__(self, delay: float = 0.0) -> None:
        if not delay >= 0.0:
            raise ConfigurationError(f"latency must be >= 0, got {delay}")
        self.delay = float(delay)

    def sample(self, rng: np.random.Generator, sender: int, receiver: int) -> float:
        return self.delay


class UniformLatency:
    """Uniform jitter: delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0.0 <= low <= high:
            raise ConfigurationError(
                f"uniform latency needs 0 <= low <= high, got [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator, sender: int, receiver: int) -> float:
        if self.low == self.high:
            return self.low
        # The double rng.uniform(low, high) returns, minus its argument checks.
        return self.low + (self.high - self.low) * rng.random()


class HeavyTailLatency:
    """Pareto-tailed delays: mostly near ``scale``, occasionally much larger.

    The delay is ``scale * (1 + Pareto(alpha))``, optionally truncated at
    ``cap`` to keep the drain phase bounded.  Smaller ``alpha`` means heavier
    tails; ``alpha <= 1`` has infinite mean, which is allowed but best paired
    with a cap.
    """

    def __init__(self, scale: float, alpha: float = 1.5, cap: Optional[float] = None) -> None:
        if not scale > 0.0:
            raise ConfigurationError(f"heavy-tail scale must be > 0, got {scale}")
        if not alpha > 0.0:
            raise ConfigurationError(f"heavy-tail alpha must be > 0, got {alpha}")
        if cap is not None and cap < scale:
            raise ConfigurationError(
                f"heavy-tail cap ({cap}) must be >= scale ({scale})"
            )
        self.scale = float(scale)
        self.alpha = float(alpha)
        self.cap = None if cap is None else float(cap)

    def sample(self, rng: np.random.Generator, sender: int, receiver: int) -> float:
        delay = self.scale * (1.0 + float(rng.pareto(self.alpha)))
        if self.cap is not None:
            delay = min(delay, self.cap)
        return delay


class AsymmetricLatency:
    """Per-site scaling of a base model: some links are slower than others.

    The site end of the link (the sender for site-to-coordinator traffic, the
    receiver for coordinator-to-site traffic) selects a multiplicative factor
    applied to the base model's draw.  Sites without an explicit factor use
    ``default_factor``.  This models, e.g., one site behind a slow WAN link
    while its peers sit in the same rack as the coordinator.
    """

    def __init__(
        self,
        base: LatencyModel,
        site_factors: Mapping[int, float],
        default_factor: float = 1.0,
    ) -> None:
        if not default_factor >= 0.0:
            raise ConfigurationError(
                f"default latency factor must be >= 0, got {default_factor}"
            )
        for site_id, factor in site_factors.items():
            if site_id < 0:
                raise ConfigurationError(f"site id must be >= 0, got {site_id}")
            if not factor >= 0.0:
                raise ConfigurationError(
                    f"latency factor for site {site_id} must be >= 0, got {factor}"
                )
        self.base = base
        self.site_factors = dict(site_factors)
        self.default_factor = float(default_factor)

    def sample(self, rng: np.random.Generator, sender: int, receiver: int) -> float:
        # Exactly one endpoint of every link is a site (non-negative id); the
        # coordinator end uses the COORDINATOR/BROADCAST sentinels (< 0).
        site_end = sender if sender >= 0 else receiver
        factor = self.site_factors.get(site_end, self.default_factor)
        return factor * self.base.sample(rng, sender, receiver)


#: The synchronous degenerate case, shared so callers don't re-allocate it.
ZERO_LATENCY = ConstantLatency(0.0)
