"""Staleness and error instrumentation for the asynchronous transport.

When messages take time to arrive, the coordinator's estimate lags the truth
in a way the paper's instant-delivery model never exhibits.  This module
turns the raw signals collected by
:class:`repro.asynchrony.channel.AsyncChannel` and the event-driven runner
into comparable numbers:

* :func:`summarize_staleness` — message age at delivery (mean / max /
  95th percentile), the in-flight high-water mark, and the count of
  reordered deliveries;
* :func:`time_averaged_relative_error` — estimate-vs-truth error traced
  over virtual time, weighted by how long each estimate was held;
* :func:`run_latency_sweep` — the experiment behind ``python -m repro
  latency``: sweep a latency scale and report achieved error next to
  staleness, holding stream, assignment and seeds fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import EstimateRecord

__all__ = [
    "StalenessSummary",
    "summarize_staleness",
    "error_over_time",
    "time_averaged_relative_error",
    "LatencySweepPoint",
    "run_latency_sweep",
]


@dataclass(frozen=True)
class StalenessSummary:
    """Aggregate staleness signals from one asynchronous run.

    Attributes:
        delivered: Total deliveries (inline and queued).
        mean_age: Mean virtual time spent in flight per delivery.
        max_age: Largest in-flight time of any delivery.
        p95_age: 95th percentile of in-flight times.
        inflight_highwater: Largest number of simultaneously in-flight
            messages at any virtual instant.
        reordered: Deliveries that arrived out of send order on their link
            (always 0 when the channel preserves per-link FIFO order).
    """

    delivered: int = 0
    mean_age: float = 0.0
    max_age: float = 0.0
    p95_age: float = 0.0
    inflight_highwater: int = 0
    reordered: int = 0


def summarize_staleness(channel) -> StalenessSummary:
    """Aggregate an :class:`~repro.asynchrony.channel.AsyncChannel`'s signals.

    Accepts any object exposing ``delivery_ages``, ``inflight_highwater`` and
    ``reordered_deliveries`` (duck-typed so this module stays import-light).
    """
    ages = np.asarray(channel.delivery_ages, dtype=float)
    if ages.size == 0:
        return StalenessSummary(
            inflight_highwater=channel.inflight_highwater,
            reordered=channel.reordered_deliveries,
        )
    return StalenessSummary(
        delivered=int(ages.size),
        mean_age=float(ages.mean()),
        max_age=float(ages.max()),
        p95_age=float(np.percentile(ages, 95)),
        inflight_highwater=channel.inflight_highwater,
        reordered=channel.reordered_deliveries,
    )


def error_over_time(records: Sequence[EstimateRecord]) -> List[tuple]:
    """Trace ``(time, relative error)`` pairs over a run's recorded steps.

    Steps with ``f(t) = 0`` use the absolute error instead (relative error is
    undefined there); this matches how
    :meth:`repro.monitoring.runner.TrackingResult.max_relative_error`
    treats the zero crossings of a random walk.
    """
    trace = []
    for record in records:
        if record.true_value == 0:
            trace.append((record.time, float(record.absolute_error)))
        else:
            trace.append(
                (record.time, float(record.absolute_error / abs(record.true_value)))
            )
    return trace


def time_averaged_relative_error(records: Sequence[EstimateRecord]) -> float:
    """Mean relative error over virtual time, weighted by holding duration.

    Each recorded estimate is held from its record time until the next
    record; the average weights each step's relative error by that span, so
    sparse recording strides do not bias the result toward burst periods.
    Returns 0.0 for an empty run.
    """
    if not records:
        return 0.0
    errors = np.asarray(
        [error for _, error in error_over_time(records)], dtype=float
    )
    times = np.asarray([record.time for record in records], dtype=float)
    if times.size == 1:
        return float(errors[0])
    spans = np.diff(times, append=times[-1] + (times[-1] - times[-2] or 1.0))
    spans = np.maximum(spans, 0.0)
    total = spans.sum()
    if total <= 0:
        return float(errors.mean())
    return float((errors * spans).sum() / total)


@dataclass(frozen=True)
class LatencySweepPoint:
    """One row of a latency sweep: protocol outcome at one latency scale.

    Attributes:
        scale: The latency scale (virtual-time units) this row was run at.
        messages: Total messages charged by the channel.
        bits: Total bits charged by the channel.
        max_relative_error: Worst relative error over the recorded steps.
        violation_fraction: Fraction of recorded steps violating the eps
            guarantee (the guarantee is proved for instant delivery only, so
            this is the quantity latency erodes).
        time_avg_error: Time-weighted mean relative error over the run.
        staleness: Message-age and in-flight aggregates for the run.
    """

    scale: float
    messages: int
    bits: int
    max_relative_error: float
    violation_fraction: float
    time_avg_error: float
    staleness: StalenessSummary


def run_latency_sweep(
    factory_builder: Callable[[], object],
    updates: Sequence,
    epsilon: float,
    scales: Sequence[float],
    model_for_scale: Optional[Callable[[float], object]] = None,
    record_every: int = 1,
    seed: int = 0,
    preserve_order: bool = True,
    shards: int = 1,
    sharding=None,
    batched: bool = False,
) -> List[LatencySweepPoint]:
    """Sweep delivery-latency scales and measure achieved error and staleness.

    Every scale runs the *same* distributed stream through a *fresh* network
    built by ``factory_builder`` (so per-run state and site RNGs restart
    identically), over an asynchronous channel whose latency model is
    ``model_for_scale(scale)``.  Scale 0 always uses the zero-latency model,
    i.e. the paper's synchronous semantics — the sweep's baseline row.

    Args:
        factory_builder: Zero-argument callable returning a tracker factory
            (e.g. ``lambda: DeterministicCounter(k, eps)``); called once per
            scale so runs cannot leak state into each other.
        updates: Materialised distributed stream (replayed once per scale).
        epsilon: Error parameter used for violation accounting.
        scales: Latency scales to sweep, in virtual-time units (one unit =
            one stream timestep).
        model_for_scale: Maps a positive scale to a latency model; defaults
            to uniform jitter on ``[scale / 2, 3 * scale / 2]``.
        record_every: Recording stride passed to the async runner.
        seed: Seed for the channel's latency RNG (same for every scale, so
            rows differ only by the model).
        preserve_order: Per-link FIFO (default) versus reordering allowed.
        shards: Coordinator shards; above 1 each scale runs the two-level
            sharded hierarchy, with the *same* latency model on the
            shard-local legs and on the shard-to-root leg — every estimate
            crosses two delays before the root sees it.
        sharding: Site-to-shard partition policy (contiguous by default).
        batched: Run each scale through the asynchronous bulk span engine
            (one in-flight event per trigger-free span) instead of
            per-update delivery — the option that makes 10^7-update sweeps
            tractable.  Zero-latency rows stay bit-for-bit the synchronous
            engine either way; positive scales model delivery at span
            granularity (see
            :func:`repro.asynchrony.runner.run_tracking_async`).

    Returns:
        One :class:`LatencySweepPoint` per scale, in input order.
    """
    # Imported here, not at module level: repro.asynchrony depends on this
    # module for its summary type, and the analysis package must stay
    # importable without it.
    from repro.asynchrony import (
        ConstantLatency,
        UniformLatency,
        async_channels,
        run_tracking_async,
    )
    from repro.monitoring.tree import build_tree_network

    if not scales:
        raise ConfigurationError("latency sweep needs at least one scale")
    if model_for_scale is None:
        model_for_scale = lambda scale: UniformLatency(scale / 2.0, 1.5 * scale)
    fanouts = [shards] if shards > 1 else []
    points = []
    for scale in scales:
        if scale < 0:
            raise ConfigurationError(f"latency scale must be >= 0, got {scale}")
        model = ConstantLatency(0.0) if scale == 0 else model_for_scale(scale)
        network = build_tree_network(
            factory_builder(),
            fanouts=fanouts,
            sharding=sharding,
            channel_factory=async_channels(
                fanouts, model, seed=seed, preserve_order=preserve_order
            ),
        )
        result = run_tracking_async(
            network, updates, record_every=record_every, batched=batched
        )
        points.append(
            LatencySweepPoint(
                scale=float(scale),
                messages=result.total_messages,
                bits=result.total_bits,
                max_relative_error=result.max_relative_error(),
                violation_fraction=result.violation_fraction(epsilon),
                time_avg_error=time_averaged_relative_error(result.records),
                staleness=result.staleness,
            )
        )
    return points
