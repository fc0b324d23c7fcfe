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
  over virtual time, weighted by how long each estimate was held.

A latency sweep — the experiment behind ``python -m repro latency`` — is a
:class:`~repro.api.Sweep` over ``transport.scale`` of an asynchronous
:class:`~repro.api.RunSpec`; each point's result carries its
:class:`StalenessSummary`, and its records feed
:func:`time_averaged_relative_error`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.types import EstimateRecord

__all__ = [
    "StalenessSummary",
    "summarize_staleness",
    "error_over_time",
    "time_averaged_relative_error",
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
