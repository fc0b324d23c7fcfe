"""Simulation runner: drive a distributed stream through a tracking algorithm.

:func:`run_tracking` is the one runner, the integration point used by the
tests, examples, benchmarks and the spec layer.  It drives every network — a
flat star or a tree of any depth, over synchronous, asynchronous or lossy
channels — and takes either workload: any *iterable* of updates (a list, a
generator, a file reader), consumed one buffered chunk at a time so memory
stays ``O(records)`` regardless of stream length and ``len()`` is never
required; or a recorded trace's :class:`~repro.streams.io.TraceColumns`,
replayed in one columnar pass without a single per-update object.  It
maintains the exact value ``f(t)`` alongside, records the coordinator's
estimate and the cumulative communication cost at every recording point,
and finally summarises error and cost statistics in a
:class:`TrackingResult`.

Two delivery engines share identical protocol semantics:

* **per-update** — every update flows through
  :meth:`~repro.monitoring.network.MonitoringNetwork.deliver_update`, one
  Python-level dispatch per timestep (the original hot path).
* **batched** — contiguous runs of updates destined for the same site are
  handed to
  :meth:`~repro.monitoring.network.MonitoringNetwork.deliver_batch`, which
  lets sites absorb communication-free prefixes in bulk (NumPy cumulative
  sums instead of per-update condition checks).  Runs are split at recording
  points so records are taken at exactly the same timesteps.  Trace columns
  always take this engine.

Both engines produce bit-for-bit identical estimates, message counts and bit
counts; ``tests/test_batch_equivalence.py`` asserts this on every stream
class the paper analyses.

The transport comes from the network.  Over asynchronous channels the runner
drives the *virtual* clock: before each update (per-update engine) or each
segment (batched engine) every in-flight message due by then is delivered, in
deterministic ``(due, send order)`` order, and after the last update the
network is drained so the coordinator settles on its final estimate; the
result is then an :class:`~repro.asynchrony.AsyncTrackingResult` with the
staleness aggregates.  Under zero latency an asynchronous run is bit-for-bit
the synchronous one (``tests/test_async_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring.history import EstimateHistory
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.sharding import ShardedNetwork
from repro.streams.io import TraceColumns
from repro.types import EstimateRecord, Update

__all__ = [
    "TrackerFactory",
    "TrackingResult",
    "run_tracking",
]

#: Maximum number of updates buffered at once by the batched engine.  Bounds
#: the engine's working memory independently of ``record_every``.
_CHUNK_SIZE = 32_768


@dataclass
class TrackingResult:
    """Outcome of running one tracking algorithm over one distributed stream.

    Attributes:
        records: One :class:`EstimateRecord` per recorded timestep.
        total_messages: Total messages charged by the channel.
        total_bits: Total bits charged by the channel.
        messages_by_kind: Message counts broken down by protocol role.
        history: The coordinator's estimate history (for tracing queries).
        levels: Per-level communication view (root level first) when the run
            drove a hierarchical network, ``None`` for flat networks.  Each
            entry is one :meth:`ShardedNetwork.level_summary` row.
        provenance: Self-certification stamp (spec hash + library version)
            attached by :meth:`repro.api.spec.BuiltRun.run`; ``None`` for
            runs driven outside the spec layer.
    """

    records: List[EstimateRecord] = field(default_factory=list)
    total_messages: int = 0
    total_bits: int = 0
    messages_by_kind: dict = field(default_factory=dict)
    history: EstimateHistory = field(default_factory=EstimateHistory)
    levels: Optional[List[dict]] = None
    provenance: Optional[dict] = None

    @property
    def length(self) -> int:
        """Number of recorded timesteps in the run."""
        return len(self.records)

    def max_relative_error(self) -> float:
        """Largest relative error over the run (errors at ``f = 0`` count as
        0 if the estimate is also ~0, else as infinity)."""
        if not self.records:
            return 0.0
        count = len(self.records)
        true_values = np.fromiter(
            (record.true_value for record in self.records), dtype=float, count=count
        )
        errors = np.abs(
            true_values
            - np.fromiter(
                (record.estimate for record in self.records), dtype=float, count=count
            )
        )
        at_zero = true_values == 0.0
        if np.any(errors[at_zero] > 1e-9):
            return float("inf")
        nonzero = ~at_zero
        if not nonzero.any():
            return 0.0
        return float(np.max(errors[nonzero] / np.abs(true_values[nonzero])))

    def error_violations(self, epsilon: float) -> int:
        """Number of timesteps at which the estimate breaks the eps guarantee."""
        return sum(
            1 for record in self.records if not record.within_relative_error(epsilon)
        )

    def violation_fraction(self, epsilon: float) -> float:
        """Fraction of timesteps violating the eps guarantee."""
        if not self.records:
            return 0.0
        return self.error_violations(epsilon) / len(self.records)

    def _elapsed_clock(self) -> float:
        """The run's elapsed (virtual) time, for rate normalisation.

        The synchronous engines' clock is the stream timestamp of the last
        recorded step; the asynchronous result overrides this with the
        transport's final virtual clock when that runs ahead.
        """
        if not self.records:
            return 0.0
        return float(self.records[-1].time)

    def rates(self) -> dict:
        """Message and bit throughput over the run's elapsed (virtual) time.

        Delegates to :meth:`repro.monitoring.channel.ChannelStats.rate`, the
        same helper the live service's rate gauges use, so a Prometheus
        scrape and a batch summary report identical numbers.
        """
        from repro.monitoring.channel import ChannelStats

        stats = ChannelStats(messages=self.total_messages, bits=self.total_bits)
        return stats.rate(self._elapsed_clock())

    def summary(self, epsilon: Optional[float] = None) -> dict:
        """The run's headline numbers as one JSON-compatible dict.

        The shared vocabulary for every JSON-emitting surface (``repro run
        --config``, the benchmark artifacts), so nobody hand-assembles the
        same dict with drifting key names.  Violation accounting needs the
        guarantee parameter, so it appears only when ``epsilon`` is given.

        Args:
            epsilon: Error parameter for violation accounting (optional).

        Returns:
            A dict with ``num_records``, ``total_messages``, ``total_bits``,
            ``messages_by_kind``, ``max_relative_error`` and ``rates``
            (messages/bits per unit of the run's clock) — plus ``epsilon``,
            ``error_violations`` and ``violation_fraction`` when ``epsilon``
            is given, ``levels`` (the per-level communication view) for
            hierarchical runs, and ``provenance`` when the run came through
            the spec layer.
        """
        data = {
            "num_records": self.length,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "messages_by_kind": dict(self.messages_by_kind),
            "max_relative_error": self.max_relative_error(),
            "rates": self.rates(),
        }
        if epsilon is not None:
            data["epsilon"] = epsilon
            data["error_violations"] = self.error_violations(epsilon)
            data["violation_fraction"] = self.violation_fraction(epsilon)
        if self.levels is not None:
            data["levels"] = [dict(row) for row in self.levels]
        if self.provenance is not None:
            data["provenance"] = dict(self.provenance)
        return data

    def to_dict(self, epsilon: Optional[float] = None) -> dict:
        """Full serialization: :meth:`summary` plus the per-step records."""
        data = self.summary(epsilon)
        data["records"] = [
            {
                "time": record.time,
                "true_value": record.true_value,
                "estimate": record.estimate,
                "messages": record.messages,
                "bits": record.bits,
            }
            for record in self.records
        ]
        return data


def _finish(result: TrackingResult, network):
    """Fill in the end-of-run totals; return the merged counters read.

    Totals and the per-kind breakdown come from the network's merged
    :class:`~repro.monitoring.channel.ChannelStats`.  A flat network's are
    its one channel's counters, and ``result.levels`` stays ``None``; a
    tree's come with one row per level, root first, from one walk over its
    channels (:meth:`ShardedNetwork.accounting`).
    """
    accounting = getattr(network, "accounting", None)
    if accounting is None:
        stats = network.stats
    else:
        stats, result.levels = accounting()
    result.total_messages = stats.messages
    result.total_bits = stats.bits
    result.messages_by_kind = dict(stats.by_kind)
    return stats


def _record(
    result: TrackingResult, network: MonitoringNetwork, time: int, true_value: int
) -> None:
    """Append one estimate record at the current network state.

    A record needs only the message and bit totals, so it reads them with
    ``channel.totals()`` instead of merging every per-kind breakdown.  On a
    tree those totals are kept running as messages are charged, so a record
    costs the same however many nodes the tree has.  The merged
    :attr:`stats` still gives the end-of-run totals; both count the same
    charges.
    """
    messages, bits = network.channel.totals()
    estimate = network.estimate()
    result.records.append(
        EstimateRecord(
            time=time,
            true_value=true_value,
            estimate=estimate,
            messages=messages,
            bits=bits,
        )
    )
    result.history.record(time, estimate)


def _run_per_update(
    network: MonitoringNetwork,
    updates: Iterable[Update],
    record_every: int,
    result: TrackingResult,
    advance=None,
) -> None:
    """Original engine: one ``deliver_update`` dispatch per timestep.

    ``advance`` is the asynchronous network's clock hook: when given, it is
    called with each update's timestep before the update is delivered.
    """
    true_value = 0
    last_time = 0
    seen_any = False
    recorded_last = False
    for index, update in enumerate(updates):
        if advance is not None:
            advance(update.time)
        network.deliver_update(update.time, update.site, update.delta)
        true_value += update.delta
        last_time = update.time
        seen_any = True
        if index % record_every == 0:
            _record(result, network, update.time, true_value)
            recorded_last = True
        else:
            recorded_last = False
    if seen_any and not recorded_last:
        _record(result, network, last_time, true_value)


def _segment_cuts(site_array: np.ndarray, start_index: int, record_every: int):
    """Segmentation rule, owned by :func:`repro.engine.segment_cuts`.

    Imported lazily so the engine package (which builds on
    ``repro.monitoring.messages``) and this module can load in either order.
    """
    from repro.engine import segment_cuts

    return segment_cuts(site_array, start_index, record_every)


def _deliver_segments(
    network: MonitoringNetwork,
    times: np.ndarray,
    sites: np.ndarray,
    deltas: np.ndarray,
    start_index: int,
    record_every: int,
    result: TrackingResult,
    true_value: int,
    advance=None,
) -> tuple:
    """Deliver one columnar slice as contiguous same-site segments.

    The recording loop of the batched engine, fed one buffered chunk of an
    update iterable at a time, or a whole trace's columns at once.  Segments
    are cut at site changes *and* at recording points (the kernel's
    segmentation rule), so records are taken at exactly the per-update
    engine's timesteps; ``advance`` hooks the asynchronous transport in at
    segment granularity.

    Args:
        times: Timestep column of the slice.
        sites: Destination-site column.
        deltas: Delta column.
        start_index: Global index of the slice's first update (recording
            points are global, not slice-relative).
        true_value: Exact stream value before the slice.
        advance: Optional virtual-clock hook, called with each segment's
            first timestep before the segment is delivered.

    Returns:
        ``(true_value, last_time, recorded_last)`` after the slice.
    """
    running = true_value + np.cumsum(deltas)
    last_time = 0
    recorded_last = False
    start = 0
    for end in _segment_cuts(sites, start_index, record_every):
        if advance is not None:
            advance(int(times[start]))
        if end - start == 1:
            network.deliver_update(
                int(times[start]), int(sites[start]), int(deltas[start])
            )
        else:
            network.deliver_batch(
                int(sites[start]), times[start:end], deltas[start:end]
            )
        last_time = int(times[end - 1])
        if (start_index + end - 1) % record_every == 0:
            _record(result, network, last_time, int(running[end - 1]))
            recorded_last = True
        else:
            recorded_last = False
        start = end
    return int(running[-1]), last_time, recorded_last


def _update_chunks(updates: Iterable[Update]):
    """The update iterable as ``(times, sites, deltas)`` column chunks.

    Buffers at most :data:`_CHUNK_SIZE` updates at a time, which bounds the
    batched engine's working memory independently of ``record_every``.
    """
    iterator = iter(updates)
    while True:
        chunk = list(islice(iterator, _CHUNK_SIZE))
        if not chunk:
            return
        length = len(chunk)
        yield (
            np.fromiter((u.time for u in chunk), dtype=np.int64, count=length),
            np.fromiter((u.site for u in chunk), dtype=np.int64, count=length),
            np.fromiter((u.delta for u in chunk), dtype=np.int64, count=length),
        )


def _run_batched(
    network: MonitoringNetwork,
    chunks,
    record_every: int,
    result: TrackingResult,
    advance=None,
) -> None:
    """Batched engine: contiguous same-site runs go through ``deliver_batch``.

    Routes each ``(times, sites, deltas)`` chunk through
    :func:`_deliver_segments`: the bounded chunks of an update iterable
    (:func:`_update_chunks`), or a trace's columns as one chunk, so the
    columnar replay and the update-object engine cannot drift.  A segment is
    also cut at every chunk boundary; on a tree, which pushes estimates
    upward once per delivery call, that can add a push (see ROADMAP item 2).
    ``advance`` is the asynchronous network's clock hook, called with the
    first timestep of every segment before the segment is delivered.
    """
    true_value = 0
    index = 0  # global index of the first update in the current chunk
    last_time = 0
    recorded_last = False
    for times, sites, deltas in chunks:
        true_value, last_time, recorded_last = _deliver_segments(
            network,
            times,
            sites,
            deltas,
            index,
            record_every,
            result,
            true_value,
            advance=advance,
        )
        index += len(times)
    if index and not recorded_last:
        _record(result, network, last_time, true_value)


def _virtual_clock(network):
    """What advances and drains an asynchronous network's virtual time.

    A tree is its own clock: :meth:`ShardedNetwork.advance_to` and
    :meth:`ShardedNetwork.drain` walk every node and push fresh estimates up
    each latency leg.  A flat network's clock is its channel.
    """
    if not isinstance(network, ShardedNetwork):
        return network.channel
    if any(channel.is_synchronous for channel in network.channel.channels):
        raise ProtocolError(
            "this tree mixes synchronous and asynchronous channels; wire every "
            "node over one transport (channel_factory=repro.asynchrony."
            "async_channels(...) for latency)"
        )
    return network


def _settle(result, network, clock) -> None:
    """Drain an asynchronous run, then read its totals and settled state."""
    from repro.analysis.staleness import summarize_staleness

    clock.drain()
    stats = _finish(result, network)
    result.staleness = summarize_staleness(network.channel)
    result.final_clock = network.channel.now
    result.final_estimate = network.estimate()
    result.final_true_value = result.records[-1].true_value if result.records else 0
    result.dropped = stats.dropped
    result.retransmitted = stats.retransmitted
    result.duplicates = stats.duplicates


def run_tracking(
    network: MonitoringNetwork,
    updates: Union[Iterable[Update], TraceColumns],
    record_every: int = 1,
    batched: Optional[bool] = None,
) -> TrackingResult:
    """Run a distributed stream through a network and collect per-step records.

    Args:
        network: The wired network to drive: flat, or a tree of any depth
            (whose sites are built only when a segment reaches them), over
            synchronous channels or over asynchronous ones at every node
            (see :func:`repro.asynchrony.async_channels`).
        updates: The distributed stream, one update per timestep, in time
            order.  Any iterable of :class:`~repro.types.Update` works —
            lists, generators, lazy readers — and is consumed exactly once
            without ever calling ``len()``.  A trace's
            :class:`~repro.streams.io.TraceColumns` is replayed in one
            columnar pass, with no per-update objects.
        record_every: Record an :class:`EstimateRecord` only every this many
            timesteps (the exact value and estimate are still checked at every
            recorded step).  Use values > 1 to keep memory small on very long
            streams; error statistics then refer to the recorded steps only.
            The final timestep is always recorded.  Records taken while
            messages are in flight show the *stale* estimate.
        batched: Select the delivery engine.  ``True`` forces the batched
            fast path, ``False`` forces per-update dispatch, and ``None``
            (the default) batches exactly when the channels are synchronous
            and ``record_every > 1`` (with ``record_every == 1`` every update
            is followed by a record, so there is nothing to batch).  Both
            engines produce identical estimates, message counts and bit
            counts.  An asynchronous run stays per-update, the exact
            per-message transport model, unless ``batched=True``: then the
            clock moves at segment granularity and each trigger-free span's
            count reports fly as *one* prepaid in-flight event — bit-for-bit
            the synchronous engine at zero latency, span-granularity timing
            otherwise.  Trace columns always run batched.

    Returns:
        A :class:`TrackingResult` with per-step records and total costs; over
        asynchronous channels, an :class:`~repro.asynchrony.AsyncTrackingResult`
        that also carries the staleness aggregates and the settled state
        after the final drain.

    Raises:
        ValueError: ``record_every < 1``.
        ProtocolError: A tree mixes synchronous and asynchronous channels,
            or trace columns are given for an asynchronous network.
        ConfigurationError: ``batched=False`` with trace columns (replay a
            trace per update with ``columns.to_updates()``).
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if network.channel.is_synchronous:
        clock, result = None, TrackingResult()
    else:
        # Imported lazily: the synchronous path needs nothing from the
        # asynchrony package.
        from repro.asynchrony.runner import AsyncTrackingResult

        clock, result = _virtual_clock(network), AsyncTrackingResult()
    advance = None if clock is None else clock.advance_to
    if isinstance(updates, TraceColumns):
        if clock is not None:
            raise ProtocolError(
                "trace columns replay over synchronous channels only; pass "
                "columns.to_updates() to run a trace over a latency-aware "
                "transport"
            )
        if batched is False:
            raise ConfigurationError(
                "trace columns always run on the batched engine; pass "
                "columns.to_updates() for per-update dispatch"
            )
        columns = [
            np.asarray(column, dtype=np.int64)
            for column in (updates.times, updates.sites, updates.deltas)
        ]
        _run_batched(network, [columns] if len(updates) else [], record_every, result)
    elif batched or (batched is None and clock is None and record_every > 1):
        _run_batched(network, _update_chunks(updates), record_every, result, advance)
    else:
        _run_per_update(network, updates, record_every, result, advance)
    if clock is None:
        _finish(result, network)
    else:
        _settle(result, network, clock)
    return result


class TrackerFactory:
    """Base of the tracker factories: :meth:`track` runs a fresh network.

    A factory bundles one tracker's parameters, and its ``build_network()``
    returns a freshly wired network; subclasses supply that method.
    """

    def track(
        self, updates, record_every: int = 1, batched: Optional[bool] = None
    ) -> TrackingResult:
        """Build a fresh network and run a distributed stream through it.

        Args:
            updates: Any iterable of :class:`~repro.types.Update` (lists,
                generators, lazy readers), or a trace's columns.
            record_every: Passed through to :func:`run_tracking`.
            batched: Delivery-engine selector, passed through to
                :func:`run_tracking`.

        Returns:
            The :class:`TrackingResult` of the run.
        """
        return run_tracking(
            self.build_network(), updates, record_every=record_every, batched=batched
        )
