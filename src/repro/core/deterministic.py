"""Deterministic variability-aware counter (Section 3.3).

Within each block at level ``r`` every site tracks its local drift ``d_i``
(the sum of updates it received this block) and the change ``delta_i`` since
it last reported.  The template slots are:

* **Condition** — report if ``r = 0`` and ``|delta_i| = 1`` (i.e. after every
  update), or if ``|delta_i| >= eps * 2^r``.
* **Message** — the new value of ``d_i``.
* **Update** — the coordinator sets ``d_hat_i = d_i``.

Guarantee: ``|f(n) - fhat(n)| <= eps * |f(n)|`` at every timestep, using at
most ``O(k v(n) / eps)`` messages in addition to the ``O(k v(n))`` messages of
the block partition.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.core.template import (
    _SCALAR_SPAN,
    BlockTrackerFactory,
    BlockTrackingCoordinator,
    BlockTrackingSite,
)
from repro.monitoring.messages import (
    COORDINATOR,
    HEADER_BITS,
    Message,
    MessageKind,
    integer_bit_length,
    integer_bit_lengths,
)

__all__ = ["DeterministicSite", "DeterministicCoordinator", "DeterministicCounter"]


def _lattice_reports(rel: np.ndarray, steps, cycle_starts) -> np.ndarray:
    """Report offsets of unit-step paths by the lattice rule, cycle by cycle.

    ``rel`` is the path minus its cycle's baseline, ``steps`` the report
    distance ``m = ceil(threshold)`` (one int, or one per step) and
    ``cycle_starts`` the sorted offsets where cycles begin (the first is 0).
    On unit steps from less than ``m`` away from the baseline, a report
    moves the baseline by exactly ``m``, so baselines stay on the lattice
    ``m·Z`` and the path visits no lattice point but its baseline between
    two reports.  A step is a *visit* when ``rel % m == 0``; a report is a
    visit whose lattice point differs from the previous visit's in the
    same cycle (0 at the cycle's start).
    """
    points, remainders = np.divmod(rel, steps)
    visits = np.flatnonzero(remainders == 0)
    points = points[visits]
    previous = np.zeros_like(points)
    previous[1:] = points[:-1]
    # The first visit at or after a cycle start opens a cycle (that one, or
    # the next one with any visit), so it follows lattice point 0.
    heads = np.searchsorted(visits, cycle_starts)
    previous[heads[heads < visits.size]] = 0
    return visits[points != previous]


def _threshold_crossings(
    path: np.ndarray, baseline: int, threshold: float, position: int, stop: int
):
    """Report offsets of the Section 3.3 condition over ``path[position:stop]``.

    A report fires at the first offset whose ``|path - baseline|`` reaches
    ``threshold`` and moves the baseline to the path value there.  The first
    step is checked on its own, so ``baseline`` may start any distance from
    the path; from there the path must move in unit steps, and the rest is
    one cycle of the lattice rule (:func:`_lattice_reports`).

    Returns ``(offsets, baseline)``: the reporting offsets in order and the
    baseline after the last of them (``baseline`` itself if none fired).
    """
    offsets = []
    if position < stop and abs(int(path[position]) - baseline) >= threshold:
        offsets.append(position)
        baseline = int(path[position])
        position += 1
    hits = position + _lattice_reports(
        path[position:stop] - baseline, math.ceil(threshold), [0]
    )
    if hits.size:
        baseline = int(path[hits[-1]])
    return offsets + hits.tolist(), baseline


class DeterministicSite(BlockTrackingSite):
    """Site side of the deterministic tracker."""

    #: Block starts only reset ``drift``/``unreported_drift`` (site) and the
    #: drift-estimate table (coordinator), so multi-block fast-forwarding may
    #: collapse consecutive resets into one.
    idempotent_block_start = True

    def __init__(self, site_id: int, num_sites: int, epsilon: float) -> None:
        super().__init__(site_id, num_sites, epsilon)
        #: d_i: drift (sum of updates) received this block.
        self.drift = 0
        #: delta_i: change in drift since the last estimation report.
        self.unreported_drift = 0

    def report_condition(self) -> bool:
        """The Section 3.3 condition for sending an estimation report."""
        if self.level == 0:
            return abs(self.unreported_drift) >= 1
        return abs(self.unreported_drift) >= self.epsilon * (2 ** self.level)

    def on_stream_update(self, time: int, delta: int) -> None:
        self.drift += delta
        self.unreported_drift += delta
        if self.report_condition():
            self.unreported_drift = 0
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"drift": self.drift},
                    time=time,
                )
            )

    def on_block_start(self, level: int) -> None:
        self.drift = 0
        self.unreported_drift = 0

    def on_stream_update_superseded(self, time: int, delta: int) -> None:
        self.drift += delta
        self.unreported_drift += delta
        if self.report_condition():
            self.unreported_drift = 0
            self._channel.charge(
                MessageKind.REPORT, 1, HEADER_BITS + integer_bit_length(self.drift)
            )

    def on_stream_batch(
        self, times: Sequence[int], deltas: np.ndarray, start: int, length: int
    ) -> int:
        """Simulate the span's estimation reports from cumulative sums.

        The Section 3.3 condition fires when the running ``|delta_i|``
        reaches ``eps * 2^r``, i.e. when the drift trajectory (a cumulative
        sum) moves ``threshold`` away from its value at the last report.  The
        coordinator keeps only the *latest* ``d_i`` per site, so within the
        span every report except the last is superseded: those are charged in
        bulk (identical bit accounting, no Python-level message dispatch) and
        only the final one is delivered as a real message.

        Two regimes share that emission logic: with ``threshold <= 1`` every
        step reports (closed form — this covers level 0 and low levels, where
        per-update dispatch is most expensive), and with ``threshold > 1``
        the report steps come from the lattice rule
        (:func:`_threshold_crossings`).
        """
        threshold = self._threshold_at(self.level)
        if length < _SCALAR_SPAN:
            return self._scalar_batch(times, deltas, start, length, threshold)
        path = self.drift + np.cumsum(deltas[start : start + length])
        final_drift = int(path[-1])
        if threshold <= 1.0 and self.unreported_drift == 0:
            # From a zero residual every unit step crosses a threshold <= 1,
            # so every step reports (and resets the residual to zero again).
            report_offsets = None
            residual = 0
        else:
            report_offsets, baseline = _threshold_crossings(
                path, self.drift - self.unreported_drift, threshold, 0, length
            )
            residual = final_drift - baseline
        self._emit_reports(times, path, start, report_offsets)
        self.drift = final_drift
        self.unreported_drift = residual
        return length

    def _threshold_at(self, level: int) -> float:
        return 1.0 if level == 0 else self.epsilon * (2 ** level)

    def on_multiblock_window(
        self,
        deltas: np.ndarray,
        start: int,
        close_offsets: np.ndarray,
        levels: np.ndarray,
    ) -> bool:
        """Simulate the estimation side of a multi-close window in one pass.

        Every report in the window is superseded by a block close before
        the next observation point, so all of them are charged, in one
        call.  The entry step runs at the current level with the
        carried-over residual; the first close then wipes drift and
        residual, so every cycle starts from zero and reports the path
        rebased at its preceding close.  One cumulative sum minus
        ``np.repeat`` baselines gives every cycle's drift path, and
        ``np.repeat`` of the per-level report distances gives each step's
        ``m``; the lattice rule (:func:`_lattice_reports`) then finds the
        report steps of all cycles at once (a dense cycle is ``m = 1``:
        every step reports).
        """
        window = deltas[start : start + int(close_offsets[-1]) + 1]
        path = np.cumsum(window)
        # Cycle j + 1 runs from cycle_starts[j] + 1 up to and including
        # close_offsets[j + 1] at levels[j]; in ``rel`` (the path from step
        # 1 on) it starts at offset cycle_starts[j].
        cycle_starts = close_offsets[:-1]
        cycle_sizes = np.diff(close_offsets)
        lookup = [
            math.ceil(self._threshold_at(r)) for r in range(int(levels.max()) + 1)
        ]
        steps = np.repeat(np.array(lookup)[levels[:-1]], cycle_sizes)
        rel = path[1:] - np.repeat(path[cycle_starts], cycle_sizes)
        drifts = rel[_lattice_reports(rel, steps, cycle_starts)]
        n_reports = drifts.size
        total_bits = drifts.size * HEADER_BITS + int(integer_bit_lengths(drifts).sum())
        entry = int(window[0])
        if abs(self.unreported_drift + entry) >= self._threshold_at(self.level):
            n_reports += 1
            total_bits += HEADER_BITS + integer_bit_length(self.drift + entry)
        if n_reports:
            self._channel.charge(MessageKind.REPORT, n_reports, total_bits)
        self.drift = 0
        self.unreported_drift = 0
        return True

    def _scalar_batch(
        self, times, deltas: np.ndarray, start: int, length: int, threshold: float
    ) -> int:
        """Plain-Python span simulation; faster than NumPy below ~64 steps.

        Same semantics as the vectorised path: superseded reports (all but
        the span's last) are charged, the last is delivered for real.
        """
        drift = self.drift
        unreported = self.unreported_drift
        charged = 0
        charged_bits = 0
        last_offset = -1
        last_drift = 0
        for offset, delta in enumerate(deltas[start : start + length].tolist()):
            drift += delta
            unreported += delta
            if abs(unreported) >= threshold:
                unreported = 0
                if last_offset >= 0:
                    charged += 1
                    charged_bits += HEADER_BITS + integer_bit_length(last_drift)
                last_offset = offset
                last_drift = drift
        if charged:
            self._channel.charge(MessageKind.REPORT, charged, charged_bits)
        if last_offset >= 0:
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"drift": last_drift},
                    time=times[start + last_offset],
                )
            )
        self.drift = drift
        self.unreported_drift = unreported
        return length

    def _emit_reports(self, times, path, start, report_offsets) -> None:
        """Charge all span reports except the last in one call; send the last.

        ``report_offsets`` is a sorted list of reporting offsets, or ``None``
        meaning every offset reports (the dense regime).
        """
        if report_offsets is None:
            values, last_offset = path, path.size - 1
        elif report_offsets:
            values, last_offset = path[report_offsets], report_offsets[-1]
        else:
            return
        superseded = values[:-1]
        if superseded.size:
            self._channel.charge(
                MessageKind.REPORT,
                superseded.size,
                superseded.size * HEADER_BITS
                + int(integer_bit_lengths(superseded).sum()),
            )
        self.send(
            Message(
                kind=MessageKind.REPORT,
                sender=self.site_id,
                receiver=COORDINATOR,
                payload={"drift": int(values[-1])},
                time=times[start + last_offset],
            )
        )


class DeterministicCoordinator(BlockTrackingCoordinator):
    """Coordinator side of the deterministic tracker."""

    idempotent_block_start = True

    def __init__(self, num_sites: int, epsilon: float) -> None:
        super().__init__(num_sites, epsilon)
        self._drift_estimates: Dict[int, int] = {}

    def drift_estimate(self) -> float:
        return float(sum(self._drift_estimates.values()))

    def on_estimation_report(self, message: Message) -> None:
        self._drift_estimates[message.sender] = int(message.payload["drift"])

    def on_block_start(self, level: int) -> None:
        self._drift_estimates = {}


class DeterministicCounter(BlockTrackerFactory):
    """Factory for the deterministic tracker of Section 3.3.

    Example:
        >>> from repro.core import DeterministicCounter
        >>> from repro.streams import random_walk_stream, assign_sites
        >>> counter = DeterministicCounter(num_sites=4, epsilon=0.1)
        >>> updates = assign_sites(random_walk_stream(1000, seed=7), num_sites=4)
        >>> result = counter.track(updates)
        >>> result.max_relative_error() <= 0.1
        True
    """

    def build_coordinator(self) -> DeterministicCoordinator:
        return DeterministicCoordinator(self.num_sites, self.epsilon)

    def build_site(self, site_id: int) -> DeterministicSite:
        return DeterministicSite(site_id, self.num_sites, self.epsilon)
