"""The span-simulation kernel shared by every delivery engine.

Two engines drive a tracking network — per-update and batched (which also
replays trace columns), over flat and tree topologies and synchronous and
asynchronous channels alike — and both lean on the same closed-form span
algebra: a contiguous run of updates destined for one site is an
alternation of *trigger-free spans* (no block
close can occur, so the block level and every threshold derived from it are
fixed) and *block closes* (request/reply/broadcast exchanges whose messages
touch known, idle peers).  This module extracts that algebra into one :class:`SpanKernel` so
the engines cannot drift apart:

* **Run segmentation** (:func:`segment_cuts`) — where a chunk of updates is
  cut into deliverable segments.  ``run_tracking``'s batched engine cuts
  every workload with it (update chunks and trace columns, over sync and
  async channels alike), so the bit-for-bit record contract is pinned in
  one place.
* **Trigger arithmetic** (:meth:`SpanKernel.close_offset`) — the 1-based step
  offset at which a site's count report would fire the coordinator's block
  trigger, computed in closed form from the count threshold and the
  trigger gap.
* **Bulk accounting** — count reports inside a trigger-free span all carry
  the same payload, so they are charged in one call and their cumulative
  ``t_hat`` effect applied at once (synchronously through
  ``absorb_count_reports``, asynchronously as a single prepaid in-flight
  aggregate: one event per span, not one per message).
* **Fallback semantics** (:meth:`SpanKernel.replay`) — every
  correctness-sensitive case (short run, logging enabled, non-unit delta,
  unknown peer types) replays the run through ``receive_update`` so errors
  fire after exactly the same prefix as per-update delivery.  The three
  previously duplicated fallback loops live here, once.
* **Multi-block fast-forwarding** (:meth:`SpanKernel.fast_forward_closes`) —
  when a run spans several consecutive block closes, at one level or
  climbing and descending the level ladder, the whole close sequence
  (request/reply/broadcast costs, ``t_hat`` and boundary evolution, the
  per-close level schedule) is computed in closed form instead of one
  simulated close per block.  This is the regime that dominates batched
  cost at small ``k`` and low levels, where blocks are only ``k * ceil(2^(r-1))``
  updates long.  The per-close level schedule (the close ladder,
  :func:`_close_ladder`) is stepped one close at a time in plain Python
  while the level keeps changing, as it does when the value hovers at a
  level-band edge, and probed with NumPy only along long same-level
  stretches, where the value lingers inside one band.

Exactness contract: within one ``receive_batch`` call nothing is observable
— the runner records estimates only between segments — so the kernel must
leave *final* site state, coordinator state, channel counters (messages,
bits, per-kind breakdown) and RNG position identical to per-update delivery.
``tests/test_engine_kernel.py`` pins this property across coordinators,
stream generators and shard counts.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.monitoring.messages import (
    COORDINATOR,
    HEADER_BITS,
    Message,
    MessageKind,
    integer_bit_length,
    integer_bit_lengths,
)

__all__ = ["segment_cuts", "SpanKernel", "DEFAULT_KERNEL"]


def segment_cuts(site_array: np.ndarray, start_index: int, record_every: int):
    """Exclusive end offsets splitting a chunk into deliverable segments.

    Cuts fall wherever the destination site changes, after every global
    recording point (``start_index`` is the global index of the chunk's
    first update), and at the chunk end.  Shared by the batched, columnar
    and asynchronous batched engines so their segmentation — and with it
    the bit-for-bit record contract — can never drift apart.
    """
    length = len(site_array)
    cuts = set((np.flatnonzero(site_array[1:] != site_array[:-1]) + 1).tolist())
    first_record = (-start_index) % record_every
    cuts.update(range(first_record + 1, length + 1, record_every))
    cuts.add(length)
    return sorted(cuts)


@lru_cache(maxsize=None)
def _band_edges(num_sites: int) -> np.ndarray:
    """Ascending level-band thresholds for ``k`` sites.

    The bands of :func:`repro.core.blocks.block_level` tile ``[0, inf)``
    contiguously — level 0 is ``[0, 4k)`` and level ``r >= 1`` is
    ``[2k * 2^r, 4k * 2^r)`` — so the level of any magnitude is the number
    of edges ``4k, 8k, 16k, ...`` at or below it: one bisect
    (``searchsorted``) over this precomputed array replaces the per-band
    comparisons, and is exact integer arithmetic for every magnitude the
    codebase can produce (payloads are bounded by stream length; see
    :func:`repro.monitoring.messages.integer_bit_lengths`).
    """
    edges = [4 * num_sites]
    while edges[-1] < (1 << 62):
        edges.append(edges[-1] * 2)
    return np.array(edges, dtype=np.int64)


@lru_cache(maxsize=None)
def _band_edge_list(num_sites: int) -> list:
    """:func:`_band_edges` as Python ints, for ``bisect_right`` on one magnitude."""
    return _band_edges(num_sites).tolist()


def _count_thresholds(levels: np.ndarray) -> np.ndarray:
    """Per-site count-report thresholds ``ceil(2^(r-1))`` for an array of levels."""
    return np.int64(1) << np.maximum(levels.astype(np.int64) - 1, 0)


#: Bounds of the close ladder's walk.  Each same-level stretch is first
#: stepped one close at a time for up to ``_LADDER_CHUNK_MIN`` closes: a
#: schedule hovering at a band edge changes level every few closes, and a
#: scalar step costs far less than the fixed overhead of a NumPy probe.  A
#: stretch that outlasts the scalar walk — a value that stays inside one
#: band for many closes — is probed in vectorised chunks of
#: ``_LADDER_CHUNK_MIN * _LADDER_CHUNK_GROWTH``, growing by
#: ``_LADDER_CHUNK_GROWTH`` while the level holds.
_LADDER_CHUNK_MIN = 8
_LADDER_CHUNK_GROWTH = 4


def _close_ladder(
    prefix: np.ndarray,
    index: int,
    length: int,
    offset: int,
    num_sites: int,
):
    """Positions, boundary values and post-close levels of a run's close ladder.

    Starting from the triggered close at ``index`` (whose boundary value is
    ``offset + prefix[index]``), each close's *post* level sets the cycle
    length ``k * ceil(2^(r-1))`` to the next close, so the ladder is walked
    one same-level stretch at a time: the stretch's closes sit on an
    arithmetic progression, their boundary values come straight off the
    prefix sums, their levels off the band-edge bisect, and the stretch ends
    either at the run's edge or one past the first level change (the
    transition close is taken — its broadcast re-levels the sites — and the
    walk continues at the new level's cycle).

    Each stretch is walked close by close in plain Python (``prefix.item``
    and ``bisect_right``) for up to :data:`_LADDER_CHUNK_MIN` closes, so a
    schedule that flips levels every few closes — a walk hovering at a band
    edge — pays a few scalar steps per stretch instead of a dozen NumPy
    calls.  A walk that drifts across bands leaves each one within a few
    closes too, so only an in-band stretch — the value lingering inside one
    band, as in same-level and descent schedules — outlasts the scalar walk;
    its rest is probed vectorised in chunks growing by
    :data:`_LADDER_CHUNK_GROWTH`, which gathers O(its closes) candidates.

    Returns ``(positions, boundaries, levels_after)`` as equal-length int64
    arrays; ``positions[0] == index`` always.
    """
    edge_list = _band_edge_list(num_sites)
    last = length - 1
    pos = index
    boundary = offset + prefix.item(pos)
    level = bisect_right(edge_list, abs(boundary))
    positions, boundaries, levels = [pos], [boundary], [level]
    probed = []  # ladder pieces in order, once a stretch needed a probe
    while True:
        cycle = num_sites * (1 << max(level - 1, 0))
        more = (last - pos) // cycle
        new_level = level
        for _ in range(min(more, _LADDER_CHUNK_MIN)):
            pos += cycle
            boundary = offset + prefix.item(pos)
            new_level = bisect_right(edge_list, abs(boundary))
            positions.append(pos)
            boundaries.append(boundary)
            levels.append(new_level)
            if new_level != level:
                break
        if new_level == level and more > _LADDER_CHUNK_MIN:
            # An in-band stretch outlasted the scalar walk: probe its rest.
            edges = _band_edges(num_sites)
            probed.append((positions, boundaries, levels))
            positions, boundaries, levels = [], [], []
            chunk = _LADDER_CHUNK_MIN
            while new_level == level:
                more = (last - pos) // cycle
                if more == 0:
                    break
                chunk *= _LADDER_CHUNK_GROWTH
                want = min(chunk, more)
                candidates = np.arange(
                    pos + cycle, pos + want * cycle + 1, cycle, dtype=np.int64
                )
                bounds = prefix[candidates]
                bounds += offset
                cand_levels = edges.searchsorted(np.abs(bounds), side="right")
                changes = np.flatnonzero(cand_levels != level)
                take = int(changes[0]) + 1 if changes.size else want
                probed.append((candidates[:take], bounds[:take], cand_levels[:take]))
                pos = int(candidates[take - 1])
                new_level = int(cand_levels[take - 1])
        if new_level == level:
            break  # the run ends inside this stretch
        level = new_level
    if not probed:
        return (
            np.array(positions, dtype=np.int64),
            np.array(boundaries, dtype=np.int64),
            np.array(levels, dtype=np.int64),
        )
    probed.append((positions, boundaries, levels))
    return tuple(
        np.concatenate([np.asarray(piece, dtype=np.int64) for piece in column])
        for column in zip(*probed)
    )


class SpanKernel:
    """Owns the closed-form span machinery of the block-template protocol.

    One stateless instance (:data:`DEFAULT_KERNEL`) serves every site; the
    benchmark harness swaps in ``SpanKernel(fast_forward=False)`` to measure
    what multi-block fast-forwarding buys over the single-close engine.

    Args:
        fast_forward: Enable multi-block fast-forwarding (closed-form
            simulation of consecutive block closes along the close ladder).
            Disabling it reproduces the single-close batched engine exactly.
    """

    def __init__(self, fast_forward: bool = True) -> None:
        self.fast_forward = fast_forward

    # -- fallback ------------------------------------------------------------

    @staticmethod
    def replay(site, times: Sequence[int], deltas: Sequence[int]) -> None:
        """Replay a run through ``receive_update``, one step at a time.

        The single fallback path for every case the closed-form machinery
        must not handle: short runs, logging enabled, asynchronous-channel
        states the span algebra cannot cover, non-unit deltas and unknown
        coordinator or peer types.  Replaying per update pins the fallback's
        *prefix semantics*: an error (e.g. the ``StreamError`` for the first
        non-unit delta) fires after exactly the same consumed prefix as
        per-update delivery would leave behind.
        """
        for time, delta in zip(times, deltas):
            site.receive_update(time, delta)

    # -- trigger arithmetic --------------------------------------------------

    @staticmethod
    def close_offset(
        count_since_report: int,
        count_threshold: int,
        reported_updates: int,
        trigger_threshold: int,
    ) -> int:
        """1-based step offset at which a count report would fire the trigger.

        Within an open block this site's count reports leave every
        ``count_threshold`` updates and each advances the coordinator's
        ``t_hat`` by exactly that amount, so the step at which one of them
        reaches the block trigger is pure arithmetic.  Every step strictly
        before the returned offset is trigger-free.
        """
        trigger_gap = trigger_threshold - reported_updates
        reports_to_close = -(-trigger_gap // count_threshold)
        return (count_threshold - count_since_report) + (
            reports_to_close - 1
        ) * count_threshold

    # -- main entry ----------------------------------------------------------

    def consume_run(
        self,
        site,
        network,
        coordinator,
        times: Sequence[int],
        deltas: np.ndarray,
        capabilities: Callable[[], Tuple[bool, bool]],
    ) -> None:
        """Consume a contiguous single-site run as spans and block closes.

        The run alternates *simulated spans* (the site's ``on_stream_batch``
        hook reproduces estimation traffic from cumulative sums while the
        kernel bulk-charges the span's count reports) and *close steps*.
        Close steps are fast-forwarded in closed form — many consecutive
        closes at once when ``can_fast_forward``, a single simulated close
        when ``can_fast_close`` — and otherwise replayed
        through ``receive_update``, as is any trigger-free step the hook
        declines.

        ``capabilities()`` returns ``(can_fast_close, can_fast_forward)``,
        the flags the adapter
        (:meth:`repro.core.template.BlockTrackingSite.receive_batch`)
        derives from the channel and peer types; both require a synchronous
        channel, since simulated closes read and reset peer state directly.
        It is called only at close steps: deriving the peer flags scans every
        site, which a close touches anyway but a trigger-free run must not.
        """
        length = len(deltas)
        channel = site._channel
        prefix = None
        index = 0
        while index < length:
            count_threshold = site.count_report_threshold()
            close_offset = self.close_offset(
                site.count_since_report,
                count_threshold,
                coordinator.reported_updates,
                coordinator.block_trigger_threshold(),
            )
            span = min(length - index, close_offset - 1)
            consumed = 0
            if span > 0:
                consumed = site.on_stream_batch(times, deltas, index, span)
            if consumed > 0:
                total_count = site.count_since_report + consumed
                num_reports = total_count // count_threshold
                site.count_since_report = total_count % count_threshold
                if num_reports:
                    # All count reports in the span carry the same payload
                    # (the threshold is fixed while the block is open), so
                    # one bulk charge covers them and their cumulative t_hat
                    # effect is applied at once.
                    self._emit_count_reports(
                        site,
                        coordinator,
                        channel,
                        num_reports,
                        count_threshold,
                        times[index + consumed - 1],
                    )
                site.block_value_change += int(
                    deltas[index : index + consumed].sum()
                )
                index += consumed
                continue
            if span == 0:
                can_fast_close, can_fast_forward = capabilities()
                if can_fast_forward:
                    if prefix is None:
                        prefix = np.cumsum(deltas)
                    advanced = self.fast_forward_closes(
                        site, network, coordinator, deltas, prefix, index
                    )
                    if advanced:
                        index += advanced
                        continue
                if can_fast_close:
                    self.fast_close_step(
                        site, network, coordinator, times[index], int(deltas[index])
                    )
                    index += 1
                    continue
            # Trigger step (or a hook fallback): the per-update path
            # produces the count report and the block close it fires.
            site.receive_update(times[index], int(deltas[index]))
            index += 1

    # -- bulk count-report accounting ----------------------------------------

    @staticmethod
    def _emit_count_reports(
        site, coordinator, channel, num_reports: int, count_each: int, time: int
    ) -> None:
        """Charge a span's count reports in bulk and apply their t_hat effect.

        Synchronous channels absorb the reports immediately through
        :meth:`~repro.core.template.BlockTrackingCoordinator.absorb_count_reports`
        (the caller established in closed form that the trigger is not
        reached).  Asynchronous channels instead put *one* prepaid aggregate
        report in flight — one event per span, not one per message — whose
        delivery advances ``t_hat`` by the span total through the ordinary
        receive path, so a trigger crossed by then (reports from other sites
        may have landed first) still closes the block correctly.
        """
        bits = num_reports * (HEADER_BITS + integer_bit_length(count_each))
        channel.charge(MessageKind.REPORT, num_reports, bits)
        if channel.is_synchronous:
            coordinator.absorb_count_reports(num_reports, count_each)
        else:
            channel.send_prepaid_to_coordinator(
                Message(
                    kind=MessageKind.REPORT,
                    sender=site.site_id,
                    receiver=COORDINATOR,
                    payload={"count": num_reports * count_each},
                    time=time,
                )
            )

    # -- single simulated close ----------------------------------------------

    @staticmethod
    def fast_close_step(site, network, coordinator, time: int, delta: int) -> None:
        """Process one update step, simulating any block close it triggers.

        Drop-in equivalent of ``receive_update`` for a unit delta, used at
        the closed-form trigger step of a batched run: :meth:`consume_run`
        calls it only where :meth:`close_offset` is 1, so this step's count
        report provably reaches the block trigger.  The estimation side runs
        through the site's ``on_stream_update_superseded`` (state and RNG
        draws exact, the step's report charged because the close supersedes
        it); the count report and the block close it fires are applied in
        closed form: peer sites are idle during a contiguous single-site
        run, so their request replies are read — and their counters reset —
        directly, with every elided message charged at exactly the cost the
        per-update path would record.
        """
        from repro.core.blocks import block_level

        site.count_since_report += 1
        site.block_value_change += delta
        # The step's estimation report (if any) reaches the coordinator just
        # before the close wipes all estimation state, so it can be charged
        # instead of delivered.
        site.on_stream_update_superseded(time, delta)
        count = site.count_since_report
        site.count_since_report = 0
        channel = site._channel
        num_sites = network.num_sites
        # The closing count report, then one request per site.
        channel.charge(MessageKind.REPORT, 1, HEADER_BITS + integer_bit_length(count))
        channel.charge(MessageKind.REQUEST, num_sites, num_sites * HEADER_BITS)
        # Replies: read every site's exact counters directly (this site
        # included), resetting the count exactly as a real request would.
        # Peer sites are idle mid-run, so almost all replies are {0, 0}.
        zero_reply_bits = HEADER_BITS + 2 * integer_bit_length(0)
        extra_updates = 0
        total_change = 0
        reply_bits = 0
        for peer in network.sites:
            peer_count = peer.count_since_report
            peer_change = peer.block_value_change
            if peer_count or peer_change:
                peer.count_since_report = 0
                extra_updates += peer_count
                total_change += peer_change
                reply_bits += (
                    HEADER_BITS
                    + integer_bit_length(peer_count)
                    + integer_bit_length(peer_change)
                )
            else:
                reply_bits += zero_reply_bits
        channel.charge(MessageKind.REPLY, num_sites, reply_bits)
        # Coordinator side of the close, mirroring _close_block exactly.
        coordinator.boundary_time += (
            coordinator.reported_updates + count + extra_updates
        )
        coordinator.boundary_value += total_change
        coordinator.reported_updates = 0
        coordinator.level = block_level(
            coordinator.boundary_value, coordinator.num_sites
        )
        coordinator.blocks_completed += 1
        coordinator.on_block_start(coordinator.level)
        # The level broadcast: charged once per site, delivered by resetting
        # every site's block state exactly as the broadcast handler would.
        broadcast_bits = HEADER_BITS + integer_bit_length(coordinator.level)
        channel.charge(MessageKind.BROADCAST, num_sites, num_sites * broadcast_bits)
        for peer in network.sites:
            peer.level = coordinator.level
            peer.block_value_change = 0
            peer.count_since_report = 0
            peer.on_block_start(peer.level)

    # -- multi-block fast-forwarding -----------------------------------------

    def fast_forward_closes(
        self,
        site,
        network,
        coordinator,
        deltas: np.ndarray,
        prefix: np.ndarray,
        index: int,
    ) -> int:
        """Simulate a run of consecutive block closes in closed form.

        Called at a closing step (the span arithmetic placed the next block
        trigger at this exact update).  At level ``r`` with per-site count
        threshold ``c = ceil(2^(r-1))``, a contiguous single-site run closes
        a block every ``L = c * k`` updates: ``k - 1`` count reports, then
        the closing report, then the request/reply/broadcast exchange with
        idle peers.  The whole close ladder — including closes whose
        boundary value *leaves* the current level's band, after which the
        next close sits the new level's cycle away — comes off the run's
        prefix sums (:func:`_close_ladder`), so the *entire sequence of
        ``M`` closes* has closed form even when it climbs or descends levels:

        * cost: the triggering close's report at the entry threshold plus
          ``k`` reports per later close at that cycle's own threshold,
          ``M * k`` requests, ``M * k`` replies (all-zero from peers, the
          cycle's net change from this site), ``M * k`` broadcasts carrying
          each close's post level;
        * coordinator: ``boundary_time`` advances by every counted update,
          ``boundary_value`` walks the per-cycle prefix sums, the level
          lands on the last close's band, ``blocks_completed += M``;
        * estimation: delegated to the site's ``on_multiblock_window`` hook,
          which reproduces state, RNG consumption and report costs across
          the window from the close offsets and the per-close level
          schedule — every estimation report inside it is superseded by a
          block close before the next observation point, so all of them are
          charged rather than delivered.

        Returns the number of steps consumed (0 if fast-forwarding does not
        apply here, in which case the caller simulates a single close).
        """
        count_threshold = site.count_report_threshold()
        level = coordinator.level
        if site.level != level:
            return 0
        count = site.count_since_report + 1
        if count != count_threshold:
            # A closing report larger than the threshold (stale site level or
            # mid-block entry) is out of steady state; close it singly.
            return 0
        trigger = coordinator.block_trigger_threshold()
        if coordinator.reported_updates + count < trigger:
            return 0
        length = len(deltas)
        num_sites = network.num_sites
        # Peer value changes feed only the first boundary (the first close's
        # broadcast zeroes every peer); peer counts are folded into
        # boundary_time by the reply loop below.
        peer_change = 0
        for peer in network.sites:
            if peer is not site:
                peer_change += peer.block_value_change
        first_boundary = (
            coordinator.boundary_value
            + site.block_value_change
            + int(deltas[index])
            + peer_change
        )
        offset = first_boundary - int(prefix[index])
        positions, boundaries, levels_after = _close_ladder(
            prefix, index, length, offset, coordinator.num_sites
        )
        closes = int(positions.size)
        if closes < 2:
            return 0
        window = int(positions[-1]) - index + 1
        final_level = int(levels_after[-1])
        # Estimation side first: the hook may decline, in which case nothing
        # has been committed yet and the single-close path runs.
        if not site.on_multiblock_window(
            deltas, index, positions - index, levels_after
        ):
            return 0
        channel = site._channel
        # Count reports: the triggering close contributes 1 report at the
        # entry threshold; each later close contributes k reports (k - 1
        # in-cycle plus the closing one) at its own cycle's threshold —
        # cycle ``j`` (the steps after close ``j - 1`` up to close ``j``)
        # runs at ``levels_after[j - 1]``.
        entry_report_bits = HEADER_BITS + integer_bit_length(count_threshold)
        cycle_report_bits = (closes - 1) * HEADER_BITS + int(
            integer_bit_lengths(_count_thresholds(levels_after[:-1])).sum()
        )
        channel.charge(
            MessageKind.REPORT,
            1 + (closes - 1) * num_sites,
            entry_report_bits + num_sites * cycle_report_bits,
        )
        channel.charge(
            MessageKind.REQUEST, closes * num_sites, closes * num_sites * HEADER_BITS
        )
        # Replies.  First close: read (and reset) real peer counters, exactly
        # like a single simulated close.  Later closes: peers answer {0, 0},
        # this site answers {0, cycle net change}.
        zero_reply_bits = HEADER_BITS + 2 * integer_bit_length(0)
        self_change = site.block_value_change + int(deltas[index])
        reply_bits = 0
        extra_updates = 0
        for peer in network.sites:
            if peer is site:
                peer_count, change = 0, self_change
            else:
                peer_count, change = peer.count_since_report, peer.block_value_change
            if peer_count or change:
                peer.count_since_report = 0
                extra_updates += peer_count
                reply_bits += (
                    HEADER_BITS
                    + integer_bit_length(peer_count)
                    + integer_bit_length(int(change))
                )
            else:
                reply_bits += zero_reply_bits
        cycle_changes = prefix[positions[1:]] - prefix[positions[:-1]]
        reply_bits += (closes - 1) * (
            (num_sites - 1) * zero_reply_bits
            + HEADER_BITS
            + integer_bit_length(0)
        ) + int(integer_bit_lengths(cycle_changes).sum())
        channel.charge(MessageKind.REPLY, closes * num_sites, reply_bits)
        # Broadcasts carry each close's post level (k copies per close).
        channel.charge(
            MessageKind.BROADCAST,
            closes * num_sites,
            num_sites
            * (closes * HEADER_BITS + int(integer_bit_lengths(levels_after).sum())),
        )
        # Coordinator: every counted update lands in boundary_time — the
        # pre-window t_hat, the first closing report and idle-peer residue,
        # then one full cycle per later close.
        coordinator.boundary_time += (
            coordinator.reported_updates
            + count
            + extra_updates
            + int(positions[-1]) - index
        )
        coordinator.boundary_value = int(boundaries[-1])
        coordinator.reported_updates = 0
        coordinator.level = final_level
        coordinator.blocks_completed += closes
        coordinator.on_block_start(final_level)
        for peer in network.sites:
            peer.level = final_level
            peer.block_value_change = 0
            peer.count_since_report = 0
            peer.on_block_start(final_level)
        return window


#: The stateless kernel instance every block-template site uses by default.
DEFAULT_KERNEL = SpanKernel()
