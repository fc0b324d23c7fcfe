"""Shared block-based tracking template (Sections 3.1 and 3.2).

Both the deterministic and the randomized counters share the same structure:

1. **Block partition (Section 3.1).**  Every site counts the updates it has
   received since it last told the coordinator (``c_i``) and the change in
   ``f`` since the last block boundary (``f_i``).  Once ``c_i`` reaches
   ``ceil(2^(r-1))`` the site reports the count.  The coordinator accumulates
   reported counts in ``t_hat`` and, once ``t_hat`` reaches
   ``ceil(2^(r-1)) * k``, closes the block: it requests (``c_i``, ``f_i``)
   from every site, recovers the exact ``n_j`` and ``f(n_j)``, recomputes the
   level ``r`` from ``|f(n_j)|``, and broadcasts the new ``r``.

2. **Within-block estimation (Section 3.2).**  Concrete algorithms fill in a
   *condition* (when a site speaks), a *message* (what it sends) and an
   *update* (how the coordinator revises its drift estimates ``d_hat_i``).
   The coordinator's estimate is always ``f(n_j) + sum_i d_hat_i``.

Subclasses implement the hooks marked "estimation hook" below; everything
about the block protocol is handled here so that the deterministic and
randomized trackers differ only in the three template slots, exactly as in
the paper.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Sequence

import numpy as np

from repro.core.blocks import block_level
from repro.engine import DEFAULT_KERNEL
from repro.exceptions import ConfigurationError, ProtocolError, StreamError
from repro.monitoring.coordinator import Coordinator
from repro.monitoring.messages import (
    BROADCAST_SITE,
    COORDINATOR,
    Message,
    MessageKind,
)
from repro.monitoring.network import MonitoringNetwork
from repro.monitoring.runner import TrackerFactory
from repro.monitoring.site import Site

__all__ = [
    "check_tracking_parameters",
    "BlockTrackingSite",
    "BlockTrackingCoordinator",
    "BlockTrackerFactory",
]

#: Below this run length the batched site path falls back to the per-update
#: loop: NumPy setup costs more than it saves on tiny runs.
_MIN_FAST_BATCH = 16

#: Below this span length the trackers' estimation hooks use plain-Python
#: simulation instead of NumPy (shared by the deterministic and randomized
#: sites so the crossover stays consistent).
_SCALAR_SPAN = 64


def check_tracking_parameters(num_sites: int, epsilon: float) -> None:
    """Validate the (k, eps) parameters shared by every tracker."""
    if num_sites < 1:
        raise ConfigurationError(f"num_sites must be >= 1, got {num_sites}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")


def _close_capabilities(kernel, network, coordinator, synchronous: bool):
    """The kernel's ``(can_fast_close, can_fast_forward)`` flags for one run.

    Simulated closes read and reset peer state directly, which is only sound
    when delivery is inline and every peer is a block-tracking site; fast
    forwarding further needs idempotent block starts on every actor.  The
    two peer predicates are invariants of the network's membership (a
    migration replaces the whole network object), so they are derived once
    per network and cached on it.  The kernel asks only when a run reaches
    a block close, and a close touches every site anyway, so the scan
    builds no site that the close would not build.
    """
    if not synchronous:
        return False, False
    flags = getattr(network, "_span_capabilities", None)
    if flags is None:
        sites = network.sites
        simulatable_peers = all(
            isinstance(site, BlockTrackingSite) for site in sites
        )
        idempotent_starts = (
            simulatable_peers
            and coordinator.idempotent_block_start
            and all(site.idempotent_block_start for site in sites)
        )
        flags = network._span_capabilities = (simulatable_peers, idempotent_starts)
    simulatable_peers, idempotent_starts = flags
    return (
        simulatable_peers,
        simulatable_peers and kernel.fast_forward and idempotent_starts,
    )


class BlockTrackingSite(Site, abc.ABC):
    """Site side of the block-based template."""

    #: The span-simulation kernel driving this site's batched fast path.
    #: Class-level so one stateless instance serves every site; benchmarks
    #: override it per instance (``SpanKernel(fast_forward=False)``) to
    #: measure what multi-block fast-forwarding buys.
    span_kernel = DEFAULT_KERNEL

    #: Whether :meth:`on_block_start` (site and coordinator side) is a pure,
    #: idempotent reset of per-block estimation state.  Multi-block
    #: fast-forwarding collapses ``M`` consecutive block starts into one
    #: final reset, so it only engages when every actor in the network
    #: declares this.  Trackers whose block start has history or side
    #: effects must leave it ``False`` (the default).
    idempotent_block_start = False

    #: Sequence-numbered block closes (the latency/loss repair).  Off by
    #: default: the naive protocol zeroes the whole per-block state on
    #: BROADCAST, silently discarding any drift that arrived between the
    #: site's REPLY and the (delayed, possibly retransmitted) BROADCAST.
    #: :func:`repro.faults.repair.enable_close_repair` flips this on every
    #: actor of a network; both sides of a channel must agree, because the
    #: repair adds a ``close`` sequence field to the close-protocol payloads.
    repair_closes = False

    def __init__(self, site_id: int, num_sites: int, epsilon: float) -> None:
        check_tracking_parameters(num_sites, epsilon)
        super().__init__(site_id)
        self.num_sites = num_sites
        self.epsilon = epsilon
        #: Current block level r, as last broadcast by the coordinator.
        self.level = 0
        #: c_i: updates received since the last count report (or reply).
        self.count_since_report = 0
        #: f_i: change in f received since the last block boundary broadcast.
        self.block_value_change = 0
        # Repair bookkeeping: the close sequence this site last replied to /
        # last committed, and the drift value that reply reported.
        self._replied_close = 0
        self._applied_close = 0
        self._replied_change = 0

    # -- block protocol -----------------------------------------------------

    def count_report_threshold(self) -> int:
        """Per-site count ``ceil(2^(r-1))`` after which a count report is sent."""
        return max(1, int(math.ceil(2 ** (self.level - 1))))

    def receive_update(self, time: int, delta: int) -> None:
        if delta not in (-1, 1):
            raise StreamError(
                f"block trackers require unit updates, got {delta}; expand "
                "larger updates with repro.core.expansion first"
            )
        self.count_since_report += 1
        self.block_value_change += delta
        self.on_stream_update(time, delta)
        if self.count_since_report >= self.count_report_threshold():
            count = self.count_since_report
            self.count_since_report = 0
            self.send(
                Message(
                    kind=MessageKind.REPORT,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload={"count": count},
                    time=time,
                )
            )

    def _commit_replied_close(self) -> None:
        """Repair: fold the last reply into the boundary once it is committed.

        Subtracting exactly what the reply reported leaves the drift that
        arrived *after* the reply in ``block_value_change``, where the next
        close's REPLY will carry it into the coordinator's boundary — the
        naive protocol's zeroing discards it forever.  Called when the
        matching BROADCAST arrives, or when a newer REQUEST proves the close
        committed even though its BROADCAST is still in flight (or was
        reordered past the request).
        """
        if self._replied_close > self._applied_close:
            self.block_value_change -= self._replied_change
            self._applied_close = self._replied_close
            self._replied_change = 0

    def receive_message(self, message: Message) -> None:
        if message.kind is MessageKind.REQUEST:
            if self.repair_closes:
                self._commit_replied_close()
            count = self.count_since_report
            change = self.block_value_change
            self.count_since_report = 0
            payload = {"count": count, "change": change}
            if self.repair_closes:
                seq = int(message.payload["close"])
                self._replied_close = seq
                self._replied_change = change
                payload["close"] = seq
            self.send(
                Message(
                    kind=MessageKind.REPLY,
                    sender=self.site_id,
                    receiver=COORDINATOR,
                    payload=payload,
                    time=message.time,
                )
            )
        elif message.kind is MessageKind.BROADCAST:
            if self.repair_closes:
                seq = int(message.payload["close"])
                if seq < self._replied_close:
                    # A close we have since been asked past: its effect was
                    # (or will be) committed by the newer REQUEST; applying
                    # the stale broadcast now would subtract twice.
                    return
                if seq > self._replied_close:
                    raise ProtocolError(
                        f"site {self.site_id} saw broadcast for close {seq} "
                        f"but last replied to close {self._replied_close}"
                    )
                self.level = int(message.payload["level"])
                self._commit_replied_close()
                # count_since_report is deliberately left alone: counts that
                # arrived after the reply stay pending for the next count
                # report instead of vanishing from t_hat.
                self.on_block_start(self.level)
                return
            self.level = int(message.payload["level"])
            self.block_value_change = 0
            self.count_since_report = 0
            self.on_block_start(self.level)
        else:
            raise ConfigurationError(
                f"site {self.site_id} received unexpected message kind {message.kind}"
            )

    # -- batched fast path ---------------------------------------------------

    def receive_batch(
        self,
        times: Sequence[int],
        deltas: Sequence[int],
        network=None,
    ) -> None:
        """Consume a contiguous run of local updates through the span kernel.

        Thin adapter over :class:`repro.engine.SpanKernel`: this method only
        validates the run, checks the channel (synchronous versus
        span-scheduling) and delegates, handing the kernel a query for the
        close capability flags (simulatable peers, multi-block eligibility)
        that it runs only when the run reaches a block close.  The kernel
        alternates *simulated spans* (the :meth:`on_stream_batch` hook reproduces the
        estimation-side traffic from cumulative sums while count reports are
        charged in bulk) with *block closes* computed in closed form — many
        consecutive closes at once, along the whole level schedule, where
        :meth:`on_multiblock_window` applies.

        Correctness-sensitive cases fall back to the ordinary per-update
        path through the kernel's single replay helper: short runs, non-unit
        deltas, an unknown coordinator or peer site type, message logging
        (the tracing reduction needs the real per-message transcript), and
        channels that support neither inline delivery nor span scheduling.

        The result is observationally identical to per-update delivery:
        identical site and coordinator state, identical message counts, bit
        counts and per-kind breakdown at every point the runner can observe.
        """
        if len(times) != len(deltas):
            raise ProtocolError(
                f"batch times ({len(times)}) and deltas ({len(deltas)}) must "
                "have equal length"
            )
        kernel = self.span_kernel
        coordinator = network.coordinator if network is not None else None
        channel = self._channel
        synchronous = channel is not None and channel.is_synchronous
        if (
            len(deltas) < _MIN_FAST_BATCH
            or not isinstance(coordinator, BlockTrackingCoordinator)
            or channel is None
            or channel.log_enabled
            or not (
                synchronous or getattr(channel, "supports_span_events", False)
            )
        ):
            kernel.replay(self, times, deltas)
            return
        array = np.asarray(deltas, dtype=np.int64)
        if not np.all(np.abs(array) == 1):
            # Replay per update so the StreamError for the first non-unit
            # delta fires after exactly the same prefix as the slow path.
            kernel.replay(self, times, deltas)
            return
        kernel.consume_run(
            self,
            network,
            coordinator,
            times,
            array,
            lambda: _close_capabilities(kernel, network, coordinator, synchronous),
        )

    # -- estimation hooks ----------------------------------------------------

    @abc.abstractmethod
    def on_stream_update(self, time: int, delta: int) -> None:
        """Estimation hook: called for every local update, before count logic."""

    @abc.abstractmethod
    def on_block_start(self, level: int) -> None:
        """Estimation hook: called when a new block (with level ``r``) begins."""

    def on_stream_update_superseded(self, time: int, delta: int) -> None:
        """Estimation hook for a step whose report the block close supersedes.

        Called by :meth:`repro.engine.SpanKernel.fast_close_step` in place of
        :meth:`on_stream_update` when the same step provably closes the
        block: any estimation report the step produces reaches the
        coordinator only to be wiped by the block start, so implementations
        may charge it (identical cost accounting) instead of delivering it.
        State updates and RNG draws must stay exact.  The default delegates
        to :meth:`on_stream_update`, which is always correct.
        """
        self.on_stream_update(time, delta)

    def on_stream_batch(
        self, times: Sequence[int], deltas: np.ndarray, start: int, length: int
    ) -> int:
        """Estimation hook (batch fast path): consume up to ``length`` steps.

        Implementations may consume a prefix of ``deltas[start:start+length]``
        in bulk and must reproduce *exactly* the estimation-side effects the
        per-update path would have over those steps: estimation state, RNG
        consumption, and every estimation report — either sent as a real
        message or, when a later report in the same span supersedes its
        coordinator-side effect, charged through
        :meth:`repro.monitoring.channel.Channel.charge` with
        identical cost.  The window is guaranteed trigger-free (no block
        close can occur inside it), so the block level — and with it every
        threshold and probability — is fixed throughout.  Returns the number
        of steps consumed; ``0`` (the default) defers the next step to the
        per-update path, which is always correct.
        """
        return 0

    def on_multiblock_window(
        self,
        deltas: np.ndarray,
        start: int,
        close_offsets: np.ndarray,
        levels: np.ndarray,
    ) -> bool:
        """Estimation hook (multi-block fast-forward): simulate whole cycles.

        The kernel calls this when the window starting at ``deltas[start]``
        provably consists of block closes.  The closes sit at the relative
        offsets ``close_offsets`` (the first is ``0``, the last is the
        window's final step) and ``levels[j]`` is the block level *after*
        close ``j``: the entry step runs at the current ``self.level`` and
        cycle ``j`` (the steps after close ``j - 1`` up to and including
        close ``j``) runs at ``levels[j - 1]``.  A same-level window is the
        special case of a constant schedule.  Every estimation report inside
        the window is superseded by a block close before the next
        observation point, so implementations must *charge* them all
        (identical per-message cost through
        :meth:`repro.monitoring.channel.Channel.charge`) rather than send
        any, reproduce the exact RNG consumption of per-update delivery,
        and leave the estimation state as freshly reset by the final close.
        Block-protocol traffic (count reports, request/reply/broadcast) is
        the kernel's job, not the hook's.

        Returns ``True`` if the window was handled; ``False`` (the default)
        declines, and the kernel simulates a single close instead.  Safe to
        decline for any reason — correctness never depends on accepting.
        """
        return False


class BlockTrackingCoordinator(Coordinator, abc.ABC):
    """Coordinator side of the block-based template."""

    #: Mirror of :attr:`BlockTrackingSite.idempotent_block_start` for the
    #: coordinator's :meth:`on_block_start`: multi-block fast-forwarding
    #: collapses ``M`` consecutive block starts into one final reset and
    #: only engages when the coordinator declares its reset idempotent.
    idempotent_block_start = False

    #: Optional observability hook bracketing real block-close rounds
    #: (:mod:`repro.observability.instrument`).  Observers are read-only;
    #: closes the span kernel simulates in closed form bypass these calls
    #: and surface through coordinator state at scrape time instead.
    observer = None

    #: Mirror of :attr:`BlockTrackingSite.repair_closes`: when on, every
    #: REQUEST/REPLY/BROADCAST of the close protocol carries the close's
    #: sequence number (charged in its bit cost like any payload field).
    repair_closes = False

    def __init__(self, num_sites: int, epsilon: float) -> None:
        check_tracking_parameters(num_sites, epsilon)
        super().__init__()
        self.num_sites = num_sites
        self.epsilon = epsilon
        #: Sequence number of the most recently started block close (repair).
        self._close_seq = 0
        #: Current block level r.
        self.level = 0
        #: Exact value f(n_j) at the last block boundary.
        self.boundary_value = 0
        #: Exact time n_j of the last block boundary.
        self.boundary_time = 0
        #: t_hat: updates reported (in count reports) since the boundary.
        self.reported_updates = 0
        #: Number of completed blocks.
        self.blocks_completed = 0
        self._collecting_replies = False
        self._replies: Dict[int, Message] = {}
        self._close_time = 0

    # -- estimate ------------------------------------------------------------

    def estimate(self) -> float:
        """Current estimate ``fhat(n) = f(n_j) + d_hat(n)``."""
        return self.boundary_value + self.drift_estimate()

    # -- block protocol ------------------------------------------------------

    def block_trigger_threshold(self) -> int:
        """Reported-update total ``ceil(2^(r-1)) * k`` that closes the block."""
        per_site = max(1, int(math.ceil(2 ** (self.level - 1))))
        return per_site * self.num_sites

    def absorb_count_reports(self, num_reports: int, count_each: int) -> None:
        """Bulk-apply ``num_reports`` count reports that provably miss the trigger.

        Fast-path equivalent of receiving ``num_reports`` REPORT messages with
        payload ``{"count": count_each}``: advances ``t_hat`` by their total.
        The caller must have established (in closed form) that the trigger is
        not reached, so no block close is due; this is verified defensively.
        """
        total = num_reports * count_each
        if self.reported_updates + total >= self.block_trigger_threshold():
            raise ConfigurationError(
                f"bulk-absorbing {num_reports} count reports of {count_each} "
                "would cross the block trigger; the closing report must go "
                "through the per-update path"
            )
        self.reported_updates += total

    @property
    def reply_quorum(self) -> int:
        """Replies that complete a block close: every site *this* coordinator serves.

        In the flat topology that is the global ``k``.  Inside the sharded
        hierarchy (:mod:`repro.monitoring.sharding`) each shard's coordinator
        is built for its own site group, so closes complete on the shard's
        reply count — never on the global site total.
        """
        return self.num_sites

    def receive_message(self, message: Message) -> None:
        if message.kind is MessageKind.REPLY:
            if not self._collecting_replies:
                raise ConfigurationError(
                    "coordinator received a reply outside of a block close"
                )
            if self.repair_closes:
                seq = int(message.payload["close"])
                if seq != self._close_seq:
                    raise ProtocolError(
                        f"reply from site {message.sender} answers close "
                        f"{seq}, but close {self._close_seq} is pending"
                    )
            self._replies[message.sender] = message
            if len(self._replies) == self.reply_quorum:
                self._finish_close()
            return
        if message.kind is not MessageKind.REPORT:
            raise ConfigurationError(
                f"coordinator received unexpected message kind {message.kind}"
            )
        if "count" in message.payload:
            self.reported_updates += int(message.payload["count"])
            if (
                not self._collecting_replies
                and self.reported_updates >= self.block_trigger_threshold()
            ):
                self._close_block(message.time)
        else:
            self.on_estimation_report(message)

    def _close_block(self, time: int) -> None:
        """Start a block close: request (``c_i``, ``f_i``) from every site.

        The close *finishes* (:meth:`_finish_close`) once all ``k`` replies
        have arrived.  Over a synchronous channel the replies come back
        reentrantly while the requests are being sent, so the close completes
        within this call, exactly as in the paper's instant-delivery model.
        Over an asynchronous channel the requests and replies are in flight
        for a while; the coordinator keeps absorbing reports in the meantime
        (count reports accumulate in ``t_hat`` but cannot re-trigger a close
        until the pending one finishes).
        """
        self._collecting_replies = True
        self._replies = {}
        self._close_time = time
        if self.observer is not None:
            self.observer.on_close_begin(self, time)
        payload = {}
        if self.repair_closes:
            self._close_seq += 1
            payload = {"close": self._close_seq}
        for site_id in range(self.num_sites):
            self.send(
                Message(
                    kind=MessageKind.REQUEST,
                    sender=COORDINATOR,
                    receiver=site_id,
                    payload=payload,
                    time=time,
                )
            )
        if self._channel is not None and self._channel.is_synchronous:
            # Synchronous delivery must have completed the close reentrantly;
            # a missing reply (a site mishandling REQUEST) is a wiring bug
            # and must fail loudly, not freeze all future closes.
            if self._collecting_replies:
                raise ConfigurationError(
                    f"block close expected {self.reply_quorum} replies, "
                    f"got {len(self._replies)}"
                )

    def _finish_close(self) -> None:
        """Complete the block close once every site has replied."""
        self._collecting_replies = False
        extra_updates = sum(int(r.payload["count"]) for r in self._replies.values())
        total_change = sum(int(r.payload["change"]) for r in self._replies.values())
        self.boundary_time += self.reported_updates + extra_updates
        self.boundary_value += total_change
        self.reported_updates = 0
        self.level = block_level(self.boundary_value, self.num_sites)
        self.blocks_completed += 1
        self.on_block_start(self.level)
        payload = {"level": self.level}
        if self.repair_closes:
            payload["close"] = self._close_seq
        self.send(
            Message(
                kind=MessageKind.BROADCAST,
                sender=COORDINATOR,
                receiver=BROADCAST_SITE,
                payload=payload,
                time=self._close_time,
            )
        )
        if self.observer is not None:
            self.observer.on_close_end(self, self._close_time)

    # -- estimation hooks ----------------------------------------------------

    @abc.abstractmethod
    def drift_estimate(self) -> float:
        """Estimation hook: current estimate ``d_hat`` of the in-block drift."""

    @abc.abstractmethod
    def on_estimation_report(self, message: Message) -> None:
        """Estimation hook: handle a site's estimation report."""

    @abc.abstractmethod
    def on_block_start(self, level: int) -> None:
        """Estimation hook: reset per-block estimation state."""


class BlockTrackerFactory(TrackerFactory, abc.ABC):
    """Common factory interface for the Section 3 trackers.

    A factory bundles the problem parameters (``k``, ``eps``) and knows how to
    build a freshly wired :class:`MonitoringNetwork`; convenience method
    :meth:`track` builds a network and runs a distributed stream through it.
    """

    def __init__(self, num_sites: int, epsilon: float) -> None:
        check_tracking_parameters(num_sites, epsilon)
        self.num_sites = num_sites
        self.epsilon = epsilon

    @abc.abstractmethod
    def build_coordinator(self) -> BlockTrackingCoordinator:
        """Create the coordinator for one run."""

    @abc.abstractmethod
    def build_site(self, site_id: int) -> BlockTrackingSite:
        """Create site ``site_id`` for one run."""

    def shard_factory(self, num_sites: int, shard_id: int) -> "BlockTrackerFactory":
        """Clone this factory for one shard's site group.

        Hook used by :func:`repro.monitoring.tree.build_tree_network`: the
        leaf at position ``shard_id`` of the leaf level runs an independent
        copy of this tracker over its ``num_sites``-site group, so every
        protocol threshold and the block close's reply quorum are derived
        from the leaf's own size, never the global ``k``.  Factories with
        extra construction state (seeds) override this to derive per-shard
        values deterministically.
        """
        return type(self)(num_sites, self.epsilon)

    def build_network(self, channel=None) -> MonitoringNetwork:
        """Create a wired coordinator + ``k`` sites network.

        Sites are built on first touch (see :class:`MonitoringNetwork`), so
        a leaf of a large tree pays for the sites its traffic reaches, not
        for all ``k``.  Every site's construction depends on its id alone,
        so build order cannot change any state or RNG draw.  ``channel``
        injects the transport (default: the synchronous counted channel).
        """
        return MonitoringNetwork(
            self.build_coordinator(),
            self.num_sites,
            channel=channel,
            build_site=self.build_site,
        )

    def bootstrap_network(self, network, values, counts) -> None:
        """Initialise a fresh network with exact per-site state.

        Live-migration hook (:func:`repro.monitoring.tree.migrate_site`):
        after a shard's membership changes, the rebuilt leaf network is
        seeded so that it behaves exactly as if a block boundary had just
        closed with these values — the coordinator's boundary holds the
        exact totals, the block level is recomputed for the *new* site
        count, and every actor starts a fresh block at that level.  The
        handoff protocol charges the request/reply/broadcast exchange this
        simulates on the real channels.

        Args:
            network: A freshly built, unused network from this factory.
            values: Exact per-site value contribution, in site-id order.
            counts: Exact per-site update count, in site-id order.
        """
        coordinator = network.coordinator
        coordinator.boundary_value = int(sum(values))
        coordinator.boundary_time = int(sum(counts))
        coordinator.reported_updates = 0
        coordinator.level = block_level(
            coordinator.boundary_value, coordinator.num_sites
        )
        coordinator.on_block_start(coordinator.level)
        for site in network.sites:
            site.level = coordinator.level
            site.count_since_report = 0
            site.block_value_change = 0
            site.on_block_start(site.level)
