"""Fault-injecting transport: lossy links plus reliable delivery.

:class:`FaultyChannel` extends the latency-aware asynchronous channel with a
seeded loss model and an ARQ (automatic repeat request) layer, so every
engine and topology runs unmodified over an unreliable network:

* Each transmission attempt rolls the loss model.  A dropped attempt never
  arrives; the sender's retransmission timer (capped exponential backoff)
  re-sends it until a copy gets through.
* A copy that is merely *slow* — its sampled latency exceeds the current
  retransmission timeout — triggers a spurious retransmission, and whichever
  copy lands second is suppressed by receiver-side duplicate detection.  The
  race is modelled honestly, not assumed away.
* Every attempt, including retransmissions, is charged through the ordinary
  accounting funnel at send time, so ``ChannelStats.messages``/``bits`` are
  the *exact* cost of reliability.  The reliability counters decompose the
  attempts; after a full drain they satisfy the conservation law
  ``retransmitted == dropped + duplicates`` (every extra attempt exists
  because an earlier one was lost or presumed lost).

The zero-loss plan is *inert by construction*: the channel delegates wholly
to :class:`~repro.asynchrony.channel.AsyncChannel`, making a ``loss=0``
faulty transport bit-for-bit identical to the plain asynchronous engine —
the same bridge-back contract as ``ConstantLatency(0)``'s inline delivery.
With any loss, the batched span fast path is disabled
(``supports_span_events`` is ``False``) so prepaid span aggregates never
bypass the per-message loss rolls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional

import numpy as np

from repro.asynchrony.channel import AsyncChannel, InFlightMessage, Link
from repro.asynchrony.latency import ZERO_LATENCY, LatencyModel
from repro.exceptions import ConfigurationError
from repro.faults.loss import NO_LOSS, GilbertElliottLoss, IIDLoss, LossModel
from repro.monitoring.messages import COORDINATOR, Message, MessageKind

__all__ = ["RetransmitPolicy", "FaultPlan", "FaultyChannel", "LOSS_MODEL_NAMES"]

#: Spec-level names of the available loss models.
LOSS_MODEL_NAMES = ("iid", "burst")


@dataclass(frozen=True)
class RetransmitPolicy:
    """Capped exponential backoff for the sender-side retransmission timers.

    Attempt ``i`` (0-based) arms a timer ``min(timeout * backoff**i,
    max_timeout)`` virtual-time units after it is sent; if no copy of the
    message has been delivered when the timer fires, the sender charges and
    sends a fresh copy.  Timeouts are in the same virtual-time units as the
    latency models (one stream timestep).
    """

    timeout: float = 4.0
    backoff: float = 2.0
    max_timeout: float = 64.0

    def __post_init__(self) -> None:
        if not self.timeout > 0.0:
            raise ConfigurationError(
                f"retransmit timeout must be > 0, got {self.timeout}"
            )
        if not self.backoff >= 1.0:
            raise ConfigurationError(
                f"retransmit backoff must be >= 1, got {self.backoff}"
            )
        if not self.max_timeout >= self.timeout:
            raise ConfigurationError(
                f"max timeout ({self.max_timeout}) must be >= the base "
                f"timeout ({self.timeout})"
            )

    def rto(self, attempt: int) -> float:
        """Retransmission timeout armed for 0-based attempt ``attempt``."""
        try:
            return min(self.timeout * self.backoff**attempt, self.max_timeout)
        except OverflowError:  # a power past the largest float is past the cap
            return self.max_timeout


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults injected into one run.

    One plan describes the whole network; the builders derive a per-channel
    plan by re-seeding (:meth:`with_seed`), mirroring how latency seeds are
    derived, and each channel builds its *own* loss-model instance
    (:meth:`build_model`) because the burst model keeps per-link chain state.

    Attributes:
        loss: Long-run drop probability per transmission attempt, in
            ``[0, 1)``.  Zero makes the plan inert.
        model: ``"iid"`` (memoryless) or ``"burst"`` (Gilbert–Elliott).
        burst_length: Mean bad-spell length for the burst model, in attempts.
        seed: Seed for the loss generator (kept separate from the latency
            generator so loss and jitter are independently reproducible).
        kinds: Message kinds the loss applies to, or ``None`` for all four;
            exempt kinds travel the plain latency-only path.
        retransmit: Timer policy for the reliable-delivery layer.
    """

    loss: float = 0.0
    model: str = "iid"
    burst_length: float = 4.0
    seed: Optional[int] = 0
    kinds: Optional[FrozenSet[MessageKind]] = None
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError(
                f"loss rate must be in [0, 1) so retransmission can "
                f"terminate, got {self.loss}"
            )
        if self.model not in LOSS_MODEL_NAMES:
            raise ConfigurationError(
                f"unknown loss model {self.model!r}; choose one of "
                f"{', '.join(LOSS_MODEL_NAMES)}"
            )
        if self.kinds is not None:
            kinds = frozenset(self.kinds)
            if not kinds:
                raise ConfigurationError(
                    "a loss plan restricted to no message kinds is "
                    "meaningless; use loss=0 (or kinds=None) instead"
                )
            for kind in kinds:
                if not isinstance(kind, MessageKind):
                    raise ConfigurationError(
                        f"loss plan kinds must be MessageKind values, "
                        f"got {kind!r}"
                    )
            object.__setattr__(self, "kinds", kinds)
        # Validate burst parameters eagerly, not at first channel build.
        self.build_model()

    @property
    def lossless(self) -> bool:
        """Whether this plan can never drop anything (inert fast path)."""
        return self.loss == 0.0

    def build_model(self) -> LossModel:
        """Build a fresh loss-model instance (per-link state included)."""
        if self.loss == 0.0:
            return NO_LOSS
        if self.model == "burst":
            return GilbertElliottLoss(self.loss, self.burst_length)
        return IIDLoss(self.loss)

    def with_seed(self, seed: Optional[int]) -> "FaultPlan":
        """This plan re-seeded for one node of a multi-channel topology."""
        return dataclasses.replace(self, seed=seed)


class _ReliableTransfer(InFlightMessage):
    """One logical message moving through the ARQ layer.

    Scheduled attempt copies carry the transfer itself as their event
    payload; as an :class:`InFlightMessage`, it lets the base channel's
    ``_deliver`` — staleness, reordering and observer bookkeeping included —
    run unchanged on the winning copy.  ``sent_at`` stays the *first*
    attempt's send time, so delivery ages honestly include retransmission
    delay.
    """

    __slots__ = ("attempts", "delivered")

    def __init__(self, *fields) -> None:
        super().__init__(*fields)
        self.attempts = 0
        self.delivered = False


class _RetransmitTimer:
    """A pending retransmission deadline for one transfer."""

    __slots__ = ("transfer",)

    def __init__(self, transfer: _ReliableTransfer) -> None:
        self.transfer = transfer


class FaultyChannel(AsyncChannel):
    """An asynchronous channel whose links drop messages — reliably repaired.

    See the module docstring for the delivery model.  The channel shares the
    event queue with its in-flight messages: retransmission timers count
    toward :attr:`in_flight`, which is what makes the hierarchy's
    drain-until-quiescent loops wait for pending retransmissions instead of
    declaring victory while a message is still presumed lost.
    """

    def __init__(
        self,
        num_sites: int,
        latency: LatencyModel = ZERO_LATENCY,
        seed: Optional[int] = 0,
        preserve_order: bool = True,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(num_sites, latency, seed, preserve_order)
        self._plan = plan if plan is not None else FaultPlan()
        self._loss = self._plan.build_model()
        self._loss_rng = np.random.default_rng(self._plan.seed)
        self._policy = self._plan.retransmit
        self._kinds = self._plan.kinds
        self._inert = self._plan.lossless

    @property
    def plan(self) -> FaultPlan:
        """The fault plan this channel injects."""
        return self._plan

    @property
    def supports_span_events(self) -> bool:
        """Bulk span scheduling is only sound when the plan is inert.

        A prepaid span aggregate stands for many already-charged messages;
        letting it roll the loss model once would drop (or retransmit) the
        whole span as a unit, which is not the per-message semantics the
        loss models promise.  With loss enabled the engines fall back to
        per-update replay, so every report takes its own roll.
        """
        return self._inert

    # -- ARQ send path --------------------------------------------------------

    def _transmit(
        self,
        message: Message,
        handler: Callable[[Message], None],
        link: Link,
        delay: float,
    ) -> None:
        """Route one charged transmission through the ARQ layer.

        Inert plans (and kinds the plan exempts) take the base channel's
        path unchanged — that delegation *is* the ``loss=0`` bit-for-bit
        identity contract.
        """
        if self._inert or (self._kinds is not None and message.kind not in self._kinds):
            super()._transmit(message, handler, link, delay)
            return
        order = self._link_sent.get(link, 0)
        self._link_sent[link] = order + 1
        transfer = _ReliableTransfer(message, handler, link, order, self._clock)
        self._launch(transfer, delay)

    def _launch(self, transfer: _ReliableTransfer, delay: float) -> None:
        """Roll loss for one attempt; schedule its copy and/or its timer."""
        now = self._clock
        link = transfer.link
        timer_due = now + self._policy.rto(transfer.attempts)
        transfer.attempts += 1
        if self._loss.roll(self._loss_rng, link):
            # The copy vanishes on the wire: it was charged, it is never
            # delivered, and the armed timer will re-send it.
            self.stats.record_dropped(transfer.message)
            self._scheduler.push(timer_due, _RetransmitTimer(transfer))
            return
        delay = max(0.0, float(delay))
        fifo_clear = not self._preserve_order or self._link_pending.get(link, 0) == 0
        if delay == 0.0 and fifo_clear:
            self._arrive(transfer, now)
            return
        due = now + delay
        if self._preserve_order:
            due = max(due, self._link_front.get(link, 0.0))
            self._link_front[link] = due
        self._link_pending[link] = self._link_pending.get(link, 0) + 1
        self._scheduler.push(due, transfer)
        self.inflight_highwater = max(self.inflight_highwater, len(self._scheduler))
        if due > timer_due:
            # The copy is slower than the timeout: the sender will presume
            # it lost and retransmit, so the slow copy's eventual arrival
            # produces an honest duplicate.
            self._scheduler.push(timer_due, _RetransmitTimer(transfer))

    def _arrive(self, transfer: _ReliableTransfer, at: float) -> None:
        """One copy reaches the receiver: deliver first, suppress the rest."""
        if transfer.delivered:
            self._clock = max(self._clock, at)
            self.stats.record_duplicate(transfer.message)
            return
        transfer.delivered = True
        self._deliver(transfer, at)

    def _fire_timer(self, transfer: _ReliableTransfer, at: float) -> None:
        """Retransmission deadline: re-send unless a copy already landed."""
        if transfer.delivered:
            return
        self._clock = max(self._clock, at)
        self._account(transfer.message)
        self.stats.record_retransmit(transfer.message)
        direction, site = transfer.link
        if direction == "up":
            delay = self._latency.sample(self._rng, site, COORDINATOR)
        else:
            delay = self._latency.sample(self._rng, COORDINATOR, site)
        self._launch(transfer, delay)

    # -- event-loop dispatch --------------------------------------------------

    def _handle(self, event) -> None:
        payload = event.payload
        if type(payload) is _RetransmitTimer:
            self._fire_timer(payload.transfer, event.due)
        elif type(payload) is _ReliableTransfer:
            self._link_pending[payload.link] -= 1
            self._arrive(payload, event.due)
        else:
            # Plain in-flight message: an inert plan or an exempt kind.
            super()._handle(event)
