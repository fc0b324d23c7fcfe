"""Unit tests for the fault-injecting channel's ARQ layer and its accounting.

The load-bearing claim is *exact* accounting: every transmission attempt —
original or retransmission — is charged at send time, and after a full drain
the reliability counters satisfy the conservation law
``retransmitted == dropped + duplicates`` (each extra attempt exists because
an earlier one was lost, or presumed lost by a spurious timeout).  Around
that: the zero-loss plan must be inert (delegating wholly to the base
channel), duplicates must arise exactly when sampled latency can exceed the
retransmission timeout, kind-restricted plans must only touch their kinds,
seeded runs must be reproducible, and drains must wait for pending
retransmissions instead of declaring victory early.
"""

import pytest

from repro.api import RunSpec, SourceSpec, TrackerSpec, TransportSpec
from repro.asynchrony import (
    ConstantLatency,
    UniformLatency,
    async_channels,
)
from repro.core import DeterministicCounter
from repro.exceptions import ConfigurationError
from repro.faults import (
    NO_LOSS,
    FaultPlan,
    FaultyChannel,
    GilbertElliottLoss,
    IIDLoss,
    RetransmitPolicy,
)
from repro.monitoring.messages import MessageKind
from repro.streams import RoundRobinAssignment, assign_sites, random_walk_stream
from repro.monitoring import build_tree_network, run_tracking

EPSILON = 0.1


def _updates(n=3_000, k=6, seed=2):
    return list(
        assign_sites(random_walk_stream(n, seed=seed), k, RoundRobinAssignment())
    )


def _lossy_network(plan, latency, k=6, seed=1):
    return build_tree_network(
        DeterministicCounter(k, EPSILON),
        fanouts=[],
        channel_factory=async_channels([], latency, seed=seed, faults=plan),
    )


class TestRetransmitPolicy:
    def test_rto_backs_off_exponentially_and_caps(self):
        policy = RetransmitPolicy(timeout=2.0, backoff=2.0, max_timeout=10.0)
        assert [policy.rto(i) for i in range(5)] == [2.0, 4.0, 8.0, 10.0, 10.0]
        # 2.0**1024 is past the largest float: still the cap, not an error.
        assert policy.rto(1_024) == policy.rto(5_000) == policy.max_timeout

    def test_near_total_loss_run_completes_with_conservation(self):
        # At loss 0.999 some message needs over 1,024 attempts, past the
        # float range of the default backoff 2**attempt.
        spec = RunSpec(
            source=SourceSpec(stream="random_walk", length=40, sites=2),
            tracker=TrackerSpec(name="deterministic"),
            transport=TransportSpec(
                mode="async",
                latency="uniform",
                scale=0.5,
                seed=1,
                loss=0.999,
                loss_seed=2,
            ),
            engine="per-update",
        )
        result = spec.build().run()
        assert result.dropped > 1_024
        assert result.retransmitted == result.dropped + result.duplicates

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(timeout=4.0, max_timeout=2.0)


class TestFaultPlan:
    def test_defaults_are_inert(self):
        plan = FaultPlan()
        assert plan.lossless
        assert plan.build_model() is NO_LOSS

    def test_builds_fresh_model_per_call(self):
        plan = FaultPlan(loss=0.2, model="burst")
        first, second = plan.build_model(), plan.build_model()
        assert isinstance(first, GilbertElliottLoss)
        assert first is not second  # per-link chain state must not be shared

    def test_iid_model(self):
        assert isinstance(FaultPlan(loss=0.2).build_model(), IIDLoss)

    def test_with_seed_replaces_only_the_seed(self):
        plan = FaultPlan(loss=0.3, model="burst", seed=5)
        other = plan.with_seed(11)
        assert other.seed == 11
        assert (other.loss, other.model) == (0.3, "burst")
        assert plan.seed == 5  # frozen original untouched

    def test_rejects_loss_outside_unit_interval(self):
        for loss in (-0.1, 1.0):
            with pytest.raises(ConfigurationError):
                FaultPlan(loss=loss)

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(loss=0.1, model="solar-flare")

    def test_rejects_infeasible_burst_eagerly(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(loss=0.9, model="burst", burst_length=1.0)

    def test_kinds_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(loss=0.1, kinds=frozenset())
        with pytest.raises(ConfigurationError):
            FaultPlan(loss=0.1, kinds=frozenset({"report"}))
        plan = FaultPlan(loss=0.1, kinds={MessageKind.REPORT})
        assert plan.kinds == frozenset({MessageKind.REPORT})


class TestInertBypass:
    def test_zero_loss_supports_span_events(self):
        channel = FaultyChannel(4, plan=FaultPlan())
        assert channel.supports_span_events

    def test_lossy_plan_disables_span_events(self):
        channel = FaultyChannel(4, plan=FaultPlan(loss=0.1))
        assert not channel.supports_span_events

    def test_zero_loss_run_has_no_reliability_traffic(self):
        network = _lossy_network(FaultPlan(), UniformLatency(0.5, 2.0))
        assert isinstance(network.channel, FaultyChannel)
        result = run_tracking(network, _updates())
        assert (result.dropped, result.retransmitted, result.duplicates) == (0, 0, 0)


class TestConservationLaws:
    @pytest.mark.parametrize(
        "plan,latency",
        [
            (FaultPlan(loss=0.15, seed=7), UniformLatency(1.0, 8.0)),
            (FaultPlan(loss=0.25, model="burst", seed=3), UniformLatency(0.5, 3.0)),
            (FaultPlan(loss=0.1, seed=9), ConstantLatency(0.0)),
        ],
    )
    def test_retransmitted_equals_dropped_plus_duplicates(self, plan, latency):
        network = _lossy_network(plan, latency)
        result = run_tracking(network, _updates())
        stats = network.channel.stats
        assert stats.dropped > 0
        assert stats.retransmitted == stats.dropped + stats.duplicates
        # Every logical message is delivered exactly once; the rest of the
        # charged traffic is exactly the retransmissions.
        assert stats.messages == len(network.channel.delivery_ages) + stats.retransmitted
        # The scalar counters and their per-kind decompositions agree.
        assert sum(stats.dropped_by_kind.values()) == stats.dropped
        assert sum(stats.retransmitted_by_kind.values()) == stats.retransmitted
        assert sum(stats.duplicates_by_kind.values()) == stats.duplicates
        # And the result surfaces the same totals.
        assert (result.dropped, result.retransmitted, result.duplicates) == (
            stats.dropped,
            stats.retransmitted,
            stats.duplicates,
        )

    def test_drain_leaves_nothing_in_flight(self):
        network = _lossy_network(
            FaultPlan(loss=0.3, seed=5), UniformLatency(1.0, 8.0)
        )
        run_tracking(network, _updates())
        assert network.channel.in_flight == 0

    def test_summary_surfaces_reliability(self):
        network = _lossy_network(FaultPlan(loss=0.2, seed=1), UniformLatency(1.0, 6.0))
        result = run_tracking(network, _updates())
        reliability = result.summary(EPSILON)["reliability"]
        assert reliability == {
            "dropped": result.dropped,
            "retransmitted": result.retransmitted,
            "duplicates": result.duplicates,
        }
        assert reliability["retransmitted"] == (
            reliability["dropped"] + reliability["duplicates"]
        )


class TestDuplicateSemantics:
    def test_fast_links_never_duplicate(self):
        # Latency strictly below the base timeout: no spurious timers, so
        # every retransmission answers a genuine drop.
        plan = FaultPlan(
            loss=0.2, seed=4, retransmit=RetransmitPolicy(timeout=4.0)
        )
        network = _lossy_network(plan, ConstantLatency(1.0))
        result = run_tracking(network, _updates())
        assert result.dropped > 0
        assert result.duplicates == 0
        assert result.retransmitted == result.dropped

    def test_slow_tail_produces_honest_duplicates(self):
        # Latency can exceed the timeout, so some copies are presumed lost
        # while still on the wire: the retransmitted copy races the slow
        # original and the loser is suppressed as a duplicate.
        plan = FaultPlan(
            loss=0.1, seed=4, retransmit=RetransmitPolicy(timeout=4.0)
        )
        network = _lossy_network(plan, UniformLatency(1.0, 8.0))
        result = run_tracking(network, _updates())
        assert result.duplicates > 0
        assert result.retransmitted == result.dropped + result.duplicates


class TestKindRestriction:
    def test_only_listed_kinds_are_faulted(self):
        plan = FaultPlan(loss=0.3, seed=6, kinds={MessageKind.REPORT})
        network = _lossy_network(plan, UniformLatency(0.5, 2.0))
        run_tracking(network, _updates())
        stats = network.channel.stats
        assert stats.dropped > 0
        assert set(stats.dropped_by_kind) == {"report"}
        assert set(stats.retransmitted_by_kind) <= {"report"}
        assert set(stats.duplicates_by_kind) <= {"report"}


class TestReproducibility:
    def test_same_seeds_same_run(self):
        def run():
            network = _lossy_network(
                FaultPlan(loss=0.2, model="burst", seed=8),
                UniformLatency(1.0, 6.0),
            )
            result = run_tracking(network, _updates())
            return (
                [(r.time, r.estimate, r.messages) for r in result.records],
                result.dropped,
                result.retransmitted,
                result.duplicates,
            )

        assert run() == run()

    def test_different_loss_seed_changes_the_run(self):
        def run(seed):
            network = _lossy_network(
                FaultPlan(loss=0.2, seed=seed), UniformLatency(1.0, 6.0)
            )
            return run_tracking(network, _updates()).dropped

        assert run(1) != run(2)
