"""Unit tests for the discrete-event asynchronous transport.

Covers the event scheduler's deterministic ordering, the latency models'
seeded sampling, the async channel's delivery/staleness semantics (in-flight
holding, per-link FIFO versus reordering, broadcast fan-out with independent
delays), the event-driven runner, and the ``latency`` CLI subcommand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchrony import (
    AsymmetricLatency,
    AsyncChannel,
    AsyncTrackingResult,
    ConstantLatency,
    EventScheduler,
    HeavyTailLatency,
    UniformLatency,
    ZERO_LATENCY,
    async_channels,
)
from repro.analysis.staleness import (
    error_over_time,
    summarize_staleness,
    time_averaged_relative_error,
)
from repro.api import RunSpec, SourceSpec, Sweep, TrackerSpec, TransportSpec
from repro.baselines import CormodeCounter, NaiveCounter
from repro.cli import main
from repro.core import DeterministicCounter, RandomizedCounter
from repro.exceptions import ConfigurationError, ProtocolError, SpecError
from repro.monitoring import TrackingResult, build_tree_network, run_tracking
from repro.monitoring.messages import BROADCAST_SITE, COORDINATOR, Message, MessageKind
from repro.streams import assign_sites, monotone_stream, random_walk_stream
from repro.types import EstimateRecord


class TestEventScheduler:
    def test_orders_by_due_then_insertion(self):
        scheduler = EventScheduler()
        scheduler.push(5.0, "late")
        scheduler.push(1.0, "first")
        scheduler.push(5.0, "late-second")
        scheduler.push(3.0, "middle")
        assert [e.payload for e in scheduler.pop_all()] == [
            "first",
            "middle",
            "late",
            "late-second",
        ]

    def test_pop_due_respects_window_and_reentrant_pushes(self):
        scheduler = EventScheduler()
        scheduler.push(1.0, "a")
        scheduler.push(2.0, "b")
        scheduler.push(10.0, "far")
        seen = []
        for event in scheduler.pop_due(5.0):
            seen.append(event.payload)
            if event.payload == "a":
                scheduler.push(1.5, "a-child")  # falls inside the window
        assert seen == ["a", "a-child", "b"]
        assert len(scheduler) == 1
        assert scheduler.next_due == 10.0

    def test_ties_with_unorderable_payloads_pop_in_insertion_order(self):
        # Events are tuples ordered by (due, seq); seq is unique, so two
        # dicts due at the same time are never compared with each other.
        scheduler = EventScheduler()
        first, second, third = {"n": 1}, {"n": 2}, {"n": 3}
        scheduler.push(2.0, first)
        scheduler.push(2.0, second)
        scheduler.push(1.0, third)
        scheduler.push(2.0, {"n": 4})
        popped = [event.payload for event in scheduler.pop_due(2.0)]
        assert popped == [third, first, second, {"n": 4}]
        assert popped[1] is first and popped[2] is second

    def test_rejects_negative_due(self):
        with pytest.raises(ProtocolError):
            EventScheduler().push(-1.0, "x")

    def test_empty_scheduler(self):
        scheduler = EventScheduler()
        assert len(scheduler) == 0
        assert scheduler.next_due is None
        assert list(scheduler.pop_due(100.0)) == []


class TestLatencyModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        model = ConstantLatency(3.5)
        assert model.sample(rng, 0, COORDINATOR) == 3.5
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_uniform_bounds_and_seeding(self):
        model = UniformLatency(2.0, 8.0)
        draws = [
            model.sample(np.random.default_rng(42), 0, COORDINATOR)
            for _ in range(5)
        ]
        assert all(2.0 <= d <= 8.0 for d in draws)
        assert len(set(draws)) == 1  # same seed, same draw
        varied = [model.sample(np.random.default_rng(i), 0, COORDINATOR) for i in range(20)]
        assert len(set(varied)) > 1
        with pytest.raises(ConfigurationError):
            UniformLatency(5.0, 2.0)
        assert UniformLatency(4.0, 4.0).sample(np.random.default_rng(0), 0, 0) == 4.0

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bounds=st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
            st.floats(0.0, 1e6),
        ).map(sorted),
    )
    def test_uniform_draws_are_rng_uniform_draws(self, seed, bounds):
        low, high = bounds
        model = UniformLatency(low, high)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(16):
            assert model.sample(ours, 0, COORDINATOR) == reference.uniform(low, high)

    def test_heavy_tail_positive_and_capped(self):
        model = HeavyTailLatency(scale=2.0, alpha=1.2, cap=50.0)
        rng = np.random.default_rng(11)
        draws = [model.sample(rng, 0, COORDINATOR) for _ in range(500)]
        assert all(2.0 <= d <= 50.0 for d in draws)
        assert max(draws) > 10.0  # the tail actually shows up
        with pytest.raises(ConfigurationError):
            HeavyTailLatency(scale=0.0)
        with pytest.raises(ConfigurationError):
            HeavyTailLatency(scale=5.0, cap=1.0)

    def test_asymmetric_selects_site_end(self):
        base = ConstantLatency(2.0)
        model = AsymmetricLatency(base, {0: 10.0, 2: 0.0}, default_factor=1.0)
        rng = np.random.default_rng(0)
        # Site-to-coordinator: the sender is the site end.
        assert model.sample(rng, 0, COORDINATOR) == 20.0
        # Coordinator-to-site: the receiver is the site end.
        assert model.sample(rng, COORDINATOR, 2) == 0.0
        assert model.sample(rng, COORDINATOR, 1) == 2.0
        with pytest.raises(ConfigurationError):
            AsymmetricLatency(base, {0: -1.0})


def _report(sender=0, time=1, **payload):
    payload = payload or {"drift": 1}
    return Message(
        kind=MessageKind.REPORT,
        sender=sender,
        receiver=COORDINATOR,
        payload=payload,
        time=time,
    )


class TestAsyncChannel:
    def _channel(self, num_sites=2, **kwargs):
        channel = AsyncChannel(num_sites, **kwargs)
        inbox = []
        channel.register_coordinator(inbox.append)
        site_boxes = [[] for _ in range(num_sites)]
        for site_id in range(num_sites):
            channel.register_site(site_id, site_boxes[site_id].append)
        return channel, inbox, site_boxes

    def test_messages_held_in_flight_until_due(self):
        channel, inbox, _ = self._channel(latency=ConstantLatency(5.0))
        channel.send_to_coordinator(_report())
        assert channel.stats.messages == 1  # charged at send
        assert inbox == []  # not delivered yet
        assert channel.in_flight == 1
        channel.advance_to(4.9)
        assert inbox == []
        channel.advance_to(5.0)
        assert len(inbox) == 1
        assert channel.in_flight == 0
        assert channel.delivery_ages == [5.0]

    def test_zero_latency_delivers_inline(self):
        channel, inbox, _ = self._channel(latency=ConstantLatency(0.0))
        channel.send_to_coordinator(_report())
        assert len(inbox) == 1
        assert channel.in_flight == 0
        assert channel.inflight_highwater == 0

    def test_fifo_link_order_preserved(self):
        """With FIFO links a later message never overtakes an earlier one."""

        class Shrinking:
            def __init__(self):
                self.delays = iter([10.0, 1.0])

            def sample(self, rng, sender, receiver):
                return next(self.delays)

        channel, inbox, _ = self._channel(latency=Shrinking(), preserve_order=True)
        first = _report(time=1, drift=1)
        second = _report(time=2, drift=2)
        channel.send_to_coordinator(first)
        channel.send_to_coordinator(second)
        channel.drain()
        assert [m.payload["drift"] for m in inbox] == [1, 2]
        assert channel.reordered_deliveries == 0
        # The second message waited behind the first: age 10, not 1.
        assert channel.delivery_ages == [10.0, 10.0]

    def test_reordering_allowed_and_counted(self):
        class Shrinking:
            def __init__(self):
                self.delays = iter([10.0, 1.0])

            def sample(self, rng, sender, receiver):
                return next(self.delays)

        channel, inbox, _ = self._channel(latency=Shrinking(), preserve_order=False)
        channel.send_to_coordinator(_report(time=1, drift=1))
        channel.send_to_coordinator(_report(time=2, drift=2))
        channel.drain()
        assert [m.payload["drift"] for m in inbox] == [2, 1]
        assert channel.reordered_deliveries == 1

    def test_broadcast_charges_k_and_fans_out_with_independent_delays(self):
        channel, _, site_boxes = self._channel(
            num_sites=3, latency=UniformLatency(1.0, 50.0), seed=5
        )
        broadcast = Message(
            kind=MessageKind.BROADCAST,
            sender=COORDINATOR,
            receiver=BROADCAST_SITE,
            payload={"level": 2},
            time=1,
        )
        channel.send_to_site(broadcast)
        assert channel.stats.messages == 3
        assert channel.in_flight == 3
        channel.drain()
        assert all(len(box) == 1 for box in site_boxes)
        assert len(set(channel.delivery_ages)) > 1  # per-copy jitter

    def test_inflight_highwater(self):
        channel, _, _ = self._channel(latency=ConstantLatency(100.0))
        for time in range(1, 6):
            channel.send_to_coordinator(_report(time=time))
        assert channel.inflight_highwater == 5
        channel.drain()
        assert channel.in_flight == 0
        assert channel.inflight_highwater == 5

    def test_clock_is_monotone(self):
        channel, _, _ = self._channel(latency=ConstantLatency(2.0))
        channel.advance_to(10.0)
        assert channel.now == 10.0
        channel.advance_to(3.0)  # stale window: no-op, clock keeps its value
        assert channel.now == 10.0

    def test_send_validation_matches_sync_channel(self):
        channel = AsyncChannel(2)
        with pytest.raises(ProtocolError):
            channel.send_to_coordinator(_report())
        channel.register_coordinator(lambda m: None)
        with pytest.raises(ProtocolError):
            channel.send_to_site(
                Message(
                    kind=MessageKind.REQUEST,
                    sender=COORDINATOR,
                    receiver=7,
                    payload={},
                    time=1,
                )
            )

    def test_is_synchronous_flags(self):
        assert AsyncChannel(1).is_synchronous is False
        network = DeterministicCounter(1, 0.1).build_network()
        assert network.channel.is_synchronous is True


class TestAsyncRunner:
    def test_synchronous_network_returns_plain_result(self):
        network = DeterministicCounter(2, 0.1).build_network()
        updates = assign_sites(random_walk_stream(10, seed=0), 2)
        assert type(run_tracking(network, updates)) is TrackingResult

    def test_async_network_delivers_every_charged_message(self):
        """run_tracking drives and drains an async network's clock instead of
        silently charging messages that are never delivered."""
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ConstantLatency(5.0)),
        )
        updates = assign_sites(random_walk_stream(10, seed=0), 2)
        result = run_tracking(network, updates)
        assert isinstance(result, AsyncTrackingResult)
        assert network.channel.in_flight == 0
        assert result.total_messages > 0
        assert result.staleness.delivered == result.total_messages

    def test_rejects_bad_record_every(self):
        network = build_tree_network(
            NaiveCounter(1),
            fanouts=[],
            channel_factory=async_channels([], ZERO_LATENCY),
        )
        with pytest.raises(ValueError):
            run_tracking(network, [], record_every=0)

    def test_naive_tracker_settles_exactly_after_drain(self):
        """Every update eventually arrives, so the drained naive count is exact."""
        updates = assign_sites(random_walk_stream(400, seed=2), 2)
        network = build_tree_network(
            NaiveCounter(2),
            fanouts=[],
            channel_factory=async_channels([], UniformLatency(3.0, 30.0), seed=4),
        )
        result = run_tracking(network, updates)
        assert result.settled_error() == 0.0
        assert result.final_clock > 400.0  # messages were still in flight at the end
        assert result.staleness.mean_age > 0.0

    def test_records_show_stale_estimates(self):
        """With delivery slower than the stream, recorded estimates lag the truth."""
        updates = assign_sites(monotone_stream(300), 1)
        network = build_tree_network(
            NaiveCounter(1),
            fanouts=[],
            channel_factory=async_channels([], ConstantLatency(50.0)),
        )
        result = run_tracking(network, updates)
        mid = result.records[150]
        assert mid.estimate == mid.true_value - 50.0  # exactly the in-flight window
        assert result.staleness.inflight_highwater == 50

    def test_backlog_lands_only_in_the_final_drain(self):
        updates = assign_sites(monotone_stream(100), 1)
        network = build_tree_network(
            NaiveCounter(1),
            fanouts=[],
            channel_factory=async_channels([], ConstantLatency(1000.0)),
        )
        result = run_tracking(network, updates)
        # Every message was still in flight at every record...
        assert all(record.estimate == 0.0 for record in result.records)
        # ...and the drain after the last update delivered all 100.
        assert result.final_estimate == 100.0
        assert result.final_true_value == 100

    def test_block_protocol_completes_under_latency(self):
        updates = assign_sites(random_walk_stream(5_000, seed=3), 4)
        network = build_tree_network(
            DeterministicCounter(4, 0.1),
            fanouts=[],
            channel_factory=async_channels([], UniformLatency(2.0, 20.0), seed=1),
        )
        result = run_tracking(network, updates, record_every=50)
        assert network.coordinator.blocks_completed > 0
        assert result.total_messages > 0
        assert result.staleness.delivered == result.total_messages

    def test_round_protocol_completes_under_latency(self):
        updates = assign_sites(monotone_stream(5_000), 4)
        network = build_tree_network(
            CormodeCounter(4, 0.1),
            fanouts=[],
            channel_factory=async_channels([], UniformLatency(2.0, 20.0), seed=1),
        )
        result = run_tracking(network, updates, record_every=50)
        assert network.coordinator.rounds_completed > 0
        assert result.settled_error() >= 0.0

    def test_seeded_runs_are_reproducible(self):
        updates = assign_sites(random_walk_stream(2_000, seed=5), 4)

        def run():
            network = build_tree_network(
                RandomizedCounter(4, 0.1, seed=9),
                fanouts=[],
                channel_factory=async_channels(
                    [], HeavyTailLatency(5.0, alpha=1.3, cap=200.0), seed=17
                ),
            )
            result = run_tracking(network, updates, record_every=25)
            return (
                [(r.time, r.estimate, r.messages, r.bits) for r in result.records],
                result.staleness,
                result.final_clock,
            )

        assert run() == run()

    def test_batched_engine_refuses_fast_path_on_async_channel(self):
        """deliver_batch over an async channel falls back to exact per-update replay."""
        updates = assign_sites(random_walk_stream(600, seed=6), 1)
        network = build_tree_network(
            DeterministicCounter(1, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ZERO_LATENCY),
        )
        network.deliver_batch(0, [u.time for u in updates], [u.delta for u in updates])
        reference = DeterministicCounter(1, 0.1).build_network()
        for update in updates:
            reference.deliver_update(update.time, update.site, update.delta)
        assert network.stats.messages == reference.stats.messages
        assert network.stats.bits == reference.stats.bits
        assert network.estimate() == reference.estimate()


class TestStalenessAnalysis:
    def test_summarize_empty_channel(self):
        summary = summarize_staleness(AsyncChannel(1))
        assert summary.delivered == 0
        assert summary.mean_age == 0.0
        assert summary.inflight_highwater == 0

    def test_error_over_time_handles_zero_truth(self):
        records = [
            EstimateRecord(time=1, true_value=0, estimate=2.0, messages=0, bits=0),
            EstimateRecord(time=2, true_value=10, estimate=9.0, messages=0, bits=0),
        ]
        trace = error_over_time(records)
        assert trace[0] == (1, 2.0)  # absolute error at f = 0
        assert trace[1] == (2, pytest.approx(0.1))

    def test_time_averaged_error_weights_by_span(self):
        records = [
            EstimateRecord(time=1, true_value=10, estimate=10.0, messages=0, bits=0),
            EstimateRecord(time=11, true_value=10, estimate=5.0, messages=0, bits=0),
        ]
        # First estimate held 10 units (error 0), second held 10 (error 0.5).
        assert time_averaged_relative_error(records) == pytest.approx(0.25)
        assert time_averaged_relative_error([]) == 0.0
        assert time_averaged_relative_error(records[:1]) == 0.0

    @staticmethod
    def _latency_spec(**source):
        return RunSpec(
            source=SourceSpec(stream="random_walk", **source),
            tracker=TrackerSpec(name="deterministic", epsilon=0.1),
            transport=TransportSpec(mode="async", latency="uniform", seed=0),
            record_every=10,
        )

    def test_sweep_zero_scale_matches_synchronous_engine(self):
        base = self._latency_spec(length=1_500, seed=7, sites=4)
        zero, stale = (
            point.result
            for point in Sweep(base, {"transport.scale": [0.0, 8.0]}).run()
        )
        updates = assign_sites(random_walk_stream(1_500, seed=7), 4)
        sync = DeterministicCounter(4, 0.1).track(updates, record_every=10)
        assert zero.total_messages == sync.total_messages
        assert zero.total_bits == sync.total_bits
        assert zero.max_relative_error() == sync.max_relative_error()
        assert zero.staleness.mean_age == 0.0
        # Latency costs accuracy: the stale run is strictly more wrong.
        assert time_averaged_relative_error(
            stale.records
        ) > time_averaged_relative_error(zero.records)
        assert stale.staleness.mean_age > 0.0

    def test_sweep_validates_inputs(self):
        base = self._latency_spec(length=10, sites=1)
        with pytest.raises(ConfigurationError):
            Sweep(base, {"transport.scale": []})
        # A negative scale fails spec validation, which names the field
        # (a SpecError, not a ConfigurationError).
        with pytest.raises(SpecError, match=r"transport\.scale"):
            Sweep(base, {"transport.scale": [-1.0]}).run()


class TestLatencyCli:
    def test_latency_command_prints_sweep(self, capsys):
        exit_code = main(
            [
                "latency",
                "--stream",
                "biased_walk",
                "--length",
                "2000",
                "--sites",
                "2",
                "--scales",
                "0",
                "4",
                "--record-every",
                "20",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "time-avg err" in captured
        assert "in-flight hwm" in captured

    def test_latency_command_is_deterministic(self, capsys):
        argv = [
            "latency",
            "--stream",
            "random_walk",
            "--length",
            "1500",
            "--sites",
            "2",
            "--scales",
            "0",
            "2",
            "--algorithm",
            "randomized",
            "--model",
            "heavytail",
            "--record-every",
            "25",
            "--seed",
            "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
