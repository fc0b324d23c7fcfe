"""The observability layer: metrics model, exposition format, tracing, hooks.

Three claims under test.  First, the dependency-free metrics registry
implements the Prometheus data model correctly — monotone counters,
labelled children, cumulative histogram buckets, and text exposition
v0.0.4 output byte patterns.  Second, the ring-buffered trace log keeps
exactly the last ``capacity`` events with monotone sequence numbers and
well-formed spans.  Third — the load-bearing claim — instrumenting a
network *reports* the protocol instead of changing it: every counter the
observers accumulate equals the corresponding channel/coordinator number
the protocol already maintained, across flat, sharded, tree and
asynchronous topologies, and across a live migration's re-attach.
(Bit-for-bit equivalence of the instrumented run itself is property-tested
in ``tests/test_observability_equivalence.py``.)
"""

import json
import math

import pytest

from repro.core import DeterministicCounter
from repro.exceptions import ConfigurationError
from repro.monitoring import (
    ChannelStats,
    build_tree_network,
    migrate_site,
    run_tracking,
)
from repro.asynchrony import UniformLatency, async_channels
from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NetworkInstrumentation,
    TraceLog,
    instrument_network,
)
from repro.streams import RoundRobinAssignment, assign_sites, random_walk_stream

EPSILON = 0.15


def _updates(n, k, seed=7):
    return list(
        assign_sites(random_walk_stream(n, seed=seed), k, RoundRobinAssignment())
    )


def _series_sum(family):
    """Sum of every plain sample in a counter/gauge family."""
    return sum(value for suffix, _, value in family.samples() if suffix == "")


def _series_by_label(family, label_index=0):
    """Map one label value -> sample value for a single-label family."""
    return {
        key[label_index]: value
        for suffix, key, value in family.samples()
        if suffix == ""
    }


class TestMetricsPrimitives:
    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_test_gauge", "help")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_test_seconds", "help", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        samples = list(registry.get("repro_test_seconds").samples())
        buckets = {key[-1]: value for suffix, key, value in samples if suffix == "_bucket"}
        assert buckets == {"1": 1, "2": 2, "4": 3, "+Inf": 4}
        sums = {suffix: value for suffix, _, value in samples if suffix != "_bucket"}
        assert sums["_count"] == 4
        assert sums["_sum"] == pytest.approx(105.0)

    def test_labeled_children_are_stable_and_checked(self):
        family = MetricsRegistry().counter("repro_kinds_total", "h", labels=("kind",))
        child = family.labels(kind="report")
        child.inc(3)
        assert family.labels(kind="report") is child
        assert family.labels(kind="report").value == 3.0
        with pytest.raises(ConfigurationError):
            family.labels(wrong="x")
        with pytest.raises(ConfigurationError):
            family.inc()  # labeled family has no implicit child

    def test_invalid_names_fail_loudly(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("0bad", "h")
        with pytest.raises(ConfigurationError):
            registry.counter("repro_ok_total", "h", labels=("bad-label",))


class TestRegistry:
    def test_reregistration_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "h", labels=("kind",))
        assert registry.counter("repro_x_total", "other", labels=("kind",)) is first
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total", "h", labels=("kind",))
        with pytest.raises(ConfigurationError):
            registry.counter("repro_x_total", "h", labels=("level",))

    def test_collectors_run_at_render_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_derived", "h")
        state = {"value": 1.0}
        registry.add_collector(lambda: gauge.set(state["value"]))
        assert "repro_derived 1\n" in registry.render()
        state["value"] = 42.0
        assert "repro_derived 42\n" in registry.render()

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_msgs_total", "Messages by kind.", labels=("kind",)
        ).labels(kind='quo"te\nnl\\bs').inc(7)
        registry.gauge("repro_estimate", "Current estimate.").set(2.5)
        registry.histogram("repro_age", "Ages.", buckets=(1.0,)).observe(0.5)
        text = registry.render()
        assert text.endswith("\n")
        # Families render sorted by name, HELP before TYPE before samples.
        assert text.index("repro_age") < text.index("repro_estimate") < text.index(
            "repro_msgs_total"
        )
        assert "# HELP repro_msgs_total Messages by kind.\n" in text
        assert "# TYPE repro_msgs_total counter\n" in text
        assert 'repro_msgs_total{kind="quo\\"te\\nnl\\\\bs"} 7\n' in text
        assert "repro_estimate 2.5\n" in text
        assert 'repro_age_bucket{le="1"} 1\n' in text
        assert 'repro_age_bucket{le="+Inf"} 1\n' in text
        assert "repro_age_sum 0.5\n" in text
        assert "repro_age_count 1\n" in text

    def test_integer_values_render_bare_and_specials_spelled(self):
        registry = MetricsRegistry()
        registry.gauge("repro_int", "h").set(3.0)
        registry.gauge("repro_inf", "h").set(math.inf)
        registry.gauge("repro_nan", "h").set(math.nan)
        text = registry.render()
        assert "repro_int 3\n" in text
        assert "repro_inf +Inf\n" in text
        assert "repro_nan NaN\n" in text

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestTraceLog:
    def test_emit_sequences_and_ring_eviction(self):
        log = TraceLog(capacity=3)
        for i in range(5):
            log.emit("tick", time=float(i), index=i)
        assert len(log) == 3
        assert log.emitted == 5
        assert [event.seq for event in log] == [2, 3, 4]
        assert [event.fields["index"] for event in log.named("tick")] == [2, 3, 4]

    def test_span_records_duration_and_merged_fields(self):
        log = TraceLog()
        span = log.begin_span("block_close", 10.0, level=1)
        event = span.end(12.5, new_level=4)
        assert event.fields["start"] == 10.0
        assert event.fields["end"] == 12.5
        assert event.fields["duration"] == pytest.approx(2.5)
        assert event.fields["level"] == 1
        assert event.fields["new_level"] == 4
        with pytest.raises(ConfigurationError):
            span.end(13.0)

    def test_json_round_trip_and_dump(self, tmp_path):
        log = TraceLog()
        log.emit("send", time=1.0, kind="report")
        payload = json.loads(log.to_json())
        assert payload[0]["name"] == "send"
        assert payload[0]["kind"] == "report"
        path = tmp_path / "trace.json"
        assert log.dump(path) == 1
        assert json.loads(path.read_text()) == payload

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TraceLog(capacity=0)


class TestInstrumentationCountsMatchProtocol:
    def test_flat_network_counters_equal_channel_stats(self):
        updates = _updates(600, 4)
        network = DeterministicCounter(4, EPSILON).build_network()
        instr = instrument_network(network)
        result = run_tracking(network, updates)
        instr.registry.collect()
        messages = instr.registry.get("repro_messages_total")
        bits = instr.registry.get("repro_bits_total")
        assert _series_sum(messages) == result.total_messages
        assert _series_sum(bits) == result.total_bits
        by_kind = {}
        for suffix, (kind, _level), value in messages.samples():
            by_kind[kind] = by_kind.get(kind, 0) + value
        assert by_kind == {
            kind: float(count) for kind, count in result.messages_by_kind.items()
        }

    def test_sharded_per_level_counters_match_level_summary(self):
        updates = _updates(800, 6)
        network = build_tree_network(DeterministicCounter(6, EPSILON), fanouts=[3])
        instr = instrument_network(network)
        run_tracking(network, updates)
        instr.registry.collect()
        messages = instr.registry.get("repro_messages_total")
        per_level = {}
        for suffix, (_kind, level), value in messages.samples():
            per_level[int(level)] = per_level.get(int(level), 0) + value
        expected = {
            row["level"]: float(row["messages"]) for row in network.level_summary()
        }
        assert per_level == expected

    def test_block_close_counters_and_scrape_gauges(self):
        updates = _updates(600, 4)
        network = DeterministicCounter(4, EPSILON).build_network()
        trace = TraceLog()
        instr = instrument_network(network, trace=trace)
        run_tracking(network, updates)
        closes = instr.registry.get("repro_block_closes_total")
        assert _series_sum(closes) == network.coordinator.blocks_completed > 0
        text = instr.registry.render()  # runs the collector
        assert (
            f'repro_blocks_completed{{level="0"}} '
            f"{network.coordinator.blocks_completed}\n" in text
        )
        assert (
            f'repro_block_level{{level="0"}} {network.coordinator.level}\n' in text
        )
        spans = trace.named("block_close")
        assert len(spans) == network.coordinator.blocks_completed
        assert all(event.fields["duration"] >= 0 for event in spans)
        assert len(trace.named("send")) > 0

    def test_level_share_gauges_match_analysis(self):
        updates = _updates(500, 8)
        network = build_tree_network(DeterministicCounter(8, EPSILON), fanouts=[2])
        instr = instrument_network(network)
        run_tracking(network, updates)
        instr.registry.collect()
        from repro.analysis.metrics import level_message_shares, shard_imbalance

        shares = _series_by_label(instr.registry.get("repro_level_message_share"))
        expected = level_message_shares(network.level_summary())
        assert shares == {
            str(level): pytest.approx(share) for level, share in enumerate(expected)
        }
        imbalance = instr.registry.get("repro_shard_imbalance")
        assert imbalance.value == pytest.approx(shard_imbalance(network.shard_stats()))

    def test_async_deliveries_feed_histogram_and_staleness_gauges(self):
        updates = _updates(400, 4)
        network = build_tree_network(
            DeterministicCounter(4, EPSILON),
            fanouts=[],
            channel_factory=async_channels([], UniformLatency(0.5, 2.0), seed=3),
        )
        instr = instrument_network(network)
        result = run_tracking(network, updates)
        instr.registry.collect()
        deliveries = instr.registry.get("repro_deliveries_total")
        assert _series_sum(deliveries) == result.staleness.delivered > 0
        age = instr.registry.get("repro_delivery_age")
        counts = {
            suffix: value
            for suffix, _, value in age.samples()
            if suffix == "_count"
        }
        assert counts["_count"] == result.staleness.delivered
        text = instr.registry.render()
        assert (
            f"repro_staleness_max_age {result.staleness.max_age}\n" in text
            or "repro_staleness_max_age" in text
        )
        mean = instr.registry.get("repro_staleness_mean_age")
        assert mean.value == pytest.approx(result.staleness.mean_age)

    def test_reliability_counters_match_faulty_channel_stats(self):
        from repro.faults import FaultPlan

        updates = _updates(900, 4)
        network = build_tree_network(
            DeterministicCounter(4, EPSILON),
            fanouts=[],
            channel_factory=async_channels(
                [],
                UniformLatency(1.0, 8.0),
                seed=3,
                faults=FaultPlan(loss=0.15, seed=7),
            ),
        )
        instr = instrument_network(network)
        result = run_tracking(network, updates)
        instr.registry.collect()
        stats = network.channel.stats
        assert result.dropped > 0
        for name, scalar, per_kind in (
            ("repro_dropped_total", stats.dropped, stats.dropped_by_kind),
            (
                "repro_retransmissions_total",
                stats.retransmitted,
                stats.retransmitted_by_kind,
            ),
            ("repro_duplicates_total", stats.duplicates, stats.duplicates_by_kind),
        ):
            family = instr.registry.get(name)
            assert _series_sum(family) == float(scalar)
            by_kind = {}
            for suffix, (kind, _level), value in family.samples():
                by_kind[kind] = by_kind.get(kind, 0) + value
            assert by_kind == {
                kind: float(count) for kind, count in per_kind.items()
            }

    def test_lossless_scrape_has_no_reliability_series(self):
        updates = _updates(400, 4)
        network = build_tree_network(
            DeterministicCounter(4, EPSILON),
            fanouts=[],
            channel_factory=async_channels([], UniformLatency(0.5, 2.0), seed=3),
        )
        instr = instrument_network(network)
        run_tracking(network, updates)
        instr.registry.collect()
        text = instr.registry.render()
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert not line.startswith(
                ("repro_dropped_total{", "repro_retransmissions_total{",
                 "repro_duplicates_total{")
            )

    def test_migration_bumps_counter_and_keeps_counting(self):
        k, shards = 8, 2
        updates = _updates(1200, k)
        network = build_tree_network(DeterministicCounter(k, EPSILON), fanouts=[shards])
        instr = instrument_network(network)
        split = len(updates) // 2
        run_tracking(network, updates[:split])
        instr.registry.collect()
        before = _series_sum(instr.registry.get("repro_messages_total"))
        migrate_site(network, site_id=0, dest_leaf=1, time=split)
        assert instr.registry.get("repro_migrations_total").value == 1.0
        run_tracking(network, updates[split:])
        instr.registry.collect()
        after = _series_sum(instr.registry.get("repro_messages_total"))
        # The rebuilt leaves' fresh channels adopted the old accounting, so
        # the post-handoff suffix (and the handoff itself) kept accumulating.
        assert after > before
        assert after == network.stats.messages

    def test_tree_topology_levels_are_root_first(self):
        updates = _updates(600, 8)
        network = build_tree_network(DeterministicCounter(8, EPSILON), fanouts=(2, 2))
        instr = instrument_network(network)
        run_tracking(network, updates)
        instr.registry.collect()
        messages = instr.registry.get("repro_messages_total")
        levels = {int(key[1]) for suffix, key, value in messages.samples()}
        assert levels == {0, 1, 2}
        per_level = {}
        for suffix, (_kind, level), value in messages.samples():
            per_level[int(level)] = per_level.get(int(level), 0) + value
        expected = {
            row["level"]: float(row["messages"]) for row in network.level_summary()
        }
        assert per_level == expected

    def test_attach_is_idempotent(self):
        network = DeterministicCounter(3, EPSILON).build_network()
        instr = NetworkInstrumentation(trace=TraceLog())
        instr.attach(network)
        observer = network.channel.observer
        instr.attach(network)
        assert network.channel.observer is observer
        run_tracking(network, _updates(200, 3))
        instr.registry.collect()
        assert (
            _series_sum(instr.registry.get("repro_messages_total"))
            == network.stats.messages
        )

    def test_metrics_only_attach_leaves_channels_unhooked(self):
        # Traffic metrics are scrape-time derived; without a trace log the
        # channel hot path stays observer-free (the zero-overhead claim).
        network = DeterministicCounter(3, EPSILON).build_network()
        instr = NetworkInstrumentation()
        instr.attach(network)
        assert network.channel.observer is None
        assert network.coordinator.observer is not None

    def test_uninstrumented_network_has_no_observers(self):
        network = DeterministicCounter(3, EPSILON).build_network()
        assert network.channel.observer is None
        assert network.coordinator.observer is None


class TestRates:
    def test_channel_stats_rate(self):
        stats = ChannelStats(messages=100, bits=3200)
        rates = stats.rate(50.0)
        assert rates == {
            "elapsed": 50.0,
            "messages_per_unit": 2.0,
            "bits_per_unit": 64.0,
        }
        assert stats.rate(0.0) == {
            "elapsed": 0.0,
            "messages_per_unit": 0.0,
            "bits_per_unit": 0.0,
        }

    def test_summary_reports_rates_from_the_same_helper(self):
        updates = _updates(400, 4)
        network = DeterministicCounter(4, EPSILON).build_network()
        result = run_tracking(network, updates)
        rates = result.summary()["rates"]
        elapsed = float(result.records[-1].time)
        assert rates["elapsed"] == elapsed
        assert rates["messages_per_unit"] == pytest.approx(
            result.total_messages / elapsed
        )
        assert rates["bits_per_unit"] == pytest.approx(result.total_bits / elapsed)

    def test_async_summary_rates_use_drained_clock(self):
        updates = _updates(300, 4)
        network = build_tree_network(
            DeterministicCounter(4, EPSILON),
            fanouts=[],
            channel_factory=async_channels([], UniformLatency(0.5, 2.0), seed=9),
        )
        result = run_tracking(network, updates)
        rates = result.summary()["rates"]
        assert rates["elapsed"] == result.final_clock
        assert rates["elapsed"] >= float(result.records[-1].time)
