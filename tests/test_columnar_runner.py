"""Columnar trace ingestion: CSV round-trip and the array-native replay.

The columnar path (``save_trace_csv`` / ``load_trace_columns`` /
``run_tracking`` over :class:`~repro.streams.io.TraceColumns`) replays traces
without constructing a single :class:`~repro.types.Update` object; its
contract is bit-for-bit equivalence with ``run_tracking`` over the same
updates — estimates, message counts, bit counts, per-kind breakdown — at
every recording stride.
"""

import numpy as np
import pytest

from repro.core import DeterministicCounter, RandomizedCounter
from repro.asynchrony import ConstantLatency, async_channels
from repro.exceptions import ConfigurationError, ProtocolError, StreamError
from repro.monitoring import build_tree_network, run_tracking
from repro.streams import (
    BlockedAssignment,
    SkewedAssignment,
    TraceColumns,
    assign_sites,
    columns_from_updates,
    load_trace_columns,
    random_walk_stream,
    save_trace_csv,
    sawtooth_stream,
)


def _fingerprint(result):
    return (
        [
            (r.time, r.true_value, r.estimate, r.messages, r.bits)
            for r in result.records
        ],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
    )


class TestTraceCsvRoundtrip:
    def test_roundtrip_preserves_columns(self, tmp_path):
        updates = assign_sites(random_walk_stream(500, seed=3), 4)
        path = tmp_path / "trace.csv"
        save_trace_csv(updates, path)
        loaded = load_trace_columns(path)
        original = columns_from_updates(updates)
        assert np.array_equal(loaded.times, original.times)
        assert np.array_equal(loaded.sites, original.sites)
        assert np.array_equal(loaded.deltas, original.deltas)
        assert len(loaded) == 500

    def test_save_accepts_columns_directly(self, tmp_path):
        columns = columns_from_updates(assign_sites(sawtooth_stream(64, amplitude=8), 2))
        path = tmp_path / "trace.csv"
        save_trace_csv(columns, path)
        assert np.array_equal(load_trace_columns(path).deltas, columns.deltas)

    def test_to_updates_inverts_columns(self):
        updates = assign_sites(random_walk_stream(120, seed=5), 3)
        assert columns_from_updates(updates).to_updates() == updates

    def test_missing_file_and_bad_header_rejected(self, tmp_path):
        with pytest.raises(StreamError):
            load_trace_columns(tmp_path / "absent.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,0,1\n")
        with pytest.raises(StreamError):
            load_trace_columns(bad)

    def test_empty_and_malformed_tables_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,site,delta\n")
        with pytest.raises(StreamError):
            load_trace_columns(empty)
        malformed = tmp_path / "malformed.csv"
        malformed.write_text("time,site,delta\n1,0,x\n")
        with pytest.raises(StreamError):
            load_trace_columns(malformed)

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(StreamError):
            TraceColumns(
                times=np.arange(3, dtype=np.int64),
                sites=np.zeros(2, dtype=np.int64),
                deltas=np.ones(3, dtype=np.int64),
            )


class TestColumnarRunTracking:
    @pytest.mark.parametrize("record_every", [1, 7, 50])
    @pytest.mark.parametrize(
        "policy_factory",
        [lambda: BlockedAssignment(64), lambda: SkewedAssignment(seed=1)],
        ids=["blocked", "skewed"],
    )
    def test_bit_for_bit_identical_to_run_tracking(self, record_every, policy_factory):
        spec = random_walk_stream(2_000, seed=7)
        updates = assign_sites(spec, 4, policy_factory())
        columns = columns_from_updates(updates)
        for factory_builder in (
            lambda: DeterministicCounter(4, 0.1),
            lambda: RandomizedCounter(4, 0.1, seed=9),
        ):
            reference = run_tracking(
                factory_builder().build_network(),
                updates,
                record_every=record_every,
                batched=True,
            )
            columnar = run_tracking(
                factory_builder().build_network(), columns, record_every=record_every
            )
            assert _fingerprint(reference) == _fingerprint(columnar)

    def test_loaded_trace_feeds_the_runner(self, tmp_path):
        updates = assign_sites(random_walk_stream(800, seed=11), 2, BlockedAssignment(50))
        path = tmp_path / "trace.csv"
        save_trace_csv(updates, path)
        trace = load_trace_columns(path)
        replayed = run_tracking(
            DeterministicCounter(2, 0.1).build_network(), trace, record_every=40
        )
        reference = DeterministicCounter(2, 0.1).track(
            updates, record_every=40, batched=True
        )
        assert _fingerprint(replayed) == _fingerprint(reference)

    def test_drives_sharded_networks(self):
        updates = assign_sites(random_walk_stream(1_000, seed=13), 6, BlockedAssignment(32))
        columns = columns_from_updates(updates)
        sharded = run_tracking(
            build_tree_network(DeterministicCounter(6, 0.1), fanouts=[3]),
            columns,
            record_every=25,
        )
        flat = run_tracking(
            build_tree_network(DeterministicCounter(6, 0.1), fanouts=[3]),
            updates,
            record_every=25,
            batched=True,
        )
        assert _fingerprint(sharded) == _fingerprint(flat)

    def test_empty_trace(self):
        empty = np.asarray([], dtype=np.int64)
        result = run_tracking(
            DeterministicCounter(2, 0.1).build_network(),
            TraceColumns(empty, empty, empty),
        )
        assert result.records == []
        assert result.total_messages == 0

    def test_rejects_record_every_below_one(self):
        network = DeterministicCounter(2, 0.1).build_network()
        one = np.ones(1, dtype=np.int64)
        with pytest.raises(ValueError):
            run_tracking(network, TraceColumns(one, one - 1, one), record_every=0)

    def test_rejects_asynchronous_network(self):
        updates = assign_sites(random_walk_stream(50, seed=1), 2)
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ConstantLatency(0.0)),
        )
        with pytest.raises(ProtocolError, match="synchronous channels only"):
            run_tracking(network, columns_from_updates(updates))

    def test_rejects_per_update_dispatch(self):
        updates = assign_sites(random_walk_stream(50, seed=1), 2)
        network = DeterministicCounter(2, 0.1).build_network()
        with pytest.raises(ConfigurationError, match="to_updates"):
            run_tracking(network, columns_from_updates(updates), batched=False)


class TestEmptyInputs:
    """Zero-length inputs: both workloads give an empty result with totals.

    A zero-length columnar run must match ``run_tracking`` on an empty
    iterable exactly — no records, zero totals, an empty per-kind breakdown
    — so downstream ``summary()`` consumers never special-case empty
    workloads.
    """

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_empty_iterable_run_tracking(self, record_every):
        result = run_tracking(
            DeterministicCounter(3, 0.2).build_network(),
            [],
            record_every=record_every,
        )
        assert result.records == []
        assert result.total_messages == 0
        assert result.total_bits == 0
        assert result.messages_by_kind == {}
        assert result.max_relative_error() == 0.0
        assert result.violation_fraction(0.2) == 0.0
        assert result.summary(0.2)["num_records"] == 0

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_empty_columns_run_tracking(self, record_every):
        empty = np.asarray([], dtype=np.int64)
        result = run_tracking(
            DeterministicCounter(3, 0.2).build_network(),
            TraceColumns(empty, empty, empty),
            record_every=record_every,
        )
        assert result.records == []
        assert result.total_messages == 0
        assert result.total_bits == 0
        assert result.messages_by_kind == {}
        assert result.summary(0.2)["num_records"] == 0

    def test_empty_columns_match_empty_iterable(self):
        empty = np.asarray([], dtype=np.int64)
        columnar = run_tracking(
            DeterministicCounter(3, 0.2).build_network(),
            TraceColumns(empty, empty, empty),
        )
        streamed = run_tracking(DeterministicCounter(3, 0.2).build_network(), [])
        assert _fingerprint(columnar) == _fingerprint(streamed)
