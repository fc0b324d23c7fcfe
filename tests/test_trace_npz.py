"""Binary (npz) trace persistence: round trips, memory-mapping, validation.

The npz format is the binary sibling of the ``time,site,delta`` CSV layout:
same columns, stored uncompressed so :func:`load_trace_npz` can hand them to
:class:`numpy.memmap` in place.  The tests pin the format against the CSV
path (identical columns, identical replay results through
``run_tracking``) and exercise the error surface.
"""

import numpy as np
import pytest

from repro.core import DeterministicCounter
from repro.exceptions import StreamError
from repro.monitoring.runner import run_tracking
from repro.streams import (
    TraceColumns,
    assign_sites,
    columns_from_updates,
    load_trace,
    load_trace_columns,
    load_trace_npz,
    random_walk_stream,
    save_trace_csv,
    save_trace_npz,
)


@pytest.fixture()
def trace():
    spec = random_walk_stream(2_000, seed=11)
    return columns_from_updates(assign_sites(spec, 4))


class TestNpzRoundTrip:
    def test_round_trip_matches_csv_path(self, trace, tmp_path):
        save_trace_csv(trace, tmp_path / "t.csv")
        save_trace_npz(trace, tmp_path / "t.npz")
        from_csv = load_trace_columns(tmp_path / "t.csv")
        from_npz = load_trace_npz(tmp_path / "t.npz")
        for a, b in zip(
            (from_csv.times, from_csv.sites, from_csv.deltas),
            (from_npz.times, from_npz.sites, from_npz.deltas),
        ):
            assert np.array_equal(a, b)

    def test_round_trip_from_update_sequence(self, trace, tmp_path):
        updates = trace.to_updates()
        save_trace_npz(updates, tmp_path / "t.npz")
        loaded = load_trace_npz(tmp_path / "t.npz")
        assert np.array_equal(loaded.times, trace.times)
        assert np.array_equal(loaded.deltas, trace.deltas)

    def test_mmap_load_returns_memmaps_with_identical_content(self, trace, tmp_path):
        save_trace_npz(trace, tmp_path / "t.npz")
        mapped = load_trace_npz(tmp_path / "t.npz", mmap_mode="r")
        assert isinstance(mapped.times, np.memmap)
        assert isinstance(mapped.deltas, np.memmap)
        assert np.array_equal(mapped.times, trace.times)
        assert np.array_equal(mapped.sites, trace.sites)
        assert np.array_equal(mapped.deltas, trace.deltas)

    def test_mmap_replay_is_bit_for_bit_the_eager_replay(self, trace, tmp_path):
        save_trace_npz(trace, tmp_path / "t.npz")
        mapped = load_trace_npz(tmp_path / "t.npz", mmap_mode="r")

        def run(columns):
            return run_tracking(
                DeterministicCounter(4, 0.1).build_network(), columns, record_every=100
            )

        eager = run(trace)
        lazy = run(mapped)
        assert eager.total_messages == lazy.total_messages
        assert eager.total_bits == lazy.total_bits
        assert [r.estimate for r in eager.records] == [
            r.estimate for r in lazy.records
        ]

    def test_load_trace_dispatches_on_suffix(self, trace, tmp_path):
        save_trace_csv(trace, tmp_path / "t.csv")
        save_trace_npz(trace, tmp_path / "t.npz")
        assert np.array_equal(load_trace(tmp_path / "t.csv").deltas, trace.deltas)
        assert np.array_equal(load_trace(tmp_path / "t.npz").deltas, trace.deltas)


class TestNpzValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamError):
            load_trace_npz(tmp_path / "missing.npz")

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(StreamError):
            load_trace_npz(path)

    def test_missing_members(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, times=np.arange(3))
        with pytest.raises(StreamError, match="missing trace members"):
            load_trace_npz(path)

    def test_bad_mmap_mode(self, trace, tmp_path):
        save_trace_npz(trace, tmp_path / "t.npz")
        with pytest.raises(StreamError, match="mmap_mode"):
            load_trace_npz(tmp_path / "t.npz", mmap_mode="w+")

    def test_writable_mmap_refused(self, trace, tmp_path):
        # Flushing writes into a zip member would desynchronise the
        # archive's CRC and corrupt the trace file irrecoverably.
        save_trace_npz(trace, tmp_path / "t.npz")
        with pytest.raises(StreamError, match="corrupt"):
            load_trace_npz(tmp_path / "t.npz", mmap_mode="r+")

    def test_save_honours_exact_path_without_npz_suffix(self, trace, tmp_path):
        # np.savez appends ".npz" to bare filenames; the wrapper must write
        # to exactly the requested path instead of a silently different one.
        path = tmp_path / "trace.bin"
        save_trace_npz(trace, path)
        assert path.exists()
        assert not (tmp_path / "trace.bin.npz").exists()
        loaded = load_trace_npz(path)
        assert np.array_equal(loaded.deltas, trace.deltas)

    def test_mmap_rejected_for_csv(self, trace, tmp_path):
        save_trace_csv(trace, tmp_path / "t.csv")
        with pytest.raises(StreamError, match="npz"):
            load_trace(tmp_path / "t.csv", mmap_mode="r")

    def test_compressed_member_rejected_for_mmap(self, trace, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(
            path, times=trace.times, sites=trace.sites, deltas=trace.deltas
        )
        with pytest.raises(StreamError, match="compressed"):
            load_trace_npz(path, mmap_mode="r")
        # Eager loading still works on the compressed layout.
        loaded = load_trace_npz(path)
        assert np.array_equal(loaded.deltas, trace.deltas)

    def test_empty_trace_refused_on_save(self, tmp_path):
        empty = TraceColumns(
            times=np.empty(0, dtype=np.int64),
            sites=np.empty(0, dtype=np.int64),
            deltas=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(StreamError):
            save_trace_npz(empty, tmp_path / "t.npz")

    def test_non_integer_member_rejected(self, tmp_path):
        path = tmp_path / "floats.npz"
        np.savez(
            path,
            times=np.arange(3, dtype=np.int64),
            sites=np.zeros(3, dtype=np.int64),
            deltas=np.ones(3, dtype=np.float64),
        )
        with pytest.raises(StreamError, match="integer"):
            load_trace_npz(path)
