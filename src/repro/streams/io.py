"""Persistence for streams: save and load workloads as CSV files.

Experiments become much easier to audit when the exact workload can be written
to disk and replayed later (or fed to an external system).  These helpers
round-trip the two stream kinds the library uses — scalar delta streams
(:class:`~repro.streams.model.StreamSpec`) and item insert/delete streams —
through small, human-readable CSV files.

For replayed *distributed* traces there is additionally a columnar path:
:func:`save_trace_csv` / :func:`load_trace_columns` round-trip a full
``time,site,delta`` trace as three NumPy arrays (:class:`TraceColumns`),
which :func:`repro.monitoring.runner.run_tracking` feeds to
``deliver_batch`` directly — no per-:class:`~repro.types.Update` object is
ever constructed on the replay hot path.  For traces too large for CSV
parsing, :func:`save_trace_npz` / :func:`load_trace_npz` store the same
columns as an uncompressed binary archive that can be *memory-mapped* in
place (``mmap_mode``), so replay cost starts at the first delivered slice
rather than at a full parse; :func:`load_trace` dispatches between the two
formats by file suffix.  The same engine replays a mapped trace into a
tree topology, whose leaves and sites are built only when a segment
reaches them, so a million-site tree replays at a cost proportional to the
trace, not the tree.
"""

from __future__ import annotations

import csv
import json
import pathlib
import struct
import warnings
import zipfile
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import StreamError
from repro.streams.model import StreamSpec
from repro.types import ItemUpdate, Update

__all__ = [
    "save_stream_csv",
    "load_stream_csv",
    "save_item_stream_csv",
    "load_item_stream_csv",
    "TraceColumns",
    "columns_from_updates",
    "save_trace_csv",
    "load_trace_columns",
    "save_trace_npz",
    "load_trace_npz",
    "load_trace",
    "trace_open_counts",
    "reset_trace_open_counts",
]

PathLike = Union[str, pathlib.Path]

_TRACE_HEADER = ["time", "site", "delta"]

#: Per-process tally of successful :func:`load_trace` opens, keyed by the
#: path as passed (stringified).  This is the observability hook behind the
#: shared-trace guarantee: a parallel sweep over one trace should show one
#: open per *worker process*, not one per grid point — benchmark E23 asserts
#: exactly that through :func:`trace_open_counts`.
_TRACE_OPEN_COUNTS: dict = {}


def trace_open_counts() -> dict:
    """Snapshot of this process's ``{path: open count}`` for :func:`load_trace`."""
    return dict(_TRACE_OPEN_COUNTS)


def reset_trace_open_counts() -> None:
    """Zero the per-process open tally (tests and benchmarks)."""
    _TRACE_OPEN_COUNTS.clear()


@dataclass(frozen=True)
class TraceColumns:
    """A distributed update trace in columnar form.

    Three parallel integer arrays instead of one list of
    :class:`~repro.types.Update` objects: the memory layout the batched
    engine wants (contiguous same-site runs are sliced straight out of the
    arrays) and the one a replayed trace loads fastest into.

    Attributes:
        times: 1-D ``int64`` array of update timesteps, in stream order.
        sites: Matching array of destination site ids.
        deltas: Matching array of per-timestep changes.
    """

    times: np.ndarray
    sites: np.ndarray
    deltas: np.ndarray

    def __post_init__(self) -> None:
        if (
            self.times.ndim != 1
            or self.times.shape != self.sites.shape
            or self.times.shape != self.deltas.shape
        ):
            raise StreamError(
                "trace columns must be equal-length 1-D arrays, got shapes "
                f"{self.times.shape}/{self.sites.shape}/{self.deltas.shape}"
            )

    def __len__(self) -> int:
        return int(self.times.size)

    def to_updates(self) -> List[Update]:
        """Materialise the trace as :class:`~repro.types.Update` objects.

        The inverse of :func:`columns_from_updates`, for code paths that
        still want objects (the per-update engine, hand-written loops).
        """
        return [
            Update(time=int(t), site=int(s), delta=int(d))
            for t, s, d in zip(self.times, self.sites, self.deltas)
        ]


def columns_from_updates(updates: Sequence[Update]) -> TraceColumns:
    """Convert a materialised update sequence to columnar form."""
    count = len(updates)
    return TraceColumns(
        times=np.fromiter((u.time for u in updates), dtype=np.int64, count=count),
        sites=np.fromiter((u.site for u in updates), dtype=np.int64, count=count),
        deltas=np.fromiter((u.delta for u in updates), dtype=np.int64, count=count),
    )


def save_trace_csv(
    trace: Union[TraceColumns, Sequence[Update]], path: PathLike
) -> None:
    """Write a distributed trace to ``path`` as a ``time,site,delta`` CSV."""
    if not isinstance(trace, TraceColumns):
        trace = columns_from_updates(trace)
    target = pathlib.Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_TRACE_HEADER)
        writer.writerows(
            zip(trace.times.tolist(), trace.sites.tolist(), trace.deltas.tolist())
        )


def load_trace_columns(path: PathLike) -> TraceColumns:
    """Read a trace written by :func:`save_trace_csv` as columnar arrays.

    The whole table is parsed into three ``int64`` arrays in one NumPy pass;
    nothing per-update is constructed, so a loaded trace flows into
    :func:`repro.monitoring.runner.run_tracking` (and from there into
    ``deliver_batch``) without any Python-object overhead per record.
    """
    source = pathlib.Path(path)
    if not source.exists():
        raise StreamError(f"trace file {source} does not exist")
    with source.open("r", newline="") as handle:
        header = handle.readline().strip().split(",")
        if header != _TRACE_HEADER:
            raise StreamError(f"{source} has an unexpected column header {header}")
        try:
            with warnings.catch_warnings():
                # An empty table is reported through StreamError below, not
                # through loadtxt's "no data" UserWarning.
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(handle, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as error:
            raise StreamError(f"{source} has a malformed trace row: {error}") from error
    if table.size == 0:
        raise StreamError(f"{source} contains no updates")
    if table.shape[1] != 3:
        raise StreamError(
            f"{source} rows must have exactly 3 columns, got {table.shape[1]}"
        )
    return TraceColumns(times=table[:, 0], sites=table[:, 1], deltas=table[:, 2])


_TRACE_NPZ_MEMBERS = ("times", "sites", "deltas")


def save_trace_npz(
    trace: Union[TraceColumns, Sequence[Update]], path: PathLike
) -> None:
    """Write a distributed trace to ``path`` as an uncompressed ``.npz``.

    The binary counterpart of :func:`save_trace_csv` for traces too large
    for CSV parsing to be anything but the bottleneck: three ``int64``
    members (``times``, ``sites``, ``deltas``) stored *uncompressed*, so
    :func:`load_trace_npz` can memory-map them in place instead of parsing
    text — loading becomes an ``open`` plus page faults.
    """
    if not isinstance(trace, TraceColumns):
        trace = columns_from_updates(trace)
    if len(trace) == 0:
        raise StreamError("refusing to save an empty trace")
    # Write through a handle so the archive lands at *exactly* ``path``
    # (given a bare filename, np.savez would append ".npz" on its own and
    # silently save somewhere the caller never asked for).
    with pathlib.Path(path).open("wb") as handle:
        np.savez(
            handle,
            times=np.ascontiguousarray(trace.times, dtype=np.int64),
            sites=np.ascontiguousarray(trace.sites, dtype=np.int64),
            deltas=np.ascontiguousarray(trace.deltas, dtype=np.int64),
        )


def _memmap_npz_member(
    source: pathlib.Path, archive: zipfile.ZipFile, name: str, mmap_mode: str
) -> np.ndarray:
    """Memory-map one uncompressed ``.npy`` member inside an ``.npz`` archive.

    ``np.load`` silently ignores ``mmap_mode`` for zipped archives, so this
    maps the member by hand: members written by :func:`save_trace_npz` are
    stored (never deflated), which makes the raw bytes inside the zip a
    valid ``.npy`` file at a known offset — parse its header there and hand
    the data region to :class:`numpy.memmap`.
    """
    info = archive.getinfo(name)
    if info.compress_type != zipfile.ZIP_STORED:
        raise StreamError(
            f"{source} member {name} is compressed; memory-mapping needs the "
            "uncompressed layout written by save_trace_npz"
        )
    with source.open("rb") as handle:
        # Skip the zip local file header (30 fixed bytes + name + extra) to
        # reach the embedded .npy stream.
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
            raise StreamError(f"{source} has a corrupt zip entry for {name}")
        name_length, extra_length = struct.unpack("<HH", local_header[26:30])
        handle.seek(info.header_offset + 30 + name_length + extra_length)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise StreamError(
                f"{source} member {name} uses unsupported npy format {version}"
            )
        if fortran_order:
            raise StreamError(f"{source} member {name} is not C-contiguous")
        data_offset = handle.tell()
    return np.memmap(
        source, dtype=dtype, mode=mmap_mode, offset=data_offset, shape=shape
    )


def load_trace_npz(path: PathLike, mmap_mode: Optional[str] = None) -> TraceColumns:
    """Read a trace written by :func:`save_trace_npz` as columnar arrays.

    Args:
        path: The ``.npz`` file to read.
        mmap_mode: ``None`` (default) loads the three arrays into memory.
            ``"r"`` (read-only) or ``"c"`` (copy-on-write) memory-maps them
            in place instead — the load touches no data pages, so traces far
            larger than RAM replay straight into
            :func:`repro.monitoring.runner.run_tracking` with the OS
            paging in only the slices the engine actually cuts.  Writable
            mapping (``"r+"``) is refused: flushing bytes into a zip member
            would desynchronise the archive's CRC and corrupt the file.

    Returns:
        The trace as :class:`TraceColumns`.
    """
    source = pathlib.Path(path)
    if not source.exists():
        raise StreamError(f"trace file {source} does not exist")
    if mmap_mode is not None and mmap_mode not in ("r", "c"):
        raise StreamError(
            f"mmap_mode must be 'r', 'c' or None, got {mmap_mode!r} (writable "
            "mapping would corrupt the archive's member checksums)"
        )
    try:
        with zipfile.ZipFile(source) as archive:
            names = set(archive.namelist())
            missing = [
                member
                for member in _TRACE_NPZ_MEMBERS
                if f"{member}.npy" not in names
            ]
            if missing:
                raise StreamError(
                    f"{source} is missing trace members {missing}; expected a "
                    "file written by save_trace_npz"
                )
            if mmap_mode is not None:
                arrays = {
                    member: _memmap_npz_member(
                        source, archive, f"{member}.npy", mmap_mode
                    )
                    for member in _TRACE_NPZ_MEMBERS
                }
            else:
                with np.load(source) as bundle:
                    arrays = {
                        member: np.asarray(bundle[member])
                        for member in _TRACE_NPZ_MEMBERS
                    }
    except zipfile.BadZipFile as error:
        raise StreamError(f"{source} is not a valid npz archive: {error}") from error
    for member, array in arrays.items():
        if array.ndim != 1:
            raise StreamError(
                f"{source} member {member} must be 1-D, got shape {array.shape}"
            )
        if array.dtype.kind not in "iu":
            raise StreamError(
                f"{source} member {member} must be integer, got {array.dtype}"
            )
    if arrays["times"].size == 0:
        raise StreamError(f"{source} contains no updates")
    if mmap_mode is None:
        arrays = {
            member: array.astype(np.int64, copy=False)
            for member, array in arrays.items()
        }
    return TraceColumns(
        times=arrays["times"], sites=arrays["sites"], deltas=arrays["deltas"]
    )


def load_trace(path: PathLike, mmap_mode: Optional[str] = None) -> TraceColumns:
    """Load a trace in either on-disk format, dispatching on the suffix.

    ``.npz`` routes to :func:`load_trace_npz` (where ``mmap_mode`` applies);
    anything else is treated as the CSV layout of :func:`save_trace_csv`.
    The CLI's ``--trace`` option funnels through here so both formats are
    accepted everywhere a trace file is.
    """
    source = pathlib.Path(path)
    if source.suffix == ".npz":
        columns = load_trace_npz(source, mmap_mode=mmap_mode)
    else:
        if mmap_mode is not None:
            raise StreamError(
                "mmap_mode applies to the binary npz format only; convert the "
                "trace with save_trace_npz first"
            )
        columns = load_trace_columns(source)
    key = str(source)
    _TRACE_OPEN_COUNTS[key] = _TRACE_OPEN_COUNTS.get(key, 0) + 1
    return columns


def save_stream_csv(spec: StreamSpec, path: PathLike) -> None:
    """Write a delta stream to ``path`` as CSV (header carries the metadata).

    The first row is a comment-style header ``#name=...,start=...,params=...``
    followed by a ``time,delta`` table.
    """
    target = pathlib.Path(path)
    with target.open("w", newline="") as handle:
        handle.write(
            "#" + json.dumps({"name": spec.name, "start": spec.start, "params": dict(spec.params)})
            + "\n"
        )
        writer = csv.writer(handle)
        writer.writerow(["time", "delta"])
        for time, delta in enumerate(spec.deltas, start=1):
            writer.writerow([time, delta])


def load_stream_csv(path: PathLike) -> StreamSpec:
    """Read a delta stream written by :func:`save_stream_csv`."""
    source = pathlib.Path(path)
    if not source.exists():
        raise StreamError(f"stream file {source} does not exist")
    with source.open("r", newline="") as handle:
        first = handle.readline().strip()
        if not first.startswith("#"):
            raise StreamError(f"{source} is missing the metadata header line")
        try:
            metadata = json.loads(first[1:])
        except json.JSONDecodeError as error:
            raise StreamError(f"{source} has a malformed metadata header: {error}") from error
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time", "delta"]:
            raise StreamError(f"{source} has an unexpected column header {header}")
        deltas: List[int] = []
        for row_number, row in enumerate(reader, start=1):
            if len(row) != 2:
                raise StreamError(f"{source} row {row_number} is malformed: {row}")
            deltas.append(int(row[1]))
    if not deltas:
        raise StreamError(f"{source} contains no updates")
    return StreamSpec(
        name=str(metadata.get("name", source.stem)),
        deltas=tuple(deltas),
        start=int(metadata.get("start", 0)),
        params=dict(metadata.get("params", {})),
    )


def save_item_stream_csv(updates: Sequence[ItemUpdate], path: PathLike) -> None:
    """Write an item insert/delete stream to ``path`` as CSV."""
    target = pathlib.Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "site", "item", "delta"])
        for update in updates:
            writer.writerow([update.time, update.site, update.item, update.delta])


def load_item_stream_csv(path: PathLike) -> List[ItemUpdate]:
    """Read an item stream written by :func:`save_item_stream_csv`."""
    source = pathlib.Path(path)
    if not source.exists():
        raise StreamError(f"item stream file {source} does not exist")
    updates: List[ItemUpdate] = []
    with source.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time", "site", "item", "delta"]:
            raise StreamError(f"{source} has an unexpected column header {header}")
        for row_number, row in enumerate(reader, start=1):
            if len(row) != 4:
                raise StreamError(f"{source} row {row_number} is malformed: {row}")
            updates.append(
                ItemUpdate(
                    time=int(row[0]), site=int(row[1]), item=int(row[2]), delta=int(row[3])
                )
            )
    if not updates:
        raise StreamError(f"{source} contains no updates")
    return updates
