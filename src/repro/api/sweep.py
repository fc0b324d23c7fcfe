"""Grid expansion over :class:`~repro.api.RunSpec` fields.

Every experiment script in the repo used to hand-roll the same loop: for
each tracker / each shard count / each latency scale, rebuild the network,
rerun the stream, collect a row.  :class:`Sweep` replaces those loops with
one declarative grid: a base spec plus ``{"dotted.field.path": [values]}``,
expanded as a cartesian product (later keys vary fastest, like nested
loops).  Each grid point is an independent :class:`~repro.api.RunSpec` —
fully validated, serializable, and run on a fresh network — so a sweep is
nothing more than a list of specs plus a convenience runner.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import pathlib
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.api.spec import RunSpec
from repro.exceptions import ConfigurationError
from repro.monitoring.runner import TrackingResult

__all__ = ["Sweep", "SweepError", "SweepPoint", "shutdown_sweep_pool"]


def _run_spec_payload(
    payload: dict, measure: Callable[[RunSpec], object] = RunSpec.run
) -> Tuple[bool, object]:
    """Worker-process entry point: rebuild one grid point's spec and measure it.

    Module-level (not a closure) so it pickles under the spawn start method;
    the spec travels as its serialized dict, and ``measure`` (a module-level
    function of a spec, :meth:`RunSpec.run` by default) by import path.
    Returns ``(True, value)`` on success and ``(False, formatted_traceback)``
    on failure — an exception object would cross the process boundary
    stripped of its child-side traceback (and some don't pickle at all), so
    the text crosses instead and the parent reports it against the failing
    spec.
    """
    try:
        return True, measure(RunSpec.from_dict(payload))
    except BaseException:
        return False, traceback.format_exc()


def _worker_preload_traces(traces: Tuple[Tuple[str, bool], ...]) -> None:
    """Pool initializer: open each of the sweep's trace files once, up front.

    Runs in every worker as it starts, before any grid point is dispatched.
    The opened handles land in the worker's process-wide
    :mod:`repro.api.trace_cache`, so every later
    :meth:`~repro.api.SourceSpec.load_columns` in that worker is a cache hit:
    one physical open per worker, not one per grid point.  Load errors are
    swallowed here on purpose — a broken trace should surface as a normal
    per-point :class:`SweepError` carrying the child traceback, not as an
    opaque pool-initializer crash.
    """
    from repro.api.trace_cache import shared_trace

    for path, mmap in traces:
        try:
            shared_trace(path, mmap=mmap).columns()
        except Exception:
            pass


def _probe_worker_trace_opens(_index: int) -> Tuple[int, dict]:
    """Report ``(pid, trace_open_counts())`` from inside a pool worker."""
    from repro.streams.io import trace_open_counts

    return os.getpid(), trace_open_counts()


_SWEEP_POOL: ProcessPoolExecutor = None
_SWEEP_POOL_KEY: Tuple = None


def _sweep_pool(
    width: int, traces: Tuple[Tuple[str, bool], ...]
) -> ProcessPoolExecutor:
    """The shared sweep executor, (re)created when width or traces change.

    Keeping one pool alive across :meth:`Sweep.run` calls (and across the
    chunks within a call) means workers — and the traces their initializer
    opened — are reused instead of being respawned per sweep.
    """
    global _SWEEP_POOL, _SWEEP_POOL_KEY
    key = (width, traces)
    if _SWEEP_POOL is not None and _SWEEP_POOL_KEY == key:
        return _SWEEP_POOL
    shutdown_sweep_pool()
    _SWEEP_POOL = ProcessPoolExecutor(
        max_workers=width,
        initializer=_worker_preload_traces,
        initargs=(traces,),
    )
    _SWEEP_POOL_KEY = key
    return _SWEEP_POOL


def shutdown_sweep_pool() -> None:
    """Shut down the shared sweep worker pool, if one is alive.

    :meth:`Sweep.run` keeps its :class:`~concurrent.futures.ProcessPoolExecutor`
    alive between calls so repeated sweeps reuse warm workers and their
    already-opened traces.  Call this to release the worker processes (it is
    also registered via :mod:`atexit`, so interpreter shutdown is clean).
    """
    global _SWEEP_POOL, _SWEEP_POOL_KEY
    if _SWEEP_POOL is not None:
        _SWEEP_POOL.shutdown()
        _SWEEP_POOL = None
        _SWEEP_POOL_KEY = None


atexit.register(shutdown_sweep_pool)


def _map_in_pool(
    specs: Sequence[RunSpec],
    workers: int,
    measure: Callable[[RunSpec], object] = RunSpec.run,
) -> List[Tuple[bool, object]]:
    """Measure every spec in the shared sweep pool; outcomes in spec order.

    The one pool path: :meth:`Sweep.run` with ``workers > 1``, and the CLI's
    multi-config ``run`` and ``throughput --workers``, all come through
    here.  Specs are shipped in chunks, the pool is reused while its width
    and traces stay the same, its initializer pre-opens every trace the
    specs reference, and a broken pool is dropped.  Each outcome is
    :func:`_run_spec_payload`'s ``(ok, value or child traceback)`` pair.
    """
    payloads = [spec.to_dict() for spec in specs]
    pool_width = min(workers, len(specs))
    traces = tuple(
        sorted(
            {
                (
                    str(pathlib.Path(spec.source.trace).resolve()),
                    bool(spec.source.mmap),
                )
                for spec in specs
                if spec.source.trace is not None
            }
        )
    )
    # ~4 chunks per worker: large enough to amortise task pickling,
    # small enough to keep the pool balanced when run times vary.
    chunksize = max(1, len(specs) // (pool_width * 4))
    pool = _sweep_pool(pool_width, traces)
    try:
        return list(
            pool.map(
                functools.partial(_run_spec_payload, measure=measure),
                payloads,
                chunksize=chunksize,
            )
        )
    except BrokenProcessPool:
        # A dead worker poisons the whole executor; drop it so the next
        # call gets a fresh pool instead of the same broken one.
        shutdown_sweep_pool()
        raise


class SweepError(RuntimeError):
    """One grid point of a parallel sweep failed in its worker process.

    Carries everything needed to reproduce the failure without re-running
    the sweep: the child process's full traceback text and the failing
    point's serialized spec (``RunSpec.from_dict(error.spec_dict).run()``
    replays it in-process).

    Attributes:
        overrides: The dotted-path overrides that produced the failing point.
        spec_dict: The failing spec, as :meth:`RunSpec.to_dict` emitted it.
        child_traceback: The worker process's formatted traceback.
    """

    def __init__(
        self,
        overrides: Dict[str, object],
        spec_dict: dict,
        child_traceback: str,
    ) -> None:
        super().__init__(
            f"sweep point {overrides!r} failed in its worker process\n"
            f"--- child traceback ---\n{child_traceback.rstrip()}\n"
            f"--- failing spec ---\n{json.dumps(spec_dict, sort_keys=True)}"
        )
        self.overrides = dict(overrides)
        self.spec_dict = spec_dict
        self.child_traceback = child_traceback

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the one formatted
        # message) into ``__init__``, which takes three fields — rebuild
        # from the fields so the error survives crossing process boundaries
        # with its spec dict and child traceback intact.
        return (SweepError, (self.overrides, self.spec_dict, self.child_traceback))


@dataclass(frozen=True)
class SweepPoint:
    """One executed grid point of a :class:`Sweep`.

    Attributes:
        overrides: The dotted-path overrides that produced this point.
        spec: The fully expanded spec that ran.
        result: The run's :class:`~repro.monitoring.runner.TrackingResult`
            (the async subclass when the spec's transport is asynchronous).
    """

    overrides: Dict[str, object]
    spec: RunSpec
    result: TrackingResult


class Sweep:
    """Expand a grid of field overrides over a base :class:`RunSpec`.

    Args:
        base: The spec every grid point starts from.
        grid: Mapping from dotted field path (e.g. ``"tracker.name"``,
            ``"transport.scale"``, ``"topology.shards"``, ``"engine"``) to
            the sequence of values to sweep.  Paths are checked against the
            base spec up front, so a typo fails before anything runs.

    Example::

        sweep = Sweep(base, {"tracker.name": ["deterministic", "randomized"],
                             "transport.scale": [0.0, 4.0, 16.0]})
        for point in sweep.run():
            print(point.overrides, point.result.summary())
    """

    def __init__(self, base: RunSpec, grid: Mapping[str, Sequence]) -> None:
        if not grid:
            raise ConfigurationError("a sweep needs at least one grid axis")
        self.base = base
        self.grid: Dict[str, Tuple] = {}
        for path, values in grid.items():
            values = tuple(values)
            if not values:
                raise ConfigurationError(
                    f"sweep axis {path!r} has no values to sweep"
                )
            # Apply one value now so unknown paths fail at construction.
            base.with_overrides({path: values[0]})
            self.grid[str(path)] = values

    def __len__(self) -> int:
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total

    def specs(self) -> List[Tuple[Dict[str, object], RunSpec]]:
        """Expand the grid into ``(overrides, spec)`` pairs, in grid order."""
        paths = list(self.grid)
        expanded = []
        for combo in itertools.product(*(self.grid[path] for path in paths)):
            overrides = dict(zip(paths, combo))
            expanded.append((overrides, self.base.with_overrides(overrides)))
        return expanded

    def __iter__(self) -> Iterator[Tuple[Dict[str, object], RunSpec]]:
        return iter(self.specs())

    def run(self, workers: int = 1) -> List[SweepPoint]:
        """Run every grid point on a fresh network; return the points in order.

        Args:
            workers: Process-pool width.  Grid points are fully independent
                (each is a fresh, serializable spec run on its own network),
                so with ``workers > 1`` they execute in a
                :class:`~concurrent.futures.ProcessPoolExecutor` — results
                come back in grid order regardless of completion order, and
                every result carries the same provenance stamp a serial run
                would.  Points are shipped to the pool in chunks (several
                specs per task) so large grids of short runs are not
                dominated by per-task pickling round-trips.  The pool itself
                is kept alive and reused across chunks and across ``run``
                calls of the same shape (see :func:`shutdown_sweep_pool`),
                and its initializer pre-opens every trace file the grid
                references — each worker opens each trace **once**, with all
                grid points served from the worker's
                :mod:`~repro.api.trace_cache` (memory-mapped npz traces
                share the OS page cache on top).  The default stays serial
                (no subprocess overhead, exceptions surface at the
                offending point).

        Raises:
            ReproError: A grid point fails :meth:`RunSpec.validate`; with
                ``workers > 1`` every point is validated before any ships.
            SweepError: A grid point raised in its worker process.  The
                error carries the child's full traceback and the failing
                spec's ``to_dict()`` for an in-process replay.
        """
        if workers < 1:
            raise ConfigurationError(
                f"Sweep.run needs workers >= 1, got {workers}"
            )
        expanded = self.specs()
        if workers == 1 or len(expanded) <= 1:
            return [
                SweepPoint(overrides=overrides, spec=spec, result=spec.run())
                for overrides, spec in expanded
            ]
        # A bad point fails here with its field-naming error, as it would
        # serially, instead of as a SweepError after every point shipped.
        for _, spec in expanded:
            spec.validate()
        outcomes = _map_in_pool([spec for _, spec in expanded], workers)
        points = []
        for (overrides, spec), (ok, value) in zip(expanded, outcomes):
            if not ok:
                raise SweepError(overrides, spec.to_dict(), value)
            points.append(SweepPoint(overrides=overrides, spec=spec, result=value))
        return points

    @staticmethod
    def worker_trace_opens(samples: int = 32) -> Dict[int, dict]:
        """Per-worker trace open tallies from the live shared sweep pool.

        Sends ``samples`` cheap probe tasks through the pool and collects
        each responding worker's :func:`repro.streams.io.trace_open_counts`,
        keyed by worker pid.  More samples than workers are sent because the
        pool is free to give every task to one idle worker; duplicates
        collapse on pid.  Returns ``{}`` when no pool is alive.  This is the
        measurement behind the shared-trace guarantee: after a sweep over
        one trace, each pid's tally for that trace is 1 — one open per
        worker, never one per grid point (benchmark E23 asserts this).
        """
        if _SWEEP_POOL is None:
            return {}
        return {
            pid: counts
            for pid, counts in _SWEEP_POOL.map(
                _probe_worker_trace_opens, range(samples)
            )
        }
