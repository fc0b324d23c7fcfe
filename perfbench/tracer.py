"""Layer tracer: wraps public callables of ``repro`` by dotted name.

The benchmark's per-layer numbers come from here.  Each :class:`Target`
names one layer metric and the dotted paths of the callables that make up
that layer (a module function, or a method of a class and of every subclass
that overrides it).  :meth:`Tracer.install` swaps each callable for a thin
wrapper that records a span around the call; :meth:`Tracer.uninstall` puts
the originals back.  Nothing in ``src/`` changes.

Spans are kept per thread (the live server pushes on a feed thread and
scrapes on HTTP threads) as in-memory aggregates: calls, self time and an
optional item count.  Self time is the span's duration minus the time of
its child spans.  A call that re-enters the same layer (a subclass override
calling ``super()``, a network-level ``advance_to`` calling channel-level
ones) is folded into the outer span, so a layer's calls count entries into
the layer, not stack frames.

A dotted path that no longer resolves -- the callable moved or was renamed
-- is reported as missing instead of failing the run, so a refactor shows up
as a missing layer metric, not as a broken benchmark.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One traced layer callable.

    Attributes:
        name: Metric prefix, e.g. ``"kernel.consume_run"``.
        paths: Dotted paths of the callables aggregated under ``name``.
        items: Optional ``items(args, result) -> int`` counting the work a
            call handled (segments cut, updates replayed), summed per name.
    """

    name: str
    paths: Tuple[str, ...]
    items: Optional[Callable] = None


def _len_result(args, result) -> int:
    return len(result)


def _len_second_arg(args, result) -> int:
    # ``(self_or_site, times, deltas, ...)``: the run length.
    return len(args[1])


#: Every traced layer callable, named after the ``src/repro`` module it
#: lives in.  Counts read from run results (faults, in-flight high water,
#: records) are not listed here; the benchmark takes them from the results.
TARGETS: Tuple[Target, ...] = (
    Target("api.build", ("repro.api.spec.RunSpec.build",)),
    Target("api.load_columns", ("repro.api.spec.SourceSpec.load_columns",)),
    Target("tree.leaf_routing", ("repro.monitoring.tree.leaf_routing",)),
    Target(
        "tree.materialize", ("repro.monitoring.tree._LazyLeafNetwork.materialize",)
    ),
    Target(
        "tree.push_estimate",
        ("repro.monitoring.sharding.ShardCoordinator.push_estimate",),
    ),
    Target(
        "kernel.segment_cuts",
        ("repro.engine.segment_cuts", "repro.engine.kernel.segment_cuts"),
        items=_len_result,
    ),
    Target("kernel.consume_run", ("repro.engine.kernel.SpanKernel.consume_run",)),
    Target(
        "kernel.fast_forward_closes",
        ("repro.engine.kernel.SpanKernel.fast_forward_closes",),
    ),
    Target(
        "kernel.replay",
        ("repro.engine.kernel.SpanKernel.replay",),
        items=_len_second_arg,
    ),
    Target(
        "core.receive_batch",
        ("repro.core.template.BlockTrackingSite.receive_batch",),
        items=_len_second_arg,
    ),
    Target(
        "core.receive_update", ("repro.core.template.BlockTrackingSite.receive_update",)
    ),
    Target(
        "core.on_stream_batch",
        ("repro.core.template.BlockTrackingSite.on_stream_batch",),
    ),
    Target(
        "core.on_multiblock_window",
        ("repro.core.template.BlockTrackingSite.on_multiblock_window",),
    ),
    Target(
        "channel.send",
        (
            "repro.monitoring.channel.Channel.send_to_coordinator",
            "repro.monitoring.channel.Channel.send_to_site",
            "repro.monitoring.channel.Channel.multicast",
        ),
    ),
    Target("channel.charge", ("repro.monitoring.channel.Channel.charge",)),
    Target(
        "runner.estimate",
        ("repro.monitoring.runner._record", "repro.asynchrony.runner._record"),
    ),
    Target(
        "async.advance_to",
        (
            "repro.asynchrony.channel.AsyncChannel.advance_to",
            "repro.monitoring.sharding.ShardedNetwork.advance_to",
        ),
    ),
    Target(
        "async.drain",
        (
            "repro.asynchrony.channel.AsyncChannel.drain",
            "repro.monitoring.sharding.ShardedNetwork.drain",
        ),
    ),
    Target("async.events", ("repro.asynchrony.events.EventScheduler.push",)),
    Target("live.parse", ("repro.observability.live.parse_feed_line",)),
    Target("live.push", ("repro.observability.live.LiveTracker.push",)),
    Target("live.scrape", ("repro.observability.live.LiveTracker.scrape",)),
    Target("live.render", ("repro.observability.metrics.MetricsRegistry.render",)),
)


def _resolve(path: str):
    """``(owner, attribute)`` for a dotted path, or ``None`` if it is gone."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            node = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                node = getattr(node, part)
        except AttributeError:
            return None
        if parts[-1] in vars(node):
            return node, parts[-1]
        return None
    return None


def _owners(owner, attribute: str) -> List:
    """The owner plus every subclass that overrides ``attribute`` itself."""
    if not isinstance(owner, type):
        return [owner]
    found, pending = [owner], list(owner.__subclasses__())
    while pending:
        cls = pending.pop()
        if attribute in vars(cls) and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Tracer:
    """Installs span wrappers for :data:`TARGETS` and aggregates their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[Dict[str, List[float]]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.unresolved_paths: List[str] = []

    # -- span recording ------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            aggregates: Dict[str, List[float]] = {}
            state = self._local.state = ([], aggregates)
            with self._lock:
                self._per_thread.append(aggregates)
        return state

    def _wrap(self, name: str, function, items) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack, aggregates = tracer._thread_state()
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                aggregate = aggregates.get(name)
                if aggregate is None:
                    aggregate = aggregates[name] = [0, 0.0, 0]
                aggregate[0] += 1
                aggregate[1] += elapsed - frame[1]
            if items is not None:
                aggregate[2] += items(args, result)
            return result

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every resolvable target; record the ones that are gone."""
        for target in TARGETS:
            wrapped_any = False
            for path in target.paths:
                resolved = _resolve(path)
                if resolved is None:
                    self.unresolved_paths.append(path)
                    continue
                owner, attribute = resolved
                for cls in _owners(owner, attribute):
                    original = vars(cls)[attribute]
                    if isinstance(original, staticmethod):
                        replacement = staticmethod(
                            self._wrap(target.name, original.__func__, target.items)
                        )
                    elif isinstance(original, classmethod):
                        replacement = classmethod(
                            self._wrap(target.name, original.__func__, target.items)
                        )
                    elif callable(original):
                        replacement = self._wrap(target.name, original, target.items)
                    else:
                        continue
                    setattr(cls, attribute, replacement)
                    self._installed.append((cls, attribute, original))
                    wrapped_any = True
            if not wrapped_any:
                self.missing.append(target.name)
        return self

    def uninstall(self) -> None:
        """Restore every original callable (in reverse install order)."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def report(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "self_s", "items"}`` summed over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            snapshots = [dict(aggregates) for aggregates in self._per_thread]
        for aggregates in snapshots:
            for name, (calls, self_s, items) in aggregates.items():
                row = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "items": 0})
                row["calls"] += calls
                row["self_s"] += self_s
                row["items"] += items
        return merged
