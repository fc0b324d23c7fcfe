"""The batch workloads: seeded inputs, RunSpecs and the per-update oracle check.

Each batch workload turns a seed into a list of RunSpec documents -- one per
input instance -- before anything is timed.  ``flat-kernel`` and
``tree-high-touch`` replay ``.npz`` traces written here; ``lossy-tree-async``
is a generator spec (the asynchronous engines take no traces), so its
stream is generated inside ``RunSpec.build()`` and counts as set-up.

Every workload also names a prefix spec: the first updates of instance 0.
:func:`oracle_mismatches` replays that prefix through the measured engine
(``RunSpec.build().run()``) and through this module's own delivery loop on a
freshly built network, and compares the two results field by field.  The
loop delivers one update at a time (``deliver_update``), except on the
hierarchical trace replay: there every batched engine pushes a leaf's
estimate upward once per same-site segment while per-update delivery
pushes after every update, so the two charge different message counts by
design, and the oracle hands each segment to ``deliver_batch`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List

import numpy as np

from repro.api import RunSpec, SourceSpec, TopologySpec, TrackerSpec, TransportSpec
from repro.streams.io import TraceColumns, save_trace_npz

from worker import fingerprint

EPSILON = 0.1


@dataclass
class BatchInputs:
    """A batch workload's generated inputs.

    Attributes:
        specs: One RunSpec per input instance, replayed round-robin.
        updates: Update count of each instance.
        true_values: Sum of each instance's deltas: the last record's true
            value must equal it.
        prefix: The oracle-checked prefix of instance 0, as a RunSpec.
        per_segment_oracle: Deliver the prefix one segment at a time
            (hierarchical trace replays) instead of one update at a time.
    """

    specs: List[RunSpec]
    updates: List[int]
    true_values: List[int]
    prefix: RunSpec
    per_segment_oracle: bool = False


def _instance_seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _trace_spec(path: Path, topology: TopologySpec, record_every: int) -> RunSpec:
    return RunSpec(
        source=SourceSpec(stream=None, trace=str(path)),
        tracker=TrackerSpec(name="deterministic", epsilon=EPSILON),
        topology=topology,
        engine="arrays",
        record_every=record_every,
    )


def _site_runs(rng, length: int, run: int, sites: int) -> np.ndarray:
    """Runs of ``run`` updates, each to a uniformly random site.

    The first run goes to the highest site id, so every prefix of the trace
    spans all ``sites`` sites and wires the same network as the whole trace.
    """
    runs = rng.integers(0, sites, size=-(-length // run), dtype=np.int64)
    runs[0] = sites - 1
    return np.repeat(runs, run)[:length]


def _write_traces(workdir: Path, name: str, columns, prefix_length, topology, record_every):
    specs, updates, true_values = [], [], []
    for index, (sites, deltas) in enumerate(columns):
        times = np.arange(1, deltas.size + 1, dtype=np.int64)
        path = workdir / f"{name}-{index}.npz"
        save_trace_npz(TraceColumns(times=times, sites=sites, deltas=deltas), path)
        specs.append(_trace_spec(path, topology, record_every))
        updates.append(int(deltas.size))
        true_values.append(int(deltas.sum()))
        if index == 0:
            head = slice(0, prefix_length)
            prefix_path = workdir / f"{name}-prefix.npz"
            save_trace_npz(
                TraceColumns(times=times[head], sites=sites[head], deltas=deltas[head]),
                prefix_path,
            )
            prefix = _trace_spec(prefix_path, topology, record_every)
    return BatchInputs(specs, updates, true_values, prefix, bool(topology.is_tree()))


# -- flat-kernel -------------------------------------------------------------

FLAT_SITES = 16
FLAT_RUN = 4096
FLAT_LENGTH = 1 << 18
FLAT_INSTANCES = 4
FLAT_TARGET = 1024
FLAT_PULL = 0.05
FLAT_RECORD_EVERY = 4096
FLAT_PREFIX = 65_536


def mean_reverting_walk(rng, length: int, target: int, pull: float) -> np.ndarray:
    """A +-1 walk that steps toward ``target`` with probability 0.5 + pull.

    Stationary around ``target``, so its cost per update does not depend on
    how long a particular seed's walk lingers near zero.
    """
    draws = rng.random(length).tolist()
    up_below, up_above = 0.5 + pull, 0.5 - pull
    deltas = [0] * length
    value = 0
    for index, draw in enumerate(draws):
        if value < target:
            step = 1 if draw < up_below else -1
        elif value > target:
            step = 1 if draw < up_above else -1
        else:
            step = 1 if draw < 0.5 else -1
        deltas[index] = step
        value += step
    return np.array(deltas, dtype=np.int64)


def flat_kernel(seed: int, workdir: Path) -> BatchInputs:
    columns = []
    for instance_seed in _instance_seeds(seed, FLAT_INSTANCES):
        rng = np.random.default_rng(instance_seed)
        deltas = mean_reverting_walk(rng, FLAT_LENGTH, FLAT_TARGET, FLAT_PULL)
        columns.append((_site_runs(rng, FLAT_LENGTH, FLAT_RUN, FLAT_SITES), deltas))
    return _write_traces(
        workdir, "flat", columns, FLAT_PREFIX, TopologySpec(), FLAT_RECORD_EVERY
    )


# -- tree-high-touch -----------------------------------------------------------

TREE_SITES = 1_000_000
TREE_SEGMENT = 16
TREE_LENGTH = 8192
TREE_INSTANCES = 4
TREE_P_UP = 0.8
TREE_RECORD_EVERY = 128
TREE_PREFIX = 2048


def tree_high_touch(seed: int, workdir: Path) -> BatchInputs:
    columns = []
    for instance_seed in _instance_seeds(seed, TREE_INSTANCES):
        rng = np.random.default_rng(instance_seed)
        deltas = np.where(rng.random(TREE_LENGTH) < TREE_P_UP, 1, -1).astype(np.int64)
        columns.append((_site_runs(rng, TREE_LENGTH, TREE_SEGMENT, TREE_SITES), deltas))
    topology = TopologySpec(levels=4, fanout=10, epsilon_split="geometric")
    return _write_traces(
        workdir, "tree", columns, TREE_PREFIX, topology, TREE_RECORD_EVERY
    )


# -- lossy-tree-async ------------------------------------------------------------

LOSSY_SITES = 8
LOSSY_LENGTH = 5000
LOSSY_INSTANCES = 8
LOSSY_DRIFT = 0.5
LOSSY_RECORD_EVERY = 20
LOSSY_PREFIX = 1000


def _lossy_spec(instance_seed: int, length: int) -> RunSpec:
    return RunSpec(
        source=SourceSpec(
            stream="biased_walk",
            length=length,
            seed=instance_seed,
            sites=LOSSY_SITES,
            params={"drift": LOSSY_DRIFT},
        ),
        tracker=TrackerSpec(name="deterministic", epsilon=EPSILON),
        topology=TopologySpec(levels=3, fanout=2),
        transport=TransportSpec(
            mode="async",
            latency="uniform",
            scale=0.55,
            seed=instance_seed + 1,
            loss=0.1,
            loss_model="iid",
            loss_seed=instance_seed + 2,
            repair=True,
        ),
        engine="per-update",
        record_every=LOSSY_RECORD_EVERY,
    )


def lossy_tree_async(seed: int, workdir: Path) -> BatchInputs:
    seeds = [s % (1 << 30) for s in _instance_seeds(seed, LOSSY_INSTANCES)]
    specs = [_lossy_spec(s, LOSSY_LENGTH) for s in seeds]
    true_values = [sum(spec.source.build_stream().deltas) for spec in specs]
    return BatchInputs(
        specs,
        [LOSSY_LENGTH] * len(specs),
        true_values,
        _lossy_spec(seeds[0], LOSSY_PREFIX),
    )


BATCH_WORKLOADS: Dict[str, Callable[[int, Path], BatchInputs]] = {
    "flat-kernel": flat_kernel,
    "tree-high-touch": tree_high_touch,
    "lossy-tree-async": lossy_tree_async,
}


# -- the oracle ----------------------------------------------------------------------


def _record(records: list, network, time: int, true_value: int) -> None:
    stats = network.stats
    records.append(
        SimpleNamespace(
            time=time,
            true_value=true_value,
            estimate=network.estimate(),
            messages=stats.messages,
            bits=stats.bits,
        )
    )


def _segments(sites: np.ndarray, record_every: int):
    """``(start, end)`` of each same-site run, also cut after record points.

    The runners' segmentation rule, restated here so the oracle shares no
    code with the engines it checks.
    """
    length = sites.size
    cuts = set((np.flatnonzero(sites[1:] != sites[:-1]) + 1).tolist())
    cuts.update(range(1, length + 1, record_every))
    cuts.add(length)
    start = 0
    for end in sorted(cuts):
        yield start, end
        start = end


def _deliver_per_segment(network, columns, record_every: int) -> list:
    """Hand each segment to ``network.deliver_batch``; record between them."""
    times, sites, deltas = columns.times, columns.sites, columns.deltas
    running = np.cumsum(deltas).tolist()
    records = []
    end = 0
    for start, end in _segments(sites, record_every):
        if end - start == 1:
            network.deliver_update(
                int(times[start]), int(sites[start]), int(deltas[start])
            )
        else:
            network.deliver_batch(
                int(sites[start]), times[start:end], deltas[start:end]
            )
        if (end - 1) % record_every == 0:
            _record(records, network, int(times[end - 1]), running[end - 1])
    if end and (end - 1) % record_every != 0:
        _record(records, network, int(times[end - 1]), running[end - 1])
    return records


def _deliver_per_update(network, updates, record_every: int, clock) -> list:
    """Deliver one update at a time; advance ``clock`` first if asynchronous."""
    records = []
    true_value = 0
    index = -1
    time = 0
    for index, (time, site, delta) in enumerate(updates):
        if clock is not None:
            clock.advance_to(time)
        network.deliver_update(time, site, delta)
        true_value += delta
        if index % record_every == 0:
            _record(records, network, time, true_value)
    if index >= 0 and index % record_every != 0:
        _record(records, network, time, true_value)
    return records


def _oracle(spec: RunSpec, per_segment: bool) -> SimpleNamespace:
    """Replay the spec's updates outside the runners; a result-shaped object."""
    built = spec.build()
    network = built.network
    asynchronous = spec.transport.mode == "async"
    clock = None
    if asynchronous:
        clock = network if hasattr(network, "advance_to") else network.channel
    if per_segment:
        records = _deliver_per_segment(network, built.columns, spec.record_every)
    else:
        if built.columns is not None:
            columns = built.columns
            updates = zip(
                columns.times.tolist(), columns.sites.tolist(), columns.deltas.tolist()
            )
        else:
            updates = ((u.time, u.site, u.delta) for u in built.updates)
        records = _deliver_per_update(network, updates, spec.record_every, clock)
    if asynchronous:
        clock.drain()
    stats = network.stats
    result = SimpleNamespace(
        records=records,
        total_messages=stats.messages,
        total_bits=stats.bits,
        messages_by_kind=stats.by_kind,
    )
    if asynchronous:
        result.dropped = stats.dropped
        result.retransmitted = stats.retransmitted
        result.duplicates = stats.duplicates
    return result


def oracle_mismatches(inputs: BatchInputs) -> List[str]:
    """Fields on which the measured engine and the oracle disagree."""
    measured = fingerprint(inputs.prefix.build().run())
    expected = fingerprint(_oracle(inputs.prefix, inputs.per_segment_oracle))
    return [
        f"oracle mismatch on the prefix: {key}"
        for key in sorted(set(measured) | set(expected))
        if measured.get(key) != expected.get(key)
    ]
