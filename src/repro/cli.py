"""Command-line interface: quick experiments without writing a script.

The CLI exposes the library's main measurement loops so that a user can poke
at the paper's claims directly from a shell::

    python -m repro variability --stream random_walk --lengths 1000 4000 16000
    python -m repro tracking --stream biased_walk --sites 8 --epsilon 0.1
    python -m repro frequency --length 10000 --universe 500 --epsilon 0.2
    python -m repro lowerbound --n 256 --level 8 --flips 8
    python -m repro throughput --length 1000000 --sites 4 16 64
    python -m repro latency --stream biased_walk --scales 0 1 4 16 64
    python -m repro trace --stream random_walk --length 1000000 --out big.npz
    python -m repro run --config examples/specs/quickstart.json
    python -m repro serve --config examples/specs/live_service.json

Each subcommand prints a plain-text table in the same format the benchmark
harness uses for EXPERIMENTS.md.  ``tracking``, ``throughput`` and
``latency`` share one delivery-engine selector, ``--engine
{auto,per-update,batched,arrays}`` (every engine produces identical
results; see :mod:`repro.monitoring.runner` and
:mod:`repro.engine`): ``per-update`` dispatches one update at a time,
``batched`` runs the span kernel's closed-form fast path, and ``arrays``
replays a columnar trace file (``--trace``, CSV or npz; npz traces are
memory-mapped with ``--mmap``) with no per-update objects at all — over a
tree topology too, where leaves and sites the trace never touches are never
built.
``throughput`` measures what the chosen fast engine buys over per-update
dispatch, ``latency`` sweeps the asynchronous transport's delivery-latency
scale against the achieved error and staleness (:mod:`repro.asynchrony`;
``--engine batched`` there bulk-schedules spans, one in-flight event per
span), and ``trace`` generates a distributed trace file for the ``arrays``
engine.  ``tracking``, ``throughput`` and ``latency`` all accept
``--shards`` to run the two-level sharded coordinator hierarchy
(:mod:`repro.monitoring.sharding`) instead of the flat star; ``tracking``
and ``latency`` additionally accept ``--levels``/``--fanout`` to run the
recursive L-level monitoring tree (:mod:`repro.monitoring.tree` —
``--shards S`` is exactly ``--levels 2 --fanout S``).

``tracking``, ``throughput`` and ``latency`` are presets of the unified
experiment API (:mod:`repro.api`): one function maps their flags onto
a :class:`~repro.api.RunSpec`, and each table is a :class:`~repro.api.Sweep`
of it — over the tracker names, over site counts × tracker names (each
point timed by :func:`repro.analysis.measure_engine_throughput`), or over
``transport.scale``.  ``run`` closes the loop: any scenario
saved as JSON (``RunSpec.save``, or written by hand — see
``examples/specs/``) executes with ``python -m repro run --config
spec.json``, with ``--set field.path=value`` overrides for smoke-sized
replays (``--summary-out`` writes the JSON to a file instead of stdout).
``run``, ``latency`` and ``throughput`` accept ``--workers`` to spread
independent points over the shared sweep pool of :mod:`repro.api.sweep`.
``serve`` turns a spec into a long-lived service: a live tracker fed over a
TCP line protocol, scraped at ``/metrics`` and ``/status``
(:mod:`repro.observability`).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import Callable, List, Optional, Sequence

from repro.api import (
    STREAM_REGISTRY,
    RunSpec,
    SourceSpec,
    Sweep,
    TopologySpec,
    TrackerSpec,
    TransportSpec,
)
from repro.api.sweep import _map_in_pool
from repro.analysis import format_table, measure_engine_throughput
from repro.analysis.bounds import deterministic_message_bound
from repro.core import DeterministicCounter, variability
from repro.core.frequencies import FrequencyTracker, HashReducer, run_frequency_tracking
from repro.exceptions import ConfigurationError, ReproError
from repro.lowerbounds import DeterministicFlipFamily, IndexReduction, TranscriptTracer
from repro.streams import ItemStreamConfig, zipfian_item_stream

__all__ = ["main", "build_parser", "STREAM_GENERATORS"]

#: Stream classes selectable from the command line: the spec registry
#: itself (:data:`repro.api.STREAM_REGISTRY`), ``name -> (n, seed) ->
#: StreamSpec``.
STREAM_GENERATORS = STREAM_REGISTRY

#: Tracker axis every ``tracking`` table sweeps, with display labels.
_TRACKING_TABLE = (
    ("naive", "naive"),
    ("cormode", "cormode"),
    ("liu", "liu-style"),
    ("deterministic", "deterministic"),
    ("randomized", "randomized"),
)

#: The one delivery-engine vocabulary every subcommand shares
#: ("per-update" and "perupdate" are interchangeable spellings).
ENGINE_CHOICES = ["auto", "per-update", "perupdate", "batched", "arrays"]

#: The engine ``--engine auto`` selects on each subcommand that takes it.
_AUTO_ENGINE = {"tracking": "auto", "throughput": "batched", "latency": "per-update"}

#: Trackers every ``throughput`` table measures.
_THROUGHPUT_TRACKERS = ["deterministic", "randomized"]


def _add_engine_option(parser: argparse.ArgumentParser, extra: str = "") -> None:
    """Attach the shared ``--engine`` selector to one subcommand parser.

    A single helper rather than per-subcommand argument definitions, so the
    engine vocabulary — and its help text — cannot drift between
    ``tracking``, ``throughput`` and ``latency``.
    """
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="delivery engine: per-update dispatch, the batched span kernel, "
        "or columnar replay of a --trace file (on any topology; "
        "identical results across engines)"
        + extra,
    )


def _add_tree_options(parser: argparse.ArgumentParser) -> None:
    """Attach the L-level tree topology selectors to one subcommand parser."""
    parser.add_argument(
        "--levels",
        type=int,
        default=None,
        help="coordinator levels of a recursive monitoring tree (give "
        "--fanout too; --shards S is exactly --levels 2 --fanout S)",
    )
    parser.add_argument(
        "--fanout",
        type=int,
        default=None,
        help="children per aggregation node of the tree (with --levels)",
    )


def _add_workers_option(parser: argparse.ArgumentParser, what: str) -> None:
    """Attach the shared ``--workers`` process-pool selector."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"process-pool width for {what} (1 = serial; results are "
        "identical and stay in order either way)",
    )


def _topology_label(args: argparse.Namespace) -> str:
    """The header fragment describing the chosen topology."""
    levels = getattr(args, "levels", None)
    fanout = getattr(args, "fanout", None)
    if levels is not None or fanout is not None:
        return f"levels={levels} fanout={fanout}"
    return f"shards={getattr(args, 'shards', 1)}"


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    """Attach the trace-file inputs that the ``arrays`` engine replays."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace file for --engine arrays (.npz from `repro trace` / "
        "save_trace_npz, anything else parsed as time,site,delta CSV)",
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map an .npz trace instead of loading it (replay traces "
        "larger than RAM)",
    )


def _resolve_engine(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    """Normalise and validate the shared ``--engine``/``--trace`` options.

    Returns one of ``auto``, ``per-update``, ``batched`` or ``arrays`` (the
    spec's spelling); invalid combinations (``arrays`` without a trace
    file, a trace file without the ``arrays`` engine, ``--mmap`` on a CSV
    trace) exit through ``parser.error`` with an actionable message.
    """
    engine = {"perupdate": "per-update"}.get(args.engine, args.engine)
    trace = getattr(args, "trace", None)
    if engine == "arrays" and args.command == "latency":
        parser.error(
            "the arrays engine replays traces synchronously; latency drives "
            "the asynchronous transport — choose per-update or batched"
        )
    if engine == "per-update" and args.command == "throughput":
        parser.error(
            "per-update dispatch is the baseline every throughput row is "
            "measured against; choose batched or arrays as the measured engine"
        )
    if engine == "arrays" and trace is None:
        parser.error(
            "--engine arrays replays a recorded trace; pass one with "
            "--trace (generate it with `python -m repro trace`)"
        )
    if trace is not None and engine != "arrays":
        parser.error(
            f"--trace is the input of the arrays engine; combine it with "
            f"--engine arrays (got --engine {args.engine})"
        )
    if getattr(args, "mmap", False):
        if trace is None:
            parser.error(
                "--mmap memory-maps a trace file; combine it with "
                "--engine arrays --trace PATH"
            )
        if not str(trace).endswith(".npz"):
            parser.error("--mmap applies to binary .npz traces only")
    return engine


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiments for the 'Variability in Data Streams' reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    variability_parser = subparsers.add_parser(
        "variability", help="measure the variability of a stream class across lengths"
    )
    variability_parser.add_argument("--stream", choices=STREAM_GENERATORS, default="random_walk")
    variability_parser.add_argument(
        "--lengths", type=int, nargs="+", default=[1_000, 4_000, 16_000]
    )
    variability_parser.add_argument("--seed", type=int, default=0)

    tracking_parser = subparsers.add_parser(
        "tracking", help="compare trackers on one distributed stream"
    )
    tracking_parser.add_argument("--stream", choices=STREAM_GENERATORS, default="biased_walk")
    tracking_parser.add_argument("--length", type=int, default=20_000)
    tracking_parser.add_argument("--sites", type=int, default=4)
    tracking_parser.add_argument("--epsilon", type=float, default=0.1)
    tracking_parser.add_argument("--seed", type=int, default=0)
    _add_engine_option(tracking_parser)
    _add_trace_option(tracking_parser)
    tracking_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="coordinator shards; above 1 every tracker runs as a two-level "
        "hierarchy (disjoint site groups under a root aggregator) and message "
        "totals include the shard-to-root hops",
    )
    _add_tree_options(tracking_parser)

    throughput_parser = subparsers.add_parser(
        "throughput",
        help="measure the batched engine's speedup over per-update dispatch",
    )
    throughput_parser.add_argument("--length", type=int, default=1_000_000)
    throughput_parser.add_argument("--sites", type=int, nargs="+", default=[4, 16, 64])
    throughput_parser.add_argument("--epsilon", type=float, default=0.1)
    throughput_parser.add_argument(
        "--block-length",
        type=int,
        default=4_096,
        help="contiguous updates per site (blocked stream-to-site assignment; "
        "unrelated to coordinator sharding — that is --shards)",
    )
    throughput_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="coordinator shards for both engines (1 = flat topology)",
    )
    throughput_parser.add_argument("--record-every", type=int, default=20_000)
    throughput_parser.add_argument("--seed", type=int, default=31)
    _add_workers_option(
        throughput_parser, "the site-count x tracker measurement grid"
    )
    _add_engine_option(
        throughput_parser,
        extra="; auto picks batched, per-update alone is the baseline and "
        "cannot be the measured engine",
    )
    _add_trace_option(throughput_parser)

    latency_parser = subparsers.add_parser(
        "latency",
        help="sweep delivery-latency scales on the asynchronous transport",
    )
    latency_parser.add_argument("--stream", choices=STREAM_GENERATORS, default="biased_walk")
    latency_parser.add_argument("--length", type=int, default=20_000)
    latency_parser.add_argument("--sites", type=int, default=8)
    latency_parser.add_argument("--epsilon", type=float, default=0.1)
    latency_parser.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[0.0, 1.0, 4.0, 16.0, 64.0],
        help="latency scales in virtual-time units (0 = the paper's synchronous model)",
    )
    latency_parser.add_argument(
        "--algorithm",
        choices=["deterministic", "randomized", "naive"],
        default="deterministic",
    )
    latency_parser.add_argument(
        "--model",
        choices=["constant", "uniform", "heavytail"],
        default="uniform",
        help="latency distribution: constant delay, uniform jitter on "
        "[scale/2, 3*scale/2], or Pareto tail around the scale",
    )
    latency_parser.add_argument(
        "--allow-reordering",
        action="store_true",
        help="let messages overtake each other on a link (default: per-link FIFO)",
    )
    latency_parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-attempt message loss probability in [0, 1); lost messages "
        "are retransmitted after a timeout and charged honestly",
    )
    latency_parser.add_argument(
        "--loss-model",
        choices=["iid", "burst"],
        default="iid",
        help="loss process: 'iid' drops each attempt independently, 'burst' "
        "is a Gilbert-Elliott chain with correlated bad spells",
    )
    latency_parser.add_argument(
        "--loss-seed",
        type=int,
        default=0,
        help="seed for the loss process (independent of latency/stream seeds)",
    )
    latency_parser.add_argument(
        "--repair",
        action="store_true",
        help="sequence-number block closes so reply-to-broadcast drift is "
        "kept instead of discarded (fixes the naive protocol's bias under "
        "delay and loss)",
    )
    latency_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="coordinator shards; above 1 the shard-to-root hop becomes a "
        "second latency leg with the same model",
    )
    _add_tree_options(latency_parser)
    latency_parser.add_argument("--record-every", type=int, default=25)
    latency_parser.add_argument("--seed", type=int, default=0)
    _add_workers_option(latency_parser, "the latency-scale sweep")
    _add_engine_option(
        latency_parser,
        extra="; auto picks per-update (exact per-message timing), batched "
        "bulk-schedules spans (one in-flight event per span), arrays is "
        "synchronous-only and rejected here",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="generate a distributed trace file for the arrays engine",
    )
    trace_parser.add_argument("--stream", choices=STREAM_GENERATORS, default="random_walk")
    trace_parser.add_argument("--length", type=int, default=1_000_000)
    trace_parser.add_argument("--sites", type=int, default=4)
    trace_parser.add_argument("--seed", type=int, default=31)
    trace_parser.add_argument(
        "--block-length",
        type=int,
        default=4_096,
        help="contiguous updates per site (0 = round-robin assignment)",
    )
    trace_parser.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="output file; .npz writes the memory-mappable binary format, "
        "anything else the time,site,delta CSV",
    )

    run_parser = subparsers.add_parser(
        "run",
        help="execute a saved RunSpec scenario (JSON) through the unified API",
    )
    run_parser.add_argument(
        "--config",
        required=True,
        action="append",
        metavar="PATH",
        dest="configs",
        help="RunSpec JSON document (write one with RunSpec.save, or by hand; "
        "see examples/specs/).  Repeatable: several configs run as one "
        "batch (a process pool with --workers) and print a JSON array",
    )
    run_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        dest="overrides",
        help="override one spec field by dotted path before running, e.g. "
        "--set source.length=2000 --set transport.scale=4.0 (repeatable; "
        "values are parsed as JSON, falling back to strings)",
    )
    run_parser.add_argument(
        "--records",
        action="store_true",
        help="include the per-step records in the JSON output "
        "(TrackingResult.to_dict instead of summary)",
    )
    run_parser.add_argument(
        "--summary-out",
        metavar="PATH",
        default=None,
        help="write the JSON document to PATH instead of stdout "
        "(stdout then carries a one-line confirmation)",
    )
    run_parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="profile the run(s) under cProfile and dump binary pstats to "
        "PATH (inspect with `python -m pstats PATH`); runs in-process, so "
        "not combinable with --workers > 1",
    )
    _add_workers_option(run_parser, "running several --config files")

    serve_parser = subparsers.add_parser(
        "serve",
        help="stand up a live tracker service (HTTP /metrics + /status, "
        "TCP line feed) from a RunSpec",
    )
    serve_parser.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="RunSpec JSON document with a source.live (or generator) "
        "source and a synchronous transport; see "
        "examples/specs/live_service.json",
    )
    serve_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        dest="overrides",
        help="override one spec field by dotted path before serving "
        "(same vocabulary as `repro run --set`)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--http-port",
        type=int,
        default=8077,
        help="HTTP port for /metrics, /status and /healthz (0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--feed-port",
        type=int,
        default=8078,
        help="TCP port of the line-protocol update feed: one "
        "'time site delta' triple per line (0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for a fixed time then exit cleanly "
        "(default: until SIGINT/SIGTERM)",
    )
    serve_parser.add_argument(
        "--error-threshold",
        type=float,
        default=None,
        help="relative error that counts as a violation and raises the "
        "error alert (default: the spec's tracker.epsilon)",
    )
    serve_parser.add_argument(
        "--alert-value",
        type=float,
        action="append",
        default=[],
        dest="alert_values",
        metavar="VALUE",
        help="record an alert when the estimate crosses VALUE upward "
        "(repeatable)",
    )
    serve_parser.add_argument(
        "--trace-capacity",
        type=int,
        default=0,
        metavar="N",
        help="keep the last N structured trace events in memory "
        "(0 = tracing off)",
    )

    frequency_parser = subparsers.add_parser(
        "frequency", help="run the Appendix H frequency tracker on a Zipfian workload"
    )
    frequency_parser.add_argument("--length", type=int, default=10_000)
    frequency_parser.add_argument("--universe", type=int, default=500)
    frequency_parser.add_argument("--sites", type=int, default=4)
    frequency_parser.add_argument("--epsilon", type=float, default=0.2)
    frequency_parser.add_argument("--sketched", action="store_true", help="use the Count-Min reduction")
    frequency_parser.add_argument("--seed", type=int, default=0)

    lowerbound_parser = subparsers.add_parser(
        "lowerbound", help="build the Theorem 4.1 family and run the INDEX reduction"
    )
    lowerbound_parser.add_argument("--n", type=int, default=128)
    lowerbound_parser.add_argument("--level", type=int, default=8, help="m = 1/eps")
    lowerbound_parser.add_argument("--flips", type=int, default=6)
    lowerbound_parser.add_argument("--samples", type=int, default=3)
    lowerbound_parser.add_argument("--seed", type=int, default=0)

    return parser


def _command_variability(args: argparse.Namespace) -> str:
    generator = STREAM_GENERATORS[args.stream]
    rows: List[List[object]] = []
    for n in args.lengths:
        spec = generator(n, args.seed)
        v = variability(spec.deltas, start=spec.start)
        rows.append([n, round(v, 2), round(v / n, 5), spec.final_value()])
    return format_table(["n", "v(n)", "v(n)/n", "f(n)"], rows)


def _cli_spec(args: argparse.Namespace) -> RunSpec:
    """The one :class:`~repro.api.RunSpec` of ``tracking``, ``throughput`` or ``latency``.

    Maps each subcommand's flags onto :class:`~repro.api.RunSpec` fields in
    one place: the source (``--trace``/``--mmap``, or ``--stream``,
    ``--length``, ``--sites``, ``--seed`` and throughput's blocked
    ``--block-length``), the tracker (``--algorithm``, ``--epsilon``), the
    topology (``--shards``, ``--levels``/``--fanout``), latency's
    asynchronous transport flags, ``--engine`` and ``--record-every``.
    The handlers then sweep whichever axis their table varies;
    ``throughput`` sweeps ``--sites``, so its base spec takes the first.
    """
    if getattr(args, "trace", None) is not None:
        source = SourceSpec(stream=None, trace=args.trace, mmap=args.mmap)
    elif args.command == "throughput":
        source = SourceSpec(
            stream="random_walk",
            length=args.length,
            seed=args.seed,
            sites=args.sites[0],
            assignment="blocked",
            assignment_params={"block_length": args.block_length},
        )
    else:
        source = SourceSpec(
            stream=args.stream, length=args.length, seed=args.seed, sites=args.sites
        )
    transport = TransportSpec()
    if args.command == "latency":
        transport = TransportSpec(
            mode="async",
            latency=args.model,
            preserve_order=not args.allow_reordering,
            seed=args.seed,
            loss=args.loss,
            loss_model=args.loss_model,
            loss_seed=args.loss_seed,
            repair=args.repair,
        )
    return RunSpec(
        source=source,
        tracker=TrackerSpec(
            name=getattr(args, "algorithm", "deterministic"),
            epsilon=args.epsilon,
            seed=args.seed,
        ),
        topology=TopologySpec(
            shards=args.shards,
            levels=getattr(args, "levels", None),
            fanout=getattr(args, "fanout", None),
        ),
        transport=transport,
        engine=_AUTO_ENGINE[args.command] if args.engine == "auto" else args.engine,
        record_every=getattr(args, "record_every", 1),
    )


def _run_points(
    specs: Sequence[RunSpec],
    labels: Sequence[str],
    workers: int,
    measure: Callable[[RunSpec], object] = RunSpec.run,
) -> list:
    """``measure`` every spec, serially or in the shared sweep pool, in order.

    A spec that fails in a pool worker is a usage error naming its label,
    with the worker's last traceback line instead of the traceback.
    """
    if workers == 1 or len(specs) <= 1:
        return [measure(spec) for spec in specs]
    values = []
    for label, (ok, value) in zip(labels, _map_in_pool(specs, workers, measure)):
        if not ok:
            raise ReproError(
                f"{label} failed in its worker process: "
                f"{value.strip().splitlines()[-1]}"
            )
        values.append(value)
    return values


def _command_tracking(args: argparse.Namespace) -> str:
    base = _cli_spec(args)
    if base.source.trace is not None:
        trace = base.source.load_columns()
        n, v = len(trace), variability(trace.deltas)
        header = (
            f"trace={args.trace} n={n} k={int(trace.sites.max()) + 1} "
            f"eps={args.epsilon} {_topology_label(args)} "
            f"engine=arrays{' (mmap)' if args.mmap else ''} v={v:.1f}"
        )
    else:
        stream = base.source.build_stream()
        n, v = args.length, variability(stream.deltas, start=stream.start)
        header = (
            f"stream={args.stream} n={n} k={args.sites} eps={args.epsilon} "
            f"{_topology_label(args)} "
            f"v={v:.1f} "
            f"(deterministic bound {deterministic_message_bound(args.sites, args.epsilon, v):.0f})"
        )
    base.record_every = max(1, n // 5_000)
    labels = dict(_TRACKING_TABLE)
    rows: List[List[object]] = []
    for point in Sweep(base, {"tracker.name": list(labels)}).run():
        summary = point.result.summary(args.epsilon)
        rows.append(
            [
                labels[point.spec.tracker.name],
                summary["total_messages"],
                round(summary["max_relative_error"], 4),
                round(summary["violation_fraction"], 4),
                round(summary["total_messages"] / max(v, 1.0), 2),
            ]
        )
    table = format_table(
        ["algorithm", "messages", "max rel err", "violation frac", "msgs / v"], rows
    )
    return header + "\n" + table


def _command_run(args: argparse.Namespace) -> str:
    """``repro run --config spec.json``: execute any saved scenario.

    One ``--config`` prints the single run's JSON object (overrides applied,
    spec echoed, result summarised with its provenance stamp).  Several
    ``--config`` files run as a batch — in the shared sweep pool when
    ``--workers`` exceeds 1, since each spec runs on its own fresh network —
    and print a JSON array in argument order.
    """
    if args.profile is not None and args.workers > 1:
        raise ConfigurationError(
            "--profile traces the interpreter it runs in; child processes "
            "would escape it — drop --workers to profile"
        )
    overrides = _parse_overrides(args.overrides)
    specs = []
    for config in args.configs:
        spec = RunSpec.load(config)
        if overrides:
            spec = spec.with_overrides(overrides)
        specs.append(spec.validate())
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            results = [spec.run() for spec in specs]
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            # A top-N cumulative summary on stderr alongside the dump file:
            # the hotspots are visible immediately, without a second
            # `python -m pstats` invocation, and stdout stays pure JSON.
            stats = pstats.Stats(profiler, stream=sys.stderr)
            print(
                f"-- profile: top 15 by cumulative time "
                f"(full dump: {args.profile}) --",
                file=sys.stderr,
            )
            stats.sort_stats("cumulative").print_stats(15)
    else:
        results = _run_points(
            specs, [f"--config {config}" for config in args.configs], args.workers
        )
    payloads = []
    for config, spec, result in zip(args.configs, specs, results):
        epsilon = spec.tracker.epsilon
        payloads.append(
            {
                "config": str(config),
                "overrides": overrides,
                "spec": spec.to_dict(),
                # The provenance stamp rides at the top level too, so it is
                # present (and greppable) whether the result below is the
                # summary or the full --records dump.
                "provenance": spec.provenance(),
                "result": (
                    result.to_dict(epsilon)
                    if args.records
                    else result.summary(epsilon)
                ),
            }
        )
    document = payloads[0] if len(payloads) == 1 else payloads
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.summary_out is not None:
        import pathlib

        pathlib.Path(args.summary_out).write_text(text + "\n", encoding="utf-8")
        runs = len(payloads)
        return (
            f"wrote {runs} run{'s' if runs != 1 else ''} "
            f"(spec hash{'es' if runs != 1 else ''} "
            f"{', '.join(p['provenance']['spec_hash'][:12] for p in payloads)}) "
            f"to {args.summary_out}"
        )
    return text


def _parse_overrides(items: Sequence[str]) -> dict:
    """Parse repeated ``--set FIELD=VALUE`` flags into an override mapping."""
    overrides = {}
    for item in items:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise ConfigurationError(
                f"--set expects FIELD=VALUE (dotted field path), got {item!r}"
            )
        try:
            overrides[path] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[path] = raw
    return overrides


def _command_serve(args: argparse.Namespace) -> str:
    """``repro serve --config spec.json``: run the live tracker service.

    Prints a banner with the resolved endpoints, then blocks until
    ``--duration`` elapses or SIGINT/SIGTERM arrives, and exits with a final
    status JSON on stdout.  The HTTP endpoint serves ``/metrics``
    (Prometheus text format), ``/status`` (JSON) and ``/healthz``; the TCP
    feed ingests one ``time site delta`` triple per line.
    """
    import signal

    from repro.observability import LiveTracker, LiveTrackerServer, TraceLog

    spec = RunSpec.load(args.config)
    overrides = _parse_overrides(args.overrides)
    if overrides:
        spec = spec.with_overrides(overrides)
    trace = TraceLog(args.trace_capacity) if args.trace_capacity > 0 else None
    tracker = LiveTracker(
        spec,
        trace=trace,
        error_threshold=args.error_threshold,
        alert_values=args.alert_values,
    )
    server = LiveTrackerServer(
        tracker,
        host=args.host,
        http_port=args.http_port,
        feed_port=args.feed_port,
    ).start()
    stop = threading.Event()

    def _stop(signum, frame):
        stop.set()

    # Signal handlers only install on the main thread; under a test driver
    # the Event simply waits out --duration instead.
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _stop)
        except ValueError:
            break
    print(
        f"repro serve: k={spec.source.sites} tracker={spec.tracker.name} "
        f"eps={spec.tracker.epsilon} spec={spec.spec_hash()[:12]}\n"
        f"  metrics  http://{args.host}:{server.http_port}/metrics\n"
        f"  status   http://{args.host}:{server.http_port}/status\n"
        f"  feed     {args.host}:{server.feed_port}  "
        "(one 'time site delta' per line)",
        flush=True,
    )
    try:
        stop.wait(timeout=args.duration)
    finally:
        server.shutdown()
    return json.dumps(server.status(), indent=2, sort_keys=True)


def _command_frequency(args: argparse.Namespace) -> str:
    config = ItemStreamConfig(
        length=args.length,
        universe_size=args.universe,
        num_sites=args.sites,
        seed=args.seed,
    )
    updates = zipfian_item_stream(config, deletion_probability=0.2)
    reducer = (
        HashReducer.from_epsilon(args.epsilon, num_rows=3, seed=args.seed)
        if args.sketched
        else None
    )
    tracker = FrequencyTracker(num_sites=args.sites, epsilon=args.epsilon, reducer=reducer)
    result = run_frequency_tracking(tracker, updates, audit_every=max(1, args.length // 50))
    rows = [
        [
            "count-min" if args.sketched else "exact",
            result.total_messages,
            round(result.max_error_ratio(), 4),
            result.violations(args.epsilon),
            round(result.f1_variability, 1),
        ]
    ]
    return format_table(
        ["variant", "messages", "max err / F1", "violations", "F1-variability"], rows
    )


def _command_throughput(args: argparse.Namespace) -> str:
    base = _cli_spec(args)
    if base.source.trace is not None:
        trace = base.source.load_columns()
        trace_sites = int(trace.sites.max()) + 1
        grid = {"tracker.name": _THROUGHPUT_TRACKERS}
        header = (
            f"trace={args.trace} n={len(trace)} eps={args.epsilon} "
            f"shards={args.shards} record_every={args.record_every} "
            f"engine=arrays{' (mmap)' if args.mmap else ''}"
        )
    else:
        trace_sites = None
        grid = {"source.sites": args.sites, "tracker.name": _THROUGHPUT_TRACKERS}
        header = (
            f"random_walk n={args.length} eps={args.epsilon} "
            f"block={args.block_length} shards={args.shards} "
            f"record_every={args.record_every}"
        )
    points = Sweep(base, grid).specs()
    # Wall-clock rates measured in sibling processes are comparable as
    # long as the pool is not oversubscribed; grid order is preserved.
    rates = _run_points(
        [spec for _, spec in points],
        [f"throughput point {overrides}" for overrides, _ in points],
        args.workers,
        measure_engine_throughput,
    )
    rows = [
        [
            spec.tracker.name,
            overrides.get("source.sites", trace_sites),
            round(slow_rate),
            round(fast_rate),
            round(speedup, 2),
        ]
        for (overrides, spec), (slow_rate, fast_rate, speedup) in zip(points, rates)
    ]
    return header + "\n" + format_table(
        ["algorithm", "k", "per-update up/s", f"{base.engine} up/s", "speedup"], rows
    )


def _command_trace(args: argparse.Namespace) -> str:
    from repro.streams import columns_from_updates, save_trace_csv, save_trace_npz

    if args.block_length < 0:
        raise ConfigurationError(
            f"--block-length must be >= 0 (0 = round-robin), got {args.block_length}"
        )
    source = SourceSpec(
        stream=args.stream,
        length=args.length,
        seed=args.seed,
        sites=args.sites,
        assignment="blocked" if args.block_length > 0 else "round_robin",
        assignment_params=(
            {"block_length": args.block_length} if args.block_length > 0 else {}
        ),
    )
    trace = columns_from_updates(source.build_updates())
    if str(args.out).endswith(".npz"):
        save_trace_npz(trace, args.out)
        layout = "npz (memory-mappable)"
    else:
        save_trace_csv(trace, args.out)
        layout = "csv"
    return (
        f"wrote {len(trace)} updates ({args.stream}, k={args.sites}, "
        f"seed={args.seed}) to {args.out} [{layout}]\n"
        f"replay with: python -m repro tracking --engine arrays --trace {args.out}"
    )


def _command_latency(args: argparse.Namespace) -> str:
    from repro.analysis.staleness import time_averaged_relative_error

    base = _cli_spec(args)
    points = Sweep(base, {"transport.scale": args.scales}).specs()
    results = _run_points(
        [spec for _, spec in points],
        [f"latency scale {overrides['transport.scale']}" for overrides, _ in points],
        args.workers,
    )
    rows = []
    for (overrides, _), result in zip(points, results):
        summary = result.summary(args.epsilon)
        row = [
            overrides["transport.scale"],
            summary["total_messages"],
            round(summary["max_relative_error"], 4),
            round(summary["violation_fraction"], 4),
            round(time_averaged_relative_error(result.records), 4),
            round(result.staleness.mean_age, 2),
            round(result.staleness.max_age, 2),
            result.staleness.inflight_highwater,
            result.staleness.reordered,
        ]
        if args.loss > 0.0:
            reliability = summary["reliability"]
            row.extend([reliability["dropped"], reliability["retransmitted"]])
        rows.append(row)
    header = (
        f"stream={args.stream} n={args.length} k={args.sites} eps={args.epsilon} "
        f"{_topology_label(args)} algo={args.algorithm} model={args.model} "
        f"engine={base.engine} "
        f"order={'reordering' if args.allow_reordering else 'fifo'} seed={args.seed}"
    )
    if args.loss > 0.0:
        header += (
            f" loss={args.loss}({args.loss_model}) loss_seed={args.loss_seed}"
            f" closes={'repaired' if args.repair else 'naive'}"
        )
    columns = [
        "scale",
        "messages",
        "max rel err",
        "violation frac",
        "time-avg err",
        "mean age",
        "max age",
        "in-flight hwm",
        "reordered",
    ]
    if args.loss > 0.0:
        columns.extend(["dropped", "retransmitted"])
    table = format_table(columns, rows)
    return header + "\n" + table


def _command_lowerbound(args: argparse.Namespace) -> str:
    family = DeterministicFlipFamily(n=args.n, level=args.level, num_flips=args.flips)
    reduction = IndexReduction(
        family,
        lambda ups: TranscriptTracer(DeterministicCounter(1, family.epsilon / 2)).build(ups),
        num_sites=1,
    )
    indices = family.sample_indices(args.samples, seed=args.seed)
    reports = reduction.run_many(indices)
    rows = [
        [
            report.encoded_index,
            report.decoded_index,
            "yes" if report.correct else "no",
            round(report.summary_bits, 0),
            round(report.information_bits, 1),
        ]
        for report in reports
    ]
    header = (
        f"family C({args.n}, {args.flips}) = {family.size():,} members, "
        f"member variability {family.member_variability():.3f}"
    )
    return header + "\n" + format_table(
        ["encoded", "decoded", "correct", "summary bits", "info bits"], rows
    )


_COMMANDS = {
    "variability": _command_variability,
    "tracking": _command_tracking,
    "throughput": _command_throughput,
    "latency": _command_latency,
    "trace": _command_trace,
    "run": _command_run,
    "serve": _command_serve,
    "frequency": _command_frequency,
    "lowerbound": _command_lowerbound,
}

#: Subcommands sharing the unified delivery-engine selector.
_ENGINE_COMMANDS = ("tracking", "throughput", "latency")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _ENGINE_COMMANDS:
        args.engine = _resolve_engine(parser, args)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
        output = _COMMANDS[args.command](args)
    except ReproError as exc:
        # Bad input (an invalid spec field, a stream of length 0, a tree
        # shape the sites cannot fill) is a usage error, not a crash.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
