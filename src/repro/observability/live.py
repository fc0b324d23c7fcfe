"""The long-lived tracker service: live ingestion, alerts, HTTP exposition.

Everything else in the repo is batch-replay; this module is the deployment
the protocol was designed for — continuous monitoring of live channels.

* :class:`LiveTracker` wraps any synchronous RunSpec topology (flat,
  sharded, L-level tree) behind a thread-safe **push API**
  (:meth:`LiveTracker.push` delivers one update and refreshes estimate,
  violation and alert state) and wires the full instrumentation layer, so
  a Prometheus scrape sees the same accounting ``result.summary()``
  reports.
* :class:`LiveTrackerServer` stands the tracker up as a service: a
  line-protocol TCP **feed** (``time site delta`` per line) and an
  ``http.server`` endpoint serving ``/metrics`` (Prometheus text format),
  ``/status`` (JSON) and ``/healthz``, each in a daemon thread.

The feed is ingested a **block** at a time.  A block is one ``read1`` of
up to :data:`FEED_READ_BYTES`, cut at its last newline; the partial line
after it is carried into the next block, and a line longer than
:data:`FEED_LINE_BYTES` counts as one error and is dropped up to its
newline.  The block is parsed outside the tracker lock
(:func:`parse_feed_block`, which gives exactly the rows and errors
:func:`parse_feed_line` gives line by line) and its rows are pushed under
one hold of the lock (:meth:`LiveTracker.push_rows`), so a ``/metrics`` or
``/status`` request sees the service between blocks, never inside one.
Between blocks, outside the lock, the feed thread yields the interpreter:
when it kept the interpreter from one block to the next, a waiting scrape
mostly lost the tracker lock to the next block and waited out several.

``repro serve --config spec.json`` drives both (see ``repro.cli``).  The
spec's ``source.live`` variant declares a feed-fed deployment; a generator
spec may also be served (its ``sites`` count sizes the network — useful for
smoke tests), but trace and asynchronous specs are refused: the service
clock is wall time, not the virtual clock.
"""

from __future__ import annotations

import json
import socketserver
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import sleep
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.metrics import shard_imbalance
from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.monitoring.sharding import ShardedNetwork
from repro.observability.instrument import NetworkInstrumentation
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracelog import TraceLog

__all__ = ["LiveTracker", "LiveTrackerServer", "parse_feed_block", "parse_feed_line"]

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Bytes the feed handler asks for per block (one ``read1``).  At ~11 bytes
#: per line that is up to ~370 updates per hold of the tracker lock.
FEED_READ_BYTES = 4096
#: Longest feed line kept, newline excluded; a valid line is ~60 bytes at
#: most.  Bounds what a feed without newlines can make the handler buffer.
FEED_LINE_BYTES = 64 * 1024


def parse_feed_line(line: str) -> Optional[tuple]:
    """Parse one feed line into ``(time, site, delta)``, or ``None`` to skip.

    The line protocol is deliberately minimal: three integer fields
    ``time site delta``, separated by whitespace or commas.  Blank lines
    and ``#`` comments are skipped.  Malformed lines raise ``ValueError``
    (the feed handler counts them and keeps reading).
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(
            f"feed lines carry exactly 'time site delta', got {line!r}"
        )
    return int(parts[0]), int(parts[1]), int(parts[2])


def parse_feed_block(block: bytes) -> Tuple[List[tuple], int]:
    """Parse raw feed lines into ``(rows, errors)``.

    ``rows`` and the malformed-line count ``errors`` are what
    :func:`parse_feed_line` gives on each ``\\n``-terminated line (and a
    last unterminated one) decoded as UTF-8 with replacement; the block is
    decoded and split once instead of line by line.
    """
    rows = []
    errors = 0
    # \n is ASCII, so decoding the block decodes each line as a line alone.
    for line in block.decode("utf-8", "replace").split("\n"):
        try:
            row = parse_feed_line(line)
        except ValueError:
            errors += 1
            continue
        if row is not None:
            rows.append(row)
    return rows, errors


def _feed_blocks(read1: Callable[[int], bytes]) -> Iterator[Tuple[bytes, int]]:
    """Cut a byte stream into blocks of whole lines: ``(block, overlong)``.

    Each ``read1(FEED_READ_BYTES)`` is cut at its last newline, and the
    partial line after it starts the next block; the stream's unterminated
    last line is the last block.  A line longer than :data:`FEED_LINE_BYTES`
    is never carried whole: it is dropped up to its newline and counted in
    the ``overlong`` of the next block yielded.
    """
    carry = bytearray()  # the partial line after the last newline read
    dropping = False  # inside an over-long line, up to its newline
    overlong = 0
    while True:
        chunk = read1(FEED_READ_BYTES)
        if not chunk:
            break
        if dropping:
            head = chunk.find(b"\n")
            if head < 0:
                continue
            chunk = chunk[head + 1:]
            dropping = False
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry += chunk
            if len(carry) > FEED_LINE_BYTES:
                overlong += 1
                carry.clear()
                dropping = True
            continue
        head = chunk.find(b"\n")
        if len(carry) + head > FEED_LINE_BYTES:  # the carried line ends too long
            overlong += 1
            block = chunk[head + 1:cut]
        else:
            block = bytes(carry) + chunk[:cut]
        carry[:] = chunk[cut:]
        yield block, overlong
        overlong = 0
    if carry or overlong:
        yield bytes(carry), overlong


class LiveTracker:
    """A continuously fed monitoring network with live metrics and alerts.

    Args:
        spec: A validated :class:`~repro.api.RunSpec` with a synchronous
            transport and either a ``source.live`` or a generator source
            (whose ``sites`` count sizes the network).
        registry: Metrics registry to populate; a fresh one by default.
        trace: Optional ring-buffered :class:`TraceLog` for protocol events.
        error_threshold: Relative error above which a push counts as a
            violation and raises the error alert; defaults to the spec's
            ``tracker.epsilon``.
        alert_values: Estimate thresholds; crossing one upward records an
            alert (a classic "notify me when the count passes N" monitor).
        alerts_capacity: Ring size of the retained alert list.
    """

    def __init__(
        self,
        spec,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
        error_threshold: Optional[float] = None,
        alert_values: Sequence[float] = (),
        alerts_capacity: int = 64,
    ) -> None:
        spec.validate()
        if spec.transport.mode != "sync":
            raise ConfigurationError(
                "the live service delivers pushed updates synchronously as "
                "they arrive; transport.mode must be 'sync'"
            )
        if spec.source.trace is not None:
            raise ConfigurationError(
                "a trace source is a batch replay; serve a source.live spec "
                "(or a generator spec, whose sites count sizes the network)"
            )
        self.spec = spec
        self.network = spec.build_network(spec.source.sites)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.instrumentation = NetworkInstrumentation(
            registry=self.registry, trace=trace
        ).attach(self.network)
        if error_threshold is None:
            error_threshold = float(spec.tracker.epsilon)
        if error_threshold <= 0.0:
            raise ConfigurationError(
                f"error_threshold must be > 0, got {error_threshold}"
            )
        self.error_threshold = error_threshold
        self.alert_values = tuple(float(v) for v in alert_values)
        # One lock serializes pushes and scrapes: the registry and the
        # network are not thread-safe, and the feed server is threaded.
        self._lock = threading.RLock()
        self.updates = 0
        self.true_value = 0
        self.last_time = 0
        self.violations = 0
        self.alerts_total = 0
        self._error_alert_active = False
        self._values_crossed = [False] * len(self.alert_values)
        self.alerts: deque = deque(maxlen=alerts_capacity)
        reg = self.registry
        provenance = spec.provenance()
        reg.gauge(
            "repro_info",
            "Constant 1; labels carry the library version and spec hash.",
            labels=("repro_version", "spec_hash"),
        ).labels(
            repro_version=provenance["repro_version"],
            spec_hash=provenance["spec_hash"],
        ).set(1)
        self._updates_total = reg.counter(
            "repro_updates_total", "Stream updates ingested by the service."
        )
        self._violations_total = reg.counter(
            "repro_violations_total",
            "Pushes whose relative error exceeded the error threshold.",
        )
        self._alerts_total = reg.counter(
            "repro_alerts_total", "Alerts raised (error and value-threshold)."
        )
        reg.add_collector(self._collect)

    # -- ingestion -----------------------------------------------------------

    def push(self, time: int, site: int, delta: int) -> float:
        """Ingest one update; returns the estimate after delivery.

        Thread-safe; the in-process API.  The socket feed pushes a block's
        rows at once through :meth:`push_rows`, which runs the same
        per-update body.
        """
        time, site, delta = int(time), int(site), int(delta)
        with self._lock:
            estimate = self._ingest(time, site, delta)
            self._updates_total.inc()
            return estimate

    def push_rows(self, rows: Sequence[Tuple[int, int, int]]) -> Tuple[int, int]:
        """Ingest ``(time, site, delta)`` rows under one hold of the lock.

        Rows are Python ``int`` triples, as :func:`parse_feed_block` gives
        them.  Each goes through the per-update body of :meth:`push`; a row
        whose delivery raises a :class:`ReproError` (a site out of range, a
        non-unit delta), where :meth:`push` would raise it, is counted and
        skipped, and the rows after it are still ingested.
        ``repro_updates_total`` moves once, by the rows ingested.

        Returns:
            ``(ingested, rejected)`` row counts.
        """
        rejected = 0
        with self._lock:
            ingest = self._ingest
            for time, site, delta in rows:
                try:
                    ingest(time, site, delta)
                except ReproError:
                    rejected += 1
            ingested = len(rows) - rejected
            self._updates_total.inc(ingested)
        return ingested, rejected

    def _ingest(self, time: int, site: int, delta: int) -> float:
        """Deliver one update; refresh the counters, estimate and alerts.

        The per-update body of :meth:`push` and :meth:`push_rows`; the
        caller holds the lock and moves ``repro_updates_total``.  A
        :class:`ReproError` from delivery leaves the service's counters as
        they were.
        """
        self.network.deliver_update(time, site, delta)
        self.updates += 1
        self.true_value += delta
        self.last_time = max(self.last_time, time)
        estimate = self.network.estimate()
        self._check_alerts(time, estimate)
        return estimate

    def _relative_error(self, estimate: float) -> float:
        error = abs(estimate - self.true_value)
        if self.true_value == 0:
            # Same convention as TrackingResult.max_relative_error: at zero
            # crossings the absolute error stands in for the relative one.
            return float(error)
        return float(error / abs(self.true_value))

    def _check_alerts(self, time: int, estimate: float) -> None:
        relative_error = self._relative_error(estimate)
        violating = relative_error > self.error_threshold
        if violating:
            self.violations += 1
            self._violations_total.inc()
        if violating and not self._error_alert_active:
            self._error_alert_active = True
            self._record_alert(
                {
                    "type": "error",
                    "time": time,
                    "estimate": float(estimate),
                    "true_value": float(self.true_value),
                    "relative_error": relative_error,
                    "threshold": self.error_threshold,
                }
            )
        elif not violating:
            self._error_alert_active = False
        for index, threshold in enumerate(self.alert_values):
            crossed = estimate >= threshold
            if crossed and not self._values_crossed[index]:
                self._record_alert(
                    {
                        "type": "value",
                        "time": time,
                        "estimate": float(estimate),
                        "threshold": threshold,
                    }
                )
            self._values_crossed[index] = crossed

    def _record_alert(self, alert: Dict[str, object]) -> None:
        self.alerts_total += 1
        self._alerts_total.inc()
        self.alerts.append(alert)
        if self.trace is not None:
            self.trace.emit("alert", time=float(alert["time"]), **{
                key: value for key, value in alert.items() if key != "time"
            })

    # -- exposition ----------------------------------------------------------

    def estimate(self) -> float:
        """The network's current estimate (thread-safe)."""
        with self._lock:
            return self.network.estimate()

    def _collect(self) -> None:
        """Registry collector: refresh the service-level derived gauges."""
        reg = self.registry
        estimate = self.network.estimate()
        reg.gauge(
            "repro_estimate", "Current estimate served by the tracker."
        ).set(estimate)
        reg.gauge(
            "repro_true_value", "Exact running value of the ingested stream."
        ).set(self.true_value)
        reg.gauge(
            "repro_relative_error",
            "Current relative error of the estimate "
            "(absolute error at zero crossings).",
        ).set(self._relative_error(estimate))
        reg.gauge(
            "repro_violation_fraction",
            "Fraction of ingested updates whose error exceeded the "
            "threshold.",
        ).set(self.violations / self.updates if self.updates else 0.0)
        reg.gauge(
            "repro_alert_active",
            "1 while the estimate is outside the error threshold.",
        ).set(1.0 if self._error_alert_active else 0.0)
        rates = self.network.stats.rate(self.last_time)
        reg.gauge(
            "repro_message_rate",
            "Charged messages per stream-time unit.",
        ).set(rates["messages_per_unit"])
        reg.gauge(
            "repro_bit_rate", "Charged bits per stream-time unit."
        ).set(rates["bits_per_unit"])

    def scrape(self) -> str:
        """The registry in Prometheus text format (collectors refreshed)."""
        with self._lock:
            return self.registry.render()

    def status(self) -> dict:
        """A JSON-compatible snapshot mirroring ``result.summary()``.

        The same numbers a batch run reports — totals, by-kind counters,
        rates, per-level accounting, shard imbalance — plus the live-only
        state (violations, alerts, provenance).
        """
        with self._lock:
            estimate = self.network.estimate()
            stats = self.network.stats
            data = {
                "updates": self.updates,
                "last_time": self.last_time,
                "estimate": float(estimate),
                "true_value": float(self.true_value),
                "relative_error": self._relative_error(estimate),
                "error_threshold": self.error_threshold,
                "violations": self.violations,
                "violation_fraction": (
                    self.violations / self.updates if self.updates else 0.0
                ),
                "total_messages": stats.messages,
                "total_bits": stats.bits,
                "messages_by_kind": dict(stats.by_kind),
                "rates": stats.rate(self.last_time),
                "alerts_total": self.alerts_total,
                "alerts": list(self.alerts),
                "provenance": self.spec.provenance(),
            }
            if isinstance(self.network, ShardedNetwork):
                data["levels"] = self.network.level_summary()
                data["shard_imbalance"] = shard_imbalance(
                    self.network.shard_stats()
                )
            return data


class _FeedHandler(socketserver.StreamRequestHandler):
    """One feed connection, ingested a block of whole lines at a time.

    Each block (one ``read1``, cut at its last newline; see
    :func:`_feed_blocks`) is parsed, and its rows are pushed and counted
    under one hold of the tracker lock, so scrapes see block boundaries.
    Malformed lines, over-long lines and rows the network rejects (a site
    out of range, a non-unit delta) are counted as errors and the
    connection keeps reading.  After each block the handler yields the
    interpreter with the tracker lock free: a scrape waiting for the lock
    gets it then, instead of mostly losing it to the next block.
    """

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: "_FeedServer" = self.server  # type: ignore[assignment]
        for block, overlong in _feed_blocks(self.rfile.read1):
            server.ingest(block, overlong)
            sleep(0)


class _FeedServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, tracker: LiveTracker) -> None:
        super().__init__(address, _FeedHandler)
        self.tracker = tracker
        #: Successfully ingested feed lines / rejected ones; both move under
        #: the tracker lock, with the updates they count.
        self.lines = 0
        self.errors = 0

    def ingest(self, block: bytes, overlong: int) -> None:
        """Parse ``block``; push and count its rows under one lock hold.

        ``overlong`` counts the lines the framing already dropped.
        """
        rows, malformed = parse_feed_block(block)
        with self.tracker._lock:
            ingested, rejected = self.tracker.push_rows(rows)
            self.lines += ingested
            self.errors += overlong + malformed + rejected


class LiveTrackerServer:
    """HTTP exposition + TCP feed around one :class:`LiveTracker`.

    Binds both listeners at construction (``port=0`` picks ephemeral
    ports; read the resolved ones from :attr:`http_port` / :attr:`feed_port`),
    serves from daemon threads after :meth:`start`, and tears both down in
    :meth:`shutdown`.
    """

    def __init__(
        self,
        tracker: LiveTracker,
        host: str = "127.0.0.1",
        http_port: int = 8077,
        feed_port: int = 8078,
    ) -> None:
        self.tracker = tracker
        self.host = host
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence per-request noise
                pass

            def _respond(self, code: int, content_type: str, body: bytes):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = server.tracker.scrape().encode("utf-8")
                    self._respond(200, METRICS_CONTENT_TYPE, body)
                elif path == "/status":
                    body = json.dumps(server.status(), indent=2).encode("utf-8")
                    self._respond(200, "application/json", body)
                elif path == "/healthz":
                    self._respond(200, "text/plain; charset=utf-8", b"ok\n")
                else:
                    self._respond(
                        404,
                        "text/plain; charset=utf-8",
                        b"unknown path; try /metrics, /status or /healthz\n",
                    )

        self._http = ThreadingHTTPServer((host, http_port), _Handler)
        self._http.daemon_threads = True
        self._feed = _FeedServer((host, feed_port), tracker)
        self.http_port = self._http.server_address[1]
        self.feed_port = self._feed.server_address[1]
        self._threads: List[threading.Thread] = []
        self._started = False

    @property
    def feed_lines(self) -> int:
        """Feed lines successfully ingested so far."""
        return self._feed.lines

    @property
    def feed_errors(self) -> int:
        """Feed lines rejected as malformed or out of range."""
        return self._feed.errors

    def status(self) -> dict:
        """The tracker's status extended with the service's own state.

        Read under one hold of the tracker lock, so the feed counters count
        exactly the updates the status shows.
        """
        with self.tracker._lock:
            data = self.tracker.status()
            data["feed"] = {"lines": self._feed.lines, "errors": self._feed.errors}
        data["endpoints"] = {
            "metrics": f"http://{self.host}:{self.http_port}/metrics",
            "status": f"http://{self.host}:{self.http_port}/status",
            "feed": f"{self.host}:{self.feed_port}",
        }
        return data

    def start(self) -> "LiveTrackerServer":
        """Serve both listeners from daemon threads; returns self."""
        if self._started:
            raise ProtocolError("the server is already running")
        self._started = True
        for name, srv in (("http", self._http), ("feed", self._feed)):
            thread = threading.Thread(
                target=srv.serve_forever,
                name=f"repro-serve-{name}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self) -> None:
        """Stop serving and release both sockets (idempotent)."""
        for srv in (self._http, self._feed):
            # BaseServer.shutdown() waits for a serve_forever loop to
            # acknowledge; calling it on a never-started server blocks
            # forever, so skip straight to closing the socket then.
            if self._started:
                try:
                    srv.shutdown()
                except Exception:
                    pass
            srv.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        self._started = False
