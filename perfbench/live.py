"""The ``live-ingest`` workload: a ``repro serve`` process fed over TCP.

One client process drives the server with at most two connections at a
time: the main thread writes the feed (``time site delta`` lines, as fast
as TCP backpressure allows) and a scraper thread GETs ``/metrics`` on a
fixed schedule (open loop: a scrape is due every ``SCRAPE_INTERVAL``
seconds whatever the server does, and its latency is timed from when it
was due).  Once the feed is written the main thread polls ``/status``
until every line is ingested.

The feed length is fixed by the seed and the run length, never by how fast
the server is, so the cost and accuracy metrics are exact for a seed.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.api import RunSpec
from repro.observability import LiveTracker

from workloads import mean_reverting_walk

#: The served spec: ``examples/specs/live_service.json`` as of this benchmark.
LIVE_SPEC = {
    "engine": "auto",
    "record_every": 1,
    "source": {"live": True, "sites": 8, "stream": None, "seed": 0},
    "topology": {"shards": 2, "partition": "contiguous"},
    "tracker": {"name": "deterministic", "epsilon": 0.1},
    "transport": {"mode": "sync"},
}
SITE_TARGET = 128
SITE_PULL = 0.05
#: Feed lines per second of run length (the feed length is fixed up front).
LINES_PER_SECOND = 40_000
SCRAPE_INTERVAL = 0.05
#: Server starts per run; setup_s is their median.
SERVER_STARTS = 3
START_TIMEOUT = 60.0
INGEST_TIMEOUT = 120.0
POLL_INTERVAL = 0.005
#: Width of the windows the ingest rate is measured over.
RATE_WINDOW = 0.5
UPDATES_SERIES = re.compile(rb"^repro_updates_total (\S+)$", re.MULTILINE)


def feed_columns(seed: int, lines: int):
    """Round-robin sites, each fed its own mean-reverting +-1 walk.

    Every site's walk is pulled toward ``SITE_TARGET``, so each shard's
    value stays near its share of the total instead of wandering off as an
    unbiased difference of the shards would; cost per update then does not
    depend on the seed.  Returns ``(times, sites, deltas)`` as lists.
    """
    sites_count = LIVE_SPEC["source"]["sites"]
    per_site = -(-lines // sites_count)
    rng = np.random.default_rng(np.random.SeedSequence(seed).generate_state(1)[0])
    walks = np.stack(
        [
            mean_reverting_walk(rng, per_site, SITE_TARGET, SITE_PULL)
            for _ in range(sites_count)
        ],
        axis=1,
    )
    deltas = walks.reshape(-1)[:lines]
    times = np.arange(1, lines + 1)
    sites = (times - 1) % sites_count
    return times.tolist(), sites.tolist(), deltas.tolist()


def encode_feed(times, sites, deltas) -> bytes:
    return "".join(
        f"{t} {s} {d}\n" for t, s, d in zip(times, sites, deltas)
    ).encode("ascii")


def reference(spec: RunSpec, times, sites, deltas) -> dict:
    """An in-process LiveTracker fed the same lines: the expected outputs."""
    tracker = LiveTracker(spec)
    true_value = 0
    error_sum = 0.0
    error_count = 0
    for t, s, d in zip(times, sites, deltas):
        estimate = tracker.push(t, s, d)
        true_value += d
        if true_value:
            error_sum += abs(estimate - true_value) / abs(true_value)
            error_count += 1
    status = tracker.status()
    status["mean_rel_err"] = error_sum / error_count if error_count else 0.0
    return status


class Server:
    """One ``repro serve`` child process on ephemeral ports."""

    def __init__(self, command: List[str], env: dict, cwd: Path) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=str(cwd),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.http_port: Optional[int] = None
        self.feed_port: Optional[int] = None
        try:
            self._read_banner()
            self.setup_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_banner(self) -> None:
        """Parse the resolved ports from the banner ``repro serve`` prints."""
        deadline = time.perf_counter() + START_TIMEOUT
        descriptor = self.process.stdout.fileno()
        banner = b""
        while self.http_port is None or self.feed_port is None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("repro serve printed no endpoints in time")
            ready, _, _ = select.select([descriptor], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(descriptor, 65536)
            if not chunk:
                raise RuntimeError(
                    "repro serve exited early: "
                    + self.process.stderr.read().decode(errors="replace")[-2000:]
                )
            banner += chunk
            text = banner.decode(errors="replace")
            match = re.search(r"metrics\s+http://[^:]+:(\d+)/", text)
            if match:
                self.http_port = int(match.group(1))
            match = re.search(r"feed\s+[^:\s]+:(\d+)", text)
            if match:
                self.feed_port = int(match.group(1))

    def _wait_healthy(self) -> float:
        deadline = self.started + START_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                if http_get(self.http_port, "/healthz")[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(POLL_INTERVAL)
        raise RuntimeError("repro serve did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def http_get(port: int, path: str, timeout: float = 30.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Scraper(threading.Thread):
    """Open-loop ``/metrics`` scrapes every ``SCRAPE_INTERVAL`` seconds.

    Besides each scrape's latency it keeps ``(time, repro_updates_total)``
    samples, from which :func:`window_rates` derives the ingest rate.
    """

    def __init__(self, port: int) -> None:
        super().__init__(name="perfbench-scraper", daemon=True)
        self.port = port
        self.stop_event = threading.Event()
        self.latencies_ms: List[float] = []
        self.samples: List[tuple] = []
        self.max_lateness_s = 0.0
        self.failed = 0

    def run(self) -> None:
        due = time.perf_counter()
        while not self.stop_event.is_set():
            now = time.perf_counter()
            if now < due:
                if self.stop_event.wait(due - now):
                    break
            self.max_lateness_s = max(self.max_lateness_s, time.perf_counter() - due)
            try:
                status, body = http_get(self.port, "/metrics")
                match = UPDATES_SERIES.search(body)
                if status != 200 or match is None:
                    self.failed += 1
                else:
                    self.samples.append((time.perf_counter(), float(match.group(1))))
            except OSError:
                self.failed += 1
            self.latencies_ms.append((time.perf_counter() - due) * 1000.0)
            due += SCRAPE_INTERVAL


def window_rates(samples, start: float) -> List[float]:
    """Ingest rates over consecutive ``RATE_WINDOW``-second windows.

    Windows run from the first feed write; a window closes at the first
    scrape sample at least ``RATE_WINDOW`` after it opened, so the last,
    partial window is dropped.
    """
    rates = []
    opened_at, opened_count = start, 0.0
    for at, count in samples:
        if at - opened_at >= RATE_WINDOW:
            rates.append((count - opened_count) / (at - opened_at))
            opened_at, opened_count = at, count
    return rates


def session(server: Server, feed: bytes, lines: int) -> dict:
    """Feed every line, scraping meanwhile; return timings and final status."""
    scraper = Scraper(server.http_port)
    scraper.start()
    try:
        start = time.perf_counter()
        with socket.create_connection(("127.0.0.1", server.feed_port)) as sock:
            sock.sendall(feed)
            sock.shutdown(socket.SHUT_WR)
        deadline = time.perf_counter() + INGEST_TIMEOUT
        while True:
            if time.perf_counter() > deadline:
                raise RuntimeError("the server did not ingest every feed line in time")
            _, body = http_get(server.http_port, "/status")
            status = json.loads(body)
            if status["updates"] + status["feed"]["errors"] >= lines:
                break
            time.sleep(POLL_INTERVAL)
        ingest_s = time.perf_counter() - start
    finally:
        scraper.stop_event.set()
        scraper.join(timeout=30)
    return {
        "ingest_s": ingest_s,
        "window_rates": window_rates(scraper.samples, start),
        "status": status,
        "scrape_ms": scraper.latencies_ms,
        "scrapes_failed": scraper.failed,
        "scraper_max_lateness_s": scraper.max_lateness_s,
        "peak_rss_mb": server.peak_rss_mb(),
    }


def run_live(
    root: Path, workdir: Path, env: dict, seed: int, seconds: float, trace: bool
) -> dict:
    """Run the live-ingest workload; return raw measurements and checks.

    ``env`` is the servers' environment (``src`` on ``PYTHONPATH``).
    """
    spec_path = workdir / "live_service.json"
    spec_path.write_text(json.dumps(LIVE_SPEC, indent=2) + "\n", encoding="utf-8")
    spec = RunSpec.load(spec_path)
    lines = int(LINES_PER_SECOND * seconds / (2 if trace else 1))
    times, sites, deltas = feed_columns(seed, lines)
    feed = encode_feed(times, sites, deltas)

    serve_args = [
        "serve", "--config", str(spec_path), "--http-port", "0", "--feed-port", "0",
    ]
    plain = [sys.executable, "-m", "repro", *serve_args]
    ledger_path = workdir / "serve-ledger.json"
    traced = [
        sys.executable, str(Path(__file__).with_name("serve_traced.py")),
        str(ledger_path), *serve_args,
    ]

    setups = []
    sessions = {}
    for start in range(SERVER_STARTS):
        server = Server(plain, env, root)
        try:
            setups.append(server.setup_s)
            if start == SERVER_STARTS - 1:
                sessions["untraced"] = session(server, feed, lines)
        finally:
            server.stop()
    out = {"lines": lines, "setups": setups, "sessions": sessions}
    if trace:
        server = Server(traced, env, root)
        try:
            sessions["traced"] = session(server, feed, lines)
        finally:
            server.stop()
        out["ledger"] = json.loads(ledger_path.read_text(encoding="utf-8"))
    out["reference"] = reference(spec, times, sites, deltas)
    return out
