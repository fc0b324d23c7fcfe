"""The live tracker service: push API, alerts, HTTP exposition, socket feed.

The service's headline contract is *same protocol, different clock*: a
:class:`LiveTracker` fed update-by-update over the push API must land on
exactly the estimate, message count and bit count the offline per-update
engine reports for the identical stream, and its ``/metrics`` scrape must
carry those numbers in Prometheus text format.  Around that: the live spec
axis (``source.live``) refuses batch entry points, alerts fire on error
and value-threshold crossings, the feed's line protocol tolerates garbage,
and the whole server stands up on ephemeral ports and tears down cleanly —
including driven end-to-end through ``repro serve`` in-process.
"""

import io
import json
import random
import socket
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec
from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.observability import LiveTracker, LiveTrackerServer, TraceLog
from repro.observability.live import (
    FEED_LINE_BYTES,
    FEED_READ_BYTES,
    METRICS_CONTENT_TYPE,
    _feed_blocks,
    parse_feed_block,
    parse_feed_line,
)

SITES = 6
LENGTH = 800


def _spec(**overrides):
    data = {
        "source": {"stream": "random_walk", "length": LENGTH, "sites": SITES,
                   "seed": 11},
        "tracker": {"name": "deterministic", "epsilon": 0.1},
    }
    data.update(overrides)
    return RunSpec.from_dict(data)


def _live_spec(**source_overrides):
    source = {"live": True, "sites": SITES, "seed": 11}
    source.update(source_overrides)
    return RunSpec.from_dict(
        {"source": source, "tracker": {"name": "deterministic", "epsilon": 0.1}}
    )


def _stream_updates(spec):
    """The spec's generator workload as (time, site, delta) triples."""
    built = spec.build()
    return [(u.time, u.site, u.delta) for u in built.updates]


class TestFeedLineProtocol:
    def test_parses_whitespace_and_commas(self):
        assert parse_feed_line("3 1 -1") == (3, 1, -1)
        assert parse_feed_line(" 7,2,1 ") == (7, 2, 1)

    def test_skips_blanks_and_comments(self):
        assert parse_feed_line("") is None
        assert parse_feed_line("   ") is None
        assert parse_feed_line("# header") is None

    @pytest.mark.parametrize("line", ["1 2", "1 2 3 4", "a b c", "1.5 0 1"])
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(ValueError):
            parse_feed_line(line)


def _parse_line_by_line(block):
    """What ``parse_feed_line`` gives on each raw line: ``(rows, errors)``."""
    rows, errors = [], 0
    for raw in io.BytesIO(block):
        try:
            row = parse_feed_line(raw.decode("utf-8", "replace"))
        except ValueError:
            errors += 1
            continue
        if row is not None:
            rows.append(row)
    return rows, errors


#: Integers up to well beyond 64 bits, with the small ones drawn often.
_INTS = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
_STRICT_LINES = st.tuples(_INTS, _INTS, _INTS).map(
    lambda row: "{} {} {}".format(*row).encode()
)
#: Non-negative integers in one of four non-ASCII digit sets (Arabic-Indic,
#: extended Arabic-Indic, Devanagari, fullwidth), which ``int()`` accepts.
_UNICODE_INTS = st.tuples(
    st.sampled_from("\u0660\u06f0\u0966\uff10"), st.integers(0, 2**70)
).map(lambda pair: "".join(chr(ord(pair[0]) + int(c)) for c in str(pair[1])))
_FEED_LINES = st.one_of(
    _STRICT_LINES,
    _STRICT_LINES.map(lambda line: b"0" + line),  # leading zero
    st.tuples(_INTS, _INTS, _INTS).map(
        lambda row: "{},{}, {}".format(*row).encode()
    ),
    st.tuples(_INTS, _INTS, _INTS).map(
        lambda row: "\t{}\t{} \t{}".format(*row).encode()
    ),
    st.tuples(_INTS, _INTS, _INTS).map(
        lambda row: "+{} {} {:+d}\r".format(*row).encode()
    ),
    st.tuples(_UNICODE_INTS, _INTS, _INTS).map(
        lambda row: "{} {} {}".format(*row).encode()
    ),
    st.text(max_size=12).map(lambda text: ("#" + text).encode()),
    st.sampled_from([b"", b" ", b"\t", b"\r", b"  \t ", b"1 2", b"1 2 3 4",
                     b"1.5 0 1", b"- 1 1", b"1 -- 1", b"1 2-3 4", b"a b c"]),
    st.binary(max_size=16),
)


class TestFeedBlockParser:
    """``parse_feed_block`` gives what ``parse_feed_line`` gives per line."""

    @given(lines=st.lists(_FEED_LINES, max_size=40), terminated=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_block_equals_line_by_line(self, lines, terminated):
        block = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
        assert parse_feed_block(block) == _parse_line_by_line(block)


def _reader(data, pieces):
    """A ``read1`` over ``data`` that returns at most ``pieces[i]`` bytes."""
    stream = io.BytesIO(data)
    sizes = iter(pieces)

    def read1(size):
        return stream.read(min(size, next(sizes, size)))

    return read1


class TestFeedFraming:
    """``_feed_blocks`` cuts reads into whole lines and bounds a line."""

    @given(
        lines=st.lists(_FEED_LINES, max_size=60),
        pieces=st.lists(st.integers(1, 2 * FEED_READ_BYTES), max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_are_whole_lines_of_the_stream(self, lines, pieces):
        data = b"\n".join(lines)
        blocks = list(_feed_blocks(_reader(data, pieces)))
        assert b"".join(block for block, _ in blocks) == data
        assert all(block.endswith(b"\n") for block, _ in blocks[:-1])
        assert sum(overlong for _, overlong in blocks) == 0

    @pytest.mark.parametrize("piece", [1, 1000, FEED_READ_BYTES])
    def test_a_line_longer_than_the_cap_is_one_error(self, piece):
        longest = b"7" * (FEED_LINE_BYTES - 4) + b" 0 1\n"  # kept: at the cap
        data = b"x" * (FEED_LINE_BYTES + 1) + b"\n1 0 1\n" + longest + b"2 0 1"
        blocks = list(_feed_blocks(_reader(data, [piece] * len(data))))
        assert b"".join(block for block, _ in blocks) == b"1 0 1\n" + longest + b"2 0 1"
        assert sum(overlong for _, overlong in blocks) == 1


class TestLiveSpecAxis:
    def test_live_source_round_trips(self):
        spec = _live_spec()
        spec.validate()
        again = RunSpec.from_dict(spec.to_dict())
        assert again.source.live is True
        assert again.to_dict() == spec.to_dict()

    def test_live_spec_refuses_batch_run(self):
        with pytest.raises(ProtocolError, match="repro serve"):
            _live_spec().build()

    def test_live_excludes_trace_and_needs_sites(self):
        with pytest.raises(ProtocolError):
            RunSpec.from_dict(
                {
                    "source": {"live": True, "sites": 4,
                               "trace": "updates.csv"},
                    "tracker": {"name": "deterministic", "epsilon": 0.1},
                }
            ).validate()
        with pytest.raises(ValueError):
            _live_spec(sites=0).validate()

    def test_live_requires_sync_transport(self):
        spec = _live_spec()
        spec.transport.mode = "async"
        spec.transport.latency = "constant"
        spec.transport.scale = 1.0
        with pytest.raises(ProtocolError):
            spec.validate()

    def test_build_network_matches_topology(self):
        spec = _live_spec(sites=8)
        spec.topology.shards = 2
        network = spec.build_network()
        assert network.num_shards == 2
        assert network.estimate() == 0.0


class TestLiveTrackerPushApi:
    def test_push_replay_matches_offline_run_exactly(self):
        spec = _spec()
        offline = spec.build().run()
        tracker = LiveTracker(_spec())
        last = 0.0
        for time, site, delta in _stream_updates(spec):
            last = tracker.push(time, site, delta)
        assert last == offline.records[-1].estimate
        assert tracker.updates == LENGTH
        status = tracker.status()
        assert status["total_messages"] == offline.total_messages
        assert status["total_bits"] == offline.total_bits
        assert status["messages_by_kind"] == offline.messages_by_kind
        assert status["rates"] == offline.summary()["rates"]

    def test_scrape_carries_service_series(self):
        spec = _spec()
        tracker = LiveTracker(_spec())
        for time, site, delta in _stream_updates(spec)[:200]:
            tracker.push(time, site, delta)
        text = tracker.scrape()
        assert "repro_updates_total 200\n" in text
        assert "repro_estimate " in text
        assert "repro_true_value " in text
        assert "repro_messages_total{" in text
        assert 'repro_info{repro_version="' in text
        assert "repro_message_rate " in text

    def test_value_alerts_fire_once_per_upward_crossing(self):
        tracker = LiveTracker(_spec(), alert_values=(3.0,))
        for t in range(1, 5):
            tracker.push(t, 0, +1)  # estimate tracks the count upward
        crossings = [a for a in tracker.alerts if a["type"] == "value"]
        assert len(crossings) == 1
        assert crossings[0]["threshold"] == 3.0
        assert tracker.alerts_total == len(tracker.alerts)

    def test_push_rows_skips_only_rejected_rows(self):
        rows = [(1, 0, 1), (2, 99, 1), (3, 1, 1), (4, 2, 2), (5, 2, -1)]
        tracker = LiveTracker(_spec(), trace=TraceLog(), alert_values=(1.0,))
        assert tracker.push_rows(rows) == (3, 2)
        reference = LiveTracker(_spec(), trace=TraceLog(), alert_values=(1.0,))
        for row in (rows[0], rows[2], rows[4]):
            reference.push(*row)
        assert tracker.status() == reference.status()
        assert tracker.trace.to_dicts() == reference.trace.to_dicts()
        assert "repro_updates_total 3\n" in tracker.scrape()

    def test_alerts_recorded_in_trace(self):
        trace = TraceLog()
        tracker = LiveTracker(_spec(), trace=trace, alert_values=(2.0,))
        for t in range(1, 4):
            tracker.push(t, 0, +1)
        assert len(trace.named("alert")) == 1

    def test_refuses_async_and_trace_specs(self):
        spec = _spec()
        spec.transport.mode = "async"
        spec.transport.latency = "constant"
        spec.transport.scale = 1.0
        with pytest.raises(ConfigurationError):
            LiveTracker(spec)
        with pytest.raises(ConfigurationError):
            LiveTracker(_spec(), error_threshold=0.0)


class TestLiveTrackerServer:
    def _serve(self, **tracker_kwargs):
        tracker = LiveTracker(_spec(), **tracker_kwargs)
        server = LiveTrackerServer(tracker, http_port=0, feed_port=0)
        server.start()
        return tracker, server

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.http_port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.headers, response.read()

    def test_http_endpoints(self):
        tracker, server = self._serve()
        try:
            tracker.push(1, 0, 1)
            status, headers, body = self._get(server, "/metrics")
            assert status == 200
            assert headers["Content-Type"] == METRICS_CONTENT_TYPE
            assert b"repro_updates_total 1\n" in body
            status, headers, body = self._get(server, "/status")
            assert status == 200
            payload = json.loads(body)
            assert payload["updates"] == 1
            assert payload["feed"] == {"lines": 0, "errors": 0}
            assert payload["endpoints"]["metrics"].endswith("/metrics")
            status, _, body = self._get(server, "/healthz")
            assert status == 200 and body == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server, "/nope")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()

    def test_socket_feed_ingests_and_counts_errors(self):
        tracker, server = self._serve()
        try:
            lines = b"\n".join(
                [
                    b"# comment",
                    b"1 0 1",
                    b"2 1 1",
                    b"not a line",  # malformed -> error, connection survives
                    b"3 99 1",  # site out of range -> error, survives
                    b"4 2 -1",
                    b"",
                ]
            )
            with socket.create_connection(
                ("127.0.0.1", server.feed_port), timeout=10
            ) as sock:
                sock.sendall(lines)
                sock.shutdown(socket.SHUT_WR)
                sock.recv(1)  # wait for the handler to drain and close
            deadline = threading.Event()
            for _ in range(100):
                if server.feed_lines == 3 and server.feed_errors == 2:
                    break
                deadline.wait(0.05)
            assert server.feed_lines == 3
            assert server.feed_errors == 2
            assert tracker.updates == 3
            assert tracker.true_value == 1
        finally:
            server.shutdown()

    def test_over_long_line_is_one_error(self):
        tracker, server = self._serve()
        try:
            _send_in_pieces(
                server.feed_port, b"9" * 2**20 + b"\n1 0 1\n", 65536
            )
            assert (server.feed_lines, server.feed_errors) == (1, 1)
            assert tracker.updates == 1
        finally:
            server.shutdown()

    def test_double_start_refused_and_shutdown_idempotent(self):
        tracker, server = self._serve()
        try:
            with pytest.raises(ProtocolError):
                server.start()
        finally:
            server.shutdown()
            server.shutdown()  # second teardown is a no-op


def _arabic_indic(value):
    """``value`` in Arabic-Indic digits, which ``int()`` also accepts."""
    return "".join(chr(0x660 + int(digit)) for digit in str(value))


#: Every other line form the feed protocol accepts, skips or rejects.
_ODD_LINES = (
    lambda t, s, d: f"# comment at {t}\n".encode(),
    lambda t, s, d: b"\n",
    lambda t, s, d: b"  \t \n",
    lambda t, s, d: f"{t},{s},{d}\n".encode(),
    lambda t, s, d: f"{t}, {s}, {d}\n".encode(),
    lambda t, s, d: f"{t}\t{s}\t{d}\n".encode(),
    lambda t, s, d: f"{t} {s} {d}\r\n".encode(),
    lambda t, s, d: f"+{t} {s} {d:+d}\n".encode(),
    lambda t, s, d: f"  {t}  {s}  {d}  \n".encode(),
    lambda t, s, d: f"{_arabic_indic(t)} {s} {d}\n".encode(),
    lambda t, s, d: b"not a line\n",
    lambda t, s, d: f"{t} {s}\n".encode(),
    lambda t, s, d: f"{t} {s} {d} 9\n".encode(),
    lambda t, s, d: f"{t}.5 {s} {d}\n".encode(),
    lambda t, s, d: b"\xff\xfe 1 1\n",
    lambda t, s, d: f"{t} 99 {d}\n".encode(),  # site out of range
    lambda t, s, d: f"{t} -1 {d}\n".encode(),  # negative site
    lambda t, s, d: f"{t} {s} 2\n".encode(),  # non-unit delta
    lambda t, s, d: f"{t} {s} 0\n".encode(),  # zero delta
)


def _mixed_feed(length=3000):
    """Clean ``time site delta`` lines around a stretch mixed with odd ones.

    The clean stretches span several 4 KiB reads; every 25th line of the
    middle third is one of :data:`_ODD_LINES`, and the last line has no
    newline.
    """
    rng = random.Random(7)
    pieces = []
    for t in range(1, length + 1):
        site, delta = rng.randrange(SITES), rng.choice((-1, 1, 1))
        if length // 3 <= t < 2 * length // 3 and t % 25 == 0:
            pieces.append(_ODD_LINES[(t // 25) % len(_ODD_LINES)](t, site, delta))
        else:
            pieces.append(f"{t} {site} {delta}\n".encode())
    pieces.append(f"{length + 1} 0 1".encode())
    return b"".join(pieces)


def _equivalence_tracker():
    """A sharded tracker with alerts that fire and a trace log that keeps all."""
    spec = _spec(topology={"shards": 2, "partition": "contiguous"})
    return LiveTracker(
        spec,
        trace=TraceLog(capacity=1_000_000),
        error_threshold=0.02,
        alert_values=(5.0, 50.0, 400.0),
    )


def _reference_ingest(feed):
    """The feed parsed with ``parse_feed_line`` and pushed line by line.

    Counts lines and errors as the feed handler documents: a malformed
    line or a push raising :class:`ReproError` is one error.
    """
    tracker = _equivalence_tracker()
    lines = errors = 0
    for raw in io.BytesIO(feed):
        try:
            parsed = parse_feed_line(raw.decode("utf-8", "replace"))
        except ValueError:
            errors += 1
            continue
        if parsed is None:
            continue
        try:
            tracker.push(*parsed)
            lines += 1
        except ReproError:
            errors += 1
    return tracker, lines, errors


def _send_in_pieces(port, feed, piece):
    """Send ``feed`` in ``piece``-byte writes; return once the server closed."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        for start in range(0, len(feed), piece):
            sock.sendall(feed[start:start + piece])
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1) == b""  # the handler drained the feed and closed


class TestFeedBlockEquivalence:
    """The socket feed ingests exactly what line-by-line parse and push do."""

    @pytest.fixture(scope="class")
    def reference(self):
        feed = _mixed_feed()
        tracker, lines, errors = _reference_ingest(feed)
        return feed, tracker, lines, errors

    @pytest.mark.parametrize("piece", [1, 7, 4095, 4097, 65536])
    def test_served_feed_equals_line_by_line(self, reference, piece):
        feed, expected, lines, errors = reference
        assert errors > 0 and expected.alerts_total > 0 and expected.violations > 0
        tracker = _equivalence_tracker()
        server = LiveTrackerServer(tracker, http_port=0, feed_port=0).start()
        try:
            _send_in_pieces(server.feed_port, feed, piece)
            url = f"http://127.0.0.1:{server.http_port}/status"
            with urllib.request.urlopen(url, timeout=10) as response:
                status = json.loads(response.read())
        finally:
            server.shutdown()
        assert (server.feed_lines, server.feed_errors) == (lines, errors)
        assert status["feed"] == {"lines": lines, "errors": errors}
        want = json.loads(json.dumps(expected.status()))
        for key in ("updates", "last_time", "estimate", "true_value",
                    "total_messages", "total_bits", "messages_by_kind",
                    "violations", "alerts_total", "alerts", "levels"):
            assert status[key] == want[key], key
        assert list(tracker.alerts) == list(expected.alerts)
        assert tracker.trace.emitted == expected.trace.emitted
        assert tracker.trace.to_dicts() == expected.trace.to_dicts()


class TestServeCommand:
    def test_serve_runs_for_duration_and_reports_status(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "live.json"
        _live_spec().save(path)
        code = main(
            [
                "serve",
                "--config",
                str(path),
                "--http-port",
                "0",
                "--feed-port",
                "0",
                "--duration",
                "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "/metrics" in out
        # The final line block is the service's closing status JSON.
        payload = json.loads(out[out.index("{"):])
        assert payload["updates"] == 0
        assert payload["feed"] == {"lines": 0, "errors": 0}
