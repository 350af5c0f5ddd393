"""TCP replay server and recorder: dropouts, reconnects, crash consistency.

Most scripts here run with tick_interval=0 so a whole night replays in
milliseconds. At tick 0 the server's loop sends each run of due lines in
batches of up to BATCH_BYTES, where a paced script sends one line per tick;
either way its cursor advances only on lines wholly handed to the socket, so
what it counts as sent is what a recorder can receive. The recorder's one
outage rule (retry every retry_interval until the deadline has passed) is
checked from both sides: no run ends before the deadline, and none long
after it.
"""

import errno
import io
import json
import math
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from bcgsleep import devicesim
from bcgsleep.core import compute_gaps
from bcgsleep.devicesim import (
    DropoutWindow,
    RetryPolicy,
    StreamScript,
    record_stream,
    serve_stream,
)
from bcgsleep.errors import InitialConnectFailure
from bcgsleep.ingest import load_night, sample_line, write_night

from conftest import checkout_env, disk_full_after_half, make_record, make_sample, record_forks

FAST = RetryPolicy(retry_interval=0.02, deadline=0.7)
ONCE = RetryPolicy(retry_interval=0.02, deadline=0.3)  # record_lines' policy


def script_of(n, windows=(), tick=0.0):
    rec = make_record(make_sample(t) for t in range(n))
    return StreamScript(rec, dropout_windows=windows, tick_interval=tick)


class TestStreamScript:
    def test_windows_sorted_and_looked_up(self):
        s = script_of(50, windows=(DropoutWindow(30, 5), DropoutWindow(10, 5)))
        assert s.dropout_windows[0].start_t == 10
        assert s.window_at(12) is s.dropout_windows[0]
        assert s.window_at(15) is None
        assert s.window_at(34) is s.dropout_windows[1]

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            script_of(50, windows=(DropoutWindow(10, 10), DropoutWindow(15, 5)))

    def test_window_outside_script_rejected(self):
        with pytest.raises(ValueError):
            script_of(20, windows=(DropoutWindow(18, 10),))

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            script_of(20, tick=-1.0)

    @pytest.mark.parametrize("tick", [math.nan, math.inf])
    def test_non_finite_tick_rejected(self, tick):
        with pytest.raises(ValueError, match="finite"):
            script_of(20, tick=tick)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            DropoutWindow(0, 5, "brownout")

    def test_expected_timestamps_excludes_windows(self):
        s = script_of(20, windows=(DropoutWindow(5, 3, "silence"),))
        assert s.expected_timestamps() == tuple(
            t for t in range(20) if not 5 <= t < 8
        )

    def test_plain_tuples_accepted_as_windows(self):
        s = script_of(30, windows=((4, 2),))
        assert s.dropout_windows[0] == DropoutWindow(4, 2)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retry_interval=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)

    @pytest.mark.parametrize("field", ["retry_interval", "deadline"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            RetryPolicy(**{field: value})


class TestRecorderAgainstServer:
    def run(self, script, tmp_path, policy=FAST):
        srv = serve_stream(script, "127.0.0.1:0")
        try:
            return srv, record_stream(srv.endpoint, tmp_path / "out.ndjson", policy)
        finally:
            srv.stop()

    def test_clean_run_receives_everything(self, tmp_path):
        srv, res = self.run(script_of(40), tmp_path)
        assert res.timestamps == tuple(range(40))
        assert res.gaps == ()
        assert res.n_samples == 40

    def test_silence_window_leaves_connection_up(self, tmp_path):
        windows = (DropoutWindow(10, 4, "silence"),)
        srv, res = self.run(script_of(30, windows=windows), tmp_path)
        assert res.timestamps == tuple(t for t in range(30) if not 10 <= t < 14)
        assert res.gaps == ((10, 4),)

    def test_disconnect_window_forces_reconnect(self, tmp_path):
        windows = (DropoutWindow(12, 6, "disconnect"),)
        srv, res = self.run(script_of(40, windows=windows), tmp_path)
        assert res.timestamps == tuple(t for t in range(40) if not 12 <= t < 18)
        assert res.gaps == ((12, 6),)

    def test_multiple_disconnects_conserve_samples(self, tmp_path):
        windows = (
            DropoutWindow(8, 3, "disconnect"),
            DropoutWindow(20, 5, "disconnect"),
            DropoutWindow(33, 4, "silence"),
        )
        script = script_of(50, windows=windows)
        srv, res = self.run(script, tmp_path)
        assert res.timestamps == script.expected_timestamps()
        # conservation: exactly what the server sent, in order
        assert list(res.timestamps) == srv.sent_timestamps
        assert res.gaps == ((8, 3), (20, 5), (33, 4))

    def test_window_at_script_start(self, tmp_path):
        windows = (DropoutWindow(0, 4, "disconnect"),)
        srv, res = self.run(script_of(20, windows=windows), tmp_path)
        assert res.timestamps == tuple(range(4, 20))
        assert res.gaps == ()  # nothing received before the window

    def test_recorded_file_parses_and_matches(self, tmp_path):
        windows = (DropoutWindow(9, 3, "disconnect"),)
        srv, res = self.run(script_of(25, windows=windows), tmp_path)
        rec = load_night(res.path, night_id="n")
        assert tuple(s.t for s in rec.samples) == res.timestamps
        assert rec.gaps == res.gaps

    def test_sidecar_contents(self, tmp_path):
        windows = (DropoutWindow(6, 2, "disconnect"),)
        srv, res = self.run(script_of(15, windows=windows), tmp_path)
        side = json.loads(Path(res.sidecar_path).read_text())
        assert side["n_samples"] == res.n_samples
        assert side["first_t"] == 0
        assert side["last_t"] == 14
        assert side["gaps"] == [[6, 2]]

    def test_rerecording_truncates_previous_output(self, tmp_path):
        script = script_of(12)
        srv = serve_stream(script, "127.0.0.1:0")
        record_stream(srv.endpoint, tmp_path / "out.ndjson", FAST)
        srv.stop()
        srv2 = serve_stream(script_of(12), "127.0.0.1:0")
        res = record_stream(srv2.endpoint, tmp_path / "out.ndjson", FAST)
        srv2.stop()
        rec = load_night(res.path)
        assert len(rec.samples) == 12


class TestBatchedStream:
    def test_batches_and_disconnects_lose_nothing(self, tmp_path):
        windows = (
            DropoutWindow(400, 30, "disconnect"),
            DropoutWindow(1500, 7, "disconnect"),
            DropoutWindow(2990, 5, "disconnect"),
        )
        script = script_of(3000, windows=windows)
        lines = [line + "\n" for t, line in zip(script.source.t.tolist(),
                                                write_night(script.source, "ndjson"))
                 if script.window_at(t) is None]
        assert len("".join(lines)) > 2 * devicesim.BATCH_BYTES  # several flushes
        srv = serve_stream(script, "127.0.0.1:0")
        try:
            res = record_stream(srv.endpoint, tmp_path / "out.ndjson", FAST)
        finally:
            srv.stop()
        assert res.timestamps == tuple(srv.sent_timestamps) == script.expected_timestamps()
        assert Path(res.path).read_bytes() == "".join(lines).encode("ascii")
        assert res.gaps == ((400, 30), (1500, 7), (2990, 5)) and res.dropped_lines == 0

    def test_client_reset_mid_batch_resumes_at_first_unsent_line(self, tmp_path):
        n = 5000
        script = script_of(n)
        stream = "".join(line + "\n" for line in write_night(script.source, "ndjson"))
        srv = devicesim.DeviceServer(script)
        # small socket buffers (the accepted client inherits the listener's)
        # keep the server blocked mid-batch while the first client reads
        srv._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        srv.start()
        try:
            with socket.socket() as first:
                first.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                first.connect(srv.address)
                first.settimeout(5)
                got = b""
                while len(got) < 1000:
                    chunk = first.recv(1000 - len(got))
                    assert chunk, "first client lost service"
                    got += chunk
                first.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            res = record_stream(srv.endpoint, tmp_path / "out.ndjson", FAST)
        finally:
            srv.stop()
        assert got == stream.encode("ascii")[:len(got)]
        sent = srv.sent_timestamps
        assert sent == list(range(n))  # strictly increasing: nothing sent twice or skipped
        k = n - res.n_samples
        assert got.count(b"\n") <= k < n
        # only what fits in the two small socket buffers is credited to the
        # first client; the rest of its batch is neither skipped nor credited
        assert len(sample_line(make_sample(0))) * k < devicesim.BATCH_BYTES // 2
        assert res.timestamps == tuple(range(k, n)) and res.dropped_lines == 0

    def test_lines_before_a_disconnect_reach_the_client_attached_then(self):
        script = script_of(100, windows=(DropoutWindow(50, 5, "disconnect"),))
        srv = serve_stream(script, "127.0.0.1:0")
        try:
            with socket.create_connection(srv.address) as client:
                client.settimeout(5)
                got = b""
                while chunk := client.recv(65536):
                    got += chunk
        finally:
            srv.stop()
        assert got == "".join(sample_line(make_sample(t)) + "\n" for t in range(50)).encode()

    def test_stop_cuts_a_paced_sleep_short(self):
        srv = serve_stream(script_of(5, tick=5.0), "127.0.0.1:0")
        try:
            with socket.create_connection(srv.address) as client:
                client.settimeout(5)
                assert client.recv(65536)  # the first line; the server now sleeps
                t0 = time.monotonic()
                srv.stop()
                assert time.monotonic() - t0 < 1.0
        finally:
            srv.stop()
        assert srv.finished.is_set()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(srv.address, timeout=1).close()

    def test_paced_script_sends_one_line_per_tick(self):
        srv = serve_stream(script_of(5, tick=0.05), "127.0.0.1:0")
        try:
            with socket.create_connection(srv.address) as client:
                client.settimeout(5)
                first = client.recv(65536)
        finally:
            srv.stop()
        assert first == (sample_line(make_sample(0)) + "\n").encode("ascii")


def _running(pid):
    """Whether process pid exists and has not ended (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        if os.path.isdir("/proc"):
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _read_some(client, n):
    """At least n bytes from client; fails if it closes first."""
    got = b""
    while len(got) < n:
        chunk = client.recv(65536)
        assert chunk, "client lost service"
        got += chunk
    return got


class TestServerProcess:
    """The serving loop runs in one forked child: stop() ends and reaps it
    in every state, and so does the death of the process that started it."""

    @pytest.mark.parametrize("state", ["finished", "mid-batch", "paced sleep"])
    def test_stop_leaves_no_child(self, tmp_path, monkeypatch, state):
        forks = record_forks(monkeypatch)
        n = 5000 if state == "mid-batch" else 40
        srv = devicesim.DeviceServer(script_of(n, tick=5.0 if state == "paced sleep" else 0.0))
        # small socket buffers (the accepted client inherits the listener's)
        # keep a server with a client that does not read blocked mid-batch
        srv._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        srv.start()
        try:
            if state == "finished":
                res = record_stream(srv.endpoint, tmp_path / "out.ndjson", FAST)
                assert res.n_samples == n and srv.wait(5)
                t0 = time.monotonic()
                srv.stop()
            else:
                with socket.socket() as client:
                    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    client.connect(srv.address)
                    client.settimeout(5)
                    _read_some(client, 1000 if state == "mid-batch" else 1)
                    time.sleep(0.1)  # the server now waits to send, or sleeps
                    t0 = time.monotonic()
                    srv.stop()
                    while client.recv(65536):  # then the server closes the client
                        pass
        finally:
            srv.stop()
        assert time.monotonic() - t0 < 1.0
        assert srv.finished.is_set()
        sent = len(srv.sent_timestamps)
        assert (sent == n) if state == "finished" else (0 < sent < n)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(forks[0], os.WNOHANG)
        assert not _running(forks[0])

    @pytest.mark.parametrize("with_client", [False, True])
    def test_killed_owner_leaves_no_server(self, with_client):
        code = (
            "import time, numpy as np; "
            "from bcgsleep.core import NightRecord; "
            "from bcgsleep.devicesim import StreamScript, serve_stream; "
            "night = NightRecord('n', np.arange(100), np.ones((100, 5))); "
            "srv = serve_stream(StreamScript(night, tick_interval=5.0)); "
            "print(srv._child.pid, srv.address[1], flush=True); "
            "time.sleep(60)"
        )
        owner = subprocess.Popen([sys.executable, "-c", code], env=checkout_env(),
                                 stdout=subprocess.PIPE, text=True)
        try:
            pid, port = map(int, owner.stdout.readline().split())
            client = socket.create_connection(("127.0.0.1", port)) if with_client else None
            if client is not None:
                client.settimeout(5)
                _read_some(client, 1)  # the first line; the server now sleeps
            owner.kill()
            owner.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(pid)
            if client is not None:
                with client:
                    assert client.recv(65536) == b""
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()

    def test_ctrl_c_before_the_child_ignores_it_is_dropped(self, tmp_path, monkeypatch):
        """A SIGINT that reaches the child after the fork but before it
        ignores SIGINT waits, blocked, and is discarded: the child serves
        the whole night and the caller never sees a KeyboardInterrupt."""
        serve_child = devicesim.DeviceServer._serve_child

        def interrupted_first(self, *args):
            os.kill(os.getpid(), signal.SIGINT)
            return serve_child(self, *args)

        monkeypatch.setattr(devicesim.DeviceServer, "_serve_child", interrupted_first)
        script = script_of(200)
        srv = serve_stream(script, "127.0.0.1:0")
        try:
            res = record_stream(srv.endpoint, tmp_path / "out.ndjson", FAST)
            assert srv.wait(5)
        finally:
            srv.stop()
        assert res.timestamps == tuple(srv.sent_timestamps) == script.expected_timestamps()

    def test_without_fork_the_loop_runs_in_the_thread(self, tmp_path, monkeypatch):
        """Where the platform has no fork, the thread serves the same
        stream: the same recorded bytes and sent t values."""
        windows = (DropoutWindow(400, 30, "disconnect"), DropoutWindow(1500, 7, "silence"),
                   DropoutWindow(2990, 5, "disconnect"))
        script = script_of(3000, windows=windows)
        outcomes = []
        for fork in (True, False):
            with monkeypatch.context() as m:
                if not fork:
                    m.delattr(os, "fork")
                srv = serve_stream(script, "127.0.0.1:0")
                try:
                    res = record_stream(srv.endpoint, tmp_path / f"{fork}.ndjson", FAST)
                finally:
                    srv.stop()
            assert (srv._child is not None) == fork
            outcomes.append((Path(res.path).read_bytes(), res.timestamps, srv.sent_timestamps))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == script.expected_timestamps()

    def test_without_fork_stop_cuts_a_paced_sleep_short(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        srv = serve_stream(script_of(5, tick=5.0), "127.0.0.1:0")
        try:
            with socket.create_connection(srv.address) as client:
                client.settimeout(5)
                assert client.recv(65536)
                t0 = time.monotonic()
                srv.stop()
                assert time.monotonic() - t0 < 1.0
        finally:
            srv.stop()
        assert srv.finished.is_set() and srv._child is None


class TestSingleClientRule:
    def test_second_client_is_cut(self):
        script = script_of(60, tick=0.05)
        srv = serve_stream(script, "127.0.0.1:0")
        try:
            first = socket.create_connection(srv.address)
            first.settimeout(5)
            time.sleep(0.15)
            second = socket.create_connection(srv.address)
            second.settimeout(5)
            assert second.recv(4096) == b""  # server closes the extra
            second.close()
            buf = b""
            while buf.count(b"\n") < 3:
                chunk = first.recv(4096)
                assert chunk, "first client lost service"
                buf += chunk
            first.close()
        finally:
            srv.stop()


def record_talk(talk, out):
    """Accept one client on a loopback listener and run talk(conn) on it in
    a thread while recording to out; the link closes when talk returns."""
    listener = socket.create_server(("127.0.0.1", 0))

    def send():
        conn, _ = listener.accept()
        listener.close()  # reconnects are refused, so the recording ends
        with conn:
            talk(conn)

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    try:
        return record_stream(f"127.0.0.1:{listener.getsockname()[1]}", out, ONCE)
    finally:
        sender.join(timeout=5)


def record_lines(lines, out, ended=None):
    """Serve the lines once from a loopback listener, record them to out;
    the time the stream ended is appended to ended if given."""

    def talk(conn):
        conn.sendall("".join(line + "\n" for line in lines).encode())
        if ended is not None:
            ended.append(time.monotonic())  # just before the link closes

    return record_talk(talk, out)


class TestReceive:
    def test_line_split_over_two_sends(self, tmp_path):
        line = (sample_line(make_sample(0)) + "\n").encode()
        assert b"\n" not in line[:20]

        def talk(conn):
            conn.sendall(line[:20])
            time.sleep(0.1)  # the recorder reads the first part on its own
            conn.sendall(line[20:])

        res = record_talk(talk, tmp_path / "out.ndjson")
        assert res.timestamps == (0,) and res.dropped_lines == 0
        assert Path(res.path).read_bytes() == line

    def test_reset_mid_line_keeps_the_whole_lines(self, tmp_path):
        whole = "".join(sample_line(make_sample(t)) + "\n" for t in range(3)).encode()
        out = tmp_path / "out.ndjson"
        reset = []

        def talk(conn):
            conn.sendall(whole + sample_line(make_sample(3)).encode()[:25])
            stop = time.monotonic() + 5
            while out.stat().st_size < len(whole) and time.monotonic() < stop:
                time.sleep(0.01)
            # closing with a zero linger sends a reset, not a FIN
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            reset.append(time.monotonic())

        res = record_talk(talk, out)
        assert ONCE.deadline <= time.monotonic() - reset[0] < 5.0
        assert res.timestamps == (0, 1, 2) and res.dropped_lines == 0
        assert out.read_bytes() == whole
        assert load_night(out).t.tolist() == [0, 1, 2]


class TestLineValidation:
    def test_garbage_and_duplicate_lines_dropped(self, tmp_path):
        good = [sample_line(make_sample(t)) for t in (0, 1)]
        res = record_lines([good[0], "not a sample", good[0], good[1]],
                           tmp_path / "out.ndjson")
        assert res.timestamps == (0, 1)
        assert res.dropped_lines == 2
        assert [s.t for s in load_night(res.path).samples] == [0, 1]
        side = json.loads(Path(res.sidecar_path).read_text())
        assert side["dropped_lines"] == 2
        assert side["n_samples"] == 2

    def test_invalid_vitals_and_backwards_t_dropped(self, tmp_path):
        lines = [
            sample_line(make_sample(5)),
            sample_line(make_sample(6, hr=-1.0)),
            sample_line(make_sample(7)).replace('"rr":14.0', '"rr":NaN'),
            sample_line(make_sample(3)),
            '{"t":8,"hr":1.0}',
            sample_line(make_sample(9)),
        ]
        res = record_lines(lines, tmp_path / "out.ndjson")
        assert res.timestamps == (5, 9)
        assert res.dropped_lines == 4
        rec = load_night(res.path)
        assert rec.gaps == res.gaps == ((6, 3),)

    def test_deeply_nested_line_dropped(self, tmp_path):
        """A line the JSON decoder cannot read without exceeding the
        recursion limit is one dropped line, not the end of the recording."""
        good = [sample_line(make_sample(t)) for t in (0, 1)]
        res = record_lines([good[0], "[" * 5000, good[1]], tmp_path / "out.ndjson")
        assert res.timestamps == (0, 1) and res.dropped_lines == 1
        assert load_night(res.path).t.tolist() == [0, 1]

    def test_negative_t_dropped(self, tmp_path):
        lines = [sample_line(make_sample(t)) for t in (-5, 0, 1)]
        res = record_lines(lines, tmp_path / "out.ndjson")
        assert res.timestamps == (0, 1)
        assert res.dropped_lines == 1
        assert load_night(res.path).t.tolist() == [0, 1]

    def test_t_past_a_week_dropped(self, tmp_path):
        lines = [sample_line(make_sample(t)) for t in (0, 10**12, 1)]
        res = record_lines(lines, tmp_path / "out.ndjson")
        assert res.timestamps == (0, 1)
        assert res.dropped_lines == 1

    def test_bulk_and_per_line_checks_agree(self, tmp_path):
        # over 64 KiB of canonical lines, one stretch of which mixes in a
        # malformed line, a repeated t, a negative and two non-finite vitals
        lines = [sample_line(make_sample(t, hr=50.0 + t % 13)) for t in range(3000)]
        lines[1060] = sample_line(make_sample(1060, hr=-1.0))
        lines[1070] = sample_line(make_sample(1070)).replace('"rr":14.0', '"rr":1e400')
        lines[1080] = sample_line(make_sample(1080)).replace('"rr":14.0', '"rr":NaN')
        lines.insert(1090, lines[1050])
        lines.insert(1100, "not a sample")
        assert len("\n".join(lines)) > 2 * devicesim.RECV_BYTES
        kept_t, calls = devicesim._kept_t, []

        def counted(raw, last_t):
            calls.append(raw)
            return kept_t(raw, last_t)

        runs = []
        for per_line in (False, True):
            out = tmp_path / f"out{int(per_line)}.ndjson"
            with pytest.MonkeyPatch.context() as m:
                m.setattr(devicesim, "_kept_t", counted)
                if per_line:
                    m.setattr(devicesim, "canonical_rows", lambda block: None)
                res = record_lines(lines, out)
            runs.append((res.timestamps, res.dropped_lines, res.gaps, out.read_bytes(),
                         Path(res.sidecar_path).read_text()))
            if not per_line:
                assert 0 < len(calls) < len(lines)  # some chunks were kept whole
        assert runs[0] == runs[1]
        assert runs[0][0] == tuple(t for t in range(3000) if t not in (1060, 1070, 1080))
        assert runs[0][1] == 5

    @pytest.mark.parametrize("last_t", [None, 2, 3, 9])
    # none; a negative vital; an inf vital; t at the week limit; a t not
    # above the one before; a malformed line
    @pytest.mark.parametrize("change", [
        None, (3, 'hr":-0.5'), (3, 'hr":1e400'), (0, 't":604800'), (6, 't":9'),
        (4, 't":4,"x'),
    ])
    def test_chunk_check_equals_line_by_line(self, monkeypatch, change, last_t):
        lines = [sample_line(make_sample(t)) for t in range(3, 10)]
        if change is not None:
            i, text = change
            key = text.split('"')[0]
            lines[i] = re.sub(f'{key}":[^,]*', text, lines[i], count=1)
        block = "".join(line + "\n" for line in lines).encode()
        whole = devicesim._kept_lines(block, last_t)
        monkeypatch.setattr(devicesim, "canonical_rows", lambda block: None)
        assert whole == devicesim._kept_lines(block, last_t)

    def test_sidecar_written_when_nothing_connects(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        out = tmp_path / "never.ndjson"
        with pytest.raises(InitialConnectFailure):
            record_stream(f"127.0.0.1:{port}", out,
                          RetryPolicy(retry_interval=0.03, deadline=0.2))
        side = json.loads((tmp_path / "never.ndjson.gaps.json").read_text())
        assert side["n_samples"] == 0 and side["dropped_lines"] == 0


class TestFailureModes:
    @pytest.mark.parametrize("port", [99999, -1, 65536])
    def test_server_port_out_of_range_opens_no_socket(self, port):
        # a socket half made and leaked here fails under the suite's
        # error::ResourceWarning filter
        with pytest.raises(ValueError, match=r"0\.\.65535"):
            devicesim.DeviceServer(script_of(5), "127.0.0.1", port)

    def test_initial_connect_failure(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(retry_interval=0.03, deadline=0.2)
        t0 = time.monotonic()
        with pytest.raises(InitialConnectFailure) as exc:
            record_stream(f"127.0.0.1:{port}", tmp_path / "never.ndjson", policy)
        assert time.monotonic() - t0 >= policy.deadline  # not given up early
        assert exc.value.deadline == 0.2

    def test_unopenable_output_fails_before_connecting(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(retry_interval=1.0, deadline=3.0)
        out = tmp_path / "missing-dir" / "out.ndjson"
        t0 = time.monotonic()
        with pytest.raises(OSError):
            record_stream(f"127.0.0.1:{port}", out, policy)
        assert time.monotonic() - t0 < policy.retry_interval
        assert not (tmp_path / "missing-dir").exists()

    def test_disk_error_raised_not_taken_for_a_disconnect(self, tmp_path, monkeypatch):
        class FullDisk(io.FileIO):
            """A disk with 200 bytes free: a write that would pass them is
            cut short, and a write with none left fails."""

            def write(self, data):
                room = 200 - self.tell()
                if room <= 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(bytes(data[:room]))

        def open_full(path, mode="r", *args, **kwargs):
            if mode == "wb":
                return FullDisk(path, mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(devicesim, "open", open_full, raising=False)
        srv = serve_stream(script_of(40), "127.0.0.1:0")
        out = tmp_path / "out.ndjson"
        try:
            with pytest.raises(OSError, match="No space"):
                record_stream(srv.endpoint, out, FAST)
        finally:
            srv.stop()
        side = json.loads((tmp_path / "out.ndjson.gaps.json").read_text())
        stream = "".join(sample_line(make_sample(t)) + "\n" for t in range(40)).encode()
        whole = stream[:200].rfind(b"\n") + 1
        assert out.read_bytes() == stream[:whole]  # the part of a fourth line is cut off
        assert side["n_samples"] == 3  # the lines wholly written
        assert load_night(out).t.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("exists", [True, False])
    def test_failed_sidecar_write_keeps_old_bytes(self, tmp_path, monkeypatch, exists):
        """The gap log is written whole or not at all (core.write_files): a
        disk that fills up halfway through it leaves the old log, or none,
        and no temporary file; the recording itself is complete."""
        out = tmp_path / "out.ndjson"
        side = tmp_path / "out.ndjson.gaps.json"
        if exists:
            side.write_text("old log\n")
        disk_full_after_half(monkeypatch)
        with pytest.raises(OSError) as exc:
            record_lines([sample_line(make_sample(t)) for t in range(3)], out)
        assert exc.value.errno == errno.ENOSPC
        assert load_night(out).t.tolist() == [0, 1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["out.ndjson", side.name] if exists else ["out.ndjson"])
        assert not exists or side.read_text() == "old log\n"

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        class ShortWrites(io.FileIO):
            def write(self, data):
                return super().write(bytes(data[:7]))

        def open_short(path, mode="r", *args, **kwargs):
            if mode == "wb":
                return ShortWrites(path, mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(devicesim, "open", open_short, raising=False)
        script = script_of(2000)
        srv = serve_stream(script, "127.0.0.1:0")
        try:
            res = record_stream(srv.endpoint, tmp_path / "out.ndjson", FAST)
        finally:
            srv.stop()
        stream = "".join(line + "\n" for line in write_night(script.source, "ndjson"))
        assert Path(res.path).read_bytes() == stream.encode("ascii")
        assert res.timestamps == tuple(range(2000))

    def test_reconnect_deadline_ends_run_after_server_stops(self, tmp_path):
        srv = serve_stream(script_of(10), "127.0.0.1:0")
        policy = RetryPolicy(retry_interval=0.02, deadline=0.3)
        t0 = time.time()
        res = record_stream(srv.endpoint, tmp_path / "out.ndjson", policy)
        srv.stop()
        assert res.n_samples == 10
        assert time.time() - t0 < 5.0

    def test_reconnect_after_the_stream_ends_is_refused(self):
        class SlowClose:
            """The listener, with its close slowed to widen the window in
            which a reconnect could reach it after the stream ended."""

            def __init__(self, sock):
                self.sock = sock

            def __getattr__(self, name):
                return getattr(self.sock, name)

            def close(self):
                time.sleep(0.3)
                self.sock.close()

        srv = devicesim.DeviceServer(script_of(5))
        srv._listener = SlowClose(srv._listener)
        srv.start()
        try:
            with socket.create_connection(srv.address) as client:
                client.settimeout(5)
                while client.recv(65536):
                    pass
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(srv.address, timeout=1).close()
        finally:
            srv.stop()

    def test_run_ends_no_sooner_than_deadline_after_the_stream_ends(self, tmp_path):
        ended = []
        res = record_lines([sample_line(make_sample(t)) for t in range(10)],
                           tmp_path / "out.ndjson", ended)
        assert res.n_samples == 10
        assert ONCE.deadline <= time.monotonic() - ended[0] < 5.0

    def test_kill_mid_run_leaves_parseable_file(self, tmp_path):
        script = script_of(200, tick=0.03)
        srv = serve_stream(script, "127.0.0.1:0")
        out = tmp_path / "killed.ndjson"
        code = (
            "from bcgsleep.devicesim import record_stream, RetryPolicy; "
            f"record_stream({srv.endpoint!r}, {str(out)!r}, "
            "RetryPolicy(retry_interval=0.05, deadline=5.0))"
        )
        child = subprocess.Popen([sys.executable, "-c", code], env=checkout_env())
        try:
            time.sleep(1.0)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            srv.stop()
        data = out.read_bytes()
        lines = data.split(b"\n")
        complete = lines[:-1]  # the final line may be cut by the kill
        assert len(complete) >= 5
        ts = []
        for ln in complete:
            obj = json.loads(ln)
            ts.append(obj["t"])
        assert ts == sorted(ts)
        assert compute_gaps(ts) == ()
