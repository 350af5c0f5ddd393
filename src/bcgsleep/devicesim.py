"""Bed-sensor stream simulator and a crash-safe recording client.

The wire protocol is one NDJSON sample per line over plain TCP, 1 Hz by
default. Scripted dropout windows reproduce the two field failure modes:
silent windows (the sensor sends nothing but the link stays up) and
disconnect windows (the link drops and the client must reconnect). The
server's clock keeps running through a dropout, and outside dropouts it
advances on each line wholly handed to the socket, so whatever the script
says is lost is exactly what the recorder's gap log ends up showing.

The server forks one child process (core.fork_child), whose serving loop
owns the listener, the client it is streaming to and the batch of due lines
not yet sent, so formatting lines and recording them share no interpreter
lock; the server's one thread only collects the child's sent t values and
reaps it. The loop sends the batch before it sleeps, before a dropout window
and once it reaches BATCH_BYTES: a paced script (tick_interval > 0) still
sends one line per tick, while at tick 0 a night goes out in a few large
sends. stop(), and the death of the process that started the server, reach
the loop through one socket pair that it selects on wherever it waits. The
package is POSIX-only: the server needs fork. The recorder runs in the
caller's thread, and one helper owns its outage rule: connect
every retry_interval until the deadline has passed. It reads the socket in
chunks into one buffer and cuts the whole lines off it. Lines whose columns
ingest.canonical_rows reads and core.night_fault finds sound after the last
kept t are kept whole after a regex scan and a numpy conversion; any others
are checked line by line with the per-line parser, which decides every drop.
The kept lines of a chunk are appended to the output with one unbuffered
write, finished if it comes back short and cut back to the last whole line
if it fails, so a kill at any moment leaves every line but the last
complete.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import math
import os
import select
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (Child, NightRecord, compute_gaps, fork_child, join_children, night_fault,
                   write_files)
from .errors import InitialConnectFailure, MalformedRow
from .ingest import canonical_rows, parse_sample_line, write_night

SILENCE = "silence"
DISCONNECT = "disconnect"

# the server sends its batch of due lines once it reaches this many bytes
BATCH_BYTES = 64 * 1024
# the recorder reads the socket in chunks of at most this many bytes
RECV_BYTES = 64 * 1024


@dataclass(frozen=True)
class DropoutWindow:
    """Seconds [start_t, start_t + length) that never reach the recorder."""

    start_t: int
    length: int
    mode: str = SILENCE

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"dropout length must be positive, got {self.length}")
        if self.start_t < 0:
            raise ValueError(f"dropout start must be non-negative, got {self.start_t}")
        if self.mode not in (SILENCE, DISCONNECT):
            raise ValueError(f"unknown dropout mode {self.mode!r}")

    @property
    def end_t(self) -> int:
        return self.start_t + self.length

    def covers(self, t: int) -> bool:
        return self.start_t <= t < self.end_t


@dataclass(frozen=True)
class StreamScript:
    """What the simulated sensor will send, and when it will fail."""

    source: NightRecord
    dropout_windows: tuple[DropoutWindow, ...] = ()
    tick_interval: float = 1.0

    def __post_init__(self):
        windows = tuple(sorted(
            (w if isinstance(w, DropoutWindow) else DropoutWindow(*w)
             for w in self.dropout_windows),
            key=lambda w: w.start_t,
        ))
        object.__setattr__(self, "dropout_windows", windows)
        check_tick(self.tick_interval)
        last_t = self.source.last_t
        for a, b in zip(windows, windows[1:]):
            if b.start_t < a.end_t:
                raise ValueError(f"dropout windows overlap at t={b.start_t}")
        for w in windows:
            if w.end_t - 1 > last_t:
                raise ValueError(f"dropout window {w} extends past t={last_t}")

    def window_at(self, t: int) -> Optional[DropoutWindow]:
        for w in self.dropout_windows:
            if w.covers(t):
                return w
            if w.start_t > t:
                break
        return None

    def expected_timestamps(self) -> tuple[int, ...]:
        """The t values a recorder should end up with."""
        return tuple(t for t in self.source.t.tolist() if self.window_at(t) is None)


def check_tick(tick: float) -> float:
    """tick, unless it is not finite and >= 0: then a ValueError."""
    if not (tick >= 0 and math.isfinite(tick)):
        raise ValueError(f"tick_interval must be finite and >= 0, got {tick}")
    return tick


def _check_port(port: int) -> int:
    """port, unless it is not an integer in 0..65535: then a ValueError."""
    if port not in range(65536):
        raise ValueError(f"port must be in 0..65535, got {port!r}")
    return port


def split_endpoint(endpoint: str) -> tuple[str, int]:
    """A "host:port" string as (host, port); an empty host is 127.0.0.1."""
    host, _, text = endpoint.rpartition(":")
    return host or "127.0.0.1", _check_port(int(text))


class DeviceServer:
    """Streams a script to one client at a time; extra connects are closed.

    start() forks one child process that runs the serving loop, which owns
    the listener, the client, the script cursor and the batch of due lines
    not yet sent. The loop sends the batch before it sleeps, before a
    dropout window and whenever the batch reaches BATCH_BYTES. It blocks
    while no client is attached (except inside dropout windows, where time
    passes regardless), resends nothing, skips nothing it was not told
    to skip, and closes the listener when the script is exhausted.

    stop(), and the death of this process, reach the loop through one
    socket pair: the loop selects on it while it waits for a client, while
    it waits to send, in a paced sleep and once per batch, so it always
    ends through its cleanup. The server's thread collects the child's
    sent t values, reaps it and then sets finished, so sent_timestamps is
    complete once finished is set.
    """

    def __init__(self, script: StreamScript, host: str = "127.0.0.1", port: int = 0):
        self.script = script
        # create_server closes its socket on OSError only, so a port it
        # would reject with OverflowError is refused before a socket exists
        self._listener = socket.create_server((host, _check_port(port)))
        # the loop selects before it accepts, so accept() must not block
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        # stop() writes to _stop_w; the loop reads nothing from _stop but
        # selects on it, which also sees EOF once this process dies
        self._stop, self._stop_w = socket.socketpair()
        self._stop_lock = threading.Lock()  # _stop_w: stop() against the thread's close
        self.finished = threading.Event()
        self._sent: list[int] = []
        self._conn: Optional[socket.socket] = None  # the serving loop's client
        self._child: Optional[Child] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def sent_timestamps(self) -> list[int]:
        return list(self._sent)

    def start(self) -> "DeviceServer":
        # a Ctrl-C before the child ignores SIGINT waits there, held
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._child = fork_child("device server", self._serve_child, held,
                                     close=(self._stop_w.fileno(),))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        self._listener.close()
        self._stop.close()
        self._thread.start()
        return self

    def stop(self):
        with self._stop_lock:
            with contextlib.suppress(OSError):  # closed: the loop has ended
                self._stop_w.send(b"\0")
            self._stop_w.close()
        if self._thread.ident is None:  # never started: nothing else will close these
            self._listener.close()
            self._stop.close()
        else:
            self._thread.join(timeout=10)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.finished.wait(timeout)

    def _run(self):
        """The server's thread: collect and reap the child, then close the
        stop writer and set finished."""
        try:
            self._sent = join_children([self._child])[0]
        finally:
            with self._stop_lock:
                self._stop_w.close()
            self.finished.set()

    def _serve_child(self, mask) -> list[int]:
        """The forked child: the serving loop, then the t values it sent.
        Ctrl-C reaches the whole process group, so the child leaves it to
        the caller, whose stop() ends the loop: SIGINT, blocked since the
        fork, is ignored before the signal mask is set back to mask."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self._serve_loop()
        return self._sent

    def _cut_extra(self):
        # one client at a time: whoever connects while one is attached is cut
        with contextlib.suppress(BlockingIOError):  # gone before it was taken
            self._listener.accept()[0].close()

    def _next_client(self) -> Optional[socket.socket]:
        """The next client to connect, or None once stopped."""
        while True:
            ready = select.select([self._listener, self._stop], [], [])[0]
            if self._stop in ready:
                return None
            try:
                conn = self._listener.accept()[0]
            except BlockingIOError:  # gone before it was taken
                continue
            conn.setblocking(False)
            return conn

    def _writable(self) -> bool:
        """Wait until the client can take more bytes, cutting any other
        client that connects meanwhile; False once stopped."""
        while True:
            ready, writable, _ = select.select([self._stop, self._listener], [self._conn], [])
            if self._stop in ready:
                return False
            if self._listener in ready:
                self._cut_extra()
            if writable:
                return True

    def _drop_client(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _send(self, lines: list[str], stamps: list[int]):
        """Send lines (each ending in a newline, with their t values in
        stamps), waiting for a client if none is attached.

        A line counts as sent once it is wholly handed to the socket. If the
        client fails, the next one gets the stream from the first line not
        wholly sent; the part of it already sent is a partial tail that the
        recorder discards. Returns early, leaving the rest unsent, once
        stopped.
        """
        data = memoryview("".join(lines).encode("ascii"))
        ends = list(itertools.accumulate(map(len, lines)))
        done = sent = 0  # bytes handed to the socket; lines wholly among them
        while sent < len(lines):
            if self._conn is None:
                self._conn = self._next_client()
                if self._conn is None:
                    return
            if not self._writable():
                return
            try:
                done += self._conn.send(data[done:])
            except OSError:
                self._drop_client()
                done = ends[sent - 1] if sent else 0
                continue
            now = bisect.bisect_right(ends, done, lo=sent)
            self._sent.extend(stamps[sent:now])
            sent = now

    def _serve_loop(self):
        tick = self.script.tick_interval
        # the batch: due lines not yet sent, their t values and their bytes
        lines: list[str] = []
        stamps: list[int] = []
        size = 0
        try:
            source = self.script.source
            for t, line in zip(source.t.tolist(), write_night(source, "ndjson")):
                window = self.script.window_at(t)
                if window is None:
                    lines.append(line + "\n")
                    stamps.append(t)
                    size += len(line) + 1
                # before a dropout window, before a paced sleep, or when full
                if window is not None or tick > 0 or size >= BATCH_BYTES:
                    self._send(lines, stamps)
                    lines, stamps, size = [], [], 0
                    if window is not None and window.mode == DISCONNECT:
                        self._drop_client()
                    # the paced sleep, cut short once stopped
                    if select.select([self._stop], [], [], tick)[0]:
                        return
            self._send(lines, stamps)
        finally:
            # The listener closes before the client is dropped, so a client
            # that sees the stream end and reconnects is refused; one whose
            # handshake the close cut short could get no reset and block on
            # read forever. The close also resets any connection still in
            # the backlog.
            self._listener.close()
            self._drop_client()


def serve_stream(script: StreamScript, endpoint: str = "127.0.0.1:0") -> DeviceServer:
    """Bind and start a server; raises OSError if the endpoint is not bindable."""
    host, port = split_endpoint(endpoint)
    return DeviceServer(script, host, port).start()


@dataclass(frozen=True)
class RetryPolicy:
    """Reconnect cadence after a drop; the deadline bounds each outage."""

    retry_interval: float = 1.0
    deadline: float = 30.0

    def __post_init__(self):
        for value in (self.retry_interval, self.deadline):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"retry policy values must be positive and finite, got {value}")


@dataclass(frozen=True)
class RecordingResult:
    path: str
    sidecar_path: str
    n_samples: int
    gaps: tuple[tuple[int, int], ...]
    timestamps: tuple[int, ...] = field(repr=False)
    dropped_lines: int = 0


def _connect(host: str, port: int, policy: RetryPolicy) -> Optional[socket.socket]:
    """The outage rule: a connection to host:port, tried every
    policy.retry_interval until policy.deadline has passed since the first
    try, or None if none was made by then."""
    start = time.monotonic()
    while True:
        try:
            return socket.create_connection(
                (host, port), timeout=max(policy.retry_interval, 0.05))
        except OSError:
            if time.monotonic() - start >= policy.deadline:
                return None
        time.sleep(policy.retry_interval)


def _kept_t(raw: bytes, last_t: Optional[int]) -> Optional[int]:
    """The t of a received line that load_night would accept after last_t,
    or None if the line must be dropped: malformed, or a row that
    night_fault finds unsound after last_t."""
    try:
        row = parse_sample_line(raw.decode("utf-8"), 0)
    except (UnicodeDecodeError, MalformedRow):
        return None
    if night_fault(np.array(row[:1]), np.array([row[1:]]), after=last_t) is not None:
        return None
    return row[0]


def _kept_lines(block: bytes, last_t: Optional[int]) -> tuple[bytes, list[int]]:
    """The lines of block (complete lines, each ending in a newline) that
    _kept_t keeps in turn after last_t, joined, and their t values.

    A block whose columns canonical_rows reads and night_fault finds sound
    after last_t is kept whole; any other block goes line by line through
    _kept_t.
    """
    columns = canonical_rows(block)
    if columns is not None and night_fault(*columns, after=last_t) is None:
        return block, columns[0].tolist()
    kept, stamps = [], []
    for body in block.split(b"\n")[:-1]:
        raw = body + b"\n"
        t = _kept_t(raw, stamps[-1] if stamps else last_t)
        if t is not None:
            kept.append(raw)
            stamps.append(t)
    return b"".join(kept), stamps


def _append(out, lines: bytes, stamps: list[int], timestamps: list[int]) -> None:
    """Write lines to the unbuffered out, writing again after a short write,
    and add the t of every line wholly written to timestamps. When a write
    fails, the file is first cut back to the end of its last whole line."""
    view = memoryview(lines)
    done = 0
    try:
        while done < len(lines):
            done += out.write(view[done:])
    except BaseException:
        # cut a partly written line off, so the file still loads
        keep = lines.rfind(b"\n", 0, done) + 1
        if keep < done:
            out.truncate(out.tell() - (done - keep))
        raise
    finally:
        timestamps.extend(stamps[:lines.count(b"\n", 0, done)])


def record_stream(
    endpoint: str,
    output_path,
    policy: RetryPolicy = RetryPolicy(),
) -> RecordingResult:
    """Record a device stream to an NDJSON file plus a gap-log sidecar.

    The output is opened before the first connect attempt, so an output that
    cannot be opened raises OSError at once and leaves no sidecar. Lines are
    durable before this returns. Each line is checked before it is written:
    malformed lines, lines with a negative or non-finite vital and lines
    whose t is not above the last kept t are dropped and counted
    (dropped_lines), so the file always loads, also after a write fails,
    which first cuts the file back to its last whole line. Only a kill can
    leave a cut last line; every line before it is complete. The sidecar
    counts only lines wholly written. Every connect goes through one outage
    rule (_connect): try every policy.retry_interval until policy.deadline
    has passed. If the first connect fails that way, InitialConnectFailure
    is raised; after that, each drop is followed by a reconnect, and the
    recording ends normally at the first outage that outlasts the deadline.
    The end of the script looks like a final outage, so every run ends that
    way. Once the output is open, the sidecar is written however the run
    ends, whole or not at all (core.write_files).
    """
    host, port = split_endpoint(endpoint)
    path = str(output_path)
    sidecar = path + ".gaps.json"
    out = open(path, "wb", buffering=0)
    timestamps: list[int] = []
    dropped = 0
    try:
        sock = _connect(host, port, policy)
        if sock is None:
            raise InitialConnectFailure(f"{host}:{port}", policy.deadline)
        while sock is not None:
            sock.settimeout(None)
            with sock:
                buffer = b""  # received bytes after the last whole line
                while True:
                    try:
                        chunk = sock.recv(RECV_BYTES)
                    except OSError:
                        break  # a reset is just a less polite disconnect
                    if not chunk:
                        break  # closed; the partial tail of a mid-line drop is lost
                    buffer += chunk
                    end = buffer.rfind(b"\n") + 1
                    block, buffer = buffer[:end], buffer[end:]
                    kept, stamps = _kept_lines(block, timestamps[-1] if timestamps else None)
                    dropped += block.count(b"\n") - len(stamps)
                    _append(out, kept, stamps, timestamps)
            sock = _connect(host, port, policy)  # the server closed or died
    finally:
        with out:
            os.fsync(out.fileno())
        gaps = compute_gaps(timestamps)
        doc = {
            "n_samples": len(timestamps),
            "first_t": timestamps[0] if timestamps else None,
            "last_t": timestamps[-1] if timestamps else None,
            "gaps": [[start, length] for start, length in gaps],
            "dropped_lines": dropped,
        }
        write_files({sidecar: json.dumps(doc, sort_keys=True, indent=2) + "\n"})

    return RecordingResult(
        path=path,
        sidecar_path=sidecar,
        n_samples=len(timestamps),
        gaps=gaps,
        timestamps=tuple(timestamps),
        dropped_lines=dropped,
    )
