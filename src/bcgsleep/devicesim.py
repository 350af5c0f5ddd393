"""Bed-sensor stream simulator and a crash-safe recording client.

The wire protocol is one NDJSON sample per line over plain TCP, 1 Hz by
default. Scripted dropout windows reproduce the two field failure modes:
silent windows (the sensor sends nothing but the link stays up) and
disconnect windows (the link drops and the client must reconnect). The
server's clock keeps running through a dropout, and outside dropouts it
advances only on a successful send, so whatever the script says is lost is
exactly what the recorder's gap log ends up showing.

The server runs one thread, which owns both the listener and the client it
is streaming to. The recorder runs in the caller's thread: it checks every
received line and appends it to the output with a single unbuffered write,
so a kill at any moment leaves only complete, loadable lines behind.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .core import NightRecord, compute_gaps
from .errors import InitialConnectFailure, MalformedRow
from .ingest import parse_sample_line, write_night

SILENCE = "silence"
DISCONNECT = "disconnect"


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


def _coerce_window(w) -> DropoutWindow:
    if isinstance(w, DropoutWindow):
        return w
    return DropoutWindow(*w)


@dataclass(frozen=True)
class StreamScript:
    """What the simulated sensor will send, and when it will fail."""

    source: NightRecord
    dropout_windows: tuple[DropoutWindow, ...] = ()
    tick_interval: float = 1.0

    def __post_init__(self):
        windows = tuple(sorted(
            (_coerce_window(w) for w in self.dropout_windows),
            key=lambda w: w.start_t,
        ))
        object.__setattr__(self, "dropout_windows", windows)
        if self.tick_interval < 0:
            raise ValueError("tick_interval must be >= 0")
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


def _split_endpoint(endpoint: str) -> tuple[str, int]:
    """A "host:port" string as (host, port); an empty host is 127.0.0.1.
    A port that is not an integer in 0..65535 is a ValueError."""
    host, _, text = endpoint.rpartition(":")
    port = int(text)
    if port not in range(65536):
        raise ValueError(f"endpoint port must be in 0..65535, got {endpoint!r}")
    return host or "127.0.0.1", port


class DeviceServer:
    """Streams a script to one client at a time; extra connects are closed.

    One thread owns the listener, the client and the script cursor. It blocks
    while no client is attached (except inside dropout windows, where time
    passes regardless), resends nothing, skips nothing it was not told to
    skip, and closes the listener when the script is exhausted.
    """

    def __init__(self, script: StreamScript, host: str = "127.0.0.1", port: int = 0):
        self.script = script
        self._listener = socket.create_server((host, port))
        # accept() polls so that the serving thread notices stop()
        self._listener.settimeout(0.1)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self.finished = threading.Event()
        self._sent: list[int] = []
        self._serve_thread = threading.Thread(target=self._serve_loop, daemon=True)

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def sent_timestamps(self) -> list[int]:
        return list(self._sent)

    def start(self) -> "DeviceServer":
        self._serve_thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._serve_thread.ident is None:
            self._listener.close()  # never started: nothing else will close it
        else:
            self._serve_thread.join(timeout=10)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.finished.wait(timeout)

    def _tick(self):
        if self.script.tick_interval > 0:
            time.sleep(self.script.tick_interval)

    def _close_extras(self):
        # one client at a time: whoever connects while one is attached is cut
        while select.select([self._listener], [], [], 0)[0]:
            try:
                extra, _ = self._listener.accept()
            except TimeoutError:
                return
            extra.close()

    def _next_client(self) -> Optional[socket.socket]:
        while not self._stop.is_set():
            try:
                return self._listener.accept()[0]
            except TimeoutError:
                continue
        return None

    def _serve_loop(self):
        conn: Optional[socket.socket] = None
        try:
            source = self.script.source
            for t, line in zip(source.t.tolist(), write_night(source, "ndjson")):
                if self._stop.is_set():
                    return
                window = self.script.window_at(t)
                if window is not None:
                    if window.mode == DISCONNECT and conn is not None:
                        conn.close()
                        conn = None
                    self._tick()
                    continue
                payload = (line + "\n").encode("ascii")
                while not self._stop.is_set():
                    if conn is None:
                        conn = self._next_client()
                        if conn is None:
                            return
                    self._close_extras()
                    try:
                        conn.sendall(payload)
                        self._sent.append(t)
                        break
                    except OSError:
                        conn.close()
                        conn = None
                self._tick()
        finally:
            if conn is not None:
                conn.close()
            # Closing the listener resets any connection still in its
            # backlog, so a reconnect that raced the end of the script sees
            # the stream end instead of blocking on read forever.
            self._listener.close()
            self.finished.set()


def serve_stream(script: StreamScript, endpoint: str = "127.0.0.1:0") -> DeviceServer:
    """Bind and start a server; raises OSError if the endpoint is not bindable."""
    host, port = _split_endpoint(endpoint)
    return DeviceServer(script, host, port).start()


@dataclass(frozen=True)
class RetryPolicy:
    """Reconnect cadence after a drop; the deadline bounds each outage."""

    retry_interval: float = 1.0
    deadline: float = 30.0

    def __post_init__(self):
        if self.retry_interval <= 0 or self.deadline <= 0:
            raise ValueError("retry policy values must be positive")


@dataclass(frozen=True)
class RecordingResult:
    path: str
    sidecar_path: str
    n_samples: int
    gaps: tuple[tuple[int, int], ...]
    timestamps: tuple[int, ...] = field(repr=False)
    dropped_lines: int = 0


def _try_connect(host: str, port: int, timeout: float) -> Optional[socket.socket]:
    try:
        return socket.create_connection((host, port), timeout=timeout)
    except OSError:
        return None


def _kept_t(raw: bytes, last_t: Optional[int]) -> Optional[int]:
    """The t of a received line that load_night would accept after last_t,
    or None if the line must be dropped: malformed, a vital that is negative
    or not finite, or a t not above last_t."""
    try:
        row = parse_sample_line(raw.decode("utf-8"), 0)
    except (UnicodeDecodeError, MalformedRow):
        return None
    if last_t is not None and row[0] <= last_t:
        return None
    if not all(0.0 <= v < math.inf for v in row[1:]):
        return None
    return row[0]


def _write_sidecar(sidecar: str, timestamps: list[int], gaps, dropped: int):
    doc = {
        "n_samples": len(timestamps),
        "first_t": timestamps[0] if timestamps else None,
        "last_t": timestamps[-1] if timestamps else None,
        "gaps": [[start, length] for start, length in gaps],
        "dropped_lines": dropped,
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    (dropped_lines), so the file always loads. A drop triggers reconnects
    every policy.retry_interval seconds; when an outage outlasts
    policy.deadline the recording ends (normally if anything was ever
    received, with InitialConnectFailure if the first connection never
    happened). The end of the script looks like a final outage, so every
    run ends that way. Once the output is open, the sidecar is written
    however the run ends.
    """
    host, port = _split_endpoint(endpoint)
    path = str(output_path)
    sidecar = path + ".gaps.json"
    out = open(path, "wb", buffering=0)
    timestamps: list[int] = []
    dropped = 0
    connected_once = False
    try:
        while True:
            outage_start = time.monotonic()
            sock = None
            while sock is None:
                sock = _try_connect(host, port, timeout=max(policy.retry_interval, 0.05))
                if sock is not None:
                    break
                if time.monotonic() - outage_start >= policy.deadline:
                    break
                time.sleep(policy.retry_interval)
            if sock is None:
                if not connected_once:
                    raise InitialConnectFailure(f"{host}:{port}", policy.deadline)
                break
            connected_once = True
            sock.settimeout(None)
            with sock, sock.makefile("rb") as stream:
                while True:
                    try:
                        raw = stream.readline()
                    except OSError:
                        break  # a reset is just a less polite disconnect
                    if not raw.endswith(b"\n"):
                        break  # closed, or the partial tail of a mid-line drop
                    t = _kept_t(raw, timestamps[-1] if timestamps else None)
                    if t is None:
                        dropped += 1
                        continue
                    out.write(raw)
                    timestamps.append(t)
            # server closed or died; loop back into connect-retry
    finally:
        with out:
            os.fsync(out.fileno())
        gaps = compute_gaps(timestamps)
        _write_sidecar(sidecar, timestamps, gaps, dropped)

    return RecordingResult(
        path=path,
        sidecar_path=sidecar,
        n_samples=len(timestamps),
        gaps=gaps,
        timestamps=tuple(timestamps),
        dropped_lines=dropped,
    )
