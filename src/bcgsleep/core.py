"""Shared domain types: stages, per-second vitals, night records; fork_child,
the one way a process is forked, and fork_map on it, the one way the
pipeline runs work in parallel, starting no thread; spans, the one rule that
cuts work into contiguous runs, one per usable CPU, for fork_map and its
callers alike; and write_files, which writes every artifact but the
recorder's appended NDJSON. The package is POSIX-only, as it needs os.fork.

All types are immutable values after construction and safe to share across
threads. Timestamps are integer seconds from night start (the sensor runs at
1 Hz, so sub-second precision is noise).
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidStageCode, NegativeVital, NonMonotonicTimestamp


class Stage(IntEnum):
    """Four-stage vocabulary in hypnogram display order: wake shallowest,
    deep deepest. The integer codes feed the RMSE metric."""

    WAKE = 0
    REM = 1
    LIGHT = 2
    DEEP = 3

    @classmethod
    def from_name(cls, name: str) -> "Stage":
        """Look up a stage by its lowercase level name (case-insensitive);
        any other name or value is InvalidStageCode."""
        try:
            return _NAME_TO_STAGE[name.lower()]
        except (KeyError, AttributeError):  # AttributeError: not a string
            raise InvalidStageCode(name) from None

    @property
    def level_name(self) -> str:
        return self.name.lower()


# level names in stage-code order: STAGE_NAMES[code] names Stage(code)
STAGE_NAMES = tuple(s.level_name for s in Stage)
N_STAGES = len(STAGE_NAMES)
_NAME_TO_STAGE = dict(zip(STAGE_NAMES, Stage))


def check_stage_codes(codes: np.ndarray, what: str, error=ValueError) -> np.ndarray:
    """The int codes, if all are stage codes 0..N_STAGES-1; else error(message)
    naming what and the first code that is not."""
    bad = codes[(codes < 0) | (codes >= N_STAGES)]
    if bad.size:
        raise error(f"{what}: {bad[0]} is not a stage code 0..{N_STAGES - 1}")
    return codes


def plain_number(text: str) -> str:
    """text stripped of surrounding whitespace, for float() or int() to read.

    Raises ValueError if what remains holds an underscore or a non-ASCII
    character: float() and int() read "1_0" as 10 and Arabic-Indic digits
    as digits, but numpy's text readers and JSON do not, so the CSV readers
    refuse them and every reader shares one number grammar.
    """
    s = text.strip()
    if "_" in s or not s.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return s


VITAL_FIELDS = ("hr", "rr", "sv", "hrv", "b2b")

# Per-second series span 0..last_t, so t is capped at one week of seconds.
MAX_NIGHT_SECONDS = 7 * 24 * 3600


class VitalsSample(NamedTuple):
    """One second of the five post-processed BCG signals: a row of a
    NightRecord, read through NightRecord.samples. Rows are not validated;
    the record validates its columns."""

    t: int
    hr: float
    rr: float
    sv: float
    hrv: float
    b2b: float


@dataclass(frozen=True)
class StageInterval:
    """A contiguous run of one stage: [start_t, start_t + duration)."""

    stage: Stage
    start_t: int
    duration: int

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"interval duration must be > 0, got {self.duration}")

    @property
    def end_t(self) -> int:
        return self.start_t + self.duration


@dataclass(frozen=True, eq=False)
class NightRecord:
    """A time-ordered night of 1 Hz vitals as columns, under a night id.

    t is int64[n], strictly increasing within [0, MAX_NIGHT_SECONDS); vitals
    is float64[n, 5], row i the second t[i], columns in file order
    VITAL_FIELDS. Every vital is finite and non-negative; hr == 0 is the
    sensor's motion-artifact marker (waveform defective), not a physiological
    reading. Both arrays are read-only views. Construction checks the shapes
    (ValueError), then the vitals (NegativeVital), then that t increases
    (NonMonotonicTimestamp) and lies within a week (ValueError).
    """

    night_id: str
    t: np.ndarray
    vitals: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.int64).view()
        vitals = np.asarray(self.vitals, dtype=np.float64).view()
        if vitals.size == 0:
            vitals = vitals.reshape(0, len(VITAL_FIELDS))
        if t.ndim != 1 or vitals.shape != (t.size, len(VITAL_FIELDS)):
            raise ValueError(
                f"need t of shape (n,) and vitals of shape (n, {len(VITAL_FIELDS)}), "
                f"got {t.shape} and {vitals.shape}"
            )
        t.flags.writeable = False
        vitals.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "vitals", vitals)
        fault = night_fault(t, vitals)
        if fault is not None:
            raise fault

    @property
    def samples(self) -> tuple[VitalsSample, ...]:
        """The rows as VitalsSample tuples, built from the columns on each call."""
        return tuple(map(VitalsSample._make, zip(self.t.tolist(), *self.vitals.T.tolist())))

    @property
    def gaps(self) -> tuple[tuple[int, int], ...]:
        """Every missing second strictly between the first and last sample,
        as (start_t, length) runs; for a recording that starts cleanly at t=0
        that is every uncovered second of [0, last_t]."""
        return compute_gaps(self.t)

    @property
    def last_t(self) -> int:
        return int(self.t[-1]) if self.t.size else -1


def night_fault(t: np.ndarray, vitals: np.ndarray, after: Optional[int] = None) -> Optional[Exception]:
    """The error that int64 columns t[n] and float64 vitals[n, 5] break
    first as a night, or None if they are sound: a negative or non-finite
    vital, the first in row-major order (NegativeVital); a t not above the
    one before, or not above after when given (NonMonotonicTimestamp); a t
    outside [0, MAX_NIGHT_SECONDS) (ValueError). NightRecord raises it; the
    recorder keeps a chunk whole only when it is None.
    """
    bad = ~((vitals >= 0) & (vitals < np.inf))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(VITAL_FIELDS))
        return NegativeVital(VITAL_FIELDS[col], t=int(t[row]), value=float(vitals[row, col]))
    if t.size and after is not None and t[0] <= after:
        return NonMonotonicTimestamp(int(t[0]))
    at = np.flatnonzero(np.diff(t) <= 0)
    if at.size:
        return NonMonotonicTimestamp(int(t[at[0] + 1]))
    if t.size and not (t[0] >= 0 and t[-1] < MAX_NIGHT_SECONDS):
        return ValueError(f"sample timestamps {t[0]}..{t[-1]} are not all in "
                          f"[0, {MAX_NIGHT_SECONDS}), the maximum night length")
    return None


def compute_gaps(timestamps: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Runs of missing seconds between consecutive sample timestamps."""
    t = np.asarray(timestamps, dtype=np.int64)
    step = np.diff(t)
    at = np.flatnonzero(step > 1)
    return tuple(zip((t[at] + 1).tolist(), (step[at] - 1).tolist()))


def stage_codes(intervals: Iterable[StageInterval], n: int) -> np.ndarray:
    """One int64 stage code per second over [0, n); seconds covered by no
    interval are -1 (unlabeled). Interval parts outside [0, n) are ignored."""
    codes = np.full(max(n, 0), -1, dtype=np.int64)
    for iv in intervals:
        lo = max(iv.start_t, 0)
        codes[lo : max(iv.end_t, lo)] = int(iv.stage)
    return codes


def write_files(texts) -> None:
    """Write each text of texts, a {path: str or bytes} mapping, to its
    path, every file whole or not at all; a str is written as UTF-8.

    A symlink is followed, so its final target gets the text; a target that
    exists and is not a regular file (a directory, FIFO or device) is
    refused with FileExistsError before anything is written. Each text goes
    to a new file beside its target, created exclusively ("xb") as open()
    creates any file; only once every text is written is each target
    replaced (os.replace). On any failure the new files are removed and the
    error re-raised, so every target keeps its old bytes or stays absent. A
    killed process can leave one <target>.<hex>.tmp file beside its target.
    Nothing is fsynced: surviving a power loss is not promised.
    """
    targets = {os.path.realpath(path): text for path, text in texts.items()}
    for path in targets:
        if os.path.exists(path) and not os.path.isfile(path):
            raise FileExistsError(f"not a regular file, refused as an output: {path}")
    written = []
    try:
        for path, text in targets.items():
            data = text.encode("utf-8") if isinstance(text, str) else text
            tmp = f"{path}.{os.urandom(4).hex()}.tmp"
            with open(tmp, "xb") as fh:
                written.append((tmp, path))
                fh.write(data)
            del data  # a str's encoded copy goes before the next is made
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):  # already replaced
                os.remove(tmp)
        raise


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or os.cpu_count()
    where the platform has no CPU affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Child(NamedTuple):
    """A process fork_child started, the read end of its result pipe, and
    the name its errors give it."""

    pid: int
    read: int
    what: str


# True in a process fork_child started: fork_map there runs a plain loop
_in_child = False


def fork_child(what: str, fn, *args, close=()) -> Child:
    """Fork a child process that closes the file descriptors in close, runs
    fn(*args), sends what fn returned (or the error it raised) back on a
    pipe as one pickle and exits, never returning to the caller's code.

    fn and args reach the child through fork, so only the result is
    pickled. what names the child in errors. join_children reads what every
    child sent, and reaps them.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child_main(what, fn, args, (r, *close), w)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return Child(pid, r, what)


def _child_main(what, fn, args, close, w):
    """The forked child of fork_child: run fn(*args), write (True, its
    value) or (False, its error) to w as one pickle, and exit."""
    global _in_child
    code = 1
    try:
        _in_child = True
        for fd in close:
            os.close(fd)
        try:
            payload = True, fn(*args)
        except BaseException as exc:
            payload = False, exc
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, TypeError(f"{what} cannot pickle its result "
                                                  f"or error: {exc}")))
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _reap_children(children) -> list[int]:
    """Close the result pipe of every child of fork_child in children, then
    wait for each to end; returns their exit codes, negative for a signal."""
    for child in children:
        os.close(child.read)
    return [os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1]) for child in children]


def join_children(children) -> list:
    """What each child of fork_child in children sent, in order: the value
    its fn returned.

    The calling thread reads each pipe to its end in turn, then closes every
    pipe and reaps every child whatever happens (_reap_children), so none
    outlives the call. A child that died before sending is ChildProcessError
    naming its exit status, the first such in order; else the error of the
    first child in order whose fn raised is raised here.
    """
    sent = []
    try:
        for child in children:
            # read whole, then unpickled: unpickling straight from the pipe
            # raised the peak RSS of some cohort-cli rounds by up to 12 MB
            with open(child.read, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                sent.append(pickle.loads(data))
            except Exception as exc:  # cut short if the child died; its exit status tells
                sent.append((False, exc))
            del data
    finally:
        codes = _reap_children(children)
    for child, code in zip(children, codes):
        if code:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"{child.what} ended by {how} before sending its results")
    for ok, value in sent:
        if not ok:
            raise value
    return [value for _, value in sent]


def spans(n: int, min_len: int) -> list[tuple[int, int]]:
    """range(n) cut into contiguous (lo, hi) spans in order: at most one per
    usable CPU, and none shorter than min_len unless there is only one.
    Every split of work across CPUs is sized here."""
    k = max(1, min(usable_cpus(), n // min_len))
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def fork_map(fn, tasks, job=()) -> list:
    """[fn(job, t) for t in tasks], computed in forked worker processes.

    The tasks are cut into contiguous runs, one per worker (spans), and
    each run is forked off as a child (fork_child) that runs it in the same
    plain loop as the serial case and sends its results back as one pickle,
    so fn, job and the tasks reach it through fork and only results and
    errors are pickled. The calling thread collects them (join_children),
    so no pipe or child outlives the call and no thread is started. With
    one run, or inside a forked child (so a worker's own fork_map starts no
    grandchildren), the whole task list is that loop in this process.

    A failed task ends its run. The runs are in task order, so the error
    raised is that of the first failed task, the one the plain loop raises;
    it must pickle, as every BcgSleepError does. A worker that dies before
    sending its results is ChildProcessError naming its exit status.
    """
    tasks = list(tasks)
    runs = spans(len(tasks), 1)
    if len(runs) == 1 or _in_child:
        return _run(fn, job, tasks)
    children = []
    try:
        for w, (lo, hi) in enumerate(runs):
            children.append(fork_child(f"fork_map worker {w}", _run, fn, job, tasks[lo:hi],
                                       close=[c.read for c in children]))
    except BaseException:
        _reap_children(children)
        raise
    return [value for run in join_children(children) for value in run]


def _run(fn, job, tasks) -> list:
    """fork_map's one loop, run by each worker and by the serial case."""
    return [fn(job, t) for t in tasks]
