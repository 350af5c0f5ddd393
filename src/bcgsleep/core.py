"""Shared domain types: stages, per-second vitals, night records; and
fork_map, the one place where the pipeline forks worker processes.

All types are immutable values after construction and safe to share across
threads. Timestamps are integer seconds from night start (the sensor runs at
1 Hz, so sub-second precision is noise).
"""

from __future__ import annotations

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
        """Look up a stage by its lowercase level name (case-insensitive)."""
        try:
            return _NAME_TO_STAGE[name.lower()]
        except KeyError:
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or os.cpu_count()
    where the platform has no CPU affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_map(fn, tasks, job=()) -> list:
    """[fn(job, t) for t in tasks], computed in forked worker processes.

    min(len(tasks), usable_cpus()) workers are forked with os.fork. Worker w
    runs tasks w, w + W, ... in order and writes its results to its own pipe
    as one pickle, so fn, job and the tasks reach it through fork and only
    results and errors are pickled. The calling thread reads the pipes one
    after another and then reaps every child, so no pipe or child outlives
    the call and no thread is started. With one worker, or where the
    platform has no fork, the tasks run in a plain loop in this process.

    A failed task ends its worker's run. The error raised is that of the
    first failed task in task order, the one the plain loop raises; it must
    pickle, as every BcgSleepError does. A worker that dies before sending
    its results is ChildProcessError naming its exit status.
    """
    tasks = list(tasks)
    n_workers = min(len(tasks), usable_cpus())
    if n_workers <= 1 or not hasattr(os, "fork"):
        return [fn(job, t) for t in tasks]
    pids, reads, sent = [], [], []
    try:
        for w in range(n_workers):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _fork_worker(fn, job, tasks[w::n_workers], w, n_workers, reads, wr)
            finally:
                os.close(wr)
            pids.append(pid)
        for r in reads:
            # read whole, then unpickled: unpickling straight from the pipe
            # raised the peak RSS of some cohort-cli rounds by up to 12 MB
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                sent.append(pickle.loads(data))
            except Exception as exc:  # cut short if the worker died; its exit status tells
                sent.append(exc)
            del data
    finally:
        for r in reads:
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = [None] * len(tasks)
    first_failed = None
    for w, (code, payload) in enumerate(zip(codes, sent)):
        if code:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"fork_map worker {w} ended by {how} "
                                    f"before sending its results")
        if isinstance(payload, Exception):
            raise payload
        failed_at, value = payload
        if failed_at is None:
            results[w::n_workers] = value
        elif first_failed is None or failed_at < first_failed[0]:
            first_failed = failed_at, value
    if first_failed is not None:
        raise first_failed[1]
    return results


def _fork_worker(fn, job, tasks, w, n_workers, reads, wr):
    """fork_map's worker w, in the forked child: run its tasks (w, w +
    n_workers, ...), write (None, results) or (index of the failed task,
    its error) to wr as one pickle, and exit, never returning to the
    caller's code."""
    code = 1
    try:
        for r in reads:
            os.close(r)
        results = []
        try:
            for t in tasks:
                results.append(fn(job, t))
            payload = None, results
        except BaseException as exc:
            payload = w + n_workers * len(results), exc
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((w, TypeError(f"fork_map worker {w} cannot pickle its "
                                              f"results or error: {exc}")))
        with open(wr, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)
