"""Shared domain types: stages, per-second vitals, night records.

All types are immutable values after construction and safe to share across
threads. Timestamps are integer seconds from night start (the sensor runs at
1 Hz, so sub-second precision is noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

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
_NAME_TO_STAGE = dict(zip(STAGE_NAMES, Stage))


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
        # the first negative or non-finite vital in row-major order
        bad = ~(vitals >= 0) | np.isinf(vitals)
        if bad.any():
            row, col = divmod(int(np.argmax(bad)), len(VITAL_FIELDS))
            raise NegativeVital(VITAL_FIELDS[col], t=int(t[row]), value=float(vitals[row, col]))
        at = np.flatnonzero(np.diff(t) <= 0)
        if at.size:
            raise NonMonotonicTimestamp(int(t[at[0] + 1]))
        if t.size and not (t[0] >= 0 and t[-1] < MAX_NIGHT_SECONDS):
            raise ValueError(f"sample timestamps {t[0]}..{t[-1]} are not all in "
                             f"[0, {MAX_NIGHT_SECONDS}), the maximum night length")

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
