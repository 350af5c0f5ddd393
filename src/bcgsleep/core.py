"""Shared domain types: stages, per-second vitals, night records.

All types are immutable values after construction and safe to share across
threads. Timestamps are integer seconds from night start (the sensor runs at
1 Hz, so sub-second precision is noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import IntEnum
from typing import Optional, Sequence

from .errors import InvalidStageCode, NegativeVital

EPOCH_ZERO = datetime(1970, 1, 1, tzinfo=timezone.utc)


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


_NAME_TO_STAGE = {s.name.lower(): s for s in Stage}


_VITAL_FIELDS = ("hr", "rr", "sv", "hrv", "b2b")


@dataclass(frozen=True)
class VitalsSample:
    """One second of the five post-processed BCG signals.

    hr == 0 is the sensor's motion-artifact marker (waveform defective), not
    a physiological reading; the other four fields may still be present.
    """

    t: int
    hr: float
    rr: float
    sv: float
    hrv: float
    b2b: float

    def __post_init__(self):
        for name in _VITAL_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, float):
                object.__setattr__(self, name, float(v))
                v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise NegativeVital(name, t=self.t, value=v)

    @property
    def motion_invalid(self) -> bool:
        """True iff the sensor flagged this second with a zero HR."""
        return self.hr == 0.0

    def vitals(self) -> tuple[float, float, float, float, float]:
        return (self.hr, self.rr, self.sv, self.hrv, self.b2b)


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


@dataclass(frozen=True)
class NightRecord:
    """A time-ordered night of samples plus provenance.

    gaps enumerate every missing second strictly between the first and last
    sample, as (start_t, length) runs; for a recording that starts cleanly at
    t=0 that is every uncovered second of [0, last_t].
    """

    night_id: str
    subject_id: str
    start_epoch: datetime
    samples: tuple[VitalsSample, ...]
    gaps: tuple[tuple[int, int], ...] = ()
    labels: Optional[tuple[StageInterval, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "gaps", tuple(tuple(g) for g in self.gaps))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        prev = None
        for s in self.samples:
            if prev is not None and s.t <= prev:
                raise ValueError(f"sample timestamps not strictly increasing at t={s.t}")
            prev = s.t

    @property
    def first_t(self) -> int:
        return self.samples[0].t if self.samples else 0

    @property
    def last_t(self) -> int:
        return self.samples[-1].t if self.samples else -1

    @property
    def span_seconds(self) -> int:
        """Seconds covered from first to last sample inclusive (0 if empty)."""
        return self.last_t - self.first_t + 1 if self.samples else 0

    def total_gap_seconds(self) -> int:
        return sum(length for _, length in self.gaps)


def compute_gaps(timestamps: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Runs of missing seconds between consecutive sample timestamps."""
    gaps = []
    for prev, cur in zip(timestamps, timestamps[1:]):
        if cur - prev > 1:
            gaps.append((prev + 1, cur - prev - 1))
    return tuple(gaps)
