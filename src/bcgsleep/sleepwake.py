"""Training-free asleep/awake segmentation over 30-second epochs.

Each epoch is scored against a moving threshold: the mean of the previous
three minutes of valid heart-rate samples plus a scalar times their
(population) standard deviation. The first three minutes are forced awake;
epochs whose lookback still overlaps that forced prefix use scalar -1, later
epochs use +2. An epoch is asleep when more than half of its samples sit
strictly below the threshold, unless more than ten zero-HR samples (motion
artifacts) force it awake.

Zeros and holes are excluded from the threshold statistics, and zeros are
excluded from the below-threshold count: a defective waveform is evidence of
motion, not of a low heart rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import NightRecord
from .errors import TooFewItems
from .preprocess import raw_hr_series

# The paper's constants. BELOW_MAJORITY and ZERO_LIMIT are counts that must
# be EXCEEDED: asleep needs at least 16 of 30 below, and 11 zeros force awake.
EPOCH_LEN = 30
LOOKBACK = 180
FORCED_AWAKE_PREFIX = 180
SCALAR_EARLY = -1.0
SCALAR_LATE = 2.0
BELOW_MAJORITY = 15
ZERO_LIMIT = 10


class WakeState(Enum):
    AWAKE = "awake"
    ASLEEP = "asleep"


@dataclass(frozen=True)
class SleepWakeEpoch:
    """One scored 30-second epoch with the evidence counts behind it."""

    index: int
    start_t: int
    state: WakeState
    threshold: Optional[float]
    n_below: int
    n_zero: int
    n_present: int

    @property
    def asleep(self) -> bool:
        return self.state is WakeState.ASLEEP


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as Python's sum adds (np.sum pairs)."""
    return np.cumsum(a, axis=1)[:, -1] if a.shape[1] else np.zeros(len(a))


def _thresholds(lookbacks: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    """mean + scalar * population std over the valid samples of each row.

    Valid means present (not NaN) and nonzero; a row with none gives NaN.
    Invalid slots add 0.0 and deviations are squared with pow, so each value
    equals the plain-Python loop over the row's valid samples bit for bit.
    """
    valid = lookbacks > 0.0
    n = valid.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = _sum_rows(np.where(valid, lookbacks, 0.0)) / n
        dev = np.where(valid, lookbacks - mean[:, None], 0.0)
        var = _sum_rows(np.float_power(dev, 2.0)) / n
    return mean + scalars * np.sqrt(var)


def _classify(epochs: np.ndarray, thresholds: np.ndarray):
    """(asleep, n_below, n_zero, n_present) of each row of per-second HR.

    Holes (NaN) count toward no tally; zeros are motion, never below. A NaN
    threshold leaves nothing below, so the epoch is awake.
    """
    zero = epochs == 0.0
    n_below = ((epochs < thresholds[:, None]) & ~zero).sum(axis=1)
    n_zero = zero.sum(axis=1)
    n_present = (~np.isnan(epochs)).sum(axis=1)
    asleep = (n_below > BELOW_MAJORITY) & (n_zero <= ZERO_LIMIT)
    return asleep, n_below, n_zero, n_present


def _row(values: Sequence[Optional[float]]) -> np.ndarray:
    """One sequence of HR values (None or NaN for holes) as a (1, n) row."""
    return np.asarray(values, dtype=float).reshape(1, -1)


def moving_threshold(
    lookback_hr: Sequence[Optional[float]], scalar: float
) -> Optional[float]:
    """mean + scalar * population std over the valid samples of a lookback.

    Valid means present (not a hole) and nonzero. Returns None when the
    lookback holds no valid sample.
    """
    thr = float(_thresholds(_row(lookback_hr), np.array([scalar]))[0])
    return None if math.isnan(thr) else thr


def classify_epoch(
    epoch_hr: Sequence[Optional[float]], threshold: Optional[float]
) -> tuple[WakeState, int, int, int]:
    """Score one epoch; returns (state, n_below, n_zero, n_present).

    Holes count toward neither tally. With an undefined threshold there is
    no evidence of sleep, so the epoch is awake (zeros still counted).
    """
    thr = np.array([np.nan if threshold is None else threshold])
    asleep, n_below, n_zero, n_present = _classify(_row(epoch_hr), thr)
    state = WakeState.ASLEEP if asleep[0] else WakeState.AWAKE
    return state, int(n_below[0]), int(n_zero[0]), int(n_present[0])


def run_night(record: NightRecord) -> list[SleepWakeEpoch]:
    """Segment a whole night into scored epochs.

    The record must span at least the forced-awake prefix. A trailing
    partial epoch is dropped, not padded.
    """
    series = raw_hr_series(record)
    if series.size < FORCED_AWAKE_PREFIX:
        raise TooFewItems(series.size, FORCED_AWAKE_PREFIX, "seconds of night")
    n_epochs = series.size // EPOCH_LEN
    epochs = series[: n_epochs * EPOCH_LEN].reshape(n_epochs, EPOCH_LEN)
    starts = np.arange(n_epochs) * EPOCH_LEN
    forced = FORCED_AWAKE_PREFIX // EPOCH_LEN
    scored = starts[forced:]
    # the early scalar applies while the lookback still overlaps the prefix
    scalars = np.where(scored < FORCED_AWAKE_PREFIX + LOOKBACK, SCALAR_EARLY, SCALAR_LATE)
    lookbacks = np.lib.stride_tricks.sliding_window_view(series, LOOKBACK)[scored - LOOKBACK]
    thresholds = np.full(n_epochs, np.nan)
    thresholds[forced:] = _thresholds(lookbacks, scalars)
    asleep, n_below, n_zero, n_present = _classify(epochs, thresholds)
    return [
        SleepWakeEpoch(
            i, start, WakeState.ASLEEP if a else WakeState.AWAKE,
            None if math.isnan(thr) else thr, below, zero, present,
        )
        for i, (start, a, thr, below, zero, present) in enumerate(zip(
            starts.tolist(), asleep.tolist(), thresholds.tolist(),
            n_below.tolist(), n_zero.tolist(), n_present.tolist(),
        ))
    ]


def sleep_efficiency(epochs: Sequence[SleepWakeEpoch]) -> float:
    """Asleep epochs over total bedtime epochs."""
    if not epochs:
        raise TooFewItems(0, 1, "epochs")
    return sum(1 for e in epochs if e.asleep) / len(epochs)


def sleep_onset_latency(epochs: Sequence[SleepWakeEpoch]) -> Optional[int]:
    """Seconds from record start to the first asleep epoch; None if never slept."""
    for e in epochs:
        if e.asleep:
            return e.start_t
    return None


def waso(epochs: Sequence[SleepWakeEpoch]) -> int:
    """Wake-after-sleep-onset: awake seconds strictly after the first asleep
    epoch; 0 when sleep never began."""
    onset_seen = False
    awake_epochs = 0
    for e in epochs:
        if e.asleep:
            onset_seen = True
        elif onset_seen:
            awake_epochs += 1
    return awake_epochs * EPOCH_LEN


EPOCH_CSV_HEADER = "index,start_t,state,threshold,n_below,n_zero"


def epochs_to_csv(epochs: Iterable[SleepWakeEpoch]) -> Iterable[str]:
    """Export scored epochs as CSV lines (threshold blank when undefined)."""
    yield EPOCH_CSV_HEADER
    for e in epochs:
        thr = "" if e.threshold is None else repr(e.threshold)
        yield f"{e.index},{e.start_t},{e.state.value},{thr},{e.n_below},{e.n_zero}"
