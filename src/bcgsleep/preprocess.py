"""Missing-value imputation and the two series variants downstream code needs.

The sleep/wake segmenter consumes the RAW heart-rate series with zeros and
holes preserved, because a zero HR carries motion information. The staging
pipeline consumes the CLEANED record, where connection gaps and zero-HR
seconds are treated as missing and filled from the nearest neighbor in time
(previous preferred, next only before the first present value).
"""

from __future__ import annotations

import numpy as np

from .core import NightRecord
from .errors import AllMissing


def raw_hr_series(record: NightRecord) -> np.ndarray:
    """Per-second HR over [0, last_t] as float64: zeros preserved, gap
    seconds NaN.

    A zero means the sensor saw motion; a NaN means the second was never
    received. The two are deliberately never conflated.
    """
    series = np.full(max(record.last_t + 1, 0), np.nan)
    series[record.t] = record.vitals[:, 0]
    return series


def clean_for_features(record: NightRecord) -> NightRecord:
    """Materialize one sample per second over [0, last_t] with all holes filled.

    Gap seconds are holes in every signal, and so are seconds with hr == 0
    (the whole second is suspect when the waveform was defective). A hole
    takes the vitals of the nearest previous valid second, or of the first
    valid second when none precedes it. The input record is untouched.
    """
    n = record.last_t + 1
    valid = record.vitals[:, 0] != 0.0
    if n <= 0 or not valid.any():
        raise AllMissing("cannot impute: record has no present value")
    valid_t = record.t[valid]
    source = np.searchsorted(valid_t, np.arange(n), side="right") - 1
    np.maximum(source, 0, out=source)
    return NightRecord(record.night_id, np.arange(n), record.vitals[valid][source])
