"""Sliding-window feature extraction, standardization, and variance analysis.

Every 10-second window of a cleaned night yields 30 summary statistics,
signal-major over (hr, rr, sv, b2b, hrv) x (mean, median, max, min, std, p75).
A window is kept only when all ten of its seconds carry the same stage label;
windows that span a stage boundary (or touch unlabeled seconds) represent
neither stage and are discarded.

Percentiles are linear interpolation at rank p*(n-1) over the sorted values
(numpy's default); std is the population standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import STAGE_NAMES, VITAL_FIELDS, NightRecord, Stage
from .errors import DegenerateMatrix, EmptyMatrix, MalformedRow

SIGNAL_ORDER = ("hr", "rr", "sv", "b2b", "hrv")
STAT_ORDER = ("mean", "median", "max", "min", "std", "p75")
# record.vitals columns in SIGNAL_ORDER
SIGNAL_COLUMNS = [VITAL_FIELDS.index(sig) for sig in SIGNAL_ORDER]
FEATURE_NAMES = tuple(f"{sig}_{stat}" for sig in SIGNAL_ORDER for stat in STAT_ORDER)
N_FEATURES = len(FEATURE_NAMES)
WINDOW_LEN = 10

FEATURE_CSV_HEADER = ",".join(FEATURE_NAMES + ("label",))


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Kept windows as columns; row i of every column is one window.

    x is float64 (n, 30) in FEATURE_NAMES order, y the int64 stage codes,
    start_t each window's first second (int64) and night_id its night (str).
    Indexing with an index array or boolean mask selects rows, in order; an
    integer gives one row with scalar fields.
    """

    x: np.ndarray
    y: np.ndarray
    start_t: np.ndarray
    night_id: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "FeatureTable":
        return FeatureTable(
            self.x[rows], self.y[rows], self.start_t[rows], self.night_id[rows]
        )

    @classmethod
    def concat(cls, tables: Sequence["FeatureTable"]) -> "FeatureTable":
        """Stack tables row-wise, in the order given."""
        return cls(
            np.concatenate([t.x for t in tables]),
            np.concatenate([t.y for t in tables]),
            np.concatenate([t.start_t for t in tables]),
            np.concatenate([t.night_id for t in tables]),
        )


def _table(x: np.ndarray, y: np.ndarray, start_t: np.ndarray, night_id: str) -> FeatureTable:
    return FeatureTable(x, y, start_t, np.full(len(y), night_id))


def compute_stats(values: Sequence[float]) -> tuple[float, ...]:
    """(mean, median, max, min, population std, 75th percentile) of 10 values."""
    v = np.asarray(values, dtype=float)
    if v.shape != (WINDOW_LEN,):
        raise ValueError(f"expected exactly {WINDOW_LEN} values, got {v.shape}")
    return tuple(_window_stats(v[None, :])[0].tolist())


def _window_stats(windows: np.ndarray) -> np.ndarray:
    """Stack the six statistics for an (n, 10) array of windows -> (n, 6).

    One sort gives the order statistics, in the same arithmetic as numpy's:
    the median of ten values is the mean of ranks 4 and 5, and p75 sits at
    rank 6.75, which numpy's lerp computes from the upper value as
    b - (b - a) * 0.25. Mean and std sum the unsorted windows, since their
    summation order shows in the last bit.
    """
    s = np.sort(windows, axis=1)
    return np.column_stack(
        [
            np.mean(windows, axis=1),
            np.mean(s[:, 4:6], axis=1),
            s[:, -1],
            s[:, 0],
            np.std(windows, axis=1),
            s[:, 7] - (s[:, 7] - s[:, 6]) * 0.25,
        ]
    )


def candidate_starts(record: NightRecord) -> range:
    """One candidate window per start second, stride 1."""
    return range(0, record.last_t - WINDOW_LEN + 2)


def kept_starts(codes: np.ndarray) -> np.ndarray:
    """Ascending int64 starts of the windows whose WINDOW_LEN seconds all
    carry one identical stage code (never -1, unlabeled)."""
    if len(codes) < WINDOW_LEN:
        return np.empty(0, dtype=np.int64)
    label_windows = np.lib.stride_tricks.sliding_window_view(codes, WINDOW_LEN)
    lo = label_windows.min(axis=1)
    hi = label_windows.max(axis=1)
    return np.nonzero((lo == hi) & (lo >= 0))[0]


def window_rows(record: NightRecord, starts: np.ndarray) -> np.ndarray:
    """(len(starts), 30) statistics of the windows of a cleaned record (one
    sample per second) that begin at each start."""
    if not len(starts):
        return np.empty((0, N_FEATURES))
    if len(record.t) != record.last_t + 1:
        raise ValueError("record has holes; clean_for_features it first")
    return feature_matrix_for_starts(record.vitals[:, SIGNAL_COLUMNS], starts)


def window_night(record: NightRecord, labels) -> FeatureTable:
    """Extract labeled feature windows from a cleaned record.

    labels holds one stage code per second over [0, last_t], -1 where
    unlabeled (as align_labels returns); the windows kept are kept_starts'.
    """
    n = record.last_t + 1
    codes = np.asarray(labels, dtype=np.int64)
    if len(codes) != n:
        raise ValueError(f"need one label per second: {len(codes)} != {n}")
    starts = kept_starts(codes)
    return _table(window_rows(record, starts), codes[starts], starts, record.night_id)


def feature_matrix_for_starts(matrix: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(len(starts), 30) statistics for the windows beginning at each start."""
    blocks = []
    for col in range(matrix.shape[1]):
        windows = np.lib.stride_tricks.sliding_window_view(matrix[:, col], WINDOW_LEN)
        blocks.append(_window_stats(windows[starts]))
    return np.hstack(blocks)


def windows_to_matrix(windows: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of a window table, y as integer stage codes."""
    return windows.x, windows.y


def standardize_fit(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, population std); zero-variance columns get std 1."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise EmptyMatrix()
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def standardize_apply(
    matrix: np.ndarray, params: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    mean, std = params
    return (np.asarray(matrix, dtype=float) - mean) / std


def pca_explained_variance(matrix: np.ndarray) -> list[float]:
    """Explained-variance ratios of the columns' covariance, descending.

    Ratios are eigenvalues of the sample covariance matrix divided by their
    sum; they are nonnegative and sum to 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise EmptyMatrix()
    cov = np.cov(matrix, rowvar=False)
    cov = np.atleast_2d(cov)
    if not np.any(cov):
        raise DegenerateMatrix()
    eigvals = np.linalg.eigvalsh(cov)
    eigvals = np.clip(eigvals, 0.0, None)
    ratios = eigvals / eigvals.sum()
    return [float(r) for r in sorted(ratios, reverse=True)]


def windows_to_csv(windows: FeatureTable):
    """Feature windows as CSV lines: 30 statistics then the stage name."""
    yield FEATURE_CSV_HEADER
    for stats, code in zip(windows.x.tolist(), windows.y.tolist()):
        yield ",".join(map(repr, stats)) + "," + STAGE_NAMES[code]


def parse_feature_csv(lines, night_id: str = "") -> FeatureTable:
    """Read windows back from the 31-column CSV; every row gets night_id.

    start_t is not persisted, so rows are numbered 0..n-1. A cell that is
    not a finite number is MalformedRow at its line.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None or header.strip() != FEATURE_CSV_HEADER:
        raise MalformedRow(1, "bad feature csv header")
    rows, codes, line_nos = [], [], []
    for i, line in enumerate(it):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != N_FEATURES + 1:
            raise MalformedRow(i + 2, f"expected {N_FEATURES + 1} columns")
        try:
            rows.append([float(p) for p in parts[:-1]])
        except ValueError as exc:
            raise MalformedRow(i + 2, str(exc)) from exc
        codes.append(int(Stage.from_name(parts[-1])))
        line_nos.append(i + 2)
    x = np.array(rows, dtype=float).reshape(len(rows), N_FEATURES)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise MalformedRow(line_nos[bad[0]], "feature values must be finite")
    y = np.array(codes, dtype=np.int64)
    return _table(x, y, np.arange(len(y), dtype=np.int64), night_id)
