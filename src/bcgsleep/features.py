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
from typing import Optional, Sequence

import numpy as np

from .core import NightRecord, Stage
from .errors import DegenerateMatrix, EmptyMatrix, MalformedRow

SIGNAL_ORDER = ("hr", "rr", "sv", "b2b", "hrv")
STAT_ORDER = ("mean", "median", "max", "min", "std", "p75")
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


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile at rank p*(n-1), p in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), p))


def compute_stats(values: Sequence[float]) -> tuple[float, ...]:
    """(mean, median, max, min, population std, 75th percentile) of 10 values."""
    v = np.asarray(values, dtype=float)
    if v.shape != (WINDOW_LEN,):
        raise ValueError(f"expected exactly {WINDOW_LEN} values, got {v.shape}")
    return (
        float(np.mean(v)),
        float(np.median(v)),
        float(np.max(v)),
        float(np.min(v)),
        float(np.std(v)),
        float(np.percentile(v, 75)),
    )


def _signal_matrix(record: NightRecord) -> np.ndarray:
    """(n_seconds, 5) matrix in SIGNAL_ORDER; requires one sample per second."""
    n = record.last_t + 1
    if len(record.samples) != n:
        raise ValueError("record has holes; clean_for_features it first")
    out = np.empty((n, len(SIGNAL_ORDER)), dtype=float)
    for i, s in enumerate(record.samples):
        out[i, 0] = s.hr
        out[i, 1] = s.rr
        out[i, 2] = s.sv
        out[i, 3] = s.b2b
        out[i, 4] = s.hrv
    return out


def _window_stats(windows: np.ndarray) -> np.ndarray:
    """Stack the six statistics for an (n, 10) array of windows -> (n, 6)."""
    return np.column_stack(
        [
            np.mean(windows, axis=1),
            np.median(windows, axis=1),
            np.max(windows, axis=1),
            np.min(windows, axis=1),
            np.std(windows, axis=1),
            np.percentile(windows, 75, axis=1),
        ]
    )


def candidate_starts(record: NightRecord) -> range:
    """One candidate window per start second, stride 1."""
    return range(0, record.last_t - WINDOW_LEN + 2)


def window_night(
    record: NightRecord,
    labels: Sequence[Optional[Stage]],
    window_len: int = WINDOW_LEN,
) -> FeatureTable:
    """Extract labeled feature windows from a cleaned record.

    labels is the per-second alignment over [0, last_t]. A candidate is kept
    iff all window_len of its seconds carry one identical stage label.
    """
    if window_len != WINDOW_LEN:
        raise ValueError("window length is fixed at 10 seconds")
    n = record.last_t + 1
    if len(labels) != n:
        raise ValueError(f"need one label per second: {len(labels)} != {n}")

    codes = np.array([-1 if s is None else int(s) for s in labels], dtype=np.int64)
    starts = np.empty(0, dtype=np.int64)
    if n >= window_len:
        label_windows = np.lib.stride_tricks.sliding_window_view(codes, window_len)
        lo = label_windows.min(axis=1)
        hi = label_windows.max(axis=1)
        starts = np.nonzero((lo == hi) & (lo >= 0))[0]
    stats = np.empty((0, N_FEATURES))
    if starts.size:
        stats = feature_matrix_for_starts(_signal_matrix(record), starts)
    return _table(stats, codes[starts], starts, record.night_id)


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


_LEVEL_NAMES = tuple(s.level_name for s in Stage)


def windows_to_csv(windows: FeatureTable):
    """Feature windows as CSV lines: 30 statistics then the stage name."""
    yield FEATURE_CSV_HEADER
    for stats, code in zip(windows.x.tolist(), windows.y.tolist()):
        yield ",".join(map(repr, stats)) + "," + _LEVEL_NAMES[code]


def parse_feature_csv(lines, night_id: str = "") -> FeatureTable:
    """Read windows back from the 31-column CSV; every row gets night_id.

    start_t is not persisted, so rows are numbered 0..n-1.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None or header.strip() != FEATURE_CSV_HEADER:
        raise MalformedRow(1, "bad feature csv header")
    rows, codes = [], []
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
    x = np.array(rows, dtype=float).reshape(len(rows), N_FEATURES)
    y = np.array(codes, dtype=np.int64)
    return _table(x, y, np.arange(len(y), dtype=np.int64), night_id)
