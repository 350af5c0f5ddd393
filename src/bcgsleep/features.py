"""Sliding-window feature extraction, standardization, and variance analysis.

Every 10-second window of a cleaned night yields 30 summary statistics,
signal-major over (hr, rr, sv, b2b, hrv) x (mean, median, max, min, std, p75).
A window is kept only when all ten of its seconds carry the same stage label;
windows that span a stage boundary (or touch unlabeled seconds) represent
neither stage and are discarded.

Percentiles are linear interpolation at rank p*(n-1) over the sorted values
(numpy's default); std is the population standard deviation.

Feature files are CSV: the header FEATURE_CSV_HEADER, then 30 statistics and
a stage name per window. windows_to_csv formats a large table in
contiguous blocks, one per usable CPU, in forked workers. load_feature_csv
reads a file in bulk; parse_feature_csv, the per-line parser, reads what the
bulk read refuses and owns every diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    STAGE_NAMES,
    VITAL_FIELDS,
    NightRecord,
    Stage,
    fork_map,
    plain_number,
    usable_cpus,
)
from .errors import DegenerateMatrix, EmptyMatrix, InvalidStageCode, MalformedRow

SIGNAL_ORDER = ("hr", "rr", "sv", "b2b", "hrv")
STAT_ORDER = ("mean", "median", "max", "min", "std", "p75")
# record.vitals columns in SIGNAL_ORDER
SIGNAL_COLUMNS = [VITAL_FIELDS.index(sig) for sig in SIGNAL_ORDER]
FEATURE_NAMES = tuple(f"{sig}_{stat}" for sig in SIGNAL_ORDER for stat in STAT_ORDER)
N_FEATURES = len(FEATURE_NAMES)
WINDOW_LEN = 10

FEATURE_CSV_HEADER = ",".join(FEATURE_NAMES + ("label",))
# One feature CSV row for np.loadtxt. The stage name is a Python str, since
# a fixed-width numpy string would drop a trailing NUL that the per-line
# parser rejects.
_CSV_ROW = np.dtype([("x", np.float64, (N_FEATURES,)), ("label", object)])
# windows_to_csv formats no block of fewer rows in a worker: below this a
# fork and the pickled text cost more than the second CPU saves
_MIN_CSV_BLOCK_ROWS = 4096


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
    """(len(starts), 30) statistics, in FEATURE_NAMES order, of the windows
    of a cleaned record (one sample per second) that begin at each start;
    each signal's windows are views of its column of record.vitals."""
    if not len(starts):
        return np.empty((0, N_FEATURES))
    if len(record.t) != record.last_t + 1:
        raise ValueError("record has holes; clean_for_features it first")
    blocks = []
    for col in SIGNAL_COLUMNS:
        windows = np.lib.stride_tricks.sliding_window_view(record.vitals[:, col], WINDOW_LEN)
        blocks.append(_window_stats(windows[starts]))
    return np.hstack(blocks)


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


def _csv_block(windows: FeatureTable, rows: tuple[int, int]) -> str:
    """CSV lines of the windows rows[0]:rows[1], joined by newlines."""
    lo, hi = rows
    return "\n".join(
        ",".join(map(repr, stats)) + "," + STAGE_NAMES[code]
        for stats, code in zip(windows.x[lo:hi].tolist(), windows.y[lo:hi].tolist())
    )


def windows_to_csv(windows: FeatureTable):
    """Feature windows as CSV lines: the header, then per window its 30
    statistics and its stage name.

    Formatting the floats is most of the cost, so a table of at least
    2 * _MIN_CSV_BLOCK_ROWS windows is cut into contiguous blocks, one per
    usable CPU and none shorter than that, formatted in forked workers
    (core.fork_map). The lines are the same whoever formats them.
    """
    yield FEATURE_CSV_HEADER
    n = len(windows)
    if not n:
        return
    blocks = max(1, min(usable_cpus(), n // _MIN_CSV_BLOCK_ROWS))
    bounds = [(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]
    texts = fork_map(_csv_block, bounds, windows)
    texts.reverse()
    while texts:  # each block's text is freed once split into its lines
        yield from texts.pop().split("\n")


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
            rows.append([float(plain_number(p)) for p in parts[:-1]])
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


def _bulk_feature_csv(fh, night_id: str):
    """The table parse_feature_csv would read from fh, read with one
    np.loadtxt after the header, or None if that read objects to anything
    or finds a value parse_feature_csv would reject."""
    try:
        if fh.readline().strip() != FEATURE_CSV_HEADER:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "no data"
            rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None,
                              encoding="utf-8", ndmin=1)
        names, inverse = np.unique(rows["label"], return_inverse=True)
        codes = np.array([Stage.from_name(name) for name in names.tolist()], dtype=np.int64)
    except (ValueError, UserWarning, InvalidStageCode):
        return None
    x = np.ascontiguousarray(rows["x"])
    if not np.isfinite(x).all():
        return None
    y = codes[inverse]
    return _table(x, y, np.arange(len(y), dtype=np.int64), night_id)


def load_feature_csv(path, night_id: str = "") -> FeatureTable:
    """Read a feature CSV file as parse_feature_csv reads it, bit for bit.

    The rows after the header are read in bulk. A file the bulk read
    refuses (an empty body, a cell that is not a finite number, an unknown
    stage name, a row of another width, text that is not UTF-8) is read
    again by parse_feature_csv, which raises its diagnostic.
    """
    with open(path, "r", encoding="utf-8") as fh:
        table = _bulk_feature_csv(fh, night_id)
        if table is None:
            fh.seek(0)
            table = parse_feature_csv(fh, night_id)
    return table
