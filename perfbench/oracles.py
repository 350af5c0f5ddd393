"""Reference computations the checks compare the program's outputs against.

Everything here is written from the documented file formats and the method's
definitions, without calling bcgsleep: night files are parsed with ``json``,
the moving-threshold rule and the window statistics are recomputed with
numpy or plain Python, and gaps are merged from interval lists.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

VITALS = ("hr", "rr", "sv", "hrv", "b2b")  # field order of a night file line
EPOCH = 30
LOOKBACK = 180
PREFIX_EPOCHS = 6  # the first three minutes are forced awake
WINDOW = 10
LEVELS = {"wake": 0, "rem": 1, "light": 2, "deep": 3}


def parse_night_file(path) -> tuple[np.ndarray, np.ndarray]:
    """(t int64[n], vitals float64[n, 5] in VITALS order) from an NDJSON night."""
    ts, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            ts.append(obj["t"])
            rows.append([obj[k] for k in VITALS])
    return np.array(ts, dtype=np.int64), np.array(rows, dtype=float).reshape(-1, 5)


def per_second(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Values spread over [0, last_t]; seconds never received are NaN."""
    out = np.full((int(t[-1]) + 1,) + values.shape[1:], np.nan)
    out[t] = values
    return out


def sleepwake_epochs(t: np.ndarray, hr: np.ndarray):
    """(asleep bool[e], n_below int[e], n_zero int[e]) by the moving-threshold
    rule: threshold = mean + s * population std of the valid (present,
    nonzero) heart rates of the previous 180 s, s = -1 while that lookback
    overlaps the forced-awake first 180 s and +2 after; asleep iff more than
    15 valid samples lie strictly below it and at most 10 are zero."""
    series = per_second(t, hr)
    n_epochs = series.size // EPOCH
    epochs = series[: n_epochs * EPOCH].reshape(n_epochs, EPOCH)
    n_zero = (epochs == 0.0).sum(axis=1)
    n_below = np.zeros(n_epochs, dtype=np.int64)
    asleep = np.zeros(n_epochs, dtype=bool)
    for i in range(PREFIX_EPOCHS, n_epochs):
        look = epochs[i - PREFIX_EPOCHS : i].ravel()
        valid = look[np.isfinite(look) & (look > 0.0)]
        if valid.size == 0:
            continue
        scalar = -1.0 if i * EPOCH < 2 * LOOKBACK else 2.0
        threshold = valid.mean() + scalar * valid.std()
        ep = epochs[i]
        n_below[i] = int((np.isfinite(ep) & (ep > 0.0) & (ep < threshold)).sum())
        asleep[i] = n_below[i] > 15 and n_zero[i] <= 10
    return asleep, n_below, n_zero


def labels_per_second(label_doc: dict, n: int) -> np.ndarray:
    """Stage code per second of [0, n), -1 where no interval covers it."""
    codes = np.full(n, -1, dtype=np.int64)
    for level in label_doc["levels"]:
        start = level["start_t"]
        codes[max(start, 0) : min(start + level["seconds"], n)] = LEVELS[level["level"]]
    return codes


def kept_window_starts(codes: np.ndarray) -> list[int]:
    """Starts of the 10 s windows lying inside one run of a single label,
    found run by run: a labelled run of length L holds L - 9 of them."""
    starts = []
    run_start = 0
    for i in range(1, codes.size + 1):
        if i == codes.size or codes[i] != codes[run_start]:
            if codes[run_start] >= 0 and i - run_start >= WINDOW:
                starts.extend(range(run_start, i - WINDOW + 1))
            run_start = i
    return starts


def filled_signals(t: np.ndarray, vitals: np.ndarray) -> np.ndarray:
    """Per-second signals with gaps and zero-HR seconds filled from the
    previous valid second (the next one before the first valid second)."""
    grid = per_second(t, vitals)
    valid = np.isfinite(grid[:, 0]) & (grid[:, 0] != 0.0)
    idx = np.where(valid, np.arange(grid.shape[0]), -1)
    idx = np.maximum.accumulate(idx)
    idx[idx < 0] = int(np.argmax(valid))
    return grid[idx]


def window_stats(values) -> tuple[float, ...]:
    """(mean, median, max, min, population std, linear 75th percentile)."""
    v = sorted(float(x) for x in values)
    n = len(v)
    mean = math.fsum(v) / n
    median = (v[n // 2 - 1] + v[n // 2]) / 2.0 if n % 2 == 0 else v[n // 2]
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in v) / n)
    h = (n - 1) * 0.75
    lo = math.floor(h)
    p75 = v[lo] + (h - lo) * (v[lo + 1] - v[lo]) if lo + 1 < n else v[lo]
    return (mean, median, v[-1], v[0], std, p75)


STAT_NAMES = ("mean", "median", "max", "min", "std", "p75")


def feature_row(filled: np.ndarray, start: int, header: list[str]) -> list[float]:
    """The statistics a feature CSV row should hold for the window at start,
    in the column order its header names (``<signal>_<stat>``)."""
    cache = {}
    out = []
    for column in header:
        signal, stat = column.rsplit("_", 1)
        if signal not in cache:
            cache[signal] = window_stats(filled[start : start + WINDOW, VITALS.index(signal)])
        out.append(cache[signal][STAT_NAMES.index(stat)])
    return out


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def merge_intervals(intervals) -> list[tuple[int, int]]:
    """(start, length) runs merged where they overlap or touch."""
    merged: list[list[int]] = []
    for start, length in sorted(intervals):
        end = start + length
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e - s) for s, e in merged]


def parses_as_xml(text: str) -> bool:
    try:
        ET.fromstring(text)
    except ET.ParseError:
        return False
    return True


def standardize(train: np.ndarray):
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    return mean, np.where(std == 0.0, 1.0, std)


def knn_vote(neighbor_labels) -> int:
    """Majority label; a tie goes to the nearest neighbour holding a tied label."""
    votes = np.bincount(neighbor_labels, minlength=4)
    for label in neighbor_labels:
        if votes[label] == votes.max():
            return int(label)
    raise ValueError("no neighbours")


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    scores = []
    for c in np.unique(np.concatenate([y_true, y_pred])):
        tp = int(((y_true == c) & (y_pred == c)).sum())
        fp = int(((y_true != c) & (y_pred == c)).sum())
        fn = int(((y_true == c) & (y_pred != c)).sum())
        scores.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
    return float(np.mean(scores))
