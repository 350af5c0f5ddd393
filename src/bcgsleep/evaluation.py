"""Classification metrics and the per-night efficiency comparison.

Confusion matrices are oriented predicted-on-rows, true-on-columns; cell
[p][t] counts the windows predicted p whose reference stage is t. F1 is
macro-averaged over all four stages (absent classes contribute 0), RMSE is
taken on the integer stage codes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import N_STAGES, STAGE_NAMES, check_stage_codes
from .errors import ConstantInput, LengthMismatch, TooFewItems


def _pair(true_stages, predicted_stages) -> tuple[np.ndarray, np.ndarray]:
    """Both as int64 codes: a code outside 0..3 is ValueError, and unequal or
    zero lengths LengthMismatch."""
    t = check_stage_codes(np.asarray(true_stages, dtype=np.int64), "true stages")
    p = check_stage_codes(np.asarray(predicted_stages, dtype=np.int64), "predicted stages")
    if t.size != p.size or t.size == 0:
        raise LengthMismatch(t.size, p.size)
    return t, p


def confusion_matrix(true_stages, predicted_stages) -> np.ndarray:
    """4x4 counts, cell[predicted][true]."""
    t, p = _pair(true_stages, predicted_stages)
    cm = np.zeros((N_STAGES, N_STAGES), dtype=np.int64)
    np.add.at(cm, (p, t), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    return float(np.trace(cm)) / float(cm.sum())


def macro_f1(cm: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over all four stages.

    Precision reads along the class's predicted row, recall along its true
    column; a class with no predictions and no occurrences scores 0.
    """
    cm = np.asarray(cm, dtype=float)
    scores = []
    for c in range(N_STAGES):
        tp = cm[c, c]
        row = cm[c, :].sum()
        col = cm[:, c].sum()
        prec = tp / row if row > 0 else 0.0
        rec = tp / col if col > 0 else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    return float(sum(scores) / N_STAGES)


def rmse(true_stages, predicted_stages) -> float:
    t, p = _pair(true_stages, predicted_stages)
    return float(np.sqrt(np.mean((t - p) ** 2)))


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample correlation with its two-sided p-value.

    The p-value comes from the t statistic r*sqrt((n-2)/(1-r^2)) with n-2
    degrees of freedom, evaluated through the regularized incomplete beta
    identity P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise LengthMismatch(xa.size, ya.size)
    n = xa.size
    if n < 3:
        raise TooFewItems(n, 3, "points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0:
        raise ConstantInput("correlation input x")
    if syy == 0.0:
        raise ConstantInput("correlation input y")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if 1.0 - r * r <= 0.0:
        return r, 0.0
    t2 = r * r * df / (1.0 - r * r)
    # imported here, the package's one use of scipy, so that importing the
    # package and running commands that compute no p-value do not load it
    from scipy.special import betainc

    p = float(betainc(df / 2.0, 0.5, df / (df + t2)))
    return r, p


def box_stats(values: Sequence[float]) -> dict[str, float]:
    """Five-number summary plus mean, quartiles by linear interpolation."""
    v = [float(x) for x in values]
    q1, median, q3 = np.percentile(v, [25, 50, 75]).tolist()
    return {
        "mean": float(np.mean(v)),
        "min": min(v),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(v),
    }


def efficiency_comparison(
    algorithm: Sequence[float], reference: Sequence[float], night_ids: Sequence[str]
) -> dict:
    """Per-night efficiency table with correlation and box-plot summaries.

    algorithm[i] and reference[i] are the two efficiency estimates for night
    night_ids[i]. The result is plain JSON-serializable data.
    """
    a = [float(v) for v in algorithm]
    b = [float(v) for v in reference]
    if len(a) != len(b):
        raise LengthMismatch(len(a), len(b))
    if len(a) < 3:
        raise TooFewItems(len(a), 3, "nights")
    ids = [str(n) for n in night_ids]
    if len(ids) != len(a):
        raise LengthMismatch(len(ids), len(a))
    r, p = pearson_r(a, b)
    return {
        "nights": [
            {"night_id": nid, "algorithm": av, "reference": rv}
            for nid, av, rv in zip(ids, a, b)
        ],
        "algorithm": box_stats(a),
        "reference": box_stats(b),
        "r": r,
        "p": p,
    }


def confusion_to_csv(cm: np.ndarray):
    """CSV lines: header of true-stage columns, one row per predicted stage."""
    yield "predicted\\true," + ",".join(STAGE_NAMES)
    for i, name in enumerate(STAGE_NAMES):
        yield name + "," + ",".join(str(int(v)) for v in cm[i])
