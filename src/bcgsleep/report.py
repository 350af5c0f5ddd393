"""Static SVG renderings of the standard figures.

Pure string assembly: same inputs give byte-identical files, which is what
lets a re-run of the pipeline be diffed at the artifact level. Coordinates
are rounded to a tenth of a pixel and colors are fixed, so no float
formatting ambiguity or environment state leaks into the output.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import STAGE_NAMES, Stage
from .sleepwake import EPOCH_LEN, SleepWakeEpoch, WakeState

_FONT = "font-family='Helvetica,Arial,sans-serif'"

# Hypnogram rows, top to bottom.
_STAGE_ROWS = (Stage.WAKE, Stage.REM, Stage.LIGHT, Stage.DEEP)
_STAGE_COLORS = {
    Stage.WAKE: "#d1495b",
    Stage.REM: "#8a4fbe",
    Stage.LIGHT: "#4f9dd0",
    Stage.DEEP: "#1d3f6e",
}


def _f(v: float) -> str:
    return f"{v:.1f}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
    )
    return "\n".join([head, f"<rect width='{width}' height='{height}' fill='#ffffff'/>"]
                     + body + ["</svg>", ""])


def _text(x, y, s, size=12, anchor="start", color="#333333") -> str:
    return (
        f"<text x='{_f(x)}' y='{_f(y)}' font-size='{size}' text-anchor='{anchor}' "
        f"fill='{color}' {_FONT}>{s}</text>"
    )


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (f"<line x1='{_f(x1)}' y1='{_f(y1)}' x2='{_f(x2)}' y2='{_f(y2)}' "
            f"stroke='{stroke}' stroke-width='{width}'/>")


def _grid(body, x0, x1, y0, y1, lo, hi, label: str):
    """Five horizontal grid lines from lo at y1 up to hi at y0, each with its
    value, formatted by label, left of the axis."""
    for i in range(5):
        frac = i / 4
        y = y1 - (y1 - y0) * frac
        body.append(_line(x0, y, x1, y, "#e5e5e5", 1))
        body.append(_text(x0 - 6, y + 4, label.format(lo + (hi - lo) * frac),
                          size=10, anchor="end"))


def _polyline(points: Sequence[str], stroke: str, width: str) -> str:
    return (f"<polyline points='{' '.join(points)}' fill='none' "
            f"stroke='{stroke}' stroke-width='{width}'/>")


def threshold_trace_svg(hr_series: np.ndarray, epochs: Sequence[SleepWakeEpoch]) -> str:
    """Per-second HR (NaN for holes, as raw_hr_series returns) with the
    per-epoch threshold and asleep shading."""
    width, height = 960, 320
    x0, x1, y0, y1 = 60, width - 20, 40, height - 30
    hr = np.asarray(hr_series, dtype=float)
    n = max(hr.size, 1)
    peaks = [e.threshold for e in epochs if e.threshold is not None]
    if (hr > 0).any():
        peaks.append(float(hr[hr > 0].max()))
    hi = max(peaks, default=1.0) * 1.05
    lo = 0.0

    def sx(t):
        return x0 + (x1 - x0) * t / n

    def sy(v):
        return y1 - (y1 - y0) * (v - lo) / (hi - lo)

    body = [_text(x0, 22, "Heart rate and moving wake threshold", size=14, color="#111111")]
    _grid(body, x0, x1, y0, y1, lo, hi, "{:.0f} bpm")

    for e in epochs:
        if e.state is WakeState.ASLEEP:
            body.append(
                f"<rect x='{_f(sx(e.start_t))}' y='{_f(y0)}' "
                f"width='{_f(sx(e.start_t + EPOCH_LEN) - sx(e.start_t))}' "
                f"height='{_f(y1 - y0)}' fill='#eaf3fb'/>"
            )

    # one polyline per run of received seconds; holes break the line
    t = np.flatnonzero(~np.isnan(hr))
    pts = [f"{_f(x)},{_f(y)}" for x, y in zip(sx(t).tolist(), sy(hr[t]).tolist())]
    breaks = (np.flatnonzero(np.diff(t) > 1) + 1).tolist()
    for a, b in zip([0, *breaks], [*breaks, len(pts)]):
        if b - a > 1:
            body.append(_polyline(pts[a:b], "#c0392b", "0.8"))

    pts = []
    for e in epochs:
        if e.threshold is None:
            if len(pts) > 1:
                body.append(_polyline(pts, "#2c3e50", "1.5"))
            pts = []
            continue
        y = _f(sy(e.threshold))
        pts.append(f"{_f(sx(e.start_t))},{y}")
        pts.append(f"{_f(sx(e.start_t + EPOCH_LEN))},{y}")
    if len(pts) > 1:
        body.append(_polyline(pts, "#2c3e50", "1.5"))

    body.append(_text(x1, 22, "hr", size=11, anchor="end", color="#c0392b"))
    body.append(_text(x1 - 30, 22, "threshold", size=11, anchor="end", color="#2c3e50"))
    body.append(_text((x0 + x1) / 2, height - 8, "seconds", size=10, anchor="middle"))
    return _svg(width, height, body)


def _hypnogram_panel(body, codes, x0, x1, y0, panel_h, label):
    rows = {int(s): i for i, s in enumerate(_STAGE_ROWS)}
    row_h = panel_h / len(_STAGE_ROWS)
    codes = np.asarray(codes, dtype=np.int64)
    n = max(codes.size, 1)

    def sx(t):
        return x0 + (x1 - x0) * t / n

    def sy(code):
        return y0 + rows[code] * row_h + row_h / 2

    body.append(_text(x0, y0 - 6, label, size=12, color="#111111"))
    for s in _STAGE_ROWS:
        y = sy(int(s))
        body.append(_line(x0, y, x1, y, "#eeeeee", 1))
        body.append(_text(x0 - 6, y + 4, s.level_name, size=10, anchor="end"))

    # run-length compression keeps the path small and the bytes stable
    starts = np.flatnonzero(np.diff(codes, prepend=codes[:1] - 1))
    runs = list(zip(starts.tolist(), [*starts[1:].tolist(), codes.size],
                    codes[starts].tolist()))
    for start, end, code in runs:
        body.append(_line(sx(start), sy(code), sx(end), sy(code),
                          _STAGE_COLORS[Stage(code)], 4))
    for (_, _, c1), (s2, _, c2) in zip(runs, runs[1:]):
        body.append(_line(sx(s2), sy(c1), sx(s2), sy(c2), "#b0b0b0", 1))


def hypnogram_pair_svg(reference: Sequence[int], predicted: Sequence[int]) -> str:
    """Two stacked per-second hypnograms sharing one time axis."""
    width, height = 960, 380
    x0, x1 = 70, width - 20
    body: list[str] = []
    _hypnogram_panel(body, reference, x0, x1, 30, 140, "Reference hypnogram")
    _hypnogram_panel(body, predicted, x0, x1, 210, 140, "Predicted hypnogram")
    body.append(_text((x0 + x1) / 2, height - 8, "seconds", size=10, anchor="middle"))
    return _svg(width, height, body)


def confusion_heatmap_svg(cm) -> str:
    """4x4 heat map, predicted on rows, true on columns, counts printed."""
    k = len(STAGE_NAMES)
    cell, x0, y0 = 90, 140, 80
    width, height = x0 + k * cell + 40, y0 + k * cell + 60
    counts = [[int(v) for v in row] for row in cm]
    peak = max(max(row) for row in counts) or 1
    body = [_text(x0, 30, "Stage confusion (rows predicted, columns true)",
                  size=14, color="#111111")]
    for j, name in enumerate(STAGE_NAMES):
        body.append(_text(x0 + j * cell + cell / 2, y0 - 10, name, size=11, anchor="middle"))
    for i, name in enumerate(STAGE_NAMES):
        body.append(_text(x0 - 10, y0 + i * cell + cell / 2 + 4, name, size=11, anchor="end"))
    body.append(_text(x0 - 95, y0 + k * cell / 2, "predicted", size=11, anchor="middle"))
    body.append(_text(x0 + k * cell / 2, y0 - 40, "true", size=11, anchor="middle"))
    for i in range(k):
        for j in range(k):
            v = counts[i][j]
            frac = v / peak
            # white -> deep blue ramp
            r = round(255 - 207 * frac)
            g = round(255 - 192 * frac)
            b = round(255 - 145 * frac)
            fill = f"#{r:02x}{g:02x}{b:02x}"
            body.append(
                f"<rect x='{x0 + j * cell}' y='{y0 + i * cell}' width='{cell}' "
                f"height='{cell}' fill='{fill}' stroke='#cccccc'/>"
            )
            color = "#ffffff" if frac > 0.55 else "#222222"
            body.append(
                _text(x0 + j * cell + cell / 2, y0 + i * cell + cell / 2 + 5,
                      str(v), size=13, anchor="middle", color=color)
            )
    return _svg(width, height, body)


def efficiency_box_svg(summary: dict) -> str:
    """Side-by-side box plots of algorithm vs reference sleep efficiency,
    with the per-night points overlaid."""
    width, height = 520, 360
    x0, x1, y0, y1 = 70, width - 30, 50, height - 50
    nights = summary["nights"]
    all_vals = [n["algorithm"] for n in nights] + [n["reference"] for n in nights]
    lo = min(all_vals + [summary["algorithm"]["min"], summary["reference"]["min"]])
    hi = max(all_vals + [summary["algorithm"]["max"], summary["reference"]["max"]])
    pad = max((hi - lo) * 0.1, 0.01)
    lo, hi = lo - pad, hi + pad

    def sy(v):
        return y1 - (y1 - y0) * (v - lo) / (hi - lo)

    body = [_text(x0, 26, "Sleep efficiency per night", size=14, color="#111111")]
    _grid(body, x0, x1, y0, y1, lo, hi, "{:.2f}")

    slots = (("algorithm", "#2c7fb8"), ("reference", "#555555"))
    span = (x1 - x0) / len(slots)
    for idx, (key, color) in enumerate(slots):
        stats = summary[key]
        cx = x0 + span * (idx + 0.5)
        half = span * 0.18
        for v in (stats["min"], stats["max"]):
            body.append(_line(cx - half / 2, sy(v), cx + half / 2, sy(v), color, 1.5))
        body.append(_line(cx, sy(stats["min"]), cx, sy(stats["q1"]), color, 1.5))
        body.append(_line(cx, sy(stats["q3"]), cx, sy(stats["max"]), color, 1.5))
        body.append(
            f"<rect x='{_f(cx - half)}' y='{_f(sy(stats['q3']))}' width='{_f(2 * half)}' "
            f"height='{_f(sy(stats['q1']) - sy(stats['q3']))}' fill='none' "
            f"stroke='{color}' stroke-width='1.5'/>"
        )
        body.append(_line(cx - half, sy(stats["median"]), cx + half, sy(stats["median"]),
                          color, 2.5))
        for n in nights:
            body.append(
                f"<circle cx='{_f(cx + half * 1.6)}' cy='{_f(sy(n[key]))}' r='2.5' "
                f"fill='{color}' fill-opacity='0.6'/>"
            )
        body.append(_text(cx, y1 + 20, key, size=11, anchor="middle"))

    body.append(
        _text(x1, 26, f"r={summary['r']:.3f} p={summary['p']:.4f}", size=11, anchor="end")
    )
    return _svg(width, height, body)
