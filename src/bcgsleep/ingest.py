"""Night-record and label-file parsing, serialization, and label alignment.

Two on-disk sample formats share identical field names:

  - ndjson: one ``{"t":0,"hr":62.0,"rr":14.0,"sv":48.0,"hrv":35.0,"b2b":960.0}``
    object per line
  - csv: header ``t,hr,rr,sv,hrv,b2b`` then one row per sample

Floats are written as shortest round-trip decimal text, so a record survives
write -> parse bit-exactly. Label files are a single JSON document:
``{"night_id": "...", "levels": [{"level": "wake", "start_t": 0, "seconds": 300}, ...]}``.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (
    MAX_NIGHT_SECONDS,
    STAGE_NAMES,
    VITAL_FIELDS,
    NightRecord,
    Stage,
    StageInterval,
    stage_codes,
)
from .errors import MalformedRow, OverlappingIntervals, UnknownLevel

SAMPLE_FIELDS = ("t",) + VITAL_FIELDS
CSV_HEADER = ",".join(SAMPLE_FIELDS)

FORMATS = ("ndjson", "csv")


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return fmt


# t indexes the seconds of the night, so it must be a non-negative int64
_T_RANGE = range(0, 1 << 63)


def _check_t(t, line_no: int) -> int:
    if not isinstance(t, int) or isinstance(t, bool) or t not in _T_RANGE:
        raise MalformedRow(line_no, f"t must be a non-negative 64-bit integer, got {t!r}")
    if t >= MAX_NIGHT_SECONDS:
        raise MalformedRow(
            line_no, f"t must be below the maximum night length of {MAX_NIGHT_SECONDS} s, got {t}"
        )
    return t


def parse_sample_line(line: str, line_no: int) -> tuple:
    """One NDJSON sample line as a (t, hr, rr, sv, hrv, b2b) tuple.

    Checks structure and types only (MalformedRow); vital ranges are
    NightRecord's to check.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRow(line_no, f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal with too many digits
        raise MalformedRow(line_no, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedRow(line_no, "expected a JSON object")
    try:
        row = [obj[k] for k in SAMPLE_FIELDS]
    except KeyError:
        missing = [k for k in SAMPLE_FIELDS if k not in obj]
        raise MalformedRow(line_no, f"missing fields: {', '.join(missing)}") from None
    _check_t(row[0], line_no)
    for i in range(1, len(row)):
        v = row[i]
        if type(v) is float:
            continue
        if not isinstance(v, int) or isinstance(v, bool):
            raise MalformedRow(line_no, f"{SAMPLE_FIELDS[i]} must be a number, got {v!r}")
        try:
            row[i] = float(v)
        except OverflowError:
            raise MalformedRow(line_no, f"{SAMPLE_FIELDS[i]} is out of float range") from None
    return tuple(row)


def _parse_csv_row(row: list[str], line_no: int) -> tuple:
    if len(row) != len(SAMPLE_FIELDS):
        raise MalformedRow(line_no, f"expected {len(SAMPLE_FIELDS)} columns, got {len(row)}")
    try:
        t = int(row[0])
    except ValueError as exc:
        raise MalformedRow(line_no, f"t must be an integer, got {row[0]!r}") from exc
    out = [_check_t(t, line_no)]
    for k, text in zip(VITAL_FIELDS, row[1:]):
        try:
            out.append(float(text))
        except ValueError as exc:
            raise MalformedRow(line_no, f"{k} is not a number: {text!r}") from exc
    return tuple(out)


def parse_night(lines: Iterable[str], fmt: str, night_id: str = "") -> NightRecord:
    """Parse a stream of sample lines into a NightRecord.

    Timestamps must be strictly increasing; missing seconds between
    consecutive samples are the record's gaps. The night id is not carried
    by the sample formats and is supplied by the caller.
    Errors come in this order: MalformedRow for the first bad line, then
    NightRecord's: NegativeVital for the first bad value, then
    NonMonotonicTimestamp.
    """
    _check_format(fmt)
    if fmt == "csv":
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "missing csv header") from None
        if [h.strip() for h in header] != list(SAMPLE_FIELDS):
            raise MalformedRow(1, f"bad csv header: {','.join(header)!r}")
        rows = [_parse_csv_row(row, i) for i, row in enumerate(reader, start=2) if row]
    else:
        rows = [
            parse_sample_line(line, i)
            for i, line in enumerate(lines, start=1)
            if line.strip()
        ]

    t = np.array([r[0] for r in rows], dtype=np.int64)
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(SAMPLE_FIELDS))
    return NightRecord(night_id, t, np.ascontiguousarray(table[:, 1:]))


def sample_line(row) -> str:
    """One (t, hr, rr, sv, hrv, b2b) row as an NDJSON line body; floats use
    repr() so the decimal text recovers the exact double."""
    t, hr, rr, sv, hrv, b2b = row
    return f'{{"t":{t},"hr":{hr!r},"rr":{rr!r},"sv":{sv!r},"hrv":{hrv!r},"b2b":{b2b!r}}}'


def write_night(record: NightRecord, fmt: str) -> Iterator[str]:
    """Serialize a record as lines (without trailing newlines).

    parse_night(write_night(r)) reproduces r's columns bit for bit.
    """
    _check_format(fmt)
    rows = zip(record.t.tolist(), *record.vitals.T.tolist())
    if fmt == "csv":
        yield CSV_HEADER
        for row in rows:
            yield ",".join(map(repr, row))
    else:
        yield from map(sample_line, rows)


def load_night(path, fmt: Optional[str] = None, night_id: str = "") -> NightRecord:
    """Read a night file; format inferred from the extension unless given."""
    path = str(path)
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "ndjson"
    with open(path, "r", encoding="utf-8") as fh:
        return parse_night(fh, fmt, night_id)


def save_night(record: NightRecord, path, fmt: Optional[str] = None) -> None:
    path = str(path)
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        for line in write_night(record, fmt):
            fh.write(line)
            fh.write("\n")


def parse_labels(text: str) -> list[StageInterval]:
    """Parse the text of a label file.

    Returns intervals sorted by start time. Unknown level names and
    overlapping intervals are rejected; a structurally bad level entry
    (missing keys, non-positive duration) raises MalformedRow with the
    entry's index.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("levels"), list):
        raise MalformedRow(0, 'label file must be an object with a "levels" array')

    entries = []
    for i, level in enumerate(doc["levels"]):
        if not isinstance(level, dict):
            raise MalformedRow(i, "level entry must be an object")
        try:
            name = level["level"]
            start_t = level["start_t"]
            seconds = level["seconds"]
        except KeyError as exc:
            raise MalformedRow(i, f"level entry missing {exc.args[0]!r}") from exc
        if not isinstance(name, str) or name.lower() not in STAGE_NAMES:
            raise UnknownLevel(name)
        if not isinstance(start_t, int) or isinstance(start_t, bool):
            raise MalformedRow(i, f"start_t must be an integer, got {start_t!r}")
        if not isinstance(seconds, int) or isinstance(seconds, bool) or seconds <= 0:
            raise MalformedRow(i, f"seconds must be a positive integer, got {seconds!r}")
        entries.append((i, StageInterval(Stage.from_name(name), start_t, seconds)))

    entries.sort(key=lambda e: e[1].start_t)
    for (i, a), (j, b) in zip(entries, entries[1:]):
        if b.start_t < a.end_t:
            raise OverlappingIntervals(i, j)
    return [iv for _, iv in entries]


def write_labels(night_id: str, intervals: Iterable[StageInterval]) -> str:
    """Serialize intervals to the label-file JSON document."""
    levels = [
        {"level": iv.stage.level_name, "start_t": iv.start_t, "seconds": iv.duration}
        for iv in sorted(intervals, key=lambda iv: iv.start_t)
    ]
    return json.dumps({"night_id": night_id, "levels": levels}, indent=2, sort_keys=True)


def load_labels(path) -> list[StageInterval]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_labels(fh.read())


def align_labels(
    record: NightRecord, intervals: Iterable[StageInterval]
) -> np.ndarray:
    """Expand intervals to one int64 stage code per second over [0, last_t].

    Seconds covered by no interval are -1 (unlabeled): the reference
    tracker's log does not necessarily span the whole recording.
    """
    return stage_codes(intervals, record.last_t + 1)
