"""Night-record and label-file parsing, serialization, and label alignment.

Two on-disk sample formats share identical field names:

  - ndjson: one ``{"t":0,"hr":62.0,"rr":14.0,"sv":48.0,"hrv":35.0,"b2b":960.0}``
    object per line
  - csv: header ``t,hr,rr,sv,hrv,b2b`` then one row per sample

Floats are written as shortest round-trip decimal text, so a record survives
write -> parse bit-exactly. The canonical sample line is exactly what
sample_line writes, ``{"t":INT,"hr":NUM,"rr":NUM,"sv":NUM,"hrv":NUM,"b2b":NUM}``
with JSON numbers; SAMPLE_LINE matches it. load_night reads an NDJSON file of
canonical lines in bulk, a regex scan and one numpy conversion per piece of
the file, a large file in parts on the usable CPUs (core.fork_map), into
the same record bit for bit; any other file goes through parse_night, the
per-line parser, which owns every diagnostic. Label files
are a single JSON document:
``{"night_id": "...", "levels": [{"level": "wake", "start_t": 0, "seconds": 300}, ...]}``.
"""

from __future__ import annotations

import csv
import json
import re
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (
    MAX_NIGHT_SECONDS,
    VITAL_FIELDS,
    NightRecord,
    Stage,
    StageInterval,
    fork_map,
    plain_number,
    spans,
    stage_codes,
    write_files,
)
from .errors import MalformedRow, OverlappingIntervals

SAMPLE_FIELDS = ("t",) + VITAL_FIELDS
CSV_HEADER = ",".join(SAMPLE_FIELDS)

FORMATS = ("ndjson", "csv")

# A vital in JSON's number grammar whose text float() reads as json does:
# json reads an integer literal as an int and converts it, so the integer
# -0 becomes +0.0 and one too long for a double is a MalformedRow, where
# float() would give -0.0 and inf. Integer literals are therefore positive,
# negative non-zero or 0, and at most 300 digits long.
_VITAL = (rb"-?(?:0|[1-9]\d*)\.\d+(?:[eE][-+]?\d+)?"
          rb"|-?(?:0|[1-9]\d*)[eE][-+]?\d+"
          rb"|-?[1-9]\d{0,299}|0")
# canonical_rows scans a file in pieces of about this many bytes
_SCAN_BYTES = 64 * 1024
# load_night reads an NDJSON file in parts of at least this many bytes
# (core.spans), so a file below twice this is read in one piece
_PART_BYTES = 1 << 20
# One canonical sample line as sample_line writes it, anchored per line
# (re.M) and capturing the six numbers; t has at most six digits.
SAMPLE_LINE = re.compile(
    rb'^\{"t":(0|[1-9]\d{0,5}),"hr":(%s),"rr":(%s),"sv":(%s),"hrv":(%s),"b2b":(%s)\}$'
    % ((_VITAL,) * len(VITAL_FIELDS)),
    re.M,
)


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
    except (ValueError, RecursionError) as exc:  # too many digits or too deep
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
        t = int(plain_number(row[0]))
    except ValueError as exc:
        raise MalformedRow(line_no, f"t must be an integer, got {row[0]!r}") from exc
    out = [_check_t(t, line_no)]
    for k, text in zip(VITAL_FIELDS, row[1:]):
        try:
            out.append(float(plain_number(text)))
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
            header = next(reader, None)
            if header is None:
                raise MalformedRow(1, "missing csv header")
            if [h.strip() for h in header] != list(SAMPLE_FIELDS):
                raise MalformedRow(1, f"bad csv header: {','.join(header)!r}")
            rows = [_parse_csv_row(row, i) for i, row in enumerate(reader, start=2) if row]
        except csv.Error as exc:  # such as a field longer than the csv module allows
            raise MalformedRow(reader.line_num, str(exc)) from None
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


def canonical_rows(data: bytes) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The columns (t, vitals) of data, t int64[n] and vitals a C-contiguous
    float64[n, 5], if each of its n lines is a canonical sample line (the
    last may lack its newline) whose t is below MAX_NIGHT_SECONDS, else None.

    numpy converts the numbers' text, rounding as float() and json do. The
    scan goes _SCAN_BYTES of whole lines at a time, so the matches held at
    once stay small next to data.
    """
    n_lines = data.count(b"\n") + (data[-1:] not in (b"", b"\n"))
    rows = np.empty((n_lines, len(SAMPLE_FIELDS)))
    done = start = 0
    while start < len(data):
        end = data.find(b"\n", start + _SCAN_BYTES) + 1 or len(data)
        found = SAMPLE_LINE.findall(data, start, end)
        if len(found) != data.count(b"\n", start, end) + (data[end - 1:end] != b"\n"):
            return None
        rows[done:done + len(found)] = found
        done += len(found)
        start = end
    if not (rows[:, 0] < MAX_NIGHT_SECONDS).all():
        return None
    return rows[:, 0].astype(np.int64), np.ascontiguousarray(rows[:, 1:])


def _format_of(path: str) -> str:
    """The night format a path names by its extension."""
    return "csv" if path.endswith(".csv") else "ndjson"


def _bulk_rows(data: bytes) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """canonical_rows(data), read in contiguous parts of at least
    _PART_BYTES (core.spans) moved to whole lines (_canonical_part), each
    in its own forked worker (core.fork_map); None if any is not canonical."""
    parts = fork_map(_canonical_part, spans(len(data), _PART_BYTES), data)
    if any(part is None for part in parts):
        return None
    if len(parts) == 1:  # the columns as they are, not copied
        return parts[0]
    return np.concatenate([t for t, _ in parts]), np.concatenate([v for _, v in parts])


def _canonical_part(data: bytes, span: tuple[int, int]):
    """canonical_rows of the lines of data that start within span: each end
    moves forward to a line start, so the parts of a cut tile data's lines.
    The whole of data is sliced without a copy."""
    lo, hi = (pos and (data.find(b"\n", pos - 1) + 1 or len(data)) for pos in span)
    return canonical_rows(data[lo:hi])


def load_night(path, night_id: str = "") -> NightRecord:
    """Read a night file in the format its extension names.

    An NDJSON file that canonical_rows reads is built from its columns, a
    file of at least 2 MiB read in parts on the usable CPUs (_bulk_rows);
    the record still runs its own vital and timestamp checks. Any other
    file goes through parse_night, which gives the same record bit for bit
    and owns every diagnostic.
    """
    path = str(path)
    fmt = _format_of(path)
    if fmt == "ndjson":
        with open(path, "rb") as fh:
            columns = _bulk_rows(fh.read())
        if columns is not None:
            return NightRecord(night_id, *columns)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_night(fh, fmt, night_id)


def save_night(record: NightRecord, path) -> None:
    """Write a night file in the format its extension names (write_files)."""
    path = str(path)
    write_files({path: "".join(f"{line}\n" for line in write_night(record, _format_of(path)))})


def parse_labels(text: str) -> list[StageInterval]:
    """Parse the text of a label file.

    Returns intervals sorted by start time. Unknown level names and
    overlapping intervals are rejected; a structurally bad level entry
    (missing keys, non-positive duration) raises MalformedRow with the
    entry's index, a document nested too deeply to read MalformedRow(0).
    """
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise MalformedRow(0, f"label file: {exc}") from None
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
        stage = Stage.from_name(name)
        if not isinstance(start_t, int) or isinstance(start_t, bool):
            raise MalformedRow(i, f"start_t must be an integer, got {start_t!r}")
        if not isinstance(seconds, int) or isinstance(seconds, bool) or seconds <= 0:
            raise MalformedRow(i, f"seconds must be a positive integer, got {seconds!r}")
        entries.append((i, StageInterval(stage, start_t, seconds)))

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
