"""Sample/label file formats: round trips, malformed input, label alignment."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgsleep import ingest, synth

from bcgsleep.core import Stage, StageInterval, VitalsSample
from bcgsleep.errors import (
    InvalidStageCode,
    MalformedRow,
    NegativeVital,
    NonMonotonicTimestamp,
    OverlappingIntervals,
)
from bcgsleep.ingest import (
    CSV_HEADER,
    MAX_NIGHT_SECONDS,
    align_labels,
    canonical_rows,
    load_labels,
    load_night,
    parse_labels,
    parse_night,
    parse_sample_line,
    sample_line,
    save_night,
    write_labels,
    write_night,
)

from conftest import claim_cpus, flat_record, make_record, make_sample, record_forks

finite_vital = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def records(draw, vital=finite_vital):
    ts = sorted(draw(st.sets(st.integers(0, 200), min_size=1, max_size=40)))
    return make_record(
        (t, draw(vital), draw(vital), draw(vital), draw(vital), draw(vital))
        for t in ts
    )


# every finite non-negative double, signed zero and subnormals included
any_vital = st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))


class TestSampleLine:
    def test_golden_line(self):
        s = VitalsSample(t=7, hr=62.5, rr=14.0, sv=70.25, hrv=41.0, b2b=967.5)
        assert sample_line(s) == (
            '{"t":7,"hr":62.5,"rr":14.0,"sv":70.25,"hrv":41.0,"b2b":967.5}'
        )

    def test_line_is_json(self):
        s = make_sample(3, hr=60.123456789012345)
        obj = json.loads(sample_line(s))
        assert obj["hr"] == s.hr  # repr text recovers the exact double


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    @given(rec=records())
    def test_write_then_parse_is_identity(self, fmt, rec):
        lines = list(write_night(rec, fmt))
        back = parse_night(lines, fmt, night_id="n")
        assert back.samples == rec.samples
        assert back.gaps == rec.gaps

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    @given(rec=records(vital=any_vital))
    def test_write_then_parse_is_bit_exact(self, fmt, rec):
        back = parse_night(write_night(rec, fmt), fmt)
        assert back.t.dtype == np.int64 and np.array_equal(back.t, rec.t)
        assert np.array_equal(back.vitals.view(np.uint64), rec.vitals.view(np.uint64))

    @pytest.mark.parametrize("ext,fmt", [(".ndjson", "ndjson"), (".csv", "csv")])
    def test_file_round_trip_infers_format(self, tmp_path, ext, fmt):
        rec = flat_record(20, missing={5, 6})
        path = tmp_path / f"night{ext}"
        save_night(rec, path)
        back = load_night(path, night_id="test")
        assert back.samples == rec.samples
        assert back.gaps == ((5, 2),)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_night([], "parquet")


class TestMalformedInput:
    def test_bad_json_reports_line_number(self):
        lines = [sample_line(make_sample(0)), "{not json"]
        with pytest.raises(MalformedRow) as exc:
            parse_night(lines, "ndjson")
        assert exc.value.line_no == 2

    def test_missing_field(self):
        with pytest.raises(MalformedRow, match="missing fields: b2b"):
            parse_night(['{"t":0,"hr":1.0,"rr":1.0,"sv":1.0,"hrv":1.0}'], "ndjson")

    def test_non_numeric_vital(self):
        line = '{"t":0,"hr":"high","rr":1.0,"sv":1.0,"hrv":1.0,"b2b":1.0}'
        with pytest.raises(MalformedRow):
            parse_night([line], "ndjson")

    def test_boolean_t_rejected(self):
        line = '{"t":true,"hr":1.0,"rr":1.0,"sv":1.0,"hrv":1.0,"b2b":1.0}'
        with pytest.raises(MalformedRow):
            parse_night([line], "ndjson")

    def test_float_t_rejected(self):
        line = '{"t":1.5,"hr":1.0,"rr":1.0,"sv":1.0,"hrv":1.0,"b2b":1.0}'
        with pytest.raises(MalformedRow):
            parse_night([line], "ndjson")

    def test_non_object_line(self):
        with pytest.raises(MalformedRow, match="expected a JSON object"):
            parse_sample_line("[1, 2]", 1)

    def test_csv_header_required(self):
        with pytest.raises(MalformedRow, match="header"):
            parse_night(["0,1,2,3,4,5"], "csv")

    def test_csv_wrong_column_count(self):
        with pytest.raises(MalformedRow) as exc:
            parse_night([CSV_HEADER, "0,1.0,2.0,3.0"], "csv")
        assert exc.value.line_no == 2

    def test_non_monotonic_rejected(self):
        lines = [sample_line(make_sample(5)), sample_line(make_sample(5))]
        with pytest.raises(NonMonotonicTimestamp):
            parse_night(lines, "ndjson")

    def test_errors_by_kind_then_line(self):
        good = [sample_line(make_sample(t)) for t in (0, 1)]
        dup = sample_line(make_sample(1))
        negative = sample_line(make_sample(2, rr=-1.0))
        with pytest.raises(MalformedRow) as exc:
            parse_night(good + [dup, negative, "{not json"], "ndjson")
        assert exc.value.line_no == 5
        with pytest.raises(NegativeVital, match="rr at t=2"):
            parse_night(good + [dup, negative], "ndjson")
        with pytest.raises(NonMonotonicTimestamp, match="t=1$"):
            parse_night(good + [dup], "ndjson")

    def test_t_beyond_int64_rejected(self):
        for t in (1 << 63, -1, -5):
            line = sample_line(make_sample(t))
            with pytest.raises(MalformedRow, match="64-bit"):
                parse_night([line], "ndjson")
            with pytest.raises(MalformedRow, match="64-bit"):
                parse_night([CSV_HEADER, f"{t},1.0,1.0,1.0,1.0,1.0"], "csv")

    def test_t_past_a_week_rejected(self):
        last = MAX_NIGHT_SECONDS - 1
        assert parse_night([sample_line(make_sample(last))], "ndjson").last_t == last
        for t in (MAX_NIGHT_SECONDS, 10**12, (1 << 63) - 1):
            line = sample_line(make_sample(t))
            with pytest.raises(MalformedRow, match="maximum night length"):
                parse_night([line], "ndjson")
            with pytest.raises(MalformedRow, match="maximum night length"):
                parse_night([CSV_HEADER, f"{t},1.0,1.0,1.0,1.0,1.0"], "csv")

    def test_numbers_beyond_float_or_digit_limits_rejected(self):
        huge = "1" + "0" * 400
        line = sample_line(make_sample(0)).replace('"hr":60.0', f'"hr":{huge}')
        with pytest.raises(MalformedRow, match="hr is out of float range"):
            parse_night([line], "ndjson")
        line = sample_line(make_sample(0)).replace('"t":0', '"t":1' + "0" * 5000)
        with pytest.raises(MalformedRow):
            parse_night([line], "ndjson")

    @pytest.mark.parametrize("text", ["1_0", "\u0661", "\u0661.\u0665", "\uff11"])
    def test_python_only_number_spellings_rejected(self, text):
        # float() and int() read these as numbers; JSON and numpy do not
        for row in (f"{text},1.0,1.0,1.0,1.0,1.0", f"1,1.0,{text},1.0,1.0,1.0"):
            with pytest.raises(MalformedRow) as exc:
                parse_night([CSV_HEADER, "0,1.0,1.0,1.0,1.0,1.0", row], "csv")
            assert exc.value.line_no == 3

    def test_blank_lines_skipped(self):
        lines = [sample_line(make_sample(0)), "", sample_line(make_sample(1)), "  "]
        rec = parse_night(lines, "ndjson")
        assert [s.t for s in rec.samples] == [0, 1]


def _outcome(read):
    """What read() gives: the record's columns bit for bit, or its error."""
    try:
        rec = read()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return (rec.night_id, rec.t.dtype, rec.t.tolist(), rec.vitals.dtype,
            rec.vitals.shape, rec.vitals.flags.c_contiguous, rec.vitals.tobytes())


def _per_line(path, night_id=""):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_night(fh, "ndjson", night_id)


# vitals whose text or rounding is easy to get wrong: signed zero, the
# subnormals, the largest double, exponent spellings, integers beyond 2**53
# and at the bulk reader's 300-digit cap
EDGE_VITALS = [
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e16, 1e-7, 123456789.0, 60, 0, 2**53 + 1, 10**25 + 1,
    10**299,
]
vital_value = st.one_of(
    st.sampled_from(EDGE_VITALS),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.floats(min_value=0.0, allow_infinity=False),
    st.integers(0, 10**20),
)


def _set_hr(line, text):
    return re.sub(r'"hr":[^,]*', lambda m: f'"hr":{text}', line, count=1)


def _set_t(line, t):
    return re.sub(r'"t":[^,]*', lambda m: f'"t":{t}', line, count=1)


# one change to the text of a line (or, for some, of the file) that the
# canonical pattern does not cover, each owned by parse_night's diagnostics
LINE_MUTATIONS = {
    "none": lambda line: [line],
    "space": lambda line: [line.replace(":", ": ", 1)],
    "key order": lambda line: ['{"hr"' + line.split(',"hr"', 1)[1][:-1] + ","
                               + line[1:].split(",", 1)[0] + "}"],
    "extra key": lambda line: [line[:-1] + ',"spo2":97.0}'],
    "crlf": lambda line: [line + "\r"],
    "blank line": lambda line: [line, ""],
    "bom": lambda line: ["\ufeff" + line],
    "nan": lambda line: [_set_hr(line, "NaN")],
    "infinity": lambda line: [_set_hr(line, "Infinity")],
    "t at the limit": lambda line: [_set_t(line, MAX_NIGHT_SECONDS)],
    "301-digit vital": lambda line: [_set_hr(line, str(10**300))],
    "vital past float range": lambda line: [_set_hr(line, str(2**1024))],
    "400-digit vital": lambda line: [_set_hr(line, "1" + "0" * 400)],
    "negative integer vital": lambda line: [_set_hr(line, "-7")],
    "negative float vital": lambda line: [_set_hr(line, "-1.5e-3")],
    "integer -0": lambda line: [_set_hr(line, "-0")],
    "upper-case exponent": lambda line: [_set_hr(line, "2.5E+3")],
    "float overflow": lambda line: [_set_hr(line, "1e400")],
    "not utf-8": lambda line: [line[:-1] + "\udcff}"],
}


@st.composite
def night_files(draw):
    """NDJSON night file bytes: sample_line rows, one line possibly changed
    by a LINE_MUTATIONS entry, maybe without the final newline."""
    ts = draw(st.lists(st.integers(0, MAX_NIGHT_SECONDS - 1), max_size=12))
    if draw(st.integers(0, 4)):
        ts = sorted(set(ts))
    lines = [sample_line((t, *draw(st.tuples(*[vital_value] * 5)))) for t in ts]
    mutation = draw(st.one_of(st.just("none"), st.sampled_from(sorted(LINE_MUTATIONS))))
    if lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = LINE_MUTATIONS[mutation](lines[i])
    text = "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")
    return text.encode("utf-8", "surrogateescape")


class TestBulkLoad:
    """load_night reads a file of canonical lines in bulk; whatever the file
    holds, it must give what parse_night gives, bit for bit or the same
    error and message."""

    @settings(max_examples=300)
    @given(data=night_files())
    def test_bulk_equals_per_line(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("bulk") / "night.ndjson"
        path.write_bytes(data)
        assert _outcome(lambda: load_night(path, night_id="n")) == _outcome(
            lambda: _per_line(path, "n"))

    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("at", [0, 600, 1199])
    @pytest.mark.parametrize("mutation", sorted(LINE_MUTATIONS))
    def test_each_mutation_equals_per_line(self, tmp_path, mutation, at, final_newline):
        # enough lines for the bulk scan to read them in several pieces
        n = len(EDGE_VITALS)
        lines = [sample_line((t, *(EDGE_VITALS[(t + k) % n] for k in range(5))))
                 for t in range(1200)]
        lines[at:at + 1] = LINE_MUTATIONS[mutation](lines[at])
        path = tmp_path / "night.ndjson"
        path.write_bytes(("\n".join(lines) + "\n" * final_newline)
                         .encode("utf-8", "surrogateescape"))
        assert _outcome(lambda: load_night(path)) == _outcome(lambda: _per_line(path))

    def test_synth_nights_take_the_bulk_path(self, tmp_path, monkeypatch):
        for item in synth.generate_cohort(3, seed=5, duration_s=3600):
            path = tmp_path / f"{item.record.night_id}.ndjson"
            save_night(item.record, path)
            want = _outcome(lambda: _per_line(path, "n"))
            with monkeypatch.context() as m:
                m.setattr(ingest, "parse_night", None)  # any fallback fails
                assert _outcome(lambda: load_night(path, night_id="n")) == want
            assert want[2] == item.record.t.tolist()

    def test_canonical_rows(self):
        line = sample_line((7, 62.5, 0, -0.0, 5e-324, 1e16))
        t, vitals = canonical_rows((line + "\n" + line).encode())
        assert t.dtype == np.int64 and t.tolist() == [7, 7]
        assert vitals.shape == (2, 5) and vitals.flags.c_contiguous
        assert vitals[0].tolist() == [62.5, 0.0, -0.0, 5e-324, 1e16]
        assert np.signbit(vitals[:, 2]).all()
        t, vitals = canonical_rows(b"")
        assert t.shape == (0,) and vitals.shape == (0, 5)
        for bad in (line + "\n\n", line + "\r\n", " " + line, line.replace("7", "-0", 1),
                    line.replace("7", "604800", 1)):
            assert canonical_rows(bad.encode()) is None


@pytest.fixture(scope="module")
def night_8h(tmp_path_factory):
    """An 8 h synth night file, about 3.7 MB of canonical lines."""
    item = next(iter(synth.generate_cohort(1, seed=5, duration_s=8 * 3600)))
    path = tmp_path_factory.mktemp("night8h") / "night.ndjson"
    save_night(item.record, path)
    return path


class TestPartedLoad:
    """load_night reads a large file in parts cut at line boundaries, one
    per usable CPU, in forked workers: the record, or the error, is the
    serial read's."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_same_record_as_one_cpu(self, night_8h, monkeypatch, cpus):
        outcomes = []
        for claimed in (1, cpus):
            claim_cpus(monkeypatch, claimed)
            with monkeypatch.context() as m:
                forks = record_forks(m)
                outcomes.append(_outcome(lambda: load_night(night_8h, night_id="n")))
            assert len(forks) == (0 if claimed == 1 else cpus)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == _outcome(lambda: _per_line(night_8h, "n"))

    def test_bad_line_in_the_second_part(self, night_8h, tmp_path, monkeypatch):
        lines = night_8h.read_text().split("\n")
        at = len(lines) * 3 // 4
        lines[at] = lines[at][:-1]  # its closing brace cut off
        path = tmp_path / "night.ndjson"
        path.write_text("\n".join(lines))
        claim_cpus(monkeypatch, 1)
        with pytest.raises(MalformedRow) as serial:
            load_night(path)
        assert serial.value.line_no == at + 1
        claim_cpus(monkeypatch, 2)
        with monkeypatch.context() as m:
            forks = record_forks(m)
            with pytest.raises(MalformedRow) as parted:
                load_night(path)
        assert len(forks) == 2
        assert parted.value.line_no == at + 1 and str(parted.value) == str(serial.value)

    @pytest.mark.parametrize("tail", [b"", b"\n"])
    @pytest.mark.parametrize("n_lines", [1, 2, 3, 6, 7])
    def test_parts_tile_the_lines(self, monkeypatch, n_lines, tail):
        """Lines of one length, cut in three: a cut lands on a line start,
        inside a line or past the last newline, and each line is read once."""
        data = "\n".join(sample_line((t, 60.0, 14.0, 70.0, 40.0, 1000.0))
                         for t in range(n_lines)).encode() + tail
        want = ingest.canonical_rows(data)
        claim_cpus(monkeypatch, 3)
        monkeypatch.setattr(ingest, "_PART_BYTES", 1)
        got = ingest._bulk_rows(data)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_long_last_line_without_newline(self, night_8h, tmp_path, monkeypatch):
        """A file whose last cut finds no newline after it reads as the
        per-line parser reads it."""
        path = tmp_path / "night.ndjson"
        path.write_bytes(night_8h.read_bytes() + b"x" * (3 << 20))
        claim_cpus(monkeypatch, 3)
        assert _outcome(lambda: load_night(path)) == _outcome(lambda: _per_line(path))


class TestLabels:
    def intervals(self):
        return [
            StageInterval(Stage.WAKE, 0, 300),
            StageInterval(Stage.LIGHT, 300, 600),
            StageInterval(Stage.DEEP, 900, 300),
        ]

    def test_round_trip(self):
        doc = write_labels("n1", self.intervals())
        assert parse_labels(doc) == self.intervals()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "n1.labels.json"
        path.write_text(write_labels("n1", self.intervals()))
        assert load_labels(path) == self.intervals()

    def test_intervals_sorted_by_start(self):
        doc = write_labels("n", list(reversed(self.intervals())))
        starts = [iv.start_t for iv in parse_labels(doc)]
        assert starts == sorted(starts)

    def test_overlap_rejected_with_indices(self):
        doc = {
            "night_id": "n",
            "levels": [
                {"level": "wake", "start_t": 0, "seconds": 100},
                {"level": "deep", "start_t": 50, "seconds": 100},
            ],
        }
        with pytest.raises(OverlappingIntervals):
            parse_labels(json.dumps(doc))

    def test_touching_intervals_allowed(self):
        doc = {
            "night_id": "n",
            "levels": [
                {"level": "wake", "start_t": 0, "seconds": 100},
                {"level": "deep", "start_t": 100, "seconds": 100},
            ],
        }
        assert len(parse_labels(json.dumps(doc))) == 2

    def test_unknown_level_rejected(self):
        doc = {"night_id": "n", "levels": [{"level": "n3", "start_t": 0, "seconds": 10}]}
        with pytest.raises(InvalidStageCode):
            parse_labels(json.dumps(doc))

    def test_missing_key_reports_entry_index(self):
        doc = {"night_id": "n", "levels": [{"level": "wake", "start_t": 0}]}
        with pytest.raises(MalformedRow) as exc:
            parse_labels(json.dumps(doc))
        assert exc.value.line_no == 0

    @pytest.mark.parametrize("seconds", [0, -30])
    def test_non_positive_seconds_rejected(self, seconds):
        doc = {
            "night_id": "n",
            "levels": [{"level": "wake", "start_t": 0, "seconds": seconds}],
        }
        with pytest.raises(MalformedRow):
            parse_labels(json.dumps(doc))

    def test_not_an_object(self):
        with pytest.raises(MalformedRow):
            parse_labels(json.dumps([1, 2, 3]))

    @pytest.mark.parametrize("entry, words", [
        (["wake", 0, 10], "level entry must be an object"),
        ({"level": "wake", "start_t": 1.5, "seconds": 10}, "start_t must be an integer"),
    ])
    def test_bad_entry_reports_its_index(self, entry, words):
        levels = [{"level": "wake", "start_t": 0, "seconds": 10}, entry]
        with pytest.raises(MalformedRow, match=words) as exc:
            parse_labels(json.dumps({"night_id": "n", "levels": levels}))
        assert exc.value.line_no == 1


@st.composite
def label_layouts(draw):
    n = draw(st.integers(20, 120))
    intervals = []
    t = draw(st.integers(0, 5))
    while t < n:
        dur = draw(st.integers(1, 40))
        stage = draw(st.sampled_from(list(Stage)))
        intervals.append(StageInterval(stage, t, min(dur, n - t)))
        t += dur + draw(st.integers(0, 8))  # possible unlabeled hole
    return n, intervals


class TestAlignLabels:
    @given(layout=label_layouts())
    def test_matches_per_second_scan(self, layout):
        n, intervals = layout
        rec = flat_record(n)
        got = align_labels(rec, intervals)
        expected = [-1] * n
        for iv in intervals:
            for t in range(iv.start_t, min(iv.end_t, n)):
                expected[t] = int(iv.stage)
        assert got.dtype == np.int64
        assert got.tolist() == expected

    def test_interval_past_record_end_clipped(self):
        rec = flat_record(10)
        got = align_labels(rec, [StageInterval(Stage.DEEP, 8, 50)])
        assert got[8] == Stage.DEEP and got[9] == Stage.DEEP
        assert len(got) == 10

    def test_interval_before_zero_clipped(self):
        rec = flat_record(10)
        got = align_labels(rec, [StageInterval(Stage.WAKE, -20, 5),
                                 StageInterval(Stage.DEEP, -3, 5),
                                 StageInterval(Stage.REM, 30, 5)])
        assert got.tolist() == [3, 3] + [-1] * 8

    def test_uncovered_seconds_are_none(self):
        # unlabeled seconds are -1
        rec = flat_record(10)
        got = align_labels(rec, [StageInterval(Stage.REM, 2, 3)])
        assert got[:2].tolist() == [-1, -1]
        assert got[2:5].tolist() == [Stage.REM] * 3
        assert got[5:].tolist() == [-1] * 5
