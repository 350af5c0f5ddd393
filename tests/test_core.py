"""Domain types: stage codes, vital validation, record invariants, gap runs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep.core import (
    MAX_NIGHT_SECONDS,
    VITAL_FIELDS,
    NightRecord,
    Stage,
    StageInterval,
    VitalsSample,
    compute_gaps,
)
from bcgsleep.errors import InvalidStageCode, NegativeVital, NonMonotonicTimestamp
from bcgsleep.ingest import parse_night, sample_line

from conftest import make_record, make_sample


class TestStage:
    def test_codes_are_pinned(self):
        assert int(Stage.WAKE) == 0
        assert int(Stage.REM) == 1
        assert int(Stage.LIGHT) == 2
        assert int(Stage.DEEP) == 3

    def test_from_name_case_insensitive(self):
        assert Stage.from_name("wake") is Stage.WAKE
        assert Stage.from_name("Deep") is Stage.DEEP
        assert Stage.from_name("REM") is Stage.REM

    def test_from_name_unknown(self):
        with pytest.raises(InvalidStageCode):
            Stage.from_name("n3")

    def test_level_names(self):
        assert [s.level_name for s in Stage] == ["wake", "rem", "light", "deep"]


class TestVitalsSample:
    """Row values as a NightRecord accepts or rejects them."""

    def test_zero_hr_is_motion_marker(self):
        rec = make_record([make_sample(5, hr=0.0), make_sample(6, hr=55.0)])
        assert [s.hr for s in rec.samples] == [0.0, 55.0]

    def test_vitals_tuple_order(self):
        s = VitalsSample(t=1, hr=1.0, rr=2.0, sv=3.0, hrv=4.0, b2b=5.0)
        assert s[1:] == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert make_record([s]).vitals.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0]]

    def test_ints_coerced_to_float(self):
        s = make_record([(0, 60, 14, 70, 40, 1000)]).samples[0]
        assert isinstance(s.hr, float) and s.hr == 60.0

    @pytest.mark.parametrize("field", ["hr", "rr", "sv", "hrv", "b2b"])
    def test_negative_rejected(self, field):
        kwargs = dict(t=0, hr=60.0, rr=14.0, sv=70.0, hrv=40.0, b2b=1000.0)
        kwargs[field] = -0.5
        with pytest.raises(NegativeVital):
            make_record([VitalsSample(**kwargs)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NegativeVital):
            make_record([make_sample(0, hr=bad)])


class TestStageInterval:
    def test_end_exclusive(self):
        iv = StageInterval(Stage.LIGHT, start_t=10, duration=30)
        assert iv.end_t == 40

    @pytest.mark.parametrize("dur", [0, -5])
    def test_positive_duration_required(self, dur):
        with pytest.raises(ValueError):
            StageInterval(Stage.WAKE, start_t=0, duration=dur)


class TestNightRecord:
    def test_monotonic_timestamps_enforced(self):
        samples = [make_sample(0), make_sample(2), make_sample(2)]
        with pytest.raises(ValueError):
            make_record(samples)

    def test_repeated_t_is_non_monotonic_timestamp(self):
        """The record owns the check, so building a record and parsing a
        file fail alike."""
        samples = [make_sample(0), make_sample(2), make_sample(2)]
        with pytest.raises(NonMonotonicTimestamp) as built:
            make_record(samples)
        with pytest.raises(NonMonotonicTimestamp) as parsed:
            parse_night(map(sample_line, samples), "ndjson")
        assert str(built.value) == str(parsed.value) == "timestamp not strictly increasing at t=2"

    def test_span_and_bounds(self):
        rec = make_record([make_sample(3), make_sample(9)])
        assert rec.last_t == 9

    def test_empty_record(self):
        rec = make_record([])
        assert rec.last_t == -1

    @pytest.mark.parametrize("t", [[-1, 0, 1], [0, MAX_NIGHT_SECONDS]],
                             ids=["negative", "past-a-week"])
    def test_t_outside_a_week_rejected(self, t):
        with pytest.raises(ValueError, match="maximum night length"):
            make_record(make_sample(v) for v in t)

    def test_last_second_of_a_week_accepted(self):
        rec = make_record([make_sample(0), make_sample(MAX_NIGHT_SECONDS - 1)])
        assert rec.last_t == MAX_NIGHT_SECONDS - 1

    def test_bounds_and_gaps_are_python_ints(self):
        rec = make_record([make_sample(3), make_sample(9)])
        assert type(rec.last_t) is int
        assert all(type(v) is int for gap in rec.gaps for v in gap)
        assert rec.gaps == ((4, 5),)

    def test_columns_are_read_only(self):
        rec = make_record([make_sample(0), make_sample(1)])
        with pytest.raises(ValueError):
            rec.vitals[0, 0] = 1.0
        with pytest.raises(ValueError):
            rec.t[0] = 5

    def test_record_is_id_and_columns(self):
        assert [f.name for f in dataclasses.fields(NightRecord)] == ["night_id", "t", "vitals"]
        rec = NightRecord("n", [0, 1, 5], np.ones((3, 5)))
        assert rec.gaps == ((2, 3),)

    def test_mismatched_column_shapes_rejected(self):
        with pytest.raises(ValueError):
            NightRecord("n", np.arange(3), np.ones((2, 5)))

    @given(
        n=st.integers(1, 30),
        bad=st.sampled_from([-0.5, -1e300, math.nan, math.inf, -math.inf]),
        cells=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 4)),
                       min_size=1, max_size=4),
    )
    def test_first_bad_vital_rejected_row_major(self, n, bad, cells):
        rows = [list(make_sample(2 * t)) for t in range(n)]
        cells = sorted({(r % n, c) for r, c in cells})
        for r, c in cells:
            rows[r][1 + c] = bad
        with pytest.raises(NegativeVital) as exc:
            make_record(rows)
        row, col = cells[0]
        assert exc.value.field == VITAL_FIELDS[col]
        assert exc.value.t == 2 * row

    @given(ts=st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True),
           data=st.data())
    def test_repeated_t_rejected(self, ts, data):
        ts = sorted(ts)
        at = data.draw(st.integers(0, len(ts) - 1))
        ts.insert(at + 1, ts[at])
        with pytest.raises(ValueError, match=f"at t={ts[at]}$"):
            make_record([make_sample(t) for t in ts])


def _gaps_oracle(ts):
    """Missing-run reconstruction by scanning every second between endpoints."""
    if len(ts) < 2:
        return ()
    present = set(ts)
    runs = []
    t = ts[0]
    while t <= ts[-1]:
        if t not in present:
            start = t
            while t <= ts[-1] and t not in present:
                t += 1
            runs.append((start, t - start))
        else:
            t += 1
    return tuple(runs)


class TestComputeGaps:
    def test_no_gaps(self):
        assert compute_gaps([0, 1, 2, 3]) == ()

    def test_single_gap(self):
        assert compute_gaps([0, 1, 5, 6]) == ((2, 3),)

    def test_multiple_gaps(self):
        assert compute_gaps([10, 12, 20]) == ((11, 1), (13, 7),)

    def test_short_inputs(self):
        assert compute_gaps([]) == ()
        assert compute_gaps([7]) == ()

    @given(st.lists(st.integers(0, 400), min_size=0, max_size=80, unique=True))
    def test_matches_second_by_second_scan(self, ts):
        ts = sorted(ts)
        assert compute_gaps(ts) == _gaps_oracle(ts)
