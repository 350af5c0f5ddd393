"""Domain types: stage codes, sample validation, record invariants, gap runs."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep.core import (
    EPOCH_ZERO,
    NightRecord,
    Stage,
    StageInterval,
    VitalsSample,
    compute_gaps,
)
from bcgsleep.errors import InvalidStageCode, NegativeVital

from conftest import make_sample


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
    def test_zero_hr_is_motion_marker(self):
        s = make_sample(5, hr=0.0)
        assert s.motion_invalid
        assert not make_sample(5, hr=55.0).motion_invalid

    def test_vitals_tuple_order(self):
        s = VitalsSample(t=1, hr=1.0, rr=2.0, sv=3.0, hrv=4.0, b2b=5.0)
        assert s.vitals() == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_ints_coerced_to_float(self):
        s = VitalsSample(t=0, hr=60, rr=14, sv=70, hrv=40, b2b=1000)
        assert isinstance(s.hr, float) and s.hr == 60.0

    @pytest.mark.parametrize("field", ["hr", "rr", "sv", "hrv", "b2b"])
    def test_negative_rejected(self, field):
        kwargs = dict(t=0, hr=60.0, rr=14.0, sv=70.0, hrv=40.0, b2b=1000.0)
        kwargs[field] = -0.5
        with pytest.raises(NegativeVital):
            VitalsSample(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NegativeVital):
            make_sample(0, hr=bad)


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
            NightRecord("n", "s", EPOCH_ZERO, samples)

    def test_span_and_bounds(self):
        rec = NightRecord("n", "s", EPOCH_ZERO, [make_sample(3), make_sample(9)])
        assert rec.first_t == 3
        assert rec.last_t == 9
        assert rec.span_seconds == 7

    def test_empty_record(self):
        rec = NightRecord("n", "s", EPOCH_ZERO, [])
        assert rec.span_seconds == 0
        assert rec.last_t == -1

    def test_gap_total(self):
        rec = NightRecord(
            "n", "s", EPOCH_ZERO, [make_sample(0), make_sample(10)],
            gaps=((1, 9),),
        )
        assert rec.total_gap_seconds() == 9


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
