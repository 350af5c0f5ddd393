"""Imputation and series extraction against brute-force expectations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep.errors import AllMissing
from bcgsleep.preprocess import clean_for_features, raw_hr_series

from conftest import flat_record, make_record, make_sample


def _impute_oracle(series):
    """Scan for each hole: previous present value, else the next one."""
    out = []
    for i, v in enumerate(series):
        if v is not None:
            out.append(v)
            continue
        fill = None
        for j in range(i - 1, -1, -1):
            if series[j] is not None:
                fill = series[j]
                break
        if fill is None:
            for j in range(i + 1, len(series)):
                if series[j] is not None:
                    fill = series[j]
                    break
        out.append(fill)
    return out


vital = st.floats(0.0, 2000.0, allow_nan=False)
# one entry per second: None is a hole, a zero hr a motion-flagged second
night_seconds = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.one_of(st.just(0.0), vital), vital, vital, vital, vital),
    ),
    min_size=1,
    max_size=60,
).filter(lambda secs: any(v is not None and v[0] != 0.0 for v in secs))


class TestImputeMissing:
    """The fill inside clean_for_features, signal by signal."""

    @given(seconds=night_seconds)
    def test_matches_nearest_scan(self, seconds):
        rows = [(t, *v) for t, v in enumerate(seconds) if v is not None]
        rec = make_record(rows)
        clean = clean_for_features(rec)
        n = rec.last_t + 1
        assert clean.t.tolist() == list(range(n))
        for col in range(5):
            series = [None] * n
            for row in rows:
                if row[1] != 0.0:
                    series[row[0]] = row[1 + col]
            assert clean.vitals[:, col].tolist() == _impute_oracle(series)

    def test_previous_preferred(self):
        rec = make_record([make_sample(0, hr=1.0), make_sample(2, hr=9.0)])
        assert clean_for_features(rec).vitals[:, 0].tolist() == [1.0, 1.0, 9.0]

    def test_leading_holes_take_next(self):
        rec = make_record([make_sample(2, hr=4.0), make_sample(3, hr=0.0)])
        assert clean_for_features(rec).vitals[:, 0].tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_present_values_untouched(self):
        rec = make_record([make_sample(t, hr=v) for t, v in enumerate([3.0, 1.0, 2.0])])
        assert clean_for_features(rec).vitals[:, 0].tolist() == [3.0, 1.0, 2.0]

    def test_all_missing_raises(self):
        with pytest.raises(AllMissing):
            clean_for_features(make_record([]))

    def test_input_not_mutated(self):
        rec = make_record([make_sample(1, hr=0.0), make_sample(3, hr=5.0)])
        t, vitals = rec.t.copy(), rec.vitals.copy()
        clean_for_features(rec)
        assert np.array_equal(rec.t, t) and np.array_equal(rec.vitals, vitals)


class TestRawHrSeries:
    def test_gaps_become_none(self):
        # a second never received is NaN in the float64 series
        rec = flat_record(6, missing={2, 3})
        series = raw_hr_series(rec)
        assert series.dtype == np.float64
        np.testing.assert_array_equal(series, [60.0, 60.0, np.nan, np.nan, 60.0, 60.0])

    def test_zero_hr_preserved(self):
        samples = [make_sample(0, hr=60.0), make_sample(1, hr=0.0)]
        rec = make_record(samples)
        assert raw_hr_series(rec).tolist() == [60.0, 0.0]


class TestCleanForFeatures:
    def test_fills_every_second(self):
        rec = flat_record(10, missing={4, 5})
        clean = clean_for_features(rec)
        assert [s.t for s in clean.samples] == list(range(10))
        assert clean.gaps == ()

    def test_gap_seconds_copy_previous_sample(self):
        samples = [make_sample(0, hr=55.0, rr=10.0), make_sample(3, hr=66.0)]
        rec = make_record(samples)
        clean = clean_for_features(rec)
        assert clean.samples[1].hr == 55.0
        assert clean.samples[1].rr == 10.0
        assert clean.samples[2].hr == 55.0
        assert clean.samples[3].hr == 66.0

    def test_zero_hr_second_treated_as_hole_in_all_signals(self):
        samples = [
            make_sample(0, hr=55.0, rr=10.0, sv=60.0, hrv=30.0, b2b=900.0),
            make_sample(1, hr=0.0, rr=99.0, sv=99.0, hrv=99.0, b2b=99.0),
            make_sample(2, hr=70.0),
        ]
        rec = make_record(samples)
        clean = clean_for_features(rec)
        # the whole second is suspect: every signal comes from t=0, not t=1
        assert clean.samples[1][1:] == samples[0][1:]

    def test_valid_samples_pass_through(self):
        rec = flat_record(5)
        clean = clean_for_features(rec)
        assert clean.samples == rec.samples

    def test_night_id_preserved(self):
        rec = flat_record(5, night_id="n7")
        clean = clean_for_features(rec)
        assert clean.night_id == rec.night_id

    def test_all_zero_hr_raises(self):
        samples = [make_sample(0, hr=0.0), make_sample(1, hr=0.0)]
        rec = make_record(samples)
        with pytest.raises(AllMissing):
            clean_for_features(rec)
