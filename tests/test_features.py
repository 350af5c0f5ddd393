"""Window statistics against a brute-force oracle, windowing identity, PCA."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep.core import Stage, StageInterval
from bcgsleep.errors import DegenerateMatrix, EmptyMatrix
from bcgsleep.ingest import align_labels
from bcgsleep.features import (
    FEATURE_CSV_HEADER,
    FEATURE_NAMES,
    N_FEATURES,
    WINDOW_LEN,
    FeatureTable,
    candidate_starts,
    compute_stats,
    feature_matrix_for_starts,
    kept_starts,
    parse_feature_csv,
    pca_explained_variance,
    standardize_apply,
    standardize_fit,
    window_night,
    windows_to_csv,
    windows_to_matrix,
)

from conftest import flat_record, make_record, make_sample


def _stats_oracle(values):
    """All six statistics from first principles, no numpy."""
    vals = list(values)
    n = len(vals)
    mean = sum(vals) / n
    s = sorted(vals)
    if n % 2:
        median = s[n // 2]
    else:
        median = (s[n // 2 - 1] + s[n // 2]) / 2.0
    var = sum((v - mean) ** 2 for v in vals) / n
    # linear interpolation between closest ranks (the common "type 7" rule)
    h = (n - 1) * 0.75
    lo = math.floor(h)
    p75 = s[lo] + (h - lo) * (s[min(lo + 1, n - 1)] - s[lo])
    return (mean, median, max(vals), min(vals), math.sqrt(var), p75)


class TestComputeStats:
    def test_thousand_random_windows_match_oracle(self):
        rng = random.Random(1234)
        for _ in range(1000):
            vals = [rng.uniform(0.0, 200.0) for _ in range(10)]
            got = compute_stats(vals)
            want = _stats_oracle(vals)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    def test_one_through_ten_pinned(self):
        got = compute_stats([float(v) for v in range(1, 11)])
        assert got[0] == 5.5
        assert got[1] == 5.5
        assert got[2] == 10.0
        assert got[3] == 1.0
        assert got[4] == pytest.approx(math.sqrt(8.25), abs=1e-12)  # 2.8723...
        assert got[5] == 7.75

    def test_std_is_population_form(self):
        vals = [1.0, 2.0, 3.0, 4.0] + [2.5] * 6
        import statistics

        assert compute_stats(vals)[4] == pytest.approx(
            statistics.pstdev(vals), abs=1e-15
        )

    @pytest.mark.parametrize("n", [9, 11, 0])
    def test_wrong_length_rejected(self, n):
        with pytest.raises(ValueError):
            compute_stats([1.0] * n)


class TestWindowing:
    def two_stage_record(self):
        rec = flat_record(200)
        labels = [
            StageInterval(Stage.WAKE, 0, 100),
            StageInterval(Stage.LIGHT, 100, 100),
        ]
        return rec, labels

    def test_two_stage_example_exact_counts(self):
        rec, intervals = self.two_stage_record()
        windows = window_night(rec, align_labels(rec, intervals))
        n_candidates = len(candidate_starts(rec))
        assert n_candidates == 191
        assert len(windows) == 182
        assert n_candidates - len(windows) == 9

    def test_kept_windows_are_label_pure(self):
        rec, intervals = self.two_stage_record()
        windows = window_night(rec, align_labels(rec, intervals))
        want = np.where(windows.start_t <= 90, Stage.WAKE, Stage.LIGHT)
        assert windows.y.tolist() == want.tolist()

    @given(
        layout=st.lists(
            st.tuples(st.sampled_from([*list(Stage), None]), st.integers(1, 25)),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_brute_force_keep_set(self, layout):
        per_second = []
        for stage, dur in layout:
            per_second.extend([stage] * dur)
        n = len(per_second)
        if n < WINDOW_LEN:
            per_second.extend([None] * (WINDOW_LEN - n))
            n = len(per_second)
        rec = flat_record(n)
        codes = [-1 if s is None else int(s) for s in per_second]
        windows = window_night(rec, codes)
        kept = set(windows.start_t.tolist())
        assert kept_starts(np.array(codes)).tolist() == sorted(kept)
        expected = set()
        for s in range(0, n - WINDOW_LEN + 1):
            chunk = per_second[s : s + WINDOW_LEN]
            if chunk[0] is not None and all(c is chunk[0] for c in chunk):
                expected.add(s)
        assert kept == expected

    def test_stats_equal_direct_computation(self):
        rng = random.Random(9)
        samples = [
            make_sample(
                t,
                hr=rng.uniform(40, 90),
                rr=rng.uniform(8, 20),
                sv=rng.uniform(50, 90),
                hrv=rng.uniform(20, 80),
                b2b=rng.uniform(700, 1200),
            )
            for t in range(40)
        ]
        rec = make_record(samples)
        windows = window_night(rec, [Stage.DEEP] * 40)
        assert len(windows) == 31
        row = windows.x[17]
        window_samples = samples[17:27]
        expected = []
        for sig in ("hr", "rr", "sv", "b2b", "hrv"):
            expected.extend(_stats_oracle([getattr(s, sig) for s in window_samples]))
        assert len(row) == N_FEATURES
        for g, e in zip(row, expected):
            assert g == pytest.approx(e, abs=1e-10)

    def test_feature_matrix_for_starts_matches_loop(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(1.0, 99.0, size=(30, 5))
        starts = np.array([0, 4, 20])
        got = feature_matrix_for_starts(matrix, starts)
        assert got.shape == (3, N_FEATURES)
        for row, s in zip(got, starts):
            expected = []
            for col in range(5):
                expected.extend(_stats_oracle(matrix[s : s + WINDOW_LEN, col]))
            np.testing.assert_allclose(row, expected, atol=1e-10)

    def test_feature_name_layout_is_signal_major(self):
        assert FEATURE_NAMES[0] == "hr_mean"
        assert FEATURE_NAMES[5] == "hr_p75"
        assert FEATURE_NAMES[6] == "rr_mean"
        assert FEATURE_NAMES[-1] == "hrv_p75"
        assert len(FEATURE_NAMES) == 30


class TestStandardize:
    def test_fit_produces_zero_mean_unit_std(self):
        rng = np.random.default_rng(11)
        x = rng.normal(5.0, 3.0, size=(50, 4))
        params = standardize_fit(x)
        z = standardize_apply(x, params)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        mean, std = standardize_fit(x)
        assert std[1] == 1.0  # guarded divisor
        z = standardize_apply(x, (mean, std))
        np.testing.assert_allclose(z[:, 1], 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrix):
            standardize_fit(np.empty((0, 3)))


class TestPca:
    def test_diag_four_one_ratios(self):
        # sample covariance is diag(c*4, c*1) for any ddof, ratios fixed
        x = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ratios = pca_explained_variance(x)
        assert ratios[0] == pytest.approx(0.8, abs=1e-6)
        assert ratios[1] == pytest.approx(0.2, abs=1e-6)

    def test_ratio_properties_on_random_data(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            d = int(rng.integers(1, 8))
            x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
            ratios = pca_explained_variance(x)
            assert len(ratios) == d
            assert all(r >= 0.0 for r in ratios)
            assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
            assert sum(ratios) == pytest.approx(1.0, abs=1e-9)

    def test_single_row_rejected(self):
        with pytest.raises(EmptyMatrix):
            pca_explained_variance(np.ones((1, 3)))

    def test_constant_data_rejected(self):
        with pytest.raises(DegenerateMatrix):
            pca_explained_variance(np.ones((5, 3)))


class TestCsvRoundTrip:
    def make_windows(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 150.0, size=(8, N_FEATURES))
        y = np.arange(8, dtype=np.int64) % 4
        return FeatureTable(x, y, np.arange(8, dtype=np.int64), np.full(8, "n1"))

    def test_round_trip_is_exact(self):
        windows = self.make_windows()
        lines = list(windows_to_csv(windows))
        assert lines[0] == FEATURE_CSV_HEADER
        assert lines[2].endswith(",rem")
        back = parse_feature_csv(lines, night_id="n1")
        assert len(back) == len(windows)
        assert np.array_equal(back.x, windows.x)  # repr text recovers exact doubles
        assert back.y.tolist() == windows.y.tolist()
        assert back.start_t.tolist() == list(range(8))
        assert back.night_id.tolist() == ["n1"] * 8

    def test_empty_table_round_trip(self):
        back = parse_feature_csv(windows_to_csv(self.make_windows()[np.arange(0)]))
        assert len(back) == 0 and back.x.shape == (0, N_FEATURES)

    def test_bad_header_rejected(self):
        from bcgsleep.errors import MalformedRow

        with pytest.raises(MalformedRow):
            parse_feature_csv(["nope", "1,2,3"])

    def test_bad_row_width_rejected(self):
        from bcgsleep.errors import MalformedRow

        with pytest.raises(MalformedRow) as exc:
            parse_feature_csv([FEATURE_CSV_HEADER, "1.0,2.0,wake"])
        assert exc.value.line_no == 2

    def test_non_number_rejected_at_its_line(self):
        from bcgsleep.errors import MalformedRow

        good = ",".join(["1.0"] * N_FEATURES) + ",wake"
        bad = ",".join(["1.0"] * (N_FEATURES - 1) + ["x"]) + ",wake"
        with pytest.raises(MalformedRow) as exc:
            parse_feature_csv([FEATURE_CSV_HEADER, good, bad])
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_rejected_at_its_line(self, cell):
        from bcgsleep.errors import MalformedRow

        good = ",".join(["1.0"] * N_FEATURES) + ",wake"
        bad = ",".join(["1.0"] * 4 + [cell] + ["1.0"] * (N_FEATURES - 5)) + ",wake"
        with pytest.raises(MalformedRow) as exc:
            parse_feature_csv([FEATURE_CSV_HEADER, good, "", good, bad, good])
        assert exc.value.line_no == 5

    def test_unknown_stage_rejected(self):
        from bcgsleep.errors import InvalidStageCode

        with pytest.raises(InvalidStageCode, match="unknown stage name: 'n3'"):
            parse_feature_csv([FEATURE_CSV_HEADER, ",".join(["1.0"] * N_FEATURES) + ",n3"])

    def test_windows_to_matrix_shapes(self):
        windows = self.make_windows()
        x, y = windows_to_matrix(windows)
        assert x.shape == (8, N_FEATURES)
        assert x is windows.x and y is windows.y
