"""Metrics against counting oracles, hand-worked cases, and scipy.stats."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep.core import Stage
from bcgsleep.errors import ConstantInput, LengthMismatch, TooFewItems
from bcgsleep.evaluation import (
    accuracy,
    box_stats,
    confusion_matrix,
    confusion_to_csv,
    efficiency_comparison,
    macro_f1,
    pearson_r,
    rmse,
)

from conftest import checkout_env

stage_lists = st.lists(st.sampled_from(list(Stage)), min_size=1, max_size=60)


class TestConfusionMatrix:
    @given(true=stage_lists)
    def test_matches_pair_counting(self, true):
        rng = np.random.default_rng(0)
        pred = [Stage(int(c)) for c in rng.integers(0, 4, size=len(true))]
        cm = confusion_matrix(true, pred)
        for p in range(4):
            for t in range(4):
                want = sum(
                    1 for tv, pv in zip(true, pred) if tv.value == t and pv.value == p
                )
                assert cm[p, t] == want

    def test_orientation_rows_are_predicted(self):
        cm = confusion_matrix([Stage.WAKE], [Stage.DEEP])
        assert cm[Stage.DEEP.value, Stage.WAKE.value] == 1
        assert cm.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([Stage.WAKE], [Stage.WAKE, Stage.REM])

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([], [])

    @pytest.mark.parametrize("true, pred", [([-1, 0], [0, 0]), ([4, 0], [0, 0]),
                                            ([0, 0], [0, 9])])
    def test_codes_outside_stages_rejected(self, true, pred):
        """-1 used to count as deep and 4 to raise IndexError."""
        with pytest.raises(ValueError, match="is not a stage code 0..3"):
            confusion_matrix(true, pred)


class TestAccuracyAndF1:
    def test_perfect_prediction(self):
        labels = [Stage.WAKE, Stage.REM, Stage.LIGHT, Stage.DEEP] * 3
        cm = confusion_matrix(labels, labels)
        assert accuracy(cm) == 1.0
        assert macro_f1(cm) == 1.0

    def test_hand_worked_two_class_case(self):
        # true:  W W W L L   pred: W L W W L
        true = [Stage.WAKE] * 3 + [Stage.LIGHT] * 2
        pred = [Stage.WAKE, Stage.LIGHT, Stage.WAKE, Stage.WAKE, Stage.LIGHT]
        cm = confusion_matrix(true, pred)
        assert accuracy(cm) == pytest.approx(3 / 5)
        # wake: P=2/3, R=2/3, F1=2/3; light: P=1/2, R=1/2, F1=1/2
        # rem and deep never appear: F1=0 each
        assert macro_f1(cm) == pytest.approx((2 / 3 + 1 / 2) / 4)

    def test_absent_class_scores_zero(self):
        true = [Stage.WAKE, Stage.WAKE]
        pred = [Stage.WAKE, Stage.WAKE]
        assert macro_f1(confusion_matrix(true, pred)) == pytest.approx(0.25)

    @given(true=stage_lists)
    def test_accuracy_equals_fraction_correct(self, true):
        rng = np.random.default_rng(1)
        pred = [Stage(int(c)) for c in rng.integers(0, 4, size=len(true))]
        cm = confusion_matrix(true, pred)
        frac = sum(1 for t, p in zip(true, pred) if t is p) / len(true)
        assert accuracy(cm) == pytest.approx(frac)


class TestRmse:
    def test_zero_on_equal(self):
        labels = [Stage.REM, Stage.DEEP]
        assert rmse(labels, labels) == 0.0

    def test_hand_computed(self):
        true = [Stage.WAKE, Stage.DEEP]  # codes 0, 3
        pred = [Stage.REM, Stage.REM]  # codes 1, 1
        assert rmse(true, pred) == pytest.approx(math.sqrt((1 + 4) / 2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([Stage.WAKE], [])

    @pytest.mark.parametrize("true, pred", [([5], [0]), ([0], [-1])])
    def test_codes_outside_stages_rejected(self, true, pred):
        with pytest.raises(ValueError, match="is not a stage code 0..3"):
            rmse(true, pred)


def _construct_with_exact_r(r, n=8):
    """x arbitrary; y built from x's direction plus an orthogonal residual."""
    x = np.arange(n, dtype=float)
    e = np.zeros(n)
    e[0], e[1] = 1.0, -1.0
    xc = x - x.mean()
    ec = e - e.mean()
    ec -= (ec @ xc) / (xc @ xc) * xc  # orthogonalize against x
    xu = xc / np.linalg.norm(xc)
    eu = ec / np.linalg.norm(ec)
    y = r * xu + math.sqrt(1.0 - r * r) * eu
    return x, y


class TestPearson:
    def test_package_import_loads_no_scipy(self):
        """scipy is only needed for the p-value, so importing the package and
        its CLI leaves it unloaded; pearson_r loads it."""
        code = ("import sys, bcgsleep, bcgsleep.cli; a = 'scipy' in sys.modules; "
                "bcgsleep.evaluation.pearson_r([1, 2, 3], [1, 3, 2]); "
                "print(a, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=checkout_env(), check=True).stdout
        assert out.split() == ["False", "True"]

    def test_paper_operating_point(self):
        x, y = _construct_with_exact_r(0.897, n=8)
        r, p = pearson_r(x, y)
        assert r == pytest.approx(0.897, abs=1e-12)
        assert p == pytest.approx(0.0025, abs=0.0005)
        assert p == pytest.approx(0.00252506, abs=5e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_scipy_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        r, p = pearson_r(x, y)
        want = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(want.statistic, abs=1e-12)
        assert p == pytest.approx(want.pvalue, rel=1e-10)

    def test_perfect_correlation_p_zero(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r, p = pearson_r(x, [2 * v for v in x])
        assert r == 1.0
        assert p == 0.0

    def test_anticorrelation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r, p = pearson_r(x, [-v for v in x])
        assert r == -1.0
        assert p == 0.0

    def test_constant_inputs_rejected(self):
        with pytest.raises(ConstantInput):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantInput):
            pearson_r([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_too_few_points(self):
        with pytest.raises(TooFewItems, match="need at least 3 points, got 2"):
            pearson_r([1.0, 2.0], [3.0, 4.0])

    def test_shared_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=20)
        y = 0.4 * x + rng.normal(size=20)
        perm = rng.permutation(20)
        assert pearson_r(x, y) == pytest.approx(pearson_r(x[perm], y[perm]))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert pearson_r(x, y) == pytest.approx(pearson_r(y, x))


class TestBoxStats:
    def test_matches_linear_interpolation_percentiles(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 1, size=17).tolist()
        got = box_stats(v)
        assert got["q1"] == pytest.approx(np.percentile(v, 25), abs=1e-12)
        assert got["median"] == pytest.approx(np.percentile(v, 50), abs=1e-12)
        assert got["q3"] == pytest.approx(np.percentile(v, 75), abs=1e-12)
        assert got["min"] == min(v) and got["max"] == max(v)
        assert got["mean"] == pytest.approx(np.mean(v))

    def test_quartiles_interpolate_linearly(self):
        got = box_stats([1, 2, 3, 4])
        assert (got["q1"], got["median"], got["q3"]) == (1.75, 2.5, 3.25)


class TestEfficiencyComparison:
    def test_affine_relation_gives_r_one(self):
        ref = [0.70, 0.75, 0.80, 0.85, 0.90]
        alg = [0.02 + v for v in ref]
        out = efficiency_comparison(alg, ref, ["a", "b", "c", "d", "e"])
        assert out["r"] == pytest.approx(1.0)
        assert out["p"] == 0.0
        assert len(out["nights"]) == 5
        assert out["nights"][0]["algorithm"] == pytest.approx(0.72)
        assert set(out["algorithm"]) == {"mean", "min", "q1", "median", "q3", "max"}

    def test_night_ids_attached(self):
        out = efficiency_comparison(
            [0.7, 0.8, 0.9], [0.71, 0.79, 0.92], night_ids=["a", "b", "c"]
        )
        assert [n["night_id"] for n in out["nights"]] == ["a", "b", "c"]

    def test_json_serializable(self):
        import json

        out = efficiency_comparison([0.7, 0.8, 0.9], [0.72, 0.81, 0.88], ["a", "b", "c"])
        json.dumps(out)

    def test_too_few_nights(self):
        with pytest.raises(TooFewItems, match="need at least 3 nights, got 2"):
            efficiency_comparison([0.7, 0.8], [0.7, 0.8], ["a", "b"])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            efficiency_comparison([0.7, 0.8, 0.9], [0.7, 0.8], ["a", "b", "c"])


class TestConfusionCsv:
    def test_golden_layout(self):
        cm = np.arange(16).reshape(4, 4)
        lines = list(confusion_to_csv(cm))
        assert lines[0] == "predicted\\true,wake,rem,light,deep"
        assert lines[1] == "wake,0,1,2,3"
        assert lines[4] == "deep,12,13,14,15"
