"""Classifiers against brute-force oracles, split properties, serialization.

Every learner here is hand-rolled, so each one gets an independent check:
k-NN against an O(n^2) scan, naive Bayes against direct density sums, the
forest against its own degenerate single-tree configuration, and the tree
against the memorization property of unlimited-depth CART.
"""

import math

import numpy as np
import pytest

from bcgsleep.core import EPOCH_ZERO, NightRecord, Stage
from bcgsleep.errors import (
    EmptyTrainingSet,
    RecordTooShort,
    SchemaMismatch,
    TooFewItems,
)
from bcgsleep.features import FeatureTable, N_FEATURES, standardize_apply, standardize_fit
from bcgsleep.models import (
    ForestParams,
    NIGHT_GROUPING,
    SplitSpec,
    TreeParams,
    kfold_indices,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    predict_hypnogram,
    save_model,
    split_train_test,
    train_decision_tree,
    train_gaussian_nb,
    train_knn,
    train_random_forest,
)

from conftest import make_sample


def random_dataset(rng, n=80, d=6, n_classes=4, spread=4.0):
    """Class-conditional Gaussian blobs, separable when spread is large."""
    y = rng.integers(0, n_classes, size=n)
    centers = rng.uniform(-1.0, 1.0, size=(n_classes, d)) * spread
    x = centers[y] + rng.normal(size=(n, d))
    return x, y


def windows_for(n, night_ids=None):
    rows = np.arange(n, dtype=np.int64)
    return FeatureTable(
        np.repeat(rows[:, None].astype(float), N_FEATURES, axis=1),
        rows % 4,
        rows,
        np.array(night_ids if night_ids is not None else ["n0"] * n),
    )


class TestSplit:
    def test_sizes_and_partition(self):
        windows = windows_for(100)
        train, test = split_train_test(windows, SplitSpec(seed=3))
        assert len(train) == 80 and len(test) == 20
        ids = sorted(train.start_t.tolist() + test.start_t.tolist())
        assert ids == list(range(100))

    def test_round_based_target(self):
        windows = windows_for(11)
        train, test = split_train_test(windows, SplitSpec(train_fraction=0.8))
        assert len(train) == round(0.8 * 11) == 9
        assert len(test) == 2

    def test_deterministic_per_seed(self):
        windows = windows_for(50)
        a = split_train_test(windows, SplitSpec(seed=5))
        b = split_train_test(windows, SplitSpec(seed=5))
        c = split_train_test(windows, SplitSpec(seed=6))
        assert [w.start_t for w in a[0]] == [w.start_t for w in b[0]]
        assert [w.start_t for w in a[0]] != [w.start_t for w in c[0]]

    def test_too_few_items(self):
        with pytest.raises(TooFewItems):
            split_train_test(windows_for(1), SplitSpec())

    def test_night_level_keeps_nights_whole(self):
        ids = [f"night{i % 5}" for i in range(100)]
        windows = windows_for(100, night_ids=ids)
        spec = SplitSpec(seed=2, grouping=NIGHT_GROUPING)
        train, test = split_train_test(windows, spec)
        train_nights = {w.night_id for w in train}
        test_nights = {w.night_id for w in test}
        assert not (train_nights & test_nights)
        assert len(train) + len(test) == 100
        assert len(train) >= 80  # grows in whole nights until the target

    @pytest.mark.parametrize("seed", range(8))
    def test_night_level_holds_out_a_night_of_equal_nights(self, seed):
        ids = [f"night{i // 25}" for i in range(100)]
        spec = SplitSpec(seed=seed, grouping=NIGHT_GROUPING)
        train, test = split_train_test(windows_for(100, night_ids=ids), spec)
        assert len(test) == 25  # three nights reach 75 % < 80 %; the last is held out
        assert not set(train.night_id.tolist()) & set(test.night_id.tolist())
        assert sorted(train.start_t.tolist() + test.start_t.tolist()) == list(range(100))

    def test_night_level_needs_two_nights(self):
        spec = SplitSpec(grouping=NIGHT_GROUPING)
        with pytest.raises(TooFewItems) as exc:
            split_train_test(windows_for(10), spec)
        assert (exc.value.n, exc.value.needed) == (1, 2)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(n_folds=1)
        with pytest.raises(ValueError):
            SplitSpec(grouping="row-level")


class TestKfold:
    def test_partition_and_balance(self):
        folds = kfold_indices(23, folds=5, seed=1)
        sizes = [len(f) for f in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        all_idx = sorted(int(i) for f in folds for i in f)
        assert all_idx == list(range(23))

    def test_seven_into_five(self):
        sizes = [len(f) for f in kfold_indices(7, folds=5, seed=0)]
        assert sorted(sizes, reverse=True) == [2, 2, 1, 1, 1]

    def test_too_few(self):
        with pytest.raises(TooFewItems):
            kfold_indices(4, folds=5)

    def test_deterministic(self):
        a = kfold_indices(30, folds=5, seed=9)
        b = kfold_indices(30, folds=5, seed=9)
        for fa, fb in zip(a, b):
            assert fa.tolist() == fb.tolist()


class TestDecisionTree:
    def test_memorizes_distinct_rows(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            x = rng.uniform(size=(60, 5))
            y = rng.integers(0, 4, size=60)
            tree = train_decision_tree(x, y, TreeParams(max_depth=None))
            assert predict(tree, x) == [Stage(int(c)) for c in y]

    def test_single_class_gives_single_leaf(self):
        x = np.arange(20, dtype=float).reshape(10, 2)
        tree = train_decision_tree(x, [Stage.DEEP] * 10)
        assert predict(tree, x) == [Stage.DEEP] * 10

    def test_tied_leaf_prefers_lowest_code(self):
        # identical rows, two labels: no split possible, counts tied
        x = np.ones((4, 2))
        y = [Stage.LIGHT, Stage.REM, Stage.REM, Stage.LIGHT]
        tree = train_decision_tree(x, y)
        assert predict(tree, x) == [Stage.REM] * 4

    def test_max_depth_zero_is_majority_vote(self):
        x = np.arange(12, dtype=float).reshape(6, 2)
        y = [Stage.WAKE, Stage.WAKE, Stage.WAKE, Stage.DEEP, Stage.DEEP, Stage.WAKE]
        tree = train_decision_tree(x, y, TreeParams(max_depth=0))
        assert predict(tree, x) == [Stage.WAKE] * 6

    def test_positive_scaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(4)
        x, y = random_dataset(rng, n=120, d=5)
        probe = rng.normal(size=(40, 5)) * 4.0
        tree = train_decision_tree(x, y)
        scaled = train_decision_tree(x * 4.0, y)  # power of two: exact halves
        assert predict(tree, probe / 4.0) == predict(scaled, probe)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            train_decision_tree(np.empty((0, 3)), [])

    def test_json_round_trip_is_byte_identical(self):
        rng = np.random.default_rng(8)
        x, y = random_dataset(rng)
        tree = train_decision_tree(x, y)
        text = model_to_json(tree)
        again = model_to_json(model_from_json(text))
        assert text == again


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_plain_tree(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            x, y = random_dataset(rng, n=90, d=6, spread=2.0)
            probes = rng.normal(size=(50, 6)) * 2.0
            forest = train_random_forest(
                x, y,
                ForestParams(n_trees=1, features_per_split=6, bootstrap=False),
                seed=trial,
            )
            tree = train_decision_tree(x, y)
            assert predict(forest, probes) == predict(tree, probes)
            assert predict(forest, x) == predict(tree, x)

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(2)
        x, y = random_dataset(rng, n=70)
        a = train_random_forest(x, y, ForestParams(n_trees=12), seed=5)
        b = train_random_forest(x, y, ForestParams(n_trees=12), seed=5)
        c = train_random_forest(x, y, ForestParams(n_trees=12), seed=6)
        assert model_to_json(a) == model_to_json(b)
        assert model_to_json(a) != model_to_json(c)

    def test_improves_over_chance_on_blobs(self):
        rng = np.random.default_rng(33)
        x, y = random_dataset(rng, n=400, d=6, spread=3.0)
        xt, yt = random_dataset(np.random.default_rng(34), n=100, d=6, spread=3.0)
        # same centers require the same rng stream; rebuild both jointly
        rng = np.random.default_rng(33)
        centers = rng.uniform(-1.0, 1.0, size=(4, 6)) * 3.0
        y = rng.integers(0, 4, size=400)
        x = centers[y] + rng.normal(size=(400, 6))
        yt = rng.integers(0, 4, size=100)
        xt = centers[yt] + rng.normal(size=(100, 6))
        forest = train_random_forest(x, y, ForestParams(n_trees=30), seed=0)
        acc = np.mean([p.value == t for p, t in zip(predict(forest, xt), yt)])
        assert acc > 0.8

    def test_vote_tie_takes_lowest_code(self):
        # two trees, each perfectly memorizing a different labeling
        x = np.array([[0.0], [1.0]])
        fa = train_random_forest(
            x, [Stage.DEEP, Stage.DEEP],
            ForestParams(n_trees=1, bootstrap=False, features_per_split=1), seed=0,
        )
        fb = train_random_forest(
            x, [Stage.REM, Stage.REM],
            ForestParams(n_trees=1, bootstrap=False, features_per_split=1), seed=0,
        )
        merged = fa
        merged._trees = fa._trees + fb._trees
        got = predict(merged, x)
        assert got == [Stage.REM, Stage.REM]  # code 1 beats code 3 on a 1-1 tie


def _knn_oracle(x_train, y_train, queries, k):
    """Quadratic scan with (distance, index) sorting and the vote-tie walk."""
    params = standardize_fit(x_train)
    xt = standardize_apply(x_train, params)
    q = standardize_apply(queries, params)
    nbrs = []
    preds = []
    for row in q:
        d2 = ((xt - row) ** 2).sum(axis=1)
        order = sorted(range(len(xt)), key=lambda i: (d2[i], i))[:k]
        nbrs.append(order)
        votes = np.bincount(y_train[order], minlength=4)
        best = votes.max()
        for i in order:
            if votes[y_train[i]] == best:
                preds.append(int(y_train[i]))
                break
    return np.array(nbrs), np.array(preds)


class TestKnn:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_neighbors_match_quadratic_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 500))
        x, y = random_dataset(rng, n=n, d=5, spread=1.5)
        queries = rng.normal(size=(60, 5))
        model = train_knn(x, y, k=5)
        want_nbrs, want_preds = _knn_oracle(x, y, queries, 5)
        got_nbrs = model.neighbors(queries)
        assert got_nbrs.tolist() == want_nbrs.tolist()
        assert [s.value for s in predict(model, queries)] == want_preds.tolist()

    def test_duplicate_training_rows_tie_by_index(self):
        x = np.array([[1.0, 0.0]] * 4 + [[5.0, 5.0]] * 3)
        y = np.array([0, 1, 2, 3, 0, 0, 0])
        model = train_knn(x, y, k=3)
        nbrs = model.neighbors(np.array([[1.0, 0.0]]))
        assert nbrs.tolist() == [[0, 1, 2]]

    def test_vote_tie_resolved_by_nearest_winner(self):
        # 2-2 vote split: the nearest neighbor whose label is in the tie wins
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([2, 3, 3, 2])
        model = train_knn(x, y, k=4)
        got = predict(model, np.array([[0.4]])).pop()
        assert got is Stage.LIGHT  # neighbor order 0,1,2,3; label 2 appears first

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(TooFewItems):
            train_knn(np.ones((3, 2)), [Stage.WAKE] * 3, k=5)

    def test_exact_training_point_is_own_neighbor(self):
        rng = np.random.default_rng(6)
        x, y = random_dataset(rng, n=40)
        model = train_knn(x, y, k=1)
        nbrs = model.neighbors(x)
        assert nbrs[:, 0].tolist() == list(range(40))

    def test_json_round_trip_predictions(self):
        rng = np.random.default_rng(7)
        x, y = random_dataset(rng, n=30)
        q = rng.normal(size=(10, 6))
        model = train_knn(x, y)
        back = model_from_json(model_to_json(model))
        assert predict(back, q) == predict(model, q)
        assert model_to_json(back) == model_to_json(model)


def _nb_oracle_scores(model, x):
    """Per-row, per-class log densities summed term by term in python."""
    out = []
    for row in x:
        scores = []
        for ci in range(model.classes.size):
            total = math.log(model.prior[ci])
            for j in range(len(row)):
                var = model.var[ci][j]
                mean = model.mean[ci][j]
                total += -0.5 * math.log(2.0 * math.pi * var)
                total += -((row[j] - mean) ** 2) / (2.0 * var)
            scores.append(total)
        out.append(scores)
    return np.array(out)


class TestGaussianNB:
    def test_log_posterior_matches_elementwise_sum(self):
        rng = np.random.default_rng(12)
        x, y = random_dataset(rng, n=60, d=4)
        q = rng.normal(size=(25, 4))
        model = train_gaussian_nb(x, y)
        np.testing.assert_allclose(
            model.log_posterior(q), _nb_oracle_scores(model, q), rtol=1e-12
        )

    def test_argmax_matches_oracle(self):
        rng = np.random.default_rng(13)
        x, y = random_dataset(rng, n=80, d=4, spread=2.0)
        q = rng.normal(size=(40, 4)) * 2.0
        model = train_gaussian_nb(x, y)
        want = model.classes[np.argmax(_nb_oracle_scores(model, q), axis=1)]
        assert [s.value for s in predict(model, q)] == want.tolist()

    def test_priors_are_class_fractions(self):
        x = np.arange(20, dtype=float).reshape(10, 2)
        y = [0, 0, 0, 0, 0, 0, 1, 1, 1, 3]
        model = train_gaussian_nb(x, y)
        assert model.classes.tolist() == [0, 1, 3]
        np.testing.assert_allclose(model.prior, [0.6, 0.3, 0.1])

    def test_variance_smoothing_keeps_constant_features_finite(self):
        x = np.column_stack([np.ones(8), np.arange(8, dtype=float)])
        y = [0, 0, 0, 0, 1, 1, 1, 1]
        model = train_gaussian_nb(x, y)
        assert np.all(model.var > 0.0)
        scores = model.log_posterior(np.array([[1.0, 3.5]]))
        assert np.all(np.isfinite(scores))

    def test_all_constant_data_still_finite(self):
        x = np.ones((6, 3))
        y = [0, 0, 0, 1, 1, 1]
        model = train_gaussian_nb(x, y)
        assert np.all(model.var == 1e-9)
        assert predict(model, x)  # no crash, deterministic result

    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(14)
        x, y = random_dataset(rng, n=200, d=6, spread=6.0)
        model = train_gaussian_nb(x, y)
        acc = np.mean([p.value == t for p, t in zip(predict(model, x), y)])
        assert acc > 0.95


class TestPredictContract:
    def model(self):
        rng = np.random.default_rng(20)
        x, y = random_dataset(rng, n=30, d=N_FEATURES)
        return train_decision_tree(x, y)

    def test_empty_input_empty_output(self):
        assert predict(self.model(), np.empty((0, N_FEATURES))) == []

    def test_wrong_width_rejected(self):
        with pytest.raises(SchemaMismatch):
            predict(self.model(), np.ones((3, N_FEATURES + 1)))

    def test_hypnogram_covers_every_second(self):
        rng = np.random.default_rng(21)
        samples = [
            make_sample(
                t, hr=rng.uniform(50, 80), rr=rng.uniform(10, 18),
                sv=rng.uniform(60, 80), hrv=rng.uniform(20, 60),
                b2b=rng.uniform(800, 1100),
            )
            for t in range(45)
        ]
        rec = NightRecord("n", "s", EPOCH_ZERO, samples)
        hyp = predict_hypnogram(self.model(), rec)
        assert len(hyp) == 45
        assert hyp[-9:] == [hyp[-10]] * 9  # tail inherits the last window

    def test_short_record_rejected(self):
        rec = NightRecord("n", "s", EPOCH_ZERO, [make_sample(t) for t in range(9)])
        with pytest.raises(RecordTooShort):
            predict_hypnogram(self.model(), rec)


class TestSerialization:
    def all_models(self):
        rng = np.random.default_rng(30)
        x, y = random_dataset(rng, n=40, d=5)
        return [
            train_decision_tree(x, y),
            train_random_forest(x, y, ForestParams(n_trees=3), seed=1),
            train_knn(x, y),
            train_gaussian_nb(x, y),
        ]

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        probe = rng.normal(size=(12, 5))
        for model in self.all_models():
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            back = load_model(path)
            assert back.kind == model.kind
            assert predict(back, probe) == predict(model, probe)
            assert model_to_json(back) == model_to_json(model)

    def test_schema_field_pinned(self):
        import json

        doc = json.loads(model_to_json(self.all_models()[0]))
        assert doc["schema"] == 1
        assert set(doc) == {"schema", "kind", "params", "seed", "state"}

    def test_bad_documents_rejected(self):
        with pytest.raises(SchemaMismatch):
            model_from_json("not json at all {")
        with pytest.raises(SchemaMismatch):
            model_from_json('{"schema":2,"kind":"DecisionTree"}')
        with pytest.raises(SchemaMismatch):
            model_from_json('{"schema":1,"kind":"Perceptron"}')
