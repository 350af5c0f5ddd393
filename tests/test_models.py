"""Classifiers against brute-force oracles, split properties, serialization.

Every learner here is hand-rolled, so each one gets an independent check:
k-NN against an O(n^2) scan, naive Bayes against direct density sums, the
forest against its own degenerate single-tree configuration, and the tree
against the memorization property of unlimited-depth CART.
"""

import gc
import json
import math
import os
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep import models
from bcgsleep.core import Stage
from bcgsleep.errors import SchemaMismatch, TooFewItems
from bcgsleep.features import FeatureTable, N_FEATURES, standardize_apply, standardize_fit
from bcgsleep.models import (
    ForestParams,
    NIGHT_GROUPING,
    WINDOW_GROUPING,
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

from conftest import claim_cpus, make_record, make_sample, record_forks, reencode


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
        with pytest.raises(TooFewItems, match="need at least 2 windows, got 1"):
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
        assert (exc.value.n, exc.value.needed, exc.value.unit) == (1, 2, "nights")

    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=7),
        interleave=st.booleans(),
        shuffle_seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**64 - 1),
        grouping=st.sampled_from([WINDOW_GROUPING, NIGHT_GROUPING]),
    )
    def test_one_rule_for_both_groupings(self, sizes, interleave, shuffle_seed,
                                         fraction, seed, grouping):
        """Train is the shortest prefix of the shuffled groups that reaches
        round(fraction * N) windows, capped at all groups but the last; both
        sides come back in table order and no night straddles the split."""
        ids = np.repeat([f"night{i}" for i in range(len(sizes))], sizes)
        if interleave:
            ids = np.random.default_rng(shuffle_seed).permutation(ids)
        n = ids.size
        windows = windows_for(n, night_ids=ids)
        spec = SplitSpec(train_fraction=fraction, seed=seed, grouping=grouping)
        if grouping == WINDOW_GROUPING:
            groups = [[i] for i in range(n)]
        else:  # nights in order of first appearance
            _, first = np.unique(ids, return_index=True)
            groups = [np.flatnonzero(ids == ids[i]).tolist() for i in np.sort(first)]
        if len(groups) < 2:
            with pytest.raises(TooFewItems):
                split_train_test(windows, spec)
            return
        train, test = split_train_test(windows, spec)
        tr, te = train.start_t, test.start_t
        assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(n))
        assert (np.diff(tr) > 0).all() and (np.diff(te) > 0).all()
        assert len(te) > 0
        if grouping == NIGHT_GROUPING:
            assert not set(train.night_id.tolist()) & set(test.night_id.tolist())
        target = round(fraction * n)
        perm = np.random.default_rng(seed).permutation(len(groups))
        k = 0
        while k < len(groups) - 1 and sum(len(groups[g]) for g in perm[:k]) < target:
            k += 1
        assert tr.tolist() == sorted(i for g in perm[:k] for i in groups[g])
        if grouping == WINDOW_GROUPING and target < n:
            # the window-level rule before groups: the first target shuffled windows
            assert tr.tolist() == np.sort(perm[:target]).tolist()
            assert te.tolist() == np.sort(perm[target:]).tolist()

    def test_every_window_in_train_keeps_one_for_test(self):
        train, test = split_train_test(windows_for(2), SplitSpec(train_fraction=0.8))
        assert (len(train), len(test)) == (1, 1)

    def test_night_level_sides_in_table_order(self):
        ids = [f"night{i % 3}" for i in range(30)]
        spec = SplitSpec(seed=4, grouping=NIGHT_GROUPING)
        for side in split_train_test(windows_for(30, night_ids=ids), spec):
            assert side.start_t.tolist() == sorted(side.start_t.tolist())

    def test_split_groups(self):
        ids = ["b", "b", "a", "c", "a", "b"]
        group, n = models.split_groups(windows_for(6, night_ids=ids), NIGHT_GROUPING)
        assert (group.tolist(), n) == ([0, 0, 1, 2, 1, 0], 3)
        group, n = models.split_groups(windows_for(6, night_ids=ids), WINDOW_GROUPING)
        assert (group.tolist(), n) == (list(range(6)), 6)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
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
        with pytest.raises(TooFewItems, match="need at least 5 windows, got 4"):
            kfold_indices(4, folds=5)

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, folds):
        with pytest.raises(ValueError, match=f"got {folds}"):
            kfold_indices(30, folds=folds)

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
            assert predict(tree, x).tolist() == [Stage(int(c)) for c in y]

    def test_single_class_gives_single_leaf(self):
        x = np.arange(20, dtype=float).reshape(10, 2)
        tree = train_decision_tree(x, [Stage.DEEP] * 10)
        assert predict(tree, x).tolist() == [Stage.DEEP] * 10

    def test_tied_leaf_prefers_lowest_code(self):
        # identical rows, two labels: no split possible, counts tied
        x = np.ones((4, 2))
        y = [Stage.LIGHT, Stage.REM, Stage.REM, Stage.LIGHT]
        tree = train_decision_tree(x, y)
        assert predict(tree, x).tolist() == [Stage.REM] * 4

    def test_max_depth_zero_is_majority_vote(self):
        x = np.arange(12, dtype=float).reshape(6, 2)
        y = [Stage.WAKE, Stage.WAKE, Stage.WAKE, Stage.DEEP, Stage.DEEP, Stage.WAKE]
        tree = train_decision_tree(x, y, TreeParams(max_depth=0))
        assert predict(tree, x).tolist() == [Stage.WAKE] * 6

    def test_positive_scaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(4)
        x, y = random_dataset(rng, n=120, d=5)
        probe = rng.normal(size=(40, 5)) * 4.0
        tree = train_decision_tree(x, y)
        scaled = train_decision_tree(x * 4.0, y)  # power of two: exact halves
        assert np.array_equal(predict(tree, probe / 4.0), predict(scaled, probe))

    def test_empty_rejected(self):
        with pytest.raises(TooFewItems):
            train_decision_tree(np.empty((0, 3)), [])

    def test_json_round_trip_is_byte_identical(self):
        rng = np.random.default_rng(8)
        x, y = random_dataset(rng)
        tree = train_decision_tree(x, y)
        text = model_to_json(tree)
        again = model_to_json(model_from_json(text))
        assert text == again

    def test_deeper_than_the_recursion_limit(self):
        """Alternating labels on one rising feature split off one row at a
        time, so the tree is 1499 splits deep: deeper than Python's
        default recursion limit of 1000 frames."""
        x = np.arange(1500, dtype=float).reshape(-1, 1)
        y = np.arange(1500) % 2
        tree = train_decision_tree(x, y, TreeParams(max_depth=None))
        assert tree.nodes.feature.size > 1500
        assert predict(tree, x).tolist() == y.tolist()

    def test_grown_tree_leaves_no_garbage_cycle(self):
        """_grow_tree leaves nothing for the cyclic collector, so a tree's
        rows are freed when the call returns."""
        x, y = random_dataset(np.random.default_rng(41), n=2000, d=6, spread=1.0)
        gc.collect()
        gc.disable()
        try:
            models._grow_tree(x, y, np.ones(y.size, dtype=np.int64), None, 3,
                              np.random.default_rng(0))
            assert gc.collect() == 0
        finally:
            gc.enable()


def _float_best_split(x, y, idx, feats):
    """The split search on float one-hot class counts, as it stood before the
    counts became exact integers; the integer search must match it bit for bit."""
    ysub = y[idx]
    m = idx.size
    counts = np.bincount(ysub, minlength=4)
    parent = models._gini(counts, m)
    best = (-1, 0.0, 0.0)
    for f in feats:
        col = x[idx, f]
        order = np.argsort(col)
        sx = col[order]
        if sx[0] == sx[-1]:
            continue
        onehot = np.zeros((m, 4))
        onehot[np.arange(m), ysub[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        pos = np.nonzero(sx[:-1] != sx[1:])[0]
        nl = (pos + 1).astype(float)
        nr = m - nl
        left_counts = cum[pos]
        right_counts = counts - left_counts
        gini_l = 1.0 - (left_counts * left_counts).sum(axis=1) / (nl * nl)
        gini_r = 1.0 - (right_counts * right_counts).sum(axis=1) / (nr * nr)
        weighted = (nl * gini_l + nr * gini_r) / m
        k = int(np.argmin(weighted))
        gain = parent - float(weighted[k])
        if gain > best[2]:
            cut = pos[k]
            thr = (sx[cut] + sx[cut + 1]) / 2.0
            if thr >= sx[cut + 1]:
                thr = float(sx[cut])
            best = (int(f), float(thr), gain)
    return best


def _split_case(kind, seed, m):
    """Rows, labels, node rows and candidate features for one split search."""
    rng = np.random.default_rng(seed)
    n, d = m + 50, 10
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 4, size=n)
    if kind == "repeated":
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        y = np.where(x[:, 2] + rng.integers(0, 2, size=n) > 2, 3, y % 2)
    elif kind == "constant":
        x[:, ::2] = 7.25
    elif kind == "single-class":
        y = np.full(n, 2)
    elif kind == "adjacent":
        # neighbouring doubles: some midpoints round up onto the right value
        base = np.array([1.0 + 2.0**-52, 3.0, 0.1, 1e300, 5e-324])
        lo = base[rng.integers(0, base.size, size=d)]
        x = np.where(rng.random((n, d)) < 0.5, lo, np.nextafter(lo, np.inf))
        y = np.where(x[:, 0] == lo[0], 1, 2) ^ (rng.random(n) < 0.1)
    elif kind == "imbalanced":
        # class counts above 4096 whose squares no float32 holds exactly
        y = np.where(rng.random(n) < 0.9, 0, y)
        y = np.where(x[:, 3] > 1.5, 3, y)
    elif kind == "rounded":
        x = np.round(x * 3.0) / 3.0
        y = (x[:, 1] > 0.3).astype(np.int64) + 2 * (x[:, 4] < -0.2)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    feats = np.sort(rng.choice(d, size=6, replace=False))
    return x, y.astype(np.int64), idx, feats


def _ones(x):
    return np.ones(x.shape[0], dtype=np.int64)


def _repeated(x, y, w, idx):
    """The rows of a weighted split search written out: row i repeated w[i]
    times, and the node's rows among them."""
    rep = np.repeat(np.arange(x.shape[0]), w)
    return x[rep], y[rep], np.flatnonzero(np.isin(rep, idx))


class TestIntegerSplitScoring:
    """models._best_split against the float one-hot search, compared with ==."""

    @pytest.mark.parametrize("kind", [
        "repeated", "constant", "single-class", "adjacent", "imbalanced", "rounded",
        "normal",
    ])
    @pytest.mark.parametrize("m", [2, 3, 17, 240, 1999, 6001])
    def test_equals_float_counts(self, kind, m):
        for seed in range(3):
            x, y, idx, feats = _split_case(kind, seed + 1000 * m, m)
            assert (models._best_split(x, y, _ones(x), idx, feats)
                    == _float_best_split(x, y, idx, feats))

    @pytest.mark.parametrize("kind", [
        "repeated", "constant", "single-class", "adjacent", "imbalanced", "rounded",
        "normal",
    ])
    @pytest.mark.parametrize("m", [2, 3, 17, 240, 1999, 6001])
    def test_weighted_rows_equal_repeated_rows(self, kind, m):
        for seed in range(3):
            x, y, idx, feats = _split_case(kind, seed + 1000 * m, m)
            w = np.random.default_rng(seed).integers(1, 5, size=x.shape[0])
            assert (models._best_split(x, y, w, idx, feats)
                    == _float_best_split(*_repeated(x, y, w, idx), feats))

    def test_midpoint_fallback_takes_left_value(self):
        lo = 1.0 + 2.0**-52
        hi = np.nextafter(lo, np.inf)
        assert (lo + hi) / 2.0 == hi  # the midpoint rounds up onto the right value
        x = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0, 0, 1, 1])
        idx = np.arange(4)
        got = models._best_split(x, y, _ones(x), idx, np.array([0]))
        assert got == _float_best_split(x, y, idx, np.array([0])) == (0, lo, 0.5)

    def test_weighted_midpoint_fallback_takes_left_value(self):
        lo = 1.0 + 2.0**-52
        hi = np.nextafter(lo, np.inf)
        x = np.array([[lo], [hi], [hi]])
        y = np.array([0, 1, 1])
        w = np.array([3, 2, 1])
        idx = np.arange(3)
        got = models._best_split(x, y, w, idx, np.array([0]))
        assert got == _float_best_split(*_repeated(x, y, w, idx), np.array([0])) == (0, lo, 0.5)

    def test_grown_tree_equals_float_split_tree(self, monkeypatch):
        x, y = random_dataset(np.random.default_rng(40), n=600, d=6, spread=1.0)
        x = np.round(x, 1)
        want = model_to_json(train_decision_tree(x, y))
        monkeypatch.setattr(models, "_best_split",
                            lambda x, y, w, idx, feats: _float_best_split(x, y, idx, feats))
        assert model_to_json(train_decision_tree(x, y)) == want


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
            assert np.array_equal(predict(forest, probes), predict(tree, probes))
            assert np.array_equal(predict(forest, x), predict(tree, x))

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
        acc = np.mean([int(p) == t for p, t in zip(predict(forest, xt), yt)])
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
        a, b = fa.nodes, fb.nodes
        n = a.feature.size  # the second tree's rows follow the first's
        b = b._replace(left=b.left + n, right=b.right + n, roots=b.roots + n)
        merged = models.RandomForest(ForestParams(n_trees=2, bootstrap=False, features_per_split=1),
                                     1, models.NodeTable(*map(np.concatenate, zip(a, b))), 0)
        got = predict(merged, x)
        assert got.tolist() == [Stage.REM, Stage.REM]  # code 1 beats code 3 on a 1-1 tie


def _plain_loop_forest_json(x, y, params, seed):
    """The forest as one loop over the per-tree generators grows it, each tree
    on its whole sample, duplicated bootstrap rows included, with weights of
    one: the algorithm as it stood before trees grew on distinct rows. The
    trees' tables are appended one by one, each tree's child and root rows
    shifted by the nodes before it."""
    n = x.shape[0]
    mtry = min(params.features_per_split, x.shape[1])
    columns = {name: [] for name in models.NodeTable._fields}
    nodes = 0
    for i in range(params.n_trees):
        rng = models._tree_rng(seed, i)
        idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        tree = models._grow_tree(x[idx], y[idx], _ones(x), params.max_depth, mtry, rng)
        for name, col in tree._asdict().items():
            columns[name].append(col + nodes if name in ("left", "right", "roots") else col)
        nodes += tree.feature.size
    table = models.NodeTable(*(np.concatenate(cols) for cols in columns.values()))
    return model_to_json(models.RandomForest(params, x.shape[1], table, seed))


class TreeFailure(Exception):
    pass


class TestParallelForest:
    """The forked build against a plain loop; four CPUs are claimed so that
    up to four workers run whatever the host has."""

    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("n_trees", [1, 2, 3, 7])
    def test_bytes_equal_plain_loop(self, monkeypatch, n_trees, bootstrap, seed):
        claim_cpus(monkeypatch, 4)
        x, y = random_dataset(np.random.default_rng(seed), n=120, d=8, spread=1.5)
        params = ForestParams(n_trees=n_trees, features_per_split=3, bootstrap=bootstrap)
        got = model_to_json(train_random_forest(x, y, params, seed=seed))
        assert got == _plain_loop_forest_json(x, y, params, seed)

    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_bytes_equal_plain_loop_on_repeated_values(self, monkeypatch, max_depth):
        # values rounded to 0.1, so most thresholds fall between repeated values
        claim_cpus(monkeypatch, 2)
        x, y = random_dataset(np.random.default_rng(21), n=3000, d=8, spread=1.0)
        x = np.round(x, 1)
        params = ForestParams(n_trees=4, features_per_split=3, max_depth=max_depth)
        got = model_to_json(train_random_forest(x, y, params, seed=13))
        assert got == _plain_loop_forest_json(x, y, params, 13)

    def test_one_cpu_builds_serially(self, monkeypatch):
        x, y = random_dataset(np.random.default_rng(8), n=120, d=8, spread=1.5)
        params = ForestParams(n_trees=5, features_per_split=3)
        want = _plain_loop_forest_json(x, y, params, 8)
        claim_cpus(monkeypatch, 1)

        def no_fork():
            raise AssertionError("a child process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        assert model_to_json(train_random_forest(x, y, params, seed=8)) == want

    def test_worker_error_reaches_caller(self, monkeypatch):
        claim_cpus(monkeypatch, 2)
        forks = record_forks(monkeypatch)
        parent = os.getpid()
        grow = models._grow_tree

        def fail_tree_three(x, y, w, max_depth, mtry, rng):
            if rng.bit_generator.seed_seq.entropy[1] == 3:
                raise TreeFailure(os.getpid())
            return grow(x, y, w, max_depth, mtry, rng)

        monkeypatch.setattr(models, "_grow_tree", fail_tree_three)
        x, y = random_dataset(np.random.default_rng(9), n=60)
        with pytest.raises(TreeFailure) as err:
            train_random_forest(x, y, ForestParams(n_trees=6), seed=1)
        assert err.value.args[0] != parent
        assert len(forks) == 2
        for pid in forks:  # every worker was reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


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
        assert [int(s) for s in predict(model, queries)] == want_preds.tolist()

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_tied_votes_match_loop_oracle(self, k):
        # k even and four classes on 60 rows: many queries split their vote
        rng = np.random.default_rng(k)
        x = rng.normal(size=(60, 3))
        y = rng.integers(0, 4, size=60)
        queries = rng.normal(size=(200, 3))
        _, want = _knn_oracle(x, y, queries, k)
        assert predict(train_knn(x, y, k=k), queries).tolist() == want.tolist()

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
        got = predict(model, np.array([[0.4]]))[-1]
        assert int(got) == Stage.LIGHT  # neighbor order 0,1,2,3; label 2 appears first

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(TooFewItems, match="need at least 5 training windows, got 3"):
            train_knn(np.ones((3, 2)), [Stage.WAKE] * 3, k=5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            train_knn(np.ones((3, 2)), [Stage.WAKE] * 3, k=k)

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
        assert np.array_equal(predict(back, q), predict(model, q))
        assert model_to_json(back) == model_to_json(model)


def _tied_knn_case(seed):
    """Training rows drawn with replacement from 150 distinct points, so most
    queries meet exact distance ties at the k-th neighbor, and 600 queries:
    two full 256-row chunks and a partial third."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(150, 4))
    x = base[rng.integers(0, 150, size=400)]
    y = rng.integers(0, 4, size=400)
    queries = np.concatenate([base[rng.integers(0, 150, size=300)],
                              rng.normal(size=(300, 4))])
    return x, y, queries


@lru_cache(maxsize=None)
def _block_case(n_queries):
    """A tied kNN case with n_queries queries, its k=5 model and its oracle."""
    x, y, queries = _tied_knn_case(20)
    queries = np.resize(queries, (n_queries, queries.shape[1]))
    nbrs, preds = _knn_oracle(x, y, queries, 5)
    return train_knn(x, y, k=5), queries, nbrs, preds


def _workers(cpus, chunks):
    """The workers core.fork_map forks for a kNN query of this many chunks:
    one per block of chunks, none when one block runs in process."""
    blocks = min(cpus, chunks)
    return blocks if blocks > 1 else 0


class KnnFailure(Exception):
    pass


class TestThreadedKnn:
    """Each forked worker answers a contiguous block of query chunks, 256
    rows high at the default budget on these training sets; the CPUs are
    claimed so that the number of workers does not depend on the host."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_queries", [1, 255, 257, 600, 1025])
    def test_blocks_match_quadratic_scan(self, monkeypatch, cpus, n_queries):
        claim_cpus(monkeypatch, cpus)
        forks = record_forks(monkeypatch)
        model, queries, want_nbrs, want_preds = _block_case(n_queries)
        got = model.neighbors(queries)
        assert len(forks) == _workers(cpus, -(-n_queries // 256))
        assert got.dtype == np.int64 and got.shape == (n_queries, 5)
        assert got.tolist() == want_nbrs.tolist()
        assert predict(model, queries).tolist() == want_preds.tolist()

    # 400 training rows take 3200 bytes a buffer row: a budget below one row
    # still gives 1-row chunks, and one byte short of 8 rows gives 7; the
    # default budget's 256-row chunks are the test above
    @pytest.mark.parametrize("budget, chunk", [(1, 1), (8 * 3200 - 1, 7)])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_queries", [1, 255, 257, 600, 1025])
    def test_chunk_height_never_changes_a_neighbor(self, monkeypatch, cpus, n_queries,
                                                   budget, chunk):
        claim_cpus(monkeypatch, cpus)
        monkeypatch.setattr(models, "_KNN_BUFFER_BYTES", budget)
        forks = record_forks(monkeypatch)
        model, queries, want_nbrs, want_preds = _block_case(n_queries)
        assert model.x_std.shape[0] * 8 == 3200
        got = model.neighbors(queries)
        assert len(forks) == _workers(cpus, -(-n_queries // chunk))
        assert got.tolist() == want_nbrs.tolist()
        assert predict(model, queries).tolist() == want_preds.tolist()

    def test_memory_is_two_buffers_per_block(self, monkeypatch):
        # a 1 MiB budget makes 64-row chunks of 2048 training rows, each
        # buffer exactly the budget; with one CPU the 17 chunks are one block
        # answered in this process, where tracemalloc sees its allocations:
        # two buffers plus the small arrays around them stay below three, and
        # one more buffer breaks the bound
        budget = 1 << 20
        claim_cpus(monkeypatch, 1)
        monkeypatch.setattr(models, "_KNN_BUFFER_BYTES", budget)
        forks = record_forks(monkeypatch)
        rng = np.random.default_rng(14)
        x, y = random_dataset(rng, n=2048, d=6)
        model = train_knn(x, y, k=5)
        queries = rng.normal(size=(1025, 6))
        tracemalloc.start()
        try:
            model.neighbors(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forks == []
        assert budget // (8 * x.shape[0]) * 8 * x.shape[0] == budget
        assert peak < 3 * budget

    def test_worker_error_reaches_caller(self, monkeypatch):
        claim_cpus(monkeypatch, 2)
        forks = record_forks(monkeypatch)
        parent = os.getpid()
        answer = models._knn_block

        def fail_second_block(job, block):
            if block[0] > 0:
                raise KnnFailure(os.getpid())
            return answer(job, block)

        monkeypatch.setattr(models, "_knn_block", fail_second_block)
        x, y, queries = _tied_knn_case(11)
        with pytest.raises(KnnFailure) as err:
            train_knn(x, y).neighbors(queries)
        assert err.value.args[0] != parent
        assert len(forks) == 2
        for pid in forks:  # every worker was reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 5, 6])
    def test_chunks_match_quadratic_scan(self, monkeypatch, cpus, k):
        claim_cpus(monkeypatch, cpus)
        x, y, queries = _tied_knn_case(k)
        model = train_knn(x, y, k=k)
        want_nbrs, want_preds = _knn_oracle(x, y, queries, k)
        got = model.neighbors(queries)
        assert got.dtype == np.int64 and got.shape == (600, k)
        assert got.tolist() == want_nbrs.tolist()
        assert predict(model, queries).tolist() == want_preds.tolist()

    def test_zero_rows(self):
        model = train_knn(*random_dataset(np.random.default_rng(3), n=30), k=4)
        got = model.neighbors(np.empty((0, 6)))
        assert got.dtype == np.int64 and got.shape == (0, 4)

    def test_empty_list(self):
        model = train_knn(*random_dataset(np.random.default_rng(3), n=30, d=3), k=4)
        got = model.neighbors([])
        assert got.dtype == np.int64 and got.shape == (0, 4)

    def test_no_thread_outlives_the_query(self, monkeypatch):
        claim_cpus(monkeypatch, 4)
        x, y, queries = _tied_knn_case(9)
        model = train_knn(x, y)
        before = threading.active_count()
        predict(model, queries)
        assert threading.active_count() == before

    def test_forest_after_query_equals_plain_loop(self, monkeypatch):
        claim_cpus(monkeypatch, 2)
        x, y, queries = _tied_knn_case(10)
        train_knn(x, y).neighbors(queries)
        params = ForestParams(n_trees=3, features_per_split=2)
        got = model_to_json(train_random_forest(x, y, params, seed=4))
        assert got == _plain_loop_forest_json(x, y, params, 4)


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
        assert [int(s) for s in predict(model, q)] == want.tolist()

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
        assert predict(model, x).size  # no crash, deterministic result

    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(14)
        x, y = random_dataset(rng, n=200, d=6, spread=6.0)
        model = train_gaussian_nb(x, y)
        acc = np.mean([int(p) == t for p, t in zip(predict(model, x), y)])
        assert acc > 0.95


class TestStageCodes:
    TRAINERS = {
        "tree": train_decision_tree,
        "forest": lambda x, y: train_random_forest(x, y, ForestParams(n_trees=2), seed=0),
        "knn": train_knn,
        "nb": train_gaussian_nb,
    }

    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    @pytest.mark.parametrize("bad", [7, 4, -1])
    def test_training_rejects_labels_outside_stages(self, kind, bad, monkeypatch):
        """A label outside 0..3 stops training before any fit, so no trainer
        hands save_model a document that load_model would refuse."""
        x = np.arange(40, dtype=float).reshape(20, 2)
        monkeypatch.setattr(models, "_grow_tree", None)  # a fit would call None
        monkeypatch.setattr(models, "standardize_fit", None)
        with pytest.raises(ValueError, match=f"labels: {bad} is not a stage code 0..3"):
            self.TRAINERS[kind](x, [0, 1, bad, 2] * 5)


class TestPredictContract:
    def model(self):
        rng = np.random.default_rng(20)
        x, y = random_dataset(rng, n=30, d=N_FEATURES)
        return train_decision_tree(x, y)

    def test_empty_input_empty_output(self):
        empty = predict(self.model(), np.empty((0, N_FEATURES)))
        assert empty.tolist() == [] and empty.dtype == np.int64

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
        rec = make_record(samples)
        hyp = predict_hypnogram(self.model(), rec)
        assert len(hyp) == 45
        assert hyp[-9:].tolist() == [hyp[-10]] * 9  # tail inherits the last window

    def test_short_record_rejected(self):
        rec = make_record([make_sample(t) for t in range(9)])
        with pytest.raises(TooFewItems):
            predict_hypnogram(self.model(), rec)


_TRAINERS = {
    "tree": train_decision_tree,
    "forest": lambda x, y: train_random_forest(x, y, ForestParams(n_trees=3)),
    "knn": train_knn,
    "nb": train_gaussian_nb,
}


class TestFiniteInput:
    """One rule for every model: a row holding NaN or an infinity is one
    ValueError naming the first such row, whether it is fitted or predicted."""

    @staticmethod
    def rows_with(value):
        x, y = random_dataset(np.random.default_rng(22), n=40, d=4)
        x[7, 2] = value
        x[12, 0] = value
        return x, y

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", sorted(_TRAINERS))
    def test_fit_refuses(self, kind, value):
        with pytest.raises(ValueError, match=r"^feature row 7 holds .*which is not finite$"):
            _TRAINERS[kind](*self.rows_with(value))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", sorted(_TRAINERS))
    def test_predict_refuses(self, kind, value):
        x, y = random_dataset(np.random.default_rng(22), n=40, d=4)
        model = _TRAINERS[kind](x, y)
        with pytest.raises(ValueError, match=r"^feature row 7 holds .*which is not finite$"):
            predict(model, self.rows_with(value)[0])


# A one-split tree and a forest of two such trees on x = [[0], [1]], y = [0, 2]
# (no bootstrap, one feature per split), as model schema 3 wrote them.
_SCHEMA_3_TREE = (
    '{"kind":"DecisionTree","params":{"max_depth":20},"schema":3,"state":{"n_features":1,'
    '"tree":{"feature":{"data":"AAAAAAAAAAD/////////////////////","dtype":"<i8",'
    '"shape":[3]},"label":{"data":"//////////8AAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"left":{"data":"AQAAAAAAAAABAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"right":{"data":"AgAAAAAAAAABAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"threshold":{"data":"AAAAAAAA4D8AAAAAAAAAAAAAAAAAAAAA","dtype":"<f8",'
    '"shape":[3]}}}}'
)
_SCHEMA_3_FOREST = (
    '{"kind":"RandomForest","params":{"bootstrap":false,"features_per_split":1,'
    '"max_depth":20,"n_trees":2,"seed":0},"schema":3,"state":{"n_features":1,'
    '"trees":[{"feature":{"data":"AAAAAAAAAAD/////////////////////","dtype":"<i8",'
    '"shape":[3]},"label":{"data":"//////////8AAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"left":{"data":"AQAAAAAAAAABAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"right":{"data":"AgAAAAAAAAABAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"threshold":{"data":"AAAAAAAA4D8AAAAAAAAAAAAAAAAAAAAA","dtype":"<f8",'
    '"shape":[3]}},{"feature":{"data":"AAAAAAAAAAD/////////////////////","dtype":"<i8",'
    '"shape":[3]},"label":{"data":"//////////8AAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"left":{"data":"AQAAAAAAAAABAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"right":{"data":"AgAAAAAAAAABAAAAAAAAAAIAAAAAAAAA","dtype":"<i8",'
    '"shape":[3]},"threshold":{"data":"AAAAAAAA4D8AAAAAAAAAAAAAAAAAAAAA","dtype":"<f8",'
    '"shape":[3]}}]}}'
)


def _document(kind):
    """A small trained model of kind as a parsed model document."""
    rng = np.random.default_rng(32)
    x, y = random_dataset(rng, n=20, d=5)
    model = {
        "Knn": lambda: train_knn(x, y),
        "DecisionTree": lambda: train_decision_tree(x, y),
        "RandomForest": lambda: train_random_forest(x, y, ForestParams(n_trees=2)),
        "GaussianNB": lambda: train_gaussian_nb(x, y),
    }[kind]()
    return json.loads(model_to_json(model))


def _last_split(state, tree):
    """The last split row of a tree in a decoded tree or forest state."""
    rows = range(state["roots"][tree], (state["roots"] + [len(state["feature"])])[tree + 1])
    return max(i for i in rows if state["feature"][i] >= 0)


def _fitted_arrays(model):
    """Every fitted array of a model, in a fixed order."""
    if model.kind in ("DecisionTree", "RandomForest"):
        return list(model.nodes)
    if model.kind == "Knn":
        return [model.mean, model.std, model.x_std, model.y]
    return [model.classes, model.prior, model.mean, model.var]


def _blob_paths(node, path=()):
    """(path, entry) of every array entry in a document state."""
    if isinstance(node, dict) and "dtype" in node:
        yield path, node
    elif isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _blob_paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _decoded(edit):
    """edit(state, params) applied with every state array decoded to nested
    lists; each array then goes back as an entry of its stored dtype, so the
    edit may change values and shapes, not dtypes."""
    def apply(state, params):
        found = list(_blob_paths(state))
        for path, blob in found:
            _at(state, path[:-1])[path[-1]] = models._array(
                blob, blob["dtype"], "test array").tolist()
        edit(state, params)
        for path, blob in found:
            parent = _at(state, path[:-1])
            parent[path[-1]] = models._blob(np.array(parent[path[-1]], dtype=blob["dtype"]))
    return apply


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
        """Every fitted array comes back with the same bits, as an owned,
        writable, native-order array, and re-serializes to the file text."""
        rng = np.random.default_rng(31)
        probe = rng.normal(size=(12, 5))
        for model in self.all_models():
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            back = load_model(path)
            assert back.kind == model.kind
            assert np.array_equal(predict(back, probe), predict(model, probe))
            assert model_to_json(back) + "\n" == path.read_text()
            pairs = list(zip(_fitted_arrays(model), _fitted_arrays(back), strict=True))
            assert pairs
            for want, got in pairs:
                assert got.dtype == want.dtype and got.dtype.isnative
                assert got.flags.owndata and got.flags.writeable
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_schema_field_pinned(self):
        want = {
            "DecisionTree": {"max_depth": 20},
            "RandomForest": {"bootstrap": True, "features_per_split": 6,
                             "max_depth": 20, "n_trees": 3, "seed": 1},
            "Knn": {"k": 5},
            "GaussianNB": {},
        }
        nodes = {"n_features", "feature", "threshold", "left", "right", "label", "roots"}
        state_keys = {
            "DecisionTree": nodes,
            "RandomForest": nodes,
            "Knn": {"mean", "std", "x", "y"},
            "GaussianNB": {"classes", "mean", "prior", "var"},
        }
        for model in self.all_models():
            doc = json.loads(model_to_json(model))
            assert doc["schema"] == 4
            assert set(doc) == {"schema", "kind", "params", "state"}
            assert doc["params"] == want[doc["kind"]]
            assert set(doc["state"]) == state_keys[doc["kind"]]
            blobs = list(_blob_paths(doc["state"]))
            assert blobs
            for _, blob in blobs:
                assert set(blob) == {"data", "dtype", "shape"}
                assert blob["dtype"] in ("<f8", "<i8")

    def test_bad_documents_rejected(self):
        with pytest.raises(SchemaMismatch):
            model_from_json("not json at all {")
        with pytest.raises(SchemaMismatch, match="schema 5"):
            model_from_json('{"schema":5,"kind":"DecisionTree"}')
        with pytest.raises(SchemaMismatch, match="Perceptron"):
            model_from_json('{"schema":4,"kind":"Perceptron"}')

    def test_forest_without_trees_rejected(self):
        doc = _document("RandomForest")
        doc["params"]["n_trees"] = 0
        _decoded(lambda st, p: st.update(
            feature=[], threshold=[], left=[], right=[], label=[], roots=[]))(
                doc["state"], doc["params"])
        with pytest.raises(SchemaMismatch, match="ill-typed: need at least one tree"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["DecisionTree", "RandomForest"])
    def test_negative_max_depth_rejected(self, kind):
        doc = _document(kind)
        doc["params"]["max_depth"] = -1
        with pytest.raises(SchemaMismatch, match="ill-typed: max_depth must be >= 0 or None"):
            model_from_json(json.dumps(doc))

    def test_schema_1_document_rejected(self):
        """A schema-1 file (top-level seed, criterion and min_samples_split
        in params) is refused by its schema number, with no second path."""
        text = (
            '{"kind":"DecisionTree","params":{"criterion":"gini","max_depth":20,'
            '"min_samples_split":2},"schema":1,"seed":null,"state":{"n_features":1,'
            '"tree":{"feature":[-1],"label":[0],"left":[0],"right":[0],"threshold":[0.0]}}}'
        )
        with pytest.raises(SchemaMismatch, match="schema 1"):
            model_from_json(text)
        for model in self.all_models():
            current = model_to_json(model).replace('"schema":4', '"schema":1')
            with pytest.raises(SchemaMismatch, match="schema 1"):
                model_from_json(current)

    @pytest.mark.parametrize("schema, text", [
        (2, '{"kind":"DecisionTree","params":{"max_depth":20},"schema":2,"state":{"n_features":1,'
            '"tree":{"feature":[-1],"label":[0],"left":[0],"right":[0],"threshold":[0.0]}}}'),
        (2, '{"kind":"Knn","params":{"k":1},"schema":2,"state":{"mean":[0.0],"n_features":1,'
            '"std":[1.0],"x":[[0.0]],"y":[0]}}'),
        (3, _SCHEMA_3_TREE),
        (3, _SCHEMA_3_FOREST),
    ], ids=["tree", "knn", "schema-3-tree", "schema-3-forest"])
    def test_schema_2_document_rejected(self, schema, text):
        """A file of an older schema names its schema and asks for a retrain:
        schema 2 (arrays as JSON number lists) and schema 3 (one state object
        of node arrays per tree), both as written by their own versions.
        There is no second decode path."""
        with pytest.raises(SchemaMismatch, match=f"schema {schema}.*retrain"):
            model_from_json(text)

    @pytest.mark.parametrize("text", [
        "[1]", "3", '"model"', "null",
        '{"schema":1,"kind":["Knn"]}',
        '{"schema":2,"kind":["Knn"]}',
        '{"schema":3,"kind":["Knn"]}',
        '{"schema":4,"kind":["Knn"]}',
    ])
    def test_non_object_documents_rejected(self, text):
        with pytest.raises(SchemaMismatch):
            model_from_json(text)

    @pytest.mark.parametrize("kind, edit", [
        ("Knn", _decoded(lambda st, p: st.update(mean=[0.0]))),
        ("Knn", _decoded(lambda st, p: st.update(std=st["std"] + [1.0]))),
        ("Knn", _decoded(lambda st, p: st.update(x=[row[:-1] for row in st["x"]]))),
        ("Knn", _decoded(lambda st, p: st.update(y=st["y"][:-1]))),
        ("Knn", _decoded(lambda st, p: st["y"].__setitem__(3, 7))),
        ("Knn", lambda st, p: p.update(k=50)),
        ("Knn", lambda st, p: p.update(k=0)),
        ("DecisionTree", _decoded(lambda st, p: st["left"].__setitem__(0, 999))),
        ("DecisionTree", _decoded(lambda st, p: st["right"].__setitem__(0, 0))),
        ("DecisionTree", _decoded(lambda st, p: st["feature"].__setitem__(0, 5))),
        ("DecisionTree", _decoded(lambda st, p: st["feature"].__setitem__(0, -2))),
        ("DecisionTree", _decoded(lambda st, p: st["label"].__setitem__(-1, 7))),
        ("DecisionTree", _decoded(lambda st, p: st["threshold"].pop())),
        ("DecisionTree", _decoded(lambda st, p: st.update(
            feature=[], threshold=[], left=[], right=[], label=[]))),
        ("RandomForest", _decoded(lambda st, p: st["right"].__setitem__(st["roots"][1], -1))),
        ("GaussianNB", _decoded(lambda st, p: st.update(mean=[row[:-1] for row in st["mean"]]))),
        ("GaussianNB", _decoded(lambda st, p: st.update(prior=st["prior"][:-1]))),
        ("GaussianNB", _decoded(lambda st, p: st.update(classes=st["classes"][:-1]))),
        ("GaussianNB", _decoded(lambda st, p: st["classes"].__setitem__(0, 9))),
        ("GaussianNB", _decoded(lambda st, p: st["var"][0].__setitem__(0, 0.0))),
        ("GaussianNB", _decoded(lambda st, p: st.update(classes=[], prior=[], mean=[], var=[]))),
        ("DecisionTree", lambda st, p: p.pop("max_depth")),
        ("DecisionTree", lambda st, p: p.update(criterion="gini")),
        ("DecisionTree", lambda st, p: p.update(min_samples_split=2)),
        ("RandomForest", lambda st, p: p.pop("seed")),
        ("RandomForest", lambda st, p: p.update(criterion="gini")),
        ("Knn", lambda st, p: p.update(seed=None)),
        ("GaussianNB", lambda st, p: p.update(var_smoothing=1e-9)),
        ("Knn", lambda st, p: st["y"].update(reencode(st["y"], lambda a: a.astype("<u8") + 2**63))),
        ("Knn", lambda st, p: st["y"].update(reencode(st["y"], lambda a: a + 0.7))),
        ("Knn", lambda st, p: st["y"].update(reencode(st["y"], lambda a: a > 0))),
        ("Knn", _decoded(lambda st, p: st["x"][0].__setitem__(0, float("nan")))),
        ("Knn", lambda st, p: st["mean"].update(data="0.5,0.25,0.125")),
        ("Knn", lambda st, p: p.update(k=True)),
        ("Knn", lambda st, p: st["x"]["shape"].__setitem__(1, 5.0)),
        ("DecisionTree", lambda st, p: st["feature"].update(
            reencode(st["feature"], lambda a: a + 0.9))),
        ("DecisionTree", lambda st, p: st["label"].update(
            reencode(st["label"], lambda a: a + 0.5))),
        ("DecisionTree", _decoded(lambda st, p: st["threshold"].__setitem__(
            0, float("inf")))),
        ("DecisionTree", lambda st, p: p.update(max_depth=2.5)),
        ("DecisionTree", lambda st, p: p.update(max_depth="20")),
        ("RandomForest", lambda st, p: p.update(seed=2.7)),
        ("RandomForest", lambda st, p: p.update(n_trees=10)),
        ("RandomForest", lambda st, p: p.update(bootstrap=1)),
        ("RandomForest", lambda st, p: p.update(features_per_split=False)),
        ("GaussianNB", lambda st, p: st["classes"].update(
            reencode(st["classes"], lambda a: a * 1.0))),
        ("GaussianNB", lambda st, p: st["var"].update(data=None)),
        ("DecisionTree", lambda st, p: st.update(n_features=5.0)),
        ("RandomForest", lambda st, p: st.update(n_features=True)),
        ("RandomForest", _decoded(lambda st, p: st["left"].__setitem__(
            _last_split(st, 0), st["roots"][1]))),
        ("RandomForest", _decoded(lambda st, p: st["right"].__setitem__(
            _last_split(st, 0), st["roots"][1] + 1))),
        ("DecisionTree", _decoded(lambda st, p: st.update(roots=[1]))),
        ("RandomForest", _decoded(lambda st, p: st["roots"].__setitem__(0, 1))),
        ("RandomForest", _decoded(lambda st, p: st["roots"].__setitem__(1, 0))),
        ("RandomForest", _decoded(lambda st, p: st["roots"].reverse())),
        ("RandomForest", _decoded(lambda st, p: st["roots"].__setitem__(1, len(st["feature"])))),
        ("DecisionTree", _decoded(lambda st, p: st["roots"].append(1))),
        ("DecisionTree", _decoded(lambda st, p: st.update(roots=[]))),
        ("RandomForest", _decoded(lambda st, p: st["roots"].pop())),
        ("RandomForest", _decoded(lambda st, p: st["roots"].append(st["roots"][1] + 1))),
    ], ids=[
        "knn-mean", "knn-std", "knn-x", "knn-y", "knn-code", "knn-k-above-rows",
        "knn-k-zero", "tree-child-past-end", "tree-child-loops-back",
        "tree-feature-too-large", "tree-feature-below-leaf", "tree-leaf-code",
        "tree-ragged", "tree-no-nodes", "forest-child-negative", "nb-mean",
        "nb-prior", "nb-classes", "nb-code", "nb-zero-var", "nb-no-classes",
        "tree-params-no-max-depth", "tree-params-criterion",
        "tree-params-min-samples-split", "forest-params-no-seed",
        "forest-params-criterion", "knn-params-seed", "nb-params-var-smoothing",
        "knn-y-past-int64", "knn-y-fraction", "knn-y-bool", "knn-x-nan",
        "knn-mean-text", "knn-k-bool", "knn-n-features-float",
        "tree-feature-fraction", "tree-leaf-label-fraction", "tree-threshold-inf",
        "tree-max-depth-fraction", "tree-max-depth-text", "forest-seed-fraction",
        "forest-n-trees-not-stored", "forest-bootstrap-int", "forest-mtry-bool",
        "nb-class-float", "nb-var-null", "tree-n-features-float",
        "forest-n-features-bool", "forest-child-is-next-root", "forest-child-in-next-tree",
        "tree-roots-not-at-zero", "forest-roots-not-at-zero", "forest-roots-not-rising",
        "forest-roots-falling", "forest-root-past-end", "tree-two-roots", "tree-no-roots",
        "forest-one-root", "forest-three-roots",
    ])
    def test_inconsistent_state_rejected(self, kind, edit):
        """Shapes against each other, k against the stored rows, stage codes
        in 0..3, tree links within their own tree, roots rising from 0, the
        exact params keys, the root count against the kind (one for a tree,
        n_trees for a forest) and the type of every value are checked at
        load, not met at predict or truncated. A value that used to be
        ill-typed JSON (past int64, a fraction, a bool, text, null) can now
        only arrive as an array entry of the wrong dtype, shape or data."""
        doc = _document(kind)
        edit(doc["state"], doc["params"])
        with pytest.raises(SchemaMismatch):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind, array, edit", [
        ("Knn", "x", lambda b: b.update(dtype="<f4")),
        ("Knn", "mean", lambda b: b.update(dtype=">f8")),
        ("Knn", "y", lambda b: b.update(dtype="|b1")),
        ("DecisionTree", "label", lambda b: b.update(dtype="<f8")),
        ("DecisionTree", "threshold", lambda b: b.update(dtype="<i8")),
        ("Knn", "x", lambda b: b["shape"].__setitem__(1, b["shape"][1] + 1)),
        ("Knn", "x", lambda b: b.update(shape=[b["shape"][0] * b["shape"][1]])),
        ("GaussianNB", "prior", lambda b: b.update(data=b["data"][:-12] + "=")),
        ("Knn", "mean", lambda b: b.update(shape=b["shape"][0])),
        ("Knn", "mean", lambda b: b.update(shape="5")),
        ("Knn", "mean", lambda b: b.update(shape=[-b["shape"][0]])),
        ("Knn", "x", lambda b: b.update(data=b["data"][:8] + "!" + b["data"][9:])),
        ("Knn", "x", lambda b: b.update(data=b["data"][:-1])),
        ("Knn", "x", lambda b: b.update(data=b["data"][:8] + "\u00e9" + b["data"][9:])),
        ("Knn", "x", lambda b: b.update(data=" " + b["data"])),
        ("RandomForest", "left", lambda b: b.update(order="C")),
        ("RandomForest", "left", lambda b: b.pop("shape")),
        ("RandomForest", "left", lambda b: b.pop("dtype")),
    ], ids=[
        "knn-x-f4", "knn-mean-big-endian", "knn-y-b1", "tree-label-f8",
        "tree-threshold-i8", "knn-x-shape-too-wide", "knn-x-shape-flat",
        "nb-prior-data-short", "knn-mean-shape-int", "knn-mean-shape-text",
        "knn-mean-shape-negative", "knn-x-data-not-base64", "knn-x-data-padding",
        "knn-x-data-non-ascii", "knn-x-data-space", "forest-left-extra-key",
        "forest-left-no-shape", "forest-left-no-dtype",
    ])
    def test_bad_blob_rejected(self, kind, array, edit):
        """Each array entry is exactly {dtype, shape, data}: the expected
        dtype string, a list of non-negative integers and strict base64 of
        8 bytes per value; the failure names the array."""
        doc = _document(kind)
        blob = next(b for path, b in _blob_paths(doc["state"]) if path[-1] == array)
        edit(blob)
        with pytest.raises(SchemaMismatch, match=f" {array} "):
            model_from_json(json.dumps(doc))

    def test_missing_and_ill_typed_keys_rejected(self):
        for model in self.all_models():
            good = json.loads(model_to_json(model))
            for key in ("params", "state"):
                for bad in (None, [], "x", 7):
                    doc = dict(good, **{key: bad})
                    with pytest.raises(SchemaMismatch):
                        model_from_json(json.dumps(doc))
                doc = {k: v for k, v in good.items() if k != key}
                with pytest.raises(SchemaMismatch, match=key):
                    model_from_json(json.dumps(doc))
            for path, _ in _blob_paths(good["state"]):
                doc = json.loads(model_to_json(model))
                parent = _at(doc["state"], path[:-1])
                for bad in (None, [1.0], "x"):
                    parent[path[-1]] = bad
                    with pytest.raises(SchemaMismatch):
                        model_from_json(json.dumps(doc))
                del parent[path[-1]]
                with pytest.raises(SchemaMismatch, match=str(path[-1])):
                    model_from_json(json.dumps(doc))
            if "n_features" in good["state"]:  # knn and naive Bayes derive it
                doc = dict(good, state=dict(good["state"], n_features="thirty"))
                with pytest.raises(SchemaMismatch):
                    model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind, where, edit", [
        ("DecisionTree", "DecisionTree state", lambda st: st.update(junk=[1])),
        ("DecisionTree", "DecisionTree state", lambda st: st.pop("n_features")),
        ("DecisionTree", "DecisionTree state", lambda st: st.update(value=st["label"])),
        ("DecisionTree", "DecisionTree state", lambda st: st.pop("right")),
        ("RandomForest", "RandomForest state", lambda st: st.update(oob_score=0.9)),
        ("RandomForest", "RandomForest state", lambda st: st.pop("n_features")),
        ("RandomForest", "RandomForest state", lambda st: st.update(junk=st["left"])),
        ("RandomForest", "RandomForest state", lambda st: st.pop("threshold")),
        ("DecisionTree", "DecisionTree state", lambda st: st.pop("roots")),
        ("RandomForest", "RandomForest state", lambda st: st.pop("roots")),
        ("DecisionTree", "DecisionTree state", lambda st: st.update(tree={})),
        ("RandomForest", "RandomForest state", lambda st: st.update(trees=[])),
        ("Knn", "Knn state", lambda st: st.update(n_features=99, junk=[1])),
        ("Knn", "Knn state", lambda st: st.pop("std")),
        ("GaussianNB", "GaussianNB state", lambda st: st.update(n_features=5)),
        ("GaussianNB", "GaussianNB state", lambda st: st.pop("prior")),
    ], ids=[
        "tree-extra", "tree-missing", "tree-node-extra", "tree-node-missing",
        "forest-extra", "forest-missing", "forest-node-extra", "forest-node-missing",
        "tree-roots-missing", "forest-roots-missing", "tree-schema-3-key",
        "forest-schema-3-key", "knn-extra", "knn-missing", "nb-extra", "nb-missing",
    ])
    def test_state_keys_exact(self, kind, where, edit):
        """A state holds exactly the keys that state_dict writes, the same
        node columns for a tree and a forest: an unknown, stale or missing key
        is refused with the kind and the keys, as params are."""
        doc = _document(kind)
        edit(doc["state"])
        with pytest.raises(SchemaMismatch, match=f"^schema mismatch: {where} keys are "):
            model_from_json(json.dumps(doc))


_FLOAT64 = st.floats(allow_nan=False, allow_infinity=False, width=64)
_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
_SHAPES = st.lists(st.integers(0, 4), max_size=3)


def _random_array(draw, elements, dtype):
    shape = draw(_SHAPES)
    values = draw(st.lists(elements, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=dtype).reshape(shape)


def _round_trip(a):
    blob = json.loads(json.dumps(models._blob(a)))
    return models._array(blob, blob["dtype"], "test array")


class TestArrayCodec:
    """models._blob and models._array: exact bits, one checked decoder."""

    @given(st.data())
    def test_float64_round_trip_bit_equal(self, data):
        a = _random_array(data.draw, _FLOAT64, np.float64)
        back = _round_trip(a)
        assert back.dtype == np.float64 and back.shape == a.shape
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))

    def test_float64_edge_values_bit_equal(self):
        info = np.finfo(np.float64)
        a = np.array([-0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal,
                      info.tiny / 3.0, info.max, -info.max, info.eps, 0.1, -1e-310])
        back = _round_trip(a)
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))
        assert math.copysign(1.0, back[0]) == -1.0

    @given(st.data())
    def test_int64_round_trip(self, data):
        a = _random_array(data.draw, _INT64, np.int64)
        back = _round_trip(a)
        assert back.dtype == np.int64 and np.array_equal(back, a)

    def test_int64_extremes(self):
        info = np.iinfo(np.int64)
        a = np.array([[info.min, info.max], [-1, 0]], dtype=np.int64)
        assert np.array_equal(_round_trip(a), a)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        a = np.array([[1.0, bad], [2.0, 3.0]])
        with pytest.raises(SchemaMismatch, match="not finite"):
            _round_trip(a)

    @pytest.mark.parametrize("shape", [[True], [1, True], [1.0], [None], ["1"], [-1, -1], "1"])
    def test_shape_not_a_list_of_non_negative_integers_rejected(self, shape):
        blob = models._blob(np.array([2.5]))
        blob["shape"] = shape
        with pytest.raises(SchemaMismatch, match="shape must be"):
            models._array(blob, "<f8", "test array")

    @pytest.mark.parametrize("shape", [[0, 2**64], [0] * 65, [0, 2**62, 2**62]])
    def test_empty_shape_past_numpy_limits_rejected(self, shape):
        blob = {"data": "", "dtype": "<f8", "shape": shape}
        with pytest.raises(SchemaMismatch):
            models._array(blob, "<f8", "test array")

    @given(st.data())
    def test_one_character_change_is_caught_or_decodes(self, data):
        """Changing one character of the dtype, shape or data in an entry's
        JSON text raises SchemaMismatch (invalid JSON is what model_from_json
        reports as one) or decodes to the stated dtype and shape."""
        dtype = data.draw(st.sampled_from(["<f8", "<i8"]))
        elements = _FLOAT64 if dtype == "<f8" else _INT64
        blob = models._blob(_random_array(data.draw, elements, dtype))
        text = json.dumps(blob, sort_keys=True)
        key = data.draw(st.sampled_from(["dtype", "shape", "data"]))
        start = text.index(f'"{key}": ') + len(key) + 4
        value = json.dumps(blob[key])
        if key != "shape":  # inside the quotes
            start, value = start + 1, value[1:-1]
        if not value:
            return
        at = start + data.draw(st.integers(0, len(value) - 1))
        text = text[:at] + data.draw(st.characters()) + text[at + 1:]
        try:
            entry = json.loads(text)
        except ValueError:
            return
        try:
            a = models._array(entry, dtype, "test array")
        except SchemaMismatch:
            return
        assert a.dtype == np.dtype(dtype) and list(a.shape) == entry["shape"]
