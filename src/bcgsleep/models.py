"""From-scratch stage classifiers and the train/test splitting protocol.

Four classifier families over 30-column feature windows: a CART decision
tree (Gini), a bagged random forest, k-nearest-neighbors on standardized
features, and Gaussian naive Bayes. Every tie has a fixed rule, never the
iteration order of a set or dict, so training and prediction are
bit-reproducible for a given seed: a split tie goes to the earlier feature
and the lower threshold; a tied leaf majority, forest vote or naive Bayes
posterior goes to the lowest stage code (wake first); a tied kNN vote goes
to the nearest neighbor whose class is among the winners.

Both costly loops use every usable CPU, with no setting: the forest grows
its trees in forked worker processes, and kNN answers its queries in chunks
on one thread per CPU. Neither changes a result.

Models serialize to a versioned JSON document and round-trip exactly.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import EmptyTrainingSet, RecordTooShort, SchemaMismatch, TooFewItems
from .features import (
    WINDOW_LEN,
    FeatureTable,
    candidate_starts,
    standardize_apply,
    standardize_fit,
    window_rows,
)

MODEL_SCHEMA = 2
WINDOW_GROUPING = "window-level"
NIGHT_GROUPING = "night-level"

# Splits with weighted-Gini improvement at or below this are not worth a node.
MIN_GAIN = 1e-12

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SplitSpec:
    """How to carve feature windows into train and test material."""

    train_fraction: float = 0.8
    seed: int = 0
    grouping: str = WINDOW_GROUPING

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction out of (0, 1): {self.train_fraction}")
        if self.grouping not in (WINDOW_GROUPING, NIGHT_GROUPING):
            raise ValueError(f"unknown grouping {self.grouping!r}")


def split_train_test(
    windows: FeatureTable, spec: SplitSpec
) -> tuple[FeatureTable, FeatureTable]:
    """Disjoint, exhaustive train/test split, deterministic under spec.seed.

    Window-level shuffles individual windows and puts round(train_fraction*N)
    of them in train, in table order. Night-level keeps every night intact on
    one side: shuffled nights join train, in shuffled order, until it reaches
    that target, but the last shuffled night always goes to test, so
    overlapping windows from one night never straddle the split and test is
    never empty.
    """
    n = len(windows)
    if n < 2:
        raise TooFewItems(n, 2)
    target = int(round(spec.train_fraction * n))
    rng = np.random.default_rng(spec.seed & _SEED_MASK)

    if spec.grouping == WINDOW_GROUPING:
        perm = rng.permutation(n)
        return windows[np.sort(perm[:target])], windows[np.sort(perm[target:])]

    nights, first = np.unique(windows.night_id, return_index=True)
    if nights.size < 2:
        raise TooFewItems(int(nights.size), 2)
    # nights in order of first appearance, then shuffled
    by_night = [np.nonzero(windows.night_id == nights[j])[0] for j in np.argsort(first)]
    order = [by_night[i] for i in rng.permutation(len(by_night))]
    n_train = k = 0
    while k < len(order) - 1 and n_train < target:
        n_train += order[k].size
        k += 1
    rows = np.concatenate(order)
    return windows[rows[:n_train]], windows[rows[n_train:]]


def kfold_indices(n: int, folds: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Shuffled partition of range(n) into `folds` test folds, sizes within 1."""
    if n < folds:
        raise TooFewItems(n, folds)
    perm = np.random.default_rng(seed & _SEED_MASK).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _as_matrix(rows) -> np.ndarray:
    x = np.asarray(rows, dtype=float)
    if x.ndim == 1:
        x = x.reshape(0, 0) if x.size == 0 else x.reshape(1, -1)
    return x


def _as_codes(labels) -> np.ndarray:
    return np.asarray(labels, dtype=np.int64)


def _training_set(rows, labels, model: str, min_rows: int = 0):
    """(x, y) for a fit, checked in this order: fewer than min_rows rows is
    TooFewItems, no rows EmptyTrainingSet(model), and a row count that is not
    the label count ValueError."""
    x = _as_matrix(rows)
    y = _as_codes(labels)
    if x.shape[0] < min_rows:
        raise TooFewItems(x.shape[0], min_rows)
    if x.shape[0] == 0:
        raise EmptyTrainingSet(model)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} rows vs {y.shape[0]} labels")
    return x, y


def _require(ok, detail: str):
    """A model document check: SchemaMismatch(detail) unless ok."""
    if not ok:
        raise SchemaMismatch(detail)


def _n_features(state: dict) -> int:
    _require(type(state["n_features"]) is int, "n_features must be an integer")
    return state["n_features"]


def _numbers(values, dtype, what: str) -> np.ndarray:
    """A document list, possibly nested, as an int64 array of JSON integers (a
    bool is not one) or a float array of finite JSON numbers."""
    a = np.asarray(values, dtype=object)
    _require(set(map(type, a.flat)) <= ({int, float} if dtype is float else {int}),
             f"{what} must hold {dtype.__name__} values")
    a = a.astype(dtype)
    _require(np.isfinite(a).all(), f"{what} holds a value that is not finite")
    return a


def _params(doc: dict, types: dict) -> dict:
    """The document's params: exactly the keys of types, each value of one of
    its key's JSON types."""
    p = doc["params"]
    _require(set(p) == set(types),
             f"{doc['kind']} params have keys {sorted(p)}, expected {sorted(types)}")
    for name, kinds in types.items():
        _require(type(p[name]) in kinds, f"{doc['kind']} {name} has the wrong type")
    return p


def _check_shape(a: np.ndarray, shape: tuple, what: str):
    _require(a.shape == shape, f"{what} has shape {a.shape}, expected {shape}")


def _check_codes(codes: np.ndarray, what: str):
    _require(((codes >= 0) & (codes <= 3)).all(), f"{what} holds a stage code outside 0..3")


# ---------------------------------------------------------------------------
# CART


@dataclass(frozen=True)
class TreeParams:
    max_depth: Optional[int] = 20


class _FlatTree:
    """Parallel-array binary tree; leaves self-loop so lookup can vectorize."""

    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self, feature, threshold, left, right, label):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.label = np.asarray(label, dtype=np.int64)

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        pos = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        for _ in range(len(self.feature)):
            feat = self.feature[pos]
            internal = feat >= 0
            if not internal.any():
                break
            vals = x[rows, np.where(internal, feat, 0)]
            step = np.where(vals <= self.threshold[pos], self.left[pos], self.right[pos])
            pos = np.where(internal, step, pos)
        return self.label[pos]

    def to_state(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "label": self.label.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict, n_features: int) -> "_FlatTree":
        """A tree from its document state, checked so that every lookup
        ends at a leaf within len(feature) steps: each split's feature is
        below n_features and its children come after it; leaves (feature
        -1) carry a stage code."""
        tree = cls(*(_numbers(state[name], float if name == "threshold" else np.int64,
                            f"tree {name}") for name in cls.__slots__))
        n = tree.feature.size
        _require(n > 0, "tree has no nodes")
        for name in cls.__slots__:
            _check_shape(getattr(tree, name), (n,), f"tree {name}")
        split = tree.feature >= 0
        node = np.arange(n)
        _require(((tree.feature >= -1) & (tree.feature < n_features)).all(),
                 f"tree feature outside -1..{n_features - 1}")
        for child in (tree.left, tree.right):
            _require(((child > node) & (child < n))[split].all(),
                     "tree child index not after its parent or past the last node")
        _check_codes(tree.label[~split], "tree leaf label")
        return tree


def _gini(counts: np.ndarray, total: int) -> float:
    return 1.0 - float((counts * counts).sum()) / (total * total)


def _best_split(x, y, idx, feats):
    """Lowest weighted-Gini (feature, threshold, gain) over candidate cuts.

    Candidates are midpoints between consecutive distinct sorted values; if
    float rounding pulls a midpoint up onto the right value it falls back to
    the left value so the cut still separates. Ties go to the earlier feature
    and the lower threshold (strict improvement required to displace).

    Class counts and their sums of squares are exact int64; as doubles they
    are the same integers (below 2**53 up to about 9e7 rows), so each Gini is
    the same float a float count would give.
    """
    ysub = y[idx]
    m = idx.size
    counts = np.bincount(ysub, minlength=4)
    parent = _gini(counts, m)
    best = (-1, 0.0, 0.0)
    # a class absent from the node adds nothing to any sum of squares
    present = np.flatnonzero(counts)
    have = counts[present]
    # one cumsum runs over the (class, row) indicators flattened class by
    # class, so each class's running count starts at the totals before it
    before = (np.cumsum(have) - have)[:, None]
    for f, col in zip(feats, x[idx[:, None], feats].T):
        # tie order within equal values never matters: cut points sit only at
        # transitions between distinct values, so plain sort is safe
        order = np.argsort(col)
        sx = col[order]
        if sx[0] == sx[-1]:
            continue
        pos = np.nonzero(sx[:-1] != sx[1:])[0]
        running = np.cumsum(ysub[order] == present[:, None]).reshape(present.size, m)
        left = np.take(running, pos, axis=1) - before
        right = have[:, None] - left
        nl = (pos + 1).astype(float)
        nr = m - nl
        gini_l = 1.0 - (left * left).sum(axis=0).astype(float) / (nl * nl)
        gini_r = 1.0 - (right * right).sum(axis=0).astype(float) / (nr * nr)
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


def _grow_tree(x, y, max_depth, mtry, rng) -> _FlatTree:
    n_features = x.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    label: list[int] = []

    def leaf(ysub) -> int:
        i = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(i)
        right.append(i)
        label.append(int(np.argmax(np.bincount(ysub, minlength=4))))
        return i

    def build(idx, depth) -> int:
        ysub = y[idx]
        # a one-row node is pure, and no split leaves a side empty
        if (max_depth is not None and depth >= max_depth) or (ysub == ysub[0]).all():
            return leaf(ysub)
        if mtry is None or mtry >= n_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        feat, thr, gain = _best_split(x, y, idx, feats)
        if feat < 0 or gain <= MIN_GAIN:
            return leaf(ysub)
        i = len(feature)
        feature.append(feat)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        label.append(-1)
        mask = x[idx, feat] <= thr
        left[i] = build(idx[mask], depth + 1)
        right[i] = build(idx[~mask], depth + 1)
        return i

    build(np.arange(x.shape[0], dtype=np.int64), 0)
    return _FlatTree(feature, threshold, left, right, label)


class DecisionTree:
    kind = "DecisionTree"

    def __init__(self, params: TreeParams, n_features: int, tree: _FlatTree):
        self.params = params
        self.n_features = n_features
        self._tree = tree

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        return self._tree.predict_codes(x)

    def params_dict(self) -> dict:
        return asdict(self.params)

    def state_dict(self) -> dict:
        return {"n_features": self.n_features, "tree": self._tree.to_state()}

    @classmethod
    def from_document(cls, doc: dict) -> "DecisionTree":
        params = TreeParams(**_params(doc, {"max_depth": [int, type(None)]}))
        state = doc["state"]
        n_features = _n_features(state)
        return cls(params, n_features, _FlatTree.from_state(state["tree"], n_features))


def train_decision_tree(rows, labels, params: TreeParams = TreeParams()) -> DecisionTree:
    """Greedy CART fit; unlimited depth on distinct rows separates perfectly."""
    x, y = _training_set(rows, labels, "decision tree")
    tree = _grow_tree(x, y, params.max_depth, None, None)
    return DecisionTree(params, x.shape[1], tree)


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    features_per_split: int = 6
    bootstrap: bool = True
    max_depth: Optional[int] = 20

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("need at least one tree")
        if self.features_per_split < 1:
            raise ValueError("features_per_split must be positive")


def _tree_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed & _SEED_MASK, index]))


class RandomForest:
    kind = "RandomForest"

    def __init__(self, params: ForestParams, n_features: int, seed: int, trees):
        self.params = params
        self.n_features = n_features
        self.seed = seed
        self._trees = list(trees)

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        votes = np.zeros((x.shape[0], 4), dtype=np.int64)
        rows = np.arange(x.shape[0])
        for tree in self._trees:
            votes[rows, tree.predict_codes(x)] += 1
        return np.argmax(votes, axis=1)

    def params_dict(self) -> dict:
        return {**asdict(self.params), "seed": self.seed}

    def state_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "trees": [t.to_state() for t in self._trees],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "RandomForest":
        p = dict(_params(doc, {"n_trees": [int], "features_per_split": [int], "bootstrap": [bool],
                               "max_depth": [int, type(None)], "seed": [int]}))
        seed = p.pop("seed")
        state = doc["state"]
        n_features = _n_features(state)
        trees = [_FlatTree.from_state(s, n_features) for s in state["trees"]]
        _require(len(trees) == p["n_trees"], f"forest n_trees is not its {len(trees)} trees")
        return cls(ForestParams(**p), n_features, seed, trees)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _forest_tree(job: tuple, i: int) -> _FlatTree:
    """Tree i of the forest job (x, y, params, mtry, seed), from its own generator."""
    x, y, params, mtry, seed = job
    n = x.shape[0]
    rng = _tree_rng(seed, i)
    idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
    return _grow_tree(x[idx], y[idx], params.max_depth, mtry, rng)


# The job of a forked forest worker; only the pool's initializer sets it, in the worker.
_worker_job: tuple = ()


def _init_forest_worker(*job):
    global _worker_job
    _worker_job = job


def _worker_tree(i: int) -> _FlatTree:
    return _forest_tree(_worker_job, i)


def train_random_forest(
    rows, labels, params: ForestParams = ForestParams(), seed: int = 0
) -> RandomForest:
    """Bagged CART ensemble, grown in one forked worker per usable CPU.

    Tree i draws its bootstrap and its split features from _tree_rng(seed, i)
    alone, so the trees are independent: min(n_trees, usable CPUs) workers
    each inherit x and y once through fork, grow one tree per task, and the
    trees come back in index order. With one worker, or where the platform
    cannot fork, the same trees are grown in a plain loop. Either way the
    forest is byte-identical for a given seed.
    """
    x, y = _training_set(rows, labels, "random forest")
    job = (x, y, params, min(params.features_per_split, x.shape[1]), seed)
    workers = min(params.n_trees, _usable_cpus())
    tree_ids = range(params.n_trees)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        trees = [_forest_tree(job, i) for i in tree_ids]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_init_forest_worker, initargs=job) as pool:
            trees = pool.map(_worker_tree, tree_ids, chunksize=1)
    return RandomForest(params, x.shape[1], int(seed), trees)


# ---------------------------------------------------------------------------
# k-nearest neighbors


class Knn:
    kind = "Knn"

    def __init__(self, k, n_features, mean, std, x_std, y):
        self.k = k
        self.n_features = n_features
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)
        self.x_std = np.asarray(x_std, dtype=float)
        self.y = np.asarray(y, dtype=np.int64)

    def neighbors(self, rows) -> np.ndarray:
        """(n, k) training-row indices by increasing distance, ties by index.

        Queries go in chunks of 256 rows, one thread per usable CPU: numpy
        releases the interpreter lock in the matmul, the ufuncs and the
        partition, and each chunk fills its own rows of the result.
        """
        k = self.k
        q = _as_matrix(rows)
        if q.shape[0] == 0:
            return np.empty((0, k), dtype=np.int64)
        q = standardize_apply(q, (self.mean, self.std))
        x_std = self.x_std
        tt = (x_std * x_std).sum(axis=1)
        out = np.empty((q.shape[0], k), dtype=np.int64)
        chunk = 256

        def fill(lo: int):
            qc = q[lo : lo + chunk]
            # |q - t|^2 expanded so one matmul does the heavy lifting; the
            # in-place steps give the bits of (qq + tt) - 2.0 * (q @ x.T)
            d2 = (qc * qc).sum(axis=1)[:, None] + tt
            qt = qc @ x_std.T
            qt *= 2.0
            d2 -= qt
            del qt
            # partition pulls the k nearest in O(n); the tiny candidate set
            # (k plus any exact distance ties) is then ordered exactly
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            for i, row in enumerate(d2):
                kth = row[part[i]].max()
                cand = np.nonzero(row <= kth)[0]
                order = np.lexsort((cand, row[cand]))
                out[lo + i] = cand[order[:k]]

        # leaving the block joins every thread, so a later fork copies none
        with ThreadPoolExecutor(_usable_cpus()) as pool:
            list(pool.map(fill, range(0, q.shape[0], chunk)))
        return out

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        """Majority vote of the k neighbors; a tied vote goes to the nearest
        neighbor whose class is among the winners."""
        labels = self.y[self.neighbors(x)]
        votes = (labels[:, :, None] == np.arange(4)).sum(axis=1)
        winners = votes == votes.max(axis=1, keepdims=True)
        first = np.argmax(np.take_along_axis(winners, labels, axis=1), axis=1)
        return labels[np.arange(labels.shape[0]), first]

    def params_dict(self) -> dict:
        return {"k": self.k}

    def state_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "n_features": self.n_features,
            "std": self.std.tolist(),
            "x": self.x_std.tolist(),
            "y": self.y.tolist(),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "Knn":
        state = doc["state"]
        model = cls(
            _params(doc, {"k": [int]})["k"], _n_features(state),
            *(_numbers(state[key], float, f"knn {key}") for key in ("mean", "std", "x")),
            _numbers(state["y"], np.int64, "knn y"),
        )
        _require(model.y.ndim == 1, "knn y must be a flat list")
        n, d = model.y.size, model.n_features
        _check_shape(model.x_std, (n, d), "knn x")
        _check_shape(model.mean, (d,), "knn mean")
        _check_shape(model.std, (d,), "knn std")
        _check_codes(model.y, "knn y")
        _require(1 <= model.k <= n, f"knn k={model.k} needs 1..{n} stored rows")
        return model


def train_knn(rows, labels, k: int = 5) -> Knn:
    """Store the standardized training set; all work happens at query time."""
    if k < 1:
        raise ValueError(f"knn k must be at least 1, got {k}")
    x, y = _training_set(rows, labels, "knn", min_rows=k)
    mean, std = standardize_fit(x)
    return Knn(k, x.shape[1], mean, std, standardize_apply(x, (mean, std)), y)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


class GaussianNB:
    kind = "GaussianNB"

    def __init__(self, n_features, classes, prior, mean, var):
        self.n_features = n_features
        self.classes = np.asarray(classes, dtype=np.int64)
        self.prior = np.asarray(prior, dtype=float)
        self.mean = np.asarray(mean, dtype=float)
        self.var = np.asarray(var, dtype=float)

    def log_posterior(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized log posterior, one column per stored class."""
        out = np.empty((x.shape[0], self.classes.size))
        for c in range(self.classes.size):
            var = self.var[c]
            dens = -0.5 * np.log(2.0 * math.pi * var) - (x - self.mean[c]) ** 2 / (2.0 * var)
            out[:, c] = math.log(self.prior[c]) + dens.sum(axis=1)
        return out

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        # classes are stored ascending, so argmax's first-wins is lowest code
        return self.classes[np.argmax(self.log_posterior(x), axis=1)]

    def params_dict(self) -> dict:
        return {}

    def state_dict(self) -> dict:
        return {
            "classes": self.classes.tolist(),
            "mean": self.mean.tolist(),
            "n_features": self.n_features,
            "prior": self.prior.tolist(),
            "var": self.var.tolist(),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "GaussianNB":
        _params(doc, {})
        state = doc["state"]
        model = cls(
            _n_features(state),
            _numbers(state["classes"], np.int64, "naive Bayes classes"),
            *(_numbers(state[k], float, f"naive Bayes {k}") for k in ("prior", "mean", "var")),
        )
        _require(model.classes.ndim == 1, "naive Bayes classes must be a flat list")
        c, d = model.classes.size, model.n_features
        _check_shape(model.prior, (c,), "naive Bayes prior")
        _check_shape(model.mean, (c, d), "naive Bayes mean")
        _check_shape(model.var, (c, d), "naive Bayes var")
        _check_codes(model.classes, "naive Bayes classes")
        _require(c > 0 and (model.prior > 0).all() and (model.var > 0).all(),
                 "naive Bayes needs a class, and positive priors and variances")
        return model


def train_gaussian_nb(rows, labels) -> GaussianNB:
    x, y = _training_set(rows, labels, "naive Bayes")
    classes = np.unique(y)
    # Smoothing keeps zero-variance features finite without dominating real
    # spread; the smoothed variance is what gets stored and serialized.
    eps = 1e-9 * float(x.var(axis=0).max())
    if eps == 0.0:
        eps = 1e-9
    prior, mean, var = [], [], []
    for c in classes:
        sub = x[y == c]
        prior.append(sub.shape[0] / x.shape[0])
        mean.append(sub.mean(axis=0))
        var.append(sub.var(axis=0) + eps)
    return GaussianNB(x.shape[1], classes, prior, np.array(mean), np.array(var))


# ---------------------------------------------------------------------------
# Shared prediction and serialization

_KINDS = {
    "DecisionTree": DecisionTree,
    "RandomForest": RandomForest,
    "Knn": Knn,
    "GaussianNB": GaussianNB,
}


def predict(model, rows) -> np.ndarray:
    """One int64 stage code per feature row; deterministic for a given model."""
    x = _as_matrix(rows)
    if x.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if x.shape[1] != model.n_features:
        raise SchemaMismatch(
            f"model expects {model.n_features} features, rows have {x.shape[1]}"
        )
    return np.asarray(model.predict_codes(x), dtype=np.int64)


def predict_hypnogram(model, record) -> np.ndarray:
    """Per-second int64 stage codes: second s takes the window starting at s;
    the last nine seconds, which start no complete window, inherit the final
    one. The record must be cleaned (one sample per second)."""
    n = record.last_t + 1
    if n < WINDOW_LEN:
        raise RecordTooShort(max(n, 0), WINDOW_LEN)
    stats = window_rows(record, np.asarray(candidate_starts(record)))
    return np.pad(predict(model, stats), (0, WINDOW_LEN - 1), mode="edge")


def model_to_json(model) -> str:
    doc = {
        "schema": MODEL_SCHEMA,
        "kind": model.kind,
        "params": model.params_dict(),
        "state": model.state_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"model document must be a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != MODEL_SCHEMA:
        raise SchemaMismatch(
            f"unsupported model schema {doc.get('schema')!r}; this version reads "
            f"schema {MODEL_SCHEMA}, so retrain the model"
        )
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaMismatch(f"unknown model kind {kind!r}")
    for key in ("params", "state"):
        if not isinstance(doc.get(key), dict):
            raise SchemaMismatch(f"{kind} model document needs a {key!r} object")
    try:
        return cls.from_document(doc)
    except KeyError as exc:
        raise SchemaMismatch(f"{kind} model document lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SchemaMismatch(f"{kind} model document is ill-typed: {exc}") from None


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
