"""From-scratch stage classifiers and the train/test splitting protocol.

Four classifier families over 30-column feature windows: a CART decision
tree (Gini), a bagged random forest, k-nearest-neighbors on standardized
features, and Gaussian naive Bayes. Every tie anywhere resolves to the
lowest stage code (wake first), never to the iteration order of a set or
dict, so training and prediction are bit-reproducible for a given seed.

Models serialize to a versioned JSON document and round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Stage
from .errors import EmptyTrainingSet, SchemaMismatch, TooFewItems
from .features import FeatureTable, standardize_apply, standardize_fit

MODEL_SCHEMA = 1
WINDOW_GROUPING = "window-level"
NIGHT_GROUPING = "night-level"

# Splits with weighted-Gini improvement at or below this are not worth a node.
MIN_GAIN = 1e-12

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SplitSpec:
    """How to carve feature windows into train and test material."""

    train_fraction: float = 0.8
    n_folds: int = 5
    seed: int = 0
    grouping: str = WINDOW_GROUPING

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction out of (0, 1): {self.train_fraction}")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be at least 2, got {self.n_folds}")
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
    return np.array([int(v) for v in labels], dtype=np.int64)


def _check_xy(x: np.ndarray, y: np.ndarray):
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} rows vs {y.shape[0]} labels")


# ---------------------------------------------------------------------------
# CART


@dataclass(frozen=True)
class TreeParams:
    max_depth: Optional[int] = 20
    min_samples_split: int = 2
    criterion: str = "gini"

    def __post_init__(self):
        if self.criterion != "gini":
            raise ValueError(f"unsupported criterion {self.criterion!r}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")


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
    def from_state(cls, state: dict) -> "_FlatTree":
        return cls(
            state["feature"], state["threshold"], state["left"],
            state["right"], state["label"],
        )


def _gini(counts: np.ndarray, total: int) -> float:
    return 1.0 - float((counts * counts).sum()) / (total * total)


def _best_split(x, y, idx, feats):
    """Lowest weighted-Gini (feature, threshold, gain) over candidate cuts.

    Candidates are midpoints between consecutive distinct sorted values; if
    float rounding pulls a midpoint up onto the right value it falls back to
    the left value so the cut still separates. Ties go to the earlier feature
    and the lower threshold (strict improvement required to displace).
    """
    ysub = y[idx]
    m = idx.size
    counts = np.bincount(ysub, minlength=4)
    parent = _gini(counts, m)
    best = (-1, 0.0, 0.0)
    for f in feats:
        col = x[idx, f]
        # tie order within equal values never matters: cut points sit only at
        # transitions between distinct values, so plain sort is safe
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


def _grow_tree(x, y, max_depth, min_samples_split, mtry, rng) -> _FlatTree:
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
        if (
            idx.size < min_samples_split
            or (max_depth is not None and depth >= max_depth)
            or (ysub == ysub[0]).all()
        ):
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
        self.seed = None
        self._tree = tree

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        return self._tree.predict_codes(x)

    def params_dict(self) -> dict:
        return {
            "criterion": self.params.criterion,
            "max_depth": self.params.max_depth,
            "min_samples_split": self.params.min_samples_split,
        }

    def state_dict(self) -> dict:
        return {"n_features": self.n_features, "tree": self._tree.to_state()}

    @classmethod
    def from_document(cls, doc: dict) -> "DecisionTree":
        p = doc["params"]
        params = TreeParams(p["max_depth"], p["min_samples_split"], p["criterion"])
        state = doc["state"]
        return cls(params, int(state["n_features"]), _FlatTree.from_state(state["tree"]))


def train_decision_tree(rows, labels, params: TreeParams = TreeParams()) -> DecisionTree:
    """Greedy CART fit; unlimited depth on distinct rows separates perfectly."""
    x = _as_matrix(rows)
    y = _as_codes(labels)
    if x.shape[0] == 0:
        raise EmptyTrainingSet("decision tree")
    _check_xy(x, y)
    tree = _grow_tree(x, y, params.max_depth, params.min_samples_split, None, None)
    return DecisionTree(params, x.shape[1], tree)


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    features_per_split: int = 6
    bootstrap: bool = True
    max_depth: Optional[int] = 20
    min_samples_split: int = 2

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
        return {
            "bootstrap": self.params.bootstrap,
            "features_per_split": self.params.features_per_split,
            "max_depth": self.params.max_depth,
            "min_samples_split": self.params.min_samples_split,
            "n_trees": self.params.n_trees,
        }

    def state_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "trees": [t.to_state() for t in self._trees],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "RandomForest":
        p = doc["params"]
        params = ForestParams(
            p["n_trees"], p["features_per_split"], p["bootstrap"],
            p["max_depth"], p["min_samples_split"],
        )
        state = doc["state"]
        trees = [_FlatTree.from_state(s) for s in state["trees"]]
        return cls(params, int(state["n_features"]), int(doc["seed"]), trees)


def train_random_forest(
    rows, labels, params: ForestParams = ForestParams(), seed: int = 0
) -> RandomForest:
    """Bagged CART ensemble; tree i's RNG comes from (seed, i) so a parallel
    build would produce the identical forest."""
    x = _as_matrix(rows)
    y = _as_codes(labels)
    if x.shape[0] == 0:
        raise EmptyTrainingSet("random forest")
    _check_xy(x, y)
    n = x.shape[0]
    mtry = min(params.features_per_split, x.shape[1])
    trees = []
    for i in range(params.n_trees):
        rng = _tree_rng(seed, i)
        idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        tree = _grow_tree(
            x[idx], y[idx], params.max_depth, params.min_samples_split, mtry, rng
        )
        trees.append(tree)
    return RandomForest(params, x.shape[1], int(seed), trees)


# ---------------------------------------------------------------------------
# k-nearest neighbors


class Knn:
    kind = "Knn"

    def __init__(self, k, n_features, mean, std, x_std, y):
        self.k = k
        self.n_features = n_features
        self.seed = None
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)
        self.x_std = np.asarray(x_std, dtype=float)
        self.y = np.asarray(y, dtype=np.int64)

    def _sq_distances(self, q: np.ndarray) -> np.ndarray:
        # |q - t|^2 expanded so one matmul does the heavy lifting.
        qq = (q * q).sum(axis=1)[:, None]
        tt = (self.x_std * self.x_std).sum(axis=1)[None, :]
        return qq + tt - 2.0 * (q @ self.x_std.T)

    def neighbors(self, rows) -> np.ndarray:
        """(n, k) training-row indices by increasing distance, ties by index."""
        q = standardize_apply(_as_matrix(rows), (self.mean, self.std))
        n_train = self.x_std.shape[0]
        out = np.empty((q.shape[0], self.k), dtype=np.int64)
        chunk = 256
        for lo in range(0, q.shape[0], chunk):
            d2 = self._sq_distances(q[lo : lo + chunk])
            # partition pulls the k nearest in O(n); the tiny candidate set
            # (k plus any exact distance ties) is then ordered exactly
            part = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            for i in range(d2.shape[0]):
                row = d2[i]
                kth = row[part[i]].max()
                cand = np.nonzero(row <= kth)[0]
                order = np.lexsort((cand, row[cand]))
                out[lo + i] = cand[order[: self.k]]
        return out

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        nbrs = self.neighbors(x)
        out = np.empty(nbrs.shape[0], dtype=np.int64)
        for i, row in enumerate(nbrs):
            votes = np.bincount(self.y[row], minlength=4)
            winners = votes == votes.max()
            for j in row:
                if winners[self.y[j]]:
                    out[i] = self.y[j]
                    break
        return out

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
        return cls(
            int(doc["params"]["k"]), int(state["n_features"]),
            state["mean"], state["std"], state["x"], state["y"],
        )


def train_knn(rows, labels, k: int = 5) -> Knn:
    """Store the standardized training set; all work happens at query time."""
    x = _as_matrix(rows)
    y = _as_codes(labels)
    if x.shape[0] < k:
        raise TooFewItems(x.shape[0], k)
    _check_xy(x, y)
    mean, std = standardize_fit(x)
    return Knn(k, x.shape[1], mean, std, standardize_apply(x, (mean, std)), y)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


class GaussianNB:
    kind = "GaussianNB"

    def __init__(self, n_features, classes, prior, mean, var):
        self.n_features = n_features
        self.seed = None
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
        return {"var_smoothing": 1e-9}

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
        state = doc["state"]
        return cls(
            int(state["n_features"]), state["classes"], state["prior"],
            state["mean"], state["var"],
        )


def train_gaussian_nb(rows, labels) -> GaussianNB:
    x = _as_matrix(rows)
    y = _as_codes(labels)
    if x.shape[0] == 0:
        raise EmptyTrainingSet("naive Bayes")
    _check_xy(x, y)
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

StageModel = DecisionTree | RandomForest | Knn | GaussianNB


def predict(model, rows) -> list[Stage]:
    """One stage per feature row; deterministic for a given model."""
    x = _as_matrix(rows)
    if x.shape[0] == 0:
        return []
    if x.shape[1] != model.n_features:
        raise SchemaMismatch(
            f"model expects {model.n_features} features, rows have {x.shape[1]}"
        )
    return [Stage(int(c)) for c in model.predict_codes(x)]


def predict_hypnogram(model, record) -> list[Stage]:
    """Per-second stages: second s takes the window starting at s; the last
    nine seconds, which start no complete window, inherit the final one."""
    from .errors import RecordTooShort
    from .features import WINDOW_LEN, _signal_matrix, feature_matrix_for_starts

    n = record.last_t + 1
    if not record.samples or n < WINDOW_LEN:
        raise RecordTooShort(max(n, 0), WINDOW_LEN)
    matrix = _signal_matrix(record)
    starts = np.arange(0, n - WINDOW_LEN + 1)
    stats = feature_matrix_for_starts(matrix, starts)
    preds = predict(model, stats)
    return preds + [preds[-1]] * (WINDOW_LEN - 1)


def model_to_json(model) -> str:
    doc = {
        "schema": MODEL_SCHEMA,
        "kind": model.kind,
        "params": model.params_dict(),
        "seed": model.seed,
        "state": model.state_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
        raise SchemaMismatch(f"unsupported model schema {doc.get('schema')!r}")
    cls = _KINDS.get(doc.get("kind"))
    if cls is None:
        raise SchemaMismatch(f"unknown model kind {doc.get('kind')!r}")
    return cls.from_document(doc)


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
