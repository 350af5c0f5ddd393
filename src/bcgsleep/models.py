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
its trees in forked worker processes (core.fork_map), each bootstrap tree
on the distinct rows of its draw weighted by their multiplicities, and kNN
answers its queries in chunks of at most 256 rows, one contiguous block of
chunks per thread, each thread holding two chunk x n buffers of at most
8 MiB each. Neither changes a result.

A decision tree is a forest of one tree: both keep all their nodes in one
NodeTable, the trees stacked in index order, and share one vote, one state
layout and one checked loader.

Models serialize to a versioned JSON document whose fitted arrays are typed
base64 blobs of their little-endian bytes, so they round-trip exactly.
"""

from __future__ import annotations

import base64
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .core import N_STAGES, check_stage_codes, fork_map, usable_cpus
from .errors import EmptyTrainingSet, RecordTooShort, SchemaMismatch, TooFewItems
from .features import (
    WINDOW_LEN,
    FeatureTable,
    candidate_starts,
    standardize_apply,
    standardize_fit,
    window_rows,
)

MODEL_SCHEMA = 4
WINDOW_GROUPING = "window-level"
NIGHT_GROUPING = "night-level"
# What one group of each grouping is, as a count's unit.
GROUP_UNITS = {WINDOW_GROUPING: "windows", NIGHT_GROUPING: "nights"}

# Splits with weighted-Gini improvement at or below this are not worth a node.
MIN_GAIN = 1e-12

_SEED_MASK = (1 << 64) - 1

# Bytes of one kNN scratch buffer (chunk x n float64), each thread holding two.
_KNN_BUFFER_BYTES = 8 << 20


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


def split_groups(windows: FeatureTable, grouping: str) -> tuple[np.ndarray, int]:
    """(group of each row, number of groups) under a grouping: window-level
    makes each window its own group, night-level numbers the nights in order
    of first appearance. Splits and folds never cut a group."""
    if grouping == WINDOW_GROUPING:
        return np.arange(len(windows)), len(windows)
    _, first, night = np.unique(windows.night_id, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[night], first.size


def split_train_test(
    windows: FeatureTable, spec: SplitSpec
) -> tuple[FeatureTable, FeatureTable]:
    """Disjoint, exhaustive train/test split, deterministic under spec.seed.

    One rule for both groupings (split_groups): the groups are shuffled, and
    shuffled groups join train until it holds round(train_fraction*N)
    windows, but the last shuffled group never does, so a group never
    straddles the split and test is never empty. Both sides keep table order.
    """
    group, n_groups = split_groups(windows, spec.grouping)
    if n_groups < 2:
        raise TooFewItems(n_groups, 2, GROUP_UNITS[spec.grouping])
    target = int(round(spec.train_fraction * len(windows)))
    order = np.random.default_rng(spec.seed & _SEED_MASK).permutation(n_groups)
    # filled[k]: rows in train once the first k shuffled groups have joined
    filled = np.concatenate(([0], np.cumsum(np.bincount(group)[order])))
    k = min(int(np.searchsorted(filled, target)), n_groups - 1)
    train = np.isin(group, order[:k])
    return windows[train], windows[~train]


def check_folds(folds: int) -> int:
    """folds, checked: a fold count below 2 is a ValueError."""
    if folds < 2:
        raise ValueError(f"k-fold needs at least 2 folds, got {folds}")
    return folds


def kfold_indices(n: int, folds: int = 5, seed: int = 0,
                  unit: str = "windows") -> list[np.ndarray]:
    """Shuffled partition of range(n) into `folds` test folds, sizes within 1;
    n counts `unit`. A fold count below 2 is a ValueError."""
    check_folds(folds)
    if n < folds:
        raise TooFewItems(n, folds, unit)
    perm = np.random.default_rng(seed & _SEED_MASK).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _as_matrix(rows) -> np.ndarray:
    x = np.asarray(rows, dtype=float)
    if x.ndim == 1:
        x = x.reshape(0, 0) if x.size == 0 else x.reshape(1, -1)
    return x


def _training_set(rows, labels, model: str, min_rows: int = 0):
    """(x, y) for a fit, checked in this order: fewer than min_rows rows is
    TooFewItems, no rows EmptyTrainingSet(model), and a row count that is not
    the label count or a label that is not a stage code ValueError."""
    x = _as_matrix(rows)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] < min_rows:
        raise TooFewItems(x.shape[0], min_rows, "training windows")
    if x.shape[0] == 0:
        raise EmptyTrainingSet(model)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} rows vs {y.shape[0]} labels")
    return x, check_stage_codes(y, f"{model} labels")


def _require(ok, detail: str):
    """A model document check: SchemaMismatch(detail) unless ok."""
    if not ok:
        raise SchemaMismatch(detail)


def _n_features(state: dict) -> int:
    _require(type(state["n_features"]) is int, "n_features must be an integer")
    return state["n_features"]


def _keys(obj, keys, what: str) -> dict:
    """obj, checked to be an object with exactly the given keys."""
    _require(isinstance(obj, dict), f"{what} must be an object")
    _require(set(obj) == set(keys), f"{what} keys are {sorted(obj)}, expected {sorted(keys)}")
    return obj


def _blob(a: np.ndarray) -> dict:
    """An array as its document entry, laid out like an .npy header: the
    dtype string, the shape, and base64 of the C-order little-endian bytes."""
    dtype = "<f8" if a.dtype.kind == "f" else "<i8"
    data = base64.b64encode(a.astype(dtype, copy=False).tobytes()).decode("ascii")
    return {"data": data, "dtype": dtype, "shape": list(a.shape)}


def _array(entry, dtype: str, what: str) -> np.ndarray:
    """A document array entry as an owned, writable, native-order array,
    checked: exactly the keys data, dtype and shape; the expected dtype string
    ("<f8" or "<i8"); a shape of non-negative integers (a bool is not one);
    strict base64 data of 8 bytes per value; no float that is not finite."""
    _keys(entry, ("data", "dtype", "shape"), what)
    _require(entry["dtype"] == dtype, f"{what} dtype is {entry['dtype']!r}, expected {dtype!r}")
    shape = entry["shape"]
    _require(isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape),
             f"{what} shape must be a list of non-negative integers")
    try:
        raw = base64.b64decode(entry["data"], validate=True)
        _require(len(raw) == 8 * math.prod(shape),
                 f"{what} data holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}")
        # "f8" and "i8" name the same types in native byte order
        a = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype[1:])
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{what} data does not decode: {exc}") from None
    _require(dtype == "<i8" or np.isfinite(a).all(), f"{what} holds a value that is not finite")
    return a


def _params(doc: dict, types: dict) -> dict:
    """The document's params: exactly the keys of types, each value of one of
    its key's JSON types."""
    p = _keys(doc["params"], types, f"{doc['kind']} params")
    for name, kinds in types.items():
        _require(type(p[name]) in kinds, f"{doc['kind']} {name} has the wrong type")
    return p


def _check_shape(a: np.ndarray, shape: tuple, what: str):
    _require(a.shape == shape, f"{what} has shape {a.shape}, expected {shape}")


# ---------------------------------------------------------------------------
# CART


@dataclass(frozen=True)
class TreeParams:
    max_depth: Optional[int] = 20


class NodeTable(NamedTuple):
    """Trees as one table of nodes, the trees in index order, roots holding
    each tree's first row. A split's children are rows after it in its tree;
    a leaf has feature -1, its stage code in label, and points at itself."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray


def _stack(tables) -> NodeTable:
    """The tables' trees in order as one table, each table's positions shifted."""
    offsets = np.cumsum([0] + [t.feature.size for t in tables[:-1]])
    return NodeTable(*map(np.concatenate, zip(*(
        t._replace(left=t.left + o, right=t.right + o, roots=t.roots + o)
        for t, o in zip(tables, offsets)))))


def _gini(counts: np.ndarray, total: int) -> float:
    return 1.0 - float((counts * counts).sum()) / (total * total)


def _best_split(x, y, w, idx, feats):
    """Lowest weighted-Gini (feature, threshold, gain) over candidate cuts.

    Row i stands for w[i] copies of itself (a bootstrap multiplicity, or one),
    so the node's size, its class counts and each side's counts are sums of
    weights: the same integers the repeated rows would give, at the same
    distinct values.

    Candidates are midpoints between consecutive distinct sorted values; if
    float rounding pulls a midpoint up onto the right value it falls back to
    the left value so the cut still separates. Ties go to the earlier feature
    and the lower threshold (strict improvement required to displace).

    Class counts and their sums of squares are exact int64; as doubles they
    are the same integers (below 2**53 up to about 9e7 rows), so each Gini is
    the same float a float count would give.
    """
    ysub = y[idx]
    wsub = w[idx]
    # a class absent from the node adds nothing to any sum of squares
    present = np.flatnonzero(np.bincount(ysub, minlength=N_STAGES))
    # each row's weight in its class's row of indicators, built once per node
    ind = (ysub == present[:, None]) * wsub
    have = ind.sum(axis=1)
    m = int(have.sum())
    parent = _gini(have, m)
    best = (-1, 0.0, 0.0)
    # one cumsum runs over the indicators flattened class by class, so each
    # class's running count starts at the totals before it
    before = (np.cumsum(have) - have)[:, None]
    for f, col in zip(feats, x[idx[:, None], feats].T):
        # tie order within equal values never matters: cut points sit only at
        # transitions between distinct values, so plain sort is safe
        order = np.argsort(col)
        sx = col[order]
        if sx[0] == sx[-1]:
            continue
        pos = np.nonzero(sx[:-1] != sx[1:])[0]
        running = np.cumsum(np.take(ind, order, axis=1)).reshape(present.size, -1)
        left = np.take(running, pos, axis=1) - before
        right = have[:, None] - left
        nl = left.sum(axis=0).astype(float)
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


def _grow_tree(x, y, w, max_depth, mtry, rng) -> NodeTable:
    """CART on rows x with codes y, row i counted w[i] times (int64, >= 1),
    as a table of one tree."""
    n_features = x.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    label: list[int] = []

    def leaf(idx) -> int:
        i = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(i)
        right.append(i)
        label.append(int(np.argmax(np.bincount(y[idx], weights=w[idx], minlength=N_STAGES))))
        return i

    def build(idx, depth) -> int:
        ysub = y[idx]
        # a one-row node is pure, and no split leaves a side empty
        if (max_depth is not None and depth >= max_depth) or (ysub == ysub[0]).all():
            return leaf(idx)
        if mtry is None or mtry >= n_features:
            feats = np.arange(n_features)
        else:
            feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        feat, thr, gain = _best_split(x, y, w, idx, feats)
        if feat < 0 or gain <= MIN_GAIN:
            return leaf(idx)
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
    i8 = np.int64
    return NodeTable(np.array(feature, i8), np.array(threshold, float), np.array(left, i8),
                     np.array(right, i8), np.array(label, i8), np.zeros(1, i8))


class _TreeVote:
    """Trees in one node table, predicting by vote: per row, the stage code
    most counted among the trees' leaves, a tie going to the lowest code. A
    decision tree is the vote of one tree, which is its leaf's label."""

    def __init__(self, params, n_features: int, nodes: NodeTable):
        self.params = params
        self.n_features = n_features
        self.nodes = nodes

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        t = self.nodes
        rows = np.arange(x.shape[0])
        votes = np.zeros((x.shape[0], N_STAGES), dtype=np.int64)
        for root in t.roots:
            pos = np.full(x.shape[0], root)
            for _ in range(t.feature.size):
                feat = t.feature[pos]
                internal = feat >= 0
                if not internal.any():
                    break
                vals = x[rows, np.where(internal, feat, 0)]
                step = np.where(vals <= t.threshold[pos], t.left[pos], t.right[pos])
                pos = np.where(internal, step, pos)
            votes[rows, t.label[pos]] += 1
        return np.argmax(votes, axis=1)

    def state_dict(self) -> dict:
        return {"n_features": self.n_features,
                **{name: _blob(col) for name, col in self.nodes._asdict().items()}}

    @classmethod
    def _state(cls, doc: dict, n_trees: int) -> tuple[int, NodeTable]:
        """(n_features, node table) of the document's state, checked to hold
        exactly those keys, n_trees roots rising from 0, split features below
        n_features, each split's children after it in its own tree (so every
        lookup ends at a leaf) and a stage code at every leaf."""
        state = _keys(doc["state"], ("n_features", *NodeTable._fields), f"{cls.kind} state")
        n_features = _n_features(state)
        t = NodeTable(*(_array(state[name], "<f8" if name == "threshold" else "<i8",
                               f"{cls.kind} {name}") for name in NodeTable._fields))
        n = t.feature.size
        for name, col in t._asdict().items():
            _check_shape(col, (n_trees,) if name == "roots" else (n,), f"{cls.kind} {name}")
        _require(t.roots[0] == 0 and (np.diff(t.roots) > 0).all() and t.roots[-1] < n,
                 "tree roots must start at 0 and rise below the node count")
        _require(((t.feature >= -1) & (t.feature < n_features)).all(),
                 f"tree feature outside -1..{n_features - 1}")
        node = np.arange(n)
        # the first row past each node's tree
        end = np.append(t.roots[1:], n)[np.searchsorted(t.roots, node, side="right") - 1]
        split = t.feature >= 0
        for child in (t.left, t.right):
            _require(((child > node) & (child < end))[split].all(),
                     "tree child index not after its parent or past its tree's last node")
        check_stage_codes(t.label[~split], "tree leaf label", SchemaMismatch)
        return n_features, t


class DecisionTree(_TreeVote):
    kind = "DecisionTree"

    def params_dict(self) -> dict:
        return asdict(self.params)

    @classmethod
    def from_document(cls, doc: dict) -> "DecisionTree":
        params = TreeParams(**_params(doc, {"max_depth": [int, type(None)]}))
        return cls(params, *cls._state(doc, 1))


def train_decision_tree(rows, labels, params: TreeParams = TreeParams()) -> DecisionTree:
    """Greedy CART fit; unlimited depth on distinct rows separates perfectly."""
    x, y = _training_set(rows, labels, "decision tree")
    tree = _grow_tree(x, y, np.ones(x.shape[0], dtype=np.int64), params.max_depth, None, None)
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


class RandomForest(_TreeVote):
    kind = "RandomForest"

    def __init__(self, params: ForestParams, n_features: int, nodes: NodeTable, seed: int):
        super().__init__(params, n_features, nodes)
        self.seed = seed

    def params_dict(self) -> dict:
        return {**asdict(self.params), "seed": self.seed}

    @classmethod
    def from_document(cls, doc: dict) -> "RandomForest":
        p = dict(_params(doc, {"n_trees": [int], "features_per_split": [int], "bootstrap": [bool],
                               "max_depth": [int, type(None)], "seed": [int]}))
        seed = p.pop("seed")
        params = ForestParams(**p)
        return cls(params, *cls._state(doc, params.n_trees), seed)


def _forest_tree(job: tuple, i: int) -> NodeTable:
    """Tree i of the forest job (x, y, params, mtry, seed), from its own generator.

    A bootstrap tree grows on the distinct rows of its draw (about 63% of the
    rows), each weighted by how often it was drawn: the same cuts as on the
    repeated rows, with less to sort."""
    x, y, params, mtry, seed = job
    n = x.shape[0]
    rng = _tree_rng(seed, i)
    if params.bootstrap:
        w = np.bincount(rng.integers(0, n, size=n), minlength=n)
    else:
        w = np.ones(n, dtype=np.int64)
    rows = np.flatnonzero(w)
    return _grow_tree(x[rows], y[rows], w[rows], params.max_depth, mtry, rng)


def train_random_forest(
    rows, labels, params: ForestParams = ForestParams(), seed: int = 0
) -> RandomForest:
    """Bagged CART ensemble, its trees grown in forked workers.

    Tree i draws its bootstrap and its split features from _tree_rng(seed, i)
    alone, so the trees are independent: core.fork_map grows one tree per
    task in min(n_trees, usable CPUs) workers, which inherit x and y through
    fork, and gives the trees back in index order. With one worker, or where
    the platform cannot fork, the same trees are grown in a plain loop.
    Either way the forest is byte-identical for a given seed.
    """
    x, y = _training_set(rows, labels, "random forest")
    job = (x, y, params, min(params.features_per_split, x.shape[1]), seed)
    trees = fork_map(_forest_tree, range(params.n_trees), job)
    return RandomForest(params, x.shape[1], _stack(trees), int(seed))


# ---------------------------------------------------------------------------
# k-nearest neighbors


class Knn:
    kind = "Knn"

    def __init__(self, k, mean, std, x_std, y):
        self.k = k
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)
        self.x_std = np.asarray(x_std, dtype=float)
        self.y = np.asarray(y, dtype=np.int64)

    @property
    def n_features(self) -> int:
        return self.x_std.shape[1]

    def neighbors(self, rows) -> np.ndarray:
        """(n, k) training-row indices by increasing distance, ties by index.

        Queries go in chunks of at most 256 rows, as many as fit one n-wide
        float64 buffer in _KNN_BUFFER_BYTES, so the scratch memory does not
        grow with the training set. Each of min(usable CPUs, chunks) threads
        takes a contiguous block of chunks and writes them through two such
        buffers of its own: numpy releases the interpreter lock in the
        matmul, the ufuncs and the partition, and each chunk fills its own
        rows of the result. A row's distances come from the same operations
        whatever the chunk height, so the neighbors do not depend on it.
        """
        k = self.k
        q = _as_matrix(rows)
        if q.shape[0] == 0:
            return np.empty((0, k), dtype=np.int64)
        q = standardize_apply(q, (self.mean, self.std))
        x_std = self.x_std
        tt = (x_std * x_std).sum(axis=1)
        out = np.empty((q.shape[0], k), dtype=np.int64)
        chunk = min(256, max(1, _KNN_BUFFER_BYTES // (8 * tt.size)))
        starts = range(0, q.shape[0], chunk)

        def fill(block):
            d2_buf = np.empty((chunk, tt.size))
            part_buf = np.empty_like(d2_buf)
            for lo in block:
                qc = q[lo : lo + chunk]
                d2, part = d2_buf[: qc.shape[0]], part_buf[: qc.shape[0]]
                # |q - t|^2 expanded so one matmul does the heavy lifting; the
                # steps give the bits of (qq + tt) - 2.0 * (q @ x.T)
                np.add((qc * qc).sum(axis=1)[:, None], tt, out=d2)
                np.matmul(qc, x_std.T, out=part)
                np.multiply(part, 2.0, out=part)
                np.subtract(d2, part, out=d2)
                # partition pulls each row's k-th distance in O(n); the tiny
                # candidate set (k plus any exact distance ties) is then
                # ordered exactly
                part[...] = d2
                part.partition(k - 1, axis=1)
                for i, row in enumerate(d2):
                    cand = np.nonzero(row <= part[i, k - 1])[0]
                    order = np.lexsort((cand, row[cand]))
                    out[lo + i] = cand[order[:k]]

        threads = min(usable_cpus(), len(starts))
        # leaving the block joins every thread, so a later fork copies none
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(fill, np.array_split(starts, threads)))
        return out

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        """Majority vote of the k neighbors; a tied vote goes to the nearest
        neighbor whose class is among the winners."""
        labels = self.y[self.neighbors(x)]
        votes = (labels[:, :, None] == np.arange(N_STAGES)).sum(axis=1)
        winners = votes == votes.max(axis=1, keepdims=True)
        first = np.argmax(np.take_along_axis(winners, labels, axis=1), axis=1)
        return labels[np.arange(labels.shape[0]), first]

    def params_dict(self) -> dict:
        return {"k": self.k}

    def state_dict(self) -> dict:
        return {"mean": _blob(self.mean), "std": _blob(self.std),
                "x": _blob(self.x_std), "y": _blob(self.y)}

    @classmethod
    def from_document(cls, doc: dict) -> "Knn":
        state = _keys(doc["state"], ("mean", "std", "x", "y"), "Knn state")
        model = cls(
            _params(doc, {"k": [int]})["k"],
            *(_array(state[key], "<f8", f"knn {key}") for key in ("mean", "std", "x")),
            _array(state["y"], "<i8", "knn y"),
        )
        _require(model.x_std.ndim == 2, "knn x must be a matrix")
        n, d = model.x_std.shape
        _check_shape(model.y, (n,), "knn y")
        _check_shape(model.mean, (d,), "knn mean")
        _check_shape(model.std, (d,), "knn std")
        check_stage_codes(model.y, "knn y", SchemaMismatch)
        _require(1 <= model.k <= n, f"knn k={model.k} needs 1..{n} stored rows")
        return model


def check_knn_k(k: int) -> int:
    """k, checked: a kNN vote of fewer than one neighbor is a ValueError."""
    if k < 1:
        raise ValueError(f"knn k must be at least 1, got {k}")
    return k


def train_knn(rows, labels, k: int = 5) -> Knn:
    """Store the standardized training set; all work happens at query time."""
    x, y = _training_set(rows, labels, "knn", min_rows=check_knn_k(k))
    mean, std = standardize_fit(x)
    return Knn(k, mean, std, standardize_apply(x, (mean, std)), y)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


class GaussianNB:
    kind = "GaussianNB"

    def __init__(self, classes, prior, mean, var):
        self.classes = np.asarray(classes, dtype=np.int64)
        self.prior = np.asarray(prior, dtype=float)
        self.mean = np.asarray(mean, dtype=float)
        self.var = np.asarray(var, dtype=float)

    @property
    def n_features(self) -> int:
        return self.mean.shape[1]

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
        return {"classes": _blob(self.classes), "mean": _blob(self.mean),
                "prior": _blob(self.prior), "var": _blob(self.var)}

    @classmethod
    def from_document(cls, doc: dict) -> "GaussianNB":
        _params(doc, {})
        state = _keys(doc["state"], ("classes", "mean", "prior", "var"), "GaussianNB state")
        model = cls(
            _array(state["classes"], "<i8", "naive Bayes classes"),
            *(_array(state[k], "<f8", f"naive Bayes {k}") for k in ("prior", "mean", "var")),
        )
        _require(model.mean.ndim == 2, "naive Bayes mean must be a matrix")
        c, d = model.mean.shape
        _check_shape(model.classes, (c,), "naive Bayes classes")
        _check_shape(model.prior, (c,), "naive Bayes prior")
        _check_shape(model.var, (c, d), "naive Bayes var")
        check_stage_codes(model.classes, "naive Bayes classes", SchemaMismatch)
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
    return GaussianNB(classes, prior, np.array(mean), np.array(var))


# ---------------------------------------------------------------------------
# Shared prediction and serialization

_KINDS = {cls.kind: cls for cls in (DecisionTree, RandomForest, Knn, GaussianNB)}


def predict(model, rows) -> np.ndarray:
    """One int64 stage code per feature row; deterministic for a given model."""
    x = _as_matrix(rows)
    if x.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    _require(x.shape[1] == model.n_features,
             f"model expects {model.n_features} features, rows have {x.shape[1]}")
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
    doc = {"schema": MODEL_SCHEMA, "kind": model.kind,
           "params": model.params_dict(), "state": model.state_dict()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict),
             f"model document must be a JSON object, not {type(doc).__name__}")
    _require(doc.get("schema") == MODEL_SCHEMA,
             f"unsupported model schema {doc.get('schema')!r}; this version reads "
             f"schema {MODEL_SCHEMA}, so retrain the model")
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    _require(cls is not None, f"unknown model kind {kind!r}")
    for key in ("params", "state"):
        _require(isinstance(doc.get(key), dict), f"{kind} model document needs a {key!r} object")
    try:
        return cls.from_document(doc)
    except KeyError as exc:
        raise SchemaMismatch(f"{kind} model document lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SchemaMismatch(f"{kind} model document is ill-typed: {exc}") from None


def save_model(model, path):
    Path(path).write_text(model_to_json(model) + "\n", encoding="utf-8")


def load_model(path):
    return model_from_json(Path(path).read_text(encoding="utf-8"))
