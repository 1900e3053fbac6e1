"""Multi-target boosted regression trees for count correction.

One independent squared-error model per target (the aggregate total plus
the six length bands), all sharing the same feature matrix. Trees are fit
to residuals with exact greedy splits: every candidate threshold is the
midpoint between consecutive distinct sorted feature values, scored by the
regularized variance-reduction gain

    GL^2/(nL + l2) + GR^2/(nR + l2) - G^2/(n + l2)

where G sums the current residuals (unit hessian per sample). Leaf values
are sum(residuals)/(count + l2) and enter the prediction scaled by the
learning rate. Training draws no random numbers, so models are a pure
function of (data, hyperparameters).

A tree node keeps its rows sorted by every feature, with each row's rank
among the feature's distinct training values, so the gain is evaluated only
at value boundaries that leave ``min_samples_leaf`` rows on each side. The
residual prefix sums still run sequentially in each feature's sorted order:
they decide between mathematically tied candidates (complementary one-hot
columns, ``day_of_week`` against ``is_weekend``), so the same data always
gives the same tree.

A node does per split only the work that depends on its tree's residuals.
Each fit builds two tables once: ``m + l2`` for every row count ``m``, from
which each candidate takes its two sides' gain denominators (bit for bit the
per-node sums, because row counts are exact in float64), and the root's
candidates, which every tree of every target shares. The two
children of a split one level above ``max_depth``, or of a split whose sides
both hold fewer than ``2 * min_samples_leaf`` rows, are sure to be leaves:
they get only the feature-0 rows that a leaf value reads, not every
feature's partition. A tree's leaf values reach the predictions in one
scatter.

A target is one node table: an array per node field, its trees end to end
in model order, each tree's children numbered within the tree. Training
appends to it; ``model.json`` holds a slice per tree; loading builds each
field and runs each check once per target.

Prediction follows QuickScorer (Lucchese et al., SIGIR 2015).
``score_tables`` numbers each tree's leaves left to right from the node
table, in any layout whose children follow their parent, gives each split a
mask that clears the leaves of its left subtree, and keeps per split feature
a prefix-AND table over that feature's distinct thresholds. A block of rows
then takes one ``searchsorted`` per feature, the AND of the gathered table
rows, and in each tree the lowest set bit, which is the leaf the row reaches;
a tree of more than 64 leaves takes several uint64 words. Leaf values are
added tree by tree in model order, so scores equal a per-tree
``RegressionTree.predict_batch`` loop bit for bit. Tables live as long as the
call that built them: ``permutation_importance`` builds its target's once
for all of its re-scorings, and nothing keeps them after.

The seven targets share only their inputs, so ``train`` fits them in two
processes: one forked worker fits the odd-indexed targets while the
calling process fits the even-indexed ones, and the models merge in target
order. Each target's fit is the same arithmetic in either process, so the
model is byte-identical to a one-process fit. The worker receives the
shared inputs, pickled, with its target indices, and only fitted models
come back. ``train`` keeps no module state, so several threads may train
at once. The fit stays in one process when the platform cannot fork, when
the process may run on fewer than two CPUs, or when training rows x trees
is under ``_PARALLEL_MIN_WORK``, where starting the worker costs more than
it saves."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import read_json, stat_cell, write_csv
from .errors import ConfigError, DataError, InternalError, is_number
from .ingest import FEATURE_NAMES, TARGET_NAMES, FusionDataset

__all__ = [
    "GbtHyperparams",
    "RegressionTree",
    "FusionModel",
    "MetricRow",
    "MetricsReport",
    "train",
    "ScoreTables",
    "score_tables",
    "predict_matrix",
    "raw_score_matrix",
    "evaluate",
    "residual_table",
    "save_model",
    "load_model",
    "write_metrics_csv",
    "write_residuals_csv",
]

BASELINE_ROW_NAME = "people_flow_baseline"


@dataclass(frozen=True)
class GbtHyperparams:
    """Knobs of the boosted-tree learner.

    ``seed`` is recorded for provenance; the exact-greedy fit itself is
    deterministic and draws no random numbers.
    """

    n_trees: int = 300
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 5
    l2_leaf_regularization: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_trees", 1), ("max_depth", 1), ("min_samples_leaf", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (is_number(self.learning_rate) and 0 < self.learning_rate <= 1):
            raise ConfigError(f"learning_rate must be a number in (0, 1], got {self.learning_rate!r}")
        if not is_number(self.l2_leaf_regularization) or self.l2_leaf_regularization < 0:
            raise ConfigError(f"l2_leaf_regularization must be finite and non-negative, "
                              f"got {self.l2_leaf_regularization!r}")


# The node fields of a tree and their dtypes (intp: numpy gathers it without a
# cast). ``feature`` is -1 at leaves, children are numbered within their tree,
# and ``cover`` is the training-sample count per node (parent = left + right).
NODE_FIELDS = {"feature": np.intp, "threshold": np.float64, "left": np.intp, "right": np.intp,
               "value": np.float64, "cover": np.float64}


@dataclass
class RegressionTree:
    """One tree as flat node arrays (see ``NODE_FIELDS``)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """This tree's leaf values for the rows of ``X``, by walking it a level
        at a time: the single-tree reference that scoring must equal."""
        idx = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            feats = self.feature[idx]
            active = feats >= 0
            if not active.any():
                return self.value[idx]
            rows = np.nonzero(active)[0]
            node = idx[rows]
            go_left = X[rows, feats[rows]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])

    def expected_value(self) -> float:
        """Cover-weighted mean leaf value (prediction for an all-absent input)."""
        leaves = self.feature < 0
        return float(np.dot(self.value[leaves], self.cover[leaves]) / self.cover[0])


@dataclass
class TargetModel:
    """One target's ensemble as a node table: an array per node field, tree
    ``i`` in rows ``offsets[i]:offsets[i + 1]``, the trees in model order."""

    base_score: float
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    offsets: np.ndarray

    @property
    def trees(self) -> list[RegressionTree]:
        """Each tree as a view over its rows of the node table."""
        bounds = self.offsets.tolist()
        return [RegressionTree(*(getattr(self, key)[start:end] for key in NODE_FIELDS))
                for start, end in zip(bounds, bounds[1:])]


@dataclass
class FusionModel:
    """Seven independently boosted targets over a shared feature layout."""

    hyperparams: GbtHyperparams
    feature_names: tuple[str, ...]
    targets: dict[str, TargetModel] = field(default_factory=dict)

    def target(self, name: str) -> TargetModel:
        """The model of target ``name``; an unknown name is a ConfigError."""
        tm = self.targets.get(name)
        if tm is None:
            raise ConfigError(f"unknown target {name!r}; known: {list(self.targets)}")
        return tm


class _TreeBuilder:
    """Grows one target's trees via exact greedy splits, appending each tree
    to the target's node table.

    A node holds, per feature, its rows in ascending order of that feature
    and their value codes, as one contiguous ``(2, F, n)`` integer array. A
    child sure to become a leaf holds only its feature-0 rows.
    """

    def __init__(self, codes: np.ndarray, values: list[np.ndarray], hp: GbtHyperparams,
                 den: np.ndarray, root_candidates: tuple | None):
        self.codes = codes
        self.values = values
        self.lam = hp.l2_leaf_regularization
        self.msl = hp.min_samples_leaf
        self.max_depth = hp.max_depth
        self.den = den
        self.root_candidates = root_candidates
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[float] = []
        self.offsets = [0]

    def build(self, node: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append a tree grown from the root ``node`` on residuals ``g``;
        return its leaves' rows end to end and each of those rows' leaf value."""
        self.g = g
        self.leaf_rows: list[np.ndarray] = []
        self.leaf_values: list[float] = []
        self._grow(node, 0, self.root_candidates)
        self.offsets.append(len(self.feature))
        sizes = [rows.shape[0] for rows in self.leaf_rows]
        return np.concatenate(self.leaf_rows), np.repeat(self.leaf_values, sizes)

    def _new_node(self) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.cover.append(0.0)
        return idx

    def _make_leaf(self, idx: int, rows: np.ndarray) -> int:
        n = rows.shape[0]
        val = float(self.g.take(rows).sum() / (n + self.lam))
        self.value[idx] = val
        self.cover[idx] = float(n)
        self.leaf_rows.append(rows)
        self.leaf_values.append(val)
        return idx

    def _grow(self, node: np.ndarray, depth: int, candidates: tuple | None = None) -> int:
        idx = self._new_node()
        rows, codes = node[0], node[1]
        n = rows.shape[1]
        if depth >= self.max_depth or n < 2 * self.msl:
            return self._make_leaf(idx, rows[0])
        at, feat, step, den_left, den_right = candidates or _candidates(codes, self.msl, self.den)
        if feat.shape[0] == 0:
            return self._make_leaf(idx, rows[0])
        # Sequential prefix sums in each feature's sorted order: they decide
        # mathematically tied candidates, so their order must not change.
        csum = self.g.take(rows).cumsum(axis=1)
        G = csum[:, -1].take(feat)
        GL = csum.reshape(-1)[self.msl - 1 :].take(at)
        GR = G - GL
        gain = GL * GL / den_left + GR * GR / den_right - G * G / (n + self.lam)
        best = gain.argmax()
        if not 0.0 < gain.item(best) < math.inf:
            return self._make_leaf(idx, rows[0])

        f, p = feat.item(best), step.item(best) + self.msl - 1
        cut = codes[f, p]
        thr = (self.values[f][cut] + self.values[f][codes[f, p + 1]]) / 2.0
        self.feature[idx] = f
        self.threshold[idx] = float(thr)
        n_left = p + 1
        if depth + 1 == self.max_depth or max(n_left, n - n_left) < 2 * self.msl:
            # Both children become leaves, which read only the feature-0 rows.
            goes_left = self.codes[f].take(rows[0]) <= cut
            left_idx = self._make_leaf(self._new_node(), rows[0].compress(goes_left))
            right_idx = self._make_leaf(self._new_node(), rows[0].compress(~goes_left))
        else:
            # Compressing the flat (2, F * n) array keeps every feature's
            # sorted order on each side.
            goes_left = (self.codes[f].take(rows) <= cut).reshape(-1)
            flat = node.reshape(2, -1)
            left_idx = self._grow(flat.compress(goes_left, axis=1).reshape(2, -1, n_left), depth + 1)
            right_idx = self._grow(flat.compress(~goes_left, axis=1).reshape(2, -1, n - n_left), depth + 1)
        self.left[idx] = left_idx - self.offsets[-1]
        self.right[idx] = right_idx - self.offsets[-1]
        self.cover[idx] = self.cover[left_idx] + self.cover[right_idx]
        return idx


def _candidates(codes: np.ndarray, msl: int, den: np.ndarray) -> tuple[np.ndarray, ...]:
    """The split candidates of a node with value codes ``codes`` (F, n):
    value boundaries leaving at least ``msl`` rows on each side, in
    feature-major order so that argmax breaks ties to the lowest feature,
    then the lowest threshold. A candidate's last left row sits at position
    ``pos = step + msl - 1`` of its feature's rows. Per candidate: ``feat * n
    + step``, which indexes the node's flattened prefix sums from ``msl -
    1`` on, its feature, its step, and its left and right gain
    denominators, ``den[pos + 1]`` and ``den[n - 1 - pos]``."""
    n = codes.shape[1]
    boundary = codes[:, msl : n - msl + 1] != codes[:, msl - 1 : n - msl]
    cand = boundary.reshape(-1).nonzero()[0]
    feat, step = np.divmod(cand, n - 2 * msl + 1)
    at = feat * n
    at += step
    return at, feat, step, den[msl:].take(step), den[n - msl :: -1].take(step)


# A fit of fewer (training rows x trees) than this stays in one process.
# Measured on a shared 2-core host (Python 3.11, numpy 2.4) with alternating
# one- and two-process fits at depth 1, the cheapest fit per unit: it costs
# about 2.0 us per row x tree over all seven targets, and two processes
# first beat one at about 30,000. At this size the worker takes over 3 of 7
# targets worth about 34 ms, and the two-process fit is about 9% faster.
_PARALLEL_MIN_WORK = 40_000

def _fit_targets(inputs: tuple, targets: list[int]) -> dict[int, TargetModel]:
    """Boost the targets with these column indices of ``Y``, from the fit's
    shared ``inputs``: the root node, value codes, distinct values per
    feature, training targets ``Y``, hyperparameters and the per-fit tables
    (gain denominators and root candidates)."""
    root, codes, values, Y, hp, den, root_candidates = inputs
    fitted = {}
    for t in targets:
        y = Y[:, t]
        base = float(y.mean())
        pred = np.full(y.shape[0], base, dtype=np.float64)
        builder = _TreeBuilder(codes, values, hp, den, root_candidates)
        for _ in range(hp.n_trees):
            rows, leaf_values = builder.build(root, y - pred)
            pred[rows] += hp.learning_rate * leaf_values
        columns = {key: np.asarray(getattr(builder, key), dtype) for key, dtype in NODE_FIELDS.items()}
        fitted[t] = TargetModel(base_score=base, **columns, offsets=np.asarray(builder.offsets))
    return fitted


def _fork_context(work: int):
    """The "fork" context when a fit of ``work`` training rows x trees should
    use a second process, else None."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if work < _PARALLEL_MIN_WORK or cpus < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def train(dataset: FusionDataset, hp: GbtHyperparams | None = None) -> FusionModel:
    """Fit all seven target models on the training partition, in two
    processes when the fit is large enough (see the module docstring)."""
    hp = hp or GbtHyperparams()
    X = dataset.X_train
    if X.shape[0] == 0:
        raise DataError("training partition is empty")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values in training partition")
    if not np.isfinite(dataset.Y_train).all():
        raise DataError("non-finite target values in training partition")

    # Root node: each feature's rows in stable ascending order, and their
    # lossless codes (ranks among the feature's distinct values).
    order = np.argsort(X, axis=0, kind="stable").T
    codes = np.empty(order.shape, dtype=np.intp)
    values = []
    for f in range(X.shape[1]):
        distinct, codes[f] = np.unique(X[:, f], return_inverse=True)
        values.append(distinct)
    root = np.stack([order, np.take_along_axis(codes, order, axis=1)])
    # Per-fit tables: m + l2 for m rows, the candidates' gain denominators,
    # and the root's candidates, the same for every tree of every target.
    n, msl = X.shape[0], hp.min_samples_leaf
    den = np.arange(n + 1, dtype=np.float64) + hp.l2_leaf_regularization
    root_candidates = _candidates(root[1], msl, den) if n >= 2 * msl else None
    targets = list(range(len(TARGET_NAMES)))
    inputs = (root, codes, values, dataset.Y_train, hp, den, root_candidates)
    context = _fork_context(X.shape[0] * hp.n_trees)
    if context is None:
        fitted = _fit_targets(inputs, targets)
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(1, mp_context=context) as pool:
            odd = pool.submit(_fit_targets, inputs, targets[1::2])
            fitted = _fit_targets(inputs, targets[0::2])
            try:
                fitted.update(odd.result())
            except BrokenProcessPool as exc:
                raise InternalError(f"training worker died: {exc}") from exc
    targets = {name: fitted[t] for t, name in enumerate(TARGET_NAMES)}
    return FusionModel(hyperparams=hp, feature_names=FEATURE_NAMES, targets=targets)


# Rows scored at once: at most _BLOCK_ROWS, and at most as many as keep a
# block's bitvectors within _BLOCK_WORDS words (512 KB), which stay in a
# core's cache. More trees take fewer rows a block; fewer trees take more,
# which spreads numpy's per-call cost over more rows.
_BLOCK_ROWS = 4096
_BLOCK_WORDS = 2**16

# Leaves per bitvector word, and the word with every leaf still possible.
_WORD_BITS = 64
_ALL_LEAVES = np.uint64(2**64 - 1)
# A de Bruijn sequence B(2, 6): for a word with only bit i set, the top six
# bits of word * _DE_BRUIJN are a distinct slot _DE_BRUIJN_SLOT[i] (Leiserson,
# Prokop and Randall, 1998), so a leaf's value sits in its bit's slot.
_DE_BRUIJN = np.uint64(0x03F79D71B4CB0A89)
_DE_BRUIJN_SLOT = (((np.uint64(1) << np.arange(64, dtype=np.uint64)) * _DE_BRUIJN) >> np.uint64(58)).astype(np.intp)


@dataclass(frozen=True)
class ScoreTables:
    """One target's QuickScorer tables (Lucchese et al., SIGIR 2015).

    Each tree's leaves are numbered left to right in ``words`` uint64 words
    per tree, ``words * 64`` leaf slots. A row starts with every leaf
    possible; each split it fails (``x > threshold``) clears the leaves of
    that split's left subtree, and its exit leaf is the lowest bit left. Per
    split feature, ``splits`` holds the feature's distinct thresholds in
    ascending order and a prefix-AND table: row ``i`` clears the left
    subtrees of every split on the ``i`` smallest thresholds, so a row
    whose value exceeds exactly those thresholds takes row
    ``searchsorted(thresholds, x, side="left")``, and a NaN, which fails
    every split, takes the last row. ``leaf_values`` holds
    ``learning_rate * value`` of tree ``t``'s leaf ``i`` in slot
    ``t * words * 64 + i // 64 * 64 + _DE_BRUIJN_SLOT[i % 64]``."""

    base_score: float
    n_trees: int
    words: int
    splits: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    leaf_values: np.ndarray


def score_tables(model: FusionModel, target: str) -> ScoreTables:
    """The target's tables. Leaves are numbered from the node table itself,
    so every layout whose children follow their parent scores alike."""
    tm = model.target(target)
    n_nodes, n_trees = tm.feature.shape[0], tm.offsets.shape[0] - 1
    tree = np.repeat(np.arange(n_trees), np.diff(tm.offsets))
    start = tm.offsets[:-1][tree]
    left, right = tm.left + start, tm.right + start
    is_split = tm.feature >= 0
    # The nodes reached from the roots and their splits, a level at a time.
    reached, levels = [tm.offsets[:-1]], []
    while reached[-1].shape[0]:
        levels.append(reached[-1][is_split[reached[-1]]])
        reached.append(np.concatenate([left[levels[-1]], right[levels[-1]]]))
    reached = np.concatenate(reached)
    # Leaves under each node, from the deepest splits up; then the number of
    # each node's leftmost leaf, from the roots down.
    n_leaves = np.ones(n_nodes, dtype=np.intp)
    for level in reversed(levels):
        n_leaves[level] = n_leaves[left[level]] + n_leaves[right[level]]
    first = np.zeros(n_nodes, dtype=np.intp)
    for level in levels:
        first[left[level]] = first[level]
        first[right[level]] = first[level] + n_leaves[left[level]]
    words = -(-int(n_leaves[tm.offsets[:-1]].max(initial=1)) // _WORD_BITS)
    slots = words * _WORD_BITS

    leaves = reached[~is_split[reached]]
    word, bit = np.divmod(first[leaves], _WORD_BITS)
    leaf_values = np.zeros(n_trees * slots, dtype=np.float64)
    leaf_values[tree[leaves] * slots + word * _WORD_BITS + _DE_BRUIJN_SLOT[bit]] = (
        model.hyperparams.learning_rate * tm.value[leaves])

    # Split i clears leaves [lo, hi), the leaves of its left subtree: one
    # mask per word that range touches.
    splits = reached[is_split[reached]]
    lo = first[splits]
    hi = lo + n_leaves[left[splits]]
    span = (hi - 1) // _WORD_BITS - lo // _WORD_BITS + 1
    i = np.repeat(np.arange(splits.shape[0]), span)
    word = lo[i] // _WORD_BITS + np.arange(i.shape[0]) - np.repeat(np.cumsum(span) - span, span)
    low = np.clip(lo[i] - word * _WORD_BITS, 0, _WORD_BITS).astype(np.uint64)
    width = np.clip(hi[i] - word * _WORD_BITS, 0, _WORD_BITS).astype(np.uint64) - low
    mask = ~((_ALL_LEAVES >> (np.uint64(_WORD_BITS) - width)) << low)
    column = tree[splits[i]] * words + word

    # Every feature's table in one array, in (feature, threshold) order: a row
    # of all leaves, then one row per distinct threshold, each row the AND of
    # the one before and its threshold's masks.
    feature, threshold = tm.feature[splits[i]], tm.threshold[splits[i]]
    order = np.lexsort((threshold, feature))
    feature, threshold, column, mask = feature[order], threshold[order], column[order], mask[order]
    new_feature = np.diff(feature, prepend=-1) != 0
    new_threshold = new_feature | (np.diff(threshold, prepend=np.nan) != 0)
    row = np.cumsum(new_threshold.astype(np.intp) + new_feature) - 1
    table = np.full((row[-1] + 1 if row.shape[0] else 0, n_trees * words), _ALL_LEAVES)
    np.bitwise_and.at(table, (row, column), mask)
    row_threshold = np.empty(table.shape[0])
    row_threshold[row] = threshold
    begins = (row[new_feature] - 1).tolist()
    tables = []
    for f, begin, end in zip(feature[new_feature].tolist(), begins, begins[1:] + [table.shape[0]]):
        rows = table[begin:end]
        np.bitwise_and.accumulate(rows, axis=0, out=rows)
        tables.append((f, row_threshold[begin + 1 : end], rows))
    return ScoreTables(tm.base_score, n_trees, words, tuple(tables), leaf_values)


def _score_block(tables: ScoreTables, X: np.ndarray, bits: np.ndarray, gathered: np.ndarray) -> np.ndarray:
    """Raw scores of the rows of ``X``: the AND of one table row per split
    feature, each tree's lowest set bit, and its leaf values added to the
    base score tree by tree in model order. ``bits`` and ``gathered`` are
    ``(rows, trees * words)`` work arrays; the leaf values end up in ``bits``."""
    n_rows, n_trees, words = X.shape[0], tables.n_trees, tables.words
    columns = X.T.copy()
    bits.fill(_ALL_LEAVES)
    for f, thresholds, table in tables.splits:
        np.take(table, np.searchsorted(thresholds, columns[f], side="left"), axis=0, out=gathered, mode="clip")
        bits &= gathered
    # Each word's lowest set bit as its de Bruijn slot, then each tree's
    # lowest non-empty word, as an index into ``leaf_values``.
    slot = np.negative(bits, out=gathered)
    slot &= bits
    slot *= _DE_BRUIJN
    slot >>= np.uint64(_WORD_BITS - 6)
    slot = slot.view(np.intp).reshape(n_rows, n_trees, words)
    tree_start = np.arange(0, n_trees * words * _WORD_BITS, words * _WORD_BITS)
    leaf = slot[:, :, -1]
    leaf += tree_start + (words - 1) * _WORD_BITS
    for w in reversed(range(words - 1)):
        np.copyto(leaf, slot[:, :, w] + (tree_start + w * _WORD_BITS), where=bits[:, w::words] != 0)
    values = bits.reshape(-1)[: n_trees * n_rows].view(np.float64).reshape(n_trees, n_rows)
    np.take(tables.leaf_values, leaf.T, out=values, mode="clip")
    out = np.full(n_rows, tables.base_score)
    for value in values:
        out += value
    return out


def raw_score_matrix(model: FusionModel, X: np.ndarray, target: str,
                     tables: ScoreTables | None = None) -> np.ndarray:
    """Unclamped ensemble score for one target over a feature matrix, from
    ``tables`` when given (``score_tables(model, target)``), else from tables
    built for this call."""
    if tables is None:
        tables = score_tables(model, target)
    row_words = tables.n_trees * tables.words
    n_rows = max(1, min(_BLOCK_ROWS, _BLOCK_WORDS // max(row_words, 1)))
    out = np.empty(X.shape[0], dtype=np.float64)
    bits = np.empty((min(X.shape[0], n_rows), row_words), dtype=np.uint64)
    gathered = np.empty_like(bits)
    for start in range(0, X.shape[0], n_rows):
        block = X[start : start + n_rows]
        out[start : start + n_rows] = _score_block(tables, block, bits[: block.shape[0]], gathered[: block.shape[0]])
    return out


def predict_matrix(model: FusionModel, X: np.ndarray, targets: Sequence[str] = TARGET_NAMES) -> np.ndarray:
    """Clamped predictions, one column per name in ``targets``."""
    out = np.empty((X.shape[0], len(targets)), dtype=np.float64)
    for t, name in enumerate(targets):
        out[:, t] = raw_score_matrix(model, X, name)
    np.maximum(out, 0.0, out=out)
    return out


@dataclass(frozen=True)
class MetricRow:
    name: str
    rmse_train: float
    r2_train: float | None
    rmse_valid: float
    r2_valid: float | None


@dataclass
class MetricsReport:
    rows: list[MetricRow]
    # Clamped validation predictions, columns in TARGET_NAMES order.
    pred_valid: np.ndarray

    def row(self, name: str) -> MetricRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _finite(value: float, statistic: str) -> float:
    if not math.isfinite(value):
        raise DataError(f"{statistic} is not finite: the predictions or the counts overflow float64")
    return value


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return _finite(float(np.sqrt(np.mean((pred - y) ** 2))), "RMSE")


@np.errstate(over="ignore", invalid="ignore")
def _r2(pred: np.ndarray, y: np.ndarray) -> float | None:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return None
    ss_res = float(np.sum((pred - y) ** 2))
    return _finite(1.0 - ss_res / _finite(ss_tot, "R^2"), "R^2")  # an infinite ss_tot gives a meaningless R^2


def _metric_row(name: str, dataset: FusionDataset, t: int, train: np.ndarray, valid: np.ndarray) -> MetricRow:
    """RMSE and R^2 of column ``t`` of each partition's predictions against target column ``t``."""
    y_train = dataset.Y_train[:, t]
    y_valid = dataset.Y_valid[:, t]
    return MetricRow(name, _rmse(train[:, t], y_train), _r2(train[:, t], y_train),
                     _rmse(valid[:, t], y_valid), _r2(valid[:, t], y_valid))


def evaluate(model: FusionModel, dataset: FusionDataset) -> MetricsReport:
    """Per-target RMSE and R^2 on both partitions, with the raw mobility
    flow as the baseline predictor of the total."""
    if dataset.split_index >= dataset.n_rows:
        raise DataError("validation partition is empty")
    # A row's score does not depend on the rows scored with it, so one pass
    # over both partitions gives each partition's scores.
    pred = predict_matrix(model, dataset.X)
    pred_train, pred_valid = pred[: dataset.split_index], pred[dataset.split_index :]
    # The baseline predicts the total, column 0, by the raw flow, feature 0.
    rows = [_metric_row(BASELINE_ROW_NAME, dataset, 0, dataset.X_train, dataset.X_valid)]
    rows += [_metric_row(name, dataset, t, pred_train, pred_valid) for t, name in enumerate(TARGET_NAMES)]
    return MetricsReport(rows=rows, pred_valid=pred_valid)


def rescaled_baseline_r2(dataset: FusionDataset) -> float | None:
    """Validation R^2 of the raw flow rescaled by a line fitted on the
    training split: how much of the baseline row's gap a linear rescaling
    would close. None where the validation total has zero variance."""
    pf, y = dataset.X_train[:, 0], dataset.Y_train[:, 0]
    coef, intercept = np.polyfit(pf, y, 1) if pf.std() > 0 else (0.0, float(y.mean()))
    return _r2(coef * dataset.X_valid[:, 0] + intercept, dataset.Y_valid[:, 0])


def residual_table(dataset: FusionDataset, pred_valid: np.ndarray) -> list[tuple[float, float, float]]:
    """Validation rows as (true total, model residual, baseline residual),
    ordered by true total, from the validation predictions ``evaluate``
    reports."""
    y = dataset.Y_valid[:, 0]
    pred = pred_valid[:, 0]
    baseline = dataset.X_valid[:, 0]
    rows = [(float(y[i]), float(pred[i] - y[i]), float(baseline[i] - y[i])) for i in range(y.shape[0])]
    rows.sort(key=lambda r: r[0])
    return rows


MODEL_FORMAT = "odfuse-fusion-model"
MODEL_VERSION = 1


def _target_doc(tm: TargetModel) -> dict:
    """The target as a document with one object per tree, sliced from the table."""
    trees = [{key: getattr(tree, key).tolist() for key in NODE_FIELDS} for tree in tm.trees]
    return {"base_score": tm.base_score, "trees": trees}


def save_model(model: FusionModel, path: str | Path) -> None:
    """Write the model document as JSON with sorted keys, one target at a
    time: ``json.dumps`` runs the C encoder, which ``json.dump`` does not,
    and encoding a target at a time bounds the encoder's temporary strings
    and the document's lists to one target's."""
    head, tail = json.dumps(
        {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "hyperparams": asdict(model.hyperparams),
            "feature_names": list(model.feature_names),
            "targets": None,
        },
        sort_keys=True,
    ).split('"targets": null')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"targets": {')
        for i, name in enumerate(sorted(model.targets)):
            target = json.dumps(_target_doc(model.targets[name]), sort_keys=True)
            fh.write(f'{", " if i else ""}{json.dumps(name)}: {target}')
        fh.write("}" + tail)


def _reject(label: str, offsets: np.ndarray, bad, problem: str) -> None:
    """A DataError naming the tree of the first node flagged in ``bad``, if any."""
    if np.any(bad):
        tree = int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1
        raise DataError(f"{label} tree {tree}: {problem}")


def _check_target(label: str, tm: TargetModel, n_features: int) -> None:
    """Reject a target whose trees could misroute, loop or index out of range:
    every split leads to higher-numbered children in its own tree, no node is
    the child of two splits, covers are positive and add up, and every number
    is finite. Each check is one pass over the whole table and names the
    first tree that fails it."""
    reject = partial(_reject, label, tm.offsets)
    internal = tm.feature != -1
    # Each node's (left, right) children numbered in the whole table; a leaf
    # is its own child, so leaves index nothing out of range.
    own = np.arange(tm.feature.shape[0])[:, None]
    start = np.repeat(tm.offsets[:-1], np.diff(tm.offsets))[:, None]
    children = np.where(internal[:, None], np.column_stack([tm.left, tm.right]) + start, own)
    end = np.repeat(tm.offsets[1:], np.diff(tm.offsets))[:, None]
    reject((tm.left == -1) & (tm.right == -1) & internal, "leaves must have feature -1")
    reject(internal & ((children <= own) | (children >= end)).any(axis=1),
           "children must have higher indices than their parent")
    reject(internal & ((tm.feature < 0) | (tm.feature >= n_features)), f"split features must lie in [0, {n_features})")
    reject(~(np.isfinite(tm.threshold) & np.isfinite(tm.value) & np.isfinite(tm.cover)),
           "thresholds, values and covers must be finite")
    reject((tm.cover <= 0) | (internal & (tm.cover != tm.cover[children].sum(axis=1))),
           "covers must be positive and equal the sum of their children's")
    # The scorer numbers every leaf once, so a node may not sit under two splits.
    reject(np.bincount(children[internal].reshape(-1), minlength=own.shape[0]) > 1,
           "no node may be the child of two splits")


def load_model(path: str | Path) -> FusionModel:
    p = Path(path)
    doc = read_json(p, "model file", DataError)
    try:
        return _model_from_doc(doc, p)
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError, ConfigError) as exc:
        raise DataError(f"malformed model file {p}: {exc!r}") from exc


def _model_from_doc(doc: dict, p: Path) -> FusionModel:
    if doc.get("format") != MODEL_FORMAT:
        raise DataError(f"{p} is not a fusion model file")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model version {doc.get('version')} in {p}")
    if tuple(doc["feature_names"]) != FEATURE_NAMES:
        raise DataError(f"{p}: feature names {doc['feature_names']} differ from {list(FEATURE_NAMES)}")
    if set(doc["targets"]) != set(TARGET_NAMES):
        raise DataError(f"{p}: targets {sorted(doc['targets'])} differ from {list(TARGET_NAMES)}")
    hp = GbtHyperparams(**doc["hyperparams"])
    # save_model sorts keys; rebuild in TARGET_NAMES order, the column order of Y.
    targets = {name: _target_from_doc(f"{p}: target {name}", doc["targets"][name]) for name in TARGET_NAMES}
    return FusionModel(hyperparams=hp, feature_names=FEATURE_NAMES, targets=targets)


def _target_from_doc(label: str, tdoc: dict) -> TargetModel:
    """One target's node table from its document, built a field at a time and checked whole."""
    base_score = float(tdoc["base_score"])
    if not math.isfinite(base_score):
        raise DataError(f"{label} has a non-finite base score")
    sizes = [0]
    for i, t in enumerate(tdoc["trees"]):
        lengths = {len(t[key]) if isinstance(t[key], list) else 0 for key in NODE_FIELDS}
        if len(lengths) != 1 or 0 in lengths:
            raise DataError(f"{label} tree {i}: node arrays must be non-empty and of equal length")
        sizes.extend(lengths)
    offsets = np.cumsum(sizes)
    columns = {}
    for key, dtype in NODE_FIELDS.items():
        column = list(chain.from_iterable(t[key] for t in tdoc["trees"]))
        values = np.asarray(column, dtype=None if dtype is np.intp else dtype)
        # Whole-array checks, so a float or out-of-range index is rejected, not truncated.
        if dtype is np.intp and column and (values.dtype.kind != "i" or (values.astype(np.int32) != values).any()):
            bad = [type(v) is not int or not -(2**31) <= v < 2**31 for v in column]
            _reject(label, offsets, bad, f"{key} must hold int32 integers")
        columns[key] = values.astype(dtype, copy=False)
    # Nested lists load as arrays of more dimensions, and then every tree holds them.
    if any(values.ndim != 1 for values in columns.values()):
        raise DataError(f"{label} tree 0: node arrays must be non-empty and of equal length")
    tm = TargetModel(base_score=base_score, **columns, offsets=offsets)
    _check_target(label, tm, len(FEATURE_NAMES))
    return tm


def write_metrics_csv(path: str | Path, report: MetricsReport) -> None:
    write_csv(path, ["target", "rmse_train", "r2_train", "rmse_valid", "r2_valid"],
              ([row.name, *map(stat_cell, (row.rmse_train, row.r2_train, row.rmse_valid, row.r2_valid))]
               for row in report.rows))


def write_residuals_csv(path: str | Path, rows: list[tuple[float, float, float]]) -> None:
    write_csv(path, ["y_total", "residual_model", "residual_baseline"], (map(stat_cell, row) for row in rows))
