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
gives the same tree. Prediction walks all of a target's trees at once over
one node table, a block of rows at a time, and adds the leaf values tree by
tree in model order, so scores equal a per-tree loop bit for bit.

The seven targets share only their inputs, so ``train`` fits them in two
processes: one worker, forked after the shared inputs are built, fits the
odd-indexed targets while the calling process fits the even-indexed ones,
and the models merge in target order. Each target's fit is the same
arithmetic in either process, so the model is byte-identical to a
one-process fit. The inputs reach the worker through the fork; only target
indices go to it and only fitted models come back. The fit stays in one
process when the platform cannot fork, when the process may run on fewer
than two CPUs, or when training rows x trees is under
``_PARALLEL_MIN_WORK``, where starting the worker costs more than it
saves."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CATEGORY_ORDER, CountsByCategory, VehicleCategory
from .errors import ConfigError, DataError, InternalError
from .ingest import FEATURE_NAMES, TARGET_NAMES, FeatureVector, FusionDataset

__all__ = [
    "GbtHyperparams",
    "RegressionTree",
    "FusionModel",
    "MetricRow",
    "MetricsReport",
    "train",
    "predict",
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
        if not 0 < self.learning_rate <= 1:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not math.isfinite(self.l2_leaf_regularization) or self.l2_leaf_regularization < 0:
            raise ConfigError(f"l2_leaf_regularization must be finite and non-negative, "
                              f"got {self.l2_leaf_regularization!r}")

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "min_samples_leaf": self.min_samples_leaf,
            "l2_leaf_regularization": self.l2_leaf_regularization,
            "seed": self.seed,
        }


@dataclass
class RegressionTree:
    """Flat-array binary tree. ``feature`` is -1 at leaves; ``cover`` is the
    training-sample count per node (parent cover = left + right)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
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
    base_score: float
    trees: list[RegressionTree]


@dataclass
class FusionModel:
    """Seven independently boosted targets over a shared feature layout."""

    hyperparams: GbtHyperparams
    feature_names: tuple[str, ...]
    targets: dict[str, TargetModel] = field(default_factory=dict)


class _TreeBuilder:
    """Grows one tree on the current residuals via exact greedy splits.

    A node holds, per feature, its rows in ascending order of that feature
    and their value codes, as one contiguous ``(2, F, n)`` integer array.
    """

    def __init__(self, codes: np.ndarray, values: list[np.ndarray], g: np.ndarray, hp: GbtHyperparams):
        self.codes = codes
        self.values = values
        self.g = g
        self.lam = hp.l2_leaf_regularization
        self.msl = hp.min_samples_leaf
        self.max_depth = hp.max_depth
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[float] = []
        self.leaf_assignments: list[tuple[np.ndarray, float]] = []

    def build(self, node: np.ndarray) -> RegressionTree:
        self._grow(node, depth=0)
        return RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64),
            cover=np.asarray(self.cover, dtype=np.float64),
        )

    def _new_node(self) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.cover.append(0.0)
        return idx

    def _make_leaf(self, idx: int, rows: np.ndarray) -> None:
        n = rows.shape[0]
        val = float(self.g[rows].sum() / (n + self.lam))
        self.value[idx] = val
        self.cover[idx] = float(n)
        self.leaf_assignments.append((rows, val))

    def _grow(self, node: np.ndarray, depth: int) -> int:
        idx = self._new_node()
        rows, codes = node
        n = rows.shape[1]
        if depth >= self.max_depth or n < 2 * self.msl:
            self._make_leaf(idx, rows[0])
            return idx

        # Candidates: value boundaries leaving at least msl rows on each
        # side, in feature-major order so that argmax breaks ties to the
        # lowest feature, then the lowest threshold.
        msl = self.msl
        boundary = codes[:, msl : n - msl + 1] != codes[:, msl - 1 : n - msl]
        feat, pos = np.divmod(np.flatnonzero(boundary), n - 2 * msl + 1)
        if feat.shape[0] == 0:
            self._make_leaf(idx, rows[0])
            return idx
        pos += msl - 1
        # Sequential prefix sums in each feature's sorted order: they decide
        # mathematically tied candidates, so their order must not change.
        csum = np.cumsum(self.g[rows], axis=1)
        G = csum[:, -1][feat]
        GL = csum.reshape(-1)[feat * n + pos]
        GR = G - GL
        nL = pos + 1.0
        nR = n - nL
        gain = GL * GL / (nL + self.lam) + GR * GR / (nR + self.lam) - G * G / (n + self.lam)
        best = int(np.argmax(gain))
        if not np.isfinite(gain[best]) or gain[best] <= 0.0:
            self._make_leaf(idx, rows[0])
            return idx

        f, p = int(feat[best]), int(pos[best])
        cut = codes[f, p]
        thr = (self.values[f][cut] + self.values[f][codes[f, p + 1]]) / 2.0
        # Compressing the flat (2, F * n) array keeps every feature's sorted
        # order on each side.
        goes_left = (self.codes[f][rows] <= cut).reshape(-1)
        flat = node.reshape(2, -1)
        n_left = p + 1
        left = flat.compress(goes_left, axis=1).reshape(2, -1, n_left)
        right = flat.compress(~goes_left, axis=1).reshape(2, -1, n - n_left)

        self.feature[idx] = f
        self.threshold[idx] = float(thr)
        left_idx = self._grow(left, depth + 1)
        right_idx = self._grow(right, depth + 1)
        self.left[idx] = left_idx
        self.right[idx] = right_idx
        self.cover[idx] = self.cover[left_idx] + self.cover[right_idx]
        return idx


# A fit of fewer (training rows x trees) than this stays in one process.
# Measured on 2 cores (Python 3.11, numpy 2.4): starting the forked worker,
# handing it the odd targets and merging its models costs about 6 ms (up
# to 10 ms). The cheapest fit per unit, depth 1, costs about 1.35 us per
# row x tree over all seven targets, so at this size the worker takes over
# 3 of 7 targets worth about 12 ms.
_PARALLEL_MIN_WORK = 20_000

# The shared inputs of the fit in progress: the root node, value codes,
# distinct values per feature, training targets and hyperparameters. Set by
# ``train`` so that a forked worker inherits them rather than receiving
# them pickled, as a spawned one would. One fit at a time per process.
_fit_inputs: tuple | None = None


def _fit_targets(targets: list[int]) -> dict[int, TargetModel]:
    """Boost the targets with these column indices of ``Y_train``."""
    root, codes, values, Y, hp = _fit_inputs
    fitted = {}
    for t in targets:
        y = Y[:, t]
        base = float(y.mean())
        pred = np.full(y.shape[0], base, dtype=np.float64)
        trees: list[RegressionTree] = []
        for _ in range(hp.n_trees):
            builder = _TreeBuilder(codes, values, y - pred, hp)
            tree = builder.build(root)
            for rows, val in builder.leaf_assignments:
                pred[rows] += hp.learning_rate * val
            trees.append(tree)
        fitted[t] = TargetModel(base_score=base, trees=trees)
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
    global _fit_inputs
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
    targets = list(range(len(TARGET_NAMES)))
    _fit_inputs = (root, codes, values, dataset.Y_train, hp)
    try:
        context = _fork_context(X.shape[0] * hp.n_trees)
        if context is None:
            fitted = _fit_targets(targets)
        else:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            with ProcessPoolExecutor(1, mp_context=context) as pool:
                odd = pool.submit(_fit_targets, targets[1::2])
                fitted = _fit_targets(targets[0::2])
                try:
                    fitted.update(odd.result())
                except BrokenProcessPool as exc:
                    raise InternalError(f"training worker died: {exc}") from exc
    finally:
        _fit_inputs = None
    model = FusionModel(hyperparams=hp, feature_names=FEATURE_NAMES)
    for t, name in enumerate(TARGET_NAMES):
        model.targets[name] = fitted[t]
    return model


# Rows walked at once: bounds the (trees x rows) index arrays of a walk.
_BLOCK_ROWS = 2048


def _node_table(trees: list[RegressionTree]) -> tuple[np.ndarray, ...]:
    """All trees' nodes in one table: root of each tree, split feature (-1 at
    leaves), threshold, children as (right, left) pairs and leaf value.
    Leaves are their own children, so a walk may overrun them."""
    sizes = np.array([tree.n_nodes for tree in trees])
    roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    offset = np.repeat(roots, sizes)
    own = np.arange(offset.shape[0])
    feature = np.concatenate([tree.feature for tree in trees]).astype(np.intp)
    leaf = feature < 0
    children = np.empty((own.shape[0], 2), dtype=np.intp)
    children[:, 0] = np.where(leaf, own, np.concatenate([tree.right for tree in trees]) + offset)
    children[:, 1] = np.where(leaf, own, np.concatenate([tree.left for tree in trees]) + offset)
    threshold = np.concatenate([tree.threshold for tree in trees])
    value = np.concatenate([tree.value for tree in trees])
    return roots, feature, threshold, children.reshape(-1), value


def _leaf_values(nodes: tuple[np.ndarray, ...], X: np.ndarray) -> np.ndarray:
    """``(trees, rows)`` leaf values: every tree walks every row at once, one
    level per step, until no row sits on an internal node."""
    roots, feature, threshold, children, value = nodes
    n_rows, n_features = X.shape
    x = np.ascontiguousarray(X).reshape(-1)
    row_start = np.arange(0, n_rows * n_features, n_features)
    at = np.repeat(roots[:, None], n_rows, axis=1)
    while True:
        f = feature[at]
        if f.max(initial=-1) < 0:
            return value[at]
        # At a leaf f is -1, which reads some other cell; both children are
        # the leaf itself, so the comparison does not matter there.
        go_left = x[row_start + f] <= threshold[at]
        at = children[2 * at + go_left]


def raw_score_matrix(model: FusionModel, X: np.ndarray, target: str) -> np.ndarray:
    """Unclamped ensemble score for one target over a feature matrix."""
    tm = model.targets.get(target)
    if tm is None:
        raise ConfigError(f"unknown target {target!r}; known: {list(model.targets)}")
    out = np.full(X.shape[0], tm.base_score, dtype=np.float64)
    if not tm.trees:
        return out
    lr = model.hyperparams.learning_rate
    nodes = _node_table(tm.trees)
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        # Added tree by tree in model order, as a per-tree loop would.
        for leaf_value in _leaf_values(nodes, X[start : start + _BLOCK_ROWS]):
            block += lr * leaf_value
    return out


def predict_matrix(model: FusionModel, X: np.ndarray) -> np.ndarray:
    """Clamped predictions for all targets; columns follow TARGET_NAMES."""
    out = np.empty((X.shape[0], len(TARGET_NAMES)), dtype=np.float64)
    for t, name in enumerate(TARGET_NAMES):
        out[:, t] = raw_score_matrix(model, X, name)
    np.maximum(out, 0.0, out=out)
    return out


def predict(model: FusionModel, x: FeatureVector) -> CountsByCategory:
    """Predict per-category counts for one feature vector.

    The total comes from its own model rather than the category sum, so the
    two can disagree; negative raw scores clamp to zero.
    """
    row = predict_matrix(model, x.to_array()[None, :])[0]
    counts: dict[VehicleCategory, float] = {
        cat: float(row[1 + j]) for j, cat in enumerate(CATEGORY_ORDER)
    }
    return CountsByCategory(counts=counts, total=float(row[0]))


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


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _r2(pred: np.ndarray, y: np.ndarray) -> float | None:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return None
    ss_res = float(np.sum((pred - y) ** 2))
    return 1.0 - ss_res / ss_tot


def evaluate(model: FusionModel, dataset: FusionDataset) -> MetricsReport:
    """Per-target RMSE and R^2 on both partitions, with the raw mobility
    flow as the baseline predictor of the total."""
    if dataset.split_index >= dataset.n_rows:
        raise DataError("validation partition is empty")
    pred_train = predict_matrix(model, dataset.X_train)
    pred_valid = predict_matrix(model, dataset.X_valid)
    rows = [
        MetricRow(
            name=BASELINE_ROW_NAME,
            rmse_train=_rmse(dataset.X_train[:, 0], dataset.Y_train[:, 0]),
            r2_train=_r2(dataset.X_train[:, 0], dataset.Y_train[:, 0]),
            rmse_valid=_rmse(dataset.X_valid[:, 0], dataset.Y_valid[:, 0]),
            r2_valid=_r2(dataset.X_valid[:, 0], dataset.Y_valid[:, 0]),
        )
    ]
    for t, name in enumerate(TARGET_NAMES):
        rows.append(
            MetricRow(
                name=name,
                rmse_train=_rmse(pred_train[:, t], dataset.Y_train[:, t]),
                r2_train=_r2(pred_train[:, t], dataset.Y_train[:, t]),
                rmse_valid=_rmse(pred_valid[:, t], dataset.Y_valid[:, t]),
                r2_valid=_r2(pred_valid[:, t], dataset.Y_valid[:, t]),
            )
        )
    return MetricsReport(rows=rows, pred_valid=pred_valid)


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
    return {
        "base_score": tm.base_score,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
                "cover": tree.cover.tolist(),
            }
            for tree in tm.trees
        ],
    }


def save_model(model: FusionModel, path: str | Path) -> None:
    """Write the model document as JSON with sorted keys, one target at a
    time: ``json.dumps`` runs the C encoder, which ``json.dump`` does not,
    and encoding a target at a time bounds the encoder's temporary strings
    and the document's lists to one target's."""
    head, tail = json.dumps(
        {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "hyperparams": model.hyperparams.to_dict(),
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


def _check_tree(label: str, tree: RegressionTree, n_features: int) -> None:
    """Reject a tree that could misroute, loop or index out of range: every
    split leads to higher-numbered children, covers are positive and add up,
    and every number is finite."""
    n = tree.n_nodes
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.cover)
    if n == 0 or {a.shape for a in arrays} != {(n,)}:
        raise DataError(f"{label}: node arrays must be non-empty and of equal length")
    if (tree.feature[(tree.left == -1) & (tree.right == -1)] != -1).any():
        raise DataError(f"{label}: leaves must have feature -1")
    internal = tree.feature != -1
    parent = np.arange(n)[internal]
    left, right = tree.left[internal], tree.right[internal]
    if ((left <= parent) | (right <= parent) | (left >= n) | (right >= n)).any():
        raise DataError(f"{label}: children must have higher indices than their parent")
    if ((tree.feature[internal] < 0) | (tree.feature[internal] >= n_features)).any():
        raise DataError(f"{label}: split features must lie in [0, {n_features})")
    if not all(np.isfinite(a).all() for a in (tree.threshold, tree.value, tree.cover)):
        raise DataError(f"{label}: thresholds, values and covers must be finite")
    if (tree.cover <= 0).any() or (tree.cover[internal] != tree.cover[left] + tree.cover[right]).any():
        raise DataError(f"{label}: covers must be positive and equal the sum of their children's")


def load_model(path: str | Path) -> FusionModel:
    p = Path(path)
    if not p.exists():
        raise DataError(f"model file not found: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
        return _model_from_doc(doc, p)
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
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
    model = FusionModel(hyperparams=GbtHyperparams(**doc["hyperparams"]), feature_names=FEATURE_NAMES)
    # save_model sorts keys; rebuild in TARGET_NAMES order, the column order of Y.
    for name in TARGET_NAMES:
        tdoc = doc["targets"][name]
        base_score = float(tdoc["base_score"])
        if not math.isfinite(base_score):
            raise DataError(f"{p}: target {name} has a non-finite base score")
        trees = []
        for i, t in enumerate(tdoc["trees"]):
            tree = RegressionTree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                value=np.asarray(t["value"], dtype=np.float64),
                cover=np.asarray(t["cover"], dtype=np.float64),
            )
            _check_tree(f"{p}: target {name} tree {i}", tree, len(FEATURE_NAMES))
            trees.append(tree)
        model.targets[name] = TargetModel(base_score=base_score, trees=trees)
    return model


def _fmt(value: float | None) -> str:
    return "NA" if value is None else repr(value)


def write_metrics_csv(path: str | Path, report: MetricsReport) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "rmse_train", "r2_train", "rmse_valid", "r2_valid"])
        for row in report.rows:
            writer.writerow(
                [row.name, repr(row.rmse_train), _fmt(row.r2_train), repr(row.rmse_valid), _fmt(row.r2_valid)]
            )


def write_residuals_csv(path: str | Path, rows: list[tuple[float, float, float]]) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y_total", "residual_model", "residual_baseline"])
        for y, rm, rb in rows:
            writer.writerow([repr(y), repr(rm), repr(rb)])
