"""Feature attribution for the boosted-tree model.

Local attributions use the polynomial-time path-dependent tree Shapley
algorithm: when a feature is "absent", its split is replaced by the
cover-weighted average over both branches, and the subset weighting is
carried along the decision path incrementally. Attributions are computed
on pre-clamp raw scores, where the local-accuracy identity

    base_value + sum(contributions) = raw model score

is exact. Permutation importance is included as a model-agnostic
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import stat_cell, write_csv
from .errors import ConfigError, DataError
from .fusion import FusionModel, RegressionTree, _r2, raw_score_matrix, score_tables
from .ingest import TARGET_NAMES, FusionDataset

__all__ = [
    "GlobalImportance",
    "shap_matrix",
    "global_importance",
    "permutation_importance",
    "tree_shap_single",
    "write_importance_csv",
    "write_attributions_csv",
    "write_permutation_csv",
]


@dataclass(frozen=True)
class GlobalImportance:
    feature_names: tuple[str, ...]
    mean_abs: np.ndarray
    ranking: tuple[str, ...]
    # One-hot road-tag columns folded into a single aggregate importance.
    tag_aggregate: float = 0.0


def _tree_paths(tree: RegressionTree) -> dict[int, tuple[np.ndarray, ...]]:
    """Root-to-leaf paths of one tree, grouped by their count of distinct
    features ``k``: ``{k: (leaf values, features, zero fractions, lower,
    upper)}`` with one row per path and one column per distinct feature.

    A feature split on several times along a path becomes one element: its
    zero fraction is the product of the cover ratios at each occurrence, and
    the row reaches the leaf through it exactly when ``lower < x <= upper``.
    """
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    value, cover = tree.value.tolist(), tree.cover.tolist()
    groups: dict[int, list[tuple]] = {}
    stack: list[tuple[int, dict[int, tuple[float, float, float]]]] = [(0, {})]
    while stack:
        node, elements = stack.pop()
        f = feature[node]
        if f < 0:
            if elements:  # a root leaf attributes nothing
                groups.setdefault(len(elements), []).append(
                    (value[node], tuple(elements), *zip(*elements.values()))
                )
            continue
        t = threshold[node]
        for child, goes_left in ((left[node], True), (right[node], False)):
            z, lower, upper = elements.get(f, (1.0, -math.inf, math.inf))
            z *= cover[child] / cover[node]
            merged = (z, lower, min(upper, t)) if goes_left else (z, max(lower, t), upper)
            stack.append((child, {**elements, f: merged}))
    return {k: tuple(np.asarray(col) for col in zip(*paths)) for k, paths in groups.items()}


def _accumulate_tree_shap(tree: RegressionTree, X: np.ndarray, phi: np.ndarray, scale: float) -> None:
    """Add ``scale`` times one tree's path-dependent Shapley values for every
    row of ``X`` into ``phi`` (features x rows).

    Path-level TreeSHAP: EXTEND and UNWOUND-SUM of the per-node recursion run
    once per group of equally long paths, over arrays shaped
    (paths, elements, rows). The first path element is the unit root
    element, so the weights of a path with ``k`` features have ``k + 1``
    entries.
    """
    if tree.cover[0] <= 0:
        raise DataError("tree lacks cover metadata; cannot compute attributions")
    for k, (values, features, z, lower, upper) in _tree_paths(tree).items():
        x = X.T[features]  # (paths, k, rows)
        o = ((x > lower[:, :, None]) & (x <= upper[:, :, None])).astype(np.float64)
        zc = z[:, :, None]
        # EXTEND by each element in turn, with ``size`` elements so far:
        # w'[m] = z w[m] (size - m)/(size + 1) + o w[m - 1] m/(size + 1).
        w = np.zeros((values.shape[0], k + 1, X.shape[0]))
        w[:, 0] = 1.0
        for size in range(1, k + 1):
            m = np.arange(1, size + 1)[:, None] / (size + 1)
            z_new, o_new = zc[:, size - 1 : size], o[:, size - 1 : size]
            w[:, 1 : size + 1] = o_new * w[:, :size] * m + z_new * w[:, 1 : size + 1] * (size / (size + 1) - m)
            w[:, 0] *= z_new[:, 0] * (size / (size + 1))
        # UNWOUND-SUM of every element at once, both branches. One fractions
        # are 0 or 1, so the branch for o != 0 needs no division by o.
        n = w[:, k : k + 1]
        sum_if_one = np.zeros_like(o)
        for j in range(k - 1, -1, -1):
            t = n * ((k + 1) / (j + 1))
            sum_if_one += t
            n = w[:, j : j + 1] - t * zc * ((k - j) / (k + 1))
        ratios = (k + 1) / (k - np.arange(k))
        sum_if_zero = np.einsum("pjr,j->pr", w[:, :k], ratios)[:, None, :] / zc
        unwound = np.where(o != 0, sum_if_one, sum_if_zero)
        np.add.at(phi, features, (values * scale)[:, None, None] * (o - zc) * unwound)


def tree_shap_single(tree: RegressionTree, x, n_features: int) -> np.ndarray:
    """Path-dependent Shapley contributions of one tree for one input row."""
    phi = np.zeros((n_features, 1))
    _accumulate_tree_shap(tree, np.asarray(x, dtype=np.float64)[None, :], phi, 1.0)
    return phi[:, 0]


def shap_matrix(model: FusionModel, target: str, X: np.ndarray) -> tuple[np.ndarray, float]:
    """Ensemble attributions for every row of a feature matrix, per-tree values
    scaled by the learning rate and summed across trees; returns (phi, base)."""
    tm = model.target(target)
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values; cannot compute attributions")
    lr = model.hyperparams.learning_rate
    phi = np.zeros((len(model.feature_names), X.shape[0]))
    base = tm.base_score
    for tree in tm.trees:
        _accumulate_tree_shap(tree, X, phi, lr)
        base += lr * tree.expected_value()
    return phi.T, float(base)


def global_importance(feature_names: tuple[str, ...], phi: np.ndarray) -> GlobalImportance:
    """Mean absolute attribution per feature over the rows of ``phi``."""
    if phi.shape[0] == 0:
        raise DataError("global_importance needs at least one row")
    mean_abs = np.abs(phi).mean(axis=0)
    order = sorted(range(len(feature_names)), key=lambda i: (-mean_abs[i], i))
    tag_total = float(
        sum(mean_abs[i] for i, name in enumerate(feature_names) if name.startswith("tag_"))
    )
    return GlobalImportance(
        feature_names=feature_names,
        mean_abs=mean_abs,
        ranking=tuple(feature_names[i] for i in order),
        tag_aggregate=tag_total,
    )


def permutation_importance(
    model: FusionModel,
    target: str,
    dataset: FusionDataset,
    repeats: int = 5,
    seed: int = 0,
) -> dict[str, float]:
    """Mean validation R^2 drop when one feature column is shuffled."""
    if repeats < 1:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    if dataset.split_index >= dataset.n_rows:
        raise DataError("validation partition is empty")
    model.target(target)
    X = dataset.X_valid
    y = dataset.Y_valid[:, TARGET_NAMES.index(target)]
    tables = score_tables(model, target)

    def r2_of(Xs: np.ndarray) -> float | None:
        return _r2(np.maximum(raw_score_matrix(model, Xs, target, tables), 0.0), y)

    base_r2 = r2_of(X)
    if base_r2 is None:
        raise DataError("validation target has zero variance")
    rng = np.random.default_rng(seed)
    drops: dict[str, float] = {}
    for j, name in enumerate(model.feature_names):
        acc = 0.0
        for _ in range(repeats):
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(X.shape[0]), j]
            acc += base_r2 - r2_of(Xp)
        drops[name] = acc / repeats
    return drops


def write_importance_csv(path: str | Path, imp: GlobalImportance) -> None:
    rank_of = {name: i + 1 for i, name in enumerate(imp.ranking)}
    rows = [[name, stat_cell(imp.mean_abs[i]), rank_of[name]] for i, name in enumerate(imp.feature_names)]
    write_csv(path, ["feature", "mean_abs_shap", "rank"], [*rows, ["tagValue", stat_cell(imp.tag_aggregate), ""]])


def write_attributions_csv(
    path: str | Path, feature_names: tuple[str, ...], phi: np.ndarray, base: float
) -> None:
    write_csv(path, ["base_value", *feature_names], ([stat_cell(base), *map(stat_cell, row)] for row in phi))


def write_permutation_csv(path: str | Path, drops: dict[str, float]) -> None:
    write_csv(path, ["feature", "r2_drop"], ([name, stat_cell(drop)] for name, drop in drops.items()))
