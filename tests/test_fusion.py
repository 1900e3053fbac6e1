import concurrent.futures
import gc
import json
import multiprocessing
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odfuse.core import RoadTag
from odfuse.errors import ConfigError, DataError, InternalError
from odfuse import fusion
from odfuse.attribution import permutation_importance
from odfuse.fusion import (
    FusionModel,
    GbtHyperparams,
    evaluate,
    load_model,
    predict_matrix,
    raw_score_matrix,
    rescaled_baseline_r2,
    residual_table,
    save_model,
    train,
)
from odfuse.ingest import (
    BiasProfile,
    FEATURE_NAMES,
    TARGET_NAMES,
    FusionDataset,
    build_dataset,
    generate_synthetic,
)
from odfuse.network import trondheim_fixture

from _helpers import (
    exhaustive_best_split,
    make_tree,
    random_cover_tree,
    reference_raw_scores,
    reference_train,
    target_model,
)


def dataset_from_arrays(X, Y, split_index) -> FusionDataset:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = np.repeat(Y[:, None], len(TARGET_NAMES), axis=1)
    return FusionDataset(
        X=X, Y=Y, node_keys=["n"] * len(X), hours=[None] * len(X), split_index=split_index
    )


def random_features(rng, n, k):
    X = np.zeros((n, len(FEATURE_NAMES)))
    X[:, :k] = rng.random((n, k))
    return X


@pytest.fixture(scope="module")
def synthetic_model():
    net = trondheim_fixture()
    profile = BiasProfile(
        gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7},
        noise_scale=0.1,
        censor_threshold=120,
        seed=17,
    )
    tb, rt = generate_synthetic(net, 10, profile)
    ds = build_dataset(tb, rt, 0.2)
    model = train(ds, GbtHyperparams(n_trees=60, max_depth=5))
    return model, ds


class TestTrain:
    def test_constant_target_predicts_constant(self):
        rng = np.random.default_rng(0)
        X = random_features(rng, 20, 3)
        ds = dataset_from_arrays(X, np.full(20, 7.0), split_index=16)
        model = train(ds, GbtHyperparams(n_trees=5, max_depth=3, min_samples_leaf=1))
        preds = predict_matrix(model, X)
        assert np.all(preds == 7.0)

    def test_depth1_split_matches_enumeration_oracle(self):
        # Dyadic targets make cumsum and direct-sum gains bit-identical.
        X = np.zeros((4, len(FEATURE_NAMES)))
        X[:, 0] = [1.0, 2.0, 3.0, 4.0]
        X[:, 1] = [5.0, 5.0, 1.0, 1.0]
        y = np.array([10.0, 10.5, 30.0, 31.0])
        ds = dataset_from_arrays(X, y, split_index=4)
        model = train(ds, GbtHyperparams(n_trees=1, max_depth=1, min_samples_leaf=1, l2_leaf_regularization=0.0))
        tree = model.targets["total"].trees[0]
        oracle = exhaustive_best_split(X, y - y.mean(), min_samples_leaf=1, lam=0.0)
        assert oracle is not None
        assert tree.feature[0] == oracle[0]
        assert tree.threshold[0] == oracle[1]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_depth1_split_matches_oracle_randomized(self, lam):
        rng = np.random.default_rng(42 + int(lam))
        for _ in range(30):
            n = int(rng.integers(4, 64))
            k = int(rng.integers(1, 5))
            X = random_features(rng, n, k)
            y = rng.integers(-1000, 1000, size=n) / 16.0
            ds = dataset_from_arrays(X, y, split_index=n)
            hp = GbtHyperparams(
                n_trees=1, max_depth=1, min_samples_leaf=2, l2_leaf_regularization=lam
            )
            model = train(ds, hp)
            tree = model.targets["total"].trees[0]
            oracle = exhaustive_best_split(X, y - y.mean(), min_samples_leaf=2, lam=lam)
            if oracle is None:
                assert tree.feature[0] == -1
            else:
                assert (tree.feature[0], tree.threshold[0]) == (oracle[0], oracle[1])

    def test_every_internal_split_matches_oracle(self):
        # Walk a depth-3 tree and re-run the enumeration oracle on the row
        # subset reaching each internal node.
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(20, 64))
            X = random_features(rng, n, 4)
            y = rng.integers(-1000, 1000, size=n) / 16.0
            ds = dataset_from_arrays(X, y, split_index=n)
            hp = GbtHyperparams(n_trees=1, max_depth=3, min_samples_leaf=2, l2_leaf_regularization=1.0)
            model = train(ds, hp)
            tree = model.targets["total"].trees[0]
            g = y - y.mean()

            def check(node, rows):
                if tree.feature[node] < 0:
                    return
                oracle = exhaustive_best_split(X[rows], g[rows], min_samples_leaf=2, lam=1.0)
                assert oracle is not None
                assert (tree.feature[node], tree.threshold[node]) == (oracle[0], oracle[1])
                go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
                check(tree.left[node], rows[go_left])
                check(tree.right[node], rows[~go_left])

            check(0, np.arange(n))

    def test_interpolates_small_dataset_exactly(self):
        rng = np.random.default_rng(3)
        X = random_features(rng, 8, 2)
        y = rng.normal(size=8) * 10
        ds = dataset_from_arrays(X, y, split_index=8)
        hp = GbtHyperparams(
            n_trees=1, max_depth=8, learning_rate=1.0, min_samples_leaf=1, l2_leaf_regularization=0.0
        )
        model = train(ds, hp)
        preds = raw_score_matrix(model, X, "total")
        assert np.allclose(preds, y, atol=1e-9)

    def test_training_rmse_monotone_in_rounds(self):
        rng = np.random.default_rng(5)
        X = random_features(rng, 120, 4)
        y = 3 * X[:, 0] + np.sin(5 * X[:, 1]) + 0.1 * rng.normal(size=120)
        ds = dataset_from_arrays(X, y, split_index=120)
        hp = GbtHyperparams(n_trees=40, max_depth=3, min_samples_leaf=2)
        model = train(ds, hp)
        pred = np.full(120, model.targets["total"].base_score)
        last = float(np.sqrt(np.mean((pred - y) ** 2)))
        for tree in model.targets["total"].trees:
            pred = pred + hp.learning_rate * tree.predict_batch(X)
            rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
            assert rmse <= last + 1e-12
            last = rmse

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(6)
        X = random_features(rng, 60, 4)
        y = rng.normal(size=60)
        ds = dataset_from_arrays(X, y, split_index=50)
        hp = GbtHyperparams(n_trees=10, max_depth=4)
        m1, m2 = train(ds, hp), train(ds, hp)
        assert np.array_equal(
            raw_score_matrix(m1, X, "total"), raw_score_matrix(m2, X, "total")
        )

    def test_cover_consistency(self, synthetic_model):
        model, _ = synthetic_model
        tree = model.targets["total"].trees[0]
        for i in range(len(tree.feature)):
            if tree.feature[i] >= 0:
                assert tree.cover[i] == tree.cover[tree.left[i]] + tree.cover[tree.right[i]]

    def test_empty_training_partition_rejected(self):
        X = np.zeros((3, len(FEATURE_NAMES)))
        ds = dataset_from_arrays(X, np.zeros(3), split_index=0)
        with pytest.raises(DataError, match="empty"):
            train(ds, GbtHyperparams(n_trees=1))

    def test_nonfinite_feature_rejected(self):
        X = np.zeros((3, len(FEATURE_NAMES)))
        X[1, 0] = np.nan
        ds = dataset_from_arrays(X, np.zeros(3), split_index=3)
        with pytest.raises(DataError, match="non-finite"):
            train(ds, GbtHyperparams(n_trees=1))

    def test_bad_hyperparams_rejected(self):
        for bad in (
            {"n_trees": 0}, {"learning_rate": 1.5},
            {"n_trees": 2.5}, {"max_depth": 2.5}, {"max_depth": True}, {"min_samples_leaf": 5.0},
            {"l2_leaf_regularization": float("inf")}, {"l2_leaf_regularization": float("nan")},
            {"seed": -1}, {"seed": 1.5}, {"learning_rate": True}, {"l2_leaf_regularization": True},
        ):
            with pytest.raises(ConfigError):
                GbtHyperparams(**bad)


class TestPredict:
    def test_negative_raw_scores_clamped(self):
        model = FusionModel(hyperparams=GbtHyperparams(), feature_names=FEATURE_NAMES)
        for name in TARGET_NAMES:
            model.targets[name] = target_model(-3.2, [])
        # flow 10 at 08:00 on a Monday, on a trunk road
        pred = predict_matrix(model, np.array([[10.0, 8, 0, 0, 0, 1, 0]]))
        assert pred.shape == (1, len(TARGET_NAMES))
        assert (pred == 0.0).all()


class TestEvaluate:
    def test_perfect_predictions(self):
        # Validation rows duplicate training rows, so an interpolating
        # model is exact on both partitions.
        rng = np.random.default_rng(8)
        Xb = np.zeros((6, len(FEATURE_NAMES)))
        Xb[:, 0] = rng.permutation(6) * 10.0
        y = Xb[:, 0] * 2 + 1
        X = np.vstack([Xb, Xb])
        ds = dataset_from_arrays(X, np.concatenate([y, y]), split_index=6)
        hp = GbtHyperparams(
            n_trees=1, max_depth=6, learning_rate=1.0, min_samples_leaf=1, l2_leaf_regularization=0.0
        )
        model = train(ds, hp)
        report = evaluate(model, ds)
        row = report.row("total")
        assert row.rmse_valid == pytest.approx(0.0, abs=1e-9)
        assert row.r2_valid == pytest.approx(1.0, abs=1e-12)

    def test_mean_predictor_scores_zero(self):
        X = np.zeros((8, len(FEATURE_NAMES)))
        y = np.array([1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0])
        ds = dataset_from_arrays(X, y, split_index=4)
        # Features are constant, so the fit collapses to the training mean,
        # which equals the validation mean here.
        model = train(ds, GbtHyperparams(n_trees=3))
        row = evaluate(model, ds).row("total")
        assert row.r2_valid == 0.0

    def test_baseline_identity_scores_one(self):
        rng = np.random.default_rng(9)
        X = np.zeros((40, len(FEATURE_NAMES)))
        totals = rng.integers(50, 500, size=40).astype(float)
        X[:, 0] = totals  # people_flow equals the total exactly
        Y = np.zeros((40, len(TARGET_NAMES)))
        Y[:, 0] = totals
        ds = dataset_from_arrays(X, Y, split_index=30)
        model = train(ds, GbtHyperparams(n_trees=2, max_depth=2))
        base = evaluate(model, ds).row("people_flow_baseline")
        assert base.rmse_valid == 0.0
        assert base.r2_valid == 1.0

    def test_rescaled_baseline_closes_a_linear_gap(self):
        rng = np.random.default_rng(12)
        X = np.zeros((40, len(FEATURE_NAMES)))
        X[:, 0] = rng.integers(50, 500, size=40)
        y = 2.0 * X[:, 0] + 5.0
        assert rescaled_baseline_r2(dataset_from_arrays(X, y, split_index=30)) == pytest.approx(1.0, abs=1e-9)
        # A constant training flow rescales to the training mean.
        X[:30, 0] = 100.0
        ds = dataset_from_arrays(X, y, split_index=30)
        mean_r2 = 1.0 - np.sum((y[:30].mean() - y[30:]) ** 2) / np.sum((y[30:] - y[30:].mean()) ** 2)
        assert rescaled_baseline_r2(ds) == mean_r2
        y[30:] = 7.0
        assert rescaled_baseline_r2(dataset_from_arrays(X, y, split_index=30)) is None

    def test_zero_variance_target_reports_none(self):
        rng = np.random.default_rng(10)
        X = random_features(rng, 20, 2)
        Y = np.zeros((20, len(TARGET_NAMES)))
        Y[:, 0] = rng.normal(size=20)
        # the last category stays all-zero: undefined R2, not NaN
        ds = FusionDataset(X=X, Y=Y, node_keys=["n"] * 20, hours=[None] * 20, split_index=15)
        model = train(ds, GbtHyperparams(n_trees=2, max_depth=2))
        row = evaluate(model, ds).row(TARGET_NAMES[-1])
        assert row.r2_valid is None
        assert row.rmse_valid == 0.0

    def test_shuffled_targets_drive_r2_nonpositive(self, synthetic_model):
        model, ds = synthetic_model
        rng = np.random.default_rng(11)
        pred = predict_matrix(model, ds.X_valid)[:, 0]
        y = rng.permutation(ds.Y_valid[:, 0])
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1 - np.sum((pred - y) ** 2) / ss_tot
        assert r2 < 0


class TestResidualTable:
    def test_identity_bias_zero_baseline_residuals(self):
        X = np.zeros((12, len(FEATURE_NAMES)))
        totals = np.arange(12, dtype=float) * 30 + 50
        X[:, 0] = totals
        Y = np.zeros((12, len(TARGET_NAMES)))
        Y[:, 0] = totals
        ds = dataset_from_arrays(X, Y, split_index=8)
        model = train(ds, GbtHyperparams(n_trees=2, max_depth=2))
        rows = residual_table(ds, evaluate(model, ds).pred_valid)
        assert all(rb == 0 for _, _, rb in rows)
        assert [y for y, _, _ in rows] == sorted(y for y, _, _ in rows)
        want = predict_matrix(model, ds.X_valid)[:, 0] - ds.Y_valid[:, 0]
        assert [rm for _, rm, _ in rows] == want[np.argsort(ds.Y_valid[:, 0])].tolist()

    def test_multiplicative_bias_grows_with_volume(self):
        rng = np.random.default_rng(12)
        X = np.zeros((40, len(FEATURE_NAMES)))
        totals = np.linspace(100, 2000, 40)
        X[:, 0] = 1.4 * totals  # overrepresented flows
        Y = np.zeros((40, len(TARGET_NAMES)))
        Y[:, 0] = totals
        ds = dataset_from_arrays(X, Y, split_index=20)
        model = train(ds, GbtHyperparams(n_trees=2, max_depth=2))
        rows = residual_table(ds, evaluate(model, ds).pred_valid)
        baseline = [rb for _, _, rb in rows]
        assert all(rb > 0 for rb in baseline)
        assert baseline[-1] > baseline[0]


class TestPersistence:
    def test_roundtrip_predictions_bit_exact(self, synthetic_model, tmp_path):
        model, ds = synthetic_model
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        for name in TARGET_NAMES:
            a = raw_score_matrix(model, ds.X_valid, name)
            b = raw_score_matrix(loaded, ds.X_valid, name)
            assert np.array_equal(a, b)

    def test_roundtrip_is_stable_on_disk(self, synthetic_model, tmp_path):
        model, _ = synthetic_model
        save_model(model, tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_file_is_the_document_with_sorted_keys(self, synthetic_model, tmp_path):
        model, _ = synthetic_model
        save_model(model, tmp_path / "model.json")
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), sort_keys=True) == text

    def test_rejects_foreign_json(self, tmp_path):
        (tmp_path / "junk.json").write_text("{}", encoding="utf-8")
        with pytest.raises(DataError, match="not a fusion model"):
            load_model(tmp_path / "junk.json")


# Column kinds of the parity datasets: continuous, few repeated values,
# binary, the indicator of the previous column's minimum (the complement of
# a binary column, as one-hot tags are), a threshold of the previous column
# (as is_weekend is of day_of_week) and constant.
_COLUMN_KINDS = ("continuous", "repeated", "binary", "complement", "threshold", "constant")


def _parity_dataset(seed: int, n: int, kinds: list[str]) -> FusionDataset:
    rng = np.random.default_rng(seed)
    X = np.zeros((n, len(FEATURE_NAMES)))
    for j, kind in enumerate(kinds):
        prev = X[:, j - 1] if j else rng.integers(0, 7, n).astype(float)
        X[:, j] = {
            "continuous": lambda: rng.random(n) * 1000.0,
            "repeated": lambda: rng.integers(0, int(rng.integers(2, 8)), n).astype(float),
            "binary": lambda: rng.integers(0, 2, n).astype(float),
            "complement": lambda: (prev == prev.min()).astype(float),
            "threshold": lambda: (prev >= np.median(prev)).astype(float),
            "constant": lambda: np.full(n, 3.0),
        }[kind]()
    Y = np.column_stack([
        rng.normal(size=n) * 37.3 if t % 3 == 0 else
        rng.integers(0, 60, n).astype(float) if t % 3 == 1 else
        rng.random(n) * rng.integers(0, 2)  # sometimes all zero
        for t in range(len(TARGET_NAMES))
    ])
    return FusionDataset(X=X, Y=Y, node_keys=["n"] * n, hours=[None] * n, split_index=n)


def _assert_same_model(got, want):
    assert list(got.targets) == list(want.targets)
    for name, tm in want.targets.items():
        assert got.targets[name].base_score == tm.base_score
        assert len(got.targets[name].trees) == len(tm.trees)
        for a, b in zip(got.targets[name].trees, tm.trees):
            for field in ("feature", "threshold", "left", "right", "value", "cover"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), (name, field)


class TestTrainerParity:
    """The trainer reproduces the full-scan builder array for array, ties
    included: same features, thresholds, children, values and covers."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        msl=st.integers(1, 6),
        n_extra=st.one_of(st.integers(-1, 2), st.integers(3, 60)),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=len(FEATURE_NAMES), max_size=len(FEATURE_NAMES)),
        depth=st.integers(1, 7),
        # Non-integer l2 values make (pos + 1.0) + l2 round, which the
        # trainer's denominator table must reproduce; an integer l2 beyond
        # 2**53 rounds n + l2 differently in float64 and in Python ints.
        lam=st.sampled_from([0.0, 1e-3, 0.3, 1.0, 2.5, 2**53 + 1]),
        n_trees=st.integers(1, 3),
        learning_rate=st.sampled_from([0.1, 1.0]),
    )
    def test_matches_full_scan_reference(self, seed, msl, n_extra, kinds, depth, lam, n_trees, learning_rate):
        n = max(1, 2 * msl + n_extra)  # n_extra in [-1, 2] puts n near 2 * msl
        ds = _parity_dataset(seed, n, kinds)
        hp = GbtHyperparams(n_trees=n_trees, max_depth=depth, learning_rate=learning_rate,
                            min_samples_leaf=msl, l2_leaf_regularization=lam)
        _assert_same_model(train(ds, hp), reference_train(ds, hp))

    @pytest.mark.parametrize("msl", [1, 3, 6])
    def test_root_below_twice_min_samples_leaf_is_one_leaf(self, msl):
        ds = _parity_dataset(11, 2 * msl - 1, ["continuous"] * len(FEATURE_NAMES))
        hp = GbtHyperparams(n_trees=2, max_depth=3, min_samples_leaf=msl, l2_leaf_regularization=0.3)
        model = train(ds, hp)
        _assert_same_model(model, reference_train(ds, hp))
        assert all(len(tree.feature) == 1 for tm in model.targets.values() for tree in tm.trees)

    def test_consecutive_fits_share_no_tables(self):
        # Two datasets of different sizes and value sets fitted in turn, then
        # the first again: each fit builds its own root candidates and
        # denominator table.
        first = _parity_dataset(21, 90, list(_COLUMN_KINDS * 2)[: len(FEATURE_NAMES)])
        second = _parity_dataset(22, 37, ["repeated"] * len(FEATURE_NAMES))
        hp = GbtHyperparams(n_trees=3, max_depth=4, min_samples_leaf=2, l2_leaf_regularization=0.3)
        models = [train(ds, hp) for ds in (first, second, first)]
        _assert_same_model(models[0], reference_train(first, hp))
        _assert_same_model(models[1], reference_train(second, hp))
        _assert_same_model(models[2], models[0])

    def test_matches_reference_on_synthetic_counts(self):
        # One-hot road tags and day_of_week against is_weekend tie in gain.
        gains = {RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7}
        profile = BiasProfile(gains=gains, noise_scale=0.1, censor_threshold=120, seed=5)
        ds = build_dataset(*generate_synthetic(trondheim_fixture(), 3, profile), 0.2)
        hp = GbtHyperparams(n_trees=4, max_depth=6)
        _assert_same_model(train(ds, hp), reference_train(ds, hp))


@pytest.fixture(scope="module")
def above_threshold():
    """A dataset and hyperparameters whose fit just exceeds the work threshold."""
    gains = {RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7}
    profile = BiasProfile(gains=gains, noise_scale=0.1, censor_threshold=120, seed=9)
    ds = build_dataset(*generate_synthetic(trondheim_fixture(), 2, profile), 0.2)
    n_trees = fusion._PARALLEL_MIN_WORK // ds.X_train.shape[0] + 1
    return ds, GbtHyperparams(n_trees=n_trees, max_depth=3)


def _set_cpus(monkeypatch, cpus: set[int]) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
class TestTwoProcessFit:
    """A forked worker fits the odd-indexed targets of a large enough fit on
    two CPUs; the model is the one a single process fits."""

    def test_same_model_in_one_and_two_processes(self, above_threshold, monkeypatch, tmp_path):
        ds, hp = above_threshold
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        _set_cpus(monkeypatch, {0, 1})
        two = train(ds, hp)
        assert len(pools) == 1
        _set_cpus(monkeypatch, {0})
        one = train(ds, hp)
        assert len(pools) == 1
        _assert_same_model(two, one)
        save_model(two, tmp_path / "two.json")
        save_model(one, tmp_path / "one.json")
        assert (tmp_path / "two.json").read_bytes() == (tmp_path / "one.json").read_bytes()

    def test_fit_below_threshold_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _set_cpus(monkeypatch, {0, 1})
        n = 60
        ds = _parity_dataset(3, n, ["continuous"] * len(FEATURE_NAMES))
        hp = GbtHyperparams(n_trees=(fusion._PARALLEL_MIN_WORK - 1) // n, max_depth=1)
        assert len(train(ds, hp).targets) == len(TARGET_NAMES)

    @pytest.mark.parametrize("fault, error, message", [
        ("raise", DataError, "raised in the worker"),
        ("exit", InternalError, "worker died"),
    ])
    def test_worker_failure_reaches_the_caller(self, monkeypatch, fault, error, message):
        parent = os.getpid()
        build = fusion._TreeBuilder.build

        def build_fails_in_worker(self, node, g):
            if os.getpid() != parent:
                if fault == "exit":
                    os._exit(1)
                raise DataError("raised in the worker")
            return build(self, node, g)

        monkeypatch.setattr(fusion._TreeBuilder, "build", build_fails_in_worker)
        monkeypatch.setattr(fusion, "_PARALLEL_MIN_WORK", 0)
        _set_cpus(monkeypatch, {0, 1})
        ds = _parity_dataset(4, 20, ["continuous"] * len(FEATURE_NAMES))
        with pytest.raises(error, match=message):
            train(ds, GbtHyperparams(n_trees=1))


def _model_of(trees_per_target: list, base: float = 2.5, lr: float = 0.1) -> FusionModel:
    model = FusionModel(hyperparams=GbtHyperparams(learning_rate=lr), feature_names=FEATURE_NAMES)
    for name, trees in zip(TARGET_NAMES, trees_per_target):
        model.targets[name] = target_model(base, trees)
    return model


def _assert_scores_match_per_tree_sum(model, X):
    for name in model.targets:
        got = raw_score_matrix(model, X, name)
        assert got.shape == (X.shape[0],)
        assert np.array_equal(got, reference_raw_scores(model, X, name)), name


class TestPredictorParity:
    """The whole-target walk equals the tree-by-tree predict_batch sum bit
    for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depths=st.lists(st.integers(0, 7), min_size=len(TARGET_NAMES), max_size=len(TARGET_NAMES) * 4),
        n_rows=st.sampled_from([0, 1, 2, 17]),
        lr=st.sampled_from([0.1, 0.3, 1.0]),
    )
    def test_random_ensembles(self, tmp_path_factory, seed, depths, n_rows, lr):
        rng = np.random.default_rng(seed)
        # Mixed depths, single leaves (depth 0) and zero-tree targets.
        trees = [random_cover_tree(rng, len(FEATURE_NAMES), d) for d in depths]
        split = sorted(rng.integers(0, len(trees) + 1, len(TARGET_NAMES) - 1).tolist())
        per_target = np.split(np.arange(len(trees)), split)
        model = _model_of([[trees[i] for i in idx] for idx in per_target], float(rng.normal()), lr)
        X = rng.random((n_rows, len(FEATURE_NAMES)))
        # Some cells equal a threshold: x <= threshold goes left.
        thresholds = np.concatenate([t.threshold for t in trees])
        hits = rng.random(X.shape) < 0.3
        X[hits] = rng.choice(thresholds, size=int(hits.sum()))
        _assert_scores_match_per_tree_sum(model, X)
        # The same ensemble through model.json.
        saved = tmp_path_factory.mktemp("ensemble")
        save_model(model, saved / "model.json")
        loaded = load_model(saved / "model.json")
        _assert_same_model(loaded, model)
        save_model(loaded, saved / "again.json")
        assert (saved / "again.json").read_bytes() == (saved / "model.json").read_bytes()
        for name in TARGET_NAMES:
            assert np.array_equal(raw_score_matrix(loaded, X, name), raw_score_matrix(model, X, name))

    def test_zero_tree_targets_give_the_base_score(self):
        model = _model_of([[]] * len(TARGET_NAMES), base=-3.25)
        for n_rows in (0, 1, 5):
            X = np.ones((n_rows, len(FEATURE_NAMES)))
            _assert_scores_match_per_tree_sum(model, X)
            assert np.all(raw_score_matrix(model, X, "total") == -3.25)

    def test_single_leaf_trees(self):
        leaves = [make_tree([-1], [0.0], [-1], [-1], [v], [4.0]) for v in (1.5, -0.25, 3.0)]
        model = _model_of([leaves] * len(TARGET_NAMES))
        _assert_scores_match_per_tree_sum(model, np.zeros((3, len(FEATURE_NAMES))))

    def test_rows_beyond_one_block(self, synthetic_model):
        model, ds = synthetic_model
        rng = np.random.default_rng(21)
        n_rows = 2 * fusion._BLOCK_ROWS + 3
        X = ds.X[rng.integers(0, ds.n_rows, n_rows)]
        _assert_scores_match_per_tree_sum(model, X)
        assert np.array_equal(predict_matrix(model, X)[-5:], predict_matrix(model, X[-5:]))

    def test_non_contiguous_input(self, synthetic_model):
        model, ds = synthetic_model
        X = np.asfortranarray(ds.X_valid)
        _assert_scores_match_per_tree_sum(model, X)


def full_tree(rng, depth: int):
    """A full tree of ``depth`` (2 ** depth leaves) with random splits, in
    breadth-first order: node i has children 2i + 1 and 2i + 2. Thresholds
    include 0.0 and -0.0; covers add up."""
    n_nodes, n_splits = 2 ** (depth + 1) - 1, 2**depth - 1
    feature = np.full(n_nodes, -1)
    feature[:n_splits] = rng.integers(0, len(FEATURE_NAMES), n_splits)
    threshold = np.zeros(n_nodes)
    threshold[:n_splits] = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0], n_splits) + (
        rng.random(n_splits) < 0.5) * rng.normal(size=n_splits)
    value = np.where(feature == -1, rng.normal(size=n_nodes), 0.0)
    cover = np.zeros(n_nodes)
    cover[n_splits:] = rng.integers(1, 5, n_nodes - n_splits)
    for i in reversed(range(n_splits)):
        cover[i] = cover[2 * i + 1] + cover[2 * i + 2]
    children = np.where(feature >= 0, 2 * np.arange(n_nodes) + 1, -1)
    return make_tree(feature, threshold, children, np.where(feature >= 0, children + 1, -1), value, cover)


def relaid(tree, layout: str):
    """``tree`` with its nodes renumbered in ``layout``: "pre-order" (the
    trainer's, left subtree first), "breadth-first", or "right-first"
    (pre-order with the right subtree first). Every layout passes
    ``load_model``'s checks."""
    kids = {i: (int(tree.left[i]), int(tree.right[i])) for i in range(tree.feature.shape[0]) if tree.feature[i] >= 0}
    if layout == "breadth-first":
        order = [0]
        for i in order:
            order.extend(kids.get(i, ()))
    else:
        def visit(i):
            if i not in kids:
                return [i]
            first, second = kids[i][::-1] if layout == "right-first" else kids[i]
            return [i, *visit(first), *visit(second)]
        order = visit(0)
    number = {node: k for k, node in enumerate(order)}
    left = [number[kids[i][0]] if i in kids else -1 for i in order]
    right = [number[kids[i][1]] if i in kids else -1 for i in order]
    return make_tree(tree.feature[order], tree.threshold[order], left, right, tree.value[order], tree.cover[order])


class TestWideAndReorderedTrees:
    """Scores equal the per-tree ``predict_batch`` sum for trees of more than
    64 leaves and for node layouts other than the trainer's pre-order, both
    in memory and after ``model.json``."""

    @pytest.mark.parametrize("layout", ["pre-order", "breadth-first", "right-first"])
    @pytest.mark.parametrize("depth", [7, 8])
    def test_full_trees(self, tmp_path, depth, layout):
        rng = np.random.default_rng(depth * 10 + len(layout))
        per_target = [
            [relaid(tree, layout) for tree in (full_tree(rng, depth), random_cover_tree(rng, len(FEATURE_NAMES), 5),
                                               full_tree(rng, 2), make_tree([-1], [0.0], [-1], [-1], [0.75], [3.0]))]
            for _ in TARGET_NAMES
        ]
        model = _model_of(per_target, base=-1.5, lr=0.3)
        assert max(int((tree.feature == -1).sum()) for tree in model.targets["total"].trees) == 2**depth
        thresholds = np.concatenate([tree.threshold for trees in per_target for tree in trees])
        X = rng.normal(size=(700, len(FEATURE_NAMES)))
        hits = rng.random(X.shape) < 0.4
        X[hits] = rng.choice(thresholds, size=int(hits.sum()))
        # NaN goes right at every split, as ``x <= threshold`` is false; -0.0
        # equals a 0.0 threshold and goes left.
        special = rng.random(X.shape) < 0.15
        X[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], size=int(special.sum()))
        _assert_scores_match_per_tree_sum(model, X)
        save_model(model, tmp_path / "model.json")
        _assert_scores_match_per_tree_sum(load_model(tmp_path / "model.json"), X)

    def test_node_under_two_splits_is_rejected(self, tmp_path):
        # Both children of the root are node 1: the covers add up, yet no
        # numbering of leaves can give that leaf one place.
        shared = make_tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [1, -1, -1], [0.0, 1.0, 2.0], [8.0, 4.0, 4.0])
        save_model(_model_of([[shared]] * len(TARGET_NAMES)), tmp_path / "model.json")
        with pytest.raises(DataError, match="tree 0: no node may be the child of two splits"):
            load_model(tmp_path / "model.json")

    def test_scoring_keeps_no_reference_to_the_model(self, synthetic_model):
        _, ds = synthetic_model
        model = train(ds, GbtHyperparams(n_trees=3, max_depth=3))
        target = weakref.ref(model.targets["total"])
        raw_score_matrix(model, ds.X, "total")
        predict_matrix(model, ds.X)
        permutation_importance(model, "total", ds, repeats=2)
        del model
        gc.collect()
        assert target() is None


def near_full_tree(rng, depth: int, prune: float):
    """A tree of ``depth`` in pre-order: every node above the last split
    level splits, and each node of that level stays a leaf with probability
    ``prune``, so the tree has more than 2 ** (depth - 1) leaves unless all
    of them do. Thresholds include 0.0 and -0.0; covers add up."""
    fields = feature, threshold, left, right, value, cover = [], [], [], [], [], []

    def grow(level: int) -> int:
        idx = len(feature)
        for column, blank in zip(fields, (-1, 0.0, -1, -1, 0.0, 0.0)):
            column.append(blank)
        if level == depth or (level == depth - 1 and rng.random() < prune):
            value[idx], cover[idx] = float(rng.normal()), float(rng.integers(1, 5))
            return idx
        feature[idx] = int(rng.integers(len(FEATURE_NAMES)))
        threshold[idx] = float(rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5]) + (rng.random() < 0.5) * rng.normal())
        left[idx] = grow(level + 1)
        right[idx] = grow(level + 1)
        cover[idx] = cover[left[idx]] + cover[right[idx]]
        return idx

    grow(0)
    return make_tree(*fields)


@st.composite
def wide_ensembles(draw):
    """A model of one or two near-full trees of depth 7 to 9 per target, all
    in one drawn node layout, and rows to score."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth, prune = draw(st.integers(7, 9)), draw(st.sampled_from([0.0, 0.1, 0.3]))
    layout = draw(st.sampled_from(["pre-order", "breadth-first", "right-first"]))
    per_target = [[relaid(near_full_tree(rng, depth, prune), layout) for _ in range(draw(st.integers(1, 2)))]
                  for _ in TARGET_NAMES]
    model = _model_of(per_target, float(rng.normal()), draw(st.sampled_from([0.1, 0.3, 1.0])))
    thresholds = np.concatenate([tree.threshold for trees in per_target for tree in trees])
    X = rng.normal(size=(draw(st.sampled_from([1, 17, 60])), len(FEATURE_NAMES)))
    hits = rng.random(X.shape) < 0.4
    X[hits] = rng.choice(thresholds, size=int(hits.sum()))
    special = rng.random(X.shape) < 0.1
    X[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], size=int(special.sum()))
    return model, X


class TestWideTreesDrawn:
    """Drawn full and near-full trees of more than 64 leaves, in every node
    layout, score as the per-tree ``predict_batch`` sum."""

    @settings(max_examples=25, deadline=None)
    @given(ensemble=wide_ensembles())
    def test_scores_equal_the_per_tree_sum(self, ensemble):
        model, X = ensemble
        assert min(int((tree.feature == -1).sum()) for tm in model.targets.values() for tree in tm.trees) > 64
        _assert_scores_match_per_tree_sum(model, X)
