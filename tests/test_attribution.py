import numpy as np
import pytest

from odfuse.attribution import (
    global_importance,
    permutation_importance,
    shap_matrix,
    tree_shap_single,
)
from odfuse.core import RoadTag
from odfuse.errors import DataError
from odfuse.fusion import (
    FusionModel,
    GbtHyperparams,
    raw_score_matrix,
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
    brute_force_shap,
    make_tree,
    random_cover_tree,
    reference_permutation_importance,
    target_model,
    tree_expectation,
)


def dataset_from_arrays(X, y, split_index) -> FusionDataset:
    X = np.asarray(X, dtype=np.float64)
    Y = np.repeat(np.asarray(y, dtype=np.float64)[:, None], len(TARGET_NAMES), axis=1)
    return FusionDataset(
        X=X, Y=Y, node_keys=["n"] * len(X), hours=[None] * len(X), split_index=split_index
    )


def single_leaf_tree(value: float, cover: float = 10.0):
    return make_tree([-1], [0.0], [-1], [-1], [value], [cover])


def depth1_tree(feature, threshold, v_left, v_right, c_left, c_right):
    return make_tree(
        [feature, -1, -1],
        [threshold, 0.0, 0.0],
        [1, -1, -1],
        [2, -1, -1],
        [0.0, v_left, v_right],
        [c_left + c_right, c_left, c_right],
    )


class TestTreeShapSingle:
    def test_single_leaf_contributes_nothing(self):
        tree = single_leaf_tree(4.5)
        phi = tree_shap_single(tree, np.zeros(3), 3)
        assert np.all(phi == 0.0)
        assert tree.expected_value() == 4.5

    def test_depth1_attributes_everything_to_split_feature(self):
        tree = depth1_tree(feature=0, threshold=0.5, v_left=2.0, v_right=10.0, c_left=4, c_right=6)
        x = np.array([0.9, 0.0, 0.0])  # right branch
        phi = tree_shap_single(tree, x, 3)
        expected_base = (4 * 2.0 + 6 * 10.0) / 10.0
        assert phi[0] == pytest.approx(10.0 - expected_base, abs=1e-12)
        assert phi[1] == 0.0 and phi[2] == 0.0

    def test_matches_brute_force_on_random_trees(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            tree = random_cover_tree(rng, 5, 3)
            x = rng.random(5)
            fast = tree_shap_single(tree, x, 5)
            slow, base = brute_force_shap(tree, x, 5)
            assert np.abs(fast - slow).max() < 1e-9
            pred = tree_expectation(tree, x, frozenset(range(5)))
            assert abs(base + fast.sum() - pred) < 1e-9

    @pytest.mark.parametrize(
        "n_features, max_depth",
        [(5, 3), (5, 6), (2, 4)],  # (2, 4) splits on one feature repeatedly along a path
    )
    def test_shap_matrix_matches_brute_force_on_row_batches(self, n_features, max_depth):
        rng = np.random.default_rng(100 * n_features + max_depth)
        names = tuple(f"f{i}" for i in range(n_features))
        for _ in range(20):
            tree = random_cover_tree(rng, n_features, max_depth)
            model = FusionModel(hyperparams=GbtHyperparams(learning_rate=1.0), feature_names=names)
            model.targets["total"] = target_model(0.0, [tree])
            X = rng.random((8, n_features))
            phi, base = shap_matrix(model, "total", X)
            assert phi.shape == (8, n_features)
            for x, row in zip(X, phi):
                slow, slow_base = brute_force_shap(tree, x, n_features)
                assert np.abs(row - slow).max() < 1e-9
                assert abs(base - slow_base) < 1e-9

    def test_handles_repeated_features_on_path(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tree = random_cover_tree(rng, 2, 4)
            x = rng.random(2)
            fast = tree_shap_single(tree, x, 2)
            slow, _ = brute_force_shap(tree, x, 2)
            assert np.abs(fast - slow).max() < 1e-9

    def test_dummy_features_get_exact_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            tree = random_cover_tree(rng, 3, 3)  # splits only on features 0..2
            phi = tree_shap_single(tree, rng.random(5), 5)
            assert phi[3] == 0.0 and phi[4] == 0.0

    def test_symmetric_features_get_equal_credit(self):
        # f0 at the root, f1 in both children, equal covers and mirrored
        # leaf values make the two features interchangeable.
        tree = make_tree(
            [0, 1, 1, -1, -1, -1, -1],
            [0.5, 0.5, 0.5, 0, 0, 0, 0],
            [1, 3, 5, -1, -1, -1, -1],
            [2, 4, 6, -1, -1, -1, -1],
            [0, 0, 0, 0.0, 1.0, 1.0, 2.0],
            [8, 4, 4, 2, 2, 2, 2],
        )
        phi = tree_shap_single(tree, np.array([0.7, 0.7]), 2)
        assert phi[0] == pytest.approx(phi[1], abs=1e-12)

    def test_missing_cover_rejected(self):
        tree = single_leaf_tree(1.0, cover=0.0)
        with pytest.raises(DataError, match="cover"):
            tree_shap_single(tree, np.zeros(2), 2)


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(21)
    X = np.zeros((200, len(FEATURE_NAMES)))
    X[:, 0] = rng.random(200) * 1000
    X[:, 1] = rng.integers(0, 24, 200)
    X[:, 4] = 1.0
    y = 2.0 * X[:, 0] + 40 * np.sin(X[:, 1] / 4) + rng.normal(0, 5, 200)
    ds = dataset_from_arrays(X, y, split_index=160)
    return train(ds, GbtHyperparams(n_trees=25, max_depth=4)), ds


class TestEnsembleShap:
    def test_local_accuracy_against_raw_scores(self, small_model):
        model, ds = small_model
        phi, base = shap_matrix(model, "total", ds.X_valid)
        raw = raw_score_matrix(model, ds.X_valid, "total")
        assert np.abs(base + phi.sum(axis=1) - raw).max() < 1e-6

    def test_additivity_across_trees(self, small_model):
        model, ds = small_model
        x = ds.X_valid[0]
        lr = model.hyperparams.learning_rate
        manual = np.zeros(len(FEATURE_NAMES))
        for tree in model.targets["total"].trees:
            manual += lr * tree_shap_single(tree, x, len(FEATURE_NAMES))
        phi, _ = shap_matrix(model, "total", x[None, :])
        assert np.abs(phi[0] - manual).max() < 1e-9

    def test_non_finite_rows_rejected(self, small_model):
        model, ds = small_model
        X = ds.X_valid[:4].copy()
        X[2, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            shap_matrix(model, "total", X)

    def test_constant_model_all_zero(self):
        model = FusionModel(hyperparams=GbtHyperparams(), feature_names=FEATURE_NAMES)
        for name in TARGET_NAMES:
            model.targets[name] = target_model(5.0, [])
        phi, base = shap_matrix(model, "total", np.zeros((1, len(FEATURE_NAMES))))
        assert np.all(phi == 0.0)
        assert base == 5.0


class TestGlobalImportance:
    def test_single_signal_dominates(self):
        rng = np.random.default_rng(31)
        X = np.zeros((300, len(FEATURE_NAMES)))
        X[:, 0] = rng.random(300) * 1000
        X[:, 1] = rng.integers(0, 24, 300)
        X[:, 2] = rng.integers(0, 7, 300)
        X[:, 5] = 1.0
        y = 3.0 * X[:, 0] + (X[:, 0] > 500) * 200
        ds = dataset_from_arrays(X, y, split_index=240)
        model = train(ds, GbtHyperparams(n_trees=20, max_depth=4))
        imp = global_importance(model.feature_names, shap_matrix(model, "total", ds.X_valid)[0])
        named = dict(zip(imp.feature_names, imp.mean_abs))
        assert imp.ranking[0] == "people_flow"
        others = [v for k, v in named.items() if k != "people_flow"]
        assert named["people_flow"] > 10 * max(others)

    def test_diurnal_structure_gives_hour_importance(self):
        net = trondheim_fixture()
        profile = BiasProfile(
            gains={RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7},
            noise_scale=0.1,
            censor_threshold=120,
            seed=5,
        )
        tb, rt = generate_synthetic(net, 6, profile)
        ds = build_dataset(tb, rt, 0.2)
        model = train(ds, GbtHyperparams(n_trees=30, max_depth=4))
        imp = global_importance(model.feature_names, shap_matrix(model, "total", ds.X_valid[:80])[0])
        named = dict(zip(imp.feature_names, imp.mean_abs))
        assert named["hour_of_day"] > 0
        assert imp.tag_aggregate >= named["tag_primary"]

    def test_constant_model_zero_importance(self):
        model = FusionModel(hyperparams=GbtHyperparams(), feature_names=FEATURE_NAMES)
        for name in TARGET_NAMES:
            model.targets[name] = target_model(1.0, [])
        phi, _ = shap_matrix(model, "total", np.zeros((5, len(FEATURE_NAMES))))
        imp = global_importance(model.feature_names, phi)
        assert np.all(imp.mean_abs == 0.0)

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match="at least one row"):
            global_importance(FEATURE_NAMES, np.zeros((0, len(FEATURE_NAMES))))


@pytest.fixture(scope="module")
def signal_model():
    rng = np.random.default_rng(41)
    X = np.zeros((300, len(FEATURE_NAMES)))
    X[:, 0] = rng.random(300) * 1000
    X[:, 1] = rng.integers(0, 24, 300)
    X[:, 6] = 1.0
    y = 2.0 * X[:, 0]
    ds = dataset_from_arrays(X, y, split_index=200)
    model = train(ds, GbtHyperparams(n_trees=20, max_depth=4, min_samples_leaf=2))
    return model, ds


class TestPermutationImportance:
    def test_unused_feature_drop_is_exactly_zero(self, signal_model):
        model, ds = signal_model
        drops = permutation_importance(model, "total", ds, repeats=3, seed=0)
        # day_of_week never appears in any split: shuffling it cannot move
        # predictions at all.
        used = set()
        for tree in model.targets["total"].trees:
            used.update(f for f in tree.feature.tolist() if f >= 0)
        assert FEATURE_NAMES.index("day_of_week") not in used
        assert drops["day_of_week"] == 0.0

    def test_signal_feature_carries_all_importance(self, signal_model):
        # Shuffling the only signal column drives the shuffled R^2 to about
        # -r2, so the drop lands near 2*r2; every other column stays at ~0.
        model, ds = signal_model
        drops = permutation_importance(model, "total", ds, repeats=5, seed=1)
        y = ds.Y_valid[:, 0]
        pred = np.maximum(raw_score_matrix(model, ds.X_valid, "total"), 0)
        r2 = 1 - np.sum((pred - y) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 < drops["people_flow"] < 2.2 * r2
        assert abs(drops["hour_of_day"]) < 0.05

    @pytest.mark.parametrize("fixture", ["small_model", "signal_model"])
    def test_equals_full_rescoring_exactly(self, request, fixture):
        model, ds = request.getfixturevalue(fixture)
        got = permutation_importance(model, "total", ds, repeats=3, seed=4)
        assert got == reference_permutation_importance(model, "total", ds, repeats=3, seed=4)

    def test_determinism_given_seed(self, signal_model):
        model, ds = signal_model
        a = permutation_importance(model, "total", ds, repeats=2, seed=9)
        b = permutation_importance(model, "total", ds, repeats=2, seed=9)
        assert a == b

    def test_more_repeats_reduce_variance(self, signal_model):
        model, ds = signal_model
        single, many = [], []
        for seed in range(20):
            single.append(permutation_importance(model, "total", ds, repeats=1, seed=seed)["people_flow"])
            many.append(permutation_importance(model, "total", ds, repeats=10, seed=seed)["people_flow"])
        assert np.var(many) < np.var(single)
