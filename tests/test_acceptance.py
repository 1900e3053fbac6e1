"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or on failure)
after its assertions hold. Synthetic thresholds are fixed here, not
calibrated at runtime; seeds are pinned so every run is reproducible.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from odfuse.cli import main
from odfuse.core import CATEGORY_ORDER, RoadTag, make_hour_key
from odfuse.fusion import GbtHyperparams, evaluate, raw_score_matrix, residual_table, train
from odfuse.attribution import shap_matrix, tree_shap_single
from odfuse.ingest import BiasProfile, build_dataset, generate_synthetic
from odfuse.network import trondheim_fixture
from odfuse.routing import (
    JointDistribution,
    Scenario,
    build_od_matrix,
    conservation_violations,
    decide_flows,
    distribute,
    largest_remainder,
)
from odfuse.stability import DIURNAL, TemporalProfile, compare_periods, nmse, pearson, sym_kl

from _helpers import (
    brute_force_shap,
    exhaustive_best_split,
    expected_hour_total,
    pair_only_network,
    random_cover_tree,
    tree_expectation,
)
from test_fusion import dataset_from_arrays, random_features

BIASED = {RoadTag.PRIMARY: 1.4, RoadTag.TRUNK: 1.0, RoadTag.SECONDARY: 0.7}


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def uplift_runs():
    """Criterion 2/3 shared runs: 30-day biased synthetic, default model."""
    net = trondheim_fixture()
    results = []
    for seed in (1, 2, 3, 4, 5):
        start = time.perf_counter()
        profile = BiasProfile(gains=BIASED, noise_scale=0.1, censor_threshold=120, seed=seed)
        tb, rt = generate_synthetic(net, 30, profile)
        ds = build_dataset(tb, rt, 0.2)
        model = train(ds, GbtHyperparams(seed=seed))
        rep = evaluate(model, ds)
        rows = residual_table(ds, rep.pred_valid)
        top = rows[int(0.9 * len(rows)) :]
        ratio = float(
            np.mean([abs(rm) for _, rm, _ in top]) / np.mean([abs(rb) for _, _, rb in top])
        )
        elapsed = time.perf_counter() - start
        results.append(
            {
                "seed": seed,
                "seconds": elapsed,
                "base_r2": rep.row("people_flow_baseline").r2_valid,
                "model_r2": rep.row("total").r2_valid,
                "top_decile_ratio": ratio,
            }
        )
    return results


class TestCriterion1WorkedExampleParity:
    def test_500_400_fixture_exact(self):
        start = time.perf_counter()
        net = pair_only_network()
        hour = make_hour_key("2025-01-30T17:00")
        c1, c2, c3 = CATEGORY_ORDER[0], CATEGORY_ORDER[1], CATEGORY_ORDER[2]
        joint = JointDistribution(
            hour=hour,
            mass={
                ("Brøttemsvegen", c1): 0.22,
                ("Brøttemsvegen", c2): 0.05,
                ("Brøttemsvegen", c3): 0.03,
                ("Heimsdalvegen", c1): 0.20,
                ("Industripark", c1): 0.50,
            },
        )
        counts = {"E6-Klett": 500, "Storlersbakken-Trondheim": 400}
        decisions, _ = decide_flows(net, counts, hour)
        entries = [e for d in decisions for e in distribute(d, joint)]

        net_d = next(d for d in decisions if d.scenario is Scenario.PASSTHROUGH_NET)
        bypass = next(d for d in decisions if d.scenario is Scenario.PASSTHROUGH_BYPASS)
        assert net_d.volume == 100
        assert bypass.volume == 400

        by_key = {}
        for e in entries:
            key = (e.destination, e.vehicle_type.value)
            by_key[key] = by_key.get(key, 0) + e.count
        assert by_key[("Brøttemsvegen", "PassengerVehicle")] == 22
        assert by_key[("Brøttemsvegen", "LightCommercial")] == 5
        assert by_key[("Brøttemsvegen", "BusMediumTruck")] == 3
        assert by_key[("Heimsdalvegen", "PassengerVehicle")] == 20
        assert by_key[("Industripark", "PassengerVehicle")] == 50
        assert by_key[("Storlersbakken-Trondheim", "All")] == 400
        bro_total = sum(v for (d, _), v in by_key.items() if d == "Brøttemsvegen")
        heims_total = sum(v for (d, _), v in by_key.items() if d == "Heimsdalvegen")
        assert (bro_total, heims_total) == (30, 20)
        assert sum(e.count for e in entries) == 500
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report("criterion 1 (worked-example parity)", f"exact 30/20, 22/5/3, bypass 400 in {elapsed:.3f}s")


class TestCriterion2FusionUplift:
    def test_model_beats_baseline_across_seeds(self, uplift_runs):
        for run in uplift_runs:
            assert run["model_r2"] >= 0.90, run
            assert run["base_r2"] <= 0.60, run
            assert run["seconds"] < 60.0, run
        detail = "; ".join(
            f"seed {r['seed']}: model {r['model_r2']:.4f} vs baseline {r['base_r2']:.4f} in {r['seconds']:.1f}s"
            for r in uplift_runs
        )
        report("criterion 2 (fusion uplift)", detail)


class TestCriterion3ResidualCorrection:
    def test_top_decile_residuals_shrink(self, uplift_runs):
        for run in uplift_runs:
            assert run["top_decile_ratio"] < 0.25, run
        detail = "; ".join(f"seed {r['seed']}: ratio {r['top_decile_ratio']:.3f}" for r in uplift_runs)
        report("criterion 3 (residual correction)", detail)


class TestCriterion4SplitOracle:
    def test_200_random_datasets(self):
        rng = np.random.default_rng(4040)
        checked = 0
        for case in range(200):
            n = int(rng.integers(4, 65))
            k = int(rng.integers(1, 5))
            lam = 0.0 if case % 2 == 0 else 1.0
            X = random_features(rng, n, k)
            y = rng.integers(-1000, 1000, size=n) / 16.0
            ds = dataset_from_arrays(X, y, split_index=n)
            hp = GbtHyperparams(n_trees=1, max_depth=1, min_samples_leaf=2, l2_leaf_regularization=lam)
            model = train(ds, hp)
            tree = model.targets["total"].trees[0]
            oracle = exhaustive_best_split(X, y - y.mean(), min_samples_leaf=2, lam=lam)
            if oracle is None:
                assert tree.feature[0] == -1
            else:
                assert (tree.feature[0], tree.threshold[0]) == (oracle[0], oracle[1])
            checked += 1
        report("criterion 4 (split-oracle equivalence)", f"{checked} datasets, zero mismatches")


class TestCriterion5ShapleyCorrectness:
    def test_100_random_trees_match_brute_force(self):
        rng = np.random.default_rng(5050)
        worst = 0.0
        for _ in range(100):
            tree = random_cover_tree(rng, 5, 3)
            x = rng.random(5)
            fast = tree_shap_single(tree, x, 5)
            slow, base = brute_force_shap(tree, x, 5)
            worst = max(worst, float(np.abs(fast - slow).max()))
            pred = tree_expectation(tree, x, frozenset(range(5)))
            worst = max(worst, abs(base + fast.sum() - pred))
        assert worst < 1e-9
        report("criterion 5a (shapley vs brute force)", f"100 trees, worst deviation {worst:.2e}")

    def test_local_accuracy_on_every_row_of_trained_model(self):
        net = trondheim_fixture()
        profile = BiasProfile(gains=BIASED, noise_scale=0.1, censor_threshold=120, seed=55)
        tb, rt = generate_synthetic(net, 5, profile)
        ds = build_dataset(tb, rt, 0.2)
        model = train(ds, GbtHyperparams(n_trees=40, max_depth=4, seed=55))
        worst = 0.0
        for target in ("total", CATEGORY_ORDER[0].key):
            phi, base = shap_matrix(model, target, ds.X)
            raw = raw_score_matrix(model, ds.X, target)
            worst = max(worst, float(np.abs(base + phi.sum(axis=1) - raw).max()))
        assert worst < 1e-6
        report(
            "criterion 5b (local accuracy)",
            f"every one of {ds.n_rows} rows x 2 targets, worst |base+sum(phi)-raw| {worst:.2e}",
        )


class TestCriterion6Apportionment:
    def test_worked_example_and_10000_randomized(self):
        assert largest_remainder(50, [0.6, 0.4]) == [30, 20]
        rng = np.random.default_rng(6060)
        for _ in range(10_000):
            total = int(rng.integers(0, 100_001))
            k = int(rng.integers(1, 51))
            raw = rng.random(k) + 1e-9
            weights = (raw / raw.sum()).tolist()
            result = largest_remainder(total, weights)
            assert sum(result) == total
            for r, w in zip(result, weights):
                q = total * w
                assert math.floor(q) <= r <= math.ceil(q)
        report("criterion 6 (apportionment)", "10000 cases: sum-exact, quota rule, worked-example 30/20 exact")


class TestCriterion7Conservation:
    def test_48_hour_end_to_end_ledger(self):
        net = trondheim_fixture()
        profile = BiasProfile(gains=BIASED, noise_scale=0.1, censor_threshold=120, seed=77)
        tb, rt = generate_synthetic(net, 2, profile)
        ds = build_dataset(tb, rt, 0.2)
        model = train(ds, GbtHyperparams(n_trees=20, max_depth=3, seed=77))
        run = build_od_matrix(net, model, tb, rt)

        violations = conservation_violations(run)
        assert violations == []

        counts_by_hour: dict = {}
        for obs in tb:
            counts_by_hour.setdefault(obs.hour.timestamp, {})[obs.join_key()] = int(obs.counts.total)
        assert len(counts_by_hour) == 48
        decided: dict = {}
        for d in run.decisions:
            decided[d.hour.timestamp] = decided.get(d.hour.timestamp, 0) + d.volume
        allocated: dict = {}
        for e in run.matrix.entries:
            allocated[e.hour.timestamp] = allocated.get(e.hour.timestamp, 0) + e.count
        for ts, counts in counts_by_hour.items():
            expected = expected_hour_total(net, counts)
            assert decided[ts] == expected
            assert allocated.get(ts, 0) == expected
        report(
            "criterion 7 (conservation)",
            f"48 hours, {len(run.matrix.entries)} entries, zero violations",
        )


class TestCriterion8StabilityMetrics:
    def test_exact_identities_and_closed_form(self):
        mass = np.arange(1.0, 25.0)
        p = TemporalProfile(kind=DIURNAL, mass=mass / mass.sum())
        assert pearson(p, p) == 1.0
        assert sym_kl(p, p) == 0.0
        assert nmse(p, p) == 0.0

        two_p = TemporalProfile(kind=DIURNAL, mass=np.array([0.51, 0.49] + [0.0] * 22))
        two_q = TemporalProfile(kind=DIURNAL, mass=np.array([0.50, 0.50] + [0.0] * 22))
        direct = (
            0.51 * math.log(0.51 / 0.50)
            + 0.49 * math.log(0.49 / 0.50)
            + 0.50 * math.log(0.50 / 0.51)
            + 0.50 * math.log(0.50 / 0.49)
        )
        got = sym_kl(two_p, two_q, epsilon=0.0)
        assert abs(got - direct) < 1e-12
        report(
            "criterion 8a (stability identities)",
            f"pearson/sym_kl/nmse exact on identical profiles; two-bin case {got:.4e} nats == direct summation",
        )

    def test_two_synthetic_years_stay_correlated(self):
        net = trondheim_fixture()
        rows = []
        for seed in (2019, 2023):
            profile = BiasProfile(
                gains={tag: 1.0 for tag in RoadTag}, noise_scale=0.01, censor_threshold=0, seed=seed
            )
            _, rt = generate_synthetic(net, 30, profile)
            rows.append(rt)
        result = {r.profile_kind: r for r in compare_periods(rows[0], rows[1])}
        assert result["diurnal"].pearson > 0.99
        assert result["weekly"].pearson > 0.99
        report(
            "criterion 8b (cross-year stability)",
            f"diurnal pearson {result['diurnal'].pearson:.5f}, weekly {result['weekly'].pearson:.5f}",
        )


def run_pipeline(tmp_path, tag: str) -> tuple[dict, float]:
    out = tmp_path / f"out_{tag}"
    cfg = {
        "seed": 99,
        "out_dir": str(out),
        "valid_fraction": 0.2,
        "synthetic": {
            "days": 30,
            "gains": {"Primary": 1.4, "Trunk": 1.0, "Secondary": 0.7},
            "noise_scale": 0.1,
            "censor_threshold": 120,
        },
        "explain": {"target": "total", "max_rows": 128, "repeats": 3},
    }
    cfg_path = tmp_path / f"run_{tag}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    start = time.perf_counter()
    for cmd in ("synth", "train", "eval", "explain", "route"):
        assert main(["--config", str(cfg_path), cmd]) == 0, cmd
    elapsed = time.perf_counter() - start
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    return digests, elapsed


class TestCriterion9Determinism:
    def test_pipeline_twice_byte_identical_under_3_minutes(self, tmp_path):
        first, t1 = run_pipeline(tmp_path, "a")
        second, t2 = run_pipeline(tmp_path, "b")
        assert set(first) == set(second)
        assert first == second
        assert t1 < 180.0 and t2 < 180.0
        report(
            "criterion 9 (determinism + runtime)",
            f"{len(first)} artifacts byte-identical; runs {t1:.1f}s / {t2:.1f}s (< 180s)",
        )
