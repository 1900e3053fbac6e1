import csv
import json
import math
import shutil

import numpy as np
import pytest

from odfuse.attribution import permutation_importance
from odfuse.cli import DEFAULT_CONFIG, load_config, main
from odfuse.fusion import GbtHyperparams, train
from odfuse.ingest import FEATURE_NAMES, build_dataset, read_routing_csv, read_tollbooth_csv
from odfuse.network import trondheim_fixture

from _helpers import WORKED_EXAMPLE_HOUR, write_worked_example_fixture


def write_config(path, **overrides):
    config = {
        "seed": 7,
        "out_dir": str(path.parent / "out"),
        "valid_fraction": 0.2,
        "synthetic": {
            "days": 2,
            "gains": {"Primary": 1.4, "Trunk": 1.0, "Secondary": 0.7},
            "noise_scale": 0.1,
            "censor_threshold": 120,
        },
        "hyperparams": {"n_trees": 4, "max_depth": 3},
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth"]) == 0
        first = (tmp_path / "out" / "tollbooth.csv").read_bytes()
        first_rt = (tmp_path / "out" / "routing.csv").read_bytes()
        assert main(["--config", str(cfg), "synth"]) == 0
        assert (tmp_path / "out" / "tollbooth.csv").read_bytes() == first
        assert (tmp_path / "out" / "routing.csv").read_bytes() == first_rt

    def test_zero_days_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth", "--days", "0"]) == 1

    def test_writes_difference_table(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        main(["--config", str(cfg), "synth"])
        rows = read_csv(tmp_path / "out" / "difference.csv")
        assert rows[0] == ["node", "hour_of_day", "mean_diff"]
        assert len(rows) > 1


class TestPipeline:
    def test_full_sequence_metrics_shape(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth"]) == 0
        assert main(["--config", str(cfg), "train"]) == 0
        assert main(["--config", str(cfg), "eval"]) == 0
        rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert rows[0] == ["target", "rmse_train", "r2_train", "rmse_valid", "r2_valid"]
        assert len(rows) == 1 + 8  # header + baseline + total + six categories
        assert rows[1][0] == "people_flow_baseline"
        assert rows[2][0] == "total"

    def test_eval_before_train_fails_with_data_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        main(["--config", str(cfg), "synth"])
        assert main(["--config", str(cfg), "eval"]) == 2

    def test_train_without_data_names_missing_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "train"]) == 2
        assert "tollbooth" in capsys.readouterr().err

    def test_eval_idempotent(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        for cmd in ("synth", "train", "eval"):
            main(["--config", str(cfg), cmd])
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        main(["--config", str(cfg), "eval"])
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first

    def test_explain_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", explain={"target": "total", "max_rows": 16, "repeats": 2})
        for cmd in ("synth", "train", "explain"):
            assert main(["--config", str(cfg), cmd]) == 0
        imp = read_csv(tmp_path / "out" / "importance.csv")
        assert imp[0] == ["feature", "mean_abs_shap", "rank"]
        assert imp[-1][0] == "tagValue"
        att = read_csv(tmp_path / "out" / "attributions.csv")
        assert att[0][0] == "base_value"
        assert len(att) <= 1 + 16
        perm = read_csv(tmp_path / "out" / "permutation.csv")
        assert perm[0] == ["feature", "r2_drop"]

    def test_config_hash_logged(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "run.json")
        with caplog.at_level("INFO", logger="odfuse"):
            main(["--config", str(cfg), "synth"])
        assert any("config hash" in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def explained_run(tmp_path_factory):
    """One synth -> train -> explain run; returns (config path, out dir)."""
    base = tmp_path_factory.mktemp("explained")
    cfg = write_config(
        base / "run.json",
        synthetic={"days": 4},
        hyperparams={"n_trees": 10, "max_depth": 4},
        explain={"target": "total", "max_rows": 32, "repeats": 2},
    )
    for cmd in ("synth", "train", "explain"):
        assert main(["--config", str(cfg), cmd]) == 0
    return cfg, base / "out"


class TestExplainArtifacts:
    def test_permutation_uses_the_target_column_after_reload(self, explained_run):
        cfg, out = explained_run
        drops = {name: float(v) for name, v in read_csv(out / "permutation.csv")[1:]}
        top = max(drops, key=drops.get)
        assert top == "people_flow" and drops[top] > 0
        # The same importances from a model that never went through disk.
        net = trondheim_fixture()
        ds = build_dataset(
            read_tollbooth_csv(out / "tollbooth.csv", net), read_routing_csv(out / "routing.csv", net), 0.2
        )
        model = train(ds, GbtHyperparams(n_trees=10, max_depth=4, seed=7))
        expected = permutation_importance(model, "total", ds, repeats=2, seed=7)
        assert drops == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_importance_is_mean_abs_of_attributions(self, explained_run):
        _, out = explained_run
        att = read_csv(out / "attributions.csv")
        assert att[0] == ["base_value", *FEATURE_NAMES] and len(att) == 1 + 32
        phi = np.array([[float(v) for v in row[1:]] for row in att[1:]])
        imp = {row[0]: float(row[1]) for row in read_csv(out / "importance.csv")[1:]}
        for j, name in enumerate(FEATURE_NAMES):
            assert imp[name] == pytest.approx(np.abs(phi[:, j]).mean(), rel=1e-12, abs=1e-15)
        tags = math.fsum(v for name, v in imp.items() if name.startswith("tag_"))
        assert imp["tagValue"] == pytest.approx(tags, rel=1e-12, abs=1e-15)


# Each corruption of the first "total" tree and the message that rejects it.
CORRUPT_TREES = {
    "self-referencing-child": "higher indices",
    "leaf-with-feature": "leaves must have feature -1",
    "feature-out-of-range": "split features",
    "cover-not-sum-of-children": "covers",
    "non-positive-cover": "covers",
    "non-finite-value": "finite",
}


def corrupt_tree(tree: dict, case: str) -> None:
    leaf = tree["feature"].index(-1)
    if case == "self-referencing-child":
        tree["left"][0] = 0
    elif case == "leaf-with-feature":
        tree["feature"][leaf] = 0
    elif case == "feature-out-of-range":
        tree["feature"][0] = len(FEATURE_NAMES)
    elif case == "cover-not-sum-of-children":
        tree["cover"][0] += 1
    elif case == "non-positive-cover":
        tree["cover"] = [0.0] * len(tree["cover"])
    elif case == "non-finite-value":
        tree["value"][leaf] = math.nan


class TestModelValidation:
    @pytest.mark.parametrize("case", sorted(CORRUPT_TREES))
    def test_malformed_tree_is_data_error(self, explained_run, tmp_path, capsys, case):
        _, out = explained_run
        bad = tmp_path / "out"
        bad.mkdir()
        for name in ("tollbooth.csv", "routing.csv"):
            shutil.copy(out / name, bad / name)
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        tree = doc["targets"]["total"]["trees"][0]
        assert tree["feature"][0] != -1
        corrupt_tree(tree, case)
        (bad / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", out_dir=str(bad))
        assert main(["--config", str(cfg), "eval"]) == 2
        assert CORRUPT_TREES[case] in capsys.readouterr().err

    def test_foreign_feature_layout_is_data_error(self, explained_run, tmp_path):
        _, out = explained_run
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        doc["feature_names"] = doc["feature_names"][::-1]
        (tmp_path / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        for name in ("tollbooth.csv", "routing.csv"):
            shutil.copy(out / name, tmp_path / name)
        cfg = write_config(tmp_path / "run.json", out_dir=str(tmp_path))
        assert main(["--config", str(cfg), "eval"]) == 2


class TestStabilityCommand:
    def test_compares_two_periods(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", out_dir=str(tmp_path / "out_a"), seed=1)
        cfg_b = write_config(tmp_path / "b.json", out_dir=str(tmp_path / "out_b"), seed=2)
        main(["--config", str(cfg_a), "synth"])
        main(["--config", str(cfg_b), "synth"])
        cfg = write_config(tmp_path / "run.json")
        code = main(
            [
                "--config",
                str(cfg),
                "stability",
                "--routing-a",
                str(tmp_path / "out_a" / "routing.csv"),
                "--routing-b",
                str(tmp_path / "out_b" / "routing.csv"),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "out" / "stability.csv")
        assert rows[0] == ["profile_kind", "pearson", "sym_kl_nats", "nmse"]
        assert [r[0] for r in rows[1:]] == ["diurnal", "weekly"]
        for row in rows[1:]:
            for field in row[1:]:
                assert field == "NA" or math.isfinite(float(field)), field

    def test_missing_inputs_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "stability"]) == 1


class TestRoute:
    def test_worked_example_exact_entries(self, tmp_path):
        config = write_worked_example_fixture(tmp_path / "fixture")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        assert main(["--config", str(cfg_path), "route"]) == 0
        rows = read_csv(tmp_path / "fixture" / "out" / "od_matrix.csv")
        body = {tuple(r) for r in rows[1:]}
        h = WORKED_EXAMPLE_HOUR
        expected = {
            (h, "E6-Klett", "Storlersbakken-Trondheim", "All", "400", "PassthroughBypass"),
            (h, "E6-Klett", "Brøttemsvegen", "PassengerVehicle", "22", "PassthroughNet"),
            (h, "E6-Klett", "Brøttemsvegen", "LightCommercial", "5", "PassthroughNet"),
            (h, "E6-Klett", "Brøttemsvegen", "BusMediumTruck", "3", "PassthroughNet"),
            (h, "E6-Klett", "Heimsdalvegen", "PassengerVehicle", "20", "PassthroughNet"),
            (h, "E6-Klett", "Industripark", "PassengerVehicle", "50", "PassthroughNet"),
        }
        assert expected <= body
        total = sum(int(r[4]) for r in rows[1:])
        assert total == 500
        ledger = read_csv(tmp_path / "fixture" / "out" / "ledger.csv")
        assert ledger[0] == ["timestamp", "entry_type", "scenario", "direction", "key", "amount", "flag"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                [("2025-01-30T18:00", name, flow) for name, flow in
                 (("Brøttemsvegen", 100), ("Heimsdalvegen", 200), ("Industripark", 300))],
                "no destination routing rows for hour 2025-01-30T17:00",
            ),
            (
                [(WORKED_EXAMPLE_HOUR, name, flow) for name, flow in
                 (("Brøttemsvegen", 100), ("Heimsdalvegen", 200), ("Brøttemsvegen", 300))],
                "duplicate destination rows for hour 2025-01-30T17:00",
            ),
            (
                [(WORKED_EXAMPLE_HOUR, name, flow) for name, flow in
                 (("Brøttemsvegen", 100), ("Industripark", 300))],
                "eligible destinations ['Heimsdalvegen'] absent from the joint distribution "
                "at 2025-01-30T17:00",
            ),
        ],
        ids=["no-destination-rows", "duplicate-destination", "eligible-destination-missing"],
    )
    def test_bad_simulation_hour_exit_2(self, tmp_path, capsys, rows, message):
        config = write_worked_example_fixture(tmp_path / "fixture")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        with open(config["simulation"]["routing_csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "node", "people_flow", "road_tag"])
            writer.writerows([*row, "Secondary"] for row in rows)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "route"]) == 2
        assert f"odfuse: data error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["start", "end"])
    @pytest.mark.parametrize("value", ["garbage", "2025-01-30T17:30", 17])
    def test_bad_simulation_window_exit_1(self, tmp_path, capsys, key, value):
        config = write_worked_example_fixture(tmp_path / "fixture")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        config["simulation"][key] = value
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "route"]) == 1
        assert f"odfuse: error: simulation.{key}: bad value {value!r}" in capsys.readouterr().err

    def test_route_before_train_fails(self, tmp_path):
        config = write_worked_example_fixture(tmp_path / "fixture")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "route"]) == 2


class TestConfigHandling:
    def test_invalid_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(bad), "synth"]) == 1

    def test_unknown_key_exit_1(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["--config", str(cfg), "synth"]) == 1

    def test_both_data_and_synthetic_exit_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            data={"tollbooth_csv": "x.csv", "routing_csv": "y.csv"},
        )
        assert main(["--config", str(cfg), "synth"]) == 1

    def test_bad_data_file_exit_2(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tollbooth.csv").write_text(
            "timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total\n"
            "2023-11-06T08:00,A,Undirected,1,0,0,0,0,0,1\n",
            encoding="utf-8",
        )
        (out / "routing.csv").write_text(
            "timestamp,node,people_flow,road_tag\n2023-11-06T08:00,A,10,Motorway\n",
            encoding="utf-8",
        )
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "train"]) == 2

    def test_unknown_flag_exit_1(self, tmp_path):
        assert main(["--nonsense"]) == 1

    def test_flag_overrides_do_not_leak_into_defaults(self):
        load_config(None, 5, "elsewhere")
        config = load_config(None, None, None)
        assert (config["seed"], config["out_dir"]) == (42, "out")
        assert (DEFAULT_CONFIG["seed"], DEFAULT_CONFIG["out_dir"]) == (42, "out")

    @pytest.mark.parametrize(
        "explain",
        [{"max_rows": 0}, {"max_rows": "16"}, {"repeats": 0}, {"repeats": 1.5}, {"repeats": True}],
        ids=["max_rows-zero", "max_rows-string", "repeats-zero", "repeats-float", "repeats-bool"],
    )
    def test_bad_explain_option_exit_1(self, tmp_path, capsys, explain):
        cfg = write_config(tmp_path / "run.json", explain=explain)
        assert main(["--config", str(cfg), "explain"]) == 1
        assert "explain." in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("synth", {"synthetic": {"days": "x"}}, "synthetic.days"),
            ("synth", {"seed": "abc"}, "seed"),
            ("train", {"valid_fraction": "abc"}, "valid_fraction"),
            ("synth", {"synthetic": {"days": 2, "noise_scale": "a"}}, "synthetic.noise_scale"),
            ("synth", {"synthetic": {"days": 2, "gains": [1, 2]}}, "synthetic.gains"),
        ],
        ids=["days", "seed", "valid_fraction", "noise_scale", "gains"],
    )
    def test_bad_config_value_exit_1(self, tmp_path, capsys, command, overrides, key):
        if command == "train":
            assert main(["--config", str(write_config(tmp_path / "good.json")), "synth"]) == 0
        cfg = write_config(tmp_path / "run.json", **overrides)
        assert main(["--config", str(cfg), command]) == 1
        assert f"error: {key}: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["tollbooth.csv", "routing.csv"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth"]) == 0
        path = tmp_path / "out" / name
        path.write_bytes(path.read_bytes() + b"2023-11-08T00:00,\xff\n")
        assert main(["--config", str(cfg), "train"]) == 2
        assert f"{name}: not UTF-8" in capsys.readouterr().err


def bundled_network_doc() -> dict:
    from importlib import resources

    return json.loads(resources.files("odfuse.data").joinpath("trondheim_network.json").read_text(encoding="utf-8"))


class TestNetworkValidation:
    """Routed volume is split over a scenario's destinations, so none of these
    configs may reach routing (they ended in ZeroDivisionError)."""

    def route_exit_code(self, tmp_path, doc) -> int:
        (tmp_path / "network.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", network=str(tmp_path / "network.json"))
        return main(["--config", str(cfg), "route"])

    def test_empty_group_used_by_a_subset_exit_1(self, tmp_path, capsys):
        doc = bundled_network_doc()
        doc["destination_groups"]["g"] = []
        doc["scenario_subsets"]["PassthroughNet"] = ["g"]
        assert self.route_exit_code(tmp_path, doc) == 1
        assert "empty destination group 'g'" in capsys.readouterr().err

    def test_empty_scenario_subset_exit_1(self, tmp_path, capsys):
        doc = bundled_network_doc()
        doc["scenario_subsets"]["PassthroughNet"] = []
        assert self.route_exit_code(tmp_path, doc) == 1
        assert "scenario 'PassthroughNet' names no destination group" in capsys.readouterr().err

    def test_boundary_direction_without_groups_exit_1(self, tmp_path, capsys):
        doc = bundled_network_doc()
        doc["boundary"]["negative"]["groups"] = []
        assert self.route_exit_code(tmp_path, doc) == 1
        assert "boundary direction 'westbound' names no destination group" in capsys.readouterr().err


def test_cli_path_builds_no_per_row_objects(tmp_path, monkeypatch):
    """synth, train and route work on column tables: no observation or
    feature object is constructed."""
    from odfuse.core import RoutingReportObservation, TollboothObservation
    from odfuse.ingest import FeatureVector

    built = []
    for cls in (TollboothObservation, RoutingReportObservation, FeatureVector):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    cfg = write_config(tmp_path / "run.json")
    for command in ("synth", "train", "route"):
        assert main(["--config", str(cfg), command]) == 0
    assert built == []
