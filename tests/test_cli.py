import copy
import csv
import dataclasses
import json
import math
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odfuse import cli
from odfuse.attribution import permutation_importance
from odfuse.cli import config_hash, load_config, main
from odfuse.errors import ConfigError
from odfuse.fusion import GbtHyperparams, train
from odfuse.ingest import FEATURE_NAMES, TOLLBOOTH_HEADER, build_dataset, read_routing_csv, read_tollbooth_csv
from odfuse.network import NetworkConfig, load_network, trondheim_fixture

from _helpers import (WORKED_EXAMPLE_HOUR, check_eval_files, check_routing_files, check_synth_files, destination,
                      station, write_worked_example_fixture)


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

    def test_days_past_the_last_datetime_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth", "--days", "2913231"]) == 1
        err = capsys.readouterr().err
        assert "odfuse: error: days must be at most 2913230" in err and "Traceback" not in err

    def test_huge_gain_exits_1_without_a_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", synthetic={"days": 1, "gains": {"Primary": 1e300}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg), "synth"]) == 1
        assert "node 'E6-Klett': the gain for Primary" in capsys.readouterr().err

    def test_writes_difference_table(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        main(["--config", str(cfg), "synth"])
        rows = read_csv(tmp_path / "out" / "difference.csv")
        assert rows[0] == ["node", "hour_of_day", "mean_diff"]
        assert len(rows) > 1
        check_synth_files(tmp_path / "out")


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
        check_eval_files(tmp_path / "out")

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
        ds = build_dataset(read_tollbooth_csv(out / "tollbooth.csv"), read_routing_csv(out / "routing.csv"), 0.2)
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
    "float-feature": "feature must hold int32 integers",
    "float-child": "left must hold int32 integers",
    "child-past-its-tree": "higher indices",
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
    elif case == "float-feature":
        tree["feature"][0] += 0.5
    elif case == "float-child":
        tree["left"][0] += 0.5
    elif case == "child-past-its-tree":  # the next tree's root in the target's table
        tree["left"][0] = len(tree["left"])


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

    def test_non_integer_hyperparameter_is_data_error(self, explained_run, tmp_path, capsys):
        _, out = explained_run
        for name in ("tollbooth.csv", "routing.csv"):
            shutil.copy(out / name, tmp_path / name)
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        doc["hyperparams"]["max_depth"] = 2.5
        (tmp_path / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", out_dir=str(tmp_path))
        assert main(["--config", str(cfg), "eval"]) == 2
        assert "max_depth must be an integer >= 1" in capsys.readouterr().err


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

    def test_repeated_routing_row_is_data_error(self, explained_run, tmp_path, capsys):
        _, out = explained_run
        routing = tmp_path / "routing.csv"
        lines = (out / "routing.csv").read_bytes().split(b"\r\n")
        routing.write_bytes(b"\r\n".join([*lines[:3], lines[1], *lines[3:]]))
        node, hour = lines[1].decode().split(",")[1], lines[1].decode().split(",")[0]
        cfg = write_config(tmp_path / "run.json")
        capsys.readouterr()
        # The message names the faulty file of the two.
        assert main(["--config", str(cfg), "stability", "--routing-a", str(out / "routing.csv"),
                     "--routing-b", str(routing)]) == 2
        assert capsys.readouterr().err == \
            f"odfuse: data error: {routing}: duplicate routing row for node {node!r} at {hour}\n"


class TestMalformedRunInputs:
    @pytest.mark.parametrize("command", ["train", "eval", "explain"])
    def test_repeated_tollbooth_row_is_data_error(self, explained_run, tmp_path, capsys, command):
        cfg, out = explained_run
        for name in ("routing.csv", "model.json"):
            shutil.copy(out / name, tmp_path / name)
        lines = (out / "tollbooth.csv").read_bytes().split(b"\r\n")
        (tmp_path / "tollbooth.csv").write_bytes(b"\r\n".join([*lines[:-1], lines[5], b""]))
        hour, name, direction = lines[5].decode().split(",")[:3]
        key = name if direction == "Undirected" else f"{name}|{direction}"
        doc = {**json.loads(cfg.read_text(encoding="utf-8")), "out_dir": str(tmp_path)}
        (tmp_path / "run.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(tmp_path / "run.json"), command]) == 2
        assert capsys.readouterr().err == \
            f"odfuse: data error: {tmp_path / 'tollbooth.csv'}: duplicate tollbooth series {key!r} at {hour}\n"

    @pytest.mark.parametrize("form", ["canonical", "quoted"])
    @pytest.mark.parametrize("command", ["train", "eval", "explain", "route"])
    def test_series_spelt_two_ways_is_data_error(self, explained_run, tmp_path, capsys, command, form):
        # The first day's ØstreRosten,Inbound rows spelt as their count key,
        # undirected: at hours of their own, so no (series, hour) repeats. A
        # canonical file takes the byte scan, which declines; a quoted name
        # sends the file to the per-row reader directly.
        cfg, out = explained_run
        for name in ("routing.csv", "model.json"):
            shutil.copy(out / name, tmp_path / name)
        lines = (out / "tollbooth.csv").read_bytes().decode("utf-8").split("\r\n")
        respelt = [line.replace(",ØstreRosten,Inbound,", ",ØstreRosten|Inbound,Undirected,")
                   if line.startswith("2023-11-06T") else line for line in lines]
        assert sum(a != b for a, b in zip(lines, respelt)) == 24
        text = "\r\n".join(respelt)
        if form == "quoted":
            text = text.replace(",E6-Klett,", ',"E6-Klett",', 1)
        (tmp_path / "tollbooth.csv").write_text(text, encoding="utf-8", newline="")
        doc = {**json.loads(cfg.read_text(encoding="utf-8")), "out_dir": str(tmp_path)}
        (tmp_path / "run.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(tmp_path / "run.json"), command]) == 2
        assert capsys.readouterr().err == (
            f"odfuse: data error: {tmp_path / 'tollbooth.csv'}: tollbooth series ('ØstreRosten|Inbound', Undirected) "
            "and ('ØstreRosten', Inbound) share count key 'ØstreRosten|Inbound'\n")

    def test_zero_variance_validation_target_leaves_earlier_artifacts(self, tmp_path, capsys):
        # Ten hours of one station A, whose two validation hours both total 50.
        totals, flows = [12, 30, 7, 45, 22, 18, 60, 33, 50, 50], [10, 28, 9, 40, 25, 15, 55, 30, 48, 52]
        (tmp_path / "tollbooth.csv").write_text("".join(
            [",".join(TOLLBOOTH_HEADER) + "\n"] +
            [f"2023-11-06T{h:02d}:00,A,Undirected,{t},0,0,0,0,0,{t}\n" for h, t in enumerate(totals)]), encoding="utf-8")
        (tmp_path / "routing.csv").write_text("".join(
            ["timestamp,node,people_flow,road_tag\n"] +
            [f"2023-11-06T{h:02d}:00,A,{f},Primary\n" for h, f in enumerate(flows)]), encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.json", synthetic=None, out_dir=str(out),
                           data={"tollbooth_csv": str(tmp_path / "tollbooth.csv"),
                                 "routing_csv": str(tmp_path / "routing.csv")},
                           hyperparams={"n_trees": 2, "max_depth": 2, "min_samples_leaf": 1},
                           explain={"target": "total", "max_rows": 16, "repeats": 1})
        assert main(["--config", str(cfg), "train"]) == 0
        for name in ("importance.csv", "attributions.csv", "permutation.csv"):
            (out / name).write_bytes(f"{name} of an earlier run\r\n".encode())
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(["--config", str(cfg), "explain"]) == 2
        assert capsys.readouterr().err == "odfuse: data error: validation target has zero variance\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(("command", "statistic"), [("eval", "RMSE"), ("explain", "R^2")])
    def test_scores_that_overflow_the_statistics_are_data_error(self, tmp_path, capsys, command, statistic):
        cfg = write_config(tmp_path / "run.json", synthetic={"days": 3}, hyperparams={"n_trees": 3, "max_depth": 2},
                           explain={"target": "total", "max_rows": 16, "repeats": 1})
        for step in ("synth", "train"):
            assert main(["--config", str(cfg), step]) == 0
        path = tmp_path / "out" / "model.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        tree = doc["targets"]["total"]["trees"][0]
        tree["value"] = [1e300 if f == -1 else v for f, v in zip(tree["feature"], tree["value"])]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg), command]) == 2
        assert f"{statistic} is not finite" in capsys.readouterr().err


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
        check_routing_files(tmp_path / "fixture" / "out", load_network(config["network"]),
                            config["simulation"]["tollbooth_csv"])

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
                "{routing}: duplicate routing row for node 'Brøttemsvegen' at 2025-01-30T17:00",
            ),
            (
                [(WORKED_EXAMPLE_HOUR, name, flow) for name, flow in
                 (("Brøttemsvegen", 100), ("Industripark", 300))],
                "eligible destinations ['Heimsdalvegen'] absent from the joint distribution "
                "at 2025-01-30T17:00",
            ),
            (
                [(WORKED_EXAMPLE_HOUR, name, flow) for name, flow in
                 (("E6-Klett", 7), ("Brøttemsvegen", 100), ("Heimsdalvegen", 200), ("Industripark", 300),
                  ("E6-Klett", 7))],
                "{routing}: duplicate routing row for node 'E6-Klett' at 2025-01-30T17:00",
            ),
            (
                [(WORKED_EXAMPLE_HOUR, name, flow) for name, flow in
                 (("Brøttemsvegen", 100), ("Heimsdalvegen", 200), ("Industripark", 300))]
                + [("2025-01-30T18:00", "Industripark", 5)] * 2,
                "{routing}: duplicate routing row for node 'Industripark' at 2025-01-30T18:00",
            ),
        ],
        ids=["no-destination-rows", "duplicate-destination", "eligible-destination-missing",
             "duplicate-non-destination", "duplicate-outside-window"],
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg_path), "route"]) == 2
        message = message.format(routing=config["simulation"]["routing_csv"])
        assert capsys.readouterr().err == f"odfuse: data error: {message}\n"

    @pytest.mark.parametrize("window, message", [
        *(pytest.param({key: value}, f"simulation.{key}: bad value {value!r}", id=f"{value}-{key}")
          for value in ("garbage", "2025-01-30T17:30", 17) for key in ("start", "end")),
        pytest.param({"start": "2025-01-30T18:00", "end": "2025-01-30T16:00"},
                     "simulation.start 2025-01-30T18:00 is later than simulation.end 2025-01-30T16:00", id="reversed"),
    ])
    def test_bad_simulation_window_exit_1(self, tmp_path, capsys, window, message):
        config = write_worked_example_fixture(tmp_path / "fixture")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        config["simulation"].update(window)
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "route"]) == 1
        assert f"odfuse: error: {message}" in capsys.readouterr().err

    def test_window_of_one_hour_routes_it(self, tmp_path):
        config = write_worked_example_fixture(tmp_path / "fixture")
        config["simulation"].update(start=WORKED_EXAMPLE_HOUR, end=WORKED_EXAMPLE_HOUR)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        assert main(["--config", str(cfg_path), "route"]) == 0
        for name in ("od_matrix.csv", "ledger.csv"):
            assert {row[0] for row in read_csv(tmp_path / "fixture" / "out" / name)[1:]} == {WORKED_EXAMPLE_HOUR}

    # 18 digits take the byte scan and 19 the per-row reader; both exceed the
    # routing bound. 20 digits exceed int64, which the per-row reader refuses.
    @pytest.mark.parametrize(("count", "message"), [
        ("999999999999999999", "tollbooth count for 'E6-Klett' at {hour} exceeds"),
        ("1000000000000000000", "tollbooth count for 'E6-Klett' at {hour} exceeds"),
        ("10000000000000000000", "count too large at line {line}, field 'total'"),
    ], ids=["999999999999999999", "1000000000000000000", "10000000000000000000"])
    def test_count_too_large_to_apportion_exit_2(self, tmp_path, capsys, count, message):
        config = write_worked_example_fixture(tmp_path / "fixture")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        path = Path(config["simulation"]["tollbooth_csv"])
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        line = 2 + next(i for i, row in enumerate(rows) if ",E6-Klett," in row)
        rows = [row.rpartition(",")[0] + "," + count if ",E6-Klett," in row else row for row in rows]
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "route"]) == 2
        err = capsys.readouterr().err
        assert f"odfuse: data error: {message.format(hour=WORKED_EXAMPLE_HOUR, line=line)}" in err

    # A count beyond the bound that the route never reads: on a booth that no
    # routing phase references, and on a referenced one after the window.
    @pytest.mark.parametrize("station, simulation", [("Bjørndalsbrua", {}), ("E6-Klett", {"end": "2023-11-06T23:00"})],
                             ids=["unreferenced", "outside-window"])
    def test_count_beyond_the_bound_not_routed_exit_0(self, tmp_path, station, simulation):
        cfg = write_config(tmp_path / "run.json", hyperparams={"n_trees": 5, "max_depth": 3}, simulation=simulation)
        assert main(["--config", str(cfg), "synth"]) == 0
        assert main(["--config", str(cfg), "train"]) == 0
        path = tmp_path / "out" / "tollbooth.csv"
        rows = read_csv(path)
        [row] = [row for row in rows if row[:2] == ["2023-11-07T05:00", station]]
        for column in (3, 9):  # c_under5_6 and total
            row[column] = str(int(row[column]) + 2**52)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["--config", str(cfg), "route"]) == 0
        check_routing_files(tmp_path / "out", trondheim_fixture())

    def test_window_around_the_hour_routes_it(self, tmp_path):
        config = write_worked_example_fixture(tmp_path / "fixture")
        config["simulation"].update(start="2025-01-30T16:00", end="2025-01-30T18:00")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        assert main(["--config", str(cfg_path), "route"]) == 0
        out = tmp_path / "fixture" / "out"
        for name in ("od_matrix.csv", "ledger.csv"):
            assert {row[0] for row in read_csv(out / name)[1:]} == {WORKED_EXAMPLE_HOUR}
        check_routing_files(out, load_network(config["network"]), config["simulation"]["tollbooth_csv"])

    def test_window_past_the_data_exit_2(self, tmp_path, capsys):
        config = write_worked_example_fixture(tmp_path / "fixture")
        config["simulation"].update(start="2025-01-30T18:00")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(cfg_path), "train"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "route"]) == 2
        assert capsys.readouterr().err == "odfuse: data error: no tollbooth hours inside the requested simulation window\n"

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

    @pytest.mark.parametrize("document", ["config", "network"])
    def test_non_utf8_json_exit_1(self, tmp_path, capsys, document):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"name": "\xff"}')
        cfg = bad if document == "config" else write_config(tmp_path / "run.json", network=str(bad))
        assert main(["--config", str(cfg), "synth"]) == 1
        err = capsys.readouterr().err
        assert "invalid JSON in" in err and "'utf-8' codec can't decode" in err

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

    def test_unknown_direction_exit_2_names_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tollbooth.csv").write_text(
            "timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total\n"
            "2023-11-06T08:00,A,Sideways,1,0,0,0,0,0,1\n",
            encoding="utf-8",
        )
        (out / "routing.csv").write_text(
            "timestamp,node,people_flow,road_tag\n2023-11-06T08:00,A,10,Primary\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "train"]) == 2
        err = capsys.readouterr().err
        assert f"{out / 'tollbooth.csv'}: line 2: unknown direction 'Sideways'" in err
        assert "Traceback" not in err

    # 2**63 has 19 digits, so the byte scan declines either file and the
    # per-row reader names the line and field.
    @pytest.mark.parametrize(("which", "row", "field"), [
        ("tollbooth", "2023-11-06T08:00,A,Undirected,9223372036854775808,0,0,0,0,0,1", "c_under5_6"),
        ("routing", "2023-11-06T08:00,A,9223372036854775808,Primary", "people_flow"),
    ], ids=["tollbooth", "routing"])
    def test_count_of_2_63_exit_2(self, tmp_path, capsys, which, row, field):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tollbooth.csv").write_text(
            "timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total\n"
            "2023-11-06T08:00,A,Undirected,1,0,0,0,0,0,1\n", encoding="utf-8")
        (out / "routing.csv").write_text(
            "timestamp,node,people_flow,road_tag\n2023-11-06T08:00,A,10,Primary\n", encoding="utf-8")
        header = (out / f"{which}.csv").read_text(encoding="utf-8").splitlines()[0]
        (out / f"{which}.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.json")
        capsys.readouterr()
        assert main(["--config", str(cfg), "train"]) == 2
        err = capsys.readouterr().err
        assert f"odfuse: data error: count too large at line 2, field {field!r}\n" == err

    def test_line_after_a_multi_line_field_is_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "tollbooth.csv").write_text(
            "timestamp,station,direction,c_under5_6,c_5_6_7_6,c_7_6_12_5,c_12_5_16_0,c_16_0_24_0,c_over24_0,total\n"
            '2023-11-06T08:00,"Two\nlines",Inbound,1,0,0,0,0,0,1\n'
            "2023-11-06T08:00,A,Sideways,1,0,0,0,0,0,1\n",
            encoding="utf-8",
        )
        (out / "routing.csv").write_text(
            "timestamp,node,people_flow,road_tag\n2023-11-06T08:00,A,10,Primary\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "train"]) == 2
        err = capsys.readouterr().err
        assert f"{out / 'tollbooth.csv'}: line 4: unknown direction 'Sideways'" in err
        assert "Traceback" not in err

    def test_unknown_flag_exit_1(self, tmp_path):
        assert main(["--nonsense"]) == 1

    def test_flag_overrides_do_not_leak_into_defaults(self):
        first = load_config(None, None, None)
        flagged = load_config(None, 5, "elsewhere", 3)
        assert (flagged["seed"], flagged["out_dir"], flagged["synthetic"]["days"]) == (5, "elsewhere", 3)
        # Nor do changes a caller makes to a loaded config.
        first["synthetic"]["gains"]["Trunk"] = flagged["explain"]["max_rows"] = 1
        config = load_config(None, None, None)
        assert (config["seed"], config["out_dir"], config["synthetic"]["days"]) == (42, "out", 30)
        assert (config["synthetic"]["gains"]["Trunk"], config["explain"]["max_rows"]) == (1.0, 256)
        assert config_hash(config) == "30acda7fb9736ee2"

    @pytest.mark.parametrize("key", ["seed", "out_dir"])
    def test_null_scalar_exits_1_naming_the_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "run.json", **{key: None})
        assert main(["--config", str(cfg), "synth"]) == 1
        assert f"odfuse: error: {key}: bad value None: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_partial_gains_keep_the_other_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"synthetic": {"gains": {"Primary": 2.0}}}), encoding="utf-8")
        synthetic = load_config(str(cfg), None, None)["synthetic"]
        assert synthetic["gains"] == {"Primary": 2.0, "Trunk": 1.0, "Secondary": 0.7}
        assert {k: synthetic[k] for k in ("days", "noise_scale", "censor_threshold")} == {
            "days": 30, "noise_scale": 0.1, "censor_threshold": 120}

    @pytest.mark.parametrize("section", ["data", "synthetic"])
    def test_null_source_switches_it_off(self, tmp_path, section):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({section: None}), encoding="utf-8")
        assert load_config(str(cfg), None, None)[section] is None
        assert load_config(str(cfg), None, None, 3)[section] is None  # --days sets no synthetic section

    @pytest.mark.parametrize("field", ["out_dir", "network", "data"])
    def test_lone_surrogate_in_a_config_path_exits_1(self, tmp_path, capsys, field):
        value = "o\ud800"
        doc = {"data": {"tollbooth_csv": value, "routing_csv": None}, "synthetic": None} if field == "data" \
            else {field: value}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")  # JSON escapes the surrogate
        assert main(["--config", str(cfg), "synth"]) == 1
        err = capsys.readouterr().err
        key = "data.tollbooth_csv" if field == "data" else field
        assert f"odfuse: error: {key}: bad value 'o\\ud800'" in err
        assert "Traceback" not in err

    def test_readme_defaults_block_is_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("(all keys optional; these are the defaults):", 1)[1]
        documented = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
        hyperparams = documented.pop("hyperparams")
        assert documented == {k: v for k, v in load_config(None, None, None).items() if k != "hyperparams"}
        assert load_config(None, None, None)["hyperparams"] == {}
        fields = dataclasses.asdict(GbtHyperparams())
        del fields["seed"]  # the run's seed
        assert hyperparams == fields

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
            ("synth", {"seed": -1}, "seed"),
            ("synth", {"seed": 1.5}, "seed"),
            ("train", {"seed": True}, "seed"),
        ],
        ids=["days", "seed", "valid_fraction", "noise_scale", "gains", "seed-negative", "seed-float", "seed-bool"],
    )
    def test_bad_config_value_exit_1(self, tmp_path, capsys, command, overrides, key):
        if command == "train":
            assert main(["--config", str(write_config(tmp_path / "good.json")), "synth"]) == 0
        cfg = write_config(tmp_path / "run.json", **overrides)
        assert main(["--config", str(cfg), command]) == 1
        assert f"error: {key}: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("hyperparams", [{"learning_rate": True}, {"l2_leaf_regularization": True}],
                             ids=["learning_rate-bool", "l2-bool"])
    def test_boolean_hyperparameter_exits_1_before_reading_data(self, tmp_path, capsys, hyperparams):
        # No synth ran, so reading the input CSVs first would exit 2.
        cfg = write_config(tmp_path / "run.json", hyperparams=hyperparams)
        assert main(["--config", str(cfg), "train"]) == 1
        assert f"hyperparams: {next(iter(hyperparams))} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("train", {"hyperparams": {"n_trees": 2.5}}, "hyperparams: n_trees must be an integer >= 1"),
            ("train", {"hyperparams": {"max_depth": 2.5}}, "hyperparams: max_depth must be an integer >= 1"),
            ("train", {"hyperparams": {"min_samples_leaf": True}}, "hyperparams: min_samples_leaf must be"),
            ("train", {"hyperparams": {"l2_leaf_regularization": math.inf}}, "l2_leaf_regularization must be finite"),
            ("train", {"hyperparams": {"seed": "abc"}}, "hyperparams: seed must be an integer >= 0"),
            ("synth", {"synthetic": {"days": 2, "gains": {"Primary": "nan"}}}, "gain for Primary must be finite"),
            ("synth", {"synthetic": {"days": 2, "noise_scale": math.nan}}, "noise_scale must be finite"),
        ],
        ids=["n_trees-float", "max_depth-float", "min_samples_leaf-bool", "l2-inf", "seed-string", "gain-nan", "noise-nan"],
    )
    def test_non_integer_or_non_finite_number_exit_1(self, tmp_path, capsys, command, overrides, message):
        if command == "train":
            assert main(["--config", str(write_config(tmp_path / "good.json")), "synth"]) == 0
        cfg = write_config(tmp_path / "run.json", **overrides)
        assert main(["--config", str(cfg), command]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("train", {"hyperparams": [1]}, "hyperparams: bad value [1]: hyperparams must be an object"),
            ("train", {"data": "foo"}, "data: bad value 'foo': data must be an object"),
            ("synth", {"network": 5}, "network: bad value 5: network must be a string or null"),
            ("synth", {"out_dir": 5}, "out_dir: bad value 5: out_dir must be a string"),
            ("synth", {"synthetic": [1]}, "synthetic: bad value [1]: synthetic must be an object"),
            ("explain", {"explain": "x"}, "explain: bad value 'x': explain must be an object"),
            ("route", {"simulation": "x"}, "simulation: bad value 'x': simulation must be an object"),
            ("stability", {"stability": "x"}, "stability: bad value 'x': stability must be an object"),
            ("train", {"data": {"tollbooth_csv": 5}}, "data.tollbooth_csv: bad value 5: tollbooth_csv must be"),
            ("route", {"simulation": {"tollbooth_csv": 5}}, "simulation.tollbooth_csv: bad value 5"),
            ("synth", {"synthetic": {"days": True}}, "synthetic.days: bad value True: days must be an integer >= 1"),
            ("synth", {"synthetic": {"days": 1.7}}, "synthetic.days: bad value 1.7: days must be an integer >= 1"),
            ("explain", {"explain": {"max_row": 8}}, "explain: unknown keys ['max_row']"),
            ("explain", {"explain": {"target": "lorry"}}, "explain.target: bad value 'lorry': target must be one of"),
        ],
        ids=["hyperparams-list", "data-string", "network-number", "out_dir-number", "synthetic-list",
             "explain-string", "simulation-string", "stability-string", "data-path-number",
             "simulation-path-number", "days-bool", "days-float", "explain-typo", "explain-target"],
    )
    def test_wrong_container_or_type_exit_1(self, tmp_path, capsys, command, overrides, message):
        cfg = write_config(tmp_path / "run.json", **overrides)
        assert main(["--config", str(cfg), command]) == 1
        assert f"odfuse: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["explain", "simulation", "stability", "hyperparams"])
    def test_null_section_means_its_defaults(self, tmp_path, section):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({section: None}), encoding="utf-8")
        assert load_config(str(cfg), None, None) == load_config(None, None, None)

    def test_logged_hash_covers_the_days_flag(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "run.json")  # synthetic.days is 2
        hashes = []
        for flags in ([], ["--days", "2"], ["--days", "1"]):
            caplog.clear()
            with caplog.at_level("INFO", logger="odfuse"):
                assert main(["--config", str(cfg), "synth", *flags]) == 0
            hashes += [r.message.rpartition(" ")[2] for r in caplog.records if "config hash" in r.message]
        assert hashes[0] == hashes[1] != hashes[2]
        assert config_hash(load_config(None, None, None)) == "30acda7fb9736ee2"

    @pytest.mark.parametrize("name", ["tollbooth.csv", "routing.csv"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth"]) == 0
        path = tmp_path / "out" / name
        path.write_bytes(path.read_bytes() + b"2023-11-08T00:00,\xff\n")
        assert main(["--config", str(cfg), "train"]) == 2
        assert f"{name}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("case, command, code", [
        ("config is a directory", "train", 1),
        ("config nested too deep", "train", 1),
        ("network is a directory", "synth", 1),
        ("model is a directory", "eval", 2),
        ("model is not UTF-8", "eval", 2),
        ("out is an existing file", "synth", 1),
        ("out is an existing file", "eval", 1),
        ("out is an existing file", "explain", 1),
        ("out is an existing file", "route", 1),
        ("artifact is a directory", "synth", 1),
    ])
    def test_unreadable_or_unwritable_file_exits_naming_it(self, tmp_path, capsys, case, command, code):
        cfg = write_config(tmp_path / "run.json")
        argv = ["--config", str(cfg), command]
        bad = {"config nested too deep": tmp_path / "deep.json", "out is an existing file": tmp_path / "file",
               "artifact is a directory": tmp_path / "out" / "tollbooth.csv",
               "model is a directory": tmp_path / "out" / "model.json",
               "model is not UTF-8": tmp_path / "out" / "model.json"}.get(case, tmp_path / "dir")
        bad.parent.mkdir(exist_ok=True)
        if case.endswith("directory"):
            bad.mkdir()
        if case == "config is a directory":
            argv[1] = str(bad)
        elif case == "config nested too deep":
            bad.write_text("[" * 100_000, encoding="utf-8")
            argv[1] = str(bad)
        elif case == "network is a directory":
            write_config(cfg, network=str(bad))
        elif case == "model is not UTF-8":
            bad.write_bytes(b'{"format": "\xff"}')
        elif case == "out is an existing file":
            bad.write_text("", encoding="utf-8")
            argv[:0] = ["--out", str(bad)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_directory_at_the_model_path_stops_train_before_the_fit(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "run.json")
        assert main(["--config", str(cfg), "synth"]) == 0
        (tmp_path / "out" / "model.json").mkdir()

        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "train", no_fit)
        assert main(["--config", str(cfg), "train"]) == 1
        assert f"cannot write {tmp_path / 'out' / 'model.json'}: Is a directory" in capsys.readouterr().err


def bundled_network_doc() -> dict:
    from importlib import resources

    return json.loads(resources.files("odfuse.data").joinpath("trondheim_network.json").read_text(encoding="utf-8"))


class TestNetworkValidation:
    """Malformed network documents exit 1 before anything is routed. Routed
    volume is split over a scenario's destinations, so empty groups and
    subsets must not reach routing (they ended in ZeroDivisionError)."""

    def route_exit_code(self, tmp_path, doc, command="route") -> int:
        (tmp_path / "network.json").write_text(json.dumps(doc), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", network=str(tmp_path / "network.json"))
        return main(["--config", str(cfg), command])

    def test_empty_group_used_by_a_subset_exit_1(self, tmp_path, capsys):
        doc = bundled_network_doc()
        doc["destination_groups"]["g"] = []
        doc["scenario_subsets"]["PassthroughNet"] = ["g"]
        assert self.route_exit_code(tmp_path, doc) == 1
        assert "empty destination group 'g'" in capsys.readouterr().err

    def test_hand_built_node_without_a_name_is_a_config_error(self):
        with pytest.raises(ConfigError, match="node name cannot be empty"):
            NetworkConfig(name="blank", nodes=(station(""), destination("D")), destination_groups={"all": ("D",)},
                          passthrough_pairs=(), scenario_subsets={})

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

    @pytest.mark.parametrize("value", [None, "g", ["g"], 3], ids=["null", "string", "list", "number"])
    @pytest.mark.parametrize("key", ["destination_groups", "scenario_subsets"])
    def test_container_of_wrong_type_exit_1(self, tmp_path, capsys, key, value):
        doc = bundled_network_doc()
        doc[key] = value
        assert self.route_exit_code(tmp_path, doc) == 1
        assert f"network.{key}: bad value {value!r}: {key} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("directions", ["Inbound", ["Northbound"], [["Inbound"]], None])
    def test_directions_not_a_list_of_directions_exit_1(self, tmp_path, capsys, directions):
        doc = bundled_network_doc()
        doc["nodes"][0]["directions"] = directions
        assert self.route_exit_code(tmp_path, doc) == 1
        assert "error: network.nodes.0.directions" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [5, None, ["Trondheim"]])
    def test_name_not_a_string_exit_1(self, tmp_path, capsys, name):
        doc = bundled_network_doc()
        doc["name"] = name
        assert self.route_exit_code(tmp_path, doc) == 1
        assert f"network.name: bad value {name!r}: name must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["positive", "negative"])
    def test_boundary_without_a_direction_names_it(self, tmp_path, capsys, side):
        doc = bundled_network_doc()
        del doc["boundary"][side]
        assert self.route_exit_code(tmp_path, doc, "synth") == 1
        assert f"odfuse: error: network.boundary.{side}: bad value None: {side} must be an object" \
            in capsys.readouterr().err

    def test_node_name_with_a_lone_surrogate_exits_1(self, tmp_path, capsys):
        # Renamed everywhere, so only the name itself can be at fault.
        doc = json.loads(json.dumps(bundled_network_doc()).replace("E6-Klett", "E6-Klett\\ud800"))
        assert doc["nodes"][0]["name"] == "E6-Klett\ud800"
        assert self.route_exit_code(tmp_path, doc, "synth") == 1
        err = capsys.readouterr().err
        assert "network.nodes.0.name: bad value 'E6-Klett\\ud800': name must be a non-empty string" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_repeated_direction_exit_1(self, tmp_path, capsys):
        doc = bundled_network_doc()
        assert doc["nodes"][7]["name"] == "Bjørndalsbrua"
        doc["nodes"][7]["directions"] = ["Inbound", "Inbound"]
        assert self.route_exit_code(tmp_path, doc, "synth") == 1
        assert "repeated series keys ['Bjørndalsbrua|Inbound']" in capsys.readouterr().err

    def test_destination_named_like_a_directional_series_exit_1(self, tmp_path, capsys):
        doc = bundled_network_doc()
        doc["nodes"] += [{"name": "A", "kind": "county_tollbooth", "road_tag": "Trunk", "directions": ["Inbound"]},
                         {"name": "A|Inbound", "kind": "inferred_destination", "road_tag": "Trunk"}]
        doc["destination_groups"]["rosten-east"].append("A|Inbound")
        assert self.route_exit_code(tmp_path, doc, "synth") == 1
        assert "repeated series keys ['A|Inbound']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("nodes", 0, "road_tag"), 5, "network.nodes.0.road_tag: bad value 5: road_tag must be one of"),
            (("nodes", 0, "road_tag"), "Motorway", "network.nodes.0.road_tag: bad value 'Motorway'"),
            (("nodes", 0, "scale"), "100", "network.nodes.0.scale: bad value '100': scale must be finite"),
            (("nodes", 0, "scael"), 3, "network.nodes.0: unknown keys ['scael']"),
            (("nodez",), [], "network: unknown keys ['nodez']"),
            (("passthrough_pairs", 0, "axis"), 5, "network.passthrough_pairs.0.axis: bad value 5: axis must be"),
            (("boundary", "positive", "label"), ["x"], "network.boundary.positive.label: bad value ['x']"),
            (("ramps",), {"onramp": 5, "offramp": 6}, "network.ramps.onramp: bad value 5: onramp must be"),
            (("ramps", "onramp"), "Nowhere", "count keys ['Nowhere'] are not the series key of any station"),
            (("boundary", "inbound_key"), "ØstreRosten", "count keys ['ØstreRosten'] are not the series key"),
            (("nodes", 0, "scale"), 1e308, "network.nodes.0.scale: bad value 1e+308: node 'E6-Klett'"),
        ],
        ids=["road_tag-number", "road_tag-unknown", "scale-string", "node-key-typo", "top-level-typo",
             "axis-number", "label-list", "ramps-numbers", "ramp-unknown-key", "boundary-undirected-key",
             "scale-huge"],
    )
    def test_bad_field_exits_1_at_synth(self, tmp_path, capsys, path, value, message):
        doc = bundled_network_doc()
        set_field(doc, path, value)
        assert self.route_exit_code(tmp_path, doc, "synth") == 1
        assert message in capsys.readouterr().err


def test_cli_path_builds_no_per_row_objects(tmp_path, monkeypatch):
    """synth, train and route work on column tables: no observation object
    is constructed."""
    from odfuse.core import RoutingReportObservation, TollboothObservation

    built = []
    for cls in (TollboothObservation, RoutingReportObservation):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    cfg = write_config(tmp_path / "run.json")
    for command in ("synth", "train", "route"):
        assert main(["--config", str(cfg), command]) == 0
    assert built == []


# Each key path the config fuzz replaces, and the command that reads it.
FUZZED_KEYS = {
    "seed": "explain", "out_dir": "synth", "valid_fraction": "train", "network": "route",
    "data": "eval", "data.tollbooth_csv": "train", "data.routing_csv": "explain",
    "synthetic": "synth", "synthetic.days": "synth", "synthetic.gains": "synth",
    "synthetic.gains.Trunk": "synth", "synthetic.noise_scale": "synth", "synthetic.censor_threshold": "synth",
    "hyperparams": "train", "hyperparams.n_trees": "train", "hyperparams.max_depth": "train",
    "hyperparams.learning_rate": "train", "hyperparams.min_samples_leaf": "train",
    "hyperparams.l2_leaf_regularization": "train", "hyperparams.seed": "train",
    "simulation": "route", "simulation.tollbooth_csv": "route", "simulation.routing_csv": "route",
    "simulation.start": "route", "simulation.end": "route",
    "explain": "explain", "explain.target": "explain", "explain.max_rows": "explain",
    "explain.repeats": "explain", "stability": "stability", "stability.routing_a": "stability",
    "stability.routing_b": "stability",
}
# Keys whose value sizes the work: only small integers are drawn for them.
SIZING_KEYS = {"synthetic.days", "hyperparams.n_trees", "hyperparams.max_depth", "explain.repeats"}
ONE_DAY_CONFIG = {
    "seed": 3, "synthetic": {"days": 1}, "hyperparams": {"n_trees": 2, "max_depth": 2},
    "explain": {"max_rows": 8, "repeats": 1},
    "stability": {"routing_a": "out/routing.csv", "routing_b": "out/routing.csv"},
}


def json_values(huge_ints: bool):
    # No "/" in drawn text, so a drawn path stays inside the run's directory.
    text = st.one_of(st.text("a.0é \x00", max_size=6), st.sampled_from(["total", "2023-11-06T08:00", "out"]))
    ints = st.integers(-3, 3)
    if huge_ints:
        ints = st.one_of(ints, st.integers(-(2**70), 2**70), st.just(10**400))
    scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(), text)
    return st.one_of(scalars, st.lists(scalars, max_size=3), st.dictionaries(text, scalars, max_size=3))


@pytest.fixture(scope="module")
def one_day_run(tmp_path_factory):
    """A one-day synth and a two-tree train; returns the directory holding out/."""
    base = tmp_path_factory.mktemp("one_day")
    cfg = base / "run.json"
    cfg.write_text(json.dumps({**ONE_DAY_CONFIG, "out_dir": str(base / "out")}), encoding="utf-8")
    for command in ("synth", "train"):
        assert main(["--config", str(cfg), command]) == 0
    return base


def run_in_copy(base, tmp_dir, doc: dict, argv: list[str]) -> int:
    """Run ``argv`` with config ``doc`` from inside ``tmp_dir``, on a copy of base/out."""
    shutil.copytree(base / "out", tmp_dir / "out")
    (tmp_dir / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(tmp_dir)
    try:
        return main(["--config", "run.json", *argv])
    finally:
        os.chdir(cwd)


def set_field(doc, path: tuple, value) -> None:
    for part in path[:-1]:
        doc = doc[part]
    doc[path[-1]] = value


def field_paths(node, prefix=()):
    """Every key or index path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from field_paths(child, (*prefix, key))


class TestFuzz:
    """The exit-code contract under arbitrary input: a malformed config exits 1,
    a malformed artifact 2, and nothing may raise out of ``main``."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), key=st.sampled_from(sorted(FUZZED_KEYS)))
    def test_any_value_for_one_config_key_exits_0_1_or_2(self, one_day_run, tmp_path_factory, data, key):
        value = data.draw(json_values(key not in SIZING_KEYS), label=key)
        doc = {**copy.deepcopy(ONE_DAY_CONFIG), "out_dir": "out"}
        *parents, leaf = key.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
        assert run_in_copy(one_day_run, tmp_path_factory.mktemp("fuzz"), doc, [FUZZED_KEYS[key]]) in (0, 1, 2)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_value_for_one_model_field_exits_0_or_2(self, one_day_run, tmp_path_factory, data):
        doc = json.loads((one_day_run / "out" / "model.json").read_text(encoding="utf-8"))
        path = data.draw(st.sampled_from(list(field_paths(doc))), label="field")
        set_field(doc, path, data.draw(json_values(True), label="value"))
        tmp_dir = tmp_path_factory.mktemp("fuzz_model")
        (tmp_dir / "bad").mkdir()
        (tmp_dir / "bad" / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        config = {**ONE_DAY_CONFIG, "data": {"tollbooth_csv": "out/tollbooth.csv", "routing_csv": "out/routing.csv"},
                  "synthetic": None, "out_dir": "bad"}
        assert run_in_copy(one_day_run, tmp_dir, config, ["eval"]) in (0, 2)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_value_for_one_network_field_exits_0_or_1(self, tmp_path_factory, data):
        doc = bundled_network_doc()
        path = data.draw(st.sampled_from(list(field_paths(doc))), label="field")
        set_field(doc, path, data.draw(json_values(True), label="value"))
        tmp_dir = tmp_path_factory.mktemp("fuzz_network")
        (tmp_dir / "network.json").write_text(json.dumps(doc), encoding="utf-8")
        config = {**ONE_DAY_CONFIG, "network": str(tmp_dir / "network.json"), "out_dir": str(tmp_dir / "out")}
        (tmp_dir / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(tmp_dir / "run.json"), "synth"]) in (0, 1)
