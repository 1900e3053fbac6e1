"""Tests of the benchmark's own artifact checkers and span arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from odfuse import cli  # noqa: E402

DAYS = 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Path:
    """Artifacts of a small real pipeline: 2 days, 3 trees, 16 explained rows."""
    base = tmp_path_factory.mktemp("pipeline")
    out = base / "out"
    config = base / "config.json"
    config.write_text(json.dumps({"seed": 3, "out_dir": str(out), "synthetic": {"days": DAYS},
                                  "hyperparams": {"n_trees": 3, "max_depth": 3},
                                  "explain": {"max_rows": 16, "repeats": 1}}))
    for stage in ("synth", "train", "eval", "explain", "route"):
        assert cli.main(["--config", str(config), stage]) == 0
    return out


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _copy(src: Path, dst: Path, *names: str) -> Path:
    dst.mkdir()
    for name in names:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_conservation_accepts_route_output(pipeline):
    assert checks.check_conservation(pipeline, DAYS * 24) == []


def test_conservation_rejects_one_vehicle_removed(pipeline, tmp_path):
    out = _copy(pipeline, tmp_path / "out", "od_matrix.csv", "ledger.csv")
    rows = _read(out / "od_matrix.csv")
    count = rows[0].index("count")
    rows[1][count] = str(int(rows[1][count]) - 1)
    if rows[1][count] == "0":
        del rows[1]
    _write(out / "od_matrix.csv", rows)
    problems = checks.check_conservation(out, DAYS * 24)
    assert problems and all(defect is None for _, defect in problems)


def test_conservation_rejects_missing_hour(pipeline):
    assert checks.check_conservation(pipeline, DAYS * 24 + 1)


def test_importance_accepts_explain_output(pipeline):
    assert checks.check_importance(pipeline, 16) == []


def test_importance_rejects_perturbed_row(pipeline, tmp_path):
    out = _copy(pipeline, tmp_path / "out", "importance.csv", "attributions.csv")
    rows = _read(out / "importance.csv")
    rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-6) + 1e-9)
    _write(out / "importance.csv", rows)
    problems = checks.check_importance(out, 16)
    assert problems and all(defect is None for _, defect in problems)


def test_importance_rejects_wrong_row_count(pipeline):
    assert checks.check_importance(pipeline, 17)


def test_metrics_thresholds(tmp_path):
    header = ["target", "rmse_train", "r2_train", "rmse_valid", "r2_valid"]
    _write(tmp_path / "metrics.csv", [header, ["people_flow_baseline", "1", "0.4", "1", "0.47"],
                                      ["total", "1", "0.99", "1", "0.95"]])
    assert checks.check_metrics(tmp_path) == []
    _write(tmp_path / "metrics.csv", [header, ["people_flow_baseline", "1", "0.4", "1", "0.47"],
                                      ["total", "1", "0.99", "1", "0.89"]])
    assert checks.check_metrics(tmp_path)
    _write(tmp_path / "metrics.csv", [header, ["people_flow_baseline", "1", "0.4", "1", "NA"],
                                      ["total", "1", "0.99", "1", "0.95"]])
    assert checks.check_metrics(tmp_path)


def test_permutation_wants_people_flow_on_top(tmp_path):
    _write(tmp_path / "permutation.csv", [["feature", "r2_drop"], ["people_flow", "0.8"], ["hour_of_day", "0.1"]])
    assert checks.check_permutation(tmp_path) == []
    _write(tmp_path / "permutation.csv", [["feature", "r2_drop"], ["people_flow", "-195.0"], ["tag_primary", "65.6"]])
    [(_, defect)] = checks.check_permutation(tmp_path)
    assert defect == checks.PERMUTATION_TARGET_ORDER


def test_stability_fields_must_be_numbers(tmp_path):
    header = ["profile_kind", "pearson", "sym_kl_nats", "nmse"]
    _write(tmp_path / "stability.csv", [header, ["diurnal", "0.99", "0.000107", "NA"]])
    assert checks.check_stability(tmp_path) == []
    _write(tmp_path / "stability.csv", [header, ["diurnal", "0.99", "np.float64(0.000107)", "NA"]])
    [(_, defect)] = checks.check_stability(tmp_path)
    assert defect == checks.STABILITY_NUMPY_REPR
    _write(tmp_path / "stability.csv", [header, ["diurnal", "0.99", "nan", "NA"]])
    [(_, defect)] = checks.check_stability(tmp_path)
    assert defect is None


# Hand-built span tree of one stage (times in seconds):
#   cli.route 0..10
#     ingest.read 1..4
#       fusion.predict_batch 2..3
#     routing.build 5..9
#       routing.distribute 8..11  (runs past its parent; clamped to 8..9)
SPANS = [
    ("cli.route", 0.0, 10.0, -1),
    ("ingest.read_tollbooth_csv", 1.0, 4.0, 0),
    ("fusion.predict_batch", 2.0, 3.0, 1),
    ("routing.build_od_matrix", 5.0, 9.0, 0),
    ("routing.distribute", 8.0, 11.0, 3),
]


def test_self_times_on_hand_built_tree():
    assert spans.self_times(SPANS) == [3.0, 2.0, 1.0, 3.0, 3.0]


def test_self_times_of_a_stage_add_up_to_its_wall_time():
    nested = SPANS[:-1] + [("routing.distribute", 8.0, 9.0, 3)]
    assert spans.check_self_time_sums(nested) == []
    assert spans.subtree_self_sum(nested, spans.self_times(nested), 0) == 10.0
    assert spans.check_self_time_sums(SPANS)  # the overhanging child breaks the sum


def test_layer_metrics_from_hand_built_tree():
    tracer = spans.Tracer()
    tracer.spans = SPANS[:-1] + [("routing.distribute", 8.0, 9.0, 3)]
    tracer.counts = {"ingest.read_tollbooth_csv": 48, "fusion.predict_batch": 1000}
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.self_s.route"] == 3.0
    assert metrics["ingest.parse_s"] == 3.0
    assert metrics["ingest.parse_us_per_row"] == 3.0 / 48 * 1e6
    assert metrics["fusion.predict_ns_per_tree_row"] == 1.0 / 1000 * 1e9
    assert metrics["routing.distribute_s"] == 1.0
    assert metrics["attribution.shap_s"] == 0.0


def test_tracer_restores_the_program(pipeline):
    from odfuse import routing
    from odfuse.fusion import RegressionTree

    originals = (cli.read_routing_csv, routing.distribute, routing.marginals, RegressionTree.predict_batch)
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.read_routing_csv is not originals[0]
        with tracer.span("cli.train"):
            cli.read_routing_csv(pipeline / "routing.csv")
    assert (cli.read_routing_csv, routing.distribute, routing.marginals,
            RegressionTree.predict_batch) == originals
    assert [s[0] for s in tracer.spans] == ["cli.train", "ingest.read_routing_csv"]
    assert tracer.spans[1][3] == 0
    assert tracer.counts["ingest.read_routing_csv"] == len(_read(pipeline / "routing.csv")) - 1
