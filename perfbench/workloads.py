"""The benchmark's workloads: run configs, stage lists and per-stage checks.

Both workloads run the CLI stages in process, one at a time, in a closed
loop with one caller: the next pipeline starts only after the previous one
finished and was checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import checks

ALL_STAGES = ("synth", "train", "eval", "explain", "route", "stability")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    days: int
    hyperparams: dict
    stages: tuple[str, ...]
    explain: dict | None = None
    # Routing CSV of a second period, generated during set-up at seed + 1,
    # that the stability stage compares with the pipeline's own period.
    second_period: bool = False
    # Runs `eval` once per run outside the timed stages, so that the
    # criterion-2 check also covers a workload without an eval stage.
    untimed_eval: bool = False

    def config(self, seed: int, out_dir: Path) -> dict:
        config = {"seed": seed, "out_dir": str(out_dir), "synthetic": {"days": self.days},
                  "hyperparams": self.hyperparams}
        if self.explain is not None:
            config["explain"] = self.explain
        return config

    def write_config(self, seed: int, out_dir: Path, path: Path) -> Path:
        path.write_text(json.dumps(self.config(seed, out_dir), sort_keys=True), encoding="utf-8")
        return path

    def argv(self, stage: str, config_path: Path, out_dir: Path, second: Path | None) -> list[str]:
        argv = ["--config", str(config_path), stage]
        if stage == "stability":
            argv += ["--routing-a", str(out_dir / "routing.csv"), "--routing-b", str(second / "routing.csv")]
        return argv

    def check(self, stage: str, out_dir: Path) -> list[tuple[str, str | None]]:
        """Correctness checks on the artifacts ``stage`` just wrote."""
        if stage == "eval":
            return checks.check_metrics(out_dir)
        if stage == "explain":
            return checks.check_importance(out_dir, self.explain["max_rows"]) + checks.check_permutation(out_dir)
        if stage == "route":
            return checks.check_conservation(out_dir, self.days * 24)
        if stage == "stability":
            return checks.check_stability(out_dir)
        return []


WORKLOADS = {
    w.name: w
    for w in (
        # One month of counts through the whole analyst pipeline: the
        # criterion-9 config with a 25-tree model, so that training and
        # attribution dominate and routing is light.
        Workload(
            name="month-pipeline",
            default_seed=99,
            days=30,
            hyperparams={"n_trees": 25, "max_depth": 6},
            explain={"max_rows": 128, "repeats": 3},
            stages=("synth", "train", "eval", "explain", "route"),
        ),
        # Eight weeks (1,344 hours) with a small model: CSV parse, join and
        # write and per-hour routing dominate; attribution never runs.
        Workload(
            name="eight-week-route",
            default_seed=7,
            days=56,
            hyperparams={"n_trees": 20, "max_depth": 3},
            stages=("synth", "train", "route", "stability"),
            second_period=True,
            untimed_eval=True,
        ),
    )
}
