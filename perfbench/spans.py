"""In-memory span tracing of the odfuse pipeline, installed from outside.

The tracer wraps public functions where their callers look them up: the
names imported into ``odfuse.cli``, the module globals of
``odfuse.routing`` and ``odfuse.attribution``, and the method
``RegressionTree.predict_batch``. Nothing inside ``src/`` changes. Each
wrapped call records a span ``(name, start, end, parent)``; a few hot
helpers only count their calls. ``layer_metrics`` turns the spans and
counts of one traced pipeline into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

# Span name -> (module attribute path, counter).  The counter maps the call's
# arguments and result to the amount of work done, summed under the name.
_SPANNED = {
    "ingest.read_tollbooth_csv": ("cli", "read_tollbooth_csv", lambda a, r: len(r)),
    "ingest.read_routing_csv": ("cli", "read_routing_csv", lambda a, r: len(r)),
    "ingest.build_dataset": ("cli", "build_dataset", lambda a, r: r.n_rows),
    "ingest.generate_synthetic": ("cli", "generate_synthetic", None),
    "ingest.difference_series": ("cli", "difference_series", None),
    "ingest.write_tollbooth_csv": ("cli", "write_tollbooth_csv", lambda a, r: len(a[1])),
    "ingest.write_routing_csv": ("cli", "write_routing_csv", lambda a, r: len(a[1])),
    "ingest.write_difference_csv": ("cli", "write_difference_csv", lambda a, r: len(a[1])),
    "fusion.train": ("cli", "train", lambda a, r: sum(len(t.trees) for t in r.targets.values())),
    "fusion.save_model": ("cli", "save_model", lambda a, r: os.path.getsize(a[1])),
    "fusion.load_model": ("cli", "load_model", None),
    "fusion.evaluate": ("cli", "evaluate", None),
    "fusion.residual_table": ("cli", "residual_table", None),
    "fusion.write_metrics_csv": ("cli", "write_metrics_csv", None),
    "fusion.write_residuals_csv": ("cli", "write_residuals_csv", None),
    "attribution.global_importance": ("cli", "global_importance", None),
    "attribution.shap_matrix": ("cli", "shap_matrix", lambda a, r: a[2].shape[0]),
    "attribution.shap_matrix@global_importance": (
        "attribution", "shap_matrix", lambda a, r: a[2].shape[0]),
    "attribution.permutation_importance": ("cli", "permutation_importance", None),
    "attribution.write_importance_csv": ("cli", "write_importance_csv", None),
    "attribution.write_attributions_csv": ("cli", "write_attributions_csv", None),
    "attribution.write_permutation_csv": ("cli", "write_permutation_csv", None),
    "routing.build_od_matrix": ("cli", "build_od_matrix", lambda a, r: len(r.matrix.entries)),
    "routing.predict_matrix": ("routing", "predict_matrix", None),
    "routing.joint_from_predictions": (
        "routing", "joint_from_predictions", lambda a, r: int(r.fallback_uniform)),
    "routing.decide_flows": ("routing", "decide_flows", lambda a, r: len(r[0])),
    "routing.distribute": ("routing", "distribute", None),
    "routing.conservation_violations": ("cli", "conservation_violations", None),
    "routing.write_od_csv": (
        "cli", "write_od_csv", lambda a, r: sum(1 for e in a[1].entries if e.count > 0)),
    "routing.write_ledger_csv": ("cli", "write_ledger_csv", lambda a, r: len(a[1])),
    "stability.compare_periods": ("cli", "compare_periods", None),
    "stability.write_stability_csv": ("cli", "write_stability_csv", None),
}

# Called tens of thousands of times per stage: counted, not spanned.
_COUNTED = {
    "routing.marginals": ("routing", "marginals"),
    "routing.largest_remainder": ("routing", "largest_remainder"),
}


class Tracer:
    """Spans and counts of one traced pipeline, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _spanned(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.count(name, 1 if counter is None else counter(args, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        from odfuse import attribution, cli, routing
        from odfuse.fusion import RegressionTree

        modules = {"cli": cli, "routing": routing, "attribution": attribution}
        saved = []

        def replace(owner, attr: str, wrap) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrap(saved[-1][2]))

        try:
            for name, (module, attr, counter) in _SPANNED.items():
                replace(modules[module], attr, lambda fn: self._spanned(name, fn, counter))
            for name, (module, attr) in _COUNTED.items():
                replace(modules[module], attr, lambda fn: self._counted(name, fn))
            replace(RegressionTree, "predict_batch",
                    lambda fn: self._spanned("fusion.predict_batch", fn, lambda a, r: a[1].shape[0]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def subtree_self_sum(spans, selfs: list[float], root: int) -> float:
    """Sum of self times over ``root`` and every span below it."""
    below = {root}
    total = 0.0
    for i, (_, _, _, parent) in enumerate(spans):
        if i == root or parent in below:
            below.add(i)
            total += selfs[i]
    return total


def _sum_durations(spans, *names: str) -> float:
    return sum(end - start for name, start, end, _ in spans if name in names)


def _ratio(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (zero where no work ran)."""
    spans, counts = tracer.spans, tracer.counts
    d = functools.partial(_sum_durations, spans)

    def c(*names: str) -> int:
        return sum(counts.get(n, 0) for n in names)

    parse_s = d("ingest.read_tollbooth_csv", "ingest.read_routing_csv")
    parse_rows = c("ingest.read_tollbooth_csv", "ingest.read_routing_csv")
    train_s, trees = d("fusion.train"), c("fusion.train")
    predict_s, tree_rows = d("fusion.predict_batch"), c("fusion.predict_batch")
    shap_names = ("attribution.shap_matrix", "attribution.shap_matrix@global_importance")
    shap_s, shap_rows = d(*shap_names), c(*shap_names)
    shap_passes = sum(1 for s in spans if s[0] in shap_names)
    ingest_writes = ("ingest.write_tollbooth_csv", "ingest.write_routing_csv", "ingest.write_difference_csv")
    routing_writes = ("routing.write_od_csv", "routing.write_ledger_csv")
    metrics = {
        "ingest.parse_s": parse_s,
        "ingest.parse_rows": parse_rows,
        "ingest.parse_us_per_row": _ratio(parse_s, parse_rows, 1e6),
        "ingest.join_s": d("ingest.build_dataset"),
        "ingest.join_rows": c("ingest.build_dataset"),
        "ingest.synth_s": d("ingest.generate_synthetic"),
        "ingest.csv_write_s": d(*ingest_writes),
        "ingest.csv_write_rows": c(*ingest_writes),
        "ingest.difference_s": d("ingest.difference_series"),
        "fusion.train_s": train_s,
        "fusion.trees_built": trees,
        "fusion.train_ms_per_tree": _ratio(train_s, trees, 1e3),
        "fusion.predict_s": predict_s,
        "fusion.predict_tree_rows": tree_rows,
        "fusion.predict_ns_per_tree_row": _ratio(predict_s, tree_rows, 1e9),
        "fusion.model_save_s": d("fusion.save_model"),
        "fusion.model_load_s": d("fusion.load_model"),
        "fusion.model_bytes": c("fusion.save_model"),
        "fusion.evaluate_s": d("fusion.evaluate"),
        "attribution.shap_s": shap_s,
        "attribution.shap_passes": shap_passes,
        "attribution.shap_rows": shap_rows,
        "attribution.shap_ms_per_row": _ratio(shap_s, shap_rows, 1e3),
        "attribution.permutation_s": d("attribution.permutation_importance"),
        "attribution.csv_write_s": d(
            "attribution.write_importance_csv",
            "attribution.write_attributions_csv",
            "attribution.write_permutation_csv",
        ),
        "routing.build_s": d("routing.build_od_matrix"),
        "routing.hours": sum(1 for s in spans if s[0] == "routing.decide_flows"),
        "routing.predict_s": d("routing.predict_matrix"),
        "routing.decide_s": d("routing.decide_flows"),
        "routing.decisions": c("routing.decide_flows"),
        "routing.joint_s": d("routing.joint_from_predictions"),
        "routing.uniform_fallback_hours": c("routing.joint_from_predictions"),
        "routing.distribute_s": d("routing.distribute"),
        "routing.marginals_calls": c("routing.marginals"),
        "routing.largest_remainder_calls": c("routing.largest_remainder"),
        "routing.od_entries": c("routing.build_od_matrix"),
        "routing.conservation_s": d("routing.conservation_violations"),
        "routing.csv_write_s": d(*routing_writes),
        "routing.csv_write_rows": c(*routing_writes),
        "stability.compare_s": d("stability.compare_periods"),
    }
    selfs = self_times(spans)
    for self_s, (name, _, _, parent) in zip(selfs, spans):
        if parent < 0:
            key = f"cli.self_s.{name.removeprefix('cli.')}"
            metrics[key] = metrics.get(key, 0.0) + self_s
    return metrics


def check_self_time_sums(spans, tolerance: float = 1e-6) -> list[str]:
    """Per stage root, its subtree's self times must add up to its wall time."""
    selfs = self_times(spans)
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            total = subtree_self_sum(spans, selfs, i)
            if abs(total - (end - start)) > tolerance:
                problems.append(f"{name}: self times sum to {total!r}, wall time {end - start!r}")
    return problems
