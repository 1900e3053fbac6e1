#!/usr/bin/env python3
"""Pipeline benchmark for odfuse: one workload, one fresh process.

    python3 perfbench/run.py --workload month-pipeline --seed 99 --seconds 40 --trace 0

Run from a source checkout; the program is imported from ``src/``. The
run sets up seven times (fresh interpreter through ``import odfuse.cli``,
run configs, and any input generated ahead of the pipeline) and reports the
median as ``setup_s``. It then runs the workload's pipeline again and
again, each stage through ``odfuse.cli.main`` as the console script does,
until ``--seconds`` are used (at least two pipelines). After each stage the
artifacts are checked on disk and their digests compared with the first
pipeline's; each pipeline's directory is deleted once checked. Every time
is rescaled to a reference machine speed (see ``speed.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each
the median over pipelines. With ``--trace 1`` untraced and traced pipelines
alternate; the last line holds the per-layer metrics of the traced ones
and ``trace.overhead_s``, and the spans are written to
``.perfbench_runs/<workload>-seed<n>.trace.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
import spans
from speed import SpeedProbe
from workloads import ALL_STAGES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 7
MIN_PIPELINES = 2
TIME_UNITS = ("s", "ms", "us", "ns")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import odfuse.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "odfuse" / "cli.py").is_file():
        _fail(f"no odfuse sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from odfuse import cli

    if Path(cli.__file__).resolve().parent != (SRC / "odfuse").resolve():
        _fail(f"odfuse imported from {cli.__file__}, not from {SRC}")
    return cli


def machine_facts() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads_env": threads}


class Outcomes:
    """Stage invocations attempted, failed, and failed only by a known defect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.known: dict[str, int] = {}
        self.messages: dict[tuple[str, str, str | None], None] = {}

    def record(self, stage: str, problems: list[tuple[str, str | None]]) -> None:
        self.attempted += 1
        defects = {defect for _, defect in problems}
        if None in defects:
            self.failed += 1
        elif defects:
            self.known_failed += 1
            for defect in defects:
                self.known[defect] = self.known.get(defect, 0) + 1
        for message, defect in problems:
            self.messages[(stage, message, defect)] = None


def set_up(workload: Workload, seed: int, work: Path, cli) -> tuple[float, float, Path | None]:
    """One full set-up: its wall time, speed factor and the second period's directory."""
    probe = SpeedProbe()
    probe.sample()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import odfuse.cli"], env=env, check=True)
    second = None
    if workload.second_period:
        second = work / "second"
        config = workload.write_config(seed + 1, second, work / "second.json")
        if cli.main(["--config", str(config), "synth"]) != 0:
            _fail("set-up: generating the second period failed")
    elapsed = time.perf_counter() - start
    probe.sample()
    return elapsed, probe.factor, second


def _invoke(cli, argv: list[str]):
    try:
        return cli.main(argv)
    except Exception as exc:  # a crashing stage is a failed operation; keep measuring
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def run_pipeline(workload: Workload, seed: int, work: Path, index: int, second: Path | None, cli,
                 outcomes: Outcomes, reference: dict, tracer: spans.Tracer | None) -> tuple[dict[str, float], float]:
    """Run every stage once; return each stage's wall time and the pipeline's speed factor."""
    out = work / f"p{index}"
    config = workload.write_config(seed, out, work / f"p{index}.json")
    probe = SpeedProbe()
    times = {}
    for stage in workload.stages:
        argv = workload.argv(stage, config, out, second)
        probe.sample()
        start = time.perf_counter()
        with tracer.span(f"cli.{stage}") if tracer else nullcontext():
            code = _invoke(cli, argv)
        times[stage] = time.perf_counter() - start
        if code != 0:
            outcomes.record(stage, [(f"exit {code}", None)])
            continue
        problems = workload.check(stage, out)
        if stage == "train" and workload.untimed_eval and index == 0:
            code = _invoke(cli, ["--config", str(config), "eval"])
            problems += checks.check_metrics(out) if code == 0 else [(f"untimed eval exit {code}", None)]
        try:
            digests = checks.digests(out, checks.STAGE_ARTIFACTS[stage])
        except OSError as exc:
            problems.append((f"artifact missing: {exc}", None))
        else:
            expected = reference.setdefault(stage, digests)
            problems += [(f"{name} differs from the first pipeline's", None)
                         for name in digests if digests[name] != expected[name]]
        outcomes.record(stage, problems)
    probe.sample()
    shutil.rmtree(out, ignore_errors=True)
    return times, probe.factor


def _stats(raw: list[float], factors: list[float]) -> str:
    ref = [t * f for t, f in zip(raw, factors)]
    return (f"median {statistics.median(ref):.4f} s (wall {statistics.median(raw):.4f} s), "
            f"min {min(ref):.4f}, max {max(ref):.4f}, n={len(ref)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0, help="time to spend on pipelines")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print("machine:", json.dumps(machine_facts(), sort_keys=True))
    print(f"workload: {workload.name}, seed {seed}, config {json.dumps(workload.config(seed, Path('out')))}")

    work = RUNS / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcomes = Outcomes()
    reference: dict = {}
    setups: list[tuple[float, float]] = []
    untraced: list[tuple[dict[str, float], float]] = []
    traced: list[tuple[dict[str, float], float, spans.Tracer]] = []
    try:
        for _ in range(SETUP_REPEATS):
            elapsed, factor, second = set_up(workload, seed, work, cli)
            setups.append((elapsed, factor))
        start = time.perf_counter()
        for index in itertools.count():
            if args.trace and index % 2 == 1:
                tracer = spans.Tracer()
                with tracer.installed():
                    times, factor = run_pipeline(workload, seed, work, index, second, cli, outcomes, reference, tracer)
                traced.append((times, factor, tracer))
            else:
                untraced.append(run_pipeline(workload, seed, work, index, second, cli, outcomes, reference, None))
            elapsed = time.perf_counter() - start
            if index + 1 >= MIN_PIPELINES and elapsed + 0.5 * elapsed / (index + 1) >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    factors = [f for _, f in untraced]
    print(f"speed factors: set-ups {' '.join(f'{f:.3f}' for _, f in setups)}, "
          f"pipelines {' '.join(f'{f:.3f}' for f in factors)}")
    print(f"setup_s: {_stats(*zip(*setups))}")
    for stage in workload.stages:
        print(f"{stage}_s: {_stats([t[stage] for t, _ in untraced], factors)}")
    pipelines = [sum(t.values()) for t, _ in untraced]
    print(f"pipeline_s: {_stats(pipelines, factors)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {peak_rss_mb:.1f} (MB, n=1)")
    share = (outcomes.failed + outcomes.known_failed) / outcomes.attempted
    print(f"failed_op_share: {share:.4f} ({outcomes.failed + outcomes.known_failed} of "
          f"{outcomes.attempted} stage invocations)")
    for (stage, message, defect) in outcomes.messages:
        label = f"known defect {defect}" if defect else "FAILED"
        print(f"check {label}: {stage}: {message}")
    for defect, count in outcomes.known.items():
        print(f"known defect {defect}: {count} of {outcomes.attempted} stage invocations "
              f"({checks.KNOWN_DEFECTS[defect]})")

    correct = outcomes.failed == 0
    pipeline_s = statistics.median(t * f for t, f in zip(pipelines, factors))
    if args.trace:
        layers = []
        for times, factor, tracer in traced:
            metrics = spans.layer_metrics(tracer)
            layers.append({k: v * factor if units.get(k) in TIME_UNITS else v for k, v in metrics.items()})
            for problem in spans.check_self_time_sums(tracer.spans):
                print(f"check FAILED: trace: {problem}")
                correct = False
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(sum(t.values()) * f for t, f, _ in traced) - pipeline_s
        for stage in ALL_STAGES:  # stages the workload does not run did no work
            values[f"cli.wall_s.{stage}"] = (
                statistics.median(t[stage] * f for t, f in untraced) if stage in workload.stages else 0.0
            )
            values.setdefault(f"cli.self_s.{stage}", 0.0)
        trace_file = RUNS / f"{workload.name}-seed{seed}.trace.json"
        trace_file.write_text(json.dumps([{"stage_s": times, "speed_factor": factor, "spans": tracer.spans,
                                           "counts": tracer.counts} for times, factor, tracer in traced]))
        print(f"spans: {trace_file}")
        names = [m["name"] for m in bench["per_layer"]]
    else:
        values = {"setup_s": statistics.median(t * f for t, f in setups), "pipeline_s": pipeline_s,
                  "peak_rss_mb": peak_rss_mb}
        names = [m["name"] for m in bench["end_to_end"]]
    missing = [name for name in names if name not in values]
    if missing:
        _fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
    if args.trace:
        for name in names:
            print(f"{name}: {values[name]!r} {units[name]}")
    result = {"correct": correct, "attempted": outcomes.attempted, "failed": outcomes.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
