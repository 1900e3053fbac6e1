"""Command-line pipeline driver.

Subcommands: ``synth``, ``train``, ``eval``, ``explain``, ``stability``,
``route``. One JSON run configuration drives everything; flags override
the seed, output directory and synthetic days. ``CONFIG_RULES`` states each
config key's rule and default, and ``load_config`` checks every key once
against it, so commands read plain values. Every command logs a hash of its
effective configuration and overwrites its artifacts idempotently.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(including missing upstream artifacts), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

from .core import RoadTag, make_hour_key, read_json
from .errors import ConfigError, DataError, InternalError, OdfuseError
from .errors import NUMBER, OBJECT, PATH, TEXT, Default, check, integer, is_number, one_of
from .fusion import (
    GbtHyperparams,
    evaluate,
    load_model,
    rescaled_baseline_r2,
    residual_table,
    save_model,
    train,
    write_metrics_csv,
    write_residuals_csv,
)
from .attribution import (
    global_importance,
    permutation_importance,
    shap_matrix,
    write_attributions_csv,
    write_importance_csv,
    write_permutation_csv,
)
from .ingest import (
    TARGET_NAMES,
    BiasProfile,
    build_dataset,
    difference_series,
    generate_synthetic,
    read_routing_csv,
    read_tollbooth_csv,
    write_difference_csv,
    write_routing_csv,
    write_tollbooth_csv,
)
from .network import NetworkConfig, load_network, trondheim_fixture
from .routing import build_od_matrix, conservation_violations, write_ledger_csv, write_od_csv
from .stability import compare_periods, write_stability_csv

log = logging.getLogger("odfuse")

def _is_hour(value) -> bool:
    try:
        make_hour_key(value)
    except DataError:
        return False
    return True


_HOUR = (lambda v: v is None or _is_hour(v), "an ISO hour such as 2025-01-30T17:00, or null", None)
_GAINS = {tag: Default((is_number, "finite and numeric", f"gain for {tag}"), gain)
          for tag, gain in (("Primary", 1.4), ("Trunk", 1.0), ("Secondary", 0.7))}
_SOURCE = {"tollbooth_csv": PATH, "routing_csv": PATH}
_SYNTHETIC = {"days": Default(integer(1), 30), "gains": Default(_GAINS, {}), "noise_scale": Default(NUMBER, 0.1),
              "censor_threshold": Default(NUMBER, 120)}
_EXPLAIN = {"target": Default(one_of(TARGET_NAMES), "total"), "max_rows": Default(integer(1), 256),
            "repeats": Default(integer(1), 5)}

# Every key load_config accepts, with its rule and its default (see
# errors.check for the rule forms); GbtHyperparams checks the keys of
# hyperparams. The rules of data and synthetic let a null through, which
# switches that source off.
CONFIG_RULES: dict = {
    "seed": Default(integer(0), 42),
    "out_dir": Default(TEXT, "out"),
    "valid_fraction": Default(NUMBER, 0.2),
    "network": Default(PATH, None),
    "data": Default(_SOURCE, None),
    "synthetic": Default(Default(_SYNTHETIC, None), {}),
    "hyperparams": Default(OBJECT, {}),
    "simulation": Default({**_SOURCE, "start": _HOUR, "end": _HOUR}, {}),
    "explain": Default(_EXPLAIN, {}),
    "stability": Default({"routing_a": PATH, "routing_b": PATH}, {}),
}
# A null one of these sections means its defaults: load_config drops it.
_NULL_MEANS_DEFAULTS = ("hyperparams", "simulation", "explain", "stability")


def load_config(path: str | None, seed: int | None, out_dir: str | None, days: int | None = None) -> dict:
    """The file at ``path`` (or no keys), then the flags, checked once against
    CONFIG_RULES, which fills in every missing key's default."""
    config = {} if path is None else read_json(path, "config file", ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"config root must be an object, got {type(config).__name__}")
    unknown = set(config) - set(CONFIG_RULES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = {key: value for key, value in config.items() if value is not None or key not in _NULL_MEANS_DEFAULTS}
    if seed is not None:
        config["seed"] = seed
    if out_dir is not None:
        config["out_dir"] = out_dir
    if days is not None and isinstance(config.setdefault("synthetic", {}), dict):
        config["synthetic"]["days"] = days
    check("", config, CONFIG_RULES)
    data = config["data"]
    if data and config["synthetic"] and (data["tollbooth_csv"] or data["routing_csv"]):
        raise ConfigError("exactly one of data paths or synthetic parameters may be active")
    start, end = config["simulation"]["start"], config["simulation"]["end"]
    if start and end and make_hour_key(start).timestamp > make_hour_key(end).timestamp:
        raise ConfigError(f"simulation.start {start} is later than simulation.end {end}")
    return config


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    # hyperparams are checked only by train, so a lone surrogate may still be there.
    return hashlib.sha256(canon.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def _out_dir(config: dict) -> Path:
    """The output directory; a file in its place is a ConfigError."""
    out = Path(config["out_dir"])
    if out.exists() and not out.is_dir():
        raise ConfigError(f"out_dir {out} is not a directory")
    return out


def _network(config: dict) -> NetworkConfig:
    return load_network(config["network"]) if config["network"] else trondheim_fixture()


def _built(key: str, build, **kwargs):
    """``build(**kwargs)``, a typed object that range-checks itself. Its rejection, or the
    TypeError of a keyword it lacks, becomes a ConfigError naming ``key``."""
    try:
        return build(**kwargs)
    except (TypeError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _model(out: Path):
    path = out / "model.json"
    if not path.exists():
        raise DataError(f"missing model artifact: {path} (run `odfuse train` first)")
    return load_model(path)


def _tables(config: dict, out: Path, section: str = "data"):
    """Tollbooth and routing tables from ``section``'s CSVs, else data.*'s, else synth's in ``out``."""
    def path(name: str):
        for opts in (config[section], config["data"]):
            if opts and opts[f"{name}_csv"]:
                return opts[f"{name}_csv"]
        return out / f"{name}.csv"

    return read_tollbooth_csv(path("tollbooth")), read_routing_csv(path("routing"))


def _model_and_dataset(config: dict, out: Path):
    model = _model(out)
    return model, build_dataset(*_tables(config, out), config["valid_fraction"])


def cmd_synth(config: dict, out: Path) -> int:
    synth = config["synthetic"]
    if not synth:
        raise ConfigError("synth requires synthetic parameters in the config")
    network = _network(config)
    profile = _built("synthetic", BiasProfile, gains={RoadTag(k): v for k, v in synth["gains"].items()},
                     noise_scale=synth["noise_scale"], censor_threshold=synth["censor_threshold"],
                     seed=config["seed"])
    out.mkdir(parents=True, exist_ok=True)
    tollbooth, routing = generate_synthetic(network, synth["days"], profile)
    write_tollbooth_csv(out / "tollbooth.csv", tollbooth)
    write_routing_csv(out / "routing.csv", routing)
    write_difference_csv(out / "difference.csv", difference_series(tollbooth, routing))
    log.info("synth: %d tollbooth rows, %d routing rows -> %s", len(tollbooth), len(routing), out)
    return 0


def cmd_train(config: dict, out: Path) -> int:
    hp = _built("hyperparams", GbtHyperparams, **{"seed": config["seed"], **config["hyperparams"]})
    out.mkdir(parents=True, exist_ok=True)
    path = out / "model.json"
    if path.is_dir():  # found before the fit, not after it
        raise ConfigError(f"cannot write {path}: Is a directory")
    dataset = build_dataset(*_tables(config, out), config["valid_fraction"])
    save_model(train(dataset, hp), path)
    log.info("train: %d rows (split %d) -> %s", dataset.n_rows, dataset.split_index, path)
    return 0


def cmd_eval(config: dict, out: Path) -> int:
    model, dataset = _model_and_dataset(config, out)
    report = evaluate(model, dataset)
    write_metrics_csv(out / "metrics.csv", report)
    write_residuals_csv(out / "residuals.csv", residual_table(dataset, report.pred_valid))
    r2 = rescaled_baseline_r2(dataset)  # diagnostic only, for the log
    if r2 is not None:
        log.info("eval: linearly rescaled flow baseline valid r2 %.4f", r2)
    log.info("eval: metrics.csv and residuals.csv -> %s", out)
    return 0


def cmd_explain(config: dict, out: Path) -> int:
    opts = config["explain"]
    model, dataset = _model_and_dataset(config, out)
    X = dataset.X_valid
    if X.shape[0] > opts["max_rows"]:
        stride = X.shape[0] / opts["max_rows"]
        picks = sorted({int(i * stride) for i in range(opts["max_rows"])})
        X = X[picks]
    # Every result before the first write, so that a failure leaves the earlier artifacts as they were.
    phi, base = shap_matrix(model, opts["target"], X)
    drops = permutation_importance(model, opts["target"], dataset,
                                   repeats=opts["repeats"], seed=config["seed"])
    write_importance_csv(out / "importance.csv", global_importance(model.feature_names, phi))
    write_attributions_csv(out / "attributions.csv", model.feature_names, phi, base)
    write_permutation_csv(out / "permutation.csv", drops)
    log.info("explain: target %s over %d rows -> %s", opts["target"], X.shape[0], out)
    return 0


def cmd_stability(config: dict, out: Path, routing_a: str | None, routing_b: str | None) -> int:
    path_a = routing_a or config["stability"]["routing_a"]
    path_b = routing_b or config["stability"]["routing_b"]
    if not path_a or not path_b:
        raise ConfigError("stability needs two routing CSVs (--routing-a/--routing-b or config.stability)")
    out.mkdir(parents=True, exist_ok=True)
    rows_a = read_routing_csv(path_a)
    rows_b = read_routing_csv(path_b)
    write_stability_csv(out / "stability.csv", compare_periods(rows_a, rows_b))
    log.info("stability: %s vs %s -> %s", path_a, path_b, out / "stability.csv")
    return 0


def cmd_route(config: dict, out: Path) -> int:
    network = _network(config)
    model = _model(out)
    tollbooth, routing = _tables(config, out, "simulation")
    sim = config["simulation"]
    start, end = (make_hour_key(sim[k]).timestamp if sim[k] else None for k in ("start", "end"))
    run = build_od_matrix(network, model, tollbooth, routing, start, end)
    problems = conservation_violations(run)
    if problems:
        raise InternalError("conservation violated: " + "; ".join(problems[:5]))
    write_od_csv(out / "od_matrix.csv", run.matrix)
    write_ledger_csv(out / "ledger.csv", run.ledger)
    log.info("route: %d OD entries over %d decisions -> %s", len(run.matrix), len(run.decisions), out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1 per the contract
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="odfuse", description=__doc__)
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    synth = sub.add_parser("synth", help="generate synthetic tollbooth and routing CSVs")
    synth.add_argument("--days", type=int, help="override synthetic.days")
    sub.add_parser("train", help="fit the fusion model and save model.json")
    sub.add_parser("eval", help="write metrics.csv and residuals.csv")
    sub.add_parser("explain", help="write importance, attribution and permutation CSVs")
    stab = sub.add_parser("stability", help="compare two routing periods")
    stab.add_argument("--routing-a", help="first period routing CSV")
    stab.add_argument("--routing-b", help="second period routing CSV")
    sub.add_parser("route", help="build the OD matrix and conservation ledger")
    return parser


def run(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    config = load_config(args.config, args.seed, args.out, getattr(args, "days", None))
    log.info("command %s, config hash %s", args.command, config_hash(config))
    # Checked before any command reads input; synth, train and stability create it.
    out = _out_dir(config)
    if args.command == "stability":
        return cmd_stability(config, out, args.routing_a, args.routing_b)
    commands = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
                "explain": cmd_explain, "route": cmd_route}
    return commands[args.command](config, out)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"odfuse: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"odfuse: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an artifact that cannot be written: every reader maps its own errors
        print(f"odfuse: error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"odfuse: internal error: {exc}", file=sys.stderr)
        return 3
    except OdfuseError as exc:
        print(f"odfuse: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
