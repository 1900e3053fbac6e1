"""Command-line pipeline driver.

Subcommands: ``synth``, ``train``, ``eval``, ``explain``, ``stability``,
``route``. One JSON run configuration drives everything; flags override
the seed and output directory. Every command logs a hash of its effective
configuration and overwrites its artifacts idempotently.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(including missing upstream artifacts), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import sys
from pathlib import Path

from .core import RoadTag, make_hour_key
from .errors import ConfigError, DataError, InternalError, OdfuseError
from .fusion import (
    GbtHyperparams,
    evaluate,
    load_model,
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

DEFAULT_CONFIG: dict = {
    "seed": 42,
    "out_dir": "out",
    "valid_fraction": 0.2,
    "network": None,
    "data": None,
    "synthetic": {
        "days": 30,
        "gains": {"Primary": 1.4, "Trunk": 1.0, "Secondary": 0.7},
        "noise_scale": 0.1,
        "censor_threshold": 120,
    },
    "hyperparams": {},
    "simulation": {"tollbooth_csv": None, "routing_csv": None, "start": None, "end": None},
    "explain": {"target": "total", "max_rows": 256, "repeats": 5},
    "stability": {"routing_a": None, "routing_b": None},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed: int | None, out_dir: str | None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            user = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config {p}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config root must be an object, got {type(user).__name__}")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = _merge(config, user)
    if seed is not None:
        config["seed"] = seed
    if out_dir is not None:
        config["out_dir"] = out_dir
    if config.get("data") and config.get("synthetic"):
        explicit = config["data"].get("tollbooth_csv") or config["data"].get("routing_csv")
        if explicit:
            raise ConfigError("exactly one of data paths or synthetic parameters may be active")
    return config


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _out_dir(config: dict) -> Path:
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _network(config: dict) -> NetworkConfig:
    path = config.get("network")
    return load_network(path) if path else trondheim_fixture()


def _setting(value, key: str, convert):
    """``convert(value)``, or a ConfigError naming the config ``key``."""
    try:
        return convert(value)
    except (AttributeError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise ConfigError(f"{key}: bad value {value!r}: {exc}") from exc


def _seed(config: dict) -> int:
    return _setting(config["seed"], "seed", int)


def _bias_profile(config: dict) -> BiasProfile:
    synth = config.get("synthetic") or {}
    gains = _setting(synth.get("gains", {}), "synthetic.gains",
                     lambda raw: {RoadTag.parse(k): float(v) for k, v in raw.items()})
    return BiasProfile(
        gains=gains,
        noise_scale=_setting(synth.get("noise_scale", 0.0), "synthetic.noise_scale", float),
        censor_threshold=_setting(synth.get("censor_threshold", 0.0), "synthetic.censor_threshold", float),
        seed=_seed(config),
    )


def _data_paths(config: dict) -> tuple[Path, Path]:
    """Training data files: explicit paths, or the synth outputs in out_dir."""
    data = config.get("data") or {}
    out = Path(config["out_dir"])
    tollbooth = Path(data.get("tollbooth_csv") or out / "tollbooth.csv")
    routing = Path(data.get("routing_csv") or out / "routing.csv")
    for p, label in ((tollbooth, "tollbooth"), (routing, "routing")):
        if not p.exists():
            raise DataError(f"missing {label} data file: {p} (run `odfuse synth` or point data.* at files)")
    return tollbooth, routing


def _hyperparams(config: dict) -> GbtHyperparams:
    hp = dict(config.get("hyperparams") or {})
    hp.setdefault("seed", _seed(config))
    try:
        return GbtHyperparams(**hp)
    except TypeError as exc:
        raise ConfigError(f"hyperparams: {exc}") from exc


def cmd_synth(config: dict, days_override: int | None = None) -> int:
    if not config.get("synthetic"):
        raise ConfigError("synth requires synthetic parameters in the config")
    if days_override is not None:
        config = _merge(config, {"synthetic": {"days": days_override}})
    days = _setting(config["synthetic"].get("days", 30), "synthetic.days", int)
    if days < 1:
        raise ConfigError(f"synthetic.days must be >= 1, got {days}")
    network = _network(config)
    profile = _bias_profile(config)
    out = _out_dir(config)
    tollbooth, routing = generate_synthetic(network, days, profile)
    write_tollbooth_csv(out / "tollbooth.csv", tollbooth)
    write_routing_csv(out / "routing.csv", routing)
    write_difference_csv(out / "difference.csv", difference_series(tollbooth, routing))
    log.info("synth: %d tollbooth rows, %d routing rows -> %s", len(tollbooth), len(routing), out)
    return 0


def cmd_train(config: dict) -> int:
    network = _network(config)
    tollbooth_path, routing_path = _data_paths(config)
    tollbooth = read_tollbooth_csv(tollbooth_path, network)
    routing = read_routing_csv(routing_path, network)
    dataset = build_dataset(tollbooth, routing, _setting(config["valid_fraction"], "valid_fraction", float))
    model = train(dataset, _hyperparams(config))
    out = _out_dir(config)
    save_model(model, out / "model.json")
    log.info("train: %d rows (split %d) -> %s", dataset.n_rows, dataset.split_index, out / "model.json")
    return 0


def _load_model_and_dataset(config: dict):
    network = _network(config)
    model_path = Path(config["out_dir"]) / "model.json"
    if not model_path.exists():
        raise DataError(f"missing model artifact: {model_path} (run `odfuse train` first)")
    model = load_model(model_path)
    tollbooth_path, routing_path = _data_paths(config)
    tollbooth = read_tollbooth_csv(tollbooth_path, network)
    routing = read_routing_csv(routing_path, network)
    dataset = build_dataset(tollbooth, routing, _setting(config["valid_fraction"], "valid_fraction", float))
    return network, model, dataset


def cmd_eval(config: dict) -> int:
    _, model, dataset = _load_model_and_dataset(config)
    out = _out_dir(config)
    write_metrics_csv(out / "metrics.csv", evaluate(model, dataset))
    write_residuals_csv(out / "residuals.csv", residual_table(model, dataset))
    # Diagnostic only: the headline baseline row uses the raw flow; this
    # logs how much a linear rescaling fitted on the training split would
    # close the gap.
    import numpy as np

    pf, y = dataset.X_train[:, 0], dataset.Y_train[:, 0]
    coef, intercept = np.polyfit(pf, y, 1) if pf.std() > 0 else (0.0, float(y.mean()))
    pv, yv = dataset.X_valid[:, 0], dataset.Y_valid[:, 0]
    ss_tot = float(((yv - yv.mean()) ** 2).sum())
    if ss_tot > 0:
        r2 = 1.0 - float(((coef * pv + intercept - yv) ** 2).sum()) / ss_tot
        log.info("eval: linearly rescaled flow baseline valid r2 %.4f", r2)
    log.info("eval: metrics.csv and residuals.csv -> %s", out)
    return 0


def _positive_int(opts: dict, key: str, default: int) -> int:
    value = opts.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"explain.{key} must be an integer >= 1, got {value!r}")
    return value


def cmd_explain(config: dict) -> int:
    opts = config.get("explain") or {}
    target = opts.get("target", "total")
    max_rows = _positive_int(opts, "max_rows", 256)
    repeats = _positive_int(opts, "repeats", 5)
    _, model, dataset = _load_model_and_dataset(config)
    X = dataset.X_valid
    if X.shape[0] > max_rows:
        stride = X.shape[0] / max_rows
        picks = sorted({int(i * stride) for i in range(max_rows)})
        X = X[picks]
    out = _out_dir(config)
    phi, base = shap_matrix(model, target, X)
    write_importance_csv(out / "importance.csv", global_importance(model.feature_names, phi))
    write_attributions_csv(out / "attributions.csv", model.feature_names, phi, base)
    drops = permutation_importance(model, target, dataset, repeats=repeats, seed=_seed(config))
    write_permutation_csv(out / "permutation.csv", drops)
    log.info("explain: target %s over %d rows -> %s", target, X.shape[0], out)
    return 0


def cmd_stability(config: dict, routing_a: str | None, routing_b: str | None) -> int:
    opts = config.get("stability") or {}
    path_a = routing_a or opts.get("routing_a")
    path_b = routing_b or opts.get("routing_b")
    if not path_a or not path_b:
        raise ConfigError("stability needs two routing CSVs (--routing-a/--routing-b or config.stability)")
    rows_a = read_routing_csv(path_a)
    rows_b = read_routing_csv(path_b)
    out = _out_dir(config)
    write_stability_csv(out / "stability.csv", compare_periods(rows_a, rows_b))
    log.info("stability: %s vs %s -> %s", path_a, path_b, out / "stability.csv")
    return 0


def cmd_route(config: dict) -> int:
    network = _network(config)
    model_path = Path(config["out_dir"]) / "model.json"
    if not model_path.exists():
        raise DataError(f"missing model artifact: {model_path} (run `odfuse train` first)")
    model = load_model(model_path)
    sim = config.get("simulation") or {}
    tollbooth_path = sim.get("tollbooth_csv")
    routing_path = sim.get("routing_csv")
    if tollbooth_path is None or routing_path is None:
        tollbooth_default, routing_default = _data_paths(config)
        tollbooth_path = tollbooth_path or tollbooth_default
        routing_path = routing_path or routing_default
    tollbooth = read_tollbooth_csv(tollbooth_path, network)
    routing = read_routing_csv(routing_path, network)
    hours = None
    if sim.get("start") or sim.get("end"):
        start = _setting(sim["start"], "simulation.start", make_hour_key).timestamp if sim.get("start") else None
        end = _setting(sim["end"], "simulation.end", make_hour_key).timestamp if sim.get("end") else None
        hours = [
            hk
            for hk in tollbooth.hours
            if (start is None or hk.timestamp >= start) and (end is None or hk.timestamp <= end)
        ]
        if not hours:
            raise DataError("no tollbooth hours inside the requested simulation window")
    run = build_od_matrix(network, model, tollbooth, routing, hours)
    problems = conservation_violations(run)
    if problems:
        raise InternalError("conservation violated: " + "; ".join(problems[:5]))
    out = _out_dir(config)
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
    config = load_config(args.config, args.seed, args.out)
    log.info("command %s, config hash %s", args.command, config_hash(config))
    if args.command == "synth":
        return cmd_synth(config, args.days)
    if args.command == "train":
        return cmd_train(config)
    if args.command == "eval":
        return cmd_eval(config)
    if args.command == "explain":
        return cmd_explain(config)
    if args.command == "stability":
        return cmd_stability(config, args.routing_a, args.routing_b)
    if args.command == "route":
        return cmd_route(config)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"odfuse: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"odfuse: data error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"odfuse: internal error: {exc}", file=sys.stderr)
        return 3
    except OdfuseError as exc:
        print(f"odfuse: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
