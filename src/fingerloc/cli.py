"""Command-line entry points.

Subcommands: train, tune, augment, rationalize, synth, rerun. Every command
writes a run manifest listing its inputs (content-hashed), resolved
arguments, and emitted artifacts; ``fingerloc rerun manifest.json``
re-executes the recorded command and reproduces the outputs bit-identically
at --jobs 1.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import augment as aug
from . import data, hpo, models, nn, rationalize
from .errors import ConfigError, DataError, FingerlocError, NumericalError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# shared helpers

def _data_dir() -> Path | None:
    root = os.environ.get("FINGERLOC_DATA_DIR")
    return Path(root) if root else None


def _resolve_input(flag_value: str | None, default_name: str, required: bool) -> Path | None:
    if flag_value:
        return Path(flag_value)
    root = _data_dir()
    if root and (root / default_name).exists():
        return root / default_name
    if required:
        raise ConfigError(
            f"no --{default_name.split('.')[0]} path given and no {default_name} under FINGERLOC_DATA_DIR")
    return None


def _load_layout(path_flag: str | None) -> data.BeaconLayout:
    path = _resolve_input(path_flag, "layout.json", required=False)
    if path is None:
        return data.default_layout()
    if not path.exists():
        raise DataError(f"layout file not found: {path}")
    return data.load_layout(path)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_manifest(out_dir: Path, command: str, args: dict, inputs: list[Path],
                   artifacts: list[Path], seed: int | None, started: float) -> Path:
    manifest = {
        "tool": "fingerloc",
        "version": __version__,
        "command": command,
        "args": {k: (str(v) if isinstance(v, Path) else v) for k, v in args.items()},
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "artifacts": [str(p) for p in artifacts],
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def write_cdf(errors_feet: np.ndarray, path: Path) -> None:
    """Empirical CDF of per-sample errors: nondecreasing, final fraction 1.0."""
    ordered = np.sort(np.asarray(errors_feet, dtype=np.float64))
    n = len(ordered)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["error_ft", "fraction"])
        for i, e in enumerate(ordered):
            writer.writerow([repr(float(e)), repr((i + 1) / n)])


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except ValueError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _train_config(args: dict, section: dict) -> nn.TrainConfig:
    def pick(name, default):
        v = args.get(name)
        if v is None:
            v = section.get(name, default)
        return v

    try:
        return nn.TrainConfig(
            epochs=int(pick("epochs", 100)),
            batch_size=int(pick("batch_size", 100)),
            loss=str(pick("loss", "rmse")),
            optimizer=str(pick("optimizer", "adam")),
            learning_rate=pick("learning_rate", None),
            beta1=float(pick("beta1", 0.9)),
            beta2=float(pick("beta2", 0.999)),
            momentum=float(pick("momentum", 0.9)),
            seed=int(pick("seed", 0)),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# commands

def cmd_train(args: dict) -> None:
    started = time.monotonic()
    out_dir = Path(args["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _train_config(args, _load_config(args.get("config")).get("train", {}))
    layout = _load_layout(args.get("layout"))
    labelled_path = _resolve_input(args.get("labelled"), "labelled.csv", required=True)
    unlabelled_path = _resolve_input(args.get("unlabelled"), "unlabelled.csv", required=False)
    strategy = args.get("strategy") or "none"
    dataset = data.load_dataset(labelled_path, unlabelled_path, layout)
    kind = args.get("model") or "dnn"
    ratio = float(args.get("ratio", 0.8))

    policy = aug.AugmentationPolicy(seed=config.seed,
                                    threshold=int(args.get("threshold", 10)))
    autoencoder = None
    if strategy in ("autoencoder", "hybrid"):
        if not dataset.unlabelled:
            raise DataError("autoencoder augmentation needs an unlabelled file")
        autoencoder, _ = aug.train_autoencoder(dataset.unlabelled, policy,
                                               n_beacons=layout.n_beacons)

    if strategy != "none" and args.get("paper_protocol"):
        # augment the full pool, then split (the less careful historical protocol)
        result = aug.augment(dataset.labelled, strategy, policy, autoencoder)
        train_set, test_set = data.split(result.samples, ratio, config.seed)
    else:
        train_set, test_set = data.split(dataset.labelled, ratio, config.seed)
        if strategy != "none":
            result = aug.augment(train_set, strategy, policy, autoencoder)
            train_set = result.samples

    x_train, y_train = models.xy(kind, train_set, layout)
    x_test, y_test = models.xy(kind, test_set, layout)
    network = models.build_model(kind, seed=config.seed, n_beacons=layout.n_beacons)
    history = nn.train(network, x_train, y_train, config)
    metrics = nn.evaluate(network, x_test, y_test, layout.cell_feet)

    model_path = out_dir / "model.bin"
    model_path.write_bytes(nn.save_network(network))
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, {
        "model": kind,
        "optimizer": config.optimizer,
        "strategy": strategy,
        "train_samples": len(train_set),
        "test_samples": len(test_set),
        "mean_error_grid": metrics.mean_error_grid,
        "mean_error_feet": metrics.mean_error_feet,
        "epoch_losses": history,
        "parameter_count": network.count_params(),
    })
    cdf_path = out_dir / "cdf.csv"
    write_cdf(metrics.per_sample_errors_feet(layout.cell_feet), cdf_path)
    write_manifest(out_dir, "train", args, [labelled_path, unlabelled_path],
                   [model_path, metrics_path, cdf_path], config.seed, started)
    print(f"mean error: {metrics.mean_error_grid:.3f} grid units / "
          f"{metrics.mean_error_feet:.1f} ft ({len(test_set)} test samples)")


def cmd_tune(args: dict) -> None:
    started = time.monotonic()
    out_dir = Path(args["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = args.get("spec")
    spec = _load_config(spec_path) if spec_path else {}
    seed = int(args.get("seed") if args.get("seed") is not None else spec.get("seed", 0))
    kind = args.get("model") or "dnn"
    optimizer = args.get("optimizer") or "adam"
    if "space" in spec:
        try:
            space = hpo.SearchSpace(tuple((p["name"], float(p["min"]), float(p["max"]))
                                          for p in spec["space"]))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad search space: {e}") from None
    else:
        space = hpo.default_space(optimizer)
    exp_config = hpo.ExperimentConfig(
        algorithm=spec.get("algorithm", "bayesian"),
        max_trials=int(spec.get("max_trials", 15)),
        goal=float(spec.get("goal", 1.2)),
        seed=seed,
    )
    layout = _load_layout(args.get("layout"))
    labelled_path = _resolve_input(args.get("labelled"), "labelled.csv", required=True)
    dataset = data.load_dataset(labelled_path, None, layout)
    base = _train_config(args, {"optimizer": optimizer, "seed": seed})
    result = hpo.run_experiment(kind, dataset, space, exp_config, base_config=base)

    trials_path = out_dir / "trials.csv"
    with open(trials_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["trial", *space.names, "objective", "status"])
        for t in result.trials:
            writer.writerow([t.number, *(repr(t.assignment[n]) for n in space.names),
                             "" if t.objective is None else repr(t.objective), t.status])
    best_config = replace(base, **result.best.assignment)
    best_path = out_dir / "best_config.json"
    _write_json(best_path, {"train": asdict(best_config),
                            "objective_grid": result.best.objective})
    write_manifest(out_dir, "tune", args, [labelled_path, Path(spec_path)] if spec_path else [labelled_path],
                   [trials_path, best_path], seed, started)
    print(f"best objective {result.best.objective:.4f} grid units after "
          f"{len(result.trials)} trials: {result.best.assignment}")


def cmd_augment(args: dict) -> None:
    started = time.monotonic()
    out_dir = Path(args["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    layout = _load_layout(args.get("layout"))
    labelled_path = _resolve_input(args.get("labelled"), "labelled.csv", required=True)
    unlabelled_path = _resolve_input(args.get("unlabelled"), "unlabelled.csv", required=False)
    dataset = data.load_dataset(labelled_path, unlabelled_path, layout)
    seed = int(args.get("seed") or 0)
    strategy = args.get("strategy") or "naive"
    policy = aug.AugmentationPolicy(threshold=int(args.get("threshold", 10)), seed=seed)
    autoencoder = None
    if strategy in ("autoencoder", "hybrid"):
        if not dataset.unlabelled:
            raise DataError("autoencoder strategy needs an unlabelled file")
        autoencoder, _ = aug.train_autoencoder(dataset.unlabelled, policy,
                                               n_beacons=layout.n_beacons)
    result = aug.augment(dataset.labelled, strategy, policy, autoencoder)
    augmented_path = out_dir / "augmented.csv"
    data.write_labelled_csv(result.samples, layout, augmented_path, sources=result.sources)
    counts_path = out_dir / "counts.json"
    _write_json(counts_path, result.counts)
    write_manifest(out_dir, "augment", args, [labelled_path, unlabelled_path],
                   [augmented_path, counts_path], seed, started)
    print(f"strategy {strategy}: {result.counts}")


def cmd_rationalize(args: dict) -> None:
    started = time.monotonic()
    out_dir = Path(args["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    layout = _load_layout(args.get("layout"))
    labelled_path = _resolve_input(args.get("labelled"), "labelled.csv", required=True)
    dataset = data.load_dataset(labelled_path, None, layout)
    if not dataset.labelled:
        raise DataError("empty labelled dataset")
    seed = int(args.get("seed") or 0)
    n_seeds = int(args.get("n_seeds", 5))
    seeds = [seed + i for i in range(n_seeds)]
    config = _train_config(args, _load_config(args.get("config")).get("train", {"seed": seed}))
    kind = args.get("model") or "dnn"
    result = rationalize.dropout_study(kind, config, dataset, seeds)
    ranked = rationalize.rank_beacons(result)

    study_path = out_dir / "study.csv"
    with open(study_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["beacon", "residual_samples", "mean_error_ft", "delta_ft", "flag"])
        for impact, improves in ranked:
            writer.writerow([
                impact.beacon_id, impact.residual_samples,
                "" if impact.mean_error_feet is None else repr(impact.mean_error_feet),
                "" if impact.delta_feet is None else repr(impact.delta_feet),
                "removal_improves_accuracy" if improves else (impact.error or ""),
            ])
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, {
        "baseline_mean_error_ft": result.baseline_feet,
        "seeds": result.seeds,
        "model": kind,
        "beacons": [
            {"id": i.beacon_id, "residual_samples": i.residual_samples,
             "mean_error_ft": i.mean_error_feet, "delta_ft": i.delta_feet,
             "error": i.error}
            for i in result.impacts
        ],
    })
    write_manifest(out_dir, "rationalize", args, [labelled_path],
                   [study_path, summary_path], seed, started)
    print(f"baseline {result.baseline_feet:.1f} ft; "
          f"top impact: {ranked[0][0].beacon_id} ({ranked[0][0].delta_feet})")


def cmd_synth(args: dict) -> None:
    started = time.monotonic()
    out_dir = Path(args["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(args.get("seed") or 0)
    layout = _load_layout(args.get("layout"))
    model = data.PathLossModel(
        noise_std=float(args.get("noise_std", 2.0)),
        detection_floor=float(args.get("detection_floor", -95.0)),
    )
    dataset = data.synth_generate(
        layout, model,
        n_locations=int(args.get("locations", 200)),
        samples_per_location=int(args.get("samples_per_location", 5)),
        seed=seed,
        n_unlabelled=int(args.get("unlabelled_count", 0)),
    )
    labelled_path = out_dir / "labelled.csv"
    unlabelled_path = out_dir / "unlabelled.csv"
    layout_path = out_dir / "layout.json"
    data.write_labelled_csv(dataset.labelled, layout, labelled_path)
    data.write_unlabelled_csv(dataset.unlabelled, layout, unlabelled_path)
    data.save_layout(layout, layout_path)
    write_manifest(out_dir, "synth", args, [],
                   [labelled_path, unlabelled_path, layout_path], seed, started)
    print(f"wrote {len(dataset.labelled)} labelled / {len(dataset.unlabelled)} unlabelled samples")


def cmd_rerun(args: dict) -> None:
    manifest_path = Path(args["manifest"])
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        command = manifest["command"]
        recorded = manifest["args"]
    except (OSError, ValueError, KeyError) as e:
        raise ConfigError(f"bad manifest {manifest_path}: {e}") from None
    if command not in COMMANDS or command == "rerun":
        raise ConfigError(f"manifest names unknown command {command!r}")
    if args.get("out_dir"):
        recorded = dict(recorded, out_dir=args["out_dir"])
    COMMANDS[command](recorded)


COMMANDS = {
    "train": cmd_train,
    "tune": cmd_tune,
    "augment": cmd_augment,
    "rationalize": cmd_rationalize,
    "synth": cmd_synth,
    "rerun": cmd_rerun,
}


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--labelled", help="labelled CSV (location,date,<beacons>)")
    p.add_argument("--unlabelled", help="unlabelled CSV (date,<beacons>)")
    p.add_argument("--layout", help="beacon layout JSON (default: built-in layout)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (1 = fully serial)")
    p.add_argument("--out-dir", default="out", dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fingerloc",
                                     description="RSSI fingerprint localization toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a localization model")
    _add_common(p)
    p.add_argument("--model", choices=("dnn", "cnn"), default="dnn")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    p.add_argument("--strategy", choices=("none", "naive", "autoencoder", "hybrid"),
                   default="none", help="augmentation applied before training")
    p.add_argument("--threshold", type=int, default=10,
                   help="under-representation threshold for augmentation")
    p.add_argument("--ratio", type=float, default=0.8, help="train fraction of the split")
    p.add_argument("--paper-protocol", action="store_true", dest="paper_protocol",
                   help="augment the full pool before splitting instead of train-split only")

    p = sub.add_parser("tune", help="hyperparameter search")
    _add_common(p)
    p.add_argument("--spec", help="experiment spec JSON (algorithm, max_trials, goal, space)")
    p.add_argument("--model", choices=("dnn", "cnn"), default="dnn")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("augment", help="grow the labelled set")
    _add_common(p)
    p.add_argument("--strategy", choices=("none", "naive", "autoencoder", "hybrid"),
                   default="naive")
    p.add_argument("--threshold", type=int, default=10)

    p = sub.add_parser("rationalize", help="per-beacon dropout study")
    _add_common(p)
    p.add_argument("--model", choices=("dnn", "cnn"), default="dnn")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--n-seeds", type=int, default=5, dest="n_seeds")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--locations", type=int, default=200)
    p.add_argument("--samples-per-location", type=int, default=5, dest="samples_per_location")
    p.add_argument("--unlabelled-count", type=int, default=0, dest="unlabelled_count")
    p.add_argument("--noise-std", type=float, default=2.0, dest="noise_std")

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default=None, dest="out_dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    args = {k: v for k, v in vars(ns).items() if k != "command"}
    try:
        COMMANDS[ns.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FingerlocError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
