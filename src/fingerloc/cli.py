"""Command-line entry points.

Subcommands: train, tune, augment, rationalize, synth, rerun. An option is
registered only on the commands that read it; its parser default is its only
default. ``_run`` resolves a command's input files (``INPUTS``) to absolute
paths (a replay takes the recorded paths alone) and opens each once: it
hashes the bytes it read and parses those bytes, the layout and tables first,
then the ``--config`` or ``--spec`` document. It
runs the command on them and writes a manifest of those SHA-256 digests, the
arguments and the artifacts. ``fingerloc rerun manifest.json`` replays the
command, refusing each input whose bytes differ from the recorded digest before
it is parsed, and reproduces its outputs bit-identically.

Exit codes: 0 ok, 2 configuration error or invalid flag, 3 data error,
4 numerical error.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import time
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import augment as aug
from . import data, hpo, models, nn, rationalize
from .errors import ConfigError, DataError, NumericalError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# input option -> (file looked up under FINGERLOC_DATA_DIR when the option is absent, required)
INPUTS = {"labelled": ("labelled.csv", True), "unlabelled": ("unlabelled.csv", False),
          "layout": ("layout.json", False), "config": (None, False), "spec": (None, False)}


# ---------------------------------------------------------------------------
# shared helpers

def _resolve_inputs(args: dict, root: str | None) -> dict[str, str]:
    """Absolute paths of the input options this command registers and was given. An option left unset
    takes its ``INPUTS`` fallback file under ``root`` (``FINGERLOC_DATA_DIR``) if there is one."""
    resolved = {}
    for name, (fallback, required) in INPUTS.items():
        if name not in args:
            continue
        path = args[name]
        if path is None and root and fallback and (Path(root) / fallback).exists():
            path = Path(root) / fallback
        if path is None and required:
            raise ConfigError(f"no --{name} path given and no {fallback} under FINGERLOC_DATA_DIR")
        if path is not None:
            resolved[name] = str(Path(path).resolve())
    return resolved


def write_manifest(out_dir: Path, command: str, args: dict, inputs: dict[str, str],
                   artifacts: list[Path], seed: int | None, started: float) -> Path:
    manifest = {
        "tool": "fingerloc",
        "version": __version__,
        "command": command,
        "args": args,
        "seed": seed,
        "inputs": inputs,
        "artifacts": [str(p) for p in artifacts],
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    path = out_dir / "manifest.json"
    data.write_json(path, manifest)
    return path


def write_cdf(errors_feet: np.ndarray, path: Path) -> None:
    """Empirical CDF of per-sample errors: nondecreasing, final fraction 1.0. An error that is not finite is a
    ``NumericalError`` naming ``path``, raised before the file is opened."""
    ordered = np.sort(np.asarray(errors_feet, dtype=np.float64))
    if not np.all(np.isfinite(ordered)):  # NaN and inf sort last
        raise NumericalError(f"cannot write {path}: a per-sample error is {float(ordered[-1])!r} ft")
    n = len(ordered)
    data.write_table(path, ["error_ft", "fraction"], ([e, (i + 1) / n] for i, e in enumerate(ordered.tolist())))


def _load_config(stream: io.TextIOBase | None) -> dict:
    """Parse a ``--config`` or ``--spec`` file's text into its JSON object; {} when no file is given."""
    try:
        doc = {} if stream is None else json.load(stream)
    except (ValueError, RecursionError) as e:  # RecursionError: nested past the interpreter's limit
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _overlay(cls, section, args: dict, what: str):
    """``cls``'s defaults, overlaid by the JSON object ``section`` (see :func:`data.checked`), then by the flags
    in ``args``."""
    types = typing.get_type_hints(cls)
    values = data.checked(section, types, what, ConfigError)
    values.update((k, v) for k, v in args.items() if k in types and v is not None)
    return cls(**values)


def _train_config(args: dict, document: dict) -> nn.TrainConfig:
    """The ``--config`` ``document``'s ``train`` section overlaid by the flags given. ``objective_grid`` is
    allowed beside it, so that ``tune``'s ``best_config.json`` passes back as written."""
    doc = data.checked(document, {"train": dict, "objective_grid": float}, "config", ConfigError)
    return _overlay(nn.TrainConfig, doc.get("train", {}), args, "train config")


# ---------------------------------------------------------------------------
# commands: (resolved args, out_dir, layout, dataset, the parsed --config or --spec document or {})
# -> (artifact paths, seed). A command opens no input file: _run reads and parses them all.

def cmd_train(args: dict, out_dir: Path, layout: data.BeaconLayout, dataset: data.Dataset, document: dict):
    config = _train_config(args, document)
    kind, strategy, ratio = args["model"], args["strategy"], args["ratio"]
    policy = aug.AugmentationPolicy(seed=config.seed, threshold=args["threshold"])

    pool = dataset.labelled
    if strategy != "none" and args["paper_protocol"]:
        # augment the full pool, then split (the less careful historical protocol)
        pool = aug.augment(pool, strategy, policy, dataset.unlabelled).samples
    train_set, test_set = data.split(pool, ratio, config.seed)
    if len(pool) >= 2 and not (len(train_set) and len(test_set)):  # fewer rows are models.fit's DataError
        raise ConfigError(f"--ratio {ratio} leaves an empty partition of {len(pool)} rows")
    if strategy != "none" and not args["paper_protocol"]:
        train_set = aug.augment(train_set, strategy, policy, dataset.unlabelled).samples

    network, history, metrics = models.fit(kind, train_set, test_set, layout, config)

    # the files that can refuse a figure come first, so a refused run leaves none
    metrics_path = out_dir / "metrics.json"
    data.write_json(metrics_path, {
        "model": kind,
        "optimizer": config.optimizer,
        "strategy": strategy,
        "train_samples": len(train_set),
        "test_samples": len(test_set),
        "mean_error_grid": metrics.mean_error_grid,
        "mean_error_feet": metrics.mean_error_feet,
        "epoch_losses": history,
        "parameter_count": network.theta.size,
    })
    cdf_path = out_dir / "cdf.csv"
    try:
        write_cdf(metrics.per_sample_errors_feet, cdf_path)
    except NumericalError:  # a per-sample error past the float range, in feet, whose mean is not
        metrics_path.unlink()
        raise
    model_path = out_dir / "model.bin"
    model_path.write_bytes(nn.save_network(network))
    print(f"mean error: {metrics.mean_error_grid:.3f} grid units / "
          f"{metrics.mean_error_feet:.1f} ft ({len(test_set)} test samples)")
    return [model_path, metrics_path, cdf_path], config.seed


def cmd_tune(args: dict, out_dir: Path, layout: data.BeaconLayout, dataset: data.Dataset, spec: dict):
    params = data.checked({"space": spec.pop("space", None)}, {"space": list | None}, "experiment spec",
                          ConfigError)["space"]
    exp_config = _overlay(hpo.ExperimentConfig, spec, args, "experiment spec")
    base = _overlay(nn.TrainConfig, {"seed": exp_config.seed}, args, "train config")
    space = hpo.DEFAULT_SPACES[base.optimizer]
    if params is not None:
        entries = [data.checked(p, {"name": str, "min": float, "max": float}, "search-space entry", ConfigError,
                                required=True) for p in params]
        space = hpo.SearchSpace(tuple((e["name"], e["min"], e["max"]) for e in entries))
    result = hpo.run_search(hpo.training_objective(args["model"], dataset, space, base), space, exp_config)

    trials_path = out_dir / "trials.csv"
    data.write_table(trials_path, ["trial", *space.names, "objective", "status"],
                     ([t.number, *(t.assignment[n] for n in space.names), t.objective, t.status]
                      for t in result.trials))
    best_config = replace(base, **result.best.assignment)
    best_path = out_dir / "best_config.json"
    data.write_json(best_path, {"train": asdict(best_config),
                                "objective_grid": result.best.objective})
    print(f"best objective {result.best.objective:.4f} grid units after "
          f"{len(result.trials)} trials: {result.best.assignment}")
    return [trials_path, best_path], exp_config.seed


def cmd_augment(args: dict, out_dir: Path, layout: data.BeaconLayout, dataset: data.Dataset, document: dict):
    strategy = args["strategy"]
    policy = aug.AugmentationPolicy(threshold=args["threshold"], seed=args["seed"])
    result = aug.augment(dataset.labelled, strategy, policy, dataset.unlabelled)
    augmented_path = out_dir / "augmented.csv"
    data.write_labelled_csv(result.samples, layout, augmented_path)
    counts_path = out_dir / "counts.json"
    data.write_json(counts_path, result.counts)
    print(f"strategy {strategy}: {result.counts}")
    return [augmented_path, counts_path], args["seed"]


def cmd_rationalize(args: dict, out_dir: Path, layout: data.BeaconLayout, dataset: data.Dataset, document: dict):
    config = _train_config(args, document)
    seeds = [config.seed + i for i in range(args["n_seeds"])]
    result = rationalize.dropout_study(args["model"], config, dataset, seeds)
    ranked = rationalize.rank_beacons(result)

    summary_path = out_dir / "summary.json"  # first: it holds every figure of study.csv and refuses a non-finite one
    data.write_json(summary_path, {
        "baseline_mean_error_ft": result.baseline_feet,
        "seeds": result.seeds,
        "model": args["model"],
        "beacons": [
            {"id": i.beacon_id, "residual_samples": i.residual_samples,
             "mean_error_ft": i.mean_error_feet, "delta_ft": i.delta_feet,
             "error": i.error}
            for i in result.impacts
        ],
    })
    study_path = out_dir / "study.csv"
    rows = ([impact.beacon_id, impact.residual_samples, impact.mean_error_feet, impact.delta_feet,
             "removal_improves_accuracy" if improves else impact.error] for impact, improves in ranked)
    data.write_table(study_path, ["beacon", "residual_samples", "mean_error_ft", "delta_ft", "flag"], rows)
    print(f"baseline {result.baseline_feet:.1f} ft; "
          f"top impact: {ranked[0][0].beacon_id} ({ranked[0][0].delta_feet})")
    return [study_path, summary_path], config.seed


def cmd_synth(args: dict, out_dir: Path, layout: data.BeaconLayout, dataset: None, document: dict):
    try:
        corpus = data.synth_generate(
            layout, data.PathLossModel(noise_std=args["noise_std"]), n_locations=args["locations"],
            samples_per_location=args["samples_per_location"], seed=args["seed"],
            n_unlabelled=args["unlabelled_count"])
    except MemoryError as e:  # numpy refuses an array past the machine's memory at once
        raise ConfigError(f"the requested corpus does not fit in memory: {e}") from None
    labelled_path = out_dir / "labelled.csv"
    unlabelled_path = out_dir / "unlabelled.csv"
    layout_path = out_dir / "layout.json"
    data.write_labelled_csv(corpus.labelled, layout, labelled_path)
    data.write_unlabelled_csv(corpus.unlabelled, layout, unlabelled_path)
    data.save_layout(layout, layout_path)
    print(f"wrote {len(corpus.labelled)} labelled / {len(corpus.unlabelled)} unlabelled samples")
    return [labelled_path, unlabelled_path, layout_path], args["seed"]


COMMANDS = {"train": cmd_train, "tune": cmd_tune, "augment": cmd_augment,
            "rationalize": cmd_rationalize, "synth": cmd_synth}


def _run(command: str, args: dict, recorded: dict[str, str] | None = None) -> None:
    """Resolve, read and parse the inputs, run one command on them and write its manifest.

    Each input file is opened once and its bytes are hashed, then parsed. A replay passes the
    ``recorded`` digests, and an input whose bytes differ is refused before it is parsed. A replay
    reads exactly the recorded paths: an option the recorded run left unset stays unset, whatever
    ``FINGERLOC_DATA_DIR`` holds now."""
    started = time.monotonic()
    out_dir = Path(args["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = _resolve_inputs(args, os.environ.get("FINGERLOC_DATA_DIR") if recorded is None else None)
    args = {**args, **paths}
    digests = {}

    def read(name: str) -> io.TextIOWrapper | None:
        """The input ``name``'s bytes, hashed, checked against the record and checked to be UTF-8, as text
        decoded as it is read (a StringIO of the whole text would take 4 bytes a character); None if it
        was not given. A file that is not UTF-8 is a data error, or a config error for ``--config`` and
        ``--spec``, naming its path."""
        if name not in paths:
            return None
        path = paths[name]
        with open(path, "rb") as f:
            raw = f.read()
        digests[path] = hashlib.sha256(raw).hexdigest()
        if recorded is not None and recorded.get(path) != digests[path]:
            raise DataError(f"input is not the one the recorded run read: {path}")
        if not raw.isascii():  # ASCII is UTF-8, and needs no decoded copy to show it
            try:  # here, not in a parser, which would meet the byte without knowing the file
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                if name in ("config", "spec"):
                    raise ConfigError(f"config is not valid JSON: {path} is not UTF-8: {e}") from None
                raise DataError(f"{path} is not UTF-8: {e}") from None
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")

    layout = data.load_layout(read("layout")) if "layout" in paths else data.default_layout()
    dataset = data.load_dataset(read("labelled"), read("unlabelled"), layout) if "labelled" in paths else None
    try:  # a command registers --config, --spec or neither
        document = _load_config(read("config") or read("spec"))
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    artifacts, seed = COMMANDS[command](args, out_dir, layout, dataset, document)
    write_manifest(out_dir, command, args, digests, artifacts, seed, started)


def _rerun(args: dict) -> None:
    manifest_path = Path(args["manifest"])
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        command = str(manifest["command"])
        recorded = dict(manifest["args"])
        inputs = dict(manifest["inputs"])
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as e:
        raise ConfigError(f"bad manifest {manifest_path}: {e}") from None
    if command not in COMMANDS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    defaults = vars(build_parser().parse_args([command]))
    del defaults["command"]
    missing = [f"--{name.replace('_', '-')}" for name in defaults if name not in recorded]
    if missing:
        raise ConfigError(f"manifest {manifest_path} does not record {', '.join(missing)}")
    for path in inputs:
        if not Path(path).is_file():
            raise DataError(f"recorded input is missing: {path}")
    recorded["out_dir"] = args["out_dir"] or recorded["out_dir"]
    # replayed values pass the parser's checks again; unregistered options are dropped and
    # a null (older versions' unset --seed) or an unset switch takes the parser default
    argv = [command]
    for name in defaults:
        value, flag = recorded[name], "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    try:
        # no command line holds a NUL, or a lone surrogate, which os.fsencode refuses with a UnicodeEncodeError;
        # an undecodable argv byte reads back as a surrogate escape, which encodes
        if any(b"\0" in os.fsencode(arg) for arg in argv):
            raise ValueError("a NUL character")
        replay = vars(build_parser().parse_args(argv))
    except (SystemExit, ValueError):  # argparse has printed which option it rejected, or no command line holds one
        raise ConfigError(f"manifest {manifest_path} records a value the command rejects") from None
    _run(replay.pop("command"), replay, inputs)


# ---------------------------------------------------------------------------
# argument parsing

def _in_range(cast, low, high):
    """argparse type: ``cast`` the text and require a finite value in [low, high]."""
    def parse(text: str):
        value = cast(text)
        # compared, not converted: math.isfinite overflows on an int past the float range
        if not (low <= value <= high and value != math.inf):
            raise argparse.ArgumentTypeError(f"{text} is not in [{low}, {high}]")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in its "invalid value" message
    return parse


# options that several commands register: flag -> add_argument keywords
SHARED = {
    "--labelled": dict(help="labelled CSV (location,date,<beacons>)"),
    "--unlabelled": dict(help="unlabelled CSV (date,<beacons>)"),
    "--layout": dict(help="beacon layout JSON (default: built-in layout)"),
    "--config": dict(help='JSON file; its "train" section sets training fields, flags override them'),
    "--seed": dict(type=_in_range(int, 0, math.inf), default=0),
    "--out-dir": dict(default="out"),
    "--model": dict(choices=("dnn", "cnn"), default="dnn"),
    "--epochs": dict(type=int, default=None),
    "--threshold": dict(type=_in_range(int, 1, math.inf), default=aug.AugmentationPolicy.threshold,
                        help="a cell with fewer labelled rows is under-represented"),
}


def _add(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **SHARED[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fingerloc",
                                     description="RSSI fingerprint localization toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    config_seed = dict(type=_in_range(int, 0, math.inf), default=None,
                       help="default: the --config or --spec file's seed, else 0")

    p = sub.add_parser("train", help="train a localization model")
    _add(p, "--labelled", "--unlabelled", "--layout", "--config", "--out-dir", "--model", "--epochs",
         "--threshold")
    p.add_argument("--seed", **config_seed)
    p.add_argument("--optimizer", choices=nn.OPTIMIZERS, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None, help="finite and >= 0")
    p.add_argument("--strategy", choices=aug.STRATEGIES, default="none",
                   help="augmentation applied before training")
    p.add_argument("--ratio", type=_in_range(float, 0.0, 1.0), default=models.HOLDOUT_RATIO,
                   help="train fraction of the split; both partitions must be non-empty")
    p.add_argument("--paper-protocol", action="store_true",
                   help="augment the full pool before splitting instead of train-split only")

    p = sub.add_parser("tune", help="hyperparameter search")
    _add(p, "--labelled", "--layout", "--out-dir", "--model", "--epochs")
    p.add_argument("--seed", **config_seed)
    p.add_argument("--spec", help="experiment spec JSON (algorithm, max_trials, goal, seed, space)")
    p.add_argument("--optimizer", choices=nn.OPTIMIZERS, default=None)

    p = sub.add_parser("augment", help="grow the labelled set")
    _add(p, "--labelled", "--unlabelled", "--layout", "--seed", "--out-dir", "--threshold")
    p.add_argument("--strategy", choices=aug.STRATEGIES, default="naive")

    p = sub.add_parser("rationalize", help="per-beacon dropout study")
    _add(p, "--labelled", "--layout", "--config", "--out-dir", "--model", "--epochs")
    p.add_argument("--seed", **config_seed)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; the run is always serial")
    p.add_argument("--n-seeds", type=_in_range(int, 1, math.inf), default=5)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add(p, "--layout", "--seed", "--out-dir")
    p.add_argument("--locations", type=_in_range(int, 1, data.GRID_SIZE ** 2), default=200)
    p.add_argument("--samples-per-location", type=_in_range(int, 1, math.inf), default=5)
    p.add_argument("--unlabelled-count", type=_in_range(int, 0, math.inf), default=0)
    p.add_argument("--noise-std", type=_in_range(float, 0.0, math.inf), default=data.PathLossModel.noise_std)

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "rerun":
            _rerun(args)
        else:
            _run(command, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as e:  # or an unreadable input file
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
