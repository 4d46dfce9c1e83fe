#!/usr/bin/env python3
"""fingerloc benchmark: the paper's batch jobs on a paper-scale synthetic corpus.

    python3 bench/run.py --workload cnn_train --seed 1 --seconds 20 --trace 0

Run from the repository root. The script imports ``src/fingerloc`` and drives
``cli.main`` in-process, one command at a time (a closed loop with one
client). Set-up synthesizes the corpus from ``--seed`` and warms up; then the
workload's command sequence repeats, at least twice and while the next
repetition fits in ``--seconds``. Every command gets ``--seed`` and absolute
input paths. Outputs are checked after each repetition. All files go to
``.bench_work/`` under the repository root and are removed at exit. Reported
times are seconds at a fixed reference host speed, which ``pace.py`` samples
while the workload runs; the raw wall seconds are on the line before the
result.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced repetition (see
``spans.py``) and the per-layer forward/backward timings at batch 100. The
metric names and units are those listed in ``BENCHMARK.json``. The line
before it records the environment, and in a traced run the names that could
not be measured. NOTES.md says why each workload exists.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from pace import Pace
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

CORPUS = ["--locations", "284", "--samples-per-location", "5", "--unlabelled-count", "5191"]
SETUP_REPEATS = 3
MIN_REPETITIONS = 2
# hybrid_pipeline synthesizes its corpus in every repetition, so it cycles
# through several corpora: its error is then a median over corpora, not one draw
CORPORA_PER_RUN = {"hybrid_pipeline": 5}
SEED_STRIDE = 1000
LAYER_REPEATS = 7
LAYER_BATCH = 100
TUNE_TRIALS = 15  # the default Bayesian spec
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import fingerloc.cli"
TRACED_MODULES = ("cli", "data", "models", "nn", "augment", "hpo", "rationalize")


class Ledger:
    """Operations attempted and failed: commands, HPO trials, study rows, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Bench:
    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.corpus: Path | None = None
        self.jobs = min(2, os.cpu_count() or 1)
        self.pace = Pace()

    # ------------------------------------------------------------------
    # commands

    def run(self, *argv: str) -> bool:
        """One CLI command; it fails on a non-zero exit or an escaped exception."""
        with contextlib.redirect_stdout(sys.stderr):
            try:
                code = self.cli.main(list(argv))
            except (Exception, SystemExit):  # an escaped traceback or argparse exit fails it
                traceback.print_exc()
                code = None
        return self.ledger.check(code == 0, f"{argv[0]} exited {code}")

    def inputs(self, corpus: Path, seed: int, unlabelled: bool = False) -> list[str]:
        args = ["--labelled", str(corpus / "labelled.csv"), "--layout", str(corpus / "layout.json")]
        if unlabelled:
            args += ["--unlabelled", str(corpus / "unlabelled.csv")]
        return args + ["--seed", str(seed)]

    def synth(self, out: Path, seed: int) -> None:
        self.run("synth", *CORPUS, "--seed", str(seed), "--out-dir", str(out))

    def warm_up(self, out: Path) -> None:
        """A one-epoch DNN fit, so the engine's first-call costs are paid before timing."""
        self.run("train", "--model", "dnn", "--epochs", "1", *self.inputs(self.corpus, self.seed),
                 "--out-dir", str(out))

    def setup(self) -> float:
        """Median over SETUP_REPEATS of: a fresh interpreter importing the CLI,
        synthesis, warm-up; in seconds at the reference host speed."""
        times = []
        for r in range(SETUP_REPEATS):
            started = self.pace.mark()
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                                   capture_output=True, text=True, timeout=170)
            ok = self.ledger.check(probe.returncode == 0, f"import probe: {probe.stderr.strip()}")
            corpus = self.work / f"corpus{r}"
            self.synth(corpus, self.seed)
            self.corpus = corpus
            self.warm_up(self.work / f"warm{r}")
            times.append(self.pace.scaled(started, self.pace.end())[1] if ok else math.nan)
            if r:
                self.ledger.check(same_files(corpus, self.work / "corpus0", CORPUS_FILES),
                                  "synth is deterministic at a fixed seed")
        return statistics.median(times)

    # ------------------------------------------------------------------
    # one repetition of the workload

    def repetition(self, d: Path, seed: int) -> tuple[float, float, float]:
        """Run the workload's command sequence in ``d``; returns its raw seconds,
        its seconds at the reference host speed and the error in feet."""
        started = self.pace.mark()
        if self.workload == "cnn_train":
            self.run("train", "--model", "cnn", "--epochs", "10", "--strategy", "none",
                     *self.inputs(self.corpus, seed), "--out-dir", str(d / "train"))
        elif self.workload == "dnn_search":
            self.run("tune", *self.inputs(self.corpus, seed), "--out-dir", str(d / "tune"))
            self.run("rationalize", "--model", "dnn", "--n-seeds", "1", "--jobs", str(self.jobs),
                     *self.inputs(self.corpus, seed), "--out-dir", str(d / "study"))
        else:
            self.synth(d / "corpus", seed)
            self.run("augment", "--strategy", "hybrid", *self.inputs(d / "corpus", seed, True),
                     "--out-dir", str(d / "augment"))
            self.run("train", "--model", "dnn", "--strategy", "hybrid",
                     *self.inputs(d / "corpus", seed, True), "--out-dir", str(d / "train"))
            self.run("rerun", str(d / "train" / "manifest.json"), "--out-dir", str(d / "rerun"))
        raw, scaled = self.pace.scaled(started, self.pace.end())
        return raw, scaled, self.verify(d, seed)

    def verify(self, d: Path, seed: int) -> float:
        """Check the repetition's outputs; returns the user-facing error in feet."""
        check = self.ledger.check
        if self.workload == "dnn_search":
            rows = read_csv(d / "tune" / "trials.csv")
            check(len(rows) == TUNE_TRIALS, f"tune wrote {len(rows)} trials, expected {TUNE_TRIALS}")
            for row in rows:
                check(row.get("status") == "ok", f"trial {row.get('trial')} status {row.get('status')}")
            study = read_csv(d / "study" / "study.csv")
            beacons = len(read_json(self.corpus / "layout.json").get("beacons", ()))
            check(len(study) == beacons, f"rationalize wrote {len(study)} rows for {beacons} beacons")
            for row in study:
                check(is_finite(row.get("delta_ft")), f"beacon {row.get('beacon')}: {row.get('flag')}")
            best = read_json(d / "tune" / "best_config.json").get("objective_grid")
            cell_feet = read_json(self.corpus / "layout.json").get("cell_feet", math.nan)
            error = best * cell_feet if is_finite(best) else math.nan
        else:
            train = d / "train"
            check(cdf_ok(train / "cdf.csv"), f"{train / 'cdf.csv'} is not a valid CDF")
            error = read_json(train / "metrics.json").get("mean_error_feet", math.nan)
        if self.workload == "hybrid_pipeline":
            if seed == self.seed:
                check(same_files(d / "corpus", self.corpus, CORPUS_FILES),
                      "the workload's synth reproduces the set-up corpus")
            counts = read_json(d / "augment" / "counts.json")
            rows = len(read_csv(d / "augment" / "augmented.csv"))
            check(counts.get("total") == rows, f"augment counts {counts.get('total')} != {rows} rows")
            check(same_files(d / "rerun", d / "train", ("model.bin", "metrics.json", "cdf.csv")),
                  "rerun reproduces model.bin, metrics.json and cdf.csv byte for byte")
        check(is_finite(error), f"mean error {error!r} is not finite")
        return error


# ---------------------------------------------------------------------------
# output checks

CORPUS_FILES = ("labelled.csv", "unlabelled.csv", "layout.json")


def read_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as f:
            return list(csv.DictReader(f))
    except OSError:
        return []


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def is_finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def cdf_ok(path: Path) -> bool:
    """Nondecreasing in error and fraction, ending at fraction 1.0."""
    rows = read_csv(path)
    try:
        err = [float(r["error_ft"]) for r in rows]
        frac = [float(r["fraction"]) for r in rows]
    except (KeyError, ValueError):
        return False
    return (bool(rows) and frac[-1] == 1.0
            and all(a <= b for a, b in zip(err, err[1:]))
            and all(a <= b for a, b in zip(frac, frac[1:])))


def same_files(a: Path, b: Path, names) -> bool:
    try:
        return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    except OSError:
        return False


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("Dense", "Conv2d", "MaxPool2d", "ReLU", "Sigmoid", "Flatten")
OPTIMIZER_STEPS = ["nn.AdamState.step", "nn.SgdMomentumState.step"]
# metric -> (aggregate, span names); "sum" is inclusive time, "self" excludes traced children
SPAN_METRICS = {
    **{f"nn.{c}.{d}_s": ("sum", [f"nn.{c}.{d}"]) for c in LAYERS for d in ("forward", "backward")},
    "nn.optimizer_step_s": ("sum", OPTIMIZER_STEPS),
    "nn.optimizer_step_calls": ("calls", OPTIMIZER_STEPS),
    "nn.backward_s": ("sum", ["nn.backward"]),
    "nn.backward_calls": ("calls", ["nn.backward"]),
    "nn.train_self_s": ("self", ["nn.train"]),
    "nn.evaluate_s": ("sum", ["nn.evaluate"]),
    "nn.save_network_s": ("sum", ["nn.save_network"]),
    "augment.train_autoencoder_s": ("sum", ["augment.train_autoencoder"]),
    "augment.augment_s": ("sum", ["augment.augment"]),
    "data.load_dataset_s": ("sum", ["data.load_dataset"]),
    "data.write_csv_s": ("sum", ["data.write_labelled_csv", "data.write_unlabelled_csv"]),
    "data.synth_generate_s": ("sum", ["data.synth_generate"]),
    "data.split_s": ("sum", ["data.split"]),
    "cli.write_manifest_s": ("sum", ["cli.write_manifest"]),
    "cli.command_self_s": ("self", ["cli.main"]),
    "models.prepare_inputs_s": ("sum", ["models.prepare_inputs"]),
    "models.build_model_s": ("sum", ["models.build_model"]),
    "hpo.suggest_s": ("sum", ["hpo.Suggester.suggest"]),
    "rationalize.drop_beacon_s": ("sum", ["rationalize.drop_beacon"]),
}


def _count_parsed(result, args, kwargs, c):
    c["data.rows_parsed"] = c.get("data.rows_parsed", 0) + len(result.labelled) + len(result.unlabelled)


def _count_written(result, args, kwargs, c):
    c["data.rows_written"] = c.get("data.rows_written", 0) + len(args[0] if args else kwargs["samples"])


def _count_augment(result, args, kwargs, c):
    for key, value in (("augment.generated", result.counts["naive"] + result.counts["kept"]),
                       ("kept", result.counts["kept"]), ("discarded", result.counts["discarded"])):
        c[key] = c.get(key, 0) + value


def _count_trials(result, args, kwargs, c):
    c["hpo.trials"] = c.get("hpo.trials", 0) + len(result.trials)
    c["hpo.diverged"] = c.get("hpo.diverged", 0) + sum(t.status != "ok" for t in result.trials)


def _count_failed_rows(result, args, kwargs, c):
    c["rationalize.failed_rows"] = (c.get("rationalize.failed_rows", 0)
                                    + sum(i.error is not None for i in result.impacts))


HOOKS = {
    "data.load_dataset": _count_parsed,
    "data.write_labelled_csv": _count_written,
    "data.write_unlabelled_csv": _count_written,
    "augment.augment": _count_augment,
    "hpo.run_search": _count_trials,
    "rationalize.dropout_study": _count_failed_rows,
}
# counter metric -> the span whose hook fills it
COUNTER_METRICS = {
    "data.rows_parsed": ["data.load_dataset"],
    "data.rows_written": ["data.write_labelled_csv", "data.write_unlabelled_csv"],
    "augment.generated": ["augment.augment"],
    "augment.kept_ratio": ["augment.augment"],
    "hpo.trials": ["hpo.run_search"],
    "hpo.diverged": ["hpo.run_search"],
    "rationalize.failed_rows": ["rationalize.dropout_study"],
}


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition; unmeasurable names are left out."""
    nid, dur, self_time = tracer.arrays()
    out = {}
    for metric, (how, names) in SPAN_METRICS.items():
        ids = tracer.ids_of(names)
        if not ids:
            continue
        mask = np.isin(nid, ids)
        if how == "calls":
            out[metric] = float(mask.sum())
        else:
            out[metric] = float((dur if how == "sum" else self_time)[mask].sum())
    steps = tracer.step_times("nn.backward", OPTIMIZER_STEPS)
    if tracer.ids_of(["nn.backward"]) and tracer.ids_of(OPTIMIZER_STEPS):
        out["nn.step_ms_p50"] = float(np.percentile(steps, 50) * 1e3) if len(steps) else 0.0
        out["nn.step_ms_p90"] = float(np.percentile(steps, 90) * 1e3) if len(steps) else 0.0
    c = tracer.counters
    for metric, names in COUNTER_METRICS.items():
        if tracer.ids_of(names) and not tracer.hook_failures.intersection(names):
            out[metric] = float(c.get(metric, 0))
    if "augment.kept_ratio" in out:
        attempted = c.get("kept", 0) + c.get("discarded", 0)
        out["augment.kept_ratio"] = c.get("kept", 0) / attempted if attempted else 0.0
    return out


def layer_bench(seed: int) -> dict[str, float]:
    """Forward/backward ms per layer at batch 100: one warm-up pass, then the median."""
    from fingerloc import data, models

    layout = data.default_layout()
    rng = np.random.default_rng(seed)
    rssi = rng.uniform(-95.0, -45.0, size=(LAYER_BATCH, layout.n_beacons))
    rssi[rng.random(rssi.shape) < 0.3] = data.NO_SIGNAL
    out = {}
    for kind in ("dnn", "cnn", "autoencoder"):
        try:
            out.update(_time_layers(models.build_model(kind, seed=seed, n_beacons=layout.n_beacons),
                                    models.prepare_inputs(kind, rssi, layout), f"nn.bench.{kind}", rng))
        except (AttributeError, KeyError, TypeError, ValueError):
            traceback.print_exc()  # the model API changed; its names are reported missing
    return out


def _time_layers(net, x0: np.ndarray, prefix: str, rng: np.random.Generator) -> dict[str, float]:
    fwd = [[] for _ in net.layers]
    bwd = [[] for _ in net.layers]
    for _ in range(1 + LAYER_REPEATS):
        x = x0
        for i, layer in enumerate(net.layers):
            t = perf_counter()
            x = layer.forward(x)
            fwd[i].append(perf_counter() - t)
        dy = rng.standard_normal(x.shape)
        for i in reversed(range(len(net.layers))):
            t = perf_counter()
            dy = net.layers[i].backward(dy)
            bwd[i].append(perf_counter() - t)
    out = {}
    for i, layer in enumerate(net.layers):
        name = f"{prefix}.{i}-{layer.spec()['kind']}"
        out[f"{name}.fwd_ms"] = statistics.median(fwd[i][1:]) * 1e3
        out[f"{name}.bwd_ms"] = statistics.median(bwd[i][1:]) * 1e3
    return out


# ---------------------------------------------------------------------------
# environment

def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
    }


def blas_threads():
    """OpenBLAS's own thread count where the library exposes it, else the env setting."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; None in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------

class ChildRss(threading.Thread):
    """Largest summed resident set of this process's live children, sampled.

    ``getrusage`` reports only the largest single child and counts set-up's
    import probes, so a pool of workers would not show in it.
    """

    def __init__(self, interval: float = 0.02):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        me = os.getpid()
        page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
        while not self._done.wait(self.interval):
            total = 0
            for name in os.listdir("/proc"):
                if not name.isdigit() or int(name) <= me:  # children start after us
                    continue
                try:
                    with open(f"/proc/{name}/stat") as f:
                        fields = f.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == me:
                    total += int(fields[21]) * page_kb
            self.peak_kb = max(self.peak_kb, total)

    def stop(self) -> float:
        self._done.set()
        self.join()
        return self.peak_kb / 1024.0


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict[str, float], list[float]]:
    """Set up, then repeat the workload (untraced, or untraced + traced pairs)
    at least ``min_loops`` times and while the next loop fits in ``seconds``.

    Returns the metric values and the untraced repetitions' raw seconds.
    Times in the metrics are seconds at the reference host speed (``pace.py``).
    Repetition ``i`` runs with the ``i % corpora``-th seed derived from ``--seed``.
    """
    raw_walls, walls, traced_walls, per_layer, loops = [], [], [], [], []
    errors: dict[int, list[float]] = {}  # seed -> error of each repetition with it
    tracer = Tracer(HOOKS)
    modules = {name: sys.modules[f"fingerloc.{name}"] for name in TRACED_MODULES
               if f"fingerloc.{name}" in sys.modules}
    corpora = CORPORA_PER_RUN.get(bench.workload, 1)
    min_loops = 1 if trace else max(MIN_REPETITIONS, corpora)
    with bench.pace:
        setup_s = bench.setup()
        started = perf_counter()
        while len(loops) < min_loops or perf_counter() - started + statistics.median(loops) <= seconds:
            loop_started = perf_counter()
            seed = bench.seed + SEED_STRIDE * (len(loops) % corpora)
            d = bench.work / f"rep{len(loops)}"
            if not walls:
                children = ChildRss()
                children.start()
            raw, wall, error = bench.repetition(d, seed)
            if not walls:
                # the first repetition only, so the figure does not grow with the repetition count
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + children.stop()
            raw_walls.append(raw)
            walls.append(wall)
            errors.setdefault(seed, []).append(error)
            print(f"repetition {len(loops)}: {raw:.3f} s, {wall:.3f} s at reference speed", file=sys.stderr)
            shutil.rmtree(d, ignore_errors=True)
            if trace:
                # an untraced repetition, then a traced one: their difference is the overhead
                tracer.reset()
                tracer.install(modules)
                try:
                    raw, wall, error = bench.repetition(d, seed)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                errors[seed].append(error)
                print(f"repetition {len(loops)} (traced): {raw:.3f} s, {wall:.3f} s at reference speed",
                      file=sys.stderr)
                per_layer.append(span_metrics(tracer))
                shutil.rmtree(d, ignore_errors=True)
            loops.append(perf_counter() - loop_started)
    for seed, values in errors.items():
        if len(values) > 1:
            bench.ledger.check(len(set(values)) == 1, f"seed {seed}: error varies across repetitions: {values}")
    if not trace:
        ledger = bench.ledger
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "mean_error_ft": statistics.median(values[0] for values in errors.values()),
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - ledger.failed / ledger.attempted,
        }, raw_walls
    out = {name: statistics.median(run[name] for run in per_layer) for name in per_layer[0]}
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    out.update(layer_bench(bench.seed))
    return out, raw_walls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fingerloc" / "cli.py").is_file():
        print(f"no fingerloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FINGERLOC_DATA_DIR", None)  # the program gets only the generated inputs
    from fingerloc import cli

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(cli, args.workload, args.seed, work)
        values, walls = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    print(json.dumps({"env": environment(args.workload, args.seed), "missing": missing,
                      "raw_wall_s_samples": walls}))
    ledger = bench.ledger
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
