"""Metamorphic relations: a change to the input whose effect on the output is known, checked without a
reference answer. Each corpus is a tiny ``synth`` one and each fit runs a few epochs, so every relation runs
in well under a second."""
import csv
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fingerloc import augment, cli, data, models, nn, rationalize

RELATION = settings(max_examples=10, deadline=None, derandomize=True)


def tiny_corpus(seed, samples_per_location=3, n_unlabelled=0):
    """A ``synth`` corpus on the default layout: 12 cells, ``samples_per_location`` rows each."""
    return data.synth_generate(data.default_layout(), data.PathLossModel(), n_locations=12,
                               samples_per_location=samples_per_location, seed=seed, n_unlabelled=n_unlabelled)


def fit(kind, labelled, layout, seed):
    """``models.fit`` on ``labelled`` split as ``models.score`` splits it: (network, metrics)."""
    config = nn.TrainConfig(epochs=3, batch_size=8, seed=seed)
    network, _, metrics = models.fit(kind, *data.split(labelled, models.HOLDOUT_RATIO, seed), layout, config)
    return network, metrics


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@RELATION
@given(seed=st.integers(0, 2 ** 16), order=st.permutations(range(13)))
def test_cnn_is_invariant_to_the_beacon_order(seed, order):
    # the pixel conv reads its beacons in raster order of their pixels, whatever their column order
    corpus = tiny_corpus(seed)
    layout = corpus.layout
    permuted = replace(layout, ids=tuple(layout.ids[k] for k in order), xs=tuple(layout.xs[k] for k in order),
                       ys=tuple(layout.ys[k] for k in order))
    labelled = corpus.labelled
    shuffled = data.Fingerprints(labelled.rssi[:, order], labelled.timestamps, labelled.cells)
    network, metrics = fit("cnn", labelled, layout, seed)
    network2, metrics2 = fit("cnn", shuffled, permuted, seed)
    assert np.array_equal(bits(network.theta), bits(network2.theta))
    assert metrics2.mean_error_feet == metrics.mean_error_feet
    assert np.array_equal(bits(metrics2.per_sample_errors_feet), bits(metrics.per_sample_errors_feet))


@RELATION
@given(seed=st.integers(0, 2 ** 16), power=st.integers(-8, 8))
def test_scaling_cell_feet_by_a_power_of_two_scales_every_figure_in_feet(seed, power):
    # the models learn grid units; a power of two scales a product of doubles without a new rounding. tune's
    # objective is in grid units, and augment reads no distance at all
    scale = 2.0 ** power
    corpus = tiny_corpus(seed, n_unlabelled=30)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data.write_labelled_csv(corpus.labelled, corpus.layout, tmp / "labelled.csv")
        data.write_unlabelled_csv(corpus.unlabelled, corpus.layout, tmp / "unlabelled.csv")
        (tmp / "spec.json").write_text(json.dumps({"max_trials": 4}))  # the fourth trial is the GP's
        outs = []
        for name, cell_feet in (("base", corpus.layout.cell_feet), ("scaled", corpus.layout.cell_feet * scale)):
            data.save_layout(replace(corpus.layout, cell_feet=cell_feet), tmp / f"{name}.json")
            inputs = ["--labelled", str(tmp / "labelled.csv"), "--layout", str(tmp / f"{name}.json"), "--seed",
                      str(seed)]
            for argv in (["train", "--epochs", "3"], ["tune", "--epochs", "2", "--spec", str(tmp / "spec.json")],
                         ["augment", "--strategy", "hybrid", "--unlabelled", str(tmp / "unlabelled.csv")]):
                assert cli.main([*argv, *inputs, "--out-dir", str(tmp / name / argv[0])]) == 0
            outs.append(tmp / name)
        base, scaled = outs
        for artifact in ("train/model.bin", "tune/trials.csv", "tune/best_config.json", "augment/augmented.csv",
                         "augment/counts.json"):
            assert (scaled / artifact).read_bytes() == (base / artifact).read_bytes(), artifact
        m, m2 = (json.loads((out / "train" / "metrics.json").read_text()) for out in outs)
        assert m2.pop("mean_error_feet") == m.pop("mean_error_feet") * scale
        assert m2 == m
        cdf, cdf2 = (np.loadtxt(out / "train" / "cdf.csv", delimiter=",", skiprows=1, ndmin=2) for out in outs)
        assert np.array_equal(bits(cdf2[:, 0]), bits(cdf[:, 0] * scale))
        assert np.array_equal(bits(cdf2[:, 1]), bits(cdf[:, 1]))


@RELATION
@given(seed=st.integers(0, 2 ** 16), samples=st.integers(1, 3), strategy=st.sampled_from(augment.STRATEGIES),
       n_unlabelled=st.sampled_from([0, 30]))
@example(seed=0, samples=1, strategy="hybrid", n_unlabelled=0)  # no autoencoder fit, so no unlabelled row needed
def test_augment_at_threshold_one_adds_no_row(seed, samples, strategy, n_unlabelled):
    # no cell holds fewer than one row, so no cell is under-represented, one-row cells included; a header-only
    # unlabelled file is as good as any
    corpus = tiny_corpus(seed, samples, n_unlabelled=n_unlabelled)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data.write_labelled_csv(corpus.labelled, corpus.layout, tmp / "labelled.csv")
        data.write_unlabelled_csv(corpus.unlabelled, corpus.layout, tmp / "unlabelled.csv")
        data.save_layout(corpus.layout, tmp / "layout.json")
        assert cli.main(["augment", "--strategy", strategy, "--threshold", "1", "--seed", str(seed),
                         *(f"--{name}={tmp / name}.{ext}" for name, ext in
                           (("labelled", "csv"), ("unlabelled", "csv"), ("layout", "json"))),
                         "--out-dir", str(tmp / "out")]) == 0
        assert (tmp / "out" / "augmented.csv").read_bytes() == (tmp / "labelled.csv").read_bytes()
        counts = json.loads((tmp / "out" / "counts.json").read_text())
        assert counts["total"] == counts["original"] == len(corpus.labelled)


@RELATION
@given(seed=st.integers(0, 2 ** 16),
       ids=st.lists(st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S")), min_size=1, max_size=6),
                    min_size=13, max_size=13, unique=True))
def test_renaming_the_beacons_changes_no_number(seed, ids):
    # every model reads the columns by position; an id appears only where an artifact names a beacon, and
    # the study ranks exactly tied rows by id
    corpus = tiny_corpus(seed)
    layouts = {"base": corpus.layout, "renamed": replace(corpus.layout, ids=tuple(ids))}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, layout in layouts.items():
            data.write_labelled_csv(corpus.labelled, layout, tmp / f"{name}.csv")
            data.save_layout(layout, tmp / f"{name}.json")
            inputs = ["--labelled", str(tmp / f"{name}.csv"), "--layout", str(tmp / f"{name}.json"), "--seed",
                      str(seed)]
            for argv in (["train", "--epochs", "3"], ["rationalize", "--epochs", "2", "--n-seeds", "1"]):
                assert cli.main([*argv, *inputs, "--out-dir", str(tmp / name / argv[0])]) == 0
        base, renamed = tmp / "base", tmp / "renamed"
        for artifact in ("train/model.bin", "train/metrics.json", "train/cdf.csv"):
            assert (renamed / artifact).read_bytes() == (base / artifact).read_bytes(), artifact
        summaries = {name: json.loads((tmp / name / "rationalize" / "summary.json").read_text()) for name in layouts}
        for name, layout in layouts.items():  # the beacons in layout order
            assert [b.pop("id") for b in summaries[name]["beacons"]] == list(layout.ids)
        assert summaries["renamed"] == summaries["base"]
        studies = {}
        for name, layout in layouts.items():
            with open(tmp / name / "rationalize" / "study.csv", newline="") as f:
                _, *rows = csv.reader(f)
            studies[name] = [(layout.ids.index(beacon), *rest) for beacon, *rest in rows]
        # each beacon position has the same row, and the ranking's deltas come in the same order
        assert sorted(studies["renamed"]) == sorted(studies["base"])
        assert [row[3] for row in studies["renamed"]] == [row[3] for row in studies["base"]]


@RELATION
@given(seed=st.integers(0, 2 ** 16), beacon=st.integers(0, 12))
def test_silencing_a_beacon_that_never_has_signal_changes_nothing(seed, beacon):
    # no row loses its only signal, and every reading of the beacon is already no-signal: the residual is the
    # dataset, so its fit is the baseline's
    corpus = tiny_corpus(seed)
    rssi = corpus.labelled.rssi.copy()
    rssi[:, beacon] = data.NO_SIGNAL
    dataset = replace(corpus, labelled=replace(corpus.labelled, rssi=rssi))
    result = rationalize.dropout_study("dnn", nn.TrainConfig(epochs=2, batch_size=8), dataset, [seed])
    impact = result.impacts[beacon]
    assert impact.delta_feet == 0.0
    assert impact.residual_samples == len(dataset.labelled)
