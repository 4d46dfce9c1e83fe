"""Metamorphic relations: a change to the input whose effect on the output is known, checked without a
reference answer. Each corpus is a tiny ``synth`` one and each fit runs a few epochs, so every relation runs
in well under a second."""
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fingerloc import augment, cli, data, models, nn

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
    # the DNN learns grid units; a power of two scales a product of doubles without a new rounding
    scale = 2.0 ** power
    corpus = tiny_corpus(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data.write_labelled_csv(corpus.labelled, corpus.layout, tmp / "labelled.csv")
        outs = []
        for name, cell_feet in (("base", corpus.layout.cell_feet), ("scaled", corpus.layout.cell_feet * scale)):
            data.save_layout(replace(corpus.layout, cell_feet=cell_feet), tmp / f"{name}.json")
            assert cli.main(["train", "--model", "dnn", "--labelled", str(tmp / "labelled.csv"), "--layout",
                             str(tmp / f"{name}.json"), "--out-dir", str(tmp / name), "--epochs", "3",
                             "--seed", str(seed)]) == 0
            outs.append(tmp / name)
        base, scaled = outs
        assert (scaled / "model.bin").read_bytes() == (base / "model.bin").read_bytes()
        m, m2 = (json.loads((out / "metrics.json").read_text()) for out in outs)
        assert m2.pop("mean_error_feet") == m.pop("mean_error_feet") * scale
        assert m2 == m
        cdf, cdf2 = (np.loadtxt(out / "cdf.csv", delimiter=",", skiprows=1, ndmin=2) for out in outs)
        assert np.array_equal(bits(cdf2[:, 0]), bits(cdf[:, 0] * scale))
        assert np.array_equal(bits(cdf2[:, 1]), bits(cdf[:, 1]))


@RELATION
@given(seed=st.integers(0, 2 ** 16), samples=st.integers(1, 3), strategy=st.sampled_from(augment.STRATEGIES))
def test_augment_at_threshold_one_adds_no_row(seed, samples, strategy):
    # no cell holds fewer than one row, so no cell is under-represented, one-row cells included
    corpus = tiny_corpus(seed, samples, n_unlabelled=30)
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
