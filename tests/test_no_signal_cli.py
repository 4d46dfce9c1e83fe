"""Every command on a corpus where most readings are no-signal.

The default path-loss model gives every synthetic reading signal, so these
runs are the ones that reach the no-signal paths through ``cli.main``: the
autoencoder filter discards candidates, ``drop_beacon`` removes rows, and
the CNN sees rows with one beacon's signal or none.
"""
import json

import numpy as np
import pytest

from fingerloc import cli, data

N_LABELLED = 60 * 4


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("no_signal")
    layout = data.default_layout()
    model = data.PathLossModel(exponent=3.0, detection_floor=-75.0, noise_std=4.0)
    dataset = data.synth_generate(layout, model, 60, 4, seed=0, n_unlabelled=600)
    data.write_labelled_csv(dataset.labelled, layout, out / "labelled.csv")
    data.write_unlabelled_csv(dataset.unlabelled, layout, out / "unlabelled.csv")
    data.save_layout(layout, out / "layout.json")
    return out, dataset


def inputs(corpus):
    out, _ = corpus
    return ["--labelled", str(out / "labelled.csv"), "--layout", str(out / "layout.json")]


def test_most_readings_are_no_signal(corpus):
    rssi = corpus[1].labelled.rssi
    assert len(rssi) == N_LABELLED
    assert (rssi == data.NO_SIGNAL).mean() > 0.5
    assert ((rssi > data.NO_SIGNAL).sum(axis=1) <= 1).any()


def test_hybrid_augment_discards_candidates(corpus, tmp_path):
    assert cli.main(["augment", *inputs(corpus), "--unlabelled", str(corpus[0] / "unlabelled.csv"),
                     "--strategy", "hybrid", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "counts.json").read_text())["discarded"] > 0


def test_rationalize_drops_rows_that_lose_their_only_signal(corpus, tmp_path):
    assert cli.main(["rationalize", *inputs(corpus), "--n-seeds", "1", "--epochs", "2",
                     "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert min(b["residual_samples"] for b in summary["beacons"]) < N_LABELLED


def test_cnn_trains(corpus, tmp_path):
    assert cli.main(["train", *inputs(corpus), "--model", "cnn", "--epochs", "1",
                     "--out-dir", str(tmp_path)]) == 0
    assert np.isfinite(json.loads((tmp_path / "metrics.json").read_text())["mean_error_feet"])


def test_hybrid_dnn_train_reruns_byte_identical(corpus, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["train", *inputs(corpus), "--unlabelled", str(corpus[0] / "unlabelled.csv"),
                     "--model", "dnn", "--strategy", "hybrid", "--epochs", "2", "--out-dir", str(first)]) == 0
    assert cli.main(["rerun", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
    artifacts = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert artifacts
    for name in artifacts:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
