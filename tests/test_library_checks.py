"""The library's own argument checks, one row each, for checks no command reaches."""
import numpy as np
import pytest

from fingerloc import augment, data, hpo, models, nn
from fingerloc.errors import LayoutError, MalformedLabelError, ShapeError
from conftest import labelled_table


def _table():
    return labelled_table([(0, 0)] * 2, np.full((2, 13), -60.0))


CHECKS = {
    "unknown augmentation strategy": (
        lambda: augment.augment(_table(), "bogus", augment.AugmentationPolicy(), _table()),
        ValueError, "unknown strategy 'bogus'"),
    "layout ids and coordinates differ in length": (
        lambda: data.BeaconLayout(ids=("a", "b"), xs=(1.0,), ys=(1.0, 2.0)),
        LayoutError, "coordinate counts differ"),
    "fingerprint columns misaligned": (
        lambda: data.Fingerprints(np.zeros((2, 13)), ["only one"]),
        ValueError, "row-aligned"),
    "fingerprint rssi not 2-D": (
        lambda: data.Fingerprints(np.zeros(13), [""] * 13),
        ValueError, "rssi 2-D"),
    "path-loss exponent not positive": (
        lambda: data.PathLossModel(exponent=0.0),
        ValueError, "exponent must be positive"),
    "detection floor below no-signal": (
        lambda: data.PathLossModel(detection_floor=-200.5),
        ValueError, "detection floor below"),
    "label of a cell outside the grid": (
        lambda: data.encode_location_label((25, 0)),
        MalformedLabelError, "cell (25, 0) outside grid"),
    "synth with no locations": (
        lambda: data.synth_generate(data.default_layout(), data.PathLossModel(), 0, 1, seed=0),
        ValueError, "counts must be >= 1"),
    "synth with more locations than cells": (
        lambda: data.synth_generate(data.default_layout(), data.PathLossModel(), 626, 1, seed=0),
        ValueError, "at most 625 distinct grid locations"),
    "GP x and y of different lengths": (
        lambda: hpo.GpSurrogate(np.zeros((3, 2)), np.zeros(2)),
        ValueError, "matching x/y lengths"),
    "pixel Conv2d given rows of the wrong length": (
        lambda: models.build_model("cnn", seed=0).layers[0].forward(np.zeros((1, 12))),
        ShapeError, "Conv2d(13 beacons->12): got input shape (1, 12)"),
    "unknown model kind for inputs": (
        lambda: models.prepare_inputs("rnn", np.zeros((1, 13)), data.default_layout()),
        ValueError, "unknown model kind 'rnn'"),
    "Conv2d channel mismatch": (
        lambda: nn.Conv2d(1, 12, (7, 7)).forward(np.zeros((1, 25, 25, 3))),
        ShapeError, "Conv2d(1->12): got input shape (1, 25, 25, 3)"),
    "Conv2d input smaller than its kernel": (
        lambda: nn.Conv2d(1, 12, (7, 7)).forward(np.zeros((1, 6, 25, 1))),
        ShapeError, "input 6x25 smaller than kernel 7x7"),
    "pixel Conv2d on more than one channel": (
        lambda: nn.Conv2d(2, 12, (7, 7), 25, 1, [(0, 0)]),
        ValueError, "reads one channel"),
    "pixel Conv2d on an image smaller than its kernel": (
        lambda: nn.Conv2d(1, 12, (7, 7), 6, 1, [(0, 0)]),
        ValueError, "side 6"),
    "pixel Conv2d given a pixel count unlike its pixels": (
        lambda: nn.Conv2d(1, 12, (7, 7), 25, 2, [(0, 0)]),
        ValueError, "2 beacon pixels have shape (2, 2), got (1, 2)"),
    "output and target shapes differ": (
        lambda: nn.backward(models.build_model("dnn", seed=0), np.zeros((2, 13)), np.zeros((2, 3))),
        ShapeError, "!= target shape (2, 3)"),
    "evaluate on an empty test set": (
        lambda: nn.evaluate(models.build_model("dnn", seed=0), np.zeros((0, 13)), np.zeros((0, 2)), 10.0),
        ValueError, "empty test set"),
}


@pytest.mark.parametrize("call, error, fragment", CHECKS.values(), ids=CHECKS.keys())
def test_check_raises(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_fingerprints_compare_unequal_to_other_types():
    assert (_table() == 5) is False
    assert _table() != "table"
