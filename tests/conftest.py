import os
from pathlib import Path

import numpy as np
import pytest

from fingerloc import data


@pytest.fixture(scope="session")
def layout():
    return data.default_layout()


@pytest.fixture(scope="session")
def synth_dataset(layout):
    model = data.PathLossModel(noise_std=2.0)
    return data.synth_generate(layout, model, n_locations=60, samples_per_location=4,
                               seed=11, n_unlabelled=200)


def labelled_table(cells, rssi, timestamps=None):
    """A labelled table, one row per (cell, RSSI vector); labels encode the cells."""
    labels = [data.encode_location_label(data.GridPoint(float(x), float(y))) for x, y in cells]
    if timestamps is None:
        timestamps = [""] * len(cells)
    return data.Fingerprints(np.array(rssi, dtype=np.float64), timestamps, cells, labels)


def uci_paths():
    """(labelled, unlabelled) CSVs under FINGERLOC_DATA_DIR, or None."""
    root = os.environ.get("FINGERLOC_DATA_DIR")
    if not root:
        return None
    labelled = Path(root) / "labelled.csv"
    unlabelled = Path(root) / "unlabelled.csv"
    if labelled.exists() and unlabelled.exists():
        return labelled, unlabelled
    return None


requires_uci = pytest.mark.skipif(
    uci_paths() is None,
    reason="UCI corpus not present (set FINGERLOC_DATA_DIR with labelled.csv/unlabelled.csv)",
)


@pytest.fixture(scope="session")
def uci_dataset(layout):
    paths = uci_paths()
    if paths is None:
        pytest.skip("UCI corpus not present")
    return data.load_dataset(paths[0], paths[1], layout)
