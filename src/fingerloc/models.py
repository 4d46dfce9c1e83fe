"""Model builders and the encoding of RSSI vectors for each model.

Architectures:
  * dnn: 13 -> 50 -> 50 -> 50 -> 2, ReLU hidden layers, linear output.
  * cnn: beacon vectors on the 25x25 grid -> Conv(12, 7x7, valid) ->
    3x3 max-pool -> Conv(12, 5x5, valid) -> 2x2 max-pool -> Dense(24) -> Dense(2).
    Pooling is ceil-mode (spatial chain 25 -> 19 -> 7 -> 3 -> 2), giving
    2*2*12 = 48 flattened features and 5438 parameters total. Each conv
    is saved as conv, ReLU, pool, the order ``model.bin`` records; the
    ``Network`` runs each ReLU after its pool, on the smaller array, with
    the same bits (see ``nn.Network``).
  * autoencoder: 13 -> 8 -> 4 -> 8 -> 13 on normalized RSSI vectors,
    ReLU hidden layers, sigmoid output.

The CNN reads no image. Its first layer is a pixel ``nn.Conv2d`` that holds
each beacon's image pixel, the pixel nearest its layout position (a
coordinate above 24.5 takes the last row or column), and reads the beacon
vectors as the one-channel image that is zero except at those pixels. Only
two beacons on one pixel make a layout unusable here. The CNN and the
autoencoder read every reading as rssi / -200, so a no-signal beacon
(-200 dBm) is the brightest pixel value 1.0. That is the deliberate,
literal convention for this encoding.
"""
from __future__ import annotations

import numpy as np

from .data import GRID_SIZE, NO_SIGNAL, BeaconLayout, Fingerprints, default_layout, split
from .errors import DataError, LayoutError
from .nn import (Conv2d, Dense, Flatten, MaxPool2d, Metrics, Network, ReLU, Sigmoid, TrainConfig,
                 evaluate, train)

DNN_HIDDEN = (50, 50, 50)
AUTOENCODER_HIDDEN = (8, 4, 8)
HOLDOUT_RATIO = 0.8  # train fraction of every split


def _dense_stack(sizes: tuple[int, ...], output: list) -> list:
    """Dense layers between consecutive ``sizes``, a ReLU after each but the last, then ``output``."""
    layers = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        layers += [Dense(n_in, n_out), ReLU()]
    layers[-1:] = output
    return layers


def build_model(kind: str, seed: int, n_beacons: int = 13, layout: BeaconLayout | None = None) -> Network:
    """The ``kind`` model seeded by ``seed``. The DNN and the autoencoder read ``n_beacons`` columns; the CNN
    reads ``layout``'s beacons at their ``beacon_pixels``, the default layout's if ``layout`` is None."""
    if kind == "dnn":
        return Network(_dense_stack((n_beacons, *DNN_HIDDEN, 2), []), seed=seed)
    if kind == "cnn":
        side = -(-(GRID_SIZE - 7 + 1) // 3)  # conv1, then a ceil-mode 3x3 pool
        side = -(-(side - 5 + 1) // 2)  # conv2, then a ceil-mode 2x2 pool
        pixels = beacon_pixels(default_layout() if layout is None else layout)
        layers = [
            Conv2d(1, 12, (7, 7), GRID_SIZE, len(pixels), pixels), ReLU(), MaxPool2d((3, 3)),
            Conv2d(12, 12, (5, 5)), ReLU(), MaxPool2d((2, 2)),
            Flatten(),
            *_dense_stack((side * side * 12, 24, 2), []),
        ]
        return Network(layers, seed=seed)
    if kind == "autoencoder":
        # a sigmoid output keeps the reconstruction in the normalized [0,1] range
        return Network(_dense_stack((n_beacons, *AUTOENCODER_HIDDEN, n_beacons), [Sigmoid()]), seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")


def beacon_pixels(layout: BeaconLayout) -> list[tuple[int, int]]:
    """(row, col) of the image pixel nearest each beacon; collisions are a layout error."""
    pixels = [(min(int(round(y)), GRID_SIZE - 1), min(int(round(x)), GRID_SIZE - 1))
              for x, y in zip(layout.xs, layout.ys)]
    for i, pixel in enumerate(pixels):
        if pixel in pixels[:i]:
            raise LayoutError(f"beacons {layout.ids[pixels.index(pixel)]} and {layout.ids[i]} "
                              f"share image pixel (row, col) {pixel}")
    return pixels


def prepare_inputs(kind: str, rssi_vectors: np.ndarray, layout: BeaconLayout | None = None) -> np.ndarray:
    """Model-ready input batch from raw dBm vectors (N, n_beacons): raw dBm for the DNN, rssi / -200 for the
    CNN and the autoencoder. Every model reads the columns in the layout's beacon order, so ``layout`` is
    not read."""
    rssi_vectors = np.asarray(rssi_vectors, dtype=np.float64)
    if kind == "dnn":
        return rssi_vectors
    if kind in ("cnn", "autoencoder"):
        return rssi_vectors / NO_SIGNAL
    raise ValueError(f"unknown model kind {kind!r}")


def fit(kind: str, train_set: Fingerprints, test_set: Fingerprints, layout: BeaconLayout,
        config: TrainConfig) -> tuple[Network, list[float], Metrics]:
    """Build the model seeded by ``config.seed``, train it on ``train_set``, score it on ``test_set``. The
    one place a labelled table becomes model inputs (:func:`prepare_inputs`) and (N, 2) float grid-coordinate
    targets."""
    if not (len(train_set) and len(test_set)):
        raise DataError(f"{len(train_set) + len(test_set)} labelled rows are too few to split")
    network = build_model(kind, seed=config.seed, n_beacons=layout.n_beacons, layout=layout)
    history = train(network, prepare_inputs(kind, train_set.rssi), train_set.cells.astype(np.float64), config)
    metrics = evaluate(network, prepare_inputs(kind, test_set.rssi), test_set.cells.astype(np.float64),
                       layout.cell_feet)
    return network, history, metrics


def score(kind: str, labelled: Fingerprints, layout: BeaconLayout, config: TrainConfig) -> Metrics:
    """Test metrics of ``fit`` on ``labelled`` split at ``HOLDOUT_RATIO`` by ``config.seed``, the seed
    that also initialises and shuffles the model."""
    return fit(kind, *split(labelled, HOLDOUT_RATIO, config.seed), layout, config)[2]
