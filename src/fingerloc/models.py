"""Model builders and the RSSI <-> grayscale-image codec for the CNN path.

Architectures:
  * dnn: 13 -> 50 -> 50 -> 50 -> 2, ReLU hidden layers, linear output.
  * cnn: 25x25x1 image -> Conv(12, 7x7, valid) -> 3x3 max-pool ->
    Conv(12, 5x5, valid) -> 2x2 max-pool -> Dense(24) -> Dense(2).
    Pooling is ceil-mode (spatial chain 25 -> 19 -> 7 -> 3 -> 2), giving
    2*2*12 = 48 flattened features and 5438 parameters total.
  * autoencoder: 13 -> 8 -> 4 -> 8 -> 13 on normalized RSSI vectors,
    ReLU hidden layers, sigmoid output.

Image codec: every beacon pixel is written as rssi / -200, so a no-signal
beacon (-200 dBm) produces the brightest pixel value 1.0. That is the
deliberate, literal convention for this encoding; pass
``write_no_signal=False`` to leave no-signal beacons at 0 instead.
"""
from __future__ import annotations

import numpy as np

from .data import GRID_SIZE, NO_SIGNAL, BeaconLayout, Fingerprints
from .errors import LayoutError
from .nn import Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU, Sigmoid

MODEL_KINDS = ("dnn", "cnn", "autoencoder")

DNN_HIDDEN = (50, 50, 50)
CNN_POOLING = ((3, 3), (2, 2))  # after conv1 / conv2; configurable assumption
AUTOENCODER_SIZES = (13, 8, 4, 8, 13)


def build_model(kind: str, seed: int, n_beacons: int = 13,
                pooling: tuple[tuple[int, int], tuple[int, int]] = CNN_POOLING) -> Network:
    if kind == "dnn":
        layers = []
        n_in = n_beacons
        for n_out in DNN_HIDDEN:
            layers += [Dense(n_in, n_out), ReLU()]
            n_in = n_out
        layers.append(Dense(n_in, 2))
        return Network(layers, seed=seed)
    if kind == "cnn":
        p1, p2 = pooling
        h = GRID_SIZE - 7 + 1
        h = -(-h // p1[0])
        h = h - 5 + 1
        h = -(-h // p2[0])
        layers = [
            Conv2d(1, 12, (7, 7)), ReLU(), MaxPool2d(p1),
            Conv2d(12, 12, (5, 5)), ReLU(), MaxPool2d(p2),
            Flatten(),
            Dense(h * h * 12, 24), ReLU(),
            Dense(24, 2),
        ]
        return Network(layers, seed=seed)
    if kind == "autoencoder":
        sizes = AUTOENCODER_SIZES
        if n_beacons != sizes[0]:
            sizes = (n_beacons, *AUTOENCODER_SIZES[1:-1], n_beacons)
        layers = []
        for n_in, n_out in zip(sizes, sizes[1:]):
            layers.append(Dense(n_in, n_out))
            layers.append(ReLU())
        layers[-1] = Sigmoid()  # reconstruction stays in the normalized [0,1] range
        return Network(layers, seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")


def beacon_pixels(layout: BeaconLayout) -> list[tuple[int, int]]:
    """Nearest-integer (row, col) pixel per beacon; collisions are a layout error."""
    pixels = []
    for bid, x, y in zip(layout.ids, layout.xs, layout.ys):
        col, row = int(round(x)), int(round(y))
        if not (0 <= col < GRID_SIZE and 0 <= row < GRID_SIZE):
            raise LayoutError(f"beacon {bid} rounds outside the grid")
        pixels.append((row, col))
    if len(set(pixels)) != len(pixels):
        raise LayoutError("two beacons round to the same image pixel")
    return pixels


def encode_fingerprint_image(rssi: np.ndarray | tuple[float, ...], layout: BeaconLayout,
                             write_no_signal: bool = True) -> np.ndarray:
    """Encode one RSSI vector as a 25x25x1 grayscale image."""
    rssi = np.asarray(rssi, dtype=np.float64)
    if rssi.shape != (layout.n_beacons,):
        raise ValueError(f"RSSI vector length {rssi.shape} != layout beacon count {layout.n_beacons}")
    img = np.zeros((GRID_SIZE, GRID_SIZE, 1))
    for (row, col), v in zip(beacon_pixels(layout), rssi):
        if not write_no_signal and v == NO_SIGNAL:
            continue
        img[row, col, 0] = v / NO_SIGNAL
    return img


def decode_image_rssi(image: np.ndarray, layout: BeaconLayout) -> tuple[float, ...]:
    """Read the beacon pixels back to dBm, clamped to [-200, 0]."""
    if image.shape != (GRID_SIZE, GRID_SIZE, 1):
        raise ValueError(f"image shape {image.shape} != ({GRID_SIZE}, {GRID_SIZE}, 1)")
    values = []
    for row, col in beacon_pixels(layout):
        v = float(image[row, col, 0]) * NO_SIGNAL
        values.append(min(max(v, NO_SIGNAL), 0.0))
    return tuple(values)


def prepare_inputs(kind: str, rssi_vectors: np.ndarray, layout: BeaconLayout) -> np.ndarray:
    """Model-ready input batch from raw dBm vectors (N, n_beacons)."""
    rssi_vectors = np.asarray(rssi_vectors, dtype=np.float64)
    if kind == "dnn":
        return rssi_vectors
    if kind == "cnn":
        return np.stack([encode_fingerprint_image(v, layout) for v in rssi_vectors])
    if kind == "autoencoder":
        return rssi_vectors / NO_SIGNAL
    raise ValueError(f"unknown model kind {kind!r}")


def xy(kind: str, table: Fingerprints, layout: BeaconLayout) -> tuple[np.ndarray, np.ndarray]:
    """Model inputs and (N, 2) float grid-coordinate targets of labelled rows."""
    return prepare_inputs(kind, table.rssi, layout), table.cells.astype(np.float64)
