"""Labelled-set augmentation for under-represented grid locations.

Three strategies: range-sampling ("naive"), autoencoder reconstruction of
one existing sample per location trained on the unlabelled pool, and their
union ("hybrid"). Originals are never mutated; generated samples carry the
location label of the cell they were grown from.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import NO_SIGNAL, Fingerprints, GridPoint, encode_location_label, find_underrepresented
from .models import build_model
from .nn import Network, TrainConfig, train

# (cell, row indices) per under-represented cell, as find_underrepresented returns them
Groups = list[tuple[tuple[int, int], np.ndarray]]


@dataclass(frozen=True)
class AugmentationPolicy:
    threshold: int = 10              # a cell with fewer samples is under-represented
    samples_per_location: int = 1
    autoencoder_epochs: int = 20
    # normalized-value cutoff: decoded rssi/-200 below tau counts as "shows signal"
    signal_tau: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if not (0.0 < self.signal_tau < 1.0):
            raise ValueError("signal tau must be in (0, 1)")


def _grown(table: Fingerprints, cells: list[tuple[int, int]], rssi: list[np.ndarray],
           timestamps: list[str]) -> Fingerprints:
    """Generated rows, each labelled with its cell's label."""
    labels = [encode_location_label(GridPoint(float(x), float(y))) for x, y in cells]
    rssi = np.array(rssi, dtype=np.float64).reshape(len(rssi), table.rssi.shape[1])
    return Fingerprints(rssi, timestamps, cells, labels)


def naive_augment(table: Fingerprints, groups: Groups, policy: AugmentationPolicy) -> Fingerprints:
    """Uniform-range samples (``policy.samples_per_location``) per grouped cell.

    A beacon contributes only if it has signal in every existing sample at
    the location; otherwise the generated value is no-signal.
    """
    rng = np.random.Generator(np.random.PCG64(policy.seed))
    cells, rssi, timestamps = [], [], []
    for cell, rows in groups:
        block = table.rssi[rows]
        shared = (block > NO_SIGNAL).all(axis=0)
        lo, hi = block.min(axis=0)[shared], block.max(axis=0)[shared]
        for k in range(policy.samples_per_location):
            values = np.full(block.shape[1], NO_SIGNAL)
            values[shared] = rng.uniform(lo, hi)
            cells.append(cell)
            rssi.append(values)
            timestamps.append(f"naive-{cell[0]}-{cell[1]}-{k}")
    return _grown(table, cells, rssi, timestamps)


def train_autoencoder(unlabelled: Fingerprints, policy: AugmentationPolicy, seed: int | None = None,
                      n_beacons: int = 13) -> tuple[Network, list[float]]:
    """Fit the reconstruction autoencoder on normalized unlabelled vectors."""
    if len(unlabelled) == 0:
        raise ValueError("empty unlabelled set")
    if seed is None:
        seed = policy.seed
    vectors = unlabelled.rssi / NO_SIGNAL
    network = build_model("autoencoder", seed=seed, n_beacons=n_beacons)
    config = TrainConfig(epochs=policy.autoencoder_epochs, batch_size=100,
                         loss="rmse", optimizer="adam", seed=seed)
    history = train(network, vectors, vectors, config)
    return network, history


def autoencoder_augment(table: Fingerprints, groups: Groups, autoencoder: Network,
                        policy: AugmentationPolicy) -> tuple[Fingerprints, int]:
    """Reconstruct the first sample of each grouped cell.

    A candidate is discarded when it shows signal on a beacon never seen
    with signal at that location. Returns (kept rows, discarded count).
    """
    cells, rssi, timestamps = [], [], []
    discarded = 0
    for cell, rows in groups:
        # one batch-1 forward per cell: batching them changes the last bits
        out = np.clip(autoencoder.forward(table.rssi[rows[:1]] / NO_SIGNAL)[0], 0.0, 1.0)
        seen = (table.rssi[rows] > NO_SIGNAL).any(axis=0)
        if np.any((out < policy.signal_tau) & ~seen):
            discarded += 1
            continue
        cells.append(cell)
        rssi.append(np.clip(out * NO_SIGNAL, NO_SIGNAL, 0.0))
        timestamps.append(f"autoenc-{cell[0]}-{cell[1]}")
    return _grown(table, cells, rssi, timestamps), discarded


@dataclass
class AugmentationResult:
    samples: Fingerprints             # originals followed by generated
    sources: list[str]                # per-row provenance
    counts: dict[str, int]


def augment(table: Fingerprints, strategy: str, policy: AugmentationPolicy,
            autoencoder: Network | None = None) -> AugmentationResult:
    """Apply a strategy {none, naive, autoencoder, hybrid} and account for it."""
    if strategy not in ("none", "naive", "autoencoder", "hybrid"):
        raise ValueError(f"unknown strategy {strategy!r}")
    groups = find_underrepresented(table, policy.threshold)
    counts = {"original": len(table), "naive": 0, "kept": 0, "discarded": 0}
    parts = [table]
    sources = ["original"] * len(table)
    if strategy in ("naive", "hybrid"):
        new = naive_augment(table, groups, policy)
        counts["naive"] = len(new)
        parts.append(new)
        sources += ["naive"] * len(new)
    if strategy in ("autoencoder", "hybrid"):
        if autoencoder is None:
            raise ValueError("autoencoder strategy requires a trained autoencoder")
        new, discarded = autoencoder_augment(table, groups, autoencoder, policy)
        counts["kept"] = len(new)
        counts["discarded"] = discarded
        parts.append(new)
        sources += ["autoencoder"] * len(new)
    out = Fingerprints(*(np.concatenate([getattr(t, f.name) for t in parts]) for f in fields(Fingerprints)))
    counts["total"] = len(out)
    return AugmentationResult(samples=out, sources=sources, counts=counts)
