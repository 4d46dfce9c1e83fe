"""Labelled-set augmentation for under-represented grid locations.

Three strategies: range-sampling ("naive"), autoencoder reconstruction of
one existing sample per location trained on the unlabelled pool, and their
union ("hybrid"). Originals are never mutated; a generated sample's location
is the cell it was grown from.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import NO_SIGNAL, Fingerprints, find_underrepresented
from .errors import DataError
from .models import build_model, prepare_inputs
from .nn import Network, TrainConfig, train

# (cell, row indices) per under-represented cell, as find_underrepresented returns them
Groups = list[tuple[tuple[int, int], np.ndarray]]

STRATEGIES = ("none", "naive", "autoencoder", "hybrid")

# an autoencoder reading at or below SIGNAL_TAU * NO_SIGNAL (-180 dBm) is written as NO_SIGNAL
SIGNAL_TAU = 0.9


@dataclass(frozen=True)
class AugmentationPolicy:
    threshold: int = 10              # a cell with fewer samples is under-represented
    autoencoder_epochs: int = 20
    seed: int = 0


def naive_augment(table: Fingerprints, groups: Groups, policy: AugmentationPolicy) -> Fingerprints:
    """One uniform-range sample per grouped cell.

    A beacon contributes only if it has signal in every existing sample at
    the location; otherwise the generated value is no-signal.
    """
    rng = np.random.Generator(np.random.PCG64(policy.seed))
    rssi = np.full((len(groups), table.rssi.shape[1]), NO_SIGNAL)
    for values, (_, rows) in zip(rssi, groups):
        block = table.rssi[rows]
        shared = (block > NO_SIGNAL).all(axis=0)
        values[shared] = rng.uniform(block.min(axis=0)[shared], block.max(axis=0)[shared])
    cells = [cell for cell, _ in groups]
    # the trailing 0 is the sample's index within its cell
    return Fingerprints(rssi, [f"naive-{col}-{row}-0" for col, row in cells], cells)


def train_autoencoder(unlabelled: Fingerprints, policy: AugmentationPolicy) -> tuple[Network, list[float]]:
    """Fit the reconstruction autoencoder, one input per beacon column and seeded by ``policy.seed``,
    on unlabelled vectors encoded as :func:`models.prepare_inputs` encodes them for it."""
    if len(unlabelled) == 0:
        raise DataError("the autoencoder needs an unlabelled file")
    vectors = prepare_inputs("autoencoder", unlabelled.rssi)
    network = build_model("autoencoder", seed=policy.seed, n_beacons=vectors.shape[1])
    config = TrainConfig(epochs=policy.autoencoder_epochs, batch_size=100,
                         loss="rmse", optimizer="adam", seed=policy.seed)
    history = train(network, vectors, vectors, config)
    return network, history


def autoencoder_augment(table: Fingerprints, groups: Groups,
                        autoencoder: Network) -> tuple[Fingerprints, int]:
    """Reconstruct the first sample of each grouped cell.

    Each output is decoded to dBm, and a reading at or below
    ``SIGNAL_TAU * NO_SIGNAL`` is written as ``NO_SIGNAL``. A candidate is
    discarded when it has signal (``rssi > NO_SIGNAL``) on a beacon never
    seen with signal at that location. Returns (kept rows, discarded count).
    """
    out = np.empty((len(groups), table.rssi.shape[1]))
    seen = np.empty(out.shape, dtype=bool)
    for k, (_, rows) in enumerate(groups):
        # one batch-1 forward per cell: batching them changes the last bits
        out[k] = autoencoder.forward(prepare_inputs("autoencoder", table.rssi[rows[:1]]))[0]
        seen[k] = (table.rssi[rows] > NO_SIGNAL).any(axis=0)
    rssi = np.clip(out * NO_SIGNAL, NO_SIGNAL, 0.0)
    rssi[rssi <= SIGNAL_TAU * NO_SIGNAL] = NO_SIGNAL
    keep = ~((rssi > NO_SIGNAL) & ~seen).any(axis=1)
    cells = [cell for cell, _ in groups]
    grown = Fingerprints(rssi, [f"autoenc-{col}-{row}" for col, row in cells], cells)
    return grown.take(keep), len(groups) - int(keep.sum())


@dataclass
class AugmentationResult:
    samples: Fingerprints             # originals, then naive rows, then autoencoder rows
    counts: dict[str, int]            # rows of each kind ("original", "naive", "kept"), "discarded", "total"


def augment(table: Fingerprints, strategy: str, policy: AugmentationPolicy,
            unlabelled: Fingerprints) -> AugmentationResult:
    """Apply one of ``STRATEGIES`` and account for it. The autoencoder and hybrid strategies first fit
    the autoencoder on ``unlabelled`` (see :func:`train_autoencoder`), if any cell is under-represented."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    groups = find_underrepresented(table, policy.threshold)
    counts = {"original": len(table), "naive": 0, "kept": 0, "discarded": 0}
    parts = [table]
    if strategy in ("naive", "hybrid"):
        new = naive_augment(table, groups, policy)
        counts["naive"] = len(new)
        parts.append(new)
    if strategy in ("autoencoder", "hybrid") and groups:
        new, discarded = autoencoder_augment(table, groups, train_autoencoder(unlabelled, policy)[0])
        counts["kept"] = len(new)
        counts["discarded"] = discarded
        parts.append(new)
    out = Fingerprints(*(np.concatenate([getattr(t, f.name) for t in parts]) for f in fields(Fingerprints)))
    counts["total"] = len(out)
    return AugmentationResult(samples=out, counts=counts)
