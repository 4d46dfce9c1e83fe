"""Beacon rationalization: input-layer dropout of individual beacons.

Silencing a beacon sets its RSSI to no-signal in every labelled sample and
removes the samples for which it was the only beacon with signal. Retraining
on each residual dataset quantifies the beacon's contribution to accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import NO_SIGNAL, Dataset, split
from .errors import FingerlocError
from .models import build_model, xy
from .nn import TrainConfig, evaluate, train


def drop_beacon(dataset: Dataset, beacon_id: str) -> Dataset:
    """Residual dataset after silencing one beacon. Idempotent."""
    idx = dataset.layout.index_of(beacon_id)
    has = dataset.labelled.rssi > NO_SIGNAL
    residual = dataset.labelled.take(~(has[:, idx] & (has.sum(axis=1) == 1)))
    rssi = residual.rssi.copy()
    rssi[:, idx] = NO_SIGNAL
    return replace(dataset, labelled=replace(residual, rssi=rssi))


@dataclass
class BeaconImpact:
    beacon_id: str
    residual_samples: int
    mean_error_feet: float | None
    delta_feet: float | None
    error: str | None = None  # set when training failed for this beacon


@dataclass
class DropoutStudyResult:
    baseline_feet: float
    impacts: list[BeaconImpact]
    seeds: list[int]


def _mean_error_feet(model_kind: str, config: TrainConfig, dataset: Dataset,
                     seeds: list[int], ratio: float) -> float:
    errors = []
    layout = dataset.layout
    for seed in seeds:
        train_set, test_set = split(dataset.labelled, ratio, seed)
        if not train_set or not test_set:
            raise ValueError("split produced an empty partition")
        x_train, y_train = xy(model_kind, train_set, layout)
        x_test, y_test = xy(model_kind, test_set, layout)
        network = build_model(model_kind, seed=seed, n_beacons=layout.n_beacons)
        cfg = replace(config, seed=seed)
        train(network, x_train, y_train, cfg)
        errors.append(evaluate(network, x_test, y_test, layout.cell_feet).mean_error_feet)
    return float(np.mean(errors))


def dropout_study(model_kind: str, config: TrainConfig, dataset: Dataset,
                  seeds: list[int], ratio: float = 0.8) -> DropoutStudyResult:
    """Baseline plus one retrain per silenced beacon, averaged over seeds.

    Per-beacon failures are recorded on the impact row; the study continues.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    baseline = _mean_error_feet(model_kind, config, dataset, seeds, ratio)
    impacts = []
    for beacon_id in dataset.layout.ids:
        residual = drop_beacon(dataset, beacon_id)
        try:
            err = _mean_error_feet(model_kind, config, residual, seeds, ratio)
            impacts.append(BeaconImpact(beacon_id=beacon_id,
                                        residual_samples=len(residual.labelled),
                                        mean_error_feet=err,
                                        delta_feet=err - baseline))
        except (FingerlocError, ValueError) as e:  # degenerate residual or divergence
            impacts.append(BeaconImpact(beacon_id=beacon_id,
                                        residual_samples=len(residual.labelled),
                                        mean_error_feet=None, delta_feet=None,
                                        error=str(e)))
    return DropoutStudyResult(baseline_feet=baseline, impacts=impacts, seeds=list(seeds))


def rank_beacons(result: DropoutStudyResult) -> list[tuple[BeaconImpact, bool]]:
    """Beacons by descending accuracy impact; flag = removal improves accuracy.

    Ties and failed rows order by beacon id; failed rows sort last.
    """
    def key(impact: BeaconImpact):
        failed = impact.delta_feet is None
        return (failed, -(impact.delta_feet or 0.0), impact.beacon_id)

    ordered = sorted(result.impacts, key=key)
    return [(i, i.delta_feet is not None and i.delta_feet < 0.0) for i in ordered]
