"""Beacon rationalization: input-layer dropout of individual beacons.

Silencing a beacon sets its RSSI to no-signal in every labelled sample and
removes the samples for which it was the only beacon with signal. One
``models.score`` per seed on each residual dataset, averaged over the seeds,
quantifies the beacon's contribution to accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import NO_SIGNAL, Dataset
from .errors import FingerlocError
from .models import score
from .nn import TrainConfig


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


def _mean_error_feet(model_kind: str, config: TrainConfig, dataset: Dataset, seeds: list[int]) -> float:
    errors = [score(model_kind, dataset.labelled, dataset.layout, replace(config, seed=seed)).mean_error_feet
              for seed in seeds]
    with np.errstate(over="ignore"):  # a sum past the float range is inf; data.write_json refuses it
        return float(np.mean(errors))


def dropout_study(model_kind: str, config: TrainConfig, dataset: Dataset,
                  seeds: list[int]) -> DropoutStudyResult:
    """Baseline plus one retrain per silenced beacon, averaged over seeds.

    Per-beacon failures are recorded on the impact row; the study continues.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    baseline = _mean_error_feet(model_kind, config, dataset, seeds)
    impacts = []
    for beacon_id in dataset.layout.ids:
        residual = drop_beacon(dataset, beacon_id)
        try:
            err, error = _mean_error_feet(model_kind, config, residual, seeds), None
        except FingerlocError as e:  # degenerate residual or divergence
            err, error = None, str(e)
        impacts.append(BeaconImpact(beacon_id, residual_samples=len(residual.labelled), mean_error_feet=err,
                                    delta_feet=None if err is None else err - baseline, error=error))
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
