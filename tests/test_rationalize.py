from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, strategies as st

from fingerloc import data, models, rationalize
from fingerloc.data import Dataset, NO_SIGNAL
from fingerloc.errors import LayoutError
from fingerloc.nn import TrainConfig
from conftest import labelled_table


def no_unlabelled(layout):
    return data.Fingerprints(np.empty((0, layout.n_beacons)), [])


def beacons_with_signal(rssi):
    return {b for b, v in enumerate(rssi) if v > NO_SIGNAL}


@pytest.fixture
def small_dataset(layout):
    signals = {"only-b0": {0}, "b0-b1": {0, 1}, "only-b2": {2}, "silent": set()}
    rssi = [[-70.0 if b in beacons else NO_SIGNAL for b in range(layout.n_beacons)]
            for beacons in signals.values()]
    samples = labelled_table([(5, 5)] * len(signals), rssi, list(signals))
    return Dataset(labelled=samples, unlabelled=no_unlabelled(layout), layout=layout)


class TestDropBeacon:
    def test_removes_only_signal_samples(self, small_dataset, layout):
        residual = rationalize.drop_beacon(small_dataset, layout.ids[0])
        stamps = residual.labelled.timestamps.tolist()
        assert stamps == ["b0-b1", "only-b2", "silent"]

    def test_silences_beacon_everywhere(self, small_dataset, layout):
        idx = 0
        residual = rationalize.drop_beacon(small_dataset, layout.ids[idx])
        assert (residual.labelled.rssi[:, idx] == NO_SIGNAL).all()

    def test_all_silent_beacon_changes_nothing(self, small_dataset, layout):
        # beacon 12 has no signal in any sample
        residual = rationalize.drop_beacon(small_dataset, layout.ids[12])
        assert len(residual.labelled) == len(small_dataset.labelled)

    def test_idempotent(self, small_dataset, layout):
        once = rationalize.drop_beacon(small_dataset, layout.ids[0])
        twice = rationalize.drop_beacon(once, layout.ids[0])
        assert once.labelled == twice.labelled

    @given(st.lists(st.lists(st.sampled_from([NO_SIGNAL, -60.0, -81.5]), min_size=13, max_size=13),
                    max_size=30), st.integers(0, 12))
    def test_idempotent_and_removes_exactly_single_signal_rows(self, layout, rows, idx):
        stamps = [str(i) for i in range(len(rows))]
        table = labelled_table([(3, 4)] * len(rows), np.array(rows).reshape(len(rows), 13), stamps)
        ds = Dataset(labelled=table, unlabelled=no_unlabelled(layout), layout=layout)
        once = rationalize.drop_beacon(ds, layout.ids[idx])
        assert rationalize.drop_beacon(once, layout.ids[idx]).labelled == once.labelled
        kept = [s for s, r in zip(stamps, rows) if beacons_with_signal(r) != {idx}]
        assert once.labelled.timestamps.tolist() == kept
        assert (once.labelled.rssi[:, idx] == NO_SIGNAL).all()

    def test_unknown_beacon(self, small_dataset):
        with pytest.raises(LayoutError):
            rationalize.drop_beacon(small_dataset, "b9999")

    def test_originals_untouched(self, small_dataset, layout):
        snapshot = small_dataset.labelled.take(np.arange(len(small_dataset.labelled)))
        rationalize.drop_beacon(small_dataset, layout.ids[0])
        assert small_dataset.labelled == snapshot

    def test_residual_matches_brute_force(self, synth_dataset):
        layout = synth_dataset.layout
        for beacon_id in layout.ids[:4]:
            idx = layout.index_of(beacon_id)
            residual = rationalize.drop_beacon(synth_dataset, beacon_id)
            rows = zip(synth_dataset.labelled.timestamps.tolist(), synth_dataset.labelled.rssi.tolist())
            expected = [stamp for stamp, rssi in rows
                        if not (rssi[idx] > NO_SIGNAL
                                and all(v == NO_SIGNAL for b, v in enumerate(rssi) if b != idx))]
            assert len(residual.labelled) == len(expected)
            assert residual.labelled.timestamps.tolist() == expected

    def test_deficit_accounting(self, synth_dataset):
        # removed samples per beacon = samples whose signal set is exactly that beacon
        layout = synth_dataset.layout
        singles = {i: 0 for i in range(layout.n_beacons)}
        for rssi in synth_dataset.labelled.rssi.tolist():
            sset = beacons_with_signal(rssi)
            if len(sset) == 1:
                singles[next(iter(sset))] += 1
        for i, beacon_id in enumerate(layout.ids):
            residual = rationalize.drop_beacon(synth_dataset, beacon_id)
            assert len(synth_dataset.labelled) - len(residual.labelled) == singles[i]


FAST_CONFIG = TrainConfig(epochs=3, batch_size=50, seed=0)


@pytest.fixture(scope="module")
def study(synth_dataset):
    return rationalize.dropout_study("dnn", FAST_CONFIG, synth_dataset, seeds=[0, 1])


class TestDropoutStudy:

    def test_every_beacon_once(self, study, synth_dataset):
        assert [i.beacon_id for i in study.impacts] == list(synth_dataset.layout.ids)

    def test_residual_counts_seed_independent(self, synth_dataset, study):
        again = rationalize.dropout_study("dnn", FAST_CONFIG, synth_dataset, seeds=[5])
        assert [i.residual_samples for i in again.impacts] == \
               [i.residual_samples for i in study.impacts]

    def test_deltas_relative_to_baseline(self, study):
        for i in study.impacts:
            if i.delta_feet is not None:
                assert i.delta_feet == pytest.approx(i.mean_error_feet - study.baseline_feet)

    def test_baseline_is_the_mean_score_over_seeds(self, study, synth_dataset):
        errors = [models.score("dnn", synth_dataset.labelled, synth_dataset.layout,
                               replace(FAST_CONFIG, seed=seed)).mean_error_feet for seed in study.seeds]
        assert study.baseline_feet == float(np.mean(errors))

    def test_requires_seed(self, synth_dataset):
        with pytest.raises(ValueError):
            rationalize.dropout_study("dnn", FAST_CONFIG, synth_dataset, seeds=[])

    def test_degenerate_single_beacon_layout_reports_error(self):
        layout = data.BeaconLayout(ids=("solo",), xs=(5.0,), ys=(5.0,))
        samples = labelled_table([(c, 1) for c in range(10)], [[-70.0]] * 10,
                                 [str(c) for c in range(10)])
        ds = Dataset(labelled=samples, unlabelled=no_unlabelled(layout), layout=layout)
        result = rationalize.dropout_study("dnn", FAST_CONFIG, ds, seeds=[0])
        assert result.impacts[0].residual_samples == 0
        assert result.impacts[0].error is not None
        assert result.impacts[0].mean_error_feet is None
        assert result.impacts[0].delta_feet is None

    def test_programming_error_propagates(self, synth_dataset, monkeypatch):
        # the baseline trains once per seed; the first per-beacon retrain then fails
        calls = []
        real_score = rationalize.score

        def score(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise TypeError("bug in training code")
            return real_score(*args, **kwargs)

        monkeypatch.setattr(rationalize, "score", score)
        with pytest.raises(TypeError, match="bug in training code"):
            rationalize.dropout_study("dnn", FAST_CONFIG, synth_dataset, seeds=[0])


class TestRankBeacons:
    def _result(self, deltas):
        impacts = [rationalize.BeaconImpact(beacon_id=k, residual_samples=100,
                                            mean_error_feet=20.0 + v, delta_feet=v)
                   for k, v in deltas.items()]
        return rationalize.DropoutStudyResult(baseline_feet=20.0, impacts=impacts, seeds=[0])

    def test_sorted_by_descending_delta(self):
        ranked = rationalize.rank_beacons(self._result({"b03": 3.0, "b01": -1.0, "b07": 0.2}))
        assert [i.beacon_id for i, _ in ranked] == ["b03", "b07", "b01"]
        flags = {i.beacon_id: f for i, f in ranked}
        assert flags == {"b03": False, "b07": False, "b01": True}

    def test_ties_break_by_beacon_id(self):
        ranked = rationalize.rank_beacons(self._result({"b2": 1.0, "b1": 1.0, "b3": 1.0}))
        assert [i.beacon_id for i, _ in ranked] == ["b1", "b2", "b3"]

    def test_failed_rows_sort_last(self):
        result = self._result({"b1": 1.0})
        result.impacts.append(rationalize.BeaconImpact(
            beacon_id="b0", residual_samples=0, mean_error_feet=None,
            delta_feet=None, error="empty residual"))
        ranked = rationalize.rank_beacons(result)
        assert ranked[-1][0].beacon_id == "b0"
        assert ranked[-1][1] is False
