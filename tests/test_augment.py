import numpy as np
import pytest

from fingerloc import augment as aug
from fingerloc import data, models
from fingerloc.data import NO_SIGNAL
from conftest import labelled_table


def naive(table, policy):
    return aug.naive_augment(table, data.find_underrepresented(table, policy.threshold), policy)


def autoencoder_augment(table, net, policy):
    groups = data.find_underrepresented(table, policy.threshold)
    return aug.autoencoder_augment(table, groups, net, policy)


def vec(**overrides):
    v = [NO_SIGNAL] * 13
    for k, val in overrides.items():
        v[int(k[1:])] = val
    return v


class TestNaive:
    def test_shared_beacons_sampled_missing_skipped(self):
        # two samples at one location; beacon 2 present in only one of them
        table = labelled_table([(4, 4), (4, 4)], [vec(b0=-70.0, b1=-80.0, b2=-65.0),
                                                  vec(b0=-60.0, b1=-85.0)], ["a", "b"])
        policy = aug.AugmentationPolicy(threshold=10, seed=0)
        generated = naive(table, policy)
        assert len(generated) == 1
        g = generated.rssi[0]
        assert -70.0 <= g[0] <= -60.0
        assert -85.0 <= g[1] <= -80.0
        assert g[2] == NO_SIGNAL
        assert generated.labels[0] == table.labels[0]

    def test_single_sample_location_degenerate_range(self):
        table = labelled_table([(2, 3)], [vec(b0=-55.0, b5=-90.0)])
        generated = naive(table, aug.AugmentationPolicy(seed=1))
        assert np.array_equal(generated.rssi, table.rssi)

    def test_deterministic(self):
        table = labelled_table([(4, 4), (4, 4)], [vec(b0=-70.0, b1=-80.0), vec(b0=-60.0, b1=-85.0)],
                               ["a", "b"])
        policy = aug.AugmentationPolicy(seed=7)
        assert naive(table, policy) == naive(table, policy)

    def test_one_per_underrepresented_location(self, synth_dataset):
        policy = aug.AugmentationPolicy(threshold=10, seed=0)
        generated = naive(synth_dataset.labelled, policy)
        cells = data.find_underrepresented(synth_dataset.labelled, 10)
        assert len(generated) == len(cells)

    def test_values_within_envelope_or_no_signal(self, synth_dataset):
        policy = aug.AugmentationPolicy(threshold=10, seed=3)
        by_cell = {cell: synth_dataset.labelled.rssi[rows] for cell, rows
                   in data.find_underrepresented(synth_dataset.labelled, 10)}
        generated = naive(synth_dataset.labelled, policy)
        for cell, rssi in zip(generated.cells.tolist(), generated.rssi.tolist()):
            group = by_cell[tuple(cell)]
            for b, v in enumerate(rssi):
                values = group[:, b]
                assert v == NO_SIGNAL or min(values) <= v <= max(values)

    def test_originals_untouched(self, synth_dataset):
        snapshot = synth_dataset.labelled.take(np.arange(len(synth_dataset.labelled)))
        naive(synth_dataset.labelled, aug.AugmentationPolicy(seed=0))
        assert synth_dataset.labelled == snapshot


class TestAutoencoderTraining:
    def test_epoch_count_and_determinism(self, synth_dataset):
        policy = aug.AugmentationPolicy(autoencoder_epochs=5, seed=2)
        net1, hist1 = aug.train_autoencoder(synth_dataset.unlabelled, policy)
        net2, hist2 = aug.train_autoencoder(synth_dataset.unlabelled, policy)
        assert len(hist1) == 5
        assert hist1 == hist2
        for a, b in zip(net1.parameters(), net2.parameters()):
            assert np.array_equal(a, b)

    def test_reconstruction_trend_on_memorization_set(self):
        rng = np.random.Generator(np.random.PCG64(0))
        rssi = [rng.uniform(-150.0, -40.0, 13) for _ in range(10)]
        vectors = data.Fingerprints(np.array(rssi), [""] * 10, None, None)
        policy = aug.AugmentationPolicy(autoencoder_epochs=500, seed=0)
        _, history = aug.train_autoencoder(vectors, policy)
        # non-increasing trend with 5% slack between the first and last quarter
        first, last = np.mean(history[:125]), np.mean(history[-125:])
        assert last <= first * 1.05

    def test_empty_unlabelled_rejected(self):
        with pytest.raises(ValueError):
            aug.train_autoencoder([], aug.AugmentationPolicy())


class _ConstantNet:
    """Stand-in autoencoder producing a fixed normalized output."""

    def __init__(self, out):
        self.out = np.asarray(out, dtype=np.float64)

    def forward(self, x):
        return np.tile(self.out, (len(x), 1))


class TestAutoencoderAugment:
    def test_candidate_on_seen_beacons_kept(self):
        table = labelled_table([(1, 1)], [vec(b0=-50.0, b1=-60.0)])
        out = np.ones(13)
        out[0], out[1] = 0.3, 0.4  # signal only on seen beacons
        kept, discarded = autoencoder_augment(table, _ConstantNet(out), aug.AugmentationPolicy())
        assert len(kept) == 1 and discarded == 0
        assert kept.rssi[0, 0] == pytest.approx(0.3 * NO_SIGNAL)

    def test_candidate_on_never_seen_beacon_discarded(self):
        table = labelled_table([(1, 1)], [vec(b0=-50.0)])
        out = np.ones(13)
        out[0], out[7] = 0.3, 0.5  # beacon 7 never had signal at this cell
        kept, discarded = autoencoder_augment(table, _ConstantNet(out), aug.AugmentationPolicy())
        assert len(kept) == 0 and discarded == 1

    def test_filter_respects_tau(self):
        table = labelled_table([(1, 1)], [vec(b0=-50.0)])
        out = np.ones(13)
        out[0], out[7] = 0.3, 0.95  # 0.95 >= tau: beacon 7 counts as no-signal
        kept, discarded = autoencoder_augment(table, _ConstantNet(out),
                                              aug.AugmentationPolicy(signal_tau=0.9))
        assert len(kept) == 1 and discarded == 0

    def test_adversarial_candidates_never_pass(self):
        rng = np.random.Generator(np.random.PCG64(5))
        policy = aug.AugmentationPolicy()
        for _ in range(50):
            seen_beacon = int(rng.integers(0, 13))
            table = labelled_table([(2, 2)], [vec(**{f"b{seen_beacon}": -60.0})])
            out = rng.uniform(size=13)
            kept, _ = autoencoder_augment(table, _ConstantNet(out), policy)
            for k in kept.rssi:
                for b in range(13):
                    if b != seen_beacon:
                        assert k[b] / NO_SIGNAL >= policy.signal_tau

    def test_generated_values_in_range(self, synth_dataset):
        policy = aug.AugmentationPolicy(autoencoder_epochs=2, seed=0)
        net, _ = aug.train_autoencoder(synth_dataset.unlabelled, policy)
        kept, _ = autoencoder_augment(synth_dataset.labelled, net, policy)
        assert ((NO_SIGNAL <= kept.rssi) & (kept.rssi <= 0.0)).all()


class TestHybrid:
    def test_accounting_identity(self, synth_dataset):
        policy = aug.AugmentationPolicy(autoencoder_epochs=2, seed=0)
        net, _ = aug.train_autoencoder(synth_dataset.unlabelled, policy)
        result = aug.augment(synth_dataset.labelled, "hybrid", policy, net)
        c = result.counts
        assert c["total"] == c["original"] + c["naive"] + c["kept"]
        assert len(result.samples) == c["total"]
        assert result.sources.count("original") == c["original"]
        assert result.sources.count("naive") == c["naive"]
        assert result.sources.count("autoencoder") == c["kept"]

    def test_no_underrepresented_is_identity(self):
        samples = labelled_table([(0, 0)] * 12, [vec(b0=-50.0)] * 12, [f"s{i}" for i in range(12)])
        result = aug.augment(samples, "hybrid", aug.AugmentationPolicy(threshold=10),
                             _ConstantNet(np.ones(13)))
        assert result.samples == samples

    def test_strategy_none_is_identity(self, synth_dataset):
        result = aug.augment(synth_dataset.labelled, "none", aug.AugmentationPolicy())
        assert result.samples == synth_dataset.labelled
        assert set(result.sources) == {"original"}

    def test_autoencoder_strategy_requires_network(self, synth_dataset):
        with pytest.raises(ValueError):
            aug.augment(synth_dataset.labelled, "autoencoder", aug.AugmentationPolicy())

    def test_labels_are_existing_underrepresented_cells(self, synth_dataset):
        policy = aug.AugmentationPolicy(autoencoder_epochs=2, seed=1)
        net, _ = aug.train_autoencoder(synth_dataset.unlabelled, policy)
        result = aug.augment(synth_dataset.labelled, "hybrid", policy, net)
        under = {cell for cell, _ in data.find_underrepresented(synth_dataset.labelled,
                                                                policy.threshold)}
        for cell, src in zip(result.samples.cells.tolist(), result.sources):
            if src != "original":
                assert tuple(cell) in under
