import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fingerloc import data, models, nn
from fingerloc.errors import DataError, LayoutError

rssi_vectors = st.lists(st.floats(min_value=-200.0, max_value=0.0), min_size=13, max_size=13)


class TestBuilders:
    def test_dnn_shapes(self):
        net = models.build_model("dnn", seed=0)
        assert net.forward(np.zeros((1, 13))).shape == (1, 2)

    def test_cnn_shapes(self):
        net = models.build_model("cnn", seed=0)
        assert net.forward(np.zeros((3, 13))).shape == (3, 2)

    def test_autoencoder_reconstruction_shape(self):
        net = models.build_model("autoencoder", seed=0)
        assert net.forward(np.zeros((2, 13))).shape == (2, 13)

    def test_autoencoder_output_in_unit_range(self):
        net = models.build_model("autoencoder", seed=0)
        rng = np.random.Generator(np.random.PCG64(1))
        out = net.forward(rng.uniform(size=(10, 13)))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            models.build_model("transformer", seed=0)

    def test_builder_determinism(self):
        a = models.build_model("cnn", seed=4)
        b = models.build_model("cnn", seed=4)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)


class TestImageCodec:
    """The CNN's pixel mapping, held by its first layer, and its vector encoding, rssi / -200."""

    def test_minus_20_maps_to_0_1(self, layout):
        rssi = [-200.0] * 13
        rssi[0] = -20.0
        assert models.prepare_inputs("cnn", [rssi], layout)[0, 0] == pytest.approx(0.1)

    def test_non_beacon_pixels_zero(self, layout):
        # the first layer reads each row as the image that holds it at the beacon pixels and 0 elsewhere
        conv = models.build_model("cnn", seed=0, layout=layout).layers[0]
        conv.params[1][...] = np.linspace(-0.5, 0.5, conv.out_channels)
        image_conv = nn.Conv2d(1, conv.out_channels, (conv.kh, conv.kw))
        for p, q in zip(image_conv.params, conv.params):
            p[...] = q
        x = models.prepare_inputs("cnn", np.full((2, 13), -50.0), layout)
        image = np.zeros((2, 25, 25, 1))
        rows, cols = np.array(models.beacon_pixels(layout)).T
        image[:, rows, cols, 0] = x
        assert np.array_equal(conv.forward(x), image_conv.forward(image))

    def test_no_signal_maps_to_brightest(self, layout):
        # literal convention: -200 / -200 = 1.0
        assert np.all(models.prepare_inputs("cnn", [[data.NO_SIGNAL] * 13], layout) == 1.0)

    def test_decode_pixel_to_dbm(self, layout):
        rssi = [data.NO_SIGNAL] * 13
        rssi[0] = -20.0
        assert models.prepare_inputs("cnn", [rssi], layout)[0, 0] * data.NO_SIGNAL == pytest.approx(-20.0)

    @given(rssi_vectors)
    def test_encode_decode_identity(self, rssi):
        assert models.prepare_inputs("cnn", rssi, data.default_layout()) * data.NO_SIGNAL == pytest.approx(rssi)

    @given(rssi_vectors)
    def test_pixels_in_unit_interval(self, rssi):
        x = models.prepare_inputs("cnn", rssi, data.default_layout())
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_colliding_beacons_rejected(self):
        layout = data.BeaconLayout(ids=("a", "b"), xs=(3.0, 3.4), ys=(5.0, 5.0))
        with pytest.raises(LayoutError, match=r"beacons a and b share image pixel \(row, col\) \(5, 3\)"):
            models.beacon_pixels(layout)
        with pytest.raises(LayoutError, match="share image pixel"):
            models.build_model("cnn", seed=0, layout=layout)

    @pytest.mark.parametrize("n", [16, 625], ids=["16-beacons", "every-pixel"])
    def test_more_beacons_build_and_round_trip(self, n):
        # a beacon on n distinct pixels in raster order, up to all 625 of the grid: conv1's largest lowered kernel
        layout = data.BeaconLayout(ids=tuple(f"b{i}" for i in range(n)), xs=tuple(float(i % 25) for i in range(n)),
                                   ys=tuple(float(i // 25) for i in range(n)))
        net = models.build_model("cnn", seed=0, layout=layout)
        x = np.random.Generator(np.random.PCG64(0)).uniform(size=(2, n))
        restored = nn.load_network(nn.save_network(net))
        assert restored.layers[0].beacons == n and np.array_equal(restored.theta, net.theta)
        assert np.array_equal(restored.forward(x), net.forward(x))

    def test_every_layout_position_has_a_pixel_inside_the_image(self, layout):
        # integer coordinates keep their pixel; one above 24.5 takes the last column or row
        assert models.beacon_pixels(layout) == [(int(y), int(x)) for x, y in zip(layout.xs, layout.ys)]
        edge = data.BeaconLayout(ids=("a", "b", "c"), xs=(24.6, 24.4, 0.0), ys=(3.0, 24.99, 0.0))
        assert models.beacon_pixels(edge) == [(3, 24), (24, 24), (0, 0)]
        conv = models.build_model("cnn", seed=0, layout=edge).layers[0]
        assert conv.fixed[0].tolist() == [[3, 24], [24, 24], [0, 0]]

    def test_prepare_inputs_cnn(self, layout):
        vectors = np.full((4, 13), -80.0)
        batch = models.prepare_inputs("cnn", vectors, layout)
        assert batch.shape == (4, 13)
        assert np.array_equal(batch, models.prepare_inputs("autoencoder", vectors, layout))

    def test_prepare_inputs_autoencoder_normalizes(self, layout):
        vectors = np.full((2, 13), -100.0)
        batch = models.prepare_inputs("autoencoder", vectors, layout)
        assert np.all(batch == 0.5)

    def test_prepare_inputs_reads_no_layout(self, layout):
        # bench/run.py passes the layout; models.fit does not
        vectors = np.linspace(data.NO_SIGNAL, 0.0, 26).reshape(2, 13)
        for kind in ("dnn", "cnn", "autoencoder"):
            assert np.array_equal(models.prepare_inputs(kind, vectors, layout), models.prepare_inputs(kind, vectors))


class TestFit:
    CONFIG = nn.TrainConfig(epochs=3, seed=4)

    def test_empty_partition_is_data_error(self, synth_dataset, layout):
        train_set, test_set = data.split(synth_dataset.labelled, 1.0, 0)
        with pytest.raises(DataError, match="too few to split"):
            models.fit("dnn", train_set, test_set, layout, self.CONFIG)
        with pytest.raises(DataError, match="too few to split"):  # one row splits into 0 + 1
            models.score("dnn", synth_dataset.labelled.take(np.arange(1)), layout, self.CONFIG)

    def test_metrics_are_evaluate_on_the_returned_network(self, synth_dataset, layout):
        train_set, test_set = data.split(synth_dataset.labelled, models.HOLDOUT_RATIO, 0)
        network, history, metrics = models.fit("dnn", train_set, test_set, layout, self.CONFIG)
        assert len(history) == self.CONFIG.epochs
        again = nn.evaluate(network, models.prepare_inputs("dnn", test_set.rssi), test_set.cells.astype(float),
                            layout.cell_feet)
        assert metrics.mean_error_grid == again.mean_error_grid
        assert metrics.mean_error_feet == again.mean_error_feet
        assert np.array_equal(metrics.per_sample_errors_feet, again.per_sample_errors_feet)
        # the model is the one build_model seeds with config.seed
        fresh = models.build_model("dnn", seed=self.CONFIG.seed)
        x, y = models.prepare_inputs("dnn", train_set.rssi), train_set.cells.astype(float)
        assert nn.train(fresh, x, y, self.CONFIG) == history
        assert np.array_equal(fresh.theta, network.theta)


    def test_cnn_peak_memory_does_not_grow_with_the_test_set(self, layout):
        # the CNN reads beacon vectors, 104 bytes a row, and nn.evaluate scores 100 rows at a time
        corpus = data.synth_generate(layout, data.PathLossModel(), 284, 5, seed=0)
        train_set, test_set = data.split(corpus.labelled, models.HOLDOUT_RATIO, 0)
        assert (len(train_set), len(test_set)) == (1136, 284)
        large = test_set.take(np.arange(5000) % len(test_set))

        def peak(test):
            tracemalloc.start()
            try:
                models.fit("cnn", train_set, test, layout, nn.TrainConfig(epochs=1, seed=0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(test_set)  # first-call allocations
        assert peak(large) - peak(test_set) < 1 << 20


class TestScore:
    CONFIG = nn.TrainConfig(epochs=3, seed=4)

    def test_is_fit_on_the_holdout_split_at_the_config_seed(self, synth_dataset, layout):
        metrics = models.score("dnn", synth_dataset.labelled, layout, self.CONFIG)
        split = data.split(synth_dataset.labelled, models.HOLDOUT_RATIO, self.CONFIG.seed)
        expected = models.fit("dnn", *split, layout, self.CONFIG)[2]
        assert metrics.mean_error_grid == expected.mean_error_grid
        assert metrics.mean_error_feet == expected.mean_error_feet
        assert np.array_equal(metrics.per_sample_errors_feet, expected.per_sample_errors_feet)
