import base64
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fingerloc import data, models, nn
from fingerloc.errors import ConfigError, DivergedError, LoadError, ShapeError

FD_STEP = 1e-5
GRAD_TOL = 1e-4


def finite_difference_grads(network, x, target, loss_kind="mse", max_coords=None, rng=None):
    """Central-difference gradient oracle, independent of backprop.

    With ``max_coords`` set, only a random subset of coordinates per
    parameter array is probed (and the rest marked NaN); full sweep otherwise.
    """
    loss_fn = nn.LOSSES[loss_kind]
    grads = []
    for p in network.parameters():
        g = np.full_like(p, np.nan)
        flat_indices = np.arange(p.size)
        if max_coords is not None and p.size > max_coords:
            flat_indices = rng.choice(p.size, size=max_coords, replace=False)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in flat_indices:
            orig = flat_p[i]
            flat_p[i] = orig + FD_STEP
            plus, _ = loss_fn(network.forward(x), target)
            flat_p[i] = orig - FD_STEP
            minus, _ = loss_fn(network.forward(x), target)
            flat_p[i] = orig
            flat_g[i] = (plus - minus) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        checked = ~np.isnan(b)
        if not np.any(checked):
            continue
        a, b = a[checked], b[checked]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def check_gradients(network, x, target, loss_kind="mse", tol=GRAD_TOL, max_coords=None, seed=0):
    nn.backward(network, x, target, loss_kind)
    analytic = [g.copy() for layer in network.layers for g in layer.grads]
    rng = np.random.Generator(np.random.PCG64(seed))
    numeric = finite_difference_grads(network, x, target, loss_kind,
                                      max_coords=max_coords, rng=rng)
    err = max_relative_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err}"


def random_net(rng, layers):
    net = nn.Network(layers, seed=int(rng.integers(1 << 30)))
    return net


class TestGradients:
    def test_dense(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(5):
            n_in = int(rng.integers(2, 8))
            n_out = int(rng.integers(1, 8))
            net = random_net(rng, [nn.Dense(n_in, n_out)])
            x = rng.normal(size=(3, n_in))
            t = rng.normal(size=(3, n_out))
            check_gradients(net, x, t)

    def test_relu(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(5):
            n = int(rng.integers(2, 8))
            net = random_net(rng, [nn.Dense(n, n), nn.ReLU(), nn.Dense(n, 2)])
            x = rng.normal(size=(4, n))
            t = rng.normal(size=(4, 2))
            check_gradients(net, x, t)

    def test_sigmoid(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(3):
            n = int(rng.integers(2, 6))
            net = random_net(rng, [nn.Dense(n, n), nn.Sigmoid()])
            x = rng.normal(size=(3, n))
            t = rng.uniform(size=(3, n))
            check_gradients(net, x, t)

    def test_conv2d(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(5):
            h = int(rng.integers(4, 8))
            kh = int(rng.integers(2, 4))
            cin = int(rng.integers(1, 3))
            cout = int(rng.integers(1, 3))
            net = random_net(rng, [nn.Conv2d(cin, cout, (kh, kh)), nn.Flatten(),
                                   nn.Dense((h - kh + 1) ** 2 * cout, 2)])
            x = rng.normal(size=(2, h, h, cin))
            t = rng.normal(size=(2, 2))
            check_gradients(net, x, t)

    def test_maxpool(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(5):
            h = int(rng.integers(5, 8))
            w = int(rng.integers(2, 4))
            oh = -(-h // w)
            net = random_net(rng, [nn.MaxPool2d((w, w)), nn.Flatten(),
                                   nn.Dense(oh * oh * 2, 2)])
            x = rng.normal(size=(2, h, h, 2))
            t = rng.normal(size=(2, 2))
            check_gradients(net, x, t)

    def test_conv2d_after_another_layer(self):
        # the first layer skips its input gradient, so the second conv keeps dx under the oracle
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(3):
            h = int(rng.integers(6, 9))
            cin, mid = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            net = random_net(rng, [nn.Conv2d(cin, mid, (3, 3)), nn.ReLU(), nn.Conv2d(mid, 2, (2, 2)),
                                   nn.Flatten(), nn.Dense((h - 3) ** 2 * 2, 2)])
            x = rng.normal(size=(2, h, h, cin))
            t = rng.normal(size=(2, 2))
            check_gradients(net, x, t)
        for _ in range(3):  # a pixel conv behind a layer without parameters, whose input gradient no one reads
            side, k = int(rng.integers(4, 7)), int(rng.integers(2, 4))
            cells = rng.choice(side * side, size=int(rng.integers(1, 6)), replace=False)
            pixels = np.stack(np.divmod(cells, side), axis=1)
            net = random_net(rng, [nn.Sigmoid(), nn.Conv2d(1, 2, (k, k), side, len(pixels), pixels),
                                   nn.Flatten(), nn.Dense((side - k + 1) ** 2 * 2, 2)])
            check_gradients(net, rng.normal(size=(2, len(pixels))), rng.normal(size=(2, 2)))

    def test_full_cnn_on_encoded_fingerprints(self, layout):
        # encoded beacon vectors, which the CNN's pixel conv reads
        rng = np.random.Generator(np.random.PCG64(8))
        rssi = rng.uniform(-95.0, -45.0, size=(2, layout.n_beacons))
        rssi[rng.random(rssi.shape) < 0.3] = data.NO_SIGNAL
        net = models.build_model("cnn", seed=9)
        # with a zero bias every conv1 output away from the beacons sits on the ReLU kink
        net.layers[0].params[1][...] = rng.uniform(-0.5, 0.5, size=net.layers[0].out_channels)
        check_gradients(net, models.prepare_inputs("cnn", rssi, layout), rng.normal(size=(2, 2)),
                        loss_kind="rmse", max_coords=100)

    def test_layer_outside_a_network_returns_input_gradient(self):
        rng = np.random.Generator(np.random.PCG64(9))
        dense = nn.Dense(3, 2)
        dense.init_params(rng)
        x = rng.normal(size=(4, 3))
        dy = rng.normal(size=(4, 2))
        dense.forward(x)
        assert np.array_equal(dense.backward(dy), dy @ dense.params[0].T)
        conv = nn.Conv2d(1, 2, (2, 2))
        conv.init_params(rng)
        conv.forward(rng.normal(size=(2, 4, 4, 1)))
        assert conv.backward(rng.normal(size=(2, 3, 3, 2))).shape == (2, 4, 4, 1)
        pixels = nn.Conv2d(1, 2, (2, 2), 4, 3, [(0, 1), (3, 3), (2, 0)])
        pixels.init_params(rng)
        pixels.forward(rng.normal(size=(2, 3)))
        assert pixels.backward(rng.normal(size=(2, 3, 3, 2))) is None  # it reads a network's input
        net = nn.Network([nn.Dense(3, 3), nn.Dense(3, 2)], seed=0)
        net.forward(x)
        assert net.layers[1].backward(dy).shape == (4, 3)
        assert net.layers[0].backward(rng.normal(size=(4, 3))) is None

    def test_full_dnn_rmse(self):
        rng = np.random.Generator(np.random.PCG64(5))
        net = models.build_model("dnn", seed=7)
        x = rng.normal(size=(4, 13))
        t = rng.normal(size=(4, 2))
        check_gradients(net, x, t, loss_kind="rmse")

    def test_full_autoencoder(self):
        rng = np.random.Generator(np.random.PCG64(6))
        net = models.build_model("autoencoder", seed=7)
        x = rng.uniform(size=(4, 13))
        check_gradients(net, x, x, loss_kind="rmse")


class TestForward:
    def test_relu_values(self):
        layer = nn.ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]

    def test_relu_propagates_nan_and_keeps_every_other_bit(self):
        x = np.array([np.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, 1.5, -1.5])
        x = np.concatenate([x, np.random.Generator(np.random.PCG64(20)).normal(size=1000)])
        out = nn.ReLU().forward(x)
        assert np.isnan(out[0])
        assert np.array_equal(out[1:].view(np.uint64), np.where(x > 0, x, 0.0)[1:].view(np.uint64))

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = nn.Sigmoid().forward(np.array([[-800.0, 0.0, 800.0]]))
        assert out.tolist() == [[0.0, 0.5, 1.0]]

    def test_sigmoid_in_range_bits_match_textbook_form(self):
        x = np.random.Generator(np.random.PCG64(4)).uniform(-709.78, 50.0, size=(200, 5))
        x[0, :3] = [-709.782712893384, -1e-300, 0.0]
        assert np.array_equal(nn.Sigmoid().forward(x), 1.0 / (1.0 + np.exp(-x)))

    def test_dense_identity_passthrough(self):
        layer = nn.Dense(3, 3)
        layer.params[0][...] = np.eye(3)
        layer.params[1][...] = np.zeros(3)
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(layer.forward(x), x)

    def test_dense_backward_writes_its_gradients_in_place(self):
        rng = np.random.default_rng(0)
        layer = nn.Dense(500, 500)
        layer.init_params(rng)
        layer.input_grad = False
        x, dy = rng.normal(size=(2, 100, 500))
        layer.forward(x)
        tracemalloc.start()
        try:
            assert layer.backward(dy) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layer.grads[0].nbytes  # no (500, 500) temporary
        assert np.array_equal(layer.grads[0].view(np.uint64), (x.T @ dy).view(np.uint64))
        assert np.array_equal(layer.grads[1].view(np.uint64), dy.sum(axis=0).view(np.uint64))

    def test_dnn_shape_contract(self):
        net = models.build_model("dnn", seed=0)
        assert net.forward(np.zeros((5, 13))).shape == (5, 2)

    def test_shape_error_names_layer(self):
        net = models.build_model("dnn", seed=0)
        with pytest.raises(ShapeError, match="layer 0"):
            net.forward(np.zeros((5, 12)))

    def test_positive_scaling_linearity(self):
        # all-positive weights keep every preactivation positive for positive
        # inputs, so the ReLU net is exactly linear under positive scaling
        rng = np.random.Generator(np.random.PCG64(9))
        net = nn.Network([nn.Dense(4, 6), nn.ReLU(), nn.Dense(6, 2)])
        for layer in (net.layers[0], net.layers[2]):
            layer.params[0][...] = rng.uniform(0.1, 1.0, size=layer.params[0].shape)
            layer.params[1][...] = np.zeros_like(layer.params[1])
        x = rng.uniform(0.1, 1.0, size=(3, 4))
        np.testing.assert_allclose(net.forward(2.5 * x), 2.5 * net.forward(x), rtol=1e-12)


def textbook_conv(x, w, b):
    """The dense valid convolution: every kernel offset added over every output pixel."""
    kh, kw = w.shape[:2]
    oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    out = np.zeros((x.shape[0], oh, ow, w.shape[3]))
    for i in range(kh):
        for j in range(kw):
            out += x[:, i:i + oh, j:j + ow, :] @ w[i, j]
    return out + b


def image_of(conv, x):
    """The one-channel image that pixel conv ``conv`` reads rows ``x`` as: zero except at each beacon's pixel."""
    rows, cols = conv.fixed[0].astype(int).T
    side = conv.sizes[3]
    image = np.zeros((len(x), side, side, 1))
    image[:, rows, cols, 0] = x
    return image


# pixels on the corners and edges of a 25x25 image
EDGE_PIXELS = [(0, 0), (0, 24), (24, 0), (24, 24), (3, 12), (12, 0), (21, 5)]


class TestSparseConv:
    def _encoded(self, layout, n=400):
        rng = np.random.Generator(np.random.PCG64(10))
        rssi = rng.uniform(-95.0, -45.0, size=(n, layout.n_beacons))
        rssi[rng.random(rssi.shape) < 0.3] = data.NO_SIGNAL
        return models.prepare_inputs("cnn", rssi, layout)

    def _corner(self, layout, conv):
        # the corner pixel reaches only the last output pixel
        x = np.zeros((3, 2))
        x[1, 0] = 0.4
        return nn.Conv2d(1, 12, (7, 7), 25, 2, [(24, 24), (3, 5)]), x

    @pytest.mark.parametrize("make", [
        lambda self, layout, conv: (conv, self._encoded(layout)),
        lambda self, layout, conv: (conv, np.zeros((5, layout.n_beacons))),
        _corner,
        lambda self, layout, conv: (nn.Conv2d(1, 12, (7, 7)),
                                    np.random.Generator(np.random.PCG64(11)).normal(size=(4, 25, 25, 1))),
    ], ids=["encoded-fingerprints", "all-zero", "corner-pixel", "dense-fallback"])
    def test_bitwise_equal_to_textbook_loop(self, layout, make):
        # the CNN's pixel conv and, for an image, a conv without pixels with the same weights
        conv = models.build_model("cnn", seed=12).layers[0]
        conv.params[1][...] = np.linspace(-0.5, 0.5, conv.out_channels)
        layer, x = make(self, layout, conv)
        for p, q in zip(layer.params, conv.params):
            p[...] = q
        expected = textbook_conv(x if x.ndim == 4 else image_of(layer, x), *conv.params)
        assert np.array_equal(layer.forward(x).view(np.uint64), expected.view(np.uint64))

    @staticmethod
    def _clustered(case):
        """A pixel ``Conv2d`` and its input rows, drawn from ``case``.

        The pixels are clustered, so that up to 25 terms meet at one output and their order matters.
        """
        kh, kw = case.draw(st.integers(1, 7)), case.draw(st.integers(1, 7))
        side = max(kh, kw) + case.draw(st.integers(0, 8))
        centre = st.one_of(st.tuples(st.sampled_from([0, side - 1]), st.sampled_from([0, side - 1])),
                           st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)))
        step = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        pixels = set()
        for r, c in case.draw(st.lists(centre, min_size=1, max_size=3)):
            for dr, dc in case.draw(st.lists(step, min_size=1, max_size=10)):
                pixels.add((min(max(r + dr, 0), side - 1), min(max(c + dc, 0), side - 1)))
        pixels = case.draw(st.permutations(sorted(pixels)))  # the beacon columns in any pixel order
        batch, channels = case.draw(st.integers(1, 8)), case.draw(st.integers(1, 4))
        rng = np.random.Generator(np.random.PCG64(case.draw(st.integers(0, 2**32 - 1))))
        x = rng.normal(size=(batch, len(pixels)))
        x[rng.random(x.shape) < 0.2] = 0.0  # a pixel is zero in some rows
        conv = nn.Conv2d(1, channels, (kh, kw), side, len(pixels), pixels)
        for p in conv.params:
            p[...] = rng.normal(size=p.shape) * (rng.random(p.shape) >= 0.2)
        return conv, x, rng

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_pixel_set_bitwise_equal_to_textbook_loop(self, case):
        conv, x, _ = self._clustered(case)
        out = conv.forward(x)
        expected = textbook_conv(image_of(conv, x), *conv.params)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_pixel_set_weight_and_bias_gradient_bits(self, case):
        # the sparse dw and db keep the rounding of one product followed by per-pixel adds in raster
        # order, the order every golden CNN artifact was recorded with
        conv, x, rng = self._clustered(case)
        out = conv.forward(x)
        dy = rng.normal(size=out.shape)
        conv.grads[0][...] = np.nan  # backward must overwrite every entry
        conv.backward(dy)
        dw, db = sparse_conv_dw_db(image_of(conv, x), dy, conv.kh, conv.kw)
        assert np.array_equal(conv.grads[0].view(np.uint64), dw.view(np.uint64))
        assert np.array_equal(conv.grads[1].view(np.uint64), db.view(np.uint64))

    @pytest.mark.parametrize("bias", [0.0, 0.3])
    def test_a_beacon_at_0_dbm_in_every_row_keeps_the_scan_bits(self, layout, bias):
        # rssi 0 dBm encodes as -0.0, a pixel that a scan for non-zero pixels (sparse_conv_dw_db) drops; the
        # fixed pixel set keeps it, and its zero products leave every bit of the output, dw and db
        conv = models.build_model("cnn", seed=12).layers[0]
        conv.params[1][...] = bias
        x = self._encoded(layout, n=100)
        x[:, 4] = models.prepare_inputs("cnn", np.zeros(100), layout)
        assert not x[:, 4].any() and np.signbit(x[:, 4]).all()
        out = conv.forward(x)
        image = image_of(conv, x)
        assert np.array_equal(out.view(np.uint64), textbook_conv(image, *conv.params).view(np.uint64))
        dy = np.random.Generator(np.random.PCG64(24)).normal(size=out.shape)
        conv.backward(dy)
        dw, db = sparse_conv_dw_db(image, dy, conv.kh, conv.kw)
        assert np.array_equal(conv.grads[0].view(np.uint64), dw.view(np.uint64))
        assert np.array_equal(conv.grads[1].view(np.uint64), db.view(np.uint64))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_pixel_spoils_only_its_own_sample(self, layout):
        conv = models.build_model("cnn", seed=12).layers[0]
        x = self._encoded(layout, n=6)
        x[1, 0], x[4, 0] = np.nan, np.inf
        out = conv.forward(x)
        assert not np.isfinite(out[[1, 4]]).any()
        others = [0, 2, 3, 5]
        expected = textbook_conv(image_of(conv, x[others]), *conv.params)
        assert np.array_equal(out[others].view(np.uint64), expected.view(np.uint64))

    def test_lowering_is_built_at_construction_never_in_forward(self, layout, synth_dataset, monkeypatch):
        built = []
        lowering = nn._lowering
        monkeypatch.setattr(nn, "_lowering", lambda *args: built.append(args) or lowering(*args))
        train_set, test_set = data.split(synth_dataset.labelled, models.HOLDOUT_RATIO, 0)
        assert len(train_set) > 100
        models.fit("cnn", train_set, test_set, layout, nn.TrainConfig(epochs=2, batch_size=100, seed=0))
        assert len(built) == 1  # the model's one pixel conv, at construction: 5 forward passes build none


def textbook_conv_dw(x, dy, kh, kw):
    """The dense weight gradient: every output position's product summed per kernel offset."""
    oh, ow = dy.shape[1], dy.shape[2]
    dw = np.zeros((kh, kw, x.shape[3], dy.shape[3]))
    for i in range(kh):
        for j in range(kw):
            dw[i, j] = np.einsum("bpqc,bpqo->co", x[:, i:i + oh, j:j + ow, :], dy)
    return dw


def sparse_conv_dw_db(x, dy, kh, kw):
    """The pixel-sparse weight and bias gradients of a one-channel image, one pixel at a time.

    The image's non-zero pixels' values, in raster order over a row of ones, times ``dy`` give one
    row per pixel. Each pixel, in raster order, adds the part of its row that it reaches into its
    slice of the kernel flipped in both axes. The ones row summed over the output positions is the
    bias gradient.
    """
    b, oh, ow, channels = dy.shape
    rows, cols = np.nonzero(x.any(axis=(0, 3)))
    terms = (np.vstack((x[:, rows, cols, 0].T, np.ones(b))) @ dy.reshape(b, -1)).reshape(-1, oh, ow, channels)
    dw = np.zeros((kh, kw, 1, channels))
    for r, c, term in zip(rows, cols, terms):
        i0, i1 = max(0, r - oh + 1), min(kh, r + 1)  # the kernel rows i that keep output row r - i inside
        j0, j1 = max(0, c - ow + 1), min(kw, c + 1)
        dw[::-1, ::-1, 0][kh - i1:kh - i0, kw - j1:kw - j0] += term[r - i1 + 1:r - i0 + 1, c - j1 + 1:c - j0 + 1]
    return dw, terms[-1].sum(axis=(0, 1))


class TestSparseConvWeightGradient:
    def _edges(self, layout, conv, n=4):
        x = np.tile(np.linspace(0.1, 0.9, n)[:, None], len(EDGE_PIXELS))
        x[::2, 4] = 0.0  # pixel (3, 12) is active in some rows only, or in none of one row
        return nn.Conv2d(1, 12, (7, 7), 25, len(EDGE_PIXELS), EDGE_PIXELS), x

    @pytest.mark.parametrize("make", [
        lambda self, layout, conv: (conv, TestSparseConv._encoded(self, layout)),
        _edges,
        lambda self, layout, conv: (conv, np.zeros((5, layout.n_beacons))),
        lambda self, layout, conv: (conv, TestSparseConv._encoded(self, layout, n=1)),
        lambda self, layout, conv: (conv, TestSparseConv._encoded(self, layout, n=100)),
        lambda self, layout, conv: TestSparseConvWeightGradient._edges(self, layout, conv, n=1),
        lambda self, layout, conv: TestSparseConvWeightGradient._edges(self, layout, conv, n=100),
    ], ids=["encoded-fingerprints", "edge-and-corner-pixels", "all-zero", "fingerprints-1", "fingerprints-100",
            "edges-1", "edges-100"])
    def test_matches_dense_weight_gradient(self, layout, make):
        # the sparse dw and db sum over the batch in one product, so only rounding may differ from
        # the dense sums
        cnn_conv = models.build_model("cnn", seed=13).layers[0]
        conv, x = make(self, layout, cnn_conv)
        for p, q in zip(conv.params, cnn_conv.params):
            p[...] = q
        out = conv.forward(x)
        dy = np.random.Generator(np.random.PCG64(14)).normal(size=out.shape)
        conv.grads[0][...] = np.nan  # backward must overwrite every entry
        assert conv.backward(dy) is None
        expected = textbook_conv_dw(image_of(conv, x), dy, conv.kh, conv.kw)
        assert np.abs(conv.grads[0] - expected).max() <= 1e-12 * np.abs(expected).max()
        expected = dy.reshape(-1, conv.out_channels).sum(axis=0)
        assert np.abs(conv.grads[1] - expected).max() <= 1e-12 * np.abs(expected).max()


def textbook_conv_backward(x, w, dy):
    """The dense input and weight gradients, one kernel offset at a time, and the bias gradient."""
    kh, kw = w.shape[:2]
    oh, ow = dy.shape[1], dy.shape[2]
    flat_dy = dy.reshape(-1, dy.shape[3])
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + oh, j:j + ow, :] += dy @ w[i, j].T
            dw[i, j] = x[:, i:i + oh, j:j + ow, :].reshape(-1, x.shape[3]).T @ flat_dy
    return dx, dw, flat_dy.sum(axis=0)


class TestDenseConv:
    @pytest.mark.parametrize("batch, size, channels, kernel", [
        (100, (7, 7), (12, 12), (5, 5)),  # the CNN's second convolution at its training batch
        (3, (6, 5), (3, 4), (3, 2)),
    ], ids=["cnn-conv2", "odd-shape"])
    def test_bitwise_equal_to_textbook_loop(self, batch, size, channels, kernel):
        rng = np.random.Generator(np.random.PCG64(15))
        conv = nn.Conv2d(*channels, kernel)
        conv.init_params(rng)
        conv.params[1][...] = rng.normal(size=channels[1])
        x = rng.normal(size=(batch, *size, channels[0]))
        out = conv.forward(x)
        assert np.array_equal(out.view(np.uint64), textbook_conv(x, *conv.params).view(np.uint64))
        dy = rng.normal(size=out.shape)
        dx = conv.backward(dy)
        for got, expected in zip((dx, *conv.grads), textbook_conv_backward(x, conv.params[0], dy)):
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def textbook_maxpool(x, window, dy):
    """Per-window argmax loop: each output takes its window's first maximum, or first NaN, and
    that input receives the output's gradient."""
    wh, ww = window
    b, h, w, c = x.shape
    out = np.empty((b, -(-h // wh), -(-w // ww), c))
    dx = np.zeros(x.shape)
    for n, i, j, ch in np.ndindex(out.shape):
        region = x[n, i * wh:(i + 1) * wh, j * ww:(j + 1) * ww, ch]
        r, q = np.unravel_index(np.argmax(region), region.shape)
        out[n, i, j, ch] = region[r, q]
        dx[n, i * wh + r, j * ww + q, ch] += dy[n, i, j, ch]
    return out, dx


class TestMaxPoolContract:
    def _conv_relu(self, layout, upto):
        # the CNN's layers up to ``upto`` in saved order: with ReLU, its zeros and, away from the beacons,
        # the constant relu(bias); without it, the raw conv1 output that the CNN's first pool now receives,
        # where a negative bias leaves windows with no positive value
        net = models.build_model("cnn", seed=15)
        net.layers[0].params[1][...] = np.linspace(-0.3, 0.6, net.layers[0].out_channels)
        x = TestSparseConv._encoded(self, layout, n=6)
        # the beacons in the bottom rows read 0: conv1 outputs the bias there
        x[:, net.layers[0].fixed[0][:, 0] >= 14] = 0.0
        for layer in net.layers[:upto]:
            x = layer.forward(x)
        return x

    def _nan(self, layout):
        x = np.maximum(np.random.Generator(np.random.PCG64(16)).normal(size=(3, 7, 8, 2)), 0.0)
        x[0, 0, 1, 0] = np.nan  # after the window's first element
        x[1, 4, 7, 1] = x[1, 5, 6, 1] = np.nan  # two NaNs in one partial window
        x[2, 6, 0, 0] = np.nan  # alone in the bottom-edge partial window's first row
        return x

    @pytest.mark.parametrize("make, window", [
        (lambda self, layout: self._conv_relu(layout, 1), (3, 3)),
        (lambda self, layout: self._conv_relu(layout, 2), (3, 3)),
        (lambda self, layout: self._conv_relu(layout, 5), (2, 2)),
        (lambda self, layout: np.maximum(np.random.Generator(np.random.PCG64(17)).normal(size=(4, 19, 19, 3)),
                                         0.0), (3, 3)),
        (_nan, (3, 3)),
        (_nan, (2, 3)),
    ], ids=["conv1-raw-19to7", "conv1-relu-19to7", "conv2-relu-3to2", "relu-zeros", "nan-3x3", "nan-2x3"])
    def test_bitwise_equal_to_textbook_loop(self, layout, make, window):
        x = make(self, layout)
        pool = nn.MaxPool2d(window)
        out = pool.forward(x)
        dy = np.random.Generator(np.random.PCG64(18)).normal(size=out.shape)
        expected_out, expected_dx = textbook_maxpool(x, window, dy)
        assert np.array_equal(out.view(np.uint64), expected_out.view(np.uint64))
        assert np.array_equal(pool.backward(dy).view(np.uint64), expected_dx.view(np.uint64))

    def test_cnn_shapes_and_ties_are_exercised(self, layout):
        # the cases above really hold partial windows and tied maxima
        x = self._conv_relu(layout, 2)
        assert x.shape[1:3] == (19, 19) and self._conv_relu(layout, 5).shape[1:3] == (3, 3)
        windows = x[:, :18, :18].reshape(x.shape[0], 6, 3, 6, 3, -1)
        top = windows.max(axis=(2, 4), keepdims=True)
        tied = (windows == top).sum(axis=(2, 4)) > 1
        assert np.any(tied & (top[:, :, 0, :, 0] > 0))  # the constant relu(bias) away from the beacons
        assert np.any(tied & (top[:, :, 0, :, 0] == 0))  # windows of ReLU zeros
        raw = self._conv_relu(layout, 1)[:, :18, :18].reshape(x.shape[0], 6, 3, 6, 3, -1)
        top = raw.max(axis=(2, 4), keepdims=True)
        tied = (raw == top).sum(axis=(2, 4)) > 1
        assert np.any(tied & (top[:, :, 0, :, 0] < 0))  # the constant negative bias away from the beacons

    def test_nan_batch_still_diverges(self):
        # a NaN window's gradient goes to its first NaN, so training reports the divergence
        rng = np.random.Generator(np.random.PCG64(19))
        net = nn.Network([nn.MaxPool2d((2, 2)), nn.Flatten(), nn.Dense(3 * 3 * 2, 2)], seed=0)
        x = rng.normal(size=(4, 5, 5, 2))
        x[2, 4, 4, 1] = np.nan
        with pytest.raises(DivergedError):
            nn.train(net, x, rng.normal(size=(4, 2)), nn.TrainConfig(epochs=1, seed=0))


# ties, values that are not positive, both zeros and NaN are common among these
POOL_VALUES = st.one_of(st.sampled_from([np.nan, -0.0, 0.0, -1.0, 1.0, 2.0]), st.floats(-3.0, 3.0))


def run_saved_order(layers, x, loss):
    """``layers``' forward in list order, ``loss(output)`` as (value, output gradient), then their backward:
    the output, the loss value and the last gradient returned."""
    for layer in layers:
        x = layer.forward(x)
    value, dy = loss(x)
    for layer in reversed(layers):
        dy = layer.backward(dy)
    return x, value, dy


class TestRunOrder:
    def test_each_relu_runs_after_the_pool_it_feeds(self):
        assert models.build_model("cnn", seed=0).run_order == [0, 2, 1, 3, 5, 4, 6, 7, 8, 9]
        for kind in ("dnn", "autoencoder"):
            net = models.build_model(kind, seed=0)
            assert net.run_order == list(range(len(net.layers)))

    def test_shape_error_names_the_saved_index(self):
        net = nn.Network([nn.Dense(4, 4), nn.ReLU(), nn.MaxPool2d((2, 2))])
        assert net.run_order == [0, 2, 1]
        with pytest.raises(ShapeError, match="layer 2"):
            net.forward(np.zeros((3, 4)))

    def test_first_layer_run_skips_its_input_gradient(self):
        net = nn.Network([nn.ReLU(), nn.MaxPool2d((2, 2)), nn.Flatten(), nn.Dense(4, 2)])
        assert [layer.input_grad for layer in net.layers] == [True, False, True, True]

    @pytest.mark.parametrize("before", [[nn.Dense(3, 3)], [nn.Sigmoid(), nn.Dense(3, 3), nn.ReLU()]],
                             ids=["dense", "free-dense-free"])
    def test_parameters_before_a_pixel_conv_refused(self, before):
        # a pixel conv returns no input gradient, so that layer's gradient would stay zero
        with pytest.raises(ValueError, match=f"layer {len(before)} is a pixel Conv2d"):
            nn.Network([*before, nn.Conv2d(1, 2, (2, 2), 4, 3, [(0, 1), (3, 3), (2, 0)]), nn.Flatten(),
                        nn.Dense(18, 2)])

    def test_pixel_conv_behind_a_layer_without_parameters_builds_and_trains(self, monkeypatch):
        net = nn.Network([nn.Sigmoid(), nn.Conv2d(1, 2, (2, 2), 4, 3, [(0, 1), (3, 3), (2, 0)]), nn.Flatten(),
                          nn.Dense(18, 2)], seed=0)
        net = nn.load_network(nn.save_network(net))
        # the backward pass stops at the pixel conv: the sigmoid's input gradient is never computed
        monkeypatch.setattr(net.layers[0], "backward", None)
        rng = np.random.Generator(np.random.PCG64(23))
        before = net.theta.copy()
        history = nn.train(net, rng.normal(size=(20, 3)), rng.normal(size=(20, 2)),
                           nn.TrainConfig(epochs=3, batch_size=10, learning_rate=0.01, seed=0))
        assert len(history) == 3 and np.isfinite(net.theta).all()
        conv_weights = net.layers[1].params[0]
        assert not np.array_equal(conv_weights, before[:conv_weights.size].reshape(conv_weights.shape))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pool_then_relu_bits_equal_relu_then_pool(self, case):
        window = case.draw(st.sampled_from([(2, 2), (3, 3), (2, 3)]))
        shape = (case.draw(st.integers(1, 3)), case.draw(st.integers(1, 7)), case.draw(st.integers(1, 7)),
                 case.draw(st.integers(1, 2)))  # a side that the window does not divide has partial windows
        x = case.draw(hnp.arrays(np.float64, shape, elements=POOL_VALUES))
        dy = case.draw(hnp.arrays(np.float64, (shape[0], -(-shape[1] // window[0]), -(-shape[2] // window[1]),
                                               shape[3]), elements=POOL_VALUES))
        out, _, dx = run_saved_order([nn.ReLU(), nn.MaxPool2d(window)], x, lambda out: (0.0, dy))
        swapped_out, _, swapped_dx = run_saved_order([nn.MaxPool2d(window), nn.ReLU()], x, lambda out: (0.0, dy))
        assert np.array_equal(out.view(np.uint64), swapped_out.view(np.uint64))
        assert np.array_equal(dx.view(np.uint64), swapped_dx.view(np.uint64))

    @pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
    def test_cnn_backward_bits_equal_a_saved_order_loop(self, layout, reload):
        net = models.build_model("cnn", seed=21)
        # negative biases leave conv1 windows with no positive value away from the beacons
        net.layers[0].params[1][...] = np.linspace(-0.3, 0.6, net.layers[0].out_channels)
        if reload:
            net = nn.load_network(nn.save_network(net))
        x = TestSparseConv._encoded(self, layout, n=100)
        target = np.random.Generator(np.random.PCG64(22)).uniform(0.0, 25.0, size=(100, 2))
        loss = nn.backward(net, x, target)
        grad = net.grad.copy()
        _, expected_loss, _ = run_saved_order(net.layers, x, lambda out: nn.rmse_loss(out, target))
        assert loss == expected_loss
        assert np.array_equal(grad.view(np.uint64), net.grad.view(np.uint64))


class TestLosses:
    def test_zero_loss_zero_grad(self):
        pred = np.ones((2, 3))
        loss, grad = nn.rmse_loss(pred, pred.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_single_dense_mse_closed_form(self):
        # y = w x + b, L = (y - t)^2; dL/dw = 2 (y - t) x
        net = nn.Network([nn.Dense(1, 1)])
        net.layers[0].params[0][:] = 2.0
        net.layers[0].params[1][:] = 0.5
        x = np.array([[3.0]])
        t = np.array([[1.0]])
        loss = nn.backward(net, x, t, "mse")
        grads = net.layers[0].grads
        y = 2.0 * 3.0 + 0.5
        assert loss == pytest.approx((y - 1.0) ** 2)
        assert grads[0][0, 0] == pytest.approx(2.0 * (y - 1.0) * 3.0)
        assert grads[1][0] == pytest.approx(2.0 * (y - 1.0))

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.Generator(np.random.PCG64(3))
        pred = rng.normal(size=(4, 2))
        t = rng.normal(size=(4, 2))
        mse, _ = nn.mse_loss(pred, t)
        rmse, _ = nn.rmse_loss(pred, t)
        assert rmse == pytest.approx(math.sqrt(mse))


# zeros of both signs, subnormals, values whose squares overflow, and ordinary values
OPTIMIZER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
DECAYS = st.one_of(st.sampled_from([0.0, 0.9, 0.999]), st.floats(0.0, 1.0, exclude_max=True))


class TestOptimizers:
    def test_zero_grad_is_fixed_point_adam(self):
        p = np.array([1.0, 2.0])
        g = np.zeros(2)
        state = nn.AdamState()
        before = p.copy()
        for _ in range(3):
            state.step(p, g)
        assert np.array_equal(p, before)

    def test_sgd_first_step(self):
        p = np.array([1.0])
        g = np.array([1.0])
        nn.SgdMomentumState(learning_rate=0.01).step(p, g)
        assert p[0] == pytest.approx(1.0 - 0.01)

    def test_adam_first_step_delta(self):
        p = np.array([1.0])
        g = np.array([1.0])
        nn.AdamState(learning_rate=0.001).step(p, g)
        # bias-corrected m/sqrt(v) ratio is 1 at t=1 (up to epsilon)
        assert p[0] == pytest.approx(1.0 - 0.001, abs=1e-9)

    def test_sgd_velocity_accumulates(self):
        p = np.array([0.0])
        g = np.array([1.0])
        state = nn.SgdMomentumState(learning_rate=0.1, momentum=0.5)
        state.step(p, g)
        state.step(p, g)
        # v1 = -0.1, v2 = 0.5*(-0.1) - 0.1 = -0.15 -> p = -0.25
        assert p[0] == pytest.approx(-0.25)

    def test_invalid_momentum(self):
        with pytest.raises(ConfigError):
            nn.SgdMomentumState(momentum=1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_steps_are_the_textbook_expressions_bit_for_bit(self, case):
        n = case.draw(st.integers(1, 9))
        p = case.draw(hnp.arrays(np.float64, n, elements=OPTIMIZER_VALUES))
        gs = case.draw(st.lists(hnp.arrays(np.float64, n, elements=OPTIMIZER_VALUES), min_size=1, max_size=5))
        lr = case.draw(st.one_of(st.sampled_from([0.0, 1e-3, 1.0]), st.floats(0.0, 1e3)))
        b1, b2, momentum = (case.draw(DECAYS) for _ in range(3))
        # 1 - 0.9**t rounds to 1.0 from t = 356 on, so steps after a start at 350 can cross into it
        t = case.draw(st.one_of(st.just(0), st.integers(350, 10**6)))
        adam = nn.AdamState(learning_rate=lr, beta1=b1, beta2=b2)
        adam.t = t
        sgd = nn.SgdMomentumState(learning_rate=lr, momentum=momentum)
        got_adam, got_sgd = p.copy(), p.copy()
        want_adam, want_sgd = p.copy(), p.copy()
        m, v, velocity = np.zeros(n), np.zeros(n), np.zeros(n)
        with np.errstate(all="ignore"):
            for k, g in enumerate(gs, start=t + 1):
                adam.step(got_adam, g)
                sgd.step(got_sgd, g)
                # the expressions each step computed before its operations were given buffers
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                want_adam -= lr * (m / (1.0 - b1 ** k)) / (np.sqrt(v / (1.0 - b2 ** k)) + nn.ADAM_EPSILON)
                velocity *= momentum
                velocity -= lr * g
                want_sgd += velocity
        for got, want in ((got_adam, want_adam), (adam.m, m), (adam.v, v), (got_sgd, want_sgd),
                          (sgd.velocity, velocity)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("state", [nn.AdamState, nn.SgdMomentumState])
    def test_a_step_allocates_nothing_the_size_of_theta(self, state):
        rng = np.random.default_rng(0)
        p, g = rng.normal(size=(2, 100_000))
        optimizer = state()
        optimizer.step(p, g)  # the first step allocates the optimizer's vectors
        tracemalloc.start()
        try:
            optimizer.step(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes


def _toy_problem(n=10, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-1.0, 1.0, size=(n, 13))
    y = rng.uniform(0.0, 25.0, size=(n, 2))
    return x, y


class TestTraining:
    def test_zero_learning_rate_no_change(self):
        x, y = _toy_problem()
        net = models.build_model("dnn", seed=0)
        before = [p.copy() for p in net.parameters()]
        nn.train(net, x, y, nn.TrainConfig(epochs=3, learning_rate=0.0, seed=0))
        for a, b in zip(before, net.parameters()):
            assert np.array_equal(a, b)

    def test_same_seed_identical_history_and_params(self):
        x, y = _toy_problem()
        histories, params = [], []
        for _ in range(2):
            net = models.build_model("dnn", seed=3)
            histories.append(nn.train(net, x, y, nn.TrainConfig(epochs=5, seed=3)))
            params.append([p.copy() for p in net.parameters()])
        assert histories[0] == histories[1]
        for a, b in zip(*params):
            assert np.array_equal(a, b)

    def test_memorization_capacity(self):
        # 10-sample task must reach < 0.01 grid-unit training error; trained
        # with MSE (whose gradient vanishes at the optimum), checked as RMSE
        x, y = _toy_problem(n=10, seed=1)
        net = models.build_model("dnn", seed=1)
        history = nn.train(net, x, y, nn.TrainConfig(epochs=2000, batch_size=10,
                                                     learning_rate=0.05, loss="mse", seed=1))
        assert math.sqrt(min(history)) < 0.01

    def test_divergence_detected(self):
        x, y = _toy_problem()
        net = models.build_model("dnn", seed=0)
        with pytest.raises(DivergedError):
            nn.train(net, x, y, nn.TrainConfig(epochs=50, learning_rate=1e9,
                                               optimizer="sgd", seed=0))

    def test_nan_pixel_in_cnn_batch_diverges(self):
        # conv1's NaN outputs must reach the loss: a ReLU that maps NaN to 0 hides them while
        # conv1's weight gradient reads the NaN pixel and the optimizer spreads it to the weights
        rng = np.random.Generator(np.random.PCG64(21))
        x = rng.uniform(0.1, 1.0, size=(20, 13))
        x[13, 5] = np.nan
        net = models.build_model("cnn", seed=0)
        with pytest.raises(DivergedError):
            nn.train(net, x, rng.uniform(0.0, 24.0, size=(20, 2)),
                     nn.TrainConfig(epochs=3, batch_size=10, seed=0))

    @pytest.mark.parametrize("fields", [
        {"beta1": 1.5}, {"beta2": 1.0}, {"optimizer": "sgd", "momentum": 1.0},
        {"learning_rate": -1.0}, {"learning_rate": math.inf}, {"learning_rate": math.nan},
        {"optimizer": "adam", "momentum": 0.99}, {"optimizer": "sgd", "beta2": 0.5},
    ], ids=["beta1", "beta2", "momentum", "negative-rate", "infinite-rate", "nan-rate", "adam-momentum",
            "sgd-beta2"])
    def test_config_rejects_what_its_optimizer_cannot_run(self, fields):
        with pytest.raises(ConfigError):
            nn.TrainConfig(**fields)

    def test_empty_training_set(self):
        net = models.build_model("dnn", seed=0)
        with pytest.raises(ValueError):
            nn.train(net, np.zeros((0, 13)), np.zeros((0, 2)), nn.TrainConfig())

    def test_short_final_batch(self):
        x, y = _toy_problem(n=7)
        net = models.build_model("dnn", seed=0)
        history = nn.train(net, x, y, nn.TrainConfig(epochs=2, batch_size=5, seed=0))
        assert len(history) == 2


class TestEvaluate:
    def test_perfect_prediction(self):
        net = nn.Network([nn.Dense(2, 2)])
        net.layers[0].params[0][...] = np.eye(2)
        x = np.array([[3.0, 4.0]])
        m = nn.evaluate(net, x, x, cell_feet=10.0)
        assert m.mean_error_feet == 0.0

    def test_three_four_five(self):
        net = nn.Network([nn.Dense(2, 2)])
        net.layers[0].params[0][...] = np.eye(2)
        x = np.array([[3.0, 4.0]])
        target = np.array([[0.0, 0.0]])
        m = nn.evaluate(net, x, target, cell_feet=10.0)
        assert m.mean_error_grid == pytest.approx(5.0)
        assert m.mean_error_feet == pytest.approx(50.0)

    def test_grid_to_feet_factor(self):
        net = nn.Network([nn.Dense(2, 2)])
        net.layers[0].params[0][...] = np.eye(2)
        x = np.array([[2.2, 0.0]])
        m = nn.evaluate(net, x, np.array([[0.0, 0.0]]), cell_feet=10.0)
        assert m.mean_error_feet == pytest.approx(22.0)

    @pytest.mark.parametrize("kind", ["cnn", "dnn", "autoencoder"])
    @pytest.mark.parametrize("chunks", [
        [(0, 1)], [(0, 99)], [(0, 100)], [(0, 101)], [(0, 100), (100, 200)], [(0, 100), (100, 201)],
        [(0, 100), (100, 200), (200, 284)], [(0, 100), (100, 200), (200, 300), (300, 401)],
    ], ids=lambda chunks: f"{chunks[-1][1]}-rows")
    def test_predicts_chunk_by_chunk(self, layout, kind, chunks):
        """Each row's error is that of a forward over its chunk of ``EVAL_CHUNK`` rows, and a last row
        that would be a chunk of its own joins the chunk before it."""
        n = chunks[-1][1]
        rng = np.random.default_rng(n)
        x = models.prepare_inputs(kind, rng.uniform(-100.0, -40.0, size=(n, layout.n_beacons)), layout)
        net = models.build_model(kind, seed=0)
        pred = np.concatenate([net.forward(x[a:b]) for a, b in chunks])
        target = rng.uniform(0.0, 24.0, size=pred.shape)
        expected = np.sqrt(np.sum((pred - target) ** 2, axis=1)) * 10.0
        got = nn.evaluate(net, x, target, cell_feet=10.0).per_sample_errors_feet
        assert got.tobytes() == expected.tobytes()

    def test_peak_memory_does_not_grow_with_the_test_set(self, layout):
        net = models.build_model("cnn", seed=0)
        rng = np.random.default_rng(0)

        def peak(n):
            x = models.prepare_inputs("cnn", rng.uniform(-100.0, -40.0, size=(n, layout.n_beacons)), layout)
            target = rng.uniform(0.0, 24.0, size=(n, 2))
            tracemalloc.start()
            try:
                nn.evaluate(net, x, target, cell_feet=10.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 1.5 * peak(100)


class TestCountParams:
    def test_dense(self):
        assert nn.Network([nn.Dense(13, 50)]).theta.size == 700

    def test_conv(self):
        assert nn.Network([nn.Conv2d(1, 12, (7, 7))]).theta.size == 600

    def test_dnn_total(self):
        assert models.build_model("dnn", seed=0).theta.size == 5902

    def test_cnn_total(self):
        assert models.build_model("cnn", seed=0).theta.size == 5438


# a draw of each spec size key
SIZE_DRAWS = {"in": st.integers(1, 5), "out": st.integers(1, 5),
              "kernel": st.tuples(st.integers(1, 4), st.integers(1, 4)),
              "window": st.tuples(st.integers(1, 4), st.integers(1, 4))}


def draw_layer(case, cls, pixels=True):
    """A ``cls`` layer with sizes drawn from ``case``; with ``pixels``, a ``Conv2d`` may be a pixel conv."""
    if cls is nn.Conv2d and pixels and case.draw(st.booleans()):
        kernel = case.draw(SIZE_DRAWS["kernel"])
        side = max(kernel) + case.draw(st.integers(0, 3))
        cell = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
        pixels = case.draw(st.lists(cell, min_size=1, max_size=5, unique=True))
        return nn.Conv2d(1, case.draw(SIZE_DRAWS["out"]), kernel, side, len(pixels), pixels)
    return cls(*(case.draw(SIZE_DRAWS[key]) for key in cls.size_keys if key in SIZE_DRAWS))


def with_pixels(pixels):
    """A corruption that records ``pixels`` as the first fixed array."""
    data = base64.b64encode(np.array(pixels, dtype="<f8").tobytes()).decode("ascii")
    return lambda payload: payload["fixed"][0].update(data=data)


def resigned(payload) -> bytes:
    """``model.bin`` bytes of ``payload`` under its own valid checksum."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps({"checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
                       "payload": payload}).encode("utf-8")


def test_every_layer_class_has_its_kind():
    classes = {c for c in vars(nn).values()
               if isinstance(c, type) and issubclass(c, nn.Layer) and c is not nn.Layer}
    assert classes == set(nn.KINDS.values())


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_layer_of_each_kind_round_trips(self, case):
        kinds = case.draw(st.permutations(list(nn.KINDS.values())))
        layers = []
        for cls in kinds:  # a pixel conv only where no layer with parameters comes before it
            layers.append(draw_layer(case, cls, pixels=not any(layer.params for layer in layers)))
        net = nn.Network(layers)
        # any bits, NaN payloads, infinities and -0.0 included
        net.theta[...] = case.draw(hnp.arrays(np.uint64, net.theta.size)).view(np.float64)
        restored = nn.load_network(nn.save_network(net))
        assert [layer.spec() for layer in restored.layers] == [layer.spec() for layer in net.layers]
        assert [type(layer) for layer in restored.layers] == kinds
        for a, b in zip(net.parameters(), restored.parameters(), strict=True):
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip(net.layers, restored.layers):
            assert all(np.array_equal(x, y) for x, y in zip(a.fixed, b.fixed, strict=True))

    def test_round_trip_forward_identical(self):
        rng = np.random.Generator(np.random.PCG64(0))
        net = models.build_model("dnn", seed=5)
        blob = nn.save_network(net)
        restored = nn.load_network(blob)
        for _ in range(100):
            x = rng.normal(size=(1, 13))
            assert np.array_equal(net.forward(x), restored.forward(x))

    def test_truncated_blob(self):
        blob = nn.save_network(models.build_model("dnn", seed=0))
        with pytest.raises(LoadError):
            nn.load_network(blob[: len(blob) // 2])

    def test_corrupted_blob(self):
        blob = bytearray(nn.save_network(models.build_model("dnn", seed=0)))
        i = blob.index(b'"data":"') + 10
        blob[i] = ord("A") if blob[i] != ord("A") else ord("B")
        with pytest.raises(LoadError):
            nn.load_network(bytes(blob))

    def test_blob_nested_past_the_recursion_limit(self):
        with pytest.raises(LoadError, match="not a serialized network"):
            nn.load_network(b"[" * 1000 + b"]" * 1000)

    def test_empty_network(self):
        net = nn.Network([])
        restored = nn.load_network(nn.save_network(net))
        assert restored.layers == []

    def test_cnn_round_trip_bit_exact(self):
        net = models.build_model("cnn", seed=2)
        restored = nn.load_network(nn.save_network(net))
        for a, b in zip(net.parameters(), restored.parameters()):
            assert np.array_equal(a, b)

    def test_fixed_arrays_stay_out_of_theta(self, layout):
        net = models.build_model("cnn", seed=2)
        conv = net.layers[0]
        assert conv.fixed[0].tolist() == [list(p) for p in models.beacon_pixels(layout)]
        assert net.theta.size == 5438
        payload = json.loads(nn.save_network(net))["payload"]
        assert payload["layers"][0] == {"kind": "conv2d", "in": 1, "out": 12, "kernel": [7, 7], "side": 25,
                                        "beacons": 13}
        assert [entry["shape"] for entry in payload["fixed"]] == [[13, 2]]
        for kind in ("dnn", "autoencoder"):  # a network without fixed arrays saves no "fixed" key
            assert "fixed" not in json.loads(nn.save_network(models.build_model(kind, seed=0)))["payload"]

    def test_cnn_saved_reading_images_still_loads(self, layout):
        # a CNN saved before its first layer held beacon pixels reads images; on the encoded images its forward
        # is the pixel CNN's on the vectors, bit for bit
        net = models.build_model("cnn", seed=3)
        old = nn.Network([nn.Conv2d(1, 12, (7, 7)), *(type(layer)(*layer.sizes) for layer in net.layers[1:])])
        old.theta[...] = net.theta
        payload = json.loads(nn.save_network(old))["payload"]
        assert "fixed" not in payload and payload["layers"][0] == {"kind": "conv2d", "in": 1, "out": 12,
                                                                   "kernel": [7, 7]}
        restored = nn.load_network(nn.save_network(old))
        assert restored.layers[0].beacons is None and restored.layers[0].fixed == ()
        x = TestSparseConv._encoded(self, layout, n=100)
        expected = net.forward(x)
        got = restored.forward(image_of(net.layers[0], x))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("corrupt, fragment", [
        (with_pixels([[0, 0], [1, 2.5], [4, 4]]), "not an integer"),
        (with_pixels([[0, 0], [1, 2], [4, 5]]), "outside [0, 5)"),
        (with_pixels([[0, 0], [-1, 2], [4, 4]]), "outside [0, 5)"),
        (with_pixels([[0, 0], [np.nan, 2], [4, 4]]), "outside [0, 5)"),
        (with_pixels([[0, 0], [1, 2], [0, 0]]), "share a pixel"),
        (lambda payload: payload["layers"][0].update(beacons=4), "fixed array shapes"),
        (lambda payload: payload["fixed"][0].update(shape=[2, 3]), "fixed array shapes"),
        (lambda payload: payload.pop("fixed"), "fixed array shapes"),
        (lambda payload: payload["layers"][0].pop("beacons") and payload.pop("fixed"), "together"),
        (lambda payload: payload["layers"][0].update(side=10**400), "too large"),
        (lambda payload: payload["layers"][0].update(side=10**20), "too large"),
        (lambda payload: payload["layers"][0].update(side=10**9), "lowered kernel is too large"),
    ], ids=["not-an-integer", "past-the-side", "negative", "nan", "repeated", "spec-count", "recorded-shape",
            "no-blob", "no-count", "side-past-the-float-range", "side-past-int64", "side-past-the-cap"])
    def test_bad_beacon_pixels_rejected(self, corrupt, fragment):
        net = nn.Network([nn.Conv2d(1, 2, (3, 3), 5, 3, [(0, 0), (1, 2), (4, 4)])], seed=0)
        doc = json.loads(nn.save_network(net))
        corrupt(doc["payload"])
        with pytest.raises(LoadError, match=re.escape(fragment)):
            nn.load_network(resigned(doc["payload"]))

    def test_layer_with_parameters_before_a_pixel_conv_rejected(self):
        # a Dense(2, 3) spliced in front of a pixel conv on 3 beacons, every shape consistent
        conv = nn.Conv2d(1, 2, (3, 3), 5, 3, [(0, 0), (1, 2), (4, 4)])
        payload = json.loads(nn.save_network(nn.Network([conv])))["payload"]
        dense = json.loads(nn.save_network(nn.Network([nn.Dense(2, 3)])))["payload"]
        payload["layers"].insert(0, dense["layers"][0])
        payload["params"][:0] = dense["params"]
        with pytest.raises(LoadError, match="a layer with parameters runs before it"):
            nn.load_network(resigned(payload))

    @pytest.mark.parametrize("doc", [{"checksum": None, "payload": []}, []],
                             ids=["payload-not-an-object", "root-not-an-object"])
    def test_non_object_document_rejected(self, doc):
        if isinstance(doc, dict):
            body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
            doc["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        with pytest.raises(LoadError):
            nn.load_network(json.dumps(doc).encode("utf-8"))

    def test_unsupported_version_with_valid_checksum_rejected(self):
        doc = json.loads(nn.save_network(nn.Network([nn.Dense(2, 3)], seed=0)))
        doc["payload"]["version"] = nn.SERIAL_VERSION + 1
        body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        with pytest.raises(LoadError, match="version"):
            nn.load_network(json.dumps(doc).encode("utf-8"))

    def test_shape_disagreeing_with_layer_spec_rejected(self):
        doc = json.loads(nn.save_network(nn.Network([nn.Dense(2, 3)], seed=0)))
        doc["payload"]["params"][0]["shape"] = [3, 2]  # same byte length as the (2, 3) weight
        body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        with pytest.raises(LoadError, match="shape"):
            nn.load_network(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize("corrupt", [
        lambda payload: payload["layers"][0].pop("in"),
        lambda payload: payload["layers"].insert(0, "dense"),
        lambda payload: payload["params"][0].update(data="abc"),
        lambda payload: payload["layers"][0].update(kind="lstm"),
        lambda payload: payload["layers"][0].update(window=[0, 3]),
        lambda payload: payload.update(layers=[{"kind": "maxpool2d", "window": [300, 300]}], params=[]),
    ], ids=["spec-missing-field", "spec-not-a-dict", "bad-base64", "unknown-kind", "spec-stray-field",
            "window-past-the-cap"])
    def test_malformed_entry_with_valid_checksum_rejected(self, corrupt):
        doc = json.loads(nn.save_network(nn.Network([nn.Dense(2, 3)], seed=0)))
        corrupt(doc["payload"])
        body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        with pytest.raises(LoadError):
            nn.load_network(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize("layer, key, value, weight_shape", [
        (nn.MaxPool2d((3, 3)), "window", [-3, 3], None),
        (nn.MaxPool2d((3, 3)), "window", [0, 3], None),
        (nn.MaxPool2d((3, 3)), "window", [3.5, 3], None),
        (nn.MaxPool2d((3, 3)), "window", [True, 3], None),
        (nn.Conv2d(1, 2, (3, 3)), "kernel", [0, 3], [0, 3, 1, 2]),
        (nn.Dense(2, 3), "in", 0, [0, 3]),
        (nn.Dense(2, 3), "in", [2, 3], [[2, 3], 3]),
    ], ids=["negative-window", "zero-window", "fractional-window", "bool-window", "zero-kernel", "zero-in",
            "list-in"])
    def test_layer_size_that_is_not_a_positive_integer_rejected(self, layer, key, value, weight_shape):
        # each blob is self-consistent: its weight, if any, has the shape and length its spec asks for
        doc = json.loads(nn.save_network(nn.Network([layer], seed=0)))
        doc["payload"]["layers"][0][key] = value
        if weight_shape is not None:
            doc["payload"]["params"][0] = {"shape": weight_shape, "data": ""}
        body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        with pytest.raises(LoadError, match="integers >= 1"):
            nn.load_network(json.dumps(doc).encode("utf-8"))

    def test_sizes_at_the_cap_construct(self):
        # a pixel conv's lowered kernel may hold nn.MAX_TERMS entries and a pool's window nn.MAX_WINDOW offsets
        assert nn.MaxPool2d((1, nn.MAX_WINDOW)).ww == nn.MAX_WINDOW
        with pytest.raises(ValueError, match="window is too large"):
            nn.MaxPool2d((2, nn.MAX_WINDOW // 2 + 1))
        assert nn.Conv2d(1, 1, (1, 1), 2048, 1, [(0, 0)]).beacons == 1  # 2048 x 2048 positions
        with pytest.raises(ValueError, match="lowered kernel is too large"):
            nn.Conv2d(1, 2, (1, 1), 2048, 1, [(0, 0)])

    def test_short_blob_cannot_allocate_its_spec(self):
        # a few hundred bytes that ask for a Dense(4000, 4000) fail before anything that size exists
        payload = {"format": nn.SERIAL_FORMAT, "version": nn.SERIAL_VERSION,
                   "layers": [{"kind": "dense", "in": 4000, "out": 4000}],
                   "params": [{"shape": [4000, 4000], "data": ""}, {"shape": [4000], "data": ""}]}
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        blob = json.dumps({"checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
                           "payload": payload}).encode("utf-8")
        assert len(blob) < 300
        tracemalloc.start()
        try:
            with pytest.raises(LoadError, match="blob length"):
                nn.load_network(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_blob_cannot_allocate_its_fixed_arrays(self):
        # a few hundred bytes whose spec asks for 10 million beacon pixels fail before anything that size exists
        net = nn.Network([nn.Conv2d(1, 1, (1, 1), 1, 1, [(0, 0)])], seed=0)
        payload = json.loads(nn.save_network(net))["payload"]
        payload["layers"][0]["beacons"] = 10_000_000
        payload["fixed"] = [{"shape": [10_000_000, 2], "data": ""}]
        blob = resigned(payload)
        assert len(blob) < 400
        tracemalloc.start()
        try:
            with pytest.raises(LoadError, match="fixed array blob length"):
                nn.load_network(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def assert_views_into_vectors(net):
    assert np.array_equal(np.concatenate([p.ravel() for p in net.parameters()]), net.theta)
    for layer in net.layers:
        for p, g in zip(layer.params, layer.grads, strict=True):
            assert np.shares_memory(p, net.theta)
            assert np.shares_memory(g, net.grad)


class TestParameterVector:
    @pytest.mark.parametrize("kind, n", [("dnn", 10), ("cnn", 2)])
    def test_params_and_grads_stay_views(self, layout, kind, n):
        x, y = _toy_problem(n=n)
        net = models.build_model(kind, seed=0)
        assert_views_into_vectors(net)
        nn.train(net, models.prepare_inputs(kind, x, layout), y, nn.TrainConfig(epochs=2, seed=0))
        assert_views_into_vectors(net)
        assert_views_into_vectors(nn.load_network(nn.save_network(net)))

    def test_parameters_cannot_be_rebound(self):
        # a rebound array would leave theta, and the optimizer would never step it
        layer = nn.Network([nn.Dense(2, 2)]).layers[0]
        with pytest.raises(TypeError):
            layer.params[0] = np.eye(2)
        with pytest.raises(TypeError):
            layer.grads[0] = np.eye(2)


class TestInitialization:
    def test_same_seed_same_params(self):
        a = models.build_model("dnn", seed=8)
        b = models.build_model("dnn", seed=8)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_different_seed_different_params(self):
        a = models.build_model("dnn", seed=8)
        b = models.build_model("dnn", seed=9)
        assert not np.array_equal(a.parameters()[0], b.parameters()[0])
