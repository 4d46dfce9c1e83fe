"""Minimal neural-network engine.

Dense / valid-padding convolution / ceil-mode max-pooling / ReLU / Sigmoid /
Flatten layers with hand-written backprop, RMSE and MSE losses, Adam and
SGD-with-momentum optimizers, a seeded training loop, and a versioned
serialization format. Double precision throughout; the gradient-check suite
depends on it.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergedError, LoadError, ShapeError

DIVERGENCE_BOUND = 1e6
SERIAL_FORMAT = "fingerloc-net"
SERIAL_VERSION = 1


# ---------------------------------------------------------------------------
# layers

class Layer:
    """Base layer: parameter arrays in ``params``, matching grads in ``grads``."""

    params: list[np.ndarray]
    grads: list[np.ndarray]

    def __init__(self):
        self.params = []
        self.grads = []

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


def _glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int):
        super().__init__()
        self.n_in = n_in
        self.n_out = n_out
        self.params = [np.zeros((n_in, n_out)), np.zeros(n_out)]
        self.grads = [np.zeros_like(p) for p in self.params]

    def init_params(self, rng):
        self.params[0] = _glorot_uniform(rng, (self.n_in, self.n_out), self.n_in, self.n_out)
        self.params[1] = np.zeros(self.n_out)
        self.grads = [np.zeros_like(p) for p in self.params]

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"Dense({self.n_in}->{self.n_out}): got input shape {x.shape}")
        self._x = x
        return x @ self.params[0] + self.params[1]

    def backward(self, dy):
        self.grads[0] = self._x.T @ dy
        self.grads[1] = dy.sum(axis=0)
        return dy @ self.params[0].T

    def spec(self):
        return {"kind": "dense", "in": self.n_in, "out": self.n_out}


class Conv2d(Layer):
    """Valid-padding 2-d convolution, channels-last (B, H, W, C)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, int]):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh, self.kw = kernel
        w_shape = (self.kh, self.kw, in_channels, out_channels)
        self.params = [np.zeros(w_shape), np.zeros(out_channels)]
        self.grads = [np.zeros_like(p) for p in self.params]

    def init_params(self, rng):
        fan_in = self.kh * self.kw * self.in_channels
        fan_out = self.kh * self.kw * self.out_channels
        self.params[0] = _glorot_uniform(rng, self.params[0].shape, fan_in, fan_out)
        self.params[1] = np.zeros(self.out_channels)
        self.grads = [np.zeros_like(p) for p in self.params]

    def _check(self, x):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"Conv2d({self.in_channels}->{self.out_channels}): got input shape {x.shape}")
        if x.shape[1] < self.kh or x.shape[2] < self.kw:
            raise ShapeError(f"Conv2d: input {x.shape[1]}x{x.shape[2]} smaller than kernel {self.kh}x{self.kw}")

    def forward(self, x):
        self._check(x)
        self._x = x
        oh = x.shape[1] - self.kh + 1
        ow = x.shape[2] - self.kw + 1
        w, b = self.params
        out = np.zeros((x.shape[0], oh, ow, self.out_channels))
        for i in range(self.kh):
            for j in range(self.kw):
                out += x[:, i:i + oh, j:j + ow, :] @ w[i, j]
        return out + b

    def backward(self, dy):
        x = self._x
        oh, ow = dy.shape[1], dy.shape[2]
        w = self.params[0]
        dw = np.zeros_like(w)
        dx = np.zeros_like(x)
        flat_dy = dy.reshape(-1, self.out_channels)
        for i in range(self.kh):
            for j in range(self.kw):
                patch = x[:, i:i + oh, j:j + ow, :].reshape(-1, self.in_channels)
                dw[i, j] = patch.T @ flat_dy
                dx[:, i:i + oh, j:j + ow, :] += dy @ w[i, j].T
        self.grads[0] = dw
        self.grads[1] = flat_dy.sum(axis=0)
        return dx

    def spec(self):
        return {"kind": "conv2d", "in": self.in_channels, "out": self.out_channels,
                "kernel": [self.kh, self.kw]}


class MaxPool2d(Layer):
    """Max pooling with stride = window; ceil mode, so edge windows may be partial."""

    def __init__(self, window: tuple[int, int]):
        super().__init__()
        self.wh, self.ww = window

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"MaxPool2d: got input shape {x.shape}")
        b, h, w, c = x.shape
        oh = -(-h // self.wh)
        ow = -(-w // self.ww)
        out = np.empty((b, oh, ow, c))
        self._argmax = np.empty((b, oh, ow, c, 2), dtype=np.int64)
        for i in range(oh):
            r0, r1 = i * self.wh, min((i + 1) * self.wh, h)
            for j in range(ow):
                c0, c1 = j * self.ww, min((j + 1) * self.ww, w)
                region = x[:, r0:r1, c0:c1, :]
                flat = region.reshape(b, -1, c)
                idx = flat.argmax(axis=1)
                out[:, i, j, :] = np.take_along_axis(flat, idx[:, None, :], axis=1)[:, 0, :]
                self._argmax[:, i, j, :, 0] = r0 + idx // (c1 - c0)
                self._argmax[:, i, j, :, 1] = c0 + idx % (c1 - c0)
        self._in_shape = x.shape
        return out

    def backward(self, dy):
        dx = np.zeros(self._in_shape)
        b, oh, ow, c = dy.shape
        bi = np.arange(b)[:, None, None, None]
        ci = np.arange(c)[None, None, None, :]
        rows = self._argmax[..., 0]
        cols = self._argmax[..., 1]
        np.add.at(dx, (bi, rows, cols, ci), dy)
        return dx

    def spec(self):
        return {"kind": "maxpool2d", "window": [self.wh, self.ww]}


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0)

    def spec(self):
        return {"kind": "relu"}


class Sigmoid(Layer):
    def forward(self, x):
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, dy):
        return dy * self._y * (1.0 - self._y)

    def spec(self):
        return {"kind": "sigmoid"}


class Flatten(Layer):
    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._in_shape)

    def spec(self):
        return {"kind": "flatten"}


def _layer_from_spec(spec: dict) -> Layer:
    kind = spec.get("kind")
    if kind == "dense":
        return Dense(spec["in"], spec["out"])
    if kind == "conv2d":
        return Conv2d(spec["in"], spec["out"], tuple(spec["kernel"]))
    if kind == "maxpool2d":
        return MaxPool2d(tuple(spec["window"]))
    if kind == "relu":
        return ReLU()
    if kind == "sigmoid":
        return Sigmoid()
    if kind == "flatten":
        return Flatten()
    raise LoadError(f"unknown layer kind {kind!r}")


class Network:
    """Sequential composition of layers."""

    def __init__(self, layers: Sequence[Layer], seed: int | None = None):
        self.layers = list(layers)
        if seed is not None:
            self.init_params(seed)

    def init_params(self, seed: int) -> None:
        # per-layer child streams so adding a layer never reshuffles the others
        children = np.random.SeedSequence(seed).spawn(len(self.layers))
        for layer, ss in zip(self.layers, children):
            layer.init_params(np.random.Generator(np.random.PCG64(ss)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except ShapeError as e:
                raise ShapeError(f"layer {i}: {e}") from None
        return x

    def backward_from(self, d_out: np.ndarray) -> None:
        for layer in reversed(self.layers):
            d_out = layer.backward(d_out)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def set_parameters(self, values: Sequence[np.ndarray]) -> None:
        i = 0
        for layer in self.layers:
            for k in range(len(layer.params)):
                layer.params[k] = np.array(values[i], dtype=np.float64)
                i += 1

    def count_params(self) -> int:
        return sum(p.size for p in self.parameters())


# ---------------------------------------------------------------------------
# losses

def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def rmse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    mse = float(np.mean(diff * diff))
    loss = math.sqrt(mse)
    if loss == 0.0:
        return 0.0, np.zeros_like(diff)
    return loss, diff / (diff.size * loss)


LOSSES: dict[str, Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]] = {
    "mse": mse_loss,
    "rmse": rmse_loss,
}


def backward(network: Network, x: np.ndarray, target: np.ndarray, loss_kind: str = "rmse") -> tuple[float, list[np.ndarray]]:
    """One forward/backward pass; returns (loss, gradients per parameter)."""
    pred = network.forward(x)
    if pred.shape != target.shape:
        raise ShapeError(f"output shape {pred.shape} != target shape {target.shape}")
    loss, d_pred = LOSSES[loss_kind](pred, target)
    network.backward_from(d_pred)
    return loss, network.gradients()


# ---------------------------------------------------------------------------
# optimizers

class AdamState:
    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + self.epsilon)


class SgdMomentumState:
    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.velocity is None:
            self.velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self.velocity):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


# ---------------------------------------------------------------------------
# training / evaluation

@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 100
    loss: str = "rmse"
    optimizer: str = "adam"
    learning_rate: float | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def make_optimizer(self):
        if self.optimizer == "adam":
            lr = 0.001 if self.learning_rate is None else self.learning_rate
            return AdamState(learning_rate=lr, beta1=self.beta1, beta2=self.beta2)
        lr = 0.01 if self.learning_rate is None else self.learning_rate
        return SgdMomentumState(learning_rate=lr, momentum=self.momentum)


def train(network: Network, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> list[float]:
    """Train in place; returns the mean batch loss per epoch.

    The final batch of each epoch may be short (dataset size mod batch size).
    """
    if len(inputs) == 0:
        raise ValueError("empty training set")
    optimizer = config.make_optimizer()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    loss_fn = config.loss
    history = []
    params = network.parameters()
    for epoch in range(config.epochs):
        order = rng.permutation(len(inputs))
        epoch_losses = []
        for b, start in enumerate(range(0, len(inputs), config.batch_size)):
            idx = order[start:start + config.batch_size]
            loss, grads = backward(network, inputs[idx], targets[idx], loss_fn)
            if not math.isfinite(loss) or loss > DIVERGENCE_BOUND:
                raise DivergedError(epoch, b, loss)
            optimizer.step(params, grads)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return history


@dataclass
class Metrics:
    mean_error_grid: float
    mean_error_feet: float
    per_sample_errors_grid: np.ndarray

    def per_sample_errors_feet(self, cell_feet: float) -> np.ndarray:
        return self.per_sample_errors_grid * cell_feet


def evaluate(network: Network, inputs: np.ndarray, targets: np.ndarray,
             cell_feet: float = 10.0) -> Metrics:
    """Mean Euclidean distance between predicted and true grid coordinates."""
    if len(inputs) == 0:
        raise ValueError("empty test set")
    pred = network.forward(inputs)
    errors = np.sqrt(np.sum((pred - targets) ** 2, axis=1))
    mean_grid = float(errors.mean())
    return Metrics(mean_error_grid=mean_grid,
                   mean_error_feet=mean_grid * cell_feet,
                   per_sample_errors_grid=errors)


# ---------------------------------------------------------------------------
# serialization

def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(s: str, shape: tuple[int, ...]) -> np.ndarray:
    raw = base64.b64decode(s)
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise LoadError(f"parameter blob length {len(raw)} != expected {expected}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save_network(network: Network) -> bytes:
    payload = {
        "format": SERIAL_FORMAT,
        "version": SERIAL_VERSION,
        "layers": [layer.spec() for layer in network.layers],
        "params": [
            {"shape": list(p.shape), "data": _encode_array(p)}
            for p in network.parameters()
        ],
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps({"checksum": checksum, "payload": payload},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


def load_network(blob: bytes) -> Network:
    try:
        doc = json.loads(blob.decode("utf-8"))
        checksum = doc["checksum"]
        payload = doc["payload"]
    except (ValueError, KeyError, UnicodeDecodeError) as e:
        raise LoadError(f"not a serialized network: {e}") from None
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != checksum:
        raise LoadError("checksum mismatch")
    if payload.get("format") != SERIAL_FORMAT or payload.get("version") != SERIAL_VERSION:
        raise LoadError(f"unsupported format/version: {payload.get('format')}/{payload.get('version')}")
    network = Network([_layer_from_spec(s) for s in payload["layers"]])
    values = [_decode_array(p["data"], tuple(p["shape"])) for p in payload["params"]]
    if len(values) != len(network.parameters()):
        raise LoadError("parameter count mismatch")
    network.set_parameters(values)
    return network
