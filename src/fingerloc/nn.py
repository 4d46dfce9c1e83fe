"""Minimal neural-network engine.

Dense / valid-padding convolution / ceil-mode max-pooling / ReLU / Sigmoid /
Flatten layers with hand-written backprop, RMSE and MSE losses, Adam and
SGD-with-momentum optimizers, a seeded training loop, and a versioned
serialization format. Double precision throughout; the gradient-check suite
depends on it.

A layer's ``params`` and ``grads`` are tuples of views into its ``Network``'s
one parameter vector ``theta`` and one gradient vector ``grad``.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DivergedError, LoadError, ShapeError

DIVERGENCE_BOUND = 1e6
ADAM_EPSILON = 1e-8  # added to Adam's step denominator
SERIAL_FORMAT = "fingerloc-net"
SERIAL_VERSION = 1


# ---------------------------------------------------------------------------
# layers

class Layer:
    """Base layer: zeroed parameter arrays of the given shapes in ``params``, grads in ``grads``.

    A ``Network`` rebinds them to views into its ``theta`` and ``grad``, so layers write in place.
    ``input_grad`` says whether ``backward`` must return the gradient of its input; a ``Network``
    clears it on its first layer, whose input gradient no one reads.
    """

    input_grad = True

    def __init__(self, *shapes: tuple[int, ...]):
        self.params: tuple[np.ndarray, ...] = tuple(np.zeros(shape) for shape in shapes)
        self.grads: tuple[np.ndarray, ...] = tuple(np.zeros(shape) for shape in shapes)

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
        super().__init__((n_in, n_out), (n_out,))
        self.n_in = n_in
        self.n_out = n_out

    def init_params(self, rng):
        self.params[0][...] = _glorot_uniform(rng, (self.n_in, self.n_out), self.n_in, self.n_out)
        self.params[1][...] = 0.0

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"Dense({self.n_in}->{self.n_out}): got input shape {x.shape}")
        self._x = x
        return x @ self.params[0] + self.params[1]

    def backward(self, dy):
        self.grads[0][...] = self._x.T @ dy
        self.grads[1][...] = dy.sum(axis=0)
        return dy @ self.params[0].T if self.input_grad else None

    def spec(self):
        return {"kind": "dense", "in": self.n_in, "out": self.n_out}


def _reach(r, c, kh, kw, oh, ow):
    """Output slices that input pixel (r, c) reaches under a (kh, kw) kernel with an (oh, ow) output,
    and the slices of the kernel flipped in both axes that it meets there, in the same order as the
    output pixels."""
    i0, i1 = max(0, r - oh + 1), min(kh, r + 1)
    j0, j1 = max(0, c - ow + 1), min(kw, c + 1)
    return ((slice(r - i1 + 1, r - i0 + 1), slice(c - j1 + 1, c - j0 + 1)),
            (slice(kh - i1, kh - i0), slice(kw - j1, kw - j0)))


@functools.lru_cache(maxsize=128)
def _lowering(rows, cols, kh, kw, oh, ow):
    """Where the pixel-sparse forward puts each term, for active pixels (rows, cols) in raster order.

    Every term is indexed by its pixel's place in (rows, cols), its flat output position
    ``p*ow + q`` and its flat kernel offset ``i*kw + j``. Returns the ``pixel, position, offset``
    arrays of the first term at every output position that a pixel reaches, and ``(pixel, positions,
    offsets)`` of the later terms of each pixel that has any, in raster order: its terms at the
    positions that an earlier pixel reaches too.
    """
    offsets = np.arange(kh * kw).reshape(kh, kw)[::-1, ::-1]  # the flipped kernel's offsets
    positions = np.arange(oh * ow).reshape(oh, ow)
    seen = np.zeros(oh * ow, dtype=bool)
    first, later = [np.zeros((3, 0), dtype=np.intp)], []
    for k, (r, c) in enumerate(zip(rows, cols)):
        (orow, ocol), (ki, kj) = _reach(r, c, kh, kw, oh, ow)
        pos, off = positions[orow, ocol].ravel(), offsets[ki, kj].ravel()
        new = ~seen[pos]
        seen[pos] = True
        first.append(np.stack((np.full(new.sum(), k), pos[new], off[new])))
        if not new.all():
            later.append((k, pos[~new], off[~new]))
    pixel, pos, off = np.concatenate(first, axis=1)
    for a in (pixel, pos, off, *(a for _, p, o in later for a in (p, o))):
        a.flags.writeable = False  # the cache hands the same arrays to every call
    return pixel, pos, off, tuple(later)


class Conv2d(Layer):
    """Valid-padding 2-d convolution, channels-last (B, H, W, C).

    Pixel-sparse path: with one input channel and at most half the input pixels non-zero in any
    row (an encoded fingerprint has one per beacon), ``forward`` and the weight gradient visit only
    those pixels. At every output position, raster order over the pixels that reach it is the dense
    loop's order over the kernel offsets. ``forward`` is one matrix product, the pixels' values
    ``(B, P)`` times a lowered kernel ``(P, oh*ow*C_out)`` that holds, at each output position, only
    the flipped-kernel entry of the first pixel in raster order that reaches it. Then each pixel, in
    raster order, adds its products at the positions where an earlier pixel came first, and the
    bias is added last. The product adds exact zeros to one rounded product per entry, so a fused
    multiply-add has no second term to fuse, and each later term is one rounded product added in
    the dense loop's order: every output bit is the dense loop's. The lowering's index arrays depend
    only on the pixel set and the shapes, so ``_lowering`` builds them once per pixel set. A
    non-finite pixel makes its whole sample's output non-finite, not only the positions it reaches,
    since the product multiplies it by the zeros too. ``backward`` takes both parameter
    gradients from one matrix product: the pixels' values ``(P, B)`` over a row of ones, times
    ``dy`` as ``(B, oh*ow*C_out)``. Row p is pixel p's values times ``dy``, summed over the batch,
    at every output position; each pixel adds the part it reaches into its slice of the flipped
    kernel, in raster order, for the weight gradient. The ones row is ``dy`` summed over the batch;
    summed over the positions it is the bias gradient. Both are the dense loop's terms in another
    order, so they may differ from the dense sums by rounding (over 1200 paper-scale CNN steps,
    the weight gradient by at most 1.0e-15, 4.7e-15 of its largest entry, and the bias gradient by
    at most 2.1e-14, 6.7e-13 of its largest entry). The input gradient is the dense path's.

    Dense path: each kernel offset's term of ``forward`` and of the input gradient is one 2-d
    matrix product over every output pixel of the batch, ``(B*oh*ow, C_in) @ (C_in, C_out)`` and
    its transpose; numpy runs a 4-d operand as one small product per output row. Each output entry
    is the same dot product added in the same offset order, so the bits are those of the per-offset
    loop. The exception is the input gradient of a one-channel input: its product is a
    matrix-vector product, which BLAS may round differently from one product per output row (by
    up to 2.4e-16 of the largest entry for a 7x7 kernel over 12 channels).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, int]):
        super().__init__((*kernel, in_channels, out_channels), (out_channels,))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh, self.kw = kernel

    def init_params(self, rng):
        fan_in = self.kh * self.kw * self.in_channels
        fan_out = self.kh * self.kw * self.out_channels
        self.params[0][...] = _glorot_uniform(rng, self.params[0].shape, fan_in, fan_out)
        self.params[1][...] = 0.0

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
        ai, aj = np.nonzero(x.any(axis=(0, 3)))
        self._pixels = None
        if self.in_channels == 1 and 2 * ai.size <= x.shape[1] * x.shape[2]:
            vals = x[:, ai, aj, 0].T.copy()  # (pixel, batch)
            self._pixels = (tuple(ai.tolist()), tuple(aj.tolist()), vals)
            pixel, pos, off, later = _lowering(*self._pixels[:2], self.kh, self.kw, oh, ow)
            taps = w.reshape(-1, self.out_channels)  # one row per kernel offset, in raster order
            low = np.zeros((ai.size, oh * ow * self.out_channels))
            low.reshape(ai.size, oh * ow, self.out_channels)[pixel, pos] = taps[off]
            with np.errstate(invalid="ignore"):  # a non-finite pixel times the zeros
                out = (vals.T @ low).reshape(x.shape[0], oh, ow, self.out_channels)
            flat_out = out.reshape(x.shape[0], oh * ow, self.out_channels)
            for k, pos, off in later:
                flat_out[:, pos] += vals[k][:, None, None] * taps[off]
        else:
            out = np.zeros((x.shape[0], oh, ow, self.out_channels))
            flat_out = out.reshape(-1, self.out_channels)
            for i in range(self.kh):
                for j in range(self.kw):
                    flat_out += x[:, i:i + oh, j:j + ow, :].reshape(-1, self.in_channels) @ w[i, j]
        rows = out.reshape(x.shape[0], -1)  # a view, one row per sample
        rows += np.tile(b, oh * ow)
        return out

    def backward(self, dy):
        x = self._x
        oh, ow = dy.shape[1], dy.shape[2]
        w = self.params[0]
        dw, db = self.grads
        dx = np.zeros_like(x) if self.input_grad else None
        flat_dy = dy.reshape(-1, self.out_channels)
        if self._pixels is not None:
            rows, cols, vals = self._pixels
            terms = (np.vstack((vals, np.ones(len(x)))) @ dy.reshape(len(x), -1)).reshape(-1, *dy.shape[1:])
            dw[...] = 0.0
            for r, c, term in zip(rows, cols, terms):
                (orow, ocol), (ki, kj) = _reach(r, c, self.kh, self.kw, oh, ow)
                dw[::-1, ::-1, 0][ki, kj] += term[orow, ocol]
        for i in range(self.kh):
            for j in range(self.kw):
                if self._pixels is None:
                    patch = x[:, i:i + oh, j:j + ow, :].reshape(-1, self.in_channels)
                    dw[i, j] = patch.T @ flat_dy
                if dx is not None:
                    dx[:, i:i + oh, j:j + ow, :] += (flat_dy @ w[i, j].T).reshape(*dy.shape[:3], -1)
        db[...] = flat_dy.sum(axis=0) if self._pixels is None else terms[-1].sum(axis=(0, 1))
        return dx

    def spec(self):
        return {"kind": "conv2d", "in": self.in_channels, "out": self.out_channels,
                "kernel": [self.kh, self.kw]}


class MaxPool2d(Layer):
    """Max pooling with stride = window; ceil mode, so edge windows may be partial.

    ``forward`` takes the running maximum over the ``wh*ww`` window offsets, each a strided view
    ``x[:, di::wh, dj::ww]``, and records each output's window offset as one small integer: the
    last offset at which the maximum rose, which is the first in row-major order that holds it, or
    the first NaN, as ``argmax`` picks. Output values and gradient routing are a per-window
    ``argmax`` loop's, bit for bit, except for the sign of a zero maximum when a window holds both
    +0.0 and -0.0 (ReLU emits only +0.0). Stride = window, so no two outputs share an input:
    ``backward`` assigns each output's gradient to its input, so a -0.0 gradient stays -0.0 there.
    """

    def __init__(self, window: tuple[int, int]):
        super().__init__()
        self.wh, self.ww = window

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"MaxPool2d: got input shape {x.shape}")
        n = self.wh * self.ww
        out = x[:, ::self.wh, ::self.ww].astype(np.float64)  # offset (0, 0) lies in every window
        self._window = np.zeros(out.shape, dtype=np.min_scalar_type(n - 1))
        for k in range(1, n):
            v = x[:, k // self.ww::self.wh, k % self.ww::self.ww]
            cur = out[:, :v.shape[1], :v.shape[2]]  # a partial window lacks the offsets past its edge
            prev = cur.copy()
            np.maximum(cur, v, out=cur)
            # the maximum rose (ties keep the first), or a first NaN arrived: NaN != NaN, so check prev
            rose = (cur != prev) & (prev == prev)
            at = self._window[:, :v.shape[1], :v.shape[2]]
            np.maximum(at, rose * at.dtype.type(k), out=at)
        self._in_shape = x.shape
        return out

    def backward(self, dy):
        b, h, w, c = self._in_shape
        k = np.arange(self.wh * self.ww)
        offset = (k // self.ww * w + k % self.ww) * c
        origin = ((np.arange(b)[:, None, None, None] * h + np.arange(0, h, self.wh)[:, None, None]) * w
                  + np.arange(0, w, self.ww)[:, None]) * c + np.arange(c)
        dx = np.zeros(self._in_shape)
        dx.reshape(-1)[origin + offset[self._window]] = dy
        return dx

    def spec(self):
        return {"kind": "maxpool2d", "window": [self.wh, self.ww]}


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        y = np.maximum(x, 0.0)  # propagates NaN, so a NaN input reaches the loss
        y += 0.0  # which zero np.maximum returns for -0.0 is up to its kernel; -0.0 + 0.0 is +0.0
        return y

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0)

    def spec(self):
        return {"kind": "relu"}


class Sigmoid(Layer):
    def forward(self, x):
        # exp(-x) overflows below x = -log(float64 max); 1 / (1 + inf) = 0 is the value there
        e = np.exp(-x, out=np.full(np.shape(x), np.inf), where=~(x < -709.782712893384))
        self._y = 1.0 / (1.0 + e)
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
    kind = spec["kind"]
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


def _param_shapes(spec: dict) -> list[list]:
    """The parameter shapes of the layer ``spec`` describes, read from its fields without building it."""
    if spec["kind"] == "dense":
        return [[spec["in"], spec["out"]], [spec["out"]]]
    if spec["kind"] == "conv2d":
        return [[*spec["kernel"], spec["in"], spec["out"]], [spec["out"]]]
    return []


class Network:
    """Sequential composition of layers over one parameter and one gradient vector."""

    def __init__(self, layers: Sequence[Layer], seed: int | None = None):
        self.layers = list(layers)
        self.theta = np.concatenate([np.zeros(0), *(p.ravel() for p in self.parameters())])
        self.grad = np.zeros_like(self.theta)
        start = 0
        for layer in self.layers:
            spans = []
            for p in layer.params:
                spans.append((slice(start, start + p.size), p.shape))
                start += p.size
            layer.params = tuple(self.theta[span].reshape(shape) for span, shape in spans)
            layer.grads = tuple(self.grad[span].reshape(shape) for span, shape in spans)
        if self.layers:
            self.layers[0].input_grad = False
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
        """Backpropagate ``d_out`` into every layer's ``grads``.

        The first layer's ``input_grad`` is False, so it skips its input gradient.
        """
        for layer in reversed(self.layers):
            d_out = layer.backward(d_out)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def count_params(self) -> int:
        return self.theta.size


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
    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9, beta2: float = 0.999):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """Update ``p`` in place from its gradient ``g``."""
        if self.m is None:
            self.m = np.zeros_like(p)
            self.v = np.zeros_like(p)
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self.m, self.v
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= self.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPSILON)


class SgdMomentumState:
    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        if not (0.0 <= momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: np.ndarray | None = None

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """Update ``p`` in place from its gradient ``g``."""
        if self.velocity is None:
            self.velocity = np.zeros_like(p)
        self.velocity *= self.momentum
        self.velocity -= self.learning_rate * g
        p += self.velocity


# ---------------------------------------------------------------------------
# training / evaluation

# each optimizer -> the TrainConfig fields it reads
OPTIMIZERS = {"adam": ("learning_rate", "beta1", "beta2"), "sgd": ("learning_rate", "momentum")}


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
            raise ConfigError("epochs and batch size must be >= 1")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        foreign = set().union(*OPTIMIZERS.values()) - set(OPTIMIZERS[self.optimizer])
        unread = [f.name for f in fields(self) if f.name in foreign and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f"the {self.optimizer} optimizer does not read {', '.join(unread)}; "
                              f"leave it at its default")
        if self.learning_rate is not None and not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.make_optimizer()  # which checks its own hyperparameters

    def make_optimizer(self):
        """The optimizer's state from the fields ``OPTIMIZERS`` lists for it; a None learning rate takes
        the optimizer's own default."""
        state = AdamState if self.optimizer == "adam" else SgdMomentumState
        values = {name: getattr(self, name) for name in OPTIMIZERS[self.optimizer]}
        return state(**{name: v for name, v in values.items() if v is not None})


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
    # a diverging run overflows on its way to a non-finite loss; DivergedError alone reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(inputs))
            epoch_losses = []
            for b, start in enumerate(range(0, len(inputs), config.batch_size)):
                idx = order[start:start + config.batch_size]
                loss, _ = backward(network, inputs[idx], targets[idx], loss_fn)
                if not math.isfinite(loss) or loss > DIVERGENCE_BOUND:
                    raise DivergedError(epoch, b, loss)
                optimizer.step(network.theta, network.grad)
                epoch_losses.append(loss)
            history.append(float(np.mean(epoch_losses)))
    return history


@dataclass
class Metrics:
    mean_error_grid: float
    mean_error_feet: float
    per_sample_errors_feet: np.ndarray


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
                   per_sample_errors_feet=errors * cell_feet)


# ---------------------------------------------------------------------------
# serialization

def save_network(network: Network) -> bytes:
    payload = {
        "format": SERIAL_FORMAT,
        "version": SERIAL_VERSION,
        "layers": [layer.spec() for layer in network.layers],
        "params": [
            {"shape": list(p.shape), "data": base64.b64encode(p.astype("<f8").tobytes()).decode("ascii")}
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
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as e:  # TypeError: a non-object root
        raise LoadError(f"not a serialized network: {e}") from None
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != checksum:
        raise LoadError("checksum mismatch")
    if not isinstance(payload, dict):
        raise LoadError(f"payload is a {type(payload).__name__}, not an object")
    if payload.get("format") != SERIAL_FORMAT or payload.get("version") != SERIAL_VERSION:
        raise LoadError(f"unsupported format/version: {payload.get('format')}/{payload.get('version')}")
    try:
        # check every shape and blob length before anything is allocated, so a short file cannot
        # ask for an arbitrary amount of memory
        specs, entries = payload["layers"], payload["params"]
        recorded = [entry["shape"] for entry in entries]
        shapes = [shape for spec in specs for shape in _param_shapes(spec)]
        if recorded != shapes:
            raise LoadError(f"parameter shapes {recorded} != layer shapes {shapes}")
        blobs = [base64.b64decode(entry["data"]) for entry in entries]
        for raw, shape in zip(blobs, shapes):
            if len(raw) != 8 * math.prod(shape):
                raise LoadError(f"parameter blob length {len(raw)} != expected {8 * math.prod(shape)}")
        network = Network([_layer_from_spec(s) for s in specs])
        for p, raw in zip(network.parameters(), blobs):
            p[...] = np.frombuffer(raw, dtype="<f8").reshape(p.shape)
    except (KeyError, TypeError, ValueError) as e:  # a missing field, a non-dict entry, bad base64
        raise LoadError(f"malformed layer or parameter entry: {e!r}") from None
    return network
