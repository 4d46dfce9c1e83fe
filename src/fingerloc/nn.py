"""Minimal neural-network engine.

Dense / valid-padding convolution / ceil-mode max-pooling / ReLU / Sigmoid /
Flatten layers with hand-written backprop, RMSE and MSE losses, Adam and
SGD-with-momentum optimizers, a seeded training loop, and a versioned
serialization format. Double precision throughout; the gradient-check suite
depends on it.

A layer's ``params`` and ``grads`` are tuples of views into its ``Network``'s
one parameter vector ``theta`` and one gradient vector ``grad``. Its ``fixed``
arrays, if it has any, are state that ``model.bin`` saves beside the
parameters but that no optimizer steps: they stay out of ``theta``.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DivergedError, LoadError, ShapeError

DIVERGENCE_BOUND = 1e6
EVAL_CHUNK = 100  # rows per forward pass in evaluate: TrainConfig's default batch
ADAM_EPSILON = 1e-8  # added to Adam's step denominator
SERIAL_FORMAT = "fingerloc-net"
SERIAL_VERSION = 1


# ---------------------------------------------------------------------------
# layers

class Layer:
    """Base layer: zeroed parameter arrays in ``params`` and gradient arrays in ``grads``.

    A subclass states how ``model.bin`` records it: its ``kind``, and ``size_keys``, the spec key of
    each constructor argument in order; a layer built with trailing arguments left at their default,
    None, has fewer ``sizes``, and its spec stops before their keys. ``param_shapes`` maps the sizes to
    the parameter shapes, and ``fixed_shapes`` to the shapes of the fixed arrays, which the constructor
    takes after its sizes and keeps in ``fixed``. So ``load_network`` checks a file's shapes
    before it builds any layer, and ``KINDS`` maps each kind to its class. A ``Network`` rebinds the
    parameter arrays to views into its ``theta`` and ``grad``, so layers write in place; the fixed
    arrays stay outside both. ``input_grad`` says whether ``backward`` must return the gradient of its
    input; a ``Network`` clears it on the first layer it runs, whose input gradient no one reads. A
    pixel ``Conv2d`` reads the network's input and returns no input gradient wherever it runs.
    """

    kind: str
    size_keys: tuple[str, ...] = ()
    fixed: tuple[np.ndarray, ...] = ()
    input_grad = True

    def __init__(self, *sizes):
        self.sizes = sizes
        self.params: tuple[np.ndarray, ...] = tuple(np.zeros(shape) for shape in self.param_shapes(*sizes))
        self.grads: tuple[np.ndarray, ...] = tuple(np.zeros(p.shape) for p in self.params)

    @staticmethod
    def param_shapes(*sizes) -> tuple[tuple[int, ...], ...]:
        return ()

    @staticmethod
    def fixed_shapes(*sizes) -> tuple[tuple[int, ...], ...]:
        return ()

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec(self) -> dict:
        """The layer as ``model.bin`` records it: its ``kind`` and each size under its key, a pair as a list."""
        sizes = (list(n) if isinstance(n, (tuple, list)) else n for n in self.sizes)
        return {"kind": self.kind, **dict(zip(self.size_keys, sizes))}


def _glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense(Layer):
    kind, size_keys = "dense", ("in", "out")

    def __init__(self, n_in: int, n_out: int):
        super().__init__(n_in, n_out)
        self.n_in = n_in
        self.n_out = n_out

    @staticmethod
    def param_shapes(n_in, n_out):
        return (n_in, n_out), (n_out,)

    def init_params(self, rng):
        self.params[0][...] = _glorot_uniform(rng, (self.n_in, self.n_out), self.n_in, self.n_out)
        self.params[1][...] = 0.0

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"Dense({self.n_in}->{self.n_out}): got input shape {x.shape}")
        self._x = x
        y = x @ self.params[0]
        y += self.params[1]
        return y

    def backward(self, dy):
        np.matmul(self._x.T, dy, out=self.grads[0])
        np.add.reduce(dy, axis=0, out=self.grads[1])
        return dy @ self.params[0].T if self.input_grad else None


def _lowering(rows, cols, kh, kw, oh, ow):
    """Every term of the pixel-sparse convolution, for pixels (rows, cols) in raster order.

    A term is indexed by its pixel's place in (rows, cols), its flat output position ``p*ow + q``
    and its flat kernel offset ``i*kw + j``. Returns three parts:
    - ``table``, a (3, terms) array of every term's ``pixel, position, offset``, pixel by pixel in
      raster order, and each pixel's positions in raster order;
    - ``first``, the columns of ``table`` that hold the first term at each output position reached,
      as a (3, positions) array: the entries of the lowered kernel;
    - ``later``, ``(pixel, positions, offsets)`` for each pixel that has later terms, in raster
      order: its terms at the positions that an earlier pixel reaches too.
    """
    # pixel (r, c) meets offset (i, j) at output (r - i, c - j), in raster order over the flipped offsets
    flipped = np.arange(kh * kw)[::-1]
    p = rows[:, None] - flipped // kw
    q = cols[:, None] - flipped % kw
    pixel, tap = np.nonzero((0 <= p) & (p < oh) & (0 <= q) & (q < ow))
    table = np.stack((pixel, p[pixel, tap] * ow + q[pixel, tap], flipped[tap]))
    new = np.zeros(table.shape[1], dtype=bool)
    new[np.unique(table[1], return_index=True)[1]] = True  # each position's first term in table order
    # not np.unique, which imports numpy.ma (about 1 MB) on its first call without return_index
    later = tuple((k, *table[1:, ~new & (pixel == k)]) for k in sorted(set(pixel[~new].tolist())))
    return table, table[:, new], later


class Conv2d(Layer):
    """Valid-padding 2-d convolution, channels-last.

    A ``Conv2d`` built with ``side``, ``beacons`` and ``pixels`` is a pixel conv: it reads rows
    ``(B, beacons)`` and convolves each as a one-channel ``side`` x ``side`` image that is zero
    except at each beacon's pixel ``pixels[k] = (row, col)``, which holds column k. ``pixels`` is its
    fixed array, so ``model.bin`` records it; each must be an integer pair in ``[0, side)``, and no two
    alike. At construction it sorts the beacons into raster order of their pixels and builds one table
    of terms (``_lowering``): each term's pixel, output position and flipped-kernel offset, pixel by
    pixel in raster order. At every output position, raster order over the pixels that reach it is the
    dense loop's order over the kernel offsets, so the results are the dense loop's over that image.

    ``forward`` is one matrix product, the pixels' values ``(B, P)`` times a lowered kernel
    ``(P, oh*ow*C_out)`` that holds each output position's first term only. Then each pixel, in
    raster order, adds its later terms, at the positions where an earlier pixel came first, and the
    bias is added last. The product adds exact zeros to one rounded product per entry, so a fused
    multiply-add has no second term to fuse, and each later term is one rounded product added in
    the dense loop's order: every output bit is the dense loop's. A non-finite value makes its whole
    sample's output non-finite, not only the positions it reaches, since the product multiplies it by
    the zeros too.

    ``backward`` takes both parameter gradients from one matrix product: the pixels' values
    ``(P, B)`` over a row of ones, times ``dy`` as ``(B, oh*ow*C_out)``. Row p is pixel p's values
    times ``dy``, summed over the batch, at every output position. ``np.add.at`` adds the table's
    terms into the weight gradient unbuffered, in table order, and a pixel's offsets are distinct,
    so each weight entry adds its pixels' terms in raster order, as one slice add per pixel would.
    The ones row is ``dy`` summed over the batch; summed over the positions it is the bias
    gradient. Both sum the dense loop's terms in another order, so they may differ from the dense
    sums by rounding. A pixel conv reads the network's input, so it computes no input gradient and
    ``backward`` returns None; a ``Network`` refuses a layer with parameters that runs before it.

    Without pixels it reads images (B, H, W, C_in). Each kernel offset's term of ``forward`` and of
    the input gradient is one 2-d matrix product over every output pixel of the batch,
    ``(B*oh*ow, C_in) @ (C_in, C_out)`` and its transpose; numpy runs a 4-d operand as one small
    product per output row. Each output entry is the same dot product added in the same offset order,
    so the bits are those of the per-offset loop. The exception is the input gradient of a one-channel
    input: its product is a matrix-vector product, which BLAS may round differently from one product
    per output row.
    """

    kind, size_keys = "conv2d", ("in", "out", "kernel", "side", "beacons")

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, int],
                 side: int | None = None, beacons: int | None = None, pixels=None):
        image = (side, beacons, pixels)
        if any(a is None for a in image) and not all(a is None for a in image):
            raise ValueError("a pixel Conv2d takes side, beacons and pixels together")
        super().__init__(in_channels, out_channels, kernel, *(() if pixels is None else (side, beacons)))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh, self.kw = kernel
        self.beacons = beacons
        if pixels is None:
            return
        pixels = np.array(pixels, dtype=np.float64)  # a copy: the term table is built from these values
        if in_channels != 1 or side < max(kernel):
            raise ValueError(f"a pixel Conv2d reads one channel of a side at least its kernel {kernel}, "
                             f"got {in_channels} channels and side {side}")
        if pixels.shape != (beacons, 2):
            raise ValueError(f"{beacons} beacon pixels have shape ({beacons}, 2), got {pixels.shape}")
        if not ((0 <= pixels) & (pixels < side)).all():
            raise ValueError(f"a beacon pixel lies outside [0, {side}): {pixels.tolist()}")
        if (pixels % 1).any():
            raise ValueError(f"a beacon pixel is not an integer: {pixels.tolist()}")
        rows, cols = pixels.astype(np.intp).T
        if len(set(zip(rows.tolist(), cols.tolist()))) < beacons:
            raise ValueError(f"two beacons share a pixel: {pixels.tolist()}")
        self.fixed = (pixels,)
        self._order = np.lexsort((cols, rows))  # the beacon columns in raster order of their pixels
        self._out_hw = (side - self.kh + 1, side - self.kw + 1)
        self._terms = _lowering(rows[self._order], cols[self._order], self.kh, self.kw, *self._out_hw)

    @staticmethod
    def param_shapes(in_channels, out_channels, kernel, side=None, beacons=None):
        kh, kw = kernel
        return (kh, kw, in_channels, out_channels), (out_channels,)

    @staticmethod
    def fixed_shapes(in_channels, out_channels, kernel, side=None, beacons=None):
        return () if beacons is None else ((beacons, 2),)

    def init_params(self, rng):
        fan_in = self.kh * self.kw * self.in_channels
        fan_out = self.kh * self.kw * self.out_channels
        self.params[0][...] = _glorot_uniform(rng, self.params[0].shape, fan_in, fan_out)
        self.params[1][...] = 0.0

    def _check(self, x):
        if self.beacons is not None:
            if x.ndim != 2 or x.shape[1] != self.beacons:
                raise ShapeError(f"Conv2d({self.beacons} beacons->{self.out_channels}): "
                                 f"got input shape {x.shape}")
            return
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"Conv2d({self.in_channels}->{self.out_channels}): got input shape {x.shape}")
        if x.shape[1] < self.kh or x.shape[2] < self.kw:
            raise ShapeError(f"Conv2d: input {x.shape[1]}x{x.shape[2]} smaller than kernel {self.kh}x{self.kw}")

    def forward(self, x):
        self._check(x)
        self._x = x
        w, b = self.params
        if self.beacons is None:
            oh = x.shape[1] - self.kh + 1
            ow = x.shape[2] - self.kw + 1
            out = np.zeros((x.shape[0], oh, ow, self.out_channels))
            flat_out = out.reshape(-1, self.out_channels)
            for i in range(self.kh):
                for j in range(self.kw):
                    flat_out += x[:, i:i + oh, j:j + ow, :].reshape(-1, self.in_channels) @ w[i, j]
        else:
            oh, ow = self._out_hw
            vals = x[:, self._order].T.copy()  # (pixel, batch), the pixels in raster order
            self._vals = vals
            _, (pixel, pos, off), later = self._terms
            taps = w.reshape(-1, self.out_channels)  # one row per kernel offset, in raster order
            low = np.zeros((self.beacons, oh * ow * self.out_channels))
            low.reshape(self.beacons, oh * ow, self.out_channels)[pixel, pos] = taps[off]
            with np.errstate(invalid="ignore"):  # a non-finite value times the zeros
                out = (vals.T @ low).reshape(x.shape[0], oh, ow, self.out_channels)
            flat_out = out.reshape(x.shape[0], oh * ow, self.out_channels)
            for k, pos, off in later:
                flat_out[:, pos] += vals[k][:, None, None] * taps[off]
        rows = out.reshape(x.shape[0], -1)  # a view, one row per sample
        rows += np.tile(b, oh * ow)
        return out

    def backward(self, dy):
        x = self._x
        oh, ow = dy.shape[1], dy.shape[2]
        dw, db = self.grads
        if self.beacons is not None:
            pixel, pos, off = self._terms[0]
            terms = np.vstack((self._vals, np.ones(len(x)))) @ dy.reshape(len(x), -1)
            terms = terms.reshape(-1, oh * ow, len(db))
            dw[...] = 0.0
            np.add.at(dw.reshape(-1, self.out_channels), off, terms[pixel, pos])
            db[...] = terms[-1].sum(axis=0)
            return None
        w = self.params[0]
        flat_dy = dy.reshape(-1, self.out_channels)
        for i in range(self.kh):
            for j in range(self.kw):
                dw[i, j] = x[:, i:i + oh, j:j + ow, :].reshape(-1, self.in_channels).T @ flat_dy
        db[...] = flat_dy.sum(axis=0)
        if not self.input_grad:
            return None
        dx = np.zeros_like(x)
        for i in range(self.kh):
            for j in range(self.kw):
                dx[:, i:i + oh, j:j + ow, :] += (flat_dy @ w[i, j].T).reshape(*dy.shape[:3], -1)
        return dx


class MaxPool2d(Layer):
    """Max pooling with stride = window; ceil mode, so edge windows may be partial.

    ``forward`` takes the running maximum over the ``wh*ww`` window offsets, each a strided view
    ``x[:, di::wh, dj::ww]``, and records each output's window offset as one small integer: the
    last offset at which the maximum rose, which is the first in row-major order that holds it, or
    the first NaN, as ``argmax`` picks. Output values and gradient routing are a per-window
    ``argmax`` loop's, bit for bit, except for the sign of a zero maximum when a window holds both
    +0.0 and -0.0. A ``Network`` runs the ReLU that feeds a pool after it, so the pool sees the raw
    values, -0.0 included, but that ReLU maps a zero maximum of either sign to +0.0: no output of a
    network with that ReLU shows the caveat. Stride = window, so no two outputs share an input:
    ``backward`` assigns each output's gradient to its input, so a -0.0 gradient stays -0.0 there.
    """

    kind, size_keys = "maxpool2d", ("window",)

    def __init__(self, window: tuple[int, int]):
        super().__init__(window)
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


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        self._mask = x > 0
        y = np.maximum(x, 0.0)  # propagates NaN, so a NaN input reaches the loss
        y += 0.0  # which zero np.maximum returns for -0.0 is up to its kernel; -0.0 + 0.0 is +0.0
        return y

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0)


class Sigmoid(Layer):
    kind = "sigmoid"

    def forward(self, x):
        # exp(-x) overflows below x = -log(float64 max); 1 / (1 + inf) = 0 is the value there
        e = np.exp(-x, out=np.full(np.shape(x), np.inf), where=~(x < -709.782712893384))
        self._y = 1.0 / (1.0 + e)
        return self._y

    def backward(self, dy):
        return dy * self._y * (1.0 - self._y)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._in_shape)


# each saved layer kind -> its class
KINDS: dict[str, type[Layer]] = {cls.kind: cls for cls in (Dense, Conv2d, MaxPool2d, ReLU, Sigmoid, Flatten)}


class Network:
    """Sequential composition of layers over one parameter and one gradient vector.

    ``layers`` is the saved order: the order ``save_network`` records, ``theta`` and ``init_params``
    follow, and a ``ShapeError`` names. ``run_order`` is the order ``forward`` and ``backward`` run them
    in, as indices into ``layers``: the saved order, except that a ``ReLU`` directly followed by a
    ``MaxPool2d`` runs after the pool, on the pooled array (a ninth of the size after a 3x3 pool). ReLU is
    monotone and maps every value that is not positive, NaN aside, to +0.0, so pool-then-ReLU gives
    ReLU-then-pool's values bit for bit. Both send each window's gradient to its first maximum, or
    nowhere when that maximum is not positive or is NaN.

    A pixel ``Conv2d`` reads the network's input and returns no input gradient, so a network that runs
    a layer with parameters before one is refused with ``ValueError``: no gradient would reach it.
    Layers without parameters may run before it.
    """

    def __init__(self, layers: Sequence[Layer], seed: int | None = None):
        self.layers = list(layers)
        self.run_order: list[int] = []
        for i, layer in enumerate(self.layers):
            # the run order moves no layer with parameters, so the saved order tells what runs before a layer
            if isinstance(layer, Conv2d) and layer.beacons is not None and any(e.params for e in self.layers[:i]):
                raise ValueError(f"layer {i} is a pixel Conv2d, which reads the network's input, "
                                 f"but a layer with parameters runs before it")
            if i and isinstance(layer, MaxPool2d) and isinstance(self.layers[i - 1], ReLU):
                self.run_order.insert(-1, i)  # the pool runs before the ReLU that feeds it
            else:
                self.run_order.append(i)
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
            self.layers[self.run_order[0]].input_grad = False
        if seed is not None:
            self.init_params(seed)

    def init_params(self, seed: int) -> None:
        # per-layer child streams so adding a layer never reshuffles the others
        children = np.random.SeedSequence(seed).spawn(len(self.layers))
        for layer, ss in zip(self.layers, children):
            layer.init_params(np.random.Generator(np.random.PCG64(ss)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        for i in self.run_order:
            layer = self.layers[i]
            try:
                x = layer.forward(x)
            except ShapeError as e:
                raise ShapeError(f"layer {i}: {e}") from None
        return x

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def count_params(self) -> int:
        return self.theta.size


# ---------------------------------------------------------------------------
# losses

def _mean_square(diff: np.ndarray) -> float:
    # np.mean's own reduction and division, without its Python wrapper
    return float(np.add.reduce(diff * diff, axis=None)) / diff.size


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    return _mean_square(diff), 2.0 * diff / diff.size


def rmse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    loss = math.sqrt(_mean_square(diff))
    if loss == 0.0:
        return 0.0, np.zeros_like(diff)
    return loss, diff / (diff.size * loss)


LOSSES: dict[str, Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]] = {
    "mse": mse_loss,
    "rmse": rmse_loss,
}


def backward(network: Network, x: np.ndarray, target: np.ndarray, loss_kind: str = "rmse") -> float:
    """One forward/backward pass; returns the loss. The gradients are in ``network.grad``, which each
    layer's ``grads`` views.

    The layers run in ``network.run_order`` and back. The first one run has ``input_grad`` False, so it
    skips its input gradient. A pixel ``Conv2d`` returns none, and the pass stops there: the layers
    run before it have no parameters.
    """
    pred = network.forward(x)
    if pred.shape != target.shape:
        raise ShapeError(f"output shape {pred.shape} != target shape {target.shape}")
    loss, d_out = LOSSES[loss_kind](pred, target)
    for i in reversed(network.run_order):
        d_out = network.layers[i].backward(d_out)
        if d_out is None:
            break
    return loss


# ---------------------------------------------------------------------------
# optimizers

class AdamState:
    """Adam over one parameter vector, updated in place.

    Step t computes, bit for bit, ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= lr*(m/(1 - b1**t)) / (sqrt(v/(1 - b2**t)) + ADAM_EPSILON)``, each operation rounded once in
    that order. ``m``, ``v`` and two scratch vectors shaped like ``p`` are allocated on the first
    step, so later steps allocate nothing the size of ``p``.
    """

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
            self.m, self.v, self._step, self._denom = (np.zeros_like(p) for _ in range(4))
        self.t += 1
        b1, b2, m, v, step, denom = self.beta1, self.beta2, self.m, self.v, self._step, self._denom
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        m *= b1
        m += np.multiply(1.0 - b1, g, out=step)
        v *= b2
        np.multiply(1.0 - b2, g, out=step)
        step *= g
        v += step
        np.divide(m, corr1, out=step)
        step *= self.learning_rate
        np.divide(v, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        step /= denom
        p -= step


class SgdMomentumState:
    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        if not (0.0 <= momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: np.ndarray | None = None

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """Update ``p`` in place from its gradient ``g``: ``velocity = momentum*velocity - lr*g``, then
        ``p += velocity``, through one scratch vector allocated with ``velocity`` on the first step."""
        if self.velocity is None:
            self.velocity, self._step = np.zeros_like(p), np.zeros_like(p)
        self.velocity *= self.momentum
        self.velocity -= np.multiply(self.learning_rate, g, out=self._step)
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
                # take, not inputs[idx]: the same rows without fancy indexing's overhead
                loss = backward(network, inputs.take(idx, axis=0), targets.take(idx, axis=0), loss_fn)
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
             cell_feet: float) -> Metrics:
    """Mean Euclidean distance between predicted and true grid coordinates.

    The forward pass runs over chunks of ``EVAL_CHUNK`` rows, so its peak memory does not grow with the
    test set: the CNN's conv1 output takes about 35 KB a row. A last chunk of one row is folded
    into the chunk before it, since numpy runs a one-row product as a matrix-vector product, which may
    round differently. Each row's prediction is that of a forward over its chunk alone; a whole-set
    forward may differ from it in the last bits where BLAS splits a larger product another way.
    """
    if len(inputs) == 0:
        raise ValueError("empty test set")
    ends = list(range(EVAL_CHUNK, len(inputs), EVAL_CHUNK))
    if ends and ends[-1] == len(inputs) - 1:
        ends.pop()
    pred = np.concatenate([network.forward(chunk) for chunk in np.split(inputs, ends)])
    errors = np.sqrt(np.sum((pred - targets) ** 2, axis=1))
    mean_grid = float(errors.mean())
    return Metrics(mean_error_grid=mean_grid,
                   mean_error_feet=mean_grid * cell_feet,
                   per_sample_errors_feet=errors * cell_feet)


# ---------------------------------------------------------------------------
# serialization

def _checksum(payload) -> str:
    """The SHA-256 of ``payload``'s canonical JSON: sorted keys, no spaces."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


def _records(arrays) -> list[dict]:
    return [{"shape": list(a.shape), "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}
            for a in arrays]


def _arrays(entries, shapes: list[list[int]], what: str) -> list[np.ndarray]:
    """The arrays that ``entries`` record, once their shapes equal ``shapes`` and each blob has its shape's
    length: read-only views into the decoded bytes, so nothing the size of a recorded shape is allocated."""
    recorded = [entry["shape"] for entry in entries]
    if recorded != shapes:
        raise LoadError(f"{what} shapes {recorded} != layer shapes {shapes}")
    blobs = [base64.b64decode(entry["data"]) for entry in entries]
    for raw, shape in zip(blobs, shapes):
        if len(raw) != 8 * math.prod(shape):
            raise LoadError(f"{what} blob length {len(raw)} != expected {8 * math.prod(shape)}")
    return [np.frombuffer(raw, dtype="<f8").reshape(shape) for raw, shape in zip(blobs, shapes)]


def save_network(network: Network) -> bytes:
    """``model.bin``'s bytes: each layer's spec, every parameter, and every fixed array under ``fixed``, a key
    that a network without fixed arrays leaves out."""
    fixed = [a for layer in network.layers for a in layer.fixed]
    payload = {
        "format": SERIAL_FORMAT,
        "version": SERIAL_VERSION,
        "layers": [layer.spec() for layer in network.layers],
        "params": _records(network.parameters()),
        **({"fixed": _records(fixed)} if fixed else {}),
    }
    return json.dumps({"checksum": _checksum(payload), "payload": payload},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


def load_network(blob: bytes) -> Network:
    try:
        doc = json.loads(blob.decode("utf-8"))
        checksum = doc["checksum"]
        payload = doc["payload"]
    # TypeError: a non-object root; RecursionError: nested past the interpreter's limit
    except (ValueError, KeyError, TypeError, UnicodeDecodeError, RecursionError) as e:
        raise LoadError(f"not a serialized network: {e}") from None
    if _checksum(payload) != checksum:
        raise LoadError("checksum mismatch")
    if not isinstance(payload, dict):
        raise LoadError(f"payload is a {type(payload).__name__}, not an object")
    if payload.get("format") != SERIAL_FORMAT or payload.get("version") != SERIAL_VERSION:
        raise LoadError(f"unsupported format/version: {payload.get('format')}/{payload.get('version')}")
    try:
        # check every size, shape and blob length before anything is allocated, so a short file
        # cannot ask for an arbitrary amount of memory
        layers, shapes, fixed_shapes = [], [], []  # (class, sizes, fixed count) per layer; every array's shape
        for spec in payload["layers"]:
            cls = KINDS.get(spec["kind"])
            if cls is None:
                raise LoadError(f"unknown layer kind {spec['kind']!r}")
            keys = cls.size_keys[:len(spec) - 1]
            if set(spec) != {"kind", *keys}:
                raise LoadError(f"a {cls.kind} spec has the keys kind and {cls.size_keys}, or a leading part "
                                f"of them, got {sorted(spec)}")
            sizes = [spec[key] for key in keys]
            layer_shapes = [list(shape) for shape in cls.param_shapes(*sizes)]
            layer_fixed = [list(shape) for shape in cls.fixed_shapes(*sizes)]
            # a bool is not a size, and neither is a list where a shape wants one number
            if not all(type(n) is int and n >= 1 for group in sizes + layer_shapes + layer_fixed
                       for n in (group if type(group) is list else [group])):
                raise LoadError(f"layer sizes must be integers >= 1, got {spec}")
            layers.append((cls, sizes, len(layer_fixed)))
            shapes += layer_shapes
            fixed_shapes += layer_fixed
        params = _arrays(payload["params"], shapes, "parameter")
        fixed = iter(_arrays(payload.get("fixed", []), fixed_shapes, "fixed array"))
        # a layer's constructor checks the values of its fixed arrays
        network = Network([cls(*sizes, *(next(fixed) for _ in range(n))) for cls, sizes, n in layers])
        for p, a in zip(network.parameters(), params):
            p[...] = a
    # a missing field, a non-dict entry, bad base64, a bad value, a size past what numpy holds
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise LoadError(f"malformed layer or parameter entry: {e!r}") from None
    return network
