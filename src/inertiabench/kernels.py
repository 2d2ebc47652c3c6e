"""Differentiable numeric building blocks with hand-derived backward passes.

Layers operate on batched float64 arrays shaped ``(batch, channels, steps)``
or ``(batch, features)``, in any memory layout; ``Conv1d`` returns a
channel-major view, which ``MaxPool1d`` pools across an outer axis.  Each
layer caches whatever its backward pass needs during ``forward``; each
``backward`` sets ``grads`` to the gradients of that call alone (nothing
accumulates across calls).  All randomness comes from explicitly passed
``numpy.random.Generator`` instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, UsageError


def expect_shape(x, *dims):
    """Raise ShapeError unless ``x`` has one axis per dim and each int dim is its length."""
    if x.ndim != len(dims) or any(not isinstance(d, str) and d != n
                                  for d, n in zip(dims, x.shape)):
        raise ShapeError(f"expected ({', '.join(map(str, dims))}) input, got {x.shape}")


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class ConvSpec:
    """Shape description for a 1D convolution layer (valid padding)."""

    in_channels: int
    filters: int
    kernel: int
    stride: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.filters < 1 or self.kernel < 1 or self.stride < 1:
            raise ShapeError(f"invalid conv spec: {self}")

    def out_steps(self, in_steps: int) -> int:
        if in_steps < self.kernel:
            raise ShapeError(f"input steps {in_steps} < kernel {self.kernel}")
        return (in_steps - self.kernel) // self.stride + 1


@dataclass(frozen=True)
class DropoutSpec:
    """Dropout rate container; ``rate`` is the drop probability."""

    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ShapeError(f"dropout rate must be in [0, 1): {self.rate}")


def _lstm_weight_shape(input_size: int, hidden_size: int) -> tuple[int, int, int]:
    """Shape of a BiLSTM's packed weight: (2, 4H, 1 + C + H)."""
    return (2, 4 * hidden_size, 1 + input_size + hidden_size)


@dataclass
class LstmParams:
    """Gate weights for one bidirectional LSTM layer.

    ``w`` is the packed array ``BiLSTM.params["w"]`` holds: per direction
    (fwd, bwd) the bias column, ``Wx`` (4H, C) and ``Wh`` (4H, H).  Gate
    order inside the stacked ``4H`` axis is input, forget, cell, output.
    """

    input_size: int
    hidden_size: int
    w: np.ndarray

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LstmParams":
        return cls(input_size, hidden_size, np.zeros(_lstm_weight_shape(input_size, hidden_size)))

    def validate(self):
        shape = _lstm_weight_shape(self.input_size, self.hidden_size)
        if self.w.shape != shape:
            raise ShapeError(f"w has shape {self.w.shape}, expected {shape}")
        if not np.all(np.isfinite(self.w)):
            raise NumericError("w contains non-finite values")


@dataclass
class DenseParams:
    """Weights for a fully connected layer: ``y = x @ weights + bias``."""

    weights: np.ndarray
    bias: np.ndarray

    def validate(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"inconsistent dense shapes {self.weights.shape} / {self.bias.shape}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise NumericError("dense parameters contain non-finite values")


# ---------------------------------------------------------------------------
# layers


class Layer:
    """Base class: parameter and gradient dicts and the forward cache.

    Each layer defines ``forward(x)`` and ``backward(gout)``; only
    ``Dropout.forward`` also takes ``train`` and ``rng``.  ``forward``
    stores what ``backward`` needs in ``_cache``.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def _cached(self):
        if self._cache is None:
            raise UsageError("backward called before forward")
        return self._cache


def _init_uniform(rng, shape, fan_in):
    """Uniform +-1/sqrt(fan_in) draws from ``rng``; zeros when it is None."""
    if rng is None:
        return np.zeros(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1d(Layer):
    """1D convolution over (batch, channels, steps), valid padding.

    The output is stored channel-major: ``forward`` fills one
    ``(filters, steps, batch)`` buffer and returns its ``(batch, filters,
    steps)`` view.  Per chunk of output steps it builds the columns
    ``(channels * kernel, steps * batch)`` straight from ``x`` and runs one
    GEMM into that chunk's slice; ``backward`` rebuilds the same columns for
    one weight GEMM per chunk.  A chunk's columns are no larger than the
    output, and only the input is cached.  ``x`` and ``gout`` may have any
    memory layout.
    """

    def __init__(self, spec: ConvSpec, rng: np.random.Generator | None = None):
        super().__init__()
        self.spec = spec
        self.params["w"] = _init_uniform(rng, (spec.filters, spec.in_channels, spec.kernel),
                                         spec.in_channels * spec.kernel)
        self.params["b"] = np.zeros(spec.filters)

    def _chunks(self, x, t_out):
        """(lo, hi, columns) per chunk of output steps; columns are (c * K, steps * B)."""
        b, c, _ = x.shape
        f, k, s = self.spec.filters, self.spec.kernel, self.spec.stride
        steps = min(t_out, max(1, t_out * f // (c * k)))
        buf = np.empty((c, k, steps, b))
        for lo in range(0, t_out, steps):
            hi = min(lo + steps, t_out)
            cols = buf[:, :, : hi - lo]
            for i in range(k):
                cols[:, i] = x[:, :, lo * s + i : (hi - 1) * s + i + 1 : s].transpose(1, 2, 0)
            yield lo, hi, cols.reshape(c * k, (hi - lo) * b)

    def forward(self, x):
        expect_shape(x, "B", self.spec.in_channels, "T")
        if not np.all(np.isfinite(x)):
            raise NumericError("conv input contains non-finite values")
        t_out = self.spec.out_steps(x.shape[2])
        b, f = x.shape[0], self.spec.filters
        w = self.params["w"].reshape(f, -1)
        out = np.empty((f, t_out, b))
        for lo, hi, cols in self._chunks(x, t_out):
            np.matmul(w, cols, out=out[:, lo:hi].reshape(f, (hi - lo) * b))
        out += self.params["b"][:, None, None]
        self._cache = x
        return out.transpose(2, 0, 1)

    def backward(self, gout, input_grad=True):
        """Set ``grads``; return the input gradient, or None unless ``input_grad``."""
        x = self._cached()
        b, c, t = x.shape
        f, k, s = self.spec.filters, self.spec.kernel, self.spec.stride
        t_out = gout.shape[2]
        g = np.ascontiguousarray(gout.transpose(1, 2, 0))  # (F, T', B)
        w = self.params["w"].reshape(f, -1)
        gw = np.zeros((f, c * k))
        gx = np.zeros((c, t, b)) if input_grad else None
        for lo, hi, cols in self._chunks(x, t_out):
            gc = g[:, lo:hi].reshape(f, (hi - lo) * b)
            gw += gc @ cols.T
            if input_grad:
                gcols = (w.T @ gc).reshape(c, k, hi - lo, b)
                for i in range(k):
                    gx[:, lo * s + i : (hi - 1) * s + i + 1 : s] += gcols[:, i]
        self.grads["w"] = gw.reshape(f, c, k)
        self.grads["b"] = g.sum(axis=(1, 2))
        return None if gx is None else gx.transpose(2, 0, 1)


class ReLU(Layer):
    def forward(self, x):
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, gout):
        return gout * self._cached()


class MaxPool1d(Layer):
    """Non-overlapping max pooling; trailing partial window dropped.

    Each window's max is taken across its depth slices, elementwise, so a
    channel-major input (the layout ``Conv1d`` returns) pools across an
    outer axis; ``backward`` scatters into a channel-major buffer.  ``x``
    and ``gout`` may have any memory layout.
    """

    def __init__(self, depth: int):
        super().__init__()
        if depth < 1:
            raise ShapeError(f"pool depth must be >= 1, got {depth}")
        self.depth = depth

    def _windows(self, x):
        """``x``'s full windows as a (B, C, T', depth) view.

        Splitting only the last axis keeps it a view in any layout, so
        writes into it reach ``x``.  T' is given, not -1, because numpy
        cannot infer it for an empty batch.
        """
        b, c, t = x.shape
        return x[:, :, : t // self.depth * self.depth].reshape(b, c, t // self.depth, self.depth)

    def forward(self, x):
        expect_shape(x, "B", "C", "T")
        d = self.depth
        if d > x.shape[2]:
            raise ShapeError(f"pool depth {d} exceeds {x.shape[2]} steps")
        xr = self._windows(x)
        out = xr.max(axis=3)
        # the first index holding the max, as argmax gives it: the count of
        # depth slices before the first one equal to the max
        idx = np.zeros_like(out, dtype=np.min_scalar_type(d - 1))
        found = xr[..., 0] == out
        for r in range(1, d):
            idx += ~found
            found |= xr[..., r] == out
        self._cache = (x.shape, idx)
        return out

    def backward(self, gout):
        (b, c, t), idx = self._cached()
        gx = np.zeros((c, t, b)).transpose(2, 0, 1)
        np.put_along_axis(self._windows(gx), idx[..., None], gout[..., None], axis=3)
        return gx


class BiLSTM(Layer):
    """Bidirectional LSTM over (batch, channels, steps).

    Output is (batch, 2*hidden, steps): forward-direction hidden states
    stacked on top of backward-direction ones for every time step.

    The one parameter ``w`` is (2, 4H, 1 + C + H): per direction (fwd, bwd)
    the bias column, ``Wx`` and ``Wh``, the layout its GEMMs read and write.

    Both directions run in one loop on stacked ``(2, batch, ...)`` arrays,
    each direction reading the sequence in its own order.  ``backward``
    reuses the cached gate buffer for the gate gradients, so every
    ``backward`` needs its own ``forward``.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        g, c, h = 4 * hidden_size, input_size, hidden_size
        w = np.zeros(_lstm_weight_shape(c, h))
        for wd in w:  # biases start at zero; a weight's fan-in is its column count
            wd[:, 1 : 1 + c] = _init_uniform(rng, (g, c), c)
            wd[:, 1 + c :] = _init_uniform(rng, (g, h), h)
        self.params["w"] = w

    def forward(self, x):
        expect_shape(x, "B", self.input_size, "T")
        self._cache = None  # free the previous step's cache before building this one
        b, c, t = x.shape
        h = self.hidden_size
        # Per direction, in the order that direction reads the sequence, slot
        # k holds step k's GEMM operand [1, x_k, h_(k-1)]; the leading 1
        # folds the bias into the GEMMs.  h_k is written to slot k + 1, so
        # slot 0 holds h_(-1) = 0 and the last slot only the final state.
        xh = np.zeros((2, t + 1, b, 1 + c + h))
        xh[:, :t, :, 0] = 1.0
        xh[0, :t, :, 1 : 1 + c] = x.transpose(2, 0, 1)
        xh[1, :t, :, 1 : 1 + c] = xh[0, t - 1 :: -1, :, 1 : 1 + c]
        hs = xh[:, 1:, :, 1 + c :]
        # sigmoid(a) = (1 + tanh(a / 2)) / 2: halving the i, f and o rows of
        # the weights (exact in floating point) lets one tanh per step
        # activate all four gates
        half = np.full((4 * h, 1), 0.5)
        half[2 * h : 3 * h] = 1.0
        w = self.params["w"] * half
        # the input projections of all steps in one GEMM per direction; the
        # recurrence adds h @ wh.T and activates in place, so ``gates`` ends
        # up holding every step's i, f, g, o activations
        gates = np.matmul(xh[:, :t, :, : 1 + c].reshape(2, t * b, 1 + c),
                          w[:, :, : 1 + c].transpose(0, 2, 1)).reshape(2, t, b, 4 * h)
        wh_t = w[:, :, 1 + c :].transpose(0, 2, 1)
        cs = np.empty((2, t, b, h))
        for k in range(t):
            z = gates[:, k]
            if k:
                z += hs[:, k - 1] @ wh_t
            np.tanh(z, out=z)
            i, f, g, o = (z[..., j * h : (j + 1) * h] for j in range(4))
            i[...] = (i + 1.0) * 0.5
            f[...] = (f + 1.0) * 0.5
            o[...] = (o + 1.0) * 0.5
            cs[:, k] = i * g + f * cs[:, k - 1] if k else i * g
            hs[:, k] = np.tanh(cs[:, k]) * o
        self._cache = (xh, gates, cs)
        # fwd beside bwd in natural time order, (T, B, 2H), seen as (B, 2H, T)
        return np.concatenate([hs[0], hs[1, ::-1]], axis=2).transpose(1, 2, 0)

    def backward(self, gout):
        xh, gates, cs = self._cached()
        # each step's gate activations are overwritten in place with d loss /
        # d gate pre-activation, so this call uses the cache up
        self._cache = None
        _, t, b, _ = gates.shape
        h, c = self.hidden_size, self.input_size
        w = self.params["w"]
        wh = w[:, :, 1 + c :]
        dc = 0.0  # d loss / d c_k, carried from step k + 1
        for k in range(t - 1, -1, -1):
            z = gates[:, k]
            i, f, g, o = (z[..., j * h : (j + 1) * h] for j in range(4))
            # both directions' hidden-state gradients at their k-th step
            dh = gates[:, k + 1] @ wh if k < t - 1 else np.zeros((2, b, h))
            dh[0] += gout[:, :h, k]
            dh[1] += gout[:, h:, t - 1 - k]
            # gate gradients are d loss / d pre-activation: sigmoid' is
            # s * (1 - s) and tanh' is 1 - tanh^2
            tc = np.tanh(cs[:, k])
            u = dh * o  # d loss / d tanh(c_k)
            dc += (1.0 - tc * tc) * u
            o[...] = (1.0 - o) * u * tc
            u = dc * i  # d loss / d g
            i[...] = (1.0 - i) * g * u
            g[...] = (1.0 - g * g) * u
            # dc * f carries the cell gradient to step k - 1 (c_(-1) is 0)
            carry = dc * f
            f[...] = (1.0 - f) * carry * cs[:, k - 1] if k else 0.0
            dc = carry
        # bias and weight gradients of all steps: one batched GEMM
        dz = gates.reshape(2, t * b, 4 * h)
        gw = np.matmul(dz.transpose(0, 2, 1), xh[:, :t].reshape(2, t * b, 1 + c + h))
        del xh, cs  # release the rest of the cache before the input gradient
        self.grads["w"] = gw
        # input gradient: one GEMM per direction, summed in natural time order
        gx = np.matmul(dz[0], w[0, :, 1 : 1 + c]).reshape(t, b, c)
        gx += np.matmul(dz[1], w[1, :, 1 : 1 + c]).reshape(t, b, c)[::-1]
        del gates, dz
        # stored channel-major, (C, T, B), like the conv trunk it flows into
        return np.ascontiguousarray(gx.transpose(2, 0, 1)).transpose(2, 0, 1)


class Dropout(Layer):
    """Inverted dropout: identity in eval mode, x * mask / (1-p) in train."""

    def __init__(self, spec: DropoutSpec):
        super().__init__()
        self.spec = spec

    def forward(self, x, train=False, rng=None):
        p = self.spec.rate
        if not train or p == 0.0:
            self._cache = 1.0  # the mask
            return x
        if rng is None:
            raise UsageError("train-mode dropout needs an rng")
        keep = rng.random(x.shape) < (1.0 - p)
        self._cache = keep / (1.0 - p)
        return x * self._cache

    def backward(self, gout):
        return gout * self._cached()


class Dense(Layer):
    """Fully connected layer over (batch, features)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.params["w"] = _init_uniform(rng, (n_in, n_out), n_in)
        self.params["b"] = np.zeros(n_out)

    def forward(self, x):
        expect_shape(x, "B", self.params["w"].shape[0])
        self._cache = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, gout):
        self.grads["w"] = self._cached().T @ gout
        self.grads["b"] = gout.sum(axis=0)
        return gout @ self.params["w"].T


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; per-name moment buffers.

    Moments are keyed by parameter name, so the update is independent of
    the order in which parameters are visited.  Only the learning rate is
    set; the betas and epsilon are Kingma & Ba's (2015) defaults.  The
    moment buffers are updated in place, with the textbook update's
    operations in its order, so the result keeps the textbook's bits.
    """

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, lr=0.001):
        if not 0 < lr < np.inf:
            raise ShapeError(f"Adam learning rate must be > 0 and finite, got {lr}")
        self.lr = lr
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Update ``params`` in place from ``grads``."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape mismatch for '{name}'")
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(g), np.zeros_like(g)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            denom = np.sqrt(v / (1 - b2**t)) + self.EPSILON
            p -= self.lr * (m / (1 - b1**t)) / denom


# ---------------------------------------------------------------------------
# single-sample functional API: each checks the sample it was given, then adds a batch axis


def conv1d_forward(x, weights, bias, stride: int = 1):
    """Valid-padding 1D convolution of a (channels, steps) array or one (steps,) channel.

    ``weights`` is (filters, channels, kernel), ``bias`` is (filters,).
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if weights.ndim == 2:
        weights = weights[None]
    spec = ConvSpec(weights.shape[1], weights.shape[0], weights.shape[2], stride)
    expect_shape(x, spec.in_channels, "T")
    layer = Conv1d(spec)
    layer.params["w"] = weights
    layer.params["b"] = np.asarray(bias, dtype=float) * np.ones(weights.shape[0])
    return layer.forward(x[None])[0]


def relu(x):
    return np.maximum(0.0, np.asarray(x, dtype=float))


def maxpool1d(x, depth: int):
    x = np.asarray(x, dtype=float)
    sample = x[None] if x.ndim == 1 else x
    expect_shape(sample, "C", "T")
    out = MaxPool1d(depth).forward(sample[None])[0]
    return out.reshape(x.shape[:-1] + out.shape[1:])


def bilstm_forward(x, params: LstmParams):
    params.validate()
    x = np.asarray(x, dtype=float)
    expect_shape(x, params.input_size, "T")
    layer = BiLSTM(params.input_size, params.hidden_size)
    layer.params["w"] = params.w
    return layer.forward(x[None])[0]


def dropout_apply(x, spec: DropoutSpec, train: bool, rng=None):
    return Dropout(spec).forward(np.asarray(x, dtype=float), train=train, rng=rng)


def fc_forward(x, params: DenseParams):
    params.validate()
    x = np.asarray(x, dtype=float)
    layer = Dense(*params.weights.shape)
    layer.params["w"] = params.weights
    layer.params["b"] = params.bias
    if x.ndim == 1:
        expect_shape(x, params.weights.shape[0])
        return layer.forward(x[None])[0]
    return layer.forward(x)
