"""Differentiable numeric building blocks with hand-derived backward passes.

Layers operate on batched float64 arrays shaped ``(batch, channels, steps)``
or ``(batch, features)``.  Each layer caches whatever its backward pass needs
during ``forward``; each ``backward`` sets ``grads`` to the gradients of
that call alone (nothing accumulates across calls).  All randomness comes
from explicitly passed ``numpy.random.Generator`` instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, UsageError


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


def _lstm_shapes(input_size: int, hidden_size: int) -> dict[str, tuple[int, ...]]:
    """Shape of each BiLSTM parameter, in initialization order."""
    g = 4 * hidden_size
    per_direction = {"wx": (g, input_size), "wh": (g, hidden_size), "b": (g,)}
    return {f"{d}_{name}": shape for d in ("fwd", "bwd")
            for name, shape in per_direction.items()}


@dataclass
class LstmParams:
    """Gate weights for one bidirectional LSTM layer.

    Gate order inside the stacked ``4H`` axis is input, forget, cell, output.
    ``*_wx`` is (4H, input_size), ``*_wh`` is (4H, H), ``*_b`` is (4H,).
    """

    input_size: int
    hidden_size: int
    fwd_wx: np.ndarray
    fwd_wh: np.ndarray
    fwd_b: np.ndarray
    bwd_wx: np.ndarray
    bwd_wh: np.ndarray
    bwd_b: np.ndarray

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LstmParams":
        return cls(input_size, hidden_size,
                   **{name: np.zeros(shape)
                      for name, shape in _lstm_shapes(input_size, hidden_size).items()})

    def validate(self):
        for name, shape in _lstm_shapes(self.input_size, self.hidden_size).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite values")


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

    The forward pass is im2col + GEMM; the backward pass is one batched GEMM
    per kernel tap ``i`` against the strided view ``x[:, :, i::stride]``.
    Only the input is cached: no K-fold copy of it outlives a call.
    """

    def __init__(self, spec: ConvSpec, rng: np.random.Generator | None = None):
        super().__init__()
        self.spec = spec
        self.params["w"] = _init_uniform(rng, (spec.filters, spec.in_channels, spec.kernel),
                                         spec.in_channels * spec.kernel)
        self.params["b"] = np.zeros(spec.filters)

    def _taps(self, x, t_out):
        """Per-tap strided views ``x[:, :, i::stride]`` of ``t_out`` steps each."""
        s = self.spec.stride
        return [x[:, :, i : i + s * (t_out - 1) + 1 : s] for i in range(self.spec.kernel)]

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.spec.in_channels:
            raise ShapeError(
                f"expected (B, {self.spec.in_channels}, T) input, got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise NumericError("conv input contains non-finite values")
        t_out = self.spec.out_steps(x.shape[2])
        b, c, _ = x.shape
        f, k = self.spec.filters, self.spec.kernel
        w = self.params["w"].reshape(f, c * k)
        out = np.empty((b, f, t_out))
        # im2col + GEMM over batch chunks, reusing one column buffer that is
        # no larger than the output and is freed when the call returns
        rows = min(b, max(1, b * f // (c * k)))
        cols = np.empty((rows, c, k, t_out))
        for lo in range(0, b, rows):
            xb, cb = x[lo : lo + rows], cols[: b - lo]
            for i, xi in enumerate(self._taps(xb, t_out)):
                cb[:, :, i] = xi
            np.matmul(w, cb.reshape(len(xb), c * k, t_out), out=out[lo : lo + rows])
        out += self.params["b"][None, :, None]
        self._cache = x
        return out

    def backward(self, gout):
        x = self._cached()
        t_out = gout.shape[2]
        w = self.params["w"]
        gw = np.empty_like(w)
        gx = np.zeros(x.shape)
        for i, (xi, gxi) in enumerate(zip(self._taps(x, t_out), self._taps(gx, t_out))):
            gw[:, :, i] = np.matmul(gout, xi.transpose(0, 2, 1)).sum(axis=0)
            gxi += w[:, :, i].T @ gout
        self.grads["w"] = gw
        self.grads["b"] = gout.sum(axis=(0, 2))
        return gx


class ReLU(Layer):
    def forward(self, x):
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, gout):
        return gout * self._cached()


class MaxPool1d(Layer):
    """Non-overlapping max pooling; trailing partial window dropped."""

    def __init__(self, depth: int):
        super().__init__()
        if depth < 1:
            raise ShapeError(f"pool depth must be >= 1, got {depth}")
        self.depth = depth

    def forward(self, x):
        d = self.depth
        b, c, t = x.shape
        if d > t:
            raise ShapeError(f"pool depth {d} exceeds {t} steps")
        t_out = t // d
        xr = x[:, :, : t_out * d].reshape(b, c, t_out, d)
        idx = xr.argmax(axis=3)
        out = np.take_along_axis(xr, idx[..., None], axis=3)[..., 0]
        self._cache = (x.shape, idx)
        return out

    def backward(self, gout):
        in_shape, idx = self._cached()
        b, c, t = in_shape
        d = self.depth
        t_out = idx.shape[2]
        gx = np.zeros(in_shape)
        # splitting only the last axis keeps the reshape a view of gx
        gxr = gx[:, :, : t_out * d].reshape(b, c, t_out, d)
        np.put_along_axis(gxr, idx[..., None], gout[..., None], axis=3)
        return gx


class BiLSTM(Layer):
    """Bidirectional LSTM over (batch, channels, steps).

    Output is (batch, 2*hidden, steps): forward-direction hidden states
    stacked on top of backward-direction ones for every time step.

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
        for name, shape in _lstm_shapes(input_size, hidden_size).items():
            # biases start at zero; a weight's fan-in is its column count
            self.params[name] = (np.zeros(shape) if name.endswith("_b")
                                 else _init_uniform(rng, shape, shape[1]))

    def _packed(self):
        """``(2, 4H, 1 + C + H)``: ``[b, wx, wh]`` of the fwd and bwd directions."""
        return np.stack([
            np.concatenate([self.params[f"{d}_b"][:, None], self.params[f"{d}_wx"],
                            self.params[f"{d}_wh"]], axis=1)
            for d in ("fwd", "bwd")
        ])

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.input_size:
            raise ShapeError(f"expected (B, {self.input_size}, T) input, got {x.shape}")
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
        w = self._packed()
        w *= half
        # the input projections of all steps in one GEMM per direction; the
        # recurrence adds h @ wh.T and activates in place, so ``gates`` ends
        # up holding every step's i, f, g, o activations
        gates = np.matmul(xh[:, :t, :, : 1 + c].reshape(2, t * b, 1 + c),
                          w[:, :, : 1 + c].transpose(0, 2, 1)).reshape(2, t, b, 4 * h)
        wh_t = w[:, :, 1 + c :].transpose(0, 2, 1)
        cs = np.empty((2, t, b, h))
        tmp = np.empty((2, b, 4 * h))
        for k in range(t):
            z = gates[:, k]
            if k:
                z += np.matmul(hs[:, k - 1], wh_t, out=tmp)
            i, f, g, o = (z[..., j * h : (j + 1) * h] for j in range(4))
            np.tanh(z, out=z)
            for s in (z[..., : 2 * h], o):
                s += 1.0
                s *= 0.5
            c_k, h_k = cs[:, k], hs[:, k]
            np.multiply(i, g, out=c_k)
            if k:
                c_k += np.multiply(f, cs[:, k - 1], out=tmp[..., :h])
            np.tanh(c_k, out=h_k)
            h_k *= o
        self._cache = (xh, gates, cs)
        # (T, B, H) -> (B, H, T), stacked fwd over bwd in natural time order
        out = np.empty((b, 2 * h, t))
        out[:, :h] = hs[0].transpose(1, 2, 0)
        out[:, h:] = hs[1, ::-1].transpose(1, 2, 0)
        return out

    def backward(self, gout):
        xh, gates, cs = self._cached()
        # each step's gate activations are overwritten in place with d loss /
        # d gate pre-activation, so this call uses the cache up
        self._cache = None
        _, t, b, _ = gates.shape
        h, c = self.hidden_size, self.input_size
        wh = np.stack([self.params["fwd_wh"], self.params["bwd_wh"]])
        dh, dc, tc, u, v = (np.empty((2, b, h)) for _ in range(5))
        dc[...] = 0.0
        for k in range(t - 1, -1, -1):
            z = gates[:, k]
            i, f, g, o = (z[..., j * h : (j + 1) * h] for j in range(4))
            # both directions' hidden-state gradients at their k-th step
            if k < t - 1:
                np.matmul(gates[:, k + 1], wh, out=dh)
            else:
                dh[...] = 0.0
            dh[0] += gout[:, :h, k]
            dh[1] += gout[:, h:, t - 1 - k]
            np.tanh(cs[:, k], out=tc)
            # cell state: dc += dh * o * (1 - tanh(c)^2)
            np.multiply(dh, o, out=u)
            np.multiply(tc, tc, out=v)
            np.subtract(1.0, v, out=v)
            v *= u
            dc += v
            # output gate: dh * o * (1 - o) * tanh(c)
            np.subtract(1.0, o, out=o)
            o *= u
            o *= tc
            # input gate dc * i * (1 - i) * g, candidate dc * i * (1 - g^2)
            np.multiply(dc, i, out=u)
            np.subtract(1.0, i, out=i)
            i *= g
            i *= u
            g *= g
            np.subtract(1.0, g, out=g)
            g *= u
            # forget gate dc * f * (1 - f) * c_prev (c_prev is 0 at the first
            # step); dc * f carries the cell gradient to the previous step
            np.multiply(dc, f, out=v)
            if k:
                np.subtract(1.0, f, out=f)
                f *= v
                f *= cs[:, k - 1]
            else:
                f[...] = 0.0
            dc, v = v, dc
        # bias and weight gradients of all steps: one batched GEMM
        dz = gates.reshape(2, t * b, 4 * h)
        gw = np.matmul(dz.transpose(0, 2, 1), xh[:, :t].reshape(2, t * b, 1 + c + h))
        del xh, cs  # release the rest of the cache before the input gradient
        for d, direction in enumerate(("fwd", "bwd")):
            self.grads[f"{direction}_b"] = gw[d, :, 0]
            self.grads[f"{direction}_wx"] = gw[d, :, 1 : 1 + c]
            self.grads[f"{direction}_wh"] = gw[d, :, 1 + c :]
        # input gradient: one GEMM per direction, summed in natural time order
        gx = np.matmul(dz[0], self.params["fwd_wx"]).reshape(t, b, c)
        gx += np.matmul(dz[1], self.params["bwd_wx"]).reshape(t, b, c)[::-1]
        del gates, dz
        return np.ascontiguousarray(gx.transpose(1, 2, 0))


class Dropout(Layer):
    """Inverted dropout: identity in eval mode, x * mask / (1-p) in train."""

    def __init__(self, spec: DropoutSpec):
        super().__init__()
        self.spec = spec
        self._mask = None

    def forward(self, x, train=False, rng=None):
        p = self.spec.rate
        if not train or p == 0.0:
            self._mask = 1.0
            return x
        if rng is None:
            raise UsageError("train-mode dropout needs an rng")
        keep = rng.random(x.shape) < (1.0 - p)
        self._mask = keep / (1.0 - p)
        return x * self._mask

    def backward(self, gout):
        if self._mask is None:
            raise UsageError("backward called before forward")
        return gout * self._mask


class Dense(Layer):
    """Fully connected layer over (batch, features)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.params["w"] = _init_uniform(rng, (n_in, n_out), n_in)
        self.params["b"] = np.zeros(n_out)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.params["w"].shape[0]:
            raise ShapeError(
                f"expected (B, {self.params['w'].shape[0]}) input, got {x.shape}"
            )
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
    set; the betas and epsilon are Kingma & Ba's (2015) defaults.
    """

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, lr=0.001):
        if lr <= 0:
            raise ShapeError(f"Adam learning rate must be > 0, got {lr}")
        self.lr = lr
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Update ``params`` in place from ``grads``."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for name in sorted(params):
            g = grads[name]
            if g.shape != params[name].shape:
                raise ShapeError(f"gradient shape mismatch for '{name}'")
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**t)
            v_hat = self.v[name] / (1 - b2**t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPSILON)


# ---------------------------------------------------------------------------
# single-sample functional API (channels x steps arrays)


def conv1d_forward(x, weights, bias, stride: int = 1):
    """Valid-padding 1D convolution of a (channels, steps) array.

    ``weights`` is (filters, channels, kernel), ``bias`` is (filters,).
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if weights.ndim == 2:
        weights = weights[None]
    spec = ConvSpec(weights.shape[1], weights.shape[0], weights.shape[2], stride)
    layer = Conv1d(spec)
    layer.params["w"] = weights
    layer.params["b"] = np.asarray(bias, dtype=float) * np.ones(weights.shape[0])
    return layer.forward(x[None])[0]


def relu(x):
    return np.maximum(0.0, np.asarray(x, dtype=float))


def maxpool1d(x, depth: int):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return MaxPool1d(depth).forward(x[None, None])[0, 0]
    return MaxPool1d(depth).forward(x[None])[0]


def bilstm_forward(x, params: LstmParams):
    params.validate()
    layer = BiLSTM(params.input_size, params.hidden_size)
    for name in layer.params:
        layer.params[name] = np.array(getattr(params, name), dtype=float)
    return layer.forward(np.asarray(x, dtype=float)[None])[0]


def dropout_apply(x, spec: DropoutSpec, train: bool, rng=None):
    return Dropout(spec).forward(np.asarray(x, dtype=float), train=train, rng=rng)


def fc_forward(x, params: DenseParams):
    params.validate()
    x = np.asarray(x, dtype=float)
    layer = Dense(*params.weights.shape)
    layer.params["w"] = params.weights
    layer.params["b"] = params.bias
    if x.ndim == 1:
        return layer.forward(x[None])[0]
    return layer.forward(x)
