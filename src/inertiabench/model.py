"""Baseline and multi-head inertial regression networks.

Each model is conv -> maxpool -> ReLU per head, channel-wise concatenation,
then a shared Bi-LSTM, dropout, a hidden FC layer and a linear regression
output.  ReLU runs on the pooled data: max pooling commutes with the
monotone ReLU and picks the same first argmax wherever the gradient is not
zero, so this order gives the bits of ReLU-then-pool at a fraction of the
elementwise work.  Multi-head variants split the six input channels
internally, so all head modes accept the same (batch, 6, window) tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, UsageError
from .kernels import (Adam, BiLSTM, Conv1d, ConvSpec, Dense, Dropout, DropoutSpec, MaxPool1d,
                      ReLU, expect_shape)
from .losses import LossSpec, compute_loss

# channel groups per head mode: indices into (fx, fy, fz, wx, wy, wz)
_GROUPS = {
    "single": ([0, 1, 2, 3, 4, 5],),
    "head2": ([0, 1, 2], [3, 4, 5]),
    "head3": ([0, 3], [1, 4], [2, 5]),
}
HEAD_MODES = tuple(_GROUPS)


@dataclass(frozen=True)
class ModelConfig:
    head_mode: str = "single"
    conv_filters: int = 64
    kernel_size: int = 5
    stride: int = 1
    pool_depth: int = 3
    dropout: float = 0.25
    lstm_hidden: int = 128
    fc_width: int = 256
    output_dim: int = 1

    def __post_init__(self):
        if self.head_mode not in HEAD_MODES:
            raise ShapeError(f"unknown head mode '{self.head_mode}'")
        if min(self.conv_filters, self.kernel_size, self.stride, self.pool_depth,
               self.lstm_hidden, self.fc_width, self.output_dim) < 1:
            raise ShapeError(f"invalid model config: {self}")
        DropoutSpec(self.dropout)


class InertialRegressor:
    """A configured network; its parameters are zeros if ``rng`` is None."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        self.branches = []
        for group in _GROUPS[config.head_mode]:
            spec = ConvSpec(len(group), config.conv_filters, config.kernel_size,
                            config.stride)
            self.branches.append(
                (list(group), Conv1d(spec, rng), MaxPool1d(config.pool_depth), ReLU())
            )
        self.lstm = BiLSTM(config.conv_filters * len(self.branches), config.lstm_hidden, rng)
        self.drop = Dropout(DropoutSpec(config.dropout))
        self.fc = Dense(2 * config.lstm_hidden, config.fc_width, rng)
        self.fc_act = ReLU()
        self.head = Dense(config.fc_width, config.output_dim, rng)
        self._summary_shape = None

    def _layers(self):
        """Every layer with its name; layers without parameters have empty ``params``."""
        for i, (_, *layers) in enumerate(self.branches):
            yield from zip((f"branch{i}.conv", f"branch{i}.pool", f"branch{i}.act"), layers)
        for name in ("lstm", "drop", "fc", "fc_act", "head"):
            yield name, getattr(self, name)

    def _named(self, attr: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": arr for prefix, layer in self._layers()
                for name, arr in getattr(layer, attr).items()}

    def parameters(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def gradients(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=float)
        expect_shape(x, "B", 6, "W")
        trunk = np.concatenate([act.forward(pool.forward(conv.forward(x[:, cols, :])))
                                for cols, conv, pool, act in self.branches], axis=1)
        hs = self.lstm.forward(trunk)
        hidden = self.config.lstm_hidden
        # sequence summary: forward state at the last step, backward at the first
        summary = np.concatenate([hs[:, :hidden, -1], hs[:, hidden:, 0]], axis=1)
        self._summary_shape = hs.shape
        out = self.drop.forward(summary, train=train, rng=rng)
        out = self.fc_act.forward(self.fc.forward(out))
        return self.head.forward(out)

    def backward(self, gout):
        g = self.head.backward(gout)  # raises UsageError before any forward
        g = self.fc.backward(self.fc_act.backward(g))
        g = self.drop.backward(g)
        hidden = self.config.lstm_hidden
        ghs = np.zeros(self._summary_shape)
        ghs[:, :hidden, -1] = g[:, :hidden]
        ghs[:, hidden:, 0] = g[:, hidden:]
        gparts = np.split(self.lstm.backward(ghs), len(self.branches), axis=1)
        for (_, conv, pool, act), gpart in zip(self.branches, gparts):
            conv.backward(pool.backward(act.backward(gpart)))

    def predict(self, windows) -> np.ndarray:
        """Deterministic eval-mode prediction, (batch, output_dim).

        Every layer's backward cache is dropped before returning, so no
        batch-sized array outlives the call and ``backward`` raises UsageError.
        """
        out = self.forward(windows, train=False)
        for _, layer in self._layers():
            layer._cache = None
        self.drop._mask = None
        return out


def build_model(config: ModelConfig, rng: np.random.Generator) -> InertialRegressor:
    """Construct a model with uniform +-1/sqrt(fan_in) initial weights."""
    return InertialRegressor(config, rng)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 0.001
    loss: LossSpec = field(default_factory=LossSpec)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not 0 < self.learning_rate < np.inf:
            raise ShapeError(f"invalid training config: {self}")


def train_model(model: InertialRegressor, tc: TrainConfig, windows, labels, *,
                shuffle_rng: np.random.Generator,
                dropout_rng: np.random.Generator) -> list[float]:
    """Mini-batch Adam training; returns the per-epoch mean loss curve.

    Raises NumericError and aborts if the loss goes non-finite.
    """
    windows = np.asarray(windows, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(windows) == 0:
        raise UsageError("cannot train on an empty dataset")
    if len(windows) != len(labels):
        raise ShapeError("window/label count mismatch")
    opt = Adam(lr=tc.learning_rate)
    curve = []
    n = len(windows)
    for _ in range(tc.epochs):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            pred = model.forward(windows[idx], train=True, rng=dropout_rng)
            value, grad = compute_loss(tc.loss, labels[idx], pred)
            if not np.isfinite(value):
                raise NumericError(f"training loss became non-finite ({value})")
            model.backward(grad)
            opt.step(model.parameters(), model.gradients())
            total += value * len(idx)
        curve.append(total / n)
    return curve
