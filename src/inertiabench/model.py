"""Baseline and multi-head inertial regression networks.

Each model is conv -> ReLU -> maxpool per head, channel-wise concatenation,
then a shared Bi-LSTM, dropout, a hidden FC layer and a linear regression
output.  Multi-head variants split the six input channels internally, so all
head modes accept the same (batch, 6, window) tensors.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericError, ParseError, ShapeError, UsageError
from .kernels import Adam, BiLSTM, Conv1d, ConvSpec, Dense, Dropout, DropoutSpec, MaxPool1d, ReLU
from .losses import LossSpec, compute_loss

HEAD_MODES = ("single", "head2", "head3")

# channel groups per head mode: indices into (fx, fy, fz, wx, wy, wz)
_GROUPS = {
    "single": ([0, 1, 2, 3, 4, 5],),
    "head2": ([0, 1, 2], [3, 4, 5]),
    "head3": ([0, 3], [1, 4], [2, 5]),
}

CHECKPOINT_VERSION = 1


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

    @property
    def channel_groups(self):
        return _GROUPS[self.head_mode]


class InertialRegressor:
    """A configured network; its parameters are zeros if ``rng`` is None."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        self.branches = []
        for group in config.channel_groups:
            spec = ConvSpec(len(group), config.conv_filters, config.kernel_size,
                            config.stride)
            self.branches.append(
                (list(group), Conv1d(spec, rng), ReLU(), MaxPool1d(config.pool_depth))
            )
        self.lstm = BiLSTM(config.conv_filters * len(self.branches), config.lstm_hidden, rng)
        self.drop = Dropout(DropoutSpec(config.dropout))
        self.fc = Dense(2 * config.lstm_hidden, config.fc_width, rng)
        self.fc_act = ReLU()
        self.head = Dense(config.fc_width, config.output_dim, rng)
        self._summary_shape = None

    def _layers(self):
        for i, (_, conv, _, _) in enumerate(self.branches):
            yield f"branch{i}.conv", conv
        yield "lstm", self.lstm
        yield "fc", self.fc
        yield "head", self.head

    def _named(self, attr: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": arr for prefix, layer in self._layers()
                for name, arr in getattr(layer, attr).items()}

    def parameters(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def gradients(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] != 6:
            raise ShapeError(f"expected (B, 6, W) windows, got {x.shape}")
        parts = []
        for cols, conv, act, pool in self.branches:
            parts.append(pool.forward(act.forward(conv.forward(x[:, cols, :]))))
        trunk = np.concatenate(parts, axis=1)
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
        gtrunk = self.lstm.backward(ghs)
        offset = 0
        for cols, conv, act, pool in self.branches:
            gpart = gtrunk[:, offset : offset + self.config.conv_filters, :]
            conv.backward(act.backward(pool.backward(gpart)))
            offset += self.config.conv_filters

    def predict(self, windows) -> np.ndarray:
        """Deterministic eval-mode prediction, (batch, output_dim)."""
        return self.forward(windows, train=False)


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
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
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


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: InertialRegressor):
    """Write config + parameters as a versioned .npz archive."""
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(model.config)}
    arrays = {f"param/{k}": v for k, v in model.parameters().items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path) -> InertialRegressor:
    """Rebuild a saved model; the archive must hold exactly its parameters.

    A missing, unexpected, differently shaped or non-finite parameter raises
    UsageError rather than leaving an initial value in place or broadcasting.
    A file or ``__meta__`` entry that cannot be read raises ParseError, and a
    model config that ModelConfig rejects raises UsageError.
    """
    # np.load(path) would leave the file open when it cannot read the archive
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"cannot read checkpoint {path}: {exc}") from exc
        if isinstance(archive, np.ndarray):
            raise ParseError(f"cannot read checkpoint {path}: an .npy array, not an .npz archive")
        try:
            meta = json.loads(archive["__meta__"].tobytes().decode())
            version, config = meta.get("version"), meta["config"]
        except (KeyError, ValueError, AttributeError) as exc:
            raise ParseError(f"cannot read __meta__ of checkpoint {path}: {exc!r}") from exc
        if version != CHECKPOINT_VERSION:
            raise UsageError(f"unsupported checkpoint version {version}")
        try:
            config = ModelConfig(**config)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid model config in checkpoint {path}: {exc}") from exc
        model = InertialRegressor(config, None)  # zeros, every one overwritten below
        params = model.parameters()
        stored = {key[len("param/"):] for key in archive.files if key.startswith("param/")}
        if stored != set(params):
            missing = sorted(set(params) - stored)
            unexpected = sorted(stored - set(params))
            raise UsageError(f"checkpoint parameters do not match the model: "
                             f"missing {missing}, unexpected {unexpected}")
        for name, param in params.items():
            value = archive[f"param/{name}"]
            if value.shape != param.shape:
                raise UsageError(f"checkpoint parameter '{name}' has shape {value.shape}, "
                                 f"expected {param.shape}")
            if not np.all(np.isfinite(value)):
                raise UsageError(f"checkpoint parameter '{name}' contains non-finite values")
            param[...] = value
    return model
