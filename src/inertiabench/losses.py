"""Training losses and evaluation metrics.

Every loss returns both its scalar value and the gradient with respect to
the predictions, averaged over all elements of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

LOSS_KINDS = ("mse", "mae", "huber", "logcosh")


@dataclass(frozen=True)
class LossSpec:
    kind: str = "mse"
    delta: float = 1.0  # huber threshold

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ShapeError(f"unknown loss kind '{self.kind}'")
        if not 0 < self.delta < np.inf:
            raise ShapeError(f"huber delta must be positive and finite, got {self.delta}")


def compute_loss(spec: LossSpec, y, y_hat) -> tuple[float, np.ndarray]:
    """Return (loss value, d loss / d y_hat).

    ``y`` and ``y_hat`` may have any matching shape; the loss averages over
    all elements.  The MAE subgradient at zero error is 0.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.size == 0:
        raise ShapeError(f"loss shapes mismatch: {y.shape} vs {y_hat.shape}")
    e = y_hat - y
    n = e.size
    if spec.kind == "mse":
        return float(np.mean(e * e)), 2.0 * e / n
    if spec.kind == "mae":
        return float(np.mean(np.abs(e))), np.sign(e) / n
    if spec.kind == "huber":
        d = spec.delta
        small = np.abs(e) <= d
        per = np.where(small, 0.5 * e * e, d * np.abs(e) - 0.5 * d * d)
        grad = np.where(small, e, d * np.sign(e)) / n
        return float(np.mean(per)), grad
    # logcosh; log(cosh(e)) computed via |e| + log1p(exp(-2|e|)) - log 2
    # to stay finite for large errors
    a = np.abs(e)
    per = a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)
    return float(np.mean(per)), np.tanh(e) / n


def metric_rmse(y, y_hat) -> float:
    """Root mean square error over all elements."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.size == 0:
        raise ShapeError(f"rmse shapes mismatch: {y.shape} vs {y_hat.shape}")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def improvement_pct(rmse_base: float, rmse_tech: float) -> float:
    """Relative RMSE reduction in percent; positive means improvement."""
    if rmse_base <= 0:
        raise ShapeError(f"baseline RMSE must be positive, got {rmse_base}")
    return 100.0 * (rmse_base - rmse_tech) / rmse_base
