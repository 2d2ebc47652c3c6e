"""Analytic gradients vs central finite differences for every layer and loss."""

import numpy as np
import pytest

from inertiabench.errors import UsageError
from inertiabench.kernels import BiLSTM, Conv1d, ConvSpec, Dense, Dropout, DropoutSpec, MaxPool1d, ReLU
from inertiabench.losses import LOSS_KINDS, LossSpec, compute_loss

from gradcheck import check_layer_grads, max_rel_error, numerical_grad


def test_dense_mse_random_case():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))
    layer = Dense(3, 2, rng)
    err = check_layer_grads(lambda: layer, x, LossSpec("mse"), target)
    assert err < 1e-4


def test_conv_mse_random_case():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 1, 5))
    layer = Conv1d(ConvSpec(1, 1, 2), rng)
    target = rng.normal(size=(1, 1, 4))
    err = check_layer_grads(lambda: layer, x, LossSpec("mse"), target)
    assert err < 1e-4


def test_bilstm_mse_random_case():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 4))
    layer = BiLSTM(2, 3, rng)
    target = rng.normal(size=(1, 6, 4))
    err = check_layer_grads(lambda: layer, x, LossSpec("mse"), target)
    assert err < 1e-3


@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
@pytest.mark.parametrize("trial", range(5))
def test_dense_all_losses(loss_kind, trial):
    rng = np.random.default_rng(100 + trial)
    x = rng.normal(size=(3, 4))
    layer = Dense(4, 2, rng)
    target = rng.normal(size=(3, 2))
    err = check_layer_grads(lambda: layer, x, LossSpec(loss_kind), target)
    assert err < 1e-4


@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
@pytest.mark.parametrize("trial", range(5))
def test_conv_all_losses(loss_kind, trial):
    rng = np.random.default_rng(200 + trial)
    x = rng.normal(size=(2, 2, 7))
    layer = Conv1d(ConvSpec(2, 3, 3, stride=2), rng)
    target = rng.normal(size=(2, 3, 3))
    err = check_layer_grads(lambda: layer, x, LossSpec(loss_kind), target)
    assert err < 1e-4


@pytest.mark.parametrize("trial", range(5))
def test_bilstm_all_losses(trial):
    rng = np.random.default_rng(300 + trial)
    x = rng.normal(size=(2, 2, 4))
    layer = BiLSTM(2, 3, rng)
    target = rng.normal(size=(2, 6, 4))
    for kind in LOSS_KINDS:
        err = check_layer_grads(lambda: layer, x, LossSpec(kind), target)
        assert err < 1e-3, kind


@pytest.mark.parametrize("trial", range(3))
def test_maxpool_and_relu_grads(trial):
    rng = np.random.default_rng(400 + trial)
    x = rng.normal(size=(2, 3, 9))
    target = rng.normal(size=(2, 3, 3))
    pool = MaxPool1d(3)
    err = check_layer_grads(lambda: pool, x, LossSpec("mse"), target)
    assert err < 1e-4
    # T % d != 0: the trailing partial window gets zero gradient
    x10 = rng.normal(size=(2, 3, 10))
    err = check_layer_grads(lambda: pool, x10, LossSpec("mse"), target)
    assert err < 1e-4
    act = ReLU()
    target2 = rng.normal(size=x.shape)
    err = check_layer_grads(lambda: act, x + 0.1, LossSpec("mse"), target2)
    assert err < 1e-4


@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
def test_dropout_fixed_mask_grads(loss_kind):
    rng = np.random.default_rng(500)
    x = rng.normal(size=(3, 8))
    target = rng.normal(size=(3, 8))
    layer = Dropout(DropoutSpec(0.4))
    layer.forward(x, train=True, rng=rng)  # freeze a mask
    mask = layer._cache
    spec = LossSpec(loss_kind)

    def f(xv):
        return compute_loss(spec, target, xv * mask)[0]

    _, gout = compute_loss(spec, target, x * mask)
    gin = layer.backward(gout)
    assert max_rel_error(gin, numerical_grad(f, x)) < 1e-4


def test_loss_gradients_match_fd():
    rng = np.random.default_rng(600)
    y = rng.normal(size=12)
    for kind in LOSS_KINDS:
        spec = LossSpec(kind)
        # stay away from MAE's kink and Huber's branch boundary
        y_hat = y + rng.uniform(0.1, 0.8, size=12) * rng.choice([-1, 1], size=12)
        _, grad = compute_loss(spec, y, y_hat)
        num = numerical_grad(lambda v: compute_loss(spec, y, v)[0], y_hat.copy())
        assert max_rel_error(grad, num) < 1e-5, kind


@pytest.mark.parametrize("layer", [
    Conv1d(ConvSpec(2, 2, 1)), ReLU(), MaxPool1d(1), BiLSTM(2, 1),
    Dropout(DropoutSpec(0.5)), Dense(2, 2),
], ids=lambda layer: type(layer).__name__)
def test_backward_before_forward_is_usage_error(layer):
    # the guard fires before the gradient is read, so its shape does not matter
    with pytest.raises(UsageError, match="backward called before forward"):
        layer.backward(np.zeros((1, 2, 2)))
