import numpy as np
import pytest

from inertiabench.errors import NumericError, ShapeError, UsageError
from inertiabench.losses import LossSpec
from inertiabench.model import (
    InertialRegressor,
    ModelConfig,
    TrainConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

SMALL = ModelConfig(conv_filters=8, kernel_size=3, pool_depth=2, lstm_hidden=6,
                    fc_width=12, output_dim=1)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBuild:
    def test_single_head_shapes(self):
        model = build_model(ModelConfig(), rng())
        assert model.branches[0][1].spec.in_channels == 6
        assert model.lstm.input_size == 64
        assert model.fc.params["w"].shape == (256, 256)
        assert model.head.params["w"].shape == (256, 1)

    def test_head2_shapes(self):
        model = build_model(ModelConfig(head_mode="head2"), rng())
        assert len(model.branches) == 2
        assert all(b[1].spec.in_channels == 3 for b in model.branches)
        assert model.lstm.input_size == 128

    def test_head3_shapes(self):
        model = build_model(ModelConfig(head_mode="head3"), rng())
        assert len(model.branches) == 3
        assert all(b[1].spec.in_channels == 2 for b in model.branches)
        assert model.lstm.input_size == 192

    def test_same_seed_identical_parameters(self):
        a = build_model(SMALL, rng(42))
        b = build_model(SMALL, rng(42))
        for k, v in a.parameters().items():
            np.testing.assert_array_equal(v, b.parameters()[k])

    def test_invalid_head_mode(self):
        with pytest.raises(ShapeError):
            ModelConfig(head_mode="head4")


class TestPredict:
    def test_zero_weights_predict_bias(self):
        model = InertialRegressor(SMALL, rng(2))
        for _, layer in model._layers():
            for k in layer.params:
                layer.params[k][...] = 0.0
        model.head.params["b"][...] = 1.25
        out = model.predict(np.random.default_rng(3).normal(size=(4, 6, 20)))
        np.testing.assert_allclose(out, 1.25)

    def test_identical_windows_identical_predictions(self):
        model = build_model(SMALL, rng(4))
        w = np.random.default_rng(5).normal(size=(1, 6, 20))
        out = model.predict(np.repeat(w, 5, axis=0))
        np.testing.assert_allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)

    def test_batch_order_equivariance(self):
        model = build_model(SMALL, rng(6))
        x = np.random.default_rng(7).normal(size=(8, 6, 20))
        perm = np.random.default_rng(8).permutation(8)
        np.testing.assert_allclose(model.predict(x)[perm], model.predict(x[perm]),
                                   atol=1e-12)

    def test_multi_head_accepts_six_channels(self):
        for mode in ("single", "head2", "head3"):
            cfg = ModelConfig(head_mode=mode, conv_filters=4, kernel_size=3,
                              pool_depth=2, lstm_hidden=4, fc_width=8)
            model = build_model(cfg, rng(9))
            out = model.predict(np.zeros((2, 6, 15)))
            assert out.shape == (2, 1)

    def test_wrong_channel_count_rejected(self):
        model = build_model(SMALL, rng(10))
        with pytest.raises(ShapeError):
            model.predict(np.zeros((1, 5, 20)))


class TestTraining:
    def test_empty_dataset_rejected(self):
        model = build_model(SMALL, rng(11))
        with pytest.raises(UsageError):
            train_model(model, TrainConfig(epochs=1), np.zeros((0, 6, 20)),
                        np.zeros((0, 1)), shuffle_rng=rng(0), dropout_rng=rng(1))

    def test_deterministic_loss_curve(self):
        data_rng = np.random.default_rng(12)
        x = data_rng.normal(size=(10, 6, 20))
        y = data_rng.normal(size=(10, 1))
        curves = []
        for _ in range(2):
            model = build_model(SMALL, rng(13))
            curves.append(train_model(model, TrainConfig(epochs=3), x, y,
                                      shuffle_rng=rng(5), dropout_rng=rng(6)))
        assert curves[0] == curves[1]

    def test_loss_decreases_on_memorizable_set(self):
        data_rng = np.random.default_rng(14)
        x = data_rng.normal(size=(8, 6, 20))
        y = data_rng.uniform(0.0, 1.0, size=(8, 1))
        model = build_model(SMALL, rng(15))
        curve = train_model(model, TrainConfig(epochs=60), x, y,
                            shuffle_rng=rng(1), dropout_rng=rng(2))
        assert curve[-1] < curve[0]

    def test_nan_loss_aborts(self):
        model = build_model(SMALL, rng(16))
        x = np.random.default_rng(17).normal(size=(4, 6, 20))
        y = np.full((4, 1), np.nan)
        with pytest.raises(NumericError):
            train_model(model, TrainConfig(epochs=1), x, y,
                        shuffle_rng=rng(0), dropout_rng=rng(1))

    def test_gradient_flow_through_full_model(self):
        # every parameter must receive a gradient after one backward pass
        model = build_model(SMALL, rng(18))
        x = np.random.default_rng(19).normal(size=(3, 6, 20))
        pred = model.forward(x, train=False)
        from inertiabench.losses import compute_loss

        _, g = compute_loss(LossSpec("mse"), np.ones_like(pred), pred)
        model.backward(g)
        grads = model.gradients()
        nonzero = [k for k, v in grads.items() if np.any(v != 0)]
        assert len(nonzero) >= len(grads) - 2  # biases of dead ReLUs may be zero


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = build_model(SMALL, rng(20))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, loaded.parameters()[k])
        x = np.random.default_rng(21).normal(size=(2, 6, 20))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def _rewrite(self, tmp_path, edit):
        """Save a model, let ``edit`` change its parameter arrays, save again."""
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(SMALL, rng(22)))
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        edit(arrays)
        np.savez(path, **arrays)
        return path

    def test_missing_parameter_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, lambda a: a.pop("param/head.b"))
        with pytest.raises(UsageError, match="head.b"):
            load_checkpoint(path)

    def test_unexpected_parameter_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, lambda a: a.update({"param/extra.w": np.zeros(2)}))
        with pytest.raises(UsageError, match="extra.w"):
            load_checkpoint(path)

    def test_broadcastable_shape_rejected(self, tmp_path):
        # a (1,) array would broadcast into every element of fc.b
        path = self._rewrite(tmp_path, lambda a: a.update({"param/fc.b": np.ones(1)}))
        with pytest.raises(UsageError, match="fc.b"):
            load_checkpoint(path)
