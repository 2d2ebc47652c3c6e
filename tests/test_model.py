import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from inertiabench.errors import NumericError, ShapeError, UsageError
from inertiabench.kernels import Adam
from inertiabench.losses import LossSpec, compute_loss
from inertiabench.model import (
    HEAD_MODES,
    PREDICT_CHUNK,
    InertialRegressor,
    ModelConfig,
    TrainConfig,
    train_model,
)
from inertiabench.runner import load_checkpoint, save_checkpoint

SMALL = ModelConfig(conv_filters=8, kernel_size=3, pool_depth=2, lstm_hidden=6,
                    fc_width=12, output_dim=1)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBuild:
    def test_single_head_shapes(self):
        model = InertialRegressor(ModelConfig(), rng())
        assert model.branches[0][1].spec.in_channels == 6
        assert model.lstm.input_size == 64
        assert model.fc.params["w"].shape == (256, 256)
        assert model.head.params["w"].shape == (256, 1)

    @pytest.mark.parametrize("mode, convs", [
        ("single", ["branch0.conv.w", "branch0.conv.b"]),
        ("head2", ["branch0.conv.w", "branch0.conv.b", "branch1.conv.w", "branch1.conv.b"]),
        ("head3", ["branch0.conv.w", "branch0.conv.b", "branch1.conv.w", "branch1.conv.b",
                   "branch2.conv.w", "branch2.conv.b"]),
    ])
    def test_parameter_names(self, mode, convs):
        # the names, in order, that checkpoints and Adam's moments are keyed by
        model = InertialRegressor(replace(SMALL, head_mode=mode), rng())
        assert list(model.parameters()) == convs + ["lstm.w", "fc.w", "fc.b", "head.w", "head.b"]

    def test_head2_shapes(self):
        model = InertialRegressor(ModelConfig(head_mode="head2"), rng())
        assert len(model.branches) == 2
        assert all(b[1].spec.in_channels == 3 for b in model.branches)
        assert model.lstm.input_size == 128

    def test_head3_shapes(self):
        model = InertialRegressor(ModelConfig(head_mode="head3"), rng())
        assert len(model.branches) == 3
        assert all(b[1].spec.in_channels == 2 for b in model.branches)
        assert model.lstm.input_size == 192

    def test_same_seed_identical_parameters(self):
        a = InertialRegressor(SMALL, rng(42))
        b = InertialRegressor(SMALL, rng(42))
        for k, v in a.parameters().items():
            np.testing.assert_array_equal(v, b.parameters()[k])

    @pytest.mark.parametrize("mode", HEAD_MODES)
    def test_relu_runs_on_pooled_data(self, mode):
        # conv -> maxpool -> ReLU: each branch's ReLU mask has the pooled shape
        model = InertialRegressor(replace(SMALL, head_mode=mode), rng())
        model.forward(rng(1).normal(size=(3, 6, 20)))
        for _, _, pool, act in model.branches:
            assert pool._cache[0] == (3, 8, 18)  # the conv output
            assert act._cache.shape == (3, 8, 9)

    def test_input_shape_checked(self):
        model = InertialRegressor(SMALL, rng())
        message = "expected (B, 6, W) input, got (2, 5, 20)"
        with pytest.raises(ShapeError, match=re.escape(message) + "$"):
            model.forward(np.zeros((2, 5, 20)))

    def test_invalid_head_mode(self):
        with pytest.raises(ShapeError):
            ModelConfig(head_mode="head4")

    @pytest.mark.parametrize("field", ["conv_filters", "kernel_size", "stride", "pool_depth",
                                       "lstm_hidden", "fc_width", "output_dim"])
    def test_invalid_model_size(self, field):
        with pytest.raises(ShapeError, match="invalid model config"):
            ModelConfig(**{field: 0})

    @pytest.mark.parametrize("options", [{"epochs": 0}, {"batch_size": 0},
                                         {"learning_rate": 0.0},
                                         {"learning_rate": np.nan},
                                         {"learning_rate": np.inf}])
    def test_invalid_training_config(self, options):
        with pytest.raises(ShapeError, match="invalid training config"):
            TrainConfig(**options)


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
        model = InertialRegressor(SMALL, rng(4))
        w = np.random.default_rng(5).normal(size=(1, 6, 20))
        out = model.predict(np.repeat(w, 5, axis=0))
        np.testing.assert_allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)

    def test_batch_order_equivariance(self):
        model = InertialRegressor(SMALL, rng(6))
        x = np.random.default_rng(7).normal(size=(8, 6, 20))
        perm = np.random.default_rng(8).permutation(8)
        np.testing.assert_allclose(model.predict(x)[perm], model.predict(x[perm]),
                                   atol=1e-12)

    def test_multi_head_accepts_six_channels(self):
        for mode in ("single", "head2", "head3"):
            cfg = ModelConfig(head_mode=mode, conv_filters=4, kernel_size=3,
                              pool_depth=2, lstm_hidden=4, fc_width=8)
            model = InertialRegressor(cfg, rng(9))
            out = model.predict(np.zeros((2, 6, 15)))
            assert out.shape == (2, 1)

    def test_wrong_channel_count_rejected(self):
        model = InertialRegressor(SMALL, rng(10))
        with pytest.raises(ShapeError):
            model.predict(np.zeros((1, 5, 20)))

    def test_backward_after_predict_raises(self):
        model = InertialRegressor(SMALL, rng(23))
        x = rng(24).normal(size=(4, 6, 20))
        model.forward(x, train=True, rng=rng(25))
        out = model.predict(x)
        with pytest.raises(UsageError, match="backward called before forward"):
            model.backward(np.ones_like(out))
        np.testing.assert_array_equal(out, model.forward(x))

    def test_predict_clears_every_layer_cache(self):
        model = InertialRegressor(SMALL, rng(28))
        x = rng(29).normal(size=(4, 6, 20))
        model.forward(x, train=True, rng=rng(30))
        model.predict(x)
        assert all(layer._cache is None for _, layer in model._layers())

    def test_predict_holds_no_memory_that_grows_with_the_batch(self):
        model = InertialRegressor(SMALL, rng(26))

        def held_after_predict(n):
            x = rng(27).normal(size=(n, 6, 20))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = model.predict(x)
                held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
            finally:
                tracemalloc.stop()
            return held

        held_after_predict(4)  # first-call allocations
        small, large = held_after_predict(4), held_after_predict(400)
        # at 400 windows the backward caches would hold more than 3 MB
        assert large - small < 1024

    def test_predict_peak_memory_does_not_grow_with_the_batch(self):
        model = InertialRegressor(SMALL, rng(31))

        def peak(n):
            x = rng(32).normal(size=(n, 6, 20))
            tracemalloc.start()
            try:
                model.predict(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(PREDICT_CHUNK)  # first-call allocations
        one_chunk, many = peak(PREDICT_CHUNK), peak(1000)
        # one forward over all 1,000 windows would peak at about 15 times one chunk's
        assert many - one_chunk < one_chunk / 2

    @pytest.mark.parametrize("mode", HEAD_MODES)
    def test_zero_windows_give_zero_predictions(self, mode):
        model = InertialRegressor(replace(SMALL, head_mode=mode, output_dim=2), rng(35))
        empty = np.zeros((0, 6, 20))
        assert model.forward(empty).shape == (0, 2)
        assert model.predict(empty).shape == (0, 2)

    @pytest.mark.parametrize("mode", HEAD_MODES)
    @pytest.mark.parametrize("shape", [(0, 5, 20), (0, 6, 3)])
    def test_wrong_shaped_empty_batch_rejected(self, mode, shape):
        model = InertialRegressor(replace(SMALL, head_mode=mode), rng(36))
        with pytest.raises(ShapeError):
            model.predict(np.zeros(shape))

    def test_predict_equals_one_forward_per_chunk(self):
        model = InertialRegressor(SMALL, rng(33))
        x = rng(34).normal(size=(2 * PREDICT_CHUNK + 5, 6, 20))
        chunks = [x[:PREDICT_CHUNK], x[PREDICT_CHUNK:2 * PREDICT_CHUNK], x[2 * PREDICT_CHUNK:]]
        expected = np.concatenate([model.forward(chunk) for chunk in chunks])
        np.testing.assert_array_equal(model.predict(x), expected)


class TestTraining:
    def test_empty_dataset_rejected(self):
        model = InertialRegressor(SMALL, rng(11))
        with pytest.raises(UsageError):
            train_model(model, TrainConfig(epochs=1), np.zeros((0, 6, 20)),
                        np.zeros((0, 1)), shuffle_rng=rng(0), dropout_rng=rng(1))

    def test_count_mismatch_rejected(self):
        model = InertialRegressor(SMALL, rng(11))
        with pytest.raises(ShapeError, match="window/label count mismatch"):
            train_model(model, TrainConfig(epochs=1), np.zeros((3, 6, 20)),
                        np.zeros((2, 1)), shuffle_rng=rng(0), dropout_rng=rng(1))

    def test_deterministic_loss_curve(self):
        data_rng = np.random.default_rng(12)
        x = data_rng.normal(size=(10, 6, 20))
        y = data_rng.normal(size=(10, 1))
        curves = []
        for _ in range(2):
            model = InertialRegressor(SMALL, rng(13))
            curves.append(train_model(model, TrainConfig(epochs=3), x, y,
                                      shuffle_rng=rng(5), dropout_rng=rng(6)))
        assert curves[0] == curves[1]

    def test_loss_decreases_on_memorizable_set(self):
        data_rng = np.random.default_rng(14)
        x = data_rng.normal(size=(8, 6, 20))
        y = data_rng.uniform(0.0, 1.0, size=(8, 1))
        model = InertialRegressor(SMALL, rng(15))
        curve = train_model(model, TrainConfig(epochs=60), x, y,
                            shuffle_rng=rng(1), dropout_rng=rng(2))
        assert curve[-1] < curve[0]

    def test_nan_loss_aborts(self):
        model = InertialRegressor(SMALL, rng(16))
        x = np.random.default_rng(17).normal(size=(4, 6, 20))
        y = np.full((4, 1), np.nan)
        with pytest.raises(NumericError):
            train_model(model, TrainConfig(epochs=1), x, y,
                        shuffle_rng=rng(0), dropout_rng=rng(1))

    def test_gradient_flow_through_full_model(self):
        # every parameter must receive a gradient after one backward pass
        model = InertialRegressor(SMALL, rng(18))
        x = np.random.default_rng(19).normal(size=(3, 6, 20))
        pred = model.forward(x, train=False)
        _, g = compute_loss(LossSpec("mse"), np.ones_like(pred), pred)
        model.backward(g)
        grads = model.gradients()
        nonzero = [k for k, v in grads.items() if np.any(v != 0)]
        assert len(nonzero) >= len(grads) - 2  # biases of dead ReLUs may be zero

    def test_in_place_adam_matches_the_textbook_update(self):
        def textbook_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                m_hat = m[name] / (1 - b1**t)
                v_hat = v[name] / (1 - b2**t)
                params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)

        model = InertialRegressor(SMALL, rng(28))
        data = rng(29)
        x, y = data.normal(size=(5, 6, 20)), data.normal(size=(5, 1))
        expected = {k: p.copy() for k, p in model.parameters().items()}
        m = {k: np.zeros_like(p) for k, p in expected.items()}
        v = {k: np.zeros_like(p) for k, p in expected.items()}
        opt = Adam(lr=0.01)
        moments = None
        for t in range(1, 4):
            _, g = compute_loss(LossSpec("mse"), y, model.forward(x))
            model.backward(g)
            textbook_step(expected, model.gradients(), m, v, t, lr=0.01)
            opt.step(model.parameters(), model.gradients())
            for name, param in model.parameters().items():
                np.testing.assert_array_equal(param, expected[name])
                np.testing.assert_array_equal(opt.m[name], m[name])
                np.testing.assert_array_equal(opt.v[name], v[name])
            if moments is None:
                moments = {k: (opt.m[k], opt.v[k]) for k in opt.m}
            assert all(opt.m[k] is mk and opt.v[k] is vk for k, (mk, vk) in moments.items())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        for mode in HEAD_MODES:
            model = InertialRegressor(replace(SMALL, head_mode=mode), rng(20))
            path = tmp_path / f"{mode}.npz"
            save_checkpoint(path, model)
            loaded = load_checkpoint(path)
            assert loaded.config == model.config
            assert loaded.parameters().keys() == model.parameters().keys()
            for k, v in model.parameters().items():
                np.testing.assert_array_equal(v, loaded.parameters()[k])
            x = np.random.default_rng(21).normal(size=(2, 6, 20))
            np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def _rewrite(self, tmp_path, edit):
        """Save a model, let ``edit`` change its parameter arrays, save again."""
        path = tmp_path / "model.npz"
        save_checkpoint(path, InertialRegressor(SMALL, rng(22)))
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        edit(arrays)
        np.savez(path, **arrays)
        return path

    def test_unsupported_version_rejected(self, tmp_path):
        # version 1 archives held six BiLSTM arrays; version 3 is not written yet
        for version in (1, 3):
            def set_version(arrays):
                meta = json.loads(arrays["__meta__"].tobytes().decode())
                meta["version"] = version
                arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            path = self._rewrite(tmp_path, set_version)
            with pytest.raises(UsageError, match=f"unsupported checkpoint version {version}"):
                load_checkpoint(path)

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
