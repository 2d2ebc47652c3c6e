import re

import numpy as np
import pytest

from inertiabench.errors import NumericError, ShapeError, UsageError
from inertiabench.kernels import (
    Adam,
    BiLSTM,
    Conv1d,
    ConvSpec,
    Dense,
    DenseParams,
    Dropout,
    DropoutSpec,
    LstmParams,
    MaxPool1d,
    ReLU,
    bilstm_forward,
    conv1d_forward,
    dropout_apply,
    expect_shape,
    fc_forward,
    maxpool1d,
    relu,
)


def channel_major(a):
    """``a`` as the (B, C, T) view of a (C, T, B) buffer: the layout Conv1d returns."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


class TestConv1d:
    def test_hand_convolution_k2(self):
        # y(t) = sum_i w_i x(t+i-1): [1*1 + (-1)*2, 1*2 + (-1)*3] = [-1, -1]
        out = conv1d_forward([1.0, 2.0, 3.0], [[1.0, -1.0]], 0.0)
        np.testing.assert_allclose(out, [[-1.0, -1.0]])

    def test_bias_broadcast(self):
        out = conv1d_forward([1.0, 2.0, 3.0, 4.0], np.zeros((1, 1, 2)), 0.5)
        np.testing.assert_allclose(out, 0.5 * np.ones((1, 3)))

    def test_full_width_kernel_single_step(self):
        out = conv1d_forward([1.0, 2.0, 3.0, 4.0, 5.0], [[1.0, 0, 0, 0, 0]], 0.0)
        np.testing.assert_allclose(out, [[1.0]])

    def test_output_length_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            steps = int(rng.integers(1, 40))
            k = int(rng.integers(1, steps + 1))
            s = int(rng.integers(1, 5))
            x = rng.normal(size=(2, steps))
            w = rng.normal(size=(3, 2, k))
            out = conv1d_forward(x, w, 0.0, stride=s)
            assert out.shape == (3, (steps - k) // s + 1)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 9))
        w = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=2)
        out = conv1d_forward(x, w, b)
        for f in range(2):
            for t in range(6):
                expected = b[f] + sum(
                    w[f, c, i] * x[c, t + i] for c in range(3) for i in range(4)
                )
                assert out[f, t] == pytest.approx(expected)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            conv1d_forward([1.0, 2.0], [[1.0, 1.0, 1.0]], 0.0)

    def test_channel_mismatch_rejected(self):
        spec = ConvSpec(in_channels=2, filters=1, kernel=2)
        layer = Conv1d(spec)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 3, 5)))

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            conv1d_forward([1.0, np.nan, 3.0], [[1.0, -1.0]], 0.0)

    @pytest.mark.parametrize("field", ["in_channels", "filters", "kernel", "stride"])
    def test_invalid_spec(self, field):
        sizes = {"in_channels": 2, "filters": 1, "kernel": 2, "stride": 1, field: 0}
        with pytest.raises(ShapeError, match="invalid conv spec"):
            ConvSpec(**sizes)


class TestRelu:
    @pytest.mark.parametrize("x,expected", [(-1.0, 0.0), (2.0, 2.0), (0.0, 0.0)])
    def test_values(self, x, expected):
        assert relu(np.array([x]))[0] == expected

    def test_idempotent(self):
        x = np.random.default_rng(2).normal(size=(4, 7))
        np.testing.assert_array_equal(relu(relu(x)), relu(x))


class TestMaxPool:
    def test_hand_windows(self):
        np.testing.assert_allclose(maxpool1d([1, 3, 2, 5, 4, 6], 3), [3, 6])

    def test_constant_signal(self):
        np.testing.assert_allclose(maxpool1d(np.full(9, 2.5), 3), np.full(3, 2.5))

    def test_identity_pooling(self):
        np.testing.assert_allclose(maxpool1d([7.0], 1), [7.0])

    def test_partial_window_dropped(self):
        np.testing.assert_allclose(maxpool1d([1, 9, 2, 4, 100], 2), [9, 4])

    def test_depth_out_of_range(self):
        with pytest.raises(ShapeError):
            maxpool1d([1.0, 2.0], 3)
        with pytest.raises(ShapeError):
            MaxPool1d(0)

    def test_input_rank_checked(self):
        with pytest.raises(ShapeError, match=r"expected \(B, C, T\) input, got \(2, 3\)"):
            MaxPool1d(2).forward(np.zeros((2, 3)))
        for x in (np.float64(1.0), np.zeros((2, 3, 4))):  # the caller's shape, not a batch's
            message = f"expected (C, T) input, got {x.shape}"
            with pytest.raises(ShapeError, match=re.escape(message)):
                maxpool1d(x, 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            steps = int(rng.integers(1, 25))
            d = int(rng.integers(1, steps + 1))
            x = rng.normal(size=(2, steps))
            out = maxpool1d(x, d)
            expected = np.array(
                [[x[c, i * d : (i + 1) * d].max() for i in range(steps // d)]
                 for c in range(2)]
            )
            np.testing.assert_array_equal(out, expected)
            assert np.all(out >= x[:, : (steps // d) * d].reshape(2, -1, d).max(axis=2) - 1e-15)

    @pytest.mark.parametrize("depth", [3, 10, 24])
    def test_first_max_wins_in_any_layout(self, depth):
        rng = np.random.default_rng(depth)
        # small integers tie inside windows; a trailing partial window is dropped
        x = rng.integers(-3, 3, size=(5, 4, 6 * depth + depth - 1)).astype(float)
        gout = rng.normal(size=(5, 4, 6))
        windows = x[..., : 6 * depth].reshape(5, 4, 6, depth)
        first = windows.argmax(axis=3)[..., None]
        assert np.any((windows == np.take_along_axis(windows, first, axis=3)).sum(axis=3) > 1)
        want_gx = np.zeros(x.shape)
        np.put_along_axis(want_gx[..., : 6 * depth].reshape(windows.shape), first,
                          gout[..., None], axis=3)
        for xl in (x, channel_major(x)):
            for gl in (gout, channel_major(gout)):
                layer = MaxPool1d(depth)
                out = layer.forward(xl)
                assert np.array_equal(out, np.take_along_axis(windows, first, axis=3)[..., 0])
                assert np.array_equal(layer.backward(gl), want_gx)


class TestPoolThenRelu:
    """MaxPool1d -> ReLU, the model's branch order, gives ReLU -> MaxPool1d's bits."""

    @staticmethod
    def _run(first, second, x, gout):
        out = second.forward(first.forward(x))
        return out, first.backward(second.backward(gout))

    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_forward_and_input_gradient_equal(self, depth):
        rng = np.random.default_rng(30)
        # small integers and a trailing partial window of depth - 1 steps
        x = rng.integers(-3, 3, size=(8, 6, 7 * depth + depth - 1)).astype(float)
        windows = x[..., : 7 * depth].reshape(8, 6, 7, depth)
        top = windows.max(axis=3)
        assert np.any((windows == top[..., None]).sum(axis=3) > 1)  # ties inside a window
        assert np.any(top < 0)  # all-negative windows
        assert np.any(top == 0.0)  # windows whose maximum is exactly 0.0
        assert np.any(top > 0)
        gout = rng.normal(size=top.shape)
        relu_first = self._run(ReLU(), MaxPool1d(depth), x, gout)
        pool_first = self._run(MaxPool1d(depth), ReLU(), x, gout)
        for a, b in zip(relu_first, pool_first):
            assert np.array_equal(a, b)


class TestBiLstm:
    def test_zero_params_give_zero_states(self):
        # all gates at 0: i = sigma(0) = 0.5, g = tanh(0) = 0, so c = h = 0
        params = LstmParams.zeros(2, 3)
        x = np.random.default_rng(4).normal(size=(2, 5))
        np.testing.assert_array_equal(bilstm_forward(x, params), np.zeros((6, 5)))

    def test_shape_contract(self):
        rng = np.random.default_rng(5)
        layer = BiLSTM(3, 4, rng)
        out = layer.forward(rng.normal(size=(2, 3, 7)))
        assert out.shape == (2, 8, 7)

    def test_backward_direction_is_reversed_forward(self):
        rng = np.random.default_rng(6)
        layer = BiLSTM(2, 3, rng)
        x = rng.normal(size=(1, 2, 6))
        bwd_half = layer.forward(x)[:, 3:, :]

        mirror = BiLSTM(2, 3)
        mirror.params["w"][0] = layer.params["w"][1]
        fwd_on_reversed = mirror.forward(x[:, :, ::-1])[:, :3, :]
        np.testing.assert_allclose(bwd_half, fwd_on_reversed[:, :, ::-1], atol=1e-12)

    def test_input_size_mismatch(self):
        with pytest.raises(ShapeError):
            BiLSTM(2, 3).forward(np.zeros((1, 4, 5)))

    def test_functional_api_runs_the_layer_on_the_packed_weight(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(2, 12, 6))
        x = rng.normal(size=(2, 5))
        layer = BiLSTM(2, 3)
        layer.params["w"] = w
        out = bilstm_forward(x, LstmParams(2, 3, w))
        assert np.array_equal(out, layer.forward(x[None])[0])

    def test_params_validate(self):
        params = LstmParams.zeros(2, 3)
        params.validate()
        params.w = np.zeros((2, 12, 5))
        with pytest.raises(ShapeError,
                           match=r"w has shape \(2, 12, 5\), expected \(2, 12, 6\)"):
            params.validate()
        params.w = np.full((2, 12, 6), np.nan)
        with pytest.raises(NumericError, match="w contains non-finite values"):
            params.validate()

    def test_init_draw_order(self):
        # the weights take uniform +-1/sqrt(fan_in) draws in the order
        # fwd_wx, fwd_wh, bwd_wx, bwd_wh; the biases start at zero
        i, h = 3, 4
        w = BiLSTM(i, h, np.random.default_rng(21)).params["w"]
        rng = np.random.default_rng(21)
        for wd in w:  # per direction [b | wx | wh]
            for cols, fan_in in ((slice(1, 1 + i), i), (slice(1 + i, None), h)):
                bound = 1.0 / np.sqrt(fan_in)
                want = rng.uniform(-bound, bound, size=(4 * h, fan_in))
                np.testing.assert_array_equal(wd[:, cols], want)
            np.testing.assert_array_equal(wd[:, 0], np.zeros(4 * h))

    def test_one_packed_weight_and_gradient(self):
        # per direction [b | wx | wh]: the array the GEMMs read and write
        rng = np.random.default_rng(23)
        layer = BiLSTM(3, 4, rng)
        assert {k: v.shape for k, v in layer.params.items()} == {"w": (2, 16, 8)}
        layer.forward(rng.normal(size=(2, 3, 5)))
        layer.backward(rng.normal(size=(2, 8, 5)))
        assert {k: v.shape for k, v in layer.grads.items()} == {"w": (2, 16, 8)}


class TestInit:
    # layer from a generator or None, and its drawn weights (parameter name,
    # index into it, fan-in) in draw order; everything else starts at zero
    LAYERS = {
        "conv": (lambda rng: Conv1d(ConvSpec(2, 3, 4), rng), [("w", np.s_[:], 8)]),
        "dense": (lambda rng: Dense(5, 3, rng), [("w", np.s_[:], 5)]),
        "bilstm": (lambda rng: BiLSTM(3, 4, rng),  # fwd wx, fwd wh, bwd wx, bwd wh
                   [("w", np.s_[d, :, cols], fan_in) for d in (0, 1)
                    for cols, fan_in in ((slice(1, 4), 3), (slice(4, None), 4))]),
    }

    @pytest.mark.parametrize("kind", LAYERS)
    def test_uniform_draws_with_a_generator_zeros_without(self, kind):
        make, drawn = self.LAYERS[kind]
        layer, rng = make(np.random.default_rng(22)), np.random.default_rng(22)
        want = {name: np.zeros(param.shape) for name, param in layer.params.items()}
        for name, index, fan_in in drawn:
            bound = 1.0 / np.sqrt(fan_in)
            want[name][index] = rng.uniform(-bound, bound, size=want[name][index].shape)
        for name, param in layer.params.items():
            np.testing.assert_array_equal(param, want[name])
        for param in make(None).params.values():
            np.testing.assert_array_equal(param, np.zeros(param.shape))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.ones((3, 4))
        rng = np.random.default_rng(7)
        np.testing.assert_array_equal(
            dropout_apply(x, DropoutSpec(0.0), train=True, rng=rng), x
        )

    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(8).normal(size=(3, 4))
        np.testing.assert_array_equal(
            dropout_apply(x, DropoutSpec(0.9), train=False), x
        )

    def test_keep_fraction_and_scaling(self):
        rng = np.random.default_rng(9)
        x = np.ones(100_000)
        out = dropout_apply(x, DropoutSpec(0.5), train=True, rng=rng)
        kept = out != 0
        assert abs(kept.mean() - 0.5) < 0.01
        np.testing.assert_array_equal(out[kept], 2.0)

    def test_seeded_reproducibility(self):
        x = np.ones((10, 10))
        a = dropout_apply(x, DropoutSpec(0.3), True, np.random.default_rng(11))
        b = dropout_apply(x, DropoutSpec(0.3), True, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(ShapeError):
            DropoutSpec(1.0)

    def test_train_mode_needs_an_rng(self):
        with pytest.raises(UsageError, match="needs an rng"):
            Dropout(DropoutSpec(0.5)).forward(np.ones((2, 3)), train=True)


class TestDense:
    def test_identity_weights(self):
        x = np.array([1.0, -2.0, 3.0])
        params = DenseParams(np.eye(3), np.zeros(3))
        np.testing.assert_allclose(fc_forward(x, params), x)

    def test_zero_weights_return_bias(self):
        params = DenseParams(np.zeros((3, 2)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(fc_forward(np.ones(3), params), [1.0, 2.0])

    def test_hand_product(self):
        params = DenseParams(np.array([[1.0], [1.0]]), np.array([0.5]))
        np.testing.assert_allclose(fc_forward(np.array([1.0, 2.0]), params), [3.5])

    def test_batch_rows_are_single_samples(self):
        rng = np.random.default_rng(24)
        params = DenseParams(rng.normal(size=(3, 2)), rng.normal(size=2))
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(fc_forward(x, params),
                                   [fc_forward(row, params) for row in x], rtol=1e-12)

    def test_shape_mismatch(self):
        params = DenseParams(np.eye(3), np.zeros(3))
        # the sample's own shape, not the batch of one it becomes
        with pytest.raises(ShapeError, match=re.escape("expected (3) input, got (4,)") + "$"):
            fc_forward(np.ones(4), params)

    def test_validate(self):
        with pytest.raises(ShapeError, match="inconsistent dense shapes"):
            DenseParams(np.eye(3), np.zeros(2)).validate()
        with pytest.raises(NumericError, match="non-finite"):
            DenseParams(np.eye(3), np.array([0.0, np.inf, 0.0])).validate()


class TestInputShapes:
    def test_expect_shape(self):
        expect_shape(np.zeros((4, 6, 9)), "B", 6, "T")
        for x in (np.zeros((4, 5, 9)), np.zeros((4, 6)), np.zeros((1, 4, 6, 9))):
            message = f"expected (B, 6, T) input, got {x.shape}"
            with pytest.raises(ShapeError, match=re.escape(message) + "$"):
                expect_shape(x, "B", 6, "T")

    @pytest.mark.parametrize("layer, x, message", [
        (Conv1d(ConvSpec(2, 1, 2)), np.zeros((1, 3, 5)),
         "expected (B, 2, T) input, got (1, 3, 5)"),
        (BiLSTM(2, 3), np.zeros((1, 4, 5)), "expected (B, 2, T) input, got (1, 4, 5)"),
        (Dense(3, 2), np.zeros((1, 4)), "expected (B, 3) input, got (1, 4)"),
    ], ids=["conv", "bilstm", "dense"])
    def test_layer_messages(self, layer, x, message):
        with pytest.raises(ShapeError, match=re.escape(message) + "$"):
            layer.forward(x)

    @pytest.mark.parametrize("call, dims", [
        (lambda x: conv1d_forward(x, np.ones((1, 2, 2)), 0.0), "(2, T)"),
        (lambda x: maxpool1d(x, 2), "(C, T)"),
        (lambda x: bilstm_forward(x, LstmParams.zeros(2, 3)), "(2, T)"),
    ], ids=["conv1d_forward", "maxpool1d", "bilstm_forward"])
    @pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((2, 3, 4))], ids=["0d", "3d"])
    def test_single_sample_names_the_shape_it_was_given(self, call, dims, x):
        message = f"expected {dims} input, got {x.shape}"
        with pytest.raises(ShapeError, match=re.escape(message) + "$"):
            call(x)


class TestAdam:
    @pytest.mark.parametrize("lr", [0.0, -0.001, np.nan, np.inf])
    def test_learning_rate_must_be_positive(self, lr):
        with pytest.raises(ShapeError, match="learning rate must be > 0"):
            Adam(lr=lr)

    def test_first_step_hand_value(self):
        params = {"p": np.zeros(1)}
        opt = Adam(lr=0.001)
        opt.step(params, {"p": np.ones(1)})
        # first bias-corrected step: -lr * g / (sqrt(g^2) + eps)
        assert abs(params["p"][0] + 0.001 * 1.0 / (1.0 + 1e-8)) < 1e-9

    def test_zero_gradient_is_fixed_point(self):
        params = {"p": np.array([1.0, -2.0])}
        opt = Adam()
        for _ in range(5):
            opt.step(params, {"p": np.zeros(2)})
        np.testing.assert_array_equal(params["p"], [1.0, -2.0])

    def test_identical_parameters_get_identical_updates(self):
        params = {"a": np.full(3, 0.7), "b": np.full(3, 0.7)}
        opt = Adam()
        for _ in range(3):
            opt.step(params, {"a": np.full(3, 0.2), "b": np.full(3, 0.2)})
        np.testing.assert_array_equal(params["a"], params["b"])

    def test_order_invariance(self):
        rng = np.random.default_rng(12)
        init = {k: rng.normal(size=4) for k in "abc"}
        grads = {k: rng.normal(size=4) for k in "abc"}
        p1 = {k: init[k].copy() for k in "abc"}
        p2 = {k: init[k].copy() for k in reversed("abc")}
        o1, o2 = Adam(), Adam()
        o1.step(p1, grads)
        o2.step(p2, grads)
        for k in "abc":
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Adam().step({"p": np.zeros(2)}, {"p": np.zeros(3)})


class TestLayerDeterminism:
    @pytest.mark.parametrize("make, in_shape, out_shape", [
        (lambda rng: Dense(5, 3, rng), (4, 5), (4, 3)),
        (lambda rng: Conv1d(ConvSpec(2, 3, 4), rng), (4, 2, 9), (4, 3, 6)),
        (lambda rng: BiLSTM(2, 3, rng), (4, 2, 6), (4, 6, 6)),
    ], ids=["dense", "conv", "bilstm"])
    def test_backward_sets_only_its_own_gradients(self, make, in_shape, out_shape):
        data = np.random.default_rng(22)
        x1, x2 = data.normal(size=in_shape), data.normal(size=in_shape)
        g1, g2 = data.normal(size=out_shape), data.normal(size=out_shape)
        twice, once = make(np.random.default_rng(23)), make(np.random.default_rng(23))
        for x, g in ((x1, g1), (x2, g2)):
            twice.forward(x)
            twice.backward(g)
        once.forward(x2)
        once.backward(g2)
        assert set(twice.grads) == set(twice.params)
        for name in twice.params:
            np.testing.assert_array_equal(twice.grads[name], once.grads[name])

    def test_seeded_init_reproducible(self):
        a = Conv1d(ConvSpec(2, 3, 4), np.random.default_rng(13))
        b = Conv1d(ConvSpec(2, 3, 4), np.random.default_rng(13))
        np.testing.assert_array_equal(a.params["w"], b.params["w"])

    def test_dropout_layer_reuses_mask_in_backward(self):
        layer = Dropout(DropoutSpec(0.5))
        x = np.ones((2, 8))
        out = layer.forward(x, train=True, rng=np.random.default_rng(14))
        gin = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(gin, out)  # x is all ones
