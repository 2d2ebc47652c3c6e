"""GEMM-form Conv1d and BiLSTM against straightforward reference kernels.

The references are the earlier implementations: an ``einsum`` convolution
over a sliding-window view and a per-step bidirectional LSTM with a masked
two-branch sigmoid.  Outputs, parameter gradients and input gradients must
agree to 1e-10 absolute, which leaves float64 summation-order differences
(about 1e-13 at the stock shapes) three orders of magnitude of room.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from inertiabench.errors import UsageError
from inertiabench.kernels import BiLSTM, Conv1d, ConvSpec

from test_kernels import channel_major

ATOL = 1e-10


# ---------------------------------------------------------------------------
# reference kernels


def ref_conv(w, b, x, stride, gout):
    """(out, grads, gx) of a valid-padding convolution via einsum."""
    k = w.shape[2]
    xs = sliding_window_view(x, k, axis=2)[:, :, ::stride, :]
    out = np.einsum("fci,bcti->bft", w, xs) + b[None, :, None]
    t_out = out.shape[2]
    gw = np.einsum("bft,bcti->fci", gout, xs)
    gx = np.zeros(x.shape)
    for i in range(k):
        gx[:, :, i : i + t_out * stride : stride] += np.einsum("bft,fc->bct", gout, w[:, :, i])
    return out, {"w": gw, "b": gout.sum(axis=(0, 2))}, gx


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_forward(p, d, x):
    """One LSTM direction step by step; returns (hs (T, B, H), per-step cache)."""
    wx, wh, bias = p[f"{d}_wx"], p[f"{d}_wh"], p[f"{d}_b"]
    b, _, t = x.shape
    h = wh.shape[1]
    order = range(t) if d == "fwd" else range(t - 1, -1, -1)
    hs = np.zeros((t, b, h))
    h_prev, c_prev = np.zeros((b, h)), np.zeros((b, h))
    cache = []
    for step in order:
        z = x[:, :, step] @ wx.T + h_prev @ wh.T + bias
        gi, gf, go = (ref_sigmoid(z[:, j * h : (j + 1) * h]) for j in (0, 1, 3))
        gg = np.tanh(z[:, 2 * h : 3 * h])
        c = gf * c_prev + gi * gg
        tc = np.tanh(c)
        ht = go * tc
        hs[step] = ht
        cache.append((step, h_prev, c_prev, gi, gf, gg, go, tc))
        h_prev, c_prev = ht, c
    return hs, cache


def _ref_backward(p, d, x, ghs, cache):
    """Gradients of one direction from its cache; returns (grads, gx)."""
    wx, wh = p[f"{d}_wx"], p[f"{d}_wh"]
    grads = {f"{d}_wx": np.zeros_like(wx), f"{d}_wh": np.zeros_like(wh),
             f"{d}_b": np.zeros(wx.shape[0])}
    gx = np.zeros(x.shape)
    dh_next = dc_next = 0.0
    for step, h_prev, c_prev, gi, gf, gg, go, tc in reversed(cache):
        dh = ghs[step] + dh_next
        dc = dc_next + dh * go * (1.0 - tc * tc)
        dz = np.concatenate([dc * gg * gi * (1.0 - gi), dc * c_prev * gf * (1.0 - gf),
                             dc * gi * (1.0 - gg * gg), dh * tc * go * (1.0 - go)], axis=1)
        grads[f"{d}_wx"] += dz.T @ x[:, :, step]
        grads[f"{d}_wh"] += dz.T @ h_prev
        grads[f"{d}_b"] += dz.sum(axis=0)
        gx[:, :, step] = dz @ wx
        dh_next, dc_next = dz @ wh, dc * gf
    return grads, gx


def ref_bilstm(p, x, gout):
    """(out, grads, gx): both directions forward, then both backward."""
    h = p["fwd_wh"].shape[1]
    hs_f, cache_f = _ref_forward(p, "fwd", x)
    hs_b, cache_b = _ref_forward(p, "bwd", x)
    out = np.concatenate([hs_f.transpose(1, 2, 0), hs_b.transpose(1, 2, 0)], axis=1)
    grads, gx = _ref_backward(p, "fwd", x, gout[:, :h, :].transpose(2, 0, 1), cache_f)
    grads_b, gx_b = _ref_backward(p, "bwd", x, gout[:, h:, :].transpose(2, 0, 1), cache_b)
    return out, {**grads, **grads_b}, gx + gx_b


def lstm_views(w, inputs):
    """The six per-direction arrays of a packed BiLSTM ``w`` or its gradient, as views."""
    cols = {"b": 0, "wx": slice(1, 1 + inputs), "wh": slice(1 + inputs, None)}
    return {f"{d}_{name}": w[k][:, c] for k, d in enumerate(("fwd", "bwd"))
            for name, c in cols.items()}


def traced_peak(fn, *args):
    """Peak bytes that numpy allocates while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_layer(layer, x, gout):
    out = layer.forward(x)
    gx = layer.backward(gout)
    return out, layer.grads, gx


def assert_matches(got, want):
    out, grads, gx = got
    ref_out, ref_grads, ref_gx = want
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=ATOL)
    np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=ATOL)
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=ATOL,
                                   err_msg=name)


# ---------------------------------------------------------------------------
# conv


@pytest.mark.parametrize("batch,channels,steps,filters,kernel,stride", [
    (64, 6, 120, 64, 5, 1),   # stock single head
    (64, 3, 120, 64, 5, 1),   # head2 branch
    (64, 2, 120, 64, 5, 1),   # head3 branch
    (8, 6, 200, 8, 5, 1),     # more input taps than filters: chunked im2col
    (5, 3, 17, 4, 3, 2),      # stride 2
    (5, 2, 23, 6, 4, 3),      # stride 3, partial last stride
    (4, 6, 9, 5, 1, 1),       # kernel 1
    (3, 2, 11, 4, 1, 2),      # kernel 1, stride 2
    (4, 3, 7, 5, 7, 1),       # kernel == T: a single output step
    (3, 2, 1, 4, 1, 1),       # T = 1
])
def test_conv_matches_reference(batch, channels, steps, filters, kernel, stride):
    rng = np.random.default_rng(batch * 1000 + steps)
    layer = Conv1d(ConvSpec(channels, filters, kernel, stride), rng)
    layer.params["b"] = rng.normal(size=filters)
    x = rng.normal(size=(batch, channels, steps))
    gout = rng.normal(size=(batch, filters, (steps - kernel) // stride + 1))
    want = ref_conv(layer.params["w"], layer.params["b"], x, stride, gout)
    assert_matches(run_layer(layer, x, gout), want)


# ---------------------------------------------------------------------------
# BiLSTM


@pytest.mark.parametrize("batch,inputs,steps,hidden", [
    (64, 64, 38, 128),   # stock shape: 64 filters, window 120 pooled by 3
    (6, 5, 7, 3),
    (4, 3, 1, 5),        # T = 1
    (1, 2, 2, 4),
])
def test_bilstm_matches_reference(batch, inputs, steps, hidden):
    rng = np.random.default_rng(batch * 100 + steps)
    layer = BiLSTM(inputs, hidden, rng)
    layer.params["w"][:, :, 0] = rng.normal(size=(2, 4 * hidden))
    # large inputs drive some gates into saturation (tanh -> +-1)
    x = rng.normal(scale=3.0, size=(batch, inputs, steps))
    gout = rng.normal(size=(batch, 2 * hidden, steps))
    want = ref_bilstm(lstm_views(layer.params["w"], inputs), x, gout)
    out, grads, gx = run_layer(layer, x, gout)
    assert_matches((out, lstm_views(grads["w"], inputs), gx), want)


def test_bilstm_backward_uses_latest_forward():
    rng = np.random.default_rng(7)
    layer = BiLSTM(3, 4, rng)
    x1, x2 = rng.normal(size=(2, 5, 3, 6))
    gout = rng.normal(size=(5, 8, 6))
    layer.forward(x1)
    stale = run_layer(layer, x2, gout)
    fresh = BiLSTM(3, 4)
    fresh.params = {k: v.copy() for k, v in layer.params.items()}
    assert_matches(stale, run_layer(fresh, x2, gout))


def test_conv_backward_uses_latest_forward():
    rng = np.random.default_rng(8)
    layer = Conv1d(ConvSpec(2, 3, 3, 2), rng)
    x1, x2 = rng.normal(size=(2, 4, 2, 9))
    gout = rng.normal(size=(4, 3, 4))
    layer.forward(x1)
    stale = run_layer(layer, x2, gout)
    assert_matches(stale, ref_conv(layer.params["w"], layer.params["b"], x2, 2, gout))


def test_bilstm_backward_consumes_its_cache():
    # backward overwrites the cached gates with their gradients, so a second
    # backward without a new forward must fail loudly, not return garbage
    rng = np.random.default_rng(9)
    layer = BiLSTM(2, 3, rng)
    layer.forward(rng.normal(size=(2, 2, 4)))
    layer.backward(np.ones((2, 6, 4)))
    with pytest.raises(UsageError):
        layer.backward(np.ones((2, 6, 4)))


@pytest.mark.parametrize("filters,kernel", [(8, 5), (64, 5), (2, 7)])
def test_conv_forward_buffer_never_outgrows_output(filters, kernel):
    # the im2col buffer is built in chunks of output steps no larger than the
    # output, so a forward pass needs at most about twice the output's memory
    rng = np.random.default_rng(10)
    layer = Conv1d(ConvSpec(6, filters, kernel), rng)
    x = rng.normal(size=(64, 6, 200))
    out_bytes = 64 * filters * (200 - kernel + 1) * 8
    assert traced_peak(layer.forward, x) <= 2 * out_bytes + 64 * 1024


@pytest.mark.parametrize("filters,kernel", [(8, 5), (64, 5), (2, 7)])
def test_conv_weight_gradient_buffer_never_outgrows_output(filters, kernel):
    # the model's backward: a C-contiguous gradient is copied channel-major
    # once, and each chunk's columns are no larger than the output
    rng = np.random.default_rng(12)
    layer = Conv1d(ConvSpec(6, filters, kernel), rng)
    layer.forward(rng.normal(size=(64, 6, 200)))
    gout = rng.normal(size=(64, filters, 200 - kernel + 1))
    assert traced_peak(lambda: layer.backward(gout, input_grad=False)) <= 2 * gout.nbytes + 64 * 1024


@pytest.mark.parametrize("channels,filters,kernel,stride", [
    (3, 4, 3, 1),
    (3, 4, 3, 2),
    (6, 2, 5, 1),   # more input taps than filters: several column chunks
])
def test_conv_backward_without_input_gradient(channels, filters, kernel, stride):
    rng = np.random.default_rng(13)
    layer = Conv1d(ConvSpec(channels, filters, kernel, stride), rng)
    x = rng.normal(size=(5, channels, 40))
    gout = rng.normal(size=(5, filters, (40 - kernel) // stride + 1))
    _, full, _ = run_layer(layer, x, gout)
    full = dict(full)
    assert layer.backward(gout, input_grad=False) is None
    assert sorted(layer.grads) == sorted(full)
    for name, g in full.items():
        assert np.array_equal(layer.grads[name], g), name


@pytest.mark.parametrize("channels,filters,kernel,stride", [
    (6, 64, 5, 1),
    (2, 3, 4, 3),
    (6, 2, 5, 1),
])
def test_conv_gives_the_same_bits_in_any_layout(channels, filters, kernel, stride):
    rng = np.random.default_rng(14)
    layer = Conv1d(ConvSpec(channels, filters, kernel, stride), rng)
    layer.params["b"] = rng.normal(size=filters)
    x = rng.normal(size=(4, channels, 30))
    gout = rng.normal(size=(4, filters, (30 - kernel) // stride + 1))
    out, grads, gx = run_layer(layer, x, gout)
    grads = dict(grads)
    for xl in (x, channel_major(x)):
        for gl in (gout, channel_major(gout)):
            got = run_layer(layer, xl, gl)
            assert np.array_equal(got[0], out) and np.array_equal(got[2], gx)
            for name, g in grads.items():
                assert np.array_equal(got[1][name], g), name


@pytest.mark.parametrize("inputs,steps", [(64, 38), (192, 19)])  # stock; head3 at window 480
def test_bilstm_step_needs_no_more_memory_than_reference(inputs, steps):
    rng = np.random.default_rng(11)
    layer = BiLSTM(inputs, 128, rng)
    x = rng.normal(size=(64, inputs, steps))
    gout = rng.normal(size=(64, 256, steps))
    ref = traced_peak(ref_bilstm, lstm_views(layer.params["w"], inputs), x, gout)
    assert traced_peak(run_layer, layer, x, gout) <= ref
