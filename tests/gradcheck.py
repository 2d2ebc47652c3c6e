"""Central finite-difference gradient checking used across the test suite."""

import numpy as np

from inertiabench.losses import compute_loss


def numerical_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def max_rel_error(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1.0)
    return np.max(np.abs(analytic - numeric)) / scale


def check_layer_grads(make_layer, x, loss_spec, target, h=1e-5):
    """Compare analytic parameter and input gradients to finite differences.

    ``make_layer`` builds a fresh layer; parameters are shared by reference
    so finite-difference perturbations see the same buffers.  Returns the
    worst relative error over all parameters and the input.
    """
    layer = make_layer()

    def loss_of(_=None):
        out = layer.forward(x)
        return compute_loss(loss_spec, target, out)[0]

    out = layer.forward(x)
    _, gout = compute_loss(loss_spec, target, out)
    gin = layer.backward(gout)

    worst = 0.0
    for name, param in layer.params.items():
        num = numerical_grad(lambda _: loss_of(), param, h=h)
        worst = max(worst, max_rel_error(layer.grads[name], num))
    num_in = numerical_grad(lambda xv: loss_of(), x, h=h)
    worst = max(worst, max_rel_error(gin, num_in))
    return worst
