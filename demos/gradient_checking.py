"""Verify analytic backward passes against finite differences.

Every layer carries a hand-derived backward pass.  This script perturbs
each parameter entry by a small h and compares the resulting loss slope
to the analytic gradient.  Relative errors around 1e-8 .. 1e-6 are what
you expect from float64 central differences; anything near 1e-4 would
point at a broken derivation.
"""

import numpy as np

from inertiabench.kernels import BiLSTM, Conv1d, ConvSpec, Dense
from inertiabench.losses import LossSpec, compute_loss


def numerical_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def check(name, layer, x, target, loss):
    out = layer.forward(x)
    _, gout = compute_loss(loss, target, out)
    layer.backward(gout)

    def loss_value():
        return compute_loss(loss, target, layer.forward(x))[0]

    worst = 0.0
    for pname, param in layer.params.items():
        num = numerical_grad(loss_value, param)
        scale = max(np.abs(layer.grads[pname]).max(), np.abs(num).max(), 1.0)
        worst = max(worst, np.abs(layer.grads[pname] - num).max() / scale)
    print(f"  {name:24s} worst relative error {worst:.3e}")


def main():
    rng = np.random.default_rng(0)
    for kind in ("mse", "mae", "huber", "logcosh"):
        loss = LossSpec(kind)
        print(f"loss = {kind}")
        check("dense 4 -> 2", Dense(4, 2, rng), rng.normal(size=(3, 4)),
              rng.normal(size=(3, 2)), loss)
        check("conv1d 2ch k=3 s=2", Conv1d(ConvSpec(2, 3, 3, stride=2), rng),
              rng.normal(size=(2, 2, 7)), rng.normal(size=(2, 3, 3)), loss)
        check("bilstm 2 -> 2x3", BiLSTM(2, 3, rng), rng.normal(size=(1, 2, 4)),
              rng.normal(size=(1, 6, 4)), loss)


if __name__ == "__main__":
    main()
