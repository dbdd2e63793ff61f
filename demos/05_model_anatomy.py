"""The classifier, layer by layer.

The stack: per-channel affine standardization, temporal convolutions
with relu, a bidirectional LSTM, multi-head scaled-dot attention over
the sequence, a time average, and a dense softmax head.  Everything
runs on the toolkit's own autodiff tensors.
"""

import numpy as np

from stormstack.model import (
    ModelConfig, forward, init_params, lstm_cell, predict_class,
    scaled_dot_attention, standardize_inputs,
)
from stormstack.features import SequenceSet
from stormstack.tensor import Tensor

config = ModelConfig(steps=8, input_channels=5, conv_layers=((12, 3), (8, 3)),
                     lstm_hidden=6, attention_heads=3, attention_dim=4, seed=2)
print("sequence length through the conv stack:", config.conv_steps())
print("recurrent width 2*6 = 12; 3 heads x dim 4 tile it exactly")
print()

params = init_params(config)
print(f"{len(params)} parameter tensors:")
for name, p in params.items():
    print(f"  {name:<16s} {p.shape}")
total = sum(p.array.size for p in params.values())
print(f"total parameters: {total}")

print()
print("== a forward pass ==")
rng = np.random.default_rng(6)
samples = rng.standard_normal((1, 8, 5))  # forward scores a stack of samples
probs = forward(samples, params, config)
print("class probabilities:", np.round(probs[0], 4), " sum:", float(np.sum(probs[0])))
print("predicted class:", int(predict_class(probs)[0]))

print()
print("== attention in two sentences ==")
# identical keys spread attention uniformly: every output row is the
# mean of the value rows
k = Tensor(np.tile(np.array([[1.0, 2.0]]), (4, 1)))
v = Tensor(np.arange(8.0).reshape(4, 2))
out = scaled_dot_attention(Tensor(rng.standard_normal((4, 2))), k, v).array
print("identical keys -> rows equal the value mean:", out[0], "==", v.array.mean(axis=0))
# a single-step sequence has nothing to mix, so attention is a no-op
single = scaled_dot_attention(Tensor([[3.0, 1.0]]), Tensor([[2.0, 2.0]]),
                              Tensor([[7.0, -1.0]])).array
print("T=1 passes the value row through:", single[0])

print()
print("== the LSTM cell at its fixed point ==")
gates = {f"{kind}{g}": Tensor(np.zeros((2, 1)) if kind == "w" else np.zeros(1))
         for kind in ("w", "b") for g in "fico"}
h, c = lstm_cell(Tensor([[9.0]]), Tensor([[0.0]]), Tensor([[2.0]]), gates)
print("zero weights pin every gate at sigmoid(0) = 1/2:")
print(f"  c = 0.5 * 2.0 = {c.array[0, 0]}, h = 0.5 * tanh(1) = {h.array[0, 0]:.6f}")

print()
print("== standardization is part of the model ==")
train = SequenceSet([f"s{i}" for i in range(12)], [i % 3 for i in range(12)],
                    rng.standard_normal((12, 8, 5)) * 40.0 + 200.0)
fitted = standardize_inputs(config, train)
print("input_shift head:", tuple(round(v, 1) for v in fitted.input_shift[:3]))
print("input_scale head:", tuple(round(v, 1) for v in fitted.input_scale[:3]))
print("the affine rides inside the checkpoint, so inference needs no"
      " separate scaler file")
