#!/usr/bin/env python3
"""Tour of the minimal reverse-mode tensor engine.

Builds a small computation, walks the tape backward, and verifies the
analytic gradients against central finite differences.
"""

import numpy as np

from tada import numerics as nx
from tada.numerics import finite_difference_check

rng = np.random.default_rng(0)

# A two-layer net: x -> gelu(x W1) W2 -> mean of squares
W1 = nx.tensor(rng.standard_normal((4, 8)) * 0.5)
W2 = nx.tensor(rng.standard_normal((8, 2)) * 0.5)
x = nx.tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

h = nx.gelu(nx.matmul(x, W1))
loss = nx.mean_(nx.square(nx.matmul(h, W2)))
tape = loss.backward()

print(f"loss = {loss.item():.6f}")
print(f"tape has {len(tape.nodes)} nodes, backward visited {tape.visits}")
print(f"dL/dx row 0: {np.round(x.grad[0], 4)}")

# The same gradient, measured numerically
err = finite_difference_check(
    lambda t: nx.mean_(nx.square(nx.matmul(nx.gelu(nx.matmul(t, W1)), W2))),
    x.data,
)
print(f"max relative error vs central differences: {err:.2e}")

# Masked attention removes keys from the normalization set entirely. One
# head and one query over three keys that score 5, 100 and 1; with the
# identity as values, the output row is the attention weights.
q = nx.tensor([[[np.sqrt(3.0), 0.0, 0.0]]])  # (heads, queries, head width)
k = nx.tensor([[[5.0, 0.0, 0.0], [100.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
v = nx.tensor(np.eye(3)[None])
mask = np.array([[True, False, True]])
print(f"\nattention weights over scores [5, 100, 1] excluding key 2: "
      f"{np.round(nx.attention_heads(q, k, v, mask).data[0], 4)}")
print("the excluded 100 got exactly zero weight, not almost-zero")
