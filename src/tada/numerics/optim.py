"""Adam optimizer over a flat name-to-tensor parameter mapping, and the
minibatch loop every trainer runs on it."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import NumericalAbort
from .engine import Tensor


class Adam:
    """Adam with betas (0.9, 0.999) and eps 1e-8."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update of every parameter that has a gradient.

        The moments are updated in place; the weights are replaced, never
        written into, so an array a caller handed in is left as it was.
        """
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m, v = self.m[k], self.v[k]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def fit(
    name: str,
    params: dict[str, Tensor],
    loss_fn: Callable[[int, np.ndarray], tuple[Tensor, dict[str, float]]],
    n_items: int,
    steps: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    log_every: int = 0,
) -> None:
    """Train ``params`` with Adam for ``steps`` minibatch steps.

    Each step draws ``min(batch_size, n_items)`` item indices from ``rng``
    and calls ``loss_fn(step, idx)``, which returns the loss and its report
    as a dict of floats. A non-finite loss raises :class:`NumericalAbort`
    naming ``name`` and the step, before any weight changes; otherwise the
    loss is backpropagated and Adam steps. With ``log_every`` > 0 the report
    is printed every ``log_every`` steps.
    """
    opt = Adam(params, lr=lr)
    for step in range(steps):
        idx = rng.integers(0, n_items, size=min(batch_size, n_items))
        opt.zero_grad()
        loss, report = loss_fn(step, idx)
        if not np.isfinite(loss.data):
            raise NumericalAbort(f"{name}: diverged at step {step}: {report}")
        loss.backward()
        opt.step()
        if log_every and step % log_every == 0:
            print(f"{name} step {step}: {report}")
