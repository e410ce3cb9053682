"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .engine import Tensor


def finite_difference_check(
    fn: Callable[[Tensor], Tensor],
    point: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients
    of a scalar ``fn`` at ``point``: :func:`finite_difference_check_params`
    on one float64 leaf tensor that holds ``point``."""
    x = Tensor(np.array(point, dtype=np.float64), requires_grad=True)
    return finite_difference_check_params(lambda: fn(x), [x], eps)


def finite_difference_check_params(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    sample: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients
    of the scalar ``fn`` with respect to ``params``, which it perturbs in
    place; ``fn`` closes over them and rebuilds the loss. ``fn`` must be
    smooth there. The error per coordinate is
    |analytic - numeric| / (|numeric| + 1e-8).

    ``sample`` limits the check to that many randomly chosen coordinates per
    parameter (all coordinates when None), keeping large models tractable.
    """
    rng = np.random.default_rng(seed)
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()

    errors = [0.0]
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad)
        flat = p.data.reshape(-1)
        if sample is not None and sample < flat.size:
            coords = rng.choice(flat.size, size=sample, replace=False)
        else:
            coords = range(flat.size)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn().item()
            flat[i] = orig - eps
            lo = fn().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            errors.append(abs(analytic.reshape(-1)[i] - numeric) / (abs(numeric) + 1e-8))
    return float(np.max(errors))  # a NaN error stays NaN, so the check fails
