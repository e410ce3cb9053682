#!/usr/bin/env python3
"""Wall-clock cost of flow sampling as the Euler step count grows.

The per-token latency has a fixed LLM part and a flow part that scales
with the number of solver steps; the oracle error of the integrator drops
first-order at the same time.
"""

import time

import numpy as np

from tada.flowhead import FlowConfig, VectorFieldModel, euler_integrate, euler_sample, gaussian_target_field

rng = np.random.default_rng(0)
cfg = FlowConfig()
model = VectorFieldModel(cfg, rng=rng)
rows = model.cond_rows(rng.standard_normal((8, cfg.d_cond)))
field = lambda y, t: model.field_np(y, t, rows)

print("Euler sampling wall time per step count (8 samples each):")
for n in (2, 4, 10, 20):
    t0 = time.perf_counter()
    for rep in range(20):
        euler_sample(field, cfg, n, 1.0, seed=rep, n_samples=8)  # unguided: one 8-row field call per step
    dt = (time.perf_counter() - t0) / 20
    print(f"  N_FM={n:>2}: {dt * 1e3:7.2f} ms")

print("\nintegrator error on the analytic Gaussian-target oracle:")
mu = rng.standard_normal(cfg.d_target) * 1.5
oracle_field, terminal = gaussian_target_field(mu, spread=0.3, sigma_min=cfg.sigma_min)
y0 = rng.standard_normal((64, cfg.d_target))
ref = terminal(y0)
prev = None
for n in (5, 10, 20, 40):
    err = float(np.linalg.norm(euler_integrate(oracle_field, y0, n) - ref, axis=1).mean())
    ratio = "" if prev is None else f"  (ratio {err / prev:.2f})"
    print(f"  N={n:>2}: terminal L2 error {err:.4f}{ratio}")
    prev = err
