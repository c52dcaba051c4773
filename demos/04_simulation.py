#!/usr/bin/env python3
"""Monte-Carlo cross-validation of the eigenvalue machinery.

Paths of the strategy-averaged jump chain are sampled with per-path
counter-based streams (Philox keyed by seed and path index), so results
are reproducible to the bit: the estimators advance blocks of paths in
lockstep, and every path reads its own stream exactly as the one-path
sampler does.  The growth-rate estimator exponentiates path costs and
therefore lives in log space; its batch standard error quantifies the
comparison against the eigensolver.
"""

import numpy as np

from rsgame import (
    assemble,
    estimate_risk_cost,
    hitting_representation_check,
    principal_eigenpair,
    sample_path,
    shop_model,
    truncate,
    uniform_strategy,
)

model = shop_model()
v1 = uniform_strategy(model, 1)
v2 = uniform_strategy(model, 2)

print("-- a single path --")
path = sample_path(model, v1, v2, start=1, horizon=30.0, stream=(2024, 0))
print(f"{path.n_jumps} jumps in 30 time units; visited states "
      f"{sorted(set(path.states.tolist()))}")
print(f"cost integrals: player 1 = {path.cost1:.4f}, player 2 = {path.cost2:.4f}")

print("\n-- growth-rate estimate vs eigenvalue --")
trunc = truncate(model, 40)
ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), model.anchor)
est = estimate_risk_cost(model, v1, v2, player=1, start=1, horizon=150.0,
                         paths=20_000, batches=20, seed=2024)
z = abs(est.rho_hat - ep.rho) / est.se
print(f"eigenvalue:   rho   = {ep.rho:.6f}   (40-state truncation)")
print(f"Monte Carlo:  rho^  = {est.rho_hat:.6f}  +- {est.se:.1e}  "
      f"({est.n_paths} paths)")
print(f"|difference| = {abs(est.rho_hat - ep.rho):.2e}  ({z:.2f} standard errors)")
print("(the estimate also carries a finite-horizon bias of order 1/T, so "
      "a small systematic offset at moderate horizons is expected)")

print("\n-- hitting-time representation of the eigenfunction --")
# with paths killed at the truncation boundary, the expected value of
# exp(integral of (cost - rho)) * psi at the hitting state equals psi at
# the start, exactly, for the truncated eigenpair
report = hitting_representation_check(
    model, v1, v2, player=1, psi=ep.psi_map(), rho=ep.rho,
    target_set={1, 2, 3, 4, 5}, starts=[6, 8, 10, 12], n_paths=3000,
    seed=7, batches=20, kill_outside=40)
print("start   psi(start)   estimate     rel.dev    z")
for row in report.rows:
    print(f"{row.start:>5}   {row.psi_ref:.6f}   {row.estimate:.6f}   "
          f"{row.rel_deviation:.2e}   {row.z_score:.2f}")

print("\n-- reproducibility --")
again = estimate_risk_cost(model, v1, v2, player=1, start=1, horizon=150.0,
                           paths=20_000, batches=20, seed=2024)
print(f"same seed, second run: identical = "
      f"{est.rho_hat == again.rho_hat and np.array_equal(est.log_weights, again.log_weights)}")
first = [sample_path(model, v1, v2, 1, 150.0, stream=(2024, p)).cost1
         for p in range(5)]
print(f"first 5 cost integrals equal sample_path's on the same streams: "
      f"{first == est.log_weights[:5].tolist()}")
