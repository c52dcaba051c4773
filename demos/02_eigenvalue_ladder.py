#!/usr/bin/env python3
"""Principal eigenvalues: fixed strategies, best responses, truncations.

The long-run growth rate of E[exp(integral of cost)] under a strategy
pair is the principal eigenvalue of Q + diag(c) on a truncation.  The
minimizing player's optimal value solves the nonlinear variant with a
per-state minimum inside.  The linear eigenpair comes from power steps
followed by Noda's shift-invert steps, the best response from policy
iteration on that kernel; both stop on a Collatz-Wielandt bracket.  A
ladder of nested truncations shows the eigenvalues stabilizing as the
boundary recedes.
"""

from rsgame import (
    assemble,
    best_response_eigenpair,
    principal_eigenpair,
    shop_model,
    truncate,
    truncation_ladder,
    uniform_strategy,
)

model = shop_model()
v1 = uniform_strategy(model, 1)
v2 = uniform_strategy(model, 2)

print("-- fixed uniform pair on 30 states --")
trunc = truncate(model, 30)
A = assemble(model, trunc, v1, v2, player=1)
ep = principal_eigenpair(A, i0=model.anchor)
print(f"rho = {ep.rho:.10f}  (bracket width {ep.bracket[1] - ep.bracket[0]:.1e}, "
      f"{ep.iterations} power steps and solves, residual {ep.residual:.1e})")
print("eigenfunction at states 1..6:",
      [round(ep.psi_at(i), 5) for i in range(1, 7)])

print("\n-- player 1 best response against uniform --")
br, selector = best_response_eigenpair(model, trunc, v2, player=1)
print(f"optimal rho = {br.rho:.10f}  (vs {ep.rho:.10f} at uniform)")
print("chosen actions at states 1..6:",
      [int(selector.weights(i).argmax()) for i in range(1, 7)])

print("\n-- truncation ladder, fixed pair --")
ladder = truncation_ladder(model, v2, player=1, n_list=[10, 20, 40, 80],
                           own_strategy=v1)
for rung in ladder.rungs:
    print(f"n={rung.n:>3}  rho = {rung.rho:.12f}")
print(f"monotone: {ladder.monotone}; increments: "
      f"{['%.2e' % d for d in ladder.increments]}")
print(f"extrapolated limit: {ladder.limit_estimate:.12f}")

print("\n-- same ladder, best-response mode --")
ladder_br = truncation_ladder(model, v2, player=1, n_list=[10, 20, 40])
for rung in ladder_br.rungs:
    print(f"n={rung.n:>3}  rho = {rung.rho:.12f}")
print("(monotonicity is only guaranteed in fixed-strategy mode; "
      f"here it is merely recorded: {ladder_br.monotone})")
