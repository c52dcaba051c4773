#!/usr/bin/env python3
"""Finding and certifying equilibria by best-response iteration.

Each round solves both players' frozen-opponent eigenproblems and
re-certifies the pair; the result is a certificate whose status reports
honestly whether the gaps dropped below epsilon, a strategy pair
repeated (a cycle), or the round budget ran out.  A certified pair is
then put through the converse check: state by state, each strategy must
attain the minimum of its own frozen-opponent objective.
"""

from rsgame import (
    certify,
    converse_report,
    find_nash,
    nash_iterate,
    shop_model,
    truncate,
)

model = shop_model()
trunc = truncate(model, 25)

print("-- best-response iteration on the shop, 25 states --")
cert = nash_iterate(model, trunc, eps=1e-8)
print(f"status: {cert.status} after {cert.rounds} round(s)")
print(f"values: rho_1 = {cert.rho1:.9f}, rho_2 = {cert.rho2:.9f}")
print(f"deviation gaps: ({cert.delta1:.2e}, {cert.delta2:.2e})")
print("player 1 actions at states 1..8:",
      [int(cert.v1.weights(i).argmax()) for i in range(1, 9)])
print("player 2 actions at states 1..8:",
      [int(cert.v2.weights(i).argmax()) for i in range(1, 9)])

print("\n-- certify the final pair on its own --")
# the same four eigensolves the last round made, so the same numbers
res = certify(model, trunc, cert.v1, cert.v2, eps=1e-8)
print(f"gaps from a fresh certify call: ({res.delta1:.2e}, {res.delta2:.2e}) "
      f"-> {'pass' if res.passed else 'fail'}")

print("\n-- converse (selector) check on the certificate's eigenpairs --")
report = converse_report(model, trunc, cert.v1, cert.v2,
                         (cert.eigen1, cert.eigen2), tol=1e-9)
for p in report.players:
    print(f"player {p.player}: worst per-state defect {p.worst_defect:.2e} "
          f"at state {p.worst_state} (threshold {p.threshold:.2e}) -> "
          f"{'pass' if p.passed else 'fail'}")

print("\n-- the driver also handles games that refuse to converge --")
# an equilibrium in pure strategies need not exist on a grid; find_nash
# tries plain iteration, then damped restarts, then (on tiny games) an
# exhaustive sweep, and never fabricates convergence
cert2 = find_nash(model, trunc, eps=1e-8)
print(f"find_nash on the shop: status={cert2.status}, "
      f"gap={max(cert2.delta1, cert2.delta2):.2e}")
