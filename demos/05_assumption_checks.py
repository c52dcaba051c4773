#!/usr/bin/env python3
"""Machine-checking the stability conditions.

The solver's guarantees rest on drift inequalities (a growth bound and a
killed bound with a norm-like rate), irreducibility under every strategy
pair, and a dense anchor row.  These are quantified inequalities over
states and actions, so they can be checked numerically on a range, with
witnesses when they fail.  The shop model additionally ships a complete
chain of closed-form displays with explicit constants.
"""

from rsgame import (
    ShopParams,
    check_anchor_row,
    check_growth_drift,
    check_irreducibility,
    check_killed_drift,
    shop_condition_report,
    shop_lyapunov_spec,
    shop_model,
    truncate,
)
from rsgame.model import shop_boundary_cut, shop_drift_margin

params = ShopParams()
model = shop_model(params)
spec = shop_lyapunov_spec(params)
states = range(1, 101)

print("-- generic drift checks with the exponential weight --")
growth = check_growth_drift(model, spec, states)
print(f"growth drift:  {growth.status} on {growth.checked_range} "
      f"(max defect {growth.max_defect:.2e})")
killed = check_killed_drift(model, spec, "unbounded", states)
print(f"killed drift:  {killed.status} on {killed.checked_range}")

print("\n-- irreducibility and the anchor row --")
trunc = truncate(model, 30)
irr = check_irreducibility(model, trunc)  # all-pure intersection mode
print(f"irreducible on 30 states under every pure pair: {irr.irreducible}")
anchor = check_anchor_row(model, 1, range(2, shop_boundary_cut(params) + 1))
print(f"anchor row positive toward 2..{shop_boundary_cut(params)}: "
      f"{anchor.holds}")

print("\n-- the shop condition displays on 1..100 --")
report = shop_condition_report(params, states)
print(report.summary())

print("\n-- a deliberately broken parameter set --")
bad = ShopParams(fee1=shop_drift_margin(params) + 0.1)
broken = shop_condition_report(bad, range(1, 40))
failing = [d for d in broken.displays if not d.passed]
for d in failing:
    print(f"FAIL {d.key}: {d.worst}")
print("(the constructor would reject these parameters; the report "
      "evaluates them anyway so the failure has a concrete witness)")
