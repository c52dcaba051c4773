#!/usr/bin/env python3
"""Tour of the built-in shop inventory model.

The state counts items in stock.  Selling moves the stock down at rate
sell_rate * i, buying moves it up at rate buy_rate * i, and each player's
action nudges those rates on a small set of coupled states.  Costs grow
linearly in the stock, so both rates and costs are unbounded: exactly the
regime the truncation machinery is built for.
"""

from rsgame import ShopParams, pair_table, shop_model, truncate, validate_model
from rsgame.model import shop_boundary_cut, shop_drift_margin

params = ShopParams()
model = shop_model(params)
print("model:", model)
print(f"drift margin (must exceed both fees): {shop_drift_margin(params):.6f}")
print(f"fees: {params.fee1}, {params.fee2}")

print("\n-- rows --")
for i in (1, 3, 5):
    row = model.row(i, 0, 0)
    entries = {int(j): round(float(r), 6) for j, r in zip(row.cols, row.rates)}
    print(f"state {i:>2}: off-diagonal {entries if i > 1 else f'{len(entries)} targets (dense boundary row)'}"
          f", diagonal {row.diag:.6f}")

cut = shop_boundary_cut(params)
print(f"\nboundary row reaches states 2..{cut} with geometrically decaying "
      f"rates (tail below {params.boundary_tail_tol:g} dropped)")

print("\n-- action coupling --")
i = 3  # on the coupled set: actions perturb the rates
for ia, u1 in enumerate(model.action_values(1, i)):
    row = model.row(i, ia, 0)
    up = dict(zip(row.cols.tolist(), row.rates.tolist()))[i + 1]
    print(f"player 1 action u={u1:.1f}: buying rate at state {i} = {up:.6f}")

print("\n-- costs --")
for i in (1, 4, 8):
    c1, c2 = model.costs(i, 0, 0)
    print(f"state {i}: cost rates ({c1:.4f}, {c2:.4f})")

print("\n-- validation --")
report = validate_model(model, states=range(1, 51))
print(report.summary())

print("\n-- truncation --")
trunc = truncate(model, 5)
table = pair_table(model, [5])                # every action pair's row at state 5
pure = ((table.a1 == 0) & (table.a2 == 0)).astype(float)
inside, diag, _ = table.contract(pure, table.state, 1, n=trunc.n)
full, _, _ = table.contract(pure, table.state, 1)
print(f"states {trunc.states}; at the boundary state 5 under actions (0,0) "
      f"the rate {inside.data[0]:.1f} to state {inside.indices[0] + 1} stays, "
      f"the outward rate {full.sum() - inside.sum():.1f} is dropped (killing) "
      f"and the diagonal stays {diag[0]:.1f}")
