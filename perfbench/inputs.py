"""Seeded inputs for the benchmark workloads (numpy only).

A ``wide-game`` input is a finite two-player game written in rsgame's JSON
model format.  It is built so that best-response iteration provably
settles in its first round:

* transition rates and player 1's cost depend on the state and player 1's
  action only, so player 1 faces one fixed Markov decision problem and its
  best response is the same against every strategy of player 2;
* player 2's action enters player 2's cost only.  With the rates fixed by
  player 1, player 2's principal eigenvalue is monotone in its cost
  diagonal, so the pointwise cheapest action is a best response.

Round one therefore ends at a pair in which each strategy is a best
response to the other, whatever the seed; no seed is discarded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WIDE_STATES = 300
WIDE_ACTIONS = 4
WIDE_TARGETS = 20


@dataclass(frozen=True)
class FiniteGame:
    """Dense tables of a finite game, indexed from zero.

    ``Q[a, b]`` is the ``n x n`` generator under pure actions ``(a, b)``
    (rows sum to zero); ``C[k][a, b]`` is player ``k + 1``'s cost vector.
    """

    Q: np.ndarray
    C: tuple

    @property
    def n(self) -> int:
        return self.Q.shape[-1]

    def to_json_dict(self) -> dict:
        m1, m2, n, _ = self.Q.shape
        rates = []
        costs = []
        for i in range(n):
            for a in range(m1):
                for b in range(m2):
                    row = self.Q[a, b, i]
                    for j in np.flatnonzero(row):
                        if j != i:
                            rates.append([i + 1, a, b, int(j) + 1, float(row[j])])
                    for k in (0, 1):
                        costs.append([k + 1, i + 1, a, b, float(self.C[k][a, b, i])])
        return {"states": n, "anchor": 1,
                "actions": {"1": {"default": list(map(float, range(m1)))},
                            "2": {"default": list(map(float, range(m2)))}},
                "rates": rates, "costs": costs}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)


def wide_game(seed: int, index: int, n: int = WIDE_STATES,
              m: int = WIDE_ACTIONS, targets: int = WIDE_TARGETS) -> FiniteGame:
    """Game number ``index`` of a run with ``seed``: ``n`` states, ``m``
    actions per player.

    Every row has a forward-cycle edge ``i -> i+1`` (``n -> 1``) under every
    action pair plus ``targets - 1`` random targets; state 1 reaches every
    state.  Row 1's rates are scaled so its exit rate matches the others,
    which keeps the eigensolver shift (and so the iteration count) small.
    """
    rng = np.random.default_rng([seed, index, n, m, targets])
    Q1 = np.zeros((m, n, n))
    for a in range(m):
        for i in range(n):
            succ = (i + 1) % n
            if i == 0:
                cols = np.arange(1, n)
                rates = rng.uniform(0.2, 1.0, cols.size) * targets / cols.size
            else:
                others = np.setdiff1d(np.arange(n), [i, succ])
                cols = np.concatenate(
                    [[succ], rng.choice(others, targets - 1, replace=False)])
                rates = rng.uniform(0.2, 1.0, cols.size)
            Q1[a, i, cols] = rates
            Q1[a, i, i] = -rates.sum()
    Q = np.repeat(Q1[:, None], m, axis=1)
    c1 = rng.uniform(0.0, 1.0, (m, n))
    C1 = np.repeat(c1[:, None], m, axis=1)
    C2 = rng.uniform(0.0, 1.0, (m, m, n))
    return FiniteGame(Q=Q, C=(C1, C2))
