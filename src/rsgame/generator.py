"""Strategy-averaged generators and the cost-tilted operator.

Mixing the players' stationary strategies turns the controlled rate and
cost tables into a plain Markov generator ``Q`` and cost vector ``c`` on a
truncation; the tilted operator ``A = Q + diag(c)`` is the linear operator
whose principal eigenvalue is the long-run growth rate of the expected
exponentiated cost.  Everything here is a pure function of the model,
truncation and strategies, so assemblies can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import GameModel, StationaryStrategy, Truncation, ROW_SUM_TOL

__all__ = [
    "RateMatrix",
    "TwistedMatrix",
    "average_row",
    "response_rows",
    "averaged_rate_matrix",
    "assemble",
]


@dataclass(frozen=True)
class RateMatrix:
    """Averaged generator restricted to a truncation (CSR storage).

    Diagonals keep their full-space values while off-diagonal mass leaving
    the truncation is dropped, so boundary rows may carry a strict deficit;
    ``conservative`` is True when no row does.
    """

    Q: sparse.csr_matrix
    states: tuple
    conservative: bool

    @property
    def n(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class TwistedMatrix:
    """Cost-tilted operator ``A = Q + diag(c)`` with its positivity shift.

    ``alpha`` is chosen so that ``A + alpha * I`` is entrywise nonnegative
    with a strictly positive diagonal (``alpha = max_i(-q_ii) + 1``), which
    makes power iteration on the shifted matrix aperiodic.  ``alpha`` never
    enters reported eigenvalues.
    """

    A: sparse.csr_matrix
    alpha: float
    states: tuple
    player: int
    conservative: bool

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, state: int) -> int:
        return state - 1


def _check_weights(model, i, player, w):
    m = model.n_actions(player, i)
    if len(w) != m:
        raise ValueError(
            f"strategy vector for player {player} at state {i} has {len(w)} "
            f"entries but the action grid has {m}")


def average_row(model: GameModel, i: int, w1, w2):
    """Bilinear average of rates and costs at one state.

    Returns ``(row, c1, c2)`` where ``row`` maps states (diagonal included)
    to ``sum_ab w1[a] w2[b] rate(i,a,b)[j]``.  Zero-weight actions are
    skipped, so Dirac strategies reproduce the pure row verbatim.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    _check_weights(model, i, 1, w1)
    _check_weights(model, i, 2, w2)
    acc: dict = {}
    c1 = 0.0
    c2 = 0.0
    for ia, wa in enumerate(w1):
        if wa == 0.0:
            continue
        for ib, wb in enumerate(w2):
            if wb == 0.0:
                continue
            w = wa * wb
            row = model.row(i, ia, ib)
            for j, r in zip(row.cols, row.rates):
                acc[int(j)] = acc.get(int(j), 0.0) + w * r
            acc[i] = acc.get(i, 0.0) + w * row.diag
            k1, k2 = model.costs(i, ia, ib)
            c1 += w * k1
            c2 += w * k2
    acc.setdefault(i, 0.0)
    return acc, c1, c2


def response_rows(model: GameModel, truncation: Truncation,
                  opponent: StationaryStrategy, player: int):
    """Opponent-averaged rows per own action, restricted to the truncation.

    For each state ``i`` in the truncation returns a list over the
    responding player's actions of ``(dense_cols, rates, diag, cost)``,
    with off-truncation mass dropped and the full-space diagonal kept.
    Feeds the per-action minimization in the nonlinear eigensolver.
    """
    if opponent.player == player:
        raise ValueError("opponent strategy belongs to the responding player")
    n = truncation.n
    out = []
    for i in truncation.states:
        wopp = opponent.weights(i)
        _check_weights(model, i, opponent.player, wopp)
        per_action = []
        for a in range(model.n_actions(player, i)):
            acc: dict = {}
            diag = 0.0
            cost = 0.0
            for ib, wb in enumerate(wopp):
                if wb == 0.0:
                    continue
                ia, ib_ = (a, ib) if player == 1 else (ib, a)
                row = model.row(i, ia, ib_)
                for j, r in zip(row.cols, row.rates):
                    if j <= n:
                        acc[int(j)] = acc.get(int(j), 0.0) + wb * r
                diag += wb * row.diag
                cost += wb * model.costs(i, ia, ib_)[player - 1]
            cols = np.array(sorted(acc), dtype=np.int64) - 1
            rates = np.array([acc[j + 1] for j in cols], dtype=float)
            per_action.append((cols, rates, diag, cost))
        out.append(per_action)
    return out


def _averaged_parts(model, truncation, v1, v2):
    n = truncation.n
    rows_i: list = []
    cols_j: list = []
    vals: list = []
    c1vec = np.zeros(n)
    c2vec = np.zeros(n)
    conservative = True
    for i in truncation.states:
        acc, c1, c2 = average_row(model, i, v1.weights(i), v2.weights(i))
        c1vec[i - 1] = c1
        c2vec[i - 1] = c2
        for j in sorted(acc):
            val = acc[j]
            if j > n:
                continue
            if val != 0.0 or j == i:
                rows_i.append(i - 1)
                cols_j.append(j - 1)
                vals.append(val)
        restricted = sum(acc[j] for j in sorted(acc) if j <= n)
        if abs(restricted) > ROW_SUM_TOL:
            conservative = False
    Q = sparse.csr_matrix((vals, (rows_i, cols_j)), shape=(n, n))
    return Q, c1vec, c2vec, conservative


def averaged_rate_matrix(model: GameModel, truncation: Truncation,
                         v1: StationaryStrategy,
                         v2: StationaryStrategy) -> RateMatrix:
    Q, _, _, conservative = _averaged_parts(model, truncation, v1, v2)
    return RateMatrix(Q=Q, states=truncation.states, conservative=conservative)


def assemble(model: GameModel, truncation: Truncation,
             v1: StationaryStrategy, v2: StationaryStrategy,
             player: int) -> TwistedMatrix:
    """Tilted operator for one player under a fixed strategy pair."""
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    Q, c1vec, c2vec, conservative = _averaged_parts(model, truncation, v1, v2)
    cvec = c1vec if player == 1 else c2vec
    qdiag = Q.diagonal()
    alpha = float(max(0.0, (-qdiag).max()) + 1.0)
    A = (Q + sparse.diags(cvec)).tocsr()
    return TwistedMatrix(A=A, alpha=alpha, states=truncation.states,
                         player=player, conservative=conservative)
