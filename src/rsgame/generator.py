"""The action-pair table, its contraction, and the cost-tilted operator.

Every object built from a model is a weighted sum over the same pure-action
rate rows ``q(i, a, b)`` and costs ``c_k(i, a, b)``: the strategy-averaged
generator ``Q`` and cost vector ``c`` on a truncation, whose tilted
operator ``A = Q + diag(c)`` has the long-run growth rate of the expected
exponentiated cost as its principal eigenvalue; each player's
frozen-opponent rows; the drift sums of the stability checks; the jump
tables of the simulator.  :func:`pair_table` stacks those rows once for a
list of states, gathered from the model's pair store, and
:meth:`PairTable.contract` sums weighted rows into groups.  Everything
here is a pure function of the model, truncation and strategies; a lazy
model's store grows as states are asked for, so a model is used from one
thread at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import GameModel, StationaryStrategy, Truncation

__all__ = [
    "PairTable",
    "TwistedMatrix",
    "pair_table",
    "common_edges",
    "assemble",
]


@dataclass(frozen=True)
class TwistedMatrix:
    """Cost-tilted operator ``A = Q + diag(c)`` with its positivity shift.

    ``alpha`` is chosen so that ``A + alpha * I`` is entrywise nonnegative
    with a strictly positive diagonal (``alpha = max_i(-q_ii) + 1``), which
    makes power iteration on the shifted matrix aperiodic.  ``alpha`` never
    enters reported eigenvalues.  Diagonals keep their full-space values
    while off-diagonal mass leaving the truncation is dropped, so boundary
    rows may carry a strict deficit.
    """

    A: sparse.csr_matrix
    alpha: float
    states: tuple
    player: int

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, state: int) -> int:
        return state - 1


def _grouping(weights, groups, n_groups):
    """Sparse ``n_groups x len(weights)`` matrix holding ``weights[p]`` at
    ``(groups[p], p)``; zero weights leave no entry.  Its product with a
    stack of rows sums each group's weighted rows in row order."""
    weights = np.asarray(weights, dtype=float)
    live = np.flatnonzero(weights)
    return sparse.csr_matrix((weights[live], (np.asarray(groups)[live], live)),
                             shape=(n_groups, weights.size))


@dataclass(frozen=True)
class PairTable:
    """Stacked pure-action rows of a list of states.

    Row ``p`` belongs to the pair ``(states[state[p]], a1[p], a2[p])``;
    pairs run over ``(state, ia, ib)`` in lexicographic order and
    ``starts[s]`` is the first pair of ``states[s]``.  ``rows`` holds the
    off-diagonal rates with full-space target columns (column ``j - 1``
    for state ``j``), ``diag`` the diagonal rates and ``cost[p]`` both
    players' cost rates.
    """

    states: tuple
    m1: np.ndarray
    m2: np.ndarray
    state: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    starts: np.ndarray
    rows: sparse.csr_matrix
    diag: np.ndarray
    cost: np.ndarray

    def strategy_weights(self, strategy: StationaryStrategy) -> np.ndarray:
        """Weight that ``strategy`` puts on its player's action of each
        pair, read from the strategy's table of these states."""
        k = strategy.player
        sizes = self.m1 if k == 1 else self.m2
        _, flat = strategy.table(self.states, sizes)
        action = self.a1 if k == 1 else self.a2
        return flat[(np.cumsum(sizes) - sizes)[self.state] + action]

    def contract(self, weights, groups, n_groups: int, n: int | None = None):
        """Weighted sums of the pair rows, one per group.

        Pair ``p`` adds ``weights[p]`` times its rates, diagonal and costs
        to group ``groups[p]``; pairs of weight zero drop out, and every
        sum runs in pair order.  Returns ``(R, diag, cost)``: the
        ``n_groups``-row CSR of off-diagonal sums (targets ``<= n`` only
        when ``n`` is given), and the diagonal and ``(n_groups, 2)`` cost
        sums.
        """
        G = _grouping(weights, groups, n_groups)
        R = G @ (self.rows if n is None else self.rows[:, :n])
        R.sort_indices()
        return R, G @ self.diag, G @ self.cost


def pair_table(model: GameModel, states) -> PairTable:
    """Table of every pure action pair's row and costs at ``states``,
    gathered by index from the model's pair store.  Raises the error of the
    first state or pair that failed to build."""
    states = tuple(states)
    store, pairs = model._select(states)
    store.check(states, pairs, model._costs)
    s = np.asarray(states) - 1
    m1, m2 = store.m1[s], store.m2[s]
    per = m1 * m2
    starts = np.cumsum(per) - per
    state = np.repeat(np.arange(len(states)), per)
    a1, a2 = np.divmod(np.arange(state.size) - starts[state], m2[state])
    entries, indptr = store.entries(pairs)
    cols = store.cols[entries] - 1
    width = max(int(cols.max(initial=0)) + 1, max(states))
    return PairTable(
        states=states, m1=m1, m2=m2, state=state, a1=a1, a2=a2, starts=starts,
        rows=sparse.csr_matrix((store.rates[entries], cols, indptr),
                               shape=(state.size, width)),
        diag=store.diag[pairs], cost=model._costs.cost[pairs])


def common_edges(rows: sparse.csr_matrix, groups, n_groups: int,
                 n: int | None = None) -> sparse.csr_matrix:
    """Pattern of the entries positive in every row of their group.

    Row ``g`` of the result marks the columns (below ``n`` when given)
    whose entry is positive in each row ``p`` with ``groups[p] == g``.
    """
    positive = sparse.csr_matrix(((rows.data > 0).astype(float), rows.indices,
                                  rows.indptr), shape=rows.shape)
    hits = _grouping(np.ones(rows.shape[0]), groups, n_groups) @ (
        positive if n is None else positive[:, :n])
    size = np.bincount(groups, minlength=n_groups)
    every = hits.data == np.repeat(size, np.diff(hits.indptr))
    graph = sparse.csr_matrix((every.astype(np.int8), hits.indices, hits.indptr),
                              shape=hits.shape)
    graph.eliminate_zeros()
    return graph


def assemble(model: GameModel, truncation: Truncation,
             v1: StationaryStrategy, v2: StationaryStrategy,
             player: int) -> TwistedMatrix:
    """Tilted operator for one player under a fixed strategy pair."""
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    n = truncation.n
    table = pair_table(model, truncation.states)
    weights = table.strategy_weights(v1) * table.strategy_weights(v2)
    R, diag, cost = table.contract(weights, table.state, n, n)
    alpha = float(max(0.0, (-diag).max()) + 1.0)
    A = (R + sparse.diags(diag + cost[:, player - 1])).tocsr()
    return TwistedMatrix(A=A, alpha=alpha, states=truncation.states,
                         player=player)
