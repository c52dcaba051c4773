"""Two-player continuous-time Markov game models.

A :class:`GameModel` couples a state space (finite, or the natural numbers
generated lazily) with per-state finite action grids for both players, a
controlled transition-rate row for every state and pure action pair, and two
nonnegative running-cost rates.  Rows are conservative: off-diagonal rates
are nonnegative and every row sums to zero.

The module also provides stationary strategies (per-state probability
vectors over the action grid), nested finite truncations of the state space,
Lyapunov/drift specifications used by the assumption checker, and the
built-in "shop" inventory model, a birth-death chain with unbounded rates
and costs whose actions perturb the buying and selling rates on a finite
set of states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Row",
    "GameModel",
    "StationaryStrategy",
    "Truncation",
    "LyapunovSpec",
    "ShopParams",
    "Violation",
    "ValidationReport",
    "validate_model",
    "tabular_model",
    "birth_death_model",
    "shop_model",
    "shop_lyapunov_spec",
    "shop_drift_margin",
    "shop_boundary_cut",
    "shop_row",
    "shop_costs",
    "validate_shop_params",
    "truncate",
    "pure_strategy",
    "uniform_strategy",
    "tabular_strategy",
    "mix_strategies",
    "with_cost_shift",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

ROW_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class Row:
    """One transition-rate row: off-diagonal neighbors plus the diagonal.

    ``cols`` holds the target states j != i in ascending order, ``rates``
    the matching nonnegative rates, and ``diag`` the (nonpositive, for a
    conservative row) rate at the state itself.
    """

    cols: np.ndarray
    rates: np.ndarray
    diag: float

    @property
    def exit_rate(self) -> float:
        return -self.diag

    def total(self) -> float:
        """Row sum; zero (to rounding) for a conservative row."""
        return float(self.rates.sum() + self.diag)


class GameModel:
    """Immutable two-player controlled Markov jump process.

    Parameters
    ----------
    rate_fn : callable
        ``rate_fn(i, ia, ib) -> {j: rate}`` returning the full row for
        state ``i`` under pure action indices ``(ia, ib)``.  The mapping
        must contain the diagonal entry ``{i: rate}``; off-diagonal rates
        are nonnegative for a valid model.  Must be pure: repeated calls
        with the same arguments must return the same row.
    cost_fn : callable
        ``cost_fn(i, ia, ib) -> (c1, c2)`` nonnegative cost rates for both
        players.
    action_grids : callable
        ``action_grids(player, i) -> array`` of numeric action parameters
        for ``player`` in ``{1, 2}`` at state ``i``.  Grids are finite and
        nonempty.
    n_states : int or None
        Number of states for a finite model (states are ``1..n_states``),
        or ``None`` for a lazily generated countable model.
    anchor : int
        State at which eigenfunctions are normalized to one.
    """

    def __init__(self, rate_fn, cost_fn, action_grids, n_states=None,
                 anchor=1, name="", meta=None):
        if n_states is not None and n_states < 1:
            raise ValueError("finite model needs at least one state")
        if anchor < 1 or (n_states is not None and anchor > n_states):
            raise ValueError(f"anchor state {anchor} outside state space")
        self._rate_fn = rate_fn
        self._cost_fn = cost_fn
        self._grids = action_grids
        self.n_states = n_states
        self.anchor = int(anchor)
        self.name = name
        self.meta = dict(meta) if meta else {}
        self._row_cache: dict = {}
        self._cost_cache: dict = {}
        self._grid_cache: dict = {}
        self._chain_cache: dict = {}  # sample_path's jump tables per strategy pair

    @property
    def is_finite(self) -> bool:
        return self.n_states is not None

    def states(self, limit=None) -> range:
        """First ``limit`` states (all of them for a finite model)."""
        if self.is_finite:
            n = self.n_states if limit is None else min(limit, self.n_states)
        else:
            if limit is None:
                raise ValueError("countable model: states() needs a limit")
            n = limit
        return range(1, n + 1)

    def action_values(self, player: int, i: int) -> np.ndarray:
        key = (player, i)
        grid = self._grid_cache.get(key)
        if grid is None:
            grid = np.asarray(self._grids(player, i), dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError(
                    f"player {player} has an empty action grid at state {i}")
            grid.setflags(write=False)
            self._grid_cache[key] = grid
        return grid

    def n_actions(self, player: int, i: int) -> int:
        return self.action_values(player, i).size

    def row(self, i: int, ia: int, ib: int) -> Row:
        key = (i, ia, ib)
        row = self._row_cache.get(key)
        if row is None:
            raw = self._rate_fn(i, ia, ib)
            if i not in raw:
                raise ValueError(f"row at state {i} is missing its diagonal entry")
            cols = np.array(sorted(j for j, r in raw.items() if j != i and r != 0.0),
                            dtype=np.int64)
            rates = np.array([raw[j] for j in cols], dtype=float)
            cols.setflags(write=False)
            rates.setflags(write=False)
            row = Row(cols=cols, rates=rates, diag=float(raw[i]))
            if not self.is_finite:
                # countable rows can never be validated up front, so
                # conservativeness is enforced at materialization
                defect = row.total()
                if abs(defect) > ROW_SUM_TOL:
                    raise ValueError(
                        f"lazy row at state {i}, actions ({ia},{ib}) is not "
                        f"conservative (defect {defect:.3e})")
            self._row_cache[key] = row
        return row

    def costs(self, i: int, ia: int, ib: int) -> tuple:
        key = (i, ia, ib)
        c = self._cost_cache.get(key)
        if c is None:
            c1, c2 = self._cost_fn(i, ia, ib)
            c = (float(c1), float(c2))
            self._cost_cache[key] = c
        return c

    def cost(self, player: int, i: int, ia: int, ib: int) -> float:
        return self.costs(i, ia, ib)[player - 1]

    def exit_rate_bound(self, i: int) -> float:
        """Largest exit rate at ``i`` over all pure action pairs."""
        return max(self.row(i, ia, ib).exit_rate
                   for ia in range(self.n_actions(1, i))
                   for ib in range(self.n_actions(2, i)))

    def __repr__(self):
        size = self.n_states if self.is_finite else "countable"
        label = f" {self.name!r}" if self.name else ""
        return f"<GameModel{label} states={size} anchor={self.anchor}>"


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    state: int
    a1: int | None = None
    a2: int | None = None
    target: int | None = None
    magnitude: float = 0.0

    def __str__(self):
        where = f"state {self.state}"
        if self.a1 is not None:
            where += f", actions ({self.a1},{self.a2})"
        if self.target is not None:
            where += f", target {self.target}"
        return f"{self.kind} at {where}: magnitude {self.magnitude:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    checked_states: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            lo, hi = self.checked_states[0], self.checked_states[-1]
            return f"all model invariants hold on states {lo}..{hi}"
        return "\n".join(str(v) for v in self.violations)


def validate_model(model: GameModel, states=None) -> ValidationReport:
    """Check the model invariants and report every violation found.

    Checks, per state and pure action pair: finite nonnegative
    off-diagonal rates, row sums within ``1e-12`` of zero, finite exit
    rates, and finite nonnegative costs.  Never raises; an empty report
    means the invariants hold on all checked states (a caller-supplied
    prefix for countable models, 1..50 by default).
    """
    if states is None:
        states = model.states() if model.is_finite else model.states(50)
    states = tuple(states)
    bad = []
    for i in states:
        counts = []
        for player in (1, 2):
            try:
                counts.append(model.n_actions(player, i))
            except ValueError:
                bad.append(Violation("empty action grid", i))
                counts.append(0)
        for ia in range(counts[0]):
            for ib in range(counts[1]):
                try:
                    row = model.row(i, ia, ib)
                except (ValueError, KeyError) as exc:
                    bad.append(Violation(f"row construction failed ({exc})",
                                         i, ia, ib))
                    continue
                defect = row.total()  # not finite when a rate is not
                rates = row.rates
                if not math.isfinite(defect) or (rates.size and rates.min() < 0):
                    wrong = ~(np.isfinite(rates) & (rates >= 0))
                    for j, r in zip(row.cols[wrong].tolist(), rates[wrong].tolist()):
                        kind = "negative" if r < 0 else "non-finite"
                        bad.append(Violation(f"{kind} off-diagonal rate", i,
                                             ia, ib, j, r))
                if abs(defect) > ROW_SUM_TOL:
                    bad.append(Violation("non-conservative row", i, ia, ib,
                                         None, defect))
                if not math.isfinite(row.exit_rate):
                    bad.append(Violation("unbounded exit rate", i, ia, ib,
                                         None, row.exit_rate))
                for player, c in zip((1, 2), model.costs(i, ia, ib)):
                    if not (math.isfinite(c) and c >= 0):
                        kind = "negative" if c < 0 else "non-finite"
                        bad.append(Violation(f"{kind} cost (player {player})",
                                             i, ia, ib, None, c))
    return ValidationReport(violations=tuple(bad), checked_states=states)


# ---------------------------------------------------------------------------
# Stationary strategies
# ---------------------------------------------------------------------------

class StationaryStrategy:
    """Per-state probability vector over one player's action grid.

    Backed by a pure function ``i -> weights`` so that strategies remain
    defined on every state of a countable model; results are cached and
    validated (nonnegative, summing to one within ``1e-12``).
    """

    def __init__(self, player: int, weights_fn, name: str = ""):
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        self.player = player
        self.name = name
        self._fn = weights_fn
        self._cache: dict = {}

    def weights(self, i: int) -> np.ndarray:
        w = self._cache.get(i)
        if w is None:
            w = np.asarray(self._fn(i), dtype=float)
            if w.ndim != 1:
                raise ValueError(f"strategy weights at state {i} must be a vector")
            if np.any(w < -SIMPLEX_TOL):
                raise ValueError(f"negative strategy weight at state {i}")
            if abs(w.sum() - 1.0) > SIMPLEX_TOL:
                raise ValueError(
                    f"strategy weights at state {i} sum to {w.sum()!r}, not 1")
            w = np.maximum(w, 0.0)
            w.setflags(write=False)
            self._cache[i] = w
        return w

    def key(self, states: Iterable[int], quantum: float = 1e-12) -> tuple:
        """Quantized, hashable snapshot over ``states`` (cycle detection)."""
        parts = []
        for i in states:
            w = self.weights(i)
            parts.append(tuple(int(round(x / quantum)) for x in w))
        return tuple(parts)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<StationaryStrategy player={self.player}{label}>"


def pure_strategy(model: GameModel, player: int, choice) -> StationaryStrategy:
    """Dirac strategy putting all mass on ``choice(i)`` (an action index).

    Raises on use at any state where the chosen index falls outside that
    state's grid, naming the state.
    """

    def fn(i):
        k = choice(i)
        m = model.n_actions(player, i)
        if not (0 <= k < m):
            raise ValueError(
                f"pure strategy for player {player} picks action index {k} "
                f"at state {i}, but the grid has {m} actions")
        w = np.zeros(m)
        w[k] = 1.0
        return w

    return StationaryStrategy(player, fn, name="pure")


def uniform_strategy(model: GameModel, player: int) -> StationaryStrategy:
    def fn(i):
        m = model.n_actions(player, i)
        return np.full(m, 1.0 / m)

    return StationaryStrategy(player, fn, name="uniform")


def tabular_strategy(model: GameModel, player: int,
                     table: Mapping[int, Sequence[float]],
                     name: str = "tabular") -> StationaryStrategy:
    """Strategy given by an explicit per-state table of weight vectors."""
    fixed = {i: np.asarray(w, dtype=float) for i, w in table.items()}
    for i, w in fixed.items():
        if w.size != model.n_actions(player, i):
            raise ValueError(
                f"table entry at state {i} has {w.size} weights but the grid "
                f"has {model.n_actions(player, i)} actions")

    def fn(i):
        try:
            return fixed[i]
        except KeyError:
            raise ValueError(f"strategy table has no entry for state {i}") from None

    return StationaryStrategy(player, fn, name=name)


def mix_strategies(model: GameModel, a: StationaryStrategy,
                   b: StationaryStrategy, weight_a: float,
                   states: Iterable[int]) -> StationaryStrategy:
    """Tabular convex combination ``weight_a * a + (1 - weight_a) * b``."""
    if a.player != b.player:
        raise ValueError("cannot mix strategies of different players")
    if not (0.0 <= weight_a <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    table = {}
    for i in states:
        table[i] = weight_a * a.weights(i) + (1.0 - weight_a) * b.weights(i)
    return tabular_strategy(model, a.player, table, name="mixed")


# ---------------------------------------------------------------------------
# Truncations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truncation:
    """Finite prefix ``{1..n}`` of the state space with dense indexing."""

    n: int
    states: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(range(1, self.n + 1)))

    def index(self, state: int) -> int:
        if not 1 <= state <= self.n:
            raise KeyError(f"state {state} outside truncation of size {self.n}")
        return state - 1

    def __contains__(self, state: int) -> bool:
        return 1 <= state <= self.n

    def __len__(self) -> int:
        return self.n


def truncate(model: GameModel, n: int) -> Truncation:
    """Truncation to the first ``n`` states of the model.

    Operators built on it keep each row's full-space diagonal and drop the
    off-diagonal mass leaving the truncation, so the restricted generator
    is subconservative at boundary states (killing).
    """
    if n < 1:
        raise ValueError("truncation size must be at least 1")
    if model.anchor > n:
        raise ValueError(
            f"truncation of size {n} does not contain the anchor state "
            f"{model.anchor}")
    if model.is_finite and n > model.n_states:
        raise ValueError(f"truncation size {n} exceeds the {model.n_states}-state model")
    return Truncation(n=n)


# ---------------------------------------------------------------------------
# Lyapunov / drift specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovSpec:
    """Drift-condition data used by the assumption checker.

    ``W`` is the Lyapunov weight (``W >= 1``); ``W_growth`` an optional
    distinct weight for the growth bound (defaults to ``W``).  Exactly one
    of ``gamma`` (bounded-cost variant) or ``ell`` (norm-like rate, for
    unbounded costs) should be given for the killed-drift check.
    """

    W: Callable[[int], float]
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    C4: float = 0.0
    gamma: float | None = None
    ell: Callable[[int], float] | None = None
    kappa_set: frozenset = frozenset()
    W_growth: Callable[[int], float] | None = None
    tail_certified: bool = False
    note: str = ""

    def growth_weight(self) -> Callable[[int], float]:
        return self.W_growth if self.W_growth is not None else self.W


# ---------------------------------------------------------------------------
# Shop inventory model
# ---------------------------------------------------------------------------

def _default_payoff(fee: float, action_max: float):
    def payoff(i, u):
        return fee * i * (0.25 + 0.5 * u / action_max)

    return payoff


@dataclass(frozen=True)
class ShopParams:
    """Parameters of the built-in shop inventory model.

    The state counts items in stock.  Selling (rate ``sell_rate * i``)
    moves the stock down, buying (rate ``buy_rate * i``) moves it up, and
    the players' actions perturb those rates by ``u * exp(-theta * i)`` on
    the finite set ``coupled_states``.  Player ``k`` pays ``i * fee_k``
    per unit time and earns back ``payoff_k(i, u_k)``, so the cost rate is
    ``i * fee_k - payoff_k(i, u_k)`` (nonnegative, unbounded in ``i``).
    State 1 has a dense conservative row reaching every state ``j`` up to
    a cutoff, with rates bounded by ``exp(-2 * theta * j)``.
    """

    sell_rate: float = 2.0
    buy_rate: float = 1.0
    theta: float = 0.25
    action_max: float = 1.0
    fee1: float = 0.1
    fee2: float = 0.1
    n_actions: int = 3
    coupled_states: frozenset = frozenset({1, 3})
    payoff1: Callable[[int, float], float] | None = None
    payoff2: Callable[[int, float], float] | None = None
    boundary_row: Mapping[int, float] | None = None
    boundary_tail_tol: float = 1e-15

    def payoff(self, player: int, i: int, u: float) -> float:
        fn = self.payoff1 if player == 1 else self.payoff2
        if fn is None:
            fee = self.fee1 if player == 1 else self.fee2
            fn = _default_payoff(fee, self.action_max)
        return fn(i, u)

    def perturbation(self, i: int, u: float) -> float:
        """Rate perturbation ``u * exp(-theta * i)`` on the coupled set."""
        if i in self.coupled_states:
            return u * math.exp(-self.theta * i)
        return 0.0

    def grid(self, player: int, i: int) -> np.ndarray:
        """Action grid at a state.

        Both players use ``n_actions`` points spread over
        ``[0, action_max]``, except at state 1 where player 1's grid
        drops the zero action (its buying perturbation must be strictly
        positive there) and player 2's grid collapses to ``{0}`` (no
        selling perturbation at the boundary).
        """
        full = np.linspace(0.0, self.action_max, self.n_actions)
        if i == 1:
            return full[full > 0.0] if player == 1 else np.array([0.0])
        return full


def shop_drift_margin(params: ShopParams) -> float:
    """Inward drift coefficient of the weighted chain.

    Equals ``sell_rate * (1 - exp(-theta)) - buy_rate * (exp(theta) - 1)``;
    positive exactly when the exponential weight ``exp(theta * i)`` drifts
    down, which is what the cost-fee bound in condition (IV) compares
    against.
    """
    th = params.theta
    return params.sell_rate * (1.0 - math.exp(-th)) - params.buy_rate * (math.exp(th) - 1.0)


def shop_boundary_cut(params: ShopParams) -> int:
    """Largest target of the default boundary row.

    Smallest cutoff J such that the dropped geometric tail
    ``sum_{j>J} exp(-2 theta j)`` stays below ``boundary_tail_tol``.
    """
    th2 = 2.0 * params.theta
    cut = 2
    while math.exp(-th2 * (cut + 1)) / (1.0 - math.exp(-th2)) >= params.boundary_tail_tol:
        cut += 1
    return cut


def validate_shop_params(params: ShopParams) -> list:
    """Return ``(condition, message)`` pairs for every violated condition."""
    bad = []
    if params.theta <= 0 or params.action_max <= 0 or params.n_actions < 2:
        bad.append(("(I)", "need theta > 0, action_max > 0 and at least two "
                           "grid actions"))
    if not (params.sell_rate >= params.buy_rate > 0):
        bad.append(("(II)", f"need sell_rate >= buy_rate > 0, got "
                            f"{params.sell_rate} and {params.buy_rate}"))
    if 1 not in params.coupled_states:
        bad.append(("(III)", "coupled_states must contain state 1"))
    margin = shop_drift_margin(params)
    for k, fee in ((1, params.fee1), (2, params.fee2)):
        if margin <= fee:
            bad.append(("(IV)", f"drift margin {margin:.6g} must exceed "
                                f"fee{k} = {fee}"))
    if params.boundary_row is not None:
        for j, r in params.boundary_row.items():
            if j < 2:
                bad.append(("boundary row", f"target {j} must be >= 2"))
            elif r <= 0:
                bad.append(("boundary row", f"rate to {j} must be positive"))
            elif r > math.exp(-2.0 * params.theta * j):
                bad.append(("boundary row",
                            f"rate to {j} exceeds the decay bound "
                            f"exp(-2*theta*{j})"))
    return bad


def _shop_boundary_row(params: ShopParams) -> dict:
    if params.boundary_row is not None:
        off = {int(j): float(r) for j, r in params.boundary_row.items()}
    else:
        cut = shop_boundary_cut(params)
        off = {j: math.exp(-2.0 * params.theta * j) for j in range(2, cut + 1)}
    row = dict(off)
    row[1] = -sum(off[j] for j in sorted(off))
    return row


def shop_row(params: ShopParams, i: int, u1: float, u2: float,
             boundary: Mapping[int, float] | None = None) -> dict:
    """Raw transition row of the shop model (no parameter validation).

    ``boundary`` lets callers reuse a precomputed state-1 row.
    """
    if i == 1:
        return dict(boundary) if boundary is not None else _shop_boundary_row(params)
    up = params.buy_rate * i + params.perturbation(i, u1)
    down = params.sell_rate * i + params.perturbation(i, u2)
    return {i - 1: down, i + 1: up, i: -(down + up)}


def shop_costs(params: ShopParams, i: int, u1: float, u2: float) -> tuple:
    """Raw cost rates of the shop model (no parameter validation)."""
    return (i * params.fee1 - params.payoff(1, i, u1),
            i * params.fee2 - params.payoff(2, i, u2))


def shop_model(params: ShopParams | None = None) -> GameModel:
    """Countable lazy model of the shop example.

    Rejects parameters violating the standing conditions, naming the
    violated condition.  Rows at ``i >= 2`` are tridiagonal birth-death
    rows; the row at state 1 is dense up to the boundary cutoff.
    """
    params = params or ShopParams()
    bad = validate_shop_params(params)
    if bad:
        lines = "; ".join(f"{cond}: {msg}" for cond, msg in bad)
        raise ValueError(f"invalid shop parameters: {lines}")
    return _shop_game(params)


def _shop_game(params: ShopParams) -> GameModel:
    """The shop model of ``params``, which are not validated."""
    boundary = _shop_boundary_row(params)
    grids = {}

    def action_grids(player, i):
        # state 1 has special grids; elsewhere the grid is state-independent
        key = (player, i if i == 1 else 0)
        g = grids.get(key)
        if g is None:
            g = params.grid(player, i)
            grids[key] = g
        return g

    def rate_fn(i, ia, ib):
        u1 = action_grids(1, i)[ia]
        u2 = action_grids(2, i)[ib]
        return shop_row(params, i, u1, u2, boundary=boundary)

    def cost_fn(i, ia, ib):
        u1 = action_grids(1, i)[ia]
        u2 = action_grids(2, i)[ib]
        return shop_costs(params, i, u1, u2)

    meta = {"shop_params": params}
    return GameModel(rate_fn, cost_fn, action_grids, n_states=None,
                     anchor=1, name="shop", meta=meta)


def shop_lyapunov_spec(params: ShopParams | None = None) -> LyapunovSpec:
    """Drift specification under which the shop model is stable.

    Uses the exponential weight ``W(i) = exp(theta * i)`` with killed
    drift rate ``ell(i) = margin * i`` and the constants

    - ``C1 = 1`` and ``C2 = C4`` for the growth bound,
    - ``C3 = (2 * action_max + buy_rate + sell_rate) / theta`` for the
      exit-rate bound,
    - ``C4 = max(action_max * (exp(theta) - 1),
      exp(-2 * theta) / (1 - exp(-theta)))`` for the killed drift.

    The geometric decay of the boundary row certifies the tail of the
    drift bounds analytically, so ``tail_certified`` is set.
    """
    params = params or ShopParams()
    th = params.theta
    margin = shop_drift_margin(params)
    c4 = max(params.action_max * (math.exp(th) - 1.0),
             math.exp(-2.0 * th) / (1.0 - math.exp(-th)))
    c3 = (2.0 * params.action_max + params.buy_rate + params.sell_rate) / th
    return LyapunovSpec(
        W=lambda i: math.exp(th * i),
        C1=1.0,
        C2=c4,
        C3=c3,
        C4=c4,
        ell=lambda i: margin * i,
        kappa_set=frozenset(params.coupled_states),
        tail_certified=True,
        note="exponential weight; geometric boundary row certifies the tail",
    )


# ---------------------------------------------------------------------------
# Small builders
# ---------------------------------------------------------------------------

def tabular_model(rates: Mapping, costs: Mapping, action_grids: Mapping,
                  n_states: int, anchor: int = 1, name: str = "") -> GameModel:
    """Finite model from explicit tables.

    ``rates[(i, ia, ib)]`` is the full row mapping ``{j: rate}`` (diagonal
    derived as minus the off-diagonal sum when absent),
    ``costs[(i, ia, ib)] = (c1, c2)`` (zero when absent), and
    ``action_grids[(player, i)]`` the grid values, one for every state.
    Rejects an entry whose state, target or action lies outside the model.
    """
    rate_entries = [(i, ia, ib, j, r) for (i, ia, ib), row in rates.items()
                    for j, r in row.items()]
    cost_entries = [(k, i, ia, ib, c) for (i, ia, ib), (c1, c2) in costs.items()
                    for k, c in ((1, c1), (2, c2))]
    return _table_model(n_states, action_grids, rate_entries, cost_entries,
                        anchor, name)


def birth_death_model(up: Sequence[float], down: Sequence[float],
                      cost1: Sequence[float], cost2: Sequence[float],
                      anchor: int = 1, name: str = "birth-death") -> GameModel:
    """Uncontrolled finite birth-death chain (single action per player).

    ``up[i-1]`` is the rate ``i -> i+1`` (ignored at the top state) and
    ``down[i-1]`` the rate ``i -> i-1`` (ignored at state 1).
    """
    n = len(up)
    if not (len(down) == len(cost1) == len(cost2) == n):
        raise ValueError("rate and cost sequences must share one length")

    def rate_fn(i, ia, ib):
        row = {}
        if i < n:
            row[i + 1] = float(up[i - 1])
        if i > 1:
            row[i - 1] = float(down[i - 1])
        row[i] = -sum(row.values())
        return row

    def cost_fn(i, ia, ib):
        return float(cost1[i - 1]), float(cost2[i - 1])

    def grid_fn(player, i):
        return np.array([0.0])

    return GameModel(rate_fn, cost_fn, grid_fn, n_states=n, anchor=anchor,
                     name=name)


def with_cost_shift(model: GameModel, player: int, kappa: float) -> GameModel:
    """Same model with a constant added to one player's cost rate.

    Rows do not depend on costs, so the shifted model shares the base
    model's row cache: a row built by either is built once.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")

    def cost_fn(i, ia, ib):
        c1, c2 = model.costs(i, ia, ib)
        return (c1 + kappa, c2) if player == 1 else (c1, c2 + kappa)

    shifted = GameModel(model._rate_fn, cost_fn, model._grids,
                        n_states=model.n_states, anchor=model.anchor,
                        name=model.name + f"+shift{player}", meta=None)
    shifted._row_cache = model._row_cache
    return shifted


# ---------------------------------------------------------------------------
# Columnar tables
# ---------------------------------------------------------------------------

def _table_model(n: int, action_grids: Mapping, rate_entries, cost_entries,
                 anchor: int = 1, name: str = "") -> GameModel:
    """Finite model from rate entries ``[i, ia, ib, j, value]`` and cost
    entries ``[k, i, ia, ib, value]``, with every row and cost built here.

    The entries become arrays once; every index is checked, a bad entry
    raising a ``ValueError`` that names the first one in entry order.
    Entries are sorted by ``(pair, target)`` and every :class:`Row` is a
    read-only view into one stacked CSR.  A repeated ``(i, ia, ib, j)`` or
    ``(k, i, ia, ib)`` entry keeps its last value; zero off-diagonal rates
    are dropped; an explicit diagonal is used as given, and a missing one
    is minus the sequential sum of the row's off-diagonal values in order
    of each target's first entry.  Absent rows are absorbing and absent
    costs zero.
    """
    grids = {}
    for player in (1, 2):
        for i in range(1, n + 1):
            if (player, i) not in action_grids:
                raise ValueError(
                    f"no action grid for player {player} at state {i}")
            grids[(player, i)] = np.asarray(action_grids[(player, i)],
                                            dtype=float)
    m1 = np.array([grids[(1, i)].size for i in range(1, n + 1)], dtype=np.int64)
    m2 = np.array([grids[(2, i)].size for i in range(1, n + 1)], dtype=np.int64)
    per = m1 * m2
    starts = np.cumsum(per) - per
    n_pairs = int(per.sum())
    state = np.repeat(np.arange(1, n + 1), per)
    a1, a2 = np.divmod(np.arange(n_pairs) - starts[state - 1], m2[state - 1])

    indptr, cols, rates, diag = _stacked_rows(rate_entries, n, m1, m2, starts,
                                              state)
    cost = _cost_table(cost_entries, n, m1, m2, starts, n_pairs)
    keys = list(zip(state.tolist(), a1.tolist(), a2.tolist()))
    bounds = indptr.tolist()
    row_cache = dict(zip(keys, (
        Row(cols=cols[a:b], rates=rates[a:b], diag=d)
        for a, b, d in zip(bounds[:-1], bounds[1:], diag.tolist()))))
    cost_cache = dict(zip(keys, map(tuple, cost.tolist())))

    def rate_fn(i, ia, ib):
        row = row_cache.get((i, ia, ib))
        if row is None:  # outside the table: absorbing, like an absent row
            return {i: 0.0}
        full = dict(zip(row.cols.tolist(), row.rates.tolist()))
        full[i] = row.diag
        return full

    def cost_fn(i, ia, ib):
        return cost_cache.get((i, ia, ib), (0.0, 0.0))

    def grid_fn(player, i):
        return grids[(player, i)]

    model = GameModel(rate_fn, cost_fn, grid_fn, n_states=n, anchor=anchor,
                      name=name)
    model._row_cache = row_cache
    model._cost_cache = cost_cache
    return model


def _stacked_rows(entries, n, m1, m2, starts, state):
    """Every pair's row from the rate entries, as one CSR ``(indptr, cols,
    rates)`` with read-only ``cols`` (target states) and ``rates``, and
    the diagonals; see :func:`_table_model` for the rules.  Each array is
    dropped as soon as it is used up."""
    n_pairs = state.size
    values = _entry_array(entries, "rate")
    pair, target = _entry_pairs("rate", values, entries, n, m1, m2, starts)
    values = values[:, 4].copy()
    explicit = target == state[pair]
    on = np.flatnonzero(explicit)
    given, _, given_value, _ = _last_by_key(pair[on], values[on], 1, on)
    off = np.flatnonzero(~explicit)
    key, values = pair[off] * (n + 1) + target[off], values[off]
    del pair, target, explicit, on
    off_pair, off_col, off_value, first = _last_by_key(key, values, n + 1, off)
    del key, values, off
    keep = off_value != 0.0
    indptr = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(np.bincount(off_pair[keep], minlength=n_pairs), out=indptr[1:])
    cols, rates = off_col[keep], off_value[keep]
    cols.setflags(write=False)
    rates.setflags(write=False)
    del off_col, keep
    # derived diagonals: each row's values in order of first entry
    by_entry = np.lexsort((first, off_pair))
    del first
    diag = np.where(np.bincount(off_pair, minlength=n_pairs) > 0,
                    -_sequential_sums(off_pair[by_entry], off_value[by_entry],
                                      n_pairs), 0.0)
    diag[given] = given_value
    return indptr, cols, rates, diag


def _cost_table(entries, n, m1, m2, starts, n_pairs):
    """``(n_pairs, 2)`` cost rates from the cost entries, zero where
    absent."""
    values = _entry_array(entries, "cost")
    pair, player = _entry_pairs("cost", values, entries, n, m1, m2, starts)
    at, k, value, _ = _last_by_key(pair * 2 + player - 1, values[:, 4], 2,
                                   np.arange(pair.size))
    cost = np.zeros((n_pairs, 2))
    cost[at, k] = value
    return cost


_ENTRY_FIELDS = {"rate": "[i, ia, ib, j, value]",
                 "cost": "[k, i, ia, ib, value]"}


def _entry_array(entries, kind) -> np.ndarray:
    """``(len(entries), 5)`` float array of rate or cost entries.

    A row of NaN stands for an entry that is not five numbers, so that the
    index check names it in entry order.
    """
    try:
        if set(map(len, entries)) <= {5}:
            return np.fromiter(chain.from_iterable(entries), float,
                               5 * len(entries)).reshape(-1, 5)
    except (TypeError, ValueError, OverflowError):
        pass
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{kind} entries must form a list of "
                         f"{_ENTRY_FIELDS[kind]} lists")
    out = np.full((len(entries), 5), np.nan)
    for p, entry in enumerate(entries):
        try:
            if len(entry) == 5:
                out[p] = [float(x) for x in entry]
        except (TypeError, ValueError, OverflowError):
            pass
    return out


def _entry_pairs(kind, values, entries, n, m1, m2, starts):
    """Pair index and target (rate entries) or cost player (cost entries)
    of every entry; raises naming the first entry outside the model."""
    if kind == "rate":
        i, ia, ib, other = values[:, :4].T
        ok = (other >= 1) & (other <= n)
    else:
        other, i, ia, ib = values[:, :4].T
        ok = (other == 1) | (other == 2)
    for index in (i, ia, ib, other):  # one column at a time keeps copies small
        ok &= np.isfinite(index) & (index == np.trunc(index))
    ok &= (i >= 1) & (i <= n)
    s = np.where(ok, i - 1, 0).astype(np.int64)
    ok &= (ia >= 0) & (ia < m1[s]) & (ib >= 0) & (ib < m2[s])
    if not ok.all():
        p = int(np.argmin(ok))
        raise _entry_error(kind, entries[p], values[p], n, m1, m2)
    return (starts[s] + ia.astype(np.int64) * m2[s] + ib.astype(np.int64),
            other.astype(np.int64))


def _entry_error(kind, entry, values, n, m1, m2) -> ValueError:
    """Name the index by which a rate or cost entry leaves the model;
    ``values`` is the entry as floats and ``m1[i - 1]``, ``m2[i - 1]``
    the grid sizes at state ``i``."""
    entry = list(entry) if isinstance(entry, (list, tuple)) else entry
    index = values[:4]
    if not (np.isfinite(index).all() and (index == np.trunc(index)).all()):
        return ValueError(f"{kind} entry {entry}: expected five numbers "
                          f"{_ENTRY_FIELDS[kind]} with integer indices")
    if kind == "rate":
        i, ia, ib, j = (int(x) for x in index)
        k = 1
    else:
        k, i, ia, ib = (int(x) for x in index)
        j = 1
    if k not in (1, 2):
        problem = f"cost player {k} is not 1 or 2"
    elif not 1 <= i <= n:
        problem = f"state {i} is outside states 1..{n}"
    elif not 1 <= j <= n:
        problem = f"target state {j} is outside states 1..{n}"
    elif not 0 <= ia < m1[i - 1]:
        problem = (f"player 1 action {ia} is outside the "
                   f"{m1[i - 1]}-action grid at state {i}")
    else:
        problem = (f"player 2 action {ib} is outside the "
                   f"{m2[i - 1]}-action grid at state {i}")
    return ValueError(f"{kind} entry {entry}: {problem}")


def _last_by_key(key, values, base, position):
    """One entry per distinct ``key``, in ascending key order: the key's
    quotient and remainder by ``base``, its last value and the
    ``position`` of its first entry."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(key.size, dtype=bool)
    head[1:] = key[1:] != key[:-1]
    tail = np.ones(key.size, dtype=bool)
    tail[:-1] = head[1:]
    key = key[head]
    return key // base, key % base, values[order[tail]], position[order[head]]


def _sequential_sums(groups, values, n_groups: int) -> np.ndarray:
    """Sum of each group's ``values``, added one by one in the given order
    from 0.0.  ``groups`` must be sorted; the sum runs one column of the
    padded ``(group, position)`` layout at a time, so a group's additions
    happen in order, and never pairwise."""
    size = np.bincount(groups, minlength=n_groups)
    rank = np.arange(groups.size)
    rank -= (np.cumsum(size) - size)[groups]
    by_rank = np.argsort(rank, kind="stable")
    ends = np.cumsum(np.bincount(rank)).tolist()
    del rank
    total = np.zeros(n_groups)
    for a, b in zip([0, *ends], ends):
        at = by_rank[a:b]
        total[groups[at]] += values[at]
    return total


# ---------------------------------------------------------------------------
# JSON model format
# ---------------------------------------------------------------------------
#
# Finite models:
#   {"states": n, "anchor": i0,
#    "actions": {"1": {"default": [...], "per_state": {"5": [...]}},
#                "2": {...}},
#    "rates": [[i, ia, ib, j, value], ...],   # diagonal entries included
#    "costs": [[k, i, ia, ib, value], ...]}   # k is the player, 1 or 2
#
# Countable shop models:
#   {"lazy": "shop", "anchor": 1, "shop_params": {...}}
#
# Unknown keys are rejected at every level.  Rows absent from "rates" are
# absorbing; a missing diagonal entry is derived so the row is conservative.
# Repeated entries keep their last value (see ``_table_model``).

_TOP_KEYS = {"states", "lazy", "anchor", "actions", "rates", "costs",
             "shop_params"}
_ACTION_KEYS = {"default", "per_state"}
_SHOP_KEYS = {"sell_rate", "buy_rate", "theta", "action_max", "fee1", "fee2",
              "n_actions", "coupled_states", "boundary_row",
              "boundary_tail_tol"}


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in {where}")


def _shop_params_from_dict(d: Mapping) -> ShopParams:
    _reject_unknown(d, _SHOP_KEYS, "shop_params")
    kwargs = dict(d)
    if "coupled_states" in kwargs:
        kwargs["coupled_states"] = frozenset(int(i) for i in kwargs["coupled_states"])
    if kwargs.get("boundary_row") is not None:
        kwargs["boundary_row"] = {int(j): float(r)
                                  for j, r in kwargs["boundary_row"].items()}
    return ShopParams(**kwargs)


def _shop_params_to_dict(p: ShopParams) -> dict:
    if p.payoff1 is not None or p.payoff2 is not None:
        raise ValueError("shop models with custom payoff callables cannot be "
                         "serialized to JSON")
    d = {
        "sell_rate": p.sell_rate,
        "buy_rate": p.buy_rate,
        "theta": p.theta,
        "action_max": p.action_max,
        "fee1": p.fee1,
        "fee2": p.fee2,
        "n_actions": p.n_actions,
        "coupled_states": sorted(p.coupled_states),
        "boundary_tail_tol": p.boundary_tail_tol,
    }
    if p.boundary_row is not None:
        d["boundary_row"] = {str(j): float(r) for j, r in p.boundary_row.items()}
    return d


def model_from_dict(doc: Mapping) -> GameModel:
    _reject_unknown(doc, _TOP_KEYS, "model document")
    if "lazy" in doc:
        if doc["lazy"] != "shop":
            raise ValueError(f"unknown lazy model kind {doc['lazy']!r}")
        params = _shop_params_from_dict(doc.get("shop_params", {}))
        model = shop_model(params)
        if "anchor" in doc and int(doc["anchor"]) != model.anchor:
            raise ValueError("shop model anchor is fixed at state 1")
        return model

    n = int(doc["states"])
    anchor = int(doc.get("anchor", 1))
    grids = {}
    for player in (1, 2):
        spec = doc.get("actions", {}).get(str(player), {"default": [0.0]})
        _reject_unknown(spec, _ACTION_KEYS, f"actions for player {player}")
        default = spec.get("default")
        per_state = {int(i): v for i, v in spec.get("per_state", {}).items()}
        for i in range(1, n + 1):
            g = per_state.get(i, default)
            if g is not None:
                grids[(player, i)] = g
    return _table_model(n, grids, doc.get("rates", []), doc.get("costs", []),
                        anchor)


def model_to_dict(model: GameModel) -> dict:
    """Serialize a model (finite, or the built-in shop) to the JSON schema."""
    if not model.is_finite:
        params = model.meta.get("shop_params")
        if params is None:
            raise ValueError("only finite models and the built-in shop can "
                             "be serialized")
        return {"lazy": "shop", "anchor": model.anchor,
                "shop_params": _shop_params_to_dict(params)}

    actions = {}
    for player in (1, 2):
        per_state = {str(i): [float(x) for x in model.action_values(player, i)]
                     for i in model.states()}
        actions[str(player)] = {"per_state": per_state}
    rates = []
    costs = []
    for i in model.states():
        for ia in range(model.n_actions(1, i)):
            for ib in range(model.n_actions(2, i)):
                row = model.row(i, ia, ib)
                for j, r in zip(row.cols, row.rates):
                    rates.append([i, ia, ib, int(j), float(r)])
                rates.append([i, ia, ib, i, row.diag])
                c1, c2 = model.costs(i, ia, ib)
                if c1:
                    costs.append([1, i, ia, ib, c1])
                if c2:
                    costs.append([2, i, ia, ib, c2])
    return {"states": model.n_states, "anchor": model.anchor,
            "actions": actions, "rates": rates, "costs": costs}


def save_model(model: GameModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> GameModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
