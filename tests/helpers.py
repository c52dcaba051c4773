"""Shared test fixtures: random games and independent dense oracles.

The oracles here deliberately avoid the library's assembly and solver
paths: dense matrices are built by direct loops over the model's raw rows,
and eigenpairs come from scipy's general dense eigensolver.  The
simulation references are scalar loops, one jump per iteration.
"""

import hashlib
import importlib.util
import math
import sys
import weakref
from bisect import bisect_right
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from scipy import sparse

from rsgame.generator import PairTable
from rsgame.model import (
    ROW_SUM_TOL,
    SIMPLEX_TOL,
    GameModel,
    Row,
    ValidationReport,
    Violation,
    tabular_model,
)
from rsgame.simulate import path_rng


def random_game(rng, n_states=4, m1=2, m2=2, rate_scale=1.0, cost_scale=1.0,
                extra_edge_prob=0.4):
    """Random finite game, irreducible under every pure action pair.

    A forward cycle 1 -> 2 -> ... -> n -> 1 is present for every action
    pair (with action-dependent rates), so every averaged generator is
    strongly connected.
    """
    rates = {}
    costs = {}
    grids = {}
    for i in range(1, n_states + 1):
        grids[(1, i)] = np.arange(m1, dtype=float)
        grids[(2, i)] = np.arange(m2, dtype=float)
    for i in range(1, n_states + 1):
        succ = i % n_states + 1
        for ia in range(m1):
            for ib in range(m2):
                row = {succ: rate_scale * (0.3 + rng.random())}
                for j in range(1, n_states + 1):
                    if j in (i, succ):
                        continue
                    if rng.random() < extra_edge_prob:
                        row[j] = rate_scale * rng.random()
                row[i] = -sum(row.values())
                rates[(i, ia, ib)] = row
                costs[(i, ia, ib)] = (cost_scale * rng.random(),
                                      cost_scale * rng.random())
    return recorded_tabular(rates, costs, grids, n_states=n_states)


# the rows and costs of each model built by recorded_tabular, by model
_TABLE_SOURCES = weakref.WeakKeyDictionary()


def recorded_tabular(rates, costs, grids, n_states):
    """``tabular_model`` over the given tables, with the rows and costs
    :func:`reference_table` builds from the same entries recorded for
    :func:`reference_row` and :func:`reference_costs` (a table model keeps
    no callables to rebuild a row from)."""
    model = tabular_model(rates, costs, grids, n_states=n_states)
    _TABLE_SOURCES[model] = reference_table({
        "rates": [[*key, j, r] for key, row in rates.items()
                  for j, r in row.items()],
        "costs": [[k, *key, c] for key, pair in costs.items()
                  for k, c in zip((1, 2), pair)]})
    return model


def bench_inputs():
    """The benchmark's input module, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    module = sys.modules.get("perfbench_inputs")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


def digest_game():
    """The seeded 50-state game behind the golden loader digests."""
    return random_game(np.random.default_rng(2026), n_states=50, m1=2, m2=3)


def table_digest(model: GameModel) -> str:
    """sha256 over every pure pair's row (targets, rates, diagonal) and
    both costs, in ``(state, ia, ib)`` order."""
    h = hashlib.sha256()
    for i in model.states():
        for ia in range(model.n_actions(1, i)):
            for ib in range(model.n_actions(2, i)):
                row = model.row(i, ia, ib)
                h.update(np.asarray(row.cols, dtype=np.int64).tobytes())
                h.update(np.asarray(row.rates, dtype=float).tobytes())
                h.update(np.float64(row.diag).tobytes())
                h.update(np.array(model.costs(i, ia, ib), dtype=float).tobytes())
    return h.hexdigest()


def reference_table(doc):
    """Rows and costs of a finite model document built the way the
    dict-based loader built them: entry by entry into one dict per pair
    (a repeated key keeps its last value at its first position), a missing
    diagonal derived as minus the off-diagonal values added one by one in
    dict order.  Returns ``{(i, ia, ib): (cols, rates, diag)}`` and
    ``{(i, ia, ib): (c1, c2)}`` for the pairs with entries."""
    rates, costs = {}, {}
    for i, ia, ib, j, value in doc["rates"]:
        rates.setdefault((int(i), int(ia), int(ib)), {})[int(j)] = float(value)
    for k, i, ia, ib, value in doc["costs"]:
        costs.setdefault((int(i), int(ia), int(ib)), [0.0, 0.0])[int(k) - 1] = (
            float(value))
    rows = {}
    for key, row in rates.items():
        i = key[0]
        off = [r for j, r in row.items() if j != i]
        total = 0.0
        for r in off:
            total += r
        diag = row[i] if i in row else (-total if off else 0.0)
        cols = sorted(j for j, r in row.items() if j != i and r != 0.0)
        rows[key] = (cols, [row[j] for j in cols], diag)
    return rows, {key: tuple(c) for key, c in costs.items()}


def reference_row(model: GameModel, i, ia, ib) -> Row:
    """Row of pair ``(i, ia, ib)`` built on its own from the model's
    ``rate_fn``, the way ``GameModel.row`` built each row before the pair
    store: targets sorted, zero rates dropped, numpy conversions, and a
    countable model's row checked for conservativeness.  A model made by
    ``with_cost_shift`` has its base model's rows, and one made by
    :func:`recorded_tabular` the rows of its entries (absorbing where it
    has none)."""
    while hasattr(model, "_base"):
        model = model._base
    if model in _TABLE_SOURCES:
        cols, rates, diag = _TABLE_SOURCES[model][0].get((i, ia, ib),
                                                         ([], [], 0.0))
        return Row(cols=np.array(cols, dtype=np.int64),
                   rates=np.array(rates, dtype=float), diag=float(diag))
    raw = model._rate_fn(i, ia, ib)
    if i not in raw:
        raise ValueError(f"row at state {i} is missing its diagonal entry")
    cols = np.array(sorted(j for j, r in raw.items() if j != i and r != 0.0),
                    dtype=np.int64)
    rates = np.array([raw[j] for j in cols], dtype=float)
    row = Row(cols=cols, rates=rates, diag=float(raw[i]))
    if not model.is_finite:
        defect = row.total()
        if abs(defect) > ROW_SUM_TOL:
            raise ValueError(
                f"lazy row at state {i}, actions ({ia},{ib}) is not "
                f"conservative (defect {defect:.3e})")
    return row


def reference_costs(model: GameModel, i, ia, ib) -> tuple:
    """Costs of pair ``(i, ia, ib)`` straight from the model's ``cost_fn``;
    those of a model made by ``with_cost_shift``, its base model's with the
    shift added, and those of one made by :func:`recorded_tabular`, its
    entries' (zero where it has none)."""
    if hasattr(model, "_base"):
        c1, c2 = reference_costs(model._base, i, ia, ib)
        player, kappa = model._shift
        return (c1 + kappa, c2) if player == 1 else (c1, c2 + kappa)
    if model in _TABLE_SOURCES:
        return _TABLE_SOURCES[model][1].get((i, ia, ib), (0.0, 0.0))
    c1, c2 = model._cost_fn(i, ia, ib)
    return float(c1), float(c2)


def reference_validate(model: GameModel, states=None) -> ValidationReport:
    """``validate_model`` as a loop over states and pairs, on rows and costs
    from :func:`reference_row` and :func:`reference_costs`."""
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
                    row = reference_row(model, i, ia, ib)
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
                for player, c in zip((1, 2), reference_costs(model, i, ia, ib)):
                    if not (math.isfinite(c) and c >= 0):
                        kind = "negative" if c < 0 else "non-finite"
                        bad.append(Violation(f"{kind} cost (player {player})",
                                             i, ia, ib, None, c))
    return ValidationReport(violations=tuple(bad), checked_states=states)


def reference_pair_table(model: GameModel, states) -> PairTable:
    """``pair_table`` stacked from ``GameModel.row`` and ``costs``, one
    pair at a time in ``(state, ia, ib)`` order."""
    states = tuple(states)
    m1 = np.array([model.n_actions(1, i) for i in states], dtype=np.int64)
    m2 = np.array([model.n_actions(2, i) for i in states], dtype=np.int64)
    rows, costs = [], []
    for i, k1, k2 in zip(states, m1.tolist(), m2.tolist()):
        for ia in range(k1):
            for ib in range(k2):
                rows.append(model.row(i, ia, ib))
                costs.append(model.costs(i, ia, ib))
    per = m1 * m2
    starts = np.cumsum(per) - per
    state = np.repeat(np.arange(len(states)), per)
    a1, a2 = np.divmod(np.arange(state.size) - starts[state], m2[state])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((r.cols.size for r in rows), np.int64, len(rows)),
              out=indptr[1:])
    cols = np.concatenate([r.cols for r in rows])
    cols -= 1
    width = max(int(cols.max(initial=0)) + 1, max(states))
    return PairTable(
        states=states, m1=m1, m2=m2, state=state, a1=a1, a2=a2, starts=starts,
        rows=sparse.csr_matrix(
            (np.concatenate([r.rates for r in rows]), cols, indptr),
            shape=(len(rows), width)),
        diag=np.fromiter((r.diag for r in rows), float, len(rows)),
        cost=np.array(costs).reshape(-1, 2))


def reference_key(strategy, states, quantum=1e-12) -> tuple:
    """``StationaryStrategy.key`` as a loop over states: each weight of
    :meth:`weights` rounded by Python's ``round``."""
    parts = []
    for i in states:
        w = strategy.weights(i)
        parts.append(tuple(int(round(x / quantum)) for x in w))
    return tuple(parts)


def reference_strategy_weights(table: PairTable, strategy) -> np.ndarray:
    """``PairTable.strategy_weights`` read state by state from
    ``weights``, each vector's length checked as it is read."""
    k = strategy.player
    sizes = table.m1 if k == 1 else table.m2
    flat = []
    for i, m in zip(table.states, sizes):
        w = strategy.weights(i)
        if len(w) != m:
            raise ValueError(
                f"strategy vector for player {k} at state {i} has "
                f"{len(w)} entries but the action grid has {m}")
        flat.append(w)
    action = table.a1 if k == 1 else table.a2
    return np.concatenate(flat)[(np.cumsum(sizes) - sizes)[table.state] + action]


class PerStateStrategy:
    """A stationary strategy read state by state: ``weights_fn(i)`` checked
    and cached one state at a time, with the errors of
    ``StationaryStrategy.weights``.  The reference for strategy tables."""

    def __init__(self, player: int, weights_fn):
        self.player = player
        self._fn = weights_fn
        self._cache = {}

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
            self._cache[i] = w
        return w


def reference_uniform(model: GameModel, player: int) -> PerStateStrategy:
    """``uniform_strategy`` state by state."""
    def fn(i):
        m = model.n_actions(player, i)
        return np.full(m, 1.0 / m)

    return PerStateStrategy(player, fn)


def reference_pure(model: GameModel, player: int, choice) -> PerStateStrategy:
    """``pure_strategy`` state by state."""
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

    return PerStateStrategy(player, fn)


def reference_selector(model: GameModel, player: int, sel) -> PerStateStrategy:
    """A best-response selector (``sel[i - 1]`` at state ``i``) state by
    state."""
    def choice(i):
        if not 1 <= i <= len(sel):
            raise ValueError(f"selector undefined outside truncation "
                             f"(state {i})")
        return int(sel[i - 1])

    return reference_pure(model, player, choice)


def reference_tabular(model: GameModel, player: int, table) -> PerStateStrategy:
    """``tabular_strategy`` state by state."""
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

    return PerStateStrategy(player, fn)


def reference_mix(model: GameModel, a, b, weight_a, states):
    """``mix_strategies`` as a loop over states, each mixed from
    ``weights``."""
    if a.player != b.player:
        raise ValueError("cannot mix strategies of different players")
    if not (0.0 <= weight_a <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    table = {}
    for i in states:
        table[i] = weight_a * a.weights(i) + (1.0 - weight_a) * b.weights(i)
    return reference_tabular(model, a.player, table)


def reference_strategy_table(strategy, states) -> tuple:
    """Sizes and concatenated weights of ``states``, from ``weights``."""
    parts = [strategy.weights(i) for i in states]
    return (np.array([w.size for w in parts], dtype=np.int64),
            np.concatenate(parts) if parts else np.zeros(0))


def reference_noda_matrix(M, sigma):
    """``sigma I - M`` as scipy's sparse arithmetic builds it."""
    return (sigma * sparse.identity(M.shape[0], format="csc") - M).tocsc()


def dense_tilted(model: GameModel, n, v1, v2, player):
    """Dense oracle assembly of the tilted operator on states 1..n.

    Independent of rsgame.generator: loops over pure action pairs and
    averages explicitly, dropping off-truncation columns while keeping the
    full-space diagonal.
    """
    A = np.zeros((n, n))
    for i in range(1, n + 1):
        w1 = v1.weights(i)
        w2 = v2.weights(i)
        for ia, wa in enumerate(w1):
            for ib, wb in enumerate(w2):
                if wa * wb == 0.0:
                    continue
                row = model.row(i, ia, ib)
                for j, r in zip(row.cols, row.rates):
                    if j <= n:
                        A[i - 1, j - 1] += wa * wb * r
                A[i - 1, i - 1] += wa * wb * row.diag
                A[i - 1, i - 1] += wa * wb * model.cost(player, i, ia, ib)
    return A


def dense_principal(A, anchor_idx=0):
    """Principal eigenpair of a dense Metzler matrix via scipy.linalg.eig.

    Returns the eigenvalue of maximal real part and its eigenvector scaled
    to one at the anchor index (made real and positive).
    """
    vals, vecs = scipy.linalg.eig(A)
    k = int(np.argmax(vals.real))
    rho = vals[k]
    assert abs(rho.imag) < 1e-9 * (1 + abs(rho.real))
    psi = vecs[:, k]
    psi = psi / psi[anchor_idx]
    assert np.max(np.abs(psi.imag)) < 1e-8
    psi = psi.real
    return float(rho.real), psi


def dense_perron(A, anchor_idx=0):
    """:func:`dense_principal`'s eigenvalue, polished: two steps of shifted
    inverse iteration on its vector, then the Collatz-Wielandt bracket of
    that vector, which holds the Perron root up to the rounding of ``A @
    psi``.  Returns ``(rho, (lo, hi))`` with ``rho`` the bracket's midpoint.
    Where ``psi`` spans many orders of magnitude (the shop at a few hundred
    states) the unpolished eigenvalue can miss the root by 1e-11."""
    lam, psi = dense_principal(A, anchor_idx)
    shift = lam + 1e-7 * (1.0 + abs(lam))
    lu = scipy.linalg.lu_factor(shift * np.eye(len(A)) - A)
    for _ in range(2):
        psi = np.abs(scipy.linalg.lu_solve(lu, psi))
        psi /= psi[anchor_idx]
    ratios = (A @ psi) / psi
    lo, hi = float(ratios.min()), float(ratios.max())
    return 0.5 * (lo + hi), (lo, hi)


def reference_power_eigenpair(A, anchor_idx=0, tol=1e-10, max_iter=None):
    """Reference linear solver: shifted power iteration, no Noda steps.

    Power iteration on ``A + alpha I`` with ``alpha = max_i(-A_ii) + 1``
    (dense or sparse ``A``), stopping when the Collatz-Wielandt bracket is
    narrower than ``tol``.  This is the algorithm the library used before
    its shift-invert kernel; it needs tens of thousands of steps at a few
    hundred states, so keep ``n`` small.  Returns ``(rho, psi)`` with
    ``psi`` scaled to one at ``anchor_idx``.
    """
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A, dtype=float)
    n = A.shape[0]
    alpha = max(0.0, float((-np.diag(A)).max())) + 1.0
    M = A + alpha * np.eye(n)
    if max_iter is None:
        max_iter = 100 * n + 10_000
    psi = np.ones(n)
    for _ in range(max_iter):
        y = M @ psi
        ratios = y / psi
        lo, hi = ratios.min(), ratios.max()
        psi = y / y[anchor_idx]
        if hi - lo <= tol:
            return 0.5 * (lo + hi) - alpha, psi
    raise AssertionError("reference power iteration did not converge")


def dense_response_rows(model: GameModel, n, opponent, player):
    """Opponent-averaged tilted rows per own action on states 1..n.

    Independent of rsgame.generator: entry ``[i - 1][a]`` is the dense row
    ``sum_b w(b) (q^{a,b}_i. + c^{a,b}(i) e_i)`` with off-truncation
    columns dropped and the full-space diagonal kept.
    """
    rows = []
    for i in range(1, n + 1):
        w = opponent.weights(i)
        per_action = []
        for a in range(model.n_actions(player, i)):
            r = np.zeros(n)
            for b, wb in enumerate(w):
                if wb == 0.0:
                    continue
                ia, ib = (a, b) if player == 1 else (b, a)
                row = model.row(i, ia, ib)
                for j, rate in zip(row.cols, row.rates):
                    if j <= n:
                        r[j - 1] += wb * rate
                r[i - 1] += wb * (row.diag + model.cost(player, i, ia, ib))
            per_action.append(r)
        rows.append(per_action)
    return rows


def reference_best_response(model: GameModel, n, opponent, player,
                            tol=1e-10, max_iter=None):
    """Reference best response: monotone nonlinear power iteration.

    Each sweep applies every own action's shifted row and keeps the
    pointwise minimum, stopping on the Collatz-Wielandt bracket of the
    min-operator; no policy iteration and no linear solves.  This is the
    algorithm the library used before policy iteration.  Returns
    ``(rho, psi, selector)`` with ``selector[i - 1]`` the lowest-index
    minimizing action at state ``i``.
    """
    rows = dense_response_rows(model, n, opponent, player)
    alpha = max(0.0, max(-r[i] for i, per in enumerate(rows) for r in per)) + 1.0
    shifted = [np.array(per) + alpha * np.eye(n)[i] for i, per in enumerate(rows)]
    if max_iter is None:
        max_iter = 100 * n + 10_000
    anchor_idx = model.anchor - 1
    psi = np.ones(n)
    for _ in range(max_iter):
        y = np.array([(per @ psi).min() for per in shifted])
        ratios = y / psi
        lo, hi = ratios.min(), ratios.max()
        psi = y / y[anchor_idx]
        if hi - lo <= tol:
            selector = [int(np.argmin(per @ psi)) for per in shifted]
            return 0.5 * (lo + hi) - alpha, psi, selector
    raise AssertionError("reference best-response iteration did not converge")


def enumerate_selectors(sizes):
    """All pure selectors as index tuples over per-state grid sizes."""
    if not sizes:
        yield ()
        return
    for head in range(sizes[0]):
        for rest in enumerate_selectors(sizes[1:]):
            yield (head,) + rest


def _principal_left_right(A):
    vals, vr = scipy.linalg.eig(A)
    k = int(np.argmax(vals.real))
    rho = float(vals[k].real)
    psi = vr[:, k].real
    if psi[0] < 0:
        psi = -psi
    valsl, vl = scipy.linalg.eig(A.T)
    kl = int(np.argmax(valsl.real))
    w = vl[:, kl].real
    if w.sum() < 0:
        w = -w
    return rho, psi, w


def unbiased_mc_instance(rng, n_states=None, rate_scale=0.12, cost_scale=0.15,
                         horizon=200.0):
    """Single-action chain whose finite-horizon estimator bias vanishes.

    The plain ``(1/T) log E[exp(integral c)]`` estimator carries an O(1/T)
    bias ``log(psi(start) * (w.1) / (w.psi)) / T`` from the left/right
    principal eigenvectors.  One cost entry is tuned by bisection until
    that constant is exactly one at the start state, so at any horizon the
    estimator is unbiased and the Monte-Carlo/eigenvalue comparison tests
    pure sampling noise.  Returns ``(model, start, rho)`` with ``rho``
    from the dense oracle.
    """
    import scipy.optimize

    from rsgame.model import tabular_model, truncate, uniform_strategy
    from rsgame.generator import assemble

    if n_states is None:
        n_states = int(rng.integers(3, 8))
    start = 1
    grids = {(p, i): [0.0] for p in (1, 2) for i in range(1, n_states + 1)}
    rates = {}
    costs = cost_scale * rng.random(n_states)
    for i in range(1, n_states + 1):
        succ = i % n_states + 1
        row = {succ: rate_scale * (0.4 + rng.random())}
        for j in range(1, n_states + 1):
            if j not in (i, succ) and rng.random() < 0.5:
                row[j] = rate_scale * rng.random()
        row[i] = -sum(row.values())
        rates[(i, 0, 0)] = row

    def build(cost_vec):
        table = {(i, 0, 0): (cost_vec[i - 1], 0.0)
                 for i in range(1, n_states + 1)}
        return tabular_model(rates, table, grids, n_states=n_states)

    def log_bias_constant(cost_vec):
        model = build(cost_vec)
        trunc = truncate(model, n_states)
        A = assemble(model, trunc, uniform_strategy(model, 1),
                     uniform_strategy(model, 2), 1).A.toarray()
        rho, psi, w = _principal_left_right(A)
        return np.log(psi[start - 1] * w.sum() / (w @ psi)), rho

    for k in range(n_states):
        def f(s, k=k):
            c = costs.copy()
            c[k] = s
            return log_bias_constant(c)[0]

        if f(0.0) * f(4.0 * cost_scale) < 0:
            costs[k] = scipy.optimize.brentq(f, 0.0, 4.0 * cost_scale,
                                             xtol=1e-14)
            break

    final, rho = log_bias_constant(costs)
    assert abs(final) < 1e-10, "bias tuning failed for this draw"
    return build(costs), start, rho


def reference_jump_row(model: GameModel, v1, v2, i):
    """State ``i``'s strategy-averaged jump row, summed pair by pair.

    Independent of rsgame.generator: pure action pairs run in
    lexicographic order and each target's rate accumulates from zero, the
    order the action-pair contraction sums in.  Returns ``(exit rate,
    targets, cumulative rates, total rate, c1, c2)``.
    """
    off, diag, c1, c2 = {}, 0.0, 0.0, 0.0
    for ia, wa in enumerate(v1.weights(i)):
        for ib, wb in enumerate(v2.weights(i)):
            w = wa * wb
            if w == 0.0:
                continue
            row = model.row(i, ia, ib)
            for j, r in zip(row.cols.tolist(), row.rates.tolist()):
                off[j] = off.get(j, 0.0) + w * r
            diag += w * row.diag
            a, b = model.costs(i, ia, ib)
            c1 += w * a
            c2 += w * b
    targets = sorted(j for j, r in off.items() if r != 0.0)
    cum = np.cumsum([off[j] for j in targets]).tolist()
    return (-float(diag), targets, cum, cum[-1] if cum else 0.0,
            float(c1), float(c2))


def _stream(seed, path):
    """Uniforms of path ``path``'s stream, drawn 256 at a time."""
    rng = path_rng(seed, path)
    while True:
        yield from rng.random(256)


def reference_hit(model: GameModel, v1, v2, player, start, targets, seed,
                  path, rho, tau_cap=1e6, kill_above=None):
    """One hitting-check path, one jump per iteration.

    Returns ``(outcome, z, end state)`` with outcome ``"hit"``,
    ``"killed"`` or ``"capped"``; ``z`` integrates ``c_player - rho``.
    """
    rows = {}
    uniforms = _stream(seed, path)
    t = 0.0
    state = start
    z = 0.0
    while True:
        if state in targets:
            return "hit", z, state
        if kill_above is not None and state > kill_above:
            return "killed", z, state
        if state not in rows:
            rows[state] = reference_jump_row(model, v1, v2, state)
        exit_rate, tg, cum, total, c1, c2 = rows[state]
        c = (c1 if player == 1 else c2) - rho
        if exit_rate == 0.0:
            return "capped", z, state  # absorbing off-target: never hits
        u_hold = next(uniforms)
        u_jump = next(uniforms)
        dt = -math.log1p(-u_hold) / exit_rate
        if t + dt > tau_cap:
            return "capped", z, state
        t_next = t + dt
        z += (t_next - t) * c
        t = t_next
        k = bisect_right(cum, u_jump * total)
        state = tg[min(k, len(tg) - 1)]


def reference_hitting_row(model: GameModel, v1, v2, player, psi, rho,
                          targets, start, first, n_paths, seed, tau_cap=1e6,
                          kill_above=None):
    """Hitting estimate of one start over paths ``first .. first +
    n_paths - 1`` with :func:`reference_hit`: ``(estimate, hits, killed,
    capped)``, reduced in path order as the hitting check reduces."""
    logs = np.full(n_paths, -np.inf)
    counts = {"hit": 0, "killed": 0, "capped": 0}
    for p in range(n_paths):
        outcome, z, end = reference_hit(model, v1, v2, player, start,
                                        targets, seed, first + p, rho,
                                        tau_cap, kill_above)
        counts[outcome] += 1
        if outcome == "hit":
            logs[p] = z + math.log(psi[end])
    estimate = float(np.exp(logsumexp(logs) - math.log(n_paths)))
    return estimate, counts["hit"], counts["killed"], counts["capped"]


def _lazy(rate_fn, cost_fn=lambda i, a, b: (0.5, 0.25), grid=(0.0, 1.0),
          n_states=None):
    return GameModel(rate_fn, cost_fn, lambda p, i: list(grid),
                     n_states=n_states)


def _long_rows(i, ia, ib):
    """Countable rows of ``(7 i + 3 ia + ib) % 301`` entries with rates in
    the hundreds, so some row sums land just inside and some just outside
    the conservativeness tolerance."""
    rng = np.random.default_rng([i, ia, ib])
    size = (7 * i + 3 * ia + ib) % 301
    targets = i + 1 + np.arange(size)
    rates = rng.uniform(1.0, 900.0, size)
    row = dict(zip(targets.tolist(), rates.tolist()))
    total = 0.0
    for r in rates.tolist():
        total += r
    row[i] = -total
    return row


def _bad_values_model():
    """Finite table with NaN, infinite and negative rates and costs, a
    non-conservative explicit diagonal and rows of up to 40 entries."""
    grids = {(p, i): [0.0, 1.0] for p in (1, 2) for i in range(1, 51)}
    rng = np.random.default_rng(7)
    rates, costs = {}, {}
    for i in range(1, 51):
        for ia in range(2):
            for ib in range(2):
                size = (i * 3 + ia + ib) % 41
                targets = rng.choice([j for j in range(1, 51) if j != i],
                                     size, replace=False)
                row = dict(zip(targets.tolist(),
                               rng.uniform(0.0, 2.0, size).tolist()))
                costs[(i, ia, ib)] = tuple(rng.uniform(0.0, 1.0, 2).tolist())
                rates[(i, ia, ib)] = row
    rates[(2, 0, 1)][5] = float("nan")
    rates[(3, 1, 1)][7] = -0.5
    rates[(4, 0, 0)][9] = float("inf")
    rates[(5, 1, 0)][11] = -float("inf")
    rates[(6, 0, 0)][6] = -1.0  # explicit diagonal that does not conserve
    costs[(7, 0, 1)] = (float("nan"), -2.0)
    costs[(8, 1, 1)] = (float("inf"), 0.0)
    return recorded_tabular(rates, costs, grids, n_states=50)


def scalar_shop(model: GameModel) -> GameModel:
    """A plain ``GameModel`` over the shop ``model``'s own ``rate_fn``,
    ``cost_fn`` and grids (``shop_row`` and ``shop_costs`` for one pair at a
    time): the reference for the shop's array blocks."""
    return GameModel(model._rate_fn, model._cost_fn, model._grids,
                     n_states=None, anchor=model.anchor, name=model.name,
                     meta=model.meta)


def _error_fields(exc) -> tuple:
    return type(exc), str(exc), exc.args


def store_fields(model: GameModel) -> list:
    """Every array of the model's pair store and cost store as dtype,
    shape and bytes, and every kept error as type, message and args."""
    rows, costs = model._rows, model._costs
    out = [rows.top, costs.top]
    for a in (rows.m1, rows.m2, rows.starts, rows.indptr, rows.cols,
              rows.rates, rows.diag, rows.total, costs.cost):
        out += [a.dtype.str, a.shape, a.tobytes()]
    out.append({i: [_error_fields(e) for e in errors]
                for i, errors in rows.empty.items()})
    for failed in (rows.failed, costs.failed):
        out.append({p: _error_fields(e) for p, e in sorted(failed.items())})
    return out


def shop_cases():
    """``(name, params)``: shop parameters on which the shop's array blocks
    are compared with :func:`scalar_shop`.  The last ones fail
    ``validate_shop_params`` and are built with ``model._shop_game``."""
    from rsgame.model import ShopParams

    def payoff1(i, u):
        return 0.05 * i * (0.5 + u) ** 2

    def payoff2(i, u):
        if i == 7:
            raise ValueError(f"no payoff at state {i}")
        return 0.03 * i + u

    return [
        ("default", ShopParams()),
        ("custom payoffs", ShopParams(payoff1=payoff1, payoff2=payoff2)),
        ("custom payoff 2 only", ShopParams(payoff2=lambda i, u: 0.01 * i)),
        ("custom boundary row", ShopParams(boundary_row={2: 0.3, 5: 0.01,
                                                         9: 1e-3})),
        ("coupled 1, 3, 7, 500", ShopParams(
            coupled_states=frozenset({1, 3, 7, 500}))),
        ("coupled 1, 2, 3, 4", ShopParams(coupled_states=frozenset(
            {1, 2, 3, 4}))),
        ("two actions", ShopParams(n_actions=2)),
        ("five actions, action_max 2.5", ShopParams(n_actions=5,
                                                    action_max=2.5)),
        ("integer params", ShopParams(sell_rate=3, buy_rate=1, fee1=0,
                                      fee2=1, action_max=2)),
        ("float32 rate", ShopParams(buy_rate=np.float32(1.1))),
        ("action_max 0", ShopParams(action_max=0.0)),
        ("one action", ShopParams(n_actions=1)),
        ("no actions", ShopParams(n_actions=0)),
        ("buy_rate 0", ShopParams(buy_rate=0.0)),
        ("negative zero rates", ShopParams(sell_rate=-0.0, buy_rate=-0.0)),
        ("sell_rate NaN", ShopParams(sell_rate=float("nan"))),
        ("negative action_max", ShopParams(action_max=-1.0)),
    ]


def store_corpus():
    """``(name, build, states)``: models (built fresh by ``build()``) and
    state lists on which the pair store is compared with the references."""
    from rsgame.model import (
        _shop_game,
        birth_death_model,
        shop_model,
        with_cost_shift,
    )

    def missing_diagonal(i, ia, ib):
        return {i + 1: 1.0} if (i, ia) == (2, 1) else {i + 1: 1.0, i: -1.0}

    def key_error(i, ia, ib):  # no row for ib = 1 at states 2, 5, 8, ...
        rows = {0: {i + 1: 2.0, i: -2.0}}
        return rows[ib if i % 3 == 2 else 0]

    def non_conservative(i, ia, ib):
        return {i + 1: 1.0, i: -1.0 + (1e-9 if (i, ia, ib) == (4, 1, 0) else 0.0)}

    def type_error(i, ia, ib):
        return {i + 1: 1.0, i: -1.0} if i != 3 else {i + 1: 1.0, i: None}

    def text_rate(i, ia, ib):
        return {i + 1: "x" if (i, ib) == (2, 1) else 1.0, i - 1: None, i: -1.0}

    def cost_error(i, ia, ib):
        if (i, ia, ib) == (3, 1, 1):
            raise ValueError("no cost at (3, 1, 1)")
        return (0.5, 0.5)

    def both_fail(i, ia, ib):
        if (i, ia, ib) == (3, 1, 0):
            raise KeyError((i, ia, ib))
        return {i + 1: 1.0, i: -1.0}

    def empty_grid(player, i):
        return [] if (player, i) == (1, 2) else [0.0, 1.0]

    shop = shop_model
    corpus = [
        ("shop 1..1000", shop, range(1, 1001)),
        ("shop 1..320", shop, range(1, 321)),
        ("shop 5..9", shop, range(5, 10)),
        ("shop [5, 3, 9]", shop, [5, 3, 9]),
        ("shop [2, 2, 1]", shop, [2, 2, 1]),
        ("digest game", digest_game, range(1, 51)),
        ("digest game [40, 3, 17]", digest_game, [40, 3, 17]),
        ("bad values", _bad_values_model, range(1, 51)),
        ("bad values 2..9", _bad_values_model, range(2, 10)),
        ("missing diagonal", lambda: _lazy(missing_diagonal, n_states=4),
         range(1, 5)),
        ("rate_fn KeyError", lambda: _lazy(key_error), range(1, 9)),
        ("non-conservative lazy row", lambda: _lazy(non_conservative),
         range(1, 7)),
        ("rate_fn TypeError", lambda: _lazy(type_error), range(1, 6)),
        ("rate that is text", lambda: _lazy(text_rate, n_states=4), range(1, 5)),
        ("cost_fn ValueError", lambda: _lazy(lambda i, a, b: {i: 0.0},
                                             cost_error), range(1, 5)),
        ("rate_fn and cost_fn fail at one pair", lambda: _lazy(
            both_fail, lambda i, a, b: cost_error(i, a, b + 1)), range(1, 5)),
        ("empty grid", lambda: GameModel(lambda i, a, b: {i: 0.0},
                                         lambda i, a, b: (0.0, 0.0),
                                         empty_grid, n_states=3), range(1, 4)),
        ("rows of 0..300 entries", lambda: _lazy(_long_rows, grid=(0.0, 1.0, 2.0)),
         range(1, 61)),
        ("finite rows of 0..300 entries", lambda: _lazy(
            _long_rows, grid=(0.0, 1.0, 2.0), n_states=60), range(1, 61)),
        ("birth-death", lambda: birth_death_model(
            [1.0, 2.0, 0.5, 0.0], [0.0, 1.0, 3.0, 2.0],
            [0.5, 1.0, 1.5, 2.0], [0.0, 0.1, 0.2, 0.3]), range(1, 5)),
        ("shifted shop", lambda: with_cost_shift(shop(), 2, 0.3), range(1, 41)),
        ("shifted digest game", lambda: with_cost_shift(digest_game(), 1, -0.7),
         range(1, 51)),
    ]
    for name, params in shop_cases()[1:]:
        corpus.append((f"shop, {name}", lambda params=params: _shop_game(
            params), range(1, 41)))
    for seed in range(4):
        n = 3 + 5 * seed
        corpus.append((f"random game {seed}", lambda seed=seed, n=n: random_game(
            np.random.default_rng(seed), n_states=n, m1=1 + seed % 3, m2=2),
            range(1, n + 1)))
    return corpus


def outcome(fn):
    """``("ok", value)``, or ``("raised", type, message)`` when ``fn``
    raises."""
    try:
        return "ok", fn()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def violation_fields(report) -> list:
    """Every violation as its fields, the magnitude by its bits."""
    return [(v.kind, v.state, v.a1, v.a2, v.target,
             np.float64(v.magnitude).tobytes()) for v in report.violations]


def table_fields(table) -> list:
    """Every field of a pair table as dtypes, shapes and bytes."""
    out = [table.states, table.rows.shape]
    for a in (table.m1, table.m2, table.state, table.a1, table.a2,
              table.starts, table.rows.indptr, table.rows.indices,
              table.rows.data, table.diag, table.cost):
        out += [a.dtype.str, a.shape, a.tobytes()]
    return out
