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

import copy
import json
import math
import operator
import sys
import weakref
from dataclasses import dataclass, field, fields
from functools import cache, partial
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
        """Row sum by the rule of :func:`_row_totals`; zero (to rounding)
        for a conservative row."""
        return float(_row_totals(np.array([0, self.rates.size]), self.rates,
                                 np.array([self.diag]))[0])


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

    Rows and costs live in one columnar pair store per model (see
    :class:`_PairStore`), filled one block of states at a time as states
    are asked for; :meth:`row` and :meth:`costs` read it.  The blocks come
    from :meth:`_row_blocks` and :meth:`_cost_block`, which call
    ``rate_fn`` and ``cost_fn`` once per pair (the shop model builds its
    blocks as arrays instead, and has no ``rate_fn``).
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
        self._rows = _PairStore()
        self._costs = _CostStore()
        self._grid_cache: dict = {}
        # sample_path's jump tables: strategy v1 -> strategy v2 -> chain
        self._chain_cache = weakref.WeakKeyDictionary()
        # the last frozen-opponent operator against each opponent strategy
        self._response_cache = weakref.WeakKeyDictionary()
        # generator.pair_table's last table
        self._pair_table = None

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
        """Row of pair ``(i, ia, ib)``: read-only views into the pair store.

        The store holds states ``1..top`` in one piece, so on a lazy model
        the first call at state ``i`` builds every row of states
        ``1..i`` not built yet, as one block.
        Raises the error its construction raised when the row failed to
        build (a missing diagonal, an error from ``rate_fn``, or, on a
        countable model, a row that is not conservative).
        """
        return self._rows.view(self._pair(i, ia, ib))

    def costs(self, i: int, ia: int, ib: int) -> tuple:
        """Both players' cost rates at pair ``(i, ia, ib)``.  Like
        :meth:`row`, the first call at state ``i`` builds the rows and costs
        of every state ``1..i`` not built yet."""
        return self._costs.value(self._pair(i, ia, ib, costs=True))

    def _built(self, top: int, costs: bool = False) -> "_PairStore":
        """The pair store with the rows of states ``1..top`` built, and
        this model's costs too when ``costs`` is set."""
        if not 1 <= top <= (self.n_states or top):
            raise ValueError(f"state {top} is not a state of the model")
        if top > self._rows.top:
            self._rows.fill(self, top)
        if costs and top > self._costs.top:
            self._costs.fill(self, top)
        return self._rows

    def _pair(self, i: int, ia: int, ib: int, costs: bool = False) -> int:
        """Store index of pair ``(i, ia, ib)``."""
        return self._built(i, costs).index(i, ia, ib)

    def _select(self, states: tuple):
        """Pair store (rows and costs built) and the index array of the
        pairs of ``states``, in their order."""
        s = np.asarray(states, dtype=np.int64)
        if s.min() < 1:
            raise ValueError(f"state {int(s.min())} is not a state of the model")
        store = self._built(int(s.max()), costs=True)
        return store, _ranges(store.starts[s - 1], store.starts[s])

    def _row_blocks(self, lo: int, hi: int):
        """The rows of states ``lo..hi``: :class:`_RowBlock` objects over
        consecutive runs of them, in state order.  This one yields a single
        block, from one ``rate_fn`` call per pair into plain lists, then one
        array per column.  Each row is read as documented above: off-
        diagonal targets ascending, zero rates dropped, values as floats."""
        states = range(lo, hi + 1)
        m1, m2, empty = [], [], {}
        for i in states:
            for player, sizes in ((1, m1), (2, m2)):
                try:
                    sizes.append(self.n_actions(player, i))
                except ValueError as exc:
                    empty.setdefault(i, []).append(_kept(exc))
                    sizes.append(0)
        rate_fn = self._rate_fn
        offs, values, diags, failed = [], [], [], {}
        for i, k1, k2 in zip(states, m1, m2):
            for ia in range(k1):
                for ib in range(k2):
                    try:
                        raw = rate_fn(i, ia, ib)
                        if i not in raw:
                            raise ValueError(
                                f"row at state {i} is missing its diagonal entry")
                        off = sorted([j for j, r in raw.items()
                                      if j != i and r != 0.0])
                        row = ([raw[j] for j in off], raw[i])
                    except Exception as exc:  # a row that fails to build is data
                        failed[len(diags)] = _kept(exc)
                        off, row = (), ((), math.nan)
                    offs.append(off)
                    values.append(row[0])
                    diags.append(row[1])
        try:
            cols, rates, diag = _row_arrays(offs, values, diags)
        except Exception:  # some row's values do not convert: find which
            for k in range(len(diags)):
                try:
                    _row_arrays(offs[k:k + 1], values[k:k + 1], diags[k:k + 1])
                except Exception as exc:
                    failed[k] = _kept(exc)
                    offs[k], values[k], diags[k] = (), (), math.nan
            cols, rates, diag = _row_arrays(offs, values, diags)
        indptr = np.zeros(len(offs) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, offs), np.int64, len(offs)),
                  out=indptr[1:])
        yield _RowBlock(np.array(m1, dtype=np.int64),
                        np.array(m2, dtype=np.int64), indptr, cols, rates,
                        diag, empty, failed)

    def _cost_block(self, lo: int, hi: int) -> tuple:
        """Both players' costs at the pairs of states ``lo..hi``, whose rows
        are built: a ``(pairs, 2)`` array in pair order and the errors that
        ``cost_fn`` raised, by pair within the block (their costs are NaN).
        This one calls ``cost_fn`` once per pair."""
        store, cost_fn = self._rows, self._cost_fn
        out, failed = [], {}
        for i, k1, k2 in zip(range(lo, hi + 1), store.m1[lo - 1:hi].tolist(),
                             store.m2[lo - 1:hi].tolist()):
            for ia in range(k1):
                for ib in range(k2):
                    try:
                        c1, c2 = cost_fn(i, ia, ib)
                        out.append((float(c1), float(c2)))
                    except Exception as exc:
                        failed[len(out)] = _kept(exc)
                        out.append((math.nan, math.nan))
        return np.array(out, dtype=float).reshape(-1, 2), failed

    def cost(self, player: int, i: int, ia: int, ib: int) -> float:
        return self.costs(i, ia, ib)[player - 1]

    def __repr__(self):
        size = self.n_states if self.is_finite else "countable"
        label = f" {self.name!r}" if self.name else ""
        return f"<GameModel{label} states={size} anchor={self.anchor}>"


# ---------------------------------------------------------------------------
# Pair store
# ---------------------------------------------------------------------------

class _Columns:
    """Arrays that grow at their end.  Capacity doubles, so a store built
    one state at a time still costs linear time."""

    def __init__(self):
        self._buffers: dict = {}

    def _append(self, **blocks):
        for name, block in blocks.items():
            used = getattr(self, name)
            n, need = len(used), len(used) + len(block)
            buf = self._buffers.get(name)
            if buf is None or need > len(buf):
                buf = np.empty((max(need, 2 * n),) + used.shape[1:], used.dtype)
                buf[:n] = used
                self._buffers[name] = buf
            buf[n:need] = block
            setattr(self, name, buf[:need])


class _RowBlock(NamedTuple):
    """Rows of consecutive states in pair order, as a model's block
    producer hands them to :meth:`_PairStore.fill`: each state's grid sizes,
    a CSR from 0 over the block's pairs (target ``cols``, ascending, and
    ``rates``) with each row's diagonal, the errors of each state's empty
    grids (by state) and the errors of the rows that failed to build (by
    pair within the block; such a row is empty, with a NaN diagonal)."""

    m1: np.ndarray
    m2: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    diag: np.ndarray
    empty: dict
    failed: dict


class _PairStore(_Columns):
    """Columnar rows of every pure action pair of states ``1..top``.

    Pairs run over ``(state, ia, ib)`` in lexicographic order: state ``i``
    has ``m1[i - 1] x m2[i - 1]`` actions and owns pairs
    ``starts[i - 1]:starts[i]``; pair ``p`` owns entries
    ``indptr[p]:indptr[p + 1]`` of ``cols`` (target states, ascending) and
    ``rates``, with diagonal ``diag[p]`` and row total ``total[p]`` (by
    :func:`_row_totals`, as ``Row.total()``).  A row that failed to build
    is empty, with a NaN diagonal, and ``failed[p]`` keeps its error; ``empty[i]``
    holds the errors of the empty action grids of state ``i``, which then
    owns no pairs.  Errors are kept without a traceback and raised as
    fresh copies (see :func:`_kept` and :func:`_raise`), so they never tie
    the store to the model or its callers.

    A table model hands its arrays over complete.  A lazy model's store is
    filled one block of requested states at a time; rows handed out are
    read-only views into it.
    """

    def __init__(self, top=0, m1=None, m2=None, starts=None, indptr=None,
                 cols=None, rates=None, diag=None):
        super().__init__()
        index = np.zeros(0, dtype=np.int64)
        self.top = top
        self.m1 = index if m1 is None else m1
        self.m2 = index if m2 is None else m2
        self.starts = np.zeros(1, dtype=np.int64) if starts is None else starts
        self.indptr = np.zeros(1, dtype=np.int64) if indptr is None else indptr
        self.cols = index if cols is None else cols
        self.rates = np.zeros(0) if rates is None else rates
        self.diag = np.zeros(0) if diag is None else diag
        self.total = _row_totals(self.indptr, self.rates, self.diag)
        self.failed: dict = {}
        self.empty: dict = {}

    def fill(self, model: GameModel, top: int) -> None:
        """Build the rows of states ``self.top + 1 .. top`` from the blocks
        of the model's ``_row_blocks``."""
        for block in model._row_blocks(self.top + 1, top):
            first = len(self.diag)
            self._append(
                m1=block.m1, m2=block.m2,
                starts=self.starts[-1] + np.cumsum(block.m1 * block.m2),
                indptr=self.indptr[-1] + block.indptr[1:], cols=block.cols,
                rates=block.rates, diag=block.diag,
                total=_row_totals(block.indptr, block.rates, block.diag))
            self.top += block.m1.size
            self.empty.update(block.empty)
            self.failed.update((first + k, exc)
                               for k, exc in block.failed.items())
            if not model.is_finite:
                # countable rows can never be validated up front, so
                # conservativeness is enforced as they are built
                total = self.total[first:]
                for k in np.flatnonzero(np.abs(total) > ROW_SUM_TOL).tolist():
                    p = first + k
                    if p not in self.failed:
                        i, ia, ib = self.key(p)
                        self.failed[p] = ValueError(
                            f"lazy row at state {i}, actions ({ia},{ib}) is "
                            f"not conservative (defect {float(total[k]):.3e})")

    def index(self, i: int, ia: int, ib: int) -> int:
        """Index of pair ``(i, ia, ib)``; a ``ValueError`` when the store
        does not hold it."""
        if not 1 <= i <= self.top:
            raise ValueError(f"state {i} is not in the pair store")
        if i in self.empty:
            _raise(self.empty[i][0])
        k1, k2 = int(self.m1[i - 1]), int(self.m2[i - 1])
        if not (0 <= ia < k1 and 0 <= ib < k2):
            raise ValueError(f"no action pair ({ia},{ib}) at state {i}: the "
                             f"grids have {k1} and {k2} actions")
        return int(self.starts[i - 1]) + ia * k2 + ib

    def key(self, p: int) -> tuple:
        """``(i, ia, ib)`` of pair ``p``."""
        i = int(np.searchsorted(self.starts, p, side="right"))
        ia, ib = divmod(p - int(self.starts[i - 1]), int(self.m2[i - 1]))
        return i, ia, ib

    def view(self, p: int) -> Row:
        """Read-only row of pair ``p``."""
        if p in self.failed:
            _raise(self.failed[p])
        a, b = self.indptr[p], self.indptr[p + 1]
        cols, rates = self.cols[a:b], self.rates[a:b]
        cols.setflags(write=False)
        rates.setflags(write=False)
        return Row(cols=cols, rates=rates, diag=float(self.diag[p]))

    def entries(self, pairs):
        """Index array of the entries of ``pairs`` (an index array) and
        their CSR ``indptr`` from 0."""
        lo, hi = self.indptr[pairs], self.indptr[pairs + 1]
        indptr = np.zeros(lo.size + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=indptr[1:])
        return _ranges(lo, hi), indptr

    def check(self, states: tuple, pairs, costs: "_CostStore") -> None:
        """Raise the first error of ``states``: an empty action grid, then
        the row or costs of ``pairs`` that failed first, in pair order."""
        if self.empty:
            for i in states:
                if i in self.empty:
                    _raise(self.empty[i][0])
        failed = {**costs.failed, **self.failed}
        if failed:
            hit = np.isin(pairs, np.fromiter(failed, np.int64, len(failed)))
            if hit.any():
                _raise(failed[int(pairs[np.argmax(hit)])])


class _CostStore(_Columns):
    """Both players' cost rates of the pairs of states ``1..top``, in the
    pair order of the model's :class:`_PairStore`.  An error from
    ``cost_fn`` is kept in ``failed`` and raised when the pair's costs are
    read."""

    def __init__(self, top=0, cost=None):
        super().__init__()
        self.top = top
        self.cost = np.zeros((0, 2)) if cost is None else cost
        self.failed: dict = {}

    def fill(self, model: GameModel, top: int) -> None:
        """Costs of states ``self.top + 1 .. top``, whose rows are built,
        from the model's ``_cost_block``."""
        cost, failed = model._cost_block(self.top + 1, top)
        first = len(self.cost)
        self._append(cost=cost)
        self.failed.update((first + k, exc) for k, exc in failed.items())
        self.top = top

    def value(self, p: int) -> tuple:
        if p in self.failed:
            _raise(self.failed[p])
        return tuple(self.cost[p].tolist())


def _kept(exc: Exception) -> Exception:
    """``exc`` stored as data, without its traceback and chain.  Each frame
    in them holds its caller's frame, up to the one that filled the store
    and with it the model and the store, which would then hold themselves
    in a cycle."""
    exc.__cause__ = exc.__context__ = None
    return exc.with_traceback(None)


def _raise(exc: Exception):
    """Raise the stored error ``exc`` afresh, as a copy: a raise adds the
    frames it passes through to the traceback of what it raises, and the
    stored error must not collect them."""
    try:
        fresh = copy.copy(exc)
    except Exception:  # its __init__ does not take the error's args
        fresh = type(exc).__new__(type(exc), *exc.args)
        fresh.__dict__.update(vars(exc))
    try:
        raise fresh
    finally:
        fresh = None  # its traceback holds this frame


def _row_arrays(offs, values, diags):
    """Targets, rates and diagonals of rows given as lists, converted the
    way a single row is: targets to int64, rates and diagonals to float."""
    return (np.array(list(chain.from_iterable(offs)), dtype=np.int64),
            np.array(list(chain.from_iterable(values)), dtype=float),
            np.array([float(d) for d in diags], dtype=float))


def _ranges(lo, hi) -> np.ndarray:
    """``arange(lo[k], hi[k])`` for every ``k``, concatenated."""
    size = hi - lo
    ends = np.cumsum(size)
    return np.repeat(lo - (ends - size), size) + np.arange(
        int(ends[-1]) if size.size else 0)


def _row_totals(indptr, values, diag) -> np.ndarray:
    """Row sum of every row of a CSR: its values added one by one, in
    order, from 0.0 (``np.bincount`` adds its weights in array order),
    plus its diagonal.  The total is NaN, without a warning, where
    infinities cancel, and a NaN diagonal is the total as it is."""
    owner = np.repeat(np.arange(diag.size), np.diff(indptr))
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(np.isnan(diag), diag,
                        diag + np.bincount(owner, values, diag.size))


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
    if not states:
        return ValidationReport(violations=(), checked_states=states)
    store, pairs = model._select(states)
    costs = model._costs
    entries, indptr = store.entries(pairs)
    cols, rates = store.cols[entries], store.rates[entries]
    total, diag, cost = store.total[pairs], store.diag[pairs], costs.cost[pairs]
    # the checks in vector form; Python runs over the flagged pairs only
    bad_rate = ~(np.isfinite(rates) & (rates >= 0))
    flagged = ((np.abs(total) > ROW_SUM_TOL) | ~np.isfinite(diag)
               | ~(np.isfinite(cost) & (cost >= 0)).all(axis=1))
    flagged[np.repeat(np.arange(pairs.size), np.diff(indptr))[bad_rate]] = True
    failed = {**costs.failed, **store.failed}
    if failed:
        flagged |= np.isin(pairs, np.fromiter(failed, np.int64, len(failed)))
    s = np.asarray(states, dtype=np.int64)
    position = np.repeat(np.arange(s.size), store.m1[s - 1] * store.m2[s - 1])
    flagged = np.flatnonzero(flagged)
    events = sorted([(k, -1) for k, i in enumerate(states) if i in store.empty]
                    + list(zip(position[flagged].tolist(), flagged.tolist())))
    bad = []
    for k, q in events:
        i = states[k]
        if q < 0:
            bad += [Violation("empty action grid", i)] * len(store.empty[i])
            continue
        p = int(pairs[q])
        ia, ib = divmod(p - int(store.starts[i - 1]), int(store.m2[i - 1]))
        exc = store.failed.get(p)
        if exc is not None:
            if not isinstance(exc, (ValueError, KeyError)):
                _raise(exc)
            bad.append(Violation(f"row construction failed ({exc})", i, ia, ib))
            continue
        a, b = indptr[q], indptr[q + 1]
        wrong = bad_rate[a:b]
        for j, r in zip(cols[a:b][wrong].tolist(), rates[a:b][wrong].tolist()):
            kind = "negative" if r < 0 else "non-finite"
            bad.append(Violation(f"{kind} off-diagonal rate", i, ia, ib, j, r))
        defect = float(total[q])  # not finite when a rate is not
        if abs(defect) > ROW_SUM_TOL:
            bad.append(Violation("non-conservative row", i, ia, ib, None,
                                 defect))
        exit_rate = -float(diag[q])
        if not math.isfinite(exit_rate):
            bad.append(Violation("unbounded exit rate", i, ia, ib, None,
                                 exit_rate))
        if p in costs.failed:
            _raise(costs.failed[p])
        for player, c in zip((1, 2), cost[q].tolist()):
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

    :meth:`table` gives the weights of a list of states as one flat array,
    built once per list, and :meth:`weights` is the table of one state.
    Tables come from a producer ``states -> (sizes, flat, error)``: each
    state's action count and the weights, state after state, up to the
    first state it cannot fill, and that state's error (None when it
    fills them all).  A ``weights_fn`` is read state by state; the
    built-in strategies fill their tables as arrays.  The producer holds
    no reference to the strategy, so that a strategy is freed as soon as
    it is dropped, and keeps its errors without their tracebacks.
    """

    def __init__(self, player: int, weights_fn, name: str = ""):
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        self.player = player
        self.name = name
        self._block = partial(_read, weights_fn)
        self._tables: dict = {}
        self._weights: dict = {}

    @classmethod
    def _from_block(cls, player: int, block, name: str) -> "StationaryStrategy":
        """A built-in strategy, whose tables come from ``block``."""
        strategy = cls(player, None, name)
        strategy._block = block
        return strategy

    def weights(self, i: int) -> np.ndarray:
        """The weights at state ``i``: a view into a table already built
        that holds ``i`` (the table is cut into its states once), or else
        the table of ``i`` alone."""
        w = self._weights.get(i)
        if w is None:
            states = next((s for s in self._tables if i in s), None)
            if states is None:
                w = self._weights[i] = self.table((i,))[1]
            else:
                sizes, flat = self._tables[states]
                self._weights.update(
                    zip(states, np.split(flat, np.cumsum(sizes)[:-1])))
                w = self._weights[i]
        return w

    def table(self, states: Iterable[int], sizes=None) -> tuple:
        """``(sizes, flat)``: the action count of each of ``states`` and
        their weights as one read-only array, state after state.  Raises
        the error of the first state whose weights fail; given the grid
        ``sizes`` the weights must fit, a state before it whose vector has
        another length raises first, naming the state."""
        states = tuple(states)
        own, flat, exc = self._table(states)
        if sizes is not None:
            wrong = np.flatnonzero(own != sizes[:own.size])
            if wrong.size:
                k = int(wrong[0])
                raise ValueError(
                    f"strategy vector for player {self.player} at state "
                    f"{states[k]} has {own[k]} entries but the action grid "
                    f"has {sizes[k]}")
        if exc is not None:
            _raise(exc)
        return own, flat

    def _table(self, states: tuple) -> tuple:
        """``(sizes, flat, error)``: the table of the states before the
        first whose weights fail, and that state's error (None when none
        fails).  Whole tables of more than one state are kept, by list of
        states; :meth:`weights` keeps single states."""
        hit = self._tables.get(states)
        if hit is not None:
            return hit + (None,)
        sizes, flat, exc = self._block(states)
        bad = _off_simplex(sizes, flat)
        if bad.any():
            k = int(bad.argmax())
            lo = int(sizes[:k].sum())
            exc = _simplex_error(states[k], flat[lo:lo + sizes[k]])
            sizes, flat = sizes[:k], flat[:lo]
        flat = np.maximum(flat, 0.0)
        flat.setflags(write=False)
        if exc is None and len(states) > 1:
            self._tables[states] = (sizes, flat)
        return sizes, flat, exc

    def key(self, states: Iterable[int], quantum: float = 1e-12) -> tuple:
        """Quantized, hashable snapshot over ``states`` (cycle detection):
        ``round(w / quantum)`` for every weight, one tuple per state.  The
        states before the first that fails are rounded first, so a weight
        that does not round (NaN) there raises first."""
        sizes, flat, exc = self._table(tuple(states))
        ints = list(map(int, np.rint(flat / quantum).tolist()))
        if exc is not None:
            _raise(exc)
        return tuple(map(tuple, _split(ints, sizes)))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<StationaryStrategy player={self.player}{label}>"


def _read(weights_fn, states: tuple) -> tuple:
    """The table producer of a ``weights_fn``: one call per state."""
    parts = []
    for i in states:
        try:
            w = np.asarray(weights_fn(i), dtype=float)
            if w.ndim != 1:
                raise _not_a_vector(i)
        except Exception as exc:
            return _joined(parts) + (_kept(exc),)
        parts.append(w)
    return _joined(parts) + (None,)


def _joined(parts) -> tuple:
    """Sizes and concatenation of per-state weight vectors."""
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    return sizes, np.concatenate(parts) if parts else np.zeros(0)


def _split(values: list, sizes) -> list:
    """``values`` cut into consecutive lists of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return [values[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _not_a_vector(i) -> ValueError:
    return ValueError(f"strategy weights at state {i} must be a vector")


def _off_simplex(sizes, flat) -> np.ndarray:
    """States whose weights are not a probability vector: a weight below
    ``-SIMPLEX_TOL``, or a sum (the weights added one by one, in order,
    from 0.0) further than ``SIMPLEX_TOL`` from one.  A NaN passes."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    negative = np.bincount(owner[flat < -SIMPLEX_TOL], minlength=sizes.size)
    total = np.bincount(owner, flat, sizes.size)
    return (negative > 0) | (np.abs(total - 1.0) > SIMPLEX_TOL)


def _simplex_error(i, w: np.ndarray) -> ValueError:
    """The error of the weights ``w`` at state ``i``, off the simplex."""
    if np.any(w < -SIMPLEX_TOL):
        return ValueError(f"negative strategy weight at state {i}")
    return ValueError(f"strategy weights at state {i} sum to {w.sum()!r}, not 1")


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


def _selector(player: int, sel, counts) -> StationaryStrategy:
    """Pure strategy taking action ``sel[i - 1]`` at each state ``i`` of
    ``1..len(sel)``, where the grid has ``counts[i - 1]`` actions, and
    undefined elsewhere."""
    n = len(sel)

    def block(states):
        exc = None
        if states and not 1 <= min(states) <= max(states) <= n:
            stop = next(k for k, i in enumerate(states) if not 1 <= i <= n)
            exc = ValueError(f"selector undefined outside truncation "
                             f"(state {states[stop]})")
            states = states[:stop]
        at = np.asarray(states, dtype=np.int64) - 1
        sizes = counts[at]
        flat = np.zeros(int(sizes.sum()))
        flat[np.cumsum(sizes) - sizes + sel[at]] = 1.0
        return sizes, flat, exc

    return StationaryStrategy._from_block(player, block, "pure")


def uniform_strategy(model: GameModel, player: int) -> StationaryStrategy:
    def block(states):
        sizes, exc = [], None
        for i in states:
            try:
                sizes.append(model.n_actions(player, i))
            except Exception as err:
                exc = _kept(err)
                break
        sizes = np.array(sizes, dtype=np.int64)
        return sizes, np.repeat(1.0 / sizes, sizes), exc

    return StationaryStrategy._from_block(player, block, "uniform")


def tabular_strategy(model: GameModel, player: int,
                     table: Mapping[int, Sequence[float]],
                     name: str = "tabular") -> StationaryStrategy:
    """Strategy given by an explicit per-state table of weight vectors."""
    fixed = {i: np.asarray(w, dtype=float) for i, w in table.items()}
    entries = list(fixed.values())
    return _tabular(model, player, list(fixed),
                    np.fromiter((w.size for w in entries), np.int64,
                                len(entries)),
                    np.concatenate([w.ravel() for w in entries] or [[]]),
                    [k for k, w in enumerate(entries) if w.ndim != 1], name)


def _tabular(model: GameModel, player: int, keys: list, sizes, flat,
             odd: list, name: str) -> StationaryStrategy:
    """Strategy whose ``k``-th table entry, at state ``keys[k]``, is
    ``flat[offs[k]:offs[k] + sizes[k]]``, unless ``k`` is one of the
    entries in ``odd`` that are not vectors.  The tables hold arrays only,
    not the model."""
    for i, m in zip(keys, sizes.tolist()):
        if m != model.n_actions(player, i):
            raise ValueError(
                f"table entry at state {i} has {m} weights but the grid "
                f"has {model.n_actions(player, i)} actions")
    index = {i: k for k, i in enumerate(keys)}
    offs = np.cumsum(sizes) - sizes
    # entry -1 stands for the states not in the table; it, and the entries
    # that are not vectors, fill no weights
    unfilled = np.zeros(len(keys) + 1, dtype=bool)
    unfilled[odd + [-1]] = True

    def block(states):
        at = np.fromiter((index.get(i, -1) for i in states), np.int64,
                         len(states))
        bad = np.flatnonzero(unfilled[at])
        exc = None
        if bad.size:
            k = int(bad[0])
            exc = (ValueError(f"strategy table has no entry for state "
                              f"{states[k]}") if at[k] < 0
                   else _not_a_vector(states[k]))
            at = at[:k]
        lo, own = offs[at], sizes[at]
        return own, flat[_ranges(lo, lo + own)], exc

    return StationaryStrategy._from_block(player, block, name)


def mix_strategies(model: GameModel, a: StationaryStrategy,
                   b: StationaryStrategy, weight_a: float,
                   states: Iterable[int]) -> StationaryStrategy:
    """Tabular convex combination ``weight_a * a + (1 - weight_a) * b``,
    mixed over the tables of ``states``.  Raises the first error of either
    strategy in state order (``a``'s first at one state), or names the
    first state where their vectors differ in length."""
    if a.player != b.player:
        raise ValueError("cannot mix strategies of different players")
    if not (0.0 <= weight_a <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    states = tuple(states)
    sa, wa, exc_a = a._table(states)
    sb, wb, exc_b = b._table(states)
    stop = min(sa.size, sb.size)
    wrong = np.flatnonzero(sa[:stop] != sb[:stop])
    if wrong.size:
        k = int(wrong[0])
        raise ValueError(f"cannot mix strategies whose vectors at state "
                         f"{states[k]} have {sa[k]} and {sb[k]} entries")
    if stop < len(states):
        _raise(exc_a if sa.size == stop else exc_b)
    return _tabular(model, a.player, list(states), sa,
                    weight_a * wa + (1.0 - weight_a) * wb, [], "mixed")


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

    ``W`` is the Lyapunov weight (``W >= 1``) of both drift checks.
    Exactly one of ``gamma`` (bounded-cost variant) or ``ell`` (norm-like
    rate, for unbounded costs) should be given for the killed-drift check.
    """

    W: Callable[[int], float]
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    C4: float = 0.0
    gamma: float | None = None
    ell: Callable[[int], float] | None = None
    kappa_set: frozenset = frozenset()
    tail_certified: bool = False
    note: str = ""


# ---------------------------------------------------------------------------
# Shop inventory model
# ---------------------------------------------------------------------------

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

    On construction the float fields become Python floats, so that a
    ``np.float32`` or an integer past 2**53 is computed in float64 from its
    value, and ``n_actions`` and each coupled state ints (``operator.index``).
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

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        object.__setattr__(self, "n_actions", operator.index(self.n_actions))
        object.__setattr__(self, "coupled_states", frozenset(
            map(operator.index, self.coupled_states)))

    def payoff(self, player: int, i: int, u: float) -> float:
        """``payoff_k(i, u)``; by default ``fee_k * i * (1/4 + u / (2 *
        action_max))``, which also takes numpy arrays ``i`` and ``u``."""
        fn = self.payoff1 if player == 1 else self.payoff2
        if fn is not None:
            return fn(i, u)
        fee = self.fee1 if player == 1 else self.fee2
        return fee * i * (0.25 + 0.5 * u / self.action_max)

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
        with np.errstate(all="ignore"):  # an infinite action_max gives NaN
            full = np.linspace(0.0, self.action_max, self.n_actions)
        if _shop_grid_state(i) == 1:
            return full[full > 0.0] if player == 1 else np.array([0.0])
        return full


def _shop_grid_state(i):
    """The state whose action grids the shop's state ``i`` (or each of an
    array of states) has: 1 at state 1, 2 elsewhere (see ShopParams.grid)."""
    return 2 - (i == 1)


def _shop_actions(model: GameModel, i, a1, a2) -> tuple:
    """Both players' action values at the pairs ``(i, a1, a2)`` (arrays) of
    the shop ``model``, reading state 1's grids only when some pair lies
    there and state 2's only when some pair lies elsewhere."""
    grid_state = _shop_grid_state(i)
    u1, u2 = np.empty(grid_state.size), np.empty(grid_state.size)
    for s in (1, 2):
        at = grid_state == s
        if at.any():
            u1[at] = model.action_values(1, s)[a1[at]]
            u2[at] = model.action_values(2, s)[a2[at]]
    return u1, u2


def shop_drift_margin(params: ShopParams) -> float:
    """Inward drift coefficient of the weighted chain.

    Equals ``sell_rate * (1 - exp(-theta)) - buy_rate * (exp(theta) - 1)``;
    positive exactly when the exponential weight ``exp(theta * i)`` drifts
    down, which is what the cost-fee bound in condition (IV) compares
    against.
    """
    th = params.theta
    try:
        return (params.sell_rate * (1.0 - math.exp(-th))
                - params.buy_rate * (math.exp(th) - 1.0))
    except OverflowError:  # |theta| past about 709.8: no inward drift
        return -math.inf


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
    bad = [("finite", f"{f.name} must be finite, got {getattr(params, f.name)}")
           for f in fields(params)
           if f.type == "float" and not math.isfinite(getattr(params, f.name))]
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
    th2, tol = 2.0 * params.theta, params.boundary_tail_tol
    # the default row's cutoff is about -log(tol (1 - exp(-th2))) / th2
    if params.boundary_row is None and th2 > 0 and not (
            tol > 0 and -(math.log(tol) + math.log(-math.expm1(-th2))) / th2
            <= _MAX_STATES):
        bad.append(("boundary row", "need boundary_tail_tol > 0 and a "
                                    f"cutoff at most {_MAX_STATES}"))
    if params.boundary_row is not None:
        for j, r in params.boundary_row.items():
            if j < 2:
                bad.append(("boundary row", f"target {j} must be >= 2"))
            elif not r > 0:  # NaN too
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


def shop_row(params: ShopParams, i: int, u1: float, u2: float) -> dict:
    """Raw transition row ``{j: rate}``, diagonal included, of the shop
    model at state ``i`` under action values ``(u1, u2)`` (no parameter
    validation): the formula the shop model's array blocks follow."""
    if i == 1:
        return _shop_boundary_row(params)
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
    # each grid state's grids in Python floats: cheaper per pair than
    # numpy, and raising where it warns
    @cache
    def grids(s):
        return params.grid(1, s).tolist(), params.grid(2, s).tolist()

    def cost_fn(i, ia, ib):
        g1, g2 = grids(_shop_grid_state(i))
        return shop_costs(params, i, g1[ia], g2[ib])

    return _ShopGame(params, cost_fn)


class _ShopGame(GameModel):
    """The shop model, whose blocks of rows and costs are arrays.

    Every pair of state 1 has the boundary row.  Every pair of a state
    ``i >= 2`` has ``shop_row``'s row, added up in its order, with one
    ``math.exp`` per coupled state.  The default payoffs give every cost
    from one ``shop_costs`` call on arrays; custom payoffs, and a zero
    ``action_max`` (whose division raises), go through ``cost_fn``.
    """

    def __init__(self, params: ShopParams, cost_fn):
        super().__init__(None, cost_fn, params.grid, n_states=None,
                         anchor=1, name="shop", meta={"shop_params": params})
        self._params = params

    def _row_blocks(self, lo: int, hi: int):
        if lo == 1 < hi:  # state 1 has grids of its own
            yield from self._row_blocks(1, 1)
            lo = 2
        s = _shop_grid_state(lo)  # the grid state of every state here
        try:
            g1, g2 = self.action_values(1, s), self.action_values(2, s)
        except ValueError:  # empty grids: each state keeps its own errors
            yield from super()._row_blocks(lo, hi)
            return
        per, n = g1.size * g2.size, hi - lo + 1
        m1, m2 = np.full(n, g1.size), np.full(n, g2.size)
        if lo == 1:  # the boundary row, read as any row is read
            row = _shop_boundary_row(self._params)
            off = sorted(j for j, r in row.items() if j != 1 and r != 0.0)
            yield _RowBlock(m1, m2, np.arange(per + 1) * len(off), *_row_arrays(
                [off] * per, [[row[j] for j in off]] * per, [row[1]] * per),
                {}, {})
            return
        params, state = self._params, np.arange(lo, hi + 1)
        i = np.repeat(state.astype(float), per)
        u1, u2 = np.repeat(g1, g2.size), np.tile(g2, g1.size)
        p1, p2 = np.zeros(i.size), np.zeros(i.size)
        with np.errstate(all="ignore"):  # Python's float arithmetic is silent
            for c in params.coupled_states:
                if lo <= c <= hi:
                    at = slice((c - lo) * per, (c - lo + 1) * per)
                    e = math.exp(-params.theta * c)
                    p1[at], p2[at] = u1 * e, u2 * e
            up = params.buy_rate * i + p1
            down = params.sell_rate * i + p2
            diag = -(down + up)
        rates = np.stack([down, up], axis=1)
        cols = np.repeat(np.stack([state - 1, state + 1], axis=1), per, axis=0)
        keep = rates != 0.0
        indptr = np.zeros(i.size + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        yield _RowBlock(m1, m2, indptr, cols[keep], rates[keep], diag, {}, {})

    def _cost_block(self, lo: int, hi: int) -> tuple:
        params = self._params
        if (params.payoff1 is not None or params.payoff2 is not None
                or params.action_max == 0):
            return super()._cost_block(lo, hi)
        store = self._rows
        starts, m2 = store.starts[lo - 1:hi], store.m2[lo - 1:hi]
        per = store.m1[lo - 1:hi] * m2
        i = np.repeat(np.arange(lo, hi + 1, dtype=float), per)
        a1, a2 = np.divmod(np.arange(starts[0], store.starts[hi])
                           - np.repeat(starts, per), np.repeat(m2, per))
        with np.errstate(all="ignore"):
            cost = shop_costs(params, i, *_shop_actions(self, i, a1, a2))
        return np.stack(cost, axis=1), {}


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
    model's row store, built by the base model's block producers: a row
    built by either is built once.  Its costs are the base model's cost
    array with ``kappa`` added, copied one block of states at a time.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    return _ShiftedGame(model, player, kappa)


class _ShiftedGame(GameModel):
    """A model whose costs are those of ``base`` with ``kappa`` added to
    ``player``'s, and whose rows are ``base``'s."""

    def __init__(self, base: GameModel, player: int, kappa: float):
        super().__init__(None, None, base._grids, n_states=base.n_states,
                         anchor=base.anchor,
                         name=base.name + f"+shift{player}", meta=None)
        self._rows = base._rows
        self._base = base
        self._shift = (player, kappa)

    def _row_blocks(self, lo: int, hi: int):
        return self._base._row_blocks(lo, hi)

    def _cost_block(self, lo: int, hi: int) -> tuple:
        base = self._base
        store = base._built(hi, costs=True)
        a, b = int(store.starts[lo - 1]), int(store.starts[hi])
        cost = base._costs.cost[a:b].copy()
        player, kappa = self._shift
        cost[:, player - 1] += kappa
        failed = {p - a: exc for p, exc in base._costs.failed.items()
                  if a <= p < b}
        return cost, failed


# ---------------------------------------------------------------------------
# Columnar tables
# ---------------------------------------------------------------------------

def _table_model(n: int, action_grids: Mapping, rate_entries, cost_entries,
                 anchor: int = 1, name: str = "") -> GameModel:
    """Finite model from rate entries ``[i, ia, ib, j, value]`` and cost
    entries ``[k, i, ia, ib, value]``, with every row and cost built here.

    The entries become arrays once; every index is checked, a bad entry
    raising a ``ValueError`` that names the first one in entry order.
    Entries are sorted by ``(pair, target)`` into the model's pair store,
    which takes the arrays as they are.  A repeated ``(i, ia, ib, j)`` or
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
            try:
                grid = np.asarray(action_grids[(player, i)], dtype=float)
            except (TypeError, ValueError, OverflowError):
                grid = None
            if grid is None or grid.ndim != 1:
                raise ValueError(f"action grid for player {player} at state "
                                 f"{i} is not a list of numbers")
            grids[(player, i)] = grid
    m1 = np.array([grids[(1, i)].size for i in range(1, n + 1)], dtype=np.int64)
    m2 = np.array([grids[(2, i)].size for i in range(1, n + 1)], dtype=np.int64)
    per = m1 * m2
    starts = np.cumsum(per) - per
    n_pairs = int(per.sum())
    state = np.repeat(np.arange(1, n + 1), per)

    indptr, cols, rates, diag = _stacked_rows(rate_entries, n, m1, m2, starts,
                                              state)
    cost = _cost_table(cost_entries, n, m1, m2, starts, n_pairs)

    store = _PairStore(n, m1, m2, np.append(starts, n_pairs), indptr, cols,
                       rates, diag)
    costs = _CostStore(n, cost)

    # the grids come from a dict, not from the model, so that a model is
    # freed as soon as it is dropped (no reference cycle); the stores are
    # complete, so the model needs no rate or cost callables
    def grid_fn(player, i):
        return grids[(player, i)]

    model = GameModel(None, None, grid_fn, n_states=n, anchor=anchor,
                      name=name)
    model._rows, model._costs = store, costs
    for i in np.flatnonzero(per == 0).tolist():
        for player in (1, 2):
            try:
                model.n_actions(player, i + 1)
            except ValueError as exc:
                store.empty.setdefault(i + 1, []).append(_kept(exc))
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
    by_entry = np.argsort(first)
    del first
    diag = np.where(np.bincount(off_pair, minlength=n_pairs) > 0,
                    -np.bincount(off_pair[by_entry], off_value[by_entry],
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
# "states" and "anchor" are JSON integers, at most _MAX_STATES, and the
# shop parameters finite numbers.  A field of the wrong JSON type, and an
# unknown key at any level, is a ValueError naming it.  Rows absent from
# "rates" are absorbing; a missing diagonal entry is derived so the row is
# conservative.  Repeated entries keep their last value (see
# ``_table_model``).

_TOP_KEYS = {"states", "lazy", "anchor", "actions", "rates", "costs",
             "shop_params"}
_ACTION_KEYS = {"default", "per_state"}
_SHOP_KEYS = {"sell_rate", "buy_rate", "theta", "action_max", "fee1", "fee2",
              "n_actions", "coupled_states", "boundary_row",
              "boundary_tail_tol"}


# the most states a finite model document may declare: every state costs
# a Python step while loading, and no eigensolve reaches this size
_MAX_STATES = 1_000_000


def _state_field(doc, key, default=None):
    """``doc[key]`` (``default`` when absent): a JSON integer in
    ``1.._MAX_STATES``; floats, bools and strings are rejected."""
    value = doc.get(key, default)
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not 1 <= value <= _MAX_STATES):
        raise ValueError(f"model field {key!r} must be an integer from 1 to "
                         f"{_MAX_STATES}, not {value!r}")
    return int(value)


def _object(value, where: str, allowed=None) -> Mapping:
    """``value``, which must be a JSON object, with keys in ``allowed``
    (any keys when it is None)."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{where} must be a JSON object, not "
                         f"{type(value).__name__}")
    unknown = set(value) - allowed if allowed is not None else ()
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in {where}")
    return value


def _number(value, where: str, kinds=(int, float)):
    """``value``, which must be a finite JSON number of ``kinds``."""
    if (not isinstance(value, kinds) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
        kind = "integer" if kinds is int else "number"
        raise ValueError(f"{where} must be a finite {kind}, not {value!r}")
    return value


def _shop_params_from_dict(d) -> ShopParams:
    kwargs = dict(_object(d, "shop_params", _SHOP_KEYS))
    for key, value in kwargs.items():
        where = f"shop_params field {key!r}"
        if key == "coupled_states":
            if not isinstance(value, list):
                raise ValueError(f"{where} must be a list, not "
                                 f"{type(value).__name__}")
            kwargs[key] = frozenset(_number(i, f"{where} entry", int)
                                    for i in value)
        elif key == "boundary_row" and value is not None:
            kwargs[key] = {int(j): float(_number(r, f"{where} at {j}"))
                           for j, r in _object(value, where).items()}
        elif key != "boundary_row":
            _number(value, where, int if key == "n_actions" else (int, float))
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
    """The model of a JSON document (see the format above); a
    ``ValueError`` naming the field when the document does not fit it."""
    _object(doc, "model document", _TOP_KEYS)
    if "lazy" in doc:
        if doc["lazy"] != "shop":
            raise ValueError(f"unknown lazy model kind {doc['lazy']!r}")
        params = _shop_params_from_dict(doc.get("shop_params", {}))
        model = shop_model(params)
        if "anchor" in doc and _state_field(doc, "anchor") != model.anchor:
            raise ValueError("shop model anchor is fixed at state 1")
        return model

    n = _state_field(doc, "states")
    anchor = _state_field(doc, "anchor", 1)
    grids = {}
    actions = _object(doc.get("actions", {}), "actions", {"1", "2"})
    for player in (1, 2):
        where = f"actions for player {player}"
        spec = _object(actions.get(str(player), {"default": [0.0]}), where,
                       _ACTION_KEYS)
        default = spec.get("default")
        per_state = {int(i): v for i, v in _object(
            spec.get("per_state", {}), f"per_state of {where}").items()}
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


def _write_json(path, payload):
    """Write ``payload`` as indented, key-sorted JSON and a newline, in one
    write: ``json.dump`` would make one small write per token."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def save_model(model: GameModel, path) -> None:
    _write_json(path, model_to_dict(model))


def _read_json(path, data=None):
    """The JSON document in the file at ``path``: its bytes (read here, or
    ``data`` as the only reference to bytes already read), decoded as
    UTF-8 and dropped before the parse starts.  Every decode failure is a
    ``ValueError`` that starts with the path."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
        del data
        return json.loads(text)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deep to decode") from None


def load_model(path) -> GameModel:
    return model_from_dict(_read_json(path))
