"""Jump-path simulation and Monte-Carlo estimation of the growth rate.

Simulation runs on the strategy-averaged chain: mixing over actions first
gives the same law as sampling actions at each jump, at a fraction of the
cost.  Holding times are exponential in the averaged exit rate and jump
targets follow the averaged embedded chain.

Randomness discipline (bit-exact, documented so results are reproducible
across machines and thread counts): path ``p`` of a run with seed ``s``
draws from ``numpy.random.Philox`` keyed by the 128-bit pair ``(s, p)``.
Uniform variates are taken from that stream in blocks of 256; every jump
consumes exactly two uniforms, first the holding time (by inversion,
``-log1p(-u) / rate``), then the target (by cumulative-rate lookup).
Absorbing states consume nothing.  Estimates reduce per-path results in
path-index order, so the worker count never changes a digit.

The risk-sensitive estimator exponentiates path costs, so everything is
kept in log space: the point estimate is ``(logsumexp(X) - log N) / T``
and the standard error comes from batch means on the exponential scale via
the delta method for the log.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .generator import pair_table
from .model import GameModel, StationaryStrategy

__all__ = [
    "TrajectorySample",
    "RiskCostEstimate",
    "HittingCheckRow",
    "HittingReport",
    "path_rng",
    "sample_path",
    "estimate_risk_cost",
    "hitting_representation_check",
]

_BLOCK = 256
_MASK64 = (1 << 64) - 1


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path: Philox keyed by (seed, path)."""
    key = np.array([seed & _MASK64, path_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Uniforms:
    """Blocked uniform source; one scalar per call, 256 drawn at a time."""

    __slots__ = ("rng", "buf", "pos")

    def __init__(self, rng):
        self.rng = rng
        self.buf = rng.random(_BLOCK)
        self.pos = 0

    def take(self) -> float:
        if self.pos == _BLOCK:
            self.buf = self.rng.random(_BLOCK)
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


class _AveragedChain:
    """Per-state jump tables of the strategy-averaged chain, cached.

    Row generation is pure, so concurrent cache fills are benign: both
    threads compute identical entries.
    """

    def __init__(self, model: GameModel, v1: StationaryStrategy,
                 v2: StationaryStrategy):
        self.model = model
        self.v1 = v1
        self.v2 = v2
        self._cache: dict = {}

    def at(self, i: int):
        entry = self._cache.get(i)
        if entry is None:
            table = pair_table(self.model, (i,))
            weights = (table.strategy_weights(self.v1)
                       * table.strategy_weights(self.v2))
            R, diag, cost = table.contract(weights, table.state, 1)
            live = R.data != 0.0
            rates = R.data[live]
            exit_rate = -float(diag[0])
            if (not math.isfinite(exit_rate) or exit_rate < 0.0
                    or not np.all(np.isfinite(rates) & (rates >= 0.0))):
                raise ValueError(
                    f"invalid averaged rate at state {i} under strategies "
                    f"({self.v1!r}, {self.v2!r})")
            cum = np.cumsum(rates).tolist()
            entry = (exit_rate, (R.indices[live] + 1).tolist(), cum,
                     cum[-1] if cum else 0.0, *cost[0].tolist())
            self._cache[i] = entry
        return entry


@dataclass(frozen=True)
class TrajectorySample:
    """One jump path up to a fixed horizon.

    ``times[m]`` is the m-th jump time (``times[0] == 0``) and
    ``states[m]`` the state occupied on ``[times[m], times[m+1])``; the
    final state persists to the horizon.  Cost integrals are exact
    piecewise-constant sums for both players.
    """

    start: int
    horizon: float
    times: np.ndarray
    states: np.ndarray
    cost1: float
    cost2: float
    left_box: bool | None = None

    @property
    def n_jumps(self) -> int:
        return len(self.times) - 1

    def holding_times(self) -> np.ndarray:
        return np.diff(self.times)


def sample_path(model: GameModel, v1: StationaryStrategy,
                v2: StationaryStrategy, start: int, horizon: float,
                stream, box: int | None = None) -> TrajectorySample:
    """Simulate one path of the averaged chain up to ``horizon``.

    ``stream`` is either a ``(seed, path_index)`` pair naming a
    counter-based stream or a ready ``numpy.random.Generator``.  ``box``
    marks the sample when the path ever leaves ``{1..box}``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = path_rng(*stream) if isinstance(stream, tuple) else stream
    uni = _Uniforms(rng)
    chain = _AveragedChain(model, v1, v2)
    times = [0.0]
    states = [start]
    cost1 = 0.0
    cost2 = 0.0
    t = 0.0
    state = start
    left = box is not None and start > box
    while True:
        exit_rate, targets, cum, total, c1, c2 = chain.at(state)
        if exit_rate == 0.0:
            cost1 += (horizon - t) * c1
            cost2 += (horizon - t) * c2
            break
        u_hold = uni.take()
        u_jump = uni.take()
        dt = -math.log1p(-u_hold) / exit_rate
        if t + dt >= horizon:
            cost1 += (horizon - t) * c1
            cost2 += (horizon - t) * c2
            break
        # accumulate with the stored jump-time differences so the cost
        # integral equals the segment sum bit for bit
        t_next = t + dt
        seg = t_next - t
        cost1 += seg * c1
        cost2 += seg * c2
        t = t_next
        k = bisect_right(cum, u_jump * total)
        state = targets[min(k, len(targets) - 1)]
        times.append(t)
        states.append(state)
        if box is not None and state > box:
            left = True
    return TrajectorySample(start=start, horizon=horizon,
                            times=np.array(times), states=np.array(states),
                            cost1=cost1, cost2=cost2,
                            left_box=left if box is not None else None)


def _path_cost(chain, start, horizon, uni, player, box):
    """Accumulated cost integral for one player; no trajectory storage."""
    t = 0.0
    state = start
    cost = 0.0
    left = box is not None and start > box
    while True:
        exit_rate, targets, cum, total, c1, c2 = chain.at(state)
        c = c1 if player == 1 else c2
        if exit_rate == 0.0:
            return cost + (horizon - t) * c, left
        u_hold = uni.take()
        u_jump = uni.take()
        dt = -math.log1p(-u_hold) / exit_rate
        if t + dt >= horizon:
            return cost + (horizon - t) * c, left
        t_next = t + dt
        cost += (t_next - t) * c
        t = t_next
        k = bisect_right(cum, u_jump * total)
        state = targets[min(k, len(targets) - 1)]
        if box is not None and state > box:
            left = True


@dataclass(frozen=True)
class RiskCostEstimate:
    """Monte-Carlo estimate of the risk-sensitive growth rate.

    ``rho_hat = (logsumexp(X) - log N) / T`` over per-path cost integrals
    ``X``; ``se`` is the batch-based standard error on the log scale.
    ``log_weights`` keeps every path's cost integral for diagnostics.
    """

    rho_hat: float
    se: float
    horizon: float
    n_paths: int
    n_batches: int
    batch_rho: np.ndarray
    log_weights: np.ndarray
    escaped: int
    valid: bool
    player: int
    start: int
    seed: int


def _batch_se(batch_logs, horizon):
    shift = batch_logs.max()
    y = np.exp(batch_logs - shift)
    return float(y.std(ddof=1) / (math.sqrt(len(y)) * y.mean()) / horizon)


def _run_indexed(n, worker_fn, workers):
    """Run ``worker_fn(lo, hi)`` over contiguous index blocks."""
    if workers <= 1:
        worker_fn(0, n)
        return
    bounds = np.linspace(0, n, workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker_fn, int(lo), int(hi))
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        for fut in futures:
            fut.result()


def estimate_risk_cost(model: GameModel, v1: StationaryStrategy,
                       v2: StationaryStrategy, player: int, start: int,
                       horizon: float, paths: int, batches: int, seed: int,
                       workers: int = 1,
                       box: int | None = None) -> RiskCostEstimate:
    """Estimate the long-run growth rate of the exponentiated cost.

    Reproducible by construction: path ``p`` draws only from the stream
    keyed ``(seed, p)`` and the reduction runs in path order, so the same
    arguments give bit-identical results for any ``workers``.  When a
    diagnostic ``box`` is given, paths leaving it are counted and the
    estimate is marked invalid if every path escaped.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not (paths >= batches >= 10):
        raise ValueError("need paths >= batches >= 10")
    if paths % batches:
        raise ValueError("batches must divide the path count")
    chain = _AveragedChain(model, v1, v2)
    X = np.empty(paths)
    escaped = np.zeros(paths, dtype=bool)

    def run_block(lo, hi):
        for p in range(lo, hi):
            uni = _Uniforms(path_rng(seed, p))
            X[p], escaped[p] = _path_cost(chain, start, horizon, uni,
                                          player, box)

    _run_indexed(paths, run_block, workers)

    rho_hat = float((logsumexp(X) - math.log(paths)) / horizon)
    per = paths // batches
    batch_logs = np.array([logsumexp(X[b * per:(b + 1) * per]) - math.log(per)
                           for b in range(batches)])
    se = _batch_se(batch_logs, horizon)
    n_escaped = int(escaped.sum())
    return RiskCostEstimate(
        rho_hat=rho_hat, se=se, horizon=horizon, n_paths=paths,
        n_batches=batches, batch_rho=batch_logs / horizon, log_weights=X,
        escaped=n_escaped, valid=not (box is not None and n_escaped == paths),
        player=player, start=start, seed=seed)


@dataclass(frozen=True)
class HittingCheckRow:
    start: int
    psi_ref: float
    estimate: float
    se: float
    rel_deviation: float
    z_score: float
    n_hit: int
    n_killed: int
    n_capped: int
    valid: bool


@dataclass(frozen=True)
class HittingReport:
    """Per-start comparison of the hitting-time functional against psi.

    For each start state the report estimates the expected value of
    ``exp(integral of (cost - rho) up to the hitting time of the target
    set) * psi(hit state)`` and compares it with ``psi(start)``; for the
    eigenfunction of the matching truncated problem (with paths killed at
    the truncation boundary) the two agree in expectation.
    """

    rows: tuple
    rho: float
    player: int
    n_paths: int
    target_set: tuple

    @property
    def valid(self) -> bool:
        return all(r.valid for r in self.rows)

    def within(self, k: float = 3.0) -> bool:
        return self.valid and all(r.z_score <= k for r in self.rows)


def _path_hit(chain, start, targets, uni, player, rho, tau_cap, kill_above):
    t = 0.0
    state = start
    z = 0.0
    while True:
        if state in targets:
            return "hit", z, state
        if kill_above is not None and state > kill_above:
            return "killed", z, state
        exit_rate, tg, cum, total, c1, c2 = chain.at(state)
        c = (c1 if player == 1 else c2) - rho
        if exit_rate == 0.0:
            return "capped", z, state  # absorbing off-target: never hits
        u_hold = uni.take()
        u_jump = uni.take()
        dt = -math.log1p(-u_hold) / exit_rate
        if t + dt > tau_cap:
            return "capped", z, state
        t_next = t + dt
        z += (t_next - t) * c
        t = t_next
        k = bisect_right(cum, u_jump * total)
        state = tg[min(k, len(tg) - 1)]


def hitting_representation_check(model: GameModel, v1: StationaryStrategy,
                                 v2: StationaryStrategy, player: int,
                                 psi, rho: float, target_set, starts,
                                 n_paths: int, seed: int, batches: int = 20,
                                 tau_cap: float = 1e6,
                                 kill_outside: int | None = None,
                                 workers: int = 1) -> HittingReport:
    """Monte-Carlo check of the hitting-time representation of psi.

    ``psi`` maps states to eigenfunction values (it must cover the target
    set and the starts); ``kill_outside`` stops paths above that state
    with value zero, matching the zero extension of a truncated
    eigenfunction, which makes the identity exact for the truncated
    eigenpair.  Paths outliving ``tau_cap`` are flagged and contribute
    zero (a capped path hints at non-integrability).  Starts inside the
    target set return ``psi(start)`` exactly with zero spread.
    """
    if not target_set:
        raise ValueError("target set must be nonempty")
    if not (n_paths >= batches >= 2):
        raise ValueError("need n_paths >= batches >= 2")
    if n_paths % batches:
        raise ValueError("batches must divide the path count")
    targets = frozenset(int(s) for s in target_set)
    chain = _AveragedChain(model, v1, v2)
    rows = []
    for k_start, start in enumerate(starts):
        ref = float(psi[start])
        if start in targets:
            rows.append(HittingCheckRow(
                start=start, psi_ref=ref, estimate=ref, se=0.0,
                rel_deviation=0.0, z_score=0.0, n_hit=n_paths, n_killed=0,
                n_capped=0, valid=True))
            continue
        logs = np.full(n_paths, -np.inf)
        status = np.zeros(n_paths, dtype=np.int8)  # 0 hit, 1 killed, 2 capped

        def run_block(lo, hi, start=start):
            for p in range(lo, hi):
                uni = _Uniforms(path_rng(seed, k_start * n_paths + p))
                outcome, z, end = _path_hit(chain, start, targets, uni,
                                            player, rho, tau_cap,
                                            kill_outside)
                if outcome == "hit":
                    logs[p] = z + math.log(psi[end])
                    status[p] = 0
                elif outcome == "killed":
                    status[p] = 1
                else:
                    status[p] = 2

        _run_indexed(n_paths, run_block, workers)
        n_hit = int((status == 0).sum())
        n_killed = int((status == 1).sum())
        n_capped = int((status == 2).sum())
        estimate = float(np.exp(logsumexp(logs) - math.log(n_paths)))
        per = n_paths // batches
        batch_logs = np.array([
            logsumexp(logs[b * per:(b + 1) * per]) - math.log(per)
            for b in range(batches)])
        se = _batch_se(np.where(np.isfinite(batch_logs), batch_logs,
                                -745.0), 1.0)
        se *= estimate  # delta method back to the natural scale
        rel = abs(estimate - ref) / ref
        z_score = abs(estimate - ref) / se if se > 0 else (
            0.0 if estimate == ref else math.inf)
        rows.append(HittingCheckRow(
            start=start, psi_ref=ref, estimate=estimate, se=se,
            rel_deviation=rel, z_score=z_score, n_hit=n_hit,
            n_killed=n_killed, n_capped=n_capped, valid=n_hit > 0))
    return HittingReport(rows=tuple(rows), rho=rho, player=player,
                         n_paths=n_paths, target_set=tuple(sorted(targets)))
