"""Jump-path simulation and Monte-Carlo estimation of the growth rate.

Simulation runs on the strategy-averaged chain: mixing over actions first
gives the same law as sampling actions at each jump, at a fraction of the
cost.  Holding times are exponential in the averaged exit rate and jump
targets follow the averaged embedded chain.

Randomness discipline (bit-exact, documented so results are reproducible
across machines): path ``p`` of a run with seed ``s`` draws from
``numpy.random.Philox`` keyed by the 128-bit pair ``(s, p)``.  Uniform
variates are taken from that stream in blocks of 256; every jump consumes
exactly two uniforms, first the holding time (by inversion,
``-log1p(-u) / rate``), then the target (by cumulative-rate lookup).
Absorbing states consume nothing.  The estimators advance a block of paths
in lockstep, one jump per step, so every path reads the same uniforms as
the one-path loop of :func:`sample_path`; reductions run in path-index
order, so the block size never changes a digit.  With ``workers`` above
1 the estimators hand contiguous ranges of path indices to processes
forked from the caller; a path keeps its ``(seed, p)`` stream in whichever
process runs it and the results are joined in path order, so the worker
count never changes a digit either.

Forking copies the caller's memory copy-on-write and needs no pickling of
models or strategies; only the per-path results come back, pickled through
a pipe.  The children make no BLAS or LAPACK call.  On Python 3.12 and
later ``os.fork`` warns (``DeprecationWarning``) in a process that runs
other OS threads, which numpy's OpenBLAS thread pool does once
``rsgame.cli`` is imported.

The risk-sensitive estimator exponentiates path costs, so everything is
kept in log space: the point estimate is ``(logsumexp(X) - log N) / T``
and the standard error comes from batch means on the exponential scale via
the delta method for the log.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import weakref
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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

_DRAWS = 256  # uniforms per draw from a path's stream: 128 jumps
_PATH_BLOCK = 2048  # paths advanced together; one 4 MB uniform buffer
_TABLE_START = 32  # states a fresh jump table covers before it doubles
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
        self.buf = rng.random(_DRAWS)
        self.pos = 0

    def take(self) -> float:
        if self.pos == _DRAWS:
            self.buf = self.rng.random(_DRAWS)
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


class _Streams:
    """Blocks of many paths' streams through one reusable Philox.

    Philox yields four 64-bit words per counter value and raises the
    counter before each four, so block ``b`` (the ``b``-th 256-draw) of the
    stream keyed ``(seed, p)`` starts from counter ``64 * b`` with an empty
    buffer.  Setting that state reproduces ``path_rng(seed, p)``'s block
    bit for bit without a generator per path.
    """

    def __init__(self, seed: int):
        self._key = np.array([seed & _MASK64, 0], dtype=np.uint64)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._bits = np.random.Philox(key=self._key)
        self._state = self._bits.state
        self._state["state"] = {"counter": self._counter, "key": self._key}
        self._gen = np.random.Generator(self._bits)

    def fill(self, out, rows, first: int, block: int) -> None:
        """Row ``r`` of ``out``, for each ``r`` in ``rows``: block
        ``block`` of path ``first + r``."""
        self._counter[0] = block * (_DRAWS // 4)
        for r in rows.tolist():
            self._key[1] = (first + r) & _MASK64
            self._bits.state = self._state
            self._gen.random(_DRAWS, out=out[r])


class _AveragedChain:
    """Jump tables of the strategy-averaged chain, dense in the state.

    Entry ``i`` of each array belongs to state ``i <= top`` (entry 0 is
    unused): ``exit`` is the averaged exit rate, ``cost`` both players'
    averaged cost rates and ``total`` the summed off-diagonal rate; the
    ``width[i]`` targets of state ``i``, in increasing order, start at
    ``targets[first[i]]``, with their cumulative rates (restarting from
    zero at each state) in ``cum``.  ``invalid`` marks states with a
    non-finite or negative averaged rate, or a positive exit rate and no
    target; a path that reaches one raises.

    ``cover`` extends the tables by doubling, one action-pair table per
    extension.  The contraction sums each state's rows in pair order, so
    every entry equals that state's one-state contraction bit for bit.

    The chain holds its model and strategies by weak reference, so that
    one kept on the model (see :func:`sample_path`) keeps nothing alive;
    its user holds them.
    """

    def __init__(self, model: GameModel, v1: StationaryStrategy,
                 v2: StationaryStrategy):
        self._model = weakref.ref(model)
        self._v1 = weakref.ref(v1)
        self._v2 = weakref.ref(v2)
        self.top = 0
        self.exit = np.zeros(1)
        self.cost = np.zeros((1, 2))
        self.total = np.zeros(1)
        self.first = np.zeros(1, dtype=np.int64)
        self.width = np.zeros(1, dtype=np.int64)
        self.targets = np.zeros(0, dtype=np.int64)
        self.cum = np.zeros(0)
        self.invalid = np.zeros(1, dtype=bool)
        self.any_invalid = False
        self._rows: dict = {}

    def cover(self, state: int) -> None:
        """Extend the tables to hold ``state``."""
        if state < 1:
            raise ValueError(f"state {state} is not a state of the model")
        if state <= self.top:
            return
        model, v1, v2 = self._model(), self._v1(), self._v2()
        size = model.n_states
        if size is not None and state > size:
            raise ValueError(f"state {state} lies outside the model's "
                             f"{size} states")
        hi = max(state, 2 * self.top, _TABLE_START)
        if size is not None:
            hi = min(hi, size)
        states = range(self.top + 1, hi + 1)
        table = pair_table(model, states)
        weights = table.strategy_weights(v1) * table.strategy_weights(v2)
        R, diag, cost = table.contract(weights, table.state, len(states))
        live = R.data != 0.0
        rates = R.data[live]
        owner = np.repeat(np.arange(len(states)), np.diff(R.indptr))[live]
        width = np.bincount(owner, minlength=len(states))
        ends = np.cumsum(width)
        cums = [np.cumsum(rates[a:b])
                for a, b in zip((ends - width).tolist(), ends.tolist())]
        exit_rate = -diag
        invalid = (~(np.isfinite(exit_rate) & (exit_rate >= 0.0))
                   | ((exit_rate > 0.0) & (width == 0)))
        invalid[owner[~(np.isfinite(rates) & (rates >= 0.0))]] = True
        self.first = np.concatenate(
            [self.first, self.targets.size + ends - width])
        self.width = np.concatenate([self.width, width])
        self.targets = np.concatenate([self.targets, R.indices[live] + 1])
        self.cum = np.concatenate([self.cum, *cums])
        self.total = np.concatenate(
            [self.total, [c[-1] if c.size else 0.0 for c in cums]])
        self.exit = np.concatenate([self.exit, exit_rate])
        self.cost = np.concatenate([self.cost, cost])
        self.invalid = np.concatenate([self.invalid, invalid])
        self.any_invalid = self.any_invalid or bool(invalid.any())
        self.top = states[-1]

    def check(self, states) -> None:
        """Raise when one of ``states`` is marked invalid."""
        bad = np.asarray(states)[self.invalid[states]]
        if bad.size:
            raise ValueError(
                f"invalid averaged rate at state {int(bad.min())} under "
                f"strategies ({self._v1()!r}, {self._v2()!r})")

    def at(self, i: int):
        """``(exit rate, targets, cumulative rates, total, c1, c2)`` of
        state ``i`` as Python numbers and lists."""
        entry = self._rows.get(i)
        if entry is None:
            self.cover(i)
            self.check([i])
            a = int(self.first[i])
            b = a + int(self.width[i])
            entry = (float(self.exit[i]), self.targets[a:b].tolist(),
                     self.cum[a:b].tolist(), float(self.total[i]),
                     *self.cost[i].tolist())
            self._rows[i] = entry
        return entry

    def jump(self, states, u):
        """Targets of jumps from ``states`` (positive exit rates) drawn
        with uniforms ``u``.

        Equals ``targets[min(bisect_right(cum, u * total), width - 1)]``
        of each state.  Only the first ``width - 1`` cumulative rates can
        move that index: one comparison decides it at states with two
        targets, a binary search per distinct wider state.
        """
        x = u * self.total[states]
        lo = self.first[states]
        width = self.width[states]
        k = ((width > 1) & (self.cum[lo] <= x)).astype(np.int64)
        wide = np.flatnonzero(width > 2)
        if wide.size:
            at = states[wide]
            for i in np.unique(at).tolist():
                rows = wide[at == i]
                a = int(self.first[i])
                w = int(self.width[i])
                k[rows] = np.minimum(
                    np.searchsorted(self.cum[a:a + w], x[rows], side="right"),
                    w - 1)
        return self.targets[lo + k]


def _lockstep(chain: _AveragedChain, seed: int, first: int, n: int,
              start: int, player: int, shift: float, limit: float,
              tail: bool, halt=None):
    """Run paths ``first .. first + n - 1`` from ``start``, one jump of
    every running path per step, in blocks of ``_PATH_BLOCK`` paths.

    A path integrates the cost rate ``c_player - shift`` and stops, in
    this order: on a state marked in ``halt``, before its jump
    (``halt[-1]`` stands for every state past the mask); at an absorbing
    state; when its next jump would fall after ``limit``.  With ``tail``
    (used without ``halt``) that is at or after ``limit``, and the
    integral runs on to ``limit``.  Step ``m`` reads uniforms ``2m`` and
    ``2m + 1`` of each running path's stream, so every path matches the
    one-path loop of ``sample_path``.

    Returns each path's integral, final state, highest state visited and
    whether ``halt`` stopped it.
    """
    acc_out = np.empty(n)
    state_out = np.empty(n, dtype=np.int64)
    top_out = np.empty(n, dtype=np.int64)
    halted = np.zeros(n, dtype=bool)
    streams = _Streams(seed)
    uniforms = np.empty((min(n, _PATH_BLOCK), _DRAWS))
    k = 0 if player == 1 else 1
    jumps_per_draw = _DRAWS // 2
    chain.cover(start)
    for lo in range(0, n, _PATH_BLOCK):
        rows = np.arange(min(_PATH_BLOCK, n - lo))  # running paths
        s = np.full(rows.size, start, dtype=np.int64)
        t = np.zeros(rows.size)
        acc = np.zeros(rows.size)
        top = s.copy()
        step = 0
        while rows.size:
            held = None if halt is None else halt[np.minimum(s, halt.size - 1)]
            if chain.any_invalid:
                chain.check(s if held is None else s[~held])
            col = 2 * (step % jumps_per_draw)
            if col == 0:
                streams.fill(uniforms, rows, first + lo,
                             step // jumps_per_draw)
            rate = chain.exit[s]
            c = chain.cost[s, k] - shift
            log_hold = np.fromiter(
                map(math.log1p, (-uniforms[rows, col]).tolist()), float,
                rows.size)
            # a zero exit rate never jumps: its path stops below
            wait = np.divide(-log_hold, rate, out=np.full(rows.size, np.inf),
                             where=rate > 0.0)
            t_next = t + wait
            stop = (rate == 0.0) | (t_next >= limit if tail else t_next > limit)
            if held is not None:
                stop |= held
            if stop.any():
                done = lo + rows[stop]
                acc_out[done] = (acc[stop] + (limit - t[stop]) * c[stop]
                                 if tail else acc[stop])
                state_out[done] = s[stop]
                top_out[done] = top[stop]
                if held is not None:
                    halted[done] = held[stop]
                go = ~stop
                rows, s, t, acc, top, t_next, c = (
                    rows[go], s[go], t[go], acc[go], top[go], t_next[go],
                    c[go])
                if not rows.size:
                    break
            acc += (t_next - t) * c
            t = t_next
            s = chain.jump(s, uniforms[rows, col + 1])
            top = np.maximum(top, s)
            chain.cover(int(s.max()))
            step += 1
    return acc_out, state_out, top_out, halted


def _process_count(workers: int, jobs: int) -> int:
    """``workers`` capped at the usable cores and at ``jobs``; 1 where
    the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(workers, cores, jobs))


def _fan_out(run, jobs, workers: int) -> list:
    """``run(share)`` for each of up to ``workers`` contiguous shares of
    the sequence ``jobs``, in share order.

    The first share runs here and every other one in a process forked
    from this one, which sends its pickled result, or the exception it
    raised, through a pipe and exits.  The first share to fail raises its
    exception here with the same type and message.  Every child is reaped
    before this returns or raises, and killed first when this process
    fails or stops waiting.
    """
    count = _process_count(workers, len(jobs))
    cuts = [len(jobs) * k // count for k in range(count + 1)]
    shares = [jobs[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(run, share, write)
            os.close(write)
            children.append((pid, read))
        results = [run(shares[0])]
        for pid, read in children:
            with open(read, "rb", closefd=False) as fh:
                blob = fh.read()
            try:
                ok, value = pickle.loads(blob)
            except Exception:
                raise ChildProcessError(f"simulation process {pid} ended "
                                        "without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)  # a child that has exited is a
            os.waitpid(pid, 0)            # zombie until reaped: no-op


def _child(run, share, write):
    """Body of a forked process: send ``(True, run(share))`` or
    ``(False, exception)`` and exit without the parent's clean-up."""
    try:
        try:
            payload = (True, run(share))
        except BaseException as exc:
            payload = (False, exc)
        try:
            blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception that does not pickle
            blob = pickle.dumps((False, RuntimeError(
                f"{type(payload[1]).__name__}: {payload[1]}")))
        with open(write, "wb") as fh:
            fh.write(blob)
    finally:
        os._exit(0)


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


def sample_path(model: GameModel, v1: StationaryStrategy,
                v2: StationaryStrategy, start: int, horizon: float,
                stream, box: int | None = None) -> TrajectorySample:
    """Simulate one path of the averaged chain up to ``horizon``.

    ``stream`` is either a ``(seed, path_index)`` pair naming a
    counter-based stream or a ready ``numpy.random.Generator``.  ``box``
    marks the sample when the path ever leaves ``{1..box}``.  The jump
    tables of the pair ``(v1, v2)`` are built on first use and kept on the
    model, so later paths under the same strategy objects reuse them; they
    go with either strategy.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = path_rng(*stream) if isinstance(stream, tuple) else stream
    uni = _Uniforms(rng)
    # one chain per strategy pair, kept beside the pair store; weak keys,
    # since a strategy may hold the model (uniform and pure ones do)
    chains = model._chain_cache.get(v1)
    if chains is None:
        chains = model._chain_cache[v1] = weakref.WeakKeyDictionary()
    chain = chains.get(v2)
    if chain is None:
        chain = chains[v2] = _AveragedChain(model, v1, v2)
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


def estimate_risk_cost(model: GameModel, v1: StationaryStrategy,
                       v2: StationaryStrategy, player: int, start: int,
                       horizon: float, paths: int, batches: int, seed: int,
                       box: int | None = None,
                       workers: int = 1) -> RiskCostEstimate:
    """Estimate the long-run growth rate of the exponentiated cost.

    Reproducible by construction: path ``p`` draws only from the stream
    keyed ``(seed, p)`` and the reduction runs in path order; each path's
    cost integral equals ``sample_path(..., (seed, p))``'s bit for bit.
    When a diagnostic ``box`` is given, paths leaving it are counted and
    the estimate is marked invalid if every path escaped.  ``workers``
    above 1 splits the paths into contiguous ranges run in forked
    processes (see the module notes); the result is the same.
    """
    from scipy.special import logsumexp  # here, not in a forked child

    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not (paths >= batches >= 10):
        raise ValueError("need paths >= batches >= 10")
    if paths % batches:
        raise ValueError("batches must divide the path count")
    chain = _AveragedChain(model, v1, v2)

    def run(share):
        X, _, top, _ = _lockstep(chain, seed, share.start, len(share), start,
                                 player, 0.0, float(horizon), tail=True)
        return X, top

    X, top = (np.concatenate(a)
              for a in zip(*_fan_out(run, range(paths), workers)))

    rho_hat = float((logsumexp(X) - math.log(paths)) / horizon)
    per = paths // batches
    batch_logs = np.array([logsumexp(X[b * per:(b + 1) * per]) - math.log(per)
                           for b in range(batches)])
    se = _batch_se(batch_logs, horizon)
    n_escaped = 0 if box is None else int((top > box).sum())
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


def _halt_mask(targets, kill_above):
    """Stop mask over states for the hitting check: ``mask[i]`` is True
    when state ``i`` is a target or lies above ``kill_above``; the last
    entry holds for every larger state."""
    top = max([0, *targets] if kill_above is None
              else [0, *targets, kill_above])
    mask = np.zeros(top + 2, dtype=bool)
    mask[[i for i in targets if i >= 1]] = True
    if kill_above is not None:
        mask[max(kill_above, 0) + 1:] = True
    return mask


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
    target set return ``psi(start)`` exactly with zero spread.  A hit where
    psi is zero contributes zero too; at a start where psi is zero the
    relative deviation is 0 if the estimate is 0 as well and inf if not.

    The ``k``-th start runs paths ``k * n_paths`` onwards.  ``workers``
    above 1 shares the starts outside the target set, in contiguous runs,
    among forked processes (see the module notes); the report is the
    same.  A start's paths stay in one process: splitting them would run
    the slow tail of the hitting times, where few paths are left, twice.
    """
    from scipy.special import logsumexp  # here, not in a forked child

    if not target_set:
        raise ValueError("target set must be nonempty")
    if not (n_paths >= batches >= 2):
        raise ValueError("need n_paths >= batches >= 2")
    if n_paths % batches:
        raise ValueError("batches must divide the path count")
    targets = frozenset(int(s) for s in target_set)
    target_list = sorted(targets)
    halt = _halt_mask(target_list, kill_outside)
    chain = _AveragedChain(model, v1, v2)
    tested = [(k, s) for k, s in enumerate(starts) if s not in targets]

    def run(share):
        return [_lockstep(chain, seed, k * n_paths, n_paths, start, player,
                          rho, float(tau_cap), tail=False, halt=halt)
                for k, start in share]

    outcomes = iter([out for part in _fan_out(run, tested, workers)
                     for out in part])
    rows = []
    for start in starts:
        ref = float(psi[start])
        if start in targets:
            rows.append(HittingCheckRow(
                start=start, psi_ref=ref, estimate=ref, se=0.0,
                rel_deviation=0.0, z_score=0.0, n_hit=n_paths, n_killed=0,
                n_capped=0, valid=True))
            continue
        z, end, _, halted = next(outcomes)
        hit = halted & np.isin(end, target_list)
        logs = np.full(n_paths, -np.inf)
        hit_states, where = np.unique(end[hit], return_inverse=True)
        log_psi = np.array([math.log(psi[i]) if psi[i] != 0.0 else -math.inf
                            for i in hit_states.tolist()])
        logs[hit] = z[hit] + log_psi[where]
        n_hit = int(hit.sum())
        n_killed = int(halted.sum()) - n_hit
        n_capped = n_paths - int(halted.sum())
        estimate = float(np.exp(logsumexp(logs) - math.log(n_paths)))
        per = n_paths // batches
        batch_logs = np.array([
            logsumexp(logs[b * per:(b + 1) * per]) - math.log(per)
            for b in range(batches)])
        se = _batch_se(np.where(np.isfinite(batch_logs), batch_logs,
                                -745.0), 1.0)
        se *= estimate  # delta method back to the natural scale
        rel = abs(estimate - ref) / ref if ref else (
            0.0 if estimate == 0.0 else math.inf)
        z_score = abs(estimate - ref) / se if se > 0 else (
            0.0 if estimate == ref else math.inf)
        rows.append(HittingCheckRow(
            start=start, psi_ref=ref, estimate=estimate, se=se,
            rel_deviation=rel, z_score=z_score, n_hit=n_hit,
            n_killed=n_killed, n_capped=n_capped, valid=n_hit > 0))
    return HittingReport(rows=tuple(rows), rho=rho, player=player,
                         n_paths=n_paths, target_set=tuple(target_list))
