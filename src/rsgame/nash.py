"""Best-response dynamics, equilibrium certificates, and selector checks.

A strategy pair is an equilibrium when neither player can lower their
long-run growth rate by deviating unilaterally.  Because deviations within
stationary strategies are resolved by the frozen-opponent eigenproblem,
certification reduces to four eigensolves per pair: each player's value at
the pair minus their best-response value against the other's strategy.
Those eigenpairs belong to the certificate: :func:`nash_iterate` reuses
the best responses it has already solved, and :func:`converse_report`
reads the certificate's eigenpairs instead of solving them again.

The iteration alternates (damped) best responses.  Existence of an
equilibrium in mixed stationary strategies is a fixed-point fact, but
convergence of this iteration is not guaranteed, so the certificate
always reports which of {converged, cycle_detected, max_iter} actually
happened; it never fabricates convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import generator
from .eigensolver import (
    ConvergenceError,
    EigenPair,
    best_response_eigenpair,
    principal_eigenpair,
)
from .eigensolver import _ResponseOperator
from .model import (
    GameModel,
    StationaryStrategy,
    Truncation,
    _split,
    mix_strategies,
    pure_strategy,
    uniform_strategy,
)

__all__ = [
    "CertifyResult",
    "NashCertificate",
    "ConverseReport",
    "response_values",
    "argmin_sets",
    "certify",
    "nash_iterate",
    "find_nash",
    "converse_check",
    "converse_report",
    "profile_count",
]

STRATEGY_QUANTUM = 1e-12


def response_values(model: GameModel, truncation: Truncation,
                    opponent_strategy: StationaryStrategy, player: int,
                    psi: np.ndarray):
    """Frozen-opponent objective per state and own action.

    Entry ``[i][a]`` is ``sum_j psi(j) q^a_ij + c^a(i) psi(i)`` with the
    opponent averaged out, the full-space diagonal kept, and ``psi``
    extended by zero outside the truncation.
    """
    op, z = _objective(model, truncation, opponent_strategy, player, psi)
    return [z[op.starts[i]:op.starts[i] + op.counts[i]]
            for i in range(truncation.n)]


def _objective(model: GameModel, truncation: Truncation,
               opponent_strategy: StationaryStrategy, player: int,
               psi: np.ndarray) -> tuple:
    """The frozen-opponent operator and the objective of
    :func:`response_values` over all of its state-action rows at once."""
    op = _ResponseOperator(model, truncation, opponent_strategy, player)
    return op, op.S @ psi - op.alpha * psi[op.owner]


def argmin_sets(model: GameModel, truncation: Truncation,
                opponent_strategy: StationaryStrategy, player: int,
                eigenpair: EigenPair, slack: float | None = None) -> dict:
    """Per-state sets of actions attaining the frozen-opponent minimum.

    ``slack`` is the absolute tie tolerance on the objective, scaled by
    ``psi`` at the state; defaults to ``10 * residual * (1 + |rho|)``.
    """
    if slack is None:
        slack = 10.0 * max(eigenpair.residual, 1e-15) * (1.0 + abs(eigenpair.rho))
    values = response_values(model, truncation, opponent_strategy, player,
                             eigenpair.psi)
    sets = {}
    for i, vals in zip(truncation.states, values):
        cut = vals.min() + slack * eigenpair.psi[i - 1]
        sets[i] = tuple(int(a) for a in np.flatnonzero(vals <= cut))
    return sets


@dataclass(frozen=True)
class CertifyResult:
    """Deviation gaps of a strategy pair on one truncation.

    ``delta_k = rho_k(pair) - rho_k(best response)`` is nonnegative up to
    twice the solver residual; the pair is ``eps``-optimal when both gaps
    stay at or below ``eps``.
    """

    delta1: float
    delta2: float
    eps: float
    passed: bool
    rho_pair: tuple
    rho_br: tuple
    pair_eigen: tuple
    br_eigen: tuple
    br_selectors: tuple

    @property
    def gap(self) -> float:
        return max(self.delta1, self.delta2)


def certify(model: GameModel, truncation: Truncation,
            v1: StationaryStrategy, v2: StationaryStrategy, eps: float,
            tol: float = 1e-10, max_iter: int | None = None) -> CertifyResult:
    """Compute both deviation gaps and compare them against ``eps``."""
    return _certify(model, truncation, v1, v2, eps, tol, max_iter,
                    lambda player, opp: best_response_eigenpair(
                        model, truncation, opp, player, tol, max_iter))


def _certify(model, truncation, v1, v2, eps, tol, max_iter,
             solve_br) -> CertifyResult:
    """:func:`certify` with the best responses taken from
    ``solve_br(player, opponent_strategy) -> (EigenPair, selector)``."""
    A1 = generator.assemble(model, truncation, v1, v2, 1)
    A2 = generator.assemble(model, truncation, v1, v2, 2)
    pair1 = principal_eigenpair(A1, model.anchor, tol, max_iter)
    pair2 = principal_eigenpair(A2, model.anchor, tol, max_iter)
    br1, sel1 = solve_br(1, v2)
    br2, sel2 = solve_br(2, v1)
    delta1 = pair1.rho - br1.rho
    delta2 = pair2.rho - br2.rho
    return CertifyResult(
        delta1=delta1, delta2=delta2, eps=eps,
        passed=max(delta1, delta2) <= eps,
        rho_pair=(pair1.rho, pair2.rho), rho_br=(br1.rho, br2.rho),
        pair_eigen=(pair1, pair2), br_eigen=(br1, br2),
        br_selectors=(sel1, sel2))


@dataclass(frozen=True)
class NashCertificate:
    """Outcome of best-response iteration with its deviation gaps.

    ``status`` reports honestly what happened: ``converged`` (both gaps at
    or below ``eps``), ``cycle_detected`` (a strategy pair repeated,
    detected by exact hash of quantized strategies), or ``max_iter``.
    The eigenpairs are the best-response pairs at the final strategies,
    normalized to one at the anchor state.  ``warnings`` gathers, once
    each, the warnings of the four eigenpairs behind the gaps (the pair's
    and the best responses'), such as a reducible operator.
    """

    v1: StationaryStrategy
    v2: StationaryStrategy
    eigen1: EigenPair
    eigen2: EigenPair
    rho1: float
    rho2: float
    delta1: float
    delta2: float
    eps: float
    status: str
    rounds: int
    trace: tuple
    warnings: tuple = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def gap(self) -> float:
        return max(self.delta1, self.delta2)

    def to_json_dict(self, truncation: Truncation) -> dict:
        """The certificate as JSON data; ``warnings`` is written only when
        there are any."""
        doc = {
            "status": self.status,
            "eps": self.eps,
            "rounds": self.rounds,
            "trace_length": len(self.trace),
            "rho": [self.rho1, self.rho2],
            "delta": [self.delta1, self.delta2],
            "strategies": {"1": _vectors(self.v1, truncation.states),
                           "2": _vectors(self.v2, truncation.states)},
            "psi": {
                "1": self.eigen1.psi.tolist(),
                "2": self.eigen2.psi.tolist(),
            },
        }
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc


def _vectors(strategy: StationaryStrategy, states) -> list:
    """The weight vector of each state, as lists, from one table."""
    sizes, flat = strategy.table(states)
    return _split(flat.tolist(), sizes)


def _from_certify(v1, v2, cert: CertifyResult, eps, status, rounds,
                  trace) -> NashCertificate:
    eigenpairs = cert.pair_eigen + cert.br_eigen
    return NashCertificate(
        v1=v1, v2=v2, eigen1=cert.br_eigen[0], eigen2=cert.br_eigen[1],
        rho1=cert.rho_pair[0], rho2=cert.rho_pair[1],
        delta1=cert.delta1, delta2=cert.delta2, eps=eps, status=status,
        rounds=rounds, trace=tuple(trace),
        warnings=tuple(dict.fromkeys(w for ep in eigenpairs
                                     for w in ep.warnings)))


def _pair_key(v1, v2, states):
    return (v1.key(states, STRATEGY_QUANTUM), v2.key(states, STRATEGY_QUANTUM))


def nash_iterate(model: GameModel, truncation: Truncation,
                 damping: float = 1.0, eps: float = 1e-6,
                 max_rounds: int = 100, tol: float = 1e-10,
                 max_iter: int | None = None) -> NashCertificate:
    """Damped best-response iteration to an approximate equilibrium.

    Starts from the uniform pair.  Each round updates player 1, then
    player 2 against player 1's new strategy, mixing each new best
    response into the old strategy with weight ``damping``.  The round
    ends with a full certification of the current pair; iteration
    stops on gaps at or below ``eps``, on a repeated quantized pair, or at
    ``max_rounds``.  A solver failure after the first round is recorded in
    the trace and ends the iteration with status ``max_iter``; the
    certificate then holds the last certified pair.  A failure in the
    first round, before any pair is certified, propagates.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    states = truncation.states
    v = {k: uniform_strategy(model, k) for k in (1, 2)}
    latest = {}

    def solve_br(player, opp):
        # A round's certification solves the last mover's best response
        # again, and the next round starts from the other one: keep each
        # player's latest solve, keyed by the opponent strategy object.
        hit = latest.get(player)
        if hit is None or hit[0] is not opp:
            hit = latest[player] = (opp, best_response_eigenpair(
                model, truncation, opp, player, tol, max_iter))
        return hit[1]

    seen = {_pair_key(v[1], v[2], states)}
    trace: list = []
    status = "max_iter"
    certified = None
    for rounds in range(1, max_rounds + 1):
        try:
            for k in (1, 2):
                brk = solve_br(k, v[3 - k])[1]
                v[k] = brk if damping == 1.0 else mix_strategies(
                    model, brk, v[k], damping, states)
            cert = _certify(model, truncation, v[1], v[2], eps, tol,
                            max_iter, solve_br)
        except ConvergenceError as exc:
            if certified is None:
                raise
            trace.append({"round": rounds, "error": str(exc)})
            status = "max_iter"
            break
        certified = (v[1], v[2], cert)
        trace.append({"round": rounds, "rho1": cert.rho_pair[0],
                      "rho2": cert.rho_pair[1], "delta1": cert.delta1,
                      "delta2": cert.delta2})
        if cert.passed:
            status = "converged"
            break
        key = _pair_key(v[1], v[2], states)
        if key in seen:
            status = "cycle_detected"
            trace.append({"round": rounds, "note": "strategy pair repeated"})
            break
        seen.add(key)

    v1, v2, cert = certified
    return _from_certify(v1, v2, cert, eps, status, rounds, trace)


def profile_count(model: GameModel, truncation: Truncation,
                  cap: int = 1 << 30) -> int:
    """Number of pure strategy pairs on the truncation, saturating at cap."""
    total = 1
    for player in (1, 2):
        for i in truncation.states:
            total *= model.n_actions(player, i)
            if total > cap:
                return cap + 1
    return total


def _pure_pairs(model, truncation):
    sizes1 = [model.n_actions(1, i) for i in truncation.states]
    sizes2 = [model.n_actions(2, i) for i in truncation.states]

    def selectors(sizes):
        combos = [()]
        for m in sizes:
            combos = [c + (a,) for c in combos for a in range(m)]
        return combos

    for s1 in selectors(sizes1):
        for s2 in selectors(sizes2):
            yield s1, s2


def find_nash(model: GameModel, truncation: Truncation, eps: float = 1e-6,
              damping: float = 1.0, max_rounds: int = 100,
              tol: float = 1e-10, max_iter: int | None = None,
              exhaustive_cap: int = 64) -> NashCertificate:
    """Equilibrium search with fallbacks.

    Tries plain best-response iteration, then a damped restart from the
    uniform pair, then (when the game has at most ``exhaustive_cap`` pure
    profiles) an exhaustive certification sweep over pure pairs.  The
    returned certificate is honest: if nothing converged, the best
    attempt's status says so.
    """
    cert = nash_iterate(model, truncation, damping=damping, eps=eps,
                        max_rounds=max_rounds, tol=tol, max_iter=max_iter)
    if cert.converged:
        return cert
    retry = nash_iterate(model, truncation, damping=0.5, eps=eps,
                         max_rounds=max_rounds, tol=tol, max_iter=max_iter)
    if retry.converged:
        return retry
    best = min((cert, retry), key=lambda c: c.gap)
    if profile_count(model, truncation) <= exhaustive_cap:
        for s1, s2 in _pure_pairs(model, truncation):
            p1 = pure_strategy(model, 1, lambda i, s=s1: s[i - 1])
            p2 = pure_strategy(model, 2, lambda i, s=s2: s[i - 1])
            try:
                res = certify(model, truncation, p1, p2, eps, tol, max_iter)
            except ConvergenceError:
                continue
            if res.passed:
                return _from_certify(
                    p1, p2, res, eps, "converged", 0,
                    ({"note": "exhaustive pure-profile search"},))
    return best


@dataclass(frozen=True)
class ConversePlayerReport:
    player: int
    rho: float
    worst_defect: float
    worst_state: int
    threshold: float
    passed: bool
    defects: tuple


@dataclass(frozen=True)
class ConverseReport:
    """Per-state optimality defects of a pair against its own HJB minima.

    For each player the frozen-opponent eigenproblem is solved and the
    pair's strategy is compared, state by state, with the per-state
    minimum of the objective (defects normalized by the eigenfunction, so
    they are in eigenvalue units).  The pair passes when every defect
    stays within ``tol * (1 + |rho|)``.
    """

    players: tuple

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.players)

    def worst(self) -> float:
        return max(p.worst_defect for p in self.players)


def converse_check(model: GameModel, truncation: Truncation,
                   v1: StationaryStrategy, v2: StationaryStrategy,
                   tol: float = 1e-10,
                   max_iter: int | None = None) -> ConverseReport:
    """Solve both frozen-opponent eigenproblems, then
    :func:`converse_report` the pair against them."""
    eigenpairs = tuple(
        best_response_eigenpair(model, truncation, opp, player, tol,
                                max_iter)[0]
        for player, opp in ((1, v2), (2, v1)))
    return converse_report(model, truncation, v1, v2, eigenpairs, tol)


def converse_report(model: GameModel, truncation: Truncation,
                    v1: StationaryStrategy, v2: StationaryStrategy,
                    eigenpairs: tuple, tol: float = 1e-10) -> ConverseReport:
    """Per-state defects of ``(v1, v2)`` against given eigenpairs.

    ``eigenpairs`` holds each player's frozen-opponent (best-response)
    eigenpair against the other's strategy, such as a certificate's
    ``(eigen1, eigen2)``.
    """
    reports = []
    for player, own, opp, ep in ((1, v1, v2, eigenpairs[0]),
                                 (2, v2, v1, eigenpairs[1])):
        op, z = _objective(model, truncation, opp, player, ep.psi)
        _, w = own.table(truncation.states, op.counts)
        defects = (_segment_dots(w, z, op.starts, op.counts)
                   - np.minimum.reduceat(z, op.starts)) / ep.psi
        worst = int(np.argmax(defects))
        threshold = tol * (1.0 + abs(ep.rho))
        reports.append(ConversePlayerReport(
            player=player, rho=ep.rho, worst_defect=float(defects[worst]),
            worst_state=truncation.states[worst], threshold=threshold,
            passed=bool(defects[worst] <= threshold),
            defects=tuple(defects.tolist())))
    return ConverseReport(players=tuple(reports))


def _segment_dots(w, z, starts, counts) -> np.ndarray:
    """``w[a:b] @ z[a:b]`` over each segment ``a = starts[s]``, ``b = a +
    counts[s]``: the segments of one length go through one ``vecdot``,
    which takes each segment's dot product as ``@`` does, bit for bit."""
    out = np.empty(counts.size)
    for m in np.unique(counts).tolist():
        seg = np.flatnonzero(counts == m)
        at = starts[seg, None] + np.arange(m)
        out[seg] = np.vecdot(w[at], z[at])
    return out
