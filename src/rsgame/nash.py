"""Best-response dynamics, equilibrium certificates, and selector checks.

A strategy pair is an equilibrium when neither player can lower their
long-run growth rate by deviating unilaterally.  Because deviations within
stationary strategies are resolved by the frozen-opponent eigenproblem,
certification reduces to each player's value at the pair minus their
best-response value against the other's strategy.  The best responses are
solved first, and each pair value is bracketed starting from that
player's best-response eigenvector: at an equilibrium the two
eigenfunctions coincide, so the pair's bracket closes at step 0.  Those
eigenpairs belong to the certificate: :func:`nash_iterate` reuses the
best responses it has already solved, and :func:`converse_report` reads
the certificate's eigenpairs instead of solving them again; the
frozen-opponent operator against a strategy is built once and kept on the
model while the strategy lives.

The iteration alternates (damped) best responses.  Existence of an
equilibrium in mixed stationary strategies is a fixed-point fact, but
convergence of this iteration is not guaranteed, so the certificate
always reports which of {converged, cycle_detected, max_iter} actually
happened; it never fabricates convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import generator
from .eigensolver import (
    ConvergenceError,
    EigenPair,
    best_response_eigenpair,
    principal_eigenpair,
)
from .eigensolver import _response_operator
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
    "certify",
    "nash_iterate",
    "find_nash",
    "converse_check",
    "converse_report",
    "profile_count",
]

STRATEGY_QUANTUM = 1e-12
EXHAUSTIVE_PROFILES = 64


def _objective(model: GameModel, truncation: Truncation,
               opponent_strategy: StationaryStrategy, player: int,
               psi: np.ndarray) -> tuple:
    """The frozen-opponent operator and its objective at every state-action
    row at once: ``sum_j psi(j) q^a_ij + c^a(i) psi(i)`` at row ``(i, a)``,
    with the opponent averaged out, the full-space diagonal kept, and
    ``psi`` extended by zero outside the truncation."""
    op = _response_operator(model, truncation, opponent_strategy, player)
    return op, op.S @ psi - op.alpha * psi[op.owner]


@dataclass(frozen=True)
class CertifyResult:
    """Deviation gaps of a strategy pair on one truncation.

    ``delta_k = rho_k(pair) - rho_k(best response)`` is nonnegative up to
    twice the solver residual (a gap below ``-3 tol`` raises
    ``ConvergenceError``); the pair is ``eps``-optimal when both gaps stay
    at or below ``eps``.
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
    ``solve_br(player, opponent_strategy) -> (EigenPair, selector)``.

    Each pair solve starts from that player's best-response eigenvector:
    at an equilibrium it is the pair's eigenvector too, and the pair's own
    bracket closes at step 0.  A gap below ``-3 tol`` raises
    ``ConvergenceError``: each midpoint lies within ``tol / 2`` plus its
    rounding floor (itself below ``tol``) of its eigenvalue, and no best
    response has a value above the pair's."""
    br1, sel1 = solve_br(1, v2)
    br2, sel2 = solve_br(2, v1)
    A1 = generator.assemble(model, truncation, v1, v2, 1)
    A2 = generator.assemble(model, truncation, v1, v2, 2)
    pair1 = principal_eigenpair(A1, model.anchor, tol, max_iter, psi0=br1.psi)
    pair2 = principal_eigenpair(A2, model.anchor, tol, max_iter, psi0=br2.psi)
    delta1 = pair1.rho - br1.rho
    delta2 = pair2.rho - br2.rho
    for player, gap, pair in ((1, delta1, pair1), (2, delta2, pair2)):
        if gap < -3.0 * tol:
            raise ConvergenceError(
                f"certificate of player {player} is numerically unsound: "
                f"the deviation gap {gap:.3e} lies below -3 tol "
                f"({-3.0 * tol:.3e}), a best response above the pair's "
                "own value", bracket=pair.bracket, iterations=pair.iterations)
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
        # A new solve starts from the player's own latest eigenvector, else
        # from the other player's.
        hit = latest.get(player)
        if hit is None or hit[0] is not opp:
            warm = hit or latest.get(3 - player)
            psi0 = None if warm is None else warm[1][0].psi
            hit = latest[player] = (opp, best_response_eigenpair(
                model, truncation, opp, player, tol, max_iter, psi0=psi0))
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


def find_nash(model: GameModel, truncation: Truncation, eps: float = 1e-6,
              damping: float = 1.0, max_rounds: int = 100, tol: float = 1e-10,
              max_iter: int | None = None) -> NashCertificate:
    """Equilibrium search with fallbacks.

    Tries plain best-response iteration, then a damped restart from the
    uniform pair, then (when the game has at most ``EXHAUSTIVE_PROFILES``
    pure profiles) an exhaustive certification sweep over pure pairs in
    lexicographic order, player 1's selector varying slowest.  The
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
    if profile_count(model, truncation) <= EXHAUSTIVE_PROFILES:
        grids = [[range(model.n_actions(p, i)) for i in truncation.states]
                 for p in (1, 2)]
        for s1, s2 in product(product(*grids[0]), product(*grids[1])):
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
