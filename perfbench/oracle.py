"""Independent correctness oracles for the benchmark (numpy and scipy only).

Every reference here comes from dense matrices built from the benchmark's
own game tables or from the shop's closed-form ``shop_row`` /
``shop_costs``; nothing goes through rsgame's generator, eigensolver or
nash modules.  Each check returns a list of problems; an empty list means
the output is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

Z_LIMIT = 4.0          # Monte-Carlo estimates must lie within 4 standard errors
SE_RATIO = 5.0         # reported standard errors within this factor of the exact
RHO_RTOL = 1e-8        # eigenvalue agreement, relative to 1 + |rho|
BRACKET_RTOL = 1e-9    # width the oracle's own Collatz-Wielandt bracket must reach


class OracleError(RuntimeError):
    """The oracle itself could not reach its accuracy (not a program fault)."""


@dataclass(frozen=True)
class DenseGame:
    """A game restricted to states ``1..n`` as dense per-state tables.

    ``rows[i]`` has shape ``(m1, m2, n)``: the rate row of state ``i + 1``
    under each pure action pair, with off-truncation mass dropped and the
    full diagonal kept (killing at the boundary).  ``costs[i]`` has shape
    ``(2, m1, m2)``.
    """

    rows: tuple
    costs: tuple

    @property
    def n(self) -> int:
        return len(self.rows)

    def averaged(self, w1, w2):
        """Generator and both cost vectors under a mixed strategy pair."""
        Q = np.array([np.einsum("a,b,abj->j", a, b, r)
                      for a, b, r in zip(w1, w2, self.rows)])
        c = np.array([[a @ ck[k] @ b for a, b, ck in zip(w1, w2, self.costs)]
                      for k in (0, 1)])
        return Q, c

    def own_action_rows(self, player, opponent):
        """Per state: own-action rows and costs with the opponent averaged."""
        out = []
        for i, (r, ck, wo) in enumerate(zip(self.rows, self.costs, opponent)):
            if player == 1:
                out.append((np.einsum("abj,b->aj", r, wo), ck[0] @ wo))
            else:
                out.append((np.einsum("abj,a->bj", r, wo), wo @ ck[1]))
        return out


def finite_dense_game(game) -> DenseGame:
    """Dense tables of an ``inputs.FiniteGame`` (all states)."""
    Q, (C1, C2) = game.Q, game.C
    rows = tuple(np.ascontiguousarray(Q[:, :, i, :]) for i in range(game.n))
    costs = tuple(np.stack([C1[:, :, i], C2[:, :, i]]) for i in range(game.n))
    return DenseGame(rows=rows, costs=costs)


def shop_dense_game(n: int) -> DenseGame:
    """Dense tables of the default shop on states ``1..n`` (closed form)."""
    from rsgame.model import ShopParams, shop_costs, shop_row

    params = ShopParams()
    rows, costs = [], []
    for i in range(1, n + 1):
        g1, g2 = params.grid(1, i), params.grid(2, i)
        r = np.zeros((g1.size, g2.size, n))
        c = np.zeros((2, g1.size, g2.size))
        for a, u1 in enumerate(g1):
            for b, u2 in enumerate(g2):
                for j, rate in shop_row(params, i, u1, u2).items():
                    if j <= n:
                        r[a, b, j - 1] = rate
                c[:, a, b] = shop_costs(params, i, u1, u2)
        rows.append(r)
        costs.append(c)
    return DenseGame(rows=tuple(rows), costs=tuple(costs))


def uniform_weights(game: DenseGame):
    w1 = [np.full(r.shape[0], 1.0 / r.shape[0]) for r in game.rows]
    w2 = [np.full(r.shape[1], 1.0 / r.shape[1]) for r in game.rows]
    return w1, w2


@dataclass(frozen=True)
class Perron:
    rho: float
    psi: np.ndarray     # positive, psi[0] == 1 (anchor state 1)
    bracket: tuple


def perron(M: np.ndarray, bracket: bool = True) -> Perron:
    """Principal eigenpair of an irreducible Metzler matrix.

    ``scipy.linalg.eig`` locates the eigenvalue; two steps of shifted
    inverse iteration polish the vector, and the Collatz-Wielandt bracket
    ``[min (M psi)/psi, max (M psi)/psi]`` proves the eigenvalue to
    ``BRACKET_RTOL``.  Left vectors of the shop decay below the smallest
    double, so they are taken with ``bracket=False``.
    """
    vals, vecs = scipy.linalg.eig(M)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    psi = np.abs(vecs[:, k].real)
    shift = lam + 1e-7 * (1.0 + abs(lam))
    lu = scipy.linalg.lu_factor(shift * np.eye(len(M)) - M)
    for _ in range(2):
        psi = np.abs(scipy.linalg.lu_solve(lu, psi))
        psi /= psi.max()
    if not bracket:
        return Perron(rho=lam, psi=psi / psi[0], bracket=(lam, lam))
    ratios = (M @ psi) / psi
    lo, hi = float(ratios.min()), float(ratios.max())
    if not hi - lo <= BRACKET_RTOL * (1.0 + abs(lam)):
        raise OracleError(f"dense Perron bracket [{lo!r}, {hi!r}] too wide")
    return Perron(rho=0.5 * (lo + hi), psi=psi / psi[0], bracket=(lo, hi))


def best_response_floor(game: DenseGame, player: int, own, opponent):
    """Dense risk-sensitive policy iteration for one player's best response.

    Starts from the player's own (possibly mixed) strategy ``own``.  Each
    step takes the Perron pair of the current selector and moves every
    state to the action minimizing ``(A^a psi)(i) / psi(i)``.  The minimum
    of that quantity over states and actions bounds every stationary
    deviation's rate from below (Collatz-Wielandt).  Returns ``(start,
    best, floor)``: the rate of ``own`` itself, the lowest rate reached by
    a selector, and that lower bound at the last step.
    """
    parts = game.own_action_rows(player, opponent)
    n = game.n
    weights = [np.asarray(w, dtype=float) for w in own]
    start = best = None
    for _ in range(50):
        M = np.array([w @ r for w, (r, _) in zip(weights, parts)])
        M[np.arange(n), np.arange(n)] += [w @ c for w, (_, c) in zip(weights, parts)]
        pair = perron(M)
        start = pair.rho if start is None else start
        best = pair.rho if best is None else min(best, pair.rho)
        values = [(r @ pair.psi + c * pair.psi[i]) / pair.psi[i]
                  for i, (r, c) in enumerate(parts)]
        floor = min(float(v.min()) for v in values)
        if floor >= pair.rho - BRACKET_RTOL * (1.0 + abs(pair.rho)):
            return start, best, floor
        new = []
        for w, v in zip(weights, values):
            current = float(w @ v)
            a = int(np.argmin(v))
            step = np.zeros_like(w)
            step[a] = 1.0
            new.append(step if v[a] < current - 1e-12 * (1.0 + abs(current)) else w)
        if all(np.array_equal(a, b) for a, b in zip(new, weights)):
            return start, best, floor
        weights = new
    raise OracleError("dense policy iteration did not settle in 50 steps")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def check_solve(game: DenseGame, rc: int, payload: dict, eps: float) -> list:
    """Exit code, status, both rho_k, and the eps-Nash property."""
    problems = []
    if rc != 0:
        problems.append(f"solve exit code {rc}")
    cert = payload.get("certificate")
    if cert is None:
        return problems + ["solve wrote no certificate"]
    if cert["status"] != "converged":
        problems.append(f"status {cert['status']!r}")
    w1 = [np.asarray(w, dtype=float) for w in cert["strategies"]["1"]]
    w2 = [np.asarray(w, dtype=float) for w in cert["strategies"]["2"]]
    if len(w1) != game.n or len(w2) != game.n:
        return problems + ["certificate strategies do not cover the truncation"]
    for k in (1, 2):
        rho = float(cert["rho"][k - 1])
        own, opp = (w1, w2) if k == 1 else (w2, w1)
        # the first policy-iteration step is the pair's own operator
        # Q(v1, v2) + diag(c_k), so its rate is the dense rho_k
        ref, best, floor = best_response_floor(game, k, own, opp)
        if abs(rho - ref) > RHO_RTOL * (1.0 + abs(ref)):
            problems.append(f"rho_{k} = {rho!r}, dense eigenvalue {ref!r}")
        if best < rho - eps or floor < rho - eps:
            problems.append(f"player {k} can deviate to rate {best!r} "
                            f"(floor {floor!r}) below rho - eps = {rho - eps!r}")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(rc: int, payload: dict, check_range: int,
                 states: int, shop: bool) -> list:
    """Exit code 0 and every report holding on the requested range."""
    problems = []
    if rc != 0:
        problems.append(f"verify exit code {rc}")
    if payload.get("checked_range") != [1, check_range]:
        problems.append(f"checked range {payload.get('checked_range')}")
    if not payload["model_invariants"]["ok"]:
        problems.append("model invariants violated")
    irr = payload["irreducibility"]
    if not irr["irreducible"] or len(irr["components"][0]) != states:
        problems.append(f"irreducibility on {states} states not shown")
    names = ["anchor_row"]
    if shop:
        names += ["growth_drift", "killed_drift"]
        if not payload["shop_conditions"]["all_pass"]:
            problems.append("a shop condition display failed")
        if payload["shop_conditions"]["checked_range"] != [1, check_range]:
            problems.append("shop conditions not checked on the full range")
    for name in names:
        rep = payload[name]
        if rep["status"] != "holds-on-checked-range":
            problems.append(f"{name}: {rep['status']}")
        if name != "anchor_row" and rep["checked_range"] != [1, check_range]:
            problems.append(f"{name} checked on {rep['checked_range']}")
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateReference:
    """Dense references for the shop's growth estimate and hitting check.

    ``growth_mean`` is ``rho + b / T`` with
    ``b = log(psi(start) (w . 1) / (w . psi))``; ``growth_sd`` the standard
    deviation of the log-sum-exp estimate at ``paths`` paths, from the
    second moment ``E exp(2 X)`` (Perron pair of ``Q + 2C``).  ``hit_psi``
    and ``hit_sd`` hold, per start, the killed-truncation ``psi(start)``
    and the standard deviation of the hitting estimate at ``paths`` paths.
    """

    rho: float
    growth_mean: float
    growth_sd: float
    hit_psi: dict
    hit_sd: dict


def _asymptotic_moment(M, start_idx):
    """``log (exp(T M) 1)(start)`` minus ``rho T``, for large T."""
    right = perron(M)
    left = perron(M.T, bracket=False)
    return right.rho, math.log(right.psi[start_idx] * left.psi.sum()
                               / (left.psi @ right.psi))


def simulate_reference(horizon: float, paths: int, trunc: int, targets,
                       starts, growth_states: int = 160) -> SimulateReference:
    """References for the uniform pair, player 1, start at the anchor."""
    big = shop_dense_game(growth_states)
    Q, c = big.averaged(*uniform_weights(big))
    rho, b = _asymptotic_moment(Q + np.diag(c[0]), 0)
    rho2, b2 = _asymptotic_moment(Q + np.diag(2.0 * c[0]), 0)
    rel_var = math.exp((rho2 - 2.0 * rho) * horizon + b2 - 2.0 * b) - 1.0
    growth_sd = math.sqrt(rel_var / paths) / horizon

    small = shop_dense_game(trunc)
    Qs, cs = small.averaged(*uniform_weights(small))
    killed = perron(Qs + np.diag(cs[0]))
    tgt = sorted(t - 1 for t in targets)
    inner = [i for i in range(trunc) if i not in set(tgt)]
    QUU = Qs[np.ix_(inner, inner)]
    QUT = Qs[np.ix_(inner, tgt)]
    tilt = cs[0][inner] - killed.rho
    psi_t = killed.psi[tgt]
    first = np.linalg.solve(QUU + np.diag(tilt), -QUT @ psi_t)
    second = np.linalg.solve(QUU + np.diag(2.0 * tilt), -QUT @ psi_t ** 2)
    hit_psi, hit_sd = {}, {}
    for s in starts:
        k = inner.index(s - 1)
        hit_psi[s] = float(killed.psi[s - 1])
        if not (np.isclose(first[k], hit_psi[s], rtol=1e-8) and second[k] > 0):
            raise OracleError(f"hitting moments at start {s} are inconsistent")
        hit_sd[s] = math.sqrt(max(second[k] - first[k] ** 2, 0.0) / paths)
    return SimulateReference(rho=rho, growth_mean=rho + b / horizon,
                             growth_sd=growth_sd, hit_psi=hit_psi,
                             hit_sd=hit_sd)


def check_simulate(ref: SimulateReference, rc: int, stdout: str,
                   growth_row, hitting_rows) -> list:
    """Growth estimate and hitting estimates within ``Z_LIMIT`` errors.

    The error scale is the larger of the reported batch standard error
    and the dense standard deviation: a 20-batch error estimate is itself
    noisy, and an understated one must not turn a correct estimate into a
    failure.  A reported error off the exact one by more than ``SE_RATIO``
    is wrong output.  Exit code 1 is accepted only when it comes from the
    command's own 3-SE hitting self-check.
    """

    def scale_of(what, se, sd):
        if not sd / SE_RATIO <= se <= sd * SE_RATIO:
            problems.append(f"{what}: reported standard error {se!r}, exact {sd!r}")
        return max(se, sd)

    problems = []
    if rc not in (0, 1) or (rc == 1 and "within 3 SE = False" not in stdout):
        problems.append(f"simulate exit code {rc}")
    escaped = [tok for tok in stdout.split() if tok.startswith("escaped=")]
    if escaped != ["escaped=0"]:
        problems.append(f"escaped paths reported: {escaped}")
    rho_hat = float(growth_row[1])
    scale = scale_of("growth", float(growth_row[2]), ref.growth_sd)
    if not abs(rho_hat - ref.growth_mean) <= Z_LIMIT * scale:
        problems.append(f"rho_hat {rho_hat!r} is {(rho_hat - ref.growth_mean) / scale:+.2f} "
                        f"errors from rho + b/T = {ref.growth_mean!r}")
    seen = set()
    for row in hitting_rows:
        start, estimate = int(row["start"]), float(row["estimate"])
        seen.add(start)
        scale = scale_of(f"start {start}", float(row["se"]), ref.hit_sd[start])
        psi = ref.hit_psi[start]
        if not abs(estimate - psi) <= Z_LIMIT * scale:
            problems.append(f"hitting estimate {estimate!r} at start {start} is "
                            f"{(estimate - psi) / scale:+.2f} errors from psi {psi!r}")
    if seen != set(ref.hit_psi):
        problems.append(f"hitting rows for starts {sorted(seen)}")
    return problems
