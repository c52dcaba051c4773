"""Principal eigenpairs of tilted generators, linear and nonlinear.

The linear solver handles a fixed strategy pair.  Its kernel works on the
shifted nonnegative matrix ``M = A + alpha I``: plain power steps while
their bracket shrinks fast enough to close within ``POWER_STEPS`` of
them, then Noda's shift-invert steps (Noda 1971; Elsner 1976), which
solve ``(sigma I - M) x = psi`` by sparse LU with ``sigma`` the
Collatz-Wielandt upper bound ``max_i (M psi)_i / psi_i``.  Both phases
keep ``psi`` positive, and both stop only when the Collatz-Wielandt
bracket ``[min_i (M psi)_i / psi_i, max_i (M psi)_i / psi_i]`` is
narrower than the tolerance, which may not lie below the bracket's
rounding floor.  The nonlinear solver freezes one player and minimizes
over the other player's pure actions by policy iteration on the linear
kernel.  At a selector no action strictly improves, the min-operator maps
``psi`` as the selector does, so the selector's closed bracket is the
min-operator's exit certificate, valid because the min-operator is
monotone and positively homogeneous.  A ladder of nested truncations
tracks the eigenvalue as the state space grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix, csgraph, csr_matrix, identity
from scipy.sparse.linalg import splu

from . import generator
from .model import GameModel, StationaryStrategy, _selector, truncate

__all__ = [
    "EigenPair",
    "LadderRung",
    "LadderResult",
    "ConvergenceError",
    "principal_eigenpair",
    "best_response_eigenpair",
    "truncation_ladder",
    "default_max_iter",
]


class ConvergenceError(RuntimeError):
    """Raised when an eigensolve's bracket stays open (see ``_unclosed``).

    Carries the last Collatz-Wielandt bracket (already unshifted) so the
    caller can see how tight the estimate got.
    """

    def __init__(self, message, bracket, iterations):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive eigenfunction on a truncation.

    ``psi`` is indexed like ``states`` and normalized to one at the anchor
    state; ``bracket`` holds the final Collatz-Wielandt bounds on ``rho``
    and ``residual`` the sup-norm eigen-equation defect relative to
    ``max |psi|``.  ``warnings`` holds the solver's notes (a reducible
    operator, an eigenvector that vanishes at the anchor); they are data
    for the caller to report, not Python warnings.
    """

    rho: float
    psi: np.ndarray
    residual: float
    iterations: int
    states: tuple
    anchor: int
    bracket: tuple
    warnings: tuple = ()

    def psi_at(self, state: int) -> float:
        return float(self.psi[state - self.states[0]])

    def psi_map(self) -> dict:
        return {s: float(x) for s, x in zip(self.states, self.psi)}


def default_max_iter(n: int) -> int:
    return 100 * n + 10_000


# The most plain power steps one kernel call takes.  It switches to Noda
# steps sooner, after any power step at whose rate the bracket would not
# close within this many.  Operators that mix fast (random dense-ish rows)
# close it in a few dozen cheap matvecs, where a sparse LU with fill-in
# would cost more; slow ones (the shop's birth-death chain) switch after a
# few power steps.
POWER_STEPS = 100

# A bracket endpoint is exact to ``ROUNDING_ULPS * eps * max(alpha, lo)``
# (8 unit roundoffs of the shift or of the shifted lower bound ``lo``,
# whichever is larger); no solve accepts a tolerance below that floor.
ROUNDING_ULPS = 4


def _power_iterate(M, alpha, anchor_idx, tol, max_iter, what, spent=0,
                   psi0=None):
    """Principal eigenvector of a shifted operator, bracket-certified.

    ``M`` is a sparse, entrywise nonnegative matrix with a positive
    diagonal.  The call starts from ``psi0`` (ones if None) with power
    steps ``psi <- M psi``.  After each one, with ``r`` the bracket's
    width over its width before that step, it switches to Noda steps for
    the rest of the call once ``width * r ** (POWER_STEPS - steps) > tol``:
    the width no longer shrinks (``r >= 1``), or shrinking at rate ``r``
    it would still exceed ``tol`` after step ``POWER_STEPS``, which caps
    the power steps.  A Noda step, with ``sigma`` the Collatz-Wielandt
    upper bound ``max_i (M psi)_i / psi_i``, solves ``(sigma I - M) x =
    psi`` by sparse LU and takes ``psi <- x``.  A Noda step whose
    factorization fails or whose solution is not finite and positive is
    replaced by a power step.  Every step keeps ``psi`` positive and
    normalized to one at ``anchor_idx``.

    Returns ``(lo, hi, psi, steps)``: the closed Collatz-Wielandt bounds
    of ``psi`` on ``M``, the operator shifted by ``alpha``, and the power
    steps plus solves taken.  ``spent`` steps of ``max_iter`` are used
    already.  An open bracket raises ``_unclosed`` for ``what``: at once
    when ``tol`` is below the rounding floor or the bracket is not finite
    (say, ``psi`` out of double range), else when the budget is spent.
    The floor is taken after every matvec from the shift and the lower
    bound ``lo``; the eigenvalue is at least ``lo``, so the floor never
    overstates the rounding of the final bracket.
    """
    ulps = ROUNDING_ULPS * np.finfo(float).eps
    psi = np.ones(M.shape[0]) if psi0 is None else psi0 / psi0[anchor_idx]
    shift = None
    steps = 0
    width = None  # the bracket width before the last power step
    while True:
        y = M @ psi
        ratios = y / psi
        lo = float(ratios.min())
        hi = float(ratios.max())
        floor = ulps * max(alpha, lo)
        if (tol < floor or hi - lo <= tol or spent + steps >= max_iter
                or not math.isfinite(hi - lo)):
            break
        # leave power steps once the width, shrinking at its last rate,
        # would still exceed tol after step POWER_STEPS
        if (shift is None and width is not None
                and (hi - lo) * ((hi - lo) / width) ** (POWER_STEPS - steps)
                > tol):
            shift = _NodaShift(M)
        width = hi - lo
        steps += 1
        x = None
        if shift is not None:
            x = _noda_step(shift(hi), psi, anchor_idx)
        psi = y / y[anchor_idx] if x is None else x
    if tol < floor or not hi - lo <= tol:
        raise _unclosed(what, tol, max_iter, floor, lo - alpha, hi - alpha,
                        spent + steps)
    return lo, hi, psi, steps


class _NodaShift:
    """``sigma I - M`` in CSC form for any ``sigma``, from one pattern.

    The pattern holds every nonzero off-diagonal entry of ``M`` (as
    ``0.0 - M_ij``) and a slot on every diagonal; a call writes
    ``sigma - M_ii`` into the diagonal slots and drops those that are
    exactly zero.  That is the matrix scipy's ``sigma * identity(n, "csc")
    - M`` gives, entry for entry and in the same order.
    """

    def __init__(self, M):
        C = M.tocsc()
        C.sum_duplicates()
        n = C.shape[0]
        col = np.repeat(np.arange(n), np.diff(C.indptr))
        off = (C.indices != col) & (C.data != 0.0)
        row = np.concatenate([C.indices[off], np.arange(n)])
        col = np.concatenate([col[off], np.arange(n)])
        order = np.lexsort((row, col))
        self.diag = C.diagonal()
        self.slots = np.argsort(order)[off.sum():]  # where each diagonal went
        data = np.concatenate([0.0 - C.data[off], np.zeros(n)])[order]
        indptr = np.zeros(n + 1, dtype=C.indptr.dtype)
        np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
        self.matrix = csc_matrix((data, row[order].astype(C.indices.dtype),
                                  indptr), shape=C.shape)
        self.matrix.has_canonical_format = True

    def __call__(self, sigma):
        S = self.matrix
        values = sigma - self.diag
        S.data[self.slots] = values
        zero = values == 0.0
        if not zero.any():
            return S
        keep = np.ones(S.nnz, dtype=bool)
        keep[self.slots[zero]] = False
        indptr = S.indptr - np.concatenate([[0], np.cumsum(zero)]).astype(
            S.indptr.dtype)
        return csc_matrix((S.data[keep], S.indices[keep], indptr),
                          shape=S.shape)


def _noda_step(shifted, psi, anchor_idx):
    """Normalized solution of ``shifted x = psi``, or None."""
    try:
        x = splu(shifted).solve(psi)
    except RuntimeError:  # exactly singular factor
        return None
    with np.errstate(all="ignore"):
        x = x / x[anchor_idx]
    if np.all(np.isfinite(x)) and x.min() > 0.0:
        return x
    return None


def _unclosed(what, tol, max_iter, floor, lo, hi, steps):
    """The error of a solve that stopped with its bracket ``[lo, hi]``
    (unshifted) open after ``steps`` iterations: not finite, ``tol`` below
    the rounding ``floor``, or the budget ``max_iter`` spent."""
    if not math.isfinite(hi - lo):
        message = (f"{what} stopped after {steps} iterations: the bracket "
                   f"[{lo:.6g}, {hi:.6g}] is not finite")
    elif tol < floor:
        message = (f"{what} did not reach bracket width {tol:g}: it is below "
                   f"the rounding floor {floor:.3e} of the bracket")
    else:
        message = (f"{what} did not reach bracket width {tol:g} within "
                   f"{max_iter} iterations (last width {hi - lo:.3e})")
    return ConvergenceError(message, bracket=(lo, hi), iterations=steps)


def _eigenpair(lo, hi, alpha, y, psi, its, states, anchor, notes):
    """The ``EigenPair`` of a closed shifted bracket ``[lo, hi]`` with
    ``y = M psi``: ``rho`` is the midpoint less ``alpha``, and the
    residual is the defect of ``y`` against the midpoint."""
    mid = 0.5 * (lo + hi)
    resid = float(np.max(np.abs(y - mid * psi)) / np.max(np.abs(psi)))
    return EigenPair(rho=mid - alpha, psi=psi, residual=resid,
                     iterations=its, states=states, anchor=anchor,
                     bracket=(lo - alpha, hi - alpha), warnings=tuple(notes))


def principal_eigenpair(A: generator.TwistedMatrix, i0: int,
                        tol: float = 1e-10, max_iter: int | None = None, *,
                        psi0: np.ndarray | None = None) -> EigenPair:
    """Principal eigenpair of the tilted operator under fixed strategies.

    Runs ``_power_iterate`` on ``M = A + alpha I``; the reported eigenvalue
    is the bracket midpoint minus the shift, and ``iterations`` counts
    power steps plus Noda solves.  The iteration starts from ``psi0``
    where that is finite and positive on the states solved, else from
    ones; the bracket certifies the eigenvalue from any positive start,
    and a start already at the eigenvector closes it at step 0.  A
    reducible operator is noted in ``warnings`` and solved on the states
    from which its dominant strong component (see ``_reaching_dominant``)
    is reachable: ``M`` restricted to them has a positive principal
    eigenvector, and that vector, zero elsewhere, is an eigenvector of
    ``M``.  Where it vanishes at the anchor it is normalized by its
    maximum entry instead.
    """
    n = A.n
    if max_iter is None:
        max_iter = default_max_iter(n)
    anchor_idx = A.index(i0)
    M = (A.A + A.alpha * identity(n, format="csr")).tocsr()
    pattern = M > 0
    ncomp, labels = csgraph.connected_components(pattern, directed=True,
                                                 connection="strong")
    notes: list = []
    its = 0
    sub, sub_anchor, keep = M, anchor_idx, slice(None)
    if ncomp > 1:
        msg = (f"operator is reducible ({ncomp} strongly connected "
               "components); solved on the states that reach its dominant "
               "component")
        notes.append(msg)
        keep, its = _reaching_dominant(M, pattern, A.alpha, labels, tol,
                                       max_iter)
        sub = M[keep][:, keep]
        inside = keep == anchor_idx
        sub_anchor = int(np.argmax(inside))  # the first kept state if none
    if psi0 is not None:
        psi0 = _positive_start(np.asarray(psi0, dtype=float)[keep])
    lo, hi, psi, steps = _power_iterate(sub, A.alpha, sub_anchor, tol,
                                        max_iter, "linear eigensolve", its,
                                        psi0)
    its += steps
    if ncomp > 1:
        psi, kept = np.zeros(n), psi
        psi[keep] = kept
        if not inside.any():
            psi /= kept.max()
            notes.append("eigenvector vanishes at the anchor state; "
                         "normalized by its maximum instead")
    return _eigenpair(lo, hi, A.alpha, M @ psi, psi, its, A.states, i0, notes)


def _positive_start(psi0):
    """``psi0`` as a float array where it is given, finite and positive,
    else None."""
    if psi0 is None:
        return None
    psi0 = np.asarray(psi0, dtype=float)
    if np.all(np.isfinite(psi0)) and psi0.min() > 0.0:
        return psi0
    return None


def _reaching_dominant(M, pattern, alpha, labels, tol, max_iter):
    """The states (sorted indices) from which the dominant strong
    component is reachable, and the steps taken to find the block
    eigenvalues: a one-state block's is its diagonal entry, a larger
    block's comes from ``_power_iterate`` on its slice of ``M``.

    The dominant component is the first of largest block eigenvalue that
    no other component of that eigenvalue (within ``tol``) reaches.  A
    component reached from a tying one carries no positive eigenvector:
    the exact vector of the tie is zero on it and on what it reaches."""
    sizes = np.bincount(labels)
    block = np.empty(sizes.size)
    single = sizes[labels] == 1
    block[labels[single]] = M.diagonal()[single]
    its = 0
    for comp in np.flatnonzero(sizes > 1).tolist():
        idx = np.flatnonzero(labels == comp)
        lo, hi, _, steps = _power_iterate(M[idx][:, idx], alpha, 0, tol,
                                          max_iter, "linear eigensolve", its)
        its += steps
        block[comp] = 0.5 * (lo + hi)
    tied = block >= block.max() - tol
    for comp in sorted(np.flatnonzero(tied).tolist(), key=lambda c: -block[c]):
        source = int(np.flatnonzero(labels == comp)[0])
        keep = csgraph.breadth_first_order(pattern.T, source, directed=True,
                                           return_predecessors=False)
        if np.all(labels[keep][tied[labels[keep]]] == comp):
            break
    keep.sort()
    return keep, its


class _ResponseOperator:
    """Stacked per-action rows for the frozen-opponent minimization.

    Row ``(i, a)`` of the stacked sparse matrix applies the shifted
    tilted operator for own action ``a`` at state ``i``; a segmented
    minimum then yields the nonlinear operator image in one matvec.
    Built through ``_response_operator``, which shares it while the same
    player, truncation and opponent ask again; its arrays are read-only.
    """

    def __init__(self, model, truncation, opponent, player):
        if opponent.player == player:
            raise ValueError("opponent strategy belongs to the responding player")
        n = truncation.n
        table = generator.pair_table(model, truncation.states)
        counts = table.m1 if player == 1 else table.m2
        starts = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(n), counts)
        own = table.a1 if player == 1 else table.a2
        R, diag, cost = table.contract(table.strategy_weights(opponent),
                                       starts[table.state] + own, owner.size, n)
        alpha = max(0.0, (-diag).max()) + 1.0
        # fold diagonal + cost + shift into the stacked matrix
        fold = csr_matrix((diag + cost[:, player - 1] + alpha,
                           (np.arange(owner.size), owner)), shape=R.shape)
        self.S = (R + fold).tocsr()
        self._rates = R
        self.owner = owner
        self.starts = starts
        self.counts = counts
        self.alpha = float(alpha)
        self.n = n
        self.key = (player, truncation.states)
        # shared through the model's cache: nothing may write to it
        for array in (owner, starts, self.S.data, self.S.indices,
                      self.S.indptr, R.data, R.indices, R.indptr):
            array.setflags(write=False)

    def segment_argmin(self, z):
        """Per-state own action minimizing ``z = S psi`` (lowest index on ties)."""
        y = np.minimum.reduceat(z, self.starts)
        rows = np.where(z == y[self.owner], np.arange(z.size), z.size)
        return np.minimum.reduceat(rows, self.starts) - self.starts

    def intersection_pattern(self):
        """Edges present under every own action (sufficient irreducibility)."""
        return generator.common_edges(self._rates, self.owner, self.n)


def _response_operator(model, truncation, opponent, player):
    """The ``_ResponseOperator`` of ``(player, truncation, opponent)``.

    The model keeps, beside its chain cache, the last operator built
    against each opponent strategy, weakly keyed by the strategy: an
    operator lives no longer than the strategy it averages out, and a
    ladder of truncations holds one operator at a time."""
    op = model._response_cache.get(opponent)
    if op is None or op.key != (player, truncation.states):
        op = _ResponseOperator(model, truncation, opponent, player)
        model._response_cache[opponent] = op
    return op


def best_response_eigenpair(model: GameModel, truncation, opponent_strategy,
                            player: int, tol: float = 1e-10,
                            max_iter: int | None = None, *,
                            psi0: np.ndarray | None = None):
    """Minimal eigenpair of the frozen-opponent minimization equation.

    Risk-sensitive policy iteration (Howard and Matheson 1972): solve the
    linear eigenpair of the current pure selector with ``_power_iterate``,
    warm-started from the previous eigenvector, then switch each state's
    action only where another action is strictly better, until the
    selector is stable.  The first selector minimizes at ``psi0`` where
    that is finite and positive, else at ones, and its solve starts
    there; a start near the answer (say, the eigenvector of a nearby
    opponent strategy) saves most of the steps, and the bracket certifies
    the eigenvalue from any positive start.  At the stable selector the
    minimum of ``S psi`` over own pure actions (the objective is linear
    in the mixed action, so pure minimizers suffice) is the selector's
    ``M psi``, bit for bit, so its closed bracket certifies the
    min-operator and no nonlinear step is taken.  ``iterations`` counts
    all power steps and Noda solves.

    Returns ``(EigenPair, StationaryStrategy)`` where the strategy is the
    minimizing pure selector at the final eigenvector (ties broken toward
    the lowest action index).
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    n = truncation.n
    if max_iter is None:
        max_iter = default_max_iter(n)
    op = _response_operator(model, truncation, opponent_strategy, player)
    anchor_idx = truncation.index(model.anchor)

    notes = []
    ncomp, _ = csgraph.connected_components(op.intersection_pattern(),
                                            directed=True, connection="strong")
    if ncomp > 1 and n > 1:
        msg = (f"action-intersection graph is reducible ({ncomp} strong "
               "components); policy iteration may stop at a non-minimal "
               "selector")
        notes.append(msg)

    psi = _positive_start(psi0)
    if psi is None:
        psi = np.ones(n)
    sel = op.segment_argmin(op.S @ psi)
    its = 0
    while True:
        lo, hi, psi, steps = _power_iterate(
            op.S[op.starts + sel], op.alpha, anchor_idx, tol, max_iter,
            "best-response iteration", its, psi)
        its += steps
        z = op.S @ psi
        best = op.segment_argmin(z)
        switch = z[op.starts + best] < z[op.starts + sel]
        if not switch.any():
            break
        sel = np.where(switch, best, sel)

    pair = _eigenpair(lo, hi, op.alpha, z[op.starts + best], psi, its,
                      truncation.states, model.anchor, notes)
    return pair, _selector(player, best, op.counts)


@dataclass(frozen=True)
class LadderRung:
    n: int
    rho: float | None
    eigenpair: EigenPair | None
    error: str | None = None


@dataclass(frozen=True)
class LadderResult:
    """Eigenvalues along nested truncations, with a limit estimate.

    ``monotone`` asserts nondecreasing rungs only in fixed-strategy mode
    (principal submatrix monotonicity); in best-response mode it is
    recorded but carries no guarantee.
    """

    rungs: tuple
    mode: str
    monotone: bool
    max_defect: float
    limit_estimate: float | None
    increments: tuple = field(default=())

    def rho_values(self):
        return [r.rho for r in self.rungs if r.rho is not None]


def _aitken_limit(rhos):
    if len(rhos) < 3:
        return rhos[-1] if rhos else None
    r0, r1, r2 = rhos[-3], rhos[-2], rhos[-1]
    d1, d2 = r1 - r0, r2 - r1
    denom = d2 - d1
    if denom == 0.0 or abs(d2) < 1e-14:
        return r2
    acc = r2 - d2 * d2 / denom
    # reject wild extrapolations when increments are not contracting
    if abs(acc - r2) > 10 * abs(d2):
        return r2
    return acc


def truncation_ladder(model: GameModel, opponent_strategy, player: int,
                      n_list, tol: float = 1e-10,
                      own_strategy: StationaryStrategy | None = None,
                      max_iter: int | None = None) -> LadderResult:
    """Eigenvalue sequence over increasing truncations.

    With ``own_strategy=None`` each rung solves the nonlinear
    best-response eigenproblem; otherwise the pair is frozen and each rung
    is a linear solve.  Rungs are solved one after the other, each on its
    own; per-rung failures are recorded and the ladder continues.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("truncation sizes must be strictly increasing")

    def solve(n):
        trunc = truncate(model, n)
        if own_strategy is None:
            ep, _ = best_response_eigenpair(model, trunc, opponent_strategy,
                                            player, tol, max_iter)
        else:
            v1, v2 = ((own_strategy, opponent_strategy) if player == 1
                      else (opponent_strategy, own_strategy))
            A = generator.assemble(model, trunc, v1, v2, player)
            ep = principal_eigenpair(A, model.anchor, tol, max_iter)
        return ep

    rungs = []
    for n in n_list:
        try:
            ep = solve(n)
        except (ConvergenceError, ValueError) as exc:
            rungs.append(LadderRung(n=n, rho=None, eigenpair=None,
                                    error=str(exc)))
        else:
            rungs.append(LadderRung(n=n, rho=ep.rho, eigenpair=ep))
    rhos = [r.rho for r in rungs if r.rho is not None]
    increments = tuple(b - a for a, b in zip(rhos, rhos[1:]))
    max_defect = max((-d for d in increments), default=0.0)
    monotone = max_defect <= 1e-10
    return LadderResult(rungs=tuple(rungs),
                        mode="fixed" if own_strategy is not None else "best-response",
                        monotone=monotone, max_defect=float(max_defect),
                        limit_estimate=_aitken_limit(rhos),
                        increments=increments)
