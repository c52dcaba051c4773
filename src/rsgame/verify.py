"""Machine checks of the standing stability assumptions.

Every check quantifies an inequality over a finite range of states and all
pure action pairs, reporting the worst witness when it fails.  Countable
models can never be verified exhaustively, so reports carry their checked
range and a needs-analytic-tail status unless the Lyapunov specification
certifies the tail analytically (the shop model does: its boundary row
decays geometrically by construction).

For the shop model, :func:`shop_condition_report` reproduces the whole
chain of closed-form displays behind its stability argument, from the
exponentially weighted drift identity to the cost-margin inequality, and
accepts parameter sets that the model constructor would reject so that
violations show up as failed displays with concrete witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .generator import common_edges, pair_table
from .model import (
    GameModel,
    LyapunovSpec,
    ShopParams,
    Truncation,
    shop_drift_margin,
    shop_lyapunov_spec,
    _exact_float,
    _shop_actions,
    _shop_boundary_row,
    _shop_game,
)

__all__ = [
    "Witness",
    "AssumptionReport",
    "IrreducibilityReport",
    "ConditionDisplay",
    "ShopConditionReport",
    "check_growth_drift",
    "check_killed_drift",
    "check_irreducibility",
    "check_anchor_row",
    "shop_condition_report",
]

REL_TOL = 1e-9

HOLDS = "holds-on-checked-range"
VIOLATED = "violated-at"
NEEDS_TAIL = "needs-analytic-tail"
NOT_FINITE = "Lyapunov weight or weighted sum not finite in double precision"


@dataclass(frozen=True)
class Witness:
    state: int
    a1: int | None
    a2: int | None
    defect: float
    note: str = ""

    def __str__(self):
        acts = "" if self.a1 is None else f", actions ({self.a1},{self.a2})"
        note = f" [{self.note}]" if self.note else ""
        return f"state {self.state}{acts}: defect {self.defect:.3e}{note}"


@dataclass(frozen=True)
class AssumptionReport:
    name: str
    status: str
    witnesses: tuple
    checked_range: tuple
    max_defect: float
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status != VIOLATED

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "checked_range": list(self.checked_range),
            "max_defect": self.max_defect,
            "note": self.note,
            "witnesses": [
                {"state": w.state, "a1": w.a1, "a2": w.a2,
                 "defect": w.defect, "note": w.note}
                for w in self.witnesses],
        }


def _tolerance(*values):
    return REL_TOL * max([1.0, *(abs(v) for v in values if math.isfinite(v))])


def _tolerances(*values):
    """``_tolerance`` elementwise over arrays."""
    top = np.ones_like(values[0])
    for v in values:
        np.maximum(top, np.where(np.isfinite(v), np.abs(v), 0.0), out=top)
    return REL_TOL * top


def _defects(values):
    """Defects, with ``inf`` where an overflowed weight left one
    non-finite: such a state can never count as satisfying its bound."""
    return np.where(np.isfinite(values), values, np.inf)


def _witness(state, a1, a2, defect, note):
    return Witness(state, a1, a2, defect,
                   note if math.isfinite(defect) else NOT_FINITE)


def _weight(W, i):
    """``W(i)``, or ``inf`` where it overflows double precision."""
    try:
        return float(W(i))
    except OverflowError:
        return math.inf


def _status(model, spec, witnesses):
    if witnesses:
        return VIOLATED
    if not model.is_finite and not (spec is not None and spec.tail_certified):
        return NEEDS_TAIL
    return HOLDS


def _weighted_drifts(table, W):
    """``W`` at each state of the table, and every pair's weighted row sum
    ``q_ii W(i) + sum_j q_ij W(j)``, added in column order after the
    diagonal term."""
    weights = np.array([_weight(W, j) for j in range(1, table.rows.shape[1] + 1)])
    rows = table.rows
    at_state = weights[np.asarray(table.states) - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        drift = table.diag * at_state[table.state]
        np.add.at(drift, np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr)),
                  rows.data * weights[rows.indices])
    return at_state, drift


def _drift_witnesses(table, w, checks):
    """Witnesses in the order a loop over states, then pure action pairs,
    finds them: a weight below one first, then each pair's failed checks.

    ``checks`` holds one ``(defects, tolerances, note)`` triple of per-pair
    arrays for each inequality, in the order they are tested at a pair.
    """
    found = [((s, -1, 0), Witness(table.states[s], None, None, 1.0 - float(w[s]),
                                  "Lyapunov weight below one"))
             for s in np.flatnonzero(w < 1.0 - REL_TOL)]
    for k, (defects, tols, note) in enumerate(checks):
        for p in np.flatnonzero(defects > tols):
            s = int(table.state[p])
            found.append(((s, p, k), _witness(
                table.states[s], int(table.a1[p]), int(table.a2[p]),
                float(defects[p]), note)))
    return tuple(wit for _, wit in sorted(found, key=lambda e: e[0]))


def check_growth_drift(model: GameModel, spec: LyapunovSpec,
                   states) -> AssumptionReport:
    """Growth bound: weighted drift at most ``C1 W + C2``, exit rate at
    most ``C3 W``, for every state in range and every pure action pair."""
    table = pair_table(model, states)
    w, drift = _weighted_drifts(table, spec.growth_weight())
    with np.errstate(over="ignore", invalid="ignore"):
        bound = spec.C1 * w[table.state] + spec.C2
        exit_bound = spec.C3 * w[table.state]
        defect = _defects(drift - bound)
        exit_defect = _defects(-table.diag - exit_bound)
    witnesses = _drift_witnesses(table, w, (
        (defect, _tolerances(drift, bound), "weighted drift above C1*W + C2"),
        (exit_defect, _tolerances(exit_bound), "exit rate above C3*W")))
    return AssumptionReport(
        name="growth-drift", status=_status(model, spec, witnesses),
        witnesses=witnesses, checked_range=(table.states[0], table.states[-1]),
        max_defect=float(max(0.0, defect.max(), exit_defect.max())))


def check_killed_drift(model: GameModel, spec: LyapunovSpec, variant: str,
                   states) -> AssumptionReport:
    """Killed drift bound with either a constant or a norm-like rate.

    Variant ``bounded`` uses ``-gamma * W`` on the right-hand side and
    additionally confirms that ``gamma`` dominates both cost rates on the
    range; variant ``unbounded`` uses ``-ell(i) * W`` and checks that
    ``ell - max cost`` trends upward over the tail of the range (its
    sublevel sets within the range are finite by finiteness of the range).
    """
    if variant not in ("bounded", "unbounded"):
        raise ValueError("variant must be 'bounded' or 'unbounded'")
    table = pair_table(model, states)
    states = table.states
    witnesses = []

    if variant == "bounded":
        if spec.gamma is None:
            raise ValueError("bounded variant needs gamma in the spec")
        top_cost = float(table.cost.max())
        if spec.gamma <= top_cost:
            witnesses.append(Witness(0, None, None, top_cost - spec.gamma,
                                     "gamma does not dominate the costs on "
                                     "the checked range"))
        rate = np.full(len(states), float(spec.gamma))
    else:
        if spec.ell is None:
            raise ValueError("unbounded variant needs ell in the spec")
        rate = np.array([float(spec.ell(i)) for i in states])

    w, drift = _weighted_drifts(table, spec.W)
    kappa = np.array([i in spec.kappa_set for i in states])
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (np.where(kappa, spec.C4, 0.0) - rate * w)[table.state]
        defect = _defects(drift - bound)
    witnesses.extend(_drift_witnesses(table, w, (
        (defect, _tolerances(drift, bound), "killed drift bound violated"),)))

    if variant == "unbounded":
        for player in (1, 2):
            margins = rate - np.maximum.reduceat(table.cost[:, player - 1],
                                                 table.starts)
            tail = max(3, len(states) // 4)
            for k in range(len(states) - tail, len(states) - 1):
                if k < 0:
                    continue
                if margins[k + 1] < margins[k] - _tolerance(margins[k]):
                    witnesses.append(Witness(
                        states[k + 1], None, None,
                        float(margins[k] - margins[k + 1]),
                        f"ell - max cost of player {player} decreases at the "
                        "tail of the range (not norm-like)"))
                    break
    return AssumptionReport(
        name=f"killed-drift-{variant}", status=_status(model, spec, witnesses),
        witnesses=tuple(witnesses), checked_range=(states[0], states[-1]),
        max_defect=float(max(0.0, defect.max())))


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    n_components: int
    components: tuple
    mode: str

    def to_json_dict(self) -> dict:
        return {"irreducible": self.irreducible,
                "n_components": self.n_components,
                "components": [list(c) for c in self.components],
                "mode": self.mode}


def check_irreducibility(model: GameModel, truncation: Truncation,
                         pair=None) -> IrreducibilityReport:
    """Strong connectivity of the jump graph on a truncation.

    With ``pair=(v1, v2)`` the graph of the averaged chain is used; with
    ``pair=None`` an edge must be present under every pure action pair,
    which is sufficient for irreducibility under arbitrary mixed
    stationary strategies.
    """
    n = truncation.n
    table = pair_table(model, truncation.states)
    if pair is None:
        graph = common_edges(table.rows, table.state, n, n)
    else:
        v1, v2 = pair
        weights = table.strategy_weights(v1) * table.strategy_weights(v2)
        R, _, _ = table.contract(weights, table.state, n, n)
        graph = common_edges(R, np.arange(n), n)
    ncomp, labels = connected_components(graph, directed=True,
                                         connection="strong")
    comps = [[] for _ in range(ncomp)]
    for idx, lab in enumerate(labels):
        comps[lab].append(idx + 1)
    return IrreducibilityReport(
        irreducible=(ncomp == 1), n_components=int(ncomp),
        components=tuple(tuple(c) for c in comps),
        mode="pair" if pair is not None else "all-pure")


def check_anchor_row(model: GameModel, i0: int | None = None,
                     targets=None) -> AssumptionReport:
    """Positivity of the anchor row toward every target state.

    ``targets`` defaults to all other states of a finite model, or to the
    support of the anchor row under the first action pair for a countable
    one (pass the intended range explicitly for a sharper claim).
    """
    i0 = model.anchor if i0 is None else i0
    if targets is None:
        if model.is_finite:
            targets = [j for j in model.states() if j != i0]
        else:
            targets = [int(j) for j in model.row(i0, 0, 0).cols]
    targets = [j for j in targets if j != i0]
    witnesses = []
    for ia, ib in product(range(model.n_actions(1, i0)),
                          range(model.n_actions(2, i0))):
        row = model.row(i0, ia, ib)
        have = dict(zip((int(j) for j in row.cols), row.rates))
        for j in targets:
            if have.get(j, 0.0) <= 0.0:
                witnesses.append(Witness(i0, ia, ib, -have.get(j, 0.0),
                                         f"no positive rate to state {j}"))
    return AssumptionReport(
        name="anchor-row", status=VIOLATED if witnesses else HOLDS,
        witnesses=tuple(witnesses),
        checked_range=(min(targets), max(targets)) if targets else (i0, i0),
        max_defect=0.0 if not witnesses else max(w.defect for w in witnesses),
        note=f"anchor state {i0}")


# ---------------------------------------------------------------------------
# Shop condition displays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionDisplay:
    key: str
    description: str
    passed: bool
    worst: Witness | None
    margin: float

    def to_json_dict(self) -> dict:
        return {"key": self.key, "description": self.description,
                "passed": self.passed, "margin": self.margin,
                "worst": None if self.worst is None else {
                    "state": self.worst.state, "a1": self.worst.a1,
                    "a2": self.worst.a2, "defect": self.worst.defect,
                    "note": self.worst.note}}


@dataclass(frozen=True)
class ShopConditionReport:
    displays: tuple
    checked_range: tuple

    @property
    def all_pass(self) -> bool:
        return all(d.passed for d in self.displays)

    def display(self, key: str) -> ConditionDisplay:
        for d in self.displays:
            if d.key == key:
                return d
        raise KeyError(key)

    def to_json_dict(self) -> dict:
        return {"all_pass": self.all_pass,
                "checked_range": list(self.checked_range),
                "displays": [d.to_json_dict() for d in self.displays]}

    def summary(self) -> str:
        lines = []
        for d in self.displays:
            mark = "pass" if d.passed else "FAIL"
            extra = "" if d.worst is None else f"  worst: {d.worst}"
            lines.append(f"[{mark}] {d.key}: {d.description}{extra}")
        return "\n".join(lines)


def _display(key, description, witnesses, margin):
    worst = max(witnesses, key=lambda w: w.defect, default=None)
    return ConditionDisplay(key=key, description=description,
                            passed=not witnesses, worst=worst,
                            margin=float(margin))


def _least_payoffs(params: ShopParams, k: int, model: GameModel, table,
                   own: np.ndarray) -> np.ndarray:
    """``min(params.payoff(k, s, u) for u in grid)`` at each state ``s`` of
    the pair table.  Default payoffs are one ``ShopParams.payoff`` call on
    the arrays of the pairs, whose own actions are ``own``; custom ones,
    and parameters that numpy would not compute as Python does, are
    called once per state and action."""
    fee = params.fee1 if k == 1 else params.fee2
    if (params.payoff1 if k == 1 else params.payoff2) is None and all(
            map(_exact_float, (fee, params.action_max))):
        i = np.asarray(table.states)[table.state]
        with np.errstate(all="ignore"):
            payoff = params.payoff(k, i, own)
        return np.minimum.reduceat(payoff, table.starts)
    return np.array([min(params.payoff(k, s, u)
                         for u in model.action_values(k, s))
                     for s in table.states])


def shop_condition_report(params: ShopParams, states,
                          model: GameModel | None = None) -> ShopConditionReport:
    """Numerically reproduce every closed-form stability display of the
    shop model on a range of states, action grids included.

    Accepts parameter sets violating the standing conditions; each display
    then fails with the concrete witness.  Rows and costs come from the
    action-pair table of ``model``, the shop model of ``params`` (built
    here, unvalidated, when not given).  The displays are:

    - ``weighted-drift-identity``: the exponentially weighted row sum at
      ``i >= 2`` equals ``i W(i) [buy (e^t - 1) + sell (e^-t - 1)]`` plus
      the action term on the coupled set, exactly up to rounding;
    - ``killed-drift-bound``: weighted drift at most
      ``C4 1_K(i) - margin * i * W(i)``;
    - ``boundary-row-bound``: the weighted state-1 row sum stays strictly
      below ``pi_11 e^t + e^-2t / (1 - e^-t)`` and is finite;
    - ``growth-drift-constants``: weighted drift at most ``W(i) + C4``
      (the ``C1 = 1``, ``C2 = C4`` form of the growth bound);
    - ``exit-rate-bound``: exit rates at most
      ``(2 L + buy + sell) / theta * W(i)``;
    - ``cost-margin``: the fee margin ``beta_k = margin - fee_k`` is
      nonnegative and ``ell - max cost`` equals ``i beta_k + min payoff``
      (condition (IV)).
    """
    if model is None:
        model = _shop_game(params)
    elif model.meta.get("shop_params") != params:
        raise ValueError("model is not the shop model of these parameters")
    table = pair_table(model, states)
    states = table.states
    th = params.theta
    spec = shop_lyapunov_spec(params)
    W, ell, c3, c4 = spec.W, spec.ell, spec.C3, spec.C4
    margin = shop_drift_margin(params)
    bracket = (params.buy_rate * (math.exp(th) - 1.0)
               + params.sell_rate * (math.exp(-th) - 1.0))
    boundary = _shop_boundary_row(params)

    def weighted(row):
        return sum(r * _weight(W, j) for j, r in sorted(row.items()))

    # at most one entry of a shop row precedes its diagonal and two-term
    # sums commute, so adding the diagonal term first gives the bits of
    # the column-order sum
    w, drift = _weighted_drifts(table, W)
    i = np.asarray(states)[table.state]
    w = w[table.state]
    u1, u2 = _shop_actions(model, i, table.a1, table.a2)
    kappa = np.array([s in params.coupled_states for s in states])[table.state]
    ell_s = np.array([ell(s) for s in states])

    def pair_check(bad, tol, slack, live=None, lead=""):
        """Witnesses where ``bad`` exceeds ``tol`` (at ``live`` pairs), and
        the margin: the first least ``slack``, as a running min() finds it."""
        failed = bad > tol if live is None else live & (bad > tol)
        slack = slack if live is None else slack[live]
        return ([_witness(int(i[p]), None, None, float(bad[p]),
                          lead.format(bad[p]) + f"actions ({u1[p]:g},{u2[p]:g})")
                 for p in np.flatnonzero(failed).tolist()],
                float(slack[np.argmin(slack)]) if slack.size else math.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        rhs = i * w * bracket + np.where(kappa, u1 * (math.exp(th) - 1.0)
                                         + u2 * (math.exp(-th) - 1.0), 0.0)
        bad = _defects(np.abs(drift - rhs))
        tol = _tolerances(drift, rhs, i * w * (params.buy_rate + params.sell_rate))
        identity_w, id_margin = pair_check(bad, tol, tol - bad, i >= 2,
                                           "identity off by {:.3e} at ")
        del rhs, tol  # each check's arrays go before the next one's
        bound = np.where(kappa, c4, 0.0) - ell_s[table.state] * w
        bad = _defects(drift - bound)
        killed_w, killed_margin = pair_check(bad, _tolerances(drift, bound), -bad)
        bound = w + c4
        bad = _defects(drift - bound)
        growth_w, growth_margin = pair_check(bad, _tolerances(drift, bound), -bad)
        bound = c3 * w
        exit_rate = -table.diag
        bad = _defects(exit_rate - bound)
        exit_w, exit_margin = pair_check(bad, _tolerances(exit_rate, bound),
                                         -bad)
    if margin <= 0:
        # the kill rate ell(i) = margin * i must be positive norm-like;
        # an outward weighted drift leaves nothing to certify
        killed_w.insert(0, Witness(0, None, None, -margin,
                                   "drift margin nonpositive: the weighted "
                                   "chain drifts outward (condition (II) "
                                   "inverted relative to theta)"))
        killed_margin = min(margin, killed_margin)

    boundary_w = []
    lhs = weighted(boundary)
    rhs = boundary[1] * math.exp(th) + math.exp(-2.0 * th) / (1.0 - math.exp(-th))
    bmargin = rhs - lhs
    if not (math.isfinite(lhs) and lhs < rhs):
        boundary_w.append(Witness(1, None, None, lhs - rhs,
                                  "weighted boundary row not strictly below "
                                  "its geometric bound"))

    cost_w = []
    cmargin = math.inf
    for k, fee, own in ((1, params.fee1, u1), (2, params.fee2, u2)):
        beta = margin - fee
        cmargin = min(cmargin, beta)
        if beta < 0:
            cost_w.append(Witness(0, None, None, -beta,
                                  f"fee margin beta_{k} = {beta:.6g} < 0 "
                                  "(condition (IV))"))
        sup_cost = np.maximum.reduceat(table.cost[:, k - 1], table.starts)
        inf_payoff = _least_payoffs(params, k, model, table, own)
        lhs_s = ell_s - sup_cost
        rhs_s = np.asarray(states) * beta + inf_payoff
        gap = np.abs(lhs_s - rhs_s)
        for s in np.flatnonzero(gap > _tolerances(lhs_s, rhs_s, ell_s)).tolist():
            cost_w.append(Witness(states[s], None, None, float(gap[s]),
                                  f"cost-margin identity broken for "
                                  f"player {k}"))

    displays = (
        _display("weighted-drift-identity",
                 "weighted row sums match the closed drift form at i >= 2",
                 identity_w, id_margin),
        _display("killed-drift-bound",
                 "weighted drift <= C4 on the coupled set minus ell(i) W(i)",
                 killed_w, killed_margin),
        _display("boundary-row-bound",
                 "weighted boundary row strictly below its geometric bound",
                 boundary_w, bmargin),
        _display("growth-drift-constants",
                 "weighted drift <= W(i) + C4 (C1 = 1, C2 = C4)",
                 growth_w, growth_margin),
        _display("exit-rate-bound",
                 "exit rates <= (2 L + buy + sell) / theta * W(i)",
                 exit_w, exit_margin),
        _display("cost-margin",
                 "fee margins nonnegative and the cost-margin identity holds",
                 cost_w, cmargin),
    )
    return ShopConditionReport(displays=displays,
                               checked_range=(states[0], states[-1]))
