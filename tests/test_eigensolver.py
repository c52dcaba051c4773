import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from rsgame import eigensolver
from rsgame.eigensolver import (
    POWER_STEPS,
    ROUNDING_ULPS,
    ConvergenceError,
    _NodaShift,
    _ResponseOperator,
    best_response_eigenpair,
    principal_eigenpair,
    truncation_ladder,
)
from rsgame.generator import assemble
from rsgame.model import (
    ShopParams,
    birth_death_model,
    model_from_dict,
    pure_strategy,
    shop_model,
    tabular_model,
    truncate,
    uniform_strategy,
    with_cost_shift,
)
from scipy.sparse import csr_matrix, identity

from tests.helpers import (
    bench_inputs,
    dense_principal,
    dense_tilted,
    enumerate_selectors,
    random_game,
    reference_best_response,
    reference_noda_matrix,
    reference_power_eigenpair,
)


def fixed_pair(model):
    return uniform_strategy(model, 1), uniform_strategy(model, 2)


class TestPrincipalEigenpair:
    def test_constant_cost_on_conservative_chain(self):
        # Q 1 = 0, so rho equals the constant cost and psi is flat
        rng = np.random.default_rng(20)
        model = random_game(rng, n_states=6, cost_scale=0.0)
        kappa = 0.7
        model = with_cost_shift(model, 1, kappa)
        trunc = truncate(model, 6)
        v1, v2 = fixed_pair(model)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), i0=1)
        assert ep.rho == pytest.approx(kappa, abs=1e-10)
        assert np.max(np.abs(ep.psi - 1.0)) < 1e-9

    def test_single_state(self):
        grids = {(1, 1): [0.0], (2, 1): [0.0]}
        model = tabular_model({(1, 0, 0): {1: 0.0}}, {(1, 0, 0): (2.5, 1.0)},
                              grids, n_states=1)
        trunc = truncate(model, 1)
        v1, v2 = fixed_pair(model)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), i0=1)
        assert ep.rho == pytest.approx(2.5, abs=1e-12)
        assert ep.psi.tolist() == [1.0]

    def test_random_metzler_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        model = random_game(rng, n_states=12, m1=2, m2=2)
        trunc = truncate(model, 12)
        v1, v2 = fixed_pair(model)
        A = assemble(model, trunc, v1, v2, 1)
        ep = principal_eigenpair(A, i0=1, tol=1e-11)
        rho_o, psi_o = dense_principal(dense_tilted(model, 12, v1, v2, 1))
        assert abs(ep.rho - rho_o) <= 1e-8
        assert np.max(np.abs(ep.psi - psi_o)) <= 1e-6

    def test_psi_positive_and_anchored(self):
        model = shop_model()
        trunc = truncate(model, 15)
        v1, v2 = fixed_pair(model)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, 2), i0=1)
        assert np.all(ep.psi > 0)
        assert ep.psi[0] == 1.0
        assert ep.residual <= 1e-10
        lo, hi = ep.bracket
        assert lo <= ep.rho <= hi

    def test_reducible_matrix_warns_and_falls_back(self):
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}
        rates = {(1, 0, 0): {1: 0.0}, (2, 0, 0): {2: 0.0}}
        costs = {(1, 0, 0): (1.0, 0.0), (2, 0, 0): (3.0, 0.0)}
        model = tabular_model(rates, costs, grids, n_states=2)
        trunc = truncate(model, 2)
        v1, v2 = fixed_pair(model)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), i0=1)
        assert ep.rho == pytest.approx(3.0, abs=1e-10)
        assert ep.warnings[0].startswith("operator is reducible")

    def test_start_at_the_eigenvector_closes_at_step_zero(self):
        model = shop_model()
        trunc = truncate(model, 40)
        A = assemble(model, trunc, *fixed_pair(model), 1)
        cold = principal_eigenpair(A, i0=1)
        warm = principal_eigenpair(A, i0=1, psi0=4.0 * cold.psi)
        assert warm.iterations == 0
        assert warm.psi.tolist() == cold.psi.tolist()
        assert abs(warm.rho - cold.rho) <= 1e-10
        # a start that is not finite and positive is ignored
        for bad in (np.zeros(40), np.where(np.arange(40) == 7, np.nan, 1.0),
                    np.where(np.arange(40) == 9, -1.0, cold.psi)):
            ep = principal_eigenpair(A, i0=1, psi0=bad)
            assert (ep.rho, ep.iterations) == (cold.rho, cold.iterations)
            assert ep.psi.tolist() == cold.psi.tolist()

    def test_start_is_read_on_the_solved_states_only(self):
        # the reducible two-state operator is solved on state 2 alone, so a
        # start that vanishes at state 1 is still used there
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}
        rates = {(1, 0, 0): {1: 0.0}, (2, 0, 0): {2: 0.0}}
        costs = {(1, 0, 0): (1.0, 0.0), (2, 0, 0): (3.0, 0.0)}
        model = tabular_model(rates, costs, grids, n_states=2)
        A = assemble(model, truncate(model, 2), *fixed_pair(model), 1)
        ep = principal_eigenpair(A, i0=1, psi0=np.array([0.0, 5.0]))
        assert ep.rho == pytest.approx(3.0, abs=1e-10)
        assert ep.psi.tolist() == [0.0, 1.0]

    def test_max_iter_exhaustion_reports_bracket(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "default_max_iter", lambda n: 2)
        rng = np.random.default_rng(22)
        model = random_game(rng, n_states=8)
        trunc = truncate(model, 8)
        v1, v2 = fixed_pair(model)
        A = assemble(model, trunc, v1, v2, 1)
        with pytest.raises(ConvergenceError) as err:
            principal_eigenpair(A, i0=1, tol=1e-14)
        lo, hi = err.value.bracket
        assert np.isfinite(lo) and np.isfinite(hi) and lo <= hi


def reducible_game(seed):
    """Single-action game whose operator has 2-4 strong components.

    Components take consecutive states, each a cycle (or one state), and
    rates lead only from a component to later ones.  The component
    ``dominant`` (never the first) carries costs 5 higher than the others,
    which keeps its block eigenvalue the largest; the component before it
    has a rate into it.  Returns ``(model, labels, dominant)`` with
    ``labels[i - 1]`` the component of state ``i``.
    """
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    sizes = rng.integers(1, 5, k)
    ends = np.cumsum(sizes)
    n = int(ends[-1])
    labels = np.repeat(np.arange(k), sizes)
    dominant = int(rng.integers(1, k))
    rates, costs = {}, {}
    for i in range(1, n + 1):
        c = labels[i - 1]
        first = int(ends[c] - sizes[c]) + 1
        row = {}
        if sizes[c] > 1:
            row[first + (i - first + 1) % int(sizes[c])] = 0.5 + rng.random()
        for j in range(int(ends[c]) + 1, n + 1):
            if rng.random() < 0.3:
                row[j] = 0.3 * rng.random()
        if c == dominant - 1 and i == ends[c]:
            row[int(ends[c]) + 1] = 0.2 + rng.random()
        row[i] = -sum(row.values())
        rates[(i, 0, 0)] = row
        costs[(i, 0, 0)] = (rng.random() + 5.0 * (c == dominant), 0.0)
    grids = {(p, i): [0.0] for p in (1, 2) for i in range(1, n + 1)}
    return tabular_model(rates, costs, grids, n_states=n), labels, dominant


def reaching(dense, targets):
    """Indices from which one of ``targets`` is reachable along the
    positive off-diagonal entries of ``dense``."""
    found = set(targets)
    while True:
        more = {i for i in range(len(dense)) for j in found
                if i not in found and dense[i, j] > 0}
        if not more:
            return sorted(found)
        found |= more


class TestReducibleOperator:
    """Reducible operators against the dense oracle of tests.helpers."""

    def test_block_triangular_family_matches_dense_perron_vector(self):
        anchor_outside = non_reaching = 0
        for seed in range(12):
            model, labels, dominant = reducible_game(seed)
            n = model.n_states
            i0 = 1 if seed % 2 else n  # the last state reaches no other
            v1, v2 = fixed_pair(model)
            ep = principal_eigenpair(
                assemble(model, truncate(model, n), v1, v2, 1), i0=i0)
            assert ep.warnings[0].startswith("operator is reducible")
            dense = dense_tilted(model, n, v1, v2, 1)
            keep = reaching(dense, np.flatnonzero(labels == dominant))
            rho_d = float(np.linalg.eigvals(dense).real.max())
            inside = i0 - 1 in keep
            rho_k, psi_k = dense_principal(dense[np.ix_(keep, keep)],
                                           keep.index(i0 - 1) if inside else 0)
            if not inside:
                psi_k = psi_k / psi_k.max()
            want = np.zeros(n)
            want[keep] = psi_k
            assert ep.rho == pytest.approx(rho_d, abs=1e-9)
            assert rho_k == pytest.approx(rho_d, abs=1e-9)
            assert np.max(np.abs(ep.psi - want)) <= 1e-7 * np.max(want)
            assert ep.residual <= 1e-9
            assert any(w.startswith("eigenvector vanishes at the anchor")
                       for w in ep.warnings) == (not inside)
            anchor_outside += not inside
            non_reaching += len(keep) < n
        assert anchor_outside and non_reaching  # the family covers both

    def test_tied_blocks_give_an_eigenvector_or_an_error(self):
        # states 1, 2 feed states 3, 4; both blocks are [[-0.8, 1], [1, -0.7]]
        # up to rounding, state 2's cost repaying its exit to state 3
        rates = {(1, 0, 0): {2: 1.0, 1: -1.0},
                 (2, 0, 0): {1: 1.0, 3: 0.5, 2: -1.5},
                 (3, 0, 0): {4: 1.0, 3: -1.0},
                 (4, 0, 0): {3: 1.0, 4: -1.0}}
        costs = {(1, 0, 0): (0.2, 0.0), (2, 0, 0): (0.8, 0.0),
                 (3, 0, 0): (0.2, 0.0), (4, 0, 0): (0.3, 0.0)}
        grids = {(p, i): [0.0] for p in (1, 2) for i in range(1, 5)}
        model = tabular_model(rates, costs, grids, n_states=4)
        v1, v2 = fixed_pair(model)
        A = assemble(model, truncate(model, 4), v1, v2, 1)
        dense = dense_tilted(model, 4, v1, v2, 1)
        rho = float(np.linalg.eigvalsh(dense[2:, 2:]).max())
        for i0 in (1, 3):
            try:
                ep = principal_eigenpair(A, i0=i0)
            except ConvergenceError:
                continue
            assert ep.warnings[0].startswith("operator is reducible")
            assert ep.rho == pytest.approx(rho, abs=1e-9)
            assert ep.psi.min() >= 0.0
            defect = np.max(np.abs(dense @ ep.psi - ep.rho * ep.psi))
            assert defect <= 1e-8 * np.max(ep.psi)
            # the exact vector is zero on states 3, 4 (their block is
            # reached from the tying one): an anchor there is reported, and
            # psi is scaled by its maximum, not by a residue near 1e-10
            noted = any(w.startswith("eigenvector vanishes at the anchor")
                        for w in ep.warnings)
            assert noted == (i0 == 3)
            assert ep.psi.max() == 1.0 if noted else ep.psi[i0 - 1] == 1.0
            assert not ep.psi[2:].any()

    def test_long_birth_chain_solves_in_little_memory(self):
        # every state is its own component and the top one, which absorbs,
        # dominates; psi_{i+1} = (1 + c_n - c_i) psi_i
        n = 2000
        cost = np.linspace(0.95, 1.0, n)
        model = birth_death_model([1.0] * n, [0.0] * n, cost, [0.0] * n)
        v1, v2 = fixed_pair(model)
        A = assemble(model, truncate(model, n), v1, v2, 1)
        tracemalloc.start()
        try:
            ep = principal_eigenpair(A, i0=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert ep.warnings[0].startswith("operator is reducible")
        want = np.cumprod(np.concatenate([[1.0], 1.0 + cost[-1] - cost[:-1]]))
        assert ep.rho == pytest.approx(cost[-1], abs=1e-9)
        assert np.max(np.abs(ep.psi - want) / want) <= 1e-8
        assert ep.residual <= 1e-9


class TestBestResponseEigenpair:
    def test_own_action_irrelevant_reduces_to_linear(self):
        # rates and costs ignore player 1's action: the inf collapses
        rng = np.random.default_rng(23)
        rates, costs, grids = {}, {}, {}
        for i in range(1, 5):
            grids[(1, i)] = [0.0, 1.0]
            grids[(2, i)] = [0.0, 1.0]
            for ib in range(2):
                succ = i % 4 + 1
                row = {succ: 0.4 + rng.random()}
                row[i] = -sum(row.values())
                cost = (rng.random(), rng.random())
                for ia in range(2):
                    rates[(i, ia, ib)] = row
                    costs[(i, ia, ib)] = cost
        model = tabular_model(rates, costs, grids, n_states=4)
        trunc = truncate(model, 4)
        opp = uniform_strategy(model, 2)
        ep, sel = best_response_eigenpair(model, trunc, opp, player=1)
        A = assemble(model, trunc, pure_strategy(model, 1, lambda i: 0), opp, 1)
        linear = principal_eigenpair(A, i0=1)
        assert ep.rho == pytest.approx(linear.rho, abs=1e-9)
        for i in trunc.states:
            assert sel.weights(i).tolist() == [1.0, 0.0]  # lowest-index ties

    def test_start_at_the_eigenvector_closes_at_step_zero(self):
        model = shop_model()
        trunc = truncate(model, 40)
        opp = uniform_strategy(model, 2)
        cold, cold_sel = best_response_eigenpair(model, trunc, opp, 1)
        warm, warm_sel = best_response_eigenpair(model, trunc, opp, 1,
                                                 psi0=4.0 * cold.psi)
        assert warm.iterations == 0
        assert warm.psi.tolist() == cold.psi.tolist()
        assert warm_sel.key(trunc.states) == cold_sel.key(trunc.states)
        # a start that is not finite and positive is ignored
        for bad in (np.zeros(40), np.where(np.arange(40) == 7, np.inf, 1.0),
                    np.where(np.arange(40) == 9, -1.0, cold.psi)):
            ep, _ = best_response_eigenpair(model, trunc, opp, 1, psi0=bad)
            assert (ep.rho, ep.iterations) == (cold.rho, cold.iterations)
            assert ep.psi.tolist() == cold.psi.tolist()

    def test_dominated_action_never_selected(self):
        # action 1 repeats action 0's rates but adds one unit of cost
        rates, costs, grids = {}, {}, {}
        base_rows = {1: {2: 1.0, 1: -1.0}, 2: {1: 2.0, 2: -2.0}}
        base_costs = {1: 0.3, 2: 0.8}
        for i in (1, 2):
            grids[(1, i)] = [0.0, 1.0]
            grids[(2, i)] = [0.0]
            for ia in range(2):
                rates[(i, ia, 0)] = base_rows[i]
                costs[(i, ia, 0)] = (base_costs[i] + (1.0 if ia == 1 else 0.0), 0.0)
        model = tabular_model(rates, costs, grids, n_states=2)
        trunc = truncate(model, 2)
        ep, sel = best_response_eigenpair(model, trunc,
                                          uniform_strategy(model, 2), player=1)
        for i in (1, 2):
            assert sel.weights(i).tolist() == [1.0, 0.0]

    def test_matches_exhaustive_selector_enumeration(self):
        rng = np.random.default_rng(25)
        model = random_game(rng, n_states=3, m1=2, m2=2)
        trunc = truncate(model, 3)
        opp = uniform_strategy(model, 2)
        ep, sel = best_response_eigenpair(model, trunc, opp, player=1,
                                          tol=1e-11)
        best = np.inf
        for combo in enumerate_selectors([2, 2, 2]):
            own = pure_strategy(model, 1, lambda i, c=combo: c[i - 1])
            rho_o, _ = dense_principal(dense_tilted(model, 3, own, opp, 1))
            best = min(best, rho_o)
        assert ep.rho == pytest.approx(best, abs=1e-8)

    def test_selector_solves_its_own_linear_problem(self):
        model = shop_model()
        trunc = truncate(model, 12)
        opp = uniform_strategy(model, 2)
        ep, sel = best_response_eigenpair(model, trunc, opp, player=1)
        A = assemble(model, trunc, sel, opp, 1)
        linear = principal_eigenpair(A, i0=1)
        assert linear.rho == pytest.approx(ep.rho, abs=1e-8)
        assert np.all(ep.psi > 0)
        assert ep.psi[0] == 1.0

    def test_agrees_with_reference_power_iteration(self):
        model = shop_model()
        tol = 1e-10
        trunc = truncate(model, 40)
        for player, opp in ((1, uniform_strategy(model, 2)),
                            (2, uniform_strategy(model, 1))):
            ep, sel = best_response_eigenpair(model, trunc, opp, player, tol)
            rho_ref, _, sel_ref = reference_best_response(model, 40, opp,
                                                          player, tol)
            assert abs(ep.rho - rho_ref) <= 2 * tol
            assert [int(sel.weights(i).argmax()) for i in trunc.states] == sel_ref

    def test_tolerance_below_the_rounding_floor_refused_at_once(self):
        # the shift alpha is about 1e6, so a 1e-10 bracket is below its
        # 8.9e-10 floor; policy iteration used to spend all 10,500 steps
        model = shop_model(ShopParams(action_max=1e6))
        trunc = truncate(model, 5)
        with pytest.raises(ConvergenceError, match=(
                "did not reach bracket width 1e-10: it is below the "
                "rounding floor")) as info:
            best_response_eigenpair(model, trunc, uniform_strategy(model, 2),
                                    1)
        assert info.value.iterations == 0

    def test_operator_kept_per_opponent_and_freed_with_it(self):
        model = shop_model()
        opp = uniform_strategy(model, 2)
        best_response_eigenpair(model, truncate(model, 10), opp, 1)
        op = model._response_cache[opp]
        best_response_eigenpair(model, truncate(model, 10), opp, 1)
        assert model._response_cache[opp] is op
        # the next rung of a ladder replaces it: one operator per opponent
        best_response_eigenpair(model, truncate(model, 20), opp, 1)
        assert model._response_cache[opp] is not op
        assert len(model._response_cache) == 1
        del opp
        gc.collect()
        assert len(model._response_cache) == 0

    def test_constant_cost_shift_moves_rho_only(self):
        rng = np.random.default_rng(26)
        model = random_game(rng, n_states=5, m1=2, m2=2)
        shifted = with_cost_shift(model, 1, 0.7)
        trunc = truncate(model, 5)
        opp = uniform_strategy(model, 2)
        ep0, sel0 = best_response_eigenpair(model, trunc, opp, 1, tol=1e-12)
        ep1, sel1 = best_response_eigenpair(shifted, trunc, opp, 1, tol=1e-12)
        assert ep1.rho - ep0.rho == pytest.approx(0.7, abs=1e-10)
        assert np.max(np.abs(ep1.psi - ep0.psi)) <= 1e-10
        for i in trunc.states:
            assert sel0.weights(i).tolist() == sel1.weights(i).tolist()


def _pair(player, own, opp):
    return (own, opp) if player == 1 else (opp, own)


def _floor(alpha):
    """The rounding floor of a bracket under the shift ``alpha``."""
    return ROUNDING_ULPS * np.finfo(float).eps * alpha


def _contains(bracket, alpha, rho):
    """``rho`` lies in the bracket, widened by its rounding floor."""
    lo, hi = bracket
    return lo - _floor(alpha) <= rho <= hi + _floor(alpha)


class TestReferenceSolvers:
    """The shift-invert kernel and policy iteration against independent
    references: plain power iterations and scipy's dense eigensolver.
    Each bracket, widened by its rounding floor, holds the dense
    eigenvalue."""

    TOL = 1e-10

    @pytest.mark.parametrize("n", [40, 60])
    @pytest.mark.parametrize("player", [1, 2])
    def test_shop_linear_matches_reference_and_dense(self, n, player):
        model = shop_model()
        trunc = truncate(model, n)
        v1, v2 = fixed_pair(model)
        A = assemble(model, trunc, v1, v2, player)
        ep = principal_eigenpair(A, i0=1, tol=self.TOL)
        rho_ref, _ = reference_power_eigenpair(A.A, 0, self.TOL)
        rho_dense, _ = dense_principal(dense_tilted(model, n, v1, v2, player))
        assert abs(ep.rho - rho_ref) <= 2 * self.TOL
        assert abs(ep.rho - rho_dense) <= 2 * self.TOL
        assert _contains(ep.bracket, A.alpha, rho_dense)

    @pytest.mark.parametrize("player", [1, 2])
    def test_shop_best_response_matches_dense_at_60(self, player):
        model = shop_model()
        trunc = truncate(model, 60)
        opp = uniform_strategy(model, 3 - player)
        ep, sel = best_response_eigenpair(model, trunc, opp, player, self.TOL)
        rho_ref, _, sel_ref = reference_best_response(model, 60, opp, player,
                                                      self.TOL)
        rho_dense, _ = dense_principal(
            dense_tilted(model, 60, *_pair(player, sel, opp), player))
        assert abs(ep.rho - rho_ref) <= 2 * self.TOL
        assert abs(ep.rho - rho_dense) <= 2 * self.TOL
        assert _contains(ep.bracket,
                         _ResponseOperator(model, trunc, opp, player).alpha,
                         rho_dense)
        assert [int(sel.weights(i).argmax()) for i in trunc.states] == sel_ref

    @pytest.mark.parametrize("seed", range(30, 36))
    def test_random_games_match_references(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        model = random_game(rng, n_states=n, m1=3, m2=2)
        trunc = truncate(model, n)
        v1, v2 = fixed_pair(model)
        for player, opp in ((1, v2), (2, v1)):
            A = assemble(model, trunc, v1, v2, player)
            ep = principal_eigenpair(A, i0=1, tol=self.TOL)
            rho_ref, _ = reference_power_eigenpair(A.A, 0, self.TOL)
            rho_dense, _ = dense_principal(dense_tilted(model, n, v1, v2, player))
            assert abs(ep.rho - rho_ref) <= 2 * self.TOL
            assert abs(ep.rho - rho_dense) <= 2 * self.TOL
            assert _contains(ep.bracket, A.alpha, rho_dense)

            br, sel = best_response_eigenpair(model, trunc, opp, player,
                                              self.TOL)
            rho_ref, _, sel_ref = reference_best_response(model, n, opp,
                                                          player, self.TOL)
            rho_dense, _ = dense_principal(
                dense_tilted(model, n, *_pair(player, sel, opp), player))
            assert abs(br.rho - rho_ref) <= 2 * self.TOL
            assert abs(br.rho - rho_dense) <= 2 * self.TOL
            alpha = _ResponseOperator(model, trunc, opp, player).alpha
            assert _contains(br.bracket, alpha, rho_dense)
            assert [int(sel.weights(i).argmax()) for i in trunc.states] == sel_ref


class TestSwitchRule:
    """Power steps give way to Noda steps once the bracket, shrinking at
    its last rate, would not close within ``POWER_STEPS`` of them."""

    @pytest.mark.parametrize("n", [40, 320, 1500])
    def test_cold_shop_linear_solve_takes_fewer_than_power_steps(self, n):
        model = shop_model()
        trunc = truncate(model, n)
        ep = principal_eigenpair(
            assemble(model, trunc, *fixed_pair(model), 1), i0=1)
        lo, hi = ep.bracket
        assert hi - lo <= 1e-10
        assert ep.iterations < POWER_STEPS

    def test_cold_shop_best_response_takes_fewer_than_power_steps(self):
        model = shop_model()
        trunc = truncate(model, 320)
        ep, _ = best_response_eigenpair(model, trunc,
                                        uniform_strategy(model, 2), 1)
        assert ep.iterations < POWER_STEPS


class TestLargeTruncations:
    def test_shop_linear_solve_closes_at_1500(self):
        # plain shifted power iteration needs about 76,000 steps here
        model = shop_model()
        trunc = truncate(model, 1500)
        v1, v2 = fixed_pair(model)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), i0=1)
        lo, hi = ep.bracket
        assert hi - lo <= 1e-10
        assert ep.iterations < 1_000
        assert np.all(np.isfinite(ep.psi)) and np.all(ep.psi > 0)

    def test_rung_at_5000_is_solved_or_fails_honestly(self):
        # psi spans about 115 decades here; no step may overflow
        model = shop_model()
        v1, v2 = fixed_pair(model)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            res = truncation_ladder(model, v2, 1, [5000], own_strategy=v1)
        (rung,) = res.rungs
        if rung.error is None:
            assert np.isfinite(rung.rho)
            assert np.all(np.isfinite(rung.eigenpair.psi))
            assert np.all(rung.eigenpair.psi > 0)
            lo, hi = rung.eigenpair.bracket
            assert hi - lo <= 1e-10
        else:
            assert "did not reach bracket width" in rung.error


class TestLadder:
    def test_repeat_full_space_gives_identical_rho(self):
        rng = np.random.default_rng(27)
        model = random_game(rng, n_states=6)
        opp = uniform_strategy(model, 2)
        a = truncation_ladder(model, opp, 1, [6])
        b = truncation_ladder(model, opp, 1, [6])
        assert a.rungs[0].rho == b.rungs[0].rho

    def test_sizes_must_increase(self):
        model = shop_model()
        with pytest.raises(ValueError, match="increasing"):
            truncation_ladder(model, uniform_strategy(model, 2), 1, [10, 10])

    def test_zero_cost_ladder_nonpositive_then_zero(self):
        rng = np.random.default_rng(28)
        model = random_game(rng, n_states=8, cost_scale=0.0)
        own = uniform_strategy(model, 1)
        opp = uniform_strategy(model, 2)
        res = truncation_ladder(model, opp, 1, [4, 6, 8], own_strategy=own)
        rhos = res.rho_values()
        assert all(r <= 1e-12 for r in rhos)
        assert rhos[-1] == pytest.approx(0.0, abs=1e-9)
        assert res.monotone

    def test_shop_fixed_strategy_ladder_monotone(self):
        model = shop_model()
        own = uniform_strategy(model, 1)
        opp = uniform_strategy(model, 2)
        res = truncation_ladder(model, opp, 1, [6, 9, 12], own_strategy=own)
        rhos = res.rho_values()
        assert len(rhos) == 3
        assert all(b - a >= -1e-10 for a, b in zip(rhos, rhos[1:]))
        assert res.mode == "fixed"
        assert res.limit_estimate is not None

    def test_rungs_match_standalone_solves(self):
        model = shop_model()
        opp = uniform_strategy(model, 2)
        res = truncation_ladder(model, opp, 1, [5, 8, 80])
        for rung in res.rungs:
            fresh = shop_model()
            ep, _ = best_response_eigenpair(fresh, truncate(fresh, rung.n),
                                            uniform_strategy(fresh, 2), 1)
            assert rung.rho == ep.rho
            assert rung.eigenpair.psi.tobytes() == ep.psi.tobytes()

    def test_failures_recorded_ladder_continues(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "default_max_iter", lambda n: 3)
        model = shop_model()
        opp = uniform_strategy(model, 2)
        res = truncation_ladder(model, opp, 1, [5, 8])
        assert all(r.error is not None for r in res.rungs)
        assert res.rho_values() == []


def _shifted_operators():
    """``(name, M)``: shifted operators as the solvers iterate on them."""
    out = []
    shop = shop_model()
    trunc = truncate(shop, 320)
    v1, v2 = fixed_pair(shop)
    A = assemble(shop, trunc, v1, v2, 1)
    out.append(("shop 320", (A.A + A.alpha * identity(320, format="csr")).tocsr()))
    op = _ResponseOperator(shop, trunc, v2, 1)
    out.append(("shop 320 best-response rows",
                op.S[op.starts + op.segment_argmin(op.S @ np.ones(320))]))
    for seed in range(4):
        model = random_game(np.random.default_rng(seed), n_states=3 + 9 * seed,
                            m1=2, m2=3)
        t = truncate(model, model.n_states)
        A = assemble(model, t, *fixed_pair(model), 2)
        out.append((f"random game {seed}",
                    (A.A + A.alpha * identity(t.n, format="csr")).tocsr()))
    wide = model_from_dict(bench_inputs().wide_game(1, 0).to_json_dict())
    t = truncate(wide, wide.n_states)
    A = assemble(wide, t, *fixed_pair(wide), 1)
    out.append(("wide game", (A.A + A.alpha * identity(t.n, format="csr")).tocsr()))
    return out


def _csc_fields(S):
    return [S.shape, S.indptr.dtype.str, S.indptr.tobytes(),
            S.indices.dtype.str, S.indices.tobytes(), S.data.dtype.str,
            S.data.tobytes()]


class TestNodaShift:
    @pytest.mark.parametrize("name, M", _shifted_operators())
    def test_matches_scipy_bit_for_bit(self, name, M):
        shift = _NodaShift(M)
        psi = np.ones(M.shape[0])
        diag = M.diagonal()
        k = int(np.argmax(diag))
        sigmas = [float((M @ psi).max()), 1.5 * float(diag.max()),
                  float(diag[k]),  # an exact zero on the diagonal
                  float(diag.min()) + 0.25, float(diag[0])]
        for sigma in sigmas:
            assert _csc_fields(shift(sigma)) == _csc_fields(
                reference_noda_matrix(M, sigma)), sigma
        assert shift(float(diag[k])).nnz < shift(sigmas[0]).nnz

    def test_missing_diagonal_and_explicit_zeros(self):
        M = csr_matrix(np.array([[0.0, 2.0, 0.0], [1.0, 3.0, 0.5],
                                 [0.25, 0.0, 1.0]]))
        M.data[M.data == 0.5] = 0.0  # an explicit zero off the diagonal
        M.data[M.data == 0.25] = np.nan  # kept, sign and all
        shift = _NodaShift(M)
        for sigma in (3.0, 4.0, 1.0, 0.0, np.nan):
            assert _csc_fields(shift(sigma)) == _csc_fields(
                reference_noda_matrix(M, sigma)), sigma


class TestNonFiniteBracket:
    def test_shop_linear_solve_stops_at_once_at_14000(self):
        # psi leaves the double range near state 13,000: the bracket turns
        # infinite after 275 steps, far below default_max_iter (1,410,000)
        model = shop_model()
        trunc = truncate(model, 14000)
        A = assemble(model, trunc, *fixed_pair(model), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConvergenceError, match="not finite") as info:
                principal_eigenpair(A, i0=1)
        exc = info.value
        assert exc.iterations < 1000
        assert f"stopped after {exc.iterations} iterations" in str(exc)
        assert not np.isfinite(exc.bracket[1] - exc.bracket[0])

    @pytest.mark.parametrize("player", [1, 2])
    def test_infinite_cost_stops_both_solvers_at_once(self, player):
        rng = np.random.default_rng(31)
        base = random_game(rng, n_states=4)
        model = with_cost_shift(base, player, np.inf)
        trunc = truncate(model, 4)
        v1, v2 = fixed_pair(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConvergenceError, match=(
                    "linear eigensolve stopped after 0 iterations: the "
                    r"bracket \[.*, inf\] is not finite")):
                principal_eigenpair(assemble(model, trunc, v1, v2, player), 1)
            with pytest.raises(ConvergenceError, match=(
                    "best-response iteration stopped after 0 iterations")):
                best_response_eigenpair(model, trunc, v2 if player == 1 else v1,
                                        player)


class TestRoundingFloor:
    # exit rates below 1.5 but player 1's costs near 2e8: the shifted ratios
    # sit near 2e8, where one ulp is 3e-8, so no 1e-10 bracket can close
    DOC = {"states": 3,
           "rates": [[1, 0, 0, 2, 0.682], [1, 0, 0, 3, 0.679],
                     [2, 0, 0, 1, 0.323], [2, 0, 0, 3, 0.334],
                     [3, 0, 0, 1, 0.634], [3, 0, 0, 2, 0.594]],
           "costs": [[1, 1, 0, 0, 1e8], [1, 2, 0, 0, 2e8 + 0.3],
                     [1, 3, 0, 0, 1.7e8]]}

    def test_floor_counts_the_bracket_not_only_the_shift(self):
        model = model_from_dict(self.DOC)
        trunc = truncate(model, 3)
        A = assemble(model, trunc, *fixed_pair(model), 1)
        assert A.alpha < 3.0
        with pytest.raises(ConvergenceError, match=(
                "did not reach bracket width 1e-10: it is below the "
                "rounding floor")) as info:
            principal_eigenpair(A, i0=1)
        assert info.value.iterations == 0
        lo, _ = info.value.bracket
        assert 1e8 <= lo <= 2e8 + 1.0
        with pytest.raises(ConvergenceError, match="rounding floor") as info:
            best_response_eigenpair(model, trunc, fixed_pair(model)[1], 1)
        assert info.value.iterations == 0

    def test_tolerance_above_the_floor_still_solves(self):
        model = model_from_dict(self.DOC)
        A = assemble(model, truncate(model, 3), *fixed_pair(model), 1)
        ep = principal_eigenpair(A, i0=1, tol=1e-6)
        rho, _ = dense_principal(A.A.toarray())
        lo, hi = ep.bracket
        floor = _floor(A.alpha + lo)
        assert lo - floor <= rho <= hi + floor
