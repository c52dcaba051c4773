import dataclasses

import numpy as np
import pytest

from rsgame import nash
from rsgame.eigensolver import (
    ROUNDING_ULPS,
    ConvergenceError,
    _response_operator,
    best_response_eigenpair,
    principal_eigenpair,
)
from rsgame.generator import assemble
from rsgame.model import (
    mix_strategies,
    pure_strategy,
    shop_model,
    tabular_model,
    truncate,
    uniform_strategy,
)
from rsgame.nash import (
    certify,
    converse_check,
    converse_report,
    find_nash,
    nash_iterate,
    profile_count,
)

from tests.helpers import (
    dense_perron,
    dense_principal,
    dense_tilted,
    digest_game,
    enumerate_selectors,
    random_game,
)


def decoupled_game(rng, n_states=3, m=2, symmetric=False):
    """Rates ignore actions; each player's cost depends on own action only."""
    rates, costs, grids = {}, {}, {}
    own_cost = {}
    for i in range(1, n_states + 1):
        grids[(1, i)] = np.arange(m, dtype=float)
        grids[(2, i)] = np.arange(m, dtype=float)
        own_cost[(1, i)] = rng.random(m)
        own_cost[(2, i)] = own_cost[(1, i)] if symmetric else rng.random(m)
    for i in range(1, n_states + 1):
        succ = i % n_states + 1
        row = {succ: 0.5 + rng.random()}
        if n_states > 2:
            other = (i + 1) % n_states + 1
            row[other] = rng.random()
        row[i] = -sum(row.values())
        for ia in range(m):
            for ib in range(m):
                rates[(i, ia, ib)] = row
                costs[(i, ia, ib)] = (own_cost[(1, i)][ia], own_cost[(2, i)][ib])
    return tabular_model(rates, costs, grids, n_states=n_states)


def matching_pennies():
    """Single absorbing state; player 1 pays on a match, player 2 on a miss."""
    grids = {(1, 1): [0.0, 1.0], (2, 1): [0.0, 1.0]}
    rates = {(1, ia, ib): {1: 0.0} for ia in range(2) for ib in range(2)}
    costs = {(1, ia, ib): (1.0 if ia == ib else 0.0, 0.0 if ia == ib else 1.0)
             for ia in range(2) for ib in range(2)}
    return tabular_model(rates, costs, grids, n_states=1)


def oracle_pure_nash_pairs(model, n, eps=1e-8):
    """Exhaustive deviation check over all pure pairs via the dense oracle."""
    sizes1 = [model.n_actions(1, i) for i in range(1, n + 1)]
    sizes2 = [model.n_actions(2, i) for i in range(1, n + 1)]
    combos1 = list(enumerate_selectors(sizes1))
    combos2 = list(enumerate_selectors(sizes2))
    rho = {}
    for s1 in combos1:
        for s2 in combos2:
            p1 = pure_strategy(model, 1, lambda i, s=s1: s[i - 1])
            p2 = pure_strategy(model, 2, lambda i, s=s2: s[i - 1])
            rho[(s1, s2)] = (dense_principal(dense_tilted(model, n, p1, p2, 1))[0],
                             dense_principal(dense_tilted(model, n, p1, p2, 2))[0])
    nash = set()
    for s1 in combos1:
        for s2 in combos2:
            best1 = min(rho[(t1, s2)][0] for t1 in combos1)
            best2 = min(rho[(s1, t2)][1] for t2 in combos2)
            if (rho[(s1, s2)][0] <= best1 + eps
                    and rho[(s1, s2)][1] <= best2 + eps):
                nash.add((s1, s2))
    return nash, rho


class TestBestResponse:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(30)
        model = random_game(rng, n_states=2, m1=2, m2=2)
        trunc = truncate(model, 2)
        opp = uniform_strategy(model, 2)
        ep, sel = best_response_eigenpair(model, trunc, opp, player=1,
                                          tol=1e-11)
        best = np.inf
        for combo in enumerate_selectors([2, 2]):
            own = pure_strategy(model, 1, lambda i, c=combo: c[i - 1])
            rho_o, _ = dense_principal(dense_tilted(model, 2, own, opp, 1))
            best = min(best, rho_o)
        assert ep.rho == pytest.approx(best, abs=1e-8)

    def test_dominated_action_never_chosen(self):
        rng = np.random.default_rng(31)
        model = decoupled_game(rng, n_states=3, m=2)
        trunc = truncate(model, 3)
        _, sel = best_response_eigenpair(model, trunc,
                                         uniform_strategy(model, 2), 1)
        for i in trunc.states:
            want = int(np.argmin([model.cost(1, i, a, 0) for a in range(2)]))
            assert sel.weights(i)[want] == 1.0

    def test_tied_actions_have_zero_defects(self):
        # duplicate player-1 action: both copies, and any mix of them,
        # attain the minimum at every state
        rates, costs, grids = {}, {}, {}
        for i in (1, 2):
            grids[(1, i)] = [0.0, 1.0]
            grids[(2, i)] = [0.0]
            row = {i % 2 + 1: 1.0}
            row[i] = -1.0
            for ia in range(2):
                rates[(i, ia, 0)] = row
                costs[(i, ia, 0)] = (0.4 * i, 0.1)
        model = tabular_model(rates, costs, grids, n_states=2)
        trunc = truncate(model, 2)
        v2 = uniform_strategy(model, 2)
        ep, sel = best_response_eigenpair(model, trunc, v2, 1)
        assert sel.weights(1).tolist() == [1.0, 0.0]
        other = pure_strategy(model, 1, lambda i: 1)
        for v1 in (sel, other,
                   mix_strategies(model, sel, other, 0.5, trunc.states)):
            ep2, _ = best_response_eigenpair(model, trunc, v1, 2)
            report = converse_report(model, trunc, v1, v2, (ep, ep2))
            assert report.players[0].defects == (0.0, 0.0)


class TestCertify:
    def test_decoupled_optimum_has_zero_gaps(self):
        rng = np.random.default_rng(33)
        model = decoupled_game(rng, n_states=3, m=2)
        trunc = truncate(model, 3)
        v1 = pure_strategy(model, 1, lambda i: int(
            np.argmin([model.cost(1, i, a, 0) for a in range(2)])))
        v2 = pure_strategy(model, 2, lambda i: int(
            np.argmin([model.cost(2, i, 0, b) for b in range(2)])))
        res = certify(model, trunc, v1, v2, eps=1e-9)
        assert res.passed
        assert abs(res.delta1) <= 1e-9
        assert abs(res.delta2) <= 1e-9

    def test_perturbed_strategy_fails_below_its_gap(self):
        rng = np.random.default_rng(34)
        model = decoupled_game(rng, n_states=3, m=2)
        trunc = truncate(model, 3)
        best1 = {i: int(np.argmin([model.cost(1, i, a, 0) for a in range(2)]))
                 for i in trunc.states}
        v1 = pure_strategy(model, 1, lambda i: best1[i])
        v2 = pure_strategy(model, 2, lambda i: int(
            np.argmin([model.cost(2, i, 0, b) for b in range(2)])))
        worse = pure_strategy(model, 1, lambda i: 1 - best1[i])
        v1_pert = mix_strategies(model, worse, v1, 0.2, trunc.states)
        res = certify(model, trunc, v1_pert, v2, eps=1e-9)
        assert res.delta1 > 1e-4
        assert not res.passed
        # oracle value of the same gap
        rho_pert, _ = dense_principal(dense_tilted(model, 3, v1_pert, v2, 1))
        best = min(dense_principal(dense_tilted(
            model, 3, pure_strategy(model, 1, lambda i, c=c: c[i - 1]), v2, 1))[0]
            for c in enumerate_selectors([2, 2, 2]))
        assert res.delta1 == pytest.approx(rho_pert - best, abs=1e-8)
        # and the pair fails at any eps below the gap
        assert not certify(model, trunc, v1_pert, v2, eps=res.delta1 / 2).passed

    def test_gap_never_dips_below_residual_floor(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            model = random_game(rng, n_states=3, m1=2, m2=2)
            trunc = truncate(model, 3)
            v1 = uniform_strategy(model, 1)
            v2 = uniform_strategy(model, 2)
            res = certify(model, trunc, v1, v2, eps=1e-6)
            resid = max(max(ep.residual for ep in res.pair_eigen),
                        max(ep.residual for ep in res.br_eigen))
            assert res.delta1 >= -2 * resid
            assert res.delta2 >= -2 * resid


def _record_certify(monkeypatch):
    """Record ``(v1, v2, CertifyResult)`` of every certification that
    ``nash`` makes while the test runs, in call order."""
    real = nash._certify
    calls = []

    def recording(model, truncation, v1, v2, *args):
        res = real(model, truncation, v1, v2, *args)
        calls.append((v1, v2, res))
        return res

    monkeypatch.setattr(nash, "_certify", recording)
    return calls


def _cold_starts(monkeypatch):
    """Make every best response that ``nash`` solves start from ones,
    whatever start it is given."""
    real = nash.best_response_eigenpair

    def cold(*args, psi0=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(nash, "best_response_eigenpair", cold)


def _assert_holds_dense_root(model, trunc, w1, w2, player, bracket, alpha):
    """``bracket``, widened by its rounding floor under the shift
    ``alpha``, holds the dense Perron root of ``player``'s operator under
    the pair ``(w1, w2)``."""
    rho, _ = dense_perron(dense_tilted(model, trunc.n, w1, w2, player))
    lo, hi = bracket
    floor = ROUNDING_ULPS * np.finfo(float).eps * (alpha + max(lo, 0.0))
    assert lo - floor <= rho <= hi + floor


def _assert_brackets_hold_dense_roots(model, trunc, v1, v2, res):
    """Each bracket of the certification ``res`` of ``(v1, v2)`` holds
    its dense root: the pair's, or the best-response selector's against
    the other player's strategy."""
    for k, opp in ((1, v2), (2, v1)):
        sel = res.br_selectors[k - 1]
        _assert_holds_dense_root(model, trunc, v1, v2, k,
                                 res.pair_eigen[k - 1].bracket,
                                 assemble(model, trunc, v1, v2, k).alpha)
        _assert_holds_dense_root(model, trunc,
                                 *((sel, opp) if k == 1 else (opp, sel)), k,
                                 res.br_eigen[k - 1].bracket,
                                 _response_operator(model, trunc, opp,
                                                    k).alpha)


def _assert_same_certificate(warm, cold, states, tol):
    """``warm`` and ``cold`` end alike: status, rounds and strategies on
    ``states`` exactly, every value within ``tol``."""
    assert (warm.status, warm.rounds) == (cold.status, cold.rounds)
    for a, b in ((warm.v1, cold.v1), (warm.v2, cold.v2)):
        assert a.key(states) == b.key(states)
    assert [warm.rho1, warm.rho2, warm.delta1, warm.delta2,
            warm.eigen1.rho, warm.eigen2.rho] == pytest.approx(
        [cold.rho1, cold.rho2, cold.delta1, cold.delta2, cold.eigen1.rho,
         cold.eigen2.rho], abs=tol)


class TestWarmCertificate:
    """Each pair solve of a certificate starts at that player's
    best-response eigenvector."""

    def test_shop_pair_solves_close_at_step_zero(self, monkeypatch):
        certified = _record_certify(monkeypatch)
        model = shop_model()
        trunc = truncate(model, 320)
        assert nash_iterate(model, trunc).converged
        v1, v2, res = certified[-1]
        for player, ep in zip((1, 2), res.pair_eigen):
            assert ep.iterations == 0
            # the bracket, widened by its rounding floor, holds the dense
            # Perron root of the pair's operator
            alpha = assemble(model, trunc, v1, v2, player).alpha
            rho, (dlo, dhi) = dense_perron(
                dense_tilted(model, 320, v1, v2, player))
            assert dhi - dlo <= 1e-12
            lo, hi = ep.bracket
            floor = ROUNDING_ULPS * np.finfo(float).eps * (alpha + max(lo, 0.0))
            assert lo - floor <= rho <= hi + floor

    def test_warm_pair_values_match_cold_solves_on_a_cycling_game(
            self, monkeypatch):
        certified = _record_certify(monkeypatch)
        model = digest_game()
        trunc = truncate(model, 50)
        tol = 1e-10
        assert nash_iterate(model, trunc, tol=tol).status == "cycle_detected"
        assert len(certified) >= 2
        for v1, v2, res in certified:
            # player 2 moved last: v2 is its best response to v1, so that
            # pair solve starts at its eigenvector
            assert res.pair_eigen[1].iterations == 0
            for player, ep in zip((1, 2), res.pair_eigen):
                cold = principal_eigenpair(
                    assemble(model, trunc, v1, v2, player), model.anchor, tol)
                assert abs(ep.rho - cold.rho) <= tol

    def test_best_response_above_the_pair_value_raises(self):
        model = shop_model()
        trunc = truncate(model, 20)
        v1, v2 = uniform_strategy(model, 1), uniform_strategy(model, 2)
        tol = 1e-10
        solved = {k: best_response_eigenpair(model, trunc, opp, k, tol)
                  for k, opp in ((1, v2), (2, v1))}
        rho_pair = certify(model, trunc, v1, v2, 1.0, tol).rho_pair

        def lifted(player, by):
            """Best responses whose value for ``player`` lies ``by`` above
            the pair's own."""
            def solve_br(k, opp):
                ep, sel = solved[k]
                if k == player:
                    ep = dataclasses.replace(ep, rho=rho_pair[k - 1] + by)
                return ep, sel
            return solve_br

        res = nash._certify(model, trunc, v1, v2, 1.0, tol,
                            lifted(2, 2.5 * tol))
        assert res.delta2 == pytest.approx(-2.5 * tol, rel=1e-6)
        for player in (1, 2):
            with pytest.raises(ConvergenceError, match=(
                    rf"player {player} is numerically unsound: the deviation "
                    r"gap -3\.500e-10 lies below -3 tol")):
                nash._certify(model, trunc, v1, v2, 1.0, tol,
                              lifted(player, 3.5 * tol))


class TestWarmBestResponses:
    """Each best response of ``nash_iterate`` starts from the latest
    best-response eigenvector: the player's own, else the other's."""

    def test_shop_converges_in_few_steps_and_each_bracket_holds(
            self, monkeypatch):
        real = nash.best_response_eigenpair
        solved = []

        def recording(model, truncation, opp, player, *args, **kwargs):
            ep, sel = real(model, truncation, opp, player, *args, **kwargs)
            solved.append((player, opp, ep, sel, kwargs["psi0"]))
            return ep, sel

        monkeypatch.setattr(nash, "best_response_eigenpair", recording)
        model = shop_model()
        trunc = truncate(model, 320)
        assert nash_iterate(model, trunc).converged
        # round one: player 1 cold, player 2 from player 1's eigenvector;
        # the certificate: player 1 from its own
        assert [(player, psi0 is None) for player, _, _, _, psi0
                in solved] == [(1, True), (2, False), (1, False)]
        assert solved[1][4] is solved[0][2].psi
        assert solved[2][4] is solved[0][2].psi
        assert sum(ep.iterations for _, _, ep, _, _ in solved) <= 30
        for player, opp, ep, sel, _ in solved:
            _assert_holds_dense_root(
                model, trunc, *((sel, opp) if player == 1 else (opp, sel)),
                player, ep.bracket,
                _response_operator(model, trunc, opp, player).alpha)


class TestNashIterate:
    def test_decoupled_game_converges_fast_with_zero_gaps(self):
        rng = np.random.default_rng(36)
        model = decoupled_game(rng, n_states=3, m=2)
        trunc = truncate(model, 3)
        cert = nash_iterate(model, trunc, eps=1e-9)
        assert cert.status == "converged"
        assert cert.rounds <= 2
        assert abs(cert.delta1) <= 1e-9
        assert abs(cert.delta2) <= 1e-9
        assert cert.eigen1.psi[trunc.index(model.anchor)] == 1.0

    def test_symmetric_game_symmetric_certificate(self):
        rng = np.random.default_rng(37)
        model = decoupled_game(rng, n_states=2, m=2, symmetric=True)
        trunc = truncate(model, 2)
        cert = nash_iterate(model, trunc, eps=1e-9)
        assert cert.converged
        for i in trunc.states:
            assert cert.v1.weights(i).tolist() == cert.v2.weights(i).tolist()

    def test_pure_cycle_is_detected_honestly(self):
        model = matching_pennies()
        trunc = truncate(model, 1)
        cert = nash_iterate(model, trunc, eps=1e-9, max_rounds=50)
        assert cert.status == "cycle_detected"
        assert not cert.converged

    def test_tiny_game_nash_confirmed_by_exhaustive_deviation(self):
        rng = np.random.default_rng(40)
        model = random_game(rng, n_states=3, m1=2, m2=2, cost_scale=0.5)
        trunc = truncate(model, 3)
        cert = find_nash(model, trunc, eps=1e-8, tol=1e-11)
        assert cert.converged
        nash_set, _ = oracle_pure_nash_pairs(model, 3)
        s1 = tuple(int(np.argmax(cert.v1.weights(i))) for i in trunc.states)
        s2 = tuple(int(np.argmax(cert.v2.weights(i))) for i in trunc.states)
        # the certificate's pair must be pure here (undamped BR) and in the
        # oracle's Nash set
        assert all(cert.v1.weights(i).max() == 1.0 for i in trunc.states)
        assert (s1, s2) in nash_set

    def test_bad_arguments_rejected(self):
        model = matching_pennies()
        trunc = truncate(model, 1)
        with pytest.raises(ValueError, match="damping"):
            nash_iterate(model, trunc, damping=0.0)
        with pytest.raises(ValueError, match="eps"):
            nash_iterate(model, trunc, eps=0.0)
        with pytest.raises(ValueError, match="max_rounds"):
            nash_iterate(model, trunc, max_rounds=0)


def _fail_nth_solve(monkeypatch, player, n):
    """Make the ``n``-th best-response solve of ``player`` in ``nash``
    raise :class:`ConvergenceError`; the others run unchanged."""
    real = nash.best_response_eigenpair
    calls = {"n": 0}

    def patched(model, truncation, opponent_strategy, p, *args, **kwargs):
        if p == player:
            calls["n"] += 1
            if calls["n"] == n:
                raise ConvergenceError("forced failure", bracket=(0.0, 1.0),
                                       iterations=1)
        return real(model, truncation, opponent_strategy, p, *args, **kwargs)

    monkeypatch.setattr(nash, "best_response_eigenpair", patched)


class TestSolverFailure:
    def test_mid_run_failure_certifies_its_own_pair(self, monkeypatch):
        # player 2 solves once in round one (round one's certification
        # reuses it) and fails in round two, after player 1 has moved
        model = shop_model()
        trunc = truncate(model, 20)
        _fail_nth_solve(monkeypatch, player=2, n=2)
        certified = _record_certify(monkeypatch)
        cert = nash_iterate(model, trunc, damping=0.5, eps=1e-300)
        monkeypatch.undo()
        _fail_nth_solve(monkeypatch, player=2, n=2)
        _cold_starts(monkeypatch)
        cold = nash_iterate(model, trunc, damping=0.5, eps=1e-300)
        monkeypatch.undo()
        assert cert.status == "max_iter"
        assert cert.rounds == 2
        assert cert.trace[-1] == {"round": 2, "error": "forced failure"}
        tol = 1e-10
        _assert_same_certificate(cert, cold, trunc.states, tol)
        # the warm-started certificate holds the values of cold solves of
        # its own pair, within tol
        fresh = certify(model, trunc, cert.v1, cert.v2, eps=1e-300)
        assert fresh.passed is False
        assert [cert.rho1, cert.rho2, cert.delta1, cert.delta2,
                cert.eigen1.rho, cert.eigen2.rho] == pytest.approx(
            [*fresh.rho_pair, fresh.delta1, fresh.delta2,
             fresh.br_eigen[0].rho, fresh.br_eigen[1].rho], abs=tol)
        assert len(certified) == 1  # round two failed before certifying
        _assert_brackets_hold_dense_roots(model, trunc, *certified[0])

    def test_first_round_failure_propagates(self, monkeypatch):
        model = shop_model()
        trunc = truncate(model, 20)
        _fail_nth_solve(monkeypatch, player=2, n=1)
        with pytest.raises(ConvergenceError, match="forced failure"):
            nash_iterate(model, trunc)


class TestFindNash:
    def test_uniform_pair_certifies_in_matching_pennies(self):
        model = matching_pennies()
        trunc = truncate(model, 1)
        res = certify(model, trunc, uniform_strategy(model, 1),
                      uniform_strategy(model, 2), eps=1e-9)
        assert res.passed

    def test_driver_reports_honest_status(self):
        model = matching_pennies()
        trunc = truncate(model, 1)
        cert = find_nash(model, trunc, eps=1e-9, max_rounds=30)
        if cert.converged:
            res = certify(model, trunc, cert.v1, cert.v2, eps=1e-9)
            assert res.passed
        else:
            assert cert.status in ("cycle_detected", "max_iter")

    def test_pure_sweep_finds_the_only_pure_equilibrium(self, monkeypatch):
        # best responses cycle here, and so does the damped restart; the
        # sweep certifies pure pairs in lexicographic order, player 1's
        # selector varying slowest, until the first that passes
        model = random_game(np.random.default_rng(22), n_states=2, m1=3,
                            m2=2, cost_scale=1.0)
        trunc = truncate(model, 2)
        assert nash_iterate(model, trunc, eps=1e-8,
                            tol=1e-11).status == "cycle_detected"
        certified = _record_certify(monkeypatch)
        cert = find_nash(model, trunc, eps=1e-8, tol=1e-11)
        assert cert.status == "converged"
        assert cert.rounds == 0
        assert cert.trace == ({"note": "exhaustive pure-profile search"},)
        nash_set, _ = oracle_pure_nash_pairs(model, 2)

        def selector(v):
            return tuple(int(np.argmax(v.weights(i))) for i in trunc.states)

        found = (selector(cert.v1), selector(cert.v2))
        assert nash_set == {found}
        order = [(s1, s2) for s1 in enumerate_selectors([3, 3])
                 for s2 in enumerate_selectors([2, 2])]
        sweep = order[:order.index(found) + 1]
        assert [(selector(v1), selector(v2))
                for v1, v2, _ in certified[-len(sweep):]] == sweep

    def test_profile_count(self):
        model = matching_pennies()
        trunc = truncate(model, 1)
        assert profile_count(model, trunc) == 4
        big = random_game(np.random.default_rng(41), n_states=8, m1=3, m2=3)
        btrunc = truncate(big, 8)
        assert profile_count(big, btrunc, cap=64) == 65


class TestConverseCheck:
    def test_converged_certificate_has_zero_defects(self):
        rng = np.random.default_rng(42)
        model = decoupled_game(rng, n_states=3, m=2)
        trunc = truncate(model, 3)
        cert = nash_iterate(model, trunc, eps=1e-9)
        report = converse_check(model, trunc, cert.v1, cert.v2, tol=1e-9)
        assert report.passed
        assert report.worst() <= 1e-9

    def test_damped_early_stop_reports_positive_defects(self):
        rng = np.random.default_rng(43)
        model = random_game(rng, n_states=3, m1=2, m2=2)
        trunc = truncate(model, 3)
        cert = nash_iterate(model, trunc, damping=0.5, max_rounds=2, eps=1e-12)
        report = converse_check(model, trunc, cert.v1, cert.v2, tol=1e-10)
        assert not report.passed
        assert report.worst() > 1e-8

    def test_exhaustive_pure_nash_passes(self):
        rng = np.random.default_rng(44)
        model = random_game(rng, n_states=2, m1=2, m2=2, cost_scale=0.5)
        trunc = truncate(model, 2)
        nash_set, _ = oracle_pure_nash_pairs(model, 2)
        if not nash_set:
            pytest.skip("no pure equilibrium for this seed")
        s1, s2 = sorted(nash_set)[0]
        p1 = pure_strategy(model, 1, lambda i: s1[i - 1])
        p2 = pure_strategy(model, 2, lambda i: s2[i - 1])
        report = converse_check(model, trunc, p1, p2, tol=1e-9)
        assert report.worst() <= 1e-9

    def test_report_on_given_eigenpairs_matches_check(self, monkeypatch):
        rng = np.random.default_rng(46)
        model = random_game(rng, n_states=3, m1=2, m2=2)
        trunc = truncate(model, 3)
        tol = 1e-10
        certified = _record_certify(monkeypatch)
        cert = nash_iterate(model, trunc, damping=0.5, max_rounds=2,
                            eps=1e-12, tol=tol)
        monkeypatch.undo()
        _cold_starts(monkeypatch)
        cold = nash_iterate(model, trunc, damping=0.5, max_rounds=2,
                            eps=1e-12, tol=tol)
        monkeypatch.undo()
        _assert_same_certificate(cert, cold, trunc.states, tol)
        assert len(certified) == 2
        for record in certified:
            _assert_brackets_hold_dense_roots(model, trunc, *record)
        # the report on the certificate's warm-started eigenpairs matches
        # the check's cold solves: verdicts exactly, values within tol
        report = converse_report(model, trunc, cert.v1, cert.v2,
                                 (cert.eigen1, cert.eigen2), tol=tol)
        check = converse_check(model, trunc, cert.v1, cert.v2, tol=tol)
        assert report.passed == check.passed
        for got, want in zip(report.players, check.players):
            assert (got.player, got.worst_state, got.passed) == (
                want.player, want.worst_state, want.passed)
            assert [got.rho, got.worst_defect, got.threshold] == (
                pytest.approx([want.rho, want.worst_defect, want.threshold],
                              abs=tol))
            assert got.defects == pytest.approx(want.defects, abs=tol)

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(45)
        model = decoupled_game(rng, n_states=3, m=2)
        trunc = truncate(model, 3)
        tol = 1e-10
        cert = nash_iterate(model, trunc, eps=1e-9, tol=tol)
        assert cert.converged
        _, sel1 = best_response_eigenpair(model, trunc, cert.v2, 1, tol)
        _, sel2 = best_response_eigenpair(model, trunc, cert.v1, 2, tol)
        assert sel1.key(trunc.states) == cert.v1.key(trunc.states)
        assert sel2.key(trunc.states) == cert.v2.key(trunc.states)
        assert certify(model, trunc, cert.v1, cert.v2, eps=10 * tol).passed

    @pytest.mark.parametrize("seed, m1, m2", [(47, 2, 2), (48, 3, 5),
                                              (49, 17, 2)])
    def test_defects_match_the_per_state_dot_products(self, seed, m1, m2):
        # mixed strategies: each defect is w @ values of its state, as the
        # per-state loop took it, bit for bit
        rng = np.random.default_rng(seed)
        model = random_game(rng, n_states=5, m1=m1, m2=m2)
        trunc = truncate(model, 5)
        cert = nash_iterate(model, trunc, damping=0.3, max_rounds=2,
                            eps=1e-12)
        report = converse_report(model, trunc, cert.v1, cert.v2,
                                 (cert.eigen1, cert.eigen2))
        for p, own, opp, ep in ((report.players[0], cert.v1, cert.v2,
                                 cert.eigen1),
                                (report.players[1], cert.v2, cert.v1,
                                 cert.eigen2)):
            op, z = nash._objective(model, trunc, opp, p.player, ep.psi)
            want = tuple(
                (float(own.weights(i) @ vals) - float(vals.min())) / ep.psi[i - 1]
                for i, vals in zip(trunc.states, np.split(z, op.starts[1:])))
            assert np.array(p.defects).tobytes() == np.array(want).tobytes()
