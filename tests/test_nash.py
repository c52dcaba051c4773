import numpy as np
import pytest

from rsgame import nash
from rsgame.eigensolver import ConvergenceError, best_response_eigenpair
from rsgame.model import (
    mix_strategies,
    pure_strategy,
    shop_model,
    tabular_model,
    truncate,
    uniform_strategy,
)
from rsgame.nash import (
    argmin_sets,
    certify,
    converse_check,
    converse_report,
    find_nash,
    nash_iterate,
    profile_count,
)

from tests.helpers import dense_principal, dense_tilted, enumerate_selectors, random_game


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

    def test_argmin_sets_expose_ties(self):
        # duplicate player-1 action: both copies attain the minimum
        rng = np.random.default_rng(32)
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
        ep, sel = best_response_eigenpair(model, trunc,
                                          uniform_strategy(model, 2), 1)
        sets = argmin_sets(model, trunc, uniform_strategy(model, 2), 1, ep)
        assert sets == {1: (0, 1), 2: (0, 1)}
        assert sel.weights(1).tolist() == [1.0, 0.0]


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
        cert = nash_iterate(model, trunc, damping=0.5, eps=1e-300)
        monkeypatch.undo()
        assert cert.status == "max_iter"
        assert cert.rounds == 2
        assert cert.trace[-1] == {"round": 2, "error": "forced failure"}
        fresh = certify(model, trunc, cert.v1, cert.v2, eps=1e-300)
        assert (cert.rho1, cert.rho2) == fresh.rho_pair
        assert (cert.delta1, cert.delta2) == (fresh.delta1, fresh.delta2)
        assert cert.eigen1.rho == fresh.br_eigen[0].rho
        assert cert.eigen2.rho == fresh.br_eigen[1].rho

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

    def test_report_on_given_eigenpairs_matches_check(self):
        rng = np.random.default_rng(46)
        model = random_game(rng, n_states=3, m1=2, m2=2)
        trunc = truncate(model, 3)
        cert = nash_iterate(model, trunc, damping=0.5, max_rounds=2,
                            eps=1e-12)
        report = converse_report(model, trunc, cert.v1, cert.v2,
                                 (cert.eigen1, cert.eigen2), tol=1e-10)
        assert report == converse_check(model, trunc, cert.v1, cert.v2,
                                        tol=1e-10)

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
            values = nash.response_values(model, trunc, opp, p.player, ep.psi)
            want = tuple(
                (float(own.weights(i) @ vals) - float(vals.min())) / ep.psi[i - 1]
                for i, vals in zip(trunc.states, values))
            assert np.array(p.defects).tobytes() == np.array(want).tobytes()
