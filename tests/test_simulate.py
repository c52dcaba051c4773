import gc
import math
import os
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from rsgame import simulate
from rsgame.eigensolver import principal_eigenpair
from rsgame.generator import assemble
from rsgame.model import (
    shop_model,
    tabular_model,
    tabular_strategy,
    truncate,
    uniform_strategy,
)
from rsgame.simulate import (
    estimate_risk_cost,
    hitting_representation_check,
    path_rng,
    sample_path,
)

from tests.helpers import (
    random_game,
    reference_hitting_row,
    reference_jump_row,
    unbiased_mc_instance,
)


def absorbing_model(kappa=0.8):
    grids = {(1, 1): [0.0], (2, 1): [0.0]}
    return tabular_model({(1, 0, 0): {1: 0.0}}, {(1, 0, 0): (kappa, 0.0)},
                         grids, n_states=1)


def flip_flop_model():
    """Two states, unit rate each way, distinct costs."""
    grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}
    rates = {(1, 0, 0): {2: 1.0, 1: -1.0}, (2, 0, 0): {1: 1.0, 2: -1.0}}
    costs = {(1, 0, 0): (0.05, 0.0), (2, 0, 0): (0.12, 0.0)}
    return tabular_model(rates, costs, grids, n_states=2)


def trap_model():
    """1 <-> 2 -> 3 with state 3 absorbing: paths stop jumping at random
    times."""
    grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2, 3)}
    rates = {(1, 0, 0): {2: 1.0, 1: -1.0},
             (2, 0, 0): {1: 0.5, 3: 0.5, 2: -1.0},
             (3, 0, 0): {3: 0.0}}
    costs = {(1, 0, 0): (0.05, 0.2), (2, 0, 0): (0.12, 0.1),
             (3, 0, 0): (0.02, 0.3)}
    return tabular_model(rates, costs, grids, n_states=3)


def pair(model):
    return uniform_strategy(model, 1), uniform_strategy(model, 2)


def same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_SOJOURN_CACHE = {}


def _first_sojourns(n=10_000, seed=11):
    """First holding time at state 1 over n paths (horizon long enough
    that censoring is negligible: P(Exp(1) > 30) ~ 1e-13)."""
    key = (n, seed)
    if key not in _SOJOURN_CACHE:
        model = flip_flop_model()
        v1, v2 = pair(model)
        out = np.empty(n)
        for p in range(n):
            s = sample_path(model, v1, v2, 1, horizon=30.0, stream=(seed, p))
            out[p] = s.times[1] - s.times[0]
        _SOJOURN_CACHE[key] = out
    return _SOJOURN_CACHE[key]


class TestSamplePath:
    def test_absorbing_state_single_segment(self):
        model = absorbing_model(kappa=0.8)
        v1, v2 = pair(model)
        s = sample_path(model, v1, v2, start=1, horizon=5.0, stream=(7, 0))
        assert s.n_jumps == 0
        assert s.states.tolist() == [1]
        assert s.cost1 == 5.0 * 0.8
        assert s.cost2 == 0.0

    def test_mean_holding_time_matches_unit_rate(self):
        # first sojourn per path: uncensored Exponential(1) draws
        holds = _first_sojourns()
        se = holds.std(ddof=1) / math.sqrt(len(holds))
        assert abs(holds.mean() - 1.0) <= 3 * se

    def test_cost_integral_matches_segments_exactly(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        s = sample_path(model, v1, v2, 1, horizon=50.0, stream=(13, 3))
        recomputed = 0.0
        cost_of = {1: 0.05, 2: 0.12}
        for m in range(s.n_jumps):
            recomputed += (s.times[m + 1] - s.times[m]) * cost_of[s.states[m]]
        recomputed += (s.horizon - s.times[-1]) * cost_of[int(s.states[-1])]
        assert recomputed == s.cost1

    def test_occupation_frequencies_match_stationary_law(self):
        rng = np.random.default_rng(50)
        model = random_game(rng, n_states=3, m1=1, m2=1, rate_scale=1.0)
        v1, v2 = pair(model)
        costs = [model.cost(1, i, 0, 0) for i in (1, 2, 3)]
        Q = (assemble(model, truncate(model, 3), v1, v2, 1).A.toarray()
             - np.diag(costs))
        null = scipy.linalg.null_space(Q.T)
        assert null.shape[1] == 1
        pi = null[:, 0] / null[:, 0].sum()
        occupancy = np.zeros(3)
        horizon = 400.0
        for p in range(60):
            s = sample_path(model, v1, v2, 1, horizon, stream=(17, p))
            times = np.append(s.times, horizon)
            for m, state in enumerate(s.states):
                occupancy[state - 1] += times[m + 1] - times[m]
        occupancy /= occupancy.sum()
        assert np.max(np.abs(occupancy - pi)) < 0.01

    def test_holding_time_law_kolmogorov_smirnov(self):
        # 1e4 uncensored sojourns at state 1 against Exponential(exit rate)
        stat = scipy.stats.kstest(_first_sojourns(), "expon", args=(0, 1.0))
        assert stat.pvalue > 0.01

    def test_box_flag(self):
        model = shop_model()
        v1, v2 = pair(model)
        s = sample_path(model, v1, v2, 1, horizon=10.0, stream=(23, 0), box=2)
        assert s.left_box is True
        s2 = sample_path(model, v1, v2, 1, horizon=10.0, stream=(23, 0))
        assert s2.left_box is None

    def test_one_jump_table_per_strategy_pair(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        paths = [sample_path(model, v1, v2, 1, 30.0, (3, p)) for p in range(5)]
        assert len(model._chain_cache) == 1 and len(model._chain_cache[v1]) == 1
        chain = model._chain_cache[v1][v2]
        model._chain_cache.clear()  # a fresh table gives the same paths
        again = [sample_path(model, v1, v2, 1, 30.0, (3, p)) for p in range(5)]
        assert model._chain_cache[v1][v2] is not chain
        for a, b in zip(paths, again):
            assert a.times.tolist() == b.times.tolist()
            assert a.states.tolist() == b.states.tolist()
            assert (a.cost1, a.cost2) == (b.cost1, b.cost2)
        other = uniform_strategy(model, 1)
        sample_path(model, other, v2, 1, 30.0, (3, 0))
        assert len(model._chain_cache) == 2

    @pytest.mark.parametrize("make", ["uniform", "tabular"])
    def test_model_and_strategies_freed_without_the_cycle_collector(self, make):
        # uniform strategies hold their model; tabular ones do not
        model = shop_model()
        if make == "uniform":
            v1, v2 = pair(model)
        else:
            v1, v2 = (tabular_strategy(model, k, {
                i: np.full(model.n_actions(k, i), 1.0 / model.n_actions(k, i))
                for i in range(1, 513)}) for k in (1, 2))
        sample_path(model, v1, v2, 1, 5.0, (3, 0))
        refs = [weakref.ref(x) for x in (model, v1, v2)]
        gc.disable()
        try:
            del model
            if make == "tabular":  # the kept strategies do not keep it
                assert refs[0]() is None
            del v1, v2
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_invalid_horizon(self):
        model = absorbing_model()
        v1, v2 = pair(model)
        with pytest.raises(ValueError, match="horizon"):
            sample_path(model, v1, v2, 1, 0.0, stream=(1, 0))


class TestEstimateRiskCost:
    @pytest.mark.parametrize("start", [0, -3])
    def test_start_below_state_one_rejected(self, start):
        # entry 0 of the jump tables is an unused slot, not a state
        model = shop_model()
        v1, v2 = pair(model)
        with pytest.raises(ValueError, match=f"state {start} is not a state"):
            estimate_risk_cost(model, v1, v2, 1, start, horizon=5.0, paths=20,
                               batches=10, seed=0)
        with pytest.raises(ValueError, match=f"state {start} is not a state"):
            sample_path(model, v1, v2, start, horizon=5.0, stream=(0, 0))

    def test_constant_cost_is_exact_with_zero_spread(self):
        model = absorbing_model(kappa=0.4)
        v1, v2 = pair(model)
        est = estimate_risk_cost(model, v1, v2, 1, 1, horizon=5.0, paths=200,
                                 batches=10, seed=3)
        assert est.rho_hat == pytest.approx(0.4, abs=1e-13)
        assert est.se <= 1e-13
        assert est.valid

    def test_zero_cost_gives_exact_zero(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        zero = tabular_model(
            {(1, 0, 0): {2: 1.0, 1: -1.0}, (2, 0, 0): {1: 1.0, 2: -1.0}},
            {}, {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}, n_states=2)
        est = estimate_risk_cost(zero, *pair(zero), player=1, start=1,
                                 horizon=20.0, paths=200, batches=10, seed=5)
        assert est.rho_hat == 0.0
        assert est.se == 0.0

    def test_matches_eigenvalue_within_three_se(self):
        # bias-free instance: the comparison tests pure sampling noise
        model, start, rho_oracle = unbiased_mc_instance(
            np.random.default_rng(61), n_states=4)
        v1, v2 = pair(model)
        trunc = truncate(model, 4)
        rho = principal_eigenpair(assemble(model, trunc, v1, v2, 1), 1).rho
        assert rho == pytest.approx(rho_oracle, abs=1e-9)
        est = estimate_risk_cost(model, v1, v2, 1, start, horizon=200.0,
                                 paths=6000, batches=20, seed=7)
        assert abs(est.rho_hat - rho) <= 3 * est.se

    def test_jensen_bound(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        est = estimate_risk_cost(model, v1, v2, 1, 1, horizon=60.0,
                                 paths=2000, batches=20, seed=9)
        risk_neutral = est.log_weights.mean() / est.horizon
        assert est.rho_hat >= risk_neutral - 3 * est.se

    def test_kernel_matches_scalar_reference(self):
        # every cost integral equals the one-path loop's on the same stream
        model = flip_flop_model()
        v1, v2 = pair(model)
        est = estimate_risk_cost(model, v1, v2, 1, 1, horizon=30.0,
                                 paths=600, batches=10, seed=11)
        ref = [sample_path(model, v1, v2, 1, 30.0, (11, p)).cost1
               for p in range(600)]
        assert same_bits(est.log_weights, ref)
        other = estimate_risk_cost(model, v1, v2, 1, 1, horizon=30.0,
                                   paths=600, batches=10, seed=12)
        assert other.rho_hat != est.rho_hat

    def test_escape_flag_invalidates_when_all_paths_leave(self):
        model = shop_model()
        v1, v2 = pair(model)
        est = estimate_risk_cost(model, v1, v2, 1, start=5, horizon=5.0,
                                 paths=50, batches=10, seed=13, box=4)
        assert est.escaped == 50
        assert not est.valid

    def test_parameter_validation(self):
        model = absorbing_model()
        v1, v2 = pair(model)
        with pytest.raises(ValueError, match="batches"):
            estimate_risk_cost(model, v1, v2, 1, 1, 5.0, paths=25, batches=10, seed=1)
        with pytest.raises(ValueError, match="paths >= batches"):
            estimate_risk_cost(model, v1, v2, 1, 1, 5.0, paths=8, batches=8, seed=1)


class TestHittingRepresentation:
    def test_start_inside_target_is_exact(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        report = hitting_representation_check(
            model, v1, v2, 1, psi={1: 2.0, 2: 3.0}, rho=0.0, target_set={1},
            starts=[1], n_paths=100, seed=1, batches=10)
        row = report.rows[0]
        assert row.estimate == 2.0
        assert row.se == 0.0
        assert row.z_score == 0.0

    def test_zero_cost_unit_psi_gives_one(self):
        zero = tabular_model(
            {(1, 0, 0): {2: 1.0, 1: -1.0}, (2, 0, 0): {1: 1.0, 2: -1.0}},
            {}, {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}, n_states=2)
        v1, v2 = pair(zero)
        report = hitting_representation_check(
            zero, v1, v2, 1, psi={1: 1.0, 2: 1.0}, rho=0.0, target_set={1},
            starts=[2], n_paths=100, seed=2, batches=10)
        assert report.rows[0].estimate == pytest.approx(1.0, abs=1e-12)
        assert report.within(3.0)

    def test_shop_truncated_eigenpair_self_consistency(self):
        model = shop_model()
        v1, v2 = pair(model)
        trunc = truncate(model, 20)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), 1)
        report = hitting_representation_check(
            model, v1, v2, 1, psi=ep.psi_map(), rho=ep.rho,
            target_set={1, 2, 3}, starts=[4, 6], n_paths=2000, seed=3,
            batches=20, kill_outside=20)
        assert report.valid
        assert report.within(3.5)

    def test_requires_nonempty_target(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        with pytest.raises(ValueError, match="nonempty"):
            hitting_representation_check(model, v1, v2, 1, psi={1: 1.0},
                                         rho=0.0, target_set=set(),
                                         starts=[1], n_paths=10, seed=1,
                                         batches=2)


class TestLockstepKernel:
    def test_shop_paths_past_the_table_top_across_blocks(self, monkeypatch):
        # from just below the table's first top, paths extend it, make
        # more than 128 jumps (a stream refill) and run in five blocks
        monkeypatch.setattr(simulate, "_PATH_BLOCK", 32)
        model = shop_model()
        v1, v2 = pair(model)
        start = simulate._TABLE_START - 2
        box = start + 2
        ref = [sample_path(model, v1, v2, start, 10.0, (31, p), box=box)
               for p in range(160)]
        assert max(int(r.states.max()) for r in ref) > simulate._TABLE_START
        assert sum(r.n_jumps > 128 for r in ref) > 10
        for player in (1, 2):
            est = estimate_risk_cost(model, v1, v2, player, start, 10.0,
                                     paths=160, batches=10, seed=31, box=box)
            assert same_bits(est.log_weights,
                             [r.cost1 if player == 1 else r.cost2
                              for r in ref])
            assert est.escaped == sum(r.left_box for r in ref)
        assert 0 < est.escaped < 160

    def test_flip_flop_over_more_than_one_block(self):
        model = flip_flop_model()
        v1, v2 = pair(model)
        n = simulate._PATH_BLOCK + 52
        est = estimate_risk_cost(model, v1, v2, 1, 1, horizon=140.0, paths=n,
                                 batches=10, seed=5)
        ref = [sample_path(model, v1, v2, 1, 140.0, (5, p)) for p in range(n)]
        assert max(r.n_jumps for r in ref) > 128
        assert same_bits(est.log_weights, [r.cost1 for r in ref])

    def test_absorbing_models(self):
        # trap paths absorb at random times; their cost runs on to T
        for model in (absorbing_model(), trap_model()):
            v1, v2 = pair(model)
            ref = [sample_path(model, v1, v2, 1, 8.0, (17, p))
                   for p in range(300)]
            for player in (1, 2):
                est = estimate_risk_cost(model, v1, v2, player, 1, 8.0,
                                         paths=300, batches=10, seed=17)
                assert same_bits(est.log_weights,
                                 [r.cost1 if player == 1 else r.cost2
                                  for r in ref])
        ends = {int(r.states[-1]) for r in ref}
        assert 3 in ends and len(ends) > 1

    def test_zero_exit_rates_divide_nothing(self):
        # absorbing states never enter the holding-time division, so the
        # kernel runs with division errors raising
        model = trap_model()
        v1, v2 = pair(model)
        with np.errstate(divide="raise", invalid="raise"):
            est = estimate_risk_cost(model, v1, v2, 1, 3, 8.0, paths=40,
                                     batches=10, seed=17)
            report = hitting_representation_check(
                model, v1, v2, 2, {1: 2.0, 2: 3.0, 3: 1.0}, rho=0.05,
                target_set={1}, starts=[2, 3], n_paths=40, seed=23,
                batches=10)
        assert est.rho_hat == pytest.approx(0.02)
        assert report.rows[1].n_capped == 40

    def test_random_game_rows_of_every_width(self):
        # rows with one to four targets under mixed strategies
        rng = np.random.default_rng(2)
        game = random_game(rng, n_states=6, m1=2, m2=1, extra_edge_prob=0.2)
        mixed = [tabular_strategy(game, k, {
            i: rng.dirichlet(np.ones(game.n_actions(k, i)))
            for i in range(1, 7)}) for k in (1, 2)]
        widths = {len(reference_jump_row(game, *mixed, i)[1])
                  for i in range(1, 7)}
        assert widths == {1, 2, 3, 4}
        ref = [sample_path(game, *mixed, 2, 40.0, (3, p)) for p in range(200)]
        est = estimate_risk_cost(game, *mixed, 2, 2, 40.0, paths=200,
                                 batches=10, seed=3)
        assert same_bits(est.log_weights, [r.cost2 for r in ref])

    def test_hitting_outcomes_match_scalar_reference(self):
        # shop: targets {1, 2}, killed above 9, capped at time 0.4
        model = shop_model()
        v1, v2 = pair(model)
        psi = {i: 1.0 + 0.1 * i for i in range(1, 11)}
        starts = [5, 8]
        report = hitting_representation_check(
            model, v1, v2, 1, psi, rho=0.3, target_set={1, 2}, starts=starts,
            n_paths=400, seed=19, batches=20, tau_cap=0.4, kill_outside=9)
        totals = np.zeros(3, dtype=int)
        for k, (start, row) in enumerate(zip(starts, report.rows)):
            estimate, *counts = reference_hitting_row(
                model, v1, v2, 1, psi, 0.3, {1, 2}, start, k * 400, 400, 19,
                tau_cap=0.4, kill_above=9)
            assert [row.n_hit, row.n_killed, row.n_capped] == counts
            assert same_bits(row.estimate, estimate)
            totals += counts
        assert np.all(totals > 0)

    def test_hitting_absorbing_and_target_starts(self):
        # start 2 hits 1 or is absorbed at 3 (capped); start 1 is a target
        # and uses no stream; start 3 is absorbed at once
        model = trap_model()
        v1, v2 = pair(model)
        psi = {1: 2.0, 2: 3.0, 3: 1.0}
        starts = [2, 1, 3]
        report = hitting_representation_check(
            model, v1, v2, 2, psi, rho=0.05, target_set={1}, starts=starts,
            n_paths=200, seed=23, batches=10)
        assert report.rows[1].n_hit == 200
        for k in (0, 2):
            row = report.rows[k]
            estimate, *counts = reference_hitting_row(
                model, v1, v2, 2, psi, 0.05, {1}, starts[k], k * 200, 200, 23)
            assert [row.n_hit, row.n_killed, row.n_capped] == counts
            assert same_bits(row.estimate, estimate)
        assert report.rows[0].n_hit > 0 and report.rows[0].n_capped > 0
        assert report.rows[2].n_capped == 200

    def test_dense_table_matches_one_state_rows(self):
        # the doubling table against each state's own pair-by-pair sum:
        # the shop past two doublings, and a game with mixed strategies
        model = shop_model()
        v1, v2 = pair(model)
        chain = simulate._AveragedChain(model, v1, v2)
        for i in range(1, 3 * simulate._TABLE_START):
            assert repr(chain.at(i)) == repr(reference_jump_row(model, v1,
                                                                v2, i))
        rng = np.random.default_rng(5)
        game = random_game(rng, n_states=6, m1=3, m2=2)
        mixed = [tabular_strategy(game, k, {
            i: rng.dirichlet(np.ones(game.n_actions(k, i)))
            for i in range(1, 7)}) for k in (1, 2)]
        chain = simulate._AveragedChain(game, *mixed)
        for i in range(1, 7):
            assert repr(chain.at(i)) == repr(reference_jump_row(game, *mixed,
                                                                i))

    def test_invalid_rate_raises_only_when_reached(self):
        # state 3's negative rate is never reached from 1
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2, 3)}
        rates = {(1, 0, 0): {2: 1.0, 1: -1.0}, (2, 0, 0): {1: 1.0, 2: -1.0},
                 (3, 0, 0): {1: -1.0, 3: 1.0}}
        model = tabular_model(rates, {}, grids, n_states=3)
        v1, v2 = pair(model)
        est = estimate_risk_cost(model, v1, v2, 1, 1, 10.0, paths=20,
                                 batches=10, seed=1)
        assert est.rho_hat == 0.0
        with pytest.raises(ValueError, match="invalid averaged rate at state 3"):
            estimate_risk_cost(model, v1, v2, 1, 3, 10.0, paths=20,
                               batches=10, seed=1)
        # the kept sample_path table covers state 3 and still raises only
        # for a path that reaches it
        assert sample_path(model, v1, v2, 1, 10.0, (1, 0)).cost1 == 0.0
        with pytest.raises(ValueError, match="invalid averaged rate at state 3"):
            sample_path(model, v1, v2, 3, 10.0, (1, 0))
        assert sample_path(model, v1, v2, 2, 10.0, (1, 1)).cost1 == 0.0


def gap_model():
    """1 <-> 2, and state 3 with a tiny exit rate and no target: rows
    conservative within the model check's 1e-12, but a path that reaches
    state 3 has nowhere to jump."""
    grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2, 3)}
    rates = {(1, 0, 0): {2: 1.0, 1: -1.0}, (2, 0, 0): {1: 1.0, 2: -1.0},
             (3, 0, 0): {3: -1e-13}}
    costs = {(1, 0, 0): (0.05, 0.2), (2, 0, 0): (0.12, 0.1)}
    return tabular_model(rates, costs, grids, n_states=3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cores(monkeypatch):
    """Pretend the process may use ``k`` cores, so that the worker count
    and not this machine decides how many processes share the paths."""
    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(k)), raising=False)
    return use


@pytest.fixture
def forks(monkeypatch):
    """Count the forks this process makes (a child's count stays in the
    child)."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


class TestFanOut:
    """Paths shared among forked processes give the serial results bit for
    bit, and no process outlives the call."""

    @pytest.mark.parametrize("paths", [60, 70, 610])
    def test_growth_estimate_identical_for_any_worker_count(self, paths,
                                                            cores, forks):
        # 70 and 610 paths split unevenly over 2 and 3 processes
        cores(4)
        model = shop_model()
        v1, v2 = pair(model)
        for player in (1, 2):
            runs = [estimate_risk_cost(model, v1, v2, player, 3, 8.0,
                                       paths=paths, batches=10, seed=41,
                                       box=6, workers=w) for w in (1, 2, 3)]
            base = runs[0]
            assert 0 < base.escaped < paths
            for est in runs[1:]:
                assert same_bits(est.log_weights, base.log_weights)
                assert same_bits(est.batch_rho, base.batch_rho)
                assert same_bits([est.rho_hat, est.se],
                                 [base.rho_hat, base.se])
                assert est.escaped == base.escaped
        assert len(forks) == 2 * (1 + 2)
        assert_no_child_left()

    def test_more_workers_than_paths(self, cores, forks):
        cores(64)
        model = flip_flop_model()
        v1, v2 = pair(model)
        base = estimate_risk_cost(model, v1, v2, 1, 1, 30.0, paths=10,
                                  batches=10, seed=7)
        est = estimate_risk_cost(model, v1, v2, 1, 1, 30.0, paths=10,
                                 batches=10, seed=7, workers=50)
        assert len(forks) == 9  # one path per process
        assert same_bits(est.log_weights, base.log_weights)
        report = hitting_representation_check(
            model, v1, v2, 2, {1: 2.0, 2: 3.0}, rho=0.05, target_set={1},
            starts=[2, 1, 2], n_paths=2, seed=7, batches=2, workers=50)
        assert len(forks) == 10  # one tested start per process
        assert repr(report.rows) == repr(hitting_representation_check(
            model, v1, v2, 2, {1: 2.0, 2: 3.0}, rho=0.05, target_set={1},
            starts=[2, 1, 2], n_paths=2, seed=7, batches=2).rows)
        assert_no_child_left()

    @pytest.mark.parametrize("player", [1, 2])
    def test_hitting_rows_identical_for_any_worker_count(self, player,
                                                          cores):
        # start 1 is a target; the four tested starts go 2/2 or 1/1/2
        cores(4)
        model = shop_model()
        v1, v2 = pair(model)
        psi = {i: 1.0 + 0.1 * i for i in range(1, 11)}
        rows = [hitting_representation_check(
            model, v1, v2, player, psi, rho=0.3, target_set={1, 2},
            starts=[5, 1, 8, 3, 6], n_paths=50, seed=19, batches=10,
            tau_cap=0.4, kill_outside=9, workers=w).rows for w in (1, 2, 3)]
        assert rows[0][1].n_hit == 50
        assert sum(r.n_hit for r in rows[0]) > 50
        assert repr(rows[0]) == repr(rows[1]) == repr(rows[2])
        assert_no_child_left()

    @pytest.mark.parametrize("starts", [[2, 3], [3, 2]])
    def test_invalid_rate_raised_from_either_side(self, starts, cores):
        # the paths from state 3 run in the child ([2, 3]) or here ([3, 2])
        cores(2)
        model = gap_model()
        v1, v2 = pair(model)
        messages = []
        for w in (1, 2):
            with pytest.raises(ValueError) as info:
                hitting_representation_check(
                    model, v1, v2, 1, {1: 1.0, 2: 1.0, 3: 1.0}, rho=0.0,
                    target_set={1}, starts=starts, n_paths=20, seed=3,
                    batches=10, workers=w)
            messages.append(str(info.value))
            assert_no_child_left()
        assert messages[0].startswith("invalid averaged rate at state 3")
        assert messages[0] == messages[1]
        report = hitting_representation_check(
            model, v1, v2, 1, {1: 1.0, 2: 1.0, 3: 1.0}, rho=0.0,
            target_set={1}, starts=[2, 1], n_paths=20, seed=3, batches=10,
            workers=2)
        assert report.rows[0].n_hit == 20
        assert_no_child_left()

    def test_failed_fork_kills_the_children_made(self, cores, monkeypatch):
        # the second fork fails: the first child is killed and reaped, and
        # no pipe is left open
        cores(4)
        real = os.fork
        made = []

        def fork():
            if made:
                raise OSError(11, "Resource temporarily unavailable")
            made.append(real())
            return made[-1]

        pipes = []
        real_pipe = os.pipe

        def pipe():
            pipes.extend(real_pipe())
            return pipes[-2:]

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "pipe", pipe)
        model = flip_flop_model()
        v1, v2 = pair(model)
        with pytest.raises(OSError, match="Resource temporarily"):
            estimate_risk_cost(model, v1, v2, 1, 1, 5.0, paths=30,
                               batches=10, seed=1, workers=3)
        assert len(made) == 1 and len(pipes) == 4
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert_no_child_left()

    def test_worker_count_capped_at_the_usable_cores(self, cores, forks):
        cores(2)
        model = flip_flop_model()
        v1, v2 = pair(model)
        estimate_risk_cost(model, v1, v2, 1, 1, 5.0, paths=100, batches=10,
                           seed=1, workers=10**6)
        assert len(forks) == 1
        assert_no_child_left()

    def test_serial_where_the_platform_cannot_fork(self, cores, monkeypatch):
        cores(4)
        monkeypatch.delattr(os, "fork")
        model = flip_flop_model()
        v1, v2 = pair(model)
        est = estimate_risk_cost(model, v1, v2, 1, 1, 5.0, paths=100,
                                 batches=10, seed=1, workers=4)
        ref = [sample_path(model, v1, v2, 1, 5.0, (1, p)).cost1
               for p in range(100)]
        assert same_bits(est.log_weights, ref)


class TestStreams:
    def test_block_draws_match_path_streams(self):
        # one reusable Philox reproduces each path's b-th 256-draw, with
        # the key masked to 64 bits like path_rng's
        out = np.empty((3, 256))
        streams = simulate._Streams(-5)
        first = 2**64 - 2
        for block in range(3):
            streams.fill(out, np.arange(3), first, block)
            for r in range(3):
                rng = path_rng(-5, first + r)
                for _ in range(block):
                    rng.random(256)
                assert out[r].tobytes() == rng.random(256).tobytes()

    def test_philox_streams_are_stable(self):
        # the documented stream scheme: Philox keyed by (seed, path index)
        a = path_rng(42, 0).random(4)
        b = path_rng(42, 0).random(4)
        c = path_rng(42, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
