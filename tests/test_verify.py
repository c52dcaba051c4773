import hashlib
import json
import math

import numpy as np
import pytest

from rsgame.model import (
    LyapunovSpec,
    ShopParams,
    birth_death_model,
    shop_boundary_cut,
    shop_drift_margin,
    shop_lyapunov_spec,
    shop_model,
    shop_row,
    tabular_model,
    truncate,
    uniform_strategy,
    _shop_game,
)
from rsgame.generator import pair_table
from rsgame.verify import (
    HOLDS,
    NEEDS_TAIL,
    NOT_FINITE,
    VIOLATED,
    check_anchor_row,
    check_growth_drift,
    check_irreducibility,
    check_killed_drift,
    shop_condition_report,
    _least_payoffs,
)

from tests.helpers import random_game


def brute_force_drift(params, W, i, u1, u2):
    """Independent weighted row sum straight from the closed-form rates."""
    row = shop_row(params, i, u1, u2)
    return sum(r * W(j) for j, r in sorted(row.items()))


class TestGrowthDrift:
    def test_bounded_rate_model_with_flat_weight(self):
        # finite exit rates: a constant weight works with C1=1, C2 = sup rate
        model = birth_death_model(up=[1.0, 2.0, 0.0], down=[0.0, 1.0, 2.0],
                                  cost1=[0.0] * 3, cost2=[0.0] * 3)
        spec = LyapunovSpec(W=lambda i: 1.0, C1=1.0, C2=4.0, C3=4.0)
        report = check_growth_drift(model, spec, range(1, 4))
        assert report.status == HOLDS
        assert report.holds

    def test_shop_defaults_hold_on_long_range(self):
        params = ShopParams()
        report = check_growth_drift(shop_model(params),
                                    shop_lyapunov_spec(params),
                                    range(1, 101))
        assert report.holds
        assert report.status == HOLDS  # tail certified analytically

    def test_inverted_drift_flags_smallest_bad_state(self):
        # buy pressure beats selling in the weighted bracket: margin < 0
        # the drift margin at theta=1.5 is about -5.06; negative fees with
        # matching payoffs keep the constructor's fee bound and the cost
        # sign intact while the weighted drift grows
        params = ShopParams(sell_rate=2.0, buy_rate=1.9, theta=1.5,
                            fee1=-6.0, fee2=-6.0,
                            payoff1=lambda i, u: -6.01 * i,
                            payoff2=lambda i, u: -6.01 * i)
        assert shop_drift_margin(params) < 0
        model = shop_model(params)
        report = check_growth_drift(model, shop_lyapunov_spec(params),
                                    range(1, 30))
        assert report.status == VIOLATED
        assert report.witnesses[0].state == 2

    def test_needs_tail_without_certificate(self):
        params = ShopParams()
        spec = shop_lyapunov_spec(params)
        bare = LyapunovSpec(W=spec.W, C1=spec.C1, C2=spec.C2, C3=spec.C3,
                            C4=spec.C4, ell=spec.ell,
                            kappa_set=spec.kappa_set, tail_certified=False)
        report = check_growth_drift(shop_model(params), bare, range(1, 20))
        assert report.status == NEEDS_TAIL
        assert report.holds  # no violation, tail just unverified


def loop_growth_witnesses(model, spec, states):
    """Reference: the growth check as a loop over states and pure action
    pairs, giving ``(state, a1, a2, defect, note)`` per witness in order."""
    W = spec.W
    out = []
    for i in states:
        w = W(i)
        if w < 1.0 - 1e-9:
            out.append((i, None, None, 1.0 - w, "Lyapunov weight below one"))
        for ia in range(model.n_actions(1, i)):
            for ib in range(model.n_actions(2, i)):
                row = model.row(i, ia, ib)
                drift = row.diag * w
                for j, r in zip(row.cols.tolist(), row.rates.tolist()):
                    drift += r * W(j)
                bound = spec.C1 * w + spec.C2
                if drift - bound > 1e-9 * max(1.0, abs(drift), abs(bound)):
                    out.append((i, ia, ib, drift - bound,
                                "weighted drift above C1*W + C2"))
                exit_defect = -row.diag - spec.C3 * w
                if exit_defect > 1e-9 * max(1.0, abs(spec.C3 * w)):
                    out.append((i, ia, ib, exit_defect, "exit rate above C3*W"))
    return out


class TestGrowthDriftLoopReference:
    def test_witnesses_match_loop_in_order(self):
        model = random_game(np.random.default_rng(61), n_states=8, m1=2, m2=3)
        spec = LyapunovSpec(W=lambda i: 0.8 if i == 3 else 1.0 + 0.2 * i,
                            C1=0.5, C2=0.3, C3=1.2)
        report = check_growth_drift(model, spec, range(1, 9))
        expect = loop_growth_witnesses(model, spec, range(1, 9))
        got = [(w.state, w.a1, w.a2, w.defect, w.note) for w in report.witnesses]
        assert got == expect
        assert {note for *_, note in expect} == {
            "Lyapunov weight below one", "weighted drift above C1*W + C2",
            "exit rate above C3*W"}
        assert report.max_defect == max(d for *_, d, _ in expect)


class TestKilledDrift:
    def test_shop_defaults_unbounded_variant(self):
        params = ShopParams()
        report = check_killed_drift(shop_model(params),
                                    shop_lyapunov_spec(params),
                                    "unbounded", range(1, 101))
        assert report.holds
        assert not report.witnesses

    def test_conservative_chain_fails_bounded_variant(self):
        # conservative rows give zero drift, never <= -gamma * W
        model = birth_death_model(up=[1.0, 0.0], down=[0.0, 1.0],
                                  cost1=[0.0, 0.0], cost2=[0.0, 0.0])
        spec = LyapunovSpec(W=lambda i: 1.0, C4=0.0, gamma=0.5)
        report = check_killed_drift(model, spec, "bounded", range(1, 3))
        assert report.status == VIOLATED
        assert report.witnesses[0].defect == pytest.approx(0.5)

    def test_gamma_must_dominate_costs(self):
        model = birth_death_model(up=[1.0, 0.0], down=[0.0, 1.0],
                                  cost1=[2.0, 2.0], cost2=[0.0, 0.0])
        spec = LyapunovSpec(W=lambda i: 1.0, C4=10.0, gamma=0.5,
                            kappa_set=frozenset({1, 2}))
        report = check_killed_drift(model, spec, "bounded", range(1, 3))
        assert any("dominate" in w.note for w in report.witnesses)

    def test_fee_above_margin_breaks_norm_likeness(self):
        # payoffs with zero floor: the cost-margin tail decreases when the
        # fee exceeds the drift margin
        margin = shop_drift_margin(ShopParams())
        fee = margin + 0.05
        params = ShopParams(fee1=fee, fee2=0.05,
                            payoff1=lambda i, u: fee * i * u / 2.0,
                            payoff2=lambda i, u: 0.05 * i * u / 2.0)
        model_spec = LyapunovSpec(
            W=lambda i: math.exp(0.25 * i),
            C4=shop_lyapunov_spec(ShopParams()).C4,
            ell=lambda i: margin * i,
            kappa_set=frozenset({1, 3}), tail_certified=True)
        report = check_killed_drift(_shop_game(params), model_spec,
                                    "unbounded", range(1, 40))
        assert report.status == VIOLATED
        assert any("not norm-like" in w.note for w in report.witnesses)

    def test_variant_validation(self):
        model = birth_death_model(up=[0.0], down=[0.0], cost1=[0.0], cost2=[0.0])
        with pytest.raises(ValueError, match="variant"):
            check_killed_drift(model, LyapunovSpec(W=lambda i: 1.0), "x", [1])
        with pytest.raises(ValueError, match="gamma"):
            check_killed_drift(model, LyapunovSpec(W=lambda i: 1.0),
                               "bounded", [1])


class TestIrreducibility:
    def test_birth_death_with_positive_rates(self):
        model = birth_death_model(up=[1.0, 1.0, 0.0], down=[0.0, 1.0, 1.0],
                                  cost1=[0.0] * 3, cost2=[0.0] * 3)
        trunc = truncate(model, 3)
        report = check_irreducibility(model, trunc)
        assert report.irreducible
        assert report.mode == "all-pure"

    def test_disconnected_states_reported_as_components(self):
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}
        model = tabular_model({(1, 0, 0): {1: 0.0}, (2, 0, 0): {2: 0.0}},
                              {}, grids, n_states=2)
        trunc = truncate(model, 2)
        report = check_irreducibility(model, trunc)
        assert not report.irreducible
        assert report.n_components == 2
        assert sorted(report.components) == [(1,), (2,)]

    def test_shop_truncation_under_uniform_pair(self):
        model = shop_model()
        trunc = truncate(model, 30)
        pair = (uniform_strategy(model, 1), uniform_strategy(model, 2))
        report = check_irreducibility(model, trunc, pair)
        assert report.irreducible
        assert report.mode == "pair"

    def test_all_pure_intersection_is_conservative(self):
        # an edge present only under one action pair does not count
        grids = {(1, 1): [0.0, 1.0], (2, 1): [0.0], (1, 2): [0.0], (2, 2): [0.0]}
        rates = {
            (1, 0, 0): {2: 1.0, 1: -1.0},
            (1, 1, 0): {1: 0.0},          # second action: absorbing
            (2, 0, 0): {1: 1.0, 2: -1.0},
        }
        model = tabular_model(rates, {}, grids, n_states=2)
        trunc = truncate(model, 2)
        assert not check_irreducibility(model, trunc).irreducible


class TestAnchorRow:
    def test_shop_anchor_positive_to_cutoff(self):
        params = ShopParams()
        model = shop_model(params)
        cut = shop_boundary_cut(params)
        report = check_anchor_row(model, 1, range(2, cut + 1))
        assert report.holds
        assert report.checked_range == (2, cut)

    def test_sparse_first_row_fails_at_three(self):
        model = birth_death_model(up=[1.0, 1.0, 0.0], down=[0.0, 1.0, 1.0],
                                  cost1=[0.0] * 3, cost2=[0.0] * 3)
        report = check_anchor_row(model, 1, range(2, 4))
        assert report.status == VIOLATED
        assert any("state 3" in w.note for w in report.witnesses)

    def test_complete_graph_holds_for_every_anchor(self):
        rng = np.random.default_rng(60)
        model = random_game(rng, n_states=4, extra_edge_prob=1.0)
        for i0 in range(1, 5):
            assert check_anchor_row(model, i0).holds


class TestShopConditionReport:
    def test_defaults_pass_all_displays_on_1_to_100(self):
        report = shop_condition_report(ShopParams(), range(1, 101))
        assert report.all_pass
        keys = [d.key for d in report.displays]
        assert keys == ["weighted-drift-identity", "killed-drift-bound",
                        "boundary-row-bound", "growth-drift-constants",
                        "exit-rate-bound", "cost-margin"]

    def test_boundary_display_is_strict(self):
        report = shop_condition_report(ShopParams(), range(1, 20))
        d = report.display("boundary-row-bound")
        assert d.passed
        assert d.margin > 0  # strict inequality

    def test_fee_above_margin_fails_cost_display(self):
        margin = shop_drift_margin(ShopParams())
        params = ShopParams(fee1=margin + 0.1)
        report = shop_condition_report(params, range(1, 30))
        d = report.display("cost-margin")
        assert not d.passed
        assert "beta_1" in d.worst.note
        assert "(IV)" in d.worst.note
        assert d.worst.defect == pytest.approx(0.1, abs=1e-12)

    def test_inverted_rates_fail_killed_drift(self):
        params = ShopParams(sell_rate=1.0, buy_rate=2.0)
        report = shop_condition_report(params, range(1, 30))
        d = report.display("killed-drift-bound")
        assert not d.passed
        assert "drifts outward" in d.worst.note
        # witness re-derived by brute force: the margin really is negative
        th = params.theta
        margin = (params.sell_rate * (1 - math.exp(-th))
                  - params.buy_rate * (math.exp(th) - 1))
        assert margin < 0
        assert d.worst.defect == pytest.approx(-margin)
        # and the cost display fails alongside (fees cannot stay below a
        # negative margin)
        assert not report.display("cost-margin").passed

    def test_consistency_with_generic_checks(self):
        # the display chain passing implies the generic checks pass too
        params = ShopParams()
        assert shop_condition_report(params, range(1, 60)).all_pass
        model = shop_model(params)
        spec = shop_lyapunov_spec(params)
        assert check_growth_drift(model, spec, range(1, 60)).holds
        assert check_killed_drift(model, spec, "unbounded", range(1, 60)).holds
        assert check_anchor_row(model, 1,
                                range(2, shop_boundary_cut(params) + 1)).holds

    def test_every_holds_verdict_rederivable_by_brute_force(self):
        params = ShopParams()
        report = shop_condition_report(params, range(1, 40))
        assert report.all_pass
        spec = shop_lyapunov_spec(params)
        W = lambda i: math.exp(params.theta * i)
        for i in range(1, 41):
            for u1 in params.grid(1, i):
                for u2 in params.grid(2, i):
                    drift = brute_force_drift(params, W, i, u1, u2)
                    assert drift <= spec.C1 * W(i) + spec.C2 + 1e-9
                    kappa = spec.C4 if i in params.coupled_states else 0.0
                    assert drift <= kappa - spec.ell(i) * W(i) + 1e-9

    def test_constants_agree_with_lyapunov_spec(self):
        # every display margin re-derived from shop_lyapunov_spec's C1..C4,
        # W and ell on the same rows
        params = ShopParams(fee1=0.05, action_max=0.5)
        spec = shop_lyapunov_spec(params)
        states = range(1, 30)
        killed = growth = exit_margin = math.inf
        for i in states:
            w = spec.W(i)
            for u1 in params.grid(1, i):
                for u2 in params.grid(2, i):
                    row = shop_row(params, i, u1, u2)
                    drift = brute_force_drift(params, spec.W, i, u1, u2)
                    kappa = spec.C4 if i in spec.kappa_set else 0.0
                    killed = min(killed, kappa - spec.ell(i) * w - drift)
                    growth = min(growth, spec.C1 * w + spec.C2 - drift)
                    exit_margin = min(exit_margin, spec.C3 * w + row[i])
        report = shop_condition_report(params, states)
        assert report.all_pass
        for key, margin in (("killed-drift-bound", killed),
                            ("growth-drift-constants", growth),
                            ("exit-rate-bound", exit_margin)):
            assert report.display(key).margin == pytest.approx(margin, rel=1e-12)

    # sha256 of each report's sorted JSON, recorded with the displays
    # summed entry by entry over per-pair shop rows; every case fails some
    # display, so witnesses and their order are covered
    GOLDEN = {
        "overflow": ("ec0e2446a42bb0078332c1343ad25e2143a21d745d58e90945751204c0d739f4",
                     {}, range(2780, 2850)),
        "inverted": ("4bef2ce2cfd50fb8d1c31fd733d26e46e3db84a1623b26389a87dc4a2e676662",
                     {"sell_rate": 1.0, "buy_rate": 2.0}, range(1, 101)),
        "fee": ("08b9321432900e6de04f16a7c16ebd79def649c98528234d0b898091931ecb09",
                {"fee1": shop_drift_margin(ShopParams()) + 0.1}, range(1, 101)),
        "wide-coupled": (
            "7623e438a36b6e436713a9433ceb01bf650c679a464feda2b1af98a211f664f5",
            {"theta": 0.6, "action_max": 3.0, "n_actions": 4,
             "coupled_states": frozenset({1, 2, 5})}, range(1, 80)),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_reports_bit_identical_to_recorded_digests(self, case):
        digest, kwargs, states = self.GOLDEN[case]
        doc = shop_condition_report(ShopParams(**kwargs), states).to_json_dict()
        assert not doc["all_pass"]
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                              ).hexdigest() == digest

    @pytest.mark.parametrize("kwargs", [
        {}, {"n_actions": 5, "action_max": 2.5}, {"fee1": 0, "fee2": 1},
        {"fee1": 0.3, "theta": 0.6, "coupled_states": frozenset({1, 4})},
        {"fee2": float("nan")}, {"action_max": 1e-300, "fee1": 1e300}])
    def test_default_payoffs_as_arrays_match_payoff_calls(self, kwargs):
        # the same payoffs given as functions take the per-pair path
        params = ShopParams(**kwargs)
        calls = ShopParams(**kwargs, **{
            f"payoff{k}": lambda i, u, k=k: params.payoff(k, i, u)
            for k in (1, 2)})
        states = range(1, 150)
        with np.errstate(all="ignore"):
            want = shop_condition_report(calls, states).to_json_dict()
            got = shop_condition_report(params, states).to_json_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(want,
                                                             sort_keys=True)

    @pytest.mark.parametrize("kwargs", [
        {"fee1": -0.37, "fee2": 0.1 / 3, "action_max": 2.7, "n_actions": 5},
        {"fee1": 1e-3, "fee2": 7.3, "action_max": 0.3, "n_actions": 7},
        {"fee1": 3, "fee2": -2, "action_max": 3}])
    def test_least_payoffs_bit_identical_to_payoff_calls(self, kwargs):
        params = ShopParams(**kwargs)
        model = _shop_game(params)
        table = pair_table(model, range(1, 700))
        for k, a in ((1, table.a1), (2, table.a2)):
            grid = np.concatenate([model.action_values(k, s)
                                   for s in table.states])
            own = grid[(np.cumsum(table.m1 if k == 1 else table.m2)
                        - (table.m1 if k == 1 else table.m2))[table.state] + a]
            want = [min(params.payoff(k, s, u)
                        for u in model.action_values(k, s))
                    for s in table.states]
            got = _least_payoffs(params, k, model, table, own)
            assert got.tobytes() == np.array(want).tobytes()

    def test_reads_the_given_model(self):
        params = ShopParams()
        model = shop_model(params)
        given = shop_condition_report(params, range(1, 80), model)
        assert given.to_json_dict() == shop_condition_report(
            params, range(1, 80)).to_json_dict()
        assert model._rows.top == 79  # the given model's pair store was read
        with pytest.raises(ValueError, match="not the shop model"):
            shop_condition_report(ShopParams(theta=0.3), range(1, 5), model)

    def test_each_distinct_grid_read_once(self):
        # every state but 1 has the same grids (ShopParams.grid)
        params = ShopParams()
        model = shop_model(params)
        want = shop_condition_report(params, range(1, 1001), model)
        reads = []
        values = model.action_values
        model.action_values = lambda k, s: reads.append((k, s)) or values(k, s)
        got = shop_condition_report(params, range(1, 1001), model)
        assert sorted(reads) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert got.to_json_dict() == want.to_json_dict()

    def test_state_one_grids_read_only_when_state_one_is_checked(self):
        # one grid action: player 1's grid at state 1 is empty
        params = ShopParams(n_actions=1)
        assert shop_condition_report(params, range(2, 10)).all_pass
        with pytest.raises(ValueError, match="empty action grid at state 1"):
            shop_condition_report(params, range(1, 10))

    def test_json_rendering(self):
        report = shop_condition_report(ShopParams(), range(1, 10))
        doc = report.to_json_dict()
        assert doc["all_pass"] is True
        assert len(doc["displays"]) == 6
        assert "pass" in report.summary()


class TestWeightFloor:
    def test_weight_below_one_is_reported(self):
        model = birth_death_model(up=[1.0, 0.0], down=[0.0, 1.0],
                                  cost1=[0.0, 0.0], cost2=[0.0, 0.0])
        spec = LyapunovSpec(W=lambda i: 0.5, C1=1.0, C2=10.0, C3=10.0)
        report = check_growth_drift(model, spec, range(1, 3))
        assert any("below one" in w.note for w in report.witnesses)


class TestWeightOverflow:
    """The shop's weight exp(theta i) leaves double precision near i = 2800:
    weighted sums overflow from state 2803 on, the weight itself from 2840."""

    states = range(2800, 2841)

    def test_drift_checks_fail_at_first_overflow(self):
        params = ShopParams()
        model, spec = shop_model(params), shop_lyapunov_spec(params)
        for report in (check_growth_drift(model, spec, self.states),
                       check_killed_drift(model, spec, "unbounded",
                                          self.states)):
            assert report.status == VIOLATED
            assert report.max_defect == math.inf
            bad = [w for w in report.witnesses if w.note == NOT_FINITE]
            assert bad[0].state == 2803
            assert {w.state for w in bad} == set(range(2803, 2841))

    def test_condition_displays_fail_without_raising(self):
        report = shop_condition_report(ShopParams(), self.states)
        assert not report.all_pass
        for key in ("weighted-drift-identity", "killed-drift-bound",
                    "growth-drift-constants", "exit-rate-bound"):
            display = report.display(key)
            assert not display.passed
            assert display.worst.note == NOT_FINITE
        assert report.display("weighted-drift-identity").worst.state == 2803
        # the bound C3 W(i) overflows before W(i) does
        assert report.display("exit-rate-bound").worst.state == 2828

    def test_range_below_overflow_still_holds(self):
        params = ShopParams()
        model, spec = shop_model(params), shop_lyapunov_spec(params)
        states = range(2780, 2803)
        assert check_growth_drift(model, spec, states).status == HOLDS
        assert shop_condition_report(params, states).all_pass
