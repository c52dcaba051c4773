import math

import numpy as np
import pytest

from rsgame.generator import pair_table
from rsgame.model import (
    GameModel,
    ShopParams,
    birth_death_model,
    load_model,
    mix_strategies,
    model_from_dict,
    model_to_dict,
    pure_strategy,
    save_model,
    shop_boundary_cut,
    shop_drift_margin,
    shop_lyapunov_spec,
    shop_model,
    tabular_model,
    tabular_strategy,
    truncate,
    uniform_strategy,
    validate_model,
    validate_shop_params,
    with_cost_shift,
)

from tests.helpers import random_game


def two_state_birth_death():
    return birth_death_model(up=[1.0, 0.0], down=[0.0, 2.0],
                             cost1=[0.5, 1.5], cost2=[0.0, 0.0])


class TestValidateModel:
    def test_conservative_birth_death_is_clean(self):
        report = validate_model(two_state_birth_death())
        assert report.ok
        assert "hold" in report.summary()

    def test_row_sum_defect_is_reported_with_magnitude(self):
        rates = {(1, 0, 0): {2: 1.0, 1: -1.0 + 1e-3},
                 (2, 0, 0): {1: 1.0, 2: -1.0}}
        grids = {(1, 1): [0.0], (2, 1): [0.0], (1, 2): [0.0], (2, 2): [0.0]}
        model = tabular_model(rates, {}, grids, n_states=2)
        report = validate_model(model)
        assert not report.ok
        (v,) = report.violations
        assert v.kind == "non-conservative row"
        assert v.state == 1
        assert v.magnitude == pytest.approx(1e-3, rel=1e-9)

    def test_negative_cost_and_rate_are_reported(self):
        rates = {(1, 0, 0): {2: -0.5, 1: 0.5}, (2, 0, 0): {1: 1.0, 2: -1.0}}
        grids = {(1, 1): [0.0], (2, 1): [0.0], (1, 2): [0.0], (2, 2): [0.0]}
        model = tabular_model(rates, {(1, 0, 0): (-1.0, 0.0)}, grids, n_states=2)
        kinds = {v.kind for v in validate_model(model).violations}
        assert "negative off-diagonal rate" in kinds
        assert "negative cost (player 1)" in kinds

    def test_shop_prefix_rows_conservative_against_closed_form(self):
        # independent check: rebuild each row from the closed-form rates and
        # compare entry by entry, then check the sums directly
        params = ShopParams()
        model = shop_model(params)
        report = validate_model(model, states=range(1, 51))
        assert report.ok
        for i in range(2, 51):
            for ia, u1 in enumerate(model.action_values(1, i)):
                for ib, u2 in enumerate(model.action_values(2, i)):
                    pert1 = u1 * math.exp(-params.theta * i) if i in params.coupled_states else 0.0
                    pert2 = u2 * math.exp(-params.theta * i) if i in params.coupled_states else 0.0
                    expect = {
                        i - 1: params.sell_rate * i + pert2,
                        i + 1: params.buy_rate * i + pert1,
                    }
                    row = model.row(i, ia, ib)
                    got = dict(zip(row.cols.tolist(), row.rates.tolist()))
                    assert got == pytest.approx(expect)
                    assert abs(sum(expect.values()) + row.diag) < 1e-12


class TestShopModel:
    def test_interior_row_matches_hand_value(self):
        # defaults: sell_rate 2, buy_rate 1; state 5 is off the coupled set,
        # so the row is the plain birth-death row for every action pair
        model = shop_model()
        row = model.row(5, 0, 0)
        assert dict(zip(row.cols.tolist(), row.rates.tolist())) == {4: 10.0, 6: 5.0}
        assert row.diag == -15.0

    def test_boundary_row_conservative_and_positive_to_cutoff(self):
        params = ShopParams()
        model = shop_model(params)
        cut = shop_boundary_cut(params)
        row = model.row(1, 0, 0)
        assert row.total() == pytest.approx(0.0, abs=1e-15)
        targets = dict(zip(row.cols.tolist(), row.rates.tolist()))
        for j in range(2, cut + 1):
            assert targets[j] > 0
            assert targets[j] <= math.exp(-2.0 * params.theta * j)
        assert max(targets) == cut

    def test_cost_matches_fee_minus_payoff(self):
        # fee 1 per item with payoff equal to the action itself
        params = ShopParams(sell_rate=8.0, fee1=1.0,
                            payoff1=lambda i, u: u)
        model = shop_model(params)
        for ia, u in enumerate(model.action_values(1, 3)):
            assert model.cost(1, 3, ia, 0) == pytest.approx(3.0 - u)

    def test_drift_identity_off_coupled_states(self):
        # exponentially weighted row sum collapses to the closed-form bracket
        params = ShopParams()
        model = shop_model(params)
        th = params.theta
        bracket = (params.buy_rate * (math.exp(th) - 1.0)
                   + params.sell_rate * (math.exp(-th) - 1.0))
        for i in (2, 7, 20):
            assert i not in params.coupled_states
            for ia in range(model.n_actions(1, i)):
                for ib in range(model.n_actions(2, i)):
                    row = model.row(i, ia, ib)
                    lhs = row.diag * math.exp(th * i)
                    lhs += sum(r * math.exp(th * j)
                               for j, r in zip(row.cols, row.rates))
                    rhs = i * math.exp(th * i) * bracket
                    assert lhs == pytest.approx(rhs, abs=1e-10 * i * math.exp(th * i))

    def test_state_one_grids_respect_perturbation_signs(self):
        params = ShopParams()
        model = shop_model(params)
        assert np.all(model.action_values(1, 1) > 0)
        assert model.action_values(2, 1).tolist() == [0.0]

    @pytest.mark.parametrize("kwargs, condition", [
        (dict(n_actions=1), "(I)"),
        (dict(sell_rate=1.0, buy_rate=2.0), "(II)"),
        (dict(coupled_states=frozenset({2})), "(III)"),
        (dict(fee1=5.0), "(IV)"),
    ])
    def test_invalid_params_rejected_naming_condition(self, kwargs, condition):
        import re
        with pytest.raises(ValueError, match=re.escape(condition)):
            shop_model(ShopParams(**kwargs))

    def test_custom_boundary_row_validated(self):
        params = ShopParams(boundary_row={2: 1.0})  # above the decay bound
        assert any(cond == "boundary row" for cond, _ in validate_shop_params(params))

    def test_drift_margin_positive_for_defaults(self):
        assert shop_drift_margin(ShopParams()) > 0.1

    def test_lyapunov_spec_constants(self):
        params = ShopParams()
        spec = shop_lyapunov_spec(params)
        th = params.theta
        assert spec.C1 == 1.0
        assert spec.C2 == spec.C4
        assert spec.C4 == pytest.approx(max(
            params.action_max * (math.exp(th) - 1.0),
            math.exp(-2 * th) / (1 - math.exp(-th))))
        assert spec.C3 == pytest.approx(
            (2 * params.action_max + params.buy_rate + params.sell_rate) / th)
        assert spec.W(1) == pytest.approx(math.exp(th))
        assert spec.ell(4) == pytest.approx(4 * shop_drift_margin(params))
        assert spec.tail_certified


class TestTruncation:
    def test_full_space_truncation_has_no_killing(self):
        model = two_state_birth_death()
        trunc = truncate(model, 2)
        table = pair_table(model, trunc.states)
        ones = np.ones(table.diag.size)
        inside, _, _ = table.contract(ones, table.state, 2, n=trunc.n)
        full, _, _ = table.contract(ones, table.state, 2)
        dropped = np.asarray(full.sum(axis=1) - inside.sum(axis=1)).ravel()
        assert dropped.tolist() == [0.0, 0.0]

    def test_shop_truncation_drops_outward_edge_keeps_diagonal(self):
        model = shop_model()
        trunc = truncate(model, 5)
        table = pair_table(model, [5])
        pure = ((table.a1 == 0) & (table.a2 == 0)).astype(float)
        inside, diag, _ = table.contract(pure, table.state, 1, n=trunc.n)
        full, _, _ = table.contract(pure, table.state, 1)
        assert inside.indices.tolist() == [3]    # dense index of state 4
        assert inside.data.tolist() == [10.0]
        assert diag.tolist() == [-15.0]
        assert full.sum() - inside.sum() == 5.0

    def test_nestedness_and_anchor_membership(self):
        model = shop_model()
        t3 = truncate(model, 3)
        t4 = truncate(model, 4)
        assert set(t3.states) < set(t4.states)
        assert model.anchor in t3
        with pytest.raises(ValueError):
            truncate(model, 0)


class TestStrategies:
    def test_pure_strategy_is_dirac(self):
        model = random_game(np.random.default_rng(0), n_states=3, m1=2, m2=2)
        s = pure_strategy(model, 1, lambda i: 0)
        assert s.weights(2).tolist() == [1.0, 0.0]

    def test_uniform_strategy(self):
        model = random_game(np.random.default_rng(0), n_states=3, m1=3, m2=2)
        s = uniform_strategy(model, 1)
        assert s.weights(1).tolist() == [1 / 3, 1 / 3, 1 / 3]

    def test_out_of_grid_choice_names_state(self):
        model = random_game(np.random.default_rng(0), n_states=3, m1=2, m2=2)
        s = pure_strategy(model, 1, lambda i: 7)
        with pytest.raises(ValueError, match="state 2"):
            s.weights(2)

    def test_invalid_weights_rejected(self):
        model = random_game(np.random.default_rng(0), n_states=2, m1=2, m2=2)
        with pytest.raises(ValueError, match="sum"):
            tabular_strategy(model, 1, {1: [0.5, 0.4], 2: [1.0, 0.0]}).weights(1)
        with pytest.raises(ValueError, match="negative"):
            tabular_strategy(model, 1, {1: [1.2, -0.2], 2: [1.0, 0.0]}).weights(1)

    def test_mixing_and_quantized_key(self):
        model = random_game(np.random.default_rng(0), n_states=2, m1=2, m2=2)
        a = pure_strategy(model, 1, lambda i: 0)
        b = pure_strategy(model, 1, lambda i: 1)
        mixed = mix_strategies(model, a, b, 0.25, states=[1, 2])
        assert mixed.weights(1).tolist() == [0.25, 0.75]
        assert mixed.key([1, 2]) == ((250000000000, 750000000000),) * 2
        with pytest.raises(ValueError):
            mix_strategies(model, a, b, 1.5, states=[1, 2])


class TestCostShift:
    def test_shifts_only_named_player(self):
        model = random_game(np.random.default_rng(1), n_states=3)
        shifted = with_cost_shift(model, 1, 0.7)
        c1, c2 = model.costs(2, 1, 0)
        d1, d2 = shifted.costs(2, 1, 0)
        assert d1 == pytest.approx(c1 + 0.7)
        assert d2 == c2


class TestJsonFormat:
    def test_round_trip_preserves_rows_and_costs(self, tmp_path):
        model = random_game(np.random.default_rng(2), n_states=4, m1=2, m2=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.n_states == 4
        for i in model.states():
            for ia in range(2):
                for ib in range(3):
                    r0 = model.row(i, ia, ib)
                    r1 = back.row(i, ia, ib)
                    assert r0.cols.tolist() == r1.cols.tolist()
                    assert r0.rates.tolist() == r1.rates.tolist()
                    assert r0.diag == r1.diag
                    assert model.costs(i, ia, ib) == back.costs(i, ia, ib)

    def test_shop_round_trip(self, tmp_path):
        params = ShopParams(theta=0.3, coupled_states=frozenset({1, 2}))
        path = tmp_path / "shop.json"
        save_model(shop_model(params), path)
        back = load_model(path)
        assert back.meta["shop_params"].theta == 0.3
        assert back.row(5, 0, 0).diag == -15.0

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            model_from_dict({"states": 2, "bogus": 1})
        with pytest.raises(ValueError, match="unknown field"):
            model_from_dict({"lazy": "shop", "shop_params": {"nope": 3}})

    @pytest.mark.parametrize("rates, costs, problem", [
        ([[1, 0, 0, 3, 1.0]], [], "target state 3"),
        ([[3, 0, 0, 1, 1.0]], [], "state 3"),
        ([[1, 0, 0, 0, 1.0]], [], "target state 0"),
        ([[1, 2, 0, 2, 1.0]], [], "player 1 action 2"),
        ([], [[1, 1, 0, 1, 0.5]], "player 2 action 1"),
        ([], [[3, 1, 0, 0, 0.5]], "cost player 3"),
        ([], [[1, 0, 0, 0, 0.5]], "state 0"),
    ])
    def test_out_of_range_indices_rejected_naming_entry(self, rates, costs,
                                                        problem):
        doc = {
            "states": 2,
            "actions": {"1": {"default": [0.0, 1.0]}, "2": {"default": [0.0]}},
            "rates": [[1, 0, 0, 2, 1.0], [2, 0, 0, 1, 1.0]] + rates,
            "costs": costs,
        }
        entry = (rates + costs)[0]
        with pytest.raises(ValueError) as err:
            model_from_dict(doc)
        assert str(entry) in str(err.value)
        assert problem in str(err.value)

    def test_custom_payoff_not_serializable(self):
        model = shop_model(ShopParams(payoff1=lambda i, u: 0.0))
        with pytest.raises(ValueError, match="payoff"):
            model_to_dict(model)

    def test_explicit_diagonal_preserves_defect(self):
        doc = {
            "states": 2,
            "actions": {"1": {"default": [0.0]}, "2": {"default": [0.0]}},
            "rates": [[1, 0, 0, 2, 1.0], [1, 0, 0, 1, -0.999],
                      [2, 0, 0, 1, 1.0], [2, 0, 0, 2, -1.0]],
            "costs": [],
        }
        model = model_from_dict(doc)
        report = validate_model(model)
        assert not report.ok
        assert report.violations[0].magnitude == pytest.approx(1e-3)


class TestGameModelBasics:
    def test_row_requires_diagonal(self):
        model = GameModel(lambda i, a, b: {2: 1.0}, lambda i, a, b: (0, 0),
                          lambda p, i: [0.0], n_states=2)
        with pytest.raises(ValueError, match="diagonal"):
            model.row(1, 0, 0)

    def test_states_needs_limit_when_countable(self):
        model = shop_model()
        with pytest.raises(ValueError, match="limit"):
            model.states()
        assert list(model.states(3)) == [1, 2, 3]

    def test_exit_rate_bound(self):
        model = shop_model()
        assert model.exit_rate_bound(5) == 15.0


class TestValidateNeverRaises:
    def test_empty_grid_reported_not_raised(self):
        model = GameModel(lambda i, a, b: {1: 0.0}, lambda i, a, b: (0, 0),
                          lambda p, i: [] if p == 1 else [0.0], n_states=1)
        report = validate_model(model)
        assert not report.ok
        assert any(v.kind == "empty action grid" for v in report.violations)

    def test_missing_diagonal_reported_not_raised(self):
        model = GameModel(lambda i, a, b: {2: 1.0}, lambda i, a, b: (0, 0),
                          lambda p, i: [0.0], n_states=2)
        report = validate_model(model)
        assert any("row construction failed" in v.kind
                   for v in report.violations)

    def test_lazy_row_conservativeness_enforced_at_materialization(self):
        model = GameModel(lambda i, a, b: {i + 1: 1.0, i: -0.999},
                          lambda i, a, b: (0, 0), lambda p, i: [0.0],
                          n_states=None)
        with pytest.raises(ValueError, match="not\\s+conservative"):
            model.row(1, 0, 0)
