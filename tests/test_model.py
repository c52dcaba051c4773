import gc
import json
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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

from rsgame.model import (Row, StationaryStrategy, _row_totals, _selector,
                          _shop_game)
from tests.helpers import (
    PerStateStrategy,
    digest_game,
    outcome,
    random_game,
    reference_costs,
    reference_key,
    reference_mix,
    reference_pure,
    reference_selector,
    reference_row,
    reference_strategy_table,
    reference_strategy_weights,
    reference_tabular,
    reference_uniform,
    reference_table,
    reference_validate,
    scalar_shop,
    shop_cases,
    store_corpus,
    store_fields,
    table_digest,
    table_fields,
    violation_fields,
)

CORPUS = store_corpus()


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
        assert model.anchor in t3.states
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

    def test_shifted_loaded_model_never_rebuilds_rows(self, tmp_path):
        path = tmp_path / "game.json"
        save_model(digest_game(), path)
        model = load_model(path)
        shifted = with_cost_shift(model, 2, 0.3)

        def rebuild(i, ia, ib):
            raise AssertionError(f"row ({i}, {ia}, {ib}) rebuilt")

        model._rate_fn = rebuild
        table = pair_table(shifted, shifted.states())
        assert table.rows.nnz == pair_table(model, model.states()).rows.nnz
        assert np.shares_memory(shifted.row(7, 1, 2).rates,
                                model.row(7, 1, 2).rates)
        assert shifted.costs(7, 1, 2) == (model.costs(7, 1, 2)[0],
                                          model.costs(7, 1, 2)[1] + 0.3)

    @pytest.mark.parametrize("player, kappa", [(1, 0.3), (2, -0.7)])
    def test_shifted_shop_uses_the_shop_blocks_and_costs(self, player, kappa):
        base = _shop_game(ShopParams(coupled_states=frozenset({1, 3, 7})))
        shifted = with_cost_shift(base, player, kappa)
        calls = []
        rate_fn, cost_fn = base._rate_fn, base._cost_fn
        base._rate_fn = lambda i, ia, ib: calls.append(i) or rate_fn(i, ia, ib)
        base._cost_fn = lambda i, ia, ib: calls.append(-i) or cost_fn(i, ia, ib)
        shifted._built(1000, costs=True)
        assert sorted(set(calls)) == [1, 3, 7]  # no cost_fn call at all
        assert shifted._rows is base._rows
        want = base._costs.cost.copy()
        want[:, player - 1] += kappa
        assert shifted._costs.cost.tobytes() == want.tobytes()

    def test_shift_keeps_the_base_cost_errors(self):
        def cost_fn(i, ia, ib):
            if (i, ia) == (3, 1):
                raise KeyError((i, ia, ib))
            return (0.5, 0.25)

        base = GameModel(lambda i, a, b: {i + 1: 1.0, i: -1.0}, cost_fn,
                         lambda player, i: [0.0, 1.0])
        shifted = with_cost_shift(with_cost_shift(base, 1, 0.5), 2, 2.0)
        assert shifted.costs(4, 1, 1) == (1.0, 2.25)
        for model in (base, shifted):
            with pytest.raises(KeyError, match="3, 1, 0"):
                model.costs(3, 1, 0)
        assert sorted(shifted._costs.failed) == sorted(base._costs.failed)


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

    @pytest.mark.parametrize("doc, field", [
        ([1, 2], "model document must be a JSON object"),
        ({"states": 2, "actions": []}, "actions must be a JSON object"),
        ({"states": 2, "actions": {"3": {}}}, "['3'] in actions"),
        ({"states": 2, "actions": {"1": [0.0]}}, "actions for player 1 must"),
        ({"states": 2, "actions": {"1": {"per_state": []}}},
         "per_state of actions for player 1 must"),
        ({"states": 2, "actions": {"1": {"default": {"a": 1}}}},
         "player 1 at state 1 is not a list of numbers"),
        ({"lazy": "shop", "shop_params": []}, "shop_params must be a JSON"),
        ({"lazy": "shop", "shop_params": None}, "shop_params must be a JSON"),
        ({"lazy": "shop", "shop_params": {"theta": "x"}}, "field 'theta'"),
        ({"lazy": "shop", "shop_params": {"fee1": float("nan")}},
         "field 'fee1' must be a finite number"),
        ({"lazy": "shop", "shop_params": {"sell_rate": 10 ** 400}},
         "field 'sell_rate' must be a finite number"),
        ({"lazy": "shop", "shop_params": {"buy_rate": True}}, "'buy_rate'"),
        ({"lazy": "shop", "shop_params": {"n_actions": 2.0}},
         "field 'n_actions' must be a finite integer"),
        ({"lazy": "shop", "shop_params": {"coupled_states": "13"}},
         "field 'coupled_states' must be a list"),
        ({"lazy": "shop", "shop_params": {"coupled_states": [1, 3.5]}},
         "field 'coupled_states' entry must be a finite integer"),
        ({"lazy": "shop", "shop_params": {"boundary_row": {"2": "x"}}},
         "field 'boundary_row' at 2"),
        ({"lazy": "shop", "shop_params": {"boundary_row": [1e-3]}},
         "field 'boundary_row' must be a JSON object"),
    ])
    def test_field_of_the_wrong_json_type_rejected_naming_it(self, doc,
                                                             field):
        with pytest.raises(ValueError) as err:
            model_from_dict(doc)
        assert field in str(err.value)

    @pytest.mark.parametrize("params, problem", [
        ({"boundary_tail_tol": 0.0}, "need boundary_tail_tol > 0"),
        ({"theta": 1e-300, "fee1": -1.0, "fee2": -1.0},
         "cutoff at most 1000000"),
        ({"theta": 1000.0}, "drift margin -inf"),
    ])
    def test_shop_params_that_cannot_build_the_model_rejected(self, params,
                                                              problem):
        # zero tolerance never ended the boundary cutoff's search, a tiny
        # theta divided by zero there, and a large one overflowed exp
        with pytest.raises(ValueError, match="invalid shop parameters") as err:
            model_from_dict({"lazy": "shop", "shop_params": params})
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


def _doc(rates, costs=(), n=20, m1=1, m2=1):
    return {"states": n,
            "actions": {"1": {"default": list(map(float, range(m1)))},
                        "2": {"default": list(map(float, range(m2)))}},
            "rates": list(rates), "costs": list(costs)}


class TestColumnarTables:
    # sha256 (tests.helpers.table_digest) of every row and cost, recorded
    # with the dict-based loader: the saved digest game reloaded, and the
    # same document without diagonals, shuffled, a third of its rates
    # repeated first with value 7.0
    SAVED = "1c14cd263894f644a31f4394c935855f0483b75f9c24973812b2c49f490ca5b3"
    DERIVED = "ee4d7d524a434d6a4088ffb7a3917c657fb24b12b117519a6b85139cb0fe19fb"

    def test_reloaded_game_matches_recorded_digest(self, tmp_path):
        path = tmp_path / "game.json"
        save_model(digest_game(), path)
        assert table_digest(load_model(path)) == self.SAVED

    def test_derived_diagonals_match_recorded_digest(self):
        doc = json.loads(json.dumps(model_to_dict(digest_game())))
        off = [e for e in doc["rates"] if e[0] != e[3]]
        random.Random(7).shuffle(off)
        doc["rates"] = [[*e[:4], 7.0] for e in off[::3]] + off
        assert table_digest(model_from_dict(doc)) == self.DERIVED

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_dict_reference_on_random_documents(self, seed):
        # repeated keys, explicit and derived diagonals, zero, NaN and
        # negative rates, values far apart in size, entries in random order
        rng = np.random.default_rng(seed)
        n, m1, m2 = 6, 2, 3
        rates, costs = [], []
        for _ in range(150):
            i = int(rng.integers(1, n + 1))
            value = float(rng.choice([0.0, -0.5, float("nan"), 1e-16, 3e-17,
                                      1.0, 1e3, rng.random()],
                                     p=[.1, .03, .02, .25, .1, .1, .1, .3]))
            j = i if rng.random() < 0.08 else int(rng.integers(1, n + 1))
            rates.append([i, int(rng.integers(m1)), int(rng.integers(m2)), j,
                          value])
            costs.append([int(rng.integers(1, 3)), i, int(rng.integers(m1)),
                          int(rng.integers(m2)), rng.random()])
        doc = _doc(rates, costs[:40], n=n, m1=m1, m2=m2)
        model = model_from_dict(doc)
        ref_rows, ref_costs = reference_table(doc)
        for i in model.states():
            for ia in range(m1):
                for ib in range(m2):
                    row = model.row(i, ia, ib)
                    cols, rates_ref, diag = ref_rows.get((i, ia, ib),
                                                         ([], [], 0.0))
                    assert row.cols.tolist() == cols
                    assert repr(row.rates.tolist()) == repr(rates_ref)
                    assert repr(row.diag) == repr(diag)
                    assert model.costs(i, ia, ib) == ref_costs.get(
                        (i, ia, ib), (0.0, 0.0))

    def test_duplicate_keeps_last_value_at_first_position(self):
        # target 20 enters first (5.0), then fifteen tiny rates, then 20
        # again with its final value 1.0
        small = [[1, 0, 0, j, 1e-16] for j in range(2, 17)]
        row = model_from_dict(_doc([[1, 0, 0, 20, 5.0], *small,
                                    [1, 0, 0, 20, 1.0]])).row(1, 0, 0)
        assert row.cols.tolist() == [*range(2, 17), 20]
        assert row.rates.tolist() == [1e-16] * 15 + [1.0]
        total = 0.0
        for r in [1.0] + [1e-16] * 15:  # first-entry order, one by one
            total += r
        assert row.diag == -total == -1.0
        # target order, or numpy's pairwise sum, gives another double
        in_target_order = 0.0
        for r in row.rates.tolist():
            in_target_order += r
        assert -in_target_order != row.diag
        assert -float(np.sum([1.0] + [1e-16] * 15)) != row.diag

    def test_repeated_cost_keeps_last_value(self):
        model = model_from_dict(_doc([], [[2, 1, 0, 0, 3.0], [1, 1, 0, 0, 0.5],
                                          [2, 1, 0, 0, 0.25]], n=2))
        assert model.costs(1, 0, 0) == (0.5, 0.25)

    def test_explicit_diagonal_used_as_given_last_wins(self):
        model = model_from_dict(_doc([[1, 0, 0, 1, -7.0], [1, 0, 0, 2, 1.0],
                                      [1, 0, 0, 1, -1.25]], n=2))
        row = model.row(1, 0, 0)
        assert row.diag == -1.25
        assert row.cols.tolist() == [2] and row.rates.tolist() == [1.0]

    def test_absent_row_absorbing_and_absent_cost_zero(self):
        model = model_from_dict(_doc([[1, 0, 0, 2, 1.0]], n=3, m1=2))
        for ia in (0, 1):
            row = model.row(3, ia, 0)
            assert row.cols.size == 0 and row.rates.size == 0
            assert row.diag == 0.0 and math.copysign(1.0, row.diag) == 1.0
            assert model.costs(3, ia, 0) == (0.0, 0.0)
        assert model.row(1, 1, 0).diag == 0.0

    def test_zero_rate_dropped_nan_and_negative_kept(self):
        model = model_from_dict(_doc([[1, 0, 0, 2, 0.0],
                                      [1, 0, 0, 3, float("nan")],
                                      [1, 0, 0, 4, -0.5]], n=4))
        row = model.row(1, 0, 0)
        assert row.cols.tolist() == [3, 4]
        assert math.isnan(row.rates[0]) and row.rates[1] == -0.5
        assert math.isnan(row.diag)
        kinds = [v.kind for v in validate_model(model).violations]
        assert "non-finite off-diagonal rate" in kinds
        assert "negative off-diagonal rate" in kinds

    def test_index_written_as_float_is_that_integer(self):
        rates = [[1, 0, 1, 2, 0.5], [2, 0, 0, 1, 0.75]]
        costs = [[2, 2, 0, 1, 0.125]]
        as_int = model_from_dict(_doc(rates, costs, n=2, m2=2))
        as_float = model_from_dict(_doc([[float(x) for x in e] for e in rates],
                                        [[float(x) for x in e] for e in costs],
                                        n=2, m2=2))
        assert table_digest(as_float) == table_digest(as_int)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, "x",
                                     None])
    def test_index_that_is_no_integer_rejected_naming_entry(self, bad):
        entry = [1, 0, 0, bad, 1.0]
        with pytest.raises(ValueError) as err:
            model_from_dict(_doc([[1, 0, 0, 2, 1.0], entry], n=2))
        assert str(entry) in str(err.value)
        assert "integer indices" in str(err.value)

    @pytest.mark.parametrize("entry", [[1, 0, 0, 2], [1, 0, 0, 2, 1.0, 9],
                                       [1, 0, 0, 2, "x"], 7])
    def test_malformed_entry_rejected_naming_it(self, entry):
        with pytest.raises(ValueError) as err:
            model_from_dict(_doc([[1, 0, 0, 2, 1.0], entry], n=2))
        assert f"rate entry {entry}" in str(err.value)

    def test_first_bad_entry_in_file_order_is_named(self):
        rates = [[1, 0, 0, 2, 1.0], [1, 0, 0, 9, 1.0], [1, 0, 0, "x", 1.0],
                 [5, 0, 0, 1, 1.0]]
        with pytest.raises(ValueError, match=r"\[1, 0, 0, 9, 1.0\]"):
            model_from_dict(_doc(rates, n=2))
        with pytest.raises(ValueError, match="'x'"):
            model_from_dict(_doc(rates[:1] + rates[2:], n=2))

    def test_rows_are_read_only_views_of_one_array(self):
        model = random_game(np.random.default_rng(3), n_states=5)
        rows = [model.row(i, ia, ib) for i in model.states()
                for ia in range(2) for ib in range(2)]
        base = rows[0].cols.base
        assert base is not None and base.size == sum(r.cols.size for r in rows)
        for row in rows:
            assert not row.cols.flags.writeable
            assert not row.rates.flags.writeable
            assert row.cols.base is base

    def test_nested_action_grid_rejected_at_load(self):
        doc = {"states": 2, "actions": {"1": {"default": [[0.0, 1.0]]}},
               "rates": [], "costs": []}
        with pytest.raises(ValueError, match="player 1 at state 1 is not a "
                                             "list of numbers"):
            model_from_dict(doc)

    def test_tabular_model_checks_grids_and_indices(self):
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}
        with pytest.raises(ValueError, match="no action grid for player 2 at "
                                             "state 2"):
            tabular_model({}, {}, {k: v for k, v in grids.items()
                                   if k != (2, 2)}, n_states=2)
        with pytest.raises(ValueError, match="target state 3"):
            tabular_model({(1, 0, 0): {3: 1.0}}, {}, grids, n_states=2)
        with pytest.raises(ValueError, match="player 1 action 1"):
            tabular_model({}, {(2, 1, 0): (0.5, 0.5)}, grids, n_states=2)


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


def _row_fields(row):
    return (row.cols.dtype.str, row.cols.tobytes(), row.rates.dtype.str,
            row.rates.tobytes(), np.float64(row.diag).tobytes())


class TestPairStore:
    """The pair store against the per-pair references of tests.helpers."""

    @pytest.mark.parametrize("build,states", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_validate_matches_reference(self, build, states):
        def report(validate):
            found = validate(build(), states)
            return violation_fields(found), [str(v) for v in found.violations]

        assert outcome(lambda: report(validate_model)) == outcome(
            lambda: report(reference_validate))

    @pytest.mark.parametrize("build,states", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_rows_costs_and_totals_match_reference(self, build, states):
        model, fresh = build(), build()
        for i in sorted(set(states)):
            sizes = outcome(lambda: (model.n_actions(1, i), model.n_actions(2, i)))
            if sizes[0] == "raised":
                continue
            for ia in range(sizes[1][0]):
                for ib in range(sizes[1][1]):
                    row = outcome(lambda: model.row(i, ia, ib))
                    want = outcome(lambda: reference_row(fresh, i, ia, ib))
                    assert row[0] == want[0]
                    if row[0] == "raised":
                        assert row == want
                        continue
                    assert _row_fields(row[1]) == _row_fields(want[1])
                    p = model._pair(i, ia, ib)
                    with np.errstate(invalid="ignore"):
                        total = np.float64(row[1].total())
                    assert total.tobytes() == model._rows.total[p].tobytes()
                    again = model.row(i, ia, ib)
                    assert _row_fields(again) == _row_fields(row[1])
                    if again.rates.size:  # both views into the store
                        for r in (row[1], again):
                            assert np.shares_memory(r.rates,
                                                    model._rows.rates)
                    assert outcome(lambda: np.array(model.costs(i, ia, ib))
                                   .tobytes()) == outcome(
                        lambda: np.array(reference_costs(fresh, i, ia, ib))
                        .tobytes())

    def test_row_totals_add_rows_in_order_from_zero(self):
        rng = np.random.default_rng(11)
        sizes = np.concatenate([np.arange(301), rng.integers(0, 301, 300)])
        values = (rng.standard_normal(sizes.sum())
                  * 10.0 ** rng.integers(-8, 9, sizes.sum()))
        odd = rng.random(values.size)
        values[odd < 0.002] = np.nan
        values[(odd >= 0.002) & (odd < 0.004)] = np.inf
        values[(odd >= 0.004) & (odd < 0.006)] = -np.inf
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        values[indptr[5]:indptr[6]] = -0.0  # all negative zeros
        values[indptr[20]:indptr[21]] = -0.0
        diag = -np.abs(rng.standard_normal(sizes.size))
        diag[[0, 5, 20]] = -0.0
        diag[7::50] = np.nan
        diag[9::50] = -np.inf
        want = []
        for a, b, d in zip(indptr[:-1], indptr[1:], diag.tolist()):
            total = 0.0  # left to right, one value at a time
            for v in values[a:b].tolist():
                total += v
            want.append(d if math.isnan(d) else total + d)
        got = _row_totals(indptr, values, diag)
        assert got.tobytes() == np.array(want).tobytes()
        for p in range(0, sizes.size, 7):
            row = Row(cols=np.arange(sizes[p]),
                      rates=values[indptr[p]:indptr[p + 1]], diag=diag[p])
            assert np.float64(row.total()).tobytes() == got[p].tobytes()

    def test_dropped_table_model_is_freed_without_the_cycle_collector(self):
        model = random_game(np.random.default_rng(4), n_states=6)
        validate_model(model)
        pair_table(model, model.states())
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["rate_fn", "chained", "custom",
                                      "text rate", "cost_fn", "diagonal",
                                      "lazy defect", "empty grid"])
    def test_failing_lazy_model_is_freed_after_repeated_raises(self, case):
        class PairError(ValueError):  # not rebuilt by calling it with args
            def __init__(self, i, note):
                super().__init__(f"pair at {i}: {note}")

        def rate_fn(i, ia, ib):
            if i == 3 and case == "rate_fn":
                raise KeyError(f"no row at {i}")
            if i == 3 and case == "chained":
                try:
                    {}[i]
                except KeyError as exc:
                    raise ValueError(f"no row at {i}") from exc
            if i == 3 and case == "custom":
                raise PairError(i, "no row")
            if i == 3 and case == "text rate":
                return {i + 1: "fast", i: -1.0}
            if i == 3 and case == "diagonal":
                return {i + 1: 1.0}
            if i == 3 and case == "lazy defect":
                return {i + 1: 1.0, i: -2.0}
            return {i + 1: 1.0, i: -1.0}

        def cost_fn(i, ia, ib):
            if i == 3 and case == "cost_fn":
                raise ValueError(f"no cost at {i}")
            return (0.0, 0.0)

        def grid_fn(player, i):
            return [] if (player, i, case) == (1, 3, "empty grid") else [0.0]

        model = GameModel(rate_fn, cost_fn, grid_fn, n_states=None)
        messages = set()
        for _ in range(3):
            for read in (lambda: model.row(3, 0, 0),
                         lambda: model.costs(3, 0, 0),
                         lambda: pair_table(model, [1, 2, 3])):
                try:
                    read()
                except Exception as exc:
                    messages.add((type(exc), str(exc)))
        try:
            validate_model(model, states=[1, 2, 3, 4])
        except Exception as exc:  # cost_fn errors propagate
            messages.add((type(exc), str(exc)))
        assert len(messages) == 1  # the same error each time
        if case == "custom":
            assert messages == {(PairError, "pair at 3: no row")}
        store = model._rows
        kept = list(store.failed.values()) + list(model._costs.failed.values())
        kept += [e for errors in store.empty.values() for e in errors]
        assert len(kept) == 1
        assert kept[0].__traceback__ is None  # no raise has added a frame
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model, read
            assert ref() is None
        finally:
            gc.enable()

    def test_one_state_at_a_time_builds_only_the_states_asked_for(self):
        calls = []

        def rate_fn(i, ia, ib):
            calls.append(i)
            return {i + 1: 1.0, i: -1.0}

        model = GameModel(rate_fn, lambda i, a, b: (0.0, 0.0),
                          lambda p, i: [0.0, 1.0], n_states=None)
        buffers = set()
        for k in range(1, 301):
            model.row(k, 1, 0)
            assert max(calls) == k and model._rows.top == k
            buffers.add(id(model._rows._buffers["cols"]))
        assert calls == [i for i in range(1, 301) for _ in range(4)]
        assert len(buffers) <= 12  # capacity doubles: about log2(1200) copies
        validate_model(model, states=[310, 305])
        assert max(calls) == 310 and model._rows.top == 310


SHOP_CASES = shop_cases()
GROWTH = {
    "one state at a time": list(range(1, 61)),
    "blocks": [1, 2, 3, 5, 40, 321, 1000],
    "at once": [1000],
}


def _grown(model, tops):
    """``model`` after its store grew to each of ``tops``, with the store
    fields after every step."""
    steps = []
    for top in tops:
        model._built(top, costs=True)
        steps.append(store_fields(model))
    return steps


class TestShopBlocks:
    """The shop's array blocks against the same shop's ``rate_fn`` and
    ``cost_fn`` called once per pair (``tests.helpers.scalar_shop``)."""

    @pytest.mark.parametrize("growth", list(GROWTH), ids=list(GROWTH))
    @pytest.mark.parametrize("params", [c[1] for c in SHOP_CASES],
                             ids=[c[0] for c in SHOP_CASES])
    def test_store_matches_scalar_rows_and_costs(self, params, growth):
        model = _shop_game(params)
        tops = GROWTH[growth]
        assert _grown(model, tops) == _grown(scalar_shop(model), tops)

    @pytest.mark.parametrize("params", [c[1] for c in SHOP_CASES],
                             ids=[c[0] for c in SHOP_CASES])
    def test_reports_and_tables_match_scalar_shop(self, params):
        states = [*range(1, 60), 500, 321]
        model, reference = _shop_game(params), scalar_shop(_shop_game(params))
        for read in (
                lambda m: violation_fields(validate_model(m, states)),
                lambda m: [str(v) for v in validate_model(m, states).violations],
                lambda m: table_fields(pair_table(m, states)),
                lambda m: table_fields(pair_table(m, [7, 2, 3]))):
            assert outcome(lambda: read(model)) == outcome(
                lambda: read(reference))

    def test_default_shop_calls_shop_row_only_at_state_one_and_coupled(self):
        model = _shop_game(ShopParams(coupled_states=frozenset({1, 3, 7})))
        calls = []
        rate_fn = model._rate_fn

        def counted(i, ia, ib):
            calls.append(i)
            return rate_fn(i, ia, ib)

        model._rate_fn = counted
        model._built(1000, costs=True)
        assert sorted(set(calls)) == [1, 3, 7]
        assert len(calls) == model.n_actions(1, 1) + 2 * 9

    def test_custom_payoffs_called_once_per_pair_in_pair_order(self):
        calls = []

        def payoff(k):
            def fn(i, u):
                calls.append((k, i, u))
                return 0.0
            return fn

        params = ShopParams(payoff1=payoff(1), payoff2=payoff(2))
        model = _shop_game(params)
        model._built(40, costs=True)
        want = []
        for i in range(1, 41):
            for u1 in model.action_values(1, i).tolist():
                for u2 in model.action_values(2, i).tolist():
                    want += [(1, i, u1), (2, i, u2)]
        assert calls == want

    def test_costs_that_raise_are_kept_per_pair(self):
        # a zero action_max divides by zero in every default payoff
        model = _shop_game(ShopParams(action_max=0.0))
        model._built(5, costs=True)
        failed = model._costs.failed
        assert sorted(failed) == list(range(len(model._costs.cost)))
        assert {type(e) for e in failed.values()} == {ZeroDivisionError}
        with pytest.raises(ZeroDivisionError):
            validate_model(model, range(1, 6))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sell=st.floats(0.5, 6.0), buy=st.floats(0.05, 1.0),
           theta=st.floats(0.05, 1.0), action_max=st.floats(0.1, 5.0),
           fees=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           n_actions=st.integers(2, 5),
           coupled=st.sets(st.integers(2, 120), max_size=5),
           tops=st.lists(st.integers(1, 150), min_size=1, max_size=4))
    def test_random_valid_params_give_the_scalar_store(
            self, sell, buy, theta, action_max, fees, n_actions, coupled,
            tops):
        buy = min(buy, sell)
        margin = shop_drift_margin(ShopParams(sell_rate=sell, buy_rate=buy,
                                              theta=theta))
        params = ShopParams(sell_rate=sell, buy_rate=buy, theta=theta,
                            action_max=action_max, fee1=fees[0] * margin,
                            fee2=fees[1] * margin, n_actions=n_actions,
                            coupled_states=frozenset({1, *coupled}))
        assume(not validate_shop_params(params))
        model = shop_model(params)
        assert _grown(model, sorted(set(tops))) == _grown(
            scalar_shop(model), sorted(set(tops)))


class TestJsonRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_states=st.integers(1, 12),
           m1=st.integers(1, 3), m2=st.integers(1, 3))
    def test_random_game_rows_and_costs_survive_json(self, seed, n_states,
                                                     m1, m2):
        model = random_game(np.random.default_rng(seed), n_states=n_states,
                            m1=m1, m2=m2)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert table_digest(back) == table_digest(model)

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0.05, 1.0), sell=st.floats(2.0, 6.0),
           action_max=st.floats(0.1, 5.0), n_actions=st.integers(2, 5),
           coupled=st.sets(st.integers(2, 60), max_size=4),
           boundary=st.booleans(), top=st.integers(1, 120))
    def test_shop_rows_and_costs_survive_json(self, theta, sell, action_max,
                                              n_actions, coupled, boundary,
                                              top):
        params = ShopParams(
            theta=theta, sell_rate=sell, action_max=action_max,
            n_actions=n_actions, coupled_states=frozenset({1, *coupled}),
            fee1=0.0, fee2=0.0,
            boundary_row={2: math.exp(-4.0 * theta)} if boundary else None)
        assume(not validate_shop_params(params))
        model = shop_model(params)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert back.meta["shop_params"] == params
        assert _grown(back, [top]) == _grown(model, [top])


def _grid_model(m1, m2):
    """Finite model of absorbing states whose grids have ``m1[i - 1]`` and
    ``m2[i - 1]`` actions."""
    grids = {}
    for k, sizes in ((1, m1), (2, m2)):
        for i, m in enumerate(sizes, start=1):
            grids[(k, i)] = np.linspace(0.0, 1.0, m)
    return tabular_model({}, {}, grids, n_states=len(m1))


def _entry(kind, m, rng):
    """A table entry of ``m`` weights: a valid vector or one of the ways
    ``weights`` rejects one."""
    w = rng.dirichlet(np.ones(m)) if m > 1 else np.ones(1)
    if kind == "negative":
        w = np.append(1.5, np.zeros(m - 1))
        w[-1] -= 0.5
    elif kind == "sum":
        w = w * 0.9
    elif kind == "nan":
        w[0] = np.nan
    elif kind == "matrix":
        w = w.reshape(1, m)
    return w


STRATEGY_KINDS = ["uniform", "pure", "selector", "tabular", "mixed", "user"]


@st.composite
def strategy_cases(draw, kind):
    """A model with random grids, a maker of a fresh strategy of ``kind``
    on it, and a list of states (some of them outside the model)."""
    n = draw(st.integers(1, 6))
    m1 = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    m2 = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    player = draw(st.sampled_from((1, 2)))
    sizes = m1 if player == 1 else m2
    # entry kinds come from a seeded generator: hypothesis would favour the
    # first of a list
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entry_kinds = dict(zip(range(1, n + 1), rng.choice(
        ["valid"] * 3 + ["negative", "sum", "nan", "matrix"], n)))
    keys = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    choices = {i: draw(st.integers(-1, 4)) for i in draw(
        st.lists(st.integers(1, n), unique=True, max_size=n))}
    sel = np.array([draw(st.integers(0, m - 1)) for m in sizes], dtype=np.int64)
    weight = draw(st.floats(0.0, 1.0))

    def tabular(model, keys, reference):
        make_table = reference_tabular if reference else tabular_strategy
        return make_table(model, player, {
            i: _entry(entry_kinds[i], sizes[i - 1], np.random.default_rng(i))
            for i in keys})

    def selector(model, reference):
        if reference:
            return reference_selector(model, player, sel)
        return _selector(player, sel, np.array(sizes, np.int64))

    def make(model, reference=False):
        """A fresh strategy of ``kind``, or its state by state reference."""
        uniform = reference_uniform if reference else uniform_strategy
        if kind == "uniform":
            return uniform(model, player)
        if kind == "pure":
            pure = reference_pure if reference else pure_strategy
            return pure(model, player, lambda i: choices[i])
        if kind == "selector":
            return selector(model, reference)
        if kind == "tabular":
            return tabular(model, keys, reference)
        if kind == "mixed":
            other = (uniform(model, player) if weight < 0.5 else
                     selector(model, reference))
            mix = reference_mix if reference else mix_strategies
            return mix(model, tabular(model, range(1, n + 1), reference),
                       other, weight, keys)

        def fn(i):
            return _entry(entry_kinds.get(i, "valid"), sizes[(i - 1) % n],
                          np.random.default_rng(i))

        return (PerStateStrategy if reference else StationaryStrategy)(player,
                                                                       fn)

    states = draw(st.lists(st.integers(1, n + 1), max_size=10))
    return _grid_model(m1, m2), make, states


def _table_outcome(fn):
    result = outcome(fn)
    if result[0] == "ok":
        sizes, flat = result[1]
        return "ok", sizes.tolist(), flat.dtype.str, flat.tobytes()
    return result


class TestStrategyTables:
    """``StationaryStrategy.table`` and its readers against the same
    strategy read state by state (:class:`PerStateStrategy`)."""

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_table_key_and_pair_weights_match_the_per_state_path(self, kind,
                                                                 data):
        model, make, states = data.draw(strategy_cases(kind))
        made = outcome(lambda: make(model))
        if kind == "mixed":
            want = outcome(lambda: make(model, reference=True))
            assert made[0] == want[0] and made[1:] == want[1:] or (
                made[0] == want[0] == "ok")
        if made[0] == "raised":  # a mix of an invalid table
            return
        assert _table_outcome(lambda: make(model).table(states)) == (
            _table_outcome(lambda: reference_strategy_table(
                make(model, reference=True), states)))
        assert outcome(lambda: make(model).key(states)) == outcome(
            lambda: reference_key(make(model, reference=True), states))
        inside = [i for i in states if i <= model.n_states]
        if inside:
            table = pair_table(model, inside)
            got = outcome(lambda: table.strategy_weights(make(model)))
            want = outcome(lambda: reference_strategy_weights(
                table, make(model, reference=True)))
            if got[0] == "ok":
                assert want[0] == "ok"
                assert got[1].tobytes() == want[1].tobytes()
            else:
                assert got == want

    @pytest.mark.parametrize("quantum", [1e-12, 0.3, 0.25, 1e-19])
    def test_key_rounds_like_python(self, quantum):
        model = _grid_model([3, 2, 4], [1, 1, 1])
        table = {1: [0.125, 0.375, 0.5], 2: [0.5, 0.5],
                 3: [1 / 3, 1 / 6, 0.25, 0.25]}
        s = tabular_strategy(model, 1, table)
        assert s.key([1, 2, 3, 1], quantum) == reference_key(
            tabular_strategy(model, 1, table), [1, 2, 3, 1], quantum)
        assert all(type(x) is int for part in s.key([1, 3], quantum)
                   for x in part)

    def test_table_is_built_once_per_list_of_states(self):
        model = _grid_model([2, 3], [2, 2])
        calls = []
        s = StationaryStrategy(1, lambda i: calls.append(i) or [1.0] + [0.0] * i)
        sizes, flat = s.table([1, 2])
        assert s.table((1, 2))[1] is flat
        assert calls == [1, 2]
        assert sizes.tolist() == [2, 3] and not flat.flags.writeable
        u = uniform_strategy(model, 2)
        assert u.table(range(1, 3))[1] is u.table([1, 2])[1]

    def test_grid_mismatch_and_invalid_weights_raise_in_state_order(self):
        model = _grid_model([2, 2], [1, 1])
        table = pair_table(model, [1, 2])
        bad_first = StationaryStrategy(1, lambda i: [0.5, 0.6] if i == 1
                                       else [1.0])
        short_first = StationaryStrategy(1, lambda i: [1.0] if i == 1
                                         else [0.5, 0.6])
        for s, match in ((bad_first, "sum to"), (short_first, "1 entries")):
            with pytest.raises(ValueError, match=match):
                table.strategy_weights(s)

    def test_selector_undefined_outside_its_states(self):
        model = _grid_model([2, 2, 2], [1, 1, 1])
        sel = _selector(1, np.array([1, 0]), np.array([2, 2]))
        assert sel.table([2, 1])[1].tolist() == [1.0, 0.0, 0.0, 1.0]
        for states, state in (([1, 3], 3), ([0, 1], 0)):
            with pytest.raises(ValueError, match="selector undefined outside "
                               rf"truncation \(state {state}\)"):
                sel.table(states)

    def test_uniform_table_stops_at_the_first_state_without_a_grid(self):
        model = _grid_model([2, 3], [1, 1])
        u = uniform_strategy(model, 1)
        want = outcome(lambda: model.n_actions(1, 3))
        assert want[0] == "raised"
        # the grid sizes given are checked up to that state only
        assert outcome(lambda: u.table([1, 3, 2], np.array([2, 0, 3]))) == want

    def test_partial_table_names_the_missing_state(self):
        model = _grid_model([2, 2, 2], [1, 1, 1])
        s = tabular_strategy(model, 1, {1: [1.0, 0.0], 3: [0.0, 1.0]})
        assert s.table([3, 1])[1].tolist() == [0.0, 1.0, 1.0, 0.0]
        with pytest.raises(ValueError, match="no entry for state 2"):
            s.table([1, 2, 3])

    def test_mix_raises_the_first_error_of_either_strategy(self):
        model = _grid_model([2, 2, 2], [1, 1, 1])
        a = tabular_strategy(model, 1, {1: [1.0, 0.0], 2: [1.0, 0.0],
                                        3: [0.7, 0.7]})
        b = tabular_strategy(model, 1, {1: [1.0, 0.0], 2: [0.5, 0.6]})
        with pytest.raises(ValueError, match="at state 2 sum to"):
            mix_strategies(model, a, b, 0.5, [1, 2, 3])
        with pytest.raises(ValueError, match="at state 3 sum to"):
            mix_strategies(model, a, b, 0.5, [1, 3, 2])
        c = tabular_strategy(model, 1, {3: [1.5, -0.5]})
        with pytest.raises(ValueError, match="at state 3 sum to"):
            mix_strategies(model, a, c, 0.5, [3])
        with pytest.raises(ValueError, match="negative strategy weight"):
            mix_strategies(model, c, a, 0.5, [3])
        short = StationaryStrategy(1, lambda i: [1.0])
        with pytest.raises(ValueError, match="at state 1 have 2 and 1"):
            mix_strategies(model, a, short, 0.5, [1])

    def test_table_errors_hold_no_frame_of_their_strategy(self):
        model = _grid_model([2, 2], [1, 1])
        a = tabular_strategy(model, 1, {1: [1.0, 0.0]})
        b = StationaryStrategy(1, lambda i: [0.5, 0.6] if i == 2
                               else [1.0, 0.0])
        c = StationaryStrategy(1, lambda i: {}[i])
        calls = [lambda: a.table([1, 2]), lambda: a.key([1, 2]),
                 lambda: b.table([1, 2]), lambda: c.weights(1),
                 lambda: mix_strategies(model, b, c, 0.5, [1, 2])]
        refs = [weakref.ref(x) for x in (a, b, c)]
        gc.disable()
        try:
            for call in calls:
                try:
                    call()
                except (KeyError, ValueError):
                    pass
                else:
                    raise AssertionError("no error")
            del a, b, c, calls, call
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("make", ["uniform", "selector", "tabular",
                                      "mixed"])
    def test_strategies_with_tables_freed_without_the_cycle_collector(self,
                                                                      make):
        model = shop_model()
        states = tuple(range(1, 41))
        counts = np.array([model.n_actions(1, i) for i in states])
        strategies = {
            "uniform": lambda: uniform_strategy(model, 1),
            "selector": lambda: _selector(1, counts - 1, counts),
            "tabular": lambda: tabular_strategy(model, 1, {
                i: np.eye(m)[0] for i, m in zip(states, counts.tolist())}),
            "mixed": lambda: mix_strategies(
                model, uniform_strategy(model, 1),
                _selector(1, counts - 1, counts), 0.5, states),
        }
        s = strategies[make]()
        s.table(states)
        s.key(states)
        pair_table(model, states).strategy_weights(s)
        refs = [weakref.ref(x) for x in (model, s)]
        gc.disable()
        try:
            del model, strategies, s
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
