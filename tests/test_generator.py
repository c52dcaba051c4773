import hashlib

import numpy as np
import pytest

from rsgame.eigensolver import _ResponseOperator
from rsgame.generator import assemble, common_edges, pair_table
from rsgame.model import (
    StationaryStrategy,
    Truncation,
    shop_model,
    tabular_model,
    tabular_strategy,
    truncate,
    uniform_strategy,
)

from rsgame.model import GameModel
from tests.helpers import (
    dense_response_rows,
    dense_tilted,
    outcome,
    random_game,
    reference_pair_table,
    store_corpus,
    table_fields,
)

CORPUS = store_corpus()


def oracle_average_row(model, i, w1, w2):
    """Explicit double sum over the full action grid (no skipping)."""
    acc = {}
    c1 = c2 = 0.0
    for ia in range(model.n_actions(1, i)):
        for ib in range(model.n_actions(2, i)):
            w = w1[ia] * w2[ib]
            row = model.row(i, ia, ib)
            for j, r in zip(row.cols, row.rates):
                acc[int(j)] = acc.get(int(j), 0.0) + w * r
            acc[i] = acc.get(i, 0.0) + w * row.diag
            k1, k2 = model.costs(i, ia, ib)
            c1 += w * k1
            c2 += w * k2
    return acc, c1, c2


def contract_state(model, i, w1, w2):
    """Averaged row at one state through the contraction: ``(row, c1, c2)``
    with ``row`` mapping target states (diagonal included) to rates."""
    table = pair_table(model, [i])
    R, diag, cost = table.contract(np.outer(w1, w2).ravel(), table.state, 1)
    row = dict(zip((R.indices + 1).tolist(), R.data.tolist()))
    row[i] = float(diag[0])
    return row, float(cost[0, 0]), float(cost[0, 1])


def averaged_generator(model, n, v1, v2):
    """Dense strategy-averaged generator on states 1..n via the contraction."""
    table = pair_table(model, range(1, n + 1))
    weights = table.strategy_weights(v1) * table.strategy_weights(v2)
    R, diag, _ = table.contract(weights, table.state, n, n)
    return R.toarray() + np.diag(diag)


def sparse_mixed(model, player, rng, n):
    """Random mixed strategy with one zero weight at every state."""
    table = {}
    for i in range(1, n + 1):
        m = model.n_actions(player, i)
        w = rng.dirichlet(np.ones(m))
        w[i % m] = 0.0
        table[i] = w / w.sum()
    return tabular_strategy(model, player, table)


class TestPairTable:
    def test_rows_follow_pairs_in_lexicographic_order(self):
        model = random_game(np.random.default_rng(1), n_states=4, m1=2, m2=3)
        table = pair_table(model, [2, 4])
        keys = [(i, ia, ib) for i in (2, 4) for ia in range(2) for ib in range(3)]
        assert table.starts.tolist() == [0, 6]
        for p, (i, ia, ib) in enumerate(keys):
            assert (table.states[table.state[p]], table.a1[p], table.a2[p]) == (i, ia, ib)
            row = model.row(i, ia, ib)
            got = table.rows.getrow(p)
            assert (got.indices + 1).tolist() == row.cols.tolist()
            assert got.data.tolist() == row.rates.tolist()
            assert table.diag[p] == row.diag
            assert tuple(table.cost[p]) == model.costs(i, ia, ib)

    def test_repeated_call_returns_the_read_only_table(self):
        model = random_game(np.random.default_rng(3), n_states=4, m1=2, m2=3)
        table = pair_table(model, range(1, 5))
        assert pair_table(model, (1, 2, 3, 4)) is table
        assert pair_table(model, [1, 2, 3, 4]) is table
        arrays = [getattr(table, name) for name in
                  ("m1", "m2", "state", "a1", "a2", "starts", "diag", "cost")]
        arrays += [table.rows.data, table.rows.indices, table.rows.indptr]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        # the model keeps one table: other states replace it
        other = pair_table(model, [2, 4])
        assert other is not table and pair_table(model, [2, 4]) is other
        fresh = pair_table(model, range(1, 5))
        assert fresh is not table
        assert table_fields(fresh) == table_fields(table)

    def test_common_edges_keep_only_edges_of_every_row(self):
        rng = np.random.default_rng(2)
        model = random_game(rng, n_states=5, m1=2, m2=2, extra_edge_prob=0.5)
        table = pair_table(model, range(1, 6))
        graph = common_edges(table.rows, table.state, 5, 5).toarray()
        for i in range(1, 6):
            for j in range(1, 6):
                every = all(j in model.row(i, ia, ib).cols
                            for ia in range(2) for ib in range(2))
                assert graph[i - 1, j - 1] == every


    @pytest.mark.parametrize("build,states", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_matches_row_walking_reference(self, build, states):
        assert outcome(lambda: table_fields(pair_table(build(), states))) == (
            outcome(lambda: table_fields(reference_pair_table(build(), states))))

    def test_raises_for_the_first_failing_pair_in_pair_order(self):
        def rate_fn(i, ia, ib):
            if (i, ia, ib) in ((2, 1, 0), (3, 0, 1)):
                raise KeyError((i, ia, ib))
            return {i + 1: 1.0, i: -1.0}

        model = GameModel(rate_fn, lambda i, a, b: (0.0, 0.0),
                          lambda p, i: [0.0, 1.0], n_states=None)
        for states, first in ((range(1, 5), "(2, 1, 0)"), ([3, 2], "(3, 0, 1)"),
                              ([4, 3, 1], "(3, 0, 1)"), (range(3, 5), "(3, 0, 1)")):
            with pytest.raises(KeyError) as info:
                pair_table(model, states)
            assert str(info.value) == first
        assert pair_table(model, [4, 1]).rows.shape == (8, 5)


class TestAverageRow:
    def test_dirac_pair_returns_pure_row_verbatim(self):
        model = random_game(np.random.default_rng(3), n_states=3, m1=2, m2=3)
        acc, c1, c2 = contract_state(model, 2, [0.0, 1.0], [0.0, 0.0, 1.0])
        row = model.row(2, 1, 2)
        assert acc[2] == row.diag
        for j, r in zip(row.cols, row.rates):
            assert acc[int(j)] == r
        assert set(acc) == {2, *row.cols.tolist()}
        assert (c1, c2) == model.costs(2, 1, 2)

    def test_half_half_averages_two_rows(self):
        model = random_game(np.random.default_rng(4), n_states=3, m1=2, m2=1)
        acc, _, _ = contract_state(model, 1, [0.5, 0.5], [1.0])
        ra = model.row(1, 0, 0)
        rb = model.row(1, 1, 0)
        da = dict(zip(ra.cols.tolist(), ra.rates.tolist()))
        db = dict(zip(rb.cols.tolist(), rb.rates.tolist()))
        for j in set(da) | set(db):
            expect = (da.get(j, 0.0) + db.get(j, 0.0)) / 2.0
            assert acc[j] == pytest.approx(expect, abs=1e-15)
        assert acc[1] == pytest.approx((ra.diag + rb.diag) / 2.0, abs=1e-15)

    def test_random_mixed_pair_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        model = random_game(rng, n_states=4, m1=3, m2=3)
        w1 = rng.dirichlet(np.ones(3))
        w2 = rng.dirichlet(np.ones(3))
        acc, c1, c2 = contract_state(model, 3, w1, w2)
        exp, e1, e2 = oracle_average_row(model, 3, w1, w2)
        assert set(acc) == set(exp)
        for j in exp:
            assert acc[j] == pytest.approx(exp[j], abs=1e-14)
        assert c1 == pytest.approx(e1, abs=1e-14)
        assert c2 == pytest.approx(e2, abs=1e-14)

    def test_dimension_mismatch_raises(self):
        model = random_game(np.random.default_rng(6), n_states=2, m1=2, m2=2)
        short = StationaryStrategy(1, lambda i: [1.0])
        with pytest.raises(ValueError, match="1 entries|action grid"):
            pair_table(model, [1]).strategy_weights(short)
        with pytest.raises(ValueError, match="action grid"):
            assemble(model, Truncation(2), short, uniform_strategy(model, 2), 1)


class TestAssemble:
    def test_zero_cost_model_gives_bare_generator(self):
        rng = np.random.default_rng(7)
        model = random_game(rng, n_states=4, cost_scale=0.0)
        trunc = truncate(model, 4)
        u1, u2 = uniform_strategy(model, 1), uniform_strategy(model, 2)
        tw = assemble(model, trunc, u1, u2, player=1)
        Q = averaged_generator(model, 4, u1, u2)
        assert np.allclose(tw.A.toarray(), Q, atol=0)
        assert np.abs(Q.sum(axis=1)).max() <= 1e-12

    def test_one_state_constant_cost(self):
        grids = {(1, 1): [0.0], (2, 1): [0.0]}
        model = tabular_model({(1, 0, 0): {1: 0.0}}, {(1, 0, 0): (2.5, 0.0)},
                              grids, n_states=1)
        trunc = truncate(model, 1)
        tw = assemble(model, trunc, uniform_strategy(model, 1),
                      uniform_strategy(model, 2), player=1)
        assert tw.A.toarray().tolist() == [[2.5]]
        # the shift keeps the shifted diagonal strictly positive
        assert tw.alpha >= 0.0
        assert (tw.A + tw.alpha * np.eye(1)).min() >= 0.0

    def test_shop_truncation_matches_dense_oracle(self):
        model = shop_model()
        trunc = truncate(model, 10)
        u1, u2 = uniform_strategy(model, 1), uniform_strategy(model, 2)
        for player in (1, 2):
            tw = assemble(model, trunc, u1, u2, player)
            oracle = dense_tilted(model, 10, u1, u2, player)
            assert np.max(np.abs(tw.A.toarray() - oracle)) < 1e-13
            cost = [sum(wa * wb * model.cost(player, i, ia, ib)
                        for ia, wa in enumerate(u1.weights(i))
                        for ib, wb in enumerate(u2.weights(i)))
                    for i in trunc.states]
            row_sums = (oracle - np.diag(cost)).sum(axis=1)
            assert np.abs(row_sums).max() > 1e-12  # boundary rows lose mass

    def test_bilinearity_in_each_strategy(self):
        rng = np.random.default_rng(8)
        model = random_game(rng, n_states=4, m1=3, m2=2)
        trunc = truncate(model, 4)
        lam = 0.37
        v2 = uniform_strategy(model, 2)
        a = tabular_strategy(model, 1, {i: rng.dirichlet(np.ones(3)) for i in range(1, 5)})
        b = tabular_strategy(model, 1, {i: rng.dirichlet(np.ones(3)) for i in range(1, 5)})
        mixed = tabular_strategy(model, 1, {
            i: lam * a.weights(i) + (1 - lam) * b.weights(i) for i in range(1, 5)})
        A_mixed = assemble(model, trunc, mixed, v2, 1).A.toarray()
        A_a = assemble(model, trunc, a, v2, 1).A.toarray()
        A_b = assemble(model, trunc, b, v2, 1).A.toarray()
        assert np.max(np.abs(A_mixed - (lam * A_a + (1 - lam) * A_b))) <= 1e-12

    def test_metzler_and_subconservative(self):
        model = shop_model()
        trunc = truncate(model, 8)
        u1, u2 = uniform_strategy(model, 1), uniform_strategy(model, 2)
        tw = assemble(model, trunc, u1, u2, player=2)
        A = tw.A.toarray()
        off = A - np.diag(np.diag(A))
        assert off.min() >= 0.0
        Q = averaged_generator(model, 8, u1, u2)
        assert Q.sum(axis=1).max() <= 1e-12
        assert tw.alpha >= (-np.diag(Q)).max()

    def test_shifted_matrix_entrywise_nonnegative(self):
        rng = np.random.default_rng(9)
        model = random_game(rng, n_states=5)
        trunc = truncate(model, 5)
        tw = assemble(model, trunc, uniform_strategy(model, 1),
                      uniform_strategy(model, 2), player=1)
        M = tw.A.toarray() + tw.alpha * np.eye(5)
        assert M.min() >= 0.0
        assert np.diag(M).min() > 0.0

    def test_mixed_pair_with_zero_weights_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        model = random_game(rng, n_states=6, m1=3, m2=4)
        v1, v2 = sparse_mixed(model, 1, rng, 6), sparse_mixed(model, 2, rng, 6)
        for player in (1, 2):
            A = assemble(model, truncate(model, 6), v1, v2, player).A.toarray()
            assert np.max(np.abs(A - dense_tilted(model, 6, v1, v2, player))) <= 1e-14


class TestResponseRows:
    def test_matches_manual_half_average(self):
        rng = np.random.default_rng(10)
        model = random_game(rng, n_states=3, m1=2, m2=3)
        trunc = truncate(model, 3)
        w2 = {i: rng.dirichlet(np.ones(3)) for i in range(1, 4)}
        opp = tabular_strategy(model, 2, w2)
        table = pair_table(model, trunc.states)
        R, diag, cost = table.contract(table.strategy_weights(opp),
                                       2 * table.state + table.a1, 6, n=3)
        i = 2
        for a in range(2):
            g = 2 * (i - 1) + a
            cols = R.indices[R.indptr[g]:R.indptr[g + 1]]
            rates = R.data[R.indptr[g]:R.indptr[g + 1]]
            exp = {}
            exp_diag = 0.0
            exp_cost = 0.0
            for ib, wb in enumerate(w2[i]):
                row = model.row(i, a, ib)
                for j, r in zip(row.cols, row.rates):
                    if j <= 3:
                        exp[int(j) - 1] = exp.get(int(j) - 1, 0.0) + wb * r
                exp_diag += wb * row.diag
                exp_cost += wb * model.cost(1, i, a, ib)
            assert cols.tolist() == sorted(exp)
            for c, r in zip(cols, rates):
                assert r == pytest.approx(exp[int(c)], abs=1e-14)
            assert diag[g] == pytest.approx(exp_diag, abs=1e-14)
            assert cost[g, 0] == pytest.approx(exp_cost, abs=1e-14)

    def test_rejects_same_player_opponent(self):
        model = random_game(np.random.default_rng(11), n_states=2)
        trunc = truncate(model, 2)
        with pytest.raises(ValueError, match="responding player"):
            _ResponseOperator(model, trunc, uniform_strategy(model, 1), player=1)

    def test_stacked_rows_match_dense_oracle(self):
        rng = np.random.default_rng(13)
        model = random_game(rng, n_states=5, m1=3, m2=2)
        v = {1: sparse_mixed(model, 1, rng, 5), 2: sparse_mixed(model, 2, rng, 5)}
        for player in (1, 2):
            op = _ResponseOperator(model, truncate(model, 5), v[3 - player], player)
            rows = dense_response_rows(model, 5, v[3 - player], player)
            expect = np.array([r for per in rows for r in per])
            expect[np.arange(op.owner.size), op.owner] += op.alpha
            assert np.max(np.abs(op.S.toarray() - expect)) <= 1e-14
            pattern = op.intersection_pattern().toarray()
            for i, per in enumerate(rows):
                every = np.all(np.array(per) > 0, axis=0)
                every[i] = False
                assert pattern[i].astype(bool).tolist() == every.tolist()


def _digest(M, alpha):
    h = hashlib.sha256()
    for part in (M.indptr.astype(np.int64), M.indices.astype(np.int64),
                 M.data.astype(np.float64), np.float64(alpha)):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


# sha256 of (indptr, indices, data, alpha), recorded with the dict-based
# per-state row averaging that the action-pair table replaced
GOLDEN = {
    ("shop", 1, "assemble"): "c883ee3d6922399b82497faf148db65164def1005b642cbdcbb15928727157a8",
    ("shop", 1, "response"): "78561b8275b9e6316e53d8087326c076553e249aab62ffbd50c785ba7eaf3d5d",
    ("shop", 2, "assemble"): "09805846f424c8fd312d3764582e9bbb12982173191bd58d9ef046f915d05aaf",
    ("shop", 2, "response"): "ec3e891071f94f574989b248d13a43aa3508efc66ef45bcd9d539a0be18dfd72",
    ("random", 1, "assemble"): "801d46286d7b3022b4163159600f336317b3b7444cd8a8f34007af7515bb39e6",
    ("random", 1, "response"): "4f32dbe9b19c26ba485054804cf20325c7258904e7dff17982b2bf7ba58d207f",
    ("random", 2, "assemble"): "c92433576f72bc8843f9fc175baf6b5d729f6f42d0f7cb3a85ebb97c0f018410",
    ("random", 2, "response"): "6a9b0a1e68430d7a30c7b1ad8b8f182d6fd962522428bd6e8e18bd8bbaf6aa35",
}


def _golden_cases():
    shop = shop_model()
    yield "shop", shop, Truncation(40), uniform_strategy(shop, 1), uniform_strategy(shop, 2)
    rng = np.random.default_rng(2026)
    game = random_game(rng, n_states=8, m1=3, m2=4)
    yield ("random", game, Truncation(8), sparse_mixed(game, 1, rng, 8),
           sparse_mixed(game, 2, rng, 8))


def test_operators_bit_identical_to_recorded_digests():
    for name, model, trunc, v1, v2 in _golden_cases():
        for player in (1, 2):
            A = assemble(model, trunc, v1, v2, player)
            op = _ResponseOperator(model, trunc, v2 if player == 1 else v1, player)
            assert _digest(A.A, A.alpha) == GOLDEN[(name, player, "assemble")]
            assert _digest(op.S, op.alpha) == GOLDEN[(name, player, "response")]
