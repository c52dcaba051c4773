"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE k: PASS`` line (run with ``pytest -s``
to see them) and enforces the stated runtime budgets where given.  All
randomness is seed-pinned, so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from rsgame.cli import main
from rsgame.eigensolver import best_response_eigenpair, principal_eigenpair, truncation_ladder
from rsgame.generator import assemble
from rsgame.model import (
    ShopParams,
    pure_strategy,
    save_model,
    shop_drift_margin,
    shop_model,
    tabular_strategy,
    truncate,
    uniform_strategy,
    with_cost_shift,
)
from rsgame.nash import certify, converse_check, find_nash
from rsgame.simulate import estimate_risk_cost, hitting_representation_check
from rsgame.verify import shop_condition_report

from tests.helpers import (
    dense_principal,
    dense_tilted,
    enumerate_selectors,
    random_game,
    unbiased_mc_instance,
)
from tests.test_nash import decoupled_game, oracle_pure_nash_pairs
from tests.test_simulate import flip_flop_model


def _report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS - {detail}")


def _random_mixed(model, player, rng):
    table = {i: rng.dirichlet(np.ones(model.n_actions(player, i)))
             for i in model.states()}
    return tabular_strategy(model, player, table)


def test_criterion_1_eigen_oracle_equivalence():
    """200 random irreducible instances <= 20 states: power iteration
    matches the dense eigensolver to 1e-8 / 1e-6 in under 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst_rho = worst_psi = 0.0
    for k in range(200):
        n = int(rng.integers(2, 21))
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(1, 4))
        model = random_game(rng, n_states=n, m1=m1, m2=m2)
        v1 = _random_mixed(model, 1, rng)
        v2 = _random_mixed(model, 2, rng)
        player = int(rng.integers(1, 3))
        trunc = truncate(model, n)
        ep = principal_eigenpair(assemble(model, trunc, v1, v2, player),
                                 i0=1, tol=1e-10)
        rho_o, psi_o = dense_principal(dense_tilted(model, n, v1, v2, player))
        worst_rho = max(worst_rho, abs(ep.rho - rho_o))
        worst_psi = max(worst_psi, float(np.max(np.abs(ep.psi - psi_o))))
        assert abs(ep.rho - rho_o) <= 1e-8
        assert np.max(np.abs(ep.psi - psi_o)) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(1, f"200 instances, worst |drho|={worst_rho:.2e}, "
               f"worst |dpsi|={worst_psi:.2e}, {elapsed:.1f}s")


def test_criterion_2_best_response_optimality():
    """50 random instances with <= 64 pure selectors: the nonlinear
    eigenvalue equals the minimum over all selectors to 1e-8."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for k in range(50):
        shape = [(3, 2), (3, 3), (3, 4), (2, 4), (6, 2), (4, 2)][k % 6]
        n, m = shape
        assert m ** n <= 64
        player = 1 + k % 2
        model = random_game(rng, n_states=n,
                            m1=m if player == 1 else 2,
                            m2=m if player == 2 else 2)
        trunc = truncate(model, n)
        opp = _random_mixed(model, 3 - player, rng)
        ep, _ = best_response_eigenpair(model, trunc, opp, player, tol=1e-11)
        best = math.inf
        for combo in enumerate_selectors([m] * n):
            own = pure_strategy(model, player, lambda i, c=combo: c[i - 1])
            pair = (own, opp) if player == 1 else (opp, own)
            rho_o, _ = dense_principal(dense_tilted(model, n, *pair, player))
            best = min(best, rho_o)
        worst = max(worst, abs(ep.rho - best))
        assert abs(ep.rho - best) <= 1e-8
    _report(2, f"50 instances, worst |rho - min over selectors|={worst:.2e}")


def test_criterion_3_ladder_monotonicity():
    """Shop at fixed uniform strategies: rho over n in {10,20,40,80} is
    nondecreasing (defect <= 1e-10) with shrinking increments, < 30 s."""
    t0 = time.monotonic()
    model = shop_model()
    own = uniform_strategy(model, 1)
    opp = uniform_strategy(model, 2)
    result = truncation_ladder(model, opp, 1, [10, 20, 40, 80],
                               own_strategy=own, tol=1e-10)
    rhos = result.rho_values()
    assert len(rhos) == 4
    assert result.max_defect <= 1e-10
    d = result.increments
    assert all(b <= a + 1e-12 for a, b in zip(d, d[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"rho_n={['%.9f' % r for r in rhos]}, increments "
               f"{['%.2e' % x for x in d]}, {elapsed:.1f}s")


def test_criterion_4_nash_certification_completeness():
    """20 random games with <= 64 profiles: pure 1e-8-Nash pairs from
    exhaustive enumeration coincide with the pairs certify accepts."""
    rng = np.random.default_rng(1004)
    checked_pairs = 0
    for game_idx in range(20):
        n, m = [(3, 2), (2, 2)][game_idx % 2]
        model = random_game(rng, n_states=n, m1=m, m2=m, cost_scale=0.6)
        trunc = truncate(model, n)
        nash_set, _ = oracle_pure_nash_pairs(model, n, eps=1e-8)
        sizes = [m] * n
        for s1 in enumerate_selectors(sizes):
            for s2 in enumerate_selectors(sizes):
                p1 = pure_strategy(model, 1, lambda i, s=s1: s[i - 1])
                p2 = pure_strategy(model, 2, lambda i, s=s2: s[i - 1])
                res = certify(model, trunc, p1, p2, eps=1e-8, tol=1e-11)
                assert res.passed == ((s1, s2) in nash_set), (
                    f"game {game_idx}: certify({s1},{s2})={res.passed} "
                    f"oracle={(s1, s2) in nash_set}")
                checked_pairs += 1
    _report(4, f"20 games, {checked_pairs} pure pairs, perfect agreement "
               "with the enumeration oracle")


def test_criterion_5_converse_check_on_converged_certificates():
    """Every converged certificate passes the selector check with
    per-state defect <= 10 * tol."""
    tol = 1e-10
    rng = np.random.default_rng(1005)
    converged = 0
    for game_idx in range(12):
        if game_idx < 4:
            model = decoupled_game(rng, n_states=3, m=2)
            n = 3
        else:
            n, m = [(3, 2), (2, 3)][game_idx % 2]
            model = random_game(rng, n_states=n, m1=m, m2=m, cost_scale=0.6)
        trunc = truncate(model, n)
        cert = find_nash(model, trunc, eps=1e-8, tol=tol, max_rounds=60)
        if not cert.converged:
            continue
        converged += 1
        report = converse_check(model, trunc, cert.v1, cert.v2, tol=10 * tol)
        assert report.passed
        assert report.worst() <= 10 * tol
    assert converged >= 8
    _report(5, f"{converged}/12 certificates converged; all pass the "
               f"selector check with defects <= {10 * tol:.0e}")


def test_criterion_6_monte_carlo_eigenvalue_consistency():
    """10 fixed-strategy instances (T=200, N=1e5, B=20): the estimate sits
    within 3 SE of the eigenvalue in at least 9 of 10 runs, < 5 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    hits = 0
    details = []
    for k in range(10):
        model, start, rho_dense = unbiased_mc_instance(rng)
        n = model.n_states
        trunc = truncate(model, n)
        v1 = uniform_strategy(model, 1)
        v2 = uniform_strategy(model, 2)
        rho = principal_eigenpair(assemble(model, trunc, v1, v2, 1), 1,
                                  tol=1e-11).rho
        assert abs(rho - rho_dense) <= 1e-9
        est = estimate_risk_cost(model, v1, v2, 1, start, horizon=200.0,
                                 paths=100_000, batches=20, seed=2000 + k,
                                 workers=2)
        z = abs(est.rho_hat - rho) / est.se
        details.append(f"{z:.2f}")
        hits += z <= 3.0
    elapsed = time.monotonic() - t0
    assert hits >= 9
    assert elapsed < 300.0
    _report(6, f"{hits}/10 within 3 SE (|z|: {', '.join(details)}), "
               f"{elapsed:.0f}s")


def test_criterion_7_hitting_representation_self_consistency():
    """Shop, n=40: the hitting-time functional reproduces psi at every
    start state in 6..15 within 3 SE."""
    params = ShopParams()
    model = shop_model(params)
    v1 = uniform_strategy(model, 1)
    v2 = uniform_strategy(model, 2)
    trunc = truncate(model, 40)
    ep = principal_eigenpair(assemble(model, trunc, v1, v2, 1), 1, tol=1e-10)
    targets = set(range(1, 6)) | set(params.coupled_states)
    report = hitting_representation_check(
        model, v1, v2, 1, psi=ep.psi_map(), rho=ep.rho, target_set=targets,
        starts=list(range(6, 16)), n_paths=4000, seed=1007, batches=20,
        kill_outside=40, workers=2)
    assert report.valid
    zs = [r.z_score for r in report.rows]
    assert all(z <= 3.0 for z in zs)
    _report(7, f"starts 6..15, worst z={max(zs):.2f}, "
               f"worst rel. dev={max(r.rel_deviation for r in report.rows):.2e}")


def test_criterion_8_condition_display_reproduction():
    """Default shop parameters pass every closed-form display on 1..100;
    single violations of the rate order and the fee bound each fail with
    a correct witness; < 5 s."""
    t0 = time.monotonic()
    report = shop_condition_report(ShopParams(), range(1, 101))
    assert report.all_pass

    # rate-order violation: buying dominates selling
    bad2 = ShopParams(sell_rate=1.0, buy_rate=2.0)
    r2 = shop_condition_report(bad2, range(1, 101))
    d2 = r2.display("killed-drift-bound")
    assert not d2.passed
    margin2 = shop_drift_margin(bad2)
    assert margin2 < 0
    assert d2.worst.defect == pytest.approx(-margin2, rel=1e-12)

    # fee-bound violation: fee exceeds the drift margin
    margin = shop_drift_margin(ShopParams())
    bad4 = ShopParams(fee1=margin + 0.1)
    r4 = shop_condition_report(bad4, range(1, 101))
    d4 = r4.display("cost-margin")
    assert not d4.passed
    assert "(IV)" in d4.worst.note
    assert d4.worst.defect == pytest.approx(0.1, abs=1e-12)

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(8, f"defaults pass 1..100; both constructed violations fail "
               f"with correct witnesses, {elapsed:.1f}s")


def test_criterion_9_constant_shift_invariance():
    """Adding 0.7 to player 1's costs moves rho_1 by exactly 0.7 (1e-10)
    and leaves psi_1 and the best-response selector unchanged."""
    rng = np.random.default_rng(1009)
    model = random_game(rng, n_states=6, m1=3, m2=2)
    shifted = with_cost_shift(model, 1, 0.7)
    trunc = truncate(model, 6)
    opp = _random_mixed(model, 2, rng)
    base, sel0 = best_response_eigenpair(model, trunc, opp, 1, tol=1e-12)
    moved, sel1 = best_response_eigenpair(shifted, trunc, opp, 1, tol=1e-12)
    assert moved.rho - base.rho == pytest.approx(0.7, abs=1e-10)
    assert np.max(np.abs(moved.psi - base.psi)) <= 1e-10
    for i in trunc.states:
        assert sel0.weights(i).tolist() == sel1.weights(i).tolist()
    _report(9, f"rho shift error {abs(moved.rho - base.rho - 0.7):.1e}, "
               f"max |dpsi| {np.max(np.abs(moved.psi - base.psi)):.1e}, "
               "selector identical")


def test_criterion_10_artifact_determinism(tmp_path):
    """solve and simulate artifacts are byte-identical across 1/2/8
    workers at a fixed seed."""
    model_path = tmp_path / "decoupled.json"
    save_model(decoupled_game(np.random.default_rng(1010), n_states=3, m=2),
               model_path)
    sim_path = tmp_path / "flip.json"
    save_model(flip_flop_model(), sim_path)
    solve_blobs = []
    sim_blobs = []
    for w in ("1", "2", "8"):
        out = tmp_path / f"cert{w}.json"
        assert main(["solve", "--model", str(model_path), "--trunc", "3",
                     "--seed", "4", "--workers", w, "--out", str(out)]) == 0
        solve_blobs.append(out.read_bytes())
        sout = tmp_path / f"sim{w}.csv"
        assert main(["simulate", "--model", str(sim_path), "--horizon", "40",
                     "--paths", "2000", "--batches", "20", "--seed", "4",
                     "--workers", w, "--out", str(sout)]) == 0
        sim_blobs.append(sout.read_bytes())
    assert solve_blobs[0] == solve_blobs[1] == solve_blobs[2]
    assert sim_blobs[0] == sim_blobs[1] == sim_blobs[2]
    _report(10, "solve and simulate artifacts byte-identical across "
                "1/2/8 workers")
