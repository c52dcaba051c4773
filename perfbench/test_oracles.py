"""The benchmark's oracles accept real outputs and reject wrong ones.

    python3 -m pytest perfbench/test_oracles.py -q

Each test runs an rsgame command in-process on a small instance, checks
that its real output passes, then feeds the check a wrong answer:
a rho shifted by 1e-6, the uniform pair presented as an equilibrium, a
growth estimate moved by 5 standard errors, a hitting estimate scaled by
1.1, and a growth standard error inflated tenfold.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from rsgame.cli import main  # noqa: E402

EPS = 1e-6


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def solve_output(tmp_path, model_args, n):
    out = tmp_path / "solve.json"
    code, _ = run_cli(["solve", *model_args, "--trunc", str(n), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def shop_solve(tmp_path_factory):
    code, payload = solve_output(tmp_path_factory.mktemp("shop"),
                                 ["--builtin", "shop"], 40)
    return oracle.shop_dense_game(40), code, payload


@pytest.fixture(scope="module")
def wide_solve(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wide")
    game = inputs.wide_game(seed=7, index=0, n=60)
    game.save(tmp / "game.json")
    code, payload = solve_output(tmp, ["--model", str(tmp / "game.json")], 60)
    return oracle.finite_dense_game(game), code, payload


@pytest.fixture(params=["shop_solve", "wide_solve"])
def solved(request):
    return request.getfixturevalue(request.param)


def test_solve_output_accepted(solved):
    game, code, payload = solved
    assert oracle.check_solve(game, code, payload, EPS) == []


@pytest.mark.parametrize("player", [0, 1])
def test_rho_shifted_by_1e6_rejected(solved, player):
    game, code, payload = solved
    wrong = json.loads(json.dumps(payload))
    wrong["certificate"]["rho"][player] += 1e-6
    problems = oracle.check_solve(game, code, wrong, EPS)
    assert any(p.startswith(f"rho_{player + 1} =") for p in problems)


def test_uniform_pair_as_equilibrium_rejected(solved):
    game, code, payload = solved
    w1, w2 = oracle.uniform_weights(game)
    Q, c = game.averaged(w1, w2)
    wrong = json.loads(json.dumps(payload))
    wrong["certificate"]["strategies"] = {"1": [w.tolist() for w in w1],
                                          "2": [w.tolist() for w in w2]}
    # the rates are the pair's true ones, so only the deviation test can object
    wrong["certificate"]["rho"] = [oracle.perron(Q + np.diag(c[k])).rho for k in (0, 1)]
    problems = oracle.check_solve(game, code, wrong, EPS)
    assert problems and all("can deviate" in p for p in problems)


SIM = dict(horizon=150.0, paths=200, trunc=40, targets=(1, 2, 3, 4, 5),
           starts=(6, 7, 8, 9, 10))


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "sim.csv"
    code, text = run_cli([
        "simulate", "--builtin", "shop", "--horizon", str(SIM["horizon"]),
        "--paths", str(SIM["paths"]), "--batches", "20", "--workers", "2",
        "--trunc", str(SIM["trunc"]), "--hitting",
        "--hit-targets", ",".join(map(str, SIM["targets"])),
        "--hit-starts", ",".join(map(str, SIM["starts"])),
        "--seed", "3", "--out", str(out)])
    growth = list(csv.reader(out.open()))[-1]
    hitting = list(csv.DictReader(open(str(out) + ".hitting.csv")))
    ref = oracle.simulate_reference(SIM["horizon"], SIM["paths"], SIM["trunc"],
                                    SIM["targets"], SIM["starts"])
    return ref, code, text, growth, hitting


def test_simulate_output_accepted(simulated):
    assert oracle.check_simulate(*simulated) == []


def test_growth_estimate_moved_by_5_se_rejected(simulated):
    ref, code, text, growth, hitting = simulated
    rho_hat, se = float(growth[1]), float(growth[2])
    scale = max(se, ref.growth_sd)
    away = 1.0 if rho_hat >= ref.growth_mean else -1.0
    moved = [growth[0], repr(rho_hat + away * 5.0 * scale), growth[2]]
    problems = oracle.check_simulate(ref, code, text, moved, hitting)
    assert len(problems) == 1 and problems[0].startswith("rho_hat")


def test_hitting_estimate_scaled_by_1_1_rejected(simulated):
    ref, code, text, growth, hitting = simulated
    for k in range(len(hitting)):
        wrong = [dict(row) for row in hitting]
        wrong[k]["estimate"] = repr(1.1 * float(wrong[k]["estimate"]))
        problems = oracle.check_simulate(ref, code, text, growth, wrong)
        assert len(problems) == 1 and problems[0].startswith("hitting estimate")


def test_inflated_standard_error_rejected(simulated):
    ref, code, text, growth, hitting = simulated
    inflated = [growth[0], growth[1], repr(10.0 * float(growth[2]))]
    problems = oracle.check_simulate(ref, code, text, inflated, hitting)
    assert len(problems) == 1 and "reported standard error" in problems[0]
