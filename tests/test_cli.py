import dataclasses
import gc
import hashlib
import json
import os
import time
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsgame import cli, nash
from rsgame.cli import _hitting_z_bound, main
from rsgame.eigensolver import principal_eigenpair
from rsgame.generator import assemble
from rsgame.model import (
    load_model,
    model_to_dict,
    save_model,
    shop_model,
    tabular_model,
    tabular_strategy,
    truncate,
    uniform_strategy,
)

from rsgame.model import birth_death_model

from tests.helpers import bench_inputs, digest_game, random_game

from tests.test_nash import decoupled_game, matching_pennies
from tests.test_simulate import flip_flop_model, gap_model


@pytest.fixture
def decoupled_path(tmp_path):
    model = decoupled_game(np.random.default_rng(70), n_states=3, m=2)
    path = tmp_path / "decoupled.json"
    save_model(model, path)
    return str(path)


class TestSolve:
    def test_decoupled_model_exits_zero_with_tiny_gaps(self, decoupled_path,
                                                       tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["solve", "--model", decoupled_path, "--trunc", "3",
                     "--eps", "1e-8", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["certificate"]["status"] == "converged"
        assert max(abs(d) for d in doc["certificate"]["delta"]) <= 1e-8
        assert doc["converse"]["passed"] is True

    def test_cycling_game_exits_one_with_artifact(self, tmp_path):
        path = tmp_path / "pennies.json"
        save_model(matching_pennies(), path)
        out = str(tmp_path / "cert.json")
        code = main(["solve", "--model", str(path), "--trunc", "1",
                     "--eps", "1e-9", "--out", out])
        assert code == 1
        doc = json.loads(open(out).read())
        assert doc["certificate"]["status"] == "cycle_detected"

    def test_byte_identical_reruns(self, decoupled_path, tmp_path):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"cert{k}.json"
            assert main(["solve", "--model", decoupled_path, "--trunc", "3",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # sha256 of the solve artifacts of the benchmark's shop-solve and of its
    # first wide-game input (perfbench/inputs.py), recorded with per-state
    # strategy weights and scipy's sigma * identity - M in every Noda step
    def test_shop_solve_bit_identical_to_recorded_digest(self, tmp_path):
        out = tmp_path / "solve.json"
        assert main(["solve", "--builtin", "shop", "--trunc", "320",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "eabd2f77cd8933a3bb9fce1844bf9b694a18aa397d820a49c41bce3ae9dcd31f")

    def test_wide_game_solve_bit_identical_to_recorded_digest(self, tmp_path):
        path = tmp_path / "wide.json"
        bench_inputs().wide_game(1, 0).save(path)
        out = tmp_path / "solve.json"
        assert main(["solve", "--model", str(path), "--trunc", "300",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "066142cdaf7f4a842fd0c62f9fd44a490ca496a25e38a4b6518fa5091b420f32")

    def test_reducible_operator_warnings_reported_exit_unchanged(
            self, tmp_path, capsys):
        # states 1 -> 2 -> 3, and 3 absorbs: every operator is reducible
        model = birth_death_model(up=[1.0, 1.0, 0.0], down=[0.0, 0.0, 0.0],
                                  cost1=[0.5, 0.2, 1.0], cost2=[0.1, 0.3, 0.2])
        path = tmp_path / "chain.json"
        save_model(model, path)
        out = tmp_path / "cert.json"
        code = main(["solve", "--model", str(path), "--trunc", "3",
                     "--out", str(out)])
        assert code == 0  # the certificate converges; warnings do not fail it
        warned = json.loads(out.read_text())["certificate"]["warnings"]
        assert any(w.startswith("operator is reducible") for w in warned)
        assert any(w.startswith("action-intersection graph is reducible")
                   for w in warned)
        assert len(set(warned)) == len(warned)
        stdout = capsys.readouterr().out
        for w in warned:
            assert stdout.count(f"solve: warning: {w}") == 1

    def test_irreducible_certificate_has_no_warnings_key(self, decoupled_path,
                                                         tmp_path):
        out = tmp_path / "cert.json"
        assert main(["solve", "--model", decoupled_path, "--trunc", "3",
                     "--out", str(out)]) == 0
        assert "warnings" not in json.loads(out.read_text())["certificate"]

    def test_shift_past_the_rounding_floor_exits_one(self, tmp_path, capsys):
        # the shift alpha is about 1e20 here: a bracket 1e-10 wide cannot
        # be told from rounding, and rho = midpoint - alpha kept no digit
        path = tmp_path / "shop.json"
        path.write_text(json.dumps({"lazy": "shop",
                                    "shop_params": {"action_max": 1e20}}))
        out = tmp_path / "cert.json"
        assert main(["solve", "--model", str(path), "--trunc", "5",
                     "--out", str(out)]) == 1
        assert "below the rounding floor" in capsys.readouterr().out
        assert "certificate" not in json.loads(out.read_text())


def _count_solves(monkeypatch):
    """Count the linear and best-response eigensolves made through ``nash``."""
    counts = {"linear": 0, "best_response": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nash, "principal_eigenpair",
                        counting("linear", nash.principal_eigenpair))
    monkeypatch.setattr(nash, "best_response_eigenpair",
                        counting("best_response",
                                 nash.best_response_eigenpair))
    return counts


def _solve_cases(tmp_path):
    """``(model, trunc n, model flags)``: the shop and a small random game
    whose best responses ignore the opponent (one round suffices)."""
    game = decoupled_game(np.random.default_rng(72), n_states=6, m=3)
    path = tmp_path / "game.json"
    save_model(game, path)
    return [(shop_model(), 40, ["--builtin", "shop"]),
            (game, 6, ["--model", str(path)])]


class TestSolveReuse:
    def test_each_eigenpair_solved_once(self, tmp_path, monkeypatch):
        for _, n, flags in _solve_cases(tmp_path):
            counts = _count_solves(monkeypatch)
            out = tmp_path / "cert.json"
            assert main(["solve", *flags, "--trunc", str(n),
                         "--out", str(out)]) == 0
            assert counts == {"linear": 2, "best_response": 3}
            assert json.loads(out.read_text())["certificate"]["rounds"] == 1
            monkeypatch.undo()

    def test_blocks_match_fresh_certify_and_converse_check(self, tmp_path):
        for model, n, flags in _solve_cases(tmp_path):
            out = tmp_path / "cert.json"
            assert main(["solve", *flags, "--trunc", str(n),
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            trunc = truncate(model, n)
            v1, v2 = (tabular_strategy(model, k, dict(zip(
                trunc.states, doc["certificate"]["strategies"][str(k)])))
                for k in (1, 2))
            res = nash.certify(model, trunc, v1, v2, eps=doc["eps"],
                               tol=doc["tol"])
            conv = nash.converse_check(model, trunc, v1, v2, tol=doc["tol"])
            assert doc["certify"] == {"delta": [res.delta1, res.delta2],
                                      "passed": res.passed}
            assert doc["converse"] == {
                "passed": conv.passed, "worst_defect": conv.worst(),
                "per_player": [
                    {"player": p.player, "rho": p.rho,
                     "worst_defect": p.worst_defect,
                     "worst_state": p.worst_state,
                     "threshold": p.threshold, "passed": p.passed}
                    for p in conv.players]}


class TestLadder:
    def test_shop_fixed_uniform_csv(self, tmp_path):
        out = tmp_path / "ladder.csv"
        code = main(["ladder", "--builtin", "shop", "--trunc", "5,8,11",
                     "--fixed-uniform", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,rho,residual,iterations,error"
        rows = [line.split(",") for line in lines[1:]]
        ns = [int(r[0]) for r in rows]
        rhos = [float(r[1]) for r in rows]
        assert ns == [5, 8, 11]
        assert all(b - a >= -1e-10 for a, b in zip(rhos, rhos[1:]))

    def test_failed_rung_recorded_and_exit_one(self, tmp_path):
        out = tmp_path / "ladder.csv"
        code = main(["ladder", "--builtin", "shop", "--trunc", "40",
                     "--tol", "1e-14", "--out", str(out)])
        assert code == 1
        assert "did not reach" in out.read_text()

    def test_non_finite_bracket_ends_rung_at_once(self, tmp_path, capsys):
        # at 14000 states psi overflows under the uniform pair; the rung
        # used to run all 1,410,000 steps of default_max_iter
        out = tmp_path / "ladder.csv"
        with np.errstate(all="ignore"):
            code = main(["ladder", "--builtin", "shop", "--trunc", "14000",
                         "--fixed-uniform", "--out", str(out)])
        assert code == 1
        assert "is not finite" in out.read_text()
        assert "Traceback" not in capsys.readouterr().err

    def test_rung_warnings_printed_once_csv_unchanged(self, tmp_path,
                                                      capsys):
        # 1 <-> 2 -> 3 <-> 4: both rungs are reducible with two components,
        # so they carry the same note
        grids = {(p, i): [0.0] for p in (1, 2) for i in range(1, 5)}
        model = tabular_model(
            {(1, 0, 0): {2: 1.0, 1: -1.0}, (2, 0, 0): {1: 1.0, 3: 0.5},
             (3, 0, 0): {4: 1.0}, (4, 0, 0): {3: 1.0}},
            {(1, 0, 0): (0.2, 0.0), (2, 0, 0): (0.3, 0.0),
             (3, 0, 0): (1.0, 0.0), (4, 0, 0): (1.0, 0.0)}, grids, n_states=4)
        path = tmp_path / "blocks.json"
        save_model(model, path)
        out = tmp_path / "ladder.csv"
        assert main(["ladder", "--model", str(path), "--trunc", "3,4",
                     "--fixed-uniform", "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("ladder: warning: ")]
        assert notes == ["ladder: warning: operator is reducible (2 strongly "
                         "connected components); solved on the states that "
                         "reach its dominant component"]
        lines = out.read_text().splitlines()
        assert lines[0] == "n,rho,residual,iterations,error"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]
        assert all(line.endswith(",") for line in lines[1:])


class TestSimulate:
    def test_zero_cost_model(self, tmp_path):
        model_path = tmp_path / "zero.json"
        zero = decoupled_game(np.random.default_rng(71), n_states=2, m=1)
        # strip the costs: rebuild with all-zero tables
        from rsgame.model import model_to_dict
        doc = model_to_dict(zero)
        doc["costs"] = []
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", str(model_path), "--horizon",
                     "20", "--paths", "100", "--batches", "10", "--seed",
                     "5", "--out", str(out)])
        assert code == 0
        final = out.read_text().strip().splitlines()[-1].split(",")
        assert final[0] == "all"
        assert float(final[1]) == 0.0

    def test_workers_do_not_change_artifact(self, tmp_path):
        model_path = tmp_path / "flip.json"
        save_model(flip_flop_model(), model_path)
        blobs = []
        for w in ("1", "2", "8"):
            out = tmp_path / f"sim{w}.csv"
            code = main(["simulate", "--model", str(model_path), "--horizon",
                         "30", "--paths", "400", "--batches", "10", "--seed",
                         "9", "--workers", w, "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_invalid_rate_in_a_worker_process_exits_two(self, tmp_path,
                                                        capsys, monkeypatch):
        # start 3's paths run in the forked process; its error reads as
        # with one worker, and no process is left (psi's operator, with
        # state 3 on its own, is reducible)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        model_path = tmp_path / "gap.json"
        save_model(gap_model(), model_path)
        errors = []
        for w in ("1", "2"):
            out = tmp_path / f"sim{w}.csv"
            assert main(["simulate", "--model", str(model_path),
                         "--trunc", "3", "--horizon", "5", "--paths",
                         "20", "--batches", "10", "--hitting",
                         "--hit-targets", "1", "--hit-starts", "2,3",
                         "--workers", w, "--out", str(out)]) == 2
            printed = capsys.readouterr()
            assert "simulate: warning: operator is reducible" in printed.out
            errors.append(printed.err)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert "error: invalid averaged rate at state 3" in errors[1]
        assert "Traceback" not in errors[1]
        assert errors[0] == errors[1]

    def test_hitting_check_on_shop(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--builtin", "shop", "--trunc", "20",
                     "--horizon", "5", "--paths", "1000", "--batches", "10",
                     "--seed", "3", "--start", "1", "--hitting",
                     "--hit-targets", "1,2,3", "--hit-starts", "4,5",
                     "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "sim.csv.hitting.csv").read_text().splitlines()
        assert lines[0].startswith("start,psi,estimate")
        assert len(lines) == 3


    @pytest.mark.parametrize("flag, value", [
        ("--hit-starts", "50"), ("--hit-starts", "0"),
        ("--hit-targets", "45"), ("--hit-targets", "0")])
    def test_hitting_states_outside_truncation_exit_two(self, flag, value,
                                                        tmp_path, capsys):
        # a start without psi, or a target no path can hit, is rejected
        # before any simulation runs
        out = tmp_path / "sim.csv"
        args = ["simulate", "--builtin", "shop", "--trunc", "40",
                "--horizon", "5", "--paths", "100", "--batches", "10",
                "--hitting", "--hit-targets", "1,2,3", "--hit-starts", "6",
                "--out", str(out)]
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{flag}: state {value} lies outside the truncation 1..40" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_hitting_truncation_beyond_finite_model_exits_two(self, tmp_path,
                                                             capsys):
        model_path = tmp_path / "flip.json"
        save_model(flip_flop_model(), model_path)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model", str(model_path), "--trunc", "40",
                     "--horizon", "5", "--paths", "100", "--batches", "10",
                     "--hitting", "--out", str(out)]) == 2
        assert "exceeds the 2-state model" in capsys.readouterr().err
        assert not out.exists()

    # sha256 of the growth CSV and the .hitting.csv of the benchmark's
    # shop-simulate command at 200 paths, recorded with the one-path-at-a-
    # time jump loops that the lockstep kernel replaced
    GOLDEN = {
        100000: ("b032b710adffb61080d160183189cda4bbdf66f643db096d3ccd11fa18d19135",
                 "bfa1fe220f212658ad5af32fd20c9b509304bb0e45547c7189742da52dc3ef8e"),
        100001: ("75ba0597cefa3ff055c03ccd506c890c52f2d6260c3e5061277b3d769f95b3e2",
                 "d5b1f1e2059966cca68ef38cf445ac991eae6d9eba1ce034371384d6e435cd95"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_shop_artifacts_bit_identical_to_recorded_digests(self, seed,
                                                              tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--builtin", "shop", "--horizon", "150.0",
                     "--paths", "200", "--batches", "20", "--workers", "2",
                     "--trunc", "40", "--hitting", "--hit-targets", "1,2,3,4,5",
                     "--hit-starts", "6,7,8,9,10", "--seed", str(seed),
                     "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (out, tmp_path / "sim.csv.hitting.csv"))
        assert digests == self.GOLDEN[seed]

    HIT_ARGS = ["simulate", "--builtin", "shop", "--horizon", "10",
                "--paths", "400", "--trunc", "40", "--hitting",
                "--hit-targets", "1,2,3,4,5", "--hit-starts", "6,7,8,9,10"]

    def test_non_finite_bracket_in_hitting_check_exits_one(self, tmp_path,
                                                           capsys):
        out = tmp_path / "sim.csv"
        with np.errstate(all="ignore"):
            code = main(["simulate", "--builtin", "shop", "--horizon", "1",
                         "--paths", "20", "--batches", "10", "--trunc",
                         "14000", "--hitting", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: linear eigensolve stopped after" in err
        assert "Traceback" not in err

    @staticmethod
    def _hitting_rows(tmp_path, capsys, model, targets, starts, *extra):
        """Exit code, hitting rows and stdout of a hitting check whose
        psi comes from a reducible operator, which stdout notes once."""
        path = tmp_path / "model.json"
        save_model(model, path)
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", str(path), "--trunc",
                     str(model.n_states), "--hitting", "--hit-targets",
                     targets, "--hit-starts", starts, "--out", str(out),
                     *extra])
        stdout = capsys.readouterr().out
        assert stdout.count("simulate: warning: operator is reducible") == 1
        lines = (tmp_path / "sim.csv.hitting.csv").read_text().splitlines()
        return code, [dict(zip(lines[0].split(","), line.split(",")))
                      for line in lines[1:]], stdout

    def test_hitting_check_on_reducible_chain_passes(self, tmp_path,
                                                     capsys):
        # 1 -> 2 -> 3, and 3 absorbs: psi is positive on every state
        chain = birth_death_model(up=[1.0, 1.0, 0.0], down=[0.0, 0.0, 0.0],
                                  cost1=[0.5, 0.2, 1.0], cost2=[0.1, 0.3, 0.2])
        code, rows, _ = self._hitting_rows(tmp_path, capsys, chain, "3",
                                           "1,2",
                                        "--paths", "2000")
        assert code == 0
        assert [float(r["psi"]) for r in rows] == pytest.approx([1.0, 1.5])

    def test_hitting_check_at_a_start_where_psi_is_zero(self, tmp_path,
                                                        capsys):
        # states 1 and 2 absorb; state 2 dominates, so psi(1) = 0, and no
        # path from 1 hits 2
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2)}
        two = tabular_model({(1, 0, 0): {1: 0.0}, (2, 0, 0): {2: 0.0}},
                            {(1, 0, 0): (1.0, 0.0), (2, 0, 0): (3.0, 0.0)},
                            grids, n_states=2)
        code, rows, stdout = self._hitting_rows(tmp_path, capsys, two, "2",
                                                "1", "--paths", "200",
                                                "--horizon", "5")
        assert code == 1  # no path hit the target: the check is not valid
        assert [(r["psi"], r["estimate"], r["rel_deviation"], r["z"],
                 r["hits"]) for r in rows] == [("0.0", "0.0", "0.0", "0.0",
                                                "0")]
        assert "every z <= " in stdout

    def test_hitting_check_with_a_target_where_psi_is_zero(self, tmp_path,
                                                           capsys):
        # state 2 jumps to 1 or 3, both absorbing; state 3 dominates, so
        # psi(1) = 0 and a hit of target 1 is worth nothing
        grids = {(p, i): [0.0] for p in (1, 2) for i in (1, 2, 3)}
        three = tabular_model(
            {(1, 0, 0): {1: 0.0}, (2, 0, 0): {1: 1.0, 3: 1.0},
             (3, 0, 0): {3: 0.0}},
            {(1, 0, 0): (0.1, 0.0), (2, 0, 0): (0.5, 0.0),
             (3, 0, 0): (1.0, 0.0)}, grids, n_states=3)
        code, rows, stdout = self._hitting_rows(tmp_path, capsys, three,
                                                "1", "2", "--paths", "1000")
        assert code == 1  # psi(2) > 0 is not carried by hits of state 1
        (row,) = rows
        assert float(row["estimate"]) == 0.0 and int(row["hits"]) > 0
        assert float(row["rel_deviation"]) == 1.0
        assert "every z <= " in stdout

    def test_hitting_bound_is_family_wise_student_t(self):
        assert _hitting_z_bound(20, 5) == pytest.approx(4.5899, abs=1e-3)
        assert _hitting_z_bound(20, 1) < _hitting_z_bound(20, 5)

    @pytest.mark.parametrize("seed", [5, 21, 29, 32])
    def test_hitting_check_passes_seeds_beyond_three_se(self, seed, tmp_path,
                                                        capsys):
        # each of these seeds has one start with 3 < z < 3.7 on correct output
        out = str(tmp_path / "sim.csv")
        code = main(self.HIT_ARGS + ["--seed", str(seed), "--out", out])
        stdout = capsys.readouterr().out
        assert "within 3 SE = False" in stdout
        assert "every z <= 4.590" in stdout
        assert code == 0

    def test_hitting_check_rejects_wrong_rho(self, tmp_path, monkeypatch,
                                             capsys):
        def off_by(A, i0, tol):
            ep = principal_eigenpair(A, i0, tol)
            return dataclasses.replace(ep, rho=ep.rho + 0.05)

        monkeypatch.setattr(cli, "principal_eigenpair", off_by)
        out = str(tmp_path / "sim.csv")
        code = main(self.HIT_ARGS + ["--seed", "5", "--out", out])
        assert code == 1
        assert "over 5 starts) = False" in capsys.readouterr().out

class TestVerify:
    def test_shop_defaults_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--builtin", "shop", "--range", "60",
                     "--trunc", "25", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["shop_conditions"]["all_pass"] is True
        assert doc["irreducibility"]["irreducible"] is True
        assert doc["growth_drift"]["status"] == "holds-on-checked-range"

    def test_finite_model_basic_checks(self, decoupled_path, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--model", decoupled_path, "--range", "3",
                     "--trunc", "3", "--out", str(out)])
        assert code == 0


    def test_default_range_clamped_to_finite_model(self, tmp_path):
        # every row reaches every state, so the anchor-row check holds
        model = random_game(np.random.default_rng(73), n_states=30,
                            extra_edge_prob=1.0)
        path = tmp_path / "game30.json"
        save_model(model, path)
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["checked_range"] == [1, 30]

    def test_shop_weight_overflow_fails_with_message(self, tmp_path, capsys):
        # W(i) = exp(theta i) itself overflows from state 2840 on
        out = tmp_path / "verify.json"
        code = main(["verify", "--builtin", "shop", "--range", "2841",
                     "--out", str(out)])
        assert code == 1
        assert "not finite in double precision, first at state 2803" in (
            capsys.readouterr().out)
        doc = json.loads(out.read_text())
        assert doc["growth_drift"]["status"] == "violated-at"
        assert doc["killed_drift"]["status"] == "violated-at"


    def test_shop_verify_bit_identical_to_recorded_digest(self, tmp_path):
        # the shop-solve benchmark's verify; recorded with the condition
        # displays summed entry by entry over per-pair shop rows
        out = tmp_path / "verify.json"
        assert main(["verify", "--builtin", "shop", "--range", "1000",
                     "--trunc", "320", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ee8830d7bc8577a9f148d36ca6b5e1e349ea95f615b34cb67563ddf5fd400d2e")


class TestTableModelFiles:
    # sha256 of the verify and solve artifacts on the saved digest game,
    # recorded with the dict-based loader (verify fails the anchor-row
    # check and solve detects a cycle: both exit 1)
    GOLDEN = {
        "verify": ["--range", "50", "--trunc", "50"],
        "solve": ["--trunc", "50"],
    }
    DIGESTS = {
        "verify": "63b058c32130860c8532a4834ecc085496d121b289819ab500a929a3899d2493",
        "solve": "99ccd10102838a48ec8317d39fe191d9c9ca5faf4d52026363b3df2846707b1d",
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_artifacts_bit_identical_to_recorded_digests(self, command,
                                                         tmp_path):
        path = tmp_path / "game.json"
        save_model(digest_game(), path)
        out = tmp_path / "out.json"
        assert main([command, "--model", str(path), "--out", str(out)]
                    + self.GOLDEN[command]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            self.DIGESTS[command])

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_nan_index_exits_two_naming_entry(self, command, tmp_path,
                                              capsys):
        doc = {"states": 2, "rates": [[1, 0, 0, 2, 1.0],
                                      [2, 0, float("nan"), 1, 1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main([command, "--model", str(path), "--trunc", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rate entry [2, 0, nan, 1, 1.0]" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_float_indices_give_the_same_artifact(self, decoupled_path,
                                                  tmp_path):
        doc = json.loads(open(decoupled_path).read())
        for key in ("rates", "costs"):
            doc[key] = [[float(x) for x in e] for e in doc[key]]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(doc))
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for model, out in zip((decoupled_path, path), outs):
            assert main(["solve", "--model", str(model), "--trunc", "3",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("doc, field", [
        ({"states": 2.7}, "states"), ({"states": "2"}, "states"),
        ({"states": 2.0}, "states"), ({"states": True}, "states"),
        ({"states": None}, "states"), ({}, "states"),
        ({"states": 10**29}, "states"),
        ({"states": 2, "anchor": 1.0}, "anchor"),
        ({"states": 2, "anchor": "1"}, "anchor"),
        ({"states": 2, "anchor": False}, "anchor"),
        ({"lazy": "shop", "anchor": 1.0}, "anchor"),
    ])
    def test_non_integer_or_huge_state_fields_exit_two(self, doc, field,
                                                       tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, "rates": [], "costs": []}
                                   if "lazy" not in doc else doc))
        out = tmp_path / "out.json"
        start = time.monotonic()
        assert main(["verify", "--model", str(path), "--out", str(out)]) == 2
        assert time.monotonic() - start < 1.0  # 10**29 states: no state loop
        err = capsys.readouterr().err
        assert f"model field '{field}' must be an integer" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture
def session(monkeypatch):
    """An empty session slot, and the models that ``load_model`` returns
    while the test runs, in call order."""
    monkeypatch.setattr(cli, "_session", None)
    loaded = []

    def counting_load(path):
        loaded.append(load_model(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_model", counting_load)
    return loaded


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSessionModel:
    """Consecutive commands in one process reuse the model of an unchanged
    source and write the bytes of a fresh process."""

    # the golden digests of TestSolve, TestVerify and TestTableModelFiles
    WIDE_SOLVE = "066142cdaf7f4a842fd0c62f9fd44a490ca496a25e38a4b6518fa5091b420f32"
    SHOP_SOLVE = "eabd2f77cd8933a3bb9fce1844bf9b694a18aa397d820a49c41bce3ae9dcd31f"
    SHOP_VERIFY = "ee8830d7bc8577a9f148d36ca6b5e1e349ea95f615b34cb67563ddf5fd400d2e"
    DIGEST_GAME = TestTableModelFiles.DIGESTS

    def test_verify_then_solve_wide_game_loads_once(self, session, tmp_path):
        path = tmp_path / "wide.json"
        bench_inputs().wide_game(1, 0).save(path)
        out = tmp_path / "out.json"
        assert main(["verify", "--model", str(path), "--range", "300",
                     "--trunc", "300", "--out", str(out)]) == 0
        assert main(["solve", "--model", str(path), "--trunc", "300",
                     "--out", str(out)]) == 0
        assert _sha(out) == self.WIDE_SOLVE
        assert len(session) == 1
        assert cli._session[1] is session[0]

    def test_same_size_rewrite_loads_the_new_model(self, session, tmp_path):
        doc = {"states": 2, "rates": [[1, 0, 0, 2, 1.0], [2, 0, 0, 1, 2.0]],
               "costs": [[1, 1, 0, 0, 0.2], [2, 1, 0, 0, 0.5]]}
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        stamp = os.stat(path)
        outs = [tmp_path / f"{k}.json" for k in range(3)]
        assert main(["solve", "--model", str(path), "--trunc", "2",
                     "--out", str(outs[0])]) == 0
        text = path.read_text()
        path.write_text(text.replace("0.2", "0.7"))
        assert len(path.read_text()) == len(text)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert main(["solve", "--model", str(path), "--trunc", "2",
                     "--out", str(outs[1])]) == 0
        assert len(session) == 2
        cli._session = None  # a fresh session on the rewritten file
        assert main(["solve", "--model", str(path), "--trunc", "2",
                     "--out", str(outs[2])]) == 0
        assert outs[1].read_bytes() == outs[2].read_bytes()
        assert outs[0].read_bytes() != outs[1].read_bytes()

    @pytest.mark.parametrize("bad", [
        '{"states": 2, "rates": [',
        json.dumps({"states": 2, "rates": [[1, 0, 0, 2, 1.0],
                                           [2, 0, float("nan"), 1, 1.0]]}),
    ], ids=["bad json", "bad index"])
    def test_failed_load_leaves_no_entry(self, bad, session, tmp_path):
        good, broken = tmp_path / "game.json", tmp_path / "bad.json"
        save_model(digest_game(), good)
        broken.write_text(bad)
        out = tmp_path / "out.json"
        args = TestTableModelFiles.GOLDEN
        assert main(["verify", "--model", str(good), "--out", str(out)]
                    + args["verify"]) == 1
        assert cli._session is not None
        assert main(["solve", "--model", str(broken), "--trunc", "2",
                     "--out", str(out)]) == 2
        assert cli._session is None
        assert main(["solve", "--model", str(good), "--out", str(out)]
                    + args["solve"]) == 1
        assert _sha(out) == self.DIGEST_GAME["solve"]
        assert len(session) == 2  # the good file was loaded again

    def test_file_rewritten_during_the_load_is_not_kept(self, monkeypatch,
                                                        tmp_path):
        path = tmp_path / "game.json"
        save_model(digest_game(), path)
        first = path.read_bytes()
        monkeypatch.setattr(cli, "_session", None)

        def load_then_rewrite(p):
            model = load_model(p)
            path.write_bytes(first.replace(b"1", b"2", 1))
            return model

        monkeypatch.setattr(cli, "load_model", load_then_rewrite)
        assert main(["verify", "--model", str(path), "--out",
                     str(tmp_path / "out.json"),
                     *TestTableModelFiles.GOLDEN["verify"]]) == 1
        assert cli._session is None

    def test_builtin_and_model_files_alternate(self, session, tmp_path):
        game = tmp_path / "game.json"
        save_model(digest_game(), game)
        out = tmp_path / "out.json"
        shop = ["--builtin", "shop", "--out", str(out)]
        args = TestTableModelFiles.GOLDEN
        runs = [
            (["verify", *shop, "--range", "1000", "--trunc", "320"], 0,
             self.SHOP_VERIFY),
            (["verify", "--model", str(game), "--out", str(out),
              *args["verify"]], 1, self.DIGEST_GAME["verify"]),
            (["solve", *shop, "--trunc", "320"], 0,
             self.SHOP_SOLVE),
            (["solve", "--model", str(game), "--out", str(out),
              *args["solve"]], 1, self.DIGEST_GAME["solve"]),
        ]
        for argv, code, digest in runs:
            assert main(argv) == code
            assert _sha(out) == digest
        assert len(session) == 2
        assert cli._session[0] != "shop"

    def test_pipe_is_read_once_and_not_kept(self, session, tmp_path):
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        text = json.dumps(model_to_dict(matching_pennies())).encode()
        path = tmp_path / "pennies.json"
        path.write_bytes(text)
        outs = [tmp_path / "file.json", tmp_path / "pipe.json"]
        args = ["solve", "--trunc", "1", "--out"]
        assert main([*args, str(outs[0]), "--model", str(path)]) == 1
        read, write = os.pipe()
        with open(write, "wb") as fh:
            fh.write(text)  # fits in the pipe's buffer
        try:
            assert main([*args, str(outs[1]), "--model",
                         f"/dev/fd/{read}"]) == 1
        finally:
            os.close(read)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert cli._session is None
        assert len(session) == 2

    @pytest.mark.parametrize("previous", ["shop", "file"])
    def test_previous_model_gone_before_the_next_load(self, previous,
                                                      monkeypatch, tmp_path):
        # freed by reference counting alone: no collector runs in between
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(digest_game(), a)
        save_model(matching_pennies(), b)
        monkeypatch.setattr(cli, "_session", None)
        first = (["--builtin", "shop"] if previous == "shop"
                 else ["--model", str(a)])
        out = str(tmp_path / "out.json")
        assert main(["verify", *first, "--range", "20", "--trunc", "20",
                     "--out", out]) in (0, 1)
        held = weakref.ref(cli._session[1])
        alive = []

        def load(path):
            alive.append(held() is not None)
            return load_model(path)

        monkeypatch.setattr(cli, "load_model", load)
        gc.disable()
        try:
            assert main(["solve", "--model", str(b), "--trunc", "1",
                         "--out", out]) == 1
        finally:
            gc.enable()
        assert alive == [False]


# a JSON value of any type, small
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 8),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=2), st.lists(st.integers(-1, 3), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 2),
                                  max_size=2))
_SHOP_FIELDS = ["action_max", "boundary_row", "boundary_tail_tol", "buy_rate",
                "coupled_states", "fee1", "fee2", "n_actions", "sell_rate",
                "theta"]


@st.composite
def _model_documents(draw):
    """Small model documents: a table of up to 6 states whose entries
    reach just past the model and whose values may be of any type, or a
    shop with parameters of any value; then perhaps one field replaced by
    a value of another JSON type."""
    if draw(st.booleans()):
        params = draw(st.dictionaries(
            st.sampled_from(_SHOP_FIELDS),
            st.one_of(st.floats(), st.integers(-2, 6), _JUNK), max_size=3))
        doc = {"lazy": "shop", "shop_params": params}
        n = 5
    else:
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 2))
        value = st.one_of(st.floats(-1.0, 4.0), st.sampled_from(
            [0.0, -0.0, float("nan"), float("inf"), -1e-13]), _JUNK)
        entry = st.one_of(st.tuples(st.integers(0, n + 1),
                                    st.integers(-1, m), st.integers(-1, m),
                                    st.integers(0, n + 1), value).map(list),
                          st.lists(_JUNK, max_size=6))
        grid = list(map(float, range(m)))
        doc = {"states": n,
               "actions": {"1": {"default": grid}, "2": {"default": grid}},
               "rates": draw(st.lists(entry, max_size=3 * n)),
               "costs": draw(st.lists(entry, max_size=n))}
    field = draw(st.sampled_from([None, *doc]))
    if field is not None:
        doc[field] = draw(_JUNK)
    return doc, n


class TestAnyModelDocument:
    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(case=_model_documents())
    def test_verify_and_solve_exit_with_a_code_never_a_traceback(
            self, case, tmp_path, capsys):
        doc, n = case
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for command in (["verify", "--range", str(n)], ["solve"]):
            code = main(command + ["--model", str(path), "--trunc", str(n),
                                   "--max-rounds", "5",
                                   "--out", str(tmp_path / "out")])
            assert code in (0, 1, 2)
            assert "Traceback" not in capsys.readouterr().err
        if code == 0:  # solve's
            # a gap is the pair's eigenvalue less the best response's, never
            # below 0 exactly; each midpoint is within tol / 2 plus the
            # rounding floor (itself at most tol) of its eigenvalue
            doc = json.loads((tmp_path / "out").read_text())
            assert min(doc["certify"]["delta"]) >= -3 * doc["tol"]


class TestConfigHandling:
    def test_config_file_with_flag_override(self, decoupled_path, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"model": decoupled_path, "trunc": "3",
                                    "eps": 1e-6, "out": str(tmp_path / "a.json")}))
        out = str(tmp_path / "b.json")
        code = main(["solve", "--config", str(conf), "--out", out])
        assert code == 0
        assert json.loads(open(out).read())["eps"] == 1e-6

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"bogus": 1}))
        assert main(["solve", "--config", str(conf)]) == 2

    def test_missing_model_is_config_error(self):
        assert main(["solve"]) == 2
        assert main(["solve", "--model", "x.json", "--builtin", "shop"]) == 2

    def test_bad_values_rejected(self, decoupled_path):
        assert main(["solve", "--model", decoupled_path, "--eps", "-1"]) == 2
        assert main(["solve", "--model", decoupled_path, "--player", "3"]) == 2
        assert main(["ladder", "--builtin", "shop", "--trunc", "0"]) == 2

    @pytest.mark.parametrize("command", [
        ["solve", "--trunc", "2"],
        ["ladder", "--trunc", "1,2"],
        ["simulate", "--horizon", "1", "--paths", "20"],
        ["verify"],
    ])
    def test_rate_into_missing_state_rejected(self, command, tmp_path, capsys):
        doc = {
            "states": 2,
            "actions": {"1": {"default": [0.0]}, "2": {"default": [0.0]}},
            "rates": [[1, 0, 0, 2, 1.0], [2, 0, 0, 1, 1.0],
                      [2, 0, 0, 3, 0.5]],
            "costs": [[1, 1, 0, 0, 0.2]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert main(command + ["--model", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "rate entry [2, 0, 0, 3, 0.5]" in err
        assert "target state 3" in err

    BAD_ENTRIES = {
        "negative rate": ("rates", [1, 0, 0, 2, -0.5],
                          "negative off-diagonal rate"),
        "nan rate": ("rates", [1, 0, 0, 2, float("nan")],
                     "non-finite off-diagonal rate"),
        "negative cost": ("costs", [1, 2, 0, 0, -1.0],
                          "negative cost (player 1)"),
        "nan cost": ("costs", [1, 2, 0, 0, float("nan")],
                     "non-finite cost (player 1)"),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
    @pytest.mark.parametrize("command", [
        ["solve", "--trunc", "3"],
        ["ladder", "--trunc", "2,3"],
        ["simulate", "--horizon", "1", "--paths", "20"],
        ["verify"],
    ])
    def test_invalid_rates_and_costs_rejected(self, bad, command, tmp_path,
                                              capsys):
        key, entry, kind = self.BAD_ENTRIES[bad]
        doc = {
            "states": 3,
            "actions": {"1": {"default": [0.0]}, "2": {"default": [0.0]}},
            "rates": [[1, 0, 0, 2, 1.0], [1, 0, 0, 3, 1.0],
                      [2, 0, 0, 3, 1.0], [3, 0, 0, 1, 1.0]],
            "costs": [[1, 1, 0, 0, 0.2], [1, 2, 0, 0, 0.4]],
        }
        doc[key][0 if key == "rates" else 1] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(command + ["--model", str(path), "--out", str(out)])
        if command[0] == "verify":
            assert code == 1
            report = json.loads(out.read_text())["model_invariants"]
            assert not report["ok"]
            assert report["violations"][0].startswith(kind)
        else:
            assert code == 2
            assert f"invalid model: {kind} at state" in capsys.readouterr().err

    def test_round_trip_assembles_identically(self, decoupled_path, tmp_path):
        model = load_model(decoupled_path)
        save_model(model, tmp_path / "again.json")
        back = load_model(tmp_path / "again.json")
        trunc = truncate(model, 3)
        A0 = assemble(model, trunc, uniform_strategy(model, 1),
                      uniform_strategy(model, 2), 1)
        A1 = assemble(back, trunc, uniform_strategy(back, 1),
                      uniform_strategy(back, 2), 1)
        assert np.array_equal(A0.A.toarray(), A1.A.toarray())
        assert A0.alpha == A1.alpha
