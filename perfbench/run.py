"""Session benchmark for rsgame.

    python3 perfbench/run.py --workload shop-solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
Each workload is a closed loop with one client: one worker process runs
one operation at a time through ``rsgame.cli.main`` and waits for it to
end before the next is sent.  This process makes every input and oracle
reference, checks each operation's output against the oracles in
``oracle.py`` before accepting it, and prints one JSON object as its last
line of output.

* ``--trace 0``: ``op_s`` (median wall time of one operation),
  ``setup_s`` (median over ``SETUPS`` fresh worker processes of the time
  from process start until ``rsgame`` is imported and ready) and
  ``peak_rss_mb`` (high-water RSS of the worker that ran the operations).
* ``--trace 1``: the per-layer metrics of ``layertrace.py``, each the
  median over the run's operations; the spans go to ``.bench_out``.

``--workload all`` runs the three workloads in turn and prints one line
per workload.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import shutil
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5

SHOP_TRUNC = 320
SHOP_RANGE = 1000
SIM_HORIZON = 150.0
SIM_PATHS = 2000
SIM_TRUNC = 40
SIM_TARGETS = (1, 2, 3, 4, 5)
SIM_STARTS = (6, 7, 8, 9, 10)
EPS = 1e-6  # rsgame's default --eps, which the solve commands use


class Worker:
    """One worker process, with the time it took to become ready."""

    def __init__(self, trace_path=None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace_path:
            cmd += ["--trace", str(trace_path)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        ready = self._read()
        self.setup_s = time.perf_counter() - start
        if not ready.get("ready"):
            raise RuntimeError(f"worker did not start: {ready}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def call(self, request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        answer = self.call({"end": True})
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)
        return answer

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# workloads: each makes operation k's commands and checks the outputs
# ---------------------------------------------------------------------------

def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _fresh(path) -> str:
    """An output path with no file left from an earlier operation."""
    path.unlink(missing_ok=True)
    return str(path)


class ShopSolve:
    """verify, then solve, on the built-in shop at truncation 320."""

    def __init__(self, seed, work):
        self.work = work
        self.game = oracle.shop_dense_game(SHOP_TRUNC)
        self.accepted = {}  # certificate strategies -> problems found

    def commands(self, k):
        return [["verify", "--builtin", "shop", "--range", str(SHOP_RANGE),
                 "--trunc", str(SHOP_TRUNC), "--out", _fresh(self.work / "verify.json")],
                ["solve", "--builtin", "shop", "--trunc", str(SHOP_TRUNC),
                 "--out", _fresh(self.work / "solve.json")]]

    def check(self, answer):
        codes = answer["codes"]
        problems = oracle.check_verify(codes[0], _read_json(self.work / "verify.json"),
                                       SHOP_RANGE, SHOP_TRUNC, shop=True)
        payload = _read_json(self.work / "solve.json")
        key = json.dumps([codes[1], payload.get("certificate")], sort_keys=True)
        if key not in self.accepted:
            self.accepted[key] = oracle.check_solve(self.game, codes[1], payload, EPS)
        return problems + self.accepted[key]


class WideGame:
    """verify, then solve, on a fresh seeded finite game per operation."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.game = None

    def commands(self, k):
        self.game = inputs.wide_game(self.seed, k)
        path = self.work / "wide-game.json"
        self.game.save(path)
        n = str(self.game.n)
        return [["verify", "--model", str(path), "--range", n, "--trunc", n,
                 "--out", _fresh(self.work / "verify.json")],
                ["solve", "--model", str(path), "--trunc", n,
                 "--out", _fresh(self.work / "solve.json")]]

    def check(self, answer):
        game = self.game
        codes = answer["codes"]
        problems = oracle.check_verify(codes[0], _read_json(self.work / "verify.json"),
                                       game.n, game.n, shop=False)
        return problems + oracle.check_solve(
            oracle.finite_dense_game(game), codes[1],
            _read_json(self.work / "solve.json"), EPS)


class ShopSimulate:
    """Growth estimate plus hitting check on the shop, fresh --seed each."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.ref = oracle.simulate_reference(SIM_HORIZON, SIM_PATHS, SIM_TRUNC,
                                             SIM_TARGETS, SIM_STARTS)

    def commands(self, k):
        join = lambda xs: ",".join(map(str, xs))
        _fresh(self.work / "simulate.csv.hitting.csv")
        return [["simulate", "--builtin", "shop", "--horizon", repr(SIM_HORIZON),
                 "--paths", str(SIM_PATHS), "--batches", "20", "--workers", "2",
                 "--trunc", str(SIM_TRUNC), "--hitting",
                 "--hit-targets", join(SIM_TARGETS), "--hit-starts", join(SIM_STARTS),
                 "--seed", str(self.seed * 100_000 + k),
                 "--out", _fresh(self.work / "simulate.csv")]]

    def check(self, answer):
        with open(self.work / "simulate.csv") as fh:
            growth = list(csv.reader(fh))[-1]
        with open(self.work / "simulate.csv.hitting.csv") as fh:
            hitting = list(csv.DictReader(fh))
        return oracle.check_simulate(self.ref, answer["codes"][0],
                                     answer["stdout"][0], growth, hitting)


WORKLOADS = {"shop-solve": ShopSolve, "wide-game": WideGame,
             "shop-simulate": ShopSimulate}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace) -> dict:
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work)

    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            probe = Worker()
            setups.append(probe.setup_s)
            probe.close()
    trace_path = OUT / f"trace-{name}-{seed}.jsonl" if trace else None
    worker = Worker(trace_path)
    setups.append(worker.setup_s)

    attempted = failed = 0
    problems = []
    op_times, layers, cycles = [], [], []
    try:
        start = time.perf_counter()
        # whole operations only: start one while it is expected to end in time
        while not cycles or (time.perf_counter() - start
                             + statistics.median(cycles) <= seconds):
            begun = time.perf_counter()
            answer = worker.call({"argv": workload.commands(attempted)})
            attempted += 1
            if "error" in answer:
                failed += 1
                print(f"{name} op {attempted}: raised\n{answer['error']}", file=sys.stderr)
            else:
                found = workload.check(answer)
                problems += [f"op {attempted}: {p}" for p in found]
                op_times.append(answer["op_s"])
                layers.append(answer.get("layers"))
            cycles.append(time.perf_counter() - begun)
        peak_rss_mb = worker.close()["peak_rss_mb"]
    finally:
        worker.kill()
        shutil.rmtree(work)

    if not op_times:
        raise SystemExit(f"{name}: every operation raised; nothing was measured")
    for p in problems:
        print(f"{name}: WRONG {p}", file=sys.stderr)
    print(f"{name}: seed {seed}, {attempted} ops, {failed} failed, op times "
          + " ".join(f"{t:.3f}" for t in op_times), file=sys.stderr)
    if trace:
        units = _per_layer_units()
        metrics = {key: {"value": statistics.median(l[key] for l in layers),
                         "unit": units[key]} for key in layers[0]}
        print(f"{name}: traced op_s {statistics.median(op_times):.4f}", file=sys.stderr)
    else:
        metrics = {"op_s": {"value": statistics.median(op_times), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _per_layer_units() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rsgame" / "cli.py").is_file():
        print(f"no rsgame sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the oracles use the shop's closed forms
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
