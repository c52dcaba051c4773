"""Smoke test: the benchmark's traced worker runs real operations.

``perfbench/worker.py --trace`` wraps rsgame from outside (``GameModel.row``,
``StationaryStrategy.weights``, ``TwistedMatrix.A`` and ``.alpha``,
``sample_path(...).n_jumps`` and every name in each module's ``__all__``),
so removing or renaming any of them breaks the traced benchmark.  The
worker is started as ``perfbench/run.py`` starts it, with ``src`` on
``PYTHONPATH``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_worker_answers_every_operation(tmp_path):
    shop = ["--builtin", "shop", "--trunc", "20"]
    requests = [
        {"argv": [["verify", *shop, "--range", "20",
                   "--out", str(tmp_path / "verify.json")],
                  ["solve", *shop, "--out", str(tmp_path / "solve.json")]]},
        {"argv": [["simulate", *shop, "--horizon", "5", "--paths", "20",
                   "--batches", "10", "--seed", "1", "--hitting",
                   "--out", str(tmp_path / "simulate.csv")]]},
        {"end": True}]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--trace", str(tmp_path / "trace.json")],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    ready, *answers, end = map(json.loads, proc.stdout.splitlines())
    assert ready == {"ready": True}
    for answer in answers:
        assert "error" not in answer, answer["error"]
        assert answer["layers"]
    assert [a["codes"] for a in answers] == [[0, 0], [0]]
    assert "peak_rss_mb" in end
