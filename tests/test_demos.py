"""Smoke test: the demos run to the end in process and print their tour."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# 04_simulation.py is left out: its Monte-Carlo runs take about 9 s, and
# tests/test_simulate.py covers the estimators it calls
@pytest.mark.parametrize("name", ["01_shop_model.py", "02_eigenvalue_ladder.py",
                                  "03_nash_equilibrium.py",
                                  "05_assumption_checks.py"])
def test_demo_runs_to_the_end(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
