"""Run the demos in-process so that API drift fails the suite.

Demo 05 is left out: it writes its heatmap files next to the script,
and criterion 5 and the CLI tests already cover the heatmap.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

#: A line each demo prints only when its claim holds.
EXPECTED = {
    "01_solving_the_traffic_equations.py": "(agrees: True )",
    "02_conditions_and_classes.py": "spectral verdict: fails, witness A={3}, radius=1",
    "03_solution_census.py": "input rate 1.0: continuum (8 patterns checked)",
    "04_worst_case_iterations.py": "20     211    211=    21",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
