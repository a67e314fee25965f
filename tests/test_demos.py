"""Run the demos that exercise the library's public API, in process.

Each demo runs as a script and must print the line that states its
result.  `propagator_convergence.py` (about 12 s) and `gap_grid_check.py`
stay manual runs.
"""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


# demo -> the line (or part of it) that states its result
EXPECTED = {
    "condensate_profiles_1d": "growth exponent 2.974 (limit 3)",
    "saturation_and_memory": "verdicts: unit mean -> vanishes;  zero mean -> converges-positive",
    "fock_oracle_tour": "monotone: True",
    "thermal_equilibrium_limit": "R =    80: density(0) = 0.14275584",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMO_DIR / f"{demo}.py"), run_name="__main__")
    assert EXPECTED[demo] in capsys.readouterr().out
