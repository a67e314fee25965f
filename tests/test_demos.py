"""Run the demos that exercise the library's public API, in process.

Each demo runs as a script and must print the line that states its
result.  `gap_grid_check.py` stays a manual run.
"""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


# demo -> the line (or part of it) that states its result
EXPECTED = {
    "condensate_profile_3d": "deviation log-log slope: -1.959",
    "condensate_profiles_1d": "growth exponent 2.974 (limit 3)",
    "saturation_and_memory": "verdicts: unit mean -> vanishes;  zero mean -> converges-positive",
    "fock_oracle_tour": "monotone: True",
    "propagator_convergence": "  14   1.5522e-04   3.9858e-04   -5.007",
    "thermal_equilibrium_limit": "R =    80: density(0) = 0.14275584",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMO_DIR / f"{demo}.py"), run_name="__main__")
    assert EXPECTED[demo] in capsys.readouterr().out
