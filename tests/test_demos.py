"""Run the demos that exercise the library's public API, in process.

Each demo runs as a script and must print the line that states its
result.  `gap_grid_check.py` runs on one branch at lemma31's own grids.
"""

import pathlib
import runpy
import sys

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


def test_gap_grid_check_reproduces_lemma31s_gaps(monkeypatch, capsys):
    # at --dx default the demo's header says it reproduces lemma31's gaps:
    # these are the c = 1, t = 0.25 gaps of perfbench/reference/lemma31.json
    monkeypatch.setattr(sys, "argv", ["gap_grid_check.py", "--branch", "1,0.25"])
    runpy.run_path(str(DEMO_DIR / "gap_grid_check.py"), run_name="__main__")
    assert "  gaps   0.00403061 0.00162817 0.000723477 0.000335868 0.000155215\n" in capsys.readouterr().out
