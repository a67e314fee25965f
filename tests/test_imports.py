"""The command-line entry point imports no scipy package it does not use.

The library needs `scipy.linalg` and `scipy.special` only.  Its quadrature
rule and its spline are its own, so `scipy.integrate` (which pulls in
`scipy.optimize`) and `scipy.interpolate` stay out of every run's start-up;
the tests still use them as references.
"""

import os
import pathlib
import subprocess
import sys

import thermolim

SRC = pathlib.Path(thermolim.__file__).resolve().parent.parent
UNUSED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")


def test_cli_import_loads_no_quadrature_spline_or_optimize_package():
    code = (
        "import sys, thermolim.cli\n"
        f"print(sorted(m for m in sys.modules if m.startswith({UNUSED!r})))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
