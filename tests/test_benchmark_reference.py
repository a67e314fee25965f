"""Every benchmark experiment still reproduces its stored reference report.

The benchmark (`perfbench/`) counts a run as failed when its report leaves
the stored reference; this runs the same comparison in the suite, for every
workload label at its workload config and the default seed.  The test
reads `perfbench/` and writes nothing.
"""

import importlib.util
import pathlib

import pytest

from thermolim import lab

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load("reference")
workloads = _load("workloads")

ENTRIES = [
    entry
    for workload in workloads.WORKLOADS
    for entry in workloads.entries(workload, workloads.DEFAULT_SEED)
]


@pytest.mark.parametrize("label, experiment, config", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_report_matches_the_stored_reference(label, experiment, config):
    report = lab.run(experiment, config)
    assert reference.compare(reference.load(label), reference.capture(report)) == []
