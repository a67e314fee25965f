"""The benchmark tracer still finds every library function it wraps.

`perfbench/tracer.py` wraps its TARGETS by name, and `Tracer.install()`
raises AttributeError on a name the library no longer has, which would end
a traced benchmark pass.  This installs the tracer and takes it out again.
The test reads `perfbench/` and writes nothing.
"""

import importlib.util
import pathlib
import sys

import thermolim  # noqa: F401  (loads every submodule the tracer patches)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def _targets():
    """Every (owner, attribute) a tracer target names, with its current value."""
    out = {}
    for targets in tracer.TARGETS.values():
        for target in targets:
            owner = sys.modules["thermolim." + target[0]]
            for name in target[1:-1]:
                owner = getattr(owner, name)
            out[(owner, target[-1])] = vars(owner)[target[-1]]
    return out


def _namespaces():
    """Every attribute of every thermolim module."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "thermolim" or name.startswith("thermolim.")
        for attr, value in vars(module).items()
    }


def test_the_tracer_wraps_every_target_and_restores_it():
    before, namespaces = _targets(), _namespaces()
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = _targets()
        assert all(wrapped[key] is not value for key, value in before.items())
        assert all(wrapped[key].__wrapped__ is value for key, value in before.items())
    finally:
        t.uninstall()
    assert _targets() == before
    after = _namespaces()
    assert all(after[key] is value for key, value in namespaces.items())
