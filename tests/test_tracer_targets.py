"""The benchmark tracer's targets must name live tvartop callables.

``perfbench/tracer.py`` wraps each ``(module, attribute path)`` of its
``TARGETS`` by rebinding module attributes; a rename in the package would
make ``--trace 1`` fail.  The tracer file is loaded by path, unchanged.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for modname, path in tracer.TARGETS:
        obj = importlib.import_module(f"tvartop.{modname}")
        for part in path.split("."):
            assert hasattr(obj, part), f"tvartop.{modname}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"tvartop.{modname}.{path}"


def test_polyhedral_kernel_runs_the_traced_elimination():
    # the exact linear algebra rows count these calls, so polyhedron must
    # call the exactla functions themselves
    from tvartop import exactla, polyhedron

    assert polyhedron.rref is exactla.rref
    assert polyhedron.rank_and_kernel is exactla.rank_and_kernel
