"""Every function the benchmark tracer wraps by name must still exist.

perfbench/tracer.py wraps tensq functions from outside the package, so
renaming or deleting one would otherwise only surface in a traced
benchmark run.  The module is loaded by path; install() is not called.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve_to_callables():
    tracer = load_tracer()
    for table in (tracer.SPANNED, tracer.AGGREGATED):
        for layer, attrs in table.items():
            target = importlib.import_module(f"tensq.{layer}")
            for attr in attrs:
                obj = target
                for part in attr.split("."):
                    obj = getattr(obj, part, None)
                assert callable(obj), f"tensq.{layer}.{attr}"
