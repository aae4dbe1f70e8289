"""The benchmark's tracer wraps library functions by name, in the module
that calls them.  A refactor that moves or renames one of those names
would otherwise only show as a layer reading 0 in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.POINTS
    missing = [f"lttight.{module}.{attr}" for module, attr, _ in tracer.POINTS
               if not callable(getattr(importlib.import_module(
                   f"lttight.{module}"), attr, None))]
    assert missing == []
