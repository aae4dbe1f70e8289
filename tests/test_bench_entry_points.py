"""The benchmark's tracer wraps library functions by name, in the module
that calls them.  A refactor that moves or renames one of those names
would otherwise only show as a layer reading 0 in a traced run."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _points() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.POINTS


def test_every_traced_entry_point_resolves():
    points = _points()
    assert points
    missing = [f"lttight.{module}.{attr}" for module, attr, _ in points
               if not callable(getattr(importlib.import_module(
                   f"lttight.{module}"), attr, None))]
    assert missing == []


def test_idle_traced_entry_points_are_pinned():
    """The points whose name their module only imports or defines and
    never loads, so their metrics always read 0.  A refactor that stops
    a module calling a traced name adds to this list and fails here;
    ROADMAP item 8 is where the list shrinks, by deleting or retargeting
    these points."""
    idle = []
    for module, attr, _ in _points():
        path = importlib.import_module(f"lttight.{module}").__file__
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        if not any(isinstance(node, ast.Name) and node.id == attr
                   and isinstance(node.ctx, ast.Load)
                   for node in ast.walk(tree)):
            idle.append(f"{module}.{attr}")
    assert idle == ["equiv.satisfies_fo", "semantics.ground_program",
                    "semantics.is_stable", "tightness.substitute",
                    "tightness.satisfies_fo"]
