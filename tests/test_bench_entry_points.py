"""The benchmark's tracer wraps library functions by name, in the module
that calls them.  A refactor that moves or renames one of those names
would otherwise only show as a layer reading 0 in a traced run."""

import ast
import importlib
import importlib.util
from pathlib import Path

from lttight import semantics
from lttight.completion import desugar
from lttight.fixtures import builtin_fixture

from conftest import is_supported, rule_check

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
    ROADMAP item 10 is where the list shrinks, by deleting or retargeting
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
                    "tightness.substitute", "tightness.satisfies_fo"]


def test_the_leaf_calls_the_traced_stability_check(monkeypatch):
    """The tracer's ``semantics.is_stable`` point counts the leaf's
    minimality checks and takes |J| as ``len(args[1])``: ``is_sm_model``
    calls it, by that name and positionally, once on each classical
    model whose every true atom heads a relevant rule instance
    (``conftest.is_supported`` on the whole grounding), with J's atom
    numbers second, and never otherwise.  prog2 adds searched leaves
    that are not stable."""
    calls = []
    original = semantics.is_stable

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(semantics, "is_stable", recording)
    searched = unsupported = non_models = 0
    verdicts = set()
    for name in ("prog1", "ex1", "prog2"):
        prog = builtin_fixture(name).program
        d = desugar(prog)
        tables = semantics.sm_tables(prog)
        bindings = rule_check(tables)
        for m in (1, 2):
            for interp in semantics.enumerate_interpretations(
                    prog.signature, m):
                found = bindings(interp)
                calls.clear()
                verdict = semantics.is_sm_model(tables, interp, found)
                if found is None:
                    non_models += 1
                    assert calls == []
                    continue
                j = {(p, t) for p, ts in interp.extensions.items()
                     for t in ts}
                rules, _ = semantics.ground_program(d, interp)
                if not is_supported(rules, j):
                    unsupported += 1
                    assert calls == [] and verdict is False
                    continue
                searched += 1
                verdicts.add(verdict)
                [(args, kwargs)] = calls
                assert kwargs == {}
                assert len(args[1]) == len(j)
    assert searched > 10 and unsupported > 10 and non_models > 10
    assert verdicts == {True, False}
