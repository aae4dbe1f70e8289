"""Outside-in tracer for lttight.

The library is not instrumented.  Instead, for the length of a traced
pass, the tracer replaces public entry points in the namespace of the
module that calls them (``equiv.is_sm_model``, ``tightness.substitute``,
...) with wrappers that open a span around each call.  Spans nest on a
stack, so every span knows its parent and a span's self time is its
duration minus the time covered by its children.  The recursive
``ground``, ``satisfies`` and ``reduct`` are never wrapped: every
recursive call would become a span.

Statistics are kept in memory, per span name, and harvested by the
caller after each pass.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

MARK = "_bench_span"


class Stat:
    __slots__ = ("calls", "self", "items", "examined", "peak")

    def __init__(self):
        self.calls = 0      # spans closed
        self.self = 0.0     # seconds, children excluded
        self.items = 0      # generator: values yielded; refute: chains
                            # refuted; equiv checks: interpretations checked
        self.examined = 0   # equiv checks: interpretations examined
        self.peak = 0       # is_stable: largest atom set


# (module, attribute, span name).  The module is the one that *calls*
# the function, so the same function can be traced per caller.
POINTS = (
    ("cli", "run", "cli.run"),
    ("cli", "builtin_fixture", "fixtures.build"),
    ("equiv", "builtin_fixture", "fixtures.build"),
    ("equiv", "moving_constraint_formulas", "fixtures.build"),
    ("equiv", "moving_successor_state_formulas", "fixtures.build"),
    ("fixtures", "parse_program", "parser.parse"),
    ("fixtures", "parse_formula", "parser.parse"),
    ("cli", "parse_program", "parser.parse"),
    ("cli", "parse_sentences", "parser.parse"),
    ("cli", "completion", "completion.completion"),
    ("equiv", "completion", "completion.completion"),
    ("tightness", "completion", "completion.completion"),
    ("completion", "desugar", "completion.desugar"),
    ("semantics", "desugar", "completion.desugar"),
    ("tightness", "desugar", "completion.desugar"),
    ("cli", "desugar", "completion.desugar"),
    ("completion", "simplify", "completion.simplify"),
    ("tightness", "simplify", "completion.simplify"),
    ("cli", "check_equivalence", "equiv.check_equivalence"),
    ("cli", "check_proposition3", "equiv.check_proposition3"),
    ("equiv", "satisfies_fo", "equiv.satisfies_fo"),
    ("equiv", "enumerate_interpretations", "equiv.enumerate"),
    ("equiv", "sample_interpretation", "equiv.sample"),
    ("equiv", "is_sm_model", "semantics.is_sm_model"),
    ("cli", "is_sm_model", "semantics.is_sm_model"),
    ("cli", "ground_program", "semantics.ground_program"),
    ("semantics", "ground_program", "semantics.ground_program"),
    ("semantics", "is_stable", "semantics.is_stable"),
    ("cli", "check_gamma_tight", "tightness.check_gamma_tight"),
    ("cli", "chains", "tightness.chains"),
    ("tightness", "chains", "tightness.chains"),
    ("cli", "chain_formula", "tightness.chain_formula"),
    ("tightness", "chain_formula", "tightness.chain_formula"),
    ("tightness", "refute_chain_formula", "tightness.refute"),
    ("tightness", "substitute", "tightness.substitute"),
    ("tightness", "satisfies_fo", "tightness.satisfies_fo"),
    ("tightness", "enumerate_interpretations", "tightness.enumerate"),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.missing = []         # points absent from this version
        self._open = []           # child time of each open span
        self._installed = []      # (module, attribute, original)
        self._gamma_ids = frozenset()

    def drawn(self) -> int:
        """Interpretations the equiv module has enumerated or sampled."""
        return (self.stats["equiv.enumerate"].items
                + self.stats["equiv.sample"].calls)

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, start: float) -> Stat:
        duration = perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += duration
        stat = self.stats[name]
        stat.calls += 1
        stat.self += duration - child
        return stat

    def _call_wrapper(self, fn, name):
        tracer = self
        if name == "equiv.satisfies_fo":
            # Gamma and completion sentences go through the same call;
            # tell them apart by the sentence objects Gamma was given as.
            def span_name(args):
                kind = "gamma" if id(args[1]) in tracer._gamma_ids else "comp"
                return f"{name}.{kind}"
        else:
            def span_name(args):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "equiv.check_equivalence":
                tracer._gamma_ids = frozenset(id(g) for g in args[1])
                drawn = tracer.drawn()
            elif name == "equiv.check_proposition3":
                tracer._gamma_ids = frozenset()
            span = span_name(args)
            tracer._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer._close(span, start)
            if name == "equiv.check_equivalence":
                stat.items += result.checked
                stat.examined += tracer.drawn() - drawn
            elif name == "equiv.check_proposition3":
                # No Gamma filter: every examined interpretation is checked.
                stat.items += result.checked
                stat.examined += result.checked
            elif name == "tightness.refute":
                stat.items += bool(result)
            elif name == "semantics.is_stable":
                stat.peak = max(stat.peak, len(args[1]))
            return result
        return wrapper

    def _generator_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                tracer._open.append(0.0)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(name, start)
                    return
                except BaseException:
                    tracer._close(name, start)
                    raise
                tracer._close(name, start).items += 1
                yield item
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every point; ``modules`` maps short names to modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for mod_name, attr, span in POINTS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._generator_wrapper(original, span)
            else:
                wrapper = self._call_wrapper(original, span)
            setattr(wrapper, MARK, span)
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        self._open.clear()

    def reset(self) -> None:
        self.stats.clear()


def installed_wrappers(modules: dict) -> list:
    """Names of points that still hold a tracer wrapper."""
    return [f"{m}.{a}" for m, a, _ in POINTS
            if hasattr(getattr(modules[m], a, None), MARK)]
