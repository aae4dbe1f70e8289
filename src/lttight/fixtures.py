"""Built-in example programs with their assumption sets.

``moving(k)`` (also accepted as ``M(k)``) is the commonsense
moving-objects domain parameterized by the step bound k, with step
constants named ``s0 .. sk``.  The predicates object/1, place/1 and
move/3 are extensional; step/1, next/2 and at/3 are intensional.
"""

from __future__ import annotations

import re

from .parser import parse_formula, parse_program
from .syntax import Program

# Largest step bound k that ``moving(k)`` accepts.  The program has
# k(k+1)/2 unique-name constraints, and the chain commands grow faster
# still: at k = 50, ``check-gamma-tight --n 1`` takes 0.65 s and 33 MB
# before its enumeration guard answers, and ``export-tptp --n 1`` 0.58 s;
# at k = 100 they took 8.0 s and 76 MB, and 4.7 s and 106 MB (whole
# processes, 2-core Xeon VM, Python 3.11).
MAX_STEP_BOUND = 50


class Fixture:
    """A built-in program and its assumptions Gamma.  Gamma is parsed
    the first time it is read: most commands never read it."""

    __slots__ = ("name", "program", "_gamma_texts", "_gamma")

    def __init__(self, name: str, program: Program, gamma_texts):
        self.name = name
        self.program = program
        self._gamma_texts = gamma_texts
        self._gamma = None

    @property
    def gamma(self) -> tuple:
        """The closed formulas of Gamma."""
        if self._gamma is None:
            self._gamma = tuple(parse_formula(t) for t in self._gamma_texts)
        return self._gamma


_BASE_FIXTURES = {
    # p(a), q(b), p(x) <- q(x)
    "prog1": ("p(a). q(b). p(X) :- q(X).", ()),
    # p(x) <- q(x), q(a) <- p(b)
    "prog2": ("p(X) :- q(X). q(a) :- p(b).", ()),
    # prog2's rules plus unique-name constraints
    "prog4": ("p(a) :- p(b). q(c) :- q(d). :- a = b. :- c = d.", ()),
    # one positive and one negated occurrence of p in the same body
    "ex1": ("p(a,b). q(X,Y) :- p(Y,X), not p(X,Y).", ()),
    # a three-edge path p -> q -> r -> s
    "ex2": ("p(X) :- q(X). q(X) :- r(X). r(X) :- s(X).", ()),
    # tight relative to the empty set despite the p-loop
    "example1": ("p(a) :- p(X), X != a.", ()),
    "example2": ("p(a) :- p(b). q(c) :- q(d).", ("a != b", "c != d")),
    "example3": ("p(X) :- q(X). q(a) :- p(b).", ("a != b",)),
}

_MOVING_RE = re.compile(r"^(?:m|moving)\((\d+)\)$", re.IGNORECASE)


def _step(i: int) -> str:
    return f"s{i}"


def moving_program_text(k: int) -> str:
    """The moving-objects program at step bound k."""
    if k < 0:
        raise ValueError("step bound must be nonnegative")
    if k > MAX_STEP_BOUND:
        raise ValueError(f"step bound {k} exceeds the limit of "
                         f"{MAX_STEP_BOUND}")
    lines = [
        "#extensional object/1.",
        "#extensional place/1.",
        "#extensional move/3.",
    ]
    for i in range(k + 1):
        lines.append(f"step({_step(i)}).")
    for i in range(k):
        lines.append(f"next({_step(i)}, {_step(i + 1)}).")
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            lines.append(f":- {_step(i)} = {_step(j)}.")
    lines.extend([
        ":- at(X, Y, Z), not (object(X) & place(Y) & step(Z)).",
        ":- move(X, Y, Z), not (object(X) & place(Y) & step(Z)).",
        ":- at(X, Y1, Z), at(X, Y2, Z), Y1 != Y2.",
        ":- object(X), step(Z), not exists Y (at(X, Y, Z)).",
        "at(X, Y, U) :- move(X, Y, Z), next(Z, U).",
        f"{{at(X, Y, {_step(0)})}} :- object(X), place(Y).",
        "{at(X, Y, U)} :- at(X, Y, Z), next(Z, U).",
    ])
    return "\n".join(lines)


def moving_constraint_formulas(k: int) -> list:
    """The constraint content as positive sentences: unique names,
    argument typing, uniqueness and existence of location.  An
    interpretation satisfies these iff it violates no constraint of the
    moving-objects program."""
    return [parse_formula(t) for t in _moving_constraint_texts(k)]


def _moving_constraint_texts(k: int) -> list:
    texts = []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            texts.append(f"{_step(i)} != {_step(j)}")
    texts.extend([
        "forall X (forall Y (forall Z ("
        "at(X, Y, Z) -> object(X) & place(Y) & step(Z))))",
        "forall X (forall Y (forall Z ("
        "move(X, Y, Z) -> object(X) & place(Y) & step(Z))))",
        "forall X (forall Y1 (forall Y2 (forall Z ("
        "at(X, Y1, Z) & at(X, Y2, Z) -> Y1 = Y2))))",
        "forall X (forall Z ("
        "object(X) & step(Z) -> exists Y (at(X, Y, Z))))",
    ])
    return texts


def moving_successor_state_formulas(k: int) -> list:
    """Explicit definitions of step and next plus the successor-state
    characterization of at, as closed formulas."""
    step_cases = " | ".join(f"Z = {_step(i)}" for i in range(k + 1))
    texts = [f"forall Z (step(Z) <-> {step_cases})"]
    if k == 0:
        texts.append("forall Z (forall U (next(Z, U) <-> false))")
    else:
        next_cases = " | ".join(
            f"(Z = {_step(i)} & U = {_step(i + 1)})" for i in range(k))
        texts.append(f"forall Z (forall U (next(Z, U) <-> {next_cases}))")
    for i in range(k):
        texts.append(
            f"forall X (forall Y (at(X, Y, {_step(i + 1)}) <-> "
            f"move(X, Y, {_step(i)}) | "
            f"(at(X, Y, {_step(i)}) & not exists W (move(X, W, {_step(i)})))))")
    return [parse_formula(t) for t in texts]


def builtin_fixture(name: str) -> Fixture:
    """Look up a built-in program by name; ``moving(k)``/``M(k)`` builds
    the moving-objects program at step bound k."""
    key = name.strip()
    m = _MOVING_RE.match(key)
    if m:
        # a long k is refused here: int() refuses over 4,300 digits itself
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > len(str(MAX_STEP_BOUND)):
            raise ValueError(f"step bound {digits} exceeds the limit of "
                             f"{MAX_STEP_BOUND}")
        k = int(digits)
        return Fixture(f"moving({k})", parse_program(moving_program_text(k)),
                       _moving_constraint_texts(k))
    if key not in _BASE_FIXTURES:
        known = ", ".join(sorted(_BASE_FIXTURES) + ["moving(k)"])
        raise KeyError(f"unknown fixture {name!r}; known: {known}")
    text, gamma_texts = _BASE_FIXTURES[key]
    return Fixture(key, parse_program(text), gamma_texts)


def fixture_names() -> list:
    return sorted(_BASE_FIXTURES)
