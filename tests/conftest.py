"""Shared test helpers: an independent first-order evaluator (used as an
oracle against the grounding path) and random generators for ground
formulas and ground programs."""

from __future__ import annotations

from random import Random

import pytest

from lttight.stability import BOT, Conj, Disj, Imp
from lttight.syntax import (
    And, Atom, Bot, Equality, Exists, Forall, Implies, ObjectConstant, Or,
    Variable,
)


def fo_eval(f, interp, env=None):
    """Direct recursive first-order evaluation; deliberately independent
    of the grounding translation it is used to check."""
    env = env or {}

    def term(t):
        if isinstance(t, Variable):
            return env[t]
        return interp.const(t.name)

    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        return tuple(term(t) for t in f.args) in interp.extension(f.predicate)
    if isinstance(f, Equality):
        return term(f.left) == term(f.right)
    if isinstance(f, And):
        return all(fo_eval(g, interp, env) for g in f.items)
    if isinstance(f, Or):
        return any(fo_eval(g, interp, env) for g in f.items)
    if isinstance(f, Implies):
        return (not fo_eval(f.left, interp, env)) or fo_eval(f.right, interp, env)
    if isinstance(f, (Forall, Exists)):
        results = []
        for e in range(interp.universe):
            env2 = dict(env)
            env2[f.var] = e
            results.append(fo_eval(f.body, interp, env2))
        return all(results) if isinstance(f, Forall) else any(results)
    raise TypeError(f"not a formula: {f!r}")


def random_ground_formula(rng: Random, atoms, depth: int):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            return BOT
        return rng.choice(atoms)
    kind = rng.choice(["and", "or", "impl"])
    if kind == "impl":
        return Imp(random_ground_formula(rng, atoms, depth - 1),
                   random_ground_formula(rng, atoms, depth - 1))
    width = rng.randint(0, 3)
    items = tuple(random_ground_formula(rng, atoms, depth - 1)
                  for _ in range(width))
    return Conj(items) if kind == "and" else Disj(items)


def random_ground_program(rng: Random, atoms, max_rules: int):
    """A random ground program whose rule bodies are conjunctions of
    literals: its rule view, ``(head, body)`` pairs, and its formula
    view."""
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(atoms)
        literals = []
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(atoms)
            literals.append(a if rng.random() < 0.6 else Imp(a, BOT))
        rules.append((head, Conj(tuple(literals))))
    gf = Conj(tuple(Imp(body, head) for head, body in rules))
    return tuple(rules), gf


@pytest.fixture
def rng():
    return Random(20260824)
