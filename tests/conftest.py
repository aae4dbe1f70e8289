"""Shared test helpers: an independent first-order evaluator and its
reading of a list of rules (oracles against the grounding path and the
compiled evaluator), the unfolded relevant grounding (the oracle of the
stable-model leaf's fold) and random generators for ground formulas and
ground programs."""

from __future__ import annotations

from itertools import product
from random import Random

import pytest

from lttight.semantics import ground
from lttight.stability import BOT, Conj, Disj, Imp
from lttight.syntax import (
    BASIC, And, Atom, Bot, Equality, Exists, Forall, Implies, ObjectConstant,
    Or, Variable,
)


def fo_eval(f, interp, env=None):
    """Direct recursive first-order evaluation; deliberately independent
    of the grounding translation it is used to check."""
    env = env or {}

    def term(t):
        if isinstance(t, Variable):
            return env[t]
        return interp.consts[t.name]

    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        return tuple(term(t) for t in f.args) in interp.extensions[f.predicate]
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


def rules_eval(rules, interp):
    """What ``evaluation.compile_rules(rules)`` must return, by fo_eval:
    None when some rule's sentence is false, else for each rule with a
    head the value tuples of its free variables, in ``product`` order,
    under which its body holds."""
    if not all(fo_eval(r.sentence(), interp) for r in rules):
        return None
    bindings = []
    for r in rules:
        if r.head is not None:
            free = r.free_vars()
            bindings.append([
                values for values in product(range(interp.universe),
                                             repeat=len(free))
                if fo_eval(r.body, interp, dict(zip(free, values)))])
    return bindings


def relevant_grounding(tables: tuple, interp):
    """The unfolded relevant grounding: None when the interpretation
    violates an instance of a rule in ``tables`` (``sm_tables``), else
    the conjunction of the instances ``body -> head``, each grounded by
    ``ground``, of the basic rules whose body it satisfies, in the order
    of ``ground_program``.  ``semantics.relevant_reduct`` must give its
    folded reduct."""
    compiled, _, rules = tables
    bindings = compiled(interp)
    if bindings is None:
        return None
    instances = []
    for r, tuples in zip([r for r in rules if r.kind == BASIC], bindings):
        names = [v.name for v in r.free_vars()]
        for values in tuples:
            env = dict(zip(names, values))
            instances.append(Imp(ground(r.body, interp, env),
                                 ground(r.head, interp, env)))
    return Conj(tuple(instances))


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
