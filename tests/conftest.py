"""Shared test helpers: an independent first-order evaluator and its
reading of a list of rules (oracles against the grounding path and the
compiled evaluator), an interpretation's true atoms in sorted order,
the reduct of a ground formula, plain and folded, and stability
decided on it (oracles of the stable-model leaf), the unfolded
relevant grounding (the oracle of the leaf's fold), the rule
check every caller of the leaf hands it bindings from, the chain
invariants, and random generators for ground formulas and ground
programs."""

from __future__ import annotations

from itertools import product
from random import Random

import pytest

from lttight.evaluation import compile_rules
from lttight.semantics import (
    DEFAULT_STABILITY_CAP, ground, is_stable, satisfies,
)
from lttight.stability import (
    BOT, Conj, Disj, Imp, implication, junction,
)
from lttight.syntax import (
    BASIC, And, Atom, Bot, Equality, Exists, Forall, Implies, Or, Variable,
)
from lttight.tightness import link_atoms


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


def rule_check(tables: tuple):
    """The rules of ``tables`` (``sm_tables``) compiled once, as
    ``check-prop3`` and ``stable`` compile them: a function that gives an
    interpretation's rule bindings, which ``is_sm_model`` takes, or None
    when it violates an instance of a rule."""
    return compile_rules(tables[0])


def relevant_grounding(tables: tuple, interp, bindings):
    """The unfolded relevant grounding: None when the rule ``bindings``
    (``rule_check``) are None, else the conjunction of the instances
    ``body -> head``, each grounded by ``ground``, of the basic rules in
    ``tables`` (``sm_tables``) whose body the interpretation satisfies,
    in the order of ``ground_program``.  ``semantics.relevant_reduct``
    must give its folded reduct."""
    if bindings is None:
        return None
    instances = []
    for r, tuples in zip([r for r in tables[0] if r.kind == BASIC], bindings):
        names = [v.name for v in r.free_vars()]
        for values in tuples:
            env = dict(zip(names, values))
            instances.append(Imp(ground(r.body, interp, env),
                                 ground(r.head, interp, env)))
    return Conj(tuple(instances))


def reduct(g, j):
    """Ferraris-style reduct: every subformula not satisfied by j
    collapses to false."""
    if not satisfies(j, g):
        return BOT
    cls = type(g)
    if cls is tuple:
        return g
    if cls is Imp:
        return Imp(reduct(g.left, j), reduct(g.right, j))
    return cls(tuple(reduct(x, j) for x in g.items))


def folded_reduct(g, numbers: dict):
    """The reduct of the ground formula ``g`` relative to j, folded over
    atom numbers (see ``stability``), where ``numbers`` maps each atom
    of j to its number.  A subformula that j does not satisfy folds to
    ``BOT``, so the result is ``BOT`` exactly when j does not satisfy
    ``g``.  The walk takes one stack frame per level of ``g``."""
    cls = type(g)
    if cls is tuple:
        return numbers.get(g, BOT)
    if cls is Imp:
        return implication(folded_reduct(g.left, numbers),
                           folded_reduct(g.right, numbers))
    if cls is Conj or cls is Disj:
        items = []
        for x in g.items:
            items.append(folded_reduct(x, numbers))
        return junction(cls, items)
    raise TypeError(f"not a ground formula: {g!r}")


def true_atoms(interp) -> list:
    """The interpretation's true atoms ``(predicate, args)``, in sorted
    order, the order ``atom_numbers(sorted(j))`` numbers J in."""
    return [(p, t) for p, tuples in sorted(interp.extensions.items())
            for t in sorted(tuples)]


def atom_numbers(atoms) -> dict:
    """The distinct ground atoms of ``atoms`` numbered ``0 .. n-1`` in
    the order they first occur."""
    numbers = dict.fromkeys(atoms)
    for i, a in enumerate(numbers):
        numbers[a] = i
    return numbers


def is_stable_ground(g, j, cap: int = DEFAULT_STABILITY_CAP) -> bool:
    """True iff j satisfies the reduct of the ground formula g relative
    to j and no proper subset of j does: j's distinct atoms numbered in
    sorted order, g's reduct folded over those numbers, and
    ``semantics.is_stable`` decides."""
    numbers = atom_numbers(sorted(j))
    return is_stable(folded_reduct(g, numbers), numbers, cap)


def check_chain(c) -> None:
    """Validate the chain invariants: adjacent link condition and
    pairwise variable disjointness."""
    assert len(c.rules) == len(c.labels) + 1
    for i, label in enumerate(c.labels):
        assert label in link_atoms(c.rules[i].body), \
            "label must occur positively nonnegated"
        assert label.predicate == c.rules[i + 1].head.predicate
    seen: set = set()
    for r in c.rules:
        vs = r.variables()
        assert not (vs & seen), "chain rules must be variable-disjoint"
        seen |= vs


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


def random_non_horn_formula(rng: Random, atoms):
    """A random conjunction of ground rules whose consequents are atoms,
    disjunctions of atoms or nested implications ``(a -> b) -> c``, and
    whose antecedents are conjunctions of literals: formulas whose least
    completion after propagation need not be a model."""
    rules = []
    for _ in range(rng.randint(1, 8)):
        body = Conj(tuple(
            rng.choice(atoms) if rng.random() < 0.6
            else Imp(rng.choice(atoms), BOT)
            for _ in range(rng.randint(0, 2))))
        roll = rng.random()
        if roll < 0.5:
            head = Disj(tuple(rng.sample(atoms, rng.randint(2, 3))))
        elif roll < 0.8:
            head = Imp(Imp(rng.choice(atoms), rng.choice(atoms)),
                       rng.choice(atoms))
        else:
            head = rng.choice(atoms)
        rules.append(Imp(body, head))
    return Conj(tuple(rules))


@pytest.fixture
def rng():
    return Random(20260824)
