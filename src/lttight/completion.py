"""Program completion: definitions, completed definitions, and the
conjunction of completed definitions plus constraint sentences.

Choice rules and extensional predicates are first desugared into
double-negation rules so that the completion machinery only ever sees
basic rules and constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .syntax import (
    BASIC, BOT, CHOICE, TOP, And, Atom, Bot, Equality, Exists, Forall, Implies,
    Or, Program, Rule, Variable, conjoin, disjoin, flatten_and, iff, neg,
    substitute, universal_closure_ordered,
)


@dataclass(frozen=True)
class CompletionResult:
    """A completion: ``definitions``, one rule ``p(X1, ..., Xk) :- D``
    per completed predicate, and the constraints' sentences.  Each
    completed definition is built from its rule (``_completed``)."""
    definitions: tuple             # tuple[Rule, ...]
    constraint_sentences: tuple    # tuple[sentence, ...]

    @property
    def completed_definitions(self) -> tuple:
        """``(predicate, sentence)`` per definition: the universal
        closure of ``p(X1, ..., Xk) <-> D``."""
        return tuple((d.head.predicate, _completed(d)) for d in self.definitions)

    def definition_for(self, predicate: str):
        for p, s in self.completed_definitions:
            if p == predicate:
                return s
        raise KeyError(predicate)

    def sentences(self) -> list:
        return [s for _, s in self.completed_definitions] + list(self.constraint_sentences)


def desugar(prog: Program) -> Program:
    """Eliminate choice rules and extensional predicates.

    ``{p(t)} :- G`` becomes ``p(t) :- G & not not p(t)``; every
    extensional predicate ``q`` gets the rule ``q(X..) :- not not q(X..)``
    and is moved into the intensional set.  Constraints pass through.
    """
    rules = []
    for r in prog.rules:
        if r.kind == CHOICE:
            guard = neg(neg(r.head))
            body = guard if r.body == TOP else And(r.body, guard)
            rules.append(Rule(BASIC, r.head, body))
        else:
            rules.append(r)
    extensional = sorted(set(p for p, _ in prog.predicates) - set(prog.intensional))
    for name in extensional:
        arity = prog.arity(name)
        args = tuple(Variable(f"X{i + 1}") for i in range(arity))
        head = Atom(name, args)
        rules.append(Rule(BASIC, head, neg(neg(head))))
    return Program(
        predicates=prog.predicates,
        constants=prog.constants,
        rules=tuple(rules),
        intensional=frozenset(p for p, _ in prog.predicates),
    )


def _definitions(prog: Program, predicates):
    """The definition of each of ``predicates``, its head variables the
    first of ``X1``, ``X2``, ... that no rule of the program uses.  The
    rules are read once, not once per predicate, so a completion is
    linear in them."""
    names = {v.name for r in prog.rules for v in r.variables()}
    heading = {}
    for r in prog.basic_rules():
        heading.setdefault(r.head.predicate, []).append(r)
    arity = dict(prog.predicates)
    for p in predicates:
        fresh = (x for x in map("X{}".format, count(1)) if x not in names)
        head_vars = [Variable(next(fresh)) for _ in range(arity[p])]
        disjuncts = []
        for r in heading.get(p, ()):
            conjuncts = [Equality(x, t) for x, t in zip(head_vars, r.head.args)]
            if r.body != TOP:
                conjuncts.append(r.body)
            inner = conjoin(conjuncts)
            for v in reversed(r.free_vars()):
                inner = Exists(v, inner)
            disjuncts.append(inner)
        yield Rule(BASIC, Atom(p, tuple(head_vars)), disjoin(disjuncts))


def definition_of(prog: Program, p: str) -> Rule:
    """The definition of ``p``: one rule collecting all rules with head
    predicate ``p`` into a disjunction of existentially quantified
    equality-guarded bodies.  Requires a desugared program."""
    return next(_definitions(prog, [p]))


def completed_definition(prog: Program, p: str):
    """Universal closure of ``p(x) <-> D`` with the biconditional expanded."""
    return _completed(definition_of(prog, p))


def _completed(d: Rule):
    return universal_closure_ordered(iff(d.head, d.body), list(d.head.args))


def completion(prog: Program) -> CompletionResult:
    """The definitions of the predicates that are intensional or head a
    basic rule, whose completed definitions the result builds, plus one
    sentence per constraint, its ``Rule.sentence``: the universally
    closed negated body.

    The definitions are those of the desugared program, which is in Clark
    normal form over all its predicates (Ferraris, Lee and Lifschitz,
    2011), so every rule is the if-half of its head's completed
    definition.  An extensional predicate that heads no basic rule gets
    none: its only desugared rule is ``q :- not not q``, whose completed
    definition is a tautology.
    """
    d = desugar(prog)
    defined = prog.intensional | {r.head.predicate for r in prog.basic_rules()}
    return CompletionResult(tuple(_definitions(d, sorted(defined))),
                            tuple(r.sentence() for r in d.constraints()))


# ---------------------------------------------------------------------------
# Equality-driven simplification

def _simplify_exists(var: Variable, body):
    """``exists var (body)`` with its one-point equality read off, or
    None.  ``body`` is read through a run ``exists V1 (... exists Vk
    (C))``, k >= 0: a conjunct of C that is ``var = t`` or ``t = var``,
    with t neither var nor any Vi, goes, and the run is rebuilt over
    the rest of C with var replaced by t.  When some Vi is var, C's
    equalities name Vi, so none is read for var."""
    run = []
    while isinstance(body, Exists):
        run.append(body.var)
        body = body.body
    if var in run:
        return None
    conjuncts = flatten_and(body)
    for i, c in enumerate(conjuncts):
        if not isinstance(c, Equality):
            continue
        if c.left == var:
            t = c.right
        elif c.right == var:
            t = c.left
        else:
            continue
        if t == var or t in run:
            # X = X carries no binding, and X = Vi is left to Vi's own
            # rewrite, which keeps the name X
            continue
        rest = conjuncts[:i] + conjuncts[i + 1:]
        inner = conjoin([substitute(g, {var: t}) for g in rest])
        for v in reversed(run):
            inner = Exists(v, inner)
        return inner
    return None


def _simplify_once(f):
    if isinstance(f, (Bot, Atom, Equality)):
        return f
    if isinstance(f, (And, Or)):
        unit, join = (TOP, conjoin) if isinstance(f, And) else (BOT, disjoin)
        items = [_simplify_once(g) for g in f.items]
        return join([g for g in items if g != unit])
    if isinstance(f, Implies):
        if f == TOP:
            return f
        return Implies(_simplify_once(f.left), _simplify_once(f.right))
    if isinstance(f, Forall):
        return Forall(f.var, _simplify_once(f.body))
    if isinstance(f, Exists):
        body = _simplify_once(f.body)
        rewritten = _simplify_exists(f.var, body)
        if rewritten is not None:
            return rewritten
        return Exists(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def simplify(f):
    """Equality-driven simplification, to a fixpoint.

    Only these rewrites are applied: ``exists X (X = t & F)`` becomes
    ``F[X := t]`` when X does not occur in t (either orientation of the
    equality), also through a run of existentials between them
    (``_simplify_exists``); ``F & true``/``true & F`` become ``F``;
    ``F | false`` / ``false | F`` become ``F``.  The result is logically
    equivalent to the input.
    """
    while True:
        g = _simplify_once(f)
        if g == f:
            return g
        f = g


def simplify_completion(result: CompletionResult) -> CompletionResult:
    """Each definition's body ``D`` and each constraint sentence
    simplified.  A completed definition simplifies to the one built from
    its simplified ``D``: no rewrite reaches past ``D``."""
    return CompletionResult(
        tuple(Rule(BASIC, d.head, simplify(d.body)) for d in result.definitions),
        tuple(simplify(s) for s in result.constraint_sentences),
    )
